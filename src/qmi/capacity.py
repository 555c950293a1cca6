"""Channel-capacity functionals.

Quantum and pseudo capacities maximize the corresponding mutual entropy
over a family of input states; the classical-quantum-classical capacities
maximize the Shannon mutual information of the induced classical channel
over input distributions, codings, and decodings. Richer search modes
always include the result of the poorer mode as a candidate, so the
monotone chains hold by construction and not by luck.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .channels import KrausChannel, Povm, _square_root_povm_rows, apply_matrix
from .entropy import _entropy_rows
from .mutual import (
    DualRouteValue,
    MutualResult,
    _checked_ohya,
    _ohya_suprema,
    _split_search,
    _sqrt_psd,
)
from .operators import ZERO_TOL, ConsistencyError, DensityOperator, _rotated, as_probability
from .search import SearchBudget, SearchResult, _complex_stack, maximize_batch, softmax


@dataclass(frozen=True)
class CodingScheme:
    """Alphabet-indexed coded states."""

    states: tuple[DensityOperator, ...]

    def __post_init__(self):
        if not self.states:
            raise ValueError("a coding needs at least one state")
        dims = {s.dim for s in self.states}
        if len(dims) != 1:
            raise ValueError("coded states have inconsistent dimensions")

    @property
    def size(self) -> int:
        return len(self.states)

    @property
    def dim(self) -> int:
        return self.states[0].dim


def _check_chain_dims(coding: CodingScheme, channel: KrausChannel, decoding: Povm) -> None:
    if coding.dim != channel.in_dim:
        raise ValueError("coding dimension does not match the channel input")
    if decoding.dim != channel.out_dim:
        raise ValueError("decoding dimension does not match the channel output")


@dataclass(frozen=True)
class CqcInstance:
    """A classical-quantum-classical transmission instance."""

    weights: np.ndarray
    coding: CodingScheme
    channel: KrausChannel
    decoding: Povm

    def __post_init__(self):
        w = as_probability(self.weights)
        if w.size != self.coding.size:
            raise ValueError("weights and coding alphabet sizes differ")
        _check_chain_dims(self.coding, self.channel, self.decoding)
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)


@dataclass(frozen=True)
class CapacityReport:
    value: float
    converged: bool
    evals: int
    maximizer: dict = field(default_factory=dict)
    notes: dict = field(default_factory=dict)


def _normalized_grams(factors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A A^dag / tr (Hermitian part) for each factor A of rows of stacked factors
    (rows, K, d, r), and per row whether every trace is at least 1e-12 (the
    grams of other rows are not meaningful)."""
    m = factors @ factors.conj().swapaxes(-1, -2)
    tr = np.real(np.trace(m, axis1=-2, axis2=-1))
    traced = np.min(tr, axis=-1) >= 1e-12
    m = m / np.where(traced[:, None], tr, 1.0)[..., None, None]
    return (m + m.conj().swapaxes(-1, -2)) / 2, traced


@dataclass(frozen=True)
class StateFamily:
    """Input-state family for the capacity suprema."""

    kind: str  # "full" | "rank" | "diagonal"
    dim: int
    rank: int | None = None

    def __post_init__(self):
        if self.kind not in ("full", "rank", "diagonal"):
            raise ValueError(f"unknown state family {self.kind!r}")
        if self.kind == "rank":
            if not self.rank or not 1 <= self.rank <= self.dim:
                raise ValueError("rank family needs 1 <= rank <= dim")

    @property
    def effective_rank(self) -> int:
        return self.rank if self.kind == "rank" else self.dim

    @property
    def n_params(self) -> int:
        if self.kind == "diagonal":
            return self.dim
        return 2 * self.dim * self.effective_rank

    def state_from_params(self, params: np.ndarray) -> DensityOperator | None:
        """The validated family member; None below trace 1e-12."""
        mats, traced = self._matrices_from_params(np.asarray(params, dtype=float)[None])
        return DensityOperator(mats[0]) if traced[0] else None

    def _matrices_from_params(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The members of the rows of points (rows, n_params), unvalidated, and
        per row whether it has trace at least 1e-12 (other rows' matrices are
        not meaningful)."""
        if self.kind == "diagonal":
            mats = np.zeros((len(points), self.dim, self.dim), dtype=complex)
            diag = np.arange(self.dim)
            mats[:, diag, diag] = softmax(points)
            return mats, np.ones(len(points), dtype=bool)
        grams, traced = _normalized_grams(_complex_stack(points, 1, self.dim, self.effective_rank))
        return grams[:, 0], traced

    def supremum(self, value_rows, budget: SearchBudget) -> tuple[SearchResult, DensityOperator | None]:
        """Maximize a batch objective over the family from its candidate starts.

        `value_rows(mats, traced)` sees the unvalidated members of a round of
        points, stacked (rows, d, d), and per row whether the member has trace
        at least 1e-12; it returns one value per row. A member below that
        trace scores -inf, whatever its value. Only the maximizer is
        validated: the second item is its DensityOperator, or None when it
        has no trace.
        """

        def objective(points: np.ndarray) -> np.ndarray:
            mats, traced = self._matrices_from_params(points)
            return np.where(traced, value_rows(mats, traced), -math.inf)

        result = maximize_batch(objective, self.n_params, budget, starts=self.candidate_starts())
        return result, self.state_from_params(result.params)

    def candidate_starts(self) -> list[np.ndarray]:
        """Deterministic starts: the flattest family member plus basis states."""
        if self.kind == "diagonal":
            return [np.zeros(self.dim)]
        r = self.effective_rank
        flat = np.zeros(2 * self.dim * r)
        flat[: self.dim * r] = np.eye(self.dim, r).reshape(-1)
        corner = np.zeros(2 * self.dim * r)
        corner[0] = 1.0
        return [flat, corner]


def _outcome_rows(p: np.ndarray) -> np.ndarray:
    """Born rows (along the last axis) clipped at 0 and rescaled to sum 1
    (rows summing to 0 stay 0)."""
    p = np.clip(p, 0.0, None)
    total = p.sum(axis=-1, keepdims=True)
    return np.divide(p, total, out=p, where=total > 0)


def _cqc_kl(weights: np.ndarray, dists: np.ndarray) -> np.ndarray:
    """sum_k lambda_k KL(W_k || lambda W) for each row of input weights (rows, K)
    through transition rows W, one (K, J) for all rows or (rows, K, J).

    Infinite when a row charges an outcome the mixture does not; weights at
    or below 1e-15 drop out as exact 0 terms. Up to 7 letters numpy sums a
    row in order, so that equals the sum over the kept letters bit for bit;
    from 8 letters its pairwise sum may round otherwise in the last bit.
    """
    avg = (weights[..., None] * dists).sum(axis=-2)[:, None, :]
    keep = weights > 1e-15
    charged = (dists > ZERO_TOL) & keep[..., None]
    supported = avg > ZERO_TOL
    infinite = (charged & ~supported).any(axis=(-2, -1))
    ratio = np.divide(dists, avg, out=np.ones(charged.shape), where=charged & supported)
    terms = weights * (dists * np.log(ratio)).sum(axis=-1)
    total = np.where(keep, terms, 0.0).sum(axis=-1)
    return np.where(infinite, math.inf, total)


def _letter_kl(weights: np.ndarray, dists: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """D(W_k || lambda W) for every letter k, weight 0 included, by the terms
    `_cqc_kl` sums (+inf when W_k charges an outcome the mixture does not),
    and the mixture lambda W."""
    avg = (weights[:, None] * dists).sum(axis=0)
    charged = dists > ZERO_TOL
    supported = avg > ZERO_TOL
    ratio = np.divide(dists, avg, out=np.ones(dists.shape), where=charged & supported)
    kl = (dists * np.log(ratio)).sum(axis=-1)
    return np.where((charged & ~supported).any(axis=-1), math.inf, kl), avg


def _cqc_weights(dists: np.ndarray, budget: SearchBudget) -> tuple[np.ndarray, float, float, int]:
    """Shannon capacity of the transition rows `dists` (K, J): the input
    weights q, I(q), the gap and the number of evaluations of I.

    I(q) = `_cqc_kl` is concave, and the gap max_k D(W_k || qW) - I(q) bounds
    its distance to the capacity from above (Blahut 1972; Arimoto 1972).
    From uniform q the solver moves to the first of `_trials` that raises I,
    until the gap is at most budget.tol, no trial raises I, or
    budget.restarts * budget.max_evals evaluations are spent (the rows that
    the budget's Nelder-Mead descents may score).
    """
    size = len(dists)
    cap = budget.restarts * budget.max_evals

    def score(q):
        return float(_cqc_kl(q[None], dists)[0]), *_letter_kl(q, dists)

    q = np.full(size, 1.0 / size)
    value, kl, avg = score(q)
    evals = 1
    while (gap := float(kl.max()) - value) > budget.tol and evals < cap:
        for trial in _trials(q, value, kl, avg, dists, budget.tol):
            if evals == cap:
                break
            scored = score(trial)
            evals += 1
            if math.isfinite(scored[0]) and scored[0] > value:
                q, (value, kl, avg) = trial, scored
                break
        else:
            break
    return q, value, gap, evals


def _trials(q, value, kl, avg, dists, tol):
    """The points `_cqc_weights` tries from q, in order, until one raises I.

    While some letter of finite D_k has D_k - I above tol: the Newton point,
    then the Blahut-Arimoto point q_k exp(D_k) / Z. Then, for each letter of
    D_k = +inf (weight 0, charging an outcome the mixture does not),
    (1 - eps) q + eps e_k for eps = 1/K, 1/2K, ..., while eps W_kj stays
    above ZERO_TOL on every such outcome j (below, `_cqc_kl` scores the
    point +inf).
    """
    finite = np.isfinite(kl)
    if kl[finite].max() - value > tol:
        yield _newton_step(q, value, kl, finite, avg, dists)
        support = (q > 0) & finite
        ba = np.zeros_like(q)
        ba[support] = q[support] * np.exp(kl[support] - kl[support].max())
        yield ba / ba.sum()
    for letter in np.flatnonzero(~finite):
        row = dists[letter]
        floor = ZERO_TOL / row[(row > ZERO_TOL) & (avg <= ZERO_TOL)].min()
        eps = 1.0 / len(q)
        while eps > floor:
            trial = (1.0 - eps) * q
            trial[letter] += eps
            yield trial
            eps /= 2


def _newton_step(q, value, kl, finite, avg, dists) -> np.ndarray:
    """The active-set Newton point from q.

    I has gradient D_k - 1 and Hessian -W diag(1/qW) W^T. The Newton system,
    with a ridge of 1e-12 times the trace and steps summing to 0, is solved
    on the free letters: those of positive weight, and those at 0 with
    D_k > I. A letter at 0 whose component comes out negative leaves the set
    before the system is solved again. A ratio test cuts the step where the
    first letter reaches 0 and sets that letter to exactly 0.
    """
    free = ((q > 0) | (kl > value)) & finite
    inv_avg = np.divide(1.0, avg, out=np.zeros_like(avg), where=avg > ZERO_TOL)
    while True:
        idx = np.flatnonzero(free)
        rows = dists[idx]
        hess = (rows * inv_avg) @ rows.T
        n = len(idx)
        system = np.ones((n + 1, n + 1))
        system[:n, :n] = hess + 1e-12 * np.trace(hess) * np.eye(n)
        system[n, n] = 0.0
        step = np.linalg.solve(system, np.append(kl[idx], 0.0))[:n]
        leaving = (q[idx] == 0) & (step < 0)
        if not leaving.any():
            break
        free[idx[leaving]] = False
    trial = q.copy()
    shrinking = np.flatnonzero(step < 0)
    ratios = q[idx[shrinking]] / -step[shrinking]
    if len(ratios) and ratios.min() < 1.0:
        block = int(np.argmin(ratios))
        trial[idx] += ratios[block] * step
        trial[idx[shrinking[block]]] = 0.0
    else:
        trial[idx] += step
    trial = np.clip(trial, 0.0, None)
    return trial / trial.sum()


def _cqc_routes(weights: np.ndarray, dists: np.ndarray) -> DualRouteValue:
    """Shannon mutual information of input weights through transition rows, two ways.

    `value` is `_cqc_kl`; `cross_value` is H(lambda W) - sum_k lambda_k H(W_k),
    where weights at or below 1e-15 drop out too. Disagreement beyond 1e-8
    raises ConsistencyError.
    """
    kl_route = float(_cqc_kl(weights[None], dists)[0])
    keep = weights > 1e-15
    avg = (weights[:, None] * dists).sum(axis=0)
    entropies = _entropy_rows(np.vstack([dists[keep], avg]))
    shannon_route = float(entropies[-1]) - float((weights[keep] * entropies[:-1]).sum())
    result = DualRouteValue(value=kl_route, cross_value=shannon_route)
    if result.defect > 1e-8:
        raise ConsistencyError(
            f"cqc mutual-entropy routes disagree: {kl_route!r} vs {shannon_route!r}"
        )
    return result


def _checked_cqc(value: float, weights: np.ndarray, dists: np.ndarray) -> float:
    """`value`, once `_cqc_routes` at (weights, dists) has reproduced it within 1e-8."""
    routes = _cqc_routes(weights, dists)
    if abs(routes.value - value) > 1e-8:
        raise ConsistencyError(f"cqc search reported {value!r}, its point scores {routes.value!r}")
    return value


class _CqcEvaluator:
    """The fixed work of the cqc searches for one (channel, decoding) pair.

    Built once per search: the decoding's Heisenberg-picture effects
    ch*(E_j) = sum_r K_r^dag E_j K_r, so the transition matrix
    W[k, j] = tr(E_j ch(sigma_k)) = tr(ch*(E_j) sigma_k) of a stack of coded
    states is one einsum. Nothing here is validated: the inputs come from
    validated objects or from the searches' own parameterizations.
    """

    def __init__(self, ch: KrausChannel, decoding: Povm):
        self.channel = ch
        kraus = ch.stack
        effects = np.stack(decoding.effects)
        self.dual = (kraus.conj().transpose(0, 2, 1)[:, None] @ effects @ kraus[:, None]).sum(axis=0)

    def transitions(self, states: np.ndarray) -> np.ndarray:
        """W for stacked coded states (..., K, d, d) and the cached decoding."""
        return _outcome_rows(np.einsum("jab,...kba->...kj", self.dual, states).real)

    def pure_transitions(self, vectors: np.ndarray) -> np.ndarray:
        """W for coded states |v_k><v_k| given as the rows of `vectors` (..., K, d)."""
        return _outcome_rows(np.einsum("...ka,jab,...kb->...kj", vectors.conj(), self.dual, vectors).real)

    def decoded_transitions(self, states: np.ndarray, effects: np.ndarray) -> np.ndarray:
        """W for stacked coded states (..., K, d, d) and decoding effects (..., J, e, e)."""
        return _outcome_rows(np.einsum("...jab,...kba->...kj", effects, apply_matrix(self.channel, states)).real)


def cqc_mutual_entropy(inst: CqcInstance) -> DualRouteValue:
    """Shannon mutual information of the coded-transmitted-decoded chain.

    `value` is the weighted KL of outcome distributions against their
    mixture; the cross route is the Shannon-entropy difference. The two are
    algebraically identical and checked to 1e-8.
    """
    evaluator = _CqcEvaluator(inst.channel, inst.decoding)
    states = np.stack([s.matrix for s in inst.coding.states])
    return _cqc_routes(inst.weights, evaluator.transitions(states))


def quantum_capacity(
    ch: KrausChannel, family: StateFamily, search: SearchBudget | None = None
) -> CapacityReport:
    """sup over the state family of the mutual entropy through the channel.

    Each round of family members has its inner Ohya suprema solved together
    (`mutual._ohya_suprema`), on budget.child(1). The inner result of the
    maximizing state is kept, not searched again: its decomposition is
    rebuilt from the support eigen-data that search rotated and dual-route
    checked as `ohya_mutual_entropy` does, and that checked value is
    reported. `qdc_hierarchy(None, ...)` reads this same search, so its d
    capacity is this value.
    """
    return _quantum_search(ch, family, search or SearchBudget())[0]


def _quantum_search(
    ch: KrausChannel, family: StateFamily, budget: SearchBudget, observe=None
) -> tuple[CapacityReport, np.ndarray, MutualResult | None]:
    """`quantum_capacity`'s report, its family parameters and the Ohya result
    at its maximizer; `observe` goes to every inner `_ohya_suprema`."""
    if family.dim != ch.in_dim:
        raise ValueError("family dimension does not match the channel input")
    inner = budget.child(1)
    found = {}  # the inner (result, support) of each evaluated member, by the member's bytes

    def value_rows(mats: np.ndarray, traced: np.ndarray) -> np.ndarray:
        mats = mats[traced]
        results = _ohya_suprema(ch, mats, inner, observe)
        found.update(zip((m.tobytes() for m in mats), results))
        values = np.full(len(traced), -math.inf)
        values[traced] = [r.value for r, _ in results]
        return values

    result, best_state = family.supremum(value_rows, budget)
    ohya = None
    if best_state is not None:
        # state_from_params rebuilds the member as the search's round built it,
        # and DensityOperator keeps an exactly Hermitian member bit for bit.
        if (inner_best := found.get(best_state.matrix.tobytes())) is None:
            raise ConsistencyError("the maximizing state, rebuilt from its parameters, is no evaluated member")
        inner_result, support = inner_best
        ohya = _checked_ohya(best_state, ch, _rotated(*support, inner_result.params), inner_result)
    report = CapacityReport(
        value=result.value if ohya is None else ohya.value,
        converged=result.converged,
        evals=result.evals,
        maximizer={"state": best_state.matrix if best_state is not None else None},
    )
    return report, result.params, ohya


def pseudo_capacity(
    ch: KrausChannel,
    family: StateFamily,
    n_components: int,
    search: SearchBudget | None = None,
) -> CapacityReport:
    """sup over the state family of the pseudo-mutual entropy.

    The pseudo mutual entropy of rho is a supremum over the convex splits
    rho = sum_k lambda_k sigma_k, so the capacity is `mutual._split_search`
    over (family parameters, split parameters): one flat search of the
    Holevo quantity chi = S(ch(rho)) - sum_k lambda_k S(ch(sigma_k)). It
    starts from the quantum-capacity maximizer and its Ohya decomposition,
    runs on budget.child(2), and is floored at the quantum capacity, so
    C <= C_p holds by construction. Only the maximizer is validated.
    `maximizer` holds its state and ensemble; `evals` is the quantum search's
    plus the flat search's.
    """
    if n_components < 1:
        raise ValueError("need at least one component")
    budget = search or SearchBudget()
    base, base_params, ohya = _quantum_search(ch, family, budget)
    if ohya is None:
        raise ConsistencyError("the quantum capacity search found no state")

    def member(heads: np.ndarray):
        rhos, traced = family._matrices_from_params(heads)
        out_entropies = _entropy_rows(np.linalg.eigvalsh(apply_matrix(ch, rhos)))
        return rhos, _sqrt_psd(rhos), out_entropies, traced

    # The floor is the quantum capacity: its value is ohya's, its flag the family search's.
    floor = replace(ohya, converged=base.converged)
    result, state = _split_search(ch, member, base_params, floor, n_components, budget.child(2))
    return CapacityReport(
        value=result.value,
        converged=result.converged,
        evals=base.evals + result.evals,
        maximizer={"n_components": n_components, "state": state, "weights": result.weights,
                   "components": result.components},
        notes={"quantum_capacity": base.value},
    )


def _pure_codes(points: np.ndarray, size: int, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Unit coding vectors (rows, size, dim) for each row of points, and per
    row whether every vector has norm at least 1e-8."""
    v = _complex_stack(points, size, 1, dim)[..., 0, :]
    norms = np.linalg.norm(v, axis=-1)
    coded = np.min(norms, axis=-1) >= 1e-8
    return v / np.where(coded[:, None], norms, 1.0)[..., None], coded


def _mixed_codes(points: np.ndarray, size: int, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Coded states A A^dag / tr (rows, size, dim, dim) for each row of points,
    and per row whether every trace is at least 1e-12."""
    return _normalized_grams(_complex_stack(points, size, dim, dim))


def _sqrt_psd_params(mats, slots: int) -> np.ndarray:
    """Parameters whose complex blocks are sqrt(m) for the leading matrices, zero after."""
    roots = _sqrt_psd(np.stack(mats[:slots]))
    out = np.zeros((slots, 2, *roots.shape[1:]))
    out[: len(roots), 0], out[: len(roots), 1] = roots.real, roots.imag
    return out.reshape(-1)


def _coding_params(states: np.ndarray, pure: bool) -> np.ndarray:
    """Parameters reproducing (approximately) the reference coding's states."""
    if not pure:
        return _sqrt_psd_params(states, len(states))
    top = np.linalg.eigh(states)[1][:, :, -1]
    return np.stack([top.real, top.imag], axis=1).reshape(-1)


def cqc_capacity(
    channel: KrausChannel,
    decoding: Povm,
    coding: CodingScheme,
    mode: str = "weights",
    search: SearchBudget | None = None,
    pure_coding: bool = True,
    n_decoding: int | None = None,
) -> CapacityReport:
    """Capacity of the classical-quantum-classical chain.

    mode "weights" maximizes over input distributions with the given coding
    and decoding fixed; "coding" additionally frees the coded states;
    "full" also frees the decoding POVM. Each richer mode includes the
    poorer one's supremum as a candidate, so the chain is monotone. All
    modes score the chain with one cached evaluator by the KL route alone.
    Each reported point is dual-route checked once, when it sets the value.
    `n_decoding` (default: `decoding`'s) counts "full"'s free outcomes.

    "weights" is a concave problem and is solved, not searched
    (`_cqc_weights`): its notes hold the gap max_k D(W_k || qW) - I(q), an
    upper bound on the distance to the capacity; `converged` means gap <=
    search.tol; `evals` counts the evaluations of I; `maximizer["weights"]`
    is q. "coding" and "full" run a Nelder-Mead search floored at the poorer
    mode on a child budget; their `evals` is the search's plus the floor's.
    """
    if mode not in ("weights", "coding", "full"):
        raise ValueError(f"unknown cqc mode {mode!r}")
    if n_decoding is not None and n_decoding < 1:
        raise ValueError("need at least one decoding outcome")
    _check_chain_dims(coding, channel, decoding)
    states = np.stack([s.matrix for s in coding.states])
    return _cqc_search(
        _CqcEvaluator(channel, decoding),
        states,
        decoding,
        mode,
        search or SearchBudget(),
        pure_coding,
        decoding.n_outcomes if n_decoding is None else n_decoding,
    )


def _cqc_search(
    evaluator: _CqcEvaluator,
    states: np.ndarray,
    decoding: Povm,
    mode: str,
    budget: SearchBudget,
    pure: bool,
    n_out: int,
) -> CapacityReport:
    """`cqc_capacity` on the evaluator and the stacked coded states: the
    "weights" solve, or a "coding" or "full" search whose weights block
    starts at zeros and whose floor is the poorer mode on budget.child(3)
    ("coding" over "weights") or budget.child(4) ("full" over "coding")."""
    size, dim = states.shape[:2]
    if mode == "weights":
        dists = evaluator.transitions(states)
        weights, value, gap, evals = _cqc_weights(dists, budget)
        return CapacityReport(
            value=_checked_cqc(value, weights, dists),
            converged=gap <= budget.tol,
            evals=evals,
            maximizer={"weights": weights},
            notes={"gap": gap},
        )

    poorer, child = ("weights", 3) if mode == "coding" else ("coding", 4)
    floor = _cqc_search(evaluator, states, decoding, poorer, budget.child(child), pure, n_out)
    make_codes = _pure_codes if pure else _mixed_codes
    n_codes = size * (2 * dim if pure else 2 * dim * dim)
    out_dim = decoding.dim

    def transitions(points):
        """W at the coding (and decoding) of each row of points; per row whether
        every code has a norm; and per row whether its decoding needed the
        square-root POVM's completion effect."""
        codes, coded = make_codes(points[:, size : size + n_codes], size, dim)
        if mode == "coding":
            dists = evaluator.pure_transitions(codes) if pure else evaluator.transitions(codes)
            return dists, coded, np.zeros(len(points), dtype=bool)
        if pure:
            codes = codes[..., :, None] * codes.conj()[..., None, :]
        factors = _complex_stack(points[:, size + n_codes :], n_out, out_dim, out_dim)
        effects, completed = _square_root_povm_rows(factors)
        if not completed.any():
            effects = effects[:, :-1]
        return evaluator.decoded_transitions(codes, effects), coded, completed

    def objective(points):
        dists, coded, completed = transitions(points)
        if completed.any() and not completed.all():
            # Each row's sums run over its own outcomes: score the rows with and
            # without the completion effect apart.
            values = np.empty(len(points))
            for group in (completed, ~completed):
                values[group] = objective(points[group])
            return values
        return np.where(coded, _cqc_kl(softmax(points[:, :size]), dists), -math.inf)

    starts = [np.zeros(size), _coding_params(states, pure)]
    if mode == "full":
        starts.append(_sqrt_psd_params(decoding.effects, n_out))
    notes = {"fixed_coding_value" if mode == "coding" else "fixed_decoding_value": floor.value}
    start = np.concatenate(starts)
    result = maximize_batch(objective, start.size, budget, starts=[start])
    if result.value > floor.value:
        dists, _, _ = transitions(result.params[None])
        _checked_cqc(result.value, softmax(result.params[:size]), dists[0])
    return CapacityReport(
        value=max(result.value, floor.value),
        converged=result.converged or floor.converged,
        evals=result.evals + floor.evals,
        maximizer={"mode": mode},
        notes=notes,
    )
