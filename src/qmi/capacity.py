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

from .channels import KRAUS_TOL, KrausChannel, Povm, apply_matrix
from .entropy import _entropy_rows
from .mutual import (
    DualRouteValue,
    MutualResult,
    _checked_ohya,
    _ohya_suprema,
    _split_search,
    _sqrt_psd,
)
from .operators import ZERO_TOL, ConsistencyError, DensityOperator, as_probability, hermitian_part
from .search import SearchBudget, SearchResult, _complex_stack, maximize_batch, softmax


@dataclass(frozen=True, eq=False)
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


@dataclass(frozen=True, eq=False)
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


@dataclass(frozen=True, eq=False)
class CapacityReport:
    value: float
    converged: bool
    evals: int
    maximizer: dict = field(default_factory=dict)
    notes: dict = field(default_factory=dict)


def _normalized_grams(factors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A A^dag / tr (Hermitian part) for each factor A of a stack (rows, d, r),
    and per row whether its trace is at least 1e-12 (the grams of other rows
    are not meaningful)."""
    m = factors @ factors.conj().swapaxes(-1, -2)
    tr = np.real(np.trace(m, axis1=-2, axis2=-1))
    traced = tr >= 1e-12
    m = m / np.where(traced, tr, 1.0)[:, None, None]
    return hermitian_part(m), traced


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
        return _normalized_grams(_complex_stack(points, 1, self.dim, self.effective_rank)[:, 0])

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
    `_cqc_kl` sums, and the mixture lambda W.

    Where W_k charges an outcome the mixture does not (at the points
    `_cqc_weights` keeps, only a letter of weight at most 1e-15 can), the
    mixture there is read at ZERO_TOL, the least that `_cqc_kl` resolves,
    so D_k stays finite: a letter whose best weight lies below that
    resolution (say e^-690) is certified at weight 0.
    """
    avg = (weights[:, None] * dists).sum(axis=0)
    ratio = np.divide(dists, np.maximum(avg, ZERO_TOL), out=np.ones(dists.shape), where=dists > ZERO_TOL)
    return (dists * np.log(ratio)).sum(axis=-1), avg


def _cqc_weights(
    dists: np.ndarray, budget: SearchBudget, start: np.ndarray | None = None
) -> tuple[np.ndarray, float, float, int]:
    """Shannon capacity of the transition rows `dists` (K, J): the input
    weights q, I(q), the gap and the number of evaluations of I.

    I(q) = `_cqc_kl` is concave, and the gap max_k D(W_k || qW) - I(q) bounds
    its distance to the capacity from above (Blahut 1972; Arimoto 1972),
    with D_k as `_letter_kl` scores it. From `start` (default: uniform),
    which must score a finite I, the solver moves to the first of `_trials`
    that raises I, until the gap is at most budget.tol, no trial raises I,
    or budget.restarts * budget.max_evals evaluations are spent (the rows
    that the budget's Nelder-Mead descents may score).
    """
    size = len(dists)
    cap = budget.restarts * budget.max_evals

    def score(q):
        return float(_cqc_kl(q[None], dists)[0]), *_letter_kl(q, dists)

    q = np.full(size, 1.0 / size) if start is None else start
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

    A letter is blocked when it charges an outcome the mixture does not
    (weight 0, D_k read at the threshold). While some letter that is not
    blocked has D_k - I above tol: the Newton point, then the
    Blahut-Arimoto point q_k exp(D_k) / Z. Then, for each blocked letter
    with D_k - I above tol, (1 - eps) q + eps e_k for eps = 1/K, 1/2K, ...,
    while eps W_kj stays above ZERO_TOL on every such outcome j (below,
    `_cqc_kl` scores the point +inf).
    """
    unblocked = ~(dists[:, avg <= ZERO_TOL] > ZERO_TOL).any(axis=-1)
    if kl[unblocked].max() - value > tol:
        yield _newton_step(q, value, kl, unblocked, avg, dists)
        support = (q > 0) & unblocked
        ba = np.zeros_like(q)
        ba[support] = q[support] * np.exp(kl[support] - kl[support].max())
        yield ba / ba.sum()
    for letter in np.flatnonzero(~unblocked & (kl - value > tol)):
        row = dists[letter]
        floor = ZERO_TOL / row[(row > ZERO_TOL) & (avg <= ZERO_TOL)].min()
        eps = 1.0 / len(q)
        while eps > floor:
            trial = (1.0 - eps) * q
            trial[letter] += eps
            yield trial
            eps /= 2


def _newton_step(q, value, kl, unblocked, avg, dists) -> np.ndarray:
    """The active-set Newton point from q.

    I has gradient D_k - 1 and Hessian -W diag(1/qW) W^T. The Newton system,
    with a ridge of 1e-12 times the trace and steps summing to 0, is solved
    on the free letters: those of positive weight, and those at 0 with
    D_k > I. A letter at 0 whose component comes out negative leaves the set
    before the system is solved again. A ratio test cuts the step where the
    first letter reaches 0 and sets that letter to exactly 0.
    """
    free = ((q > 0) | (kl > value)) & unblocked
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


class _CqcEvaluator:
    """The fixed work of the cqc solves for one channel and stack of effects.

    The decoding's Heisenberg-picture effects ch*(E_j) = sum_r K_r^dag E_j K_r,
    so the transition matrix W[k, j] = tr(E_j ch(sigma_k)) = tr(ch*(E_j) sigma_k)
    of a stack of coded states is one einsum. Nothing here is validated: the
    inputs come from validated objects or from the alternation's own steps.
    """

    def __init__(self, ch: KrausChannel, effects: np.ndarray):
        kraus = ch.stack
        self.dual = (kraus.conj().transpose(0, 2, 1)[:, None] @ effects @ kraus[:, None]).sum(axis=0)

    def transitions(self, states: np.ndarray) -> np.ndarray:
        """W for stacked coded states (K, d, d) and the cached effects."""
        return _outcome_rows(np.einsum("jab,kba->kj", self.dual, states).real)


def cqc_mutual_entropy(inst: CqcInstance) -> DualRouteValue:
    """Shannon mutual information of the coded-transmitted-decoded chain.

    `value` is the weighted KL of outcome distributions against their
    mixture; the cross route is the Shannon-entropy difference. The two are
    algebraically identical and checked to 1e-8.
    """
    evaluator = _CqcEvaluator(inst.channel, np.stack(inst.decoding.effects))
    states = np.stack([s.matrix for s in inst.coding.states])
    return _cqc_routes(inst.weights, evaluator.transitions(states))


def quantum_capacity(
    ch: KrausChannel, family: StateFamily, search: SearchBudget | None = None
) -> CapacityReport:
    """sup over the state family of the mutual entropy through the channel.

    Each round of family members has its inner Ohya suprema solved together
    (`mutual._ohya_suprema`, the lockstep gradient ascent of
    `ohya_mutual_entropy`), on budget.child(1). The inner result of the
    maximizing state is kept, not searched again: its decomposition is
    built from the support vectors that search returned and dual-route
    checked as `ohya_mutual_entropy` does, and that checked value is
    reported; `evals` and `converged` are the family search's. Through a
    channel with `uniform_pure_outputs` no inner search runs: each member,
    the flat start I/d and degenerate diagonal points included, is scored
    once at its canonical decomposition.
    `qdc_hierarchy(None, ...)` reads this same search, so its d capacity is
    this value.
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
    found = {}  # the inner (result, support weights) of each evaluated member, by the member's bytes

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
        if (kept := found.get(best_state.matrix.tobytes())) is None:
            raise ConsistencyError("the maximizing state, rebuilt from its parameters, is no evaluated member")
        ohya = _checked_ohya(best_state, ch, *kept)
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


_DECODING_ITERATIONS = 3  # fixed-point steps per decoding step of the cqc alternation


def cqc_capacity(
    channel: KrausChannel,
    decoding: Povm,
    coding: CodingScheme,
    mode: str = "weights",
    search: SearchBudget | None = None,
) -> CapacityReport:
    """Capacity of the classical-quantum-classical chain.

    mode "weights" maximizes over input distributions with the given coding
    and decoding fixed; "coding" also frees the coded states; "full" also
    frees the given decoding's effects, as many as it has. Each richer mode
    starts from the poorer one's maximizer, solved on budget.child(3)
    ("coding" over "weights") or budget.child(4) ("full" over "coding"),
    and keeps only steps that raise I, so the chain is monotone. The
    reported maximizer is validated and dual-route checked once, at the end.

    "weights" is concave and solved (`_cqc_weights`): notes hold the gap
    max_k D(W_k || qW) - I(q), an upper bound on the distance to the
    capacity, `converged` means gap <= search.tol, and `maximizer` holds the
    weights q. "coding" and "full" alternate monotone block steps
    (`_cqc_alternation`) for at most max(1, search.max_evals // 10) rounds;
    `converged` means the last round raised I by at most search.tol, which
    makes the point stationary for the alternation, not a certified
    maximum. Their notes hold `rounds` and `last_gain`; `maximizer` holds
    `weights`, the coded states `codes` and, in "full", the `effects`.
    `evals` counts every evaluation of I, the poorer modes' included.

    The check validates the maximizer as a `CqcInstance` and compares the
    KL and Shannon routes: in "weights" on the transition rows the solve
    formed, in "coding" and "full" on rows rebuilt from the validated codes
    and effects (`cqc_mutual_entropy`).
    """
    if mode not in ("weights", "coding", "full"):
        raise ValueError(f"unknown cqc mode {mode!r}")
    _check_chain_dims(coding, channel, decoding)
    states = np.stack([s.matrix for s in coding.states])
    effects = np.stack(decoding.effects)
    budget = search or SearchBudget()
    if mode == "weights":
        dists = _CqcEvaluator(channel, effects).transitions(states)
        report = _weights_solve(dists, budget)
    else:
        report = _cqc_search(channel, states, effects, mode, budget)
    point = report.maximizer
    if mode != "weights":
        coding = CodingScheme(tuple(DensityOperator(c) for c in point["codes"]))
    if mode == "full":
        decoding = Povm(tuple(point["effects"]))
    inst = CqcInstance(point["weights"], coding, channel, decoding)
    routes = _cqc_routes(inst.weights, dists) if mode == "weights" else cqc_mutual_entropy(inst)
    if abs(routes.value - report.value) > 1e-8:
        raise ConsistencyError(f"cqc search reported {report.value!r}, its point scores {routes.value!r}")
    return report


def _weights_solve(dists: np.ndarray, budget: SearchBudget) -> CapacityReport:
    """The "weights" report of the transition rows `dists`, solved by `_cqc_weights`, unchecked."""
    weights, value, gap, evals = _cqc_weights(dists, budget)
    return CapacityReport(
        value=value,
        converged=gap <= budget.tol,
        evals=evals,
        maximizer={"weights": weights},
        notes={"gap": gap},
    )


def _cqc_search(
    channel: KrausChannel, states: np.ndarray, effects: np.ndarray, mode: str, budget: SearchBudget
) -> CapacityReport:
    """`cqc_capacity` on the stacked coded states and effects, unchecked: the
    "weights" solve, or the alternation from the poorer mode's maximizer."""
    if mode == "weights":
        return _weights_solve(_CqcEvaluator(channel, effects).transitions(states), budget)
    poorer, child = ("weights", 3) if mode == "coding" else ("coding", 4)
    floor = _cqc_search(channel, states, effects, poorer, budget.child(child))
    start = floor.maximizer
    value, point, rounds, gain, evals = _cqc_alternation(
        channel, start["weights"], start.get("codes", states), effects, floor.value, mode == "full", budget
    )
    if mode == "coding":
        del point["effects"]
    return CapacityReport(
        value=value,
        converged=gain <= budget.tol,
        evals=floor.evals + evals,
        maximizer=point,
        notes={"rounds": rounds, "last_gain": gain},
    )


def _cqc_alternation(channel, weights, codes, effects, value, free_decoding, budget):
    """Ascend I(q, W) by blocks from weights q, coded states (K, d, d) and
    effects (J, e, e), where I is `value`: I at the point reached, the
    point, the rounds, the last round's gain and the evaluations of I.

    With q and the decoding fixed, I is convex in W, and W is linear in each
    coded state and in each effect, so I lies above its linearization in
    each block. A round takes, in order:
    - codes: each sigma_k becomes the top eigenvector of
      A_k = sum_j ln(W_kj / (qW)_j) ch*(E_j), the maximizer of the
      linearization over states;
    - decoding, when freed: `_DECODING_ITERATIONS` fixed-point steps
      (Jezek, Rehacek and Fiurasek, PRA 65, 060301 (2002)) on
      sum_j tr(G_j E_j), G_j = sum_k q_k ln(W_kj / (qW)_j) ch(sigma_k),
      kept only if the effects still sum to the identity within 1e-9;
    - weights: the certified `_cqc_weights` solve from the current q.
    A step's candidate is kept only if it raises I (the weights solve never
    lowers it). The rounds stop after max(1, budget.max_evals // 10), or
    when one gains at most budget.tol.
    """
    evaluator = _CqcEvaluator(channel, effects)
    dists = evaluator.transitions(codes)
    evals = rounds = 0
    gain = math.inf
    while rounds < max(1, budget.max_evals // 10) and gain > budget.tol:
        before = value
        trial_codes = _code_step(evaluator.dual, weights, dists)
        trial_dists = evaluator.transitions(trial_codes)
        trial = float(_cqc_kl(weights[None], trial_dists)[0])
        evals += 1
        if math.isfinite(trial) and trial > value:
            codes, dists, value = trial_codes, trial_dists, trial
        if free_decoding and (trial_effects := _decoding_step(channel, weights, codes, dists, effects)) is not None:
            trial_evaluator = _CqcEvaluator(channel, trial_effects)
            trial_dists = trial_evaluator.transitions(codes)
            trial = float(_cqc_kl(weights[None], trial_dists)[0])
            evals += 1
            if math.isfinite(trial) and trial > value:
                effects, evaluator, dists, value = trial_effects, trial_evaluator, trial_dists, trial
        weights, value, _, solved = _cqc_weights(dists, budget, weights)
        evals += solved
        rounds += 1
        gain = value - before
    return value, {"weights": weights, "codes": codes, "effects": effects}, rounds, gain, evals


def _log_ratios(weights: np.ndarray, dists: np.ndarray) -> np.ndarray:
    """ln(W_kj / (qW)_j), both clipped below at ZERO_TOL: dI/dW_kj = q_k times this."""
    return np.log(np.maximum(dists, ZERO_TOL)) - np.log(np.maximum(weights @ dists, ZERO_TOL))


def _code_step(dual: np.ndarray, weights: np.ndarray, dists: np.ndarray) -> np.ndarray:
    """|v_k><v_k| for v_k the top eigenvector of A_k = sum_j ln(W_kj / (qW)_j) ch*(E_j)."""
    top = np.linalg.eigh(np.einsum("kj,jab->kab", _log_ratios(weights, dists), dual))[1][..., -1]
    return top[:, :, None] * top.conj()[:, None, :]


def _decoding_step(channel, weights, codes, dists, effects) -> np.ndarray | None:
    """The effects after `_DECODING_ITERATIONS` steps
    E_j <- R^-1 G_j E_j G_j R^-1, R = (sum_j G_j E_j G_j)^(1/2), of
    G_j = sum_k q_k ln(W_kj / (qW)_j) ch(sigma_k) shifted by a multiple of
    the identity to be PSD; None when R is singular or the effects no
    longer sum to the identity within 1e-9 (KRAUS_TOL, the Povm check's)."""
    grads = np.einsum("k,kj,kab->jab", weights, _log_ratios(weights, dists), apply_matrix(channel, codes))
    grads = hermitian_part(grads)
    eye = np.eye(grads.shape[-1])
    grads = grads - np.min(np.linalg.eigvalsh(grads)) * eye
    for _ in range(_DECODING_ITERATIONS):
        terms = grads @ effects @ grads
        w, v = np.linalg.eigh(terms.sum(axis=0))
        if not w[0] > ZERO_TOL * w[-1]:
            return None
        inv_root = (v / np.sqrt(w)) @ v.conj().T
        effects = inv_root @ terms @ inv_root
        effects = hermitian_part(effects)
    if np.max(np.abs(effects.sum(axis=0) - eye)) > KRAUS_TOL:
        return None
    return effects
