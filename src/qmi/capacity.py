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
from dataclasses import dataclass, field

import numpy as np

from .channels import KrausChannel, Povm, apply_matrix, born_probabilities
from .entropy import kl_divergence, shannon_entropy
from .mutual import (
    DualRouteValue,
    _effects_from_factors,
    _MutualEvaluator,
    ohya_mutual_entropy,
    pseudo_mutual_entropy,
)
from .operators import ConsistencyError, DensityOperator, as_probability
from .search import SearchBudget, complex_from_params, maximize, softmax


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
        if self.coding.dim != self.channel.in_dim:
            raise ValueError("coding dimension does not match the channel input")
        if self.decoding.dim != self.channel.out_dim:
            raise ValueError("decoding dimension does not match the channel output")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)


@dataclass(frozen=True)
class CapacityReport:
    value: float
    converged: bool
    evals: int
    maximizer: dict = field(default_factory=dict)
    notes: dict = field(default_factory=dict)


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
        if self.kind == "diagonal":
            return DensityOperator(np.diag(softmax(params).astype(complex)))
        a = complex_from_params(params, self.dim, self.effective_rank)
        m = a @ a.conj().T
        tr = float(np.real(np.trace(m)))
        if tr < 1e-12:
            return None
        return DensityOperator(m / tr)

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


def cqc_mutual_entropy(inst: CqcInstance) -> DualRouteValue:
    """Shannon mutual information of the coded-transmitted-decoded chain.

    `value` is the weighted KL of outcome distributions against their
    mixture; the cross route is the Shannon-entropy difference. The two are
    algebraically identical and checked to 1e-8.
    """
    outputs = [apply_matrix(inst.channel, s.matrix) for s in inst.coding.states]
    dists = [born_probabilities(inst.decoding, out) for out in outputs]
    dists = [d / s if (s := float(d.sum())) > 0 else d for d in dists]
    avg = sum(lam * d for lam, d in zip(inst.weights, dists))
    kl_route = 0.0
    for lam, d in zip(inst.weights, dists):
        if lam <= 1e-15:
            continue
        term = kl_divergence(d, avg)
        if math.isinf(term):
            kl_route = math.inf
            break
        kl_route += lam * term
    shannon_route = shannon_entropy(avg) - sum(
        lam * shannon_entropy(d) for lam, d in zip(inst.weights, dists) if lam > 1e-15
    )
    result = DualRouteValue(value=kl_route, cross_value=shannon_route)
    if result.defect > 1e-8:
        raise ConsistencyError(
            f"cqc mutual-entropy routes disagree: {kl_route!r} vs {shannon_route!r}"
        )
    return result


def quantum_capacity(
    ch: KrausChannel, family: StateFamily, search: SearchBudget | None = None
) -> CapacityReport:
    """sup over the state family of the mutual entropy through the channel.

    The inner Ohya searches run on the cached evaluator; the value reported
    is `ohya_mutual_entropy` at the maximizing state, which repeats that
    state's inner search and dual-route checks its decomposition.
    """
    budget = search or SearchBudget()
    if family.dim != ch.in_dim:
        raise ValueError("family dimension does not match the channel input")
    inner = budget.child(1)

    def objective(params: np.ndarray) -> float:
        rho = family.state_from_params(params)
        if rho is None:
            return -math.inf
        return _MutualEvaluator(rho.matrix, ch).supremum(inner).value

    result = maximize(
        objective, family.n_params, budget, starts=family.candidate_starts()
    )
    best_state = family.state_from_params(result.params)
    value = result.value
    if best_state is not None:
        value = ohya_mutual_entropy(best_state, ch, inner).value
    return CapacityReport(
        value=value,
        converged=result.converged,
        evals=result.evals,
        maximizer={"state": best_state.matrix if best_state is not None else None},
    )


def pseudo_capacity(
    ch: KrausChannel,
    family: StateFamily,
    n_components: int,
    search: SearchBudget | None = None,
) -> CapacityReport:
    """sup over the state family of the pseudo-mutual entropy.

    Runs the quantum capacity first and floors the result with the pseudo
    value at its maximizer, which keeps C <= C_p structural.
    """
    budget = search or SearchBudget()
    base = quantum_capacity(ch, family, budget)
    inner = budget.child(2)

    def objective(params: np.ndarray) -> float:
        rho = family.state_from_params(params)
        if rho is None:
            return -math.inf
        return pseudo_mutual_entropy(rho, ch, n_components, inner).value

    result = maximize(objective, family.n_params, budget, starts=family.candidate_starts())
    floor = -math.inf
    base_state = base.maximizer.get("state")
    if base_state is not None:
        floor = pseudo_mutual_entropy(
            DensityOperator(base_state), ch, n_components, inner
        ).value
    value = max(result.value, floor, base.value)
    return CapacityReport(
        value=value,
        converged=result.converged or base.converged,
        evals=result.evals + base.evals,
        maximizer={"n_components": n_components},
        notes={"quantum_capacity": base.value},
    )


def _coding_from_params(params: np.ndarray, size: int, dim: int, pure: bool) -> CodingScheme | None:
    states = []
    if pure:
        for k in range(size):
            v = complex_from_params(params[k * 2 * dim : (k + 1) * 2 * dim], dim, 1).reshape(-1)
            norm = np.linalg.norm(v)
            if norm < 1e-8:
                return None
            v = v / norm
            states.append(DensityOperator(np.outer(v, v.conj())))
    else:
        per = 2 * dim * dim
        for k in range(size):
            a = complex_from_params(params[k * per : (k + 1) * per], dim, dim)
            m = a @ a.conj().T
            tr = float(np.real(np.trace(m)))
            if tr < 1e-12:
                return None
            states.append(DensityOperator(m / tr))
    return CodingScheme(tuple(states))


def _decoding_from_params(params: np.ndarray, n_outcomes: int, dim: int) -> Povm:
    per = 2 * dim * dim
    bs = [complex_from_params(params[j * per : (j + 1) * per], dim, dim) for j in range(n_outcomes)]
    return Povm(tuple(_effects_from_factors(bs, dim)))


def _basis_coding_params(size: int, dim: int, coding: CodingScheme, pure: bool) -> np.ndarray:
    """Parameters reproducing (approximately) the reference coding's states."""
    if pure:
        out = np.zeros(size * 2 * dim)
        for k, s in enumerate(coding.states):
            _, v = np.linalg.eigh(s.matrix)
            vec = v[:, -1]
            out[k * 2 * dim : k * 2 * dim + dim] = np.real(vec)
            out[k * 2 * dim + dim : (k + 1) * 2 * dim] = np.imag(vec)
        return out
    per = 2 * dim * dim
    out = np.zeros(size * per)
    for k, s in enumerate(coding.states):
        w, v = np.linalg.eigh(s.matrix)
        a = (v * np.sqrt(np.clip(w, 0, None))) @ v.conj().T
        out[k * per : k * per + dim * dim] = np.real(a).reshape(-1)
        out[k * per + dim * dim : (k + 1) * per] = np.imag(a).reshape(-1)
    return out


def _projective_decoding_params(n_outcomes: int, dim: int, decoding: Povm) -> np.ndarray:
    per = 2 * dim * dim
    out = np.zeros(n_outcomes * per)
    for j in range(min(n_outcomes, decoding.n_outcomes)):
        e = decoding.effects[j]
        w, v = np.linalg.eigh(e)
        b = (v * np.sqrt(np.clip(w, 0, None))) @ v.conj().T
        out[j * per : j * per + dim * dim] = np.real(b).reshape(-1)
        out[j * per + dim * dim : (j + 1) * per] = np.imag(b).reshape(-1)
    return out


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
    poorer one's supremum as a candidate, so the chain is monotone.
    """
    budget = search or SearchBudget()
    size = coding.size
    dim = channel.in_dim
    out_dim = channel.out_dim
    n_out = n_decoding or decoding.n_outcomes

    def value_at(weights, cod, dec) -> float:
        inst = CqcInstance(weights=weights, coding=cod, channel=channel, decoding=dec)
        return cqc_mutual_entropy(inst).value

    if mode == "weights":
        def objective(params):
            return value_at(softmax(params), coding, decoding)

        result = maximize(objective, size, budget, starts=[np.zeros(size)])
        return CapacityReport(
            value=result.value,
            converged=result.converged,
            evals=result.evals,
            maximizer={"weights": softmax(result.params)},
        )

    if mode == "coding":
        floor = cqc_capacity(channel, decoding, coding, "weights", budget.child(3))
        per_code = 2 * dim if pure_coding else 2 * dim * dim
        n_params = size + size * per_code

        def objective(params):
            cod = _coding_from_params(params[size:], size, dim, pure_coding)
            if cod is None:
                return -math.inf
            return value_at(softmax(params[:size]), cod, decoding)

        ref = np.concatenate(
            [np.zeros(size), _basis_coding_params(size, dim, coding, pure_coding)]
        )
        result = maximize(objective, n_params, budget, starts=[ref])
        value = max(result.value, floor.value)
        return CapacityReport(
            value=value,
            converged=result.converged or floor.converged,
            evals=result.evals + floor.evals,
            maximizer={"mode": "coding"},
            notes={"fixed_coding_value": floor.value},
        )

    if mode == "full":
        floor = cqc_capacity(
            channel, decoding, coding, "coding", budget.child(4), pure_coding=pure_coding
        )
        per_code = 2 * dim if pure_coding else 2 * dim * dim
        per_povm = 2 * out_dim * out_dim
        n_params = size + size * per_code + n_out * per_povm

        def objective(params):
            cod = _coding_from_params(params[size : size + size * per_code], size, dim, pure_coding)
            if cod is None:
                return -math.inf
            dec = _decoding_from_params(params[size + size * per_code :], n_out, out_dim)
            return value_at(softmax(params[:size]), cod, dec)

        ref = np.concatenate(
            [
                np.zeros(size),
                _basis_coding_params(size, dim, coding, pure_coding),
                _projective_decoding_params(n_out, out_dim, decoding),
            ]
        )
        result = maximize(objective, n_params, budget, starts=[ref])
        value = max(result.value, floor.value)
        return CapacityReport(
            value=value,
            converged=result.converged or floor.converged,
            evals=result.evals + floor.evals,
            maximizer={"mode": "full"},
            notes={"fixed_decoding_value": floor.value},
        )

    raise ValueError(f"unknown cqc mode {mode!r}")
