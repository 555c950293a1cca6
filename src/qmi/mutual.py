"""Compound states and mutual-entropy functionals.

The mutual entropy of a state rho through a channel is the supremum, over
rank-one orthogonal (Schatten) decompositions of rho, of the weighted
relative entropy between the transmitted components and the transmitted
mixture. Two routes compute each fixed-decomposition value: the relative
entropy of the compound state against the product of marginals, and the
component sum; they agree identically in exact arithmetic and are
cross-checked here numerically.

A pseudo variant relaxes the decompositions to arbitrary finite convex
splittings of rho; the classical functional recovers Shannon mutual
information for diagonal states and classical channels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import KrausChannel, apply_matrix
from .entropy import (
    _entropy_rows,
    product_relative_entropy,
    shannon_entropy,
    umegaki_relative_entropy,
    von_neumann_entropy,
)
from .operators import (
    DEGENERACY_TOL,
    ZERO_TOL,
    ConsistencyError,
    DensityOperator,
    SchattenDecomposition,
    _support_blocks,
    as_complex_matrix,
    as_probability,
    partial_trace,
    schatten_family,
    unitary_from_params,
)
from .search import SearchBudget, SearchResult, complex_from_params, maximize

RECONSTRUCTION_TOL = 1e-8
DUAL_ROUTE_TOL = 1e-6
MARGINAL_TOL = 1e-8


@dataclass(frozen=True)
class DualRouteValue:
    """A value computed two independent ways; `value` is the canonical route."""

    value: float
    cross_value: float

    @property
    def defect(self) -> float:
        if math.isinf(self.value) and math.isinf(self.cross_value):
            return 0.0
        return abs(self.value - self.cross_value)


@dataclass(frozen=True)
class CompoundState:
    """Joint input-output state over G (x) K with its two marginals."""

    theta: DensityOperator
    d_g: int
    d_k: int
    input_marginal: DensityOperator
    output_marginal: DensityOperator

    def __post_init__(self):
        if self.theta.dim != self.d_g * self.d_k:
            raise ValueError(
                f"joint dimension {self.theta.dim} is not d_g*d_k = {self.d_g * self.d_k}"
            )
        dims = (self.d_g, self.d_k)
        left = partial_trace(self.theta.matrix, dims, keep=0)
        right = partial_trace(self.theta.matrix, dims, keep=1)
        if np.max(np.abs(left - self.input_marginal.matrix)) > MARGINAL_TOL:
            raise ValueError("input marginal inconsistent with the joint state")
        if np.max(np.abs(right - self.output_marginal.matrix)) > MARGINAL_TOL:
            raise ValueError("output marginal inconsistent with the joint state")


def _check_dims(rho_dim: int, ch: KrausChannel) -> None:
    if rho_dim != ch.in_dim:
        raise ValueError(
            f"state dimension {rho_dim} does not match the channel input dimension {ch.in_dim}"
        )


def _check_decomposes(rho_mat: np.ndarray, dec: SchattenDecomposition) -> None:
    if dec.vectors.shape[0] != rho_mat.shape[0]:
        raise ValueError("decomposition dimension does not match the state")
    if np.max(np.abs(dec.reconstruct() - rho_mat)) > RECONSTRUCTION_TOL:
        raise ValueError("decomposition does not reconstruct the state within 1e-8")


def _images(kraus: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """images[k, :, r] = K_r v_k for stacked Kraus operators and vector columns."""
    return (kraus @ vectors).transpose(2, 1, 0)


def _outputs(images: np.ndarray) -> np.ndarray:
    """sum_r K_r |v_k><v_k| K_r^dag for every k, from the stacked images."""
    return images @ images.conj().transpose(0, 2, 1)


def _transmitted(ch: KrausChannel, dec: SchattenDecomposition) -> np.ndarray:
    """Channel images of the rank-one components, stacked along the first axis."""
    return _outputs(_images(np.stack(ch.ops), dec.vectors))


def _compound_matrix(dec: SchattenDecomposition, outputs: np.ndarray) -> np.ndarray:
    """sum_k lambda_k |v_k><v_k| (x) outputs[k]."""
    v = dec.vectors
    d_g, d_k = v.shape[0], outputs.shape[-1]
    projectors = np.einsum("k,xk,yk->kxy", dec.weights, v, v.conj())
    theta = np.tensordot(projectors, outputs, axes=(0, 0))  # indices x, y, a, b
    return theta.transpose(0, 2, 1, 3).reshape(d_g * d_k, d_g * d_k)


def _component_route(
    weights: np.ndarray, outputs: list[np.ndarray], out_avg: np.ndarray
) -> float:
    total = 0.0
    for lam, sig in zip(weights, outputs):
        if lam <= 1e-15:
            continue
        term = umegaki_relative_entropy(sig, out_avg)
        if math.isinf(term):
            return math.inf
        total += lam * term
    return total


class _MutualEvaluator:
    """The fixed work of the mutual-entropy searches for one (rho, channel) pair.

    Built once per search: the support eigen-blocks of rho, the stacked Kraus
    operators, the images K_r v_k of the canonical eigenvectors and S(ch(rho)).
    Any split rho = sum_k lambda_k rho_k is scored as
    S(ch(rho)) - sum_k lambda_k S(ch(rho_k)), which equals the component sum
    sum_k lambda_k S(ch(rho_k), ch(rho)) exactly, with one batched eigvalsh.
    Nothing here is validated; the searches check their maximizer instead.
    """

    def __init__(self, rho_mat: np.ndarray, ch: KrausChannel, degeneracy_tol: float = DEGENERACY_TOL):
        self.weights, vectors, blocks = _support_blocks(rho_mat, degeneracy_tol, ZERO_TOL)
        self.blocks = [s for s in blocks if s.stop - s.start >= 2]
        self.n_params = sum((s.stop - s.start) ** 2 for s in self.blocks)
        self.kraus = np.stack(ch.ops)
        self.images = _images(self.kraus, vectors)
        self.out_entropy = von_neumann_entropy(apply_matrix(ch, rho_mat))

    def transmit(self, mats: np.ndarray) -> np.ndarray:
        """The channel applied to each matrix of a stack."""
        return (self.kraus @ mats[:, None] @ self.kraus.conj().transpose(0, 2, 1)).sum(axis=1)

    def score(self, weights: np.ndarray, outputs: np.ndarray) -> float:
        """S(ch(rho)) - sum_k weights[k] S(outputs[k]) for unit-trace outputs."""
        return self.out_entropy - float(weights @ _entropy_rows(np.linalg.eigvalsh(outputs)))

    def outputs(self, params: np.ndarray) -> np.ndarray:
        """Channel images of the Schatten decomposition `schatten_family(rho, params)`."""
        images = self.images
        if self.blocks:
            u = np.eye(images.shape[0], dtype=complex)
            pos = 0
            for s in self.blocks:
                m = s.stop - s.start
                u[s, s] = unitary_from_params(params[pos : pos + m * m], m)
                pos += m * m
            images = np.einsum("kor,kj->jor", images, u)
        return _outputs(images)

    def value(self, params: np.ndarray) -> float:
        """Mutual entropy of the Schatten decomposition indexed by params."""
        return self.score(self.weights, self.outputs(params))

    def supremum(self, budget: SearchBudget, objective=None) -> SearchResult:
        """Maximize `objective` (default `value`) over the Schatten parameters.

        A nondegenerate rho has a single decomposition, evaluated once.
        """
        objective = objective or self.value
        if self.n_params == 0:
            return SearchResult(value=objective(np.zeros(0)), params=np.zeros(0), converged=True, evals=1)
        return maximize(objective, self.n_params, budget, starts=[np.zeros(self.n_params)])


def compound_state(rho: DensityOperator, ch: KrausChannel, dec: SchattenDecomposition) -> CompoundState:
    """The compound state sum_k lambda_k E_k (x) ch(E_k) of a decomposition."""
    _check_decomposes(rho.matrix, dec)
    outputs = _transmitted(ch, dec)
    theta = _compound_matrix(dec, outputs)
    return CompoundState(
        theta=DensityOperator(theta),
        d_g=rho.dim,
        d_k=ch.out_dim,
        input_marginal=rho,
        output_marginal=DensityOperator(apply_matrix(ch, rho.matrix)),
    )


def mutual_entropy_fixed(
    rho: DensityOperator,
    ch: KrausChannel,
    dec: SchattenDecomposition,
    consistency_tol: float = DUAL_ROUTE_TOL,
) -> DualRouteValue:
    """Mutual entropy of one fixed decomposition, computed by both routes.

    `value` is the component sum; `cross_value` the relative entropy of the
    compound state against the product of marginals. Disagreement beyond
    consistency_tol raises ConsistencyError.
    """
    rho_mat = as_complex_matrix(rho, "rho")
    _check_dims(rho_mat.shape[0], ch)
    _check_decomposes(rho_mat, dec)
    outputs = _transmitted(ch, dec)
    out_avg = apply_matrix(ch, rho_mat)
    component = _component_route(dec.weights, outputs, out_avg)
    theta = _compound_matrix(dec, outputs)
    compound = product_relative_entropy(theta, rho_mat, out_avg)
    result = DualRouteValue(value=component, cross_value=compound)
    if result.defect > consistency_tol:
        raise ConsistencyError(
            f"mutual-entropy routes disagree: {component!r} vs {compound!r}"
        )
    return result


@dataclass(frozen=True)
class MutualResult:
    value: float
    decomposition: SchattenDecomposition
    converged: bool
    evals: int


def ohya_mutual_entropy(
    rho: DensityOperator,
    ch: KrausChannel,
    search: SearchBudget | None = None,
    degeneracy_tol: float = 1e-8,
) -> MutualResult:
    """Mutual entropy: supremum over the Schatten decompositions of rho.

    A nondegenerate state has a unique decomposition and needs a single
    evaluation; degenerate eigenvalue blocks are searched over their
    unitary rotations. The search scores decompositions with a cached
    evaluator; the best one is rebuilt as a validated decomposition and
    re-evaluated with the dual-route consistency check.
    """
    _check_dims(rho.dim, ch)
    budget = search or SearchBudget()
    result = _MutualEvaluator(rho.matrix, ch, degeneracy_tol).supremum(budget)
    best = schatten_family(rho, result.params, degeneracy_tol=degeneracy_tol)
    checked = mutual_entropy_fixed(rho, ch, best)
    return MutualResult(
        value=checked.value,
        decomposition=best,
        converged=result.converged,
        evals=result.evals,
    )


def classical_mutual_entropy(p, ch: KrausChannel, diag_tol: float = 1e-9) -> DualRouteValue:
    """Shannon mutual information of a classical channel at input p.

    The channel must map diagonal states to diagonal states. `value` is the
    Shannon difference H(output) - sum_k p_k H(output | k); it is
    cross-checked against the weighted quantum relative entropies of the
    transmitted basis states (agreement within 1e-8).
    """
    weights = as_probability(p)
    if ch.in_dim != weights.size:
        raise ValueError(f"input length {weights.size} does not match channel {ch.in_dim}")
    outputs = []
    for k in range(weights.size):
        basis = np.zeros((ch.in_dim, ch.in_dim), dtype=complex)
        basis[k, k] = 1.0
        out = apply_matrix(ch, basis)
        if np.max(np.abs(out - np.diag(np.diagonal(out)))) > diag_tol:
            raise ValueError("channel does not map diagonal states to diagonal states")
        outputs.append(out)
    avg = sum(lam * out for lam, out in zip(weights, outputs))
    dists = [np.clip(np.real(np.diagonal(out)), 0.0, None) for out in outputs]
    avg_dist = np.clip(np.real(np.diagonal(avg)), 0.0, None)
    shannon = shannon_entropy(avg_dist) - sum(
        lam * shannon_entropy(d) for lam, d in zip(weights, dists) if lam > 1e-15
    )
    quantum = _component_route(weights, outputs, avg)
    result = DualRouteValue(value=shannon, cross_value=quantum)
    if result.defect > 1e-8:
        raise ConsistencyError(
            f"classical mutual-entropy routes disagree: {shannon!r} vs {quantum!r}"
        )
    return result


def holevo_bound(p, coded, ch: KrausChannel) -> float:
    """chi = S(ch(mixture)) - sum_k p_k S(ch(sigma_k))."""
    weights = as_probability(p)
    states = [as_complex_matrix(s, "coded state") for s in coded]
    if len(states) != weights.size:
        raise ValueError(f"{weights.size} weights but {len(states)} coded states")
    outputs = [apply_matrix(ch, s) for s in states]
    avg = sum(lam * out for lam, out in zip(weights, outputs))
    return von_neumann_entropy(avg) - sum(
        lam * von_neumann_entropy(out)
        for lam, out in zip(weights, outputs)
        if lam > 1e-15
    )


@dataclass(frozen=True)
class PseudoResult:
    value: float
    weights: np.ndarray
    components: tuple[np.ndarray, ...]
    converged: bool
    evals: int


def _sqrt_psd(m: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(m)
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ v.conj().T


def _effects_from_factors(bs: list[np.ndarray], dim: int) -> list[np.ndarray]:
    """POVM effects W^dag B^dag B W, W = (sum B^dag B)^{-1/2}, completed to I."""
    s = sum(b.conj().T @ b for b in bs)
    w, v = np.linalg.eigh((s + s.conj().T) / 2)
    floor = max(1e-10 * float(np.max(w)), 1e-300)
    w = np.clip(w, floor, None)
    inv_sqrt = (v * (1.0 / np.sqrt(w))) @ v.conj().T
    effects = [inv_sqrt @ b.conj().T @ b @ inv_sqrt for b in bs]
    effects = [(e + e.conj().T) / 2 for e in effects]
    residual = np.eye(dim) - sum(effects)
    rw, rv = np.linalg.eigh((residual + residual.conj().T) / 2)
    rw = np.clip(rw, 0.0, None)
    if float(np.sum(rw)) > 1e-12:
        effects.append((rv * rw) @ rv.conj().T)
    return effects


def pseudo_mutual_entropy(
    rho: DensityOperator,
    ch: KrausChannel,
    n_components: int,
    search: SearchBudget | None = None,
) -> PseudoResult:
    """Supremum over finite convex decompositions rho = sum_k lambda_k rho_k.

    Decompositions are parameterized exactly: free factor matrices define a
    POVM {M_k}, and sigma_k = sqrt(rho) M_k sqrt(rho) splits rho identically
    at every search point. The orthogonal supremum is included as a baseline,
    so the pseudo value never falls below the Schatten one.
    """
    if n_components < 1:
        raise ValueError("need at least one component")
    _check_dims(rho.dim, ch)
    budget = search or SearchBudget()
    dim = rho.dim
    sqrt_rho = _sqrt_psd(rho.matrix)
    evaluator = _MutualEvaluator(rho.matrix, ch)

    baseline = ohya_mutual_entropy(rho, ch, budget.child(0))

    def split(params: np.ndarray):
        bs = [
            complex_from_params(params[i * 2 * dim * dim : (i + 1) * 2 * dim * dim], dim, dim)
            for i in range(n_components)
        ]
        effects = np.stack(_effects_from_factors(bs, dim))
        sigmas = sqrt_rho @ effects @ sqrt_rho
        lams = np.clip(np.real(np.trace(sigmas, axis1=1, axis2=2)), 0.0, None)
        return lams, sigmas

    def objective(params: np.ndarray) -> float:
        lams, sigmas = split(params)
        keep = lams > 1e-12
        lams = lams[keep]
        return evaluator.score(lams, evaluator.transmit(sigmas[keep]) / lams[:, None, None])

    n_params = n_components * 2 * dim * dim
    dec = baseline.decomposition
    start = np.zeros(n_params)
    for k in range(min(n_components, dec.size)):
        proj = dec.projector(k)
        start[k * 2 * dim * dim : k * 2 * dim * dim + dim * dim] = np.real(proj).reshape(-1)
        start[k * 2 * dim * dim + dim * dim : (k + 1) * 2 * dim * dim] = np.imag(proj).reshape(-1)

    result = maximize(objective, n_params, budget, starts=[start])

    if result.value > baseline.value:
        lams, sigmas = split(result.params)
        kept = [(lam, sig / lam) for lam, sig in zip(lams, sigmas) if lam > 1e-12]
        weights = np.array([lam for lam, _ in kept])
        return PseudoResult(
            value=result.value,
            weights=weights / np.sum(weights),
            components=tuple(sig for _, sig in kept),
            converged=result.converged,
            evals=result.evals + baseline.evals,
        )
    dec = baseline.decomposition
    return PseudoResult(
        value=baseline.value,
        weights=dec.weights,
        components=tuple(dec.projector(k) for k in range(dec.size)),
        converged=baseline.converged or result.converged,
        evals=result.evals + baseline.evals,
    )
