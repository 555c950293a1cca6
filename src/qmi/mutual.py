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
from dataclasses import dataclass, replace

import numpy as np

from .channels import KrausChannel, _square_root_povm_rows, apply_matrix
from .entropy import (
    _entropy_from_eigenvalues,
    _entropy_rows,
    _product_relative_entropy,
    _relative_entropy_rows,
    product_relative_entropy,
    shannon_entropy,
    von_neumann_entropy,
)
from .operators import (
    ConsistencyError,
    DensityOperator,
    SchattenDecomposition,
    _block_param_count,
    _block_rotations,
    _rotated,
    _support_layouts,
    as_complex_matrix,
    as_probability,
    hermitian_part,
    partial_trace,
)
from .search import SearchBudget, SearchResult, _complex_stack, maximize_batch, maximize_many

RECONSTRUCTION_TOL = 1e-8
DUAL_ROUTE_TOL = 1e-6
MERGE_WEIGHT_TOL = 1e-6
MARGINAL_TOL = 1e-8
DIAGONAL_TOL = 1e-9


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


@dataclass(frozen=True, eq=False)
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
    """images[..., k, :, r] = K_r v_k for stacked Kraus operators and vector
    columns (..., d, K)."""
    return (kraus @ vectors[..., None, :, :]).swapaxes(-1, -3)


def _outputs(images: np.ndarray) -> np.ndarray:
    """sum_r K_r |v_k><v_k| K_r^dag for every k, from the stacked images
    (..., k, out, r)."""
    return images @ images.conj().swapaxes(-1, -2)


def _weighted_sum(weights: np.ndarray, values: np.ndarray) -> np.ndarray:
    """sum_k weights[..., k] values[i, k] for each row i of values (rows, K).

    A stacked 1 x K by K x 1 product: each row's sum is the dot product
    `float(weights_i @ values_i)` of that row alone, bit for bit, which a
    matrix-vector product or a reduction along the rows need not be.
    """
    return np.matmul(values[:, None, :], weights[..., None])[:, 0, 0]


def _transmitted(ch: KrausChannel, dec: SchattenDecomposition) -> np.ndarray:
    """Channel images of the rank-one components, stacked along the first axis."""
    return _outputs(_images(ch.stack, dec.vectors))


def _compound_matrix(dec: SchattenDecomposition, outputs: np.ndarray) -> np.ndarray:
    """sum_k lambda_k |v_k><v_k| (x) outputs[k]."""
    v = dec.vectors
    d_g, d_k = v.shape[0], outputs.shape[-1]
    projectors = np.einsum("k,xk,yk->kxy", dec.weights, v, v.conj())
    theta = np.tensordot(projectors, outputs, axes=(0, 0))  # indices x, y, a, b
    return theta.transpose(0, 2, 1, 3).reshape(d_g * d_k, d_g * d_k)


def _narrow_compound(dec: SchattenDecomposition, images: np.ndarray, outputs: np.ndarray) -> tuple:
    """(S(theta), tr_K theta, tr_G theta) of the compound state
    theta = sum_k lambda_k |v_k><v_k| (x) outputs[k], without forming theta.

    theta = B B^dag, where B has one column b_kr = sqrt(lambda_k) v_k (x) K_r v_k
    per component k and Kraus operator r (images (K, out, r)). B^dag B, of
    side K r, has the nonzero spectrum of theta; its entries are
    sqrt(lambda_k lambda_k') <v_k|v_k'> <K_r v_k|K_r' v_k'>. The marginals
    contract B the same way: tr_K theta = sum_k lambda_k tr(outputs[k]) |v_k><v_k|
    and tr_G theta = sum_k lambda_k <v_k|v_k> outputs[k]. Weights are
    clipped at 0 (a decomposition may carry weights down to -1e-12).
    """
    v, n_r = dec.vectors, images.shape[-1]
    weights = np.clip(dec.weights, 0.0, None)
    scale = np.sqrt(weights)
    overlaps = v.conj().T @ v
    factor = (overlaps * np.outer(scale, scale)).repeat(n_r, axis=0).repeat(n_r, axis=1)
    columns = images.swapaxes(0, 1).reshape(images.shape[1], -1)  # column k r is K_r v_k
    joint = _entropy_from_eigenvalues(np.linalg.eigvalsh((columns.conj().T @ columns) * factor))
    m_in = (v * (weights * np.real(np.trace(outputs, axis1=-2, axis2=-1)))) @ v.conj().T
    m_out = np.tensordot(weights * np.real(np.diagonal(overlaps)), outputs, axes=1)
    return joint, m_in, m_out


def _component_route(weights: np.ndarray, outputs: np.ndarray, out_avg: np.ndarray) -> float:
    """sum_k lambda_k S(outputs[k], out_avg) over the components of weight
    above 1e-15, each term floored at 0: for unit-trace states a negative
    term is rounding (Klein's inequality). out_avg is factored once for all
    terms (`_relative_entropy_rows`); each term, and so the sum, equals
    `umegaki_relative_entropy(outputs[k], out_avg)` bit for bit. +inf when
    a kept component leaks off the support of out_avg."""
    keep = weights > 1e-15
    terms = _relative_entropy_rows(outputs[keep], out_avg)
    if np.isinf(terms).any():
        return math.inf
    total = 0.0
    for lam, term in zip(weights[keep], terms.tolist()):
        total += lam * max(term, 0.0)
    return total


class _MutualEvaluator:
    """The fixed work of the mutual-entropy searches for a stack of states.

    The states share one support layout (rank and eigenvalue slices), so
    one set of Schatten parameters indexes the decompositions of each.
    Built once per search: the support eigen-data of every state (weights
    (S, r), vectors (S, d, r)), the images
    K_r v_k of the canonical eigenvectors (S, r, out, Kraus) and each
    S(ch(rho)). Any split rho = sum_k lambda_k rho_k is scored as
    S(ch(rho)) - sum_k lambda_k S(ch(rho_k)), which equals the component sum
    sum_k lambda_k S(ch(rho_k), ch(rho)) exactly, with one batched eigvalsh.
    Every method takes a batch of rows, one per parameter point, and treats
    each row alone; `owners` gives each row's state, and None means state 0.
    Each row's value is, bit for bit, what an evaluator of its state alone
    gives it. Nothing here is validated; the searches check their maximizer
    instead.
    """

    def __init__(self, rho_mats: np.ndarray, ch: KrausChannel, support=None):
        """rho_mats is one state (d, d) or a stack (S, d, d); support is the
        stack's (weights, vectors, slices) from `_support_layouts`, computed
        here when not given (the stack must then have one layout)."""
        rho_mats = rho_mats.reshape(-1, *rho_mats.shape[-2:])
        if support is None:
            ((_, *support),) = _support_layouts(rho_mats)
        self.weights, self.vectors, blocks = support
        self.size = len(rho_mats)
        self.blocks = [s for s in blocks if s.stop - s.start >= 2]
        self.n_params = sum(_block_param_count(s.stop - s.start) for s in self.blocks)
        self.images = _images(ch.stack, self.vectors)
        out_avg = hermitian_part(apply_matrix(ch, rho_mats))
        self.out_entropy = np.array([_entropy_from_eigenvalues(w) for w in np.linalg.eigvalsh(out_avg)])

    def score(self, weights: np.ndarray, outputs: np.ndarray, owners=None) -> np.ndarray:
        """S(ch(rho)) - sum_k weights[..., k] S(outputs[i, k]) per row i, for
        unit-trace outputs (rows, K, out, out)."""
        out_entropy = self.out_entropy[0] if owners is None else self.out_entropy[owners]
        return out_entropy - _weighted_sum(weights, _entropy_rows(np.linalg.eigvalsh(outputs)))

    def outputs(self, points: np.ndarray, owners=None) -> np.ndarray:
        """Channel images of the Schatten decompositions `schatten_family(rho, p)`
        for the rows p of points (rows, n_params)."""
        if not self.blocks:
            outputs = _outputs(self.images)
            return outputs[0][None].repeat(len(points), axis=0) if owners is None else outputs[owners]
        rank = self.images.shape[1]
        u = np.zeros((len(points), rank, rank), dtype=complex)
        u[:, range(rank), range(rank)] = 1.0
        for s, block in _block_rotations(self.blocks, points):
            u[:, s, s] = block
        if owners is None:
            return _outputs(np.einsum("kor,bkj->bjor", self.images[0], u))
        return _outputs(np.einsum("bkor,bkj->bjor", self.images[owners], u))

    def values(self, points: np.ndarray, owners=None) -> np.ndarray:
        """Mutual entropy of the Schatten decomposition indexed by each row of points."""
        weights = self.weights[0] if owners is None else self.weights[owners]
        return self.score(weights, self.outputs(points, owners), owners)


def _ohya_suprema(
    ch: KrausChannel, mats: np.ndarray, budget: SearchBudget, observe=None, layouts=None
) -> list[tuple]:
    """The Ohya search of each stacked state (S, d, d), as `ohya_mutual_entropy`
    runs it, and the support (weights, vectors, blocks) it rotates.

    The states of each support layout run as one lockstep search, a problem
    per state; nondegenerate states of one rank are scored in one call. Each
    result equals the state's search alone. `observe(mats, support, points,
    outputs, values)`, if given, sees every scored batch in order: per row
    its state, support (weights, vectors, blocks), parameters, channel
    outputs and value. `layouts` is `_support_layouts(mats)`, computed here
    when not given.
    """
    found = [None] * len(mats)
    for rows, *support in _support_layouts(mats) if layouts is None else layouts:
        group = mats[rows]
        ev = _MutualEvaluator(group, ch, support)
        objective = ev.values
        if observe is not None:

            def objective(points, owners=None, ev=ev, group=group):
                outputs = ev.outputs(points, owners)
                values = ev.score(ev.weights[0] if owners is None else ev.weights[owners], outputs, owners)
                index = np.zeros(len(points), dtype=int) if owners is None else owners
                observe(group[index], (ev.weights[index], ev.vectors[index], ev.blocks), points, outputs, values)
                return values

        results = maximize_many(objective, ev.size, ev.n_params, budget, [np.zeros(ev.n_params)])
        for i, result, weights, vectors in zip(rows.tolist(), results, ev.weights, ev.vectors):
            found[i] = result, (weights, vectors, ev.blocks)
    return found


def _checked_ohya(
    rho: DensityOperator, ch: KrausChannel, best: SchattenDecomposition, result: SearchResult
) -> MutualResult:
    """The Ohya result of a search of rho's decompositions: its best
    decomposition `best`, valued by `mutual_entropy_fixed` with the
    dual-route check."""
    checked = mutual_entropy_fixed(rho, ch, best)
    return MutualResult(value=checked.value, decomposition=best, converged=result.converged, evals=result.evals)


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
    rho: DensityOperator, ch: KrausChannel, dec: SchattenDecomposition
) -> DualRouteValue:
    """Mutual entropy of one fixed decomposition, computed by both routes.

    `value` is the component sum; `cross_value` the relative entropy of the
    compound state theta against the product of marginals. With K
    components and r Kraus operators, theta = B B^dag for a B of K r
    columns: when K r < d_g d_k, S(theta) and the marginals are read from
    B (`_narrow_compound`) and theta is never formed; otherwise theta is
    formed and passed to `product_relative_entropy`. Disagreement beyond
    DUAL_ROUTE_TOL raises ConsistencyError.
    """
    rho_mat = as_complex_matrix(rho, "rho")
    _check_dims(rho_mat.shape[0], ch)
    _check_decomposes(rho_mat, dec)
    images = _images(ch.stack, dec.vectors)
    outputs = _outputs(images)
    n_k, d_k, n_r = images.shape
    narrow = _narrow_compound(dec, images, outputs) if n_k * n_r < rho_mat.shape[0] * d_k else None
    del images  # with many Kraus operators as large as theta, so freed before theta is formed
    out_avg = apply_matrix(ch, rho_mat)
    component = _component_route(dec.weights, outputs, out_avg)
    if narrow is None:
        compound = product_relative_entropy(_compound_matrix(dec, outputs), rho_mat, out_avg)
    else:
        compound = _product_relative_entropy(*narrow, rho_mat, out_avg)
    result = DualRouteValue(value=component, cross_value=compound)
    if result.defect > DUAL_ROUTE_TOL:
        raise ConsistencyError(
            f"mutual-entropy routes disagree: {component!r} vs {compound!r}"
        )
    return result


@dataclass(frozen=True, eq=False)
class MutualResult:
    value: float
    decomposition: SchattenDecomposition
    converged: bool
    evals: int


def ohya_mutual_entropy(
    rho: DensityOperator,
    ch: KrausChannel,
    search: SearchBudget | None = None,
) -> MutualResult:
    """Mutual entropy: supremum over the Schatten decompositions of rho.

    A nondegenerate state has a unique decomposition, the canonical one: it
    is valued once by `mutual_entropy_fixed`, with `evals = 1` and
    `converged = True`, and no search runs. A state with a degenerate
    eigenvalue block is searched over the blocks' unitary rotations by
    `_ohya_suprema`: its best decomposition is rebuilt from the support
    eigen-data the search rotated and re-evaluated with the dual-route
    consistency check (`_checked_ohya`). The support is read once, for both.
    """
    _check_dims(rho.dim, ch)
    layouts = _support_layouts(rho.matrix[None])
    ((_, weights, vectors, blocks),) = layouts
    if all(s.stop - s.start < 2 for s in blocks):
        dec = SchattenDecomposition(weights=weights[0], vectors=vectors[0])
        value = mutual_entropy_fixed(rho, ch, dec).value
        return MutualResult(value=value, decomposition=dec, converged=True, evals=1)
    ((result, support),) = _ohya_suprema(ch, rho.matrix[None], search or SearchBudget(), layouts=layouts)
    return _checked_ohya(rho, ch, _rotated(*support, result.params), result)


def classical_mutual_entropy(p, ch: KrausChannel) -> DualRouteValue:
    """Shannon mutual information of a classical channel at input p.

    The channel must map diagonal states to diagonal states within
    DIAGONAL_TOL. `value` is the Shannon difference H(output) - sum_k p_k H(output | k); it is
    cross-checked against the weighted quantum relative entropies of the
    transmitted basis states (agreement within 1e-8).
    """
    weights = as_probability(p)
    if ch.in_dim != weights.size:
        raise ValueError(f"input length {weights.size} does not match channel {ch.in_dim}")
    letters = np.arange(weights.size)
    basis = np.zeros((weights.size, ch.in_dim, ch.in_dim), dtype=complex)
    basis[letters, letters, letters] = 1.0
    outputs = apply_matrix(ch, basis)  # the image of each basis projector |k><k|
    if np.max(np.abs(outputs[:, ~np.eye(ch.out_dim, dtype=bool)]), initial=0.0) > DIAGONAL_TOL:
        raise ValueError("channel does not map diagonal states to diagonal states")
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
    """chi = S(ch(mixture)) - sum_k p_k S(ch(sigma_k)).

    Each coded state is validated as a density operator of the channel's
    input dimension before any arithmetic, which then runs on the states as
    given.
    """
    weights = as_probability(p)
    states = [as_complex_matrix(s, "coded state") for s in coded]
    if len(states) != weights.size:
        raise ValueError(f"{weights.size} weights but {len(states)} coded states")
    for s in states:
        _check_dims(DensityOperator(s).dim, ch)
    outputs = apply_matrix(ch, np.stack(states))
    avg = sum(lam * out for lam, out in zip(weights, outputs))
    return von_neumann_entropy(avg) - sum(
        lam * von_neumann_entropy(out)
        for lam, out in zip(weights, outputs)
        if lam > 1e-15
    )


@dataclass(frozen=True, eq=False)
class PseudoResult:
    value: float
    weights: np.ndarray
    components: tuple[np.ndarray, ...]
    converged: bool
    evals: int


def _checked_ensemble(ch: KrausChannel, rho, lams, sigmas, value: float) -> tuple:
    """(state, weights, components sigma_k / lambda_k) of a split the search scored as `value`.

    Components of weight at or below MERGE_WEIGHT_TOL are first merged into
    the heaviest: dividing such a sigma_k by its trace amplifies rounding past
    the density-operator tolerances, and the merge keeps the sum. Checks the
    weights, each component (as `holevo_bound` validates it), the
    reconstruction of rho within 1e-8 and `value` against chi from
    `holevo_bound` within DUAL_ROUTE_TOL, and returns the split's own arrays.
    """
    state = DensityOperator(rho).matrix
    tiny = lams <= MERGE_WEIGHT_TOL * lams.sum()
    if tiny.any():
        heavy = int(np.argmax(lams))
        lams, sigmas = lams.copy(), sigmas.copy()
        lams[heavy] += lams[tiny].sum()
        sigmas[heavy] += sigmas[tiny].sum(axis=0)
        lams, sigmas = lams[~tiny], sigmas[~tiny]
    weights = as_probability(lams / lams.sum())
    components = tuple(sigmas / lams[:, None, None])
    chi = holevo_bound(weights, components, ch)
    rebuilt = sum(w * c for w, c in zip(weights, components))
    if np.max(np.abs(rebuilt - state)) > RECONSTRUCTION_TOL:
        raise ConsistencyError("pseudo ensemble does not rebuild its state within 1e-8")
    if abs(chi - value) > DUAL_ROUTE_TOL:
        raise ConsistencyError(f"pseudo mutual-entropy routes disagree: {value!r} vs {chi!r}")
    return state, weights, components


def _sqrt_psd(m: np.ndarray) -> np.ndarray:
    """The PSD square root of a Hermitian matrix, or of each in a stack (..., d, d)."""
    w, v = np.linalg.eigh(m)
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)[..., None, :]) @ v.conj().swapaxes(-1, -2)


def _povm_split(sqrt_rho: np.ndarray, params: np.ndarray, n_components: int):
    """(lambda_k, sigma_k) per row, with sigma_k = sqrt(rho) M_k sqrt(rho) unnormalized.

    sqrt_rho is (rows, d, d) and params (rows, n_params). {M_k} is the
    square-root POVM of the n_components complex factor blocks in a row of
    params, so the sigma_k sum to rho at every parameter point. When some row
    needs the POVM's completion effect, every row carries its slot, with
    lambda = 0 where it is not needed.
    """
    dim = sqrt_rho.shape[-1]
    effects, completed = _square_root_povm_rows(_complex_stack(params, n_components, dim, dim))
    if not completed.any():
        effects = effects[:, :-1]
    sigmas = sqrt_rho[:, None] @ effects @ sqrt_rho[:, None]
    return np.clip(np.real(np.trace(sigmas, axis1=-2, axis2=-1)), 0.0, None), sigmas


def _projector_factors(vectors: np.ndarray, n_components: int) -> np.ndarray:
    """Split parameters whose factor blocks are the projectors on the leading vector columns."""
    v = vectors[:, :n_components].T
    projectors = v[:, :, None] * v.conj()[:, None, :]
    params = np.zeros((n_components, 2, vectors.shape[0], vectors.shape[0]))
    params[: len(v), 0], params[: len(v), 1] = projectors.real, projectors.imag
    return params.reshape(-1)


def _split_search(
    ch: KrausChannel, member, head: np.ndarray, floor: MutualResult, n_components: int, budget: SearchBudget
) -> tuple[PseudoResult, np.ndarray]:
    """The supremum of chi over convex splits of family members, floored at `floor`.

    The search runs over (member parameters, split parameters).
    `member(heads)` takes the member parameters as rows and returns, per
    row, (rho, sqrt(rho), S(ch(rho)), whether the member has a trace); the
    split parameters are the factor blocks of `_povm_split`, and components
    of trace at or below 1e-12 drop out. A split scores
    chi = S(ch(rho)) - sum_k lambda_k S(ch(sigma_k)) with one batched
    eigvalsh, unvalidated. A dropped component is not normalized: its
    output has trace at most 1e-12, so `_entropy_rows` counts none of its
    eigenvalues (rounding aside) and the component adds an exact 0 to the
    weighted sum. For splits of at most 12 components that sum equals, bit
    for bit, the dot product over the kept components alone. The search
    starts at `head` split by the projectors of `floor`, the Ohya result at
    member(head). A split that beats the floor by more than budget.tol is
    checked once by `_checked_ensemble`, and its converged flag is the split
    search's; otherwise the floor's decomposition is reported, converged
    when either search is, so a split that wins by rounding alone never
    replaces the exact floor. Returns that result, whose evals count the
    split search alone, and the state it splits.
    """
    n_head = head.size

    def split(points: np.ndarray):
        rhos, sqrt_rhos, out_entropies, traced = member(points[:, :n_head])
        lams, sigmas = _povm_split(sqrt_rhos, points[:, n_head:], n_components)
        return rhos, out_entropies, traced, lams, sigmas

    def objective(points: np.ndarray) -> np.ndarray:
        _, out_entropies, traced, lams, sigmas = split(points)
        keep = lams > 1e-12
        outputs = apply_matrix(ch, sigmas) / np.where(keep, lams, 1.0)[..., None, None]
        mixed = _weighted_sum(lams, _entropy_rows(np.linalg.eigvalsh(outputs)))
        return np.where(traced, out_entropies - mixed, -math.inf)

    start = np.concatenate([head, _projector_factors(floor.decomposition.vectors, n_components)])
    result = maximize_batch(objective, start.size, budget, starts=[start])
    if result.value > floor.value + budget.tol:
        rhos, _, _, lams, sigmas = split(result.params[None])
        keep = lams[0] > 1e-12
        state, weights, components = _checked_ensemble(
            ch, rhos[0], lams[0][keep], sigmas[0][keep], result.value
        )
        value, converged = result.value, result.converged
    else:
        dec = floor.decomposition
        rhos = member(head[None])[0]
        state, weights = rhos[0], dec.weights
        components = tuple(dec.projector(k) for k in range(dec.size))
        value, converged = floor.value, floor.converged or result.converged
    return PseudoResult(value, weights, components, converged, result.evals), state


def pseudo_mutual_entropy(
    rho: DensityOperator,
    ch: KrausChannel,
    n_components: int,
    search: SearchBudget | None = None,
) -> PseudoResult:
    """Supremum over finite convex decompositions rho = sum_k lambda_k rho_k.

    Decompositions are parameterized exactly: free factor matrices define a
    POVM {M_k}, and sigma_k = sqrt(rho) M_k sqrt(rho) splits rho identically
    at every search point. This is `_split_search` at the one state rho. Its
    floor is `ohya_mutual_entropy` on budget.child(0), not on the caller's
    budget, so the value never falls below that search's but can fall below
    `ohya_mutual_entropy(rho, ch, search)`. `evals` counts both searches.
    """
    if n_components < 1:
        raise ValueError("need at least one component")
    budget = search or SearchBudget()
    floor = ohya_mutual_entropy(rho, ch, budget.child(0))
    fixed = (rho.matrix, _sqrt_psd(rho.matrix))
    out_entropy = von_neumann_entropy(apply_matrix(ch, rho.matrix))

    def member(heads: np.ndarray):
        rows = len(heads)
        rhos, roots = (np.broadcast_to(m, (rows, *m.shape)) for m in fixed)
        return rhos, roots, np.full(rows, out_entropy), np.ones(rows, dtype=bool)

    result, _ = _split_search(ch, member, np.zeros(0), floor, n_components, budget)
    return replace(result, evals=result.evals + floor.evals)
