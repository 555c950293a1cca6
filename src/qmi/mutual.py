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
    _entropy_rows,
    _factored,
    _formed_compound,
    _image_relative_entropy_rows,
    _product_relative_entropy,
    _relative_entropy_rows,
    von_neumann_entropy,
)
from .operators import (
    ConsistencyError,
    DensityOperator,
    SchattenDecomposition,
    WEIGHT_TOL,
    ZERO_TOL,
    _eigh_descending,
    _support_layouts,
    as_complex_matrix,
    as_probability,
    hermitian_part,
    partial_trace,
)
from .sampling import random_unitary
from .search import SearchBudget, SearchResult, _complex_stack, maximize_batch

# A rebuilt matrix (a decomposition's sum, a marginal) matches its source within RECONSTRUCTION_TOL.
RECONSTRUCTION_TOL = 1e-8
DUAL_ROUTE_TOL = 1e-6
# The two routes of a classical or cqc mutual entropy agree within CLASSICAL_ROUTE_TOL.
CLASSICAL_ROUTE_TOL = 1e-8
MERGE_WEIGHT_TOL = 1e-6
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
        if np.max(np.abs(left - self.input_marginal.matrix)) > RECONSTRUCTION_TOL:
            raise ValueError("input marginal inconsistent with the joint state")
        if np.max(np.abs(right - self.output_marginal.matrix)) > RECONSTRUCTION_TOL:
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


def _projected(ch: KrausChannel, rows: np.ndarray) -> np.ndarray:
    """ch(|x><x|) for every row vector x of rows (..., K, d), through
    `apply_matrix`."""
    return apply_matrix(ch, rows[..., :, None] * rows.conj()[..., None, :])


def _weighted_sum(weights: np.ndarray, values: np.ndarray) -> np.ndarray:
    """sum_k weights[..., k] values[i, k] for each row i of values (rows, K).

    A stacked 1 x K by K x 1 product: each row's sum is the dot product
    `float(weights_i @ values_i)` of that row alone, bit for bit, which a
    matrix-vector product or a reduction along the rows need not be.
    """
    return np.matmul(values[:, None, :], weights[..., None])[:, 0, 0]


def _transmitted(ch: KrausChannel, dec: SchattenDecomposition) -> np.ndarray:
    """Channel images of the rank-one components, stacked along the first
    axis, by `_MutualEvaluator`'s rule: one transfer-matrix product for a
    wide channel of r >= out Kraus operators, else from the Kraus images."""
    if ch.wide and ch.stack.shape[0] >= ch.out_dim:
        return _projected(ch, dec.vectors.T)
    return _outputs(_images(ch.stack, dec.vectors))


def _compound_matrix(dec: SchattenDecomposition, outputs: np.ndarray) -> np.ndarray:
    """sum_k lambda_k |v_k><v_k| (x) outputs[k]."""
    v = dec.vectors
    d_g, d_k = v.shape[0], outputs.shape[-1]
    projectors = np.einsum("k,xk,yk->kxy", dec.weights, v, v.conj())
    theta = np.tensordot(projectors, outputs, axes=(0, 0))  # indices x, y, a, b
    return theta.transpose(0, 2, 1, 3).reshape(d_g * d_k, d_g * d_k)


def _narrow_compound(dec: SchattenDecomposition, images: np.ndarray) -> tuple:
    """(S(theta), tr_K theta, tr_G theta) of the compound state
    theta = sum_k lambda_k |v_k><v_k| (x) ch(|v_k><v_k|), without forming theta.

    theta = B B^dag, where B has one column b_kr = sqrt(lambda_k) v_k (x) K_r v_k
    per component k and Kraus operator r (images (K, out, r)). B^dag B, of
    side K r, has the nonzero spectrum of theta; its entries are
    sqrt(lambda_k lambda_k') <v_k|v_k'> <K_r v_k|K_r' v_k'>. The marginals
    contract B the same way: tr_K theta = sum_k lambda_k |K v_k|^2 |v_k><v_k|
    and tr_G theta = sum_kr lambda_k <v_k|v_k> |K_r v_k><K_r v_k|, with
    |K v_k|^2 = sum_r |K_r v_k|^2. Weights are clipped at 0 (a decomposition
    may carry weights down to -ZERO_TOL). It needs no orthonormality; at
    K r >= d_g d_k, `_framed_compound` reads the smaller blocks instead.
    """
    v, n_r = dec.vectors, images.shape[-1]
    weights = np.clip(dec.weights, 0.0, None)
    scale = np.sqrt(weights)
    overlaps = v.conj().T @ v
    factor = (overlaps * np.outer(scale, scale)).repeat(n_r, axis=0).repeat(n_r, axis=1)
    columns = images.swapaxes(0, 1).reshape(images.shape[1], -1)  # column k r is K_r v_k
    grams = columns.conj().T @ columns
    joint = float(_entropy_rows(np.linalg.eigvalsh(grams * factor)))
    traces = np.real(np.diagonal(grams)).reshape(-1, n_r).sum(axis=1)
    m_in = (v * (weights * traces)) @ v.conj().T
    m_out = (columns * (weights * np.real(np.diagonal(overlaps))).repeat(n_r)) @ columns.conj().T
    return joint, m_in, m_out


def _framed_compound(dec: SchattenDecomposition, outputs: np.ndarray) -> tuple:
    """(S(theta), tr_K theta, tr_G theta) of the compound state
    theta = sum_k lambda_k |v_k><v_k| (x) w_k, from the outputs
    w_k = ch(|v_k><v_k|) (K, out, out), without forming theta.

    theta = B B^dag, where B has the block columns sqrt(lambda_k) v_k (x) w_k^(1/2).
    B^dag B, of side K out, has the nonzero spectrum of theta; its block
    (k, l) is sqrt(lambda_k lambda_l) G_kl w_k^(1/2) w_l^(1/2), with the
    overlaps G = V^dag V of the decomposition vectors. Its diagonal blocks
    are lambda_k G_kk w_k, and the rest has Frobenius norm at most delta,
    delta^2 = sum_{k != l} |G_kl|^2 lambda_k lambda_l tr w_k tr w_l. By
    Weyl's inequality each eigenvalue of theta is within delta of one of the
    blocks', so S(theta) is read from the stacked spectra of the K
    out-square blocks. With N = K out eigenvalues, each moved by at most
    delta, the entropy moves by at most N delta (1 + ln 1/delta): 1.2e-7 at
    delta = ZERO_TOL and N = 4096, far inside DUAL_ROUTE_TOL. The marginals
    are exact contractions: tr_K theta = V diag(lambda_k tr w_k) V^dag and
    tr_G theta = sum_k lambda_k G_kk w_k.

    A decomposition whose vectors are orthonormal only to worse than
    delta <= ZERO_TOL (one built by hand; a Schatten decomposition of rho's
    eigenvectors is orthonormal to rounding) forms theta instead
    (`entropy._formed_compound`). Weights are clipped at 0, as in
    `_narrow_compound`.
    """
    v = dec.vectors
    weights = np.clip(dec.weights, 0.0, None)
    overlaps = v.conj().T @ v
    mass = weights * np.real(np.trace(outputs, axis1=-2, axis2=-1))
    spill = np.abs(overlaps) ** 2 * np.outer(mass, mass)
    np.fill_diagonal(spill, 0.0)
    if math.sqrt(float(np.sum(spill))) > ZERO_TOL:
        return _formed_compound(_compound_matrix(dec, outputs), (v.shape[0], outputs.shape[-1]))
    blocks = outputs * (weights * np.real(np.diagonal(overlaps)))[:, None, None]
    joint = float(_entropy_rows(np.linalg.eigvalsh(hermitian_part(blocks)).reshape(-1)))
    return joint, (v * mass) @ v.conj().T, np.sum(blocks, axis=0)


def _component_route(weights: np.ndarray, components: np.ndarray, out_factor: tuple) -> float:
    """sum_k lambda_k S(ch(rho_k), ch(rho)) over the components of weight
    above WEIGHT_TOL, each term floored at 0: for unit-trace states a negative
    term is rounding (Klein's inequality). +inf when a kept component leaks
    off the support of ch(rho).

    The shape of `components` picks the kernel. Kraus images K_r v_k
    (K, out, r) with r < out take the r x r Gram side,
    `_image_relative_entropy_rows`; channel outputs (K, out, out) take
    `_relative_entropy_rows`, whose terms equal `umegaki_relative_entropy`
    bit for bit. Both read ch(rho) from its one factorization `out_factor`
    (`entropy._factored`)."""
    keep = weights > WEIGHT_TOL
    kept = components[keep]
    rows = _image_relative_entropy_rows if kept.shape[-1] < kept.shape[-2] else _relative_entropy_rows
    terms = rows(kept, out_factor)
    if np.isinf(terms).any():
        return math.inf
    total = 0.0
    for lam, term in zip(weights[keep], terms.tolist()):
        total += lam * max(term, 0.0)
    return total


class _MutualEvaluator:
    """The fixed work of the mutual-entropy searches for a stack of states.

    The states share one support layout (rank and eigenvalue slices), so
    one rotation per degenerate block indexes the decompositions of each.
    Built once per search: the support eigen-data of every state (weights
    (S, r), vectors (S, d, r)), each S(ch(rho)), and the parts of the
    canonical components that a rotation of a degenerate block mixes
    linearly (S, K, n). Any split rho = sum_k lambda_k rho_k is scored as
    S(ch(rho)) - sum_k lambda_k S(ch(rho_k)), which equals the component sum
    sum_k lambda_k S(ch(rho_k), ch(rho)) exactly.

    The channel's shapes choose the parts and the entropy kernel. With r
    Kraus operators and r < out, the parts are the images K_r v_k and each
    S(ch(|v_k><v_k|)) is the entropy of their r x r Gram matrix, which has
    the output's nonzero spectrum. Otherwise the entropies come from the
    out-square outputs: of the vectors v_k through the transfer matrix for
    a wide channel (`KrausChannel.wide`), else of the images. A rotation
    multiplies only its block's parts. Outputs are formed on the Gram side
    only for an observer (`outputs`).

    Every method takes a batch of rows of parts, one per decomposition, and
    treats each row alone; `owners` gives each row's state. Each row's
    result is, bit for bit, what an evaluator of its state alone gives it.
    Nothing here is validated; the searches check their maximizer instead.
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
        self.channel = ch
        n_r, d_out = ch.stack.shape[:2]
        self.gram = n_r < d_out
        # The parts: each component's images K_r v_k, flattened, or its vector v_k.
        if self.gram or not ch.wide:
            self.image_shape = (d_out, n_r)
            images = _images(ch.stack, self.vectors)
            self.parts = images.reshape(*images.shape[:2], -1)
        else:
            self.image_shape = None
            self.parts = self.vectors.swapaxes(-1, -2).copy()
        out_avg = hermitian_part(apply_matrix(ch, rho_mats))
        self.out_entropy = _entropy_rows(np.linalg.eigvalsh(out_avg))

    def rotated(self, parts: np.ndarray, rotations) -> np.ndarray:
        """Parts rows (rows, K, n) with each block rotated by its unitary U
        (rows, m, m), one per block in order: the block's vectors become V U,
        so its parts become U^T (its parts)."""
        parts = parts.copy()
        for s, u in zip(self.blocks, rotations):
            parts[:, s] = u.swapaxes(-1, -2) @ parts[:, s]
        return parts

    def outputs(self, parts: np.ndarray) -> np.ndarray:
        """The channel outputs (rows, K, out, out) of parts rows."""
        if self.image_shape is None:
            return _projected(self.channel, parts)
        return _outputs(parts.reshape(*parts.shape[:2], *self.image_shape))

    def score(self, weights: np.ndarray, entropies: np.ndarray, owners: np.ndarray) -> np.ndarray:
        """S(ch(rho)) - sum_k weights[i, k] entropies[i, k] per row i, for the
        component output entropies (rows, K) of unit-trace components."""
        return self.out_entropy[owners] - _weighted_sum(weights, entropies)

    def evaluate(self, parts: np.ndarray, owners: np.ndarray) -> tuple:
        """(values, eigen-data, outputs) of parts rows: the mutual entropy of
        each row's decomposition, the `eigh` of each component's Gram matrix
        or output, which `generators` reads, and the outputs, or None on the
        Gram side, which forms none."""
        if self.gram:
            images = parts.reshape(*parts.shape[:2], *self.image_shape)
            outputs = None
            eigen = np.linalg.eigh(images.conj().swapaxes(-1, -2) @ images)
        else:
            outputs = self.outputs(parts)
            eigen = np.linalg.eigh(outputs)
        return self.score(self.weights[owners], _entropy_rows(eigen[0]), owners), eigen, outputs

    def generators(self, parts: np.ndarray, eigen: tuple, owners: np.ndarray) -> list[np.ndarray]:
        """The Riemannian gradient of each row's value, per block: the
        skew-Hermitian A = M - M^dag (rows, m, m) such that moving the
        block's vectors V to V exp(t Z) changes the value by t Re tr(Z^dag A)
        to first order.

        M_jk = lambda_k <v_j| sum_r K_r^dag ln(w_k) K_r |v_k>, with
        w_k = ch(|v_k><v_k|), read from the factorization `evaluate` made.
        Each M_jk = lambda_k <P_j, D_k> for the parts P and a dual part D_k.
        On the Gram side ln(w_k) B_k = B_k ln(E_k) for the images B_k and
        their Gram matrix E_k, so D_k = B_k ln(E_k) and no singular
        logarithm is taken. On the out-square side the logarithm of the
        output is taken on its support: D_k = ln(w_k) B_k, or, for a wide
        channel, the adjoint channel of ln(w_k), through the transfer
        matrix, applied to v_k.
        """
        e, u = eigen
        support = e > ZERO_TOL
        logs = np.where(support, np.log(np.where(support, e, 1.0)), 0.0)
        log_m = (u * logs[..., None, :]) @ u.conj().swapaxes(-1, -2)
        if self.image_shape is None:
            lead, d_out, d_in = log_m.shape[:-2], log_m.shape[-1], parts.shape[-1]
            adjoint = log_m.reshape(*lead, 1, d_out * d_out) @ self.channel.transfer.conj()
            duals = adjoint.reshape(*lead, d_in, d_in) @ parts[..., None]
        else:
            images = parts.reshape(*parts.shape[:2], *self.image_shape)
            duals = images @ log_m if self.gram else log_m @ images
        duals = duals.reshape(parts.shape)
        weights = self.weights[owners]
        found = []
        for s in self.blocks:
            m = (parts[:, s].conj() @ duals[:, s].swapaxes(-1, -2)) * weights[:, None, s]
            found.append(m - m.conj().swapaxes(-1, -2))
        return found


def _rotated_vectors(blocks: list[slice], vectors: np.ndarray, rotations) -> np.ndarray:
    """Vector rows (rows, d, r) with each block's columns V turned to V U."""
    vectors = vectors.copy()
    for s, u in zip(blocks, rotations):
        vectors[:, :, s] = vectors[:, :, s] @ u
    return vectors


def _generator_spectra(generators: list[np.ndarray]) -> tuple[list, np.ndarray]:
    """The `eigh` (w, V) of i A for each block's generator A, and each row's
    ||A||_F over all blocks."""
    spectra = [np.linalg.eigh(1j * a) for a in generators]
    return spectra, np.sqrt(sum(np.sum(w * w, axis=-1) for w, _ in spectra))


def _step_rotations(spectra: list, steps: np.ndarray) -> list[np.ndarray]:
    """exp(t A) = V diag(exp(-i t w)) V^dag per block, for each row's step t
    and its block's spectrum (w, V) of i A."""
    return [(v * np.exp(-1j * steps[:, None] * w)[:, None, :]) @ v.conj().swapaxes(-1, -2) for w, v in spectra]


def _schatten_ascent(ev: _MutualEvaluator, budget: SearchBudget, observe=None) -> list[SearchResult]:
    """The best Schatten decomposition of each state of `ev`, by Riemannian
    steepest ascent over the unitary group of each degenerate block
    (Abrudan, Eriksson and Koivunen, IEEE TSP 56:1134, 2008), all states and
    restarts in lockstep.

    Restart 0 starts at the canonical decomposition. Restart k >= 1 turns
    each block of it by a Haar unitary, drawn block by block from
    SeedSequence(budget.seed, spawn_key=(k,)); every state takes the same
    rotations. A step moves each block's vectors V to V exp(t A), with A
    the block's gradient generator (`_MutualEvaluator.generators`) and one
    t for all blocks; the first t0 turns the widest block by one radian.
    Each round scores every unfinished restart at the trial steps t0, t0/2,
    t0/4 and t0/8 with one stacked eigen-solve, cut so that no restart
    scores more than budget.max_evals rows. The best trial is kept only
    when it raises the value; t0 then becomes twice its step, and otherwise
    shrinks 16-fold. A restart stops when a kept step gains at most
    budget.tol or its ||A||_F is at most budget.tol (it converged), or when
    it has scored max_evals rows. With no degenerate block each state is
    scored once, converged.

    `observe(owners, vectors, outputs, values)`, if given, sees every
    scored batch: per row its state, support vectors, channel outputs and
    value, rows by state, then restart, then trial. Returns per state the
    best over its restarts (the earlier one on a tie): its unchecked value,
    its support vectors (d, r) as `params`, whether some restart converged,
    and the rows its restarts scored (`evals`). No state's result depends
    on the other states.
    """
    restarts = budget.restarts if ev.blocks else 1
    owners = np.repeat(np.arange(ev.size), restarts)  # one track per (state, restart)
    vectors, parts = ev.vectors[owners], ev.parts[owners]
    for k in range(1, restarts):
        rng = np.random.default_rng(np.random.SeedSequence(budget.seed, spawn_key=(k,)))
        rotations = [random_unitary(s.stop - s.start, rng) for s in ev.blocks]
        rotations = [np.broadcast_to(u, (ev.size, *u.shape)) for u in rotations]
        tracks = np.arange(k, len(owners), restarts)
        vectors[tracks] = _rotated_vectors(ev.blocks, vectors[tracks], rotations)
        parts[tracks] = ev.rotated(parts[tracks], rotations)
    values, eigen, outputs = ev.evaluate(parts, owners)
    if observe is not None:
        observe(owners, vectors, ev.outputs(parts) if outputs is None else outputs, values)
    evals = np.ones(len(owners), dtype=int)
    if not ev.blocks:
        return [SearchResult(float(value), v, True, 1) for value, v in zip(values, vectors)]
    spectra, norms = _generator_spectra(ev.generators(parts, eigen, owners))
    converged = norms <= budget.tol
    widest = np.max([np.max(np.abs(w), axis=-1) for w, _ in spectra], axis=0)
    steps = np.divide(1.0, widest, out=np.zeros(len(owners)), where=widest > 0)
    active = np.flatnonzero(~converged & (evals < budget.max_evals))
    while active.size:
        counts = np.minimum(4, budget.max_evals - evals[active])
        firsts = np.cumsum(counts) - counts
        row_tracks = np.repeat(active, counts)
        trial_steps = steps[row_tracks] * 0.5 ** (np.arange(len(row_tracks)) - np.repeat(firsts, counts))
        rotations = _step_rotations([(w[row_tracks], v[row_tracks]) for w, v in spectra], trial_steps)
        trial_parts = ev.rotated(parts[row_tracks], rotations)
        trial_values, trial_eigen, trial_outputs = ev.evaluate(trial_parts, owners[row_tracks])
        if observe is not None:
            outputs = ev.outputs(trial_parts) if trial_outputs is None else trial_outputs
            observe(owners[row_tracks], _rotated_vectors(ev.blocks, vectors[row_tracks], rotations), outputs,
                    trial_values)
        evals[active] += counts
        best = np.array([first + int(np.argmax(trial_values[first : first + count]))
                         for first, count in zip(firsts.tolist(), counts.tolist())])
        gains = trial_values[best] - values[active]
        raised = gains > 0
        steps[active[~raised]] /= 16.0
        won, rows = active[raised], best[raised]
        if won.size:
            values[won], parts[won], steps[won] = trial_values[rows], trial_parts[rows], 2.0 * trial_steps[rows]
            vectors[won] = _rotated_vectors(ev.blocks, vectors[won], [u[rows] for u in rotations])
            won_eigen = (trial_eigen[0][rows], trial_eigen[1][rows])
            won_spectra, norms = _generator_spectra(ev.generators(parts[won], won_eigen, owners[won]))
            for (w, v), (won_w, won_v) in zip(spectra, won_spectra):
                w[won], v[won] = won_w, won_v
            converged[won] = (gains[raised] <= budget.tol) | (norms <= budget.tol)
        active = np.flatnonzero(~converged & (evals < budget.max_evals))
    found = []
    for state in range(ev.size):
        tracks = slice(state * restarts, (state + 1) * restarts)
        best = state * restarts + int(np.argmax(values[tracks]))
        found.append(SearchResult(float(values[best]), vectors[best], bool(converged[tracks].any()),
                                  int(evals[tracks].sum())))
    return found


def _ohya_suprema(
    ch: KrausChannel, mats: np.ndarray, budget: SearchBudget, observe=None, layouts=None
) -> list[tuple[SearchResult, np.ndarray]]:
    """The Ohya search of each stacked state (S, d, d), as `ohya_mutual_entropy`
    runs it: the `_schatten_ascent` result, whose params are the best
    support vectors, and the support weights, unvalidated and unchecked.

    The states of each support layout run as one lockstep search;
    nondegenerate states of one rank are scored once, together. Each
    result equals the state's search alone. `observe(mats, weights,
    vectors, outputs, values)`, if given, sees every scored batch in order:
    per row its state, support weights and vectors, channel outputs and
    value. `layouts` is `_support_layouts(mats)`, computed here when not
    given.

    On a channel with `uniform_pure_outputs` every decomposition of a state
    has the canonical one's value, so the degenerate blocks are dropped:
    each state is scored once, at its canonical decomposition.
    """
    found = [None] * len(mats)
    for rows, weights, vectors, blocks in _support_layouts(mats) if layouts is None else layouts:
        group = mats[rows]
        ev = _MutualEvaluator(group, ch, (weights, vectors, [] if ch.uniform_pure_outputs else blocks))
        seen = None
        if observe is not None:

            def seen(owners, vectors, outputs, values, ev=ev, group=group):
                observe(group[owners], ev.weights[owners], vectors, outputs, values)

        for i, result, w in zip(rows.tolist(), _schatten_ascent(ev, budget, seen), ev.weights):
            found[i] = result, w
    return found


def _checked_ohya(
    rho: DensityOperator, ch: KrausChannel, result: SearchResult, weights: np.ndarray, rho_factor=None
) -> MutualResult:
    """The Ohya result of a search of rho's decompositions: its best
    decomposition, of the support `weights` and the vectors in
    result.params, valued by `mutual_entropy_fixed` with the dual-route
    check. `rho_factor` is rho's `entropy._factored`, when the caller holds
    it."""
    dec = SchattenDecomposition(weights=weights, vectors=result.params)
    factor = _factored(rho.matrix) if rho_factor is None else rho_factor
    checked = _dual_route(rho.matrix, ch, dec, factor)
    return MutualResult(value=checked.value, decomposition=dec, converged=result.converged, evals=result.evals)


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

    `value` is the component sum (`_component_route`); `cross_value` the
    relative entropy of the compound state theta against the product of
    marginals. The shapes pick each route's kernel. With r Kraus operators
    and r < out, the component terms come from the r x r Gram matrices of
    the images K_r v_k and no output is formed; otherwise from the
    out-square outputs. With K components, theta is never formed from a
    decomposition orthonormal to rounding: when K r < d_g d_k, S(theta) and
    the marginals are read from a B of K r columns with theta = B B^dag
    (`_narrow_compound`); otherwise from the K out-square diagonal blocks of
    B^dag B for the block columns sqrt(lambda_k) v_k (x) ch(|v_k><v_k|)^(1/2),
    certified by the overlaps of the vectors (`_framed_compound`). ch(rho)
    is factored once, for both routes. Disagreement beyond DUAL_ROUTE_TOL
    raises ConsistencyError.
    """
    rho_mat = as_complex_matrix(rho, "rho")
    _check_dims(rho_mat.shape[0], ch)
    return _dual_route(rho_mat, ch, dec, _factored(rho_mat))


def _dual_route(rho_mat: np.ndarray, ch: KrausChannel, dec: SchattenDecomposition, rho_factor: tuple) -> DualRouteValue:
    """`mutual_entropy_fixed` with rho's factorization `rho_factor` given.
    Each side of the compound route, `_narrow_compound` or
    `_framed_compound`, gives (S(theta), tr_K theta, tr_G theta), and one
    `_product_relative_entropy` ends both."""
    _check_decomposes(rho_mat, dec)
    n_r, d_k = ch.stack.shape[:2]
    gram = n_r < d_k
    narrow = dec.size * n_r < rho_mat.shape[0] * d_k  # always so on the Gram side
    # On the wide side the images, with many Kraus operators as large as
    # theta, are never formed.
    images = _images(ch.stack, dec.vectors) if narrow else None
    outputs = None if gram else _transmitted(ch, dec)
    out_factor = _factored(apply_matrix(ch, rho_mat))
    component = _component_route(dec.weights, images if gram else outputs, out_factor)
    parts = _narrow_compound(dec, images) if narrow else _framed_compound(dec, outputs)
    compound = _product_relative_entropy(*parts, rho_factor, out_factor)
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
    `converged = True`, and no search runs. So is a degenerate state through
    a channel with `uniform_pure_outputs` (one Kraus operator, or the
    covariant form a U m U^dag + b tr(m) I): there S(ch(|v><v|)) does not depend
    on v, so every decomposition has the canonical one's value. Any other
    state with a degenerate eigenvalue block is searched over the blocks'
    unitary rotations by `_ohya_suprema`, a Riemannian gradient ascent from
    the canonical decomposition and `restarts - 1` seeded Haar rotations of
    it (`_schatten_ascent`); its best decomposition is re-evaluated with the
    dual-route consistency check (`_checked_ohya`). `evals` counts the rows
    the search scored, and `converged` means that some restart stopped on
    its gain or first-order test (a kept step gaining at most `tol`, or a
    gradient norm at most `tol`) before its `max_evals` rows. rho is
    factored once, for its support and for the check's compound route. The
    fixed-rho `qdc_hierarchy` runs this same path (`_ohya_at`).
    """
    return _ohya_at(rho, ch, search or SearchBudget())


def _ohya_at(rho: DensityOperator, ch: KrausChannel, budget: SearchBudget, observe=None) -> MutualResult:
    """`ohya_mutual_entropy` on `budget`. `observe` goes to `_ohya_suprema`
    when a search runs; the no-search path calls no observer. Raises
    ConsistencyError when the search finds no finite value."""
    _check_dims(rho.dim, ch)
    eigen = _eigh_descending(rho.matrix[None])
    layouts = _support_layouts(rho.matrix[None], eigen)
    rho_factor = (eigen[0][0], eigen[1][0])
    ((_, weights, vectors, blocks),) = layouts
    if all(s.stop - s.start < 2 for s in blocks) or ch.uniform_pure_outputs:
        dec = SchattenDecomposition(weights=weights[0], vectors=vectors[0])
        value = _dual_route(rho.matrix, ch, dec, rho_factor).value
        return MutualResult(value=value, decomposition=dec, converged=True, evals=1)
    ((result, weights),) = _ohya_suprema(ch, rho.matrix[None], budget, observe, layouts)
    if not math.isfinite(result.value):
        raise ConsistencyError("no finite decomposition value found")
    return _checked_ohya(rho, ch, result, weights, rho_factor)


def classical_mutual_entropy(p, ch: KrausChannel) -> DualRouteValue:
    """Shannon mutual information of a classical channel at input p.

    The channel must map diagonal states to diagonal states within
    DIAGONAL_TOL. `value` is the Shannon difference H(output) - sum_k p_k H(output | k); it is
    cross-checked against the weighted quantum relative entropies of the
    transmitted basis states (agreement within CLASSICAL_ROUTE_TOL).
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
    keep = weights > WEIGHT_TOL
    stack = np.concatenate([outputs[keep], avg[None]])  # the kept outputs, then their average
    entropies = _entropy_rows(np.clip(np.real(np.diagonal(stack, axis1=-2, axis2=-1)), 0.0, None))
    shannon = float(entropies[-1] - weights[keep] @ entropies[:-1])
    quantum = _component_route(weights, outputs, _factored(avg))
    result = DualRouteValue(value=shannon, cross_value=quantum)
    if result.defect > CLASSICAL_ROUTE_TOL:
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
    keep = weights > WEIGHT_TOL
    stack = np.concatenate([outputs[keep], avg[None]])  # the kept outputs, then their average
    entropies = _entropy_rows(np.linalg.eigvalsh(hermitian_part(stack)))
    return float(entropies[-1] - weights[keep] @ entropies[:-1])


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
    reconstruction of rho within RECONSTRUCTION_TOL and `value` against chi from
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
    of trace at or below ZERO_TOL drop out. A split scores
    chi = S(ch(rho)) - sum_k lambda_k S(ch(sigma_k)) with one batched
    eigvalsh, unvalidated. A dropped component is not normalized: its
    output has trace at most ZERO_TOL, so `_entropy_rows` counts none of its
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

    Through a channel with `uniform_pure_outputs` no split search runs and
    the floor is reported, converged, with split evals 0. There every state
    sigma has S(ch(sigma)) >= s0, the one entropy of the pure outputs, since
    S o ch is concave, so chi <= S(ch(rho)) - s0. At a fixed rho that bound
    is Ohya's value, the floor; over a family it is at most the value at the
    flat member, the floor `_quantum_search` reports (see its docstring).
    """
    n_head = head.size

    def split(points: np.ndarray):
        rhos, sqrt_rhos, out_entropies, traced = member(points[:, :n_head])
        lams, sigmas = _povm_split(sqrt_rhos, points[:, n_head:], n_components)
        return rhos, out_entropies, traced, lams, sigmas

    def objective(points: np.ndarray) -> np.ndarray:
        _, out_entropies, traced, lams, sigmas = split(points)
        keep = lams > ZERO_TOL
        outputs = apply_matrix(ch, sigmas) / np.where(keep, lams, 1.0)[..., None, None]
        mixed = _weighted_sum(lams, _entropy_rows(np.linalg.eigvalsh(outputs)))
        return np.where(traced, out_entropies - mixed, -math.inf)

    start = np.concatenate([head, _projector_factors(floor.decomposition.vectors, n_components)])
    if ch.uniform_pure_outputs:
        result = SearchResult(-math.inf, start, converged=True, evals=0)
    else:
        result = maximize_batch(objective, start.size, budget, starts=[start])
    if result.value > floor.value + budget.tol:
        rhos, _, _, lams, sigmas = split(result.params[None])
        keep = lams[0] > ZERO_TOL
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
    Through a channel with `uniform_pure_outputs` the floor is the supremum
    and no split search runs: the value is Ohya's, `evals` 1 and `converged`
    True.
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
