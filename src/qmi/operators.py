"""Finite-dimensional operator primitives.

Density operators, spectral and Schatten decompositions, partial traces and
purification. Everything is dense complex128; dimensions are desk-scale
(<= 64). All decompositions are deterministic: eigenvalues descending,
eigenvector phases fixed so the first significant component is real positive.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

HERMITICITY_TOL = 1e-10
PSD_TOL = 1e-10
TRACE_TOL = 1e-10
DEGENERACY_TOL = 1e-8
ZERO_TOL = 1e-12
PHASE_TOL = 1e-8
PROBABILITY_TOL = 1e-9
MAX_DIM = 64


class ConsistencyError(RuntimeError):
    """Two independently computed routes to the same quantity disagree."""


def _check_finite(a: np.ndarray, name: str) -> None:
    """The check of every validated type and `as_probability`: no NaN or infinity."""
    if not np.isfinite(a).all():
        raise ValueError(f"non-finite entry in {name}")


def as_complex_matrix(m, name: str = "matrix") -> np.ndarray:
    a = np.asarray(getattr(m, "matrix", m), dtype=complex)
    if a.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got shape {a.shape}")
    return a


def hermitian_part(a: np.ndarray) -> np.ndarray:
    """(a + a^dag) / 2, for one matrix or each of a stack (..., d, d)."""
    return (a + a.conj().swapaxes(-1, -2)) / 2


def is_hermitian(a: np.ndarray) -> bool:
    return bool(np.max(np.abs(a - a.conj().T)) <= HERMITICITY_TOL)


def as_probability(p) -> np.ndarray:
    """Validate and return a probability vector (finite entries >= -1e-12, sum 1 within 1e-9)."""
    v = np.asarray(p, dtype=float).reshape(-1)
    if v.size == 0:
        raise ValueError("empty probability vector")
    _check_finite(v, "probability vector")
    if np.min(v) < -1e-12:
        raise ValueError(f"negative probability {np.min(v):.3e}")
    if abs(float(np.sum(v)) - 1.0) > PROBABILITY_TOL:
        raise ValueError(f"probabilities sum to {np.sum(v)!r}, expected 1")
    return v


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """A validated density operator: Hermitian, PSD, unit trace."""

    matrix: np.ndarray

    def __post_init__(self):
        a = as_complex_matrix(self.matrix, "density operator")
        n, m = a.shape
        if n != m:
            raise ValueError(f"density operator must be square, got {a.shape}")
        if n > MAX_DIM:
            raise ValueError(f"dimension {n} exceeds the supported maximum {MAX_DIM}")
        _check_finite(a, "density operator")
        if not is_hermitian(a):
            raise ValueError("density operator is not Hermitian within 1e-10")
        tr = complex(np.trace(a))
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValueError(f"trace is {tr!r}, expected 1 within 1e-10")
        if float(np.min(np.linalg.eigvalsh(hermitian_part(a)))) < -PSD_TOL:
            raise ValueError("density operator has an eigenvalue below -1e-10")
        a = hermitian_part(a)
        a.setflags(write=False)
        object.__setattr__(self, "matrix", a)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def tensor(self, other: "DensityOperator") -> "DensityOperator":
        return DensityOperator(np.kron(self.matrix, other.matrix))


def pure_state(vec) -> DensityOperator:
    """Rank-one density operator |v><v| from a (normalized) vector."""
    v = np.asarray(vec, dtype=complex).reshape(-1)
    norm = np.linalg.norm(v)
    if norm < 1e-12:
        raise ValueError("cannot normalize a zero vector")
    v = v / norm
    return DensityOperator(np.outer(v, v.conj()))


def maximally_mixed(dim: int) -> DensityOperator:
    return DensityOperator(np.eye(dim) / dim)


def tensor_product(a, b) -> np.ndarray:
    """Kronecker product; indices of the second factor vary fastest."""
    return np.kron(as_complex_matrix(a, "a"), as_complex_matrix(b, "b"))


def partial_trace(theta, dims: tuple[int, int], keep: int) -> np.ndarray:
    """Trace out one tensor factor of an operator on C^{d0} (x) C^{d1}.

    keep=0 keeps the first factor, keep=1 the second.
    """
    a = as_complex_matrix(theta, "theta")
    d0, d1 = dims
    if a.shape != (d0 * d1, d0 * d1):
        raise ValueError(f"shape {a.shape} incompatible with dims {dims}")
    t = a.reshape(d0, d1, d0, d1)
    if keep == 0:
        return np.einsum("ikjk->ij", t)
    if keep == 1:
        return np.einsum("kikj->ij", t)
    raise ValueError("keep must be 0 or 1")


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Eigenvalues (descending, degeneracy-grouped) with orthogonal projectors."""

    eigenvalues: np.ndarray
    projectors: tuple[np.ndarray, ...]
    multiplicities: tuple[int, ...]

    def reconstruct(self) -> np.ndarray:
        out = np.zeros_like(self.projectors[0])
        for lam, p in zip(self.eigenvalues, self.projectors):
            out = out + lam * p
        return out


def _eigh_descending(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues descending and their eigenvector columns, for one Hermitian
    matrix or each of a stack (..., d, d)."""
    w, v = np.linalg.eigh(hermitian_part(a))
    return w[..., ::-1], v[..., ::-1]


def _fix_phases(vecs: np.ndarray) -> np.ndarray:
    """Rotate each unit column so its first component over PHASE_TOL is real positive.

    vecs is one matrix of columns or a stack (..., d, n). A column is
    multiplied by conj(pivot) / |pivot|, with |pivot| the libm hypot of the
    pivot's parts, as abs() of a complex scalar computes it; np.abs of a
    complex array may round it otherwise.
    """
    first = np.argmax(np.abs(vecs) > PHASE_TOL, axis=-2)[..., None, :]
    pivot = np.take_along_axis(vecs, first, axis=-2)
    return vecs * (pivot.conj() / np.hypot(pivot.real, pivot.imag))


def _group_eigenvalues(w) -> list[slice]:
    """Chain-group a descending eigenvalue sequence; gap <= DEGENERACY_TOL*scale joins a group."""
    w = np.asarray(w, dtype=float).tolist()
    scale = max(1.0, max(map(abs, w), default=1.0))
    slices = []
    start = 0
    for i in range(1, len(w)):
        if w[i - 1] - w[i] > DEGENERACY_TOL * scale:
            slices.append(slice(start, i))
            start = i
    slices.append(slice(start, len(w)))
    return slices


def spectral(h) -> SpectralDecomposition:
    """Spectral decomposition of a Hermitian matrix with degeneracy grouping.

    Eigenvalues within DEGENERACY_TOL (relative to the largest magnitude, or
    absolute below magnitude 1) are merged into a single eigenspace projector.
    """
    a = as_complex_matrix(h, "h")
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got {a.shape}")
    if not is_hermitian(a):
        raise ValueError("spectral requires a Hermitian matrix (within 1e-10)")
    w, v = _eigh_descending(a)
    groups = _group_eigenvalues(w)
    eigenvalues = np.array([float(np.mean(w[s])) for s in groups])
    projectors = []
    for s in groups:
        block = v[:, s]
        proj = block @ block.conj().T
        proj.setflags(write=False)
        projectors.append(proj)
    return SpectralDecomposition(
        eigenvalues=eigenvalues,
        projectors=tuple(projectors),
        multiplicities=tuple(s.stop - s.start for s in groups),
    )


def eigenbasis(rho) -> tuple[np.ndarray, np.ndarray]:
    """Full orthonormal eigenbasis, eigenvalues descending, phases fixed.

    Returns (eigenvalues, vectors) with vectors as columns; includes the
    kernel, so the columns always span the whole space.
    """
    w, v = _eigh_descending(as_complex_matrix(rho, "rho"))
    return w, _fix_phases(v)


@dataclass(frozen=True, eq=False)
class SchattenDecomposition:
    """rho = sum_k weights[k] |v_k><v_k| with orthonormal v_k, weights descending."""

    weights: np.ndarray
    vectors: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        v = np.asarray(self.vectors, dtype=complex)
        if v.ndim != 2 or v.shape[1] != w.shape[0]:
            raise ValueError("vectors must be columns matching the weights")
        _check_finite(w, "Schatten weights")
        _check_finite(v, "Schatten vectors")
        if w.size and np.min(w) < -1e-12:
            raise ValueError(f"negative weight {np.min(w):.3e}")
        if abs(float(np.sum(w)) - 1.0) > 1e-9:
            raise ValueError(f"weights sum to {np.sum(w)!r}, expected 1 within 1e-9")
        gram = v.conj().T @ v
        if np.max(np.abs(gram - np.eye(w.size))) > 1e-8:
            raise ValueError("Schatten vectors are not orthonormal within 1e-8")
        w.setflags(write=False)
        v.setflags(write=False)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "vectors", v)

    @property
    def size(self) -> int:
        return int(self.weights.size)

    def projector(self, k: int) -> np.ndarray:
        v = self.vectors[:, k]
        return np.outer(v, v.conj())

    def reconstruct(self) -> np.ndarray:
        return (self.vectors * self.weights) @ self.vectors.conj().T


def _support_blocks(rho) -> tuple[np.ndarray, np.ndarray, list[slice]]:
    """Eigen-data of the support: (weights desc, vectors, degenerate slices),
    the `_support_layouts` of rho alone."""
    ((_, w, v, slices),) = _support_layouts(as_complex_matrix(rho, "rho")[None])
    return w[0], v[0], slices


def _support_layouts(mats: np.ndarray, eigen=None) -> list[tuple[np.ndarray, np.ndarray, np.ndarray, list[slice]]]:
    """The support eigen-data (weights desc, vectors, degenerate slices) of
    each matrix of a stack (S, d, d), grouped by support layout.

    Matrices share a layout when their supports have the same rank and the
    same eigenvalue slices. One batched eigh serves the whole stack; its
    eigen-data equal those of each matrix alone. `eigen` is the stack's
    `_eigh_descending`, computed here when not given. Returns one
    (rows, weights (n, r), vectors (n, d, r), slices) per layout, in order of
    the first row that has it.
    """
    w, v = _eigh_descending(mats) if eigen is None else eigen
    v = _fix_phases(v)
    groups = {}
    for i, row in enumerate(w.tolist()):
        r = sum(x > ZERO_TOL for x in row)  # the support is a prefix: w descends
        slices = _group_eigenvalues(row[:r])
        groups.setdefault((r, *(s.stop for s in slices)), (r, slices, []))[2].append(i)
    layouts = []
    for r, slices, rows in groups.values():
        rows = np.array(rows)
        layouts.append((rows, w[rows, :r], np.ascontiguousarray(v[rows, :, :r]), slices))
    return layouts


def _block_param_count(m: int) -> int:
    """Real parameters rotating an eigenvalue block of multiplicity m: m^2 if m >= 2, else 0."""
    return m * m if m >= 2 else 0


def canonical_schatten(rho) -> SchattenDecomposition:
    """Canonical rank-one orthogonal decomposition of a density operator.

    Deterministic representative of the (possibly non-unique) Schatten
    decomposition: support eigenvectors in descending eigenvalue order with
    fixed phases. Zero-weight terms are dropped.
    """
    w, v, _ = _support_blocks(rho)
    return SchattenDecomposition(weights=w, vectors=v)


def schatten_param_count(rho) -> int:
    """Number of real parameters indexing the Schatten decompositions of rho.

    m^2 per degenerate eigenvalue block of the support (multiplicity m >= 2);
    a nondegenerate state has none. Kernel rotations do not change the
    decomposition, so the kernel carries no parameters.
    """
    return sum(_block_param_count(s.stop - s.start) for s in _support_blocks(rho)[2])


@functools.lru_cache(maxsize=MAX_DIM)
def _upper_indices(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Row-major (row, column) indices above the diagonal, read-only."""
    rows, cols = np.triu_indices(m, 1)
    rows.setflags(write=False)
    cols.setflags(write=False)
    return rows, cols


def hermitian_from_params(p: np.ndarray, m: int) -> np.ndarray:
    """Hermitian m x m matrix from m^2 reals: diagonal, then (re, im) pairs.

    Leading axes of p are batch axes: p of shape (..., m^2) gives (..., m, m).
    Every float of the result is one parameter, its negation or zero, each
    written in place, so an infinite parameter stays in its own entries.
    """
    p = np.asarray(p, dtype=float)
    if p.shape[-1:] != (m * m,):
        raise ValueError(f"expected {m * m} parameters, got {p.shape[-1] if p.ndim else p.size}")
    h = np.zeros(p.shape[:-1] + (m, m), dtype=complex)
    parts = h.view(float).reshape(h.shape + (2,))  # (re, im) of each entry
    rows, cols = _upper_indices(m)
    diag = np.arange(m)
    parts[..., diag, diag, 0] = p[..., :m]
    parts[..., rows, cols, 0] = parts[..., cols, rows, 0] = p[..., m::2]
    parts[..., rows, cols, 1] = p[..., m + 1 :: 2]
    parts[..., cols, rows, 1] = -p[..., m + 1 :: 2]
    return h


def unitary_from_params(p: np.ndarray, m: int) -> np.ndarray:
    """exp(i H(p)) for the Hermitian H built from m^2 reals (batched like H)."""
    w, v = np.linalg.eigh(hermitian_from_params(p, m))
    return (v * np.exp(1j * w)[..., None, :]) @ v.conj().swapaxes(-1, -2)


def schatten_family(rho, params: np.ndarray) -> SchattenDecomposition:
    """The Schatten decomposition indexed by `params`.

    Rotates the canonical eigenbasis inside each degenerate block of the
    support by exp(i H), H Hermitian with m^2 real parameters per block.
    params of length schatten_param_count(rho); an empty vector returns the
    canonical decomposition.
    """
    w, v, blocks = _support_blocks(rho)
    params = np.asarray(params, dtype=float).reshape(-1)
    expected = sum(_block_param_count(s.stop - s.start) for s in blocks)
    if params.size != expected:
        raise ValueError(f"expected {expected} parameters, got {params.size}")
    pos = 0
    for s in blocks:
        m = s.stop - s.start
        if n := _block_param_count(m):
            v[:, s] = v[:, s] @ unitary_from_params(params[pos : pos + n], m)
            pos += n
    return SchattenDecomposition(weights=w, vectors=v)


def purify(theta) -> tuple[np.ndarray, int]:
    """Purify a density operator into state-space (x) ancilla.

    Returns (psi, ancilla_dim) with psi a unit vector on C^dim (x) C^anc,
    anc the numerical rank of theta; the partial trace over the ancilla
    reproduces theta (up to eigenvalues at or below ZERO_TOL).
    """
    w, v = eigenbasis(as_complex_matrix(theta, "theta"))
    keep = w > ZERO_TOL
    w, v = w[keep], v[:, keep]
    anc = int(w.size)
    if anc == 0:
        raise ValueError("cannot purify the zero matrix")
    psi = (v * np.sqrt(w)).reshape(-1)
    return psi, anc
