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
MAX_DIM = 64


class ConsistencyError(RuntimeError):
    """Two independently computed routes to the same quantity disagree."""


def as_complex_matrix(m, name: str = "matrix") -> np.ndarray:
    a = np.asarray(getattr(m, "matrix", m), dtype=complex)
    if a.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got shape {a.shape}")
    return a


def hermitian_part(a: np.ndarray) -> np.ndarray:
    return (a + a.conj().T) / 2


def is_hermitian(a: np.ndarray, tol: float = HERMITICITY_TOL) -> bool:
    return bool(np.max(np.abs(a - a.conj().T)) <= tol)


def as_probability(p, tol: float = 1e-9) -> np.ndarray:
    """Validate and return a probability vector (entries >= -1e-12, sum 1)."""
    v = np.asarray(p, dtype=float).reshape(-1)
    if v.size == 0:
        raise ValueError("empty probability vector")
    if np.min(v) < -1e-12:
        raise ValueError(f"negative probability {np.min(v):.3e}")
    if abs(float(np.sum(v)) - 1.0) > tol:
        raise ValueError(f"probabilities sum to {np.sum(v)!r}, expected 1")
    return v


@dataclass(frozen=True)
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
        if not is_hermitian(a, HERMITICITY_TOL):
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


@dataclass(frozen=True)
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
    w, v = np.linalg.eigh(hermitian_part(a))
    return w[::-1], v[:, ::-1]


def _fix_phases(vecs: np.ndarray) -> np.ndarray:
    """Rotate each column so its first component over PHASE_TOL is real positive."""
    out = vecs.copy()
    for j in range(out.shape[1]):
        col = out[:, j]
        idx = np.argmax(np.abs(col) > PHASE_TOL)
        pivot = col[idx]
        if abs(pivot) > 0:
            out[:, j] = col * (pivot.conjugate() / abs(pivot))
    return out


def _group_eigenvalues(w: np.ndarray, tol: float) -> list[slice]:
    """Chain-group a descending eigenvalue array; gap <= tol*scale joins a group."""
    scale = max(1.0, float(np.max(np.abs(w))) if w.size else 1.0)
    slices = []
    start = 0
    for i in range(1, len(w)):
        if w[i - 1] - w[i] > tol * scale:
            slices.append(slice(start, i))
            start = i
    slices.append(slice(start, len(w)))
    return slices


def spectral(h, degeneracy_tol: float = DEGENERACY_TOL) -> SpectralDecomposition:
    """Spectral decomposition of a Hermitian matrix with degeneracy grouping.

    Eigenvalues within degeneracy_tol (relative to the largest magnitude)
    are merged into a single eigenspace projector.
    """
    a = as_complex_matrix(h, "h")
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got {a.shape}")
    if not is_hermitian(a, HERMITICITY_TOL):
        raise ValueError("spectral requires a Hermitian matrix (within 1e-10)")
    w, v = _eigh_descending(a)
    groups = _group_eigenvalues(w, degeneracy_tol)
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


@dataclass(frozen=True)
class SchattenDecomposition:
    """rho = sum_k weights[k] |v_k><v_k| with orthonormal v_k, weights descending."""

    weights: np.ndarray
    vectors: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        v = np.asarray(self.vectors, dtype=complex)
        if v.ndim != 2 or v.shape[1] != w.shape[0]:
            raise ValueError("vectors must be columns matching the weights")
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


def _support_blocks(
    rho, degeneracy_tol: float, zero_tol: float
) -> tuple[np.ndarray, np.ndarray, list[slice]]:
    """Eigen-data of the support: (weights desc, vectors, degenerate slices)."""
    w, v = eigenbasis(rho)
    keep = w > zero_tol
    w, v = w[keep], v[:, keep]
    return w, v, _group_eigenvalues(w, degeneracy_tol)


def canonical_schatten(
    rho, zero_tol: float = ZERO_TOL, degeneracy_tol: float = DEGENERACY_TOL
) -> SchattenDecomposition:
    """Canonical rank-one orthogonal decomposition of a density operator.

    Deterministic representative of the (possibly non-unique) Schatten
    decomposition: support eigenvectors in descending eigenvalue order with
    fixed phases. Zero-weight terms are dropped.
    """
    w, v, _ = _support_blocks(rho, degeneracy_tol, zero_tol)
    return SchattenDecomposition(weights=w, vectors=v)


def schatten_param_count(
    rho, zero_tol: float = ZERO_TOL, degeneracy_tol: float = DEGENERACY_TOL
) -> int:
    """Number of real parameters indexing the Schatten decompositions of rho.

    m^2 per degenerate eigenvalue block of the support (multiplicity m >= 2);
    a nondegenerate state has none. Kernel rotations do not change the
    decomposition, so the kernel carries no parameters.
    """
    _, _, blocks = _support_blocks(rho, degeneracy_tol, zero_tol)
    return sum((s.stop - s.start) ** 2 for s in blocks if s.stop - s.start >= 2)


@functools.lru_cache(maxsize=MAX_DIM)
def _upper_indices(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Row-major (row, column) indices above the diagonal, read-only."""
    rows, cols = np.triu_indices(m, 1)
    rows.setflags(write=False)
    cols.setflags(write=False)
    return rows, cols


def hermitian_from_params(p: np.ndarray, m: int) -> np.ndarray:
    """Hermitian m x m matrix from m^2 reals: diagonal, then (re, im) pairs."""
    p = np.asarray(p, dtype=float)
    if p.size != m * m:
        raise ValueError(f"expected {m * m} parameters, got {p.size}")
    rows, cols = _upper_indices(m)
    h = np.diag(p[:m].astype(complex))
    upper = p[m::2] + 1j * p[m + 1 :: 2]
    h[rows, cols] = upper
    h[cols, rows] = upper.conj()
    return h


def unitary_from_params(p: np.ndarray, m: int) -> np.ndarray:
    """exp(i H(p)) for the Hermitian H built from m^2 reals."""
    w, v = np.linalg.eigh(hermitian_from_params(p, m))
    return (v * np.exp(1j * w)) @ v.conj().T


def schatten_family(
    rho,
    params: np.ndarray,
    zero_tol: float = ZERO_TOL,
    degeneracy_tol: float = DEGENERACY_TOL,
) -> SchattenDecomposition:
    """The Schatten decomposition indexed by `params`.

    Rotates the canonical eigenbasis inside each degenerate block of the
    support by exp(i H), H Hermitian with m^2 real parameters per block.
    params of length schatten_param_count(rho); an empty vector returns the
    canonical decomposition.
    """
    w, v, blocks = _support_blocks(rho, degeneracy_tol, zero_tol)
    params = np.asarray(params, dtype=float).reshape(-1)
    expected = sum((s.stop - s.start) ** 2 for s in blocks if s.stop - s.start >= 2)
    if params.size != expected:
        raise ValueError(f"expected {expected} parameters, got {params.size}")
    v = v.copy()
    pos = 0
    for s in blocks:
        m = s.stop - s.start
        if m < 2:
            continue
        u = unitary_from_params(params[pos : pos + m * m], m)
        v[:, s] = v[:, s] @ u
        pos += m * m
    return SchattenDecomposition(weights=w, vectors=v)


def matrix_log_on_support(p, zero_tol: float = ZERO_TOL) -> np.ndarray:
    """Matrix logarithm restricted to the support of a PSD matrix.

    Eigenvalues below zero_tol are treated as exact zeros (the log acts as 0
    on the kernel). Raises if the matrix has an eigenvalue below -1e-10.
    """
    a = as_complex_matrix(p, "p")
    if not is_hermitian(a, HERMITICITY_TOL):
        raise ValueError("matrix_log_on_support requires a Hermitian matrix")
    w, v = np.linalg.eigh(hermitian_part(a))
    if float(np.min(w)) < -PSD_TOL:
        raise ValueError(f"matrix is not PSD: eigenvalue {np.min(w):.3e}")
    keep = w > zero_tol
    vs = v[:, keep]
    return (vs * np.log(w[keep])) @ vs.conj().T


def numerical_rank(theta, zero_tol: float = ZERO_TOL) -> int:
    w = np.linalg.eigvalsh(hermitian_part(as_complex_matrix(theta, "theta")))
    return int(np.sum(w > zero_tol))


def purify(theta, zero_tol: float = ZERO_TOL) -> tuple[np.ndarray, int]:
    """Purify a density operator into state-space (x) ancilla.

    Returns (psi, ancilla_dim) with psi a unit vector on C^dim (x) C^anc,
    anc the numerical rank of theta; the partial trace over the ancilla
    reproduces theta (up to eigenvalues below zero_tol).
    """
    w, v = eigenbasis(as_complex_matrix(theta, "theta"))
    keep = w > zero_tol
    w, v = w[keep], v[:, keep]
    anc = int(w.size)
    if anc == 0:
        raise ValueError("cannot purify the zero matrix")
    psi = (v * np.sqrt(w)).reshape(-1)
    return psi, anc
