"""Seeded random instances for tests and the verification suites."""

from __future__ import annotations

import numpy as np

from .channels import KrausChannel, Povm, _square_root_povm
from .operators import DensityOperator, hermitian_part


def rng_from(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def random_hermitian(dim: int, rng) -> np.ndarray:
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return hermitian_part(a)


def random_unitary(dim: int, rng) -> np.ndarray:
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(a)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_pure(dim: int, rng) -> np.ndarray:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def random_density(dim: int, rng, rank: int | None = None) -> DensityOperator:
    """Ginibre state A A^dag / tr, optionally rank-limited."""
    r = dim if rank is None else rank
    a = rng.normal(size=(dim, r)) + 1j * rng.normal(size=(dim, r))
    m = a @ a.conj().T
    return DensityOperator(m / np.trace(m))


def random_probability(n: int, rng) -> np.ndarray:
    p = rng.random(n) + 1e-3
    return p / p.sum()


def random_kraus_channel(
    in_dim: int, out_dim: int, n_ops: int, rng
) -> KrausChannel:
    """Random CPTP map from a Haar-ish isometry into n_ops noise sectors."""
    if n_ops * out_dim < in_dim:
        raise ValueError("need n_ops * out_dim >= in_dim for an isometry")
    a = rng.normal(size=(n_ops * out_dim, in_dim)) + 1j * rng.normal(
        size=(n_ops * out_dim, in_dim)
    )
    q, _ = np.linalg.qr(a)
    return KrausChannel(tuple(q[i * out_dim : (i + 1) * out_dim, :] for i in range(n_ops)))


def random_povm(dim: int, n_outcomes: int, rng) -> Povm:
    """Random informationally rich POVM via the square-root normalization."""
    factors = np.stack([
        rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        for _ in range(n_outcomes)
    ])
    return Povm(tuple(_square_root_povm(factors)))
