"""Entropy functionals, all in nats.

von Neumann and Umegaki relative entropy for density operators, Shannon
entropy and KL divergence for probability vectors. The convention
0 ln 0 = 0 is applied through the zero tolerance; a relative entropy whose
first argument has support outside the second's returns +inf.
"""

from __future__ import annotations

import math

import numpy as np

from .operators import (
    PSD_TOL,
    ZERO_TOL,
    as_complex_matrix,
    as_probability,
    hermitian_part,
    partial_trace,
)

SUPPORT_TOL = 1e-9


def _entropy_rows(w: np.ndarray) -> np.ndarray:
    """Entropies of a stack of eigenvalue rows, one per leading index: the one
    kernel every spectrum's entropy goes through, a single row included."""
    support = w > ZERO_TOL
    return -np.sum(np.where(support, w * np.log(np.where(support, w, 1.0)), 0.0), axis=-1)


def von_neumann_entropy(rho) -> float:
    """S(rho) = -tr rho ln rho over the support eigenvalues."""
    a = as_complex_matrix(rho, "rho")
    return float(_entropy_rows(np.linalg.eigvalsh(hermitian_part(a))))


def umegaki_relative_entropy(rho, sigma) -> float:
    """S(rho, sigma) = tr rho (ln rho - ln sigma), +inf off-support.

    The support condition is numerical: if rho puts more than SUPPORT_TOL
    of its mass on the eigenvectors of sigma at or below ZERO_TOL, the
    value is +inf.
    """
    a = as_complex_matrix(rho, "rho")
    b = as_complex_matrix(sigma, "sigma")
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch {a.shape} vs {b.shape}")
    return float(_relative_entropy_rows(a[None], _factored(b))[0])


def _factored(sigma: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(eigenvalues, eigenvector columns) of the Hermitian part of sigma: the
    one factorization the relative-entropy kernels below read."""
    return np.linalg.eigh(hermitian_part(sigma))


def _log_sigma_split(factor: tuple) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(kernel eigenvectors, support eigenvectors, ln of the support
    eigenvalues) of a factored reference sigma. Raises ValueError when
    sigma has an eigenvalue below -PSD_TOL."""
    ws, vs = factor
    if float(np.min(ws)) < -PSD_TOL:
        raise ValueError(f"sigma has eigenvalue {np.min(ws):.3e}")
    kernel = ws <= ZERO_TOL
    return vs[:, kernel], vs[:, ~kernel], np.log(ws[~kernel])


def _relative_entropy_rows(rhos: np.ndarray, factor: tuple) -> np.ndarray:
    """S(rhos[k], sigma) for each matrix of a stack (K, d, d), from sigma's
    factorization `_factored(sigma)`; `umegaki_relative_entropy` is its
    one-row case.

    Raises ValueError when sigma has an eigenvalue below -PSD_TOL. A row
    that puts more than SUPPORT_TOL of its mass on sigma's kernel scores
    +inf. Every other row is -S(rho_k) - tr rho_k ln sigma, each term the
    float expression of the one-row case, so a row's value does not depend
    on the rest of the stack.
    """
    vk, vsup, log_w = _log_sigma_split(factor)
    leaks = np.real(np.einsum("ij,bjk,ki->b", vk.conj().T, rhos, vk))
    entropies = _entropy_rows(np.linalg.eigvalsh(hermitian_part(rhos)))
    log_sigma = (vsup * log_w) @ vsup.conj().T
    traces = np.real(np.trace(rhos @ log_sigma, axis1=-2, axis2=-1))
    return np.where(leaks > SUPPORT_TOL, math.inf, -entropies - traces)


def _image_relative_entropy_rows(images: np.ndarray, factor: tuple) -> np.ndarray:
    """S(rho_k, sigma) for rho_k = sum_r |x_kr><x_kr| given by its vectors
    x_kr, images (K, d, r), with r < d, and sigma's factorization.

    S(rho_k) is read from the r x r Gram matrix (<x_kr|x_kr'>), which has
    the nonzero spectrum of rho_k; tr rho_k ln sigma and the mass on
    sigma's kernel are sums over the vectors, sum_r <x_kr|ln sigma|x_kr>
    and sum_r |P_ker x_kr|^2. So no d-square matrix is formed or factored.
    Raises, leaks and scores as `_relative_entropy_rows`, to rounding.
    """
    vk, vsup, log_w = _log_sigma_split(factor)
    leaks = np.sum(np.abs(vk.conj().T @ images) ** 2, axis=(-2, -1))
    traces = np.sum(np.abs(vsup.conj().T @ images) ** 2, axis=-1) @ log_w
    entropies = _entropy_rows(np.linalg.eigvalsh(images.conj().swapaxes(-1, -2) @ images))
    return np.where(leaks > SUPPORT_TOL, math.inf, -entropies - traces)


def _log_trace_against(marginal: np.ndarray, factor: tuple) -> tuple[float, float]:
    """(tr of marginal against ln sigma on its support, mass off support),
    from sigma's factorization `_factored(sigma)`."""
    w, v = factor
    amps = np.real(np.einsum("ji,jk,ki->i", v.conj(), marginal, v))
    keep = w > ZERO_TOL
    value = np.sum(amps[keep] * np.log(w[keep]))
    leak = np.sum(np.clip(amps[~keep], 0.0, None))
    return float(value), float(leak)


def product_relative_entropy(theta, left, right) -> float:
    """S(theta, left (x) right) using the factorized reference directly.

    The reference's support is classified factor by factor at the trace-one
    scale; forming the Kronecker product first would square small eigenvalues
    below the zero threshold and misreport a finite value as infinite. The
    trace against ln(left (x) right) splits over theta's marginals.
    """
    t = as_complex_matrix(theta, "theta")
    a = as_complex_matrix(left, "left")
    b = as_complex_matrix(right, "right")
    d_g, d_k = a.shape[0], b.shape[0]
    if t.shape[0] != d_g * d_k:
        raise ValueError(f"joint dimension {t.shape[0]} is not {d_g}*{d_k}")
    return _compound_relative_entropy(t, _factored(a), _factored(b))


def _compound_relative_entropy(theta: np.ndarray, left: tuple, right: tuple) -> float:
    """`product_relative_entropy` of a formed theta, from the factorizations
    `_factored` of left and right. Nothing is validated."""
    dims = (left[0].size, right[0].size)
    m_in = partial_trace(theta, dims, keep=0)
    m_out = partial_trace(theta, dims, keep=1)
    return _product_relative_entropy(von_neumann_entropy(theta), m_in, m_out, left, right)


def _product_relative_entropy(joint_entropy: float, m_in, m_out, left: tuple, right: tuple) -> float:
    """S(theta, left (x) right) from S(theta), theta's two marginals and the
    factorizations `_factored` of left and right.

    -S(theta) - tr m_in ln left - tr m_out ln right, each factor classified
    on its own support; +inf when either marginal puts more than
    SUPPORT_TOL of its mass off its factor's support. Nothing is validated.
    """
    log_left, leak_left = _log_trace_against(m_in, left)
    log_right, leak_right = _log_trace_against(m_out, right)
    if leak_left > SUPPORT_TOL or leak_right > SUPPORT_TOL:
        return math.inf
    return -joint_entropy - log_left - log_right


def shannon_entropy(p) -> float:
    """H(p) = -sum p ln p."""
    return float(_entropy_rows(as_probability(p)))


def kl_divergence(p, q) -> float:
    """KL(p || q) = sum p ln(p/q), +inf when p charges a zero of q."""
    vp = as_probability(p)
    vq = as_probability(q)
    if vp.size != vq.size:
        raise ValueError(f"length mismatch {vp.size} vs {vq.size}")
    mask = vp > ZERO_TOL
    if np.any(vq[mask] <= ZERO_TOL):
        return math.inf
    return float(np.sum(vp[mask] * np.log(vp[mask] / vq[mask])))
