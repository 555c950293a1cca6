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


def _entropy_from_eigenvalues(w: np.ndarray, zero_tol: float) -> float:
    lam = w[w > zero_tol]
    return float(-np.sum(lam * np.log(lam)))


def _entropy_rows(w: np.ndarray, zero_tol: float = ZERO_TOL) -> np.ndarray:
    """Entropies of a stack of eigenvalue rows, one per leading index."""
    support = w > zero_tol
    return -np.sum(np.where(support, w * np.log(np.where(support, w, 1.0)), 0.0), axis=-1)


def von_neumann_entropy(rho, zero_tol: float = ZERO_TOL) -> float:
    """S(rho) = -tr rho ln rho over the support eigenvalues."""
    a = as_complex_matrix(rho, "rho")
    w = np.linalg.eigvalsh(hermitian_part(a))
    return _entropy_from_eigenvalues(w, zero_tol)


def umegaki_relative_entropy(
    rho,
    sigma,
    zero_tol: float = ZERO_TOL,
    support_tol: float = SUPPORT_TOL,
) -> float:
    """S(rho, sigma) = tr rho (ln rho - ln sigma), +inf off-support.

    The support condition is numerical: if rho puts more than support_tol
    of its mass on the numerical kernel of sigma, the value is +inf.
    """
    a = as_complex_matrix(rho, "rho")
    b = as_complex_matrix(sigma, "sigma")
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch {a.shape} vs {b.shape}")
    ws, vs = np.linalg.eigh(hermitian_part(b))
    if float(np.min(ws)) < -PSD_TOL:
        raise ValueError(f"sigma has eigenvalue {np.min(ws):.3e}")
    kernel = ws <= zero_tol
    if np.any(kernel):
        vk = vs[:, kernel]
        leak = float(np.real(np.einsum("ij,jk,ki->", vk.conj().T, a, vk)))
        if leak > support_tol:
            return math.inf
    wr = np.linalg.eigvalsh(hermitian_part(a))
    lam = wr[wr > zero_tol]
    tr_rho_log_rho = float(np.sum(lam * np.log(lam)))
    vsup = vs[:, ~kernel]
    log_sigma = (vsup * np.log(ws[~kernel])) @ vsup.conj().T
    tr_rho_log_sigma = float(np.real(np.trace(a @ log_sigma)))
    return tr_rho_log_rho - tr_rho_log_sigma


def _eigen_amplitudes(marginal: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Diagonal of each marginal (one per leading index) in the eigenbasis v."""
    return np.real(np.einsum("ji,...jk,ki->...i", v.conj(), marginal, v))


def _log_trace_in_eigenbasis(amps: np.ndarray, w: np.ndarray, zero_tol: float):
    """(amps against ln w on the support, amplitude off the support), per row."""
    keep = w > zero_tol
    value = np.sum(amps[..., keep] * np.log(w[keep]), axis=-1)
    leak = np.sum(np.clip(amps[..., ~keep], 0.0, None), axis=-1)
    return value, leak


def _log_trace_against(
    marginal: np.ndarray, factor: np.ndarray, zero_tol: float
) -> tuple[float, float]:
    """(tr of marginal against ln factor on its support, mass off support)."""
    w, v = np.linalg.eigh(hermitian_part(factor))
    value, leak = _log_trace_in_eigenbasis(_eigen_amplitudes(marginal, v), w, zero_tol)
    return float(value), float(leak)


def product_relative_entropy(
    theta,
    left,
    right,
    zero_tol: float = ZERO_TOL,
    support_tol: float = SUPPORT_TOL,
) -> float:
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
    m_in = partial_trace(t, (d_g, d_k), keep=0)
    m_out = partial_trace(t, (d_g, d_k), keep=1)
    log_left, leak_left = _log_trace_against(m_in, a, zero_tol)
    log_right, leak_right = _log_trace_against(m_out, b, zero_tol)
    if leak_left > support_tol or leak_right > support_tol:
        return math.inf
    return -von_neumann_entropy(t, zero_tol) - log_left - log_right


def shannon_entropy(p, zero_tol: float = ZERO_TOL) -> float:
    """H(p) = -sum p ln p."""
    v = as_probability(p)
    return _entropy_from_eigenvalues(v, zero_tol)


def kl_divergence(p, q, zero_tol: float = ZERO_TOL) -> float:
    """KL(p || q) = sum p ln(p/q), +inf when p charges a zero of q."""
    vp = as_probability(p)
    vq = as_probability(q)
    if vp.size != vq.size:
        raise ValueError(f"length mismatch {vp.size} vs {vq.size}")
    mask = vp > zero_tol
    if np.any(vq[mask] <= zero_tol):
        return math.inf
    return float(np.sum(vp[mask] * np.log(vp[mask] / vq[mask])))
