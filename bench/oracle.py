"""Reference values for the benchmark checks, built with numpy alone.

Nothing here imports `qmi`: every value is computed from raw matrices by
the textbook formula, so a check that compares a `qmi` result against one
of these functions compares two independent implementations. All entropies
are in nats.
"""

from __future__ import annotations

import math

import numpy as np

# Eigenvalues at or below this are treated as exact zeros (0 ln 0 = 0).
ZERO = 1e-14


def shannon(p) -> float:
    """H(p) = -sum p ln p."""
    v = np.asarray(p, dtype=float)
    v = v[v > ZERO]
    return float(-np.sum(v * np.log(v)))


def binary_entropy(p: float) -> float:
    return shannon([p, 1.0 - p])


def entropy(m) -> float:
    """von Neumann entropy from the eigenvalues of the Hermitian part."""
    a = np.asarray(m, dtype=complex)
    return shannon(np.linalg.eigvalsh((a + a.conj().T) / 2))


def relative_entropy(rho, sigma) -> float:
    """tr rho (ln rho - ln sigma) for a full-rank sigma."""
    a = np.asarray(rho, dtype=complex)
    b = np.asarray(sigma, dtype=complex)
    ws, vs = np.linalg.eigh((b + b.conj().T) / 2)
    if np.min(ws) <= ZERO:
        raise ValueError("reference state must have full rank")
    log_sigma = (vs * np.log(ws)) @ vs.conj().T
    return -entropy(a) - float(np.real(np.trace(a @ log_sigma)))


def apply_kraus(ops, m) -> np.ndarray:
    """sum_i K_i m K_i^dag."""
    a = np.asarray(m, dtype=complex)
    return sum(k @ a @ k.conj().T for k in ops)


def holevo(weights, states, ops) -> float:
    """chi = S(sum p_k L(s_k)) - sum p_k S(L(s_k)) for the channel with Kraus ops."""
    outs = [apply_kraus(ops, s) for s in states]
    avg = sum(p * o for p, o in zip(weights, outs))
    return entropy(avg) - sum(p * entropy(o) for p, o in zip(weights, outs))


def mutual_nondegenerate(rho, ops) -> float:
    """S(L rho) - sum_k lambda_k S(L |e_k><e_k|) for a nondegenerate rho.

    A nondegenerate state has a single Schatten decomposition, its
    eigen-decomposition, so the supremum is this one value.
    """
    w, v = np.linalg.eigh(np.asarray(rho, dtype=complex))
    projectors = [np.outer(v[:, k], v[:, k].conj()) for k in range(w.size)]
    return holevo(w, projectors, ops)


def bipartite_mutual_information(theta, dims) -> float:
    """S(A) + S(B) - S(AB) of a state on C^dA (x) C^dB, A first."""
    da, db = dims
    t = np.asarray(theta, dtype=complex).reshape(da, db, da, db)
    left = np.einsum("ikjk->ij", t)
    right = np.einsum("kikj->ij", t)
    return entropy(left) + entropy(right) - entropy(t.reshape(da * db, da * db))


def marginals(theta, dims) -> tuple[np.ndarray, np.ndarray]:
    da, db = dims
    t = np.asarray(theta, dtype=complex).reshape(da, db, da, db)
    return np.einsum("ikjk->ij", t), np.einsum("kikj->ij", t)


def standard_entanglement_value(rho) -> float:
    """Mutual information 2 S(rho) of a purification of rho."""
    return 2.0 * entropy(rho)


def depolarizing_mixed_value(p: float, d: int) -> float:
    """ln d - H(1-p+p/d, p/d, ..., p/d).

    The mutual entropy of I/d through the depolarizing channel with
    parameter p, and the Holevo capacity of that channel.
    """
    return math.log(d) - shannon([1.0 - p + p / d] + [p / d] * (d - 1))


def qubit_depolarizing_capacity(p: float) -> float:
    """ln 2 - h(p/2)."""
    return math.log(2.0) - binary_entropy(p / 2.0)


def symmetric_channel_capacity(eps: float, d: int) -> float:
    """ln d - H(1-eps, eps/(d-1), ...): the d-ary symmetric channel.

    For d = 2 this is the binary symmetric channel, ln 2 - h(eps).
    """
    return math.log(d) - shannon([1.0 - eps] + [eps / (d - 1)] * (d - 1))


def bsc_capacity(eps: float) -> float:
    """ln 2 - h(eps)."""
    return math.log(2.0) - binary_entropy(eps)


def z_channel_capacity(q: float) -> float:
    """Capacity of the Z channel that flips 1 -> 0 with probability q.

    ln(1 + (1-q) q^(q/(1-q))). Amplitude damping with parameter q, coded
    and measured in the computational basis, is this classical channel.
    """
    if q <= 0.0:
        return math.log(2.0)
    if q >= 1.0:
        return 0.0
    return math.log(1.0 + (1.0 - q) * q ** (q / (1.0 - q)))


def _golden_max(f, lo: float, hi: float, tol: float = 1e-12) -> float:
    inv = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c, d = b - inv * (b - a), a + inv * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc < fd:
            a, c, fc = c, d, fd
            d = a + inv * (b - a)
            fd = f(d)
        else:
            b, d, fd = d, c, fc
            c = b - inv * (b - a)
            fc = f(c)
    return max(fc, fd)


def amplitude_damping_holevo_capacity(gamma: float) -> float:
    """Holevo capacity of qubit amplitude damping.

    The optimal ensemble is two equiprobable pure states with excited
    population p and opposite coherence phases (Giovannetti and Fazio,
    Phys. Rev. A 71, 032314, 2005), so chi* = max_p chi(p) with
    chi(p) = h((1-gamma) p) - h((1 + sqrt((1 - 2(1-gamma)p)^2
    + 4(1-gamma) p (1-p))) / 2). A grid locates the maximum over p and a
    golden-section search refines it.
    """
    eta = 1.0 - gamma

    def chi(p: float) -> float:
        r = math.sqrt((1.0 - 2.0 * eta * p) ** 2 + 4.0 * eta * p * (1.0 - p))
        return binary_entropy(eta * p) - binary_entropy(min(1.0, (1.0 + r) / 2.0))

    grid = np.linspace(0.0, 1.0, 2001)
    best = float(grid[int(np.argmax([chi(float(p)) for p in grid]))])
    step = grid[1] - grid[0]
    return _golden_max(chi, max(0.0, best - step), min(1.0, best + step))
