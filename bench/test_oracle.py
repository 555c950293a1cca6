"""Self-tests of the benchmark oracles.

Each closed form in `oracle` is compared with a direct computation: a
compound state built by hand, a Shannon maximum found on a grid, random
ensembles that must not beat a capacity. Run from the repository root:

    python3 -m pytest -q bench/test_oracle.py
"""

import ast
import math
from pathlib import Path

import numpy as np
import pytest

import oracle


def _unitary(rng, d):
    q, r = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def _state(rng, d):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = a @ a.conj().T
    return m / np.trace(m).real


def _kraus(rng, d, n):
    q, _ = np.linalg.qr(rng.normal(size=(n * d, d)) + 1j * rng.normal(size=(n * d, d)))
    return [q[i * d : (i + 1) * d] for i in range(n)]


def _depolarizing(p, d):
    # (1-p) rho + p I/d as the uniform twirl: the d^2 matrix units E_ij / sqrt(d).
    ops = [math.sqrt(1 - p) * np.eye(d)]
    for i in range(d):
        for j in range(d):
            unit = np.zeros((d, d))
            unit[i, j] = math.sqrt(p / d)
            ops.append(unit)
    return ops


def _shannon_mutual(px, t):
    """I(X;Y) for input px and column-stochastic t[y, x]."""
    py = t @ px
    return oracle.shannon(py) - sum(px[x] * oracle.shannon(t[:, x]) for x in range(px.size))


def test_oracle_imports_nothing_but_numpy():
    tree = ast.parse((Path(__file__).parent / "oracle.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module.split(".")[0])
    assert imported <= {"__future__", "math", "numpy"}


def test_entropy_of_known_spectra():
    rng = np.random.default_rng(1)
    assert oracle.entropy(np.eye(4) / 4) == pytest.approx(math.log(4), abs=1e-14)
    v = _unitary(rng, 3)[:, 0]
    assert abs(oracle.entropy(np.outer(v, v.conj()))) < 1e-12
    u = _unitary(rng, 2)
    rho = u @ np.diag([0.7, 0.3]) @ u.conj().T
    assert oracle.entropy(rho) == pytest.approx(-0.7 * math.log(0.7) - 0.3 * math.log(0.3), abs=1e-13)


def test_relative_entropy_reduces_to_kl_on_commuting_states():
    p, q = np.array([0.5, 0.3, 0.2]), np.array([0.2, 0.2, 0.6])
    u = _unitary(np.random.default_rng(2), 3)
    rho, sigma = (u @ np.diag(x) @ u.conj().T for x in (p, q))
    assert oracle.relative_entropy(rho, sigma) == pytest.approx(float(np.sum(p * np.log(p / q))), abs=1e-12)
    assert abs(oracle.relative_entropy(sigma, sigma)) < 1e-12


def test_mutual_nondegenerate_equals_mutual_information_of_the_compound_state():
    rng = np.random.default_rng(3)
    for d in (2, 3, 4):
        rho, ops = _state(rng, d), _kraus(rng, d, 2)
        w, v = np.linalg.eigh(rho)
        theta = sum(
            w[k] * np.kron(np.outer(v[:, k], v[:, k].conj()),
                           oracle.apply_kraus(ops, np.outer(v[:, k], v[:, k].conj())))
            for k in range(d)
        )
        assert oracle.mutual_nondegenerate(rho, ops) == pytest.approx(
            oracle.bipartite_mutual_information(theta, (d, d)), abs=1e-12)


@pytest.mark.parametrize("d", [2, 3, 5])
def test_depolarizing_mixed_value_is_the_holevo_quantity_of_a_basis(d):
    p = 0.37
    basis = [np.diag(np.eye(d)[k]).astype(complex) for k in range(d)]
    direct = oracle.holevo(np.full(d, 1 / d), basis, _depolarizing(p, d))
    assert oracle.depolarizing_mixed_value(p, d) == pytest.approx(direct, abs=1e-12)
    if d == 2:
        assert oracle.qubit_depolarizing_capacity(p) == pytest.approx(direct, abs=1e-12)


def test_symmetric_channel_capacities_are_shannon_maxima():
    eps = 0.11
    t2 = np.array([[1 - eps, eps], [eps, 1 - eps]])
    grid = max(_shannon_mutual(np.array([x, 1 - x]), t2) for x in np.linspace(0, 1, 2001))
    assert oracle.bsc_capacity(eps) == pytest.approx(grid, abs=1e-12)
    assert oracle.symmetric_channel_capacity(eps, 2) == pytest.approx(oracle.bsc_capacity(eps), abs=1e-15)
    t3 = np.full((3, 3), eps / 2) + np.eye(3) * (1 - 1.5 * eps)
    uniform = _shannon_mutual(np.full(3, 1 / 3), t3)
    assert oracle.symmetric_channel_capacity(eps, 3) == pytest.approx(uniform, abs=1e-12)
    rng = np.random.default_rng(4)
    assert all(_shannon_mutual(rng.dirichlet(np.ones(3)), t3) <= uniform + 1e-12 for _ in range(200))


@pytest.mark.parametrize("q", [0.1, 0.3, 0.6])
def test_z_channel_capacity_is_the_shannon_maximum(q):
    t = np.array([[1.0, q], [0.0, 1 - q]])
    grid = max(_shannon_mutual(np.array([1 - x, x]), t) for x in np.linspace(0, 1, 20001))
    assert oracle.z_channel_capacity(q) == pytest.approx(grid, abs=1e-8)
    assert oracle.z_channel_capacity(q) >= grid


@pytest.mark.parametrize("gamma", [0.1, 0.3, 0.6])
def test_amplitude_damping_holevo_capacity_bounds_random_ensembles(gamma):
    ops = [np.array([[1, 0], [0, math.sqrt(1 - gamma)]]), np.array([[0, math.sqrt(gamma)], [0, 0]])]
    chi = oracle.amplitude_damping_holevo_capacity(gamma)
    assert chi >= oracle.z_channel_capacity(gamma)
    rng = np.random.default_rng(5)
    for _ in range(300):
        n = int(rng.integers(2, 5))
        states = [np.outer(v, v.conj()) for v in (_unitary(rng, 2)[:, 0] for _ in range(n))]
        assert oracle.holevo(rng.dirichlet(np.ones(n)), states, ops) <= chi + 1e-12
    # The value is attained by the two-state ensemble it describes.
    best = 0.0
    for p in np.linspace(0, 1, 2001):
        pair = [np.array([math.sqrt(1 - p), s * math.sqrt(p)]) for s in (1, -1)]
        best = max(best, oracle.holevo([0.5, 0.5], [np.outer(v, v) for v in pair], ops))
    assert chi == pytest.approx(best, abs=1e-6)


def test_standard_entanglement_value_is_the_mutual_information_of_a_purification():
    rng = np.random.default_rng(6)
    for d in (2, 3):
        rho = _state(rng, d)
        w, v = np.linalg.eigh(rho)
        psi = sum(math.sqrt(max(w[k], 0)) * np.kron(v[:, k], v[:, k].conj()) for k in range(d))
        theta = np.outer(psi, psi.conj())
        assert oracle.bipartite_mutual_information(theta, (d, d)) == pytest.approx(
            oracle.standard_entanglement_value(rho), abs=1e-12)
        left, right = oracle.marginals(theta, (d, d))
        assert np.max(np.abs(left - rho)) < 1e-12


def test_product_state_has_no_mutual_information():
    rng = np.random.default_rng(7)
    a, b = _state(rng, 2), _state(rng, 3)
    assert abs(oracle.bipartite_mutual_information(np.kron(a, b), (2, 3))) < 1e-12
