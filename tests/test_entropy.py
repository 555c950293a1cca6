"""Entropy functionals: closed forms, support handling, dual product form."""

import math

import numpy as np
import pytest

from qmi.entropy import (
    _entropy_rows,
    kl_divergence,
    product_relative_entropy,
    shannon_entropy,
    umegaki_relative_entropy,
    von_neumann_entropy,
)
from qmi.operators import hermitian_part, maximally_mixed, pure_state
from qmi.sampling import random_density, random_pure, random_unitary, rng_from

# S(diag(0.9, 0.1)) evaluated independently: -(0.9 ln 0.9 + 0.1 ln 0.1)
ENTROPY_9010 = 0.3250829733914482


def test_maximally_mixed_entropy_is_log_dim():
    for d in range(2, 7):
        assert abs(von_neumann_entropy(maximally_mixed(d).matrix) - math.log(d)) < 1e-12


def test_pure_states_have_zero_entropy():
    rng = rng_from(21)
    for _ in range(50):
        v = random_pure(4, rng)
        assert abs(von_neumann_entropy(np.outer(v, v.conj()))) < 1e-12


def test_frozen_two_level_value():
    assert abs(von_neumann_entropy(np.diag([0.9, 0.1])) - ENTROPY_9010) < 1e-12


def test_entropy_is_basis_independent():
    rng = rng_from(22)
    from qmi.sampling import random_unitary

    rho = random_density(3, rng).matrix
    u = random_unitary(3, rng)
    assert abs(von_neumann_entropy(rho) - von_neumann_entropy(u @ rho @ u.conj().T)) < 1e-10


def test_relative_entropy_of_state_with_itself_is_zero():
    rng = rng_from(23)
    for _ in range(20):
        rho = random_density(3, rng).matrix
        assert abs(umegaki_relative_entropy(rho, rho)) < 1e-12


def test_relative_entropy_is_nonnegative():
    rng = rng_from(24)
    for _ in range(50):
        rho = random_density(3, rng).matrix
        sigma = random_density(3, rng).matrix
        assert umegaki_relative_entropy(rho, sigma) > -1e-10


def test_support_violation_is_infinite():
    ground = pure_state([1.0, 0.0]).matrix
    excited = pure_state([0.0, 1.0]).matrix
    assert math.isinf(umegaki_relative_entropy(ground, excited))
    # mass outside a rank-deficient reference is also flagged
    assert math.isinf(umegaki_relative_entropy(maximally_mixed(2).matrix, ground))


def test_nested_supports_stay_finite():
    inside = np.diag([1.0, 0.0])
    around = np.diag([0.5, 0.5])
    got = umegaki_relative_entropy(inside, around)
    assert abs(got - math.log(2.0)) < 1e-12


def test_product_form_matches_direct_relative_entropy():
    rng = rng_from(25)
    for _ in range(50):
        theta = random_density(4, rng).matrix
        left = random_density(2, rng).matrix
        right = random_density(2, rng).matrix
        direct = umegaki_relative_entropy(theta, np.kron(left, right))
        split = product_relative_entropy(theta, left, right)
        assert abs(direct - split) < 1e-8


def test_product_form_survives_tiny_marginal_eigenvalues():
    # a product of small eigenvalues drops below the kernel cutoff in the
    # joint reference; the split form must still classify correctly
    eps = 6.25e-8
    left = np.diag([1.0 - eps, eps])
    right = np.diag([1.0 - eps, eps])
    theta = np.kron(left, right)
    got = product_relative_entropy(theta, left, right)
    assert abs(got) < 1e-9


def test_shannon_and_kl_reduce_from_matrix_forms():
    p = np.array([0.6, 0.3, 0.1])
    q = np.array([0.2, 0.5, 0.3])
    assert abs(shannon_entropy(p) - von_neumann_entropy(np.diag(p))) < 1e-12
    assert abs(kl_divergence(p, q) - umegaki_relative_entropy(np.diag(p), np.diag(q))) < 1e-12
    assert math.isinf(kl_divergence(np.array([1.0, 0.0]), np.array([0.0, 1.0])))


def test_shannon_entropy_bounds():
    rng = rng_from(26)
    from qmi.sampling import random_probability

    for _ in range(20):
        p = random_probability(4, rng)
        h = shannon_entropy(p)
        assert -1e-12 < h < math.log(4) + 1e-12


def _umegaki_direct(a, b):
    """tr a ln a - tr a ln b for one pair, each factor diagonalized on its own."""
    ws, vs = np.linalg.eigh(hermitian_part(b))
    kernel = ws <= 1e-12
    vk = vs[:, kernel]
    if np.any(kernel) and float(np.real(np.einsum("ij,jk,ki->", vk.conj().T, a, vk))) > 1e-9:
        return math.inf
    tr_a_log_a = -von_neumann_entropy(a)
    vsup = vs[:, ~kernel]
    log_b = (vsup * np.log(ws[~kernel])) @ vsup.conj().T
    return tr_a_log_a - float(np.real(np.trace(a @ log_b)))


def test_relative_entropy_equals_the_direct_formula_bit_for_bit():
    rng = rng_from(26)
    for case in range(120):
        d = int(rng.integers(2, 10))
        rank = d if case % 2 else int(rng.integers(1, d))
        u = random_unitary(d, rng)[:, :rank]
        a = random_density(d, rng, rank=int(rng.integers(1, d + 1))).matrix
        if case % 3 == 0:
            a = u @ random_density(rank, rng).matrix @ u.conj().T
        b = u @ random_density(rank, rng).matrix @ u.conj().T
        assert umegaki_relative_entropy(a, b) == _umegaki_direct(a, b)


def test_von_neumann_entropy_is_a_row_of_the_stacked_kernel():
    # One kernel takes every spectrum's entropy: a matrix alone scores, bit for
    # bit, what its row of a stacked eigvalsh scores, rank-deficient ones too.
    rng = rng_from(24)
    for d in range(2, 25):
        stack = np.stack([random_density(d, rng, rank=r).matrix for r in sorted({1, max(1, d // 3), d - 1, d})])
        rows = _entropy_rows(np.linalg.eigvalsh(stack))
        for i, m in enumerate(stack):
            got = von_neumann_entropy(m)
            assert type(got) is float and got == rows[i]
