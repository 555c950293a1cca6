"""Entangling operators, the q/d/c hierarchy, and class-constrained values."""

import math

import numpy as np
import pytest

from qmi.channels import identity_channel
from qmi.entanglement import (
    EntanglingOperator,
    class_mutual_and_capacity,
    classify_compound,
    conditional_and_degree,
    d_compound,
    entangled_mutual_entropy,
    entangling_from_state,
    phi,
    phi_star,
    q_entropy_closed_form,
    q_entropy_sup,
    qdc_hierarchy,
    standard_entanglement,
    strong_orthogonality_defect,
    weak_orthogonality_defect,
)
from qmi.entropy import shannon_entropy, von_neumann_entropy
from qmi.mutual import CompoundState
from qmi.operators import DensityOperator, maximally_mixed, partial_trace
from qmi.sampling import random_density, random_hermitian, random_kraus_channel, random_probability, rng_from
from qmi.search import SearchBudget


def _compound(theta, d_g, d_k):
    return CompoundState(
        theta=DensityOperator(theta),
        d_g=d_g,
        d_k=d_k,
        input_marginal=DensityOperator(partial_trace(theta, (d_g, d_k), keep=0)),
        output_marginal=DensityOperator(partial_trace(theta, (d_g, d_k), keep=1)),
    )

TINY = SearchBudget(restarts=2, max_evals=40, seed=3, tol=1e-6)

# 2 S(diag(0.7, 0.3)): the standard entanglement doubles the entropy
TWICE_S_7030 = 1.221728604109787


def test_amplitudes_reconstruct_the_state():
    rng = rng_from(61)
    for _ in range(30):
        theta = random_density(4, rng).matrix
        kappa = entangling_from_state(theta, (2, 2))
        assert np.linalg.norm(kappa.reconstruct() - theta) < 1e-9


def test_weak_orthogonality_in_the_eigenbasis():
    rng = rng_from(62)
    for _ in range(30):
        theta = random_density(6, rng).matrix
        kappa = entangling_from_state(theta, (2, 3))
        assert weak_orthogonality_defect(kappa) < 1e-9
        # the scalar products recover the marginal weights
        np.testing.assert_allclose(np.diag(kappa.gram()).real, kappa.weights, atol=1e-9)


def test_rotated_basis_breaks_weak_orthogonality():
    vec = np.zeros(4)
    vec[0], vec[3] = math.sqrt(0.9), math.sqrt(0.1)
    theta = np.outer(vec, vec)
    had = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
    defect = weak_orthogonality_defect(entangling_from_state(theta, (2, 2), basis=had))
    # (0.9 - 0.1)/2 exactly: the off-diagonal of the rotated marginal
    assert abs(defect - 0.4) < 1e-12


def test_strong_orthogonality_for_sector_compounds():
    rng = rng_from(63)
    for _ in range(30):
        p = random_probability(2, rng)
        omegas = [random_density(2, rng).matrix for _ in range(2)]
        built = d_compound(p, omegas)
        assert strong_orthogonality_defect(built.kappa, p, omegas) < 1e-10
        assert np.linalg.norm(built.kappa.reconstruct() - built.compound.theta.matrix) < 1e-10


def test_lifting_duality():
    rng = rng_from(64)
    for _ in range(20):
        theta = random_density(4, rng).matrix
        kappa = entangling_from_state(theta, (2, 2))
        a = random_hermitian(2, rng)
        b = random_hermitian(2, rng)
        lhs = float(np.real(np.trace(phi(kappa, a) @ b)))
        rhs = float(np.real(np.trace(phi_star(kappa, b) @ a)))
        assert abs(lhs - rhs) < 1e-10


def test_lifting_preserves_identity_and_trace():
    rng = rng_from(65)
    theta = random_density(4, rng).matrix
    kappa = entangling_from_state(theta, (2, 2))
    # phi carries the identity to the gram matrix (trace one)
    np.testing.assert_allclose(phi(kappa, np.eye(2)).trace().real, 1.0, atol=1e-10)


def test_entangling_operator_validates():
    with pytest.raises(ValueError):
        EntanglingOperator(vectors=np.ones((2, 1, 2), dtype=complex), basis=np.eye(2, dtype=complex))


def test_standard_entanglement_doubles_entropy():
    sigma = DensityOperator(np.diag([0.7, 0.3]))
    built = standard_entanglement(sigma)
    got = entangled_mutual_entropy(built)
    assert abs(got - TWICE_S_7030) < 1e-12
    assert built.entanglement_class.tag == "q"
    # both marginals equal sigma
    np.testing.assert_allclose(built.compound.input_marginal.matrix, sigma.matrix, atol=1e-10)
    np.testing.assert_allclose(built.compound.output_marginal.matrix, sigma.matrix, atol=1e-10)


def test_product_states_carry_no_mutual_entropy():
    rng = rng_from(66)
    a = random_density(2, rng)
    b = random_density(2, rng)
    got = entangled_mutual_entropy(_compound(a.tensor(b).matrix, 2, 2))
    assert abs(got) < 1e-9


def test_classification_of_canonical_compounds():
    rng = rng_from(67)
    product = np.kron(np.diag([0.6, 0.4]), random_density(2, rng).matrix)
    assert classify_compound(product, (2, 2)).tag == "c"

    omegas = [np.diag([0.9, 0.1]), np.array([[0.5, 0.25], [0.25, 0.5]])]
    diag = d_compound(np.array([0.5, 0.5]), omegas)
    assert diag.entanglement_class.tag == "d"

    bell = standard_entanglement(maximally_mixed(2))
    assert classify_compound(bell.compound.theta.matrix, (2, 2)).tag == "q"


def test_q_entropy_closed_form_identity():
    rng = rng_from(68)
    for _ in range(10):
        mus = random_probability(2, rng)
        sigmas = [random_density(2, rng).matrix for _ in range(2)]
        got = q_entropy_closed_form(list(zip(mus, sigmas)))
        want = shannon_entropy(mus) + 2 * sum(
            mu * von_neumann_entropy(s) for mu, s in zip(mus, sigmas)
        )
        assert abs(got - want) < 1e-10


def test_q_entropy_sup_recovers_double_entropy():
    sigma = DensityOperator(np.diag([0.7, 0.3]))
    rep = q_entropy_sup(sigma, TINY)
    assert abs(rep.value - TWICE_S_7030) < 1e-3
    assert rep.notes["standard_value"] <= rep.value + 1e-12


def test_degree_of_disentanglement_extremes():
    cond, degree = conditional_and_degree(standard_entanglement(maximally_mixed(2)))
    assert abs(degree + math.log(2.0)) < 1e-12
    assert cond >= -1e-12

    # a product state has degree S(sigma) >= 0
    rng = rng_from(69)
    b = random_density(2, rng)
    theta = np.kron(np.diag([0.5, 0.5]), b.matrix)
    _, product_degree = conditional_and_degree(_compound(theta, 2, 2))
    assert product_degree >= -1e-12


def test_class_values_at_identity_channel():
    rho = DensityOperator(np.diag([0.7, 0.3]))
    s = von_neumann_entropy(rho.matrix)
    levels = qdc_hierarchy(rho, identity_channel(2), TINY)
    assert abs(levels["c"].value - s) < 1e-6
    assert abs(levels["d"].value - s) < 1e-6
    assert abs(levels["q"].value - 2 * s) < 1e-3
    assert levels["c"].value <= levels["d"].value + 1e-9
    assert levels["d"].value <= levels["q"].value + 1e-9


def test_class_orderings_on_random_channels():
    rng = rng_from(70)
    for _ in range(5):
        rho = random_density(2, rng)
        ch = random_kraus_channel(2, 2, 2, rng)
        levels = qdc_hierarchy(rho, ch, TINY)
        if levels["c"].notes.get("feasible", True):
            assert levels["c"].value <= levels["d"].value + 2 * TINY.tol
        assert levels["d"].value <= levels["q"].value + 2 * TINY.tol


def test_single_class_entry_point_matches_hierarchy():
    rho = DensityOperator(np.diag([0.6, 0.4]))
    ch = identity_channel(2)
    alone = class_mutual_and_capacity(rho, ch, "d", TINY)
    together = qdc_hierarchy(rho, ch, TINY)["d"]
    assert abs(alone.value - together.value) < 1e-9


def test_relaxed_output_blocks_never_lose():
    rho = DensityOperator(np.diag([0.6, 0.4]))
    ch = identity_channel(2)
    pinned = class_mutual_and_capacity(rho, ch, "q", TINY, fix_output_blocks=True)
    relaxed = class_mutual_and_capacity(rho, ch, "q", TINY, fix_output_blocks=False)
    assert relaxed.value >= pinned.value - 2 * TINY.tol


def test_rank_deficient_hierarchy_reaches_double_entropy():
    rho = DensityOperator(np.diag([0.7, 0.3, 0.0]))
    levels = qdc_hierarchy(rho, identity_channel(3), TINY)
    assert levels["c"].value <= levels["d"].value + 1e-9
    assert levels["d"].value <= levels["q"].value + 1e-9
    assert abs(levels["q"].value - TWICE_S_7030) < 1e-6


def test_fixed_state_hierarchy_surveys_once(monkeypatch):
    import qmi.entanglement
    import qmi.mutual
    import qmi.search

    calls = []

    def counting(*args, **kwargs):
        calls.append(args[1])
        return qmi.search.maximize(*args, **kwargs)

    for module in (qmi.entanglement, qmi.mutual):  # every module that binds maximize
        monkeypatch.setattr(module, "maximize", counting)
    rho = DensityOperator(np.diag([0.4, 0.4, 0.2]))
    ch = random_kraus_channel(3, 3, 2, rng_from(71))
    levels = qdc_hierarchy(rho, ch, TINY)
    assert len(calls) == 2  # one decomposition survey, one ray search
    for tag, rep in levels.items():
        assert type(rep.value) is float
        assert rep.value == class_mutual_and_capacity(rho, ch, tag, TINY).value
