"""Mutual entropy: dual routes, compound states, classical reduction, bounds."""

import math

import numpy as np
import pytest

from qmi.capacity import CodingScheme, CqcInstance, cqc_mutual_entropy
from qmi.channels import classical_channel, depolarizing_channel, identity_channel, projective_povm
from qmi.entropy import shannon_entropy, von_neumann_entropy
from qmi.mutual import (
    classical_mutual_entropy,
    compound_state,
    holevo_bound,
    mutual_entropy_fixed,
    ohya_mutual_entropy,
    pseudo_mutual_entropy,
)
from qmi.operators import DensityOperator, canonical_schatten, maximally_mixed
from qmi.sampling import random_density, random_kraus_channel, random_povm, random_probability, random_pure, rng_from
from qmi.search import SearchBudget

# ln 2 - H(0.1): Shannon value of the 10%-flip binary channel at uniform input
BSC_POINT_ONE = 0.3680642071684971

SMALL = SearchBudget(restarts=4, max_evals=80, seed=99, tol=1e-7)


def test_compound_state_marginals():
    rng = rng_from(41)
    for _ in range(20):
        rho = random_density(2, rng)
        ch = random_kraus_channel(2, 2, 2, rng)
        comp = compound_state(rho, ch, canonical_schatten(rho))
        np.testing.assert_allclose(comp.input_marginal.matrix, rho.matrix, atol=1e-8)
        assert comp.d_g == 2 and comp.d_k == 2


def test_dual_routes_agree():
    rng = rng_from(42)
    worst = 0.0
    for _ in range(50):
        rho = random_density(2, rng)
        ch = random_kraus_channel(2, 2, 2, rng)
        got = mutual_entropy_fixed(rho, ch, canonical_schatten(rho))
        worst = max(worst, got.defect)
    assert worst < 1e-7


def test_identity_channel_recovers_entropy():
    rng = rng_from(43)
    for _ in range(10):
        rho = random_density(3, rng)
        got = ohya_mutual_entropy(rho, identity_channel(3), SMALL)
        assert abs(got.value - von_neumann_entropy(rho.matrix)) < 1e-9
        assert got.converged


def test_degenerate_state_searches_to_entropy():
    rho = DensityOperator(np.diag([0.5, 0.25, 0.25]))
    got = ohya_mutual_entropy(rho, identity_channel(3), SMALL)
    assert abs(got.value - von_neumann_entropy(rho.matrix)) < 1e-5


def test_mutual_entropy_bounds():
    rng = rng_from(44)
    for _ in range(50):
        rho = random_density(2, rng)
        ch = random_kraus_channel(2, 2, 2, rng)
        got = ohya_mutual_entropy(rho, ch, SMALL)
        assert got.value > -1e-12
        assert got.value < von_neumann_entropy(rho.matrix) + 1e-7


def test_classical_reduction_matches_shannon():
    flip = np.array([[0.9, 0.1], [0.1, 0.9]])
    got = classical_mutual_entropy(np.array([0.5, 0.5]), classical_channel(flip))
    assert abs(got.value - BSC_POINT_ONE) < 1e-12
    assert got.defect < 1e-10

    # the full quantum functional collapses to the same number on diagonals
    rho = maximally_mixed(2)
    quantum = ohya_mutual_entropy(rho, classical_channel(flip), SMALL)
    assert abs(quantum.value - BSC_POINT_ONE) < 1e-8


def test_classical_mutual_entropy_rejects_coherent_channels():
    from qmi.channels import unitary_channel

    had = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
    with pytest.raises(ValueError):
        classical_mutual_entropy(np.array([0.3, 0.7]), unitary_channel(had))
    # depolarizing does keep diagonals diagonal: it acts like a symmetric
    # flip with crossover p/2
    got = classical_mutual_entropy(np.array([0.5, 0.5]), depolarizing_channel(0.2, 2))
    want = math.log(2.0) - shannon_entropy(np.array([0.9, 0.1]))
    assert abs(got.value - want) < 1e-10


def test_fully_depolarizing_carries_nothing():
    rng = rng_from(45)
    rho = random_density(2, rng)
    got = ohya_mutual_entropy(rho, depolarizing_channel(1.0, 2), SMALL)
    assert abs(got.value) < 1e-10


def test_pseudo_mutual_never_below_orthogonal():
    rng = rng_from(46)
    tiny = SearchBudget(restarts=2, max_evals=40, seed=7, tol=1e-6)
    for _ in range(5):
        rho = random_density(2, rng)
        ch = random_kraus_channel(2, 2, 2, rng)
        base = ohya_mutual_entropy(rho, ch, tiny)
        pseudo = pseudo_mutual_entropy(rho, ch, 2, tiny)
        assert pseudo.value >= base.value - 1e-9
        assert abs(float(np.sum(pseudo.weights)) - 1.0) < 1e-8


def test_holevo_bound_dominates_decoded_information():
    rng = rng_from(47)
    for _ in range(30):
        weights = random_probability(2, rng)
        coded = [np.outer(v, v.conj()) for v in (random_pure(2, rng) for _ in range(2))]
        ch = random_kraus_channel(2, 2, 2, rng)
        inst = CqcInstance(
            weights=weights,
            coding=CodingScheme(tuple(DensityOperator(c) for c in coded)),
            channel=ch,
            decoding=random_povm(2, 3, rng),
        )
        assert cqc_mutual_entropy(inst).value <= holevo_bound(weights, coded, ch) + 1e-7


def test_holevo_bound_of_orthogonal_pure_states():
    weights = np.array([0.5, 0.5])
    coded = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
    assert abs(holevo_bound(weights, coded, identity_channel(2)) - math.log(2.0)) < 1e-12


def test_cqc_chain_with_projective_readout_is_shannon():
    # orthogonal coding + projective decoding through the identity is a
    # noiseless classical channel
    inst = CqcInstance(
        weights=np.array([0.25, 0.75]),
        coding=CodingScheme((DensityOperator(np.diag([1.0, 0.0])), DensityOperator(np.diag([0.0, 1.0])))),
        channel=identity_channel(2),
        decoding=projective_povm(2),
    )
    got = cqc_mutual_entropy(inst)
    assert abs(got.value - shannon_entropy(np.array([0.25, 0.75]))) < 1e-10


def test_mismatched_dimensions_name_both():
    rho = maximally_mixed(3)
    ch = depolarizing_channel(0.2, 2)
    for call in (
        lambda: ohya_mutual_entropy(rho, ch, SMALL),
        lambda: mutual_entropy_fixed(rho, ch, canonical_schatten(rho)),
        lambda: pseudo_mutual_entropy(rho, ch, 2, SMALL),
    ):
        with pytest.raises(ValueError, match="state dimension 3 .* channel input dimension 2"):
            call()


def test_budgets_need_a_search():
    with pytest.raises(ValueError, match="restarts"):
        SearchBudget(restarts=0)
    with pytest.raises(ValueError, match="max_evals"):
        SearchBudget(max_evals=0)
