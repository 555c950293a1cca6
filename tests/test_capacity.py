"""Capacity searches: state families, cqc chain modes, structural floors."""

import math

import numpy as np
import pytest

from qmi import capacity, mutual
from qmi.capacity import (
    CodingScheme,
    CqcInstance,
    StateFamily,
    cqc_capacity,
    cqc_mutual_entropy,
    pseudo_capacity,
    quantum_capacity,
)
from qmi.channels import (
    amplitude_damping_channel,
    classical_channel,
    depolarizing_channel,
    identity_channel,
    projective_povm,
)
from qmi.entropy import kl_divergence, shannon_entropy
from qmi.mutual import holevo_bound
from qmi.operators import ZERO_TOL, DensityOperator, pure_state
from qmi.sampling import random_kraus_channel, random_povm, random_pure, rng_from
from qmi.search import SearchBudget, maximize_batch, softmax

TINY = SearchBudget(restarts=2, max_evals=40, seed=5, tol=1e-6)

BASIS_CODING = CodingScheme(
    (DensityOperator(np.diag([1.0, 0.0])), DensityOperator(np.diag([0.0, 1.0])))
)


def test_state_family_parameterizations_are_valid_states():
    rng = rng_from(51)
    for family in (StateFamily("full", 2), StateFamily("rank", 3, 2), StateFamily("diagonal", 3)):
        for _ in range(20):
            rho = family.state_from_params(rng.normal(size=family.n_params))
            if rho is None:
                continue
            assert abs(float(np.trace(rho.matrix).real) - 1.0) < 1e-9
        for start in family.candidate_starts():
            assert start.shape == (family.n_params,)
            assert family.state_from_params(start) is not None


def test_diagonal_family_spans_the_simplex():
    family = StateFamily("diagonal", 3)
    rho = family.state_from_params(np.array([2.0, 0.0, -2.0]))
    np.testing.assert_allclose(rho.matrix, np.diag(np.diag(rho.matrix)), atol=1e-12)


def test_cqc_instance_validates_dimensions():
    with pytest.raises(ValueError):
        CqcInstance(
            weights=np.array([0.5, 0.5]),
            coding=BASIS_CODING,
            channel=identity_channel(3),
            decoding=projective_povm(3),
        )
    with pytest.raises(ValueError):
        CqcInstance(
            weights=np.array([0.5, 0.25, 0.25]),
            coding=BASIS_CODING,
            channel=identity_channel(2),
            decoding=projective_povm(2),
        )


def test_cqc_mutual_entropy_routes_agree():
    inst = CqcInstance(
        weights=np.array([0.3, 0.7]),
        coding=BASIS_CODING,
        channel=amplitude_damping_channel(0.2),
        decoding=projective_povm(2),
    )
    got = cqc_mutual_entropy(inst)
    assert got.defect < 1e-8
    assert 0.0 <= got.value <= math.log(2.0)


def test_noiseless_orthogonal_cqc_capacity_is_ln2():
    rep = cqc_capacity(identity_channel(2), projective_povm(2), BASIS_CODING, "weights", TINY)
    assert abs(rep.value - math.log(2.0)) < 1e-9


def test_cqc_modes_are_monotone():
    ch = amplitude_damping_channel(0.3)
    povm = projective_povm(2)
    w = cqc_capacity(ch, povm, BASIS_CODING, "weights", TINY)
    c = cqc_capacity(ch, povm, BASIS_CODING, "coding", TINY)
    f = cqc_capacity(ch, povm, BASIS_CODING, "full", TINY)
    assert w.value <= c.value + 1e-9
    assert c.value <= f.value + 1e-9
    assert f.value <= math.log(2.0) + 2 * TINY.tol


def test_cqc_rejects_unknown_mode():
    with pytest.raises(ValueError):
        cqc_capacity(identity_channel(2), projective_povm(2), BASIS_CODING, "everything", TINY)


def test_identity_capacity_is_log_dim():
    rep = quantum_capacity(identity_channel(2), StateFamily("full", 2), TINY)
    assert abs(rep.value - math.log(2.0)) < 1e-6
    assert rep.maximizer["state"] is not None


def test_depolarizing_capacity_between_zero_and_identity():
    rep = quantum_capacity(depolarizing_channel(0.5, 2), StateFamily("full", 2), TINY)
    assert -1e-9 < rep.value < math.log(2.0)


def test_pseudo_capacity_floors_at_quantum():
    small = SearchBudget(restarts=2, max_evals=12, seed=5, tol=1e-6)
    ch = amplitude_damping_channel(0.3)
    family = StateFamily("full", 2)
    quantum = quantum_capacity(ch, family, small)
    pseudo = pseudo_capacity(ch, family, 2, small)
    assert pseudo.value >= quantum.value - 1e-9
    assert pseudo.notes["quantum_capacity"] <= pseudo.value + 1e-9


def test_pseudo_capacity_rejects_zero_components_before_searching(monkeypatch):
    calls = []
    for module, name in ((capacity, "maximize_batch"), (mutual, "maximize_batch"), (mutual, "_schatten_ascent")):
        monkeypatch.setattr(module, name, lambda *a, **k: calls.append(a))
    with pytest.raises(ValueError, match="need at least one component"):
        pseudo_capacity(amplitude_damping_channel(0.3), StateFamily("full", 2), 0, TINY)
    assert calls == []


def test_capacity_reports_carry_evals():
    rep = quantum_capacity(identity_channel(2), StateFamily("diagonal", 2), TINY)
    assert rep.evals > 0
    assert abs(rep.value - math.log(2.0)) < 1e-6


def _binary_entropy(p):
    p = np.clip(np.asarray(p, dtype=float), 1e-300, 1.0)
    q = np.clip(1.0 - p, 1e-300, 1.0)
    return -(p * np.log(p) + q * np.log(q))


def _amplitude_damping_holevo_capacity(gamma: float) -> float:
    """max_p h((1-gamma) p) - h((1 + r(p)) / 2): two equiprobable pure states with
    excited population p and opposite coherences (Giovannetti-Fazio, PRA 71, 032314)."""
    eta = 1.0 - gamma
    p = np.linspace(0.0, 1.0, 200001)
    r = np.sqrt((1.0 - 2.0 * eta * p) ** 2 + 4.0 * eta * p * (1.0 - p))
    return float(np.max(_binary_entropy(eta * p) - _binary_entropy(np.minimum(1.0, (1.0 + r) / 2.0))))


def _check_ensemble(rep, ch):
    state = rep.maximizer["state"]
    weights, components = rep.maximizer["weights"], rep.maximizer["components"]
    assert abs(float(np.sum(weights)) - 1.0) < 1e-12
    rebuilt = sum(w * c for w, c in zip(weights, components))
    assert np.max(np.abs(rebuilt - state)) < 1e-8
    assert abs(holevo_bound(weights, components, ch) - rep.value) < 1e-9


def test_pseudo_capacity_reaches_the_amplitude_damping_holevo_capacity():
    holevo = _amplitude_damping_holevo_capacity(0.3)
    assert abs(holevo - 0.442456) < 1e-6
    ch = amplitude_damping_channel(0.3)
    budget = SearchBudget(restarts=2, max_evals=480, seed=5)
    rep = pseudo_capacity(ch, StateFamily("full", 2), 2, budget)
    assert holevo - 1e-3 < rep.value <= holevo + 1e-9
    assert rep.value > rep.notes["quantum_capacity"] + 5e-3  # the split search won
    _check_ensemble(rep, ch)


@pytest.mark.parametrize("p", [0.1, 0.3, 0.6])
def test_pseudo_capacity_of_qubit_depolarizing_is_closed_form(p):
    ch = depolarizing_channel(p, 2)
    rep = pseudo_capacity(ch, StateFamily("full", 2), 2, TINY)
    assert abs(rep.value - (math.log(2.0) - float(_binary_entropy(p / 2)))) < 1e-6
    _check_ensemble(rep, ch)


@pytest.mark.parametrize(
    "family, ch",
    [
        (StateFamily("rank", 3, 2), depolarizing_channel(0.2, 3)),
        (StateFamily("rank", 2, 1), amplitude_damping_channel(0.3)),
        (StateFamily("diagonal", 2), amplitude_damping_channel(0.3)),
        (StateFamily("diagonal", 3), random_kraus_channel(3, 2, 2, rng_from(52))),
    ],
)
def test_pseudo_capacity_lies_between_quantum_capacity_and_ln_d(family, ch):
    rep = pseudo_capacity(ch, family, 2, TINY)
    quantum = quantum_capacity(ch, family, TINY)
    assert rep.notes["quantum_capacity"] == quantum.value
    assert -1e-12 <= quantum.value <= rep.value <= math.log(family.dim) + 1e-12
    _check_ensemble(rep, ch)


def _patch_flat_search(monkeypatch, wrapper):
    """Run the flat search, the one search of `mutual._split_search`, through `wrapper`."""
    original = capacity._split_search

    def split_search(*args):
        monkeypatch.setattr(mutual, "maximize_batch", wrapper)
        return original(*args)

    monkeypatch.setattr(capacity, "_split_search", split_search)


def test_pseudo_capacity_reports_the_state_family_search_plus_the_flat_search(monkeypatch):
    counted = []

    def counting(objective_rows, *args, **kwargs):
        counted.append(0)

        def wrapped(points):
            counted[-1] += len(points)
            return objective_rows(points)

        return maximize_batch(wrapped, *args, **kwargs)

    monkeypatch.setattr(capacity, "maximize_batch", counting)
    _patch_flat_search(monkeypatch, counting)
    ch = amplitude_damping_channel(0.3)
    rep = pseudo_capacity(ch, StateFamily("full", 2), 2, TINY)
    assert len(counted) == 2  # the quantum capacity's family search, then the flat search
    assert counted[0] == quantum_capacity(ch, StateFamily("full", 2), TINY).evals
    assert rep.evals == counted[0] + counted[1]


@pytest.mark.parametrize("ch", [amplitude_damping_channel(0.3), depolarizing_channel(0.3, 2)])
def test_flat_pseudo_search_starts_at_the_quantum_maximizer(monkeypatch, ch):
    start_values = []

    def recording(objective_rows, n_params, budget, starts=(), **kwargs):
        start_values.append([objective_rows(s[None])[0] for s in starts])
        return maximize_batch(objective_rows, n_params, budget, starts=starts, **kwargs)

    _patch_flat_search(monkeypatch, recording)
    rep = pseudo_capacity(ch, StateFamily("full", 2), 2, TINY)
    # Two components carry the qubit maximizer's whole Ohya decomposition.
    assert abs(start_values[-1][0] - rep.notes["quantum_capacity"]) < 1e-12


# -- the certified weights solve -------------------------------------------------------


def _basis_capacity(rows, budget=TINY):
    """cqc_capacity's "weights" mode with transition rows W[k, j] = P(j | k):
    basis coding through the classical channel, read out projectively."""
    rows = np.asarray(rows, dtype=float)
    eye = np.eye(len(rows))
    coding = CodingScheme(tuple(DensityOperator(np.diag(e)) for e in eye))
    return cqc_capacity(classical_channel(rows.T), projective_povm(rows.shape[1]), coding, "weights", budget)


def _loop_gap(weights, rows):
    """max_k KL(W_k || qW) - I(q), letter by letter."""
    avg = np.asarray(weights) @ np.asarray(rows, dtype=float)
    kl = [kl_divergence(row, avg) for row in rows]
    return max(kl) - sum(w * d for w, d in zip(weights, kl) if w > 1e-15)


def _z_channel_capacity(gamma):
    return math.log(1.0 + (1.0 - gamma) * gamma ** (gamma / (1.0 - gamma)))


def _symmetric_rows(p, k):
    """Keep the letter with probability 1 - p, else any other one uniformly."""
    return np.full((k, k), p / (k - 1)) + (1.0 - p - p / (k - 1)) * np.eye(k)


@pytest.mark.parametrize(
    "rows, value",
    [
        (_symmetric_rows(0.11, 2), math.log(2.0) - shannon_entropy(np.array([0.89, 0.11]))),
        ([[1.0, 0.0], [0.3, 0.7]], _z_channel_capacity(0.3)),
        ([[1.0, 0.0], [0.75, 0.25]], _z_channel_capacity(0.75)),
        (_symmetric_rows(0.2, 3), math.log(3.0) - shannon_entropy(np.array([0.8, 0.1, 0.1]))),
        (np.eye(4), math.log(4.0)),
        ([[0.3, 0.7]] * 3, 0.0),
    ],
    ids=["bsc", "z-0.3", "z-0.75", "qutrit-symmetric", "identity", "identical-rows"],
)
def test_weights_solve_reaches_the_closed_form(rows, value):
    rep = _basis_capacity(rows)
    assert abs(rep.value - value) <= 1e-9
    assert rep.converged and rep.evals <= 10
    assert rep.notes["gap"] <= TINY.tol
    assert abs(_loop_gap(rep.maximizer["weights"], rows) - rep.notes["gap"]) <= 1e-12


def test_weights_solve_sets_an_unused_letter_to_zero():
    rows = [[0.9, 0.1], [0.5, 0.5], [0.1, 0.9]]
    rep = _basis_capacity(rows)
    assert rep.maximizer["weights"][1] == 0.0
    assert abs(rep.value - (math.log(2.0) - shannon_entropy(np.array([0.9, 0.1])))) <= 1e-9
    assert rep.converged


def test_weights_solve_brings_back_a_letter_of_infinite_divergence(monkeypatch):
    # Only the last letter charges the first outcome. The first Newton step
    # sets it to 0, where D(W_2 || qW) = +inf (the solve reads it at the
    # threshold); it comes back by mixing.
    rows = [[0.0, 1.0, 0.0], [0.0, 0.25, 0.75], [0.2, 0.4, 0.4]]
    letter_kl = capacity._letter_kl
    infinite = []

    def recording(weights, dists):
        kl, avg = letter_kl(weights, dists)
        infinite.append(bool((dists[:, avg <= ZERO_TOL] > ZERO_TOL).any()))
        assert np.isfinite(kl).all()
        return kl, avg

    monkeypatch.setattr(capacity, "_letter_kl", recording)
    rep = _basis_capacity(rows)
    assert any(infinite) and not infinite[-1]
    assert rep.maximizer["weights"][2] > 0.05
    assert rep.converged
    assert _loop_gap(rep.maximizer["weights"], rows) <= TINY.tol


def test_weights_solve_certifies_a_letter_below_the_resolvable_weight():
    # The third letter's best weight is about e^-690: at 0 it alone charges
    # the last outcome. Read at the threshold, its D_k is below I, so the
    # solve is certified at q = (1/2, 1/2, 0) with a finite gap.
    rep = _basis_capacity([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.5, 0.499, 0.001]], SearchBudget(2, 60))
    assert math.isfinite(rep.notes["gap"]) and rep.notes["gap"] <= SearchBudget().tol
    assert rep.converged
    assert abs(rep.value - math.log(2.0)) <= 1e-12
    assert rep.maximizer["weights"][2] == 0.0


def test_weights_solve_falls_back_on_blahut_arimoto(monkeypatch):
    # With a Newton point that never raises I, every step is a Blahut-Arimoto step.
    monkeypatch.setattr(capacity, "_newton_step", lambda q, *rest: q)
    rep = _basis_capacity([[1.0, 0.0], [0.3, 0.7]])
    assert rep.converged and rep.notes["gap"] <= TINY.tol
    assert abs(rep.value - _z_channel_capacity(0.3)) <= 1e-9
    assert rep.evals > 10


def test_weights_solve_stops_at_its_evaluation_cap():
    starved = SearchBudget(restarts=1, max_evals=2, tol=1e-12)
    rep = _basis_capacity([[1.0, 0.0], [0.3, 0.7]], starved)
    assert rep.evals == 2
    assert not rep.converged and rep.notes["gap"] > starved.tol


def test_weights_solve_never_loses_to_the_simplex_search():
    # Random qubit and qutrit cqc chains with 2-3 pure codes, each at a budget
    # of its own; the Nelder-Mead search over softmax weights is the one the
    # weights mode ran before it was solved.
    rng = rng_from(120)
    for trial in range(200):
        dim, size = int(rng.integers(2, 4)), int(rng.integers(2, 4))
        channel = random_kraus_channel(dim, dim, 2, rng)
        decoding = random_povm(dim, int(rng.integers(2, 5)), rng)
        coding = CodingScheme(tuple(pure_state(random_pure(dim, rng)) for _ in range(size)))
        budget = SearchBudget(restarts=2, max_evals=60, seed=trial + 1)
        rep = cqc_capacity(channel, decoding, coding, "weights", budget)
        dists = capacity._CqcEvaluator(channel, np.stack(decoding.effects)).transitions(np.stack([s.matrix for s in coding.states]))
        searched = maximize_batch(lambda p: capacity._cqc_kl(softmax(p), dists), size, budget, starts=[np.zeros(size)])
        assert rep.value >= searched.value - 1e-9, trial
        assert rep.converged and rep.notes["gap"] <= budget.tol, trial
