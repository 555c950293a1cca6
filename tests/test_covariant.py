"""Channels whose pure inputs all give outputs of one entropy.

`KrausChannel.uniform_pure_outputs` certifies, from the Kraus operators
alone, that S(ch(|v><v|)) does not depend on v: one Kraus operator (an
isometry), or the covariant form ch(m) = a U m U^dag + b tr(m) I. Every
Schatten decomposition of a state then has the same mutual entropy, so the
Ohya suprema take the canonical decomposition and search nothing; and the
capacities are read at the flat state, with no family or split search.
"""

import numpy as np
import pytest

from qmi import capacity, mutual
from qmi.capacity import StateFamily, pseudo_capacity, quantum_capacity
from qmi.channels import (
    KrausChannel,
    amplitude_damping_channel,
    apply_matrix,
    classical_channel,
    compose,
    depolarizing_channel,
    identity_channel,
    phase_damping_channel,
    unitary_channel,
)
from qmi.entropy import von_neumann_entropy
from qmi.mutual import mutual_entropy_fixed, ohya_mutual_entropy, pseudo_mutual_entropy
from qmi.operators import DensityOperator, canonical_schatten, pure_state, schatten_family, schatten_param_count
from qmi.sampling import random_density, random_kraus_channel, random_pure, random_unitary, rng_from
from qmi.search import SearchBudget

SMALL = SearchBudget(restarts=2, max_evals=40, seed=3, tol=1e-6)


def _refusing(*args, **kwargs):
    raise AssertionError("refused call")


def _mixed_in(ch: KrausChannel, other: KrausChannel, eps: float) -> KrausChannel:
    """(1 - eps) ch + eps other, by the Kraus operators of both."""
    return KrausChannel(tuple(np.sqrt(1 - eps) * k for k in ch.ops) + tuple(np.sqrt(eps) * k for k in other.ops))


PAULI_X, PAULI_Y, PAULI_Z = np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]), np.diag([1, -1])


def _rank_one_off_a_unitary(eps: float) -> KrausChannel:
    """A qubit channel whose Choi matrix is 0.1 * 1 + 1.6 |u><u| exactly, with u
    the unit vec of diag(1, 1 + eps): eps off sqrt(1/2) times a unitary, so
    trace preserving and unital only within about eps."""
    units = [np.sqrt(0.1) * np.outer(a, b) for a in np.eye(2) for b in np.eye(2)]
    m = np.diag([1.0, 1.0 + eps])
    return KrausChannel((*units, np.sqrt(1.6) * m / np.linalg.norm(m)))


CERTIFIED = {
    **{f"depolarizing p={p} d={d}": (lambda p=p, d=d: depolarizing_channel(p, d))
       for d in range(2, 6) for p in (0.1, 0.5, 1.0)},
    "identity d=3": lambda: identity_channel(3),
    "unitary d=4": lambda: unitary_channel(random_unitary(4, rng_from(800))),
    "isometry 3 -> 5": lambda: random_kraus_channel(3, 5, 1, rng_from(801)),
    # 0.3 (m + X m X + Y m Y) + 0.1 Z m Z = 0.6 tr(m) I - 0.2 Z m Z: a < 0, U = Z.
    "Pauli (.3, .3, .3, .1)": lambda: KrausChannel(tuple(
        np.sqrt(p) * k for p, k in zip((0.3, 0.3, 0.3, 0.1), (np.eye(2), PAULI_X, PAULI_Y, PAULI_Z)))),
    "unitary after depolarizing d=3": lambda: compose(
        unitary_channel(random_unitary(3, rng_from(806))), depolarizing_channel(0.3, 3)),
}

NOT_CERTIFIED = {
    "amplitude damping": lambda: amplitude_damping_channel(0.3),
    "phase damping": lambda: phase_damping_channel(0.3),
    "classical": lambda: classical_channel([[0.9, 0.2], [0.1, 0.8]]),
    # Unital, but not covariant: its Choi matrix is no multiple of 1 plus one rank-one term.
    "symmetric classical": lambda: classical_channel([[0.9, 0.1], [0.1, 0.9]]),
    "random two operators": lambda: random_kraus_channel(3, 3, 2, rng_from(802)),
    "random non-square": lambda: random_kraus_channel(2, 3, 2, rng_from(803)),
    "depolarizing with 1e-6 amplitude damping": lambda: _mixed_in(
        depolarizing_channel(0.3, 2), amplitude_damping_channel(0.3), 1e-6),
    "rank-one term 1e-10 off a unitary": lambda: _rank_one_off_a_unitary(1e-10),
    "depolarizing with 1e-6 phase damping": lambda: _mixed_in(
        depolarizing_channel(0.3, 2), phase_damping_channel(0.3), 1e-6),
}


@pytest.mark.parametrize("name", sorted(CERTIFIED) + sorted(NOT_CERTIFIED))
def test_the_certificate_truth_table(name):
    ch = (CERTIFIED.get(name) or NOT_CERTIFIED[name])()
    assert ch.uniform_pure_outputs is (name in CERTIFIED)


@pytest.mark.parametrize("name", sorted(CERTIFIED))
def test_a_certified_channel_gives_every_pure_input_one_output_entropy(name):
    ch = CERTIFIED[name]()
    rng = rng_from(807)
    entropies = [von_neumann_entropy(apply_matrix(ch, pure_state(random_pure(ch.in_dim, rng)).matrix))
                 for _ in range(10)]
    assert max(entropies) - min(entropies) <= 1e-12


def test_the_certificate_reads_a_transfer_matrix_the_channel_already_builds():
    # Every other shape answers at once, without building T.
    ch = random_kraus_channel(16, 16, 2, rng_from(804))
    assert not ch.wide and not ch.uniform_pure_outputs and "transfer" not in ch.__dict__
    ch = depolarizing_channel(0.3, 3)
    assert ch.wide and ch.uniform_pure_outputs and "transfer" in ch.__dict__


def test_a_non_unital_channel_fails_before_any_eigen_solve(monkeypatch):
    for name in ("eigh", "eigvalsh", "svd"):
        monkeypatch.setattr(np.linalg, name, _refusing)
    ch = amplitude_damping_channel(0.3)
    assert ch.wide and not ch.uniform_pure_outputs


def _degenerate_state(rng, d: int) -> DensityOperator:
    """A random state of dimension d with at least one degenerate block; its
    support may be rank-deficient."""
    while True:
        levels = rng.choice([0.0, 1.0, 2.0, 3.0], size=d)
        if levels.sum() > 0 and len(set(levels[levels > 0])) < np.count_nonzero(levels):
            break
    u = random_unitary(d, rng)
    return DensityOperator((u * (levels / levels.sum())) @ u.conj().T)


def _certified_case(rng):
    """A seeded certified channel on C^d and d."""
    d = int(rng.integers(2, 6))
    kind = rng.integers(4)
    if kind == 0:
        return depolarizing_channel(float(rng.uniform(0.01, 1.0)), d), d
    if kind == 1:
        return identity_channel(d), d
    if kind == 2:
        return unitary_channel(random_unitary(d, rng)), d
    return random_kraus_channel(d, d + int(rng.integers(1, 3)), 1, rng), d


def test_every_rotated_decomposition_has_the_reported_value():
    rng = rng_from(805)
    for _ in range(60):
        ch, d = _certified_case(rng)
        rho = _degenerate_state(rng, d)
        got = ohya_mutual_entropy(rho, ch, SMALL)
        assert (got.evals, got.converged) == (1, True)
        n = schatten_param_count(rho)
        assert n > 0
        for _ in range(3):
            dec = schatten_family(rho, rng.normal(scale=2.0, size=n))
            assert abs(mutual_entropy_fixed(rho, ch, dec).value - got.value) <= 1e-12


def test_a_degenerate_state_through_a_certified_channel_takes_the_unsearched_path(monkeypatch):
    rho = DensityOperator(np.diag([0.4, 0.4, 0.2]))
    ch = depolarizing_channel(0.3, 3)
    ((found, weights),) = mutual._ohya_suprema(ch, rho.matrix[None], SMALL)
    assert (found.evals, found.converged) == (1, True)
    canonical = canonical_schatten(rho)
    assert np.array_equal(found.params, canonical.vectors) and np.array_equal(weights, canonical.weights)
    calls = []
    monkeypatch.setattr(mutual, "_ohya_suprema", lambda *args, **kwargs: calls.append(args))
    got = ohya_mutual_entropy(rho, ch, SMALL)
    assert calls == [] and (got.evals, got.converged) == (1, True)
    assert np.array_equal(got.decomposition.vectors, found.params)


def _inner_sizes(monkeypatch) -> list:
    """The number of degenerate blocks of every Schatten search that
    `_ohya_suprema` starts."""
    sizes = []
    ascent = mutual._schatten_ascent

    def recording(ev, budget, observe=None):
        sizes.append(len(ev.blocks))
        return ascent(ev, budget, observe)

    monkeypatch.setattr(mutual, "_schatten_ascent", recording)
    return sizes


def test_the_capacity_runs_no_inner_search_through_a_depolarizing_channel(monkeypatch):
    sizes = _inner_sizes(monkeypatch)
    report = quantum_capacity(depolarizing_channel(0.2, 3), StateFamily("full", 3), SearchBudget(2, 40))
    assert sizes and set(sizes) == {0}
    assert (report.evals, report.converged) == (1, True)  # nor does the family search


def test_the_pseudo_floors_take_the_canonical_decomposition(monkeypatch):
    ch = depolarizing_channel(0.3, 3)
    rho = DensityOperator(np.diag([0.4, 0.4, 0.2]))
    sizes = _inner_sizes(monkeypatch)
    floor = ohya_mutual_entropy(rho, ch, SMALL.child(0))
    pseudo = pseudo_mutual_entropy(rho, ch, 2, SMALL)
    assert floor.evals == 1 and pseudo.value >= floor.value
    pseudo_capacity(ch, StateFamily("full", 3), 2, SearchBudget(2, 12))
    assert set(sizes) == {0}


# The budgets the capacity benchmark gives a qubit and a qutrit capacity.
CHAIN_BUDGETS = {2: SearchBudget(2, 12, seed=11), 3: SearchBudget(2, 40, seed=11)}


def _families(d: int) -> list:
    return [StateFamily("full", d), StateFamily("rank", d, d - 1), StateFamily("diagonal", d)]


def _flat_value(ch: KrausChannel, flat: np.ndarray) -> float:
    """S(ch(flat)) - S(ch(|0><0|)), the covariant channel's closed form."""
    basis = np.zeros((ch.in_dim, ch.in_dim))
    basis[0, 0] = 1.0
    return von_neumann_entropy(apply_matrix(ch, flat)) - von_neumann_entropy(apply_matrix(ch, basis))


@pytest.mark.parametrize("name", sorted(CERTIFIED))
def test_a_certified_capacity_is_the_flat_state_s_closed_form(name):
    ch = CERTIFIED[name]()
    rng = rng_from(808)
    for family in _families(ch.in_dim):
        report = quantum_capacity(ch, family, SMALL)
        flat = family.state_from_params(family.candidate_starts()[0]).matrix
        assert (report.evals, report.converged) == (1, True)
        assert np.array_equal(report.maximizer["state"], flat)
        assert abs(report.value - _flat_value(ch, flat)) <= 1e-12
        for _ in range(20):
            member = family.state_from_params(rng.normal(size=family.n_params))
            assert ohya_mutual_entropy(member, ch, SMALL).value <= report.value + 1e-12


@pytest.mark.parametrize("name", sorted(k for k, make in CERTIFIED.items() if make().in_dim <= 3))
def test_the_family_search_through_a_certified_channel_finds_no_more(name):
    ch = CERTIFIED[name]()
    budget = CHAIN_BUDGETS[ch.in_dim]
    certified = quantum_capacity(ch, StateFamily("full", ch.in_dim), budget)
    ch.__dict__["uniform_pure_outputs"] = False  # the cached certificate, withdrawn
    searched = quantum_capacity(ch, StateFamily("full", ch.in_dim), budget)
    assert searched.evals > 1
    assert searched.value <= certified.value + 1e-12


@pytest.mark.parametrize("name", sorted(CERTIFIED))
def test_the_pseudo_quantities_of_a_certified_channel_are_their_floors(monkeypatch, name):
    ch = CERTIFIED[name]()
    d = ch.in_dim
    rho = random_density(d, rng_from(809))
    family = StateFamily("full", d)
    budget = SearchBudget(2, 12, seed=13)
    floors = ohya_mutual_entropy(rho, ch, budget.child(0)), quantum_capacity(ch, family, budget)
    monkeypatch.setattr(mutual, "maximize_batch", _refusing)
    monkeypatch.setattr(capacity, "maximize_batch", _refusing)
    pseudo = pseudo_mutual_entropy(rho, ch, 2, budget)
    assert pseudo.value == floors[0].value and (pseudo.evals, pseudo.converged) == (1, True)
    pseudo = pseudo_capacity(ch, family, 2, budget)
    assert pseudo.value == floors[1].value and (pseudo.evals, pseudo.converged) == (1, True)
