"""Channels whose pure inputs all give outputs of one entropy.

`KrausChannel.uniform_pure_outputs` certifies, from the Kraus operators
alone, that S(ch(|v><v|)) does not depend on v: one Kraus operator (an
isometry), or the depolarizing form ch(m) = a m + b tr(m) I. Every Schatten
decomposition of a state then has the same mutual entropy, so the Ohya
suprema take the canonical decomposition and search nothing.
"""

import numpy as np
import pytest

from qmi import mutual
from qmi.capacity import StateFamily, pseudo_capacity, quantum_capacity
from qmi.channels import (
    KrausChannel,
    amplitude_damping_channel,
    classical_channel,
    depolarizing_channel,
    identity_channel,
    phase_damping_channel,
    unitary_channel,
)
from qmi.mutual import mutual_entropy_fixed, ohya_mutual_entropy, pseudo_mutual_entropy
from qmi.operators import DensityOperator, canonical_schatten, schatten_family, schatten_param_count
from qmi.sampling import random_kraus_channel, random_unitary, rng_from
from qmi.search import SearchBudget

SMALL = SearchBudget(restarts=2, max_evals=40, seed=3, tol=1e-6)


def _mixed_in(ch: KrausChannel, other: KrausChannel, eps: float) -> KrausChannel:
    """(1 - eps) ch + eps other, by the Kraus operators of both."""
    return KrausChannel(tuple(np.sqrt(1 - eps) * k for k in ch.ops) + tuple(np.sqrt(eps) * k for k in other.ops))


CERTIFIED = {
    **{f"depolarizing p={p} d={d}": (lambda p=p, d=d: depolarizing_channel(p, d))
       for d in range(2, 6) for p in (0.1, 0.5, 1.0)},
    "identity d=3": lambda: identity_channel(3),
    "unitary d=4": lambda: unitary_channel(random_unitary(4, rng_from(800))),
    "isometry 3 -> 5": lambda: random_kraus_channel(3, 5, 1, rng_from(801)),
}

NOT_CERTIFIED = {
    "amplitude damping": lambda: amplitude_damping_channel(0.3),
    "phase damping": lambda: phase_damping_channel(0.3),
    "classical": lambda: classical_channel([[0.9, 0.2], [0.1, 0.8]]),
    "random two operators": lambda: random_kraus_channel(3, 3, 2, rng_from(802)),
    "random non-square": lambda: random_kraus_channel(2, 3, 2, rng_from(803)),
    "depolarizing with 1e-6 amplitude damping": lambda: _mixed_in(
        depolarizing_channel(0.3, 2), amplitude_damping_channel(0.3), 1e-6),
}


@pytest.mark.parametrize("name", sorted(CERTIFIED) + sorted(NOT_CERTIFIED))
def test_the_certificate_truth_table(name):
    ch = (CERTIFIED.get(name) or NOT_CERTIFIED[name])()
    assert ch.uniform_pure_outputs is (name in CERTIFIED)


def test_the_certificate_reads_a_transfer_matrix_the_channel_already_builds():
    # Every other shape answers at once, without building T.
    ch = random_kraus_channel(16, 16, 2, rng_from(804))
    assert not ch.wide and not ch.uniform_pure_outputs and "transfer" not in ch.__dict__
    ch = depolarizing_channel(0.3, 3)
    assert ch.wide and ch.uniform_pure_outputs and "transfer" in ch.__dict__


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
    assert report.evals > 1  # the family search itself still runs


def test_the_pseudo_floors_take_the_canonical_decomposition(monkeypatch):
    ch = depolarizing_channel(0.3, 3)
    rho = DensityOperator(np.diag([0.4, 0.4, 0.2]))
    sizes = _inner_sizes(monkeypatch)
    floor = ohya_mutual_entropy(rho, ch, SMALL.child(0))
    pseudo = pseudo_mutual_entropy(rho, ch, 2, SMALL)
    assert floor.evals == 1 and pseudo.value >= floor.value
    pseudo_capacity(ch, StateFamily("full", 3), 2, SearchBudget(2, 12))
    assert set(sizes) == {0}
