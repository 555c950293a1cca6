"""Channel zoo, Kraus/Stinespring round trips, POVMs, Born statistics."""

import numpy as np
import pytest

from qmi.channels import (
    KrausChannel,
    Povm,
    StinespringIsometry,
    amplitude_damping_channel,
    apply,
    apply_matrix,
    born_probabilities,
    choi_matrix,
    classical_channel,
    compose,
    cq_channel,
    depolarizing_channel,
    identity_channel,
    kraus_to_stinespring,
    make_channel,
    measurement_channel,
    phase_damping_channel,
    projective_povm,
    stinespring_apply,
    stinespring_to_kraus,
    unitary_channel,
)
from qmi.operators import DensityOperator, maximally_mixed, pure_state
from qmi.sampling import random_density, random_kraus_channel, random_povm, random_unitary, rng_from


def test_kraus_completeness_is_enforced():
    with pytest.raises(ValueError):
        KrausChannel((np.eye(2) * 0.5,))


@pytest.mark.parametrize(
    "build, name",
    [
        (lambda: KrausChannel((np.diag([1.0, np.nan]),)), "Kraus operator"),
        (lambda: Povm((np.diag([np.nan, 0.0]), np.diag([0.0, 1.0]))), "effect"),
        (lambda: StinespringIsometry(np.diag([1.0, np.nan]), out_dim=2), "isometry"),
    ],
    ids=["kraus", "povm", "stinespring"],
)
def test_non_finite_entries_are_rejected(build, name):
    with pytest.raises(ValueError, match=f"non-finite entry in {name}"):
        build()


def test_channels_preserve_trace_and_positivity():
    rng = rng_from(31)
    for _ in range(30):
        ch = random_kraus_channel(3, 3, 3, rng)
        out = apply_matrix(ch, random_density(3, rng).matrix)
        assert abs(np.trace(out).real - 1.0) < 1e-10
        assert np.min(np.linalg.eigvalsh((out + out.conj().T) / 2)) > -1e-10


def test_choi_matrix_of_identity():
    choi = choi_matrix(identity_channel(2))
    vec = np.zeros(4)
    vec[0], vec[3] = 1.0, 1.0
    np.testing.assert_allclose(choi, np.outer(vec, vec), atol=1e-12)


def test_choi_matrix_sums_the_operator_outer_products():
    rng = rng_from(34)
    ch = random_kraus_channel(3, 2, 4, rng)
    vecs = [k.T.reshape(-1) for k in ch.ops]  # |i> (x) K|i> over the input basis
    np.testing.assert_allclose(choi_matrix(ch), sum(np.outer(v, v.conj()) for v in vecs), atol=1e-14)
    blocks = choi_matrix(ch).reshape(3, 2, 3, 2)
    np.testing.assert_allclose(np.einsum("iojo->ij", blocks), np.eye(3), atol=1e-12)


def test_stinespring_round_trip():
    rng = rng_from(32)
    ch = random_kraus_channel(2, 2, 3, rng)
    st = kraus_to_stinespring(ch)
    rho = random_density(2, rng)
    np.testing.assert_allclose(stinespring_apply(st, rho).matrix, apply(ch, rho).matrix, atol=1e-10)
    back = stinespring_to_kraus(st)
    np.testing.assert_allclose(apply_matrix(back, rho.matrix), apply_matrix(ch, rho.matrix), atol=1e-10)


def test_composition_acts_in_order():
    rng = rng_from(33)
    u = random_unitary(2, rng)
    first = unitary_channel(u)
    second = amplitude_damping_channel(0.3)
    rho = random_density(2, rng).matrix
    np.testing.assert_allclose(
        apply_matrix(compose(second, first), rho),
        apply_matrix(second, u @ rho @ u.conj().T),
        atol=1e-12,
    )


def test_depolarizing_mixes_toward_flat():
    rng = rng_from(34)
    rho = random_density(3, rng).matrix
    for p in (0.0, 0.4, 1.0):
        got = apply_matrix(depolarizing_channel(p, 3), rho)
        want = (1 - p) * rho + p * np.eye(3) / 3
        np.testing.assert_allclose(got, want, atol=1e-10)


def test_amplitude_damping_decays_excited_state():
    excited = pure_state([0.0, 1.0]).matrix
    out = apply_matrix(amplitude_damping_channel(0.25), excited)
    np.testing.assert_allclose(np.diag(out).real, [0.25, 0.75], atol=1e-12)


def test_phase_damping_kills_coherences():
    rho = np.array([[0.5, 0.5], [0.5, 0.5]])
    out = apply_matrix(phase_damping_channel(1.0), rho)
    np.testing.assert_allclose(out, np.diag([0.5, 0.5]), atol=1e-10)


def test_classical_channel_acts_on_diagonals():
    t = np.array([[0.9, 0.2], [0.1, 0.8]])  # column stochastic
    rho = np.diag([0.6, 0.4])
    out = apply_matrix(classical_channel(t), rho)
    np.testing.assert_allclose(np.diag(out).real, t @ np.array([0.6, 0.4]), atol=1e-12)
    np.testing.assert_allclose(out, np.diag(np.diag(out)), atol=1e-12)
    with pytest.raises(ValueError):
        classical_channel(np.array([[0.9, 0.3], [0.3, 0.8]]))


def test_cq_channel_replaces_by_basis_outputs():
    sigmas = [np.diag([1.0, 0.0]), np.eye(2) / 2]
    ch = cq_channel(sigmas)
    out = apply_matrix(ch, np.diag([0.3, 0.7]))
    np.testing.assert_allclose(out, 0.3 * sigmas[0] + 0.7 * sigmas[1], atol=1e-10)


def test_measurement_channel_dephases_in_povm_eigenframe():
    ch = measurement_channel(projective_povm(2))
    rho = np.array([[0.5, 0.4], [0.4, 0.5]])
    np.testing.assert_allclose(apply_matrix(ch, rho), np.diag([0.5, 0.5]), atol=1e-12)


def test_povm_validation_and_born_rule():
    rng = rng_from(35)
    with pytest.raises(ValueError):
        Povm((np.eye(2) * 0.5,))  # does not sum to identity
    for _ in range(20):
        povm = random_povm(3, 4, rng)
        p = born_probabilities(povm, random_density(3, rng))
        assert abs(float(np.sum(p)) - 1.0) < 1e-10
        assert np.min(p) >= 0.0


def test_projective_povm_born_rule_reads_diagonal():
    rho = DensityOperator(np.diag([0.2, 0.3, 0.5]))
    np.testing.assert_allclose(born_probabilities(projective_povm(3), rho), [0.2, 0.3, 0.5], atol=1e-12)


def test_make_channel_dispatch():
    rng = rng_from(36)
    rho = random_density(2, rng).matrix
    same = make_channel("depolarizing", p=0.3, dim=2)
    np.testing.assert_allclose(
        apply_matrix(same, rho), apply_matrix(depolarizing_channel(0.3, 2), rho), atol=1e-12
    )
    with pytest.raises(ValueError):
        make_channel("unknown")


def test_identity_channel_fixes_everything():
    rng = rng_from(37)
    rho = random_density(4, rng).matrix
    np.testing.assert_allclose(apply_matrix(identity_channel(4), rho), rho, atol=1e-14)


def _apply_loop(ch, m):
    out = np.zeros(m.shape[:-2] + (ch.out_dim, ch.out_dim), dtype=complex)
    for k in ch.ops:
        out += k @ m @ k.conj().T
    return out


def test_stacked_apply_matrix_equals_the_operator_loop():
    # A channel is wide when T, (in out)^2 entries, is below 256 r (in + out).
    # The Kraus side keeps the loop's arithmetic; the transfer-matrix side
    # rounds differently, by a few ulps of entries of order r d^2.
    rng = rng_from(41)
    channels = [
        (random_kraus_channel(3, 5, 2, rng), True),
        (random_kraus_channel(4, 2, 3, rng), True),
        (random_kraus_channel(3, 1, 12, rng), True),
        (depolarizing_channel(0.3, 8), True),
        (random_kraus_channel(16, 16, 9, rng), True),
        (random_kraus_channel(16, 16, 8, rng), False),  # at the crossover: 256^2 = 256 * 8 * 32
        (random_kraus_channel(8, 8, 1, rng), False),  # at the crossover: 64^2 = 256 * 1 * 16
        (random_kraus_channel(16, 16, 2, rng), False),
        (random_kraus_channel(24, 12, 3, rng), False),
    ]
    for ch, wide in channels:
        assert ch.wide == wide
        d = ch.in_dim
        for lead in [(), (3,), (2, 4)]:
            m = rng.normal(size=lead + (d, d)) + 1j * rng.normal(size=lead + (d, d))
            got = apply_matrix(ch, m)
            assert got.shape == lead + (ch.out_dim, ch.out_dim)
            if wide:
                assert np.max(np.abs(got - _apply_loop(ch, m))) <= 1e-13
            else:
                assert np.array_equal(got, _apply_loop(ch, m))
            # Each matrix of a stack is applied alone, bit for bit.
            alone = np.array([apply_matrix(ch, x) for x in m.reshape(-1, d, d)])
            assert np.array_equal(got.reshape(alone.shape), alone)
        assert ("transfer" in vars(ch)) == wide  # built on first use, by the wide side only


def test_the_transfer_matrix_is_read_only_and_vectorizes_the_channel():
    rng = rng_from(43)
    ch = random_kraus_channel(3, 2, 4, rng)
    assert "transfer" not in vars(ch)
    t = ch.transfer
    assert t is ch.transfer and t.shape == (4, 9)
    with pytest.raises(ValueError):
        t[0, 0] = 1.0
    m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    assert np.max(np.abs(t @ m.reshape(-1) - _apply_loop(ch, m).reshape(-1))) <= 1e-14


def test_kraus_stack_is_read_only_and_holds_the_operators():
    rng = rng_from(42)
    given = list(random_kraus_channel(3, 2, 4, rng).ops)
    ch = KrausChannel(tuple(np.array(k) for k in given))
    assert ch.stack.shape == (4, 2, 3)
    with pytest.raises(ValueError):
        ch.stack[0, 0, 0] = 1.0
    for i, op in enumerate(ch.ops):
        assert np.shares_memory(op, ch.stack)
        assert np.array_equal(op, given[i])
        with pytest.raises(ValueError):
            op[0, 0] = 1.0
