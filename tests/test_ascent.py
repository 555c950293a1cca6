"""The Riemannian Schatten ascent: its gradient, its stopping rules, and
degenerate states that Nelder-Mead over exp(iH) parameters could not climb."""

import time

import numpy as np
import pytest

from qmi import mutual
from qmi.mutual import _MutualEvaluator, mutual_entropy_fixed, ohya_mutual_entropy
from qmi.operators import DensityOperator, SchattenDecomposition
from qmi.sampling import random_kraus_channel, random_unitary, rng_from
from qmi.search import SearchBudget


def _state(spectrum, rng) -> DensityOperator:
    u = random_unitary(len(spectrum), rng)
    w = np.asarray(spectrum, dtype=float)
    return DensityOperator((u * (w / w.sum())) @ u.conj().T)


def _skew_basis(m: int) -> list[np.ndarray]:
    """An orthonormal basis of the m x m skew-Hermitian matrices under Re tr(X^dag Y)."""
    basis = []
    for j in range(m):
        z = np.zeros((m, m), dtype=complex)
        z[j, j] = 1j
        basis.append(z)
    for j in range(m):
        for k in range(j + 1, m):
            real, imag = np.zeros((m, m), dtype=complex), np.zeros((m, m), dtype=complex)
            real[j, k], real[k, j] = 1.0, -1.0
            imag[j, k] = imag[k, j] = 1j
            basis += [real / np.sqrt(2.0), imag / np.sqrt(2.0)]
    return basis


def _expm_skew(z: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(1j * z)
    return (v * np.exp(-1j * w)) @ v.conj().T


def _turned(vectors, blocks, rotations):
    vectors = vectors.copy()
    for s, u in zip(blocks, rotations):
        vectors[:, s] = vectors[:, s] @ u
    return vectors


# (label, spectrum, in, out, Kraus operators): both gradient sides, a
# non-square channel and a rank-deficient state. Qubit and qutrit channels
# are wide, so their out-square side applies the adjoint through the
# transfer matrix.
GRADIENT_CASES = [
    ("qubit out-square", (1, 1), 2, 2, 2),
    ("qubit three operators", (1, 1), 2, 2, 3),
    ("qubit Gram", (1, 1), 2, 3, 2),
    ("qutrit Gram", (2, 2, 1), 3, 3, 2),
    ("qutrit out-square", (2, 2, 1), 3, 3, 3),
    ("qutrit 3 -> 4", (2, 2, 1), 3, 4, 2),
    ("qutrit rank-deficient", (1, 1, 0), 3, 3, 3),
    ("qutrit rank-deficient Gram", (1, 1, 0), 3, 5, 2),
    ("two blocks", (2, 2, 1, 1), 4, 4, 3),
]


@pytest.mark.parametrize("label, spectrum, d_in, d_out, n_ops", GRADIENT_CASES, ids=[c[0] for c in GRADIENT_CASES])
def test_the_riemannian_gradient_matches_central_differences(label, spectrum, d_in, d_out, n_ops):
    # At a random point V_b of each block, the derivative of the value along
    # V_b exp(h Z) is Re tr(Z^dag A_b): compare every basis direction Z of the
    # block's Lie algebra with a central difference of mutual_entropy_fixed.
    rng = rng_from(900 + len(label))
    rho = _state(spectrum, rng)
    ch = random_kraus_channel(d_in, d_out, n_ops, rng)
    ev = _MutualEvaluator(rho.matrix, ch)
    assert ev.gram == (n_ops < d_out)
    owners = np.zeros(1, dtype=int)
    start = [random_unitary(s.stop - s.start, rng) for s in ev.blocks]
    parts = ev.rotated(ev.parts[owners], [u[None] for u in start])
    _, eigen, _ = ev.evaluate(parts, owners)
    generators = [a[0] for a in ev.generators(parts, eigen, owners)]
    vectors = _turned(ev.vectors[0], ev.blocks, start)
    h = 1e-5

    def value(b, z):
        turned = [np.eye(s.stop - s.start) for s in ev.blocks]
        turned[b] = _expm_skew(z)
        dec = SchattenDecomposition(weights=ev.weights[0], vectors=_turned(vectors, ev.blocks, turned))
        return mutual_entropy_fixed(rho, ch, dec).value

    analytic, numeric = [], []
    for b, (s, a) in enumerate(zip(ev.blocks, generators)):
        assert np.array_equal(a, -a.conj().T)  # skew-Hermitian
        for z in _skew_basis(s.stop - s.start):
            analytic.append(float(np.real(np.trace(z.conj().T @ a))))
            numeric.append((value(b, h * z) - value(b, -h * z)) / (2 * h))
    analytic, numeric = np.array(analytic), np.array(numeric)
    assert np.linalg.norm(analytic) > 1e-3
    assert np.linalg.norm(numeric - analytic) <= 1e-6 * np.linalg.norm(analytic)


def test_the_image_side_gradient_matches_central_differences():
    # r >= out on a channel that is not wide (d = 24): the out-square outputs
    # of the Kraus images. Three random directions per block keep it short.
    rng = rng_from(918)
    rho = _state((2,) * 12 + (1,) * 12, rng)
    ch = random_kraus_channel(24, 24, 24, rng)
    ev = _MutualEvaluator(rho.matrix, ch)
    assert not ev.gram and ev.image_shape is not None
    owners = np.zeros(1, dtype=int)
    parts = ev.parts[owners]
    _, eigen, _ = ev.evaluate(parts, owners)
    generators = [a[0] for a in ev.generators(parts, eigen, owners)]
    h = 1e-5
    for b, (s, a) in enumerate(zip(ev.blocks, generators)):
        for _ in range(3):
            x = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
            z = (x - x.conj().T) / 2
            turned = [[np.eye(12), np.eye(12)] for _ in range(2)]
            turned[0][b], turned[1][b] = _expm_skew(h * z), _expm_skew(-h * z)
            plus, minus = (
                mutual_entropy_fixed(rho, ch, SchattenDecomposition(ev.weights[0], _turned(ev.vectors[0], ev.blocks, t)))
                .value for t in turned)
            want = float(np.real(np.trace(z.conj().T @ a)))
            assert abs((plus - minus) / (2 * h) - want) <= 1e-6 * np.linalg.norm(a) * np.linalg.norm(z)


def test_restarts_stop_by_their_own_tests():
    # Per state: evals counts the rows of its restarts, each at most
    # max_evals; a tol of 0 leaves only the row cap, and a large tol stops
    # each restart at its start, on the first-order test.
    rng = rng_from(920)
    rho = _state((2, 2, 1), rng)
    ch = random_kraus_channel(3, 3, 2, rng)
    ev = _MutualEvaluator(rho.matrix, ch)
    capped = mutual._schatten_ascent(ev, SearchBudget(3, 21, seed=4, tol=0.0))[0]
    assert (capped.evals, capped.converged) == (3 * 21, False)
    loose = mutual._schatten_ascent(ev, SearchBudget(3, 21, seed=4, tol=10.0))[0]
    assert (loose.evals, loose.converged) == (3, True)  # every start's gradient norm is below 10
    default = mutual._schatten_ascent(ev, SearchBudget(3, 400, seed=4))[0]
    assert default.converged and default.evals < 3 * 400
    # Neither stop lowers the value below the start: the canonical decomposition.
    canonical = ev.evaluate(ev.parts, np.zeros(1, dtype=int))[0][0]
    assert min(capped.value, loose.value, default.value) >= canonical


def test_a_restart_stops_on_its_first_small_gain():
    # One restart, observed: its start row, then one batch of trial steps per
    # round. A round keeps its best trial when it raises the value; every kept
    # gain before the last exceeds tol, and the last is at most tol while the
    # gradient there is still above it, so the gain test ended the search.
    rng = rng_from(922)
    rho = _state((2, 2, 1), rng)
    ch = random_kraus_channel(3, 3, 2, rng)
    ev = _MutualEvaluator(rho.matrix, ch)
    budget = SearchBudget(1, 400, seed=4, tol=1e-4)
    batches = []
    (result,) = mutual._schatten_ascent(ev, budget, lambda owners, vectors, outputs, values:
                                        batches.append((vectors.copy(), values.copy())))
    assert [len(v) for _, v in batches[:1]] == [1] and all(1 <= len(v) <= 4 for _, v in batches[1:])
    assert result.converged and result.evals == sum(len(v) for _, v in batches) < 400
    current, vectors, gains = batches[0][1][0], batches[0][0][0], []
    for trial_vectors, values in batches[1:]:
        j = int(np.argmax(values))
        if values[j] > current:
            gains.append(values[j] - current)
            current, vectors = values[j], trial_vectors[j]
    assert result.value == current and np.array_equal(result.params, vectors)
    assert gains and all(g > budget.tol for g in gains[:-1]) and gains[-1] <= budget.tol
    (block,) = ev.blocks
    turn = ev.vectors[0][:, block].conj().T @ vectors[:, block]
    parts = ev.rotated(ev.parts[:1], [turn[None]])
    (a,) = ev.generators(parts, ev.evaluate(parts, np.zeros(1, dtype=int))[1], np.zeros(1, dtype=int))
    assert np.linalg.norm(a) > budget.tol


def test_the_ascent_is_reproducible_and_takes_the_restart_seeds():
    rng = rng_from(921)
    rho = _state((2, 2, 1), rng)
    ch = random_kraus_channel(3, 3, 2, rng)
    budget = SearchBudget(4, 40, seed=11)
    first, again = (ohya_mutual_entropy(rho, ch, budget) for _ in range(2))
    assert first.value == again.value
    assert first.decomposition.vectors.tobytes() == again.decomposition.vectors.tobytes()
    # One restart is the canonical start alone; a different seed moves the
    # Haar starts, so the search scores other rows.
    ev = _MutualEvaluator(rho.matrix, ch)
    alone = mutual._schatten_ascent(ev, SearchBudget(1, 40, seed=11))[0]
    other = mutual._schatten_ascent(ev, SearchBudget(4, 40, seed=12))[0]
    assert first.value >= alone.value - 1e-12
    assert other.params.tobytes() != first.decomposition.vectors.tobytes()


def _two_blocks(d: int):
    """diag(2, ..., 2, 1, ..., 1) / norm, two d/2-fold blocks, through
    random_kraus_channel(d, d, 2, default_rng(0))."""
    w = np.repeat([2.0, 1.0], d // 2)
    return DensityOperator(np.diag(w / w.sum()).astype(complex)), random_kraus_channel(d, d, 2, np.random.default_rng(0))


@pytest.mark.parametrize("d, floor", [(8, 1.48), (16, 2.17)])
def test_two_block_states_climb_past_the_old_search(d, floor):
    # Nelder-Mead over the exp(iH) parameters stopped at 1.370221 (d = 8) and
    # 1.966776 (d = 16) on this budget; the ascent reaches 1.481681 and
    # 2.173567.
    rho, ch = _two_blocks(d)
    result = ohya_mutual_entropy(rho, ch, SearchBudget(4, 400))
    assert result.value >= floor
    assert abs(result.value - mutual_entropy_fixed(rho, ch, result.decomposition).value) <= 1e-12


def test_a_degenerate_d32_state_solves_within_five_seconds():
    # Two 16-fold blocks, 512 unitary parameters: 2.858890 in 0.25 s (best of
    # 3) on a 2-core machine with one BLAS thread, where Nelder-Mead over the
    # exp(iH) parameters reached 2.634428 in 0.26 s.
    rho, ch = _two_blocks(32)
    start = time.perf_counter()
    result = ohya_mutual_entropy(rho, ch, SearchBudget(4, 400))
    assert time.perf_counter() - start < 5.0
    assert result.value >= 2.85
    assert result.evals <= 4 * 400
