"""`maximize` replays scipy's Nelder-Mead descents point for point.

Each case records every point the objective sees under `maximize` and under
`scipy.optimize.minimize(method="Nelder-Mead")` with the options `maximize`
uses, and asserts that the sequences, the best value and the convergence
flag are identical. The reference's best value is the best finite value its
objective saw, as `maximize` tracked it around scipy: scipy's own `fun` leaves
out a point whose step the evaluation cap cut short. With several restarts,
which run in lockstep, each restart's own points are compared; these
cases skip without scipy. The last cases check the batch protocol of
`maximize_batch` itself and its reductions; they need no scipy.
"""

import math
import tracemalloc

import numpy as np
import pytest

from qmi.search import _REJECTED, SearchBudget, _nelder_mead, maximize, maximize_batch


def _quadratic(x):
    return -float(np.sum(np.array([1.0, 2.0, 3.0]) * (x - np.array([0.3, -1.2, 2.0])) ** 2))


def _rosenbrock(x):
    return -float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1.0 - x[:-1]) ** 2))


def _half_rejected(x):
    # -inf on the half x[0] < 0, which holds the unconstrained optimum.
    if x[0] < 0:
        return -math.inf
    return -float(np.sum(np.abs(x + np.array([0.5, -0.2, 0.1]))))


def _staircase(x):
    # Piecewise constant: contractions fail on the plateaus, so it shrinks.
    return -float(np.sum(np.round(4.0 * x) ** 2))


def _ours(objective, starts, budget):
    seen = []

    def recorded(x):
        seen.append(np.array(x))
        return objective(x)

    result = maximize(recorded, len(starts[0]), budget, starts=starts)
    return seen, result


def _reference(objective, starts, budget):
    optimize = pytest.importorskip("scipy.optimize")
    seen, values, success = [], [-math.inf], False

    def neg(x):
        seen.append(np.array(x))
        v = objective(x)
        if not math.isfinite(v):
            return _REJECTED
        values.append(v)
        return -v

    for x0 in starts:
        res = optimize.minimize(
            neg,
            x0,
            method="Nelder-Mead",
            options={
                "maxfev": budget.max_evals,
                "xatol": 1e-8,
                "fatol": max(budget.tol * 0.1, 1e-12),
            },
        )
        success = success or bool(res.success)
    return seen, max(values), success


def _assert_replay(objective, starts, max_evals):
    budget = SearchBudget(restarts=1, max_evals=max_evals, seed=5, tol=1e-7)
    starts = [np.asarray(s, dtype=float) for s in starts]
    seen, result = _ours(objective, starts, budget)
    ref_seen, ref_value, ref_success = _reference(objective, starts, budget)
    assert len(seen) == len(ref_seen) == result.evals
    for a, b in zip(seen, ref_seen):
        assert np.array_equal(a, b)
    assert result.value == ref_value
    assert result.converged is ref_success
    return seen, result


def test_quadratic_converges_before_cap():
    seen, result = _assert_replay(_quadratic, [[1.0, 0.0, -1.0]], 2000)
    assert result.converged and len(seen) < 2000


def test_rosenbrock_capped_mid_iteration():
    # The first iteration from this start evaluates points 6 and 7 (a
    # reflection, then an expansion or contraction); a cap of 6 ends it
    # between the two. A cap of 101 ends a later iteration (points 101, 102)
    # part-way.
    for cap in (6, 101):
        seen, result = _assert_replay(_rosenbrock, [[-1.2, 1.0, 0.5, 0.0]], cap)
        assert not result.converged and len(seen) == cap


def test_cap_inside_initial_simplex():
    seen, result = _assert_replay(_rosenbrock, [[-1.2, 1.0, 0.5, 0.0]], 3)
    assert len(seen) == 3 and not result.converged


def test_rejected_half_domain():
    seen, result = _assert_replay(_half_rejected, [[0.4, 0.2, 0.1]], 300)
    assert sum(x[0] < 0 for x in seen) > 0
    assert math.isfinite(result.value)


def test_shrink_and_cap_inside_a_shrink():
    # Iteration 1 from this start evaluates points 5 to 9: reflection,
    # contraction and a 3-point shrink. A cap of 7 stops the shrink after its
    # first point.
    seen, result = _assert_replay(_staircase, [[0.4, 0.2, 0.1]], 400)
    assert result.converged
    _assert_replay(_staircase, [[0.4, 0.2, 0.1]], 7)
    # Far from the plateau at 0, shrinks pull in vertices of opposite sign,
    # where sim[0] + 0.5 * (sim[j] - sim[0]) and 0.5 * (sim[0] + sim[j])
    # round differently, and contractions and expansions tie with the
    # reflection they follow, so each tie rule decides a step.
    for x0 in ([-15.0, 10.0, -8.0], [3.0, -2.0, 1.0]):
        seen, result = _assert_replay(_staircase, [x0], 400)
        assert result.converged


@pytest.mark.parametrize("objective", [_rosenbrock, _half_rejected, _staircase])
def test_every_cap(objective):
    x0 = [0.4, 0.2, 0.1, -0.3] if objective is _rosenbrock else [0.4, 0.2, 0.1]
    for cap in range(1, 61):
        _assert_replay(objective, [x0], cap)


def _split_by_restart(seen, per_restart):
    """Assign each point of a lockstep sequence to the first restart whose next
    reference point it equals; every point must find one, and every reference
    point must be used."""
    split = [[] for _ in per_restart]
    for x in seen:
        for k, ref in enumerate(per_restart):
            if len(split[k]) < len(ref) and np.array_equal(x, ref[len(split[k])]):
                split[k].append(x)
                break
        else:
            raise AssertionError(f"point {x} is no restart's next reference point")
    assert [len(s) for s in split] == [len(ref) for ref in per_restart]
    return split


def test_restarts_and_zero_coordinates():
    # Two explicit starts (one with zero coordinates, which get the absolute
    # 0.00025 step), then seeded random restarts drawn as `maximize` draws them.
    # The restarts run in lockstep, so their points interleave; each restart's
    # own points are scipy's, point for point and in order.
    budget = SearchBudget(restarts=4, max_evals=80, seed=11, tol=1e-7)
    starts = [np.array([0.0, 0.5, 0.0]), np.array([1.0, -1.0, 2.0])]
    seen, result = _ours(_quadratic, starts, budget)
    drawn = [
        np.random.default_rng(np.random.SeedSequence(budget.seed, spawn_key=(k,))).normal(size=3)
        for k in range(2, 4)
    ]
    per_restart = [_reference(_quadratic, [x0], budget)[0] for x0 in starts + drawn]
    ref_seen, ref_value, ref_success = _reference(_quadratic, starts + drawn, budget)
    assert len(seen) == len(ref_seen) == result.evals
    _split_by_restart(seen, per_restart)
    assert result.value == ref_value
    assert result.converged is ref_success


def test_rounds_are_lockstep_batches():
    # Round 1 is every restart's initial simplex; later rounds take one step's
    # points from each unfinished restart, in restart order. No batch is empty,
    # and `evals` counts the rows.
    budget = SearchBudget(restarts=3, max_evals=50, seed=4, tol=1e-7)
    batches = []

    def rows(points):
        batches.append(np.array(points))
        return np.array([_rosenbrock(x) for x in points])

    result = maximize_batch(rows, 4, budget, starts=[np.array([0.4, 0.2, 0.1, -0.3])])
    assert all(len(b) >= 1 for b in batches)
    assert len(batches[0]) == 3 * 5
    assert result.evals == sum(len(b) for b in batches) == 3 * 50
    seen, pointwise = _ours(_rosenbrock, [np.array([0.4, 0.2, 0.1, -0.3])], budget)
    assert np.array_equal(np.concatenate(batches), np.array(seen))
    assert (result.value, result.evals, result.converged) == (pointwise.value, pointwise.evals, pointwise.converged)
    assert np.array_equal(result.params, pointwise.params)


def test_tied_restarts_return_the_first_restarts_params():
    # A plateau: every point scores 1, so both restarts reach the best value
    # at their first point, and the first restart's start is returned.
    budget = SearchBudget(restarts=2, max_evals=20, seed=3, tol=1e-7)
    starts = [np.array([0.3, -0.2]), np.array([5.0, 4.0])]
    result = maximize_batch(lambda points: np.ones(len(points)), 2, budget, starts=starts)
    assert result.value == 1.0
    assert np.array_equal(result.params, starts[0])
    # The first restart still wins when the second reaches the tie in an
    # earlier round: here restart 0 scores 1 only at its first reflection
    # point (round 2), restart 1 already at its start (round 1).
    batches = []

    def flat(points):
        batches.append(np.array(points))
        return np.zeros(len(points))

    maximize_batch(flat, 2, budget, starts=starts)
    reflection = batches[1][0]
    assert not np.array_equal(reflection, starts[0])

    def two_peaks(points):
        peak = np.all(points == reflection, axis=1) | np.all(points == starts[1], axis=1)
        return peak.astype(float)

    result = maximize_batch(two_peaks, 2, budget, starts=starts)
    assert result.value == 1.0 and np.array_equal(result.params, reflection)


@pytest.mark.parametrize("value", [2.5, -math.inf, math.nan, math.inf])
def test_zero_parameters_evaluate_one_empty_row(value):
    # A value that is not finite discards the one point, as with parameters.
    calls = []

    def rows(points):
        calls.append(points.shape)
        return np.array([value])

    result = maximize_batch(rows, 0, SearchBudget(restarts=3, max_evals=10))
    assert calls == [(1, 0)]
    expected = value if math.isfinite(value) else -math.inf
    assert (result.value, result.evals, result.converged) == (expected, 1, True)
    assert np.array_equal(result.params, np.zeros(0))


def test_every_point_rejected_gives_minus_inf_at_zeros():
    # No restart finds a finite value: the result is -inf at the origin,
    # not at any evaluated point, and every descent runs to its cap.
    budget = SearchBudget(restarts=2, max_evals=30, seed=2)
    result = maximize_batch(lambda points: np.full(len(points), -math.inf), 3, budget)
    assert result.value == -math.inf
    assert np.array_equal(result.params, np.zeros(3))
    assert not result.converged
    assert result.evals == 60


def test_a_capped_descent_builds_only_the_vertices_it_scores():
    # 20 of the 501 vertices of a 500-parameter simplex fit the cap: the
    # descent yields those 20, the first rows of the full simplex, and stops,
    # without allocating the 2 MB of the full simplex.
    x0 = np.arange(500.0)
    descent = _nelder_mead(x0, 20, 1e-8, 1e-12)
    tracemalloc.start()
    try:
        batch = next(descent)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 501 * 500 * 8 // 4
    expected = np.tile(x0, (20, 1))
    expected[range(1, 20), range(19)] = [0.00025, *(1.05 * x0[1:19])]
    assert np.array_equal(batch, expected)
    with pytest.raises(StopIteration) as stop:
        descent.send([0.0] * 20)
    assert stop.value.value is False
