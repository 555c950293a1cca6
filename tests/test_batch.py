"""Every batch objective treats each row alone.

The searches hand `maximize_batch` objectives of a whole round of points.
Each one captured here must give row i of a batch exactly, bit for bit, the
value it gives that row as a batch of one, on seeded batches of 1, 2 and 40
rows that mix in points scoring -inf (a zero-trace state, a vanishing ray)
and points whose square-root POVM needs its completion effect. The
Schatten ascent's evaluator is held to the same rule for its values and
gradient generators, checked against the per-point formula it replaced,
and a stack of states in one evaluator against evaluators of each state
alone.
"""

import math
import warnings

import numpy as np
import pytest

from qmi import capacity, entanglement, mutual
from qmi.capacity import StateFamily, pseudo_capacity, quantum_capacity
from qmi.channels import (
    _square_root_povm_rows,
    amplitude_damping_channel,
    apply_matrix,
    classical_channel,
    depolarizing_channel,
)
from qmi.entanglement import qdc_hierarchy
from qmi.entropy import _entropy_rows
from qmi.mutual import _MutualEvaluator, ohya_mutual_entropy, pseudo_mutual_entropy
from qmi.operators import (
    ConsistencyError,
    DensityOperator,
    SchattenDecomposition,
    _support_layouts,
    partial_trace,
    pure_state,
    schatten_family,
    schatten_param_count,
    unitary_from_params,
)
from qmi.sampling import random_density, random_kraus_channel, random_unitary, rng_from
from qmi.search import SearchBudget, _complex_stack

TINY = SearchBudget(restarts=2, max_evals=40, seed=3, tol=1e-6)


def _captured(monkeypatch, run, ascents=None):
    """(objective_rows, n_params, starts) of the first search of each objective
    and size that `run` starts, keyed by the objective's qualified name and
    its number of parameters. The evaluator of every Schatten ascent is
    appended to `ascents` when given."""
    found = {}

    def record(objective_rows, n_params, starts):
        name = getattr(objective_rows, "__qualname__", repr(objective_rows))
        if n_params:
            found.setdefault((name, n_params), (objective_rows, [np.asarray(s, float) for s in starts]))

    for module in (mutual, capacity, entanglement):
        original = module.maximize_batch

        def recording(objective_rows, n_params, budget, starts=(), original=original):
            record(objective_rows, n_params, starts)
            return original(objective_rows, n_params, budget, starts)

        monkeypatch.setattr(module, "maximize_batch", recording)
    ascent = mutual._schatten_ascent  # the Schatten searches of `_ohya_suprema`

    def recording_ascent(ev, budget, observe=None):
        if ascents is not None:
            ascents.append(ev)
        return ascent(ev, budget, observe)

    monkeypatch.setattr(mutual, "_schatten_ascent", recording_ascent)
    run()
    monkeypatch.undo()
    return found


def _batch(n_params, starts, rows, seed, special=()):
    """Seeded rows: a zero row, the starts, the special rows, then points near
    the first start and far from it."""
    rng = rng_from(seed)
    centre = starts[0] if starts else np.zeros(n_params)
    fixed = [np.zeros(n_params), *starts, *special]
    near = centre + 0.05 * rng.normal(size=(rows, n_params))
    far = rng.normal(size=(rows, n_params))
    points = np.concatenate([np.array(fixed), near, far])
    return points[:rows]


def _assert_rows_alone(objective_rows, points):
    for rows in (1, 2, len(points)):
        batch = points[:rows]
        together = np.asarray(objective_rows(batch), dtype=float)
        assert together.shape == (rows,)
        alone = np.array([np.asarray(objective_rows(batch[i : i + 1]), dtype=float)[0] for i in range(rows)])
        # Bit for bit, -inf included.
        assert together.tobytes() == alone.tobytes()


def _only(found, name):
    """The one captured search of the objective `name`."""
    (entry,) = [(n_params, *rest) for (key, n_params), rest in found.items() if key == name]
    n_params, objective_rows, starts = entry
    return objective_rows, n_params, starts


def _check_all(found, names, seed, special=None, rows=40):
    """Row independence of every captured search of the named objectives."""
    assert set(names) <= {name for name, _ in found}, sorted(found)
    for (name, n_params), (objective_rows, starts) in found.items():
        if name in names:
            points = _batch(n_params, starts, rows, seed, (special or {}).get(name, ()))
            _assert_rows_alone(objective_rows, points)


def _rotations(ev, rows, rng, scale=2.0):
    """Random block unitaries exp(i H) for `rows` rows, one (rows, m, m) per block."""
    return [unitary_from_params(scale * rng.normal(size=(rows, (s.stop - s.start) ** 2)), s.stop - s.start)
            for s in ev.blocks]


def _evaluated(ev, rotations, owners):
    """(values, generators) of the rows that `rotations` turn, as the ascent scores them."""
    parts = ev.rotated(ev.parts[owners], rotations)
    values, eigen, _ = ev.evaluate(parts, owners)
    return values, ev.generators(parts, eigen, owners)


def _assert_evaluator_rows_alone(ev, seed):
    """Each row of a batch of 1, 2 or 40 rotated rows, spread over the
    evaluator's states, has the value and generators of that row alone, bit
    for bit."""
    assert ev.blocks
    rng = rng_from(seed)
    rotations = _rotations(ev, 40, rng)
    owners = rng.integers(0, ev.size, size=40)
    for rows in (1, 2, 40):
        values, generators = _evaluated(ev, [u[:rows] for u in rotations], owners[:rows])
        for i in range(rows):
            one, one_generators = _evaluated(ev, [u[i : i + 1] for u in rotations], owners[i : i + 1])
            assert one.tobytes() == values[i : i + 1].tobytes()
            assert all(a[i : i + 1].tobytes() == b.tobytes() for a, b in zip(generators, one_generators))


def _degenerate_state(rng, spectrum=(2, 2, 1)):
    u = random_unitary(len(spectrum), rng)
    w = np.asarray(spectrum, dtype=float)
    return DensityOperator((u * (w / w.sum())) @ u.conj().T)


def test_schatten_and_split_objectives(monkeypatch):
    rng = rng_from(501)
    rho = _degenerate_state(rng)
    ch = random_kraus_channel(3, 2, 2, rng)
    ascents = []
    found = _captured(monkeypatch, lambda: pseudo_mutual_entropy(rho, ch, 2, TINY), ascents)
    # The split start puts one rank-one projector in each of two factor blocks
    # of a qutrit: their sum has rank 2, so the POVM needs its completion.
    objective_rows, n_params, starts = _only(found, "_split_search.<locals>.objective")
    assert _square_root_povm_rows(_complex_stack(starts[0], 2, 3, 3)[None])[1][0]
    assert math.isfinite(objective_rows(np.array(starts))[0])
    _check_all(found, ["_split_search.<locals>.objective"], 502)
    (ev,) = ascents  # the floor's Schatten ascent
    _assert_evaluator_rows_alone(ev, 502)


def test_pseudo_capacity_objectives(monkeypatch):
    ch = amplitude_damping_channel(0.3)
    found = _captured(monkeypatch, lambda: pseudo_capacity(ch, StateFamily("full", 2), 2, TINY))
    objective_rows, n_params, starts = _only(found, "_split_search.<locals>.objective")
    # A zero head is a member without trace: that row scores -inf.
    zero_head = starts[0].copy()
    zero_head[:8] = 0.0
    assert objective_rows(zero_head[None])[0] == -math.inf
    _check_all(found, ["StateFamily.supremum.<locals>.objective", "_split_search.<locals>.objective"], 503,
               special={"_split_search.<locals>.objective": [zero_head]})


@pytest.mark.parametrize("family", [StateFamily("diagonal", 3), StateFamily("rank", 3, 2)])
def test_family_objective(monkeypatch, family):
    ch = depolarizing_channel(0.2, 3)
    found = _captured(monkeypatch, lambda: quantum_capacity(ch, family, SearchBudget(2, 8, seed=5)))
    objective_rows, n_params, _ = _only(found, "StateFamily.supremum.<locals>.objective")
    if family.kind == "rank":
        assert objective_rows(np.zeros((1, n_params)))[0] == -math.inf  # no trace
    _check_all(found, ["StateFamily.supremum.<locals>.objective"], 505)


def test_survey_and_ray_objectives(monkeypatch):
    rng = rng_from(509)
    rho = _degenerate_state(rng)
    ch = random_kraus_channel(3, 3, 3, rng)  # full-rank outputs, so the rays are searched
    ascents = []
    found = _captured(monkeypatch, lambda: qdc_hierarchy(rho, ch, TINY), ascents)
    _check_all(found, ["_q_value.<locals>.objective"], 510)
    (ev,) = ascents
    _assert_evaluator_rows_alone(ev, 510)
    # Through a depolarizing channel every decomposition has one value: the
    # hierarchy values d at the canonical one with no search, and c = d.
    levels, ascents = {}, []
    found = _captured(monkeypatch, lambda: levels.update(qdc_hierarchy(rho, depolarizing_channel(0.3, 3), TINY)),
                      ascents)
    assert ascents == []
    assert levels["c"].evals == levels["d"].evals == 1
    assert levels["c"].value == levels["d"].value
    _check_all(found, ["_q_value.<locals>.objective"], 510)
    ascents = []
    found = _captured(monkeypatch, lambda: qdc_hierarchy(None, amplitude_damping_channel(0.3), TINY), ascents)
    _check_all(found, ["StateFamily.supremum.<locals>.objective", "_q_value.<locals>.objective"], 511)
    searched = [ev for ev in ascents if ev.blocks]  # the flat start I/2
    assert searched
    _assert_evaluator_rows_alone(searched[0], 511)


# -- the Schatten evaluator against the per-point formula it replaced --------------------


def _value_loop(ev: _MutualEvaluator, ch, vectors: np.ndarray, state: int = 0) -> float:
    """One decomposition of one state by the formula, with no kernel of the
    evaluator: each support vector sent through the channel operator by
    operator, a full eigvalsh of each output, and the weighted sum as a
    scalar dot product."""
    entropies = []
    for x in vectors.T:
        output = sum(np.outer(k @ x, (k @ x).conj()) for k in ch.ops)
        entropies.append(float(_entropy_rows(np.linalg.eigvalsh(output))))
    return ev.out_entropy[state] - float(ev.weights[state] @ np.array(entropies))


def _turned(ev: _MutualEvaluator, rotations, row: int, state: int = 0) -> np.ndarray:
    """The support vectors of `state` with block b turned to V_b U_b, U_b
    row `row` of rotations[b], one block at a time."""
    vectors = ev.vectors[state].copy()
    for s, u in zip(ev.blocks, rotations):
        vectors[:, s] = vectors[:, s] @ u[row]
    return vectors


# The evaluator reads each component entropy from the r x r Gram matrix of the
# Kraus images when r < out, and otherwise rotates the vectors (or the images)
# before forming the output, so it rounds differently from the formula; an
# entropy of a unit-trace output of dimension <= 24 moves by a few 1e-15.
FORMULA_TOL = 1e-12


@pytest.mark.parametrize("spectrum", [(2, 2, 1), (3, 3, 2, 2), (2, 2, 1, 0), (1, 1, 1, 1, 0), (3, 2, 1)])
def test_schatten_values_match_the_per_point_formula(spectrum):
    rng = rng_from(512)
    for d_out, n_ops in ((2, 3), (len(spectrum), 3), (5, 1)):
        rho = _degenerate_state(rng, spectrum)
        ch = random_kraus_channel(rho.dim, d_out, n_ops, rng)
        ev = _MutualEvaluator(rho.matrix, ch)
        rotations = _rotations(ev, 40, rng)
        got, _ = _evaluated(ev, rotations, np.zeros(40, dtype=int))
        want = np.array([_value_loop(ev, ch, _turned(ev, rotations, i)) for i in range(40)])
        assert np.max(np.abs(got - want)) <= FORMULA_TOL


def test_each_evaluator_side_matches_the_formula():
    # Gram side (r < out), outputs through the transfer matrix (a wide channel
    # with r >= out), and outputs of the Kraus images (r >= out on a channel
    # that is not wide, which takes d = 24).
    rng = rng_from(518)
    cases = [((3, 3, 2, 1), random_kraus_channel(4, 4, 2, rng)),
             ((3, 3, 2, 1), depolarizing_channel(0.4, 4)),
             ((2,) * 12 + (1,) * 12, random_kraus_channel(24, 24, 24, rng))]
    for (spectrum, ch), side in zip(cases, ["gram", "transfer", "images"]):
        ev = _MutualEvaluator(_degenerate_state(rng, spectrum).matrix, ch)
        assert (ev.gram, ev.image_shape is None) == (side == "gram", side == "transfer")
        rotations, owners = _rotations(ev, 3, rng, scale=1.0), np.zeros(3, dtype=int)
        parts = ev.rotated(ev.parts[owners], rotations)
        values, _, outputs = ev.evaluate(parts, owners)
        want = np.array([_value_loop(ev, ch, _turned(ev, rotations, i)) for i in range(3)])
        assert np.max(np.abs(values - want)) <= FORMULA_TOL
        # An observer's outputs are the evaluator's own, formed on the Gram side alone.
        formed = ev.outputs(parts)
        assert (outputs is None) == (side == "gram")
        assert outputs is None or outputs.tobytes() == formed.tobytes()
        for i, row in enumerate(formed):
            dec = SchattenDecomposition(weights=ev.weights[0], vectors=_turned(ev, rotations, i))
            assert np.max(np.abs(row - mutual._transmitted(ch, dec))) <= 1e-13


def test_ohya_search_reports_the_evaluator_value():
    rng = rng_from(513)
    rho = _degenerate_state(rng)
    ch = random_kraus_channel(3, 3, 2, rng)
    result = ohya_mutual_entropy(rho, ch, TINY)
    ev = _MutualEvaluator(rho.matrix, ch)
    ((best, weights),) = mutual._ohya_suprema(ch, rho.matrix[None], TINY)
    assert np.array_equal(weights, ev.weights[0])
    assert abs(best.value - _value_loop(ev, ch, best.params)) <= FORMULA_TOL
    assert abs(result.value - best.value) < 1e-10
    assert result.decomposition.vectors.tobytes() == best.params.tobytes()


# -- a stack of states against each state alone --------------------------------------


def _mixed_stack(rng):
    """Qutrit states of five support layouts, each held by two states: I/3,
    2-fold blocks, pure states (the corner start of the state families),
    2-fold blocks of rank 2, and nondegenerate states."""
    pure = [pure_state([1.0, 0.0, 0.0]), pure_state(random_unitary(3, rng)[:, 0])]
    states = [
        DensityOperator(np.eye(3) / 3), _degenerate_state(rng), pure[0], random_density(3, rng),
        _degenerate_state(rng, (1, 1, 0)), _degenerate_state(rng), random_density(3, rng), pure[1],
        DensityOperator(np.eye(3) / 3), _degenerate_state(rng, (1, 1, 0)),
    ]
    return np.stack([s.matrix for s in states])


@pytest.mark.parametrize("d_out, n_ops", [(3, 2), (2, 3)])
def test_stacked_suprema_equal_lone_ohya_searches(d_out, n_ops):
    rng = rng_from(515)
    mats = _mixed_stack(rng)
    ch = random_kraus_channel(3, d_out, n_ops, rng)
    layouts = [(rows, _MutualEvaluator(mats[rows], ch, support)) for rows, *support in _support_layouts(mats)]
    assert len(layouts) == 5
    assert all(ev.size == 2 for _, ev in layouts)
    assert sum(bool(ev.blocks) for _, ev in layouts) == 3
    # Each row of a stacked evaluation is its state's lone value and
    # generators, bit for bit.
    for rows, ev in layouts:
        if not ev.blocks:
            continue
        rotations = _rotations(ev, 30, rng)
        owners = rng.integers(0, ev.size, size=30)
        got, generators = _evaluated(ev, rotations, owners)
        for i, o in enumerate(owners):
            alone, alone_generators = _evaluated(_MutualEvaluator(mats[rows[o]], ch), [u[i : i + 1] for u in rotations],
                                                 np.zeros(1, dtype=int))
            assert got[i : i + 1].tobytes() == alone.tobytes()
            assert all(a[i : i + 1].tobytes() == b.tobytes() for a, b in zip(generators, alone_generators))
    # Each state's search in the stack is its lone search, field for field, and
    # the Ohya result checked from it is `ohya_mutual_entropy`'s.
    for m, (got, weights) in zip(mats, mutual._ohya_suprema(ch, mats, TINY)):
        ev = _MutualEvaluator(m, ch)
        (alone,) = mutual._schatten_ascent(ev, TINY)
        assert (got.value, got.evals, got.converged) == (alone.value, alone.evals, alone.converged)
        assert np.array_equal(got.params, alone.params)
        assert np.array_equal(weights, ev.weights[0])
        rho = DensityOperator(m)
        mine = mutual._checked_ohya(rho, ch, got, weights)
        fresh = ohya_mutual_entropy(rho, ch, TINY)
        assert (mine.value, mine.evals, mine.converged) == (fresh.value, fresh.evals, fresh.converged)
        assert np.array_equal(mine.decomposition.weights, fresh.decomposition.weights)
        assert np.array_equal(mine.decomposition.vectors, fresh.decomposition.vectors)


@pytest.mark.parametrize("ch, family, searched", [
    # The flat start I/3 stays the maximizer at this budget: a degenerate state.
    (random_kraus_channel(3, 3, 2, rng_from(517)), StateFamily("full", 3), True),
    # A Z channel's capacity takes an input that is not uniform: a
    # nondegenerate maximizer, valued with no inner search.
    (classical_channel(np.array([[1.0, 0.3], [0.0, 0.7]])), StateFamily("full", 2), False),
    (random_kraus_channel(3, 3, 2, rng_from(516)), StateFamily("rank", 3, 2), True),
    # So it does through a depolarizing channel, where every decomposition has
    # one value: no inner search runs, at I/3 or at any other member.
    (depolarizing_channel(0.2, 3), StateFamily("full", 3), False),
])
def test_the_maximizer_keeps_its_inner_search(monkeypatch, ch, family, searched):
    # The Ohya result at the maximizer comes from the family search's own inner
    # search; it is the one a fresh search at that state finds.
    sizes = []
    ascent = mutual._schatten_ascent

    def recording(ev, budget, observe=None):
        sizes.append(len(ev.blocks))
        return ascent(ev, budget, observe)

    monkeypatch.setattr(mutual, "_schatten_ascent", recording)
    budget = SearchBudget(2, 40, seed=31)
    report, _, ohya = capacity._quantum_search(ch, family, budget)
    fresh = ohya_mutual_entropy(DensityOperator(report.maximizer["state"]), ch, budget.child(1))
    assert report.value == ohya.value == fresh.value
    assert (ohya.evals, ohya.converged) == (fresh.evals, fresh.converged)
    assert (ohya.evals > 1) is searched
    if ch.uniform_pure_outputs:
        assert np.ptp(np.linalg.eigvalsh(report.maximizer["state"])) < 1e-12
        assert set(sizes) == {0}
    assert np.array_equal(ohya.decomposition.weights, fresh.decomposition.weights)
    assert np.array_equal(ohya.decomposition.vectors, fresh.decomposition.vectors)


def test_a_maximizer_no_round_evaluated_is_an_error(monkeypatch):
    # The kept inner result is found by the maximizer's member matrix; a
    # rebuilt member that differs from the evaluated one in its last bits
    # finds none, and says so.
    original = StateFamily.state_from_params

    def nudged(self, params):
        m = original(self, params).matrix.copy()
        m[0, 1] += 1e-14
        m[1, 0] += 1e-14
        return DensityOperator(m)

    monkeypatch.setattr(StateFamily, "state_from_params", nudged)
    with pytest.raises(ConsistencyError, match="is no evaluated member"):
        quantum_capacity(amplitude_damping_channel(0.3), StateFamily("full", 2), TINY)


# -- the batched commutation defect against the pairwise loop it replaced ----------------


def _defect_loop(outputs) -> float:
    norms = [float(np.linalg.norm(om)) for om in outputs]
    worst = 0.0
    for n in range(len(outputs)):
        for m in range(n + 1, len(outputs)):
            if norms[n] <= 1e-12 or norms[m] <= 1e-12:
                continue
            comm = outputs[n] @ outputs[m] - outputs[m] @ outputs[n]
            worst = max(worst, float(np.linalg.norm(comm)) / (norms[n] * norms[m]))
    return worst


@pytest.mark.parametrize("k, d", [(1, 2), (2, 2), (3, 3), (4, 5)])
def test_commutation_defects_match_the_pairwise_loop(k, d):
    rng = rng_from(514)
    outputs = rng.normal(size=(40, k, d, d)) + 1j * rng.normal(size=(40, k, d, d))
    outputs = outputs @ outputs.conj().swapaxes(-1, -2)
    outputs[::3, 0] = 0.0  # a vanishing output is skipped
    if k > 1:
        outputs[1::5, 1] = np.diag(np.arange(1.0, d + 1))  # commutes with nothing generic
        outputs[2::7] = np.diag(np.arange(1.0, d + 1))  # all outputs commute
    got = entanglement._commutation_defects(outputs)
    want = np.array([_defect_loop(row) for row in outputs])
    assert got.tobytes() == want.tobytes()
    assert entanglement._commutation_defect(list(outputs[4])) == want[4]


# -- the stacked ray scorer against the per-ray loop it replaced ------------------------


def _ray_loop(params, dec, k):
    """One marginal-preserving ray: its blocks one at a time, one einsum, and
    np.linalg.norm; None when the ray is 0."""
    g = dec.size
    blocks = np.zeros((g, g, k, k), dtype=complex)
    pos = 0
    for n in range(g):
        for m in range(n + 1, g):
            half = k * k
            b = (params[pos : pos + half] + 1j * params[pos + half : pos + 2 * half]).reshape(k, k)
            b = b - (np.trace(b) / k) * np.eye(k)
            blocks[n, m], blocks[m, n] = b, b.conj().T
            pos += 2 * half
    e = dec.vectors
    x = np.einsum("xn,nmab,ym->xayb", e, blocks, e.conj()).reshape(e.shape[0] * k, e.shape[0] * k)
    norm = float(np.linalg.norm(x))
    return None if norm <= 1e-12 else x / norm


def _step_loop(scorer, x) -> float:
    """The PSD step of one ray from its own eigh, in scalars."""
    if scorer.inv_sqrt is None:
        return 0.0
    scaled = scorer.frame.conj().T @ x @ scorer.frame * np.outer(scorer.inv_sqrt, scorer.inv_sqrt)
    mu, z = np.linalg.eigh(scaled)
    if mu[0] * 64.0 >= -1.0:
        return 64.0
    u_norm2 = float(np.sum(np.abs(scorer.inv_sqrt * z[:, 0]) ** 2))
    step = -(1.0 - entanglement.PSD_STEP_TOL * u_norm2) / float(mu[0])
    return step if step * float(np.linalg.norm(x)) > 1e-12 else 0.0


def _score_loop(scorer, x) -> float:
    """The endpoint score of one ray from its own eigvalsh."""
    t_max = _step_loop(scorer, x)
    if t_max <= 0.0:
        return -math.inf
    eigs = np.linalg.eigvalsh(scorer.theta_d + t_max * x)
    if eigs[0] < -1e-12:
        return -math.inf
    return scorer.marginal_entropy - float(_entropy_rows(eigs))


def test_stacked_rays_match_the_per_ray_loop():
    rng = rng_from(517)
    cases = [
        (_degenerate_state(rng), depolarizing_channel(0.3, 3)),  # theta_d of full rank
        (random_density(3, rng), random_kraus_channel(3, 3, 1, rng)),  # pure outputs: rank-deficient theta_d
        (random_density(3, rng, rank=2), random_kraus_channel(3, 2, 2, rng)),  # a rank-deficient input
        (random_density(2, rng), random_kraus_channel(2, 9, 2, rng)),  # blocks of side 9: longer sums
    ]
    masked = zero_steps = capped = scored = 0
    for rho, ch in cases:
        dec = schatten_family(rho, rng.normal(size=schatten_param_count(rho)))
        outputs = mutual._transmitted(ch, dec)
        k = ch.out_dim
        scorer = entanglement._RayScorer(
            mutual._compound_matrix(dec, outputs), rho.matrix, apply_matrix(ch, rho.matrix))
        n_params = dec.size * (dec.size - 1) * k * k
        # A zero row and a row whose ray norm is below 1e-12 are masked out.
        points = np.concatenate([np.zeros((1, n_params)), 1e-14 * rng.normal(size=(1, n_params)),
                                 rng.normal(size=(20, n_params))])
        alone = [_ray_loop(p, dec, k) for p in points]
        ok = np.array([x is not None for x in alone])
        rays, whitened = entanglement._unit_rays(scorer, dec, k)(points)
        assert [bool(np.any(x)) for x in rays] == ok.tolist()
        for i, x in enumerate(alone):
            # _unit_rays forms a ray by products with the frame, the per-ray
            # loop by one einsum, so the two agree to rounding.
            if x is not None:
                assert np.max(np.abs(rays[i] - x)) <= 1e-15
            # The same point alone, as a stack of one row: the winning search
            # ray is rebuilt so, and must match its row bit for bit.
            one, one_whitened = entanglement._unit_rays(scorer, dec, k)(points[i][None])
            assert one[0].tobytes() == rays[i].tobytes()
            assert one_whitened[0].tobytes() == whitened[i].tobytes()
        # Scored with their whitened forms, each row scores as it does alone.
        values, steps = scorer.endpoints(rays, whitened)
        for x, w, value, step in zip(rays, whitened, values, steps):
            one_values, one_steps = scorer.endpoints(x[None], w[None])
            assert (one_values[0], one_steps[0]) == (value, step)
        # The same rays shortened: at 1e-3 their steps reach the cap of 64, and
        # at 1e-6 the rounding-level step of a ray leaving the support exceeds
        # 1e-12 while moving theta_d by less, so it is still taken as 0.
        xs, ok = np.concatenate([rays, 1e-3 * rays, 1e-6 * rays]), np.concatenate([ok, ok, ok])
        values, steps = scorer.endpoints(xs)
        want_steps = np.array([_step_loop(scorer, x) for x in xs])
        want = np.array([_score_loop(scorer, x) if o else -math.inf for x, o in zip(xs, ok)])
        assert steps[ok].tobytes() == want_steps[ok].tobytes()
        assert values.tobytes() == want.tobytes()
        for x, o, value, step in zip(xs, ok, values, steps):
            if o:
                one_values, one_steps = scorer.endpoints(x[None])
                assert (one_values[0], one_steps[0]) == (value, step)
        masked += int(np.sum(~ok))
        zero_steps += int(np.sum(ok & (steps == 0.0)))
        capped += int(np.sum(ok & (steps == 64.0)))
        scored += int(np.sum(np.isfinite(values)))
    assert masked and zero_steps and capped and scored, (masked, zero_steps, capped, scored)


def test_unit_rays_keep_the_marginals_and_the_whitened_form():
    rng = rng_from(519)
    cases = [
        (_degenerate_state(rng), depolarizing_channel(0.3, 3)),  # theta_d of full rank
        (random_density(3, rng), random_kraus_channel(3, 3, 1, rng)),  # pure outputs: rank-deficient theta_d
        (random_density(3, rng, rank=2), random_kraus_channel(3, 2, 2, rng)),  # a rank-deficient input
    ]
    for rho, ch in cases:
        dec = schatten_family(rho, rng.normal(size=schatten_param_count(rho)))
        k, d_in, g = ch.out_dim, rho.dim, dec.size
        scorer = entanglement._RayScorer(
            mutual._compound_matrix(dec, mutual._transmitted(ch, dec)), rho.matrix, apply_matrix(ch, rho.matrix))
        n_params = g * (g - 1) * k * k
        points = np.concatenate([rng.normal(size=(10, n_params)), np.zeros((1, n_params)),
                                 1e-14 * rng.normal(size=(1, n_params))])
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            rays, whitened = entanglement._unit_rays(scorer, dec, k)(points)
            values, _ = scorer.endpoints(rays, whitened)
        # The zero row and the 1e-14 row have no ray, and score nothing.
        assert not np.any(rays[10:]) and not np.any(whitened[10:])
        assert values[10:].tolist() == [-math.inf, -math.inf]
        for x, w in zip(rays[:10], whitened[:10]):
            assert abs(np.linalg.norm(x) - 1.0) <= 1e-14
            assert np.max(np.abs(x - x.conj().T)) <= 1e-14
            # In the v_n frame the diagonal blocks are 0 and the others traceless.
            blocks = np.einsum("xn,xayb,ym->nmab", dec.vectors.conj(), x.reshape(d_in, k, d_in, k), dec.vectors)
            assert np.max(np.abs(blocks[range(g), range(g)])) <= 1e-14
            assert np.max(np.abs(np.trace(blocks, axis1=-2, axis2=-1))) <= 1e-14
            # So both marginals of theta_d stay.
            assert np.max(np.abs(partial_trace(x, (d_in, k), keep=0))) <= 1e-14
            assert np.max(np.abs(partial_trace(x, (d_in, k), keep=1))) <= 1e-14
            # The whitened form is F^dag x F * scale: compared before the
            # scale, whose kernel entries reach 1 / PSD_STEP_TOL.
            assert np.max(np.abs(w - scorer.whitened(x)) / scorer.scale) <= 1e-14
