"""Every batch objective treats each row alone.

The searches hand `maximize_batch`, and `maximize_many` with one problem,
objectives of a whole round of points.
Each one captured here must give row i of a batch exactly, bit for bit, the
value it gives that row as a batch of one, on seeded batches of 1, 2 and 40
rows that mix in points scoring -inf (a zero-trace state, a vanishing ray)
and points whose square-root POVM needs its completion effect. The
Schatten evaluator is also checked against the per-point formula it
replaced, and a stack of states in one evaluator against evaluators of
each state alone.
"""

import math

import numpy as np
import pytest

from qmi import capacity, entanglement, mutual
from qmi.capacity import StateFamily, pseudo_capacity, quantum_capacity
from qmi.channels import (
    _square_root_povm_rows,
    amplitude_damping_channel,
    apply_matrix,
    depolarizing_channel,
)
from qmi.entanglement import qdc_hierarchy
from qmi.entropy import _entropy_rows
from qmi.mutual import _MutualEvaluator, ohya_mutual_entropy, pseudo_mutual_entropy
from qmi.operators import ConsistencyError, DensityOperator, _rotated, _support_layouts, pure_state, schatten_family
from qmi.sampling import random_density, random_kraus_channel, random_unitary, rng_from
from qmi.search import SearchBudget, _complex_stack, maximize_batch

TINY = SearchBudget(restarts=2, max_evals=40, seed=3, tol=1e-6)


def _captured(monkeypatch, run):
    """(objective_rows, n_params, starts) of the first search of each objective
    and size that `run` starts, keyed by the objective's qualified name and
    its number of parameters."""
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
    many = mutual.maximize_many  # the Schatten searches of `_ohya_suprema`

    def recording_many(objective_rows, n_problems, n_params, budget, starts=()):
        if n_problems == 1:  # a lone search's objective takes no owners
            record(objective_rows, n_params, starts)
        return many(objective_rows, n_problems, n_params, budget, starts)

    monkeypatch.setattr(mutual, "maximize_many", recording_many)
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


def _degenerate_state(rng, spectrum=(2, 2, 1)):
    u = random_unitary(len(spectrum), rng)
    w = np.asarray(spectrum, dtype=float)
    return DensityOperator((u * (w / w.sum())) @ u.conj().T)


def test_schatten_and_split_objectives(monkeypatch):
    rng = rng_from(501)
    rho = _degenerate_state(rng)
    ch = random_kraus_channel(3, 2, 2, rng)
    found = _captured(monkeypatch, lambda: pseudo_mutual_entropy(rho, ch, 2, TINY))
    # The split start puts one rank-one projector in each of two factor blocks
    # of a qutrit: their sum has rank 2, so the POVM needs its completion.
    objective_rows, n_params, starts = _only(found, "_split_search.<locals>.objective")
    assert _square_root_povm_rows(_complex_stack(starts[0], 2, 3, 3)[None])[1][0]
    assert math.isfinite(objective_rows(np.array(starts))[0])
    _check_all(found, ["_MutualEvaluator.values", "_split_search.<locals>.objective"], 502)


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
    ch = random_kraus_channel(3, 3, 3, rng)  # full-rank outputs, so the fixed-block rays are searched
    found = _captured(monkeypatch, lambda: qdc_hierarchy(rho, ch, TINY))
    _check_all(found, ["_ohya_suprema.<locals>.objective", "_q_value.<locals>.objective"], 510)
    # Through a depolarizing channel every decomposition has one value: the
    # hierarchy values d at the canonical one with no search, and c = d.
    levels = {}
    found = _captured(monkeypatch, lambda: levels.update(qdc_hierarchy(rho, depolarizing_channel(0.3, 3), TINY)))
    assert "_ohya_suprema.<locals>.objective" not in {name for name, _ in found}
    assert levels["c"].evals == levels["d"].evals == 1
    assert levels["c"].value == levels["d"].value
    _check_all(found, ["_q_value.<locals>.objective"], 510)
    # Released output blocks add the diagonal-block parameters to each ray.
    found = _captured(monkeypatch, lambda: qdc_hierarchy(rho, ch, TINY, fix_output_blocks=False))
    _check_all(found, ["_q_value.<locals>.objective"], 512)
    found = _captured(monkeypatch, lambda: qdc_hierarchy(None, amplitude_damping_channel(0.3), TINY))
    _check_all(found, ["StateFamily.supremum.<locals>.objective", "_q_value.<locals>.objective"], 511)


# -- the Schatten evaluator against the per-point formula it replaced --------------------


def _hermitian_loop(p, m):
    h = np.zeros((m, m), dtype=complex)
    for i in range(m):
        h[i, i] = p[i]
    pos = m
    for i in range(m):
        for j in range(i + 1, m):
            h[i, j] = p[pos] + 1j * p[pos + 1]
            h[j, i] = p[pos] - 1j * p[pos + 1]
            pos += 2
    return h


def _value_loop(ev: _MutualEvaluator, ch, params: np.ndarray, state: int = 0) -> float:
    """One point of one state by the formula, with no kernel of the evaluator:
    block rotations exp(iH) one block at a time, each rotated vector sent
    through the channel operator by operator, a full eigvalsh of each
    output, and the weighted sum as a scalar dot product."""
    vectors = ev.vectors[state]
    u = np.eye(vectors.shape[1], dtype=complex)
    pos = 0
    for s in ev.blocks:
        m = s.stop - s.start
        w, v = np.linalg.eigh(_hermitian_loop(params[pos : pos + m * m], m))
        u[s, s] = (v * np.exp(1j * w)) @ v.conj().T
        pos += m * m
    entropies = []
    for x in (vectors @ u).T:
        output = sum(np.outer(k @ x, (k @ x).conj()) for k in ch.ops)
        entropies.append(float(_entropy_rows(np.linalg.eigvalsh(output))))
    return ev.out_entropy[state] - float(ev.weights[state] @ np.array(entropies))


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
        points = 2.0 * rng.normal(size=(40, ev.n_params))
        got = ev.values(points)
        want = np.array([_value_loop(ev, ch, p) for p in points])
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
        points = rng.normal(size=(3, ev.n_params))
        want = np.array([_value_loop(ev, ch, p) for p in points])
        assert np.max(np.abs(ev.values(points) - want)) <= FORMULA_TOL
        values, outputs = ev.observed(points)
        assert values.tobytes() == ev.values(points).tobytes()
        for p, row in zip(points, outputs):
            dec = _rotated(ev.weights[0], ev.vectors[0], ev.blocks, p)
            assert np.max(np.abs(row - mutual._transmitted(ch, dec))) <= 1e-13


def test_ohya_search_reports_the_evaluator_value():
    rng = rng_from(513)
    rho = _degenerate_state(rng)
    ch = random_kraus_channel(3, 3, 2, rng)
    result = ohya_mutual_entropy(rho, ch, TINY)
    ev = _MutualEvaluator(rho.matrix, ch)
    ((best, _),) = mutual._ohya_suprema(ch, rho.matrix[None], TINY)
    assert best.value == ev.values(best.params[None])[0]
    assert abs(best.value - _value_loop(ev, ch, best.params)) <= FORMULA_TOL
    assert abs(result.value - best.value) < 1e-10


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
    assert sum(ev.n_params > 0 for _, ev in layouts) == 3
    # Each row of a stacked evaluation is its state's lone value, bit for bit.
    for rows, ev in layouts:
        points = rng.normal(size=(30, ev.n_params))
        owners = rng.integers(0, ev.size, size=30)
        got = ev.values(points, owners)
        alone = [_MutualEvaluator(mats[rows[o]], ch).values(p[None])[0] for p, o in zip(points, owners)]
        assert got.tobytes() == np.array(alone).tobytes()
    # Each state's search in the stack is its lone search, field for field, and
    # the Ohya result built from it is `ohya_mutual_entropy`'s.
    for m, (got, support) in zip(mats, mutual._ohya_suprema(ch, mats, TINY)):
        ev = _MutualEvaluator(m, ch)
        alone = maximize_batch(ev.values, ev.n_params, TINY, starts=[np.zeros(ev.n_params)])
        assert (got.value, got.evals, got.converged) == (alone.value, alone.evals, alone.converged)
        assert np.array_equal(got.params, alone.params)
        assert np.array_equal(support[0], ev.weights[0]) and np.array_equal(support[1], ev.vectors[0])
        assert support[2] == ev.blocks
        rho = DensityOperator(m)
        mine = mutual._checked_ohya(rho, ch, _rotated(*support, got.params), got)
        fresh = ohya_mutual_entropy(rho, ch, TINY)
        assert (mine.value, mine.evals, mine.converged) == (fresh.value, fresh.evals, fresh.converged)
        assert np.array_equal(mine.decomposition.weights, fresh.decomposition.weights)
        assert np.array_equal(mine.decomposition.vectors, fresh.decomposition.vectors)


@pytest.mark.parametrize("ch, family, searched", [
    # The flat start I/3 stays the maximizer at this budget: a degenerate state.
    (random_kraus_channel(3, 3, 2, rng_from(517)), StateFamily("full", 3), True),
    (amplitude_damping_channel(0.3), StateFamily("full", 2), False),
    (random_kraus_channel(3, 3, 2, rng_from(516)), StateFamily("rank", 3, 2), True),
    # So it does through a depolarizing channel, where every decomposition has
    # one value: no inner search runs, at I/3 or at any other member.
    (depolarizing_channel(0.2, 3), StateFamily("full", 3), False),
])
def test_the_maximizer_keeps_its_inner_search(monkeypatch, ch, family, searched):
    # The Ohya result at the maximizer comes from the family search's own inner
    # search; it is the one a fresh search at that state finds.
    sizes = []
    many = mutual.maximize_many

    def recording(objective_rows, n_problems, n_params, budget, starts=()):
        sizes.append(n_params)
        return many(objective_rows, n_problems, n_params, budget, starts)

    monkeypatch.setattr(mutual, "maximize_many", recording)
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


def _ray_loop(params, dec, k, fix_output_blocks):
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
    if not fix_output_blocks:
        diags = []
        for n in range(g):
            d = _hermitian_loop(params[pos : pos + k * k], k)
            diags.append(d - (np.trace(d).real / k) * np.eye(k))
            pos += k * k
        mean = sum(diags) / g
        for n in range(g):
            blocks[n, n] = diags[n] - mean
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


@pytest.mark.parametrize("fix_output_blocks", [True, False])
def test_stacked_rays_match_the_per_ray_loop(fix_output_blocks):
    rng = rng_from(517)
    cases = [
        (_degenerate_state(rng), depolarizing_channel(0.3, 3)),  # theta_d of full rank
        (random_density(3, rng), random_kraus_channel(3, 3, 1, rng)),  # pure outputs: rank-deficient theta_d
        (random_density(3, rng, rank=2), random_kraus_channel(3, 2, 2, rng)),  # a rank-deficient input
    ]
    masked = zero_steps = capped = scored = 0
    for rho, ch in cases:
        dec = schatten_family(rho, rng.normal(size=_MutualEvaluator(rho.matrix, ch).n_params))
        outputs = mutual._transmitted(ch, dec)
        k = ch.out_dim
        scorer = entanglement._RayScorer(
            mutual._compound_matrix(dec, outputs), rho.matrix, apply_matrix(ch, rho.matrix))
        n_params = entanglement._direction_param_count(dec.size, k, fix_output_blocks)
        # A zero row and a row whose ray norm is below 1e-12 are masked out.
        points = np.concatenate([np.zeros((1, n_params)), 1e-14 * rng.normal(size=(1, n_params)),
                                 rng.normal(size=(20, n_params))])
        rays, ok = entanglement._assemble_directions(points, dec, k, fix_output_blocks)
        alone = [_ray_loop(p, dec, k, fix_output_blocks) for p in points]
        assert ok.tolist() == [x is not None for x in alone]
        for i, x in enumerate(alone):
            if x is not None:
                assert rays[i].tobytes() == x.tobytes()
            # The same point alone, as a stack of one row: the winning search ray is rebuilt so.
            one, one_ok = entanglement._assemble_directions(points[i][None], dec, k, fix_output_blocks)
            assert one_ok[0] == (x is not None)
            assert one[0].tobytes() == rays[i].tobytes()
        # The same rays shortened: at 1e-3 their steps reach the cap of 64, and
        # at 1e-6 the rounding-level step of a ray leaving the support exceeds
        # 1e-12 while moving theta_d by less, so it is still taken as 0.
        xs, ok = np.concatenate([rays, 1e-3 * rays, 1e-6 * rays]), np.concatenate([ok, ok, ok])
        values, steps = scorer.endpoints(xs, ok)
        want_steps = np.array([_step_loop(scorer, x) for x in xs])
        want = np.array([_score_loop(scorer, x) if o else -math.inf for x, o in zip(xs, ok)])
        assert steps[ok].tobytes() == want_steps[ok].tobytes()
        assert values.tobytes() == want.tobytes()
        for x, o, value, step in zip(xs, ok, values, steps):
            if o:
                one_values, one_steps = scorer.endpoints(x[None], np.ones(1, dtype=bool))
                assert (one_values[0], one_steps[0]) == (value, step)
        masked += int(np.sum(~ok))
        zero_steps += int(np.sum(ok & (steps == 0.0)))
        capped += int(np.sum(ok & (steps == 64.0)))
        scored += int(np.sum(np.isfinite(values)))
    assert masked and zero_steps and capped and scored, (masked, zero_steps, capped, scored)
