"""The cqc transition rows, from the dual effects, and the batched POVM
kernel against the validated loop routes they replace."""

import math

import numpy as np
import pytest

from qmi import capacity, channels, operators
from qmi.capacity import (
    CodingScheme,
    CqcInstance,
    StateFamily,
    _cqc_routes,
    cqc_capacity,
    cqc_mutual_entropy,
    pseudo_capacity,
    quantum_capacity,
)
from qmi.channels import (
    Povm,
    _square_root_povm,
    amplitude_damping_channel,
    apply_matrix,
    born_probabilities,
    depolarizing_channel,
    identity_channel,
    projective_povm,
)
from qmi.entanglement import class_mutual_and_capacity
from qmi.entropy import kl_divergence, shannon_entropy
from qmi.mutual import DualRouteValue, holevo_bound
from qmi.operators import ConsistencyError, DensityOperator, hermitian_part, pure_state
from qmi.sampling import (
    random_density,
    random_kraus_channel,
    random_povm,
    random_probability,
    random_pure,
    random_unitary,
    rng_from,
)
from qmi.search import SearchBudget


# -- the validated loop route ----------------------------------------------------------


def _reference_mutual(inst: CqcInstance) -> DualRouteValue:
    outputs = [apply_matrix(inst.channel, s.matrix) for s in inst.coding.states]
    dists = [born_probabilities(inst.decoding, out) for out in outputs]
    dists = [d / s if (s := float(d.sum())) > 0 else d for d in dists]
    avg = sum(lam * d for lam, d in zip(inst.weights, dists))
    kl_route = 0.0
    for lam, d in zip(inst.weights, dists):
        if lam <= 1e-15:
            continue
        term = kl_divergence(d, avg)
        if math.isinf(term):
            kl_route = math.inf
            break
        kl_route += lam * term
    shannon_route = shannon_entropy(avg) - sum(
        lam * shannon_entropy(d) for lam, d in zip(inst.weights, dists) if lam > 1e-15
    )
    result = DualRouteValue(value=kl_route, cross_value=shannon_route)
    if result.defect > 1e-8:
        raise ConsistencyError("routes disagree")
    return result


def _effects_loop(bs, dim):
    s = sum(b.conj().T @ b for b in bs)
    w, v = np.linalg.eigh((s + s.conj().T) / 2)
    floor = max(1e-10 * float(np.max(w)), 1e-300)
    w = np.clip(w, floor, None)
    inv_sqrt = (v * (1.0 / np.sqrt(w))) @ v.conj().T
    effects = [inv_sqrt @ b.conj().T @ b @ inv_sqrt for b in bs]
    effects = [(e + e.conj().T) / 2 for e in effects]
    residual = np.eye(dim) - sum(effects)
    rw, rv = np.linalg.eigh((residual + residual.conj().T) / 2)
    rw = np.clip(rw, 0.0, None)
    if float(np.sum(rw)) > 1e-12:
        effects.append((rv * rw) @ rv.conj().T)
    return effects


def _random_povm_loop(dim, n_outcomes, rng):
    bs = [
        rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        for _ in range(n_outcomes)
    ]
    s = sum(b.conj().T @ b for b in bs)
    w, v = np.linalg.eigh(hermitian_part(s))
    inv_sqrt = (v * (1.0 / np.sqrt(w))) @ v.conj().T
    return [hermitian_part(inv_sqrt @ b.conj().T @ b @ inv_sqrt) for b in bs]


def _loop_dists(inst: CqcInstance) -> np.ndarray:
    dists = [born_probabilities(inst.decoding, apply_matrix(inst.channel, s.matrix)) for s in inst.coding.states]
    return np.array([d / s if (s := float(d.sum())) > 0 else d for d in dists])


def _reference_capacity(channel, decoding, coding, mode, budget):
    """cqc_capacity's "coding" or "full" alternation letter by letter and
    effect by effect, through validated objects at every evaluation: the
    value, the evaluations and the final instance."""
    if mode == "coding":
        solved = cqc_capacity(channel, decoding, coding, "weights", budget.child(3))
        inst = CqcInstance(solved.maximizer["weights"], coding, channel, decoding)
        value, evals = solved.value, solved.evals
    else:
        value, evals, inst = _reference_capacity(channel, decoding, coding, "coding", budget.child(4))
    gain = math.inf
    for _ in range(max(1, budget.max_evals // 10)):
        if gain <= budget.tol:
            break
        before = value
        dists = _loop_dists(inst)
        avg = inst.weights @ dists
        ratios = np.log(np.maximum(dists, 1e-12)) - np.log(np.maximum(avg, 1e-12))
        duals = [sum(k.conj().T @ e @ k for k in channel.ops) for e in inst.decoding.effects]
        codes = []
        for row in ratios:
            top = np.linalg.eigh(sum(r * d for r, d in zip(row, duals)))[1][:, -1]
            codes.append(pure_state(top))
        trial = CqcInstance(inst.weights, CodingScheme(tuple(codes)), channel, inst.decoding)
        trial_value = _reference_mutual(trial).value
        evals += 1
        if math.isfinite(trial_value) and trial_value > value:
            inst, value = trial, trial_value
        if mode == "full":
            dists = _loop_dists(inst)
            ratios = np.log(np.maximum(dists, 1e-12)) - np.log(np.maximum(inst.weights @ dists, 1e-12))
            outputs = [apply_matrix(channel, s.matrix) for s in inst.coding.states]
            grads = [hermitian_part(sum(q * r * out for q, r, out in zip(inst.weights, column, outputs)))
                     for column in ratios.T]
            shift = min(float(np.linalg.eigvalsh(g)[0]) for g in grads)
            grads = [g - shift * np.eye(len(g)) for g in grads]
            effects = list(inst.decoding.effects)
            for _ in range(capacity._DECODING_ITERATIONS):
                terms = [g @ e @ g for g, e in zip(grads, effects)]
                w, v = np.linalg.eigh(sum(terms))
                inv_root = (v / np.sqrt(w)) @ v.conj().T
                effects = [hermitian_part(inv_root @ t @ inv_root) for t in terms]
            trial = CqcInstance(inst.weights, inst.coding, channel, Povm(tuple(effects)))
            trial_value = _reference_mutual(trial).value
            evals += 1
            if math.isfinite(trial_value) and trial_value > value:
                inst, value = trial, trial_value
        weights, value, _, solved = capacity._cqc_weights(_loop_dists(inst), budget, inst.weights)
        evals += solved
        inst = CqcInstance(weights, inst.coding, channel, inst.decoding)
        gain = value - before
    return value, evals, inst


# -- the transition rows ---------------------------------------------------------------


def _instances(seed):
    rng = rng_from(seed)
    for size, pure in ((2, True), (3, False), (3, True)):
        if pure:
            states = [pure_state(random_pure(2, rng)) for _ in range(size)]
        else:
            states = [random_density(2, rng) for _ in range(size)]
        channel = random_kraus_channel(2, 3, 2, rng)
        yield CqcInstance(random_probability(size, rng), CodingScheme(tuple(states)), channel, random_povm(3, 3, rng))
    # gamma = 1 sends every input to |0><0|: outcome columns of W are zero, and
    # the projective readout puts all mass on one outcome.
    coding = CodingScheme((pure_state([1.0, 0.0]), pure_state([0.6, 0.8j]), random_density(2, rng)))
    for decoding in (projective_povm(2), random_povm(2, 3, rng)):
        yield CqcInstance(random_probability(3, rng), coding, amplitude_damping_channel(1.0), decoding)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_evaluator_matches_the_loop_route(seed):
    for inst in _instances(seed):
        want = _reference_mutual(inst)
        got = cqc_mutual_entropy(inst)
        assert abs(got.value - want.value) <= 1e-13
        assert abs(got.cross_value - want.cross_value) <= 1e-13
        dual = capacity._dual_effects(inst.channel, np.stack(inst.decoding.effects))
        dists = capacity._transitions(dual, np.stack([s.matrix for s in inst.coding.states]))
        assert abs(_cqc_routes(inst.weights, dists).value - want.value) <= 1e-13


@pytest.mark.parametrize("letters", range(2, 8))
def test_zero_weight_letters_change_no_bit_of_the_kl_rows(letters):
    # Up to 7 letters numpy sums the terms in order, so the exact 0 a dropped
    # letter adds leaves the sum over the kept letters unchanged.
    rng = rng_from(40 + letters)
    dists = rng.dirichlet(np.ones(3), size=letters)
    keep = rng.random((50, letters)) < 0.6
    keep[:, 0] = True
    weights = np.where(keep, rng.dirichlet(np.ones(letters), size=50), 0.0)
    weights /= weights.sum(axis=1, keepdims=True)
    for row, kept in zip(weights, keep):
        value, kl, avg = capacity._cqc_kl(row, dists)
        kept_value, kept_kl, kept_avg = capacity._cqc_kl(row[kept], dists[kept])
        assert value == kept_value
        assert kl[kept].tobytes() == kept_kl.tobytes()
        assert avg.tobytes() == kept_avg.tobytes()


def test_infinite_kl_route_raises_on_both_paths():
    # The second letter has weight 1e-14 and charges an outcome whose mixture
    # probability (1e-14) is below the zero threshold: KL is +inf while the
    # Shannon difference stays finite.
    coding = CodingScheme((pure_state([1.0, 0.0]), pure_state([0.0, 1.0])))
    inst = CqcInstance(np.array([1.0 - 1e-14, 1e-14]), coding, identity_channel(2), projective_povm(2))
    with pytest.raises(ConsistencyError):
        _reference_mutual(inst)
    with pytest.raises(ConsistencyError):
        cqc_mutual_entropy(inst)


# -- the POVM kernel -----------------------------------------------------------------


def test_square_root_povm_matches_the_loop():
    rng = rng_from(7)
    for dim, n in ((2, 1), (2, 3), (3, 2), (4, 5)):
        bs = [rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)) for _ in range(n)]
        got = _square_root_povm(np.stack(bs))
        want = _effects_loop(bs, dim)
        assert got.shape[0] == n == len(want)
        assert np.max(np.abs(got - np.stack(want))) <= 1e-13


def test_square_root_povm_floor_and_completion():
    rng = rng_from(8)
    for dim, n, rank in ((2, 2, 1), (3, 2, 2), (4, 3, 1)):
        # Factors that all vanish on one rotated subspace: sum B^dag B is
        # singular up to round-off, so the floor acts and the missing identity
        # is appended as an effect.
        u = random_unitary(dim, rng)
        bs = [rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank)) for _ in range(n)]
        bs = [np.hstack([b, np.zeros((dim, dim - rank))]) @ u for b in bs]
        got = _square_root_povm(np.stack(bs))
        want = _effects_loop(bs, dim)
        assert got.shape[0] == n + 1 == len(want)
        assert np.max(np.abs(got - np.stack(want))) <= 1e-13
        Povm(tuple(got))


@pytest.mark.parametrize("seed", range(10))
def test_random_povm_matches_the_loop(seed):
    for dim, n in ((2, 3), (3, 4)):
        got = random_povm(dim, n, rng_from(seed)).effects
        want = _random_povm_loop(dim, n, rng_from(seed))
        assert len(got) == len(want)
        assert max(float(np.max(np.abs(g - w))) for g, w in zip(got, want)) <= 1e-13


# -- the capacity searches -------------------------------------------------------------


def _assert_certified(report, channel, decoding, coding, tol):
    """The weights report is I at its weights, and by the loop route its gap
    max_k KL(W_k || qW) - I is the reported one, at most tol."""
    weights = report.maximizer["weights"]
    inst = CqcInstance(weights, coding, channel, decoding)
    value = _reference_mutual(inst).value
    dists = [born_probabilities(decoding, apply_matrix(channel, s.matrix)) for s in coding.states]
    dists = [d / d.sum() for d in dists]
    avg = sum(lam * d for lam, d in zip(weights, dists))
    gap = max(kl_divergence(d, avg) for d in dists) - value
    assert abs(report.value - value) <= 1e-12
    assert abs(report.notes["gap"] - gap) <= 1e-12
    assert gap <= tol
    assert report.converged


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_cqc_capacity_matches_the_reference_searches(seed):
    # One mixed code: the first code step makes it pure.
    rng = rng_from(100 + seed)
    channel = random_kraus_channel(2, 2, 2, rng)
    decoding = random_povm(2, 3, rng)
    coding = CodingScheme((random_density(2, rng), pure_state(random_pure(2, rng))))
    budget = SearchBudget(restarts=2, max_evals=30, seed=seed)
    _assert_certified(cqc_capacity(channel, decoding, coding, "weights", budget), channel, decoding, coding,
                      budget.tol)
    for mode in ("coding", "full"):
        got = cqc_capacity(channel, decoding, coding, mode, budget)
        value, evals, inst = _reference_capacity(channel, decoding, coding, mode, budget)
        assert abs(got.value - value) <= 1e-12, mode
        assert got.evals == evals
        assert np.max(np.abs(got.maximizer["weights"] - inst.weights)) <= 1e-9
        assert np.max(np.abs(got.maximizer["codes"] - np.stack([s.matrix for s in inst.coding.states]))) <= 1e-9
        if mode == "full":
            assert np.max(np.abs(got.maximizer["effects"] - np.stack(inst.decoding.effects))) <= 1e-9
        else:
            assert "effects" not in got.maximizer


def _rcqc(seed):
    """A random cqc problem: a qubit or qutrit channel of two Kraus
    operators, a random POVM of d + 1 outcomes and d + 1 pure codes."""
    rng = np.random.default_rng(seed)
    d = 2 + seed % 2
    channel = random_kraus_channel(d, d, 2, rng)
    decoding = random_povm(d, d + 1, rng)
    coding = CodingScheme(tuple(pure_state(random_pure(d, rng)) for _ in range(d + 1)))
    return channel, decoding, coding, SearchBudget(2, 60, seed=seed)


def test_alternation_on_random_chains():
    raised = 0
    for seed in range(60):
        channel, decoding, coding, budget = _rcqc(seed)
        weights, coded, full = (cqc_capacity(channel, decoding, coding, mode, budget)
                                for mode in ("weights", "coding", "full"))
        assert weights.value <= coded.value <= full.value, seed
        raised += coded.value > weights.value + 1e-9
        for rep, povm in ((coded, decoding), (full, None)):
            point = rep.maximizer
            povm = povm or Povm(tuple(point["effects"]))
            states = CodingScheme(tuple(DensityOperator(c) for c in point["codes"]))
            rescored = cqc_mutual_entropy(CqcInstance(point["weights"], states, channel, povm))
            assert abs(rescored.value - rep.value) <= 1e-12, seed
        chi = holevo_bound(full.maximizer["weights"], list(full.maximizer["codes"]), channel)
        assert full.value <= chi + 1e-9, seed
    assert raised >= 55


def test_alternation_rounds_never_lower_the_value(monkeypatch):
    # Every mode ends each round on the weights solve, and "full" starts
    # from "coding", which starts from "weights": the solves' values, in
    # call order, are the chain's values round by round.
    solve = capacity._cqc_weights
    values = []

    def recording(*args):
        result = solve(*args)
        values.append(result[1])
        return result

    monkeypatch.setattr(capacity, "_cqc_weights", recording)
    for seed in range(10):
        channel, decoding, coding, budget = _rcqc(seed)
        values.clear()
        rep = cqc_capacity(channel, decoding, coding, "full", budget)
        assert len(values) > 1 + rep.notes["rounds"]
        assert all(b >= a for a, b in zip(values, values[1:])), seed
        assert values[-1] == rep.value


def test_cqc_capacity_rejects_mismatched_dimensions():
    coding = CodingScheme((pure_state([1.0, 0.0]), pure_state([0.0, 1.0])))
    with pytest.raises(ValueError, match="coding dimension"):
        cqc_capacity(identity_channel(3), projective_povm(3), coding, "full")
    with pytest.raises(ValueError, match="decoding dimension"):
        cqc_capacity(identity_channel(2), projective_povm(3), coding, "weights")


def test_family_matrix_is_the_validated_state():
    rng = rng_from(9)
    for family in (StateFamily("full", 3), StateFamily("rank", 3, 1), StateFamily("diagonal", 2)):
        for _ in range(10):
            params = rng.normal(size=family.n_params)
            mats, traced = family._matrices_from_params(params[None])
            assert traced[0]
            assert mats[0].tobytes() == family.state_from_params(params).matrix.tobytes()
    zero = np.zeros(8)
    assert not StateFamily("full", 2)._matrices_from_params(zero[None])[1][0]
    assert StateFamily("full", 2).state_from_params(zero) is None


# -- validation only at the boundary ---------------------------------------------------


@pytest.fixture
def constructions(monkeypatch):
    """Counts validated CqcInstance, Povm and DensityOperator constructions."""
    count = [0]
    for cls in (capacity.CqcInstance, channels.Povm, operators.DensityOperator):
        original = cls.__dict__["__post_init__"]

        def counted(self, original=original):
            count[0] += 1
            original(self)

        monkeypatch.setattr(cls, "__post_init__", counted)
    return count


def _counted(count, run):
    before = count[0]
    run()
    return count[0] - before


def test_searches_validate_only_at_the_boundary(constructions):
    coding = CodingScheme((pure_state([1.0, 0.0]), pure_state([0.0, 1.0])))
    channel = depolarizing_channel(0.2, 2)
    decoding = projective_povm(2)
    runs = {
        "cqc full": lambda evals: cqc_capacity(channel, decoding, coding, "full", SearchBudget(2, evals)),
        "quantum": lambda evals: quantum_capacity(channel, StateFamily("full", 2), SearchBudget(2, evals // 4)),
        "pseudo capacity": lambda evals: pseudo_capacity(channel, StateFamily("full", 2), 2, SearchBudget(2, evals // 4)),
        "d capacity": lambda evals: class_mutual_and_capacity(
            None, channel, "d", SearchBudget(2, evals // 4)
        ),
    }
    for name, run in runs.items():
        small = _counted(constructions, lambda: run(40))
        large = _counted(constructions, lambda: run(80))
        assert small == large, (name, small, large)
    # The maximizer of "cqc full": two coded states, the POVM and the instance.
    assert _counted(constructions, lambda: runs["cqc full"](80)) == 4
