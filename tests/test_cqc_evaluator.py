"""The cached cqc evaluator and the batched POVM kernel against the validated
loop routes they replace."""

import math

import numpy as np
import pytest

from qmi import capacity, channels, operators
from qmi.capacity import (
    CodingScheme,
    CqcInstance,
    StateFamily,
    _CqcEvaluator,
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
from qmi.mutual import DualRouteValue
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
from qmi.search import SearchBudget, complex_from_params, maximize, softmax


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


def _coding_loop(params, size, dim, pure):
    states = []
    if pure:
        for k in range(size):
            v = complex_from_params(params[k * 2 * dim : (k + 1) * 2 * dim], dim, 1).reshape(-1)
            norm = np.linalg.norm(v)
            if norm < 1e-8:
                return None
            v = v / norm
            states.append(DensityOperator(np.outer(v, v.conj())))
    else:
        per = 2 * dim * dim
        for k in range(size):
            a = complex_from_params(params[k * per : (k + 1) * per], dim, dim)
            m = a @ a.conj().T
            tr = float(np.real(np.trace(m)))
            if tr < 1e-12:
                return None
            states.append(DensityOperator(m / tr))
    return CodingScheme(tuple(states))


def _sqrt_params_loop(mats, slots, dim):
    per = 2 * dim * dim
    out = np.zeros(slots * per)
    for j, m in enumerate(mats[:slots]):
        w, v = np.linalg.eigh(m)
        b = (v * np.sqrt(np.clip(w, 0, None))) @ v.conj().T
        out[j * per : j * per + dim * dim] = np.real(b).reshape(-1)
        out[j * per + dim * dim : (j + 1) * per] = np.imag(b).reshape(-1)
    return out


def _reference_capacity(channel, decoding, coding, mode, budget, pure=True):
    """cqc_capacity's "coding" or "full" search through validated instances at
    every evaluation, floored at the "weights" solve of `cqc_capacity`."""
    size, dim, out_dim = coding.size, channel.in_dim, channel.out_dim
    n_out = decoding.n_outcomes

    def value_at(weights, cod, dec):
        return _reference_mutual(CqcInstance(weights, cod, channel, dec)).value

    if mode == "coding":
        solved = cqc_capacity(channel, decoding, coding, "weights", budget.child(3))
        floor, floor_evals = solved.value, solved.evals
    else:
        floor, floor_evals = _reference_capacity(channel, decoding, coding, "coding", budget.child(4), pure)
    per_code = 2 * dim if pure else 2 * dim * dim
    n_codes = size * per_code
    if pure:
        codes = np.zeros(n_codes)
        for k, s in enumerate(coding.states):
            vec = np.linalg.eigh(s.matrix)[1][:, -1]
            codes[k * 2 * dim : k * 2 * dim + dim] = vec.real
            codes[k * 2 * dim + dim : (k + 1) * 2 * dim] = vec.imag
    else:
        codes = _sqrt_params_loop([s.matrix for s in coding.states], size, dim)
    start = [np.zeros(size), codes]

    def objective(params):
        cod = _coding_loop(params[size : size + n_codes], size, dim, pure)
        if cod is None:
            return -math.inf
        dec = decoding
        if mode == "full":
            per = 2 * out_dim * out_dim
            rest = params[size + n_codes :]
            bs = [complex_from_params(rest[j * per : (j + 1) * per], out_dim, out_dim) for j in range(n_out)]
            dec = Povm(tuple(_effects_loop(bs, out_dim)))
        return value_at(softmax(params[:size]), cod, dec)

    if mode == "full":
        start.append(_sqrt_params_loop(decoding.effects, n_out, out_dim))
    start = np.concatenate(start)
    result = maximize(objective, start.size, budget, starts=[start])
    return max(result.value, floor), result.evals + floor_evals


# -- the evaluator ---------------------------------------------------------------------


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
        evaluator = _CqcEvaluator(inst.channel, inst.decoding)
        states = np.stack([s.matrix for s in inst.coding.states])
        effects = np.stack(inst.decoding.effects)
        for dists in (
            evaluator.transitions(states),
            evaluator.decoded_transitions(states, effects),
        ):
            assert abs(_cqc_routes(inst.weights, dists).value - want.value) <= 1e-13
        if all(np.linalg.matrix_rank(s.matrix, tol=1e-9) == 1 for s in inst.coding.states):
            vectors = np.stack([np.linalg.eigh(s.matrix)[1][:, -1] for s in inst.coding.states])
            dists = evaluator.pure_transitions(vectors)
            assert abs(_cqc_routes(inst.weights, dists).value - want.value) <= 1e-13


@pytest.mark.parametrize("letters", range(2, 8))
def test_zero_weight_letters_change_no_bit_of_the_kl_rows(letters):
    # Up to 7 letters numpy sums a row in order, so the exact 0 a dropped
    # letter adds leaves the sum over the kept letters unchanged.
    rng = rng_from(40 + letters)
    dists = rng.dirichlet(np.ones(3), size=letters)
    keep = rng.random((50, letters)) < 0.6
    keep[:, 0] = True
    weights = np.where(keep, rng.dirichlet(np.ones(letters), size=50), 0.0)
    weights /= weights.sum(axis=1, keepdims=True)
    got = capacity._cqc_kl(weights, dists)
    for row, kept, value in zip(weights, keep, got):
        assert value == capacity._cqc_kl(row[kept][None], dists[kept])[0]


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
    rng = rng_from(100 + seed)
    channel = random_kraus_channel(2, 2, 2, rng)
    decoding = random_povm(2, 3, rng)
    coding = CodingScheme((random_density(2, rng), pure_state(random_pure(2, rng))))
    budget = SearchBudget(restarts=2, max_evals=30, seed=seed)
    for pure in (True, False):
        _assert_certified(cqc_capacity(channel, decoding, coding, "weights", budget, pure_coding=pure),
                          channel, decoding, coding, budget.tol)
        for mode in ("coding", "full"):
            got = cqc_capacity(channel, decoding, coding, mode, budget, pure_coding=pure)
            value, evals = _reference_capacity(channel, decoding, coding, mode, budget, pure)
            assert abs(got.value - value) <= 1e-12, (mode, pure)
            assert got.evals == evals


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
        "cqc mixed full": lambda evals: cqc_capacity(
            channel, decoding, coding, "full", SearchBudget(2, evals), pure_coding=False
        ),
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
    assert _counted(constructions, lambda: runs["cqc full"](80)) == 0
