"""Entangling operators, the q/d/c hierarchy, and class-constrained values."""

import math

import numpy as np
import pytest

from qmi.capacity import StateFamily, quantum_capacity
from qmi.channels import (
    amplitude_damping_channel,
    apply_matrix,
    depolarizing_channel,
    identity_channel,
    phase_damping_channel,
)
from qmi.entanglement import (
    EntanglingOperator,
    _blocks_in_eigenbasis,
    class_mutual_and_capacity,
    classify_compound,
    conditional_and_degree,
    d_compound,
    entangled_mutual_entropy,
    entangling_from_state,
    phi,
    phi_star,
    q_entropy_closed_form,
    q_entropy_sup,
    qdc_hierarchy,
    standard_entanglement,
    strong_orthogonality_defect,
    weak_orthogonality_defect,
)
from qmi.entropy import shannon_entropy, von_neumann_entropy
from qmi.mutual import CompoundState, ohya_mutual_entropy
from qmi.operators import ZERO_TOL, DensityOperator, eigenbasis, maximally_mixed, partial_trace
from qmi.sampling import (
    random_density,
    random_hermitian,
    random_kraus_channel,
    random_probability,
    random_unitary,
    rng_from,
)
from qmi.search import SearchBudget


def _compound(theta, d_g, d_k):
    return CompoundState(
        theta=DensityOperator(theta),
        d_g=d_g,
        d_k=d_k,
        input_marginal=DensityOperator(partial_trace(theta, (d_g, d_k), keep=0)),
        output_marginal=DensityOperator(partial_trace(theta, (d_g, d_k), keep=1)),
    )

TINY = SearchBudget(restarts=2, max_evals=40, seed=3, tol=1e-6)

# 2 S(diag(0.7, 0.3)): the standard entanglement doubles the entropy
TWICE_S_7030 = 1.221728604109787


def test_amplitudes_reconstruct_the_state():
    rng = rng_from(61)
    for _ in range(30):
        theta = random_density(4, rng).matrix
        kappa = entangling_from_state(theta, (2, 2))
        assert np.linalg.norm(kappa.reconstruct() - theta) < 1e-9


def test_weak_orthogonality_in_the_eigenbasis():
    rng = rng_from(62)
    for _ in range(30):
        theta = random_density(6, rng).matrix
        kappa = entangling_from_state(theta, (2, 3))
        assert weak_orthogonality_defect(kappa) < 1e-9
        # the scalar products recover the marginal weights
        np.testing.assert_allclose(np.diag(kappa.gram()).real, kappa.weights, atol=1e-9)


def test_rotated_basis_breaks_weak_orthogonality():
    vec = np.zeros(4)
    vec[0], vec[3] = math.sqrt(0.9), math.sqrt(0.1)
    theta = np.outer(vec, vec)
    had = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
    defect = weak_orthogonality_defect(entangling_from_state(theta, (2, 2), basis=had))
    # (0.9 - 0.1)/2 exactly: the off-diagonal of the rotated marginal
    assert abs(defect - 0.4) < 1e-12


def test_strong_orthogonality_for_sector_compounds():
    rng = rng_from(63)
    for _ in range(30):
        p = random_probability(2, rng)
        omegas = [random_density(2, rng).matrix for _ in range(2)]
        built = d_compound(p, omegas)
        assert strong_orthogonality_defect(built.kappa, p, omegas) < 1e-10
        assert np.linalg.norm(built.kappa.reconstruct() - built.compound.theta.matrix) < 1e-10


def test_lifting_duality():
    rng = rng_from(64)
    for _ in range(20):
        theta = random_density(4, rng).matrix
        kappa = entangling_from_state(theta, (2, 2))
        a = random_hermitian(2, rng)
        b = random_hermitian(2, rng)
        lhs = float(np.real(np.trace(phi(kappa, a) @ b)))
        rhs = float(np.real(np.trace(phi_star(kappa, b) @ a)))
        assert abs(lhs - rhs) < 1e-10


def test_lifting_preserves_identity_and_trace():
    rng = rng_from(65)
    theta = random_density(4, rng).matrix
    kappa = entangling_from_state(theta, (2, 2))
    # phi carries the identity to the gram matrix (trace one)
    np.testing.assert_allclose(phi(kappa, np.eye(2)).trace().real, 1.0, atol=1e-10)


def test_entangling_operator_validates():
    with pytest.raises(ValueError):
        EntanglingOperator(vectors=np.ones((2, 1, 2), dtype=complex), basis=np.eye(2, dtype=complex))


def test_entangling_operator_rejects_non_finite_entries():
    vectors = np.full((2, 1, 2), 0.5, dtype=complex)
    vectors[0, 0, 0] = np.nan
    with pytest.raises(ValueError, match="non-finite entry in amplitudes"):
        EntanglingOperator(vectors=vectors, basis=np.eye(2, dtype=complex))
    with pytest.raises(ValueError, match="non-finite entry in basis"):
        EntanglingOperator(vectors=np.full((2, 1, 2), 0.5, dtype=complex), basis=np.diag([1.0, np.nan]))


@pytest.mark.parametrize("seed", range(4))
def test_stacked_constructions_equal_their_loops_bit_for_bit(seed):
    rng = rng_from(300 + seed)
    g, k = 3, 2
    p = random_probability(g, rng)
    omegas = [random_density(k, rng).matrix for _ in range(g - 1)] + [np.diag([1.0, 0.0])]
    # d_compound's amplitudes: one ancilla sector per support eigenvector.
    sectors = []
    for n, om in enumerate(omegas):
        w, u = eigenbasis(om)
        sectors += [(n, math.sqrt(p[n] * w[j]) * u[:, j]) for j in range(k) if w[j] > ZERO_TOL]
    want = np.zeros((g, len(sectors), k), dtype=complex)
    for sector, (n, amplitude) in enumerate(sectors):
        want[n, sector] = amplitude
    np.testing.assert_array_equal(d_compound(p, omegas).kappa.vectors, want)
    # strong_orthogonality_defect against the block loop.
    kappa = entangling_from_state(random_density(g * k, rng).matrix, (g, k))
    want = 0.0
    for n in range(g):
        for m in range(g):
            dev = kappa.block(n, m) - p[n] * omegas[n] if n == m else kappa.block(n, m)
            want = max(want, float(np.max(np.abs(dev))))
    assert strong_orthogonality_defect(kappa, p, omegas) == want
    with pytest.raises(ValueError, match="1 weights and 1 outputs for 3 amplitudes"):
        strong_orthogonality_defect(kappa, [1.0], omegas[:1])
    # classify_compound's off-diagonal norm against np.linalg.norm per block.
    theta = random_density(g * k, rng).matrix
    blocks = _blocks_in_eigenbasis(theta, (g, k))
    want = max(float(np.linalg.norm(blocks[n, m])) for n in range(g) for m in range(n + 1, g))
    assert classify_compound(theta, (g, k)).off_diag_norm == want


def test_standard_entanglement_doubles_entropy():
    sigma = DensityOperator(np.diag([0.7, 0.3]))
    built = standard_entanglement(sigma)
    got = entangled_mutual_entropy(built)
    assert abs(got - TWICE_S_7030) < 1e-12
    assert built.entanglement_class.tag == "q"
    # both marginals equal sigma
    np.testing.assert_allclose(built.compound.input_marginal.matrix, sigma.matrix, atol=1e-10)
    np.testing.assert_allclose(built.compound.output_marginal.matrix, sigma.matrix, atol=1e-10)


def test_product_states_carry_no_mutual_entropy():
    rng = rng_from(66)
    a = random_density(2, rng)
    b = random_density(2, rng)
    got = entangled_mutual_entropy(_compound(a.tensor(b).matrix, 2, 2))
    assert abs(got) < 1e-9


def test_classification_of_canonical_compounds():
    rng = rng_from(67)
    product = np.kron(np.diag([0.6, 0.4]), random_density(2, rng).matrix)
    assert classify_compound(product, (2, 2)).tag == "c"

    omegas = [np.diag([0.9, 0.1]), np.array([[0.5, 0.25], [0.25, 0.5]])]
    diag = d_compound(np.array([0.5, 0.5]), omegas)
    assert diag.entanglement_class.tag == "d"

    bell = standard_entanglement(maximally_mixed(2))
    assert classify_compound(bell.compound.theta.matrix, (2, 2)).tag == "q"


def test_q_entropy_closed_form_identity():
    rng = rng_from(68)
    for _ in range(10):
        mus = random_probability(2, rng)
        sigmas = [random_density(2, rng).matrix for _ in range(2)]
        got = q_entropy_closed_form(list(zip(mus, sigmas)))
        want = shannon_entropy(mus) + 2 * sum(
            mu * von_neumann_entropy(s) for mu, s in zip(mus, sigmas)
        )
        assert abs(got - want) < 1e-10


def test_q_entropy_sup_recovers_double_entropy():
    sigma = DensityOperator(np.diag([0.7, 0.3]))
    rep = q_entropy_sup(sigma, TINY)
    assert abs(rep.value - TWICE_S_7030) < 1e-3
    assert rep.notes["standard_value"] <= rep.value + 1e-12


def test_degree_of_disentanglement_extremes():
    cond, degree = conditional_and_degree(standard_entanglement(maximally_mixed(2)))
    assert abs(degree + math.log(2.0)) < 1e-12
    assert cond >= -1e-12

    # a product state has degree S(sigma) >= 0
    rng = rng_from(69)
    b = random_density(2, rng)
    theta = np.kron(np.diag([0.5, 0.5]), b.matrix)
    _, product_degree = conditional_and_degree(_compound(theta, 2, 2))
    assert product_degree >= -1e-12


def test_class_values_at_identity_channel():
    rho = DensityOperator(np.diag([0.7, 0.3]))
    s = von_neumann_entropy(rho.matrix)
    levels = qdc_hierarchy(rho, identity_channel(2), TINY)
    assert abs(levels["c"].value - s) < 1e-6
    assert abs(levels["d"].value - s) < 1e-6
    assert abs(levels["q"].value - 2 * s) < 1e-3
    assert levels["c"].value <= levels["d"].value + 1e-9
    assert levels["d"].value <= levels["q"].value + 1e-9


def test_class_orderings_on_random_channels():
    rng = rng_from(70)
    for _ in range(5):
        rho = random_density(2, rng)
        ch = random_kraus_channel(2, 2, 2, rng)
        levels = qdc_hierarchy(rho, ch, TINY)
        if levels["c"].notes.get("feasible", True):
            assert levels["c"].value <= levels["d"].value + 2 * TINY.tol
        assert levels["d"].value <= levels["q"].value + 2 * TINY.tol


def test_single_class_entry_point_matches_hierarchy():
    rho = DensityOperator(np.diag([0.6, 0.4]))
    ch = identity_channel(2)
    alone = class_mutual_and_capacity(rho, ch, "d", TINY)
    together = qdc_hierarchy(rho, ch, TINY)["d"]
    assert abs(alone.value - together.value) < 1e-9


def test_rank_deficient_hierarchy_reaches_double_entropy():
    rho = DensityOperator(np.diag([0.7, 0.3, 0.0]))
    levels = qdc_hierarchy(rho, identity_channel(3), TINY)
    assert levels["c"].value <= levels["d"].value + 1e-9
    assert levels["d"].value <= levels["q"].value + 1e-9
    assert abs(levels["q"].value - TWICE_S_7030) < 1e-6


def test_q_never_exceeds_twice_the_smaller_entropy():
    # The ray steps once stopped where the compound had an eigenvalue of -1e-10,
    # and q came out as 2 S(rho) + 1e-10 here. Only PSD compounds are scored now.
    m = np.diag([0.7, 0.3, 0.0]).astype(complex)
    ch = identity_channel(3)
    q = qdc_hierarchy(DensityOperator(m), ch, TINY)["q"].value
    assert q <= 2 * min(von_neumann_entropy(m), von_neumann_entropy(apply_matrix(ch, m)))


def _hierarchy_searches(monkeypatch, ch) -> int:
    """Search-driver calls of one fixed-state hierarchy, whose values match
    the single-class entry point."""
    import qmi.entanglement
    import qmi.mutual
    import qmi.search

    calls = []

    def counting(name, original):
        def counted(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        return counted

    # Every driver binding of the modules that the hierarchy searches in.
    for module, name in ((qmi.entanglement, "maximize_batch"), (qmi.mutual, "maximize_batch"),
                         (qmi.mutual, "_schatten_ascent")):
        monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    rho = DensityOperator(np.diag([0.4, 0.4, 0.2]))
    levels = qdc_hierarchy(rho, ch, TINY)
    searches = len(calls)
    for tag, rep in levels.items():
        assert type(rep.value) is float
        assert rep.value == class_mutual_and_capacity(rho, ch, tag, TINY).value
    return searches


def test_fixed_state_hierarchy_surveys_once(monkeypatch):
    # Two Kraus operators give rank-2 qutrit outputs: no random ray has a PSD
    # step, so only the decomposition survey runs.
    assert _hierarchy_searches(monkeypatch, random_kraus_channel(3, 3, 2, rng_from(71))) == 1


def test_full_rank_outputs_run_one_ray_search(monkeypatch):
    # Every decomposition through a depolarizing channel has one value, so d
    # is valued once with no survey, as ohya_mutual_entropy values it; the
    # one search call left is the ray search.
    assert _hierarchy_searches(monkeypatch, depolarizing_channel(0.3, 3)) == 1


def test_identity_channel_q_needs_no_ray_search():
    # Pure outputs: the candidate ray reaches the standard entanglement, and
    # the random-ray search is skipped.
    rho = DensityOperator(np.diag([0.5, 0.3, 0.2]))
    levels = qdc_hierarchy(rho, identity_channel(3), TINY)
    assert abs(levels["q"].value - 2 * von_neumann_entropy(rho.matrix)) < 1e-12
    assert levels["q"].evals == levels["d"].evals


def test_hierarchy_rejects_mismatched_dimensions():
    rho = DensityOperator(np.diag([0.6, 0.4]))
    ch = identity_channel(3)
    message = "state dimension 2 does not match the channel input dimension 3"
    with pytest.raises(ValueError, match=message):
        qdc_hierarchy(rho, ch, TINY)
    with pytest.raises(ValueError, match=message):
        class_mutual_and_capacity(rho, ch, "d", TINY)


def test_capacities_at_identity_channel():
    levels = qdc_hierarchy(None, identity_channel(2), TINY)
    assert abs(levels["c"].value - math.log(2.0)) < 1e-6
    assert abs(levels["d"].value - math.log(2.0)) < 1e-6
    assert abs(levels["q"].value - 2 * math.log(2.0)) < 1e-6


def _capacity_channels():
    rng = rng_from(72)
    return [amplitude_damping_channel(0.3)] + [random_kraus_channel(2, 2, 2, rng) for _ in range(2)]


@pytest.mark.parametrize("index", range(3))
def test_capacity_classes_are_ordered(index):
    ch = _capacity_channels()[index]
    levels = qdc_hierarchy(None, ch, TINY)
    assert levels["c"].value <= levels["d"].value <= levels["q"].value
    for rep in levels.values():
        if rep.notes["feasible"]:
            state = DensityOperator(rep.maximizer["state"])
            assert np.allclose(rep.maximizer["decomposition"].reconstruct(), state.matrix, atol=1e-8)


def test_every_class_report_carries_state_and_decomposition():
    rng = rng_from(81)
    ch = random_kraus_channel(2, 2, 2, rng)
    levels = qdc_hierarchy(random_density(2, rng), ch, SearchBudget(1, 8, seed=1))
    assert not levels["c"].notes["feasible"]  # generic outputs of a nondegenerate qubit rho
    assert levels["c"].maximizer == {"state": None, "decomposition": None}
    for rep in levels.values():
        assert set(rep.maximizer) == {"state", "decomposition"}


def test_single_class_capacity_matches_hierarchy():
    ch = amplitude_damping_channel(0.3)
    levels = qdc_hierarchy(None, ch, TINY)
    for tag, rep in levels.items():
        assert class_mutual_and_capacity(None, ch, tag, TINY).value == rep.value


def _rk(d: int, seed: int):
    return random_kraus_channel(d, d, 2, np.random.default_rng(seed))


CAPACITY_CASES = {
    "amplitude damping 0.3": lambda: amplitude_damping_channel(0.3),
    "amplitude damping 0.6": lambda: amplitude_damping_channel(0.6),
    "qubit depolarizing 0.3": lambda: depolarizing_channel(0.3, 2),
    "qutrit depolarizing 0.2": lambda: depolarizing_channel(0.2, 3),
    **{f"rk2_{s}": (lambda s=s: _rk(2, s)) for s in range(4)},
    **{f"rk3_{s}": (lambda s=s: _rk(3, s)) for s in range(2)},
}


@pytest.mark.parametrize("budget", [TINY, SearchBudget(2, 40, seed=5)], ids=["tiny", "2x40"])
@pytest.mark.parametrize("name", list(CAPACITY_CASES))
def test_capacity_mode_d_is_the_quantum_capacity(name, budget):
    # The d class reproduces the Ohya supremum, so its capacity is the quantum
    # capacity; both come from one family search at the same budget.
    ch = CAPACITY_CASES[name]()
    quantum = quantum_capacity(ch, StateFamily("full", ch.in_dim), budget)
    levels = qdc_hierarchy(None, ch, budget)
    assert levels["d"].value == quantum.value
    assert np.array_equal(levels["d"].maximizer["state"], quantum.maximizer["state"])
    assert (levels["d"].evals, levels["d"].converged) == (quantum.evals, quantum.converged)
    assert 0.0 <= levels["c"].value <= levels["d"].value <= levels["q"].value


def test_capacity_mode_d_keeps_the_search_maximizer_on_exact_ties():
    # A qubit unitary channel gives every decomposition of I/2 the value ln 2,
    # up to rounding: here the first best offer is another decomposition of
    # I/2 than the one the search reports, one rounding step above it.
    ch = random_kraus_channel(2, 2, 1, rng_from(1))
    budget = SearchBudget(2, 12, seed=3)
    quantum = quantum_capacity(ch, StateFamily("full", 2), budget)
    levels = qdc_hierarchy(None, ch, budget)
    assert levels["d"].value == quantum.value
    assert abs(quantum.value - math.log(2.0)) < 1e-12
    # Its outputs commute, so the c record is the same decomposition.
    assert levels["c"].value == levels["d"].value
    assert levels["c"].maximizer["decomposition"] is levels["d"].maximizer["decomposition"]


@pytest.mark.parametrize("channel", ["depolarizing", "identity"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_fixed_state_d_is_the_ohya_search_maximizer(seed, channel):
    # Every decomposition of a degenerate qutrit state scores the same value up
    # to rounding under these channels. The d record is the Ohya search's own
    # maximizer, not the first best offer, which on seeds 0 (depolarizing),
    # 1 and 2 (identity) is another decomposition a rounding step away.
    rng = rng_from(seed)
    u = random_unitary(3, rng)
    rho = DensityOperator((u * np.array([0.4, 0.4, 0.2])) @ u.conj().T)
    ch = depolarizing_channel(0.3, 3) if channel == "depolarizing" else identity_channel(3)
    budget = SearchBudget(2, 40, seed=seed)
    ohya = ohya_mutual_entropy(rho, ch, budget)
    levels = qdc_hierarchy(rho, ch, budget)
    d = levels["d"].maximizer["decomposition"]
    assert levels["d"].value == ohya.value
    assert np.array_equal(d.weights, ohya.decomposition.weights)
    assert np.array_equal(d.vectors, ohya.decomposition.vectors)
    assert (levels["d"].evals, levels["d"].converged) == (ohya.evals, ohya.converged)
    # The outputs commute, so the c record is the same decomposition.
    assert levels["c"].maximizer["decomposition"] is d
    assert levels["q"].notes["diagonal_value"] == ohya.value


def test_capacity_mode_c_is_not_negative():
    # The best commuting decomposition of rk3_0 is a pure state, of value 0;
    # its component terms, rounded, summed to -5.6e-17 before each was floored
    # at 0. The Gram-side term reads S(ch(rho)) and tr ch(rho) ln ch(rho) from
    # two factorizations, so it rounds to a few 1e-16 of either sign.
    levels = qdc_hierarchy(None, _rk(3, 0), SearchBudget(2, 40, seed=5))
    assert levels["c"].notes["feasible"]
    assert 0.0 <= levels["c"].value <= 1e-15


def test_capacity_hierarchy_searches_states_once(monkeypatch):
    import qmi.capacity
    import qmi.search

    calls = []

    def counting(*args, **kwargs):
        calls.append(args[1])
        return qmi.search.maximize_batch(*args, **kwargs)

    monkeypatch.setattr(qmi.capacity, "maximize_batch", counting)  # the family search of _quantum_search
    levels = qdc_hierarchy(None, amplitude_damping_channel(0.3), TINY)
    assert calls == [8]  # one search over full-rank qubit states
    assert levels["c"].evals == levels["d"].evals <= levels["q"].evals


@pytest.mark.parametrize("rho_seed, ch, separate_c", [
    (100, _rk(3, 0), False),  # no commuting offer: c infeasible
    (None, _rk(2, 0), True),  # c is the best commuting offer, not d
    (None, depolarizing_channel(0.3, 2), False),  # d's outputs commute: c is d
])
def test_hierarchy_checks_each_reported_decomposition_once(monkeypatch, rho_seed, ch, separate_c):
    # d is the search's maximizer, checked once as ohya_mutual_entropy and
    # quantum_capacity check it; c is checked apart only when it is not d. The
    # hierarchy itself sends d through the channel once, for its commutation
    # defect and q's rays.
    import qmi.entanglement
    import qmi.mutual

    checks, sends = [], []
    fixed, transmitted = qmi.mutual._dual_route, qmi.entanglement._transmitted

    def counted_fixed(*args):  # every `mutual_entropy_fixed` and `_checked_ohya` check
        checks.append(args[2])
        return fixed(*args)

    def counted_transmitted(*args):
        sends.append(args[1])
        return transmitted(*args)

    monkeypatch.setattr(qmi.mutual, "_dual_route", counted_fixed)
    monkeypatch.setattr(qmi.entanglement, "_transmitted", counted_transmitted)
    rho = None if rho_seed is None else random_density(ch.in_dim, np.random.default_rng(rho_seed))
    levels = qdc_hierarchy(rho, ch, SearchBudget(2, 40, seed=5))
    c, d = (levels[t].maximizer["decomposition"] for t in ("c", "d"))
    reported = [d] if c is None or c is d else [d, c]
    assert (len(reported) == 2) == separate_c
    assert list(map(id, checks)) == list(map(id, reported))
    assert list(map(id, sends)) == [id(d)]


def test_q_stays_within_the_entropy_bound_on_random_channels():
    # The leading output eigenvectors of a general channel overlap; a candidate
    # ray built from them without removing the block traces moved the input
    # marginal, and q was scored at up to 2 min(S(rho), S(ch(rho))) + 0.05.
    rng = rng_from(73)
    rho = maximally_mixed(2)
    for _ in range(4):
        ch = random_kraus_channel(2, 2, 2, rng)
        q = qdc_hierarchy(rho, ch, TINY)["q"].value
        out = apply_matrix(ch, rho.matrix)
        assert q <= 2 * min(von_neumann_entropy(rho.matrix), von_neumann_entropy(out)) + 1e-12


@pytest.mark.parametrize("case", ["identity", "depolarizing", "two operators"])
def test_a_fixed_state_hierarchy_takes_the_ohya_path_without_a_search(monkeypatch, case):
    # At a state with a unique decomposition, or through a channel whose pure
    # outputs share one entropy, d is ohya_mutual_entropy's own no-search
    # value: no Schatten search runs, and so nothing is offered to c.
    import qmi.mutual

    rho, ch = {
        "identity": (np.diag([0.5, 0.3, 0.2]), identity_channel(3)),
        "depolarizing": (np.diag([0.4, 0.4, 0.2]), depolarizing_channel(0.3, 3)),
        "two operators": (np.diag([0.5, 0.3, 0.2]), _rk(3, 0)),
    }[case]
    rho, budget = DensityOperator(rho), SearchBudget(2, 40, seed=5)
    want = ohya_mutual_entropy(rho, ch, budget)
    calls = []
    for name in ("_schatten_ascent", "_ohya_suprema"):
        monkeypatch.setattr(qmi.mutual, name, lambda *args, name=name, **kwargs: calls.append(name))
    levels = qdc_hierarchy(rho, ch, budget)
    assert calls == []
    c, d, q = (levels[t] for t in "cdq")
    assert d.value == want.value and (d.evals, d.converged) == (1, True)
    assert q.value >= d.value
    if case == "two operators":  # rank-2 outputs that do not commute
        assert (c.value, c.notes["feasible"], c.maximizer["decomposition"]) == (0.0, False, None)
        assert abs(d.value - 0.664158) < 1e-6
        assert q.evals == 1
        return
    assert c.maximizer["decomposition"] is d.maximizer["decomposition"]
    assert (c.value, c.evals, c.notes["feasible"]) == (d.value, 1, True)
    if case == "identity":
        assert abs(d.value - von_neumann_entropy(rho.matrix)) < 1e-12
        assert abs(q.value - 2 * von_neumann_entropy(rho.matrix)) < 1e-12
        assert q.evals == 1
    else:
        assert q.evals == 121  # the canonical decomposition, then 120 ray evaluations


def _entropy(m: np.ndarray) -> float:
    w = np.linalg.eigvalsh(m)
    w = w[w > 1e-300]
    return float(-np.sum(w * np.log(w)))


def _coherent_information(rho: np.ndarray, ch) -> float:
    """I_BSST = S(rho) + S(ch(rho)) - S(ch^c(rho)), with the complementary
    channel's output (ch^c(rho))_ij = tr(K_i rho K_j^dag)."""
    out = sum(k @ rho @ k.conj().T for k in ch.ops)
    env = np.array([[np.trace(ki @ rho @ kj.conj().T) for kj in ch.ops] for ki in ch.ops])
    return _entropy(rho) + _entropy(out) - _entropy(env)


COHERENT_CASES = {
    "rk3_0": (lambda: np.diag([0.5, 0.3, 0.2]), lambda: _rk(3, 0)),
    **{f"rk2_{s}": (lambda: np.diag([0.7, 0.3]), lambda s=s: _rk(2, s)) for s in range(3)},
    **{f"rk{d}_0": (lambda d=d: random_density(d, np.random.default_rng(1)).matrix, lambda d=d: _rk(d, 0))
       for d in (4, 6)},
    "3 to 4": (lambda: random_density(3, rng_from(75)).matrix,
               lambda: random_kraus_channel(3, 4, 2, rng_from(76))),
    # Nearly pure outputs: the candidate's second-order PSD step overshoots
    # theta_ci, so the candidate is scored at t = 1.
    "phase damping maximally mixed": (
        lambda u=random_unitary(2, np.random.default_rng(2)): u @ (np.eye(2) / 2) @ u.conj().T,
        lambda: phase_damping_channel(0.4),
    ),
}


@pytest.mark.parametrize("name", [*COHERENT_CASES, "capacity"])
def test_q_reaches_the_coherent_information(name):
    # q's first ray ends at the channel-induced compound (id (x) ch)(|phi><phi|)
    # of rho's purification, whose mutual entropy is the coherent information;
    # the Araki-Lieb bound caps q at twice the smaller marginal entropy.
    if name == "capacity":
        ch = _rk(2, 0)
        q = qdc_hierarchy(None, ch, SearchBudget(2, 12, seed=1))["q"]
        rho = q.maximizer["state"]
    else:
        state, channel = COHERENT_CASES[name]
        rho, ch = state().astype(complex), channel()
        q = qdc_hierarchy(DensityOperator(rho), ch, SearchBudget(2, 40, seed=5))["q"]
    bound = 2 * min(_entropy(rho), _entropy(apply_matrix(ch, rho)))
    assert _coherent_information(rho, ch) - 1e-12 <= q.value <= bound + 1e-9


@pytest.mark.parametrize("seed", [2, 20, 21, 29])
def test_an_overshooting_candidate_stops_at_the_psd_boundary(seed):
    # d's outputs have eigenvalues near 1e-11, so the candidate's second-order
    # step overshoots theta_ci. theta_ci itself (t = 1) scores the coherent
    # information; the largest PSD step beyond it, found by bisection, scores
    # more.
    u = random_unitary(2, np.random.default_rng(seed))
    rho, ch = u @ (np.eye(2) / 2) @ u.conj().T, phase_damping_channel(0.4)
    q = qdc_hierarchy(DensityOperator(rho), ch, SearchBudget(2, 40, seed=5))["q"].value
    assert _coherent_information(rho, ch) + 1e-3 <= q <= 2 * math.log(2) + 1e-12


def test_q_rejects_an_oversized_compound_before_any_search(monkeypatch):
    # q's compound has side 16 * 16 = 256; the check comes before the Ohya
    # search, which would otherwise run and only then fail on the compound.
    import qmi.entanglement

    rho, ch = random_density(16, rng_from(1)), depolarizing_channel(0.3, 16)
    calls = []
    for name in ("_ohya_at", "_quantum_search"):
        monkeypatch.setattr(qmi.entanglement, name, lambda *args, name=name, **kwargs: calls.append(name))
    message = r"dimension 16 \* 16 = 256 exceeds the supported maximum 64"
    with pytest.raises(ValueError, match=message):
        qdc_hierarchy(rho, ch)
    with pytest.raises(ValueError, match=message):
        class_mutual_and_capacity(None, ch, "q")
    assert calls == []
    monkeypatch.undo()
    assert abs(class_mutual_and_capacity(rho, ch, "d").value - 1.165151) < 1e-6
