"""Mutual entropy: dual routes, compound states, classical reduction, bounds."""

import math

import numpy as np
import pytest

from qmi import mutual
from qmi.capacity import CodingScheme, CqcInstance, cqc_mutual_entropy
from qmi.channels import (
    amplitude_damping_channel,
    classical_channel,
    depolarizing_channel,
    identity_channel,
    projective_povm,
)
from qmi.channels import apply_matrix
from qmi.entropy import (
    _entropy_rows,
    _factored,
    _image_relative_entropy_rows,
    product_relative_entropy,
    shannon_entropy,
    umegaki_relative_entropy,
    von_neumann_entropy,
)
from qmi.mutual import (
    DUAL_ROUTE_TOL,
    MERGE_WEIGHT_TOL,
    _checked_ensemble,
    _compound_matrix,
    _component_route,
    _images,
    _outputs,
    _transmitted,
    _weighted_sum,
    classical_mutual_entropy,
    compound_state,
    holevo_bound,
    mutual_entropy_fixed,
    ohya_mutual_entropy,
    pseudo_mutual_entropy,
)
from qmi.operators import (
    DensityOperator,
    SchattenDecomposition,
    canonical_schatten,
    maximally_mixed,
    pure_state,
    schatten_family,
    schatten_param_count,
)
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

# ln 2 - H(0.1): Shannon value of the 10%-flip binary channel at uniform input
BSC_POINT_ONE = 0.3680642071684971

SMALL = SearchBudget(restarts=4, max_evals=80, seed=99, tol=1e-7)


def test_compound_state_marginals():
    rng = rng_from(41)
    for _ in range(20):
        rho = random_density(2, rng)
        ch = random_kraus_channel(2, 2, 2, rng)
        comp = compound_state(rho, ch, canonical_schatten(rho))
        np.testing.assert_allclose(comp.input_marginal.matrix, rho.matrix, atol=1e-8)
        assert comp.d_g == 2 and comp.d_k == 2


def test_dual_routes_agree():
    rng = rng_from(42)
    worst = 0.0
    for _ in range(50):
        rho = random_density(2, rng)
        ch = random_kraus_channel(2, 2, 2, rng)
        got = mutual_entropy_fixed(rho, ch, canonical_schatten(rho))
        worst = max(worst, got.defect)
    assert worst < 1e-7


def test_identity_channel_recovers_entropy():
    rng = rng_from(43)
    for _ in range(10):
        rho = random_density(3, rng)
        got = ohya_mutual_entropy(rho, identity_channel(3), SMALL)
        assert abs(got.value - von_neumann_entropy(rho.matrix)) < 1e-9
        assert got.converged


def test_degenerate_state_searches_to_entropy():
    rho = DensityOperator(np.diag([0.5, 0.25, 0.25]))
    got = ohya_mutual_entropy(rho, identity_channel(3), SMALL)
    assert abs(got.value - von_neumann_entropy(rho.matrix)) < 1e-5


def test_mutual_entropy_bounds():
    rng = rng_from(44)
    for _ in range(50):
        rho = random_density(2, rng)
        ch = random_kraus_channel(2, 2, 2, rng)
        got = ohya_mutual_entropy(rho, ch, SMALL)
        assert got.value > -1e-12
        assert got.value < von_neumann_entropy(rho.matrix) + 1e-7


def test_classical_reduction_matches_shannon():
    flip = np.array([[0.9, 0.1], [0.1, 0.9]])
    got = classical_mutual_entropy(np.array([0.5, 0.5]), classical_channel(flip))
    assert abs(got.value - BSC_POINT_ONE) < 1e-12
    assert got.defect < 1e-10

    # the full quantum functional collapses to the same number on diagonals
    rho = maximally_mixed(2)
    quantum = ohya_mutual_entropy(rho, classical_channel(flip), SMALL)
    assert abs(quantum.value - BSC_POINT_ONE) < 1e-8


def test_classical_mutual_entropy_rejects_coherent_channels():
    from qmi.channels import unitary_channel

    had = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
    with pytest.raises(ValueError):
        classical_mutual_entropy(np.array([0.3, 0.7]), unitary_channel(had))
    # depolarizing does keep diagonals diagonal: it acts like a symmetric
    # flip with crossover p/2
    got = classical_mutual_entropy(np.array([0.5, 0.5]), depolarizing_channel(0.2, 2))
    want = math.log(2.0) - shannon_entropy(np.array([0.9, 0.1]))
    assert abs(got.value - want) < 1e-10


def test_fully_depolarizing_carries_nothing():
    rng = rng_from(45)
    rho = random_density(2, rng)
    got = ohya_mutual_entropy(rho, depolarizing_channel(1.0, 2), SMALL)
    assert abs(got.value) < 1e-10


def test_pseudo_mutual_never_below_orthogonal():
    rng = rng_from(46)
    tiny = SearchBudget(restarts=2, max_evals=40, seed=7, tol=1e-6)
    for _ in range(5):
        rho = random_density(2, rng)
        ch = random_kraus_channel(2, 2, 2, rng)
        base = ohya_mutual_entropy(rho, ch, tiny)
        pseudo = pseudo_mutual_entropy(rho, ch, 2, tiny)
        assert pseudo.value >= base.value - 1e-9
        assert abs(float(np.sum(pseudo.weights)) - 1.0) < 1e-8


def test_tiny_split_components_merge_into_a_valid_ensemble():
    # At this budget the best split no longer beats the Ohya floor, so the
    # floor's decomposition is reported and no merge runs;
    # test_checked_ensemble_merges_a_tiny_component reaches it.
    u = random_unitary(3, rng_from(8))
    rho = DensityOperator((u * [0.5, 0.5, 0.0]) @ u.conj().T)
    ch = depolarizing_channel(0.3, 3)
    got = pseudo_mutual_entropy(rho, ch, 2, SearchBudget(2, 30, seed=1))
    assert np.min(got.weights) > MERGE_WEIGHT_TOL
    assert abs(float(np.sum(got.weights)) - 1.0) <= 1e-12
    components = [DensityOperator(c).matrix for c in got.components]
    rebuilt = sum(w * c for w, c in zip(got.weights, components))
    assert np.max(np.abs(rebuilt - rho.matrix)) <= 1e-8
    assert abs(holevo_bound(got.weights, components, ch) - got.value) <= DUAL_ROUTE_TOL


def test_checked_ensemble_merges_a_tiny_component():
    # sigma_2 has weight 1e-9 and an anti-Hermitian part of 1e-18: divided by
    # its trace it is not Hermitian within 1e-10, so it must be merged into
    # the heaviest component before validation.
    ch = amplitude_damping_channel(0.3)
    rho = np.diag([0.6, 0.4]).astype(complex)
    tiny = np.array([[1e-9, 1e-18], [0.0, 0.0]], dtype=complex)
    sigmas = np.stack([np.diag([0.6, 0.0]) - tiny, np.diag([0.0, 0.4]), tiny])
    lams = np.real(np.trace(sigmas, axis1=-2, axis2=-1))
    assert lams[2] <= MERGE_WEIGHT_TOL
    with pytest.raises(ValueError, match="not Hermitian"):
        DensityOperator(sigmas[2] / lams[2])
    chi = holevo_bound([0.6, 0.4], [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])], ch)
    state, weights, components = _checked_ensemble(ch, rho, lams, sigmas, chi)
    assert len(components) == 2
    np.testing.assert_allclose(weights, [0.6, 0.4], rtol=0, atol=1e-15)
    assert abs(float(np.sum(weights)) - 1.0) <= 1e-12
    rebuilt = sum(w * DensityOperator(c).matrix for w, c in zip(weights, components))
    assert np.max(np.abs(rebuilt - state)) <= 1e-8
    assert abs(holevo_bound(weights, components, ch) - chi) <= DUAL_ROUTE_TOL


@pytest.mark.parametrize("components", [2, 5, 12])
def test_dropped_split_components_add_an_exact_zero(components):
    # A component of trace at most 1e-12 keeps its tiny eigenvalues, which
    # _entropy_rows does not count: the weighted sum over all components is
    # the dot product over the kept ones, bit for bit.
    rng = rng_from(500 + components)
    drop = rng.random((40, components)) < 0.3
    lams = np.where(drop, 5e-13, rng.dirichlet(np.ones(components), size=40))
    eigenvalues = rng.dirichlet(np.ones(3), size=drop.shape) * np.where(drop, 5e-13, 1.0)[..., None]
    entropies = _entropy_rows(eigenvalues)
    got = _weighted_sum(lams, entropies)
    for value, row, entropy, dropped in zip(got, lams, entropies, drop):
        assert value == row[~dropped] @ entropy[~dropped]


def test_a_split_must_beat_the_floor_by_more_than_tol():
    # The best split beats the Ohya floor by rounding alone (2.3e-13, above
    # S(ch(rho)) = ln 2); the exact floor and its projectors are reported.
    rng = rng_from(1004)
    u = random_unitary(3, rng)
    rho = DensityOperator((u * [0.5, 0.5, 0.0]) @ u.conj().T)
    random_kraus_channel(3, 3, 2, rng)
    ch = identity_channel(3)
    budget = SearchBudget(2, 30, seed=5)
    got = pseudo_mutual_entropy(rho, ch, 2, budget)
    floor = ohya_mutual_entropy(rho, ch, budget.child(0))
    dec = floor.decomposition
    assert got.value == floor.value
    assert np.array_equal(got.weights, dec.weights)
    assert len(got.components) == dec.size
    for component, k in zip(got.components, range(dec.size)):
        assert np.array_equal(component, dec.projector(k))


def test_holevo_bound_validates_its_coded_states():
    ch = identity_channel(2)
    not_psd = np.diag([2.0, -1.0])
    with pytest.raises(ValueError, match="density operator has an eigenvalue below -1e-10"):
        holevo_bound([0.5, 0.5], [not_psd, np.eye(2) / 2], ch)
    qutrit = np.eye(3) / 3
    with pytest.raises(ValueError, match="state dimension 3 does not match the channel input dimension 2"):
        holevo_bound([0.5, 0.5], [qutrit, qutrit], ch)


def test_holevo_bound_dominates_decoded_information():
    rng = rng_from(47)
    for _ in range(30):
        weights = random_probability(2, rng)
        coded = [np.outer(v, v.conj()) for v in (random_pure(2, rng) for _ in range(2))]
        ch = random_kraus_channel(2, 2, 2, rng)
        inst = CqcInstance(
            weights=weights,
            coding=CodingScheme(tuple(DensityOperator(c) for c in coded)),
            channel=ch,
            decoding=random_povm(2, 3, rng),
        )
        assert cqc_mutual_entropy(inst).value <= holevo_bound(weights, coded, ch) + 1e-7


def test_holevo_bound_of_orthogonal_pure_states():
    weights = np.array([0.5, 0.5])
    coded = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
    assert abs(holevo_bound(weights, coded, identity_channel(2)) - math.log(2.0)) < 1e-12


def _zero_first_letter(p: np.ndarray, case: int) -> np.ndarray:
    """p with its first letter's weight set to 0 on every third case."""
    if case % 3 == 0:
        p = p.copy()
        p[0] = 0.0
        p /= p.sum()
    return p


def test_chi_from_one_stacked_spectrum_matches_the_per_state_loop():
    # holevo_bound and classical_mutual_entropy take every entropy from one
    # stacked eigvalsh (one stack of diagonals); a loop of von_neumann_entropy
    # (shannon_entropy) calls over the letters of weight above 1e-15 agrees.
    for case in range(120):
        rng = rng_from(4000 + case)
        d, n = 2 + case % 4, 2 + case % 4
        ch = random_kraus_channel(d, d, 1 + case % 3, rng)
        p = _zero_first_letter(random_probability(n, rng), case)
        coded = [random_density(d, rng, rank=1 + (case + k) % d).matrix for k in range(n)]
        outputs = apply_matrix(ch, np.stack(coded))
        avg = sum(lam * out for lam, out in zip(p, outputs))
        mixed = sum(lam * von_neumann_entropy(out) for lam, out in zip(p, outputs) if lam > 1e-15)
        want = von_neumann_entropy(avg) - mixed
        assert abs(holevo_bound(p, coded, ch) - want) <= 1e-15

        transition = rng.random((d, d))
        transition[0] *= case % 2  # an output letter never reached on even cases
        transition /= transition.sum(axis=0)
        ch = classical_channel(transition)
        p = _zero_first_letter(random_probability(d, rng), case)
        outputs = apply_matrix(ch, np.stack([np.diag(row).astype(complex) for row in np.eye(d)]))
        avg = sum(lam * out for lam, out in zip(p, outputs))
        dists = [np.clip(np.real(np.diagonal(m)), 0.0, None) for m in [avg, *outputs]]
        mixed = sum(lam * shannon_entropy(q) for lam, q in zip(p, dists[1:]) if lam > 1e-15)
        want = shannon_entropy(dists[0]) - mixed
        assert abs(classical_mutual_entropy(p, ch).value - want) <= 1e-15


def test_cqc_chain_with_projective_readout_is_shannon():
    # orthogonal coding + projective decoding through the identity is a
    # noiseless classical channel
    inst = CqcInstance(
        weights=np.array([0.25, 0.75]),
        coding=CodingScheme((DensityOperator(np.diag([1.0, 0.0])), DensityOperator(np.diag([0.0, 1.0])))),
        channel=identity_channel(2),
        decoding=projective_povm(2),
    )
    got = cqc_mutual_entropy(inst)
    assert abs(got.value - shannon_entropy(np.array([0.25, 0.75]))) < 1e-10


def test_mismatched_dimensions_name_both():
    rho = maximally_mixed(3)
    ch = depolarizing_channel(0.2, 2)
    for call in (
        lambda: ohya_mutual_entropy(rho, ch, SMALL),
        lambda: mutual_entropy_fixed(rho, ch, canonical_schatten(rho)),
        lambda: pseudo_mutual_entropy(rho, ch, 2, SMALL),
    ):
        with pytest.raises(ValueError, match="state dimension 3 .* channel input dimension 2"):
            call()


def test_budgets_need_a_search():
    with pytest.raises(ValueError, match="restarts"):
        SearchBudget(restarts=0)
    with pytest.raises(ValueError, match="max_evals"):
        SearchBudget(max_evals=0)


def test_ohya_value_of_a_pure_state_is_not_negative():
    # A pure state's one component transmits to the output mixture itself, so
    # its relative entropy is 0; rounded, it was -3.3e-16 before the component
    # terms were floored at 0 (Klein's inequality holds for unit-trace states).
    rho = pure_state(np.random.default_rng(100).normal(size=2) + 0j)
    ch = random_kraus_channel(2, 2, 2, np.random.default_rng(0))
    result = ohya_mutual_entropy(rho, ch, SearchBudget(2, 12, seed=1))
    assert result.value == 0.0
    assert mutual_entropy_fixed(rho, ch, result.decomposition).defect <= DUAL_ROUTE_TOL


def _component_loop(weights, outputs, out_avg):
    total = 0.0
    for lam, sig in zip(weights, outputs):
        if lam <= 1e-15:
            continue
        term = umegaki_relative_entropy(sig, out_avg)
        if math.isinf(term):
            return math.inf
        total += lam * max(term, 0.0)
    return total


def test_component_route_equals_the_per_component_terms():
    rng = rng_from(63)
    kinds = ["full", "rank-deficient", "tiny weight", "leak"]
    infinite = dict.fromkeys(kinds, 0)
    for case in range(240):
        kind = kinds[case % 4]
        d, n = int(rng.integers(2, 7)), int(rng.integers(2, 6))
        rank = d if kind == "full" else int(rng.integers(1, d))
        u = random_unitary(d, rng)
        support, off = u[:, :rank], u[:, d - 1]
        outputs = np.array([support @ random_density(rank, rng).matrix @ support.conj().T for _ in range(n)])
        weights = random_probability(n, rng)
        mixed = n
        if kind == "tiny weight":  # a skipped component off the support of the mixture
            weights[0], outputs[0] = 1e-16, np.outer(off, off.conj())
        if kind == "leak":  # a kept component off the support of the reference
            outputs[-1], mixed = np.outer(off, off.conj()), n - 1
        out_avg = np.einsum("k,kij->ij", weights[:mixed], outputs[:mixed])
        got = _component_route(weights, outputs, _factored(out_avg))
        assert got == _component_loop(weights, outputs, out_avg)
        infinite[kind] += math.isinf(got)
    assert infinite == {"full": 0, "rank-deficient": 0, "tiny weight": 0, "leak": 60}
    with pytest.raises(ValueError, match="sigma has eigenvalue"):
        _component_route(np.array([1.0]), np.eye(2)[None] / 2, _factored(np.diag([1.0, -1e-6])))
    with pytest.raises(ValueError, match="sigma has eigenvalue"):
        _component_route(np.array([1.0]), np.ones((1, 2, 1)) / 2**0.5, _factored(np.diag([1.0, -1e-6])))


def test_gram_side_terms_match_umegaki():
    # With r < out Kraus operators, each term is read from the r x r Gram
    # matrix of the images K_r v_k and from sums over them, never from the
    # out-square output; the value differs from the output route by rounding.
    rng = rng_from(64)
    kinds = ["full", "rank-deficient", "tiny weight", "leak"]
    infinite = dict.fromkeys(kinds, 0)
    sides = {"gram": 0, "outputs": 0}
    for case in range(200):
        kind = kinds[case % 4]
        n_ops = [1, 2, 3, None][case // 4 % 4]
        if kind == "full":
            d, d_out = int(rng.integers(2, 6)), int(rng.integers(2, 7))
            n_ops = n_ops or d_out * d_out
            n_ops = max(n_ops, -(-d // d_out))  # a trace-preserving channel needs n_ops * d_out >= d
            span = d
        else:  # inputs in a span of dimension s whose images miss part of the output
            n_ops = n_ops or 1 + case % 3
            span = int(rng.integers(1, 3))
            d = span + int(rng.integers(1, 3))
            d_out = max(n_ops * span + int(rng.integers(1, 3)), -(-d // n_ops))
        ch = random_kraus_channel(d, d_out, n_ops, rng)
        u = random_unitary(d, rng)
        n = int(rng.integers(2, 6))
        coeffs = rng.normal(size=(span, n)) + 1j * rng.normal(size=(span, n))
        vectors = u[:, :span] @ (coeffs / np.linalg.norm(coeffs, axis=0))
        weights = random_probability(n, rng)
        mixed = n
        if kind == "tiny weight":  # a skipped component off the support of the mixture
            weights[0], vectors[:, 0] = 1e-16, u[:, d - 1]
        if kind == "leak":  # a kept component off the support of the reference
            vectors[:, -1], mixed = u[:, d - 1], n - 1
        images = _images(ch.stack, vectors)
        outputs = _outputs(images)
        out_avg = np.einsum("k,kij->ij", weights[:mixed], outputs[:mixed])
        factor = _factored(out_avg)
        gram = n_ops < d_out
        sides["gram" if gram else "outputs"] += 1
        if gram:
            terms = _image_relative_entropy_rows(images, factor)
            for term, output in zip(terms, outputs):
                want = umegaki_relative_entropy(output, out_avg)
                assert math.isinf(term) == math.isinf(want)
                assert math.isinf(term) or abs(term - want) <= 1e-12
        got = _component_route(weights, images if gram else outputs, factor)
        want = _component_loop(weights, outputs, out_avg)
        assert math.isinf(got) == math.isinf(want)
        assert math.isinf(got) or abs(got - want) <= 1e-12
        infinite[kind] += math.isinf(got)
    assert infinite == {"full": 0, "rank-deficient": 0, "tiny weight": 0, "leak": 50}
    assert sides["gram"] >= 150 and sides["outputs"] >= 15, sides


# -- the unique decomposition and the narrow compound route -------------------------------


def _searched_ohya(rho, ch, budget):
    """The one-point search path a nondegenerate state took before it skipped
    the search: `_ohya_suprema`, then `_checked_ohya`."""
    ((result, weights),) = mutual._ohya_suprema(ch, rho.matrix[None], budget)
    return mutual._checked_ohya(rho, ch, result, weights)


def _count_searches(monkeypatch):
    calls = []
    for name in ("_schatten_ascent", "_ohya_suprema"):
        original = getattr(mutual, name)

        def counted(*args, original=original, name=name, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(mutual, name, counted)
    return calls


@pytest.mark.parametrize("case", ["d2", "d3", "d16 depolarizing", "d16 two operators", "rank-deficient"])
def test_a_nondegenerate_state_skips_the_search(monkeypatch, case):
    rng = rng_from(700)
    rho, ch = {
        "d2": lambda: (random_density(2, rng), amplitude_damping_channel(0.3)),
        "d3": lambda: (random_density(3, rng), random_kraus_channel(3, 3, 2, rng)),
        "d16 depolarizing": lambda: (random_density(16, rng), depolarizing_channel(0.3, 16)),
        "d16 two operators": lambda: (random_density(16, rng), random_kraus_channel(16, 16, 2, rng)),
        "rank-deficient": lambda: (random_density(4, rng, rank=2), random_kraus_channel(4, 3, 2, rng)),
    }[case]()
    assert schatten_param_count(rho) == 0
    want = _searched_ohya(rho, ch, SMALL)
    calls = _count_searches(monkeypatch)
    got = ohya_mutual_entropy(rho, ch, SMALL)
    assert calls == []
    assert got.value == want.value
    assert np.array_equal(got.decomposition.weights, want.decomposition.weights)
    assert np.array_equal(got.decomposition.vectors, want.decomposition.vectors)
    assert (got.evals, got.converged) == (want.evals, want.converged) == (1, True)


def test_a_degenerate_state_still_searches(monkeypatch):
    rho = DensityOperator(np.diag([0.4, 0.4, 0.2]))
    ch = random_kraus_channel(3, 3, 2, rng_from(701))
    want = _searched_ohya(rho, ch, SMALL)
    calls = _count_searches(monkeypatch)
    got = ohya_mutual_entropy(rho, ch, SMALL)
    assert calls == ["_ohya_suprema", "_schatten_ascent"]
    assert got.value == want.value and got.evals == want.evals > 1
    assert np.array_equal(got.decomposition.vectors, want.decomposition.vectors)


def _route_case(rng, case):
    """A seeded (rho, channel, decomposition): 1-3 Kraus operators (more
    when out_dim 1 needs them), output dimensions 1-6 (square or not),
    full-rank, rank-deficient or degenerate states, the degenerate ones
    under a random block rotation."""
    d = int(rng.integers(2, 6))
    out_dim = 1 if case % 10 == 0 else int(rng.integers(2, 7))
    fewest = -(-d // out_dim)  # a trace-preserving channel needs n_ops * out_dim >= d
    n_ops = int(rng.integers(fewest, max(fewest, 3) + 1))
    ch = random_kraus_channel(d, out_dim, n_ops, rng)
    kind = case % 3
    if kind == 0:
        rho = random_density(d, rng)
    elif kind == 1:
        rho = random_density(d, rng, rank=int(rng.integers(1, d)))
    else:
        u = random_unitary(d, rng)
        w = np.array([2.0, 2.0] + [1.0] * (d - 2) if d > 2 else [1.0, 1.0])
        rho = DensityOperator((u * (w / w.sum())) @ u.conj().T)
    n_params = schatten_param_count(rho)
    return rho, ch, schatten_family(rho, rng.normal(size=n_params))


def test_the_narrow_compound_route_matches_the_formed_compound():
    # theta = B B^dag with K r columns: below d_g d_k of them the cross route
    # reads S(theta) and the marginals from B; above, it forms theta.
    rng = rng_from(702)
    sides = {"narrow": 0, "wide": 0}
    for case in range(150):
        rho, ch, dec = _route_case(rng, case)
        outputs = _transmitted(ch, dec)
        out_avg = apply_matrix(ch, rho.matrix)
        got = mutual_entropy_fixed(rho, ch, dec)
        assert abs(got.value - _component_loop(dec.weights, outputs, out_avg)) <= 1e-12
        want = product_relative_entropy(_compound_matrix(dec, outputs), rho.matrix, out_avg)
        assert abs(got.cross_value - want) <= 1e-12
        sides["narrow" if dec.size * len(ch.ops) < rho.dim * ch.out_dim else "wide"] += 1
    assert min(sides.values()) >= 30, sides


def _sized_eigensolves(monkeypatch, limit):
    """Wrap np.linalg eigvalsh and eigh to record each call's stack shape and
    raise on a matrix above limit-square or on a stack of 64-square ones."""
    shapes = []
    for name in ("eigvalsh", "eigh"):
        original = getattr(np.linalg, name)

        def sized(a, *args, original=original, **kwargs):
            shapes.append(np.shape(a))
            side, stacked = shapes[-1][-1], math.prod(shapes[-1][:-2])
            assert side <= limit, f"a {side}-square eigen-solve"
            assert side < 64 or stacked <= 1, f"a stack of {stacked} {side}-square eigen-solves"
            return original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, sized)
    return shapes


def test_a_nondegenerate_d64_state_solves_without_a_wide_eigensolve(monkeypatch):
    # Through two Kraus operators theta is 4096-square but B^dag B is 128-square,
    # and each component output is 64-square but its Gram matrix is 2 x 2.
    ch = random_kraus_channel(64, 64, 2, np.random.default_rng(0))
    rho = random_density(64, rng_from(703))
    assert schatten_param_count(rho) == 0
    shapes = _sized_eigensolves(monkeypatch, 128)
    result = ohya_mutual_entropy(rho, ch)
    checked = mutual_entropy_fixed(rho, ch, result.decomposition)
    assert checked.value == result.value
    assert checked.defect <= 1e-10
    assert (128, 128) in shapes and (64, 2, 2) in shapes


def test_a_degenerate_d64_evaluator_row_solves_only_gram_sized_components(monkeypatch):
    # Two 32-fold blocks through two Kraus operators: a row rotates each block's
    # images and reads every component entropy from a 2 x 2 Gram matrix, and
    # its gradient generators take no eigen-solve. The only larger eigen-solve
    # of a search is one 32 x 32 eigh per block and accepted step, which gives
    # exp(t A) at every trial step t.
    ch = random_kraus_channel(64, 64, 2, np.random.default_rng(0))
    u = random_unitary(64, rng_from(704))
    w = np.repeat([2.0, 1.0], 32)
    rho = DensityOperator((u * (w / w.sum())) @ u.conj().T)
    ev = mutual._MutualEvaluator(rho.matrix, ch)
    assert ev.gram and [s.stop - s.start for s in ev.blocks] == [32, 32]
    rotations = [random_unitary(32, rng_from(705 + i)) for i in range(4)]
    rotations = [np.stack(rotations[:2]), np.stack(rotations[2:])]
    owners = np.zeros(2, dtype=int)
    shapes = _sized_eigensolves(monkeypatch, 32)
    parts = ev.rotated(ev.parts[owners], rotations)
    values, eigen, outputs = ev.evaluate(parts, owners)
    ev.generators(parts, eigen, owners)
    assert shapes == [(2, 64, 2, 2)] and outputs is None
    shapes.clear()
    (found,) = mutual._schatten_ascent(ev, SearchBudget(1, 9, seed=3))
    best = SchattenDecomposition(weights=ev.weights[0], vectors=found.params)
    assert found.evals == 9
    big = [s for s in shapes if s[-1] > 2]
    assert big and set(big) == {(1, 32, 32)} and len(big) <= 2 * 3
    monkeypatch.undo()
    for i, value in enumerate(values):  # the row is the decomposition's mutual entropy
        vectors = ev.vectors[0].copy()
        for s, r in zip(ev.blocks, rotations):
            vectors[:, s] = vectors[:, s] @ r[i]
        dec = SchattenDecomposition(weights=ev.weights[0], vectors=vectors)
        assert abs(value - mutual_entropy_fixed(rho, ch, dec).value) <= 1e-10
    assert abs(found.value - mutual_entropy_fixed(rho, ch, best).value) <= 1e-10
