"""Acceptance gate: one test and one printed pass/fail line per criterion.

Each criterion is a standalone test named criterion_NN, so the verbose
pytest listing reads as the gate report; the printed line carries the
measured extremes for runs with capture disabled.
"""

import math

import numpy as np

from qmi.capacity import CodingScheme, CqcInstance, StateFamily, cqc_capacity, cqc_mutual_entropy, pseudo_capacity, quantum_capacity
from qmi.channels import (
    amplitude_damping_channel,
    classical_channel,
    compose,
    depolarizing_channel,
    identity_channel,
    phase_damping_channel,
    projective_povm,
    unitary_channel,
)
from qmi.entanglement import (
    classify_compound,
    conditional_and_degree,
    d_compound,
    entangled_mutual_entropy,
    entangling_from_state,
    q_entropy_closed_form,
    q_entropy_sup,
    qdc_hierarchy,
    standard_entanglement,
    strong_orthogonality_defect,
    weak_orthogonality_defect,
)
from qmi.entropy import shannon_entropy, umegaki_relative_entropy, von_neumann_entropy
from qmi.mutual import holevo_bound, mutual_entropy_fixed, ohya_mutual_entropy
from qmi.operators import (
    DensityOperator,
    canonical_schatten,
    maximally_mixed,
    pure_state,
    schatten_family,
    schatten_param_count,
    unitary_from_params,
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
from qmi.serialize import render_report
from qmi.verify import verify_report

LN2 = math.log(2.0)

# ln 2 - H(0.1), evaluated by hand from the flip probabilities
BSC_ORACLE = 0.3680642071684971


def _gate(num: int, label: str, ok: bool, detail: str = ""):
    mark = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"criterion {num:02d} {mark}: {label}{suffix}", flush=True)
    assert ok, f"criterion {num:02d}: {label}{suffix}"


def test_criterion_01_entropy_closed_forms():
    worst_flat = max(
        abs(von_neumann_entropy(maximally_mixed(d).matrix) - math.log(d)) for d in range(2, 7)
    )
    rng = rng_from(101)
    worst_pure = max(
        abs(von_neumann_entropy(np.outer(v, v.conj())))
        for v in (random_pure(4, rng) for _ in range(50))
    )
    worst_self = max(
        abs(umegaki_relative_entropy(r.matrix, r.matrix))
        for r in (random_density(3, rng) for _ in range(50))
    )
    disjoint = umegaki_relative_entropy(pure_state([1.0, 0.0]).matrix, pure_state([0.0, 1.0]).matrix)
    ok = worst_flat < 1e-10 and worst_pure < 1e-12 and worst_self < 1e-12 and math.isinf(disjoint) and disjoint > 0
    _gate(1, "entropy closed forms", ok, f"flat {worst_flat:.2e}, pure {worst_pure:.2e}, self {worst_self:.2e}")


def test_criterion_02_dual_mutual_entropy_forms():
    rng = rng_from(102)
    worst = 0.0
    for k in range(200):
        dim = 2 if k % 2 == 0 else 3
        if k < 120:
            rho = random_density(dim, rng)
            dec = canonical_schatten(rho)
        else:
            base = [0.5, 0.5] if dim == 2 else [0.5, 0.25, 0.25]
            u = random_unitary(dim, rng)
            rho = DensityOperator(u @ np.diag(base) @ u.conj().T)
            n = schatten_param_count(rho)
            dec = schatten_family(rho, rng.normal(size=n)) if n else canonical_schatten(rho)
        ch = random_kraus_channel(dim, dim, 2, rng)
        worst = max(worst, mutual_entropy_fixed(rho, ch, dec).defect)
    _gate(2, "component and compound forms agree on 200 triples", worst < 1e-7, f"worst {worst:.2e}")


def test_criterion_03_identity_channel_recovers_entropy():
    rng = rng_from(103)
    worst_plain = 0.0
    for _ in range(30):
        dim = int(rng.integers(2, 4))
        rho = random_density(dim, rng)
        got = ohya_mutual_entropy(rho, identity_channel(dim))
        worst_plain = max(worst_plain, abs(got.value - von_neumann_entropy(rho.matrix)))

    budget = SearchBudget(restarts=8, max_evals=120, seed=103, tol=1e-7)
    worst_degen = 0.0
    u = random_unitary(3, rng)
    degenerate = [
        maximally_mixed(2),
        maximally_mixed(3),
        DensityOperator(np.diag([0.5, 0.25, 0.25])),
        DensityOperator(u @ np.diag([0.4, 0.4, 0.2]) @ u.conj().T),
    ]
    for rho in degenerate:
        got = ohya_mutual_entropy(rho, identity_channel(rho.dim), budget)
        worst_degen = max(worst_degen, abs(got.value - von_neumann_entropy(rho.matrix)))
    ok = worst_plain < 1e-9 and worst_degen < 1e-5
    _gate(3, "identity channel gives back S(rho)", ok, f"plain {worst_plain:.2e}, degenerate {worst_degen:.2e}")


def test_criterion_04_shannon_reduction():
    rng = rng_from(104)
    worst = 0.0
    for _ in range(25):
        dim = int(rng.integers(2, 4))
        # nondegenerate diagonal input through a random column-stochastic map
        p = np.sort(random_probability(dim, rng))[::-1]
        while np.min(np.abs(np.diff(p))) < 1e-3 or np.min(p) < 1e-3:
            p = np.sort(random_probability(dim, rng))[::-1]
        t = rng.uniform(0.05, 1.0, size=(dim, dim))
        t = t / np.sum(t, axis=0, keepdims=True)
        got = ohya_mutual_entropy(DensityOperator(np.diag(p)), classical_channel(t)).value
        shannon = shannon_entropy(t @ p) - sum(
            lam * shannon_entropy(t[:, k]) for k, lam in enumerate(p)
        )
        worst = max(worst, abs(got - shannon))

    flip = np.array([[0.9, 0.1], [0.1, 0.9]])
    budget = SearchBudget(restarts=8, max_evals=160, seed=104, tol=1e-7)
    bsc = ohya_mutual_entropy(maximally_mixed(2), classical_channel(flip), budget).value
    bsc_err = abs(bsc - BSC_ORACLE)
    ok = worst < 1e-8 and bsc_err < 1e-6
    _gate(4, "classical channels reduce to the Shannon value", ok, f"random {worst:.2e}, flip {bsc_err:.2e}")


def test_criterion_05_fundamental_inequality():
    rng = rng_from(105)
    low, high = 0.0, 0.0
    for k in range(500):
        d_in = 2 if k % 3 else 3
        d_out = d_in if k % 5 else 2
        rho = random_density(d_in, rng)
        ch = random_kraus_channel(d_in, d_out, 2, rng)
        value = ohya_mutual_entropy(rho, ch).value
        low = max(low, -value)
        high = max(high, value - von_neumann_entropy(rho.matrix))
    ok = low <= 0.0 and high < 1e-7
    _gate(5, "0 <= I <= S(rho) on 500 random instances", ok, f"below {low:.2e}, above {high:.2e}")


def test_criterion_06_data_processing():
    rng = rng_from(106)
    worst = 0.0
    for _ in range(100):
        rho = random_density(2, rng)
        first = random_kraus_channel(2, 2, 2, rng)
        second = random_kraus_channel(2, 2, 2, rng)
        joined = ohya_mutual_entropy(rho, compose(second, first)).value
        alone = ohya_mutual_entropy(rho, first).value
        worst = max(worst, joined - alone)
    _gate(6, "post-processing never gains information", worst < 1e-6, f"worst gain {worst:.2e}")


def test_criterion_07_capacity_chain():
    budget = SearchBudget(restarts=2, max_evals=16, seed=107, tol=1e-7)
    family = StateFamily("full", 2)
    had = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
    zoo = [
        identity_channel(2),
        depolarizing_channel(0.3, 2),
        amplitude_damping_channel(0.4),
        phase_damping_channel(0.5),
        unitary_channel(had),
    ]
    chain_ok = True
    detail = []
    for ch in zoo:
        pseudo = pseudo_capacity(ch, family, 2, budget)
        plain = pseudo.notes["quantum_capacity"]
        chain_ok &= -1e-9 <= plain <= pseudo.value + 1e-9 <= LN2 + 2 * budget.tol + 1e-9
        detail.append(f"{plain:.3f}<={pseudo.value:.3f}")

    wide = SearchBudget(restarts=4, max_evals=60, seed=107, tol=1e-7)
    id_err = max(
        abs(quantum_capacity(identity_channel(d), StateFamily("full", d), wide).value - math.log(d))
        for d in (2, 3)
    )
    ok = chain_ok and id_err < 1e-3
    _gate(7, "capacity chain and identity capacities", ok, f"id err {id_err:.2e}; " + ", ".join(detail))


def test_criterion_08_cqc_chain():
    budget = SearchBudget(restarts=2, max_evals=40, seed=108, tol=1e-7)
    setups = [
        (amplitude_damping_channel(0.3), 2),
        (depolarizing_channel(0.2, 3), 3),
    ]
    chain_ok = True
    for ch, size in setups:
        eye = np.eye(size)
        coding = CodingScheme(tuple(DensityOperator(np.outer(eye[k], eye[k])) for k in range(size)))
        povm = projective_povm(size)
        fixed = cqc_capacity(ch, povm, coding, "weights", budget)
        freed = cqc_capacity(ch, povm, coding, "coding", budget)
        full = cqc_capacity(ch, povm, coding, "full", budget)
        chain_ok &= (
            fixed.value <= freed.value + 1e-9
            and freed.value <= full.value + 1e-9
            and full.value <= math.log(size) + 2 * budget.tol
        )

    basis = CodingScheme((pure_state([1.0, 0.0]), pure_state([0.0, 1.0])))
    clean = cqc_capacity(identity_channel(2), projective_povm(2), basis, "weights", budget)
    clean_err = abs(clean.value - LN2)
    ok = chain_ok and clean_err < 1e-9
    _gate(8, "classical-quantum-classical chain is monotone", ok, f"noiseless err {clean_err:.2e}")


def test_criterion_09_holevo_domination():
    rng = rng_from(109)
    worst = 0.0
    for _ in range(200):
        weights = random_probability(2, rng)
        coded = [np.outer(v, v.conj()) for v in (random_pure(2, rng) for _ in range(2))]
        ch = random_kraus_channel(2, 2, 2, rng)
        inst = CqcInstance(
            weights=weights,
            coding=CodingScheme(tuple(DensityOperator(c) for c in coded)),
            channel=ch,
            decoding=random_povm(2, 3, rng),
        )
        worst = max(worst, cqc_mutual_entropy(inst).value - holevo_bound(weights, coded, ch))
    _gate(9, "decoded information never beats the output bound", worst < 1e-7, f"worst excess {worst:.2e}")


def test_criterion_10_amplitude_reconstruction_and_orthogonality():
    rng = rng_from(110)
    recon, weak = 0.0, 0.0
    for k in range(500):
        dims = ((2, 2), (2, 3), (3, 2))[k % 3]
        theta = random_density(dims[0] * dims[1], rng).matrix
        kappa = entangling_from_state(theta, dims)
        recon = max(recon, float(np.linalg.norm(kappa.reconstruct() - theta)))
        weak = max(weak, weak_orthogonality_defect(kappa))

    strong = 0.0
    for k in range(500):
        n = 2 if k % 2 else 3
        p = random_probability(n, rng)
        omegas = [random_density(2, rng).matrix for _ in range(n)]
        built = d_compound(p, omegas)
        strong = max(strong, strong_orthogonality_defect(built.kappa, p, omegas))
    ok = recon < 1e-8 and weak < 1e-8 and strong < 1e-9
    _gate(10, "reconstruction and both orthogonality laws", ok, f"recon {recon:.2e}, weak {weak:.2e}, strong {strong:.2e}")


def test_criterion_11_q_entropy():
    rng = rng_from(111)
    worst_direct = 0.0
    for _ in range(20):
        dim = int(rng.integers(2, 4))
        sigma = random_density(dim, rng)
        got = entangled_mutual_entropy(standard_entanglement(sigma))
        worst_direct = max(worst_direct, abs(got - q_entropy_closed_form([(1.0, sigma)])))

    budget = SearchBudget(restarts=2, max_evals=40, seed=111, tol=1e-6)
    worst_sup = 0.0
    for diag in ([0.7, 0.3], [0.5, 0.3, 0.2]):
        sigma = DensityOperator(np.diag(diag))
        rep = q_entropy_sup(sigma, budget)
        worst_sup = max(worst_sup, abs(rep.value - q_entropy_closed_form([(1.0, sigma)])))

    _, degree = conditional_and_degree(standard_entanglement(maximally_mixed(2)))
    degree_err = abs(degree + LN2)
    ok = worst_direct < 1e-7 and worst_sup < 1e-3 and degree_err < 1e-7
    _gate(11, "q-entropy closed form, supremum, and degree minimum", ok,
          f"direct {worst_direct:.2e}, sup {worst_sup:.2e}, degree {degree_err:.2e}")


def test_criterion_12_class_orderings():
    budget = SearchBudget(restarts=2, max_evals=40, seed=112, tol=1e-6)
    rng = rng_from(112)
    worst_q, worst_dc = 0.0, 0.0
    for diag in ([0.7, 0.3], [0.8, 0.2]):
        rho = DensityOperator(np.diag(diag))
        s = von_neumann_entropy(rho.matrix)
        levels = qdc_hierarchy(rho, identity_channel(2), budget)
        worst_q = max(worst_q, abs(levels["q"].value - 2 * s))
        worst_dc = max(worst_dc, abs(levels["d"].value - s), abs(levels["c"].value - s))

    order = 0.0
    for _ in range(10):
        rho = random_density(2, rng)
        ch = random_kraus_channel(2, 2, 2, rng)
        levels = qdc_hierarchy(rho, ch, budget)
        order = max(order, levels["d"].value - levels["q"].value)
        if levels["c"].notes.get("feasible", True):
            order = max(order, levels["c"].value - levels["d"].value)
    ok = worst_q < 1e-3 and worst_dc < 1e-4 and order < 2 * budget.tol
    _gate(12, "class values are ordered and exact at the identity", ok,
          f"q {worst_q:.2e}, d/c {worst_dc:.2e}, order {order:.2e}")


def test_criterion_13_classification():
    rng = rng_from(113)
    mistakes = 0

    for _ in range(100):
        product = np.kron(random_density(2, rng).matrix, random_density(2, rng).matrix)
        if classify_compound(product, (2, 2)).tag != "c":
            mistakes += 1

    for _ in range(100):
        p = random_probability(2, rng)
        while np.min(p) < 0.05:
            p = random_probability(2, rng)
        omegas = [random_density(2, rng).matrix for _ in range(2)]
        built = d_compound(p, omegas)
        # keep only genuinely non-commuting draws
        while built.entanglement_class.max_commutator < 1e-6:
            omegas = [random_density(2, rng).matrix for _ in range(2)]
            built = d_compound(p, omegas)
        if built.entanglement_class.tag != "d":
            mistakes += 1

    for _ in range(100):
        sigma = random_density(2, rng)
        while float(np.min(np.linalg.eigvalsh(sigma.matrix))) < 0.01:
            sigma = random_density(2, rng)
        if standard_entanglement(sigma).entanglement_class.tag != "q":
            mistakes += 1

    bell = standard_entanglement(maximally_mixed(2))
    triple_ok = (
        classify_compound(np.kron(np.diag([0.6, 0.4]), np.diag([0.7, 0.3])), (2, 2)).tag == "c"
        and d_compound(
            np.array([0.5, 0.5]),
            [np.diag([0.9, 0.1]), np.array([[0.5, 0.25], [0.25, 0.5]])],
        ).entanglement_class.tag == "d"
        and bell.entanglement_class.tag == "q"
    )
    ok = mistakes == 0 and triple_ok
    _gate(13, "families classify to their construction class", ok, f"{mistakes} mistakes in 300")


def test_criterion_14_verify_determinism():
    first = render_report(verify_report(424242))
    second = render_report(verify_report(424242))
    ok = first == second and '"ok": true' in first
    _gate(14, "repeated verify runs render identically", ok, f"{len(first)} bytes")
