"""Self-test suites: every module invariant exercised with seeded randoms.

Each suite measures defects against explicit bounds and reports per-check
results; the whole run is a deterministic function of the master seed, so
two runs with the same seed produce identical reports. Budgets are kept
small: the point is invariant coverage, not tight suprema.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .capacity import CodingScheme, CqcInstance, StateFamily, cqc_capacity, cqc_mutual_entropy, pseudo_capacity, quantum_capacity
from .channels import (
    amplitude_damping_channel,
    apply_matrix,
    born_probabilities,
    classical_channel,
    compose,
    depolarizing_channel,
    identity_channel,
    projective_povm,
)
from .entanglement import (
    classify_compound,
    conditional_and_degree,
    d_compound,
    entangled_mutual_entropy,
    entangling_from_state,
    phi,
    phi_star,
    qdc_hierarchy,
    standard_entanglement,
    strong_orthogonality_defect,
    weak_orthogonality_defect,
)
from .entropy import (
    product_relative_entropy,
    shannon_entropy,
    umegaki_relative_entropy,
    von_neumann_entropy,
)
from .mutual import (
    classical_mutual_entropy,
    holevo_bound,
    mutual_entropy_fixed,
    ohya_mutual_entropy,
    pseudo_mutual_entropy,
)
from .operators import (
    DensityOperator,
    canonical_schatten,
    eigenbasis,
    maximally_mixed,
    partial_trace,
    purify,
    pure_state,
    schatten_family,
    schatten_param_count,
    unitary_from_params,
)
from .sampling import (
    random_density,
    random_hermitian,
    random_kraus_channel,
    random_povm,
    random_probability,
    random_pure,
    random_unitary,
    rng_from,
)
from .search import SearchBudget


@dataclass(frozen=True)
class Check:
    name: str
    value: float
    bound: float
    ok: bool


@dataclass(frozen=True)
class SuiteResult:
    name: str
    checks: tuple[Check, ...]

    @property
    def n_pass(self) -> int:
        return sum(1 for c in self.checks if c.ok)

    @property
    def n_fail(self) -> int:
        return len(self.checks) - self.n_pass

    @property
    def ok(self) -> bool:
        return self.n_fail == 0


def _check(name: str, value: float, bound: float) -> Check:
    v = float(value)
    return Check(name=name, value=v, bound=float(bound), ok=bool(v <= bound))


def _suite_operators(rng) -> SuiteResult:
    checks = []
    recon = 0.0
    pure_marg = 0.0
    schatten = 0.0
    unitarity = 0.0
    for _ in range(20):
        rho = random_density(3, rng)
        w, v = eigenbasis(rho.matrix)
        recon = max(recon, float(np.linalg.norm((v * w) @ v.conj().T - rho.matrix)))
        dec = canonical_schatten(rho)
        schatten = max(schatten, float(np.linalg.norm(dec.reconstruct() - rho.matrix)))
        psi, _ = purify(rho.matrix)
        joint = np.outer(psi, psi.conj())
        left = partial_trace(joint, (3, joint.shape[0] // 3), keep=0)
        pure_marg = max(pure_marg, float(np.linalg.norm(left - rho.matrix)))
        u = unitary_from_params(rng.normal(size=9), 3)
        unitarity = max(unitarity, float(np.linalg.norm(u.conj().T @ u - np.eye(3))))
    checks.append(_check("eigenbasis reconstructs the state", recon, 1e-10))
    checks.append(_check("canonical decomposition reconstructs the state", schatten, 1e-10))
    checks.append(_check("purification marginal matches the state", pure_marg, 1e-10))
    checks.append(_check("parameterized unitaries are unitary", unitarity, 1e-10))

    trace_split = 0.0
    for _ in range(10):
        theta = random_density(6, rng).matrix
        for dims in ((2, 3), (3, 2)):
            a = partial_trace(theta, dims, keep=0)
            b = partial_trace(theta, dims, keep=1)
            trace_split = max(
                trace_split,
                abs(float(np.real(np.trace(a))) - 1.0),
                abs(float(np.real(np.trace(b))) - 1.0),
            )
    checks.append(_check("partial traces preserve the trace", trace_split, 1e-10))
    return SuiteResult(name="operators", checks=tuple(checks))


def _suite_entropy(rng) -> SuiteResult:
    checks = []
    mixed = max(
        abs(von_neumann_entropy(maximally_mixed(d).matrix) - math.log(d))
        for d in range(2, 6)
    )
    checks.append(_check("maximally mixed entropy is ln d", mixed, 1e-12))
    pure = max(
        abs(von_neumann_entropy(np.outer(v, v.conj())))
        for v in (random_pure(4, rng) for _ in range(20))
    )
    checks.append(_check("pure states have zero entropy", pure, 1e-12))

    self_rel = 0.0
    nonneg = 0.0
    product_form = 0.0
    for _ in range(20):
        rho = random_density(3, rng).matrix
        sigma = random_density(3, rng).matrix
        self_rel = max(self_rel, abs(umegaki_relative_entropy(rho, rho)))
        nonneg = max(nonneg, -umegaki_relative_entropy(rho, sigma))
        theta = random_density(4, rng).matrix
        left = random_density(2, rng).matrix
        right = random_density(2, rng).matrix
        product_form = max(
            product_form,
            abs(
                product_relative_entropy(theta, left, right)
                - umegaki_relative_entropy(theta, np.kron(left, right))
            ),
        )
    checks.append(_check("relative entropy of a state with itself is zero", self_rel, 1e-12))
    checks.append(_check("relative entropy is nonnegative", nonneg, 1e-10))
    checks.append(_check("product-form relative entropy matches the direct one", product_form, 1e-8))

    gap = umegaki_relative_entropy(pure_state([1.0, 0.0]).matrix, pure_state([0.0, 1.0]).matrix)
    checks.append(_check("support violation reports infinity", 0.0 if math.isinf(gap) else 1.0, 0.0))

    h = shannon_entropy(random_probability(5, rng))
    checks.append(_check("shannon entropy stays within [0, ln n]", max(-h, h - math.log(5)), 1e-12))
    return SuiteResult(name="entropy", checks=tuple(checks))


def _suite_channels(rng) -> SuiteResult:
    checks = []
    trace_pres = 0.0
    herm = 0.0
    for _ in range(20):
        ch = random_kraus_channel(3, 3, 3, rng)
        rho = random_density(3, rng).matrix
        out = apply_matrix(ch, rho)
        trace_pres = max(trace_pres, abs(float(np.real(np.trace(out))) - 1.0))
        herm = max(herm, float(np.linalg.norm(out - out.conj().T)))
    checks.append(_check("channels preserve the trace", trace_pres, 1e-10))
    checks.append(_check("channel outputs are hermitian", herm, 1e-10))

    fully = apply_matrix(depolarizing_channel(1.0, 3), random_density(3, rng).matrix)
    checks.append(
        _check("full depolarizing lands on the flat state", float(np.linalg.norm(fully - np.eye(3) / 3)), 1e-10)
    )

    ch = random_kraus_channel(2, 2, 2, rng)
    rho = random_density(2, rng).matrix
    comp = compose(identity_channel(2), ch)
    checks.append(
        _check(
            "composition with the identity is a no-op",
            float(np.linalg.norm(apply_matrix(comp, rho) - apply_matrix(ch, rho))),
            1e-12,
        )
    )

    born = 0.0
    for _ in range(10):
        povm = random_povm(3, 4, rng)
        p = born_probabilities(povm, random_density(3, rng))
        born = max(born, abs(float(np.sum(p)) - 1.0), float(-np.min(p)))
    checks.append(_check("outcome distributions are normalized and nonnegative", born, 1e-10))
    return SuiteResult(name="channels", checks=tuple(checks))


def _suite_mutual(rng, budget: SearchBudget) -> SuiteResult:
    checks = []
    dual = 0.0
    bounds = 0.0
    for _ in range(15):
        rho = random_density(2, rng)
        ch = random_kraus_channel(2, 2, 2, rng)
        got = mutual_entropy_fixed(rho, ch, canonical_schatten(rho))
        dual = max(dual, got.defect)
        s = von_neumann_entropy(rho.matrix)
        bounds = max(bounds, -got.value, got.value - s - 1e-9)
    checks.append(_check("component and compound routes agree", dual, 1e-7))
    checks.append(_check("mutual entropy sits inside [0, S(rho)]", bounds, 1e-7))

    ident = 0.0
    for _ in range(5):
        rho = random_density(3, rng)
        got = ohya_mutual_entropy(rho, identity_channel(3), budget)
        ident = max(ident, abs(got.value - von_neumann_entropy(rho.matrix)))
    checks.append(_check("identity channel recovers the entropy", ident, 1e-9))

    p = np.array([0.5, 0.5])
    flip = np.array([[0.9, 0.1], [0.1, 0.9]])
    classical = classical_mutual_entropy(p, classical_channel(flip))
    shannon = math.log(2.0) - shannon_entropy(np.array([0.9, 0.1]))
    checks.append(_check("binary symmetric channel matches the closed form", abs(classical.value - shannon), 1e-10))

    rho = random_density(2, rng)
    ch = random_kraus_channel(2, 2, 2, rng)
    base = ohya_mutual_entropy(rho, ch, budget).value
    pseudo = pseudo_mutual_entropy(rho, ch, 2, budget).value
    checks.append(_check("pseudo value floors at the orthogonal one", base - pseudo, 1e-9))

    weights = random_probability(2, rng)
    coded = [np.outer(v, v.conj()) for v in (random_pure(2, rng) for _ in range(2))]
    inst = CqcInstance(
        weights=weights,
        coding=CodingScheme(tuple(DensityOperator(c) for c in coded)),
        channel=ch,
        decoding=random_povm(2, 2, rng),
    )
    chained = cqc_mutual_entropy(inst).value
    chi = holevo_bound(weights, coded, ch)
    checks.append(_check("decoded information stays under the output bound", chained - chi, 1e-7))

    # Through a depolarizing or an isometric channel the Ohya value is the
    # canonical decomposition's, unsearched: every rotation must agree.
    u = random_unitary(3, rng)
    rho = DensityOperator((u * np.array([0.4, 0.4, 0.2])) @ u.conj().T)
    spread = 0.0
    for ch in (depolarizing_channel(0.3, 3), random_kraus_channel(3, 4, 1, rng)):
        canonical = ohya_mutual_entropy(rho, ch, budget).value
        dec = schatten_family(rho, rng.normal(size=schatten_param_count(rho)))
        spread = max(spread, abs(mutual_entropy_fixed(rho, ch, dec).value - canonical))
    checks.append(_check("certified channels give every decomposition the canonical value", spread, 1e-12))

    # Through a generic channel the search starts at the canonical
    # decomposition and only climbs: no rotation drawn here may beat it.
    ch = random_kraus_channel(3, 3, 2, rng)
    found = ohya_mutual_entropy(rho, ch, budget).value
    rotations = [schatten_family(rho, rng.normal(size=schatten_param_count(rho))) for _ in range(5)]
    others = [mutual_entropy_fixed(rho, ch, dec).value for dec in (canonical_schatten(rho), *rotations)]
    checks.append(_check("the Schatten search beats the canonical and rotated decompositions", max(others) - found, 1e-12))
    return SuiteResult(name="mutual", checks=tuple(checks))


def _suite_capacity(rng, budget: SearchBudget) -> SuiteResult:
    checks = []
    basis = CodingScheme((DensityOperator(np.diag([1.0, 0.0])), DensityOperator(np.diag([0.0, 1.0]))))
    povm = projective_povm(2)

    clean = cqc_capacity(identity_channel(2), povm, basis, "weights", budget)
    checks.append(_check("noiseless orthogonal coding reaches ln 2", abs(clean.value - math.log(2.0)), 1e-9))

    gamma = 0.3
    noisy = amplitude_damping_channel(gamma)
    w_only = cqc_capacity(noisy, povm, basis, "weights", budget)
    z_channel = math.log(1.0 + (1.0 - gamma) * gamma ** (gamma / (1.0 - gamma)))
    checks.append(_check("basis coding through amplitude damping is the Z channel", abs(w_only.value - z_channel), 1e-9))
    freed = cqc_capacity(noisy, povm, basis, "coding", budget)
    full = cqc_capacity(noisy, povm, basis, "full", budget)
    chain = max(w_only.value - freed.value, freed.value - full.value)
    checks.append(_check("richer searches never lose to poorer ones", chain, 1e-9))
    checks.append(_check("chained capacity is nonnegative", -w_only.value, 1e-12))

    channel = random_kraus_channel(2, 2, 2, rng)
    decoding = random_povm(2, 3, rng)
    coding = CodingScheme(tuple(pure_state(random_pure(2, rng)) for _ in range(3)))
    full = cqc_capacity(channel, decoding, coding, "full", budget)
    chi = holevo_bound(full.maximizer["weights"], list(full.maximizer["codes"]), channel)
    checks.append(_check("freed decoding stays under the Holevo bound of its ensemble", full.value - chi, 1e-9))

    family = StateFamily("full", 2)
    ident = quantum_capacity(identity_channel(2), family, budget)
    checks.append(_check("identity channel capacity is ln 2", abs(ident.value - math.log(2.0)), 1e-5))

    # Through a covariant channel the capacity is read at I/d: ln 3 - S(ch(|0><0|)).
    depolarizing = depolarizing_channel(0.3, 3)
    covariant = quantum_capacity(depolarizing, StateFamily("full", 3), budget)
    closed = math.log(3.0) - von_neumann_entropy(apply_matrix(depolarizing, np.diag([1.0, 0.0, 0.0])))
    checks.append(_check("depolarizing capacity is its closed form", abs(covariant.value - closed), 1e-12))
    # Its own rng, so that the suites after this one draw what they drew before.
    member = random_density(3, rng_from(budget.seed))
    below = ohya_mutual_entropy(member, depolarizing, budget).value - covariant.value
    checks.append(_check("no state beats the depolarizing capacity", below, 1e-12))

    small = SearchBudget(restarts=2, max_evals=12, seed=budget.seed, tol=budget.tol)
    q = quantum_capacity(noisy, family, small)
    p = pseudo_capacity(noisy, family, 2, small)
    checks.append(_check("pseudo capacity floors at the plain one", q.value - p.value, 1e-9))
    return SuiteResult(name="capacity", checks=tuple(checks))


def _suite_entanglement(rng, budget: SearchBudget) -> SuiteResult:
    checks = []
    recon = 0.0
    weak = 0.0
    duality = 0.0
    for _ in range(10):
        theta = random_density(4, rng).matrix
        kappa = entangling_from_state(theta, (2, 2))
        recon = max(recon, float(np.linalg.norm(kappa.reconstruct() - theta)))
        weak = max(weak, weak_orthogonality_defect(kappa))
        a = random_hermitian(kappa.k_dim, rng)
        b = random_hermitian(kappa.g_dim, rng)
        duality = max(
            duality,
            abs(
                float(np.real(np.trace(phi(kappa, a) @ b)))
                - float(np.real(np.trace(phi_star(kappa, b) @ a)))
            ),
        )
    checks.append(_check("amplitudes reconstruct the state", recon, 1e-8))
    checks.append(_check("eigenbasis amplitudes are weakly orthogonal", weak, 1e-8))
    checks.append(_check("lifting and its dual pair correctly", duality, 1e-8))

    vec = np.zeros(4)
    vec[0], vec[3] = math.sqrt(0.9), math.sqrt(0.1)
    skewed = np.outer(vec, vec)
    had = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
    rotated = weak_orthogonality_defect(entangling_from_state(skewed, (2, 2), basis=had))
    checks.append(_check("rotated bases break weak orthogonality", 0.1 - rotated, 0.0))

    p = random_probability(2, rng)
    omegas = [random_density(2, rng).matrix for _ in range(2)]
    sector = d_compound(p, omegas)
    strong = strong_orthogonality_defect(sector.kappa, p, omegas)
    checks.append(_check("sector amplitudes are strongly orthogonal", strong, 1e-9))
    checks.append(
        _check("diagonal construction reconstructs its target", float(np.linalg.norm(
            sector.kappa.reconstruct() - sector.compound.theta.matrix
        )), 1e-9)
    )

    sigma = DensityOperator(np.diag([0.7, 0.3]))
    std = standard_entanglement(sigma)
    mutual = entangled_mutual_entropy(std)
    checks.append(
        _check("standard entanglement doubles the entropy", abs(mutual - 2 * von_neumann_entropy(sigma.matrix)), 1e-9)
    )
    cond, degree = conditional_and_degree(standard_entanglement(maximally_mixed(2)))
    checks.append(_check("flat standard entanglement has degree -ln 2", abs(degree + math.log(2.0)), 1e-9))
    checks.append(_check("conditional entropy stays nonnegative", -cond, 1e-9))

    product = np.kron(np.diag([0.6, 0.4]), random_density(2, rng).matrix)
    mistags = 0.0
    if classify_compound(product, (2, 2)).tag != "c":
        mistags += 1.0
    mixed = [random_density(2, rng).matrix for _ in range(2)]
    if classify_compound(d_compound(np.array([0.5, 0.5]), mixed).compound.theta.matrix, (2, 2)).tag == "q":
        mistags += 1.0
    if classify_compound(std.compound.theta.matrix, (2, 2)).tag != "q":
        mistags += 1.0
    checks.append(_check("canonical compounds classify correctly", mistags, 0.0))

    rho = DensityOperator(np.diag([0.7, 0.3]))
    levels = qdc_hierarchy(rho, identity_channel(2), budget)
    s = von_neumann_entropy(rho.matrix)
    chain = max(
        levels["c"].value - levels["d"].value - 1e-9,
        levels["d"].value - levels["q"].value - 1e-9,
    )
    checks.append(_check("class values are ordered c <= d <= q", chain, 0.0))
    checks.append(_check("diagonal class through the identity gives S(rho)", abs(levels["d"].value - s), 1e-6))
    checks.append(_check("full class through the identity gives 2 S(rho)", abs(levels["q"].value - 2 * s), 1e-3))
    return SuiteResult(name="entanglement", checks=tuple(checks))


def verify_all(seed: int = 1234) -> list[SuiteResult]:
    """Run every suite with randomness and budgets derived from one seed."""
    rng = rng_from(seed)
    budget = SearchBudget(restarts=2, max_evals=40, seed=seed, tol=1e-6)
    return [
        _suite_operators(rng),
        _suite_entropy(rng),
        _suite_channels(rng),
        _suite_mutual(rng, budget),
        _suite_capacity(rng, budget),
        _suite_entanglement(rng, budget),
    ]


def verify_report(seed: int = 1234) -> dict:
    suites = verify_all(seed)
    return {
        "suites": [
            {
                "name": s.name,
                "passed": s.n_pass,
                "failed": s.n_fail,
                "checks": [
                    {"name": c.name, "value": c.value, "bound": c.bound, "ok": c.ok}
                    for c in s.checks
                ],
            }
            for s in suites
        ],
        "passed": sum(s.n_pass for s in suites),
        "failed": sum(s.n_fail for s in suites),
        "ok": all(s.ok for s in suites),
    }
