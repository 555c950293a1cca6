"""Property tests over random channels: the capacity ordering, seed determinism,
the q/d/c bounds at fixed states and for the capacities, the pseudo mutual
entropy's ensemble at fixed states, data processing, and the cqc capacity
chain."""

import dataclasses
import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from qmi.capacity import CodingScheme, StateFamily, cqc_capacity, pseudo_capacity, quantum_capacity  # noqa: E402
from qmi.channels import apply_matrix, compose  # noqa: E402
from qmi.entanglement import qdc_hierarchy  # noqa: E402
from qmi.entropy import von_neumann_entropy  # noqa: E402
from qmi.mutual import holevo_bound, ohya_mutual_entropy, pseudo_mutual_entropy  # noqa: E402
from qmi.operators import DensityOperator, pure_state  # noqa: E402
from qmi.sampling import random_kraus_channel, random_povm, random_pure, random_unitary, rng_from  # noqa: E402
from qmi.search import SearchBudget  # noqa: E402


def _coherent_information(rho: np.ndarray, ch) -> float:
    """I_BSST = S(rho) + S(ch(rho)) - S(ch^c(rho)), with (ch^c(rho))_ij = tr(K_i rho K_j^dag)."""
    env = np.einsum("iab,bc,jac->ij", ch.stack, rho, ch.stack.conj())
    return von_neumann_entropy(rho) + von_neumann_entropy(apply_matrix(ch, rho)) - von_neumann_entropy(env)


@st.composite
def capacity_problems(draw):
    """A random Kraus channel on a qubit or qutrit, a state family and a small budget."""
    d_in = draw(st.sampled_from([2, 3]))
    d_out = draw(st.sampled_from([2, 3]))
    n_ops = draw(st.integers(min_value=-(-d_in // d_out), max_value=3))
    ch = random_kraus_channel(d_in, d_out, n_ops, rng_from(draw(st.integers(0, 2**31 - 1))))
    kind = draw(st.sampled_from(["full", "rank", "diagonal"]))
    rank = draw(st.integers(1, d_in)) if kind == "rank" else None
    budget = SearchBudget(restarts=2, max_evals=12, seed=draw(st.integers(1, 2**31 - 1)))
    return ch, StateFamily(kind, d_in, rank), budget


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(capacity_problems())
def test_capacity_chain_and_seed_determinism(problem):
    ch, family, budget = problem
    first = pseudo_capacity(ch, family, 2, budget)
    quantum = first.notes["quantum_capacity"]
    assert -1e-12 <= quantum <= first.value <= math.log(family.dim) + 1e-12
    again = pseudo_capacity(ch, family, 2, budget)
    assert (again.value, again.evals, again.notes) == (first.value, first.evals, first.notes)
    assert np.array_equal(again.maximizer["state"], first.maximizer["state"])


@st.composite
def hierarchy_problems(draw):
    """A random qubit/qutrit channel, an input state and a small budget.

    The state's spectrum is generic, degenerate (two equal eigenvalues) or
    rank-deficient (one zero eigenvalue), in a random eigenbasis.
    """
    d_in = draw(st.sampled_from([2, 3]))
    d_out = draw(st.sampled_from([2, 3]))
    n_ops = draw(st.integers(min_value=-(-d_in // d_out), max_value=3))
    rng = rng_from(draw(st.integers(0, 2**31 - 1)))
    ch = random_kraus_channel(d_in, d_out, n_ops, rng)
    w = rng.uniform(0.1, 1.0, size=d_in)
    spectrum = draw(st.sampled_from(["generic", "degenerate", "rank-deficient"]))
    if spectrum == "degenerate":
        w[1] = w[0]
    elif spectrum == "rank-deficient":
        w[-1] = 0.0
    u = random_unitary(d_in, rng)
    m = (u * (w / w.sum())) @ u.conj().T
    rho = DensityOperator((m + m.conj().T) / 2)
    budget = SearchBudget(restarts=2, max_evals=12, seed=draw(st.integers(1, 2**31 - 1)))
    return rho, ch, budget


@settings(max_examples=24, deadline=None, derandomize=True, database=None)
@given(hierarchy_problems())
def test_class_values_within_entropy_bounds(problem):
    rho, ch, budget = problem
    levels = qdc_hierarchy(rho, ch, budget)
    c, d, q = (levels[t].value for t in ("c", "d", "q"))
    bound = min(von_neumann_entropy(rho.matrix), von_neumann_entropy(apply_matrix(ch, rho.matrix)))
    assert -1e-12 <= d <= bound + 1e-12
    assert d <= q <= 2 * bound + 1e-12
    assert _coherent_information(rho.matrix, ch) - 1e-10 <= q
    if levels["c"].notes["feasible"]:
        assert c <= d
    else:
        assert c == 0.0


@st.composite
def qubit_channels(draw):
    """A random channel on a qubit, into a qubit or a qutrit, and a small budget."""
    d_out = draw(st.sampled_from([2, 3]))
    ch = random_kraus_channel(2, d_out, draw(st.integers(1, 3)), rng_from(draw(st.integers(0, 2**31 - 1))))
    return ch, SearchBudget(restarts=2, max_evals=12, seed=draw(st.integers(1, 2**31 - 1)))


@settings(max_examples=16, deadline=None, derandomize=True, database=None)
@given(qubit_channels())
def test_capacity_classes_within_bounds(problem):
    ch, budget = problem
    levels = qdc_hierarchy(None, ch, budget)
    c, d, q = (levels[t].value for t in ("c", "d", "q"))
    assert 0.0 <= c <= d <= q
    assert d == quantum_capacity(ch, StateFamily("full", 2), budget).value
    rho_d = levels["d"].maximizer["state"]
    bound = min(von_neumann_entropy(rho_d), von_neumann_entropy(apply_matrix(ch, rho_d)))
    assert _coherent_information(rho_d, ch) - 1e-10 <= q <= 2 * bound + 1e-12
    for rep in levels.values():
        if rep.notes["feasible"]:
            rebuilt = rep.maximizer["decomposition"].reconstruct()
            assert np.max(np.abs(rebuilt - rep.maximizer["state"])) <= 1e-8


@settings(max_examples=16, deadline=None, derandomize=True, database=None)
@given(hierarchy_problems(), st.sampled_from([2, 3]))
def test_pseudo_mutual_entropy_returns_a_checked_ensemble(problem, n_components):
    rho, ch, budget = problem
    budget = dataclasses.replace(budget, max_evals=30)
    got = pseudo_mutual_entropy(rho, ch, n_components, budget)
    floor = ohya_mutual_entropy(rho, ch, budget.child(0)).value
    assert floor <= got.value <= von_neumann_entropy(apply_matrix(ch, rho.matrix)) + 1e-12
    assert abs(float(np.sum(got.weights)) - 1.0) <= 1e-12
    components = [DensityOperator(c).matrix for c in got.components]
    rebuilt = sum(w * c for w, c in zip(got.weights, components))
    assert np.max(np.abs(rebuilt - rho.matrix)) <= 1e-8
    assert abs(holevo_bound(got.weights, components, ch) - got.value) <= 1e-6
    again = pseudo_mutual_entropy(rho, ch, n_components, budget)
    assert (again.value, again.evals, again.converged) == (got.value, got.evals, got.converged)
    assert np.array_equal(again.weights, got.weights)
    assert all(np.array_equal(a, b) for a, b in zip(again.components, got.components, strict=True))


@st.composite
def processing_chains(draw):
    """Two composable random channels and an input state of nondegenerate
    support spectrum, full rank or with one zero eigenvalue."""
    d_in, d_mid, d_out = (draw(st.sampled_from([2, 3])) for _ in range(3))
    rng = rng_from(draw(st.integers(0, 2**31 - 1)))
    first = random_kraus_channel(d_in, d_mid, draw(st.integers(-(-d_in // d_mid), 3)), rng)
    second = random_kraus_channel(d_mid, d_out, draw(st.integers(-(-d_mid // d_out), 3)), rng)
    w = rng.uniform(0.1, 1.0, size=d_in)
    if draw(st.booleans()):
        w[-1] = 0.0
    u = random_unitary(d_in, rng)
    m = (u * (w / w.sum())) @ u.conj().T
    return DensityOperator((m + m.conj().T) / 2), first, second


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(processing_chains())
def test_data_processing_at_nondegenerate_states(chain):
    # A nondegenerate support spectrum has one Schatten decomposition, so both
    # values are exact and relative-entropy monotonicity holds term by term.
    rho, first, second = chain
    budget = SearchBudget(restarts=2, max_evals=12, seed=1)
    after = ohya_mutual_entropy(rho, compose(second, first), budget).value
    assert after <= ohya_mutual_entropy(rho, first, budget).value + 1e-12


@st.composite
def cqc_problems(draw):
    """A random qubit/qutrit channel, pure coded states, a random POVM and a small budget."""
    d_in = draw(st.sampled_from([2, 3]))
    d_out = draw(st.sampled_from([2, 3]))
    rng = rng_from(draw(st.integers(0, 2**31 - 1)))
    ch = random_kraus_channel(d_in, d_out, draw(st.integers(-(-d_in // d_out), 3)), rng)
    coding = CodingScheme(tuple(pure_state(random_pure(d_in, rng)) for _ in range(draw(st.integers(2, 3)))))
    decoding = random_povm(d_out, draw(st.integers(2, 3)), rng)
    budget = SearchBudget(restarts=2, max_evals=12, seed=draw(st.integers(1, 2**31 - 1)))
    return ch, coding, decoding, budget


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(cqc_problems())
def test_cqc_chain_and_seed_determinism(problem):
    # Budgets chained as the "full" search chains its floors, so each poorer
    # mode's value is exactly the richer mode's floor.
    ch, coding, decoding, full = problem
    budgets = {"full": full, "coding": full.child(4), "weights": full.child(4).child(3)}
    values = {}
    for mode, budget in budgets.items():
        first = cqc_capacity(ch, decoding, coding, mode, budget)
        again = cqc_capacity(ch, decoding, coding, mode, budget)
        assert (again.value, again.evals, again.converged) == (first.value, first.evals, first.converged)
        values[mode] = first.value
    assert values["weights"] <= values["coding"] <= values["full"]
    assert values["full"] <= math.log(min(coding.size, decoding.n_outcomes)) + 1e-9
