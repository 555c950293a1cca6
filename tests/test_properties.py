"""Property tests over random channels: the capacity ordering and seed determinism."""

import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from qmi.capacity import StateFamily, pseudo_capacity  # noqa: E402
from qmi.sampling import random_kraus_channel, rng_from  # noqa: E402
from qmi.search import SearchBudget  # noqa: E402


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
