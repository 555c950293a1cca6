"""The checking policy: fixed tolerances, objectives that check nothing, and
one cross-check of every reported value at the API boundary."""

import dataclasses
import inspect
import json

import numpy as np
import pytest

import qmi
from qmi import capacity, entanglement, entropy, mutual, operators
from qmi.capacity import CodingScheme, cqc_capacity
from qmi.channels import (
    KrausChannel,
    Povm,
    amplitude_damping_channel,
    classical_channel,
    depolarizing_channel,
    identity_channel,
    projective_povm,
)
from qmi.cli import main
from qmi.entanglement import _RayScorer, q_entropy_sup, qdc_hierarchy
from qmi.mutual import ohya_mutual_entropy, pseudo_mutual_entropy
from qmi.operators import ConsistencyError, pure_state
from qmi.sampling import random_density, random_hermitian, random_kraus_channel, rng_from
from qmi.search import SearchBudget

TINY = SearchBudget(restarts=2, max_evals=40, seed=3, tol=1e-6)


def _perturb_maximize(monkeypatch, module, shift=1e-3):
    """Make `module.maximize_batch` report `shift` above each best value."""

    def shifted(result):
        return dataclasses.replace(result, value=result.value + shift)

    batch = module.maximize_batch

    def perturbed(objective_rows, n_params, budget, starts=()):
        return shifted(batch(objective_rows, n_params, budget, starts))

    monkeypatch.setattr(module, "maximize_batch", perturbed)


def _counting(monkeypatch, module, name):
    count = [0]
    original = getattr(module, name)

    def counted(*args, **kwargs):
        count[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return count


# -- one cross-check per reported value --------------------------------------------------


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("perturb", ["ray search", "ray score"])
def test_q_is_checked_when_a_ray_wins(monkeypatch, dim, perturb):
    rho = random_density(dim, rng_from(40 + dim))
    ch = depolarizing_channel(0.3, dim)
    reports = qdc_hierarchy(rho, ch, TINY)
    assert reports["q"].value > reports["d"].value  # a ray wins
    if perturb == "ray search":
        # The candidate ray beats the search by more than 1e-3 here; a shift
        # of 1 makes the search's ray the reported one.
        _perturb_maximize(monkeypatch, entanglement, shift=1.0)
    else:
        # Every ray, the candidate and the search's, is scored by the stacked scorer.
        original = _RayScorer.endpoints

        def shifted(self, xs, norms, ws):
            values, steps = original(self, xs, norms, ws)
            return values + 1e-3, steps

        monkeypatch.setattr(_RayScorer, "endpoints", shifted)
    with pytest.raises(ConsistencyError, match="compound search scored"):
        qdc_hierarchy(rho, ch, TINY)


def test_q_entropy_sup_is_checked(monkeypatch):
    sigma = random_density(2, rng_from(50))
    q_entropy_sup(sigma, TINY)
    original = entanglement.q_entropy_closed_form
    monkeypatch.setattr(entanglement, "q_entropy_closed_form", lambda blocks: original(blocks) + 1e-3)
    with pytest.raises(ConsistencyError, match="q-entropy routes disagree"):
        q_entropy_sup(sigma, TINY)


def test_pseudo_split_is_checked(monkeypatch):
    rho = random_density(2, rng_from(60))
    ch = amplitude_damping_channel(0.3)
    pseudo_mutual_entropy(rho, ch, 2, TINY)
    _perturb_maximize(monkeypatch, mutual)
    with pytest.raises(ConsistencyError, match="pseudo mutual-entropy routes disagree"):
        pseudo_mutual_entropy(rho, ch, 2, TINY)


_CODING = CodingScheme((pure_state([1.0, 0.0]), pure_state([0.0, 1.0])))


@pytest.mark.parametrize("mode", ["weights", "coding", "full"])
def test_each_cqc_mode_checks_its_own_search(monkeypatch, mode):
    # Every mode ends its rounds, or its solve, on the weights solve: shift
    # the value it reports, and the point no longer scores the mode's value.
    args = (depolarizing_channel(0.2, 2), projective_povm(2), _CODING, mode, TINY)
    cqc_capacity(*args)
    solve = capacity._cqc_weights

    def shifted(*args):
        weights, value, gap, evals = solve(*args)
        return weights, value + 1e-3, gap, evals

    monkeypatch.setattr(capacity, "_cqc_weights", shifted)
    with pytest.raises(ConsistencyError, match="cqc search reported"):
        cqc_capacity(*args)


def test_a_perturbed_kl_route_is_caught(monkeypatch):
    original = capacity._cqc_kl

    def perturbed(weights, dists):
        value, kl, avg = original(weights, dists)
        return value + 1e-3, kl, avg

    monkeypatch.setattr(capacity, "_cqc_kl", perturbed)
    with pytest.raises(ConsistencyError, match="cqc mutual-entropy routes disagree"):
        cqc_capacity(depolarizing_channel(0.2, 2), projective_povm(2), _CODING, "weights", TINY)


def test_a_perturbed_narrow_compound_route_is_caught(monkeypatch):
    # K r = 16 columns of B against a 64-square compound: the cross route
    # reads S(theta) from B^dag B.
    rng = rng_from(71)
    rho, ch = random_density(8, rng), random_kraus_channel(8, 8, 2, rng)
    ohya_mutual_entropy(rho, ch, TINY)
    original = mutual._narrow_compound
    calls = []

    def shifted(*args):
        calls.append(args)
        joint, m_in, m_out = original(*args)
        return joint + 1e-3, m_in, m_out

    monkeypatch.setattr(mutual, "_narrow_compound", shifted)
    with pytest.raises(ConsistencyError, match="mutual-entropy routes disagree"):
        ohya_mutual_entropy(rho, ch, TINY)
    assert len(calls) == 1


def test_a_perturbed_framed_compound_route_is_caught(monkeypatch):
    # 4 components through 16 Kraus operators against a 16-square compound:
    # the cross route reads S(theta) from the four 4-square diagonal blocks.
    rho, ch = random_density(4, rng_from(73)), depolarizing_channel(0.3, 4)
    ohya_mutual_entropy(rho, ch, TINY)
    original = mutual._framed_compound
    calls = []

    def shifted(*args):
        calls.append(args)
        joint, m_in, m_out = original(*args)
        return joint + 1e-3, m_in, m_out

    monkeypatch.setattr(mutual, "_framed_compound", shifted)
    with pytest.raises(ConsistencyError, match="mutual-entropy routes disagree"):
        ohya_mutual_entropy(rho, ch, TINY)
    assert len(calls) == 1


def test_a_perturbed_gram_side_component_route_is_caught(monkeypatch):
    # Two Kraus operators into 8 outputs: each component term reads its
    # entropy from a 2 x 2 Gram matrix, never from the 8-square output.
    rng = rng_from(72)
    rho, ch = random_density(8, rng), random_kraus_channel(8, 8, 2, rng)
    ohya_mutual_entropy(rho, ch, TINY)
    original = mutual._image_relative_entropy_rows
    calls = []

    def shifted(images, factor):
        calls.append(images.shape)
        return original(images, factor) - 1e-3  # each S(ch(|v_k><v_k|)) raised by 1e-3

    monkeypatch.setattr(mutual, "_image_relative_entropy_rows", shifted)
    with pytest.raises(ConsistencyError, match="mutual-entropy routes disagree"):
        ohya_mutual_entropy(rho, ch, TINY)
    assert calls == [(8, 8, 2)]


def test_checks_do_not_grow_with_the_budget(monkeypatch):
    routes = _counting(monkeypatch, capacity, "_cqc_routes")
    relent = _counting(monkeypatch, entanglement, "product_relative_entropy")
    sigma = random_density(2, rng_from(70))
    runs = {
        "cqc full": (routes, lambda evals: cqc_capacity(
            depolarizing_channel(0.2, 2), projective_povm(2), _CODING, "full", SearchBudget(2, evals)
        )),
        "q_entropy_sup": (relent, lambda evals: q_entropy_sup(sigma, SearchBudget(2, evals))),
    }
    for name, (count, run) in runs.items():
        calls = []
        for evals in (40, 80):
            before = count[0]
            run(evals)
            calls.append(count[0] - before)
        assert calls[0] == calls[1] <= 3, (name, calls)


# -- fixed tolerances --------------------------------------------------------------------


def _tolerance_parameters(fn) -> list[str]:
    return [p for p in inspect.signature(fn).parameters if p == "tol" or p.endswith("_tol")]


def test_no_public_function_takes_a_tolerance():
    # qmi exports its names lazily, so they are looked up, not read from vars(qmi).
    exported = {name: getattr(qmi, name) for name in qmi.__all__}
    functions = {f"qmi.{name}": obj for name, obj in exported.items() if inspect.isfunction(obj)}
    for module in (entropy, operators, mutual):
        for name, obj in vars(module).items():
            if inspect.isfunction(obj) and not name.startswith("_") and obj.__module__ == module.__name__:
                functions[f"{module.__name__}.{name}"] = obj
    assert "qmi.von_neumann_entropy" in functions and "qmi.operators.is_hermitian" in functions
    offenders = {name: params for name, fn in functions.items() if (params := _tolerance_parameters(fn))}
    assert offenders == {}
    assert [f.name for f in dataclasses.fields(SearchBudget)] == ["restarts", "max_evals", "seed", "tol"]
    assert list(inspect.signature(SearchBudget.child).parameters) == ["self", "tag"]
    assert list(inspect.signature(random_hermitian).parameters) == ["dim", "rng"]


# -- zero and negative dimensions --------------------------------------------------------


@pytest.mark.parametrize(
    "build",
    [lambda: identity_channel(0), lambda: identity_channel(-1), lambda: depolarizing_channel(0.3, 0)],
)
def test_channel_dimension_below_one_is_rejected(build):
    with pytest.raises(ValueError, match="channel dimension must be at least 1"):
        build()


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Povm((np.zeros((0, 0)),)), "POVM dimension must be at least 1, got 0"),
        (lambda: projective_povm(-1), "POVM dimension must be at least 1, got -1"),
        (lambda: projective_povm(0), "POVM dimension must be at least 1, got 0"),
        (lambda: classical_channel(np.zeros((0, 0))), "classical channel input dimension must be at least 1, got 0"),
        (lambda: classical_channel(np.zeros((2, 0))), "classical channel input dimension must be at least 1, got 0"),
        (lambda: classical_channel(np.zeros((0, 2))), "classical channel output dimension must be at least 1, got 0"),
    ],
    ids=["povm-empty", "projective-negative", "projective-zero", "classical-empty", "classical-no-input",
         "classical-no-output"],
)
def test_povm_and_classical_dimensions_below_one_are_rejected(build, message):
    with pytest.raises(ValueError, match=message):
        build()


@pytest.mark.parametrize("shape", [(1, 0), (0, 2), (0, 0)])
def test_kraus_operator_with_a_zero_dimension_is_rejected(shape):
    with pytest.raises(ValueError, match="zero dimension"):
        KrausChannel((np.zeros(shape),))


@pytest.mark.parametrize("n_decoding", [0, -1])
def test_cqc_needs_a_decoding_outcome(n_decoding):
    # "full" frees exactly the given decoding's outcomes: no count is taken,
    # and a decoding has at least one effect.
    with pytest.raises(TypeError, match="n_decoding"):
        cqc_capacity(identity_channel(2), projective_povm(2), _CODING, "full", TINY, n_decoding=n_decoding)
    with pytest.raises(ValueError, match="a POVM needs at least one effect"):
        Povm(())


@pytest.mark.parametrize(
    "command, config, message",
    [
        ("mutual", {"channel": {"kind": "depolarizing", "p": 0.3, "dim": 0}},
         "channel dimension must be at least 1"),
        ("mutual", {"channel": {"kind": "identity", "dim": -1}}, "channel dimension must be at least 1"),
        ("mutual", {"channel": {"kind": "kraus", "ops": [{"re": [[]]}]}}, "zero dimension"),
        ("cqc", {"channel": {"kind": "identity", "dim": 2}, "coding": [[[1, 0], [0, 0]], [[0, 0], [0, 1]]],
                 "decoding": [], "mode": "full"},
         "a POVM needs at least one effect"),
        ("cqc", {"channel": {"kind": "identity", "dim": 2}, "coding": [[[1, 0], [0, 0]], [[0, 0], [0, 1]]],
                 "decoding": {"projective": -1}},
         "POVM dimension must be at least 1, got -1"),
        ("mutual", {"channel": {"kind": "classical", "transition": [[]]}},
         "classical channel input dimension must be at least 1, got 0"),
    ],
)
def test_cli_dimension_errors_exit_one(tmp_path, capsys, command, config, message):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"state": [[0.5, 0.0], [0.0, 0.5]], **config}))
    assert main([command, "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
