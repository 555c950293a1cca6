"""The qmi command line: reports, units, exit codes, determinism."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qmi.channels import (
    KrausChannel,
    amplitude_damping_channel,
    classical_channel,
    cq_channel,
    depolarizing_channel,
    identity_channel,
    measurement_channel,
    phase_damping_channel,
    unitary_channel,
)
from qmi import cli
from qmi.cli import main
from qmi.sampling import random_kraus_channel, random_povm, random_unitary, rng_from
from qmi.serialize import matrix_to_json, parse_channel, to_jsonable


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def _run(tmp_path, argv):
    out = tmp_path / "report.out"
    code = main(argv + ["--out", str(out)])
    return code, out.read_text() if out.exists() else ""


def test_entropy_report_shape(tmp_path):
    cfg = _write(tmp_path, "c.json", {"state": [[0.7, 0.0], [0.0, 0.3]]})
    code, text = _run(tmp_path, ["entropy", "--config", cfg])
    assert code == 0
    report = json.loads(text)
    assert report["command"] == "entropy"
    assert len(report["input_sha256"]) == 64
    assert report["units"] == "nats"
    assert report["converged"] is True
    assert abs(report["results"]["nats"] - 0.6108643020548935) < 1e-12


def test_bits_flag_rescales(tmp_path):
    cfg = _write(tmp_path, "c.json", {"state": [[0.5, 0.0], [0.0, 0.5]]})
    code, text = _run(tmp_path, ["entropy", "--config", cfg, "--bits"])
    assert code == 0
    report = json.loads(text)
    assert report["units"] == "bits"
    assert abs(report["results"]["bits"] - 1.0) < 1e-12
    assert "nats" not in report["results"]


def test_infinite_values_serialize_as_strings(tmp_path):
    cfg = _write(
        tmp_path,
        "c.json",
        {"state": [[1.0, 0.0], [0.0, 0.0]], "reference": [[0.0, 0.0], [0.0, 1.0]]},
    )
    code, text = _run(tmp_path, ["relent", "--config", cfg])
    assert code == 0
    assert json.loads(text)["results"]["nats"] == "inf"


def test_reports_are_byte_identical(tmp_path):
    cfg = _write(
        tmp_path,
        "c.json",
        {
            "state": [[0.7, 0.1], [0.1, 0.3]],
            "channel": {"kind": "depolarizing", "p": 0.3, "dim": 2},
            "budget": {"restarts": 2, "max_evals": 30},
        },
    )
    _, first = _run(tmp_path, ["mutual", "--config", cfg, "--seed", "7"])
    _, second = _run(tmp_path, ["mutual", "--config", cfg, "--seed", "7"])
    assert first == second
    assert json.loads(first)["seed"] == 7


def test_cqc_weights_report_carries_its_certificate(tmp_path):
    # Basis coding through amplitude damping, read out in the basis, is the Z channel.
    gamma = 0.3
    cfg = _write(
        tmp_path,
        "c.json",
        {
            "channel": {"kind": "amplitude_damping", "gamma": gamma},
            "coding": [[[1, 0], [0, 0]], [[0, 0], [0, 1]]],
            "decoding": {"projective": 2},
            "mode": "weights",
            "budget": {"tol": 1e-8},
        },
    )
    code, text = _run(tmp_path, ["cqc", "--config", cfg])
    assert code == 0
    report = json.loads(text)
    z_channel = math.log(1.0 + (1.0 - gamma) * gamma ** (gamma / (1.0 - gamma)))
    assert abs(report["results"]["nats"] - z_channel) <= 1e-9
    assert report["converged"] is True
    assert 0.0 <= report["results"]["notes"]["gap"] <= 1e-8


@pytest.mark.parametrize("key, value", [("pure_coding", False), ("n_decoding", 4)])
def test_cqc_rejects_a_removed_key(tmp_path, capsys, key, value):
    cfg = _write(
        tmp_path,
        "c.json",
        {
            "channel": {"kind": "identity", "dim": 2},
            "coding": [[[1, 0], [0, 0]], [[0, 0], [0, 1]]],
            "decoding": {"projective": 2},
            "mode": "full",
            key: value,
        },
    )
    assert main(["cqc", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert f"config key {key!r} is no longer read" in err and "Traceback" not in err


def test_qdc_rejects_a_removed_key(tmp_path, capsys):
    cfg = _write(
        tmp_path,
        "q.json",
        {"state": [[0.5, 0], [0, 0.5]], "channel": {"kind": "identity", "dim": 2}, "fix_output_blocks": False},
    )
    assert main(["qdc", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert "config key 'fix_output_blocks' is no longer read: " in err and "Traceback" not in err


def test_pseudo_mutual_merges_tiny_split_components(tmp_path):
    # At this budget the best split no longer beats the Ohya floor, so the
    # floor's decomposition is reported and no merge runs;
    # test_mutual.py::test_checked_ensemble_merges_a_tiny_component reaches it.
    u = random_unitary(3, rng_from(8))
    rho = (u * [0.5, 0.5, 0.0]) @ u.conj().T
    cfg = _write(
        tmp_path,
        "c.json",
        {
            "state": matrix_to_json(rho),
            "channel": {"kind": "depolarizing", "p": 0.3, "dim": 3},
            "n_components": 2,
            "budget": {"restarts": 2, "max_evals": 30, "seed": 1},
        },
    )
    code, text = _run(tmp_path, ["pseudo-mutual", "--config", cfg])
    assert code == 0
    weights = np.array(json.loads(text)["results"]["weights"])
    assert abs(float(np.sum(weights)) - 1.0) <= 1e-12
    assert np.min(weights) > 1e-6


def test_seed_flag_overrides_config_budget(tmp_path):
    cfg = _write(
        tmp_path,
        "c.json",
        {
            "state": [[0.5, 0.0], [0.0, 0.5]],
            "channel": {"kind": "identity", "dim": 2},
            "budget": {"restarts": 2, "max_evals": 30, "seed": 11},
        },
    )
    _, text = _run(tmp_path, ["mutual", "--config", cfg, "--seed", "23"])
    report = json.loads(text)
    assert report["seed"] == 23
    assert report["budget"]["seed"] == 23


def test_csv_output_flattens(tmp_path):
    cfg = _write(tmp_path, "c.json", {"state": [[0.5, 0.0], [0.0, 0.5]]})
    code, text = _run(tmp_path, ["entropy", "--config", cfg, "--csv"])
    assert code == 0
    lines = text.splitlines()
    assert lines[0] == "key,value"
    keys = [line.split(",")[0] for line in lines[1:]]
    assert "results.nats" in keys
    assert "input_sha256" in keys


def test_complex_entries_parse_as_pairs(tmp_path):
    cfg = _write(
        tmp_path,
        "c.json",
        {"state": [[[0.5, 0.0], [0.0, -0.1]], [[0.0, 0.1], [0.5, 0.0]]]},
    )
    code, text = _run(tmp_path, ["entropy", "--config", cfg])
    assert code == 0
    assert json.loads(text)["results"]["nats"] < math.log(2.0)


@pytest.mark.parametrize("shape", [(3,), (2, 2), (2, 1, 3)])
def test_complex_arrays_serialize_as_real_and_imaginary_parts(shape):
    a = np.arange(np.prod(shape)).reshape(shape) * (0.5 - 1.5j)
    got = to_jsonable({"a": a, "b": [a]})
    want = {"re": np.real(a).tolist(), "im": np.imag(a).tolist()}
    assert got == {"a": want, "b": [want]}
    assert json.loads(json.dumps(got)) == got


def test_referenced_files_resolve_relative_to_config(tmp_path):
    _write(tmp_path, "state.json", [[0.5, 0.0], [0.0, 0.5]])
    cfg = _write(tmp_path, "c.json", {"state": "state.json"})
    code, text = _run(tmp_path, ["entropy", "--config", cfg])
    assert code == 0
    assert abs(json.loads(text)["results"]["nats"] - math.log(2.0)) < 1e-12


def test_malformed_json_exits_one_with_location(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"state": [[0.5,]]}')
    assert main(["entropy", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert "bad.json:1:" in err


def test_missing_field_exits_one(tmp_path, capsys):
    cfg = _write(tmp_path, "c.json", {"state": [[0.5, 0.0], [0.0, 0.5]]})
    assert main(["mutual", "--config", cfg]) == 1
    assert "channel" in capsys.readouterr().err


def _channel_cases():
    rng = rng_from(11)
    kraus = random_kraus_channel(2, 2, 3, rng).ops
    u = random_unitary(3, rng)
    states = [np.diag([1.0, 0.0]).astype(complex), np.full((2, 2), 0.5, dtype=complex)]
    povm = random_povm(2, 3, rng)
    transition = np.array([[0.9, 0.2], [0.1, 0.5], [0.0, 0.3]])
    return {
        "kraus": ({"ops": [matrix_to_json(k) for k in kraus]}, KrausChannel(tuple(kraus))),
        "identity": ({"dim": 3}, identity_channel(3)),
        "depolarizing": ({"p": 0.3, "dim": 2}, depolarizing_channel(0.3, 2)),
        "amplitude_damping": ({"gamma": 0.4}, amplitude_damping_channel(0.4)),
        "phase_damping": ({"lam": 0.25}, phase_damping_channel(0.25)),
        "unitary": ({"matrix": matrix_to_json(u)}, unitary_channel(u)),
        "cq": ({"states": [matrix_to_json(s) for s in states]}, cq_channel(states)),
        "measure": ({"povm": [matrix_to_json(e) for e in povm.effects]}, measurement_channel(povm)),
        "classical": ({"transition": transition.tolist()}, classical_channel(transition)),
    }


@pytest.mark.parametrize("kind", list(_channel_cases()))
def test_parse_channel_matches_the_named_constructor(kind):
    fields, expected = _channel_cases()[kind]
    got = parse_channel({"kind": kind, **fields})
    assert len(got.ops) == len(expected.ops)
    for a, b in zip(got.ops, expected.ops):
        assert np.array_equal(a, b)


def test_parse_channel_errors():
    with pytest.raises(ValueError, match="unknown channel kind"):
        parse_channel({"kind": "frobnicate"})
    with pytest.raises(KeyError):
        parse_channel({"kind": "depolarizing", "dim": 2})
    with pytest.raises(ValueError, match="'kind' field"):
        parse_channel({"dim": 2})


def test_invalid_state_exits_one(tmp_path, capsys):
    cfg = _write(tmp_path, "c.json", {"state": [[0.9, 0.0], [0.0, 0.3]]})
    assert main(["entropy", "--config", cfg]) == 1
    assert "trace" in capsys.readouterr().err


def test_usage_errors_exit_one():
    with pytest.raises(SystemExit) as info:
        main(["entropy"])  # --config is required
    assert info.value.code == 1
    with pytest.raises(SystemExit) as info:
        main(["frobnicate"])
    assert info.value.code == 1


def test_entangle_command_classifies(tmp_path):
    cfg = _write(
        tmp_path,
        "c.json",
        {"construct": {"kind": "standard", "sigma": [[0.7, 0.0], [0.0, 0.3]]}},
    )
    code, text = _run(tmp_path, ["entangle", "--config", cfg])
    assert code == 0
    results = json.loads(text)["results"]
    assert results["class"] == "q"
    assert abs(results["mutual"]["nats"] - 1.221728604109787) < 1e-9
    assert abs(results["degree"]["nats"] + 0.6108643020548935) < 1e-9


def test_entangle_sup_output_entropy_is_the_closed_form(tmp_path):
    cfg = _write(
        tmp_path,
        "c.json",
        {
            "construct": {"kind": "standard", "sigma": [[0.5, 0.1], [0.1, 0.5]]},
            "sup_output_entropy": True,
            "budget": {"restarts": 2, "max_evals": 30},
        },
    )
    code, first = _run(tmp_path, ["entangle", "--config", cfg])
    _, second = _run(tmp_path, ["entangle", "--config", cfg])
    assert code == 0
    assert first == second
    report = json.loads(first)
    sup = report["results"]["sup_output_entropy"]
    twice_s = -2 * (0.6 * math.log(0.6) + 0.4 * math.log(0.4))  # sigma has spectrum (0.6, 0.4)
    assert abs(sup["nats"] - twice_s) < 1e-12
    assert sup["evals"] == 0
    assert report["converged"] is True


def test_qdc_command_orders_classes(tmp_path):
    cfg = _write(
        tmp_path,
        "c.json",
        {
            "state": [[0.7, 0.0], [0.0, 0.3]],
            "channel": {"kind": "identity", "dim": 2},
            "budget": {"restarts": 2, "max_evals": 30},
        },
    )
    code, text = _run(tmp_path, ["qdc", "--config", cfg])
    assert code == 0
    results = json.loads(text)["results"]
    assert results["c"]["nats"] <= results["d"]["nats"] + 1e-9
    assert results["d"]["nats"] <= results["q"]["nats"] + 1e-9


def test_qdc_command_handles_rank_deficient_states(tmp_path):
    cfg = _write(
        tmp_path,
        "c.json",
        {
            "state": [[0.7, 0.0, 0.0], [0.0, 0.3, 0.0], [0.0, 0.0, 0.0]],
            "channel": {"kind": "identity", "dim": 3},
            "budget": {"restarts": 2, "max_evals": 40},
        },
    )
    code, text = _run(tmp_path, ["qdc", "--config", cfg])
    assert code == 0
    results = json.loads(text)["results"]
    assert results["c"]["nats"] <= results["d"]["nats"] + 1e-9
    assert results["d"]["nats"] <= results["q"]["nats"] + 1e-9
    assert abs(results["q"]["nats"] - 1.221728604109787) < 1e-6


def test_qdc_command_reports_capacities_without_a_state(tmp_path):
    cfg = _write(
        tmp_path,
        "c.json",
        {
            "channel": {"kind": "identity", "dim": 2},
            "budget": {"restarts": 2, "max_evals": 12},
        },
    )
    code, text = _run(tmp_path, ["qdc", "--config", cfg])
    assert code == 0
    results = json.loads(text)["results"]
    assert results["c"]["nats"] <= results["d"]["nats"] <= results["q"]["nats"]
    assert abs(results["d"]["nats"] - math.log(2.0)) < 1e-6
    assert abs(results["q"]["nats"] - 2 * math.log(2.0)) < 1e-6


def test_qdc_command_rejects_mismatched_channel(tmp_path, capsys):
    cfg = _write(
        tmp_path,
        "c.json",
        {"state": [[0.6, 0.0], [0.0, 0.4]], "channel": {"kind": "identity", "dim": 3}},
    )
    assert main(["qdc", "--config", cfg]) == 1
    assert "state dimension 2 does not match the channel input dimension 3" in capsys.readouterr().err


def test_mismatched_channel_exits_one(tmp_path, capsys):
    cfg = _write(
        tmp_path,
        "c.json",
        {"state": [[0.5, 0.0], [0.0, 0.5]], "channel": {"kind": "identity", "dim": 3}},
    )
    assert main(["mutual", "--config", cfg]) == 1
    assert "state dimension 2 does not match the channel input dimension 3" in capsys.readouterr().err


@pytest.mark.parametrize(
    "states, message",
    [
        # Unit trace but not PSD.
        ([[[2.0, 0.0], [0.0, -1.0]], [[0.5, 0.0], [0.0, 0.5]]], "density operator has an eigenvalue below -1e-10"),
        ([np.diag([1.0, 0.0, 0.0]).tolist(), np.diag([0.0, 1.0, 0.0]).tolist()],
         "state dimension 3 does not match the channel input dimension 2"),
    ],
    ids=["not-psd", "qutrit"],
)
def test_holevo_rejects_invalid_coded_states(tmp_path, capsys, states, message):
    cfg = _write(
        tmp_path,
        "c.json",
        {"weights": [0.5, 0.5], "states": states, "channel": {"kind": "identity", "dim": 2}},
    )
    assert main(["holevo", "--config", cfg]) == 1
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("restarts", 0, "budget restarts must be at least 1, got 0"),
        ("max_evals", 0, "budget max_evals must be at least 1, got 0"),
        ("tol", -1.0, "budget tol must be finite and at least 0, got -1.0"),
        ("tol", math.nan, "budget tol must be finite and at least 0, got nan"),
    ],
    ids=["restarts", "max_evals", "tol-negative", "tol-nan"],
)
def test_empty_budget_exits_one(tmp_path, capsys, field, value, message):
    cfg = _write(
        tmp_path,
        "c.json",
        {
            "state": [[0.5, 0.0], [0.0, 0.5]],
            "channel": {"kind": "identity", "dim": 2},
            "budget": {field: value},
        },
    )
    assert main(["mutual", "--config", cfg]) == 1
    assert message in capsys.readouterr().err


def test_non_finite_weight_exits_one(tmp_path, capsys):
    # Python's json reads NaN; the weight is rejected where it enters.
    cfg = _write(
        tmp_path,
        "c.json",
        {
            "weights": [math.nan, 1.0],
            "states": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 1.0]]],
            "channel": {"kind": "identity", "dim": 2},
        },
    )
    assert main(["holevo", "--config", cfg]) == 1
    assert "non-finite entry in probability vector" in capsys.readouterr().err


def test_linear_algebra_failure_exits_two(monkeypatch, capsys):
    # np.linalg.LinAlgError subclasses ValueError, which exits 1.
    def failing(cfg, ctx, budget):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setitem(cli._COMMANDS, "verify", failing)
    assert main(["verify"]) == 2
    assert "linear algebra failure: Eigenvalues did not converge" in capsys.readouterr().err


def test_verify_command_reports_suites(tmp_path):
    code, text = _run(tmp_path, ["verify", "--seed", "5"])
    assert code == 0
    results = json.loads(text)["results"]
    assert results["ok"] is True
    names = [s["name"] for s in results["suites"]]
    assert names == ["operators", "entropy", "channels", "mutual", "capacity", "entanglement"]
    assert all(s["failed"] == 0 for s in results["suites"])


def test_console_script_is_wired():
    proc = subprocess.run(
        [sys.executable, "-m", "qmi.cli", "entropy", "--config", "/dev/null"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1  # empty file is a parse error, cleanly reported


def test_package_runs_as_a_module():
    # A checkout without an install has `python -m qmi` as its entry point.
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "qmi", "verify", "--seed", "5"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["results"]["ok"] is True


def test_start_up_imports_no_scipy():
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, qmi, qmi.cli; "
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))",
        ],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"



_BASE_MODULES = {"operators", "entropy", "search", "serialize"}
_CHANNEL_MODULES = _BASE_MODULES | {"channels", "mutual", "sampling"}
_QUBIT_STATE = [[0.7, 0.0], [0.0, 0.3]]
_DEPOLARIZING = {"kind": "depolarizing", "p": 0.3, "dim": 2}
_SMALL_BUDGET = {"restarts": 1, "max_evals": 20}

# Each command with a light config and the `qmi` submodules, besides `cli`, its run loads.
_COMMAND_IMPORTS = {
    "entropy": ({"state": _QUBIT_STATE}, _BASE_MODULES),
    "relent": ({"state": _QUBIT_STATE, "reference": [[0.5, 0.0], [0.0, 0.5]]}, _BASE_MODULES),
    "holevo": (
        {"weights": [0.5, 0.5], "states": [[[1, 0], [0, 0]], [[0, 0], [0, 1]]], "channel": _DEPOLARIZING},
        _CHANNEL_MODULES,
    ),
    "mutual": ({"state": _QUBIT_STATE, "channel": _DEPOLARIZING, "budget": _SMALL_BUDGET}, _CHANNEL_MODULES),
    "capacity": ({"channel": _DEPOLARIZING, "budget": _SMALL_BUDGET}, _CHANNEL_MODULES | {"capacity"}),
    "entangle": (
        {"construct": {"kind": "standard", "sigma": _QUBIT_STATE}},
        _CHANNEL_MODULES | {"capacity", "entanglement"},
    ),
}


def _fresh_qmi_modules(code: str) -> set:
    """The `qmi` submodules loaded after running `code` in a new interpreter."""
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", code + "; print(' '.join(m[4:] for m in sys.modules if m.startswith('qmi.')))"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


def test_a_bare_import_loads_no_solver_module():
    loaded = _fresh_qmi_modules("import sys, qmi")
    assert not loaded & {"channels", "mutual", "sampling", "capacity", "entanglement", "verify"}


@pytest.mark.parametrize("command", sorted(_COMMAND_IMPORTS))
def test_each_command_imports_only_the_modules_it_runs(tmp_path, command):
    config, expected = _COMMAND_IMPORTS[command]
    cfg = _write(tmp_path, "c.json", config)
    argv = [command, "--config", cfg, "--out", str(tmp_path / "report.json")]
    loaded = _fresh_qmi_modules(f"import sys, qmi.cli; assert qmi.cli.main({argv!r}) == 0")
    assert loaded == expected | {"cli"}
    assert json.loads((tmp_path / "report.json").read_text())["command"] == command

def test_qdc_command_rejects_an_oversized_compound(tmp_path, capsys):
    # q's compound would have side 16 * 16 = 256, above the 64 cap.
    cfg = _write(
        tmp_path,
        "c.json",
        {"state": (np.eye(16) / 16).tolist(), "channel": {"kind": "depolarizing", "p": 0.3, "dim": 16}},
    )
    assert main(["qdc", "--config", cfg]) == 1
    assert "16 * 16 = 256 exceeds the supported maximum 64" in capsys.readouterr().err
