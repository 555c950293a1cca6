"""The qmi command line: reports, units, exit codes, determinism."""

import json
import math
import subprocess
import sys

import pytest

from qmi.cli import main


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


def test_mismatched_channel_exits_one(tmp_path, capsys):
    cfg = _write(
        tmp_path,
        "c.json",
        {"state": [[0.5, 0.0], [0.0, 0.5]], "channel": {"kind": "identity", "dim": 3}},
    )
    assert main(["mutual", "--config", cfg]) == 1
    assert "state dimension 2 does not match the channel input dimension 3" in capsys.readouterr().err


@pytest.mark.parametrize("field", ["restarts", "max_evals"])
def test_empty_budget_exits_one(tmp_path, capsys, field):
    cfg = _write(
        tmp_path,
        "c.json",
        {
            "state": [[0.5, 0.0], [0.0, 0.5]],
            "channel": {"kind": "identity", "dim": 2},
            "budget": {field: 0},
        },
    )
    assert main(["mutual", "--config", cfg]) == 1
    assert f"budget {field} must be at least 1, got 0" in capsys.readouterr().err


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
