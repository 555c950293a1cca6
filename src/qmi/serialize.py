"""JSON parsing for problem configs and canonical report rendering.

Configs are plain JSON. A complex matrix is either {"re": rows, "im": rows}
or nested row lists whose entries are numbers or [re, im] pairs; any value
that should be a matrix, channel, or POVM may instead be a string, read as
a path to another JSON file relative to the config's directory. Reports
render deterministically: sorted keys, fixed indentation, no timestamps,
and non-finite floats as the strings "inf", "-inf", "nan".
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import replace
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .operators import DensityOperator, partial_trace
from .search import SearchBudget

if TYPE_CHECKING:
    from .channels import KrausChannel, Povm
    from .mutual import CompoundState

LN2 = math.log(2.0)


class ConfigContext:
    """Resolves string-valued fields as JSON files relative to the config."""

    def __init__(self, base_dir: str | Path | None = None):
        self.base_dir = Path(base_dir) if base_dir is not None else Path(".")

    def resolve(self, obj):
        if isinstance(obj, str):
            path = self.base_dir / obj
            try:
                with open(path) as fh:
                    return json.load(fh)
            except OSError as exc:
                raise ValueError(f"cannot read referenced file {path}: {exc}") from exc
            except json.JSONDecodeError as exc:
                raise ValueError(
                    f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}"
                ) from exc
        return obj


def _parse_entry(entry) -> complex:
    if isinstance(entry, (int, float)):
        return complex(entry)
    if isinstance(entry, list) and len(entry) == 2:
        return complex(float(entry[0]), float(entry[1]))
    raise ValueError(f"matrix entry {entry!r} is neither a number nor [re, im]")


def parse_matrix(obj, ctx: ConfigContext | None = None) -> np.ndarray:
    """Complex matrix from {"re", "im"} rows or nested entry lists."""
    if ctx is not None:
        obj = ctx.resolve(obj)
    if isinstance(obj, dict):
        re = np.asarray(obj["re"], dtype=float)
        im = np.asarray(obj.get("im", np.zeros_like(re)), dtype=float)
        if re.shape != im.shape:
            raise ValueError(f"re/im shapes differ: {re.shape} vs {im.shape}")
        return re + 1j * im
    if not isinstance(obj, list) or not obj:
        raise ValueError("matrix must be a nonempty list of rows")
    rows = [[_parse_entry(e) for e in row] for row in obj]
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ValueError("matrix rows have inconsistent lengths")
    return np.array(rows, dtype=complex)


def matrix_to_json(m) -> dict:
    a = np.asarray(m, dtype=complex)
    return {"re": np.real(a).tolist(), "im": np.imag(a).tolist()}


def parse_state(obj, ctx: ConfigContext | None = None) -> DensityOperator:
    return DensityOperator(parse_matrix(obj, ctx))


def parse_probability(obj, ctx: ConfigContext | None = None) -> np.ndarray:
    if ctx is not None:
        obj = ctx.resolve(obj)
    return np.asarray(obj, dtype=float)


def parse_channel(obj, ctx: ConfigContext | None = None) -> KrausChannel:
    """Channel from {"kind": ..., fields} JSON, built by `make_channel`.

    Matrix-valued fields are parsed first; "matrix" is the unitary's `u`.
    """
    from .channels import make_channel

    if ctx is not None:
        obj = ctx.resolve(obj)
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ValueError("channel must be an object with a 'kind' field")
    parsers = {
        "ops": lambda ops: ("ops", [parse_matrix(op, ctx) for op in ops]),
        "matrix": lambda m: ("u", parse_matrix(m, ctx)),
        "states": lambda states: ("states", [parse_matrix(st, ctx) for st in states]),
        "povm": lambda povm: ("povm", parse_povm(povm, ctx)),
        "transition": lambda t: ("transition", np.real(parse_matrix(t, ctx))),
    }
    fields = {}
    for key, value in obj.items():
        if key in parsers:
            key, value = parsers[key](value)
        fields[key] = value
    return make_channel(fields.pop("kind"), **fields)


def parse_povm(obj, ctx: ConfigContext | None = None) -> Povm:
    from .channels import Povm, projective_povm

    if ctx is not None:
        obj = ctx.resolve(obj)
    if isinstance(obj, dict) and "projective" in obj:
        return projective_povm(int(obj["projective"]))
    if isinstance(obj, dict) and "effects" in obj:
        obj = obj["effects"]
    if not isinstance(obj, list):
        raise ValueError("povm must be a list of effects or {'projective': dim}")
    return Povm(tuple(parse_matrix(e, ctx) for e in obj))


def parse_budget(obj, seed_override: int | None = None) -> SearchBudget:
    obj = obj or {}
    if not isinstance(obj, dict):
        raise ValueError("budget must be an object")
    budget = SearchBudget(
        restarts=int(obj.get("restarts", SearchBudget.restarts)),
        max_evals=int(obj.get("max_evals", SearchBudget.max_evals)),
        seed=int(obj.get("seed", SearchBudget.seed)),
        tol=float(obj.get("tol", SearchBudget.tol)),
    )
    if seed_override is not None:
        budget = replace(budget, seed=int(seed_override))
    return budget


def budget_to_json(b: SearchBudget) -> dict:
    return {"restarts": b.restarts, "max_evals": b.max_evals, "seed": b.seed, "tol": b.tol}


def parse_compound(obj: dict, ctx: ConfigContext | None = None) -> CompoundState:
    from .mutual import CompoundState

    theta = parse_matrix(obj["theta"], ctx)
    d_g, d_k = (int(x) for x in obj["dims"])
    return CompoundState(
        theta=DensityOperator(theta),
        d_g=d_g,
        d_k=d_k,
        input_marginal=DensityOperator(partial_trace(theta, (d_g, d_k), keep=0)),
        output_marginal=DensityOperator(partial_trace(theta, (d_g, d_k), keep=1)),
    )


def classification_to_json(cls) -> dict:
    return {
        "class": cls.tag,
        "off_diag_norm": cls.off_diag_norm,
        "max_commutator": cls.max_commutator,
    }


def to_jsonable(obj):
    """Canonical JSON form: non-finite floats become strings, arrays nest."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        if math.isnan(obj):
            return "nan"
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        return obj
    if isinstance(obj, complex):
        return {"re": to_jsonable(obj.real), "im": to_jsonable(obj.imag)}
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return to_jsonable(float(obj))
    if isinstance(obj, np.ndarray):
        if np.iscomplexobj(obj):
            return matrix_to_json(obj)
        return [to_jsonable(x) for x in obj.tolist()]
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(x) for x in obj]
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def convert_nats_to_bits(tree):
    """Rename every "nats" key to "bits", dividing its value by ln 2."""
    if isinstance(tree, dict):
        out = {}
        for k, v in tree.items():
            if k == "nats":
                out["bits"] = v / LN2 if isinstance(v, (int, float)) and math.isfinite(v) else v
            else:
                out[k] = convert_nats_to_bits(v)
        return out
    if isinstance(tree, list):
        return [convert_nats_to_bits(x) for x in tree]
    return tree


def render_report(report: dict) -> str:
    return json.dumps(to_jsonable(report), sort_keys=True, indent=2) + "\n"


def _flatten(prefix: str, value, rows: list):
    if isinstance(value, dict):
        for k in sorted(value):
            _flatten(f"{prefix}.{k}" if prefix else str(k), value[k], rows)
    elif isinstance(value, list) and all(
        isinstance(x, (int, float, str, bool)) or x is None for x in value
    ):
        rows.append((prefix, json.dumps(value)))
    elif isinstance(value, list):
        for i, x in enumerate(value):
            _flatten(f"{prefix}.{i}", x, rows)
    else:
        rows.append((prefix, value))


def report_to_csv(report: dict) -> str:
    import csv

    rows: list = []
    _flatten("", to_jsonable(report), rows)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["key", "value"])
    for key, value in rows:
        writer.writerow([key, value])
    return buf.getvalue()
