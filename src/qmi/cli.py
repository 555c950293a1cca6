"""Batch CLI: one JSON config in, one deterministic JSON (or CSV) report out.

Every report embeds the config hash, the effective seed, the search budget,
and convergence flags, and renders byte-identically for identical
(config, seed) pairs. Exit codes: 0 on success (including non-converged
searches, which are reported, not failed), 1 for usage and config errors,
2 for numerical consistency failures.

Each command imports its solver module when it runs, so a cold process
loads only the modules its command needs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from .operators import ConsistencyError
from .serialize import (
    ConfigContext,
    budget_to_json,
    classification_to_json,
    convert_nats_to_bits,
    parse_budget,
    parse_channel,
    parse_compound,
    parse_matrix,
    parse_povm,
    parse_probability,
    parse_state,
    render_report,
    report_to_csv,
    to_jsonable,
)


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; the contract here is 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _cmd_entropy(cfg, ctx, budget):
    from .entropy import von_neumann_entropy

    state = parse_state(cfg["state"], ctx)
    return {"nats": von_neumann_entropy(state.matrix)}, True


def _cmd_relent(cfg, ctx, budget):
    from .entropy import umegaki_relative_entropy

    state = parse_state(cfg["state"], ctx)
    reference = parse_state(cfg["reference"], ctx)
    return {"nats": umegaki_relative_entropy(state.matrix, reference.matrix)}, True


def _cmd_mutual(cfg, ctx, budget):
    from .mutual import ohya_mutual_entropy

    rho = parse_state(cfg["state"], ctx)
    ch = parse_channel(cfg["channel"], ctx)
    got = ohya_mutual_entropy(rho, ch, budget)
    return {"nats": got.value, "evals": got.evals}, got.converged


def _cmd_pseudo_mutual(cfg, ctx, budget):
    from .mutual import pseudo_mutual_entropy

    rho = parse_state(cfg["state"], ctx)
    ch = parse_channel(cfg["channel"], ctx)
    got = pseudo_mutual_entropy(rho, ch, int(cfg.get("n_components", 2)), budget)
    return {"nats": got.value, "evals": got.evals, "weights": got.weights}, got.converged


def _cmd_holevo(cfg, ctx, budget):
    from .mutual import holevo_bound

    weights = parse_probability(cfg["weights"], ctx)
    states = [parse_matrix(s, ctx) for s in cfg["states"]]
    ch = parse_channel(cfg["channel"], ctx)
    return {"nats": holevo_bound(weights, states, ch)}, True


def _cmd_capacity(cfg, ctx, budget):
    from .capacity import StateFamily, pseudo_capacity, quantum_capacity

    ch = parse_channel(cfg["channel"], ctx)
    fam = cfg.get("family", {})
    family = StateFamily(fam.get("kind", "full"), ch.in_dim, fam.get("rank"))
    if cfg.get("kind", "quantum") == "pseudo":
        rep = pseudo_capacity(ch, family, int(cfg.get("n_components", 2)), budget)
    else:
        rep = quantum_capacity(ch, family, budget)
    results = {"nats": rep.value, "evals": rep.evals, "notes": rep.notes}
    state = rep.maximizer.get("state")
    if state is not None:
        results["maximizer_state"] = state
    return results, rep.converged


def _cmd_cqc(cfg, ctx, budget):
    from .capacity import CodingScheme, CqcInstance, cqc_capacity, cqc_mutual_entropy

    ch = parse_channel(cfg["channel"], ctx)
    coding = CodingScheme(tuple(parse_state(s, ctx) for s in cfg["coding"]))
    decoding = parse_povm(cfg["decoding"], ctx)
    mode = cfg.get("mode", "weights")
    if mode == "fixed":
        inst = CqcInstance(
            weights=parse_probability(cfg["weights"], ctx),
            coding=coding,
            channel=ch,
            decoding=decoding,
        )
        got = cqc_mutual_entropy(inst)
        return {"nats": got.value, "route_defect": got.defect}, True
    rep = cqc_capacity(ch, decoding, coding, mode, budget)
    return {"nats": rep.value, "evals": rep.evals, "notes": rep.notes}, rep.converged


def _entangled_from_config(cfg, ctx):
    from .entanglement import classify_compound, d_compound, standard_entanglement

    if "construct" in cfg:
        c = ctx.resolve(cfg["construct"])
        kind = c.get("kind")
        if kind == "standard":
            built = standard_entanglement(parse_state(c["sigma"], ctx))
        elif kind == "diagonal":
            weights = parse_probability(c["weights"], ctx)
            outputs = [parse_matrix(m, ctx) for m in c["outputs"]]
            built = d_compound(weights, outputs)
        else:
            raise ValueError(f"unknown construct kind {kind!r}")
        return built.compound, built.entanglement_class
    compound = parse_compound(ctx.resolve(cfg["compound"]), ctx)
    cls = classify_compound(compound.theta.matrix, (compound.d_g, compound.d_k))
    return compound, cls


def _cmd_entangle(cfg, ctx, budget):
    from .entanglement import conditional_and_degree, entangled_mutual_entropy, q_entropy_sup

    compound, cls = _entangled_from_config(cfg, ctx)
    mutual = entangled_mutual_entropy(compound)
    cond, degree = conditional_and_degree(compound)
    results = dict(classification_to_json(cls))
    results["mutual"] = {"nats": mutual}
    results["conditional"] = {"nats": cond}
    results["degree"] = {"nats": degree}
    converged = True
    if cfg.get("sup_output_entropy"):
        rep = q_entropy_sup(compound.output_marginal, budget)
        results["sup_output_entropy"] = {"nats": rep.value, "evals": rep.evals}
        converged = rep.converged
    return results, converged


def _cmd_qdc(cfg, ctx, budget):
    from .entanglement import qdc_hierarchy

    ch = parse_channel(cfg["channel"], ctx)
    state = parse_state(cfg["state"], ctx) if "state" in cfg else None
    reports = qdc_hierarchy(state, ch, budget)
    results = {
        tag: {
            "nats": rep.value,
            "feasible": rep.notes.get("feasible", True),
            "evals": rep.evals,
        }
        for tag, rep in reports.items()
    }
    return results, all(rep.converged for rep in reports.values())


def _cmd_verify(cfg, ctx, budget):
    from .verify import verify_report

    return verify_report(budget.seed), True


_COMMANDS = {
    "entropy": _cmd_entropy,
    "relent": _cmd_relent,
    "mutual": _cmd_mutual,
    "pseudo-mutual": _cmd_pseudo_mutual,
    "holevo": _cmd_holevo,
    "capacity": _cmd_capacity,
    "cqc": _cmd_cqc,
    "entangle": _cmd_entangle,
    "qdc": _cmd_qdc,
    "verify": _cmd_verify,
}

# Config keys a command once read, each with what replaced it; a config that
# sets one is rejected rather than silently run without it.
_REMOVED_KEYS = {
    "cqc": {
        "pure_coding": "mode coding moves the codes to pure states, as mixed ones reach no higher value",
        "n_decoding": "mode full frees the given decoding's outcomes; pass a decoding with as many as wanted",
    },
    "qdc": {
        "fix_output_blocks": "q keeps the output blocks of d's compound; the relaxation that released them is removed",
    },
}


def _build_parser() -> _Parser:
    parser = _Parser(prog="qmi", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=(name != "verify"), help="JSON problem config")
        p.add_argument("--seed", type=int, default=None, help="override the budget seed")
        p.add_argument("--bits", action="store_true", help="report entropies in bits")
        p.add_argument("--csv", action="store_true", help="flatten the report to CSV")
        p.add_argument("--out", default=None, help="write the report here instead of stdout")
    return parser


def _load_config(path: str | None):
    if path is None:
        return {}, b"", ConfigContext(".")
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise ValueError(f"cannot read config {path}: {exc}") from exc
    try:
        cfg = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    if not isinstance(cfg, dict):
        raise ValueError(f"{path}: top-level config must be an object")
    return cfg, raw, ConfigContext(Path(path).parent)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    name = args.command
    try:
        cfg, raw, ctx = _load_config(args.config)
        for key, reason in _REMOVED_KEYS.get(name, {}).items():
            if key in cfg:
                raise ValueError(f"config key {key!r} is no longer read: {reason}")
        budget = parse_budget(cfg.get("budget"), seed_override=args.seed)
        results, converged = _COMMANDS[name](cfg, ctx, budget)
    except (KeyError, IndexError) as exc:
        sys.stderr.write(f"qmi {name}: missing or malformed config field: {exc}\n")
        return 1
    except np.linalg.LinAlgError as exc:  # a ValueError subclass, so caught before ValueError
        sys.stderr.write(f"qmi {name}: linear algebra failure: {exc}\n")
        return 2
    except (ValueError, TypeError) as exc:
        sys.stderr.write(f"qmi {name}: {exc}\n")
        return 1
    except ConsistencyError as exc:
        sys.stderr.write(f"qmi {name}: consistency check failed: {exc}\n")
        return 2

    report = {
        "command": name,
        "input_sha256": hashlib.sha256(raw).hexdigest(),
        "seed": budget.seed,
        "budget": budget_to_json(budget),
        "units": "bits" if args.bits else "nats",
        "converged": converged,
        "results": results,
    }
    tree = to_jsonable(report)
    if args.bits:
        tree = convert_nats_to_bits(tree)
    text = report_to_csv(tree) if args.csv else render_report(tree)
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    if name == "verify" and not results.get("ok", True):
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
