"""Layer tracing for the benchmark, installed from outside the package.

`Tracer.install` replaces each public `qmi` function named in
`FUNCTION_GROUPS` at every module attribute that binds it, so a call is
caught at the name its caller looks up (`maximize` as bound in
`qmi.mutual`, `qmi.capacity` and `qmi.entanglement`, for instance). The
validating `__post_init__` of `DensityOperator` and `CqcInstance` is
wrapped on the class. Each `qmi` module's `np` is replaced by a proxy
whose `linalg` times the eigen routines, `json` in `qmi.cli` and
`qmi.serialize` by a proxy that times parsing and rendering, and `optimize`
in `qmi.search` by a proxy that counts the Nelder-Mead descents. Only
modules already imported are touched.
`uninstall` puts every original back.

Every wrapped call is a span. The tracer keeps per-group totals (calls,
wall time, self time: the span minus the time its child spans cover) for
the whole traced pass, and the first `span_limit` spans themselves, which
are written out when the benchmark ends. This module imports only the
standard library at load time, so the CLI shim can create a tracer before
`qmi` and numpy are imported.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time

# Groups ending in ".other" or ".classical" are not reported; their spans keep
# that time out of the self time of the callers that are.
FUNCTION_GROUPS = {
    "qmi.search": {"maximize": "search.maximize"},
    "qmi.mutual": {
        "ohya_mutual_entropy": "mutual.ohya",
        "mutual_entropy_fixed": "mutual.fixed",
        "pseudo_mutual_entropy": "mutual.pseudo",
        "classical_mutual_entropy": "mutual.other",
        "holevo_bound": "mutual.other",
        "compound_state": "mutual.other",
    },
    "qmi.entropy": {
        "von_neumann_entropy": "entropy.vn",
        "umegaki_relative_entropy": "entropy.relent",
        "product_relative_entropy": "entropy.product_relent",
        "shannon_entropy": "entropy.classical",
        "kl_divergence": "entropy.classical",
    },
    "qmi.operators": {
        "as_probability": "operators.probability_check",
        "schatten_family": "operators.schatten",
        "canonical_schatten": "operators.schatten",
        "schatten_param_count": "operators.schatten",
        "eigenbasis": "operators.other",
        "spectral": "operators.other",
        "partial_trace": "operators.other",
        "purify": "operators.other",
    },
    "qmi.channels": {
        "apply_matrix": "channels.apply",
        "apply": "channels.apply",
        "born_probabilities": "channels.born",
    },
    "qmi.capacity": {
        "quantum_capacity": "capacity.quantum",
        "pseudo_capacity": "capacity.pseudo",
        "cqc_capacity": "capacity.cqc",
        "cqc_mutual_entropy": "capacity.cqc",
    },
    "qmi.entanglement": {
        "qdc_hierarchy": "entanglement.qdc",
        "class_mutual_and_capacity": "entanglement.qdc",
        "q_entropy_sup": "entanglement.q_sup",
        "classify_compound": "entanglement.classify",
        "standard_entanglement": "entanglement.other",
        "d_compound": "entanglement.other",
        "entangled_mutual_entropy": "entanglement.other",
        "conditional_and_degree": "entanglement.other",
        "entangling_from_state": "entanglement.other",
        "q_entropy_closed_form": "entanglement.other",
    },
    "qmi.serialize": {
        "parse_matrix": "serialize.parse",
        "parse_state": "serialize.parse",
        "parse_probability": "serialize.parse",
        "parse_channel": "serialize.parse",
        "parse_povm": "serialize.parse",
        "parse_budget": "serialize.parse",
        "parse_compound": "serialize.parse",
        "to_jsonable": "serialize.render",
        "convert_nats_to_bits": "serialize.render",
        "render_report": "serialize.render",
        "report_to_csv": "serialize.render",
    },
}

METHOD_GROUPS = {
    ("qmi.operators", "DensityOperator"): "operators.density_check",
    ("qmi.capacity", "CqcInstance"): "capacity.cqc_instance_check",
}

EIGEN_ROUTINES = ("eig", "eigh", "eigvals", "eigvalsh")


class Tracer:
    """In-memory spans with per-group call counts, wall and self time."""

    def __init__(self, span_limit: int = 50_000):
        self.span_limit = span_limit
        self.stats: dict[str, list] = {}  # group -> [calls, wall_s, self_s]
        self.counters: dict[str, float] = {}
        self.spans: list[tuple] = []  # (id, parent id, group, start_s, end_s, solve)
        self.solve = 0
        self._stack: list[list] = []  # [group, start, child_s, id]
        self._next_id = 0
        self._search_depth = 0
        self._restore: list[tuple] = []

    # -- spans -------------------------------------------------------------

    def enter(self, group: str) -> list:
        self._next_id += 1
        frame = [group, time.perf_counter(), 0.0, self._next_id]
        self._stack.append(frame)
        return frame

    def exit(self, frame: list) -> None:
        end = time.perf_counter()
        popped = self._stack.pop()
        if popped is not frame:
            raise RuntimeError(f"span {frame[0]} closed out of order")
        group, start, child, span_id = frame
        wall = end - start
        entry = self.stats.setdefault(group, [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += wall
        entry[2] += wall - child
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += wall
        if len(self.spans) < self.span_limit:
            self.spans.append(
                (span_id, parent[3] if parent else 0, group, start, end, self.solve)
            )

    def add_span(self, group: str, seconds: float) -> None:
        """Record a span measured elsewhere (a child process, an import)."""
        entry = self.stats.setdefault(group, [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += seconds
        entry[2] += seconds

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, group: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = self.enter(group)
            try:
                return fn(*args, **kwargs)
            finally:
                self.exit(frame)

        return traced

    def merge(self, other: dict) -> None:
        """Add the totals that `snapshot` produced in another process."""
        for group, (calls, wall, self_s) in other["stats"].items():
            entry = self.stats.setdefault(group, [0, 0.0, 0.0])
            entry[0] += calls
            entry[1] += wall
            entry[2] += self_s
        for name, amount in other["counters"].items():
            self.count(name, amount)

    def snapshot(self) -> dict:
        return {"stats": self.stats, "counters": self.counters, "spans": self.spans}

    # -- installation ------------------------------------------------------

    def _wrap_maximize(self, fn):
        @functools.wraps(fn)
        def traced(objective, *args, **kwargs):
            nested = self._search_depth > 0

            def counted(x):
                self.count("search.evals")
                if nested:
                    self.count("search.evals_inner")
                frame = self.enter("search.objective")
                try:
                    value = objective(x)
                finally:
                    self.exit(frame)
                if not math.isfinite(float(value)):
                    self.count("search.rejected_evals")
                return value

            self.count("search.maximize_calls")
            self._search_depth += 1
            frame = self.enter("search.maximize")
            start = frame[1]
            try:
                return fn(counted, *args, **kwargs)
            finally:
                self.exit(frame)
                self._search_depth -= 1
                if not nested:
                    self.count("search.outer_wall_s", time.perf_counter() - start)

        return traced

    def _wrap_minimize(self, fn):
        """Counts the Nelder-Mead descents that `maximize` starts, and those the
        evaluation cap stopped, or that got fewer evaluations than the
        n_params + 1 their first simplex needs."""

        @functools.wraps(fn)
        def traced(fun, x0, *args, **kwargs):
            result = fn(fun, x0, *args, **kwargs)
            cap = (kwargs.get("options") or {}).get("maxfev")
            self.count("search.descents")
            if cap is not None and result.nfev >= cap:
                self.count("search.capped_descents")
            if cap is not None and cap < len(x0) + 1:
                self.count("search.descents_below_simplex")
            return result

        return traced

    def _wrap_eigen(self, fn):
        @functools.wraps(fn)
        def traced(a, *args, **kwargs):
            shape = getattr(a, "shape", None) or (len(a), len(a))
            batch = 1
            for extent in shape[:-2]:
                batch *= extent
            self.count("linalg.eig_n3", batch * shape[-1] ** 3)
            frame = self.enter("linalg.eig")
            try:
                return fn(a, *args, **kwargs)
            finally:
                self.exit(frame)

        return traced

    def install(self) -> None:
        """Wrap every traced name in the already imported `qmi` modules."""
        import numpy

        if self._restore:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for module_name, functions in FUNCTION_GROUPS.items():
            # A module that is not imported yet stays so: the CLI shim must not
            # import what `qmi` itself would import only later, or not at all.
            module = sys.modules.get(module_name)
            if module is None:
                continue
            for name, group in functions.items():
                original = getattr(module, name)
                if name == "maximize":
                    wrappers[id(original)] = self._wrap_maximize(original)
                else:
                    wrappers[id(original)] = self.wrap(group, original)
        linalg = _Proxy(numpy.linalg)
        for name in EIGEN_ROUTINES:
            setattr(linalg, name, self._wrap_eigen(getattr(numpy.linalg, name)))
        np_proxy = _Proxy(numpy)
        np_proxy.linalg = linalg
        json_proxy = _Proxy(json)
        for name in ("load", "loads"):
            setattr(json_proxy, name, self.wrap("serialize.parse", getattr(json, name)))
        json_proxy.dumps = self.wrap("serialize.render", json.dumps)

        optimize = sys.modules.get("scipy.optimize")
        if optimize is not None:
            optimize_proxy = _Proxy(optimize)
            optimize_proxy.minimize = self._wrap_minimize(optimize.minimize)

        modules = [m for n, m in list(sys.modules.items()) if n == "qmi" or n.startswith("qmi.")]
        for module in modules:
            for name, value in list(vars(module).items()):
                replacement = wrappers.get(id(value))
                if replacement is None and value is numpy:
                    replacement = np_proxy
                if replacement is None and value is json:
                    replacement = json_proxy
                if replacement is None and optimize is not None and value is optimize:
                    replacement = optimize_proxy
                if replacement is not None:
                    self._restore.append((module, name, value))
                    setattr(module, name, replacement)
        for (module_name, cls_name), group in METHOD_GROUPS.items():
            if module_name not in sys.modules:
                continue
            cls = getattr(sys.modules[module_name], cls_name)
            original = cls.__dict__["__post_init__"]
            self._restore.append((cls, "__post_init__", original))
            cls.__post_init__ = self.wrap(group, original)

    def uninstall(self) -> None:
        for owner, name, value in reversed(self._restore):
            setattr(owner, name, value)
        self._restore.clear()


class _Proxy:
    """Stands in for a module: chosen attributes replaced, the rest passed through."""

    def __init__(self, target):
        self._target = target

    def __getattr__(self, name):
        value = getattr(self._target, name)
        setattr(self, name, value)
        return value


def _calls(stats, group):
    return stats.get(group, [0, 0.0, 0.0])[0]


def _self_s(stats, *groups):
    return sum(stats.get(g, [0, 0.0, 0.0])[2] for g in groups)


def layer_metrics(tracer: Tracer, rounds: int, evals_reported: float, overhead: float) -> dict:
    """Per-layer metrics per round of the workload (ratios excepted): name -> (value, unit).

    `evals_reported` is the total over the traced rounds, like the tracer's counts.
    """
    s, c = tracer.stats, tracer.counters
    evals = c.get("search.evals", 0)
    descents = c.get("search.descents", 0)
    per_round = {
        "search.maximize_calls": c.get("search.maximize_calls", 0),
        "search.evals": evals,
        "search.evals_inner": c.get("search.evals_inner", 0),
        "search.evals_reported": evals_reported,
        "search.rejected_evals": c.get("search.rejected_evals", 0),
        "search.self_s": _self_s(s, "search.maximize"),
        "search.descents": descents,
        "search.descents_below_simplex": c.get("search.descents_below_simplex", 0),
        "mutual.ohya_calls": _calls(s, "mutual.ohya"),
        "mutual.ohya_self_s": _self_s(s, "mutual.ohya"),
        "mutual.fixed_calls": _calls(s, "mutual.fixed"),
        "mutual.fixed_s": _self_s(s, "mutual.fixed"),
        "mutual.pseudo_self_s": _self_s(s, "mutual.pseudo"),
        "entropy.vn_calls": _calls(s, "entropy.vn"),
        "entropy.vn_s": _self_s(s, "entropy.vn"),
        "entropy.relent_calls": _calls(s, "entropy.relent"),
        "entropy.relent_s": _self_s(s, "entropy.relent"),
        "entropy.product_relent_calls": _calls(s, "entropy.product_relent"),
        "entropy.product_relent_s": _self_s(s, "entropy.product_relent"),
        "operators.density_checks": _calls(s, "operators.density_check"),
        "operators.density_check_s": _self_s(s, "operators.density_check"),
        "operators.probability_checks": _calls(s, "operators.probability_check"),
        "operators.schatten_calls": _calls(s, "operators.schatten"),
        "operators.schatten_s": _self_s(s, "operators.schatten"),
        "channels.apply_calls": _calls(s, "channels.apply"),
        "channels.apply_s": _self_s(s, "channels.apply"),
        "channels.born_calls": _calls(s, "channels.born"),
        "channels.born_s": _self_s(s, "channels.born"),
        "capacity.quantum_self_s": _self_s(s, "capacity.quantum"),
        "capacity.pseudo_self_s": _self_s(s, "capacity.pseudo"),
        "capacity.cqc_self_s": _self_s(s, "capacity.cqc"),
        "capacity.cqc_instance_checks": _calls(s, "capacity.cqc_instance_check"),
        "entanglement.qdc_calls": _calls(s, "entanglement.qdc"),
        "entanglement.qdc_self_s": _self_s(s, "entanglement.qdc"),
        "entanglement.q_sup_s": _self_s(s, "entanglement.q_sup"),
        "entanglement.classify_calls": _calls(s, "entanglement.classify"),
        "linalg.eig_calls": _calls(s, "linalg.eig"),
        "linalg.eig_n3": c.get("linalg.eig_n3", 0),
        "linalg.eig_s": _self_s(s, "linalg.eig"),
        "cli.interpreter_s": _self_s(s, "cli.interpreter"),
        "cli.import_qmi_s": _self_s(s, "cli.import_qmi"),
        "cli.import_scipy_optimize_s": _self_s(s, "cli.import_scipy_optimize"),
        "cli.main_warm_s": _self_s(s, "cli.main"),
        "serialize.parse_s": _self_s(s, "serialize.parse"),
        "serialize.render_s": _self_s(s, "serialize.render"),
    }
    out = {name: value / rounds for name, value in per_round.items()}
    out["search.capped_share"] = c.get("search.capped_descents", 0) / descents if descents else 0.0
    out["search.us_per_eval"] = (
        1e6 * c.get("search.outer_wall_s", 0.0) / evals if evals else 0.0
    )
    out["trace.overhead_ratio"] = overhead
    return {name: (value, _unit(name)) for name, value in out.items()}


def _unit(name: str) -> str:
    if name == "search.us_per_eval":
        return "us"
    if name in ("trace.overhead_ratio", "search.capped_share"):
        return "ratio"
    return "s" if name.endswith("_s") else "count"


def write_spans(path, spans, pid_spans=()) -> None:
    """One JSON object per span; `pid_spans` adds (pid, spans) from child processes."""
    with open(path, "w") as fh:
        for pid, group in [(None, spans), *pid_spans]:
            for span_id, parent, name, start, end, solve in group:
                record = {"id": span_id, "parent": parent, "name": name,
                          "start_s": start, "end_s": end, "solve": solve}
                if pid is not None:
                    record["pid"] = pid
                fh.write(json.dumps(record) + "\n")
