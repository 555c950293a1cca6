"""One traced `qmi` CLI process, started by the traced `cli_cold` run.

Usage (as the benchmark starts it, with PYTHONPATH pointing at `src/`):

    BENCH_SPAWN_T=<time.time() at spawn> BENCH_TRACE_OUT=<file> \
        python bench/cli_shim.py <qmi command> --config <path> [--seed N]

It does what `python -m qmi.cli` does, with the same standard output and
exit code, and writes the span totals of the process to BENCH_TRACE_OUT:
the interpreter start (spawn to the first line here), the import of
`qmi.cli` with the import of `scipy.optimize` as a child span wherever it
happens, `main` itself, and every layer the tracer wraps.
"""

import time

_WALL_START = time.time()

import importlib.abc  # noqa: E402
import importlib.machinery  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

import tracing  # noqa: E402

TRACER = tracing.Tracer()
TRACER.add_span("cli.interpreter", max(0.0, _WALL_START - float(os.environ["BENCH_SPAWN_T"])))


class _TimedImport(importlib.abc.MetaPathFinder):
    """Times the execution of the `scipy.optimize` package as a span."""

    def find_spec(self, name, path, target=None):
        if name != "scipy.optimize":
            return None
        spec = importlib.machinery.PathFinder.find_spec(name, path, target)
        if spec is None or spec.loader is None:
            return spec
        exec_module = spec.loader.exec_module

        def timed(module):
            frame = TRACER.enter("cli.import_scipy_optimize")
            try:
                exec_module(module)
            finally:
                TRACER.exit(frame)

        spec.loader.exec_module = timed
        return spec


def main() -> int:
    sys.meta_path.insert(0, _TimedImport())
    frame = TRACER.enter("cli.import_qmi")
    import qmi.cli

    TRACER.exit(frame)
    TRACER.install()
    frame = TRACER.enter("cli.main")
    try:
        code = qmi.cli.main(sys.argv[1:])
    finally:
        TRACER.exit(frame)
        TRACER.uninstall()
        snapshot = TRACER.snapshot()
        snapshot["pid"] = os.getpid()
        with open(os.environ["BENCH_TRACE_OUT"], "w") as fh:
            json.dump(snapshot, fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
