"""Benchmark for qmi: four seeded workloads, checked against independent oracles.

Run from the repository root:

    python3 bench/run.py --workload ohya_sweep --seed 1 --seconds 20 --trace 0

Workloads: ohya_sweep, capacity_chain, qdc_levels, cli_cold (see
bench/README.md). The run imports `qmi` from `src/` (as the tests do),
builds the workload's inputs from the seed, warms up on the first operation
of each kind, then runs whole rounds until `--seconds` have passed, and
checks every output.

With `--trace 0` the last line of standard output is one JSON object with
the end-to-end metrics. The reference kernel of `speed.py` runs next to
every timed solve, and each solve's wall time is rescaled to the speed at
which that kernel takes `speed.REFERENCE_S`, so that the machine's own
slow stretches cancel. Each operation of the round is then timed by its
median over the timed rounds; solves_per_s, solve_p50_ms and solve_p90_ms
are taken over those medians. setup_s is the median wall time over five
processes; peak_rss_mb is the peak resident memory, read before the
set-up probes start. The `run` line also gives the figures as plain wall
time.

With `--trace 1` the run spends half of `--seconds` on an untraced pass,
repeats the same number of rounds with every layer wrapped, and reports
the per-layer metrics per round together with the tracing overhead
(traced over untraced wall time). The lines before the result give the
provenance, the attempted and failed counts per operation kind, and which
operations the latency percentiles fall on.

Single process, one caller, closed loop: BLAS threads are pinned to 1 and
QMI_THREADS is left unset. `cli_cold` starts one child process per solve.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("QMI_THREADS", None)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_PROBES = 4  # fresh processes that repeat the set-up, besides the run's own


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("ohya_sweep", "capacity_chain", "qdc_levels", "cli_cold"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only import qmi and build the inputs; print the seconds taken")
    return parser.parse_args(argv)


def setup(workload: str, seed: int):
    """Import qmi from src/ and build the workload; returns (workload, seconds)."""
    work = OUT / f"{workload}-seed{seed}"
    work.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import qmi  # noqa: F401
    import workloads

    built = workloads.build(workload, seed, ROOT, work)
    return built, time.perf_counter() - start


def setup_probes(workload: str, seed: int) -> list:
    """Wall seconds of the set-up in fresh processes."""
    samples = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


def run_round(ops, tracer=None, calibrate=None) -> list:
    """One pass over the operations: [(op, output, error, seconds, kernel_s)].

    With `calibrate` (speed.kernel), the reference kernel runs before the
    first operation and after each one; kernel_s is the mean of the two
    runs around the operation, else None.
    """
    records = []
    before = calibrate() if calibrate else None
    for op in ops:
        if tracer is not None:
            tracer.solve += 1
        start = time.perf_counter()
        try:
            out, error = op.run(), None
        except Exception as exc:  # a failed solve is counted, and the run goes on
            out, error = None, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        after = calibrate() if calibrate else None
        records.append((op, out, error, seconds, (before + after) / 2 if calibrate else None))
        before = after
    return records


def timed_pass(workload, seconds=None, rounds=None, tracer=None, calibrate=None):
    """Whole rounds until `seconds` have passed, or exactly `rounds` rounds."""
    done = []
    start = time.perf_counter()
    while True:
        done.append(run_round(workload.ops, tracer, calibrate))
        elapsed = time.perf_counter() - start
        if (rounds is not None and len(done) >= rounds) or (rounds is None and elapsed >= seconds):
            return done, elapsed


def check_rounds(rounds, counts, problems, count=True) -> None:
    """Check every output; tally attempts and failures per operation kind."""
    for records in rounds:
        peers = {op.label: out for op, out, error, *_ in records if error is None}
        for op, out, error, *_ in records:
            if error is None:
                try:
                    issues = op.check(out, peers)
                except Exception:
                    issues = ["check raised " + traceback.format_exc(limit=2).strip()]
            else:
                issues = [error]
            if count:
                entry = counts.setdefault(op.kind, {"attempted": 0, "failed": 0})
                entry["attempted"] += 1
                entry["failed"] += bool(issues)
            # A known fault is expected to raise; a wrong answer is never expected.
            if issues and not (op.known_fault and error is not None):
                problems.append(f"{op.label}: {'; '.join(issues)}")
            elif issues and count:
                entry.setdefault("error", error)


def quantile(sorted_values, q: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    pos = q * (len(sorted_values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def op_medians(rounds, rescale=None) -> list:
    """Seconds per operation of the round: its median over the rounds, of the
    wall time or, with `rescale` (speed.rescale), of the wall time at the
    reference speed."""
    def seconds(record):
        return rescale(record[3], record[4]) if rescale else record[3]

    return [statistics.median(seconds(records[i]) for records in rounds) for i in range(len(rounds[0]))]


def peak_rss_mb(include_children: bool) -> float:
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024.0


def provenance() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def percentile_sources(op_times, labels) -> dict:
    """Which operations the median and the 90th percentile fall between."""
    timed = sorted(zip(op_times, labels))
    out = {}
    for name, q in (("p50", 0.5), ("p90", 0.9)):
        pos = q * (len(timed) - 1)
        out[name] = sorted({timed[int(pos)][1], timed[min(int(pos) + 1, len(timed) - 1)][1]})
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "qmi" / "__init__.py").is_file():
        sys.stderr.write(f"bench: no qmi package under {ROOT / 'src'}; run from a qmi checkout\n")
        return 2
    if args.seconds <= 0:
        sys.stderr.write("bench: --seconds must be positive\n")
        return 2
    # One CPU for the run and the processes it starts, so that the reference
    # kernel measures the speed of the CPU the solves run on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    workload, own_setup = setup(args.workload, args.seed)
    if args.setup_probe:
        print(repr(own_setup))
        return 0
    import speed
    import tracing

    # Warm-up: the first operation of each kind, so that lazy imports and first
    # calls are out of the timed pass.
    first_of_kind = {}
    for op in workload.ops:
        first_of_kind.setdefault(op.kind, op)
    warmup = [run_round(list(first_of_kind.values()))]
    counts, problems = {}, []
    if not args.trace:
        rounds, wall = timed_pass(workload, seconds=args.seconds, calibrate=speed.kernel)
        # Read before the set-up probes, which are children of this process too.
        rss = peak_rss_mb(args.workload == "cli_cold")
        setup_samples = [own_setup, *setup_probes(args.workload, args.seed)]
        check_rounds(warmup, counts, problems, count=False)
        check_rounds(rounds, counts, problems)
        failed_per_round = sum(c["failed"] for c in counts.values()) / len(rounds)

        def latency(times):
            times = sorted(times)
            return {"solves_per_s": (len(times) - failed_per_round) / sum(times),
                    "solve_p50_ms": 1e3 * quantile(times, 0.5),
                    "solve_p90_ms": 1e3 * quantile(times, 0.9)}

        op_times = op_medians(rounds, speed.rescale)
        at_reference = latency(op_times)
        result_metrics = {
            "solves_per_s": (at_reference["solves_per_s"], "solves/s"),
            "solve_p50_ms": (at_reference["solve_p50_ms"], "ms"),
            "solve_p90_ms": (at_reference["solve_p90_ms"], "ms"),
            "setup_s": (statistics.median(setup_samples), "s"),
            "peak_rss_mb": (rss, "MB"),
        }
        kernels = [record[4] for records in rounds for record in records]
        extra = {"solves": len(rounds) * len(workload.ops), "rounds": len(rounds), "round_size": len(workload.ops),
                 "timed_wall_s": wall, "setup_samples_s": setup_samples,
                 "kernel_median_s": statistics.median(kernels), "kernel_reference_s": speed.REFERENCE_S,
                 "wall_latency": latency(op_medians(rounds)),
                 "percentile_ops": percentile_sources(op_times, [op.label for op in workload.ops])}
    else:
        plain, plain_wall = timed_pass(workload, seconds=args.seconds / 2)
        tracer = tracing.Tracer()
        tracer.install()
        if workload.cli is not None:
            workload.cli.tracer = tracer
        try:
            rounds, traced_wall = timed_pass(workload, rounds=len(plain), tracer=tracer)
        finally:
            tracer.uninstall()
            if workload.cli is not None:
                workload.cli.tracer = None
        check_rounds(warmup, counts, problems, count=False)
        check_rounds(plain, counts, problems)
        check_rounds(rounds, counts, problems)
        reported = sum(op.evals(out) for records in rounds for op, out, error, *_ in records if error is None)
        result_metrics = tracing.layer_metrics(tracer, len(rounds), reported, traced_wall / plain_wall)
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        child_spans = workload.cli.child_spans if workload.cli else []
        tracing.write_spans(spans_path, tracer.spans, child_spans)
        extra = {"rounds": len(rounds), "round_size": len(workload.ops),
                 "untraced_wall_s": plain_wall, "traced_wall_s": traced_wall,
                 "spans_file": str(spans_path.relative_to(ROOT)),
                 "spans_kept": len(tracer.spans) + sum(len(spans) for _, spans in child_spans)}

    print("provenance " + json.dumps(provenance(), sort_keys=True))
    print("operations " + json.dumps(counts, sort_keys=True))
    print("run " + json.dumps(extra, sort_keys=True))
    for line in problems[:20]:
        print("problem " + line)
    attempted = sum(c["attempted"] for c in counts.values())
    failed = sum(c["failed"] for c in counts.values())
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in result_metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
