"""One benchmark process; run.py starts several, one after another.

Set-up is timed from this file's first line to the first operation: the
imports of ``wirecut`` and ``wirecut.cli`` (bytecode already cached by
run.py) plus building the seeded inputs. Problem files are written by the
first child of a run and reused by the others, so set-up does not time the
file system. With --setup-only the process stops there. Otherwise it runs
rounds of the workload until the time budget is spent, at least one whole
round, and checks each round's results after the round, outside the timed
region.

On a shared machine the speed of one process can halve for seconds at a
time. The program is deterministic and every round repeats the same
inputs, so an operation's time varies between rounds only with the
machine. Each operation's latency is therefore its best time over the
rounds ("best of N", as timeit reports), which a slow phase does not reach
unless it covers every repetition of that operation.

Prints one JSON object; run.py merges the processes.
"""

import time

START = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

SOURCE = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _import_program():
    """Import wirecut from this checkout's src/, before anything else the
    benchmark needs, timing both imports."""
    sys.path.insert(0, SOURCE)
    before = time.perf_counter()
    import wirecut

    middle = time.perf_counter()
    import wirecut.cli  # noqa: F401

    after = time.perf_counter()
    if os.path.dirname(os.path.dirname(os.path.abspath(wirecut.__file__))) != SOURCE:
        raise ImportError(f"wirecut imported from {wirecut.__file__}, not from {SOURCE}")
    return middle - before, after - middle


IMPORT_TIMES = _import_program()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
from pathlib import Path  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402


class Tally:
    """Checked operations: the workload's own and, apart from them, the
    extreme-magnitude probes that exercise the known overflow defect."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.extreme_attempted = self.extreme_failed = 0

    def add(self, op, out):
        try:
            ok = bool(op.check(out))
        except Exception:  # a malformed output is a failed check
            ok = False
        if op.extreme:
            self.extreme_attempted += 1
            self.extreme_failed += not ok
        else:
            self.attempted += 1
            self.failed += not ok


class Timings:
    """Best time of each operation over the rounds of one phase."""

    def __init__(self, size):
        self.best = [math.inf] * size  # ns
        self.executed = 0


def run_rounds(workload, seconds, tally, timings, tracer=None):
    """Closed loop, one client: rounds until `seconds` have passed, at
    least one whole round."""
    ops = workload.ops
    clock = time.perf_counter_ns
    best = timings.best
    deadline = clock() + int(seconds * 1e9)
    whole = False
    while True:
        results = []
        record = results.append
        end = 0
        for i, op in enumerate(ops):
            if whole and end >= deadline:
                break
            if tracer is not None:
                tracer.op += 1
            run, args = op.run, op.args
            start = clock()
            try:
                out = run(*args)
            except Exception as exc:
                out = exc
            end = clock()
            if end - start < best[i]:
                best[i] = end - start
            record(out)
        timings.executed += len(results)
        for op, out in zip(ops, results):
            tally.add(op, out)
        whole = True
        if end >= deadline:
            return


def summarise(timings):
    """Throughput and latency percentiles from each operation's best time."""
    latencies = sorted(timings.best)
    return {
        "throughput": len(latencies) * 1e9 / sum(latencies),
        "p50_us": percentile(latencies, 0.50) / 1000.0,
        "p99_us": percentile(latencies, 0.99) / 1000.0,
        "samples": len(latencies),
        "executed": timings.executed,
    }


def percentile(ordered, q) -> float:
    """Percentile q of sorted values, interpolated between neighbours."""
    rank = q * (len(ordered) - 1)
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def trace_report(tracer):
    solves, solve_areas = tracer.span_totals("allocation.optimize_allocation")
    checks, check_areas = tracer.span_totals("oracle.")
    parser_calls, parser_ns = tracer.function_totals("cli.build_parser")
    return {
        "ops": tracer.op,
        "layers": {
            layer: {"calls": tracer.calls[i], "self_ns": tracer.self_ns[i], "raised": tracer.raised[i]}
            for i, layer in enumerate(tracing.LAYERS)
        },
        "solves": solves,
        "solve_areas": solve_areas,
        "checks": checks,
        "check_areas": check_areas,
        "parser_calls": parser_calls,
        "parser_ns": parser_ns,
    }


def measure(workload, seconds, trace):
    tally = Tally()
    size = len(workload.ops)
    report = {}
    timings = Timings(size)
    if trace:
        run_rounds(workload, seconds / 2, tally, timings)
        traced = Timings(size)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            run_rounds(workload, seconds / 2, tally, traced, tracer)
        finally:
            tracer.uninstall()
        report["traced"] = summarise(traced)
        report["trace"] = trace_report(tracer)
    else:
        run_rounds(workload, seconds, tally, timings)
    report["untraced"] = summarise(timings)
    report.update(vars(tally), output_bytes=workload.output_bytes)
    return report


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path, help="directory for problem files, shared by the children")
    parser.add_argument("--setup-only", action="store_true", help="stop after set-up")
    args = parser.parse_args(argv)

    import_wirecut_s, import_cli_s = IMPORT_TIMES
    workload = workloads.build(args.workload, args.seed, args.workdir)
    report = {
        "setup_s": time.perf_counter() - START,
        "import_wirecut_s": import_wirecut_s,
        "import_cli_s": import_cli_s,
    }
    if not args.setup_only:
        report.update(measure(workload, args.seconds, args.trace))
        report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
