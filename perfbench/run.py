"""wirecut benchmark: one command per workload, run from the repository root.

    python3 perfbench/run.py --workload closed_form --seed 1 --seconds 30 --trace 0

Workloads: closed_form, allocation, cli (see perfbench/METRICS.md). The
program is driven in-process, as one closed-loop client with no threads:
each operation starts when the previous one has returned. Fresh child
processes do the work, one after another: a first one compiles the
bytecode and writes the workload's problem files, ten time set-up
alone, one times set-up and then measures for the whole --seconds, and
ten more time set-up. Every output is checked.

--trace 0 prints the end-to-end metrics. --trace 1 runs the measuring
child half untraced and half with every public function of the package
wrapped, and prints the per-layer metrics. The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics": {name: {"value",
"unit"}}}. Exits non-zero, printing no result, when the program cannot run.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
WORKLOADS = ("closed_form", "allocation", "cli")
# Set-up-only children before and after the measuring one; their timings
# and the measuring child's give the set-up median. Spreading them over
# the run keeps one slow moment of a shared machine from setting it.
SETUP_CHILDREN = 10
DEADLINE_S = 170.0


class BenchmarkError(Exception):
    pass


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    try:
        setups, run = run_children(args)
    except BenchmarkError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    result = merge(setups, run, args.trace)
    for line in summary(args, run, result):
        print(line)
    print(json.dumps(result))
    return 0


def run_children(args):
    """Returns (set-up reports, measuring report)."""
    if not (ROOT / "src" / "wirecut" / "__init__.py").is_file():
        raise BenchmarkError(f"no wirecut package under {ROOT / 'src'}")
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # set-up is measured with bytecode cached
    started = time.monotonic()
    work = ROOT / ".perfbench_work" / str(os.getpid())
    work.mkdir(parents=True)
    common = ["--workload", args.workload, "--seed", str(args.seed), "--workdir", str(work)]
    try:
        child(common + ["--setup-only"], env, started)  # compiles and caches bytecode
        setups = [child(common + ["--setup-only"], env, started) for _ in range(SETUP_CHILDREN)]
        measured = child(common + ["--seconds", repr(args.seconds), "--trace", str(args.trace)], env, started)
        setups += [child(common + ["--setup-only"], env, started) for _ in range(SETUP_CHILDREN)]
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run is using it
            pass
    return setups + [measured], measured


def child(arguments, env, started) -> dict:
    """Run one child to completion and return the report it printed last."""
    remaining = DEADLINE_S - (time.monotonic() - started)
    if remaining <= 0:
        raise BenchmarkError("ran out of time")
    try:
        done = subprocess.run(
            [sys.executable, str(CHILD), *arguments],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=remaining,
        )
    except subprocess.TimeoutExpired:
        raise BenchmarkError("a child process overran the time limit") from None
    if done.returncode != 0:
        raise BenchmarkError(f"child exited with {done.returncode}:\n{done.stderr.strip()}")
    lines = done.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        raise BenchmarkError(f"child printed no report:\n{done.stdout[-500:]}") from None


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def merge(setups, run, trace):
    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    untraced = run["untraced"]
    if not trace:
        put("throughput_ops_s", untraced["throughput"], "1/s")
        put("latency_p50_us", untraced["p50_us"], "us")
        put("latency_p99_us", untraced["p99_us"], "us")
        put("setup_s", statistics.median(p["setup_s"] for p in setups), "s")
        put("peak_rss_mb", run["peak_rss_mb"], "MB")
    else:
        trace_data = run["trace"]
        ops = trace_data["ops"]
        for layer in LAYERS:
            tallies = trace_data["layers"][layer]
            put(f"{layer}.calls", _ratio(tallies["calls"], ops), "1/op")
            put(f"{layer}.self_s", _ratio(tallies["self_ns"], ops) / 1e9, "s/op")
            put(f"{layer}.raised", _ratio(tallies["raised"], ops), "1/op")
        put("allocation.area_evals_per_solve", _ratio(trace_data["solve_areas"], trace_data["solves"]), "count")
        put("oracle.area_evals_per_check", _ratio(trace_data["check_areas"], trace_data["checks"]), "count")
        put("cli.build_parser_s", _ratio(trace_data["parser_ns"], trace_data["parser_calls"]) / 1e9, "s")
        put("cli.output_bytes_per_op",
            _ratio(run["output_bytes"], run["attempted"] + run["extreme_attempted"]), "B/op")
        put("setup.import_wirecut_s", statistics.median(p["import_wirecut_s"] for p in setups), "s")
        put("setup.import_cli_s", statistics.median(p["import_cli_s"] for p in setups), "s")
        put("trace.overhead_ratio", untraced["throughput"] / run["traced"]["throughput"], "ratio")
        put("extreme.error_rate", _ratio(run["extreme_failed"], run["extreme_attempted"]), "ratio")
    return {"correct": run["failed"] == 0, "attempted": run["attempted"], "failed": run["failed"],
            "metrics": metrics}


def summary(args, run, result):
    attempted, failed = result["attempted"], result["failed"]
    untraced = run["untraced"]
    yield (f"workload {args.workload} seed {args.seed} trace {args.trace}: "
           f"{attempted} checked operations, error_rate {_ratio(failed, attempted):.6g} ({failed} failed)")
    if run["extreme_attempted"]:
        yield (f"extreme-magnitude probes, tallied apart: {run['extreme_failed']} "
               f"of {run['extreme_attempted']} failed")
    yield (f"latency samples: {untraced['samples']} operations, each timed at its best "
           f"of {untraced['executed'] / untraced['samples']:.1f} runs on average")
    for name, metric in result["metrics"].items():
        yield f"{name:<34} {metric['value']:.6g} {metric['unit']}"


if __name__ == "__main__":
    sys.exit(main())
