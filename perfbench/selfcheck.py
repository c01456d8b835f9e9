"""Self-check of the benchmark itself, run from the repository root:

    python3 perfbench/selfcheck.py [--seed N]

For each workload it runs one round as measured and asserts that:
  1. the unmodified program passes every check;
  2. a deliberately wrong solver result, injected here, raises the error
     rate, so the checks can fail;
  3. under the tracer, the layers a workload does not use read zero calls
     and the layers it does use read some.
Exits 1 if any assertion fails.
"""

import argparse
import dataclasses
import shutil
import sys
import time
from pathlib import Path

import child  # imports wirecut from this checkout's src/

import wirecut  # noqa: E402
import wirecut.cli  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402
from run import WORKLOADS  # noqa: E402

# Layers each workload must leave idle; every other layer must be used.
IDLE = {
    "closed_form": {"allocation", "oracle", "cli"},
    "allocation": {"extrema", "bounds", "oracle", "cli"},
    "cli": set(),
}


def wrong_minimum(solve):
    """A minimum whose total is off by one part in a million."""

    def solve_wrongly(problem):
        result = solve(problem)
        return dataclasses.replace(result, total_area=result.total_area * (1.0 + 1e-6))

    return solve_wrongly


def wrong_allocation(solve):
    """A consistent but suboptimal allocation: one side moved from the wire
    with the most sides to the one with the fewest."""

    def solve_wrongly(problem):
        result = solve(problem)
        sides = list(result.sides)
        donor = max(range(len(sides)), key=sides.__getitem__)
        taker = min((i for i in range(len(sides)) if i != donor), key=sides.__getitem__)
        if sides[donor] == 3:
            return result
        sides[donor] -= 1
        sides[taker] += 1
        areas = tuple(
            wirecut.area(wirecut.regular(n), x) for n, x in zip(sides, problem.wire_lengths)
        )
        return dataclasses.replace(result, sides=tuple(sides), per_wire_areas=areas, total_area=sum(areas))

    return solve_wrongly


# workload -> (module whose binding is replaced, name, fault)
FAULTS = {
    "closed_form": (wirecut, "minimize_partition", wrong_minimum),
    "allocation": (wirecut, "optimize_allocation", wrong_allocation),
    "cli": (wirecut.cli, "minimize_partition", wrong_minimum),
}


def one_round(workload, tracer=None):
    tally = child.Tally()
    child.run_rounds(workload, 0, tally, child.Timings(len(workload.ops)), tracer)
    return tally


def check_workload(name, seed, workdir):
    workload = workloads.build(name, seed, workdir)
    problems = []
    clean = one_round(workload)
    if clean.failed:
        problems.append(f"{clean.failed} of {clean.attempted} checks fail on the unmodified program")

    module, attribute, fault = FAULTS[name]
    original = getattr(module, attribute)
    setattr(module, attribute, fault(original))
    try:
        faulty = one_round(workload)
    finally:
        setattr(module, attribute, original)
    if not faulty.failed:
        problems.append(f"an injected wrong {attribute} left the error rate at zero")

    tracer = tracing.Tracer()
    tracer.install()
    try:
        one_round(workload, tracer)
    finally:
        tracer.uninstall()
    for index, layer in enumerate(tracing.LAYERS):
        calls = tracer.calls[index]
        if layer in IDLE[name] and calls:
            problems.append(f"idle layer {layer} read {calls} calls")
        if layer not in IDLE[name] and not calls:
            problems.append(f"layer {layer} read no calls")
    summary = (f"{name}: clean {clean.failed}/{clean.attempted} failed, "
               f"injected fault {faulty.failed}/{faulty.attempted} failed, "
               f"traced calls " + " ".join(f"{l}={c}" for l, c in zip(tracing.LAYERS, tracer.calls)))
    return summary, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="self-check of the wirecut benchmark")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    workdir = Path(child.SOURCE).parent / ".perfbench_work" / f"selfcheck-{time.monotonic_ns()}"
    workdir.mkdir(parents=True)
    failures = 0
    try:
        for name in WORKLOADS:
            summary, problems = check_workload(name, args.seed, workdir)
            print(summary)
            for problem in problems:
                print(f"FAIL {name}: {problem}")
            failures += len(problems)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # still in use by a concurrent run
            pass
    print("self-check " + ("passed" if not failures else f"FAILED ({failures})"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
