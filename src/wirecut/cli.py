"""Command-line front end for the partition, bounds, and allocation solvers.

Problems come from inline flags or from a JSON problem file with the schema

    {"mode": "partition" | "bounds" | "allocation",
     "length": 12.0, "shapes": [4, 3, "circle"],     partition / bounds
     "threshold": 5.0, "sense": "lower" | "upper",   bounds only
     "lengths": [1.0, 2.0], "side_budget": 9}        allocation only

Exit codes: 0 success, 1 verification mismatch, 2 invalid input,
3 infeasible side budget, 4 resource guard tripped.
"""

import argparse
import json
import sys

from .allocation import AllocationProblem, optimize_allocation
from .bounds import (
    BoundQuery,
    feasibility_range,
    shared_perimeter_total,
    solve_equal_perimeter,
    solve_two_polygon,
    threshold_roots,
)
from .errors import InfeasibleBudgetError, ResourceLimitError
from .extrema import (
    PartitionProblem,
    maximize_partition,
    minimize_partition,
    paper_face_max,
)
from .geometry import parse_shape, sigma
from .oracle import GridSpec, enumerate_allocations, grid_max, grid_min

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_INVALID = 2
EXIT_INFEASIBLE = 3
EXIT_RESOURCE = 4

# Grid resolutions for `verify`, keyed by shape count: chosen so every scan
# stays around ten thousand lattice samples.
_VERIFY_RESOLUTIONS = {2: 2000, 3: 120, 4: 40, 5: 20, 6: 12}


def _fmt(value: float) -> str:
    return f"{value:.3f}"


def _shape_token(shape):
    return "circle" if shape.is_circle else shape.sides


def _load_problem_file(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise ValueError(f"cannot read problem file: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"problem file is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ValueError("problem file must hold a JSON object")
    return data


def _file_data(args, expected_mode: str) -> dict:
    if not getattr(args, "file", None):
        return {}
    data = _load_problem_file(args.file)
    mode = data.get("mode")
    if mode != expected_mode:
        raise ValueError(f"problem file has mode {mode!r}, expected {expected_mode!r}")
    return data


def _require(value, flag: str):
    if value is None:
        raise ValueError(f"missing {flag} (flag or problem-file field)")
    return value


def _parse_shape_list(value) -> tuple:
    if isinstance(value, str):
        value = [token.strip() for token in value.split(",") if token.strip()]
    if not isinstance(value, (list, tuple)) or not value:
        raise ValueError(f"shapes must be a non-empty list, got {value!r}")
    return tuple(parse_shape(token) for token in value)


def _parse_number_list(value) -> tuple:
    """Numbers from a comma-separated flag, or a problem-file list passed on
    as is, so that the problem constructor rejects non-numbers such as JSON
    booleans instead of coercing them."""
    if isinstance(value, str):
        try:
            value = [float(token) for token in value.split(",") if token.strip()]
        except ValueError:
            raise ValueError(f"lengths must be numbers, got {value!r}") from None
    if not isinstance(value, (list, tuple)) or not value:
        raise ValueError(f"lengths must be a non-empty list, got {value!r}")
    return tuple(value)


def _partition_problem(args, expected_mode: str) -> PartitionProblem:
    data = _file_data(args, expected_mode)
    length = args.length if args.length is not None else data.get("length")
    shapes = args.shapes if args.shapes is not None else data.get("shapes")
    return PartitionProblem(
        _require(length, "--length"),
        _parse_shape_list(_require(shapes, "--shapes")),
    )


def _partition_problem_json(problem: PartitionProblem, mode: str = "partition") -> dict:
    return {
        "mode": mode,
        "length": problem.total_length,
        "shapes": [_shape_token(s) for s in problem.shapes],
    }


def _emit(args, payload: dict, table_lines: list):
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    else:
        print("\n".join(table_lines))


def _partition_table(problem, result) -> list:
    lines = [f"{'kind':<10} {result.kind}"]
    if result.excluded_index is not None:
        lines.append(f"{'excluded':<10} index {result.excluded_index}")
    lines.append(f"{'shape':>8} {'length':>10} {'area':>10}")
    for shape, length, shape_area in zip(problem.shapes, result.lengths, result.per_shape_areas):
        lines.append(f"{str(shape):>8} {_fmt(length):>10} {_fmt(shape_area):>10}")
    lines.append(f"{'total':>8} {_fmt(sum(result.lengths)):>10} {_fmt(result.total_area):>10}")
    return lines


def _partition_payload(command, problem, result) -> dict:
    return {
        "command": command,
        "problem": _partition_problem_json(problem),
        "result": {
            "kind": result.kind,
            "excluded_index": result.excluded_index,
            "lengths": list(result.lengths),
            "per_shape_areas": list(result.per_shape_areas),
            "total_area": result.total_area,
        },
    }


def _cmd_min(args) -> int:
    problem = _partition_problem(args, "partition")
    result = minimize_partition(problem)
    _emit(args, _partition_payload("min", problem, result), _partition_table(problem, result))
    return EXIT_OK


def _cmd_max(args) -> int:
    problem = _partition_problem(args, "partition")
    result = paper_face_max(problem) if args.paper_face_max else maximize_partition(problem)
    _emit(args, _partition_payload("max", problem, result), _partition_table(problem, result))
    return EXIT_OK


def _cmd_bounds(args) -> int:
    data = _file_data(args, "bounds")
    length = args.length if args.length is not None else data.get("length")
    shapes = args.shapes if args.shapes is not None else data.get("shapes")
    threshold = args.area if args.area is not None else data.get("threshold")
    sense = args.sense if args.sense is not None else data.get("sense")
    problem = PartitionProblem(
        _require(length, "--length"),
        _parse_shape_list(_require(shapes, "--shapes")),
    )
    query = BoundQuery(problem, _require(threshold, "--area"), _require(sense, "--sense"))
    solver = solve_two_polygon if len(problem.shapes) == 2 else solve_equal_perimeter
    intervals = solver(query)
    roots = threshold_roots(problem, query.threshold)
    band = feasibility_range(problem, query.threshold)
    domain_hi = problem.total_length / (len(problem.shapes) - 1)

    payload = {
        "command": "bounds",
        "problem": {
            **_partition_problem_json(problem, mode="bounds"),
            "threshold": query.threshold,
            "sense": query.sense,
        },
        "result": {
            "domain": [0.0, domain_hi],
            "roots": list(roots) if roots else None,
            "intervals": [list(piece) for piece in intervals.intervals],
            "a_low": band.a_low,
            "a_high": band.a_high,
            "l_low": band.l_low,
            "l_high": band.l_high,
            "x_hat": band.x_hat,
        },
    }
    lines = [
        f"{'sense':<18} {query.sense}",
        f"{'threshold':<18} {_fmt(query.threshold)}",
        f"{'domain':<18} (0.000, {_fmt(domain_hi)})",
        f"{'threshold band':<18} [{_fmt(band.a_low)}, {_fmt(band.a_high)}]",
        f"{'roots':<18} " + (f"{_fmt(roots[0])}, {_fmt(roots[1])}" if roots else "none"),
        f"{'intervals':<18} "
        + (
            " ".join(f"({_fmt(lo)}, {_fmt(hi)})" for lo, hi in intervals.intervals)
            if intervals.intervals
            else "empty"
        ),
    ]
    _emit(args, payload, lines)
    return EXIT_OK


def _allocation_problem(args) -> AllocationProblem:
    data = _file_data(args, "allocation")
    lengths = args.lengths if args.lengths is not None else data.get("lengths")
    budget = args.budget if args.budget is not None else data.get("side_budget")
    budget = _require(budget, "--budget")
    if not isinstance(budget, int):
        raise ValueError(f"side budget must be an integer, got {budget!r}")
    return AllocationProblem(_parse_number_list(_require(lengths, "--lengths")), budget)


def _allocation_payload(problem, result) -> dict:
    return {
        "command": "allocate",
        "problem": {
            "mode": "allocation",
            "lengths": list(problem.wire_lengths),
            "side_budget": problem.side_budget,
        },
        "result": {
            "sides": list(result.sides),
            "per_wire_areas": list(result.per_wire_areas),
            "total_area": result.total_area,
            "residuals": list(result.residuals),
        },
    }


def _cmd_allocate(args) -> int:
    problem = _allocation_problem(args)
    result = optimize_allocation(problem)
    lines = [f"{'wire':>6} {'length':>10} {'sides':>7} {'area':>10}"]
    for i, (length, n, wire_area) in enumerate(
        zip(problem.wire_lengths, result.sides, result.per_wire_areas)
    ):
        lines.append(f"{i:>6} {_fmt(length):>10} {n:>7} {_fmt(wire_area):>10}")
    lines.append(f"{'total':>6} {'':>10} {sum(result.sides):>7} {_fmt(result.total_area):>10}")
    lines.append(
        "residuals " + (" ".join(_fmt(r) for r in result.residuals) if result.residuals else "-")
    )
    _emit(args, _allocation_payload(problem, result), lines)
    return EXIT_OK


def _lattice_error_bound(problem, resolution) -> float:
    step = problem.total_length / resolution
    return step * step * sum(1.0 / (4.0 * sigma(s)) for s in problem.shapes)


def _verify_partition(problem, resolution) -> list:
    if resolution is None:
        resolution = _VERIFY_RESOLUTIONS.get(len(problem.shapes), 12)
    grid = GridSpec(resolution)
    closed_min = minimize_partition(problem)
    sampled_min = grid_min(problem, grid)
    min_gap = sampled_min.total_area - closed_min.total_area
    min_bound = _lattice_error_bound(problem, resolution)
    closed_max = maximize_partition(problem)
    sampled_max = grid_max(problem, grid)
    max_gap = abs(closed_max.total_area - sampled_max.total_area)
    max_bound = 1e-9 * closed_max.total_area
    slack = 1e-9 * closed_min.total_area
    return [
        {
            "check": f"minimum vs grid (resolution {resolution})",
            "deviation": min_gap,
            "bound": min_bound,
            "ok": -slack <= min_gap <= min_bound + slack,
        },
        {
            "check": f"maximum vs grid (resolution {resolution})",
            "deviation": max_gap,
            "bound": max_bound,
            "ok": max_gap <= max_bound,
        },
    ]


def _verify_bounds(data) -> list:
    problem = PartitionProblem(
        _require(data.get("length"), "length"),
        _parse_shape_list(_require(data.get("shapes"), "shapes")),
    )
    query = BoundQuery(
        problem,
        _require(data.get("threshold"), "threshold"),
        _require(data.get("sense"), "sense"),
    )
    solver = solve_two_polygon if len(problem.shapes) == 2 else solve_equal_perimeter
    intervals = solver(query)
    domain_hi = problem.total_length / (len(problem.shapes) - 1)
    guard = 1e-6 * problem.total_length

    def satisfied(x):
        total = shared_perimeter_total(problem, x)
        return total > query.threshold if query.sense == "lower" else total < query.threshold

    violations = 0
    samples = 200
    for i in range(1, samples):
        x = domain_hi * i / samples
        inside = any(lo + guard < x < hi - guard for lo, hi in intervals.intervals)
        clear_outside = all(x < lo - guard or x > hi + guard for lo, hi in intervals.intervals)
        if inside and not satisfied(x):
            violations += 1
        elif clear_outside and satisfied(x):
            violations += 1

    worst_residual = 0.0
    for lo, hi in intervals.intervals:
        for edge in (lo, hi):
            if edge <= guard or edge >= domain_hi - guard:
                continue
            residual = abs(shared_perimeter_total(problem, edge) - query.threshold)
            worst_residual = max(worst_residual, residual / query.threshold)
    return [
        {
            "check": "interval membership (200 samples)",
            "deviation": float(violations),
            "bound": 0.0,
            "ok": violations == 0,
        },
        {
            "check": "endpoint residual (relative)",
            "deviation": worst_residual,
            "bound": 1e-6,
            "ok": worst_residual <= 1e-6,
        },
    ]


def _verify_allocation(problem) -> list:
    fast = optimize_allocation(problem)
    slow = enumerate_allocations(problem)
    return [
        {
            "check": "optimizer vs plain enumeration",
            "deviation": abs(fast.total_area - slow.total_area),
            "bound": 0.0,
            "ok": fast.sides == slow.sides and fast.total_area == slow.total_area,
        }
    ]


def _cmd_verify(args) -> int:
    data = _load_problem_file(args.file)
    mode = data.get("mode")
    if mode == "partition":
        problem = PartitionProblem(
            _require(data.get("length"), "length"),
            _parse_shape_list(_require(data.get("shapes"), "shapes")),
        )
        checks = _verify_partition(problem, args.resolution)
    elif mode == "bounds":
        checks = _verify_bounds(data)
    elif mode == "allocation":
        problem = AllocationProblem(
            _parse_number_list(_require(data.get("lengths"), "lengths")),
            _require(data.get("side_budget"), "side_budget"),
        )
        checks = _verify_allocation(problem)
    else:
        raise ValueError(f"unknown problem mode {mode!r}")

    all_ok = all(item["ok"] for item in checks)
    payload = {"command": "verify", "file": args.file, "checks": checks, "ok": all_ok}
    lines = []
    for item in checks:
        status = "ok" if item["ok"] else "FAIL"
        lines.append(
            f"{item['check']:<40} deviation {item['deviation']:.3e} "
            f"bound {item['bound']:.3e} {status}"
        )
    lines.append("verification " + ("passed" if all_ok else "FAILED"))
    _emit(args, payload, lines)
    return EXIT_OK if all_ok else EXIT_MISMATCH


def _add_format_flag(parser):
    parser.add_argument(
        "--format",
        choices=("table", "json"),
        default="table",
        help="output style: human table or machine JSON (default table)",
    )


def _add_partition_flags(parser):
    parser.add_argument("--file", help="JSON problem file")
    parser.add_argument("--length", type=float, help="total wire length")
    parser.add_argument("--shapes", help="comma-separated side counts, e.g. 4,3,circle")
    _add_format_flag(parser)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wirecut",
        description="Cut a wire into regular polygons: closed-form area extrema, "
        "area-bound intervals, side-budget allocation, and brute-force checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_min = sub.add_parser("min", help="minimum-area partition of the wire")
    _add_partition_flags(p_min)
    p_min.set_defaults(handler=_cmd_min)

    p_max = sub.add_parser("max", help="maximum-area partition of the wire")
    _add_partition_flags(p_max)
    p_max.add_argument(
        "--paper-face-max",
        action="store_true",
        help="report the best boundary stationary point instead of the true vertex maximum",
    )
    p_max.set_defaults(handler=_cmd_max)

    p_bounds = sub.add_parser("bounds", help="where the total area beats or stays under a threshold")
    _add_partition_flags(p_bounds)
    p_bounds.add_argument("--area", type=float, help="threshold area")
    p_bounds.add_argument("--sense", choices=("lower", "upper"), help="inequality direction")
    p_bounds.set_defaults(handler=_cmd_bounds)

    p_alloc = sub.add_parser("allocate", help="best split of a side budget across wires")
    p_alloc.add_argument("--file", help="JSON problem file")
    p_alloc.add_argument("--lengths", help="comma-separated wire lengths, e.g. 1,2")
    p_alloc.add_argument("--budget", type=int, help="total number of polygon sides")
    _add_format_flag(p_alloc)
    p_alloc.set_defaults(handler=_cmd_allocate)

    p_verify = sub.add_parser("verify", help="cross-check a problem file against the brute-force oracle")
    p_verify.add_argument("--file", required=True, help="JSON problem file")
    p_verify.add_argument("--resolution", type=int, help="lattice steps for partition checks")
    _add_format_flag(p_verify)
    p_verify.set_defaults(handler=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except InfeasibleBudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
