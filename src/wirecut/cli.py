"""Command-line front end for the partition, bounds, and allocation solvers.

Problems come from inline flags or from a JSON problem file with the schema

    {"mode": "partition" | "bounds" | "allocation",
     "length": 12.0, "shapes": [4, 3, "circle"],     partition / bounds
     "threshold": 5.0, "sense": "lower" | "upper",   bounds only
     "lengths": [1.0, 2.0], "side_budget": 9}        allocation only

Only this module reads it. `main` runs every subcommand through one
pipeline, `_problem` -> handler -> payload -> JSON or table. `_problem`
lays the inline flags over the --file object (or over {"mode": m}; verify
keeps its file's own mode) and decodes it in `_decode`; the handler solves
it and returns its payload (problems echoed through `_encode`) and exit
code; `main` prints the payload through `_json` alone, or through the
table alone. Every total a solver returns is finite (it raises ValueError
where one overflows), so a table needs no check of its own; `_json` keeps
json.dumps's refusal of NaN and inf. Comma lists such as
--shapes 4,3 are flag syntax; in a file, shapes and lengths are JSON lists.
The command table `_COMMANDS` gives each subcommand its mode, handler,
table and extra flags; `build_parser` adds the mode's `_FIELDS` flags from it.
`main` builds the parser on its first call and reuses it for the process.
When the first argument names a subcommand, `main` reads the rest in
`_plain` if it holds only that subcommand's flags, spelled in full, each
value valid and not starting with "-", and every required flag; `_plain`
builds the Namespace argparse would from the flag table `build_parser`
keeps. Any other rest (-h, abbreviations, --flag=value, a negative or bad
value, a foreign flag) goes to the subcommand's parser alone, and anything
else (no arguments, -h, an unknown command) through the top-level parser
and its messages.

Exit codes: 0 success, 1 verification mismatch, 2 invalid input or a result
that overflows a float, 3 infeasible side budget, 4 resource guard tripped.
"""

import argparse
import json
import math
import sys

from .allocation import AllocationProblem, optimize_allocation
from .bounds import BoundQuery, feasibility_range, solve_equal_perimeter, threshold_roots
from .errors import InfeasibleBudgetError, ResourceLimitError
from .extrema import (
    PartitionProblem,
    maximize_partition,
    minimize_partition,
    paper_face_max,
)
from .verify import cross_check

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_INVALID = 2
EXIT_INFEASIBLE = 3
EXIT_RESOURCE = 4


def _fmt(value: float) -> str:
    return f"{value:.3f}"


def _tokens(text: str, flag: str) -> list:
    tokens = [token.strip() for token in text.split(",")]
    if "" in tokens:
        raise ValueError(f"{flag} has an empty entry in {text!r}")
    return tokens


def _numbers(text: str, flag: str) -> list:
    tokens = _tokens(text, flag)
    try:
        return [float(token) for token in tokens]
    except ValueError:
        raise ValueError(f"lengths must be numbers, got {text!r}") from None


# The problem-file fields of each mode, in constructor order, with the flag
# that overrides each one.
_FIELDS = {
    "partition": {"length": "--length", "shapes": "--shapes"},
    "bounds": {"length": "--length", "shapes": "--shapes",
               "threshold": "--area", "sense": "--sense"},
    "allocation": {"lengths": "--lengths", "side_budget": "--budget"},
}
# List fields, and how their flags' comma-separated text is split.
_SPLIT = {"--shapes": _tokens, "--lengths": _numbers}


def _decode(data: dict):
    """The PartitionProblem, BoundQuery or AllocationProblem a problem-file
    object describes."""
    mode = data.get("mode")
    if not isinstance(mode, str) or mode not in _FIELDS:
        raise ValueError(f"unknown problem mode {mode!r}")
    values = []
    for field, flag in _FIELDS[mode].items():
        value = data.get(field)
        if value is None:
            raise ValueError(f"missing {flag} (flag or problem-file field {field!r})")
        if flag in _SPLIT and not isinstance(value, list):
            raise ValueError(f"{field} must be a list, got {value!r}")
        values.append(value)
    if mode == "allocation":
        return AllocationProblem(*values)
    problem = PartitionProblem(*values[:2])
    return BoundQuery(problem, *values[2:]) if mode == "bounds" else problem


def _encode(problem) -> dict:
    """The problem-file object of a problem; `_decode` inverts it."""
    if isinstance(problem, AllocationProblem):
        return {"mode": "allocation", "lengths": list(problem.wire_lengths),
                "side_budget": problem.side_budget}
    if isinstance(problem, BoundQuery):
        return {**_encode(problem.problem), "mode": "bounds",
                "threshold": problem.threshold, "sense": problem.sense}
    shapes = ["circle" if s.is_circle else s.sides for s in problem.shapes]
    return {"mode": "partition", "length": problem.total_length, "shapes": shapes}


def _read(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise ValueError(f"cannot read problem file: {exc}") from None
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deep
        raise ValueError(f"problem file is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ValueError("problem file must hold a JSON object")
    return data


def _problem(args):
    """The --file object (or an empty problem of the subcommand's mode) with
    the inline flags laid over its fields, decoded; verify keeps its file's mode."""
    mode = args.mode
    data = _read(args.file) if args.file else {"mode": mode}
    if mode and data.get("mode") != mode:
        raise ValueError(f"problem file has mode {data.get('mode')!r}, expected {mode!r}")
    for field, flag in _FIELDS.get(mode, {}).items():
        value = getattr(args, flag[2:])
        if value is not None:
            split = _SPLIT.get(flag)
            data[field] = split(value, flag) if split else value
    return _decode(data)


_quote = json.encoder.encode_basestring_ascii


def _json(value, indent: str = "\n") -> str:
    """json.dumps(value, indent=2, allow_nan=False) byte for byte, keys being str; the stdlib
    encoder indents only in pure Python. ValueError on NaN and inf, TypeError on other types."""
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError("result is not a finite number (lengths or areas beyond the float range)")
        return float.__repr__(value)
    if isinstance(value, str):
        return _quote(value)
    if value is None or value is True or value is False:
        return "null" if value is None else "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = indent + "  "
    if isinstance(value, (list, tuple)):
        items = [_json(item, inner) for item in value]
        return f"[{inner}{(',' + inner).join(items)}{indent}]" if items else "[]"
    if isinstance(value, dict):
        items = [f"{_quote(key)}: {_json(item, inner)}" for key, item in value.items()]
        return f"{{{inner}{(',' + inner).join(items)}{indent}}}" if items else "{}"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _cmd_partition(args, problem):
    if args.command == "min":
        result = minimize_partition(problem)
    else:
        result = paper_face_max(problem) if args.paper_face_max else maximize_partition(problem)
    return {"problem": _encode(problem), "result": vars(result)}, EXIT_OK


def _partition_table(problem, result):
    lines = [f"{'kind':<10} {result['kind']}"]
    if result["excluded_index"] is not None:
        lines.append(f"{'excluded':<10} index {result['excluded_index']}")
    lines.append(f"{'shape':>8} {'length':>10} {'area':>10}")
    for shape, length, shape_area in zip(problem["shapes"], result["lengths"], result["per_shape_areas"]):
        lines.append(f"{str(shape):>8} {_fmt(length):>10} {_fmt(shape_area):>10}")
    lines.append(f"{'total':>8} {_fmt(sum(result['lengths'])):>10} {_fmt(result['total_area']):>10}")
    return lines


def _cmd_bounds(args, query):
    intervals = solve_equal_perimeter(query)
    roots = threshold_roots(query.problem, query.threshold)
    band = feasibility_range(query.problem, query.threshold)
    result = {"domain": intervals.domain, "roots": roots, "intervals": intervals.intervals}
    return {"problem": _encode(query), "result": result | vars(band)}, EXIT_OK


def _bounds_table(problem, result):
    return [
        f"{'sense':<18} {problem['sense']}",
        f"{'threshold':<18} {_fmt(problem['threshold'])}",
        f"{'domain':<18} (0.000, {_fmt(result['domain'][1])})",
        f"{'threshold band':<18} [{_fmt(result['a_low'])}, {_fmt(result['a_high'])}]",
        f"{'roots':<18} " + (", ".join(map(_fmt, result["roots"] or ())) or "none"),
        f"{'intervals':<18} "
        + (" ".join(f"({_fmt(lo)}, {_fmt(hi)})" for lo, hi in result["intervals"]) or "empty"),
    ]


def _cmd_allocate(args, problem):
    return {"problem": _encode(problem), "result": vars(optimize_allocation(problem))}, EXIT_OK


def _allocate_table(problem, result):
    lines = [f"{'wire':>6} {'length':>10} {'sides':>7} {'area':>10}"]
    rows = zip(problem["lengths"], result["sides"], result["per_wire_areas"])
    for i, (length, n, wire_area) in enumerate(rows):
        lines.append(f"{i:>6} {_fmt(length):>10} {n:>7} {_fmt(wire_area):>10}")
    lines.append(f"{'total':>6} {'':>10} {sum(result['sides']):>7} {_fmt(result['total_area']):>10}")
    lines.append("residuals " + (" ".join(map(_fmt, result["residuals"])) or "-"))
    return lines


def _cmd_verify(args, problem):
    checks = cross_check(problem, args.resolution)
    all_ok = all(item.ok for item in checks)
    payload = {"file": args.file, "checks": [vars(item) for item in checks], "ok": all_ok}
    return payload, EXIT_OK if all_ok else EXIT_MISMATCH


def _verify_table(file, checks, ok):
    lines = [f"{item['check']:<40} deviation {item['deviation']:.3e} "
             f"bound {item['bound']:.3e} {'ok' if item['ok'] else 'FAIL'}" for item in checks]
    lines.append("verification " + ("passed" if ok else "FAILED"))
    return lines


# Each subcommand: the mode whose problem-field flags it takes (verify reads
# the mode from its file), its handler, its table, its help, and its other flags.
_COMMANDS = {
    "min": ("partition", _cmd_partition, _partition_table, "minimum-area partition of the wire", ()),
    "max": ("partition", _cmd_partition, _partition_table, "maximum-area partition of the wire",
            ("--paper-face-max",)),
    "bounds": ("bounds", _cmd_bounds, _bounds_table,
               "where the total area beats or stays under a threshold", ()),
    "allocate": ("allocation", _cmd_allocate, _allocate_table,
                 "best split of a side budget across wires", ()),
    "verify": (None, _cmd_verify, _verify_table,
               "cross-check a problem file against the brute-force oracle", ("--resolution",)),
}
# The argparse keywords of every flag but --file.
_FLAGS = {
    "--length": {"type": float, "help": "total wire length"},
    "--shapes": {"help": "comma-separated side counts, e.g. 4,3,circle"},
    "--area": {"type": float, "help": "threshold area"},
    "--sense": {"choices": ("lower", "upper"), "help": "inequality direction"},
    "--lengths": {"help": "comma-separated wire lengths, e.g. 1,2"},
    "--budget": {"type": int, "help": "total number of polygon sides"},
    "--paper-face-max": {"action": "store_true", "help": "report the best boundary stationary "
                         "point instead of the true vertex maximum"},
    "--resolution": {"type": int, "help": "lattice steps for partition checks"},
    "--format": {"choices": ("table", "json"), "default": "table",
                 "help": "output style: human table or machine JSON (default table)"},
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wirecut",
        description="Cut a wire into regular polygons: closed-form area extrema, "
        "area-bound intervals, side-budget allocation, and brute-force checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parser.plain = {}  # each subcommand's actions by full flag name, and its defaults
    for command, (mode, handler, _, text, extra) in _COMMANDS.items():
        command_parser = sub.add_parser(command, help=text)
        actions = [command_parser.add_argument("--file", required=mode is None,
                                               help="JSON problem file")]
        for flag in (*_FIELDS.get(mode, {}).values(), *extra, "--format"):
            actions.append(command_parser.add_argument(flag, **_FLAGS[flag]))
        command_parser.set_defaults(command=command, handler=handler, mode=mode)
        parser.plain[command] = ({action.option_strings[0]: action for action in actions},
                                 {action.dest: action.default for action in actions}
                                 | {"command": command, "handler": handler, "mode": mode})
    parser.commands = sub.choices  # each subcommand's parser, by name
    return parser


def _plain(argv: list, actions: dict, defaults: dict):
    """The Namespace the subcommand's parser makes of argv when argv holds only
    full flag names, each value not starting with "-", converting and in its
    choices, and every required flag; None for anything else."""
    values = defaults.copy()
    tokens = iter(argv)
    try:
        for token in tokens:
            action = actions[token]
            if action.nargs == 0:  # store_true
                values[action.dest] = action.const
                continue
            text = next(tokens)
            value = action.type(text) if action.type else text
            if text.startswith("-") or action.choices is not None and value not in action.choices:
                return None
            values[action.dest] = value
    except (KeyError, StopIteration, ValueError):
        return None
    required = (action.dest for action in actions.values() if action.required)
    return None if any(values[dest] is None for dest in required) else argparse.Namespace(**values)


# Built by the first `main` call rather than at import, which stays cheap;
# argparse keeps no state between parse_args calls.
_parser = None


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    argv = sys.argv[1:] if argv is None else argv
    command = _parser.commands.get(argv[0]) if argv else None
    args = ((_plain(argv[1:], *_parser.plain[argv[0]]) or command.parse_args(argv[1:]))
            if command else _parser.parse_args(argv))
    try:
        payload, code = args.handler(args, _problem(args))
        if args.format == "json":
            print(_json({"command": args.command, **payload}))
        else:
            print("\n".join(_COMMANDS[args.command][2](**payload)))
        return code
    except (InfeasibleBudgetError, ResourceLimitError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, InfeasibleBudgetError):
            return EXIT_INFEASIBLE
        return EXIT_RESOURCE if isinstance(exc, ResourceLimitError) else EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
