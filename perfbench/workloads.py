"""Seeded operation pools for the three benchmark workloads.

A workload is one pass ("round") of operations built from the seed. Each
operation is ``Op(run, args, check, extreme)``: the benchmark times
``run(*args)``, then hands the result, or the exception it raised, to
``check``, which returns True when the output is right. The mix of
operation kinds, shape counts and problem sizes in a round is fixed; the
seed draws the lengths, shapes, thresholds and the order, so every seed
puts the same amount of work of each kind into a round.

Runners look solver functions up on the package at call time, so the
tracer and the self-check see every call through the names they patch.
"""

import io
import json
import random
from collections import namedtuple
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import wirecut
import wirecut.cli

import reference as ref

Op = namedtuple("Op", "run args check extreme")

class Workload:
    """The operations of one round, plus the bytes the CLI wrote."""

    def __init__(self, ops):
        self.ops = ops
        self.output_bytes = 0


def build(name: str, seed: int, workdir: Path) -> Workload:
    rng = random.Random(seed)
    if name == "closed_form":
        return Workload(_closed_form(rng))
    if name == "allocation":
        return Workload(_allocation(rng))
    if name == "cli":
        workload = Workload([])
        workload.ops = _cli(rng, workdir, workload)
        return workload
    raise ValueError(f"unknown workload {name!r}")


# ---- random problem pieces -------------------------------------------------------


def _length(rng) -> float:
    return 10.0 ** rng.uniform(-3.0, 6.0)


def _shape(rng, large=True):
    """A side count 3..12, a large polygon, or the circle."""
    draw = rng.random()
    if draw < 0.08:
        return "circle"
    if large and draw < 0.2:
        return int(10.0 ** rng.uniform(2.0, 7.0))
    return rng.randint(3, 12)


def _shapes(rng, count, large=True):
    return [_shape(rng, large) for _ in range(count)]


def _threshold(rng, line, region):
    """A threshold in units of L**2: inside the feasibility band, below it
    or above it."""
    if region == "inside":
        return line.a_low + rng.uniform(0.05, 0.95) * (line.a_high - line.a_low)
    if region == "below":
        return line.a_low * rng.uniform(0.2, 0.9)
    return line.a_high * rng.uniform(1.1, 4.0)


_REGIONS = ("inside", "inside", "inside", "below", "above")
_SENSES = ("lower", "upper")


# ---- closed_form ------------------------------------------------------------------

# Operations per 100 of each kind; every kind cycles through 2..12 shapes.
_CLOSED_FORM_MIX = (("min", 25), ("max", 25), ("face_max", 10), ("face", 10), ("bounds", 29))
_EXTREME_KINDS = ("min", "max", "face_max", "face", "bounds")
_SHAPE_COUNTS = 11  # 2..12


def run_min(problem):
    return wirecut.minimize_partition(problem)


def run_max(problem):
    return wirecut.maximize_partition(problem)


def run_face_max(problem):
    return wirecut.paper_face_max(problem)


def run_face(problem, index):
    return wirecut.face_stationary(problem, index)


def run_bounds(query):
    """One bounds query: the intervals, the roots and the band, each call's
    exception kept in place of its result."""
    problem, threshold = query.problem, query.threshold
    try:
        intervals = wirecut.solve_equal_perimeter(query)
    except Exception as exc:
        intervals = exc
    try:
        roots = wirecut.threshold_roots(problem, threshold)
    except Exception as exc:
        roots = exc
    try:
        band = wirecut.feasibility_range(problem, threshold)
    except Exception as exc:
        band = exc
    return intervals, roots, band


def _closed_form(rng):
    plan = []
    for kind, share in _CLOSED_FORM_MIX:
        plan += [(kind, 2 + i % _SHAPE_COUNTS, i, False) for i in range(share * _SHAPE_COUNTS)]
    # One operation in a hundred at extreme magnitude, where the true
    # answer may overflow a float.
    plan += [(_EXTREME_KINDS[i % 5], 2 + i, i, True) for i in range(_SHAPE_COUNTS)]
    rng.shuffle(plan)
    return [_closed_form_op(rng, *step) for step in plan]


def _closed_form_op(rng, kind, count, index, extreme):
    length = 10.0 ** rng.uniform(100.0, 200.0) if extreme else _length(rng)
    tokens = _shapes(rng, count)
    weights = [ref.sigma(t) for t in tokens]
    problem = wirecut.PartitionProblem(length, tuple(tokens))
    total_weight = sum(weights)
    if kind == "bounds":
        line = ref.Line(length, weights)
        if extreme:
            threshold = 10.0 ** rng.uniform(200.0, 300.0)
        else:
            threshold = _threshold(rng, line, _REGIONS[index % 5]) * length * length
        query = wirecut.BoundQuery(problem, threshold, _SENSES[index % 2])
        return Op(run_bounds, (query,), _bounds_check(line, query), extreme)
    if kind == "face":
        excluded = rng.randrange(count)
        weight = total_weight - weights[excluded]
        run, args = run_face, (problem, excluded)
    elif kind == "face_max":
        weight = total_weight - max(weights)
        run, args = run_face_max, (problem,)
    elif kind == "max":
        weight = min(weights)
        run, args = run_max, (problem,)
    else:
        weight = total_weight
        run, args = run_min, (problem,)
    face_total = 1.0 / (4.0 * (total_weight - max(weights)))

    def result_ok(result):
        if kind == "face" and result.excluded_index != excluded:
            return False
        if kind == "face_max":
            index = result.excluded_index
            if index is None or not ref.close(weights[index], max(weights)):
                return False
        if kind == "max" and result.total_area / length / length < face_total * (1.0 - ref.REL):
            return False
        return ref.partition_ok(
            length,
            weights,
            result.lengths,
            result.per_shape_areas,
            result.total_area,
            1.0 / (4.0 * weight),
            excluded=result.excluded_index if kind.startswith("face") else None,
        )

    overflow = ref.overflows(length, weight)
    return Op(run, args, lambda out: ref.outcome(out, overflow, result_ok), extreme)


def _bounds_check(line, query):
    length, sense = line.length, query.sense
    alpha = query.threshold / length / length

    def check(out):
        intervals, roots, band = out
        return (
            ref.outcome(intervals, False, lambda r: ref.intervals_ok(line, alpha, sense, r.intervals))
            and ref.outcome(roots, False, lambda r: ref.roots_ok(line, alpha, r))
            and ref.outcome(
                band,
                line.overflow(),
                lambda b: ref.band_ok(
                    line, alpha, (b.a_low, b.a_high, b.l_low, b.l_high, b.x_hat), roots
                ),
            )
        )

    return check


# ---- allocation -------------------------------------------------------------------

# (wires, side budget) rungs of the 1,000-problem pool: 980 small problems
# (3 to 126 compositions) and 20 with k=5, I=30 (3,876 compositions). The
# large ones are the top 2%, so p99 lands inside that class. The pool is
# kept to about a second so that a run repeats it some thirty times.
_LADDER = (
    [(2, budget) for budget in (8, 12, 16, 20, 24, 30, 38, 48, 60, 80)] * 30
    + [(3, budget) for budget in (10, 11, 12, 13, 14, 16, 18, 20, 22, 24)] * 30
    + [(4, budget) for budget in (13, 14, 15, 16, 17, 18, 19, 20)] * 30
    + [(5, budget) for budget in (16, 16, 17, 18, 18, 19, 20)] * 20
    + [(5, 30)] * 20
)


def run_allocate(problem):
    return wirecut.optimize_allocation(problem)


def _wire_lengths(rng, wires, tied):
    if tied:  # equal lengths, so several allocations tie for the optimum
        return [_length(rng)] * wires
    return [_length(rng) for _ in range(wires)]


def _allocation_ok(lengths, budget, result):
    return len(result.residuals) == len(lengths) - 1 and ref.allocation_ok(
        lengths, budget, result.sides, result.per_wire_areas, result.total_area
    )


def _allocation(rng):
    ops = []
    for position, (wires, budget) in enumerate(_LADDER):
        lengths = _wire_lengths(rng, wires, tied=position % 6 == 0)
        problem = wirecut.AllocationProblem(tuple(lengths), budget)
        check = lambda out, lengths=lengths, budget=budget: ref.outcome(
            out, False, lambda r: _allocation_ok(lengths, budget, r)
        )
        ops.append(Op(run_allocate, (problem,), check, False))
    rng.shuffle(ops)
    return ops


# ---- cli --------------------------------------------------------------------------

_SOURCES = (("inline", "table"), ("inline", "json"), ("file", "table"), ("file", "json"))


def run_cli(argv):
    """In-process ``wirecut.cli.main`` with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = wirecut.cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad flags this way
            code = exc.code
    return code, out.getvalue()


def _reject_constant(token):
    raise ValueError(f"invalid JSON literal {token}")


def _token_list(values):
    return ",".join(str(v) if isinstance(v, str) else repr(v) for v in values)


class _Requests:
    """Builds argv lists and problem files for the CLI workload."""

    def __init__(self, rng, workdir, workload):
        self.rng = rng
        self.workdir = workdir
        self.workload = workload
        self.files = 0
        self.ops = []

    def file(self, data) -> str:
        """Path of a problem file; written unless an earlier process of the
        same run (same seed, so the same content) wrote it already."""
        self.files += 1
        path = self.workdir / f"problem_{self.files:04d}.json"
        if not path.exists():
            path.write_text(json.dumps(data), encoding="utf-8")
        return str(path)

    def add(self, argv, code, payload_ok=None, first_word=None):
        """A request that must exit with `code`; on success a JSON payload
        must pass payload_ok and a table must start with first_word."""
        workload = self.workload
        is_json = "json" in argv

        def result_ok(out):
            exit_code, text = out
            workload.output_bytes += len(text.encode())
            if exit_code != code:
                return False
            if code != 0:
                return True
            if not is_json:
                if first_word:
                    return text.split()[:1] == [first_word]
                return text.rstrip().endswith("verification passed")
            try:
                payload = json.loads(text, parse_constant=_reject_constant)
            except ValueError:
                return False
            return payload_ok(payload)

        self.ops.append(Op(run_cli, (argv,), lambda out: ref.outcome(out, False, result_ok), False))

    def partition(self, command, source, fmt, count, extra=()):
        length = _length(self.rng)
        tokens = _shapes(self.rng, count)
        if source == "file":
            argv = [command, "--file", self.file({"mode": "partition", "length": length, "shapes": tokens})]
        else:
            argv = [command, "--length", repr(length), "--shapes", _token_list(tokens)]
        return argv + list(extra) + ["--format", fmt], length, tokens


def _partition_payload_ok(length, weights, expected, face):
    def ok(payload):
        result = payload["result"]
        total = result["total_area"]
        if face is not None and total / length / length < face * (1.0 - ref.REL):
            return False
        return ref.partition_ok(
            length,
            weights,
            result["lengths"],
            result["per_shape_areas"],
            total,
            expected,
            excluded=result["excluded_index"],
        )

    return ok


def _cli(rng, workdir, workload):
    """Ten blocks of the 100-request mix."""
    req = _Requests(rng, workdir, workload)
    for _ in range(10):
        _cli_block(req)
    ops = req.ops
    rng.shuffle(ops)
    return ops


def _cli_block(req):
    rng = req.rng
    for i in range(25):
        source, fmt = _SOURCES[i % 4]
        argv, length, tokens = req.partition("min", source, fmt, 2 + i % 5)
        weights = [ref.sigma(t) for t in tokens]
        req.add(argv, 0, _partition_payload_ok(length, weights, 1.0 / (4.0 * sum(weights)), None), "kind")
    for i in range(16):
        source, fmt = _SOURCES[i % 4]
        face_flag = i % 2 == 1
        extra = ["--paper-face-max"] if face_flag else []
        argv, length, tokens = req.partition("max", source, fmt, 2 + i % 5, extra)
        weights = [ref.sigma(t) for t in tokens]
        face = 1.0 / (4.0 * (sum(weights) - max(weights)))
        if face_flag:
            ok = _partition_payload_ok(length, weights, face, None)
        else:
            ok = _partition_payload_ok(length, weights, 1.0 / (4.0 * min(weights)), face)
        req.add(argv, 0, ok, "kind")
    for i in range(25):
        source, fmt = _SOURCES[i % 4]
        _bounds_request(req, source, fmt, 2 + i % 5, _REGIONS[i % 5], _SENSES[i % 2])
    for i in range(14):
        source, fmt = _SOURCES[i % 4]
        _allocate_request(req, source, fmt, 2 + i % 2)
    # One request in ten is `verify`. The grid scans of partition files make
    # up the latency tail: the two three-shape scans at resolution 60 (1,891
    # samples each) are the top 2%, so p99 lands inside that class. Bounds
    # and allocation files are small.
    for i, (count, resolution) in enumerate(((2, 500), (3, 60), (3, 60), (6, 6))):
        tokens = _shapes(rng, count, large=False)
        path = req.file({"mode": "partition", "length": _length(rng), "shapes": tokens})
        argv = ["verify", "--file", path, "--resolution", str(resolution), "--format", ("table", "json")[i % 2]]
        req.add(argv, 0, _verify_ok)
    for i in range(3):
        count = 2 + i
        tokens = _shapes(rng, count, large=False)
        length = _length(rng)
        line = ref.Line(length, [ref.sigma(t) for t in tokens])
        threshold = _threshold(rng, line, _REGIONS[i]) * length * length
        data = {"mode": "bounds", "length": length, "shapes": tokens,
                "threshold": threshold, "sense": _SENSES[i % 2]}
        req.add(["verify", "--file", req.file(data), "--format", ("json", "table")[i % 2]], 0, _verify_ok)
    for i in range(3):
        wires = 2 + i % 2
        data = {"mode": "allocation", "lengths": _wire_lengths(rng, wires, tied=False),
                "side_budget": 3 * wires + rng.randint(2, 8)}
        req.add(["verify", "--file", req.file(data), "--format", ("table", "json")[i % 2]], 0, _verify_ok)
    _invalid_requests(req)


def _verify_ok(payload):
    return payload["ok"] is True and all(check["ok"] for check in payload["checks"])


def _bounds_request(req, source, fmt, count, region, sense):
    rng = req.rng
    length = _length(rng)
    tokens = _shapes(rng, count)
    line = ref.Line(length, [ref.sigma(t) for t in tokens])
    threshold = _threshold(rng, line, region) * length * length
    alpha = threshold / length / length
    if source == "file":
        data = {"mode": "bounds", "length": length, "shapes": tokens,
                "threshold": threshold, "sense": sense}
        argv = ["bounds", "--file", req.file(data)]
    else:
        argv = ["bounds", "--length", repr(length), "--shapes", _token_list(tokens),
                "--area", repr(threshold), "--sense", sense]

    def ok(payload):
        result = payload["result"]
        roots = result["roots"]
        band = (result["a_low"], result["a_high"], result["l_low"], result["l_high"], result["x_hat"])
        return (
            ref.intervals_ok(line, alpha, sense, result["intervals"])
            and ref.roots_ok(line, alpha, roots)
            and ref.band_ok(line, alpha, band, roots)
        )

    req.add(argv + ["--format", fmt], 0, ok, "sense")


def _allocate_request(req, source, fmt, wires):
    rng = req.rng
    lengths = _wire_lengths(rng, wires, tied=rng.random() < 0.2)
    budget = 3 * wires + rng.randint(0, 12)
    if source == "file":
        argv = ["allocate", "--file", req.file({"mode": "allocation", "lengths": lengths, "side_budget": budget})]
    else:
        argv = ["allocate", "--lengths", _token_list(lengths), "--budget", str(budget)]

    def ok(payload):
        result = payload["result"]
        return ref.allocation_ok(lengths, budget, result["sides"], result["per_wire_areas"], result["total_area"])

    req.add(argv + ["--format", fmt], 0, ok, "wire")


def _invalid_requests(req):
    """Ten requests that must fail with the documented exit codes: 2 for
    invalid input, 3 for an infeasible side budget, 4 for a resource guard."""
    rng = req.rng
    length = repr(_length(rng))
    req.add(["min", "--length", "-" + length, "--shapes", "3,4"], 2)
    req.add(["max", "--length", length, "--shapes", "2,4"], 2)
    req.add(["bounds", "--length", length, "--shapes", "3,4", "--area", "1", "--sense", "sideways"], 2)
    req.add(["allocate", "--lengths", "1,x", "--budget", "9"], 2)
    req.add(["allocate", "--lengths", _token_list(_wire_lengths(rng, 2, False)), "--budget", "5"], 3)
    req.add(["allocate", "--lengths", _token_list(_wire_lengths(rng, 3, False)), "--budget", "8"], 3)
    path = req.file({"mode": "allocation", "lengths": _wire_lengths(rng, 4, False), "side_budget": 11})
    req.add(["allocate", "--file", path], 3)
    path = req.file({"mode": "partition", "length": _length(rng), "shapes": _shapes(rng, 7, large=False)})
    req.add(["verify", "--file", path], 4)
    req.add(["allocate", "--lengths", _token_list(_wire_lengths(rng, 8, False)), "--budget", "100000"], 4)
    path = req.file({"mode": "allocation", "lengths": _wire_lengths(rng, 8, False), "side_budget": 100000})
    req.add(["verify", "--file", path], 4)
