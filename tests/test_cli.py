"""Command-line interface: dispatch, formats, problem files, exit codes."""

import argparse
import json
import math
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wirecut import cli
from wirecut.cli import main

PROBLEMS = Path(__file__).resolve().parents[1] / "problems"
SQUARE = str(PROBLEMS / "partition_square_triangle.json")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_min_table(capsys):
    code, out, _ = run(capsys, "min", "--length", "12", "--shapes", "4,3")
    assert code == 0
    assert "5.220" in out and "6.780" in out and "3.915" in out
    assert "interior-minimum" in out


def test_max_table(capsys):
    code, out, _ = run(capsys, "max", "--length", "12", "--shapes", "4,3")
    assert code == 0
    assert "vertex-maximum" in out
    assert "9.000" in out


def test_max_paper_face_flag(capsys):
    code, out, _ = run(
        capsys, "max", "--length", "10", "--shapes", "4,3,circle", "--paper-face-max"
    )
    assert code == 0
    assert "face-stationary" in out
    assert "3.501" in out


def test_bounds_table_shows_roots_and_clipped_interval(capsys):
    code, out, _ = run(
        capsys,
        "bounds",
        "--length", "20",
        "--shapes", "3,4,6,8,12,circle",
        "--area", "23",
        "--sense", "upper",
    )
    assert code == 0
    assert "0.609, 6.235" in out
    assert "(0.609, 4.000)" in out


def test_allocate_table(capsys):
    code, out, _ = run(capsys, "allocate", "--lengths", "1,1", "--budget", "8")
    assert code == 0
    lines = [line for line in out.splitlines() if line.strip().startswith(("0", "1"))]
    assert all(" 4 " in line for line in lines)


def test_min_json_round_trip(capsys, tmp_path):
    code, out, _ = run(capsys, "min", "--length", "12", "--shapes", "4,3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    problem_file = tmp_path / "echo.json"
    problem_file.write_text(json.dumps(payload["problem"]))
    code, out, _ = run(capsys, "min", "--file", str(problem_file), "--format", "json")
    assert code == 0
    assert json.loads(out) == payload


def test_bounds_json_round_trip(capsys, tmp_path):
    code, out, _ = run(
        capsys,
        "bounds",
        "--length", "10",
        "--shapes", "4,3,circle",
        "--area", "5",
        "--sense", "lower",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["result"]["intervals"] == [pytest.approx([0.0, 1.089], abs=2e-3)]
    problem_file = tmp_path / "echo.json"
    problem_file.write_text(json.dumps(payload["problem"]))
    code, out, _ = run(capsys, "bounds", "--file", str(problem_file), "--format", "json")
    assert code == 0
    assert json.loads(out) == payload


def test_allocate_json_round_trip(capsys, tmp_path):
    code, out, _ = run(
        capsys, "allocate", "--lengths", "1,2", "--budget", "9", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["result"]["sides"] == [4, 5]
    problem_file = tmp_path / "echo.json"
    problem_file.write_text(json.dumps(payload["problem"]))
    code, out, _ = run(capsys, "allocate", "--file", str(problem_file), "--format", "json")
    assert code == 0
    assert json.loads(out) == payload


def test_flags_override_file(capsys, tmp_path):
    problem_file = tmp_path / "p.json"
    problem_file.write_text(json.dumps({"mode": "partition", "length": 12, "shapes": [4, 3]}))
    code, out, _ = run(
        capsys, "min", "--file", str(problem_file), "--length", "24", "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["problem"]["length"] == 24.0


@pytest.mark.parametrize("name", [
    "partition_square_triangle.json",
    "partition_six_shapes.json",
    "bounds_three_shapes.json",
    "allocation_two_wires.json",
])
def test_verify_shipped_problem_files(capsys, name):
    code, out, _ = run(capsys, "verify", "--file", str(PROBLEMS / name))
    assert code == 0
    assert "verification passed" in out


def test_verify_json_reports_checks(capsys):
    code, out, _ = run(
        capsys,
        "verify",
        "--file", str(PROBLEMS / "partition_square_triangle.json"),
        "--resolution", "500",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert all(check["ok"] for check in payload["checks"])


@pytest.mark.parametrize("argv, name", [
    (["min"], "partition_square_triangle.json"),
    (["max"], "partition_six_shapes.json"),
    (["max", "--paper-face-max"], "partition_square_triangle.json"),
    (["bounds"], "bounds_three_shapes.json"),
    (["allocate"], "allocation_two_wires.json"),
    (["verify"], "partition_square_triangle.json"),
], ids=["min", "max", "max-paper-face-max", "bounds", "allocate", "verify"])
def test_json_payload_keys(capsys, argv, name):
    code, out, _ = run(capsys, *argv, "--file", str(PROBLEMS / name), "--format", "json")
    assert code == 0
    payload = json.loads(out)
    if argv[0] == "verify":
        assert list(payload) == ["command", "file", "checks", "ok"]
    else:
        assert list(payload) == ["command", "problem", "result"]
    assert payload["command"] == argv[0]


def test_invalid_length_exits_2(capsys):
    code, _, err = run(capsys, "min", "--length", "-3", "--shapes", "4,3")
    assert code == 2
    assert "error:" in err


def test_bad_shape_exits_2(capsys):
    code, _, err = run(capsys, "min", "--length", "5", "--shapes", "4,2")
    assert code == 2
    assert "error:" in err


def test_missing_field_exits_2(capsys):
    code, _, err = run(capsys, "bounds", "--length", "5", "--shapes", "4,3")
    assert code == 2
    assert "--area" in err


def test_mode_mismatch_exits_2(capsys, tmp_path):
    problem_file = tmp_path / "p.json"
    problem_file.write_text(json.dumps({"mode": "allocation", "lengths": [1, 2], "side_budget": 9}))
    code, _, err = run(capsys, "min", "--file", str(problem_file))
    assert code == 2
    assert "mode" in err


def test_infeasible_budget_exits_3(capsys):
    code, _, err = run(capsys, "allocate", "--lengths", "1,1", "--budget", "5")
    assert code == 3
    assert "3 sides" in err


def test_resource_guard_exits_4(capsys):
    code, _, err = run(
        capsys, "allocate", "--lengths", ",".join(["1"] * 8), "--budget", "100000"
    )
    assert code == 4
    assert "limit" in err


def test_json_booleans_exit_2(capsys, tmp_path):
    problem_file = tmp_path / "p.json"
    for data, command in (
        ({"mode": "allocation", "lengths": [True, 2], "side_budget": 9}, "allocate"),
        ({"mode": "allocation", "lengths": [1, False], "side_budget": 9}, "verify"),
        ({"mode": "partition", "length": True, "shapes": [3, 4]}, "min"),
        ({"mode": "partition", "length": True, "shapes": [3, 4]}, "verify"),
        ({"mode": "bounds", "length": True, "shapes": [3, 4], "threshold": 1, "sense": "lower"},
         "bounds"),
    ):
        problem_file.write_text(json.dumps(data))
        code, _, err = run(capsys, command, "--file", str(problem_file))
        assert code == 2, data
        assert "True" in err or "False" in err


@pytest.mark.parametrize("field", ["length", "shapes"])
def test_int_too_large_for_float_exits_2(capsys, tmp_path, field):
    huge = "1" + "0" * 400
    fields = {"length": "12", "shapes": "[3, 4]"}
    fields[field] = huge if field == "length" else f"[{huge}, 3]"
    problem_file = tmp_path / "p.json"
    problem_file.write_text(f'{{"mode": "partition", "length": {fields["length"]}, '
                            f'"shapes": {fields["shapes"]}}}')
    code, _, err = run(capsys, "min", "--file", str(problem_file))
    assert code == 2
    assert huge in err


def test_inline_lengths_still_parse(capsys):
    code, out, _ = run(
        capsys, "allocate", "--lengths", " 1, 2 ", "--budget", "9", "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["problem"]["lengths"] == [1.0, 2.0]


@pytest.mark.parametrize("argv, flag", [
    (("allocate", "--lengths", "1,,2", "--budget", "9"), "--lengths"),
    (("allocate", "--lengths", "1,2,", "--budget", "9"), "--lengths"),
    (("allocate", "--lengths", ",1,2", "--budget", "9"), "--lengths"),
    (("min", "--length", "12", "--shapes", "4,,3"), "--shapes"),
    (("min", "--length", "12", "--shapes", ",4,3,"), "--shapes"),
    (("bounds", "--length", "12", "--shapes", "4, ,3", "--area", "5", "--sense", "lower"), "--shapes"),
])
def test_empty_list_entry_exits_2(capsys, argv, flag):
    """An empty entry in a comma list is refused, not dropped."""
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert f"error: {flag} has an empty entry" in err


def test_overflowing_allocation_exits_2(capsys, tmp_path):
    problem_file = tmp_path / "p.json"
    problem_file.write_text(json.dumps({"mode": "allocation", "lengths": [1e200, 1], "side_budget": 20}))
    code, _, err = run(capsys, "allocate", "--file", str(problem_file))
    assert code == 2
    assert "overflows" in err


def test_total_area_overflow_exits_2(capsys):
    """A total or band past the float range exits 2 in either format, the
    field named on stderr: fourteen wires of length 1.3e154, whose areas are
    finite and their sum is not; a wire of 5e154, whose area is not; a
    partition of 1e200; and its band at threshold 1e300."""
    for argv, field in (
        (("allocate", "--lengths", ",".join(["1.3e154"] * 14), "--budget", "140"), "total area"),
        (("allocate", "--lengths", "5e154,1", "--budget", "40"), "total area"),
        (("min", "--length", "1e200", "--shapes", "3,4"), "total area"),
        (("bounds", "--length", "1e200", "--shapes", "3,4", "--area", "1e300", "--sense", "upper"),
         "threshold band"),
    ):
        for output in ("table", "json"):
            code, out, err = run(capsys, *argv, "--format", output)
            assert (code, out, err) == (2, "", f"error: {field} overflows a float\n"), (argv, output)


def test_json_output_rejects_nan(capsys, monkeypatch):
    """A NaN in the payload, even in a field the table does not show, is
    refused as json.dumps(allow_nan=False) refuses it."""
    real = cli.feasibility_range
    monkeypatch.setattr(cli, "feasibility_range",
                        lambda *args: replace(real(*args), l_high=math.nan))
    code, out, err = run(capsys, "bounds", "--length", "10", "--shapes", "4,3", "--area", "5",
                         "--sense", "lower", "--format", "json")
    assert (code, out) == (2, "")
    assert err == ("error: result is not a finite number "
                   "(lengths or areas beyond the float range)\n")


# Payload-shaped values: str keys, lists, tuples, floats at the edges of the
# range, ints past 64 bits, and strings with non-ASCII and control characters.
JSON_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(-(10**30), 10**30),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from((0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1.7e308, -1.7976931348623157e308)),
    st.text(), st.text(alphabet=st.characters(max_codepoint=0x9f)),
)
JSON_VALUES = st.recursive(
    JSON_LEAVES,
    lambda children: st.one_of(st.lists(children, max_size=4), st.lists(children, max_size=4).map(tuple),
                               st.dictionaries(st.text(), children, max_size=4)),
    max_leaves=25,
)


@settings(max_examples=500, deadline=None)
@given(JSON_VALUES)
def test_json_writer_matches_json_dumps(value):
    assert cli._json(value) == json.dumps(value, indent=2, allow_nan=False)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from((math.nan, math.inf, -math.inf)), st.data())
def test_json_writer_refuses_non_finite_at_any_depth(bad, data):
    value = bad
    for _ in range(data.draw(st.integers(1, 4))):
        siblings = data.draw(st.lists(JSON_VALUES, max_size=3))
        siblings.insert(data.draw(st.integers(0, len(siblings))), value)
        kind = data.draw(st.sampled_from((list, tuple, dict)))
        value = {f"k{i}": item for i, item in enumerate(siblings)} if kind is dict else kind(siblings)
    with pytest.raises(ValueError):
        json.dumps(value, allow_nan=False)
    with pytest.raises(ValueError, match="result is not a finite number"):
        cli._json(value)


def test_json_writer_refuses_other_types():
    for value in ({1, 2}, b"ab", {"a": object()}, [1.5, {"b": range(2)}], {1: 2}):
        with pytest.raises(TypeError):
            cli._json(value)


def test_each_format_does_only_its_own_work(capsys, monkeypatch):
    """A JSON request formats no table cell, and a table request writes no JSON."""
    calls = {"_fmt": 0, "_json": 0}
    for name in calls:
        def counting(*args, name=name, real=getattr(cli, name)):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(cli, name, counting)
    for argv, name in [(["min"], "partition_square_triangle.json"),
                       (["max", "--paper-face-max"], "partition_square_triangle.json"),
                       (["bounds"], "bounds_three_shapes.json"),
                       (["allocate"], "allocation_two_wires.json"),
                       (["verify"], "partition_square_triangle.json")]:
        for output in ("table", "json"):
            calls.update(_fmt=0, _json=0)
            code, out, _ = run(capsys, *argv, "--file", str(PROBLEMS / name), "--format", output)
            assert code == 0 and out
            if output == "json":
                assert calls["_fmt"] == 0 and calls["_json"] > 0, argv
            else:
                assert calls["_json"] == 0 and (calls["_fmt"] > 0 or argv == ["verify"]), argv


@pytest.mark.parametrize("resolution", ["0", "1"])
def test_verify_bad_resolution_exits_2(capsys, resolution):
    code, _, err = run(
        capsys,
        "verify",
        "--file", str(PROBLEMS / "partition_square_triangle.json"),
        "--resolution", resolution,
    )
    assert code == 2
    assert "resolution" in err


@pytest.mark.parametrize("name", ["bounds_three_shapes.json", "allocation_two_wires.json"])
def test_verify_resolution_on_non_partition_file_exits_2(capsys, name):
    code, out, err = run(capsys, "verify", "--file", str(PROBLEMS / name), "--resolution", "3")
    assert code == 2
    assert out == ""
    assert "resolution" in err


def test_verify_non_finite_lattice_exits_2(capsys, tmp_path):
    problem_file = tmp_path / "huge.json"
    problem_file.write_text(json.dumps({"mode": "partition", "length": 1e200, "shapes": [3, 4]}))
    for output in ("table", "json"):
        code, out, err = run(capsys, "verify", "--file", str(problem_file), "--format", output)
        assert code == 2
        assert out == ""
        assert "error: total area overflows a float" in err


@pytest.mark.parametrize("length", [1e-200, 1e-160, 1e-150])
def test_verify_underflowing_partition_exits_2(capsys, tmp_path, length):
    problem_file = tmp_path / "tiny.json"
    problem_file.write_text(json.dumps({"mode": "partition", "length": length, "shapes": [3, 4, 5]}))
    for output in ("table", "json"):
        code, out, err = run(capsys, "verify", "--file", str(problem_file), "--format", output)
        assert code == 2
        assert out == ""
        assert "error: areas underflow: lengths below the float range" in err


@pytest.mark.parametrize("lengths, code", [([1e-170, 1e-170], 2), ([1e-150, 1e-150], 0),
                                           ([1.0, 1e-170], 0)])
def test_verify_allocation_underflow_exits_2(capsys, tmp_path, lengths, code):
    problem_file = tmp_path / "tiny.json"
    problem_file.write_text(json.dumps({"mode": "allocation", "lengths": lengths,
                                        "side_budget": 20}))
    got, out, err = run(capsys, "verify", "--file", str(problem_file))
    assert got == code
    if code == 2:
        assert out == ""
        assert "error: areas underflow: lengths below the float range" in err


def test_bounds_json_result_keys_and_domain(capsys):
    code, out, _ = run(capsys, "bounds", "--length", "10", "--shapes", "4,3,circle", "--area", "5",
                       "--sense", "upper", "--format", "json")
    assert code == 0
    result = json.loads(out)["result"]
    assert list(result) == ["domain", "roots", "intervals", "a_low", "a_high", "l_low", "l_high",
                            "x_hat"]
    assert result["domain"] == [0.0, 5.0]


def test_non_numeric_inline_length_exits_2(capsys):
    code, _, err = run(capsys, "allocate", "--lengths", "1,x", "--budget", "9")
    assert code == 2
    assert "error:" in err


def test_comma_string_in_file_exits_2(capsys, tmp_path):
    problem_file = tmp_path / "p.json"
    for data, command in (
        ({"mode": "partition", "length": 12, "shapes": "3,4"}, "min"),
        ({"mode": "partition", "length": 12, "shapes": "3,4"}, "verify"),
        ({"mode": "allocation", "lengths": "1,2", "side_budget": 9}, "allocate"),
    ):
        problem_file.write_text(json.dumps(data))
        code, _, err = run(capsys, command, "--file", str(problem_file))
        assert code == 2, data
        assert "must be a list" in err


def test_solvers_and_parser_are_module_globals(capsys, monkeypatch):
    """perfbench swaps solvers through wirecut.cli's globals and times build_parser."""
    real = cli.minimize_partition
    monkeypatch.setattr(
        cli, "minimize_partition", lambda problem: replace(real(problem), total_area=123.5)
    )
    code, out, _ = run(capsys, "min", "--length", "12", "--shapes", "4,3", "--format", "json")
    assert code == 0
    assert json.loads(out)["result"]["total_area"] == 123.5
    assert callable(cli.build_parser)


def test_parser_reuse_keeps_no_state_between_calls(capsys):
    code, out, _ = run(
        capsys, "max", "--length", "12", "--shapes", "4,3", "--paper-face-max", "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["result"]["kind"] == "face-stationary"
    code, out, _ = run(capsys, "max", "--length", "12", "--shapes", "4,3")
    assert code == 0
    assert "vertex-maximum" in out and not out.startswith("{")

    code, out, _ = run(capsys, "verify", "--file", str(PROBLEMS / "allocation_two_wires.json"))
    assert code == 0
    code, out, _ = run(capsys, "min", "--length", "12", "--shapes", "4,3", "--format", "json")
    assert code == 0
    assert json.loads(out)["problem"] == {"mode": "partition", "length": 12.0, "shapes": [4, 3]}

    with pytest.raises(SystemExit) as exc:
        main(["min", "--length", "12", "--shapes", "4,3", "--budget", "9"])
    assert exc.value.code == 2
    capsys.readouterr()
    code, out, err = run(capsys, "min", "--length", "12", "--shapes", "4,3")
    assert code == 0
    assert "3.915" in out and err == ""


def test_main_builds_the_parser_once(capsys, monkeypatch):
    built = []
    build = cli.build_parser

    def counting_build():
        built.append(1)
        return build()

    monkeypatch.setattr(cli, "_parser", None)
    monkeypatch.setattr(cli, "build_parser", counting_build)
    for _ in range(3):
        code, _, _ = run(capsys, "min", "--length", "12", "--shapes", "4,3")
        assert code == 0
    assert len(built) == 1


@pytest.mark.parametrize("argv", [
    ["allocate", "--lengths", "1,2", "--budget", "9", "--shapes", "3,4"],
    ["min", "--length", "12", "--shapes", "4,3", "--budget", "9"],
    ["min", "--length", "12", "--shapes", "4,3", "--paper-face-max"],
    ["bounds", "--length", "10", "--shapes", "4,3", "--area", "5", "--sense", "lower",
     "--resolution", "10"],
    ["verify", "--file", str(PROBLEMS / "partition_square_triangle.json"), "--length", "12"],
    ["verify"],
], ids=["allocate-shapes", "min-budget", "min-paper-face-max", "bounds-resolution",
        "verify-length", "verify-no-file"])
def test_foreign_flag_exits_through_argparse(capsys, argv):
    """The subcommand's own parser rejects the flag, with its usage."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage: wirecut" in err
    assert err.startswith(f"usage: wirecut {argv[0]} ")
    assert f"\nwirecut {argv[0]}: error: " in err


def test_subcommand_parser_matches_the_full_parser():
    """main parses with the subcommand's parser alone; it must read every
    request as the full tree does: inline flags, --file, abbreviations."""
    square = str(PROBLEMS / "partition_square_triangle.json")
    bounds = str(PROBLEMS / "bounds_three_shapes.json")
    wires = str(PROBLEMS / "allocation_two_wires.json")
    corpus = [
        ["min", "--length", "12", "--shapes", "4,3"],
        ["min", "--len", "12", "--sha", "4,3,circle"],
        ["min", "--file", square],
        ["min", "--file", square, "--length", "9"],
        ["max", "--length", "12", "--shapes", "4,3"],
        ["max", "--file", square, "--paper-face-max"],
        ["max", "--len=12", "--shapes=4,3", "--paper"],
        ["bounds", "--length", "10", "--shapes", "4,3,circle", "--area", "5", "--sense", "lower"],
        ["bounds", "--file", bounds, "--sense", "upper"],
        ["bounds", "--len", "10", "--sh", "4,3", "--ar", "5", "--se", "upper"],
        ["allocate", "--lengths", "1,2", "--budget", "9"],
        ["allocate", "--len", "1,2", "--bud", "9"],
        ["allocate", "--file", wires, "--budget", "12"],
        ["verify", "--file", square],
        ["verify", "--file", square, "--resolution", "30"],
        ["verify", "--fi", bounds, "--res", "7"],
        ["verify", "--file", wires],
    ]
    parser = cli.build_parser()
    for fmt in ([], ["--format", "table"], ["--format", "json"], ["--form", "json"]):
        for argv in corpus:
            argv = argv + fmt
            dispatched = parser.commands[argv[0]].parse_args(argv[1:])
            assert vars(dispatched) == vars(parser.parse_args(argv)), argv
            assert dispatched.command == argv[0]


# Every subcommand's flags, abbreviations, --flag=value spellings, values that
# start with "-" or that argparse reads in its own way, choices and bad values.
ARGV_TOKENS = (*cli._FLAGS, "--file", "--len", "--sha", "--ar", "--se", "--bud", "--paper",
               "--res", "--form", "--fi", "--length=12", "--format=json", "--file=" + SQUARE,
               "-12", "-1e3", "nan", "inf", "", " 7", "--", "-h", "--help", "-x", "lower",
               "upper", "table", "json", "sideways", "12", "9", "1.5", "4,3", "x", SQUARE)
# Mostly flag-value pairs, so that the reader takes a fair share of the lists.
ARGV = st.lists(st.one_of(st.tuples(st.sampled_from((*cli._FLAGS, "--file")),
                                    st.sampled_from(ARGV_TOKENS)),
                          st.tuples(st.sampled_from(ARGV_TOKENS))),
                max_size=5).map(lambda groups: [token for group in groups for token in group])
PARSER = cli.build_parser()


@settings(max_examples=500, deadline=None)
@given(st.sampled_from(list(cli._COMMANDS)), ARGV)
def test_plain_reader_matches_argparse(command, argv):
    """Where the plain-argv reader takes argv, its Namespace is argparse's,
    compared by repr since NaN != NaN."""
    plain = cli._plain(argv, *PARSER.plain[command])
    if plain is not None:
        parsed = PARSER.commands[command].parse_args(argv)
        assert repr(vars(plain)) == repr(vars(parsed))


def count_parse_args(monkeypatch):
    """The argv of every ArgumentParser.parse_args call from now on."""
    calls = []
    parse_args = argparse.ArgumentParser.parse_args

    def counting(self, args=None, namespace=None):
        calls.append(list(args))
        return parse_args(self, args, namespace)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", counting)
    return calls


def run_or_exit(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_benchmark_shaped_argv_skips_argparse(capsys, monkeypatch):
    bounds = str(PROBLEMS / "bounds_three_shapes.json")
    wires = str(PROBLEMS / "allocation_two_wires.json")
    corpus = [
        ["min", "--length", "12.5", "--shapes", "4,3,circle"],
        ["min", "--file", SQUARE],
        ["max", "--length", "12.5", "--shapes", "4,3", "--paper-face-max"],
        ["max", "--file", SQUARE],
        ["bounds", "--length", "10.0", "--shapes", "4,3,circle", "--area", "5.0",
         "--sense", "lower"],
        ["bounds", "--file", bounds],
        ["allocate", "--lengths", "1.0,2.0", "--budget", "9"],
        ["allocate", "--file", wires],
        ["verify", "--file", SQUARE, "--resolution", "60"],
    ]
    calls = count_parse_args(monkeypatch)
    for argv in corpus:
        for fmt in ("table", "json"):
            code, out, err = run_or_exit(capsys, argv + ["--format", fmt])
            assert (code, err) == (0, ""), argv
            assert out
    assert calls == []


@pytest.mark.parametrize("argv, code, text", [
    (["min", "--len", "12", "--shapes", "4,3"], 0, "   total     12.000      3.915\n"),
    (["min", "--length=12", "--shapes", "4,3"], 0, "   total     12.000      3.915\n"),
    (["min", "--length", "-12", "--shapes", "4,3"], 2,
     "error: total length must be a positive finite number, got -12.0\n"),
    (["bounds", "--length", "10", "--shapes", "4,3", "--area", "5", "--sense", "sideways"], 2,
     "wirecut bounds: error: argument --sense: invalid choice: 'sideways'"),
    (["verify"], 2, "wirecut verify: error: the following arguments are required: --file\n"),
    (["min", "--length", "12", "--shapes", "4,3", "--budget", "9"], 2,
     "wirecut min: error: unrecognized arguments: --budget 9\n"),
], ids=["abbreviation", "flag=value", "negative-value", "bad-choice", "verify-no-file",
        "foreign-flag"])
def test_declined_argv_reaches_argparse(capsys, monkeypatch, argv, code, text):
    calls = count_parse_args(monkeypatch)
    got, out, err = run_or_exit(capsys, argv)
    assert calls == [argv[1:]]
    assert got == code
    assert text in (out if code == 0 else err)


@pytest.mark.parametrize("argv, code, stream, text", [
    ([], 2, "err", "wirecut: error: the following arguments are required: command"),
    (["nosuch"], 2, "err", "wirecut: error: argument command: invalid choice: 'nosuch'"),
    (["--help"], 0, "out", "usage: wirecut [-h] {min,max,bounds,allocate,verify} ..."),
    (["-h", "min"], 0, "out", "usage: wirecut [-h] {min,max,bounds,allocate,verify} ..."),
], ids=["no-arguments", "unknown-command", "help", "help-before-command"])
def test_top_level_parser_handles_the_rest(capsys, argv, code, stream, text):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == code
    captured = capsys.readouterr()
    assert text in (captured.err if stream == "err" else captured.out)


@pytest.mark.parametrize("command, content, text", [
    ("min", "{not json", "problem file is not valid JSON"),
    ("verify", '{"mode": "spiral"}', "unknown problem mode 'spiral'"),
    ("min", None, "cannot read problem file"),
    ("min", "[1, 2]", "problem file must hold a JSON object"),
    ("verify", "[" * 200_000, "problem file is not valid JSON"),
    ("verify", '{"mode": ["partition"]}', "unknown problem mode ['partition']"),
    ("verify", '{"mode": {"a": 1}}', "unknown problem mode {'a': 1}"),
], ids=["not-json", "unknown-mode", "missing-file", "not-an-object", "nested-too-deep",
        "list-mode", "object-mode"])
def test_malformed_json_exits_2(capsys, tmp_path, command, content, text):
    problem_file = tmp_path / "broken.json"
    if content is not None:
        problem_file.write_text(content)
    code, _, err = run(capsys, command, "--file", str(problem_file))
    assert code == 2
    assert text in err


def test_console_script_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "wirecut.cli", "min", "--length", "12", "--shapes", "4,3"],
        capture_output=True,
        text=True,
        check=False,
    )
    assert result.returncode == 0
    assert "3.915" in result.stdout
