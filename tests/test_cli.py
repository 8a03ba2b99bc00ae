import cProfile
import json
import os
import pstats
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import data_path, wheel_graph
from oracles import stdlib_json_bytes
from zonoharm import cli
from zonoharm.arrangement import enumerate_cocircuits
from zonoharm.cli import main
from zonoharm.formats import serialize_graph
from zonoharm.report import to_json_bytes


def run_cli(*args, hash_seed=None):
    """Run the CLI in a fresh interpreter, under ``PYTHONHASHSEED=hash_seed`` if given."""
    env = None if hash_seed is None else dict(os.environ, PYTHONHASHSEED=hash_seed)
    proc = subprocess.run(
        [sys.executable, "-m", "zonoharm", *args],
        capture_output=True,
        timeout=300,
        env=env,
    )
    return proc.returncode, proc.stdout, proc.stderr


class TestAnalyzeGraph:
    def test_house(self, capsys):
        code = main(["analyze-graph", str(data_path("house.graph")), "--json"])
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert report["grDims"] == [1, 2, 2, 1]
        assert report["qDims"] == [1, 3, 5, 6]
        assert report["graph"]["su2Poincare"] == [1, 2, 2, 1]
        assert report["pass"] is True

    def test_four_cycle(self, capsys):
        code = main(["analyze-graph", str(data_path("cycle4.graph")), "--json"])
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert report["grDims"] == [1, 1, 1]
        assert report["interiorPoints"] == [[1], [2], [3]]

    def test_self_loop_vacuous_pass(self, capsys):
        code = main(["analyze-graph", str(data_path("selfloop.graph")), "--json"])
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert report["pointCount"] == 0
        assert report["izHilbert"] == []
        assert report["pass"] is True

    def test_wheel_six(self, capsys, tmp_path):
        path = tmp_path / "wheel6.graph"
        path.write_text(serialize_graph(wheel_graph(6)))
        code = main(["analyze-graph", str(path), "--json"])
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert report["pass"] is True
        assert report["pointCount"] == 62
        assert report["grDims"] == [1, 6, 15, 20, 15, 5]

    def test_parse_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.graph"
        bad.write_text("vertex a\narrow 1 a z\n")
        assert main(["analyze-graph", str(bad)]) == 2

    def test_missing_file(self):
        assert main(["analyze-graph", "/nonexistent/file.graph"]) == 2


class TestAnalyzeArrangement:
    def test_house_matches_graph_route(self, capsys):
        code = main(["analyze-arrangement", str(data_path("house.arr")), "--json"])
        arr_report = json.loads(capsys.readouterr().out)
        assert code == 0
        code = main(["analyze-graph", str(data_path("house.graph")), "--json"])
        graph_report = json.loads(capsys.readouterr().out)
        assert code == 0
        for key in ("pointCount", "qDims", "grDims", "saturationIndices", "izHilbert", "topDegree"):
            assert arr_report[key] == graph_report[key]
        assert arr_report["interiorPoints"] == [
            [1, 1], [1, 2], [2, 1], [2, 2], [3, 1], [3, 2]
        ]
        pairs = {(c["dPlus"], c["dMinus"]) for c in arr_report["cocircuits"]}
        assert pairs == {(3, 0), (4, 0), (3, 2)}

    def test_all_ones_cycle_numbers(self, capsys, tmp_path):
        f = tmp_path / "cycle6.arr"
        f.write_text("rank 1\n" + "".join(f"col a{i} 1\n" for i in range(6)))
        code = main(["analyze-arrangement", str(f), "--json"])
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert report["grDims"] == [1, 1, 1, 1, 1]
        assert report["interiorPoints"] == [[1], [2], [3], [4], [5]]

    def test_non_tu_exits_five(self, tmp_path, capsys):
        f = tmp_path / "bad.arr"
        f.write_text("rank 1\ncol a 2\n")
        code, out, err = run_cli("analyze-arrangement", str(f))
        assert code == 5
        assert b"determinant 2" in err

    def test_sheared_house_matches_house(self, capsys, tmp_path):
        # (x, y) -> (x + y, y) takes house.arr to columns that are not TU as
        # written; every basis still has determinant +-1
        f = tmp_path / "sheared.arr"
        f.write_text(
            "rank 2\n"
            + "".join(f"col e{i} 1 0\n" for i in (1, 2, 3))
            + "col e4 2 1\ncol e5 1 1\ncol e6 1 1\n"
        )
        code = main(["analyze-arrangement", str(f), "--json"])
        sheared = json.loads(capsys.readouterr().out)
        assert code == 0
        assert sheared["arrangement"]["totallyUnimodular"] is True
        assert main(["analyze-arrangement", str(data_path("house.arr")), "--json"]) == 0
        house = json.loads(capsys.readouterr().out)
        for key in ("pointCount", "qDims", "grDims", "saturationIndices", "izHilbert", "topDegree"):
            assert sheared[key] == house[key]
        signs = [sorted((c["dPlus"], c["dMinus"]) for c in r["cocircuits"]) for r in (sheared, house)]
        assert signs[0] == signs[1]

    def test_thirteen_columns_pass(self, tmp_path, capsys):
        f = tmp_path / "big.arr"
        f.write_text("rank 1\n" + "".join(f"col a{i} 1\n" for i in range(13)))
        code = main(["analyze-arrangement", str(f), "--json"])
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert report["arrangement"]["totallyUnimodular"] is True
        assert report["grDims"] == [1] * 12

    def test_thirteen_twos_exit_five(self, tmp_path):
        f = tmp_path / "twos.arr"
        f.write_text("rank 1\n" + "".join(f"col a{i} 2\n" for i in range(13)))
        assert main(["analyze-arrangement", str(f)]) == 5

    def test_size_cap_exits_before_cocircuits(self, tmp_path):
        # a rank-10 network matrix with 21 columns: the identity plus 11
        # interval columns, past the Tutte polynomial's 20-column cap
        intervals = [(i, i + 1) for i in range(9)] + [(0, 9), (2, 6)]
        cols = [[int(i == j) for i in range(10)] for j in range(10)]
        cols += [[int(lo <= i <= hi) for i in range(10)] for lo, hi in intervals]
        f = tmp_path / "network.arr"
        f.write_text(
            "rank 10\n" + "".join(f"col a{j} {' '.join(map(str, c))}\n" for j, c in enumerate(cols))
        )
        prof = cProfile.Profile()
        assert prof.runcall(main, ["analyze-arrangement", str(f)]) == 3
        code = enumerate_cocircuits.__code__
        key = (code.co_filename, code.co_firstlineno, code.co_name)
        assert key not in pstats.Stats(prof).stats


class TestBadInput:
    """Each exits 2 with a one-line message, not a traceback or a silent result."""

    @pytest.mark.parametrize(
        "args, message",
        [
            (["analyze-graph", "{latin1}"], "not UTF-8"),
            (["random-suite", "--max-edges", "0"], "at least 1 edge"),
            (["random-suite", "--count", "-3"], "non-negative count"),
        ],
        ids=["non-utf8", "max-edges-zero", "negative-count"],
    )
    def test_exits_two_with_one_line(self, capsys, tmp_path, args, message):
        latin1 = tmp_path / "latin1.graph"
        latin1.write_bytes("vertex caf\xe9\n".encode("latin-1"))
        args = [a.format(latin1=latin1) for a in args]
        assert main(args) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1 and message in err


class TestRandomSuite:
    def test_fifty_instances_pass(self, capsys):
        code = main(["random-suite", "--seed", "1", "--count", "50", "--max-edges", "7", "--json"])
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert report["passes"] == 50
        assert report["failures"] == 0
        assert report["firstFailure"] is None

    def test_count_zero(self, capsys):
        code = main(["random-suite", "--count", "0", "--json"])
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert report["passes"] == 0

    def test_max_edges_cap(self):
        assert main(["random-suite", "--max-edges", "10"]) == 3


class TestDeterminism:
    # two fixed hash seeds, so that output that follows set order shows every time
    def test_byte_identical_json_reports(self):
        a = run_cli("analyze-graph", str(data_path("house.graph")), "--json", hash_seed="0")
        b = run_cli("analyze-graph", str(data_path("house.graph")), "--json", hash_seed="1")
        assert a[0] == b[0] == 0
        assert a[1] == b[1]

    def test_byte_identical_suite(self):
        a = run_cli("random-suite", "--seed", "7", "--count", "5", "--json", hash_seed="0")
        b = run_cli("random-suite", "--seed", "7", "--count", "5", "--json", hash_seed="1")
        assert a[0] == b[0] == 0
        assert a[1] == b[1]

    def test_text_and_json_share_numbers(self, capsys):
        main(["analyze-graph", str(data_path("house.graph"))])
        text = capsys.readouterr().out
        main(["analyze-graph", str(data_path("house.graph")), "--json"])
        report = json.loads(capsys.readouterr().out)
        assert f"qDims            : {report['qDims']}" in text
        assert f"grDims           : {report['grDims']}" in text
        assert f"interior points ({report['pointCount']})" in text


class TestJsonEncoding:
    def test_big_integers_become_strings(self):
        payload = json.loads(to_json_bytes({"a": 2**60, "b": [2**53 - 1, -(2**54)], "c": True}))
        assert payload == {"a": str(2**60), "b": [2**53 - 1, str(-(2**54))], "c": True}

    @given(
        st.recursive(
            st.none()
            | st.booleans()
            | st.integers(-(2**53) - 2, -(2**53) + 2)
            | st.integers(2**53 - 2, 2**53 + 2)
            | st.integers(-(2**70), 2**70)
            | st.text(alphabet=st.characters(codec="utf-8") | st.sampled_from('"\\\n\t\x00\x1f\x7f')),
            lambda kids: st.lists(kids, max_size=4)
            | st.lists(kids, max_size=4).map(tuple)
            | st.dictionaries(st.text(max_size=4), kids, max_size=4),
            max_leaves=20,
        )
    )
    def test_writer_equals_the_stdlib_encoder(self, value):
        assert to_json_bytes(value) == stdlib_json_bytes(value)

    @pytest.mark.parametrize("value", [1.5, [0, 2.0], {"a": {"b": float("nan")}}, {1: "a"}, b"a"])
    def test_floats_and_other_types_raise(self, value):
        with pytest.raises(TypeError):
            to_json_bytes(value)

    def test_json_bytes_stable_key_order(self):
        blob = to_json_bytes({"z": 1, "a": 2})
        assert blob.index(b'"z"') < blob.index(b'"a"')

    def test_report_roundtrips_losslessly(self, capsys):
        main(["analyze-graph", str(data_path("house.graph")), "--json"])
        report = json.loads(capsys.readouterr().out)
        assert json.loads(to_json_bytes(report)) == report


class TestMaxDegree:
    """The filtration has no degree cap: the option is gone, and the schema-1
    key ``truncated`` is always false."""

    def test_option_is_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["analyze-graph", str(data_path("house.graph")), "--max-degree", "1"])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and "unrecognized arguments: --max-degree 1" in err

    def test_report_is_never_truncated(self, capsys):
        code = main(["analyze-graph", str(data_path("house.graph")), "--json"])
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert report["truncated"] is False
        assert report["qDims"][-1] == report["pointCount"]


HOUSE = str(data_path("house.graph"))


class TestArguments:
    """The parser accepts and rejects what the argparse parser it replaced did:
    each row's exit code and the emptiness of stdout and stderr were
    captured from that parser."""

    @pytest.mark.parametrize(
        "args, code, out, err",
        [
            (["--help"], 0, True, False),
            (["analyze-graph", "--help"], 0, True, False),
            (["random-suite", "-h"], 0, True, False),
            ([], 2, False, True),
            (["bogus"], 2, False, True),
            (["analyze-graph"], 2, False, True),
            (["analyze-graph", HOUSE, str(data_path("cycle4.graph"))], 2, False, True),
            (["analyze-graph", "--json", HOUSE], 0, True, False),
            (["random-suite", "--seed=3", "--count", "1"], 0, True, False),
            (["random-suite", "--max", "5", "--count", "1"], 0, True, False),
            (["random-suite", "--count", "x"], 2, False, True),
            (["random-suite", "--count", "-3"], 2, False, True),
            (["analyze-graph", HOUSE, "--max-degree", "1"], 2, False, True),
            (["analyze-graph", "--", HOUSE], 0, True, False),
            (["random-suite", "--count"], 2, False, True),
            (["random-suite", "--json=1"], 2, False, True),
            (["random-suite", "--"], 2, False, True),
            (["analyze-graph", HOUSE, "--json", "--"], 2, False, True),
            (["-hh"], 0, True, False),
            (["random-suite", "--=5", "-h"], 2, False, True),
        ],
        ids=[
            "help", "subcommand-help", "short-help", "no-arguments", "unknown-subcommand",
            "missing-path", "two-paths", "json-before-path", "equals-value", "prefix",
            "non-integer", "negative-count", "unknown-option", "dashes-before-path",
            "missing-value", "flag-with-value", "dashes-without-path", "dashes-apart-from-path",
            "help-cluster", "ambiguous-before-help",
        ],
    )
    def test_same_outcome_as_argparse(self, args, code, out, err):
        got = run_cli(*args)
        assert (got[0], bool(got[1]), bool(got[2])) == (code, out, err), got[2]

    @pytest.mark.parametrize(
        "args, values",
        [
            (["random-suite"], dict(seed=1, count=50, max_edges=7, json=False)),
            (
                ["random-suite", "--j", "--s", "-4", "--co=0", "--max-e", "9", "--seed", "+5"],
                dict(seed=5, count=0, max_edges=9, json=True),
            ),
            (["analyze-graph", "--js", "--", "--json"], dict(path="--json", json=True)),
            (["analyze-arrangement", "-", "--json"], dict(path="-", json=True)),
            (["analyze-graph", "-1.5"], dict(path="-1.5", json=False)),
            (["analyze-graph", "-a --json"], dict(path="-a --json", json=False)),
            (["analyze-graph", "a", "--"], dict(path="a", json=False)),
        ],
        ids=[
            "defaults", "prefixes-and-last-wins", "dashes", "stdin-dash", "negative-number",
            "space", "dashes-after-path",
        ],
    )
    def test_values(self, args, values):
        assert cli._parse(args)[1] == values

    @pytest.mark.parametrize(
        "args, usage, error",
        [
            (
                ["bogus"],
                "analyze-graph PATH [--json]",
                "zonoharm: error: argument command: invalid choice: 'bogus'"
                " (choose from 'analyze-graph', 'analyze-arrangement', 'random-suite')",
            ),
            (
                ["analyze-graph"],
                "analyze-graph PATH [--json]",
                "zonoharm analyze-graph: error: the following arguments are required: path",
            ),
            (
                ["random-suite", "--count", "x"],
                "random-suite [--seed N] [--count N] [--max-edges N] [--json]",
                "zonoharm random-suite: error: argument --count: invalid int value: 'x'",
            ),
            (
                ["random-suite", "--seed", "--json"],
                "random-suite [--seed N] [--count N] [--max-edges N] [--json]",
                "zonoharm random-suite: error: argument --seed: expected one argument",
            ),
            (
                ["-x", "random-suite", "1", "--y"],
                "analyze-graph PATH [--json]",
                "zonoharm: error: unrecognized arguments: -x 1 --y",
            ),
            (
                ["analyze-graph", "-hx"],
                "analyze-graph PATH [--json]",
                "zonoharm analyze-graph: error: argument -h/--help: ignored explicit argument 'x'",
            ),
            (
                ["--"],
                "analyze-graph PATH [--json]",
                "zonoharm: error: the following arguments are required: command",
            ),
        ],
        ids=[
            "unknown-subcommand", "missing-path", "non-integer", "missing-value", "unrecognized",
            "help-with-text", "dashes-only",
        ],
    )
    def test_usage_errors_exit_two(self, capsys, args, usage, error):
        # argparse's wording, after the subcommand's usage line, or after
        # every subcommand's for an error outside one
        with pytest.raises(SystemExit) as exc:
            main(args)
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        lines = err.splitlines()
        assert out == "" and lines[0] == "usage: zonoharm " + usage and lines[-1] == error

    def test_help_is_the_module_docstring(self, capsys):
        for args in (["-h"], ["--he"], ["random-suite", "--count", "3", "--help"]):
            with pytest.raises(SystemExit) as exc:
                main(args)
            assert exc.value.code == 0
            assert capsys.readouterr() == (cli.__doc__, "")
        # the docstring's usage block is the one that usage errors print
        assert cli._usage() in cli.__doc__


def run_python(script: str):
    """Run ``script`` in a fresh interpreter that imports zonoharm from src."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
    )


class TestImports:
    def test_cli_needs_only_the_standard_library(self):
        # a fresh interpreter: every module that importing the CLI adds is
        # part of zonoharm or of the standard library, and exact arithmetic
        # needs no fractions
        script = (
            "import sys\n"
            "before = set(sys.modules)\n"
            "import zonoharm.cli\n"
            "print(*sorted(set(sys.modules) - before))\n"
        )
        proc = run_python(script)
        assert proc.returncode == 0, proc.stderr
        added = proc.stdout.split()
        assert "zonoharm.cli" in added
        tops = {name.split(".")[0] for name in added}
        assert sorted(tops - {"zonoharm"} - sys.stdlib_module_names) == []
        assert "fractions" not in added

    def test_start_up_loads_no_dataclasses_and_no_suite(self):
        # every CLI call pays for what importing the CLI loads: not
        # dataclasses (with inspect, ast and dis behind it), not the json
        # package, whose indented output is pure Python anyway, and not the
        # random suite, which only its subcommand imports.  The suite module
        # is then imported too, so no module of the package may load them.
        # A fresh interpreter, since pytest itself loads dataclasses; only
        # what the imports add counts, as some interpreters' site hooks load
        # inspect before any user code runs.
        script = (
            "import sys\n"
            "before = set(sys.modules)\n"
            "import zonoharm.cli\n"
            "added = set(sys.modules) - before\n"
            "print(*sorted(added & {'dataclasses', 'inspect', 'json', 'zonoharm.verification'}))\n"
            "import zonoharm.verification\n"
            "added = set(sys.modules) - before\n"
            "print(*sorted(added & {'dataclasses', 'inspect'}))\n"
        )
        proc = run_python(script)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["", ""]

    def test_cli_import_stops_below_the_analysis_context(self):
        # the handlers import the report, and with it the analysis context:
        # importing the CLI, which a library call may do as well, compiles
        # the layers below them only
        script = (
            "import sys\n"
            "before = set(sys.modules)\n"
            "import zonoharm.cli\n"
            "print(*sorted(set(sys.modules) - before))\n"
        )
        proc = run_python(script)
        assert proc.returncode == 0, proc.stderr
        added = set(proc.stdout.split())
        assert {"zonoharm.harmonics", "zonoharm.formats"} <= added
        assert sorted(added & {"zonoharm.analysis", "zonoharm.report", "zonoharm.verification"}) == []

    def test_redundant_generators_loads_no_analysis_context(self):
        # the ideal layer wires its cocircuits and Tutte bound itself
        graph = serialize_graph(wheel_graph(5))
        script = (
            "import sys\n"
            "before = set(sys.modules)\n"
            "import zonoharm\n"
            "from zonoharm.formats import parse_graph\n"
            f"va = zonoharm.cographical_arrangement(parse_graph({graph!r}))\n"
            "print(len(zonoharm.redundant_generators(va)))\n"
            "print(*sorted((set(sys.modules) - before) & {'zonoharm.analysis', 'zonoharm.report'}))\n"
        )
        proc = run_python(script)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["15", ""]

    def test_no_call_imports_an_argument_parser(self):
        # argparse, with gettext and locale behind it, costs every call a few
        # milliseconds of a start-up that the report is now the smaller part of
        script = (
            "import sys\n"
            "before = set(sys.modules)\n"
            "import zonoharm.cli\n"
            f"assert zonoharm.cli.main(['analyze-graph', {HOUSE!r}, '--json']) == 0\n"
            "assert zonoharm.cli.main(['random-suite', '--count', '1', '--json']) == 0\n"
            "parsers = {'argparse', 'getopt', 'optparse', 'gettext', 'locale'}\n"
            "sys.stderr.write(repr(sorted((set(sys.modules) - before) & parsers)))\n"
        )
        proc = run_python(script)  # the reports go to stdout, the check to stderr
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == "[]"
