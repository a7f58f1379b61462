"""Command-line verbs, frozen outputs, exit codes."""
from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import permpat
from permpat import VerificationReport, classical, mesh, parse_pattern_list
from permpat import cli, permutation
from permpat.cli import main
from permpat.patterns import _MAX_NESTING


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSort:
    def test_single_stack_pass(self, capsys):
        code, out, _ = run(capsys, "sort", "--op", "stack", "--passes", "1", "2341")
        assert (code, out) == (0, "2314\n")

    def test_bubble_pass(self, capsys):
        code, out, _ = run(capsys, "sort", "--op", "bubble", "521634")
        assert (code, out) == (0, "215346\n")

    def test_comma_form_round_trips(self, capsys):
        code, out, _ = run(capsys, "sort", "--op", "stack", "--passes", "1",
                           "10,9,8,7,6,5,4,3,2,1")
        assert (code, out) == (0, "1,2,3,4,5,6,7,8,9,10\n")

    def test_many_passes_reach_identity(self, capsys):
        code, out, _ = run(capsys, "sort", "--op", "stack", "--passes", "3", "2341")
        assert (code, out) == (0, "1234\n")

    def test_bad_permutation_is_a_usage_error(self, capsys):
        code, _, err = run(capsys, "sort", "--op", "stack", "13x2")
        assert code == 2 and err.startswith("error:")


class TestMatch:
    def test_count_is_the_default(self, capsys):
        code, out, _ = run(capsys, "match", "35241", "--inline", "132")
        assert (code, out) == (0, "1\n")

    def test_position_list(self, capsys):
        code, out, _ = run(capsys, "match", "35241", "--inline", "132", "--list")
        assert (code, out) == (0, "(1,2,4)\n")

    def test_mesh_shading_blocks_a_classical_occurrence(self, capsys):
        # 35241 holds classical 3241 at (1,3,4,5), but the point (2,5)
        # lands in the shaded box
        code, out, _ = run(capsys, "match", "35241", "--inline", "3241 | shade: (1,4)")
        assert (code, out) == (0, "0\n")

    def test_pattern_from_file(self, capsys, tmp_path):
        f = tmp_path / "pat.txt"
        f.write_text("# one mesh pattern\n3241 | shade: (1,4)\n")
        code, out, _ = run(capsys, "match", "3241", "--pattern", str(f), "--list")
        assert (code, out) == (0, "(1,2,3,4)\n")

    def test_file_must_hold_exactly_one_pattern(self, capsys, tmp_path):
        f = tmp_path / "two.txt"
        f.write_text("21\n321\n")
        code, _, err = run(capsys, "match", "1234", "--pattern", str(f))
        assert code == 2 and "exactly one" in err

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "match", "1234", "--pattern", str(tmp_path / "gone"))
        assert code == 2 and err.startswith("error:")

    def test_no_occurrences_prints_nothing_in_list_mode(self, capsys):
        code, out, _ = run(capsys, "match", "123", "--inline", "321", "--list")
        assert (code, out) == (0, "")

    def test_pattern_and_inline_exclusive(self, capsys):
        code, _, _ = run(capsys, "match", "123", "--inline", "21", "--pattern", "x")
        assert code == 2


class TestPreimage:
    def test_marked_basis_of_231(self, capsys):
        code, out, _ = run(capsys, "preimage", "231")
        assert code == 0
        assert out == ("231 | mark: {(2,3)} >= 1\n"
                       "321 | shade: (1,3) | mark: {(2,3)} >= 1\n")

    def test_rejected_candidates_are_commented(self, capsys):
        code, out, _ = run(capsys, "preimage", "132", "--show-rejected")
        assert code == 0
        assert out.splitlines() == [
            "# rejected: 321",
            "132 | mark: {(2,3)} >= 1",
            "312 | shade: (1,3) | mark: {(2,3)} >= 1",
        ]

    def test_expand_and_prune(self, capsys):
        code, out, _ = run(capsys, "preimage", "321", "--expand", "--prune", "6")
        assert code == 0
        assert out.splitlines() == [
            "34251", "35241", "45231", "# pruned: verified up to n=6"]

    def test_expand_without_prune_keeps_all(self, capsys):
        code, out, _ = run(capsys, "preimage", "21", "--expand")
        assert (code, out) == (0, "231\n")

    def test_non_classical_pattern_rejected(self, capsys):
        code, _, err = run(capsys, "preimage", "21 | shade: (0,0)")
        assert code == 2 and "classical" in err


class TestVerify:
    def test_builtin_pass_table(self, capsys):
        code, out, _ = run(capsys, "verify", "--builtin", "west2", "--upto", "5")
        assert code == 0
        assert out == ("  n       |Av| |preimage|  equal\n"
                       "  1          1          1  yes\n"
                       "  2          2          2  yes\n"
                       "  3          6          6  yes\n"
                       "  4         22         22  yes\n"
                       "  5         91         91  yes\n"
                       "PASS\n")

    def test_pattern_with_basis_file(self, capsys, tmp_path):
        f = tmp_path / "basis.txt"
        f.write_text("231\n")
        code, out, _ = run(capsys, "verify", "--pattern", "21", "--basis", str(f),
                           "--op", "stack", "--passes", "1", "--upto", "4")
        assert code == 0 and out.endswith("PASS\n")

    def test_failing_candidate_exits_one(self, capsys, tmp_path):
        f = tmp_path / "basis.txt"
        f.write_text("231\n312\n")
        code, out, _ = run(capsys, "verify", "--pattern", "21", "--basis", str(f),
                           "--upto", "5")
        assert code == 1
        assert out.splitlines()[-1] == "FAIL 312 image-good-but-contains-basis"

    def test_mark_of_many_points_compiles_at_once(self, capsys, tmp_path):
        # A mark that needs 80 points keeps its mark test, with no expansion
        # tried.  No host of length up to 3 holds 80 points, so each host
        # containing 231 reads as a bad image.
        f = tmp_path / "basis.txt"
        f.write_text("1 | mark: {(0,0)} >= 80\n")
        code, out, _ = run(capsys, "verify", "--pattern", "21", "--basis", str(f), "--upto", "3")
        assert code == 1
        assert out.splitlines()[-2:] == ["  3          6          5  NO", "FAIL 231 in-Av-but-bad-image"]

    def test_builtin_refuses_basis_file(self, capsys, tmp_path):
        f = tmp_path / "basis.txt"
        f.write_text("231\n")
        code, _, err = run(capsys, "verify", "--builtin", "west2",
                           "--basis", str(f), "--upto", "3")
        assert code == 2 and "--pattern" in err

    @pytest.mark.parametrize("flag,value", [("--op", "bubble"), ("--op", "stack"), ("--passes", "1")])
    def test_builtin_refuses_operator_and_pass_count(self, capsys, flag, value):
        # A fixture basis is exact only for its own operator and pass count.
        code, out, err = run(capsys, "verify", "--builtin", "west2", flag, value, "--upto", "3")
        assert code == 2 and out == ""
        assert err.startswith("error: ") and flag in err and "--pattern" in err

    def test_negative_pass_count_is_a_usage_error(self, capsys, tmp_path):
        f = tmp_path / "basis.txt"
        f.write_text("231\n")
        code, out, err = run(capsys, "verify", "--pattern", "21", "--basis", str(f),
                             "--passes", "-1", "--upto", "4")
        assert code == 2 and out == "" and "pass count" in err

    def test_pattern_requires_basis(self, capsys):
        code, _, err = run(capsys, "verify", "--pattern", "21", "--upto", "3")
        assert code == 2 and "--basis" in err

    def test_jobs_flag_changes_nothing(self, capsys):
        base = run(capsys, "verify", "--builtin", "bubble1243", "--upto", "5")
        four = run(capsys, "verify", "--builtin", "bubble1243", "--upto", "5",
                   "--jobs", "4")
        assert base == four and base[0] == 0


class TestCensus:
    def test_one_pass_stack(self, capsys):
        code, out, _ = run(capsys, "census", "--op", "stack", "--passes", "1",
                           "--upto", "5")
        assert code == 0
        assert out == "1 1\n2 2\n3 5\n4 14\n5 42\n"

    def test_bubble(self, capsys):
        code, out, _ = run(capsys, "census", "--op", "bubble", "--passes", "1",
                           "--upto", "4")
        assert code == 0
        assert out.splitlines()[-1] == "4 8"

    @pytest.mark.parametrize("upto", ["-3", "0"])
    def test_bound_below_one_is_a_usage_error(self, capsys, upto):
        code, out, err = run(capsys, "census", "--op", "stack", "--passes", "1",
                             "--upto", upto, "--jobs", "0")
        assert code == 2 and out == "" and "census bound" in err


class TestWorkLimit:
    """verify, census and preimage --prune refuse a bound whose estimate,
    n! summed over the lengths up to it times the patterns searched,
    exceeds the limit.  No test runs a refused bound: --force and the
    headline bounds are checked with the scan replaced."""

    @pytest.fixture
    def scans(self, monkeypatch):
        ran = []

        def stub(name, result):
            def scan(*args, **kwargs):
                ran.append(name)
                return result
            monkeypatch.setattr(cli, name, scan)

        stub("verify_preimage", VerificationReport("stack", 1, ((1, 1, 1, True),)))
        stub("census", 1)
        stub("prune_basis", (classical("21"),))
        return ran

    # west2 searches its two patterns and the image basis 21; the expanded
    # basis of 23451 has 14 patterns
    @pytest.mark.parametrize("argv, estimate", [
        (("verify", "--builtin", "west2", "--upto", "12"), "1,568,868,939"),
        (("verify", "--builtin", "west2", "--upto", "10"), "12,113,739"),
        (("census", "--op", "stack", "--passes", "2", "--upto", "11"), "43,954,713"),
        (("preimage", "23451", "--expand", "--prune", "10"), "56,530,782"),
    ], ids=["verify-12", "verify-10", "census-11", "prune-10"])
    def test_runaway_bound_is_refused(self, capsys, scans, argv, estimate):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and scans == []
        assert err.startswith("error:") and estimate in err and "--force" in err

    @pytest.mark.parametrize("argv, scan", [
        (("verify", "--builtin", "west2", "--upto", "9"), "verify_preimage"),
        (("verify", "--builtin", "west3", "--upto", "9"), "verify_preimage"),
        (("census", "--op", "stack", "--passes", "2", "--upto", "10"), "census"),
        (("preimage", "23451", "--expand", "--prune", "9"), "prune_basis"),
    ], ids=["verify-west2-9", "verify-west3-9", "census-10", "prune-9"])
    def test_bounds_under_the_limit_run(self, capsys, scans, argv, scan):
        code, _, err = run(capsys, *argv)
        assert code == 0 and err == "" and scan in scans

    @pytest.mark.parametrize("argv, scan", [
        (("verify", "--builtin", "west2", "--upto", "12"), "verify_preimage"),
        (("census", "--op", "stack", "--passes", "2", "--upto", "11"), "census"),
        (("preimage", "23451", "--expand", "--prune", "10"), "prune_basis"),
    ], ids=["verify", "census", "prune"])
    def test_force_lifts_the_refusal(self, capsys, scans, argv, scan):
        code, _, err = run(capsys, *argv, "--force")
        assert code == 0 and err == "" and scan in scans

    @pytest.mark.parametrize("argv", [
        ("verify", "--builtin", "west2", "--upto", "100000"),
        ("census", "--op", "stack", "--passes", "2", "--upto", "100000"),
        ("preimage", "231", "--prune", "100000"),
    ], ids=["verify", "census", "prune"])
    def test_huge_bound_is_refused_without_its_factorial(self, capsys, scans, monkeypatch, argv):
        # The refusal reads the order of magnitude of 100000! off lgamma:
        # no factorial of a number above 20 is computed.
        factorial = cli.math.factorial
        args = []
        monkeypatch.setattr(cli.math, "factorial", lambda n: args.append(n) or factorial(n))
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and scans == []
        assert err.startswith("error:") and "about 10^45657" in err and "--force" in err
        assert all(n <= 20 for n in args) and len(args) <= 20

    def test_limit_is_inclusive(self, capsys, monkeypatch):
        # census to 5 tests 1 + 2 + 6 + 24 + 120 = 153 permutations
        argv = ("census", "--op", "stack", "--passes", "1", "--upto", "5")
        monkeypatch.setattr(cli, "WORK_LIMIT", 153)
        assert run(capsys, *argv)[:2] == (0, "1 1\n2 2\n3 5\n4 14\n5 42\n")
        monkeypatch.setattr(cli, "WORK_LIMIT", 152)
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and "153" in err


class TestHugePassCount:
    """n - 1 passes sort a permutation of length n, so no more are applied."""

    @pytest.fixture
    def passes(self, monkeypatch):
        calls = []
        for op_id, step in list(permutation._OPERATORS.items()):
            monkeypatch.setitem(permutation._OPERATORS, op_id,
                                lambda values, step=step: calls.append(values) or step(values))
        return calls

    def test_sort(self, capsys, passes):
        assert run(capsys, "sort", "--op", "stack", "--passes", "100000000", "321") == (0, "123\n", "")
        assert len(passes) == 2

    def test_census(self, capsys, passes):
        code, out, _ = run(capsys, "census", "--op", "bubble", "--passes", "100000000", "--upto", "3")
        assert (code, out) == (0, "1 1\n2 2\n3 6\n")
        # 0, 1 and 2 passes for each permutation of length 1, 2 and 3
        assert len(passes) == 2 * 1 + 6 * 2

    def test_verify(self, capsys, passes, tmp_path):
        empty = tmp_path / "empty.txt"
        empty.write_text("")
        code, out, _ = run(capsys, "verify", "--pattern", "21", "--basis", str(empty),
                           "--passes", "100000000", "--upto", "2")
        assert code == 0 and out.endswith("PASS\n")
        # a first pass for each permutation of length 1 and 2, then one more
        # pass for the one distinct first-pass image of length 2
        assert len(passes) == 1 + 2 + 1


class TestBuiltin:
    def test_line_output(self, capsys):
        code, out, _ = run(capsys, "builtin", "stack_len3_231")
        assert code == 0
        assert out == ("231 | mark: {(2,3)} >= 1\n"
                       "321 | shade: (1,3) | mark: {(2,3)} >= 1\n")

    def test_json_output_parses_back(self, capsys):
        code, out, _ = run(capsys, "builtin", "west2", "--json")
        assert code == 0
        assert json.loads(out)  # a single JSON document
        assert tuple(parse_pattern_list(out)) == (
            classical("2341"), mesh("3241", {(1, 4)}))

    def test_decorated_fixtures_fall_back_to_json_lines(self, capsys):
        code, out, _ = run(capsys, "builtin", "west3")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 10
        assert sum(1 for s in lines if s.startswith("{")) == 4

    def test_unknown_name_is_a_usage_error(self, capsys):
        code, _, _ = run(capsys, "builtin", "west9")
        assert code == 2


class TestRender:
    def test_inline_pattern(self, capsys):
        code, out, _ = run(capsys, "render", "21 | shade: (1,0)")
        assert code == 0
        assert out == ". . .\n *   \n. . .\n   * \n. # .\n"

    def test_unicode_flag(self, capsys):
        code, out, _ = run(capsys, "render", "21", "--unicode")
        assert code == 0 and "●" in out

    def test_pattern_from_file(self, capsys, tmp_path):
        f = tmp_path / "pat.txt"
        f.write_text("21 | shade: (1,0)\n")
        code, out, _ = run(capsys, "render", "--file", str(f))
        assert code == 0 and out.splitlines()[-1] == ". # ."

    def test_pattern_xor_file(self, capsys, tmp_path):
        f = tmp_path / "pat.txt"
        f.write_text("21\n")
        code, _, err = run(capsys, "render", "21", "--file", str(f))
        assert code == 2 and err.startswith("error:")
        code, _, err = run(capsys, "render")
        assert code == 2


class TestUsageErrors:
    def test_no_command(self, capsys):
        assert run(capsys, )[0] == 2

    def test_unknown_command(self, capsys):
        assert run(capsys, "frobnicate")[0] == 2

    def test_unknown_operator(self, capsys):
        assert run(capsys, "sort", "--op", "quick", "21")[0] == 2

    def test_missing_required_flag(self, capsys):
        assert run(capsys, "census", "--op", "stack", "--upto", "3")[0] == 2

    def test_json_pattern_with_a_non_integer_is_a_usage_error(self, capsys):
        code, out, err = run(capsys, "match", "21", "--inline",
                             '{"kind": "classical", "perm": [2, true]}')
        assert code == 2 and out == "" and "perm entry must be an integer, got true" in err

    def test_trailing_comma_is_a_usage_error(self, capsys):
        code, out, err = run(capsys, "match", "21", "--inline", "21 | shade: (0,0),")
        assert code == 2 and out == "" and "trailing ','" in err and "offset 17" in err

    @pytest.mark.parametrize("argv", [
        ("verify", "--pattern", "21", "--upto", "3", "--basis"),
        ("match", "123", "--pattern"),
        ("render", "--file"),
    ], ids=lambda argv: argv[0])
    def test_pattern_file_that_is_not_utf8_is_a_usage_error(self, capsys, tmp_path, argv):
        f = tmp_path / "binary.txt"
        f.write_bytes(b"\xff\xfe12\n")
        code, out, err = run(capsys, *argv, str(f))
        assert code == 2 and out == ""
        assert err.startswith("error:") and str(f) in err and "UTF-8" in err

    @pytest.mark.parametrize("argv", [
        ("verify", "--pattern", "21", "--op", "stack", "--passes", "2", "--upto", "5", "--basis"),
        ("match", "52341", "--pattern"),
        ("render", "--file"),
    ], ids=lambda argv: argv[0])
    def test_pattern_file_with_a_byte_order_mark_reads_as_without(self, capsys, tmp_path, argv):
        plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
        plain.write_text("2341\n", encoding="utf-8")
        marked.write_text("2341\n", encoding="utf-8-sig")
        assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
        want = run(capsys, *argv, str(plain))
        assert want[0] in (0, 1) and want[2] == ""
        assert run(capsys, *argv, str(marked)) == want


def _nested_decorations(depth):
    # A decorated pattern whose decoration avoids a decorated pattern, and
    # so on ``depth`` times, in one line of JSON.
    head = '{"kind": "decorated", "perm": [1], "decor": [{"boxes": [[0, 0]], "avoid": '
    return head * depth + '{"kind": "classical", "perm": [1]}' + "}]}" * depth


@pytest.mark.parametrize("argv, text", [
    (("verify", "--pattern", "21", "--upto", "3", "--basis"), "[" * 100000),
    (("match", "1", "--pattern"), _nested_decorations(300)),
    (("render", "--file"), _nested_decorations(300)),
], ids=["deep-array", "match-deep-decorations", "render-deep-decorations"])
def test_deep_nesting_is_a_usage_error(capsys, tmp_path, argv, text):
    f = tmp_path / "deep.txt"
    f.write_text(text)
    code, out, err = run(capsys, *argv, str(f))
    assert code == 2 and out == ""
    assert err.startswith("error:") and "nested too deeply" in err


def test_one_level_past_the_nesting_bound_is_a_usage_error(capsys, tmp_path):
    f = tmp_path / "deep.json"
    f.write_text(_nested_decorations(_MAX_NESTING))
    assert run(capsys, "match", "1", "--pattern", str(f)) == (0, "1\n", "")
    f.write_text(_nested_decorations(_MAX_NESTING + 1))
    code, out, err = run(capsys, "match", "1", "--pattern", str(f))
    assert code == 2 and out == ""
    assert err.startswith("error:") and "nested too deeply" in err


def test_python_dash_m_runs_the_cli():
    src = str(Path(permpat.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-m", "permpat", "sort", "--op", "stack", "231"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert (done.returncode, done.stdout) == (0, "213\n")


def fresh(*argv):
    """Exit code, output and error output of the CLI in a new interpreter."""
    src = str(Path(permpat.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-m", "permpat", *argv],
                          capture_output=True, text=True, env=env, timeout=60)
    return done.returncode, done.stdout, done.stderr


def test_calls_in_one_process_answer_as_fresh_calls(capsys):
    # main reuses one parser per process, so a usage error must leave
    # nothing behind for the next call.
    calls = [
        ("census", "--op", "stack", "--upto", "3"),
        ("sort", "--op", "stack", "231"),
        ("match", "35241", "--inline", "132", "--pattern", "p.txt"),
        ("match", "35241", "--inline", "132", "--list"),
    ]
    assert [run(capsys, *argv) for argv in calls] == [fresh(*argv) for argv in calls]
