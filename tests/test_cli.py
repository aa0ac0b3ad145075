"""Command-line behavior: exit codes, reports, files, and stability."""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from gallai import CrosscheckResult, EdgeColoring, FeasibilityReport, color_degrees, parse_document, render_document
from gallai.cli import main
from oracles import duplication_sequence


SRC = Path(__file__).resolve().parent.parent / "src"
# the environment of a child interpreter that imports this checkout's package
CHILD_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCheck:
    def test_feasible(self, capsys):
        code, out, _ = run(capsys, "check", "1,2,2")
        assert code == 0
        assert "verdict: feasible" in out
        assert "slack" in out

    def test_infeasible_reports_first_violation(self, capsys):
        code, out, _ = run(capsys, "check", "2,2,2")
        assert code == 1
        assert "verdict: infeasible (first violation at k=1)" in out

    def test_unsorted_is_usage_error(self, capsys):
        code, _, err = run(capsys, "check", "2,1")
        assert code == 2
        assert "error:" in err

    def test_garbage_is_usage_error(self, capsys):
        code, _, err = run(capsys, "check", "1,two,3")
        assert code == 2
        assert "error:" in err

    def test_quiet_keeps_exit_code_only(self, capsys):
        code, out, _ = run(capsys, "check", "--quiet", "2,2,2")
        assert code == 1
        assert out == ""

    @pytest.mark.parametrize(
        "sequence",
        ["1,\u0661", "\u0661,\u0661", "1_0,1_0", "+1,+1", "1,+1", "1,1.0", "1,0x1", "1,\u00b2", "1,\uff11", "1,\u00a01", "1,-", "1,,1"],
        ids=["arabic-indic", "all-arabic-indic", "underscore", "plus", "one-plus", "decimal-point", "hex", "superscript", "fullwidth", "nbsp", "bare-minus", "empty-token"],
    )
    def test_only_plain_ascii_decimals(self, capsys, sequence):
        code, out, err = run(capsys, "check", sequence)
        assert code == 2
        assert out == ""
        assert err.startswith("error: not a comma-separated integer list: ")
        assert len(err) < 200

    def test_plain_decimals_accepted(self, capsys):
        # leading zeros and spaces around tokens stay accepted; a minus
        # reaches the nonnegativity check
        code, out, _ = run(capsys, "check", " 01 , 1 ")
        assert code == 0
        assert "verdict: feasible" in out
        code, _, err = run(capsys, "check", "--", "-1,1")
        assert code == 2
        assert "nonnegative" in err

    def test_table_lists_every_k(self, capsys):
        _, out, _ = run(capsys, "check", "1,1,2,3,3")
        table_rows = [l for l in out.splitlines() if l.lstrip()[:1].isdigit()]
        assert len(table_rows) == 5


class TestConstruct:
    def test_stdout_document_parses(self, capsys):
        code, out, _ = run(capsys, "construct", "2,2,2,2")
        assert code == 0
        coloring = parse_document(out)
        assert coloring.n == 4

    def test_degree_line_is_a_comment_on_stdout(self, capsys):
        _, out, _ = run(capsys, "construct", "1,2,2")
        assert out.splitlines()[0] == "# degrees: 1, 2, 2"

    def test_writes_file(self, capsys, tmp_path):
        target = tmp_path / "c.doc"
        code, out, _ = run(capsys, "construct", "1,2,3,3", "-o", str(target))
        assert code == 0
        assert "degrees: 1, 2, 3, 3" in out
        assert parse_document(target.read_text()).n == 4

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_degree_line_matches_written_document(self, capsys, tmp_path, seed):
        rng = random.Random(seed)
        for n in (2, 7, 30, 64):
            target = tmp_path / f"{n}.doc"
            seq = duplication_sequence(n, rng)
            code, out, _ = run(capsys, "construct", ",".join(map(str, seq)), "-o", str(target))
            assert code == 0
            degrees = sorted(color_degrees(parse_document(target.read_text())))
            assert out.splitlines()[0] == "degrees: " + ", ".join(map(str, degrees))

    def test_deep_sequence_writes_file(self, capsys, tmp_path):
        target = tmp_path / "x.doc"
        code, out, err = run(capsys, "construct", ",".join(["10"] * 1024), "-o", str(target))
        assert (code, err) == (0, "")
        assert out.endswith(f"wrote {target}\n")
        assert target.read_text().startswith("n 1024\n")

    def test_writes_dot(self, capsys, tmp_path):
        doc = tmp_path / "c.doc"
        dot = tmp_path / "c.dot"
        code, _, _ = run(capsys, "construct", "1,1", "-o", str(doc), "--dot", str(dot))
        assert code == 0
        assert dot.read_text().startswith("graph coloring {")

    def test_infeasible_prints_table_and_exits_one(self, capsys):
        code, out, err = run(capsys, "construct", "1,1,3,3")
        assert code == 1
        assert "verdict: infeasible (first violation at k=3)" in out
        assert "error:" in err

    def test_malformed_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "construct", "")
        assert code == 2


class TestBoundedMessages:
    """Error lines keep a fixed prefix of long input and state its size."""

    def test_long_infeasible_construct(self, capsys):
        sequence = ",".join(["1"] * (10**5 - 1) + ["3"])
        code, out, err = run(capsys, "construct", "--quiet", sequence)
        assert code == 1
        assert out == ""
        assert err.count("\n") == 1
        assert len(err) < 200
        assert "(100000 entries)" in err

    def test_long_unsorted_sequence(self, capsys):
        code, _, err = run(capsys, "check", ",".join(["2"] + ["1"] * 10**4))
        assert code == 2
        assert len(err) < 200
        assert "(10001 entries)" in err

    def test_long_garbage_argument(self, capsys):
        code, _, err = run(capsys, "check", "x" * 10**4)
        assert code == 2
        assert len(err) < 200
        assert "(10000 characters)" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("verify", "a" * 10**5),
            ("construct", "1,1", "-o", "b" * 60000),
            ("generate", "chain", "x" * 5000),
            ("y" * 5000,),
        ],
        ids=["verify-long-path", "construct-long-output-path", "generate-long-size", "long-subcommand"],
    )
    def test_long_argument_is_clipped(self, capsys, argv):
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert len(err.encode()) < 500
        assert "characters)\n" in err

    def test_short_usage_error_is_unchanged(self, capsys):
        code, _, err = run(capsys, "generate", "chain", "x")
        assert code == 2
        assert err.endswith("gallai generate: error: argument size: invalid int value: 'x'\n")

    def test_short_input_is_echoed_whole(self, capsys):
        _, _, err = run(capsys, "construct", "1,1,3,3")
        assert err == "error: sequence [1, 1, 3, 3] is infeasible (first violation at k=3)\n"
        _, _, err = run(capsys, "check", "1,two,3")
        assert err == "error: not a comma-separated integer list: '1,two,3'\n"

    def test_undecodable_argument_byte_is_echoed_as_the_byte(self, capsys):
        # how a POSIX argv holds the byte 0xE9 that is not UTF-8
        _, _, err = run(capsys, "check", "1,\udce9")
        assert err == "error: not a comma-separated integer list: '1,\\xe9'\n"


class TestVerify:
    def write(self, tmp_path, coloring):
        path = tmp_path / "in.doc"
        path.write_text(render_document(coloring))
        return str(path)

    def test_constructed_document_verifies(self, capsys, tmp_path):
        doc = tmp_path / "c.doc"
        assert main(["construct", "1,2,2", "-o", str(doc), "--quiet"]) == 0
        code, out, _ = run(capsys, "verify", str(doc))
        assert code == 0
        assert "gallai: yes" in out
        assert "sorted: 1, 2, 2" in out
        assert "degree sequence: feasible" in out

    def test_rainbow_rejected_with_witness(self, capsys, tmp_path):
        path = self.write(tmp_path, EdgeColoring(3, (0, 1, 2)))
        code, out, _ = run(capsys, "verify", path)
        assert code == 1
        assert "gallai: no" in out
        assert "rainbow triangle: (0, 1, 2) colors (0, 1, 2)" in out

    def test_malformed_document(self, capsys, tmp_path):
        path = tmp_path / "broken.doc"
        path.write_text("n 3\nedge 0 1 0\n")
        code, _, err = run(capsys, "verify", str(path))
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize("token", ["+0", "\u0661"], ids=["plus", "arabic-indic"])
    def test_non_plain_number_is_usage_error(self, capsys, tmp_path, token):
        path = tmp_path / "bad.doc"
        path.write_text(f"n 2\nedge {token} 1 0\n", encoding="utf-8")
        code, out, err = run(capsys, "verify", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: line 2: ")
        assert len(err) < 200

    @pytest.mark.parametrize(
        "text", ["n 2\u00a0\nedge 0 1 0\n", "n 2\nedge 0 1 0\u2003\n", "n 2\u2028edge 0 1 0\n"],
        ids=["trailing-nbsp", "trailing-em-space", "line-separator"],
    )
    def test_non_ascii_whitespace_is_usage_error(self, capsys, tmp_path, text):
        path = tmp_path / "bad.doc"
        path.write_text(text, encoding="utf-8")
        code, out, err = run(capsys, "verify", str(path))
        assert code == 2
        assert out == ""
        assert "expected ASCII text, got " in err
        assert len(err) < 200

    @pytest.mark.parametrize("command", ["verify", "partition"])
    def test_bare_carriage_return_is_read_as_the_library_reads_it(self, capsys, tmp_path, command):
        path = tmp_path / "cr.doc"
        path.write_bytes(b"n 2\redge 0 1 0\r")
        code, out, err = run(capsys, command, str(path))
        assert (code, out) == (2, "")
        assert err == "error: line 1: expected 'n <count>', got 'n 2\\redge 0 1 0\\r'\n"

    def test_crlf_line_ends(self, capsys, tmp_path):
        path = tmp_path / "crlf.doc"
        path.write_bytes(b"n 2\r\nedge 0 1 0\r\n")
        code, out, _ = run(capsys, "verify", str(path))
        assert code == 0
        assert "gallai: yes" in out

    @pytest.mark.parametrize("command", ["verify", "partition"])
    def test_comment_may_hold_any_byte(self, capsys, tmp_path, command):
        path = tmp_path / "latin1.doc"
        path.write_bytes(b"# caf\xe9\nn 2\nedge 0 1 0\n")
        code, _, err = run(capsys, command, str(path))
        assert (code, err) == (0, "")

    def test_stray_byte_outside_a_comment_names_its_line(self, capsys, tmp_path):
        path = tmp_path / "stray.doc"
        path.write_bytes(b"n 2\nedge 0 1 0\xe9\n")
        code, out, err = run(capsys, "verify", str(path))
        assert (code, out) == (2, "")
        # the echo shows the file's byte, not its surrogate escape "\udce9"
        assert err == "error: line 2: expected ASCII text, got 'edge 0 1 0\\xe9'\n"

    def test_utf8_comment_under_an_ascii_locale(self, tmp_path):
        path = tmp_path / "utf8.doc"
        path.write_bytes("# café\nn 2\nedge 0 1 0\n".encode())
        env = dict(CHILD_ENV, LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0")
        proc = subprocess.run(
            [sys.executable, "-m", "gallai", "verify", str(path)],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert (proc.returncode, proc.stderr) == (0, "")
        assert "gallai: yes" in proc.stdout

    def test_infeasible_sequence_of_a_gallai_coloring_is_reported(self, capsys, tmp_path, monkeypatch):
        # unreachable while the theorem holds, so the check is stubbed
        monkeypatch.setattr(
            "gallai.cli.check_sequence",
            lambda values: FeasibilityReport(tuple(values), (0,) * len(values), False, 2),
        )
        path = self.write(tmp_path, EdgeColoring(3, (0, 0, 1)))
        code, out, err = run(capsys, "verify", path)
        assert code == 0
        assert out.endswith("gallai: yes\n")
        assert "degree sequence: feasible" not in out
        assert err == (
            "theorem violation: Gallai coloring with infeasible degree sequence "
            "(first violation at k=2)\n"
        )

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "verify", str(tmp_path / "absent.doc"))
        assert code == 2
        assert "error:" in err


class TestGenerate:
    def test_chain(self, capsys):
        code, out, _ = run(capsys, "generate", "chain", "4")
        assert code == 0
        assert "# degrees: 1, 2, 3, 3" in out
        assert parse_document(out).n == 4

    def test_uniform(self, capsys):
        code, out, _ = run(capsys, "generate", "uniform", "3")
        assert code == 0
        coloring = parse_document(out)
        assert coloring.n == 8
        assert "# degrees: 3, 3, 3, 3, 3, 3, 3, 3" in out

    def test_uniform_guard(self, capsys):
        for bits in ("13", "21"):
            code, _, err = run(capsys, "generate", "uniform", bits)
            assert code == 2
            assert "error:" in err

    def test_negative_size(self, capsys):
        code, _, _ = run(capsys, "generate", "chain", "-3")
        assert code == 2

    @pytest.mark.parametrize("size", ["\u0663", "+5", "1_0", "5.0", "3,3"])
    def test_size_is_a_plain_ascii_decimal(self, capsys, size):
        code, out, err = run(capsys, "generate", "chain", size)
        assert (code, out) == (2, "")
        assert f"argument size: invalid int value: {size!r}" in err

    def test_unknown_kind(self, capsys):
        code, _, _ = run(capsys, "generate", "ladder", "3")
        assert code == 2


class TestCrosscheck:
    def test_small(self, capsys):
        code, out, _ = run(capsys, "crosscheck", "3")
        assert code == 0
        assert "n=3: 2 realizable, 2 feasible" in out
        assert "sets match" in out

    def test_six_without_flag(self, capsys):
        code, out, _ = run(capsys, "crosscheck", "6")
        assert code == 0
        assert "sets match" in out

    def test_six_with_flag(self, capsys):
        code, out, _ = run(capsys, "crosscheck", "6", "--allow-large")
        assert code == 0
        assert "sets match" in out

    def test_seven_always_guarded(self, capsys):
        code, _, _ = run(capsys, "crosscheck", "7", "--allow-large")
        assert code == 2

    def test_zero_rejected(self, capsys):
        code, _, _ = run(capsys, "crosscheck", "0")
        assert code == 2

    @pytest.mark.parametrize("n", ["\u0663", "+3", "0_3"])
    def test_n_is_a_plain_ascii_decimal(self, capsys, n):
        code, out, err = run(capsys, "crosscheck", n)
        assert (code, out) == (2, "")
        assert f"argument n: invalid int value: {n!r}" in err

    def test_mismatch_lists_each_side_sorted(self, capsys, monkeypatch):
        realizable = frozenset({(1, 1), (2, 2, 2), (1, 2, 2)})
        feasible = frozenset({(1, 1), (2, 3, 3), (2, 2, 3), (1, 2, 2)})
        monkeypatch.setattr(
            "gallai.cli.crosscheck",
            lambda n: CrosscheckResult(n=n, equal=False, realizable=realizable, feasible=feasible),
        )
        code, out, _ = run(capsys, "crosscheck", "3")
        assert code == 1
        assert out == (
            "n=3: 3 realizable, 4 feasible\n"
            "only realizable: 2, 2, 2\n"
            "only feasible: 2, 2, 3\n"
            "only feasible: 2, 3, 3\n"
        )


class TestVertexLimit:
    """Colorings built from a number stop at MAX_VERTICES before allocating."""

    def test_generate_chain_under_an_address_space_limit(self):
        # the limit applies to the child only; unguarded, the run would
        # need 2 * 10^10 edge colors
        limited = (
            "import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (600 << 20, 600 << 20))\n"
            "from gallai.cli import main\n"
            "sys.exit(main(sys.argv[1:]))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", limited, "generate", "chain", "200000"],
            capture_output=True, text=True, env=CHILD_ENV, timeout=60,
        )
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == "error: n=200000 exceeds the vertex limit 4096\n"

    def test_construct_past_the_limit(self, capsys):
        sequence = ",".join(map(str, list(range(1, 10**4)) + [10**4 - 1]))
        code, out, err = run(capsys, "construct", sequence)
        assert (code, out) == (2, "")
        assert err == "error: n=10000 exceeds the vertex limit 4096\n"


class TestPartition:
    def test_monochromatic_triangle(self, capsys, tmp_path):
        path = tmp_path / "mono.doc"
        path.write_text(render_document(EdgeColoring(3, (0, 0, 0))))
        code, out, _ = run(capsys, "partition", str(path))
        assert code == 0
        assert "parts: 2" in out
        assert "part 0: 0 1" in out
        assert "part 1: 2" in out
        assert "cross colors: 0" in out

    def test_uniform_two_has_one_cross_color(self, capsys, tmp_path):
        path = tmp_path / "u2.doc"
        assert main(["generate", "uniform", "2", "-o", str(path), "--quiet"]) == 0
        code, out, _ = run(capsys, "partition", str(path))
        assert code == 0
        assert "cross colors: 1" in out
        assert "pair 0 1: color 1" in out

    def test_rainbow_is_semantic_negative(self, capsys, tmp_path):
        path = tmp_path / "rainbow.doc"
        path.write_text(render_document(EdgeColoring(3, (0, 1, 2))))
        code, _, err = run(capsys, "partition", str(path))
        assert code == 1
        assert "rainbow" in err

    def test_single_vertex_rejected(self, capsys, tmp_path):
        path = tmp_path / "k1.doc"
        path.write_text("n 1\n")
        code, _, _ = run(capsys, "partition", str(path))
        assert code == 2


class TestModuleEntry:
    def test_python_dash_m(self):
        for module in ("gallai", "gallai.cli"):
            proc = subprocess.run(
                [sys.executable, "-m", module, "check", "1,1"],
                capture_output=True, text=True, env=CHILD_ENV, timeout=60,
            )
            assert proc.returncode == 0, module
            assert "verdict: feasible" in proc.stdout, module


class TestSuccessiveCalls:
    """``main`` keeps no state between calls: in a sequence of calls in one
    process, each prints what the same command prints in a fresh one."""

    @staticmethod
    def alone(argv):
        proc = subprocess.run(
            [sys.executable, "-m", "gallai", *argv], capture_output=True, text=True, env=CHILD_ENV, timeout=60,
        )
        return proc.returncode, proc.stdout, proc.stderr

    @pytest.mark.parametrize(
        "calls",
        [
            [["check", "--quiet", "1,2,2"], ["check", "1,2,2"]],
            [["construct", "1,2,2", "-o", "{doc}"], ["construct", "1,2,2"]],
            [["check", "--bogus", "1,2,2"], ["check", "1,2,2"]],
            [["check", "1,two"], ["construct", "--quiet", "2,2,2,2", "-o", "{doc}"]],
        ],
        ids=["quiet-then-loud", "file-then-stdout", "usage-error-then-success", "bad-number-then-file"],
    )
    def test_each_call_prints_what_it_prints_alone(self, capsys, tmp_path, calls):
        doc = tmp_path / "out.doc"
        calls = [[arg.format(doc=doc) for arg in argv] for argv in calls]

        def outcomes(call):
            results = []
            for argv in calls:
                results.append((call(argv), doc.read_text() if doc.exists() else None))
                doc.unlink(missing_ok=True)
            return results

        assert outcomes(lambda argv: run(capsys, *argv)) == outcomes(self.alone)


class TestHarness:
    def test_no_arguments_is_usage_error(self, capsys):
        assert main([]) == 2

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0

    def test_entry_raises_system_exit(self, capsys, monkeypatch):
        from gallai.cli import entry

        monkeypatch.setattr("sys.argv", ["gallai", "check", "1,1"])
        with pytest.raises(SystemExit) as excinfo:
            entry()
        assert excinfo.value.code == 0

    def test_quiet_still_writes_files(self, capsys, tmp_path):
        target = tmp_path / "q.doc"
        code, out, _ = run(capsys, "construct", "1,1", "--quiet", "-o", str(target))
        assert code == 0
        assert out == ""
        assert target.exists()

    def test_stdout_byte_stability(self, capsys):
        _, first, _ = run(capsys, "generate", "uniform", "2")
        _, second, _ = run(capsys, "generate", "uniform", "2")
        assert first == second
