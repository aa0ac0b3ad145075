"""Command-line behavior: exit codes, reports, files, and stability."""

import contextlib
import hashlib
import importlib
import io
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gallai import (
    CrosscheckResult,
    EdgeColoring,
    FeasibilityReport,
    chain_coloring,
    color_degrees,
    parse_document,
    render_document,
    uniform_coloring,
)
from gallai import cli
from gallai.cli import build_parser, main
from oracles import duplication_sequence


SRC = Path(__file__).resolve().parent.parent / "src"
# the environment of a child interpreter that imports this checkout's package
CHILD_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def default_digit_limit():
    """Run the test under the interpreter's default digit limit for integer
    string conversion, as the console script does."""
    if not hasattr(sys, "set_int_max_str_digits"):  # no limit before Python 3.10.7
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def slack_table_corpus():
    """(command, sequence) pairs whose slack tables are pinned byte for byte."""
    yield "check", [0]
    for n in range(2, 61):  # chain sequences: every slack is 0
        yield "check", [*range(1, n), n - 1]
    rng = random.Random(2027)
    for i in range(24):
        seq = duplication_sequence(rng.randrange(2, 3001), rng)
        if i % 2:  # a unique maximum: infeasible at k = n
            seq[-1] += rng.randint(1, 40)
            yield "construct", seq
        yield "check", seq
    # big degrees: the slack at k = 1 of [1, top, top] is 2 - 2^(top - 1),
    # the widest of its table and negative
    for top in (64, 1000, 4000, 14000):
        for head in ([1], [1, 1], [1, 2, 3], [2, 2, 2, 2], [3] * 9):
            yield "check", [*head, top, top]
            yield "construct", [*head, top, top]
    yield "check", [5, 1000, 1000]  # the d_k column is wider than its header


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

    def test_spaces_around_entries_change_nothing(self, capsys):
        # int() reads each comma-separated entry with its surrounding ASCII
        # whitespace, as README states
        spaced = run(capsys, "check", " 1, 2 ,2")
        assert spaced == run(capsys, "check", "1,2,2")
        assert spaced[0] == 0

    def test_table_lists_every_k(self, capsys):
        _, out, _ = run(capsys, "check", "1,1,2,3,3")
        table_rows = [l for l in out.splitlines() if l.lstrip()[:1].isdigit()]
        assert len(table_rows) == 5

    def test_slack_table_bytes_are_pinned(self, capsys, default_digit_limit):
        # sha256 over repr((command, exit code, stdout, stderr)) of every
        # call in slack_table_corpus, taken before the table was built by
        # columns and written in one piece
        h = hashlib.sha256()
        for command, seq in slack_table_corpus():
            h.update(repr((command, *run(capsys, command, ",".join(map(str, seq))))).encode())
        assert h.hexdigest() == "78be8a84dbcead19c3547bce3f0315800de1c0d994cf359938b4d0ad974aab86"


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

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no digit limit before Python 3.10.7")
    @pytest.mark.parametrize(
        "argv, k, bits",
        [
            # under the default limit of 4,300 digits str() refuses the
            # slack 2 - 2^19999 at k=1; the message names k and its size
            pytest.param([command, "1,20000,20000"], 1, 19999, id=command)
            for command in ("check", "construct")
        ]
        + [
            # the least unprintable k is named, also under --quiet: the
            # slacks at k = 2, 3 and 5 of the first are all past the limit
            pytest.param([command, *quiet, sequence], k, bits, id=f"{command}{'-quiet' if quiet else ''}-{sequence}")
            for sequence, k, bits in (("2,2,2,2,20000,20000", 2, 20000), ("1,1,20000,20000", 3, 19999))
            for command in ("check", "construct")
            for quiet in ([], ["--quiet"])
        ],
    )
    def test_slack_past_the_digit_limit_is_named(self, capsys, default_digit_limit, argv, k, bits):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f"error: slack at k={k} has {bits} bits, too many digits to print\n"

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

    def test_degrees_line_is_the_recount(self, capsys):
        # generate prints the degrees the families' docstrings state; they
        # must be what counting the built coloring gives
        cases = [("chain", n, chain_coloring) for n in range(1, 65)]
        cases += [("uniform", d, uniform_coloring) for d in range(8)]
        for kind, size, build in cases:
            code, out, _ = run(capsys, "generate", kind, str(size))
            assert code == 0
            assert out.splitlines()[0] == "# degrees: " + ", ".join(map(str, sorted(color_degrees(build(size))))), (kind, size)

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

    @pytest.mark.parametrize("flag", ["-o", "--dot"])
    @pytest.mark.parametrize("name", ["", "missing/x.doc"], ids=["empty", "missing-directory"])
    def test_a_path_that_cannot_be_written_is_refused(self, capsys, tmp_path, flag, name):
        # an empty path is a path like any other, not a request for stdout;
        # a refused write prints no degrees line and no document
        path = str(tmp_path / name) if name else ""
        for command in (["generate", "chain", "3"], ["construct", "1,2,2"]):
            code, out, err = run(capsys, *command, flag, path)
            assert (code, out) == (2, ""), command
            assert err == f"error: [Errno 2] No such file or directory: {path!r}\n"


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

    def test_nine_always_guarded(self, capsys):
        code, _, _ = run(capsys, "crosscheck", "9", "--allow-large")
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

    @pytest.mark.parametrize("limit", [None, "0", "640"], ids=["unset", "no-limit", "640"])
    def test_entry_runs_under_the_default_digit_limit(self, tmp_path, limit):
        # Under the default limit of 4,300 digits a 6,021-digit slack and a
        # 5,000-digit color are refused and a 1,000-digit color is read,
        # whatever the environment asks for.  One child runs all three.
        (tmp_path / "long.doc").write_text(f"n 2\nedge 0 1 {'9' * 5000}\n")
        (tmp_path / "short.doc").write_text(f"n 2\nedge 0 1 {'9' * 1000}\n")
        calls = (
            "import sys\n"
            "from gallai.cli import entry\n"
            "for command, arg in (('check', '1,20000,20000'), ('verify', 'long.doc'), ('verify', 'short.doc')):\n"
            "    sys.argv[1:] = [command, '--quiet', arg]\n"
            "    try:\n"
            "        entry()\n"
            "    except SystemExit as exit:\n"
            "        print(exit.code)\n"
        )
        env = {k: v for k, v in CHILD_ENV.items() if k != "PYTHONINTMAXSTRDIGITS"}
        if limit is not None:
            env["PYTHONINTMAXSTRDIGITS"] = limit
        proc = subprocess.run(
            [sys.executable, "-c", calls], capture_output=True, text=True, env=env, cwd=tmp_path, timeout=60,
        )
        assert proc.stdout.split() == ["2", "2", "0"]

    def test_console_script_names_a_callable(self):
        # the `gallai` command that pip installs runs what [project.scripts] names
        tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
        with (SRC.parent / "pyproject.toml").open("rb") as f:
            scripts = tomllib.load(f)["project"]["scripts"]
        assert scripts == {"gallai": "gallai.cli:entry"}
        module, attribute = scripts["gallai"].split(":")
        assert callable(getattr(importlib.import_module(module), attribute))


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


# argparse's own bytes for these usage errors, as printed before the plain
# reader existed (Python 3.10 and 3.11 print the same), at 80 columns
USAGE_ERRORS = {
    "no-arguments": (
        [],
        "usage: gallai [-h] {check,construct,verify,generate,crosscheck,partition} ...\n"
        "gallai: error: the following arguments are required: command\n",
    ),
    "unknown-subcommand": (
        ["chek", "1,2"],
        "usage: gallai [-h] {check,construct,verify,generate,crosscheck,partition} ...\n"
        "gallai: error: argument command: invalid choice: 'chek' (choose from 'check', 'construct', 'verify', "
        "'generate', 'crosscheck', 'partition')\n",
    ),
    "missing-positional": (
        ["check"],
        "usage: gallai check [-h] [--quiet] sequence\n"
        "gallai check: error: the following arguments are required: sequence\n",
    ),
    "extra-positional": (
        ["check", "1,2,2", "extra"],
        "usage: gallai [-h] {check,construct,verify,generate,crosscheck,partition} ...\n"
        "gallai: error: unrecognized arguments: extra\n",
    ),
    "misspelled-option": (
        ["check", "--qiet", "1,2"],
        "usage: gallai [-h] {check,construct,verify,generate,crosscheck,partition} ...\n"
        "gallai: error: unrecognized arguments: --qiet\n",
    ),
    "unknown-kind": (
        ["generate", "square", "3"],
        "usage: gallai generate [-h] [--quiet] [-o PATH] [--dot PATH]\n"
        "                       {chain,uniform} size\n"
        "gallai generate: error: argument kind: invalid choice: 'square' (choose from 'chain', 'uniform')\n",
    ),
    "bad-size": (
        ["generate", "chain", "x"],
        "usage: gallai generate [-h] [--quiet] [-o PATH] [--dot PATH]\n"
        "                       {chain,uniform} size\n"
        "gallai generate: error: argument size: invalid int value: 'x'\n",
    ),
    "missing-value": (
        ["construct", "1,2,2", "-o"],
        "usage: gallai construct [-h] [--quiet] [-o PATH] [--dot PATH] sequence\n"
        "gallai construct: error: argument -o/--output: expected one argument\n",
    ),
    "missing-n": (
        ["crosscheck"],
        "usage: gallai crosscheck [-h] [--quiet] [--allow-large] n\n"
        "gallai crosscheck: error: the following arguments are required: n\n",
    ),
}

# Tokens the plain reader must read as argparse does, or refuse: every
# subcommand and kind, values, each option, and spellings only argparse
# takes (help, "--", abbreviations, joined and "=" values, a lone "-").
ARGV_ALPHABET = [
    "check", "construct", "verify", "generate", "crosscheck", "partition", "chain", "uniform",
    "1,2,2", "3", "g.doc", "x", "-o", "--output", "--dot", "--quiet", "--allow-large",
    "-h", "--", "-1", "", "--q", "--out", "-ox", "--output=y", "-",
]
tokens = st.sampled_from(ARGV_ALPHABET)


@st.composite
def plain_argvs(draw):
    """A subcommand, a value for each positional and some of its options,
    in any order: most are plain, so the reader's answers get compared."""
    name = draw(st.sampled_from(list(cli._COMMANDS)))
    values = st.sampled_from(ARGV_ALPHABET[8:12])
    words = []
    for a in cli._COMMANDS[name].arguments:
        if not a.flags:
            words.append([draw(st.sampled_from(a.choices) if a.choices else values)])
        elif draw(st.booleans()):
            flag = draw(st.sampled_from(a.flags))
            words.append([flag, draw(values)] if a.metavar else [flag])
    return [name, *[token for word in draw(st.permutations(words)) for token in word]]


argvs = (
    st.lists(tokens, max_size=6)
    | st.builds(lambda head, tail: [head, *tail], st.sampled_from(list(cli._COMMANDS)), st.lists(tokens, max_size=6))
    | plain_argvs()
)


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

    @pytest.mark.parametrize("argv, stderr", USAGE_ERRORS.values(), ids=USAGE_ERRORS)
    def test_usage_error_bytes_are_argparse_own(self, capsys, monkeypatch, argv, stderr):
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage to the terminal width
        assert run(capsys, *argv) == (2, "", stderr)

    def test_plain_argv_builds_no_parser(self, capsys):
        build_parser.cache_clear()
        assert main(["check", "1,2,2"]) == 0
        assert build_parser.cache_info().currsize == 0
        assert main(["check", "--qu", "1,2,2"]) == 0  # an abbreviation only argparse reads
        assert build_parser.cache_info().currsize == 1

    @settings(max_examples=600, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(argv=argvs)
    def test_plain_read_is_what_argparse_reads(self, monkeypatch, tmp_path, argv):
        monkeypatch.chdir(tmp_path)  # every path in the alphabet is relative
        document = render_document(chain_coloring(3))

        def outcome():
            for path in tmp_path.iterdir():
                path.unlink()
            (tmp_path / "g.doc").write_text(document)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            return code, out.getvalue(), err.getvalue(), {p.name: p.read_bytes() for p in tmp_path.iterdir()}

        parsed = cli._read_plain(argv)
        if parsed is not None:
            assert vars(parsed) == vars(build_parser().parse_args(argv))
        plain = outcome()
        with monkeypatch.context() as patch:
            patch.setattr(cli, "_read_plain", lambda argv: None)
            assert outcome() == plain

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
