"""Command-line front end.

Subcommands: check, construct, verify, generate, crosscheck, partition.
Exit codes: 0 success or feasible, 1 semantic negative (infeasible
sequence, rainbow triangle, oracle mismatch), 2 usage, parse, or size
guard.  All informational output is byte-stable for identical inputs;
--quiet suppresses it without touching exit codes or written files.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path
from typing import Callable, Sequence

from .coloring import EdgeColoring, color_degrees, find_rainbow_triangle
from .construct import chain_coloring, realize, uniform_coloring
from .document import parse_document, render_document, render_dot
from .errors import InfeasibleSequenceError, MalformedSequenceError, NotGallaiError, clip
from .feasibility import FeasibilityReport, check_sequence
from .oracle import brute_force_gallai_partition, crosscheck


# Longest error message printed whole.  Every error passes through _fail
# or _Parser.error, so stderr stays short whatever the input's length.
MESSAGE_CHARS = 200


def _bounded(message: str) -> str:
    if len(message) <= MESSAGE_CHARS:
        return message
    return f"{message[:MESSAGE_CHARS]}... ({len(message)} characters)"


def _fail(message: str) -> None:
    print(f"error: {_bounded(message)}", file=sys.stderr)


def _fmt_values(values) -> str:
    return ", ".join(str(v) for v in values)


def _parse_sequence(text: str) -> tuple[int, ...]:
    # On ASCII text with no "+" or "_", int() reads exactly "-?[0-9]+" with
    # surrounding whitespace; it would also take "+1", "1_0" and non-ASCII
    # digits.
    if text.isascii() and "+" not in text and "_" not in text:
        try:
            return tuple(int(t) for t in text.split(","))
        except ValueError:  # not a number, or past the interpreter's digit limit
            pass
    raise MalformedSequenceError(f"not a comma-separated integer list: {clip(text)}")


def _parse_count(text: str) -> int:
    """argparse type for a single number, read like one ``check`` entry."""
    try:
        (value,) = _parse_sequence(text)
    except ValueError:  # malformed, or more than one entry
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    return value


def _report_lines(report: FeasibilityReport) -> list[str]:
    header = ("k", "d_k", "slack")
    rows = [
        (str(k), str(report.values[k - 1]), str(report.slacks[k - 1]))
        for k in range(1, report.n + 1)
    ]
    widths = [max(len(header[c]), *(len(r[c]) for r in rows)) for c in range(3)]
    lines = ["  ".join(f.rjust(w) for f, w in zip(row, widths)) for row in [header, *rows]]
    verdict = "feasible" if report.feasible else f"infeasible (first violation at k={report.first_violation})"
    return lines + [f"verdict: {verdict}"]


def _read_coloring(path: str) -> EdgeColoring:
    # newline="" keeps a bare "\r", which parse_document rejects, as it is.
    # surrogateescape lets a comment hold any byte, whatever the locale; a
    # stray byte on any other line is left to parse_document to name.
    with open(path, encoding="utf-8", errors="surrogateescape", newline="") as f:
        return parse_document(f.read())


def _deliver(coloring: EdgeColoring, args, out: Callable[[str], None]) -> None:
    """Write the coloring to --output or stdout, and optionally a DOT file."""
    text = render_document(coloring)
    if args.output:
        Path(args.output).write_text(text)
        out(f"wrote {args.output}")
    else:
        sys.stdout.write(text)
    if args.dot:
        Path(args.dot).write_text(render_dot(coloring))
        out(f"wrote {args.dot}")


def _emit_degrees(sorted_degrees: Sequence[int], args, out: Callable[[str], None]) -> None:
    # When the document itself goes to stdout, keep the info line parseable
    # as a document comment.
    prefix = "# " if args.output is None else ""
    out(prefix + "degrees: " + _fmt_values(sorted_degrees))


def cmd_check(args, out: Callable[[str], None]) -> int:
    report = check_sequence(_parse_sequence(args.sequence))
    for line in _report_lines(report):
        out(line)
    return 0 if report.feasible else 1


def cmd_construct(args, out: Callable[[str], None]) -> int:
    values = _parse_sequence(args.sequence)
    try:
        coloring = realize(values)
    except InfeasibleSequenceError as exc:
        for line in _report_lines(exc.report):
            out(line)
        _fail(str(exc))
        return 1
    # realize accepted values as nondecreasing and matches them as its
    # sorted color degrees, so they need no recount.
    _emit_degrees(values, args, out)
    _deliver(coloring, args, out)
    return 0


def cmd_verify(args, out: Callable[[str], None]) -> int:
    coloring = _read_coloring(args.input)
    degrees = color_degrees(coloring)
    sorted_degrees = sorted(degrees)
    out(f"vertices: {coloring.n}")
    out(f"colors: {len(coloring.color_set())}")
    out("degrees: " + _fmt_values(degrees))
    out("sorted: " + _fmt_values(sorted_degrees))
    witness = find_rainbow_triangle(coloring)
    if witness is not None:
        i, j, k = witness.vertices
        a, b, c = witness.colors
        out(f"rainbow triangle: ({i}, {j}, {k}) colors ({a}, {b}, {c})")
        out("gallai: no")
        return 1
    out("gallai: yes")
    report = check_sequence(sorted_degrees)
    if report.feasible:
        out("degree sequence: feasible")
    else:
        # Unreachable if the theory holds; never silence it.
        print(
            "theorem violation: Gallai coloring with infeasible degree "
            f"sequence (first violation at k={report.first_violation})",
            file=sys.stderr,
        )
    return 0


def cmd_generate(args, out: Callable[[str], None]) -> int:
    if args.kind == "chain":
        coloring = chain_coloring(args.size)
    else:
        coloring = uniform_coloring(args.size)
    _emit_degrees(sorted(color_degrees(coloring)), args, out)
    _deliver(coloring, args, out)
    return 0


def cmd_crosscheck(args, out: Callable[[str], None]) -> int:
    n = args.n
    result = crosscheck(n)
    out(f"n={n}: {len(result.realizable)} realizable, {len(result.feasible)} feasible")
    if result.equal:
        out("sets match")
        return 0
    for seq in sorted(result.only_realizable):
        out("only realizable: " + _fmt_values(seq))
    for seq in sorted(result.only_feasible):
        out("only feasible: " + _fmt_values(seq))
    return 1


def cmd_partition(args, out: Callable[[str], None]) -> int:
    coloring = _read_coloring(args.input)
    try:
        partition = brute_force_gallai_partition(coloring)
    except NotGallaiError as exc:
        _fail(str(exc))
        return 1
    out(f"parts: {len(partition.parts)}")
    for idx, part in enumerate(partition.parts):
        out(f"part {idx}: " + " ".join(str(v) for v in part))
    out("cross colors: " + " ".join(str(c) for c in sorted(partition.cross_colors)))
    for (i, j), c in sorted(partition.part_pair_color.items()):
        out(f"pair {i} {j}: color {c}")
    return 0


def _add_output_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("-o", "--output", metavar="PATH", help="write the coloring document here instead of stdout")
    sub.add_argument("--dot", metavar="PATH", help="also write a DOT export for graph viewers")


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # usage errors echo the argument
        super().error(_bounded(message))


@functools.cache  # one parser per process: parsing leaves no state on it
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gallai",
        description="Decide, realize, and inspect color degree sequences of rainbow-triangle-free colorings.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    def sub(name: str, handler, help_text: str) -> argparse.ArgumentParser:
        p = subs.add_parser(name, help=help_text)
        p.add_argument("--quiet", action="store_true", help="suppress reports; rely on exit codes and files")
        p.set_defaults(func=handler)
        return p

    p = sub("check", cmd_check, "decide feasibility of a degree sequence")
    p.add_argument("sequence", help="comma-separated nondecreasing integers, e.g. 1,2,2")

    p = sub("construct", cmd_construct, "build a witness coloring for a feasible sequence")
    p.add_argument("sequence", help="comma-separated nondecreasing integers")
    _add_output_flags(p)

    p = sub("verify", cmd_verify, "check a coloring document for rainbow triangles")
    p.add_argument("input", help="coloring document path")

    p = sub("generate", cmd_generate, "emit a named family member")
    p.add_argument("kind", choices=("chain", "uniform"))
    p.add_argument("size", type=_parse_count, help="vertex count for chain, bit count for uniform")
    _add_output_flags(p)

    p = sub("crosscheck", cmd_crosscheck, "compare enumerated degree sequences against the feasibility test")
    p.add_argument("n", type=_parse_count)
    p.add_argument("--allow-large", action="store_true", help="accepted and ignored: every n the enumeration supports runs without it")

    p = sub("partition", cmd_partition, "find a Gallai partition of a coloring document")
    p.add_argument("input", help="coloring document path")

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    out = (lambda line: None) if args.quiet else print
    try:
        return args.func(args, out)
    except (ValueError, OSError, OverflowError) as exc:  # malformed input, size guards, unreadable files, huge degrees
        _fail(str(exc))
        return 2


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
