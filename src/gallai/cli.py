"""Command-line front end.

Subcommands: check, construct, verify, generate, crosscheck, partition.
Exit codes: 0 success or feasible, 1 semantic negative (infeasible
sequence, rainbow triangle, oracle mismatch), 2 usage, parse, or size
guard.  All informational output is byte-stable for identical inputs;
--quiet suppresses it without touching exit codes or written files.

One table, _COMMANDS, states each subcommand's arguments.  main reads a
plainly spelled command line straight from that table: the subcommand,
then exact option spellings and values, each value in its own token and
none starting with "-".  Anything else goes to the argparse parser built
from the same table: help, "--", "--output=PATH", abbreviations such as
"--qu", and every usage error, so those keep argparse's own text.
"""

from __future__ import annotations

import argparse
import functools
import sys
from typing import Callable, NamedTuple, Sequence

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
            return tuple(map(int, text.split(",")))
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
    values, slacks = report.values, []
    try:
        slacks.extend(map(str, report.slacks))  # keeps what it took before an error
    except ValueError:  # past the interpreter's digit limit
        k = len(slacks) + 1
        raise ValueError(f"slack at k={k} has {report.slacks[k - 1].bit_length()} bits, too many digits to print") from None
    n = len(values)
    # values are nondecreasing, so the last is the widest; headers floor the widths
    w0, w1, w2 = len(str(n)), max(3, len(str(values[-1]))), max(5, max(map(len, slacks)))
    row = f"%{w0}d  %{w1}d  %{w2}s"
    lines = [f"{'k':>{w0}}  {'d_k':>{w1}}  {'slack':>{w2}}"]
    lines += [row % fields for fields in zip(range(1, n + 1), values, slacks)]
    verdict = "feasible" if report.feasible else f"infeasible (first violation at k={report.first_violation})"
    return lines + [f"verdict: {verdict}"]


def _read_coloring(path: str) -> EdgeColoring:
    # newline="" keeps a bare "\r", which parse_document rejects, as it is.
    # surrogateescape lets a comment hold any byte, whatever the locale; a
    # stray byte on any other line is left to parse_document to name.
    with open(path, encoding="utf-8", errors="surrogateescape", newline="") as f:
        return parse_document(f.read())


def _deliver(coloring: EdgeColoring, sorted_degrees: Sequence[int], args, out: Callable[[str], None]) -> None:
    """Write --output and --dot, then report: the degrees line, the document
    itself when no --output is given, and one line per file written.  A
    path given, even "", is written or refused, and a refused path leaves
    stdout empty."""
    files = [
        (path, render)
        for path, render in ((args.output, render_document), (args.dot, render_dot))
        if path is not None
    ]
    for path, render in files:
        with open(path, "w") as f:  # not Path: Path("") is ".", "" names no file
            f.write(render(coloring))
    # When the document itself goes to stdout, keep the info line parseable
    # as a document comment.
    out(("# " if args.output is None else "") + "degrees: " + _fmt_values(sorted_degrees))
    if args.output is None:
        sys.stdout.write(render_document(coloring))
    for path, _ in files:
        out(f"wrote {path}")


def cmd_check(args, out: Callable[[str], None]) -> int:
    report = check_sequence(_parse_sequence(args.sequence))
    out("\n".join(_report_lines(report)))
    return 0 if report.feasible else 1


def cmd_construct(args, out: Callable[[str], None]) -> int:
    values = _parse_sequence(args.sequence)
    try:
        coloring = realize(values)
    except InfeasibleSequenceError as exc:
        out("\n".join(_report_lines(exc.report)))
        _fail(str(exc))
        return 1
    # realize accepted values as nondecreasing and matches them as its
    # sorted color degrees, so they need no recount.
    _deliver(coloring, values, args, out)
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
    # The sorted color degrees are the ones each family's docstring states,
    # so they need no recount; each is built after its guard has passed.
    size = args.size
    if args.kind == "chain":
        coloring = chain_coloring(size)
        degrees = [*range(1, size), size - 1]
    else:
        coloring = uniform_coloring(size)
        degrees = [size] * 2**size
    _deliver(coloring, degrees, args, out)
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


class _Argument(NamedTuple):
    """One add_argument call.  Without flags it is a positional.  With flags
    it is an option that takes the next token as its value when it has a
    metavar, and a store_true flag otherwise."""

    dest: str
    help: str | None = None
    flags: tuple[str, ...] = ()
    metavar: str | None = None
    type: Callable[[str], object] | None = None
    choices: tuple[str, ...] | None = None


class _Command:
    """A subcommand: its handler, its help and its arguments in the order
    build_parser adds them, which fixes the help and usage text."""

    def __init__(self, handler, help_text: str, *arguments: _Argument):
        self.handler, self.help, self.arguments = handler, help_text, arguments
        self.positionals = [a for a in arguments if not a.flags]
        self.options = {flag: a for a in arguments for flag in a.flags}
        self.defaults = {a.dest: None if a.metavar else False for a in arguments if a.flags}


_QUIET = _Argument("quiet", "suppress reports; rely on exit codes and files", ("--quiet",))
_OUTPUT_FLAGS = (
    _Argument("output", "write the coloring document here instead of stdout", ("-o", "--output"), "PATH"),
    _Argument("dot", "also write a DOT export for graph viewers", ("--dot",), "PATH"),
)

# The grammar: build_parser and _read_plain both read it.
_COMMANDS = {
    "check": _Command(
        cmd_check,
        "decide feasibility of a degree sequence",
        _QUIET,
        _Argument("sequence", "comma-separated nondecreasing integers, e.g. 1,2,2"),
    ),
    "construct": _Command(
        cmd_construct,
        "build a witness coloring for a feasible sequence",
        _QUIET,
        _Argument("sequence", "comma-separated nondecreasing integers"),
        *_OUTPUT_FLAGS,
    ),
    "verify": _Command(
        cmd_verify, "check a coloring document for rainbow triangles", _QUIET, _Argument("input", "coloring document path")
    ),
    "generate": _Command(
        cmd_generate,
        "emit a named family member",
        _QUIET,
        _Argument("kind", choices=("chain", "uniform")),
        _Argument("size", "vertex count for chain, bit count for uniform", type=_parse_count),
        *_OUTPUT_FLAGS,
    ),
    "crosscheck": _Command(
        cmd_crosscheck,
        "compare enumerated degree sequences against the feasibility test",
        _QUIET,
        _Argument("n", type=_parse_count),
        _Argument("allow_large", "accepted and ignored: every n crosscheck supports runs without it", ("--allow-large",)),
    ),
    "partition": _Command(
        cmd_partition, "find a Gallai partition of a coloring document", _QUIET, _Argument("input", "coloring document path")
    ),
}


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
    for name, command in _COMMANDS.items():
        p = subs.add_parser(name, help=command.help)
        for a in command.arguments:
            if not a.flags:
                p.add_argument(a.dest, type=a.type, choices=a.choices, help=a.help)
            elif a.metavar is None:
                p.add_argument(*a.flags, dest=a.dest, action="store_true", help=a.help)
            else:
                p.add_argument(*a.flags, dest=a.dest, metavar=a.metavar, help=a.help)
        p.set_defaults(func=command.handler)
    return parser


def _read_plain(argv: Sequence[str]) -> argparse.Namespace | None:
    """The Namespace build_parser() would return for argv, read without
    argparse; None where argv is not spelled plainly.  Plain means a
    subcommand, then only exact option spellings, each valued option
    followed by its value, and exactly the subcommand's positionals, with
    no value or positional starting with "-" and every type and choice
    met.  Whatever it refuses (help, "--", "--output=PATH", abbreviations,
    every usage error) goes to argparse, which gives its own answer."""
    command = _COMMANDS.get(argv[0]) if argv else None
    if command is None:
        return None
    values = {"command": argv[0], "func": command.handler, **command.defaults}
    positionals = []
    tokens = iter(argv[1:])
    for token in tokens:
        option = command.options.get(token)
        if option is None:
            if token.startswith("-"):
                return None
            positionals.append(token)
        elif option.metavar is None:
            values[option.dest] = True
        else:
            value = next(tokens, "-")  # a missing value reads as refused
            if value.startswith("-"):
                return None
            values[option.dest] = value
    if len(positionals) != len(command.positionals):
        return None
    for a, token in zip(command.positionals, positionals):
        if a.choices is not None and token not in a.choices:
            return None
        if a.type is not None:
            try:
                token = a.type(token)
            except argparse.ArgumentTypeError:
                return None
        values[a.dest] = token
    return argparse.Namespace(**values)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _read_plain(argv)
    if args is None:
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
    # The process runs under the interpreter's default digit limit, so that
    # PYTHONINTMAXSTRDIGITS cannot change an exit; main() leaves it alone.
    if hasattr(sys, "set_int_max_str_digits"):  # Python 3.10.7 and later
        sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
