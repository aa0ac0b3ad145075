"""Plain-text documents for colorings, plus DOT export.

A coloring document lists every edge explicitly so diffs stay readable:

    n 4
    edge 0 1 0
    edge 0 2 0
    ...

The first non-comment line declares the vertex count; then exactly
n(n-1)/2 ``edge u v color`` records follow, one per unordered pair with
0 <= u < v < n and a nonnegative color.  Writers emit pairs in
lexicographic order; parsers accept any order but demand exact coverage.
Lines end at ``\n`` only; the ``\r`` of a CRLF line end is stripped as
whitespace.  Every line but a ``#`` comment must be ASCII.  Lines starting
with ``#`` and blank lines are ignored on input and never emitted, so
rendering is byte-stable.  Numbers are read up to the interpreter's digit
limit for ``int()``; the ``gallai`` command always runs under its default
of 4,300 digits, so a longer color or count is refused there whatever
PYTHONINTMAXSTRDIGITS says, while a library caller keeps its own limit.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import islice

from .coloring import EdgeColoring
from .errors import DocumentError, clip

# Pen colors for DOT export, cycled in order of color id.  Ids beyond the
# palette get a numeric suffix (color 12 -> "red1", 13 -> "blue1", ...),
# which X11 color names support up to suffix 4.
PALETTE = (
    "red",
    "blue",
    "green",
    "orange",
    "purple",
    "brown",
    "cyan",
    "magenta",
    "gold",
    "pink",
    "turquoise",
    "salmon",
)


def pen_color(color_id: int) -> str:
    """Deterministic pen color name for a color id."""
    base = PALETTE[color_id % len(PALETTE)]
    cycle = color_id // len(PALETTE)
    return base if cycle == 0 else f"{base}{cycle}"


def render_document(coloring: EdgeColoring) -> str:
    """Serialize a coloring; inverse of parse_document for any coloring."""
    lines = [f"n {coloring.n}"]
    for u, upper in enumerate(coloring.upper_rows()):
        prefix = f"edge {u} "
        lines += [f"{prefix}{v} {c}" for v, c in enumerate(upper, u + 1)]
    return "\n".join(lines) + "\n"


def parse_document(text: str) -> EdgeColoring:
    """Parse a coloring document, validating the full file schema.

    Each edge record is written straight to its upper-triangle slot, so a
    repeated pair is one whose slot is already filled.  A document with
    fewer lines than pairs cannot be complete; its slots are kept sparse so
    that memory follows the length of the text, not the declared n.
    Right after the header, rows written exactly as render_document writes
    them are read in bulk by _writer_rows; from the first line that is not,
    every line goes through the line loop below, which gives every message
    and line number.
    """
    lines = text.split("\n")
    n: int | None = None
    expected = seen = 0
    slots: list[int] | defaultdict[int, int] = []
    numbered = enumerate(lines, start=1)
    for lineno, raw in numbered:
        line = raw.strip()
        if line.startswith("#"):
            continue
        if not raw.isascii():
            raise DocumentError(f"line {lineno}: expected ASCII text, got {clip(raw)}")
        if not line:
            continue
        fields = line.split()
        if n is None:
            if len(fields) != 2 or fields[0] != "n":
                raise DocumentError(f"line {lineno}: expected 'n <count>', got {clip(raw)}")
            n = _parse_int(fields[1], lineno)
            if n < 1:
                raise DocumentError(f"line {lineno}: vertex count must be >= 1")
            expected = n * (n - 1) // 2
            if expected < len(lines):
                slots = [-1] * expected
                seen = _writer_rows(lines, lineno, n, slots)
                next(islice(numbered, seen, seen), None)  # skip the lines read
            else:
                slots = defaultdict(lambda: -1)
            continue
        if len(fields) != 4 or fields[0] != "edge":
            raise DocumentError(
                f"line {lineno}: expected 'edge <u> <v> <color>', got {clip(raw)}"
            )
        u = _parse_int(fields[1], lineno)
        v = _parse_int(fields[2], lineno)
        c = _parse_int(fields[3], lineno)
        if not 0 <= u < v < n:
            raise DocumentError(f"line {lineno}: need 0 <= u < v < n, got {u}, {v}")
        if c < 0:
            raise DocumentError(f"line {lineno}: color must be nonnegative, got {c}")
        index = u * n - u * (u + 1) // 2 + (v - u - 1)
        if slots[index] >= 0:
            raise DocumentError(f"line {lineno}: pair ({u}, {v}) repeated")
        slots[index] = c
        seen += 1
    del numbered  # freed before the tuple is built, as a plain for loop frees its iterator
    if n is None:
        raise DocumentError("document is empty")
    if seen != expected:
        raise DocumentError(f"expected {expected} pairs for n={n}, got {seen}")
    return EdgeColoring(n, tuple(slots))


def _writer_rows(lines: list[str], start: int, n: int, slots: list[int]) -> int:
    """Fill slots from lines[start:] while each row u reads exactly as
    ``edge u v c`` for v = u+1..n-1 with c a run of ASCII digits; return
    the number of lines read, which is also the number of slots filled.

    A row's w lines are joined with " \\n " and split at single spaces, so a
    row as written gives 5w - 1 tokens: edge, u, v, color, then a line break
    and the next line.  Once the count and the other four columns match, the
    w - 1 line breaks can only sit in the fifth.  A tab, a "\\r", a doubled
    space, a comment or a pair out of place breaks the pattern and ends the
    bulk read.
    """
    names = [str(v) for v in range(n)]
    read = 0
    for u in range(n - 1):
        w = n - 1 - u
        tokens = " \n ".join(lines[start + read : start + read + w]).split(" ")
        colors = tokens[3::5]
        digits = "".join(colors)
        if not (
            len(tokens) == 5 * w - 1
            and tokens[0::5] == ["edge"] * w
            and tokens[1::5] == [names[u]] * w
            and tokens[2::5] == names[u + 1 :]
            and digits.isascii()
            and digits.isdigit()
        ):
            break
        try:  # an empty color, or one past the digit limit, is the loop's to name
            slots[read : read + w] = list(map(int, colors))
        except ValueError:
            break
        read += w
    return read


def _parse_int(token: str, lineno: int) -> int:
    # Reads "-?[0-9]+" only: on an ASCII line isdigit() means [0-9], while
    # int() alone would also take "+1" and "1_0".
    if token.isdigit() or token[0] == "-" and token[1:].isdigit():
        try:
            return int(token)
        except ValueError:
            pass
    # int() rejects a run of digits only past the interpreter's limit for
    # string conversion; that is too long, whatever its sign
    digits = token[1:] if token[0] in "+-" else token
    if digits.isdigit():
        try:
            int(digits)
        except ValueError:
            raise DocumentError(f"line {lineno}: number too long ({len(digits)} digits)") from None
    raise DocumentError(f"line {lineno}: expected an integer, got {clip(token)}")


def render_dot(coloring: EdgeColoring) -> str:
    """DOT graph with one pen color per color id, byte-stable."""
    pens = {c: pen_color(c) for c in coloring.color_set()}
    lines = ["graph coloring {", "  node [shape=circle];"]
    for u, upper in enumerate(coloring.upper_rows()):
        prefix = f"  {u} -- "
        lines += [f'{prefix}{v} [color="{pens[c]}"];' for v, c in enumerate(upper, u + 1)]
    lines.append("}")
    return "\n".join(lines) + "\n"
