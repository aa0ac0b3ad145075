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
Lines starting with ``#`` and blank lines are ignored on input and never
emitted, so rendering is byte-stable.
"""

from __future__ import annotations

from collections import defaultdict

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
    for u, v, c in coloring.pairs():
        lines.append(f"edge {u} {v} {c}")
    return "\n".join(lines) + "\n"


def parse_document(text: str) -> EdgeColoring:
    """Parse a coloring document, validating the full file schema.

    Each edge record is written straight to its upper-triangle slot, so a
    repeated pair is one whose slot is already filled.  A document with
    fewer lines than pairs cannot be complete; its slots are kept sparse so
    that memory follows the length of the text, not the declared n.
    """
    lines = text.splitlines()
    n: int | None = None
    expected = seen = 0
    slots: list[int] | defaultdict[int, int] = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if not line.isascii():
            raise DocumentError(f"line {lineno}: expected ASCII text, got {clip(raw)}")
        fields = line.split()
        if n is None:
            if len(fields) != 2 or fields[0] != "n":
                raise DocumentError(f"line {lineno}: expected 'n <count>', got {clip(raw)}")
            n = _parse_int(fields[1], lineno)
            if n < 1:
                raise DocumentError(f"line {lineno}: vertex count must be >= 1")
            expected = n * (n - 1) // 2
            slots = [-1] * expected if expected < len(lines) else defaultdict(lambda: -1)
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
    if n is None:
        raise DocumentError("document is empty")
    if seen != expected:
        raise DocumentError(f"expected {expected} pairs for n={n}, got {seen}")
    return EdgeColoring(n, tuple(slots))


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
    lines = ["graph coloring {", "  node [shape=circle];"]
    for u, v, c in coloring.pairs():
        lines.append(f'  {u} -- {v} [color="{pen_color(c)}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
