"""Constructive realization of feasible degree sequences.

The workhorse is vertex duplication: cloning a vertex v into v1 (copying
all of v's edge colors) can never create a rainbow triangle, because any
triangle {v, v1, w} has two equal colors and any other new triangle maps to
an existing one.  Choosing the color of the new edge {v, v1} among v's
incident colors keeps both degrees at deg(v); choosing a fresh color raises
both to deg(v) + 1.

``realize`` runs this in two loops.  The schedule loop peels the sorted
sequence: with maximum t >= 2 of multiplicity m it drops one copy of t when
m is odd, or replaces two copies of t by one t-1 when m is even, and
records the duplication that undoes the step.  The peel decides
feasibility: it finishes, at all ones on two or more vertices or at (0,),
exactly when the input is feasible.  The replay loop starts from that base
coloring, held as symmetric rows, and applies the recorded duplications
newest first; each appends one row and one entry per row and updates only
the two degrees that change: O(n) per step, O(n^2) in total, no recursion.
The base K_m (m >= 2) is all color 0 and a clone copies its source's edge
to some other vertex, so every vertex sees color 0, the smallest id: an
existing-color bridge is always 0.
"""

from __future__ import annotations

import enum
from bisect import bisect_left
from typing import Sequence

# color_degrees stays importable here: the benchmark's tracer wraps it.
from .coloring import EdgeColoring, color_degrees, normalize_colors  # noqa: F401
from .errors import InfeasibleSequenceError, InternalConsistencyError, SizeGuardError, require_count
from .feasibility import check_sequence, validate_sequence

# Most vertices of a coloring built from a number: K_4096 has 8,386,560
# edges, what uniform_coloring(12) builds; memory grows as n^2.
MAX_VERTICES = 4096


class DuplicationChoice(enum.Enum):
    """How to color the edge between a vertex and its clone."""

    EXISTING_COLOR = "existing"
    FRESH_COLOR = "fresh"


def monochromatic_coloring(n: int) -> EdgeColoring:
    """All edges of K_n in color 0; every color degree is 1 (0 for K_1)."""
    require_count(n, 1, "vertex count")
    return EdgeColoring(n, (0,) * (n * (n - 1) // 2))


def _append_clone(rows: list[list[int]], v: int, bridge: int) -> None:
    """Append a clone of vertex v to symmetric rows (diagonal -1): the clone
    copies v's colors, and the edge {v, clone} gets ``bridge``."""
    clone = rows[v].copy()
    clone[v] = bridge
    for row, c in zip(rows, clone):
        row.append(c)
    clone.append(-1)
    rows.append(clone)


def duplicate_vertex(
    coloring: EdgeColoring, v: int, choice: DuplicationChoice
) -> EdgeColoring:
    """Clone vertex v, appending the copy as vertex n.

    The clone takes v's color toward every other vertex.  The new edge
    {v, clone} gets the smallest color incident to v (EXISTING_COLOR) or
    max color id + 1 (FRESH_COLOR).  All other vertices keep their color
    degree; v and the clone end at deg(v) resp. deg(v) + 1.
    """
    if not isinstance(choice, DuplicationChoice):
        raise ValueError(f"choice must be a DuplicationChoice, got {choice!r}")
    n = coloring.n
    if type(v) is not int or not 0 <= v < n:
        raise ValueError(f"vertex {v} out of range for n={n}")
    rows = coloring.rows()
    if choice is DuplicationChoice.EXISTING_COLOR:
        if n == 1:
            raise ValueError("EXISTING_COLOR requires the vertex to have an edge")
        bridge = min(rows[v][:v] + rows[v][v + 1:])
    else:
        bridge = max(coloring.colors, default=-1) + 1
    _append_clone(rows, v, bridge)
    return EdgeColoring.from_rows(rows)


def realize(values: Sequence[int]) -> EdgeColoring:
    """Produce a normalized Gallai coloring whose sorted color degrees equal
    the given feasible sequence.

    Raises InfeasibleSequenceError (carrying the slack report) when the peel
    is stuck, and SizeGuardError for a feasible sequence longer than
    MAX_VERTICES.  A stuck peel's input is infeasible: a feasible sequence
    peels to feasible ones, and a stuck end fails its last suffix
    inequality.  Conversely a finished peel replays into a Gallai coloring
    (duplication soundness), so the paper's necessity direction makes its
    input feasible.  Deterministic; time and memory are O(n^2).
    """
    given = validate_sequence(values)
    seq = list(given)
    # Schedule: (degree of the vertex to clone, bridge choice), oldest first.
    steps: list[tuple[int, DuplicationChoice]] = []
    while len(seq) > 1 and (t := seq[-1]) > 1:
        m = len(seq) - bisect_left(seq, t)
        if m == 1:
            break
        if m % 2 == 1:
            steps.append((t, DuplicationChoice.EXISTING_COLOR))
        else:
            seq[-m] = t - 1
            steps.append((t - 1, DuplicationChoice.FRESH_COLOR))
        seq.pop()
    if seq != [0] and (len(seq) == 1 or seq[-1] > 1):
        raise InfeasibleSequenceError(check_sequence(given))
    if len(given) > MAX_VERTICES:
        raise SizeGuardError(f"n={len(given)} exceeds the vertex limit {MAX_VERTICES}")

    # Replay from the base: K_1, or K_n in color 0 for the all-ones sequence.
    rows = monochromatic_coloring(len(seq)).rows()
    degrees = seq  # the base coloring's degrees, by vertex
    top = 0  # largest color id in use; the K_1 base takes no step
    for target, choice in reversed(steps):
        try:
            v = degrees.index(target)
        except ValueError:
            raise InternalConsistencyError(
                f"no vertex of degree {target} among {len(rows)} vertices"
            ) from None
        if choice is DuplicationChoice.EXISTING_COLOR:
            bridge = 0
        else:
            top += 1
            bridge = top
            degrees[v] += 1
        degrees.append(degrees[v])
        _append_clone(rows, v, bridge)
    return normalize_colors(EdgeColoring.from_rows(rows))


def chain_coloring(n: int) -> EdgeColoring:
    """Coloring with color(u, v) = min(u, v).

    Triangle i < j < k carries colors (i, i, j), so it is rainbow-free, and
    the sorted degree sequence is [1, 2, ..., n-2, n-1, n-1] for n >= 2.
    Color u first shows at pair (u, u+1), so the colors are already
    normalized.  n is at most MAX_VERTICES.
    """
    require_count(n, 1, "vertex count")
    if n > MAX_VERTICES:
        raise SizeGuardError(f"n={n} exceeds the vertex limit {MAX_VERTICES}")
    colors = []
    for u in range(n):
        colors.extend([u] * (n - 1 - u))
    return EdgeColoring(n, tuple(colors))


def uniform_coloring(d: int) -> EdgeColoring:
    """Coloring of K_{2^d} where every color degree is exactly d.

    Vertices are d-bit strings; the edge {u, v} is colored by the position
    of the most significant bit where u and v differ.  Among the three
    edges of any triangle, the two xor values with the larger top bit
    agree on it, so no triangle is rainbow.  This meets the floor(log2 n)
    minimum-degree bound with equality, and its first suffix slack is 0.
    Bit b first shows at pair (0, 2^b), so the colors are already
    normalized.

    The vertex limit MAX_VERTICES = 2^12 caps d at 12 (8.4 million edges).
    """
    limit = MAX_VERTICES.bit_length() - 1
    require_count(d, 0, "bit count")
    if d > limit:
        raise SizeGuardError(f"bit count {d} exceeds limit {limit}")
    n = 1 << d
    colors = []
    for u in range(n):
        for v in range(u + 1, n):
            colors.append((u ^ v).bit_length() - 1)
    return EdgeColoring(n, tuple(colors))
