"""Structural features of rainbow-triangle-free colorings.

Rainbow-free colorings with at least three colors always contain a color
whose spanning subgraph is disconnected.  Each connected component A of
such a color looks monochromatic from outside: every vertex w outside A
sees all of A in a single color, so A can be compressed into one node.
Colorings containing a vertex adjacent to all distinct colors (an apex)
are rigid: the remaining vertices order themselves into a transitive
tournament whose row degrees are 1, 2, ..., n-1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

# color_degrees stays importable here: the benchmark's tracer wraps it.
from .coloring import EdgeColoring, color_degrees, find_rainbow_triangle, row_degrees  # noqa: F401
from .errors import IllDefinedMergeError, InternalConsistencyError, NotGallaiError


@dataclass(frozen=True)
class ColorComponentSplit:
    """A color whose spanning subgraph (on all n vertices) is disconnected.

    ``components`` partitions all vertices into the connected components of
    the subgraph containing exactly this color's edges; vertices untouched
    by the color are singleton components.  Components are sorted by their
    smallest vertex.
    """

    color: int
    components: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class CompressionResult:
    """One component merged into a single node.

    The surviving outside vertices keep their relative order at indices
    0..m-1; the merged node is ``compressed_vertex`` (the last index).
    ``outside_color_count`` is the number of distinct colors with which
    outside vertices see the compressed component.
    """

    reduced: EdgeColoring
    compressed_vertex: int
    outside_color_count: int


def color_component_split(coloring: EdgeColoring, color: int) -> ColorComponentSplit | None:
    """Component structure of one color's spanning subgraph, or None if the
    subgraph is connected.  The color must appear in the coloring."""
    if color not in coloring.color_set():
        raise ValueError(f"color {color} does not appear in the coloring")
    return _split(coloring.rows(), color)


def _split(rows: list[list[int]], color: int) -> ColorComponentSplit | None:
    """``color_component_split`` on the rows of a coloring: a depth-first
    search that scans the row of each vertex it reaches once."""
    n = len(rows)
    seen = [False] * n
    components = []
    for start in range(n):
        if seen[start]:
            continue
        stack = [start]
        seen[start] = True
        comp = []
        while stack:
            x = stack.pop()
            comp.append(x)
            for y, c in enumerate(rows[x]):
                if c == color and not seen[y]:
                    seen[y] = True
                    stack.append(y)
        components.append(tuple(sorted(comp)))
    if len(components) < 2:
        return None
    return ColorComponentSplit(color, tuple(components))


def find_disconnected_color(coloring: EdgeColoring) -> ColorComponentSplit | None:
    """Smallest color id spanning a disconnected subgraph, with components.

    Guaranteed to find one when the (rainbow-free) coloring uses at least
    three colors; may also succeed with fewer.  Rejects colorings with a
    rainbow triangle, since the guarantee only covers Gallai colorings.
    """
    if coloring.n < 2:
        raise ValueError("need at least two vertices")
    witness = find_rainbow_triangle(coloring)
    if witness is not None:
        raise NotGallaiError(witness)
    rows = coloring.rows()
    for color in sorted(coloring.color_set()):
        split = _split(rows, color)
        if split is not None:
            return split
    return None


def compress_component(
    coloring: EdgeColoring, split: ColorComponentSplit, which: int
) -> CompressionResult:
    """Merge one component of a disconnected color into a single node.

    Every outside vertex sees the component in one color (guaranteed for
    rainbow-free input); that color becomes its edge to the merged node,
    and all other edges are untouched.  Outside vertices are reindexed in
    ascending order, the merged node comes last.
    """
    rows = coloring.rows()
    if split.color not in coloring.color_set() or _split(rows, split.color) != split:
        raise ValueError("split does not match the coloring")
    if not 0 <= which < len(split.components):
        raise ValueError(f"component index {which} out of range")
    merged = set(split.components[which])
    outside = [v for v in range(coloring.n) if v not in merged]
    if not outside:
        raise ValueError("component must be a proper subset of the vertices")

    reduced_rows = []
    outside_colors = []
    for w in outside:
        row = rows[w]
        into = {row[a] for a in merged}
        if len(into) != 1:
            raise IllDefinedMergeError(
                f"vertex {w} sees colors {sorted(into)} into the component; "
                "was the split taken from a rainbow-free coloring?"
            )
        c = into.pop()
        outside_colors.append(c)
        reduced_rows.append([row[x] for x in outside] + [c])
    reduced_rows.append(outside_colors + [-1])
    return CompressionResult(
        reduced=EdgeColoring.from_rows(reduced_rows),
        compressed_vertex=len(outside),
        outside_color_count=len(set(outside_colors)),
    )


def compression_degree_bounds(
    coloring: EdgeColoring, split: ColorComponentSplit, which: int
) -> list[tuple[int, int, int]]:
    """Per-vertex degree accounting for one compression.

    For each vertex v of the chosen component, returns
    (v, color degree in the full coloring, color degree within the
    component).  The full degree never exceeds the within-component degree
    plus the compression's outside_color_count, since v's outside edges
    carry exactly the outside colors.
    """
    merged = split.components[which]
    rows = coloring.rows()
    degrees = row_degrees(rows)
    return [(v, degrees[v], len({rows[v][u] for u in merged if u != v})) for v in merged]


class ChainOrder(NamedTuple):
    """An apex plus a row ordering of the remaining vertices such that the
    i-th row vertex (1-indexed) has color degree exactly i."""

    apex: int
    order: tuple[int, ...]


def recover_chain_order(coloring: EdgeColoring) -> ChainOrder:
    """Reconstruct the transitive order forced by a full-degree vertex.

    The apex (chosen as the highest-indexed vertex of color degree n-1)
    sees distinct colors toward all others, so each remaining edge {i, j}
    must reuse the apex color of i or of j; orienting i -> j in the first
    case yields a tournament without directed triangles.  Sorting by win
    count recovers the row; its color degrees are verified to be exactly
    1, 2, ..., n-1 before returning.
    """
    n = coloring.n
    if n < 2:
        raise ValueError("need at least two vertices")
    rows = coloring.rows()
    degrees = row_degrees(rows)
    apexes = [v for v in range(n) if degrees[v] == n - 1]
    if not apexes:
        raise ValueError(f"no vertex of color degree {n - 1}")
    apex = max(apexes)
    rest = [v for v in range(n) if v != apex]

    apex_row = rows[apex]
    wins = {v: 0 for v in rest}
    for idx, i in enumerate(rest):
        row_i = rows[i]
        for j in rest[idx + 1 :]:
            c = row_i[j]
            if c == apex_row[i]:
                wins[i] += 1
            elif c == apex_row[j]:
                wins[j] += 1
            else:
                raise InternalConsistencyError(
                    f"edge ({i}, {j}) matches neither apex color; "
                    "rainbow triangle with the apex"
                )

    order = tuple(sorted(rest, key=lambda v: (-wins[v], v)))
    # apex colors are pairwise distinct, so i -> j exactly when the edge
    # reuses the apex color of i
    for idx, i in enumerate(order):
        row_i, own = rows[i], apex_row[i]
        for j in order[idx + 1 :]:
            if row_i[j] != own:
                raise InternalConsistencyError("tournament is not transitive")
    for pos, v in enumerate(order, start=1):
        if degrees[v] != pos:
            raise InternalConsistencyError(
                f"row vertex {v} has degree {degrees[v]}, expected {pos}"
            )
    return ChainOrder(apex=apex, order=order)


@dataclass(frozen=True)
class PrefixBoundReport:
    """Verdict of the prefix-color bound; ``violation`` is the first (k, i)
    pair breaking it, in sorted 1-based indexing, or None."""

    ok: bool
    violation: tuple[int, int] | None


def prefix_color_bound_report(coloring: EdgeColoring) -> PrefixBoundReport:
    """Check that, with vertices sorted by color degree, at most d(k-1)
    distinct colors run from any vertex i >= k back to vertices 1..k-1.

    Holds for every rainbow-free coloring; a violation is reported as the
    first offending (k, i), k ascending, then i ascending.  The sets grow
    incrementally: sorted position i keeps the colors it sends back to the
    prefix, and step k adds the one edge toward vertex k-1 before comparing
    with d(k-1).  Each pair is added once, so the cost is O(n^2).
    """
    rows = coloring.rows()
    degrees = row_degrees(rows)
    order = sorted(range(coloring.n), key=lambda v: (degrees[v], v))
    n = len(order)
    back: list[set[int]] = [set() for _ in range(n)]
    for k in range(2, n + 1):
        p = order[k - 2]
        bound, row_p = degrees[p], rows[p]
        for i in range(k, n + 1):
            colors = back[i - 1]
            colors.add(row_p[order[i - 1]])
            if len(colors) > bound:
                return PrefixBoundReport(ok=False, violation=(k, i))
    return PrefixBoundReport(ok=True, violation=None)
