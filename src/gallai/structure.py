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

from .coloring import EdgeColoring, color_degrees, find_rainbow_triangle
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
    n = coloring.n
    adjacency: list[list[int]] = [[] for _ in range(n)]
    for u, v, c in coloring.pairs():
        if c == color:
            adjacency[u].append(v)
            adjacency[v].append(u)
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
            for y in adjacency[x]:
                if not seen[y]:
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
    for color in sorted(coloring.color_set()):
        split = color_component_split(coloring, color)
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
    recomputed = color_component_split(coloring, split.color)
    if recomputed != split:
        raise ValueError("split does not match the coloring")
    if not 0 <= which < len(split.components):
        raise ValueError(f"component index {which} out of range")
    merged = set(split.components[which])
    outside = [v for v in range(coloring.n) if v not in merged]
    if not outside:
        raise ValueError("component must be a proper subset of the vertices")

    outside_colors = {}
    for w in outside:
        into = {coloring.color(w, a) for a in merged}
        if len(into) != 1:
            raise IllDefinedMergeError(
                f"vertex {w} sees colors {sorted(into)} into the component; "
                "was the split taken from a rainbow-free coloring?"
            )
        outside_colors[w] = into.pop()

    # Upper triangle of the reduced coloring, row by row: outside vertex i
    # toward the later outside vertices, then toward the merged node m.
    m = len(outside)
    colors: list[int] = []
    for i, w in enumerate(outside):
        colors.extend(coloring.color(w, x) for x in outside[i + 1:])
        colors.append(outside_colors[w])
    reduced = EdgeColoring(m + 1, tuple(colors))
    return CompressionResult(
        reduced=reduced,
        compressed_vertex=m,
        outside_color_count=len(set(outside_colors.values())),
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
    degrees = color_degrees(coloring)
    rows = []
    for v in merged:
        within = {coloring.color(v, u) for u in merged if u != v}
        rows.append((v, degrees[v], len(within)))
    return rows


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
    degrees = color_degrees(coloring)
    apexes = [v for v in range(n) if degrees[v] == n - 1]
    if not apexes:
        raise ValueError(f"no vertex of color degree {n - 1}")
    apex = max(apexes)
    rest = [v for v in range(n) if v != apex]

    wins = {v: 0 for v in rest}
    orientation: dict[tuple[int, int], int] = {}
    for idx, i in enumerate(rest):
        for j in rest[idx + 1 :]:
            c = coloring.color(i, j)
            if c == coloring.color(i, apex):
                wins[i] += 1
                orientation[(i, j)] = i
            elif c == coloring.color(j, apex):
                wins[j] += 1
                orientation[(i, j)] = j
            else:
                raise InternalConsistencyError(
                    f"edge ({i}, {j}) matches neither apex color; "
                    "rainbow triangle with the apex"
                )

    order = tuple(sorted(rest, key=lambda v: (-wins[v], v)))
    for idx, i in enumerate(order):
        for j in order[idx + 1 :]:
            key = (i, j) if i < j else (j, i)
            if orientation[key] != i:
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
    first offending (k, i).
    """
    degrees = color_degrees(coloring)
    order = sorted(range(coloring.n), key=lambda v: (degrees[v], v))
    n = len(order)
    for k in range(2, n + 1):
        bound = degrees[order[k - 2]]
        for i in range(k, n + 1):
            v = order[i - 1]
            back_colors = {coloring.color(v, order[p]) for p in range(k - 1)}
            if len(back_colors) > bound:
                return PrefixBoundReport(ok=False, violation=(k, i))
    return PrefixBoundReport(ok=True, violation=None)
