"""Edge colorings of complete graphs and their basic color-degree toolkit.

An edge coloring assigns a nonnegative color id to every unordered pair of
distinct vertices of K_n.  The color degree of a vertex is the number of
distinct colors on its incident edges.  A coloring is *Gallai* when no
triangle carries three pairwise-distinct colors (no rainbow triangle).

The stored form of a coloring is the flat tuple of its upper triangle.
``upper_rows()`` is the one walk over it, one row slice at a time: the
rainbow scan and the document writers read those slices, and ``rows()``
builds from them the symmetric matrix that per-vertex readers index.
``from_rows()`` reads that matrix back.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence


@dataclass(frozen=True)
class EdgeColoring:
    """Complete symmetric edge coloring of K_n.

    Stored as the upper triangle in lexicographic pair order: entry for the
    pair (u, v) with u < v sits at index u*n - u*(u+1)//2 + (v - u - 1).
    Values are immutable after construction and safe to share.
    """

    n: int
    colors: tuple[int, ...]

    def __post_init__(self):
        # bool is an int subclass that no document can spell
        if type(self.n) is not int or self.n < 1:
            raise ValueError(f"vertex count must be an integer >= 1, got {self.n!r}")
        # a list or range would compare unequal to the same tuple, fail to
        # hash, or change after this check
        if type(self.colors) is not tuple:
            raise ValueError(
                f"colors must be a tuple, got {type(self.colors).__name__}"
            )
        expected = self.n * (self.n - 1) // 2
        if len(self.colors) != expected:
            raise ValueError(
                f"expected {expected} edge colors for n={self.n}, "
                f"got {len(self.colors)}"
            )
        # two C-level passes keep the common case cheap; only a failing
        # coloring is walked in Python to name its first bad color
        if set(map(type, self.colors)) - {int} or min(self.colors, default=0) < 0:
            bad = next(c for c in self.colors if type(c) is not int or c < 0)
            raise ValueError(f"color ids must be nonnegative integers, got {bad!r}")

    def _index(self, u: int, v: int) -> int:
        if u > v:
            u, v = v, u
        if type(u) is not int or type(v) is not int or u < 0 or v >= self.n or u == v:
            raise ValueError(f"invalid vertex pair ({u}, {v}) for n={self.n}")
        return u * self.n - u * (u + 1) // 2 + (v - u - 1)

    def color(self, u: int, v: int) -> int:
        """Color of the edge {u, v}; symmetric in its arguments."""
        return self.colors[self._index(u, v)]

    def upper_rows(self) -> Iterator[tuple[int, ...]]:
        """Yield, for u = 0..n-1, the colors of u's edges toward
        v = u+1..n-1 in that order; joined end to end they are ``colors``."""
        start = 0
        for width in range(self.n - 1, -1, -1):
            yield self.colors[start:start + width]
            start += width

    def rows(self) -> list[list[int]]:
        """The symmetric n x n color matrix as fresh row lists, with -1 on
        the diagonal: ``rows()[u][v] == color(u, v)`` for u != v."""
        n = self.n
        rows = [[-1] * n for _ in range(n)]
        for u, upper in enumerate(self.upper_rows()):
            row = rows[u]
            row[u + 1:] = upper
            for v in range(u + 1, n):
                rows[v][u] = row[v]
        return rows

    def color_set(self) -> set[int]:
        """The set of color ids that actually appear."""
        return set(self.colors)

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "EdgeColoring":
        """Inverse of ``rows()``: the coloring whose entry for u < v is
        ``rows[u][v]``.  Only the upper triangle of the square matrix is read."""
        n = len(rows)
        if any(len(row) != n for row in rows):
            raise ValueError(f"expected {n} rows of length {n}")
        colors: list[int] = []
        for u, row in enumerate(rows):
            colors.extend(row[u + 1:])
        return cls(n, tuple(colors))


@dataclass(frozen=True)
class RainbowWitness:
    """A triangle whose three edges carry pairwise-distinct colors.

    ``vertices`` is an ordered triple i < j < k and ``colors`` holds the
    coloring's values on {i,j}, {i,k}, {j,k} in that order.
    """

    vertices: tuple[int, int, int]
    colors: tuple[int, int, int]


def row_degrees(rows: list[list[int]]) -> list[int]:
    """Color degrees read off ``EdgeColoring.rows()``: the distinct entries
    of each row, less the diagonal's -1."""
    return [len(set(row)) - 1 for row in rows]


def color_degrees(coloring: EdgeColoring) -> list[int]:
    """Per-vertex color degrees, indexed by vertex (unsorted).

    Entry v counts the distinct colors on edges incident to v; a single
    vertex has degree 0.
    """
    return row_degrees(coloring.rows())


def find_rainbow_triangle(coloring: EdgeColoring) -> RainbowWitness | None:
    """Lexicographically smallest rainbow triangle, or None if none exists.

    One pass over the stored colors builds the bitmask M_c(u) of u's
    neighbors v > u in color c.  For each pair i < j in lexicographic
    order, with a = c(i, j) read from row i's slice, the vertices k > j
    closing a rainbow triangle lie outside M_a(i) | M_a(j) and outside
    M_c(i) & M_c(j) for every shared color c; the lowest is the witness a
    scan of all triples in order finds.  Cost: O(n^2) setup, then per pair
    at most min(deg i, deg j) operations on n-bit masks.
    """
    n = coloring.n
    bits = [1 << v for v in range(n)]
    masks: list[dict[int, int]] = []
    for u, upper in enumerate(coloring.upper_rows()):
        own: dict[int, int] = {}
        get = own.get
        for bit, c in zip(bits[u + 1:], upper):
            own[c] = get(c, 0) | bit
        masks.append(own)
    above = [(1 << n) - (bit << 1) for bit in bits]  # the vertices past each one
    for i, (row_i, masks_i) in enumerate(zip(coloring.upper_rows(), masks)):
        for j, a in zip(range(i + 1, n - 1), row_i):
            masks_j = masks[j]
            # masks_i[a] holds j; above[j] keeps k > j
            candidates = above[j] & ~(masks_i[a] | masks_j.get(a, 0))
            if not candidates:
                continue
            if len(masks_i) <= len(masks_j):
                small, large = masks_i, masks_j
            else:
                small, large = masks_j, masks_i
            for c, mask in small.items():
                if c in large:
                    candidates &= ~(mask & large[c])
                    if not candidates:
                        break
            if candidates:
                k = (candidates & -candidates).bit_length() - 1
                return RainbowWitness((i, j, k), (a, coloring.color(i, k), coloring.color(j, k)))
    return None


def is_gallai(coloring: EdgeColoring) -> bool:
    """True iff the coloring contains no rainbow triangle."""
    return find_rainbow_triangle(coloring) is None


def normalize_colors(coloring: EdgeColoring) -> EdgeColoring:
    """Relabel colors to 0..C-1 in order of first appearance.

    Pairs are scanned in lexicographic order, so the result is a canonical
    representative of the coloring up to color bijection.  Idempotent.
    """
    relabel: dict[int, int] = {}
    out = []
    for c in coloring.colors:
        if c not in relabel:
            relabel[c] = len(relabel)
        out.append(relabel[c])
    return EdgeColoring(coloring.n, tuple(out))
