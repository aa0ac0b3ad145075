"""Exhaustive ground truth at desk scale.

One walk enumerates every edge coloring of K_n up to color relabeling with
restricted-growth labels: each edge, taken in lexicographic pair order,
either reuses a previous color or introduces the next fresh one.  Since the
pairs (w, u) and (w, v) with w < u both precede (u, v), every triangle is
complete at its lexicographically last edge, so only those triangles need
checking when (u, v) is assigned.  A closing triangle whose two earlier
edges carry colors a != b limits (u, v) to {a, b}; the admissible colors
are the intersection of those pairs, at most two of them, and the node is
cut when it is empty.  Only unconstrained edges may take a fresh color.

``crosscheck`` needs only the sorted degree sequences, so it runs a second
copy of the walk that keeps only colorings whose vertices come in
nondecreasing key order, the key being a vertex's color degree and then
its sorted color counts.  The sweep carries, per vertex, a count of each
incident color and the color degree: assigning c to (u, v) raises the
counts of c at u and v and a degree whose count goes from 0 to 1, and
backtracking undoes both, so keys compare and a leaf holds its degrees
without a pass over its edges.  Relabeling vertices and colors leaves
every key as it is, and sorting the vertices by key puts any coloring in
that order, so no sequence is lost; the leaf's degrees are already
sorted.  A row stops as soon as its vertex can no longer reach the degree
of the one before it.  At n = 6 the sweep visits 2,645 of the 44,300
colorings and ``crosscheck(6)`` takes about 65 ms, against 170 ms when it
read every coloring of the full walk; at n = 7 it visits 37,373 and takes
about 2 s (2-vCPU VM, Python 3.11).

The enumeration, the crosscheck and the brute-force partition search are
each small enough to serve as an independent referee for the analytic
modules.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

# color_degrees stays importable here: the benchmark's tracer wraps it.
from .coloring import EdgeColoring, color_degrees, find_rainbow_triangle  # noqa: F401
from .errors import InternalConsistencyError, NotGallaiError, SizeGuardError, require_count
from .feasibility import check_sequence

# n = 6: 44,300 colorings, which enumerate_gallai yields in about 0.3 s;
# n = 7 has 2,685,365 and takes about 18 s (2-vCPU VM, Python 3.11).
# crosscheck keeps the same limit, though its key-ordered sweep takes
# about 2 s at n = 7.
ENUMERATION_SIZE_LIMIT = 6
PARTITION_SIZE_LIMIT = 10


@dataclass(frozen=True)
class EnumerationStats:
    """Count of the Gallai colorings of K_n that crosscheck's sweep visits
    up to color relabeling, those in vertex key order, plus the set of
    sorted degree sequences they realize."""

    n: int
    count: int
    sequences: frozenset[tuple[int, ...]]


@dataclass(frozen=True)
class CrosscheckResult:
    """Outcome of comparing realizable sequences against feasible ones."""

    n: int
    equal: bool
    realizable: frozenset[tuple[int, ...]]
    feasible: frozenset[tuple[int, ...]]

    @property
    def only_realizable(self) -> frozenset[tuple[int, ...]]:
        return self.realizable - self.feasible

    @property
    def only_feasible(self) -> frozenset[tuple[int, ...]]:
        return self.feasible - self.realizable


@dataclass
class GallaiPartition:
    """A nontrivial vertex partition with monochromatic part pairs and at
    most two colors between parts in total.

    ``part_pair_color`` maps index pairs (i, j), i < j, of ``parts`` to the
    single color joining them.
    """

    parts: tuple[tuple[int, ...], ...]
    cross_colors: frozenset[int]
    part_pair_color: dict[tuple[int, int], int]


def _check_size(n: int) -> None:
    require_count(n, 1, "n")
    if n > ENUMERATION_SIZE_LIMIT:
        raise SizeGuardError(
            f"n={n} exceeds the enumeration limit {ENUMERATION_SIZE_LIMIT}"
        )


def _tables(n: int) -> tuple[list[tuple[int, int]], list[list[tuple[int, int]]]]:
    """The pairs of K_n in lexicographic order, and for each pair (u, v) the
    edge indices of the triangles {w, u, v}, w < u, that it completes."""
    pairs = list(itertools.combinations(range(n), 2))
    index = {p: i for i, p in enumerate(pairs)}
    closing = [
        [(index[(w, u)], index[(w, v)]) for w in range(u)] for u, v in pairs
    ]
    return pairs, closing


def enumerate_gallai(n: int) -> Iterator[EdgeColoring]:
    """Yield every Gallai coloring of K_n exactly once up to color relabeling.

    Colorings come out in restricted-growth order and are already in
    normalized (first-appearance) color form.  Deterministic.  A bad n
    raises when called, before the first coloring is asked for.
    """
    _check_size(n)
    pairs, closing = _tables(n)
    colors = [0] * len(pairs)

    def extend(e: int, used: int) -> Iterator[EdgeColoring]:
        if e == len(pairs):
            yield EdgeColoring(n, tuple(colors))
            return
        # Bit c of ``allowed`` admits color c; -1 means no closing triangle
        # constrains e yet.
        allowed = -1
        for ea, eb in closing[e]:
            a, b = colors[ea], colors[eb]
            if a != b:
                allowed &= (1 << a) | (1 << b)
                if not allowed:
                    return
        if allowed == -1:
            options = range(used + 1)
        else:
            low = (allowed & -allowed).bit_length() - 1
            high = allowed.bit_length() - 1
            options = (low,) if low == high else (low, high)
        for c in options:
            colors[e] = c
            yield from extend(e + 1, used + (c == used))

    return extend(0, 0)


def _ordered_stats(n: int) -> EnumerationStats:
    """The walk restricted to colorings whose vertices come in nondecreasing
    key order, the key of a vertex being its color degree and then its
    sorted color counts.

    The key survives any relabeling of vertices or colors, and sorting the
    vertices by key relabels every Gallai coloring into that order, so the
    sequences are those of the full walk.  ``count`` is the number of
    key-ordered colorings up to color relabeling, so a weaker key (the
    degree alone) finds the same sequences but not the same count.  No
    size guard: the caller decides what it can afford.
    """
    pairs, closing = _tables(n)
    last = len(pairs) - 1
    colors = [0] * len(pairs)
    counts = [[0] * len(pairs) for _ in range(n)]  # counts[v][c]
    degrees = [0] * n
    sequences = set()
    count = 0

    def below(v: int, k: int) -> bool:
        # key(v) < key(v-1), where colors k and up are still unused
        if degrees[v] != degrees[v - 1]:
            return degrees[v] < degrees[v - 1]
        return sorted(counts[v][:k]) < sorted(counts[v - 1][:k])

    def extend(e: int, used: int) -> None:
        nonlocal count
        if e > last:
            count += 1
            sequences.add(tuple(degrees))  # key order sorts the degrees
            return
        allowed = -1
        for ea, eb in closing[e]:
            a, b = colors[ea], colors[eb]
            if a != b:
                allowed &= (1 << a) | (1 << b)
                if not allowed:
                    return
        if allowed == -1:
            options = range(used + 1)
        else:
            low = (allowed & -allowed).bit_length() - 1
            high = allowed.bit_length() - 1
            options = (low,) if low == high else (low, high)
        u, v = pairs[e]
        count_u, count_v = counts[u], counts[v]
        for c in options:
            colors[e] = c
            count_u[c] += 1
            if count_u[c] == 1:
                degrees[u] += 1
            count_v[c] += 1
            if count_v[c] == 1:
                degrees[v] += 1
            # Vertex u - 1 is complete.  Each edge still open in row u can
            # raise degrees[u] by one at most; the row's last edge completes
            # u, and the walk's last edge also completes v = n - 1.
            if not (
                u
                and (
                    degrees[u] + n - 1 - v < degrees[u - 1]
                    or v == n - 1 and below(u, used + 1)
                )
                or e == last and below(v, used + 1)
            ):
                extend(e + 1, used + (c == used))
            count_u[c] -= 1
            if not count_u[c]:
                degrees[u] -= 1
            count_v[c] -= 1
            if not count_v[c]:
                degrees[v] -= 1

    extend(0, 0)
    return EnumerationStats(n=n, count=count, sequences=frozenset(sequences))


def candidate_sequences(n: int) -> Iterator[tuple[int, ...]]:
    """All nondecreasing candidate sequences of length n with entries in
    [1, n-1]; for n = 1 the only candidate is (0,).  Checks n when called."""
    require_count(n, 1, "n")
    if n == 1:
        return iter([(0,)])
    return itertools.combinations_with_replacement(range(1, n), n)


def crosscheck(n: int) -> CrosscheckResult:
    """Compare realizable degree sequences against feasible candidates.

    The two sets agree for every n (this is the characterization); the
    result carries both sets so a disagreement can be inspected.
    """
    _check_size(n)
    realizable = _ordered_stats(n).sequences
    feasible = frozenset(
        seq for seq in candidate_sequences(n) if check_sequence(seq).feasible
    )
    return CrosscheckResult(
        n=n, equal=realizable == feasible, realizable=realizable, feasible=feasible
    )


def _partitions_by_block_count(n: int) -> Iterator[list[list[int]]]:
    """Set partitions of range(n), ordered by number of parts ascending and
    then lexicographically by restricted-growth string."""
    labels = [0] * n

    def assign(i: int, top: int, k: int) -> Iterator[list[list[int]]]:
        if i == n:  # the pruning below leaves top == k - 1 at every leaf
            parts: list[list[int]] = [[] for _ in range(k)]
            for v, a in enumerate(labels):
                parts[a].append(v)
            yield parts
            return
        # a fresh label is only allowed while k labels remain reachable
        for a in range(min(top + 1, k - 1) + 1):
            if k - 1 - max(top, a) > n - 1 - i:
                continue
            labels[i] = a
            yield from assign(i + 1, max(top, a), k)

    for k in range(2, n + 1):
        yield from assign(1, 0, k)


def brute_force_gallai_partition(coloring: EdgeColoring) -> GallaiPartition:
    """First vertex partition (parts ascending, then lexicographic) whose
    part pairs are each monochromatic with at most two cross colors total.

    Existence is guaranteed for every rainbow-free coloring, so exhausting
    the scan without a hit is an internal failure, not a normal outcome.
    """
    n = coloring.n
    if n < 2:
        raise ValueError("need at least two vertices")
    if n > PARTITION_SIZE_LIMIT:
        raise SizeGuardError(f"n={n} exceeds the partition limit {PARTITION_SIZE_LIMIT}")
    witness = find_rainbow_triangle(coloring)
    if witness is not None:
        raise NotGallaiError(witness)

    rows = coloring.rows()
    for parts in _partitions_by_block_count(n):
        cross_colors: set[int] = set()
        part_pair_color: dict[tuple[int, int], int] = {}
        for i, j in itertools.combinations(range(len(parts)), 2):
            joining = {rows[u][v] for u in parts[i] for v in parts[j]}
            if len(joining) != 1:
                break
            color = joining.pop()
            part_pair_color[(i, j)] = color
            cross_colors.add(color)
            if len(cross_colors) > 2:
                break
        else:
            return GallaiPartition(
                parts=tuple(tuple(p) for p in parts),
                cross_colors=frozenset(cross_colors),
                part_pair_color=part_pair_color,
            )
    raise InternalConsistencyError(
        "no valid partition found for a rainbow-free coloring"
    )
