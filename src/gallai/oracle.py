"""Exhaustive ground truth at desk scale.

The sweep walks the edge colorings of K_n up to color relabeling with
restricted-growth labels: each edge, taken in lexicographic pair order,
either reuses a previous color or introduces the next fresh one.  Since the
pairs (w, u) and (w, v) with w < u both precede (u, v), every triangle is
complete at its lexicographically last edge, so only those triangles need
checking when (u, v) is assigned.  A closing triangle whose two earlier
edges carry colors a != b limits (u, v) to {a, b}; the admissible colors
are the intersection of those pairs, at most two of them, and the node is
cut when it is empty.  Only unconstrained edges may take a fresh color.

``crosscheck`` needs only the sorted degree sequences, so the sweep keeps
one coloring or more of each class under relabeling of vertices and
colors: it cuts a branch as soon as swapping two adjacent vertices is
known to give a lexicographically smaller normalized color string (a
lex-leader cut, after Crawford, Ginsberg, Luks and Roy, "Symmetry-breaking
predicates for search problems", KR 1996).  The least string of each
class passes every such test, so no sequence is lost; ``_sweep`` says
how each swap is decided.  It hands each leaf, its edge colors and its
vertex degrees, to a function.  It carries, per vertex, a count of each
incident color and the color degree: assigning c to (u, v) raises the
counts of c at u and v and a degree whose count goes from 0 to 1, and
backtracking undoes both, so a leaf holds its degrees without a pass
over its edges; ``crosscheck`` sorts them.

The partition search wants the first Gallai partition in the order of a
generator of all set partitions: by part count, then by restricted-growth
string.  It walks those strings for each part count, vertex by vertex,
lowest label first, and cuts a branch at the first edge between two parts
whose color is not the one joining the parts' leaders, their smallest
vertices; ``brute_force_gallai_partition`` says why its first leaf is the
generator's first hit.

The crosscheck and the brute-force partition search are each small enough
to serve as an independent referee for the analytic modules.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterator

# color_degrees stays importable here: the benchmark's tracer wraps it.
from .coloring import EdgeColoring, color_degrees, find_rainbow_triangle  # noqa: F401
from .errors import InternalConsistencyError, NotGallaiError, SizeGuardError, require_count
from .feasibility import check_sequence

# crosscheck's sweep visits 1,929 colorings at n = 6 (9-16 ms), 29,307 at
# n = 7 (0.18-0.27 s) and 537,977 at n = 8 (3.3-4.1 s) (2-vCPU VM,
# Python 3.11).  n = 9 waits for a sweep up to vertex isomorphism
# (ROADMAP.md item 5).
ENUMERATION_SIZE_LIMIT = 8
# The partition walk is still exponential in n at worst, and ROADMAP.md
# item 3 keeps its choice as the CLI's answer for n <= 10.  To its first
# hit it takes at most 0.5 ms on realize's outputs at n = 10 and at most
# 5 ms on random two-colorings at n = 10-12 (2-vCPU VM, Python 3.11).
PARTITION_SIZE_LIMIT = 10


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


def _sweep(n: int, leaf: Callable[[list[int], list[int]], None]) -> None:
    """The walk restricted to colorings that no adjacent vertex swap makes
    smaller.  Calls ``leaf(colors, degrees)`` once per such coloring up to
    color relabeling; both lists are the sweep's own, so a leaf copies what
    it keeps, and the degrees come in vertex order, unsorted.

    The rule.  Let x be the restricted-growth string of a coloring and s
    the swap of vertices t - 1 and t, for some t in 1..n-1.  Let p be the
    first pair, in lexicographic order, whose color differs from that of
    s(p), and f_p the number of colors in x before p.  The prefix of x
    before p is also that of the swapped coloring and uses colors 0..f_p-1,
    so the swapped and renormalized string holds min(x(s(p)), f_p) at p,
    and the coloring is cut when that is less than x(p).  Since
    x(p) <= f_p, that happens exactly when x(s(p)) < x(p).  In the tie,
    x(s(p)) >= f_p = x(p), both labels are fresh and equal, and nothing is
    cut for that swap.  The pairs s moves come in this order: (w, t - 1)
    against (w, t) for w < t - 1, then (t - 1, z) against (t, z) for
    z > t.  Each comparison is decided when its later edge is assigned,
    and only while every earlier one of its swap matched, which the
    bitmask ``tied`` tracks, so a cut drops the whole subtree: each
    completion has the same first difference.

    Why no sequence is lost.  Take any class of colorings under vertex and
    color relabeling.  Its lexicographically least normalized string is a
    Gallai coloring, and a swap of it stays in the class, so no swap makes
    it smaller: it is never cut and stays a leaf.  Every leaf is still a
    Gallai coloring, so no foreign sequence can appear.  No size guard:
    the caller decides what it can afford.
    """
    pairs = list(itertools.combinations(range(n), 2))
    index = {p: i for i, p in enumerate(pairs)}
    # closing[e]: the edge indices of the triangles {w, u, v}, w < u, that
    # the pair e = (u, v) completes
    closing = [[(index[(w, u)], index[(w, v)]) for w in range(u)] for u, v in pairs]
    # swaps[e]: (bit t of the swap of t - 1 and t, edge p) for each
    # comparison of x(p) against x(e) that e = (u, v) decides: the swaps
    # of u - 1 and u, and of v - 1 and v
    swaps: list[list[tuple[int, int]]] = []
    for u, v in pairs:
        swaps.append([])
        if u:
            swaps[-1].append((1 << u, index[(u - 1, v)]))
        if u < v - 1:
            swaps[-1].append((1 << v, index[(u, v - 1)]))
    last = len(pairs) - 1
    colors = [0] * len(pairs)
    counts = [[0] * len(pairs) for _ in range(n)]  # counts[v][c]
    degrees = [0] * n

    def extend(e: int, used: int, tied: int) -> None:
        if e > last:
            leaf(colors, degrees)
            return
        allowed = -1
        for ea, eb in closing[e]:
            a, b = colors[ea], colors[eb]
            if a != b:
                allowed &= (1 << a) | (1 << b)
                if not allowed:
                    return
        # a color below x(p) of a still tied comparison is cut
        compared = [(bit, colors[p]) for bit, p in swaps[e] if tied & bit]
        floor = max([before for _, before in compared], default=0)
        if allowed == -1:
            options = range(floor, used + 1)
        else:
            low = (allowed & -allowed).bit_length() - 1
            high = allowed.bit_length() - 1
            options = [c for c in ((low,) if low == high else (low, high)) if c >= floor]
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
            still = tied
            for bit, before in compared:
                if c != before:
                    still &= ~bit
            extend(e + 1, used + (c == used), still)
            count_u[c] -= 1
            if not count_u[c]:
                degrees[u] -= 1
            count_v[c] -= 1
            if not count_v[c]:
                degrees[v] -= 1

    extend(0, 0, -1)


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
    require_count(n, 1, "n")
    if n > ENUMERATION_SIZE_LIMIT:
        raise SizeGuardError(f"n={n} exceeds the enumeration limit {ENUMERATION_SIZE_LIMIT}")
    sequences: set[tuple[int, ...]] = set()
    _sweep(n, lambda colors, degrees: sequences.add(tuple(sorted(degrees))))
    realizable = frozenset(sequences)
    feasible = frozenset(
        seq for seq in candidate_sequences(n) if check_sequence(seq).feasible
    )
    return CrosscheckResult(
        n=n, equal=realizable == feasible, realizable=realizable, feasible=feasible
    )


def _first_labels(rows: list[list[int]], k: int) -> list[int] | None:
    """The first restricted-growth labeling of the vertices with k labels
    whose part pairs are each joined in one color, or None.  ``rows`` is
    the color matrix of ``EdgeColoring.rows()``.

    ``leaders[a]`` is part a's smallest vertex, written when it opens label
    a; a label above the walk's top is never read, so backtracking undoes
    nothing.  Vertex i takes label a only if its edge to each earlier u of
    another part b has the leaders' color ``rows[l_a][l_b]``, l_a being i
    for a fresh label.  Checking each edge against the first edge met
    between its parts accepts the same placements: that edge is met when
    the later leader's ascending scan reaches the other leader.
    """
    n = len(rows)
    labels = [0] * n
    leaders = [0] * k

    def place(i: int, top: int) -> bool:
        if i == n:  # the reach test leaves top == k - 1 here
            return True
        row = rows[i]
        for a in range(min(top + 1, k - 1) + 1):
            # a fresh label is only allowed while k labels remain reachable
            if k - 1 - max(top, a) > n - 1 - i:
                continue
            if a > top:
                leaders[a] = i
            lead = rows[leaders[a]]
            for u in range(i):
                b = labels[u]
                if b != a and row[u] != lead[leaders[b]]:
                    break
            else:
                labels[i] = a
                if place(i + 1, max(top, a)):
                    return True
        return False

    return labels if place(1, 0) else None


def brute_force_gallai_partition(coloring: EdgeColoring) -> GallaiPartition:
    """First vertex partition (parts ascending, then lexicographic) whose
    part pairs are each monochromatic with at most two cross colors total.

    That is the first hit of a generate-and-test over all set partitions
    of the vertices, by part count and then by restricted-growth string.
    For each k = 2, 3, ..., a backtracking walk finds it directly: vertex
    0 takes label 0, vertices 1..n-1 take labels in turn, lowest first, so
    complete labelings arrive in that same order.  Placing vertex i checks
    its edges to earlier vertices of other parts against the color joining
    the parts' leaders, their smallest vertices, which the answer reports.
    A placed label never changes, so a labeling cut by a check fails it in
    every completion too, and the walk's first leaf is the first partition
    with monochromatic part pairs.

    The walk need not count cross colors.  One vertex from each part of
    such a partition spans a Gallai coloring of K_k; if its part pairs
    used three colors, that coloring's own Gallai partition would merge
    the parts into a valid partition with fewer than k parts, which the
    walk would have found at a smaller k.  So the first leaf has at most
    two cross colors and is the brute-force choice.  Existence is
    guaranteed for every rainbow-free coloring, so exhausting the walk
    without a hit is an internal failure, not a normal outcome.
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
    for k in range(2, n + 1):
        labels = _first_labels(rows, k)
        if labels is None:
            continue
        parts = [[v for v in range(n) if labels[v] == a] for a in range(k)]
        part_pair_color = {
            (i, j): rows[parts[i][0]][parts[j][0]]
            for i, j in itertools.combinations(range(k), 2)
        }
        return GallaiPartition(
            parts=tuple(tuple(p) for p in parts),
            cross_colors=frozenset(part_pair_color.values()),
            part_pair_color=part_pair_color,
        )
    raise InternalConsistencyError(
        "no valid partition found for a rainbow-free coloring"
    )
