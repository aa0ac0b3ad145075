"""Reference implementations and shared strategies for the test modules.

Each ``naive_*`` function, ``rational_slacks``, ``unfiltered_reference``
and ``key_ordered`` recomputes what a package function computes, by a
slower or more literal route, so that tests can compare the two.  The
Hypothesis strategies and sequence generators here are drawn by more than
one test module.  This module holds no tests.
"""

import itertools
from collections import Counter
from fractions import Fraction

from hypothesis import strategies as st

from gallai import (
    PARTITION_SIZE_LIMIT,
    ChainOrder,
    DuplicationChoice,
    EdgeColoring,
    FeasibilityReport,
    GallaiPartition,
    InfeasibleSequenceError,
    InternalConsistencyError,
    NotGallaiError,
    RainbowWitness,
    SizeGuardError,
    check_sequence,
    color_degrees,
    enumerate_gallai,
    find_rainbow_triangle,
    is_gallai,
    normalize_colors,
    validate_sequence,
)
from gallai.construct import monochromatic_coloring
from gallai.document import pen_color
from gallai.oracle import EnumerationStats, candidate_sequences


# Colorings


@st.composite
def colorings(draw, max_n=6, max_color=None):
    """Any coloring of K_n, n <= max_n, with colors drawn from 0..max_color,
    or from 0..m, m the number of edges, when max_color is None."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    m = n * (n - 1) // 2
    top = m if max_color is None else max_color
    values = draw(st.lists(st.integers(0, top), min_size=m, max_size=m))
    return EdgeColoring(n, tuple(values))


@st.composite
def few_color_colorings(draw, max_n=9, max_colors=4):
    """Colorings with few colors, so that both Gallai and rainbow outcomes
    are common."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    k = draw(st.integers(min_value=1, max_value=max_colors))
    m = n * (n - 1) // 2
    return EdgeColoring(n, tuple(draw(st.lists(st.integers(0, k - 1), min_size=m, max_size=m))))


def recolored(coloring, index):
    """Copy of the coloring with the edge at ``index`` given a fresh color."""
    colors = list(coloring.colors)
    colors[index] = max(colors) + 1
    return EdgeColoring(coloring.n, tuple(colors))


def naive_pairs(coloring):
    """Oracle: (u, v, color) for every pair u < v in lexicographic order."""
    pairs = itertools.combinations(range(coloring.n), 2)
    return ((u, v, c) for (u, v), c in zip(pairs, coloring.colors))


def naive_rainbow_triangle(coloring):
    """Oracle: scan every triple i < j < k in lexicographic order."""
    for i, j, k in itertools.combinations(range(coloring.n), 3):
        a = coloring.color(i, j)
        b = coloring.color(i, k)
        c = coloring.color(j, k)
        if a != b and a != c and b != c:
            return RainbowWitness((i, j, k), (a, b, c))
    return None


def naive_color_degrees(coloring):
    """Oracle: one walk over the pairs, collecting each vertex's colors."""
    seen = [set() for _ in range(coloring.n)]
    for u, v, c in naive_pairs(coloring):
        seen[u].add(c)
        seen[v].add(c)
    return [len(s) for s in seen]


# Feasibility


def rational_slacks(seq):
    """Oracle: the k-th suffix inequality's slack in exact rationals,
    sum over i >= k of 2^(d_{k-1} - d_i), less 1 (d_0 = 0)."""
    n = len(seq)
    slacks = []
    for k in range(1, n + 1):
        prev = seq[k - 2] if k >= 2 else 0
        lhs = sum(Fraction(1, 2 ** (seq[i - 1] - prev)) for i in range(k, n + 1))
        slacks.append(lhs - 1)
    return slacks


def naive_check_sequence(values):
    """Reference for ``check_sequence``: stores all n suffix sums first, then
    subtracts the k-th bound from each in a second loop."""
    seq = validate_sequence(values)
    n = len(seq)
    top = seq[-1]
    # suffix[k-1] = sum over i >= k of 2^(top - d_i), exact integers
    suffix = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix[i] = suffix[i + 1] + (1 << (top - seq[i]))
    slacks = []
    first_violation = None
    for k in range(1, n + 1):
        prev = seq[k - 2] if k >= 2 else 0
        slack = suffix[k - 1] - (1 << (top - prev))
        slacks.append(slack)
        if slack < 0 and first_violation is None:
            first_violation = k
    return FeasibilityReport(
        values=seq,
        slacks=tuple(slacks),
        feasible=first_violation is None,
        first_violation=first_violation,
    )


def feasible_sequences(n):
    for seq in candidate_sequences(n):
        if check_sequence(seq).feasible:
            yield seq


# Construction


def duplication_sequence(n, rng):
    """Sorted degrees after n - 1 random duplications from K_1, tracked on
    the degrees alone, so the sequence is feasible by construction."""
    degrees = [0]
    while len(degrees) < n:
        v = rng.randrange(len(degrees))
        if degrees[v] and rng.random() < 0.5:
            degrees.append(degrees[v])
        else:
            degrees[v] += 1
            degrees.append(degrees[v])
    return sorted(degrees)


def naive_duplicate(coloring, v, choice):
    """Reference for ``duplicate_vertex``: rebuilds every pair through a
    dict and reads the color tuple off it in lexicographic pair order."""
    n = coloring.n
    if not 0 <= v < n:
        raise ValueError(f"vertex {v} out of range for n={n}")
    incident = [coloring.color(v, u) for u in range(n) if u != v]
    if choice is DuplicationChoice.EXISTING_COLOR:
        if not incident:
            raise ValueError("EXISTING_COLOR requires the vertex to have an edge")
        bridge = min(incident)
    else:
        bridge = max(coloring.colors) + 1 if coloring.colors else 0
    pair_colors = {(u, w): c for u, w, c in naive_pairs(coloring)}
    for u in range(n):
        pair_colors[(u, n)] = bridge if u == v else coloring.color(v, u)
    pairs = itertools.combinations(range(n + 1), 2)
    return EdgeColoring(n + 1, tuple(pair_colors[p] for p in pairs))


def naive_realize(values):
    """Reference for ``realize``: one recursion level and one full rebuild
    per vertex, degrees recomputed at every step (O(n^3), recursion depth n)."""
    report = check_sequence(values)
    if not report.feasible:
        raise InfeasibleSequenceError(report)
    return normalize_colors(_naive_realize(list(report.values)))


def _naive_realize(seq):
    n = len(seq)
    if n == 1:
        return EdgeColoring(1, ())
    t = seq[-1]
    if t == 1:
        return monochromatic_coloring(n)
    m = seq.count(t)
    if m < 2:
        raise InternalConsistencyError(f"feasible sequence {seq} has a unique maximum")
    if m % 2 == 1:
        sub = _naive_realize(seq[:-1])
        target = t
        choice = DuplicationChoice.EXISTING_COLOR
    else:
        sub = _naive_realize(seq[: n - m] + [t - 1] + [t] * (m - 2))
        target = t - 1
        choice = DuplicationChoice.FRESH_COLOR
    v = color_degrees(sub).index(target)
    return naive_duplicate(sub, v, choice)


# Documents


def naive_render_document(coloring):
    """Reference for ``render_document``: one line per pair, in pair order."""
    lines = [f"n {coloring.n}"]
    for u, v, c in naive_pairs(coloring):
        lines.append(f"edge {u} {v} {c}")
    return "\n".join(lines) + "\n"


def naive_render_dot(coloring):
    """Reference for ``render_dot``: one line per pair, in pair order."""
    lines = ["graph coloring {", "  node [shape=circle];"]
    for u, v, c in naive_pairs(coloring):
        lines.append(f'  {u} -- {v} [color="{pen_color(c)}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


# Structure


def naive_prefix_color_bound_report(coloring):
    """Oracle: rebuild the back-color set of every (k, i) from scratch."""
    degrees = color_degrees(coloring)
    order = sorted(range(coloring.n), key=lambda v: (degrees[v], v))
    n = len(order)
    for k in range(2, n + 1):
        bound = degrees[order[k - 2]]
        for i in range(k, n + 1):
            v = order[i - 1]
            back_colors = {coloring.color(v, order[p]) for p in range(k - 1)}
            if len(back_colors) > bound:
                return (False, (k, i))
    return (True, None)


def naive_recover_chain_order(coloring):
    """Reference for ``recover_chain_order``: sorts the row by win count and
    checks the row degrees 1, 2, ..., n-1 before returning."""
    n = coloring.n
    if n < 2:
        raise ValueError("need at least two vertices")
    rows = coloring.rows()
    degrees = color_degrees(coloring)
    apexes = [v for v in range(n) if degrees[v] == n - 1]
    if not apexes:
        raise ValueError(f"no vertex of color degree {n - 1}")
    apex = max(apexes)
    rest = [v for v in range(n) if v != apex]
    apex_row = rows[apex]
    wins = {v: 0 for v in rest}
    for idx, i in enumerate(rest):
        for j in rest[idx + 1 :]:
            c = rows[i][j]
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
    for idx, i in enumerate(order):
        for j in order[idx + 1 :]:
            if rows[i][j] != apex_row[i]:
                raise InternalConsistencyError("tournament is not transitive")
    for pos, v in enumerate(order, start=1):
        if degrees[v] != pos:
            raise InternalConsistencyError(
                f"row vertex {v} has degree {degrees[v]}, expected {pos}"
            )
    return ChainOrder(apex=apex, order=order)


# Enumeration and partitions


def unfiltered_reference(n):
    """Every restricted-growth coloring of K_n, filtered afterwards."""
    m = n * (n - 1) // 2

    def rec(i, used, colors):
        if i == m:
            coloring = EdgeColoring(n, tuple(colors))
            if is_gallai(coloring):
                yield coloring
            return
        for a in range(used + 1):
            colors.append(a)
            yield from rec(i + 1, max(used, a + 1), colors)
            colors.pop()

    yield from rec(0, 0, [])


def naive_enumeration_stats(n):
    """Count and sequence set recounted from each enumerated coloring."""
    count = 0
    sequences = set()
    for c in enumerate_gallai(n):
        count += 1
        sequences.add(tuple(sorted(color_degrees(c))))
    return EnumerationStats(n=n, count=count, sequences=frozenset(sequences))


def key_ordered(coloring):
    """Whether the vertices come in nondecreasing order of (color degree,
    sorted color counts)."""
    keys = []
    for v, row in enumerate(coloring.rows()):
        tally = Counter(c for w, c in enumerate(row) if w != v)
        keys.append((len(tally), sorted(tally.values())))
    return keys == sorted(keys)


def naive_partitions(n):
    """Every partition of range(n) into two or more parts, by part count and
    then by restricted-growth string: all strings built unpruned, then
    sorted."""
    strings = [[0]]
    for _ in range(1, n):
        strings = [s + [a] for s in strings for a in range(max(s) + 2)]
    for s in sorted(strings, key=lambda s: (max(s), s)):
        if max(s) > 0:
            yield [[v for v in range(n) if s[v] == a] for a in range(max(s) + 1)]


def naive_gallai_partition(coloring):
    """Reference for ``brute_force_gallai_partition``: a flag and a double
    break over the part pairs of each ``naive_partitions`` candidate."""
    n = coloring.n
    if n < 2:
        raise ValueError("need at least two vertices")
    if n > PARTITION_SIZE_LIMIT:
        raise SizeGuardError(f"n={n} exceeds the partition limit {PARTITION_SIZE_LIMIT}")
    witness = find_rainbow_triangle(coloring)
    if witness is not None:
        raise NotGallaiError(witness)
    rows = coloring.rows()
    for parts in naive_partitions(n):
        cross_colors = set()
        part_pair_color = {}
        ok = True
        for i in range(len(parts)):
            for j in range(i + 1, len(parts)):
                joining = {rows[u][v] for u in parts[i] for v in parts[j]}
                if len(joining) != 1:
                    ok = False
                    break
                color = joining.pop()
                part_pair_color[(i, j)] = color
                cross_colors.add(color)
                if len(cross_colors) > 2:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return GallaiPartition(
                parts=tuple(tuple(p) for p in parts),
                cross_colors=frozenset(cross_colors),
                part_pair_color=part_pair_color,
            )
    raise InternalConsistencyError("no valid partition found for a rainbow-free coloring")


def outcome(function, coloring):
    """The result of a call, or the type and message of what it raised."""
    try:
        return function(coloring)
    except (ValueError, InternalConsistencyError) as exc:
        return type(exc), str(exc)
