"""Reference implementations and shared strategies for the test modules.

Each ``naive_*`` function, ``rational_slacks``, ``unfiltered_reference``
and ``swap_minimal`` recomputes what a package function computes, by a
slower or more literal route, so that tests can compare the two.
``enumerate_gallai`` is the full walk whose swap-minimal leaves
``crosscheck``'s sweep visits; it builds its own tables and shares no
code with the sweep, and ``unfiltered_reference`` referees it in turn.
``sweep_stats`` counts the leaves of the sweep, which the package reads
only for their degrees, and ``canonical_form`` names a coloring's class
under relabeling of vertices and colors, by brute force.  The Hypothesis
strategies, sequence generators and ``relabelled`` here are drawn by more
than one test module.  This module holds no tests.
"""

import itertools
from collections import defaultdict
from fractions import Fraction

from hypothesis import strategies as st

from gallai import (
    PARTITION_SIZE_LIMIT,
    ChainOrder,
    DocumentError,
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
    find_rainbow_triangle,
    is_gallai,
    normalize_colors,
    validate_sequence,
)
from gallai.construct import monochromatic_coloring
from gallai.document import _parse_int, pen_color
from gallai.errors import clip
from gallai.oracle import _sweep, candidate_sequences


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


def relabelled(coloring, perm):
    """The coloring with vertex v renamed perm[v]."""
    n = coloring.n
    inverse = [0] * n
    for v, w in enumerate(perm):
        inverse[w] = v
    return EdgeColoring(
        n,
        tuple(
            coloring.color(inverse[a], inverse[b])
            for a, b in itertools.combinations(range(n), 2)
        ),
    )


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


def naive_parse_document(text):
    """Reference for ``parse_document``: every line read on its own, with
    the package's number rule, so it gives the same messages."""
    lines = text.split("\n")
    n = None
    expected = seen = 0
    slots = []
    for lineno, raw in enumerate(lines, start=1):
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


def enumerate_gallai(n):
    """Every Gallai coloring of K_n once up to color relabeling, in
    restricted-growth order and normalized (first-appearance) color form:
    the full walk, of which ``crosscheck``'s sweep keeps the swap-minimal
    leaves.  Each edge, in lexicographic pair order, checks only the
    triangles {w, u, v}, w < u, that it completes: one whose earlier edges
    carry a != b admits only a and b, and only an unconstrained edge may
    take a fresh color."""
    pairs = list(itertools.combinations(range(n), 2))
    index = {p: i for i, p in enumerate(pairs)}
    closing = [[(index[(w, u)], index[(w, v)]) for w in range(u)] for u, v in pairs]
    colors = [0] * len(pairs)

    def extend(e, used):
        if e == len(pairs):
            yield EdgeColoring(n, tuple(colors))
            return
        allowed = -1  # bit c admits color c; -1 while nothing constrains e
        for ea, eb in closing[e]:
            a, b = colors[ea], colors[eb]
            if a != b:
                allowed &= (1 << a) | (1 << b)
                if not allowed:
                    return
        for c in range(used + 1):
            if allowed >> c & 1:
                colors[e] = c
                yield from extend(e + 1, used + (c == used))

    yield from extend(0, 0)


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
    """(count, sequences): the colorings of the full walk and the sorted
    degree sequences they realize, recounted from each coloring."""
    count = 0
    sequences = set()
    for c in enumerate_gallai(n):
        count += 1
        sequences.add(tuple(sorted(color_degrees(c))))
    return count, frozenset(sequences)


def sweep_stats(n, visit=None):
    """(count, sequences): the leaves of ``crosscheck``'s swap-minimal
    sweep and the sorted degree sequences they hold.  ``visit``, if given,
    also gets each leaf as an ``EdgeColoring`` and its degrees in vertex
    order."""
    count = 0
    sequences = set()

    def leaf(colors, degrees):
        nonlocal count
        count += 1
        sequences.add(tuple(sorted(degrees)))
        if visit is not None:
            visit(EdgeColoring(n, tuple(colors)), tuple(degrees))

    _sweep(n, leaf)
    return count, frozenset(sequences)


def swap_minimal(coloring):
    """Whether no swap of two adjacent vertices makes the normalized colors
    smaller, judged at the swap's first differing pair p: there the swapped
    and renormalized string holds the color of the swapped pair if it
    appears before p, and the next fresh color otherwise."""
    colors = coloring.colors
    pairs = list(itertools.combinations(range(coloring.n), 2))
    index = {pair: i for i, pair in enumerate(pairs)}
    for t in range(1, coloring.n):
        swap = {t - 1: t, t: t - 1}
        for p, (a, b) in enumerate(pairs):
            c_swapped = colors[index[tuple(sorted((swap.get(a, a), swap.get(b, b))))]]
            if c_swapped != colors[p]:
                if min(c_swapped, max(colors[:p], default=-1) + 1) < colors[p]:
                    return False
                break
    return True


def canonical_form(coloring):
    """The least normalized color tuple over all relabelings of the
    vertices: equal exactly for colorings that differ by a relabeling of
    vertices and colors."""
    n = coloring.n
    return min(
        normalize_colors(relabelled(coloring, perm)).colors
        for perm in itertools.permutations(range(n))
    )


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


def naive_first_labels(coloring, k):
    """Reference for ``oracle._first_labels``: the labels of the first
    ``naive_partitions`` candidate with k parts whose part pairs are each
    joined in one color, however many colors join them, or None."""
    rows = coloring.rows()
    for parts in naive_partitions(coloring.n):
        if len(parts) == k and all(
            len({rows[u][v] for u in p for v in q}) == 1
            for p, q in itertools.combinations(parts, 2)
        ):
            return [a for v in range(coloring.n) for a, part in enumerate(parts) if v in part]
    return None


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
