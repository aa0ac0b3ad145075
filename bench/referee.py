"""Answers the benchmark expects, derived without the gallai package.

Colorings here are full symmetric matrices: ``rows[u][v]`` is the color of
the edge {u, v} and ``rows[u][u]`` is -1.  Everything is plain Python and
shares no code with the package under test, so a defect there cannot hide
itself by also corrupting the expected answer.
"""

from __future__ import annotations

import itertools


def first_violation(values) -> int | None:
    """Least k whose suffix inequality fails, or None for a feasible sequence.

    The k-th inequality is sum_{i>=k} 2^-d_i >= 2^-d_{k-1} with d_0 = 0.
    The suffix sum is held as a set of distinct exponents (a sparse binary
    counter): adding 2^-e to a sum that already holds 2^-e carries to
    2^-(e-1).  A sum of distinct powers all below 2^-e is itself below
    2^-e, so the sum reaches 2^-p exactly when its smallest exponent is at
    most p.  Cost is amortized O(1) per term whatever the degree values.
    """
    held: set[int] = set()
    smallest = None
    violation = None
    for k in range(len(values), 0, -1):
        e = values[k - 1]
        while e in held:
            held.remove(e)
            e -= 1
        held.add(e)
        smallest = e if smallest is None else min(smallest, e)
        if smallest > (values[k - 2] if k >= 2 else 0):
            violation = k
    return violation


def verdict_line(k: int | None) -> str:
    """The CLI's verdict line for first violation ``k``."""
    if k is None:
        return "verdict: feasible"
    return f"verdict: infeasible (first violation at k={k})"


def fmt(values) -> str:
    return ", ".join(str(v) for v in values)


def candidates(n: int):
    """Nondecreasing sequences of length n with entries in [1, n-1]."""
    if n == 1:
        return [(0,)]
    return list(itertools.combinations_with_replacement(range(1, n), n))


# -- colorings -------------------------------------------------------------


def uniform_rows(d: int) -> list[list[int]]:
    """K_{2^d}, edge {u, v} colored by the top bit where u and v differ."""
    n = 1 << d
    return [[(u ^ v).bit_length() - 1 for v in range(n)] for u in range(n)]


def chain_rows(n: int) -> list[list[int]]:
    """K_n with color(u, v) = min(u, v)."""
    return [[min(u, v) if u != v else -1 for v in range(n)] for u in range(n)]


def duplication_rows(n: int, rng, fresh: float = 0.5) -> list[list[int]]:
    """Random Gallai coloring of K_n grown from K_1 by vertex duplication.

    Each step copies the row of a random vertex v; the edge between v and
    its copy takes one of v's colors or, with probability ``fresh``, a new
    one.  Vertex labels are shuffled at the end.
    """
    rows = [[-1]]
    used = 0
    while len(rows) < n:
        m = len(rows)
        v = rng.randrange(m)
        incident = sorted({c for c in rows[v] if c >= 0})
        if incident and rng.random() >= fresh:
            bridge = rng.choice(incident)
        else:
            bridge, used = used, used + 1
        clone = rows[v] + [-1]
        clone[v] = bridge
        for u in range(m):
            rows[u].append(clone[u])
        rows.append(clone)
    return relabel(rows, rng.sample(range(n), n))


def relabel(rows, perm) -> list[list[int]]:
    """Rows with vertex ``u`` renamed ``perm[u]``."""
    n = len(rows)
    out = [[-1] * n for _ in range(n)]
    for u in range(n):
        for v in range(n):
            out[perm[u]][perm[v]] = rows[u][v]
    return out


def degrees(rows) -> list[int]:
    return [len(set(row)) - 1 for row in rows]


def document(rows) -> str:
    n = len(rows)
    lines = [f"n {n}"]
    for u in range(n):
        row = rows[u]
        lines.extend(f"edge {u} {v} {row[v]}" for v in range(u + 1, n))
    return "\n".join(lines) + "\n"


def recolored(rows, u: int, v: int) -> list[list[int]]:
    """Copy of rows with the edge {u, v} in a color used nowhere else."""
    fresh = max(max(row) for row in rows) + 1
    out = [row[:] for row in rows]
    out[u][v] = out[v][u] = fresh
    return out


def recolor_witness(rows, u: int, v: int):
    """Smallest rainbow triangle after recoloring {u, v} fresh, in O(n).

    Every other triangle keeps its colors, so a rainbow one contains
    {u, v} and a w with color(u, w) != color(v, w); the sorted triple grows
    with w.  Returns ((i, j, k), (c_ij, c_ik, c_jk)) on the recolored
    coloring, or None when u and v are twins.
    """
    ru, rv = rows[u], rows[v]
    for w in range(len(rows)):
        if w != u and w != v and ru[w] != rv[w]:
            i, j, k = sorted((u, v, w))
            out = recolored(rows, u, v)
            return (i, j, k), (out[i][j], out[i][k], out[j][k])
    return None


def triples_scanned(n: int, triple) -> int:
    """How many triples a lexicographic scan of K_n reads up to ``triple``
    (all C(n, 3) when ``triple`` is None)."""
    if triple is None:
        return n * (n - 1) * (n - 2) // 6
    i, j, k = triple
    before = sum((n - 1 - a) * (n - 2 - a) // 2 for a in range(i))
    before += sum(n - 1 - b for b in range(i + 1, j))
    return before + (k - j - 1) + 1


def components(rows, color: int) -> list[tuple[int, ...]]:
    """Connected components of one color's spanning subgraph, sorted."""
    n = len(rows)
    seen = [False] * n
    comps = []
    for start in range(n):
        if seen[start]:
            continue
        seen[start] = True
        stack, comp = [start], []
        while stack:
            x = stack.pop()
            comp.append(x)
            for y, c in enumerate(rows[x]):
                if c == color and not seen[y]:
                    seen[y] = True
                    stack.append(y)
        comps.append(tuple(sorted(comp)))
    return comps


def disconnected_color(rows):
    """Smallest color whose spanning subgraph is disconnected, with its
    components, or None."""
    for color in sorted({c for row in rows for c in row if c >= 0}):
        comps = components(rows, color)
        if len(comps) > 1:
            return color, tuple(comps)
    return None


# -- checks on program output ------------------------------------------------


def partition_problem(rows, text: str) -> str | None:
    """Why the printed `gallai partition` report is not a valid Gallai
    partition of rows, or None when it is."""
    parts, cross, pairs = [], None, {}
    for line in text.splitlines():
        head, _, rest = line.partition(":")
        if head.startswith("part "):
            parts.append([int(t) for t in rest.split()])
        elif head == "cross colors":
            cross = {int(t) for t in rest.split()}
        elif head.startswith("pair "):
            _, i, j = head.split()
            pairs[(int(i), int(j))] = int(rest.split()[-1])
    n = len(rows)
    if len(parts) < 2 or sorted(v for p in parts for v in p) != list(range(n)):
        return "parts do not split the vertex set into two or more parts"
    if set(pairs) != set(itertools.combinations(range(len(parts)), 2)):
        return "part pairs missing"
    for (i, j), c in pairs.items():
        if any(rows[u][v] != c for u in parts[i] for v in parts[j]):
            return f"parts {i} and {j} are not joined in color {c}"
    if cross != set(pairs.values()) or len(cross) > 2:
        return f"cross colors {cross} wrong"
    return None


def chain_order_problem(rows, apex: int, order) -> str | None:
    n = len(rows)
    deg = degrees(rows)
    if deg[apex] != n - 1 or sorted(order) != [v for v in range(n) if v != apex]:
        return "apex or order does not cover the vertices"
    if [deg[v] for v in order] != list(range(1, n)):
        return "row degrees are not 1..n-1"
    return None


def compression_problem(rows, split, result) -> str | None:
    """Check find_disconnected_color's split and the compression of its
    first component against rows."""
    expected = disconnected_color(rows)
    if expected is None or (split.color, split.components) != expected:
        return f"split {split.color} differs from {expected and expected[0]}"
    merged = set(split.components[0])
    outside = [v for v in range(len(rows)) if v not in merged]
    m = len(outside)
    reduced = result.reduced
    if reduced.n != m + 1 or result.compressed_vertex != m:
        return "compressed size wrong"
    into = []
    for i, w in enumerate(outside):
        seen = {rows[w][a] for a in merged}
        if len(seen) != 1:
            return f"vertex {w} sees the component in {len(seen)} colors"
        into.append(seen.pop())
        if reduced.color(i, m) != into[-1]:
            return f"edge ({i}, {m}) has the wrong color"
        for j in range(i + 1, m):
            if reduced.color(i, j) != rows[w][outside[j]]:
                return f"edge ({i}, {j}) has the wrong color"
    if result.outside_color_count != len(set(into)):
        return "outside color count wrong"
    return None
