"""Disconnected colors, component compression, chain orders, prefix bound."""

import hashlib
import itertools
import random

import pytest
from hypothesis import example, given

from gallai import (
    ChainOrder,
    DuplicationChoice,
    EdgeColoring,
    IllDefinedMergeError,
    InternalConsistencyError,
    NotGallaiError,
    chain_coloring,
    color_component_split,
    color_degrees,
    compress_component,
    duplicate_vertex,
    find_disconnected_color,
    is_gallai,
    prefix_color_bound_report,
    recover_chain_order,
    uniform_coloring,
)
from gallai.construct import monochromatic_coloring
from gallai.structure import compression_degree_bounds
from oracles import (
    colorings,
    few_color_colorings,
    naive_prefix_color_bound_report,
    naive_recover_chain_order,
    outcome,
    recolored,
)

RAINBOW_K3 = EdgeColoring(3, (0, 1, 2))


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


def duplication_coloring(n, seed):
    """K_1 grown by n - 1 seeded random duplications, its vertices then
    shuffled so that components interleave with the outside vertices."""
    rng = random.Random(seed)
    coloring = EdgeColoring(1, ())
    while coloring.n < n:
        v = rng.randrange(coloring.n)
        fresh = coloring.n == 1 or rng.random() < 0.5
        choice = DuplicationChoice.FRESH_COLOR if fresh else DuplicationChoice.EXISTING_COLOR
        coloring = duplicate_vertex(coloring, v, choice)
    return relabelled(coloring, rng.sample(range(n), n))


def compression_digest(colorings):
    """sha256 over the reprs of each coloring's disconnected color and of
    the compression of every one of its components."""
    h = hashlib.sha256()
    for coloring in colorings:
        split = find_disconnected_color(coloring)
        h.update(repr(split).encode())
        if split is not None:
            for which in range(len(split.components)):
                h.update(repr(compress_component(coloring, split, which)).encode())
    return h.hexdigest()


class TestColorComponentSplit:
    def test_chain_color_two_splits(self):
        split = color_component_split(chain_coloring(4), 2)
        assert split.color == 2
        assert split.components == ((0,), (1,), (2, 3))

    def test_chain_color_one_splits(self):
        split = color_component_split(chain_coloring(4), 1)
        assert split.components == ((0,), (1, 2, 3))

    def test_connected_color_returns_none(self):
        assert color_component_split(chain_coloring(4), 0) is None

    def test_unused_color_rejected(self):
        with pytest.raises(ValueError):
            color_component_split(chain_coloring(4), 9)

    def test_isolated_vertices_are_singletons(self):
        split = color_component_split(uniform_coloring(2), 0)
        # color 0 joins {0,1} and {2,3} after normalization
        assert split.components == ((0, 1), (2, 3))


class TestFindDisconnectedColor:
    def test_smallest_disconnected_color_wins(self):
        split = find_disconnected_color(chain_coloring(4))
        assert split.color == 1

    def test_connected_two_coloring_gives_none(self):
        assert find_disconnected_color(monochromatic_coloring(3)) is None

    def test_rejects_rainbow(self):
        with pytest.raises(NotGallaiError):
            find_disconnected_color(RAINBOW_K3)

    def test_rejects_single_vertex(self):
        with pytest.raises(ValueError):
            find_disconnected_color(EdgeColoring(1, ()))

    def test_three_colors_always_split(self, enumerated):
        for n in (3, 4, 5):
            for coloring in enumerated[n]:
                if len(coloring.color_set()) >= 3:
                    assert find_disconnected_color(coloring) is not None


class TestCompressComponent:
    def test_chain_example(self):
        base = chain_coloring(4)
        split = color_component_split(base, 2)
        result = compress_component(base, split, 2)
        assert result.compressed_vertex == 2
        assert result.outside_color_count == 2
        assert result.reduced.n == 3
        # outside vertices 0, 1 keep their mutual edge; each sees the
        # merged pair {2, 3} in its own single color
        assert result.reduced.color(0, 1) == base.color(0, 1)
        assert result.reduced.color(0, 2) == 0
        assert result.reduced.color(1, 2) == 1

    def test_stale_split_rejected(self):
        base = chain_coloring(4)
        split = color_component_split(base, 2)
        with pytest.raises(ValueError):
            compress_component(chain_coloring(5), split, 2)

    def test_component_index_out_of_range(self):
        base = chain_coloring(4)
        split = color_component_split(base, 2)
        with pytest.raises(ValueError):
            compress_component(base, split, 3)

    def test_ill_defined_merge_detected(self):
        # vertex 0 sees the color-2 component {2, 3} in two colors; only
        # possible because this coloring has a rainbow triangle
        bad = EdgeColoring.from_rows(
            [
                [-1,  0,  0,  1],
                [ 0, -1,  0,  0],
                [ 0,  0, -1,  2],
                [ 1,  0,  2, -1],
            ]
        )
        split = color_component_split(bad, 2)
        with pytest.raises(IllDefinedMergeError):
            compress_component(bad, split, 2)

    def test_gallai_compressions_stay_gallai(self, enumerated):
        for n in (2, 3, 4):
            for coloring in enumerated[n]:
                split = find_disconnected_color(coloring)
                if split is None:
                    continue
                merged_sets = [set(comp) for comp in split.components]
                for which in range(len(split.components)):
                    result = compress_component(coloring, split, which)
                    assert is_gallai(result.reduced)
                    # edges between surviving vertices are untouched
                    outside = [
                        v for v in range(n) if v not in merged_sets[which]
                    ]
                    for i, j in itertools.combinations(range(len(outside)), 2):
                        assert result.reduced.color(i, j) == coloring.color(
                            outside[i], outside[j]
                        )

    def test_singleton_compression_relabels_only(self):
        # merging a one-vertex component moves that vertex to the end and
        # changes nothing else
        base = chain_coloring(4)
        split = color_component_split(base, 1)
        result = compress_component(base, split, 0)
        assert result.reduced.n == 4
        assert result.outside_color_count == 1
        inverse = (1, 2, 3, 0)
        for i, j in itertools.combinations(range(4), 2):
            assert result.reduced.color(i, j) == base.color(inverse[i], inverse[j])

    def test_degree_bound_rows(self, enumerated):
        for coloring in enumerated[4]:
            split = find_disconnected_color(coloring)
            if split is None:
                continue
            for which in range(len(split.components)):
                result = compress_component(coloring, split, which)
                for v, full, within in compression_degree_bounds(coloring, split, which):
                    assert full <= within + result.outside_color_count


class TestCompressionDigests:
    """Splits and compressions pinned by sha256 digests taken from the
    implementation that walked the pairs once per color tried and read
    every edge through ``EdgeColoring.color``."""

    # every enumerated coloring for n = 2..5 (1179 of them)
    ENUMERATED_DIGEST = "4c2cef0aa38e66029acdf8b95ad13bab90d18f811e2d9dd0fe681172f12e6030"
    # duplication_coloring(n, seed) for n = 40, 43, ..., 64 and seeds 0..8
    DUPLICATION_DIGEST = "a24450147e0a08b526dab42d42c899fd0f4752f6027e4d4da9e0e42375c008f4"

    def test_enumerated(self, enumerated):
        colorings = [c for n in range(2, 6) for c in enumerated[n]]
        assert compression_digest(colorings) == self.ENUMERATED_DIGEST

    def test_duplication(self):
        colorings = [duplication_coloring(n, seed) for seed, n in enumerate(range(40, 65, 3))]
        assert compression_digest(colorings) == self.DUPLICATION_DIGEST


class TestRecoverChainOrder:
    def test_chain_four(self):
        assert recover_chain_order(chain_coloring(4)) == ChainOrder(apex=3, order=(0, 1, 2))

    def test_chain_family(self):
        for n in range(2, 9):
            apex, order = recover_chain_order(chain_coloring(n))
            assert apex == n - 1
            assert order == tuple(range(n - 2)) + ((n - 2,) if n >= 2 else ())

    def test_two_vertices(self):
        assert recover_chain_order(monochromatic_coloring(2)) == ChainOrder(1, (0,))

    def test_no_apex_rejected(self):
        with pytest.raises(ValueError):
            recover_chain_order(uniform_coloring(2))

    def test_single_vertex_rejected(self):
        with pytest.raises(ValueError):
            recover_chain_order(EdgeColoring(1, ()))

    def test_row_degrees(self, enumerated):
        for n in (2, 3, 4):
            for coloring in enumerated[n]:
                degrees = color_degrees(coloring)
                if max(degrees) < n - 1:
                    continue
                apex, order = recover_chain_order(coloring)
                assert degrees[apex] == n - 1
                assert [degrees[v] for v in order] == list(range(1, n))


class TestRecoverChainOrderChecks:
    def test_relabelled_chain(self):
        perm = random.Random(5).sample(range(30), 30)
        apex, order = recover_chain_order(relabelled(chain_coloring(30), perm))
        # chain vertices 28 and 29 both have full degree; the higher label
        # becomes the apex and the other ends the row
        top = (perm[28], perm[29])
        assert apex == max(top)
        assert order == tuple(perm[:28]) + (min(top),)

    def test_edge_outside_apex_colors(self):
        # apex 3 sees 0, 1, 2 in colors 0, 1, 2; edge (0, 1) has color 5
        bad = EdgeColoring.from_rows(
            [
                [-1,  5,  0,  0],
                [ 5, -1,  1,  1],
                [ 0,  1, -1,  2],
                [ 0,  1,  2, -1],
            ]
        )
        with pytest.raises(
            InternalConsistencyError,
            match=r"^edge \(0, 1\) matches neither apex color; rainbow triangle with the apex$",
        ):
            recover_chain_order(bad)

    def test_cyclic_tournament(self):
        # 0 -> 1 -> 2 -> 0: every vertex wins once, so no order is transitive
        bad = EdgeColoring.from_rows(
            [
                [-1,  0,  2,  0],
                [ 0, -1,  1,  1],
                [ 2,  1, -1,  2],
                [ 0,  1,  2, -1],
            ]
        )
        with pytest.raises(InternalConsistencyError, match="^tournament is not transitive$"):
            recover_chain_order(bad)


class TestRecoverChainOrderMatchesOracle:
    """The row is the degree order; the reference sorts by win count."""

    def test_perturbed_relabelled_chains(self):
        rng = random.Random(13)
        kinds = set()
        for _ in range(3000):
            n = rng.randint(2, 9)
            colors = list(relabelled(chain_coloring(n), rng.sample(range(n), n)).colors)
            for _ in range(rng.randint(0, 3)):
                colors[rng.randrange(len(colors))] = rng.randrange(n + 1)
            coloring = EdgeColoring(n, tuple(colors))
            expected = outcome(naive_recover_chain_order, coloring)
            assert outcome(recover_chain_order, coloring) == expected
            kinds.add(expected[1].split()[0] if isinstance(expected[0], type) else "order")
        # every exit of the function is reached
        assert kinds == {"order", "no", "edge", "tournament"}

    @given(colorings(max_n=7))
    def test_random_colorings(self, coloring):
        assert outcome(recover_chain_order, coloring) == outcome(naive_recover_chain_order, coloring)

    def test_every_enumerated_coloring(self, enumerated):
        for n in range(1, 6):
            for coloring in enumerated[n]:
                assert outcome(recover_chain_order, coloring) == outcome(
                    naive_recover_chain_order, coloring
                )


class TestPrefixColorBound:
    def test_holds_on_enumerated(self, enumerated):
        for n in (1, 2, 3, 4):
            for coloring in enumerated[n]:
                report = prefix_color_bound_report(coloring)
                assert report.ok
                assert report.violation is None

    def test_violation_located(self):
        # vertex 3 sees three distinct colors toward {0, 1, 2} although the
        # third-smallest degree is 2; needs a rainbow triangle to happen
        bad = EdgeColoring.from_rows(
            [
                [-1,  0,  0,  0],
                [ 0, -1,  0,  1],
                [ 0,  0, -1,  2],
                [ 0,  1,  2, -1],
            ]
        )
        assert not is_gallai(bad)
        report = prefix_color_bound_report(bad)
        assert not report.ok
        assert report.violation == (4, 4)

    def test_single_vertex_ok(self):
        assert prefix_color_bound_report(EdgeColoring(1, ())).ok


def as_pair(report):
    return (report.ok, report.violation)


class TestPrefixBoundMatchesOracle:
    """The incremental check returns the naive scan's verdict and (k, i)."""

    # random colorings with five colors on up to 14 vertices mostly break
    # the bound, at varying (k, i)
    @given(few_color_colorings(max_n=14, max_colors=5))
    # breaks the bound at (4, 4) and (4, 5): the first i must win
    @example(EdgeColoring(5, (1, 1, 2, 2, 0, 0, 2, 2, 0, 2)))
    def test_random_few_colors(self, coloring):
        assert as_pair(prefix_color_bound_report(coloring)) == naive_prefix_color_bound_report(
            coloring
        )

    def test_every_gallai_five_with_one_edge_recolored(self, enumerated):
        for coloring in enumerated[5]:
            assert as_pair(prefix_color_bound_report(coloring)) == (True, None)
            assert naive_prefix_color_bound_report(coloring) == (True, None)
            for index in range(len(coloring.colors)):
                copy = recolored(coloring, index)
                assert as_pair(prefix_color_bound_report(copy)) == (
                    naive_prefix_color_bound_report(copy)
                )

    def test_relabelled_chain_400(self):
        # the naive scan takes seconds here; the incremental one does not
        perm = random.Random(400).sample(range(400), 400)
        report = prefix_color_bound_report(relabelled(chain_coloring(400), perm))
        assert as_pair(report) == (True, None)


def test_module_docstring_helpers_consistent():
    # compress the only split of every 3-color coloring of K4 and re-split:
    # the reduced coloring keeps a disconnected color or has fewer colors
    base = chain_coloring(4)
    split = find_disconnected_color(base)
    result = compress_component(base, split, 1)
    assert result.reduced.n < base.n
    assert is_gallai(result.reduced)


def test_prefix_bound_violation_example_consistency():
    c = EdgeColoring.from_rows(
        [
            [-1,  0,  0,  0],
            [ 0, -1,  0,  1],
            [ 0,  0, -1,  2],
            [ 0,  1,  2, -1],
        ]
    )
    degrees = color_degrees(c)
    order = sorted(range(4), key=lambda v: (degrees[v], v))
    # recompute the reported violation by hand
    k, i = prefix_color_bound_report(c).violation
    bound = degrees[order[k - 2]]
    v = order[i - 1]
    back = {c.color(v, order[p]) for p in range(k - 1)}
    assert len(back) > bound
