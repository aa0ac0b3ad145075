"""Core coloring container, rainbow detection, and normalization."""

import itertools

import pytest
from hypothesis import given

from gallai import (
    DuplicationChoice,
    EdgeColoring,
    RainbowWitness,
    brute_force_gallai_partition,
    chain_coloring,
    color_component_split,
    color_degrees,
    compress_component,
    crosscheck,
    duplicate_vertex,
    find_disconnected_color,
    find_rainbow_triangle,
    is_gallai,
    min_degree_upper_bound,
    normalize_colors,
    render_document,
    uniform_coloring,
)
from gallai.cli import main
from gallai.structure import compression_degree_bounds
from oracles import (
    colorings,
    few_color_colorings,
    naive_color_degrees,
    naive_pairs,
    naive_rainbow_triangle,
    recolored,
)


class TestEdgeColoring:
    def test_rejects_bad_vertex_count(self):
        with pytest.raises(ValueError):
            EdgeColoring(0, ())

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            EdgeColoring(3, (0, 0))

    def test_rejects_negative_color(self):
        with pytest.raises(ValueError):
            EdgeColoring(2, (-1,))

    def test_rejects_non_integer_color(self):
        with pytest.raises(ValueError):
            EdgeColoring(2, (0.5,))

    @pytest.mark.parametrize("n, colors", [(2, (True,)), (3, (0, 0, False))])
    def test_rejects_bool_color(self, n, colors):
        with pytest.raises(ValueError, match="got (True|False)"):
            EdgeColoring(n, colors)

    def test_rejects_bool_vertex_count(self):
        with pytest.raises(ValueError, match="got True"):
            EdgeColoring(True, ())

    @pytest.mark.parametrize("colors", [[0, 0, 1], range(3)], ids=["list", "range"])
    def test_rejects_colors_that_are_not_a_tuple(self, colors):
        with pytest.raises(ValueError, match="must be a tuple"):
            EdgeColoring(3, colors)

    def test_color_is_symmetric(self):
        c = EdgeColoring(3, (0, 1, 2))
        assert c.color(0, 2) == c.color(2, 0) == 1

    def test_color_rejects_self_pair(self):
        c = EdgeColoring(3, (0, 1, 2))
        with pytest.raises(ValueError):
            c.color(1, 1)

    def test_color_rejects_out_of_range(self):
        c = EdgeColoring(3, (0, 1, 2))
        with pytest.raises(ValueError):
            c.color(0, 3)

    @given(colorings())
    def test_upper_rows_slice_the_stored_colors(self, coloring):
        n = coloring.n
        upper = list(coloring.upper_rows())
        assert tuple(itertools.chain.from_iterable(upper)) == coloring.colors
        assert [len(row) for row in upper] == [n - u - 1 for u in range(n)]
        for u, v in itertools.combinations(range(n), 2):
            assert upper[u][v - u - 1] == coloring.color(u, v)

    def test_single_vertex(self):
        c = EdgeColoring(1, ())
        assert list(naive_pairs(c)) == []
        assert list(c.upper_rows()) == [()]
        assert c.color_set() == set()
        assert color_degrees(c) == [0]

    def test_from_rows_reads_the_upper_triangle(self):
        # entries below the diagonal and on it are not read
        rows = [[9, 0, 1], [7, 9, 2], [7, 7, 9]]
        assert EdgeColoring.from_rows(rows) == EdgeColoring(3, (0, 1, 2))

    def test_from_rows_rejects_ragged_rows(self):
        # the upper triangle still holds 3 = n(n-1)/2 entries
        with pytest.raises(ValueError):
            EdgeColoring.from_rows([[-1, 0], [0, -1, 0, 0], [0, 0, -1]])

    def test_from_rows_validates_colors(self):
        with pytest.raises(ValueError):
            EdgeColoring.from_rows([[-1, -1], [-1, -1]])
        with pytest.raises(ValueError):
            EdgeColoring.from_rows([])

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_from_rows_inverts_rows(self, n):
        m = n * (n - 1) // 2
        for c in (EdgeColoring(n, tuple(range(m))), EdgeColoring(n, (0,) * m), chain_coloring(n)):
            assert EdgeColoring.from_rows(c.rows()) == c

    @given(colorings())
    def test_from_rows_inverts_rows_random(self, coloring):
        assert EdgeColoring.from_rows(coloring.rows()) == coloring

    @given(colorings())
    def test_pair_indexing_consistent(self, coloring):
        for u, v, c in naive_pairs(coloring):
            assert coloring.color(u, v) == c
            assert coloring.color(v, u) == c


class TestRainbow:
    def test_rainbow_triangle_found(self):
        witness = find_rainbow_triangle(EdgeColoring(3, (0, 1, 2)))
        assert witness == RainbowWitness(vertices=(0, 1, 2), colors=(0, 1, 2))

    def test_two_colored_triangle_is_clean(self):
        assert find_rainbow_triangle(EdgeColoring(3, (0, 1, 1))) is None

    def test_smallest_witness_wins(self):
        # both (0, 1, 3) and (0, 2, 3) are rainbow; lexicographic order
        c = EdgeColoring.from_rows(
            [
                [-1,  0,  0,  1],
                [ 0, -1,  0,  2],
                [ 0,  0, -1,  2],
                [ 1,  2,  2, -1],
            ]
        )
        witness = find_rainbow_triangle(c)
        assert witness.vertices == (0, 1, 3)
        assert witness.colors == (0, 1, 2)

    def test_witness_colors_match_the_edges(self):
        c = EdgeColoring(4, (0, 1, 0, 2, 0, 1))
        witness = find_rainbow_triangle(c)
        if witness is not None:
            i, j, k = witness.vertices
            assert witness.colors == (c.color(i, j), c.color(i, k), c.color(j, k))

    @given(colorings())
    def test_is_gallai_agrees_with_direct_scan(self, coloring):
        assert is_gallai(coloring) == (naive_rainbow_triangle(coloring) is None)
        witness = find_rainbow_triangle(coloring)
        if witness is not None:
            i, j, k = witness.vertices
            assert i < j < k
            assert len(set(witness.colors)) == 3
            assert witness.colors == (
                coloring.color(i, j),
                coloring.color(i, k),
                coloring.color(j, k),
            )


class TestScanMatchesOracle:
    """find_rainbow_triangle returns exactly the naive scan's witness."""

    @given(few_color_colorings())
    def test_random_few_colors(self, coloring):
        assert find_rainbow_triangle(coloring) == naive_rainbow_triangle(coloring)

    def test_every_gallai_five_with_one_edge_recolored(self, enumerated):
        for coloring in enumerated[5]:
            assert find_rainbow_triangle(coloring) is None
            for index in range(len(coloring.colors)):
                copy = recolored(coloring, index)
                assert find_rainbow_triangle(copy) == naive_rainbow_triangle(copy)

    @pytest.mark.parametrize(
        "family, size",
        [(uniform_coloring, d) for d in range(7)]
        + [(chain_coloring, n) for n in (1, 2, 3, 4, 7, 12, 20, 33, 47, 60)],
    )
    def test_families_intact_and_recolored(self, family, size):
        coloring = family(size)
        assert find_rainbow_triangle(coloring) is None
        assert naive_rainbow_triangle(coloring) is None
        m = len(coloring.colors)
        for index in sorted({0, m // 3, m // 2, m - 1} if m else ()):
            copy = recolored(coloring, index)
            assert find_rainbow_triangle(copy) == naive_rainbow_triangle(copy)


class TestOneRowMatrixPerCall:
    """The scan reads the stored tuple; each command or reader that also
    needs per-vertex rows builds ``rows()`` once."""

    GALLAI = [chain_coloring(7), uniform_coloring(3), EdgeColoring(4, (0, 0, 1, 0, 1, 1))]

    @pytest.fixture
    def rows_calls(self, monkeypatch):
        calls = []
        rows = EdgeColoring.rows

        def counted(coloring):
            calls.append(coloring.n)
            return rows(coloring)

        monkeypatch.setattr(EdgeColoring, "rows", counted)
        return calls

    @pytest.mark.parametrize("coloring", GALLAI + [recolored(chain_coloring(9), 20), EdgeColoring(3, (0, 1, 2))])
    def test_scan_builds_no_rows(self, rows_calls, coloring):
        find_rainbow_triangle(coloring)
        assert rows_calls == []

    @pytest.mark.parametrize("reader", [find_disconnected_color, brute_force_gallai_partition])
    @pytest.mark.parametrize("coloring", GALLAI)
    def test_structure_readers_build_rows_once(self, rows_calls, reader, coloring):
        reader(coloring)
        assert rows_calls == [coloring.n]

    @pytest.mark.parametrize("command", ["verify", "partition"])
    @pytest.mark.parametrize("coloring", GALLAI)
    def test_commands_build_rows_once(self, rows_calls, tmp_path, capsys, command, coloring):
        doc = tmp_path / "in.doc"
        doc.write_text(render_document(coloring))
        assert main([command, str(doc)]) == 0
        assert rows_calls == [coloring.n]

    def test_verify_of_a_rainbow_builds_rows_once(self, rows_calls, tmp_path, capsys):
        doc = tmp_path / "in.doc"
        doc.write_text(render_document(recolored(chain_coloring(9), 20)))
        assert main(["verify", str(doc)]) == 1
        assert rows_calls == [9]


class TestColorDegrees:
    def test_monochromatic_triangle(self):
        assert color_degrees(EdgeColoring(3, (0, 0, 0))) == [1, 1, 1]

    def test_mixed_example(self):
        # vertex 0 sees {0, 1}, vertex 1 sees {0, 2}, vertex 2 sees {1, 2}
        assert color_degrees(EdgeColoring(3, (0, 1, 2))) == [2, 2, 2]

    @given(colorings())
    def test_matches_pair_walk(self, coloring):
        assert color_degrees(coloring) == naive_color_degrees(coloring)

    def test_matches_pair_walk_enumerated(self, enumerated):
        for coloring in enumerated[5]:
            assert color_degrees(coloring) == naive_color_degrees(coloring)

    @pytest.mark.parametrize("coloring", [chain_coloring(60), uniform_coloring(4)], ids=["chain-60", "uniform-4"])
    def test_matches_pair_walk_families(self, coloring):
        assert color_degrees(coloring) == naive_color_degrees(coloring)

    @given(colorings())
    def test_matches_per_vertex_recount(self, coloring):
        for v in range(coloring.n):
            incident = {coloring.color(v, u) for u in range(coloring.n) if u != v}
            assert color_degrees(coloring)[v] == len(incident)


class TestNormalize:
    def test_first_appearance_order(self):
        assert normalize_colors(EdgeColoring(3, (7, 7, 3))).colors == (0, 0, 1)

    @given(colorings())
    def test_idempotent(self, coloring):
        once = normalize_colors(coloring)
        assert normalize_colors(once) == once

    @given(colorings())
    def test_preserves_structure(self, coloring):
        norm = normalize_colors(coloring)
        assert color_degrees(norm) == color_degrees(coloring)
        assert is_gallai(norm) == is_gallai(coloring)
        # color ids are exactly 0..C-1
        used = norm.color_set()
        assert used == set(range(len(used)))


CHAIN_4 = chain_coloring(4)
BOOL_ARGUMENTS = {
    "vertex": (
        lambda: duplicate_vertex(chain_coloring(3), True, DuplicationChoice.FRESH_COLOR),
        "vertex True out of range for n=3",
    ),
    "vertex-pair": (lambda: EdgeColoring(3, (0, 1, 2)).color(True, 2), "invalid vertex pair (True, 2) for n=3"),
    "bit-count": (lambda: uniform_coloring(True), "bit count must be an integer >= 0, got True"),
    "bit-count-false": (lambda: uniform_coloring(False), "bit count must be an integer >= 0, got False"),
    "vertex-count": (lambda: min_degree_upper_bound(True), "n must be an integer >= 1, got True"),
    "crosscheck": (lambda: crosscheck(True), "n must be an integer >= 1, got True"),
    # a value that is no number: the message of a non-integer, not a TypeError
    "bit-count-none": (lambda: uniform_coloring(None), "bit count must be an integer >= 0, got None"),
    "vertex-count-str": (lambda: chain_coloring("3"), "vertex count must be an integer >= 1, got '3'"),
    "n-str": (lambda: min_degree_upper_bound("3"), "n must be an integer >= 1, got '3'"),
    "crosscheck-none": (lambda: crosscheck(None), "n must be an integer >= 1, got None"),
    "vertex-pair-none": (lambda: chain_coloring(3).color(None, 1), "invalid vertex pair (None, 1) for n=3"),
    # a number below the least count keeps its message
    "vertex-count-false": (lambda: chain_coloring(False), "vertex count must be >= 1, got False"),
    "vertex-count-half": (lambda: chain_coloring(0.5), "vertex count must be >= 1, got 0.5"),
    "color-id": (lambda: color_component_split(CHAIN_4, True), "color True does not appear in the coloring"),
    "component-index": (
        lambda: compress_component(CHAIN_4, color_component_split(CHAIN_4, 2), True),
        "component index True out of range",
    ),
    "component-index-bounds": (
        lambda: compression_degree_bounds(CHAIN_4, color_component_split(CHAIN_4, 2), True),
        "component index True out of range",
    ),
}


@pytest.mark.parametrize("call, message", BOOL_ARGUMENTS.values(), ids=BOOL_ARGUMENTS.keys())
def test_bool_is_refused_where_an_int_is_taken(call, message):
    # bool is an int subclass, so each bool here used to run as 0 or 1, and
    # None or a string stopped in a comparison with TypeError
    with pytest.raises(ValueError) as refusal:
        call()
    assert str(refusal.value) == message
