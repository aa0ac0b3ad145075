"""Exhaustive enumeration, the characterization crosscheck, and partitions.

The full walk, ``enumerate_gallai`` in ``oracles.py``, is refereed by an
independent implementation that walks all restricted-growth colorings and
filters with the rainbow scan afterwards; the two must produce identical
streams.  Counts frozen from that referee: n = 1..5 give 1, 1, 4, 47, 1127
colorings up to color relabeling.  At n = 6, beyond the referee's reach,
the full walk gives 44,300 colorings with 25 sorted degree sequences, as
``naive_enumeration_stats`` recounts them with ``color_degrees`` per leaf;
the whole stream is pinned by a sha256 taken from the walk that made that
recount.  The package's one walk, ``crosscheck``'s sweep ``_sweep``, must
find the recount's sequences, and its leaves must be the colorings of the
full walk that no adjacent vertex swap makes smaller, which
``swap_minimal`` recomputes from the stored colors; ``sweep_stats``
counts them, and at n <= 5 every class of colorings under relabeling of
vertices and colors has a leaf.  At n = 7 the same sweep hands every
leaf to the structure checks.  The referees live in ``oracles.py``.
"""

import hashlib
import itertools
import random
from collections import Counter

import pytest

from gallai import (
    EdgeColoring,
    GallaiPartition,
    NotGallaiError,
    SizeGuardError,
    brute_force_gallai_partition,
    check_sequence,
    color_degrees,
    compress_component,
    crosscheck,
    find_disconnected_color,
    is_gallai,
    normalize_colors,
    prefix_color_bound_report,
    recover_chain_order,
    uniform_coloring,
)
from gallai.construct import chain_coloring, monochromatic_coloring, realize
from gallai.oracle import _first_labels, candidate_sequences
from gallai.structure import compression_degree_bounds
from oracles import (
    canonical_form,
    enumerate_gallai,
    feasible_sequences,
    naive_enumeration_stats,
    naive_first_labels,
    naive_gallai_partition,
    naive_partitions,
    outcome,
    relabelled,
    swap_minimal,
    sweep_stats,
    unfiltered_reference,
)

GALLAI_COUNTS = {1: 1, 2: 1, 3: 4, 4: 47, 5: 1127}
SIX_VERTEX_COUNT = 44300
SIX_VERTEX_SEQUENCES = 25
# sha256 over the color tuples of enumerate_gallai(6), concatenated in
# stream order, one byte per color.
SIX_VERTEX_STREAM_SHA256 = "6ec8b63316d6da89e8172ac96e40492a46af86b4096063e56a77413be579daec"

# Swap-minimal colorings: at n = 6, enumerate_gallai(6) filtered by
# swap_minimal; at n = 7, the sweep's own count.
ORDERED_SIX_VERTEX_COUNT = 1929
ORDERED_SEVEN_VERTEX_COUNT = 29307
# Swap-minimal colorings at n = 7 with a color of disconnected span, as
# find_disconnected_color counts them.
SEVEN_VERTEX_SPLITS = 26161
# Their compressions, one per component, each with one vertex bound per
# vertex of the component, and the leaves with a vertex of degree 6, as
# compress_component, compression_degree_bounds and recover_chain_order
# count them.
SEVEN_VERTEX_COMPRESSIONS = 103094
SEVEN_VERTEX_BOUNDS = 183127
SEVEN_VERTEX_APEXES = 235

# sha256 over the reprs of brute_force_gallai_partition of every
# enumerated coloring for n = 2..5, taken from the implementation that read
# each cross edge through EdgeColoring.color.
PARTITION_DIGEST = "db622f9d3c7db921aafcf62fe0a817f3ab49c43839bb35850b999442d0630e94"

RAINBOW_K3 = EdgeColoring(3, (0, 1, 2))


class TestEnumerate:
    def test_counts(self, enumerated):
        for n, count in GALLAI_COUNTS.items():
            assert len(enumerated[n]) == count

    def test_three_vertices_explicit(self, enumerated):
        assert [c.colors for c in enumerated[3]] == [
            (0, 0, 0),
            (0, 0, 1),
            (0, 1, 0),
            (0, 1, 1),
        ]

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_matches_unfiltered_reference(self, n, enumerated):
        assert enumerated[n] == list(unfiltered_reference(n))

    def test_all_outputs_gallai_and_normalized(self, enumerated):
        for n in (4, 5):
            for coloring in enumerated[n]:
                assert is_gallai(coloring)
                assert normalize_colors(coloring) == coloring

    def test_no_duplicates(self, enumerated):
        for n in (4, 5):
            seen = {c.colors for c in enumerated[n]}
            assert len(seen) == len(enumerated[n])

    def test_color_count_at_most_n_minus_one(self, enumerated):
        for n in range(2, 6):
            for coloring in enumerated[n]:
                assert len(coloring.color_set()) <= n - 1

    def test_stats(self, enumerated):
        # counting the colorings, and crosscheck collecting their sequences
        assert sum(1 for _ in enumerate_gallai(4)) == GALLAI_COUNTS[4]
        assert crosscheck(4).realizable == {
            tuple(sorted(color_degrees(c))) for c in enumerated[4]
        }

    def test_six_vertex_stream_digest(self):
        stream = itertools.chain.from_iterable(c.colors for c in enumerate_gallai(6))
        assert hashlib.sha256(bytes(stream)).hexdigest() == SIX_VERTEX_STREAM_SHA256


class TestEnumerationStats:
    def test_six_vertices_frozen(self):
        count, sequences = naive_enumeration_stats(6)
        assert count == SIX_VERTEX_COUNT
        assert len(sequences) == SIX_VERTEX_SEQUENCES
        assert len(sweep_stats(6)[1]) == SIX_VERTEX_SEQUENCES


class TestRealizableSequences:
    def test_frozen_small_sets(self):
        assert sweep_stats(3)[1] == {(1, 1, 1), (1, 2, 2)}
        assert sweep_stats(4)[1] == {
            (1, 1, 1, 1),
            (1, 1, 2, 2),
            (1, 2, 2, 2),
            (1, 2, 3, 3),
            (2, 2, 2, 2),
        }

    def test_five_vertices_count(self):
        assert len(sweep_stats(5)[1]) == 11

    def test_known_exclusion(self):
        assert (1, 1, 3, 3) not in sweep_stats(4)[1]


class TestCandidates:
    def test_single_vertex(self):
        assert list(candidate_sequences(1)) == [(0,)]

    def test_three_vertices(self):
        assert list(candidate_sequences(3)) == [
            (1, 1, 1),
            (1, 1, 2),
            (1, 2, 2),
            (2, 2, 2),
        ]

    @pytest.mark.parametrize(
        "n, message",
        [(True, "n must be an integer >= 1, got True"), (0, "n must be >= 1, got 0"), (None, "n must be an integer >= 1, got None")],
        ids=["bool", "zero", "none"],
    )
    def test_bad_count_is_refused_at_the_call(self, n, message):
        # before the first next(): the call itself raises
        with pytest.raises(ValueError) as refusal:
            candidate_sequences(n)
        assert str(refusal.value) == message

    def test_all_candidates_valid_shape(self):
        for seq in candidate_sequences(5):
            assert len(seq) == 5
            assert all(1 <= d <= 4 for d in seq)
            assert list(seq) == sorted(seq)


class TestCrosscheck:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_sets_match(self, n):
        result = crosscheck(n)
        assert result.equal
        assert result.only_realizable == frozenset()
        assert result.only_feasible == frozenset()

    def test_realizable_subset_of_candidates(self):
        candidates = set(candidate_sequences(4))
        assert crosscheck(4).realizable <= candidates

    def test_feasible_side_agrees_with_check_sequence(self):
        result = crosscheck(4)
        for seq in candidate_sequences(4):
            assert (seq in result.feasible) == check_sequence(seq).feasible


@pytest.fixture(scope="module")
def seven():
    """The one sweep at n = 7: its count, its sequences, and a tally of the
    structure checks on every leaf."""
    tally = Counter()

    def visit(coloring, degrees):
        # the corollary of Fujita, Li and Zhang: min degree <= floor(log2 7)
        tally["min degree at most 2"] += min(degrees) <= 2
        tally["prefix bound holds"] += prefix_color_bound_report(coloring).ok
        split = find_disconnected_color(coloring)
        tally["split"] += split is not None
        unsplit = split is None and len(coloring.color_set()) >= 3
        tally["three or more colors, no split"] += unsplit
        for which in range(len(split.components) if split else 0):
            result = compress_component(coloring, split, which)
            tally["compression"] += 1
            tally["compression stays Gallai"] += is_gallai(result.reduced)
            for _, full, within in compression_degree_bounds(coloring, split, which):
                tally["vertex bound"] += 1
                tally["vertex bound holds"] += full <= within + result.outside_color_count
        if 6 in degrees:
            # an apex: the row recovers degrees 1..6
            _, order = recover_chain_order(coloring)
            tally["apex"] += 1
            tally["apex row has degrees 1..6"] += [degrees[v] for v in order] == [1, 2, 3, 4, 5, 6]

    count, sequences = sweep_stats(7, visit)
    return count, sequences, tally


class TestOrderedSweep:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_sequences_match_full_walk(self, n):
        assert sweep_stats(n)[1] == naive_enumeration_stats(n)[1]

    def test_leaves_are_the_swap_minimal_colorings(self):
        # the leaves are the full walk's swap-minimal colorings, in its
        # order, each handed out with its own degrees
        for n in range(1, 7):
            leaves = []
            sweep_stats(n, lambda coloring, degrees: leaves.append((coloring, degrees)))
            assert [c for c, _ in leaves] == [c for c in enumerate_gallai(n) if swap_minimal(c)]
            assert all(d == tuple(color_degrees(c)) for c, d in leaves)

    def test_every_class_has_a_leaf(self, enumerated):
        # classes up to relabeling of vertices and colors: 36 at n = 5
        for n in range(1, 6):
            leaves = []
            sweep_stats(n, lambda coloring, degrees: leaves.append(coloring))
            classes = set(map(canonical_form, enumerated[n]))
            assert set(map(canonical_form, leaves)) == classes
        assert len(classes) == 36

    def test_six_vertices_frozen(self):
        assert sweep_stats(6)[0] == ORDERED_SIX_VERTEX_COUNT

    def test_seven_vertices_match_feasible(self, seven):
        count, sequences, _ = seven
        assert sequences == {
            seq for seq in candidate_sequences(7) if check_sequence(seq).feasible
        }
        assert len(sequences) == 57
        assert count == ORDERED_SEVEN_VERTEX_COUNT

    def test_seven_vertices_structure(self, seven):
        _, _, tally = seven
        assert tally == {
            "min degree at most 2": ORDERED_SEVEN_VERTEX_COUNT,
            "prefix bound holds": ORDERED_SEVEN_VERTEX_COUNT,
            "split": SEVEN_VERTEX_SPLITS,
            "three or more colors, no split": 0,
            "compression": SEVEN_VERTEX_COMPRESSIONS,
            "compression stays Gallai": SEVEN_VERTEX_COMPRESSIONS,
            "vertex bound": SEVEN_VERTEX_BOUNDS,
            "vertex bound holds": SEVEN_VERTEX_BOUNDS,
            "apex": SEVEN_VERTEX_APEXES,
            "apex row has degrees 1..6": SEVEN_VERTEX_APEXES,
        }

    def test_crosscheck_guards_before_any_walk(self, monkeypatch):
        def walked(*args):
            raise AssertionError("walked")

        monkeypatch.setattr("gallai.oracle._sweep", walked)
        with pytest.raises(ValueError, match="must be >= 1"):
            crosscheck(0)
        with pytest.raises(SizeGuardError):
            crosscheck(9)

    def test_crosscheck_sweeps_seven(self, monkeypatch):
        swept = []
        monkeypatch.setattr("gallai.oracle._sweep", lambda n, leaf: swept.append(n))
        crosscheck(7)
        assert swept == [7]


class TestPartitionScan:
    """``naive_partitions`` defines the order the partition walk follows."""

    def test_count_is_bell_minus_one(self):
        # proper partitions only: Bell(4) - 1 = 14, Bell(5) - 1 = 51
        assert sum(1 for _ in naive_partitions(4)) == 14
        assert sum(1 for _ in naive_partitions(5)) == 51

    def test_order_for_three(self):
        assert list(naive_partitions(3)) == [
            [[0, 1], [2]],
            [[0, 2], [1]],
            [[0], [1, 2]],
            [[0], [1], [2]],
        ]

    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_unpruned_sort(self, n):
        # the pruned walk's first leaf is the first valid partition of the
        # unpruned sort, on every rotation of the chain's vertices
        chain = chain_coloring(n)
        for shift in range(n):
            coloring = relabelled(chain, [(v + shift) % n for v in range(n)])
            assert outcome(brute_force_gallai_partition, coloring) == outcome(
                naive_gallai_partition, coloring
            )

    def test_every_output_partitions_the_range(self):
        for parts in naive_partitions(5):
            flat = sorted(v for part in parts for v in part)
            assert flat == list(range(5))
            assert all(part for part in parts)


class TestFirstLabels:
    def test_every_part_count_matches_the_unpruned_sort(self, enumerated):
        # every k, including those the walk exhausts, and rainbow inputs,
        # which brute_force_gallai_partition refuses before any walk
        rng = random.Random(3)
        colorings = [c for n in range(2, 6) for c in enumerated[n]] + [
            EdgeColoring(n, tuple(rng.randrange(3) for _ in range(n * (n - 1) // 2)))
            for n in range(2, 7)
            for _ in range(40)
        ]
        tally = Counter()
        for coloring in colorings:
            tally["rainbow"] += not is_gallai(coloring)
            rows = coloring.rows()
            for k in range(2, coloring.n + 1):
                labels = _first_labels(rows, k)
                assert labels == naive_first_labels(coloring, k), (coloring, k)
                tally["case"] += 1
                tally["none"] += labels is None
        assert tally["case"] == 5258
        assert 0 < tally["none"] < tally["case"]
        assert tally["rainbow"] > 0


class TestGallaiPartition:
    def test_monochromatic_triangle(self):
        partition = brute_force_gallai_partition(monochromatic_coloring(3))
        assert partition.parts == ((0, 1), (2,))
        assert partition.cross_colors == frozenset({0})

    def test_uniform_two(self):
        partition = brute_force_gallai_partition(uniform_coloring(2))
        assert partition.parts == ((0, 1), (2, 3))
        assert partition.cross_colors == frozenset({1})
        assert partition.part_pair_color == {(0, 1): 1}

    def test_rejects_rainbow(self):
        with pytest.raises(NotGallaiError):
            brute_force_gallai_partition(RAINBOW_K3)

    def test_size_guards(self):
        with pytest.raises(ValueError):
            brute_force_gallai_partition(EdgeColoring(1, ()))
        with pytest.raises(SizeGuardError):
            brute_force_gallai_partition(monochromatic_coloring(11))

    def test_partition_is_valid_on_enumerated(self, enumerated):
        for n in (2, 3, 4):
            for coloring in enumerated[n]:
                partition = brute_force_gallai_partition(coloring)
                parts = partition.parts
                assert len(parts) >= 2
                assert sorted(v for p in parts for v in p) == list(range(n))
                seen_colors = set()
                for i, j in itertools.combinations(range(len(parts)), 2):
                    joining = {
                        coloring.color(u, v) for u in parts[i] for v in parts[j]
                    }
                    assert len(joining) == 1
                    assert partition.part_pair_color[(i, j)] == next(iter(joining))
                    seen_colors |= joining
                assert seen_colors == set(partition.cross_colors)
                assert len(seen_colors) <= 2

    def test_enumerated_digest(self, enumerated):
        h = hashlib.sha256()
        for n in range(2, 6):
            for coloring in enumerated[n]:
                h.update(repr(brute_force_gallai_partition(coloring)).encode())
        assert h.hexdigest() == PARTITION_DIGEST


class TestGallaiPartitionMatchesOracle:
    def test_enumerated(self, enumerated):
        for n in range(1, 6):
            for coloring in enumerated[n]:
                assert outcome(brute_force_gallai_partition, coloring) == outcome(
                    naive_gallai_partition, coloring
                )

    def test_seeded_few_color_colorings(self):
        rng = random.Random(29)
        found = 0
        for _ in range(500):
            n = rng.randint(2, 7)
            k = rng.randint(1, 3)
            coloring = EdgeColoring(n, tuple(rng.randrange(k) for _ in range(n * (n - 1) // 2)))
            expected = outcome(naive_gallai_partition, coloring)
            assert outcome(brute_force_gallai_partition, coloring) == expected
            found += isinstance(expected, GallaiPartition)
        assert 0 < found < 500

    @pytest.mark.parametrize("n", range(2, 9))
    def test_realized_sequences(self, n):
        # realize's colorings hide their first valid partition deep in the
        # order, where generate-and-test was slowest
        rng = random.Random(n)
        for seq in feasible_sequences(n):
            built = realize(seq)
            for coloring in (built, relabelled(built, rng.sample(range(n), n))):
                assert outcome(brute_force_gallai_partition, coloring) == outcome(
                    naive_gallai_partition, coloring
                ), seq

    @pytest.mark.parametrize(
        "coloring",
        [
            chain_coloring(9),
            chain_coloring(10),
            relabelled(chain_coloring(10), range(9, -1, -1)),
        ],
        ids=["chain-9", "chain-10", "chain-10-reversed"],
    )
    def test_chains(self, coloring):
        assert brute_force_gallai_partition(coloring) == naive_gallai_partition(coloring)

    def test_pinned_at_ten(self):
        chain = brute_force_gallai_partition(chain_coloring(10))
        assert chain.parts == ((0,), tuple(range(1, 10)))
        assert chain.cross_colors == frozenset({0})
        realized = brute_force_gallai_partition(realize([*range(1, 10), 9]))
        assert realized.parts == ((0, *range(2, 10)), (1,))
