"""Exhaustive enumeration, the characterization crosscheck, and partitions.

The enumerator is refereed by an independent implementation that walks all
restricted-growth colorings and filters with the rainbow scan afterwards;
the two must produce identical streams.  Counts frozen from that referee:
n = 1..5 give 1, 1, 4, 47, 1127 colorings up to color relabeling.  At
n = 6, beyond the referee's reach, the enumeration gives 44,300 colorings
with 25 sorted degree sequences, as ``naive_enumeration_stats`` recounts
them with ``color_degrees`` per leaf; the whole stream is pinned by a
sha256 taken from the walk that made that recount.  ``crosscheck``'s sweep,
``_ordered_stats``, must find the recount's sequences, and it must count
as many colorings as the full walk holds with nondecreasing vertex keys,
which ``key_ordered`` recomputes from the color matrix.  The referees live
in ``oracles.py``.
"""

import hashlib
import itertools
import random

import pytest

from gallai import (
    EdgeColoring,
    GallaiPartition,
    NotGallaiError,
    SizeGuardError,
    brute_force_gallai_partition,
    check_sequence,
    color_degrees,
    crosscheck,
    enumerate_gallai,
    is_gallai,
    normalize_colors,
    uniform_coloring,
)
from gallai.construct import monochromatic_coloring
from gallai.oracle import (
    _ordered_stats,
    _partitions_by_block_count,
    candidate_sequences,
)
from oracles import (
    key_ordered,
    naive_enumeration_stats,
    naive_gallai_partition,
    naive_partitions,
    outcome,
    unfiltered_reference,
)

GALLAI_COUNTS = {1: 1, 2: 1, 3: 4, 4: 47, 5: 1127}
SIX_VERTEX_COUNT = 44300
SIX_VERTEX_SEQUENCES = 25
# sha256 over the color tuples of enumerate_gallai(6), concatenated in
# stream order, one byte per color.
SIX_VERTEX_STREAM_SHA256 = "6ec8b63316d6da89e8172ac96e40492a46af86b4096063e56a77413be579daec"

# Key-ordered colorings: at n = 6, enumerate_gallai(6) filtered by
# key_ordered; at n = 7, the sweep's own count.
ORDERED_SIX_VERTEX_COUNT = 2645
ORDERED_SEVEN_VERTEX_COUNT = 37373

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

    def test_size_guard(self):
        # raised when called, before the first next()
        with pytest.raises(SizeGuardError):
            enumerate_gallai(7)
        with pytest.raises(ValueError):
            enumerate_gallai(0)

    def test_stats(self, enumerated):
        # the public ways to count the colorings and to collect their sequences
        assert sum(1 for _ in enumerate_gallai(4)) == GALLAI_COUNTS[4]
        assert crosscheck(4).realizable == {
            tuple(sorted(color_degrees(c))) for c in enumerated[4]
        }

    def test_six_vertex_stream_digest(self):
        stream = itertools.chain.from_iterable(c.colors for c in enumerate_gallai(6))
        assert hashlib.sha256(bytes(stream)).hexdigest() == SIX_VERTEX_STREAM_SHA256


class TestEnumerationStats:
    def test_six_vertices_frozen(self):
        stats = naive_enumeration_stats(6)
        assert stats.count == SIX_VERTEX_COUNT
        assert len(stats.sequences) == SIX_VERTEX_SEQUENCES
        assert len(_ordered_stats(6).sequences) == SIX_VERTEX_SEQUENCES


class TestRealizableSequences:
    def test_frozen_small_sets(self):
        assert _ordered_stats(3).sequences == {(1, 1, 1), (1, 2, 2)}
        assert _ordered_stats(4).sequences == {
            (1, 1, 1, 1),
            (1, 1, 2, 2),
            (1, 2, 2, 2),
            (1, 2, 3, 3),
            (2, 2, 2, 2),
        }

    def test_five_vertices_count(self):
        assert len(_ordered_stats(5).sequences) == 11

    def test_known_exclusion(self):
        assert (1, 1, 3, 3) not in _ordered_stats(4).sequences


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


class TestOrderedSweep:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_sequences_match_full_walk(self, n):
        assert _ordered_stats(n).sequences == naive_enumeration_stats(n).sequences

    def test_counts_the_key_ordered_colorings(self, enumerated):
        for n in range(1, 6):
            assert _ordered_stats(n).count == sum(map(key_ordered, enumerated[n]))

    def test_six_vertices_frozen(self):
        assert _ordered_stats(6).count == ORDERED_SIX_VERTEX_COUNT

    def test_seven_vertices_match_feasible(self):
        stats = _ordered_stats(7)
        assert stats.sequences == {
            seq for seq in candidate_sequences(7) if check_sequence(seq).feasible
        }
        assert len(stats.sequences) == 57
        assert stats.count == ORDERED_SEVEN_VERTEX_COUNT

    def test_crosscheck_guards_before_any_walk(self, monkeypatch):
        def walked(n):
            raise AssertionError("walked")

        monkeypatch.setattr("gallai.oracle._ordered_stats", walked)
        monkeypatch.setattr("gallai.oracle.enumerate_gallai", walked)
        with pytest.raises(ValueError, match="must be >= 1"):
            crosscheck(0)
        with pytest.raises(SizeGuardError):
            crosscheck(7)


class TestPartitionScan:
    def test_count_is_bell_minus_one(self):
        # proper partitions only: Bell(4) - 1 = 14, Bell(5) - 1 = 51
        assert sum(1 for _ in _partitions_by_block_count(4)) == 14
        assert sum(1 for _ in _partitions_by_block_count(5)) == 51

    def test_order_for_three(self):
        assert list(_partitions_by_block_count(3)) == [
            [[0, 1], [2]],
            [[0, 2], [1]],
            [[0], [1, 2]],
            [[0], [1], [2]],
        ]

    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_unpruned_sort(self, n):
        assert list(_partitions_by_block_count(n)) == list(naive_partitions(n))

    def test_every_output_partitions_the_range(self):
        for parts in _partitions_by_block_count(5):
            flat = sorted(v for part in parts for v in part)
            assert flat == list(range(5))
            assert all(part for part in parts)


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
