"""Exact feasibility test, cross-checked against rational arithmetic and
against the two-loop construction with a table of suffix sums."""

import enum
import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gallai import (
    MalformedSequenceError,
    check_sequence,
    min_degree_upper_bound,
    validate_sequence,
)
from oracles import duplication_sequence, naive_check_sequence, rational_slacks

nondecreasing = st.lists(st.integers(1, 40), min_size=1, max_size=12).map(
    lambda xs: tuple(sorted(xs))
)

# longer sequences, built from stretches of one rise d_k - d_{k-1} each:
# runs of equal entries (rise 0), chain steps (rise 1) and jumps of 2 to 64,
# up to 301 entries
stretches = st.lists(st.tuples(st.sampled_from((0, 1)) | st.integers(2, 64), st.integers(1, 20)), max_size=15)
long_nondecreasing = st.tuples(st.integers(1, 64), stretches).map(
    lambda t: tuple(itertools.accumulate((rise for rise, times in t[1] for _ in range(times)), initial=t[0]))
)


class Degree(enum.IntEnum):
    ONE = 1
    TWO = 2


class TestValidate:
    def test_accepts_and_freezes(self):
        assert validate_sequence([1, 2, 2]) == (1, 2, 2)

    def test_singleton_zero_allowed(self):
        assert validate_sequence([0]) == (0,)

    @pytest.mark.parametrize(
        "bad",
        [[], [2, 1], [-1], [0, 1], [1, "2"], [True], [1.0], [1, True], [1, 1.0]],
        ids=["empty", "decreasing", "negative", "zero-n2", "string", "bool", "float", "int-then-bool", "int-then-float"],
    )
    def test_rejects(self, bad):
        with pytest.raises(MalformedSequenceError):
            validate_sequence(bad)

    def test_names_the_first_bad_entry(self):
        with pytest.raises(MalformedSequenceError, match=r"nonnegative, got -1$"):
            validate_sequence([-1, "2"])

    @pytest.mark.parametrize(
        "good", [[Degree.ONE, Degree.TWO, Degree.TWO], [2**70, 2**70]], ids=["int-subclass", "huge"]
    )
    def test_accepts(self, good):
        assert validate_sequence(good) == tuple(good)


class TestCheckSequence:
    def test_two_leaves(self):
        report = check_sequence([1, 1])
        assert report.feasible
        assert report.slacks == (0, 0)
        assert report.first_violation is None

    def test_all_twos_on_three_vertices(self):
        report = check_sequence([2, 2, 2])
        assert not report.feasible
        assert report.first_violation == 1
        assert report.slacks == (-1, 1, 0)

    def test_one_two_two(self):
        report = check_sequence([1, 2, 2])
        assert report.feasible
        assert report.slacks == (0, 0, 0)

    def test_violation_in_the_middle(self):
        report = check_sequence([1, 1, 3, 3])
        assert not report.feasible
        assert report.first_violation == 3
        assert report.slacks == (2, 2, -2, 0)

    def test_singleton(self):
        report = check_sequence([0])
        assert report.feasible
        assert report.slacks == (0,)

    def test_malformed_propagates(self):
        with pytest.raises(MalformedSequenceError):
            check_sequence([2, 1])

    def test_huge_degrees_stay_exact(self):
        # tightness at depths where floating point would fuzz out entirely
        seq = list(range(1, 1001)) + [1000]
        report = check_sequence(seq)
        assert report.feasible
        assert report.slacks[0] == 0
        report = check_sequence([1, 1000, 1000])
        assert not report.feasible
        assert report.first_violation == 1
        assert report.slacks[0] == (1 << 999) + 2 - (1 << 1000)

    def test_chain_sequence_is_tight(self):
        for n in range(2, 13):
            seq = list(range(1, n)) + [n - 1]
            report = check_sequence(seq)
            assert report.feasible
            assert report.slacks[0] == 0

    @given(nondecreasing)
    def test_matches_rational_oracle(self, seq):
        report = check_sequence(seq)
        first = None
        for k, slack in enumerate(rational_slacks(seq), start=1):
            exact = report.slacks[k - 1]
            assert (exact > 0) == (slack > 0)
            assert (exact == 0) == (slack == 0)
            assert (exact < 0) == (slack < 0)
            if slack < 0 and first is None:
                first = k
        assert report.first_violation == first
        assert report.feasible == (first is None)

    @given(nondecreasing | long_nondecreasing)
    def test_matches_two_loop_reference(self, seq):
        assert check_sequence(seq) == naive_check_sequence(seq)

    def test_long_sequences_match_two_loop_reference(self):
        chain = list(range(1, 50_000)) + [49_999]
        duplication = duplication_sequence(100_000, random.Random(7))
        for seq in (chain, duplication):
            assert check_sequence(seq) == naive_check_sequence(seq)

    @given(nondecreasing)
    def test_repeated_value_slack_never_negative(self, seq):
        # when d_{k-1} = d_k the i = k summand alone is already 2^0 = 1
        report = check_sequence(seq)
        for k in range(2, len(seq) + 1):
            if seq[k - 2] == seq[k - 1]:
                assert report.slacks[k - 1] >= 0

    @given(nondecreasing)
    def test_feasible_max_attained_twice(self, seq):
        # a unique maximum makes the k = n constraint 2^{-(d_n - d_{n-1})} < 1
        if len(seq) >= 2 and check_sequence(seq).feasible:
            assert seq[-1] == seq[-2]

    @given(nondecreasing)
    def test_feasible_min_within_logarithmic_bound(self, seq):
        # the k = 1 constraint caps the smallest entry at floor(log2 n)
        if check_sequence(seq).feasible:
            assert seq[0] <= min_degree_upper_bound(len(seq))


class TestMinDegreeUpperBound:
    @pytest.mark.parametrize(
        "n,expected",
        [(1, 0), (2, 1), (3, 1), (4, 2), (7, 2), (8, 3), (1023, 9), (1024, 10)],
    )
    def test_values(self, n, expected):
        assert min_degree_upper_bound(n) == expected

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            min_degree_upper_bound(0)
