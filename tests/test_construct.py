"""Vertex duplication and the realization of feasible sequences."""

import hashlib
import itertools
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gallai import (
    MAX_VERTICES,
    DuplicationChoice,
    EdgeColoring,
    InfeasibleSequenceError,
    SizeGuardError,
    chain_coloring,
    check_sequence,
    color_degrees,
    duplicate_vertex,
    is_gallai,
    normalize_colors,
    realize,
    render_document,
    render_dot,
    uniform_coloring,
)
from gallai import construct
from gallai.construct import monochromatic_coloring
from gallai.oracle import candidate_sequences
from oracles import (
    duplication_sequence,
    feasible_sequences,
    naive_check_sequence,
    naive_duplicate,
    naive_pairs,
    naive_realize,
)


def realization_digest(sequences):
    h = hashlib.sha256()
    for seq in sequences:
        h.update(render_document(realize(seq)).encode())
    return h.hexdigest()


@st.composite
def duplication_chains(draw, max_steps=6):
    """A Gallai coloring built by random duplications, plus the raw steps."""
    coloring = EdgeColoring(1, ())
    steps = []
    for _ in range(draw(st.integers(0, max_steps))):
        v = draw(st.integers(0, coloring.n - 1))
        if coloring.n == 1:
            choice = DuplicationChoice.FRESH_COLOR
        else:
            choice = draw(st.sampled_from(list(DuplicationChoice)))
        steps.append((v, choice))
        coloring = duplicate_vertex(coloring, v, choice)
    return coloring, steps


class TestMonochromatic:
    def test_degrees(self):
        c = monochromatic_coloring(5)
        assert color_degrees(c) == [1] * 5
        assert c.color_set() == {0}

    def test_single_vertex(self):
        assert monochromatic_coloring(1).n == 1

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            monochromatic_coloring(0)


class TestDuplicateVertex:
    def test_clone_copies_the_row(self):
        base = chain_coloring(4)
        for v in range(4):
            for choice in DuplicationChoice:
                grown = duplicate_vertex(base, v, choice)
                assert grown.n == 5
                for u in range(4):
                    if u != v:
                        assert grown.color(u, 4) == base.color(v, u)

    def test_existing_choice_uses_an_incident_color(self):
        base = chain_coloring(4)
        grown = duplicate_vertex(base, 2, DuplicationChoice.EXISTING_COLOR)
        incident = {base.color(2, u) for u in range(4) if u != 2}
        assert grown.color(2, 4) in incident

    def test_fresh_choice_uses_a_new_color(self):
        base = chain_coloring(4)
        grown = duplicate_vertex(base, 2, DuplicationChoice.FRESH_COLOR)
        assert grown.color(2, 4) not in base.color_set()

    def test_existing_requires_an_edge(self):
        with pytest.raises(ValueError):
            duplicate_vertex(EdgeColoring(1, ()), 0, DuplicationChoice.EXISTING_COLOR)

    def test_fresh_on_single_vertex(self):
        grown = duplicate_vertex(EdgeColoring(1, ()), 0, DuplicationChoice.FRESH_COLOR)
        assert grown.n == 2

    def test_existing_on_monochromatic_pair(self):
        grown = duplicate_vertex(
            monochromatic_coloring(2), 0, DuplicationChoice.EXISTING_COLOR
        )
        assert grown.colors == (0, 0, 0)
        assert color_degrees(grown) == [1, 1, 1]

    def test_fresh_on_pair_raises_two_degrees(self):
        grown = duplicate_vertex(
            monochromatic_coloring(2), 0, DuplicationChoice.FRESH_COLOR
        )
        assert sorted(color_degrees(grown)) == [1, 2, 2]

    def test_rejects_bad_vertex(self):
        with pytest.raises(ValueError):
            duplicate_vertex(chain_coloring(3), 3, DuplicationChoice.FRESH_COLOR)

    @pytest.mark.parametrize("choice", ["existing", "fresh", None])
    def test_rejects_a_choice_that_is_not_a_duplication_choice(self, choice):
        with pytest.raises(ValueError, match="DuplicationChoice"):
            duplicate_vertex(chain_coloring(3), 0, choice)

    @given(duplication_chains())
    def test_chains_stay_gallai(self, chain):
        coloring, _ = chain
        assert is_gallai(coloring)

    @given(duplication_chains(max_steps=4), st.data())
    def test_degree_multiset_transition(self, chain, data):
        coloring, _ = chain
        v = data.draw(st.integers(0, coloring.n - 1))
        before = color_degrees(coloring)
        d = before[v]

        if coloring.n > 1:
            grown = duplicate_vertex(coloring, v, DuplicationChoice.EXISTING_COLOR)
            expected = Counter(before)
            expected[d] += 1
            assert Counter(color_degrees(grown)) == expected

        grown = duplicate_vertex(coloring, v, DuplicationChoice.FRESH_COLOR)
        expected = Counter(before)
        expected[d] -= 1
        expected[d + 1] += 2
        assert Counter(color_degrees(grown)) == +expected

    @given(duplication_chains(), st.data())
    def test_matches_naive_duplication(self, chain, data):
        coloring, _ = chain
        v = data.draw(st.integers(0, coloring.n - 1))
        for choice in DuplicationChoice:
            if coloring.n == 1 and choice is DuplicationChoice.EXISTING_COLOR:
                continue
            assert duplicate_vertex(coloring, v, choice) == naive_duplicate(coloring, v, choice)

    @given(duplication_chains(max_steps=4), st.data())
    def test_any_bridge_color_preserves_gallai(self, chain, data):
        # duplication tolerates an arbitrary bridge color, not just the two
        # canonical choices; check the general statement directly
        coloring, _ = chain
        if coloring.n == 1:
            return
        v = data.draw(st.integers(0, coloring.n - 1))
        top = max(coloring.colors)
        bridge = data.draw(st.integers(0, top + 1))
        n = coloring.n
        pair_colors = {(u, w): c for u, w, c in naive_pairs(coloring)}
        for u in range(n):
            pair_colors[(u, n)] = bridge if u == v else coloring.color(v, u)
        pairs = itertools.combinations(range(n + 1), 2)
        assert is_gallai(EdgeColoring(n + 1, tuple(pair_colors[p] for p in pairs)))


class TestRealize:
    def test_single_vertex(self):
        assert realize([0]).n == 1

    def test_two_leaves(self):
        c = realize([1, 1])
        assert sorted(color_degrees(c)) == [1, 1]

    def test_example_sequences(self):
        for seq in ([1, 2, 2], [2, 2, 2, 2], [1, 2, 3, 3], [1, 1, 2, 2]):
            c = realize(seq)
            assert is_gallai(c)
            assert sorted(color_degrees(c)) == seq

    def test_output_is_normalized(self):
        c = realize([1, 2, 3, 3])
        assert normalize_colors(c) == c

    def test_infeasible_raises_with_report(self):
        with pytest.raises(InfeasibleSequenceError) as excinfo:
            realize([1, 1, 3, 3])
        assert excinfo.value.report.first_violation == 3

    def test_malformed_propagates(self):
        with pytest.raises(ValueError):
            realize([2, 1])

    def test_every_feasible_sequence_up_to_six(self):
        for n in range(1, 7):
            for seq in candidate_sequences(n):
                if not check_sequence(seq).feasible:
                    continue
                c = realize(seq)
                assert is_gallai(c)
                assert tuple(sorted(color_degrees(c))) == seq

    def test_every_vertex_sees_color_zero(self):
        # the base K_m is all color 0 and each clone copies an edge of its
        # source, so an existing-color bridge can always be 0
        for n in range(2, 9):
            for seq in feasible_sequences(n):
                rows = realize(seq).rows()
                assert all(0 in row for row in rows), seq

    def test_deterministic(self):
        assert realize([1, 2, 3, 3]) == realize([1, 2, 3, 3])

    def test_deep_sequence_needs_no_recursion(self):
        # one duplication per vertex; a recursive realize overflows the stack
        c = realize([11] * 2048)
        assert sorted(len(set(row)) - 1 for row in c.rows()) == [11] * 2048


def peel_verdict(seq):
    """``realize``'s refusal report for seq (None when it returns) and the
    number of its calls to ``check_sequence``."""
    calls = []

    def counted(values):
        calls.append(values)
        return check_sequence(values)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(construct, "check_sequence", counted)
        try:
            realize(seq)
        except InfeasibleSequenceError as refusal:
            return refusal.report, len(calls)
    return None, len(calls)


def assert_peel_decides(seq):
    if naive_check_sequence(seq).feasible:
        assert peel_verdict(seq) == (None, 0), seq
    else:
        assert peel_verdict(seq) == (check_sequence(seq), 1), seq


@st.composite
def near_feasible_sequences(draw, max_n=200):
    """A feasible sequence of length <= max_n, or one with an entry moved
    by one, where the verdict often flips."""
    n = draw(st.integers(1, max_n))
    seq = duplication_sequence(n, draw(st.randoms(use_true_random=False)))
    if draw(st.booleans()):
        i = draw(st.integers(0, n - 1))
        seq[i] = max(1, seq[i] + draw(st.sampled_from((-1, 1))))
        seq.sort()
    return seq


class TestPeelVerdict:
    """``realize`` decides feasibility by its own peel and calls
    ``check_sequence`` only to build the report of a stuck peel."""

    def test_every_small_sequence(self):
        # entries in [1, n + 1]: 17,576 sequences with n <= 8, of which 231 are
        # feasible, plus (0,)
        assert_peel_decides((0,))
        for n in range(1, 9):
            for seq in itertools.combinations_with_replacement(range(1, n + 2), n):
                assert_peel_decides(seq)

    @settings(max_examples=40)
    @given(st.one_of(near_feasible_sequences(), st.lists(st.integers(1, 9), min_size=1, max_size=200).map(sorted)))
    def test_agrees_with_the_oracle(self, seq):
        assert_peel_decides(seq)

    def test_generator_input(self):
        assert realize(iter([1, 2, 3, 3])) == realize([1, 2, 3, 3])
        with pytest.raises(InfeasibleSequenceError) as refusal:
            realize(iter([1, 1, 3, 3]))
        assert refusal.value.report == check_sequence([1, 1, 3, 3])

    def test_size_guard_needs_no_report(self):
        # the chain sequence: check_sequence would sum 10^5 slacks of up to 10^5 bits
        chain = list(range(1, 10**5)) + [10**5 - 1]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(construct, "check_sequence", None)  # a call raises TypeError
            with pytest.raises(SizeGuardError, match=r"^n=100000 exceeds the vertex limit 4096$"):
                realize(chain)


class TestRealizeMatchesOracle:
    """``realize`` keeps the output of the recursive construction, pinned by
    digests of the rendered documents and compared with ``naive_realize``."""

    # sha256 over render_document(realize(seq)) for the 232 feasible
    # sequences with n <= 8, in candidate order
    SMALL_DIGEST = "89a34cf2df6a4e7e43c6c29c64e6a9d22fa6258a43ce6c158725600aef8702b6"
    SMALL = [seq for n in range(1, 9) for seq in feasible_sequences(n)]
    # the same over LARGE
    LARGE_DIGEST = "b687dae47f17859e46403fdd959fc1c8b7f854135dbaac51c8574d5c52329755"
    LARGE = [list(range(1, 200)) + [199], [7] * 128] + [
        duplication_sequence(n, random.Random(seed)) for n in (64, 128) for seed in (1, 2, 3)
    ]

    def test_small_digest(self):
        assert realization_digest(self.SMALL) == self.SMALL_DIGEST

    def test_large_digest(self):
        assert realization_digest(self.LARGE) == self.LARGE_DIGEST

    def test_every_small_feasible_sequence(self):
        for seq in self.SMALL:
            assert realize(seq) == naive_realize(seq), seq

    @settings(max_examples=40)
    @given(st.integers(1, 40), st.randoms(use_true_random=False))
    def test_duplication_sequences(self, n, rng):
        seq = duplication_sequence(n, rng)
        assert realize(seq) == naive_realize(seq)


class TestChainColoring:
    def test_four_vertices(self):
        c = chain_coloring(4)
        assert c.colors == (0, 0, 0, 1, 1, 2)
        assert color_degrees(c) == [1, 2, 3, 3]

    def test_degree_sequence_family(self):
        for n in range(2, 9):
            c = chain_coloring(n)
            assert is_gallai(c)
            assert sorted(color_degrees(c)) == list(range(1, n)) + [n - 1]

    def test_single_vertex(self):
        assert chain_coloring(1).n == 1

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            chain_coloring(0)


class TestUniformColoring:
    def test_small_cases(self):
        assert uniform_coloring(0).n == 1
        assert uniform_coloring(1).colors == (0,)

    def test_all_degrees_equal(self):
        for d in range(0, 5):
            c = uniform_coloring(d)
            assert c.n == 1 << d
            assert color_degrees(c) == [d] * c.n
            assert is_gallai(c)

    def test_first_slack_is_zero(self):
        for d in range(1, 7):
            c = uniform_coloring(d)
            report = check_sequence(sorted(color_degrees(c)))
            assert report.feasible
            assert report.slacks[0] == 0

    def test_two_color_class_sizes(self):
        # K_4 splits into a perfect matching and a 4-cycle
        c = uniform_coloring(2)
        sizes = Counter(c.colors)
        assert sorted(sizes.values()) == [2, 4]

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            uniform_coloring(-1)

    def test_size_guard(self):
        for d in (13, 21):
            with pytest.raises(SizeGuardError, match=rf"^bit count {d} exceeds limit 12$"):
                uniform_coloring(d)


class TestVertexLimit:
    """Colorings built from a number stop at MAX_VERTICES = 2^12 vertices."""

    def test_chain_coloring(self):
        with pytest.raises(SizeGuardError, match=r"^n=4097 exceeds the vertex limit 4096$"):
            chain_coloring(MAX_VERTICES + 1)

    def test_realize_after_the_verdict(self):
        chain = list(range(1, MAX_VERTICES + 1)) + [MAX_VERTICES]
        with pytest.raises(SizeGuardError, match=r"^n=4097 exceeds the vertex limit 4096$"):
            realize(chain)
        # past the limit an infeasible sequence still gets its report
        with pytest.raises(InfeasibleSequenceError):
            realize([1] * MAX_VERTICES + [3])


class TestGeneratorOutput:
    """The generators build their colors in first-appearance order, so they
    return them without a normalization pass."""

    # sha256 over render_document of chain_coloring(1..60), then
    # uniform_coloring(0..6), taken while both still normalized their output
    DIGEST = "76f9ea90766a60f00a9b8b6566e71359e969e848fff70e2e07f6b87f44200f32"
    # sha256 over render_dot of the same colorings, then of K_8 with colors
    # 0..27 (past two cycles of the pen palette), taken while the writers
    # still walked the pairs one at a time
    DOT_DIGEST = "ceba0aed0d3f2f488d93b60b389fe48ff590ae6bddcc0ecd5d7b8c90776c47fe"

    def test_already_normalized(self):
        for n in range(1, 201):
            c = chain_coloring(n)
            assert normalize_colors(c) == c, n
        for d in range(0, 9):
            c = uniform_coloring(d)
            assert normalize_colors(c) == c, d

    def test_documents_digest(self):
        h = hashlib.sha256()
        for n in range(1, 61):
            h.update(render_document(chain_coloring(n)).encode())
        for d in range(0, 7):
            h.update(render_document(uniform_coloring(d)).encode())
        assert h.hexdigest() == self.DIGEST

    def test_dot_digest(self):
        h = hashlib.sha256()
        for n in range(1, 61):
            h.update(render_dot(chain_coloring(n)).encode())
        for d in range(0, 7):
            h.update(render_dot(uniform_coloring(d)).encode())
        h.update(render_dot(EdgeColoring(8, tuple(range(28)))).encode())
        assert h.hexdigest() == self.DOT_DIGEST
