"""Acceptance gates: one test per claim the package stands on.

Each test exercises a headline guarantee end to end, against exhaustive
small-instance ground truth where available.  The terminal summary prints
one PASS/FAIL line per criterion (see conftest).
"""

import itertools
import random
from collections import Counter

from gallai import (
    DuplicationChoice,
    EdgeColoring,
    check_sequence,
    color_degrees,
    compress_component,
    crosscheck,
    duplicate_vertex,
    find_disconnected_color,
    is_gallai,
    min_degree_upper_bound,
    parse_document,
    prefix_color_bound_report,
    realize,
    recover_chain_order,
    render_document,
    uniform_coloring,
)
from gallai.cli import main
from gallai.oracle import brute_force_gallai_partition
from gallai.structure import compression_degree_bounds
from oracles import feasible_sequences


def test_criterion_01_characterization_equivalence():
    """Enumerated degree sequences equal the feasible ones for n = 1..5."""
    for n in range(1, 6):
        result = crosscheck(n)
        assert result.equal, (
            f"n={n}: only realizable {sorted(result.only_realizable)}, "
            f"only feasible {sorted(result.only_feasible)}"
        )


def test_criterion_02_constructive_realization():
    """realize() produces a rainbow-free witness with the exact degrees
    for every feasible sequence up to n = 8."""
    checked = 0
    for n in range(1, 9):
        for seq in feasible_sequences(n):
            coloring = realize(seq)
            assert is_gallai(coloring), seq
            assert tuple(sorted(color_degrees(coloring))) == seq
            checked += 1
    # 1, 1, 2, 5, 11, 25, 57, 130 feasible sequences for n = 1..8,
    # filtered out of the 4081 nondecreasing candidates
    assert checked == 232


def test_criterion_03_degree_sum_inequality_and_tightness(enumerated):
    """sum of 2^-d(i) is at least 1 on every tested coloring, exactly;
    equality holds for the uniform family and the chain sequences."""
    for n in range(1, 6):
        for coloring in enumerated[n]:
            report = check_sequence(sorted(color_degrees(coloring)))
            assert report.slacks[0] >= 0
            assert report.feasible
    for n in range(2, 7):
        for seq in feasible_sequences(n):
            report = check_sequence(sorted(color_degrees(realize(seq))))
            assert report.slacks[0] >= 0
            assert report.feasible
    for d in range(1, 7):
        report = check_sequence(sorted(color_degrees(uniform_coloring(d))))
        assert report.slacks[0] == 0
    for n in range(2, 13):
        report = check_sequence(list(range(1, n)) + [n - 1])
        assert report.slacks[0] == 0


def test_criterion_04_min_degree_log_bound(enumerated):
    """Some vertex has color degree at most floor(log2 n); the uniform
    family attains the bound."""
    for n in range(1, 6):
        bound = min_degree_upper_bound(n)
        for coloring in enumerated[n]:
            assert min(color_degrees(coloring)) <= bound
    for d in range(0, 7):
        coloring = uniform_coloring(d)
        assert min(color_degrees(coloring)) == d == min_degree_upper_bound(coloring.n)


def test_criterion_05_full_degree_vertex_chain_order(enumerated):
    """A vertex seeing all distinct colors forces the degree multiset
    1, 2, ..., n-2, n-1, n-1 and a transitive order on the rest."""
    matched = 0
    for n in range(2, 6):
        for coloring in enumerated[n]:
            degrees = color_degrees(coloring)
            if max(degrees) < n - 1:
                continue
            matched += 1
            assert sorted(degrees) == list(range(1, n - 1)) + [n - 1, n - 1]
            apex, order = recover_chain_order(coloring)
            assert degrees[apex] == n - 1

            rest = [v for v in range(n) if v != apex]
            beats = {
                (i, j)
                for i in rest
                for j in rest
                if i != j and coloring.color(i, j) == coloring.color(i, apex)
            }
            for i, j, k in itertools.permutations(rest, 3):
                assert not (
                    (i, j) in beats and (j, k) in beats and (k, i) in beats
                ), "directed 3-cycle"
            for pos, i in enumerate(order):
                for j in order[pos + 1 :]:
                    assert (i, j) in beats
    # 1, 3, 12, 60 such colorings for n = 2..5
    assert matched == 76


def test_criterion_06_disconnected_color_compression(enumerated):
    """At least three colors force a disconnected color class; compressing
    any of its components is well defined, stays rainbow-free, and obeys
    the degree bound d(v) <= d_within(v) + outside colors."""
    compressions = 0
    for n in range(2, 6):
        for coloring in enumerated[n]:
            split = find_disconnected_color(coloring)
            if len(coloring.color_set()) >= 3:
                assert split is not None
            if split is None:
                continue
            for which in range(len(split.components)):
                result = compress_component(coloring, split, which)
                compressions += 1
                assert is_gallai(result.reduced)
                for v, full, within in compression_degree_bounds(
                    coloring, split, which
                ):
                    assert full <= within + result.outside_color_count
    assert compressions == 2490


def test_criterion_07_gallai_partition_existence(enumerated):
    """Every rainbow-free coloring splits into at least two parts joined
    pairwise monochromatically with at most two colors overall."""
    for n in range(2, 6):
        for coloring in enumerated[n]:
            partition = brute_force_gallai_partition(coloring)
            parts = partition.parts
            assert len(parts) >= 2
            assert sorted(v for p in parts for v in p) == list(range(n))
            cross = set()
            for a, b in itertools.combinations(range(len(parts)), 2):
                joining = {coloring.color(u, v) for u in parts[a] for v in parts[b]}
                assert len(joining) == 1
                cross |= joining
            assert len(cross) <= 2


def test_criterion_08_prefix_color_bound(enumerated):
    """Sorted by degree, at most d(k-1) colors run from any later vertex
    back into the first k-1."""
    for n in range(1, 6):
        for coloring in enumerated[n]:
            assert prefix_color_bound_report(coloring).ok


def test_criterion_09_duplication_soundness():
    """10,000 random duplication chains: every step shifts the degree
    multiset exactly as promised and the result stays rainbow-free."""
    rng = random.Random(96225)
    for _ in range(10_000):
        coloring = EdgeColoring(1, ())
        for _ in range(rng.randint(1, 7)):
            v = rng.randrange(coloring.n)
            if coloring.n == 1:
                choice = DuplicationChoice.FRESH_COLOR
            else:
                choice = rng.choice(list(DuplicationChoice))
            before = Counter(color_degrees(coloring))
            d = color_degrees(coloring)[v]
            coloring = duplicate_vertex(coloring, v, choice)
            after = Counter(color_degrees(coloring))
            if choice is DuplicationChoice.EXISTING_COLOR:
                before[d] += 1
            else:
                before[d] -= 1
                before[d + 1] += 2
            assert after == +before
        # duplication never edits existing edges, so a rainbow triangle
        # would survive to the end; checking the final coloring covers
        # every intermediate step
        assert is_gallai(coloring)


def test_criterion_10_cli_round_trips(tmp_path):
    """construct then verify exits 0 on 100 sampled feasible sequences;
    parse/render is the identity on the written files; bytes are stable
    across repeated runs."""
    rng = random.Random(19001)
    samples = []
    while len(samples) < 100:
        n = rng.randint(2, 8)
        seq = sorted(rng.randint(1, n - 1) for _ in range(n))
        if check_sequence(seq).feasible:
            samples.append(seq)

    for idx, seq in enumerate(samples):
        text = ",".join(str(d) for d in seq)
        first = tmp_path / f"run-{idx}-a.doc"
        second = tmp_path / f"run-{idx}-b.doc"
        assert main(["construct", text, "-o", str(first), "--quiet"]) == 0
        assert main(["verify", str(first), "--quiet"]) == 0
        written = first.read_text()
        assert render_document(parse_document(written)) == written
        assert main(["construct", text, "-o", str(second), "--quiet"]) == 0
        assert second.read_text() == written
