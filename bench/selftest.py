"""Self-tests of the benchmark's own rules and referee.

    python3 bench/selftest.py

The tests that run requests import the package from ``src/``.
"""

from __future__ import annotations

import itertools
import math
import os
import random
import tempfile
import unittest
from fractions import Fraction

import referee as ref
import run
import workloads


class MetricRules(unittest.TestCase):
    def test_failures_rank_as_infinite_in_percentiles(self):
        ok = [(s / 1000, True) for s in range(1, 19)]  # 1..18 ms, one cycle
        # two fast failures of 20 requests: p90 is the 18th value, the slowest success
        two = run.summarize(ok + [(0.0005, False)] * 2, 20)
        self.assertAlmostEqual(two["latency_p90_ms"], 18.0)
        # three failures push p90 past every success, however fast they failed
        three = run.summarize(ok[:17] + [(0.0005, False)] * 3, 20)
        self.assertEqual(three["latency_p90_ms"], math.inf)
        self.assertAlmostEqual(three["latency_p50_ms"], 10.0)

    def test_throughput_counts_successes_only(self):
        samples = [(0.25, True)] * 2 + [(0.25, False)] * 2
        self.assertEqual(run.summarize(samples, 4)["throughput_rps"], 2.0)

    def test_request_latency_is_its_median_over_cycles(self):
        # three cycles of two requests; the second cycle ran slow
        samples = [(0.010, True), (0.100, True), (0.030, True), (0.300, True), (0.012, True), (0.110, True)]
        metrics = run.summarize(samples, 2)
        self.assertAlmostEqual(metrics["latency_p50_ms"], 12.0)
        self.assertAlmostEqual(metrics["latency_p90_ms"], 110.0)
        self.assertAlmostEqual(metrics["throughput_rps"], 2 / 0.122)
        # a request failing in most cycles ranks as +inf
        failing = [(0.010, True), (0.1, False), (0.010, True), (0.1, False), (0.010, True), (0.1, True)]
        self.assertEqual(run.summarize(failing, 2)["latency_p90_ms"], math.inf)
        self.assertAlmostEqual(run.summarize(failing, 2)["throughput_rps"], (4 / 3) / 0.110)


class PlantedAnswer(unittest.TestCase):
    def setUp(self):
        self.home = os.getcwd()
        self.tmp = tempfile.TemporaryDirectory()
        os.chdir(self.tmp.name)
        self.gallai = run.import_gallai()

    def tearDown(self):
        os.chdir(self.home)
        self.tmp.cleanup()

    def test_referee_flags_a_wrong_expected_answer(self):
        right = workloads._check_request("t", [1, 1, 3, 3])
        _, problem, _ = run.attempt(right, self.gallai)
        self.assertIsNone(problem)
        planted = workloads.Request("t", right.steps, workloads._cli(1, last="verdict: infeasible (first violation at k=4)"))
        _, problem, _ = run.attempt(planted, self.gallai)
        self.assertIn("last line", problem)

    def test_every_workload_passes_its_referee(self):
        for name in workloads.WORKLOADS:
            if name == "scan":
                continue  # full scans of n=256 take seconds; the run covers them
            for request in workloads.build(name, random.Random(1), self.gallai)[:12]:
                _, problem, _ = run.attempt(request, self.gallai)
                self.assertIsNone(problem, request.label)

    def test_escaping_exception_is_a_failure(self):
        def boom(gallai):
            raise RecursionError("deep")

        _, problem, results = run.attempt(workloads.Request("t", [boom], lambda r: None), self.gallai)
        self.assertEqual((problem, results), ("RecursionError: deep", None))


class Referee(unittest.TestCase):
    def test_first_violation_matches_exact_arithmetic(self):
        def exact(seq):
            for k in range(1, len(seq) + 1):
                prev = seq[k - 2] if k >= 2 else 0
                if sum(Fraction(1, 2**d) for d in seq[k - 1:]) < Fraction(1, 2**prev):
                    return k
            return None

        rng = random.Random(7)
        seqs = [s for n in range(1, 7) for s in ref.candidates(n)]
        seqs += [sorted(rng.randint(1, 40) for _ in range(rng.randint(2, 30))) for _ in range(300)]
        for seq in seqs:
            self.assertEqual(ref.first_violation(seq), exact(seq), seq)

    def test_triples_scanned_matches_enumeration(self):
        n = 9
        for rank, triple in enumerate(itertools.combinations(range(n), 3), start=1):
            self.assertEqual(ref.triples_scanned(n, triple), rank)
        self.assertEqual(ref.triples_scanned(n, None), rank)

    def test_recolor_witness_is_the_first_rainbow_triangle(self):
        rng = random.Random(3)
        for _ in range(40):
            rows = ref.duplication_rows(rng.randint(4, 12), rng)
            u, v = sorted(rng.sample(range(len(rows)), 2))
            out = ref.recolored(rows, u, v)
            first = next(((t, (out[t[0]][t[1]], out[t[0]][t[2]], out[t[1]][t[2]]))
                          for t in itertools.combinations(range(len(rows)), 3)
                          if len({out[t[0]][t[1]], out[t[0]][t[2]], out[t[1]][t[2]]}) == 3), None)
            self.assertEqual(ref.recolor_witness(rows, u, v), first)

    def test_generated_colorings_are_gallai(self):
        rng = random.Random(5)
        for rows in [ref.uniform_rows(3), ref.chain_rows(7)] + [ref.duplication_rows(9, rng) for _ in range(20)]:
            for i, j, k in itertools.combinations(range(len(rows)), 3):
                self.assertLess(len({rows[i][j], rows[i][k], rows[j][k]}), 3)


if __name__ == "__main__":
    unittest.main()
