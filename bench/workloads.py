"""Seeded request lists for the four workloads.

A workload is one pass (a *cycle*) of requests that the benchmark repeats.
Sizes and counts are fixed per workload; the seed only chooses content
(random colorings, which vertices, which edge is recolored), so every seed
does about the same amount of work.  Inputs come from ``referee``, never
from the package's own generators, and each request carries a check built
from answers derived there.

Each cycle holds at least 100 requests.  It mixes a light majority of
requests, where p50 falls, a plateau of requests of one size around the
90th percentile, and a few heavy requests that take much of the time.  The
counts put p90's rank inside the plateau, so that it does not jump between
unequal neighbours from run to run.  Cycles are kept to a few seconds, so
that a run holds several and each request's median time sets a slow spell
aside.

Each step of a request is either a CLI argument list, run through
``gallai.cli.main`` with stdout captured, or a function of the imported
``gallai`` package (a library call).  A CLI step yields ``(exit code,
stdout)``; a library step yields its return value.  A CLI step with a
nonzero exit code ends the request.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import referee as ref

WORKLOADS = ("check", "roundtrip", "scan", "referee")

WHY = {
    "check": "gallai check on short, long, wide-chain and big-degree sequences: "
    "loads feasibility and CLI formatting, never builds a coloring",
    "roundtrip": "construct -o DOC then verify DOC, n from 8 to 128: "
    "realize and document writes dominate, the scan follows",
    "scan": "verify on self-written Gallai documents and recolored copies "
    "whose rainbow triangle falls early or late: rainbow scan and parsing only",
    "referee": "crosscheck 5 and 6, partition on n<=10 documents and structure "
    "calls on n 40-120: the only workload that runs oracle and structure",
}

# Known defects (ROADMAP items 2 and 4): requests that carry their correct
# expected outcome, which the package does not produce yet.  They run once
# per run, outside the timed loop, so the timed workloads hold no request
# that fails.  `check 1,10000000000,10000000000` is left out: it builds
# integers of 2^(10^10) bits, gigabytes of memory.
KNOWN_DEFECTS = {
    "check": ["1,20000,20000", "1,1000000,1000000", "1,100000000,100000000"],
    "roundtrip": [",".join(["10"] * 1024)],
}


@dataclass
class Request:
    label: str
    steps: list
    check: Callable[[list], "str | None"]
    files: list[str] = field(default_factory=list)


def build(workload: str, rng, gallai) -> list[Request]:
    """Requests of one cycle; documents are written to the current directory."""
    return CYCLES[workload](rng, gallai)


def known_defects(workload: str) -> list[Request]:
    out = []
    for i, seq in enumerate(KNOWN_DEFECTS.get(workload, ())):
        values = [int(t) for t in seq.split(",")]
        if workload == "check":
            out.append(_check_request(f"defect.check.{seq[:24]}", values))
        else:
            doc = f"defect{i}.doc"
            out.append(
                Request(
                    f"defect.construct.[{values[0]}]*{len(values)}",
                    [["construct", seq, "-o", doc]],
                    _cli(0),
                )
            )
    return out


# -- checks --------------------------------------------------------------------


def _cli(*codes, last=None, lines=None, contains=()):
    """Check that the CLI steps exited with ``codes`` in order and that the
    final step's stdout ends with ``last``, has ``lines`` lines and holds
    every line in ``contains``."""

    def check(results):
        got = tuple(code for code, _ in results)
        if got != codes:
            return f"exit codes {got}, expected {codes}"
        out = results[-1][1].splitlines()
        if last is not None and (not out or out[-1] != last):
            return f"last line {out[-1:]!r}, expected {last!r}"
        if lines is not None and len(out) != lines:
            return f"{len(out)} lines, expected {lines}"
        missing = [line for line in contains if line not in out]
        return f"missing {missing[0]!r}" if missing else None

    return check


def _check_request(label: str, values) -> Request:
    """`gallai check`, with the expected verdict derived on first use so
    that set-up time holds input generation only."""
    expected = []

    def check(results):
        if not expected:
            k = ref.first_violation(values)
            expected.append(_cli(0 if k is None else 1, last=ref.verdict_line(k),
                                 lines=len(values) + 2))
        return expected[0](results)

    return Request(label, [["check", ",".join(map(str, values))]], check)


# -- sequences -----------------------------------------------------------------


def duplication_degrees(n: int, rng) -> list[int]:
    """Sorted color degrees of a random duplication coloring of K_n,
    simulated on degrees alone: a copy keeps v's degree, or both gain one."""
    deg = [1, 1]
    rand = rng.random
    while len(deg) < n:
        v = int(rand() * len(deg))
        if rand() < 0.5:
            deg[v] += 1
        deg.append(deg[v])
    return sorted(deg[:n])


def chain_sequence(n: int) -> list[int]:
    return list(range(1, n)) + [n - 1]


def random_candidate(n: int, rng) -> list[int]:
    return sorted(rng.randint(1, n - 1) for _ in range(n))


# -- check -----------------------------------------------------------------------

CHECK_SHORT = list(range(3, 13)) * 28  # about 2 ms each, mostly CLI overhead
# Maximum degrees of short sequences; slacks reach 4215 digits at 14000,
# just inside Python's 4300-digit limit for printing integers.
CHECK_BIG_DEGREE = [1000, 3000, 5000, 8000, 11000, 14000] * 4
CHECK_MALFORMED = ["3,2,1", "0,1,1", "1,x,2", "1,,2"] * 4
CHECK_MID = [2000] * 36  # each as a duplication and a chain sequence, about 12 ms
# The two heavy requests allocate (and page-fault) up to 180 MB each, which
# makes their time noisy; one of each keeps them under half of a cycle.
CHECK_LONG_DUPLICATION = [100_000]  # slack table printing dominates
CHECK_WIDE_CHAIN = [50_000]  # bigint shifts in check_sequence dominate


def _check(rng, gallai) -> list[Request]:
    reqs = []
    for n in CHECK_SHORT:
        reqs.append(_check_request("check.short", random_candidate(n, rng)))
    for i, top in enumerate(CHECK_BIG_DEGREE):
        body = sorted(rng.randint(1, top) for _ in range(1 + i % 4))
        reqs.append(_check_request("check.big_degree", body + [top, top]))
    for text in CHECK_MALFORMED:
        reqs.append(Request("check.malformed", [["check", text]], _cli(2, lines=0)))
    for n in CHECK_MID:
        reqs.append(_check_request("check.mid", _maybe_infeasible(duplication_degrees(n, rng), rng)))
        reqs.append(_check_request("check.mid", chain_sequence(n)))
    for n in CHECK_LONG_DUPLICATION:
        reqs.append(_check_request("check.long", _maybe_infeasible(duplication_degrees(n, rng), rng)))
    for n in CHECK_WIDE_CHAIN:
        reqs.append(_check_request("check.wide", chain_sequence(n)))
    return _shuffled(reqs, rng)


def _maybe_infeasible(seq: list[int], rng) -> list[int]:
    """Half of the time, raise the maximum by one: a unique maximum always
    violates the last inequality."""
    if rng.random() < 0.5:
        seq = seq[:-1] + [seq[-1] + 1]
    return seq


# -- roundtrip -------------------------------------------------------------------

ROUNDTRIP_SMALL = list(range(8, 25, 2)) * 9  # duplication sequences
ROUNDTRIP_INFEASIBLE = [8, 12, 16, 20]  # construct exits 1
ROUNDTRIP_CHAIN = [32, 64, 96]
ROUNDTRIP_UNIFORM = [5, 6]  # [d] * 2^d
# n = 48 twelve times: the plateau around p90; one n = 128 request, about
# a third of the cycle's time
ROUNDTRIP_DUPLICATION = [32] + [48] * 12 + [64, 128]


def _roundtrip(rng, gallai) -> list[Request]:
    seqs = [("roundtrip.small", sorted(ref.degrees(ref.duplication_rows(n, rng))))
            for n in ROUNDTRIP_SMALL]
    seqs += [("roundtrip.chain", chain_sequence(n)) for n in ROUNDTRIP_CHAIN]
    seqs += [("roundtrip.uniform", [d] * (1 << d)) for d in ROUNDTRIP_UNIFORM]
    seqs += [("roundtrip.duplication", sorted(ref.degrees(ref.duplication_rows(n, rng))))
             for n in ROUNDTRIP_DUPLICATION]
    reqs = []
    for i, (label, seq) in enumerate(seqs):
        doc, text = f"rt{i}.doc", ",".join(map(str, seq))
        construct = ["construct", text, "-o", doc]
        files = [doc]
        if i % 4 == 0:
            construct += ["--dot", f"rt{i}.dot"]
            files.append(f"rt{i}.dot")
        check = _cli(0, 0, last="degree sequence: feasible",
                     contains=("gallai: yes", "sorted: " + ref.fmt(seq)))
        reqs.append(Request(label, [construct, ["verify", doc]], check, files))
    for i, n in enumerate(ROUNDTRIP_INFEASIBLE):
        seq = random_candidate(n, rng)
        while ref.first_violation(seq) is None:
            seq = random_candidate(n, rng)
        doc = f"rt-no{i}.doc"
        reqs.append(Request("roundtrip.infeasible", [["construct", ",".join(map(str, seq)), "-o", doc]],
                            _cli(1, last=ref.verdict_line(ref.first_violation(seq)))))
    return _shuffled(reqs, rng)


# -- scan ------------------------------------------------------------------------

# Documents and where the rainbow triangle of their recolored copy falls.
SCAN_UNIFORM = {5: "late", 6: "late", 7: "late", 8: "early"}  # K_{2^d}
SCAN_CHAIN = {50: "late", 100: "early", 150: "early", 200: "early"}
# Documents verified only as their recolored copy: the full scans of K_256
# (about 4 s) and of chain 200 (about 2 s) would make a cycle too long to
# repeat several times in a run.
SCAN_COPY_ONLY = {"scan.uniform8", "scan.chain200"}
SCAN_SMALL = list(range(12, 48, 4)) * 4  # random colorings, recolored late and early in turn
SCAN_MID = [100] * 9  # random colorings; with chain 100 the plateau around p90
# Share of the C(n, 3) triples read before the recolored copy's rainbow
# triangle: early copies stop in the first tenth, late ones past half.
BANDS = {"early": (0.0, 0.1), "late": (0.5, 0.95)}


def _scan(rng, gallai) -> list[Request]:
    colorings = [(f"scan.uniform{d}", ref.uniform_rows(d), when) for d, when in SCAN_UNIFORM.items()]
    colorings += [(f"scan.chain{n}", ref.chain_rows(n), when) for n, when in SCAN_CHAIN.items()]
    colorings += [("scan.small", ref.duplication_rows(n, rng), ("late", "early")[i % 2])
                  for i, n in enumerate(SCAN_SMALL)]
    colorings += [("scan.mid", ref.duplication_rows(n, rng), "early") for n in SCAN_MID]
    reqs = []
    for i, (label, rows, when) in enumerate(colorings):
        if label not in SCAN_COPY_ONLY:
            doc = f"scan{i}.doc"
            Path(doc).write_text(ref.document(rows))
            sorted_line = "sorted: " + ref.fmt(sorted(ref.degrees(rows)))
            reqs.append(Request(label, [["verify", doc]],
                                _cli(0, contains=("gallai: yes", sorted_line))))
        u, v = _recolor_edge(rows, BANDS[when], rng)
        (a, b, c), colors = ref.recolor_witness(rows, u, v)
        doc = f"scan{i}x.doc"
        Path(doc).write_text(ref.document(ref.recolored(rows, u, v)))
        witness = f"rainbow triangle: ({a}, {b}, {c}) colors ({ref.fmt(colors)})"
        reqs.append(Request(f"{label}.{when}", [["verify", doc]],
                            _cli(1, last="gallai: no", contains=(witness,))))
    return _shuffled(reqs, rng)


def _recolor_edge(rows, band, rng) -> tuple[int, int]:
    """A seeded edge whose recolored copy has its first rainbow triangle at
    a scan position inside ``band`` (share of all triples); the closest
    edge to the band when none falls inside."""
    n = len(rows)
    total = ref.triples_scanned(n, None)
    lo, hi = band
    best, best_gap = None, None
    for u, v in rng.sample(list(itertools.combinations(range(n), 2)), min(400, n * (n - 1) // 2)):
        hit = ref.recolor_witness(rows, u, v)
        if hit is None:
            continue
        share = ref.triples_scanned(n, hit[0]) / total
        gap = max(lo - share, share - hi, 0.0)
        if best_gap is None or gap < best_gap:
            best, best_gap = (u, v), gap
            if gap == 0.0:
                break
    return best


# -- referee ---------------------------------------------------------------------

REFEREE_CROSSCHECK = [(5, 2), (6, 1)]  # (n, times per cycle)
REFEREE_PARTITION = [6, 7, 8, 9, 10] * 16  # document sizes
REFEREE_SPLIT = [40, 48, 56, 64]  # find_disconnected_color -> compress_component
REFEREE_CHAIN_ORDER = [40, 80, 100, 120]  # relabelled chains
# n = 90 twelve times: the plateau around p90
REFEREE_PREFIX = [40, 60, 120] + [90] * 12


def _referee(rng, gallai) -> list[Request]:
    reqs = []
    for n, times in REFEREE_CROSSCHECK:
        count = sum(ref.first_violation(s) is None for s in ref.candidates(n))
        argv = ["crosscheck", str(n)] + (["--allow-large"] if n > 5 else [])
        expected = _exact(f"n={n}: {count} realizable, {count} feasible\nsets match\n")
        reqs += [Request(f"referee.crosscheck{n}", [argv], expected) for _ in range(times)]
    for i, n in enumerate(REFEREE_PARTITION):
        rows = ref.duplication_rows(n, rng)
        doc = f"part{i}.doc"
        Path(doc).write_text(ref.document(rows))
        reqs.append(Request("referee.partition", [["partition", doc]], _partition(rows)))
    for n in REFEREE_SPLIT:
        rows = ref.duplication_rows(n, rng)
        c = _coloring(gallai, rows)

        def split_and_compress(g, c=c):
            split = g.structure.find_disconnected_color(c)
            return split, g.structure.compress_component(c, split, 0)

        reqs.append(Request("referee.split", [split_and_compress],
                            lambda res, rows=rows: ref.compression_problem(rows, *res[0])))
    for n in REFEREE_CHAIN_ORDER:
        rows = ref.relabel(ref.chain_rows(n), rng.sample(range(n), n))
        c = _coloring(gallai, rows)
        reqs.append(Request("referee.chain_order", [lambda g, c=c: g.structure.recover_chain_order(c)],
                            lambda res, rows=rows: ref.chain_order_problem(rows, *res[0])))
    for n in REFEREE_PREFIX:
        c = _coloring(gallai, ref.duplication_rows(n, rng))
        reqs.append(Request("referee.prefix_bound", [lambda g, c=c: g.structure.prefix_color_bound_report(c)],
                            lambda res: None if res[0].ok else f"violation {res[0].violation}"))
    return _shuffled(reqs, rng)


def _exact(text: str):
    def check(results):
        code, out = results[-1]
        return None if (code, out) == (0, text) else f"exit {code}, output {out[:80]!r}"

    return check


def _partition(rows):
    def check(results):
        code, out = results[-1]
        return f"exit code {code}" if code != 0 else ref.partition_problem(rows, out)

    return check


def _coloring(gallai, rows):
    n = len(rows)
    return gallai.EdgeColoring(n, tuple(rows[u][v] for u, v in itertools.combinations(range(n), 2)))


def _shuffled(reqs: list[Request], rng) -> list[Request]:
    rng.shuffle(reqs)
    return reqs


CYCLES = {"check": _check, "roundtrip": _roundtrip, "scan": _scan, "referee": _referee}
