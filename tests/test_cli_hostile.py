"""Hostile input at the command line.

Every example must end in exit 0, 1 or 2, let no exception escape
``main`` and keep stderr short.  Arguments are drawn to break the number
reader (signs, underscores, non-ASCII digits, empty tokens, numbers past
the interpreter's digit limit, huge values) and documents to break the
parser (lines dropped, repeated or swapped, a huge declared n, huge
colors, CRLF or bare CR line ends, NUL bytes).  Where an independent
verdict exists the exit class must match it: for ``check`` and
``construct`` the rational oracle up to 12 entries and the two-loop
integer reference past that, for ``verify`` and ``partition`` the naive
scan.  Sizes are capped so that accepted work stays small: ``check``
sequences run to a few thousand entries, ``construct`` ones to 200.
"""

import contextlib
import io
import random
import re
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gallai import DocumentError, parse_document, render_document
from gallai.cli import main
from oracles import (
    colorings,
    duplication_sequence,
    naive_check_sequence,
    naive_rainbow_triangle,
    rational_slacks,
)

STDERR_CHARS = 500
MAX_VERTICES = 4096  # the documented vertex limit, restated independently
MAX_BITS = 12
RATIONAL_ENTRIES = 12  # longest sequence the quadratic rational oracle decides

# int() strips exactly these around ASCII digits
PLAIN = re.compile(r"[ \t\n\v\f\r]*(-?[0-9]+)[ \t\n\v\f\r]*")

MALFORMED = [
    "", " ", "-", "+1", "1_0", "\u0663", "\uff11", "\u00b2", "1.0", "0x1", "1e3",
    "\x00", "1\x00", "1\x1c", "\u00a01", "9" * 5000, "-" + "9" * 5000,
]
# no decimal digit, so never a number; no "/" and no leading "-", so never
# a path outside the working directory or an option that writes a file
nondigit_text = st.text(
    st.characters(blacklist_categories=("Nd",), blacklist_characters="/"), min_size=1, max_size=8
).filter(lambda t: not t.startswith("-"))
malformed = st.sampled_from(MALFORMED) | nondigit_text


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    assert len(err.getvalue()) < STDERR_CHARS
    return code, out.getvalue(), err.getvalue()


def plain_int(token):
    """The number an argument token denotes, or None if it is none."""
    match = PLAIN.fullmatch(token) if token.isascii() else None
    if match is None or len(match.group(1).lstrip("-")) > sys.get_int_max_str_digits():
        return None
    return int(match.group(1))


def expected_sequence_exit(text):
    """Exit class of ``check``: 2 unless a valid sequence, then the
    rational verdict."""
    values = [plain_int(t) for t in text.split(",")]
    if None in values or min(values) < 0 or values != sorted(values):
        return 2
    if len(values) > 1 and values[0] == 0:
        return 2
    if len(values) > RATIONAL_ENTRIES:
        return 0 if naive_check_sequence(values).feasible else 1
    return 0 if all(s >= 0 for s in rational_slacks(values)) else 1


small_number = st.integers(-3, 40).map(str)
sequence_token = small_number | small_number.map(lambda t: f" {t}\t") | malformed
sequences = st.one_of(
    st.lists(sequence_token, min_size=1, max_size=10).map(",".join),
    st.lists(st.integers(1, 12), min_size=1, max_size=12).map(lambda xs: ",".join(map(str, sorted(xs)))),
    st.builds(duplication_sequence, st.integers(1, 12), st.randoms(use_true_random=False)).map(
        lambda xs: ",".join(map(str, xs))
    ),
)


@st.composite
def long_sequences(draw, max_len, max_degree=64):
    """Sorted sequences past the rational oracle's reach, with degrees up to
    max_degree: feasible ones by duplication, the same with one entry moved
    by one or the maximum raised, uniform draws over all degrees or near
    log2 n (where the k = 1 inequality is close), and half of them broken by
    a malformed token, two entries swapped or a leading 0."""
    # a seeded Random, so that lengths spread evenly up to max_len
    rng = random.Random(draw(st.integers(0, 2**32)))
    n = rng.randint(RATIONAL_ENTRIES + 1, max_len)
    kind = draw(st.sampled_from(["duplication", "nudged", "raised", "uniform", "near-log"]))
    if kind == "uniform":
        values = sorted(rng.randint(1, max_degree) for _ in range(n))
    elif kind == "near-log":
        values = sorted(rng.randint(n.bit_length() - 2, n.bit_length() + 1) for _ in range(n))
    else:
        values = duplication_sequence(n, rng)
    if kind == "nudged":
        i = rng.randrange(n)
        values[i] = max(1, values[i] + rng.choice((-1, 1)))
        values.sort()
    elif kind == "raised":
        values[-1] += 1
    tokens = [str(v) for v in values]
    broken = draw(st.none() | st.sampled_from(["token", "swap", "zero"]))
    if broken == "token":
        tokens[rng.randrange(n)] = draw(malformed)
    elif broken == "swap" and values[0] != values[-1]:
        tokens[0], tokens[-1] = tokens[-1], tokens[0]
    elif broken == "zero":
        tokens[0] = "0"
    return ",".join(tokens)


quiet = st.sampled_from([[], ["--quiet"]])


def check_matches_oracle(sequence, flags):
    code, out, _ = run(["check", *flags, sequence])
    assert code == expected_sequence_exit(sequence)
    if flags:
        assert out == ""


@given(sequences, quiet)
def test_check_matches_rational_oracle(sequence, flags):
    check_matches_oracle(sequence, flags)


@given(long_sequences(3000), quiet)
def test_long_check_matches_linear_oracle(sequence, flags):
    check_matches_oracle(sequence, flags)


def construct_matches_oracle(sequence, flags):
    code, out, _ = run(["construct", *flags, sequence])
    assert code == expected_sequence_exit(sequence)
    if code == 0 and not flags:
        assert parse_document(out).n == sequence.count(",") + 1


@given(sequences, quiet)
def test_construct_matches_rational_oracle(sequence, flags):
    construct_matches_oracle(sequence, flags)


@given(long_sequences(200), quiet)
def test_long_construct_matches_linear_oracle(sequence, flags):
    construct_matches_oracle(sequence, flags)


sizes = st.one_of(
    st.integers(-3, 6).map(str),
    st.integers(MAX_VERTICES + 1, 10**30).map(str),
    malformed,
)


@given(st.sampled_from(["chain", "uniform", "ladder", "", "Chain"]), sizes, quiet)
def test_generate(kind, size, flags):
    code, out, _ = run(["generate", *flags, kind, size])
    value = plain_int(size)
    if kind not in ("chain", "uniform") or value is None:
        assert code == 2
    elif kind == "chain":
        assert code == (0 if 1 <= value <= MAX_VERTICES else 2)
    else:
        assert code == (0 if 0 <= value <= MAX_BITS else 2)
    if code == 0 and not flags:
        assert parse_document(out).n == (value if kind == "chain" else 1 << value)


@given(st.one_of(st.integers(-3, 5).map(str), st.integers(9, 10**30).map(str), malformed), quiet)
def test_crosscheck(n, flags):
    code, _, _ = run(["crosscheck", *flags, n])
    value = plain_int(n)
    assert code == (0 if value is not None and 1 <= value <= 8 else 2)


MUTATIONS = ("drop", "repeat", "swap", "huge-n", "huge-color", "long-color", "nul")


@st.composite
def hostile_documents(draw):
    """A rendered document, mutated, as bytes with one kind of line end."""
    lines = render_document(draw(colorings())).split("\n")[:-1]
    for op in draw(st.lists(st.sampled_from(MUTATIONS), max_size=3)):
        if not lines:
            break
        i = draw(st.integers(0, len(lines) - 1))
        j = draw(st.integers(0, len(lines) - 1))
        fields = lines[i].split()
        if op == "drop":
            del lines[i]
        elif op == "repeat":
            lines.insert(j, lines[i])
        elif op == "swap":
            lines[i], lines[j] = lines[j], lines[i]
        elif op == "huge-n":
            lines[i] = f"n {draw(st.integers(10**6, 10**30))}"
        elif op in ("huge-color", "long-color") and fields[0] == "edge":
            color = str(draw(st.integers(10**6, 10**30))) if op == "huge-color" else "9" * 5000
            lines[i] = " ".join(fields[:3] + [color])
        elif op == "nul":
            at = draw(st.integers(0, len(lines[i])))
            lines[i] = lines[i][:at] + "\x00" + lines[i][at:]
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return "".join(line + end for line in lines).encode("ascii")


def library_reading(raw):
    """The coloring ``parse_document`` reads from the bytes, or None."""
    try:
        return parse_document(raw.decode("ascii"))
    except DocumentError:
        return None


@pytest.fixture(scope="module")
def document_path(tmp_path_factory):
    return tmp_path_factory.mktemp("hostile") / "in.doc"


@given(raw=hostile_documents())
def test_verify_matches_naive_scan(document_path, raw):
    document_path.write_bytes(raw)
    code, _, _ = run(["verify", str(document_path)])
    coloring = library_reading(raw)
    if coloring is None:
        assert code == 2
    else:
        assert code == (1 if naive_rainbow_triangle(coloring) else 0)


@given(raw=hostile_documents())
def test_partition_matches_naive_scan(document_path, raw):
    document_path.write_bytes(raw)
    code, _, _ = run(["partition", str(document_path)])
    coloring = library_reading(raw)
    if coloring is None or coloring.n == 1:
        assert code == 2
    else:
        assert code == (1 if naive_rainbow_triangle(coloring) else 0)


argv_tokens = st.sampled_from(
    [
        "check", "construct", "verify", "generate", "crosscheck", "partition",
        "chain", "uniform", "--quiet", "--allow-large", "--bogus", "-h", "--", "-",
        "1", "3", "-3", "1,1", "1,2,2", "\u0663", "+1", "x" * 5000, "1" * 5000,
    ]
) | nondigit_text


@given(st.lists(argv_tokens, max_size=5))
def test_any_argument_list(argv):
    run(argv)


# Degrees of 20 digits overflow the shift in check_sequence at once.  From
# about 10^10 up to there the shift asks for gigabytes first, so no test
# runs those degrees in-process.
TWENTY_DIGITS = "1,99999999999999999999,99999999999999999999"


@pytest.mark.parametrize("command", ["check", "construct"])
def test_degree_past_any_shift_is_a_usage_error(command):
    code, _, err = run([command, TWENTY_DIGITS])
    assert code == 2
    assert err.startswith("error: ")
    assert err.count("\n") == 1


ITEM_4 = pytest.mark.xfail(
    strict=True, reason="ROADMAP item 4: a slack past the digit limit of str() exits 2"
)
ITEM_4_SHIFT = pytest.mark.xfail(
    strict=True, reason="ROADMAP item 4: a degree past the shift limit exits 2"
)


HUGE_DEGREES = [
    pytest.param("1,20000,20000", marks=ITEM_4),
    pytest.param("1,1000000,1000000", marks=ITEM_4),
    pytest.param("1,100000000,100000000", marks=ITEM_4),
    pytest.param(TWENTY_DIGITS, marks=ITEM_4_SHIFT),
]


@pytest.mark.parametrize("sequence", HUGE_DEGREES)
def test_huge_degrees_are_infeasible(sequence):
    code, out, _ = run(["check", sequence])
    assert code == 1
    assert out.endswith("verdict: infeasible (first violation at k=1)\n")


# ROADMAP item 4: construct prints the same slack table as check on an
# infeasible sequence, so it shares the defect.
@pytest.mark.parametrize("sequence", HUGE_DEGREES)
def test_huge_degrees_are_infeasible_to_construct(sequence):
    code, out, _ = run(["construct", sequence])
    assert code == 1
    assert out.endswith("verdict: infeasible (first violation at k=1)\n")
