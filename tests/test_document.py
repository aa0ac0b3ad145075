"""Document serialization, parsing diagnostics, and DOT export."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gallai import (
    DocumentError,
    EdgeColoring,
    chain_coloring,
    parse_document,
    realize,
    render_document,
    render_dot,
    uniform_coloring,
)
import gallai.document
from gallai.document import PALETTE, pen_color
from oracles import (
    colorings,
    duplication_sequence,
    naive_pairs,
    naive_parse_document,
    naive_render_document,
    naive_render_dot,
)


class TestWritersMatchThePairWalk:
    @given(colorings(max_color=30))
    def test_random(self, coloring):
        assert render_document(coloring) == naive_render_document(coloring)
        assert render_dot(coloring) == naive_render_dot(coloring)

    @pytest.mark.parametrize("coloring", [EdgeColoring(1, ()), EdgeColoring(2, (0,)), EdgeColoring(2, (30,))])
    def test_smallest(self, coloring):
        assert render_document(coloring) == naive_render_document(coloring)
        assert render_dot(coloring) == naive_render_dot(coloring)

    def test_realized(self):
        rng = random.Random(0)
        for n in (1, 2, 3, 5, 17, 40, 100):
            coloring = realize(duplication_sequence(n, rng))
            assert render_document(coloring) == naive_render_document(coloring)
            assert render_dot(coloring) == naive_render_dot(coloring)


class TestRender:
    def test_triangle(self):
        text = render_document(EdgeColoring(3, (0, 1, 1)))
        assert text == "n 3\nedge 0 1 0\nedge 0 2 1\nedge 1 2 1\n"

    def test_single_vertex(self):
        assert render_document(EdgeColoring(1, ())) == "n 1\n"

    def test_byte_stable(self):
        c = uniform_coloring(3)
        assert render_document(c) == render_document(c)

    @given(colorings(max_color=30))
    def test_round_trip(self, coloring):
        assert parse_document(render_document(coloring)) == coloring

    def test_round_trip_enumerated(self, enumerated):
        for coloring in enumerated[4]:
            assert parse_document(render_document(coloring)) == coloring


class TestParse:
    def test_comments_and_blanks_tolerated(self):
        text = "# a remark\n\nn 2\n  # another\nedge 0 1 5\n"
        assert parse_document(text) == EdgeColoring(2, (5,))

    def test_any_edge_order_accepted(self):
        text = "n 3\nedge 1 2 2\nedge 0 2 1\nedge 0 1 0\n"
        assert parse_document(text) == EdgeColoring(3, (0, 1, 2))

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "# only a comment\n",
            "edge 0 1 0\n",
            "n zero\n",
            "n 0\n",
            "n 2\n",
            "n 2\nedge 0 1 0\nedge 0 1 1\n",
            "n 2\nedge 1 0 0\n",
            "n 2\nedge 0 2 0\n",
            "n 2\nedge 0 1 -1\n",
            "n 2\nedge 0 1\n",
            "n 2\nvertex 0 1 0\n",
            "n 3\nedge 0 1 0\n",
        ],
        ids=[
            "empty",
            "comment-only",
            "missing-header",
            "non-integer-count",
            "zero-count",
            "no-edges",
            "duplicate-pair",
            "reversed-pair",
            "vertex-out-of-range",
            "negative-color",
            "short-record",
            "unknown-record",
            "missing-edge",
        ],
    )
    def test_rejects(self, text):
        with pytest.raises(DocumentError):
            parse_document(text)

    @pytest.mark.parametrize(
        "token",
        ["+0", "+1", "1_0", "0x1", "1.0", "--1", "+-1", "-", "\u0661", "\u00b2", "\uff11", "1\u00a01"],
        ids=["plus-zero", "plus-one", "underscore", "hex", "decimal-point", "double-minus",
             "plus-minus", "bare-minus", "arabic-indic", "superscript", "fullwidth", "nbsp"],
    )
    @pytest.mark.parametrize("place", ["header", "vertex", "color"])
    def test_only_plain_ascii_decimals(self, token, place):
        text = {
            "header": f"n {token}\n",
            "vertex": f"n 2\nedge {token} 1 0\n",
            "color": f"n 2\nedge 0 1 {token}\n",
        }[place]
        with pytest.raises(DocumentError) as excinfo:
            parse_document(text)
        message = str(excinfo.value)
        assert len(message) < 200
        assert message.startswith("line 1: " if place == "header" else "line 2: ")
        if token.isascii():
            assert message.endswith(f"expected an integer, got {token!r}")
        else:
            assert "expected ASCII text, got " in message

    @pytest.mark.parametrize(
        "text,lineno",
        [
            ("n 2\u00a0\nedge 0 1 0\n", 1),
            ("n 2\nedge 0 1 0\u2003\n", 2),
            ("n 2\u2028edge 0 1 0", 1),
            ("n 2\nedge 0 1 0\u0085", 2),
            ("n 2\n\u00a0\nedge 0 1 0\n", 2),
        ],
        ids=["trailing-nbsp", "trailing-em-space", "line-separator", "next-line", "nbsp-only-line"],
    )
    def test_non_ascii_whitespace_rejected(self, text, lineno):
        # lines end at "\n" only, and the raw line must be ASCII, so neither
        # strip() nor a Unicode line break hides a non-ASCII character
        with pytest.raises(DocumentError, match=rf"^line {lineno}: expected ASCII text, got "):
            parse_document(text)

    def test_echo_names_bytes_not_surrogate_escapes(self):
        # "\udce9" is how errors="surrogateescape" reads the byte 0xE9; a
        # backslash followed by the ASCII letters "udce9" stays as it is
        with pytest.raises(DocumentError) as excinfo:
            parse_document("n 2\nedge 0 1 \udce9\n")
        assert str(excinfo.value) == "line 2: expected ASCII text, got 'edge 0 1 \\xe9'"
        with pytest.raises(DocumentError) as excinfo:
            parse_document("n 2\nedge 0 1 \\udce9\n")
        assert str(excinfo.value) == "line 2: expected an integer, got '\\\\udce9'"

    def test_crlf_line_ends(self):
        assert parse_document("n 2\r\nedge 0 1 0\r\n") == EdgeColoring(2, (0,))
        # a bare "\r" ends no line
        with pytest.raises(DocumentError, match=r"^line 1: expected 'n <count>'"):
            parse_document("n 2\redge 0 1 0\r")

    def test_mixed_bad_tokens_fail_at_the_first(self):
        with pytest.raises(DocumentError, match=r"^line 1: expected an integer, got '\+2'$"):
            parse_document("n +2\nedge +0 1 \u0661")

    def test_plain_decimals_accepted(self):
        # leading zeros, a negative zero and non-ASCII comments are fine
        text = "# gr\u00fc\u00dfe\nn 002\nedge 00 01 -0\n"
        assert parse_document(text) == EdgeColoring(2, (0,))

    def test_error_mentions_line_number(self):
        with pytest.raises(DocumentError, match="line 3"):
            parse_document("n 2\n# fine\nedge 0 1 nope\n")

    @pytest.mark.parametrize(
        "text",
        [
            "n 2\n" + "x" * 10**5 + "\n",
            "n 2\nedge 0 1 " + "7" * 10**5 + "x\n",
            "n 2\nedge 0 " + "y" * 10**5 + " 1 0\n",
            "m " + "z" * 10**5 + "\n",
        ],
        ids=["edge-line", "color-token", "vertex-token", "header-line"],
    )
    def test_long_bad_line_message_is_bounded(self, text):
        with pytest.raises(DocumentError) as excinfo:
            parse_document(text)
        message = str(excinfo.value)
        assert len(message) < 200
        assert message.startswith("line 2: " if text.startswith("n 2") else "line 1: ")
        assert "characters)" in message

    @pytest.mark.parametrize(
        "text, lineno, digits",
        [
            ("n 2\nedge 0 1 " + "7" * 5000 + "\n", 2, 5000),
            ("n 2\nedge 0 1 +" + "7" * 10**5 + "\n", 2, 10**5),
            ("n " + "9" * 5000 + "\n", 1, 5000),
        ],
        ids=["color", "signed-color", "header"],
    )
    def test_number_past_digit_limit_is_named_too_long(self, text, lineno, digits):
        # well-formed decimals beyond int()'s string conversion limit are
        # reported as too long, not as non-integers
        with pytest.raises(DocumentError) as excinfo:
            parse_document(text)
        message = str(excinfo.value)
        assert message == f"line {lineno}: number too long ({digits} digits)"
        assert len(message) < 200

    @pytest.mark.parametrize(
        "text, message",
        [
            ("n 3\nedge 0 2 0\nedge 0 2 1\n", r"^line 3: pair \(0, 2\) repeated$"),
            ("n 3\nedge 0 1 0\nedge 1 2 0\n", r"^expected 3 pairs for n=3, got 2$"),
            ("n 30000\nedge 0 1 0\nedge 0 1 0\n", r"^line 3: pair \(0, 1\) repeated$"),
            ("n 30000\nedge 0 1 0\n", r"^expected 449985000 pairs for n=30000, got 1$"),
        ],
        ids=["repeated", "short", "huge-n-repeated", "huge-n-short"],
    )
    def test_coverage_messages(self, text, message):
        # a declared n far beyond the text's length must fail without
        # allocating n(n-1)/2 slots
        with pytest.raises(DocumentError, match=message):
            parse_document(text)


def parsed(parse, text):
    """The coloring a parser returns, or the message of its DocumentError."""
    try:
        return parse(text)
    except DocumentError as exc:
        return str(exc)


# Edits that take a line out of the writer's form.  Each acts at an edge
# line i; lines[-1] is the "" after the last "\n".
MUTATIONS = ("crlf", "tab", "double-space", "swap", "repeat", "drop-last", "comment", "color", "non-ascii")
COLOR_SPELLINGS = ("-1", "007", "1_0", "+1", "9" * 5000)


def mutate(lines, name, i, j):
    """Apply the mutation ``name`` at line i; j picks the other line of a
    swap, the color spelling, or where a non-ASCII character goes."""
    line = lines[i]
    if name == "crlf":
        lines[i] = line + "\r"
    elif name == "tab":
        lines[i] = line.replace(" ", "\t", 1)
    elif name == "double-space":
        lines[i] = line.replace(" ", "  ", 1)
    elif name == "swap":
        lines[i], lines[j] = lines[j], line
    elif name == "repeat":
        lines.insert(i, line)
    elif name == "drop-last":
        del lines[-2]
    elif name == "comment":
        lines.insert(i, "# note")
    elif name == "color":
        lines[i] = line.rsplit(" ", 1)[0] + " " + COLOR_SPELLINGS[j % len(COLOR_SPELLINGS)]
    else:  # a Latin-1 letter, or the byte 0xE9 as surrogateescape reads it
        lines[i] = line[:j] + ("\u00e9", "\udce9")[j % 2] + line[j:]


@st.composite
def mutated_documents(draw):
    """A rendered document with n >= 2 and one to three MUTATIONS applied."""
    coloring = draw(colorings(max_n=7, max_color=12).filter(lambda c: c.n >= 2))
    lines = render_document(coloring).split("\n")
    for name in draw(st.lists(st.sampled_from(MUTATIONS), min_size=1, max_size=3)):
        edges = len(lines) - 2
        if edges < 1:  # every edge line dropped
            break
        i = draw(st.integers(1, edges))
        j = draw(st.integers(1, edges)) if name == "swap" else draw(st.integers(0, len(lines[i])))
        mutate(lines, name, i, j)
    return "\n".join(lines)


class TestWriterRows:
    """parse_document reads writer-order rows in bulk and hands every other
    line to its line loop, which naive_parse_document runs on every line."""

    @given(mutated_documents())
    def test_mutated_documents_read_as_by_the_line_loop(self, text):
        assert parsed(parse_document, text) == parsed(naive_parse_document, text)

    def test_every_single_mutation_of_a_small_document(self):
        lines = render_document(EdgeColoring(5, tuple(range(10, 20)))).split("\n")
        for name in MUTATIONS:
            for i in range(1, len(lines) - 1):
                for j in range(len(lines) - 1) if name in ("swap", "color") else (0, 1, len(lines[i])):
                    mutated = list(lines)
                    mutate(mutated, name, i, j)
                    text = "\n".join(mutated)
                    assert parsed(parse_document, text) == parsed(naive_parse_document, text), (name, i, j)

    @pytest.mark.parametrize(
        "text",
        [
            "n 3\nedge 0 1 0\nedge 0 2 1\r\nedge 1 2 1\n",
            "n 3\nedge 0 1 0\nedge 0 2 1\nedge 1 2 -1\n",
            "n 3\nedge 0 1 0\nedge 0 2 1\nedge 1 2 " + "7" * 5000 + "\n",
            "n 3\nedge 0 1 0\nedge 0 2 \nedge 1 2 1\n",
            "n 3\nedge 0 1 0\nedge 0 2\nedge 1 2 1\n",
            "n 3\nedge 0 1 0 0\nedge 0 2 1\nedge 1 2 1\n",
            "n 3\nedge 0 1 0\nedge 0 2 1\nedge 0 1 0\nedge 1 2 1\n",
            "n 3\nedge 0 1 0\nedge 0 2 1\nedge 1 2 1\nedge 1 2 1\n",
            "n 3\nedge 0 1 0\nedge 0 2 1\nedge 1 2 \u0661\n",
            "n 3\nedge 0 1 0\nedge 0 2 1\nedge 1 2 1\n# tail\n",
            "n 3\nedge 0 1 0\nedge 0 2 1\n",
        ],
        ids=["crlf", "negative", "past-digit-limit", "empty-color", "no-color", "extra-field", "repeat-mid",
             "repeat-after", "non-ascii-digit", "trailing-comment", "short"],
    )
    def test_a_row_not_as_written_falls_to_the_line_loop(self, text):
        assert parsed(parse_document, text) == parsed(naive_parse_document, text)

    def test_numbers_are_read_one_by_one_only_for_the_header(self, monkeypatch):
        calls = []
        parse_int = gallai.document._parse_int

        def counted(token, lineno):
            calls.append(token)
            return parse_int(token, lineno)

        monkeypatch.setattr(gallai.document, "_parse_int", counted)
        coloring = chain_coloring(40)
        assert parse_document(render_document(coloring)) == coloring
        assert calls == ["40"]


class TestDot:
    def test_pen_color_cycle(self):
        assert pen_color(0) == "red"
        assert pen_color(11) == "salmon"
        assert pen_color(12) == "red1"
        assert pen_color(23) == "salmon1"
        assert pen_color(24) == "red2"

    def test_palette_size(self):
        assert len(PALETTE) == 12
        assert len(set(PALETTE)) == 12

    def test_dot_output(self):
        dot = render_dot(chain_coloring(3))
        assert dot.startswith("graph coloring {")
        assert '0 -- 1 [color="red"]' in dot
        assert '1 -- 2 [color="blue"]' in dot
        assert dot.endswith("}\n")

    def test_dot_byte_stable(self):
        c = uniform_coloring(2)
        assert render_dot(c) == render_dot(c)

    def test_every_edge_present(self):
        c = chain_coloring(5)
        dot = render_dot(c)
        for u, v, _ in naive_pairs(c):
            assert f"{u} -- {v} [" in dot
