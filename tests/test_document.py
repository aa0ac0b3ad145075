"""Document serialization, parsing diagnostics, and DOT export."""

import random

import pytest
from hypothesis import given

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
from gallai.document import PALETTE, pen_color
from oracles import (
    colorings,
    duplication_sequence,
    naive_pairs,
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
