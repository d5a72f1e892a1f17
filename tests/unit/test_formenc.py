"""Form/percent encoding round trips and error handling."""

import pytest

from repro.encoding.formenc import encode_form, parse_form, quote, unquote
from repro.errors import ProtocolError


class TestQuote:
    @pytest.mark.parametrize("text", [
        "", "plain", "with space", "tab\tand\nnewline",
        "=&%+?#", "unicode: é 中文 🎉", "a" * 500,
    ])
    def test_round_trip(self, text):
        assert unquote(quote(text)) == text

    def test_space_becomes_plus(self):
        assert quote("a b") == "a+b"

    def test_plus_is_escaped(self):
        assert "+" not in quote("a+b").replace("%2B", "")

    def test_unreserved_untouched(self):
        text = "AZaz09-_.~*"
        assert quote(text) == text

    def test_no_plus_mode(self):
        """``encodeURIComponent`` writes spaces as ``%20``; they decode
        like ``+``."""
        assert unquote("a%20b") == "a b"


class TestUnquoteErrors:
    def test_truncated_escape(self):
        for text in ("abc%2", "%", "x%f"):
            with pytest.raises(ProtocolError, match="truncated"):
                unquote(text)

    def test_invalid_hex(self):
        """``int(x, 16)`` would accept signs and whitespace; a percent
        escape is exactly two hex digits."""
        for text in ("%zz", "%+1", "% f", "%-0", "%0\n", "ok%1g", "%%41"):
            with pytest.raises(ProtocolError, match="invalid percent"):
                unquote(text)

    def test_invalid_utf8(self):
        with pytest.raises(ProtocolError):
            unquote("%ff%fe")


class TestForm:
    def test_round_trip(self):
        fields = {"docContents": "hello & goodbye", "rev": "3",
                  "delta": "=2\t+x y", "weird key": "=value="}
        assert parse_form(encode_form(fields)) == fields

    def test_preserves_order(self):
        body = encode_form({"b": "1", "a": "2"})
        assert body.startswith("b=1")

    def test_empty_body(self):
        assert parse_form("") == {}

    def test_empty_value(self):
        assert parse_form("k=") == {"k": ""}

    def test_missing_equals_rejected(self):
        with pytest.raises(ProtocolError):
            parse_form("justakey")

    def test_last_key_wins(self):
        assert parse_form("k=1&k=2") == {"k": "2"}
