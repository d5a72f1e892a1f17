"""Percent / ``application/x-www-form-urlencoded`` codec.

The Google Documents save protocol carries everything in form-encoded
POST bodies (``docContents=...&delta=...``); the mediator has to decode
exactly what the client encoded and re-encode what it rewrites, so the
codec is implemented here rather than assumed (the JS prototype used
``encodeURIComponent``/``decodeURIComponent``/``unescape``).  Decoding
is strict: a malformed escape or invalid UTF-8 is a
:class:`ProtocolError`, never a silently altered field.
"""

from __future__ import annotations

from repro.errors import ProtocolError

_UNRESERVED = set(
    "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
    "abcdefghijklmnopqrstuvwxyz"
    "0123456789-_.~*"
)
_HEX = "0123456789ABCDEF"
_HEX_DIGITS = frozenset("0123456789abcdefABCDEF")


def quote(text: str) -> str:
    """Percent-encode ``text`` for use in a form body.

    Spaces become ``+`` (form convention); every other byte outside the
    unreserved set becomes ``%XX`` over its UTF-8 encoding.
    """
    out: list[str] = []
    for ch in text:
        if ch in _UNRESERVED:
            out.append(ch)
        elif ch == " ":
            out.append("+")
        else:
            for byte in ch.encode("utf-8"):
                out.append("%" + _HEX[byte >> 4] + _HEX[byte & 0xF])
    return "".join(out)


def unquote(text: str) -> str:
    """Invert :func:`quote` (``%20`` decodes to a space as well)."""
    out = bytearray()
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "%":
            if i + 3 > n:
                raise ProtocolError(f"truncated percent escape in {text[i:]!r}")
            # exactly two hex digits: int(x, 16) alone would also take
            # a sign or whitespace ("%+1", "% f")
            if text[i + 1] not in _HEX_DIGITS or text[i + 2] not in _HEX_DIGITS:
                raise ProtocolError(f"invalid percent escape {text[i:i + 3]!r}")
            out.append(int(text[i + 1 : i + 3], 16))
            i += 3
        elif ch == "+":
            out.append(0x20)
            i += 1
        else:
            out.extend(ch.encode("utf-8"))
            i += 1
    try:
        return out.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ProtocolError(f"form field is not valid UTF-8: {exc}") from None


def encode_form(fields: dict[str, str]) -> str:
    """Serialize ``fields`` as a form body, preserving insertion order."""
    return "&".join(f"{quote(k)}={quote(v)}" for k, v in fields.items())


def parse_form(body: str) -> dict[str, str]:
    """Parse a form body into a dict (last occurrence of a key wins)."""
    fields: dict[str, str] = {}
    if not body:
        return fields
    for pair in body.split("&"):
        key, sep, value = pair.partition("=")
        if not sep:
            raise ProtocolError(f"malformed form pair {pair!r}")
        fields[unquote(key)] = unquote(value)
    return fields
