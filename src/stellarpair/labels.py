"""Interned vertex labels.

Original vertices are opaque strings.  Vertices created by subdivision
rounds are barycenter labels "b{l1,l2,...}@r": the sorted labels of the
subdivided face plus a round counter, so repeated subdivisions can never
collide.  A label is a ``str`` subclass equal to its token, so hashing,
equality and the total order are the token's.  Labels are interned
process-wide: each token has one label object, whose class says whether
it is a barycenter and whether it may be spelled into one (an original
label holding ``,``, ``{`` or ``}`` may not); only a new token from
outside is parsed to learn it.
"""

from __future__ import annotations

import sys
import threading
from typing import Iterable

from .errors import MalformedInputError, NamingError

ORIGINAL = "original"
BARYCENTER = "barycenter"

_INTERN: dict[str, "VertexLabel"] = {}
_INTERN_LOCK = threading.Lock()
_RESERVED = frozenset(",{}")


def _parse_barycenter(token: str) -> tuple[tuple[str, ...], int] | None:
    """Return (constituents, round) if token is a canonical barycenter label."""
    if not token.startswith("b{"):
        return None
    at = token.rfind("}@")
    if at < 2:
        return None
    round_part = token[at + 2 :]
    if not (round_part.isascii() and round_part.isdigit() and _next_round_spellable(round_part)):
        return None
    inner = token[2:at]
    parts: list[str] = []
    depth = 0
    cur: list[str] = []
    for ch in inner:
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
            continue
        if ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
            if depth < 0:
                return None
        cur.append(ch)
    if depth != 0:
        return None
    parts.append("".join(cur))
    if any(p == "" for p in parts):
        return None
    rnd = int(round_part)
    # Only the canonical spelling counts; anything else stays an opaque token.
    if _barycenter_token(sorted(parts), rnd) != token:
        return None
    return tuple(parts), rnd


def _digit_limit() -> int:
    """The most decimal digits `int` and `str` convert between (0: no limit)."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


def _next_round_spellable(digits: str) -> bool:
    """Whether the round spelled by the ASCII `digits` and the round after it
    both convert between `int` and `str` under the interpreter's digit limit."""
    limit = _digit_limit()
    return not limit or len(digits) < limit or (len(digits) == limit and digits != "9" * limit)


def _check_round(rnd) -> None:
    """`MalformedInputError` unless `rnd` is a nonnegative int.  A value too
    long to print (an int past the digit limit) is described instead."""
    if type(rnd) is int and rnd >= 0:
        return
    try:
        shown = repr(rnd)
    except ValueError:
        shown = f"a value of type {type(rnd).__name__} with more than {_digit_limit()} digits"
    raise MalformedInputError(f"subdivision round must be a nonnegative int, got {shown}")


def _barycenter_token(constituents: list[str], rnd: int) -> str:
    """The token of sorted `constituents` in round `rnd`."""
    return "b{" + ",".join(constituents) + "}@" + str(rnd)


class VertexLabel(str):
    """A vertex label: a ``str`` equal to its token, so it hashes, compares
    and sorts as its token does.  Use :func:`vlabel` or :meth:`barycenter`
    to obtain one."""

    __slots__ = ()

    kind = ORIGINAL
    face: tuple[str, ...] | None = None
    round: int | None = None

    @property
    def token(self) -> str:
        return str(self)

    @classmethod
    def of(cls, token) -> "VertexLabel":
        if isinstance(token, VertexLabel):
            return token
        if isinstance(token, int):
            token = str(token)
        if not isinstance(token, str) or token == "":
            raise MalformedInputError(f"vertex label must be a nonempty string, got {token!r}")
        return _INTERN.get(token) or _intern(_new_label(token))

    @classmethod
    def barycenter(cls, constituents: Iterable[str], rnd: int) -> "VertexLabel":
        """The label ``b{c1,c2,...}@rnd`` of the face spanned by `constituents`.

        `NamingError` if a constituent that is no barycenter label holds `,`,
        `{` or `}` ({`a,b`, `c`} would spell b{a,b,c}), or if the round has
        more digits than the interpreter's int/str limit lets it spell;
        `MalformedInputError` for no constituents or a round that is no
        nonnegative int.  The token is then canonical and interned unparsed:
        by induction each constituent is reserved-free or a canonical
        barycenter token with its commas inside balanced braces, so the
        token's depth-0 commas are exactly its joins.
        """
        _check_round(rnd)
        parts = sorted(map(cls.of, constituents))
        if not parts:
            raise MalformedInputError("a barycenter needs at least one constituent")
        for lbl in parts:
            if type(lbl) is _Reserved:
                raise NamingError(f"label {lbl} holds ',', '{{' or '}}', which barycenter labels reserve")
        try:
            token = _barycenter_token(parts, rnd)
        except ValueError:
            raise NamingError(f"a round of more than {_digit_limit()} digits cannot be spelled into a label") from None
        return _INTERN.get(token) or _intern(_Barycenter(token, rnd))

    def __repr__(self):
        return f"VertexLabel({str.__repr__(self)})"


class _Barycenter(VertexLabel):
    """A label whose token is a canonical barycenter token ``b{...}@r``; its
    round r is stored when the label is made, so reading it parses nothing."""

    __slots__ = ("round",)

    kind = BARYCENTER

    def __new__(cls, token: str, rnd: int):
        lbl = super().__new__(cls, token)
        lbl.round = rnd
        return lbl

    def __getnewargs__(self):
        return str(self), self.round

    @property
    def face(self) -> tuple[str, ...]:
        return _parse_barycenter(self)[0]


class _Reserved(VertexLabel):
    """An original label holding ``,``, ``{`` or ``}``, which barycenter
    tokens reserve: it may not be spelled into a barycenter label."""

    __slots__ = ()


def _new_label(token: str) -> VertexLabel:
    """A new label for `token`, its class (and a barycenter's round) decided
    once, when the token is interned."""
    parsed = _parse_barycenter(token)
    if parsed:
        return _Barycenter(token, parsed[1])
    return (VertexLabel if _RESERVED.isdisjoint(token) else _Reserved)(token)


def _intern(lbl: VertexLabel) -> VertexLabel:
    """The interned label equal to the new `lbl`: `lbl` itself, unless another
    thread interned its token first."""
    with _INTERN_LOCK:
        return _INTERN.setdefault(lbl, lbl)


def vlabel(token) -> VertexLabel:
    """Intern `token` (str, int, or an existing label) as a vertex label."""
    return VertexLabel.of(token)


def next_round(labels: Iterable[VertexLabel]) -> int:
    """Smallest round number fresh for every barycenter label among `labels`."""
    best = -1
    for lbl in labels:
        if lbl.kind == BARYCENTER and lbl.round > best:
            best = lbl.round
    return best + 1

