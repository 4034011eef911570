"""Interned vertex labels.

Original vertices are opaque strings.  Vertices created by subdivision
rounds are barycenter labels "b{l1,l2,...}@r": the sorted labels of the
subdivided face plus a round counter, so repeated subdivisions can never
collide.  A label is a ``str`` subclass equal to its token, so hashing,
equality and the total order are the token's.  Labels are interned
process-wide: each token has one label object, and the barycenter parse
is recorded once, in the label's class, when the token is first interned.
"""

from __future__ import annotations

import threading
from typing import Collection, Iterable

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
    if not round_part.isdigit():
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
    if _barycenter_token(parts, rnd) != token:
        return None
    return tuple(parts), rnd


def _barycenter_token(constituents: Iterable[str], rnd: int) -> str:
    return "b{" + ",".join(sorted(constituents)) + "}@" + str(rnd)


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
        lbl = _INTERN.get(token)
        if lbl is not None:
            return lbl
        with _INTERN_LOCK:
            lbl = _INTERN.get(token)
            if lbl is None:
                label_type = VertexLabel if _parse_barycenter(token) is None else _Barycenter
                lbl = _INTERN[token] = label_type(token)
        return lbl

    @classmethod
    def barycenter(cls, constituents: Iterable[str], rnd: int) -> "VertexLabel":
        if rnd < 0:
            raise MalformedInputError("subdivision round must be nonnegative")
        return cls.of(_barycenter_token(constituents, rnd))

    def __repr__(self):
        return f"VertexLabel({str.__repr__(self)})"


class _Barycenter(VertexLabel):
    """A label whose token is a canonical barycenter token ``b{...}@r``."""

    __slots__ = ()

    kind = BARYCENTER

    @property
    def face(self) -> tuple[str, ...]:
        return _parse_barycenter(self)[0]

    @property
    def round(self) -> int:
        return int(self[self.rindex("@") + 1 :])


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


def _barycenter_round(labels: Collection[VertexLabel]) -> int:
    """`next_round` for labels that barycenter tokens will be spelled from.

    A label outside the canonical barycenter spelling must not hold `,`,
    `{` or `}`: the token joins constituents with `,` unescaped, so the edge
    {`a,b`, `c`} would spell the barycenter of the triangle {a, b, c}.
    Such a label raises `NamingError`.  Canonical barycenter labels are
    safe, since their commas sit inside balanced braces.
    """
    for lbl in labels:
        if lbl.kind != BARYCENTER and not _RESERVED.isdisjoint(lbl):
            raise NamingError(
                f"label {lbl} holds ',', '{{' or '}}', which barycenter labels reserve"
            )
    return next_round(labels)
