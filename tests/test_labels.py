from __future__ import annotations

import json
import pickle

import pytest
from hypothesis import given, strategies as st

from stellarpair import derived_subdivision, from_facets, next_round, vlabel
from stellarpair.errors import MalformedInputError, NamingError
from stellarpair.labels import (
    BARYCENTER,
    ORIGINAL,
    VertexLabel,
    _Barycenter,
    _digit_limit,
    _parse_barycenter,
    _Reserved,
)


def test_interning_is_injective():
    assert vlabel("x") is vlabel("x")
    assert vlabel("x") == vlabel("x")
    assert vlabel("x") != vlabel("y")
    assert vlabel(3) is vlabel("3")


def test_barycenter_token_is_sorted_and_deterministic():
    a = VertexLabel.barycenter(["2", "1", "3"], 0)
    b = VertexLabel.barycenter(["3", "2", "1"], 0)
    assert a is b
    assert a.token == "b{1,2,3}@0"
    assert a.kind == BARYCENTER
    assert a.face == ("1", "2", "3")
    assert a.round == 0


def test_nested_barycenter_round_trips():
    inner = VertexLabel.barycenter(["1", "2"], 0)
    outer = VertexLabel.barycenter([inner.token, "3"], 1)
    assert outer.token == "b{3,b{1,2}@0}@1"  # "3" sorts before "b..."
    reparsed = vlabel(outer.token)
    assert reparsed.kind == BARYCENTER
    assert reparsed.round == 1
    assert inner.token in reparsed.face


def test_noncanonical_tokens_stay_opaque():
    assert vlabel("b{2,1}@0").kind == ORIGINAL  # unsorted constituents
    assert vlabel("b{1,2}@01").kind == ORIGINAL  # zero-padded round
    assert vlabel("b{1,2}").kind == ORIGINAL  # no round
    assert vlabel("b{1}@²").kind == ORIGINAL  # a digit, but not an ASCII one
    assert from_facets([["b{1}@²", "2"]]).num_vertices() == 2
    assert vlabel("plain").kind == ORIGINAL


@pytest.mark.parametrize("digits", [5000, 4300])
def test_a_round_whose_next_round_cannot_be_spelled_stays_opaque(digits):
    # int() refuses a round of 5000 digits, and str() refuses the round after
    # 4300 nines (the interpreter's default digit limit): both stay opaque, so
    # reading them answers and deriving them is a NamingError, never a ValueError
    token = "b{1,2}@" + "9" * digits
    cx = from_facets([[token, "a"]])
    assert cx.num_vertices() == 2
    if 0 < _digit_limit() <= digits:
        assert vlabel(token).kind == ORIGINAL
        with pytest.raises(NamingError):
            derived_subdivision(cx)


def test_a_round_at_the_digit_limit_is_a_barycenter_while_the_next_round_spells():
    limit = _digit_limit()
    if not limit:
        pytest.skip("the interpreter sets no int/str digit limit")
    lbl = vlabel("b{1,2}@" + "9" * (limit - 1) + "8")
    assert lbl.kind == BARYCENTER and lbl.round == 10**limit - 2
    result, record = derived_subdivision(from_facets([[lbl, "a"]]))
    assert record.round == 10**limit - 1 and len(result.facets) == 2


needs_digit_limit = pytest.mark.skipif(not _digit_limit(), reason="the interpreter sets no int/str digit limit")


@needs_digit_limit
def test_a_round_too_long_to_spell_is_a_naming_error():
    # `VertexLabel.barycenter` spells every new label, so a round past the
    # digit limit is a NamingError there, never a bare ValueError
    limit = _digit_limit()
    with pytest.raises(NamingError, match="cannot be spelled"):
        VertexLabel.barycenter(["1", "2"], 10**limit)
    with pytest.raises(NamingError, match="cannot be spelled"):
        derived_subdivision(from_facets([["1", "2"]]), round=10**limit)


@needs_digit_limit
def test_deriving_twice_past_the_digit_limit_is_a_naming_error():
    # from round 10^limit - 2 the first derivation spells 10^limit - 1, and
    # the second cannot spell 10^limit
    limit = _digit_limit()
    once, record = derived_subdivision(from_facets([["b{1,2}@" + "9" * (limit - 1) + "8", "a"]]))
    assert record.round == 10**limit - 1
    with pytest.raises(NamingError, match="cannot be spelled"):
        derived_subdivision(once)


def test_a_negative_round_too_long_to_print_is_malformed_input():
    # one round check serves both callers, and it describes a value it cannot
    # print; with no digit limit the value prints, and the error is the same
    for call in (
        lambda: VertexLabel.barycenter(["1", "2"], -(10**4300)),
        lambda: derived_subdivision(from_facets([["1", "2"]]), round=-(10**4300)),
    ):
        with pytest.raises(MalformedInputError, match="nonnegative int") as exc:
            call()
        if _digit_limit():
            assert str(exc.value).endswith(f"got a value of type int with more than {_digit_limit()} digits")


def test_empty_label_rejected():
    with pytest.raises(MalformedInputError):
        vlabel("")


def test_barycenter_rejects_what_it_cannot_spell():
    # joined with an unescaped comma, "a,b" next to "c" would spell the triangle's b{a,b,c}@0
    with pytest.raises(NamingError, match="a,b"):
        VertexLabel.barycenter(["a,b", "c"], 0)
    for label in ("x{", "y}", "b{1,2}@x"):
        with pytest.raises(NamingError):
            VertexLabel.barycenter([label], 0)
    with pytest.raises(MalformedInputError):
        VertexLabel.barycenter([], 0)
    for rnd in (-1, 1.0, True, "1"):
        with pytest.raises(MalformedInputError):
            VertexLabel.barycenter(["a"], rnd)
    nested = VertexLabel.barycenter(["1", "2"], 0)
    assert VertexLabel.barycenter([nested, "3"], 1).face == ("3", "b{1,2}@0")


def test_spelling_is_decided_when_a_label_is_interned():
    # an original label holding a reserved character gets its own class, so
    # `barycenter` tests each constituent's type instead of scanning its token
    for token in ("a,b", "x{", "y}", "b{1,2}@x", "b{2,1}@0"):
        lbl = vlabel(token)
        assert type(lbl) is _Reserved and lbl.kind == ORIGINAL
        with pytest.raises(NamingError) as exc:
            VertexLabel.barycenter([lbl, "c"], 0)
        assert str(exc.value) == f"label {token} holds ',', '{{' or '}}', which barycenter labels reserve"
    assert type(vlabel("plain")) is VertexLabel
    assert type(vlabel("b{1,2}@0")) is _Barycenter
    # every constituent is interned before any is tested, as before
    with pytest.raises(MalformedInputError):
        VertexLabel.barycenter(["a,b", ""], 0)


def test_next_round_skips_used_rounds():
    labels = [vlabel("1"), VertexLabel.barycenter(["1", "2"], 0), VertexLabel.barycenter(["2", "3"], 4)]
    assert next_round(labels) == 5
    assert next_round([vlabel("1"), vlabel("2")]) == 0
    assert next_round([]) == 0


def test_built_and_parsed_barycenters_store_equal_rounds():
    # the round is stored when a label is interned, and fresh tokens make one
    # label through `barycenter` and one through the parser
    built = VertexLabel.barycenter(["round-1", "round-2"], 731)
    parsed = vlabel("b{round-1,round-3}@731")
    assert type(built) is type(parsed) is _Barycenter
    assert built.round == parsed.round == 731
    assert next_round([built, parsed]) == 732
    # a copy made through pickle keeps it
    again = pickle.loads(pickle.dumps(parsed))
    assert (again, again.round) == (parsed, 731)


@given(st.lists(st.text(alphabet="abc123", min_size=1, max_size=4), min_size=1, max_size=4, unique=True),
       st.integers(0, 20))
def test_barycenter_parse_round_trip(tokens, rnd):
    lbl = VertexLabel.barycenter(tokens, rnd)
    again = vlabel(lbl.token)
    assert again is lbl
    assert again.kind == BARYCENTER
    assert again.face == tuple(sorted(tokens))
    assert again.round == rnd


_plain = st.text(alphabet="abc123", min_size=1, max_size=4)


@st.composite
def _built(draw, depth=2):
    """A label built by `VertexLabel.barycenter` from plain and nested constituents."""
    inner = _plain if depth == 0 else _plain | _built(depth - 1).map(lambda b: b[0])
    parts = draw(st.lists(inner, min_size=1, max_size=3, unique=True))
    rnd = draw(st.integers(0, 20))
    return VertexLabel.barycenter(parts, rnd), parts, rnd


@given(_built())
def test_built_barycenter_is_what_the_parser_reads(built):
    # `vlabel(str(lbl))` returns the interned object, so ask the parser itself
    lbl, parts, rnd = built
    assert lbl.kind == BARYCENTER
    assert _parse_barycenter(str(lbl)) == (tuple(sorted(parts)), rnd)
    assert (lbl.face, lbl.round) == (tuple(sorted(parts)), rnd)


def _spell(parts, rnd, reverse=False, pad=""):
    return "b{" + ",".join(sorted(parts, reverse=reverse)) + "}@" + pad + str(rnd)


# (token, kind, face, round) as the label must report them
_original = _plain.map(lambda t: (t, ORIGINAL, None, None))
_canonical = st.builds(
    lambda parts, rnd: (_spell(parts, rnd), BARYCENTER, tuple(sorted(parts)), rnd),
    st.lists(_plain, min_size=1, max_size=3, unique=True),
    st.integers(0, 20),
)
_nested = st.builds(
    lambda parts, rnd: (_spell(parts, rnd), BARYCENTER, tuple(sorted(parts)), rnd),
    st.lists(_plain | _canonical.map(lambda c: c[0]), min_size=1, max_size=3, unique=True),
    st.integers(0, 20),
)
_noncanonical = st.builds(
    lambda parts, rnd, reverse: (_spell(parts, rnd, reverse, "" if reverse else "0"), ORIGINAL, None, None),
    st.lists(_plain, min_size=2, max_size=3, unique=True),
    st.integers(0, 20),
    st.booleans(),
)


@given(st.lists(_original | _canonical | _nested | _noncanonical, min_size=1, max_size=6))
def test_label_is_its_token(cases):
    tokens = [c[0] for c in cases]
    labels = [vlabel(t) for t in tokens]
    for (token, kind, face, rnd), lbl in zip(cases, labels):
        assert lbl == token and hash(lbl) == hash(token)
        assert lbl.token == token and type(lbl.token) is str
        assert (lbl.kind, lbl.face, lbl.round) == (kind, face, rnd)
        assert not hasattr(lbl, "__dict__")
    assert [lbl.token for lbl in sorted(labels)] == sorted(tokens)
    assert json.dumps(labels, indent=2) == json.dumps(tokens, indent=2)
    as_json = [json.dumps(dict(zip(xs, xs)), sort_keys=True) for xs in (labels, tokens)]
    assert as_json[0] == as_json[1]
