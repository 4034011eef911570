from __future__ import annotations

import json

import pytest
from hypothesis import given, strategies as st

from stellarpair import next_round, vlabel
from stellarpair.errors import MalformedInputError
from stellarpair.labels import BARYCENTER, ORIGINAL, VertexLabel


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
    assert vlabel("plain").kind == ORIGINAL


def test_empty_label_rejected():
    with pytest.raises(MalformedInputError):
        vlabel("")


def test_next_round_skips_used_rounds():
    labels = [vlabel("1"), VertexLabel.barycenter(["1", "2"], 0), VertexLabel.barycenter(["2", "3"], 4)]
    assert next_round(labels) == 5
    assert next_round([vlabel("1"), vlabel("2")]) == 0
    assert next_round([]) == 0


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
