from __future__ import annotations

import json

import pytest

from stellarpair import (
    Move,
    MoveScript,
    from_facets,
    is_induced,
    is_strongly_induced,
    vlabel,
)
from stellarpair.errors import MalformedInputError, ResourceLimitError
from stellarpair.inducedness import INDUCED, STRONGLY_INDUCED
from stellarpair.io import (
    ComplexDocument,
    VERTEX_CAP_ENV,
    complex_document_dict,
    parse_complex_document,
    parse_script_document,
    random_complex,
    random_induced_pair,
    random_strongly_induced_pair,
    random_subcomplex_pair,
    serialize_complex_document,
    serialize_script_document,
)


# -- complex documents -------------------------------------------------------

def test_parse_complex_document_path():
    doc = parse_complex_document('{"facets": [["1","2"],["2","3"]], "name": "path"}')
    assert doc.name == "path"
    assert doc.complex == from_facets([[1, 2], [2, 3]])


def test_serialization_round_trip_is_fixed_point():
    doc = ComplexDocument("demo", from_facets([[2, 3], [1, 2], [4]]))
    text = serialize_complex_document(doc)
    again = serialize_complex_document(parse_complex_document(text))
    assert text == again
    assert text.endswith("\n")
    data = json.loads(text)
    assert data["facets"] == [["4"], ["1", "2"], ["2", "3"]]  # (size, lex) order


def test_parse_rejects_duplicate_vertex():
    with pytest.raises(MalformedInputError):
        parse_complex_document('{"facets": [["1","1"]]}')


def test_parse_rejects_bad_shapes():
    with pytest.raises(MalformedInputError):
        parse_complex_document("[1,2]")
    with pytest.raises(MalformedInputError):
        parse_complex_document('{"facets": "nope"}')
    with pytest.raises(MalformedInputError):
        parse_complex_document('{"facets": [["1", 2]]}')
    with pytest.raises(MalformedInputError):
        parse_complex_document("{not json")


def test_missing_name_defaults_to_empty():
    doc = parse_complex_document('{"facets": [["1"]]}')
    assert doc.name == ""
    assert complex_document_dict(doc) == {"name": "", "facets": [["1"]]}


# -- script documents ----------------------------------------------------------

def test_script_round_trip():
    script = MoveScript(
        (
            Move.subdivide(("1", "2"), "v"),
            Move.contract(("2", "v"), "2"),
        ),
        target_map={"1": "a", "2": "b"},
    )
    text = serialize_script_document(script)
    parsed = parse_script_document(text)
    assert parsed.moves == script.moves
    assert parsed.target_map == {vlabel("1"): vlabel("a"), vlabel("2"): vlabel("b")}
    assert serialize_script_document(parsed) == text
    # moves from the raw constructor serialize the same: interned labels, default survivor
    raw = MoveScript(
        (Move("subdivide", ("1", "2"), new_label="v"), Move("contract", (vlabel("2"), vlabel("v")))),
        target_map={"1": "a", "2": "b"},
    )
    assert serialize_script_document(raw) == text
    assert parse_script_document(serialize_script_document(raw)).moves == raw.moves


def test_script_document_validation():
    with pytest.raises(MalformedInputError):
        parse_script_document('{"moves": [{"op": "polish", "edge": ["1","2"]}]}')
    with pytest.raises(MalformedInputError):
        parse_script_document('{"moves": [{"op": "subdivide", "edge": ["1","1"], "new_label": "v"}]}')
    with pytest.raises(MalformedInputError):
        parse_script_document('{"moves": [{"op": "subdivide", "edge": ["1","2"]}]}')
    with pytest.raises(MalformedInputError):
        parse_script_document('{"moves": [{"op": "contract", "edge": ["1","2"], "survivor": "9"}]}')
    with pytest.raises(MalformedInputError):
        parse_script_document('{"moves": [], "target_map": {"1": "a", "2": "a"}}')
    # default survivor is the smaller endpoint
    parsed = parse_script_document('{"moves": [{"op": "contract", "edge": ["2","1"]}]}')
    assert parsed.moves[0].survivor == vlabel("1")


def test_script_document_move_errors_name_the_move():
    # Move's own checks run on parsed moves; the error says which move failed
    ok = '{"op": "subdivide", "edge": ["1","2"], "new_label": "v"}'
    with pytest.raises(MalformedInputError, match=r"^moves\[1\]: contract survivor 9"):
        parse_script_document('{"moves": [%s, {"op": "contract", "edge": ["1","2"], "survivor": "9"}]}' % ok)
    with pytest.raises(MalformedInputError, match=r"^moves\[1\]: a move edge needs exactly two distinct labels"):
        parse_script_document('{"moves": [%s, {"op": "contract", "edge": ["2","2"]}]}' % ok)


# -- generators -------------------------------------------------------------------

def test_random_complex_is_deterministic():
    a = random_complex(5, 2, 0.5, 42)
    b = random_complex(5, 2, 0.5, 42)
    assert a == b
    assert a != random_complex(5, 2, 0.5, 43)
    assert a.num_vertices() == 5


def test_random_complex_validates_arguments():
    with pytest.raises(MalformedInputError):
        random_complex(4, 2, 1.5, 1)
    with pytest.raises(MalformedInputError):
        random_complex(0, 2, 0.5, 1)


def test_random_complex_respects_cap(monkeypatch):
    with pytest.raises(ResourceLimitError):
        random_complex(64, 2, 0.5, 1)
    monkeypatch.setenv(VERTEX_CAP_ENV, "64")
    assert random_complex(17, 1, 0.1, 1).num_vertices() == 17
    monkeypatch.setenv(VERTEX_CAP_ENV, "8")
    with pytest.raises(ResourceLimitError):
        random_complex(9, 2, 0.5, 1)


def test_random_induced_pairs_are_induced():
    for seed in range(40):
        pair = random_induced_pair(6, 2, 0.5, seed)
        assert is_induced(pair.sub, pair.ambient).verdict == INDUCED


def test_random_strongly_induced_pairs_verify():
    for seed in range(25):
        pair = random_strongly_induced_pair(5, 2, 0.45, seed)
        assert pair.status.verdict == STRONGLY_INDUCED
        assert is_strongly_induced(pair.sub, pair.ambient).verdict == STRONGLY_INDUCED


def test_random_subcomplex_pairs_are_subcomplexes():
    from stellarpair import is_subcomplex

    for seed in range(40):
        sub, ambient = random_subcomplex_pair(6, 2, 0.5, seed)
        assert is_subcomplex(sub, ambient)


def test_pair_generators_are_deterministic():
    a = random_induced_pair(6, 2, 0.5, 7)
    b = random_induced_pair(6, 2, 0.5, 7)
    assert a.sub == b.sub and a.ambient == b.ambient
