from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from stellarpair import (
    Simplex,
    SimplicialComplex,
    blocking_missing_simplices,
    contract_edge,
    derived_subdivision,
    edge_subdivide,
    euler_characteristic,
    from_facets,
    is_valid_edge,
    isomorphism,
    link_condition,
    missing_simplices,
    vlabel,
)
from stellarpair.contraction import _contract_if_valid
from stellarpair.errors import AbsentFaceError, InvalidEdgeError, MalformedInputError
from stellarpair.io import random_complex, random_strongly_induced_pair


# -- validity ------------------------------------------------------------

def test_hollow_triangle_edge_is_invalid(hollow_triangle):
    assert not is_valid_edge(hollow_triangle, [1, 2])
    blockers = blocking_missing_simplices(hollow_triangle, [1, 2])
    assert [b.tokens() for b in blockers] == [("1", "2", "3")]


def test_four_cycle_edge_is_valid(four_cycle):
    # the missing simplices 13 and 24 avoid every edge of the cycle
    assert {m.tokens() for m in missing_simplices(four_cycle)} == {("1", "3"), ("2", "4")}
    assert is_valid_edge(four_cycle, [1, 2])


def test_edge_inside_missing_simplex_is_invalid():
    # boundary of 126 plus enough extra facets to make it interesting
    cx = from_facets([[1, 2], [1, 6], [2, 6], [1, 2, 5], [2, 6, 3], [3, 4]])
    blockers = blocking_missing_simplices(cx, [1, 2])
    assert ("1", "2", "6") in {b.tokens() for b in blockers}
    assert not is_valid_edge(cx, [1, 2])


def test_validity_needs_an_edge(four_cycle):
    with pytest.raises(AbsentFaceError):
        is_valid_edge(four_cycle, [1, 3])


# -- link condition oracle --------------------------------------------------

def test_link_condition_examples(hollow_triangle, triangle):
    assert not link_condition(hollow_triangle, [1, 2])
    assert link_condition(triangle, [1, 2])


@given(st.integers(0, 1000))
@settings(max_examples=150, deadline=None)
def test_validity_equals_link_condition(seed):
    cx = random_complex(6, 3, 0.5, seed)
    edges = sorted(cx.faces().get(1, ()))
    if not edges:
        return
    e = edges[seed % len(edges)]
    assert is_valid_edge(cx, e) == link_condition(cx, e)


def _blocker_input(kind: str, seed: int) -> SimplicialComplex:
    n, dim = 3 + seed % 3, 1 + seed % 3
    if kind == "random":
        return random_complex(n + 1, dim, 0.5, seed)
    if kind == "derived":
        return derived_subdivision(random_complex(n, dim, 0.5, seed))[0]
    return random_strongly_induced_pair(n, dim, 0.5, seed).ambient


@given(st.sampled_from(["random", "derived", "biased"]), st.integers(0, 1000))
@settings(max_examples=100, deadline=None)
def test_blockers_match_the_missing_simplex_oracle(kind, seed):
    # every edge: the blockers read from the facets at the edge are exactly the
    # oracle's missing simplices through it, and contraction refuses with them
    cx = _blocker_input(kind, seed)
    missing = oracles.naive_missing_simplices(cx)
    for e in sorted(cx.faces().get(1, ())):
        expected = sorted((s for s in missing if set(e) <= set(s)), key=Simplex.sort_key)
        assert list(blocking_missing_simplices(cx, e)) == expected
        if expected:
            with pytest.raises(InvalidEdgeError) as exc:
                contract_edge(cx, e)
            assert list(exc.value.blockers) == expected


# -- contraction ---------------------------------------------------------------

def test_contract_path_shortens():
    assert contract_edge(from_facets([[1, 2], [2, 3]]), [1, 2], 1) == from_facets([[1, 3]])


def test_contract_four_cycle_gives_triangle(four_cycle):
    out = contract_edge(four_cycle, [1, 2], 1)
    assert out == from_facets([[1, 3], [3, 4], [1, 4]])
    assert euler_characteristic(out) == euler_characteristic(four_cycle) == 0


def test_contract_half_edge_round_trip(triangle):
    subdivided = edge_subdivide(triangle, [1, 2], "v")
    back = contract_edge(subdivided, ["v", "1"], "1")
    assert isomorphism(back, triangle) is not None
    assert back == triangle  # label substitution restores it exactly


def test_contract_invalid_edge_is_hard_error(hollow_triangle):
    # an invalid edge is reported before a survivor that is not one of its endpoints
    for survivor in (None, 3):
        with pytest.raises(InvalidEdgeError) as exc:
            contract_edge(hollow_triangle, [1, 2], survivor)
        assert [b.tokens() for b in exc.value.blockers] == [("1", "2", "3")]


def test_contract_survivor_handling(four_cycle):
    default = contract_edge(four_cycle, [1, 2])
    assert default == contract_edge(four_cycle, [1, 2], 1)  # lexicographically smaller endpoint
    other = contract_edge(four_cycle, [1, 2], 2)
    assert vlabel("1") not in other.vertex_set()
    with pytest.raises(MalformedInputError):
        contract_edge(four_cycle, [1, 2], 3)


# -- properties -------------------------------------------------------------------

@given(st.integers(0, 1000))
@settings(max_examples=120, deadline=None)
def test_valid_contraction_preserves_euler_and_drops_loser(seed):
    cx = random_complex(6, 3, 0.5, seed)
    edges = [e for e in sorted(cx.faces().get(1, ())) if is_valid_edge(cx, e)]
    if not edges:
        return
    e = edges[seed % len(edges)]
    u, v = e.vertices
    out = contract_edge(cx, e, u)
    assert euler_characteristic(out) == euler_characteristic(cx)
    assert v not in out.vertex_set()
    out.validate()


@given(st.integers(0, 1000))
@settings(max_examples=120, deadline=None)
def test_subdivide_contract_round_trip(seed):
    cx = random_complex(6, 3, 0.5, seed)
    edges = sorted(cx.faces().get(1, ()))
    if not edges:
        return
    e = edges[seed % len(edges)]
    a = e.vertices[0]
    subdivided = edge_subdivide(cx, e, "w")
    assert is_valid_edge(subdivided, ["w", a])
    back = contract_edge(subdivided, ["w", a], a)
    assert isomorphism(back, cx) is not None


def _contract_by_definition(cx, e, keep):
    """Contraction as substitution in every facet, reduced as a whole."""
    lose = next(v for v in e.vertices if v != keep)
    return SimplicialComplex(Simplex.of(keep if v == lose else v for v in f.vertices) for f in cx.facets)


@given(st.integers(0, 1000))
@settings(max_examples=80, deadline=None)
def test_contraction_matches_substitution_of_every_facet(seed):
    # non-pure random complexes, every edge, both survivors; the search's
    # one-split contraction gives None exactly on the invalid edges
    cx = random_complex(4 + seed % 4, 1 + seed % 3, 0.5, seed)
    for e in sorted(cx.faces().get(1, ())):
        if not is_valid_edge(cx, e):
            assert _contract_if_valid(cx, e, e[0]) is None
            continue
        for keep in e.vertices:
            assert contract_edge(cx, e, keep) == _contract_by_definition(cx, e, keep)
            assert _contract_if_valid(cx, e, keep) == _contract_by_definition(cx, e, keep)


def test_contraction_collapses_an_edge_facet_to_a_vertex():
    # a lone edge becomes a vertex facet; next to a triangle its image is absorbed
    for keep in ("1", "2"):
        assert contract_edge(from_facets([[1, 2], [3, 4]]), [1, 2], keep) == from_facets([[keep], [3, 4]])
        assert contract_edge(from_facets([[1, 2], [2, 3, 5]]), [1, 2], keep) == from_facets([[keep, 3, 5]])
