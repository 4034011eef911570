from __future__ import annotations

import json
import pathlib
import sys

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from stellarpair import (
    MoveScript,
    SimplicialComplex,
    as_simplex,
    biased_derived,
    derived_subdivision,
    edge_subdivide,
    euler_characteristic,
    f_vector,
    from_facets,
    induced_subcomplex,
    is_pseudomanifold,
    is_subcomplex,
    isomorphism,
    link,
    next_round,
    pair_biased,
    pair_derive,
    pair_new,
    pair_subdivide_edge,
    pipeline_run,
    stellar_subdivide,
    vlabel,
)
from stellarpair import labels
from stellarpair.cli import main
from stellarpair.errors import AbsentFaceError, DomainError, MalformedInputError, NamingError, ResourceLimitError
from stellarpair.io import ComplexDocument, random_complex, random_subcomplex_pair, serialize_complex_document

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


# -- stellar ---------------------------------------------------------------

def test_stellar_at_top_simplex(triangle):
    out = stellar_subdivide(triangle, [1, 2, 3], "v")
    assert out == from_facets([[1, 2, "v"], [1, 3, "v"], [2, 3, "v"]])


def test_stellar_at_shared_edge_matches_definition_oracle():
    cx = from_facets([[1, 2, 3], [1, 3, 4]])
    expected = oracles.stellar_by_definition(cx, [1, 3], "v")
    assert expected == from_facets([[1, 2, "v"], [2, 3, "v"], [1, 4, "v"], [3, 4, "v"]])
    assert stellar_subdivide(cx, [1, 3], "v") == expected


def test_stellar_midpoint_on_path():
    out = stellar_subdivide(from_facets([[1, 2], [2, 3]]), [2, 3], "v")
    assert out == from_facets([[1, 2], [2, "v"], [3, "v"]])


def test_stellar_errors(triangle):
    with pytest.raises(AbsentFaceError):
        stellar_subdivide(triangle, [1, 4], "v")
    with pytest.raises(NamingError):
        stellar_subdivide(triangle, [1, 2], "3")
    with pytest.raises(DomainError):
        stellar_subdivide(triangle, [1], "v")


@given(st.integers(0, 300))
@settings(max_examples=50, deadline=None)
def test_stellar_agrees_with_definition_oracle(seed):
    cx = random_complex(6, 3, 0.5, seed)
    edges = sorted(cx.faces().get(1, ()))
    if not edges:
        return
    sigma = edges[seed % len(edges)]
    got = stellar_subdivide(cx, sigma, "w")
    assert got == oracles.stellar_by_definition(cx, sigma, "w")
    # sigma is gone; the new vertex joined with boundary(sigma) * link(sigma) survives
    assert sigma not in got
    w = vlabel("w")
    for b in sigma.boundary():
        for lk_face in [f for g in link(cx, sigma).faces().values() for f in g]:
            joined = as_simplex({*b.vertices, *lk_face.vertices, w})
            assert joined in got


# -- edge subdivision ---------------------------------------------------------

def test_edge_subdivide_segment():
    assert edge_subdivide(from_facets([[1, 2]]), [1, 2], "v") == from_facets([[1, "v"], [2, "v"]])


def test_edge_subdivide_triangle(triangle):
    assert edge_subdivide(triangle, [1, 2], "v") == from_facets([[1, 3, "v"], [2, 3, "v"]])


def test_edge_subdivide_tetra_boundary_counts(tetra_boundary):
    out = edge_subdivide(tetra_boundary, [1, 2], "v")
    assert f_vector(out) == (5, 9, 6)
    assert euler_characteristic(out) == 2


def test_edge_subdivide_keeps_a_compact_facet_table():
    # from 64 to 127 items, a frozenset grown from a list keeps a hash table
    # twice the size of one copied from a set
    path = from_facets([[i, i + 1] for i in range(99)])
    out = edge_subdivide(path, [1, 2], "m")
    assert len(out.facets) == 100
    compact = sys.getsizeof(frozenset(set(out.facets)))
    assert sys.getsizeof(frozenset(list(out.facets))) > compact
    assert sys.getsizeof(out.facets) == compact


def test_edge_subdivide_rejects_non_edge(triangle):
    with pytest.raises(DomainError):
        edge_subdivide(triangle, [1, 2, 3], "v")


# -- derived -------------------------------------------------------------------

def test_derived_segment():
    out, record = derived_subdivision(from_facets([[1, 2]]))
    assert out == from_facets([[1, "b{1,2}@0"], [2, "b{1,2}@0"]])
    assert record.round == 0
    assert [s.tokens() for s in record.subdivided_faces] == [("1", "2")]


def test_derived_triangle_chain_counts(triangle):
    out, _ = derived_subdivision(triangle)
    assert f_vector(out)[0] == 7
    assert len(out.facets) == 6
    assert all(f.dim == 2 for f in out.facets)


@given(st.integers(0, 400))
@settings(max_examples=60, deadline=None)
def test_derived_vertex_count_is_face_count(seed):
    cx = random_complex(6, 3, 0.5, seed)
    out, record = derived_subdivision(cx)
    assert f_vector(out)[0] == cx.face_count()
    # one fresh label per subdivided face, injectively
    assert len(set(record.new_labels.values())) == len(record.new_labels)
    assert all(f.dim >= 1 for f in record.new_labels)
    assert set(record.subdivided_faces) == set(record.new_labels)


@given(st.integers(1, 4), st.integers(0, 200))
@settings(max_examples=50, deadline=None)
def test_derived_equals_stellar_schedule(dim, seed):
    cx = random_complex(6, dim, 0.7, seed)
    direct, _ = derived_subdivision(cx)
    assert direct == oracles.schedule_derived(cx)


def test_derived_simplex_facet_counts():
    # the derived d-simplex has one facet per vertex order: 5! and then 120 * 5!
    simplex = from_facets([[1, 2, 3, 4, 5]])
    once, _ = derived_subdivision(simplex)
    twice, _ = derived_subdivision(once)
    assert len(once.facets) == 120
    assert len(twice.facets) == 14400


def test_derived_round_increments():
    cx = from_facets([[1, 2]])
    once, rec1 = derived_subdivision(cx)
    twice, rec2 = derived_subdivision(once)
    assert rec1.round == 0 and rec2.round == 1
    assert twice.num_vertices() == 3 + 2  # 3 vertices + 2 new edge barycenters


def test_stale_round_is_rejected():
    # a round-0 barycenter of {1,2} would be the existing vertex b{1,2}@0, gluing the two components
    cx = from_facets([["1", "2"], ["b{1,2}@0", "3"]])
    edge = from_facets([["1", "2"]])
    with pytest.raises(NamingError):
        derived_subdivision(cx, round=0)
    with pytest.raises(NamingError):
        biased_derived(edge, cx, round=0)
    out, record = derived_subdivision(cx, round=1)
    assert (out, record) == derived_subdivision(cx)
    assert out.num_vertices() == 6
    assert biased_derived(edge, cx, round=1) == biased_derived(edge, cx)


@pytest.mark.parametrize("rnd", [1.5, "1", True, -1])
@pytest.mark.parametrize("facets", [[["1"], ["2"]], [["1", "2"]]], ids=["points", "edge"])
def test_malformed_round_is_rejected(facets, rnd):
    # checked before anything is subdivided, so also where no barycenter is spelled
    cx = from_facets(facets)
    with pytest.raises(MalformedInputError, match="nonnegative int"):
        derived_subdivision(cx, round=rnd)
    with pytest.raises(MalformedInputError, match="nonnegative int"):
        biased_derived(from_facets([["1"]]), cx, round=rnd)


def test_labels_that_could_spell_a_barycenter_are_rejected():
    # the edge {a,b, c} and the triangle {a, b, c} would both get the barycenter b{a,b,c}@0
    cx = from_facets([["a,b", "c"], ["a", "b", "c"]])
    with pytest.raises(NamingError, match="a,b"):
        derived_subdivision(cx)
    with pytest.raises(NamingError):
        biased_derived(from_facets([["a", "b"]]), cx)
    for label in ("x{", "y}", "b{1,2}@x"):
        with pytest.raises(NamingError):
            derived_subdivision(from_facets([[label, "c"]]))


def test_reserved_labels_pass_where_no_barycenter_is_spelled():
    # only faces that get subdivided spell their labels into barycenters
    cx = from_facets([["a,b", "c"], ["c", "d"]])
    out, record = biased_derived(from_facets([["a,b", "c"]]), cx)
    assert out == from_facets([["a,b", "c"], ["c", "b{c,d}@0"], ["d", "b{c,d}@0"]])
    assert list(record.new_labels.values()) == ["b{c,d}@0"]
    out, _ = derived_subdivision(from_facets([["x{"], ["1", "2"]]))
    assert out == from_facets([["x{"], ["1", "b{1,2}@0"], ["2", "b{1,2}@0"]])


def test_subdivisions_intern_new_barycenters_without_parsing(monkeypatch):
    # labels no other test uses, so every barycenter built here is new to the intern table
    names = [f"unparsed-{x}" for x in range(4)]
    ambient = from_facets([names[:3], names[1:]])
    pair = pair_biased(pair_new(from_facets([names[:2]]), ambient))
    new_vertex = vlabel("unparsed-w")

    def refuse(token):
        raise AssertionError(f"parsed {token}")

    monkeypatch.setattr(labels, "_parse_barycenter", refuse)
    interned = len(labels._INTERN)
    once, _ = derived_subdivision(ambient)
    twice, _ = derived_subdivision(once)
    assert len(labels._INTERN) > interned
    interned = len(labels._INTERN)
    moved = pair_subdivide_edge(pair, names[:2], new_vertex)
    assert len(labels._INTERN) > interned
    assert new_vertex in moved.sub.vertex_set()
    assert all(v.kind == labels.BARYCENTER for v in twice.vertex_set() - ambient.vertex_set())


# -- biased ---------------------------------------------------------------------

def test_biased_edge_in_triangle_exact_facets():
    gamma = from_facets([[1, 2]])
    out, record = biased_derived(gamma, from_facets([[1, 2, 3]]))
    assert out == from_facets(
        [
            [1, 2, "b{1,2,3}@0"],
            [1, "b{1,3}@0", "b{1,2,3}@0"],
            [3, "b{1,3}@0", "b{1,2,3}@0"],
            [2, "b{2,3}@0", "b{1,2,3}@0"],
            [3, "b{2,3}@0", "b{1,2,3}@0"],
        ]
    )
    assert {s.tokens() for s in record.subdivided_faces} == {("1", "3"), ("2", "3"), ("1", "2", "3")}
    assert is_subcomplex(gamma, out)


def test_biased_edge_in_triangle_serialization_matches_fixture():
    gamma = from_facets([[1, 2]])
    out, _ = biased_derived(gamma, from_facets([[1, 2, 3]]))
    text = serialize_complex_document(ComplexDocument("biased-edge-in-triangle", out))
    assert text == (FIXTURES / "biased_edge_in_triangle.json").read_text()


def test_biased_identity_when_equal(tetra_boundary):
    out, record = biased_derived(tetra_boundary, tetra_boundary)
    assert out == tetra_boundary
    assert record.subdivided_faces == ()


def test_biased_with_empty_sub_is_derived(tetra_boundary):
    out, _ = biased_derived(SimplicialComplex([]), tetra_boundary)
    derived, _ = derived_subdivision(tetra_boundary)
    assert out == derived
    assert isomorphism(out, derived) is not None


@given(st.integers(1, 4), st.integers(0, 200))
@settings(max_examples=50, deadline=None)
def test_biased_equals_stellar_schedule(dim, seed):
    ambient = random_complex(6, dim, 0.7, seed)
    sub = induced_subcomplex(ambient, ["1", "2", "3"])
    direct, _ = biased_derived(sub, ambient)
    assert direct == oracles.schedule_biased(sub, ambient)


@given(st.integers(1, 4), st.integers(0, 300))
@settings(max_examples=40, deadline=None)
def test_biased_labels_exactly_the_faces_outside_sub(dim, seed):
    sub, ambient = random_subcomplex_pair(6, dim, 0.5, seed)
    _, record = biased_derived(sub, ambient)
    outside = {f for f in ambient.all_faces() if f.dim >= 1 and f not in sub}
    assert set(record.new_labels) == outside


@given(st.integers(0, 300))
@settings(max_examples=40, deadline=None)
def test_biased_keeps_sub_untouched(seed):
    sub, ambient = random_subcomplex_pair(6, 2, 0.5, seed)
    out, _ = biased_derived(sub, ambient)
    assert is_subcomplex(sub, out)


# -- budget -----------------------------------------------------------------------

def _refused(derive):
    """An entry point that derives a complex in-process: the stats of its
    `ResourceLimitError`."""

    def run(cx, tmp_path, capsys):
        with pytest.raises(ResourceLimitError) as exc:
            derive(cx)
        return exc.value.stats

    return run


def _refused_on_the_command_line(cx, tmp_path, capsys):
    """`stellarpair subdivide derived`: exit 3 and the stats of its JSON error."""
    path = tmp_path / "facet.json"
    path.write_text(serialize_complex_document(ComplexDocument("facet", cx)))
    assert main(["subdivide", "derived", "--complex", str(path), "--out", "-"]) == 3
    out = capsys.readouterr()
    assert out.out == "" and "Traceback" not in out.err
    err = json.loads(out.err)
    assert err.pop("error") == "resource-limit" and "could derive" in err.pop("message")
    return err


EMPTY = SimplicialComplex([])


@pytest.mark.parametrize(
    "entry",
    [
        _refused(derived_subdivision),
        _refused(lambda cx: biased_derived(EMPTY, cx)),
        _refused(lambda cx: pair_derive(pair_new(EMPTY, cx))),
        _refused(lambda cx: pipeline_run(cx, EMPTY, EMPTY, MoveScript(()))),
        _refused_on_the_command_line,
    ],
    ids=["derived_subdivision", "biased_derived", "pair_derive", "pipeline_run", "cli"],
)
def test_an_eleven_vertex_facet_is_refused_before_any_barycenter(entry, tmp_path, capsys, barycenters_made):
    # one facet of 11 vertices derives 11! = 39916800 cells, above the budget
    # of 100000: every entry point that derives it raises (exit 3 on the
    # command line) before a barycenter is made
    facet = from_facets([[str(v) for v in range(1, 12)]])
    assert entry(facet, tmp_path, capsys) == {"facets": 1, "bound": 39916800, "budget": 100000}
    assert barycenters_made == []


def test_the_budget_counts_only_the_facets_it_derives(barycenters_made):
    # protected facets and lone vertices pass through and count nothing: a
    # 9-vertex facet kept by the subcomplex, a lone vertex and a triangle
    # to derive bound the subdivision by 3! = 6 cells
    big = [str(v) for v in range(1, 10)]
    ambient = from_facets([big, ["a"], ["x", "y", "z"]])
    out, record = biased_derived(from_facets([big]), ambient)
    assert len(out.facets) == 2 + 6 and len(barycenters_made) == len(record.new_labels) == 4
    with pytest.raises(ResourceLimitError) as exc:
        derived_subdivision(ambient)
    assert exc.value.stats == {"facets": 3, "bound": 362880 + 6, "budget": 100000}


# -- conservation -----------------------------------------------------------------

@given(st.integers(0, 400))
@settings(max_examples=50, deadline=None)
def test_subdivisions_preserve_euler(seed):
    cx = random_complex(6, 3, 0.45, seed)
    chi = euler_characteristic(cx)
    d, _ = derived_subdivision(cx)
    assert euler_characteristic(d) == chi
    sub, ambient = random_subcomplex_pair(6, 3, 0.45, seed)
    b, _ = biased_derived(sub, ambient)
    assert euler_characteristic(b) == euler_characteristic(ambient)
    edges = sorted(cx.faces().get(1, ()))
    if edges:
        s = stellar_subdivide(cx, edges[seed % len(edges)], "w")
        assert euler_characteristic(s) == chi


def test_subdivisions_preserve_pseudomanifold(tetra_boundary, octahedron_boundary, four_cycle):
    for cx, d in ((tetra_boundary, 2), (octahedron_boundary, 2), (four_cycle, 1)):
        assert is_pseudomanifold(cx, d)
        derived, _ = derived_subdivision(cx)
        assert is_pseudomanifold(derived, d)
        edges = sorted(cx.faces()[1])
        assert is_pseudomanifold(edge_subdivide(cx, edges[0], "w"), d)
        if d == 2:
            tri = sorted(cx.faces()[2])[0]
            assert is_pseudomanifold(stellar_subdivide(cx, tri, "w"), d)
        sub = induced_subcomplex(cx, ["1", "2"])
        biased, _ = biased_derived(sub, cx)
        assert is_pseudomanifold(biased, d)


# -- derived compatibility (footnote) ------------------------------------------------

@given(st.integers(0, 400))
@settings(max_examples=50, deadline=None)
def test_derived_restriction_compatibility(seed):
    sub, ambient = random_subcomplex_pair(6, 2, 0.5, seed)
    rnd = next_round(ambient.vertex_set())
    dg, _ = derived_subdivision(sub, round=rnd)
    dd, _ = derived_subdivision(ambient, round=rnd)
    restricted = induced_subcomplex(dd, dg.vertex_set())
    assert restricted == dg
