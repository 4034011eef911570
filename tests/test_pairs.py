from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from stellarpair import (
    Move,
    MoveScript,
    VertexLabel,
    apply_move,
    derived_subdivision,
    edge_subdivide,
    euler_characteristic,
    f_vector,
    from_facets,
    is_pseudomanifold,
    is_strongly_induced,
    is_subcomplex,
    is_valid_edge,
    next_round,
    pair_biased,
    pair_contract_edge,
    pair_derive,
    pair_new,
    pair_subdivide_edge,
    pipeline_run,
    relabel_complex,
    replay_script,
    search_script,
    verify_script,
    vlabel,
)
from stellarpair.errors import (
    AbsentFaceError,
    InvalidEdgeError,
    MalformedInputError,
    NotASubcomplexError,
    PreconditionError,
    ScriptMismatchError,
    ScriptStepError,
)
from stellarpair.inducedness import INDUCED, NOT_INDUCED, STRONGLY_INDUCED
from stellarpair.io import random_induced_pair, random_strongly_induced_pair


def edge_in_triangle_pair():
    return pair_biased(pair_new(from_facets([[1, 2]]), from_facets([[1, 2, 3]])))


# -- construction ---------------------------------------------------------

def test_pair_new_edge_in_triangle_is_strongly_induced():
    pair = pair_new(from_facets([[1, 2]]), from_facets([[1, 2, 3]]))
    assert pair.status.verdict == STRONGLY_INDUCED


def test_pair_new_four_cycle_with_diagonal(four_cycle):
    ambient = from_facets([[1, 2], [2, 3], [3, 4], [1, 4], [2, 4]])
    pair = pair_new(four_cycle, ambient)
    assert pair.status.verdict == NOT_INDUCED
    assert pair.status.offending_simplex.tokens() == ("2", "4")


def test_pair_new_identical_pair(tetra_boundary):
    assert pair_new(tetra_boundary, tetra_boundary).status.verdict == STRONGLY_INDUCED


def test_pair_new_rejects_non_subcomplex(triangle):
    with pytest.raises(NotASubcomplexError):
        pair_new(from_facets([[4, 5]]), triangle)


# -- derive -----------------------------------------------------------------

def test_pair_derive_four_cycle_with_diagonal(four_cycle):
    ambient = from_facets([[1, 2], [2, 3], [3, 4], [1, 4], [2, 4]])
    pair = pair_derive(pair_new(four_cycle, ambient))
    assert pair.status.verdict in (INDUCED, STRONGLY_INDUCED)
    assert pair.status.at_least_induced


def test_pair_derive_identical(four_cycle):
    pair = pair_derive(pair_new(four_cycle, four_cycle))
    derived, _ = derived_subdivision(four_cycle)
    assert pair.sub == pair.ambient == derived


def test_pair_derive_edge_in_triangle_counts(triangle):
    from stellarpair import induced_subcomplex

    pair = pair_derive(pair_new(from_facets([[1, 2]]), triangle))
    assert f_vector(pair.ambient)[0] == 7
    assert f_vector(pair.sub)[0] == 3
    # the derived sub is exactly the derived ambient restricted to its chains
    assert induced_subcomplex(pair.ambient, pair.sub.vertex_set()) == pair.sub


# -- biased ---------------------------------------------------------------------

def test_pair_biased_edge_in_triangle():
    pair = edge_in_triangle_pair()
    assert pair.status.verdict == STRONGLY_INDUCED
    assert pair.sub == from_facets([[1, 2]])
    assert f_vector(pair.ambient) == (6, 10, 5)


def test_pair_biased_identity(tetra_boundary):
    pair = pair_biased(pair_new(tetra_boundary, tetra_boundary))
    assert pair.ambient == tetra_boundary


def test_pair_biased_requires_induced(four_cycle):
    ambient = from_facets([[1, 2], [2, 3], [3, 4], [1, 4], [2, 4]])
    with pytest.raises(PreconditionError) as exc:
        pair_biased(pair_new(four_cycle, ambient))
    assert exc.value.witness.verdict == NOT_INDUCED


@given(st.integers(0, 500))
@settings(max_examples=60, deadline=None)
def test_pair_biased_randomized_strong_inducedness(seed):
    pair = random_induced_pair(6, 2, 0.5, seed)
    out = pair_biased(pair)
    assert is_strongly_induced(out.sub, out.ambient).verdict == STRONGLY_INDUCED
    assert out.sub == pair.sub


# -- edge subdivision of pairs ------------------------------------------------------

def test_pair_subdivide_edge_edge_in_triangle():
    pair = pair_subdivide_edge(edge_in_triangle_pair(), [1, 2], "v")
    assert pair.status.verdict == STRONGLY_INDUCED
    assert pair.sub == from_facets([[1, "v"], [2, "v"]])


def test_pair_subdivide_edge_identical_pair(four_cycle):
    pair = pair_biased(pair_new(four_cycle, four_cycle))
    out = pair_subdivide_edge(pair, [1, 2], "v")
    expected = edge_subdivide(four_cycle, [1, 2], "v")
    assert out.sub == out.ambient == expected


def test_pair_subdivide_edge_requires_strong(four_cycle):
    # derived pair of the 4-cycle in a fan: induced, but not strongly induced
    ambient = from_facets([[1, 2, 4], [2, 3], [3, 4]])
    pair = pair_derive(pair_new(four_cycle, ambient))
    assert pair.status.verdict == INDUCED
    edge = sorted(pair.sub.faces()[1])[0]
    with pytest.raises(PreconditionError):
        pair_subdivide_edge(pair, edge, "v")


def test_pair_subdivide_edge_needs_edge_of_sub():
    with pytest.raises(AbsentFaceError):
        pair_subdivide_edge(edge_in_triangle_pair(), [1, 3], "v")
    with pytest.raises(MalformedInputError, match="a move edge needs exactly two distinct labels"):
        pair_subdivide_edge(edge_in_triangle_pair(), [1, 2, 3], "v")


@given(st.integers(0, 500))
@settings(max_examples=30, deadline=None)
def test_pair_subdivide_randomized_strong_inducedness(seed):
    pair = random_strongly_induced_pair(5, 2, 0.45, seed)
    edges = sorted(pair.sub.faces().get(1, ()))
    if not edges:
        return
    e = edges[seed % len(edges)]
    out = pair_subdivide_edge(pair, e, "w")
    assert out.status.verdict == STRONGLY_INDUCED
    assert out.sub == edge_subdivide(pair.sub, e, "w")
    assert is_strongly_induced(out.sub, out.ambient).verdict == STRONGLY_INDUCED


# -- edge contraction of pairs --------------------------------------------------------

def test_pair_contract_edge_edge_in_triangle():
    pair = pair_contract_edge(edge_in_triangle_pair(), [1, 2], 1)
    assert pair.status.verdict == STRONGLY_INDUCED
    assert pair.sub == from_facets([[1]])
    assert euler_characteristic(pair.ambient) == 1


def test_pair_contract_edge_identical_path():
    path = from_facets([[1, 2], [2, 3]])
    pair = pair_biased(pair_new(path, path))
    out = pair_contract_edge(pair, [1, 2], 1)
    assert out.sub == out.ambient == from_facets([[1, 3]])


def test_pair_contract_invalid_edge(hollow_triangle):
    pair = pair_new(hollow_triangle, hollow_triangle)  # strongly induced vacuously
    assert pair.status.verdict == STRONGLY_INDUCED
    with pytest.raises(InvalidEdgeError) as exc:
        pair_contract_edge(pair, [1, 2], 1)
    assert [b.tokens() for b in exc.value.blockers] == [("1", "2", "3")]
    with pytest.raises(MalformedInputError, match="contract survivor 3 is not an endpoint of the edge"):
        pair_contract_edge(pair, [1, 2], 3)


@given(st.integers(0, 500))
@settings(max_examples=30, deadline=None)
def test_apply_move_sub_matches_bare_replay(seed):
    # the pair move does to the subcomplex exactly what the bare replay does
    pair = random_strongly_induced_pair(5, 2, 0.45, seed)
    edges = sorted(pair.sub.faces().get(1, ()))
    if not edges:
        return
    moves = [Move.subdivide(edges[seed % len(edges)].vertices, "w")]
    valid = [e for e in edges if is_valid_edge(pair.sub, e)]
    if valid:
        e = valid[seed % len(valid)]
        moves.append(Move.contract(e.vertices, e.vertices[seed % 2]))
    for move in moves:
        out = apply_move(pair, move)
        assert out.sub == replay_script(pair.sub, MoveScript((move,)))
        if move.op == "contract":
            assert out.ambient == replay_script(pair.ambient, MoveScript((move,)))


@given(st.integers(0, 500))
@settings(max_examples=30, deadline=None)
def test_pair_contract_randomized_strong_inducedness(seed):
    from stellarpair import is_valid_edge

    pair = random_strongly_induced_pair(5, 2, 0.45, seed)
    edges = [e for e in sorted(pair.sub.faces().get(1, ())) if is_valid_edge(pair.sub, e)]
    if not edges:
        return
    e = edges[seed % len(edges)]
    out = pair_contract_edge(pair, e, min(e.vertices))
    assert out.status.verdict == STRONGLY_INDUCED
    out.ambient.validate()
    assert euler_characteristic(out.ambient) == euler_characteristic(pair.ambient)


# -- moves and scripts ------------------------------------------------------------------

def test_move_validation():
    with pytest.raises(MalformedInputError):
        Move("subdivide", (vlabel("1"), vlabel("1")), new_label=vlabel("v"))
    with pytest.raises(MalformedInputError):
        Move("frobnicate", (vlabel("1"), vlabel("2")))
    with pytest.raises(MalformedInputError):
        Move.subdivide(("1", "2"), None)
    with pytest.raises(MalformedInputError):
        Move.contract(("1", "2"), "9")
    assert Move.contract(("2", "1")).survivor == vlabel("1")
    with pytest.raises(MalformedInputError):
        Move.subdivide("12", "v")  # one label, not the edge 1-2
    # the raw constructor gives the same normal form as the helpers
    raw = Move("contract", (vlabel("1"), vlabel("2")))
    assert raw.survivor is vlabel("1")
    assert raw.describe() == "contract 1,2 -> 1"
    raw = Move("subdivide", ("1", "2"), new_label="v")
    assert raw.edge == (vlabel("1"), vlabel("2"))
    assert all(isinstance(v, VertexLabel) for v in raw.edge + (raw.new_label,))
    assert raw == Move.subdivide(("1", "2"), "v")


def test_script_fresh_labels():
    with pytest.raises(MalformedInputError):
        MoveScript((Move.subdivide(("1", "2"), "v"), Move.subdivide(("1", "v"), "v")))


# -- pipeline -----------------------------------------------------------------------------

def tetra_path_setup():
    ambient = from_facets([[1, 2, 3], [1, 2, 4], [1, 3, 4], [2, 3, 4]])
    sub = from_facets([[1, 2], [2, 3]])
    target = from_facets([["a", "c"]])
    b12, b23 = "b{1,2}@0", "b{2,3}@0"
    script = MoveScript(
        (
            Move.contract(("1", b12), "1"),
            Move.contract(("1", "2"), "1"),
            Move.contract(("1", b23), "1"),
        ),
        target_map={vlabel("1"): vlabel("a"), vlabel("3"): vlabel("c")},
    )
    return ambient, sub, target, script


def test_pipeline_tetra_path_end_to_end():
    ambient, sub, target, script = tetra_path_setup()
    final, report = pipeline_run(ambient, sub, target, script)
    assert len(report.steps) == 4
    assert all(s.strongly_induced for s in report.steps)
    assert all(s.euler_ambient == 2 for s in report.steps)
    assert report.steps[0].stage == "init"
    inverse = {v: k for k, v in report.final_isomorphism.items()}
    assert is_subcomplex(relabel_complex(target, inverse), final)
    assert is_pseudomanifold(final, 2)


def test_pipeline_without_target_map_finds_isomorphism():
    ambient, sub, target, script = tetra_path_setup()
    script = MoveScript(script.moves, target_map=None)
    final, report = pipeline_run(ambient, sub, target, script)
    assert report.final_isomorphism is not None
    assert relabel_complex(from_facets([[1, 3]]), report.final_isomorphism) == target


def test_pipeline_script_mismatch():
    ambient, sub, target, script = tetra_path_setup()
    bad = MoveScript(script.moves[:2], target_map=None)
    with pytest.raises(ScriptMismatchError):
        pipeline_run(ambient, sub, target, bad)


def test_pipeline_target_map_must_cover_final_subcomplex():
    ambient, sub, target, script = tetra_path_setup()
    partial = MoveScript(script.moves, target_map={"1": "a"})
    with pytest.raises(ScriptMismatchError, match="target_map does not cover final subcomplex vertices"):
        pipeline_run(ambient, sub, target, partial)
    derived_sub, _ = derived_subdivision(sub, round=next_round(ambient.vertex_set()))
    assert verify_script(derived_sub, script, target)
    assert not verify_script(derived_sub, partial, target)


def test_pipeline_under_debug_validation(debug_validation):
    ambient, sub, target, script = tetra_path_setup()
    final, report = pipeline_run(ambient, sub, target, script)
    assert all(s.strongly_induced for s in report.steps)
    assert is_pseudomanifold(final, 2)


def test_pipeline_step_error_carries_index():
    ambient, sub, target, _ = tetra_path_setup()
    bad = MoveScript((Move.contract(("1", "3"), "1"),))  # 13 is not an edge of D(path)
    with pytest.raises(ScriptStepError) as exc:
        pipeline_run(ambient, sub, target, bad)
    assert exc.value.step == 0


def test_pipeline_rejects_non_subcomplex():
    ambient, _, target, script = tetra_path_setup()
    with pytest.raises(NotASubcomplexError):
        pipeline_run(ambient, from_facets([[1, 9]]), target, script)


def test_pipeline_single_vertex_target(tetra_boundary):
    # degenerate case: reduce a derived star to one vertex by contractions
    sub = from_facets([[1]])
    target = from_facets([["z"]])
    script = MoveScript((), target_map={vlabel("1"): vlabel("z")})
    final, report = pipeline_run(tetra_boundary, sub, target, script)
    assert all(s.strongly_induced for s in report.steps)
    assert vlabel("1") in final.vertex_set()


def test_pipeline_preserves_pseudomanifold_at_every_step():
    ambient, sub, _, script = tetra_path_setup()
    pair = pair_biased(pair_derive(pair_new(sub, ambient)))
    assert is_pseudomanifold(pair.ambient, 2)
    from stellarpair import apply_move

    for move in script.moves:
        pair = apply_move(pair, move)
        assert is_pseudomanifold(pair.ambient, 2)
        pair.ambient.validate()


def test_pipeline_search_assisted_round_trip():
    # the target is already a subcomplex; un-derive it with searched contractions
    ambient = from_facets([[1, 2, 3], [1, 2, 4], [1, 3, 4], [2, 3, 4]])
    target = from_facets([[1, 2]])
    derived_target, _ = derived_subdivision(target, round=next_round(ambient.vertex_set()))
    script = search_script(derived_target, target, max_depth=3, max_vertices=8)
    assert script is not None
    final, report = pipeline_run(ambient, target, target, script)
    assert all(s.strongly_induced for s in report.steps)
    inverse = {v: k for k, v in report.final_isomorphism.items()}
    assert is_subcomplex(relabel_complex(target, inverse), final)


@given(st.integers(0, 300))
@settings(max_examples=20, deadline=None)
def test_sub_evolution_is_ambient_independent(seed):
    # replaying the same sub inside two different ambients gives the same sub
    from stellarpair import apply_move

    pair_small = edge_in_triangle_pair()
    square = from_facets([[1, 2, 3], [1, 2, 4]])
    pair_big = pair_biased(pair_new(from_facets([[1, 2]]), square))
    moves = [Move.subdivide(("1", "2"), "m"), Move.contract(("2", "m"), "2")]
    a, b = pair_small, pair_big
    for mv in moves:
        a = apply_move(a, mv)
        b = apply_move(b, mv)
        assert a.sub == b.sub
