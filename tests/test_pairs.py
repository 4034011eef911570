from __future__ import annotations

import random
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

import oracles
import stellarpair.contraction as contraction_module
import stellarpair.pairs as pairs_module
import stellarpair.subdivision as subdivision_module
from stellarpair import (
    Move,
    MoveScript,
    SimplicialComplex,
    VertexLabel,
    apply_move,
    biased_derived,
    derived_subdivision,
    edge_subdivide,
    euler_characteristic,
    f_vector,
    from_facets,
    induced_subcomplex,
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
    set_debug_validation,
    star,
    verify_script,
    vlabel,
)
from stellarpair.complexes import Simplex, _f_vector_change, _face_set, _Incidence, _reduce_to_antichain
from stellarpair.contraction import link_condition
from stellarpair.errors import (
    AbsentFaceError,
    InvalidEdgeError,
    InvariantViolationError,
    MalformedInputError,
    NotASubcomplexError,
    PreconditionError,
    ResourceLimitError,
    ScriptMismatchError,
    ScriptStepError,
)
from stellarpair.inducedness import (
    INDUCED,
    NOT_INDUCED,
    STRONGLY_INDUCED,
    InducednessWitness,
    _StrongScan,
    classify_pair,
)
from stellarpair.io import random_complex, random_induced_pair, random_strongly_induced_pair, serialize_report


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


@given(st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_local_rebias_is_the_biased_schedule_protecting_away_from_w(seed):
    # the ambient after a pair subdivision is the stellar schedule of every face
    # outside the new subcomplex that meets near' = (V(star(w)) - V(sub)) | {w};
    # random ambients are non-pure
    n, dim, density = 4 + seed % 4, 1 + (seed // 4) % 3, (0.3, 0.45, 0.6)[(seed // 12) % 3]
    pair = random_strongly_induced_pair(n, dim, density, seed)
    edges = sorted(pair.sub.faces().get(1, ()))
    if not edges:
        return
    e = edges[seed % len(edges)]
    out = pair_subdivide_edge(pair, e, "w")
    subdivided = edge_subdivide(pair.ambient, e, "w")
    near = (star(subdivided, ["w"]).vertex_set() - out.sub.vertex_set()) | {vlabel("w")}
    away = induced_subcomplex(subdivided, subdivided.vertex_set() - near)
    protected = SimplicialComplex(list(out.sub.facets) + list(away.facets))
    assert out.ambient == oracles.schedule_biased(protected, subdivided)
    assert out.status.verdict == STRONGLY_INDUCED
    assert euler_characteristic(out.ambient) == euler_characteristic(pair.ambient)
    if len(out.ambient.facets) <= 40:
        assert oracles.naive_is_strongly_induced(out.sub, out.ambient)


def test_failed_local_rebias_falls_back_to_global(monkeypatch):
    # without a re-bias the subdivided edge-in-triangle pair is not strongly
    # induced, so the move has to take the global biased derived subdivision
    calls = []

    def no_rebias(sub, near, facets, rnd, total):
        calls.append(near)
        return [], [], {}

    monkeypatch.setattr(pairs_module, "_rebias_near", no_rebias)
    pair = edge_in_triangle_pair()
    new_sub = edge_subdivide(pair.sub, [1, 2], "v")
    new_ambient = edge_subdivide(pair.ambient, [1, 2], "v")
    assert classify_pair(new_sub, new_ambient).verdict != STRONGLY_INDUCED
    expected = pair_new(new_sub, biased_derived(new_sub, new_ambient)[0])
    assert expected.status.verdict == STRONGLY_INDUCED
    assert apply_move(pair, Move.subdivide([1, 2], "v")) == expected
    # called once, with near = (V(star(v)) - V(sub)) ∪ {v}
    assert calls == [(star(new_ambient, ["v"]).vertex_set() - new_sub.vertex_set()) | {vlabel("v")}]


def test_global_fallback_is_budgeted(monkeypatch, barycenters_made):
    # the subdivided edge-in-triangle ambient has 6 triangles, none in the
    # subcomplex, so the fallback could derive up to 6 * 3! = 36 facets; over
    # the budget it raises before making any barycenter
    monkeypatch.setattr(pairs_module, "_rebias_near", lambda sub, near, facets, rnd, total: ([], [], {}))
    monkeypatch.setattr(subdivision_module, "_FACET_BUDGET", 35)
    pair = edge_in_triangle_pair()
    barycenters_made.clear()
    with pytest.raises(ResourceLimitError) as exc:
        apply_move(pair, Move.subdivide([1, 2], "v"))
    assert exc.value.stats == {"facets": 6, "bound": 36, "budget": 35}
    assert barycenters_made == []
    monkeypatch.setattr(subdivision_module, "_FACET_BUDGET", 36)
    assert apply_move(pair, Move.subdivide([1, 2], "v")).status.verdict == STRONGLY_INDUCED


def test_multi_move_local_rebias_never_falls_back(monkeypatch):
    # 4-6 random subdivisions of sub edges per random strongly induced pair
    # (dims 1-3, non-pure ambients); by the proof sketch in `_rebias_near`
    # the local re-bias is always strongly induced, so the fallback never runs
    pairs = []
    for i in range(45):
        n, dim, density = 4 + i % 5, 1 + (i // 5) % 3, (0.3, 0.45, 0.6)[(i // 15) % 3]
        pairs.append(random_strongly_induced_pair(n, dim, density, 9000 + i))
    fallbacks = []

    def counting_biased_derived(sub, ambient, **kwargs):
        fallbacks.append(len(ambient.facets))
        return biased_derived(sub, ambient, **kwargs)

    monkeypatch.setattr(pairs_module, "biased_derived", counting_biased_derived)
    moves = 0
    for i, pair in enumerate(pairs):
        rng = random.Random(i)
        chi = euler_characteristic(pair.ambient)
        bare = pair.sub
        for j in range(4 + i % 3):
            edges = sorted(pair.sub.faces().get(1, ()))
            # the cap keeps the run small: 10 moves can still reach ~10^5 facets
            if not edges or len(pair.ambient.facets) > 1500:
                break
            e = rng.choice(edges)
            pair = pair_subdivide_edge(pair, e, f"m{j}")
            bare = edge_subdivide(bare, e, f"m{j}")
            moves += 1
            assert pair.sub == bare
            assert euler_characteristic(pair.ambient) == chi
            if len(pair.ambient.facets) <= 40:
                assert oracles.naive_is_strongly_induced(pair.sub, pair.ambient)
            else:
                assert is_strongly_induced(pair.sub, pair.ambient).verdict == STRONGLY_INDUCED
    assert moves >= 100
    assert fallbacks == []


def tetrahedron_chain(moves):
    """The derived, biased tetrahedron/path pair, then each pair after one more
    subdivision of the edge {1, latest new vertex}."""
    tetra = from_facets([[1, 2, 3], [1, 2, 4], [1, 3, 4], [2, 3, 4]])
    pair = pair_biased(pair_derive(pair_new(from_facets([[1, 2], [2, 3]]), tetra)))
    yield pair
    prev = "b{1,2}@0"
    for j in range(moves):
        pair = pair_subdivide_edge(pair, ["1", prev], f"w{j}")
        prev = f"w{j}"
        yield pair


def test_tetrahedron_subdivision_chain_grows_slowly():
    sizes = []
    for pair in tetrahedron_chain(6):
        sizes.append(len(pair.ambient.facets))
        # checked per move, so a re-bias at the edge's endpoints (x2 per move) fails early
        assert len(sizes) == 1 or sizes[-1] <= sizes[-2] + 60, sizes
    assert sizes == [136, 186, 236, 286, 336, 386, 436]
    assert is_pseudomanifold(pair.ambient, 2)
    assert euler_characteristic(pair.ambient) == 2


def test_tetrahedron_subdivision_chain_grows_linearly():
    # 30 moves: each adds the same 50 facets; a re-bias at the edge's
    # endpoints doubles the ambient per move and cannot finish this
    sizes = []
    for pair in tetrahedron_chain(30):
        sizes.append(len(pair.ambient.facets))
        # checked per move, so a return to x2 growth fails at once
        assert sizes[-1] == 136 + 50 * (len(sizes) - 1), sizes
        assert pair.status.verdict == STRONGLY_INDUCED
    assert sizes[-1] == 1636
    assert is_pseudomanifold(pair.ambient, 2)
    assert euler_characteristic(pair.ambient) == 2


def test_change_set_scan_is_local_on_the_tetrahedron_chain(monkeypatch):
    # the check after each move scans the faces of the facets the move changed:
    # as many at move 10 as at move 30, while the ambient and the facets at the
    # subcomplex grow with every move
    scanned, at_sub = [], []
    real = pairs_module._classify_change

    def counting(sub, ambient, changed, inc):
        scanned.append(len(_StrongScan(sub, ambient, changed, inc).scope))
        at_sub.append(len(_StrongScan(sub, ambient).facets))
        return real(sub, ambient, changed, inc)

    monkeypatch.setattr(pairs_module, "_classify_change", counting)
    sizes = [len(pair.ambient.facets) for pair in tetrahedron_chain(30)]
    assert len(scanned) == 30
    assert scanned[9] == scanned[29] == 70
    assert (sizes[10], sizes[30]) == (636, 1636)
    assert at_sub[9] < at_sub[29]


def test_subdivision_chain_moves_read_a_constant_star(monkeypatch):
    # the pair's incidence answers each move's local questions, so the facets a
    # move reads stay the same while the ambient grows by 50 facets a move:
    # those handed to `_relative_derived`, those the change-set scan keeps, and
    # those the f-vector update reads (the facets at the edge and the re-bias's
    # cells), at move 10 as at move 60
    pair = next(tetrahedron_chain(0))
    f = f_vector(pair.ambient)
    derived, kept, read = [], [], []
    real_derive, real_classify = subdivision_module._relative_derived, pairs_module._classify_change

    def derive(facets, protected, rnd, total):
        derived.append(len(facets))
        return real_derive(facets, protected, rnd, total)

    def classify(sub, ambient, changed, inc):
        kept.append(len(_StrongScan(sub, ambient, changed, inc).facets))
        return real_classify(sub, ambient, changed, inc)

    monkeypatch.setattr(subdivision_module, "_relative_derived", derive)
    monkeypatch.setattr(pairs_module, "_classify_change", classify)
    prev, sizes = "b{1,2}@0", []
    for j in range(60):
        pair, (e, hits, sign, barycenters, cells) = pairs_module._move(pair, Move.subdivide(["1", prev], f"w{j}"))
        f = _f_vector_change(f, e, hits, sign, barycenters, cells)
        read.append(len(hits) + len(cells))
        prev = f"w{j}"
        sizes.append(len(pair.ambient.facets))
    assert (sizes[9], sizes[59]) == (636, 3136)
    assert f == f_vector(pair.ambient)
    assert len(derived) == len(kept) == len(read) == 60
    assert derived[9] == derived[59]
    assert kept[9] == kept[59]
    assert read[9] == read[59]


def test_fallback_tests_still_reach_the_fallback(monkeypatch, barycenters_made):
    # the change-set check sees the violation the identity re-bias leaves, so
    # the two fallback tests above still run the global biased derived
    # subdivision (the budget test twice: refused, then within the budget)
    fallbacks = []
    real = pairs_module.biased_derived

    def counting(sub, ambient, **kwargs):
        # `pair_biased` derives too, but only the fallback's subcomplex holds v
        if vlabel("v") in sub.vertex_set():
            fallbacks.append(len(ambient.facets))
        return real(sub, ambient, **kwargs)

    monkeypatch.setattr(pairs_module, "biased_derived", counting)
    test_failed_local_rebias_falls_back_to_global(monkeypatch)
    assert fallbacks == [6]
    test_global_fallback_is_budgeted(monkeypatch, barycenters_made)
    assert fallbacks == [6, 6, 6]


def test_local_rebias_is_budgeted_before_it_derives(monkeypatch, barycenters_made):
    # the local re-bias could derive sum(|F|!) facets over the ambient facets F
    # outside the subcomplex that meet near' = (V(star(w)) - V(sub)) | {w}; over
    # the budget it raises before making any barycenter, and the global
    # fallback has its own, larger bound
    pair = next(tetrahedron_chain(0))
    move = Move.subdivide(["1", "b{1,2}@0"], "w")
    sub, ambient = edge_subdivide(pair.sub, move.edge, "w"), edge_subdivide(pair.ambient, move.edge, "w")
    near = (star(ambient, ["w"]).vertex_set() - sub.vertex_set()) | {vlabel("w")}
    outside = [f for f in ambient.facets if f not in sub.facets]
    local = sum(factorial(len(f)) for f in outside if not near.isdisjoint(f))
    whole = sum(factorial(len(f)) for f in outside)
    assert local < whole
    barycenters_made.clear()
    monkeypatch.setattr(subdivision_module, "_FACET_BUDGET", local - 1)
    with pytest.raises(ResourceLimitError, match="the subdivision could derive") as exc:
        apply_move(pair, move)
    assert exc.value.stats == {"facets": len(ambient.facets), "bound": local, "budget": local - 1}
    assert barycenters_made == []
    monkeypatch.setattr(subdivision_module, "_FACET_BUDGET", local)
    assert apply_move(pair, move).status.verdict == STRONGLY_INDUCED
    assert barycenters_made
    barycenters_made.clear()
    monkeypatch.setattr(pairs_module, "_rebias_near", lambda sub, near, facets, rnd, total: ([], [], {}))
    with pytest.raises(ResourceLimitError, match="the subdivision could derive") as exc:
        apply_move(pair, move)
    assert exc.value.stats == {"facets": len(ambient.facets), "bound": whole, "budget": local}
    assert barycenters_made == []


def test_debug_validation_cross_checks_the_change_set(monkeypatch, debug_validation):
    # under STELLARPAIR_DEBUG_VALIDATE=1 the move re-runs the full scan and the
    # pipeline the full f-vector; a disagreement is an invariant violation
    monkeypatch.setattr(pairs_module, "_classify_change", lambda sub, ambient, changed, inc: InducednessWitness(INDUCED))
    with pytest.raises(InvariantViolationError, match="the change-set scan says induced"):
        apply_move(edge_in_triangle_pair(), Move.subdivide([1, 2], "v"))
    monkeypatch.undo()
    monkeypatch.setattr(pairs_module, "_f_vector_change", lambda f, *change: f)
    with pytest.raises(InvariantViolationError, match="the updated f-vector"):
        pipeline_run(*tetra_path_setup())
    set_debug_validation(False)
    _, report = pipeline_run(*tetra_path_setup())
    assert len({s.f_ambient for s in report.steps}) == 1


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
    with pytest.raises(MalformedInputError, match="subdivide move takes no survivor"):
        Move("subdivide", ("1", "2"), new_label="v", survivor="x")
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
    with pytest.raises(NotASubcomplexError, match=r"^facet \{1,9\} of the subcomplex is not a face of the ambient complex$"):
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


def grow_setup(facets, k):
    """The path 1-2-3 in `facets`, derived and biased; k pair edge subdivisions
    along the edge at 1, contracted back; then the README contractions."""
    ambient = from_facets(facets)
    sub = from_facets([[1, 2], [2, 3]])
    target = from_facets([["a", "c"]])
    b12, b23 = "b{1,2}@0", "b{2,3}@0"
    fresh = [f"w{j}" for j in range(k)]
    moves = [Move.subdivide(("1", b12 if j == 0 else fresh[j - 1]), w) for j, w in enumerate(fresh)]
    moves += [Move.contract(("1", w), "1") for w in reversed(fresh)]
    moves += [Move.contract(("1", b12), "1"), Move.contract(("1", "2"), "1"), Move.contract(("1", b23), "1")]
    return ambient, sub, target, MoveScript(tuple(moves), target_map={"1": "a", "3": "c"})


TETRA = [[1, 2, 3], [1, 2, 4], [1, 3, 4], [2, 3, 4]]
OCTA = [[1, 2, 3], [1, 2, 4], [1, 5, 3], [1, 5, 4], [6, 2, 3], [6, 2, 4], [6, 5, 3], [6, 5, 4]]


@pytest.mark.parametrize("facets, k", [(TETRA, 0), ([[1, 2, 3]], 2), (TETRA, 1), (OCTA, 1)])
def test_change_set_report_is_byte_identical_to_a_full_recomputation(monkeypatch, facets, k):
    # the README script (k = 0) and the growth scripts: the report from the
    # change-set scan and the carried f-vector, and the one from full scans and
    # full face counts at every step (each move returns the recount marker)
    final, report = pipeline_run(*grow_setup(facets, k))
    real_move = pairs_module._move
    monkeypatch.setattr(pairs_module, "_classify_change", lambda sub, ambient, changed, inc: classify_pair(sub, ambient))
    monkeypatch.setattr(pairs_module, "_move", lambda pair, move: (real_move(pair, move)[0], None))
    full_final, full_report = pipeline_run(*grow_setup(facets, k))
    assert serialize_report(report) == serialize_report(full_report)
    assert final == full_final
    assert len(report.steps) == 4 + 2 * k


@given(st.integers(1, 4), st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_change_set_f_vector_matches_a_full_count(dim, seed):
    # random pair moves (re-biased subdivisions and contractions of sub edges)
    # from random strongly induced pairs, dims 1-4, non-pure ambients
    pair = random_strongly_induced_pair(4 + seed % 3, dim, 0.5, seed)
    rng = random.Random(seed)
    f = f_vector(pair.ambient)
    for j in range(4):
        edges = sorted(pair.sub.faces().get(1, ()))
        # the cap keeps the run small: a move on a biased 4-simplex makes ~10^4 facets
        if not edges or len(pair.ambient.facets) > 400:
            break
        e = rng.choice(edges)
        move = Move.subdivide(e, f"m{j}") if rng.random() < 0.5 else Move.contract(e, e[j % 2])
        try:
            pair, change = pairs_module._move(pair, move)
        except InvalidEdgeError:
            continue
        f = _f_vector_change(f, *change)
        assert f == f_vector(pair.ambient)


class StatefulPairMoves(RuleBasedStateMachine):
    """Random mixes of pair edge subdivisions (fresh labels) and valid pair
    edge contractions, all through `pairs._move`, from a random strongly
    induced pair on the acceptance suite's schedule (dims 1-3, non-pure
    ambients).  Every state is checked against full recomputations."""

    def __init__(self):
        super().__init__()
        self.real_biased_derived = None

    @initialize(i=st.integers(0, 10_000))
    def start(self, i):
        n, dim, density = 4 + i % 5, 1 + (i // 5) % 3, (0.25, 0.4, 0.55)[(i // 15) % 3]
        self.pair = random_strongly_induced_pair(n, dim, density, i)
        self.source, self.moves = self.pair.sub, []
        self.chi = euler_characteristic(self.pair.ambient)
        self.f = f_vector(self.pair.ambient)
        # counted from here on, so the start pair's own bias is no fallback
        self.fallbacks = []
        self.real_biased_derived = real = pairs_module.biased_derived

        def counting(sub, ambient, **kwargs):
            self.fallbacks.append(len(ambient.facets))
            return real(sub, ambient, **kwargs)

        pairs_module.biased_derived = counting

    def teardown(self):
        if self.real_biased_derived is not None:
            pairs_module.biased_derived = self.real_biased_derived

    def _edges(self):
        # the cap keeps the run small: a few moves can grow the ambient ~10x
        if len(self.pair.ambient.facets) > 1500:
            return []
        return sorted(self.pair.sub.faces().get(1, ()))

    def _move(self, move):
        self.pair, change = pairs_module._move(self.pair, move)
        self.moves.append(move)
        # None after the global fallback, which `agrees_with_full_recomputation` rules out
        self.f = f_vector(self.pair.ambient) if change is None else _f_vector_change(self.f, *change)

    @rule(k=st.integers(0, 10**6))
    def subdivide(self, k):
        edges = self._edges()
        if edges:
            self._move(Move.subdivide(edges[k % len(edges)], f"m{len(self.moves)}"))

    @rule(k=st.integers(0, 10**6), keep=st.integers(0, 1))
    def contract(self, k, keep):
        edges = [e for e in self._edges() if is_valid_edge(self.pair.sub, e)]
        if edges:
            e = edges[k % len(edges)]
            self._move(Move.contract(e, e[keep]))

    @invariant()
    def agrees_with_full_recomputation(self):
        pair = self.pair
        assert pair.status == classify_pair(pair.sub, pair.ambient)
        # the first move reads by filter and carries no incidence; from the
        # second on, the carried incidence, vertex set and round are a rebuild's
        assert (pair._incidence is None) == (len(self.moves) < 2)
        if len(self.moves) >= 2:
            assert pair._incidence == _Incidence.of(pair.ambient)
            assert pair._incidence.at.keys() == pair.ambient.vertex_set()
            assert pair._incidence.round == next_round(pair.ambient.vertex_set())
        assert pair.status.verdict == STRONGLY_INDUCED
        assert pair.sub == replay_script(self.source, MoveScript(tuple(self.moves)))
        assert euler_characteristic(pair.ambient) == self.chi
        assert self.f == f_vector(pair.ambient)
        if len(pair.ambient.facets) <= 40:
            assert oracles.naive_is_strongly_induced(pair.sub, pair.ambient)
        # by the proof sketch in `_rebias_near` the global fallback never runs
        assert self.fallbacks == []


TestStatefulPairMoves = StatefulPairMoves.TestCase
TestStatefulPairMoves.settings = settings(max_examples=25, stateful_step_count=8, deadline=None)


def test_change_set_f_vector_drops_trailing_zeros_when_the_dimension_falls(triangle):
    # contracting an edge of the solid triangle leaves an edge: (3, 3, 1) -> (2, 1)
    out, change = pairs_module._move(pair_new(triangle, triangle), Move.contract([1, 2], 1))
    assert out.ambient == from_facets([[1, 3]])
    assert _f_vector_change(f_vector(triangle), *change) == (2, 1) == f_vector(out.ambient)
    assert _f_vector_change(f_vector(triangle), Simplex.of([1, 2]), triangle.facets, -1) == (2, 1)
    assert _contraction_identities(triangle) == 6


def _contraction_identities(cx: SimplicialComplex) -> int:
    """Check the three identities a contraction reads off star(e), on every
    edge of `cx` and both survivors; returns the valid (edge, survivor) cases.
    The blocker search restricted to the common neighbours agrees with the
    `link_condition` oracle; on a valid edge, `_images` equals the reduction
    of every substituted facet at the edge, and the f-vector change from the
    edge's link equals a full count of the result."""
    f, valid = f_vector(cx), 0
    for e in sorted(cx.faces().get(1, ())):
        e, at_edge = contraction_module._split(cx, e)
        blocked = next(contraction_module._missing_through(e, at_edge), None) is not None
        assert blocked != link_condition(cx, e)
        if blocked:
            continue
        for keep in e:
            lose = e[1] if keep == e[0] else e[0]
            images = contraction_module._images(e, at_edge, keep)
            substituted = (Simplex(sorted(set(g) - {lose} | {keep})) if lose in g else g for g in at_edge)
            assert len(set(images)) == len(images) and frozenset(images) == _reduce_to_antichain(substituted)
            out = cx._replace(at_edge, images)
            assert _f_vector_change(f, e, at_edge, -1) == f_vector(out)
            valid += 1
    return valid


def _subdivision_identities(cx: SimplicialComplex, pick: int) -> None:
    """Check the f-vector change of an edge subdivision, from the edge's link
    alone, against a full count, on every edge of `cx`; and on the edge at
    `pick`, the change of each `_relative_derived` edit of the subdivided
    complex (a derived subdivision, the biased one that protects the two half
    edges, and the pair move's re-bias around the new vertex w), from the new
    labels and the cells alone."""
    f, w = f_vector(cx), vlabel("w")
    edges = sorted(cx.faces().get(1, ()))
    for i, e in enumerate(edges):
        hits = cx.facets_containing(e)
        out = edge_subdivide(cx, e, w)
        assert _f_vector_change(f, e, hits, 1) == f_vector(out)
        if i != pick % len(edges):
            continue
        halves = from_facets([[e[0], w], [w, e[1]]])
        near = (star(out, [w]).vertex_set() - halves.vertex_set()) | {w}
        rnd, total = next_round(out.vertex_set()), len(out.facets)
        sub_faces = _face_set(halves.facets)
        for derived, cells, barycenters in (
            subdivision_module._relative_derived(out.facets, lambda t: False, rnd, total),
            subdivision_module._relative_derived(out.facets, sub_faces.__contains__, rnd, total),
            subdivision_module._rebias_near(halves, near, out.facets, rnd, total),
        ):
            assert _f_vector_change(f, e, hits, 1, barycenters, cells) == f_vector(out._replace(derived, cells))


@given(st.integers(1, 4), st.integers(0, 10_000), st.booleans())
@settings(max_examples=60, deadline=None)
def test_change_set_contraction_identities_match_their_references(dim, seed, derive):
    # random complexes, dims 1-4, non-pure, derived or not (a derived 4-simplex
    # has 120 cells, so only dims 1-3 are derived); the subdivision identities
    # derive once more, so only on complexes not derived already
    cx = random_complex(4 + seed % 4, dim, 0.5, seed)
    if derive and dim <= 3:
        cx = derived_subdivision(cx)[0]
    _contraction_identities(cx)
    if not derive:
        _subdivision_identities(cx, seed)


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
