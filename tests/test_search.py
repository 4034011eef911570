from __future__ import annotations

import random
from collections import deque
from itertools import chain

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from stellarpair import (
    Move,
    MoveScript,
    contract_edge,
    edge_subdivide,
    from_facets,
    is_valid_edge,
    isomorphism,
    replay_script,
    search_script,
    verify_script,
)
from stellarpair import canonical, contraction, search
from stellarpair.canonical import DEFAULT_VERTEX_GUARD, canonical_form
from stellarpair.complexes import Simplex
from stellarpair.errors import NamingError, ResourceLimitError, ScriptStepError
from stellarpair.io import random_complex
from stellarpair.search import _degrees, _edge_stars, _fresh_label_base, _sibling_orbits, _subdivided_degrees


def _edges(cx):
    """The edges of the complex in canonical order, from all its faces."""
    return sorted(cx.faces().get(1, ()), key=Simplex.sort_key)


def reference_search(source, target, max_depth, max_vertices, max_states=100_000):
    """The search with every successor labeled and deduplicated: the loop
    `search_script` had before its vertex-count bound and goal-only last
    depth, kept as the reference those must not change."""
    guard = max(DEFAULT_VERTEX_GUARD, max_vertices)
    goal = canonical_form(target, guard=guard)
    start_form = canonical_form(source, guard=guard)
    if start_form == goal:
        return MoveScript((), target_map=isomorphism(source, target, guard=guard))
    base = _fresh_label_base(source)
    queue = deque([(source, ())])
    visited = {start_form}
    expanded = 0
    while queue:
        state, moves = queue.popleft()
        if len(moves) >= max_depth:
            continue
        expanded += 1
        if expanded > max_states:
            raise ResourceLimitError("search state budget exceeded", states=expanded)
        successors = []
        edges = _edges(state)
        if state.num_vertices() < max_vertices:
            fresh = f"n{base + len(moves)}"
            successors += [(edge_subdivide(state, e, fresh), Move.subdivide(e, fresh)) for e in edges]
        for e in edges:
            if is_valid_edge(state, e):
                move = Move.contract(e)
                successors.append((contract_edge(state, e, move.survivor), move))
        for nxt, move in successors:
            form = canonical_form(nxt, guard=guard)
            if form in visited:
                continue
            visited.add(form)
            path = moves + (move,)
            if form == goal:
                return MoveScript(path, target_map=isomorphism(nxt, target, guard=guard))
            queue.append((nxt, path))
    return None


def test_search_single_subdivision():
    src = from_facets([[1, 2]])
    dst = edge_subdivide(src, [1, 2], "v")
    script = search_script(src, dst, max_depth=2, max_vertices=6)
    assert script is not None and len(script) == 1
    assert script.moves[0].op == "subdivide"
    assert verify_script(src, script, dst)


def test_search_single_contraction():
    src = from_facets([[1, 2], [2, 3]])
    dst = from_facets([["a", "b"]])
    script = search_script(src, dst, max_depth=2, max_vertices=6)
    assert script is not None and len(script) == 1
    assert script.moves[0].op == "contract"
    assert verify_script(src, script, dst)


def test_search_triangle_to_four_cycle(hollow_triangle, four_cycle):
    # both are circles; one edge subdivision turns the 3-cycle into a 4-cycle
    script = search_script(hollow_triangle, four_cycle, max_depth=3, max_vertices=8)
    assert script is not None
    assert len(script) == 1
    assert script.moves[0].op == "subdivide"
    assert verify_script(hollow_triangle, script, four_cycle)


def test_search_empty_script_on_isomorphic_inputs(four_cycle, tetra_boundary):
    # a complex searched onto itself maps by the identity, symmetric or not
    for cx in (four_cycle, tetra_boundary):
        script = search_script(cx, cx, max_depth=3, max_vertices=8)
        assert script is not None and len(script) == 0
        assert script.target_map == {v: v for v in cx.vertex_set()}
        assert verify_script(cx, script, cx)
    relabeled = from_facets([["a", "b"], ["b", "c"], ["c", "d"], ["a", "d"]])
    script = search_script(four_cycle, relabeled, max_depth=0, max_vertices=8)
    assert script is not None and len(script) == 0


def test_search_returns_none_within_bounds(four_cycle, tetra_boundary):
    # a circle cannot become a 2-sphere
    assert search_script(four_cycle, tetra_boundary, max_depth=2, max_vertices=6) is None


def test_search_vertex_budget_precondition(tetra_boundary):
    with pytest.raises(ResourceLimitError):
        search_script(tetra_boundary, tetra_boundary, max_depth=1, max_vertices=3)


def test_search_state_budget_reports_statistics(four_cycle, tetra_boundary):
    with pytest.raises(ResourceLimitError) as exc:
        search_script(four_cycle, tetra_boundary, max_depth=6, max_vertices=7, max_states=1)
    assert exc.value.stats == {"states": 2, "frontier": 1, "depth": 1, "visited": 3}


def test_search_state_budget_statistics_at_depth_three():
    # a triangulated square grown towards a six-cycle: the budget runs out
    # while depth-3 states are expanded, with 56 isomorphism classes visited
    disk = from_facets([[1, 2, 3], [1, 3, 4]])
    six_cycle = from_facets([["a", "b"], ["b", "c"], ["c", "d"], ["d", "e"], ["e", "f"], ["a", "f"]])
    with pytest.raises(ResourceLimitError) as exc:
        search_script(disk, six_cycle, max_depth=5, max_vertices=7, max_states=30)
    assert exc.value.stats == {"states": 31, "frontier": 25, "depth": 3, "visited": 56}


def test_search_is_deterministic(four_cycle, hollow_triangle):
    a = search_script(hollow_triangle, four_cycle, max_depth=3, max_vertices=8)
    b = search_script(hollow_triangle, four_cycle, max_depth=3, max_vertices=8)
    assert a.moves == b.moves


@given(st.integers(0, 400))
@settings(max_examples=25, deadline=None)
def test_search_finds_length_one_subdivision_scripts(seed):
    cx = random_complex(5, 2, 0.5, seed)
    edges = sorted(cx.faces().get(1, ()))
    if not edges:
        return
    dst = edge_subdivide(cx, edges[seed % len(edges)], "zz")
    script = search_script(cx, dst, max_depth=1, max_vertices=cx.num_vertices() + 1)
    assert script is not None and len(script) == 1
    assert verify_script(cx, script, dst)


def _differential_cases():
    """Seeded (source, target, max_depth, max_vertices, max_states) cases:
    targets one and two subdivisions away, one contraction away, and
    random complexes that are mostly unreachable."""
    for seed in range(150):
        rng = random.Random(seed)
        max_depth = rng.randint(1, 3)
        n = rng.randint(3, 6)
        source = random_complex(n, rng.randint(1, 3), rng.choice((0.3, 0.5, 0.7)), seed)
        edges = _edges(source)
        if not edges:
            continue
        kind = rng.choice(("subdivide", "subdivide twice", "contract", "random"))
        if kind == "subdivide":
            target = edge_subdivide(source, rng.choice(edges), "t1")
        elif kind == "subdivide twice":
            once = edge_subdivide(source, rng.choice(edges), "t1")
            target = edge_subdivide(once, rng.choice(_edges(once)), "t2")
        elif kind == "contract":
            valid = [e for e in edges if is_valid_edge(source, e)]
            if not valid:
                continue
            e = rng.choice(valid)
            target = contract_edge(source, e, Move.contract(e).survivor)
        else:
            target = random_complex(max(1, n + rng.randint(-2, 2)), 2, 0.5, seed + 1000)
        yield source, target, max_depth, n + 2, rng.choice((5, 10, 20, 50))


def test_search_matches_labeling_every_successor():
    """The vertex-count bound and the goal-only last depth return what the
    search that labels and deduplicates every successor returns."""
    outcomes = set()
    for source, target, max_depth, max_vertices, max_states in _differential_cases():
        try:
            expected = reference_search(source, target, max_depth, max_vertices, max_states)
        except ResourceLimitError:
            # pruned states no longer use up the budget: the search may finish
            try:
                got = search_script(source, target, max_depth, max_vertices, max_states=max_states)
            except ResourceLimitError:
                outcomes.add("both exhausted")
                continue
            assert got is None or verify_script(source, got, target)
            outcomes.add("finishes where the reference ran out")
            continue
        got = search_script(source, target, max_depth, max_vertices, max_states=max_states)
        if expected is None:
            assert got is None
            outcomes.add("none")
        else:
            assert got is not None
            assert got.moves == expected.moves
            assert got.target_map == expected.target_map
            outcomes.add(f"script of {len(expected)}")
    assert outcomes >= {
        "none",
        "script of 1",
        "script of 2",
        "both exhausted",
        "finishes where the reference ran out",
    }


@pytest.mark.parametrize("subdivisions", [1, 2])
def test_search_bound_skips_contractions_for_a_subdivision_target(monkeypatch, subdivisions):
    # one or two vertices more in at most two moves leave no room for a contraction
    src = from_facets([[1, 2, 3], [2, 3, 4], [3, 4, 5]])
    dst = edge_subdivide(src, [3, 4], "a")
    if subdivisions == 2:
        dst = edge_subdivide(dst, [1, 2], "b")

    def refuse(*args, **kwargs):
        raise AssertionError("contraction successor built outside the vertex-count bound")

    # every contraction entry point, the search's own included, splits the edge first
    monkeypatch.setattr(search, "_contract_if_valid", refuse)
    monkeypatch.setattr(contraction, "_split", refuse)
    script = search_script(src, dst, max_depth=2, max_vertices=7)
    assert script is not None and len(script) == subdivisions
    assert verify_script(src, script, dst)


def test_search_bound_skips_subdivisions_for_a_contraction_target(monkeypatch):
    # one vertex fewer in at most two moves leaves no room for a subdivision
    src = from_facets([[1, 2, 3], [2, 3, 4], [3, 4, 5]])
    dst = contract_edge(src, ("4", "5"), "4")

    def refuse(*args, **kwargs):
        raise AssertionError("subdivision successor built outside the vertex-count bound")

    monkeypatch.setattr(search, "_subdivide_star", refuse)
    script = search_script(src, dst, max_depth=2, max_vertices=7)
    assert script is not None and len(script) == 1
    assert verify_script(src, script, dst)


@pytest.mark.parametrize("digits", [5000, 4300])
def test_search_from_a_label_with_too_many_digits_gets_fresh_labels(digits):
    # n<5000 nines> cannot convert to an int, and n<4300 nines> + 1 cannot be
    # spelled under the default digit limit: the fresh base skips both
    source = from_facets([["n" + "9" * digits, "a"], ["a", "b"]])
    target = from_facets([["p", "q"], ["q", "r"], ["r", "s"], ["s", "t"]])
    assert _fresh_label_base(source) == 0
    script = search_script(source, target, max_depth=2, max_vertices=6)
    assert script is not None and verify_script(source, script, target)
    fresh = [m.new_label for m in script.moves]
    assert len(set(fresh)) == 2 and not set(fresh) & source.vertex_set()


def test_search_finishes_where_pruned_states_used_up_the_budget():
    # a triangle with two pendant edges at one corner, and a four-cycle:
    # three moves, and the labeling-every-successor search spends its budget
    # on states with too few vertices before it gets there
    src = from_facets([[1, 5], [2, 5], [3, 4], [3, 5], [4, 5]])
    dst = from_facets([[1, 3], [1, 4], [3, "t"], [4, "t"]])
    with pytest.raises(ResourceLimitError):
        reference_search(src, dst, max_depth=3, max_vertices=8, max_states=6)
    unbounded = search_script(src, dst, max_depth=3, max_vertices=8)
    assert unbounded is not None and len(unbounded) == 3
    got = search_script(src, dst, max_depth=3, max_vertices=8, max_states=6)
    assert got == unbounded
    assert verify_script(src, got, dst)


def test_edge_stars_count_the_facets_an_edge_subdivision_adds():
    for seed in range(60):
        cx = random_complex(3 + seed % 5, 1 + seed % 3, (0.3, 0.5, 0.7)[seed % 3], seed)
        stars = _edge_stars(cx)
        assert list(stars) == _edges(cx)
        for e, star in stars.items():
            assert sorted(star) == sorted(cx.facets_containing(e))
            assert len(edge_subdivide(cx, e, "w").facets) == len(cx.facets) + len(star)


@given(st.integers(0, 10_000), st.integers(1, 4), st.sampled_from((0.3, 0.5, 0.7)))
@settings(max_examples=60, deadline=None)
def test_subdivided_degrees_match_the_built_subdivision(seed, dim, density):
    cx = random_complex(3 + seed % 5, dim, density, seed)
    deg = _degrees(cx)
    for e, star in _edge_stars(cx).items():
        built = edge_subdivide(cx, e, "w")
        assert _subdivided_degrees(deg, e, star) == sorted(_degrees(built).values())


@given(st.integers(0, 10_000), st.integers(1, 4), st.sampled_from((0.3, 0.5, 0.7)))
@settings(max_examples=60, deadline=None)
def test_star_built_successor_equals_edge_subdivide(seed, dim, density):
    cx = random_complex(3 + seed % 5, dim, density, seed)
    for e, star in _edge_stars(cx).items():
        built = search._subdivide_star(cx, e, star, "w")
        assert built == edge_subdivide(cx, e, "w") == oracles.stellar_by_definition(cx, e, "w")
        assert built.vertex_set() == cx.vertex_set() | {"w"}
        with pytest.raises(NamingError):
            search._subdivide_star(cx, e, star, e[0])


def _outcome(source, target, max_depth, max_vertices, max_states):
    """The script, or the stats of the budget error."""
    try:
        return search_script(source, target, max_depth, max_vertices, max_states=max_states)
    except ResourceLimitError as exc:
        return exc.stats


def test_search_builds_only_last_moves_with_the_target_degrees(monkeypatch, labelings):
    """Every last-move subdivision built has the target's sorted degrees,
    and against the search with only the facet-count test (the degree test
    stubbed out), fewer are built for the same outcome and the same
    labelings."""
    built = []
    subdivide = search._subdivide_star

    def counted(cx, e, star, fresh):
        out = subdivide(cx, e, star, fresh)
        built.append((fresh, out))
        return out

    monkeypatch.setattr(search, "_subdivide_star", counted)
    totals = {"degrees": 0, "facet count only": 0}
    for case in _differential_cases():
        source, target, max_depth = case[:3]
        goal = sorted(_degrees(target).values())
        last = f"n{_fresh_label_base(source) + max_depth - 1}"
        runs = {}
        for mode in totals:
            with monkeypatch.context() as m:
                if mode == "facet count only":
                    m.setattr(search, "_subdivided_degrees", lambda *args: goal)
                built.clear()
                labelings[0] = 0
                runs[mode] = (_outcome(*case), labelings[0])
            totals[mode] += len(built)
            if mode == "degrees":
                for fresh, out in built:
                    if fresh == last:
                        assert sorted(_degrees(out).values()) == goal
        assert runs["degrees"] == runs["facet count only"]
    assert totals["degrees"] < totals["facet count only"]


@pytest.fixture
def labelings(monkeypatch):
    """A counter of the canonical labelings made while the test runs: every
    labeling, `canonical_form`'s and the search's included, goes through
    `canonical_labeling`."""
    count = [0]
    label = canonical.canonical_labeling

    def counted(*args, **kwargs):
        count[0] += 1
        return label(*args, **kwargs)

    monkeypatch.setattr(canonical, "canonical_labeling", counted)
    monkeypatch.setattr(search, "canonical_labeling", counted)
    return count


def test_search_labels_no_more_than_labeling_every_successor(labelings):
    ours = reference = 0
    for source, target, max_depth, max_vertices, max_states in _differential_cases():
        labelings[0] = 0
        try:
            reference_search(source, target, max_depth, max_vertices, max_states)
        except ResourceLimitError:
            continue
        by_reference = labelings[0]
        labelings[0] = 0
        search_script(source, target, max_depth, max_vertices, max_states=max_states)
        assert labelings[0] <= by_reference
        ours += labelings[0]
        reference += by_reference
    assert ours < reference


def test_search_labels_only_the_goal_when_no_signature_collides(labelings, monkeypatch):
    # fifteen successors are built and compared, and none is labeled: no
    # signature equals the target's or another visited state's
    signatures = [0]
    signature = canonical._signature

    def counted(cx):
        signatures[0] += 1
        return signature(cx)

    monkeypatch.setattr(search, "_signature", counted)
    src, dst = random_complex(6, 2, 0.5, 131), random_complex(7, 2, 0.5, 631)
    assert search_script(src, dst, max_depth=2, max_vertices=8) is None
    assert (labelings[0], signatures[0]) == (1, 2 + 15)  # the goal, the source, the successors


def _random_pairs():
    """Seeded (source, target, max_depth, max_vertices, max_states) cases
    between random complexes, with the symmetric tetrahedron boundary and
    six-cycle among the sources."""
    tetra = from_facets([[1, 2, 3], [1, 2, 4], [1, 3, 4], [2, 3, 4]])
    six_cycle = from_facets([[1, 2], [2, 3], [3, 4], [4, 5], [5, 6], [1, 6]])
    for seed in range(60):
        rng = random.Random(seed)
        n = rng.randint(3, 6)
        if seed % 5 == 0:
            source = (tetra, six_cycle)[seed % 2]
            n = source.num_vertices()
        else:
            source = random_complex(n, rng.randint(1, 3), 0.5, seed)
        target = random_complex(n + rng.randint(-1, 2), rng.randint(1, 3), 0.5, seed + 500)
        yield source, target, rng.randint(1, 3), n + 2, rng.choice((5, 20, 50))


def test_sibling_orbits_change_no_outcome_and_save_labels(monkeypatch, labelings):
    """Against the same search with every edge its own representative (and
    no state labeled for its orbits): the same script, target_map or budget
    stats on every case; no more labels outside the orbit step, and fewer
    in all."""
    orbit_step = [0]
    orbits = search._sibling_orbits

    def counted(*args):
        before = labelings[0]
        out = orbits(*args)
        orbit_step[0] += labelings[0] - before
        return out

    monkeypatch.setattr(search, "_sibling_orbits", counted)
    totals = {"pruned": 0, "unpruned": 0}
    for case in chain(_differential_cases(), _random_pairs()):
        orbit_step[0] = labelings[0] = 0
        pruned = _outcome(*case)
        pruned_labels = labelings[0]
        with monkeypatch.context() as m:
            m.setattr(search, "_sibling_orbits", lambda state, edges, sig, label: {e: e for e in edges})
            labelings[0] = 0
            unpruned = _outcome(*case)
        assert pruned == unpruned
        if isinstance(pruned, MoveScript):
            assert pruned.target_map == unpruned.target_map
        assert pruned_labels - orbit_step[0] <= labelings[0]
        totals["pruned"] += pruned_labels
        totals["unpruned"] += labelings[0]
    assert totals["pruned"] < totals["unpruned"]


def test_search_labels_no_complex_twice(monkeypatch):
    # every label goes through the search's memo: the goal test, the
    # buckets and the orbit step never label one complex again
    labeled = []
    label = canonical.canonical_labeling

    def recorded(cx, **kwargs):
        labeled.append(cx)
        return label(cx, **kwargs)

    monkeypatch.setattr(search, "canonical_labeling", recorded)
    total = 0
    for case in chain(_differential_cases(), _random_pairs()):
        labeled.clear()
        _outcome(*case)
        assert len(set(labeled)) == len(labeled)
        total += len(labeled)
    assert total > 0


@given(st.integers(0, 10_000), st.integers(1, 3), st.sampled_from((0.3, 0.5, 0.7)))
@settings(max_examples=60, deadline=None)
def test_labeling_automorphisms_carry_facets_onto_facets(seed, dim, density):
    cx = random_complex(3 + seed % 5, dim, density, seed)
    automorphisms = canonical.canonical_labeling(cx)[2]
    for aut in automorphisms:
        assert sorted(aut) == sorted(aut.values()) == sorted(cx.vertex_set())
        assert {Simplex(sorted(aut[v] for v in f)) for f in cx.facets} == cx.facets


def test_tetrahedron_boundary_edges_form_one_orbit(tetra_boundary, labelings):
    edges = list(_edge_stars(tetra_boundary))
    assert len(edges) == 6
    reps = _sibling_orbits(tetra_boundary, edges, canonical._signature(tetra_boundary), canonical.canonical_labeling)
    assert reps == {e: edges[0] for e in edges}
    assert labelings[0] == 1


def test_rigid_complex_gets_singleton_orbits(labelings):
    # a triangle with a path of one edge at one corner and of two at another:
    # only the identity, though the two path ends share a signature entry
    rigid = from_facets([[1, 2, 6], [2, 4], [3, 5], [5, 6]])
    sig = canonical._signature(rigid)
    assert len(set(sig)) < len(sig)
    edges = list(_edge_stars(rigid))
    assert _sibling_orbits(rigid, edges, sig, canonical.canonical_labeling) == {e: e for e in edges}
    assert labelings[0] == 1
    # a signature with an entry for each vertex settles it without a label
    distinct = from_facets([[1, 2], [1, 3], [2, 3, 4], [3, 4, 5]])
    sig = canonical._signature(distinct)
    assert len(set(sig)) == len(sig)
    edges = list(_edge_stars(distinct))
    assert _sibling_orbits(distinct, edges, sig, canonical.canonical_labeling) == {e: e for e in edges}
    assert labelings[0] == 1


# -- verify / replay ---------------------------------------------------------

def test_verify_script_contract_to_point():
    src = from_facets([[1, 2]])
    script = MoveScript((Move.contract(("1", "2"), "1"),))
    assert verify_script(src, script, from_facets([["p"]]))


def test_verify_script_invalid_move_is_step_error(hollow_triangle):
    script = MoveScript((Move.contract(("1", "2"), "1"),))
    with pytest.raises(ScriptStepError) as exc:
        verify_script(hollow_triangle, script, hollow_triangle)
    assert exc.value.step == 0


def test_verify_script_rejects_wrong_target():
    src = from_facets([[1, 2]])
    script = MoveScript((Move.subdivide(("1", "2"), "v"),))
    assert not verify_script(src, script, from_facets([["a", "b"]]))


def test_verify_script_respects_target_map():
    src = from_facets([[1, 2], [2, 3]])
    good = MoveScript(
        (Move.contract(("1", "2"), "1"),),
        target_map={"1": "a", "3": "b"},
    )
    wrong = MoveScript(
        (Move.contract(("1", "2"), "1"),),
        target_map={"1": "b", "3": "a"},
    )
    target = from_facets([["a", "b"]])
    assert verify_script(src, good, target)
    assert verify_script(src, wrong, target)  # both orientations land on the same edge
    assert not verify_script(src, good, from_facets([["a", "z"]]))


def test_replay_script_names_the_step_over_a_resource_limit():
    # contracting {1,2} of a 26-vertex facet lists faces above the face budget
    cx = from_facets([range(1, 27)])
    script = MoveScript((Move.subdivide(("1", "3"), "m"), Move.contract(("1", "2"), "1")))
    for replay in (lambda: replay_script(cx, script), lambda: verify_script(cx, script, cx)):
        with pytest.raises(ResourceLimitError) as exc:
            replay()
        assert exc.value.stats == {"facets": 2, "bound": 2 * (2**26 - 1), "budget": 2000000, "step": 1}


def test_replay_script_runs_moves_in_order(triangle):
    script = MoveScript(
        (
            Move.subdivide(("1", "2"), "m"),
            Move.contract(("1", "m"), "1"),
        )
    )
    out = replay_script(triangle, script)
    assert out == triangle  # half-edge contraction undoes the subdivision exactly
    assert isomorphism(out, triangle) is not None
