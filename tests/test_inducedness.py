from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from stellarpair import (
    Simplex,
    SimplicialComplex,
    biased_derived,
    classify_pair,
    contract_edge,
    derived_subdivision,
    edge_subdivide,
    from_facets,
    induced_subcomplex,
    is_induced,
    is_strongly_induced,
    missing_simplices,
    next_round,
    pair_biased,
    pair_new,
    pair_subdivide_edge,
    star,
    vlabel,
)
from stellarpair.complexes import _fresh_round, _Incidence
from stellarpair.errors import InvalidEdgeError, NotASubcomplexError, ResourceLimitError
from stellarpair.inducedness import (
    INDUCED,
    NOT_INDUCED,
    NOT_STRONGLY_INDUCED,
    STRONGLY_INDUCED,
    _classify_change,
    _StrongScan,
)
from stellarpair.io import (
    random_complex,
    random_induced_pair,
    random_strongly_induced_pair,
    random_subcomplex_pair,
)
from stellarpair.subdivision import _rebias_near


def tokens(simplex) -> tuple[str, ...]:
    return simplex.tokens()


# -- missing simplices ----------------------------------------------------

def test_missing_simplices_hollow_triangle(hollow_triangle):
    assert {tokens(s) for s in missing_simplices(hollow_triangle)} == {("1", "2", "3")}


def test_missing_simplices_four_cycle_matches_oracle(four_cycle):
    expected = oracles.naive_missing_simplices(four_cycle)
    assert {tokens(s) for s in expected} == {("1", "3"), ("2", "4")}
    assert missing_simplices(four_cycle) == expected


def test_missing_simplices_solid_triangle(triangle):
    assert missing_simplices(triangle) == set()


def test_missing_simplices_max_dim_bound(hollow_triangle):
    assert missing_simplices(hollow_triangle, max_dim=1) == set()


@given(st.integers(0, 300))
@settings(max_examples=80, deadline=None)
def test_missing_simplices_agree_with_enumeration(seed):
    cx = random_complex(6, 2, 0.45, seed)
    assert missing_simplices(cx) == oracles.naive_missing_simplices(cx)


# -- is_induced -------------------------------------------------------------

def test_is_induced_four_cycle_with_diagonal(four_cycle):
    ambient = from_facets([[1, 2], [2, 3], [3, 4], [1, 4], [2, 4]])
    w = is_induced(four_cycle, ambient)
    assert w.verdict == NOT_INDUCED
    assert tokens(w.offending_simplex) == ("2", "4")
    # witness is verifiable: an ambient face, not a sub face, vertices in sub
    assert w.offending_simplex in ambient
    assert w.offending_simplex not in four_cycle
    assert all(v in four_cycle.vertex_set() for v in w.offending_simplex.vertices)


def test_is_induced_reflexive(triangle):
    assert is_induced(triangle, triangle).verdict == INDUCED


def test_is_induced_four_cycle_with_diagonal_derived(four_cycle):
    ambient = from_facets([[1, 2], [2, 3], [3, 4], [1, 4], [2, 4]])
    rnd = next_round(ambient.vertex_set())
    dg, _ = derived_subdivision(four_cycle, round=rnd)
    dd, _ = derived_subdivision(ambient, round=rnd)
    assert is_induced(dg, dd).verdict == INDUCED


def test_is_induced_requires_subcomplex(triangle):
    with pytest.raises(NotASubcomplexError):
        is_induced(from_facets([[1, 5]]), triangle)


# -- is_strongly_induced -----------------------------------------------------

def test_strongly_induced_edge_in_triangle_pair():
    from stellarpair import biased_derived

    gamma = from_facets([[1, 2]])
    ambient, _ = biased_derived(gamma, from_facets([[1, 2, 3]]))
    assert is_strongly_induced(gamma, ambient).verdict == STRONGLY_INDUCED


def test_not_strongly_induced_four_cycle_in_fan(four_cycle):
    ambient = from_facets([[1, 2, 4], [2, 3], [3, 4]])
    rnd = next_round(ambient.vertex_set())
    dg, _ = derived_subdivision(four_cycle, round=rnd)
    dd, _ = derived_subdivision(ambient, round=rnd)
    w = is_strongly_induced(dg, dd)
    assert w.verdict == NOT_STRONGLY_INDUCED
    assert tokens(w.sigma) == ("b{1,2,4}@0",)  # the barycenter vertex of 124
    assert len(w.intersection_faces) >= 2
    # the witness re-checks against the definition
    st_sigma = star(dd, w.sigma)
    dg_faces = {s for g in dg.faces().values() for s in g}
    common = [s for g in st_sigma.faces().values() for s in g if s in dg_faces]
    maximal = {s for s in common if not any(s is not t and s.issubset(t) for t in common)}
    assert maximal == set(w.intersection_faces)


def test_strongly_induced_vertex_in_triangle(triangle):
    assert is_strongly_induced(from_facets([[1]]), triangle).verdict == STRONGLY_INDUCED


def test_induced_but_not_strongly(four_cycle):
    # an edge in the 4-cycle is induced but its endpoints' opposite edges break strongness
    sub = from_facets([[1], [3]])
    w = is_strongly_induced(sub, four_cycle)
    assert w.verdict == NOT_STRONGLY_INDUCED
    assert is_induced(sub, four_cycle).verdict == INDUCED


# -- properties ---------------------------------------------------------------

def least_missing_face(sub, ambient):
    """The `Simplex.sort_key`-least ambient face with all vertices in V(sub)
    that `sub` misses, or None; by enumeration of every ambient face."""
    keep = sub.vertex_set()
    sub_faces = oracles.all_faces_brute(sub)
    missing = [
        s for s in oracles.all_faces_brute(ambient) if s._vset <= keep and s not in sub_faces
    ]
    return min(missing, key=Simplex.sort_key, default=None)


@given(st.integers(1, 4), st.integers(0, 400))
@settings(max_examples=80, deadline=None)
def test_strongly_induced_implies_induced(dim, seed):
    sub, ambient = random_subcomplex_pair(6, dim, 0.5, seed)
    strong = is_strongly_induced(sub, ambient).verdict == STRONGLY_INDUCED
    induced = is_induced(sub, ambient).verdict == INDUCED
    if strong:
        assert induced
    assert induced == oracles.naive_is_induced(sub, ambient)
    assert strong == oracles.naive_is_strongly_induced(sub, ambient)
    assert induced or is_induced(sub, ambient).offending_simplex == least_missing_face(sub, ambient)


@given(st.integers(0, 400))
@settings(max_examples=80, deadline=None)
def test_induced_iff_no_missing_simplex_realized(seed):
    sub, ambient = random_subcomplex_pair(6, 2, 0.5, seed)
    keep = sub.vertex_set()
    realized = [
        m
        for m in missing_simplices(sub)
        if m in ambient and all(v in keep for v in m.vertices)
    ]
    assert (is_induced(sub, ambient).verdict == INDUCED) == (not realized)


@given(st.integers(0, 400))
@settings(max_examples=60, deadline=None)
def test_derived_pairs_are_induced(seed):
    sub, ambient = random_subcomplex_pair(6, 2, 0.5, seed)
    rnd = next_round(ambient.vertex_set())
    dg, _ = derived_subdivision(sub, round=rnd)
    dd, _ = derived_subdivision(ambient, round=rnd)
    assert is_induced(dg, dd).verdict == INDUCED


def test_witness_tie_break_is_reproducible(four_cycle):
    ambient = from_facets([[1, 2], [2, 3], [3, 4], [1, 4], [2, 4], [1, 3]])
    w1 = is_induced(four_cycle, ambient)
    w2 = is_induced(four_cycle, ambient)
    assert w1 == w2
    assert tokens(w1.offending_simplex) == ("1", "3")  # (dim, lex)-least of {13, 24}


def test_classify_pair_levels(four_cycle, triangle):
    ambient = from_facets([[1, 2], [2, 3], [3, 4], [1, 4], [2, 4]])
    assert classify_pair(four_cycle, ambient).verdict == NOT_INDUCED
    assert classify_pair(from_facets([[1], [3]]), four_cycle).verdict == INDUCED
    assert classify_pair(from_facets([[1, 2]]), triangle).verdict == STRONGLY_INDUCED


def _random_pair(kind: str, dim: int, seed: int):
    if kind == "subcomplex":
        return random_subcomplex_pair(6, dim, 0.5, seed)
    pair = (random_induced_pair if kind == "induced" else random_strongly_induced_pair)(5, dim, 0.5, seed)
    return pair.sub, pair.ambient


@given(st.sampled_from(["subcomplex", "induced", "strong"]), st.integers(1, 4), st.integers(0, 400))
@settings(max_examples=90, deadline=None)
def test_classify_pair_agrees_with_naive_oracles(kind, dim, seed):
    sub, ambient = _random_pair(kind, dim, seed)
    got = classify_pair(sub, ambient)
    if oracles.naive_is_strongly_induced(sub, ambient):
        assert got.verdict == STRONGLY_INDUCED
        return
    expected = INDUCED if oracles.naive_is_induced(sub, ambient) else NOT_INDUCED
    assert got.verdict == expected
    assert got == is_induced(sub, ambient)


def test_classify_pair_sources_cover_every_verdict():
    # the generators behind the property test above reach all three levels
    verdicts = {
        classify_pair(*_random_pair(kind, 1 + seed % 4, seed)).verdict
        for kind in ("subcomplex", "induced", "strong")
        for seed in range(12)
    }
    assert verdicts == {NOT_INDUCED, INDUCED, STRONGLY_INDUCED}


def test_induced_subcomplex_restriction(tetra_boundary):
    sub = induced_subcomplex(tetra_boundary, ["1", "2", "3"])
    assert sub == from_facets([[1, 2, 3]])
    assert is_induced(sub, tetra_boundary).verdict == INDUCED
    assert induced_subcomplex(tetra_boundary, [vlabel("9")]).is_empty


# -- locality: the strong scan keeps only the facets that meet the subcomplex ---------

def least_violation(sub, ambient):
    """(sigma, maximal faces of sub ∩ star(sigma)) for the `Simplex.sort_key`-least
    ambient face sigma outside `sub` whose closed star meets `sub` in two or more
    maximal faces, or None; straight from the definition, over every ambient face."""
    sub_faces = oracles.all_faces_brute(sub)
    for sigma in sorted(oracles.all_faces_brute(ambient), key=Simplex.sort_key):
        if sigma in sub_faces:
            continue
        star_faces = oracles.all_faces_brute(
            SimplicialComplex([f for f in ambient.facets if sigma.issubset(f)])
        )
        common = star_faces & sub_faces
        maximal = [s for s in common if not any(s != t and s.issubset(t) for t in common)]
        if len(maximal) > 1:
            return sigma, tuple(sorted(maximal, key=Simplex.sort_key))
    return None


def _local_pair(kind: str, dim: int, seed: int):
    """A pair whose subcomplex is a small part of the ambient: 1-4 random faces of
    a biased or derived ambient, or the pair after a `pair_subdivide_edge`, of
    dimension at most 3 (one move on the biased 4-simplex makes up to 10752
    facets, too many for the quadratic `least_violation`)."""
    n = 4 + seed % 2
    if kind == "subdivided":
        for s in itertools.count(seed):
            pair = pair_biased(random_induced_pair(n, min(dim, 3), 0.5, s))
            edges = [f for f in pair.sub.all_faces() if len(f) == 2]
            if edges:
                moved = pair_subdivide_edge(pair, edges[s % len(edges)].vertices, "w")
                return moved.sub, moved.ambient
    base_sub, base = random_subcomplex_pair(n + 1, dim, 0.6, seed)
    ambient = biased_derived(base_sub, base)[0] if kind == "biased" else derived_subdivision(base)[0]
    rng = random.Random(seed)
    faces = ambient.all_faces()
    return SimplicialComplex(rng.choice(faces) for _ in range(rng.randint(1, 4))), ambient


@given(st.sampled_from(["biased", "derived", "subdivided"]), st.integers(1, 4), st.integers(0, 400))
@settings(max_examples=60, deadline=None)
def test_local_strong_scan_agrees_with_definition(kind, dim, seed):
    sub, ambient = _local_pair(kind, dim, seed)
    near = {f for f in ambient.facets if not sub.vertex_set().isdisjoint(f.vertices)}
    assert set(_StrongScan(sub, ambient).facets) == near
    got = is_strongly_induced(sub, ambient)
    # `least_violation` is the definition; `oracles.naive_is_strongly_induced`
    # decides the same and takes seconds on the 456-facet dim-3 and dim-4 ambients
    expected = least_violation(sub, ambient)
    strong = expected is None
    assert (got.verdict == STRONGLY_INDUCED) == strong
    assert (classify_pair(sub, ambient).verdict == STRONGLY_INDUCED) == strong
    missing = least_missing_face(sub, ambient)
    induced = is_induced(sub, ambient)
    assert (induced.verdict, induced.offending_simplex) == (
        (INDUCED, None) if missing is None else (NOT_INDUCED, missing)
    )
    if not strong:
        assert got.verdict == NOT_STRONGLY_INDUCED
        assert (got.sigma, got.intersection_faces) == expected


def test_local_strong_scan_sources_reach_both_verdicts():
    # the generator behind the property test above gives violations and strong pairs
    verdicts = {
        is_strongly_induced(*_local_pair(kind, 1 + seed % 4, seed)).verdict
        for kind in ("biased", "derived", "subdivided")
        for seed in range(6)
    }
    assert verdicts == {STRONGLY_INDUCED, NOT_STRONGLY_INDUCED}


# -- the trace lemma: `single` against merging the intersection pieces ------------------

def merged_pieces(scan, support):
    """The maximal faces of `sub ∩ star(σ)` for a face σ held by exactly the kept
    facets in `support`, by merging pieces: the maximal cuts of the sub facets by
    each such facet's trace, then the maximal ones among all of them."""
    pieces = set()
    for i, f in enumerate(scan.facets):
        if support >> i & 1:
            trace = scan.gamma_verts.intersection(f)
            cuts = {trace.intersection(g) for g in scan.sub.facets} - {frozenset()}
            pieces.update(c for c in cuts if not any(c < d for d in cuts))
    return {p for p in pieces if not any(p < q for q in pieces)}


@given(
    st.sampled_from(["subcomplex", "induced", "strong", "biased", "derived", "subdivided"]),
    st.integers(1, 4),
    st.integers(0, 400),
)
@settings(max_examples=60, deadline=None)
def test_single_agrees_with_piece_merging(kind, dim, seed):
    local = kind in ("biased", "derived", "subdivided")
    sub, ambient = (_local_pair if local else _random_pair)(kind, dim, seed)
    scan = _StrongScan(sub, ambient)
    supports = {
        scan.support(face)
        for f in scan.facets
        for k in range(1, len(f) + 1)
        for face in itertools.combinations(f, k)
    }
    for support in supports:
        assert scan.single(support) == (len(merged_pieces(scan, support)) <= 1)


# -- the change-set scan: only the faces of the facets a move changed ------------------

def _moved_pair(kind: str, dim: int, seed: int):
    """A strongly induced pair after one move on a sub edge in both complexes,
    with the ambient facets the move changed.  "bare" subdivides without a
    re-bias, which can break strong inducedness; "rebias" re-biases as a pair
    move does; "contract" contracts.  None when the subcomplex has no edge, or
    the contracted edge is not valid in both complexes."""
    pair = random_strongly_induced_pair(4 + seed % 3, dim, 0.5, seed)
    edges = [e for e in pair.sub.all_faces() if len(e) == 2]
    if not edges:
        return None
    e = edges[seed % len(edges)]
    if kind == "contract":
        try:
            sub, ambient = contract_edge(pair.sub, e, e[seed % 2]), contract_edge(pair.ambient, e, e[seed % 2])
        except InvalidEdgeError:
            return None
    else:
        sub, ambient = edge_subdivide(pair.sub, e, "w"), edge_subdivide(pair.ambient, e, "w")
        if kind == "rebias":
            near = (star(ambient, ["w"]).vertex_set() - sub.vertex_set()) | {vlabel("w")}
            ambient = ambient._replace(
                *_rebias_near(sub, near, ambient.facets, _fresh_round(ambient), len(ambient.facets))[:2]
            )
    old = pair.ambient.facets
    return sub, ambient, (old - ambient.facets) | (ambient.facets - old)


def _incidences(ambient):
    """What a move hands the change-set scan: no incidence (the first move of
    a pair lineage), or the ambient's (every later move)."""
    return (None, _Incidence.of(ambient))


def _scans_the_change(sub, ambient, changed) -> bool:
    """Does the scan take the change-set path: fewer changed facets than
    ambient facets at the subcomplex?"""
    return len(changed) < sum(1 for f in ambient.facets if not sub.vertex_set().isdisjoint(f))


@given(st.sampled_from(["bare", "rebias", "contract"]), st.integers(1, 4), st.integers(0, 10_000))
@settings(max_examples=120, deadline=None)
def test_change_set_scan_agrees_with_the_full_scan(kind, dim, seed):
    moved = _moved_pair(kind, dim, seed)
    if moved is None:
        return
    sub, ambient, changed = moved
    for inc in _incidences(ambient):
        assert _classify_change(sub, ambient, changed, inc) == classify_pair(sub, ambient)
        # the least local violation is the global least, intersection faces and all
        assert _StrongScan(sub, ambient, changed, inc).witness() == is_strongly_induced(sub, ambient)


def test_change_set_scan_sources_reach_both_verdicts_on_the_change_path():
    # seeded: the cases behind the property test above take the change-set path
    # (fewer changed facets than facets at the subcomplex) in every kind, and
    # bare subdivisions break strong inducedness there, so witnesses are compared
    seen = set()
    for seed in range(120):
        for kind in ("bare", "rebias", "contract"):
            moved = _moved_pair(kind, 1 + seed % 4, seed)
            if moved is None or not _scans_the_change(*moved):
                continue
            sub, ambient, changed = moved
            for inc in _incidences(ambient):
                got = _classify_change(sub, ambient, changed, inc)
                assert got == classify_pair(sub, ambient)
                assert _StrongScan(sub, ambient, changed, inc).witness() == is_strongly_induced(sub, ambient)
            seen.add((kind, got.verdict == STRONGLY_INDUCED))
    assert seen == {("bare", True), ("bare", False), ("rebias", True), ("contract", True)}


@pytest.mark.parametrize(
    "sub, old, new, verdict",
    [
        # dropping {a,b,x} splits the star of x on the edge ab into {a} and {b}: the
        # violation {x} is a face of the removed facet and of no added one
        (
            [["a", "b"]],
            [["a", "b", "x"], ["a", "x", "y"], ["b", "x", "z"]],
            [["a", "b"], ["a", "x", "y"], ["b", "x", "z"]],
            INDUCED,
        ),
        # adding the edge between two sub vertices leaves the pair not induced
        ([[1], [2]], [[1, 4], [2, 5], [4, 5]], [[1, 2], [1, 4], [2, 5], [4, 5]], NOT_INDUCED),
        # the removed facet {a,b,x} has the trace {a,b}, a face of sub, and dropping it
        # splits the star of x into {a} and {b}: a removed facet takes no dominance test
        (
            [["a", "b", "c"]],
            [["a", "b", "c"], ["a", "b", "x"], ["a", "x", "y"], ["b", "x", "z"]],
            [["a", "b", "c"], ["a", "x", "y"], ["b", "x", "z"]],
            INDUCED,
        ),
    ],
)
def test_change_set_scan_on_hand_made_changes(sub, old, new, verdict):
    # changes outside the move types that keep the conditions in `_StrongScan`:
    # no face of the subcomplex is lost or gained
    sub, old, new = from_facets(sub), from_facets(old), from_facets(new)
    assert classify_pair(sub, old).verdict == STRONGLY_INDUCED
    changed = (old.facets - new.facets) | (new.facets - old.facets)
    assert _scans_the_change(sub, new, changed)
    for inc in _incidences(new):
        got = _classify_change(sub, new, changed, inc)
        assert got.verdict == verdict
        assert got == classify_pair(sub, new)
        assert _StrongScan(sub, new, changed, inc).witness() == is_strongly_induced(sub, new)


def test_change_set_scan_checks_the_sub_facets_it_can_see():
    # a sub facet that meets the changed facets and is no ambient face is caught;
    # the error names it exactly as the full scan does
    sub, ambient = from_facets([[1, 2], [2, 3]]), from_facets([[1, 2], [2, 4], [3, 4]])
    changed = {Simplex.of([2, 4]), Simplex.of([3, 4])}
    assert _scans_the_change(sub, ambient, changed)
    checks = [lambda sub, ambient, inc=inc: _classify_change(sub, ambient, changed, inc) for inc in _incidences(ambient)]
    for check in [classify_pair, *checks]:
        with pytest.raises(NotASubcomplexError) as err:
            check(sub, ambient)
        assert str(err.value) == "facet {2,3} of the subcomplex is not a face of the ambient complex"


# -- trace dominance and the prefilter: what they pass, `single` passes -----------------

def _scans(kind: str, dim: int, seed: int):
    """The full scan of a pair from `_random_pair` or `_local_pair`, or both the
    change-set and the full scan of a pair from `_moved_pair`."""
    if kind in ("bare", "rebias", "contract"):
        moved = _moved_pair(kind, dim, seed)
        return [] if moved is None else [_StrongScan(*moved), _StrongScan(*moved[:2])]
    local = kind in ("biased", "derived", "subdivided")
    return [_StrongScan(*(_local_pair if local else _random_pair)(kind, dim, seed))]


def _dominance_cases(scan):
    """(facet, away, skipped) for each scanned facet that takes the dominance
    test, with whether the prefilter skips it (leaves it out of `_walks`)."""
    walked = {frozenset(facet) for facet, _, _ in scan._walks()}
    for facet, trace, dominated in scan.scope:
        if dominated:
            yield facet, scan.away(trace), frozenset(facet) not in walked


@given(
    st.sampled_from(
        ["subcomplex", "induced", "strong", "biased", "derived", "subdivided", "bare", "rebias", "contract"]
    ),
    st.integers(1, 4),
    st.integers(0, 10_000),
)
@settings(max_examples=90, deadline=None)
def test_dominance_and_prefilter_pass_only_what_single_passes(kind, dim, seed):
    for scan in _scans(kind, dim, seed):
        for facet, away, skipped in _dominance_cases(scan):
            for k in range(1, len(facet) + 1):
                for face in itertools.combinations(facet, k):
                    support = scan.support(face)
                    if not support & away:
                        assert scan.single(support)
                    if skipped:
                        # no face of a skipped facet is a violation
                        assert Simplex(face) in scan.sub or scan.single(support)


def test_dominance_sources_reach_skipped_and_walked_facets():
    # the sources behind the property test above give facets the prefilter skips
    # and facets it walks, in full scans and in scans that take the change-set path
    seen = set()
    for seed in range(12):
        for kind in ("biased", "derived", "subdivided"):
            (scan,) = _scans(kind, 1 + seed % 3, seed)
            seen.update(("full", skipped) for *_, skipped in _dominance_cases(scan))
        for kind in ("bare", "rebias", "contract"):
            moved = _moved_pair(kind, 1 + seed % 3, seed)
            if moved is not None and _scans_the_change(*moved):
                scan = _StrongScan(*moved)
                seen.update(("change", skipped) for *_, skipped in _dominance_cases(scan))
    assert seen == {("full", True), ("full", False), ("change", True), ("change", False)}


# -- the subset walk is bounded ------------------------------------------------------

def test_scan_bound_refuses_a_facet_it_would_walk():
    # the faces in {1,2} of the 21-vertex facet need a walk: {1,2} is no face of sub
    ambient, sub = from_facets([range(1, 22)]), from_facets([[1], [2]])
    for check in (classify_pair, is_strongly_induced, is_induced):
        with pytest.raises(ResourceLimitError) as err:
            check(sub, ambient)
        assert err.value.stats == {"facets": 1, "bound": 2097151, "budget": 2000000}


def test_scan_bound_sums_the_faces_of_every_walked_facet():
    # each 20-vertex facet alone is within the face budget, both together are not
    ambient = from_facets([range(1, 21), [1, 2, *range(21, 39)]])
    sub = from_facets([[1], [2]])
    for check in (classify_pair, is_strongly_induced, is_induced):
        with pytest.raises(ResourceLimitError) as err:
            check(sub, ambient)
        assert err.value.stats == {"facets": 2, "bound": 2097150, "budget": 2000000}
    # one 20-vertex facet passes the budget: its walk is not refused
    (walk,) = _StrongScan(sub, from_facets([range(1, 21)]))._walks()
    assert len(walk[0]) == 20


def test_scan_bound_spares_a_facet_it_does_not_walk():
    # the prefilter skips the 21-vertex facet when no sub vertex lies outside it
    facet = list(range(1, 22))
    assert classify_pair(from_facets([[1, 2]]), from_facets([facet])).verdict == STRONGLY_INDUCED
    # every trace is a face of sub, so `is_induced` walks nothing; the strong
    # checks must walk the facet, as its vertex 21 sees both sub vertices, and
    # refuse before walking any facet, so also when the edge would show that
    sub, ambient = from_facets([[1], [22]]), from_facets([facet, [21, 22]])
    assert is_induced(sub, ambient).verdict == INDUCED
    for check in (classify_pair, is_strongly_induced):
        with pytest.raises(ResourceLimitError):
            check(sub, ambient)


# -- the subcomplex precondition ------------------------------------------------------

@pytest.mark.parametrize(
    "facets, bad",
    [
        # every vertex is in the 4-cycle, but {1,3} and {2,4} are not faces of it
        ([[2, 4], [1, 2], [1, 3]], "{1,3}"),
        # 5 and 7 are not vertices of the 4-cycle
        ([[4, 5], [1, 2], [3, 7]], "{3,7}"),
    ],
)
def test_strong_checks_require_subcomplex(four_cycle, facets, bad):
    sub = from_facets(facets)
    message = f"facet {bad} of the subcomplex is not a face of the ambient complex"
    for check in (classify_pair, is_strongly_induced, pair_new):
        with pytest.raises(NotASubcomplexError) as err:
            check(sub, four_cycle)
        assert str(err.value) == message


def test_empty_sub_is_strongly_induced(four_cycle):
    empty = SimplicialComplex([])
    assert classify_pair(empty, four_cycle).verdict == STRONGLY_INDUCED
    assert is_strongly_induced(empty, four_cycle).verdict == STRONGLY_INDUCED
    assert pair_new(empty, four_cycle).status.verdict == STRONGLY_INDUCED
