from __future__ import annotations

import gc
import json
import random
import tracemalloc
from collections import deque
from itertools import combinations, permutations, product

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from stellarpair import (
    EMPTY_SIMPLEX,
    Simplex,
    SimplicialComplex,
    as_simplex,
    biased_derived,
    canonical_form,
    contract_edge,
    derived_subdivision,
    edge_subdivide,
    euler_characteristic,
    f_vector,
    from_facets,
    is_pseudomanifold,
    is_subcomplex,
    is_valid_edge,
    isomorphism,
    link,
    relabel_complex,
    set_debug_validation,
    star,
    vlabel,
)
from stellarpair import canonical
from stellarpair.canonical import _signature
from stellarpair.complexes import _face_set, _require_subcomplex, _UnionFind
from stellarpair.errors import (
    AbsentFaceError,
    MalformedInputError,
    NotASubcomplexError,
    ResourceLimitError,
    StellarPairError,
)
from stellarpair.io import random_complex


# -- strategies ---------------------------------------------------------

LABELS = [str(i) for i in range(1, 7)]

facet_lists = st.lists(
    st.sets(st.sampled_from(LABELS), min_size=1, max_size=4),
    min_size=1,
    max_size=8,
)


def build(facets) -> SimplicialComplex:
    return from_facets([sorted(f) for f in facets])


# -- constructors -------------------------------------------------------

def test_from_facets_path():
    cx = from_facets([[1, 2], [2, 3]])
    assert {f.tokens() for f in cx.facets} == {("1", "2"), ("2", "3")}
    faces = {s.tokens() for group in cx.faces().values() for s in group}
    assert faces == {("1",), ("2",), ("3",), ("1", "2"), ("2", "3")}


def test_from_facets_absorbs_dominated():
    cx = from_facets([[1, 2, 3], [1, 2]])
    assert {f.tokens() for f in cx.facets} == {("1", "2", "3")}


def test_from_facets_rejects_duplicate_label():
    with pytest.raises(MalformedInputError):
        from_facets([[1, 1, 2]])


def test_from_facets_rejects_empty_facet():
    with pytest.raises(MalformedInputError):
        from_facets([[]])


def test_empty_simplex_is_internal_only():
    assert EMPTY_SIMPLEX.dim == -1
    assert len(EMPTY_SIMPLEX) == 0
    cx = from_facets([[1]])
    assert EMPTY_SIMPLEX in cx  # contained everywhere, never stored


def test_equality_is_by_facet_set():
    a = from_facets([[1, 2], [2, 3]])
    b = from_facets([[2, 3], [1, 2], [2]])
    assert a == b and hash(a) == hash(b)
    assert a != from_facets([[1, 2]])


@given(st.integers(0, 400), st.integers(-1, 4))
@settings(max_examples=80, deadline=None)
def test_faces_match_brute_enumeration_by_dimension(seed, max_dim):
    # max_dim -1 stands for the empty complex
    cx = random_complex(7, max_dim, 0.5, seed) if max_dim >= 0 else SimplicialComplex([])
    brute = oracles.all_faces_brute(cx)
    expected: dict[int, set[Simplex]] = {}
    for s in brute:
        expected.setdefault(s.dim, set()).add(s)
    assert cx.faces() == {d: frozenset(g) for d, g in expected.items()}
    assert list(cx.faces()) == list(range(cx.dim + 1))
    assert f_vector(cx) == tuple(len(expected[d]) for d in range(len(expected)))
    assert cx.face_count() == len(brute)
    assert _face_set(cx.facets) == brute


# -- star / link --------------------------------------------------------

def test_star_simplex_in_every_facet():
    cx = from_facets([[1, 2, 3], [1, 3, 4]])
    assert star(cx, [1, 3]) == cx


def test_star_vertex_on_path():
    cx = from_facets([[1, 2], [2, 3], [3, 4]])
    assert star(cx, [1]) == from_facets([[1, 2]])


def test_star_derived_example_matches_enumeration_oracle():
    cx = from_facets([[1, 2, 3], [1, 3, 4]])
    expected = oracles.star_by_enumeration(cx, [2])
    assert expected == from_facets([[1, 2, 3]])  # frozen from the oracle
    assert star(cx, [2]) == expected


def test_star_absent_face():
    with pytest.raises(AbsentFaceError):
        star(from_facets([[1, 2]]), [3])


def test_link_examples(tetra_boundary):
    assert link(from_facets([[1, 2, 3], [1, 3, 4]]), [1, 3]) == from_facets([[2], [4]])
    assert link(from_facets([[1, 2], [2, 3]]), [2]) == from_facets([[1], [3]])
    expected = oracles.link_by_enumeration(tetra_boundary, [1, 2])
    assert expected == from_facets([[3], [4]])  # frozen from the oracle
    assert link(tetra_boundary, [1, 2]) == expected


@given(facet_lists)
@settings(max_examples=60)
def test_star_link_relationship(facets):
    cx = build(facets)
    for group in cx.faces().values():
        for s in group:
            st_ = star(cx, s)
            assert is_subcomplex(st_, cx)
            assert s in st_
            lk = link(cx, s)
            expected = {
                t
                for g in st_.faces().values()
                for t in g
                if not (t._vset & s._vset)
            }
            got = {t for g in lk.faces().values() for t in g}
            assert got == expected


# -- f-vector / Euler characteristic -------------------------------------

def test_f_vector_examples(triangle, tetra_boundary, four_cycle):
    assert f_vector(triangle) == (3, 3, 1)
    assert euler_characteristic(triangle) == 1
    assert f_vector(tetra_boundary) == (4, 6, 4)
    assert euler_characteristic(tetra_boundary) == 2
    assert f_vector(four_cycle) == (4, 4)
    assert euler_characteristic(four_cycle) == 0


def test_f_vector_empty_and_points():
    assert f_vector(SimplicialComplex([])) == ()
    assert euler_characteristic(SimplicialComplex([])) == 0
    assert f_vector(from_facets([[1], [2]])) == (2,)


# -- subcomplex ----------------------------------------------------------

def test_is_subcomplex_examples(four_cycle):
    assert is_subcomplex(from_facets([[1, 2]]), from_facets([[1, 2, 3]]))
    assert not is_subcomplex(from_facets([[1, 4]]), from_facets([[1, 2, 3]]))
    ambient = from_facets([[1, 2], [2, 3], [3, 4], [1, 4], [2, 4]])
    assert is_subcomplex(four_cycle, ambient)
    # a few hundred sub facets in a derived ambient, then one facet more that
    # is no ambient face: {1,2} is not an edge once 1 and 2 are derived apart
    ambient = _thrice_derived_tetra_boundary()
    sub = SimplicialComplex._from_antichain(sorted(ambient.facets)[::2])
    bad_sub = SimplicialComplex([*sub.facets, Simplex.of([1, 2, 3])])
    assert len(sub.facets) == 432 and len(bad_sub.facets) == 433
    for s in (sub, bad_sub):
        assert is_subcomplex(s, ambient) == all(f in ambient for f in s.facets)
    assert is_subcomplex(sub, ambient) and not is_subcomplex(bad_sub, ambient)
    bad = next(f for f in bad_sub.sorted_facets() if f not in ambient)
    with pytest.raises(NotASubcomplexError) as err:
        biased_derived(bad_sub, ambient)
    assert str(err.value) == f"facet {bad} of the subcomplex is not a face of the ambient complex"


def test_is_subcomplex_answers_on_a_facet_above_the_face_budget():
    # 2^26 - 1 faces are over the face budget, but the test walks none of them
    facet = from_facets([range(1, 27)])
    assert is_subcomplex(facet, facet)
    assert not is_subcomplex(from_facets([[1, 27]]), facet)


@given(facet_lists, st.lists(st.sets(st.sampled_from(LABELS + ["7", "8"]), min_size=1, max_size=4), max_size=5))
@settings(max_examples=200)
def test_is_subcomplex_matches_facet_containment(ambient_facets, sub_facets):
    # sub vertices 7 and 8 lie outside every ambient
    ambient, sub = build(ambient_facets), build(sub_facets)
    expected = all(any(set(g) <= set(f) for f in ambient.facets) for g in sub.facets)
    assert is_subcomplex(sub, ambient) == expected
    if expected:
        _require_subcomplex(sub, ambient)
    else:
        with pytest.raises(NotASubcomplexError):
            _require_subcomplex(sub, ambient)


# -- isomorphism ----------------------------------------------------------

def test_isomorphism_paths():
    a = from_facets([[1, 2], [2, 3]])
    b = from_facets([["a", "b"], ["b", "c"]])
    iso = isomorphism(a, b)
    assert iso is not None
    assert iso[vlabel("2")] == vlabel("b")  # the middle vertex must map to the middle


def test_isomorphism_connected_vs_disconnected():
    assert isomorphism(from_facets([[1, 2], [2, 3]]), from_facets([["a", "b"], ["c", "d"]])) is None


def test_isomorphism_tetra_vs_octahedron(tetra_boundary, octahedron_boundary):
    assert f_vector(tetra_boundary) == (4, 6, 4)
    assert f_vector(octahedron_boundary) == (6, 12, 8)
    assert isomorphism(tetra_boundary, octahedron_boundary) is None


def test_isomorphism_size_guard():
    big = from_facets([[i] for i in range(1, 30)])
    with pytest.raises(ResourceLimitError):
        isomorphism(big, big, guard=12)


@given(facet_lists, st.permutations(LABELS))
@settings(max_examples=60)
def test_isomorphism_pushes_facets_through(facets, shuffled):
    cx = build(facets)
    mapping = {old: f"w{new}" for old, new in zip(LABELS, shuffled)}
    relabeled = relabel_complex(cx, mapping)
    assert f_vector(relabeled) == f_vector(cx)
    assert euler_characteristic(relabeled) == euler_characteristic(cx)
    iso = isomorphism(cx, relabeled)
    assert iso is not None
    pushed = frozenset(
        Simplex(tuple(sorted(iso[v] for v in f.vertices))) for f in cx.facets
    )
    assert pushed == relabeled.facets
    # reflexivity and symmetry
    assert isomorphism(cx, cx) is not None
    assert (isomorphism(relabeled, cx) is None) == (iso is None)


def test_isomorphism_highly_symmetric(octahedron_boundary):
    rotated = relabel_complex(octahedron_boundary, {"1": "2", "2": "6", "6": "5", "5": "1"})
    assert isomorphism(octahedron_boundary, rotated) is not None


def test_canonical_form_pinned(tetra_boundary, octahedron_boundary, four_cycle):
    assert canonical_form(tetra_boundary) == ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3))
    assert canonical_form(octahedron_boundary) == (
        (0, 1, 2), (0, 1, 5), (0, 2, 4), (0, 4, 5), (1, 2, 3), (1, 3, 5), (2, 3, 4), (3, 4, 5),
    )
    assert canonical_form(four_cycle) == ((0, 1), (0, 3), (1, 2), (2, 3))
    assert canonical_form(random_complex(6, 2, 0.5, 7)) == (
        (0, 1), (0, 2, 4), (0, 2, 5), (0, 3, 4), (1, 2, 5), (1, 3, 4), (1, 3, 5), (1, 4, 5),
    )


def _brute_isomorphic(a: SimplicialComplex, b: SimplicialComplex) -> bool:
    """Whether some bijection of the vertices carries the facets of `a` onto
    those of `b`, tried one vertex permutation at a time."""
    va, vb = a.vertices(), b.vertices()
    if len(va) != len(vb):
        return False
    for image in permutations(vb):
        mapping = dict(zip(va, image))
        if frozenset(Simplex(sorted(mapping[v] for v in f)) for f in a.facets) == b.facets:
            return True
    return False


@given(facet_lists, facet_lists, st.permutations(LABELS))
@settings(max_examples=60, deadline=None)
def test_canonical_form_decides_isomorphism(facets, other, shuffled):
    cx = build(facets)
    relabeled = relabel_complex(cx, {old: f"w{new}" for old, new in zip(LABELS, shuffled)})
    assert canonical_form(relabeled) == canonical_form(cx)
    b = build(other)
    assert (canonical_form(cx) == canonical_form(b)) == _brute_isomorphic(cx, b)


@given(
    st.integers(3, 7),
    st.integers(1, 3),
    st.sampled_from((0.3, 0.5, 0.7)),
    st.integers(0, 10_000),
    st.randoms(use_true_random=False),
)
@settings(max_examples=80, deadline=None)
def test_signature_is_an_isomorphism_invariant(n, dim, density, seed, rng):
    cx = random_complex(n, dim, density, seed)
    names = [f"w{i}" for i in range(n)]
    rng.shuffle(names)
    relabeled = relabel_complex(cx, dict(zip(cx.vertices(), names)))
    assert _signature(relabeled) == _signature(cx)
    # small complexes of one dimension often share a form: then they share a signature
    other = random_complex(n, dim, density, seed + 1)
    if canonical_form(other) == canonical_form(cx):
        assert _signature(other) == _signature(cx)


def test_signature_separates_degrees_but_not_every_pair():
    # the two-edge path has a vertex in two facets; two disjoint edges have none
    assert _signature(from_facets([[1, 2], [2, 3]])) != _signature(from_facets([[1, 2], [3, 4]]))
    # every vertex of a six-cycle and of two triangles lies in two facets of
    # two vertices each: equal signatures, yet not isomorphic
    six = from_facets([[1, 2], [2, 3], [3, 4], [4, 5], [5, 6], [1, 6]])
    two = from_facets([[1, 2], [2, 3], [1, 3], [4, 5], [5, 6], [4, 6]])
    assert _signature(six) == _signature(two)
    assert canonical_form(six) != canonical_form(two)


def test_canonical_labeling_leaf_budget(monkeypatch, tetra_boundary):
    # the tetrahedron boundary's symmetry leaves two leaves at the last branching
    monkeypatch.setattr(canonical, "_LEAF_BUDGET", 1)
    with pytest.raises(ResourceLimitError) as exc:
        canonical_form(tetra_boundary)
    assert exc.value.stats == {"leaves": 2}


# -- labeling oracle: the plain refinement and search the library's fast paths must reproduce


def _oracle_refine(colors, facet_members, facets_of):
    n = len(colors)
    while True:
        fsig = [
            (len(members), tuple(sorted([colors[v] for v in members])))
            for members in facet_members
        ]
        franking = {sig: i for i, sig in enumerate(sorted(set(fsig)))}
        fcolors = [franking[s] for s in fsig]
        vsig = [
            (colors[v], tuple(sorted([fcolors[i] for i in facets_of[v]])))
            for v in range(n)
        ]
        ranking = {sig: i for i, sig in enumerate(sorted(set(vsig)))}
        new_colors = [ranking[s] for s in vsig]
        if len(set(new_colors)) == len(set(colors)):
            return new_colors
        colors = new_colors


def _oracle_leaf_form(colors, facet_members):
    order = sorted(range(len(colors)), key=lambda v: colors[v])
    rank = [0] * len(colors)
    for pos, v in enumerate(order):
        rank[v] = pos
    form = tuple(sorted(tuple(sorted(rank[v] for v in members)) for members in facet_members))
    return form, rank


def oracle_labeling(cx):
    """`canonical_labeling` as it was before its exact fast paths: the form,
    the rank map and the automorphisms, in the order they were found."""
    verts = cx.vertices()
    n = len(verts)
    vid = {v: i for i, v in enumerate(verts)}
    facet_members = [tuple(vid[v] for v in f) for f in cx.sorted_facets()]
    facets_of = [[] for _ in range(n)]
    for i, members in enumerate(facet_members):
        for v in members:
            facets_of[v].append(i)
    facets_of_t = [tuple(ids) for ids in facets_of]
    if n == 0:
        return (), {}, []
    base = _oracle_refine([0] * n, facet_members, facets_of_t)
    best = [None, None]
    orbits = _UnionFind(n)
    automorphisms = []
    leaves_seen = {}

    def visit(colors):
        classes = {}
        for v in range(n):
            classes.setdefault(colors[v], []).append(v)
        target = None
        for color in sorted(classes):
            if len(classes[color]) > 1:
                target = classes[color]
                break
        if target is None:
            form, rank = _oracle_leaf_form(colors, facet_members)
            prior = leaves_seen.get(form)
            if prior is not None:
                inv_prior = [0] * n
                for v in range(n):
                    inv_prior[prior[v]] = v
                for v in range(n):
                    orbits.union(v, inv_prior[rank[v]])
                automorphisms.append({verts[v]: verts[inv_prior[rank[v]]] for v in range(n)})
            else:
                leaves_seen[form] = rank
            if best[0] is None or form < best[0]:
                best[0] = form
                best[1] = rank
            return
        tried = []
        for u in target:
            if any(orbits.find(u) == orbits.find(t) for t in tried):
                continue
            tried.append(u)
            branched = list(colors)
            branched[u] = -1
            visit(_oracle_refine(branched, facet_members, facets_of_t))

    visit(base)
    rank = best[1]
    return best[0], {verts[v]: rank[v] for v in range(n)}, automorphisms


def _graph(n, edges):
    """The 1-dimensional complex on vertices 0..n-1 with these edges."""
    return from_facets([sorted(map(str, e)) for e in edges] + [[str(v)] for v in range(n)])


def _symmetric_complexes():
    """Complexes whose labeling branches below the root: disjoint unions of
    equal cycles, circulants C_n(a, b), K_{n,n} and the octahedron boundary."""
    for m, k in [(3, 2), (3, 3), (4, 2), (4, 3), (5, 2), (5, 3), (6, 2), (7, 2), (8, 2)]:
        yield f"{k}C{m}", _graph(m * k, [(c * m + i, c * m + (i + 1) % m) for c in range(k) for i in range(m)])
    for n in range(5, 13):
        for a in range(1, n // 2 + 1):
            for b in range(a + 1, n // 2 + 1):
                yield f"C{n}({a},{b})", _graph(n, [(i, (i + s) % n) for i in range(n) for s in (a, b)])
    for n in range(2, 6):
        yield f"K{n},{n}", _graph(2 * n, [(i, n + j) for i in range(n) for j in range(n)])
    yield "octahedron", from_facets(
        [[1, 2, 3], [1, 2, 4], [1, 5, 3], [1, 5, 4], [6, 2, 3], [6, 2, 4], [6, 5, 3], [6, 5, 4]]
    )


def _relabeled(cx, rng):
    names = [f"w{i}" for i in range(cx.num_vertices())]
    rng.shuffle(names)
    return relabel_complex(cx, dict(zip(cx.vertices(), names)))


@given(
    st.integers(3, 12),
    st.integers(1, 3),
    st.sampled_from((0.3, 0.5, 0.7)),
    st.integers(0, 10_000),
    st.randoms(use_true_random=False),
)
@settings(max_examples=150, deadline=None)
def test_labeling_matches_the_oracle_on_random_complexes(n, dim, density, seed, rng):
    cx = random_complex(n, dim, density, seed)
    labeling = canonical.canonical_labeling(cx)
    assert labeling == oracle_labeling(cx)
    relabeled = _relabeled(cx, rng)
    assert canonical.canonical_labeling(relabeled) == oracle_labeling(relabeled)
    assert canonical_form(relabeled) == labeling[0]


SYMMETRIC = list(_symmetric_complexes())


@pytest.mark.parametrize("name, cx", SYMMETRIC, ids=[name for name, _ in SYMMETRIC])
def test_labeling_matches_the_oracle_on_symmetric_complexes(name, cx):
    labeling = canonical.canonical_labeling(cx)
    assert labeling == oracle_labeling(cx)
    assert labeling[2], f"{name}: the labeling should branch below the root and find automorphisms"
    rng = random.Random(name)
    for _ in range(4):
        relabeled = _relabeled(cx, rng)
        assert canonical.canonical_labeling(relabeled) == oracle_labeling(relabeled)
        assert canonical_form(relabeled) == labeling[0]


# -- pseudomanifold --------------------------------------------------------

def test_pseudomanifold_examples(tetra_boundary):
    assert is_pseudomanifold(tetra_boundary, 2)
    assert not is_pseudomanifold(from_facets([[1, 2, 3], [1, 2, 4], [1, 2, 5]]), 2)
    assert not is_pseudomanifold(from_facets([[1, 2, 3], [3, 4, 5]]), 2)


def test_pseudomanifold_edge_cases(four_cycle):
    assert is_pseudomanifold(four_cycle, 1)
    assert is_pseudomanifold(from_facets([[1, 2], [2, 3]]), 1)  # boundary allowed
    assert not is_pseudomanifold(four_cycle, 2)  # wrong dimension
    assert not is_pseudomanifold(SimplicialComplex([]), 2)
    assert is_pseudomanifold(from_facets([[1], [2]]), 0)
    assert not is_pseudomanifold(from_facets([[1], [2], [3]]), 0)


def _pseudomanifold_by_search(cx: SimplicialComplex, d: int) -> bool:
    """The definition: pure of dimension d, each ridge in at most two
    facets, and every facet reached from one by a breadth-first search
    through shared ridges."""
    facets = sorted(cx.facets)
    if not facets or d < 0 or any(len(f) != d + 1 for f in facets):
        return False
    if d == 0:
        return len(facets) <= 2
    at_ridge: dict[tuple, list[int]] = {}
    for i, f in enumerate(facets):
        for r in combinations(f, d):
            at_ridge.setdefault(r, []).append(i)
    if any(len(ids) > 2 for ids in at_ridge.values()):
        return False
    seen, queue = {0}, deque([0])
    while queue:
        for r in combinations(facets[queue.popleft()], d):
            for j in at_ridge[r]:
                if j not in seen:
                    seen.add(j)
                    queue.append(j)
    return len(seen) == len(facets)


@st.composite
def pure_complexes(draw):
    """A pure complex of dimension 0-3: random (d+1)-sets on a few vertices,
    or a disjoint union of simplex boundaries (closed, so only the union's
    strong connectivity can fail), with a few random facets mixed in or not."""
    d = draw(st.integers(0, 3))
    n = draw(st.integers(d + 1, d + 5))
    cells = list(combinations(range(n), d + 1))
    facets = draw(st.lists(st.sampled_from(cells), max_size=10))
    if draw(st.booleans()):
        copies = draw(st.integers(1, 3))
        facets = [f for f in facets if draw(st.booleans())]
        for c in range(copies):
            vertices = [f"c{c}.{v}" for v in range(d + 2)]
            facets += list(combinations(vertices, d + 1))
    return from_facets(facets) if facets else SimplicialComplex([]), d


@given(pure_complexes())
@settings(max_examples=300, deadline=None)
def test_pseudomanifold_matches_ridge_graph_search(drawn):
    cx, d = drawn
    for k in (d - 1, d, d + 1):
        assert is_pseudomanifold(cx, k) == _pseudomanifold_by_search(cx, k)


def test_pseudomanifold_strong_connectivity_oracle():
    # {123,345} is pure with ridge degrees <= 2 but its dual graph is disconnected:
    # the two triangles share only the vertex 3, never a ridge.
    cx = from_facets([[1, 2, 3], [3, 4, 5]])
    ridges = {}
    facets = cx.sorted_facets()
    for i, f in enumerate(facets):
        for r in f.boundary():
            ridges.setdefault(r, []).append(i)
    assert all(len(ids) <= 2 for ids in ridges.values())
    assert not any(len(ids) == 2 for ids in ridges.values())


# -- invariants -------------------------------------------------------------

@given(facet_lists)
@settings(max_examples=60)
def test_constructor_invariants_hold(facets):
    from stellarpair import set_debug_validation

    old = set_debug_validation(True)
    try:
        cx = build(facets)
    finally:
        set_debug_validation(old)
    cx.validate()
    sorted_facets = cx.sorted_facets()
    for i, f in enumerate(sorted_facets):
        for j, g in enumerate(sorted_facets):
            if i != j:
                assert not f.issubset(g)
    # downward closure: every subset of a face is a face
    for group in cx.faces().values():
        for s in group:
            for b in s.boundary():
                if len(b) > 0:
                    assert b in cx


def test_face_cache_is_concurrency_safe():
    from concurrent.futures import ThreadPoolExecutor

    cx = from_facets([[1, 2, 3, 4], [3, 4, 5, 6], [1, 5, 6]])
    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(lambda _: f_vector(cx), range(32)))
    assert len(set(results)) == 1


def test_face_counts_leave_no_faces_behind():
    cx = from_facets([[1, 2, 3], [1, 2, 4], [1, 3, 4], [2, 3, 4]])
    for _ in range(3):
        cx, _ = derived_subdivision(cx)
    assert len(cx.facets) == 864
    gc.collect()
    tracemalloc.start()
    try:
        assert f_vector(cx) == (434, 1296, 864)
        assert euler_characteristic(cx) == 2
        gc.collect()
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the complex is still alive here, so anything it cached would still be traced
    assert held < 16 * 1024


def _thrice_derived_tetra_boundary() -> SimplicialComplex:
    cx = from_facets([[1, 2, 3], [1, 2, 4], [1, 3, 4], [2, 3, 4]])
    for _ in range(3):
        cx, _ = derived_subdivision(cx)
    return cx


def test_local_queries_leave_nothing_behind():
    # a complex stores its facets and its lazy vertex set, nothing else
    assert SimplicialComplex.__slots__ == ("facets", "_vertices")
    cx = _thrice_derived_tetra_boundary()
    assert len(cx.facets) == 864
    edge = Simplex(min(cx.facets)[:2])
    cx.vertex_set()
    gc.collect()
    tracemalloc.start()
    try:
        assert edge in cx
        assert star(cx, edge).facets and link(cx, edge).facets
        assert len(edge_subdivide(cx, edge, "m").facets) == 866
        assert is_valid_edge(cx, edge)
        assert len(contract_edge(cx, edge).facets) == 862
        gc.collect()
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # each query's index or face set lives only as long as the query
    assert held < 16 * 1024


def test_a_facet_costs_no_more_than_its_tuple():
    cx = from_facets([[1, 2, 3], [1, 2, 4], [1, 3, 4], [2, 3, 4]])
    for _ in range(3):
        cx, _ = derived_subdivision(cx)
    tuples = [tuple(f) for f in cx.facets]
    assert len(tuples) == 864
    # measure the facets alone, without the debug re-check
    old = set_debug_validation(False)
    gc.collect()
    tracemalloc.start()
    try:
        rebuilt = SimplicialComplex._from_antichain(Simplex(t) for t in tuples)
        gc.collect()
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        set_debug_validation(old)
    assert rebuilt == cx
    # a tuple of three label pointers plus its frozenset slot: about 110 B
    assert held / len(tuples) < 200


_labels = st.text(alphabet="abc12{},", min_size=1, max_size=3)


@given(st.lists(st.sets(_labels, max_size=5), min_size=1, max_size=6))
def test_simplex_is_its_vertex_tuple(label_sets):
    # no Python-level comparison, hash or membership: each would cost every set lookup
    assert Simplex.__eq__ is tuple.__eq__
    assert Simplex.__hash__ is tuple.__hash__
    assert Simplex.__lt__ is tuple.__lt__
    assert "__contains__" not in vars(Simplex)
    assert 1 not in Simplex.of([1, 2])  # membership compares labels, no int coercion
    simplices = [Simplex.of(labels) for labels in label_sets]
    for labels, s in zip(label_sets, simplices):
        expected = tuple(sorted(labels))
        assert s == expected and hash(s) == hash(expected)
        assert s.vertices == expected and s.tokens() == expected
        assert s._vset == frozenset(expected)
        assert str(s) == "{" + ",".join(expected) + "}"
        assert repr(s) == f"Simplex({list(expected)})"
        assert json.dumps(s) == json.dumps(list(expected))
        assert s.dim == len(expected) - 1
        assert all(v in s and vlabel(v) in s for v in labels)
        assert list(s.boundary()) == [tuple(sorted(labels - {v})) for v in expected]
        assert not hasattr(s, "__dict__")
    for s, t in product(simplices, repeat=2):
        assert s.union(t) == tuple(sorted(set(s) | set(t)))
        assert s.difference(t) == tuple(sorted(set(s) - set(t)))
        assert s.issubset(t) == (set(s) <= set(t))
    ordered = sorted(simplices, key=Simplex.sort_key)
    for a, b in zip(ordered, ordered[1:]):
        assert a.dim < b.dim or (a.dim == b.dim and list(a) <= list(b))


def test_as_simplex_accepts_labels_and_simplices():
    s = as_simplex([3, 1])
    assert s.tokens() == ("1", "3")
    assert as_simplex(s) is s
    assert as_simplex("7").tokens() == ("7",)
    # a lone label is one vertex everywhere, also with more than one character
    assert Simplex.of("12").tokens() == ("12",)
    assert Simplex.of(7).tokens() == ("7",)
    assert from_facets([["1", "2"], ["12", "3"]]).facets_containing("12") == (Simplex.of(["12", "3"]),)


# -- validate -----------------------------------------------------------------

def _validate_message(facets) -> str | None:
    """`validate`'s error message on a trusted (unchecked) facet family, or None."""
    try:
        SimplicialComplex._from_antichain(map(Simplex.of, facets)).validate()
    except StellarPairError as exc:
        return str(exc)
    return None


def _pairwise_validate_message(facets) -> str | None:
    """Reference: the same checks with dominance found by comparing every
    ordered pair of facets in canonical order."""
    family = frozenset(map(Simplex.of, facets))
    if any(len(f) == 0 for f in family):
        return "empty simplex stored as a facet"
    ordered = sorted(family, key=Simplex.sort_key)
    for f in ordered:
        for g in ordered:
            if f is not g and f.issubset(g):
                return f"facet {f} is dominated by {g}"
    return None


def test_validate_reports_dominated_facet():
    assert _validate_message([[1, 2, 3], [1, 2]]) == "facet {1,2} is dominated by {1,2,3}"


def test_validate_reports_empty_facet():
    assert _validate_message([[1, 2], []]) == "empty simplex stored as a facet"


def test_validate_reports_first_of_two_dominated_facets():
    # sorted order: {1,2} < {3,4} < {1,2,5} < {2,3,4} < {1,2,3,4}; {1,2} comes
    # first and {1,2,5} is the first facet containing it
    facets = [[1, 2, 3, 4], [2, 3, 4], [3, 4], [1, 2], [1, 2, 5]]
    assert _validate_message(facets) == "facet {1,2} is dominated by {1,2,5}"
    assert _validate_message(facets[:3]) == "facet {3,4} is dominated by {2,3,4}"


@given(st.lists(st.sets(st.sampled_from(LABELS), max_size=4), min_size=1, max_size=10))
@settings(max_examples=200, deadline=None)
def test_validate_agrees_with_pairwise_dominance(facets):
    # raw families: dominated facets, nested chains and the empty facet all occur
    assert _validate_message(facets) == _pairwise_validate_message(facets)


def test_debug_validation_rechecks_trusted_construction(debug_validation):
    # the debug hook runs validate inside the constructor, trusted path included
    with pytest.raises(StellarPairError, match=r"facet \{1,2\} is dominated by \{1,2,3\}"):
        SimplicialComplex._from_antichain(map(Simplex.of, [[1, 2, 3], [1, 2]]))
