"""Canonical labeling and isomorphism testing for desk-scale complexes.

Backtracking individualization-refinement over the vertex/facet incidence
structure, with orbit pruning from automorphisms discovered at equal
leaves.  `canonical_labeling` is the one labeling entry point: it
returns the form, the rank map realizing it and those automorphisms,
for callers that prune by symmetry (the search drops a successor that
an automorphism of its parent maps onto an earlier sibling), and
`canonical_form` and `isomorphism` are built on it.  Intended for small
complexes; a vertex guard raises ResourceLimitError beyond it.
`_signature` is a cheap isomorphism invariant read off the incidences,
for callers that can rule out most pairs before labeling either.  The
vertex degrees and the orbit union-find come from `complexes`.
"""

from __future__ import annotations

from .complexes import Simplex, SimplicialComplex, _degrees, _UnionFind, f_vector
from .errors import ResourceLimitError
from .labels import VertexLabel

DEFAULT_VERTEX_GUARD = 16
_LEAF_BUDGET = 50_000

CanonicalForm = tuple[tuple[int, ...], ...]
# a canonical form, the vertex -> canonical-index map realizing it, and automorphisms
Labeling = tuple[CanonicalForm, dict[VertexLabel, int], list[dict[VertexLabel, VertexLabel]]]


def _refine(colors: list[int], facet_members: list[tuple[int, ...]], facets_of: list[tuple[int, ...]]) -> list[int]:
    """Stable color refinement on the bipartite vertex/facet incidence graph.

    Each facet signature is replaced by its rank among the distinct
    signatures; the rank is strictly monotone, so the vertex signatures
    sort, and the new colors come out, exactly as with the signatures."""
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


def _leaf_form(colors: list[int], facet_members: list[tuple[int, ...]]) -> tuple[CanonicalForm, list[int]]:
    order = sorted(range(len(colors)), key=lambda v: colors[v])
    rank = [0] * len(colors)
    for pos, v in enumerate(order):
        rank[v] = pos
    form = tuple(sorted(tuple(sorted(rank[v] for v in members)) for members in facet_members))
    return form, rank


def _signature(cx: SimplicialComplex) -> tuple:
    """An isomorphism invariant from the incidences alone: with d(v) the
    number of facets holding v and s(F) the sorted degrees over F, the
    sorted (d(v), sorted s(F) over the facets F at v) over the vertices.
    Isomorphic complexes have equal signatures; the converse can fail."""
    deg = _degrees(cx)
    at: dict[VertexLabel, list[tuple[int, ...]]] = {v: [] for v in deg}
    for f in cx.facets:
        s = tuple(sorted([deg[v] for v in f]))
        for v in f:
            at[v].append(s)
    return tuple(sorted([(deg[v], tuple(sorted(ss))) for v, ss in at.items()]))


def canonical_labeling(cx: SimplicialComplex, *, guard: int = DEFAULT_VERTEX_GUARD) -> Labeling:
    """The canonical form, the vertex -> canonical-index map realizing it,
    and the automorphisms proved at equal leaves, each a vertex -> vertex
    map carrying the facets onto the facets.  They generate a subgroup of
    the automorphism group, not always all of it."""
    verts = cx.vertices()
    n = len(verts)
    if n > guard:
        raise ResourceLimitError(
            f"complex has {n} vertices, above the isomorphism guard of {guard}",
            vertices=n,
            guard=guard,
        )
    vid = {v: i for i, v in enumerate(verts)}
    facet_members = [tuple(vid[v] for v in f) for f in cx.sorted_facets()]
    facets_of: list[list[int]] = [[] for _ in range(n)]
    for i, members in enumerate(facet_members):
        for v in members:
            facets_of[v].append(i)
    facets_of_t = [tuple(ids) for ids in facets_of]

    if n == 0:
        return (), {}, []

    base = _refine([0] * n, facet_members, facets_of_t)

    best: list = [None, None]  # form, rank
    orbits = _UnionFind(n)
    automorphisms: list[dict[VertexLabel, VertexLabel]] = []
    leaves_seen: dict[CanonicalForm, list[int]] = {}
    leaf_count = 0

    def visit(colors: list[int]) -> None:
        nonlocal leaf_count
        classes: dict[int, list[int]] = {}
        for v in range(n):
            classes.setdefault(colors[v], []).append(v)
        target = None
        for color in sorted(classes):
            if len(classes[color]) > 1:
                target = classes[color]
                break
        if target is None:
            leaf_count += 1
            if leaf_count > _LEAF_BUDGET:
                raise ResourceLimitError("canonical labeling leaf budget exceeded", leaves=leaf_count)
            form, rank = _leaf_form(colors, facet_members)
            prior = leaves_seen.get(form)
            if prior is not None:
                # equal forms certify an automorphism; keep it and fold it into the orbits
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
        tried: list[int] = []
        for u in target:
            if any(orbits.find(u) == orbits.find(t) for t in tried):
                continue
            tried.append(u)
            branched = list(colors)
            branched[u] = -1  # individualize: strictly smallest color
            visit(_refine(branched, facet_members, facets_of_t))

    visit(base)
    rank = best[1]
    return best[0], {verts[v]: rank[v] for v in range(n)}, automorphisms


def canonical_form(cx: SimplicialComplex, *, guard: int = DEFAULT_VERTEX_GUARD) -> CanonicalForm:
    """A label-independent fingerprint: equal forms iff isomorphic complexes."""
    return canonical_labeling(cx, guard=guard)[0]


def _compose(
    a: SimplicialComplex,
    rank_a: dict[VertexLabel, int],
    b: SimplicialComplex,
    rank_b: dict[VertexLabel, int],
) -> dict[VertexLabel, VertexLabel]:
    """The isomorphism a -> b through the rank maps of two equal canonical forms."""
    by_rank = {i: v for v, i in rank_b.items()}
    mapping = {v: by_rank[i] for v, i in rank_a.items()}
    # paranoia: the composed map must carry facets onto facets
    image = frozenset(
        Simplex(sorted(mapping[v] for v in f)) for f in a.facets
    )
    if image != b.facets:
        raise AssertionError("canonical labeling produced an inconsistent bijection")
    return mapping


def isomorphism(
    a: SimplicialComplex,
    b: SimplicialComplex,
    *,
    guard: int = DEFAULT_VERTEX_GUARD,
) -> dict[VertexLabel, VertexLabel] | None:
    """A vertex bijection carrying the facets of `a` onto the facets of `b`, or None."""
    for cx in (a, b):
        if cx.num_vertices() > guard:
            raise ResourceLimitError(
                f"complex has {cx.num_vertices()} vertices, above the isomorphism guard of {guard}",
                vertices=cx.num_vertices(),
                guard=guard,
            )
    if a.facets == b.facets:
        return {v: v for v in a.vertex_set()}
    if a.num_vertices() != b.num_vertices() or f_vector(a) != f_vector(b):
        return None
    form_a, rank_a, _ = canonical_labeling(a, guard=guard)
    form_b, rank_b, _ = canonical_labeling(b, guard=guard)
    if form_a != form_b:
        return None
    return _compose(a, rank_a, b, rank_b)
