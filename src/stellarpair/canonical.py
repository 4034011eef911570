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

Three facts skip work and change no returned value: a refinement round
giving every vertex its own color is final, a leaf's coloring 0..n-1 is
its rank map, and facet order reaches no output (facet signatures are
ranked through a sorted set, and the form is sorted).
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


def _refine(colors: list[int], facet_members: list[tuple[int, ...]], facets_of: list[list[int]]) -> list[int]:
    """Stable color refinement on the bipartite vertex/facet incidence graph.

    Each facet signature is replaced by its rank among the distinct
    signatures; the rank is strictly monotone, so the vertex signatures
    sort, and the new colors come out, exactly as with the signatures.
    A vertex signature starts with the vertex's color, so a round refines
    the last and is stable when it adds no color.  A discrete round is
    final: its colors are the ranks 0..n-1, which the next round returns
    again (and so a leaf's rank map).  Facet order does not matter: facet
    signatures are ranked through a sorted set, and each vertex sorts its
    facets' colors."""
    n = len(colors)
    count = len(set(colors))
    while True:
        fsig = [(len(members), tuple(sorted(map(colors.__getitem__, members)))) for members in facet_members]
        franking = {sig: i for i, sig in enumerate(sorted(set(fsig)))}
        fcolors = list(map(franking.__getitem__, fsig))
        vsig = [(colors[v], tuple(sorted(map(fcolors.__getitem__, facets_of[v])))) for v in range(n)]
        ranking = {sig: i for i, sig in enumerate(sorted(set(vsig)))}
        colors = list(map(ranking.__getitem__, vsig))
        if len(ranking) in (count, n):
            return colors
        count = len(ranking)


def _signature(cx: SimplicialComplex) -> tuple:
    """An isomorphism invariant from the incidences alone: with d(v) the
    number of facets holding v and s(F) the sorted degrees over F, the
    sorted (d(v), sorted s(F) over the facets F at v) over the vertices.
    Isomorphic complexes have equal signatures; the converse can fail."""
    deg = _degrees(cx)
    at: dict[VertexLabel, list[tuple[int, ...]]] = {v: [] for v in deg}
    for f in cx.facets:
        degs = list(map(deg.__getitem__, f))
        degs.sort()
        s = tuple(degs)
        for v in f:
            at[v].append(s)
    out = []
    for v, ss in at.items():
        ss.sort()
        out.append((deg[v], tuple(ss)))
    out.sort()
    return tuple(out)


def _check_guard(cx: SimplicialComplex, guard: int) -> None:
    """Refuse a complex of more than `guard` vertices with `ResourceLimitError`."""
    n = cx.num_vertices()
    if n > guard:
        raise ResourceLimitError(
            f"complex has {n} vertices, above the isomorphism guard of {guard}",
            vertices=n,
            guard=guard,
        )


def canonical_labeling(cx: SimplicialComplex, *, guard: int = DEFAULT_VERTEX_GUARD) -> Labeling:
    """The canonical form, the vertex -> canonical-index map realizing it,
    and the automorphisms proved at equal leaves, each a vertex -> vertex
    map carrying the facets onto the facets.  They generate a subgroup of
    the automorphism group, not always all of it."""
    _check_guard(cx, guard)
    verts = cx.vertices()
    n = len(verts)
    vid = {v: i for i, v in enumerate(verts)}
    facet_members = [tuple(map(vid.__getitem__, f)) for f in cx.facets]
    facets_of: list[list[int]] = [[] for _ in range(n)]
    for i, members in enumerate(facet_members):
        for v in members:
            facets_of[v].append(i)

    if n == 0:
        return (), {}, []

    base = _refine([0] * n, facet_members, facets_of)

    best: list = [None, None]  # form, rank
    orbits = _UnionFind(n)
    automorphisms: list[dict[VertexLabel, VertexLabel]] = []
    leaves_seen: dict[CanonicalForm, list[int]] = {}
    leaf_count = 0

    def visit(colors: list[int]) -> None:
        nonlocal leaf_count
        counts = [0] * n
        for c in colors:
            counts[c] += 1
        cell = next((c for c, size in enumerate(counts) if size > 1), None)
        if cell is None:
            leaf_count += 1
            if leaf_count > _LEAF_BUDGET:
                raise ResourceLimitError("canonical labeling leaf budget exceeded", leaves=leaf_count)
            rank = colors  # a discrete refinement is its own rank map
            form = tuple(sorted([tuple(sorted(map(rank.__getitem__, members))) for members in facet_members]))
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
        for u in [v for v in range(n) if colors[v] == cell]:
            if any(orbits.find(u) == orbits.find(t) for t in tried):
                continue
            tried.append(u)
            branched = list(colors)
            branched[u] = -1  # individualize: strictly smallest color
            visit(_refine(branched, facet_members, facets_of))

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
    _check_guard(a, guard)
    _check_guard(b, guard)
    if a.facets == b.facets:
        return {v: v for v in a.vertex_set()}
    if a.num_vertices() != b.num_vertices() or f_vector(a) != f_vector(b):
        return None
    form_a, rank_a, _ = canonical_labeling(a, guard=guard)
    form_b, rank_b, _ = canonical_labeling(b, guard=guard)
    if form_a != form_b:
        return None
    return _compose(a, rank_a, b, rank_b)
