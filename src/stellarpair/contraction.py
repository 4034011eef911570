"""Edge contraction: validity testing and execution.

An edge is valid when no missing simplex contains it; contracting a valid
edge is label substitution plus deduplication, and only then is the
quotient a simplicial complex.  Contracting an invalid edge is a hard
error carrying the blocking missing simplices.
"""

from __future__ import annotations

from itertools import combinations

from .complexes import Simplex, SimplicialComplex, _reduce_to_antichain, as_simplex, link
from .errors import AbsentFaceError, DomainError, InvalidEdgeError, MalformedInputError
from .labels import VertexLabel, vlabel


def _check_edge(cx: SimplicialComplex, edge) -> Simplex:
    e = as_simplex(edge)
    if e.dim != 1:
        raise DomainError(f"expected an edge, got {e}")
    if e not in cx:
        raise AbsentFaceError(f"{e} is not an edge of the complex")
    return e


def _blocker_candidates(cx: SimplicialComplex, e: Simplex):
    """Vertex sets containing e whose pairs are all edges of cx."""
    u, v = e
    # common neighbours of u and v, read off their stars; sorted for a stable candidate order
    star_u, star_v = (
        set().union(*cx.facets_containing(Simplex((x,)))) for x in (u, v)
    )
    common = sorted(star_u & star_v - {u, v})
    top_extra = cx.dim  # a missing simplex has dimension <= dim+1, so <= dim extra vertices beyond e
    for size in range(1, max(top_extra, 0) + 1):
        for extra in combinations(common, size):
            yield Simplex(sorted((u, v) + extra))


def _is_missing(cx: SimplicialComplex, s: Simplex) -> bool:
    """True iff s is not a face of the complex but every boundary face of s is."""
    return s not in cx and all(b in cx for b in s.boundary())


def _missing_through(cx: SimplicialComplex, e: Simplex):
    """Missing simplices of the complex that contain the edge e, unordered."""
    return (s for s in _blocker_candidates(cx, e) if _is_missing(cx, s))


def missing_simplices(cx: SimplicialComplex, max_dim: int | None = None) -> set[Simplex]:
    """All minimal non-faces whose full boundary lies in the complex.

    Candidates never exceed dimension dim(cx)+1, since every proper face of a
    missing simplex must be present; `max_dim` can lower that bound.
    """
    top_card = cx.dim + 2 if max_dim is None else min(cx.dim + 2, max_dim + 1)
    verts = cx.vertices()
    shells_by_dim = cx._face_tuples()
    # each candidate is a face (its shell) plus one vertex above the shell's last
    candidates = (
        Simplex(shell + (w,))
        for card in range(2, top_card + 1)
        for shell in shells_by_dim[card - 2]
        for w in verts
        if w > shell[-1]
    )
    return {s for s in candidates if _is_missing(cx, s)}


def blocking_missing_simplices(cx: SimplicialComplex, edge) -> tuple[Simplex, ...]:
    """All missing simplices of the complex that contain the given edge."""
    e = _check_edge(cx, edge)
    return tuple(sorted(_missing_through(cx, e), key=Simplex.sort_key))


def is_valid_edge(cx: SimplicialComplex, edge) -> bool:
    """True iff no missing simplex of the complex contains the edge."""
    e = _check_edge(cx, edge)
    return next(_missing_through(cx, e), None) is None


def link_condition(cx: SimplicialComplex, edge) -> bool:
    """Classical diagnostic: lk(u) intersect lk(v) equals lk(uv).

    Equivalent to `is_valid_edge`; kept as an independent oracle.
    """
    e = _check_edge(cx, edge)
    u, v = e
    faces_u, faces_v, faces_e = (set().union(*link(cx, s)._face_tuples().values()) for s in ([u], [v], e))
    return faces_u & faces_v == faces_e


def _substitute(cx: SimplicialComplex, e: Simplex, keep: VertexLabel) -> SimplicialComplex:
    """Replace the other endpoint `lose` of e by `keep` everywhere.

    Only the facets at the edge are reduced: the images of the facets
    holding `lose`, and the facets holding `keep` but not `lose`.  The
    reduction collapses degenerate images and merges duplicates.  Every
    other facet g passes through as it is, since no image I = F - lose + keep
    can dominate it or be dominated by it.  I holds `keep` and g does not,
    so g cannot contain I, and g ⊆ I would give g ⊆ F - lose ⊆ F, with
    g ≠ F because F holds `lose` and g does not; the facets of `cx` form an
    antichain, so that is impossible.
    """
    lose = e[1] if keep == e[0] else e[0]
    at_edge: list[Simplex] = []
    rest: list[Simplex] = []
    for f in cx.facets:
        if lose in f:
            at_edge.append(Simplex(sorted(set(f) - {lose} | {keep})))
        elif keep in f:
            at_edge.append(f)
        else:
            rest.append(f)
    return SimplicialComplex._from_antichain(_reduce_to_antichain(at_edge).union(rest))


def contract_edge(cx: SimplicialComplex, edge, survivor=None) -> SimplicialComplex:
    """Contract a valid edge: the non-surviving label is replaced by the
    survivor everywhere, degenerate images collapse, duplicates merge."""
    e = _check_edge(cx, edge)
    blockers = tuple(sorted(_missing_through(cx, e), key=Simplex.sort_key))
    if blockers:
        raise InvalidEdgeError(e, blockers)
    keep: VertexLabel = e[0] if survivor is None else vlabel(survivor)
    if keep not in e:
        raise MalformedInputError(f"survivor {keep} is not an endpoint of {e}")
    return _substitute(cx, e, keep)
