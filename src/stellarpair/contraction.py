"""Edge contraction: validity testing and execution.

An edge is valid when no missing simplex contains it; contracting a valid
edge is label substitution plus deduplication, and only then is the
quotient a simplicial complex.  Contracting an invalid edge is a hard
error carrying the blocking missing simplices.

The facets at the edge (those holding an endpoint) decide validity and
carry the whole change, so one pass over the facets splits them off and
every later question reads only them (see `_split`).
"""

from __future__ import annotations

from bisect import bisect_right

from .complexes import (
    _FACE_BUDGET,
    Simplex,
    SimplicialComplex,
    _face_set,
    _facets_at,
    _Incidence,
    _reduce_to_antichain,
    as_simplex,
    link,
)
from .errors import AbsentFaceError, DomainError, InvalidEdgeError, MalformedInputError, ResourceLimitError
from .labels import VertexLabel, vlabel


def _split(cx: SimplicialComplex, edge, inc: _Incidence | None = None) -> tuple[Simplex, list[Simplex]]:
    """The edge and the facets at it (those holding an endpoint): one filter,
    or read off `inc`, the incidence of `cx`, when given (`_facets_at`).

    Every question about a face holding an endpoint has the same answer in
    the facets at the edge as in the whole complex, since every facet
    containing such a face holds that endpoint.  Validity asks only such
    questions:
    - whether the edge itself is a face;
    - whether a candidate s ⊇ e, or a boundary face s - x of it, is a face:
      s - x still holds an endpoint, since x is at most one of them;
    - the neighbours of an endpoint: the vertices of the facets holding it.
    The substitution changes only facets at the edge, so its edit holds
    just them (`_contraction`).
    """
    e = as_simplex(edge)
    if e.dim != 1:
        raise DomainError(f"expected an edge, got {e}")
    u, v = e
    at_edge = [f for f in cx.facets if u in f or v in f] if inc is None else list(_facets_at(cx, e, inc))
    if not any(u in f and v in f for f in at_edge):
        raise AbsentFaceError(f"{e} is not an edge of the complex")
    return e, at_edge


def _missing_through(e: Simplex, at_edge: list[Simplex]):
    """Missing simplices of the complex that contain the edge e, unordered,
    from the facets at e (see `_split`).

    Every proper face of a missing simplex s ⊇ e is a face, so s grows from
    e through faces: each round extends the faces found in the last one by
    a larger common neighbour of the endpoints, keeps the extensions that
    are faces and yields those whose boundary is present.  The rounds stop
    when no extension is a face, past the dimension of the facets at e.
    """
    u, v = e
    faces = _face_set(at_edge)
    near_u = {w for f in at_edge if u in f for w in f}
    near_v = {w for f in at_edge if v in f for w in f}
    common = sorted(near_u & near_v - {u, v})
    level: list[tuple[VertexLabel, ...]] = [()]
    while level:
        grown = []
        for extra in level:
            for w in common:
                if extra and w <= extra[-1]:
                    continue
                s = Simplex(sorted((u, v, *extra, w)))
                if s in faces:
                    grown.append((*extra, w))
                elif all(b in faces for b in s.boundary()):
                    yield s
        level = grown


def missing_simplices(cx: SimplicialComplex, max_dim: int | None = None) -> set[Simplex]:
    """All minimal non-faces whose full boundary lies in the complex.

    Candidates never exceed dimension dim(cx)+1, since every proper face of a
    missing simplex must be present; `max_dim` can lower that bound.  Each
    candidate is a face plus a vertex sorting after its last, so they are
    counted first, and more than `_FACE_BUDGET` of them raise
    `ResourceLimitError` before any is built.
    """
    top_card = cx.dim + 2 if max_dim is None else min(cx.dim + 2, max_dim + 1)
    verts = cx.vertices()
    faces = _face_set(cx.facets)
    # each candidate is a face (its shell) plus one vertex above the shell's last
    bound = sum(len(verts) - bisect_right(verts, shell[-1]) for shell in faces if len(shell) < top_card)
    if bound > _FACE_BUDGET:
        raise ResourceLimitError(
            f"the missing-simplex search could test {bound} candidates, above the budget of {_FACE_BUDGET}",
            faces=len(faces),
            bound=bound,
            budget=_FACE_BUDGET,
        )
    candidates = (
        Simplex(shell + (w,))
        for shell in faces
        if len(shell) < top_card
        for w in verts[bisect_right(verts, shell[-1]) :]
    )
    return {s for s in candidates if s not in faces and all(b in faces for b in s.boundary())}


def blocking_missing_simplices(cx: SimplicialComplex, edge) -> tuple[Simplex, ...]:
    """All missing simplices of the complex that contain the given edge."""
    e, at_edge = _split(cx, edge)
    return tuple(sorted(_missing_through(e, at_edge), key=Simplex.sort_key))


def is_valid_edge(cx: SimplicialComplex, edge) -> bool:
    """True iff no missing simplex of the complex contains the edge."""
    e, at_edge = _split(cx, edge)
    return next(_missing_through(e, at_edge), None) is None


def link_condition(cx: SimplicialComplex, edge) -> bool:
    """Classical diagnostic: lk(u) intersect lk(v) equals lk(uv).

    Equivalent to `is_valid_edge`; kept as an independent oracle.
    """
    e, _ = _split(cx, edge)
    u, v = e
    faces_u, faces_v, faces_e = (_face_set(link(cx, s).facets) for s in ([u], [v], e))
    return faces_u & faces_v == faces_e


def _images(e: Simplex, at_edge: list[Simplex], keep: VertexLabel) -> frozenset[Simplex]:
    """What the facets at the edge e become when the other endpoint `lose`
    is replaced by `keep`.

    Only the facets at the edge are reduced: the images of the facets
    holding `lose`, and the facets holding `keep` but not `lose`.  The
    reduction collapses degenerate images and merges duplicates.  Every
    other facet g passes through as it is, since no image I = F - lose + keep
    can dominate it or be dominated by it.  I holds `keep` and g does not,
    so g cannot contain I, and g ⊆ I would give g ⊆ F - lose ⊆ F, with
    g ≠ F because F holds `lose` and g does not; the facets of the complex
    form an antichain, so that is impossible.
    """
    lose = e[1] if keep == e[0] else e[0]
    images = (Simplex(sorted(set(f) - {lose} | {keep})) if lose in f else f for f in at_edge)
    return _reduce_to_antichain(images)


def _contraction(
    cx: SimplicialComplex, edge, survivor=None, inc: _Incidence | None = None
) -> tuple[list[Simplex], frozenset[Simplex]] | None:
    """The contraction of an edge of the complex onto `survivor` (default:
    the smaller endpoint) as an edit: the facets at the edge, and the
    `_images` that replace them; or None when the edge is invalid.  One
    split (through `inc`, the incidence of `cx`, when given), and the
    blocker search stops at the first blocker."""
    e, at_edge = _split(cx, edge, inc)
    if next(_missing_through(e, at_edge), None) is not None:
        return None
    keep: VertexLabel = e[0] if survivor is None else vlabel(survivor)
    if keep not in e:
        raise MalformedInputError(f"survivor {keep} is not an endpoint of {e}")
    return at_edge, _images(e, at_edge, keep)


def _contract_if_valid(cx: SimplicialComplex, edge, survivor=None) -> SimplicialComplex | None:
    """The contracted complex (`_contraction` applied through
    `cx._replace`), or None when the edge is invalid."""
    edit = _contraction(cx, edge, survivor)
    return None if edit is None else cx._replace(*edit)


def contract_edge(cx: SimplicialComplex, edge, survivor=None) -> SimplicialComplex:
    """Contract a valid edge: the non-surviving label is replaced by the
    survivor everywhere, degenerate images collapse, duplicates merge."""
    result = _contract_if_valid(cx, edge, survivor)
    if result is None:
        raise InvalidEdgeError(as_simplex(edge), blocking_missing_simplices(cx, edge))
    return result
