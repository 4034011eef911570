"""Edge contraction: validity testing and execution.

An edge is valid when no missing simplex contains it; contracting a valid
edge is label substitution plus deduplication, and only then is the
quotient a simplicial complex.  Contracting an invalid edge is a hard
error carrying the blocking missing simplices.

The facets at the edge (those holding an endpoint) decide validity and
carry the whole change, so one pass over the facets splits them off and
every later question reads only them (see `_split`).

Validity is equivalent to the link condition lk(u) ∩ lk(v) = lk(uv) (Dey,
Edelsbrunner, Guha and Nekhayev, "Topology preserving edge contraction",
1999; `link_condition` is the oracle), and under it a contraction onto `keep` of the edge e = {keep, lose} needs only
the facets at e to build its result:
- the image F - lose + keep of a facet F holding lose but not keep is a
  facet of the result;
- so is every facet holding keep but not lose;
- a collapsed image F - lose of a facet F ⊇ e can only be dominated, and
  only by one of those facets through keep.
Proof sketch.  Write I = F - lose + keep for the first kind, H for the
second and C = F - lose for a collapsed image.  I ⊆ H puts a face above a
facet: τ = F - lose is in lk(lose) (τ + lose = F) and in lk(keep)
(τ + keep ⊆ H), so by the link condition τ is in lk(e), and τ + e = F + keep
is a face strictly above the facet F.  So does H ⊆ I: ρ = H - keep lies in
F - lose, so in lk(lose), and it is in lk(keep), so ρ + e ⊋ H is a face.
Two of the first kind, I ⊆ C, H ⊆ C and two collapsed images nest only if
the facets they come from nest (each pair adds or drops the same vertex),
and facets do not.  What is left is C under I or H.
Facets away from e pass through (`_images`).
"""

from __future__ import annotations

from bisect import bisect_right

from .complexes import (
    _FACE_BUDGET,
    Simplex,
    SimplicialComplex,
    _check_face_budget,
    _face_set,
    _facets_at,
    _Incidence,
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

    Every face asked about lies in W = e ∪ the common neighbours, and holds
    an endpoint (a boundary face s - x of a candidate keeps one).  Such a
    face is in a facet F at e, so it lies in F ∩ W: the faces of the traces
    F ∩ W answer every question, and only they are built.  The face budget
    is checked on the facets at e themselves, as for every face walk of
    them.
    """
    u, v = e
    _check_face_budget(at_edge)
    near_u = {w for f in at_edge if u in f for w in f}
    near_v = {w for f in at_edge if v in f for w in f}
    common = sorted(near_u & near_v - {u, v})
    inside = set(common)
    inside.update(e)
    faces = _face_set([tuple(w for w in f if w in inside) for f in at_edge])
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
    `ResourceLimitError` before any is built.  A negative `max_dim` is
    malformed.
    """
    if max_dim is not None and max_dim < 0:
        raise MalformedInputError("max_dim must be at least 0")
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


def _images(e: Simplex, at_edge: list[Simplex], keep: VertexLabel) -> list[Simplex]:
    """What the facets at the valid edge e become when the other endpoint
    `lose` is replaced by `keep`: the facets of the result at `keep`.

    By the lemma in the module docstring, the image F - lose + keep of a
    facet holding lose but not keep, and each facet holding keep but not
    lose, is a facet of the result.  A facet F ⊇ e collapses to F - lose,
    which holds keep, and is kept unless one of those facets contains it.
    Every other facet g passes through as it is, since no image
    I = F - lose + keep can dominate it or be dominated by it.  I holds
    `keep` and g does not, so g cannot contain I, and g ⊆ I would give
    g ⊆ F - lose ⊆ F, with g ≠ F because F holds `lose` and g does not; the
    facets of the complex form an antichain, so that is impossible.
    """
    lose = e[1] if keep == e[0] else e[0]
    images: list[Simplex] = []
    collapsed: list[Simplex] = []
    for f in at_edge:
        if lose not in f:
            images.append(f)
        elif keep in f:
            collapsed.append(Simplex(w for w in f if w != lose))
        else:
            images.append(Simplex(sorted(set(f) - {lose} | {keep})))
    images += [c for c in collapsed if not any(frozenset(c).issubset(g) for g in images)]
    return images


def _contraction(
    cx: SimplicialComplex, edge, survivor=None, inc: _Incidence | None = None
) -> tuple[list[Simplex], list[Simplex]] | None:
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
