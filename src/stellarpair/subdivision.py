"""Stellar, edge, derived, and biased derived subdivisions.

The derived and biased derived subdivisions stellar-subdivide every face
outside a protected subcomplex, largest faces first.  They are built
directly as what that schedule produces: each unprotected face becomes the
cone from its barycenter over its own subdivided boundary.  The schedule
itself is kept in the test suite as an independent oracle.  Subdivision at
a vertex is the identity, so all schedules skip dimension-0 faces and
original vertex labels persist.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import factorial
from typing import Callable, Collection, Mapping

from .complexes import (
    Simplex,
    SimplicialComplex,
    _face_set,
    _facets_holding,
    _Incidence,
    _require_subcomplex,
    as_simplex,
)
from .errors import AbsentFaceError, DomainError, NamingError, ResourceLimitError
from .labels import VertexLabel, _check_round, next_round, vlabel

# most cells a derived or biased derived subdivision may build
_FACET_BUDGET = 100_000


@dataclass(frozen=True)
class SubdivisionRecord:
    """Bookkeeping for the new vertices a subdivision round introduced."""

    round: int | None = None
    new_labels: Mapping[Simplex, VertexLabel] = field(default_factory=dict)

    @property
    def subdivided_faces(self) -> tuple[Simplex, ...]:
        """The faces that got a new vertex, in canonical order."""
        return tuple(sorted(self.new_labels, key=Simplex.sort_key))


def stellar_subdivide(cx: SimplicialComplex, simplex, new_label) -> SimplicialComplex:
    """Replace the closed star of `simplex` by the cone from `new_label` over
    its boundary: each facet F containing the simplex becomes the facets
    {new} + (F - w), one per vertex w of the simplex."""
    s = as_simplex(simplex)
    if s.dim < 1:
        raise DomainError(
            f"stellar subdivision at {s} rejected: at a vertex it is the identity"
        )
    return cx._replace(*_stellar_edit(cx, s, new_label))


def _stellar_edit(
    cx: SimplicialComplex, s: Simplex, new_label, inc: _Incidence | None = None
) -> tuple[list[Simplex], list[Simplex]]:
    """The stellar subdivision of `cx` at `s` as an edit: the facets holding
    `s` and the cells that replace them (`_star_cells`), read off `inc`, the
    incidence of `cx`, when given.  `AbsentFaceError` if `s` is no face."""
    hits = _facets_holding(cx, s, inc)
    if not hits:
        raise AbsentFaceError(f"{s} is not a face of the complex")
    return hits, _star_cells(s, hits, new_label, cx.vertex_set() if inc is None else inc.at)


def _subdivide_star(cx: SimplicialComplex, s: Simplex, hits: list[Simplex], new_label) -> SimplicialComplex:
    """The stellar subdivision of `cx` at `s`, given `hits`, the facets of
    `cx` that hold `s`: `cx._replace` swaps them for their cells."""
    return cx._replace(hits, _star_cells(s, hits, new_label, cx.vertex_set()))


def _star_cells(s: Simplex, hits: list[Simplex], new_label, vertices: Collection[VertexLabel]) -> list[Simplex]:
    """The cells of the stellar subdivision at `s` over the facets `hits`
    that hold it: each F becomes the facets {new} + (F - w), one per vertex w
    of `s`.  `NamingError` if the new label is among `vertices`, the
    complex's vertices."""
    v = vlabel(new_label)
    if v in vertices:
        raise NamingError(f"label {v} already names a vertex of the complex")
    cells = []
    for f in hits:
        for w in s:
            cell = list(f)
            cell.remove(w)
            cell.append(v)
            cell.sort()
            cells.append(Simplex(cell))
    return cells


def edge_subdivide(cx: SimplicialComplex, edge, new_label) -> SimplicialComplex:
    """Stellar subdivision at an edge."""
    e = as_simplex(edge)
    if e.dim != 1:
        raise DomainError(f"edge subdivision needs an edge, got {e}")
    return stellar_subdivide(cx, e, new_label)


def _round(cx: SimplicialComplex, rnd: int | None) -> int:
    """The barycenter round of a derivation of `cx`: `rnd`, or by default the
    next fresh one.  A given round must be a nonnegative int
    (`MalformedInputError`, checked before anything else) and no older than
    the fresh one (`NamingError`), since an older round could reuse a label
    of `cx`."""
    if rnd is not None:
        _check_round(rnd)
    fresh = next_round(cx.vertex_set())
    if rnd is None:
        return fresh
    if rnd < fresh:
        raise NamingError(f"round {rnd} is not fresh for the complex: the next fresh round is {fresh}")
    return rnd


def _relative_derived(
    facets: Collection[Simplex],
    protected: Callable[[tuple[VertexLabel, ...]], bool],
    rnd: int,
    total: int,
) -> tuple[list[Simplex], list[Simplex], dict[Simplex, VertexLabel]]:
    """The subdivision that stellar-subdivides every face outside the
    protected set (dimension >= 1), largest faces first, as an edit of a
    complex of `total` facets: the facets of `facets` (all the complex's,
    or every one that may hold an unprotected face) that it derives, the
    cells that replace them, and the new labels, all of round `rnd`.
    `protected` takes a face as its sorted vertex tuple and must be closed
    under taking faces.  `VertexLabel.barycenter` rejects a non-barycenter
    label with `,`, `{` or `}` in a face that is subdivided.

    An unprotected facet F derives at most |F|! cells; when their sum is
    above `_FACET_BUDGET` the subdivision raises `ResourceLimitError`
    before it makes any barycenter or cell.

    A protected facet, or a lone vertex, survives as-is: only the other
    facets and their cells are in the edit.  An unprotected face F becomes
    the cone from its barycenter b(F) over its boundary, each ridge
    subdivided the same way; a protected ridge or a lone vertex is its own
    cone.  So a cell is τ ∪ {b(σ_1), ..., b(σ_k)}: τ protected or a lone
    vertex, and τ ⊊ σ_1 ⊊ ... ⊊ σ_k unprotected, each one vertex larger
    than the last.
    The work is proportional to the cells built.  Ridges are shared between
    faces, so the cone of every face below a facet is kept; a facet's is
    not, since a facet is no ridge.
    """
    recorded: dict[Simplex, VertexLabel] = {}
    ridge_cones: dict[tuple[VertexLabel, ...], list[tuple[VertexLabel, ...]]] = {}

    def cone(face: tuple[VertexLabel, ...]) -> list[tuple[VertexLabel, ...]]:
        b = VertexLabel.barycenter(face, rnd)
        recorded[Simplex(face)] = b
        cells = []
        for i in range(len(face)):
            ridge = face[:i] + face[i + 1 :]
            if len(ridge) == 1 or protected(ridge):
                cells.append(ridge + (b,))
                continue
            below = ridge_cones.get(ridge)
            if below is None:
                below = ridge_cones[ridge] = cone(ridge)
            cells.extend([c + (b,) for c in below])
        return cells

    derived = [f for f in facets if len(f) > 1 and not protected(f)]
    bound = sum(factorial(len(f)) for f in derived)
    if bound > _FACET_BUDGET:
        raise ResourceLimitError(
            f"the subdivision could derive {bound} facets, above the budget of {_FACET_BUDGET}",
            facets=total,
            bound=bound,
            budget=_FACET_BUDGET,
        )
    cells = [Simplex(sorted(c)) for facet in derived for c in cone(facet)]
    return derived, cells, recorded


def _derive_complex(
    cx: SimplicialComplex, protected: Callable[[tuple[VertexLabel, ...]], bool], rnd: int | None
) -> tuple[SimplicialComplex, SubdivisionRecord]:
    """`_relative_derived` over all the facets of `cx`, in round `rnd` (see
    `_round`), applied through `cx._replace`."""
    rnd = _round(cx, rnd)
    derived, cells, labels = _relative_derived(cx.facets, protected, rnd, len(cx.facets))
    return cx._replace(derived, cells), SubdivisionRecord(round=rnd, new_labels=labels)


def derived_subdivision(
    cx: SimplicialComplex, *, round: int | None = None
) -> tuple[SimplicialComplex, SubdivisionRecord]:
    """The complex of all chains of faces under strict inclusion.

    Vertices of the result are the nonempty faces of the input; original
    vertices keep their labels and higher faces get barycenter labels for
    the given (or next fresh) round; a given round that is no nonnegative
    int raises `MalformedInputError`, and one that is not fresh `NamingError`.
    More than `_FACET_BUDGET` cells raise `ResourceLimitError` (see
    `_relative_derived`).
    """
    return _derive_complex(cx, lambda t: False, round)


def biased_derived(
    sub: SimplicialComplex,
    ambient: SimplicialComplex,
    *,
    round: int | None = None,
) -> tuple[SimplicialComplex, SubdivisionRecord]:
    """Stellar subdivisions at every face of the ambient complex not in
    `sub` (dimension >= 1), in reverse order of inclusion; `sub` survives
    unchanged as a subcomplex of the result.  Budgeted like
    `derived_subdivision`."""
    _require_subcomplex(sub, ambient)
    sub_faces = _face_set(sub.facets)
    return _derive_complex(ambient, sub_faces.__contains__, round)


def _rebias_near(
    sub: SimplicialComplex, near: set[VertexLabel], facets: Collection[Simplex], rnd: int, total: int
) -> tuple[list[Simplex], list[Simplex]]:
    """The re-bias of `ambient`, after an edge subdivision at the new vertex
    w, as an edit (the facets it derives, and their cells, of round `rnd`;
    see `_relative_derived`): the biased derived subdivision of `ambient`
    that subdivides only the faces outside `sub` that meet
    `near = (V(star(w)) - V(sub)) ∪ {w}`: `biased_derived(P, ambient)` with
    the protected complex `P = sub ∪ induced_subcomplex(ambient, V - near)`.

    `_relative_derived` only asks about ambient faces, and an ambient face
    lies in that induced subcomplex iff it misses `near`, so the protected
    set is a predicate and no union complex is built.  Facets missing `near`
    come through unchanged, so `ambient` itself is not passed: `facets`
    holds its facets at `near` (and maybe others), `rnd` is a round fresh
    for it, and `total` its facet count (a stat of the budget error).  The
    caller (`pairs._move`) reads them off the ambient before the edge
    subdivision and the cells it adds, so it builds no complex between the
    two.  It reads V(star(w)) off those cells: w is new, so the facets at w
    are exactly the cone cells {w} + (F - a) and {w} + (F - b) over the
    facets F at the edge ab.
    A face meeting `near` lies in `sub` only inside a facet of `sub` that
    meets `near`, so only those facets' faces are enumerated.  `sub` must
    be a subcomplex of `ambient`; it is not checked here.

    Use: (K, L) is a strongly induced pair, ab an edge of L, and `ambient`
    K' and `sub` L' are K and L with ab subdivided at the new vertex `w`.
    Then L' is strongly induced in the result R.  Proof sketch:
    - L' is induced in K': a face of K' with all vertices in V(L') is a
      face of K not holding ab, or w ∪ G with G ∪ ab a face of K; either
      way inducedness of L in K puts it in L'.
    - Lemma: every σ in P - L' has a vertex v outside V(star(w)) ∪ V(L').
      σ misses `near`, so each vertex is outside V(star(w)) or in
      V(L') - {w}.  If all were in V(L') - {w}, σ would be a face of K that
      does not hold ab with all vertices in V(L), so in L, and so in L'.
    - Hence star(σ) did not change: no face of K holds v and ab (else v
      and w would share a face of K'), so the faces at σ are the same in K
      and K', and they meet L' as they met L, in one simplex S_σ (K ⊇ L
      was strongly induced).  And no face of K' holds σ and w.
    - A face ρ of R is τ ∪ {b(σ_1), ..., b(σ_k)}: τ in P, σ_i faces of K'
      outside P, τ ⊊ σ_1 ⊊ ... ⊊ σ_k (a lone vertex stands for its own
      barycenter).  The faces of R at ρ meet L' in the faces τ'' ∩ V(L')
      over the τ'' in P with τ ⊆ τ'' (and τ'' ⊊ σ_1 when k ≥ 1), each a
      face of L' since L' is induced in K'.
    - Each of these lies in B = S_τ (k = 0) or B = σ_1 ∩ V(L') (k ≥ 1).
      And τ'' = τ ∪ B qualifies, with τ'' ∩ V(L') = B: it is a face of K'
      (inside τ ∪ S_τ or σ_1); it lies in P (it is B, a face of L', when
      τ is in L', the empty face included; otherwise τ misses `near`, and
      so does B, since w in B would give a face of K' holding τ and w);
      and it is ⊊ σ_1 because σ_1 is not in P.  So star(ρ) meets L' in
      the single simplex B, for every ρ outside L'.
    So `apply_move`'s strong-inducedness post-check and its global
    fallback are a guard: on a strongly induced pair the fallback does not
    run.  Only facets that meet `near` are re-derived, so a move adds
    facets in proportion to star(w) away from the subcomplex, not to the
    stars of the edge's endpoints.
    """
    sub_faces = _face_set([f for f in sub.facets if not near.isdisjoint(f)])
    derived, cells, _ = _relative_derived(facets, lambda t: near.isdisjoint(t) or t in sub_faces, rnd, total)
    return derived, cells
