"""Stellar, edge, derived, and biased derived subdivisions.

The derived and biased derived subdivisions are built directly from
vertex orderings of each facet (equivalently: chains of faces), which is
what the iterated stellar schedule produces; the schedule itself is kept
in the test suite as an independent oracle.  Subdivision at a vertex is
the identity, so all schedules skip dimension-0 faces and original
vertex labels persist.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import permutations
from typing import Callable, Mapping

from .complexes import Simplex, SimplicialComplex, as_simplex
from .errors import AbsentFaceError, DomainError, NamingError
from .inducedness import _require_subcomplex
from .labels import VertexLabel, next_round, vlabel

DERIVED = "derived"
BIASED = "biased"


@dataclass(frozen=True)
class SubdivisionRecord:
    """Bookkeeping for the new vertices a subdivision round introduced."""

    kind: str
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
    hits = cx.facets_containing(s)
    if not hits:
        raise AbsentFaceError(f"{s} is not a face of the complex")
    v = vlabel(new_label)
    if v in cx.vertex_set():
        raise NamingError(f"label {v} already names a vertex of the complex")
    new_facets = [f for f in cx.facets if not s.issubset(f)]
    for f in hits:
        for w in s.vertices:
            new_facets.append(Simplex(tuple(sorted(f._vset - {w} | {v}))))
    return SimplicialComplex._from_antichain(new_facets)


def edge_subdivide(cx: SimplicialComplex, edge, new_label) -> SimplicialComplex:
    """Stellar subdivision at an edge."""
    e = as_simplex(edge)
    if e.dim != 1:
        raise DomainError(f"edge subdivision needs an edge, got {e}")
    return stellar_subdivide(cx, e, new_label)


def _relative_derived(
    ambient: SimplicialComplex,
    in_sub: Callable[[frozenset[VertexLabel]], bool],
    rnd: int,
) -> tuple[SimplicialComplex, dict[Simplex, VertexLabel]]:
    """Facets of the subdivision that stellar-subdivides every face outside
    the subcomplex (dimension >= 1), largest faces first.

    Every facet arises from an ordering of a facet's vertices: the longest
    prefix that is a face of the subcomplex survives as-is, and each longer
    prefix contributes its barycenter (or itself, for a lone vertex).
    """
    bary: dict[frozenset[VertexLabel], VertexLabel] = {}
    sub_memo: dict[frozenset[VertexLabel], bool] = {}
    cells: set[Simplex] = set()
    recorded: dict[Simplex, VertexLabel] = {}

    def member(fs: frozenset[VertexLabel]) -> bool:
        got = sub_memo.get(fs)
        if got is None:
            got = in_sub(fs)
            sub_memo[fs] = got
        return got

    def blabel(fs: frozenset[VertexLabel]) -> VertexLabel:
        got = bary.get(fs)
        if got is None:
            got = VertexLabel.barycenter((v.token for v in fs), rnd)
            bary[fs] = got
            recorded[Simplex(tuple(sorted(fs)))] = got
        return got

    for facet in ambient.facets:
        verts = facet.vertices
        if member(facet._vset):
            cells.add(facet)
            continue
        for perm in permutations(verts):
            cell: list[VertexLabel] = []
            running: set[VertexLabel] = set()
            chain_started = False
            for v in perm:
                running.add(v)
                if not chain_started and member(frozenset(running)):
                    cell.append(v)
                    continue
                if not chain_started:
                    chain_started = True
                    if len(running) == 1:
                        # a lone vertex outside the subcomplex keeps its label
                        cell.append(v)
                        continue
                cell.append(blabel(frozenset(running)))
            cells.add(Simplex(tuple(sorted(cell))))
    return SimplicialComplex._from_antichain(cells), recorded


def derived_subdivision(
    cx: SimplicialComplex, *, round: int | None = None
) -> tuple[SimplicialComplex, SubdivisionRecord]:
    """The complex of all chains of faces under strict inclusion.

    Vertices of the result are the nonempty faces of the input; original
    vertices keep their labels and higher faces get barycenter labels for
    the given (or next fresh) round.
    """
    rnd = next_round(cx.vertex_set()) if round is None else round
    result, labels = _relative_derived(cx, lambda fs: False, rnd)
    return result, SubdivisionRecord(kind=DERIVED, round=rnd, new_labels=labels)


def biased_derived(
    sub: SimplicialComplex,
    ambient: SimplicialComplex,
    *,
    round: int | None = None,
) -> tuple[SimplicialComplex, SubdivisionRecord]:
    """Stellar subdivisions at every face of the ambient complex not in
    `sub` (dimension >= 1), in reverse order of inclusion; `sub` survives
    unchanged as a subcomplex of the result."""
    _require_subcomplex(sub, ambient)
    rnd = next_round(ambient.vertex_set()) if round is None else round
    result, labels = _relative_derived(
        ambient, lambda fs: Simplex(tuple(sorted(fs))) in sub, rnd
    )
    return result, SubdivisionRecord(kind=BIASED, round=rnd, new_labels=labels)
