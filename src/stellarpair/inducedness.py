"""Induced and strongly induced subcomplex predicates, with witnesses.

Every negative verdict carries a re-checkable counterexample; ties are
broken toward the canonically least simplex (dimension first, then
lexicographic) so the verdicts are reproducible.

One scan answers all three predicates (`is_induced`,
`is_strongly_induced`, `classify_pair`).  It is local: it keeps only the
ambient facets that meet the subcomplex's vertices, since no other facet
can change a verdict or a witness (proof sketch in `_StrongScan`).  Its
cost is one linear filter over the ambient facets, then work
proportional to the facets kept.  Within them it exploits two facts: the
verdict for a face depends only on the set of facets containing it
(memoized per facet support), and the subcomplex faces inside one
ambient facet depend only on the facet's trace on the subcomplex's
vertices.  The hot path is pure integer bitmask arithmetic; simplices
are only materialized when a violation is found.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .complexes import Simplex, SimplicialComplex, _face_set, induced_subcomplex, is_subcomplex
from .errors import NotASubcomplexError
from .labels import VertexLabel

INDUCED = "induced"
NOT_INDUCED = "not_induced"
STRONGLY_INDUCED = "strongly_induced"
NOT_STRONGLY_INDUCED = "not_strongly_induced"


@dataclass(frozen=True)
class InducednessWitness:
    """Outcome of an inducedness check.

    For `not_induced`, `offending_simplex` is a face of the ambient complex
    with all vertices in the subcomplex that the subcomplex misses.  For
    `not_strongly_induced`, `sigma` is an ambient face outside the
    subcomplex whose closed star meets the subcomplex in
    `intersection_faces` (two or more maximal faces).
    """

    verdict: str
    offending_simplex: Simplex | None = None
    sigma: Simplex | None = None
    intersection_faces: tuple[Simplex, ...] = ()

    @property
    def at_least_induced(self) -> bool:
        return self.verdict in (INDUCED, STRONGLY_INDUCED)

    def __str__(self):
        if self.verdict == NOT_INDUCED:
            return f"{self.verdict}({self.offending_simplex})"
        if self.verdict == NOT_STRONGLY_INDUCED:
            faces = ", ".join(str(f) for f in self.intersection_faces)
            return f"{self.verdict}(sigma={self.sigma}, intersection=[{faces}])"
        return self.verdict


def _not_a_subcomplex(sub: SimplicialComplex, is_face) -> NotASubcomplexError:
    """The error naming the first facet of `sub` (canonical order) that `is_face` rejects."""
    bad = next(f for f in sub.sorted_facets() if not is_face(f))
    return NotASubcomplexError(f"facet {bad} of the subcomplex is not a face of the ambient complex")


def _require_subcomplex(sub: SimplicialComplex, ambient: SimplicialComplex) -> None:
    if not is_subcomplex(sub, ambient):
        faces = _face_set(induced_subcomplex(ambient, sub.vertex_set()).facets)
        raise _not_a_subcomplex(sub, faces.__contains__)


def is_induced(sub: SimplicialComplex, ambient: SimplicialComplex) -> InducednessWitness:
    """Is every ambient face with all vertices in `sub` a face of `sub`?"""
    return _StrongScan(sub, ambient).induced()


class _StrongScan:
    """The one inducedness engine: a scan of the neighbourhood
    N = {F in ambient.facets : F meets V(sub)} of the subcomplex for
    violations, i.e. ambient faces outside `sub` whose closed star meets
    `sub` in two or more maximal pieces.

    Restricting to N is exact:
    - `sub ∩ star(σ)` is the union of `sub ∩ F` over the facets F ⊇ σ;
    - a facet with no vertex in `sub` adds nothing to that union;
    - so every σ with a nonempty intersection is a face of some facet in N,
      and its maximal intersection pieces are the same over N as over all
      facets.
    Hence N has the same violations as the whole ambient, so the verdicts
    and the least witnesses (by `Simplex.sort_key`) are the same.  The cost
    is one linear filter over the ambient facets, then work proportional
    to N.

    Construction also checks that `sub` is a subcomplex: an ambient facet
    holding a sub facet g meets V(sub), so it lies in N, and g is an ambient
    face iff its `support` (the AND of its vertices' facet bits) is nonzero.
    """

    def __init__(self, sub: SimplicialComplex, ambient: SimplicialComplex):
        self.gamma_verts = gamma = sub.vertex_set()
        self.facets = [f for f in ambient.facets if not gamma.isdisjoint(f)]
        self.gamma_facet_sets = [frozenset(f) for f in sub.facets]
        self.vmask: dict[VertexLabel, int] = {}
        for i, f in enumerate(self.facets):
            bit = 1 << i
            for v in f:
                self.vmask[v] = self.vmask.get(v, 0) | bit
        if not all(self.support(g) for g in sub.facets):
            raise _not_a_subcomplex(sub, self.support)
        # maximal sub-faces within a facet, keyed by the facet's vertex trace on sub
        self._trace_pieces: dict[frozenset, tuple[frozenset, ...]] = {}
        self._pieces_by_facet: list[tuple[frozenset, ...]] = [
            self._pieces(f) for f in self.facets
        ]
        self._support_maximal: dict[int, tuple[frozenset, ...]] = {}

    def _pieces(self, facet: Simplex) -> tuple[frozenset, ...]:
        trace = self.gamma_verts.intersection(facet)
        got = self._trace_pieces.get(trace)
        if got is None:
            cuts = {g & trace for g in self.gamma_facet_sets}
            cuts.discard(frozenset())
            got = tuple(c for c in cuts if not any(c is not d and c <= d for d in cuts))
            self._trace_pieces[trace] = got
        return got

    def support(self, simplex: Simplex) -> int:
        """Bitmask of the kept facets containing the nonempty `simplex`."""
        get = self.vmask.get
        mask = -1
        for v in simplex:
            mask &= get(v, 0)
        return mask

    def maximal_for(self, support: int) -> tuple[frozenset, ...]:
        got = self._support_maximal.get(support)
        if got is None:
            pieces: set[frozenset] = set()
            s = support
            while s:
                low = s & -s
                pieces.update(self._pieces_by_facet[low.bit_length() - 1])
                s ^= low
            got = tuple(p for p in pieces if not any(p is not q and p < q for q in pieces))
            self._support_maximal[support] = got
        return got

    def _violations(self) -> Iterator[Simplex]:
        """Every violation, once per kept facet holding it.  Integer-only
        subset scan of each facet; a simplex is built only for a violation."""
        for i, facet in enumerate(self.facets):
            masks = [self.vmask[v] for v in facet]
            pieces = self._pieces_by_facet[i]
            piece_bits = [
                sum(1 << j for j, v in enumerate(facet) if v in p) for p in pieces
            ]
            size = 1 << len(facet)
            sup = [0] * size
            for t in range(1, size):
                low = t & -t
                j = low.bit_length() - 1
                rest = t ^ low
                sup_t = masks[j] if rest == 0 else sup[rest] & masks[j]
                sup[t] = sup_t
                if len(self.maximal_for(sup_t)) > 1:
                    # the face is a violation unless it lies in the subcomplex
                    if not any(t & ~pb == 0 for pb in piece_bits):
                        yield Simplex(v for k, v in enumerate(facet) if t >> k & 1)

    def has_violation(self) -> bool:
        return next(self._violations(), None) is not None

    def witness(self) -> InducednessWitness:
        """STRONGLY_INDUCED, or the (dimension, lexicographic)-least violation."""
        sigma = min(self._violations(), key=Simplex.sort_key, default=None)
        if sigma is None:
            return InducednessWitness(STRONGLY_INDUCED)
        faces = tuple(
            sorted(
                (Simplex(sorted(p)) for p in self.maximal_for(self.support(sigma))),
                key=Simplex.sort_key,
            )
        )
        return InducednessWitness(NOT_STRONGLY_INDUCED, sigma=sigma, intersection_faces=faces)

    def induced(self) -> InducednessWitness:
        """INDUCED iff every kept facet's trace on V(sub) is its own single
        piece, i.e. a face of `sub`.  Otherwise the witness is the least
        violation with all vertices in V(sub): every ambient face missing
        from `sub` with all its vertices in V(sub) is a violation (see
        `classify_pair`)."""
        if all(pieces == (trace,) for trace, pieces in self._trace_pieces.items()):
            return InducednessWitness(INDUCED)
        gamma = self.gamma_verts
        offender = min(
            (s for s in self._violations() if gamma.issuperset(s)), key=Simplex.sort_key
        )
        return InducednessWitness(NOT_INDUCED, offending_simplex=offender)


def is_strongly_induced(sub: SimplicialComplex, ambient: SimplicialComplex) -> InducednessWitness:
    """For every ambient face sigma outside `sub`, does `sub` meet the closed
    star of sigma in at most a single simplex (possibly the empty one)?"""
    return _StrongScan(sub, ambient).witness()


def classify_pair(sub: SimplicialComplex, ambient: SimplicialComplex) -> InducednessWitness:
    """Most precise verdict for a subcomplex pair: strongly induced, induced,
    or not induced (with witness), all from one `_StrongScan`.

    Strongly induced implies induced: a face missing from `sub` with all
    its vertices in V(sub) is a violation, since `sub ∩ star` holds all its
    vertices, and a single maximal piece holding them would put the face in
    `sub`.  So the scan looks for any violation first, and only on one asks
    whether the pair is induced."""
    scan = _StrongScan(sub, ambient)
    if not scan.has_violation():
        return InducednessWitness(STRONGLY_INDUCED)
    return scan.induced()
