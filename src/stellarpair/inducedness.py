"""Induced and strongly induced subcomplex predicates, with witnesses.

Every negative verdict carries a re-checkable counterexample; ties are
broken toward the canonically least simplex (dimension first, then
lexicographic) so the verdicts are reproducible.

One scan answers all three predicates (`is_induced`,
`is_strongly_induced`, `classify_pair`).  It is local: it keeps only the
ambient facets that meet the subcomplex's vertices, since no other facet
can change a verdict or a witness (proof sketch in `_StrongScan`).  Its
cost is one linear filter over the ambient facets, then work
proportional to the facets kept.  One lemma decides each face: the
subcomplex meets its star in one simplex iff one facet at the face has a
trace on the subcomplex's vertices that holds every other such trace and
is a face of the subcomplex.  The hot path is pure integer bitmask
arithmetic; simplices are only materialized when a violation is found.

A pair move scans less: `_classify_change` is told the facets a move
removed from and added to an ambient whose pair was strongly induced.
Every face outside those changed facets keeps its star, its traces and
its verdict, so only their faces are scanned (proof sketch in
`_StrongScan`): one linear filter over the ambient facets and one over
the facets at the subcomplex, then work proportional to the change and
the kept facets around it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Collection, Iterator

from .complexes import Simplex, SimplicialComplex, _not_a_subcomplex
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

    A face σ is decided by its `support` S (the facets of N holding it),
    with T(F) = F ∩ V(sub) and U the union of T(F) over S: `sub ∩ star(σ)`
    is one simplex iff some F in S has T(F) = U and T(F) in `sub`
    (`single`).  For U is the vertex set of `sub ∩ star(σ)`, so that has a
    single maximal face iff U is a face of `sub` inside some F ⊇ σ; and
    U ⊆ F forces T(F) = U.

    Construction also checks that `sub` is a subcomplex: an ambient facet
    holding a sub facet g meets V(sub), so it lies in N, and g is an ambient
    face iff its `support` (the AND of its vertices' facet bits) is nonzero.

    With `changed`, the facets a move removed from or added to the ambient,
    the scan keeps only the facets of N that meet C = V(changed), checks
    only the sub facets that meet C, and scans only the faces of the
    changed facets, skipping one with `support` 0.  Every facet at such a
    face meets C, so its `support` is exact.  A change set at least as
    large as N would scan more than N does, so then N is scanned whole.
    The change-set scan is exact when the old pair (L, K) was strongly
    induced and the new pair (L', K') is a move's: no face of L - L' is a
    face of K', and every face of L' - L meets C and is no face of K.  An
    edge subdivision (L - L' holds the faces through the edge, L' - L
    those through the new vertex) and a contraction (L - L' holds the
    faces at the removed vertex, and a face of L' - L in K would lie in L,
    as L is induced) are such moves, with or without a re-bias.  Proof
    sketch: let σ be a face of K' in no changed facet.
    - σ keeps its star: the facets of K' at σ are unchanged facets, so
      they are its facets in K.
    - An unchanged facet F keeps its trace: a vertex of V(L) or V(L') that
      is not in the other is a face of L - L' or L' - L, so it is not in F
      (F is in K and in K').  T(F) is in L, as L is induced in K, and it
      is a face of K', so it is in L'.  So `trace_in_sub` is true for F
      before and after, and `single` is the same at σ in K and in K'.
    - σ in L would put σ in L', since σ is a face of K'.  So a violation
      at σ in K' (σ outside L', not `single`) was one in K, and K had none.
    Hence every violation of K' is a face of a changed facet, held by a
    facet of K' that meets V(sub) and so is kept: the scan finds them all,
    the least one included.  The facets away from C keep traces that are
    faces of L', so `induced` is exact too.  A sub facet g missing C is in
    L (faces of L' - L meet C) and in no removed facet, so it is a face of
    an unchanged facet, hence of K'.
    """

    def __init__(
        self, sub: SimplicialComplex, ambient: SimplicialComplex, changed: Collection[Simplex] | None = None
    ):
        self.sub = sub
        self.gamma_verts = gamma = sub.vertex_set()
        self.facets = [f for f in ambient.facets if not gamma.isdisjoint(f)]
        is_face = self.support
        if changed is not None and len(changed) < len(self.facets):
            near = frozenset(chain.from_iterable(changed))
            self.facets = [f for f in self.facets if not near.isdisjoint(f)]
            is_face = lambda g: near.isdisjoint(g) or self.support(g)
        else:
            changed = None
        self.vmask: dict[VertexLabel, int] = {}
        for i, f in enumerate(self.facets):
            bit = 1 << i
            for v in f:
                self.vmask[v] = self.vmask.get(v, 0) | bit
        if not all(map(is_face, sub.facets)):
            raise _not_a_subcomplex(sub, is_face)
        # each kept facet's trace on V(sub) as a bitmask, and whether a sub facet holds it
        vbit = {v: 1 << k for k, v in enumerate(gamma)}
        self.traces = [sum(vbit[v] for v in f if v in vbit) for f in self.facets]
        sub_masks = [sum(map(vbit.get, g)) for g in sub.facets]
        in_sub = {t: any(t & g == t for g in sub_masks) for t in set(self.traces)}
        self.trace_in_sub = [in_sub[t] for t in self.traces]
        # the facets `_violations` scans, each with whether its trace is a face of sub
        if changed is None:
            self.scope = list(zip(self.facets, self.trace_in_sub))
        else:
            # each changed facet on its vertices in kept facets: a face with
            # another vertex has `support` 0
            self.scope = []
            for f in changed:
                t = sum(vbit[v] for v in f if v in vbit)
                fits = in_sub[t] if t in in_sub else any(t & g == t for g in sub_masks)
                self.scope.append((Simplex(v for v in f if v in self.vmask), fits))
        # a face held by no kept facet is no face of the ambient, or its star
        # misses `sub`
        self._single: dict[int, bool] = {0: True}

    def support(self, simplex: Simplex) -> int:
        """Bitmask of the kept facets containing the nonempty `simplex`."""
        get = self.vmask.get
        mask = -1
        for v in simplex:
            mask &= get(v, 0)
        return mask

    def single(self, support: int) -> bool:
        """Does `sub` meet the star of a face held by exactly the kept
        facets in `support` in at most one simplex?  (The lemma above.)"""
        got = self._single.get(support)
        if got is None:
            union, fits, s = 0, set(), support
            while s:
                i = (s & -s).bit_length() - 1
                union |= self.traces[i]
                if self.trace_in_sub[i]:
                    fits.add(self.traces[i])
                s &= s - 1
            got = self._single[support] = union in fits
        return got

    def _violations(self) -> Iterator[Simplex]:
        """Every violation, once per scanned facet holding it.  Integer-only
        subset scan of each facet; a simplex is built only for a violation or
        for a face in V(sub) inside a trace that is not a face of `sub`."""
        gamma = self.gamma_verts
        cached = self._single.get
        for facet, trace_in_sub in self.scope:
            masks = [self.vmask[v] for v in facet]
            outside = sum(1 << j for j, v in enumerate(facet) if v not in gamma)
            size = 1 << len(facet)
            sup = [-1] * size
            for t in range(1, size):
                low = t & -t
                sup[t] = sup_t = sup[t ^ low] & masks[low.bit_length() - 1]
                single = cached(sup_t)
                if single is None:
                    single = self.single(sup_t)
                # not a violation if single, nor if in sub, as it is when it lies
                # in V(sub) and its facet's trace is a face of sub
                if single or (not t & outside and trace_in_sub):
                    continue
                sigma = Simplex(v for k, v in enumerate(facet) if t >> k & 1)
                if t & outside or sigma not in self.sub:
                    yield sigma

    def has_violation(self) -> bool:
        return next(self._violations(), None) is not None

    def witness(self) -> InducednessWitness:
        """STRONGLY_INDUCED, or the (dimension, lexicographic)-least violation σ
        with the facets of `sub ∩ star(σ)`, from the kept facets at σ."""
        sigma = min(self._violations(), key=Simplex.sort_key, default=None)
        if sigma is None:
            return InducednessWitness(STRONGLY_INDUCED)
        support = self.support(sigma)
        at_sigma = [f for i, f in enumerate(self.facets) if support >> i & 1]
        meet = SimplicialComplex(Simplex([v for v in g if v in f]) for g in self.sub.facets for f in at_sigma)
        return InducednessWitness(NOT_STRONGLY_INDUCED, sigma=sigma, intersection_faces=meet.sorted_facets())

    def induced(self) -> InducednessWitness:
        """INDUCED iff every kept facet's trace on V(sub) is a face of `sub`.
        Otherwise the witness is the least violation with all vertices in
        V(sub): every ambient face missing from `sub` with all its vertices
        in V(sub) is a violation (see `classify`)."""
        if all(self.trace_in_sub):
            return InducednessWitness(INDUCED)
        gamma = self.gamma_verts
        offender = min(
            (s for s in self._violations() if gamma.issuperset(s)), key=Simplex.sort_key
        )
        return InducednessWitness(NOT_INDUCED, offending_simplex=offender)

    def classify(self) -> InducednessWitness:
        """Most precise verdict: strongly induced, induced, or not induced.

        Strongly induced implies induced: a face missing from `sub` with all
        its vertices in V(sub) is a violation, since `sub ∩ star` holds all
        its vertices, and a single maximal piece holding them would put the
        face in `sub`.  So the scan looks for any violation first, and only
        on one asks whether the pair is induced."""
        if not self.has_violation():
            return InducednessWitness(STRONGLY_INDUCED)
        return self.induced()


def is_strongly_induced(sub: SimplicialComplex, ambient: SimplicialComplex) -> InducednessWitness:
    """For every ambient face sigma outside `sub`, does `sub` meet the closed
    star of sigma in at most a single simplex (possibly the empty one)?"""
    return _StrongScan(sub, ambient).witness()


def classify_pair(sub: SimplicialComplex, ambient: SimplicialComplex) -> InducednessWitness:
    """Most precise verdict for a subcomplex pair: strongly induced, induced,
    or not induced (with witness), all from one `_StrongScan`."""
    return _StrongScan(sub, ambient).classify()


def _classify_change(
    sub: SimplicialComplex, ambient: SimplicialComplex, changed: Collection[Simplex]
) -> InducednessWitness:
    """`classify_pair` for a pair made by a move from a strongly induced pair,
    scanning only the faces of `changed`, the ambient facets the move
    removed or added (the conditions and the proof sketch are in
    `_StrongScan`)."""
    return _StrongScan(sub, ambient, changed).classify()
