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
is a face of the subcomplex.  Most faces never reach that lemma's exact
check (`single`): a face of a facet whose trace is a face of the
subcomplex passes by one AND when no facet at it has a subcomplex vertex
outside that facet (trace dominance), a facet whose vertices outside the
subcomplex touch no such facet is skipped without walking its faces (the
prefilter), and a face inside the subcomplex's vertices is a violation
iff it is an ambient face and no face of the subcomplex.  The hot path is
pure integer bitmask arithmetic over the facet incidence masks of
`complexes` (`_vertex_masks`, `_support`); simplices are only materialized
when a violation is found.  The walk is counted against the one face
budget (`complexes._check_face_budget`), summed over the facets it walks:
above it, `ResourceLimitError` is raised before any face is built.

A pair move scans less: `_classify_change` is told the facets a move
removed from and added to an ambient whose pair was strongly induced.
Every face outside those changed facets keeps its star, its traces and
its verdict, so only their faces are scanned (proof sketch in
`_StrongScan`).  Given the pair's incidence (`complexes._Incidence`), it
reads the facets around the change off it, with no filter over the
ambient, then works in proportion to the change and those facets.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Collection, Iterator

from .complexes import (
    Simplex,
    SimplicialComplex,
    _check_face_budget,
    _facets_at,
    _facets_holding,
    _Incidence,
    _not_a_subcomplex,
    _support,
    _vertex_masks,
)
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

    Three facts decide most faces without `single`.  Let F be a kept facet
    (so F is in the `support` of each of its faces) whose trace T(F) is a
    face of `sub`, and let away(F) be the kept facets with a vertex of
    V(sub) - F: the OR of `vmask[u]` over those u (`away`, cached per
    trace, since it depends on T(F) only).
    - Trace dominance: a face σ ⊆ F is `single` when S & away(F) = 0.  Every
      G in S then has T(G) ⊆ F ∩ V(sub) = T(F), and F is in S, so U = T(F),
      a face of `sub` that F holds.
    - The prefilter: if no vertex x of F outside V(sub) has
      `vmask[x] & away(F)`, no face of F is a violation, and F is not
      walked.  A face σ ⊆ F with such a vertex x has S ⊆ `vmask[x]`, so it
      is `single` by dominance; a face σ ⊆ V(sub) lies in T(F), so it is in
      `sub`.
    - Faces inside V(sub), of any scanned facet: σ ⊆ V(sub) is a violation
      iff S ≠ 0 and σ is no face of `sub`, i.e. no sub facet is at all its
      vertices.  S = 0 puts σ in no ambient facet; and `sub ∩ star(σ)`
      holds every vertex of σ, so a single maximal piece would hold σ and
      put it in `sub`.
    A facet whose trace is no face of `sub` does not take the dominance
    test, nor does a facet that is not kept: a removed facet of a
    change-set scan is in the `support` of none of its faces, which other
    facets with larger traces may hold.

    Construction also checks that `sub` is a subcomplex: an ambient facet
    holding a sub facet g meets V(sub), so it lies in N, and g is an ambient
    face iff its `support` (the AND of its vertices' facet bits) is nonzero.

    With `changed`, the facets a move removed from or added to the ambient,
    the scan keeps only the facets of N that are added or hold a vertex of
    C - V(sub), C = V(changed); checks only the sub facets that meet C; and
    scans only the faces of the changed facets, skipping one with
    `support` 0.  A face with a vertex x outside V(sub) has all its facets
    at x, so its `support` is exact.  A face σ ⊆ V(sub) held by no kept
    facet is held only by unchanged facets, so (see below) it lies in L'
    and is no violation either way; a sub facet meeting C whose `support`
    is 0 is looked up in the ambient (`complexes._facets_holding`).  An
    added facet that meets V(sub) is kept, so it takes the dominance test
    as above.  A change set at least as large as N would scan more than N
    does, so then N is scanned whole.  Without the incidence `inc` (the
    first move of a pair lineage), N is listed by one filter and the kept
    facets are filtered from it.  With `inc`, N is only listed when the
    change set is at least the most facets at one sub vertex, a lower bound
    of |N|; otherwise every kept set is read off the incidence, so the scan
    costs the stars of C - V(sub), not the ambient.
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
    facet of K' that meets V(sub).  One with a vertex outside V(sub) has
    all its facets kept; one inside V(sub) is held by an added facet, since
    a face σ ⊆ V(L') held only by unchanged facets is a face of K inside
    V(L) (w is new), so in L, as L is induced, and it misses the subdivided
    edge or the removed vertex, so it is in L'.  So the scan finds them
    all, the least one included.  The facets that are not kept are
    unchanged, so they keep traces that are faces of L', and `induced` is
    exact too.  A sub facet g missing C is in
    L (faces of L' - L meet C) and in no removed facet, so it is a face of
    an unchanged facet, hence of K'.
    """

    def __init__(
        self,
        sub: SimplicialComplex,
        ambient: SimplicialComplex,
        changed: Collection[Simplex] | None = None,
        inc: _Incidence | None = None,
    ):
        self.sub = sub
        self.gamma_verts = gamma = sub.vertex_set()
        # N, unless the change set is smaller than a lower bound of |N|: the
        # most facets at one sub vertex, read off the incidence
        least = 0 if inc is None else max((len(inc.at.get(v, ())) for v in gamma), default=0)
        full = None if changed is not None and len(changed) < least else list(_facets_at(ambient, gamma, inc))
        if changed is not None and (full is None or len(changed) < len(full)):
            changed = frozenset(changed)
            near = frozenset(chain.from_iterable(changed))
            outside = near - gamma
            # the added facets of N and those at C - V(sub): filtered from N
            # when it is listed, else read off the incidence
            if full is None:
                pool = set(_facets_at(ambient, outside, inc))
                pool.update(f for f in changed if f in ambient.facets)
                self.facets = [f for f in pool if not gamma.isdisjoint(f)]
            else:
                self.facets = [f for f in full if f in changed or not outside.isdisjoint(f)]
            is_face = lambda g: near.isdisjoint(g) or self.support(g) or _facets_holding(ambient, g, inc)
        else:
            self.facets, is_face, changed = full, self.support, None
        # a bit per sub vertex; the sub facets, and the kept facets, at each vertex
        self._vbit = {v: 1 << k for k, v in enumerate(gamma)}
        self._sub_at = _vertex_masks(sub.facets)
        self.vmask = vmask = _vertex_masks(self.facets)
        # each sub vertex in a kept facet: its bit, and the kept facets at it
        self._sub_masks = [(bit, vmask[v]) for v, bit in self._vbit.items() if v in vmask]
        # each kept facet's trace on V(sub), with whether it is a face of sub
        self.traces: list[int] = []
        self.trace_in_sub: list[bool] = []
        for f in self.facets:
            trace, fits = self._trace(f)
            self.traces.append(trace)
            self.trace_in_sub.append(fits)
        if not all(map(is_face, sub.facets)):
            raise _not_a_subcomplex(sub, is_face)
        # a face held by no kept facet is no face of the ambient, or its star
        # misses `sub`
        self._single: dict[int, bool] = {0: True}
        self._aways: dict[int, int] = {}
        # the facets `_violations` scans, each with its trace and whether its
        # faces may take the dominance test: it is kept and its trace is a face
        # of sub
        if changed is None:
            self.scope = list(zip(self.facets, self.traces, self.trace_in_sub))
        else:
            # each changed facet on its vertices in kept facets (a face with
            # another vertex has `support` 0); an added facet that meets
            # V(sub) is kept, a removed one is not
            self.scope = []
            for f in changed:
                trace, fits = self._trace(f)
                kept = trace != 0 and f in ambient.facets
                self.scope.append((tuple(v for v in f if v in vmask), trace, fits and kept))

    def _trace(self, facet: Simplex) -> tuple[int, bool]:
        """`facet`'s trace on V(sub) as a bitmask, and whether it is a face of
        `sub`: whether some sub facet is at every vertex of the trace."""
        trace, at = 0, -1
        for v in facet:
            if v in self._vbit:
                trace |= self._vbit[v]
                at &= self._sub_at[v]
        return trace, at != 0

    def support(self, simplex: Simplex) -> int:
        """Bitmask of the kept facets containing the nonempty `simplex`."""
        return _support(self.vmask, simplex)

    def away(self, trace: int) -> int:
        """Bitmask of the kept facets with a vertex of V(sub) outside `trace`:
        the OR of `vmask[u]` over the sub vertices u that `trace` misses."""
        got = self._aways.get(trace)
        if got is None:
            got = 0
            for bit, mask in self._sub_masks:
                if not bit & trace:
                    got |= mask
            self._aways[trace] = got
        return got

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

    def _walks(self) -> list[tuple[list[VertexLabel], int, int]]:
        """The scanned facets the prefilter does not skip, each as (its
        vertices, those in V(sub) first; how many are in V(sub); `away`, or -1
        when it takes no dominance test).  `ResourceLimitError` if their
        faces together exceed the face budget, before any is walked."""
        vmask, vbit = self.vmask, self._vbit
        walks = []
        for facet, trace, dominated in self.scope:
            inside, outside, reach = [], [], 0
            for v in facet:
                if v in vbit:
                    inside.append(v)
                else:
                    outside.append(v)
                    reach |= vmask[v]
            away = -1
            if dominated:
                away = self.away(trace)
                if not reach & away:
                    continue  # the prefilter: no face of `facet` is a violation
            walks.append((inside + outside, len(inside), away))
        _check_face_budget([facet for facet, _, _ in walks])
        return walks

    def _violations(self) -> Iterator[Simplex]:
        """Every violation, once per walked facet holding it.  Integer-only
        subset walk of each facet, its faces in V(sub) first; a simplex is
        built only for a violation."""
        vmask, sub_at = self.vmask, self._sub_at
        cached = self._single.get
        for facet, inside, away in self._walks():
            masks = [vmask[v] for v in facet]
            at = [sub_at[v] for v in facet[:inside]]
            split, size = 1 << inside, 1 << len(facet)
            sup, sub_sup = [-1] * size, [-1] * split
            # a face in V(sub) is a violation iff it is an ambient face and no face of sub
            for t in range(1, split):
                low = t & -t
                k = low.bit_length() - 1
                sup[t] = sup_t = sup[t ^ low] & masks[k]
                sub_sup[t] = in_sub = sub_sup[t ^ low] & at[k]
                if sup_t and not in_sub:
                    yield _face(facet, t)
            # a face with a vertex outside V(sub) is one iff it is not `single`,
            # and it is `single` if no facet at it is `away`
            for t in range(split, size):
                low = t & -t
                sup[t] = sup_t = sup[t ^ low] & masks[low.bit_length() - 1]
                if sup_t & away:
                    single = cached(sup_t)
                    if single is None:
                        single = self.single(sup_t)
                    if not single:
                        yield _face(facet, t)

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


def _face(facet: tuple[VertexLabel, ...], t: int) -> Simplex:
    """The face of `facet` at the positions set in `t`."""
    return Simplex(sorted(v for k, v in enumerate(facet) if t >> k & 1))


def is_strongly_induced(sub: SimplicialComplex, ambient: SimplicialComplex) -> InducednessWitness:
    """For every ambient face sigma outside `sub`, does `sub` meet the closed
    star of sigma in at most a single simplex (possibly the empty one)?"""
    return _StrongScan(sub, ambient).witness()


def classify_pair(sub: SimplicialComplex, ambient: SimplicialComplex) -> InducednessWitness:
    """Most precise verdict for a subcomplex pair: strongly induced, induced,
    or not induced (with witness), all from one `_StrongScan`."""
    return _StrongScan(sub, ambient).classify()


def _classify_change(
    sub: SimplicialComplex,
    ambient: SimplicialComplex,
    changed: Collection[Simplex],
    inc: _Incidence | None = None,
) -> InducednessWitness:
    """`classify_pair` for a pair made by a move from a strongly induced pair,
    scanning only the faces of `changed`, the ambient facets the move
    removed or added (the conditions and the proof sketch are in
    `_StrongScan`); `inc`, when given, is the incidence of `ambient`."""
    return _StrongScan(sub, ambient, changed, inc).classify()
