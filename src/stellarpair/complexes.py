"""Abstract simplicial complexes stored by facets.

A :class:`Simplex` is the sorted, duplicate-free tuple of its interned
vertex labels, and equals, hashes and compares as that tuple; canonical
order is `key=Simplex.sort_key`.  A :class:`SimplicialComplex` is the
downward closure of an antichain of facets.  Complexes are immutable
values: every operation returns a new complex.  A move that swaps a few
facets for others (subdivision, contraction, derivation) builds it
through `SimplicialComplex._replace`, the one trusted edit, which copies
the facet set once.  Faces are not stored: each face reader enumerates
them from the facets.  A complex keeps no facet index: a local question
(membership, star, link) on a bare complex reads the facets at its face
in one linear filter.  The one index is owned by a pair
(`pairs.ComplexPair`): an `_Incidence` of its ambient, vertex -> facets
plus the next fresh barycenter round, built once per pair lineage and
edited copy-on-write by each move.  `_facets_at`, `_facets_holding` and
`_fresh_round` answer "which facets are at these vertices?" and "which
barycenter round is fresh?" from that index when one is given, and from
the one filter (or count) otherwise.  The one lazy cache of a complex, the
vertex set, is filled by idempotent assignment, so concurrent readers are
safe.

The incidence primitives the other modules share live here only: the face
enumerator `_face_set`, the facet incidence masks `_vertex_masks` (vertex ->
bitmask of the facets at it) and `_support` (the facets holding a simplex,
as the AND of its vertices' masks), `_Incidence` with its three readers, the
one face budget `_check_face_budget`, the subcomplex test `is_subcomplex`
(raising through `_require_subcomplex` and `_not_a_subcomplex`), `_degrees`
and `_UnionFind`.
The face budget refuses a walk of more than `_FACE_BUDGET` faces with
`ResourceLimitError` before any is built.  The face enumerator checks it,
so every face reader (`faces`, `f_vector`, the missing-simplex and
validity searches) is bounded, and so does the strong-inducedness scan,
summed over the facets it walks.

`f_vector` counts the faces of a complex; `_f_vector_change` carries an
f-vector through an edge move without one.  It reads only what the move
built: the facets at the edge, whose link gives the change of an edge
subdivision and of a contraction by one signed formula, and for a
subdivision's re-bias its new labels and cells.  It takes no complex and
no incidence.
"""

from __future__ import annotations

import os
from collections import Counter
from itertools import chain, combinations
from typing import Collection, Iterable, Iterator, Mapping

from .errors import AbsentFaceError, MalformedInputError, NotASubcomplexError, ResourceLimitError, StellarPairError
from .labels import BARYCENTER, VertexLabel, next_round, vlabel

_DEBUG_VALIDATE = os.environ.get("STELLARPAIR_DEBUG_VALIDATE", "") == "1"

# most faces the face enumerator, or the strong-inducedness scan, may walk in one call
_FACE_BUDGET = 2_000_000


def set_debug_validation(enabled: bool) -> bool:
    """Toggle invariant re-checking after every construction; returns the old setting."""
    global _DEBUG_VALIDATE
    old = _DEBUG_VALIDATE
    _DEBUG_VALIDATE = bool(enabled)
    return old


class Simplex(tuple):
    """A finite set of vertex labels: the sorted, duplicate-free tuple of them.

    A simplex equals, hashes and compares as that tuple, so `<` and a bare
    `sorted()` are lexicographic; canonical order (dimension first) is
    `key=Simplex.sort_key`.  `Simplex(vertices)` is the trusted constructor:
    `vertices` must already be sorted and duplicate-free.
    """

    __slots__ = ()

    @classmethod
    def of(cls, labels: Iterable | str | int) -> "Simplex":
        """Build a simplex from label-ish values, with set semantics (duplicates
        merge); a lone str or int is one label."""
        if isinstance(labels, Simplex):
            return labels
        if isinstance(labels, (str, int)):
            labels = (labels,)
        return cls(sorted(set(vlabel(x) for x in labels)))

    @property
    def vertices(self) -> "Simplex":
        """The simplex itself: it is its sorted vertex tuple."""
        return self

    @property
    def _vset(self) -> frozenset[VertexLabel]:
        """The vertex set, built on each read; the library uses `frozenset(simplex)`."""
        return frozenset(self)

    @property
    def dim(self) -> int:
        return len(self) - 1

    def sort_key(self) -> tuple:
        """Canonical order: by dimension first, then lexicographically by labels."""
        return (len(self), self)

    def tokens(self) -> tuple[str, ...]:
        return self

    def issubset(self, other: "Simplex") -> bool:
        return set(self).issubset(other)

    def union(self, other: "Simplex") -> "Simplex":
        return Simplex(sorted(set(self).union(other)))

    def difference(self, labels) -> "Simplex":
        drop = {vlabel(x) for x in labels}
        return Simplex(v for v in self if v not in drop)

    def boundary(self) -> Iterator["Simplex"]:
        """Codimension-one subfaces."""
        for i in range(len(self)):
            yield Simplex(self[:i] + self[i + 1 :])

    def __str__(self):
        return "{" + ",".join(self) + "}"

    def __repr__(self):
        return f"Simplex({[v.token for v in self]})"


EMPTY_SIMPLEX = Simplex(())


def as_simplex(value) -> Simplex:
    """Coerce a Simplex, a lone label or an iterable of labels into a Simplex."""
    return Simplex.of(value)


def _reduce_to_antichain(simplices: Iterable[Simplex]) -> frozenset[Simplex]:
    """Drop dominated and duplicate simplices; empty simplices are ignored."""
    kept: list[Simplex] = []
    by_vertex: dict[VertexLabel, set[int]] = {}
    for s in sorted(set(simplices), key=lambda t: -len(t)):
        if len(s) == 0:
            continue
        candidates: set[int] | None = None
        for v in s:
            ids = by_vertex.get(v)
            if ids is None:
                candidates = None
                break
            candidates = set(ids) if candidates is None else candidates & ids
            if not candidates:
                candidates = None
                break
        if candidates:
            continue  # some kept facet contains every vertex of s
        idx = len(kept)
        kept.append(s)
        for v in s:
            by_vertex.setdefault(v, set()).add(idx)
    return frozenset(kept)


class SimplicialComplex:
    """A downward-closed family of simplices, stored by its facet antichain."""

    __slots__ = ("facets", "_vertices")

    facets: frozenset[Simplex]

    def __init__(self, facets: Iterable[Simplex] | frozenset[Simplex], *, _trusted: bool = False):
        if _trusted and isinstance(facets, frozenset):
            self.facets = facets
        else:
            self.facets = _reduce_to_antichain(facets)
        self._vertices = None
        if _DEBUG_VALIDATE:
            self.validate()

    # -- construction -------------------------------------------------

    @classmethod
    def _from_antichain(cls, facets: Iterable[Simplex]) -> "SimplicialComplex":
        """Trusted fast path for operations whose output is an antichain by
        construction.  Input that is not a set is copied through one: a
        frozenset copied from a set keeps a hash table up to half the size
        of one grown from any other iterable (a list, or a frozenset union)."""
        if not isinstance(facets, set):
            facets = set(facets)
        return cls(frozenset(facets), _trusted=True)

    def _replace(self, removed: Iterable[Simplex], added: Iterable[Simplex]) -> "SimplicialComplex":
        """The one trusted edit: this complex with its facets `removed`
        swapped for `added`, from one copy of the facet set.  The caller
        vouches that the result is an antichain."""
        facets = set(self.facets)
        facets.difference_update(removed)
        facets.update(added)
        return self._from_antichain(facets)

    # -- basic queries -------------------------------------------------

    @property
    def dim(self) -> int:
        return max((f.dim for f in self.facets), default=-1)

    @property
    def is_empty(self) -> bool:
        return not self.facets

    def vertex_set(self) -> frozenset[VertexLabel]:
        verts = self._vertices
        if verts is None:
            verts = frozenset(chain.from_iterable(self.facets))
            self._vertices = verts
        return verts

    def vertices(self) -> tuple[VertexLabel, ...]:
        return tuple(sorted(self.vertex_set()))

    def num_vertices(self) -> int:
        return len(self.vertex_set())

    def sorted_facets(self) -> tuple[Simplex, ...]:
        """The facets in canonical order, sorted on each call: lexicographic,
        then stably by size, which is `Simplex.sort_key` order."""
        return tuple(sorted(sorted(self.facets), key=len))

    def facets_containing(self, simplex) -> tuple[Simplex, ...]:
        """All facets that contain `simplex`, in canonical order."""
        held = frozenset(Simplex.of(simplex))
        return tuple(sorted((f for f in self.facets if held.issubset(f)), key=Simplex.sort_key))

    def __contains__(self, simplex) -> bool:
        held = frozenset(as_simplex(simplex))
        return not held or any(held.issubset(f) for f in self.facets)

    def faces(self) -> dict[int, frozenset[Simplex]]:
        """All nonempty faces grouped by dimension, keyed 0..dim in order."""
        grouped: dict[int, list[Simplex]] = {d: [] for d in range(self.dim + 1)}
        for t in _face_set(self.facets):
            grouped[len(t) - 1].append(Simplex(t))
        return {d: frozenset(g) for d, g in grouped.items()}

    def all_faces(self) -> list[Simplex]:
        """All nonempty faces in canonical (dimension, lexicographic) order."""
        return sorted(chain.from_iterable(self.faces().values()), key=Simplex.sort_key)

    def face_count(self) -> int:
        return len(_face_set(self.facets))

    # -- invariants ----------------------------------------------------

    def validate(self) -> None:
        """Re-check structural invariants; raises StellarPairError on violation.

        One pass over the facets, then one `_reduce_to_antichain` for
        dominance: linear in facets x dimension plus the sizes of the
        vertex->facet id sets it intersects.  A dominated facet is reported
        against the first dominating facet in canonical order.
        """
        for f in self.facets:
            if len(f) == 0:
                raise StellarPairError("empty simplex stored as a facet")
            if list(f) != sorted(f):
                raise StellarPairError(f"facet {f} is not sorted canonically")
            if len(set(f)) != len(f):
                raise StellarPairError(f"facet {f} carries duplicate vertices")
        dominated = self.facets - _reduce_to_antichain(self.facets)
        if dominated:
            f = min(dominated, key=Simplex.sort_key)
            other = min((g for g in self.facets if g != f and f.issubset(g)), key=Simplex.sort_key)
            raise StellarPairError(f"facet {f} is dominated by {other}")

    # -- value semantics -------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, SimplicialComplex):
            return self.facets == other.facets
        return NotImplemented

    def __hash__(self):
        return hash(self.facets)

    def __repr__(self):
        names = ", ".join(str(f) for f in self.sorted_facets())
        return f"SimplicialComplex[{names}]"


def from_facets(facets: Iterable[Iterable]) -> SimplicialComplex:
    """Build a complex from raw facet lists, rejecting malformed input.

    Duplicate labels inside one facet are an error; dominated facets are
    absorbed into the antichain.
    """
    simplices = []
    for raw in facets:
        if isinstance(raw, (str, int)):
            raise MalformedInputError(f"facet must be a list of labels, got {raw!r}")
        labels = [vlabel(x) for x in raw]
        if not labels:
            raise MalformedInputError("facet must be a nonempty list of labels")
        if len(set(labels)) != len(labels):
            raise MalformedInputError(f"duplicate label within facet {[str(x) for x in labels]}")
        simplices.append(Simplex(sorted(labels)))
    return SimplicialComplex(simplices)


def star(cx: SimplicialComplex, simplex) -> SimplicialComplex:
    """Closed star: the simplicial closure of all faces containing `simplex`."""
    s = as_simplex(simplex)
    hits = cx.facets_containing(s)
    if not hits:
        raise AbsentFaceError(f"{s} is not a face of the complex")
    return SimplicialComplex._from_antichain(hits)


def link(cx: SimplicialComplex, simplex) -> SimplicialComplex:
    """Faces disjoint from `simplex` whose union with it is again a face."""
    s = as_simplex(simplex)
    hits = cx.facets_containing(s)
    if not hits:
        raise AbsentFaceError(f"{s} is not a face of the complex")
    return SimplicialComplex(f.difference(s) for f in hits)


def f_vector(cx: SimplicialComplex) -> tuple[int, ...]:
    """Face counts by dimension, f_0 through f_dim, after the face budget
    (`_check_face_budget`): f_0 counts the vertices, f_dim the facets of
    size dim + 1 (every top-dimensional face is a facet, since the facets
    form an antichain), and each dimension between them one set of faces."""
    facets = cx.facets
    _check_face_budget(facets)
    top = cx.dim + 1
    if top < 1:
        return ()
    counts = [len(set(chain.from_iterable(facets)))]
    counts += [len({c for f in facets if len(f) >= k for c in combinations(f, k)}) for k in range(2, top)]
    if top > 1:
        counts.append(sum(len(f) == top for f in facets))
    return tuple(counts)


def _f_vector_change(
    f: tuple[int, ...],
    edge: Simplex,
    at_edge: Iterable[Simplex],
    sign: int,
    barycenters: Mapping[Simplex, VertexLabel] | None = None,
    cells: Collection[Simplex] = (),
) -> tuple[int, ...]:
    """The f-vector after an edge move on a complex with f-vector `f`: the
    subdivision (`sign` +1) or the contraction (`sign` -1) of the edge
    e = {a, b}, whose facets `at_edge` hold every facet at e (and maybe
    other facets); then, for a subdivision, the derivation
    (`subdivision._relative_derived`) of the result that gave the faces in
    `barycenters` their new labels and made `cells`.  It reads only these,
    no complex and no incidence.

    The two edge moves are inverse stellar moves, so one formula counts
    both from the link of e alone, lk e = {F - e : F ⊇ e}:
    Δf_k = sign · (f_{k-1}(lk e) + f_{k-2}(lk e)), where f_{-1}(lk e) = 1
    counts the empty face.
    - A subdivision at the new vertex w loses e + ρ and gains w + ρ,
      w + a + ρ and w + b + ρ, for ρ in lk e (the empty face included).
      In dimension k that is -f_{k-2} + f_{k-1} + 2 f_{k-2}.
    - A contraction of a valid e onto `keep` loses {lose} + τ for τ in
      lk(lose).  Those with keep in τ are e + ρ for ρ in lk e, of dimension
      dim ρ + 2.  Each other lost face, {lose} + τ with keep not in τ, is
      matched by the face τ + keep gained in its dimension, unless τ + keep
      was a face already, i.e. unless τ is in lk(lose) ∩ lk(keep), which is
      lk e by the link condition; and every gained face is such a τ + keep.
      So the net loss is e + ρ and {lose} + ρ over ρ in lk e (Dey,
      Edelsbrunner, Guha and Nekhayev, 1999).
    A derivation keeps every protected face and every vertex and subdivides
    every other face, so the faces it loses are the keys of `barycenters`.
    Those it gains are the faces of `cells` that hold one of its new
    labels: a face of a cell without one is a face of its protected part
    (or a lone vertex), a face before; and no older face holds a label of a
    fresh round.  Trailing zeros are dropped when the dimension falls."""
    a, b = edge
    lk = [tuple(v for v in g if v != a and v != b) for g in at_edge if a in g and b in g]
    sizes = Counter(map(len, _face_set(lk)))  # faces of lk e by size
    sizes[0] = 1
    counts = [n + sign * (sizes[k] + sizes[k - 1]) for k, n in enumerate(f)]
    if barycenters:
        new = frozenset(barycenters.values())
        for face in _face_set(cells):
            if not new.isdisjoint(face):
                counts[len(face) - 1] += 1
        for face in barycenters:
            counts[len(face) - 1] -= 1
    while counts and not counts[-1]:
        counts.pop()
    return tuple(counts)


def _alternating_sum(f: tuple[int, ...]) -> int:
    """The Euler characteristic of a complex with f-vector `f`."""
    return sum(count if d % 2 == 0 else -count for d, count in enumerate(f))


def euler_characteristic(cx: SimplicialComplex) -> int:
    return _alternating_sum(f_vector(cx))


def _check_face_budget(facets: Collection[Collection]) -> None:
    """Refuse a walk of the nonempty faces of `facets`, at most
    sum(2^|F| - 1) of them, above `_FACE_BUDGET` with `ResourceLimitError`.
    So one facet of more than 20 vertices is refused."""
    bound = sum(1 << len(f) for f in facets) - len(facets)
    if bound > _FACE_BUDGET:
        raise ResourceLimitError(
            f"the facets could hold {bound} faces, above the budget of {_FACE_BUDGET}",
            facets=len(facets),
            bound=bound,
            budget=_FACE_BUDGET,
        )


def _face_set(facets: Collection[Simplex]) -> set[tuple[VertexLabel, ...]]:
    """Every nonempty face of the given facets, as vertex tuples; a `Simplex`
    hashes and compares as its tuple, so it can be looked up directly.

    `_check_face_budget` runs first, so no face is built above the budget.
    `facets` is read twice, so it must be a collection, not an iterator."""
    _check_face_budget(facets)
    return {c for f in facets for k in range(1, len(f) + 1) for c in combinations(f, k)}


def _vertex_masks(facets: Iterable[Collection[VertexLabel]]) -> dict[VertexLabel, int]:
    """Each vertex of `facets`, with the bitmask of the facets at it: bit i
    for the i-th facet in iteration order."""
    masks: dict[VertexLabel, int] = {}
    bit = 1
    for f in facets:
        for v in f:
            masks[v] = masks.get(v, 0) | bit
        bit <<= 1
    return masks


def _support(masks: dict[VertexLabel, int], simplex: Iterable[VertexLabel]) -> int:
    """Bitmask of the facets behind `masks` that hold every vertex of the
    nonempty `simplex`: the AND of its vertices' masks."""
    get = masks.get
    mask = -1
    for v in simplex:
        mask &= get(v, 0)
    return mask


class _Incidence:
    """A complex's facets at each of its vertices (`at`, whose keys are its
    vertex set), and the next fresh barycenter round of those vertices.

    A pair owns one for its ambient (`pairs.ComplexPair`).  It is built once
    (`of`) and then derived by each move from the facets it removed and
    added (`edited`): the new incidence shares every untouched vertex's set
    with the old one and copies only the touched ones, so the old pair's
    stays valid.  The sets are never mutated once an incidence is made."""

    __slots__ = ("at", "round")

    def __init__(self, at: dict[VertexLabel, set[Simplex]], rnd: int):
        self.at = at
        self.round = rnd

    @classmethod
    def of(cls, cx: SimplicialComplex) -> "_Incidence":
        at: dict[VertexLabel, set[Simplex]] = {}
        for f in cx.facets:
            for v in f:
                got = at.get(v)
                if got is None:
                    at[v] = {f}
                else:
                    got.add(f)
        return cls(at, next_round(at))

    def edited(self, removed: Collection[Simplex], added: Collection[Simplex]) -> "_Incidence":
        """The incidence after `removed` facets are swapped for `added` ones
        (each removed facet present, each added one new).  The round grows
        with new barycenters; it is recounted only when a vertex of the
        last round leaves."""
        at = dict(self.at)
        touched: dict[VertexLabel, set[Simplex]] = {}
        for adding, facets in ((False, removed), (True, added)):
            for f in facets:
                for v in f:
                    got = touched.get(v)
                    if got is None:
                        got = touched[v] = set(at.get(v, ()))
                    if adding:
                        got.add(f)
                    else:
                        got.discard(f)
        rnd, recount = self.round, False
        for v, got in touched.items():
            if got:
                if v not in at and v.kind == BARYCENTER and v.round >= rnd:
                    rnd = v.round + 1
                at[v] = got
            else:
                del at[v]
                recount |= v.kind == BARYCENTER and v.round + 1 == rnd
        return _Incidence(at, next_round(at) if recount else rnd)

    def __eq__(self, other):
        if isinstance(other, _Incidence):
            return (self.round, self.at) == (other.round, other.at)
        return NotImplemented

    __hash__ = None


def _facets_at(
    cx: SimplicialComplex, vertices: Collection[VertexLabel], inc: _Incidence | None = None
) -> Collection[Simplex]:
    """The facets of `cx` that meet `vertices`, each once: the union of their
    sets in `inc`, the incidence of `cx`, when given, else one filter."""
    if inc is None:
        verts = frozenset(vertices)
        return [f for f in cx.facets if not verts.isdisjoint(f)]
    at = inc.at
    return set().union(*[at[v] for v in vertices if v in at])


def _fresh_round(cx: SimplicialComplex, inc: _Incidence | None = None) -> int:
    """The next fresh barycenter round of the vertices of `cx`: the round of
    `inc`, the incidence of `cx`, when given, else counted over them."""
    return next_round(cx.vertex_set()) if inc is None else inc.round


def _facets_holding(cx: SimplicialComplex, simplex: Simplex, inc: _Incidence | None = None) -> list[Simplex]:
    """The facets of `cx` that hold the nonempty `simplex`: filtered from the
    facets at its rarest vertex in `inc`, the incidence of `cx`, when given,
    else from all facets."""
    held = frozenset(simplex)
    pool = cx.facets if inc is None else min((inc.at.get(v, ()) for v in simplex), key=len)
    return [f for f in pool if held.issubset(f)]


def is_subcomplex(sub: SimplicialComplex, ambient: SimplicialComplex) -> bool:
    """True iff every facet of `sub` is a face of `ambient`: iff some ambient
    facet meeting V(sub) holds it, its `_support` among them."""
    verts = sub.vertex_set()
    masks = _vertex_masks(f for f in ambient.facets if not verts.isdisjoint(f))
    return all(_support(masks, g) for g in sub.facets)


def _not_a_subcomplex(sub: SimplicialComplex, is_face) -> NotASubcomplexError:
    """The error naming the first facet of `sub` (canonical order) that `is_face` rejects."""
    bad = next(f for f in sub.sorted_facets() if not is_face(f))
    return NotASubcomplexError(f"facet {bad} of the subcomplex is not a face of the ambient complex")


def _require_subcomplex(sub: SimplicialComplex, ambient: SimplicialComplex) -> None:
    """`is_subcomplex`, raising the error that names the least bad facet."""
    if not is_subcomplex(sub, ambient):
        raise _not_a_subcomplex(sub, ambient.__contains__)


def _degrees(cx: SimplicialComplex) -> Counter:
    """The number of facets holding each vertex."""
    return Counter(chain.from_iterable(cx.facets))


class _UnionFind:
    """Disjoint sets of 0..n-1; the root of each set is its least member."""

    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra < rb:
            self.parent[rb] = ra
        elif rb < ra:
            self.parent[ra] = rb


def induced_subcomplex(cx: SimplicialComplex, labels: Iterable) -> SimplicialComplex:
    """The subcomplex of all faces whose vertices lie in `labels`: the
    facets' distinct traces on them, from one pass over the facets."""
    keep = frozenset(vlabel(x) for x in labels)
    return SimplicialComplex(Simplex(sorted(t)) for t in {keep.intersection(f) for f in cx.facets})


def relabel_complex(cx: SimplicialComplex, mapping: dict) -> SimplicialComplex:
    """Push the complex through an injective relabeling; labels absent from
    `mapping` are kept."""
    table = {vlabel(k): vlabel(v) for k, v in mapping.items()}
    image: dict[VertexLabel, VertexLabel] = {}
    for v in cx.vertex_set():
        image[v] = table.get(v, v)
    if len(set(image.values())) != len(image):
        raise MalformedInputError("relabeling is not injective on the complex's vertices")
    return SimplicialComplex._from_antichain(
        Simplex(sorted(image[v] for v in f)) for f in cx.facets
    )


def is_pseudomanifold(cx: SimplicialComplex, d: int) -> bool:
    """Diagnostic: pure d-dimensional, ridges in at most two facets, and
    strongly connected through ridges."""
    facets = cx.sorted_facets()
    if not facets or d < 0:
        return False
    if any(f.dim != d for f in facets):
        return False
    if d == 0:
        return len(facets) <= 2
    ridge_to_facets: dict[Simplex, list[int]] = {}
    for i, f in enumerate(facets):
        for r in f.boundary():
            ridge_to_facets.setdefault(r, []).append(i)
    if any(len(ids) > 2 for ids in ridge_to_facets.values()):
        return False
    # join the facets that share a ridge: strongly connected iff all join facet 0
    parts = _UnionFind(len(facets))
    for ids in ridge_to_facets.values():
        if len(ids) == 2:
            parts.union(*ids)
    return all(parts.find(i) == 0 for i in range(len(facets)))
