"""Bounded breadth-first search for a move script between two complexes.

The move graph (edge subdivisions and valid edge contractions) is
infinite, so the search is made total by a vertex budget for subdivisions
and a depth bound; states are deduplicated up to isomorphism so no
isomorphism class is expanded twice.  BFS keeps returned script lengths
reproducible.

Canonical labeling is most of the cost, so the search labels a state
only when a cheaper test cannot answer for it:

- Vertex-count bound.  A subdivision adds exactly one vertex and a
  contraction removes exactly one, so a successor whose vertex count is
  further from the target's than the moves left after it cannot reach
  the target; it is not built (no subdivision successors, or no
  contraction successors).  BFS meets states in depth order, so a later
  state isomorphic to a pruned one has the same vertex count and no more
  moves left: it is pruned too, and the deduplication never needed the
  pruned states.
- Goal-only last depth.  A successor with no moves left is never
  expanded, so it is only compared with the target, and it is kept out
  of the visited states; had an isomorphic state been visited, that
  visit would have hit the goal and returned already.
- Degrees at the last depth.  With d the state's vertex degrees (the
  facets holding each vertex), S = star(e) for e = {a, b} and w the new
  vertex, the subdivision at e has d'(a) = d(a), d'(b) = d(b),
  d'(w) = 2|S|, and d'(c) = d(c) + #{F in S : c in F} for every other
  vertex c, since F becomes F - a + w and F - b + w.  A last-move
  subdivision whose sorted d' differs from the target's sorted degrees
  is not built, and its d' is not computed when its facet count, that
  of the state plus |S|, differs from the target's.  Both are
  isomorphism invariants that `canonical._signature` determines (the
  sorted degrees are its first coordinates), so every subdivision this
  drops had a signature other than the target's: it was never labeled,
  and as a last-depth successor it never entered the visited states or
  the queue, nor counted as expanded.  The same complexes are labeled,
  so the hits, the scripts and the budget stats are unchanged.
- Signature buckets.  `canonical._signature` is an isomorphism
  invariant, so a state whose signature differs from the target's is not
  isomorphic to it, and the visited complexes are kept in buckets by
  signature.  A successor is labeled only when its signature is the
  target's, to compare forms with the target, or when its bucket already
  holds a state, to compare forms within the bucket; the entries are
  labeled in order until one's form is the successor's.  States in
  different buckets are never isomorphic, so "some form in the bucket
  equals this one" decides exactly what "some visited form equals this
  one" decides, and the entries count the same isomorphism classes as
  the forms would.
- Sibling orbits.  An automorphism g of the expanded state P maps the
  subdivision (contraction) at an edge e onto an isomorphic one at
  g(e), with the same fresh label (the survivor renamed), and a
  contraction at e is valid exactly when one at g(e) is.  So the
  successors of one kind at the edges of one orbit are isomorphic, and
  the one at the orbit's least edge r in `_edge_stars` order, the order
  in which each kind is generated, comes first in P's successor list.
  Dropping a successor at e != r changes nothing:
  the one at r came earlier and was isomorphic to it, so it either hit
  the goal (and the search returned) or was not the target, and then an
  isomorphic state entered the visited states, where `is_new` would
  have found it.  P's edge orbits are found lazily, when the first of
  its successors lands in a non-empty signature bucket (where `is_new`
  would label that successor): its edges are unioned under the
  automorphisms that P's labeling proves, and from then on a successor
  at an edge that is not its orbit's least is dropped before it is
  built, signed or labeled.  A state whose signature gives each vertex
  an entry of its own has only the identity automorphism and is not
  labeled.  The queue, the visited states, every hit and so every
  script, target_map and budget stat are unchanged.
- Successors from the star.  A subdivision is built from the facets
  `_edge_stars` holds at its edge, by the builder `stellar_subdivide`
  calls after scanning for them; the fresh label is still checked.
- One labeling per complex.  The goal test, the buckets and the orbit
  step read labels from one memo, keyed by the complex (complexes
  compare by facets), that calls `canonical.canonical_labeling` at most
  once per complex.  A state with the target's facets hits the target's
  entry, so its isomorphism is the identity; a hit's isomorphism onto
  the target composes the two rank maps.  The memo holds each labeled
  complex, its rank map and automorphisms until the search returns.

Together these return exactly the scripts that labeling and deduplicating
every successor would, and they count toward the state budget only
states that can still reach the target.
"""

from __future__ import annotations

import re
from collections import Counter, defaultdict, deque
from collections.abc import Callable
from itertools import combinations

from .canonical import (
    DEFAULT_VERTEX_GUARD,
    Labeling,
    _compose,
    _signature,
    canonical_labeling,
)
from .complexes import Simplex, SimplicialComplex, _degrees, _UnionFind
from .contraction import _contract_if_valid
from .errors import ResourceLimitError
from .labels import VertexLabel, _digit_limit
from .pairs import Move, MoveScript
from .subdivision import _subdivide_star

DEFAULT_STATE_BUDGET = 100_000


def _edge_stars(cx: SimplicialComplex) -> dict[Simplex, list[Simplex]]:
    """Each edge of the complex, in canonical order, with the facets
    holding it, from one pass over the facets."""
    held: defaultdict[tuple[VertexLabel, VertexLabel], list[Simplex]] = defaultdict(list)
    for f in cx.facets:
        for e in combinations(f, 2):
            held[e].append(f)
    return {Simplex(e): held[e] for e in sorted(held)}


def _subdivided_degrees(deg: Counter, e: Simplex, star: list[Simplex]) -> list[int]:
    """The sorted vertex degrees of the subdivision at `e` of the complex
    with degrees `deg` and the facets `star` at `e`, without building it:
    each facet at e = {a, b} becomes one at a and one at b, both at the
    new vertex and at the rest of the facet."""
    new = dict(deg)
    for f in star:
        for v in f:
            new[v] += 1
    for v in e:
        new[v] = deg[v]
    return sorted([*new.values(), 2 * len(star)])


def _sibling_orbits(
    state: SimplicialComplex, edges: list[Simplex], sig: tuple, label: Callable[[SimplicialComplex], Labeling]
) -> dict[Simplex, Simplex]:
    """Each edge's representative, the least edge of its orbit in the order
    of `edges`, under the automorphisms that `label(state)` proves.  A
    state whose signature `sig` gives each vertex an entry of its own has
    no automorphism but the identity, and is not labeled."""
    if len(set(sig)) == len(sig):
        return {e: e for e in edges}
    automorphisms = label(state)[2]
    index = {e: i for i, e in enumerate(edges)}
    orbits = _UnionFind(len(edges))
    for aut in automorphisms:
        for i, (a, b) in enumerate(edges):
            x, y = aut[a], aut[b]
            orbits.union(i, index[(x, y) if x < y else (y, x)])
    return {e: edges[orbits.find(i)] for i, e in enumerate(edges)}


def _move(e: Simplex, fresh: str | None) -> Move:
    """The subdivision of e with a fresh label, or its contraction when there is none."""
    return Move.contract(e) if fresh is None else Move.subdivide(e, fresh)


def _fresh_label_base(cx: SimplicialComplex) -> int:
    """The least k such that no label n<j> with j >= k is taken, skipping
    runs of at least the int/str digit limit, so that n<k+i> is spelled
    (a taken label is still refused when a successor is built)."""
    limit = _digit_limit()
    taken = [-1]
    for v in cx.vertex_set():
        m = re.fullmatch(r"n(\d+)", v)
        if m and (not limit or len(m.group(1)) < limit):
            taken.append(int(m.group(1)))
    return max(taken) + 1


def search_script(
    source: SimplicialComplex,
    target: SimplicialComplex,
    max_depth: int,
    max_vertices: int,
    *,
    max_states: int = DEFAULT_STATE_BUDGET,
) -> MoveScript | None:
    """A script of edge subdivisions and valid edge contractions turning
    `source` into a complex isomorphic to `target`, or None within bounds.

    The isomorphism onto `target` is recorded in the script's target_map.
    Raises ResourceLimitError when more than `max_states` states are
    expanded; its stats give the states expanded, the frontier still
    queued (states with no moves left are never queued), the depth reached
    and the isomorphism classes visited.

    The cheap tests of the module docstring decide which successors are
    built and labeled; the result is the script that labeling every
    successor gives, but pruned states take no share of the budget, so a
    search can finish within a `max_states` that labeling every successor
    would exhaust.
    """
    for cx, name in ((source, "source"), (target, "target")):
        if cx.num_vertices() > max_vertices:
            raise ResourceLimitError(
                f"{name} complex has {cx.num_vertices()} vertices, above the budget of {max_vertices}",
                vertices=cx.num_vertices(),
                budget=max_vertices,
            )
    guard = max(DEFAULT_VERTEX_GUARD, max_vertices)
    labelings: dict[SimplicialComplex, Labeling] = {}

    def label(cx: SimplicialComplex) -> Labeling:
        """The canonical labeling of `cx`, made at most once in this search."""
        out = labelings.get(cx)
        if out is None:
            out = labelings[cx] = canonical_labeling(cx, guard=guard)
        return out

    goal, goal_rank, _ = label(target)
    goal_sig = _signature(target)
    goal_degrees = sorted(_degrees(target).values())

    def onto_goal(cx: SimplicialComplex, sig: tuple) -> dict[VertexLabel, VertexLabel] | None:
        """The isomorphism of `cx` onto the target, or None."""
        if sig != goal_sig:
            return None
        form, rank, _ = label(cx)
        return _compose(cx, rank, target, goal_rank) if form == goal else None

    def is_new(cx: SimplicialComplex, sig: tuple) -> bool:
        """Enter `cx` in its signature's bucket unless an isomorphic state is there."""
        bucket = visited.setdefault(sig, [])
        if bucket:
            form = label(cx)[0]
            if any(label(entry)[0] == form for entry in bucket):
                return False
        bucket.append(cx)
        return True

    start_sig = _signature(source)
    iso = onto_goal(source, start_sig)
    if iso is not None:
        return MoveScript((), target_map=iso)

    if max_depth < 1:
        return None

    n_goal = target.num_vertices()
    goal_facets = len(target.facets)
    base = _fresh_label_base(source)
    # each queued state with its moves, as (edge, fresh label or None) pairs, and its signature
    queue: deque[tuple[SimplicialComplex, tuple[tuple[Simplex, str | None], ...], tuple]] = deque(
        [(source, (), start_sig)]
    )
    # signature -> the visited states with it
    visited: dict[tuple, list[SimplicialComplex]] = {start_sig: [source]}
    expanded = 0

    while queue:
        state, path, state_sig = queue.popleft()
        expanded += 1
        if expanded > max_states:
            raise ResourceLimitError(
                "search state budget exceeded",
                states=expanded,
                frontier=len(queue),
                depth=len(path),
                visited=sum(map(len, visited.values())),
            )
        left = max_depth - len(path) - 1  # moves left after a successor
        n = state.num_vertices()
        stars = _edge_stars(state)
        moves: list[tuple[Simplex, str | None]] = []
        if n < max_vertices and abs(n + 1 - n_goal) <= left:
            fresh = f"n{base + len(path)}"
            deg = _degrees(state) if left == 0 else None
            for e, star in stars.items():
                if left > 0 or (
                    len(state.facets) + len(star) == goal_facets
                    and _subdivided_degrees(deg, e, star) == goal_degrees
                ):
                    moves.append((e, fresh))
        if abs(n - 1 - n_goal) <= left:
            moves += [(e, None) for e in stars]
        reps = None  # each edge's sibling-orbit representative, once a successor collides
        for e, fresh in moves:
            if reps is not None and reps[e] != e:
                continue
            if fresh is None:
                nxt = _contract_if_valid(state, e, e[0])  # the survivor `Move.contract` picks
                if nxt is None:
                    continue
            else:
                nxt = _subdivide_star(state, e, stars[e], fresh)
            sig = _signature(nxt)
            iso = onto_goal(nxt, sig)
            if iso is not None:
                return MoveScript(tuple(_move(*m) for m in (*path, (e, fresh))), target_map=iso)
            if left == 0:
                continue
            if reps is None and visited.get(sig):
                # the first successor `is_new` would label: find the state's edge orbits first
                reps = _sibling_orbits(state, list(stars), state_sig, label)
                if reps[e] != e:
                    continue
            if is_new(nxt, sig):
                queue.append((nxt, (*path, (e, fresh)), sig))
    return None
