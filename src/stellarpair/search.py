"""Bounded breadth-first search for a move script between two complexes.

The move graph (edge subdivisions and valid edge contractions) is
infinite, so the search is made total by a vertex budget for subdivisions
and a depth bound; frontier states are deduplicated by canonical form so
no isomorphism class is expanded twice.  BFS keeps returned script
lengths reproducible.

Canonical labeling is most of the cost, so the search labels only the
states that can change its answer:

- Vertex-count bound.  A subdivision adds exactly one vertex and a
  contraction removes exactly one, so a successor whose vertex count is
  further from the target's than the moves left after it cannot reach
  the target; it is not built (no subdivision successors, or no
  `is_valid_edge` call and no contraction successors).  BFS meets states
  in depth order, so a later state isomorphic to a pruned one has the
  same vertex count and no more moves left: it is pruned too, and the
  deduplication never needed the pruned forms.
- Goal-only last depth.  A successor with no moves left is never
  expanded, so it is only compared with the target: first by facet count
  and f-vector, and by canonical form only when both match.  It is kept
  out of the visited set; had its form been visited, that visit would
  have hit the goal and returned already.

Together these return exactly the scripts that labeling and deduplicating
every successor would, and they count toward the state budget only
states that can still reach the target.
"""

from __future__ import annotations

import re
from collections import deque

from .canonical import DEFAULT_VERTEX_GUARD, canonical_form, isomorphism
from .complexes import Simplex, SimplicialComplex, f_vector
from .contraction import contract_edge, is_valid_edge
from .errors import ResourceLimitError
from .pairs import Move, MoveScript
from .subdivision import edge_subdivide

DEFAULT_STATE_BUDGET = 100_000


def _edges(cx: SimplicialComplex) -> list[Simplex]:
    return sorted(map(Simplex, cx._face_tuples().get(1, ())), key=Simplex.sort_key)


def _fresh_label_base(cx: SimplicialComplex) -> int:
    """The least k such that no label n<j> with j >= k is taken."""
    taken = [-1]
    for v in cx.vertex_set():
        m = re.fullmatch(r"n(\d+)", v)
        if m:
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
    and the forms visited.

    Successors whose vertex count cannot reach the target's in the moves
    left are never built, and a successor with no moves left is labeled
    only when its facet count and f-vector match the target's.  The result
    is the script that labeling every successor gives, but pruned states
    take no share of the budget, so a search can finish within a
    `max_states` that labeling every successor would exhaust.
    """
    for cx, name in ((source, "source"), (target, "target")):
        if cx.num_vertices() > max_vertices:
            raise ResourceLimitError(
                f"{name} complex has {cx.num_vertices()} vertices, above the budget of {max_vertices}",
                vertices=cx.num_vertices(),
                budget=max_vertices,
            )
    guard = max(DEFAULT_VERTEX_GUARD, max_vertices)
    goal = canonical_form(target, guard=guard)
    start_form = canonical_form(source, guard=guard)
    if start_form == goal:
        return MoveScript((), target_map=isomorphism(source, target, guard=guard))

    if max_depth < 1:
        return None

    n_goal = target.num_vertices()
    goal_facets = len(target.facets)
    goal_f = f_vector(target)
    base = _fresh_label_base(source)
    start: tuple[SimplicialComplex, tuple[Move, ...]] = (source, ())
    queue = deque([start])
    visited = {start_form}
    expanded = 0

    while queue:
        state, moves = queue.popleft()
        expanded += 1
        if expanded > max_states:
            raise ResourceLimitError(
                "search state budget exceeded",
                states=expanded,
                frontier=len(queue),
                depth=len(moves),
                visited=len(visited),
            )
        left = max_depth - len(moves) - 1  # moves left after a successor
        n = state.num_vertices()
        successors: list[tuple[SimplicialComplex, Move]] = []
        edges = _edges(state)
        if n < max_vertices and abs(n + 1 - n_goal) <= left:
            fresh = f"n{base + len(moves)}"
            for e in edges:
                successors.append((edge_subdivide(state, e, fresh), Move.subdivide(e, fresh)))
        if abs(n - 1 - n_goal) <= left:
            for e in edges:
                if is_valid_edge(state, e):
                    move = Move.contract(e)
                    successors.append((contract_edge(state, e, move.survivor), move))
        for nxt, move in successors:
            if left == 0 and (len(nxt.facets) != goal_facets or f_vector(nxt) != goal_f):
                continue
            form = canonical_form(nxt, guard=guard)
            if form == goal:
                return MoveScript(moves + (move,), target_map=isomorphism(nxt, target, guard=guard))
            if left == 0 or form in visited:
                continue
            visited.add(form)
            queue.append((nxt, moves + (move,)))
    return None
