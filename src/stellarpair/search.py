"""Bounded breadth-first search for a move script between two complexes.

The move graph (edge subdivisions and valid edge contractions) is
infinite, so the search is made total by a vertex budget for subdivisions
and a depth bound; frontier states are deduplicated by canonical form so
no isomorphism class is expanded twice.  BFS keeps returned script
lengths reproducible.
"""

from __future__ import annotations

import re
from collections import deque

from .canonical import DEFAULT_VERTEX_GUARD, canonical_form, isomorphism
from .complexes import Simplex, SimplicialComplex
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
    Raises ResourceLimitError when the state budget is exhausted mid-search.
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

    base = _fresh_label_base(source)
    start: tuple[SimplicialComplex, tuple[Move, ...]] = (source, ())
    queue = deque([start])
    visited = {start_form}
    expanded = 0

    while queue:
        state, moves = queue.popleft()
        if len(moves) >= max_depth:
            continue
        expanded += 1
        if expanded > max_states:
            raise ResourceLimitError(
                "search state budget exceeded",
                states=expanded,
                frontier=len(queue),
                depth=len(moves),
                visited=len(visited),
            )
        successors: list[tuple[SimplicialComplex, Move]] = []
        edges = _edges(state)
        if state.num_vertices() < max_vertices:
            fresh = f"n{base + len(moves)}"
            for e in edges:
                successors.append((edge_subdivide(state, e, fresh), Move.subdivide(e, fresh)))
        for e in edges:
            if is_valid_edge(state, e):
                move = Move.contract(e)
                successors.append((contract_edge(state, e, move.survivor), move))
        for nxt, move in successors:
            form = canonical_form(nxt, guard=guard)
            if form in visited:
                continue
            visited.add(form)
            path = moves + (move,)
            if form == goal:
                return MoveScript(path, target_map=isomorphism(nxt, target, guard=guard))
            queue.append((nxt, path))
    return None
