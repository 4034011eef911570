"""The pair-transformation engine.

Keeps a subcomplex strongly induced in its ambient complex while edge
subdivisions and valid edge contractions are replayed on the subcomplex:
contractions extend to the ambient complex directly, and subdivisions are
followed by a re-bias that is local to the new vertex w.  The re-bias is
the biased derived subdivision that protects the new subcomplex and every
ambient face missing near' = (V(star(w)) - V(new sub)) ∪ {w}, so facets
away from w, and those at w that lie in the subcomplex, stay as they are.
star(w) is read off the facets the edge subdivision added, which are
exactly the facets at w, so near' takes no pass over the ambient.
The re-bias, like every derived subdivision, is bounded before it derives
anything (`subdivision._relative_derived`).

A pair carries the incidence of its ambient (`complexes._Incidence`:
vertex -> facets, the vertex set, the next barycenter round), built at
the second move of a pair lineage and handed on, edited copy-on-write, to
each next pair.  Every local question of a move is read off it: the
facets at the edge, the fresh-label test, the facets the re-bias derives
and its round, the facets the check keeps and those the f-vector update
masks.  The first move of a lineage asks the same questions of the bare
ambient, one filter each, which costs less than the build when no move
follows (`ComplexPair`).  A move builds its edit (the facets it removes
and adds) itself, the edge subdivision and its re-bias as one, and
copies the ambient's facet set once, so its cost follows the stars it
touches and that one copy, not the ambient.

The check after a move is local too.  The move knows the ambient facets
it removed and added, and `inducedness._classify_change` scans only the
faces of those changed facets.  That is exact because the pair was
strongly induced before the move: a face outside every changed facet
keeps its star and its traces on the subcomplex, so it keeps its verdict
(proof sketch in `inducedness._StrongScan`).  If the result is not
strongly induced (a proof sketch in `subdivision._rebias_near` says it
always is), the move falls back once to the global biased derived
subdivision of the new pair, within the same budget, and checks that with
the full scan.  `pipeline_run` likewise carries the ambient's f-vector
from step to step, updated from the faces the changed facets lose and
gain.  Under `STELLARPAIR_DEBUG_VALIDATE=1` both are checked against a
full recomputation.  The pipeline turns a triangulation containing a
subdivision of a target complex into one containing the target itself.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

from . import complexes
from .complexes import (
    Simplex,
    SimplicialComplex,
    _alternating_sum,
    _f_vector_change,
    _facets_at,
    _fresh_round,
    _Incidence,
    _require_subcomplex,
    as_simplex,
    f_vector,
    relabel_complex,
)
from .canonical import isomorphism
from .contraction import _contraction, blocking_missing_simplices, contract_edge
from .errors import (
    AbsentFaceError,
    DomainError,
    InvalidEdgeError,
    InvariantViolationError,
    MalformedInputError,
    PreconditionError,
    ResourceLimitError,
    ScriptMismatchError,
    ScriptStepError,
)
from .inducedness import STRONGLY_INDUCED, InducednessWitness, _classify_change, classify_pair
from .labels import VertexLabel, next_round, vlabel
from .subdivision import _rebias_near, _stellar_edit, biased_derived, derived_subdivision, edge_subdivide

SUBDIVIDE = "subdivide"
CONTRACT = "contract"


@dataclass(frozen=True)
class Move:
    """One edge subdivision or one valid edge contraction on the subcomplex.

    Construction puts a move in normal form: the edge, the new label and
    the survivor are interned vertex labels, the edge has exactly two
    distinct endpoints, and a contraction without a survivor keeps the
    smaller endpoint (by token).
    """

    op: str
    edge: tuple[VertexLabel, VertexLabel]
    new_label: VertexLabel | None = None
    survivor: VertexLabel | None = None

    def __post_init__(self):
        if self.op not in (SUBDIVIDE, CONTRACT):
            raise MalformedInputError(f"unknown move op {self.op!r}")
        # a lone label is one vertex, not an edge to iterate over
        edge = () if isinstance(self.edge, (str, int)) else tuple(map(VertexLabel.of, self.edge))
        if len(edge) != 2 or edge[0] == edge[1]:
            raise MalformedInputError("a move edge needs exactly two distinct labels")
        object.__setattr__(self, "edge", edge)
        if self.op == SUBDIVIDE and self.new_label is None:
            raise MalformedInputError("subdivide move needs a new_label")
        if self.op == CONTRACT and self.new_label is not None:
            raise MalformedInputError("contract move takes no new_label")
        if self.op == SUBDIVIDE and self.survivor is not None:
            raise MalformedInputError("subdivide move takes no survivor")
        if self.new_label is not None:
            object.__setattr__(self, "new_label", vlabel(self.new_label))
        if self.op == CONTRACT:
            keep = min(edge) if self.survivor is None else vlabel(self.survivor)
            if keep not in edge:
                raise MalformedInputError(f"contract survivor {keep} is not an endpoint of the edge")
            object.__setattr__(self, "survivor", keep)

    @classmethod
    def subdivide(cls, edge, new_label) -> "Move":
        return cls(SUBDIVIDE, edge, new_label=new_label)

    @classmethod
    def contract(cls, edge, survivor=None) -> "Move":
        return cls(CONTRACT, edge, survivor=survivor)

    def describe(self) -> str:
        a, b = sorted(self.edge)
        if self.op == SUBDIVIDE:
            return f"subdivide {a},{b} -> {self.new_label}"
        return f"contract {a},{b} -> {self.survivor}"


@dataclass(frozen=True)
class MoveScript:
    """An ordered move list plus an optional relabeling onto the target."""

    moves: tuple[Move, ...]
    target_map: dict[VertexLabel, VertexLabel] | None = None

    def __post_init__(self):
        object.__setattr__(self, "moves", tuple(self.moves))
        fresh = [m.new_label for m in self.moves if m.op == SUBDIVIDE]
        if len(set(fresh)) != len(fresh):
            raise MalformedInputError("subdivision labels must be fresh within the script")
        if self.target_map is not None:
            normalized = {vlabel(k): vlabel(v) for k, v in self.target_map.items()}
            if len(set(normalized.values())) != len(normalized):
                raise MalformedInputError("target_map must be injective")
            object.__setattr__(self, "target_map", normalized)

    def __len__(self):
        return len(self.moves)


@dataclass(frozen=True)
class ComplexPair:
    """A subcomplex inside an ambient complex, with cached inducedness status.

    A pair that a move made also owns the ambient's incidence
    (`complexes._Incidence`: the facets at each vertex, and the next fresh
    barycenter round), which no comparison reads.  A pair lineage builds it
    once, at its second move: the first move from a pair no move made (a
    fresh, derived or biased pair) reads its few local facets by filter,
    since the build costs more than one move's filters, and the pair it
    returns is marked `_moved`.  A move from that pair builds the incidence
    (`_ambient_incidence`), and each move from then on hands the next pair
    its edited copy, so a lineage that keeps moving pays for it once."""

    sub: SimplicialComplex
    ambient: SimplicialComplex
    status: InducednessWitness
    _incidence: _Incidence | None = field(default=None, compare=False, repr=False)
    _moved: bool = field(default=False, compare=False, repr=False)

    def _ambient_incidence(self) -> _Incidence | None:
        """The ambient's incidence: the carried one, else, on a pair a move
        made, built on the first call and kept (by idempotent assignment,
        like `SimplicialComplex.vertex_set`); else None."""
        inc = self._incidence
        if inc is None and self._moved:
            inc = _Incidence.of(self.ambient)
            object.__setattr__(self, "_incidence", inc)
        return inc


@dataclass(frozen=True)
class PipelineStep:
    stage: str
    move: Move | None
    f_sub: tuple[int, ...]
    f_ambient: tuple[int, ...]
    euler_ambient: int
    strongly_induced: bool


@dataclass(frozen=True)
class PipelineReport:
    steps: tuple[PipelineStep, ...] = ()
    final_isomorphism: dict[VertexLabel, VertexLabel] | None = None


def pair_new(sub: SimplicialComplex, ambient: SimplicialComplex) -> ComplexPair:
    """Wrap a subcomplex pair, computing its inducedness status."""
    return ComplexPair(sub, ambient, classify_pair(sub, ambient))


def _derived(
    sub: SimplicialComplex, ambient: SimplicialComplex
) -> tuple[SimplicialComplex, SimplicialComplex]:
    """`pair_derive`'s two complexes, unclassified: the derived subcomplex is
    always induced in the derived ambient."""
    new_ambient, record = derived_subdivision(ambient)
    new_sub, _ = derived_subdivision(sub, round=record.round)
    return new_sub, new_ambient


def pair_derive(pair: ComplexPair) -> ComplexPair:
    """Derive both components in one round, so the derived subcomplex is
    exactly the derived ambient restricted to the subcomplex's chains."""
    return pair_new(*_derived(pair.sub, pair.ambient))


def _biased(sub: SimplicialComplex, ambient: SimplicialComplex, what: str = "biased derived subdivision") -> ComplexPair:
    """The biased derived subdivision of an induced pair, checked once: it
    must come out strongly induced, else `what` names the failed step."""
    out = pair_new(sub, biased_derived(sub, ambient)[0])
    if out.status.verdict != STRONGLY_INDUCED:
        raise InvariantViolationError(
            f"{what} failed to produce a strongly induced pair: {out.status}", witness=out.status
        )
    return out


def pair_biased(pair: ComplexPair) -> ComplexPair:
    """Biased derived subdivision of the pair; needs an induced pair and
    produces a strongly induced one."""
    if not pair.status.at_least_induced:
        raise PreconditionError(
            f"biased derived subdivision needs an induced pair, status is {pair.status}",
            witness=pair.status,
        )
    return _biased(pair.sub, pair.ambient)


def _apply(cx: SimplicialComplex, move: Move) -> SimplicialComplex:
    """Apply a move to a bare complex."""
    if move.op == SUBDIVIDE:
        return edge_subdivide(cx, move.edge, move.new_label)
    return contract_edge(cx, move.edge, move.survivor)


def apply_move(pair: ComplexPair, move: Move) -> ComplexPair:
    """Apply a move on an edge of the subcomplex of a strongly induced pair to
    both components.

    `pair.status` is trusted as the verdict on the pair before the move: a
    `ComplexPair` built with a status its complexes do not have may pass
    the check below when it should fail.

    After a subdivision with new vertex w the ambient complex is re-biased
    locally: faces in the new subcomplex and faces missing
    near' = (V(star(w)) - V(new sub)) ∪ {w} are protected, everything else
    gets a barycenter (`_rebias_near`).  V(star(w)) is the vertex set of
    the facets the edge subdivision added, the cone cells at w.  That
    re-derives at most sum(|F|!) facets over the ambient facets F outside
    the new subcomplex that meet near'; above `subdivision._FACET_BUDGET` it
    raises `ResourceLimitError` before deriving any.  A contraction needs no
    re-bias.

    The check is local too: strong inducedness is decided on the facets the
    move removed from or added to the ambient (`_classify_change`), which is
    exact because the pair was strongly induced before the move.  If the
    local re-bias fails it, the global biased derived subdivision of the new
    pair runs once instead, with the full check.  That fallback derives at
    most sum(|F|!) facets over the ambient facets F outside the new
    subcomplex, under the same budget."""
    return _move(pair, move)[0]


def _move(pair: ComplexPair, move: Move) -> tuple[ComplexPair, frozenset[Simplex], frozenset[Simplex]]:
    """`apply_move`, with the facets the move removed from the ambient and
    those it added.  The ambient is edited through the pair's incidence
    (`ComplexPair._ambient_incidence`; on a lineage's first move, filters):
    each step reads the facets it changes off it, and the incidence takes
    the move's one edit, so the move costs the stars it touches, plus the
    copy of the facet set in `SimplicialComplex._replace`."""
    what = "pair edge subdivision" if move.op == SUBDIVIDE else "pair edge contraction"
    if pair.status.verdict != STRONGLY_INDUCED:
        raise PreconditionError(
            f"{what} needs a strongly induced pair, status is {pair.status}",
            witness=pair.status,
        )
    e = as_simplex(move.edge)
    if e not in pair.sub:
        raise AbsentFaceError(f"{e} is not an edge of the subcomplex")
    new_sub = _apply(pair.sub, move)
    inc = pair._ambient_incidence()
    if move.op == SUBDIVIDE:
        # one edit: the edge subdivision, then the re-bias around w of the
        # complex it makes, whose facets at near' are the ambient's less the
        # hits, and the cells (each holds w); its round is fresh for w too
        hits, cells = _stellar_edit(pair.ambient, e, move.new_label, inc)
        near = set().union(*cells) - new_sub.vertex_set()
        near.add(move.new_label)
        around = set(_facets_at(pair.ambient, near, inc)).difference(hits)
        around.update(cells)
        rnd = max(_fresh_round(pair.ambient, inc), next_round((move.new_label,)))
        total = len(pair.ambient.facets) - len(hits) + len(cells)
        derived, rebias = _rebias_near(new_sub, near, around, rnd, total)
        removed = frozenset(hits).union(frozenset(derived).difference(cells))
        added = frozenset(cells).difference(derived).union(rebias)
    else:
        edit = _contraction(pair.ambient, e, move.survivor, inc)
        if edit is None:
            raise InvalidEdgeError(e, blocking_missing_simplices(pair.ambient, e))
        at_edge, images = edit
        removed, added = frozenset(at_edge).difference(images), images.difference(at_edge)
    if inc is not None:
        inc = inc.edited(removed, added)
    new_ambient = pair.ambient._replace(removed, added)
    status = _classify_change(new_sub, new_ambient, removed | added, inc)
    if complexes._DEBUG_VALIDATE:
        full = classify_pair(new_sub, new_ambient)
        if full != status:
            raise InvariantViolationError(
                f"{what}: the change-set scan says {status}, the full scan {full}", witness=full
            )
        if inc is not None and inc != _Incidence.of(new_ambient):
            raise InvariantViolationError(f"{what}: the carried incidence is not the ambient's")
    if status.verdict == STRONGLY_INDUCED:
        return ComplexPair(new_sub, new_ambient, status, inc, _moved=True), removed, added
    if move.op == CONTRACT:
        raise InvariantViolationError(f"{what} lost strong inducedness: {status}", witness=status)
    old = pair.ambient.facets
    out = _biased(new_sub, new_ambient, f"{what}'s fallback")
    return out, old - out.ambient.facets, out.ambient.facets - old


def pair_subdivide_edge(pair: ComplexPair, edge, new_label) -> ComplexPair:
    """Subdivide an edge of the subcomplex in both components, then re-bias
    the ambient complex around the new vertex, falling back to the global
    biased derived subdivision if that is not strongly induced (see
    `apply_move`)."""
    return apply_move(pair, Move.subdivide(edge, new_label))


def pair_contract_edge(pair: ComplexPair, edge, survivor=None) -> ComplexPair:
    """Contract a valid edge of the subcomplex in both components (see `apply_move`)."""
    return apply_move(pair, Move.contract(edge, survivor))


@contextmanager
def _at_step(i: int) -> Iterator[None]:
    """Tag a failure of script step `i` with its index: a domain error comes
    wrapped in `ScriptStepError`, and a `ResourceLimitError` carries it as
    the `step` stat."""
    try:
        yield
    except DomainError as exc:
        raise ScriptStepError(i, exc) from exc
    except ResourceLimitError as exc:
        exc.stats["step"] = i
        raise


def _step(pair: ComplexPair, stage: str, move: Move | None, f_ambient: tuple[int, ...]) -> PipelineStep:
    return PipelineStep(
        stage=stage,
        move=move,
        f_sub=f_vector(pair.sub),
        f_ambient=f_ambient,
        euler_ambient=_alternating_sum(f_ambient),
        strongly_induced=pair.status.verdict == STRONGLY_INDUCED,
    )


def pipeline_run(
    ambient: SimplicialComplex,
    sub: SimplicialComplex,
    target: SimplicialComplex,
    script: MoveScript,
) -> tuple[SimplicialComplex, PipelineReport]:
    """Run the whole transformation: derive the pair, bias it, replay the
    script, and check the final subcomplex against the target.

    Returns the final ambient complex together with a per-step report of
    f-vectors, Euler characteristics and strong-inducedness verdicts.  The
    ambient's f-vector is carried from step to step, updated from the faces
    each move's changed facets lose and gain (`complexes._f_vector_change`).
    A move's domain error comes wrapped in `ScriptStepError`, and a move's
    `ResourceLimitError` carries its index as the `step` stat (`_at_step`).
    """
    _require_subcomplex(sub, ambient)
    pair = _biased(*_derived(sub, ambient))
    f_ambient = f_vector(pair.ambient)
    steps = [_step(pair, "init", None, f_ambient)]
    for i, move in enumerate(script.moves):
        with _at_step(i):
            pair, removed, added = _move(pair, move)
        f_ambient = _f_vector_change(f_ambient, pair.ambient, removed, added, pair._incidence)
        if complexes._DEBUG_VALIDATE:
            full = f_vector(pair.ambient)
            if full != f_ambient:
                raise InvariantViolationError(f"step {i}: the updated f-vector {f_ambient} is not {full}")
        steps.append(_step(pair, move.op, move, f_ambient))

    report = PipelineReport(steps=tuple(steps), final_isomorphism=_target_map(pair.sub, target, script))
    return pair.ambient, report


def _target_map(
    result: SimplicialComplex, target: SimplicialComplex, script: MoveScript
) -> dict[VertexLabel, VertexLabel]:
    """The map carrying a script's result onto the target: the script's
    target_map, which must cover the result and relabel it to the target,
    or else an isomorphism.  Raises ScriptMismatchError when neither fits."""
    if script.target_map is None:
        found = isomorphism(result, target)
        if found is None:
            raise ScriptMismatchError("final subcomplex is not isomorphic to the target")
        return found
    missing = [v for v in result.vertex_set() if v not in script.target_map]
    if missing:
        raise ScriptMismatchError(
            f"target_map does not cover final subcomplex vertices: {sorted(str(v) for v in missing)}"
        )
    if relabel_complex(result, script.target_map) != target:
        raise ScriptMismatchError("script did not transform the subcomplex into the target")
    return dict(script.target_map)


def replay_script(source: SimplicialComplex, script: MoveScript) -> SimplicialComplex:
    """Replay a script on a bare complex; step failures carry their index: a
    domain error comes wrapped in `ScriptStepError`, and a `ResourceLimitError`
    carries it as the `step` stat (`_at_step`)."""
    cx = source
    for i, move in enumerate(script.moves):
        with _at_step(i):
            cx = _apply(cx, move)
    return cx


def verify_script(source: SimplicialComplex, script: MoveScript, target: SimplicialComplex) -> bool:
    """Replay `script` on `source` and test the result against `target`:
    via the script's target_map when present, by isomorphism otherwise."""
    result = replay_script(source, script)
    try:
        _target_map(result, target, script)
    except ScriptMismatchError:
        return False
    return True
