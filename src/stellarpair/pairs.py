"""The pair-transformation engine.

Keeps a subcomplex strongly induced in its ambient complex while edge
subdivisions and valid edge contractions are replayed on the subcomplex:
subdivisions are followed by a biased derived subdivision of the new
pair, contractions extend to the ambient complex directly.  The pipeline
turns a triangulation containing a subdivision of a target complex into
one containing the target itself.
"""

from __future__ import annotations

from dataclasses import dataclass

from .complexes import (
    SimplicialComplex,
    as_simplex,
    euler_characteristic,
    f_vector,
    is_subcomplex,
    relabel_complex,
)
from .canonical import isomorphism
from .contraction import contract_edge
from .errors import (
    AbsentFaceError,
    DomainError,
    InvariantViolationError,
    MalformedInputError,
    NotASubcomplexError,
    PreconditionError,
    ScriptMismatchError,
    ScriptStepError,
)
from .inducedness import STRONGLY_INDUCED, InducednessWitness, classify_pair
from .labels import VertexLabel, next_round, vlabel
from .subdivision import biased_derived, edge_subdivide, derived_subdivision

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
        edge = () if isinstance(self.edge, (str, int, VertexLabel)) else tuple(map(VertexLabel.of, self.edge))
        if len(edge) != 2 or edge[0] == edge[1]:
            raise MalformedInputError("a move edge needs exactly two distinct labels")
        object.__setattr__(self, "edge", edge)
        if self.op == SUBDIVIDE and self.new_label is None:
            raise MalformedInputError("subdivide move needs a new_label")
        if self.op == CONTRACT and self.new_label is not None:
            raise MalformedInputError("contract move takes no new_label")
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
    """A subcomplex inside an ambient complex, with cached inducedness status."""

    sub: SimplicialComplex
    ambient: SimplicialComplex
    status: InducednessWitness


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


def pair_derive(pair: ComplexPair) -> ComplexPair:
    """Derive both components in one round, so the derived subcomplex is
    exactly the derived ambient restricted to the subcomplex's chains."""
    rnd = next_round(pair.ambient.vertex_set())
    new_ambient, _ = derived_subdivision(pair.ambient, round=rnd)
    new_sub, _ = derived_subdivision(pair.sub, round=rnd)
    return pair_new(new_sub, new_ambient)


def pair_biased(pair: ComplexPair) -> ComplexPair:
    """Biased derived subdivision of the pair; needs an induced pair and
    produces a strongly induced one."""
    if not pair.status.at_least_induced:
        raise PreconditionError(
            f"biased derived subdivision needs an induced pair, status is {pair.status}",
            witness=pair.status,
        )
    new_ambient, _ = biased_derived(pair.sub, pair.ambient)
    failure = "biased derived subdivision failed to produce a strongly induced pair"
    return _strong_pair(pair.sub, new_ambient, failure)


def _strong_pair(sub: SimplicialComplex, ambient: SimplicialComplex, failure: str) -> ComplexPair:
    """The pair of `sub` in `ambient`, which must come out strongly induced."""
    out = pair_new(sub, ambient)
    if out.status.verdict != STRONGLY_INDUCED:
        raise InvariantViolationError(f"{failure}: {out.status}", witness=out.status)
    return out


def _apply(cx: SimplicialComplex, move: Move) -> SimplicialComplex:
    """Apply a move to a bare complex."""
    if move.op == SUBDIVIDE:
        return edge_subdivide(cx, move.edge, move.new_label)
    return contract_edge(cx, move.edge, move.survivor)


def apply_move(pair: ComplexPair, move: Move) -> ComplexPair:
    """Apply a move on an edge of the subcomplex of a strongly induced pair to
    both components; after a subdivision the ambient complex is re-biased."""
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
    new_ambient = _apply(pair.ambient, move)
    if move.op == SUBDIVIDE:
        new_ambient, _ = biased_derived(new_sub, new_ambient)
    return _strong_pair(new_sub, new_ambient, f"{what} lost strong inducedness")


def pair_subdivide_edge(pair: ComplexPair, edge, new_label) -> ComplexPair:
    """Subdivide an edge of the subcomplex in both components, then re-bias
    the ambient complex around the new pair (see `apply_move`)."""
    return apply_move(pair, Move.subdivide(edge, new_label))


def pair_contract_edge(pair: ComplexPair, edge, survivor=None) -> ComplexPair:
    """Contract a valid edge of the subcomplex in both components (see `apply_move`)."""
    return apply_move(pair, Move.contract(edge, survivor))


def _step(pair: ComplexPair, stage: str, move: Move | None) -> PipelineStep:
    return PipelineStep(
        stage=stage,
        move=move,
        f_sub=f_vector(pair.sub),
        f_ambient=f_vector(pair.ambient),
        euler_ambient=euler_characteristic(pair.ambient),
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
    f-vectors, Euler characteristics and strong-inducedness verdicts.
    """
    if not is_subcomplex(sub, ambient):
        raise NotASubcomplexError("the subdivided target is not a subcomplex of the input triangulation")
    pair = pair_biased(pair_derive(pair_new(sub, ambient)))
    steps = [_step(pair, "init", None)]
    for i, move in enumerate(script.moves):
        try:
            pair = apply_move(pair, move)
        except DomainError as exc:
            raise ScriptStepError(i, exc) from exc
        steps.append(_step(pair, move.op, move))

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
    """Replay a script on a bare complex; step failures carry their index."""
    cx = source
    for i, move in enumerate(script.moves):
        try:
            cx = _apply(cx, move)
        except DomainError as exc:
            raise ScriptStepError(i, exc) from exc
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
