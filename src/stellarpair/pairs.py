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
    """One edge subdivision or one valid edge contraction on the subcomplex."""

    op: str
    edge: tuple[VertexLabel, VertexLabel]
    new_label: VertexLabel | None = None
    survivor: VertexLabel | None = None

    def __post_init__(self):
        if self.op not in (SUBDIVIDE, CONTRACT):
            raise MalformedInputError(f"unknown move op {self.op!r}")
        if len(self.edge) != 2 or self.edge[0] == self.edge[1]:
            raise MalformedInputError("a move edge needs exactly two distinct labels")
        if self.op == SUBDIVIDE and self.new_label is None:
            raise MalformedInputError("subdivide move needs a new_label")
        if self.op == CONTRACT and self.new_label is not None:
            raise MalformedInputError("contract move takes no new_label")
        if self.op == CONTRACT and self.survivor is not None and self.survivor not in self.edge:
            raise MalformedInputError(f"contract survivor {self.survivor} is not an endpoint of the edge")

    @classmethod
    def subdivide(cls, edge, new_label) -> "Move":
        a, b = edge
        return cls(SUBDIVIDE, (vlabel(a), vlabel(b)), new_label=vlabel(new_label))

    @classmethod
    def contract(cls, edge, survivor=None) -> "Move":
        a, b = edge
        e = (vlabel(a), vlabel(b))
        keep = min(e) if survivor is None else vlabel(survivor)
        return cls(CONTRACT, e, survivor=keep)

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
    out = pair_new(pair.sub, new_ambient)
    if out.status.verdict != STRONGLY_INDUCED:
        raise InvariantViolationError(
            f"biased derived subdivision failed to produce a strongly induced pair: {out.status}",
            witness=out.status,
        )
    return out


def _require_strong(pair: ComplexPair, what: str) -> None:
    if pair.status.verdict != STRONGLY_INDUCED:
        raise PreconditionError(
            f"{what} needs a strongly induced pair, status is {pair.status}",
            witness=pair.status,
        )


def pair_subdivide_edge(pair: ComplexPair, edge, new_label) -> ComplexPair:
    """Subdivide an edge of the subcomplex in both components, then re-bias
    the ambient complex around the new pair."""
    _require_strong(pair, "pair edge subdivision")
    e = as_simplex(edge)
    if e not in pair.sub:
        raise AbsentFaceError(f"{e} is not an edge of the subcomplex")
    new_sub = edge_subdivide(pair.sub, e, new_label)
    new_ambient = edge_subdivide(pair.ambient, e, new_label)
    new_ambient, _ = biased_derived(new_sub, new_ambient)
    out = pair_new(new_sub, new_ambient)
    if out.status.verdict != STRONGLY_INDUCED:
        raise InvariantViolationError(
            f"pair edge subdivision lost strong inducedness: {out.status}",
            witness=out.status,
        )
    return out


def pair_contract_edge(pair: ComplexPair, edge, survivor=None) -> ComplexPair:
    """Contract a valid edge of the subcomplex in both components."""
    _require_strong(pair, "pair edge contraction")
    e = as_simplex(edge)
    if e not in pair.sub:
        raise AbsentFaceError(f"{e} is not an edge of the subcomplex")
    out = pair_new(contract_edge(pair.sub, e, survivor), contract_edge(pair.ambient, e, survivor))
    if out.status.verdict != STRONGLY_INDUCED:
        raise InvariantViolationError(
            f"pair edge contraction lost strong inducedness: {out.status}",
            witness=out.status,
        )
    return out


def apply_move(pair: ComplexPair, move: Move) -> ComplexPair:
    if move.op == SUBDIVIDE:
        return pair_subdivide_edge(pair, move.edge, move.new_label)
    return pair_contract_edge(pair, move.edge, move.survivor)


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
