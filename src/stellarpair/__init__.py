"""Subdivision and contraction moves on simplicial complex pairs.

Core objects: interned vertex labels, simplices, facet-based simplicial
complexes; inducedness predicates with witnesses; stellar / derived /
biased derived subdivisions; valid edge contractions; a pair engine that
keeps a subcomplex strongly induced while a move script is replayed; and
a bounded breadth-first search for such scripts.
"""

from .labels import VertexLabel, next_round, vlabel
from .complexes import (
    EMPTY_SIMPLEX,
    Simplex,
    SimplicialComplex,
    as_simplex,
    euler_characteristic,
    f_vector,
    from_facets,
    induced_subcomplex,
    is_pseudomanifold,
    is_subcomplex,
    link,
    relabel_complex,
    set_debug_validation,
    star,
)
from .canonical import canonical_form, isomorphism
from .inducedness import (
    InducednessWitness,
    classify_pair,
    is_induced,
    is_strongly_induced,
)
from .subdivision import (
    SubdivisionRecord,
    biased_derived,
    derived_subdivision,
    edge_subdivide,
    stellar_subdivide,
)
from .contraction import (
    blocking_missing_simplices,
    contract_edge,
    is_valid_edge,
    link_condition,
    missing_simplices,
)
from .pairs import (
    ComplexPair,
    Move,
    MoveScript,
    PipelineReport,
    PipelineStep,
    apply_move,
    pair_biased,
    pair_contract_edge,
    pair_derive,
    pair_new,
    pair_subdivide_edge,
    pipeline_run,
    replay_script,
    verify_script,
)
from .search import search_script
from . import errors

__version__ = "0.1.0"

__all__ = [
    "EMPTY_SIMPLEX",
    "ComplexPair",
    "InducednessWitness",
    "Move",
    "MoveScript",
    "PipelineReport",
    "PipelineStep",
    "Simplex",
    "SimplicialComplex",
    "SubdivisionRecord",
    "VertexLabel",
    "apply_move",
    "as_simplex",
    "biased_derived",
    "blocking_missing_simplices",
    "canonical_form",
    "classify_pair",
    "contract_edge",
    "derived_subdivision",
    "edge_subdivide",
    "errors",
    "euler_characteristic",
    "f_vector",
    "from_facets",
    "induced_subcomplex",
    "is_induced",
    "is_pseudomanifold",
    "is_strongly_induced",
    "is_subcomplex",
    "is_valid_edge",
    "isomorphism",
    "link",
    "link_condition",
    "missing_simplices",
    "next_round",
    "pair_biased",
    "pair_contract_edge",
    "pair_derive",
    "pair_new",
    "pair_subdivide_edge",
    "pipeline_run",
    "relabel_complex",
    "replay_script",
    "search_script",
    "set_debug_validation",
    "star",
    "stellar_subdivide",
    "verify_script",
    "vlabel",
]
