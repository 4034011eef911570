"""Command-line interface.

Exit codes: 0 success / positive verdict, 1 domain errors and negative
verdicts (invalid edge, not induced, no script found), 2 malformed or
unreadable input, 3 resource limits.  Structured diagnostics go to stderr as JSON.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import io as sio
from .complexes import (
    Simplex,
    SimplicialComplex,
    _alternating_sum,
    f_vector,
    is_pseudomanifold,
)
from .contraction import blocking_missing_simplices, contract_edge, missing_simplices
from .errors import (
    DomainError,
    InvalidEdgeError,
    MalformedInputError,
    PreconditionError,
    ResourceLimitError,
    ScriptStepError,
    StellarPairError,
)
from .inducedness import is_induced, is_strongly_induced
from .pairs import pipeline_run, verify_script
from .search import DEFAULT_STATE_BUDGET, search_script
from .subdivision import biased_derived, derived_subdivision, edge_subdivide, stellar_subdivide

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_MALFORMED = 2
EXIT_RESOURCE = 3


def _labels(raw: str) -> list[str]:
    parts = [p for p in raw.split(",") if p != ""]
    if not parts:
        raise MalformedInputError(f"expected comma-separated labels, got {raw!r}")
    return parts


def _emit(text: str, out: str | None) -> None:
    """Write `text` to the file `out`, or to standard output when `out` is unset or ``-``."""
    sio._write_text(text, out or "-")


def _emit_complex(cx: SimplicialComplex, name: str, out: str | None) -> None:
    _emit(sio.serialize_complex_document(sio.ComplexDocument(name, cx)), out)


def _diag(payload: dict) -> None:
    sys.stderr.write(json.dumps(payload, sort_keys=True) + "\n")


def _cmd_info(args) -> int:
    doc = sio.load_complex(args.complex)
    cx = doc.complex
    f = f_vector(cx)
    data = {
        "name": doc.name,
        "dimension": cx.dim,
        "vertices": cx.num_vertices(),
        "facets": len(cx.facets),
        "f_vector": list(f),
        "euler_characteristic": _alternating_sum(f),
        "pseudomanifold": is_pseudomanifold(cx, cx.dim),
    }
    _emit(sio._canonical_json(data), args.out)
    return EXIT_OK


def _cmd_subdivide(args) -> int:
    doc = sio.load_complex(args.complex) if args.complex else None
    if args.mode == "stellar":
        result = stellar_subdivide(doc.complex, _labels(args.face), args.label)
        _emit_complex(result, doc.name, args.out)
    elif args.mode == "edge":
        result = edge_subdivide(doc.complex, _labels(args.edge), args.label)
        _emit_complex(result, doc.name, args.out)
    elif args.mode == "derived":
        result, _ = derived_subdivision(doc.complex)
        _emit_complex(result, doc.name, args.out)
    else:  # biased
        sub = sio.load_complex(args.sub)
        ambient = sio.load_complex(args.ambient)
        result, _ = biased_derived(sub.complex, ambient.complex)
        _emit_complex(result, ambient.name, args.out)
    return EXIT_OK


def _cmd_contract(args) -> int:
    doc = sio.load_complex(args.complex)
    result = contract_edge(doc.complex, _labels(args.edge), args.survivor)
    _emit_complex(result, doc.name, args.out)
    return EXIT_OK


def _cmd_check(args) -> int:
    if args.predicate in ("induced", "strong"):
        sub = sio.load_complex(args.sub).complex
        ambient = sio.load_complex(args.ambient).complex
        witness = is_induced(sub, ambient) if args.predicate == "induced" else is_strongly_induced(sub, ambient)
        payload: dict = {"verdict": witness.verdict}
        if witness.offending_simplex is not None:
            payload["offending_simplex"] = list(witness.offending_simplex)
        if witness.sigma is not None:
            payload["sigma"] = list(witness.sigma)
            payload["intersection_faces"] = [list(s) for s in witness.intersection_faces]
        _emit(sio._canonical_json(payload), args.out)
        return EXIT_OK if witness.at_least_induced else EXIT_DOMAIN
    if args.predicate == "valid-edge":
        cx = sio.load_complex(args.complex).complex
        blockers = blocking_missing_simplices(cx, _labels(args.edge))
        payload = {"valid": not blockers, "blockers": [list(b) for b in blockers]}
        _emit(sio._canonical_json(payload), args.out)
        return EXIT_OK if not blockers else EXIT_DOMAIN
    # missing
    cx = sio.load_complex(args.complex).complex
    missing = sorted(missing_simplices(cx, args.max_dim), key=Simplex.sort_key)
    payload = {"missing_simplices": [list(s) for s in missing]}
    _emit(sio._canonical_json(payload), args.out)
    return EXIT_OK


def _cmd_pair_run(args) -> int:
    ambient = sio.load_complex(args.ambient)
    sub = sio.load_complex(args.sub)
    target = sio.load_complex(args.target)
    script = sio.load_script(args.script)
    final, report = pipeline_run(ambient.complex, sub.complex, target.complex, script)
    result = sio.ComplexDocument(ambient.name, final)
    if not args.out and not args.report:
        combined = {"report": sio.report_dict(report), "result": sio.complex_document_dict(result)}
        _emit(sio._canonical_json(combined), None)
        return EXIT_OK
    # each document is built once, where it is written: the files first, then
    # the one without a file of its own on standard output
    if args.out:
        _emit(sio.serialize_complex_document(result), args.out)
    if args.report:
        _emit(sio.serialize_report(report), args.report)
    if not args.report:
        _emit(sio.serialize_report(report), None)
    elif not args.out:
        _emit(sio.serialize_complex_document(result), None)
    return EXIT_OK


def _cmd_search(args) -> int:
    source = sio.load_complex(args.source).complex
    target = sio.load_complex(args.target).complex
    script = search_script(
        source,
        target,
        max_depth=args.max_depth,
        max_vertices=args.max_vertices,
        max_states=args.max_states,
    )
    if script is None:
        _diag({"error": "no-script", "message": "no script found within bounds"})
        return EXIT_DOMAIN
    _emit(sio.serialize_script_document(script), args.out)
    return EXIT_OK


def _cmd_verify_script(args) -> int:
    source = sio.load_complex(args.source).complex
    target = sio.load_complex(args.target).complex
    script = sio.load_script(args.script)
    ok = verify_script(source, script, target)
    _emit(json.dumps({"verified": ok}, sort_keys=True) + "\n", args.out)
    return EXIT_OK if ok else EXIT_DOMAIN


def _cmd_random(args) -> int:
    if args.kind == "complex":
        cx = sio.random_complex(args.vertices, args.max_dim, args.density, args.seed)
        _emit_complex(cx, f"random-{args.seed}", args.out)
        return EXIT_OK
    if args.kind == "induced-pair":
        pair = sio.random_induced_pair(args.vertices, args.max_dim, args.density, args.seed)
    else:
        pair = sio.random_strongly_induced_pair(args.vertices, args.max_dim, args.density, args.seed)
    if args.sub_out or args.ambient_out:
        # a component without a file of its own goes to --out, or else to standard output
        _emit_complex(pair.sub, "sub", args.sub_out or args.out)
        _emit_complex(pair.ambient, "ambient", args.ambient_out or args.out)
        return EXIT_OK
    combined = {
        "ambient": sio.complex_document_dict(sio.ComplexDocument("ambient", pair.ambient)),
        "status": pair.status.verdict,
        "sub": sio.complex_document_dict(sio.ComplexDocument("sub", pair.sub)),
    }
    _emit(sio._canonical_json(combined), args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stellarpair",
        description="Subdivision and contraction moves on simplicial complex pairs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", help="f-vector, Euler characteristic and diagnostics")
    p.add_argument("--complex", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_info)

    p = sub.add_parser("subdivide", help="stellar, edge, derived, or biased subdivision")
    mode = p.add_subparsers(dest="mode", required=True)
    m = mode.add_parser("stellar")
    m.add_argument("--complex", required=True)
    m.add_argument("--face", required=True, help="comma-separated labels")
    m.add_argument("--label", required=True)
    m.add_argument("--out")
    m.set_defaults(func=_cmd_subdivide)
    m = mode.add_parser("edge")
    m.add_argument("--complex", required=True)
    m.add_argument("--edge", required=True, help="comma-separated labels, e.g. 1,2")
    m.add_argument("--label", required=True)
    m.add_argument("--out")
    m.set_defaults(func=_cmd_subdivide)
    m = mode.add_parser("derived")
    m.add_argument("--complex", required=True)
    m.add_argument("--out")
    m.set_defaults(func=_cmd_subdivide)
    m = mode.add_parser("biased")
    m.add_argument("--sub", required=True)
    m.add_argument("--ambient", required=True)
    m.add_argument("--out")
    m.set_defaults(func=_cmd_subdivide, complex=None)

    p = sub.add_parser("contract", help="contract a valid edge")
    p.add_argument("--complex", required=True)
    p.add_argument("--edge", required=True)
    p.add_argument("--survivor")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_contract)

    p = sub.add_parser("check", help="inducedness / validity / missing-simplex checks")
    pred = p.add_subparsers(dest="predicate", required=True)
    for name in ("induced", "strong"):
        m = pred.add_parser(name)
        m.add_argument("--sub", required=True)
        m.add_argument("--ambient", required=True)
        m.add_argument("--out")
        m.set_defaults(func=_cmd_check)
    m = pred.add_parser("valid-edge")
    m.add_argument("--complex", required=True)
    m.add_argument("--edge", required=True)
    m.add_argument("--out")
    m.set_defaults(func=_cmd_check)
    m = pred.add_parser("missing")
    m.add_argument("--complex", required=True)
    m.add_argument("--max-dim", type=int, default=None)
    m.add_argument("--out")
    m.set_defaults(func=_cmd_check)

    p = sub.add_parser("pair", help="pair pipeline")
    pm = p.add_subparsers(dest="pair_command", required=True)
    m = pm.add_parser("run")
    m.add_argument("--ambient", required=True)
    m.add_argument("--sub", required=True)
    m.add_argument("--target", required=True)
    m.add_argument("--script", required=True)
    m.add_argument("--out")
    m.add_argument("--report")
    m.set_defaults(func=_cmd_pair_run)

    p = sub.add_parser("search", help="BFS for a move script")
    p.add_argument("--source", dest="source", required=True)
    p.add_argument("--to", dest="target", required=True)
    p.add_argument("--max-depth", type=int, default=4)
    p.add_argument("--max-vertices", type=int, default=12)
    p.add_argument("--max-states", type=int, default=DEFAULT_STATE_BUDGET)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("verify-script", help="replay a script and compare with a target")
    p.add_argument("--source", dest="source", required=True)
    p.add_argument("--script", required=True)
    p.add_argument("--to", dest="target", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_verify_script)

    p = sub.add_parser("random", help="seeded random complexes and pairs")
    p.add_argument("kind", choices=["complex", "induced-pair", "strong-pair"])
    p.add_argument("--vertices", type=int, required=True)
    p.add_argument("--max-dim", type=int, default=2)
    p.add_argument("--density", type=float, default=0.5)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out")
    p.add_argument("--sub-out")
    p.add_argument("--ambient-out")
    p.set_defaults(func=_cmd_random)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InvalidEdgeError as exc:
        _diag(
            {
                "error": "invalid-edge",
                "message": str(exc),
                "blockers": [list(b) for b in exc.blockers],
            }
        )
        return EXIT_DOMAIN
    except ScriptStepError as exc:
        _diag({"error": "script-step", "message": str(exc), "step": exc.step})
        return EXIT_DOMAIN
    except PreconditionError as exc:
        _diag({"error": "precondition", "message": str(exc), "witness": str(exc.witness)})
        return EXIT_DOMAIN
    except DomainError as exc:
        _diag({"error": "domain", "message": str(exc)})
        return EXIT_DOMAIN
    except ResourceLimitError as exc:
        _diag({"error": "resource-limit", "message": str(exc), **exc.stats})
        return EXIT_RESOURCE
    except MalformedInputError as exc:
        _diag({"error": "malformed-input", "message": str(exc)})
        return EXIT_MALFORMED
    except OSError as exc:
        _diag({"error": "io", "message": str(exc), "path": exc.filename})
        return EXIT_MALFORMED
    except StellarPairError as exc:
        _diag({"error": "internal", "message": str(exc)})
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
