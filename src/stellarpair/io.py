"""Document formats, canonical serialization, and random-instance generators.

Complexes and move scripts travel as small JSON documents with sorted
keys and canonically sorted facets, so serializing a parsed canonical
document reproduces it byte for byte and fixtures double as readable
examples.  `_canonical_json` is the one writer, for complex, script and
report documents and the CLI's combined payloads: it writes the bytes of
`json.dumps(data, indent=2, sort_keys=True)` through the C string
encoder, one join per list of strings, since `indent` would send every
label through the pure-Python encoder.  The readers turn every failure to
decode or parse a document (bad UTF-8, bad JSON, nesting too deep, an
integer literal too long to convert) into `MalformedInputError`.
"""

from __future__ import annotations

import json
import os
import random
import sys
from dataclasses import dataclass
from itertools import combinations

from .complexes import SimplicialComplex, from_facets, induced_subcomplex
from .errors import MalformedInputError, ResourceLimitError
from .pairs import (
    ComplexPair,
    Move,
    MoveScript,
    PipelineReport,
    pair_biased,
    pair_new,
)

VERTEX_CAP_ENV = "STELLARPAIR_VERTEX_CAP"
DEFAULT_VERTEX_CAP = 16


def vertex_cap() -> int:
    raw = os.environ.get(VERTEX_CAP_ENV, "")
    try:
        return int(raw) if raw else DEFAULT_VERTEX_CAP
    except ValueError:
        raise MalformedInputError(f"{VERTEX_CAP_ENV} must be an integer, got {raw!r}")


@dataclass(frozen=True)
class ComplexDocument:
    name: str
    complex: SimplicialComplex


def _expect(condition: bool, where: str, message: str) -> None:
    if not condition:
        raise MalformedInputError(f"{where}: {message}")


def _load_json(text: str) -> dict:
    # a JSONDecodeError, or the ValueError of an integer literal above the
    # int/str digit limit, is a ValueError; a deep nesting is a RecursionError
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise MalformedInputError(f"not valid JSON: {exc}") from exc
    _expect(isinstance(data, dict), "$", "expected a JSON object")
    return data


def parse_complex_document(text: str) -> ComplexDocument:
    data = _load_json(text)
    name = data.get("name", "")
    _expect(isinstance(name, str), "name", "expected a string")
    facets = data.get("facets")
    _expect(isinstance(facets, list), "facets", "expected a list of facets")
    for i, facet in enumerate(facets):
        _expect(isinstance(facet, list), f"facets[{i}]", "expected a list of labels")
        for j, lbl in enumerate(facet):
            _expect(isinstance(lbl, str) and lbl != "", f"facets[{i}][{j}]", "expected a nonempty string")
    return ComplexDocument(name=name, complex=from_facets(facets))


def complex_document_dict(doc: ComplexDocument) -> dict:
    facets = [list(f) for f in doc.complex.sorted_facets()]
    return {"name": doc.name, "facets": facets}


_encode = json.encoder.encode_basestring_ascii


def _canonical_json(data: dict) -> str:
    """`json.dumps(data, indent=2, sort_keys=True) + "\\n"`, byte for byte, for
    documents of str, int, bool, None, lists and dicts with str keys; any
    other type raises `TypeError`."""
    parts: list[str] = []
    _write(data, "\n", parts)
    parts.append("\n")
    return "".join(parts)


def _write(value, indent: str, parts: list[str]) -> None:
    """Append `value` to `parts` as `_canonical_json` writes it, with
    `indent` the line break and the spaces that start its own lines."""
    if isinstance(value, str):
        parts.append(_encode(value))
    elif value is None:
        parts.append("null")
    elif value is True or value is False:
        parts.append("true" if value else "false")
    elif isinstance(value, int):
        parts.append(int.__repr__(value))
    elif isinstance(value, list):
        if not value:
            parts.append("[]")
            return
        inner = indent + "  "
        try:
            # a list of strings, such as a facet, is one join
            parts += ("[", inner, ("," + inner).join(map(_encode, value)), indent, "]")
        except TypeError:
            sep = "[" + inner
            for item in value:
                parts.append(sep)
                _write(item, inner, parts)
                sep = "," + inner
            parts += (indent, "]")
    elif isinstance(value, dict):
        if not value:
            parts.append("{}")
            return
        inner = indent + "  "
        sep = "{" + inner
        for key in sorted(value):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            parts += (sep, _encode(key), ": ")
            _write(value[key], inner, parts)
            sep = "," + inner
        parts += (indent, "}")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def serialize_complex_document(doc: ComplexDocument) -> str:
    return _canonical_json(complex_document_dict(doc))


def _read_text(path: str) -> str:
    """The contents of the file at `path`, or of standard input when `path`
    is ``-``; text that is not UTF-8 is malformed input.  Standard input is
    decoded from its bytes when it has them, since under some locales its
    text layer would turn bad bytes into lone surrogates instead."""
    try:
        if path == "-":
            raw = getattr(sys.stdin, "buffer", None)
            return sys.stdin.read() if raw is None else raw.read().decode("utf-8")
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        where = "standard input" if path == "-" else path
        raise MalformedInputError(f"{where} is not UTF-8 text: {exc}") from exc


def _write_text(text: str, path: str) -> None:
    """Write `text` to the file at `path`, or to standard output when `path` is ``-``."""
    if path == "-":
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def load_complex(path: str) -> ComplexDocument:
    return parse_complex_document(_read_text(path))


def parse_script_document(text: str) -> MoveScript:
    data = _load_json(text)
    raw_moves = data.get("moves")
    _expect(isinstance(raw_moves, list), "moves", "expected a list of moves")
    moves = []
    for i, raw in enumerate(raw_moves):
        where = f"moves[{i}]"
        _expect(isinstance(raw, dict), where, "expected an object")
        op = raw.get("op")
        _expect(op in ("subdivide", "contract"), f"{where}.op", "expected 'subdivide' or 'contract'")
        edge = raw.get("edge")
        _expect(
            isinstance(edge, list) and len(edge) == 2 and all(isinstance(x, str) and x for x in edge),
            f"{where}.edge",
            "expected a pair of label strings",
        )
        if op == "subdivide":
            new_label = raw.get("new_label")
            _expect(isinstance(new_label, str) and new_label != "", f"{where}.new_label", "expected a nonempty string")
        else:
            survivor = raw.get("survivor")
            if survivor is not None:
                _expect(isinstance(survivor, str) and survivor != "", f"{where}.survivor", "expected a nonempty string")
        try:
            moves.append(Move.subdivide(edge, new_label) if op == "subdivide" else Move.contract(edge, survivor))
        except MalformedInputError as exc:
            raise MalformedInputError(f"{where}: {exc}") from exc
    target_map = data.get("target_map")
    if target_map is not None:
        _expect(isinstance(target_map, dict), "target_map", "expected an object of label pairs")
        for k, v in target_map.items():
            _expect(isinstance(v, str) and v != "", f"target_map[{k!r}]", "expected a nonempty string")
    return MoveScript(tuple(moves), target_map=target_map)


def script_document_dict(script: MoveScript) -> dict:
    moves = []
    for m in script.moves:
        entry: dict = {"op": m.op, "edge": sorted(m.edge)}
        if m.op == "subdivide":
            entry["new_label"] = m.new_label
        else:
            entry["survivor"] = m.survivor
        moves.append(entry)
    data: dict = {"moves": moves}
    if script.target_map is not None:
        data["target_map"] = dict(sorted(script.target_map.items()))
    return data


def serialize_script_document(script: MoveScript) -> str:
    return _canonical_json(script_document_dict(script))


def load_script(path: str) -> MoveScript:
    return parse_script_document(_read_text(path))


def report_dict(report: PipelineReport) -> dict:
    steps = []
    for s in report.steps:
        steps.append(
            {
                "stage": s.stage,
                "move": None if s.move is None else s.move.describe(),
                "f_sub": list(s.f_sub),
                "f_ambient": list(s.f_ambient),
                "euler_ambient": s.euler_ambient,
                "strongly_induced": s.strongly_induced,
            }
        )
    iso = report.final_isomorphism
    return {
        "steps": steps,
        "final_isomorphism": None if iso is None else dict(sorted(iso.items())),
    }


def serialize_report(report: PipelineReport) -> str:
    return _canonical_json(report_dict(report))


# -- random instances ---------------------------------------------------


def _check_cap(n_vertices: int) -> None:
    cap = vertex_cap()
    if n_vertices > cap:
        raise ResourceLimitError(
            f"requested {n_vertices} vertices, above the configured cap of {cap}",
            requested=n_vertices,
            cap=cap,
        )
    if n_vertices < 1:
        raise MalformedInputError("need at least one vertex")


def random_complex(n_vertices: int, max_dim: int, density: float, seed: int) -> SimplicialComplex:
    """A random complex on labels "1".."n": every vertex is present, and each
    candidate k-set is a facet candidate with probability density^(k-1).
    Deterministic for a fixed seed.  A negative `max_dim` is malformed."""
    _check_cap(n_vertices)
    if not 0.0 <= density <= 1.0:
        raise MalformedInputError("density must lie in [0, 1]")
    if max_dim < 0:
        raise MalformedInputError("max_dim must be at least 0")
    rng = random.Random(seed)
    labels = [str(i) for i in range(1, n_vertices + 1)]
    facets: list[list[str]] = [[l] for l in labels]
    for k in range(2, min(max_dim + 1, n_vertices) + 1):
        p = density ** (k - 1)
        for combo in combinations(labels, k):
            if rng.random() < p:
                facets.append(list(combo))
    return from_facets(facets)


def random_subcomplex_pair(
    n_vertices: int, max_dim: int, density: float, seed: int
) -> tuple[SimplicialComplex, SimplicialComplex]:
    """(sub, ambient): a random complex plus a random downward-closed
    selection of its faces (not necessarily induced)."""
    ambient = random_complex(n_vertices, max_dim, density, seed)
    rng = random.Random(seed * 31 + 7)
    chosen = [f for f in ambient.all_faces() if rng.random() < 0.35]
    return SimplicialComplex(chosen), ambient


def random_induced_pair(n_vertices: int, max_dim: int, density: float, seed: int) -> ComplexPair:
    """A pair whose subcomplex is induced by construction: the restriction of
    the ambient complex to a random vertex subset."""
    ambient = random_complex(n_vertices, max_dim, density, seed)
    rng = random.Random(seed * 31 + 13)
    verts = ambient.vertices()
    keep = [v for v in verts if rng.random() < 0.55]
    sub = induced_subcomplex(ambient, keep)
    return pair_new(sub, ambient)


def random_strongly_induced_pair(n_vertices: int, max_dim: int, density: float, seed: int) -> ComplexPair:
    """An induced pair pushed through the biased derived subdivision, which
    makes it strongly induced."""
    return pair_biased(random_induced_pair(n_vertices, max_dim, density, seed))
