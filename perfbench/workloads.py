"""The benchmark's three workloads.

Each workload builds a fixed pool of inputs from the seed, runs one op per
input, and checks every op's output semantically, so a later change that
legitimately produces a different triangulation still passes.  The
structures come from the acceptance suite's seeded schedule (4-8
vertices, dimension 1-3, densities 0.25/0.40/0.55), and so do the edges
the moves act on; the seed picks the vertex names and the new labels.
Keeping the structures and edges fixed keeps the traffic identical across
seeds, so figures from different seeds measure the same work.
"""

from __future__ import annotations

import itertools
import random

import stellarpair as sp
from stellarpair import io as sio
from stellarpair.inducedness import STRONGLY_INDUCED


def schedule(i: int) -> tuple[int, int, float]:
    """The acceptance suite's parameter schedule (period 45)."""
    n = 4 + (i % 5)
    dim = 1 + ((i // 5) % 3)
    density = (0.25, 0.4, 0.55)[(i // 15) % 3]
    return n, dim, density


def _tokens(cx) -> list[list[str]]:
    return [[v.token for v in f.vertices] for f in cx.sorted_facets()]


def _renamer(rng: random.Random, labels, keep_order: bool = False) -> dict[str, str]:
    """A seeded injective renaming of original vertex labels; with
    `keep_order` the new names sort as the old ones do."""
    picked = rng.sample(range(100, 1000), len(labels))
    old = [str(x) for x in labels]
    if keep_order:
        old.sort()
        picked.sort()
    return {o: f"v{new}" for o, new in zip(old, picked)}


def _edges(cx) -> list:
    return sorted(cx.faces().get(1, ()), key=sp.Simplex.sort_key)


def _renamed(simplex, names: dict[str, str]):
    return None if simplex is None else sp.Simplex.of(names[str(v)] for v in simplex.vertices)


def _bary(a: str, b: str) -> str:
    """The label ``pair_derive`` gives the midpoint of edge ab (round 0)."""
    return sp.VertexLabel.barycenter((a, b), 0).token


def sizes(cx) -> dict:
    return {"vertices": cx.num_vertices(), "facets": len(cx.facets), "dim": cx.dim}


def _strong(sub, ambient) -> bool:
    return sp.is_strongly_induced(sub, ambient).verdict == STRONGLY_INDUCED


class PairStream:
    """Acceptance-suite pair traffic: bias, contract one valid sub edge,
    subdivide one sub edge.  One op is one pair."""

    name = "pair_stream"

    def __init__(self, seed: int, size: int = 225):
        rng = random.Random(seed)
        self.pool = []
        for i in range(size):
            pair = sio.random_induced_pair(*schedule(i), i)
            # The renaming keeps the label order and the edges come from the
            # input's own index, so every seed does the same work on other names.
            names = _renamer(rng, pair.ambient.vertices(), keep_order=True)
            pick = random.Random(i)
            edges = _edges(pair.sub)
            valid = [e for e in edges if sp.is_valid_edge(pair.sub, e)]
            contract = pick.choice(valid) if valid else None
            subdivide = pick.choice(edges) if edges else None
            self.pool.append(
                {
                    "index": i,
                    "sub": _tokens(sp.relabel_complex(pair.sub, names)),
                    "ambient": _tokens(sp.relabel_complex(pair.ambient, names)),
                    "status": pair.status,
                    "contract": _renamed(contract, names),
                    "subdivide": _renamed(subdivide, names),
                    "label": f"s{rng.randrange(10**6)}",
                }
            )

    @staticmethod
    def inputs(item):
        # fresh complexes every op, so no op reuses another's cached faces; the
        # status computed at set-up holds, since renaming keeps the verdict
        return sp.ComplexPair(
            sp.from_facets(item["sub"]), sp.from_facets(item["ambient"]), item["status"]
        )

    @staticmethod
    def op(item, pair):
        biased = sp.pair_biased(pair)
        contracted = subdivided = None
        if item["contract"] is not None:
            e = item["contract"]
            contracted = sp.pair_contract_edge(biased, e, min(e.vertices))
        if item["subdivide"] is not None:
            subdivided = sp.pair_subdivide_edge(biased, item["subdivide"], item["label"])
        return biased, contracted, subdivided

    @staticmethod
    def outputs(out):
        return [p for p in out if p is not None]

    @staticmethod
    def check(item, pair, out) -> list[str]:
        """Semantic checks; returns the problems found."""
        biased, contracted, subdivided = out
        chi = sp.euler_characteristic(pair.ambient)
        problems = []
        for what, got in (("biased", biased), ("contracted", contracted), ("subdivided", subdivided)):
            if got is None:
                continue
            if not _strong(got.sub, got.ambient):
                problems.append(f"{what} pair is not strongly induced")
            if sp.euler_characteristic(got.ambient) != chi:
                problems.append(f"{what} ambient changed the Euler characteristic")
        if biased.sub != pair.sub:
            problems.append("biasing changed the subcomplex")
        if contracted is not None:
            e = item["contract"]
            if contracted.sub != sp.contract_edge(pair.sub, e, min(e.vertices)):
                problems.append("contracted sub is not the contraction of the sub")
        if subdivided is not None:
            if subdivided.sub != sp.edge_subdivide(pair.sub, item["subdivide"], item["label"]):
                problems.append("subdivided sub is not edge_subdivide(sub, e, label)")
        return problems

    def fingerprint(self, out):
        return tuple(hash(p.ambient) ^ hash(p.sub) for p in self.outputs(out))

    def out_facets(self, item, pair, out) -> int:
        return sum(len(p.ambient.facets) for p in self.outputs(out))

    def size_record(self, item, pair, out) -> dict:
        last = self.outputs(out)[-1]
        return {"in": sizes(pair.ambient), "out": sizes(last.ambient)}


README_BASE = [[1, 2, 3], [1, 2, 4], [1, 3, 4], [2, 3, 4]]
PIPELINE_BASES = (
    # (name, facets, k): k pair edge subdivisions along one sub edge, contracted back
    ("tetrahedron-readme", README_BASE, 0),
    ("triangle-disk", [[1, 2, 3]], 2),
    ("tetrahedron", README_BASE, 1),
    (
        "octahedron",
        [[1, 2, 3], [1, 2, 4], [1, 5, 3], [1, 5, 4], [6, 2, 3], [6, 2, 4], [6, 5, 3], [6, 5, 4]],
        1,
    ),
)


class PipelineGrow:
    """``stellarpair pair run`` traffic minus process start-up: parse the four
    documents, run the pipeline, serialize the final complex and the report.
    One op is one script."""

    name = "pipeline_grow"

    def __init__(self, seed: int, size: int = len(PIPELINE_BASES)):
        rng = random.Random(seed)
        self.pool = []
        for index, (name, facets, k) in enumerate(PIPELINE_BASES[:size]):
            base = sp.from_facets(facets)
            names = _renamer(rng, base.vertices())
            one, two, three = (names[x] for x in ("1", "2", "3"))
            ambient = sp.relabel_complex(base, names)
            sub = sp.from_facets([[one, two], [two, three]])
            target = sp.from_facets([["a", "c"]])
            # the path 1-2-3 is symmetric under 1 <-> 3 on every base, so either
            # end gives the same sizes
            end = rng.choice((one, three))
            near = _bary(end, two)
            fresh = [f"w{x}" for x in rng.sample(range(100, 1000), k)]
            moves = []
            for j, w in enumerate(fresh):
                moves.append(sp.Move.subdivide((end, near if j == 0 else fresh[j - 1]), w))
            for w in reversed(fresh):
                moves.append(sp.Move.contract((end, w), end))
            moves += [
                sp.Move.contract((one, _bary(one, two)), one),
                sp.Move.contract((one, two), one),
                sp.Move.contract((one, _bary(two, three)), one),
            ]
            script = sp.MoveScript(tuple(moves), target_map={one: "a", three: "c"})
            self.pool.append(
                {
                    "index": index,
                    "name": name,
                    "k": k,
                    "ambient": sio.serialize_complex_document(sio.ComplexDocument(name, ambient)),
                    "sub": sio.serialize_complex_document(sio.ComplexDocument("sub", sub)),
                    "target": sio.serialize_complex_document(sio.ComplexDocument("target", target)),
                    "script": sio.serialize_script_document(script),
                    "chi": sp.euler_characteristic(ambient),
                    "dim": ambient.dim,
                    "closed": sp.is_pseudomanifold(ambient, ambient.dim),
                }
            )

    @staticmethod
    def inputs(item):
        return item

    @staticmethod
    def op(item, _):
        ambient = sio.parse_complex_document(item["ambient"])
        sub = sio.parse_complex_document(item["sub"])
        target = sio.parse_complex_document(item["target"])
        script = sio.parse_script_document(item["script"])
        final, report = sp.pipeline_run(ambient.complex, sub.complex, target.complex, script)
        final_text = sio.serialize_complex_document(sio.ComplexDocument(ambient.name, final))
        report_text = sio.serialize_report(report)
        return final, report, target.complex, final_text, report_text

    @staticmethod
    def check(item, _, out) -> list[str]:
        final, report, target, final_text, _ = out
        problems = []
        if not all(s.strongly_induced for s in report.steps):
            problems.append("a report step is not strongly induced")
        if any(s.euler_ambient != item["chi"] for s in report.steps):
            problems.append("the Euler characteristic changed along the script")
        if sp.euler_characteristic(final) != item["chi"]:
            problems.append("the final complex has another Euler characteristic")
        inverse = {v: k for k, v in (report.final_isomorphism or {}).items()}
        if set(inverse) != target.vertex_set():
            problems.append("final_isomorphism does not cover the target")
        else:
            embedded = sp.relabel_complex(target, inverse)
            if not sp.is_subcomplex(embedded, final):
                problems.append("the target is not embedded in the final complex")
            elif not _strong(embedded, final):
                problems.append("the embedded target is not strongly induced")
        if item["closed"] and not sp.is_pseudomanifold(final, item["dim"]):
            problems.append("the closed base did not stay a pseudomanifold")
        if sio.parse_complex_document(final_text).complex != final:
            problems.append("the serialized final complex does not parse back to itself")
        return problems

    @staticmethod
    def fingerprint(out):
        return out[3], out[4]

    @staticmethod
    def out_facets(item, _, out) -> int:
        return len(out[0].facets)

    @staticmethod
    def size_record(item, _, out) -> dict:
        peak = max(s.f_ambient[-1] for s in out[1].steps)
        return {"script": item["name"], "k": item["k"], "peak_facets": peak, "out": sizes(out[0])}


class SearchBfs:
    """``stellarpair search`` traffic: find a script of length at most two from
    a random complex to a complex made by two edge subdivisions of it.
    One op is one search."""

    name = "search_bfs"

    def __init__(self, seed: int, size: int = 180):
        rng = random.Random(seed)
        self.pool = []
        for i in itertools.count():
            if len(self.pool) == size:
                break
            n, dim, density = schedule(i)
            source = sp.relabel_complex(
                sio.random_complex(n, dim, density, i), _renamer(rng, range(1, n + 1), keep_order=True)
            )
            edges = _edges(source)
            if not edges:
                continue
            # BFS stops at the first state isomorphic to the target, so its cost
            # depends on where the target's edges fall in the (label-sorted) edge
            # order.  The edges come from the input's own index and the renaming
            # keeps the order, so every seed searches the same way.
            pick = random.Random(i)
            labels = sorted(f"t{x}" for x in rng.sample(range(100, 1000), 2))
            once = sp.edge_subdivide(source, pick.choice(edges), labels[0])
            target = sp.edge_subdivide(once, pick.choice(_edges(once)), labels[1])
            self.pool.append(
                {
                    "index": i,
                    "source": _tokens(source),
                    "target": _tokens(target),
                    "max_vertices": n + 2,
                }
            )

    @staticmethod
    def inputs(item):
        return sp.from_facets(item["source"]), sp.from_facets(item["target"])

    @staticmethod
    def op(item, inputs):
        source, target = inputs
        return sp.search_script(source, target, max_depth=2, max_vertices=item["max_vertices"])

    @staticmethod
    def check(item, inputs, script) -> list[str]:
        source, target = inputs
        if script is None:
            return ["no script found"]
        problems = []
        if len(script) > 2:
            problems.append(f"script has {len(script)} moves, more than 2")
        if not sp.verify_script(source, script, target):
            problems.append("verify_script rejects the script")
        return problems

    @staticmethod
    def fingerprint(script):
        return script

    @staticmethod
    def out_facets(item, inputs, script) -> int:
        return len(sp.replay_script(inputs[0], script).facets)

    @staticmethod
    def size_record(item, inputs, script) -> dict:
        return {"in": sizes(inputs[0]), "target": sizes(inputs[1]), "moves": None if script is None else len(script)}


WORKLOADS = {w.name: w for w in (PairStream, PipelineGrow, SearchBfs)}
