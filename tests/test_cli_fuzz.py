"""Every subcommand of the CLI, run in process on drawn documents, labels and
scripts, ends cleanly: an exit code of 0-3, and standard error either empty or
one JSON diagnostic line of a known kind, never an uncaught exception.

The documents are well-formed complexes and scripts over a small label pool
(plain, barycenter-like and reserved-character labels), arbitrary JSON trees
(non-finite numbers, wrong types at every key) and raw bytes.  Every size
the commands take is drawn small, so each example is bounded.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import tempfile
from datetime import timedelta

from hypothesis import HealthCheck, event, given, settings, strategies as st

from stellarpair.cli import main

# the diagnostics `cli.main` writes on a clean failure; its "internal" kind
# reports a library error that no input should reach, so it is not listed
KINDS = {
    "invalid-edge",
    "script-step",
    "precondition",
    "domain",
    "resource-limit",
    "malformed-input",
    "io",
    "no-script",
}


def _mostly(common, rare, odds=10):
    """`rare` in one draw of `odds`, else `common`, so most inputs get past
    the readers and the option checks."""
    return st.integers(1, odds).flatmap(lambda i: rare if i == odds else common)


PLAIN = st.sampled_from(["1", "2", "3", "4", "5", "a", "c", "w", "b{1,2}@0", "b{2,3}@0"])
TOKENS = _mostly(PLAIN, st.sampled_from(["", "x,y", "{", "b{1}@x", "b{1,2}@-1"]) | st.text(max_size=4), odds=30)
EDGES = _mostly(st.lists(TOKENS, min_size=2, max_size=2), st.lists(TOKENS, max_size=3)).map(",".join)
FACET = _mostly(st.lists(TOKENS, min_size=1, max_size=4, unique=True), st.lists(TOKENS, max_size=4), odds=30)
FACETS = st.lists(FACET, max_size=4)
SCALARS = st.none() | st.booleans() | st.integers(-(10**6), 10**6) | st.floats() | st.text(max_size=4)
KEYS = st.sampled_from(["facets", "name", "moves", "op", "edge", "new_label", "survivor", "target_map"])
TREES = st.recursive(
    SCALARS,
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(KEYS | st.text(max_size=4), kids, max_size=3),
    max_leaves=8,
)
MOVES = st.fixed_dictionaries(
    {
        "op": _mostly(st.sampled_from(["subdivide", "contract"]), st.just("flip")),
        "edge": EDGES.map(lambda e: e.split(",")),
    },
    optional={"new_label": TOKENS, "survivor": TOKENS},
)
SCRIPTS = st.fixed_dictionaries(
    {"moves": st.lists(MOVES, max_size=3)}, optional={"target_map": st.dictionaries(TOKENS, TOKENS, max_size=3)}
)


def _encoded(documents):
    """A document file's bytes: mostly a drawn document, else an arbitrary
    JSON tree or raw bytes."""
    drawn = _mostly(documents, TREES | st.binary(max_size=40), odds=20)
    return drawn.map(lambda d: d if isinstance(d, bytes) else json.dumps(d).encode())


NAMES = _mostly(st.text(max_size=4), st.integers(), odds=30)
COMPLEXES = _encoded(st.fixed_dictionaries({"facets": FACETS}, optional={"name": NAMES}))

COMMANDS = [
    "info",
    "subdivide stellar",
    "subdivide edge",
    "subdivide derived",
    "subdivide biased",
    "contract",
    "check induced",
    "check strong",
    "check valid-edge",
    "check missing",
    "pair run",
    "search",
    "verify-script",
    "random complex",
    "random induced-pair",
    "random strong-pair",
]


def _argv(command: str, draw, doc) -> list[str]:
    """The command line of `command`: its files (written by `doc`) and its options."""
    argv = command.split()
    if command in ("info", "subdivide derived"):
        return argv + [f"--complex={doc()}"]
    if command in ("subdivide stellar", "subdivide edge"):
        face = "--face" if command == "subdivide stellar" else "--edge"
        return argv + [f"--complex={doc()}", f"{face}={draw(EDGES)}", f"--label={draw(TOKENS)}"]
    if command in ("subdivide biased", "check induced", "check strong"):
        return argv + [f"--sub={doc()}", f"--ambient={doc()}"]
    if command in ("contract", "check valid-edge"):
        survivor = draw(st.lists(TOKENS, max_size=1)) if command == "contract" else []
        return argv + [f"--complex={doc()}", f"--edge={draw(EDGES)}"] + [f"--survivor={s}" for s in survivor]
    if command == "check missing":
        return argv + [f"--complex={doc()}", f"--max-dim={draw(_mostly(st.integers(0, 4), st.just(-1)))}"]
    if command == "pair run":
        # the subcomplex is often made of faces of the ambient's facets, so the
        # pipeline and its moves run, not only the readers
        facets = draw(FACETS)
        sub = [f[: draw(st.integers(1, max(1, len(f))))] for f in facets[: draw(st.integers(0, len(facets)))]]
        ambient = doc(st.just(json.dumps({"facets": facets}).encode()) | COMPLEXES)
        sub_doc = doc(st.just(json.dumps({"facets": sub}).encode()) | COMPLEXES)
        files = [f"--ambient={ambient}", f"--sub={sub_doc}", f"--target={doc()}", f"--script={doc(_encoded(SCRIPTS))}"]
        for option in draw(st.sampled_from([[], ["--out"], ["--report"], ["--out", "--report"]])):
            files.append(f"{option}={doc(st.just(b''))}")
        return argv + files
    if command == "search":
        depth, verts, states = (_mostly(st.integers(0, top), st.just(-1)) for top in (2, 8, 60))
        bounds = [f"--max-depth={draw(depth)}", f"--max-vertices={draw(verts)}", f"--max-states={draw(states)}"]
        return argv + [f"--source={doc()}", f"--to={doc()}"] + bounds
    if command == "verify-script":
        return argv + [f"--source={doc()}", f"--script={doc(_encoded(SCRIPTS))}", f"--to={doc()}"]
    density = draw(_mostly(st.sampled_from(["0", "0.3", "0.6", "1"]), st.sampled_from(["-0.5", "1.5", "nan", "inf"])))
    return argv + [
        f"--vertices={draw(_mostly(st.integers(1, 7), st.integers(-1, 0)))}",
        f"--max-dim={draw(_mostly(st.integers(0, 3), st.just(-1)))}",
        f"--density={density}",
        f"--seed={draw(st.integers(-5, 10**6))}",
    ]


@given(st.data())
@settings(
    max_examples=400,
    deadline=timedelta(seconds=10),
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_cli_fuzz_every_command_fails_cleanly(data):
    with tempfile.TemporaryDirectory() as tmp:

        def doc(strategy=COMPLEXES) -> str:
            path = os.path.join(tmp, f"doc{len(os.listdir(tmp))}.json")
            with open(path, "wb") as fh:
                fh.write(data.draw(strategy))
            return path

        command = data.draw(st.sampled_from(COMMANDS))
        argv = _argv(command, data.draw, doc)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    event(f"{command} exits {code}")
    assert code in (0, 1, 2, 3), argv
    lines = err.getvalue().splitlines()
    assert len(lines) <= 1, (argv, lines)
    if lines:
        assert json.loads(lines[0])["error"] in KINDS, (argv, lines)
    assert "Traceback" not in err.getvalue()
