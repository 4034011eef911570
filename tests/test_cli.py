from __future__ import annotations

import io
import json
import pathlib

import pytest

from stellarpair import biased_derived, contract_edge, f_vector, from_facets, is_valid_edge, missing_simplices
from stellarpair.cli import main
from stellarpair.errors import ResourceLimitError
from stellarpair.io import ComplexDocument, serialize_complex_document

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def write_complex(path, facets, name="fixture"):
    doc = ComplexDocument(name, from_facets(facets))
    path.write_text(serialize_complex_document(doc))
    return str(path)


@pytest.fixture
def edge_in_triangle_files(tmp_path):
    sub = write_complex(tmp_path / "sub.json", [[1, 2]], "gamma")
    ambient_cx, _ = biased_derived(from_facets([[1, 2]]), from_facets([[1, 2, 3]]))
    ambient = tmp_path / "ambient.json"
    ambient.write_text(serialize_complex_document(ComplexDocument("delta", ambient_cx)))
    return sub, str(ambient)


def test_info(tmp_path, capsys):
    path = write_complex(tmp_path / "c.json", [[1, 2, 3], [1, 2, 4], [1, 3, 4], [2, 3, 4]])
    assert main(["info", "--complex", path]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["f_vector"] == [4, 6, 4]
    assert data["euler_characteristic"] == 2
    assert data["pseudomanifold"] is True


def test_check_strong_edge_in_triangle_exits_zero(edge_in_triangle_files, capsys):
    sub, ambient = edge_in_triangle_files
    assert main(["check", "strong", "--sub", sub, "--ambient", ambient]) == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == "strongly_induced"


def test_check_induced_negative_exits_one(tmp_path, capsys):
    sub = write_complex(tmp_path / "g.json", [[1, 2], [2, 3], [3, 4], [1, 4]])
    ambient = write_complex(tmp_path / "d.json", [[1, 2], [2, 3], [3, 4], [1, 4], [2, 4]])
    assert main(["check", "induced", "--sub", sub, "--ambient", ambient]) == 1
    data = json.loads(capsys.readouterr().out)
    assert data["verdict"] == "not_induced"
    assert data["offending_simplex"] == ["2", "4"]


def test_contract_hollow_triangle_exits_one(tmp_path, capsys):
    path = write_complex(tmp_path / "c.json", [[1, 2], [2, 3], [1, 3]])
    assert main(["contract", "--complex", path, "--edge", "1,2"]) == 1
    err = capsys.readouterr().err
    assert json.loads(err)["blockers"] == [["1", "2", "3"]]


def test_contract_writes_result(tmp_path, capsys):
    path = write_complex(tmp_path / "c.json", [[1, 2], [2, 3]])
    out = tmp_path / "out.json"
    assert main(["contract", "--complex", path, "--edge", "1,2", "--survivor", "1", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["facets"] == [["1", "3"]]


def test_subdivide_edge_and_derived(tmp_path, capsys):
    path = write_complex(tmp_path / "c.json", [[1, 2, 3]])
    assert main(["subdivide", "edge", "--complex", path, "--edge", "1,2", "--label", "v"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["facets"] == [["1", "3", "v"], ["2", "3", "v"]]
    assert main(["subdivide", "derived", "--complex", path]) == 0
    data = json.loads(capsys.readouterr().out)
    assert len(data["facets"]) == 6


def test_subdivide_rejects_a_label_that_spells_a_barycenter(tmp_path, capsys):
    path = write_complex(tmp_path / "c.json", [["a,b", "c"], ["a", "b", "c"]])
    assert main(["subdivide", "derived", "--complex", path]) == 1
    assert json.loads(capsys.readouterr().err)["error"] == "domain"


def test_info_reads_a_label_with_a_non_ascii_digit(tmp_path, capsys):
    # "²" is a digit to str.isdigit but not to int(): the label stays an opaque token
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"facets": [["b{1}@²", "2"]]}))
    assert main(["info", "--complex", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["f_vector"] == [2, 1]


def test_subdivide_biased_matches_fixture(tmp_path, capsys, edge_in_triangle_files):
    sub, _ = edge_in_triangle_files
    ambient = write_complex(tmp_path / "tri.json", [[1, 2, 3]], "delta")
    assert main(["subdivide", "biased", "--sub", sub, "--ambient", ambient]) == 0
    data = json.loads(capsys.readouterr().out)
    assert len(data["facets"]) == 5


def test_check_missing_and_valid_edge(tmp_path, capsys):
    path = write_complex(tmp_path / "c.json", [[1, 2], [2, 3], [3, 4], [1, 4]])
    assert main(["check", "missing", "--complex", path]) == 0
    assert json.loads(capsys.readouterr().out)["missing_simplices"] == [["1", "3"], ["2", "4"]]
    assert main(["check", "valid-edge", "--complex", path, "--edge", "1,2"]) == 0
    assert json.loads(capsys.readouterr().out)["valid"] is True
    # mixed dimensions: canonical order puts the edges before the triangle
    path = write_complex(tmp_path / "d.json", [[1, 2], [2, 3], [1, 3], [4]])
    assert main(["check", "missing", "--complex", path]) == 0
    assert json.loads(capsys.readouterr().out)["missing_simplices"] == [
        ["1", "4"], ["2", "4"], ["3", "4"], ["1", "2", "3"]
    ]


def test_malformed_document_exits_two(tmp_path, monkeypatch, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"facets": [["1","1"]]}')
    assert main(["info", "--complex", str(bad)]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "malformed-input"
    monkeypatch.setattr("sys.stdin", io.StringIO(bad.read_text()))
    assert main(["info", "--complex", "-"]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "malformed-input"


def test_deeply_nested_document_exits_two(tmp_path, capsys):
    # 100,000 nested arrays overflow the decoder's recursion limit
    deep = tmp_path / "deep.json"
    deep.write_text('{"facets": ' + "[" * 100_000 + "]" * 100_000 + "}")
    assert main(["info", "--complex", str(deep)]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "malformed-input"


def test_integer_literal_over_the_digit_limit_exits_two(tmp_path, capsys):
    # an ignored field still has to be decoded, and 5000 digits exceed the int/str limit
    big = tmp_path / "big.json"
    big.write_text('{"facets": [["1", "2"]], "extra": ' + "9" * 5000 + "}")
    assert main(["info", "--complex", str(big)]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "malformed-input"


def test_document_that_is_not_utf8_exits_two(tmp_path, monkeypatch, capsys):
    # a Latin-1 byte, in a file and on standard input
    latin = tmp_path / "latin.json"
    latin.write_bytes('{"facets": [["caf\u00e9", "2"]]}'.encode("latin-1"))
    assert main(["info", "--complex", str(latin)]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "malformed-input"
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(latin.read_bytes()), encoding="utf-8"))
    assert main(["info", "--complex", "-"]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "malformed-input"


def test_missing_file_exits_two(tmp_path, capsys):
    path = str(tmp_path / "nope.json")
    assert main(["info", "--complex", path]) == 2
    diag = json.loads(capsys.readouterr().err)
    assert diag["error"] == "io"
    assert diag["path"] == path


def test_info_reads_stdin(monkeypatch, capsys):
    doc = ComplexDocument("piped", from_facets([[1, 2, 3], [1, 2, 4], [1, 3, 4], [2, 3, 4]]))
    monkeypatch.setattr("sys.stdin", io.StringIO(serialize_complex_document(doc)))
    assert main(["info", "--complex", "-"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["name"] == "piped"
    assert data["f_vector"] == [4, 6, 4]


@pytest.mark.parametrize(
    "command, zero_exit",
    [
        (["random", "complex", "--vertices", "5", "--seed", "1", "--max-dim"], 0),
        (["check", "missing", "--complex", "{path}", "--max-dim"], 0),
        (["search", "--source", "{path}", "--to", "{path}", "--max-depth", "1", "--max-states"], 0),
        (["search", "--source", "{path}", "--to", "{path}", "--max-vertices"], 3),
        (["search", "--source", "{path}", "--to", "{path}", "--max-depth"], 0),
    ],
    ids=["random-max-dim", "missing-max-dim", "search-max-states", "search-max-vertices", "search-max-depth"],
)
def test_negative_bound_exits_two(tmp_path, capsys, command, zero_exit):
    # a negative bound is malformed input, not an answer or a resource limit;
    # a bound of 0 is valid (the search's source is its target, so a search
    # answers before its first expansion unless the vertex bound refuses it)
    path = write_complex(tmp_path / "c.json", [[1, 2], [2, 3]])
    argv = [path if arg == "{path}" else arg for arg in command]
    assert main(argv + ["-1"]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "malformed-input"
    assert main(argv + ["0"]) == zero_exit
    capsys.readouterr()


def test_resource_limit_exits_three(tmp_path, capsys):
    assert main(["random", "complex", "--vertices", "99", "--seed", "1"]) == 3
    assert json.loads(capsys.readouterr().err)["error"] == "resource-limit"


def test_check_strong_refuses_a_facet_too_large_to_walk(tmp_path, capsys):
    sub = write_complex(tmp_path / "g.json", [[1], [2]])
    ambient = write_complex(tmp_path / "d.json", [list(range(1, 22))])
    assert main(["check", "strong", "--sub", sub, "--ambient", ambient]) == 3
    err = json.loads(capsys.readouterr().err)
    assert (err["error"], err["facets"], err["bound"], err["budget"]) == ("resource-limit", 1, 2097151, 2000000)


def test_check_missing_refuses_too_many_candidates(tmp_path, capsys):
    # a 1500-vertex path has 2999 faces, well within the face budget, but
    # testing each face against every later vertex is 2,242,630 candidates
    path = write_complex(tmp_path / "path.json", [[i, i + 1] for i in range(1, 1500)])
    assert main(["check", "missing", "--complex", path]) == 3
    err = json.loads(capsys.readouterr().err)
    assert (err["error"], err["faces"], err["bound"], err["budget"]) == ("resource-limit", 2999, 2242630, 2000000)


def _library_call(call):
    def run(cx, path, capsys):
        with pytest.raises(ResourceLimitError, match="could hold") as exc:
            call(cx)
        return exc.value.stats

    return run


def _cli_call(*command):
    def run(cx, path, capsys):
        argv = list(command)
        argv[argv.index("{path}")] = path
        assert main(argv) == 3
        err = json.loads(capsys.readouterr().err)
        assert err.pop("error") == "resource-limit" and "could hold" in err.pop("message")
        return err

    return run


@pytest.mark.parametrize(
    "run",
    [
        _library_call(f_vector),
        _library_call(lambda cx: cx.faces()),
        _library_call(missing_simplices),
        _library_call(lambda cx: is_valid_edge(cx, ["1", "2"])),
        _library_call(lambda cx: contract_edge(cx, ["1", "2"])),
        _cli_call("info", "--complex", "{path}"),
        _cli_call("check", "missing", "--complex", "{path}"),
        _cli_call("check", "valid-edge", "--complex", "{path}", "--edge", "1,2"),
        _cli_call("contract", "--complex", "{path}", "--edge", "1,2"),
    ],
    ids=["f_vector", "faces", "missing_simplices", "is_valid_edge", "contract_edge"]
    + ["cli-info", "cli-check-missing", "cli-check-valid-edge", "cli-contract"],
)
def test_face_enumeration_is_refused_above_the_face_budget(tmp_path, capsys, run):
    # one 26-vertex facet holds 2^26 - 1 faces: every face reader refuses it
    # before it builds any, with exit 3 from the CLI
    facet = [str(v) for v in range(1, 27)]
    cx = from_facets([facet])
    path = write_complex(tmp_path / "big.json", [facet])
    assert run(cx, path, capsys) == {"facets": 1, "bound": 2**26 - 1, "budget": 2_000_000}


def test_random_is_seed_deterministic(capsys):
    assert main(["random", "complex", "--vertices", "5", "--max-dim", "2", "--density", "0.5", "--seed", "42"]) == 0
    first = capsys.readouterr().out
    assert main(["random", "complex", "--vertices", "5", "--max-dim", "2", "--density", "0.5", "--seed", "42"]) == 0
    assert capsys.readouterr().out == first


def test_random_pair_standard_output_is_byte_stable(capsys):
    assert main(["random", "strong-pair", "--vertices", "5", "--seed", "3"]) == 0
    assert capsys.readouterr().out == (FIXTURES / "random_strong_pair.json").read_text()


def test_random_strong_pair_outputs(tmp_path):
    sub = tmp_path / "sub.json"
    ambient = tmp_path / "ambient.json"
    assert main(
        [
            "random", "strong-pair",
            "--vertices", "5", "--max-dim", "2", "--density", "0.4", "--seed", "3",
            "--sub-out", str(sub), "--ambient-out", str(ambient),
        ]
    ) == 0
    assert main(["check", "strong", "--sub", str(sub), "--ambient", str(ambient)]) == 0


def test_dash_out_writes_standard_output(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    argv = ["random", "complex", "--vertices", "4", "--seed", "1"]
    assert main(argv) == 0
    plain = capsys.readouterr().out
    assert main(argv + ["--out", "-"]) == 0
    assert capsys.readouterr().out == plain
    pair = ["random", "induced-pair", "--vertices", "5", "--seed", "2"]
    assert main(pair + ["--sub-out", "s.json", "--ambient-out", "a.json"]) == 0
    assert main(pair + ["--sub-out", "-", "--ambient-out", "-"]) == 0
    assert capsys.readouterr().out == (tmp_path / "s.json").read_text() + (tmp_path / "a.json").read_text()
    assert not (tmp_path / "-").exists()


def test_random_pair_with_one_output_file_emits_the_other(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    argv = ["random", "strong-pair", "--vertices", "5", "--seed", "3"]
    assert main(argv + ["--sub-out", "s.json", "--ambient-out", "a.json"]) == 0
    sub, ambient = (tmp_path / "s.json").read_text(), (tmp_path / "a.json").read_text()
    capsys.readouterr()
    assert main(argv + ["--sub-out", "only-sub.json"]) == 0
    assert (tmp_path / "only-sub.json").read_text() == sub
    assert capsys.readouterr().out == ambient
    assert main(argv + ["--ambient-out", "only-ambient.json", "--out", "rest.json"]) == 0
    assert (tmp_path / "only-ambient.json").read_text() == ambient
    assert (tmp_path / "rest.json").read_text() == sub
    assert capsys.readouterr().out == ""


def test_search_and_verify_script(tmp_path, monkeypatch, capsys):
    src = write_complex(tmp_path / "src.json", [[1, 2], [2, 3]])
    dst = write_complex(tmp_path / "dst.json", [["a", "b"]])
    script = tmp_path / "script.json"
    assert main(["search", "--source", src, "--to", dst, "--max-depth", "2", "--max-vertices", "6", "--out", str(script)]) == 0
    assert main(["verify-script", "--source", src, "--script", str(script), "--to", dst]) == 0
    assert json.loads(capsys.readouterr().out)["verified"] is True
    monkeypatch.setattr("sys.stdin", io.StringIO(script.read_text()))
    assert main(["verify-script", "--source", src, "--script", "-", "--to", dst]) == 0
    assert json.loads(capsys.readouterr().out)["verified"] is True


def test_search_script_is_byte_stable(tmp_path, capsys):
    # the target_map is the labeling's choice among the six-cycle's automorphisms
    src = write_complex(tmp_path / "src.json", [[1, 2], [2, 3], [3, 4], [1, 4]])
    dst = write_complex(tmp_path / "dst.json", [["a", "b"], ["b", "c"], ["c", "d"], ["d", "e"], ["e", "f"], ["a", "f"]])
    assert main(["search", "--source", src, "--to", dst, "--max-depth", "2", "--out", "-"]) == 0
    assert capsys.readouterr().out == (FIXTURES / "search_four_cycle_to_six_cycle.json").read_text()


def test_search_contraction_script_is_byte_stable(tmp_path, capsys):
    # two contractions: pins the contraction successors as the four-to-six pin does the subdivisions
    src = write_complex(tmp_path / "src.json", [["a", "b"], ["b", "c"], ["c", "d"], ["d", "e"], ["e", "f"], ["a", "f"]])
    dst = write_complex(tmp_path / "dst.json", [[1, 2], [2, 3], [3, 4], [1, 4]])
    assert main(["search", "--source", src, "--to", dst, "--max-depth", "2", "--out", "-"]) == 0
    assert capsys.readouterr().out == (FIXTURES / "search_six_cycle_to_four_cycle.json").read_text()


def test_search_with_a_symmetric_source_is_byte_stable(tmp_path, capsys):
    # the tetrahedron boundary's six edges form one orbit, so the search drops
    # five of its first subdivisions unlabeled; two opposite edges give the octahedron
    src = write_complex(tmp_path / "src.json", [[1, 2, 3], [1, 2, 4], [1, 3, 4], [2, 3, 4]])
    octahedron = [[a, c, e] for a in "ab" for c in "cd" for e in "ef"]
    dst = write_complex(tmp_path / "dst.json", octahedron)
    assert main(["search", "--source", src, "--to", dst, "--max-depth", "2", "--out", "-"]) == 0
    assert capsys.readouterr().out == (FIXTURES / "search_tetrahedron_to_octahedron.json").read_text()


def test_search_onto_the_same_complex_is_byte_stable(tmp_path, capsys):
    # a symmetric complex onto itself: the empty script, with the identity as target_map
    tetrahedron = [[1, 2, 3], [1, 2, 4], [1, 3, 4], [2, 3, 4]]
    src = write_complex(tmp_path / "src.json", tetrahedron)
    dst = write_complex(tmp_path / "dst.json", tetrahedron)
    assert main(["search", "--source", src, "--to", dst, "--max-depth", "2", "--out", "-"]) == 0
    assert capsys.readouterr().out == (FIXTURES / "search_tetrahedron_to_itself.json").read_text()


def test_search_not_found_exits_one(tmp_path, capsys):
    src = write_complex(tmp_path / "src.json", [[1, 2], [2, 3], [3, 4], [1, 4]])
    dst = write_complex(tmp_path / "dst.json", [[1, 2, 3], [1, 2, 4], [1, 3, 4], [2, 3, 4]])
    assert main(["search", "--source", src, "--to", dst, "--max-depth", "2", "--max-vertices", "6"]) == 1
    assert json.loads(capsys.readouterr().err)["error"] == "no-script"


@pytest.fixture
def readme_pipeline(tmp_path):
    """`pair run` and its input options for the README tetrahedron/path pipeline."""
    ambient = write_complex(tmp_path / "m.json", [[1, 2, 3], [1, 2, 4], [1, 3, 4], [2, 3, 4]], "tetra")
    sub = write_complex(tmp_path / "x.json", [[1, 2], [2, 3]], "path")
    target = write_complex(tmp_path / "X.json", [["a", "c"]], "edge")
    script = tmp_path / "s.json"
    script.write_text(
        json.dumps(
            {
                "moves": [
                    {"op": "contract", "edge": ["1", "b{1,2}@0"], "survivor": "1"},
                    {"op": "contract", "edge": ["1", "2"], "survivor": "1"},
                    {"op": "contract", "edge": ["1", "b{2,3}@0"], "survivor": "1"},
                ],
                "target_map": {"1": "a", "3": "c"},
            }
        )
    )
    return ["pair", "run", "--ambient", ambient, "--sub", sub, "--target", target, "--script", str(script)]


def test_pair_run_pipeline(tmp_path, capsys, readme_pipeline):
    out = tmp_path / "final.json"
    report = tmp_path / "report.json"
    code = main(readme_pipeline + ["--out", str(out), "--report", str(report)])
    assert code == 0
    rep = json.loads(report.read_text())
    assert all(step["strongly_induced"] for step in rep["steps"])
    assert len({step["euler_ambient"] for step in rep["steps"]}) == 1
    final = json.loads(out.read_text())
    assert ["a", "c"] not in final["facets"]  # target appears under the inverse relabeling
    assert rep["final_isomorphism"] == {"1": "a", "3": "c"}


def test_pair_run_standard_output_is_byte_stable(tmp_path, capsys, readme_pipeline):
    expected = (FIXTURES / "pair_run_readme.json").read_text()
    assert main(readme_pipeline) == 0
    assert capsys.readouterr().out == expected
    # with one output file, the other document goes to standard output
    combined = json.loads(expected)
    report, result = (json.dumps(combined[k], indent=2, sort_keys=True) + "\n" for k in ("report", "result"))
    assert main(readme_pipeline + ["--out", str(tmp_path / "final.json")]) == 0
    assert capsys.readouterr().out == report
    assert (tmp_path / "final.json").read_text() == result
    assert main(readme_pipeline + ["--report", str(tmp_path / "report.json")]) == 0
    assert capsys.readouterr().out == result
    assert (tmp_path / "report.json").read_text() == report


def test_pair_run_octahedron_output_is_byte_stable(tmp_path, capsys):
    # the octahedron growth script: one pair subdivision, its contraction back
    # and the README's three contractions; the report's per-step f-vectors pin
    # the carried f-vector through a subdivision and four contractions
    octahedron = [[1, 2, 3], [1, 2, 4], [1, 3, 5], [1, 4, 5], [2, 3, 6], [2, 4, 6], [3, 5, 6], [4, 5, 6]]
    ambient = write_complex(tmp_path / "m.json", octahedron, "octa")
    sub = write_complex(tmp_path / "x.json", [[1, 2], [2, 3]], "path")
    target = write_complex(tmp_path / "X.json", [["a", "c"]], "edge")
    script = tmp_path / "s.json"
    moves = [{"op": "subdivide", "edge": ["1", "b{1,2}@0"], "new_label": "w0"}]
    moves += [{"op": "contract", "edge": ["1", v], "survivor": "1"} for v in ("w0", "b{1,2}@0", "2", "b{2,3}@0")]
    script.write_text(json.dumps({"moves": moves, "target_map": {"1": "a", "3": "c"}}))
    run = ["pair", "run", "--ambient", ambient, "--sub", sub, "--target", target, "--script", str(script)]
    expected = (FIXTURES / "pair_run_octahedron.json").read_text()
    assert main(run) == 0
    assert capsys.readouterr().out == expected
    assert main(run + ["--report", str(tmp_path / "report.json")]) == 0
    report = json.dumps(json.loads(expected)["report"], indent=2, sort_keys=True) + "\n"
    assert (tmp_path / "report.json").read_text() == report


def test_pair_run_fallback_over_budget_exits_three(tmp_path, capsys, monkeypatch):
    # with the identity re-bias the move falls back to the global biased
    # derived subdivision, whose bound of 828 cells is over a budget of 144:
    # the bound of the pipeline's own biased derived step, which still runs
    monkeypatch.setattr("stellarpair.pairs._rebias_near", lambda sub, near, facets, rnd, total: ([], [], {}))
    monkeypatch.setattr("stellarpair.subdivision._FACET_BUDGET", 144)
    ambient = write_complex(tmp_path / "m.json", [[1, 2, 3], [1, 2, 4], [1, 3, 4], [2, 3, 4]], "tetra")
    sub = write_complex(tmp_path / "x.json", [[1, 2], [2, 3]], "path")
    target = write_complex(tmp_path / "X.json", [["a", "c"]], "edge")
    script = tmp_path / "s.json"
    script.write_text(json.dumps({"moves": [{"op": "subdivide", "edge": ["1", "b{1,2}@0"], "new_label": "v"}]}))
    code = main(
        ["pair", "run", "--ambient", ambient, "--sub", sub, "--target", target, "--script", str(script)]
    )
    assert code == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "resource-limit"
    assert err["budget"] == 144 and err["bound"] == 828 and err["facets"] == 138
    assert err["step"] == 0


def test_verify_script_names_the_step_over_a_resource_limit(tmp_path, capsys):
    # the second move contracts {1,2} of a 26-vertex facet, whose faces are over the budget
    src = write_complex(tmp_path / "big.json", [list(range(1, 27))])
    moves = [{"op": "subdivide", "edge": ["1", "3"], "new_label": "m"}, {"op": "contract", "edge": ["1", "2"], "survivor": "1"}]
    script = tmp_path / "s.json"
    script.write_text(json.dumps({"moves": moves}))
    assert main(["verify-script", "--source", src, "--script", str(script), "--to", src]) == 3
    err = json.loads(capsys.readouterr().err)
    assert (err["error"], err["facets"], err["step"]) == ("resource-limit", 2, 1)


def test_pair_run_bad_script_exits_one(tmp_path, capsys):
    ambient = write_complex(tmp_path / "m.json", [[1, 2, 3], [1, 2, 4], [1, 3, 4], [2, 3, 4]], "tetra")
    sub = write_complex(tmp_path / "x.json", [[1, 2], [2, 3]], "path")
    target = write_complex(tmp_path / "X.json", [["a", "c"]], "edge")
    script = tmp_path / "s.json"
    script.write_text(json.dumps({"moves": [{"op": "contract", "edge": ["1", "3"], "survivor": "1"}]}))
    code = main(
        ["pair", "run", "--ambient", ambient, "--sub", sub, "--target", target, "--script", str(script)]
    )
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "script-step" and err["step"] == 0
