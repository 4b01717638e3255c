import hashlib
import json
import os
import subprocess
import sys
import time
from itertools import combinations
from pathlib import Path

import pytest
from click.testing import CliRunner

from matroid_spheres import CoverFamily, FlagRepresentation, SimplicialComplex, build_covers, build_embedding
from matroid_spheres import maps, oriented, spheres
from matroid_spheres import topology
from matroid_spheres.cli import main
from matroid_spheres import MatroidInputError
from matroid_spheres.jsonio import complex_from_json, load_vector_config_file
from conftest import face_labels, frozen, member_labels, used_vertices
from conftest import poisoned_source, poisoned_target, reduces_to_point, repeated_coatom, repeated_g_part

DATA = Path(__file__).parent / "data"


@pytest.fixture()
def runner():
    return CliRunner()


def run(runner, *args):
    return runner.invoke(main, [str(a) for a in args])


def test_validate_pass(runner):
    result = run(runner, "validate", DATA / "u24.json")
    assert result.exit_code == 0
    assert "meet-closed: PASS" in result.output


def test_validate_fano(runner):
    result = run(runner, "validate", DATA / "fano_gf2.json")
    assert result.exit_code == 0


def test_validate_broken_exits_1(runner):
    result = run(runner, "validate", DATA / "broken.json")
    assert result.exit_code == 1
    assert "not meet-closed" in result.output


def test_validate_malformed_exits_2(runner, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"format": "nope"}')
    result = run(runner, "validate", bad)
    assert result.exit_code == 2


def test_represent_u24(runner, tmp_path):
    result = run(runner, "represent", DATA / "u24.json", "--flag", "default",
                 "--out", tmp_path)
    assert result.exit_code == 0
    s0 = json.loads((tmp_path / "S_0.json").read_text())
    assert len(s0["maximal_faces"]) == 4
    assert all(len(f) == 4 for f in s0["maximal_faces"])
    for x in "1234":
        sx = json.loads((tmp_path / f"S_{x}.json").read_text())
        assert sx["maximal_faces"] == [[0], [1]]
        assert {v["sign"] for v in sx["vertices"]} == {"+", "-"}


def test_represent_bool3_octahedron(runner, tmp_path):
    result = run(runner, "represent", DATA / "bool3.json", "--out", tmp_path)
    assert result.exit_code == 0
    s0 = json.loads((tmp_path / "S_0.json").read_text())
    assert len(s0["maximal_faces"]) == 8
    assert all(len(f) == 3 for f in s0["maximal_faces"])


def test_represent_u34(runner, tmp_path):
    result = run(runner, "represent", DATA / "u34.json", "--flag",
                 DATA / "f_1_12.json", "--out", tmp_path)
    assert result.exit_code == 0
    s0 = json.loads((tmp_path / "S_0.json").read_text())
    assert len(s0["maximal_faces"]) == 8
    assert all(len(f) == 6 for f in s0["maximal_faces"])


def test_verify_u24(runner):
    result = run(runner, "verify", DATA / "u24.json")
    assert result.exit_code == 0
    assert "FAIL" not in result.output


def test_verify_fano(runner):
    result = run(runner, "verify", DATA / "fano_gf2.json")
    assert result.exit_code == 0


def test_verify_u34_exact_nerve(runner):
    result = run(runner, "verify", DATA / "u34.json", "--exact-nerve")
    assert result.exit_code == 0
    assert "nerve-iso-all-flats: PASS (12 flats)" in result.output


def test_homology_command(runner):
    result = run(runner, "homology", DATA / "tetra.json", "--json")
    assert result.exit_code == 0
    report = json.loads(result.output)
    assert report["dims"][2] == {"d": 2, "betti": 1, "torsion": []}


def test_homology_rp2(runner):
    result = run(runner, "homology", DATA / "rp2.json")
    assert result.exit_code == 0
    assert "dim 1: betti 0, torsion [2]" in result.output


def test_om_covectors_coord2(runner):
    result = run(runner, "om", "covectors", DATA / "coord2.json", "--json")
    assert result.exit_code == 0
    report = json.loads(result.output)
    assert len(report["covectors"]) == 9
    assert len(report["cocircuits"]) == 4


def test_om_embed_u24(runner):
    result = run(runner, "om", "embed", DATA / "u24_vec.json", "--flag", "default")
    assert result.exit_code == 0
    assert "carrier-covers: PASS" in result.output
    assert "FAIL" not in result.output


def test_om_embed_spans_the_covectors_once(runner, monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return span(*args)

    span = oriented.covector_span
    monkeypatch.setattr(oriented, "covector_span", counted)
    for vectors in ("u24_vec.json", "u34_vec.json", "coord2.json"):
        calls.clear()
        assert run(runner, "om", "embed", DATA / vectors).exit_code == 0
        assert len(calls) == 1, vectors


def closed_under_meets(sets):
    """Every nonempty intersection of some of the sets, by pairwise meets."""
    found = {s for s in sets if s}
    while True:
        fresh = {x & y for x in found for y in found if x & y} - found
        if not fresh:
            return found
        found |= fresh


@pytest.mark.parametrize("vectors", ["u34_vec.json", "u45_vec.json"])
def test_om_embed_builds_each_complex_once(runner, monkeypatch, vectors):
    # Delta(L_G) comes from order_complex once per flat.  An intersection
    # of cover members is restricted from its ambient only where no
    # cheaper certificate holds it: beat points of L_G on the A side, a
    # face of S_G on the B side.  maps-into-carrier restricts nothing: it
    # maps M & a for each maximal face M of the ambient.  No complex is
    # restricted twice; no two are intersected.
    built, restricted, meets = [], [], []
    order_complex, restrict = topology.order_complex, SimplicialComplex.restrict

    def counted_order_complex(poset):
        built.append(order_complex(poset))
        return built[-1]

    def counted_restrict(self, keep):
        restricted.append((frozenset(used_vertices(self)), face_labels(self, keep)))
        return restrict(self, keep)

    def counted_meet(self, other):
        meets.append((self, other))

    monkeypatch.setattr(topology, "order_complex", counted_order_complex)
    monkeypatch.setattr(SimplicialComplex, "restrict", counted_restrict)
    monkeypatch.setattr(SimplicialComplex, "intersection", counted_meet)
    assert run(runner, "om", "embed", DATA / vectors).exit_code == 0
    monkeypatch.undo()

    emb = build_embedding(oriented.covectors_from_vectors(load_vector_config_file(DATA / vectors)))
    assert len(built) == len(emb.lattice.flats)
    assert {frozenset(d.vertices) for d in built} == {
        frozenset(emb.delta(g).vertices) for g in emb.lattice.flats
    }
    assert not meets
    assert len(restricted) == len(set(restricted))
    fallbacks = set()
    for flat in emb.lattice.flats:
        a_cover, b_cover = build_covers(emb, flat)
        a_ambient, b_ambient = (frozenset(used_vertices(c.ambient)) for c in (a_cover, b_cover))
        fallbacks |= {
            (a_ambient, x) for x in closed_under_meets(member_labels(a_cover).values())
            if not reduces_to_point(a_cover.poset, x)
        }
        fallbacks |= {
            (b_ambient, x) for x in closed_under_meets(member_labels(b_cover).values())
            if not frozen(b_cover.ambient).has_face(x)
        }
    assert set(restricted) == fallbacks


def test_om_embed_u34(runner):
    result = run(runner, "om", "embed", DATA / "u34_vec.json")
    assert result.exit_code == 0


def test_flags_compare(runner, tmp_path):
    flag_b = tmp_path / "g.json"
    flag_b.write_text(json.dumps({"chain": [[], ["3"], ["3", "4"], ["1", "2", "3", "4"]]}))
    result = run(runner, "flags", "compare", DATA / "u34.json", "default", flag_b)
    assert result.exit_code == 0
    assert "idempotent: PASS" in result.output


def test_flags_compare_rank_0_exits_0(runner, tmp_path):
    # one loop and no coatoms: the empty face is the one facet of S_0 and
    # of its image, and a face of the empty polytope
    path = tmp_path / "rank0.json"
    path.write_text(json.dumps({"format": "flats", "ground_set": ["1"], "flats": [["1"]]}))
    result = run(runner, "flags", "compare", path, "default", "default")
    assert result.exit_code == 0, result.output
    assert "simplicial: PASS" in result.output


def test_weakmap_yes(runner):
    result = run(runner, "weakmap", DATA / "u34.json", DATA / "n134.json")
    assert result.exit_code == 0
    assert "WEAK MAP: yes" in result.output


def test_weakmap_no_with_witness(runner):
    result = run(runner, "weakmap", DATA / "n134.json", DATA / "u34.json")
    assert result.exit_code == 1
    assert result.output.splitlines()[1:] == ["  witness subset: ['1', '3', '4']"]


def test_weakmap_witnesses_are_flats_of_the_source(runner):
    # rank goes up on every 3-subset of U(2,4) in U(3,4), but the only flat
    # of U(2,4) among them is the ground set
    result = run(runner, "weakmap", "--json", DATA / "u24.json", DATA / "u34.json")
    assert result.exit_code == 1
    report = json.loads(result.output)
    assert report["weak_map"] is False
    assert report["witnesses"] == [["1", "2", "3", "4"]]


def test_weakmap_search(runner):
    result = run(runner, "weakmap", DATA / "u34.json", DATA / "n134.json",
                 "--search-poset-map", "--flag", DATA / "f_1_12.json", "--json")
    assert result.exit_code == 0
    report = json.loads(result.output)
    assert report["weak_map"] is True
    search = report["search"]
    assert search["found"] is False
    assert set(search["stats"]) == {"nodes"}
    paper_edge = [
        {"coatom": ["1", "4"], "sign": "-"},
        {"coatom": ["3", "4"], "sign": "+"},
    ]
    found = [o for o in search["obstructions"] if o["face"] == paper_edge]
    assert found
    assert {tuple(i["coatom"]) for i in found[0]["forced_images"]} == {("1", "3", "4")}


# Recorded before vertices became ints: sha256 of U(3,10)'s weakmap stdout
# against itself and against the line {1, 2, 10}, and of its S_0.json.
U310_SEARCH_SHA = "3eb4b5a9fa8ac2496962870475fe317b81f86cb4bb8e702b9af84353df436215"
U310_LINE_SHA = "b9511163e7b5e85eb3021f290df46a4b9f211b506a00f9c83433ab30bfe25910"
U310_S0_SHA = "eaa4397f2a9116313b0d851db55e274c994d0fbba2dc452f670cdb476902785e"


def test_json_lists_search_sources_by_label_and_s0_vertices_by_key(runner, tmp_path):
    # on a 10-element ground set the two orders differ: '10' < '2' as labels,
    # while the coatom {1, 2} comes before {1, 10} in key order
    spec = tmp_path / "u310.json"
    spec.write_text(json.dumps({"format": "uniform", "r": 3, "n": 10}))
    search = run(runner, "weakmap", "--search-poset-map", "--json", spec, spec)
    assert search.exit_code == 0
    sources = [src["coatom"] for src, _ in json.loads(search.stdout)["search"]["map"]]
    assert sources.index(["1", "10"]) < sources.index(["1", "2"])
    assert hashlib.sha256(search.stdout.encode()).hexdigest() == U310_SEARCH_SHA
    # U(3,10) with 1, 2 and 10 on a line: {1, 10}+ {1, 2}- is obstructed
    ground = [str(i) for i in range(1, 11)]
    line = {"1", "2", "10"}
    flats = [[], *([e] for e in ground), *(list(p) for p in combinations(ground, 2) if not line >= set(p)),
             ["1", "2", "10"], ground]
    target, flag = tmp_path / "line.json", tmp_path / "flag.json"
    target.write_text(json.dumps({"format": "flats", "ground_set": ground, "flats": flats}))
    flag.write_text(json.dumps({"chain": [[], ["2"], ["2", "3"], ground]}))
    search = run(runner, "weakmap", "--search-poset-map", "--flag", flag, "--json", spec, target)
    assert search.exit_code == 0
    face = json.loads(search.stdout)["search"]["obstruction"]["face"]
    assert [v["coatom"] for v in face] == [["1", "10"], ["1", "2"]]
    assert hashlib.sha256(search.stdout.encode()).hexdigest() == U310_LINE_SHA
    assert run(runner, "represent", "--json", spec, "--out", tmp_path / "out").exit_code == 0
    s0 = (tmp_path / "out" / "S_0.json").read_text()
    vertices = [v["coatom"] for v in json.loads(s0)["vertices"]]
    assert vertices.index(["1", "2"]) < vertices.index(["1", "10"])
    assert hashlib.sha256(s0.encode()).hexdigest() == U310_S0_SHA


def test_weakmap_search_cap_exits_2(runner):
    result = run(runner, "weakmap", DATA / "u34.json", DATA / "u34.json",
                 "--search-poset-map", "--max-assignments", 3)
    assert result.exit_code == 2
    assert result.stderr.startswith("search bound exceeded: ")
    assert "Traceback" not in result.output


def test_weakmap_negative_search_cap_is_a_usage_error(runner):
    # a bound below 0 is bad input, not a bound that the search exceeded
    result = run(runner, "weakmap", DATA / "u34.json", DATA / "u34.json",
                 "--search-poset-map", "--max-assignments", -1)
    assert result.exit_code == 2
    assert "Invalid value for '--max-assignments': -1 is not in the range x>=0." in result.stderr
    assert "search bound exceeded" not in result.output


def test_outputs_are_deterministic(runner, tmp_path):
    outs = []
    for _ in range(2):
        result = run(runner, "verify", DATA / "u24.json", "--json")
        outs.append(result.output)
    assert outs[0] == outs[1]
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        run(runner, "represent", DATA / "u34.json", "--out", out)
    for name in sorted(p.name for p in a.iterdir()):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_missing_file_exits_2(runner):
    result = run(runner, "validate", "no_such_file.json")
    assert result.exit_code == 2


@pytest.mark.parametrize("sub", ["", "sub"])
def test_represent_unwritable_out_exits_2(runner, tmp_path, sub):
    # --out names an existing file, or a directory below one
    afile = tmp_path / "afile"
    afile.write_text("kept")
    result = run(runner, "represent", DATA / "u24.json", "--out", afile / sub)
    assert result.exit_code == 2
    assert result.stderr.startswith(f"input error: cannot write {afile / sub}")
    assert afile.read_text() == "kept"


def test_validate_non_integer_rank_exits_2(runner, tmp_path):
    bad = tmp_path / "bad_rank.json"
    bad.write_text('{"format": "uniform", "r": "x", "n": 4}')
    result = run(runner, "validate", bad)
    assert result.exit_code == 2
    assert "'r' must be an integer" in result.output


@pytest.mark.parametrize("faces", [[[0, 1, 6]], [[0, -1]], [[0, "1"]], [[0, 1.0]], [0]])
def test_homology_bad_face_index_exits_2(runner, tmp_path, faces):
    bad = tmp_path / "bad_index.json"
    bad.write_text(json.dumps({"vertices": list(range(3)), "maximal_faces": faces}))
    result = run(runner, "homology", bad)
    assert result.exit_code == 2
    assert "input error:" in result.output


REPEATS = [
    # a triangle boundary with two vertices named "a": it must not load as a
    # single edge, whose homology differs from the circle's
    (["a", "b", "a"], [[0, 1], [1, 2], [2, 0]], "vertex labels must be distinct"),
    # labels are compared after loading: 1, 1.0 and true are one key
    ([1, 1.0, True], [[0, 1, 2]], "vertex labels must be distinct"),
    ([{"coatom": ["1"], "sign": "+"}, {"coatom": [1], "sign": "+"}], [[0], [1]],
     "vertex labels must be distinct"),
    (["a", "b", "c"], [[0, 1, 0], [1, 2]], "repeats a vertex index"),
]


@pytest.mark.parametrize("vertices, faces, message", REPEATS)
def test_complex_from_json_rejects_repeats(vertices, faces, message):
    with pytest.raises(MatroidInputError, match=message):
        complex_from_json({"vertices": vertices, "maximal_faces": faces})


@pytest.mark.parametrize("vertices, faces, message", REPEATS)
def test_homology_repeats_exit_2(runner, tmp_path, vertices, faces, message):
    bad = tmp_path / "repeats.json"
    bad.write_text(json.dumps({"vertices": vertices, "maximal_faces": faces}))
    result = run(runner, "homology", bad)
    assert result.exit_code == 2
    assert result.output.startswith("input error: ") and message in result.output


def test_homology_refuses_a_core_above_the_face_bound(tmp_path):
    # the boundary of the 25-simplex dominates no vertex, so its core is
    # itself: 26 facets of 25 vertices, 26 * 2^25 faces by the estimate
    path = tmp_path / "simplex_boundary.json"
    path.write_text(json.dumps({"vertices": list(range(26)),
                                "maximal_faces": [list(f) for f in combinations(range(26), 25)]}))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")) if p))
    start = time.monotonic()
    done = subprocess.run([sys.executable, "-m", "matroid_spheres.cli", "homology", str(path)],
                          env=env, capture_output=True, text=True, timeout=60)
    assert time.monotonic() - start < 20
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr == ("resource bound exceeded: the core has up to 872415232 faces, "
                           "above --max-faces 1048576\n")


def test_homology_max_faces_overrides_the_bound(runner):
    # RP^2 on 6 vertices is its own core: 10 triangles, 80 by the estimate
    default = run(runner, "homology", DATA / "rp2.json")
    assert default.exit_code == 0
    assert run(runner, "homology", "--max-faces", 80, DATA / "rp2.json").output == default.output
    refused = run(runner, "homology", "--max-faces", 79, DATA / "rp2.json")
    assert refused.exit_code == 2
    assert refused.output.startswith("resource bound exceeded: the core has up to 80 faces")


def test_homology_negative_face_bound_is_a_usage_error(runner):
    # a bound below 0 is bad input, not a bound that the core exceeded
    result = run(runner, "homology", "--max-faces", -1, DATA / "rp2.json")
    assert result.exit_code == 2
    assert "Invalid value for '--max-faces': -1 is not in the range x>=0." in result.stderr
    assert "resource bound exceeded" not in result.output


def test_homology_reduces_to_the_core_once(runner):
    # the face bound and the homology share one strong collapse
    topology.reduced_homology.cache_clear()
    topology.strong_collapse_core.cache_clear()
    result = run(runner, "homology", DATA / "tetra.json")
    assert result.exit_code == 0
    info = topology.strong_collapse_core.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_homology_of_represented_s0_lists_every_dimension(runner, tmp_path):
    # S_0 of U(3,4) under this flag has 5-dimensional facets; its core is an
    # octahedron, and the report still lists dims 0..5.
    run(runner, "represent", DATA / "u34.json", "--flag", DATA / "f_1_12.json",
        "--out", tmp_path)
    result = run(runner, "homology", tmp_path / "S_0.json")
    assert result.exit_code == 0
    assert result.output == "".join(
        f"dim {d}: betti {int(d == 2)}, torsion []\n" for d in range(6)
    )


@pytest.mark.parametrize("spec", [
    {"format": "linear", "field": "GF", "p": 2, "columns": [[1, "x"], [0, 1]]},
    {"format": "linear", "field": "GF", "p": 2, "columns": [[1, 1.5], [0, 1]]},
    {"format": "linear", "field": "GF", "p": 2, "columns": 5},
    {"format": "linear", "field": "Q", "columns": 5},
])
def test_validate_malformed_linear_columns_exits_2(runner, tmp_path, spec):
    bad = tmp_path / "bad_columns.json"
    bad.write_text(json.dumps(spec))
    result = run(runner, "validate", bad)
    assert result.exit_code == 2
    assert "input error:" in result.output


@pytest.mark.parametrize("spec, message", [
    ({"format": "linear", "field": "Q", "columns": [[1, 0], [0, 1]], "ground_set": 5},
     "'ground_set' must be a list"),
    ({"format": "flats", "ground_set": 5, "flats": [[], ["1"]]}, "'ground_set' must be a list"),
    ({"format": "flats", "ground_set": ["1"], "flats": 7}, "'flats' must be a list of lists"),
])
def test_validate_non_list_ground_set_or_flats_exits_2(runner, tmp_path, spec, message):
    bad = tmp_path / "bad_shape.json"
    bad.write_text(json.dumps(spec))
    result = run(runner, "validate", bad)
    assert result.exit_code == 2
    assert result.output == f"input error: {message}\n"


@pytest.mark.parametrize("chain", [
    [1, 2, 3, 4],
    [[], None, ["1", "2"], ["1", "2", "3", "4"]],
    [[], ["1"], "12", ["1", "2", "3", "4"]],  # not read as {"1", "2"}
])
@pytest.mark.parametrize("command", ["verify", "flags compare"])
def test_malformed_flag_chain_exits_2(runner, tmp_path, chain, command):
    bad = tmp_path / "bad_flag.json"
    bad.write_text(json.dumps({"chain": chain}))
    args = {
        "verify": ["verify", "--flag", bad, DATA / "u34.json"],
        "flags compare": ["flags", "compare", DATA / "u34.json", "default", bad],
    }[command]
    result = run(runner, *args)
    assert result.exit_code == 2, result.output
    assert "'chain' must be a list of lists" in result.output


def test_validate_gf_prime_above_bound_exits_2_at_once(runner, tmp_path):
    # trial division to sqrt(2^61 - 1) would not finish
    bad = tmp_path / "big_prime.json"
    bad.write_text(json.dumps({"format": "linear", "field": "GF", "p": 2 ** 61 - 1,
                               "columns": [[1, 0], [0, 1]]}))
    result = run(runner, "validate", bad)
    assert result.exit_code == 2
    assert result.output == f"input error: GF prime {2 ** 61 - 1} is not below the bound 2^31\n"


def test_om_covectors_non_integer_dimension_exits_2(runner, tmp_path):
    bad = tmp_path / "bad_dimension.json"
    bad.write_text(json.dumps({"dimension": "x", "columns": {"1": [1, 0], "2": [0, 1]}}))
    result = run(runner, "om", "covectors", bad)
    assert result.exit_code == 2
    assert "'dimension' must be an integer" in result.output


@pytest.mark.parametrize("command", ["covectors", "embed"])
def test_om_string_column_exits_2(runner, tmp_path, command):
    # a string column would be read digit by digit: "10" as (1, 0)
    bad = tmp_path / "string_column.json"
    bad.write_text(json.dumps({"columns": {"a": "10", "b": "01"}}))
    result = run(runner, "om", command, bad)
    assert result.exit_code == 2
    assert "the column of element a must be a list of entries" in result.output


def test_om_string_entries_stay_valid(runner, tmp_path):
    spec = tmp_path / "string_entries.json"
    spec.write_text(json.dumps({"columns": {"a": ["1/2", "0"], "b": [0, "3"]}}))
    result = run(runner, "om", "covectors", "--json", spec)
    assert result.exit_code == 0
    assert len(json.loads(result.output)["covectors"]) == 9


def test_om_embed_prints_a_failing_carrier_cover(runner, monkeypatch):
    # each flat's sphere-side members are rotated one key along, so the
    # covector-side members no longer map into their carriers; the
    # embedding's own lines read no cover and stay PASS
    real = oriented.build_covers

    def rotated(emb, flat):
        a_cover, b_cover = real(emb, flat)
        keys, members = zip(*b_cover.members)
        return a_cover, CoverFamily(b_cover.ambient, tuple(zip(keys, members[1:] + members[:1])))

    passing = run(runner, "om", "embed", DATA / "u34_vec.json").output.splitlines()
    monkeypatch.setattr(oriented, "build_covers", rotated)
    result = run(runner, "om", "embed", DATA / "u34_vec.json")
    assert result.exit_code == 1
    lines = result.output.splitlines()
    detail = "all flats, maximal vertex stars, each distinct intersection once"
    assert lines[-1] == f"carrier-covers: FAIL ({detail})"
    assert passing[-1] == f"carrier-covers: PASS ({detail})"
    assert lines[:-1] == passing[:-1]
    assert all(": PASS" in line for line in lines[1:-1])


@pytest.mark.parametrize("mutate, failing", [
    (poisoned_source, {"source-sphere", "polytope-in-source", "simplicial", "composite-simplicial"}),
    (poisoned_target, {"target-sphere", "polytope-in-target", "composite-simplicial"}),
    (repeated_coatom, {"polytope-sphere", "polytope-in-source", "polytope-in-target", "simplicial", "idempotent",
                       "composite-simplicial"}),
    (repeated_g_part, {"selection-distinct"}),
], ids=["source-sphere", "target-sphere", "polytope-sphere", "selection-distinct"])
def test_flags_compare_prints_a_failing_line(runner, monkeypatch, tmp_path, mutate, failing):
    # the descriptor of U(3,4)'s default flag against another is mutated on
    # its way to the certificate; the named line, and only the lines it
    # carries, print FAIL, and every other line is the unpatched run's, but
    # the selection line, which names the coatoms the mutant selects
    flag_b = tmp_path / "g.json"
    flag_b.write_text(json.dumps({"chain": [[], ["3"], ["3", "4"], ["1", "2", "3", "4"]]}))
    args = ("flags", "compare", DATA / "u34.json", "default", flag_b)
    passing = run(runner, *args).output.splitlines()
    assert all(line.endswith(": PASS") or ": PASS (" in line for line in passing[1:])
    real, mutants = maps.retraction_map, []
    monkeypatch.setattr(maps, "retraction_map", lambda *a: mutants.append(mutate(real(*a))) or mutants[-1])
    result = run(runner, *args)
    monkeypatch.undo()
    assert result.exit_code == 1, result.output
    lines = result.output.splitlines()
    assert lines[0] == passing[0] and len(lines) == len(passing) == 11
    picked = [",".join(sorted(c, key=int)) for c in map(mutants[0].source.lattice.coatoms().__getitem__,
                                                        mutants[0].selection.coatoms)]
    assert lines[-1] == "selection: PASS (coatoms " + "; ".join(picked) + ")"
    assert (lines[-1] == passing[-1]) is (mutate is not repeated_coatom)
    for line, clean in zip(lines[1:-1], passing[1:-1]):
        name = line.split(":")[0]
        assert line == (f"{name}: FAIL" if name in failing else clean), line
    assert {line.split(":")[0] for line in lines if ": FAIL" in line} == failing
    assert run(runner, *args).output.splitlines() == passing  # the memoized representations are untouched


def test_flags_compare_rank_0_prints_every_line_as_pass(runner, tmp_path):
    # one loop: the lattice is a point, no coatom is selected, and S_0 and
    # the polytope are the join of no blocks
    loop = tmp_path / "loop.json"
    loop.write_text(json.dumps({"format": "flats", "ground_set": ["1"], "flats": [["1"]]}))
    result = run(runner, "flags", "compare", loop, "default", "default")
    assert result.exit_code == 0, result.output
    assert result.output.splitlines() == [f"flags compare {loop}"] + [f"{name}: PASS" for name in (
        "selection-distinct", "polytope-in-source", "polytope-in-target", "simplicial", "idempotent",
        "composite-simplicial", "source-sphere", "target-sphere", "polytope-sphere")] + ["selection: PASS (coatoms )"]


def wrong_cover_step(lattice, flag):
    """A fresh representation whose cover-step table holds, for its first
    step F < F v a, another flat above F of the join's rank."""
    rep = FlagRepresentation(lattice, flag)
    steps = list(rep.cover_steps)
    n, (f, a, fa) = next((n, step) for n, step in enumerate(steps) if step[2] != step[0])
    wrong = next(g for g in lattice.flats if lattice.rank(g) == lattice.rank(fa) and g != fa and f <= g)
    steps[n] = (f, a, wrong)
    rep.__dict__["cover_steps"] = tuple(steps)
    return rep


def member_of_another_atom(lattice, flag):
    """A fresh representation whose first atom's S_a is the second atom's:
    an induced sphere of the right dimension, whose vertex set recovers the
    second atom's flat for both."""
    rep = FlagRepresentation(lattice, flag)
    first, second = sorted(lattice.atoms(), key=lattice.key)[:2]
    rep._built[first] = rep.build(second)
    return rep


@pytest.mark.parametrize("poison, failing", [
    (wrong_cover_step, {"intersection-law", "intersections-are-flats"}),
    (member_of_another_atom, {"flats-roundtrip"}),
], ids=["intersection-law", "flats-roundtrip"])
def test_verify_prints_a_failing_line(runner, monkeypatch, poison, failing):
    # verify's representation is a fresh one with one poisoned table; the
    # named line, and only the lines it carries, print FAIL
    args = ("verify", DATA / "u34.json")
    passing = run(runner, *args).output.splitlines()
    assert all(": PASS" in line for line in passing[1:])
    monkeypatch.setattr(spheres, "representation", poison)
    result = run(runner, *args)
    monkeypatch.undo()
    assert result.exit_code == 1, result.output
    lines = result.output.splitlines()
    assert lines[0] == passing[0] and len(lines) == len(passing) == 10
    for line, clean in zip(lines[1:], passing[1:]):
        assert line == (clean.replace(": PASS", ": FAIL") if line.split(":")[0] in failing else clean), line
    assert {line.split(":")[0] for line in lines if ": FAIL" in line} == failing
    assert run(runner, *args).output.splitlines() == passing  # the memoized representation is untouched


def test_verify_exact_nerve_b5_exits_0(runner, tmp_path):
    # S_0 of B_5 has 32 facets: past the size a facet-subset scan can reach
    spec = tmp_path / "b5.json"
    spec.write_text(json.dumps({"format": "uniform", "r": 5, "n": 5}))
    result = run(runner, "verify", "--exact-nerve", "--json", spec)
    assert result.exit_code == 0, result.output
    report = json.loads(result.stdout)
    assert report["ok"]
    checks = {c["name"]: c for c in report["checks"]}
    assert checks["ambient-nerve"]["passed"]
    assert checks["nerve-iso-all-flats"]["detail"] == "32 flats"


def test_unexpected_error_exits_3_on_one_line(runner, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(spheres, "verify_arrangement", broken)
    result = run(runner, "verify", DATA / "u24.json")
    assert result.exit_code == 3
    assert result.stdout == ""
    assert result.stderr == "internal error: RuntimeError: boom\n"


U34_UNNESTED = {"chain": [[], ["1"], ["2", "3"], ["1", "2", "3", "4"]]}  # ranks 0..3, 1 not below 23

# (command, file content, the message of the one stderr line): each an input
# the loaders refuse, by a branch no other CLI test reaches
INPUT_ERRORS = {
    "not json": ("validate", "{", "cannot read "),
    "flag without chain": ("flag", {"other": 1}, "needs a 'chain' key"),
    "flag chain not nested": ("flag", U34_UNNESTED, "flag chain is not strictly increasing"),
    "vertices not a list": ("homology", {"vertices": 3, "maximal_faces": []},
                            "'vertices' and 'maximal_faces' must be lists"),
    "maximal faces not a list": ("homology", {"vertices": [], "maximal_faces": 3},
                                 "'vertices' and 'maximal_faces' must be lists"),
    "signed vertex without coatom": ("homology", {"vertices": [{"sign": "+"}], "maximal_faces": []},
                                     "needs a 'coatom' list and a 'sign'"),
    "signed vertex without sign": ("homology", {"vertices": [{"coatom": ["1"]}], "maximal_faces": []},
                                   "needs a 'coatom' list and a 'sign'"),
    "vertex label a list": ("homology", {"vertices": [["a"]], "maximal_faces": []}, "vertex label ['a'] is a list"),
    "bad rational vector entry": ("vectors", {"columns": {"a": ["x"]}}, "bad rational entry for element a"),
    "dimension mismatch": ("vectors", {"columns": {"a": [1, 0], "b": [0, 1]}, "dimension": 3},
                           "declared dimension does not match the columns"),
    "ragged vector columns": ("vectors", {"columns": {"a": [1, 0], "b": [1]}}, "columns must share a dimension"),
    "repeated ground labels": ("validate", {"format": "flats", "ground_set": ["1", "1"], "flats": [[], ["1"]]},
                               "ground set labels must be distinct"),
    "flat outside the ground set": ("validate", {"format": "flats", "ground_set": ["1"], "flats": [[], ["2"]]},
                                    "flat ['2'] is not a subset of the ground set"),
    "no flats": ("validate", {"format": "flats", "ground_set": ["1"], "flats": []}, "empty flats list"),
    "uniform r above n": ("validate", {"format": "uniform", "r": 3, "n": 2},
                          "uniform matroid needs 1 <= r <= n, got r=3, n=2"),
    "linear without columns": ("validate", {"format": "linear", "columns": []},
                               "linear matroid needs at least one column"),
    "ground set not the column count": ("validate", {"format": "linear", "columns": [[1, 0], [0, 1]],
                                                     "ground_set": ["a"]}, "element count must match column count"),
    "ragged linear columns": ("validate", {"format": "linear", "columns": [[1, 0], [1]]},
                              "columns must share a dimension"),
    "unknown field": ("validate", {"format": "linear", "field": "R", "columns": [[1]]}, "unknown field 'R'"),
    "missing key": ("validate", {"format": "uniform", "r": 2}, "matroid spec is missing 'n'"),
}


@pytest.mark.parametrize("case", sorted(INPUT_ERRORS))
def test_refused_input_exits_2_on_one_line(runner, tmp_path, case):
    command, content, message = INPUT_ERRORS[case]
    path = tmp_path / "input.json"
    path.write_text(content if isinstance(content, str) else json.dumps(content))
    args = {"validate": ["validate", path], "flag": ["flags", "compare", DATA / "u34.json", path, "default"],
            "homology": ["homology", path], "vectors": ["om", "covectors", path]}[command]
    result = run(runner, *args)
    assert result.exit_code == 2, result.output
    assert result.stdout == ""
    assert result.stderr.startswith("input error: ") and message in result.stderr, result.stderr
    assert len(result.stderr.splitlines()) == 1 and "Traceback" not in result.stderr


def test_flag_file_holding_default_reads_as_the_literal(runner, tmp_path):
    flag = tmp_path / "flag.json"
    flag.write_text(json.dumps("default"))
    for args in (["flags", "compare", DATA / "u34.json", flag, flag], ["verify", DATA / "u34.json", "--flag", flag]):
        from_file = run(runner, *args)
        literal = run(runner, *["default" if a == flag else a for a in args])
        assert from_file.exit_code == literal.exit_code == 0, from_file.output
        assert from_file.stdout == literal.stdout


def test_homology_of_the_empty_complex(runner, tmp_path):
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({"vertices": [], "maximal_faces": []}))
    result = run(runner, "homology", empty)
    assert result.exit_code == 0
    assert result.stdout == "empty complex: all reduced homology trivial\n"


@pytest.mark.parametrize("pivots", ["1", "1,3,4"])
def test_om_embed_wrong_pivot_count_exits_2(runner, pivots):
    result = run(runner, "om", "embed", DATA / "u24_vec.json", "--pivots", pivots)
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr.startswith("input error: ")
    assert len(result.stderr.splitlines()) == 1


def test_cli_start_up_loads_only_stdlib_click_and_the_package():
    # Start-up is most of every CLI run's cost, so a test-only dependency
    # (sympy, hypothesis) must never load with the CLI, and no module may
    # generate methods at import: the package defines no dataclasses.
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = ("import sys; bare = set(sys.modules); import matroid_spheres.cli; "
            "print(*sorted(set(sys.modules) - bare)); print('dataclasses' in sys.modules)")
    *loaded, dataclasses_loaded = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout.split()
    assert "matroid_spheres.cli" in loaded
    allowed = sys.stdlib_module_names | {"click", "matroid_spheres"}
    assert [m for m in loaded if m.split(".")[0] not in allowed] == []
    assert dataclasses_loaded == "False"
    package = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "matroid_spheres"]
    classes = [c for m in package for c in vars(m).values()
               if isinstance(c, type) and c.__module__ == m.__name__]
    assert len(classes) > 14
    assert [c for c in classes if hasattr(c, "__dataclass_fields__")] == []
