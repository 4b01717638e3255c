import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from matroid_spheres.cli import main

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


def test_om_embed_u34(runner):
    result = run(runner, "om", "embed", DATA / "u34_vec.json")
    assert result.exit_code == 0


def test_flags_compare(runner, tmp_path):
    flag_b = tmp_path / "g.json"
    flag_b.write_text(json.dumps({"chain": [[], ["3"], ["3", "4"], ["1", "2", "3", "4"]]}))
    result = run(runner, "flags", "compare", DATA / "u34.json", "default", flag_b)
    assert result.exit_code == 0
    assert "idempotent: PASS" in result.output


def test_weakmap_yes(runner):
    result = run(runner, "weakmap", DATA / "u34.json", DATA / "n134.json")
    assert result.exit_code == 0
    assert "WEAK MAP: yes" in result.output


def test_weakmap_no_with_witness(runner):
    result = run(runner, "weakmap", DATA / "n134.json", DATA / "u34.json")
    assert result.exit_code == 1
    assert "WEAK MAP: no" in result.output
    assert "['1', '3', '4']" in result.output


def test_weakmap_search(runner):
    result = run(runner, "weakmap", DATA / "u34.json", DATA / "n134.json",
                 "--search-poset-map", "--flag", DATA / "f_1_12.json", "--json")
    assert result.exit_code == 0
    report = json.loads(result.output)
    assert report["weak_map"] is True
    search = report["search"]
    assert search["found"] is False
    assert search["stats"]["cap_hit"] is False
    paper_edge = [
        {"coatom": ["1", "4"], "sign": "-"},
        {"coatom": ["3", "4"], "sign": "+"},
    ]
    found = [o for o in search["obstructions"] if o["face"] == paper_edge]
    assert found
    assert {tuple(i["coatom"]) for i in found[0]["forced_images"]} == {("1", "3", "4")}


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
