"""Acceptance suite: one test per criterion, each printing a PASS line.

Every check here is exact (set equality, integer homology, lattice
isomorphism); the only tolerances are the stated wall-clock budgets.
"""

import json
import time
from pathlib import Path

import pytest
from click.testing import CliRunner

from matroid_spheres import (
    FlagRepresentation,
    all_complete_flags,
    arrangement_flats,
    build_covers,
    build_embedding,
    covectors_from_vectors,
    carrier_check,
    default_flag,
    make_flag,
    poset_map_search,
    reduced_homology,
    retraction_map,
    roundtrip_isomorphic,
    sphere_profile,
    verify_embedding,
    verify_retraction,
)
from matroid_spheres import oriented
from conftest import complex_of, frozen
from conftest import (
    cross_polytope_boundary, delta_complex, nerve_oracle, simplex_boundary, swap_map, z2_free_check,
)
from matroid_spheres.cli import main

DATA = Path(__file__).parent / "data"


class Budget:
    def __init__(self, seconds):
        self.seconds = seconds
        self.start = time.monotonic()

    def check(self):
        elapsed = time.monotonic() - self.start
        assert elapsed < self.seconds, f"budget {self.seconds}s exceeded: {elapsed:.1f}s"
        return elapsed


def report(n, label, elapsed):
    print(f"criterion {n:2d} [{label}]: PASS ({elapsed:.2f}s)")


@pytest.fixture(scope="module")
def fixtures(u24, u34, bool3, fano, n134):
    return {"u24": u24, "u34": u34, "bool3": bool3, "fano": fano, "n134": n134}


@pytest.fixture(scope="module")
def reps(fixtures):
    return {
        name: FlagRepresentation(lattice, default_flag(lattice))
        for name, lattice in fixtures.items()
    }


def test_criterion_01_figure_reproduction(tmp_path):
    budget = Budget(1.0)
    runner = CliRunner()
    result = runner.invoke(
        main, ["represent", str(DATA / "u24.json"), "--flag", "default",
               "--out", str(tmp_path)],
    )
    assert result.exit_code == 0
    s0 = json.loads((tmp_path / "S_0.json").read_text())
    assert len(s0["maximal_faces"]) == 4
    assert all(len(face) == 4 for face in s0["maximal_faces"])
    for x in "1234":
        sx = json.loads((tmp_path / f"S_{x}.json").read_text())
        assert [v["coatom"] for v in sx["vertices"]] == [[x], [x]]
        assert sorted(v["sign"] for v in sx["vertices"]) == ["+", "-"]
        assert sx["maximal_faces"] == [[0], [1]]
    report(1, "four tetrahedra and vertex pairs", budget.check())


def test_criterion_02_sphere_types(fixtures, reps):
    budget = Budget(30.0)
    for name, lattice in fixtures.items():
        rep = reps[name]
        for flat in lattice.flats:
            built = rep.build(flat)
            assert rep.spheres[flat] and nerve_oracle(rep, flat, built), (name, sorted(flat))
            profile = reduced_homology(built)
            assert profile == sphere_profile(lattice.corank(flat) - 1), (
                name, sorted(flat), profile.to_json(),
            )
    report(2, "nerve iso + sphere homology, every flat", budget.check())


def test_criterion_03_intersection_law(fixtures, reps):
    budget = Budget(30.0)
    for name, lattice in fixtures.items():
        assert reps[name].intersection_law_holds(), name
    report(3, "S_G n S_H = S_{GvH}, all pairs", budget.check())


def test_criterion_04_roundtrip(fixtures, reps):
    budget = Budget(60.0)
    for name, lattice in fixtures.items():
        recovered = arrangement_flats(reps[name])
        assert roundtrip_isomorphic(lattice, recovered), name
    report(4, "arrangement flats recover the matroid", budget.check())


def test_criterion_05_z2_freeness(fixtures, reps):
    budget = Budget(60.0)
    for name, lattice in fixtures.items():
        amb = reps[name].build(lattice.bottom)
        assert z2_free_check(amb, swap_map(amb)), name
    fixed_edge = complex_of([["a", "b"]])
    assert not z2_free_check(fixed_edge, {"a": "b", "b": "a"})
    report(5, "free sign swap; negative fixture fails", budget.check())


def test_criterion_06_embedding(u24_vec, u34_vec):
    budget = Budget(60.0)
    for cfg in (u24_vec, u34_vec):
        emb = build_embedding(covectors_from_vectors(cfg))
        result = verify_embedding(emb)
        assert result.ok, result.lines()
        for flat in emb.lattice.flats:
            sub = oriented.covector_flat(emb.cs, flat)[1:]  # the zero covector 0 sorts first
            left = reduced_homology(delta_complex(sub, len(emb.cs.elements)))
            right = reduced_homology(emb.rep.build(flat))
            assert left == right == sphere_profile(emb.lattice.corank(flat) - 1)
            a_cover, b_cover = build_covers(emb, flat)
            carrier = carrier_check(emb.images, a_cover, b_cover)
            assert carrier.ok, (sorted(flat), carrier.lines())
            # every index subset is covered with no bound, so no line reports one
            assert [c.name for c in carrier.checks] == [
                "covering", "intersections-contractible", "nonemptiness-equivalence", "maps-into-carrier"]
    report(6, "covector embedding + carrier covers", budget.check())


def test_criterion_07_pivots(u24_vec, u34_vec, coord2_vec, coord3_vec, n134_vec,
                             nonfano_vec):
    budget = Budget(60.0)
    for cfg in (u24_vec, u34_vec, coord2_vec, coord3_vec, n134_vec, nonfano_vec):
        emb = build_embedding(covectors_from_vectors(cfg))
        result = oriented.pivots_check(emb)
        assert result.ok, result.lines()
    report(7, "coatom blocks match pivot prefixes", budget.check())


def test_criterion_08_retractions(u34, bool3, fano):
    budget = Budget(60.0)
    cases = []
    for lattice in (u34, bool3):
        flags = all_complete_flags(lattice)
        cases.extend((lattice, f, g) for f in flags for g in flags)
    fano_flags = all_complete_flags(fano)
    cases.append((fano, fano_flags[0], fano_flags[1]))
    cases.append((fano, fano_flags[2], fano_flags[-1]))
    for lattice, f, g in cases:
        desc = retraction_map(lattice, f, g)
        assert desc.selection.distinct()
        result = verify_retraction(desc)
        assert result.ok, (f.chain, g.chain, result.lines())
    report(8, "cross selections + retractions, all flag pairs", budget.check())


def test_criterion_09_obstruction(u34, n134):
    budget = Budget(60.0)
    flag = make_flag(u34, [[], ["1"], ["1", "2"], ["1", "2", "3", "4"]])
    result = poset_map_search(u34, n134, flag)
    assert not result.found
    edge = frozenset({(("3", "4"), "+"), (("1", "4"), "-")})
    by_face = {frozenset(map(u34.vertex_label, face)): forced for face, forced, _ in result.obstructions}
    assert edge in by_face
    forced = set(by_face[edge])
    assert set(map(n134.vertex_label, forced)) == {(("1", "3", "4"), "+"), (("1", "3", "4"), "-")}
    target = FlagRepresentation(n134, make_flag(n134, flag.chain)).build(n134.bottom)
    assert not frozen(target).has_face(forced)
    report(9, "no induced map; obstruction edge certified", budget.check())


def test_criterion_10_homology_oracles():
    budget = Budget(60.0)
    for d in range(1, 6):
        assert reduced_homology(cross_polytope_boundary(d)) == sphere_profile(d - 1)
        assert reduced_homology(simplex_boundary(d)) == sphere_profile(d - 1)
    rp2 = complex_of(
        [[0, 1, 4], [0, 1, 5], [0, 2, 3], [0, 2, 4], [0, 3, 5],
         [1, 2, 3], [1, 2, 5], [1, 3, 4], [2, 4, 5], [3, 4, 5]]
    )
    profile = reduced_homology(rp2)
    assert profile.torsion(1) == (2,)
    assert all(profile.betti(d) == 0 for d in range(3))
    report(10, "sphere profiles and torsion oracle", budget.check())
