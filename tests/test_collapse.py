"""Homology on the strong-collapse core, checked against full-face homology
and sympy's Smith normal form, and the core of S_0 on the paper's
construction."""

import json
from pathlib import Path

from hypothesis import given, settings, strategies as st
from sympy import Matrix, ZZ
from sympy.matrices.normalforms import smith_normal_form

from matroid_spheres import (
    FlagRepresentation,
    SimplicialComplex,
    cross_polytope_boundary,
    dimension,
    reduced_homology,
    simplex_boundary,
    sphere_profile,
)
from matroid_spheres.jsonio import complex_from_json
from matroid_spheres.lattice import all_complete_flags
from matroid_spheres.topology import (
    _face_homology,
    full_simplex,
    smith_invariant_factors,
    strong_collapse_core,
)

DATA = Path(__file__).parent / "data"
RP2 = complex_from_json(json.loads((DATA / "rp2.json").read_text()))
DERANDOMIZED = settings(derandomize=True, database=None, max_examples=150, deadline=None)


def cone(complex_, apex="apex"):
    return SimplicialComplex([set(m) | {apex} for m in complex_.maximal_faces])


def suspension(complex_):
    return SimplicialComplex(
        [set(m) | {pole} for m in complex_.maximal_faces for pole in ("north", "south")]
    )


def graft(complex_, grafts):
    """Add a new vertex over a nonempty subface of some maximal faces; each
    new vertex lies in one maximal face, so it is dominated."""
    facets = sorted(complex_.maximal_faces, key=complex_.face_key)
    extra = []
    for n, (i, mask) in enumerate(grafts):
        base = sorted(facets[i % len(facets)], key=complex_.vertices.index)
        sub = [v for k, v in enumerate(base) if mask >> k & 1] or base[:1]
        extra.append(sub + [("graft", n)])
    return SimplicialComplex(list(complex_.maximal_faces) + extra)


def assert_core_homology(complex_):
    profile = reduced_homology(complex_)
    assert profile.dims == _face_homology(complex_).dims
    assert len(profile.dims) == dimension(complex_) + 1


# -- core homology against full-face homology ----------------------------------


small_complexes = st.lists(
    st.frozensets(st.integers(0, 6), min_size=1, max_size=4), min_size=1, max_size=7
).map(SimplicialComplex)


@DERANDOMIZED
@given(small_complexes)
def test_core_homology_matches_face_homology(complex_):
    assert_core_homology(complex_)


@DERANDOMIZED
@given(
    st.sampled_from(["rp2", "cone", "suspension"]),
    st.lists(st.tuples(st.integers(0, 19), st.integers(0, 7)), max_size=5),
)
def test_core_homology_with_torsion_and_grafts(base, grafts):
    complex_ = {"rp2": RP2, "cone": cone(RP2), "suspension": suspension(RP2)}[base]
    grafted = graft(complex_, grafts)
    assert_core_homology(grafted)
    assert reduced_homology(grafted) == reduced_homology(complex_)


def test_torsion_fixtures():
    assert reduced_homology(RP2).torsion(1) == (2,)
    assert reduced_homology(cone(RP2)).is_trivial()
    assert reduced_homology(suspension(RP2)).torsion(2) == (2,)
    assert reduced_homology(graft(RP2, [(0, 7), (3, 1), (3, 6)])).torsion(1) == (2,)


# -- the core itself -------------------------------------------------------------


def test_core_of_contractible_complexes_is_a_point():
    path = SimplicialComplex([[0, 1], [1, 2], [2, 3], [3, 4]])  # needs several rounds
    for k in (cone(RP2), full_simplex(range(5)), path):
        assert len(strong_collapse_core(k).vertices) == 1


def test_core_is_the_complex_when_nothing_is_dominated():
    for k in (RP2, cross_polytope_boundary(4), simplex_boundary(3), SimplicialComplex([])):
        assert strong_collapse_core(k) is k


def test_core_of_s0_is_the_cross_polytope(u34, bool3, fano):
    """For every complete flag, the core of S_0 keeps one coatom of each
    block with both signs: the boundary of an r-cross-polytope."""
    for lattice in (u34, bool3, fano):
        r = lattice.r
        for flag in all_complete_flags(lattice):
            rep = FlagRepresentation(lattice, flag)
            core = strong_collapse_core(rep.build(lattice.bottom).complex)
            assert len(core.vertices) == 2 * r
            assert len(core.maximal_faces) == 2 ** r
            assert all(len(m) == r for m in core.maximal_faces)
            for block in rep.parts:
                kept = [v for v in core.vertices if rep.coatom_of(v) in block]
                assert len({v[0] for v in kept}) == 1
                assert sorted(v[1] for v in kept) == ["+", "-"]
            assert reduced_homology(core) == sphere_profile(r - 1)


def test_homology_is_memoized(u34):
    s0 = FlagRepresentation(u34, all_complete_flags(u34)[0]).build(u34.bottom)
    reduced_homology(s0.complex)
    hits = reduced_homology.cache_info().hits
    again = SimplicialComplex(s0.complex.maximal_faces)
    assert reduced_homology(again) == sphere_profile(2)
    assert reduced_homology.cache_info().hits == hits + 1


# -- SNF against sympy -------------------------------------------------------------


def sympy_invariant_factors(rows):
    diag = smith_normal_form(Matrix(rows), domain=ZZ)
    return sorted(abs(diag[i, i]) for i in range(min(diag.shape)) if diag[i, i] != 0)


def matrices(values):
    shape = st.tuples(st.integers(1, 5), st.integers(1, 5))
    return shape.flatmap(
        lambda s: st.lists(
            st.lists(st.sampled_from(values), min_size=s[1], max_size=s[1]),
            min_size=s[0], max_size=s[0],
        )
    )


def assert_snf_matches_sympy(rows):
    entries = {(i, j): v for i, row in enumerate(rows) for j, v in enumerate(row) if v}
    assert smith_invariant_factors(entries, len(rows), len(rows[0])) == sympy_invariant_factors(rows)


@DERANDOMIZED
@given(matrices(range(-4, 5)))
def test_snf_matches_sympy(rows):
    assert_snf_matches_sympy(rows)


@DERANDOMIZED
@given(matrices([0, 0, 2, -2, 3, -3, 4, 6, -9, 10]))
def test_snf_matches_sympy_without_units(rows):
    # no +-1 entry at the start, so the min-abs fallback pivot runs
    assert_snf_matches_sympy(rows)
