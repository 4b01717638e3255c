"""Homology on the strong-collapse core, checked against full-face homology
and sympy's Smith normal form, and the core of S_0 on the paper's
construction.  The coreduction sweep is checked against the Smith normal
forms of every boundary map, with no reduction first."""

import json
from pathlib import Path

from hypothesis import given, settings, strategies as st
from sympy import Matrix, ZZ
from sympy.matrices.normalforms import smith_normal_form

from matroid_spheres import (
    FlagRepresentation,
    SimplicialComplex,
    dimension,
    reduced_homology,
    sphere_profile,
)
from conftest import complex_of, label_faces, sorted_faces, used_vertices
from conftest import cross_polytope_boundary, face_homology_oracle, held_parts, simplex_boundary
from matroid_spheres import build_embedding, covectors_from_vectors, topology, vector_config
from matroid_spheres.jsonio import complex_from_json, load_vector_config_file
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
    return complex_of([set(m) | {apex} for m in label_faces(complex_)])


def suspension(complex_):
    return complex_of(
        [set(m) | {pole} for m in label_faces(complex_) for pole in ("north", "south")]
    )


def graft(complex_, grafts):
    """Add a new vertex over a nonempty subface of some maximal faces; each
    new vertex lies in one maximal face, so it is dominated."""
    facets = sorted_faces(complex_)
    extra = []
    for n, (i, mask) in enumerate(grafts):
        base = sorted(facets[i % len(facets)], key=complex_.vertices.index)
        sub = [v for k, v in enumerate(base) if mask >> k & 1] or base[:1]
        extra.append(sub + [("graft", n)])
    return complex_of(list(label_faces(complex_)) + extra)


def assert_core_homology(complex_):
    profile = reduced_homology(complex_)
    assert profile.dims == _face_homology(complex_).dims == face_homology_oracle(complex_).dims
    assert len(profile.dims) == dimension(complex_) + 1


# -- core homology against full-face homology ----------------------------------


small_complexes = st.lists(
    st.frozensets(st.integers(0, 6), min_size=1, max_size=4), min_size=1, max_size=7
).map(complex_of)


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


# -- the coreduction sweep against every boundary map's Smith normal form ------------


def klein_bottle():
    """The 3 x 3 grid on the square, sides glued (x, 0) ~ (x, 3) and
    (0, y) ~ (3, 3 - y): 9 vertices, 18 triangles."""
    def v(x, y):
        if x == 3:
            x, y = 0, (3 - y) % 3
        return (x, y % 3)

    return complex_of(
        [v(x, y), v(x + 1, y), v(x + 1, y + 1)] if half else [v(x, y), v(x, y + 1), v(x + 1, y + 1)]
        for x in range(3) for y in range(3) for half in (0, 1)
    )


TORUS = complex_of(  # Moebius' 7-vertex torus
    [[i, (i + 1) % 7, (i + 3) % 7] for i in range(7)] + [[i, (i + 2) % 7, (i + 3) % 7] for i in range(7)]
)
KNOWN = {
    "empty": (complex_of([]), ()),
    "one vertex": (complex_of([["v"]]), ((0, ()),)),
    "disconnected": (complex_of([[0, 1], [1, 2], [3], [4, 5, 6]]), ((2, ()), (0, ()), (0, ()))),
    "two circles": (complex_of([[0, 1], [1, 2], [0, 2], [3, 4], [4, 5], [3, 5]]),
                    ((1, ()), (2, ()))),
    "rp2": (RP2, ((0, ()), (0, (2,)), (0, ()))),
    "torus": (TORUS, ((0, ()), (2, ()), (1, ()))),
    "klein bottle": (klein_bottle(), ((0, ()), (1, (2,)), (0, ()))),
}


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(st.lists(st.frozensets(st.integers(0, 9), min_size=1, max_size=5), min_size=1, max_size=12)
       .map(complex_of))
def test_sweep_matches_oracle_in_higher_dimensions(complex_):
    assert _face_homology(complex_).dims == face_homology_oracle(complex_).dims


def test_sweep_on_known_complexes():
    assert len(klein_bottle().maximal_faces) == 18
    for name, (complex_, dims) in KNOWN.items():
        assert _face_homology(complex_).dims == face_homology_oracle(complex_).dims == dims, name


def covector_order_complexes():
    """Delta(L_G) of every flat G of every vector configuration in tests/data."""
    for path in sorted(DATA.glob("*_vec.json")):
        emb = build_embedding(covectors_from_vectors(load_vector_config_file(path)))
        for flat in sorted(emb.lattice.flats, key=emb.lattice.key):
            yield path.stem, emb.lattice.corank(flat), emb.delta(flat)


def test_sweep_matches_oracle_on_covector_order_complexes():
    for name, corank, delta in covector_order_complexes():
        profile = _face_homology(delta)
        assert profile.dims == face_homology_oracle(delta).dims, name
        assert profile == sphere_profile(corank - 1), name


def test_sweep_leaves_no_matrix_on_the_spheres(monkeypatch):
    shapes = []
    real = topology.smith_invariant_factors

    def counted(entries, nrows, ncols):
        shapes.append((nrows, ncols))
        return real(entries, nrows, ncols)

    monkeypatch.setattr(topology, "smith_invariant_factors", counted)
    seen = 0
    for name, _, delta in covector_order_complexes():
        _face_homology(strong_collapse_core(delta))
        _face_homology(delta)
        assert shapes == [], name
        seen += 1
    assert seen > 20
    # the order matters: on Delta(L_0) of the rank-5 coordinate vectors a
    # LIFO stack leaves 3,139 x 6,192 and 6,192 x 3,054 matrices
    unit = [[int(i == j) for i in range(5)] for j in range(5)]
    emb = build_embedding(covectors_from_vectors(vector_config(unit)))
    assert _face_homology(emb.delta(emb.lattice.bottom)) == sphere_profile(4)
    assert shapes == []
    # the Z/2 of RP^2 is left for the Smith normal form
    assert _face_homology(RP2).torsion(1) == (2,)
    assert shapes


# -- the core itself -------------------------------------------------------------


def test_core_of_contractible_complexes_is_a_point():
    path = complex_of([[0, 1], [1, 2], [2, 3], [3, 4]])  # needs several rounds
    for k in (cone(RP2), full_simplex(range(5)), path):
        assert strong_collapse_core(k).support.bit_count() == 1


def test_core_is_the_complex_when_nothing_is_dominated():
    for k in (RP2, cross_polytope_boundary(4), simplex_boundary(3), complex_of([])):
        assert strong_collapse_core(k) is k


def test_core_of_s0_is_the_cross_polytope(u34, bool3, fano):
    """For every complete flag, the core of S_0 keeps one coatom of each
    block with both signs: the boundary of an r-cross-polytope."""
    for lattice in (u34, bool3, fano):
        r = lattice.r
        for flag in all_complete_flags(lattice):
            rep = FlagRepresentation(lattice, flag)
            core = strong_collapse_core(rep.build(lattice.bottom))
            assert core.support.bit_count() == 2 * r
            assert len(core.maximal_faces) == 2 ** r
            assert all(m.bit_count() == r for m in core.maximal_faces)
            for block in held_parts(rep):
                kept = [v for v in map(lattice.vertex_label, used_vertices(core)) if frozenset(v[0]) in block]
                assert len({v[0] for v in kept}) == 1
                assert sorted(v[1] for v in kept) == ["+", "-"]
            assert reduced_homology(core) == sphere_profile(r - 1)


def test_homology_is_memoized(u34):
    s0 = FlagRepresentation(u34, all_complete_flags(u34)[0]).build(u34.bottom)
    reduced_homology(s0)
    hits = reduced_homology.cache_info().hits
    again = SimplicialComplex(s0.vertices, s0.maximal_faces)
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
