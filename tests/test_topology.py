from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as st

from matroid_spheres import (
    FlagRepresentation,
    Poset,
    SimplicialComplex,
    build_covers,
    build_embedding,
    carrier_check,
    covectors_from_vectors,
    default_flag,
    dimension,
    is_homology_point,
    order_complex,
    reduced_homology,
    sphere_profile,
)
from matroid_spheres import topology
from matroid_spheres.jsonio import load_vector_config_file
from matroid_spheres.topology import all_faces, cross_polytope_nerve_iso, full_simplex, smith_invariant_factors
from conftest import complex_of, image_masks, label_cover, label_faces, member_labels, positions, sorted_faces
from conftest import (
    DATA, beat_points_oracle, cross_polytope_boundary, facet_signs, is_homology_sphere, poset_by_leq, reduces_to_point, simplex_boundary, support, swap_map,
    z2_free_check,
)

RP2 = complex_of(
    [[0, 1, 4], [0, 1, 5], [0, 2, 3], [0, 2, 4], [0, 3, 5],
     [1, 2, 3], [1, 2, 5], [1, 3, 4], [2, 4, 5], [3, 4, 5]]
)

OCTAHEDRON = cross_polytope_boundary(3)


# -- independent oracle: Betti numbers via rational rank --------------------


def rational_betti(complex_):
    faces = {}
    for m in label_faces(complex_):
        ms = sorted(m, key=complex_.vertices.index)
        for k in range(1, len(ms) + 1):
            for c in combinations(ms, k):
                faces.setdefault(k - 1, set()).add(c)
    if not faces:
        return {}
    by_dim = {d: sorted(fs) for d, fs in faces.items()}
    top = max(by_dim)

    def rank(matrix):
        m = [row[:] for row in matrix]
        if not m or not m[0]:
            return 0
        r = 0
        for c in range(len(m[0])):
            piv = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
            if piv is None:
                continue
            m[r], m[piv] = m[piv], m[r]
            for i in range(len(m)):
                if i != r and m[i][c] != 0:
                    f = Fraction(m[i][c], m[r][c])
                    m[i] = [a - f * b for a, b in zip(m[i], m[r])]
            r += 1
        return r

    def boundary(d):
        if d == 0:
            return [[1 for _ in by_dim[0]]]
        lower = {f: i for i, f in enumerate(by_dim[d - 1])}
        rows = [[0] * len(by_dim[d]) for _ in by_dim[d - 1]]
        for j, face in enumerate(by_dim[d]):
            for k in range(len(face)):
                sub = face[:k] + face[k + 1:]
                rows[lower[sub]][j] = (-1) ** k
        return rows

    ranks = {d: rank(boundary(d)) for d in range(top + 1)}
    ranks[top + 1] = 0
    return {
        d: len(by_dim[d]) - ranks[d] - ranks[d + 1] for d in range(top + 1)
    }


# -- faces, dimension --------------------------------------------------------


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(st.lists(st.frozensets(st.integers(0, 6), max_size=5), max_size=12))
def test_maximal_faces_match_quadratic_filter(faces):
    expected = {f for f in faces if f and not any(f < g for g in faces)}
    masks = [sum(1 << v for v in f) for f in faces]
    assert label_faces(SimplicialComplex(range(7), masks)) == expected


def test_all_faces_counts():
    assert len(all_faces(OCTAHEDRON)) == 26  # 6 + 12 + 8
    assert all_faces(complex_of([])) == []
    assert dimension(complex_of([])) == -1


def test_rep_complex_dimension(u24):
    rep = FlagRepresentation(u24, default_flag(u24))
    assert dimension(rep.build(u24.bottom)) == 3


def test_maximal_face_pruning():
    k = SimplicialComplex((0, 1, 2), [0b011, 0b111, 0b100])
    assert k.maximal_faces == frozenset({0b111})


# -- nerve --------------------------------------------------------------------


def nerve(cover):
    """Nerve by enumeration of every index subset (the library compares
    nerves through their maximal vertex stars instead).  Members are induced
    subcomplexes, so a family meets exactly when its vertex sets do."""
    members = member_labels(cover)
    keys = list(members)
    faces = [
        subset
        for k in range(1, len(keys) + 1)
        for subset in combinations(keys, k)
        if frozenset.intersection(*[members[x] for x in subset])
    ]
    return complex_of(faces, vertex_order=keys)


def test_nerve_disjoint_sets():
    cover = label_cover(complex_of([[0], [1]]), (("a", {0}), ("b", {1})))
    n = nerve(cover)
    assert label_faces(n) == frozenset({frozenset({"a"}), frozenset({"b"})})


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_nerve_of_cross_polytope_facets(d):
    cp = cross_polytope_boundary(d)
    facets = sorted_faces(cp)
    cover = label_cover(cp, tuple(enumerate(facets)))
    got = nerve(cover)
    # oracle: facet subsets intersect iff their sign vectors share a coordinate
    signs = {i: {v[0]: v[1] for v in f} for i, f in enumerate(facets)}
    expected = []
    for k in range(1, len(facets) + 1):
        for sub in combinations(range(len(facets)), k):
            if any(len({signs[i][c] for i in sub}) == 1 for c in range(d)):
                expected.append(frozenset(sub))
    assert got == complex_of(expected)


def test_nerve_of_u24_ambient_is_square_pattern(u24):
    rep = FlagRepresentation(u24, default_flag(u24))
    amb = rep.build(u24.bottom)
    facets = sorted_faces(amb)
    cover = label_cover(amb, tuple(enumerate(facets)))
    n = nerve(cover)
    # 4 maximal faces pairwise intersecting except the two antipodal pairs
    assert len(n.vertices) == 4
    assert all(f.bit_count() == 2 for f in n.maximal_faces)
    assert len(n.maximal_faces) == 4


def test_restrict_is_the_induced_subcomplex():
    # the octahedron on four equatorial vertices is the square boundary
    square = OCTAHEDRON.restrict(positions(OCTAHEDRON, {(0, "+"), (1, "+"), (0, "-"), (1, "-")}))
    assert label_faces(square) == label_faces(cross_polytope_boundary(2))
    assert square == cross_polytope_boundary(2)
    assert label_faces(OCTAHEDRON.restrict(positions(OCTAHEDRON, {(2, "+")}))) == {frozenset({(2, "+")})}
    assert OCTAHEDRON.restrict(0).is_empty


# -- order complexes -----------------------------------------------------------


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(st.sets(st.frozensets(st.integers(0, 3)), max_size=7))
def test_maximal_chains_match_enumeration(family):
    # sets under inclusion; oracle: every subfamily that is a chain and
    # extends by no other member
    elements = sorted(family, key=lambda f: (len(f), sorted(f)))
    chains = [
        c
        for k in range(1, len(elements) + 1)
        for c in combinations(elements, k)
        if all(a < b for a, b in zip(c, c[1:]))
    ]
    maximal = {
        frozenset(c)
        for c in chains
        if not any(set(c) < set(d) for d in chains)
    }
    got = maximal_chains(poset_by_leq(elements, lambda a, b: a <= b))
    assert len(got) == len(maximal)
    assert {frozenset(c) for c in got} == maximal
    assert all(all(a < b for a, b in zip(c, c[1:])) for c in got)


masks_and_subsets = st.sets(st.integers(1, 63), min_size=1, max_size=9).flatmap(
    lambda masks: st.tuples(st.just(sorted(masks)), st.sets(st.sampled_from(sorted(masks))))
)


def test_beat_points_imply_homology_point():
    verdicts = []

    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(masks_and_subsets)
    def check(case):
        # bitmasks under inclusion, ordered once from the masks and once
        # pair by pair; a beat-point pass on any subset must be a point
        masks, subset = case
        poset = Poset(masks, masks)
        pairwise = poset_by_leq(masks, lambda a, b: a & ~b == 0)
        assert sorted(poset.cover_pairs()) == sorted(pairwise.cover_pairs()) == sorted(
            (a, b) for a in masks for b in masks
            if a != b and a & ~b == 0
            and not any(c not in (a, b) and a & ~c == 0 and c & ~b == 0 for c in masks)
        )
        assert {frozenset(c) for c in maximal_chains(poset)} == {
            frozenset(c) for c in maximal_chains(pairwise)
        }
        collapses = reduces_to_point(poset, subset)
        if collapses:
            oc = order_complex(poset)
            assert is_homology_point(oc.restrict(positions(oc, subset)))
        verdicts.append(collapses)

    check()
    assert verdicts.count(True) >= 50 and verdicts.count(False) >= 50


def maximal_chains(poset):
    """Every maximal chain by elements, as ``Poset.chain_indices`` gives it."""
    return [tuple(map(poset.elements.__getitem__, c)) for c in poset.chain_indices()]


CIRCLE = Poset("abcd", [0b01, 0b10, 0b0111, 0b1011])  # a, b < c, d


def test_beat_points_stuck_on_a_circle():
    # a, b < c, d has no beat point: its order complex is a 4-cycle
    assert not reduces_to_point(CIRCLE, "abcd")
    assert reduces_to_point(CIRCLE, "acd")  # c and d sit over a alone
    assert not reduces_to_point(CIRCLE, "")
    assert not reduces_to_point(CIRCLE, "az")  # z is no element


def test_beat_point_worklist_matches_the_pass_by_pass_oracle():
    verdicts = []

    @settings(derandomize=True, database=None, max_examples=400, deadline=None)
    @given(masks_and_subsets)
    def check(case):
        # Stong: every order of removal ends in the same core, so the
        # worklist's order cannot change the verdict
        masks, subset = case
        poset = Poset(masks, masks)
        for members in (subset, masks):
            verdict = reduces_to_point(poset, members)
            assert verdict is beat_points_oracle(poset, members), (masks, members)
            verdicts.append(verdict)

    check()
    assert verdicts.count(True) >= 100 and verdicts.count(False) >= 100


def test_beat_point_worklist_matches_the_oracle_on_every_carrier_poset(monkeypatch):
    # every (poset, intersection) that ``carrier_check`` asks about, over
    # every flat of every vector configuration in tests/data, and each
    # poset on all of its elements; the labels are masked through
    # ``reduces_to_point``, and the mask entry point is recorded
    asked = []
    mask_route = Poset.mask_reduces_to_point

    def recorded(poset, mask):
        asked.append((poset, frozenset(x for i, x in enumerate(poset.elements) if mask >> i & 1)))
        return mask_route(poset, mask)

    monkeypatch.setattr(Poset, "mask_reduces_to_point", recorded)
    for path in sorted(DATA.glob("*_vec.json")):
        emb = build_embedding(covectors_from_vectors(load_vector_config_file(path)))
        for flat in emb.lattice.flats:
            a_cover, b_cover = build_covers(emb, flat)
            assert carrier_check(emb.images, a_cover, b_cover).ok
            asked.append((a_cover.poset, frozenset(a_cover.poset.elements)))
    monkeypatch.undo()
    assert len({id(p) for p, _ in asked}) >= 20
    verdicts = [reduces_to_point(poset, x) for poset, x in asked]
    assert verdicts == [beat_points_oracle(poset, x) for poset, x in asked]
    assert True in verdicts


def homology_calls(monkeypatch):
    calls = []
    real = topology.is_homology_point

    def counted(complex_):
        calls.append(complex_)
        return real(complex_)

    monkeypatch.setattr(topology, "is_homology_point", counted)
    return calls


def test_carrier_check_stuck_beat_points_fall_back_to_homology(monkeypatch):
    calls = homology_calls(monkeypatch)
    a = label_cover(order_complex(CIRCLE), (("i", "abcd"),), CIRCLE)
    b = label_cover(full_simplex([9]), (("i", {9}),))
    rep = carrier_check(image_masks({v: {9} for v in "abcd"}, b.ambient), a, b)
    assert calls == [order_complex(CIRCLE)]
    assert rep["intersections-contractible"].detail == (
        "A-intersection over ['i'] is not a homology point"
    )
    assert [c.name for c in rep.checks if not c.passed] == ["intersections-contractible"]


def test_carrier_check_plain_ambient_not_a_face_falls_back_to_homology(monkeypatch):
    # The boundary of a triangle, as a plain ambient: every two vertices
    # span an edge but the three span no face, so it is not a flag complex.
    # Domination read off the 1-skeleton would call it a point; the check
    # must reach homology and fail.
    calls = homology_calls(monkeypatch)
    boundary = simplex_boundary(2)
    a = label_cover(boundary, (("i", boundary.vertices),))
    b = label_cover(full_simplex([9]), (("i", {9}),))
    rep = carrier_check(image_masks({v: {9} for v in boundary.vertices}, b.ambient), a, b)
    assert calls == [boundary]
    assert not rep["intersections-contractible"].passed
    assert [c.name for c in rep.checks if not c.passed] == ["intersections-contractible"]


def test_carrier_check_faces_need_no_homology(monkeypatch):
    calls = homology_calls(monkeypatch)
    x = complex_of([[0, 1], [1, 2]])
    cover = label_cover(x, (("p", {0, 1}), ("q", {1, 2})))
    assert carrier_check(image_masks({v: {v} for v in x.vertices}, x), cover, cover).ok
    assert calls == []


def test_order_complex_of_chain():
    p = poset_by_leq(["a", "b", "c"], lambda x, y: x <= y)
    oc = order_complex(p)
    assert label_faces(oc) == frozenset({frozenset({"a", "b", "c"})})


def barycentric_subdivision(complex_):
    """The order complex of the face poset."""
    return order_complex(poset_by_leq(all_faces(complex_), lambda a, b: a & ~b == 0))


def test_order_complex_of_square_boundary_face_poset():
    square = complex_of([[0, 1], [1, 2], [2, 3], [0, 3]])
    sd = barycentric_subdivision(square)
    assert len(sd.vertices) == 8
    assert reduced_homology(sd) == sphere_profile(1)


def test_barycentric_invariance(u24):
    rep = FlagRepresentation(u24, default_flag(u24))
    for k in (OCTAHEDRON, rep.build(u24.bottom), simplex_boundary(2)):
        assert reduced_homology(barycentric_subdivision(k)) == reduced_homology(k)


# -- homology ------------------------------------------------------------------


def test_homology_tetrahedron_boundary():
    assert reduced_homology(simplex_boundary(3)) == sphere_profile(2)


def test_homology_u24_ambient(u24):
    rep = FlagRepresentation(u24, default_flag(u24))
    profile = reduced_homology(rep.build(u24.bottom))
    assert profile == sphere_profile(1)


def test_homology_projective_plane_torsion():
    profile = reduced_homology(RP2)
    assert profile.betti(0) == 0
    assert profile.betti(1) == 0
    assert profile.torsion(1) == (2,)
    assert profile.betti(2) == 0


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_cross_polytope_spheres(d):
    cp = cross_polytope_boundary(d)
    assert reduced_homology(cp) == sphere_profile(d - 1)
    euler = sum((-1) ** (f.bit_count() - 1) for f in all_faces(cp))
    assert euler == 1 + (-1) ** (d - 1)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_simplex_boundary_spheres(n):
    assert reduced_homology(simplex_boundary(n)) == sphere_profile(n - 1)


def test_empty_complex_conventions():
    empty = complex_of([])
    assert reduced_homology(empty).dims == ()
    assert is_homology_sphere(empty, -1)
    assert not is_homology_sphere(empty, 0)
    assert not is_homology_point(empty)


def test_homology_point_simplex():
    assert is_homology_point(full_simplex([0, 1, 2]))


def test_smith_normal_form_small():
    # diag(2, 6) ~ invariant factors (2, 6); swapped entries normalize
    entries = {(0, 0): 6, (1, 1): 2}
    assert smith_invariant_factors(entries, 2, 2) == [2, 6]
    entries = {(0, 0): 4, (1, 1): 6}
    assert smith_invariant_factors(entries, 2, 2) == [2, 12]


def test_betti_against_rational_oracle(u24, u34):
    rep24 = FlagRepresentation(u24, default_flag(u24))
    rep34 = FlagRepresentation(u34, default_flag(u34))
    fixtures = [
        OCTAHEDRON,
        simplex_boundary(3),
        full_simplex([0, 1, 2, 3]),
        rep24.build(u24.bottom),
        rep34.build(u34.bottom),
        complex_of([[0, 1], [1, 2], [2, 0], [3]]),
    ]
    for k in fixtures:
        profile = reduced_homology(k)
        oracle = rational_betti(k)
        assert not any(profile.torsion(d) for d in range(len(profile.dims)))
        for d, betti in oracle.items():
            assert profile.betti(d) == betti


# -- sphere/point predicates, Z2 -------------------------------------------------


def test_is_homology_sphere_cases(fano):
    rep = FlagRepresentation(fano, default_flag(fano))
    line = fano.closure({"1", "2"})
    built = rep.build(line)
    assert built.support.bit_count() == 2
    assert is_homology_sphere(built, 0)


def test_z2_free_check(u24):
    rep = FlagRepresentation(u24, default_flag(u24))
    amb = rep.build(u24.bottom)
    assert z2_free_check(amb, swap_map(amb))
    edge = complex_of([["a", "b"]])
    assert not z2_free_check(edge, {"a": "b", "b": "a"})
    antipodal = {v: (v[0], "-" if v[1] == "+" else "+") for v in OCTAHEDRON.vertices}
    assert z2_free_check(OCTAHEDRON, antipodal)
    with pytest.raises(ValueError):
        z2_free_check(complex_of([["a", "b"], ["c"]]),
                      {"a": "c", "c": "a", "b": "b"})
    # a vertex whose image is not a vertex: not an involution, no KeyError
    half = complex_of([f for f in label_faces(OCTAHEDRON) if (0, "+") not in f])
    with pytest.raises(ValueError):
        z2_free_check(half, {v: antipodal[v] for v in half.vertices})


# -- cross-polytope nerve isomorphism ---------------------------------------------


def test_nerve_iso_u24_and_fano(u24, fano):
    for lattice, d in ((u24, 2), (fano, 3)):
        rep = FlagRepresentation(lattice, default_flag(lattice))
        built = rep.build(lattice.bottom)
        supp = support(rep, lattice.bottom)
        signs = {
            f: tuple("+" if v[i] > 0 else "-" for i in supp)
            for f, v in facet_signs(rep, built).items()
        }
        assert cross_polytope_nerve_iso(built, d, signs)


def test_nerve_iso_rejects_cone():
    # every facet holds the apex, so antipodal facets meet under any labelling
    cone = complex_of([[0, 1, 2], [0, 3, 4], [0, 5, 6], [0, 7, 8]])
    facets = sorted_faces(cone)
    assert not cross_polytope_nerve_iso(cone, 2, dict(zip(facets, product("+-", repeat=2))))


def test_nerve_iso_accepts_octahedron():
    # the facet {(i, s_i)} of the octahedron is labelled by its signs s
    signs = {f: tuple(s for _, s in sorted(f)) for f in label_faces(OCTAHEDRON)}
    assert cross_polytope_nerve_iso(OCTAHEDRON, 3, signs)


# -- carrier checks --------------------------------------------------------------


def test_carrier_check_identity():
    x = full_simplex([0, 1, 2])
    cover = label_cover(x, (("i", x.vertices),))
    rep = carrier_check(image_masks({v: {v} for v in x.vertices}, x), cover, cover)
    assert rep.ok


def test_carrier_check_nonemptiness_mismatch():
    amb_a = complex_of([[0, 1], [1, 2]])
    amb_b = complex_of([[10], [11]])
    a = label_cover(amb_a, (("p", {0, 1}), ("q", {1, 2})))
    b = label_cover(amb_b, (("p", {10}), ("q", {11})))
    rep = carrier_check(image_masks({0: {10}, 1: {10}, 2: {11}}, amb_b), a, b)
    assert not rep.ok
    assert not rep["nonemptiness-equivalence"].passed


def test_carrier_check_index_mismatch():
    x = full_simplex([0])
    a = label_cover(x, (("p", {0}),))
    b = label_cover(x, (("q", {0}),))
    with pytest.raises(ValueError):
        carrier_check(image_masks({0: {0}}, x), a, b)
