from itertools import combinations

from matroid_spheres import (
    FlagRepresentation,
    all_complete_flags,
    arrangement_flats,
    default_flag,
    make_flag,
    reduced_homology,
    roundtrip_isomorphic,
    sphere_profile,
    uniform_matroid,
    verify_arrangement,
    verify_geometric,
)
from conftest import label_faces, mask_vertices, sorted_faces, used_vertices
from conftest import facet_signs, held_parts, is_subcomplex_of, nerve_oracle, part_of, support, swap_map, z2_free_check


def rep_for(lattice, chain=None):
    flag = default_flag(lattice) if chain is None else make_flag(lattice, chain)
    return FlagRepresentation(lattice, flag)


def flatset(rep, *elements):
    return frozenset(str(e) for e in elements)


def met(rep, flat):
    """The blocks that the vertex mask V_G meets."""
    return tuple(i for i, (p, m) in enumerate(rep.halves) if rep.masks[flat] & (p | m))


# -- coatom partition ---------------------------------------------------------


def test_partition_u24(u24):
    rep = rep_for(u24, [[], ["1"], ["1", "2", "3", "4"]])
    assert [set(p) for p in held_parts(rep)] == [
        {frozenset({"2"}), frozenset({"3"}), frozenset({"4"})},
        {frozenset({"1"})},
    ]


def test_partition_bool3(bool3):
    rep = rep_for(bool3, [[], ["a"], ["a", "b"], ["a", "b", "c"]])
    assert [set(p) for p in held_parts(rep)] == [
        {frozenset({"b", "c"})},
        {frozenset({"a", "c"})},
        {frozenset({"a", "b"})},
    ]


def test_partition_u34(u34):
    rep = rep_for(u34, [[], ["1"], ["1", "2"], ["1", "2", "3", "4"]])
    assert [set(p) for p in held_parts(rep)] == [
        {frozenset({"2", "3"}), frozenset({"2", "4"}), frozenset({"3", "4"})},
        {frozenset({"1", "3"}), frozenset({"1", "4"})},
        {frozenset({"1", "2"})},
    ]


def test_partition_properties_all_fixtures(u24, u34, bool3, fano, n134):
    for lattice in (u24, u34, bool3, fano, n134):
        for flag in all_complete_flags(lattice)[:6]:
            rep = FlagRepresentation(lattice, flag)
            blocks = [set(p) for p in held_parts(rep)]
            assert all(blocks[i] for i in range(len(blocks)))
            assert not any(
                blocks[i] & blocks[j] for i in range(len(blocks)) for j in range(i)
            )
            assert set().union(*blocks) == set(lattice.coatoms())


# -- build_S -------------------------------------------------------------------


def test_build_u24_ambient(u24):
    rep = rep_for(u24)
    built = rep.build(u24.bottom)
    assert len(built.maximal_faces) == 4
    assert all(f.bit_count() == 4 for f in built.maximal_faces)


def test_build_u24_rank1_flats(u24):
    rep = rep_for(u24)
    built = rep.build(frozenset({"3"}))
    assert frozenset(frozenset(map(u24.vertex_label, m)) for m in label_faces(built)) == frozenset(
        {frozenset({(("3",), "+")}), frozenset({(("3",), "-")})}
    )


def test_build_top_is_empty(u24, u34, fano):
    for lattice in (u24, u34, fano):
        rep = rep_for(lattice)
        assert rep.build(lattice.top).is_empty


def test_maximal_face_count_invariant(u24, u34, bool3, fano, n134):
    for lattice in (u24, u34, bool3, fano, n134):
        rep = rep_for(lattice)
        for flat in lattice.flats:
            built = rep.build(flat)
            if flat == lattice.top:
                assert built.is_empty
            else:
                assert len(built.maximal_faces) == 2 ** lattice.corank(flat)
                coat = lattice.coat_above(flat)
                assert all(f.bit_count() == len(coat) for f in built.maximal_faces)
                assert built.support.bit_count() == 2 * len(coat)


def test_subcomplex_monotonicity(u34):
    rep = rep_for(u34)
    for g in u34.flats:
        for h in u34.flats:
            if g < h:
                assert is_subcomplex_of(rep.build(h), rep.build(g))


def test_no_face_holds_both_signs(u24, u34, fano):
    for lattice in (u24, u34, fano):
        rep = rep_for(lattice)
        for face in label_faces(rep.build(lattice.bottom)):
            coats = [v[0] for v in map(lattice.vertex_label, face)]
            assert len(set(coats)) == len(coats)


def test_sign_swap_free_for_every_flag(u24, u34, bool3, n134):
    for lattice in (u24, u34, bool3, n134):
        for flag in all_complete_flags(lattice):
            rep = FlagRepresentation(lattice, flag)
            amb = rep.build(lattice.bottom)
            assert z2_free_check(amb, swap_map(amb))


# -- sign vectors ---------------------------------------------------------------


def test_sigma_of(u24):
    rep = rep_for(u24)

    def sigma(vector, flat):
        return frozenset(map(u24.vertex_label, mask_vertices(rep.sigma(vector, flat))))

    assert sigma((1, 1), u24.bottom) == frozenset(
        {(("2",), "+"), (("3",), "+"), (("4",), "+"), (("1",), "+")}
    )
    assert sigma((0, 0), u24.bottom) == frozenset()
    assert sigma((1, 1), frozenset({"1"})) == frozenset({(("1",), "+")})


def test_sigma_sign_roundtrip(u34):
    rep = rep_for(u34)
    for flat in u34.flats:
        built = rep.build(flat)
        for face, vec in facet_signs(rep, built).items():
            assert mask_vertices(rep.sigma(vec, flat)) == face
            assert all(vec[part_of(rep)[frozenset(c)]] == (1 if s == "+" else -1) for c, s in map(u34.vertex_label, face))


def test_sigma_ignores_refinements_outside_support(u34):
    rep = rep_for(u34)
    flat = frozenset({"1", "2"})
    supp = support(rep, flat)
    assert supp == met(rep, flat) == (2,)
    assert rep.sigma((1, 1, 1), flat) == rep.sigma((0, 0, 1), flat)
    assert rep.sigma((1, -1, 1), flat) == rep.sigma((0, 0, 1), flat)


def test_support_examples(u24, u34):
    rep = rep_for(u24)
    assert support(rep, frozenset({"1"})) == met(rep, frozenset({"1"})) == (1,)
    assert support(rep, u24.bottom) == met(rep, u24.bottom) == (0, 1)
    rep34 = rep_for(u34)
    assert support(rep34, frozenset({"1", "2"})) == met(rep34, frozenset({"1", "2"})) == (2,)


def test_support_size_is_corank_and_join_criterion(u24, u34, n134, fano):
    for lattice in (u24, u34, n134, fano):
        rep = rep_for(lattice)
        flag = rep.flag
        for flat in lattice.flats:
            supp = support(rep, flat)
            assert supp == met(rep, flat)
            assert len(supp) == lattice.corank(flat)
            for i in range(lattice.r):
                strictly_grows = lattice.join(flat, flag[i]) < lattice.join(flat, flag[i + 1])
                assert (i in supp) == strictly_grows


def test_intersection_of_maximal_faces_is_sigma_of_meet(u24, u34, bool3):
    # the meet equation over every subset of maximal faces
    for lattice in (u24, u34, bool3):
        rep = rep_for(lattice)
        for flat in lattice.flats:
            built = rep.build(flat)
            signs = facet_signs(rep, built)
            faces = sorted_faces(built)
            for k in range(1, len(faces) + 1):
                for sub in combinations(faces, k):
                    meet = tuple(
                        a if len({signs[f][i] for f in sub}) == 1 else 0
                        for i, a in enumerate(signs[sub[0]])
                    )
                    assert frozenset.intersection(*sub) == mask_vertices(rep.sigma(meet, flat))


# -- intersection law -------------------------------------------------------------


def test_intersection_law_examples(u24, u34):
    rep = rep_for(u24)
    s1 = rep.build(frozenset({"1"}))
    s2 = rep.build(frozenset({"2"}))
    assert s1.intersection(s2).is_empty
    assert s1.intersection(s2) == rep.build(u24.join(frozenset({"1"}), frozenset({"2"})))
    assert rep.intersection_law_holds()
    rep34 = rep_for(u34)
    a, b = frozenset({"1"}), frozenset({"2"})
    inter = rep34.build(a).intersection(rep34.build(b))
    assert set(map(u34.vertex_label, used_vertices(inter))) == {(("1", "2"), "+"), (("1", "2"), "-")}


def test_intersection_law_exhaustive(u24, u34, bool3, n134, fano):
    for lattice in (u24, u34, bool3, n134, fano):
        assert rep_for(lattice).intersection_law_holds()


# -- arrangement ------------------------------------------------------------------


def test_arrangement_u24(u24):
    arr = rep_for(u24).arrangement()
    assert arr.ambient.support.bit_count() == 8
    assert len(arr.members) == 4
    assert all(m.support.bit_count() == 2 for _, m in arr.members)


def test_arrangement_rank1():
    lattice = uniform_matroid(1, 1)
    arr = rep_for(lattice).arrangement()
    assert arr.ambient.support.bit_count() == 2
    assert len(arr.ambient.maximal_faces) == 2
    assert len(arr.members) == 1
    assert arr.members[0][1].is_empty


def test_arrangement_fano(fano):
    arr = rep_for(fano).arrangement()
    assert arr.ambient.support.bit_count() == 14
    assert len(arr.ambient.maximal_faces) == 8
    assert all(f.bit_count() == 7 for f in arr.ambient.maximal_faces)
    assert len(arr.members) == 7


def test_verify_arrangement(u24, u34, fano):
    for lattice in (u24, u34, fano):
        rep = rep_for(lattice)
        report = verify_arrangement(rep.arrangement())
        assert report.ok, report.lines()


def test_arrangement_flats_roundtrip(u24, u34):
    for lattice in (u24, u34):
        arr = rep_for(lattice).arrangement()
        recovered = arrangement_flats(arr)
        assert verify_geometric(recovered).ok
        assert roundtrip_isomorphic(lattice, recovered)


def test_arrangement_flats_single_atom():
    lattice = uniform_matroid(1, 1)
    recovered = arrangement_flats(rep_for(lattice).arrangement())
    assert len(recovered.flats) == 2


def test_nerve_iso_every_flat(u24, u34, bool3, n134):
    for lattice in (u24, u34, bool3, n134):
        rep = rep_for(lattice)
        for flat in lattice.flats:
            assert rep.spheres[flat] and nerve_oracle(rep, flat, rep.build(flat))


def test_homology_every_flat(u24, bool3):
    for lattice in (u24, bool3):
        rep = rep_for(lattice)
        for flat in lattice.flats:
            built = rep.build(flat)
            assert reduced_homology(built) == sphere_profile(
                lattice.corank(flat) - 1
            )
