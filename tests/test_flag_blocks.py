"""The per-lattice signed vertices and the block construction of S_G,
against the vertex-by-vertex constructions kept in ``conftest.py``.

``FlagRepresentation`` finds the coatom blocks in one pass, reads each
signed vertex from the lattice's table and builds every maximal face as a
union of per-block vertex sets; ``SimplicialComplex.has_face`` looks a face
up among the maximal faces before it scans them.  Each is compared with
its oracle on every flat and every complete flag of the tests/data
matroids, B_4 and Fano.
"""

from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from matroid_spheres import (
    Flag,
    FlagRepresentation,
    GeometricLattice,
    SimplicialComplex,
    all_complete_flags,
    default_flag,
)
from matroid_spheres.spheres import SIGNS, _cross_polytope, _vertex_order, atom_label
from conftest import (
    blocks_oracle,
    boolean_matroid,
    cross_polytope_oracle,
    data_matroids,
    face_oracle,
    has_face_oracle,
    swap_sign,
)


@pytest.fixture(scope="module")
def lattices(fano):
    out = data_matroids()
    out["B_4"] = boolean_matroid("abcd")
    out["fano"] = fano
    return out


def every_flag(lattices):
    for name, lattice in lattices.items():
        for flag in all_complete_flags(lattice):
            yield name, lattice, FlagRepresentation(lattice, flag)


def test_blocks_match_oracle(lattices):
    for name, lattice, rep in every_flag(lattices):
        assert rep.parts == blocks_oracle(lattice, rep.flag), (name, rep.flag.chain)


def test_cross_polytope_and_sigma_match_oracle(lattices):
    for name, lattice, rep in every_flag(lattices):
        for flat in lattice.flats:
            blocks = rep._blocks_over(flat)
            got = _cross_polytope(lattice, blocks)
            want = cross_polytope_oracle(lattice, blocks)
            # same faces in the same order
            assert got == list(want), (name, sorted(flat))
            for face, vec in want.items():
                assert rep.sigma(vec, flat) == face == face_oracle(lattice, vec, blocks)
        # the retraction's polytope: one coatom per block
        chosen = [(block[-1],) for block in rep.parts]
        assert _cross_polytope(lattice, chosen) == list(cross_polytope_oracle(lattice, chosen))


def test_signed_vertices_are_per_lattice_labels(lattices):
    for name, lattice in lattices.items():
        flags = all_complete_flags(lattice)
        first, last = FlagRepresentation(lattice, flags[0]), FlagRepresentation(lattice, flags[-1])
        coatoms = lattice.coatoms()
        for c in coatoms:
            for s in SIGNS:
                v = first.vertex(c, s)
                assert v == (lattice.sorted_elements(c), s)
                assert last.vertex(c, s) is v  # one label per lattice, shared by its flags
            assert swap_sign(first.vertex(c, "+")) == first.vertex(c, "-")
        for k in range(len(coatoms) + 1):
            for sub in combinations(reversed(coatoms), k):
                want = [(lattice.sorted_elements(c), s)
                        for c in sorted(sub, key=lattice.key) for s in SIGNS]
                assert _vertex_order(lattice, sub) == want, (name, k)
        for a in lattice.atoms():
            assert atom_label(lattice, a) == ",".join(lattice.sorted_elements(a))


def test_signed_bits_and_halves_match_the_built_s_0(lattices):
    # one bit table per lattice, in the vertex order of every coatom; each
    # block's two halves read it, vertex by vertex, and decide the faces of S_0
    for name, lattice, rep in every_flag(lattices):
        order = _vertex_order(lattice, lattice.coatoms())
        assert lattice.signed_bits == {v: 1 << i for i, v in enumerate(order)}
        assert rep.halves == tuple(
            tuple(rep.mask(frozenset(rep.vertex(c, s) for c in block)) for s in SIGNS)
            for block in rep.parts)
        s0 = rep.build(lattice.bottom)
        assert rep.join_holds
        assert all(rep.is_face(rep.mask(f)) == has_face_oracle(s0, f)
                   for k in (1, 2, 3) for f in combinations(s0.vertices, k)), name


def test_built_complexes_keep_vertex_order(lattices):
    for name, lattice, rep in every_flag(lattices):
        for flat in lattice.flats:
            built = rep.build(flat)
            want = [(lattice.sorted_elements(c), s)
                    for c in sorted(lattice.coat_above(flat), key=lattice.key) for s in SIGNS]
            assert list(built.vertices) == want, (name, sorted(flat))


def test_block_errors_kept():
    # a chain of flats only: every coatom lies above F_1, so block 0 is empty
    chain = [frozenset(), frozenset("1"), frozenset("12"), frozenset("123")]
    lattice = GeometricLattice("123", chain)
    with pytest.raises(ValueError, match="empty coatom block at position 0"):
        FlagRepresentation(lattice, Flag(tuple(chain)))
    # coatom {d} does not lie above F_0 = {a}
    flats = {frozenset("a"): 0, frozenset("ab"): 1, frozenset("ac"): 1, frozenset("d"): 1,
             frozenset("abcd"): 2}
    lattice = GeometricLattice("abcd", flats, flats)
    with pytest.raises(ValueError, match="do not partition"):
        FlagRepresentation(lattice, Flag((frozenset("a"), frozenset("ab"), frozenset("abcd"))))


# -- S_G is induced in S_0 ------------------------------------------------------


def signed_vertices(rep, flat):
    """V_G: the signed vertices of coat(G)."""
    return {rep.vertex(c, s) for c in rep.lattice.coat_above(flat) for s in SIGNS}


def test_every_s_g_is_induced_in_s_0(lattices, u34):
    reps = [FlagRepresentation(lattice, default_flag(lattice))
            for lattice in data_matroids().values()]
    for lattice in (u34, lattices["B_4"]):
        reps += [FlagRepresentation(lattice, flag) for flag in all_complete_flags(lattice)]
    for rep in reps:
        s_0 = rep.build(rep.lattice.bottom)
        for flat in rep.lattice.flats:
            induced = s_0.restrict(signed_vertices(rep, flat))
            assert rep.build(flat) == induced, (rep.flag.chain, sorted(flat))


# -- has_face -------------------------------------------------------------------


def probe_faces(complex_):
    """Maximal faces, their facets, sign-mixed sets, the empty face and a
    vertex of no complex here."""
    outside = (("zz",), "+")
    yield frozenset()
    yield frozenset({outside})
    for m in complex_.maximal_faces:
        yield m
        yield m | {outside}
        for v in m:
            yield m - {v}
            yield (m - {v}) | {swap_sign(v)}
            yield frozenset({v, swap_sign(v)})


def test_has_face_matches_scan_on_every_s_g(lattices):
    for name, lattice, rep in every_flag(lattices):
        for flat in lattice.flats:
            complex_ = rep.build(flat)
            for face in probe_faces(complex_):
                assert complex_.has_face(face) == has_face_oracle(complex_, face), (name, face)


def test_has_face_on_the_empty_complex():
    empty = SimplicialComplex([])
    assert empty.has_face(set())
    assert not empty.has_face({0})
    assert has_face_oracle(empty, set()) and not has_face_oracle(empty, {0})


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(
    st.lists(st.frozensets(st.integers(0, 6), max_size=5), max_size=10),
    st.frozensets(st.integers(0, 8), max_size=6),
)
def test_has_face_matches_scan(faces, face):
    # vertices 7 and 8 lie in no complex; the empty list is the empty complex
    complex_ = SimplicialComplex(faces)
    assert complex_.has_face(face) == has_face_oracle(complex_, face)
    assert complex_.has_face(list(face)) == complex_.has_face(face)
    for m in complex_.maximal_faces:
        assert complex_.has_face(m) and complex_.has_face(m & face)
