"""The per-lattice signed vertices and the block construction of S_G,
against the vertex-by-vertex constructions kept in ``conftest.py``.

``FlagRepresentation`` finds the coatom blocks in one pass, numbers each
signed vertex by the lattice's ``coatom_index`` and builds every maximal
face as a union of per-block vertex sets; ``SimplicialComplex.has_face`` looks a face
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
    uniform_matroid,
)
from matroid_spheres.jsonio import signed_complex_to_json
from matroid_spheres.spheres import atom_label
from matroid_spheres.topology import label_masker
from conftest import complex_of, label_faces, mask_vertices, used_vertices
from conftest import (
    blocks_oracle,
    boolean_matroid,
    coatom_positions,
    cross_polytope_oracle,
    data_matroids,
    face_oracle,
    has_face_oracle,
    held_parts,
    parts_oracle,
    signed_coatoms,
    slots_oracle,
    swap_sign,
    vertex_mask,
    vertex_table,
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
        assert held_parts(rep) == blocks_oracle(lattice, rep.flag), (name, rep.flag.chain)


def test_slot_and_halves_match_the_constructor_oracles(lattices):
    # every flag of the tests/data matroids, B_4, Fano, B_5 and U(4,7)
    more = {"B_5": boolean_matroid("abcde"), "U(4,7)": uniform_matroid(4, 7)}
    counts = {}
    for name, lattice in {**lattices, **more}.items():
        table = vertex_table(lattice)
        for flag in all_complete_flags(lattice):
            rep = FlagRepresentation(lattice, flag)
            slots = sorted(slots_oracle(lattice, flag))
            assert [v for v, _ in slots] == list(rep.vertices), (name, flag.chain)  # each vertex once
            assert rep.slot == tuple(h for _, h in slots), (name, flag.chain)
            assert rep.halves == tuple(tuple(sum(1 << table[c][s] for c in block) for s in "+-")
                                       for block in parts_oracle(lattice, flag)), (name, flag.chain)
            counts[name] = counts.get(name, 0) + 1
    assert (counts["B_5"], counts["U(4,7)"]) == (120, 210)


def blocks_over(rep, flat):
    """The coatoms of each block that lie above the flat."""
    coat = set(rep.lattice.coat_above(flat))
    return tuple(tuple(c for c in block if c in coat) for block in held_parts(rep))


def test_cross_polytope_and_sigma_match_oracle(lattices):
    for name, lattice, rep in every_flag(lattices):
        for flat in lattice.flats:
            blocks = blocks_over(rep, flat)
            built = rep.construct(flat)
            want = cross_polytope_oracle(lattice, blocks)
            assert built.vertices == rep.vertices  # position v is signed vertex v
            assert label_faces(built) == set(want) - {frozenset()}, (name, sorted(flat))
            for face, vec in want.items():
                assert mask_vertices(rep.sigma(vec, flat)) == face == face_oracle(lattice, vec, blocks)
        # a retraction's polytope, one coatom per block, read off its + bits
        chosen = [(block[-1],) for block in held_parts(rep)]
        plus = sum(1 << 2 * k for k in coatom_positions(lattice, [c for c, in chosen]))
        s_0 = rep.build(lattice.bottom)
        assert rep.apart(plus) is all(has_face_oracle(s_0, f) for f in cross_polytope_oracle(lattice, chosen))


def test_apart_matches_the_facet_scan_on_every_r_subset(lattices):
    # apart reads, off their + bits, whether every sign choice over r
    # coatoms is a face of S_0: for every r coatoms, not only one per block
    subsets = inside = 0
    for name, lattice, rep in every_flag(lattices):
        s_0 = rep.build(lattice.bottom)
        for chosen in combinations(lattice.coatoms(), lattice.r):
            plus = sum(1 << 2 * k for k in coatom_positions(lattice, chosen))
            facets = cross_polytope_oracle(lattice, [(c,) for c in chosen])
            assert rep.apart(plus) is all(has_face_oracle(s_0, f) for f in facets), (name, chosen)
            subsets, inside = subsets + 1, inside + rep.apart(plus)
    assert (subsets, inside) == (1800, 468)


def test_signed_vertices_are_per_lattice_labels(lattices):
    # the label table that the ints replaced renders every vertex
    for name, lattice in lattices.items():
        flags = all_complete_flags(lattice)
        first, last = FlagRepresentation(lattice, flags[0]), FlagRepresentation(lattice, flags[-1])
        table, labels = vertex_table(lattice), signed_coatoms(lattice)
        for c in lattice.coatoms():
            for s in "+-":
                v = first.vertex(c, s)
                assert v == table[c][s] == last.vertex(c, s)  # one numbering per lattice, shared by its flags
                assert lattice.vertex_label(v) == labels[c][s] == (lattice.sorted_elements(c), s), name
            assert swap_sign(first.vertex(c, "+")) == first.vertex(c, "-")
        for a in lattice.atoms():
            assert atom_label(lattice, a) == ",".join(lattice.sorted_elements(a))


def test_s_0_json_renders_vertices_by_the_label_table(lattices):
    for name, lattice, rep in every_flag(lattices):
        labels = signed_coatoms(lattice)
        label = {v: labels[c][s] for c, pm in vertex_table(lattice).items() for s, v in pm.items()}
        for flat in (lattice.bottom, *lattice.atoms()):  # S_G uses only V_G of its positions
            built = rep.build(flat)
            used = used_vertices(built)
            want = {"vertices": [{"coatom": list(label[v][0]), "sign": label[v][1]} for v in used],
                    "maximal_faces": sorted(sorted(map(used.index, m)) for m in label_faces(built))}
            assert signed_complex_to_json(lattice, built) == want, name


def test_vertex_bits_and_halves_match_the_built_s_0(lattices):
    # one numbering per lattice, in key order; each block's two halves
    # read it, vertex by vertex, and decide the faces of S_0
    for name, lattice, rep in every_flag(lattices):
        table = vertex_table(lattice)
        assert lattice.coatom_index == {c: pm["+"] // 2 for c, pm in table.items()}
        assert rep.halves == tuple(
            tuple(sum(1 << table[c][s] for c in block) for s in "+-")
            for block in blocks_oracle(lattice, rep.flag))
        s0 = rep.build(lattice.bottom)
        assert rep.join_holds
        assert all(rep.is_face(vertex_mask(f)) == has_face_oracle(s0, f)
                   for k in (1, 2, 3) for f in combinations(s0.vertices, k)), name


def test_built_complexes_keep_vertex_order(lattices):
    for name, lattice, rep in every_flag(lattices):
        for flat in lattice.flats:
            built = rep.build(flat)
            want = [vertex_table(lattice)[c][s]
                    for c in sorted(lattice.coat_above(flat), key=lattice.key) for s in "+-"]
            assert list(used_vertices(built)) == want, (name, sorted(flat))


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
    return {rep.vertex(c, s) for c in rep.lattice.coat_above(flat) for s in "+-"}


def test_every_s_g_is_induced_in_s_0(lattices, u34):
    reps = [FlagRepresentation(lattice, default_flag(lattice))
            for lattice in data_matroids().values()]
    for lattice in (u34, lattices["B_4"]):
        reps += [FlagRepresentation(lattice, flag) for flag in all_complete_flags(lattice)]
    for rep in reps:
        s_0 = rep.build(rep.lattice.bottom)
        for flat in rep.lattice.flats:
            induced = s_0.restrict(vertex_mask(signed_vertices(rep, flat)))
            assert rep.build(flat) == induced, (rep.flag.chain, sorted(flat))


# -- has_face -------------------------------------------------------------------


def probe_faces(complex_):
    """Maximal faces, their facets, sign-mixed sets, the empty face and a
    vertex of no complex here."""
    outside = (("zz",), "+")
    yield frozenset()
    yield frozenset({outside})
    for m in label_faces(complex_):
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
            mask = label_masker(complex_.vertices)
            for face in probe_faces(complex_):
                assert complex_.has_face(mask(face)) == has_face_oracle(complex_, face), (name, face)


def test_has_face_on_the_empty_complex():
    empty = complex_of([])
    assert empty.has_face(0)
    assert not empty.has_face(label_masker(empty.vertices)({0}))
    assert has_face_oracle(empty, set()) and not has_face_oracle(empty, {0})


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(
    st.lists(st.frozensets(st.integers(0, 6), max_size=5), max_size=10),
    st.frozensets(st.integers(0, 8), max_size=6),
)
def test_has_face_matches_scan(faces, face):
    # vertices 7 and 8 lie in no complex; the empty list is the empty complex
    complex_ = complex_of(faces)
    mask = label_masker(complex_.vertices)(face)
    assert complex_.has_face(mask) == has_face_oracle(complex_, face)
    for m in complex_.maximal_faces:
        assert complex_.has_face(m) and complex_.has_face(m & mask)
