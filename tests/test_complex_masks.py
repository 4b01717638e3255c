"""``SimplicialComplex`` on int facet masks against ``FrozenComplex``, the
label-face form it replaced: faces, restriction, faces of the complex,
intersection, every face and reduced homology agree, on random complexes
with str, int and tuple labels and on every S_G of the data lattices."""

from hypothesis import given, settings, strategies as st

from matroid_spheres import SimplicialComplex, all_complete_flags, reduced_homology
from matroid_spheres.spheres import FlagRepresentation
from matroid_spheres.topology import all_faces, label_masker
from conftest import (
    FrozenComplex,
    cross_polytope_oracle,
    data_matroids,
    face_homology_oracle,
    face_labels,
    frozen,
    held_parts,
    label_faces,
    vertex_mask,
)

DERANDOMIZED = settings(derandomize=True, database=None, max_examples=200, deadline=None)

LABELS = {
    "int": list(range(8)),
    "str": list("abcdefgh"),
    "tuple": [(i % 3, "+-"[i % 2]) for i in range(6)] + [((0, 1), "+"), ((), "-")],
}


@st.composite
def labelled_complexes(draw):
    """A FrozenComplex on one kind of label, and the same faces as masks over
    a drawn vertex tuple: every label in some order, unused ones included."""
    labels = LABELS[draw(st.sampled_from(sorted(LABELS)))]
    faces = draw(st.lists(st.sets(st.sampled_from(labels), max_size=4), max_size=7))
    vertices = tuple(draw(st.permutations(labels)))
    mask = label_masker(vertices)
    return FrozenComplex(faces), SimplicialComplex(vertices, map(mask, faces)), labels


@DERANDOMIZED
@given(labelled_complexes(), st.data())
def test_mask_complex_matches_the_label_complex(case, data):
    fc, c, labels = case
    mask = label_masker(c.vertices)
    assert label_faces(c) == fc.maximal_faces
    assert c.is_empty == fc.is_empty
    assert {face_labels(c, f) for f in all_faces(c)} == set(fc.all_faces())
    assert len(all_faces(c)) == len(fc.all_faces())
    keep = data.draw(st.sets(st.sampled_from(labels)))
    assert label_faces(c.restrict(mask(keep))) == fc.restrict(keep).maximal_faces
    probe = data.draw(st.sets(st.sampled_from(labels + ["outside"]), max_size=4))
    assert c.has_face(mask(probe)) == fc.has_face(probe)
    for m in fc.maximal_faces:
        assert c.has_face(mask(m)) and fc.has_face(m)
    assert reduced_homology(c).dims == face_homology_oracle(fc_as_masks(fc)).dims


def fc_as_masks(fc):
    """The FrozenComplex on its own vertex tuple, for the homology oracle."""
    mask = label_masker(fc.vertices)
    return SimplicialComplex(fc.vertices, map(mask, fc.maximal_faces))


@DERANDOMIZED
@given(labelled_complexes(), st.data())
def test_intersection_matches_across_vertex_tuples(case, data):
    fc, c, labels = case
    other = data.draw(st.lists(st.sets(st.sampled_from(labels), max_size=4), max_size=7))
    vertices = tuple(data.draw(st.permutations(labels)))[: data.draw(st.integers(0, len(labels)))]
    # a face with a label outside the other's vertex tuple still meets c
    d = SimplicialComplex(vertices, [label_masker(vertices)(f) for f in other if set(f) <= set(vertices)])
    fd = FrozenComplex([f for f in other if set(f) <= set(vertices)])
    assert label_faces(c.intersection(d)) == fc.intersection(fd).maximal_faces
    assert (c.intersection(d) == d.intersection(c)) is True
    assert (c == d) == (fc == fd)


@DERANDOMIZED
@given(labelled_complexes(), st.data())
def test_equality_reads_faces_not_vertex_order(case, data):
    fc, c, labels = case
    vertices = tuple(data.draw(st.permutations(labels)))
    same = SimplicialComplex(vertices, map(label_masker(vertices), fc.maximal_faces))
    assert same == c and c == same and hash(same) == hash(c)
    used = tuple(v for v in vertices if any(v in m for m in fc.maximal_faces))
    trimmed = SimplicialComplex(used, map(label_masker(used), fc.maximal_faces))
    assert trimmed == c and hash(trimmed) == hash(c)
    if fc.maximal_faces:
        fewer = SimplicialComplex(vertices, map(label_masker(vertices), list(fc.maximal_faces)[1:]))
        assert fewer != c


def every_s_g():
    """(name, representation, flat, S_G) for every flag of every data matroid."""
    for name, lattice in sorted(data_matroids().items()):
        for flag in all_complete_flags(lattice):
            rep = FlagRepresentation(lattice, flag)
            for flat in lattice.flats:
                yield name, rep, flat, rep.build(flat)


def test_every_s_g_matches_its_label_complex():
    seen = 0
    for name, rep, flat, built in every_s_g():
        lattice = rep.lattice
        coat = set(lattice.coat_above(flat))
        blocks = tuple(tuple(c for c in block if c in coat) for block in held_parts(rep))
        fc = FrozenComplex(cross_polytope_oracle(lattice, blocks))
        assert label_faces(built) == fc.maximal_faces, (name, sorted(flat))
        assert built.vertices == rep.vertices  # position v is signed vertex v
        assert {face_labels(built, f) for f in all_faces(built)} == set(fc.all_faces())
        for h in lattice.flats:
            v_h = rep.masks[h]
            assert label_faces(built.restrict(v_h)) == fc.restrict(face_labels(built, v_h)).maximal_faces
            assert label_faces(built.intersection(rep.build(h))) == \
                fc.intersection(frozen(rep.build(h))).maximal_faces
        for m in fc.maximal_faces:
            for v in m:
                probe = m - {v} | {v ^ 1}  # v with its sign swapped
                assert built.has_face(vertex_mask(probe)) == fc.has_face(probe)
        assert reduced_homology(built).dims == face_homology_oracle(built).dims, (name, sorted(flat))
        seen += 1
    assert seen >= 600
