"""Nerve and carrier certificates by maximal vertex stars, checked against
enumeration of every facet or index subset, and run at sizes the
enumeration cannot reach."""

from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as st

from matroid_spheres import (
    FlagRepresentation,
    SimplicialComplex,
    build_covers,
    build_embedding,
    covectors_from_vectors,
    carrier_check,
    default_flag,
    is_homology_point,
    uniform_matroid,
    vector_config,
)
from matroid_spheres.topology import _generic_key, _intersections, cross_polytope_nerve_iso, full_simplex
from conftest import complex_of, frozen, image_masks, label_cover, label_faces, member_labels, sorted_faces
from conftest import FrozenComplex, nerve_oracle

DERANDOMIZED = settings(derandomize=True, database=None, max_examples=200, deadline=None)


# -- oracles: enumerate every subset --------------------------------------------


def meets(vectors, d):
    return any(len({v[i] for v in vectors}) == 1 for i in range(d))


def pattern_matches(maximal, assign, d):
    for k in range(1, len(maximal) + 1):
        for subset in combinations(maximal, k):
            if bool(frozenset.intersection(*subset)) != meets([assign[f] for f in subset], d):
                return False
    return True


def nerve_iso_oracle(complex_, d, face_signs):
    """The cross-polytope nerve test on all 2^(2^d) facet subsets."""
    complex_ = frozen(complex_)
    maximal = sorted(complex_.maximal_faces, key=complex_.face_key)
    if d == 0:
        return complex_.is_empty
    if complex_.is_empty or len(maximal) != 2 ** d:
        return False
    assign = {frozenset(f): tuple(s) for f, s in face_signs.items()}
    if set(assign) != set(maximal) or sorted(assign.values()) != sorted(product("+-", repeat=d)):
        return False
    return pattern_matches(maximal, assign, d)


def fold(complexes):
    acc = complexes[0]
    for c in complexes[1:]:
        acc = acc.intersection(c)
    return acc


def induced(ambient, vertices):
    """The member complex a vertex set stands for, on label faces, built
    independently of SimplicialComplex.restrict."""
    return FrozenComplex([f & vertices for f in label_faces(ambient)])


def carrier_oracle(vertex_images, a_cover, b_cover):
    """Pass/fail of each carrier check over every index subset, on member
    complexes intersected pairwise, and for the two subset checks every
    failure detail a witness may give."""
    a = {k: induced(a_cover.ambient, s) for k, s in member_labels(a_cover).items()}
    b = {k: induced(b_cover.ambient, s) for k, s in member_labels(b_cover).items()}
    keys = sorted(a, key=_generic_key)
    failures = {"intersections-contractible": set(), "nonemptiness-equivalence": set()}
    for size in range(1, len(keys) + 1):
        for subset in combinations(keys, size):
            ia = fold([a[k] for k in subset])
            ib = fold([b[k] for k in subset])
            if ia.is_empty != ib.is_empty:
                failures["nonemptiness-equivalence"].add(f"nonemptiness differs on {list(subset)}")
            for side, x in (("A", ia), ("B", ib)):
                if not x.is_empty and not is_homology_point(complex_of(x.maximal_faces)):
                    failures["intersections-contractible"].add(
                        f"{side}-intersection over {list(subset)} is not a homology point"
                    )
    maps_into = all(
        b[k].has_face(frozenset().union(*[frozenset(vertex_images[v]) for v in m]))
        for k in keys
        for m in a[k].maximal_faces
    )

    def covers(cover, members):
        union = FrozenComplex([f for m in members.values() for f in m.maximal_faces])
        return union == frozen(cover.ambient)

    passed = {
        "covering": covers(a_cover, a) and covers(b_cover, b),
        "intersections-contractible": not failures["intersections-contractible"],
        "nonemptiness-equivalence": not failures["nonemptiness-equivalence"],
        "maps-into-carrier": maps_into,
    }
    return passed, failures


# -- cross-polytope nerve: stars against the subset enumeration ------------------


def labelled_cross_polytope(d, perm, flips, blocks=None):
    """Boundary of the d-cross-polytope, its vertices optionally blown up into
    blocks of copies (as in S_G), with facet signs relabelled by a coordinate
    permutation and sign flips (so still a valid labelling)."""
    blocks = blocks or [1] * d
    faces, signs = [], {}
    for sigma in product("+-", repeat=d):
        face = frozenset((i, s, c) for i, s in enumerate(sigma) for c in range(blocks[i]))
        faces.append(face)
        relabel = tuple(sigma[perm[j]] for j in range(d))
        signs[face] = tuple(("-" if s == "+" else "+") if flips[j] else s
                            for j, s in enumerate(relabel))
    return complex_of(faces), signs


@st.composite
def nerve_cases(draw, max_d=3):
    d = draw(st.integers(1, max_d))
    perm = draw(st.permutations(range(d)))
    flips = draw(st.lists(st.booleans(), min_size=d, max_size=d))
    blocks = draw(st.lists(st.integers(1, 2), min_size=d, max_size=d))
    complex_, signs = labelled_cross_polytope(d, perm, flips, blocks)
    faces = sorted_faces(complex_)
    kind = draw(st.sampled_from(["true", "shuffle", "add", "drop", "merge", "random"]))
    labels = [signs[f] for f in faces]
    if kind == "shuffle":  # a wrong (or sometimes right) bijection
        labels = draw(st.permutations(labels))
    elif kind in ("add", "drop", "merge"):
        i = draw(st.integers(0, len(faces) - 1))
        verts = sorted(complex_.vertices)
        v = draw(st.sampled_from(verts))
        if kind == "add":
            faces[i] = faces[i] | {v}
        elif kind == "drop":  # a private vertex keeps the facet maximal
            faces[i] = faces[i] - {v} | {("private", i)}
        else:  # identify two vertices everywhere
            w = draw(st.sampled_from(verts))
            faces = [frozenset(w if x == v else x for x in f) for f in faces]
    elif kind == "random":
        n = draw(st.integers(2, 2 * d + 2))
        faces = [
            frozenset(draw(st.sets(st.integers(0, n - 1), max_size=n))) | {("private", j)}
            for j in range(2 ** d)
        ]
    complex_ = complex_of(faces)
    signs = dict(zip(faces, labels))
    return complex_, d, signs


@DERANDOMIZED
@given(nerve_cases())
def test_nerve_iso_matches_subset_enumeration(case):
    complex_, d, signs = case
    assert cross_polytope_nerve_iso(complex_, d, signs) == nerve_iso_oracle(complex_, d, signs)


@pytest.mark.parametrize("kind", ["true", "blown-up", "shuffled", "extra-vertex"])
def test_nerve_iso_matches_subset_enumeration_d4(kind):
    d = 4
    perm, flips = (2, 0, 3, 1), (True, False, False, True)
    complex_, signs = labelled_cross_polytope(d, perm, flips, [1, 2, 1, 3] if kind == "blown-up" else None)
    faces = sorted_faces(complex_)
    if kind == "shuffled":
        values = [signs[f] for f in faces]
        signs = dict(zip(faces, values[1:] + values[:1]))
    if kind == "extra-vertex":  # two antipodal facets now meet
        shared = ("shared",)
        a = faces[0]
        b = next(f for f in faces if not f & a)
        complex_ = complex_of([f | {shared} if f in (a, b) else f for f in faces])
        signs = {(f | {shared} if f in (a, b) else f): s for f, s in signs.items()}
    expected = nerve_iso_oracle(complex_, d, signs)
    assert expected == (kind in ("true", "blown-up"))
    assert cross_polytope_nerve_iso(complex_, d, signs) == expected


def test_nerve_iso_rejects_a_sign_map_that_is_not_a_bijection():
    complex_, signs = labelled_cross_polytope(2, (0, 1), (False, False))
    faces = sorted_faces(complex_)
    signs[faces[0]] = signs[faces[1]]
    assert not cross_polytope_nerve_iso(complex_, 2, signs)
    assert not nerve_iso_oracle(complex_, 2, signs)


def test_nerve_iso_rejects_three_of_four_halves():
    # a path of four edges: every maximal star is a half-space, but facets
    # ++ and +- share a sign and do not meet
    faces = {("+", "+"): {"a", "p"}, ("-", "+"): {"a", "b"}, ("-", "-"): {"b", "c"},
             ("+", "-"): {"c", "q"}}
    complex_ = complex_of(faces.values())
    signs = {frozenset(f): s for s, f in faces.items()}
    assert not nerve_iso_oracle(complex_, 2, signs)
    assert not cross_polytope_nerve_iso(complex_, 2, signs)


def test_ambient_nerve_of_u58():
    lattice = uniform_matroid(5, 8)
    rep = FlagRepresentation(lattice, default_flag(lattice))
    ambient = rep.build(lattice.bottom)
    assert len(ambient.maximal_faces) == 32
    assert rep.spheres[lattice.bottom] and nerve_oracle(rep, lattice.bottom, ambient)


# -- carrier check: stars and intersection closure against subsets --------------


@st.composite
def carrier_cases(draw):
    n = draw(st.integers(1, 5))
    keys = [("+", "-")[i % 2] * (1 + i // 2) for i in range(n)]
    facets = st.lists(st.sets(st.integers(0, 5), min_size=1, max_size=3), min_size=1, max_size=5)

    def vertex_sets(ambient):
        return [frozenset(draw(st.sets(st.sampled_from(ambient.vertices)))) for _ in keys]

    a_ambient = complex_of(draw(facets))
    a_sets = vertex_sets(a_ambient)
    if draw(st.booleans()):  # B is A relabelled: nerves agree, the map carries
        b_ambient = complex_of([{v + 10 for v in f} for f in label_faces(a_ambient)])
        b_sets = [frozenset(v + 10 for v in s) for s in a_sets]
        images = {v: {v + 10} for v in range(6)}
    else:
        b_ambient = complex_of([{v + 10 for v in f} for f in draw(facets)])
        b_sets = vertex_sets(b_ambient)
        images = {v: draw(st.sets(st.integers(10, 15), min_size=1, max_size=2)) for v in range(6)}
    if draw(st.booleans()):  # every member a simplex, as on the sphere side
        b_ambient = complex_of(s for s in b_sets)

    def cover(ambient, sets):
        if draw(st.booleans()):
            ambient = complex_of([*label_faces(ambient), [99]])  # not covered
        return label_cover(ambient, tuple(zip(keys, sets)))

    return images, cover(a_ambient, a_sets), cover(b_ambient, b_sets)


@DERANDOMIZED
@given(st.lists(st.sets(st.integers(0, 6), max_size=4).map(frozenset), min_size=1, max_size=6))
def test_intersections_are_every_subset_intersection(sets):
    expected = set()
    for size in range(1, len(sets) + 1):
        for subset in combinations(sets, size):
            if frozenset.intersection(*subset):
                expected.add(frozenset.intersection(*subset))
    found = _intersections(sets)
    assert set(found) == expected
    for x, mask in found.items():
        assert frozenset.intersection(*[s for i, s in enumerate(sets) if mask >> i & 1]) == x


@DERANDOMIZED
@given(carrier_cases())
def test_carrier_check_matches_subset_enumeration(case):
    images, a_cover, b_cover = case
    report = carrier_check(image_masks(images, b_cover.ambient), a_cover, b_cover)
    passed, failures = carrier_oracle(images, a_cover, b_cover)
    assert {c.name: c.passed for c in report.checks} == passed
    for name, details in failures.items():
        if details:
            assert report[name].detail in details
        else:
            assert report[name].detail == ""


def test_carrier_check_reports_its_own_witness():
    # A-members p and q are paths around a square meeting in two opposite
    # corners; p and r meet on the B side only
    a = label_cover(
        complex_of([[0, 1], [1, 2], [2, 3], [3, 0], [4]]),
        (("p", {0, 1, 2}), ("q", {2, 3, 0}), ("r", {4})),
    )
    b = label_cover(full_simplex([5, 6]), (("p", {5, 6}), ("q", {6}), ("r", {5})))
    report = carrier_check(image_masks({0: {6}, 1: {5}, 2: {6}, 3: {6}, 4: {5}}, b.ambient), a, b)
    assert report["intersections-contractible"].detail == (
        "A-intersection over ['p', 'q'] is not a homology point"
    )
    assert report["nonemptiness-equivalence"].detail == "nonemptiness differs on ['p', 'r']"
    assert not report["intersections-contractible"].passed
    assert not report["nonemptiness-equivalence"].passed
    assert report["covering"].passed and report["maps-into-carrier"].passed


def test_carrier_check_sixteen_members_rank4():
    cfg = vector_config([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    emb = build_embedding(covectors_from_vectors(cfg))
    a_cover, b_cover = build_covers(emb, frozenset())
    assert len(a_cover.members) == 16
    report = carrier_check(emb.images, a_cover, b_cover)
    assert report.ok, report.lines()
    # every index subset is covered with no bound, so no line reports one
    assert [c.name for c in report.checks] == [
        "covering", "intersections-contractible", "nonemptiness-equivalence", "maps-into-carrier"]
