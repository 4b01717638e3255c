"""`om embed`'s carrier certificate against the route it replaced.

The library gives each cover member by its vertex mask over one
ambient's positions and intersects masks.  The oracle here is the
complex-based route: every member built as its own complex (the order
complex of A_vec, the full simplex on sigma(vec, G)), intersections taken
pairwise by maximal-face meets.  The two must give the same report on every flat, also when the
image map is mutated so that the certificate fails.
"""

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import assume, given, settings, strategies as st

from matroid_spheres import (
    build_covers,
    build_embedding,
    carrier_check,
    covector_flat,
    covectors_from_vectors,
    vector_config,
    verify_embedding,
)
from matroid_spheres.linalg import rank_q
from matroid_spheres.oriented import Embedding, neg
from matroid_spheres.topology import _bits, full_simplex
from matroid_spheres.jsonio import load_vector_config_file
from conftest import complex_of, mask_vertices
from conftest import DATA, cov_leq, delta_complex, embedding_face_lines_oracle, maps_into_carrier_oracle
from conftest import carrier_report_oracle, image_masks, label_cover, sign_vector

DERANDOMIZED = settings(derandomize=True, database=None, max_examples=200, deadline=None)

# the fixed configurations of the benchmark's embed ladder
EMBED_LADDER = {
    "u24": [[1, 0], [0, 1], [1, 1], [1, -1]],
    "u34": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]],
    "n134": [[1, 0, 0], [0, 0, 1], [0, 1, 0], [1, 1, 0]],
    "non-Fano": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 0], [1, 0, 1], [0, 1, 1], [1, 1, 1]],
}


# -- the oracle: member complexes, pairwise meets --------------------------------


def complex_covers(emb, flat):
    """(A ambient, A members, B ambient, B members), each member its own
    complex, built from the embedding's image table read as vertex sets."""
    n = len(emb.cs.elements)
    covs = covector_flat(emb.cs, flat)[1:]
    a_members, b_members = {}, {}
    for vec in product((1, -1), repeat=emb.lattice.r):
        key = tuple("+" if s > 0 else "-" for s in vec)
        carrier = mask_vertices(emb.rep.sigma(vec, flat))
        a_members[key] = delta_complex([x for x in covs if mask_vertices(emb.images[x]) <= carrier], n)
        b_members[key] = full_simplex(carrier)
    return delta_complex(covs, n), a_members, emb.rep.build(flat), b_members


def complex_carrier_report(emb, flat):
    """Each carrier check's (passed, detail) on the complex-based route."""
    return carrier_report_oracle(*complex_covers(emb, flat), vertex_sets(emb.images))


def library_carrier_report(emb, flat):
    a_cover, b_cover = build_covers(emb, flat)
    report = carrier_check(emb.images, a_cover, b_cover)
    return {c.name: (c.passed, c.detail) for c in report.checks}


# -- embeddings and mutated image maps -----------------------------------------------

_EMBEDDINGS = {}


def ladder_embedding(name):
    if name not in _EMBEDDINGS:
        cfg = vector_config(EMBED_LADDER[name])
        _EMBEDDINGS[name] = build_embedding(covectors_from_vectors(cfg))
    return _EMBEDDINGS[name]


def vertex_sets(images):
    """Each image mask as its set of signed vertices, which are the B
    ambient's labels."""
    return {x: mask_vertices(m) for x, m in images.items()}


def with_images(emb, images):
    """A copy of the embedding whose image table is replaced; its posets
    and order complexes are shared with the original."""
    mutant = Embedding(emb.cs, emb.lattice, emb.flag, emb.rep, emb.pivots)
    vars(mutant).update(images=images, _posets=emb._posets, _deltas=emb._deltas)
    return mutant


@st.composite
def configurations(draw):
    """Integer vector configurations of rank 1 to 3, full rank."""
    r = draw(st.integers(1, 3))
    n = draw(st.integers(r, 5))
    column = st.lists(st.integers(-2, 2), min_size=r, max_size=r).filter(any)
    cols = draw(st.lists(column, min_size=n, max_size=n))
    assume(rank_q([[Fraction(x) for x in c] for c in cols]) == r)
    return vector_config(cols)


@st.composite
def mutations(draw, emb):
    """One to three changes to the image table: an image swapped for its
    negative's, joined with another image, or truncated to its lowest
    vertices."""
    images = dict(emb.images)
    nonzero = emb.cs.nonzero()
    n = len(emb.cs.elements)
    changes = []
    for _ in range(draw(st.integers(1, 3))):
        x = draw(st.sampled_from(nonzero))
        kind = draw(st.sampled_from(["negative", "union", "truncate"]))
        if kind == "negative":
            images[x] = images[neg(x, n)]
        elif kind == "union":
            y = draw(st.sampled_from(nonzero))
            images[x] = images[x] | images[y]
            x = (x, y)
        else:
            ordered = list(_bits(images[x]))
            images[x] = sum(1 << v for v in ordered[: draw(st.integers(1, len(ordered)))])
        changes.append((kind, x))
    return images, tuple(changes)


# -- the tests ------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(EMBED_LADDER))
def test_embed_ladder_matches_complex_route(name):
    emb = ladder_embedding(name)
    for flat in emb.lattice.flats:
        report = library_carrier_report(emb, flat)
        assert report == complex_carrier_report(emb, flat), sorted(flat)
        assert all(passed for passed, _ in report.values())


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(configurations())
def test_random_rank3_configurations_match_complex_route(cfg):
    emb = build_embedding(covectors_from_vectors(cfg))
    for flat in emb.lattice.flats:
        report = library_carrier_report(emb, flat)
        assert report == complex_carrier_report(emb, flat), sorted(flat)
        assert all(passed for passed, _ in report.values())


def test_mutated_image_maps_match_complex_route():
    seen = {}  # (configuration, flat, changes) -> carrier verdict

    @DERANDOMIZED
    @given(st.data())
    def check(data):
        name = data.draw(st.sampled_from(sorted(EMBED_LADDER)))
        emb = ladder_embedding(name)
        flats = sorted(emb.lattice.flats, key=emb.lattice.key)
        flat = data.draw(st.sampled_from(flats[:-1]))  # the top flat has no covers
        images, changes = data.draw(mutations(emb))
        mutant = with_images(emb, images)
        report = library_carrier_report(mutant, flat)
        assert report == complex_carrier_report(mutant, flat)
        seen[name, flat, changes] = all(passed for passed, _ in report.values())

    check()
    assert len(seen) >= 150
    verdicts = list(seen.values())
    assert verdicts.count(False) >= 10 and verdicts.count(True) >= 10


# -- the sign-mask order against the pairwise conformal order --------------------


def assert_deltas_match_pairwise_order(emb):
    for flat in emb.lattice.flats:
        covs = covector_flat(emb.cs, flat)[1:]
        assert emb.delta(flat) == delta_complex(covs, len(emb.cs.elements)), sorted(flat)
        a_cover, _ = build_covers(emb, flat)
        assert a_cover.poset is emb.poset(flat)


@pytest.mark.parametrize("name", sorted(EMBED_LADDER))
def test_embed_ladder_deltas_match_pairwise_order(name):
    assert_deltas_match_pairwise_order(ladder_embedding(name))


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(configurations())
def test_random_rank3_deltas_match_pairwise_order(cfg):
    assert_deltas_match_pairwise_order(build_embedding(covectors_from_vectors(cfg)))


def test_order_preserving_on_covers_matches_every_pair():
    verdicts = []

    @settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @given(st.data())
    def check(data):
        emb = ladder_embedding(data.draw(st.sampled_from(sorted(EMBED_LADDER))))
        images, _ = data.draw(mutations(emb))
        n = len(emb.cs.elements)
        signs = {x: sign_vector(x, n) for x in emb.cs.nonzero()}
        every_pair = all(
            images[x] & ~images[y] == 0 for x in signs for y in signs if x != y and cov_leq(signs[x], signs[y])
        )
        report = verify_embedding(with_images(emb, images))
        assert report["order-preserving"].passed == every_pair
        verdicts.append(every_pair)

    check()
    assert verdicts.count(True) >= 5 and verdicts.count(False) >= 5


# -- verify_embedding's face lines on masks against the facet scans ------------------


def test_mask_face_lines_match_the_facet_scans():
    verdicts = []

    @settings(derandomize=True, database=None, max_examples=100, deadline=None)
    @given(st.data())
    def check(data):
        emb = ladder_embedding(data.draw(st.sampled_from(sorted(EMBED_LADDER))))
        images, _ = data.draw(mutations(emb))
        mutant = with_images(emb, images)
        report = verify_embedding(mutant)
        oracle = embedding_face_lines_oracle(mutant)
        assert {line: report[line].passed for line in oracle} == oracle
        verdicts.append(tuple(oracle.values()))

    check()
    for name in sorted(EMBED_LADDER):
        assert all(embedding_face_lines_oracle(ladder_embedding(name)).values())
    # each line both passes and fails on some mutant
    for i in range(3):
        assert {v[i] for v in verdicts} == {True, False}


# -- maps-into-carrier on M & a against the restrict route ----------------------------


def data_embedding(path):
    return build_embedding(covectors_from_vectors(load_vector_config_file(path)))


@pytest.mark.parametrize("path", sorted(DATA.glob("*_vec.json")), ids=lambda p: p.stem)
def test_maps_into_carrier_matches_restrict_route(path):
    emb = data_embedding(path)
    for flat in emb.lattice.flats:
        a_cover, b_cover = build_covers(emb, flat)
        line = carrier_check(emb.images, a_cover, b_cover)["maps-into-carrier"]
        assert line.passed and maps_into_carrier_oracle(vertex_sets(emb.images), a_cover, b_cover), sorted(flat)


def test_maps_into_carrier_on_a_member_that_is_not_a_face():
    # B's member {0, 1, 2} is a path in the boundary of a square, not a face,
    # so each M & a is mapped on its own: the path's two edges pass though
    # their union is no face, while the diagonal {0, 2} or a vertex outside
    # the member fails
    square = complex_of([[0, 1], [1, 2], [2, 3], [3, 0]])
    a_cover = label_cover(complex_of([["x", "y"], ["y", "z"]]), (("k", "xyz"),))
    b_cover = label_cover(square, (("k", {0, 1, 2}),))
    for images, expected in (({"x": {0}, "y": {1}, "z": {2}}, True),
                             ({"x": {0}, "y": {2}, "z": {1}}, False),
                             ({"x": {0}, "y": {1}, "z": {3}}, False)):
        passed = carrier_check(image_masks(images, square), a_cover, b_cover)["maps-into-carrier"].passed
        assert passed is expected
        assert maps_into_carrier_oracle(images, a_cover, b_cover) is expected


def test_mutated_images_fail_both_maps_into_carrier_routes():
    # the covers stay those of the embedding; only the images handed to the
    # check are mutated, so a moved image can leave its carrier
    verdicts = []

    @DERANDOMIZED
    @given(st.data())
    def check(data):
        name = data.draw(st.sampled_from(sorted(EMBED_LADDER)))
        emb = ladder_embedding(name)
        flat = data.draw(st.sampled_from(sorted(emb.lattice.flats, key=emb.lattice.key)[:-1]))
        images, _ = data.draw(mutations(emb))
        a_cover, b_cover = build_covers(emb, flat)
        passed = carrier_check(images, a_cover, b_cover)["maps-into-carrier"].passed
        assert passed == maps_into_carrier_oracle(vertex_sets(images), a_cover, b_cover)
        verdicts.append(passed)

    check()
    assert verdicts.count(False) >= 20 and verdicts.count(True) >= 10
    for path in sorted(DATA.glob("*_vec.json")):
        emb = data_embedding(path)
        x = min(emb.cs.cocircuits)
        images = dict(emb.images)
        images[x] = images[neg(x, len(emb.cs.elements))]  # a cocircuit sent to its negative's vertex
        a_cover, b_cover = build_covers(emb, emb.lattice.bottom)
        assert not carrier_check(images, a_cover, b_cover)["maps-into-carrier"].passed
        assert not maps_into_carrier_oracle(vertex_sets(images), a_cover, b_cover)
