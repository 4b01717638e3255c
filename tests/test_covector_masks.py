"""`om embed` on int masks against the tuple oracle.

The package holds every covector as a sign mask, every image as a
signed-vertex mask and every cover member as a mask over its ambient's
positions.  The oracles in conftest recompute each of these on sign-vector
tuples and label sets, the package's former form: cocircuits by brute
force over the columns, the covector span by pairwise composition, zero
sets and covector flats coordinate by coordinate, the images through the
first nonzero pivot, the ``verify_embedding`` lines over every pair, the
cover members vertex by vertex and the carrier check on member complexes.
They run on every vector file in tests/data, on K_4 and K_5, and on
seeded random configurations of rank at most 3.
"""

from fractions import Fraction
from itertools import combinations, product

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
from matroid_spheres.jsonio import load_vector_config_file
from matroid_spheres.linalg import rank_q
from matroid_spheres.topology import _intersections, full_simplex
from conftest import DATA, face_labels, mask_vertices, sign_vector, tuples
from conftest import (
    beat_points_oracle, build_covers_oracle, carrier_report_oracle, cocircuits_oracle, covector_flat_oracle,
    delta_complex, images_oracle, span_oracle, verify_embedding_oracle, zero_set_oracle,
)


def complete_graph(n):
    """K_n as vectors: e_j - e_i for each edge ij of n points, point 1's
    coordinate dropped; element ij names the edge."""
    edges = list(combinations(range(1, n + 1), 2))
    columns = [[int(k == j) - int(k == i) for k in range(2, n + 1)] for i, j in edges]
    return vector_config(columns, [f"{i}{j}" for i, j in edges])


CONFIGS = {path.stem: load_vector_config_file(path) for path in sorted(DATA.glob("*_vec.json"))}
CONFIGS.update({"K_4": complete_graph(4), "K_5": complete_graph(5)})


def assert_covectors_match(cfg):
    cs = covectors_from_vectors(cfg)
    cocircuits = cocircuits_oracle(cfg)
    assert set(tuples(cs, cs.cocircuits)) == cocircuits
    assert set(tuples(cs, cs.covectors)) == span_oracle(cfg.elements, cocircuits)
    assert cs.nonzero() == sorted(cs.covectors - {0})
    for x in cs.covectors:
        assert cs.zero_set(x) == zero_set_oracle(cs.elements, sign_vector(x, len(cs.elements)))
    assert set(cs.lattice.flats) == cs.zero_sets
    for flat in cs.lattice.flats:
        on_flat = covector_flat(cs, flat)
        assert on_flat == sorted(on_flat) and on_flat[0] == 0
        assert set(tuples(cs, on_flat)) == set(covector_flat_oracle(cs, flat)), sorted(flat)
    return cs


def assert_embedding_matches(emb, carriers=True):
    """Images, the verify_embedding report, every flat's cover members and,
    when asked, every flat's carrier report against the tuple oracle."""
    cs = emb.cs
    images = {sign_vector(x, len(cs.elements)): mask_vertices(m) for x, m in emb.images.items()}
    oracle_images = images_oracle(emb)
    assert images == oracle_images
    assert verify_embedding(emb).lines() == verify_embedding_oracle(emb).lines()
    for flat in emb.lattice.flats:
        a_cover, b_cover = build_covers(emb, flat)
        a_oracle, b_oracle = build_covers_oracle(emb, flat)
        assert {k: set(tuples(cs, face_labels(a_cover.ambient, m))) for k, m in a_cover.members} == a_oracle
        assert {k: mask_vertices(m) for k, m in b_cover.members} == b_oracle
        if carriers:
            report = carrier_check(emb.images, a_cover, b_cover)
            covs = [x for x in covector_flat_oracle(cs, flat) if any(x)]
            oracle = carrier_report_oracle(
                delta_complex(covs), {k: delta_complex(m) for k, m in a_oracle.items()},
                emb.rep.build(flat), {k: full_simplex(m) for k, m in b_oracle.items()},
                oracle_images)
            assert {c.name: (c.passed, c.detail) for c in report.checks} == oracle, sorted(flat)


def test_complete_graphs_have_the_known_counts():
    # the covectors of K_n are the ordered set partitions of its points
    # (75 and 541), the cocircuits two per bond (7 and 15)
    for n, covectors, cocircuits in ((4, 75, 14), (5, 541, 30)):
        cfg = complete_graph(n)
        cs = covectors_from_vectors(cfg)
        assert (len(cs.covectors), len(cs.cocircuits)) == (covectors, cocircuits)
        assert len(span_oracle(cfg.elements, cocircuits_oracle(cfg))) == covectors


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_covectors_match_the_tuple_oracle(name):
    assert_covectors_match(CONFIGS[name])


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_embedding_matches_the_tuple_oracle(name):
    # the carrier route builds every member as a complex: K_5's sixteen
    # members over 540 covectors are left to the library's own tests
    cs = covectors_from_vectors(CONFIGS[name])
    assert_embedding_matches(build_embedding(cs), carriers=name != "K_5")


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_beat_points_on_masks_match_the_label_route(name):
    # carrier_check hands each A-side intersection mask to the poset as it
    # is, since Delta(L_G) holds each element at its poset position; the
    # pass-by-pass oracle maps the mask to covectors and masks them again
    # by index.  Each intersection is also tried without its lowest
    # element, which leaves a subposet that need not reduce
    emb = build_embedding(covectors_from_vectors(CONFIGS[name]))
    verdicts = []
    for flat in emb.lattice.flats:
        a_cover, _ = build_covers(emb, flat)
        poset, ambient = a_cover.poset, a_cover.ambient
        assert ambient.vertices == poset.elements
        full = (1 << len(poset.elements)) - 1
        for x in [z for y in (full, *_intersections([m for _, m in a_cover.members])) for z in (y, y & y - 1)]:
            labels = [v for i, v in enumerate(ambient.vertices) if x >> i & 1]
            verdict = poset.mask_reduces_to_point(x)
            assert verdict is beat_points_oracle(poset, labels), (sorted(flat), x)
            verdicts.append(verdict)
    assert True in verdicts and False in verdicts


@st.composite
def configurations(draw):
    """Integer vector configurations of rank 1 to 3, full rank."""
    r = draw(st.integers(1, 3))
    n = draw(st.integers(r, 5))
    column = st.lists(st.integers(-2, 2), min_size=r, max_size=r).filter(any)
    cols = draw(st.lists(column, min_size=n, max_size=n))
    assume(rank_q([[Fraction(x) for x in c] for c in cols]) == r)
    return vector_config(cols)


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(configurations())
def test_random_configurations_match_the_tuple_oracle(cfg):
    cs = assert_covectors_match(cfg)
    assert_embedding_matches(build_embedding(cs))


def test_every_pivot_choice_matches_the_tuple_oracle(u34_vec, nonfano_vec):
    # the images depend on the pivots: every pivot choice of the default
    # flag of U(3,4) and of the non-Fano vectors
    for cfg in (u34_vec, nonfano_vec):
        cs = covectors_from_vectors(cfg)
        flag = build_embedding(cs).flag
        steps = [sorted(flag[i + 1] - flag[i]) for i in range(cs.lattice.r)]
        for pivots in product(*steps):
            assert_embedding_matches(build_embedding(cs, flag, pivots))
