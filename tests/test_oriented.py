from fractions import Fraction
from itertools import product

import pytest
from hypothesis import assume, given, settings, strategies as st

from matroid_spheres import (
    MatroidInputError,
    build_covers,
    build_embedding,
    carrier_check,
    cocircuits_from_vectors,
    covector_flat,
    covectors_from_vectors,
    is_homology_point,
    make_flag,
    pivots_check,
    reduced_homology,
    sphere_profile,
    vector_config,
    verify_embedding,
)
from matroid_spheres.linalg import rank_q
from matroid_spheres.oriented import VectorConfig, compose, neg, render
from conftest import face_labels, label_faces, mask_vertices, member_labels
from conftest import compose_signs, cov_leq, covector_flat_oracle, delta_complex, neg_signs
from conftest import sign_mask, sign_vector, span_oracle, tuples


def embedding(cfg, flag=None, pivots=None):
    return build_embedding(covectors_from_vectors(cfg), flag, pivots)


def restrict_zero(x, positions):
    """x with the given coordinates set to zero."""
    return tuple(0 if i in positions else a for i, a in enumerate(x))


# -- sign vector algebra -------------------------------------------------------


def test_compose():
    assert compose_signs((0, 1, 1, -1), (1, 0, 1, 1)) == (1, 1, 1, -1)
    x, y = sign_mask((0, 1, 1, -1)), sign_mask((1, 0, 1, 1))
    assert sign_vector(compose(x, y, 4), 4) == (1, 1, 1, -1)


def test_sign_mask_halves():
    assert sign_mask((1, 0, -1)) == 0b100_001
    assert sign_vector(0b100_001, 3) == (1, 0, -1)
    assert sign_mask((0, 0)) == 0
    assert render(0b100_001, 3) == "+0-" and render(0, 2) == "00"
    assert neg(0b100_001, 3) == 0b001_100


sign_vectors = st.integers(1, 6).flatmap(
    lambda n: st.lists(st.lists(st.sampled_from((-1, 0, 1)), min_size=n, max_size=n)
                       .map(tuple), min_size=2, max_size=2)
)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(sign_vectors)
def test_sign_masks_match_tuples(pair):
    # the mask order is the conformal order, compose, negation and the
    # text agree, and the mask is a bijection
    x, y = pair
    n = len(x)
    mx, my = sign_mask(x), sign_mask(y)
    assert sign_vector(mx, n) == x
    assert (mx & ~my == 0) == cov_leq(x, y)
    assert sign_vector(compose(mx, my, n), n) == compose_signs(x, y)
    assert neg(mx, n) == sign_mask(neg_signs(x))
    assert render(mx, n) == "".join("+" if a > 0 else "-" if a < 0 else "0" for a in x)


def test_restrict_zero():
    assert restrict_zero((1, -1, 0, 1), [0, 1]) == (0, 0, 0, 1)


# -- cocircuits ------------------------------------------------------------------


def test_cocircuits_u24(u24_vec):
    cocircs = cocircuits_from_vectors(u24_vec)
    assert len(cocircs) == 8
    assert sign_mask((0, 1, 1, -1)) in cocircs and sign_mask((0, -1, -1, 1)) in cocircs  # coatom {1}
    assert sign_mask((1, 0, 1, 1)) in cocircs  # coatom {2}
    zero_sets = {
        frozenset(e for e, a in zip(u24_vec.elements, sign_vector(x, 4)) if a == 0) for x in cocircs
    }
    assert zero_sets == {frozenset({str(i)}) for i in range(1, 5)}


def test_cocircuits_coordinate(coord2_vec):
    assert cocircuits_from_vectors(coord2_vec) == frozenset(
        map(sign_mask, {(0, 1), (0, -1), (1, 0), (-1, 0)})
    )


def test_cocircuits_rank_deficient():
    with pytest.raises(MatroidInputError):
        cocircuits_from_vectors(vector_config([[1, 0], [2, 0]]))


# -- covector span ----------------------------------------------------------------


def test_span_coordinate_rank2(coord2_vec):
    cs = covectors_from_vectors(coord2_vec)
    assert len(cs.covectors) == 9
    assert cs.covectors == frozenset(map(sign_mask, product((1, 0, -1), repeat=2)))


def test_span_u24_17_covectors(u24_vec):
    cs = covectors_from_vectors(u24_vec)
    assert len(cs.covectors) == 17  # 0 + 8 rays + 8 sectors
    assert len(cs.cocircuits) == 8


def test_span_single_element():
    cs = covectors_from_vectors(vector_config([[1]]))
    assert cs.covectors == frozenset({0, 0b01, 0b10})  # 0, + and -


@st.composite
def configurations(draw, max_rank=4, max_n=7):
    """Integer vector configurations of full rank, columns nonzero."""
    r = draw(st.integers(1, max_rank))
    n = draw(st.integers(r, max_n))
    column = st.lists(st.integers(-2, 2), min_size=r, max_size=r).filter(any)
    cols = draw(st.lists(column, min_size=n, max_size=n))
    assume(rank_q([[Fraction(x) for x in c] for c in cols]) == r)
    return vector_config(cols)


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(configurations())
def test_span_by_cocircuits_matches_pairwise_span(cfg):
    cs = covectors_from_vectors(cfg)
    assert set(tuples(cs, cs.covectors)) == span_oracle(cs.elements, tuples(cs, cs.cocircuits))


def covector_axioms_fail(cs):
    """The covector axioms a covector set breaks, by name, on tuples (test
    oracle)."""
    covs, cocircs = set(tuples(cs, cs.covectors)), set(tuples(cs, cs.cocircuits))
    nonzero = [x for x in covs if any(x)]
    minimal = {x for x in nonzero if not any(y != x and cov_leq(y, x) for y in nonzero)}
    axioms = {
        "contains-zero": (0,) * len(cs.elements) in covs,
        "negation-closed": all(neg_signs(x) in covs for x in covs),
        "composition-closed": all(compose_signs(x, y) in covs for x in covs for y in covs),
        "cocircuits-minimal": minimal == cocircs,
        "cocircuits-antipodal": all(neg_signs(x) in cocircs for x in cocircs),
    }
    return [name for name, holds in axioms.items() if not holds]


def test_covector_set_axioms(u24_vec, u34_vec, coord2_vec):
    for cfg in (u24_vec, u34_vec, coord2_vec):
        assert covector_axioms_fail(covectors_from_vectors(cfg)) == []


# -- underlying matroid -------------------------------------------------------------


def test_underlying_u24(u24_vec, u24):
    lattice = covectors_from_vectors(u24_vec).lattice
    assert set(lattice.flats) == set(u24.flats)
    assert lattice.r == 2


def test_underlying_coordinate(coord2_vec):
    lattice = covectors_from_vectors(coord2_vec).lattice
    assert len(lattice.flats) == 4  # Boolean on 2 elements


def test_underlying_n134(n134_vec, n134):
    lattice = covectors_from_vectors(n134_vec).lattice
    assert set(lattice.flats) == set(n134.flats)
    assert frozenset({"1", "3", "4"}) in lattice.coatoms()


def test_underlying_vs_linear_loader(u24_vec, u34_vec, n134_vec):
    from matroid_spheres import linear_matroid

    for cfg in (u24_vec, u34_vec, n134_vec):
        via_covectors = covectors_from_vectors(cfg).lattice
        via_columns = linear_matroid(cfg.columns, None, cfg.elements)
        assert set(via_covectors.flats) == set(via_columns.flats)


# -- covector flats -----------------------------------------------------------------


def test_covector_flat_examples(u24_vec):
    cs = covectors_from_vectors(u24_vec)
    m1 = covector_flat(cs, {"1"})
    assert set(tuples(cs, m1)) == {(0, 0, 0, 0), (0, 1, 1, -1), (0, -1, -1, 1)}
    assert covector_flat(cs, {"1", "2", "3", "4"}) == [0]
    assert set(covector_flat(cs, set())) == set(cs.covectors)
    with pytest.raises(MatroidInputError):
        covector_flat(cs, {"1", "2"})  # not a flat of U_{2,4}


# -- pivots ---------------------------------------------------------------------------


def test_pivots_check_u24(u24_vec):
    emb = embedding(u24_vec)
    assert emb.pivots == ("1", "2")
    assert pivots_check(emb).ok


def test_pivot_precondition(u24_vec):
    lattice = covectors_from_vectors(u24_vec).lattice
    flag = make_flag(lattice, [[], ["1"], ["1", "2", "3", "4"]])
    with pytest.raises(MatroidInputError):
        embedding(u24_vec, flag, ["2", "3"])  # 2 not in flag[1]-flag[0]


def test_pivots_check_nonfano(nonfano_vec):
    emb = embedding(nonfano_vec)
    assert pivots_check(emb).ok


# -- iota ------------------------------------------------------------------------------


def test_iota_cocircuits(u24_vec):
    emb = embedding(u24_vec)
    def image(x):
        return frozenset(map(emb.lattice.vertex_label, mask_vertices(emb.iota(sign_mask(x)))))

    assert image((0, 1, 1, -1)) == frozenset({(("1",), "+")})
    assert image((1, 0, 1, 1)) == frozenset({(("2",), "+")})


def test_iota_tope(u24_vec):
    emb = embedding(u24_vec)
    image = mask_vertices(emb.iota(sign_mask((1, 1, 1, 1))))
    assert frozenset(map(emb.lattice.vertex_label, image)) == frozenset({(("2",), "+"), (("4",), "+")})


def test_iota_zero_rejected(u24_vec):
    emb = embedding(u24_vec)
    with pytest.raises(ValueError):
        emb.iota(0)


def test_iota_two_to_one_on_cocircuits(u24_vec, u34_vec):
    for cfg in (u24_vec, u34_vec):
        emb = embedding(cfg)
        n = len(emb.cs.elements)
        for x in emb.cs.cocircuits:
            (v,) = map(emb.lattice.vertex_label, mask_vertices(emb.iota(x)))
            (w,) = map(emb.lattice.vertex_label, mask_vertices(emb.iota(neg(x, n))))
            assert v[0] == w[0] and v[1] != w[1]


def first_pivot_sign(emb, x):
    """The sign of the tuple x on the first pivot where it is nonzero."""
    return next(x[i] for i in (emb.cs.elements.index(p) for p in emb.pivots) if x[i])


def recursive_iota(emb, x):
    """Oracle on tuples: a cocircuit's signed vertex, else the union over
    the cocircuits below x, by recursion."""
    cocircuits = tuples(emb.cs, emb.cs.cocircuits)
    if x in cocircuits:
        s = "+" if first_pivot_sign(emb, x) > 0 else "-"
        return frozenset({emb.rep.vertex(frozenset(e for e, a in zip(emb.cs.elements, x) if a == 0), s)})
    below = [c for c in cocircuits if cov_leq(c, x)]
    return frozenset().union(*[recursive_iota(emb, c) for c in below])


def test_image_table_matches_recursive_iota(u24_vec, u34_vec, nonfano_vec):
    for cfg in (u24_vec, u34_vec, nonfano_vec):
        emb = embedding(cfg)
        assert emb.images is emb.images  # computed once
        assert set(emb.images) == set(emb.cs.nonzero())
        for x in emb.cs.nonzero():
            assert emb.iota(x) == emb.images[x]
            assert mask_vertices(emb.images[x]) == recursive_iota(emb, sign_vector(x, len(emb.cs.elements)))


# -- verify_embedding ----------------------------------------------------------------


def test_verify_embedding_u24(u24_vec):
    report = verify_embedding(embedding(u24_vec))
    assert report.ok, report.lines()


def test_verify_embedding_coordinate(coord2_vec):
    report = verify_embedding(embedding(coord2_vec))
    assert report.ok, report.lines()


def test_verify_embedding_u34(u34_vec):
    emb = embedding(u34_vec)
    report = verify_embedding(emb)
    assert report.ok, report.lines()
    profile = reduced_homology(delta_complex(emb.cs.nonzero(), len(emb.cs.elements)))
    assert profile == sphere_profile(2)


# -- covers and carrier ----------------------------------------------------------------


def cover_member(emb, flat, vec):
    """Oracle for A_vec over the flat, vec in {+,-,0}^r: the nonzero
    covectors over the flat whose image lies in sigma(vec, flat)."""
    carrier = emb.rep.sigma(vec, flat)
    return [x for x in covector_flat(emb.cs, flat) if x and emb.iota(x) & ~carrier == 0]


def test_build_covers_meet_law_and_emptiness(u24_vec):
    emb = embedding(u24_vec)
    for flat in emb.lattice.flats:
        members = {
            v: set(cover_member(emb, flat, v))
            for v in product((1, -1, 0), repeat=2)
        }
        for v in members:
            for w in members:
                meet = tuple(a if a == b else 0 for a, b in zip(v, w))
                assert members[v] & members[w] == members[meet]
            b_simplex = emb.rep.sigma(v, flat)
            assert bool(members[v]) == bool(b_simplex)
        # spec emptiness direction: vec supported inside the flag below G
        for v in members:
            if all(emb.flag[i + 1] <= flat for i, s in enumerate(v) if s != 0):
                assert not members[v] and not emb.rep.sigma(v, flat)


def test_build_covers_members_are_the_pullbacks(u24_vec, u34_vec):
    for cfg in (u24_vec, u34_vec):
        emb = embedding(cfg)
        for flat in emb.lattice.flats:
            a_cover, b_cover = build_covers(emb, flat)
            assert a_cover.ambient is emb.delta(flat)
            assert b_cover.ambient is emb.rep.build(flat)
            for key, member in member_labels(a_cover).items():
                vec = tuple(1 if s == "+" else -1 for s in key)
                assert member == frozenset(cover_member(emb, flat, vec))


def test_build_covers_b_side_is_sigma(u24_vec):
    emb = embedding(u24_vec)
    _, b_cover = build_covers(emb, frozenset())
    for key, simplex in b_cover.members:
        vec = tuple(1 if s == "+" else -1 for s in key)
        assert simplex == emb.rep.sigma(vec, frozenset())
        assert face_labels(b_cover.ambient, simplex) in label_faces(b_cover.ambient)


def test_carrier_check_all_flats(u24_vec, u34_vec, coord2_vec):
    for cfg in (u24_vec, u34_vec, coord2_vec):
        emb = embedding(cfg)
        for flat in emb.lattice.flats:
            a_cover, b_cover = build_covers(emb, flat)
            report = carrier_check(emb.images, a_cover, b_cover)
            assert report.ok, (sorted(flat), report.lines())


def test_a_cover_members_contractible(u24_vec):
    emb = embedding(u24_vec)
    a_cover, _ = build_covers(emb, frozenset())
    for _, member in a_cover.members:
        induced = a_cover.ambient.restrict(member)
        assert induced == delta_complex(face_labels(a_cover.ambient, member), len(emb.cs.elements))
        assert is_homology_point(induced)


# -- deletion fibers ---------------------------------------------------------------------


def first_pivot_member(emb, flat, vec):
    """Covectors over the flat whose own first-pivot sign matches vec.

    This is the membership rule of the deletion argument: deleting a
    non-pivot element preserves it, and each deletion fiber has a unique
    minimal element.  (It is not the carrier cover; see cover_member.)
    Covectors are tuples here.
    """
    pivots = [emb.cs.elements.index(p) for p in emb.pivots]
    out = []
    for x in covector_flat_oracle(emb.cs, flat):
        if any(x):
            i = next(i for i, p in enumerate(pivots) if x[p])
            if x[pivots[i]] == vec[i]:
                out.append(x)
    return out


def delete(cfg, e):
    keep = [i for i, x in enumerate(cfg.elements) if x != e]
    return VectorConfig(tuple(cfg.elements[i] for i in keep), tuple(cfg.columns[i] for i in keep))


def fibers_contractible(fmap, source, target):
    """Quillen's fiber hypothesis for an order-preserving map of covector
    posets: the preimage of every upper set {y >= q} of the target has an
    order complex that is a homology point."""
    assert all(cov_leq(fmap[x], fmap[y]) for x in source for y in source if cov_leq(x, y))
    return all(
        is_homology_point(delta_complex([x for x in source if cov_leq(q, fmap[x])]))
        for q in target
    )


def test_deletion_fibers_unique_minimum(u24_vec):
    # deleting a non-pivot element preserves first-pivot membership and
    # every fiber has a unique minimal element, so the fiber check passes
    emb = embedding(u24_vec)
    deleted = embedding(delete(u24_vec, "4"))
    for v in product((1, -1), repeat=2):
        member = first_pivot_member(emb, frozenset(), v)
        member_deleted = first_pivot_member(deleted, frozenset(), v)
        fmap = {x: x[:3] for x in member}
        assert set(fmap.values()) <= set(member_deleted)
        for y in set(fmap.values()):
            fiber = [x for x in member if fmap[x] == y]
            minima = [x for x in fiber if not any(cov_leq(z, x) and z != x for z in fiber)]
            assert len(minima) == 1
        assert fibers_contractible(fmap, member, member_deleted)


# -- order homotopies on covector posets ----------------------------------------------------


def order_homotopy_image(covectors, fmap):
    """The image of a lowering (f(x) <= x) or raising (f(x) >= x) self-map of
    a covector poset, after checking that its order complex keeps the
    homology of the poset's."""
    assert set(fmap.values()) <= set(covectors)
    assert all(cov_leq(fmap[x], x) for x in covectors) or all(
        cov_leq(x, fmap[x]) for x in covectors
    )
    image = sorted(set(fmap.values()))
    assert reduced_homology(delta_complex(covectors)) == reduced_homology(
        delta_complex(image)
    )
    return image


def test_lowering_homotopy_on_coordinate_om(coord3_vec):
    # the first retraction step on a coordinate block with a zero entry:
    # v = (+,0,+) makes X -> X/{e_2} a lowering self-map of the block
    emb = embedding(coord3_vec)
    member = first_pivot_member(emb, frozenset(), (1, 0, 1))
    image = order_homotopy_image(member, {x: restrict_zero(x, [1]) for x in member})
    assert len(image) < len(member)


def test_retraction_sequence_on_coordinate_om(coord3_vec):
    # the four-step order-homotopy sequence retracting the (+,0,+) block of
    # a coordinate orientation: each step preserves the homology profile
    emb = embedding(coord3_vec)
    current = first_pivot_member(emb, frozenset(), (1, 0, 1))
    for step in (
        lambda x: restrict_zero(x, [1]),  # zero the skipped coordinate
        lambda x: restrict_zero(x, [2]) if x[2] == -1 else x,  # drop minus side
        lambda x: compose_signs(x, (0, 0, 1)),  # raising: fill with plus
        lambda x: restrict_zero(x, [0]),  # drop the leading coordinate
    ):
        current = order_homotopy_image(current, {x: step(x) for x in current})
    assert set(current) == {(0, 0, 1)}
