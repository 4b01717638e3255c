"""The arrangement certified by cover steps S_F n S_a = S_{F v a} and by the
join certificate on vertex masks, checked against enumeration of every atom
subset and every flat pair, against homology and against the per-flat nerve
route, on true representations and on representations with one table
poisoned."""

from itertools import combinations_with_replacement
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from matroid_spheres import (
    FlagRepresentation,
    SimplicialComplex,
    all_complete_flags,
    arrangement_flats,
    default_flag,
    lattice_from_flats,
    load_matroid,
    make_flag,
    uniform_matroid,
    verify_arrangement,
)
from matroid_spheres import topology
from matroid_spheres.cli import main
from conftest import complex_of, frozen, lattice_join, sorted_faces, used_vertices
from conftest import (
    DATA,
    arrangement_flats_oracle,
    boolean_matroid,
    cover_steps_oracle,
    cross_polytope_oracle,
    data_matroids,
    held_arrangement,
    held_parts,
    is_homology_sphere,
    nerve_oracle,
    swap_map,
    swap_sign,
    vertex_mask,
    verify_arrangement_oracle,
    z2_free_check,
)

from conftest import FANO_COLUMNS, N134_FLATS

DERANDOMIZED = settings(derandomize=True, database=None, max_examples=150, deadline=None)


# -- oracles: enumerate every atom subset and every flat pair ----------------------


def intersection_law_oracle(rep):
    built = {g: rep.build(g) for g in rep.lattice.flats}
    return all(
        built[g].intersection(built[h]) == built[lattice_join(rep.lattice, g, h)]
        for g, h in combinations_with_replacement(rep.lattice.flats, 2)
    )


# -- inputs -------------------------------------------------------------------------

FIXTURES = {
    "u24": uniform_matroid(2, 4),
    "u34": uniform_matroid(3, 4),
    "bool3": boolean_matroid(["a", "b", "c"]),
    "fano": load_matroid({"format": "linear", "field": "GF", "p": 2, "columns": FANO_COLUMNS}),
    "n134": lattice_from_flats(["1", "2", "3", "4"], N134_FLATS),
}
FIXTURES.update({f"B_{n}": boolean_matroid([str(i) for i in range(1, n + 1)]) for n in range(1, 6)})
# U(r, n) with r < n <= 7 (U(n, n) is B_n); U(6, 7) runs only without the
# oracles, in test_large_inputs_pass, because the subset oracle is slow on it
FIXTURES.update({
    f"U({r},{n})": uniform_matroid(r, n)
    for n in range(1, 8)
    for r in range(1, n)
    if (r, n) != (6, 7)
})
NAMES = sorted(FIXTURES)


def flag_from(lattice, order):
    """The complete flag of closures of the prefixes of an element order."""
    chain = [lattice.bottom]
    for k in range(1, len(order) + 1):
        flat = lattice.closure(order[:k])
        if flat != chain[-1]:
            chain.append(flat)
    return make_flag(lattice, chain)


@st.composite
def representations(draw):
    lattice = FIXTURES[draw(st.sampled_from(NAMES))]
    order = draw(st.permutations(lattice.elements))
    return FlagRepresentation(lattice, flag_from(lattice, order))


def mutated(old, draw):
    """One facet F and one vertex v of it drawn, then: F dropped; v's sign
    flipped inside F; the facet F + {-v} added; or F hollowed, replaced by
    its boundary, which keeps the vertex set and so is not induced.  F is
    hollowed only with 2 to 6 vertices, and dropped otherwise: the boundary
    of a large simplex does not collapse, and the homology oracle would
    enumerate its faces."""
    facets = sorted_faces(old)
    face = facets[draw(st.integers(0, len(facets) - 1))]
    v = sorted(face, key=old.vertices.index)[draw(st.integers(0, len(face) - 1))]
    kept = [f for f in facets if f != face]
    kind = draw(st.sampled_from(["drop", "flip", "add", "hollow"]))
    if kind == "flip":
        kept.append((face - {v}) | {swap_sign(v)})
    elif kind == "add":
        kept.append(face | {swap_sign(v)})
    elif kind == "hollow" and 1 < len(face) <= 6:
        kept += [face - {u} for u in face]
    return complex_of(kept, vertex_order=old.vertices)


def split_block(rep, draw):
    """S_bottom built with one block of two or more coatoms split in two,
    or None if every block has one coatom."""
    parts = held_parts(rep)
    big = [i for i, block in enumerate(parts) if len(block) > 1]
    if not big:
        return None
    i = draw(st.sampled_from(big))
    k = draw(st.integers(1, len(parts[i]) - 1))
    blocks = [*parts[:i], parts[i][:k], parts[i][k:], *parts[i + 1:]]
    return complex_of(cross_polytope_oracle(rep.lattice, blocks))  # ints sort in key order


@st.composite
def mutated_representations(draw):
    """A fresh representation with one table poisoned, and the table's
    kind: S_bottom as built (a mutant of the join, or the join with one
    block split), one flat's mask (one vertex toggled, or another flat's
    mask), or one cover step's join (any flat)."""
    rep = draw(representations())
    lattice = rep.lattice
    kind = draw(st.sampled_from(["bottom", "mask", "step"]))
    if kind == "bottom":
        new = split_block(rep, draw) if draw(st.booleans()) else None
        rep._built[lattice.bottom] = new or mutated(rep.build(lattice.bottom), draw)
    elif kind == "mask":
        g = draw(st.sampled_from(lattice.flats))
        if draw(st.booleans()):
            rep.masks[g] ^= 1 << draw(st.sampled_from(rep.vertices))
        else:
            rep.masks[g] = rep.masks[draw(st.sampled_from(lattice.flats))]
    else:
        steps = list(rep.cover_steps)
        n = draw(st.integers(0, len(steps) - 1))
        steps[n] = steps[n][:2] + (draw(st.sampled_from(lattice.flats)),)
        rep.__dict__["cover_steps"] = tuple(steps)
    return kind, rep


# -- true representations: every line matches ------------------------------------------


@pytest.mark.parametrize("name", NAMES)
def test_default_flag_matches_oracles(name):
    lattice = FIXTURES[name]
    rep = FlagRepresentation(lattice, default_flag(lattice))
    held = held_arrangement(rep)
    report = verify_arrangement(rep)
    assert report.lines() == verify_arrangement_oracle(held).lines()
    assert report.ok
    assert rep.intersection_law_holds() is intersection_law_oracle(rep) is True
    assert set(arrangement_flats(rep).flats) == arrangement_flats_oracle(held)


@settings(DERANDOMIZED, max_examples=60)
@given(representations())
def test_every_flag_matches_oracles(rep):
    held = held_arrangement(rep)
    assert verify_arrangement(rep).lines() == verify_arrangement_oracle(held).lines()
    assert rep.intersection_law_holds() == intersection_law_oracle(rep)
    assert set(arrangement_flats(rep).flats) == arrangement_flats_oracle(held)


@pytest.mark.parametrize("name", NAMES)
def test_every_s_g_is_s_bottom_induced_on_its_mask(name):
    # verify reads each member S_a as S_bottom[V_a]: S_G as constructed is
    # the join restricted to the mask, for every flat, on the first 24 flags
    lattice = FIXTURES[name]
    for flag in all_complete_flags(lattice)[:24]:
        rep = FlagRepresentation(lattice, flag)
        ambient = rep.build(lattice.bottom)
        for g in lattice.flats:
            assert rep.construct(g) == ambient.restrict(rep.masks[g]), (flag.chain, sorted(g))


# -- poisoned representations: no line passes that the oracle fails --------------------


@DERANDOMIZED
@given(mutated_representations())
def test_mutated_arrangement_matches_oracles(case):
    # the oracle reads S_bottom as held and the members as constructed, so
    # a poisoned mask or cover step can only fail lines the oracle passes
    kind, rep = case
    held = held_arrangement(rep)
    report, oracle = verify_arrangement(rep), verify_arrangement_oracle(held)
    assert [c.name for c in report.checks] == [c.name for c in oracle.checks]
    for line, truth in zip(report.checks, oracle.checks):
        assert truth.passed or not line.passed, line.name
    if kind == "step":  # S_bottom and the masks as built: the same flats
        assert set(arrangement_flats(rep).flats) == arrangement_flats_oracle(held)


@st.composite
def poisoned_bottoms(draw):
    """A fresh representation whose built S_bottom is a mutant of the join."""
    rep = draw(representations())
    old = rep.build(rep.lattice.bottom)
    new = split_block(rep, draw) if draw(st.booleans()) else None
    rep._built[rep.lattice.bottom] = new or mutated(old, draw)
    return rep


@DERANDOMIZED
@given(poisoned_bottoms())
def test_join_certificate_refuses_every_mutant_of_s0(rep):
    assert not rep.join_holds
    assert not any(rep.spheres.values())
    report = verify_arrangement(rep)
    assert not report["ambient-sphere"].passed and not report["members-sphere"].passed
    assert report.ok == verify_arrangement_oracle(held_arrangement(rep)).ok is False


def test_mutated_member_fails_intersections_are_flats():
    # the first atom's S_a = S_bottom[V_a] with V_a one coatom short: no
    # longer the meet of the flats' masks above it
    lattice = FIXTURES["u34"]
    rep = FlagRepresentation(lattice, default_flag(lattice))
    atom = lattice.atoms()[0]
    v = rep.masks[atom]
    rep.masks[atom] = v & ~(3 << (v & -v).bit_length() - 1)
    report = verify_arrangement(rep)
    assert not report["intersections-are-flats"].passed
    assert not report.ok
    # a fresh representation is untouched, so its law still holds
    assert FlagRepresentation(lattice, default_flag(lattice)).intersection_law_holds()


# -- the sphere certificate against the homology and nerve oracles ----------------------


@settings(DERANDOMIZED, max_examples=60)
@given(representations())
def test_sphere_verdict_matches_homology_oracle(rep):
    for g in rep.lattice.flats:
        oracle = is_homology_sphere(rep.build(g), rep.lattice.corank(g) - 1)
        assert rep.spheres[g] == oracle
        assert oracle


def every_flag_rep():
    """A fresh representation for every complete flag of every data matroid,
    of U(3,4) and of B_4."""
    lattices = dict(data_matroids(), U34=uniform_matroid(3, 4), B4=boolean_matroid("1234"))
    for name, lattice in sorted(lattices.items()):
        for flag in all_complete_flags(lattice):
            yield name, FlagRepresentation(lattice, flag)


def test_mask_verdicts_match_the_per_flat_nerve_route():
    # the per-flat route: construct S_G, then compare its facet nerve with
    # the cross-polytope's, facet signs read off the vertices
    for name, rep in every_flag_rep():
        for g in rep.lattice.flats:
            assert rep.spheres[g] == nerve_oracle(rep, g, rep.construct(g)), (name, rep.flag.chain, sorted(g))


def held_verdict(rep, complex_, corank):
    """The mask route for a complex as held: S_bottom certified the join,
    the complex induced in it, and its vertex mask a sphere."""
    ambient = rep.build(rep.lattice.bottom)
    used = used_vertices(complex_)
    return (rep.join_holds and frozen(complex_) == frozen(ambient).restrict(used)
            and rep.is_sphere(vertex_mask(used), corank))


@st.composite
def mutated_flat_complexes(draw):
    rep = draw(representations())
    flats = [g for g in rep.lattice.flats if g != rep.lattice.top]
    flat = draw(st.sampled_from(flats))
    return rep, flat, mutated(rep.build(flat), draw)


@DERANDOMIZED
@given(mutated_flat_complexes())
def test_sphere_verdict_never_passes_where_the_oracle_fails(case):
    rep, flat, bad = case
    corank = rep.lattice.corank(flat)
    if held_verdict(rep, bad, corank):
        assert is_homology_sphere(bad, corank - 1)
    # the flat's own complex and verdict are untouched by the mutant
    assert held_verdict(rep, rep.build(flat), corank) and rep.spheres[flat]


def no_snf(*a):
    pytest.fail("Smith normal form computed")


@pytest.mark.parametrize("args", [["--exact-nerve"], []])
@pytest.mark.parametrize("name", ["fano_gf2.json", "bool3.json", "u34.json", "n134.json"])
def test_verify_certifies_each_flat_by_one_nerve_test(monkeypatch, args, name):
    # the nerve test of S_G is ``is_sphere`` on its vertex mask: once per
    # flat, for the verdict table that every sphere line reads, with no SNF
    calls = []
    is_sphere = FlagRepresentation.is_sphere

    def counted(self, mask, corank):
        calls.append(mask)
        return is_sphere(self, mask, corank)

    monkeypatch.setattr(topology, "smith_invariant_factors", no_snf)
    monkeypatch.setattr(FlagRepresentation, "is_sphere", counted)
    result = CliRunner().invoke(main, ["verify", *args, str(DATA / name)])
    assert result.exit_code == 0, result.output
    lattice = data_matroids()[Path(name).stem]
    assert len(calls) == len(lattice.flats)


# -- the table itself --------------------------------------------------------------------


def test_cover_steps_are_every_flat_and_atom():
    lattice = FIXTURES["fano"]
    rep = FlagRepresentation(lattice, default_flag(lattice))
    steps = rep.cover_steps
    assert len(steps) == len(lattice.flats) * len(lattice.atoms())
    assert all(fa == lattice_join(lattice, f, a) for f, a, fa in steps)


COVER_STEP_LATTICES = {
    **data_matroids(),
    **{f"B_{n}": boolean_matroid([str(i) for i in range(1, n + 1)]) for n in range(1, 7)},
    **{f"U({r},{n})": uniform_matroid(r, n) for n in range(1, 8) for r in range(1, n + 1)},
}


@pytest.mark.parametrize("name", sorted(COVER_STEP_LATTICES))
def test_cover_steps_match_the_closure_oracle(name):
    # each join read off the AND of the flats holding F and a, against one
    # closure per (F, a)
    lattice = COVER_STEP_LATTICES[name]
    assert FlagRepresentation(lattice, default_flag(lattice)).cover_steps == cover_steps_oracle(lattice)


def test_intersection_law_verdict_is_cached():
    lattice = FIXTURES["B_3"]
    rep = FlagRepresentation(lattice, default_flag(lattice))
    assert rep.intersection_law_holds()
    rep.masks[lattice.bottom] = 0  # a recomputed verdict would fail
    assert rep.intersection_law_holds()
    fresh = FlagRepresentation(lattice, default_flag(lattice))
    fresh.masks[lattice.bottom] = 0
    assert not fresh.intersection_law_holds()


@pytest.mark.parametrize("args", [["--exact-nerve"], []])
@pytest.mark.parametrize("name", sorted(data_matroids()))
def test_verify_intersects_no_face_sets(monkeypatch, args, name):
    monkeypatch.setattr(SimplicialComplex, "intersection", lambda *a: pytest.fail("face sets met"))
    result = CliRunner().invoke(main, ["verify", *args, str(DATA / f"{name}.json")])
    assert result.exit_code == 0, result.output


@pytest.mark.parametrize("args", [["--exact-nerve"], []])
def test_verify_builds_each_complex_at_most_once(monkeypatch, args):
    # S_bottom once, for the join certificate, with no SNF; every other S_G
    # is read off its vertex mask
    built = []
    construct = FlagRepresentation.construct

    def counting(self, flat):
        built.append(flat)
        return construct(self, flat)

    monkeypatch.setattr(topology, "smith_invariant_factors", no_snf)
    monkeypatch.setattr(FlagRepresentation, "construct", counting)
    for name in ("fano_gf2", "bool3", "u34", "n134"):
        built.clear()
        result = CliRunner().invoke(main, ["verify", *args, str(DATA / f"{name}.json")])
        assert result.exit_code == 0, result.output
        lattice = data_matroids()[name]
        assert built == [lattice.bottom], name


def test_member_not_closed_under_the_sign_swap_fails_z2_free():
    # S_a = S_bottom[V_a] with V_a cut by one vertex is still induced in
    # S_bottom, but the swap no longer maps it to itself
    lattice = FIXTURES["u34"]
    rep = FlagRepresentation(lattice, default_flag(lattice))
    atom = lattice.atoms()[0]
    assert verify_arrangement(rep)["z2-free"].passed
    bad = FlagRepresentation(lattice, default_flag(lattice))
    v = bad.masks[atom]
    bad.masks[atom] = cut = v & v - 1
    assert not verify_arrangement(bad)["z2-free"].passed
    member = rep.build(lattice.bottom).restrict(cut)
    with pytest.raises(ValueError):  # the oracle's route: not an involution
        z2_free_check(member, swap_map(member))


@pytest.mark.parametrize("name", NAMES)
def test_mask_swap_is_the_sign_swap(name):
    lattice = FIXTURES[name]
    rep = FlagRepresentation(lattice, default_flag(lattice))
    for g in lattice.flats:
        vertices = used_vertices(rep.build(g))
        assert rep.swap(vertex_mask(vertices)) == vertex_mask(map(swap_sign, vertices)) == rep.masks[g]
        half = vertices[::2]  # each coatom's + vertex: closed under no swap
        assert rep.swap(vertex_mask(half)) == vertex_mask(map(swap_sign, half))


def test_large_inputs_pass():
    # U(2, 16) has 2^16 atom sets, which the subset oracle would enumerate
    for lattice in (uniform_matroid(2, 16), uniform_matroid(6, 7)):
        rep = FlagRepresentation(lattice, default_flag(lattice))
        assert verify_arrangement(rep).ok
        assert len(arrangement_flats(rep).flats) == len(lattice.flats)
