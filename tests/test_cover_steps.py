"""The arrangement certified by cover steps S_F n S_a = S_{F v a} and by the
join certificate on vertex masks, checked against enumeration of every atom
subset and every flat pair, against homology and against the per-flat nerve
route, on true and on mutated arrangements."""

from itertools import combinations, combinations_with_replacement
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from matroid_spheres import (
    FlagRepresentation,
    HomotopyArrangement,
    SimplicialComplex,
    ValidationReport,
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
from matroid_spheres.spheres import atom_label
from conftest import complex_of, frozen, sorted_faces, used_vertices
from conftest import (
    DATA,
    boolean_matroid,
    cover_steps_oracle,
    cross_polytope_oracle,
    data_matroids,
    held_parts,
    is_homology_sphere,
    nerve_oracle,
    swap_map,
    swap_sign,
    vertex_mask,
    z2_free_check,
)

from conftest import FANO_COLUMNS, N134_FLATS

DERANDOMIZED = settings(derandomize=True, database=None, max_examples=150, deadline=None)


# -- oracles: enumerate every atom subset and every flat pair ----------------------


def intersection_law_oracle(rep):
    built = {g: rep.build(g) for g in rep.lattice.flats}
    return all(
        built[g].intersection(built[h]) == built[rep.lattice.join(g, h)]
        for g, h in combinations_with_replacement(rep.lattice.flats, 2)
    )


def arrangement_flats_oracle(arr):
    """A set S of atoms is a flat when intersecting any further member
    strictly shrinks the common intersection of the members over S."""
    lattice = arr.rep.lattice
    atoms = [a for a, _ in arr.members]
    complexes = {a: m for a, m in arr.members}
    flats = set()
    for k in range(len(atoms) + 1):
        for subset in combinations(atoms, k):
            inter = arr.ambient
            for a in subset:
                inter = inter.intersection(complexes[a])
            if all(inter.intersection(complexes[e]) != inter for e in atoms if e not in subset):
                flats.add(frozenset(atom_label(lattice, a) for a in subset))
    return flats


def verify_arrangement_oracle(arr):
    """Every atom subset: its members' intersection against S of its join,
    a sphere check on it, and the rank jump against every further member."""
    rep = ValidationReport()
    fr = arr.rep
    lattice = fr.lattice
    r = lattice.r
    amb = arr.ambient
    rep.add("ambient-sphere", is_homology_sphere(amb, r - 1),
            f"expected S^{r - 1} profile")
    rep.add("ambient-nerve", nerve_oracle(fr, lattice.bottom, amb))
    rep.add("members-sphere",
            all(is_homology_sphere(m, r - 2) for _, m in arr.members),
            f"each member must be S^{r - 2}")
    atoms = [a for a, _ in arr.members]
    complexes = {a: m for a, m in arr.members}
    seen = {}
    law_ok = sphere_ok = True
    for k in range(1, len(atoms) + 1):
        for subset in combinations(atoms, k):
            h = lattice.bottom
            for a in subset:
                h = lattice.join(h, a)
            inter = complexes[subset[0]]
            for a in subset[1:]:
                inter = inter.intersection(complexes[a])
            if inter != fr.build(h):
                law_ok = False
            if h not in seen:
                if not is_homology_sphere(inter, lattice.corank(h) - 1):
                    sphere_ok = False
                seen[h] = inter
    rep.add("intersections-are-flats", law_ok)
    rep.add("intersections-sphere", sphere_ok)
    try:
        free = z2_free_check(amb, swap_map(amb))
        restricts = all(
            m.is_empty or z2_free_check(m, swap_map(m))
            for _, m in arr.members
        )
    except ValueError:
        free = restricts = False
    rep.add("z2-free", free and restricts)
    drop_ok = True
    for h, inter in seen.items():
        for g in atoms:
            gh = lattice.join(g, h)
            if gh == h:
                continue
            if lattice.rank(gh) != lattice.rank(h) + 1:
                drop_ok = False
            if not is_homology_sphere(
                inter.intersection(complexes[g]), lattice.corank(gh) - 1
            ):
                drop_ok = False
    rep.add("rank-jump", drop_ok)
    return rep


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
def mutated_arrangements(draw):
    rep = draw(representations())
    arr = rep.arrangement()
    targets = [i for i, (_, m) in enumerate(arr.members) if not m.is_empty]
    i = draw(st.sampled_from([-1] + targets))
    if i == -1:
        new = split_block(rep, draw) if draw(st.booleans()) else None
        return HomotopyArrangement(rep, new or mutated(arr.ambient, draw), arr.members)
    new = mutated(arr.members[i][1], draw)
    members = list(arr.members)
    members[i] = (members[i][0], new)
    return HomotopyArrangement(rep, arr.ambient, tuple(members))


# -- true arrangements: every line matches ------------------------------------------


@pytest.mark.parametrize("name", NAMES)
def test_default_flag_matches_oracles(name):
    lattice = FIXTURES[name]
    rep = FlagRepresentation(lattice, default_flag(lattice))
    arr = rep.arrangement()
    report = verify_arrangement(arr)
    assert report.lines() == verify_arrangement_oracle(arr).lines()
    assert report.ok
    assert rep.intersection_law_holds() is intersection_law_oracle(rep) is True
    assert set(arrangement_flats(arr).flats) == arrangement_flats_oracle(arr)


@settings(DERANDOMIZED, max_examples=60)
@given(representations())
def test_every_flag_matches_oracles(rep):
    arr = rep.arrangement()
    assert verify_arrangement(arr).lines() == verify_arrangement_oracle(arr).lines()
    assert rep.intersection_law_holds() == intersection_law_oracle(rep)
    assert set(arrangement_flats(arr).flats) == arrangement_flats_oracle(arr)


# -- mutated arrangements: the verdicts match ------------------------------------------


@DERANDOMIZED
@given(mutated_arrangements())
def test_mutated_arrangement_matches_oracles(arr):
    report, oracle = verify_arrangement(arr), verify_arrangement_oracle(arr)
    assert report.ok == oracle.ok
    assert report["intersections-are-flats"] == oracle["intersections-are-flats"]
    # a sphere line passes only where homology holds: on the ambient and the
    # members as held, and on every S_H, which the held intersections are
    # once intersections-are-flats passes
    for line in ("ambient-sphere", "members-sphere"):
        assert oracle[line].passed or not report[line].passed, line
    if report["intersections-are-flats"].passed:
        assert oracle["intersections-sphere"].passed or not report["intersections-sphere"].passed
    # flats are read off vertex sets only where every member is induced
    ambient = arr.ambient
    if all(frozen(m) == frozen(ambient).restrict(used_vertices(m)) for _, m in arr.members):
        assert set(arrangement_flats(arr).flats) == arrangement_flats_oracle(arr)
    else:
        with pytest.raises(ValueError):
            arrangement_flats(arr)


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
    arr = rep.arrangement()
    report = verify_arrangement(arr)
    assert not report["ambient-sphere"].passed and not report["members-sphere"].passed
    assert report.ok == verify_arrangement_oracle(arr).ok is False


def test_mutated_member_fails_intersections_are_flats():
    lattice = FIXTURES["u34"]
    rep = FlagRepresentation(lattice, default_flag(lattice))
    arr = rep.arrangement()
    atom, member = arr.members[0]
    facets = sorted_faces(member)
    dropped = complex_of(facets[1:])
    bad = HomotopyArrangement(rep, arr.ambient, ((atom, dropped),) + arr.members[1:])
    report = verify_arrangement(bad)
    assert not report["intersections-are-flats"].passed
    assert not report.ok
    # the representation itself is untouched, so its law still holds
    assert rep.intersection_law_holds()


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
    # flat for the verdict table and once per member as held, with no SNF
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
    assert len(calls) == len(lattice.flats) + len(lattice.atoms())


# -- the table itself --------------------------------------------------------------------


def test_cover_steps_are_every_flat_and_atom():
    lattice = FIXTURES["fano"]
    rep = FlagRepresentation(lattice, default_flag(lattice))
    steps = rep.cover_steps
    assert len(steps) == len(lattice.flats) * len(lattice.atoms())
    assert all(fa == lattice.join(f, a) for f, a, fa in steps)


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


def test_intersection_law_refuses_a_complex_that_is_not_induced():
    # one facet hollowed to its boundary keeps S_a's vertex set, so a table
    # of vertex sets alone would still pass; the member is not induced
    lattice = FIXTURES["B_3"]
    rep = FlagRepresentation(lattice, default_flag(lattice))
    arr = rep.arrangement()
    (atom, old), rest = arr.members[0], arr.members[1:]
    facets = sorted_faces(old)
    hollow = facets[1:] + [facets[0] - {v} for v in facets[0]]
    poisoned = complex_of(hollow, vertex_order=old.vertices)
    assert used_vertices(poisoned) == used_vertices(old)
    bad = HomotopyArrangement(rep, arr.ambient, ((atom, poisoned),) + rest)
    assert not bad.induced
    report = verify_arrangement(bad)
    assert not report["intersections-are-flats"].passed
    assert not report["members-sphere"].passed
    with pytest.raises(ValueError):
        arrangement_flats(bad)
    assert rep.intersection_law_holds() and arr.induced


@pytest.mark.parametrize("args", [["--exact-nerve"], []])
@pytest.mark.parametrize("name", sorted(data_matroids()))
def test_verify_intersects_no_face_sets(monkeypatch, args, name):
    monkeypatch.setattr(SimplicialComplex, "intersection", lambda *a: pytest.fail("face sets met"))
    result = CliRunner().invoke(main, ["verify", *args, str(DATA / f"{name}.json")])
    assert result.exit_code == 0, result.output


@pytest.mark.parametrize("args", [["--exact-nerve"], []])
def test_verify_builds_each_complex_at_most_once(monkeypatch, args):
    # S_bottom and the atoms' S_a, each once, with no SNF; every other S_G
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
        assert sorted(built, key=lattice.key) == [lattice.bottom, *lattice.atoms()], name


def test_member_not_closed_under_the_sign_swap_fails_z2_free():
    # S_a cut down to V_a without one vertex is still induced in S_bottom,
    # but the swap no longer maps it to itself
    lattice = FIXTURES["u34"]
    rep = FlagRepresentation(lattice, default_flag(lattice))
    arr = rep.arrangement()
    (atom, old), rest = arr.members[0], arr.members[1:]
    cut = arr.ambient.restrict(vertex_mask(used_vertices(old)[1:]))
    bad = HomotopyArrangement(rep, arr.ambient, ((atom, cut),) + rest)
    assert bad.induced
    report = verify_arrangement(bad)
    assert not report["z2-free"].passed
    with pytest.raises(ValueError):  # the oracle's route: not an involution
        z2_free_check(cut, swap_map(cut))
    assert verify_arrangement(arr)["z2-free"].passed


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
        arr = rep.arrangement()
        assert verify_arrangement(arr).ok
        assert len(arrangement_flats(arr).flats) == len(lattice.flats)
