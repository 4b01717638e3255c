import json
import random
import sys
import threading
from functools import cached_property, lru_cache
from itertools import combinations, product
from operator import is_

import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from matroid_spheres import (
    FlagRepresentation,
    GeometricLattice,
    MatroidInputError,
    SimplicialComplex,
    all_complete_flags,
    build_embedding,
    covectors_from_vectors,
    default_flag,
    is_weak_map_matroid,
    lattice_from_flats,
    linear_matroid,
    make_flag,
    poset_map_search,
    representation,
    retraction_map,
    select_cross_coatoms,
    uniform_matroid,
    vector_config,
    verify_arrangement,
    verify_embedding,
    verify_retraction,
)
from matroid_spheres import maps, topology
from matroid_spheres.cli import main
from matroid_spheres.maps import CrossSelection, RetractDescriptor, SelectionError
from matroid_spheres.report import CheckResult, ValidationReport
from conftest import complex_of, frozen, label_faces, lattice_join, sorted_faces, tuples
from conftest import (
    DATA,
    boolean_matroid,
    cov_leq,
    cross_coatom_search_oracle,
    cross_polytope_complex,
    data_matroids,
    formula_map,
    held_parts,
    is_homology_sphere,
    materialise,
    part_of,
    poisoned,
    poisoned_source,
    poisoned_target,
    poset_map_search_oracle,
    repeated_coatom,
    repeated_g_part,
    retraction_face_lines_oracle,
    retraction_oracle,
    select_cross_coatoms_oracle,
    selected_coatoms,
    vertex_mask,
    verify_retraction_general,
    verify_retraction_oracle,
)

PAPER_FLAG = [[], ["1"], ["1", "2"], ["1", "2", "3", "4"]]


def brute_force_selection_exists(lattice, flag_f, flag_g, selection):
    """Re-verify the selection independently over all r-subsets of coatoms."""
    rep_f = FlagRepresentation(lattice, flag_f)
    rep_g = FlagRepresentation(lattice, flag_g)
    r = lattice.r
    got = set(selected_coatoms(lattice, selection))
    valid = []
    f_block, g_block = part_of(rep_f), part_of(rep_g)
    for sub in combinations(lattice.coatoms(), r):
        f_parts = [f_block[c] for c in sub]
        g_parts = [g_block[c] for c in sub]
        if len(set(f_parts)) == r and len(set(g_parts)) == r:
            valid.append(frozenset(sub))
    return frozenset(got) in valid


# -- cross-coatom selection -----------------------------------------------------


def select(lattice, flag_f, flag_g):
    return select_cross_coatoms(
        FlagRepresentation(lattice, flag_f), FlagRepresentation(lattice, flag_g)
    )


def test_selection_identical_flags(u24):
    flag = default_flag(u24)
    sel = select(u24, flag, flag)
    assert sel.distinct()
    # lex-least coatom of each block
    assert selected_coatoms(u24, sel) == (frozenset({"2"}), frozenset({"1"}))


def test_selection_u34_pair(u34):
    f = make_flag(u34, [[], ["1"], ["1", "2"], ["1", "2", "3", "4"]])
    g = make_flag(u34, [[], ["3"], ["3", "4"], ["1", "2", "3", "4"]])
    sel = select(u34, f, g)
    assert sel.distinct()
    assert brute_force_selection_exists(u34, f, g, sel)


def test_selection_rank_one():
    lattice = uniform_matroid(1, 1)
    flag = default_flag(lattice)
    sel = select(lattice, flag, flag)
    assert selected_coatoms(lattice, sel) == (frozenset(),)


def test_selection_all_flag_pairs(u24, u34, bool3, n134):
    for lattice in (u24, u34, bool3, n134):
        flags = all_complete_flags(lattice)
        for f in flags:
            for g in flags:
                sel = select(lattice, f, g)
                assert sel.distinct()
                assert brute_force_selection_exists(lattice, f, g, sel)


def test_selection_fano_sample(fano):
    flags = all_complete_flags(fano)
    sample = [flags[0], flags[1], flags[-1], flags[len(flags) // 2]]
    for f in sample:
        for g in sample:
            sel = select(fano, f, g)
            assert sel.distinct()
            assert brute_force_selection_exists(fano, f, g, sel)


def every_ordered_pair(u24, u34, bool3, n134, fano):
    """(lattice, F, G) for every ordered flag pair of U(3,4), B_3, B_4, the
    Fano plane, N134 and U(2,4): 1,294 pairs."""
    b4 = boolean_matroid(["1", "2", "3", "4"])
    return [
        (lattice, f, g)
        for lattice in (u34, bool3, b4, fano, n134, u24)
        for f in all_complete_flags(lattice)
        for g in all_complete_flags(lattice)
    ]


def selection_fields(sel):
    return (sel.coatoms, sel.g_parts)


def test_selection_matches_oracle_on_every_pair(u24, u34, bool3, n134, fano):
    pairs = every_ordered_pair(u24, u34, bool3, n134, fano)
    assert len(pairs) == 1294
    for lattice, f, g in pairs:
        rep_f, rep_g = representation(lattice, f), representation(lattice, g)
        got = select_cross_coatoms(rep_f, rep_g)
        assert selection_fields(got) == selection_fields(cross_coatom_search_oracle(rep_f, rep_g))


def outcome(select_fn, rep_f, rep_g):
    try:
        return selection_fields(select_fn(rep_f, rep_g))
    except SelectionError:
        return SelectionError


def assign_blocks(rep, blocks):
    """Overwrite a fresh representation's coatom blocks: the k-th coatom in
    key order goes to block blocks[k], or to none where that is None.  The
    ``slot`` and ``halves`` the constructor fills are refilled from the new
    blocks (None for a vertex in no block), and every cached table and
    verdict (each ``cached_property`` of the class, and the built S_G) is
    dropped, so it is rebuilt from them, and every route, the oracles'
    included, sees the same assignment through ``held_parts``."""
    refill(rep, [None if j is None else 2 * j + s for j in blocks for s in (0, 1)])


def refill(rep, slot):
    """Overwrite a fresh representation's ``slot``, each signed vertex's half
    (None for none), refill ``halves`` from it, and drop every cached table
    and verdict, as ``assign_blocks`` does."""
    rep.slot = tuple(slot)
    rep.halves = tuple(tuple(sum(1 << v for v, h in enumerate(rep.slot) if h == 2 * i + s) for s in (0, 1))
                       for i in range(rep.r))
    for name, attr in vars(FlagRepresentation).items():
        if isinstance(attr, cached_property):
            vars(rep).pop(name, None)
    rep._built.clear()


def test_selection_without_perfect_matching_raises(u34):
    # every coatom overwritten into G-block 0: three F-blocks, one G-block
    rep_f = FlagRepresentation(u34, default_flag(u34))
    rep_g = FlagRepresentation(u34, default_flag(u34))
    assign_blocks(rep_g, [0] * len(u34.coatoms()))
    for select_fn in (select_cross_coatoms, select_cross_coatoms_oracle, cross_coatom_search_oracle):
        with pytest.raises(SelectionError):
            select_fn(rep_f, rep_g)


def test_selection_where_an_f_block_meets_no_g_block_raises(u34):
    # the coatoms of F-block 0 (the default flag's) are in no G-block: the
    # descending scan must stop at G-block 0, where a negative index would
    # wrap round to the top block and then run off the list
    rep_f = FlagRepresentation(u34, default_flag(u34))
    block_0 = set(held_parts(rep_f)[0])
    for others in range(3):
        rep_g = FlagRepresentation(u34, default_flag(u34))
        assign_blocks(rep_g, [None if c in block_0 else others for c in u34.coatoms()])
        with pytest.raises(SelectionError, match="meets no G-block"):
            select_cross_coatoms(rep_f, rep_g)
    rep_g = FlagRepresentation(u34, default_flag(u34))
    assign_blocks(rep_g, [None] * len(u34.coatoms()))
    with pytest.raises(SelectionError, match="meets no G-block"):
        select_cross_coatoms(rep_f, rep_g)


def test_selection_on_two_lattices_raises(u34, n134, bool3):
    # U(3,4) and N134 share their ground set and rank, but not their coatoms
    for one, other in ((u34, n134), (n134, u34), (u34, bool3), (bool3, u34)):
        rep_f = representation(one, default_flag(one))
        rep_g = representation(other, default_flag(other))
        with pytest.raises(SelectionError, match="different lattices"):
            select_cross_coatoms(rep_f, rep_g)
    # an equal lattice built twice has the same signed vertices, so it reads the same
    twin = uniform_matroid(3, 4)
    sel = select_cross_coatoms(representation(u34, default_flag(u34)), representation(twin, default_flag(twin)))
    assert sel == select_cross_coatoms(*[representation(u34, default_flag(u34))] * 2)


def test_selection_matches_oracle_on_every_block_assignment(u34):
    # each of U(3,4)'s six coatoms sent to each of three G-blocks.  Where the
    # F-blocks' highest G-blocks are distinct they are the only perfect
    # matching, so the oracle's search finds them too; elsewhere the
    # selection refuses, though a search may still match.  No pair of flags
    # gives a graph of the second kind
    rep_f = FlagRepresentation(u34, default_flag(u34))
    rep_g = FlagRepresentation(u34, default_flag(u34))
    coatoms = u34.coatoms()
    matched = searched = 0
    for blocks in product(range(3), repeat=len(coatoms)):
        assign_blocks(rep_g, blocks)
        got = outcome(select_cross_coatoms, rep_f, rep_g)
        assert got == outcome(select_cross_coatoms_oracle, rep_f, rep_g), blocks
        oracle = outcome(cross_coatom_search_oracle, rep_f, rep_g)
        highest = [max(part_of(rep_g)[c] for c in block) for block in held_parts(rep_f)]
        if len(set(highest)) == len(highest):
            assert got == oracle, blocks
            matched += 1
        else:
            assert got is SelectionError, blocks
            searched += oracle is not SelectionError
    assert (matched, searched) == (126, 372)


def test_g_parts_are_the_jordan_hoelder_permutation(u24, u34, bool3, n134, fano):
    # pi(i) = max{j : F_{i+1} not below F_i v G_j}, from the lattice's joins
    for lattice, f, g in every_ordered_pair(u24, u34, bool3, n134, fano):
        sel = select_cross_coatoms(representation(lattice, f), representation(lattice, g))
        pi = tuple(
            max(j for j in range(lattice.r) if not f[i + 1] <= lattice_join(lattice, f[i], g[j]))
            for i in range(lattice.r)
        )
        assert sel.g_parts == pi, (f.chain, g.chain)


# -- retraction -------------------------------------------------------------------


def test_retraction_same_flag_u24(u24):
    flag = default_flag(u24)
    desc = retraction_map(u24, flag, flag)
    # image is the square boundary on the selected coatoms
    polytope = cross_polytope_complex(u24, selected_coatoms(u24, desc.selection))
    assert len(polytope.vertices) == 4
    assert len(polytope.maximal_faces) == 4
    assert verify_retraction(desc).ok


def test_retraction_bool3_is_relabelling(bool3):
    flags = all_complete_flags(bool3)
    desc = retraction_map(bool3, flags[0], flags[1])
    held = materialise(desc)
    # singleton blocks force a bijection onto the octahedron
    assert len(set(held.vertex_map.values())) == len(held.vertex_map)
    assert len(held.polytope) == 8
    assert verify_retraction(desc).ok


def test_retraction_u34_images_are_polytope_facets(u34):
    f = make_flag(u34, [[], ["1"], ["1", "2"], ["1", "2", "3", "4"]])
    g = make_flag(u34, [[], ["3"], ["3", "4"], ["1", "2", "3", "4"]])
    desc = retraction_map(u34, f, g)
    held = materialise(desc)
    source = desc.source.build(u34.bottom)
    for mface in label_faces(source):
        image = frozenset(held.vertex_map[v] for v in mface)
        assert vertex_mask(image) in held.polytope
    assert verify_retraction(desc).ok


def test_retraction_all_flag_pairs(u24, u34, bool3, n134):
    from matroid_spheres import reduced_homology, sphere_profile

    for lattice in (u24, u34, bool3, n134):
        flags = all_complete_flags(lattice)
        profiles = {}
        for f in flags:
            rep = FlagRepresentation(lattice, f)
            profiles[f.chain] = reduced_homology(rep.build(lattice.bottom))
        want = sphere_profile(lattice.r - 1)
        assert all(p == want for p in profiles.values())
        for f in flags:
            for g in flags:
                desc = retraction_map(lattice, f, g)
                report = verify_retraction(desc)
                assert report.ok, (f.chain, g.chain, report.lines())


def test_retraction_fano_pairs(fano):
    flags = all_complete_flags(fano)
    pairs = [(flags[0], flags[1]), (flags[0], flags[-1])]
    for f, g in pairs:
        assert verify_retraction(retraction_map(fano, f, g)).ok


# -- one representation per (lattice, flag) ---------------------------------------------
#
# ``representation`` memoizes ``FlagRepresentation``; the tests build fresh
# ones as the oracle, and never poison the caches of a memoized one.


def test_equal_flags_share_one_representation(u34):
    rep = representation(u34, make_flag(u34, PAPER_FLAG))
    assert rep is representation(u34, make_flag(u34, PAPER_FLAG))
    assert retraction_map(u34, rep.flag, rep.flag).source is rep


def test_embedding_reads_the_memoized_representation(u34_vec):
    emb = build_embedding(covectors_from_vectors(u34_vec))
    assert emb.rep is representation(emb.lattice, emb.flag)


def test_equal_chains_of_different_lattices_get_different_representations(u34, n134):
    # both lattices have the flag 0 < 1 < 12 < 1234; U(3,4) has 6 coatoms, N134 4
    rep_u, rep_n = representation(u34, make_flag(u34, PAPER_FLAG)), representation(
        n134, make_flag(n134, PAPER_FLAG))
    assert rep_u.flag == rep_n.flag
    assert rep_u is not rep_n
    assert (rep_u.lattice, rep_n.lattice) == (u34, n134)
    assert held_parts(rep_u) != held_parts(rep_n)


def test_representation_memo_is_bounded():
    bound = topology._HOMOLOGY_MEMO_SIZE
    assert representation.cache_info().maxsize == bound
    for _ in range(bound + 10):  # each lattice is a new key
        lattice = uniform_matroid(2, 3)
        assert representation(lattice, default_flag(lattice)).lattice is lattice
    assert representation.cache_info().currsize == bound  # full, never past the bound


def retraction_fields(desc):
    return (desc.selection, desc.source.slot, desc.target.slot, verify_retraction(desc).to_json())


def test_memoized_retractions_match_fresh_representations(u34, bool3, fano, monkeypatch):
    lattices = [u34, bool3, boolean_matroid(["1", "2", "3", "4"]), fano]
    for lattice in lattices:
        flags = all_complete_flags(lattice)
        memoized = [retraction_map(lattice, f, g) for f in flags for g in flags]
        with monkeypatch.context() as m:
            m.setattr(maps, "representation", FlagRepresentation)
            fresh = [retraction_map(lattice, f, g) for f in flags for g in flags]
        assert all(d.source is not representation(lattice, d.source.flag) for d in fresh)
        assert len(memoized) == len(flags) ** 2
        for desc, oracle in zip(memoized, fresh):
            assert retraction_fields(desc) == retraction_fields(oracle)
    assert len(all_complete_flags(fano)) ** 2 == 441


# -- the mask route against the oracle route ------------------------------------------
#
# ``retraction_oracle`` selects by a dict per F-block and maps each signed
# coatom through its label dict; ``verify_retraction_oracle`` maps each
# image half read off ``slot`` and adds the lines one by one.


def route(desc):
    """Everything a pair's retraction and certificate show, the formula's
    map in its order and the polytope materialised."""
    held = materialise(desc)
    return (desc.selection, list(held.vertex_map.items()), held.polytope, verify_retraction(desc).to_json())


def oracle_route(lattice, f, g):
    oracle = retraction_oracle(lattice, f, g)
    return (oracle.selection, list(oracle.vertex_map.items()), oracle.polytope,
            verify_retraction_oracle(oracle).to_json())


def test_mask_route_matches_the_oracle_route_on_every_pair(u34, bool3, fano):
    # U(4,6)'s blocks hold several coatoms each, so the lowest shared bit picks among them
    pairs = 0
    for lattice in (u34, bool3, boolean_matroid("1234"), fano, uniform_matroid(4, 6)):
        flags = all_complete_flags(lattice)
        for f in flags:
            for g in flags:
                assert route(retraction_map(lattice, f, g)) == oracle_route(lattice, f, g), (f.chain, g.chain)
                pairs += 1
    assert pairs == 144 + 36 + 576 + 441 + 120 ** 2


@lru_cache(maxsize=None)
def random_lattice(kind, r, n):
    """U(r,n), or B_r for kind "boolean", with its flags, built once per
    test session so that its representations are shared as in production."""
    lattice = boolean_matroid(range(r)) if kind == "boolean" else uniform_matroid(r, n)
    return lattice, all_complete_flags(lattice)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(st.sampled_from(["uniform", "boolean"]), st.integers(1, 5), st.integers(0, 3), st.data())
def test_mask_route_matches_the_oracle_route_on_random_pairs(kind, r, extra, data):
    lattice, flags = random_lattice(kind, r, r if kind == "boolean" else r + extra)
    f = data.draw(st.sampled_from(flags))
    g = data.draw(st.sampled_from(flags))
    desc = retraction_map(lattice, f, g)
    assert route(desc) == oracle_route(lattice, f, g)
    assert verify_retraction(desc).ok


# -- retraction certificate on mutated descriptors -----------------------------------
#
# A mutant is a new descriptor: a selection other than the one
# ``select_cross_coatoms`` reads off, or a fresh representation whose S_0
# lost a facet.  ``MUTANTS`` names, for each line of ``maps._LINES``, a
# mutant that fails it, with every line that mutant fails.  A selection
# that is no r distinct coatoms, or an S_0 that is not the join, breaks the
# lemma of ``verify_retraction``, and the lines it would prove fail.


def failing(desc):
    return {c.name for c in verify_retraction(desc).failures()}


def swapped_selection(desc):
    """Swap the first two blocks' selected coatoms: each block still goes
    onto one selected pair, so the polytope is unchanged, but C_1, now
    selected for block 0, lies in block 1 and goes to C_0, no fixed image."""
    sel = desc.selection
    if len(sel.coatoms) < 2:
        return None
    coatoms = (sel.coatoms[1], sel.coatoms[0]) + sel.coatoms[2:]
    return RetractDescriptor(CrossSelection(coatoms, sel.g_parts), desc.source, desc.target)


def two_from_one_block(desc):
    """In place of C_j, an unselected coatom of another F-block i that lies
    in C_j's G-block: the polytope still meets each G-block once, so it lies
    in the target's S_0, but it holds two coatoms of F-block i, so not in
    the source's, and block j goes onto a coatom of block i, no fixed image."""
    sel, lattice = desc.selection, desc.source.lattice
    f_block, g_block = part_of(desc.source), part_of(desc.target)
    chosen = selected_coatoms(lattice, sel)
    for j, c_j in enumerate(chosen):
        for k, c in enumerate(lattice.coatoms()):
            if c not in chosen and f_block[c] != j and g_block[c] == g_block[c_j]:
                coatoms = sel.coatoms[:j] + (k,) + sel.coatoms[j + 1:]
                return RetractDescriptor(CrossSelection(coatoms, sel.g_parts), desc.source, desc.target)
    return None


def minus_in_the_plus_half(desc):
    """A fresh representation of the source's flag whose ``slot`` holds the
    - vertex of the first block of several's selected coatom C_i in that
    block's + half (``halves`` refilled): C_i- goes to C_i+ while the
    block's other - vertices go to C_i-, an image the map moves."""
    source, sel = desc.source, desc.selection
    i = next((i for i, b in enumerate(held_parts(source)) if len(b) > 1), None)
    if i is None:
        return None
    rep = FlagRepresentation(source.lattice, source.flag)
    slot = list(rep.slot)
    slot[2 * sel.coatoms[i] + 1] = 2 * i
    refill(rep, slot)
    return RetractDescriptor(sel, rep, desc.target)


LEMMA_LINES = {"polytope-in-source", "polytope-in-target", "simplicial", "idempotent", "composite-simplicial"}
SOURCE_FAILS = {"source-sphere", "polytope-in-source", "simplicial", "composite-simplicial"}
TARGET_FAILS = {"target-sphere", "polytope-in-target", "composite-simplicial"}

MUTANTS = {  # line: (a mutant that fails it, every line that mutant fails)
    "selection-distinct": (repeated_g_part, {"selection-distinct"}),
    "polytope-in-source": (two_from_one_block, {"polytope-in-source", "idempotent"}),
    "polytope-in-target": (poisoned_target, TARGET_FAILS),
    "simplicial": (poisoned_source, SOURCE_FAILS),
    "idempotent": (swapped_selection, {"idempotent"}),
    "composite-simplicial": (poisoned_target, TARGET_FAILS),
    "source-sphere": (poisoned_source, SOURCE_FAILS),
    "target-sphere": (poisoned_target, TARGET_FAILS),
    "polytope-sphere": (repeated_coatom, {"polytope-sphere"} | LEMMA_LINES),
}


KINDS = {  # each mutant once, with every line it fails: the table's, and one more
    "repeated g-part": MUTANTS["selection-distinct"],
    "two from one block": MUTANTS["polytope-in-source"],
    "poisoned target": MUTANTS["target-sphere"],
    "poisoned source": MUTANTS["source-sphere"],
    "swapped selection": MUTANTS["idempotent"],
    "repeated coatom": MUTANTS["polytope-sphere"],
    "minus in the plus half": (minus_in_the_plus_half, {"idempotent"}),
}


def test_every_line_has_a_mutant():
    assert list(MUTANTS) == [fail.name for fail, _ in maps._LINES]
    assert all(line in checks and (mutate, checks) in KINDS.values() for line, (mutate, checks) in MUTANTS.items())


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_mutated_retraction_fails_its_check(kind, u24, u34, bool3):
    mutate, checks = KINDS[kind]
    applied = 0
    for lattice in (u24, u34, bool3):
        flags = all_complete_flags(lattice)
        for f in flags:
            for g in flags:
                desc = retraction_map(lattice, f, g)
                assert not failing(desc)
                mutated = mutate(desc)
                if mutated is not None:
                    applied += 1
                    assert failing(mutated) == checks, (kind, f.chain, g.chain)
    assert applied, kind


def every_mutant(lattices):
    """(kind, mutant) for each of ``KINDS`` that applies, on every ordered
    flag pair."""
    for lattice in lattices:
        flags = all_complete_flags(lattice)
        for f in flags:
            for g in flags:
                desc = retraction_map(lattice, f, g)
                for kind, (mutate, _) in sorted(KINDS.items()):
                    mutated = mutate(desc)
                    if mutated is not None:
                        yield kind, mutated


def lemma_holds(desc):
    """The lemma's preconditions: r distinct coatoms selected, and the
    source's S_0 the join."""
    chosen = desc.selection.coatoms
    return len(chosen) == len(set(chosen)) == desc.source.r and desc.source.join_holds


def test_map_onto_a_non_fixed_image_fails_idempotent_as_the_oracle_does(u34, fano):
    # verify_retraction asks that each selected vertex be held in its own
    # block's half of its sign; the general route maps each image again,
    # and the oracle reads each image half off ``slot``.  Every block order
    # of U(3,4) and Fano holds a block of several.
    applied = 0
    for lattice in (u34, fano):
        flags = all_complete_flags(lattice)
        for f in flags:
            for g in flags:
                mutated = minus_in_the_plus_half(retraction_map(lattice, f, g))
                report = verify_retraction(mutated)
                held = materialise(mutated)
                assert (report.to_json() == verify_retraction_general(held).to_json()
                        == verify_retraction_oracle(held).to_json()), (f.chain, g.chain)
                assert failing(mutated) == {"idempotent"}
                applied += 1
    assert applied == 144 + 441


# -- the face lines compare int masks ------------------------------------------------
#
# ``retraction_face_lines_oracle`` reads the face lines by ``has_face`` on
# the complexes as held, each facet of S_0 mapped vertex by vertex through
# the materialised formula.  Where the lemma's preconditions hold the two
# agree; where they do not, a line the oracle fails fails too.


FACE_LINES = ("polytope-in-source", "polytope-in-target", "simplicial", "composite-simplicial")


def face_lines(desc):
    report = verify_retraction(desc)
    return {line: report[line].passed for line in FACE_LINES}


def test_face_lines_match_the_has_face_oracle_on_every_pair(u34, bool3, fano):
    # rank 0 (one loop): S_0 is the join of no blocks, whose one facet is empty
    rank0 = lattice_from_flats(["1"], [["1"]])
    pairs = 0
    for lattice in (rank0, u34, bool3, boolean_matroid(["1", "2", "3", "4"]), fano):
        flags = all_complete_flags(lattice)
        for f in flags:
            for g in flags:
                desc = retraction_map(lattice, f, g)
                assert face_lines(desc) == retraction_face_lines_oracle(materialise(desc)), (f.chain, g.chain)
                assert verify_retraction(desc).ok
                pairs += 1
    assert pairs == 1198


def test_face_lines_match_the_has_face_oracle_on_every_mutant(u24, u34, bool3):
    kinds = set()
    for kind, mutated in every_mutant((u24, u34, bool3)):
        got, want = face_lines(mutated), retraction_face_lines_oracle(materialise(mutated))
        if lemma_holds(mutated):
            assert got == want, kind
        else:
            assert all(want[line] for line in FACE_LINES if got[line]), kind
        kinds.add(kind)
    assert kinds == set(KINDS)


def poisoned_descriptors(lattice):
    """(name, descriptor, failing lines) for an S_0 that lost a facet, and
    one with a facet grown by the other sign of one of its coatoms, each as
    source and as target of the default flag's pair with itself."""
    flag = default_flag(lattice)
    clean = retraction_map(lattice, flag, flag)
    s0 = clean.source.build(lattice.bottom)
    facets = sorted_faces(s0)
    coatom, sign = lattice.vertex_label(next(iter(facets[0])))
    mixed = facets[0] | {clean.source.vertex(frozenset(coatom), "-" if sign == "+" else "+")}
    for name, poison in (("dropped", facets[1:]), ("mixed", facets[1:] + [mixed])):
        rep = poisoned(lattice, flag, poison)
        yield f"{name} source", RetractDescriptor(clean.selection, rep, clean.target), SOURCE_FAILS
        yield f"{name} target", RetractDescriptor(clean.selection, clean.source, rep), TARGET_FAILS


def test_poisoned_s0_fails_its_lines_without_raising(u34, bool3):
    for lattice in (u34, bool3):
        for name, desc, lines in poisoned_descriptors(lattice):
            assert failing(desc) == lines, name
    assert verify_retraction(retraction_map(u34, default_flag(u34), default_flag(u34))).ok


def test_polytope_grown_by_a_foreign_vertex_fails_without_raising(u24, u34, bool3, fano):
    # a position of no coatom, appended to the selection (the polytope grown
    # by a pair of foreign vertices), in place of C_0, or negative, and a
    # selection missing its last coatom: none holds r distinct coatoms, and
    # the lemma's lines fail
    for lattice in (u24, u34, bool3, fano):
        flags = all_complete_flags(lattice)
        n = len(lattice.coatoms())
        for f, g in ((flags[0], flags[-1]), (flags[-1], flags[0])):
            desc = retraction_map(lattice, f, g)
            sel = desc.selection
            for coatoms in (sel.coatoms + (n,), (n,) + sel.coatoms[1:], (-1,) + sel.coatoms[1:],
                            sel.coatoms[:-1]):
                grown = RetractDescriptor(CrossSelection(coatoms, sel.g_parts), desc.source, desc.target)
                assert failing(grown) == {"polytope-sphere"} | LEMMA_LINES, coatoms


def test_two_coatoms_of_one_block_fail_polytope_in_source(u34, fano):
    # the polytope is the join over r distinct coatoms, so verify_retraction
    # reads the polytope lines off them, and that route must refuse; the
    # oracle scans the polytope's facet masks block by block
    applied = 0
    for lattice in (u34, fano, uniform_matroid(4, 6)):
        flags = all_complete_flags(lattice)
        for f in flags:
            for g in flags:
                mutated = two_from_one_block(retraction_map(lattice, f, g))
                if mutated is None:
                    continue
                report = verify_retraction(mutated)
                held = materialise(mutated)
                assert report.to_json() == verify_retraction_oracle(held).to_json(), (f.chain, g.chain)
                assert failing(mutated) == {"polytope-in-source", "idempotent"}, (f.chain, g.chain)
                if lattice is u34:
                    assert face_lines(mutated) == retraction_face_lines_oracle(held), (f.chain, g.chain)
                applied += 1
    assert applied == 132 + 420 + 14280  # the pairs with an unselected coatom of that kind


def test_face_lines_of_the_selected_join_scan_no_block(monkeypatch, u24, u34, bool3, fano):
    # every face line is read off the selection by ``apart``, r ANDs: no
    # set of masks is built or scanned block by block, on a clean pair or a mutant
    from matroid_spheres import spheres

    descs = [retraction_map(lattice, f, g) for lattice in (u34, boolean_matroid("1234"), fano)
             for f in all_complete_flags(lattice) for g in all_complete_flags(lattice)]
    descs += [d for _, d in every_mutant((u24, u34, bool3))]
    reports = [verify_retraction(d).to_json() for d in descs]  # each S_0's join certificate, once
    with monkeypatch.context() as m:
        m.setattr(FlagRepresentation, "is_face", lambda *a: pytest.fail("block scan"))
        m.setattr(spheres, "_unions", lambda *a: pytest.fail("mask set built"))
        assert [verify_retraction(d).to_json() for d in descs] == reports
    assert sum(r["ok"] for r in reports) == 144 + 576 + 441


def test_verify_retraction_scans_no_facets(monkeypatch, u24, u34, bool3):
    # the descriptors are built first, as the mutations scan facets themselves
    descs = [mutated for _, mutated in every_mutant((u24, u34, bool3))]
    descs += [retraction_map(bool3, f, g) for f in all_complete_flags(bool3) for g in all_complete_flags(bool3)]
    descs += [d for _, d, _ in poisoned_descriptors(u34)]
    with monkeypatch.context() as m:
        m.setattr(SimplicialComplex, "has_face", lambda *a: pytest.fail("has_face called"))
        m.setattr(SimplicialComplex, "is_subcomplex_of", lambda *a: pytest.fail("is_subcomplex_of called"),
                  raising=False)
        assert sum(verify_retraction(d).ok for d in descs) == 36


# -- one route against the general route -----------------------------------------------
#
# ``verify_retraction_general`` builds the image set of the materialised
# map on every descriptor.  The read-off must give the same report,
# details included, on every pair, and on every mutant whose selection and
# source meet the lemma's preconditions; on the others it passes no line
# the general route fails.


def report_json(desc):
    return verify_retraction(desc).to_json()


def test_read_off_matches_the_general_route_on_every_pair(u24, u34, bool3, n134, fano):
    rank0 = lattice_from_flats(["1"], [["1"]])  # r = 0: the lemma holds vacuously
    u46 = uniform_matroid(4, 6)
    flags_46 = all_complete_flags(u46)
    rng = random.Random(31)
    pairs = [(lattice, f, g) for lattice in (rank0, u24, u34, bool3, boolean_matroid("1234"), n134, fano)
             for f in all_complete_flags(lattice) for g in all_complete_flags(lattice)]
    pairs += [(u46, rng.choice(flags_46), rng.choice(flags_46)) for _ in range(300)]
    for lattice, f, g in pairs:
        desc = retraction_map(lattice, f, g)
        held = materialise(desc)
        report = report_json(desc)
        assert report == verify_retraction_general(held).to_json() == verify_retraction_oracle(held).to_json(), (
            f.chain, g.chain)
        assert report["ok"]
    assert len(pairs) == 1 + 16 + 144 + 36 + 576 + len(all_complete_flags(n134)) ** 2 + 441 + 300


def test_read_off_matches_the_general_route_on_every_mutant(u24, u34, bool3, fano):
    kinds, verdicts = {}, set()
    mutants = list(every_mutant((u24, u34, bool3)))
    mutants += [(name, desc) for lattice in (u34, bool3) for name, desc, _ in poisoned_descriptors(lattice)]
    mutants += [("two from one block", two_from_one_block(retraction_map(fano, f, g)))
                for f in all_complete_flags(fano)[:3] for g in all_complete_flags(fano)]
    for kind, mutated in mutants:
        if mutated is None:
            continue
        report, general = report_json(mutated), verify_retraction_general(materialise(mutated)).to_json()
        if lemma_holds(mutated):
            assert report == general, kind
        else:  # the lines the lemma would prove fail, and no line the general route fails passes
            assert all(g["passed"] or not c["passed"] for c, g in zip(report["checks"], general["checks"])), kind
            assert not any(c["passed"] for c in report["checks"] if c["name"] in ("simplicial", "composite-simplicial"))
        assert not report["ok"], kind
        kinds[kind] = kinds.get(kind, 0) + 1
        verdicts.add(tuple(c["passed"] for c in report["checks"]))
    assert set(KINDS) <= set(kinds)
    # one record tuple per verdict tuple met, and no more than there are
    assert verdicts <= set(maps._RECORDS) and len(maps._RECORDS) <= 2 ** 9


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(st.integers(1, 4), st.integers(0, 2), st.data())
def test_any_selection_passes_no_line_the_general_route_fails(r, extra, data):
    # any tuple of positions, a position of no coatom included, in place of
    # an honest pair's selection: the report never raises, it equals the
    # general route's where the lemma's preconditions hold, and elsewhere
    # it fails every line the selection would prove
    lattice, flags = random_lattice("uniform", r, r + extra)
    n = len(lattice.coatoms())
    desc = retraction_map(lattice, data.draw(st.sampled_from(flags)), data.draw(st.sampled_from(flags)))
    coatoms = tuple(data.draw(st.lists(st.integers(-1, n), max_size=r + 1)))
    mutated = RetractDescriptor(CrossSelection(coatoms, desc.selection.g_parts), desc.source, desc.target)
    report = report_json(mutated)
    if lemma_holds(mutated) and all(0 <= k < n for k in coatoms):
        assert report == verify_retraction_general(materialise(mutated)).to_json()
    else:
        assert LEMMA_LINES | {"polytope-sphere"} <= {c["name"] for c in report["checks"] if not c["passed"]}


def test_honest_pairs_take_the_read_off(monkeypatch, u34, fano):
    # no S_G is built and no image set, on every honest pair, past each
    # representation's own join certificate; a representation that holds a
    # - vertex in its + half fails idempotent on both signs' reads
    from matroid_spheres import spheres

    lattices = (u34, boolean_matroid("1234"), fano)
    descs = [retraction_map(lattice, f, g) for lattice in lattices
             for f in all_complete_flags(lattice) for g in all_complete_flags(lattice)]
    moved = minus_in_the_plus_half(retraction_map(u34, default_flag(u34), default_flag(u34)))
    assert all(d.source.join_holds and d.target.join_holds for d in descs + [moved])
    assert not {"_unions", "half_masks", "are_faces", "selection_masks", "Retraction"} & set(vars(maps))
    with monkeypatch.context() as m:
        m.setattr(spheres, "_unions", lambda *a: pytest.fail("image set built"))
        m.setattr(FlagRepresentation, "build", lambda *a: pytest.fail("S_G built"))
        assert all(verify_retraction(d).ok for d in descs)
        assert failing(moved) == {"idempotent"}
    assert len(descs) == 144 + 576 + 441


def test_the_formula_map_is_the_dict_it_replaces(u24, u34, bool3, n134, fano):
    # the formula the oracle routes are fed, against the dict the oracle
    # builds label by label through ``vertex_table`` and ``parts_oracle``
    rank0 = lattice_from_flats(["1"], [["1"]])
    pairs = 0
    for lattice in (rank0, u24, u34, bool3, boolean_matroid("1234"), n134, fano):
        flags, n = all_complete_flags(lattice), 2 * len(lattice.coatoms())
        for f in flags:
            for g in flags:
                held = formula_map(retraction_map(lattice, f, g))
                assert list(held.items()) == list(retraction_oracle(lattice, f, g).vertex_map.items())
                assert list(held) == list(range(n)), (f.chain, g.chain)
                pairs += 1
    assert pairs == 1 + 16 + 144 + 36 + 576 + len(all_complete_flags(n134)) ** 2 + 441


def test_equal_verdicts_share_records_in_fresh_lists(u34):
    flags = all_complete_flags(u34)
    first = verify_retraction(retraction_map(u34, flags[0], flags[-1]))
    second = verify_retraction(retraction_map(u34, flags[-1], flags[0]))
    lines = second.lines()
    assert first.checks is not second.checks and all(map(is_, first.checks, second.checks))
    first.add("x", False)  # as the CLI adds its selection line
    assert second.lines() == lines and second.ok and not first.ok and len(first.lines()) == len(lines) + 1
    assert len(maps._RECORDS) <= 2 ** 9


def test_report_lines_are_the_records_their_constructor_builds():
    report, other = ValidationReport(), ValidationReport()
    report.add("a", 1, "why")
    other.add("a", True, "why")
    report.extend(other, prefix="p/")
    built = [CheckResult("a", True, "why"), CheckResult("p/a", True, "why")]
    assert report.checks == built and list(map(hash, report.checks)) == list(map(hash, built))
    assert repr(report.checks[0]) == "CheckResult(name='a', passed=True, detail='why')"
    assert report.checks[0].passed is True
    with pytest.raises(AttributeError):
        report.checks[0].passed = False


class _BoundedLines(list):
    """A report's line list that fails, rather than grows without end, past 8 lines."""

    def append(self, check):
        assert len(self) < 8, "extend kept reading the lines it appended"
        super().append(check)


def test_a_report_extended_by_itself_doubles_its_lines():
    report = ValidationReport(_BoundedLines())
    report.add("a", True)
    report.add("b", False, "why")
    report.extend(report, prefix="p/")
    assert report.lines() == ["a: PASS", "b: FAIL (why)", "p/a: PASS", "p/b: FAIL (why)"]


# -- the sphere lines read the join certificate ---------------------------------------


SPHERE_LINES = ("source-sphere", "target-sphere", "polytope-sphere")


def test_sphere_lines_match_homology_on_every_pair(u34, bool3, fano):
    lattices = (u34, bool3, boolean_matroid(["1", "2", "3", "4"]), fano)
    pairs = 0
    for lattice in lattices:
        flags = all_complete_flags(lattice)
        for f in flags:
            for g in flags:
                desc = retraction_map(lattice, f, g)
                report = verify_retraction(desc)
                complexes = (desc.source.build(lattice.bottom), desc.target.build(lattice.bottom),
                             cross_polytope_complex(lattice, selected_coatoms(lattice, desc.selection)))
                for line, complex_ in zip(SPHERE_LINES, complexes):
                    assert report[line].passed is is_homology_sphere(complex_, lattice.r - 1) is True
                pairs += 1
    assert pairs == 144 + 36 + 576 + 441


def test_poisoned_s0_fails_the_sphere_lines(u34):
    # a fresh representation whose S_0 lost one facet: as source and target
    flag = default_flag(u34)
    rep = FlagRepresentation(u34, flag)
    s0 = rep.build(u34.bottom)
    dropped = sorted_faces(s0)[1:]
    rep._built[u34.bottom] = complex_of(dropped, s0.vertices)
    clean = retraction_map(u34, flag, flag)
    desc = RetractDescriptor(clean.selection, rep, rep)
    assert {"source-sphere", "target-sphere"} <= failing(desc)
    assert "polytope-sphere" not in failing(desc)
    assert verify_retraction(clean).ok  # the memoized representation is untouched


def test_polytope_with_a_repeated_coatom_fails(u34):
    flags = all_complete_flags(u34)
    desc = retraction_map(u34, flags[0], flags[-1])
    sel = desc.selection
    repeated = CrossSelection(sel.coatoms[:1] * len(sel.coatoms), sel.g_parts)
    assert "polytope-sphere" in failing(RetractDescriptor(repeated, desc.source, desc.target))


def test_join_lines_run_no_homology_no_z2_check_and_no_facet_scan(monkeypatch, u34, bool3, u34_vec):
    # retraction: no homology, not even a memo hit; arrangement: no
    # z2_free_check; embedding: no S_G built and no facet scanned, past the
    # representation's own join certificate, which builds S_0 once per
    # (lattice, flag) and which verify and flags compare share
    from matroid_spheres import spheres

    def refuse(what):
        return lambda *a, **k: pytest.fail(what)

    assert not {"reduced_homology", "z2_free_check", "topology"} & set(vars(maps))
    assert not [name for name, x in vars(maps).items() if getattr(x, "__module__", "") == topology.__name__]
    assert not {"reduced_homology", "z2_free_check"} & set(vars(spheres))
    assert not hasattr(topology, "z2_free_check")  # the face-scan route is a test oracle
    emb = build_embedding(covectors_from_vectors(u34_vec))
    assert emb.rep.join_holds
    before = topology.reduced_homology.cache_info()
    with monkeypatch.context() as m:
        m.setattr(topology, "reduced_homology", refuse("homology computed"))
        m.setattr(topology, "smith_invariant_factors", refuse("Smith normal form computed"))
        for lattice in (u34, bool3):
            flags = all_complete_flags(lattice)
            for f in flags:
                assert verify_arrangement(FlagRepresentation(lattice, f)).ok
                for g in flags:
                    assert verify_retraction(retraction_map(lattice, f, g)).ok
    after = topology.reduced_homology.cache_info()
    assert after.hits + after.misses == before.hits + before.misses
    with monkeypatch.context() as m:
        m.setattr(FlagRepresentation, "build", refuse("S_G built"))
        m.setattr(FlagRepresentation, "construct", refuse("S_G built"))
        m.setattr(SimplicialComplex, "has_face", refuse("facets scanned"))
        assert verify_embedding(emb).ok


# -- weak maps ----------------------------------------------------------------------


def test_weak_map_matroid(u34, n134):
    assert is_weak_map_matroid(u34, n134).verdict
    assert is_weak_map_matroid(u34, u34).verdict
    back = is_weak_map_matroid(n134, u34)
    assert not back.verdict
    assert tuple(sorted(back.witnesses[0])) == ("1", "3", "4")


def test_weak_map_requires_same_ground_set(u24, bool3):
    with pytest.raises(MatroidInputError):
        is_weak_map_matroid(u24, bool3)


def test_poset_map_search_requires_same_ground_set(u24, bool3):
    # the CLI refuses at the weak-map check first, so only the library reaches this
    for m, n in ((u24, bool3), (bool3, u24)):
        with pytest.raises(MatroidInputError, match="search needs a shared ground set"):
            poset_map_search(m, n, default_flag(m))


def test_weak_map_antisymmetry(u24, u34, n134):
    # mutual weak maps force identical rank functions
    from itertools import combinations as comb

    for m, n in ((u34, n134), (n134, u34)):
        both = is_weak_map_matroid(m, n).verdict and is_weak_map_matroid(n, m).verdict
        same_rank = all(
            m.rank_of_subset(s) == n.rank_of_subset(s)
            for k in range(5)
            for s in comb(m.elements, k)
        )
        assert both == same_rank


def weak_map_subset_oracle(m, n):
    """Every subset A with rank_M(A) < rank_N(A), by size, then in
    combinations order over M's ground order."""
    return [
        subset
        for k in range(len(m.elements) + 1)
        for subset in combinations(m.elements, k)
        if m.rank_of_subset(subset) < n.rank_of_subset(subset)
    ]


@st.composite
def matroid_pairs(draw):
    """Two matroids on one ground set 1..n: uniform, Boolean or rational
    linear (loops included), the second listing its ground set in a drawn
    order."""
    n = draw(st.integers(1, 6))
    labels = [str(i) for i in range(1, n + 1)]

    def matroid(elements):
        kind = draw(st.sampled_from(["uniform", "boolean", "linear"]))
        if kind == "uniform":
            u = uniform_matroid(draw(st.integers(1, n)), n)
            return GeometricLattice(elements, u.flats, u.rank_of)
        if kind == "boolean":
            return boolean_matroid(elements)
        d = draw(st.integers(1, 3))
        columns = draw(st.lists(st.lists(st.integers(-2, 2), min_size=d, max_size=d),
                                min_size=n, max_size=n))
        return linear_matroid(columns, None, elements)

    return matroid(labels), matroid(draw(st.permutations(labels)))


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(matroid_pairs())
def test_weak_map_flats_match_subset_oracle(pair):
    # the witnesses are the oracle's subsets that are flats of M, in its order
    for m, n in (pair, pair[::-1]):
        oracle = weak_map_subset_oracle(m, n)
        report = is_weak_map_matroid(m, n)
        assert report.verdict == (not oracle)
        assert report.witnesses == tuple(a for a in oracle if frozenset(a) in m)


def test_weak_map_covectors(u24_vec):
    # the identity is a weak map of oriented matroids iff every covector of
    # N lies below one of M; then it is a weak map of the underlying matroids
    def witnesses(m, n):
        return [x for x in sorted(tuples(n, n.covectors)) if not any(cov_leq(x, y) for y in tuples(m, m.covectors))]

    m = covectors_from_vectors(u24_vec)
    assert not witnesses(m, m)
    # rotate element 3 onto element 2's line: a specialization
    degenerate = vector_config([[1, 0], [0, 1], [0, 1], [1, -1]])
    n = covectors_from_vectors(degenerate)
    assert not witnesses(m, n)
    assert is_weak_map_matroid(m.lattice, n.lattice).verdict
    assert witnesses(n, m)


# -- the obstruction search ------------------------------------------------------------


def test_search_identity_found(u34):
    flag = make_flag(u34, PAPER_FLAG)
    result = poset_map_search(u34, u34, flag)
    assert result.found
    assert all(src == dst for src, dst in result.vertex_map.items())


def test_search_obstruction_u34_to_n134(u34, n134):
    flag = make_flag(u34, PAPER_FLAG)
    result = poset_map_search(u34, n134, flag)
    assert not result.found
    faces = {face: (forced, reason) for face, forced, reason in result.obstructions}
    labelled = {frozenset(map(u34.vertex_label, face)): face for face in faces}
    edge = frozenset({(("3", "4"), "+"), (("1", "4"), "-")})
    assert edge in labelled
    forced, _ = faces[labelled[edge]]
    assert set(map(n134.vertex_label, forced)) == {(("1", "3", "4"), "+"), (("1", "3", "4"), "-")}
    # the forced pair shares no face in the target: same coatom, both signs
    target = FlagRepresentation(n134, make_flag(n134, PAPER_FLAG)).build(n134.bottom)
    assert not frozen(target).has_face(set(forced))
    # every reported obstruction is a face of the source whose image cannot be one
    source = FlagRepresentation(u34, flag).build(u34.bottom)
    for face in faces:
        assert frozen(source).has_face(face)


def test_search_obstacle_flag_not_complete_in_target(u34, n134):
    flag = make_flag(u34, [[], ["1"], ["1", "3"], ["1", "2", "3", "4"]])
    result = poset_map_search(u34, n134, flag)
    assert not result.found
    assert result.reason == "flag-not-complete-in-target"


def test_search_cap(u34, n134):
    from matroid_spheres.maps import SearchCapExceeded

    flag = make_flag(u34, PAPER_FLAG)
    with pytest.raises(SearchCapExceeded):
        poset_map_search(u34, u34, flag, max_assignments=3)


# -- the search against the recursive oracle ---------------------------------------------


def test_search_matches_the_recursive_oracle_on_the_golden_weakmap_cases():
    # every ordered pair of data matroids on one ground set, by the golden
    # file's flag and by the default flag
    cases = 0
    matroids = data_matroids()
    for m in matroids.values():
        flags = [default_flag(m)]
        try:
            flags.append(make_flag(m, json.loads((DATA / "f_1_12.json").read_text())["chain"]))
        except MatroidInputError:
            pass
        for n in matroids.values():
            if set(m.elements) != set(n.elements):
                continue
            for flag in flags:
                assert poset_map_search(m, n, flag) == poset_map_search_oracle(m, n, flag)
                cases += 1
    assert cases >= 17


def dependent_columns(draw, columns):
    """The columns with one of them replaced by a sum of two others, so that
    a new dependency appears, or left as they are."""
    k = draw(st.integers(-1, len(columns) - 1))
    if k < 0:
        return columns
    i, j = draw(st.lists(st.sampled_from([x for x in range(len(columns)) if x != k]),
                         min_size=2, max_size=2, unique=True))
    sign = draw(st.sampled_from([1, -1]))
    return [[a + sign * b for a, b in zip(columns[i], columns[j])] if x == k else c
            for x, c in enumerate(columns)]


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(st.integers(3, 4), st.data())
def test_search_matches_the_recursive_oracle_on_random_same_rank_pairs(r, data):
    # the target's columns are the source's with a dependency added, so the
    # identity is often a weak map; both must have rank r
    vectors = st.lists(st.integers(-2, 2), min_size=r, max_size=r).filter(any)
    source = data.draw(st.lists(vectors, min_size=r + 1, max_size=r + 3))
    target = dependent_columns(data.draw, source)
    if not all(map(any, target)):
        return
    m, n = linear_matroid(source), linear_matroid(target)
    if m.r != r or n.r != r:
        return
    flag = data.draw(st.sampled_from(all_complete_flags(m)))
    assert poset_map_search(m, n, flag) == poset_map_search_oracle(m, n, flag)


def test_search_backtracks_to_the_images_it_had():
    # rank 4, the target's fourth column the sum of two others: the search
    # takes back assignments, and an image that kept a bit of a vertex taken
    # back would refuse a candidate the oracle accepts (14 nodes, not 28)
    source = [[1, 0, -1, -1], [-1, -1, 0, 0], [1, 0, 1, 0], [-1, -1, 1, 0], [1, 0, 0, 0], [1, -1, 0, -1]]
    target = [[1, 0, -1, -1], [-1, -1, 0, 0], [1, 0, 1, 0], [2, 0, 0, -1], [1, 0, 0, 0], [1, -1, 0, -1]]
    m, n = linear_matroid(source), linear_matroid(target)
    flag = make_flag(m, [[], ["5"], ["3", "5"], ["3", "5", "6"], ["1", "2", "3", "4", "5", "6"]])
    result = poset_map_search(m, n, flag)
    assert result == poset_map_search_oracle(m, n, flag)
    assert not result.found and result.nodes == 28


def test_search_runs_past_the_recursion_limit(tmp_path):
    # U(6,12) has 792 coatoms, so S_0 has 1,584 signed vertices: one frame
    # each ended a recursive search with RecursionError, exit 3
    spec = tmp_path / "u612.json"
    spec.write_text(json.dumps({"format": "uniform", "r": 6, "n": 12}))
    result = CliRunner().invoke(main, ["weakmap", "--search-poset-map", "--json", str(spec), str(spec)])
    assert result.exit_code == 0, result.output
    search = json.loads(result.output)["search"]
    assert search["found"] and len(search["map"]) == 1584
    assert search["stats"]["nodes"] == 1584  # the identity, each vertex's first candidate

    # the recursive oracle agrees, given the frames: in a thread with a deep stack
    lattice = uniform_matroid(6, 12)
    got = {}

    def run():
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(10_000)
        try:
            got["oracle"] = poset_map_search_oracle(lattice, lattice, default_flag(lattice))
        finally:
            sys.setrecursionlimit(limit)

    size = threading.stack_size(256 * 1024 * 1024)
    try:
        thread = threading.Thread(target=run)
        thread.start()
        thread.join()
    finally:
        threading.stack_size(size)
    assert got["oracle"] == poset_map_search(lattice, lattice, default_flag(lattice))
    assert got["oracle"].nodes == 1584
