import json
import sys
import threading
from functools import cached_property, lru_cache, reduce
from itertools import combinations, product
from operator import is_, or_

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
from matroid_spheres.maps import CrossSelection, RetractDescriptor, Retraction, SelectionError
from matroid_spheres.report import CheckResult, ValidationReport
from matroid_spheres.spheres import selection_masks
from conftest import complex_of, frozen, label_faces, sorted_faces, tuples
from conftest import (
    DATA,
    boolean_matroid,
    complex_masks,
    cov_leq,
    cross_coatom_search_oracle,
    cross_polytope_complex,
    data_matroids,
    grown_by_a_foreign_vertex,
    held_parts,
    is_homology_sphere,
    mask_vertices,
    masks_complex,
    part_of,
    poisoned,
    poset_map_search_oracle,
    repeated_g_part,
    retraction_face_lines_oracle,
    retraction_oracle,
    select_cross_coatoms_oracle,
    selected_coatoms,
    slots_oracle,
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
            max(j for j in range(lattice.r) if not f[i + 1] <= lattice.join(f[i], g[j]))
            for i in range(lattice.r)
        )
        assert sel.g_parts == pi, (f.chain, g.chain)


# -- retraction -------------------------------------------------------------------


def test_retraction_same_flag_u24(u24):
    flag = default_flag(u24)
    desc = retraction_map(u24, flag, flag)
    # image is the square boundary on the selected coatoms
    polytope = masks_complex(desc.polytope)
    assert len(polytope.vertices) == 4
    assert len(polytope.maximal_faces) == 4
    assert verify_retraction(desc).ok


def test_retraction_bool3_is_relabelling(bool3):
    flags = all_complete_flags(bool3)
    desc = retraction_map(bool3, flags[0], flags[1])
    # singleton blocks force a bijection onto the octahedron
    assert len(set(desc.vertex_map.values())) == len(desc.vertex_map)
    assert len(desc.polytope) == 8
    assert verify_retraction(desc).ok


def test_retraction_u34_images_are_polytope_facets(u34):
    f = make_flag(u34, [[], ["1"], ["1", "2"], ["1", "2", "3", "4"]])
    g = make_flag(u34, [[], ["3"], ["3", "4"], ["1", "2", "3", "4"]])
    desc = retraction_map(u34, f, g)
    source = desc.source.build(u34.bottom)
    for mface in label_faces(source):
        image = frozenset(desc.vertex_map[v] for v in mface)
        assert desc.source.mask(image) in desc.polytope
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


# -- one cross-polytope per set of selected positions ---------------------------------


def test_equal_selections_share_one_polytope():
    b4 = boolean_matroid(["1", "2", "3", "4"])
    flags = all_complete_flags(b4)
    first, other = retraction_map(b4, flags[0], flags[1]), retraction_map(b4, flags[5], flags[-1])
    # B_4's blocks hold one coatom each, so every pair selects all four,
    # here in two different block orders
    assert set(selected_coatoms(b4, first.selection)) == set(selected_coatoms(b4, other.selection)) == set(b4.coatoms())
    assert first.selection.coatoms != other.selection.coatoms
    assert first.polytope is other.polytope
    # the memo is keyed by positions alone: another lattice selecting them shares the entry
    twin = uniform_matroid(4, 4)
    assert twin is not b4 and retraction_map(twin, *all_complete_flags(twin)[:2]).polytope is first.polytope


def test_memoized_polytope_matches_fresh_cross_polytope(u34, bool3, fano):
    # the oracle route: the cross-polytope built as a complex on the selected
    # coatoms, its facets read back as masks.  U(4,6)'s blocks hold several
    # coatoms each, so its pairs select many coatom sets
    pairs = 0
    for lattice in (u34, bool3, boolean_matroid("1234"), fano, uniform_matroid(4, 6)):
        flags = all_complete_flags(lattice)
        for f in flags:
            for g in flags:
                desc = retraction_map(lattice, f, g)
                fresh = cross_polytope_complex(lattice, selected_coatoms(lattice, desc.selection))
                assert desc.polytope == complex_masks(fresh), (f.chain, g.chain)
                pairs += 1
    assert pairs == 144 + 36 + 576 + 441 + 120 ** 2


def test_polytope_memo_is_bounded():
    # the memo is keyed by the selected positions alone, and U(3,7)'s pairs
    # select 497 distinct sets of three
    bound = topology._HOMOLOGY_MEMO_SIZE
    assert selection_masks.cache_info().maxsize == bound
    lattice = uniform_matroid(3, 7)
    flags, keys = all_complete_flags(lattice), set()
    for f in flags:
        for g in flags:
            desc = retraction_map(lattice, f, g)
            assert desc.polytope and verify_retraction(desc).ok
            keys.add(frozenset(desc.selection.coatoms))
    assert len(keys) > bound
    assert selection_masks.cache_info().currsize == bound


def test_mutant_does_not_poison_the_polytope_memo(u34):
    flags = all_complete_flags(u34)
    desc = retraction_map(u34, flags[0], flags[-1])
    mutated = grown_polytope(desc, False, False)
    assert failing(mutated) == {"polytope-in-source", "polytope-in-target", "polytope-sphere"}
    again = retraction_map(u34, flags[0], flags[-1])
    assert again.polytope is desc.polytope and again.polytope != mutated.polytope
    assert verify_retraction(again).ok


def retraction_fields(desc):
    return (desc.selection, desc.vertex_map, desc.polytope, verify_retraction(desc).to_json())


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
# image half as a vertex set and adds the lines one by one.


def route(desc, verify):
    """Everything a pair's retraction and certificate show, the map in its order."""
    return (desc.selection, list(desc.vertex_map.items()), desc.polytope, verify(desc).to_json())


def test_mask_route_matches_the_oracle_route_on_every_pair(u34, bool3, fano):
    # U(4,6)'s blocks hold several coatoms each, so the lowest shared bit picks among them
    pairs = 0
    for lattice in (u34, bool3, boolean_matroid("1234"), fano, uniform_matroid(4, 6)):
        flags = all_complete_flags(lattice)
        for f in flags:
            for g in flags:
                desc = retraction_map(lattice, f, g)
                oracle = retraction_oracle(lattice, f, g)
                assert route(desc, verify_retraction) == route(oracle, verify_retraction_oracle), (f.chain, g.chain)
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
    assert route(desc, verify_retraction) == route(retraction_oracle(lattice, f, g), verify_retraction_oracle)
    assert verify_retraction(desc).ok


# -- retraction certificate on mutated descriptors -----------------------------------
#
# Each mutation breaks one property of a real descriptor and keeps the
# others, so exactly the checks named with it must fail.  A polytope facet
# mask grown by one bit from outside the polytope is a cone glued on along a
# simplex, so the polytope stays a homotopy sphere; it is no longer the
# cross-polytope, so polytope-sphere, a join test, fails on it: sound, not
# complete.


def failing(desc):
    return {c.name for c in verify_retraction(desc).failures()}


def swapped_singleton(desc):
    """Swap the signs of the selected coatom of a one-coatom block: the map
    stays simplicial but is no longer idempotent."""
    rep = desc.source
    i = next((i for i, b in enumerate(held_parts(rep)) if len(b) == 1), None)
    if i is None:
        return None
    c = selected_coatoms(rep.lattice, desc.selection)[i]
    vmap = dict(desc.vertex_map)
    vmap[rep.vertex(c, "+")], vmap[rep.vertex(c, "-")] = rep.vertex(c, "-"), rep.vertex(c, "+")
    return RetractDescriptor(desc.selection, desc.source, desc.target, vmap, desc.polytope)


def flipped_vertex(desc):
    """Send one unselected coatom of a block onto the selected coatom with
    the other sign: an image face then holds both signs of one coatom."""
    rep = desc.source
    i = next((i for i, b in enumerate(held_parts(rep)) if len(b) > 1), None)
    if i is None:
        return None
    chosen = selected_coatoms(rep.lattice, desc.selection)[i]
    c = next(c for c in held_parts(rep)[i] if c != chosen)
    vmap = dict(desc.vertex_map)
    vmap[rep.vertex(c, "+")] = rep.vertex(chosen, "-")
    return RetractDescriptor(desc.selection, desc.source, desc.target, vmap, desc.polytope)


def cross_block_vertex(desc):
    """Send one unselected coatom's + vertex onto the + vertex of another
    block's selected coatom: an image face holds both signs of that coatom
    only where the other block is signed -, so on rank 2 one facet of the
    source alone maps to a non-face."""
    rep, chosen = desc.source, selected_coatoms(desc.source.lattice, desc.selection)
    i = next((i for i, b in enumerate(held_parts(rep)) if len(b) > 1), None)
    if i is None:
        return None
    c = next(c for c in held_parts(rep)[i] if c != chosen[i])
    vmap = dict(desc.vertex_map)
    vmap[rep.vertex(c, "+")] = rep.vertex(chosen[i - 1], "+")
    return RetractDescriptor(desc.selection, desc.source, desc.target, vmap, desc.polytope)


def swapped_selection(desc):
    """Swap the first two blocks' selected coatoms, in the selection and in
    the map: each block's halves still map onto one selected pair, so the
    polytope is unchanged and the face lines are read off the halves, but
    C_1, selected for block 0, lies in block 1 and goes to C_0, no fixed image."""
    sel, rep = desc.selection, desc.source
    if len(sel.coatoms) < 2:
        return None
    positions = (sel.coatoms[1], sel.coatoms[0]) + sel.coatoms[2:]
    onto = [2 * k + s for k in positions for s in (0, 1)]
    vmap = {v: onto[h] for v, h in slots_oracle(rep.lattice, rep.flag)}
    return RetractDescriptor(CrossSelection(positions, sel.g_parts), rep, desc.target, vmap, desc.polytope)


def chained_image(desc):
    """Send one unselected coatom's + vertex onto its own - vertex, which
    the map sends on to the selected coatom's -: that image is not fixed."""
    rep = desc.source
    i = next(i for i, b in enumerate(held_parts(rep)) if len(b) > 1)
    c = next(c for c in held_parts(rep)[i] if c != selected_coatoms(rep.lattice, desc.selection)[i])
    vmap = dict(desc.vertex_map)
    vmap[rep.vertex(c, "+")] = rep.vertex(c, "-")
    return RetractDescriptor(desc.selection, desc.source, desc.target, vmap, desc.polytope)


def test_map_onto_a_non_fixed_image_fails_idempotent_as_the_oracle_does(u34, fano):
    # verify_retraction asks that each image be fixed; the oracle maps each
    # image again.  Every block order of U(3,4) and Fano holds a block of several.
    applied = 0
    for lattice in (u34, fano):
        flags = all_complete_flags(lattice)
        for f in flags:
            for g in flags:
                desc = retraction_map(lattice, f, g)
                mutated = chained_image(desc)
                report = verify_retraction(mutated)
                assert report.to_json() == verify_retraction_oracle(mutated).to_json(), (f.chain, g.chain)
                assert not report["idempotent"].passed
                applied += 1
        # a map that misses a vertex raises the same KeyError on both routes
        vmap = dict(desc.vertex_map)
        del vmap[next(iter(vmap))]
        missing = RetractDescriptor(desc.selection, desc.source, desc.target, vmap, desc.polytope)
        for verify in (verify_retraction, verify_retraction_oracle):
            with pytest.raises(KeyError):
                verify(missing)
    assert applied == 144 + 441


def grown_polytope(desc, in_source, in_target):
    """Grow one polytope facet mask by a bit outside the polytope, so that
    the grown facet is a face of the source exactly when in_source, and of
    the target exactly when in_target.  The bit just above the signed
    coatoms' is a vertex that is no signed coatom."""
    lattice = desc.source.lattice
    s_f = desc.source.build(lattice.bottom)
    s_g = desc.target.build(lattice.bottom)
    held = reduce(or_, desc.polytope, 0)
    outside = [1 << v for v in s_f.vertices if not held >> v & 1]
    for facet in sorted(desc.polytope):
        for x in outside + [1 << 2 * len(lattice.coatoms())]:
            grown = mask_vertices(facet | x)
            if (frozen(s_f).has_face(grown), frozen(s_g).has_face(grown)) == (in_source, in_target):
                polytope = (desc.polytope - {facet}) | {facet | x}
                return RetractDescriptor(
                    desc.selection, desc.source, desc.target, desc.vertex_map, polytope
                )
    return None


MUTATIONS = {
    "repeated g-part": (repeated_g_part, {"selection-distinct"}),
    "non-idempotent": (swapped_singleton, {"idempotent"}),
    "swapped selection": (swapped_selection, {"idempotent"}),
    "sign flipped": (flipped_vertex, {"simplicial", "composite-simplicial"}),
    "cross-block image": (cross_block_vertex, {"simplicial", "composite-simplicial"}),
    "facet in neither": (lambda d: grown_polytope(d, False, False),
                         {"polytope-in-source", "polytope-in-target", "polytope-sphere"}),
    "facet not in source": (lambda d: grown_polytope(d, False, True),
                            {"polytope-in-source", "polytope-sphere"}),
    "facet not in target": (lambda d: grown_polytope(d, True, False),
                            {"polytope-in-target", "polytope-sphere"}),
}


@pytest.mark.parametrize("kind", sorted(MUTATIONS))
def test_mutated_retraction_fails_its_check(kind, u24, u34, bool3):
    mutate, checks = MUTATIONS[kind]
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
                    if kind.startswith("facet"):  # the grown polytope is still a sphere
                        assert is_homology_sphere(masks_complex(mutated.polytope), lattice.r - 1)
    assert applied, kind


# -- the face lines compare int masks ------------------------------------------------
#
# ``retraction_face_lines_oracle`` reads the face lines by ``has_face`` on
# the complexes as held, each facet of S_0 mapped vertex by vertex.  Where
# S_0 is the join the two agree; where it is not, the mask lines fail, as a
# line that reads an uncertified S_0 must.


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
                assert face_lines(desc) == retraction_face_lines_oracle(desc), (f.chain, g.chain)
                assert verify_retraction(desc).ok
                pairs += 1
    assert pairs == 1198


def every_mutant(lattices):
    """Every applicable ``MUTATIONS`` entry on every ordered flag pair."""
    for lattice in lattices:
        flags = all_complete_flags(lattice)
        for f in flags:
            for g in flags:
                desc = retraction_map(lattice, f, g)
                for kind, (mutate, _) in sorted(MUTATIONS.items()):
                    mutated = mutate(desc)
                    if mutated is not None:
                        yield kind, mutated


def test_face_lines_match_the_has_face_oracle_on_every_mutant(u24, u34, bool3):
    kinds = set()
    for kind, mutated in every_mutant((u24, u34, bool3)):
        assert face_lines(mutated) == retraction_face_lines_oracle(mutated), kind
        kinds.add(kind)
    assert kinds == set(MUTATIONS)


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
    target_fails = {"target-sphere", "polytope-in-target", "composite-simplicial"}
    for name, poison, source_fails in (
            ("dropped", facets[1:], {"source-sphere", "polytope-in-source"}),
            ("mixed", facets[1:] + [mixed], {"source-sphere", "polytope-in-source", "simplicial",
                                             "composite-simplicial"})):
        rep = poisoned(lattice, flag, poison)
        yield (f"{name} source", RetractDescriptor(clean.selection, rep, clean.target, clean.vertex_map,
                                                  clean.polytope), source_fails)
        yield (f"{name} target", RetractDescriptor(clean.selection, clean.source, rep, clean.vertex_map,
                                                  clean.polytope), target_fails)


def test_poisoned_s0_fails_its_lines_without_raising(u34, bool3):
    for lattice in (u34, bool3):
        for name, desc, lines in poisoned_descriptors(lattice):
            assert failing(desc) == lines, name
            assert desc.source.are_faces(frozenset()) and desc.target.are_faces(frozenset())  # vacuously
    assert verify_retraction(retraction_map(u34, default_flag(u34), default_flag(u34))).ok


def test_polytope_grown_by_a_foreign_vertex_fails_without_raising(u24, u34, bool3, fano):
    for lattice in (u24, u34, bool3, fano):
        flags = all_complete_flags(lattice)
        for f, g in ((flags[0], flags[-1]), (flags[-1], flags[0])):
            grown = grown_by_a_foreign_vertex(retraction_map(lattice, f, g))
            assert failing(grown) == {"polytope-in-source", "polytope-in-target", "polytope-sphere"}
            assert face_lines(grown) == retraction_face_lines_oracle(grown)
            assert is_homology_sphere(masks_complex(grown.polytope), lattice.r - 1)


def two_from_one_block(desc):
    """Select, in place of the next block's coatom, a second coatom of the
    first F-block that holds several, with the polytope recomputed by
    ``selection_masks``: the join over r distinct coatoms, two of them in
    one block of the source, so it is no subcomplex of the source's S_0."""
    rep, chosen = desc.source, selected_coatoms(desc.source.lattice, desc.selection)
    i = next((i for i, b in enumerate(held_parts(rep)) if len(b) > 1), None)
    if i is None or len(chosen) < 2:
        return None
    positions = list(desc.selection.coatoms)
    other = next(c for c in held_parts(rep)[i] if c != chosen[i])
    positions[(i + 1) % len(chosen)] = rep.lattice.coatoms().index(other)
    selection = CrossSelection(tuple(positions), desc.selection.g_parts)
    polytope = selection_masks(frozenset(positions))
    return RetractDescriptor(selection, rep, desc.target, desc.vertex_map, polytope)


def test_two_coatoms_of_one_block_fail_polytope_in_source(u34, fano):
    # the polytope is the join over its coatoms, so verify_retraction reads
    # the polytope lines off them, and that route must refuse; the oracle
    # scans the polytope's facet masks block by block (``are_faces``)
    applied = 0
    for lattice in (u34, fano, uniform_matroid(4, 6)):
        flags = all_complete_flags(lattice)
        for f in flags:
            for g in flags:
                mutated = two_from_one_block(retraction_map(lattice, f, g))
                if mutated is None:
                    continue
                report = verify_retraction(mutated)
                assert report.to_json() == verify_retraction_oracle(mutated).to_json(), (f.chain, g.chain)
                assert not report["polytope-in-source"].passed and report["polytope-sphere"].passed
                if lattice is u34:
                    assert face_lines(mutated) == retraction_face_lines_oracle(mutated), (f.chain, g.chain)
                applied += 1
    assert applied == 144 + 441 + 120 ** 2  # every block order of these holds a block of several


def test_face_lines_of_the_selected_join_scan_no_block(monkeypatch, u24, u34, bool3, fano):
    # are_faces, the block scan, runs only on a set that is not the join
    # over the selected coatoms: here the grown polytopes, and the images
    # the two-from-one-block mutants map onto the polytope they replaced
    clean = [retraction_map(lattice, f, g) for lattice in (u34, boolean_matroid("1234"), fano)
             for f in all_complete_flags(lattice) for g in all_complete_flags(lattice)]
    grown = [d for kind, d in every_mutant((u24, u34, bool3)) if kind.startswith("facet")]
    moved = [two_from_one_block(d) for d in clean if d.source.lattice is u34]
    scanned, are_faces = [], FlagRepresentation.are_faces
    with monkeypatch.context() as m:
        m.setattr(FlagRepresentation, "are_faces", lambda rep, x: scanned.append(x) or are_faces(rep, x))
        assert all(verify_retraction(d).ok for d in clean) and not scanned
        assert not any(verify_retraction(d).ok for d in grown) and len(scanned) >= len(grown)
        for d in moved:
            scanned.clear()
            assert not verify_retraction(d).ok and d.polytope not in scanned
    assert len(clean) == 144 + 576 + 441 and len(moved) == 144


def test_verify_retraction_scans_no_facets(monkeypatch, u24, u34, bool3):
    # the descriptors are built first, as the mutations scan facets themselves
    descs = [mutated for _, mutated in every_mutant((u24, u34, bool3))]
    descs += [retraction_map(bool3, f, g) for f in all_complete_flags(bool3) for g in all_complete_flags(bool3)]
    descs += [d for _, d, _ in poisoned_descriptors(u34)]
    descs.append(grown_by_a_foreign_vertex(retraction_map(u34, default_flag(u34), default_flag(u34))))
    with monkeypatch.context() as m:
        m.setattr(SimplicialComplex, "has_face", lambda *a: pytest.fail("has_face called"))
        m.setattr(SimplicialComplex, "is_subcomplex_of", lambda *a: pytest.fail("is_subcomplex_of called"),
                  raising=False)
        assert sum(verify_retraction(d).ok for d in descs) == 36


# -- the face lines read off the r image halves ---------------------------------------
#
# ``verify_retraction_general`` builds the image set on every descriptor.
# The read-off must give the same report, details included, on every pair
# and every mutant, and every honest pair must take it.


def report_json(desc):
    return verify_retraction(desc).to_json()


def test_read_off_matches_the_general_route_on_every_pair(u24, u34, bool3, n134, fano):
    rank0 = lattice_from_flats(["1"], [["1"]])  # r = 0 takes the general route
    pairs = 0
    for lattice in (rank0, u24, u34, bool3, boolean_matroid("1234"), n134, fano):
        flags = all_complete_flags(lattice)
        for f in flags:
            for g in flags:
                desc = retraction_map(lattice, f, g)
                assert report_json(desc) == verify_retraction_general(desc).to_json(), (f.chain, g.chain)
                assert report_json(desc)["ok"]
                pairs += 1
    assert pairs == 1 + 16 + 144 + 36 + 576 + len(all_complete_flags(n134)) ** 2 + 441


def repeated_coatom(desc):
    """The selection with its last coatom held twice, map, g_parts and
    polytope as they were: r + 1 coatoms, r of them distinct."""
    sel = desc.selection
    selection = CrossSelection(sel.coatoms + sel.coatoms[-1:], sel.g_parts)
    return RetractDescriptor(selection, desc.source, desc.target, desc.vertex_map, desc.polytope)


def repeated_first_coatom(desc):
    """The selection with its first coatom held twice, C_0, C_0, C_1, ...,
    C_{r-1}, g_parts and polytope as they were, and the map built from it as
    ``retraction_map`` builds one, block i onto its i-th coatom: every
    signed vertex goes to its half's selected vertex, but blocks 0 and 1
    both go to C_0, so an image holds both of its signs."""
    sel, rep = desc.selection, desc.source
    positions = sel.coatoms[:1] + sel.coatoms
    onto = [2 * k + s for k in positions for s in (0, 1)]
    vmap = {v: onto[h] for v, h in slots_oracle(rep.lattice, rep.flag)}
    return RetractDescriptor(CrossSelection(positions, sel.g_parts), rep, desc.target, vmap, desc.polytope)


def another_flags_slot(desc):
    """The formula over the selected coatoms, but through the ``slot`` of
    the first flag whose blocks differ from the source's: some block then
    goes where the source's does not, so an image holds both signs of a
    selected coatom or a selected coatom moves."""
    lattice = desc.source.lattice
    other = next(rep for rep in (representation(lattice, f) for f in all_complete_flags(lattice))
                 if rep.slot != desc.source.slot)
    vmap = Retraction(desc.selection.coatoms, other.slot)
    return RetractDescriptor(desc.selection, desc.source, desc.target, vmap, desc.polytope)


def minus_in_the_plus_half(desc):
    """A fresh representation of the source's flag whose ``slot`` holds the
    - vertex of the first block of several's selected coatom C_i in that
    block's + half (``halves`` refilled), under its own ``Retraction``:
    the read-off's precondition holds, and C_i- goes to C_i+ while the
    block's other - vertices go to C_i-, an image the map moves."""
    source, sel = desc.source, desc.selection
    i = next((i for i, b in enumerate(held_parts(source)) if len(b) > 1), None)
    if i is None:
        return None
    rep = FlagRepresentation(source.lattice, source.flag)
    slot = list(rep.slot)
    slot[2 * sel.coatoms[i] + 1] = 2 * i
    refill(rep, slot)
    return RetractDescriptor(sel, rep, desc.target, Retraction(sel.coatoms, rep.slot), desc.polytope)


def read_off_mutants(u24, u34, bool3, fano):
    """Every ``MUTATIONS`` entry on every pair, every ``poisoned_descriptors``
    case, a polytope grown by a foreign vertex, a selection that repeats
    its last coatom or its first, the formula through another flag's
    ``slot`` and a source holding a - vertex in its + half, with a map onto
    a non-fixed image and two coatoms of one block on U(3,4)."""
    yield from every_mutant((u24, u34, bool3))
    for lattice in (u34, bool3):
        yield from ((name, desc) for name, desc, _ in poisoned_descriptors(lattice))
    for lattice in (u24, u34, bool3, fano):
        flags = all_complete_flags(lattice)
        for f, g in ((flags[0], flags[-1]), (flags[-1], flags[0]), (flags[0], flags[0])):
            yield "grown by a foreign vertex", grown_by_a_foreign_vertex(retraction_map(lattice, f, g))
            yield "repeated coatom", repeated_coatom(retraction_map(lattice, f, g))
            yield "repeated first coatom", repeated_first_coatom(retraction_map(lattice, f, g))
            yield "another flag's slot", another_flags_slot(retraction_map(lattice, f, g))
            mutated = minus_in_the_plus_half(retraction_map(lattice, f, g))
            if mutated is not None:  # B_3 has no block of several
                yield "minus vertex in the plus half", mutated
    for f in all_complete_flags(u34):
        desc = retraction_map(u34, f, all_complete_flags(u34)[-1])
        yield "chained image", chained_image(desc)
        yield "two from one block", two_from_one_block(desc)


def test_read_off_matches_the_general_route_on_every_mutant(u24, u34, bool3, fano):
    kinds, verdicts = {}, set()
    for kind, mutated in read_off_mutants(u24, u34, bool3, fano):
        report = report_json(mutated)
        assert report == verify_retraction_general(mutated).to_json(), kind
        # a repeated coatom leaves the polytope the join over the r distinct
        # ones, and its all-+ facet counts each once: every line holds
        assert report["ok"] is (kind == "repeated coatom"), kind
        failed = {c["name"] for c in report["checks"] if not c["passed"]}
        if kind == "repeated first coatom":
            # both signs of C_0 in one image, a face of neither side; for
            # r >= 3, C_1 is block 2's image, and block 1 sends it to C_0
            r = mutated.source.r
            assert failed == {"simplicial", "composite-simplicial"} | ({"idempotent"} if r >= 3 else set()), r
        if kind == "minus vertex in the plus half":
            assert failed == {"idempotent"}
        kinds[kind] = kinds.get(kind, 0) + 1
        verdicts.add(tuple(c["passed"] for c in report["checks"]))
    assert set(MUTATIONS) < set(kinds)
    assert kinds["grown by a foreign vertex"] == kinds["repeated coatom"] == kinds["repeated first coatom"] == 12
    assert kinds["another flag's slot"] == 12 and kinds["minus vertex in the plus half"] == 9
    assert sum(kinds[f"{name} {side}"] for name in ("dropped", "mixed") for side in ("source", "target")) == 8
    # one record tuple per verdict tuple met, and no more than there are
    assert verdicts <= set(maps._RECORDS) and len(maps._RECORDS) <= 2 ** 9


def test_an_s0_held_on_an_unused_position_takes_the_general_route(u34):
    # a position no face uses is allowed, and the general route sends it
    # through the map; the read-off, which reads the halves only, must not skip it
    flag = default_flag(u34)
    clean = retraction_map(u34, flag, flag)
    rep = FlagRepresentation(u34, flag)
    s0 = rep.build(u34.bottom)
    extra = len(s0.vertices)
    rep._built[u34.bottom] = SimplicialComplex(s0.vertices + (extra,), s0.maximal_faces)
    assert rep.join_holds and rep.half_masks(clean.vertex_map) == clean.source.half_masks(clean.vertex_map)
    moved = next(v for v, w in clean.vertex_map.items() if v != w)  # onto a vertex the map moves
    desc = RetractDescriptor(clean.selection, rep, clean.target, {**clean.vertex_map, extra: moved},
                             clean.polytope)
    assert report_json(desc) == verify_retraction_general(desc).to_json()
    assert failing(desc) == {"idempotent"}


def test_honest_pairs_take_the_read_off(monkeypatch, u34, fano):
    # the general route builds the image set by ``_unions``; the read-off
    # builds none, on every honest pair, and a mutant's map still does
    lattices = (u34, boolean_matroid("1234"), fano)
    descs = [retraction_map(lattice, f, g) for lattice in lattices
             for f in all_complete_flags(lattice) for g in all_complete_flags(lattice)]
    mutant = chained_image(retraction_map(u34, default_flag(u34), default_flag(u34)))
    moved = minus_in_the_plus_half(retraction_map(u34, default_flag(u34), default_flag(u34)))
    with monkeypatch.context() as m:
        m.setattr(maps, "_unions", lambda *a: pytest.fail("image set built"))
        assert all(verify_retraction(d).ok for d in descs)
        with pytest.raises(pytest.fail.Exception):
            verify_retraction(mutant)
        # the read-off's idempotent line reads both signs of each selected coatom
        assert failing(moved) == {"idempotent"}
    assert len(descs) == 144 + 576 + 441


def test_the_formula_map_is_the_dict_it_replaces(monkeypatch, u24, u34, bool3, n134, fano):
    # the formula against the dict of each vertex's image through ``onto``
    # and ``slot``, and a descriptor holding that dict, which takes the
    # general route: it builds an image set where the formula builds none
    rank0 = lattice_from_flats(["1"], [["1"]])
    built, unions = [], maps._unions
    monkeypatch.setattr(maps, "_unions", lambda halves: built.append(halves) or unions(halves))
    pairs = 0
    for lattice in (rank0, u24, u34, bool3, boolean_matroid("1234"), n134, fano):
        flags, n = all_complete_flags(lattice), 2 * len(lattice.coatoms())
        for f in flags:
            for g in flags:
                desc = retraction_map(lattice, f, g)
                vmap = desc.vertex_map
                onto = [v for k in desc.selection.coatoms for v in (2 * k, 2 * k + 1)]
                held = dict(enumerate(map(onto.__getitem__, desc.source.slot)))
                assert type(vmap) is Retraction and len(vmap) == len(held) == n
                assert list(vmap.items()) == list(held.items()) and vmap == held and held == vmap
                for v in (-1, *range(n), n, "0", None):
                    assert (v in vmap) is (v in held) and vmap.get(v) == held.get(v), v
                for v in (-1, n):  # a tuple index -1 would wrap to the last vertex
                    with pytest.raises(KeyError):
                        vmap[v]
                plain = RetractDescriptor(desc.selection, desc.source, desc.target, held, desc.polytope)
                built.clear()
                assert report_json(plain) == report_json(desc), (f.chain, g.chain)
                assert len(built) == 1 + (lattice.r == 0)  # the dict's image set, and rank 0's
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
                complexes = (desc.source.build(lattice.bottom),
                             desc.target.build(lattice.bottom), masks_complex(desc.polytope))
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
    desc = RetractDescriptor(clean.selection, rep, rep, clean.vertex_map, clean.polytope)
    assert {"source-sphere", "target-sphere"} <= failing(desc)
    assert "polytope-sphere" not in failing(desc)
    assert verify_retraction(clean).ok  # the memoized representation is untouched


def test_polytope_with_a_repeated_coatom_fails(u34):
    flags = all_complete_flags(u34)
    desc = retraction_map(u34, flags[0], flags[-1])
    sel = desc.selection
    repeated = CrossSelection(sel.coatoms[:1] * len(sel.coatoms), sel.g_parts)
    polytope = selection_masks(frozenset(repeated.coatoms))
    bad = RetractDescriptor(repeated, desc.source, desc.target, desc.vertex_map, polytope)
    assert "polytope-sphere" in failing(bad)


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
                assert verify_arrangement(FlagRepresentation(lattice, f).arrangement()).ok
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
