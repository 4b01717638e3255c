"""``verify_geometric`` against the pairwise oracle it replaced.

``verify_geometric_oracle`` is the frozenset implementation that builds a
lattice for every interval; ``verify_geometric`` runs the same checks on
bitset tables.  Reports must agree byte for byte, failure details included.
``intervals_oracle`` is the per-interval loop that the lemma in
``verify_geometric`` replaced: every interval, as a lattice of its own,
must pass every other line of ``verify_geometric``.  ``closure_oracle`` is
the scan over every flat that ``GeometricLattice.closure``'s bitsets
replaced, and ``heights_oracle`` the scan that ``GeometricLattice._heights``'
level bitsets replaced; ``order_heights_oracle`` reads the same levels off
the order table, which ``_heights`` no longer builds.  ``order_tables_oracle``, ``upper_covers_oracle`` and
``all_complete_flags_oracle`` are the pairwise up/down loop, the frozenset
scan and the recursion that the lattice's one order table replaced.
"""

import json
import random
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from matroid_spheres import (
    GeometricLattice,
    MatroidInputError,
    all_complete_flags,
    default_flag,
    lattice_from_flats,
    load_matroid,
    uniform_matroid,
    verify_geometric,
)
from matroid_spheres.report import ValidationReport
from conftest import (
    all_complete_flags_oracle, boolean_matroid, heights_oracle, order_heights_oracle, order_tables_oracle,
    upper_covers_oracle,
)

DATA = Path(__file__).parent / "data"
DERANDOMIZED = settings(derandomize=True, database=None, max_examples=300, deadline=None)


def verify_geometric_oracle(lattice: GeometricLattice, intervals: bool = True) -> ValidationReport:
    rep = ValidationReport()
    flats = lattice.flats
    rk = lattice.rank_of

    bottoms = [f for f in flats if not any(g < f for g in flats)]
    tops = [f for f in flats if not any(f < g for g in flats)]
    is_bounded = len(bottoms) == 1 and len(tops) == 1

    meet_closed = all((x & y) in lattice for x, y in combinations(flats, 2))
    rep.add("meet-closed", meet_closed, "" if meet_closed else "not meet-closed")

    # Join existence: a unique minimal common upper bound for every pair.
    joins_ok = is_bounded
    if is_bounded:
        for x, y in combinations(flats, 2):
            ubs = [f for f in flats if x <= f and y <= f]
            mins = [f for f in ubs if not any(g < f for g in ubs)]
            if len(mins) != 1:
                joins_ok = False
                break
    rep.add("lattice", is_bounded and meet_closed and joins_ok,
            "" if (is_bounded and joins_ok) else "meets or joins missing")

    ranked = rk[lattice.bottom] == 0 if is_bounded else False
    if ranked:
        for x in flats:
            for y in upper_covers_oracle(lattice, x):
                if rk[y] != rk[x] + 1:
                    ranked = False
                    break
            if not ranked:
                break
    rep.add("ranked", ranked, "" if ranked else "covers do not increase rank by one")

    ok_base = is_bounded and meet_closed and joins_ok and ranked
    if ok_base:
        atom_set = lattice.atoms()
        atomic = True
        for f in flats:
            below = frozenset().union(*[a for a in atom_set if a <= f])
            # join of the atoms below f must be f itself
            candidates = [g for g in flats if below <= g]
            if min(candidates, key=lattice.key) != f:
                atomic = False
                break
        rep.add("atomic", atomic, "" if atomic else f"{sorted(f)} is not a join of atoms")

        semi = True
        witness = ""
        for x, y in combinations(flats, 2):
            jxy = lattice.join(x, y)
            if rk[x] + rk[y] < rk[x & y] + rk[jxy]:
                semi = False
                witness = f"rank({sorted(x)})+rank({sorted(y)}) < rank(meet)+rank(join)"
                break
        rep.add("semimodular", semi, witness)

        cm = True
        for f in flats:
            if f == lattice.top:
                continue
            above = lattice.coat_above(f)
            got = frozenset(lattice.elements)
            for c in above:
                got &= c
            if not above or got != f:
                cm = False
                break
        rep.add("coatom-meet", cm, "" if cm else f"{sorted(f)} is not the meet of its coatoms")

        if intervals:
            iv_ok = True
            for x in flats:
                for y in flats:
                    if x < y:
                        sub = [f for f in flats if x <= f <= y]
                        shifted = {f: rk[f] - rk[x] for f in sub}
                        sub_rep = verify_geometric_oracle(
                            GeometricLattice(lattice.elements, sub, shifted), intervals=False)
                        if not sub_rep.ok:
                            iv_ok = False
                            break
                if not iv_ok:
                    break
            rep.add("intervals-geometric", iv_ok,
                    "" if iv_ok else f"interval [{sorted(x)}, {sorted(y)}] is not geometric")
    else:
        rep.add("atomic", False, "skipped: not a ranked lattice")
        rep.add("semimodular", False, "skipped: not a ranked lattice")
        rep.add("coatom-meet", False, "skipped: not a ranked lattice")
        if intervals:
            rep.add("intervals-geometric", False, "skipped: not a ranked lattice")
    return rep


def intervals_oracle(lattice: GeometricLattice) -> tuple[bool, str]:
    """The intervals-geometric line, by checking every interval [x, y], ranks
    less rank(x), in the order x, then y, of the lattice's flat order.  Each
    interval is judged by every line but its own intervals-geometric, which
    would trust the lemma under test."""
    if not all(c.passed for c in verify_geometric(lattice).checks[:3]):
        return False, "skipped: not a ranked lattice"
    flats, rk = lattice.flats, lattice.rank_of
    for i, x in enumerate(flats):
        for y in flats[i + 1:]:
            if x < y:
                sub = [f for f in flats if x <= f <= y]
                shifted = {f: rk[f] - rk[x] for f in sub}
                sub_rep = verify_geometric(GeometricLattice(lattice.elements, sub, shifted))
                if not all(c.passed for c in sub_rep.checks if c.name != "intervals-geometric"):
                    return False, f"interval [{sorted(x)}, {sorted(y)}] is not geometric"
    return True, ""


def intersection_closed_family(rng: random.Random) -> GeometricLattice:
    """Random subsets of at most 6 elements, the ground set and every
    intersection: always a meet-closed lattice, often ranked."""
    elements = [str(i) for i in range(1, rng.randint(1, 6) + 1)]
    family = {frozenset(elements)}
    for _ in range(rng.randint(1, 12)):
        p = rng.choice((0.3, 0.5, 0.7))
        family.add(frozenset(e for e in elements if rng.random() < p))
    while True:
        meets = {a & b for a in family for b in family} - family
        if not meets:
            return GeometricLattice(elements, family)
        family |= meets


def closure_oracle(lattice, subset):
    """The first flat in key order strictly inside the running answer that
    holds the subset, starting from top.  Oracle for ``closure``."""
    a = frozenset(str(e) for e in subset)
    if not a <= set(lattice.elements):
        raise MatroidInputError(f"{sorted(a)} is not a subset of the ground set")
    out = lattice.top
    for f in lattice.flats:
        if a <= f and f < out:
            out = f
    if not a <= out:
        raise MatroidInputError(f"no flat contains {sorted(a)}")
    return out


def closure_or_error(closure, lattice, subset):
    try:
        return closure(lattice, subset)
    except MatroidInputError as exc:
        return str(exc)


def assert_same_closures(lattice):
    """Every subset of the ground set, and one with a foreign element."""
    subsets = [c for k in range(len(lattice.elements) + 1) for c in combinations(lattice.elements, k)]
    for subset in subsets + [("x",) + lattice.elements[:1]]:
        want = closure_or_error(closure_oracle, lattice, subset)
        assert closure_or_error(GeometricLattice.closure, lattice, subset) == want, subset


@pytest.mark.parametrize("seed", range(4))
def test_closure_matches_scan_on_intersection_closed_families(seed):
    rng = random.Random(seed)
    for _ in range(150):
        assert_same_closures(intersection_closed_family(rng))


@pytest.mark.parametrize("seed", range(4))
def test_intersection_closed_families_match_interval_loop(seed):
    rng = random.Random(seed)
    reached = 0
    for _ in range(150):
        lattice = intersection_closed_family(rng)
        line = verify_geometric(lattice)["intervals-geometric"]
        assert (line.passed, line.detail) == intervals_oracle(lattice)
        assert_same_order(lattice)
        reached += not line.passed and not line.detail.startswith("skipped")
    assert reached >= 10  # the families do reach interval failures


def test_interval_line_matches_interval_loop_on_data():
    for path in MATROID_FILES:
        lattice = load_matroid(json.loads(path.read_text()), validate=False)
        line = verify_geometric(lattice)["intervals-geometric"]
        assert (line.passed, line.detail) == intervals_oracle(lattice), path.name


def assert_same_order(lattice):
    """Masks, up- and down-sets and every flat's covers; and, on a ranked
    family, whose bottom and top are its one minimal and one maximal flat,
    every flag in the same order."""
    order = lattice.order
    assert order.elements == lattice.flats
    assert (order.masks, order.up, order.down) == order_tables_oracle(lattice)
    for f in lattice.flats:
        assert lattice.upper_covers(f) == upper_covers_oracle(lattice, f), sorted(f)
    if verify_geometric(lattice)["ranked"].passed:
        assert all_complete_flags(lattice) == all_complete_flags_oracle(lattice)


def assert_same_reports(lattice):
    assert verify_geometric(lattice).to_json() == verify_geometric_oracle(lattice, True).to_json()
    assert_same_order(lattice)


@st.composite
def families(draw):
    """A random family of subsets of at most 5 elements, sometimes with the
    empty set and the ground set added, sometimes with arbitrary ranks."""
    elements = [str(i) for i in range(1, draw(st.integers(1, 5)) + 1)]
    subsets = [frozenset(c) for k in range(len(elements) + 1)
               for c in combinations(elements, k)]
    flats = set(draw(st.lists(st.sampled_from(subsets), min_size=1, max_size=14)))
    if draw(st.booleans()):
        flats.add(frozenset())
    if draw(st.booleans()):
        flats.add(frozenset(elements))
    ranks = None
    if draw(st.booleans()):
        ranks = {f: draw(st.integers(-1, 4)) for f in sorted(flats, key=sorted)}
    return GeometricLattice(elements, flats, ranks)


@DERANDOMIZED
@given(families())
def test_random_families_match_oracle(lattice):
    assert_same_reports(lattice)
    # A finite atomic semimodular lattice is geometric, and so are its
    # intervals: coatom-meet and intervals-geometric never fail first, so
    # the hand-built cases below show their details behind other failures.
    rep = verify_geometric(lattice)
    if all(c.passed for c in rep.checks[:5]):
        assert rep.ok


MATROID_FILES = [p for p in sorted(DATA.glob("*.json")) if "format" in json.loads(p.read_text())]


@DERANDOMIZED
@given(families())
def test_closure_matches_scan_on_random_families(lattice):
    # most of these families are not meet-closed: the first candidate
    # strictly inside top is kept, as the scan keeps it
    assert_same_closures(lattice)


def test_closure_matches_scan_on_data_lattices():
    for path in MATROID_FILES:
        assert_same_closures(load_matroid(json.loads(path.read_text()), validate=False))


@pytest.mark.parametrize("path", MATROID_FILES, ids=lambda p: p.name)
def test_data_lattices_match_oracle(path):
    assert_same_reports(load_matroid(json.loads(path.read_text()), validate=False))


@pytest.mark.parametrize("n", range(1, 7))
def test_boolean_lattices_match_oracle(n):
    assert_same_reports(boolean_matroid([str(i) for i in range(1, n + 1)]))


@pytest.mark.parametrize("r, n", [(r, n) for n in range(1, 8) for r in range(1, n + 1)])
def test_uniform_lattices_match_oracle(r, n):
    assert_same_reports(uniform_matroid(r, n))


# -- chain heights by level bitsets against the scan -----------------------------------


def assert_same_heights(lattice):
    """The lattice's flats with no ranks given, so the constructor takes
    their chain heights, with no order table built."""
    unranked = GeometricLattice(lattice.elements, lattice.flats)
    assert "order" not in vars(unranked)
    assert unranked.rank_of == heights_oracle(unranked) == order_heights_oracle(unranked)


@pytest.mark.parametrize("path", MATROID_FILES, ids=lambda p: p.name)
def test_heights_match_scan_on_data_lattices(path):
    assert_same_heights(load_matroid(json.loads(path.read_text()), validate=False))


def test_heights_match_scan_on_boolean_and_uniform_lattices():
    for n in range(1, 8):
        if n < 7:
            assert_same_heights(boolean_matroid([str(i) for i in range(1, n + 1)]))
        for r in range(1, n + 1):
            assert_same_heights(uniform_matroid(r, n))


@pytest.mark.parametrize("seed", range(4))
def test_heights_match_scan_on_intersection_closed_families(seed):
    rng = random.Random(seed)
    for _ in range(150):
        assert_same_heights(intersection_closed_family(rng))


@DERANDOMIZED
@given(families())
def test_heights_match_scan_on_random_families(lattice):
    # most are not lattices, nor ranked: heights are defined all the same
    assert_same_heights(lattice)


# -- flags from the one order table against the recursion ----------------------------------


def test_flag_order_matches_the_recursion(fano):
    for lattice, count in ((boolean_matroid("1234"), 24), (uniform_matroid(3, 5), 20), (fano, 21)):
        flags = all_complete_flags(lattice)
        assert flags == all_complete_flags_oracle(lattice)
        assert len(flags) == count
        assert default_flag(lattice) == flags[0]


def family(*flats, ranks=None, ground="1234"):
    """A lattice on the ground set 1..4, or the one given, from flats written as digit strings."""
    sets = [frozenset(f) for f in flats]
    return GeometricLattice(ground, sets, None if ranks is None else dict(zip(sets, ranks)))


def details(lattice):
    rep = verify_geometric(lattice)
    assert rep.to_json() == verify_geometric_oracle(lattice, True).to_json()
    line = rep["intervals-geometric"]
    assert (line.passed, line.detail) == intervals_oracle(lattice)
    return {c.name: c.detail for c in rep.checks if not c.passed}


def test_chain_fails_atomic_first():
    # 0 < 1 < 12: ranked, but {1,2} lies over a single atom.
    assert details(family("", "1", "12")) == {
        "atomic": "['1', '2'] is not a join of atoms",
        "coatom-meet": "[] is not the meet of its coatoms",
        "intervals-geometric": "interval [[], ['1', '2']] is not geometric",
    }


def test_two_lines_fail_semimodular_first():
    # Two disjoint lines 12 and 34 under a plane: atomic, but the points
    # 1 and 3 have rank sum 2 against rank(0) + rank(1234) = 3.  The
    # intervals [0, 1] .. [0, 34] pass; [0, 1234] is the first to fail.
    assert details(family("", "1", "2", "3", "4", "12", "34", "1234")) == {
        "semimodular": "rank(['1'])+rank(['3']) < rank(meet)+rank(join)",
        "coatom-meet": "['1'] is not the meet of its coatoms",
        "intervals-geometric": "interval [[], ['1', '2', '3', '4']] is not geometric",
    }


def test_non_atomic_flat_below_top_is_the_first_bad_interval():
    # K4's lines on 1..4 and a line 45 over the one atom 4: [0, 45] is the
    # first bad interval, below the top.
    lattice = family("", "1", "2", "3", "4", "12", "13", "14", "23", "24", "34", "45", "12345",
                     ground="12345")
    assert details(lattice) == {
        "atomic": "['4', '5'] is not a join of atoms",
        "intervals-geometric": "interval [[], ['4', '5']] is not geometric",
    }


def test_violation_join_below_top_is_the_first_bad_interval():
    # The points 2 and 5 lie on no common line, so their join is the plane
    # 125: [0, 125] is the first bad interval, below both the join 1234 of
    # the first violation (1, 3) and the top.
    lattice = family("", "1", "2", "3", "4", "5", "12", "15", "34", "125", "1234", "12345",
                     ground="12345")
    assert details(lattice) == {
        "semimodular": "rank(['1'])+rank(['3']) < rank(meet)+rank(join)",
        "coatom-meet": "[] is not the meet of its coatoms",
        "intervals-geometric": "interval [[], ['1', '2', '5']] is not geometric",
    }


def test_pentagon_is_not_ranked():
    # N5: 0 < 1 < 13 < 123 and 0 < 2 < 123.
    lattice = family("", "1", "2", "13", "123")
    assert details(lattice) == {
        "ranked": "covers do not increase rank by one",
        "atomic": "skipped: not a ranked lattice",
        "semimodular": "skipped: not a ranked lattice",
        "coatom-meet": "skipped: not a ranked lattice",
        "intervals-geometric": "skipped: not a ranked lattice",
    }


def test_supplied_ranks_that_skip_a_level_are_not_ranked():
    lattice = family("", "1", "2", "12", ranks=[0, 1, 1, 3])
    assert details(lattice)["ranked"] == "covers do not increase rank by one"


def test_missing_meet_and_missing_join():
    # 12 and 23 meet in 2, which is absent: not meet-closed, joins exist
    # and every cover raises the height by one.
    assert details(family("", "12", "23", "123")) == {
        "meet-closed": "not meet-closed",
        "lattice": "",
        "atomic": "skipped: not a ranked lattice",
        "semimodular": "skipped: not a ranked lattice",
        "coatom-meet": "skipped: not a ranked lattice",
        "intervals-geometric": "skipped: not a ranked lattice",
    }
    # 1 and 2 have two minimal upper bounds, 123 and 124, and no top.
    assert details(family("", "1", "2", "123", "124"))["lattice"] == "meets or joins missing"
    # With a top added the join of 1 and 2 is still missing.
    assert details(family("", "1", "2", "123", "124", "1234"))["lattice"] == "meets or joins missing"


def test_validated_loader_quotes_the_first_failure():
    with pytest.raises(ValueError, match=r"\['1', '2'\] is not a join of atoms"):
        lattice_from_flats(["1", "2"], [[], ["1"], ["1", "2"]])
