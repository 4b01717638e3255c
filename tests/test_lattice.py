from itertools import combinations

import pytest

from matroid_spheres import (
    GeometricLattice,
    MatroidInputError,
    all_complete_flags,
    default_flag,
    lattice_from_flats,
    linear_matroid,
    load_matroid,
    make_flag,
    uniform_matroid,
    verify_geometric,
)
from conftest import FANO_COLUMNS, lattice_join


def gf2_rank(vectors):
    # independent bitmask elimination oracle
    rows = [int("".join(str(b) for b in v), 2) for v in vectors]
    rank = 0
    for bit in range(2, -1, -1):
        pivot = next((i for i in range(rank, len(rows)) if (rows[i] >> bit) & 1), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(len(rows)):
            if i != rank and (rows[i] >> bit) & 1:
                rows[i] ^= rows[rank]
        rank += 1
    return rank


def brute_force_fano_flats():
    elements = [str(i) for i in range(1, 8)]
    cols = dict(zip(elements, FANO_COLUMNS))
    flats = set()
    for k in range(8):
        for sub in combinations(elements, k):
            r = gf2_rank([cols[e] for e in sub]) if sub else 0
            closure = frozenset(
                e for e in elements if gf2_rank([cols[x] for x in sub] + [cols[e]]) == r
            )
            flats.add(closure)
    return flats


def test_uniform_24_flats(u24):
    expected = {frozenset()} | {frozenset({str(i)}) for i in range(1, 5)} | {
        frozenset({"1", "2", "3", "4"})
    }
    assert set(u24.flats) == expected
    assert u24.r == 2


def test_fano_flats_against_brute_force(fano):
    assert set(fano.flats) == brute_force_fano_flats()
    assert fano.r == 3
    assert len(fano.atoms()) == 7
    assert len(fano.coatoms()) == 7


def test_load_not_meet_closed_errors():
    with pytest.raises(MatroidInputError, match="not meet-closed"):
        lattice_from_flats(["1", "2", "3"], [[], ["1", "2"], ["2", "3"], ["1", "2", "3"]])


def test_load_malformed_spec():
    with pytest.raises(MatroidInputError):
        load_matroid({"format": "nope"})
    with pytest.raises(MatroidInputError):
        load_matroid({"format": "linear", "field": "GF", "p": 6, "columns": [[1], [1]]})
    with pytest.raises(MatroidInputError):
        load_matroid({"no_format": True})


@pytest.mark.parametrize("r, n", [("x", 4), (2, "four"), (2.5, 4), (True, 4), (2, None)])
def test_load_uniform_non_integer_rank(r, n):
    with pytest.raises(MatroidInputError, match="must be an integer"):
        load_matroid({"format": "uniform", "r": r, "n": n})


def test_load_rational_linear_bad_entry():
    with pytest.raises(MatroidInputError, match="bad rational entry"):
        load_matroid({"format": "linear", "field": "Q", "columns": [["x", "1"], ["1", "0"]]})


@pytest.mark.parametrize("entry", [True, None, [1]])
def test_load_gf_linear_non_integer_entry(entry):
    with pytest.raises(MatroidInputError, match="GF entry must be an integer"):
        load_matroid({"format": "linear", "field": "GF", "p": 2, "columns": [[1, entry], [0, 1]]})


def test_load_gf_linear_integer_forms(fano):
    cols = [[str(x) if i % 2 else x for i, x in enumerate(col)] for col in FANO_COLUMNS]
    lat = load_matroid({"format": "linear", "field": "GF", "p": 2, "columns": cols})
    assert lat.flats == fano.flats


def test_load_linear_integer_labels_as_strings():
    cols = [[1, 0], [0, 1], [1, 1]]
    lat = load_matroid({"format": "linear", "field": "Q", "columns": cols, "ground_set": [1, 2, 3]})
    assert lat.elements == ("1", "2", "3")
    assert lat.flats == load_matroid({"format": "linear", "field": "Q", "columns": cols}).flats
    assert lat.rank_of_subset({"1", "2"}) == 2


def test_load_uniform_integer_forms():
    for r, n in (("2", "4"), (2.0, 4)):
        assert load_matroid({"format": "uniform", "r": r, "n": n}).r == 2


def test_closure_examples(u24, fano):
    assert u24.closure({"1", "3"}) == frozenset({"1", "2", "3", "4"})
    assert u24.closure({"2"}) == frozenset({"2"})
    # Fano: the line through two points, via a brute-force oracle over flats
    line = fano.closure({"1", "2"})
    oracle = min(
        (f for f in fano.flats if {"1", "2"} <= f),
        key=lambda f: (len(f), sorted(f)),
    )
    assert line == oracle == frozenset({"1", "2", "3"})


def test_closure_is_closure_operator(u24, u34, n134, fano):
    for lattice in (u24, u34, n134, fano):
        elements = lattice.elements
        subsets = [
            frozenset(c) for k in range(min(len(elements), 8) + 1)
            for c in combinations(elements, k)
        ]
        closures = {a: lattice.closure(a) for a in subsets}
        for a in subsets:
            assert a <= closures[a]  # extensive
            assert closures[closures[a]] == closures[a]  # idempotent
        for a in subsets:
            for b in subsets:
                if a <= b:
                    assert closures[a] <= closures[b]  # monotone


def test_meet_join_examples(u24, fano):
    # the meet of two flats is their intersection
    a, b = frozenset({"1"}), frozenset({"2"})
    assert a & b in u24
    assert lattice_join(u24, a, b) == frozenset({"1", "2", "3", "4"})
    for x in u24.flats:
        assert lattice_join(u24, x, u24.bottom) == x
    line1 = fano.closure({"1", "2"})
    line2 = fano.closure({"1", "4"})
    assert line1 & line2 == frozenset({"1"}) and line1 & line2 in fano


def test_meet_join_against_exhaustive_oracle(u24):
    flats = u24.flats
    for x in flats:
        for y in flats:
            lower = [f for f in flats if f <= x and f <= y]
            upper = [f for f in flats if x <= f and y <= f]
            assert x & y == max(lower, key=len)
            assert lattice_join(u24, x, y) == min(upper, key=len)


def test_rank_corank_atoms_coatoms(u24, fano):
    assert u24.coat_above(frozenset()) == tuple(
        frozenset({str(i)}) for i in range(1, 5)
    )
    assert u24.coat_above(u24.top) == ()
    point = frozenset({"1"})
    lines = fano.coat_above(point)
    assert len(lines) == 3
    assert all(point <= line for line in lines)
    assert {u24.corank(a) for a in u24.atoms()} == {1}


def test_verify_geometric_positive(u34, bool3):
    assert verify_geometric(u34).ok
    assert verify_geometric(bool3).ok


def test_verify_geometric_negative_case():
    # {2} and {3} jump straight to the top: not ranked, not semimodular
    lat = GeometricLattice(
        ["1", "2", "3"],
        [frozenset(), frozenset("1"), frozenset("2"), frozenset("3"),
         frozenset({"1", "2"}), frozenset({"1", "2", "3"})],
    )
    rep = verify_geometric(lat)
    assert not rep.ok
    assert not rep["ranked"].passed


def flag_restrict(lattice, flag, x):
    """Deduplicated chains {x v F_i} and {x ^ F_i}.

    The join chain is a maximal chain above x (length corank(x)+1, by
    semimodularity).  The meet chain is a chain below x but need not be
    maximal: geometric lattices are not lower semimodular, e.g. in U_{3,4}
    meeting {3,4} into the flag 0 < {1} < {1,2} < E gives only two flats.
    """
    upper = dict.fromkeys(lattice_join(lattice, x, f) for f in flag.chain)
    lower = dict.fromkeys(x & f for f in flag.chain)
    return tuple(upper), tuple(lower)


def test_flag_restrict(u24, u34):
    f = make_flag(u24, [[], ["1"], ["1", "2", "3", "4"]])
    upper, lower = flag_restrict(u24, f, frozenset({"2"}))
    assert upper == (frozenset({"2"}), frozenset({"1", "2", "3", "4"}))
    upper, _ = flag_restrict(u24, f, u24.bottom)
    assert upper == f.chain
    f34 = make_flag(u34, [[], ["1"], ["1", "2"], ["1", "2", "3", "4"]])
    upper, _ = flag_restrict(u34, f34, frozenset({"3", "4"}))
    assert upper == (frozenset({"3", "4"}), frozenset({"1", "2", "3", "4"}))


def test_flag_restrict_lengths_exhaustive(u24, u34, n134):
    # the join chain is always maximal above x; the meet chain is a chain
    # below x but can skip ranks (lower semimodularity fails in general)
    for lattice in (u24, u34, n134):
        for flag in all_complete_flags(lattice):
            for x in lattice.flats:
                upper, lower = flag_restrict(lattice, flag, x)
                assert len(upper) == lattice.corank(x) + 1
                assert all(a < b for a, b in zip(upper, upper[1:]))
                assert lower[0] == x & lattice.bottom
                assert all(f in lattice for f in lower)
                assert lower[-1] == x
                assert all(a < b for a, b in zip(lower, lower[1:]))
                assert len(lower) <= lattice.rank(x) + 1


def test_default_flag(u24, u34, fano):
    assert default_flag(u24).chain == (
        frozenset(), frozenset({"1"}), frozenset({"1", "2", "3", "4"}),
    )
    assert default_flag(u34).chain == (
        frozenset(), frozenset({"1"}), frozenset({"1", "2"}),
        frozenset({"1", "2", "3", "4"}),
    )
    chain = default_flag(fano).chain
    assert chain[1] == frozenset({"1"})
    assert chain[2] == fano.closure({"1", "2"})


def test_all_complete_flags_counts(u24, u34, bool3):
    assert len(all_complete_flags(u24)) == 4
    assert len(all_complete_flags(u34)) == 12
    assert len(all_complete_flags(bool3)) == 6


def test_linear_rank_cross_oracle(fano, u24_vec):
    # lattice rank equals matrix rank of the flat's columns
    cols = dict(zip([str(i) for i in range(1, 8)], FANO_COLUMNS))
    for flat in fano.flats:
        assert fano.rank(flat) == gf2_rank([cols[e] for e in sorted(flat)] or [[0, 0, 0]])
    lat = linear_matroid(u24_vec.columns, None, u24_vec.elements)
    assert set(lat.flats) == set(uniform_matroid(2, 4).flats)


def test_load_rational_linear_with_fraction_strings():
    lat = load_matroid(
        {"format": "linear", "field": "Q",
         "columns": [["1", "0"], ["0", "1"], ["1/2", "1/2"], ["1", "-1"]]}
    )
    assert set(lat.flats) == set(uniform_matroid(2, 4).flats)


def test_make_flag_validation(u24):
    with pytest.raises(MatroidInputError):
        make_flag(u24, [[], ["1", "2", "3", "4"]])  # too short
    with pytest.raises(MatroidInputError):
        make_flag(u24, [[], ["1", "2"], ["1", "2", "3", "4"]])  # not a flat
