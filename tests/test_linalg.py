"""The elimination kernel against sympy's ranks, then the span-membership
linear matroid against the closure computed one rank call per element.  The
kernel tests come first: a broken kernel fails them rather than leaving the
flat enumeration to grow without end."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st
from sympy import GF, QQ
from sympy.polys.matrices import DomainMatrix

from matroid_spheres import linear_matroid
from matroid_spheres.lattice import GeometricLattice
from matroid_spheres.linalg import nullspace_q, rank_gfp, rank_q

DERANDOMIZED = settings(derandomize=True, database=None, max_examples=150, deadline=None)
PRIMES = (2, 3, 5, 7)


def rank_oracle_matroid(columns, p=None) -> GeometricLattice:
    """Flats of the column matroid by the rank closure: cl(A) is every
    element e with rank(A + e) == rank(A), one rank call per element."""
    elements = [str(i) for i in range(1, len(columns) + 1)]
    vecs = dict(zip(elements, columns))

    def rank(es):
        vectors = [vecs[e] for e in es]
        return rank_q(vectors) if p is None else rank_gfp(vectors, p)

    def closure(a):
        ra = rank(sorted(a))
        return frozenset(e for e in elements if rank(sorted(a) + [e]) == ra)

    bottom = closure(frozenset())
    flats, frontier, level = {bottom: 0}, [bottom], 0
    while frontier:
        level += 1
        fresh = {closure(f | {e}) for f in frontier for e in set(elements) - f} - set(flats)
        flats.update(dict.fromkeys(fresh, level))
        frontier = list(fresh)
    return GeometricLattice(elements, flats.keys(), flats)


fractions = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 4))


def matrices(entries):
    """(rows, ncols) with up to 5 rows and 5 columns."""
    return st.integers(0, 5).flatmap(lambda n: st.tuples(
        st.lists(st.lists(entries, min_size=n, max_size=n), max_size=5), st.just(n)))


def sympy_rank(rows, ncols, domain, convert):
    return DomainMatrix([[convert(x) for x in r] for r in rows], (len(rows), ncols), domain).rank()


@DERANDOMIZED
@given(matrices(fractions))
def test_rank_q_matches_sympy(case):
    rows, n = case
    assert rank_q(rows) == sympy_rank(rows, n, QQ, lambda x: QQ(x.numerator, x.denominator))


@DERANDOMIZED
@given(st.sampled_from(PRIMES), matrices(st.integers(-9, 9)))
def test_rank_gfp_matches_sympy(p, case):
    rows, n = case
    assert rank_gfp(rows, p) == sympy_rank(rows, n, GF(p), GF(p))


@DERANDOMIZED
@given(matrices(fractions))
def test_nullspace_q_has_full_size_and_annihilates_rows(case):
    rows, n = case
    basis = nullspace_q(rows, n)
    assert len(basis) == n - rank_q(rows)
    assert rank_q(basis) == len(basis)
    for x in basis:
        assert all(isinstance(a, Fraction) for a in x)
        assert all(sum(a * b for a, b in zip(r, x)) == 0 for r in rows)


@st.composite
def configurations(draw, entries):
    """d fresh columns in dimension d = 1..5, then up to three more,
    each fresh, zero or a multiple of an earlier column (loops and parallel
    classes), in a random order."""
    d = draw(st.integers(1, 5))
    fresh = st.lists(entries, min_size=d, max_size=d)
    cols = [draw(fresh) for _ in range(d)]
    for kind in draw(st.lists(st.sampled_from(("fresh", "zero", "parallel")), max_size=3)):
        if kind == "parallel":
            scale = draw(entries.filter(bool))
            cols.append([scale * x for x in draw(st.sampled_from(cols))])
        else:
            cols.append(draw(fresh) if kind == "fresh" else [0] * d)
    return draw(st.permutations(cols))


def assert_same_matroid(fast, slow):
    assert fast.flats == slow.flats
    assert fast.rank_of == slow.rank_of


@DERANDOMIZED
@given(configurations(fractions))
def test_linear_matroid_matches_rank_oracle_over_q(cols):
    assert_same_matroid(linear_matroid(cols), rank_oracle_matroid(cols))


@DERANDOMIZED
@given(st.sampled_from(PRIMES).flatmap(
    lambda p: st.tuples(st.just(p), configurations(st.integers(-p, 2 * p)))))
def test_linear_matroid_matches_rank_oracle_over_gfp(case):
    p, cols = case
    assert_same_matroid(linear_matroid(cols, p), rank_oracle_matroid(cols, p))
