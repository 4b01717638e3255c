"""Exact linear algebra over Q and GF(p): one integer or modular elimination.

Rank and sign decisions downstream must be exact, so there is no floating
point and no Fraction arithmetic in the elimination.  Over Q each vector is
scaled to a primitive integer vector (times the lcm of its denominators,
over the gcd of its entries), which changes no dependency and no sign, and
rows are combined by integer cross-multiplication with the gcd divided out.
Over GF(p) rows are reduced mod p with the pivot scaled to 1.  An echelon
basis is a list of (pivot column, row); each row is zero at the pivots of
the rows before it, so a vector lies in the span iff ``reduce`` sends it to
zero.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm
from typing import Sequence


PRIME_BOUND = 2 ** 31  # GF(p) refused from here up, so trial division stays under 50,000 steps


def is_prime(p: int) -> bool:
    return p >= 2 and all(p % d for d in range(2, isqrt(p) + 1))


def integer_row(v: Sequence, p: int | None = None) -> list[int]:
    """The vector mod p, or over Q as a primitive integer vector."""
    if p is not None:
        return [int(x) % p for x in v]
    den = lcm(*(x.denominator for x in v))
    row = [x.numerator * (den // x.denominator) for x in v]
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


def reduce(basis: Sequence[tuple[int, list[int]]], row: list[int], p: int | None = None) -> list[int]:
    """The row reduced against an echelon basis; all zero iff it is in the span."""
    for pc, b in basis:
        a = row[pc]
        if not a:
            continue
        if p is not None:
            row = [(x - a * y) % p for x, y in zip(row, b)]
        else:
            row = [b[pc] * x - a * y for x, y in zip(row, b)]
            g = gcd(*row)
            if g > 1:
                row = [x // g for x in row]
    return row


def echelon(rows: Sequence[list[int]], p: int | None = None, basis=()) -> list[tuple[int, list[int]]]:
    """The echelon basis extended by the integer rows that leave its span."""
    out = list(basis)
    for row in rows:
        row = reduce(out, row, p)
        pc = next((i for i, x in enumerate(row) if x), None)
        if pc is not None:
            if p is not None:
                inv = pow(row[pc], p - 2, p)
                row = [x * inv % p for x in row]
            out.append((pc, row))
    return out


def rank_q(vectors: Sequence[Sequence[Fraction]]) -> int:
    """Rank of the span of the given rational vectors."""
    return len(echelon([integer_row(v) for v in vectors]))


def rank_gfp(vectors: Sequence[Sequence[int]], p: int) -> int:
    """Rank of the span of the given vectors over GF(p)."""
    return len(echelon([integer_row(v, p) for v in vectors], p))


def nullspace_q(rows: Sequence[Sequence[Fraction]], ncols: int) -> list[tuple[Fraction, ...]]:
    """Basis of {x : R x = 0} for the rational matrix with the given rows:
    one vector per free column c, with x[c] = 1 and 0 at the other free
    columns.  Back-substitution runs over the echelon rows last to first,
    since each row is zero at the pivots of the rows before it."""
    basis = echelon([integer_row(r) for r in rows])
    pivots = {pc for pc, _ in basis}
    out = []
    for fc in (c for c in range(ncols) if c not in pivots):
        x = [Fraction(int(c == fc)) for c in range(ncols)]
        for pc, b in reversed(basis):
            x[pc] = Fraction(-sum(b[c] * x[c] for c in range(pc + 1, ncols)), b[pc])
        out.append(tuple(x))
    return out
