"""Geometric lattices of matroid flats: loaders, queries, validation.

A matroid is handled through its lattice of flats, ordered by inclusion.
Element labels are strings; the load order of the ground set is the canonical
order used for every deterministic tie-break downstream.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Mapping, Sequence

from .linalg import is_prime, rank_gfp, rank_q
from .report import ValidationReport

Flat = frozenset  # a flat is a frozenset of element labels


class MatroidInputError(ValueError):
    """Raised for malformed or inconsistent matroid input."""


class GeometricLattice:
    """Finite lattice of flats with an explicit rank function.

    The constructor is tolerant: it stores any inclusion-ordered family and
    computes ranks as chain heights when none are supplied, so that
    ``verify_geometric`` can report *which* axiom a bad input breaks.
    Instances are immutable after construction and safe to share.
    """

    def __init__(
        self,
        elements: Sequence[str],
        flats: Iterable[frozenset],
        rank_of: Mapping[frozenset, int] | None = None,
    ):
        self.elements: tuple[str, ...] = tuple(str(e) for e in elements)
        if len(set(self.elements)) != len(self.elements):
            raise MatroidInputError("ground set labels must be distinct")
        self._index = {e: i for i, e in enumerate(self.elements)}
        flatset = {frozenset(str(e) for e in f) for f in flats}
        for f in flatset:
            if not f <= set(self.elements):
                raise MatroidInputError(f"flat {sorted(f)} is not a subset of the ground set")
        if not flatset:
            raise MatroidInputError("empty flats list")
        self.flats: tuple[frozenset, ...] = tuple(sorted(flatset, key=self.key))
        self._flatset = flatset
        if rank_of is None:
            self.rank_of = self._heights()
        else:
            self.rank_of = {frozenset(f): int(r) for f, r in rank_of.items()}
        self.bottom: frozenset = min(self.flats, key=lambda f: (self.rank_of[f], len(f)))
        self.top: frozenset = max(self.flats, key=lambda f: (self.rank_of[f], len(f)))
        self.r: int = self.rank_of[self.top]

    # -- canonical ordering ------------------------------------------------

    def key(self, flat: frozenset) -> tuple:
        """Canonical sort key: (size, ground-order index tuple)."""
        idx = tuple(sorted(self._index[e] for e in flat))
        return (len(idx), idx)

    def sorted_elements(self, flat: Iterable[str]) -> tuple[str, ...]:
        return tuple(sorted(flat, key=self._index.__getitem__))

    def _heights(self) -> dict[frozenset, int]:
        by_size = sorted(self._flatset, key=len)
        h: dict[frozenset, int] = {}
        for f in by_size:
            below = [h[g] for g in h if g < f]
            h[f] = max(below) + 1 if below else 0
        return h

    # -- queries -----------------------------------------------------------

    def __contains__(self, flat) -> bool:
        return frozenset(flat) in self._flatset

    def rank(self, flat: frozenset) -> int:
        return self.rank_of[frozenset(flat)]

    def corank(self, flat: frozenset) -> int:
        return self.r - self.rank(flat)

    def closure(self, subset: Iterable[str]) -> frozenset:
        """Smallest flat containing the subset (exists by meet-closure)."""
        a = frozenset(str(e) for e in subset)
        if not a <= set(self.elements):
            raise MatroidInputError(f"{sorted(a)} is not a subset of the ground set")
        out = self.top
        for f in self.flats:
            if a <= f and f < out:
                out = f
        if not a <= out:
            raise MatroidInputError(f"no flat contains {sorted(a)}")
        return out

    def meet(self, x: frozenset, y: frozenset) -> frozenset:
        m = frozenset(x) & frozenset(y)
        if m not in self._flatset:
            raise MatroidInputError("lattice is not meet-closed")
        return m

    def join(self, x: frozenset, y: frozenset) -> frozenset:
        return self.closure(frozenset(x) | frozenset(y))

    def atoms(self) -> tuple[frozenset, ...]:
        return tuple(f for f in self.flats if self.rank_of[f] == self.rank_of[self.bottom] + 1)

    def coatoms(self) -> tuple[frozenset, ...]:
        return tuple(f for f in self.flats if self.rank_of[f] == self.r - 1)

    def coat_above(self, flat: frozenset) -> tuple[frozenset, ...]:
        x = frozenset(flat)
        return tuple(c for c in self.coatoms() if x <= c)

    def upper_covers(self, flat: frozenset) -> tuple[frozenset, ...]:
        x = frozenset(flat)
        above = [f for f in self.flats if x < f]
        return tuple(f for f in above if not any(x < g < f for g in above))

    def interval(self, x: frozenset, y: frozenset) -> "GeometricLattice":
        """The interval [x, y] as a lattice with shifted ranks."""
        sub = [f for f in self.flats if x <= f <= y]
        base = self.rank_of[frozenset(x)]
        return GeometricLattice(self.elements, sub, {f: self.rank_of[f] - base for f in sub})

    def rank_of_subset(self, subset: Iterable[str]) -> int:
        return self.rank(self.closure(subset))


# -- flags ------------------------------------------------------------------


@dataclass(frozen=True)
class Flag:
    """A complete flag: maximal chain bottom = F_0 < ... < F_r = top."""

    chain: tuple[frozenset, ...]

    def __len__(self) -> int:
        return len(self.chain)

    def __getitem__(self, i: int) -> frozenset:
        return self.chain[i]


def make_flag(lattice: GeometricLattice, chain: Sequence[Iterable[str]]) -> Flag:
    flats = tuple(frozenset(str(e) for e in f) for f in chain)
    if len(flats) != lattice.r + 1:
        raise MatroidInputError(f"flag must have {lattice.r + 1} flats, got {len(flats)}")
    for i, f in enumerate(flats):
        if f not in lattice:
            raise MatroidInputError(f"flag entry {sorted(f)} is not a flat")
        if lattice.rank(f) != i:
            raise MatroidInputError(f"flag entry {sorted(f)} has rank {lattice.rank(f)}, expected {i}")
        if i > 0 and not flats[i - 1] < f:
            raise MatroidInputError("flag chain is not strictly increasing")
    return Flag(flats)


def default_flag(lattice: GeometricLattice) -> Flag:
    """Deterministic flag: repeatedly extend by the lex-least upper cover."""
    chain = [lattice.bottom]
    while chain[-1] != lattice.top:
        chain.append(min(lattice.upper_covers(chain[-1]), key=lattice.key))
    return Flag(tuple(chain))


def all_complete_flags(lattice: GeometricLattice) -> list[Flag]:
    """Every complete flag, in canonical order."""
    out: list[Flag] = []

    def grow(chain: list[frozenset]) -> None:
        if chain[-1] == lattice.top:
            out.append(Flag(tuple(chain)))
            return
        for cover in sorted(lattice.upper_covers(chain[-1]), key=lattice.key):
            grow(chain + [cover])

    grow([lattice.bottom])
    return out


def flag_restrict(
    lattice: GeometricLattice, flag: Flag, x: frozenset
) -> tuple[tuple[frozenset, ...], tuple[frozenset, ...]]:
    """Deduplicated chains {x v F_i} and {x ^ F_i}.

    The join chain is a maximal chain above x (length corank(x)+1, by
    semimodularity).  The meet chain is a chain below x but need not be
    maximal: geometric lattices are not lower semimodular, e.g. in U_{3,4}
    meeting {3,4} into the flag 0 < {1} < {1,2} < E gives only two flats.
    """
    x = frozenset(x)
    upper: list[frozenset] = []
    lower: list[frozenset] = []
    for f in flag.chain:
        j = lattice.join(x, f)
        if not upper or upper[-1] != j:
            upper.append(j)
        m = lattice.meet(x, f)
        if not lower or lower[-1] != m:
            lower.append(m)
    return tuple(upper), tuple(lower)


# -- verification -----------------------------------------------------------


def verify_geometric(lattice: GeometricLattice, intervals: bool = True) -> ValidationReport:
    """Check every geometric-lattice axiom, reporting each separately.

    Checks: lattice property (unique bottom/top, meets and joins exist),
    meet-closed (the meet of two flats is their intersection), ranked,
    atomicity, semimodularity, the coatom-meet identity, and optionally
    that every interval is itself geometric.
    """
    rep = ValidationReport()
    flats = lattice.flats
    rk = lattice.rank_of

    bottoms = [f for f in flats if not any(g < f for g in flats)]
    tops = [f for f in flats if not any(f < g for g in flats)]
    is_bounded = len(bottoms) == 1 and len(tops) == 1

    meet_closed = all((x & y) in lattice._flatset for x, y in combinations(flats, 2))
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
            for y in lattice.upper_covers(x):
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
            below = frozenset().union(*[a for a in atom_set if a <= f]) if any(a <= f for a in atom_set) else frozenset()
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
                        sub = lattice.interval(x, y)
                        sub_rep = verify_geometric(sub, intervals=False)
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


# -- loaders ------------------------------------------------------------------


def uniform_matroid(r: int, n: int) -> GeometricLattice:
    """Uniform matroid U_{r,n} on elements \"1\"..\"n\"."""
    if not (1 <= r <= n):
        raise MatroidInputError(f"uniform matroid needs 1 <= r <= n, got r={r}, n={n}")
    elements = [str(i) for i in range(1, n + 1)]
    full = frozenset(elements)
    flats = [frozenset(c) for k in range(r) for c in combinations(elements, k)]
    flats.append(full)
    ranks = {f: (r if f == full else len(f)) for f in flats}
    return GeometricLattice(elements, flats, ranks)


def boolean_matroid(elements: Sequence[str]) -> GeometricLattice:
    """Boolean matroid: every subset is a flat."""
    els = [str(e) for e in elements]
    flats = [frozenset(c) for k in range(len(els) + 1) for c in combinations(els, k)]
    return GeometricLattice(els, flats, {f: len(f) for f in flats})


def lattice_from_flats(elements: Sequence[str], flats: Iterable[Iterable[str]],
                       validate: bool = True) -> GeometricLattice:
    lat = GeometricLattice(elements, [frozenset(f) for f in flats])
    if validate:
        rep = verify_geometric(lat, intervals=False)
        if not rep.ok:
            first = rep.failures()[0]
            raise MatroidInputError(f"flats list is not a geometric lattice: {first.detail or first.name}")
    return lat


def linear_matroid(
    columns: Sequence[Sequence], p: int | None = None, elements: Sequence[str] | None = None
) -> GeometricLattice:
    """Matroid of a vector configuration, one column per element.

    Columns are exact rationals (p is None) or integers mod a prime p.
    Flats are enumerated rank by rank through the closure operator, which
    stays polynomial in the number of flats.
    """
    n = len(columns)
    if n == 0:
        raise MatroidInputError("linear matroid needs at least one column")
    if elements is None:
        elements = [str(i) for i in range(1, n + 1)]
    if len(elements) != n:
        raise MatroidInputError("element count must match column count")
    if p is not None and not is_prime(p):
        raise MatroidInputError(f"{p} is not prime")
    if p is None:
        vecs = {e: tuple(Fraction(x) for x in col) for e, col in zip(elements, columns)}
        rank_fn = lambda es: rank_q([vecs[e] for e in es])
    else:
        vecs = {e: tuple(int(x) % p for x in col) for e, col in zip(elements, columns)}
        rank_fn = lambda es: rank_gfp([vecs[e] for e in es], p)
    dims = {len(col) for col in columns}
    if len(dims) != 1:
        raise MatroidInputError("columns must share a dimension")

    def closure(a: frozenset) -> frozenset:
        ra = rank_fn(sorted(a))
        return frozenset(e for e in elements if rank_fn(sorted(a) + [e]) == ra)

    bottom = closure(frozenset())
    flats: dict[frozenset, int] = {bottom: 0}
    frontier = [bottom]
    level = 0
    full = frozenset(elements)
    while frontier:
        level += 1
        nxt: set[frozenset] = set()
        for f in frontier:
            for e in full - f:
                c = closure(f | {e})
                if c not in flats:
                    nxt.add(c)
        for c in nxt:
            flats[c] = level
        frontier = sorted(nxt, key=len)
    return GeometricLattice(elements, flats.keys(), flats)


def _int_field(spec: Mapping, key: str) -> int:
    """An integer field of a matroid spec.  Integers, integer strings such
    as "3" and integral floats are accepted; anything else ("x", 2.5, true)
    is an input error."""
    value = spec[key]
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            pass
    elif isinstance(value, int) and not isinstance(value, bool):
        return value
    elif isinstance(value, float) and value.is_integer():
        return int(value)
    raise MatroidInputError(f"{key!r} must be an integer, got {value!r}")


def load_matroid(spec: Mapping, validate: bool = True) -> GeometricLattice:
    """Build a lattice from a matroid description dict.

    Formats: {"format": "flats", "ground_set": [...], "flats": [[...], ...]},
    {"format": "linear", "field": "Q"|"GF", "p": prime, "columns": [[...], ...]},
    {"format": "uniform", "r": int, "n": int}.
    """
    if not isinstance(spec, Mapping) or "format" not in spec:
        raise MatroidInputError("matroid spec needs a 'format' key")
    fmt = spec["format"]
    try:
        if fmt == "uniform":
            return uniform_matroid(_int_field(spec, "r"), _int_field(spec, "n"))
        if fmt == "flats":
            ground = [str(e) for e in spec["ground_set"]]
            return lattice_from_flats(ground, [[str(e) for e in f] for f in spec["flats"]],
                                      validate=validate)
        if fmt == "linear":
            field = spec.get("field", "Q")
            if field == "Q":
                try:
                    cols = [[Fraction(str(x)) for x in col] for col in spec["columns"]]
                except (ValueError, ZeroDivisionError) as exc:
                    raise MatroidInputError(f"bad rational entry: {exc}") from exc
                return linear_matroid(cols, None, spec.get("ground_set"))
            if field == "GF":
                return linear_matroid(spec["columns"], _int_field(spec, "p"), spec.get("ground_set"))
            raise MatroidInputError(f"unknown field {field!r}")
    except KeyError as exc:
        raise MatroidInputError(f"matroid spec is missing {exc}") from exc
    raise MatroidInputError(f"unknown matroid format {fmt!r}")
