"""Geometric lattices of matroid flats: loaders, queries, validation.

A matroid is handled through its lattice of flats, ordered by inclusion.
Element labels are strings; the load order of the ground set is the canonical
order used for every deterministic tie-break downstream.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, cached_property, reduce as fold
from itertools import combinations
from operator import or_
from typing import Iterable, Mapping, Sequence

from .linalg import PRIME_BOUND, echelon, integer_row, is_prime, reduce
from .report import Record, ValidationReport
from .topology import Poset, _bits

Flat = frozenset  # a flat is a frozenset of element labels


class MatroidInputError(ValueError):
    """Raised for malformed or inconsistent matroid input."""


class GeometricLattice:
    """Finite lattice of flats with an explicit rank function.

    The constructor is tolerant: it stores any family of subsets of the
    ground set and computes ranks as chain heights when none are supplied,
    so that ``verify_geometric`` can report *which* axiom a bad input
    breaks.  Heights, closures, covers and flags read inclusion off one
    table, ``holding``, through ``up`` and ``down``; no flat stores its own.
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
        self._atoms = tuple(f for f in self.flats if self.rank_of[f] == self.rank_of[self.bottom] + 1)
        self._coatoms = tuple(f for f in self.flats if self.rank_of[f] == self.r - 1)

    # -- canonical ordering ------------------------------------------------

    def key(self, flat: frozenset) -> tuple:
        """Canonical sort key: (size, ground-order index tuple)."""
        idx = tuple(sorted(self._index[e] for e in flat))
        return (len(idx), idx)

    def sorted_elements(self, flat: Iterable[str]) -> tuple[str, ...]:
        return tuple(sorted(flat, key=self._index.__getitem__))

    @cached_property
    def labels(self) -> dict[frozenset, tuple[str, ...]]:
        """Each flat's elements in ground order, built on first use."""
        return {f: self.sorted_elements(f) for f in self.flats}

    @cached_property
    def coatom_index(self) -> dict[frozenset, int]:
        """Each coatom's position k in ``coatoms()``.  Its signed vertices
        are the ints 2k (+) and 2k + 1 (-), vertex v the mask bit 1 << v."""
        return {c: k for k, c in enumerate(self._coatoms)}

    def vertex_label(self, v: int) -> tuple[tuple[str, ...], str]:
        """The signed vertex v as (its coatom's elements in ground order, '+' or '-')."""
        return self.labels[self._coatoms[v >> 1]], "+-"[v & 1]

    @cached_property
    def holding(self) -> list[int]:
        """holding[i]: the positions in ``flats`` of the flats holding element i."""
        return [int("".join("01"[e in f] for f in reversed(self.flats)), 2) for e in self.elements]

    def up(self, subset: frozenset) -> int:
        """The positions of the flats holding every element of the subset."""
        found, holding, index = (1 << len(self.flats)) - 1, self.holding, self._index
        for e in subset:
            found &= holding[index[e]]
        return found

    def down(self, subset: frozenset) -> int:
        """The positions of the flats holding no element outside the subset."""
        outside = fold(or_, [held for e, held in zip(self.elements, self.holding) if e not in subset], 0)
        return (1 << len(self.flats)) - 1 & ~outside

    @cached_property
    def _inside_top(self) -> int:
        return self.down(self.top)

    def _heights(self) -> dict[frozenset, int]:
        """Each flat's chain height, in key order: the flats strictly inside f,
        which sort before it, are its ``down`` below it; levels[k] holds height k."""
        h, levels = {}, {}
        for i, f in enumerate(self.flats):
            below = self.down(f) & (1 << i) - 1
            # levels gains its keys in increasing order, so reversed is highest first
            k = next((k + 1 for k in reversed(levels) if levels[k] & below), 0)
            levels[k] = levels.get(k, 0) | 1 << i
            h[f] = k
        return h

    # -- queries -----------------------------------------------------------

    def __contains__(self, flat) -> bool:
        return frozenset(flat) in self._flatset

    def rank(self, flat: frozenset) -> int:
        return self.rank_of[frozenset(flat)]

    def corank(self, flat: frozenset) -> int:
        return self.r - self.rank(flat)

    def closure(self, subset: Iterable[str]) -> frozenset:
        """Smallest flat containing the subset (exists by meet-closure): the
        first flat in key order in both the subset's ``up`` and top's ``down``."""
        a = frozenset(str(e) for e in subset)
        if not a <= self._index.keys():
            raise MatroidInputError(f"{sorted(a)} is not a subset of the ground set")
        found = self.up(a) & self._inside_top
        if not found:
            raise MatroidInputError(f"no flat contains {sorted(a)}")
        return self.flats[(found & -found).bit_length() - 1]

    def atoms(self) -> tuple[frozenset, ...]:
        return self._atoms

    def coatoms(self) -> tuple[frozenset, ...]:
        return self._coatoms

    def coat_above(self, flat: frozenset) -> tuple[frozenset, ...]:
        x = frozenset(flat)
        return tuple(c for c in self._coatoms if x <= c)

    def upper_covers(self, flat: frozenset) -> tuple[frozenset, ...]:
        """The flats covering a flat, in key order: the lowest flat left of its
        strict up-set is a cover, as flats sort after their subsets; drop its ``up`` and repeat."""
        left, covers = self.up(flat) & ~self.down(flat), []
        while left:
            cover = self.flats[(left & -left).bit_length() - 1]
            covers.append(cover)
            left &= ~self.up(cover)
        return tuple(covers)

    def rank_of_subset(self, subset: Iterable[str]) -> int:
        return self.rank(self.closure(subset))


# -- flags ------------------------------------------------------------------


class Flag(Record):
    """A complete flag: maximal chain bottom = F_0 < ... < F_r = top."""

    __slots__ = ("chain",)
    def __init__(self, chain: tuple[frozenset, ...]):
        self._set(chain)

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
    """Deterministic flag: repeatedly extend by the lex-least upper cover,
    the first in key order."""
    chain = [lattice.bottom]
    while chain[-1] != lattice.top:
        chain.append(lattice.upper_covers(chain[-1])[0])
    return Flag(tuple(chain))


def all_complete_flags(lattice: GeometricLattice) -> list[Flag]:
    """Every complete flag, in canonical order: the chains grown from bottom
    through ``upper_covers``, each step taken in key order."""
    upper = cache(lattice.upper_covers)

    def grow(chain: tuple[frozenset, ...]) -> list[Flag]:  # a chain with no cover is a flag
        return [flag for cover in upper(chain[-1]) for flag in grow(chain + (cover,))] or [Flag(chain)]

    return grow((lattice.bottom,))


# -- verification -----------------------------------------------------------


def _and_all(table: list[int], s: int, acc: int) -> int:
    """acc AND table[i] for every index i in the bitset s."""
    for i in _bits(s):
        acc &= table[i]
    return acc


def verify_geometric(lattice: GeometricLattice) -> ValidationReport:
    """Check every geometric-lattice axiom, reporting each separately.

    Checks: lattice property (unique bottom/top, meets and joins exist),
    meet-closed (the meet of two flats is their intersection), ranked,
    atomicity, semimodularity, the coatom-meet identity, and that every
    interval is itself geometric.

    The checks read a ``Poset`` of the flats, built here alone: each flat's
    element mask, ``up[i]``/``down[i]`` (the flats above and below flat i)
    and its covers.  Flats are sorted by size, so its positions are those in
    ``flats``, and the lowest of a set of upper bounds is its one candidate join.

    Intervals are checked only once the whole family is a meet-closed, ranked
    lattice.  Then each interval [x, y] is a sublattice with the same meets,
    joins and covers.  A finite lattice is geometric exactly when it is
    atomic and semimodular, every interval of a geometric lattice is
    geometric, and each of its flats is the meet of its coatoms (Stanley,
    *Enumerative Combinatorics* I, 3.3; Oxley, *Matroid Theory*).  So if
    [x, y] fails, [bottom, y] fails too, and the first bad interval in
    (x, y) index order has x = bottom, index 0.  [bottom, y] fails exactly
    when y lies above a flat that is not the join of its atoms, or above the
    join of a semimodular violation; a flat that is not the meet of the
    coatoms of [bottom, y] cannot fail it alone.  The first such y in index
    order is reported.
    """
    flats, n = lattice.flats, len(lattice.flats)
    order = Poset(flats, [sum(1 << lattice._index[e] for e in f) for f in flats])
    masks, up, down = order.masks, order.up, order.down
    index = {m: i for i, m in enumerate(masks)}
    full = (1 << len(lattice.elements)) - 1
    rk = [lattice.rank_of[f] for f in flats]
    covers = [order.covers(i) for i in range(n)]

    def name(i: int) -> list[str]:
        return sorted(flats[i])

    minimal = sum(d == 1 << i for i, d in enumerate(down))
    maximal = sum(u == 1 << i for i, u in enumerate(up))
    bounded = minimal == maximal == 1
    meet_closed, joins_ok, violations = True, bounded, []  # semimodular: (a, b, a ^ b, a v b)
    for a, b in combinations(range(n), 2):
        m = index.get(masks[a] & masks[b], -1)
        if m < 0:
            meet_closed = False
        ub = up[a] & up[b]
        j = (ub & -ub).bit_length() - 1  # the join, if there is one
        if not ub or ub & ~up[j]:
            joins_ok = False
        elif m >= 0 and rk[a] + rk[b] < rk[m] + rk[j]:
            violations.append((a, b, m, j))
    # A bounded family's bottom is its smallest flat, and its top the largest.
    ranked = bounded and rk[0] == 0 and all(
        rk[j] == rk[i] + 1 for i in range(n) for j in _bits(covers[i]))
    rep = ValidationReport()
    rep.add("meet-closed", meet_closed, "" if meet_closed else "not meet-closed")
    rep.add("lattice", joins_ok and meet_closed, "" if joins_ok else "meets or joins missing")
    rep.add("ranked", ranked, "" if ranked else "covers do not increase rank by one")
    if not (meet_closed and joins_ok and ranked):
        for c in ("atomic", "semimodular", "coatom-meet", "intervals-geometric"):
            rep.add(c, False, "skipped: not a ranked lattice")
        return rep

    every, top = (1 << n) - 1, n - 1
    # f is atomic when no flat sorted before f lies above all its atoms
    f = next((f for f in range(n) if _and_all(up, covers[0] & down[f], every) & ((1 << f) - 1)), None)
    rep.add("atomic", f is None, "" if f is None else f"{name(f)} is not a join of atoms")
    semi = ""
    if violations:
        a, b = violations[0][:2]
        semi = f"rank({name(a)})+rank({name(b)}) < rank(meet)+rank(join)"
    rep.add("semimodular", not semi, semi)
    # [bottom, y] fails for each y above a non-atomic flat or a violation's
    # join, and a flat sorts before the flats above it: the first such y is
    # the lowest of the joins and the first non-atomic flat
    bad = [j for *_, j in violations] + ([] if f is None else [f])
    coatoms = sum(1 << i for i in range(n) if covers[i] >> top & 1)
    # below the top, an empty AND is the whole ground set, which is not f
    f = next((f for f in range(top) if _and_all(masks, coatoms & up[f], full) != masks[f]), None)
    rep.add("coatom-meet", f is None, "" if f is None else f"{name(f)} is not the meet of its coatoms")
    rep.add("intervals-geometric", not bad, "" if not bad else
            f"interval [{name(0)}, {name(min(bad))}] is not geometric")
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


def lattice_from_flats(elements: Sequence[str], flats: Iterable[Iterable[str]],
                       validate: bool = True) -> GeometricLattice:
    lat = GeometricLattice(elements, [frozenset(f) for f in flats])
    if validate:
        rep = verify_geometric(lat)
        if not rep.ok:
            first = rep.failures()[0]
            raise MatroidInputError(f"flats list is not a geometric lattice: {first.detail or first.name}")
    return lat


def linear_matroid(
    columns: Sequence[Sequence], p: int | None = None, elements: Sequence[str] | None = None
) -> GeometricLattice:
    """Matroid of a vector configuration, one column per element.

    Columns are exact rationals (p is None) or integers mod a prime p.
    Flats are found by span membership: each flat keeps one echelon basis
    and its closure is the set of elements whose column reduces to zero
    against it.  Rank k+1 is grown from each rank-k flat F one cover at a
    time; the covers of F partition E \\ F, so an element inside a cover
    already found is skipped and each cover costs one closure.
    """
    n = len(columns)
    if n == 0:
        raise MatroidInputError("linear matroid needs at least one column")
    elements = [str(e) for e in (range(1, n + 1) if elements is None else elements)]
    if len(elements) != n:
        raise MatroidInputError("element count must match column count")
    if p is not None and p >= PRIME_BOUND:
        raise MatroidInputError(f"GF prime {p} is not below the bound 2^31")
    if p is not None and not is_prime(p):
        raise MatroidInputError(f"{p} is not prime")
    if len({len(col) for col in columns}) != 1:
        raise MatroidInputError("columns must share a dimension")
    rows = {e: integer_row(col, p) for e, col in zip(elements, columns)}

    def closure(f: frozenset, basis) -> frozenset:
        return f.union(e for e in elements if e not in f and not any(reduce(basis, rows[e], p)))

    bottom = closure(frozenset(), [])
    flats: dict[frozenset, int] = {bottom: 0}
    frontier = [(bottom, [])]
    level = 0
    while frontier:
        level += 1
        covers: dict[frozenset, list] = {}
        for f, basis in frontier:
            covered = set(f)
            for e in elements:
                if e not in covered:
                    grown = echelon([rows[e]], p, basis)
                    cover = closure(f, grown)
                    covered |= cover
                    covers.setdefault(cover, grown)
        flats.update(dict.fromkeys(covers, level))
        frontier = list(covers.items())
    return GeometricLattice(elements, flats.keys(), flats)


def _integer(value, name: str) -> int:
    """Integers, integer strings such as "3" and integral floats are
    accepted; anything else ("x", 2.5, true) is an input error."""
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            pass
    elif isinstance(value, int) and not isinstance(value, bool):
        return value
    elif isinstance(value, float) and value.is_integer():
        return int(value)
    raise MatroidInputError(f"{name} must be an integer, got {value!r}")


def _int_field(spec: Mapping, key: str) -> int:
    """An integer field of a spec, by the rule of ``_integer``."""
    return _integer(spec[key], repr(key))


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
            ground, flats = spec["ground_set"], spec["flats"]
            if not isinstance(ground, list):
                raise MatroidInputError("'ground_set' must be a list")
            if not isinstance(flats, list) or not all(isinstance(f, list) for f in flats):
                raise MatroidInputError("'flats' must be a list of lists")
            return lattice_from_flats([str(e) for e in ground],
                                      [[str(e) for e in f] for f in flats], validate=validate)
        if fmt == "linear":
            field, cols = spec.get("field", "Q"), spec["columns"]
            if not isinstance(cols, list) or not all(isinstance(col, list) for col in cols):
                raise MatroidInputError("'columns' must be a list of lists")
            ground = spec.get("ground_set")
            if ground is not None and not isinstance(ground, list):
                raise MatroidInputError("'ground_set' must be a list")
            if field == "Q":
                try:
                    cols = [[Fraction(str(x)) for x in col] for col in cols]
                except (ValueError, ZeroDivisionError) as exc:
                    raise MatroidInputError(f"bad rational entry: {exc}") from exc
                return linear_matroid(cols, None, ground)
            if field == "GF":
                cols = [[_integer(x, "GF entry") for x in col] for col in cols]
                return linear_matroid(cols, _int_field(spec, "p"), ground)
            raise MatroidInputError(f"unknown field {field!r}")
    except KeyError as exc:
        raise MatroidInputError(f"matroid spec is missing {exc}") from exc
    raise MatroidInputError(f"unknown matroid format {fmt!r}")
