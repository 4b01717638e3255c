"""Realizable oriented matroids: covectors, the underlying matroid, and the
order embedding of the covector poset into the sphere representation.

Only rational vector configurations are accepted as input.  A covector is a
sign vector over the ground set, held as one int sign mask over its n
elements: bit i when coordinate i is +, bit n+i when it is -, so the zero
covector is 0.  The conformal order x <= y (every nonzero coordinate of x
agrees with y) is then mask inclusion, x & ~y == 0; negation swaps the two
halves; and the covectors vanishing on a set are those missing its bits in
both halves.  ``render`` is the one way from a mask to text.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, reduce
from itertools import product
from operator import or_
from typing import Iterable, Sequence

from .lattice import (
    Flag,
    GeometricLattice,
    MatroidInputError,
    default_flag,
    linear_matroid,
)
from .linalg import nullspace_q, rank_q
from .report import Record, ValidationReport
from .spheres import FlagRepresentation, representation
from . import topology
from .topology import CoverFamily, Poset, SimplicialComplex


def neg(x: int, n: int) -> int:
    """The negative of a sign mask over n elements: its two halves swapped."""
    return x >> n | (x & (1 << n) - 1) << n


def compose(x: int, y: int, n: int) -> int:
    """x with y filling in the zero coordinates, on sign masks over n elements."""
    support = (x | x >> n) & ((1 << n) - 1)
    return x | y & ~(support | support << n)


def render(x: int, n: int) -> str:
    """The sign mask over n elements as text, one of +, - or 0 per element."""
    return "".join("+" if x >> i & 1 else "-" if x >> n + i & 1 else "0" for i in range(n))


class VectorConfig(Record):
    """Exact rational vector configuration, one column per element."""

    __slots__ = ("elements", "columns")
    def __init__(self, elements: tuple[str, ...], columns: tuple[tuple[Fraction, ...], ...]):
        self._set(elements, columns)

    @property
    def dimension(self) -> int:
        return len(self.columns[0])

    def column(self, e: str) -> tuple[Fraction, ...]:
        return self.columns[self.elements.index(e)]


def vector_config(columns: Sequence[Sequence], elements: Sequence[str] | None = None) -> VectorConfig:
    cols = tuple(tuple(Fraction(str(x)) for x in col) for col in columns)
    if elements is None:
        elements = tuple(str(i) for i in range(1, len(cols) + 1))
    if len({len(c) for c in cols}) != 1:
        raise MatroidInputError("columns must share a dimension")
    return VectorConfig(tuple(str(e) for e in elements), cols)


class CovectorSet(Record):
    """Covectors of an oriented matroid, each a sign mask over the elements.

    Includes the zero covector 0; cocircuits are the minimal nonzero members.
    """

    __slots__ = ("elements", "covectors", "cocircuits", "__dict__")
    def __init__(self, elements: tuple[str, ...], covectors: frozenset[int], cocircuits: frozenset[int]):
        self._set(elements, covectors, cocircuits)

    def nonzero(self) -> list[int]:
        return sorted(self.covectors - {0})

    def zero_set(self, x: int) -> frozenset:
        """The elements outside the support of x."""
        support = x | x >> len(self.elements)
        return frozenset(e for i, e in enumerate(self.elements) if not support >> i & 1)

    @cached_property
    def zero_sets(self) -> frozenset:
        """The zero sets of the covectors: the flats of the underlying matroid."""
        return frozenset(map(self.zero_set, self.covectors))

    @cached_property
    def lattice(self) -> GeometricLattice:
        """The underlying matroid: the lattice of zero sets, ordered by inclusion."""
        return GeometricLattice(self.elements, self.zero_sets)


def cocircuits_from_vectors(config: VectorConfig) -> frozenset[int]:
    """Cocircuits of the configuration: one antipodal pair per coatom.

    For each corank-1 flat of the linear matroid, an exact rational normal
    to the span of its columns produces the pair of sign masks whose zero
    set is that coatom, read off the signs of its dot products with the
    columns.
    """
    r, n = config.dimension, len(config.elements)
    if rank_q(config.columns) != r:
        raise MatroidInputError("vector configuration is rank-deficient")
    lattice = linear_matroid(config.columns, None, config.elements)
    out: set[int] = set()
    for coatom in lattice.coatoms():
        rows = [config.column(e) for e in sorted(coatom)]
        basis = nullspace_q(rows, r) if rows else [
            tuple(Fraction(int(i == k)) for i in range(r)) for k in range(r)
        ]
        if len(basis) != 1:
            raise MatroidInputError(f"coatom {sorted(coatom)} does not have a unique normal")
        dots = [sum(a * b for a, b in zip(basis[0], col)) for col in config.columns]
        if frozenset(e for e, d in zip(config.elements, dots) if d == 0) != coatom:
            raise MatroidInputError("normal vanishes outside its coatom")
        cocirc = sum(1 << i if d > 0 else 1 << n + i for i, d in enumerate(dots) if d)
        out.add(cocirc)
        out.add(neg(cocirc, n))
    return frozenset(out)


def covector_span(elements: Sequence[str], cocircuits: Iterable[int]) -> CovectorSet:
    """Smallest composition-closed set containing the cocircuits and zero.

    Grown by x -> x o c with c a cocircuit only: O(|L| * |C|) compositions.
    The result Y lies in the span, each member being 0 or
    c_1 o ... o c_k.  It is composition-closed: for x and
    y = c_1 o ... o c_k in Y, associativity gives
    x o y = (...(x o c_1) ...) o c_k, one cocircuit composed on the right
    at a time.  As every covector is a composition of cocircuits (Bjorner
    et al., Oriented Matroids), Y is all the covectors.
    """
    elements = tuple(str(e) for e in elements)
    n = len(elements)
    cocircuits = frozenset(cocircuits)
    found = set(cocircuits) | {0}
    queue = list(found)
    for x in queue:  # grows while it is read
        for c in cocircuits:
            z = compose(x, c, n)
            if z not in found:
                found.add(z)
                queue.append(z)
    return CovectorSet(elements, frozenset(found), cocircuits)


def covectors_from_vectors(config: VectorConfig) -> CovectorSet:
    return covector_span(config.elements, cocircuits_from_vectors(config))


def covector_flat(cs: CovectorSet, flat: Iterable[str]) -> list[int]:
    """Covectors vanishing on the flat (the zero covector included): those
    whose sign mask misses the flat's bits in both halves."""
    f = frozenset(str(e) for e in flat)
    if f not in cs.zero_sets:
        raise MatroidInputError(f"{sorted(f)} is not a flat of the underlying matroid")
    n = len(cs.elements)
    on_flat = sum(1 << i for i, e in enumerate(cs.elements) if e in f)
    on_flat |= on_flat << n
    return sorted(x for x in cs.covectors if not x & on_flat)


# -- the embedding ------------------------------------------------------------


class Embedding(Record):
    """Order embedding of the nonzero covectors into the sphere complex.

    pivots[i] is an element of flag[i+1] - flag[i]; a cocircuit lands on the
    signed vertex of its zero-set coatom, with the sign it takes on the
    first pivot it does not annihilate.  The pivots span the matroid, so no
    nonzero covector vanishes on all of them.  The image table and each
    flat's poset and order complex are computed once and shared by every
    check.
    """

    __slots__ = ("cs", "lattice", "flag", "rep", "pivots", "__dict__")
    def __init__(self, cs: CovectorSet, lattice: GeometricLattice, flag: Flag,
                 rep: FlagRepresentation, pivots: tuple[str, ...]):
        self._set(cs, lattice, flag, rep, pivots)
        vars(self).update(_posets={}, _deltas={})  # caches, not fields

    @cached_property
    def images(self) -> dict[int, int]:
        """Image face in S_bottom of every nonzero covector, as a signed-vertex
        mask: the OR of 1 << v over the vertices v of the cocircuits below it."""
        cs, n = self.cs, len(self.cs.elements)
        pivots = [cs.elements.index(p) for p in self.pivots]
        signed = {}
        for c in cs.cocircuits:
            first = next(p for p in pivots if (c | c >> n) >> p & 1)
            signed[c] = 1 << self.rep.vertex(cs.zero_set(c), "+" if c >> first & 1 else "-")
        return {
            x: reduce(or_, (v for c, v in signed.items() if c & ~x == 0), 0)
            for x in cs.nonzero()
        }

    def iota(self, x: int) -> int:
        """Image face in S_bottom of a nonzero covector, as a signed-vertex mask."""
        if not x:
            raise ValueError("the zero covector has no image")
        return self.images[x]

    def poset(self, flat: frozenset) -> Poset:
        """L_G: the nonzero covectors vanishing on the flat, under the
        conformal order, each its own mask; built on the first call for a
        flat and cached."""
        flat = frozenset(flat)
        if flat not in self._posets:
            covs = covector_flat(self.cs, flat)[1:]  # 0 sorts first
            self._posets[flat] = Poset(covs, covs)
        return self._posets[flat]

    def delta(self, flat: frozenset) -> SimplicialComplex:
        """Delta(L_G): the order complex of the flat's poset, built on the
        first call for a flat and cached."""
        flat = frozenset(flat)
        if flat not in self._deltas:
            self._deltas[flat] = topology.order_complex(self.poset(flat))
        return self._deltas[flat]


def build_embedding(
    cs: CovectorSet,
    flag: Flag | None = None,
    pivots: Sequence[str] | None = None,
) -> Embedding:
    """The embedding of the covectors over their underlying matroid, by the
    default flag and pivots unless these are given."""
    lattice = cs.lattice
    if flag is None:
        flag = default_flag(lattice)
    if pivots is None:
        pivots = default_pivots(lattice, flag)
    pivots = tuple(str(p) for p in pivots)
    if len(pivots) != lattice.r:
        raise MatroidInputError(f"need {lattice.r} pivots, one per flag step, got {len(pivots)}")
    for i, p in enumerate(pivots):
        if p not in flag[i + 1] - flag[i]:
            raise MatroidInputError(
                f"pivot {p!r} must lie in flag[{i + 1}] minus flag[{i}]"
            )
    return Embedding(cs, lattice, flag, representation(lattice, flag), pivots)


def default_pivots(lattice: GeometricLattice, flag: Flag) -> tuple[str, ...]:
    """Lexicographically least element of each flag step."""
    out = []
    for i in range(lattice.r):
        step = lattice.sorted_elements(flag[i + 1] - flag[i])
        out.append(step[0])
    return tuple(out)


def pivots_check(emb: Embedding) -> ValidationReport:
    """Coatoms over flag[i] are exactly the cocircuit zero sets containing
    the first i pivots; checked for every i by direct enumeration."""
    rep = ValidationReport()
    lattice, cs = emb.lattice, emb.cs
    for i in range(lattice.r + 1):
        prefix = set(emb.pivots[:i])
        from_cocircuits = {
            cs.zero_set(x) for x in cs.cocircuits if prefix <= cs.zero_set(x)
        }
        expected = set(lattice.coat_above(emb.flag[i]))
        rep.add(f"coatoms@{i}", from_cocircuits == expected)
    return rep


def verify_embedding(emb: Embedding) -> ValidationReport:
    """Full certification of the covector-to-sphere embedding.

    order-preserving is tested on cover pairs x < y only, with the verdict
    of testing every pair x < y: the cover pairs are among those, and any
    x < y is joined by a saturated chain x = z_0 < z_1 < ... < z_k = y of
    covers, along which inclusion of images carries over by transitivity.

    The face lines build no S_G: given ``join_holds``, S_G is S_bottom on
    V_G, so a set is a face of S_G when no block holds both signs
    (``block-signs-agree``, which needs no join) and its mask lies in V_G.
    """
    rep = ValidationReport()
    cs, lattice, fr = emb.cs, emb.lattice, emb.rep
    images = emb.images

    rep.extend(pivots_check(emb), prefix="pivots/")

    signs_agree = all(map(fr.is_face, images.values()))
    faces = fr.join_holds and signs_agree  # every image is a face of S_bottom
    well = all(m & ~fr.masks[cs.zero_set(x)] == 0 for x, m in images.items())
    rep.add("well-defined", faces and well, "every image is a face of S over the zero set")
    rep.add("block-signs-agree", signs_agree)

    rep.add("injective", len(set(images.values())) == len(images))
    order_ok = all(images[x] & ~images[y] == 0 for x, y in emb.poset(lattice.bottom).cover_pairs())
    rep.add("order-preserving", order_ok)

    into = all(images[x] & ~fr.masks[g] == 0 for g in lattice.flats for x in emb.poset(g).elements)
    rep.add("covector-flats-into-spheres", faces and into)

    n = len(cs.elements)
    rep.add("z2-equivariant", all(images[neg(x, n)] == fr.swap(m) for x, m in images.items()))

    # the bottom flat's covectors are all of them, so its row is the ambient's;
    # S_G is read off the join certificate
    homology_ok = {
        g: topology.reduced_homology(emb.delta(g)) == topology.sphere_profile(lattice.corank(g) - 1)
        and emb.rep.spheres[g]
        for g in lattice.flats
    }
    rep.add("homology-ambient", homology_ok[lattice.bottom])
    rep.add("homology-per-flat", all(homology_ok.values()))
    return rep


# -- carrier covers ------------------------------------------------------------


def build_covers(emb: Embedding, flat: Iterable[str]) -> tuple[CoverFamily, CoverFamily]:
    """The paired covers of Delta(L_G) and of S_G, each member a mask over
    its ambient's positions.

    One member per sign vector vec in {+,-}^r.  On the sphere side it is
    the maximal face sigma(vec, G) of S_G (empty for the top flat), on which
    S_G induces the full simplex; S_G's positions are the signed vertices,
    so the member is sigma's vertex mask itself.  On the covector side it is
    A_vec, the covectors over the flat whose image lies in sigma(vec, G), on
    which Delta(L_G) induces the order complex of that subposet; Delta(L_G)
    holds each element of L_G at its poset position, so the member is a
    mask over those.  A_vec is the pullback of the sphere side through the
    embedding, which makes the carrier hypotheses hold; on cocircuits it is
    the first-pivot sign rule.  The covector side carries the poset L_G,
    whose beat points certify the intersections of its members.
    """
    flat = frozenset(str(e) for e in flat)
    poset = emb.poset(flat)
    carriers = {
        tuple("+" if s > 0 else "-" for s in vec): emb.rep.sigma(vec, flat)
        for vec in product((1, -1), repeat=emb.lattice.r)
    }
    members = dict.fromkeys(carriers, 0)
    for i, x in enumerate(poset.elements):
        image = emb.images[x]
        for key, carrier in carriers.items():
            if image & ~carrier == 0:
                members[key] |= 1 << i
    a_cover = CoverFamily(emb.delta(flat), tuple(members.items()), poset)
    b_cover = CoverFamily(emb.rep.build(flat), tuple(carriers.items()))
    return a_cover, b_cover
