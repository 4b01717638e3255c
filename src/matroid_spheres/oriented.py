"""Realizable oriented matroids: covectors, the underlying matroid, and the
order embedding of the covector poset into the sphere representation.

Only rational vector configurations are accepted as input; covectors are
sign vectors over the ground set, given as tuples over {-1, 0, 1} in
ground order.  Inside, each is one int sign mask over n elements: bit i
when coordinate i is +, bit n+i when it is -.  The conformal order x <= y
(every nonzero coordinate of x agrees with y) is then mask inclusion,
x & ~y == 0, and the covectors vanishing on a set are those missing its
bits in both halves.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import product
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

Covector = tuple[int, ...]


def sign(x: Fraction) -> int:
    return (x > 0) - (x < 0)


def neg(x: Covector) -> Covector:
    return tuple(-a for a in x)


def sign_mask(x: Covector) -> int:
    """The sign mask of a covector: bit i for a + at i, bit n+i for a -."""
    n = len(x)
    return sum(1 << i if a > 0 else 1 << n + i for i, a in enumerate(x) if a)


def sign_vector(mask: int, n: int) -> Covector:
    """The covector of a sign mask over n elements."""
    return tuple((mask >> i & 1) - (mask >> n + i & 1) for i in range(n))


def compose(x: int, y: int, n: int) -> int:
    """x with y filling in the zero coordinates, on sign masks over n elements."""
    support = (x | x >> n) & ((1 << n) - 1)
    return x | y & ~(support | support << n)


def render(x: Covector) -> str:
    return "".join("+" if a > 0 else "-" if a < 0 else "0" for a in x)


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
    """Covectors of an oriented matroid as a set of sign vectors.

    Includes the zero vector; cocircuits are the minimal nonzero members.
    """

    __slots__ = ("elements", "covectors", "cocircuits", "__dict__")
    def __init__(self, elements: tuple[str, ...], covectors: frozenset, cocircuits: frozenset):
        self._set(elements, covectors, cocircuits)

    @property
    def zero(self) -> Covector:
        return (0,) * len(self.elements)

    def nonzero(self) -> list[Covector]:
        return sorted(x for x in self.covectors if x != self.zero)

    @cached_property
    def masks(self) -> dict[Covector, int]:
        """The sign mask of every covector."""
        return {x: sign_mask(x) for x in self.covectors}

    def zero_set(self, x: Covector) -> frozenset:
        return frozenset(e for e, a in zip(self.elements, x) if a == 0)

    @cached_property
    def zero_sets(self) -> frozenset:
        """The zero sets of the covectors: the flats of the underlying matroid."""
        return frozenset(self.zero_set(x) for x in self.covectors)


def cocircuits_from_vectors(config: VectorConfig) -> frozenset:
    """Cocircuits of the configuration: one antipodal pair per coatom.

    For each corank-1 flat of the linear matroid, an exact rational normal
    to the span of its columns produces the pair of sign vectors whose zero
    set is that coatom.
    """
    r = config.dimension
    if rank_q(config.columns) != r:
        raise MatroidInputError("vector configuration is rank-deficient")
    lattice = underlying_from_config(config)
    out: set[Covector] = set()
    for coatom in lattice.coatoms():
        rows = [config.column(e) for e in sorted(coatom)]
        basis = nullspace_q(rows, r) if rows else [
            tuple(Fraction(int(i == k)) for i in range(r)) for k in range(r)
        ]
        if len(basis) != 1:
            raise MatroidInputError(f"coatom {sorted(coatom)} does not have a unique normal")
        x = basis[0]
        cocirc = tuple(sign(sum(a * b for a, b in zip(x, col))) for col in config.columns)
        if frozenset(e for e, a in zip(config.elements, cocirc) if a == 0) != coatom:
            raise MatroidInputError("normal vanishes outside its coatom")
        out.add(cocirc)
        out.add(neg(cocirc))
    return frozenset(out)


def covector_span(elements: Sequence[str], cocircuits: Iterable[Covector]) -> CovectorSet:
    """Smallest composition-closed set containing the cocircuits and zero.

    Grown by x -> x o c with c a cocircuit only: O(|L| * |C|) compositions,
    on sign masks.  The result Y lies in the span, each member being 0 or
    c_1 o ... o c_k.  It is composition-closed: for x and
    y = c_1 o ... o c_k in Y, associativity gives
    x o y = (...(x o c_1) ...) o c_k, one cocircuit composed on the right
    at a time.  As every covector is a composition of cocircuits (Bjorner
    et al., Oriented Matroids), Y is all the covectors.
    """
    elements = tuple(str(e) for e in elements)
    n = len(elements)
    cocircuits = frozenset(cocircuits)
    steps = [sign_mask(c) for c in cocircuits]
    found = set(steps) | {0}
    queue = list(found)
    for x in queue:  # grows while it is read
        for c in steps:
            z = compose(x, c, n)
            if z not in found:
                found.add(z)
                queue.append(z)
    return CovectorSet(elements, frozenset(sign_vector(m, n) for m in found), cocircuits)


def covectors_from_vectors(config: VectorConfig) -> CovectorSet:
    return covector_span(config.elements, cocircuits_from_vectors(config))


def underlying_from_config(config: VectorConfig) -> GeometricLattice:
    return linear_matroid(config.columns, None, config.elements)


def underlying_matroid(cs: CovectorSet) -> GeometricLattice:
    """Lattice of covector zero sets, ordered by inclusion."""
    return GeometricLattice(cs.elements, cs.zero_sets)


def covector_flat(cs: CovectorSet, flat: Iterable[str]) -> list[Covector]:
    """Covectors vanishing on the flat (the zero vector included): those
    whose sign mask misses the flat's bits in both halves."""
    f = frozenset(str(e) for e in flat)
    if f not in cs.zero_sets:
        raise MatroidInputError(f"{sorted(f)} is not a flat of the underlying matroid")
    n = len(cs.elements)
    on_flat = sum(1 << i for i, e in enumerate(cs.elements) if e in f)
    on_flat |= on_flat << n
    return sorted(x for x, m in cs.masks.items() if not m & on_flat)


# -- the embedding ------------------------------------------------------------


class Embedding(Record):
    """Order embedding of the nonzero covectors into the sphere complex.

    pivots[i] is an element of flag[i+1] - flag[i]; a cocircuit lands on the
    signed vertex of its zero-set coatom, with the sign it takes on the
    first pivot it does not annihilate.  The image table and each flat's
    poset and order complex are computed once and shared by every check.
    """

    __slots__ = ("cs", "lattice", "flag", "rep", "pivots", "__dict__")
    def __init__(self, cs: CovectorSet, lattice: GeometricLattice, flag: Flag,
                 rep: FlagRepresentation, pivots: tuple[str, ...]):
        self._set(cs, lattice, flag, rep, pivots)
        vars(self).update(_posets={}, _deltas={})  # caches, not fields

    @property
    def pivot_positions(self) -> tuple[int, ...]:
        return tuple(self.cs.elements.index(p) for p in self.pivots)

    def first_pivot(self, x: Covector) -> int:
        for i, pos in enumerate(self.pivot_positions):
            if x[pos] != 0:
                return i
        raise ValueError("covector vanishes on every pivot")

    @cached_property
    def images(self) -> dict[Covector, frozenset]:
        """Image face in S_bottom of every nonzero covector: the signed
        vertices of the cocircuits below it."""
        masks = self.cs.masks
        signed = {}
        for c in self.cs.cocircuits:
            s = "+" if c[self.pivot_positions[self.first_pivot(c)]] > 0 else "-"
            signed[masks[c]] = self.rep.vertex(self.cs.zero_set(c), s)
        return {
            x: frozenset(v for c, v in signed.items() if c & ~masks[x] == 0)
            for x in self.cs.nonzero()
        }

    def iota(self, x: Covector) -> frozenset:
        """Image face in S_bottom of a nonzero covector."""
        if x == self.cs.zero:
            raise ValueError("the zero covector has no image")
        return self.images[x]

    def poset(self, flat: frozenset) -> Poset:
        """L_G: the nonzero covectors vanishing on the flat, under the
        conformal order read off their sign masks; built on the first call
        for a flat and cached."""
        flat = frozenset(flat)
        if flat not in self._posets:
            covs = [x for x in covector_flat(self.cs, flat) if x != self.cs.zero]
            self._posets[flat] = Poset(covs, [self.cs.masks[x] for x in covs])
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
    lattice = underlying_matroid(cs)
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
    nonzero = cs.nonzero()
    images = emb.images

    rep.extend(pivots_check(emb), prefix="pivots/")

    masks = {x: fr.mask(face) for x, face in images.items()}
    signs_agree = all(map(fr.is_face, masks.values()))
    faces = fr.join_holds and signs_agree  # every image is a face of S_bottom
    well = all(m & ~fr.masks[cs.zero_set(x)] == 0 for x, m in masks.items())
    rep.add("well-defined", faces and well, "every image is a face of S over the zero set")
    rep.add("block-signs-agree", signs_agree)

    rep.add("injective", len(set(images.values())) == len(nonzero))
    order_ok = all(images[x] <= images[y] for x, y in emb.poset(lattice.bottom).cover_pairs())
    rep.add("order-preserving", order_ok)

    into = all(masks[x] & ~fr.masks[g] == 0 for g in lattice.flats for x in emb.delta(g).vertices)
    rep.add("covector-flats-into-spheres", faces and into)

    rep.add("z2-equivariant", all(masks[neg(x)] == fr.swap(masks[x]) for x in nonzero))

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
    """The paired covers of Delta(L_G) and of S_G, members as vertex sets.

    One member per sign vector vec in {+,-}^r.  On the sphere side it is
    the maximal face sigma(vec, G) of S_G (empty for the top flat), on which
    S_G induces the full simplex.  On the covector side it is A_vec, the
    covectors over the flat whose image lies in sigma(vec, G), on which
    Delta(L_G) induces the order complex of that subposet.  A_vec is the
    pullback of the sphere side through the embedding, which makes the
    carrier hypotheses hold; on cocircuits it is the first-pivot sign rule.
    The covector side carries the poset L_G, whose beat points certify the
    intersections of its members.
    """
    flat = frozenset(str(e) for e in flat)
    ambient = emb.delta(flat)
    carriers = {
        tuple("+" if s > 0 else "-" for s in vec): emb.rep.sigma(vec, flat)
        for vec in product((1, -1), repeat=emb.lattice.r)
    }
    members: dict[tuple, list] = {key: [] for key in carriers}
    for x in ambient.vertices:
        image = emb.images[x]
        for key, carrier in carriers.items():
            if image <= carrier:
                members[key].append(x)
    a_cover = CoverFamily(
        ambient, tuple((k, frozenset(m)) for k, m in members.items()), emb.poset(flat)
    )
    b_cover = CoverFamily(emb.rep.build(flat), tuple(carriers.items()))
    return a_cover, b_cover
