"""Flag-dependent sphere representation of a matroid.

Fixing a complete flag partitions the coatoms into blocks A_0..A_{r-1};
every flat G then gets a complex S_G whose maximal faces are the sign
choices over the blocks meeting coat(G).  A vertex is the int 2k (C+) or
2k + 1 (C-), C the k-th coatom in key order, so ints sort in key order and
a vertex set is an int mask with bit v for vertex v.  Only the JSON output
renders a vertex, as (C's elements in ground order, '+'|'-'), by
``GeometricLattice.vertex_label``.

S_bottom is the join, over the blocks, of the block's + simplex and its -
simplex, and S_G is its subcomplex induced on V_G, the signed coatoms above
G.  The blocks are ints: block i's + and - halves are the vertex masks
``halves[i]``, and ``slot[v]`` is vertex v's half 2i + s, both filled in
one pass over the coatoms.  Every S_G is held on the positions
0 .. 2|coatoms| - 1, a facet as its signed-vertex mask: the unions of one
half per block (``_unions``), cut to V_G.  A join of k spaces ~ S^0 is
~ S^{k-1} (Bjorner, Topological methods, 1995), so the certificates read
int masks over the signed vertices and build no S_G beyond S_bottom and
the atoms' (``FlagRepresentation.spheres`` and ``intersection_law_holds``).
The change-of-flag cross-polytope is never held: ``apart`` reads its faces
off the + bits of the selected coatoms.  ``build`` caches each S_G it
makes, and ``representation`` keeps one representation per (lattice, flag).
"""

from __future__ import annotations

from functools import cached_property, lru_cache, reduce
from operator import itemgetter, or_
from typing import Iterable, Sequence

from .lattice import Flag, GeometricLattice
from .report import Record, ValidationReport
from . import topology
from .topology import SimplicialComplex


class HomotopyArrangement(Record):
    """Ambient complex S_bottom together with one member complex per atom."""

    __slots__ = ("rep", "ambient", "members", "__dict__")
    def __init__(self, rep: FlagRepresentation, ambient: SimplicialComplex,
                 members: tuple[tuple[frozenset, SimplicialComplex], ...]):  # (atom, S_atom)
        self._set(rep, ambient, members)

    @cached_property
    def induced(self) -> bool:
        """Is every member, as held, the ambient restricted to its vertex set?"""
        amb = self.ambient
        return all(m == amb.restrict(reduce(or_, m.masks_on(amb.vertices), 0)) for _, m in self.members)


class FlagRepresentation:
    """All sphere complexes of one (lattice, flag) pair.

    The blocks are ``halves`` plus ``slot``.  Immutable apart from its
    caches: ``build`` constructs each S_G at most once, and each table and
    verdict is computed on first use.
    """

    def __init__(self, lattice: GeometricLattice, flag: Flag):
        self.lattice = lattice
        self.flag = flag
        self.r = r = lattice.r
        coatoms = lattice.coatoms()
        self.vertices = tuple(range(2 * len(coatoms)))  # every S_G's positions
        # one pass in key order, c joining block max{i : F_i inside c}: each
        # signed vertex 2k + s gets its half 2i + s, and the half its bit
        slot, halves, chain = [], [0] * (2 * r), flag.chain
        for k, c in enumerate(coatoms):
            if not chain[0] <= c:
                raise ValueError("coatom blocks do not partition the coatoms")
            i = r - 1  # the flats inside c are a prefix of the chain
            while not chain[i] <= c:
                i -= 1
            slot += (2 * i, 2 * i + 1)
            halves[2 * i] |= 1 << 2 * k
            halves[2 * i + 1] |= 2 << 2 * k
        if 0 in halves:
            raise ValueError(f"empty coatom block at position {halves.index(0) >> 1}: "
                             "input lattice is not geometric")
        self.slot: tuple[int, ...] = tuple(slot)  # signed vertex -> its half
        self.halves: tuple[tuple[int, int], ...] = tuple(zip(halves[::2], halves[1::2]))
        self._built: dict[frozenset, SimplicialComplex] = {}
        self._law: bool | None = None

    # -- vertices ------------------------------------------------------------

    def vertex(self, coatom: frozenset, sign: str) -> int:
        return 2 * self.lattice.coatom_index[coatom] + "+-".index(sign)

    def over(self, flat: frozenset) -> int:
        """V_G: the signed vertices of the coatoms above the flat, as a mask."""
        index = self.lattice.coatom_index
        return sum(3 << 2 * index[c] for c in self.lattice.coat_above(flat))

    def held(self, complex_: SimplicialComplex) -> int:
        """A complex's vertex set as a signed-vertex mask, by ``masks_on``."""
        return reduce(or_, complex_.masks_on(self.vertices), 0)

    # -- construction ----------------------------------------------------------

    def sigma(self, vector: tuple[int, ...], flat: frozenset) -> int:
        """The face of S_G selected by a sign vector over the blocks, as a
        vertex mask: block i's coatoms above G signed by vector[i], blocks
        with 0 left out."""
        v = self.over(flat)
        return sum(h[s < 0] & v for s, h in zip(vector, self.halves) if s)

    def build(self, flat: frozenset) -> SimplicialComplex:
        """S_G, constructed on the first call for a flat and cached."""
        flat = frozenset(flat)
        if flat not in self._built:
            self._built[flat] = self.construct(flat)
        return self._built[flat]

    def construct(self, flat: frozenset) -> SimplicialComplex:
        """S_G: one maximal face per sign choice on the blocks meeting
        coat(G), each a union of the block's halves cut to V_G.

        Uncached; ``build`` is the cached entry point.
        """
        v = self.over(flat)
        return SimplicialComplex(self.vertices, _unions([(p & v, m & v) for p, m in self.halves if p & v]))

    @cached_property
    def cover_steps(self) -> tuple[tuple[frozenset, frozenset, frozenset], ...]:
        """Every (F, a, F v a), F a flat and a an atom, in flat order.  F v a is
        F when a <= F, else, as in ``closure``, the first flat in the AND of
        F's and a's up-sets in the lattice's ``order`` and top's down-set,
        else top."""
        lattice = self.lattice
        flats, order = lattice.flats, lattice.order
        under_top = order.down[order.index[lattice.top]]
        atoms = [(a, order.up[order.index[a]]) for a in lattice.atoms()]
        steps = []
        for f, f_up in zip(flats, order.up):
            f_up &= under_top
            for a, a_up in atoms:
                x = f_up & a_up
                steps.append((f, a, f if a <= f else flats[(x & -x).bit_length() - 1] if x else lattice.top))
        return tuple(steps)

    # -- certificates on vertex masks ----------------------------------------------

    @cached_property
    def masks(self) -> dict[frozenset, int]:
        """V_G for every flat G."""
        return {g: self.over(g) for g in self.lattice.flats}

    @cached_property
    def join_holds(self) -> bool:
        """Is S_bottom, as built, the join of each block's + and - simplex:
        are its facets, as label sets, exactly the nonempty unions of one
        signed half per block?  For r = 0 there are none, and no facets."""
        return self.build(self.lattice.bottom).masks_on(self.vertices) == set(_unions(self.halves)) - {0}

    def is_face(self, mask: int) -> bool:
        """Is the vertex mask a face of the join S_bottom: no block holds both signs?"""
        return not any(mask & p and mask & m for p, m in self.halves)

    def apart(self, plus: int) -> bool:
        """Is every sign choice over r coatoms, whose + bits are set, a face of
        S_bottom: ``join_holds``, and no block holding two of them?  For c and
        c' in one block, the choice c+ c'- holds both signs of it.  The r
        blocks are disjoint, so that is each + half meeting the coatoms."""
        return self.join_holds and all(map(plus.__and__, map(itemgetter(0), self.halves)))

    def swap(self, mask: int) -> int:
        """The vertex mask with every sign swapped: each coatom's - vertex,
        2k + 1, sits just above its + vertex, 2k."""
        plus = sum(p for p, _ in self.halves)
        return (mask & plus) << 1 | mask >> 1 & plus

    def is_sphere(self, mask: int, corank: int) -> bool:
        """Is S_bottom[X] ~ S^{corank-1}, X a vertex mask, given ``join_holds``?

        S_bottom[X] is the join of each block's two simplices cut down to X.
        A block X meets in both signs gives two disjoint simplices, ~ S^0;
        one met in one sign a simplex, making the join contractible; one
        missed drops out.  A join of homotopy equivalences is one, so k
        factors ~ S^0 give ~ S^{k-1}, the empty complex for k = 0.  The
        maximal faces are then the 2^k sign choices, whose nerve is the
        k-cross-polytope's, so this also certifies the nerve.
        """
        met = [(mask & p, mask & m) for p, m in self.halves if mask & (p | m)]
        return len(met) == corank and all(p and m for p, m in met)

    @cached_property
    def spheres(self) -> dict[frozenset, bool]:
        """Is S_G = S_bottom[V_G] ~ S^{corank(G)-1}, for every flat G?"""
        join, corank = self.join_holds, self.lattice.corank
        return {g: join and self.is_sphere(v, corank(g)) for g, v in self.masks.items()}

    def intersection_law_holds(self) -> bool:
        """Exact face-set identity S_G n S_H = S_{G v H} for every pair of flats.

        Checked on vertex masks.  S_G is S_bottom[V_G]: a maximal face of
        S_bottom cut down to V_G keeps, in each block, the coatoms above G
        with the block's sign.  Induced subcomplexes meet in the one induced
        on the meet of their vertex sets, and S_bottom[X] lies in S_bottom[Y]
        exactly when X lies in Y, as every vertex is a face.  So the cover
        step S_F n S_a = S_{F v a} reads V_F & V_a = V_{F v a}, for every
        flat F and atom a.  The verdict is cached.

        The table is enough.  Write S(A) for S_bottom intersected with the
        S_a over a set A of atoms.  By induction on |A|, S(A) = S_{v A}:
        S(empty) = S_bottom, and S(B + {a}) = S_{v B} n S_a = S_{v A} by the
        cover step with F = v B.  Every flat H is the join of the atoms below
        it, so S_G n S_H = S(A_G + A_H) = S_{G v H} for any flats G and H,
        with A_H = {a : a <= H}: |flats| * |atoms| identities stand for every
        flat pair and every one of the 2^|atoms| atom sets.
        """
        if self._law is None:
            masks = self.masks
            self._law = all(masks[f] & masks[a] == masks[fa] for f, a, fa in self.cover_steps)
        return self._law

    def arrangement(self) -> HomotopyArrangement:
        members = tuple((atom, self.build(atom)) for atom in self.lattice.atoms())
        return HomotopyArrangement(self, self.build(self.lattice.bottom), members)


@lru_cache(maxsize=topology._HOMOLOGY_MEMO_SIZE)
def representation(lattice: GeometricLattice, flag: Flag) -> FlagRepresentation:
    """The representation of (lattice, flag), memoized with a fixed bound.

    S_G depends only on the lattice and the flag, so every production caller
    comes here.  Lattices compare by identity and flags by value: equal flags
    of one lattice share one representation, with its built S_G's, sphere
    verdicts and cover-step verdict.  A memoized representation is shared,
    so callers must not mutate it; a test that poisons a cache builds a fresh
    ``FlagRepresentation`` instead.
    """
    return FlagRepresentation(lattice, flag)


def _unions(pairs: Iterable[Sequence[int]]) -> list[int]:
    """Every union of one mask from each pair, in ``product`` order."""
    out = [0]
    for pm in pairs:
        out = [x | h for x in out for h in pm]
    return out


# -- arrangement-level operations ------------------------------------------------


def atom_label(lattice: GeometricLattice, atom: frozenset) -> str:
    return ",".join(lattice.labels[atom])


def arrangement_flats(arr: HomotopyArrangement) -> GeometricLattice:
    """Recover the lattice of flats from the vertex sets of the arrangement.

    Write I(S) for the common intersection of the ambient and the members
    over a set S of atoms.  Then cl(S) = {a : I(S) inside S_a} is a closure
    operator with I(cl(S)) = I(S), and the recovered flats are its closed
    sets, the values of cl.  Each member, as held, must be induced in the
    ambient on its vertex set V_a, else ValueError is raised.  Then, as in
    ``intersection_law_holds``, cl(S) = {a : X inside V_a}, where X is the
    ambient's vertex set for S empty and the meet of the V_b over b in S
    otherwise; the meets are each distinct nonempty one
    (``topology._intersections``) and the empty set.  Only the member
    complexes are used, never the lattice's join.
    """
    if not arr.induced:
        raise ValueError("an arrangement member is not induced in the ambient")
    lattice = arr.rep.lattice
    sets = [arr.rep.held(m) for _, m in arr.members]
    meets = (arr.rep.held(arr.ambient), 0, *topology._intersections(sets))
    closed = {frozenset(a for (a, _), v in zip(arr.members, sets) if x & ~v == 0) for x in meets}
    labels = [atom_label(lattice, a) for a, _ in arr.members]
    flats = [frozenset(atom_label(lattice, a) for a in c) for c in closed]
    return GeometricLattice(labels, flats)


def roundtrip_isomorphic(lattice: GeometricLattice, recovered: GeometricLattice) -> bool:
    """Does F -> {atoms below F} carry the lattice onto the recovered one?"""
    atoms = lattice.atoms()
    image = {f: frozenset(atom_label(lattice, a) for a in atoms if a <= f) for f in lattice.flats}
    if len(set(image.values())) != len(lattice.flats) or set(image.values()) != set(recovered.flats):
        return False
    return all(recovered.rank(image[f]) == lattice.rank(f) for f in lattice.flats)


def verify_arrangement(arr: HomotopyArrangement) -> ValidationReport:
    """Certify the homotopy-arrangement axioms for (S_bottom, {S_atom}).

    Every sphere line reads the join certificate.  The ambient, as held,
    must be the S_bottom of ``join_holds``, which gives ``ambient-sphere``
    and ``ambient-nerve``; each member, as held, must be induced in it, and
    ``is_sphere`` reads the member's vertex mask.  Once each member is its
    S_a, the cover-step table makes every intersection of members the S_H
    of the join H of its atoms, so each S_H is read once from ``spheres``,
    and the rank-jump law once per cover step.  The sign swap sends each
    facet of the join to the opposite one, and no face holds both signs of
    a coatom: a free simplicial involution, which restricts to each member
    exactly when the member's vertex set is closed under it.
    """
    rep = ValidationReport()
    fr = arr.rep
    lattice = fr.lattice
    r = lattice.r
    sphere = fr.spheres

    amb_ok = arr.ambient == fr.build(lattice.bottom) and fr.join_holds
    rep.add("ambient-sphere", amb_ok, f"expected S^{r - 1} profile")
    rep.add("ambient-nerve", amb_ok)

    held = amb_ok and arr.induced  # then each member is S_bottom on its vertex mask
    masks = [(a, fr.held(m)) for a, m in arr.members] if held else []
    members_ok = held and all(fr.is_sphere(v, lattice.corank(a)) for a, v in masks)
    rep.add("members-sphere", members_ok, f"each member must be S^{r - 2}")

    # every intersection of members is S_H for the join flat H, and a sphere
    members_are_atoms = all(m == fr.build(a) for a, m in arr.members)
    rep.add("intersections-are-flats", members_are_atoms and fr.intersection_law_holds())
    rep.add("intersections-sphere", all(sphere[h] for h in lattice.flats if h != lattice.bottom))

    rep.add("z2-free", held and all(fr.swap(v) == v for _, v in masks))

    # dimension drop: S_F not inside S_a meets it in S_{F v a}, one rank up
    drop_ok = all(
        fa == f or (lattice.rank(fa) == lattice.rank(f) + 1 and sphere[fa])
        for f, a, fa in fr.cover_steps
    )
    rep.add("rank-jump", drop_ok)
    return rep
