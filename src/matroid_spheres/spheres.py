"""Flag-dependent sphere representation of a matroid.

Fixing a complete flag partitions the coatoms into blocks A_0..A_{r-1};
every flat G then gets a complex S_G whose maximal faces are the sign
choices over the blocks meeting coat(G).  Vertices are (coatom, sign)
pairs, rendered as (sorted element tuple, '+'|'-').

``build`` makes each S_G once and caches it, and ``representation`` keeps
one representation per (lattice, flag).  Every S_G is the subcomplex of
S_bottom induced on its own vertex set V_G, and induced subcomplexes meet
in the one induced on the meet of their vertex sets.  So, once each S_G is
certified induced, one table of cover steps V_F n V_a = V_{F v a}, over
every flat F and atom a, certifies the intersection law for every flat
pair and every atom set, and the flats are recovered from intersections
of vertex sets; no face sets are intersected (proofs in
``FlagRepresentation.intersection_law_holds`` and ``arrangement_flats``).
Each S_G is certified a homotopy sphere by its facet nerve, once per flat
(``FlagRepresentation.sphere_holds``); no homology is computed.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from itertools import product
from typing import Iterable, Mapping, Sequence

from .lattice import Flag, GeometricLattice
from .report import Record, ValidationReport
from . import topology
from .topology import SimplicialComplex

Vertex = tuple[tuple[str, ...], str]  # (coatom elements in ground order, sign)

SIGNS = ("+", "-")


def swap_sign(v: Vertex) -> Vertex:
    return (v[0], "-" if v[1] == "+" else "+")


class RepComplex(Record):
    """The complex S_G for one flat, with the sign vector of each maximal face."""

    __slots__ = ("flat", "complex", "face_signs")
    def __init__(self, flat: frozenset, complex: SimplicialComplex,
                 face_signs: Mapping[frozenset, tuple[int, ...]]):  # facet -> vector over parts
        object.__setattr__(self, "flat", flat)
        object.__setattr__(self, "complex", complex)
        object.__setattr__(self, "face_signs", face_signs)


class HomotopyArrangement(Record):
    """Ambient complex S_bottom together with one member complex per atom."""

    __slots__ = ("rep", "ambient", "members")
    def __init__(self, rep: FlagRepresentation, ambient: RepComplex,
                 members: tuple[tuple[frozenset, RepComplex], ...]):  # (atom, S_atom)
        object.__setattr__(self, "rep", rep)
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "members", members)


class FlagRepresentation:
    """All sphere complexes of one (lattice, flag) pair.

    Immutable apart from its caches: ``build`` constructs each S_G at most
    once, its sphere certificate runs at most once, and the cover-step
    table is checked at most once.
    """

    def __init__(self, lattice: GeometricLattice, flag: Flag):
        self.lattice = lattice
        self.flag = flag
        self.r = lattice.r
        # one pass in key order, c joining block max{i : F_i inside c}
        parts: list[list[frozenset]] = [[] for _ in range(self.r)]
        for c in lattice.coatoms():
            if not flag[0] <= c:
                raise ValueError("coatom blocks do not partition the coatoms")
            parts[max(i for i in range(self.r) if flag[i] <= c)].append(c)
        empty = [i for i, block in enumerate(parts) if not block]
        if empty:
            raise ValueError(f"empty coatom block at position {empty[0]}: input lattice is not geometric")
        self.parts: tuple[tuple[frozenset, ...], ...] = tuple(map(tuple, parts))
        self.part_of: dict[frozenset, int] = {
            c: i for i, block in enumerate(parts) for c in block
        }
        self._built: dict[frozenset, RepComplex] = {}
        self._spheres: dict[frozenset, bool] = {}
        self._law: bool | None = None

    # -- vertices ------------------------------------------------------------

    def vertex(self, coatom: frozenset, sign: str) -> Vertex:
        return self.lattice.signed_coatoms[coatom][sign]

    def vertex_order(self, coatoms: Iterable[frozenset]) -> list[Vertex]:
        """Both signed vertices of each coatom given, coatoms in key order."""
        return _vertex_order(self.lattice, coatoms)

    def swap_map(self, complex_: SimplicialComplex) -> dict[Vertex, Vertex]:
        return {v: swap_sign(v) for v in complex_.vertices}

    # -- construction ----------------------------------------------------------

    def _blocks_over(self, flat: frozenset) -> tuple[tuple[frozenset, ...], ...]:
        """The coatoms of each block that lie above the flat."""
        coat = set(self.lattice.coat_above(flat))
        return tuple(tuple(c for c in block if c in coat) for block in self.parts)

    def support(self, flat: frozenset) -> tuple[int, ...]:
        """Indices of coatom blocks meeting coat(G); size equals corank(G)."""
        return tuple(i for i, block in enumerate(self._blocks_over(flat)) if block)

    def sigma(self, vector: tuple[int, ...], flat: frozenset) -> frozenset:
        """The face of S_G selected by a sign vector over the blocks."""
        return _union(vector, _signed_blocks(self.lattice, self._blocks_over(flat)))

    def cross_polytope(self, blocks: Sequence[Sequence[frozenset]]) -> dict[frozenset, tuple]:
        """One maximal face per sign choice on the nonempty blocks, holding
        each block's coatoms with its sign, mapped to its sign vector (0 on
        the empty blocks).  With one coatom per block this is the boundary
        of a cross-polytope; with the blocks over a flat it is S_G."""
        return _cross_polytope(self.lattice, blocks)

    def build(self, flat: frozenset) -> RepComplex:
        """S_G, constructed on the first call for a flat and cached."""
        flat = frozenset(flat)
        if flat not in self._built:
            self._built[flat] = self.construct(flat)
        return self._built[flat]

    def construct(self, flat: frozenset) -> RepComplex:
        """S_G: one maximal face per sign choice on the blocks meeting coat(G).

        Uncached; ``build`` is the cached entry point.
        """
        flat = frozenset(flat)
        face_signs = self.cross_polytope(self._blocks_over(flat))
        order = self.vertex_order(self.lattice.coat_above(flat))
        complex_ = SimplicialComplex(face_signs.keys(), vertex_order=order)
        return RepComplex(flat, complex_, face_signs)

    @cached_property
    def cover_steps(self) -> tuple[tuple[frozenset, frozenset, frozenset], ...]:
        """Every (F, a, F v a) with F a flat and a an atom, in flat order."""
        lattice = self.lattice
        return tuple((f, a, lattice.join(f, a)) for f in lattice.flats for a in lattice.atoms())

    def intersection_law_holds(self) -> bool:
        """Exact face-set identity S_G n S_H = S_{G v H} for every pair of flats.

        Checked on vertex sets.  Write V_G for the vertex set of S_G.  First
        every S_G is certified to be S_bottom[V_G], the subcomplex of
        S_bottom induced on V_G.  It is, by construction: a maximal face of
        S_bottom restricted to V_G keeps, in each block, the coatoms above G
        with that block's sign, so the restrictions are the sign choices
        over the blocks meeting coat(G).  Induced subcomplexes meet in the
        one induced on the meet of their vertex sets, and for X, Y inside
        the vertices of S_bottom, S_bottom[X] is inside S_bottom[Y] exactly
        when X is inside Y, as every vertex lies in a face.  So the cover
        step S_F n S_a = S_{F v a} reads V_F n V_a = V_{F v a}, one table
        entry for every flat F and atom a; where a <= F the step reads
        S_F inside S_a.  The verdict is cached.

        The table is enough.  Write S(A) for S_bottom intersected with the
        S_a over a set A of atoms.  Then S(A) = S_{v A} for every A, by
        induction on |A|: S(empty) = S_bottom, and for A = B + {a},
        S(A) = S(B) n S_a = S_{v B} n S_a = S_{v A} by the cover step with
        F = v B.  Every flat H is the join of the atoms below it, so
        S_H = S(A_H) with A_H = {a : a <= H}, and for any flats G and H,
        S_G n S_H = S(A_G) n S(A_H) = S(A_G + A_H) = S_{G v H}.  This uses
        only that face-set intersection is associative, commutative and
        idempotent, so |flats| * |atoms| identities stand for every flat pair
        and every one of the 2^|atoms| atom sets.
        """
        if self._law is None:
            built = {g: self.build(g).complex for g in self.lattice.flats}
            ambient = built[self.lattice.bottom]
            verts = {g: frozenset(c.vertices) for g, c in built.items()}
            self._law = all(c == ambient.restrict(verts[g]) for g, c in built.items()) and all(
                verts[f] & verts[a] == verts[fa] for f, a, fa in self.cover_steps
            )
        return self._law

    def arrangement(self) -> HomotopyArrangement:
        members = tuple((atom, self.build(atom)) for atom in self.lattice.atoms())
        return HomotopyArrangement(self, self.build(self.lattice.bottom), members)

    # -- nerve bridge ------------------------------------------------------------

    def nerve_matches_cross_polytope(self, rep: RepComplex) -> bool:
        """Nerve test against the maximal faces' signs, zero blocks deleted."""
        supp = self.support(rep.flat)
        signs = {
            f: tuple("+" if v[i] > 0 else "-" for i in supp) for f, v in rep.face_signs.items()
        }
        return topology.cross_polytope_nerve_iso(rep.complex, len(supp), signs)

    def sphere_holds(self, rep: RepComplex) -> bool:
        """Is rep.complex homotopy equivalent to S^{corank(G)-1}, G = rep.flat?

        Two checks certify it: the blocks meeting coat(G) number corank(G),
        and the nerve of the maximal faces is the nerve of the facets of the
        corank(G)-cross-polytope.  Every nonempty intersection of maximal
        faces is a simplex, hence contractible, so by the nerve lemma
        (Bjorner, Topological methods, 1995) the complex is homotopy
        equivalent to the nerve of its maximal faces.  The same lemma makes
        the boundary of the d-cross-polytope, a (d-1)-sphere, homotopy
        equivalent to the nerve of its facets.  Equal nerves then give
        rep.complex ~ S^{d-1}, with d = corank(G).  For the top flat, d = 0
        and the test asks for the empty complex, the (-1)-sphere.

        The verdict is cached per flat for the complexes ``build`` returns;
        any other complex (a mutated one, say) is tested afresh.
        """
        g = rep.flat
        own = self._built.get(g) is rep
        if own and g in self._spheres:
            return self._spheres[g]
        ok = len(self.support(g)) == self.lattice.corank(g)
        ok = ok and self.nerve_matches_cross_polytope(rep)
        if own:
            self._spheres[g] = ok
        return ok


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


# -- signed labels, shared by every flag of a lattice ------------------------------


def _vertex_order(lattice: GeometricLattice, coatoms: Iterable[frozenset]) -> list[Vertex]:
    chosen = set(coatoms)
    signed = lattice.signed_coatoms.items()  # in key order
    return [v for c, pm in signed if c in chosen for v in pm.values()]


def _signed_blocks(lattice: GeometricLattice, blocks: Sequence[Sequence[frozenset]]) -> list[tuple[frozenset, ...]]:
    """Each block's coatoms signed + and signed -, as two vertex sets."""
    labels = lattice.signed_coatoms
    return [tuple(frozenset(labels[c][s] for c in b) for s in SIGNS) for b in blocks]


def _union(vector: Sequence[int], signed: Sequence[tuple[frozenset, ...]]) -> frozenset:
    """The union of block i's set signed by vector[i]; blocks with 0 left out."""
    return frozenset().union(*[pm[0] if s > 0 else pm[1] for s, pm in zip(vector, signed) if s])


def _cross_polytope(lattice: GeometricLattice, blocks: Sequence[Sequence[frozenset]]) -> dict[frozenset, tuple]:
    # each face is a union of per-block vertex sets built once
    signed = _signed_blocks(lattice, blocks)
    choices = product(*[(1, -1) if b else (0,) for b in blocks])
    return {_union(vec, signed): vec for vec in choices}


@lru_cache(maxsize=topology._HOMOLOGY_MEMO_SIZE)
def selection_polytope(lattice: GeometricLattice, coatoms: frozenset[frozenset]) -> SimplicialComplex:
    """The cross-polytope on a set of coatoms, one per block, memoized with
    a fixed bound.

    It depends only on the lattice (by identity) and the set of coatoms,
    not on a flag or on the order of the blocks, so flag pairs that select
    the same coatoms share one immutable complex and one homology memo entry.
    """
    faces = _cross_polytope(lattice, [(c,) for c in coatoms])
    return SimplicialComplex(faces, vertex_order=_vertex_order(lattice, coatoms))


# -- arrangement-level operations ------------------------------------------------


def atom_label(lattice: GeometricLattice, atom: frozenset) -> str:
    return ",".join(lattice.labels[atom])


def arrangement_flats(arr: HomotopyArrangement) -> GeometricLattice:
    """Recover the lattice of flats from the vertex sets of the arrangement.

    Write I(S) for the common intersection of the ambient and the members
    over a set S of atoms.  Then cl(S) = {a : I(S) inside S_a} is a closure
    operator with I(cl(S)) = I(S), and the recovered flats are its closed
    sets, the values of cl.  Each member, as the arrangement holds it, is
    first certified to be the ambient restricted to its own vertex set V_a;
    if one is not, ValueError is raised.  Induced subcomplexes meet in the
    one induced on the meet of their vertex sets, and for X inside the
    ambient's vertices the induced complex lies in S_a exactly when X lies
    in V_a.  So cl(S) = {a : X inside V_a}, where X is the ambient's vertex
    set for S empty and the meet of the V_b over b in S otherwise; the
    meets are each distinct nonempty one (``topology._intersections``) and
    the empty set.  Only the member complexes are used, never the
    lattice's join.
    """
    lattice = arr.rep.lattice
    ambient = arr.ambient.complex
    sets = [frozenset(m.complex.vertices) for _, m in arr.members]
    if any(m.complex != ambient.restrict(v) for (_, m), v in zip(arr.members, sets)):
        raise ValueError("an arrangement member is not induced in the ambient")
    meets = (frozenset(ambient.vertices), frozenset(), *topology._intersections(sets))
    closed = {frozenset(a for (a, _), v in zip(arr.members, sets) if x <= v) for x in meets}
    labels = [atom_label(lattice, a) for a, _ in arr.members]
    flats = [frozenset(atom_label(lattice, a) for a in c) for c in closed]
    return GeometricLattice(labels, flats)


def roundtrip_isomorphic(lattice: GeometricLattice, recovered: GeometricLattice) -> bool:
    """Does F -> {atoms below F} carry the lattice onto the recovered one?"""
    atoms = lattice.atoms()
    image = {}
    for f in lattice.flats:
        image[f] = frozenset(atom_label(lattice, a) for a in atoms if a <= f)
    if len(set(image.values())) != len(lattice.flats):
        return False
    if set(image.values()) != set(recovered.flats):
        return False
    return all(recovered.rank(image[f]) == lattice.rank(f) for f in lattice.flats)


def verify_arrangement(arr: HomotopyArrangement) -> ValidationReport:
    """Certify the homotopy-arrangement axioms for (S_bottom, {S_atom}).

    The ambient and every member, as the arrangement holds them, are
    certified spheres by ``FlagRepresentation.sphere_holds``, the nerve
    test against the cross-polytope; for the ambient that one test gives
    both ``ambient-sphere`` and ``ambient-nerve``.  Once each member is its
    S_a, the cover-step table of ``FlagRepresentation.intersection_law_holds``
    makes every intersection of members the S_H of the join H of its atoms,
    so each S_H is certified once, and the rank-jump law read once per cover
    step.  The free sign-swap action is checked exactly.
    """
    rep = ValidationReport()
    fr = arr.rep
    lattice = fr.lattice
    r = lattice.r

    amb = arr.ambient
    amb_ok = fr.sphere_holds(amb)
    rep.add("ambient-sphere", amb_ok, f"expected S^{r - 1} profile")
    rep.add("ambient-nerve", amb_ok)

    members_ok = all(fr.sphere_holds(m) for _, m in arr.members)
    rep.add("members-sphere", members_ok, f"each member must be S^{r - 2}")

    # every intersection of members is S_H for the join flat H, and a sphere
    members_are_atoms = all(m.complex == fr.build(a).complex for a, m in arr.members)
    rep.add("intersections-are-flats", members_are_atoms and fr.intersection_law_holds())
    sphere = {h: fr.sphere_holds(fr.build(h)) for h in lattice.flats if h != lattice.bottom}
    rep.add("intersections-sphere", all(sphere.values()))

    try:
        free = topology.z2_free_check(amb.complex, fr.swap_map(amb.complex))
        restricts = all(
            m.complex.is_empty
            or topology.z2_free_check(m.complex, fr.swap_map(m.complex))
            for _, m in arr.members
        )
    except ValueError:
        free = restricts = False
    rep.add("z2-free", free and restricts)

    # dimension drop: S_F not inside S_a meets it in S_{F v a}, one rank up
    drop_ok = all(
        fa == f or (lattice.rank(fa) == lattice.rank(f) + 1 and sphere[fa])
        for f, a, fa in fr.cover_steps
    )
    rep.add("rank-jump", drop_ok)
    return rep
