"""Flag-dependent sphere representation of a matroid.

Fixing a complete flag partitions the coatoms into blocks A_0..A_{r-1};
every flat G then gets a complex S_G whose maximal faces are the sign
choices over the blocks meeting coat(G).  Vertices are (coatom, sign)
pairs, rendered as (sorted element tuple, '+'|'-').
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, combinations_with_replacement, product
from typing import Iterable, Mapping

from .lattice import Flag, GeometricLattice
from .report import ValidationReport
from . import topology
from .topology import SimplicialComplex

Vertex = tuple[tuple[str, ...], str]  # (coatom elements in ground order, sign)

SIGNS = ("+", "-")


def swap_sign(v: Vertex) -> Vertex:
    return (v[0], "-" if v[1] == "+" else "+")


@dataclass(frozen=True)
class RepComplex:
    """The complex S_G for one flat, with the sign vector of each maximal face."""

    flat: frozenset
    complex: SimplicialComplex
    face_signs: Mapping[frozenset, tuple[int, ...]]  # maximal face -> vector over parts


@dataclass(frozen=True)
class HomotopyArrangement:
    """Ambient complex S_bottom together with one member complex per atom."""

    rep: "FlagRepresentation"
    ambient: RepComplex
    members: tuple[tuple[frozenset, RepComplex], ...]  # (atom, S_atom)


class FlagRepresentation:
    """All sphere complexes of one (lattice, flag) pair.

    Immutable; building complexes for distinct flats is independent work.
    """

    def __init__(self, lattice: GeometricLattice, flag: Flag):
        self.lattice = lattice
        self.flag = flag
        self.r = lattice.r
        parts = []
        for i in range(self.r):
            a = set(lattice.coat_above(flag[i])) - set(lattice.coat_above(flag[i + 1]))
            if not a:
                raise ValueError(f"empty coatom block at position {i}: input lattice is not geometric")
            parts.append(tuple(sorted(a, key=lattice.key)))
        self.parts: tuple[tuple[frozenset, ...], ...] = tuple(parts)
        self.part_of: dict[frozenset, int] = {
            c: i for i, block in enumerate(parts) for c in block
        }
        covered = set().union(*[set(b) for b in parts])
        if covered != set(lattice.coatoms()):
            raise ValueError("coatom blocks do not partition the coatoms")

    # -- vertices ------------------------------------------------------------

    def vertex(self, coatom: frozenset, sign: str) -> Vertex:
        return (self.lattice.sorted_elements(coatom), sign)

    def coatom_of(self, v: Vertex) -> frozenset:
        return frozenset(v[0])

    def vertex_order(self, coatoms: Iterable[frozenset]) -> list[Vertex]:
        ordered = sorted(coatoms, key=self.lattice.key)
        return [self.vertex(c, s) for c in ordered for s in SIGNS]

    def swap_map(self, complex_: SimplicialComplex) -> dict[Vertex, Vertex]:
        return {v: swap_sign(v) for v in complex_.vertices}

    # -- construction ----------------------------------------------------------

    def support(self, flat: frozenset) -> tuple[int, ...]:
        """Indices of coatom blocks meeting coat(G); size equals corank(G)."""
        coat = set(self.lattice.coat_above(flat))
        return tuple(i for i in range(self.r) if any(c in coat for c in self.parts[i]))

    def sigma(self, vector: tuple[int, ...], flat: frozenset) -> frozenset:
        """The face of S_G selected by a sign vector over the blocks."""
        coat = set(self.lattice.coat_above(flat))
        verts: list[Vertex] = []
        for i, s in enumerate(vector):
            if s == 0:
                continue
            sign = "+" if s > 0 else "-"
            verts.extend(self.vertex(c, sign) for c in self.parts[i] if c in coat)
        return frozenset(verts)

    def sign_of(self, face: Iterable[Vertex], flat: frozenset) -> tuple[int, ...]:
        """Sign vector of a face of S_G; rejects non-faces."""
        coat = set(self.lattice.coat_above(flat))
        seen: dict[int, set[str]] = {}
        for v in face:
            c = self.coatom_of(v)
            if c not in coat:
                raise ValueError(f"vertex {v} is not over a coatom of the flat")
            seen.setdefault(self.part_of[c], set()).add(v[1])
        vector = []
        for i in range(self.r):
            signs = seen.get(i, set())
            if len(signs) > 1:
                raise ValueError(f"mixed signs in block {i}: not a face of S_G")
            vector.append(0 if not signs else (1 if "+" in signs else -1))
        return tuple(vector)

    def build(self, flat: frozenset) -> RepComplex:
        """S_G: one maximal face per sign choice on the blocks meeting coat(G)."""
        flat = frozenset(flat)
        supp = self.support(flat)
        face_signs: dict[frozenset, tuple[int, ...]] = {}
        for choice in product((1, -1), repeat=len(supp)):
            vec = [0] * self.r
            for i, s in zip(supp, choice):
                vec[i] = s
            face = self.sigma(tuple(vec), flat)
            face_signs[face] = tuple(vec)
        order = self.vertex_order(self.lattice.coat_above(flat))
        complex_ = SimplicialComplex(face_signs.keys(), vertex_order=order)
        return RepComplex(flat, complex_, face_signs)

    def intersection_law_holds(self) -> bool:
        """Exact face-set identity S_G n S_H = S_{G v H} for every pair of flats.

        Each S_G is built once; the identity is symmetric in G and H, so each
        unordered pair is compared once.
        """
        built = {g: self.build(g).complex for g in self.lattice.flats}
        return all(
            built[g].intersection(built[h]) == built[self.lattice.join(g, h)]
            for g, h in combinations_with_replacement(self.lattice.flats, 2)
        )

    def arrangement(self) -> HomotopyArrangement:
        members = tuple(
            (atom, self.build(atom)) for atom in self.lattice.atoms()
        )
        return HomotopyArrangement(self, self.build(self.lattice.bottom), members)

    # -- nerve bridge ------------------------------------------------------------

    def compressed_signs(self, rep: RepComplex) -> dict[frozenset, tuple[int, ...]]:
        """Sign vectors of the maximal faces with zero blocks deleted."""
        supp = self.support(rep.flat)
        return {
            face: tuple(vec[i] for i in supp) for face, vec in rep.face_signs.items()
        }

    def nerve_matches_cross_polytope(self, rep: RepComplex) -> bool:
        supp = self.support(rep.flat)
        signs = {
            f: tuple("+" if x > 0 else "-" for x in v)
            for f, v in self.compressed_signs(rep).items()
        }
        return topology.cross_polytope_nerve_iso(rep.complex, len(supp), signs)


# -- arrangement-level operations ------------------------------------------------


def atom_label(lattice: GeometricLattice, atom: frozenset) -> str:
    return ",".join(lattice.sorted_elements(atom))


def arrangement_flats(arr: HomotopyArrangement) -> GeometricLattice:
    """Recover the lattice of flats from the arrangement's intersection data.

    A set S of atoms is a flat when intersecting any further member strictly
    shrinks the common intersection of the members over S.
    """
    lattice = arr.rep.lattice
    atoms = [a for a, _ in arr.members]
    complexes = {a: rep.complex for a, rep in arr.members}
    flats: list[frozenset] = []
    for k in range(len(atoms) + 1):
        for subset in combinations(atoms, k):
            inter = arr.ambient.complex
            for a in subset:
                inter = inter.intersection(complexes[a])
            if all(
                inter.intersection(complexes[e]) != inter
                for e in atoms
                if e not in subset
            ):
                flats.append(frozenset(atom_label(lattice, a) for a in subset))
    labels = [atom_label(lattice, a) for a in atoms]
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

    The ambient and every member/intersection are checked against their
    expected sphere profiles; the ambient additionally against the
    cross-polytope nerve pattern.  The free sign-swap action and the
    rank-jump law for partial intersections are checked exactly.
    """
    rep = ValidationReport()
    fr = arr.rep
    lattice = fr.lattice
    r = lattice.r

    amb = arr.ambient
    ok = topology.is_homology_sphere(amb.complex, r - 1)
    rep.add("ambient-sphere", ok, f"expected S^{r - 1} profile")
    rep.add("ambient-nerve", fr.nerve_matches_cross_polytope(amb))

    members_ok = all(
        topology.is_homology_sphere(m.complex, r - 2) for _, m in arr.members
    )
    rep.add("members-sphere", members_ok, f"each member must be S^{r - 2}")

    # every intersection of members is S_H for the join flat H, and a sphere
    atoms = [a for a, _ in arr.members]
    complexes = {a: m.complex for a, m in arr.members}
    seen: dict[frozenset, SimplicialComplex] = {}
    law_ok = True
    sphere_ok = True
    for k in range(1, len(atoms) + 1):
        for subset in combinations(atoms, k):
            h = lattice.bottom
            for a in subset:
                h = lattice.join(h, a)
            if h in seen:
                inter = seen[h]
            else:
                inter = complexes[subset[0]]
                for a in subset[1:]:
                    inter = inter.intersection(complexes[a])
                if inter != fr.build(h).complex:
                    law_ok = False
                if not topology.is_homology_sphere(inter, lattice.corank(h) - 1):
                    sphere_ok = False
                seen[h] = inter
    rep.add("intersections-are-flats", law_ok)
    rep.add("intersections-sphere", sphere_ok)

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

    # dimension drop: an intersection S_H not inside a member S_G meets it
    # in S_{G v H} one rank up
    drop_ok = True
    for h in seen:
        for g in atoms:
            if lattice.join(g, h) == h:  # S_H inside S_G
                continue
            gh = lattice.join(g, h)
            if lattice.rank(gh) != lattice.rank(h) + 1:
                drop_ok = False
            if not topology.is_homology_sphere(
                seen[h].intersection(complexes[g]), lattice.corank(gh) - 1
            ):
                drop_ok = False
    rep.add("rank-jump", drop_ok)
    return rep
