import json
from collections import namedtuple
from itertools import combinations, groupby, product
from pathlib import Path

import pytest

from matroid_spheres import (
    CoverFamily,
    Flag,
    FlagRepresentation,
    GeometricLattice,
    MatroidInputError,
    Poset,
    SimplicialComplex,
    is_homology_point,
    lattice_from_flats,
    load_matroid,
    make_flag,
    order_complex,
    reduced_homology,
    sphere_profile,
    uniform_matroid,
    vector_config,
)
from matroid_spheres.maps import CrossSelection, RetractDescriptor, SearchCapExceeded, SearchResult, SelectionError
from matroid_spheres.linalg import nullspace_q, rank_q
from matroid_spheres.report import CheckResult, ValidationReport
from matroid_spheres.spheres import _unions, atom_label, representation
from matroid_spheres.topology import (
    HomologyProfile,
    _generic_key,
    _maximal_masks,
    cross_polytope_nerve_iso,
    label_masker,
    smith_invariant_factors,
)


# -- complexes on label faces ------------------------------------------------------


class FrozenComplex:
    """Finite abstract simplicial complex stored by its maximal faces, each
    a frozenset of vertex labels: the package's former form, kept as the
    oracle for ``SimplicialComplex`` on int masks.  ``vertices`` holds the
    vertices some face uses, in ``vertex_order`` where given, the rest by
    ``_generic_key``; equality compares maximal face sets."""

    def __init__(self, maximal_faces, vertex_order=None):
        faces = {frozenset(f) for f in maximal_faces}
        faces.discard(frozenset())
        maximal = []
        for _, same_size in groupby(sorted(faces, key=len, reverse=True), key=len):
            maximal += [f for f in same_size if not any(f <= g for g in maximal)]
        self.maximal_faces = frozenset(maximal)
        used = set().union(*maximal) if maximal else set()
        order = [v for v in vertex_order or () if v in used]
        order += sorted(used - set(order), key=_generic_key)
        self.vertices = tuple(order)
        self._vpos = {v: i for i, v in enumerate(self.vertices)}

    def __eq__(self, other):
        return isinstance(other, FrozenComplex) and self.maximal_faces == other.maximal_faces

    def __hash__(self):
        return hash(self.maximal_faces)

    @property
    def is_empty(self):
        return not self.maximal_faces

    def has_face(self, face):
        f = frozenset(face)
        return not f or any(f <= m for m in self.maximal_faces)

    def intersection(self, other):
        return FrozenComplex({a & b for a in self.maximal_faces for b in other.maximal_faces},
                             vertex_order=self.vertices)

    def restrict(self, vertices):
        keep = frozenset(vertices)
        return FrozenComplex({m & keep for m in self.maximal_faces}, vertex_order=self.vertices)

    def face_key(self, face):
        return tuple(sorted(self._vpos[v] for v in face))

    def all_faces(self):
        """Every nonempty face, by size then ``face_key``."""
        seen = {frozenset(c) for m in self.maximal_faces for k in range(1, len(m) + 1)
                for c in combinations(m, k)}
        return sorted(seen, key=lambda f: (len(f), self.face_key(f)))


def complex_of(faces, vertex_order=None):
    """The ``SimplicialComplex`` of label faces, its vertices those of
    ``FrozenComplex`` (the used ones, in ``vertex_order`` where given)."""
    frozen = FrozenComplex(faces, vertex_order)
    return SimplicialComplex(frozen.vertices, [positions(frozen, m) for m in frozen.maximal_faces])


def label_faces(complex_):
    """The maximal faces as frozensets of vertex labels."""
    return frozenset(face_labels(complex_, m) for m in complex_.maximal_faces)


def face_labels(complex_, mask):
    """The labels of a face mask's positions."""
    return frozenset(complex_.vertices[i] for i in range(mask.bit_length()) if mask >> i & 1)


def frozen(complex_):
    """The complex as a ``FrozenComplex``, in the order of its vertex tuple."""
    return FrozenComplex(label_faces(complex_), vertex_order=complex_.vertices)


def positions(complex_, labels):
    """A set of vertex labels as a mask over the complex's positions, one
    label at a time; every label must be a vertex."""
    index = {v: i for i, v in enumerate(complex_.vertices)}
    return sum(1 << index[v] for v in set(labels))


def used_vertices(complex_):
    """The vertices some face uses, in vertex-tuple order."""
    return tuple(v for i, v in enumerate(complex_.vertices) if complex_.support >> i & 1)


def sorted_faces(complex_):
    """The maximal faces as label sets, in ``face_key`` order."""
    fc = frozen(complex_)
    return sorted(fc.maximal_faces, key=fc.face_key)


# -- fixture builders ------------------------------------------------------------


def simplex_boundary(n):
    """Boundary of the n-simplex on vertices 0..n (an (n-1)-sphere)."""
    return complex_of(combinations(range(n + 1), n))


def cross_polytope_boundary(d):
    """Boundary of the d-dimensional cross-polytope; vertices (i, '+'/'-')."""
    return complex_of(
        [(i, s) for i, s in enumerate(signs)] for signs in product("+-", repeat=d)
    )


def is_homology_sphere(complex_, d):
    """Homology oracle: does the reduced integer homology match the d-sphere?

    d = -1 asks for the empty complex.  The package certifies spheres by
    their facet nerves; the tests check those verdicts against this one.
    """
    if d == -1:
        return complex_.is_empty
    if complex_.is_empty:
        return False
    return reduced_homology(complex_) == sphere_profile(d)


def vertex_table(lattice):
    """Each coatom's signed vertices by sign, numbered here coatom by
    coatom in key order: 2k (+) and 2k + 1 (-) for the k-th.  Oracle for
    ``GeometricLattice.coatom_index``."""
    coatoms = sorted(lattice.coatoms(), key=lattice.key)
    return {c: {"+": 2 * k, "-": 2 * k + 1} for k, c in enumerate(coatoms)}


def signed_coatoms(lattice):
    """Each coatom's signed vertex labels by sign, (elements in ground
    order, sign), in key order.  Oracle for
    ``GeometricLattice.vertex_label``."""
    return {c: {s: (lattice.sorted_elements(c), s) for s in "+-"}
            for c in sorted(lattice.coatoms(), key=lattice.key)}


def coatom_sign(lattice):
    """Each signed vertex's (coatom, sign), by ``vertex_table``."""
    return {v: (c, s) for c, pm in vertex_table(lattice).items() for s, v in pm.items()}


def blocks_oracle(lattice, flag):
    """Coatom blocks as coat_above(F_i) - coat_above(F_{i+1}), each in key
    order.  Oracle for ``FlagRepresentation.parts``."""
    return tuple(
        tuple(sorted(set(lattice.coat_above(flag[i])) - set(lattice.coat_above(flag[i + 1])),
                     key=lattice.key))
        for i in range(lattice.r)
    )


def parts_oracle(lattice, flag):
    """Coatom blocks as the constructor once built its ``parts``: one pass
    over ``lattice.coatoms()``, each coatom c joining block
    max{i : F_i inside c}, each block in key order.  Oracle for
    ``FlagRepresentation.halves``."""
    chain, parts = flag.chain, [[] for _ in range(lattice.r)]
    for c in lattice.coatoms():
        parts[max(i for i in range(lattice.r) if chain[i] <= c)].append(c)
    return tuple(map(tuple, parts))


def slots_oracle(lattice, flag):
    """Each signed vertex with its half, (2k + s, 2i + s) for coatom k in
    block i, block by block, as the constructor once built its ``slots``.
    Oracle for ``FlagRepresentation.slot``."""
    signed = vertex_table(lattice)
    return tuple((signed[c][s], 2 * i + "+-".index(s))
                 for i, block in enumerate(parts_oracle(lattice, flag)) for c in block for s in "+-")


def held_parts(rep):
    """The coatom blocks a representation holds, read off its + halves:
    block i's coatoms in key order."""
    coatoms = rep.lattice.coatoms()
    return tuple(tuple(c for k, c in enumerate(coatoms) if p >> 2 * k & 1) for p, _ in rep.halves)


def selected_coatoms(lattice, selection):
    """A selection's coatoms, read off their positions."""
    return tuple(lattice.coatoms()[k] for k in selection.coatoms)


def coatom_positions(lattice, coatoms):
    """Each coatom's position, read off ``vertex_table``."""
    signed = vertex_table(lattice)
    return tuple(signed[c]["+"] // 2 for c in coatoms)


def face_oracle(lattice, vector, blocks):
    """Every coatom of block i, signed by vector[i], built vertex by vertex;
    blocks with 0 left out.  Oracle for ``FlagRepresentation.sigma``."""
    signed = vertex_table(lattice)
    return frozenset(signed[c]["+" if s > 0 else "-"] for s, b in zip(vector, blocks) if s for c in b)


def cross_polytope_oracle(lattice, blocks):
    """One face per sign choice on the nonempty blocks, vertex by vertex,
    mapped to its sign vector.  Oracle for ``FlagRepresentation.construct``."""
    choices = product(*[(1, -1) if b else (0,) for b in blocks])
    return {face_oracle(lattice, vec, blocks): vec for vec in choices}


def support(rep, flat):
    """Indices of the coatom blocks meeting coat(G)."""
    coat = set(rep.lattice.coat_above(flat))
    return tuple(i for i, block in enumerate(held_parts(rep)) if coat.intersection(block))


def part_of(rep):
    """Each coatom's block index, read off ``held_parts``."""
    return {c: i for i, block in enumerate(held_parts(rep)) for c in block}


def facet_signs(rep, complex_):
    """Each maximal face's sign vector over the coatom blocks, read off its
    vertices by ``part_of`` and the sign label: 1 or -1 where the face's
    vertices in a block all carry that sign, 0 where the face has none in
    the block, and None where its signs there mix."""
    value = {frozenset(): 0, frozenset("+"): 1, frozenset("-"): -1}
    out, block, label = {}, part_of(rep), coatom_sign(rep.lattice)
    for face in label_faces(complex_):
        signs = [set() for _ in rep.halves]
        for coatom, sign in map(label.__getitem__, face):
            signs[block[coatom]].add(sign)
        out[face] = tuple(value.get(frozenset(s)) for s in signs)
    return out


def nerve_oracle(rep, flat, built):
    """The per-flat route by the nerve lemma: the blocks meeting coat(G)
    number corank(G), and the maximal faces, labelled by ``facet_signs`` on
    those blocks, have the nerve of the cross-polytope's facets.  Oracle for
    ``FlagRepresentation.spheres``."""
    supp = support(rep, flat)
    labels = {1: "+", -1: "-"}
    signs = {f: tuple(labels.get(v[i], "?") for i in supp)
             for f, v in facet_signs(rep, built).items()}
    return (len(supp) == rep.lattice.corank(flat)
            and cross_polytope_nerve_iso(built, len(supp), signs))


def has_face_oracle(complex_, face):
    """Is the face inside some maximal face, by a scan of them all?
    Oracle for ``SimplicialComplex.has_face``."""
    return frozen(complex_).has_face(face)


def is_subcomplex_of(complex_, other):
    """Is every maximal face of the complex a face of the other, as label sets?"""
    return all(map(frozen(other).has_face, label_faces(complex_)))


def _boundary_entries(lower, upper, complex_):  # on a FrozenComplex
    index = {f: i for i, f in enumerate(lower)}
    entries = {}
    for j, face in enumerate(upper):
        verts = sorted(face, key=complex_._vpos.__getitem__)
        for k in range(len(verts)):
            sub = frozenset(verts[:k] + verts[k + 1:])
            if sub:
                entries[(index[sub], j)] = 1 if k % 2 == 0 else -1
    return entries


def face_homology_oracle(complex_):
    """Reduced homology from Smith normal forms of the boundary maps over
    every face, the augmentation included, with no reduction first.
    Oracle for ``topology._face_homology``."""
    if complex_.is_empty:
        return HomologyProfile(())
    complex_ = frozen(complex_)
    by_dim = {}
    for f in complex_.all_faces():
        by_dim.setdefault(len(f) - 1, []).append(f)
    top = max(by_dim)
    # boundary_0 is the augmentation map C_0 -> Z sending every vertex to 1
    factors = {0: smith_invariant_factors({(0, j): 1 for j in range(len(by_dim[0]))},
                                          1, len(by_dim[0])), top + 1: []}
    for d in range(1, top + 1):
        entries = _boundary_entries(by_dim[d - 1], by_dim[d], complex_)
        factors[d] = smith_invariant_factors(entries, len(by_dim[d - 1]), len(by_dim[d]))
    return HomologyProfile(tuple(
        (len(by_dim.get(d, [])) - len(factors[d]) - len(factors[d + 1]),
         tuple(x for x in factors[d + 1] if x > 1))
        for d in range(top + 1)
    ))


def beat_points_oracle(poset, members):
    """Beat points removed pass by pass, each pass testing every element
    left, until a pass removes none; True when one element is left.
    Oracle for ``Poset.mask_reduces_to_point``, through ``reduces_to_point``."""
    up, down = poset.up, poset.down
    index = {x: i for i, x in enumerate(poset.elements)}
    members = set(members)
    if any(x not in index for x in members):
        return False
    left = sum(1 << index[x] for x in members)
    removed = True
    while removed and left & (left - 1):
        removed = False
        for i in range(len(up)):
            if not left >> i & 1:
                continue
            above = up[i] & left & ~(1 << i)
            below = down[i] & left & ~(1 << i)
            if (above and above & ~up[(above & -above).bit_length() - 1] == 0) or (
                below and below & ~down[below.bit_length() - 1] == 0
            ):
                left &= ~(1 << i)
                removed = True
    return left != 0 and not left & (left - 1)


def reduces_to_point(poset, members):
    """``Poset.mask_reduces_to_point`` on members given as elements, masked
    through their positions in ``poset.elements``; False where a member is
    no element."""
    index = {x: i for i, x in enumerate(poset.elements)}
    if any(x not in index for x in members):
        return False
    return poset.mask_reduces_to_point(sum(1 << index[x] for x in set(members)))


def label_cover(ambient, members, poset=None):
    """A ``CoverFamily`` of members given as (key, label set) pairs, each
    masked over the ambient's positions by ``label_masker``."""
    mask = label_masker(ambient.vertices)
    return CoverFamily(ambient, tuple((k, mask(m)) for k, m in members), poset)


def image_masks(images, ambient):
    """Each vertex image, a set of labels, as a mask over the ambient's
    positions by ``label_masker``: a label that is no vertex gets a bit of
    its own past the end."""
    mask = label_masker(ambient.vertices)
    return {v: mask(face) for v, face in images.items()}


def member_labels(cover):
    """The members as a dict from key to label set."""
    return {k: face_labels(cover.ambient, m) for k, m in cover.members}


def maps_into_carrier_oracle(vertex_images, a_cover, b_cover):
    """``carrier_check``'s maps-into-carrier by restricting the A-ambient to
    each member and mapping every maximal face of the restriction, on
    label sets; each image is a set of B labels."""
    b_map, a_amb, b_amb = member_labels(b_cover), frozen(a_cover.ambient), frozen(b_cover.ambient)
    for key, a in member_labels(a_cover).items():
        for m in a_amb.restrict(a).maximal_faces if a else ():
            image = frozenset().union(*[frozenset(vertex_images[v]) for v in m])
            if not (image <= b_map[key] and b_amb.has_face(image)):
                return False
    return True


def complex_intersections(members):
    """Each distinct nonempty intersection of member complexes, each a
    ``FrozenComplex``, by meets of maximal faces, with the index bitmask of
    one family meeting in it."""
    found = {}
    for i, m in enumerate(members):
        if not m.is_empty:
            found.setdefault(m, 1 << i)
    queue = list(found)
    for x in queue:
        verts = set(x.vertices)
        for i, m in enumerate(members):
            if found[x] >> i & 1 or verts.isdisjoint(m.vertices):
                continue
            y = x.intersection(m)
            if y not in found:
                found[y] = found[x] | 1 << i
                queue.append(y)
    return found


def carrier_report_oracle(a_ambient, a_map, b_ambient, b_map, images):
    """Each ``carrier_check`` line's (passed, detail) on the complex-based
    route: each member its own complex (keyed alike in a_map and b_map),
    intersections by ``complex_intersections``, and the images as sets of
    B labels by A label, every complex on label faces."""
    keys = sorted(a_map, key=_generic_key)
    a, b = [frozen(a_map[k]) for k in keys], [frozen(b_map[k]) for k in keys]

    def covers(ambient, members):
        return FrozenComplex([f for m in members for f in m.maximal_faces]) == frozen(ambient)

    def stars(members):  # each vertex's members, by position
        out = {}
        for i, m in enumerate(members):
            for v in m.vertices:
                out[v] = out.get(v, 0) | 1 << i
        return set(out.values())

    def subset(mask):
        return [keys[i] for i in range(len(keys)) if mask >> i & 1]

    detail = ""
    for side, members in (("A", a), ("B", b)):
        bad = next((w for x, w in complex_intersections(members).items()
                    if not is_homology_point(complex_of(x.maximal_faces))), None)
        if bad is not None:
            detail = f"{side}-intersection over {subset(bad)} is not a homology point"
            break
    tops_a = _maximal_masks(stars(a))
    tops_b = _maximal_masks(stars(b))
    differ = [m for tops, other in ((tops_a, tops_b), (tops_b, tops_a))
              for m in sorted(tops) if not any(m & ~t == 0 for t in other)]
    maps_into = all(
        y.has_face(frozenset().union(*[frozenset(images[v]) for v in m]))
        for x, y in zip(a, b)
        for m in x.maximal_faces
    )
    return {
        "covering": (covers(a_ambient, a) and covers(b_ambient, b), ""),
        "intersections-contractible": (not detail, detail),
        "nonemptiness-equivalence": (
            not differ, f"nonemptiness differs on {subset(differ[0])}" if differ else ""),
        "maps-into-carrier": (maps_into, ""),
    }


def cross_polytope_complex(lattice, coatoms):
    """The cross-polytope on the coatoms as a complex, one facet per sign
    choice, built vertex by vertex by ``vertex_table``: the polytope of
    a retraction, through ``complex_masks``."""
    signed = vertex_table(lattice)
    return complex_of(frozenset(signed[c][s] for c, s in zip(coatoms, signs))
                      for signs in product("+-", repeat=len(coatoms)))


def complex_masks(complex_):
    """The complex's facets as vertex masks, bit v for vertex v, one bit
    at a time."""
    return frozenset(sum(1 << v for v in m) for m in label_faces(complex_))


def mask_vertices(mask):
    """The vertex mask's vertices, read bit by bit; a bit at or above
    2|coatoms| is a vertex of no coatom."""
    return frozenset(i for i in range(mask.bit_length()) if mask >> i & 1)


def masks_complex(masks):
    """The complex whose facets are the vertex masks, read back by
    ``mask_vertices``.  Inverse of ``complex_masks``."""
    return complex_of(map(mask_vertices, masks))


def retraction_face_lines_oracle(desc):
    """``verify_retraction``'s polytope-in-source, polytope-in-target,
    simplicial and composite-simplicial by ``has_face`` on the complexes as
    held, the polytope's facet masks read back as a complex, each facet of
    S_0 mapped vertex by vertex.  Takes a ``materialise``d descriptor."""
    lattice = desc.source.lattice
    s_f = frozen(desc.source.build(lattice.bottom))
    s_g = frozen(desc.target.build(lattice.bottom))
    polytope = frozen(masks_complex(desc.polytope))
    images = [frozenset(map(desc.vertex_map.__getitem__, m)) for m in s_f.maximal_faces]
    return {"polytope-in-source": all(map(s_f.has_face, polytope.maximal_faces)),
            "polytope-in-target": all(map(s_g.has_face, polytope.maximal_faces)),
            "simplicial": all(map(polytope.has_face, images)),
            "composite-simplicial": all(map(s_g.has_face, images))}


def lattice_join(lattice, x, y):
    """The join of two flats: the closure of their union."""
    return lattice.closure(frozenset(x) | frozenset(y))


def cover_steps_oracle(lattice):
    """Every (F, a, F v a) in flat order, each join by ``closure``.
    Oracle for ``FlagRepresentation.cover_steps``."""
    return tuple((f, a, lattice_join(lattice, f, a)) for f in lattice.flats for a in lattice.atoms())


def swap_sign(v):
    """The signed vertex with its sign swapped: 2k and 2k + 1 trade places."""
    return v + 1 if v % 2 == 0 else v - 1


def swap_map(complex_):
    """The sign swap on the complex's vertices, for ``z2_free_check``.
    Oracle for the swap-closed vertex masks of ``verify_arrangement``."""
    return {v: swap_sign(v) for v in used_vertices(complex_)}


def z2_free_check(complex_, involution):
    """Check a vertex involution acts simplicially and freely, face by face.

    Freeness is the strong form: no face contains both a vertex and its
    image.  Raises ValueError if the map is not a simplicial involution.
    Oracle for the z2-free line of ``verify_arrangement``.
    """
    complex_ = frozen(complex_)
    for v in complex_.vertices:
        if v not in involution or involution.get(involution[v]) != v:
            raise ValueError("map is not an involution of the vertex set")
    for m in complex_.maximal_faces:
        if not complex_.has_face({involution[v] for v in m}):
            raise ValueError("involution is not simplicial")
    for m in complex_.maximal_faces:
        if any(involution[v] in m for v in m):
            return False
    return True


# -- the arrangement held as complexes, for the subset oracles


Held = namedtuple("Held", "rep ambient members")


def held_arrangement(rep):
    """The arrangement as the oracle routes read it: S_bottom as the
    representation holds it (the complex ``join_holds`` compares), and each
    atom's S_a by ``construct``, as (atom, complex) pairs in atom order."""
    lattice = rep.lattice
    return Held(rep, rep.build(lattice.bottom), tuple((a, rep.construct(a)) for a in lattice.atoms()))


def arrangement_flats_oracle(arr):
    """A set S of atoms is a flat when intersecting any further member
    strictly shrinks the common intersection of the members over S.
    Oracle for ``arrangement_flats`` on a ``held_arrangement``."""
    lattice = arr.rep.lattice
    atoms = [a for a, _ in arr.members]
    complexes = {a: m for a, m in arr.members}
    flats = set()
    for k in range(len(atoms) + 1):
        for subset in combinations(atoms, k):
            inter = arr.ambient
            for a in subset:
                inter = inter.intersection(complexes[a])
            if all(inter.intersection(complexes[e]) != inter for e in atoms if e not in subset):
                flats.add(frozenset(atom_label(lattice, a) for a in subset))
    return flats


def verify_arrangement_oracle(arr):
    """Every atom subset: its members' intersection against S of its join,
    built by ``construct``, a sphere check on it, and the rank jump against
    every further member; the ambient and the members by homology, the
    nerve by ``nerve_oracle`` and the swap face by face.  Oracle for
    ``verify_arrangement`` on a ``held_arrangement``."""
    rep = ValidationReport()
    fr = arr.rep
    lattice = fr.lattice
    r = lattice.r
    amb = arr.ambient
    rep.add("ambient-sphere", is_homology_sphere(amb, r - 1),
            f"expected S^{r - 1} profile")
    rep.add("ambient-nerve", nerve_oracle(fr, lattice.bottom, amb))
    rep.add("members-sphere",
            all(is_homology_sphere(m, r - 2) for _, m in arr.members),
            f"each member must be S^{r - 2}")
    atoms = [a for a, _ in arr.members]
    complexes = {a: m for a, m in arr.members}
    seen = {}
    law_ok = sphere_ok = True
    for k in range(1, len(atoms) + 1):
        for subset in combinations(atoms, k):
            h = lattice.bottom
            for a in subset:
                h = lattice_join(lattice, h, a)
            inter = complexes[subset[0]]
            for a in subset[1:]:
                inter = inter.intersection(complexes[a])
            if inter != fr.construct(h):
                law_ok = False
            if h not in seen:
                if not is_homology_sphere(inter, lattice.corank(h) - 1):
                    sphere_ok = False
                seen[h] = inter
    rep.add("intersections-are-flats", law_ok)
    rep.add("intersections-sphere", sphere_ok)
    try:
        free = z2_free_check(amb, swap_map(amb))
        restricts = all(
            m.is_empty or z2_free_check(m, swap_map(m))
            for _, m in arr.members
        )
    except ValueError:
        free = restricts = False
    rep.add("z2-free", free and restricts)
    drop_ok = True
    for h, inter in seen.items():
        for g in atoms:
            gh = lattice_join(lattice, g, h)
            if gh == h:
                continue
            if lattice.rank(gh) != lattice.rank(h) + 1:
                drop_ok = False
            if not is_homology_sphere(
                inter.intersection(complexes[g]), lattice.corank(gh) - 1
            ):
                drop_ok = False
    rep.add("rank-jump", drop_ok)
    return rep


def embedding_face_lines_oracle(emb, images=None):
    """``verify_embedding``'s well-defined, block-signs-agree and
    covector-flats-into-spheres by building every S_G and scanning its
    maximal faces, with the signs of each image grouped by block.  The
    images are sets of signed vertices by covector tuple, read off the
    embedding's sign masks unless given."""
    rep, cs = emb.rep, emb.cs
    if images is None:
        images = {sign_vector(x, len(cs.elements)): mask_vertices(m) for x, m in emb.images.items()}
    well = all(frozen(rep.build(zero_set_oracle(cs.elements, x))).has_face(face)
               for x, face in images.items())
    same_sign, block, label = True, part_of(rep), coatom_sign(emb.lattice)
    for face in images.values():
        by_part = {}
        for coatom, sign in map(label.__getitem__, face):
            by_part.setdefault(block[coatom], set()).add(sign)
        same_sign = same_sign and all(len(s) == 1 for s in by_part.values())
    into = all(frozen(rep.build(g)).has_face(images[x])
               for g in emb.lattice.flats for x in covector_flat_oracle(cs, g) if any(x))
    return {"well-defined": well, "block-signs-agree": same_sign, "covector-flats-into-spheres": into}


def order_tables_oracle(lattice):
    """Each flat's element mask, and its up-set and down-set as bitsets over
    positions in ``flats``, by comparing every pair of masks.  Oracle for
    ``verify_geometric``'s ``Poset`` and ``GeometricLattice.up``/``down``."""
    flats = lattice.flats
    pos = {e: i for i, e in enumerate(lattice.elements)}
    masks = [sum(1 << pos[e] for e in f) for f in flats]
    up, down = [0] * len(flats), [0] * len(flats)
    for i, m in enumerate(masks):
        for j in range(i, len(flats)):  # a superset never sorts before its subset
            if m & masks[j] == m:
                up[i] |= 1 << j
                down[j] |= 1 << i
    return tuple(masks), tuple(up), tuple(down)


def upper_covers_oracle(lattice, flat):
    """The flats covering a set, by a scan of every pair of flats above it.
    Oracle for ``GeometricLattice.upper_covers``."""
    x = frozenset(flat)
    above = [f for f in lattice.flats if x < f]
    return tuple(f for f in above if not any(x < g < f for g in above))


def all_complete_flags_oracle(lattice):
    """Every chain from bottom to top through ``upper_covers_oracle``, grown
    by recursion in key order.  Oracle for ``all_complete_flags``."""
    out = []

    def grow(chain):
        if chain[-1] == lattice.top:
            out.append(Flag(tuple(chain)))
            return
        for cover in sorted(upper_covers_oracle(lattice, chain[-1]), key=lattice.key):
            grow(chain + [cover])

    grow([lattice.bottom])
    return out


def heights_oracle(lattice):
    """Each flat's chain height, by a scan of every flat already placed, in
    size order.  Oracle for ``GeometricLattice._heights``."""
    h = {}
    for f in sorted(lattice.flats, key=len):
        below = [h[g] for g in h if g < f]
        h[f] = max(below) + 1 if below else 0
    return h


def order_heights_oracle(lattice):
    """Each flat's chain height, walking ``flats`` in key order: the flats
    strictly inside f are its down-set in ``order_tables_oracle`` less f,
    and levels[k] is the bitset of the flats of height k.  Oracle for
    ``GeometricLattice._heights``, which reads ``holding`` instead."""
    h, levels = {}, {}
    for i, (f, below) in enumerate(zip(lattice.flats, order_tables_oracle(lattice)[2])):
        below ^= 1 << i
        k = next((k + 1 for k in reversed(levels) if levels[k] & below), 0)
        levels[k] = levels.get(k, 0) | 1 << i
        h[f] = k
    return h


def select_cross_coatoms_oracle(rep_f, rep_g):
    """Cross-coatom selection by a dict per F-block of the first coatom it
    shares with each G-block, in key order, read coatom by coatom through
    ``part_of``; each F-block takes its highest G-block.  Oracle for the
    mask reading of ``maps.select_cross_coatoms``."""
    r, g_block = rep_f.lattice.r, part_of(rep_g)
    first = [{} for _ in range(r)]  # G-block -> coatom
    for i, block in enumerate(held_parts(rep_f)):
        for c in block:
            first[i].setdefault(g_block[c], c)
    chosen = [max(seen) for seen in first]
    if len(set(chosen)) != r:
        raise SelectionError("no cross-coatom selection: two F-blocks share their highest G-block")
    coatoms = tuple(first[i][j] for i, j in enumerate(chosen))
    return CrossSelection(coatom_positions(rep_f.lattice, coatoms), tuple(chosen))


# -- retraction descriptors with their map and polytope built, for the oracle routes


Materialised = namedtuple("Materialised", "selection source target vertex_map polytope")


def formula_map(desc):
    """The retraction's formula as a dict in vertex order: v in the
    source's half slot[v] = 2i + s goes to 2 * coatoms[i] + s."""
    onto = [2 * k + s for k in desc.selection.coatoms for s in (0, 1)]
    return {v: onto[h] for v, h in enumerate(desc.source.slot)}


def materialise(desc):
    """A descriptor with its map and polytope built, as the oracle routes
    read them: ``formula_map``, and the facet masks of
    ``cross_polytope_complex`` over the selected coatoms."""
    lattice = desc.source.lattice
    polytope = complex_masks(cross_polytope_complex(lattice, selected_coatoms(lattice, desc.selection)))
    return Materialised(desc.selection, desc.source, desc.target, formula_map(desc), polytope)


def vertex_mask(vertices):
    """A set of signed vertices as an int mask."""
    return sum(1 << v for v in vertices)


def half_masks(rep, vertex_map):
    """Each block's + and - halves, each vertex sent through the map, by
    ``slot``, as two vertex masks."""
    out = [0] * (2 * rep.r)
    for v, h in enumerate(rep.slot):
        out[h] |= 1 << vertex_map[v]
    return tuple(zip(out[::2], out[1::2]))


def are_faces(rep, masks):
    """Is every vertex mask a face of S_0, given ``join_holds``: no bit at
    or above 2|coatoms| (a vertex of no coatom) and no block holding both
    signs?  An empty set holds no mask, so it passes."""
    return not masks or (rep.join_holds and not max(masks) >> 2 * len(rep.lattice.coatoms())
                         and all(map(rep.is_face, masks)))


def selection_masks(positions):
    """The facets of the join of the pairs {2k}, {2k + 1} over the
    positions, as vertex masks, the empty mask left out."""
    return frozenset(_unions([(1 << 2 * k, 2 << 2 * k) for k in positions])) - {0}


def retraction_oracle(lattice, flag_f, flag_g):
    """``retraction_map`` through ``select_cross_coatoms_oracle``, each
    signed coatom's image read off ``vertex_table`` and ``parts_oracle``,
    and the polytope by ``cross_polytope_complex``, materialised.  Oracle
    for ``maps.retraction_map`` and ``formula_map``."""
    rep_f, rep_g = representation(lattice, flag_f), representation(lattice, flag_g)
    sel = select_cross_coatoms_oracle(rep_f, rep_g)
    signed, coatoms = vertex_table(lattice), selected_coatoms(lattice, sel)
    vmap = dict(sorted((v, signed[chosen][s]) for block, chosen in zip(parts_oracle(lattice, flag_f), coatoms)
                       for c in block for s, v in signed[c].items()))  # in vertex order
    polytope = complex_masks(cross_polytope_complex(lattice, coatoms))
    return Materialised(sel, rep_f, rep_g, vmap, polytope)


def verify_retraction_oracle(desc):
    """``verify_retraction`` on a materialised descriptor, with each image
    half read off ``slot`` and sent through the map (``half_masks``), the
    polytope compared with the facet masks of ``cross_polytope_complex``,
    each set of masks scanned block by block (``are_faces``), and the
    report built line by line by ``add``.  Oracle for ``maps.verify_retraction``."""
    rep = ValidationReport()
    source, target, vmap, polytope = desc.source, desc.target, desc.vertex_map, desc.polytope
    lattice = source.lattice
    s_f = source.build(lattice.bottom)
    if source.join_holds:
        images = frozenset(_unions(half_masks(source, vmap)))
    else:
        images = frozenset(sum(1 << w for w in {vmap[v] for v in m}) for m in label_faces(s_f))
    rep.add("selection-distinct", desc.selection.distinct())
    rep.add("polytope-in-source", are_faces(source, polytope))
    rep.add("polytope-in-target", are_faces(target, polytope))
    rep.add("simplicial", all(any(i & m == i for m in polytope) for i in images - polytope if i))
    rep.add("idempotent", all(vmap[vmap[v]] == vmap[v] for v in used_vertices(s_f)))
    rep.add("composite-simplicial", are_faces(target, images))
    rep.add("source-sphere", source.join_holds)
    rep.add("target-sphere", target.join_holds)
    coatoms = frozenset(selected_coatoms(lattice, desc.selection))
    cross = complex_masks(cross_polytope_complex(lattice, coatoms))
    rep.add("polytope-sphere", len(coatoms) == lattice.r and polytope == cross)
    return rep


def verify_retraction_general(desc):
    """``verify_retraction`` on a materialised descriptor, with no read-off:
    the images are built as a set of masks (the 2^r unions of the image
    halves given the join, else each facet of S_0 mapped), the polytope's
    all-+ facet is its least mask, and every vertex's image is mapped
    again.  Oracle for the read-off of every line off the selection."""
    source, target, vmap, polytope = desc.source, desc.target, desc.vertex_map, desc.polytope
    lattice = source.lattice
    s_f = source.build(lattice.bottom)
    if source.join_holds:
        images = frozenset(_unions(half_masks(source, vmap)))
    else:
        images = frozenset(vertex_mask({vmap[v] for i, v in enumerate(s_f.vertices) if m >> i & 1})
                           for m in s_f.maximal_faces)
    positions = frozenset(desc.selection.coatoms)
    polytope_ok = len(positions) == lattice.r and polytope == selection_masks(positions)
    if polytope_ok:
        plus = min(polytope, default=0)  # every coatom signed +, the lower of its two bits
        in_source, in_target = source.apart(plus), target.apart(plus)
    else:
        in_source, in_target = are_faces(source, polytope), are_faces(target, polytope)
    return ValidationReport([
        CheckResult("selection-distinct", desc.selection.distinct()),
        CheckResult("polytope-in-source", in_source),
        CheckResult("polytope-in-target", in_target),
        CheckResult("simplicial", all(any(i & m == i for m in polytope) for i in images - polytope if i)),
        CheckResult("idempotent", all(vmap[w] == w for w in map(vmap.__getitem__, s_f.vertices))),
        CheckResult("composite-simplicial", in_target if images == polytope else are_faces(target, images)),
        CheckResult("source-sphere", source.join_holds),
        CheckResult("target-sphere", target.join_holds),
        CheckResult("polytope-sphere", polytope_ok),
    ])


# -- descriptor mutants: a new selection, or a fresh representation to poison


def repeated_g_part(desc):
    """The selection with its first G-block held twice, coatoms as they were."""
    sel = desc.selection
    g_parts = (sel.g_parts[0],) + sel.g_parts[:1] + sel.g_parts[2:]
    return RetractDescriptor(CrossSelection(sel.coatoms, g_parts), desc.source, desc.target)


def repeated_coatom(desc):
    """The selection with its first coatom held in place of its second:
    r coatoms, r - 1 of them distinct, so block 1 goes onto C_0."""
    sel = desc.selection
    coatoms = sel.coatoms[:1] + sel.coatoms[:1] + sel.coatoms[2:]
    return RetractDescriptor(CrossSelection(coatoms, sel.g_parts), desc.source, desc.target)


def poisoned(lattice, flag, facets):
    """A fresh representation of the flag whose S_0 holds the given facets."""
    rep = FlagRepresentation(lattice, flag)
    vertices = rep.build(lattice.bottom).vertices
    rep._built[lattice.bottom] = complex_of(facets, vertices)
    return rep


def with_dropped_facet(rep):
    """A fresh representation of rep's flag whose S_0 lost its first facet."""
    return poisoned(rep.lattice, rep.flag, sorted_faces(rep.build(rep.lattice.bottom))[1:])


def poisoned_source(desc):
    return RetractDescriptor(desc.selection, with_dropped_facet(desc.source), desc.target)


def poisoned_target(desc):
    return RetractDescriptor(desc.selection, desc.source, with_dropped_facet(desc.target))


def cross_coatom_search_oracle(rep_f, rep_g):
    """Cross-coatom selection from a dict of every coatom per (F-block,
    G-block) pair, greedy in G-block order with Kuhn's matching on block
    indices: a search where the selection reads the one answer off.
    Oracle for ``maps.select_cross_coatoms``."""
    lattice, g_block = rep_f.lattice, part_of(rep_g)
    r = lattice.r
    options = {}
    for i in range(r):
        for c in held_parts(rep_f)[i]:
            options.setdefault((i, g_block[c]), []).append(c)

    def matchable(fixed, start):
        used_g = set(fixed.values())
        match_g = {}

        def augment(i, seen):
            for j in range(r):
                if j in used_g or j in seen or (i, j) not in options:
                    continue
                seen.add(j)
                if j not in match_g or augment(match_g[j], seen):
                    match_g[j] = i
                    return True
            return False

        return all(augment(i, set()) for i in range(start, r))

    chosen = {}
    for i in range(r):
        for j in sorted(set(j for (fi, j) in options if fi == i)):
            if j in chosen.values():
                continue
            chosen[i] = j
            if matchable(chosen, i + 1):
                break
            del chosen[i]
        if i not in chosen:
            raise SelectionError("no cross-coatom selection exists")
    coatoms = tuple(min(options[(i, chosen[i])], key=lattice.key) for i in range(r))
    return CrossSelection(coatom_positions(lattice, coatoms), tuple(chosen[i] for i in range(r)))


# -- covectors as sign-vector tuples: the package's former form ---------------------


def sign_mask(x):
    """The sign mask of a sign-vector tuple: bit i for a + at i, bit n+i
    for a -."""
    n = len(x)
    return sum(1 << i if a > 0 else 1 << n + i for i, a in enumerate(x) if a)


def sign_vector(mask, n):
    """The sign-vector tuple of a sign mask over n elements."""
    return tuple((mask >> i & 1) - (mask >> n + i & 1) for i in range(n))


def cov_leq(x, y):
    """Conformal order on sign-vector tuples: every nonzero coordinate of x
    agrees with y.  Oracle for the sign-mask order."""
    return all(a == 0 or a == b for a, b in zip(x, y))


def compose_signs(x, y):
    """x with y filling in the zero coordinates, on tuples."""
    return tuple(a if a != 0 else b for a, b in zip(x, y))


def neg_signs(x):
    return tuple(-a for a in x)


def zero_set_oracle(elements, x):
    """The elements where the tuple x vanishes."""
    return frozenset(e for e, a in zip(elements, x) if a == 0)


def cocircuits_oracle(config):
    """Cocircuits as tuples, by brute force: for every r - 1 independent
    columns, the signs of the columns' dot products with the normal to
    their span, and the negatives.  Oracle for ``cocircuits_from_vectors``."""
    r, out = config.dimension, set()
    for rows in combinations(config.columns, r - 1):
        if rows and rank_q(rows) != r - 1:
            continue
        normal = nullspace_q(rows, r)[0] if rows else (1,)
        x = tuple((d > 0) - (d < 0) for d in (sum(a * b for a, b in zip(normal, col))
                                              for col in config.columns))
        out |= {x, neg_signs(x)}
    return frozenset(out)


def span_oracle(elements, cocircuits):
    """Close the cocircuits and zero under composition of every ordered
    pair of members, round after round.  Oracle for ``covector_span``."""
    covectors = set(cocircuits) | {(0,) * len(elements)}
    frontier = set(covectors)
    while frontier:
        fresh = {
            z
            for x in frontier
            for y in covectors
            for z in (compose_signs(x, y), compose_signs(y, x))
            if z not in covectors
        }
        covectors |= fresh
        frontier = fresh
    return frozenset(covectors)


def tuples(cs, masks):
    """Sign masks over the covector set's elements as tuples."""
    return [sign_vector(x, len(cs.elements)) for x in masks]


def covector_flat_oracle(cs, flat):
    """The covector tuples vanishing on every element of the flat."""
    return sorted(x for x in tuples(cs, cs.covectors) if flat <= zero_set_oracle(cs.elements, x))


def images_oracle(emb):
    """Each nonzero covector tuple's image, a set of signed vertices: each
    cocircuit's vertex by the sign it takes on its first nonzero pivot, and
    every covector the union over the cocircuits conformally below it.
    Oracle for ``Embedding.images``."""
    cs = emb.cs
    pivots = [cs.elements.index(p) for p in emb.pivots]
    vertex = {}
    for c in tuples(cs, cs.cocircuits):
        first = next(c[p] for p in pivots if c[p])
        vertex[c] = emb.rep.vertex(zero_set_oracle(cs.elements, c), "+" if first > 0 else "-")
    return {x: frozenset(v for c, v in vertex.items() if cov_leq(c, x))
            for x in tuples(cs, cs.covectors) if any(x)}


def sigma_oracle(emb, vec, flat):
    """sigma(vec, G) vertex by vertex: each block's coatoms above the flat,
    signed by vec.  Oracle for ``FlagRepresentation.sigma``."""
    blocks = [[c for c in b if flat <= c] for b in blocks_oracle(emb.lattice, emb.flag)]
    return face_oracle(emb.lattice, vec, blocks)


def build_covers_oracle(emb, flat):
    """The paired cover members as label sets by key: A_vec the nonzero
    covector tuples over the flat whose oracle image lies in sigma(vec, G),
    B_vec the vertices of sigma(vec, G).  Oracle for ``build_covers``."""
    images = images_oracle(emb)
    covs = [x for x in covector_flat_oracle(emb.cs, flat) if any(x)]
    a_members, b_members = {}, {}
    for vec in product((1, -1), repeat=emb.lattice.r):
        key = tuple("+" if s > 0 else "-" for s in vec)
        b_members[key] = sigma_oracle(emb, vec, flat)
        a_members[key] = frozenset(x for x in covs if images[x] <= b_members[key])
    return a_members, b_members


def verify_embedding_oracle(emb):
    """``verify_embedding``'s report on tuples and vertex sets: the images
    by ``images_oracle``, every pair x < y compared, each image built into
    its S_G as a complex, and each Delta(L_G) by ``delta_complex``.  Oracle
    for ``verify_embedding``."""
    rep, cs, lattice, fr = ValidationReport(), emb.cs, emb.lattice, emb.rep
    images = images_oracle(emb)
    cocircuits = tuples(cs, cs.cocircuits)
    for i in range(lattice.r + 1):
        zero_sets = {zero_set_oracle(cs.elements, c) for c in cocircuits}
        rep.add(f"pivots/coatoms@{i}", {z for z in zero_sets if set(emb.pivots[:i]) <= z}
                == set(lattice.coat_above(emb.flag[i])))
    lines = embedding_face_lines_oracle(emb, images)
    rep.add("well-defined", lines["well-defined"], "every image is a face of S over the zero set")
    rep.add("block-signs-agree", lines["block-signs-agree"])
    rep.add("injective", len(set(images.values())) == len(images))
    rep.add("order-preserving", all(images[x] <= images[y] for x in images for y in images
                                    if cov_leq(x, y)))
    rep.add("covector-flats-into-spheres", lines["covector-flats-into-spheres"])
    rep.add("z2-equivariant", all(images[neg_signs(x)] == frozenset(map(swap_sign, face))
                                  for x, face in images.items()))
    homology = {}
    for g in lattice.flats:
        delta = delta_complex([x for x in covector_flat_oracle(cs, g) if any(x)])
        homology[g] = (reduced_homology(delta) == sphere_profile(lattice.corank(g) - 1)
                       and is_homology_sphere(fr.build(g), lattice.corank(g) - 1))
    rep.add("homology-ambient", homology[lattice.bottom])
    rep.add("homology-per-flat", all(homology.values()))
    return rep


def poset_by_leq(elements, leq):
    """The poset of an order given pair by pair: x <= y exactly when the
    down-set of x lies in that of y, so each element's down-set is its
    mask.  Reference for the mask order of ``Poset``."""
    elements = tuple(elements)
    below = [sum(1 << j for j, y in enumerate(elements) if leq(y, x)) for x in elements]
    if any(not mask >> i & 1 for i, mask in enumerate(below)):
        raise ValueError("order is not reflexive")
    return Poset(elements, below)


def delta_complex(covectors, n=None):
    """Order complex of covectors under the conformal order, compared pair
    by pair on sign-vector tuples: the covectors are tuples, or sign masks
    over n elements.  Oracle for ``Embedding.delta``."""
    def signs(x):
        return x if n is None else sign_vector(x, n)
    return order_complex(poset_by_leq(sorted(covectors), lambda x, y: cov_leq(signs(x), signs(y))))


def boolean_matroid(elements):
    """Boolean matroid: every subset is a flat."""
    els = [str(e) for e in elements]
    flats = [frozenset(c) for k in range(len(els) + 1) for c in combinations(els, k)]
    return GeometricLattice(els, flats, {f: len(f) for f in flats})


DATA = Path(__file__).parent / "data"


def data_matroids():
    """Every matroid file in tests/data that loads as a geometric lattice,
    by file stem."""
    out = {}
    for path in sorted(DATA.glob("*.json")):
        spec = json.loads(path.read_text())
        if isinstance(spec, dict) and "format" in spec:
            try:
                out[path.stem] = load_matroid(spec)
            except MatroidInputError:
                pass
    return out


FANO_COLUMNS = [
    [0, 0, 1],
    [0, 1, 0],
    [0, 1, 1],
    [1, 0, 0],
    [1, 0, 1],
    [1, 1, 0],
    [1, 1, 1],
]

N134_FLATS = [
    [],
    ["1"], ["2"], ["3"], ["4"],
    ["1", "2"], ["2", "3"], ["2", "4"], ["1", "3", "4"],
    ["1", "2", "3", "4"],
]


@pytest.fixture(scope="session")
def u24():
    return uniform_matroid(2, 4)


@pytest.fixture(scope="session")
def u34():
    return uniform_matroid(3, 4)


@pytest.fixture(scope="session")
def bool3():
    return boolean_matroid(["a", "b", "c"])


@pytest.fixture(scope="session")
def fano():
    return load_matroid({"format": "linear", "field": "GF", "p": 2, "columns": FANO_COLUMNS})


@pytest.fixture(scope="session")
def n134():
    return lattice_from_flats(["1", "2", "3", "4"], N134_FLATS)


@pytest.fixture(scope="session")
def u24_vec():
    return vector_config([[1, 0], [0, 1], [1, 1], [1, -1]])


@pytest.fixture(scope="session")
def u34_vec():
    return vector_config([[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]])


@pytest.fixture(scope="session")
def coord2_vec():
    return vector_config([[1, 0], [0, 1]])


@pytest.fixture(scope="session")
def coord3_vec():
    return vector_config([[1, 0, 0], [0, 1, 0], [0, 0, 1]])


@pytest.fixture(scope="session")
def n134_vec():
    # elements 1,3,4 coplanar: realizes the rank-3 weak-map target fixture
    return vector_config([[1, 0, 0], [0, 0, 1], [0, 1, 0], [1, 1, 0]])


@pytest.fixture(scope="session")
def nonfano_vec():
    return vector_config(
        [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 0], [1, 0, 1], [0, 1, 1], [1, 1, 1]]
    )


def poset_map_search_oracle(m, n, flag, max_assignments=10**7):
    """The search by recursion, one frame per source vertex, each source
    facet's image a set of labels tested against every facet of the target,
    both complexes read as ``FrozenComplex``.  Oracle for
    ``maps.poset_map_search``: the same verdict, map, obstructions and node
    count.  A source with about 1,000 signed vertices needs a recursion
    limit above the default."""
    if set(m.elements) != set(n.elements):
        raise MatroidInputError("search needs a shared ground set")
    try:
        flag_n = make_flag(n, flag.chain)
    except MatroidInputError as exc:
        return SearchResult(
            False, None, ((), (), f"flag is not a complete flag in the target: {exc}"),
            reason="flag-not-complete-in-target",
        )
    source = frozen(representation(m, make_flag(m, flag.chain)).build(m.bottom))
    target = frozen(representation(n, flag_n).build(n.bottom))
    coatoms, index = m.coatoms(), n.coatom_index
    candidates = {v: [2 * index[h] + (v & 1) for h in n.coat_above(n.closure(coatoms[v >> 1]))]
                  for v in source.vertices}
    order = list(source.vertices)
    incident = {v: [f for f in source.maximal_faces if v in f] for v in order}
    assignment = {}
    nodes = 0

    def consistent(v):
        for f in incident[v]:
            image = {assignment[u] for u in f if u in assignment}
            if not any(image <= t for t in target.maximal_faces):
                return False
        return True

    def backtrack(i):
        nonlocal nodes
        if i == len(order):
            return True
        v = order[i]
        for cand in candidates[v]:
            nodes += 1
            if nodes > max_assignments:
                raise SearchCapExceeded(f"assignment cap {max_assignments} exceeded")
            assignment[v] = cand
            if consistent(v) and backtrack(i + 1):
                return True
            del assignment[v]
        return False

    if backtrack(0):
        return SearchResult(True, dict(assignment), None, nodes=nodes)
    obstructions = []
    single_bad = {v for v in order if not candidates[v]}
    for v in sorted(single_bad):
        obstructions.append((frozenset({v}), (), "no admissible image vertex"))
    edges = {frozenset(e) for f in source.maximal_faces for e in combinations(f, 2)}
    for face in sorted(edges, key=source.face_key):
        u, v = sorted(face)
        if u in single_bad or v in single_bad:
            continue
        if all(not target.has_face({cu, cv}) for cu in candidates[u] for cv in candidates[v]):
            forced = ()
            if len(candidates[u]) == 1 and len(candidates[v]) == 1:
                forced = (candidates[u][0], candidates[v][0])
            obstructions.append((face, forced, "image vertices share no face"))
    reason = "exhaustive search found no admissible map"
    primary = obstructions[0] if obstructions else ((), (), reason)
    return SearchResult(False, None, primary, tuple(obstructions), nodes=nodes, reason=reason)
