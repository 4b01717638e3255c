"""Generic combinatorial topology: complexes, posets, nerves, exact homology.

A flag's sphere complexes, and the change-of-flag cross-polytope, are
joins, certified on vertex masks in ``spheres``; ``cross_polytope_nerve_iso``,
a nerve-lemma comparison with a cross-polytope, is the tests' oracle for
that.  Reduced integer homology serves the covector order complexes of the
embedding check, the carrier intersections that no cheaper certificate
holds (below), and the ``homology`` command.  It is computed on the
strong-collapse core of a complex: dominated vertices are deleted, working
on maximal faces only, which is a strong deformation retraction (Barmak and
Minian, 2012).  The faces of the core are then swept by coreduction
(Mrozek and Batko, 2009): in FIFO order, a cell with one facet left is
removed with that facet.  Such a pair has a unit coefficient, so removing
it keeps the homology and leaves the boundary of the cells left
restricted to them, with no fill-in (Kaczynski, Mrozek and Slusarek,
1998).  Only the cells left go to Smith normal form over
arbitrary-precision integers; on a sphere that is one cell and no matrix.

A complex holds its faces as int masks over positions in its vertex tuple,
so restricting, intersecting and comparing are int operations; label faces
are built only at the JSON boundary (``label_masker`` makes masks of them).

A cover (``CoverFamily``) gives each member by its vertex mask over one
ambient's positions, standing for the induced subcomplex; induced
subcomplexes meet in the one induced on the AND of their masks, so
``carrier_check`` intersects masks and certifies each distinct
intersection once.  Where the cover carries the poset of its ambient, beat
points are removed until one element is left, a strong collapse of the
order complex (Stong, 1966; Barmak and Minian, 2012), so a homotopy
certificate; otherwise a set that is a face of the ambient induces a full
simplex.  Only an intersection that neither certifies has the ambient
restricted to it and its homology computed.
"""

from __future__ import annotations

from collections import deque
from functools import lru_cache, reduce
from itertools import groupby, product
from math import gcd
from operator import or_
from typing import Hashable, Iterable, Mapping, Sequence

from .report import Record, ValidationReport


def _generic_key(label):
    # best-effort total order for mixed hashable labels
    if isinstance(label, frozenset):
        return (2, tuple(sorted(_generic_key(x) for x in label)))
    if isinstance(label, tuple):
        return (1, tuple(_generic_key(x) for x in label))
    return (0, (type(label).__name__, label if isinstance(label, (int, str)) else repr(label)))


class SimplicialComplex:
    """Finite abstract simplicial complex stored by its maximal faces.

    A face is an int mask over positions in ``vertices``, a tuple of distinct
    labels; a position no face uses is allowed.  The empty complex is the
    (-1)-sphere.  Instances are immutable; equality compares faces as label
    sets, whatever the order of the vertex tuples.
    """

    __slots__ = ("vertices", "maximal_faces")

    def __init__(self, vertices: Sequence, maximal_faces: Iterable[int]):
        self.vertices: tuple = tuple(vertices)
        self.maximal_faces: frozenset[int] = frozenset(_maximal_masks(maximal_faces))

    # -- basics ------------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (isinstance(other, SimplicialComplex) and len(self.maximal_faces) == len(other.maximal_faces)
                and other.masks_on(self.vertices) == self.maximal_faces)

    def __hash__(self) -> int:
        return hash(frozenset(map(self.vertices.__getitem__, _bits(self.support))))

    def __repr__(self) -> str:
        return f"SimplicialComplex({self.support.bit_count()} vertices, {len(self.maximal_faces)} maximal faces)"

    @property
    def is_empty(self) -> bool:
        return not self.maximal_faces

    @property
    def support(self) -> int:
        """The positions some face uses, as a mask."""
        return reduce(or_, self.maximal_faces, 0)

    def masks_on(self, vertices: tuple) -> frozenset[int]:
        """The maximal faces as masks over another vertex tuple, by ``label_masker``."""
        if vertices == self.vertices:
            return self.maximal_faces
        mask = label_masker(vertices)
        return frozenset(mask(map(self.vertices.__getitem__, _bits(m))) for m in self.maximal_faces)

    def has_face(self, face: int) -> bool:
        # one hash lookup finds a maximal face before any scan
        return not face or face in self.maximal_faces or any(face & ~m == 0 for m in self.maximal_faces)

    def intersection(self, other: "SimplicialComplex") -> "SimplicialComplex":
        """Complex of faces common to both (generated by pairwise meets)."""
        theirs = other.masks_on(self.vertices)
        return SimplicialComplex(self.vertices, {a & b for a in self.maximal_faces for b in theirs})

    def restrict(self, keep: int) -> "SimplicialComplex":
        """Induced subcomplex: every face lying inside the position mask."""
        return SimplicialComplex(self.vertices, {m & keep for m in self.maximal_faces})


def label_masker(vertices: Sequence):
    """Labels to their mask over positions in the vertex tuple; each label not
    in it gets a bit of its own past the end, so masks compare as the sets do."""
    pos = {v: i for i, v in enumerate(vertices)}
    return lambda labels: reduce(or_, (1 << pos.setdefault(v, len(pos)) for v in labels), 0)


def all_faces(complex_: SimplicialComplex) -> list[int]:
    """Every nonempty face, by size then mask: all submasks of the maximal faces, deduplicated."""
    seen: set[int] = set()
    for m in complex_.maximal_faces:
        sub = m
        while sub:
            seen.add(sub)
            sub = sub - 1 & m
    return sorted(seen, key=lambda f: (f.bit_count(), f))


def dimension(complex_: SimplicialComplex) -> int:
    return max(map(int.bit_count, complex_.maximal_faces), default=0) - 1


def full_simplex(vertices: Iterable) -> SimplicialComplex:
    vs = tuple(vertices)
    return SimplicialComplex(vs, [(1 << len(vs)) - 1])


# -- posets -------------------------------------------------------------------


class Poset:
    """Finite poset, each element given an int bitmask so that x <= y
    exactly when the mask of x lies inside that of y.

    Elements are indexed by the size of their masks, a stable sort and a
    linear extension, and kept as bitmask up- and down-sets over those
    indices: bit j of ``up[i]`` when element i <= element j.  Both are read,
    with no pair compared, off the elements holding each mask bit: the
    elements above x hold every bit of x, those below x no bit outside it.
    """

    __slots__ = ("elements", "masks", "up", "down")

    def __init__(self, elements: Sequence[Hashable], masks: Sequence[int]):
        elements = tuple(elements)
        if len(set(elements)) != len(elements):
            raise ValueError("poset elements must be distinct")
        if len(set(masks)) != len(masks):
            raise ValueError("order is not antisymmetric")
        order = sorted(range(len(masks)), key=lambda i: masks[i].bit_count())
        self.elements: tuple = tuple(elements[i] for i in order)
        self.masks: tuple[int, ...] = tuple(masks[i] for i in order)
        holding: dict[int, int] = {}  # bit -> the elements (by index) holding it
        for j, mask in enumerate(self.masks):
            for b in _bits(mask):
                holding[b] = holding.get(b, 0) | 1 << j
        everything = (1 << len(masks)) - 1
        up, down = [], []
        for mask in self.masks:
            above, outside = everything, 0
            for b, held in holding.items():
                if mask >> b & 1:
                    above &= held
                else:
                    outside |= held
            up.append(above)
            down.append(everything & ~outside)
        self.up, self.down = tuple(up), tuple(down)

    def covers(self, i: int) -> int:
        """The elements covering element i, as a bitmask: the minimal
        elements of its strict up-set, those above no other element of it."""
        up = self.up
        strict = up[i] ^ 1 << i
        above = 0
        for k in _bits(strict):
            above |= up[k] ^ 1 << k
        return strict & ~above

    def cover_pairs(self) -> list[tuple]:
        """Every pair (x, y) with y covering x."""
        els = self.elements
        return [(x, els[j]) for i, x in enumerate(els) for j in _bits(self.covers(i))]

    def chain_indices(self) -> list[list[int]]:
        """Every maximal chain by element indices, grown from a minimal
        element through covers, each step in index order."""
        covers = [self.covers(i) for i in range(len(self.elements))]
        chains: list[list[int]] = []

        def grow(i: int, acc: list[int]) -> None:
            if not covers[i]:
                chains.append(acc)
            for j in _bits(covers[i]):
                grow(j, acc + [j])

        for i, below in enumerate(self.down):
            if below == 1 << i:
                grow(i, [i])
        return chains

    def mask_reduces_to_point(self, left: int) -> bool:
        """Does the subposet on the members, given as an index mask (bit i
        for element i, every bit an element's), reduce to one element by
        removing beat points?

        x is a beat point when the elements strictly above it have a least
        element, or those strictly below it a greatest one.  Removing it is
        a strong deformation retraction of the finite space (Stong, 1966)
        and a strong collapse of its order complex (Barmak and Minian,
        2012), so a True answer certifies that the order complex of the
        subposet is contractible.  By Stong, every order of removal ends in
        the same core up to isomorphism, so False means the core has more
        than one element; that complex may still be contractible, and the
        caller must decide it another way.

        Elements are tested from a worklist.  Removing x changes the strict
        up- or down-set only of the elements comparable to x, so only those
        are tested again, and once the list is empty what is left is the core.
        """
        up, down = self.up, self.down
        todo = left  # always inside left: only a tested element is removed
        while todo and left & (left - 1):  # two or more elements left
            bit = todo & -todo
            todo ^= bit
            i = bit.bit_length() - 1
            # indices follow a linear extension, so a least element is
            # the lowest index and a greatest one the highest
            above = up[i] & left ^ bit
            below = down[i] & left ^ bit
            if (above and above & ~up[(above & -above).bit_length() - 1] == 0) or (
                below and below & ~down[below.bit_length() - 1] == 0
            ):
                left ^= bit
                todo |= above | below
        return left != 0 and not left & (left - 1)


def _bits(mask: int) -> Iterable[int]:
    """Positions of the set bits, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def order_complex(poset: Poset) -> SimplicialComplex:
    """Complex of chains over the poset's positions; maximal faces are the maximal chains."""
    return SimplicialComplex(poset.elements, [sum(1 << i for i in c) for c in poset.chain_indices()])


# -- homology -----------------------------------------------------------------


class HomologyProfile(Record):
    """Reduced integer homology: (betti, torsion coefficients) per dimension."""

    __slots__ = ("dims",)
    def __init__(self, dims: tuple[tuple[int, tuple[int, ...]], ...]):  # indexed by dimension
        self._set(dims)

    def betti(self, d: int) -> int:
        return self.dims[d][0] if 0 <= d < len(self.dims) else 0

    def torsion(self, d: int) -> tuple[int, ...]:
        return self.dims[d][1] if 0 <= d < len(self.dims) else ()

    def is_trivial(self) -> bool:
        return all(b == 0 and not t for b, t in self.dims)

    def _values(self) -> tuple:
        """The dims up to the last nontrivial one: equality ignores trailing (0, ())."""
        dims = list(self.dims)
        while dims and dims[-1] == (0, ()):
            dims.pop()
        return tuple(dims)

    def to_json(self) -> dict:
        return {
            "dims": [
                {"d": d, "betti": b, "torsion": list(t)}
                for d, (b, t) in enumerate(self.dims)
            ]
        }


def sphere_profile(d: int) -> HomologyProfile:
    if d == -1:
        return HomologyProfile(())
    return HomologyProfile(tuple((1 if k == d else 0, ()) for k in range(d + 1)))


def smith_invariant_factors(entries: Mapping[tuple[int, int], int], nrows: int, ncols: int) -> list[int]:
    """Invariant factors (diagonal of Smith normal form) of a sparse integer matrix.

    entries maps (row, col) to a nonzero integer.  The first unit (+-1)
    entry is taken as the pivot, which needs no gcd steps; only when no unit
    is left is the pivot chosen with minimal absolute value, to keep
    intermediate entries small.  The collected diagonal is normalized into a
    divisibility chain at the end.
    """
    rows: dict[int, dict[int, int]] = {}
    cols: dict[int, set[int]] = {}
    for (i, j), v in entries.items():
        if v:
            rows.setdefault(i, {})[j] = v
            cols.setdefault(j, set()).add(i)

    def discard(i: int, j: int) -> None:
        r = rows.get(i)
        if r and j in r:
            del r[j]
            if not r:
                del rows[i]
            c = cols[j]
            c.discard(i)
            if not c:
                del cols[j]

    def put(i: int, j: int, v: int) -> None:
        if v == 0:
            discard(i, j)
        else:
            rows.setdefault(i, {})[j] = v
            cols.setdefault(j, set()).add(i)

    diagonal: list[int] = []
    while rows:
        unit = next(
            ((i, j) for i, r in rows.items() for j, v in r.items() if v == 1 or v == -1),
            None,
        )
        if unit is not None:
            pi, pj = unit
        else:
            # min-abs pivot, ties broken by sparsity then position for determinism
            pi, pj = min(
                ((i, j) for i, r in rows.items() for j in r),
                key=lambda ij: (abs(rows[ij[0]][ij[1]]), len(rows[ij[0]]) * len(cols[ij[1]]), ij),
            )
        while True:
            p = rows[pi][pj]
            off = next((i for i in cols[pj] if i != pi and rows[i][pj] % p != 0), None)
            if off is not None:
                q = rows[off][pj] // p
                for j, v in list(rows[pi].items()):
                    put(off, j, rows.get(off, {}).get(j, 0) - q * v)
                pi = off if abs(rows[off][pj]) < abs(p) else pi
                continue
            off = next((j for j in rows[pi] if j != pj and rows[pi][j] % p != 0), None)
            if off is not None:
                q = rows[pi][off] // p
                for i in list(cols[pj]):
                    put(i, off, rows.get(i, {}).get(off, 0) - q * rows[i][pj])
                pj = off if abs(rows[pi][off]) < abs(p) else pj
                continue
            break
        p = rows[pi][pj]
        # clear the pivot column, then the pivot row (all entries divisible)
        for i in list(cols[pj]):
            if i == pi:
                continue
            q = rows[i][pj] // p
            for j, v in list(rows[pi].items()):
                put(i, j, rows.get(i, {}).get(j, 0) - q * v)
        for j in list(rows[pi]):
            if j != pj:
                discard(pi, j)
        diagonal.append(abs(p))
        discard(pi, pj)

    # normalize into a divisibility chain d1 | d2 | ...
    changed = True
    while changed:
        changed = False
        for a in range(len(diagonal)):
            for b in range(a + 1, len(diagonal)):
                x, y = diagonal[a], diagonal[b]
                if y % x != 0:
                    g = gcd(x, y)
                    diagonal[a], diagonal[b] = g, x * y // g
                    changed = True
    return sorted(diagonal)


@lru_cache(maxsize=1)
def strong_collapse_core(complex_: SimplicialComplex) -> SimplicialComplex:
    """Delete dominated vertices until none is left.

    A vertex v is dominated (by w != v) when every maximal face containing v
    also contains w.  Deleting it is a strong deformation retraction, so the
    core has the homotopy type, and the homology, of the complex.  Works on
    maximal faces only.  Each round goes from the last
    vertex down and deletes every vertex with a dominator not yet deleted.
    That is a valid sequence of single deletions: domination is transitive,
    so each deleted vertex is dominated by one that stays, and it stays
    dominated by that vertex while others are deleted.  Of a group of
    mutually dominating vertices the earliest stays.  Returns the complex
    itself when nothing is dominated.  The last core is kept, so the
    ``homology`` command's face bound and ``reduced_homology`` of the same
    complex share one reduction.
    """
    n = len(complex_.vertices)
    facets = list(complex_.maximal_faces)
    collapsed = False
    while True:
        star_meet = [-1] * n  # intersection of the maximal faces containing v
        for f in facets:
            for v in _bits(f):
                star_meet[v] &= f
        drop = 0
        for v in reversed(range(n)):
            bit = 1 << v
            if star_meet[v] != -1 and star_meet[v] & ~bit & ~drop:
                drop |= bit
        if not drop:
            break
        collapsed = True
        facets = _maximal_masks({f & ~drop for f in facets})
    return SimplicialComplex(complex_.vertices, facets) if collapsed else complex_


def _maximal_masks(masks: Iterable[int]) -> list[int]:
    """The distinct nonzero masks inside no other.  A mask can lie only in a
    strictly larger one, so a pure family makes no comparison."""
    faces = set(masks) - {0}
    if len({f.bit_count() for f in faces}) < 2:
        return list(faces)
    out: list[int] = []
    for _, same_size in groupby(sorted(faces, key=int.bit_count, reverse=True), key=int.bit_count):
        out += [f for f in same_size if not any(f & ~g == 0 for g in out)]
    return out


# Distinct complexes whose homology is kept, and distinct (lattice, flag)
# pairs whose representation is kept (``spheres.representation``):
# verify_retraction asks for the same two representations over many flag pairs.
_HOMOLOGY_MEMO_SIZE = 256


@lru_cache(maxsize=_HOMOLOGY_MEMO_SIZE)
def reduced_homology(complex_: SimplicialComplex) -> HomologyProfile:
    """Reduced integer homology, computed on the strong-collapse core.

    The profile lists every dimension of the complex itself, up to
    ``dimension(complex_)``, with zero groups above the core's dimension.
    The empty complex gets the empty profile (all groups trivial in
    dimensions >= 0), matching the convention that it is a (-1)-sphere.
    Results are memoized per complex (instances are immutable).
    """
    dims = _face_homology(strong_collapse_core(complex_)).dims
    return HomologyProfile(dims + ((0, ()),) * (dimension(complex_) + 1 - len(dims)))


def _face_homology(complex_: SimplicialComplex) -> HomologyProfile:
    """Reduced homology of the augmented chain complex of every face, after
    a coreduction sweep; ``reduced_homology`` runs it on the core only.

    Faces are int masks over vertex positions, found below the maximal
    faces, with the empty face as the (-1)-cell.  The sweep removes the
    pair (empty face, first vertex), then, in FIFO order, each cell with
    one facet left, together with that facet: a reduction pair with a unit
    coefficient, so the homology is unchanged and the boundary of the
    cells left is the old one restricted to them, every entry +-1.  A cell
    is queued when its facets left fall to one, so the sweep ends with no
    such pair; on Delta(L_0) of U(5,6) it leaves one cell, where a LIFO
    stack stalls with tens of thousands.  Smith normal form sees only the
    cells left.
    """
    if complex_.is_empty:
        return HomologyProfile(())
    faces = sorted(complex_.maximal_faces)
    index = {f: i for i, f in enumerate(faces)}
    cofaces: list[list[int]] = [[] for _ in faces]
    for j, b in enumerate(faces):  # grows while it is read
        rest = b
        while rest:
            low = rest & -rest
            rest ^= low
            if (a := b ^ low) not in index:
                index[a] = len(faces)
                faces.append(a)
                cofaces.append([])
            cofaces[index[a]].append(j)
    left = [f.bit_count() for f in faces]  # facets not removed, for a cell not removed
    alive = bytearray(b"\1") * len(faces)
    support = complex_.support
    queue = deque([index[support & -support]])  # the first vertex, whose one facet is the empty face
    while queue:
        b = queue.popleft()
        if alive[b] and left[b] == 1:
            f = faces[b]
            for cell in (b, next(a for a in (index[f ^ 1 << i] for i in _bits(f)) if alive[a])):
                alive[cell] = 0
                for c in cofaces[cell]:
                    left[c] -= 1
                    if left[c] == 1:
                        queue.append(c)

    top = dimension(complex_)
    kept = sorted(f for f, on in zip(faces, alive) if on)
    cells = [[f for f in kept if f.bit_count() == d + 1] for d in range(top + 2)]  # by dimension
    ranks, torsion = [0] * (top + 2), [()] * (top + 2)  # of the boundary from dimension d
    for d in range(1, top + 1):
        rows = {f: i for i, f in enumerate(cells[d - 1])}
        entries = {(rows[b ^ 1 << i], j): (-1) ** (b & ((1 << i) - 1)).bit_count()
                   for j, b in enumerate(cells[d]) for i in _bits(b) if b ^ 1 << i in rows}
        if entries:
            factors = smith_invariant_factors(entries, len(rows), len(cells[d]))
            ranks[d], torsion[d] = len(factors), tuple(x for x in factors if x > 1)
    return HomologyProfile(tuple(
        (len(cells[d]) - ranks[d] - ranks[d + 1], torsion[d + 1]) for d in range(top + 1)
    ))


def is_homology_point(complex_: SimplicialComplex) -> bool:
    """True if the complex is nonempty with vanishing reduced homology."""
    if complex_.is_empty:
        return False
    return reduced_homology(complex_).is_trivial()


# -- nerves and covers ----------------------------------------------------------


class CoverFamily(Record):
    """Indexed family of induced subcomplexes of one ambient complex.

    Each member is given by an int mask over the ambient's positions and
    stands for the ambient restricted to it.  A poset, when given, is one
    whose order complex is the ambient, held on the poset's positions
    (``order_complex(poset)``): a mask is then a set of the poset's
    elements, and the complex induced on it is the order complex of that
    subposet.
    """

    __slots__ = ("ambient", "members", "poset")
    def __init__(self, ambient: SimplicialComplex,
                 members: tuple[tuple[Hashable, int], ...], poset: Poset | None = None):
        self._set(ambient, members, poset)


def _vertex_stars(vertex_sets: Iterable[int]) -> set[int]:
    """For each vertex, the bitmask of the vertex masks (by position) that hold it.

    A family of the sets has a nonempty intersection exactly when it lies
    inside one of these stars, so their down-closure is the nerve.
    """
    stars: dict = {}
    for i, vs in enumerate(vertex_sets):
        for v in _bits(vs):
            stars[v] = stars.get(v, 0) | 1 << i
    return set(stars.values())


def cross_polytope_nerve_iso(
    complex_: SimplicialComplex, d: int, face_signs: Mapping[frozenset, tuple]
) -> bool:
    """Does face_signs carry the nerve of the maximal faces onto the nerve
    of a d-cross-polytope's facets?

    The facets of the d-cross-polytope are indexed by {+,-}^d, and a facet
    subset intersects iff the componentwise meet of its sign vectors is
    nonzero.  Both nerves are down-closed families generated by their
    maximal members (Dowker): the maximal vertex stars {facets containing v}
    on one side, the 2d half-spaces {sigma : sigma_i = c} on the other.  So
    the nerves agree on every facet subset exactly when these two sets of
    maximal members are equal, which costs O(V * 2^d).
    """
    maximal = sorted(complex_.maximal_faces)
    if d == 0:
        return complex_.is_empty
    if complex_.is_empty or len(maximal) != 2 ** d:
        return False
    tops = set(_maximal_masks(_vertex_stars(maximal)))
    mask = label_masker(complex_.vertices)
    assign = {mask(f): tuple(s) for f, s in face_signs.items()}
    if set(assign) != set(maximal) or sorted(assign.values()) != sorted(product("+-", repeat=d)):
        return False
    return tops == {
        sum(1 << j for j, f in enumerate(maximal) if assign[f][i] == c)
        for i in range(d)
        for c in ("+", "-")
    }


# -- map checks -----------------------------------------------------------------


def _intersections(members: Sequence[int]) -> dict[int, int]:
    """Each distinct nonempty intersection of the member vertex masks, with
    the index bitmask of one family of members meeting in it.

    Found by intersecting each intersection already found with one more
    member, so every intersection is built from a found one and none is
    missed, whatever the number of members.
    """
    found: dict[int, int] = {}
    for i, m in enumerate(members):
        if m:
            found.setdefault(m, 1 << i)
    queue = list(found)
    for x in queue:  # grows while it is read
        for i, m in enumerate(members):
            y = x & m
            if y and y not in found:
                found[y] = found[x] | 1 << i
                queue.append(y)
    return found


def carrier_check(
    vertex_images: Mapping,
    a_cover: CoverFamily,
    b_cover: CoverFamily,
) -> ValidationReport:
    """Check the nerve-carrier hypotheses for a map between covered complexes.

    vertex_images sends each vertex of the A ambient to a face of the B
    ambient, a mask over its positions (an ordinary simplicial map sends v
    to the bit of f(v)); members are masks, as ``CoverFamily`` holds them.
    Hypotheses: both families cover their ambient complexes; every
    nonempty intersection of members is a homology point; a subset of
    indices has nonempty intersection on one side iff it does on the
    other; the image of each A_i lies in B_i.  Every index subset is
    covered, for any number of members, without enumerating subsets: the
    two nerves agree exactly when their maximal vertex stars agree
    (Dowker), and each distinct nonempty intersection is found once, as an
    AND of member masks, and tested once.  Its induced subcomplex is
    certified contractible by beat points where the cover carries its
    poset, or is a full simplex where the set is a face of the ambient;
    only where neither holds is the ambient restricted to the set and its
    homology computed.  A failed check names an index subset on which it
    fails.
    """
    rep = ValidationReport()
    a_map, b_map = dict(a_cover.members), dict(b_cover.members)
    if set(a_map) != set(b_map):
        raise ValueError("cover families must share an index set")
    a_amb, b_amb = a_cover.ambient, b_cover.ambient
    keys = sorted(a_map, key=_generic_key)
    a_sets, b_sets = [a_map[k] for k in keys], [b_map[k] for k in keys]
    rep.add("covering", all(any(m & ~s == 0 for s in sets) for amb, sets in ((a_amb, a_sets), (b_amb, b_sets))
                            for m in amb.maximal_faces))

    def subset(mask: int) -> list:
        return [keys[i] for i in _bits(mask)]

    covers = {"A": a_cover, "B": b_cover}

    def contractible(side: str, x: int) -> bool:  # asked once per (side, x)
        cover = covers[side]
        amb, poset = cover.ambient, cover.poset
        if poset is not None:  # a bit past the ambient's is no element; the rest are the poset's indices
            certified = not x >> len(amb.vertices) and poset.mask_reduces_to_point(x)
        else:
            certified = amb.has_face(x)
        return certified or is_homology_point(amb.restrict(x))

    detail = next(
        (f"{side}-intersection over {subset(w)} is not a homology point"
         for side, sets in (("A", a_sets), ("B", b_sets))
         for x, w in _intersections(sets).items() if not contractible(side, x)),
        "",
    )
    rep.add("intersections-contractible", not detail, detail)

    tops_a = _maximal_masks(_vertex_stars(a_sets))
    tops_b = _maximal_masks(_vertex_stars(b_sets))
    differ = [
        m
        for tops, other in ((tops_a, tops_b), (tops_b, tops_a))
        for m in sorted(tops)
        if not any(m & ~t == 0 for t in other)
    ]
    rep.add(
        "nonemptiness-equivalence",
        not differ,
        f"nonemptiness differs on {subset(differ[0])}" if differ else "",
    )

    # a face is in the B-member when it is in its vertex set and the ambient;
    # each maximal face of an A-member is M & a for a maximal face M of the
    # ambient, and the test is closed under subsets, so M & a stands for it;
    # where b is a face, so is each subset, and the image of a stands for all
    on_a, held = (1 << len(a_amb.vertices)) - 1, reduce(or_, a_sets, 0)
    image_of = [vertex_images[v] if held >> i & 1 else 0 for i, v in enumerate(a_amb.vertices)]

    def images(a: int, b: int) -> set:
        faces = [a & on_a] if b_amb.has_face(b) else {m & a for m in a_amb.maximal_faces}
        return {reduce(or_, map(image_of.__getitem__, _bits(x)), 0) for x in faces}

    maps_into = all(image & ~b == 0 and b_amb.has_face(image)
                    for a, b in zip(a_sets, b_sets) for image in images(a, b))
    rep.add("maps-into-carrier", maps_into)
    return rep
