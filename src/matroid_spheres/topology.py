"""Generic combinatorial topology: complexes, posets, nerves, exact homology.

Reduced integer homology is computed on the strong-collapse core of a
complex: dominated vertices are deleted, working on maximal faces only,
which is a strong deformation retraction (Barmak and Minian, 2012).  The
faces of the core then give boundary matrices, reduced by Smith normal form
over arbitrary-precision integers with unit pivots taken first (Dumas,
Saunders and Villard, 2001).  A homology sphere/point profile is the
computable certificate used in place of homotopy type throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import gcd
from typing import Callable, Hashable, Iterable, Mapping, Sequence

from .report import ValidationReport


def _generic_key(label):
    # best-effort total order for mixed hashable labels
    if isinstance(label, frozenset):
        return (2, tuple(sorted(_generic_key(x) for x in label)))
    if isinstance(label, tuple):
        return (1, tuple(_generic_key(x) for x in label))
    return (0, (type(label).__name__, label if isinstance(label, (int, str)) else repr(label)))


class SimplicialComplex:
    """Finite abstract simplicial complex stored by its maximal faces.

    Faces are frozensets of vertex labels.  The empty complex (no faces at
    all) is allowed and plays the role of the (-1)-sphere.  Instances are
    immutable; equality compares maximal face sets.
    """

    __slots__ = ("vertices", "maximal_faces", "_vpos")

    def __init__(self, maximal_faces: Iterable[Iterable], vertex_order: Sequence | None = None):
        faces = {frozenset(f) for f in maximal_faces}
        faces.discard(frozenset())
        maximal = frozenset(f for f in faces if not any(f < g for g in faces))
        self.maximal_faces: frozenset = maximal
        used = set().union(*maximal) if maximal else set()
        if vertex_order is not None:
            order = [v for v in vertex_order if v in used]
            if len(order) != len(used):
                order += sorted(used - set(order), key=_generic_key)
        else:
            order = sorted(used, key=_generic_key)
        self.vertices: tuple = tuple(order)
        self._vpos = {v: i for i, v in enumerate(self.vertices)}

    # -- basics ------------------------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, SimplicialComplex) and self.maximal_faces == other.maximal_faces

    def __hash__(self) -> int:
        return hash(self.maximal_faces)

    def __repr__(self) -> str:
        return f"SimplicialComplex({len(self.vertices)} vertices, {len(self.maximal_faces)} maximal faces)"

    @property
    def is_empty(self) -> bool:
        return not self.maximal_faces

    def has_face(self, face: Iterable) -> bool:
        f = frozenset(face)
        if not f:
            return True
        return any(f <= m for m in self.maximal_faces)

    def is_subcomplex_of(self, other: "SimplicialComplex") -> bool:
        return all(other.has_face(m) for m in self.maximal_faces)

    def intersection(self, other: "SimplicialComplex") -> "SimplicialComplex":
        """Complex of faces common to both (generated by pairwise meets)."""
        pieces = {a & b for a in self.maximal_faces for b in other.maximal_faces}
        return SimplicialComplex(pieces, vertex_order=self.vertices)

    def union(self, other: "SimplicialComplex") -> "SimplicialComplex":
        return SimplicialComplex(
            set(self.maximal_faces) | set(other.maximal_faces),
            vertex_order=list(self.vertices) + list(other.vertices),
        )

    def face_key(self, face: frozenset) -> tuple:
        return tuple(sorted(self._vpos[v] for v in face))

    def faces_sorted(self) -> list[frozenset]:
        """All nonempty faces in canonical (size, vertex-index) order."""
        return sorted(all_faces(self), key=lambda f: (len(f), self.face_key(f)))


def all_faces(complex_: SimplicialComplex) -> list[frozenset]:
    """Every nonempty face: all subsets of maximal faces, deduplicated."""
    seen: set[frozenset] = set()
    for m in complex_.maximal_faces:
        ms = sorted(m, key=complex_._vpos.__getitem__)
        for k in range(1, len(ms) + 1):
            for c in combinations(ms, k):
                seen.add(frozenset(c))
    return sorted(seen, key=lambda f: (len(f), complex_.face_key(f)))


def dimension(complex_: SimplicialComplex) -> int:
    if complex_.is_empty:
        return -1
    return max(len(m) for m in complex_.maximal_faces) - 1


def full_simplex(vertices: Iterable) -> SimplicialComplex:
    vs = list(vertices)
    return SimplicialComplex([vs] if vs else [])


def simplex_boundary(n: int) -> SimplicialComplex:
    """Boundary of the n-simplex on vertices 0..n (an (n-1)-sphere)."""
    return SimplicialComplex(combinations(range(n + 1), n))


def cross_polytope_boundary(d: int) -> SimplicialComplex:
    """Boundary of the d-dimensional cross-polytope; vertices (i, '+'/'-')."""
    faces = []
    for signs in _sign_tuples(d):
        faces.append([(i, s) for i, s in enumerate(signs)])
    return SimplicialComplex(faces)


def _sign_tuples(d: int):
    if d == 0:
        return [()]
    smaller = _sign_tuples(d - 1)
    return [t + (s,) for t in smaller for s in ("+", "-")]


# -- posets -------------------------------------------------------------------


class Poset:
    """Finite poset with the order stored as bitmask up-sets per element."""

    __slots__ = ("elements", "_pos", "_up")

    def __init__(self, elements: Sequence[Hashable], leq: Callable[[Hashable, Hashable], bool]):
        self.elements: tuple = tuple(elements)
        if len(set(self.elements)) != len(self.elements):
            raise ValueError("poset elements must be distinct")
        self._pos = {e: i for i, e in enumerate(self.elements)}
        n = len(self.elements)
        up = []
        for i, x in enumerate(self.elements):
            mask = 0
            for j, y in enumerate(self.elements):
                if leq(x, y):
                    mask |= 1 << j
            up.append(mask)
        for i in range(n):
            if not (up[i] >> i) & 1:
                raise ValueError("order is not reflexive")
            for j in range(n):
                if i != j and (up[i] >> j) & 1 and (up[j] >> i) & 1:
                    raise ValueError("order is not antisymmetric")
        self._up = tuple(up)

    def __len__(self) -> int:
        return len(self.elements)

    def leq(self, x, y) -> bool:
        return bool((self._up[self._pos[x]] >> self._pos[y]) & 1)

    def upper_set(self, x) -> list:
        m = self._up[self._pos[x]]
        return [self.elements[j] for j in range(len(self.elements)) if (m >> j) & 1]

    def subposet(self, subset: Iterable) -> "Poset":
        keep = [e for e in self.elements if e in set(subset)]
        return Poset(keep, self.leq)

    def covers(self) -> list[tuple]:
        out = []
        n = len(self.elements)
        for i in range(n):
            above = self._up[i] & ~(1 << i)
            for j in range(n):
                if (above >> j) & 1:
                    # j covers i iff nothing sits strictly between
                    between = above & (self._strict_down(j))
                    if between == 0:
                        out.append((self.elements[i], self.elements[j]))
        return out

    def _strict_down(self, j: int) -> int:
        mask = 0
        for i in range(len(self.elements)):
            if i != j and (self._up[i] >> j) & 1:
                mask |= 1 << i
        return mask

    def maximal_chains(self) -> list[tuple]:
        n = len(self.elements)
        children: list[list[int]] = [[] for _ in range(n)]
        indeg = [0] * n
        for a, b in self.covers():
            i, j = self._pos[a], self._pos[b]
            children[i].append(j)
            indeg[j] += 1
        chains: list[tuple] = []

        def grow(i: int, acc: list[int]) -> None:
            if not children[i]:
                chains.append(tuple(self.elements[k] for k in acc))
                return
            for j in children[i]:
                grow(j, acc + [j])

        for i in range(n):
            if indeg[i] == 0:
                grow(i, [i])
        return chains


def face_poset(complex_: SimplicialComplex) -> Poset:
    faces = complex_.faces_sorted()
    return Poset(faces, lambda a, b: a <= b)


def order_complex(poset: Poset) -> SimplicialComplex:
    """Complex of chains; maximal faces are the maximal chains."""
    chains = poset.maximal_chains()
    return SimplicialComplex([frozenset(c) for c in chains], vertex_order=poset.elements)


def barycentric_subdivision(complex_: SimplicialComplex) -> SimplicialComplex:
    if complex_.is_empty:
        return SimplicialComplex([])
    return order_complex(face_poset(complex_))


# -- homology -----------------------------------------------------------------


@dataclass(frozen=True)
class HomologyProfile:
    """Reduced integer homology: (betti, torsion coefficients) per dimension."""

    dims: tuple[tuple[int, tuple[int, ...]], ...]  # indexed by dimension

    def betti(self, d: int) -> int:
        return self.dims[d][0] if 0 <= d < len(self.dims) else 0

    def torsion(self, d: int) -> tuple[int, ...]:
        return self.dims[d][1] if 0 <= d < len(self.dims) else ()

    @property
    def max_dim(self) -> int:
        return len(self.dims) - 1

    def is_sphere(self, d: int) -> bool:
        if d == -1:
            return len(self.dims) == 0
        if len(self.dims) == 0:
            return False
        return all(
            (self.betti(k) == (1 if k == d else 0)) and not self.torsion(k)
            for k in range(max(len(self.dims), d + 1))
        )

    def is_trivial(self) -> bool:
        return all(b == 0 and not t for b, t in self.dims)

    def __eq__(self, other) -> bool:
        if not isinstance(other, HomologyProfile):
            return NotImplemented
        top = max(len(self.dims), len(other.dims))
        return all(
            self.betti(d) == other.betti(d) and self.torsion(d) == other.torsion(d)
            for d in range(top)
        )

    def __hash__(self) -> int:
        trimmed = list(self.dims)
        while trimmed and trimmed[-1] == (0, ()):
            trimmed.pop()
        return hash(tuple(trimmed))

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


def _boundary_entries(lower: list[frozenset], upper: list[frozenset], complex_: SimplicialComplex):
    index = {f: i for i, f in enumerate(lower)}
    entries: dict[tuple[int, int], int] = {}
    for j, face in enumerate(upper):
        verts = sorted(face, key=complex_._vpos.__getitem__)
        for k in range(len(verts)):
            sub = frozenset(verts[:k] + verts[k + 1 :])
            if sub:
                entries[(index[sub], j)] = 1 if k % 2 == 0 else -1
    return entries


def strong_collapse_core(complex_: SimplicialComplex) -> SimplicialComplex:
    """Delete dominated vertices until none is left.

    A vertex v is dominated (by w != v) when every maximal face containing v
    also contains w.  Deleting it is a strong deformation retraction, so the
    core has the homotopy type, and the homology, of the complex.  Works on
    maximal faces only, as vertex bitmasks.  Each round goes from the last
    vertex down and deletes every vertex with a dominator not yet deleted.
    That is a valid sequence of single deletions: domination is transitive,
    so each deleted vertex is dominated by one that stays, and it stays
    dominated by that vertex while others are deleted.  Of a group of
    mutually dominating vertices the earliest stays.  Returns the complex
    itself when nothing is dominated.
    """
    n = len(complex_.vertices)
    pos = complex_._vpos
    facets = [sum(1 << pos[v] for v in m) for m in complex_.maximal_faces]
    collapsed = False
    while True:
        star_meet = [-1] * n  # intersection of the maximal faces containing v
        for f in facets:
            bits = f
            while bits:
                low = bits & -bits
                star_meet[low.bit_length() - 1] &= f
                bits ^= low
        drop = 0
        for v in reversed(range(n)):
            bit = 1 << v
            if star_meet[v] != -1 and star_meet[v] & ~bit & ~drop:
                drop |= bit
        if not drop:
            break
        collapsed = True
        facets = _maximal_masks({f & ~drop for f in facets})
    if not collapsed:
        return complex_
    verts = complex_.vertices
    return SimplicialComplex(
        [[verts[i] for i in range(n) if f >> i & 1] for f in facets], vertex_order=verts
    )


def _maximal_masks(masks: set[int]) -> list[int]:
    out: list[int] = []
    for f in sorted(masks, key=int.bit_count, reverse=True):
        if not any(f & ~g == 0 for g in out):
            out.append(f)
    return out


# Distinct complexes whose homology is kept; callers such as
# verify_retraction ask for the same S_0 once per flag pair.
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
    """Reduced homology from Smith normal forms of boundary maps over every
    face of the complex; ``reduced_homology`` runs it on the core only."""
    if complex_.is_empty:
        return HomologyProfile(())
    by_dim: dict[int, list[frozenset]] = {}
    for f in all_faces(complex_):
        by_dim.setdefault(len(f) - 1, []).append(f)
    top = max(by_dim)
    for d in by_dim:
        by_dim[d].sort(key=complex_.face_key)

    factors: dict[int, list[int]] = {}  # invariant factors of boundary_d
    # boundary_0 is the augmentation map C_0 -> Z sending every vertex to 1
    factors[0] = smith_invariant_factors(
        {(0, j): 1 for j in range(len(by_dim[0]))}, 1, len(by_dim[0])
    )
    for d in range(1, top + 1):
        entries = _boundary_entries(by_dim[d - 1], by_dim[d], complex_)
        factors[d] = smith_invariant_factors(entries, len(by_dim[d - 1]), len(by_dim[d]))
    factors[top + 1] = []

    dims = []
    for d in range(top + 1):
        n_d = len(by_dim.get(d, []))
        rank_d = len(factors[d])
        rank_up = len(factors[d + 1])
        betti = n_d - rank_d - rank_up
        torsion = tuple(x for x in factors[d + 1] if x > 1)
        dims.append((betti, torsion))
    return HomologyProfile(tuple(dims))


def is_homology_sphere(complex_: SimplicialComplex, d: int) -> bool:
    """True if reduced homology matches the d-sphere (d = -1 means empty)."""
    if d == -1:
        return complex_.is_empty
    if complex_.is_empty:
        return False
    return reduced_homology(complex_).is_sphere(d)


def is_homology_point(complex_: SimplicialComplex) -> bool:
    """True if the complex is nonempty with vanishing reduced homology."""
    if complex_.is_empty:
        return False
    return reduced_homology(complex_).is_trivial()


# -- nerves and covers ----------------------------------------------------------


@dataclass(frozen=True)
class CoverFamily:
    """Indexed family of subcomplexes of one ambient complex."""

    ambient: SimplicialComplex
    members: tuple[tuple[Hashable, SimplicialComplex], ...]

    def indices(self) -> tuple:
        return tuple(k for k, _ in self.members)

    def covers_ambient(self) -> bool:
        union = SimplicialComplex(
            [m for _, member in self.members for m in member.maximal_faces],
            vertex_order=self.ambient.vertices,
        )
        return union == self.ambient


def _fold_intersection(complexes: Sequence[SimplicialComplex]) -> SimplicialComplex:
    acc = complexes[0]
    for c in complexes[1:]:
        acc = acc.intersection(c)
        if acc.is_empty:
            break
    return acc


def nerve(cover: CoverFamily, max_subset: int | None = None) -> SimplicialComplex:
    """Nerve of the cover: faces are index sets with nonempty intersection."""
    members = dict(cover.members)
    keys = list(members)
    if max_subset is None:
        max_subset = len(keys)
    if len(keys) > 20:
        raise ValueError("nerve enumeration is limited to 20 members")
    faces: list[frozenset] = []
    nonempty_prev: list[tuple] = [()]
    for size in range(1, max_subset + 1):
        cur: list[tuple] = []
        for base in nonempty_prev:
            start = keys.index(base[-1]) + 1 if base else 0
            for k in keys[start:]:
                subset = base + (k,)
                if not _fold_intersection([members[x] for x in subset]).is_empty:
                    cur.append(subset)
                    faces.append(frozenset(subset))
        if not cur:
            break
        nonempty_prev = cur
    return SimplicialComplex(faces, vertex_order=keys)


def cross_polytope_nerve_iso(
    complex_: SimplicialComplex,
    d: int,
    face_signs: Mapping[frozenset, tuple] | None = None,
) -> bool:
    """Does the nerve of the maximal faces match a d-cross-polytope's facets?

    The facets of the d-cross-polytope are indexed by {+,-}^d, and a facet
    subset intersects iff the componentwise meet of its sign vectors is
    nonzero.  With face_signs given, the stated bijection is checked exactly;
    without it, a bijection is searched for (small d only).
    """
    maximal = sorted(complex_.maximal_faces, key=complex_.face_key)
    if d == 0:
        return complex_.is_empty
    if complex_.is_empty or len(maximal) != 2 ** d:
        return False
    if len(maximal) > 16:
        raise ValueError("cross-polytope nerve check is limited to 16 maximal faces")
    all_signs = [tuple(s) for s in _sign_tuples(d)]

    def meets(vectors: Sequence[tuple]) -> bool:
        return any(len({v[i] for v in vectors}) == 1 for i in range(d))

    def pattern_matches(assign: Mapping[frozenset, tuple]) -> bool:
        for k in range(1, len(maximal) + 1):
            for subset in combinations(maximal, k):
                intersect = frozenset.intersection(*subset)
                if bool(intersect) != meets([assign[f] for f in subset]):
                    return False
        return True

    if face_signs is not None:
        assign = {frozenset(f): tuple(s) for f, s in face_signs.items()}
        if set(assign) != set(maximal) or sorted(assign.values()) != sorted(all_signs):
            return False
        return pattern_matches(assign)

    # search for a valid bijection, pruning on pairwise intersections
    assign: dict[frozenset, tuple] = {}

    def backtrack(i: int) -> bool:
        if i == len(maximal):
            return pattern_matches(assign)
        face = maximal[i]
        used = set(assign.values())
        for s in all_signs:
            if s in used:
                continue
            ok = all(
                bool(face & g) == meets([s, assign[g]]) for g in maximal[:i]
            )
            if ok:
                assign[face] = s
                if backtrack(i + 1):
                    return True
                del assign[face]
        return False

    return backtrack(0)


# -- map checks -----------------------------------------------------------------


def z2_free_check(complex_: SimplicialComplex, involution: Mapping) -> bool:
    """Check a vertex involution acts simplicially and freely.

    Freeness is the strong form: no face contains both a vertex and its
    image.  Raises ValueError if the map is not a simplicial involution.
    """
    for v in complex_.vertices:
        if v not in involution or involution[involution[v]] != v:
            raise ValueError("map is not an involution of the vertex set")
    for m in complex_.maximal_faces:
        if not complex_.has_face({involution[v] for v in m}):
            raise ValueError("involution is not simplicial")
    for m in complex_.maximal_faces:
        if any(involution[v] in m for v in m):
            return False
    return True


def simplicial_map_check(
    source: SimplicialComplex, target: SimplicialComplex, vertex_map: Mapping
) -> bool:
    """True iff the image of every face of the source is a face of the target."""
    return all(
        target.has_face({vertex_map[v] for v in m}) for m in source.maximal_faces
    )


def carrier_check(
    vertex_images: Mapping,
    a_cover: CoverFamily,
    b_cover: CoverFamily,
    subset_bound: int | None = None,
) -> ValidationReport:
    """Check the nerve-carrier hypotheses for a map between covered complexes.

    vertex_images sends each source vertex to a face of the target (an
    ordinary simplicial map is v -> {f(v)}).  Hypotheses: both families
    cover their ambient complexes; every nonempty intersection of members
    is a homology point; a subset of indices has nonempty intersection on
    one side iff it does on the other; the image of each A_i lies in B_i.
    Subset enumeration is complete when there are at most 16 members,
    otherwise bounded to pairs and triples (the bound is reported).
    """
    rep = ValidationReport()
    a_idx, b_idx = a_cover.indices(), b_cover.indices()
    if set(a_idx) != set(b_idx):
        raise ValueError("cover families must share an index set")
    rep.add("covering", a_cover.covers_ambient() and b_cover.covers_ambient())

    n = len(a_idx)
    if subset_bound is None:
        subset_bound = n if n <= 16 else 3
    rep.add("subset-bound", True, f"subsets up to size {subset_bound} of {n}")
    a_members = dict(a_cover.members)
    b_members = dict(b_cover.members)

    contractible = True
    equiv = True
    detail = ""
    for size in range(1, subset_bound + 1):
        for subset in combinations(sorted(a_idx, key=_generic_key), size):
            ia = _fold_intersection([a_members[k] for k in subset])
            ib = _fold_intersection([b_members[k] for k in subset])
            if ia.is_empty != ib.is_empty:
                equiv = False
                detail = f"nonemptiness differs on {list(subset)}"
            if not ia.is_empty and not is_homology_point(ia):
                contractible = False
                detail = f"A-intersection over {list(subset)} is not a homology point"
            if not ib.is_empty and not is_homology_point(ib):
                contractible = False
                detail = f"B-intersection over {list(subset)} is not a homology point"
    rep.add("intersections-contractible", contractible, detail if not contractible else "")
    rep.add("nonemptiness-equivalence", equiv, detail if not equiv else "")

    maps_into = True
    for k in a_idx:
        for m in a_members[k].maximal_faces:
            image = frozenset().union(*[frozenset(vertex_images[v]) for v in m])
            if not b_members[k].has_face(image):
                maps_into = False
    rep.add("maps-into-carrier", maps_into)
    return rep


def quillen_fibers_check(
    fmap: Mapping, source: Poset, target: Poset
) -> ValidationReport:
    """Check the fiber hypothesis of the poset-map homotopy criterion.

    For every q in the target, the preimage of the upper set at q must have
    a contractible order complex (certified by homology here).  Raises if
    fmap is not order-preserving.
    """
    for x in source.elements:
        for y in source.elements:
            if source.leq(x, y) and not target.leq(fmap[x], fmap[y]):
                raise ValueError("map is not order-preserving")
    rep = ValidationReport()
    for q in target.elements:
        upper = set(target.upper_set(q))
        fiber = [x for x in source.elements if fmap[x] in upper]
        if not fiber:
            rep.add(f"fiber@{q}", False, "empty preimage")
            continue
        ok = is_homology_point(order_complex(source.subposet(fiber)))
        rep.add(f"fiber@{q}", ok, "" if ok else "preimage is not a homology point")
    return rep


@dataclass(frozen=True)
class OrderHomotopyResult:
    image: Poset
    report: ValidationReport


def order_homotopy_image(poset: Poset, fmap: Mapping) -> OrderHomotopyResult:
    """Apply a lowering or raising self-map and compare homotopy invariants.

    The map must satisfy f(x) <= x for all x, or f(x) >= x for all x; it
    need not be order-preserving.  Returns the induced subposet on the
    image together with a report of which homology profiles agree.
    """
    lowering = all(poset.leq(fmap[x], x) for x in poset.elements)
    raising = all(poset.leq(x, fmap[x]) for x in poset.elements)
    if not (lowering or raising):
        raise ValueError("map is neither a lowering nor a raising homotopy")
    image = poset.subposet({fmap[x] for x in poset.elements})
    rep = ValidationReport()
    rep.add("kind", True, "lowering" if lowering else "raising")
    same = reduced_homology(order_complex(poset)) == reduced_homology(order_complex(image))
    rep.add("homology-preserved", same)
    return OrderHomotopyResult(image, rep)
