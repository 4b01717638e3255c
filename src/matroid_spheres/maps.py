"""Change-of-flag retractions and weak-map comparisons.

Two flags on the same matroid induce different sphere complexes on the same
vertex set; a cross-polytope shared by both supports a simplicial homotopy
equivalence between them.  Its coatoms are read off the two flags' block
masks: each F-block takes the highest G-block whose + half meets its own
(an AND of two ints), and the lowest bit they share, the first coatom of
both in key order, kept as its position k.  A retraction is held as that
selection and the two representations alone: the map is its formula, each
signed vertex going to its half's selected vertex through ``slot``, and
the cross-polytope is the join of the selected coatoms' sign pairs, so
neither is built.  Each complex is certified a sphere by the join test of
``spheres``, with no homology, and the face lines are read off the
selected coatoms, with no image set built.

Weak maps are decided by comparing ranks on the flats of the source, and
the representation-level obstruction is found by exhaustive search over
sign-preserving vertex assignments.
"""

from __future__ import annotations

from collections.abc import Mapping
from functools import reduce
from itertools import combinations
from operator import or_

from .lattice import Flag, GeometricLattice, MatroidInputError, make_flag
from .report import CheckResult, Record, ValidationReport
from .spheres import FlagRepresentation, representation


class SelectionError(RuntimeError):
    """The representations are of two lattices, or an F-block meets no G-block or
    shares its highest with another, which two flags of one geometric lattice never give."""


class CrossSelection(Record):
    """Coatoms C_0..C_{r-1}, one per block of the first flag's partition,
    landing in pairwise distinct blocks of the second flag's partition.
    Each C_i is held as its position k in ``lattice.coatoms()``, so its
    signed vertices are 2k and 2k + 1."""

    __slots__ = ("coatoms", "g_parts")  # C_i is taken from F-block i
    def __init__(self, coatoms: tuple[int, ...], g_parts: tuple[int, ...]):
        self._set(coatoms, g_parts)

    def distinct(self) -> bool:
        return len(set(self.g_parts)) == len(self.g_parts)


def select_cross_coatoms(rep_f: FlagRepresentation, rep_g: FlagRepresentation) -> CrossSelection:
    """Pick one coatom per F-block so the G-blocks are also all distinct.

    Blocks of the two partitions form a bipartite graph with an edge where
    blocks share a coatom; the required selection is a perfect matching in
    that graph, and it is forced: F-block i is matched to the highest
    G-block it meets.  Let c lie in A_i n B_j.  Then F_i v G_j <= c and
    F_{i+1} is not below c, so F_{i+1} is not below F_i v G_j.  Hence
    j <= pi(i) := max{j : F_{i+1} not below F_i v G_j}, a set of j that
    is down-closed, because G_j grows with j.  pi is the Jordan-Hoelder
    permutation of the two flags, a bijection in a semimodular lattice.
    So every perfect matching mu has mu(i) <= pi(i) for every i; both are
    permutations, so their sums agree and mu = pi.  The matching is
    unique, and since mu(i) is an edge, pi(i) is the highest G-block that
    F-block i meets.  On any graph, if the highest neighbours are
    distinct, the same sum argument makes them its only perfect matching,
    so whenever this returns, no search could return anything else.

    Blocks meet where their + ``halves`` AND to nonzero, so the highest G-block
    is a scan of ANDs down to block 0.  Coatom k's + vertex is bit 2k, so
    the lowest bit of the AND is the first coatom the two blocks share, in
    key order: the one selected, kept as its position k.
    """
    lattice = rep_f.lattice
    if rep_g.lattice is not lattice and rep_g.lattice.coatoms() != lattice.coatoms():
        raise SelectionError("no cross-coatom selection: the representations are of different lattices")
    g_plus, chosen, picked = [p for p, _ in rep_g.halves], [], []
    for p, _ in rep_f.halves:
        for j in range(len(g_plus) - 1, -1, -1):
            shared = p & g_plus[j]
            if shared:
                break
        else:
            raise SelectionError("no cross-coatom selection: an F-block meets no G-block")
        chosen.append(j)
        picked.append((shared & -shared).bit_length() >> 1)
    if len(set(chosen)) != len(chosen):
        raise SelectionError("no cross-coatom selection: two F-blocks share their highest G-block")
    return CrossSelection(tuple(picked), tuple(chosen))


class RetractDescriptor(Record):
    """Vertex collapse of one sphere complex onto a cross-polytope shared
    with the other flag's complex, held as the selection and the two
    representations alone.  The map is the formula: signed vertex v, in
    half slot[v] = 2i + s of the source, goes to 2 * coatoms[i] + s, the
    selected coatom C_i with v's sign.  The polytope is the join of the
    selected coatoms' sign pairs {2k}, {2k + 1}."""

    __slots__ = ("selection", "source", "target")
    def __init__(self, selection: CrossSelection, source: FlagRepresentation, target: FlagRepresentation):
        self._set(selection, source, target)


def retraction_map(lattice: GeometricLattice, flag_f: Flag, flag_g: Flag) -> RetractDescriptor:
    """Send every signed coatom in block i onto the selected coatom C_i, sign
    kept: the descriptor of the selection and the two representations."""
    rep_f = representation(lattice, flag_f)
    rep_g = representation(lattice, flag_g)
    return RetractDescriptor(select_cross_coatoms(rep_f, rep_g), rep_f, rep_g)


# each line's FAIL and PASS record, shared by every report as records are frozen
# (nine built per pair took about a third of a B_4 pair's certificate)
_LINES = tuple((CheckResult(name, False), CheckResult(name, True)) for name in (
    "selection-distinct polytope-in-source polytope-in-target simplicial idempotent "
    "composite-simplicial source-sphere target-sphere polytope-sphere").split())
# each verdict tuple's records, built once: every verdict is a bool, so at most 2^9
_RECORDS: dict[tuple[bool, ...], tuple[CheckResult, ...]] = {}


def verify_retraction(desc: RetractDescriptor) -> ValidationReport:
    """Certify the retraction: simplicial, idempotent onto the shared
    cross-polytope, and a homotopy sphere on both sides.

    Every line is read off the selection and the two representations.  The
    sphere lines read the join certificate, as ``verify`` does: each S_0,
    as built, must be the join of its r nonempty blocks' simplices
    (``join_holds``, so ~ S^{r-1}), and the polytope, the join of the sign
    pairs of the selected coatoms, is the r-cross-polytope when the
    selection holds r distinct coatoms (positions 0 <= k < |coatoms|).
    Such a polytope holds every sign choice, so it lies in S_0 exactly when
    each of the r blocks meets one coatom of C (``apart``, r ANDs on its
    all-+ facet, the sum of the C+ bits).

    Lemma: let the selection hold r distinct coatoms C_i at positions k_i,
    and S_0 be the join on the source's 2|coatoms| positions.  The map
    sends v in half slot[v] = 2i + s to 2k_i + s; as every half is
    nonempty, block i's image halves are {C_i+}, {C_i-}.  A facet of S_0 is
    one half per block, so the images of the facets are exactly the
    polytope's: ``simplicial`` holds, ``composite-simplicial`` is
    ``polytope-in-target``, and as the map's images are the 2r signed
    vertices of C, ``idempotent`` asks that it fix those.  It sends
    2k_i + s to 2k_j + t, where slot[2k_i + s] = 2j + t, and with the k_i
    distinct that is 2k_i + s exactly when j = i and t = s: ``idempotent``
    is slot[2k_i + s] == 2i + s for every i and both signs s, 2r reads
    (slot[2k_i] >> 1 == i alone would pass a - vertex held in its block's
    + half).  At r = 0 the lemma holds vacuously: no coatom is selected,
    and S_0 and the polytope are the join of no blocks.

    A descriptor that breaks the lemma's preconditions fails the lines the
    lemma would prove.  A selection that repeats a coatom, misses one or
    holds a position of no coatom fails ``polytope-sphere`` and every line
    read off it, and an S_0 that is not the join fails its sphere line and
    the face lines read on it.  Such a descriptor is not refused and raises
    nothing: its report fails like any other.
    Each verdict tuple's records are memoized, so every report gets its own
    list of the shared records.
    """
    source, target, chosen = desc.source, desc.target, desc.selection.coatoms
    r, slot = source.r, source.slot
    # r distinct coatoms: r distinct positions, none outside 0 .. |coatoms| - 1
    polytope_ok = (len(chosen) == r == len(set(chosen))
                   and (not r or 0 <= min(chosen) and 2 * max(chosen) < len(slot)))
    plus = sum(1 << 2 * k for k in chosen) if polytope_ok else 0  # the all-+ facet
    in_source = polytope_ok and source.apart(plus)
    in_target = polytope_ok and target.apart(plus)
    simplicial = polytope_ok and source.join_holds  # the lemma
    idempotent = polytope_ok and all(slot[2 * k] == 2 * i and slot[2 * k + 1] == 2 * i + 1
                                     for i, k in enumerate(chosen))
    verdicts = (desc.selection.distinct(), in_source, in_target, simplicial, idempotent,
                simplicial and in_target, source.join_holds, target.join_holds, polytope_ok)
    records = _RECORDS.get(verdicts)
    if records is None:
        records = _RECORDS[verdicts] = tuple(map(tuple.__getitem__, _LINES, verdicts))
    return ValidationReport(list(records))  # its own list: the CLI adds a line to it


# -- weak maps -----------------------------------------------------------------


class WeakMapReport(Record):
    __slots__ = ("verdict", "witnesses")
    def __init__(self, verdict: bool, witnesses: tuple = ()):
        self._set(verdict, witnesses)


def is_weak_map_matroid(m: GeometricLattice, n: GeometricLattice) -> WeakMapReport:
    """Is the identity a weak map M -> N: rank_N(A) <= rank_M(A) for every
    subset A of the shared ground set?

    Checking the flats F of M is enough: for any A,
    rank_N(A) <= rank_N(cl_M A) <= rank_M(cl_M A) = rank_M(A), since rank
    is monotone and cl_M A is a flat of M.  The witnesses are the flats of
    M on which the rank goes up, in M's canonical flat order (by size, then
    ground order), each as a tuple in ground order.
    """
    if set(m.elements) != set(n.elements):
        raise MatroidInputError("weak map comparison needs a shared ground set")
    witnesses = tuple(
        m.sorted_elements(f) for f in m.flats if m.rank(f) < n.rank_of_subset(f)
    )
    return WeakMapReport(not witnesses, witnesses)


# -- the representation-level obstruction ---------------------------------------


class SearchResult(Record):
    __slots__ = ("found", "vertex_map", "obstruction", "obstructions", "nodes", "reason")
    def __init__(self, found: bool, vertex_map: Mapping[int, int] | None,
                 obstruction: tuple | None,  # (face, forced images, reason)
                 obstructions: tuple = (), nodes: int = 0, reason: str = ""):
        self._set(found, vertex_map, obstruction, obstructions, nodes, reason)


class SearchCapExceeded(RuntimeError):
    pass


def poset_map_search(
    m: GeometricLattice,
    n: GeometricLattice,
    flag: Flag,
    max_assignments: int = 10**7,
) -> SearchResult:
    """Search for a sign-preserving simplicial map between representations.

    Each source vertex C_eps (C a coatom of m) may go to H_eps for a coatom
    H of n containing the n-closure of C; the map must send every face of
    the source complex to a face of the target complex.  Returns the map
    when one exists, otherwise the inclusion-minimal obstructed faces in
    canonical order.

    The search backtracks from an explicit stack, so no recursion limit
    bounds it, and holds each source facet's image as a vertex mask.  On a
    target that is the join (``join_holds``) an image is a face when no
    block holds both signs (``is_face``, r ANDs), else a facet holds it.
    """
    if set(m.elements) != set(n.elements):
        raise MatroidInputError("search needs a shared ground set")
    try:
        flag_n = make_flag(n, flag.chain)
    except MatroidInputError as exc:
        return SearchResult(
            False, None, ((), (), f"flag is not a complete flag in the target: {exc}"),
            reason="flag-not-complete-in-target",
        )
    rep_m = representation(m, make_flag(m, flag.chain))
    rep_n = representation(n, flag_n)
    # both complexes as held, their facets as signed-vertex masks
    facets = sorted(rep_m.build(m.bottom).masks_on(rep_m.vertices))
    targets = rep_n.build(n.bottom).masks_on(rep_n.vertices)  # scanned only off the join
    is_face = rep_n.is_face if rep_n.join_holds else lambda image: any(image & ~t == 0 for t in targets)

    coatoms, index = m.coatoms(), n.coatom_index  # v is 2k + sign, with coatom k of m
    every = reduce(or_, facets, 0)
    order = [v for v in rep_m.vertices if every >> v & 1]  # ints, in key order
    candidates = {v: [2 * index[h] + (v & 1) for h in n.coat_above(n.closure(coatoms[v >> 1]))]
                  for v in order}
    incident = {v: [j for j, f in enumerate(facets) if f >> v & 1] for v in order}

    # backtrack from an explicit stack: tried[i] candidates of order[i] are
    # spent, and images[i] holds each facet's image under order[:i]'s assignment
    images, assignment = [[0] * len(facets)], {}
    tried, nodes, i = [0] * len(order), 0, 0
    while 0 <= i < len(order):
        v = order[i]
        if tried[i] < len(candidates[v]):
            cand = candidates[v][tried[i]]
            tried[i], nodes = tried[i] + 1, nodes + 1
            if nodes > max_assignments:
                raise SearchCapExceeded(f"assignment cap {max_assignments} exceeded")
            if all(is_face(images[i][j] | 1 << cand) for j in incident[v]):
                grown = images[i][:]
                for j in incident[v]:
                    grown[j] |= 1 << cand
                del images[i + 1:]
                images.append(grown)
                assignment[v], i = cand, i + 1
            continue
        tried[i], i = 0, i - 1  # every candidate spent: take back the vertex before
        if i >= 0:
            del assignment[order[i]]
    if i == len(order):
        return SearchResult(True, assignment, None, nodes=nodes)

    # minimal obstructed faces: every candidate-consistent image fails
    single_bad = {v for v in order if not candidates[v]}
    obstructions = [(frozenset({v}), (), "no admissible image vertex") for v in sorted(single_bad)]
    edges = {e for f in facets for e in combinations([v for v in order if f >> v & 1], 2)}  # (u, v), u < v
    for u, v in sorted(edges):
        if u in single_bad or v in single_bad:
            continue
        if not any(is_face(1 << cu | 1 << cv) for cu in candidates[u] for cv in candidates[v]):
            forced = (candidates[u][0], candidates[v][0]) if len(candidates[u]) == len(candidates[v]) == 1 else ()
            obstructions.append((frozenset({u, v}), forced, "image vertices share no face"))
    reason = "exhaustive search found no admissible map"
    primary = obstructions[0] if obstructions else ((), (), reason)
    return SearchResult(False, None, primary, tuple(obstructions), nodes=nodes, reason=reason)
