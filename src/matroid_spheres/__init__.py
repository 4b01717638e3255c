"""Sphere representations of matroids.

Build the lattice of flats of a matroid, fix a complete flag, and construct
the family of simplicial complexes representing every flat, together with
exact combinatorial certificates: spheres by the join argument (S_bottom is
a join of two opposite-signed simplices per coatom block, and a join of k
spaces ~ S^0 is ~ S^{k-1}), reduced integer homology, the intersection law,
recovery of the matroid from the arrangement, the covector-poset embedding
for realizable oriented matroids, change-of-flag retractions, weak maps
(ranks compared on the flats of the source) and the obstruction to a weak
map's induced sphere map.

Every name exported here is reached by a command-line command or by the
acceptance suite; test fixtures such as simplex and cross-polytope
boundaries live with the tests.
"""

from .lattice import (
    Flag,
    GeometricLattice,
    MatroidInputError,
    all_complete_flags,
    default_flag,
    lattice_from_flats,
    linear_matroid,
    load_matroid,
    make_flag,
    uniform_matroid,
    verify_geometric,
)
from .maps import (
    WeakMapReport,
    is_weak_map_matroid,
    poset_map_search,
    retraction_map,
    select_cross_coatoms,
    verify_retraction,
)
from .oriented import (
    CovectorSet,
    Embedding,
    VectorConfig,
    build_covers,
    build_embedding,
    cocircuits_from_vectors,
    covector_flat,
    covector_span,
    covectors_from_vectors,
    pivots_check,
    vector_config,
    verify_embedding,
)
from .report import ValidationReport
from .spheres import (
    FlagRepresentation,
    HomotopyArrangement,
    arrangement_flats,
    representation,
    roundtrip_isomorphic,
    verify_arrangement,
)
from .topology import (
    CoverFamily,
    HomologyProfile,
    Poset,
    SimplicialComplex,
    carrier_check,
    dimension,
    is_homology_point,
    order_complex,
    reduced_homology,
    sphere_profile,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
