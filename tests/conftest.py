from itertools import combinations, product

import pytest

from matroid_spheres import (
    GeometricLattice,
    Poset,
    SimplicialComplex,
    lattice_from_flats,
    load_matroid,
    order_complex,
    reduced_homology,
    sphere_profile,
    uniform_matroid,
    vector_config,
)


# -- fixture builders ------------------------------------------------------------


def simplex_boundary(n):
    """Boundary of the n-simplex on vertices 0..n (an (n-1)-sphere)."""
    return SimplicialComplex(combinations(range(n + 1), n))


def cross_polytope_boundary(d):
    """Boundary of the d-dimensional cross-polytope; vertices (i, '+'/'-')."""
    return SimplicialComplex(
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


def cov_leq(x, y):
    """Conformal order on sign-vector tuples: every nonzero coordinate of x
    agrees with y.  Oracle for the sign-mask order."""
    return all(a == 0 or a == b for a, b in zip(x, y))


def delta_complex(covectors):
    """Order complex of sign-vector tuples under the conformal order,
    compared pair by pair.  Oracle for ``Embedding.delta``."""
    return order_complex(Poset(sorted(covectors), cov_leq))


def boolean_matroid(elements):
    """Boolean matroid: every subset is a flat."""
    els = [str(e) for e in elements]
    flats = [frozenset(c) for k in range(len(els) + 1) for c in combinations(els, k)]
    return GeometricLattice(els, flats, {f: len(f) for f in flats})


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
