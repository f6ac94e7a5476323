import numpy as np
import pytest

from fthub import trotterbounds
from fthub.lattice import build_hex_fragment, build_periodic_hex, ring_lattice, single_hexagon
from fthub.tiling import cover_hex_fragment, cover_periodic_hex
from fthub.trotterbounds import ModelParams

# dense N x N references: the package builds no N x N coupling matrix on its
# own paths, so the tests build them here


def star_matrix(lattice, i, exclude=None):
    """N x N 0/1 coupling whose only nonzero block is the hopping star at
    site i.

    With ``exclude`` given (must be a neighbor of i), the bond i-exclude is
    dropped, leaving the (k-1)-edge star of the neighbor-interaction
    commutator bound.
    """
    n = lattice.n_sites
    if not 0 <= i < n:
        raise ValueError(f"site {i} out of range")
    nbrs = lattice.neighbors(i)
    if exclude is not None:
        if exclude not in nbrs:
            raise ValueError(f"exclude={exclude} is not a neighbor of {i}")
        nbrs = [j for j in nbrs if j != exclude]
    mat = np.zeros((n, n))
    for j in nbrs:
        mat[i, j] = mat[j, i] = 1
    return mat


def section_adjacency(cover, s):
    """N x N 0/1 adjacency matrix restricted to the edges of section s."""
    n = cover.lattice.n_sites
    mat = np.zeros((n, n))
    for tile in cover.sections[s].tiles:
        for i, j in tile.edges:
            mat[i, j] = mat[j, i] = 1
    return mat


def clear_geometry_memos():
    """Empty every memoized norm of ``trotterbounds``."""
    for memo in vars(trotterbounds).values():
        if hasattr(memo, "cache_clear"):
            memo.cache_clear()


@pytest.fixture(autouse=True)
def cold_geometry_memo():
    """Every test starts with empty norm memos: a value memoized by an
    earlier test, possibly on another evaluation path (one dense block
    against Bloch blocks), would otherwise stand in for the path under
    test."""
    clear_geometry_memos()


# 5 x 5 parallelogram patch: 70 sites, 22 edge sites, 48 center sites
PARALLELOGRAM_CELLS = [(l, m) for l in range(5) for m in range(5)]

# chevron-shaped 15-hexagon patch: 48 sites, 20 edge sites, 28 center sites
CHEVRON_CELLS = [(0, 3), (0, 4), (1, 3), (1, 4), (2, 3), (2, 4),
                 (3, 0), (3, 1), (3, 2), (3, 3), (3, 4),
                 (4, 0), (4, 1), (4, 2), (4, 3)]


@pytest.fixture(scope="session")
def hex44():
    return build_periodic_hex(4, 4)


@pytest.fixture(scope="session")
def hex66():
    return build_periodic_hex(6, 6)


@pytest.fixture(scope="session")
def cover44(hex44):
    return cover_periodic_hex(hex44)


@pytest.fixture(scope="session")
def cover66(hex66):
    return cover_periodic_hex(hex66)


@pytest.fixture(scope="session")
def hexagon():
    return single_hexagon()


@pytest.fixture(scope="session")
def hexagon_cover(hexagon):
    return cover_hex_fragment(hexagon)


@pytest.fixture(scope="session")
def ring4():
    return ring_lattice(4)


@pytest.fixture(scope="session")
def ring6():
    return ring_lattice(6)


@pytest.fixture(scope="session")
def parallelogram():
    return build_hex_fragment(PARALLELOGRAM_CELLS)


@pytest.fixture(scope="session")
def chevron():
    return build_hex_fragment(CHEVRON_CELLS)


@pytest.fixture(scope="session")
def hubbard_params():
    return ModelParams("hubbard", tau=1.0, u=4.0)


@pytest.fixture(scope="session")
def extended_params():
    return ModelParams("extended_hubbard", tau=1.0, u=4.0, v=2.0)
