"""Norms of free-fermion (quadratic, number-conserving) operators.

The many-body spectral norm of a hopping Hamiltonian encoded by a symmetric
coupling matrix Q equals half the Schatten-1 norm of Q in each spin sector,
so tau |Q|_1 for the spinful operator with identical up/down blocks, and the
same reduction applies to (nested) commutators of such operators.  This
turns all hopping-sector norm evaluations into eigenvalue problems of
coupling matrices: ``schatten1`` of the matrix, or of i[A, B] for a
commutator.

``_commutator_hh`` and ``_commutator_ah`` take a commutator in one matrix
product.  They are the only commutator route of the package: the error-norm
bounds apply them to coupling matrices, and the exact oracle applies them to
the many-body sector blocks of a Jordan-Wigner operator.

Coupling matrices that commute with a group of lattice translations are
block diagonal in the Bloch basis.  ``translation_blocks`` finds the cell
translations along x and along y that map a list of edge sets onto
themselves and returns each set's K Bloch blocks of size d, built straight
from the edges; products, commutators and Schatten norms then act block by
block, at O(K d^3) cost instead of O(N^3).  A lattice without such a
symmetry, or with at most ``DENSE_MAX_SITES`` sites, is one real block, the
dense matrix itself.
"""

from __future__ import annotations

import math

import numpy as np

from .lattice import LatticeGraph, _edge_array, check_memory


def schatten1(matrix: np.ndarray) -> float:
    """Sum of absolute eigenvalues of a Hermitian matrix, summed over every
    block when given a ``(..., d, d)`` stack of Hermitian blocks."""
    m = np.asarray(matrix)
    if not np.iscomplexobj(m):
        m = np.asarray(m, dtype=float)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError("schatten1 needs a square matrix")
    if not np.isfinite(m).all():
        raise ValueError("schatten1 needs finite entries")
    # exact equality first: commutators built by ``_commutator_ah`` are
    # Hermitian bit for bit, and the tolerant check costs several passes
    m_h = m.conj().swapaxes(-1, -2)
    if not (np.array_equal(m, m_h) or np.allclose(m, m_h, atol=1e-12)):
        raise ValueError("schatten1 needs a symmetric (Hermitian) matrix")
    return float(np.abs(np.linalg.eigvalsh(m)).sum())


def _commutator_hh(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """[A, B] of (stacks of) Hermitian matrices, in one product: BA = (AB)^H,
    so [A, B] = AB - (AB)^H, which is anti-Hermitian."""
    ab = a @ b
    return ab - ab.conj().swapaxes(-1, -2)


def _commutator_ah(x: np.ndarray, c: np.ndarray) -> np.ndarray:
    """[X, C] of (stacks of) an anti-Hermitian X and a Hermitian C, in one
    product: CX = -(XC)^H, so [X, C] = XC + (XC)^H, which is Hermitian."""
    xc = x @ c
    return xc + xc.conj().swapaxes(-1, -2)


# ---------------------------------------------------------------------------
# translation (Bloch) blocks

# Lattices up to this size (L = 18, the largest lattice of the reference
# error-norm table) are evaluated as one dense real block.  There the dense
# eigensolves cost well under a second, and they reproduce the pinned
# ``fthub qpe`` outputs byte for byte: ``qpe.optimize_x`` resolves its
# minimum below rounding noise, so a last-bit change of w moves the printed
# x.  Above it the Bloch blocks are used.
DENSE_MAX_SITES = 648

# Arrays the size of one edge set's blocks that the commutators of
# ``trotterbounds.w_h`` hold beside the stack at their peak: the inner
# commutator, and the product, its conjugate and their sum inside
# ``_commutator_ah``.  ``translation_blocks`` counts them in the memory it
# checks for, whatever the caller.
COMMUTATOR_ARRAYS = 4


def _cells(lattice: LatticeGraph) -> tuple:
    """Cell coordinates x and y, orbital, torus size (L_x, L_y) and orbitals
    per cell of every site.  A periodic hexagonal lattice has the two
    sublattice colors in each cell (site index ``2 (x + L_x y) + c``); any
    other lattice is a single cell holding every site."""
    n = lattice.n_sites
    index = np.arange(n)
    if lattice.kind == "periodic_hex":
        l_x, l_y = lattice.dims
        return index // 2 % l_x, index // 2 // l_x, index % 2, (l_x, l_y), 2
    zero = np.zeros(n, dtype=np.int64)
    return zero, zero, index, (1, 1), n


def _edge_keys(i: np.ndarray, j: np.ndarray, n: int) -> np.ndarray:
    return np.sort(np.minimum(i, j) * n + np.maximum(i, j))


def translation_periods(lattice: LatticeGraph, edge_sets) -> tuple:
    """Smallest cell shifts (p_x, p_y) along x and along y that map every
    edge set onto itself; each is the torus length when only the identity
    does, and (1, 1) on a lattice that is not a periodic torus.

    The shifts that work along one axis are the multiples of the smallest
    one, so the divisors of L_x (or L_y) are scanned in ascending order and
    every edge is checked for each."""
    x, y, orb, (l_x, l_y), n_orb = _cells(lattice)
    n = lattice.n_sites
    pairs = [_edge_array(edges) for edges in edge_sets]
    keys = [_edge_keys(p[:, 0], p[:, 1], n) for p in pairs]

    def maps_onto_itself(t_x: int, t_y: int) -> bool:
        moved = orb + n_orb * ((x + t_x) % l_x + l_x * ((y + t_y) % l_y))
        return all(np.array_equal(_edge_keys(moved[p[:, 0]], moved[p[:, 1]], n), k)
                   for p, k in zip(pairs, keys))

    p_x = next(p for p in range(1, l_x + 1)
               if l_x % p == 0 and maps_onto_itself(p, 0))
    p_y = next(p for p in range(1, l_y + 1)
               if l_y % p == 0 and maps_onto_itself(0, p))
    return p_x, p_y


def translation_blocks(lattice: LatticeGraph, edge_sets) -> np.ndarray:
    """Bloch blocks of the 0/1 coupling matrix of each edge set.

    The translations by multiples of ``translation_periods`` form a group of
    K = (L_x / p_x)(L_y / p_y) elements that commutes with every coupling
    matrix, so each one is unitarily equivalent to K blocks of size
    d = N / K.  Block k of a matrix A is sum_D A[(0, a), (D, b)] e^{i k.D}
    over supercell offsets D; the map is multiplicative, so products and
    commutators of the matrices are taken block by block, and the spectrum
    of A is the union of its blocks' spectra.  Returns a complex array of
    shape (S, K, d, d) for S edge sets.  With one block (no symmetry, or
    at most ``DENSE_MAX_SITES`` sites) the array is real: the dense
    matrices.  When the stack, with the float counts it is built from and
    ``COMMUTATOR_ARRAYS`` arrays of one edge set's blocks, needs more than
    the machine's physical memory, ``LatticeError`` is raised before
    anything is allocated.
    """
    x, y, orb, (l_x, l_y), n_orb = _cells(lattice)
    if lattice.n_sites > DENSE_MAX_SITES:
        p_x, p_y = translation_periods(lattice, edge_sets)
    else:
        p_x, p_y = l_x, l_y
    k_x, k_y = l_x // p_x, l_y // p_y
    d = n_orb * p_x * p_y
    cell_x, cell_y = x // p_x, y // p_y
    local = orb + n_orb * (x % p_x + p_x * (y % p_y))
    # per entry of each edge set, the float counts and, with more than one
    # block, their complex transform; and the commutator arrays, complex
    # with more than one block
    shape = (len(edge_sets), k_x * k_y, d, d)
    bloch = k_x * k_y > 1
    check_memory(math.prod(shape[1:]) * (len(edge_sets) * (8 + 16 * bloch)
                                         + COMMUTATOR_ARRAYS * (8 + 8 * bloch)),
                 f"a Bloch block stack of shape {shape}")
    # counts[s, D_x, D_y, a, b]: entries of A_s from orbital a to orbital b
    # at supercell offset D, summed over all K translates (hence the 1/K of
    # the inverse FFT)
    counts = np.zeros((len(edge_sets), k_x, k_y, d, d))
    for s, edges in enumerate(edge_sets):
        p = _edge_array(edges)
        i = np.concatenate([p[:, 0], p[:, 1]])
        j = np.concatenate([p[:, 1], p[:, 0]])
        np.add.at(counts[s], ((cell_x[j] - cell_x[i]) % k_x,
                              (cell_y[j] - cell_y[i]) % k_y,
                              local[i], local[j]), 1.0)
    if bloch:
        # one edge set at a time, so the transform's copies stay within
        # the commutator arrays counted above
        blocks = np.empty(counts.shape, dtype=complex)
        for s, count in enumerate(counts):
            blocks[s] = np.fft.ifft2(count, axes=(0, 1))
        counts = blocks
    return counts.reshape(shape)
