"""Exact desk-scale verification layer.

Explicit qubit representations (at most 16 qubits) through the
Jordan-Wigner mapping with interleaved spin orbitals: site i's up orbital
is qubit 2i, its down orbital qubit 2i + 1.  Exact spectral norms are dense
eigensolves of the blocks an operator leaves invariant, built from the
compiled X-mask form of :class:`PauliSum`; time evolution goes through the
eigendecomposition; identity checks certify the closed-form bounds and gate
identities on small instances.  The nested commutators of the
Coulomb/hopping bounds are taken on blocks of the hopping operator and the
Coulomb diagonals, with no Pauli product.

Every lattice check gets the bases of its blocks from one memo,
``_sector_bases``: ``_sector_sets`` groups the states by (N_up, N_down),
enforces the block cap before any block is built and drops the mirror
sectors of each symmetry orbit.  Spin flip (qubits 2i and 2i + 1 swapped,
(a, b) -> (b, a)), particle-hole on a 2-colourable lattice (every qubit
flipped, (a, b) -> (N - a, N - b)) and the powers of the lattice's site
generators (``lattice.symmetry_generators``: a cycle's rotation, a torus's
cell translations) act on basis states as signed permutations |m> -> eps(m)
|pi(m)>; the site permutations are lifted with their Jordan-Wigner sign
(``_lift``).  A map is used only if ``_commutes`` accepts it on every
compiled operator of the geometry's family (a lattice's hopping operator,
and a cover's sections) and the unit Coulomb diagonals (``_unit_diags``)
are exactly equal under it, so every U D_on + V D_nb is; no block is built
to check a map.  The hexagon's Trotter step keeps only the shift by 2 of
its cycle 0-1-2-5-4-3, since its two sections are alternate edges; the
commutator checks keep every rotation.

Each kept sector is solved as one block per character of its stabiliser
(``_adapted_bases``, after Sandvik, arXiv:1101.3281), the abelian group
that the maps fixing it generate, closed up to a constant sign on the
sector; spin flip and particle-hole alone give real parity blocks, and
translations add complex momentum phases.  When every operator is real, as
the shipped ones are, the block of conj(chi) is the conjugate of chi's,
with the same spectrum and, the step being symmetric, the same step error:
one block of each pair is solved.  A stabiliser that does not generate such
a group falls back to its parity maps, then to the whole sector.  The
Coulomb diagonals are constant on each orbit, so every check runs on the
blocks unchanged, and one set of blocks serves a lattice's whole (U, V)
grid.  On the 12-qubit hexagon the Trotter step solves 44 blocks (largest
100 states, summed n^3 3.0e6) and the commutator checks 86 (largest 50);
``run_suite("full")`` builds 466 blocks from 4 ``_sector_bases`` entries.

The analysis depends on the geometry alone and is memoized per process,
as the ``trotterbounds`` norms are: ``_sector_bases`` is keyed by the
lattice's or cover's ``key`` and holds the read-only bases only, linear in
the Hilbert-space size.  Every block is built per call from the caller's
own tau-scaled operators and (U, V)-scaled diagonals, so each output is
bit-identical to a cold run.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

# perfbench's tracer test still looks up oracle.schatten1
from .freefermion import _commutator_ah, schatten1  # noqa: F401
from .lattice import LatticeGraph, regular_degree, symmetry_generators
from .pauli import _PARITY16, PauliSum
from .tiling import SectionCover, chain_rotation, tile_catalog
from .trotterbounds import (_GEOMETRY_MEMO_SIZE, ModelParams,
                            TrotterErrorBreakdown, _adjacency_schatten1,
                            _memoized, w_so2_extended, w_so2_of)

MAX_QUBITS = 16
# largest block the exact layer diagonalizes: the half-filled sector of a
# MAX_QUBITS register, C(8, 4)^2 = 4900 states
MAX_BLOCK = math.comb(MAX_QUBITS // 2, MAX_QUBITS // 4) ** 2
# share of the largest entry of the compiled form up to which an entry leading
# out of a spin sector counts as rounding residue rather than a leak
LEAK_RTOL = 1e-12


class SizeLimitError(ValueError):
    """Instance too large for the exact layer."""


def _require_qubits(n_qubits: int):
    if n_qubits > MAX_QUBITS:
        raise SizeLimitError(f"{n_qubits} qubits exceeds the cap of {MAX_QUBITS}")


def orbital(site: int, spin: int) -> int:
    return 2 * site + spin


# ---------------------------------------------------------------------------
# Jordan-Wigner builders


def _hop_pair(n_qubits: int, p: int, q: int, coeff: float) -> PauliSum:
    """coeff * (a+_p a_q + a+_q a_p) as Pauli strings (p != q)."""
    p, q = min(p, q), max(p, q)
    x = (1 << p) | (1 << q)
    between = ((1 << q) - 1) ^ ((1 << (p + 1)) - 1)
    half = coeff / 2.0
    out = PauliSum(n_qubits)
    out._iadd_term((x, between), half)            # X Z..Z X
    out._iadd_term((x, between | x), -half)       # Y Z..Z Y = -X^ab Z^(ab|str)
    return out


def _ladder(n_qubits: int, p: int, dagger: bool) -> PauliSum:
    """a+_p (dagger=True) or a_p, including the Jordan-Wigner string."""
    string = (1 << p) - 1
    x = 1 << p
    sign = -1.0 if dagger else 1.0
    # sigma+- = (X -+ iY)/2 and Y = iXZ, so the Z-carrying part gets -+i*i = +-1
    return PauliSum(n_qubits, {(x, string): 0.5,
                               (x, string | x): 0.5 * sign})


def transfer_term(n_qubits: int, p: int, q: int, coeff: complex) -> PauliSum:
    """coeff * a+_p a_q for p != q (a single directed hopping term)."""
    return coeff * (_ladder(n_qubits, p, True) @ _ladder(n_qubits, q, False))


def jw_hopping(lattice: LatticeGraph, tau: float,
               edges=None, spins=(0, 1)) -> PauliSum:
    n_qubits = 2 * lattice.n_sites
    _require_qubits(n_qubits)
    out = PauliSum(n_qubits)
    for i, j in (lattice.edges if edges is None else edges):
        for s in spins:
            out = out + _hop_pair(n_qubits, orbital(i, s), orbital(j, s), -tau)
    return out


def jw_section(lattice: LatticeGraph, cover: SectionCover, s: int,
               tau: float) -> PauliSum:
    return jw_hopping(lattice, tau, edges=cover.sections[s].edge_array().tolist())


def jw_tile_local(kind: str, tau: float) -> PauliSum:
    """Single-spin-sector tile Hamiltonian on its local register."""
    tmpl = tile_catalog(kind)
    out = PauliSum(tmpl.n_sites)
    for a, b in tmpl.local_edges:
        out = out + _hop_pair(tmpl.n_sites, a, b, -tau)
    return out


def jw_onsite(lattice: LatticeGraph, u: float) -> PauliSum:
    """Shifted on-site interaction: U/4 Z_up Z_down on every site."""
    n_qubits = 2 * lattice.n_sites
    _require_qubits(n_qubits)
    out = PauliSum(n_qubits)
    for i in range(lattice.n_sites):
        a, b = orbital(i, 0), orbital(i, 1)
        out._iadd_term((0, (1 << a) | (1 << b)), u / 4.0)
    return out


def jw_neighbor(lattice: LatticeGraph, v: float) -> PauliSum:
    """Shifted neighbor interaction: V/4 Z_a Z_b for every edge and spin pair."""
    n_qubits = 2 * lattice.n_sites
    _require_qubits(n_qubits)
    out = PauliSum(n_qubits)
    for i, j in lattice.edges:
        for si in (0, 1):
            for sj in (0, 1):
                a, b = orbital(i, si), orbital(j, sj)
                out._iadd_term((0, (1 << a) | (1 << b)), v / 4.0)
    return out


# ---------------------------------------------------------------------------
# sector blocks and spectral norms


def _spin_occupations(n_qubits: int) -> tuple:
    """Spin-up (even qubits) and spin-down (odd qubits) electron numbers of
    every basis state."""
    idx = np.arange(1 << n_qubits)
    up = np.zeros_like(idx)
    dn = np.zeros_like(idx)
    for q in range(n_qubits):
        (dn if q & 1 else up)[:] += (idx >> q) & 1
    return up, dn


def _spin_labels(n_qubits: int) -> np.ndarray:
    """One label per basis state, equal exactly when (N_up, N_down) are."""
    up, dn = _spin_occupations(n_qubits)
    return up * (n_qubits + 1) + dn


def _two_colouring(lattice: LatticeGraph) -> np.ndarray | None:
    """Colour 0 or 1 of every site with the two ends of each edge coloured
    differently, or None when the lattice has an odd cycle."""
    nbrs: list = [[] for _ in range(lattice.n_sites)]
    for i, j in lattice.edges:
        nbrs[i].append(j)
        nbrs[j].append(i)
    colour = np.full(lattice.n_sites, -1)
    for start in range(lattice.n_sites):
        if colour[start] >= 0:
            continue
        colour[start] = 0
        stack = [start]
        while stack:
            i = stack.pop()
            for j in nbrs[i]:
                if colour[j] < 0:
                    colour[j] = 1 - colour[i]
                    stack.append(j)
                elif colour[j] == colour[i]:
                    return None
    return colour


def _lift(modes: np.ndarray) -> tuple:
    """(pi, eps) of the mode permutation p -> modes[p] on basis states:
    pi(m) moves each occupied mode p to modes[p], and eps(m) is the
    Jordan-Wigner sign of reordering the moved creation operators, (-1)^(the
    occupied pairs p < q with modes[p] > modes[q]).  The lift is a
    representation: the lift of a product is the product of the lifts."""
    n_qubits = len(modes)
    idx = np.arange(1 << n_qubits)
    perm = np.zeros_like(idx)
    odd = np.zeros_like(idx)
    for p, target in enumerate(modes):
        bit = (idx >> p) & 1
        perm |= bit << target
        passed = sum(1 << q for q in range(p + 1, n_qubits)
                     if modes[q] < target)
        odd ^= bit & _PARITY16[idx & passed]
    return perm, 1.0 - 2.0 * odd


def _symmetry_maps(lattice: LatticeGraph) -> list:
    """(pi, eps) of each candidate symmetry, |m> -> eps[m] |pi[m]>: the
    non-trivial elements of the group of spin flip and, on a 2-colourable
    lattice, particle-hole; then g^d for each ``symmetry_generators`` g of
    order o and proper divisor d of o, ascending.  Signs that depend only on
    the sector are left out; they do not change a block's spectrum.

    Spin flip swaps qubits 2i and 2i + 1 and each power of g moves site i's
    orbitals to its image; both are site permutations lifted by ``_lift``,
    spin flip with eps = (-1)^(sum_i n_iup n_idown).  Particle-hole flips
    every qubit, with eps = (-1)^(electrons on colour-1 sites), the
    staggered sign that keeps the hopping term; the third element is its
    product with spin flip."""
    n = lattice.n_sites
    spins = np.arange(2 * n) & 1
    flip, flip_sign = _lift(np.arange(2 * n) ^ 1)
    maps = [(flip, flip_sign)]
    colour = _two_colouring(lattice)
    if colour is not None:
        idx = np.arange(flip.size)
        odd = sum(3 << orbital(i, 0) for i in np.flatnonzero(colour))
        hole = idx ^ (idx.size - 1)
        hole_sign = 1.0 - 2.0 * _PARITY16[idx & odd]
        maps += [(hole, hole_sign), (flip[hole], hole_sign * flip_sign[hole])]
    for gen in symmetry_generators(lattice):
        powers = [gen]
        while not np.array_equal(powers[-1], np.arange(n)):
            powers.append(gen[powers[-1]])
        maps += [_lift(2 * site.repeat(2) + spins)
                 for d, site in enumerate(powers[:-1], 1)
                 if len(powers) % d == 0]
    return maps


def _leak(groups: dict, labels: np.ndarray) -> float:
    """Largest |d_x[i]| over the states i that X^x moves to another label,
    relative to the largest entry of any d_x."""
    idx = np.arange(labels.size)
    scale = max((float(np.abs(d).max()) for d in groups.values()), default=0.0)
    leak = 0.0
    for x, d in groups.items():
        moved = labels[idx ^ x] != labels
        if moved.any():
            leak = max(leak, float(np.abs(d[moved]).max()))
    return leak / scale if scale else 0.0


def _commutes(groups: dict, perm: np.ndarray, sign: np.ndarray) -> bool:
    """True when |m> -> sign[m] |perm[m]> commutes with the compiled
    sum_x X^x diag(d_x): perm carries each X mask x to one mask y,
    perm[m ^ x] = perm[m] ^ y on all states, and d_y[perm[m]] =
    sign[m ^ x] sign[m] d_x[m] to ``LEAK_RTOL`` of the largest entry."""
    idx = np.arange(perm.size)
    scale = max((float(np.abs(d).max()) for d in groups.values()), default=0.0)
    zero = np.zeros(perm.size)
    for x, d in groups.items():
        y = int(perm[x] ^ perm[0])
        gap = groups.get(y, zero)[perm] - sign[idx ^ x] * sign * d
        if (not np.array_equal(perm[idx ^ x], perm ^ y)
                or np.abs(gap).max() > LEAK_RTOL * scale):
            return False
    return True


def _sector_sets(labels: np.ndarray, maps=()) -> list:
    """Basis states grouped by label, ascending, less each set that one of
    the signed ``maps`` (``_symmetry_maps``) carries an earlier kept set
    onto; SizeLimitError when a group exceeds MAX_BLOCK, and ValueError when
    a map carries a kept set onto anything but one whole set.  The maps must
    commute with every operator solved on the sets (``_commutes``)."""
    order = np.argsort(labels, kind="stable")
    sets = np.split(order, np.flatnonzero(np.diff(labels[order])) + 1)
    largest = max(len(m) for m in sets)
    if largest > MAX_BLOCK:
        raise SizeLimitError(f"a {largest}-state block exceeds the cap of "
                             f"{MAX_BLOCK}")
    where = {int(labels[m[0]]): k for k, m in enumerate(sets)}
    covered = set()
    kept = []
    for k, members in enumerate(sets):
        if k in covered:
            continue
        kept.append(members)
        for perm, _ in maps:
            image = perm[members]
            j = where[int(labels[image[0]])]
            if not np.array_equal(np.sort(image), sets[j]):
                raise ValueError(f"a map carries sector {k} onto part of "
                                 f"sector {j}")
            covered.add(j)
    return kept


def _plain(members: np.ndarray) -> tuple:
    """The trivial basis of the states ``members``: one slot, coefficient 1."""
    return members[None], np.ones((1, members.size))


def _turns(den: int) -> np.ndarray:
    """exp(2 pi i k / den) for k < den, exact where it is +-1 or +-i."""
    k = np.arange(den)
    out = np.exp(2j * np.pi * k / den)
    quarter = 4 * k % den == 0
    out[quarter] = np.array([1, 1j, -1, -1j])[4 * k[quarter] // den]
    return out


def _adapted_bases(members: np.ndarray, stab: list, halve: bool):
    """Symmetry-adapted bases of sector ``members`` (ascending; after
    Sandvik, arXiv:1101.3281) under the abelian group A that the signed maps ``stab``
    fixing it generate, one per character chi of A: column r is the
    normalised sum_a conj(chi(a)) eps_a(r) |pi_a(r)>, one (state,
    coefficient) slot per a, from the smallest state r of each orbit;
    vanishing columns and bases are dropped.

    A map that is already an element of A up to sign on ``members`` is
    skipped.  Any other map is a generator g whose order o is that of its
    permutation there, with g^o a constant sign c: its eigenvalues are the o
    roots of c, and the characters of A are the products of those.  With
    ``halve``, one character of each conjugate pair {chi, conj(chi)} is
    kept: for a real operator the block of conj(chi) is the entrywise
    conjugate of chi's, with the same spectrum.  Characters that are real
    give real coefficients.  None when some g^o is not a constant sign or
    two generators do not commute on ``members``, signs included: then the
    maps do not generate such a group."""
    ones = np.ones(members.size)
    # every element of A so far, on members: images, signs and exponents
    elems, expo = [(members, ones)], [()]
    gens, orders, phases = [], [], []
    for perm, sign in stab:
        p, s = perm[members], sign[members]
        if any(np.array_equal(p, q) and abs(s @ t) == members.size
               for q, t in elems):
            continue
        powers = [(members, ones)]
        while True:
            q, t = powers[-1]
            q, t = perm[q], t * sign[q]
            if np.array_equal(q, members):
                break
            powers.append((q, t))
        if t.min() != t.max() or not all(
                np.array_equal(perm[gp[members]], gp[p])
                and np.array_equal(gs[members] * sign[gp[members]], s * gs[p])
                for gp, gs in gens):
            return None
        gens.append((perm, sign))
        orders.append(len(powers))
        phases.append(0 if t[0] > 0 else 1)
        grown, grown_expo = [], []
        for (q, t), e in zip(elems, expo):
            at = np.searchsorted(members, q)
            for k, (pq, pt) in enumerate(powers):
                grown.append((pq[at], t * pt[at]))
                grown_expo.append(e + (k,))
        elems, expo = grown, grown_expo
    if not gens:
        return [_plain(members)]
    rep = np.minimum.reduce([q for q, _ in elems])
    at = rep == members
    states = np.array([q[at] for q, _ in elems])
    eps = np.array([t[at] for _, t in elems])
    fixed = states == states[0]
    orders, phases = np.array(orders), np.array(phases)
    chars = np.array(list(itertools.product(*map(range, orders))))
    if halve:
        # the lesser index of each pair {j, jbar}, conj(chi_j) = chi_jbar
        bar = (-phases - chars) % orders
        chars = chars[[tuple(j) <= tuple(b) for j, b in zip(chars, bar)]]
    # chi_j(a) = exp(2 pi i angle / den) with an integer angle
    den = 2 * math.lcm(*orders)
    chi = _turns(den)[np.array(expo) @ ((phases + 2 * chars)
                                        * (den // (2 * orders))).T % den]
    raw = (chi.conj() if chi.imag.any() else chi.real).T[:, :, None] * eps
    # sum of conj(chi(a)) eps_a(r) over the a that fix r: their number, or 0
    stays = np.rint((raw * fixed).sum(axis=1).real)
    bases = []
    for coefs, norm in zip(raw, stays):
        keep = norm > 0
        if keep.any():
            coefs = coefs[:, keep] / np.sqrt(len(elems) * norm[keep])
            bases.append((states[:, keep],
                          coefs if coefs.imag.any() else coefs.real))
    return bases


def _scatter(index: np.ndarray, values: np.ndarray, length: int) -> np.ndarray:
    """Zeros of ``length`` with each of ``values`` added at its ``index`` in
    turn, as ``np.add.at`` adds them: one ``bincount`` per real component,
    which sums in the same order."""
    if np.isrealobj(values):
        return np.bincount(index, values, length)
    out = np.empty(length, dtype=values.dtype)
    out.real = np.bincount(index, values.real, length)
    out.imag = np.bincount(index, values.imag, length)
    return out


def _block(groups: dict, basis: tuple, dim: int) -> np.ndarray:
    """Dense Q^H (sum_x X^x diag(d_x)) Q on the orthonormal columns Q of
    ``basis`` (``_plain`` or ``_adapted_bases``) in a ``dim``-state space,
    real when its imaginary part is exactly zero; one scatter per X mask
    over every slot.  Entries leading out of the basis are dropped; callers
    make sure there are none."""
    states, coefs = basis
    size = states.shape[1]
    cols = np.broadcast_to(np.arange(size), states.shape).ravel()
    states, coefs = states.ravel(), coefs.ravel()
    row = np.full(dim, -1)
    row[states] = cols
    q = _scatter(states, coefs, dim)
    # one row per X mask
    image = states ^ np.fromiter(groups, dtype=states.dtype,
                                 count=len(groups))[:, None]
    rows = row[image]
    keep = rows >= 0
    vals = q[image].conj() * coefs * np.array(
        [d[states] for d in groups.values()]).reshape(image.shape)
    # a state may fill several slots of one column: the scatter sums them
    block = _scatter((rows * size + cols)[keep], vals[keep],
                     size * size).reshape(size, size)
    if np.iscomplexobj(block) and not block.imag.any():
        return block.real
    return block


@functools.lru_cache(maxsize=_GEOMETRY_MEMO_SIZE)
def _sector_bases(geometry) -> tuple:
    """The read-only ``_adapted_bases`` of each ``_sector_sets`` sector of a
    lattice or cover under the ``_symmetry_maps`` that leave both
    ``_unit_diags`` exactly equal and commute with its unit-tau family (the
    hopping operator and a cover's sections), one of each conjugate pair
    when the family is real.  A stabiliser that generates no abelian group
    falls back to its maps that move other sectors, then to none.
    ValueError when an operator leaks out of the spin sectors."""
    owner = geometry.obj
    lattice = owner.lattice if isinstance(owner, SectionCover) else owner
    labels = _spin_labels(2 * lattice.n_sites)
    diags = _unit_diags(lattice)
    maps = [(perm, sign) for perm, sign in _symmetry_maps(lattice)
            if all(np.array_equal(d[perm], d) for d in diags)]
    del diags
    family = [("hopping Hamiltonian", jw_hopping(lattice, 1.0))]
    if isinstance(owner, SectionCover):
        family += [(f"section {s}", jw_section(lattice, owner, s, 1.0))
                   for s in range(owner.n_sections)]
    real = True
    # one compiled operator is live at a time
    for name, op in family:
        groups = op.compile()
        leak = _leak(groups, labels)
        if leak > LEAK_RTOL:
            raise ValueError(f"{name} is not block diagonal over spin sectors "
                             f"(leak {leak:.2e})")
        maps = [m for m in maps if _commutes(groups, *m)]
        real = real and all(np.isrealobj(d) for d in groups.values())
    del groups
    moves = [not np.array_equal(labels[perm], labels) for perm, _ in maps]
    bases = []
    for members in _sector_sets(labels, maps):
        label = labels[members[0]]
        stab = [(m, mv) for m, mv in zip(maps, moves)
                if labels[m[0][members[0]]] == label]
        for group in ([m for m, _ in stab], [m for m, mv in stab if mv]):
            found = _adapted_bases(members, group, real)
            if found is not None:
                break
        else:
            found = [_plain(members)]
        # own copies, so the entry keeps no larger array alive (a real
        # basis can be a view of complex coefficients)
        for states, coefs in found:
            states, coefs = np.array(states), np.array(coefs)
            states.flags.writeable = coefs.flags.writeable = False
            bases.append((states, coefs))
    return tuple(bases)


def _diag_of_z_sum(op: PauliSum) -> np.ndarray:
    """Diagonal of an operator whose strings are all Z-type."""
    groups = op.compile()
    if any(groups):
        raise ValueError("operator is not diagonal")
    return groups.get(0, np.zeros(1 << op.n_qubits)).real


def _unit_diags(lattice: LatticeGraph) -> tuple:
    """(D_on, D_nb), the diagonals of ``jw_onsite`` and ``jw_neighbor`` at
    unit coupling."""
    return (_diag_of_z_sum(jw_onsite(lattice, 1.0)),
            _diag_of_z_sum(jw_neighbor(lattice, 1.0)))


def _scaled(coupling: float, unit: np.ndarray) -> np.ndarray:
    """``coupling`` times a ``_unit_diags`` diagonal: that of the Pauli sum
    built at ``coupling``, bit for bit when it is dyadic.  Adding 0.0 gives
    a zero the plus sign that a sum of no terms has."""
    return coupling * unit + 0.0


def _peak(block: np.ndarray) -> float:
    """Largest |eigenvalue| of a Hermitian block."""
    return float(np.abs(np.linalg.eigvalsh(block)).max())


# ---------------------------------------------------------------------------
# tile evolution identities


def slater_rotation(u: np.ndarray) -> np.ndarray:
    """Fock-space matrix of a number-conserving orbital rotation u.

    Matrix elements between occupation bitmasks are determinants of the
    corresponding row/column submatrices of u (orbitals listed in ascending
    order, matching the Jordan-Wigner sign convention).
    """
    q = u.shape[0]
    dim = 1 << q
    occ = [[p for p in range(q) if (s >> p) & 1] for s in range(dim)]
    out = np.zeros((dim, dim))
    for col in range(dim):
        cols = occ[col]
        k = len(cols)
        for row in range(dim):
            rows = occ[row]
            if len(rows) != k:
                continue
            if k == 0:
                out[row, col] = 1.0
            else:
                out[row, col] = np.linalg.det(u[np.ix_(rows, cols)])
    return out


def core_block(theta: float) -> np.ndarray:
    """Two-qubit hopping core: cos/sin mixing of |01> and |10>."""
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[1, 0, 0, 0],
                     [0, c, 1j * s, 0],
                     [0, 1j * s, c, 0],
                     [0, 0, 0, 1]], dtype=complex)


def dense_expm_hermitian(mat: np.ndarray, t: float) -> np.ndarray:
    """exp(-i * mat * t) through the spectral decomposition."""
    vals, vecs = np.linalg.eigh(mat)
    return (vecs * np.exp(-1j * vals * t)) @ vecs.conj().T


def verify_tile_evolution(kind: str, tau: float, t: float) -> dict:
    """Compare dense exp(-i H_tile t) against the rotation-chain route.

    The second route conjugates occupation-number phases by the Fock-space
    image of the catalog rotation chain; it also checks that the chain
    actually diagonalizes the tile adjacency and that the two-mode core
    carries the catalog angle |lambda| * tau * t.
    """
    tmpl = tile_catalog(kind)
    h = jw_tile_local(kind, tau)
    dense = dense_expm_hermitian(np.real(h.to_dense()), t)

    u = chain_rotation(tmpl)
    diag = u.T @ tmpl.local_adjacency @ u
    off = float(np.abs(diag - np.diag(np.diag(diag))).max())
    modes = np.diag(diag)

    big_u = slater_rotation(u)
    dim = 1 << tmpl.n_sites
    phases = np.ones(dim, dtype=complex)
    for state in range(dim):
        acc = 0.0
        for p in range(tmpl.n_sites):
            if (state >> p) & 1:
                acc += modes[p]
        phases[state] = np.exp(1j * tau * acc * t)
    eigen_route = (big_u * phases) @ big_u.T

    deviation = float(np.abs(dense - eigen_route).max())

    # two-mode core: rotating the plus/minus pair gives the cos/sin block
    lam = max(abs(m) for m in modes)
    u2 = np.array([[1, 1], [1, -1]]) / math.sqrt(2.0)
    f2 = slater_rotation(u2)
    d2 = np.diag(np.exp(1j * tau * lam * t * np.array([0, 1, -1, 0])))
    core_dev = float(np.abs(f2 @ d2 @ f2.T - core_block(lam * tau * t)).max())

    return {"check": "tile_evolution", "instance": f"{kind} tau={tau} t={t}",
            "deviation": deviation, "chain_offdiag": off,
            "core_angle": lam * tau * t, "core_deviation": core_dev,
            "pass": deviation <= 1e-10 and off <= 1e-12 and core_dev <= 1e-10}


# ---------------------------------------------------------------------------
# commutator bound dominance


def verify_commutator_bounds(lattice: LatticeGraph, *params: ModelParams) -> list:
    """Exact nested-commutator spectral norms against the closed-form bounds
    that ``trotterbounds.w_so2_extended`` ships (extended-model params on a
    regular lattice), for each grid point of ``params`` in turn.

    The Coulomb pieces are diagonal and the hopping operator H conserves
    (N_up, N_down) (checked on its compiled form), so every nested commutator
    is taken on the sector blocks h of H: [[C, H], C] elementwise as
    -(c_i - c_j)^2 h_ij, and [[D, H], H] for D = I, V as [X, h] with the
    anti-Hermitian X_ij = (d_i - d_j) h_ij, in one block product.  No Pauli
    product is formed.  One sector per symmetry orbit is solved, as the
    character blocks of its stabiliser (``_sector_bases``) under maps that
    leave every point's diagonals U D_on and V D_nb equal, so they are read
    at each orbit's first state.  The points share tau: each h serves them
    all.
    """
    n_qubits = 2 * lattice.n_sites
    _require_qubits(n_qubits)
    if len({p.tau for p in params}) != 1:
        raise ValueError("the grid points must share one tau")
    bounds = [w_so2_extended(lattice, p).components for p in params]
    d_on, d_nb = _unit_diags(lattice)
    hop = jw_hopping(lattice, params[0].tau).compile()
    peaks = np.zeros((len(params), 3))
    for basis in _memoized(_sector_bases, lattice):
        h = _block(hop, basis, 1 << n_qubits)
        reps = basis[0][0]
        for peak, p in zip(peaks, params):
            d_i, d_v = _scaled(p.u, d_on[reps]), _scaled(p.v, d_nb[reps])
            gap_i = d_i[:, None] - d_i[None, :]
            gap_v = d_v[:, None] - d_v[None, :]
            # each nested commutator is solved before the next one is built
            np.maximum(peak, [_peak(-(gap_i + gap_v) ** 2 * h),
                              _peak(_commutator_ah(gap_i * h, h)),
                              _peak(_commutator_ah(gap_v * h, h))], out=peak)
    checks = []
    for p, bound_of, peak in zip(params, bounds, peaks.tolist()):
        name = f"{lattice.kind}/N={lattice.n_sites} U={p.u} V={p.v}"
        for label, exact in zip(("comm_CHC", "comm_IHH", "comm_VHH"), peak):
            bound = bound_of[label + "_bound"]
            ok = exact <= bound + 1e-9 * max(bound, 1.0)
            checks.append({"check": label, "instance": name, "exact": exact,
                           "bound": bound, "pass": bool(ok)})
    return checks


# ---------------------------------------------------------------------------
# Trotter step inequality


def _step_errors(groups: list, basis: tuple, dim: int, c_diag: np.ndarray,
                 t_list) -> list:
    """Largest singular value of exp(-i H t) minus the step on the block of
    ``basis``, for each t: ``groups`` holds the compiled H and then the
    sections, and ``c_diag`` is the Coulomb diagonal of the outer half
    steps."""
    (vals, vecs), *sec = [np.linalg.eigh(_block(g, basis, dim))
                          for g in groups]
    cd = c_diag[basis[0][0]]
    # the last section's two half steps meet: it takes one full step
    steps = [0.5] * (len(sec) - 1) + [1.0] + [0.5] * (len(sec) - 1)
    errs = []
    for t in t_list:
        if t == 0:
            errs.append(0.0)
            continue
        u_exact = (vecs * np.exp(-1j * vals * t)) @ vecs.conj().T
        u_step = np.diag(np.exp(-1j * cd * t / 2.0)).astype(complex)
        # each section step is formed where it is applied: one is live
        for (sl, sv), f in zip(sec[:-1] + sec[::-1], steps):
            u_step = (sv * np.exp(-1j * sl * t * f)) @ sv.conj().T @ u_step
        # in place, so no third unitary is live at the SVD
        np.multiply(np.exp(-1j * cd * t / 2.0)[:, None], u_step, out=u_step)
        u_exact -= u_step
        errs.append(float(np.linalg.svd(u_exact, compute_uv=False)[0]))
    return errs


def verify_trotter_step(lattice: LatticeGraph, cover: SectionCover,
                        params: ModelParams, t_list,
                        breakdown: TrotterErrorBreakdown) -> list:
    """Exact second-order step error against w_tile * t^3 for each t.

    The step is exp(-i H_C t/2) prod_s exp(-i H_s t/2) (reverse) exp(-i H_C t/2).
    Every factor conserves both spin-sector electron numbers (checked on the
    compiled operators), so the unitary difference is evaluated exactly as
    the largest per-block singular value over those invariant subspaces,
    one sector per symmetry orbit, as the character blocks of its
    stabiliser (``_sector_bases``).  The two half steps of the last section
    meet and are applied as one full step.  ValueError when ``cover`` is
    not a cover of ``lattice`` (their lattice keys differ), and
    BoundUnsupportedError, as ``w_tile`` raises it, for a model with no
    bound.
    """
    if cover.lattice.key != lattice.key:
        raise ValueError("the cover is not a cover of this lattice")
    # the same refusal as w_tile's, for a model with no Coulomb operator here
    w_so2_of(params.model)
    n_qubits = 2 * lattice.n_sites
    v = params.v if params.model == "extended_hubbard" else 0.0
    c_diag = sum(map(_scaled, (params.u, v), _unit_diags(lattice)))
    groups = [{**jw_hopping(lattice, params.tau).compile(), 0: c_diag}]
    groups += [jw_section(lattice, cover, s, params.tau).compile()
               for s in range(cover.n_sections)]
    errs = [0.0] * len(t_list)
    # a map that commutes with the hopping operator and leaves c_diag equal
    # commutes with H, whose leak is the hopping operator's
    for basis in _memoized(_sector_bases, cover):
        errs = list(map(max, errs, _step_errors(groups, basis, 1 << n_qubits,
                                                c_diag, t_list)))

    w = breakdown.w_tile
    reports = []
    for t, err in zip(t_list, errs):
        bound = w * t**3
        reports.append({"check": "trotter_step", "instance": f"t={t}",
                        "exact": err, "bound": bound,
                        "ratio_t3": err / t**3 if t else 0.0,
                        "pass": bool(err <= bound * (1 + 1e-9))})
    return reports


# ---------------------------------------------------------------------------
# chemical shifts and commutator rules


def verify_chemical_shifts(lattice: LatticeGraph, params: ModelParams,
                           eta: int) -> list:
    """Shifted minus unshifted interaction terms restricted to the eta-electron
    sector must be the predicted constant energy shift times the identity.
    The unshifted terms U n_up n_down and V n_a n_b are diagonal and are read
    off the occupation bits of each basis state.

    On-site shift: -U/2 * eta + U/4 * N.  Neighbor shift on a k-regular
    lattice: V k / 2 * (N - 2 eta); the commonly quoted form
    V k / 4 * (N - 4 eta) halves the constant term and fails the sector
    check, so the report carries both values.
    """
    n_qubits = 2 * lattice.n_sites
    _require_qubits(n_qubits)
    n = lattice.n_sites
    up, dn = _spin_occupations(n_qubits)
    sector = np.flatnonzero(up + dn == eta)
    idx = np.arange(1 << n_qubits)
    occ = [(idx >> q) & 1 for q in range(n_qubits)]
    reports = []

    delta_i = -params.u / 2.0 * eta + params.u / 4.0 * n
    bare = params.u * sum(occ[orbital(i, 0)] * occ[orbital(i, 1)]
                          for i in range(n))
    diff = _diag_of_z_sum(jw_onsite(lattice, params.u)) - bare
    dev = np.abs(diff[sector] - delta_i).max()
    reports.append({"check": "chemical_shift_onsite",
                    "instance": f"N={n} eta={eta} U={params.u}",
                    "exact": float(dev), "bound": 1e-10,
                    "shift": delta_i, "pass": bool(dev <= 1e-10)})

    k = regular_degree(lattice)
    if k is not None and params.v > 0:
        delta_v = params.v * k / 2.0 * (n - 2 * eta)
        bare = params.v * sum(occ[orbital(i, si)] * occ[orbital(j, sj)]
                              for i, j in lattice.edges
                              for si in (0, 1) for sj in (0, 1))
        diff = _diag_of_z_sum(jw_neighbor(lattice, params.v)) - bare
        dev = np.abs(diff[sector] - delta_v).max()
        reports.append({"check": "chemical_shift_neighbor",
                        "instance": f"N={n} eta={eta} V={params.v} k={k}",
                        "exact": float(dev), "bound": 1e-10,
                        "shift": delta_v,
                        "shift_quoted_form": params.v * k / 4.0 * (n - 4 * eta),
                        "pass": bool(dev <= 1e-10)})
    return reports


def verify_commutator_rules(tau: float = 1.0) -> list:
    """Exact (anti)commutation rules between Coulomb ZZ factors and directed
    hopping terms, checked as Pauli-algebra identities on a 3-site register.

    A ZZ factor commutes with a hopping term when they share both or neither
    spin orbital, and anticommutes when they share exactly one.
    """
    n_qubits = 6

    def zz(o1, o2):
        return PauliSum(n_qubits, {(0, (1 << o1) | (1 << o2)): 1.0})

    def hop(o1, o2):
        return transfer_term(n_qubits, o1, o2, -tau)

    up0, dn0 = orbital(0, 0), orbital(0, 1)
    up1, dn1 = orbital(1, 0), orbital(1, 1)
    up2 = orbital(2, 0)
    cases = [
        # all four spin orbitals distinct -> commutator vanishes
        ("rule1_distinct_orbitals", zz(up0, dn0).commutator(hop(up1, up2))),
        # ZZ on exactly the hopping pair -> commutator vanishes
        ("rule2_same_pair", zz(up0, up1).commutator(hop(up0, up1))),
        # exactly one shared orbital -> anticommutator vanishes, either direction
        ("rule3_shared_forward", zz(up0, dn1).anticommutator(hop(up0, up1))),
        ("rule4_shared_reverse", zz(up0, dn1).anticommutator(hop(up1, up0))),
    ]
    reports = []
    for name, op in cases:
        residual = max((abs(c) for c in op.terms.values()), default=0.0)
        reports.append({"check": name, "instance": "3 sites",
                        "exact": residual, "bound": 1e-12,
                        "pass": residual <= 1e-12})
    return reports


def verify_ff_norm(lattice: LatticeGraph, tau: float = 1.0) -> dict:
    """Exact many-body norm of the hopping Hamiltonian against tau * |R|_1:
    the largest block peak over its ``_sector_bases``."""
    hop, dim = jw_hopping(lattice, tau).compile(), 1 << 2 * lattice.n_sites
    exact = max(_peak(_block(hop, basis, dim))
                for basis in _memoized(_sector_bases, lattice))
    predicted = tau * _adjacency_schatten1(lattice)
    return {"check": "ff_norm", "instance": f"{lattice.kind}/N={lattice.n_sites}",
            "exact": exact, "bound": predicted,
            "pass": abs(exact - predicted) <= 1e-8 * max(predicted, 1.0)}


# ---------------------------------------------------------------------------
# suite runner


def run_suite(level: str = "fast") -> list:
    """Run the verification suite; ``fast`` covers tiles, algebra rules and
    chemical shifts, ``full`` adds commutator-bound dominance and the
    sector-block Trotter-step inequality."""
    from .lattice import ring_lattice, single_hexagon
    from .tiling import cover_hex_fragment
    from .trotterbounds import w_tile

    if level not in ("fast", "full"):
        raise ValueError("level must be 'fast' or 'full'")
    reports = []

    for kind in ("S1", "S2", "C4", "S4"):
        for t in (0.1, 0.5, 1.0):
            reports.append(verify_tile_evolution(kind, tau=1.0, t=t))

    reports.extend(verify_commutator_rules())

    ring4 = ring_lattice(4)
    hexagon = single_hexagon()
    reports.extend(verify_chemical_shifts(
        ring4, ModelParams("extended_hubbard", tau=1.0, u=4.0, v=2.0), eta=2))
    reports.extend(verify_chemical_shifts(
        hexagon, ModelParams("hubbard", tau=1.0, u=4.0), eta=3))

    reports.append(verify_ff_norm(ring4))
    reports.append(verify_ff_norm(hexagon))

    if level == "full":
        ring6 = ring_lattice(6)
        grid = [ModelParams("extended_hubbard", tau=1.0, u=u, v=v)
                for u in (0.0, 2.0, 4.0) for v in (0.0, 2.0, 4.0)]
        for lat in (ring4, ring6, hexagon):
            reports.extend(verify_commutator_bounds(lat, *grid))

        params = ModelParams("hubbard", tau=1.0, u=4.0)
        cover = cover_hex_fragment(hexagon)
        breakdown = w_tile(hexagon, cover, params)
        reports.extend(verify_trotter_step(hexagon, cover, params,
                                           (0.05, 0.1, 0.2), breakdown))
    return reports
