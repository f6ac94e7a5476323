"""Second-order Trotter error norms for tile-based decompositions.

The step error splits into two parts: ``w_so2`` from separating Coulomb and
hopping terms, and ``w_h`` from splitting the hopping Hamiltonian into
sections.  Both are rigorous upper bounds; ``w_so2`` comes from closed-form
nested-commutator bounds, ``w_h`` from Schatten norms of section adjacency
commutators.

The section adjacencies and the lattice adjacency are taken as Bloch
blocks (``freefermion.translation_blocks``): for the periodic three-section
cover the supercell is 4 x 2 cells when L = 0 (mod 4) and L x 2 cells when
L = 2 (mod 4), and the full lattice has a 1 x 1 cell, so its Schatten norm
comes from 2 x 2 blocks.  Nested commutators and their Schatten norms are
taken block by block, at O(K d^3) cost for K blocks of size d instead of
O(N^3).  Each commutator costs one block product: [A, B] = AB - (AB)^H for
Hermitian A, B, and [X, C] = XC + (XC)^H for the anti-Hermitian X = [A, B]
(both in ``freefermion``).  ``w_h`` takes [R_b, R_c] once per
section pair and reuses it for every outer commutator, so a three-section
cover needs 3 + 8 = 11 block products and 8 eigensolves.  On the dense 0/1
blocks every product is an exact small integer, so these are the matrices
of the four-product form AB - BA bit for bit.  The star commutators [S, R] are
supported on the 2-hop ball around the star's site (at most
1 + k + k(k - 1) sites) and are evaluated there exactly, as
|i[S, R]|_1 / 2 with the same one-product commutator.  A lattice or
cover without the symmetry (fragments, most manual covers) is a single
block, the dense matrix; so is a lattice of at most
``freefermion.DENSE_MAX_SITES`` sites, which keeps the outputs pinned by the
reference data bit-identical.

The hopping norms depend on the geometry alone, not on (U, V, tau), and are
memoized per process: (T12, T24) of a cover, |R|_1 of a lattice, and the
raw star values (k, |S_k|_1, |i[S_k, R]|_1 and the maxima over the
(k-1)-edge stars).  Each sits in a private ``functools.lru_cache`` of
``_GEOMETRY_MEMO_SIZE`` entries, keyed by the lattice's or cover's own
``key``.  A ``build_periodic_hex`` lattice and its ``cover_periodic_hex``
cover are keyed by dims, of which their content is a pure function; they
build their arrays when first read, so a memo hit builds no array
(``w_so2_extended`` takes k from the star values).  Any other lattice or
cover is keyed by its content, so equal content from different
constructors gets separate entries holding equal floats.  Only floats are
stored; the tau scaling follows the lookup with the expressions of the
unmemoized code, so every output is bit-identical to a cold evaluation.

On 3-regular lattices the neighbor-interaction bound is pinned to the
tabulated constant 3*V*tau^2*N*(16 + 2*sqrt(3)) that the reference
error-norm table is built on.  A strict evaluation of the same bound through
the free-fermion machinery gives the slightly different constant
16 + sqrt(2) + sqrt(6); both numbers are recorded in the component map so
the substitution is auditable.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .freefermion import (_commutator_ah, _commutator_hh, schatten1,
                          translation_blocks)
from .lattice import LatticeGraph, regular_degree
from .tiling import SectionCover

SQRT2 = np.sqrt(2.0)
SQRT3 = np.sqrt(3.0)
SQRT6 = np.sqrt(6.0)


class BoundUnsupportedError(ValueError):
    """Raised when no error-norm bound is implemented for a model/lattice."""


MODELS = ("hubbard", "extended_hubbard", "ppp")


@dataclass(frozen=True)
class ModelParams:
    model: str
    tau: float = 1.0
    u: float = 0.0
    v: float = 0.0

    def __post_init__(self):
        if self.model not in MODELS:
            raise ValueError(f"unknown model {self.model!r}")
        if not all(math.isfinite(x) for x in (self.tau, self.u, self.v)):
            raise ValueError("model parameters must be finite")
        if self.tau <= 0:
            raise ValueError("tau must be positive")
        if self.u < 0 or self.v < 0:
            raise ValueError("interaction strengths must be nonnegative")


@dataclass
class TrotterErrorBreakdown:
    w_so2: float
    w_h: float
    components: dict = field(default_factory=dict)

    @property
    def w_tile(self) -> float:
        return self.w_so2 + self.w_h

    def to_json(self) -> str:
        doc = dict(self.components)
        doc.update(w_so2=self.w_so2, w_h=self.w_h, w_tile=self.w_tile)
        return json.dumps(doc, indent=1, sort_keys=True)


# ---------------------------------------------------------------------------
# geometry memo

# entries per memoized norm; one process meets few geometries (table2 and a
# qpe sweep share the 8 lattices L = 4..18 and their covers)
_GEOMETRY_MEMO_SIZE = 32


class _Geometry:
    """A lattice or cover as the argument of a memoized norm: hashed and
    compared by ``key``, the one the object gives itself, never by
    identity.  The norm reads ``obj`` on a miss only, and ``_memoized``
    drops it after the call, so the memo keeps no lattice or cover alive."""

    __slots__ = ("key", "obj", "_hash")

    def __init__(self, key, obj):
        self.key, self.obj, self._hash = key, obj, hash(key)

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        return self.key == other.key


def _memoized(memo, obj):
    """``memo`` of the lattice or cover ``obj``, looked up by ``obj.key``."""
    geometry = _Geometry(obj.key, obj)
    try:
        return memo(geometry)
    finally:
        geometry.obj = None


# ---------------------------------------------------------------------------
# Coulomb/hopping split


def _adjacency_schatten1(lattice: LatticeGraph) -> float:
    """|R|_1 of the lattice adjacency, summed over its translation blocks."""
    return _memoized(_adjacency_norm, lattice)


@functools.lru_cache(maxsize=_GEOMETRY_MEMO_SIZE)
def _adjacency_norm(geometry: _Geometry) -> float:
    lattice = geometry.obj
    return schatten1(translation_blocks(lattice, [lattice.edge_array()]))


def w_so2_hubbard(lattice: LatticeGraph, params: ModelParams) -> TrotterErrorBreakdown:
    """Coulomb/hopping split error norm for the on-site model.

    Uses the fragment-form double-hopping bound
    U tau^2 (12 N_c + 8 N_ed + sqrt(6) N), which collapses to
    (12 + sqrt(6)) U tau^2 N on 3-regular lattices, plus the
    U^2 tau |R|_1 / 24 term.
    """
    if params.model != "hubbard":
        raise BoundUnsupportedError("w_so2_hubbard needs the hubbard model")
    if lattice.kind not in ("periodic_hex", "hex_fragment"):
        raise BoundUnsupportedError(
            f"no on-site model bound for lattice kind {lattice.kind!r}")
    u, tau = params.u, params.tau
    n = lattice.n_sites
    if lattice.kind == "periodic_hex":
        n_c, n_ed = n, 0
    else:
        n_c, n_ed = lattice.n_center, lattice.n_edge_sites
    r1 = _adjacency_schatten1(lattice)
    comm_ihh = u * tau**2 * (12 * n_c + 8 * n_ed + SQRT6 * n)
    comm_chc = u**2 * tau * r1
    w = comm_ihh / 12.0 + comm_chc / 24.0
    return TrotterErrorBreakdown(w, 0.0, {
        "comm_IHH_bound": comm_ihh,
        "comm_CHC_bound": comm_chc,
        "adjacency_schatten1": r1,
    })


def _star_norms(lattice: LatticeGraph, tau: float) -> dict:
    """Single-sector norms of the k- and (k-1)-edge local hopping stars, and of
    their commutators with the full hopping Hamiltonian, at a representative
    site (the lattice must be regular, making the values site independent):
    tau |S|_1 / 2 and tau^2 |i[S, R]|_1 / 2, the (k-1)-star values maximised
    over the dropped bond."""
    k, s_k, c_k, s_km1, c_km1 = _memoized(_star_values, lattice)
    # rounding is monotone for tau > 0, so scaling the maxima equals the
    # maxima of the scaled values
    return {"k": k, "norm_k": tau * s_k / 2.0, "comm_k": c_k * tau / 2.0 * tau,
            "norm_km1": tau * s_km1 / 2.0,
            "comm_km1": c_km1 * tau / 2.0 * tau}


@functools.lru_cache(maxsize=_GEOMETRY_MEMO_SIZE)
def _star_values(geometry: _Geometry) -> tuple:
    """k, |S_k|_1, |i[S_k, R]|_1, and the largest |S|_1 and |i[S, R]|_1 over
    the (k-1)-edge stars S, at site 0.

    A star S at site 0 lives on the site and its neighbors, so [S, R] is
    nonzero only on the 2-hop ball around site 0 and needs only the entries
    of R inside it: both norms are evaluated exactly on that ball."""
    lattice = geometry.obj
    k = regular_degree(lattice)
    if k is None:
        raise BoundUnsupportedError("extended-model bound needs a k-regular lattice")
    near = lattice.neighbors(0)
    rest = {j for i in near for j in lattice.neighbors(i)} - {0, *near}
    ball = [0] + near + sorted(rest)
    pos = {site: a for a, site in enumerate(ball)}
    full = np.zeros((len(ball), len(ball)))
    for i in ball:
        for j in lattice.neighbors(i):
            if j in pos:
                full[pos[i], pos[j]] = 1

    def star(exclude=None):
        mat = np.zeros_like(full)
        mat[0, 1:k + 1] = mat[1:k + 1, 0] = 1
        if exclude is not None:
            mat[0, exclude] = mat[exclude, 0] = 0
        return mat

    def comm(s):
        # i[S, R] is Hermitian; its eigenvalues are the singular values of
        # [S, R] up to sign
        return schatten1(1j * _commutator_hh(s, full))

    s_k = star()
    stars_km1 = [star(exclude=j) for j in range(1, k + 1)]
    return (k, schatten1(s_k), comm(s_k),
            max((schatten1(s) for s in stars_km1), default=0.0),
            max((comm(s) for s in stars_km1), default=0.0))


def w_so2_extended(lattice: LatticeGraph, params: ModelParams) -> TrotterErrorBreakdown:
    """Coulomb/hopping split error norm for the extended model on k-regular
    lattices.  k = 1 raises BoundUnsupportedError: on dimers the free-fermion
    VHH form falls below the exact norm."""
    if params.model != "extended_hubbard":
        raise BoundUnsupportedError("w_so2_extended needs the extended model")
    u, v, tau = params.u, params.v, params.tau
    # k comes with the star values, which refuse a lattice that is not regular
    stars = _star_norms(lattice, tau)
    k = stars["k"]
    if k == 1:
        raise BoundUnsupportedError("extended-model bound has no k = 1 form")
    n = lattice.n_sites
    r1 = _adjacency_schatten1(lattice)

    comm_chc = ((u**2 + k * v**2) * tau * r1
                + ((4 * k - 2) * tau * u * v + (k - 1) * (4 * k - 1) * tau * v**2) * k * n)

    # on-site term, evaluated per site: (U/2) N (|[T,H_h]| + 2 |T|^2) with the
    # two-sector star T; on 3-regular lattices this is (12 + sqrt(6)) U tau^2 N
    comm_ihh = (u / 2.0) * n * (2 * stars["comm_k"] + 2 * (2 * stars["norm_k"]) ** 2)

    comm_vhh_ff = v * k * n * (stars["comm_km1"] + 4 * stars["norm_km1"] ** 2
                               + stars["comm_k"] + 2 * stars["norm_k"] ** 2)
    if k == 3:
        # tabulated 3-regular constant; see module docstring
        comm_vhh = 3 * v * tau**2 * n * (16 + 2 * SQRT3)
    else:
        comm_vhh = comm_vhh_ff

    w = (comm_ihh + comm_vhh) / 12.0 + comm_chc / 24.0
    return TrotterErrorBreakdown(w, 0.0, {
        "comm_IHH_bound": comm_ihh,
        "comm_VHH_bound": comm_vhh,
        "comm_VHH_bound_freefermion": comm_vhh_ff,
        "comm_CHC_bound": comm_chc,
        "adjacency_schatten1": r1,
        "k": k,
    })


# ---------------------------------------------------------------------------
# hopping section split


def w_h(cover: SectionCover, tau: float) -> float:
    """Section-split error norm for an ordered cover with any number of
    sections, the inner sums bounded term by term:

        tau^3 (T12 / 12 + T24 / 24),
        T12 = sum_{b < c} sum_{a > b} |[[R_b, R_c], R_a]|_1,
        T24 = sum_{b < c} |[[R_b, R_c], R_b]|_1.

    Each inner commutator [R_b, R_c] is taken once and serves the T24 term
    and every T12 term of its pair: a three-section cover costs 3 + 8 block
    products.
    """
    t12, t24 = _memoized(_section_sums, cover)
    return tau**3 * (t12 / 12.0 + t24 / 24.0)


@functools.lru_cache(maxsize=_GEOMETRY_MEMO_SIZE)
def _section_sums(geometry: _Geometry) -> tuple:
    """(T12, T24) of the cover ``geometry.obj``; see ``w_h``."""
    cover = geometry.obj
    blocks = translation_blocks(cover.lattice,
                                [sec.edge_array() for sec in cover.sections])
    t12 = t24 = 0.0
    m = len(blocks)
    for b in range(m):
        for c in range(b + 1, m):
            inner = _commutator_hh(blocks[b], blocks[c])
            t24 += schatten1(_commutator_ah(inner, blocks[b]))
            for a in range(b + 1, m):
                t12 += schatten1(_commutator_ah(inner, blocks[a]))
    return t12, t24


# ---------------------------------------------------------------------------
# combined


def w_so2_of(model: str):
    """The Coulomb/hopping error-norm function of ``model``;
    BoundUnsupportedError for a model that has none."""
    if model == "hubbard":
        return w_so2_hubbard
    if model == "extended_hubbard":
        return w_so2_extended
    raise BoundUnsupportedError(
        f"no error-norm bound is implemented for the {model} model")


def w_tile(lattice: LatticeGraph, cover: SectionCover, params: ModelParams
           ) -> TrotterErrorBreakdown:
    """Total tile-step error norm: Coulomb/hopping split plus section split.

    Raises ``ValueError`` when the norm overflows a float, so no caller sees
    an infinite or NaN result."""
    w_so2 = w_so2_of(params.model)
    try:
        # an overflow is reported below, not as a numpy warning
        with np.errstate(over="ignore", invalid="ignore"):
            breakdown = w_so2(lattice, params)
            breakdown.w_h = w_h(cover, params.tau)
        finite = math.isfinite(breakdown.w_tile)
    except OverflowError:
        finite = False
    if not finite:
        raise ValueError("error norm overflows for these parameters")
    breakdown.components["w_h"] = breakdown.w_h
    breakdown.components["n_sections"] = cover.n_sections
    return breakdown
