"""Lattice graphs for generalized Hubbard models.

The periodic hexagonal (honeycomb) lattice is built in brick-wall
coordinates: unit cells (l_x, l_y) on a torus, two sites per cell
distinguished by a sublattice color c in {0, 1}.  Site (l, m, 0) is bonded
to the color-1 sites of cells (l, m), (l-1, m) and (l, m-1), giving the
three bond orientations referred to as A (intra-cell), B (x-neighbor) and
C (y-neighbor) throughout the tiling code.

Hexagonal fragments are described by a list of hexagon cells; sites and
bonds are inherited from the infinite lattice, which guarantees that every
site belongs to at least one complete hexagonal face.

A lattice is stored as the ascending array of codes i * N + j of its
distinct bonds (i, j), i < j, checked on entry.  Degrees, neighbor lists
and the edge count are computed from them, so memory grows with the number
of bonds, not with N^2.  The ``edges`` tuple of every lattice, and the
``SiteInfo`` objects of a periodic one, are derived on first read; the
estimator never reads them.  The dense N x N adjacency matrix is derived
on request, for small lattices only.
"""

from __future__ import annotations

import functools
import json
import os
from dataclasses import dataclass

import numpy as np


class LatticeError(ValueError):
    """Raised for invalid lattice constructions."""


@dataclass(frozen=True)
class SiteInfo:
    index: int
    l_x: int
    l_y: int
    color: int          # sublattice color in {0, 1}
    role: str           # "center" (degree 3) or "edge" (degree 2)


class LatticeGraph:
    """A lattice of ``n_sites`` sites, stored as the ascending codes
    i * n_sites + j of its bonds (i, j), i < j.

    Built from ``edges``, (i, j) pairs in any sequence or array, or from
    ``edge_codes`` directly; either is checked on entry and only the codes
    are kept.  The ``edges`` tuple is derived from the codes on first read,
    and so is ``site_info`` of a lattice built without it (a
    ``periodic_hex`` lattice, whose sites follow from ``dims``)."""

    def __init__(self, n_sites: int, edges=None, site_info=None,
                 kind: str = "custom", dims=None, *, edge_codes=None):
        self.n_sites, self.kind, self.dims = n_sites, kind, dims
        if site_info is not None:
            self.site_info = site_info
        if edge_codes is None:
            edge_codes = _edge_codes(edges, n_sites)
        self.edge_codes = _checked_codes(edge_codes, n_sites)

    def __repr__(self):
        return (f"LatticeGraph(n_sites={self.n_sites}, n_edges={self.n_edges}, "
                f"kind={self.kind!r}, dims={self.dims!r})")

    @functools.cached_property
    def edges(self) -> tuple:
        """Sorted distinct (i, j) pairs, i < j."""
        head, tail = self.edge_ends()
        return tuple(zip(head.tolist(), tail.tolist()))

    @functools.cached_property
    def site_info(self) -> tuple:
        """One ``SiteInfo`` per site; derived from ``dims`` for a
        ``periodic_hex`` lattice, where every site is a center site."""
        if self.kind != "periodic_hex":
            raise LatticeError(f"a {self.kind} lattice needs its site_info")
        l_x, _ = self.dims
        n = self.n_sites
        cell, color = np.divmod(np.arange(n), 2)
        return tuple(map(SiteInfo, range(n), (cell % l_x).tolist(),
                         (cell // l_x).tolist(), color.tolist(), ["center"] * n))

    @property
    def adjacency(self) -> np.ndarray:
        """Dense N x N 0/1 adjacency matrix, built from the edges on every
        access; meant for small lattices (exact checks, dense references)."""
        adj = np.zeros((self.n_sites, self.n_sites), dtype=np.int64)
        i, j = self.edge_ends()
        adj[i, j] = adj[j, i] = 1
        return adj

    @property
    def n_edges(self) -> int:
        return len(self.edge_codes)

    def degrees(self) -> np.ndarray:
        return np.bincount(np.concatenate(self.edge_ends()), minlength=self.n_sites)

    def neighbors(self, i: int) -> list:
        # edges are sorted: the heads of the edges into i ascend below i,
        # the tails of the edges out of i ascend above it
        head, tail = self.edge_ends()
        return np.concatenate([head[_equal(tail, i)], tail[_equal(head, i)]]).tolist()

    def edge_ends(self) -> tuple:
        """(i, j) arrays of the edges, in edge order."""
        return np.divmod(self.edge_codes, max(self.n_sites, 1))

    def edge_array(self) -> np.ndarray:
        """(E, 2) int64 array of the edges, in edge order."""
        return np.stack(self.edge_ends(), axis=1)

    def edge_positions(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """Index in ``edges`` of each site pair (i, j) with i <= j, or -1
        where the pair is no edge."""
        head, _ = self.edge_ends()
        count = np.bincount(head, minlength=self.n_sites)
        first = np.cumsum(count) - count
        codes = i * self.n_sites + j
        found = np.full(codes.shape, -1)
        # the edges out of each site are contiguous: try each slot
        for slot in range(int(count.max(initial=0))):
            at = np.minimum(first[i] + slot, self.n_edges - 1)
            hit = _equal(self.edge_codes[at], codes)
            found[hit] = at[hit]
        return found

    @property
    def n_center(self) -> int:
        return sum(1 for s in self.site_info if s.role == "center")

    @property
    def n_edge_sites(self) -> int:
        return sum(1 for s in self.site_info if s.role == "edge")


def _edge_codes(edges, n: int) -> np.ndarray:
    """Codes i * n + j of the (i, j) pairs ``edges``; LatticeError names the
    first pair that is not integers 0 <= i < j < n."""
    try:
        pairs = np.asarray(edges)
    except ValueError:           # ragged; the walk below names the bad edge
        pairs = np.zeros(0)
    in_range = False
    if pairs.shape == (len(edges), 2) and pairs.dtype.kind in "iu":
        i, j = pairs.astype(np.int64).T
        in_range = not len(i) or (int(i.min()) >= 0 and int((j - i).min()) > 0
                                  and int(j.max()) < n)
    if not in_range:
        # name the first bad edge; edges that pass (none, or bools) are
        # checked for order by ``_checked_codes``
        for i, j in edges:
            if not (isinstance(i, (int, np.integer))
                    and isinstance(j, (int, np.integer)) and 0 <= i < j < n):
                raise LatticeError(f"edge ({i}, {j}) needs integers "
                                   f"0 <= i < j < {n}")
        i, j = _edge_array(edges).T
    return i * n + j


def _checked_codes(codes: np.ndarray, n: int) -> np.ndarray:
    """``codes`` as a read-only int64 array, checked to be the ascending
    codes i * n + j of bonds 0 <= i < j < n.  The codes order the pairs as
    tuples do: a step that is not positive is an unsorted or repeated edge."""
    codes = np.array(codes, dtype=np.int64)
    if codes.ndim != 1:
        raise LatticeError("edge codes must be a 1-d array")
    i, j = np.divmod(codes, max(n, 1))
    if len(codes) and (int(codes.min()) < 0 or int((j - i).min()) <= 0):
        raise LatticeError(f"edge codes must encode pairs 0 <= i < j < {n}")
    if len(codes) > 1 and int(np.diff(codes).min()) <= 0:
        raise LatticeError("edges must be sorted and distinct")
    codes.flags.writeable = False
    return codes


def _edge_array(edges) -> np.ndarray:
    """Edge pairs as an (E, 2) int64 array (shape (0, 2) when empty)."""
    return np.asarray(edges, dtype=np.int64).reshape(-1, 2)


def _equal(a, b) -> np.ndarray:
    """a == b for integer arrays, as a zero difference: the lattice code
    compares integers this way only, which keeps numpy's comparison kernels
    out of processes that never use them otherwise."""
    return ~(a - b).astype(bool)


def _degrees(n: int, edges) -> np.ndarray:
    return np.bincount(_edge_array(edges).ravel(), minlength=n)


def _edge_tuple(pairs) -> tuple:
    """Canonical edge tuple: each pair as (min, max), repeats dropped, sorted."""
    return tuple(sorted({(min(i, j), max(i, j)) for i, j in pairs}))


def degree_histogram(lattice: LatticeGraph) -> dict:
    """Map degree -> number of sites with that degree."""
    deg = lattice.degrees()
    counts = np.bincount(deg).tolist()
    # keys in the order the degrees first occur, walking the sites
    return {d: counts[d] for d in dict.fromkeys(deg.tolist())}


def regular_degree(lattice: LatticeGraph) -> int | None:
    """The common coordination number k, or None if the graph is not regular."""
    hist = degree_histogram(lattice)
    if len(hist) == 1:
        return next(iter(hist))
    return None


# ---------------------------------------------------------------------------
# periodic hexagonal lattice


def hex_site_index(l: int, m: int, c: int, l_x: int, l_y: int) -> int:
    return 2 * ((l % l_x) + (m % l_y) * l_x) + c


# bytes per site that building a lattice takes at least: the periodic
# builder peaks at about 132 (its edge codes, as Python ints and as arrays,
# while they are sorted), the square-fragment builder at about 600
SITE_BYTES = 128


def physical_memory() -> int | None:
    """Bytes of the machine's physical memory; None where the operating
    system does not report it."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, OSError, ValueError):
        return None


def check_memory(n_bytes: int, what: str):
    """Raise ``LatticeError`` when ``what`` needs ``n_bytes``, more than the
    machine's physical memory; the check is skipped where the operating
    system does not report that memory."""
    memory = physical_memory()
    if memory is not None and n_bytes > memory:
        raise LatticeError(f"{what} needs at least {n_bytes / 2**30:.3g} GiB, "
                           f"more than the {memory / 2**30:.3g} GiB of this "
                           f"machine")


def check_lattice_memory(n_sites: int):
    """Raise ``LatticeError`` when a lattice of ``n_sites`` sites cannot fit
    in the machine's physical memory at ``SITE_BYTES`` per site."""
    check_memory(n_sites * SITE_BYTES, f"a lattice of {n_sites} sites")


def check_periodic_dims(l_x: int, l_y: int):
    """Raise ``LatticeError`` unless an l_x x l_y periodic hexagonal lattice
    exists."""
    if l_x < 2 or l_y < 2:
        raise LatticeError("periodic hex needs l_x >= 2 and l_y >= 2 "
                           "(smaller tori create multi-edges)")


def build_periodic_hex(l_x: int, l_y: int) -> LatticeGraph:
    """Periodic hexagonal lattice with 2 * l_x * l_y sites, 3-regular."""
    check_periodic_dims(l_x, l_y)
    n = 2 * l_x * l_y
    check_lattice_memory(n)
    # the color-0 site of each cell is bonded to the color-1 sites of the
    # cell and of its -x and -y neighbors
    m, l = np.divmod(np.arange(l_x * l_y), l_x)
    head = hex_site_index(l, m, 0, l_x, l_y)
    tail = np.stack([hex_site_index(l + dl, m + dm, 1, l_x, l_y)
                     for dl, dm in ((0, 0), (-1, 0), (0, -1))])
    # each bond once (the three tails of a head differ on every torus of
    # at least 2 x 2 cells), as the code i * n + j of i < j, ascending
    codes = sorted((np.minimum(head, tail) * n
                    + np.maximum(head, tail)).ravel().tolist())
    return LatticeGraph(n, kind="periodic_hex", dims=(l_x, l_y),
                        edge_codes=codes)


# ---------------------------------------------------------------------------
# hexagonal fragments


def hex_face_sites(l: int, m: int) -> list:
    """The six (l, m, c) sites of the hexagonal face anchored at cell (l, m)."""
    return [(l, m, 0), (l, m, 1), (l + 1, m, 0),
            (l + 1, m - 1, 1), (l + 1, m - 1, 0), (l, m - 1, 1)]


def _infinite_neighbors(site):
    l, m, c = site
    if c == 0:
        return [(l, m, 1), (l - 1, m, 1), (l, m - 1, 1)]
    return [(l, m, 0), (l + 1, m, 0), (l, m + 1, 0)]


def build_hex_fragment(cells) -> LatticeGraph:
    """Hexagonal lattice fragment spanned by a list of hexagon cells.

    Site set is the union of the faces' sites; bonds are all infinite-lattice
    bonds between included sites.  Sites of degree 2 are classified as edge
    sites, degree 3 as center sites.  ``cells`` must be a non-empty list of
    (l, m) integer pairs; anything else (a bool included) raises
    :class:`LatticeError`.
    """
    if not isinstance(cells, (list, tuple)) or not cells:
        raise LatticeError("fragment needs a non-empty list of hexagon cells")
    for cell in cells:
        if not (isinstance(cell, (list, tuple)) and len(cell) == 2
                and all(isinstance(v, (int, np.integer))
                        and not isinstance(v, bool) for v in cell)):
            raise LatticeError(f"hexagon cell {cell!r} is not a pair of "
                               f"integers")
    cells = [(int(l), int(m)) for l, m in cells]
    if len(set(cells)) != len(cells):
        raise LatticeError("duplicate hexagon cells")

    sites = set()
    for l, m in cells:
        sites.update(hex_face_sites(l, m))
    order = sorted(sites)
    index = {s: i for i, s in enumerate(order)}
    n = len(order)

    edges = _edge_tuple((index[s], index[t]) for s in order
                        for t in _infinite_neighbors(s) if t in index)

    deg = _degrees(n, edges)
    if deg.min() < 2 or deg.max() > 3:
        raise LatticeError("fragment has a site of degree outside {2, 3}")

    # connectivity of the cell patch, via site components
    nbrs: list = [[] for _ in range(n)]
    for i, j in edges:
        nbrs[i].append(j)
        nbrs[j].append(i)
    seen = {0}
    stack = [0]
    while stack:
        i = stack.pop()
        for j in nbrs[i]:
            if j not in seen:
                seen.add(j)
                stack.append(j)
    if len(seen) != n:
        raise LatticeError("fragment cells are not connected")

    # every site must sit in at least one fully included hexagon
    face_of = {s: set() for s in order}
    for l, m in cells:
        for s in hex_face_sites(l, m):
            face_of[s].add((l, m))
    for s in order:
        if not any(all(t in index for t in hex_face_sites(*f)) for f in face_of[s]):
            raise LatticeError(f"site {s} belongs to no complete hexagon")

    info = tuple(SiteInfo(index[s], s[0], s[1], s[2],
                          "edge" if deg[index[s]] == 2 else "center")
                 for s in order)
    return LatticeGraph(n, edges, info, "hex_fragment")


def single_hexagon() -> LatticeGraph:
    return build_hex_fragment([(0, 0)])


def build_square_fragment(width: int, height: int) -> LatticeGraph:
    """Open-boundary square grid; minimal helper for manually covered lattices."""
    if width < 2 or height < 2:
        raise LatticeError("square fragment needs width, height >= 2")
    n = width * height
    check_lattice_memory(n)
    pairs = []
    info = []
    for y in range(height):
        for x in range(width):
            i = x + y * width
            if x + 1 < width:
                pairs.append((i, i + 1))
            if y + 1 < height:
                pairs.append((i, i + width))
    edges = _edge_tuple(pairs)
    deg = _degrees(n, edges)
    for y in range(height):
        for x in range(width):
            i = x + y * width
            info.append(SiteInfo(i, x, y, 0, "edge" if deg[i] == 2 else "center"))
    return LatticeGraph(n, edges, tuple(info), "square_fragment", (width, height))


def ring_lattice(n: int) -> LatticeGraph:
    """n-site cycle (2-regular); used by the exact verification layer."""
    if n < 3:
        raise LatticeError("ring needs at least 3 sites")
    edges = _edge_tuple((i, (i + 1) % n) for i in range(n))
    info = tuple(SiteInfo(i, i, 0, 0, "center") for i in range(n))
    return LatticeGraph(n, edges, info, "ring")


# ---------------------------------------------------------------------------
# site symmetries


def symmetry_generators(lattice: LatticeGraph) -> list:
    """Generating site permutations g (site i -> g[i], edges onto edges):
    the cell translations along x and y of a ``periodic_hex`` lattice; the
    rotation of a connected 2-regular lattice one step along its cycle, from
    site 0 towards its smaller neighbour; none for any other lattice."""
    n = lattice.n_sites
    if lattice.kind == "periodic_hex":
        l_x, l_y = lattice.dims
        cell, c = np.divmod(np.arange(n), 2)
        m, l = np.divmod(cell, l_x)
        return [hex_site_index(l + 1, m, c, l_x, l_y),
                hex_site_index(l, m + 1, c, l_x, l_y)]
    if regular_degree(lattice) != 2:
        return []
    cycle = [0, min(lattice.neighbors(0))]
    while len(cycle) < n:
        nxt = next(j for j in lattice.neighbors(cycle[-1]) if j != cycle[-2])
        if nxt == 0:            # back at the start: more than one cycle
            return []
        cycle.append(nxt)
    rotation = np.empty(n, dtype=np.int64)
    rotation[cycle] = np.roll(cycle, -1)
    return [rotation]


# ---------------------------------------------------------------------------
# JSON interchange


def lattice_to_json(lattice: LatticeGraph) -> str:
    doc = {
        "kind": lattice.kind,
        "dims": list(lattice.dims) if lattice.dims else None,
        "sites": [{"i": s.index, "l_x": s.l_x, "l_y": s.l_y, "c": s.color,
                   "role": s.role} for s in lattice.site_info],
        "edges": lattice.edge_array().tolist(),
    }
    return json.dumps(doc, indent=1, sort_keys=True)


def lattice_from_json(text: str) -> LatticeGraph:
    """Lattice from its JSON document.  Reversed and repeated edge pairs are
    accepted and canonicalised; a self-loop, or an index that is not an
    integer in the site range, raises :class:`LatticeError`."""
    doc = json.loads(text)
    sites = doc["sites"]
    n = len(sites)
    edges = _edge_tuple(doc["edges"])
    info = tuple(SiteInfo(s["i"], s["l_x"], s["l_y"], s["c"], s["role"])
                 for s in sorted(sites, key=lambda s: s["i"]))
    dims = tuple(doc["dims"]) if doc.get("dims") else None
    return LatticeGraph(n, edges, info, doc["kind"], dims)
