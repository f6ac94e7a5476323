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
"""

from __future__ import annotations

import functools
import json
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


@dataclass(frozen=True, eq=False)
class LatticeGraph:
    n_sites: int
    adjacency: np.ndarray          # symmetric 0/1, zero diagonal
    site_info: tuple
    kind: str                      # periodic_hex | hex_fragment | square_fragment | custom
    dims: tuple | None = None      # (L_x, L_y) for periodic builds

    def __post_init__(self):
        a = self.adjacency
        if a.shape != (self.n_sites, self.n_sites):
            raise LatticeError("adjacency shape mismatch")
        if not np.array_equal(a, a.T):
            raise LatticeError("adjacency must be symmetric")
        if np.any(np.diag(a) != 0):
            raise LatticeError("adjacency must have zero diagonal")
        if not np.isin(a, (0, 1)).all():
            raise LatticeError("adjacency entries must be 0/1")

    @functools.cached_property
    def edges(self) -> tuple:
        """Sorted (i, j) pairs with i < j; computed once, as it scans the
        dense adjacency."""
        ii, jj = np.divmod(np.flatnonzero(self.adjacency), self.n_sites)
        upper = ii < jj
        return tuple(sorted(zip(ii[upper].tolist(), jj[upper].tolist())))

    @property
    def n_edges(self) -> int:
        return int(self.adjacency.sum()) // 2

    def degrees(self) -> np.ndarray:
        return self.adjacency.sum(axis=1).astype(int)

    def neighbors(self, i: int) -> list:
        return np.nonzero(self.adjacency[i])[0].tolist()

    @property
    def n_center(self) -> int:
        return sum(1 for s in self.site_info if s.role == "center")

    @property
    def n_edge_sites(self) -> int:
        return sum(1 for s in self.site_info if s.role == "edge")


def degree_histogram(lattice: LatticeGraph) -> dict:
    """Map degree -> number of sites with that degree."""
    hist: dict = {}
    for d in lattice.degrees():
        hist[int(d)] = hist.get(int(d), 0) + 1
    return hist


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


def build_periodic_hex(l_x: int, l_y: int) -> LatticeGraph:
    """Periodic hexagonal lattice with 2 * l_x * l_y sites, 3-regular."""
    if l_x < 2 or l_y < 2:
        raise LatticeError("periodic hex needs l_x >= 2 and l_y >= 2 "
                           "(smaller tori create multi-edges)")
    n = 2 * l_x * l_y
    adj = np.zeros((n, n), dtype=np.int64)
    info = []
    for m in range(l_y):
        for l in range(l_x):
            for c in (0, 1):
                info.append(SiteInfo(hex_site_index(l, m, c, l_x, l_y), l, m, c, "center"))
    for m in range(l_y):
        for l in range(l_x):
            i = hex_site_index(l, m, 0, l_x, l_y)
            for dl, dm in ((0, 0), (-1, 0), (0, -1)):
                j = hex_site_index(l + dl, m + dm, 1, l_x, l_y)
                adj[i, j] = adj[j, i] = 1
    info.sort(key=lambda s: s.index)
    return LatticeGraph(n, adj, tuple(info), "periodic_hex", (l_x, l_y))


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
    sites, degree 3 as center sites.
    """
    cells = [tuple(c) for c in cells]
    if not cells:
        raise LatticeError("fragment needs at least one hexagon cell")
    if len(set(cells)) != len(cells):
        raise LatticeError("duplicate hexagon cells")

    sites = set()
    for l, m in cells:
        sites.update(hex_face_sites(l, m))
    order = sorted(sites)
    index = {s: i for i, s in enumerate(order)}
    n = len(order)

    adj = np.zeros((n, n), dtype=np.int64)
    for s in order:
        for t in _infinite_neighbors(s):
            if t in index:
                adj[index[s], index[t]] = adj[index[t], index[s]] = 1

    deg = adj.sum(axis=1)
    if deg.min() < 2 or deg.max() > 3:
        raise LatticeError("fragment has a site of degree outside {2, 3}")

    # connectivity of the cell patch, via site components
    seen = {0}
    stack = [0]
    while stack:
        i = stack.pop()
        for j in np.nonzero(adj[i])[0]:
            if int(j) not in seen:
                seen.add(int(j))
                stack.append(int(j))
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
    return LatticeGraph(n, adj, info, "hex_fragment")


def single_hexagon() -> LatticeGraph:
    return build_hex_fragment([(0, 0)])


def build_square_fragment(width: int, height: int) -> LatticeGraph:
    """Open-boundary square grid; minimal helper for manually covered lattices."""
    if width < 2 or height < 2:
        raise LatticeError("square fragment needs width, height >= 2")
    n = width * height
    adj = np.zeros((n, n), dtype=np.int64)
    info = []
    for y in range(height):
        for x in range(width):
            i = x + y * width
            if x + 1 < width:
                adj[i, i + 1] = adj[i + 1, i] = 1
            if y + 1 < height:
                adj[i, i + width] = adj[i + width, i] = 1
    deg = adj.sum(axis=1)
    for y in range(height):
        for x in range(width):
            i = x + y * width
            info.append(SiteInfo(i, x, y, 0, "edge" if deg[i] == 2 else "center"))
    return LatticeGraph(n, adj, tuple(info), "square_fragment", (width, height))


def ring_lattice(n: int) -> LatticeGraph:
    """n-site cycle (2-regular); used by the exact verification layer."""
    if n < 3:
        raise LatticeError("ring needs at least 3 sites")
    adj = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        adj[i, (i + 1) % n] = adj[(i + 1) % n, i] = 1
    info = tuple(SiteInfo(i, i, 0, 0, "center") for i in range(n))
    return LatticeGraph(n, adj, info, "custom")


# ---------------------------------------------------------------------------
# JSON interchange


def lattice_to_json(lattice: LatticeGraph) -> str:
    doc = {
        "kind": lattice.kind,
        "dims": list(lattice.dims) if lattice.dims else None,
        "sites": [{"i": s.index, "l_x": s.l_x, "l_y": s.l_y, "c": s.color,
                   "role": s.role} for s in lattice.site_info],
        "edges": [[int(i), int(j)] for i, j in lattice.edges],
    }
    return json.dumps(doc, indent=1, sort_keys=True)


def lattice_from_json(text: str) -> LatticeGraph:
    doc = json.loads(text)
    sites = doc["sites"]
    n = len(sites)
    adj = np.zeros((n, n), dtype=np.int64)
    for i, j in doc["edges"]:
        adj[i, j] = adj[j, i] = 1
    info = tuple(SiteInfo(s["i"], s["l_x"], s["l_y"], s["c"], s["role"])
                 for s in sorted(sites, key=lambda s: s["i"]))
    dims = tuple(doc["dims"]) if doc.get("dims") else None
    return LatticeGraph(n, adj, info, doc["kind"], dims)
