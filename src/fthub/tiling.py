"""Tile catalog and section covers.

A tile is a small hopping interaction graph (two-edge star S2, plaquette C4,
four-edge star S4, or a single bond S1) whose adjacency matrix has exactly
two nonzero eigenvalues and eigenvector entries that are signed powers of
1/sqrt(2).  A section is a set of site-disjoint tiles; the tile Hamiltonians
within a section commute, so the section evolves exactly.  A cover
partitions every lattice edge into tiles across an ordered list of sections.

``cover_periodic_hex`` emits the fixed three-section S2 cover used for all
periodic error-norm and gate-count tables: red tiles pair the intra-cell and
x-neighbor bonds on even columns, while blue and gold split the remaining
bonds by a column/row parity rule.  The pattern is translation invariant
with a 4 x 2 cell supercell and exists for all even lattice dimensions.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .lattice import LatticeGraph, hex_site_index

SQRT2 = np.sqrt(2.0)


class CoverError(ValueError):
    """Raised when a valid cover cannot be produced."""


@dataclass(frozen=True)
class TileTemplate:
    kind: str
    local_adjacency: np.ndarray
    local_edges: tuple            # (a, b) pairs, a < b, in row-major order
    eigenvalues: tuple            # per mode, after applying the rotation chain
    eigenvectors: tuple           # (eigenvalue, vector) for the nonzero pairs
    chain: tuple                  # oriented 2-mode rotations, leftmost applied last
    n_sites: int
    n_edges: int

    def nonzero_eigenvalues(self):
        return tuple(v for v in self.eigenvalues if abs(v) > 1e-12)


def _template(kind, adj, eigvals, eigvecs, chain):
    adj = np.array(adj, dtype=float)
    q = adj.shape[0]
    edges = tuple((a, b) for a in range(q) for b in range(a + 1, q) if adj[a, b])
    return TileTemplate(kind, adj, edges, tuple(eigvals),
                        tuple((lam, np.array(v)) for lam, v in eigvecs),
                        tuple(chain), q, len(edges))


_H = 1 / SQRT2
_CATALOG = {
    "S1": _template(
        "S1", [[0, 1], [1, 0]],
        (1, -1),
        [(1, [_H, _H]), (-1, [_H, -_H])],
        [(0, 1)]),
    "S2": _template(
        "S2", [[0, 1, 1], [1, 0, 0], [1, 0, 0]],
        (SQRT2, -SQRT2, 0),
        [(SQRT2, [_H, 0.5, 0.5]), (-SQRT2, [_H, -0.5, -0.5])],
        [(1, 2), (0, 1)]),
    "C4": _template(
        "C4", [[0, 0, 1, 1], [0, 0, 1, 1], [1, 1, 0, 0], [1, 1, 0, 0]],
        (0, 2, -2, 0),
        [(2, [0.5, 0.5, 0.5, 0.5]), (-2, [0.5, 0.5, -0.5, -0.5])],
        [(2, 3), (1, 0), (1, 2)]),
    "S4": _template(
        "S4", [[0, 1, 1, 1, 1], [1, 0, 0, 0, 0], [1, 0, 0, 0, 0],
               [1, 0, 0, 0, 0], [1, 0, 0, 0, 0]],
        (2, 0, -2, 0, 0),
        [(2, [_H, _H / 2, _H / 2, _H / 2, _H / 2]),
         (-2, [_H, -_H / 2, -_H / 2, -_H / 2, -_H / 2])],
        [(3, 4), (2, 1), (2, 3), (0, 2)]),
}


def tile_catalog(kind: str) -> TileTemplate:
    try:
        return _CATALOG[kind]
    except KeyError:
        raise CoverError(f"unknown tile kind {kind!r}") from None


def chain_rotation(template: TileTemplate) -> np.ndarray:
    """Single-particle rotation assembled from the template's 2-mode chain.

    Conjugating the local adjacency by this rotation gives the diagonal of
    ``template.eigenvalues``; the many-body counterpart diagonalizes the tile
    hopping Hamiltonian.
    """
    q = template.n_sites
    u = np.eye(q)
    for (i, j) in reversed(template.chain):
        b = np.eye(q)
        b[i, i] = b[i, j] = b[j, i] = _H
        b[j, j] = -_H
        u = b @ u
    return u


@dataclass(frozen=True)
class Tile:
    kind: str
    sites: tuple    # lattice sites in tile-local order (catalog row order)

    @property
    def edges(self) -> tuple:
        """Lattice edges of the tile, each as (min, max), sorted."""
        s = self.sites
        return tuple(sorted((min(s[a], s[b]), max(s[a], s[b]))
                            for a, b in _CATALOG[self.kind].local_edges))


@dataclass(frozen=True)
class Section:
    color: str
    tiles: tuple


@dataclass(frozen=True)
class SectionCover:
    lattice: LatticeGraph
    sections: tuple

    @property
    def n_sections(self) -> int:
        return len(self.sections)


# ---------------------------------------------------------------------------
# periodic hexagonal cover


def check_cover_dims(l_x: int, l_y: int):
    """Raise ``CoverError`` unless the three-section cover of an l_x x l_y
    periodic hexagonal lattice exists."""
    if l_x % 2 or l_y % 2:
        raise CoverError("three-section S2 cover needs even lattice dimensions")


def cover_periodic_hex(lattice: LatticeGraph) -> SectionCover:
    """Three-section S2 cover of the periodic hexagonal lattice.

    Each section holds N/4 tiles.  Requires even L_x and L_y; odd dimensions
    break the parity rules and raise :class:`CoverError`.
    """
    if lattice.kind != "periodic_hex":
        raise CoverError("cover_periodic_hex needs a periodic_hex lattice")
    check_cover_dims(*lattice.dims)
    l_x, l_y = lattice.dims

    def s(l, m, c):
        return hex_site_index(l, m, c, l_x, l_y)

    blue, red, gold = [], [], []
    for m in range(l_y):
        for l in range(l_x):
            if l % 2 == 0:
                # intra-cell bond + x-neighbor bond, centered on the color-0 site
                red.append(Tile("S2", (s(l, m, 0), s(l, m, 1), s(l - 1, m, 1))))
                # x-neighbor + y-neighbor bonds, centered on the color-1 site
                tile = Tile("S2", (s(l, m, 1), s(l + 1, m, 0), s(l, m + 1, 0)))
                parity = (l // 2) % 2
                (blue if m % 2 != parity else gold).append(tile)
            else:
                # intra-cell + y-neighbor bonds, centered on the color-0 site
                tile = Tile("S2", (s(l, m, 0), s(l, m, 1), s(l, m - 1, 1)))
                parity = ((l - 1) // 2) % 2
                (blue if m % 2 == parity else gold).append(tile)

    cover = SectionCover(lattice, (Section("blue", tuple(blue)),
                                   Section("red", tuple(red)),
                                   Section("gold", tuple(gold))))
    report = validate_cover(lattice, cover)
    if not report.valid:
        raise CoverError("periodic cover construction failed: "
                         + "; ".join(report.violations))
    return cover


# ---------------------------------------------------------------------------
# greedy fragment cover


def cover_hex_fragment(lattice: LatticeGraph) -> SectionCover:
    """Greedy deterministic cover of a hexagonal fragment.

    Sites are swept in index order; two uncovered edges meeting at a
    degree-3 site become an S2 tile, remaining edges become S1 tiles.
    Tiles are then first-fit colored: each goes into the first section it
    shares no site with, and a new section is opened when none fits.  The
    sections are named blue, red, gold, extra, then extra2, extra3, ...
    """
    if lattice.kind not in ("hex_fragment", "square_fragment", "custom"):
        raise CoverError("greedy cover expects a fragment lattice")

    uncovered = set(lattice.edges)
    tiles = []
    deg = lattice.degrees()
    for i in range(lattice.n_sites):
        if deg[i] != 3:
            continue
        mine = sorted(e for e in uncovered if i in e)
        if len(mine) >= 2:
            (a, b), (c, d) = mine[0], mine[1]
            leaves = tuple(sorted({a, b, c, d} - {i}))
            tiles.append(Tile("S2", (i,) + leaves))
            uncovered.discard(mine[0])
            uncovered.discard(mine[1])
    for e in sorted(uncovered):
        tiles.append(Tile("S1", e))

    buckets: list = []
    occupied: list = []
    for tile in sorted(tiles, key=lambda t: t.sites):
        k = next((k for k, sites in enumerate(occupied)
                  if not sites & set(tile.sites)), len(occupied))
        if k == len(occupied):
            buckets.append([])
            occupied.append(set())
        buckets[k].append(tile)
        occupied[k].update(tile.sites)

    colors = (["blue", "red", "gold", "extra"]
              + [f"extra{k}" for k in range(2, len(buckets) - 2)])
    sections = tuple(Section(c, tuple(b)) for c, b in zip(colors, buckets))
    cover = SectionCover(lattice, sections)
    report = validate_cover(lattice, cover)
    if not report.valid:
        raise CoverError("greedy cover failed validation: "
                         + "; ".join(report.violations))
    return cover


# ---------------------------------------------------------------------------
# validation and bookkeeping


@dataclass
class CoverReport:
    valid: bool
    violations: list = field(default_factory=list)


def validate_cover(lattice: LatticeGraph, cover: SectionCover) -> CoverReport:
    """Check disjointness within sections, exact edge coverage, and that every
    tile realizes its catalog interaction graph on the lattice."""
    violations = []
    lattice_edges = set(lattice.edges)
    seen_edges: dict = {}
    for sec in cover.sections:
        used_sites: set = set()
        for tile in sec.tiles:
            if tile.kind not in _CATALOG:
                violations.append(f"unknown tile kind {tile.kind}")
                continue
            tmpl = _CATALOG[tile.kind]
            if len(tile.sites) != tmpl.n_sites:
                violations.append(f"{tile.kind} tile has {len(tile.sites)} sites")
                continue
            if any(i < 0 or i >= lattice.n_sites for i in tile.sites):
                violations.append(f"tile references missing site: {tile.sites}")
                continue
            if len(set(tile.sites)) != len(tile.sites):
                violations.append(f"tile repeats a site: {tile.sites}")
            for i, j in tile.edges:
                if (i, j) not in lattice_edges:
                    violations.append(f"tile edge ({i},{j}) absent from lattice")
                seen_edges[(i, j)] = seen_edges.get((i, j), 0) + 1
            overlap = used_sites & set(tile.sites)
            if overlap:
                violations.append(
                    f"section overlap in {sec.color}: sites {sorted(overlap)}")
            used_sites.update(tile.sites)

    for e, count in sorted(seen_edges.items()):
        if count > 1:
            violations.append(f"duplicate edge {e} covered {count} times")
    for e in lattice.edges:
        if e not in seen_edges:
            violations.append(f"edge {e} not covered")
    return CoverReport(not violations, violations)


def cover_tile_census(cover: SectionCover) -> list:
    """Per-section census: list of (color, {kind: count})."""
    out = []
    for sec in cover.sections:
        counts: dict = {}
        for tile in sec.tiles:
            counts[tile.kind] = counts.get(tile.kind, 0) + 1
        out.append((sec.color, counts))
    return out


def cover_to_json(cover: SectionCover) -> str:
    doc = {"sections": [{"color": sec.color,
                         "tiles": [{"kind": t.kind, "sites": list(t.sites)}
                                   for t in sec.tiles]}
                        for sec in cover.sections]}
    return json.dumps(doc, indent=1, sort_keys=True)


def cover_from_json(text: str, lattice: LatticeGraph) -> SectionCover:
    doc = json.loads(text)
    sections = tuple(
        Section(s["color"], tuple(Tile(t["kind"], tuple(t["sites"]))
                                  for t in s["tiles"]))
        for s in doc["sections"])
    return SectionCover(lattice, sections)
