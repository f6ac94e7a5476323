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

import functools
import json
from dataclasses import dataclass, field
from itertools import chain, groupby
from json.encoder import encode_basestring_ascii

import numpy as np

from .lattice import LatticeGraph, _doc_field, _json_list, hex_site_index

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


class Section:
    """A colour and its tiles, stored as ``runs``: per maximal run of
    consecutive tiles with one kind and one site count, the kind and a
    read-only (T, q) int64 site array, one tile per row.

    ``Section(color, tiles)`` reads ``Tile`` objects into runs, and raises
    ``CoverError`` on a site that is not a 64-bit integer;
    ``Section(color, runs=...)`` takes the arrays (what ``cover_periodic_hex``
    builds).  ``tiles`` is a read view made from the runs on first read.
    Equality and hashing read ``key``, the colour and the content of the
    runs, so equal tiles in equal order give equal sections."""

    def __init__(self, color: str, tiles=(), *, runs=()):
        self.color = color
        self.runs = _merged_runs([*_tile_runs(tiles), *runs])

    def __repr__(self):
        return f"Section(color={self.color!r}, n_tiles={self.n_tiles})"

    @property
    def n_tiles(self) -> int:
        return sum(len(sites) for _, sites in self.runs)

    def __eq__(self, other):
        return isinstance(other, Section) and self.key == other.key

    def __hash__(self):
        return hash(self.key)

    @functools.cached_property
    def tiles(self) -> tuple:
        return tuple(Tile(kind, tuple(sites)) for kind, sites in self.rows())

    @functools.cached_property
    def key(self) -> tuple:
        """The colour and, per run, the kind, shape and site bytes."""
        return self.color, tuple((kind, arr.shape, arr.tobytes())
                                 for kind, arr in self.runs)

    def rows(self) -> list:
        """(kind, site list) of each tile in order, read from the runs
        without building ``Tile`` objects."""
        return [(kind, row) for kind, arr in self.runs for row in arr.tolist()]

    def edge_array(self) -> np.ndarray:
        """(E, 2) int64 array of the lattice edges (min, max) of every tile,
        run by run and tile by tile.  Needs catalog kinds."""
        parts = [np.zeros((0, 2), dtype=np.int64)]
        for kind, arr in self.runs:
            a, b = np.array(tile_catalog(kind).local_edges).reshape(-1, 2).T
            parts.append(np.stack([np.minimum(arr[:, a], arr[:, b]).ravel(),
                                   np.maximum(arr[:, a], arr[:, b]).ravel()],
                                  axis=1))
        return np.concatenate(parts)


def _is_site(i) -> bool:
    """Whether ``i`` can be a tile site: an integer, not a bool, in the
    int64 range.  Whether it is a site of the lattice is left to
    ``validate_cover``."""
    return (isinstance(i, (int, np.integer)) and not isinstance(i, bool)
            and -2**63 <= i < 2**63)


def _tile_runs(tiles) -> list:
    """``Tile`` objects as (kind, (T, q) int64 site array) runs, one per run
    of consecutive tiles with one kind and one site count; CoverError on a
    site that is not a 64-bit integer."""
    runs = []
    for (kind, q), group in groupby(tiles, key=lambda t: (t.kind, len(t.sites))):
        sites = [t.sites for t in group]
        if not all(map(_is_site, chain.from_iterable(sites))):
            raise CoverError(f"{kind} tile sites must be 64-bit integers")
        runs.append((kind, np.array(sites, dtype=np.int64).reshape(len(sites), q)))
    return runs


def _merged_runs(runs) -> tuple:
    """``runs`` as read-only int64 arrays, empty runs dropped and adjacent
    runs of one kind and one site count joined, so that equal tiles give
    equal runs."""
    merged: list = []
    for kind, arr in runs:
        arr = np.array(arr, dtype=np.int64)
        if arr.ndim != 2:
            raise CoverError(f"a run of {kind} tiles needs a (T, q) site array")
        if not len(arr):
            continue
        if merged and (merged[-1][0], merged[-1][1].shape[1]) == (kind, arr.shape[1]):
            arr = np.concatenate([merged.pop()[1], arr])
        arr.flags.writeable = False
        merged.append((kind, arr))
    return tuple(merged)


@dataclass(frozen=True)
class SectionCover:
    lattice: LatticeGraph
    sections: tuple

    @property
    def n_sections(self) -> int:
        return len(self.sections)

    @functools.cached_property
    def key(self) -> tuple:
        return self.lattice.key, tuple(sec.key for sec in self.sections)


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
    break the parity rules and raise :class:`CoverError`.  The sections are
    built, and checked with ``check_cover``, on first read, which a memo
    hit never makes: they follow from the lattice, whose key is the cover's
    memo ``key``.  A failed check raises inside the memoized call.
    """
    if lattice.kind != "periodic_hex":
        raise CoverError("cover_periodic_hex needs a periodic_hex lattice")
    check_cover_dims(*lattice.dims)
    return _PeriodicCover(lattice)


class _PeriodicCover(SectionCover):
    """A ``cover_periodic_hex`` cover, its sections built on first read."""

    n_sections = 3

    def __init__(self, lattice: LatticeGraph):
        object.__setattr__(self, "lattice", lattice)
        object.__setattr__(self, "key", ("cover_periodic_hex", lattice.key))

    @functools.cached_property
    def sections(self) -> tuple:
        l_x, l_y = self.lattice.dims
        # cells in m-major, l-minor order; l_x is even, so the even columns
        # are the even cells
        m, l = np.divmod(np.arange(l_x * l_y), l_x)

        def s(dl, dm, c):
            return hex_site_index(l + dl, m + dm, c, l_x, l_y)

        # even columns: intra-cell + x-neighbor bonds on the color-0 site
        # (red), and x-neighbor + y-neighbor bonds on the color-1 site; odd
        # columns: intra-cell + y-neighbor bonds on the color-0 site.  Blue
        # takes the cells with m + l // 2 + l odd.
        red = np.stack([s(0, 0, 0), s(0, 0, 1), s(-1, 0, 1)], axis=1)[::2]
        other = np.stack([s(0, 0, 0), s(0, 0, 1), s(0, -1, 1)], axis=1)
        other[::2] = np.stack([s(0, 0, 1), s(1, 0, 0), s(0, 1, 0)], axis=1)[::2]
        parity = (m + l // 2 + l) % 2

        sections = (Section("blue", runs=[("S2", other[np.flatnonzero(parity)])]),
                    Section("red", runs=[("S2", red)]),
                    Section("gold", runs=[("S2", other[np.flatnonzero(1 - parity)])]))
        check_cover(self.lattice, SectionCover(self.lattice, sections),
                    "periodic cover construction failed")
        return sections


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
    if lattice.kind not in ("hex_fragment", "square_fragment", "ring", "custom"):
        raise CoverError("greedy cover expects a fragment lattice")

    uncovered = set(lattice.edges)
    incident: list = [[] for _ in range(lattice.n_sites)]
    for e in lattice.edges:     # sorted, so each list is in edge order
        incident[e[0]].append(e)
        incident[e[1]].append(e)
    tiles = []
    deg = lattice.degrees()
    for i in range(lattice.n_sites):
        if deg[i] != 3:
            continue
        mine = [e for e in incident[i] if e in uncovered]
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
    check_cover(lattice, cover, "greedy cover failed validation")
    return cover


# ---------------------------------------------------------------------------
# validation and bookkeeping


@dataclass
class CoverReport:
    valid: bool
    violations: list = field(default_factory=list)


def validate_cover(lattice: LatticeGraph, cover: SectionCover) -> CoverReport:
    """Check disjointness within sections, exact edge coverage, and that every
    tile realizes its catalog interaction graph on the lattice.

    ``_is_valid`` decides a valid cover on the section runs.  Only an
    invalid cover is walked tile by tile to list its violations: a tile of
    unknown kind, with the wrong number of sites, or with a site that is not
    a lattice site index gets that one violation; any other tile may repeat
    a site, have edges absent from the lattice, or share sites with earlier
    tiles of its section, and its edges count toward edge coverage.
    Violations are listed tile by tile in cover order, then duplicate edges
    in edge order, then uncovered lattice edges."""
    if _is_valid(lattice, cover):
        return CoverReport(True)
    violations = []
    lattice_edges = set(lattice.edges)
    seen_edges: dict = {}
    for sec in cover.sections:
        used_sites: set = set()
        for tile in sec.tiles:
            tmpl = _CATALOG.get(tile.kind)
            if tmpl is None:
                violations.append(f"unknown tile kind {tile.kind}")
                continue
            if len(tile.sites) != tmpl.n_sites:
                violations.append(f"{tile.kind} tile has {len(tile.sites)} sites")
                continue
            if not all(0 <= i < lattice.n_sites for i in tile.sites):
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

    violations.extend(f"duplicate edge {e} covered {c} times"
                      for e, c in sorted(seen_edges.items()) if c > 1)
    violations.extend(f"edge {e} not covered"
                      for e in lattice.edges if e not in seen_edges)
    return CoverReport(not violations, violations)


def check_cover(lattice: LatticeGraph, cover: SectionCover, what: str):
    """Raise ``CoverError`` with ``what`` and the violations of an invalid
    cover."""
    report = validate_cover(lattice, cover)
    if not report.valid:
        raise CoverError(f"{what}: " + "; ".join(report.violations))


def _is_valid(lattice: LatticeGraph, cover: SectionCover) -> bool:
    """Whether every run holds catalog tiles of the catalog width on lattice
    sites, no section holds a site twice, and the tile edges are the
    lattice edges, each once."""
    n = lattice.n_sites
    lo, hi = [np.zeros(0, np.int64)], [np.zeros(0, np.int64)]
    for sec in cover.sections:
        sites = [np.zeros(0, np.int64)]
        for kind, arr in sec.runs:
            tmpl = _CATALOG.get(kind)
            # merged runs are non-empty, so a run of the catalog width has sites
            if tmpl is None or arr.shape[1] != tmpl.n_sites:
                return False
            if int(arr.min()) < 0 or int(arr.max()) >= n:
                return False
            sites.append(arr.ravel())
            a, b = np.array(tmpl.local_edges).T
            lo.append(np.minimum(arr[:, a], arr[:, b]).ravel())
            hi.append(np.maximum(arr[:, a], arr[:, b]).ravel())
        if int(np.bincount(np.concatenate(sites)).max(initial=0)) > 1:
            return False
    at = lattice.edge_positions(np.concatenate(lo), np.concatenate(hi))
    return (at.size == lattice.n_edges and int(at.min(initial=0)) >= 0
            and int(np.bincount(at).max(initial=0)) <= 1)


def cover_tile_census(cover: SectionCover) -> list:
    """Per-section census: list of (color, {kind: count})."""
    out = []
    for sec in cover.sections:
        counts: dict = {}
        for kind, sites in sec.runs:
            counts[kind] = counts.get(kind, 0) + len(sites)
        out.append((sec.color, counts))
    return out


def cover_to_json(cover: SectionCover) -> str:
    """The text of ``json.dumps(doc, indent=1, sort_keys=True)``, built
    from templates as in ``lattice_to_json``."""
    sections = [
        '{{\n   "color": {},\n   "tiles": {}\n  }}'.format(
            encode_basestring_ascii(sec.color),
            _json_list(['{{\n     "kind": {},\n     "sites": {}\n    }}'.format(
                encode_basestring_ascii(kind), _json_list(list(map(str, sites)), 5))
                for kind, sites in sec.rows()], 3))
        for sec in cover.sections]
    return f'{{\n "sections": {_json_list(sections, 1)}\n}}'


def cover_from_json(text: str, lattice: LatticeGraph) -> SectionCover:
    """The cover of a ``cover_to_json`` document.  CoverError names the
    first field of the wrong shape, and a sites list that holds anything but
    64-bit integers; what the tiles hold (kind names, site indices) is left
    to ``validate_cover``."""
    doc, field = json.loads(text), functools.partial(_doc_field, error=CoverError)
    sections = []
    for s, sec in enumerate(field(doc, "sections", list, "cover document: ")):
        where = f"cover document: sections[{s}]."
        tiles = []
        for k, t in enumerate(field(sec, "tiles", list, where)):
            at = f"{where}tiles[{k}]."
            kind, sites = field(t, "kind", str, at), field(t, "sites", list, at)
            if not all(map(_is_site, sites)):
                raise CoverError(f"{at}sites must be a list of integers")
            tiles.append(Tile(kind, tuple(sites)))
        sections.append(Section(field(sec, "color", str, where), tiles))
    return SectionCover(lattice, tuple(sections))
