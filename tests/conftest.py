import json

import numpy as np
import pytest

from fthub import oracle, qpe, trotterbounds
from fthub.lattice import (LatticeGraph, SiteInfo, _edge_tuple, build_hex_fragment,
                           build_periodic_hex, check_periodic_dims, hex_site_index,
                           ring_lattice, single_hexagon)
from fthub.tiling import (_CATALOG, CoverError, CoverReport, Section, SectionCover, Tile,
                          check_cover_dims, cover_hex_fragment, cover_periodic_hex)
from fthub.pauli import PauliSum, _parity
from fthub.qubitization import walk_costs
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


# Pauli-sum helpers that only the tests use


def pauli_word(n_qubits, word, coeff=1.0):
    """coeff times the Pauli word ``word`` (qubit -> 'X' | 'Y' | 'Z')."""
    x = z = 0
    phase = 1.0 + 0j
    for q, p in word.items():
        if p == "X":
            x |= 1 << q
        elif p == "Z":
            z |= 1 << q
        elif p == "Y":
            x |= 1 << q
            z |= 1 << q
            phase *= 1j
        else:
            raise ValueError(f"bad Pauli letter {p!r}")
    return PauliSum(n_qubits, {(x, z): coeff * phase})


def identity(n_qubits, coeff=1.0):
    return PauliSum(n_qubits, {(0, 0): coeff})


def dagger(op):
    """The adjoint: (X^x Z^z)^H = Z^z X^x = (-1)^(x.z) X^x Z^z."""
    out = PauliSum(op.n_qubits)
    for (x, z), c in op.terms.items():
        sign = -1.0 if _parity(x & z) else 1.0
        out._iadd_term((x, z), sign * np.conj(c))
    return out


def is_zero(op, tol=1e-12):
    return all(abs(c) <= tol for c in op.terms.values())


def is_hermitian(op, tol=1e-12):
    return is_zero(op - dagger(op), tol)


def number_op(n_qubits, p):
    """The occupation number a+_p a_p = (1 - Z_p) / 2."""
    return PauliSum(n_qubits, {(0, 0): 0.5, (0, 1 << p): -0.5})


def exact_spectral_norm(op):
    """Largest |eigenvalue| of a Hermitian Pauli sum: the generic reference
    of the oracle's sector-block norms.

    The operator is compiled to its X-mask groups and split into its
    conserved (N_up, N_down) sector blocks, each diagonalized densely, with
    no symmetry map; an operator that mixes sectors is one block over the
    whole space.
    """
    if is_zero(op):
        return 0.0
    if not is_hermitian(op):
        raise ValueError("operator must be Hermitian")
    groups = op.compile()
    labels = oracle._spin_labels(op.n_qubits)
    if oracle._leak(groups, labels) > oracle.LEAK_RTOL:
        labels = np.zeros_like(labels)
    return max(oracle._peak(oracle._block(groups, oracle._plain(m),
                                          labels.size))
               for m in oracle._sector_sets(labels))


# loop references of the periodic lattice, its cover, the greedy fragment
# cover and cover validation: the package builds them on integer arrays or
# incidence lists and decides validity on the arrays, and the tests check
# that these give the same objects and the same violations


def loop_build_periodic_hex(l_x, l_y):
    check_periodic_dims(l_x, l_y)
    n = 2 * l_x * l_y
    info = []
    for m in range(l_y):
        for l in range(l_x):
            for c in (0, 1):
                info.append(SiteInfo(hex_site_index(l, m, c, l_x, l_y), l, m, c, "center"))
    edges = _edge_tuple((hex_site_index(l, m, 0, l_x, l_y),
                         hex_site_index(l + dl, m + dm, 1, l_x, l_y))
                        for m in range(l_y) for l in range(l_x)
                        for dl, dm in ((0, 0), (-1, 0), (0, -1)))
    info.sort(key=lambda s: s.index)
    return LatticeGraph(n, edges, tuple(info), "periodic_hex", (l_x, l_y))


def loop_cover_periodic_hex(lattice):
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
                red.append(Tile("S2", (s(l, m, 0), s(l, m, 1), s(l - 1, m, 1))))
                tile = Tile("S2", (s(l, m, 1), s(l + 1, m, 0), s(l, m + 1, 0)))
                parity = (l // 2) % 2
                (blue if m % 2 != parity else gold).append(tile)
            else:
                tile = Tile("S2", (s(l, m, 0), s(l, m, 1), s(l, m - 1, 1)))
                parity = ((l - 1) // 2) % 2
                (blue if m % 2 == parity else gold).append(tile)

    cover = SectionCover(lattice, (Section("blue", tuple(blue)),
                                   Section("red", tuple(red)),
                                   Section("gold", tuple(gold))))
    report = loop_validate_cover(lattice, cover)
    if not report.valid:
        raise CoverError("periodic cover construction failed: "
                         + "; ".join(report.violations))
    return cover


def loop_cover_hex_fragment(lattice):
    if lattice.kind not in ("hex_fragment", "square_fragment", "ring", "custom"):
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
    report = loop_validate_cover(lattice, cover)
    if not report.valid:
        raise CoverError("greedy cover failed validation: "
                         + "; ".join(report.violations))
    return cover


def loop_validate_cover(lattice, cover):
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


# json references of the JSON writers, which build the same text from
# templates


def json_lattice_to_json(lattice):
    doc = {
        "kind": lattice.kind,
        "dims": list(lattice.dims) if lattice.dims else None,
        "sites": [{"i": s.index, "l_x": s.l_x, "l_y": s.l_y, "c": s.color,
                   "role": s.role} for s in lattice.site_info],
        "edges": lattice.edge_array().tolist(),
    }
    return json.dumps(doc, indent=1, sort_keys=True)


def json_cover_to_json(cover):
    doc = {"sections": [{"color": sec.color,
                         "tiles": [{"kind": tile.kind, "sites": list(tile.sites)}
                                   for tile in sec.tiles]}
                        for sec in cover.sections]}
    return json.dumps(doc, indent=1, sort_keys=True)


# loop reference of ``qpe.estimate_rows``: the N-keyed sweep it replaced,
# which took the error norms by N and ran once per eps rule


def loop_crossover_sweep(w_by_n, rule_name, eps_rule, l_values,
                         model="hubbard", alpha_rules=tuple(qpe.ALPHA_RULES),
                         tau=1.0, u=4.0, theta=10, gamma=40):
    rows = []
    for l in l_values:
        n = 2 * l * l
        eps = eps_rule(n)
        for rule in alpha_rules:
            step = qpe.hubbard_step(n, model, rule)
            est = qpe.trotter_qpe(step, w_by_n[n], eps)
            rows.append(qpe._row(est, n, l, rule, rule_name))
        est = qpe.qubitized_qpe(walk_costs(l, tau, u, theta, gamma), eps)
        rows.append(qpe._row(est, n, l, "-", rule_name))
    return rows


def clear_oracle_memos():
    """Empty the oracle's sector-analysis memo.  A test that patches an
    oracle function the analysis calls (``_symmetry_maps``,
    ``_adapted_bases``, ``jw_section``, ``jw_neighbor``, ...) clears it
    before and after the patched calls, so no entry crosses the patch."""
    oracle._sector_bases.cache_clear()


def clear_geometry_memos():
    """Empty every memoized norm of ``trotterbounds`` and the oracle's
    sector-analysis memo."""
    for memo in vars(trotterbounds).values():
        if hasattr(memo, "cache_clear"):
            memo.cache_clear()
    clear_oracle_memos()


@pytest.fixture(autouse=True)
def cold_geometry_memo():
    """Every test starts with empty geometry memos: a value memoized by an
    earlier test, possibly on another evaluation path (one dense block
    against Bloch blocks) or under a patched oracle function, would
    otherwise stand in for the path under test."""
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
def ring5():
    return ring_lattice(5)


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
