import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fthub import cli
from fthub.lattice import (LatticeError, LatticeGraph, SiteInfo,
                           build_hex_fragment, build_periodic_hex,
                           build_square_fragment, degree_histogram,
                           lattice_from_json, lattice_to_json, regular_degree,
                           ring_lattice, single_hexagon, symmetry_generators)
from fthub.tiling import Tile, cover_hex_fragment, cover_periodic_hex, validate_cover
from conftest import CHEVRON_CELLS, PARALLELOGRAM_CELLS

HEX44_SHA = "2baddd80280a6a6a8bd0c82827d767782249b954ea671c2272558054264ec0f0"


class TestPeriodicHex:
    def test_4x4_counts(self, hex44):
        assert hex44.n_sites == 32
        assert hex44.n_edges == 48
        assert degree_histogram(hex44) == {3: 32}

    def test_2x2_counts(self):
        # smallest torus: 8 sites, 12 bonds, still simple and 3-regular
        lat = build_periodic_hex(2, 2)
        assert lat.n_sites == 8
        assert lat.n_edges == 12
        assert degree_histogram(lat) == {3: 8}

    @given(st.integers(2, 7), st.integers(2, 7))
    @settings(max_examples=15, deadline=None)
    def test_adjacency_symmetric(self, lx, ly):
        lat = build_periodic_hex(lx, ly)
        assert np.array_equal(lat.adjacency, lat.adjacency.T)
        assert lat.n_sites == 2 * lx * ly
        # handshake: 2 * edges = sum of degrees = 3N
        assert 2 * lat.n_edges == lat.degrees().sum() == 3 * lat.n_sites

    @pytest.mark.parametrize("lx,ly", [(1, 4), (4, 1), (0, 2), (1, 1)])
    def test_too_small_rejected(self, lx, ly):
        with pytest.raises(LatticeError):
            build_periodic_hex(lx, ly)

    def test_site_indexing_convention(self, hex44):
        for s in hex44.site_info:
            assert s.index == 2 * (s.l_x + s.l_y * 4) + s.color

    def test_adjacency_golden_hash(self, hex44):
        digest = hashlib.sha256(hex44.adjacency.astype(np.uint8).tobytes())
        assert digest.hexdigest() == HEX44_SHA


class TestHexFragment:
    def test_single_hexagon(self, hexagon):
        assert hexagon.n_sites == 6
        assert hexagon.n_edges == 6
        assert hexagon.n_edge_sites == 6
        assert hexagon.n_center == 0
        assert degree_histogram(hexagon) == {2: 6}

    def test_parallelogram_census(self, parallelogram):
        assert parallelogram.n_sites == 70
        assert parallelogram.n_edge_sites == 22
        assert parallelogram.n_center == 48

    def test_chevron_census(self, chevron):
        assert chevron.n_sites == 48
        assert chevron.n_edge_sites == 20
        assert chevron.n_center == 28

    @pytest.mark.parametrize("cells", [PARALLELOGRAM_CELLS, CHEVRON_CELLS])
    def test_role_partition(self, cells):
        lat = build_hex_fragment(cells)
        assert lat.n_center + lat.n_edge_sites == lat.n_sites

    def test_disconnected_rejected(self):
        with pytest.raises(LatticeError, match="connected"):
            build_hex_fragment([(0, 0), (5, 5)])

    def test_empty_rejected(self):
        with pytest.raises(LatticeError):
            build_hex_fragment([])

    @pytest.mark.parametrize("cells", [None, 5, "ab", [(0,)], [(0, 0, 0)],
                                       [(0.5, 0)], [(True, 0)], [("a", "b")],
                                       [(0, 0), 7]])
    def test_malformed_cells_rejected(self, cells):
        with pytest.raises(LatticeError):
            build_hex_fragment(cells)

    def test_numpy_integer_cells(self):
        cells = [tuple(np.int64(v) for v in c) for c in CHEVRON_CELLS]
        assert build_hex_fragment(cells).edges == build_hex_fragment(
            CHEVRON_CELLS).edges

    def test_duplicate_cells_rejected(self):
        with pytest.raises(LatticeError, match="duplicate"):
            build_hex_fragment([(0, 0), (0, 0)])


class TestHelpers:
    def test_square_fragment(self):
        lat = build_square_fragment(3, 3)
        assert lat.n_sites == 9
        assert lat.n_edges == 12
        assert degree_histogram(lat) == {2: 4, 3: 4, 4: 1}

    def test_ring(self):
        assert regular_degree(ring_lattice(6)) == 2
        assert ring_lattice(6).kind == "ring"

    def test_regular_degree_none_for_fragment(self, parallelogram):
        assert regular_degree(parallelogram) is None


class TestSymmetryGenerators:
    """Each generator is a permutation of the sites that maps the edge set
    onto itself."""

    @pytest.mark.parametrize("lattice,orders", [
        *[(ring_lattice(n), [n]) for n in range(3, 7)],
        (single_hexagon(), [6]),
        (build_periodic_hex(2, 2), [2, 2]),
        (build_periodic_hex(4, 4), [4, 4]),
        (build_square_fragment(3, 3), [])],
        ids=["ring3", "ring4", "ring5", "ring6", "hexagon", "torus2x2",
             "torus4x4", "square3x3"])
    def test_generators_map_edges_onto_edges(self, lattice, orders):
        n = lattice.n_sites
        gens = symmetry_generators(lattice)
        edges = set(lattice.edges)
        for gen, order in zip(gens, orders, strict=True):
            assert gen.dtype.kind == "i"
            assert sorted(gen.tolist()) == list(range(n))
            assert {(min(a, b), max(a, b)) for a, b in
                    (gen[list(e)].tolist() for e in edges)} == edges
            power, k = gen, 1
            while not np.array_equal(power, np.arange(n)):
                power, k = gen[power], k + 1
            assert k == order

    def test_torus_translations_shift_cells(self):
        lattice = build_periodic_hex(4, 2)
        info = lattice.site_info
        tx, ty = symmetry_generators(lattice)
        for s in info:
            x, y = info[tx[s.index]], info[ty[s.index]]
            assert (x.l_x, x.l_y, x.color) == ((s.l_x + 1) % 4, s.l_y, s.color)
            assert (y.l_x, y.l_y, y.color) == (s.l_x, (s.l_y + 1) % 2, s.color)

    def test_no_rotation_off_a_single_cycle(self):
        two_triangles = LatticeGraph(6, ((0, 1), (0, 2), (1, 2), (3, 4), (3, 5),
                                         (4, 5)), _sites(6), "custom")
        assert regular_degree(two_triangles) == 2
        assert symmetry_generators(two_triangles) == []


class TestJson:
    def test_round_trip(self, hex44):
        text = lattice_to_json(hex44)
        back = lattice_from_json(text)
        assert np.array_equal(back.adjacency, hex44.adjacency)
        assert back.kind == hex44.kind
        assert back.dims == hex44.dims

    def test_edges_sorted(self, hexagon):
        doc = json.loads(lattice_to_json(hexagon))
        assert doc["edges"] == sorted(doc["edges"])

    def test_deterministic(self, hex44):
        assert lattice_to_json(hex44) == lattice_to_json(build_periodic_hex(4, 4))

    @staticmethod
    def _ring4_doc(edges):
        doc = json.loads(lattice_to_json(ring_lattice(4)))
        doc["edges"] = edges
        return json.dumps(doc)

    @pytest.mark.parametrize("edges", [
        [[-1, 0]],           # would wrap to (0, 3) in a dense matrix
        [[0, 4]],            # past the last site
        [[2, 2]],            # self-loop
        [[0, 1.5]],          # would truncate to (0, 1)
    ], ids=["negative", "too_large", "self_loop", "non_integer"])
    def test_bad_edge_rejected(self, edges):
        with pytest.raises(LatticeError, match="edge"):
            lattice_from_json(self._ring4_doc(edges))

    def test_reversed_and_repeated_edges_canonicalised(self):
        text = self._ring4_doc([[1, 0], [0, 1], [3, 2], [1, 2], [0, 3], [2, 1]])
        assert lattice_from_json(text).edges == ((0, 1), (0, 3), (1, 2), (2, 3))


def _sites(n):
    return tuple(SiteInfo(i, i, 0, 0, "center") for i in range(n))


_LATTICES = st.one_of(
    st.tuples(st.integers(2, 7), st.integers(2, 7)).map(
        lambda dims: build_periodic_hex(*dims)),
    st.sampled_from([PARALLELOGRAM_CELLS, CHEVRON_CELLS, [(0, 0)]]).map(
        build_hex_fragment),
    st.integers(3, 8).map(ring_lattice),
    st.tuples(st.integers(2, 5), st.integers(2, 5)).map(
        lambda dims: build_square_fragment(*dims)),
)


# a star's centre, site 0, has the highest degree and is seen first
_LATTICES_OR_STARS = st.one_of(_LATTICES, st.integers(2, 6).map(
    lambda k: LatticeGraph(k + 1, tuple((0, i) for i in range(1, k + 1)),
                           _sites(k + 1), "custom")))


class TestEdgeList:
    @given(_LATTICES)
    @settings(max_examples=40, deadline=None)
    def test_derived_quantities_match_dense_adjacency(self, lat):
        edges = lat.edges
        assert all(i < j for i, j in edges)
        assert list(edges) == sorted(set(edges))
        adj = lat.adjacency
        assert adj.shape == (lat.n_sites, lat.n_sites)
        assert np.array_equal(adj, adj.T) and not adj.diagonal().any()
        assert np.array_equal(lat.degrees(), adj.sum(axis=1))
        assert lat.n_edges == adj.sum() // 2 == len(edges)
        for i in range(lat.n_sites):
            assert lat.neighbors(i) == np.flatnonzero(adj[i]).tolist()

    @given(_LATTICES_OR_STARS)
    @settings(max_examples=40, deadline=None)
    def test_degree_histogram_keys_in_first_seen_order(self, lat):
        counts: dict = {}
        for d in lat.degrees().tolist():
            counts[d] = counts.get(d, 0) + 1
        hist = degree_histogram(lat)
        assert list(hist.items()) == list(counts.items())
        assert {type(v) for v in (*hist, *hist.values())} == {int}

    @pytest.mark.parametrize("edges", [
        ((1, 2), (0, 1)),            # unsorted
        ((0, 1), (0, 1)),            # duplicated
        ((1, 0),),                   # reversed
        ((0, 3),),                   # out of range
        ((-1, 2),),                  # negative
        ((1, 1),),                   # self-loop
    ], ids=["unsorted", "duplicated", "reversed", "out_of_range", "negative",
            "self_loop"])
    def test_bad_edge_tuple_rejected(self, edges):
        with pytest.raises(LatticeError):
            LatticeGraph(3, edges, _sites(3), "custom")

    @pytest.mark.parametrize("edges,message", [
        (((0, 1), (1, 5), (2, 7)), "edge (1, 5) needs integers 0 <= i < j < 3"),
        (((1, 2), (0, 1), (0, 0)), "edge (0, 0) needs integers 0 <= i < j < 3"),
        (((0, 1), (1, 2.0)), "edge (1, 2.0) needs integers 0 <= i < j < 3"),
        (((0, 1), ("1", "2")), "edge (1, 2) needs integers 0 <= i < j < 3"),
        (((0, 1), (1, (2,))), "edge (1, (2,)) needs integers 0 <= i < j < 3"),
        (((1, 2), (0, 1)), "edges must be sorted and distinct"),
        (((0, 2), (0, 2)), "edges must be sorted and distinct"),
    ])
    def test_edge_check_names_the_first_bad_edge(self, edges, message):
        with pytest.raises(LatticeError) as err:
            LatticeGraph(3, edges, _sites(3), "custom")
        assert str(err.value) == message

    @pytest.mark.parametrize("edges", [(), ((False, True),),
                                       ((np.int64(0), np.uint8(2)),),
                                       ((np.uint64(1), np.uint64(2)),)])
    def test_edge_check_accepts_integer_pairs(self, edges):
        lattice = LatticeGraph(3, edges, _sites(3), "custom")
        assert lattice.edge_codes.tolist() == [3 * i + j for i, j in edges]

    @pytest.mark.parametrize("codes", [[5, 1], [1, 1], [3], [-1], [4, 8, 9]],
                             ids=["unsorted", "repeated", "reversed", "negative",
                                  "self_loop"])
    def test_bad_edge_codes_rejected(self, codes):
        # codes of a 3-site lattice: 3 i + j with 0 <= i < j < 3
        with pytest.raises(LatticeError):
            LatticeGraph(3, kind="custom", edge_codes=codes)

    def test_codes_and_tuple_build_the_same_lattice(self):
        lattice = LatticeGraph(3, ((0, 1), (0, 2), (1, 2)), _sites(3))
        from_codes = LatticeGraph(3, edge_codes=[1, 2, 5])
        assert from_codes.edges == lattice.edges
        assert from_codes.edge_codes.tobytes() == lattice.edge_codes.tobytes()
        assert not lattice.edge_codes.flags.writeable
        with pytest.raises(LatticeError, match="site_info"):
            from_codes.site_info

    @pytest.mark.parametrize("edges", [[[0, 1], [1, 2], [2, 3]],
                                       np.array([[0, 1], [1, 2], [2, 3]])],
                             ids=["lists", "array"])
    def test_edges_are_derived_from_the_codes(self, edges):
        # the pairs as given are not kept: a greedy cover hashes the tuples
        lattice = LatticeGraph(4, edges)
        assert lattice.edges == ((0, 1), (1, 2), (2, 3))
        assert validate_cover(lattice, cover_hex_fragment(lattice)).valid

    def test_periodic_bounds_build_no_site_or_tile_objects(self, monkeypatch,
                                                          tmp_path):
        made: dict = {}
        for cls in (SiteInfo, Tile):
            def counting(self, *args, _init=cls.__init__, _name=cls.__name__):
                made[_name] = made.get(_name, 0) + 1
                _init(self, *args)
            monkeypatch.setattr(cls, "__init__", counting)
        out = str(tmp_path / "out")
        for model in ("hubbard", "extended_hubbard"):
            assert cli.main(["bounds", "--L", "22", "--model", model,
                             "--out", out]) == 0
        assert made == {}
        # the counters see what the derived views build
        lattice = build_periodic_hex(4, 4)
        assert len(lattice.site_info) == 32
        assert len(cover_periodic_hex(lattice).sections[0].tiles) == 8
        assert made == {"SiteInfo": 32, "Tile": 8}

    def test_periodic_commands_build_no_dense_matrix(self, monkeypatch, tmp_path):
        # at L = 20 (800 sites) every periodic command works from the edges
        def refuse(*_args):
            raise AssertionError("dense N x N matrix built")
        monkeypatch.setattr(LatticeGraph, "adjacency", property(refuse))
        out = str(tmp_path / "out")
        for argv in (["bounds", "--model", "hubbard"],
                     ["bounds", "--model", "extended_hubbard"],
                     ["lattice"], ["cover"], ["qpe"]):
            assert cli.main(argv + ["--L", "20", "--out", out]) == 0, argv
