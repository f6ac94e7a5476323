import math

import numpy as np
import pytest

from fthub.lattice import (LatticeGraph, SiteInfo, build_periodic_hex,
                           build_square_fragment)
from fthub.tiling import (CoverError, Section, SectionCover, Tile, chain_rotation,
                          cover_from_json, cover_hex_fragment, cover_periodic_hex,
                          cover_tile_census, cover_to_json, tile_catalog,
                          validate_cover)

SQRT2 = math.sqrt(2.0)


class TestCatalog:
    @pytest.mark.parametrize("kind,nonzero", [
        ("S1", (-1.0, 1.0)),
        ("S2", (-SQRT2, SQRT2)),
        ("C4", (-2.0, 2.0)),
        ("S4", (-2.0, 2.0)),
    ])
    def test_nonzero_eigenvalues(self, kind, nonzero):
        tmpl = tile_catalog(kind)
        assert sorted(tmpl.nonzero_eigenvalues()) == pytest.approx(nonzero)
        assert len(tmpl.nonzero_eigenvalues()) == 2

    @pytest.mark.parametrize("kind,zeros", [("S1", 0), ("S2", 1), ("C4", 2), ("S4", 3)])
    def test_zero_eigenvalue_count(self, kind, zeros):
        tmpl = tile_catalog(kind)
        assert sum(1 for v in tmpl.eigenvalues if v == 0) == zeros

    @pytest.mark.parametrize("kind", ["S1", "S2", "C4", "S4"])
    def test_eigenvector_entries_are_sqrt2_powers(self, kind):
        for _lam, vec in tile_catalog(kind).eigenvectors:
            for entry in vec:
                log = math.log(abs(entry)) / math.log(1 / SQRT2)
                assert abs(log - round(log)) < 1e-12

    @pytest.mark.parametrize("kind", ["S1", "S2", "C4", "S4"])
    def test_spectral_reconstruction(self, kind):
        tmpl = tile_catalog(kind)
        rebuilt = np.zeros_like(tmpl.local_adjacency)
        for lam, vec in tmpl.eigenvectors:
            rebuilt += lam * np.outer(vec, vec)
        assert np.abs(rebuilt - tmpl.local_adjacency).max() <= 1e-12

    @pytest.mark.parametrize("kind", ["S1", "S2", "C4", "S4"])
    def test_chain_diagonalizes(self, kind):
        tmpl = tile_catalog(kind)
        u = chain_rotation(tmpl)
        diag = u.T @ tmpl.local_adjacency @ u
        assert np.abs(diag - np.diag(tmpl.eigenvalues)).max() <= 1e-12

    @pytest.mark.parametrize("kind", ["S1", "S2", "C4", "S4"])
    def test_tile_edges_follow_local_adjacency(self, kind):
        tmpl = tile_catalog(kind)
        adj, q = tmpl.local_adjacency, tmpl.n_sites
        assert tmpl.n_edges == len(tmpl.local_edges)
        rng = np.random.default_rng(5)
        for _ in range(20):
            sites = tuple(int(i) for i in rng.permutation(40)[:q])
            scanned = sorted((min(sites[a], sites[b]), max(sites[a], sites[b]))
                             for a in range(q) for b in range(a + 1, q)
                             if adj[a, b])
            assert Tile(kind, sites).edges == tuple(scanned)

    def test_unknown_kind(self):
        with pytest.raises(CoverError):
            tile_catalog("C8")


class TestPeriodicCover:
    @pytest.mark.parametrize("l,per_section", [(4, 8), (6, 18)])
    def test_section_sizes(self, l, per_section):
        lat = build_periodic_hex(l, l)
        cover = cover_periodic_hex(lat)
        assert cover.n_sections == 3
        assert [s.color for s in cover.sections] == ["blue", "red", "gold"]
        for sec in cover.sections:
            assert len(sec.tiles) == per_section
            assert all(t.kind == "S2" for t in sec.tiles)

    @pytest.mark.parametrize("l", [4, 6, 8, 10])
    def test_valid(self, l):
        lat = build_periodic_hex(l, l)
        report = validate_cover(lat, cover_periodic_hex(lat))
        assert report.valid, report.violations

    def test_odd_dimension_rejected(self):
        lat = build_periodic_hex(5, 4)
        with pytest.raises(CoverError):
            cover_periodic_hex(lat)

    def test_census(self, hex44, cover44):
        census = cover_tile_census(cover44)
        assert census == [("blue", {"S2": 8}), ("red", {"S2": 8}),
                          ("gold", {"S2": 8})]

    def test_edge_budget(self, hex44, cover44):
        # both spin sectors: 2 * (edges per tile * count) summed = 2 * edges
        total = 0
        for sec in cover44.sections:
            for tile in sec.tiles:
                total += 2 * len(tile.edges)
        assert total == 2 * hex44.n_edges


class TestFragmentCover:
    def test_single_hexagon(self, hexagon, hexagon_cover):
        report = validate_cover(hexagon, hexagon_cover)
        assert report.valid, report.violations
        # six edges, no degree-3 sites: all-S1 cover, first-fit packs two
        # alternating sections of three
        sizes = sorted(len(s.tiles) for s in hexagon_cover.sections)
        assert sizes == [3, 3]
        assert all(t.kind == "S1" for s in hexagon_cover.sections for t in s.tiles)

    @pytest.mark.parametrize("fixture", ["parallelogram", "chevron"])
    def test_fragment_covers_valid(self, fixture, request):
        lat = request.getfixturevalue(fixture)
        cover = cover_hex_fragment(lat)
        report = validate_cover(lat, cover)
        assert report.valid, report.violations
        assert cover.n_sections <= 4

    @pytest.mark.parametrize("l", range(4, 11))
    def test_square_fragment_opens_a_fifth_section(self, l):
        # first-fit needs a fifth section on the square fragment from L = 5
        lat = build_square_fragment(l, l)
        cover = cover_hex_fragment(lat)
        report = validate_cover(lat, cover)
        assert report.valid, report.violations
        expected = ["blue", "red", "gold", "extra", "extra2"]
        assert [s.color for s in cover.sections] == expected[:4 if l == 4 else 5]

    def test_sections_past_the_fifth_are_numbered(self):
        # every edge of a six-leaf star meets the centre: one section each
        info = tuple(SiteInfo(i, i, 0, int(i > 0), "edge") for i in range(7))
        star = LatticeGraph(7, tuple((0, i) for i in range(1, 7)), info,
                            "custom")
        cover = cover_hex_fragment(star)
        assert validate_cover(star, cover).valid
        assert [s.color for s in cover.sections] == [
            "blue", "red", "gold", "extra", "extra2", "extra3"]

    def test_s2_tiles_cover_two_edges(self, parallelogram):
        cover = cover_hex_fragment(parallelogram)
        n_s2 = sum(1 for s in cover.sections for t in s.tiles if t.kind == "S2")
        n_s1 = sum(1 for s in cover.sections for t in s.tiles if t.kind == "S1")
        assert 2 * n_s2 + n_s1 == parallelogram.n_edges


class TestValidate:
    def test_duplicate_edge_flagged(self, hexagon):
        tiles = (Tile("S1", (0, 1)), Tile("S1", (0, 1)))
        cover = SectionCover(hexagon, (Section("blue", tiles[:1]),
                                       Section("red", tiles[1:])))
        report = validate_cover(hexagon, cover)
        assert not report.valid
        assert any("duplicate edge" in v for v in report.violations)

    def test_section_overlap_flagged(self, hexagon):
        cover = SectionCover(hexagon, (
            Section("blue", (Tile("S1", (0, 1)), Tile("S1", (1, 2)))),))
        report = validate_cover(hexagon, cover)
        assert not report.valid
        assert any("section overlap" in v for v in report.violations)

    def test_missing_edge_flagged(self, hexagon):
        cover = SectionCover(hexagon, (Section("blue", (Tile("S1", (0, 1)),)),))
        report = validate_cover(hexagon, cover)
        assert any("not covered" in v for v in report.violations)

    def test_phantom_edge_flagged(self, hexagon):
        # sites 0 and 2 are not adjacent on the hexagon
        cover = SectionCover(hexagon, (Section("blue", (Tile("S1", (0, 2)),)),))
        report = validate_cover(hexagon, cover)
        assert any("absent from lattice" in v for v in report.violations)


class TestManualCover:
    def test_mixed_square_section_census(self):
        """A manual square-lattice section mixing plaquettes and single bonds:
        8 S1 tiles plus 2 C4 tiles, all site-disjoint."""
        from fthub.lattice import build_square_fragment
        lat = build_square_fragment(6, 6)

        def s(x, y):
            return x + 6 * y

        def plaquette(x, y):
            # catalog order: two opposite corners first, then the other two
            return Tile("C4", (s(x, y), s(x + 1, y + 1), s(x + 1, y), s(x, y + 1)))

        tiles = [plaquette(0, 0), plaquette(3, 3)]
        for x, y in [(3, 0), (2, 1), (4, 1), (0, 2), (1, 3), (0, 4), (2, 5), (4, 5)]:
            tiles.append(Tile("S1", (s(x, y), s(x + 1, y))))
        section = Section("red", tuple(tiles))
        cover = SectionCover(lat, (section,))

        # tiles realize their catalog graphs and never share a site
        seen = set()
        for tile in tiles:
            for i, j in tile.edges:
                assert lat.adjacency[i, j] == 1
            assert not seen & set(tile.sites)
            seen.update(tile.sites)
        assert cover_tile_census(cover) == [("red", {"C4": 2, "S1": 8})]

    def test_cli_accepts_manual_cover(self, tmp_path, hexagon, hexagon_cover):
        from fthub import cli
        cover_path = tmp_path / "cover.json"
        cover_path.write_text(cover_to_json(hexagon_cover))
        out = tmp_path / "bounds.json"
        code = cli.main(["bounds", "--lattice", "hex_fragment",
                         "--cells", "[[0,0]]", "--cover", str(cover_path),
                         "--out", str(out)])
        assert code == 0

    def test_cli_rejects_invalid_manual_cover(self, tmp_path):
        from fthub import cli
        import json
        bad = {"sections": [{"color": "blue",
                             "tiles": [{"kind": "S1", "sites": [0, 1]}]}]}
        cover_path = tmp_path / "cover.json"
        cover_path.write_text(json.dumps(bad))
        code = cli.main(["bounds", "--lattice", "hex_fragment",
                         "--cells", "[[0,0]]", "--cover", str(cover_path)])
        assert code == 2


class TestJson:
    def test_round_trip(self, hex44, cover44):
        text = cover_to_json(cover44)
        back = cover_from_json(text, hex44)
        assert back.sections == cover44.sections
        assert validate_cover(hex44, back).valid
