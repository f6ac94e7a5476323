import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (CHEVRON_CELLS, PARALLELOGRAM_CELLS, json_cover_to_json,
                      json_lattice_to_json, loop_build_periodic_hex,
                      loop_cover_hex_fragment, loop_cover_periodic_hex,
                      loop_validate_cover)
from fthub.lattice import (LatticeGraph, SiteInfo, build_hex_fragment,
                           build_periodic_hex, build_square_fragment,
                           lattice_to_json, ring_lattice, single_hexagon)
from fthub.tiling import (CoverError, Section, SectionCover, Tile, chain_rotation,
                          check_cover, cover_from_json, cover_hex_fragment,
                          cover_periodic_hex, cover_tile_census, cover_to_json,
                          tile_catalog, validate_cover)

SQRT2 = math.sqrt(2.0)


class TestCatalog:
    @pytest.mark.parametrize("kind,nonzero", [
        ("S1", (-1.0, 1.0)),
        ("S2", (-SQRT2, SQRT2)),
        ("C4", (-2.0, 2.0)),
        ("S4", (-2.0, 2.0)),
    ])
    def test_nonzero_eigenvalues(self, kind, nonzero):
        got = [v for v in tile_catalog(kind).eigenvalues if v != 0]
        assert sorted(got) == pytest.approx(nonzero)

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

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_ring_is_covered(self, n):
        lat = ring_lattice(n)
        cover = cover_hex_fragment(lat)
        assert validate_cover(lat, cover).valid
        assert sum(len(s.tiles) for s in cover.sections) == n

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


class TestArrayBuilders:
    """The array builders give the loop builders' lattice and cover."""

    @staticmethod
    def assert_same(l_x, l_y):
        lattice, reference = build_periodic_hex(l_x, l_y), loop_build_periodic_hex(l_x, l_y)
        assert lattice.edges == reference.edges
        assert lattice.site_info == reference.site_info
        assert lattice_to_json(lattice) == lattice_to_json(reference)
        assert {type(i) for edge in lattice.edges for i in edge} == {int}
        cover, expected = cover_periodic_hex(lattice), loop_cover_periodic_hex(reference)
        assert cover_to_json(cover) == cover_to_json(expected)
        assert cover.sections == expected.sections
        assert ([(sec.color, sec.tiles) for sec in cover.sections]
                == [(sec.color, sec.tiles) for sec in expected.sections])
        assert {type(i) for sec in cover.sections for tile in sec.tiles
                for i in tile.sites} == {int}

    @pytest.mark.parametrize("l_x", range(2, 25, 2))
    def test_even_dims(self, l_x):
        for l_y in range(2, 25, 2):
            self.assert_same(l_x, l_y)

    def test_l64(self):
        self.assert_same(64, 64)

    @pytest.mark.parametrize("dims", [(3, 2), (2, 3), (5, 4), (4, 7), (5, 5)])
    def test_odd_dims(self, dims):
        lattice, reference = build_periodic_hex(*dims), loop_build_periodic_hex(*dims)
        assert lattice.edges == reference.edges
        assert lattice.site_info == reference.site_info
        with pytest.raises(CoverError) as got:
            cover_periodic_hex(lattice)
        with pytest.raises(CoverError) as want:
            loop_cover_periodic_hex(reference)
        assert str(got.value) == str(want.value)


def _star(leaves):
    info = tuple(SiteInfo(i, i, 0, int(i > 0), "edge") for i in range(leaves + 1))
    return LatticeGraph(leaves + 1, tuple((0, i) for i in range(1, leaves + 1)),
                        info, "custom")


def _square_section():
    # plaquettes and single bonds on the 6 x 6 square fragment
    def s(x, y):
        return x + 6 * y

    tiles = [Tile("C4", (s(x, y), s(x + 1, y + 1), s(x + 1, y), s(x, y + 1)))
             for x, y in [(0, 0), (3, 3)]]
    tiles += [Tile("S1", (s(x, y), s(x + 1, y))) for x, y in
              [(3, 0), (2, 1), (4, 1), (0, 2), (1, 3), (0, 4), (2, 5), (4, 5)]]
    lattice = build_square_fragment(6, 6)
    return lattice, SectionCover(lattice, (Section("red", tuple(tiles)),))


def _base_covers():
    covers = []
    for dims in [(2, 2), (4, 4), (6, 4)]:
        lattice = build_periodic_hex(*dims)
        covers.append((lattice, cover_periodic_hex(lattice)))
    for lattice in [single_hexagon(), build_hex_fragment(PARALLELOGRAM_CELLS),
                    build_square_fragment(4, 4), _star(6)]:
        covers.append((lattice, cover_hex_fragment(lattice)))
    star = _star(4)
    covers.append((star, SectionCover(star, (Section("blue", (
        Tile("S4", (0, 1, 2, 3, 4)),)),))))
    covers.append(_square_section())
    return covers


_BASE_COVERS = _base_covers()

# valid covers at benchmark size: a periodic L = 24 cover and a 20 x 20
# cell hexagonal patch
HEX_24 = build_periodic_hex(24, 24)
PATCH_20 = build_hex_fragment([(l, m) for l in range(20) for m in range(20)])
_LARGE_COVERS = [(HEX_24, cover_periodic_hex(HEX_24)),
                 (PATCH_20, cover_hex_fragment(PATCH_20))]


def _mutate(data, lattice, sections):
    """Apply one drawn mutation to ``sections``, a list of [color, tiles]
    with each tile a [kind, sites] list."""
    n = lattice.n_sites
    placed = [(s, t) for s, (_, tiles) in enumerate(sections)
              for t in range(len(tiles))]
    op = data.draw(st.sampled_from(
        ["drop", "duplicate", "move", "out_of_range", "repeat", "any_site",
         "unknown_kind", "other_kind", "add_site", "drop_site"]))
    if not placed:
        return
    s, t = data.draw(st.sampled_from(placed))
    tile = sections[s][1][t]
    if op in ("drop", "move"):
        del sections[s][1][t]
    if op in ("duplicate", "move"):
        dest = data.draw(st.integers(0, len(sections) - 1))
        at = data.draw(st.integers(0, len(sections[dest][1])))
        sections[dest][1].insert(at, [tile[0], list(tile[1])])
    if not tile[1]:
        op = "add_site"
    else:
        a = data.draw(st.integers(0, len(tile[1]) - 1))
    if op == "out_of_range":
        tile[1][a] = data.draw(st.sampled_from([-1, -7, n, n + 5]))
    elif op == "repeat" and len(tile[1]) > 1:
        b = data.draw(st.integers(0, len(tile[1]) - 1).filter(lambda b: b != a))
        tile[1][a] = tile[1][b]
    elif op == "any_site":
        tile[1][a] = data.draw(st.integers(0, n - 1))
    elif op == "unknown_kind":
        tile[0] = data.draw(st.sampled_from(["S3", "X", ""]))
    elif op == "other_kind":
        tile[0] = data.draw(st.sampled_from(["S1", "S2", "C4", "S4"]))
    elif op == "add_site":
        tile[1].append(data.draw(st.integers(0, n - 1)))
    elif op == "drop_site":
        del tile[1][a]


class TestSectionForms:
    """A section stores runs, read from its tiles or given as arrays;
    equality reads their content."""

    def test_periodic_cover_holds_runs(self, hex44):
        cover = cover_periodic_hex(hex44)
        for sec in cover.sections:
            (kind, sites), = sec.runs
            assert kind == "S2" and sites.shape == (8, 3)
            assert not sites.flags.writeable
            assert sec.n_tiles == 8
        assert all("tiles" not in vars(sec) for sec in cover.sections)

    def test_adjacent_runs_of_one_kind_merge(self):
        split = Section("red", runs=[("S1", [[0, 1]]), ("S1", [[2, 3]]),
                                     ("S2", [[4, 5, 6]])])
        joined = Section("red", runs=[("S1", [[0, 1], [2, 3]]),
                                      ("S2", [[4, 5, 6]])])
        tiles = Section("red", (Tile("S1", (0, 1)), Tile("S1", (2, 3)),
                                Tile("S2", (4, 5, 6))))
        assert split == joined == tiles
        assert hash(split) == hash(joined) == hash(tiles)
        assert [kind for kind, _ in split.runs] == ["S1", "S2"]
        assert split.tiles == tiles.tiles

    def test_colour_and_order_count(self):
        a, b = Tile("S1", (0, 1)), Tile("S1", (2, 3))
        assert Section("red", (a, b)) != Section("blue", (a, b))
        assert Section("red", (a, b)) != Section("red", (b, a))

    @pytest.mark.parametrize("site", [1.0, "1", True, None, [1], 2**70])
    def test_non_integer_site_raises(self, site):
        with pytest.raises(CoverError, match="S1 tile sites must be 64-bit integers"):
            Section("red", (Tile("S1", (0, 1)), Tile("S1", (2, site))))

    @pytest.mark.parametrize("l", [4, 6])
    def test_edge_array_holds_the_tile_edges(self, l):
        cover = cover_periodic_hex(build_periodic_hex(l, l))
        for sec in cover.sections:
            pairs = sorted(map(tuple, sec.edge_array().tolist()))
            assert pairs == sorted(e for tile in sec.tiles for e in tile.edges)


class TestValidateAgainstLoop:
    """The array ``validate_cover`` gives the loop check's flag and
    violations, in order, on mutated periodic, fragment and manual covers."""

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_mutated_covers(self, data):
        lattice, cover = data.draw(st.sampled_from(_BASE_COVERS))
        sections = [[sec.color, [[t.kind, list(t.sites)] for t in sec.tiles]]
                    for sec in cover.sections]
        for _ in range(data.draw(st.integers(1, 4))):
            _mutate(data, lattice, sections)
        tiles = [tuple(Tile(kind, tuple(sites)) for kind, sites in tiles)
                 for _, tiles in sections]
        mutated = SectionCover(lattice, tuple(
            Section(color, t) for (color, _), t in zip(sections, tiles)))
        # the tiles read back from the runs are the tiles given
        assert [sec.tiles for sec in mutated.sections] == tiles
        got, want = (validate_cover(lattice, mutated),
                     loop_validate_cover(lattice, mutated))
        assert (got.valid, got.violations) == (want.valid, want.violations)

    @pytest.mark.parametrize("lattice,cover", _BASE_COVERS + _LARGE_COVERS)
    def test_base_covers(self, lattice, cover):
        got, want = validate_cover(lattice, cover), loop_validate_cover(lattice, cover)
        assert (got.valid, got.violations) == (want.valid, want.violations)

    def test_absent_edge_covered_twice(self, hexagon, hexagon_cover):
        # every lattice edge is still covered once; only the extra tiles fail
        phantom = Section("extra", (Tile("S1", (0, 2)),))
        cover = SectionCover(hexagon, hexagon_cover.sections + (phantom, phantom))
        got, want = validate_cover(hexagon, cover), loop_validate_cover(hexagon, cover)
        assert (got.valid, got.violations) == (want.valid, want.violations)
        assert got.violations[-1] == "duplicate edge (0, 2) covered 2 times"

    def test_tile_moved_to_another_section_at_scale(self):
        # every edge is still covered once; the moved tile overlaps its new
        # section
        lattice = build_periodic_hex(64, 64)
        blue, red, gold = cover_periodic_hex(lattice).sections
        (_, sites), = blue.runs
        cover = SectionCover(lattice, (
            Section("blue", runs=[("S2", sites[1:])]),
            Section("red", runs=[*red.runs, ("S2", sites[:1])]), gold))
        got, want = validate_cover(lattice, cover), loop_validate_cover(lattice, cover)
        assert not got.valid
        assert (got.valid, got.violations) == (want.valid, want.violations)
        assert all(v.startswith("section overlap in red") for v in got.violations)


class TestCheckCover:
    def test_invalid_cover_raises_with_the_violations(self, hexagon, hexagon_cover):
        first, *rest = hexagon_cover.sections
        dropped = SectionCover(hexagon, (Section("blue", first.tiles[1:]), *rest))
        want = "; ".join(validate_cover(hexagon, dropped).violations)
        with pytest.raises(CoverError) as err:
            check_cover(hexagon, dropped, "manual cover invalid")
        assert str(err.value) == f"manual cover invalid: {want}"
        assert isinstance(err.value, ValueError)


class TestGreedyAgainstLoop:
    """The greedy fragment cover reads incident edges from per-site lists;
    it gives the cover of the scan over every uncovered edge."""

    @pytest.mark.parametrize("fixture", ["hexagon", "parallelogram", "chevron",
                                         "ring4", "ring5", "ring6"])
    def test_fragment_fixtures(self, fixture, request):
        lat = request.getfixturevalue(fixture)
        assert (cover_to_json(cover_hex_fragment(lat))
                == cover_to_json(loop_cover_hex_fragment(lat)))

    @pytest.mark.parametrize("l", range(4, 10))
    def test_square_fragments(self, l):
        lat = build_square_fragment(l, l)
        assert (cover_to_json(cover_hex_fragment(lat))
                == cover_to_json(loop_cover_hex_fragment(lat)))

    def test_20x20_patch(self):
        assert (cover_to_json(cover_hex_fragment(PATCH_20))
                == cover_to_json(loop_cover_hex_fragment(PATCH_20)))


def _custom_ring(n):
    info = tuple(SiteInfo(i, i, 0, 0, "center") for i in range(n))
    edges = sorted(tuple(sorted((i, (i + 1) % n))) for i in range(n))
    return LatticeGraph(n, edges, info, "custom")


class TestJsonWriters:
    """The template JSON writers give ``json.dumps(doc, indent=1,
    sort_keys=True)`` byte for byte."""

    @staticmethod
    def assert_same(lattice, cover=None):
        assert lattice_to_json(lattice) == json_lattice_to_json(lattice)
        if cover is not None:
            assert cover_to_json(cover) == json_cover_to_json(cover)

    @pytest.mark.parametrize("l", range(2, 19))
    def test_periodic(self, l):
        lattice = build_periodic_hex(l, l)
        self.assert_same(lattice, cover_periodic_hex(lattice) if l % 2 == 0 else None)

    def test_rectangular_periodic(self):
        lattice = build_periodic_hex(6, 4)
        self.assert_same(lattice, cover_periodic_hex(lattice))

    @pytest.mark.parametrize("cells", [[(0, 0)], [(0, 0), (1, 0)], CHEVRON_CELLS,
                                       PARALLELOGRAM_CELLS,
                                       [(l, m) for l in range(10) for m in range(10)]],
                             ids=["hexagon", "pair", "chevron", "parallelogram",
                                  "patch10"])
    def test_fragments(self, cells):
        lattice = build_hex_fragment(cells)
        self.assert_same(lattice, cover_hex_fragment(lattice))

    @pytest.mark.parametrize("l", range(4, 10))
    def test_square_fragments(self, l):
        lattice = build_square_fragment(l, l)
        self.assert_same(lattice, cover_hex_fragment(lattice))

    @pytest.mark.parametrize("n", [3, 4, 7])
    def test_custom_ring(self, n):
        lattice = _custom_ring(n)
        self.assert_same(lattice, cover_hex_fragment(lattice))
        self.assert_same(ring_lattice(n), cover_hex_fragment(ring_lattice(n)))

    def test_empty_lists_and_escaped_strings(self):
        bare = LatticeGraph(2, (), (SiteInfo(0, 0, 0, 0, 'e"dge\u00e9'),
                                    SiteInfo(1, 1, 0, 1, "edge")), "custom")
        self.assert_same(bare, SectionCover(bare, ()))
        self.assert_same(LatticeGraph(0, (), (), "custom", ()))
        hexagon = single_hexagon()
        tiles = cover_hex_fragment(hexagon).sections[0].tiles
        self.assert_same(hexagon, SectionCover(hexagon, (
            Section("bl\u00fc\\e", tiles), Section("none", ()),
            Section("odd", runs=[("S3", np.zeros((2, 0), dtype=np.int64))]))))
