import functools
import json
import math

import numpy as np
import pytest

from conftest import (clear_geometry_memos, loop_build_periodic_hex,
                      loop_cover_periodic_hex, section_adjacency, star_matrix)
from fthub import cli, freefermion, oracle, tiling, trotterbounds
from fthub.freefermion import schatten1, translation_blocks, translation_periods
from fthub.lattice import (LatticeGraph, SiteInfo, build_periodic_hex,
                           hex_site_index, lattice_from_json, lattice_to_json)
from fthub.tiling import (CoverError, Section, SectionCover, Tile, cover_from_json,
                          cover_hex_fragment, cover_periodic_hex, cover_to_json,
                          validate_cover)
from fthub.trotterbounds import (BoundUnsupportedError, ModelParams, w_h,
                                 w_so2_extended, w_so2_hubbard, w_tile)

SQRT3 = math.sqrt(3.0)
SQRT6 = math.sqrt(6.0)

# frozen against the cover construction; the regression table pins this
# value through the tabulated totals
W_H_44 = 26.538265979130678


def _dense_nested(a, b, c):
    inner = a @ b - b @ a
    return schatten1(inner @ c - c @ inner)


def _four_product_w_h(mats, tau):
    """w_h with four products per nested commutator, summed in the order of
    the shipped formula (T24 first, then a ascending)."""
    t12 = t24 = 0.0
    for b in range(len(mats)):
        for c in range(b + 1, len(mats)):
            t24 += _dense_nested(mats[b], mats[c], mats[b])
            for a in range(b + 1, len(mats)):
                t12 += _dense_nested(mats[b], mats[c], mats[a])
    return tau**3 * (t12 / 12.0 + t24 / 24.0)


def _dense_w_h(cover, tau):
    """w_h from the N x N section adjacencies."""
    return _four_product_w_h(
        [section_adjacency(cover, s) for s in range(cover.n_sections)], tau)


def _dense_star_norms(lattice, tau):
    """Star norms from N x N star and hopping matrices, with four-product
    commutators."""
    full = lattice.adjacency.astype(float)

    def norms(star):
        comm = star @ full - full @ star
        return tau * schatten1(star) / 2.0, tau**2 * schatten1(1j * comm) / 2.0

    norm_k, comm_k = norms(star_matrix(lattice, 0))
    out = {"k": len(lattice.neighbors(0)), "norm_k": norm_k, "comm_k": comm_k,
           "norm_km1": 0.0, "comm_km1": 0.0}
    for j in lattice.neighbors(0):
        norm, comm = norms(star_matrix(lattice, 0, exclude=j))
        out["norm_km1"] = max(out["norm_km1"], norm)
        out["comm_km1"] = max(out["comm_km1"], comm)
    return out


def _dense_breakdown(monkeypatch, lattice, cover, params):
    """w_tile with every norm taken from dense N x N matrices."""
    with monkeypatch.context() as m:
        m.setattr(trotterbounds, "_adjacency_schatten1",
                  lambda lat: schatten1(lat.adjacency))
        m.setattr(trotterbounds, "_star_norms", _dense_star_norms)
        m.setattr(trotterbounds, "w_h", _dense_w_h)
        return w_tile(lattice, cover, params)


def _assert_matches_dense(monkeypatch, lattice, cover, params):
    got = w_tile(lattice, cover, params)
    ref = _dense_breakdown(monkeypatch, lattice, cover, params)
    assert sorted(got.components) == sorted(ref.components)
    for key, value in ref.components.items():
        assert got.components[key] == pytest.approx(value, rel=1e-12, abs=1e-12), key
    assert got.w_h == pytest.approx(ref.w_h, rel=1e-12, abs=1e-12)
    assert got.w_tile == pytest.approx(ref.w_tile, rel=1e-12)


@functools.lru_cache(maxsize=None)
def _periodic(l):
    lattice = build_periodic_hex(l, l)
    return lattice, cover_periodic_hex(lattice)


def _section_edges(cover):
    return [[e for tile in sec.tiles for e in tile.edges]
            for sec in cover.sections]


class TestModelParams:
    def test_rejects_bad_model(self):
        with pytest.raises(ValueError):
            ModelParams("heisenberg")

    @pytest.mark.parametrize("name", ["tau", "u", "v"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_nonfinite(self, name, value):
        with pytest.raises(ValueError, match="finite"):
            ModelParams("extended_hubbard", **{name: value})

    def test_rejects_nonpositive_tau(self):
        with pytest.raises(ValueError):
            ModelParams("hubbard", tau=0.0)


class TestWso2Hubbard:
    def test_periodic_value(self, hex44, hubbard_params):
        bd = w_so2_hubbard(hex44, hubbard_params)
        r1 = schatten1(hex44.adjacency)
        expected = (12 + SQRT6) * 4 * 32 / 12 + 16 * r1 / 24
        assert bd.w_so2 == pytest.approx(expected)
        assert bd.w_so2 == pytest.approx(188.016, abs=1e-3)

    def test_fragment_collapses_to_periodic(self, hex44, hubbard_params):
        # N_c = N, N_ed = 0 reproduces the periodic double-hopping term
        bd = w_so2_hubbard(hex44, hubbard_params)
        n = hex44.n_sites
        assert bd.components["comm_IHH_bound"] == pytest.approx(
            4 * (12 * n + SQRT6 * n))

    def test_single_hexagon_value(self, hexagon, hubbard_params):
        bd = w_so2_hubbard(hexagon, hubbard_params)
        expected = (4 * (48 + 6 * SQRT6)) / 12 + (16 * 8) / 24
        assert bd.w_so2 == pytest.approx(expected)

    def test_rejects_extended_params(self, hex44, extended_params):
        with pytest.raises(BoundUnsupportedError):
            w_so2_hubbard(hex44, extended_params)


class TestWso2Extended:
    def test_k3_coulomb_term(self, hex44, extended_params):
        bd = w_so2_extended(hex44, extended_params)
        r1 = schatten1(hex44.adjacency)
        u, v, n = 4.0, 2.0, 32
        expected = (u**2 + 3 * v**2) * r1 + (30 * u * v + 66 * v**2) * n
        assert bd.components["comm_CHC_bound"] == pytest.approx(expected)

    def test_k3_neighbor_term_uses_tabulated_constant(self, hex44, extended_params):
        bd = w_so2_extended(hex44, extended_params)
        assert bd.components["comm_VHH_bound"] == pytest.approx(
            3 * 2.0 * 32 * (16 + 2 * SQRT3))
        # the strict evaluation is recorded alongside and is slightly larger
        strict = bd.components["comm_VHH_bound_freefermion"]
        assert strict == pytest.approx(3 * 2.0 * 32 * (16 + math.sqrt(2) + SQRT6))
        assert strict > bd.components["comm_VHH_bound"]

    def test_onsite_term_matches_hubbard_form(self, hex44, extended_params):
        bd = w_so2_extended(hex44, extended_params)
        assert bd.components["comm_IHH_bound"] == pytest.approx(
            (12 + SQRT6) * 4.0 * 32)

    def test_v_zero_reduces_coulomb_term(self, hex44):
        params = ModelParams("extended_hubbard", tau=1.0, u=4.0, v=0.0)
        bd = w_so2_extended(hex44, params)
        assert bd.components["comm_CHC_bound"] == pytest.approx(
            16 * schatten1(hex44.adjacency))

    def test_ring_uses_strict_evaluation(self, ring6):
        params = ModelParams("extended_hubbard", tau=1.0, u=4.0, v=2.0)
        bd = w_so2_extended(ring6, params)
        assert bd.components["comm_VHH_bound"] == pytest.approx(
            bd.components["comm_VHH_bound_freefermion"])

    def test_rejects_irregular(self, parallelogram, extended_params):
        with pytest.raises(BoundUnsupportedError):
            w_so2_extended(parallelogram, extended_params)

    @pytest.mark.parametrize("edges", [((0, 1),), ((0, 1), (2, 3))],
                             ids=["two_site_chain", "two_dimers"])
    def test_rejects_k1(self, edges):
        # the free-fermion VHH form gave 4.0 on the two-site chain at
        # U = 2, V = 1, tau = 1, below the exact norm 8.0, so the oracle
        # check that calls this bound refuses k = 1 as well
        n = 2 * len(edges)
        lattice = LatticeGraph(n, edges, tuple(SiteInfo(i, i, 0, 0, "edge")
                                               for i in range(n)), "custom")
        params = ModelParams("extended_hubbard", tau=1.0, u=2.0, v=1.0)
        with pytest.raises(BoundUnsupportedError, match="k = 1"):
            w_so2_extended(lattice, params)
        with pytest.raises(BoundUnsupportedError, match="k = 1"):
            oracle.verify_commutator_bounds(lattice, params)


class TestWh:
    def test_identical_sections_vanish(self, hex44, cover44):
        tiles = cover44.sections[0].tiles
        fake = SectionCover(hex44, (Section("blue", tiles), Section("red", tiles),
                                    Section("gold", tiles)))
        assert w_h(fake, 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_frozen_value(self, cover44):
        assert w_h(cover44, 1.0) == pytest.approx(W_H_44, rel=1e-12)

    def test_tau_cubed_scaling(self, cover44):
        assert w_h(cover44, 2.0) == pytest.approx(8 * W_H_44, rel=1e-12)

    def test_general_matches_three_sections(self, cover44):
        # the any-S sum at S = 3 is the ordered three-section formula; on a
        # lattice of at most DENSE_MAX_SITES sites it is the dense
        # evaluation bit for bit, which keeps pinned outputs unchanged
        rb, rr, rg = (section_adjacency(cover44, s) for s in range(3))
        t12 = (_dense_nested(rb, rr, rr) + _dense_nested(rb, rr, rg)
               + _dense_nested(rb, rg, rr) + _dense_nested(rb, rg, rg)
               + _dense_nested(rr, rg, rg))
        t24 = (_dense_nested(rb, rr, rb) + _dense_nested(rb, rg, rb)
               + _dense_nested(rr, rg, rr))
        assert w_h(cover44, 1.0) == t12 / 12 + t24 / 24
        assert trotterbounds._adjacency_schatten1(cover44.lattice) == schatten1(
            cover44.lattice.adjacency)

    @pytest.mark.parametrize("l", range(4, 19, 2))
    def test_two_products_equal_four_products_exactly(self, l):
        # dense 0/1 blocks make every product an exact integer, so the
        # one-product commutators hand eigvalsh the very matrices of the
        # four-product form: w_h, and the qpe bytes it feeds, keep every bit
        _, cover = _periodic(l)
        for tau in (1.0, 0.7):
            assert w_h(cover, tau) == _dense_w_h(cover, tau)

    def test_two_sections_formula(self, hexagon, hexagon_cover):
        # S = 2: (1/12)||[[R1,R2],R2]||_1 + (1/24)||[[R1,R2],R1]||_1
        r1 = section_adjacency(hexagon_cover, 0)
        r2 = section_adjacency(hexagon_cover, 1)
        inner = r1 @ r2 - r2 @ r1
        expected = (schatten1(inner @ r2 - r2 @ inner) / 12
                    + schatten1(inner @ r1 - r1 @ inner) / 24)
        assert w_h(hexagon_cover, 1.0) == pytest.approx(expected)

    def test_single_section_zero(self, hexagon):
        cover = SectionCover(hexagon, (Section("blue", (Tile("S1", (0, 1)),)),))
        assert w_h(cover, 1.0) == 0.0

    def test_linear_in_n(self):
        sizes, values = [], []
        for l in range(4, 19, 2):
            lat = build_periodic_hex(l, l)
            cover = cover_periodic_hex(lat)
            sizes.append(lat.n_sites)
            values.append(w_h(cover, 1.0))
        slope, intercept = np.polyfit(sizes, values, 1)
        fitted = slope * np.array(sizes) + intercept
        ss_res = float(((np.array(values) - fitted) ** 2).sum())
        ss_tot = float(((np.array(values) - np.mean(values)) ** 2).sum())
        assert 1 - ss_res / ss_tot > 0.999


class TestWtile:
    def test_hubbard_share(self, hex44, cover44, hubbard_params):
        bd = w_tile(hex44, cover44, hubbard_params)
        share = bd.w_h / bd.w_tile
        assert 0.123 <= share <= 0.129

    def test_extended_share(self, hex44, cover44, extended_params):
        bd = w_tile(hex44, cover44, extended_params)
        share = bd.w_h / bd.w_tile
        assert 0.020 <= share <= 0.024

    def test_breakdown_consistency(self, hex44, cover44, extended_params):
        bd = w_tile(hex44, cover44, extended_params)
        assert bd.w_tile == pytest.approx(bd.w_so2 + bd.w_h)
        assert bd.w_so2 >= 0 and bd.w_h >= 0

    def test_ppp_rejected(self, hex44, cover44):
        params = ModelParams("ppp", tau=1.0, u=4.0)
        with pytest.raises(BoundUnsupportedError):
            w_tile(hex44, cover44, params)

    def test_json(self, hex44, cover44, hubbard_params):
        text = w_tile(hex44, cover44, hubbard_params).to_json()
        assert '"w_tile"' in text and '"comm_IHH_bound"' in text


class TestTranslationBlocks:
    """The blocked evaluation against dense N x N references."""

    @pytest.fixture
    def blocked(self, monkeypatch):
        """Bloch blocks at every lattice size, not only above the dense
        threshold; the test must evaluate some matrix on K > 1 blocks."""
        monkeypatch.setattr(freefermion, "DENSE_MAX_SITES", 0)
        n_blocks = []

        def recorded(lattice, edge_sets):
            blocks = translation_blocks(lattice, edge_sets)
            n_blocks.append(blocks.shape[1])
            return blocks

        monkeypatch.setattr(trotterbounds, "translation_blocks", recorded)
        yield
        assert max(n_blocks, default=1) > 1, "no Bloch blocks evaluated"

    @pytest.mark.parametrize("l", range(4, 19, 2))
    @pytest.mark.parametrize("model,v", [("hubbard", 0.0),
                                         ("extended_hubbard", 1.5)])
    def test_periodic_matches_dense(self, monkeypatch, blocked, l, model, v):
        lattice, cover = _periodic(l)
        params = ModelParams(model, tau=0.7, u=3.0, v=v)
        assert translation_blocks(lattice, [lattice.edges]).shape == (
            1, l * l, 2, 2)
        _assert_matches_dense(monkeypatch, lattice, cover, params)

    @pytest.mark.parametrize("l", [20, 22, 24])
    def test_bloch_commutators_match_four_products(self, l):
        lattice, cover = _periodic(l)
        blocks = translation_blocks(lattice, _section_edges(cover))
        assert blocks.shape[1] > 1 and np.iscomplexobj(blocks)
        for b in range(len(blocks)):
            for c in range(b + 1, len(blocks)):
                inner = freefermion._commutator_hh(blocks[b], blocks[c])
                assert np.array_equal(inner, -inner.conj().swapaxes(-1, -2))
                for a in range(b, len(blocks)):
                    outer = freefermion._commutator_ah(inner, blocks[a])
                    assert np.array_equal(outer, outer.conj().swapaxes(-1, -2))
                    assert schatten1(outer) == pytest.approx(
                        _dense_nested(blocks[b], blocks[c], blocks[a]),
                        rel=1e-12)
        assert w_h(cover, 0.7) == pytest.approx(
            _four_product_w_h(blocks, 0.7), rel=1e-12)

    @pytest.mark.parametrize("l", [4, 6, 8, 10])
    def test_periods_match_brute_force(self, l):
        lattice, cover = _periodic(l)
        edge_sets = _section_edges(cover)
        wanted = [set(es) for es in edge_sets]

        def maps_onto_itself(t_x, t_y):
            def move(i):
                s = lattice.site_info[i]
                return hex_site_index(s.l_x + t_x, s.l_y + t_y, s.color, l, l)
            return all({tuple(sorted((move(i), move(j)))) for i, j in es} == es
                       for es in wanted)

        p_x = min((t for t in range(1, l) if maps_onto_itself(t, 0)), default=l)
        p_y = min((t for t in range(1, l) if maps_onto_itself(0, t)), default=l)
        assert translation_periods(lattice, edge_sets) == (p_x, p_y)
        assert (p_x, p_y) == ((4, 2) if l % 4 == 0 else (l, 2))
        assert translation_periods(lattice, [lattice.edges]) == (1, 1)

    def test_fragment_is_one_dense_block(self, monkeypatch, parallelogram,
                                         hubbard_params):
        cover = cover_hex_fragment(parallelogram)
        blocks = translation_blocks(parallelogram, _section_edges(cover))
        n = parallelogram.n_sites
        assert blocks.shape == (cover.n_sections, 1, n, n)
        for s in range(cover.n_sections):
            assert np.array_equal(blocks[s, 0], section_adjacency(cover, s))
        _assert_matches_dense(monkeypatch, parallelogram, cover, hubbard_params)

    def test_manual_cover_round_trip(self, monkeypatch, blocked, hex44,
                                     cover44, extended_params):
        # split one blue S2 tile into an S1 tile kept in blue and an S1 tile
        # in a fourth section: no translation maps the covers onto itself
        doc = json.loads(cover_to_json(cover44))
        centre, leaf_a, leaf_b = doc["sections"][0]["tiles"][0]["sites"]
        doc["sections"][0]["tiles"][0] = {"kind": "S1", "sites": [centre, leaf_a]}
        doc["sections"].append({"color": "extra", "tiles": [
            {"kind": "S1", "sites": [centre, leaf_b]}]})
        cover = cover_from_json(json.dumps(doc), hex44)
        assert validate_cover(hex44, cover).valid
        edge_sets = _section_edges(cover)
        assert translation_periods(hex44, edge_sets) == (4, 4)
        assert translation_blocks(hex44, edge_sets).shape[1] == 1
        _assert_matches_dense(monkeypatch, hex44, cover, extended_params)
        # and a round trip of the shipped cover keeps its blocks and value
        same = cover_from_json(cover_to_json(cover44), hex44)
        assert translation_blocks(hex44, _section_edges(same)).shape == (
            3, 2, 16, 16)
        assert w_h(same, 1.0) == pytest.approx(W_H_44, rel=1e-12)

    def test_large_lattice_smoke(self):
        lattice = build_periodic_hex(32, 32)
        cover = cover_periodic_hex(lattice)
        params = ModelParams("extended_hubbard", tau=1.0, u=4.0, v=2.0)
        bd = w_tile(lattice, cover, params)
        n = lattice.n_sites
        assert n == 2048 > freefermion.DENSE_MAX_SITES
        assert math.isfinite(bd.w_tile)
        # the w_h density approaches its thermodynamic limit from below
        assert bd.w_h / n == pytest.approx(0.8519, abs=1e-4)
        assert bd.components["comm_VHH_bound"] == pytest.approx(
            3 * 2.0 * n * (16 + 2 * SQRT3))

    def test_cli_bounds_at_l128(self, tmp_path):
        # 32768 sites: a dense adjacency alone would take 8.6 GB
        out = tmp_path / "bounds.json"
        assert cli.main(["bounds", "--L", "128", "--model", "extended_hubbard",
                         "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert math.isfinite(doc["w_tile"]) and doc["w_tile"] > 0


MEMOS = (trotterbounds._adjacency_norm, trotterbounds._star_values,
         trotterbounds._section_sums)


class TestGeometryMemo:
    """The memoized hopping norms give the cold values bit for bit."""

    def _warm_equals_cold(self, lattice, cover, params, other):
        # warm at other couplings and tau, so the hit is scaled afresh
        w_tile(lattice, cover, other)
        warm = w_tile(lattice, cover, params)
        assert trotterbounds._adjacency_norm.cache_info().hits
        assert trotterbounds._section_sums.cache_info().hits
        clear_geometry_memos()
        cold = w_tile(lattice, cover, params)
        assert warm.components == cold.components
        assert (warm.w_so2, warm.w_h) == (cold.w_so2, cold.w_h)

    @pytest.mark.parametrize("l", [*range(4, 19, 2), 22, 24])
    @pytest.mark.parametrize("model", ["hubbard", "extended_hubbard"])
    def test_periodic_warm_equals_cold(self, l, model):
        lattice, cover = _periodic(l)
        v = 1.5 if model == "extended_hubbard" else 0.0
        self._warm_equals_cold(lattice, cover,
                               ModelParams(model, tau=0.7, u=3.0, v=v),
                               ModelParams(model, tau=1.3, u=0.5, v=2 * v))

    def test_fragment_warm_equals_cold(self, parallelogram):
        cover = cover_hex_fragment(parallelogram)
        self._warm_equals_cold(parallelogram, cover,
                               ModelParams("hubbard", tau=0.7, u=3.0),
                               ModelParams("hubbard", tau=0.2, u=1.0))

    def test_reversed_sections_are_their_own_entry(self, hex44, cover44,
                                                   extended_params):
        reverse = SectionCover(hex44, cover44.sections[::-1])
        w_tile(hex44, cover44, extended_params)
        w_tile(hex44, reverse, extended_params)
        info = trotterbounds._section_sums.cache_info()
        assert (info.misses, info.hits, info.currsize) == (2, 0, 2)
        self._warm_equals_cold(hex44, reverse, extended_params,
                               ModelParams("extended_hubbard", tau=0.3))

    def test_recoloured_sections_are_their_own_entry(self, hex44, cover44,
                                                     extended_params):
        recoloured = SectionCover(hex44, tuple(
            Section(color, runs=sec.runs) for color, sec in
            zip(("red", "gold", "blue"), cover44.sections)))
        w_tile(hex44, cover44, extended_params)
        w_tile(hex44, recoloured, extended_params)
        info = trotterbounds._section_sums.cache_info()
        assert (info.misses, info.hits, info.currsize) == (2, 0, 2)

    @staticmethod
    def _assert_entries(memos, misses, hits):
        for memo in memos:
            info = memo.cache_info()
            assert (info.misses, info.hits, info.currsize) == (misses, hits, misses)

    def test_json_round_trip_is_its_own_entry(self, hex44, cover44,
                                              extended_params):
        # the builder's cover is keyed by dims, a cover read back by its
        # content: two entries with equal values
        back = cover_from_json(cover_to_json(cover44), hex44)
        assert back.sections == cover44.sections
        values = [w_tile(hex44, cover, extended_params)
                  for cover in (cover44, back)]
        assert values[0].components == values[1].components
        assert (values[0].w_so2, values[0].w_h) == (values[1].w_so2, values[1].w_h)
        self._assert_entries([trotterbounds._section_sums], 2, 0)

    def test_json_reads_of_one_document_share_an_entry(self, hex44, cover44,
                                                        extended_params):
        text = cover_to_json(cover44)
        first, second = cover_from_json(text, hex44), cover_from_json(text, hex44)
        assert first is not second
        values = [w_tile(hex44, cover, extended_params)
                  for cover in (first, second)]
        assert values[0].components == values[1].components
        self._assert_entries([trotterbounds._section_sums], 1, 1)

    def test_builder_cover_on_a_json_lattice(self, hex44, extended_params):
        back = lattice_from_json(lattice_to_json(hex44))
        assert back.key == (hex44.kind, hex44.dims, hex44.n_sites,
                            hex44.edge_codes.tobytes())
        values = [w_tile(lattice, cover_periodic_hex(lattice), extended_params)
                  for lattice in (hex44, back)]
        assert values[0].components == values[1].components
        self._assert_entries(MEMOS, 2, 0)

    def test_equal_lattices_share_an_entry(self, extended_params):
        first, second = build_periodic_hex(6, 6), build_periodic_hex(6, 6)
        assert first is not second
        values = [w_tile(lat, cover_periodic_hex(lat), extended_params)
                  for lat in (first, second)]
        assert values[0].components == values[1].components
        for memo in MEMOS:
            info = memo.cache_info()
            assert (info.misses, info.hits, info.currsize) == (1, 1, 1)

    @pytest.mark.parametrize("l", [8, 10])
    def test_loop_built_lattice_is_its_own_entry(self, l, extended_params):
        # the loop builders give the array builders' content, keyed by
        # content rather than by dims: two entries with equal values
        lattice = build_periodic_hex(l, l)
        reference = loop_build_periodic_hex(l, l)
        values = [w_tile(lattice, cover_periodic_hex(lattice), extended_params),
                  w_tile(reference, loop_cover_periodic_hex(reference),
                         extended_params)]
        assert values[0].components == values[1].components
        assert (values[0].w_so2, values[0].w_h) == (values[1].w_so2, values[1].w_h)
        self._assert_entries(MEMOS, 2, 0)

    def test_keys(self, hexagon):
        lattice = build_periodic_hex(4, 6)
        assert lattice.key == ("build_periodic_hex", (4, 6))
        assert cover_periodic_hex(lattice).key == ("cover_periodic_hex", lattice.key)
        assert "edge_codes" not in vars(lattice)
        cover = cover_hex_fragment(hexagon)
        assert hexagon.key == ("hex_fragment", None, 6, hexagon.edge_codes.tobytes())
        assert cover.key == (hexagon.key, tuple(sec.key for sec in cover.sections))

    def test_mutated_components_do_not_leak(self, hex44, cover44,
                                            extended_params):
        first = w_tile(hex44, cover44, extended_params)
        expected = dict(first.components)
        first.components.clear()
        first.w_h = 0.0
        again = w_tile(hex44, cover44, extended_params)
        assert again.components == expected
        assert again.w_h == expected["w_h"]

    def test_unsupported_lattice_leaves_no_entry(self, parallelogram,
                                                 extended_params):
        cover = cover_hex_fragment(parallelogram)
        for _ in range(2):
            with pytest.raises(BoundUnsupportedError):
                w_tile(parallelogram, cover, extended_params)
            with pytest.raises(BoundUnsupportedError):
                trotterbounds._star_norms(parallelogram, 1.0)
        assert all(memo.cache_info().currsize == 0 for memo in MEMOS)


def _builder_pair(l):
    lattice = build_periodic_hex(l, l)
    return lattice, cover_periodic_hex(lattice)


def _built(lattice, cover):
    """Whether the edge codes of a builder lattice, and the sections of a
    builder cover, have been built."""
    return "edge_codes" in vars(lattice), "sections" in vars(cover)


def _params(model):
    return ModelParams(model, tau=0.7, u=3.0,
                       v=1.5 if model == "extended_hubbard" else 0.0)


class TestBuilderGeometry:
    """A builder lattice and cover find their memo key by dims, so a memo
    hit builds neither the edge codes nor the sections."""

    @pytest.mark.parametrize("model", ["hubbard", "extended_hubbard"])
    def test_memo_hit_builds_no_array(self, model):
        first = _builder_pair(8)
        assert _built(*first) == (False, False)
        cold = w_tile(*first, _params(model))
        assert _built(*first) == (True, True)
        second = _builder_pair(8)
        warm = w_tile(*second, _params(model))
        assert _built(*second) == (False, False)
        assert warm.components == cold.components

    @pytest.mark.parametrize("l", range(4, 25, 2))
    @pytest.mark.parametrize("model", ["hubbard", "extended_hubbard"])
    def test_cold_equals_warm(self, l, model):
        cold = w_tile(*_builder_pair(l), _params(model))
        pair = _builder_pair(l)
        warm = w_tile(*pair, _params(model))
        assert _built(*pair) == (False, False)
        assert warm.components == cold.components
        assert (warm.w_so2, warm.w_h) == (cold.w_so2, cold.w_h)

    def _count_checks(self, monkeypatch):
        calls = []

        def counted(lattice, cover, what):
            calls.append(what)
            return check_cover(lattice, cover, what)

        check_cover = tiling.check_cover
        monkeypatch.setattr(tiling, "check_cover", counted)
        return calls

    def test_reading_sections_checks_the_cover_once(self, monkeypatch):
        calls = self._count_checks(monkeypatch)
        _, cover = _builder_pair(6)
        assert calls == []
        sections = cover.sections
        assert cover.sections is sections
        assert [sec.color for sec in sections] == ["blue", "red", "gold"]
        assert calls == ["periodic cover construction failed"]

    def test_cold_call_checks_once_and_a_hit_never(self, monkeypatch,
                                                   extended_params):
        calls = self._count_checks(monkeypatch)
        w_tile(*_builder_pair(6), extended_params)
        assert len(calls) == 1
        w_tile(*_builder_pair(6), ModelParams("extended_hubbard", tau=0.3))
        assert len(calls) == 1

    def test_lattice_from_edges_is_keyed_and_checked_by_content(
            self, hubbard_params):
        # a builder cover on a lattice given by its edges is not served by
        # dims: one dropped bond fails the check of its sections
        w_tile(*_builder_pair(4), hubbard_params)
        lattice = build_periodic_hex(4, 4)
        broken = LatticeGraph(lattice.n_sites, lattice.edges[1:],
                              lattice.site_info, "periodic_hex", (4, 4))
        with pytest.raises(CoverError, match="periodic cover construction failed"):
            w_tile(broken, cover_periodic_hex(broken), hubbard_params)
