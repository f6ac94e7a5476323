import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fthub.gatecount import (step_cost_fragment, step_cost_periodic_extended,
                             step_cost_periodic_hubbard, step_cost_ppp,
                             tile_gate_cost)
from fthub.tiling import CoverError, cover_hex_fragment, cover_tile_census


class TestTileGateCost:
    @pytest.mark.parametrize("kind,expected", [
        ("S1", {"rot": 2, "t": 0, "cnot": 2, "h": 8, "s": 6, "fswap": 0}),
        ("S2", {"rot": 2, "t": 4, "cnot": 8, "h": 20, "s": 12, "fswap": 0}),
        ("C4", {"rot": 2, "t": 8, "cnot": 14, "h": 32, "s": 18, "fswap": 0}),
        ("S4", {"rot": 2, "t": 12, "cnot": 20, "h": 44, "s": 24, "fswap": 2}),
    ])
    def test_records(self, kind, expected):
        assert tile_gate_cost(kind) == expected

    def test_unknown(self):
        with pytest.raises(CoverError):
            tile_gate_cost("C8")


class TestFragmentStep:
    def test_periodic_collapse(self, hex44, cover44):
        # N_b = N_r = N_g = N/4 gives 6N rotations and 10N T gates
        step = step_cost_fragment(hex44, cover44)
        assert step.n_rot == 6 * 32
        assert step.n_t == 10 * 32
        assert step.n_qubits == 2 * 32

    def test_closed_form(self, parallelogram):
        cover = cover_hex_fragment(parallelogram)
        step = step_cost_fragment(parallelogram, cover)
        census = cover_tile_census(cover)
        if all(set(c) <= {"S2"} for _color, c in census) and len(census) == 3:
            nb, nr, ng = (c.get("S2", 0) for _color, c in census)
            assert step.n_rot == parallelogram.n_sites + 8 * nb + 8 * nr + 4 * ng
            assert step.n_t == 16 * nb + 16 * nr + 8 * ng

    @pytest.mark.parametrize("fixture", ["parallelogram", "chevron", "hexagon"])
    def test_per_tile_summation(self, fixture, request):
        """Cross-check against a gate-by-gate summation over applications."""
        lat = request.getfixturevalue(fixture)
        cover = cover_hex_fragment(lat)
        step = step_cost_fragment(lat, cover)
        rot = t = cnot = 0
        n_sections = cover.n_sections
        for idx, sec in enumerate(cover.sections):
            mult = 1 if idx == n_sections - 1 else 2
            for tile in sec.tiles:
                for _spin in (0, 1):
                    gates = tile_gate_cost(tile.kind)
                    rot += mult * gates["rot"]
                    t += mult * gates["t"]
                    cnot += mult * gates["cnot"]
        assert step.n_rot == lat.n_sites + rot
        assert step.n_t == t
        assert step.n_cnot == 2 * lat.n_sites + cnot


class TestEdgeless:
    def test_only_coulomb_layer_remains(self):
        from fthub.lattice import LatticeGraph, SiteInfo
        from fthub.tiling import SectionCover
        sites = tuple(SiteInfo(i, i, 0, 0, "edge") for i in range(3))
        bare = LatticeGraph(3, (), sites, "custom")
        step = step_cost_fragment(bare, SectionCover(bare, ()))
        assert step.n_rot == 3
        assert step.n_t == 0


class TestPeriodicHubbard:
    @pytest.mark.parametrize("n,m,rot,t,q", [
        (32, 1, 192, 320, 64),
        (32, 16, 60, 1040, 79),
        (32, 32, 36, 1064, 95),
        (32, 8, 96, 992, 71),
        (200, 50, 144, 6704, 449),
    ])
    def test_table_rows(self, n, m, rot, t, q):
        step = step_cost_periodic_hubbard(n, m)
        assert (step.n_rot, step.n_t, step.n_qubits) == (rot, t, q)

    def test_m1_equals_base(self):
        a = step_cost_periodic_hubbard(128, 1)
        assert (a.n_rot, a.n_t, a.n_tof) == (6 * 128, 10 * 128, 0)

    def test_divisibility(self):
        with pytest.raises(ValueError):
            step_cost_periodic_hubbard(32, 5)

    @pytest.mark.parametrize("m,extra", [(1, 32), (16, 2 * 5)])
    def test_boundary_layer(self, m, extra):
        # one Coulomb layer of N, merged in groups of m under HWP
        assert step_cost_periodic_hubbard(32, m).boundary_extra_rot == extra

    @given(st.sampled_from([32, 72, 128, 200]), st.sampled_from([1, 2, 4, 8]))
    @settings(max_examples=20, deadline=None)
    def test_t_accounting_identity(self, n, m):
        step = step_cost_periodic_hubbard(n, m)
        assert step.n_t == 10 * n + 4 * step.n_tof
        assert step.alpha == step.hwp_m - 1


class TestPeriodicExtended:
    @pytest.mark.parametrize("n,m,rot,t", [
        (32, 1, 384, 320),
        (32, 32, 72, 1808),
        (648, 324, 216, 37488),
        (288, 1, 3456, 2880),
    ])
    def test_table_rows(self, n, m, rot, t):
        step = step_cost_periodic_extended(n, m)
        assert (step.n_rot, step.n_t) == (rot, t)

    def test_qubits(self):
        assert step_cost_periodic_extended(32, 32).n_qubits == 95

    @pytest.mark.parametrize("m,extra", [(1, 7 * 32), (32, 7 * 6)])
    def test_boundary_layers(self, m, extra):
        # seven layers of N, merged in groups of m under HWP
        assert step_cost_periodic_extended(32, m).boundary_extra_rot == extra


class TestPpp:
    def test_no_hwp(self):
        step = step_cost_ppp(32, 1)
        assert step.n_rot == 2 * 32 * 32 + 4 * 32 == 2176
        assert step.n_t == 320
        assert step.n_qubits == 64

    def test_hwp(self):
        step = step_cost_ppp(32, 32)
        assert step.n_rot == 68 * 6 == 408
        assert step.n_tof == 2 * 32 * 32 + 2 * 32 - 4
        assert step.n_t == 8 * 1024 + 18 * 32 - 16 == 8752
        assert step.n_qubits == 3 * 32 - 1

    def test_hwp_t_identity(self):
        step = step_cost_ppp(128, 128)
        assert step.n_t == 10 * 128 + 4 * step.n_tof
