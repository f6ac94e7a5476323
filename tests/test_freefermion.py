import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import exact_spectral_norm, section_adjacency, star_matrix
from fthub import freefermion, oracle, trotterbounds
from fthub.freefermion import (_commutator_ah, _commutator_hh, schatten1,
                               translation_blocks)
from fthub.lattice import build_periodic_hex
from fthub.tiling import cover_periodic_hex, tile_catalog

SQRT2 = math.sqrt(2.0)
SQRT3 = math.sqrt(3.0)
SQRT6 = math.sqrt(6.0)


def _symmetric(draw_matrix):
    return (draw_matrix + draw_matrix.T) / 2.0


def _comm_norm(a, b):
    """Single-sector norm of the commutator of two free-fermion operators,
    1/2 |i[A, B]|_1, in the form ``trotterbounds._star_norms`` uses."""
    return schatten1(1j * _commutator_hh(a, b)) / 2.0


class TestSchatten1:
    def test_s2_catalog_matrix(self):
        assert schatten1(tile_catalog("S2").local_adjacency) == pytest.approx(2 * SQRT2)

    def test_identity(self):
        assert schatten1(np.eye(3)) == pytest.approx(3.0)

    def test_hexagon_ring(self, hexagon):
        # ring eigenvalues are 2 cos(pi k / 3); absolute values sum to 8
        expected = sum(abs(2 * math.cos(math.pi * k / 3)) for k in range(6))
        assert schatten1(hexagon.adjacency) == pytest.approx(expected) == pytest.approx(8.0)

    def test_rejects_nonsymmetric(self):
        with pytest.raises(ValueError):
            schatten1(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            schatten1(np.array([[np.inf, 0.0], [0.0, 0.0]]))

    # an entry whose transpose partner is 0 is held to the absolute
    # tolerance 1e-12 alone
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_accepts_rounding_asymmetry(self, dtype):
        m = np.array([[1.0, 0.0], [1e-13, -1.0]], dtype=dtype)
        assert schatten1(m) == pytest.approx(2.0)

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_rejects_asymmetry_above_tolerance(self, dtype):
        with pytest.raises(ValueError):
            schatten1(np.array([[1.0, 0.0], [1e-9, -1.0]], dtype=dtype))

    def test_stack_sums_blocks(self):
        blocks = np.array([np.eye(2), [[0.0, 1j], [-1j, 0.0]]])
        assert schatten1(blocks) == pytest.approx(4.0)

    def test_rejects_non_hermitian_complex(self):
        with pytest.raises(ValueError):
            schatten1(np.array([[0.0, 1j], [1j, 0.0]]))

    @given(hnp.arrays(np.float64, (5, 5), elements=st.floats(-10, 10)),
           hnp.arrays(np.float64, (5, 5), elements=st.floats(-10, 10)))
    @settings(max_examples=40, deadline=None)
    def test_triangle_inequality(self, a, b):
        a, b = _symmetric(a), _symmetric(b)
        assert schatten1(a + b) <= schatten1(a) + schatten1(b) + 1e-9

    @given(hnp.arrays(np.float64, (4, 4), elements=st.floats(-5, 5)),
           st.floats(-4, 4))
    @settings(max_examples=40, deadline=None)
    def test_absolute_homogeneity(self, a, scale):
        a = _symmetric(a)
        assert schatten1(scale * a) == pytest.approx(abs(scale) * schatten1(a), abs=1e-9)


class TestFfNorm:
    def test_two_sector_default(self, ring4):
        # the spinful hopping norm the oracle checks is tau |R|_1
        report = oracle.verify_ff_norm(ring4, tau=1.5)
        assert report["bound"] == pytest.approx(1.5 * schatten1(ring4.adjacency))
        assert report["pass"]

    def test_star3_single_sector(self, hex44):
        assert trotterbounds._star_norms(hex44, 1.0)["norm_k"] == pytest.approx(
            SQRT3)

    def test_star2_single_sector(self, hex44):
        assert trotterbounds._star_norms(hex44, 1.0)["norm_km1"] == pytest.approx(
            SQRT2)

    def test_zero_matrix(self):
        assert schatten1(np.zeros((4, 4))) == 0.0


class TestStarMatrix:
    def test_full_star_schatten(self, hex44):
        assert schatten1(star_matrix(hex44, 0)) == pytest.approx(2 * SQRT3)

    def test_excluded_star_schatten(self, hex44):
        j = hex44.neighbors(0)[1]
        assert schatten1(star_matrix(hex44, 0, exclude=j)) == pytest.approx(2 * SQRT2)

    def test_site_independent_on_regular(self, hex44):
        values = {round(schatten1(star_matrix(hex44, i)), 12)
                  for i in range(hex44.n_sites)}
        assert len(values) == 1

    def test_fragment_edge_site_degree(self, hexagon):
        star = star_matrix(hexagon, 0)
        assert star.sum() == 4  # k = 2, two symmetric entries each

    def test_exclude_not_neighbor(self, hex44):
        with pytest.raises(ValueError, match="neighbor"):
            star_matrix(hex44, 0, exclude=0)


class TestCommNorms:
    def test_star2_hop_commutator(self, hex44):
        """The two-edge-star/hopping commutator evaluates to 2 + sqrt(2) per
        sector (the quoted closed form 2*sqrt(3) is not reproduced by the
        Schatten evaluation; see the notes in trotterbounds)."""
        val = trotterbounds._star_norms(hex44, 1.0)["comm_km1"]
        assert val == pytest.approx(2 + SQRT2, abs=1e-9)

    def test_star3_hop_commutator(self, hex44):
        val = trotterbounds._star_norms(hex44, 1.0)["comm_k"]
        assert val == pytest.approx(SQRT6, abs=1e-9)

    def test_commutator_with_self_vanishes(self, hex44):
        a = hex44.adjacency.astype(float)
        assert _comm_norm(a, a) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("exclude_idx", [0, 1, 2])
    def test_exclude_choice_irrelevant_on_hex(self, hex44, exclude_idx):
        j = hex44.neighbors(0)[exclude_idx]
        star = star_matrix(hex44, 0, exclude=j)
        val = _comm_norm(star, hex44.adjacency.astype(float))
        assert val == pytest.approx(2 + SQRT2, abs=1e-9)

    def test_size_independence(self, hex44, hex66):
        v4 = _comm_norm(star_matrix(hex44, 0, exclude=hex44.neighbors(0)[0]),
                        hex44.adjacency.astype(float))
        v6 = _comm_norm(star_matrix(hex66, 0, exclude=hex66.neighbors(0)[0]),
                        hex66.adjacency.astype(float))
        assert abs(v4 - v6) <= 1e-9

    def test_scale_propagation(self, ring6):
        # the star norms scale as tau, their commutators with tau R as tau^2
        one = trotterbounds._star_norms(ring6, 1.0)
        three = trotterbounds._star_norms(ring6, 3.0)
        for key in ("norm_k", "norm_km1"):
            assert three[key] == pytest.approx(3.0 * one[key])
        for key in ("comm_k", "comm_km1"):
            assert three[key] == pytest.approx(9.0 * one[key])

    def test_nested_commutator(self, ring6):
        # the per-sector norm of [[S, R], R] is half its Schatten 1-norm
        r = ring6.adjacency.astype(float)
        s = star_matrix(ring6, 0)
        inner = s @ r - r @ s
        nested = inner @ r - r @ inner
        assert schatten1(_commutator_ah(_commutator_hh(s, r), r)) == \
            pytest.approx(schatten1(nested))
        # exactly, on one spin species: a+ S a and a+ R a as Pauli sums
        # (jw_hopping carries the hopping sign -tau)
        star_edges = [(0, j) for j in ring6.neighbors(0)]
        s_op = oracle.jw_hopping(ring6, -1.0, edges=star_edges, spins=(0,))
        r_op = oracle.jw_hopping(ring6, -1.0, spins=(0,))
        exact = exact_spectral_norm(s_op.commutator(r_op).commutator(r_op))
        assert exact == pytest.approx(
            0.5 * schatten1(_commutator_ah(_commutator_hh(s, r), r)),
            rel=1e-10)

    @pytest.mark.parametrize("exclude_idx", [None, 0])
    def test_one_product_commutator_exact_on_01_matrices(self, hex44,
                                                         exclude_idx):
        # products of 0/1 matrices are exact integers, so AB - (AB)^T is
        # AB - BA bit for bit and the star norms keep every bit
        exclude = None if exclude_idx is None else hex44.neighbors(0)[exclude_idx]
        s = star_matrix(hex44, 0, exclude=exclude)
        r = hex44.adjacency.astype(float)
        four = np.abs(np.linalg.eigvalsh(1j * (s @ r - r @ s))).sum()
        assert _comm_norm(s, r) == float(four) / 2.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            _comm_norm(np.eye(2), np.eye(3))


class TestTranslationBlocks:
    @pytest.mark.parametrize("l", [4, 6])
    def test_blocks_carry_the_dense_spectrum(self, monkeypatch, l):
        # the lattice (1 x 1 cell) and the cover sections (4 x 2 or L x 2
        # supercell): each set's blocks are Hermitian and their spectra,
        # taken together, are the spectrum of the dense matrix
        monkeypatch.setattr(freefermion, "DENSE_MAX_SITES", 0)
        lattice = build_periodic_hex(l, l)
        cover = cover_periodic_hex(lattice)
        cases = [(translation_blocks(lattice, [lattice.edges])[0],
                  lattice.adjacency.astype(float))]
        sections = translation_blocks(lattice, [
            [e for tile in sec.tiles for e in tile.edges] for sec in cover.sections])
        cases += [(sections[s], section_adjacency(cover, s))
                  for s in range(cover.n_sections)]
        for blocks, dense in cases:
            assert np.allclose(blocks, np.conj(blocks).swapaxes(-1, -2))
            assert np.allclose(np.sort(np.linalg.eigvalsh(blocks).ravel()),
                               np.linalg.eigvalsh(dense), atol=1e-12)
