import gc
import math
import tracemalloc
import weakref
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

from conftest import (clear_oracle_memos, dagger, exact_spectral_norm,
                      identity, number_op, pauli_word)
from fthub.freefermion import schatten1
from fthub import oracle
from fthub.lattice import (LatticeGraph, SiteInfo, build_periodic_hex,
                           ring_lattice, single_hexagon, symmetry_generators)
from fthub.oracle import (MAX_BLOCK, SizeLimitError, core_block,
                          dense_expm_hermitian,
                          jw_hopping, jw_neighbor, jw_onsite,
                          jw_tile_local, orbital, run_suite,
                          slater_rotation,
                          transfer_term, verify_chemical_shifts,
                          verify_commutator_bounds, verify_commutator_rules,
                          verify_ff_norm, verify_tile_evolution,
                          verify_trotter_step)
from fthub.pauli import PauliSum
from fthub.tiling import cover_hex_fragment
from fthub.trotterbounds import (BoundUnsupportedError, ModelParams,
                                 TrotterErrorBreakdown, w_tile)


def sector_bases(owner):
    """The memoized block bases of a lattice or cover, as the checks get
    them."""
    return oracle._memoized(oracle._sector_bases, owner)


def two_site_chain():
    info = (SiteInfo(0, 0, 0, 0, "edge"), SiteInfo(1, 1, 0, 0, "edge"))
    return LatticeGraph(2, ((0, 1),), info, "custom")


class TestJwBuilders:
    def test_s1_tile_norm(self):
        h = jw_tile_local("S1", tau=0.7)
        vals = np.linalg.eigvalsh(h.to_dense())
        assert np.abs(vals).max() == pytest.approx(0.7)

    def test_hopping_norm_two_site(self):
        lat = two_site_chain()
        h = jw_hopping(lat, 1.0)
        dense = h.to_dense()
        assert np.abs(dense - dense.conj().T).max() < 1e-14
        assert np.abs(np.linalg.eigvalsh(dense)).max() == pytest.approx(
            schatten1(lat.adjacency))

    def test_onsite_spectrum_n2(self):
        lat = two_site_chain()
        h = jw_onsite(lat, 4.0)
        vals = np.unique(np.round(np.linalg.eigvalsh(h.to_dense()), 10))
        assert set(vals) == {-2.0, 0.0, 2.0}

    def test_transfer_term_is_directed(self):
        op = transfer_term(2, 0, 1, 1.0)
        dense = op.to_dense()
        assert np.abs(dense + dense.conj().T
                      - (op + dagger(op)).to_dense()).max() < 1e-14

    def test_size_guard(self):
        lat = ring_lattice(9)
        with pytest.raises(SizeLimitError):
            jw_hopping(lat, 1.0)


class TestSpectralNorm:
    def test_identity(self):
        assert exact_spectral_norm(identity(4)) == pytest.approx(1.0)

    def test_matches_dense_eigensolve(self):
        rng = np.random.default_rng(5)
        op = PauliSum(3)
        for _ in range(10):
            term = PauliSum(3, {(int(rng.integers(8)), int(rng.integers(8))):
                                complex(*rng.standard_normal(2))})
            op = op + term
        op = op + dagger(op)
        expected = np.abs(np.linalg.eigvalsh(op.to_dense())).max()
        assert exact_spectral_norm(op) == pytest.approx(expected, rel=1e-8)

    def test_hexagon_hopping_norm(self, hexagon):
        h = jw_hopping(hexagon, 1.0)
        assert exact_spectral_norm(h) == pytest.approx(
            schatten1(hexagon.adjacency), rel=1e-8)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            exact_spectral_norm(pauli_word(2, {0: "X"}, 1j))


class TestSectorBlocks:
    """The exact norm engine: dense eigensolves of the conserved
    (N_up, N_down) blocks, or of one block when an operator mixes them."""

    @pytest.mark.parametrize("u,v", [(4.0, 0.0), (4.0, 2.0), (1.0, 3.0)])
    def test_nested_commutators_match_dense(self, ring4, u, v):
        h_h = jw_hopping(ring4, 1.0)
        h_i = jw_onsite(ring4, u)
        h_v = jw_neighbor(ring4, v)
        h_c = h_i + h_v
        for a, b, c in ((h_c, h_h, h_c), (h_i, h_h, h_h), (h_v, h_h, h_h)):
            nested = a.commutator(b).commutator(c)
            expected = np.abs(np.linalg.eigvalsh(nested.to_dense())).max()
            assert exact_spectral_norm(nested) == pytest.approx(
                expected, rel=1e-10, abs=1e-12)

    def test_tight_chc_at_zero_v(self, ring4):
        params = ModelParams("extended_hubbard", tau=1.0, u=4.0, v=0.0)
        chc = next(r for r in verify_commutator_bounds(ring4, params)
                   if r["check"] == "comm_CHC")
        assert chc["exact"] / chc["bound"] == pytest.approx(1.0, rel=1e-10)
        assert chc["pass"]

    def test_odd_qubit_count_covers_every_state(self):
        # the all-occupied state has N_up = 3, N_down = 2 on five qubits
        total = PauliSum(5)
        for q in range(5):
            total = total + number_op(5, q)
        assert exact_spectral_norm(total) == pytest.approx(5.0, rel=1e-12)

    def test_non_conserving_operator_matches_dense(self):
        rng = np.random.default_rng(13)
        op = PauliSum(5, {(1, 0): 0.7})     # X_0 changes N_up
        for _ in range(12):
            op = op + PauliSum(5, {(int(rng.integers(32)), int(rng.integers(32))):
                                   complex(*rng.standard_normal(2))})
        op = op + dagger(op)
        expected = np.abs(np.linalg.eigvalsh(op.to_dense())).max()
        assert exact_spectral_norm(op) == pytest.approx(expected, rel=1e-10)

    def test_leaking_section_rejected(self, hexagon, hexagon_cover,
                                      hubbard_params, monkeypatch):
        real = oracle.jw_section

        def with_lone_xx(lattice, cover, s, tau):
            # XX on both spin orbitals of site 0 changes N_up and N_down
            return real(lattice, cover, s, tau) + PauliSum(
                2 * lattice.n_sites, {(0b11, 0): 0.3})

        monkeypatch.setattr(oracle, "jw_section", with_lone_xx)
        bd = w_tile(hexagon, hexagon_cover, hubbard_params)
        with pytest.raises(ValueError, match="section 0 is not block diagonal"):
            verify_trotter_step(hexagon, hexagon_cover, hubbard_params,
                                (0.1,), bd)

    def test_block_cap(self, monkeypatch):
        assert MAX_BLOCK == 4900

        def no_block(*args):
            raise AssertionError("a block was built")

        monkeypatch.setattr(oracle, "_block", no_block)
        op = PauliSum(13, {(1, 0): 1.0, (0, 2): 0.5})   # X_0 mixes sectors
        with pytest.raises(SizeLimitError):
            exact_spectral_norm(op)


class TestTileEvolution:
    @pytest.mark.parametrize("kind", ["S1", "S2", "C4", "S4"])
    @pytest.mark.parametrize("t", [0.1, 0.5, 1.0])
    def test_routes_agree(self, kind, t):
        report = verify_tile_evolution(kind, tau=1.0, t=t)
        assert report["deviation"] <= 1e-10
        assert report["core_deviation"] <= 1e-10
        assert report["pass"]

    def test_t_zero_identity(self):
        report = verify_tile_evolution("S2", tau=1.0, t=0.0)
        assert report["deviation"] <= 1e-14

    @pytest.mark.parametrize("kind,angle", [("S1", 1.0), ("S2", math.sqrt(2)),
                                            ("C4", 2.0), ("S4", 2.0)])
    def test_core_angles(self, kind, angle):
        report = verify_tile_evolution(kind, tau=1.0, t=0.3)
        assert report["core_angle"] == pytest.approx(angle * 0.3)

    def test_dense_route_matches_scipy(self):
        h = jw_tile_local("S2", tau=1.0)
        mat = np.real(h.to_dense())
        ours = dense_expm_hermitian(mat, 0.4)
        theirs = scipy.linalg.expm(-1j * mat * 0.4)
        assert np.abs(ours - theirs).max() < 1e-12

    def test_core_block_unitary(self):
        c = core_block(0.37)
        assert np.abs(c @ c.conj().T - np.eye(4)).max() < 1e-14

    def test_slater_rotation_functorial(self):
        rng = np.random.default_rng(2)
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        r, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        lhs = slater_rotation(q @ r)
        rhs = slater_rotation(q) @ slater_rotation(r)
        assert np.abs(lhs - rhs).max() < 1e-12


class TestCommutatorRules:
    def test_all_rules_exact(self):
        for report in verify_commutator_rules():
            assert report["exact"] == 0.0
            assert report["pass"]


class TestChemicalShifts:
    def test_onsite_n2(self):
        lat = two_site_chain()
        params = ModelParams("hubbard", tau=1.0, u=4.0)
        reports = verify_chemical_shifts(lat, params, eta=1)
        onsite = reports[0]
        assert onsite["shift"] == pytest.approx(0.0)  # -U/2 + U/4 * 2
        assert onsite["pass"]

    def test_neighbor_ring4(self, ring4):
        params = ModelParams("extended_hubbard", tau=1.0, u=4.0, v=2.0)
        reports = verify_chemical_shifts(ring4, params, eta=2)
        neighbor = next(r for r in reports if r["check"] == "chemical_shift_neighbor")
        assert neighbor["pass"]
        # corrected constant: V k / 2 (N - 2 eta) = 0 here; the quoted form
        # V k / 4 (N - 4 eta) = -4 does not match the sector restriction
        assert neighbor["shift"] == pytest.approx(0.0)
        assert neighbor["shift_quoted_form"] == pytest.approx(-4.0)

    def test_vacuum_expectation(self, ring4):
        params = ModelParams("extended_hubbard", tau=1.0, u=4.0, v=2.0)
        reports = verify_chemical_shifts(ring4, params, eta=0)
        assert reports[0]["shift"] == pytest.approx(4.0)   # U N / 4
        assert reports[1]["shift"] == pytest.approx(8.0)   # V k N / 2
        assert all(r["pass"] for r in reports)


class TestCommutatorBounds:
    @pytest.mark.parametrize("u,v", [(0.0, 0.0), (4.0, 2.0)])
    def test_ring6(self, ring6, u, v):
        params = ModelParams("extended_hubbard", tau=1.0, u=u, v=v)
        for report in verify_commutator_bounds(ring6, params):
            assert report["exact"] <= report["bound"] + 1e-9
            assert report["pass"]

    def test_zero_interactions_give_zero(self, ring4):
        params = ModelParams("extended_hubbard", tau=1.0, u=0.0, v=0.0)
        for report in verify_commutator_bounds(ring4, params):
            assert report["exact"] == pytest.approx(0.0, abs=1e-12)


class TestCommutatorGrid:
    """One call checks a lattice's whole (U, V) grid on one set of blocks."""

    GRID = [ModelParams("extended_hubbard", tau=1.0, u=u, v=v)
            for u in (0.0, 2.0, 4.0) for v in (0.0, 2.0, 4.0)]

    def test_grid_equals_one_point_calls(self, ring6, monkeypatch):
        real = oracle._block
        builds = []
        monkeypatch.setattr(oracle, "_block",
                            lambda *args: builds.append(1) or real(*args))
        single = [verify_commutator_bounds(ring6, p) for p in self.GRID]
        per_point = len(builds) // len(self.GRID)
        builds.clear()
        grid = verify_commutator_bounds(ring6, *self.GRID)
        assert grid == [r for reports in single for r in reports]
        assert [r["instance"] for r in grid[::3]] == [
            f"ring/N=6 U={p.u} V={p.v}" for p in self.GRID]
        # each block is built once and serves the whole grid
        assert len(builds) == per_point > 0

    def test_mixed_tau_is_refused(self, ring4):
        other = ModelParams("extended_hubbard", tau=0.5, u=2.0, v=1.0)
        with pytest.raises(ValueError, match="share one tau"):
            verify_commutator_bounds(ring4, self.GRID[0], other)
        with pytest.raises(ValueError, match="share one tau"):
            verify_commutator_bounds(ring4)


class TestBlockCommutators:
    """``verify_commutator_bounds`` takes its nested commutators on sector
    blocks; the Pauli-algebra route is the reference."""

    @pytest.mark.parametrize("name", ["ring4", "ring6", "hexagon"])
    @pytest.mark.parametrize("u", [0.0, 2.0, 4.0])
    @pytest.mark.parametrize("v", [0.0, 2.0, 4.0])
    def test_match_pauli_nested_commutators(self, request, name, u, v):
        lattice = request.getfixturevalue(name)
        tau = 0.8 if name == "ring4" else 1.0
        params = ModelParams("extended_hubbard", tau=tau, u=u, v=v)
        h_h = jw_hopping(lattice, tau)
        h_i = jw_onsite(lattice, u)
        h_v = jw_neighbor(lattice, v)
        h_c = h_i + h_v
        reference = {
            "comm_CHC": h_c.commutator(h_h).commutator(h_c),
            "comm_IHH": h_i.commutator(h_h).commutator(h_h),
            "comm_VHH": h_v.commutator(h_h).commutator(h_h)}
        reports = verify_commutator_bounds(lattice, params)
        assert [r["check"] for r in reports] == list(reference)
        for report in reports:
            expected = exact_spectral_norm(reference[report["check"]])
            assert report["exact"] == pytest.approx(expected, rel=1e-10,
                                                    abs=1e-12), report["check"]

    def test_no_pauli_product(self, ring6, monkeypatch):
        params = ModelParams("extended_hubbard", tau=1.0, u=2.0, v=2.0)
        expected = verify_commutator_bounds(ring6, params)

        def refuse(self, other):
            raise AssertionError("PauliSum product formed")

        monkeypatch.setattr(PauliSum, "__matmul__", refuse)
        reports = verify_commutator_bounds(ring6, params)
        assert reports == expected
        assert all(r["pass"] and r["exact"] > 0 for r in reports)


class TestSectorSymmetries:
    """Spin flip, particle-hole and cycle rotations: each orbit of
    (N_up, N_down) sectors is solved once, as the character blocks of its
    stabiliser, with a map used only after ``_commutes`` has checked it once
    on every compiled operator and the Coulomb diagonals are equal under
    it.  The plain run, with no maps, solves every sector whole."""

    @staticmethod
    def plain(monkeypatch, check, *args):
        with monkeypatch.context() as m:
            m.setattr(oracle, "_symmetry_maps", lambda lattice: [])
            clear_oracle_memos()
            try:
                return check(*args)
            finally:
                clear_oracle_memos()

    @staticmethod
    def count_calls(monkeypatch, name):
        calls = []
        real = getattr(np.linalg, name)

        def counted(a, *args, **kwargs):
            calls.append(a.shape)
            return real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
        return calls

    @pytest.mark.parametrize("name", ["ring4", "ring5", "ring6", "hexagon"])
    @pytest.mark.parametrize("u,v", [(0.0, 0.0), (0.0, 3.0), (4.0, 0.0),
                                     (2.0, 1.0), (1.0, 4.0)])
    def test_commutators_reduced_equal_plain(self, request, monkeypatch,
                                             name, u, v):
        lattice = request.getfixturevalue(name)
        params = ModelParams("extended_hubbard", tau=1.0, u=u, v=v)
        reduced = verify_commutator_bounds(lattice, params)
        plain = self.plain(monkeypatch, verify_commutator_bounds, lattice,
                           params)
        for got, want in zip(reduced, plain):
            assert got["exact"] == pytest.approx(want["exact"], rel=1e-12,
                                                 abs=0.0), got["check"]

    @pytest.mark.parametrize("u", [0.0, 4.0])
    def test_trotter_step_reduced_equals_plain(self, hexagon, hexagon_cover,
                                               monkeypatch, u):
        params = ModelParams("hubbard", tau=1.0, u=u)
        bd = w_tile(hexagon, hexagon_cover, params)
        args = (hexagon, hexagon_cover, params, (0.05, 0.1, 0.2), bd)
        reduced = verify_trotter_step(*args)
        plain = self.plain(monkeypatch, verify_trotter_step, *args)
        # the error is a difference of unitaries with entries of order 1, so
        # a mirror sector may move it by a few ulp of 1 as well
        for got, want in zip(reduced, plain):
            assert got["exact"] == pytest.approx(want["exact"], rel=1e-12,
                                                 abs=1e-15)

    @staticmethod
    def sparse(op):
        idx = np.arange(1 << op.n_qubits)
        groups = op.compile()
        return scipy.sparse.csr_matrix((
            np.concatenate(list(groups.values())),
            (np.concatenate([idx ^ x for x in groups]),
             np.tile(idx, len(groups)))), shape=(idx.size, idx.size))

    def test_maps_are_signed_symmetries(self, ring4, hexagon, hexagon_cover):
        h = (jw_hopping(ring4, 1.0) + jw_onsite(ring4, 4.0)
             + jw_neighbor(ring4, 2.0)).to_dense()
        maps = oracle._symmetry_maps(ring4)
        # spin flip, particle-hole, their product, the shifts by 1 and 2
        assert len(maps) == 5
        for perm, sign in maps:
            p = np.zeros_like(h)
            p[perm, np.arange(perm.size)] = sign
            assert np.abs(p @ h @ p.T - h).max() < 1e-14

        # the check on the compiled form agrees with P H P^T = H (sparse, so
        # the 12-qubit matrices stay small); the number operator is odd
        # under particle-hole
        ring5 = ring_lattice(5)
        cases = []
        for lattice in (ring4, ring5, hexagon):
            total = PauliSum(2 * lattice.n_sites)
            for q in range(2 * lattice.n_sites):
                total = total + number_op(2 * lattice.n_sites, q)
            ops = [jw_hopping(lattice, 1.0), jw_onsite(lattice, 4.0),
                   jw_neighbor(lattice, 2.0), total]
            if lattice is hexagon:
                ops += [oracle.jw_section(hexagon, hexagon_cover, s, 1.0)
                        for s in range(hexagon_cover.n_sections)]
            cases += [(op, m) for op in ops
                      for m in oracle._symmetry_maps(lattice)]
        agreed = Counter()
        for op, (perm, sign) in cases:
            p = scipy.sparse.csr_matrix((sign, (perm, np.arange(perm.size))))
            h = self.sparse(op)
            matrix = bool(abs(p @ h @ p.T - h).max() < 1e-14)
            assert oracle._commutes(op.compile(), perm, sign) == matrix
            agreed[matrix] += 1
        # 5 maps x 4 operators on ring4, 2 x 4 on ring5 and 6 x 6 on the
        # two-section hexagon; the number operator fails the two maps with
        # particle-hole on ring4 and on the hexagon, and the shifts by 1 and
        # 3 swap the hexagon's sections
        assert hexagon_cover.n_sections == 2
        assert agreed == {True: 18 + 8 + 30, False: 2 + 2 + 4}

    def test_commutes_refuses_broken_maps(self, ring4):
        lone_z = PauliSum(8, {(0, 1): 0.3}).compile()
        maps = oracle._symmetry_maps(ring4)
        assert not any(oracle._commutes(lone_z, *m) for m in maps)
        # swapping states 2 and 4 alone is not affine: X_0 pairs 4 with 5,
        # which the swap turns into 2 with 5.  Its diagonal is constant, so
        # only the mask condition can see that
        x_0 = PauliSum(8, {(1, 0): 1.0}).compile()
        perm = np.arange(256)
        perm[[2, 4]] = perm[[4, 2]]
        assert not oracle._commutes(x_0, perm, np.ones(256))
        assert oracle._commutes(x_0, np.arange(256), np.ones(256))
        hop = jw_hopping(ring4, 1.0).compile()
        assert all(oracle._commutes(hop, *m) for m in maps)

    def test_sector_sets_refuses_a_split_image(self):
        labels = oracle._spin_labels(4)
        perm = np.arange(16)
        # state 2 is in sector (0, 1) and state 4 in (1, 0); swapping them
        # alone splits both sectors
        perm[[2, 4]] = perm[[4, 2]]
        with pytest.raises(ValueError, match="onto part of sector"):
            oracle._sector_sets(labels, [(perm, np.ones(16))])
        flip, _ = oracle._symmetry_maps(two_site_chain())[0]
        assert len(oracle._sector_sets(labels, [(flip, np.ones(16))])) == 6

    def test_hexagon_solves_one_sector_per_orbit(self, hexagon,
                                                 hexagon_cover,
                                                 hubbard_params, monkeypatch):
        # orbits of the 7 x 7 sectors under spin flip, particle-hole and
        # their product: (49 + 7 + 1 + 7) / 4 = 16 by Burnside's lemma.  The
        # sections keep the shift by 2 along the cycle, of order 3, which
        # splits each kept sector into k = 0 and a conjugate pair, solved
        # once.  With the parity blocks of the sectors that spin flip or
        # particle-hole fix, that gives 44 blocks, the largest 100 states of
        # a 300-state sector such as (2, 3)
        assert len(oracle._symmetry_maps(hexagon)) == 6
        bd = w_tile(hexagon, hexagon_cover, hubbard_params)
        calls = self.count_calls(monkeypatch, "eigh")
        verify_trotter_step(hexagon, hexagon_cover, hubbard_params, (0.1,),
                            bd)
        ops = 1 + hexagon_cover.n_sections
        assert len(calls) == ops * 44
        assert max(n for n, _ in calls) == 100
        # 1.17e8 for the 16 whole sectors, the largest of 400 states, and
        # 4.0e7 for their 23 parity blocks, the largest of 300
        assert sum(n ** 3 for n, _ in calls) == ops * 2_972_644

    def test_no_particle_hole_without_two_colouring(self, monkeypatch):
        ring5 = ring_lattice(5)
        assert oracle._two_colouring(ring5) is None
        # spin flip and the shift by 1
        assert len(oracle._symmetry_maps(ring5)) == 2
        params = ModelParams("extended_hubbard", tau=1.0, u=3.0, v=1.0)
        reduced = verify_commutator_bounds(ring5, params)
        plain = self.plain(monkeypatch, verify_commutator_bounds, ring5,
                           params)
        for got, want in zip(reduced, plain):
            assert got["exact"] == pytest.approx(want["exact"], rel=1e-12,
                                                 abs=0.0)

    def test_broken_section_symmetry_falls_back(self, hexagon, hexagon_cover,
                                                hubbard_params, monkeypatch):
        real = oracle.jw_section

        def with_lone_z(lattice, cover, s, tau):
            # Z on qubit 0 conserves both electron numbers, but spin flip
            # moves it to qubit 1 and particle-hole flips its sign
            return real(lattice, cover, s, tau) + PauliSum(
                2 * lattice.n_sites, {(0, 1): 0.3})

        monkeypatch.setattr(oracle, "jw_section", with_lone_z)
        bd = w_tile(hexagon, hexagon_cover, hubbard_params)
        args = (hexagon, hexagon_cover, hubbard_params, (0.05, 0.1), bd)
        plain = self.plain(monkeypatch, verify_trotter_step, *args)
        calls = self.count_calls(monkeypatch, "eigh")
        assert verify_trotter_step(*args) == plain
        assert len(calls) == (1 + hexagon_cover.n_sections) * 49

    def test_broken_diagonal_symmetry_falls_back(self, hexagon, monkeypatch):
        real = oracle.jw_neighbor

        def with_lone_z(lattice, v):
            return real(lattice, v) + PauliSum(2 * lattice.n_sites,
                                               {(0, 1): 0.3})

        monkeypatch.setattr(oracle, "jw_neighbor", with_lone_z)
        params = ModelParams("extended_hubbard", tau=1.0, u=2.0, v=1.0)
        plain = self.plain(monkeypatch, verify_commutator_bounds, hexagon,
                           params)
        calls = self.count_calls(monkeypatch, "eigvalsh")
        assert verify_commutator_bounds(hexagon, params) == plain
        assert len(calls) == 3 * 49


    def test_walk_builds_each_block_once(self, hexagon, hexagon_cover,
                                         hubbard_params, monkeypatch):
        # the symmetries are checked on the compiled operators, so the walk
        # builds no block: each operator's block on a kept basis is built
        # once, by its solve
        bd = w_tile(hexagon, hexagon_cover, hubbard_params)
        params = ModelParams("extended_hubbard", tau=1.0, u=2.0, v=1.0)
        real = oracle._block
        for check, args in ((verify_trotter_step,
                             (hexagon, hexagon_cover, hubbard_params, (0.1,),
                              bd)),
                            (verify_commutator_bounds, (hexagon, params))):
            builds = Counter()

            def counted(groups, basis, dim):
                states, coefs = basis
                builds[id(groups), states.tobytes(), coefs.tobytes()] += 1
                return real(groups, basis, dim)

            with monkeypatch.context() as m:
                m.setattr(oracle, "_block", counted)
                check(*args)
            assert max(builds.values()) == 1, check.__name__


class TestParityBases:
    """A sector is solved as the character blocks of its stabiliser:
    symmetry-adapted bases whose columns are normalised sums over the orbits
    of the maps, weighted by a character.  Spin flip and particle-hole alone
    give the real parity blocks; the rotations of a cycle add complex
    characters."""

    @staticmethod
    def dense(basis, dim):
        states, coefs = basis
        q = np.zeros((dim, states.shape[1]), dtype=coefs.dtype)
        for s, c in zip(states, coefs):
            q[s, np.arange(s.size)] += c
        return q

    @staticmethod
    def both_of_each_pair(monkeypatch):
        """Solve both blocks of each conjugate pair of characters."""
        real = oracle._adapted_bases
        monkeypatch.setattr(oracle, "_adapted_bases",
                            lambda members, stab, halve:
                            real(members, stab, False))

    @pytest.mark.parametrize("name", ["ring4", "ring5", "hexagon"])
    def test_bases_split_each_sector(self, request, monkeypatch, name):
        lattice = request.getfixturevalue(name)
        n_qubits = 2 * lattice.n_sites
        dim = 1 << n_qubits
        labels = oracle._spin_labels(n_qubits)
        op = (jw_hopping(lattice, 1.0) + jw_onsite(lattice, 4.0)
              + jw_neighbor(lattice, 2.0))
        h = TestSectorSymmetries.sparse(op)
        maps = oracle._symmetry_maps(lattice)
        self.both_of_each_pair(monkeypatch)
        groups = op.compile()
        bases = sector_bases(lattice)
        by_sector = {}
        for basis in bases:
            by_sector.setdefault(int(labels[basis[0][0, 0]]), []).append(basis)
        split = 0
        for label, blocks in by_sector.items():
            members = np.flatnonzero(labels == label)
            stab = [(p, s) for p, s in maps
                    if labels[p[members[0]]] == label]
            qs = [self.dense(b, dim) for b in blocks]
            # the blocks partition the sector, each with orthonormal columns
            assert sum(q.shape[1] for q in qs) == members.size
            q_all = np.hstack(qs)
            assert np.abs(q_all.conj().T @ q_all
                          - np.eye(members.size)).max() < 1e-14
            assert not q_all[labels != label].any()
            # every stabiliser map acts on a block as its character, a
            # root of unity, and no two blocks of a sector share one; the
            # blocks of real characters are real
            characters = set()
            for basis, q in zip(blocks, qs):
                chi = []
                for perm, sign in stab:
                    pq = np.zeros_like(q)
                    pq[perm] = sign[:, None] * q
                    qpq = q.conj().T @ pq
                    chi.append(qpq[0, 0])
                    assert abs(abs(chi[-1]) - 1) < 1e-14
                    assert np.abs(qpq - chi[-1] * np.eye(q.shape[1])).max() \
                        < 1e-14
                characters.add(tuple(np.round(chi, 10)))
                assert np.isrealobj(q) == all(abs(c.imag) < 1e-14
                                              for c in chi)
                # the scatter build is Q^H H Q
                assert np.abs(oracle._block(groups, basis, dim)
                              - q.conj().T @ (h @ q)).max() < 1e-12
            assert len(characters) == len(blocks)
            split += len(blocks) > 1
        # every kept sector with more than one state: 7 of 9 on ring4, 18 of
        # 21 on ring5 (spin flip only) and 14 of 16 on the hexagon.  Before
        # the rotations, only the self-mapped sectors were split: 3, 4 and 5
        assert split == {"ring4": 7, "ring5": 18, "hexagon": 14}[name]

    @staticmethod
    def two_dimers():
        info = tuple(SiteInfo(i, i, 0, i % 2, "edge") for i in range(4))
        return LatticeGraph(4, ((0, 1), (2, 3)), info, "custom")

    @pytest.mark.parametrize("broken", ["square", "anticommute"])
    def test_broken_stabiliser_solves_the_whole_sector(self, monkeypatch,
                                                        broken):
        # on two disconnected dimers the number of up electrons on the first
        # one is conserved, so its parity s may multiply a map's sign and
        # the map still commutes with every operator.  s times spin flip
        # squares to (-1)^(electrons on the first dimer); s times
        # particle-hole is an involution that anticommutes with spin flip
        # wherever that number is odd
        lattice = self.two_dimers()
        real = oracle._symmetry_maps
        idx = np.arange(256)
        s = 1.0 - 2.0 * ((idx ^ (idx >> 2)) & 1)

        def broken_maps(lat):
            (flip, f_sign), (hole, h_sign), _ = real(lat)
            if broken == "square":
                f_sign = f_sign * s
            else:
                h_sign = h_sign * s
            return [(flip, f_sign), (hole, h_sign),
                    (flip[hole], h_sign * f_sign[hole])]

        monkeypatch.setattr(oracle, "_symmetry_maps", broken_maps)
        hop = jw_hopping(lattice, 1.0)
        assert all(oracle._commutes(hop.compile(), *m)
                   for m in broken_maps(lattice))
        labels = oracle._spin_labels(8)
        bases = sector_bases(lattice)
        refused = 1 * 9 + 1 if broken == "square" else 2 * 9 + 2
        whole = [b for b in bases if labels[b[0][0, 0]] == refused]
        assert len(whole) == 1
        assert whole[0][0].shape == (1, np.sum(labels == refused))
        params = ModelParams("extended_hubbard", tau=1.0, u=2.0, v=1.0)
        # k = 1 has no shipped bound; only the exact norms are compared
        monkeypatch.setattr(oracle, "w_so2_extended", lambda lattice, params:
                            SimpleNamespace(components=dict.fromkeys(
                                ("comm_CHC_bound", "comm_IHH_bound",
                                 "comm_VHH_bound"), math.inf)))
        got = verify_commutator_bounds(lattice, params)
        plain = TestSectorSymmetries.plain(monkeypatch,
                                           verify_commutator_bounds,
                                           lattice, params)
        for g, want in zip(got, plain):
            assert g["exact"] == pytest.approx(want["exact"], rel=1e-12,
                                               abs=0.0)

    def test_adapted_bases_refuse_a_broken_group(self):
        lattice = self.two_dimers()
        labels = oracle._spin_labels(8)
        members = np.flatnonzero(labels == 2 * 9 + 2)
        flip, hole, both = oracle._symmetry_maps(lattice)
        bases = oracle._adapted_bases(members, [flip, hole, both], False)
        assert len(bases) == 4
        # the product is an element already: the two generators alone give
        # the same blocks
        again = oracle._adapted_bases(members, [flip, hole], False)
        assert len(again) == 4
        for (s1, c1), (s2, c2) in zip(bases, again):
            assert np.array_equal(s1, s2) and np.array_equal(c1, c2)
        # spin flip times the parity s of the up electrons on the first
        # dimer squares to a sign pattern sigma on sector (1, 1) that is not
        # a constant, so it does not generate a group closed up to a
        # constant phase; nor does sigma, a diagonal map
        members = np.flatnonzero(labels == 1 * 9 + 1)
        idx = np.arange(256)
        perm, sign = flip
        sign = sign * (1.0 - 2.0 * ((idx ^ (idx >> 2)) & 1))
        sigma = sign * sign[perm]
        assert (sigma[members] == -1).any()
        for broken in ([(perm, sign)], [(idx, sigma)],
                       [(perm, sign), (idx, sigma)]):
            assert oracle._adapted_bases(members, broken, False) is None
        # s times particle-hole squares to 1 on sector (2, 2), but it
        # anticommutes with spin flip wherever s is -1 there: only the signs
        # tell that the two do not commute
        members = np.flatnonzero(labels == 2 * 9 + 2)
        s = 1.0 - 2.0 * ((idx ^ (idx >> 2)) & 1)
        assert (s[members] == -1).any()
        twisted = (hole[0], hole[1] * s)
        assert len(oracle._adapted_bases(members, [twisted], False)) == 2
        assert oracle._adapted_bases(members, [flip, twisted], False) is None


class TestMomentumBlocks:
    """The rotations of a cycle, lifted from site permutations with their
    Jordan-Wigner sign, split each sector into momentum blocks; complex
    characters come in conjugate pairs, of which one block is solved."""

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_rotation_sign(self, n):
        maps = oracle._symmetry_maps(ring_lattice(n))
        # the shift by 1 follows spin flip, and particle-hole on even rings
        perm, sign = maps[1 if n % 2 else 3]
        n_qubits = 2 * n
        mode = [orbital((q // 2 + 1) % n, q % 2) for q in range(n_qubits)]
        for m in range(1 << n_qubits):
            image = [mode[q] for q in range(n_qubits) if m >> q & 1]
            inversions = sum(a > b for k, a in enumerate(image)
                             for b in image[k + 1:])
            assert perm[m] == sum(1 << q for q in image)
            assert sign[m] == (-1) ** inversions
        # the up electron on the last site passes the k up electrons on
        # sites 0 .. k-1 as it wraps to site 0
        last = 1 << orbital(n - 1, 0)
        for k in range(n - 1):
            state = last | sum(1 << orbital(i, 0) for i in range(k))
            assert sign[state] == (-1) ** k
        # the lift is a representation, so T^n is the identity with sign +1,
        # for odd and even electron numbers alike
        up, dn = oracle._spin_occupations(n_qubits)
        assert {0, 1} <= set((up + dn) % 2)
        state, total = np.arange(1 << n_qubits), np.ones(1 << n_qubits)
        for _ in range(n):
            state, total = perm[state], total * sign[state]
            assert _ < n - 1 or np.array_equal(state, np.arange(state.size))
        assert (total == 1).all()

    def test_generator_with_a_phase(self, ring5):
        # the shift by 1 with its sign negated, -T, is a symmetry as well,
        # and (-T)^5 = -1: its characters are the fifth roots of -1, and it
        # splits each sector into the blocks of T
        (perm, sign), n_qubits = oracle._symmetry_maps(ring5)[1], 10
        labels = oracle._spin_labels(n_qubits)
        members = np.flatnonzero(labels == 2 * 11 + 1)
        plus = oracle._adapted_bases(members, [(perm, sign)], False)
        minus = oracle._adapted_bases(members, [(perm, -sign)], False)
        assert len(minus) == len(plus) == 5
        assert sorted(b[0].shape[1] for b in minus) == sorted(
            b[0].shape[1] for b in plus)
        assert sum(b[0].shape[1] for b in minus) == members.size
        for basis in minus:
            q = TestParityBases.dense(basis, 1 << n_qubits)
            pq = np.zeros_like(q)
            pq[perm] = -sign[:, None] * q
            chi = (q.conj().T @ pq)[0, 0]
            assert chi ** 5 == pytest.approx(-1, abs=1e-12)
            assert np.abs(pq - chi * q).max() < 1e-14

    def test_step_keeps_the_shift_by_two(self, hexagon, hexagon_cover,
                                         hubbard_params, monkeypatch):
        # the sections are alternate edges of the cycle 0-1-2-5-4-3: the
        # shifts by 1 and 3 swap them, the shift by 2 keeps each
        maps = oracle._symmetry_maps(hexagon)
        (rotation,) = symmetry_generators(hexagon)
        cycle = [0]
        while len(cycle) < 6:
            cycle.append(int(rotation[cycle[-1]]))
        assert cycle == [0, 1, 2, 5, 4, 3]
        shifts = dict(zip((1, 2, 3), maps[3:]))
        hop = jw_hopping(hexagon, 1.0).compile()
        sections = [oracle.jw_section(hexagon, hexagon_cover, s, 1.0).compile()
                    for s in range(hexagon_cover.n_sections)]
        for d, m in shifts.items():
            assert oracle._commutes(hop, *m)
            assert all(oracle._commutes(g, *m) for g in sections) == (d == 2)
        given, largest = [], []
        real = oracle._adapted_bases

        def record(members, stab, halve):
            given.append([d for d, (p, _) in shifts.items()
                          if any(np.array_equal(p, q) for q, _ in stab)])
            bases = real(members, stab, halve)
            largest.append(max(b[0].shape[1] for b in bases))
            return bases

        monkeypatch.setattr(oracle, "_adapted_bases", record)
        bd = w_tile(hexagon, hexagon_cover, hubbard_params)
        verify_trotter_step(hexagon, hexagon_cover, hubbard_params, (0.1,),
                            bd)
        # the shift by 2 has order 3: a third of a 300-state sector
        assert len(given) == 16 and all(g == [2] for g in given)
        assert max(largest) == 100
        given.clear()
        largest.clear()
        verify_commutator_bounds(hexagon, ModelParams(
            "extended_hubbard", tau=1.0, u=2.0, v=1.0))
        # all three pass for the commutator checks; the builder generates
        # with the shift by 1, of order 6, and skips the others, its powers
        assert len(given) == 16 and all(g == [1, 2, 3] for g in given)
        assert max(largest) == 50

    def test_conjugate_blocks_agree(self, hexagon, hexagon_cover,
                                    hubbard_params, monkeypatch):
        coulomb = jw_onsite(hexagon, hubbard_params.u)
        pieces = [("H", jw_hopping(hexagon, 1.0) + coulomb)] + [
            (f"section {s}", oracle.jw_section(hexagon, hexagon_cover, s, 1.0))
            for s in range(hexagon_cover.n_sections)]
        c_diag = oracle._diag_of_z_sum(coulomb)
        dim = 1 << 12
        t_list = (0.05, 0.1, 0.2)
        groups = [op.compile() for _, op in pieces]
        halved = sector_bases(hexagon_cover)
        with monkeypatch.context() as m:
            TestParityBases.both_of_each_pair(m)
            clear_oracle_memos()
            bases = sector_bases(hexagon_cover)
        clear_oracle_memos()
        # conj(chi) has the conjugate coefficients, to rounding
        pairs = [(a, b) for a in bases for b in bases
                 if np.iscomplexobj(a[1]) and a is not b
                 and np.array_equal(a[0], b[0])
                 and np.abs(a[1].conj() - b[1]).max() < 1e-15]
        assert len(pairs) == 2 * (len(bases) - len(halved)) > 0
        for a, b in pairs:
            for g in groups:
                block = oracle._block(g, a, dim)
                other = oracle._block(g, b, dim)
                assert np.abs(other - block.conj()).max() < 1e-14
                assert np.linalg.eigvalsh(other) == pytest.approx(
                    np.linalg.eigvalsh(block), rel=0, abs=1e-12)
            assert oracle._step_errors(groups, a, dim, c_diag, t_list) == \
                pytest.approx(oracle._step_errors(groups, b, dim, c_diag,
                                                  t_list), rel=1e-12)
        bd = w_tile(hexagon, hexagon_cover, hubbard_params)
        args = (hexagon, hexagon_cover, hubbard_params, t_list, bd)
        reduced = verify_trotter_step(*args)
        with monkeypatch.context() as m:
            TestParityBases.both_of_each_pair(m)
            clear_oracle_memos()
            both = verify_trotter_step(*args)
        for got, want in zip(reduced, both):
            assert got["exact"] == pytest.approx(want["exact"], rel=1e-12)

    def test_non_abelian_stabiliser_falls_back(self, ring6, monkeypatch):
        # the reflection i -> -i of the ring is a symmetry too, but it does
        # not commute with the rotations: each sector falls back to its
        # parity blocks, those of spin flip and particle-hole
        real = oracle._symmetry_maps
        site = -np.arange(6) % 6
        reflection = oracle._lift(2 * site.repeat(2) + np.arange(12) % 2)
        assert oracle._commutes(jw_hopping(ring6, 1.0).compile(), *reflection)
        params = ModelParams("extended_hubbard", tau=1.0, u=2.0, v=1.0)
        # warm: the bound's own eigensolves are memoized
        verify_commutator_bounds(ring6, params)
        with monkeypatch.context() as m:
            m.setattr(oracle, "_symmetry_maps",
                      lambda lattice: real(lattice)[:3])
            clear_oracle_memos()
            calls = TestSectorSymmetries.count_calls(m, "eigvalsh")
            parity = verify_commutator_bounds(ring6, params)
            n_parity = len(calls)
        monkeypatch.setattr(oracle, "_symmetry_maps",
                            lambda lattice: real(lattice) + [reflection])
        clear_oracle_memos()
        calls = TestSectorSymmetries.count_calls(monkeypatch, "eigvalsh")
        assert verify_commutator_bounds(ring6, params) == parity
        assert len(calls) == n_parity
        plain = TestSectorSymmetries.plain(monkeypatch,
                                           verify_commutator_bounds, ring6,
                                           params)
        for got, want in zip(parity, plain):
            assert got["exact"] == pytest.approx(want["exact"], rel=1e-12,
                                                 abs=0.0)


class TestFreeFermionNorm:
    def test_torus_keeps_its_translations(self, monkeypatch):
        # spin flip, particle-hole, their product and the two cell
        # translations, of order 2: 130 blocks, the largest 980 states,
        # against 34 blocks of up to 3,920 states without the translations
        torus = build_periodic_hex(2, 2)
        assert len(oracle._symmetry_maps(torus)) == 5
        # warm: the bound's own eigensolve is memoized
        oracle._adjacency_schatten1(torus)
        calls = TestSectorSymmetries.count_calls(monkeypatch, "eigvalsh")
        report = verify_ff_norm(torus)
        assert len(calls) == 130
        assert max(n for n, _ in calls) == 980
        assert report["pass"]
        assert report["exact"] == pytest.approx(12.0, rel=1e-12)


class TestTransientMemory:
    """The tracemalloc peak of one warm hexagon check: a block's matrices
    are built where they are consumed and freed before the next solve, the
    nested commutators one at a time, and one section step at a time."""

    # half a real block of the hexagon's largest sector, 400 states:
    # 400^2 * 8 B / 2
    SLACK = 400 ** 2 * 8 // 2

    @staticmethod
    def peak(check, *args, cold=False):
        """Peak of a second call; with ``cold``, the sector analysis is
        redone in it, so its memo entry counts toward the peak."""
        check(*args)
        if cold:
            clear_oracle_memos()
        tracemalloc.start()
        try:
            check(*args)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_commutator_bounds(self, hexagon):
        params = ModelParams("extended_hubbard", tau=1.0, u=2.0, v=2.0)
        # 10.33 MiB when the walk built blocks to check the maps and the
        # three nested commutators were live together, 7.86 MiB when each
        # self-mapped sector was solved whole, 4.71 MiB with parity blocks
        # alone (largest 300 states, against 50 with the momentum blocks)
        assert self.peak(verify_commutator_bounds, hexagon,
                         params) <= 1_779_512 + self.SLACK

    def test_trotter_step(self, hexagon, hexagon_cover, hubbard_params):
        bd = w_tile(hexagon, hexagon_cover, hubbard_params)
        # 24.09 MiB when the walk built blocks to check the maps and every
        # section's half step was live together, 16.74 MiB when each
        # self-mapped sector was solved whole, 9.84 MiB with parity blocks
        # alone (largest 300 states, against 100 with the momentum blocks)
        assert self.peak(verify_trotter_step, hexagon, hexagon_cover,
                         hubbard_params, (0.05, 0.1, 0.2),
                         bd) <= 2_359_692 + self.SLACK

    def test_commutator_bounds_cold(self, hexagon):
        # the bounds of the warm call, which before the sector memo redid
        # the analysis on every call
        params = ModelParams("extended_hubbard", tau=1.0, u=2.0, v=2.0)
        assert self.peak(verify_commutator_bounds, hexagon, params,
                         cold=True) <= 1_779_512 + self.SLACK

    def test_trotter_step_cold(self, hexagon, hexagon_cover, hubbard_params):
        bd = w_tile(hexagon, hexagon_cover, hubbard_params)
        assert self.peak(verify_trotter_step, hexagon, hexagon_cover,
                         hubbard_params, (0.05, 0.1, 0.2), bd,
                         cold=True) <= 2_359_692 + self.SLACK


class TestSectorMemo:
    """The sector analysis of a lattice (its hopping operator and unit
    Coulomb diagonals) or a cover (those and each section) is memoized by
    the owner's ``key`` alone; blocks are built on every call from the
    caller's own tau-scaled operators and (U, V)-scaled diagonals."""

    TAUS = (0.5, 0.7, 1.0)
    POINTS = ((0.0, 0.0), (2.0, 1.0), (4.0, 3.0), (1.0, 4.0))
    STEP_TIMES = (0.05, 0.1, 0.2)

    @staticmethod
    def step_args(lattice, cover, model, tau, u, v):
        params = ModelParams(model, tau=tau, u=u, v=v)
        # the exact step error does not read the bound: rings have no
        # on-site bound, so a stand-in breakdown serves every lattice
        bd = TrotterErrorBreakdown(w_so2=1.0, w_h=0.0)
        return lattice, cover, params, TestSectorMemo.STEP_TIMES, bd

    def calls(self, lattice, cover):
        out = [(verify_ff_norm, (lattice, tau)) for tau in self.TAUS]
        out += [(verify_commutator_bounds, (lattice, *[
            ModelParams("extended_hubbard", tau=tau, u=u, v=v)
            for u, v in self.POINTS])) for tau in self.TAUS]
        out += [(verify_trotter_step,
                 self.step_args(lattice, cover, model, tau, u, v))
                for model in ("hubbard", "extended_hubbard")
                for tau in self.TAUS for u, v in self.POINTS[1:3]]
        return out

    @pytest.mark.parametrize("name", ["ring4", "ring6", "hexagon"])
    def test_warm_equals_cold(self, request, name):
        lattice = request.getfixturevalue(name)
        cover = cover_hex_fragment(lattice)
        cold = []
        for check, args in self.calls(lattice, cover):
            clear_oracle_memos()
            cold.append(check(*args))
        clear_oracle_memos()
        warm = [check(*args) for check, args in self.calls(lattice, cover)]
        # repr tells every float bit apart, the sign of zero included
        assert repr(warm) == repr(cold)
        # one entry per family: the lattice's and the cover's
        info = oracle._sector_bases.cache_info()
        assert (info.misses, info.currsize) == (2, 2)
        assert info.hits == len(warm) - 2

    def test_ff_norm_and_commutators_share_an_entry(self, ring6):
        verify_ff_norm(ring6, 0.5)
        verify_commutator_bounds(ring6, ModelParams(
            "extended_hubbard", tau=1.0, u=2.0, v=1.0))
        info = oracle._sector_bases.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 1, 1)

    def test_broken_unit_diagonal_keeps_no_map(self, hexagon, monkeypatch):
        params = ModelParams("extended_hubbard", tau=0.7, u=2.0, v=1.0)
        whole = verify_commutator_bounds(hexagon, params)
        real = oracle.jw_neighbor
        # a lone Z on qubit 0, patched before a cold memo, leaves the unit
        # neighbor diagonal unequal under every map: the entry keeps none,
        # and each of the 7 x 7 sectors is one whole block
        monkeypatch.setattr(oracle, "jw_neighbor", lambda lattice, v: real(
            lattice, v) + PauliSum(2 * lattice.n_sites, {(0, 1): 0.3}))
        clear_oracle_memos()
        assert len(sector_bases(hexagon)) == 49
        broken = verify_commutator_bounds(hexagon, params)
        plain = TestSectorSymmetries.plain(monkeypatch,
                                           verify_commutator_bounds,
                                           hexagon, params)
        assert repr(broken) == repr(plain)
        assert broken != whole
        monkeypatch.undo()
        clear_oracle_memos()
        assert repr(verify_commutator_bounds(hexagon, params)) == repr(whole)

    def test_torus_keeps_every_map(self, monkeypatch):
        # the only 3-regular lattice the oracle checks, and so the only
        # exact check of the tabulated VHH constant: spin flip,
        # particle-hole, their product and the two cell translations all
        # commute with the hopping operator and leave both unit diagonals
        # equal
        torus = build_periodic_hex(2, 2)
        real = oracle._sector_sets
        kept = []

        def record(labels, maps=()):
            kept.append(len(maps))
            return real(labels, maps)

        monkeypatch.setattr(oracle, "_sector_sets", record)
        reports = verify_commutator_bounds(torus, ModelParams(
            "extended_hubbard", tau=1.0, u=2.0, v=2.0))
        assert kept == [len(oracle._symmetry_maps(torus))] == [5]
        assert all(r["pass"] is True for r in reports)
        exact = {r["check"]: r["exact"] for r in reports}
        assert exact == pytest.approx({"comm_CHC": 408.00468,
                                       "comm_IHH": 133.19716,
                                       "comm_VHH": 492.67913}, rel=1e-6)

    def test_no_lattice_kept_alive(self):
        lattice = ring_lattice(6)
        cover = cover_hex_fragment(lattice)
        verify_ff_norm(lattice)
        verify_trotter_step(*self.step_args(lattice, cover, "hubbard", 1.0,
                                            4.0, 0.0))
        refs = weakref.ref(lattice), weakref.ref(cover)
        del lattice, cover
        gc.collect()
        assert [r() for r in refs] == [None, None]
        assert oracle._sector_bases.cache_info().currsize == 2
        # equal geometry built anew finds the entries
        verify_ff_norm(ring_lattice(6), 0.5)
        assert oracle._sector_bases.cache_info().hits == 1

    def test_entries_hold_bases_only(self, hexagon, hexagon_cover):
        verify_ff_norm(hexagon)
        verify_trotter_step(*self.step_args(hexagon, hexagon_cover,
                                            "hubbard", 1.0, 4.0, 0.0))
        for owner in (hexagon, hexagon_cover):
            bases = sector_bases(owner)
            # one slot row per group element and one column per state:
            # linear in the 4096 states, with no n x n block
            for states, coefs in bases:
                assert states.shape == coefs.shape
                assert states.base is None and coefs.base is None
                assert not states.flags.writeable
            assert sum(s.size for s, _ in bases) < 4 * 4096

    def test_ppp_step_is_refused(self, hexagon, hexagon_cover, monkeypatch):
        def no_block(*args):
            raise AssertionError("a block was built")

        monkeypatch.setattr(oracle, "_block", no_block)
        with pytest.raises(BoundUnsupportedError, match="ppp"):
            verify_trotter_step(*self.step_args(hexagon, hexagon_cover,
                                                "ppp", 1.0, 4.0, 1.0))

    @pytest.mark.parametrize("name", ["ring4", "ring6"])
    def test_cover_of_another_lattice_is_refused(self, request, hexagon,
                                                 hexagon_cover, name):
        lattice = request.getfixturevalue(name)
        with pytest.raises(ValueError, match="not a cover of this lattice"):
            verify_trotter_step(*self.step_args(lattice, hexagon_cover,
                                                "hubbard", 1.0, 4.0, 0.0))
        # an equal lattice built anew is the same geometry
        verify_trotter_step(*self.step_args(single_hexagon(), hexagon_cover,
                                            "hubbard", 1.0, 4.0, 0.0))


class TestUnitDiagonals:
    """Every Coulomb diagonal is U D_on + V D_nb, scaled from the unit
    diagonals after the memo lookup: the diagonal of the Pauli sum built at
    (U, V), bit for bit where the couplings are dyadic."""

    COUPLINGS = (0.0, 0.5, 1.0, 2.0, 3.0, 4.0)

    @staticmethod
    def pauli_diag(*ops):
        return oracle._diag_of_z_sum(sum(ops[1:], ops[0]))

    @pytest.mark.parametrize("name", ["ring4", "ring6", "hexagon", "torus"])
    def test_scaled_equals_the_pauli_diagonal(self, request, name):
        lattice = (build_periodic_hex(2, 2) if name == "torus"
                   else request.getfixturevalue(name))
        d_on, d_nb = oracle._unit_diags(lattice)
        onsite = {u: jw_onsite(lattice, u) for u in self.COUPLINGS}
        neighbor = {v: jw_neighbor(lattice, v) for v in self.COUPLINGS}
        for u in self.COUPLINGS:
            # tobytes tells the sign of zero apart
            assert (oracle._scaled(u, d_on).tobytes()
                    == self.pauli_diag(onsite[u]).tobytes())
            assert (oracle._scaled(u, d_nb).tobytes()
                    == self.pauli_diag(neighbor[u]).tobytes())
            for v in self.COUPLINGS:
                both = oracle._scaled(u, d_on) + oracle._scaled(v, d_nb)
                assert both.tobytes() == self.pauli_diag(
                    onsite[u], neighbor[v]).tobytes(), (u, v)
        # a non-dyadic coupling rounds once, against once per term
        for scaled, want in ((oracle._scaled(0.3, d_on),
                              self.pauli_diag(jw_onsite(lattice, 0.3))),
                             (oracle._scaled(0.7, d_nb),
                              self.pauli_diag(jw_neighbor(lattice, 0.7))),
                             (oracle._scaled(0.3, d_on)
                              + oracle._scaled(0.7, d_nb),
                              self.pauli_diag(jw_onsite(lattice, 0.3),
                                              jw_neighbor(lattice, 0.7)))):
            assert np.abs(scaled - want).max() <= 1e-15 * np.abs(want).max()

    @pytest.mark.parametrize("model", ["hubbard", "extended_hubbard"])
    def test_step_takes_the_model_diagonal(self, hexagon, hexagon_cover,
                                           monkeypatch, model):
        # the on-site model reads no V
        params = ModelParams(model, tau=1.0, u=2.0, v=1.0)
        coulomb = [jw_onsite(hexagon, 2.0)]
        if model == "extended_hubbard":
            coulomb.append(jw_neighbor(hexagon, 1.0))
        seen = []
        real = oracle._step_errors

        def record(groups, basis, dim, c_diag, t_list):
            seen.append((groups[0][0], c_diag))
            return real(groups, basis, dim, c_diag, t_list)

        monkeypatch.setattr(oracle, "_step_errors", record)
        verify_trotter_step(*TestSectorMemo.step_args(
            hexagon, hexagon_cover, model, 1.0, 2.0, 1.0))
        want = self.pauli_diag(*coulomb)
        group, c_diag = seen[0]
        # H's diagonal group is the Coulomb diagonal itself, last in order
        assert group is c_diag and c_diag.tobytes() == want.tobytes()
        assert all(g is c for g, c in seen)


class TestBlockScatter:
    """``_block`` against a loop that adds every entry in the scatter's
    order, bit for bit, and against the dense Q^H H Q."""

    @staticmethod
    def loop_block(groups, basis, dim):
        """The block with every term added by a Python loop in the
        scatter's order: mask by mask, slots row-major.  The terms of one
        mask are formed as arrays, as ``_block`` forms them (an array
        product may round differently from a scalar one)."""
        states, coefs = basis
        size = states.shape[1]
        states, coefs = states.ravel(), coefs.ravel()
        col_of = {s: k % size for k, s in enumerate(states.tolist())}
        q = np.zeros(dim, dtype=coefs.dtype)
        for s, c in zip(states.tolist(), coefs):
            q[s] += c
        block = np.zeros((size, size), dtype=np.result_type(
            coefs, *groups.values()))
        for x, d in groups.items():
            terms = q[states ^ x].conj() * coefs * d[states]
            for s, term in zip(states.tolist(), terms):
                if s ^ x in col_of:
                    block[col_of[s ^ x], col_of[s]] += term
        return block

    def check(self, groups, basis, dim, op):
        got = oracle._block(groups, basis, dim)
        want = self.loop_block(groups, basis, dim)
        if np.iscomplexobj(want) and not want.imag.any():
            want = want.real
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
        q = TestParityBases.dense(basis, dim)
        assert np.abs(got - q.conj().T @ op.to_dense() @ q).max() < 1e-12

    def test_plain_parity_and_momentum_bases(self, ring4):
        op = (jw_hopping(ring4, 0.7) + jw_onsite(ring4, 3.0)
              + jw_neighbor(ring4, 1.0))
        groups = op.compile()
        labels = oracle._spin_labels(8)
        members = np.flatnonzero(labels == 2 * 9 + 2)
        maps = oracle._symmetry_maps(ring4)
        flip, hole, _, shift, _ = maps
        kinds = {"plain": [oracle._plain(members)],
                 "parity": oracle._adapted_bases(members, [flip, hole], True),
                 "momentum": oracle._adapted_bases(members, [flip, hole,
                                                             shift], True)}
        assert not any(np.iscomplexobj(c) for _, c in kinds["parity"])
        assert any(np.iscomplexobj(c) for _, c in kinds["momentum"])
        # the parity and momentum bases carry several slots on one state
        # in some column: a state fixed by a group element
        for name in ("parity", "momentum"):
            assert any(len(set(states[:, k])) < states.shape[0]
                       for states, _ in kinds[name]
                       for k in range(states.shape[1]))
        for bases in kinds.values():
            for basis in bases:
                self.check(groups, basis, 256, op)

    def test_repeated_slots_in_a_column(self):
        # random coefficients on a 4-qubit space, columns with several slots
        # on one state, and every block entry summed from many terms, so a
        # scatter that added in another order would differ in the last bits
        rng = np.random.default_rng(24)
        op = PauliSum(4)
        for x, z in rng.integers(16, size=(24, 2)):
            op = op + PauliSum(4, {(int(x), int(z)):
                                   complex(*rng.standard_normal(2))})
        op = op + dagger(op)
        states = np.array([[3, 6, 10], [3, 7, 12], [5, 7, 12], [9, 7, 15]])
        coefs = rng.standard_normal(states.shape)
        q = TestParityBases.dense((states, coefs), 16)
        basis = (states, coefs / np.linalg.norm(q, axis=0))
        self.check(op.compile(), basis, 16, op)
        # and with complex coefficients
        coefs = coefs + 1j * rng.standard_normal(states.shape)
        q = TestParityBases.dense((states, coefs), 16)
        self.check(op.compile(), (states, coefs / np.linalg.norm(q, axis=0)),
                   16, op)


class TestTrotterStep:
    def test_hexagon_inequality(self, hexagon, hexagon_cover, hubbard_params):
        bd = w_tile(hexagon, hexagon_cover, hubbard_params)
        reports = verify_trotter_step(hexagon, hexagon_cover, hubbard_params,
                                      (0.0, 0.1), bd)
        assert reports[0]["exact"] == 0.0
        assert reports[1]["pass"]
        assert 0 < reports[1]["exact"] <= reports[1]["bound"]

    def test_cubic_order(self, hexagon, hexagon_cover, hubbard_params):
        bd = w_tile(hexagon, hexagon_cover, hubbard_params)
        reports = verify_trotter_step(hexagon, hexagon_cover, hubbard_params,
                                      (0.05, 0.1), bd)
        ratios = [r["ratio_t3"] for r in reports]
        assert max(ratios) / min(ratios) < 1.2


class TestSuite:
    def test_fast_suite_passes(self):
        reports = run_suite("fast")
        assert reports and all(r["pass"] for r in reports)

    def test_full_suite_shape(self, monkeypatch):
        # every check of the full suite in order, with its pass flag; the
        # sectors are analysed once per lattice and operator family
        expected = [("tile_evolution", f"{k} tau=1.0 t={t}")
                    for k in ("S1", "S2", "C4", "S4") for t in (0.1, 0.5, 1.0)]
        expected += [(f"rule{i}", "3 sites") for i in (
            "1_distinct_orbitals", "2_same_pair", "3_shared_forward",
            "4_shared_reverse")]
        expected += [("chemical_shift_onsite", "N=4 eta=2 U=4.0"),
                     ("chemical_shift_neighbor", "N=4 eta=2 V=2.0 k=2"),
                     ("chemical_shift_onsite", "N=6 eta=3 U=4.0"),
                     ("ff_norm", "ring/N=4"), ("ff_norm", "hex_fragment/N=6")]
        expected += [(check, f"{lat} U={u} V={v}")
                     for lat in ("ring/N=4", "ring/N=6", "hex_fragment/N=6")
                     for u in (0.0, 2.0, 4.0) for v in (0.0, 2.0, 4.0)
                     for check in ("comm_CHC", "comm_IHH", "comm_VHH")]
        expected += [("trotter_step", f"t={t}") for t in (0.05, 0.1, 0.2)]
        real = oracle._memoized
        calls = []
        monkeypatch.setattr(oracle, "_memoized", lambda memo, owner:
                            calls.append((type(owner).__name__, getattr(
                                owner, "lattice", owner).kind))
                            or real(memo, owner))
        reports = run_suite("full")
        assert len(expected) == 105
        assert [(r["check"], r["instance"]) for r in reports] == expected
        # Python bools, which JSON writes as true
        assert [r["pass"] for r in reports] == [True] * 105
        assert all(type(r["pass"]) is bool for r in reports)
        lattices = [("LatticeGraph", kind) for kind in (
            "ring", "hex_fragment", "ring", "ring", "hex_fragment")]
        assert calls == lattices + [("SectionCover", "hex_fragment")]
        # the free-fermion norm analyses ring4 and the hexagon, and the
        # commutator checks find those entries; ring6 and the hexagon's
        # cover are analysed once each
        info = oracle._sector_bases.cache_info()
        assert (info.misses, info.hits) == (4, 2)

    def test_level_guard(self):
        with pytest.raises(ValueError):
            run_suite("medium")
