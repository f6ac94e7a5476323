import math
import tracemalloc
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

from fthub.freefermion import schatten1
from fthub import oracle
from fthub.lattice import LatticeGraph, SiteInfo, ring_lattice
from fthub.oracle import (MAX_BLOCK, SizeLimitError, core_block,
                          dense_expm_hermitian, exact_spectral_norm,
                          jw_hopping, jw_neighbor, jw_onsite,
                          jw_tile_local, number_op, run_suite, slater_rotation,
                          transfer_term, verify_chemical_shifts,
                          verify_commutator_bounds, verify_commutator_rules,
                          verify_tile_evolution, verify_trotter_step)
from fthub.pauli import PauliSum
from fthub.trotterbounds import ModelParams, w_tile


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
                      - (op + op.dagger()).to_dense()).max() < 1e-14

    def test_size_guard(self):
        lat = ring_lattice(9)
        with pytest.raises(SizeLimitError):
            jw_hopping(lat, 1.0)


class TestSpectralNorm:
    def test_identity(self):
        assert exact_spectral_norm(PauliSum.identity(4)) == pytest.approx(1.0)

    def test_matches_dense_eigensolve(self):
        rng = np.random.default_rng(5)
        op = PauliSum(3)
        for _ in range(10):
            term = PauliSum(3, {(int(rng.integers(8)), int(rng.integers(8))):
                                complex(*rng.standard_normal(2))})
            op = op + term
        op = op + op.dagger()
        expected = np.abs(np.linalg.eigvalsh(op.to_dense())).max()
        assert exact_spectral_norm(op) == pytest.approx(expected, rel=1e-8)

    def test_hexagon_hopping_norm(self, hexagon):
        h = jw_hopping(hexagon, 1.0)
        assert exact_spectral_norm(h) == pytest.approx(
            schatten1(hexagon.adjacency), rel=1e-8)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            exact_spectral_norm(PauliSum.from_word(2, {0: "X"}, 1j))


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
        op = op + op.dagger()
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
    """Spin flip and particle-hole symmetry: each orbit of (N_up, N_down)
    sectors is solved once, with a map used only after ``_commutes`` has
    checked it once on every compiled operator and the Coulomb diagonals
    are equal under it.  The plain run, with no maps, solves every sector."""

    @staticmethod
    def plain(monkeypatch, check, *args):
        with monkeypatch.context() as m:
            m.setattr(oracle, "_symmetry_maps", lambda lattice: [])
            return check(*args)

    @staticmethod
    def count_calls(monkeypatch, name):
        calls = []
        real = getattr(np.linalg, name)

        def counted(a, *args, **kwargs):
            calls.append(a.shape)
            return real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
        return calls

    @pytest.mark.parametrize("name", ["ring4", "ring6", "hexagon"])
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
        assert len(maps) == 3
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
        # 3 maps x 4 operators on ring4, 1 x 4 on ring5 and 3 x 6 on the
        # two-section hexagon; the number operator fails the two maps with
        # particle-hole on ring4 and on the hexagon
        assert hexagon_cover.n_sections == 2
        assert agreed == {True: 10 + 4 + 16, False: 2 + 2}

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
        # their product: (49 + 7 + 1 + 7) / 4 = 16 by Burnside's lemma.  Of
        # the kept sectors, (0, 0), (1, 1), (2, 2) and (0, 6), (1, 5), (2, 4)
        # are fixed by one map and (3, 3) by all three: 2 + 2 + 4 parity
        # blocks, less the odd block of the one-state (0, 0) and (0, 6),
        # gives 16 + 1 + 1 + 3 + 2 = 23 blocks
        assert len(oracle._symmetry_maps(hexagon)) == 3
        bd = w_tile(hexagon, hexagon_cover, hubbard_params)
        calls = self.count_calls(monkeypatch, "eigh")
        verify_trotter_step(hexagon, hexagon_cover, hubbard_params, (0.1,),
                            bd)
        ops = 1 + hexagon_cover.n_sections
        assert len(calls) == ops * 23
        assert max(n for n, _ in calls) == 300
        # 1.17e8 for the 16 whole sectors, the largest of 400 states
        assert sum(n ** 3 for n, _ in calls) == ops * 40_057_706

    def test_no_particle_hole_without_two_colouring(self, monkeypatch):
        ring5 = ring_lattice(5)
        assert oracle._two_colouring(ring5) is None
        assert len(oracle._symmetry_maps(ring5)) == 1
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
    """A sector that a kept map carries onto itself is solved as the
    character blocks of its stabiliser: symmetry-adapted bases whose
    columns are normalised signed sums over the orbits of the maps."""

    @staticmethod
    def dense(basis, dim):
        states, coefs = basis
        q = np.zeros((dim, states.shape[1]))
        for s, c in zip(states, coefs):
            q[s, np.arange(s.size)] += c
        return q

    @pytest.mark.parametrize("name", ["ring4", "ring5", "hexagon"])
    def test_bases_split_each_sector(self, request, name):
        lattice = (ring_lattice(5) if name == "ring5"
                   else request.getfixturevalue(name))
        n_qubits = 2 * lattice.n_sites
        dim = 1 << n_qubits
        labels = oracle._spin_labels(n_qubits)
        op = (jw_hopping(lattice, 1.0) + jw_onsite(lattice, 4.0)
              + jw_neighbor(lattice, 2.0))
        h = TestSectorSymmetries.sparse(op)
        maps = oracle._symmetry_maps(lattice)
        (groups,), bases = oracle._spin_sectors(lattice, [("H", op)], [])
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
            assert np.abs(q_all.T @ q_all
                          - np.eye(members.size)).max() < 1e-14
            assert not q_all[labels != label].any()
            # every stabiliser map acts on a block as its character, and
            # no two blocks of a sector share one
            characters = set()
            for basis, q in zip(blocks, qs):
                chi = []
                for perm, sign in stab:
                    pq = np.zeros_like(q)
                    pq[perm] = sign[:, None] * q
                    qpq = q.T @ pq
                    chi.append(round(qpq[0, 0]))
                    assert chi[-1] in (1, -1)
                    assert np.abs(qpq - chi[-1] * np.eye(q.shape[1])).max() \
                        < 1e-14
                characters.add(tuple(chi))
                # the scatter build is Q^T H Q
                assert np.abs(oracle._block(groups, basis, dim)
                              - q.T @ (h @ q)).max() < 1e-12
            assert len(characters) == len(blocks)
            split += len(blocks) > 1
        # the self-mapped sectors with more than one state: (1, 1), (2, 2),
        # (1, 3) on ring4; (1, 1) ... (4, 4) on ring5, spin flip only; and
        # (1, 1), (2, 2), (3, 3), (1, 5), (2, 4) on the hexagon
        assert split == {"ring4": 3, "ring5": 4, "hexagon": 5}[name]

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
        _, bases = oracle._spin_sectors(lattice, [("hopping", hop)], [])
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

    def test_parity_bases_refuse_a_non_group(self):
        lattice = self.two_dimers()
        labels = oracle._spin_labels(8)
        members = np.flatnonzero(labels == 2 * 9 + 2)
        flip, hole, both = oracle._symmetry_maps(lattice)
        assert len(oracle._parity_bases(members, [flip, hole, both])) == 4
        # two maps without their product do not close to a group
        plain = oracle._parity_bases(members, [flip, hole])
        assert len(plain) == 1 and plain[0][0].shape == (1, members.size)
        assert np.array_equal(plain[0][0][0], members)
        # spin flip times the parity s of the up electrons on the first
        # dimer squares to a sign pattern sigma on sector (1, 1): with sigma
        # and their product it closes to a cyclic group of order 4, whose
        # characters are not all real
        members = np.flatnonzero(labels == 1 * 9 + 1)
        idx = np.arange(256)
        perm, sign = flip
        sign = sign * (1.0 - 2.0 * ((idx ^ (idx >> 2)) & 1))
        sigma = sign * sign[perm]
        assert (sigma[members] == -1).any()
        cyclic = [(perm, sign), (idx, sigma), (perm, sigma * sign)]
        plain = oracle._parity_bases(members, cyclic)
        assert len(plain) == 1 and plain[0][0].shape == (1, members.size)


class TestTransientMemory:
    """The tracemalloc peak of one warm hexagon check: a block's matrices
    are built where they are consumed and freed before the next solve, the
    nested commutators one at a time, and one section step at a time."""

    # half a real block of the hexagon's largest sector, 400 states:
    # 400^2 * 8 B / 2
    SLACK = 400 ** 2 * 8 // 2

    @staticmethod
    def peak(check, *args):
        check(*args)
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
        # self-mapped sector was solved whole
        assert self.peak(verify_commutator_bounds, hexagon,
                         params) <= 4_937_344 + self.SLACK

    def test_trotter_step(self, hexagon, hexagon_cover, hubbard_params):
        bd = w_tile(hexagon, hexagon_cover, hubbard_params)
        # 24.09 MiB when the walk built blocks to check the maps and every
        # section's half step was live together, 16.74 MiB when each
        # self-mapped sector was solved whole
        assert self.peak(verify_trotter_step, hexagon, hexagon_cover,
                         hubbard_params, (0.05, 0.1, 0.2),
                         bd) <= 10_321_204 + self.SLACK


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

    def test_level_guard(self):
        with pytest.raises(ValueError):
            run_suite("medium")
