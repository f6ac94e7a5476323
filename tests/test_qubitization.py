import pytest

from fthub import cli
from fthub.lattice import build_periodic_hex
from fthub.oracle import jw_hopping, jw_onsite
from fthub.qubitization import (element_ledger, lambda_hubbard, ledger_prepare_t,
                                prepare_cost, reflection_cost, select_cost,
                                two_adic_valuation, walk_costs, walk_qubits)


class TestLambda:
    def test_reference_point(self):
        assert lambda_hubbard(32, 1.0, 4.0) == pytest.approx(128.0)

    def test_hopping_only(self):
        assert lambda_hubbard(50, 2.0, 0.0) == pytest.approx(300.0)

    def test_onsite_only(self):
        assert lambda_hubbard(40, 0.0, 8.0) == pytest.approx(80.0)

    @pytest.mark.parametrize("tau,u", [(1.0, 4.0), (0.7, 3.0)])
    def test_coefficient_norm_of_the_operator(self, tau, u):
        # the 1-norm of the Jordan-Wigner coefficients, identity excluded,
        # on the 2 x 2 torus; at (0.7, 3) the sum and the closed form may
        # differ in the last bit, so no exact equality
        torus = build_periodic_hex(2, 2)
        op = jw_hopping(torus, tau) + jw_onsite(torus, u)
        norm = sum(abs(c) for key, c in op.terms.items() if key != (0, 0))
        assert norm == pytest.approx(lambda_hubbard(8, tau, u), rel=1e-12,
                                     abs=0.0)

    @pytest.mark.parametrize("tau,u", [(1.0, 4.0), (0.7, 3.0)])
    def test_edge_count_over_the_default_sweep(self, tau, u):
        # each bond carries an XX and a YY term of weight tau / 2 per spin,
        # each site one U / 4 ZZ term
        sweep = range(4, cli.build_parser().parse_args(["qpe"]).L + 1, 2)
        assert list(sweep) == [4, 6, 8, 10, 12, 14, 16, 18]
        for l in sweep:
            lattice = build_periodic_hex(l, l)
            n = lattice.n_sites
            assert 2 * tau * lattice.n_edges + u / 4 * n == pytest.approx(
                lambda_hubbard(n, tau, u), rel=1e-12, abs=0.0)


class TestSelect:
    def test_4x4(self):
        assert select_cost(4, 4) == 636

    def test_equals_20n_minus_4(self):
        for l in (2, 4, 6, 10):
            assert select_cost(l, l) == 20 * (2 * l * l) - 4

    def test_four_toffolis_identity(self):
        for l in (4, 6, 8):
            assert 4 * (10 * l * l - 1) == select_cost(l, l)

    def test_guard(self):
        with pytest.raises(ValueError):
            select_cost(1, 4)


class TestPrepare:
    def test_l4(self):
        assert prepare_cost(4, theta=10, gamma=40) == 228

    def test_l6(self):
        # eta = 1: 46*3 + 40 + 160 - 24 - 16
        assert prepare_cost(6, theta=10, gamma=40) == 298

    def test_gamma_sensitivity_is_four(self):
        base = prepare_cost(6, 10, 40)
        assert prepare_cost(6, 10, 41) - base == 4

    def test_theta_sensitivity_is_four(self):
        base = prepare_cost(6, 10, 40)
        assert prepare_cost(6, 11, 40) - base == 4

    @pytest.mark.parametrize("x,v", [(4, 2), (6, 1), (12, 2), (7, 0), (32, 5)])
    def test_two_adic_valuation(self, x, v):
        assert two_adic_valuation(x) == v


class TestReflection:
    def test_values(self):
        assert reflection_cost(4) == 141
        assert reflection_cost(8) == 173

    def test_ledger_gap_is_nine(self):
        rows = element_ledger(4, 4)
        row = next(r for r in rows if r["element"] == "reflection")
        assert reflection_cost(4) - 4 * row["toffoli"] == 9
        assert row["closed_form_gap"] == 9


class TestWalkQubits:
    def test_l4(self):
        assert walk_qubits(4, 32) == 91

    def test_l18(self):
        assert walk_qubits(18, 648) == 1341

    @pytest.mark.parametrize("l", range(2, 65))
    def test_ledger_decomposition(self, l):
        import math
        c = max(1, math.ceil(math.log2(l)))
        ancillas = c + c + 9
        flags = 2 * c + 2 * c + 6
        assert walk_qubits(l, 2 * l * l) == 2 * (2 * l * l) + ancillas + flags

    def test_guard(self):
        with pytest.raises(ValueError):
            walk_qubits(4, 30)


class TestLedger:
    @pytest.mark.parametrize("l", [l for l in range(2, 65)
                                   if l & (l - 1) != 0])
    def test_reconciles_for_non_powers_of_two(self, l):
        rows = element_ledger(l, l)
        assert ledger_prepare_t(rows) == prepare_cost(l)
        assert not any(r.get("clamped") for r in rows)

    @pytest.mark.parametrize("l", [2, 4, 8, 16, 32, 64])
    def test_power_of_two_clamped_and_reported(self, l):
        rows = element_ledger(l, l)
        uniform = [r for r in rows if r["element"].startswith("uniform_prep")]
        assert all(r["clamped"] for r in uniform)
        assert all(r["toffoli"] == 0 for r in uniform)
        # the clamp makes the ledger exceed the closed form by 2 rows * 3 * 4 T
        assert ledger_prepare_t(rows) - prepare_cost(l) == 24
        wc = walk_costs(l)
        assert any("clamped" in w for w in wc.warnings)

    def test_monotone_in_l(self):
        prev = None
        for l in range(2, 65):
            wc = walk_costs(l)
            total = wc.per_walk_t
            if prev is not None:
                assert total >= prev
            prev = total


class TestWalkCosts:
    def test_per_walk_total(self):
        wc = walk_costs(4, tau=1.0, u=4.0)
        assert wc.per_walk_t == 636 + 228 + 228 + 141 == 1233

    @pytest.mark.parametrize("theta,gamma,name", [
        (0, 40, "theta"), (-3, 40, "theta"), (10, 0, "gamma"), (10, -1, "gamma")])
    def test_rejects_nonpositive_rotation_costs(self, theta, gamma, name):
        with pytest.raises(ValueError, match=f"{name} must be >= 1"):
            walk_costs(4, theta=theta, gamma=gamma)
