import itertools
import math
import warnings

import numpy as np
import pytest

from conftest import loop_crossover_sweep
from fthub import qpe
from fthub.gatecount import step_cost_periodic_hubbard
from fthub.lattice import build_hex_fragment, build_periodic_hex
from fthub.qpe import (CSV_COLUMNS, estimate_rows, hubbard_step, optimize_x,
                       qubitized_qpe, rows_to_csv, trotter_qpe)
from fthub.qubitization import walk_costs
from fthub.tiling import cover_hex_fragment, cover_periodic_hex
from fthub.trotterbounds import ModelParams, w_tile

# the two eps rules of ``fthub qpe`` at its default eps and tau
QPE_EPS_RULES = {"fixed": lambda n: 0.05, "extensive": lambda n: 0.005 * n}


def periodic_w_by_n(params, l_values):
    """N -> w_tile of the L x L periodic lattice and its cover."""
    out = {}
    for l in l_values:
        lattice = build_periodic_hex(l, l)
        out[2 * l * l] = w_tile(lattice, cover_periodic_hex(lattice),
                                params).w_tile
    return out

# largest eps with at least one phase-estimation step at W = 215
EPS_LIMIT_215 = (6.203 * math.sqrt(215.0)) ** (2.0 / 3.0)


class TestTrotterQpe:
    def test_step_count_reference(self):
        # N = 32 Hubbard, W = 215, eps = 0.05, x = 0.03
        step = step_cost_periodic_hubbard(32, 1)
        est = trotter_qpe(step, 215.0, 0.05, x=0.03)
        n_pe = est.intermediates["n_pe"]
        expected = 6.203 * math.sqrt(215) / ((0.97) ** 1.5 * 0.05 ** 1.5)
        assert n_pe == pytest.approx(expected)
        assert n_pe == pytest.approx(8.5e3, rel=0.02)

    def test_optimum_x_without_hwp(self):
        step = step_cost_periodic_hubbard(128, 1)
        x = optimize_x(step, 860.0, 0.05)
        assert 0.015 <= x <= 0.06

    def test_optimum_x_with_hwp(self):
        step = step_cost_periodic_hubbard(128, 64)
        x = optimize_x(step, 860.0, 0.05)
        assert 0.003 <= x <= 0.02

    def test_monotone_in_eps(self):
        step = step_cost_periodic_hubbard(32, 16)
        totals = [trotter_qpe(step, 215.0, eps).total_t
                  for eps in (0.02, 0.05, 0.1, 0.5)]
        assert totals == sorted(totals, reverse=True)

    def test_unimodal_near_optimum(self):
        step = step_cost_periodic_hubbard(32, 16)
        x_opt = optimize_x(step, 215.0, 0.05)
        t_opt = trotter_qpe(step, 215.0, 0.05, x=x_opt).total_t
        for factor in (0.5, 2.0):
            assert trotter_qpe(step, 215.0, 0.05, x=x_opt * factor).total_t >= t_opt

    def test_qubit_count(self):
        step = step_cost_periodic_hubbard(32, 16)
        est = trotter_qpe(step, 215.0, 0.05, x=0.01)
        assert est.n_qubits == step.n_qubits + 2

    def test_input_guards(self):
        step = step_cost_periodic_hubbard(32, 1)
        with pytest.raises(ValueError):
            trotter_qpe(step, -1.0, 0.05)
        with pytest.raises(ValueError):
            trotter_qpe(step, 215.0, 0.0)
        with pytest.raises(ValueError):
            trotter_qpe(step, 215.0, 0.05, x=1.5)

    @pytest.mark.parametrize("eps,message", [
        (math.nan, "finite"), (math.inf, "finite"),
        (1e-320, "out of range"), (1e-250, "out of range"),
        (1e-204, "out of range"), (1e308, "out of range")])
    def test_eps_outside_float_range(self, eps, message):
        # eps**1.5 underflows to 0 below about 1e-206 and overflows above
        # about 1e205; at 1e-204 the T count itself overflows to inf
        step = step_cost_periodic_hubbard(32, 1)
        with pytest.raises(ValueError, match=message):
            trotter_qpe(step, 215.0, eps)


    @pytest.mark.parametrize("eps", [EPS_LIMIT_215 * (1 + 1e-9), 50.0, 1e6,
                                     1e100])
    def test_eps_below_one_step_rejected(self, eps):
        # 6.203 sqrt(W) / eps^1.5 < 1: fewer than one phase-estimation step
        step = step_cost_periodic_hubbard(32, 1)
        with pytest.raises(ValueError, match="out of range"):
            trotter_qpe(step, 215.0, eps)
        with pytest.raises(ValueError, match="out of range"):
            trotter_qpe(step, 215.0, eps, x=0.5)

    @pytest.mark.parametrize("m", [1, 16])
    def test_t_count_positive_at_the_eps_limit(self, m):
        # just inside the limit n_pe >= 1 at every x, so the T count stays
        # positive across (0, 1)
        step = step_cost_periodic_hubbard(32, m)
        eps = EPS_LIMIT_215 * (1 - 1e-12)
        for x in (1e-6, 0.01, 0.3, 2.0 / 3.0, 0.9, 1 - 1e-6):
            est = trotter_qpe(step, 215.0, eps, x=x)
            assert est.intermediates["n_pe"] >= 1.0
            assert est.intermediates["n_rt"] > 0 and est.total_t > 0
        assert trotter_qpe(step, 215.0, eps).total_t > 0


def golden_section_evaluating_both(step, w, eps):
    """``optimize_x`` as it was when it scanned the grid point by point and
    every narrowing evaluated both interior points: the reference for its
    x."""
    def f(x):
        return qpe._trotter_total_t(step, w, eps, x)[0]

    ratio = (qpe.X_GRID_HI / qpe.X_GRID_LO) ** (1.0 / (qpe.X_GRID_POINTS - 1))
    grid = [qpe.X_GRID_LO * ratio ** i for i in range(qpe.X_GRID_POINTS)]
    costs = [f(x) for x in grid]
    k = costs.index(min(costs))
    a, b = grid[max(k - 1, 0)], grid[min(k + 1, qpe.X_GRID_POINTS - 1)]
    c = b - qpe._GOLDEN * (b - a)
    d = a + qpe._GOLDEN * (b - a)
    for _ in range(60):
        if f(c) < f(d):
            b, d = d, c
            c = b - qpe._GOLDEN * (b - a)
        else:
            a, c = c, d
            d = a + qpe._GOLDEN * (b - a)
    return 0.5 * (a + b)


class TestOptimizeX:
    def test_one_evaluation_per_narrowing(self, monkeypatch):
        # the qpe sweep's inputs: both models at table2's couplings, every
        # lattice size and alpha rule of the default sweep, fixed and
        # extensive eps
        cases = []
        for model in ("hubbard", "extended_hubbard"):
            params = ModelParams(model, tau=1.0, u=4.0, v=2.0)
            for n, w in periodic_w_by_n(params, range(4, 19, 2)).items():
                for rule in qpe.ALPHA_RULES:
                    step = hubbard_step(n, model, rule)
                    cases += [(step, w, eps) for eps in (0.02, 0.05, 0.005 * n)]
        expected = [golden_section_evaluating_both(*case) for case in cases]
        calls = []
        real = qpe._trotter_total_t

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(qpe, "_trotter_total_t", counted)
        for case, want in zip(cases, expected):
            calls.clear()
            assert optimize_x(*case) == want
            # one evaluation of the whole grid, the first two interior
            # points, then one new point for each of the 59 narrowings that
            # are compared
            assert len(calls) == 1 + 61
            assert isinstance(calls[0][3], np.ndarray)
            assert all(isinstance(c[3], float) for c in calls[1:])

    def test_grid_scan_matches_the_scalar_scan(self):
        # both models, L = 4 ... 64, every alpha rule, w/N from below to
        # above the reference table's range, fixed and extensive eps
        for model in ("hubbard", "extended_hubbard"):
            for l in range(4, 65, 2):
                n = 2 * l * l
                for rule in qpe.ALPHA_RULES:
                    step = hubbard_step(n, model, rule)
                    for w, eps in itertools.product(
                            (0.37 * n, 3.3 * n, 18.0 * n, 55.5 * n),
                            (1e-3, 0.02, 0.3, 0.005 * n)):
                        got = optimize_x(step, w, eps)
                        want = golden_section_evaluating_both(step, w, eps)
                        assert got.hex() == want.hex(), (model, l, rule, w, eps)

    @pytest.mark.parametrize("eps", [1e-200, 1e-201, 1e-210, 1e-216, 1e-300])
    def test_edge_of_float_range_matches_the_scalar_scan(self, eps):
        # the grid costs overflow, or a divisor underflows to zero: the
        # value or the error is that of the point-by-point scan
        step = hubbard_step(128, "extended_hubbard", "N/4-1")

        def outcome(fn):
            try:
                return fn(step, 900.0, eps).hex()
            except (ArithmeticError, ValueError) as exc:
                return type(exc)

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert outcome(optimize_x) == outcome(golden_section_evaluating_both)


class TestQubitizedQpe:
    def test_walk_count_reference(self):
        est = qubitized_qpe(walk_costs(4, 1.0, 4.0), 0.05)
        assert est.intermediates["n_walk"] == 4022

    def test_total_linear_in_walk_count(self):
        wc = walk_costs(4, 1.0, 4.0)
        est = qubitized_qpe(wc, 0.05)
        n_w = est.intermediates["n_walk"]
        assert est.total_t == n_w * wc.per_walk_t + 4 * n_w - 4

    def test_qubits_include_control_register(self):
        wc = walk_costs(4, 1.0, 4.0)
        est = qubitized_qpe(wc, 0.05)
        n_w = est.intermediates["n_walk"]
        alpha_pe = 2 * math.ceil(math.log2(n_w + 1)) - 1
        assert est.n_qubits == wc.n_qubits_walk + alpha_pe

    @pytest.mark.parametrize("eps,message", [
        (math.nan, "finite"), (-math.inf, "finite"), (1e-320, "out of range")])
    def test_eps_outside_float_range(self, eps, message):
        with pytest.raises(ValueError, match=message):
            qubitized_qpe(walk_costs(4, 1.0, 4.0), eps)

    def test_qubit_ordering_at_small_n(self):
        # qubitized >= trotter-HWP >= plain trotter
        qub = qubitized_qpe(walk_costs(4, 1.0, 4.0), 0.05).n_qubits
        hwp = trotter_qpe(step_cost_periodic_hubbard(32, 16), 215.0, 0.05,
                          x=0.01).n_qubits
        plain = trotter_qpe(step_cost_periodic_hubbard(32, 1), 215.0, 0.05,
                            x=0.03).n_qubits
        assert qub >= hwp >= plain


@pytest.fixture(scope="module")
def w_by_n():
    return periodic_w_by_n(ModelParams("hubbard", tau=1.0, u=4.0),
                           range(4, 19, 2))


class TestScaling:
    def _fit_exponent(self, ns, totals):
        slope, _ = np.polyfit(np.log(ns), np.log(totals), 1)
        return slope

    def test_trotter_hwp_exponent(self, w_by_n):
        # the step-T budget carries the N^1.5 eps^-1.5 complexity; synthesis
        # adds a log-size term that still flattens the full total here
        ns = [n for n in w_by_n if n >= 128]
        dominant = []
        for n in ns:
            est = trotter_qpe(hubbard_step(n, "hubbard", "N/2-1"), w_by_n[n], 0.05)
            dominant.append(est.intermediates["n_pe"] * est.intermediates["n_t_step"])
        assert self._fit_exponent(ns, dominant) == pytest.approx(1.5, abs=0.1)

    def test_qubitized_exponent(self, w_by_n):
        ns = [n for n in w_by_n if n >= 128]
        dominant = []
        for n in ns:
            est = qubitized_qpe(walk_costs(int(math.sqrt(n // 2))), 0.05)
            dominant.append(est.intermediates["n_walk"] * est.intermediates["c_select"])
        assert self._fit_exponent(ns, dominant) == pytest.approx(2.0, abs=0.1)

    def test_full_totals_grow_monotonically(self, w_by_n):
        ns = sorted(w_by_n)
        totals = [trotter_qpe(hubbard_step(n, "hubbard", "N/2-1"), w_by_n[n],
                              0.05).total_t for n in ns]
        assert totals == sorted(totals)

    def test_extensive_eps_plateau(self, w_by_n):
        est = trotter_qpe(hubbard_step(648, "hubbard", "N/2-1"), w_by_n[648],
                          0.005 * 648)
        assert est.total_t == pytest.approx(1.8e6, rel=0.15)


class TestSweep:
    def test_rows_and_csv(self, hex44, cover44, hubbard_params):
        by_rule = estimate_rows(hex44, cover44, hubbard_params,
                                {"fixed": lambda n: 0.05}, ("0", "N/2-1"),
                                10, 40)
        rows = by_rule["fixed"]
        methods = [r["method"] for r in rows]
        assert methods == ["trotter", "trotter", "qubitized"]
        assert {r["eps_rule"] for r in rows} == {"fixed"}
        text = rows_to_csv(rows)
        header = text.splitlines()[0]
        assert header == ",".join(CSV_COLUMNS)
        assert header.endswith(",eps_rule")
        assert len(text.splitlines()) == 4

    def test_eps_rule_callable(self, hex44, cover44, hubbard_params):
        by_rule = estimate_rows(hex44, cover44, hubbard_params, QPE_EPS_RULES,
                                ("N/2-1",), 10, 40)
        assert list(by_rule) == ["fixed", "extensive"]
        trotter = [r for r in by_rule["extensive"] if r["method"] == "trotter"]
        assert trotter[0]["eps"] == pytest.approx(0.16)
        assert by_rule["fixed"][0]["eps"] == 0.05

    def test_crossover_regime(self, hubbard_params):
        # at eps = 0.26 and N >= 128 the Trotter-HWP budget beats qubitization
        lat = build_periodic_hex(8, 8)
        trot, qub = estimate_rows(lat, cover_periodic_hex(lat), hubbard_params,
                                  {"fixed": lambda n: 0.26}, ("N/2-1",),
                                  10, 40)["fixed"]
        assert float(trot["total_t"]) < float(qub["total_t"])


class TestEstimateRows:
    @pytest.mark.parametrize("model", ["hubbard", "extended_hubbard"])
    def test_matches_the_loop_sweep(self, model):
        # the N-keyed sweep, run once per eps rule, gives the same rows
        params = ModelParams(model, tau=1.0, u=4.0, v=2.0)
        l_values = range(4, 19, 2)
        w_by_n = periodic_w_by_n(params, l_values)
        for name, eps_rule in QPE_EPS_RULES.items():
            want = loop_crossover_sweep(w_by_n, name, eps_rule, l_values,
                                        model=model)
            got = []
            for l in l_values:
                lattice = build_periodic_hex(l, l)
                got += estimate_rows(lattice, cover_periodic_hex(lattice),
                                     params, QPE_EPS_RULES,
                                     tuple(qpe.ALPHA_RULES), 10, 40)[name]
            assert got == want

    @pytest.mark.parametrize("n_eps_rules", [1, 2, 5])
    def test_prices_each_input_once(self, monkeypatch, hex66, cover66,
                                    extended_params, n_eps_rules):
        calls = {"w_tile": 0, "hubbard_step": 0, "walk_costs": 0}

        def counted(name):
            real = getattr(qpe, name)

            def wrapper(*args):
                calls[name] += 1
                return real(*args)
            return wrapper

        for name in calls:
            monkeypatch.setattr(qpe, name, counted(name))
        eps_rules = {f"rule{k}": (lambda n, k=k: 0.01 * (k + 1))
                     for k in range(n_eps_rules)}
        by_rule = estimate_rows(hex66, cover66, extended_params, eps_rules,
                                ("0", "N/4-1", "N-1"), 10, 40)
        assert calls == {"w_tile": 1, "hubbard_step": 3, "walk_costs": 1}
        assert [len(rows) for rows in by_rule.values()] == [4] * n_eps_rules

    @pytest.mark.parametrize("lattice", [
        build_hex_fragment([(0, 0), (1, 0)]), build_periodic_hex(4, 6)],
        ids=["fragment", "4x6 torus"])
    def test_other_lattices_raise(self, lattice, hubbard_params):
        cover = (cover_periodic_hex(lattice) if lattice.kind == "periodic_hex"
                 else cover_hex_fragment(lattice))
        with pytest.raises(ValueError, match="L x L periodic_hex"):
            estimate_rows(lattice, cover, hubbard_params, QPE_EPS_RULES,
                          ("0",), 10, 40)
