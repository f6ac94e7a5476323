"""Acceptance suite: one test per release criterion, each printing a
pass/fail line to the real stdout so the gate is auditable from the log."""

import math
import sys
import time

import numpy as np
import pytest

from fthub.gatecount import step_cost_periodic_extended, step_cost_periodic_hubbard
from fthub.lattice import build_periodic_hex, ring_lattice, single_hexagon
from fthub.oracle import (verify_chemical_shifts, verify_commutator_bounds,
                          verify_commutator_rules, verify_ff_norm,
                          verify_tile_evolution, verify_trotter_step)
from fthub.qpe import (ALPHA_RULES, alpha_to_m, hubbard_step, qubitized_qpe,
                       trotter_qpe)
from fthub.qubitization import (element_ledger, ledger_prepare_t, prepare_cost,
                                reflection_cost, select_cost, walk_costs,
                                walk_qubits)
from fthub.refdata import STEP_TABLE, TABLE_L, TABLE_N, W_TILE
from fthub.tiling import cover_hex_fragment, cover_periodic_hex
from fthub.trotterbounds import ModelParams, w_tile


def _report(criterion: str, ok: bool, detail: str = ""):
    line = f"[{'PASS' if ok else 'FAIL'}] {criterion}"
    if detail:
        line += f"  ({detail})"
    print(line, file=sys.__stdout__, flush=True)
    assert ok, line


def _round_half_away(x: float) -> int:
    return int(math.floor(x + 0.5))


@pytest.fixture(scope="module")
def periodic_sweep():
    """w_tile breakdowns for both models over even L in 4..18."""
    out = {}
    for model, v in (("hubbard", 0.0), ("extended_hubbard", 2.0)):
        params = ModelParams(model, tau=1.0, u=4.0, v=v)
        rows = {}
        for l in TABLE_L:
            lat = build_periodic_hex(l, l)
            cover = cover_periodic_hex(lat)
            rows[2 * l * l] = w_tile(lat, cover, params)
        out[model] = rows
    return out


def test_criterion_1_error_norm_table(periodic_sweep):
    worst = 0
    for model in ("hubbard", "extended_hubbard"):
        for idx, n in enumerate(TABLE_N):
            got = _round_half_away(periodic_sweep[model][n].w_tile)
            worst = max(worst, abs(got - W_TILE[model][idx]))
    gates_exact = True
    for model in ("hubbard", "extended_hubbard"):
        step_of = (step_cost_periodic_hubbard if model == "hubbard"
                   else step_cost_periodic_extended)
        for rule in ALPHA_RULES:
            for idx, n in enumerate(TABLE_N):
                step = step_of(n, alpha_to_m(n, rule))
                ref = STEP_TABLE[model][rule]
                gates_exact &= (step.n_qubits == ref["n_qubits"][idx]
                                and step.n_rot == ref["n_rot"][idx]
                                and step.n_t == ref["n_t"][idx])
    _report("criterion 1: error-norm and per-step cost table",
            worst <= 1 and gates_exact,
            f"max |rounded w_tile - reference| = {worst}, gate counts exact")


def test_criterion_2_hwp_identities():
    ok = True
    for n in TABLE_N:
        for rule, m in (("N/4-1", n // 4), ("N/2-1", n // 2), ("N-1", n)):
            layers_hub, layers_ext = 6, 12
            rot_group = math.floor(math.log2(m) + 1)
            hub = step_cost_periodic_hubbard(n, m)
            ok &= hub.n_rot == (layers_hub * n // m) * rot_group
            ok &= hub.n_tof == (layers_hub * n // m) * (m - 1)
            ok &= hub.n_t == 10 * n + 4 * hub.n_tof
            ok &= hub.n_qubits == 2 * n + (m - 1)
            ext = step_cost_periodic_extended(n, m)
            ok &= ext.n_rot == (layers_ext * n // m) * rot_group
            ok &= ext.n_t == 10 * n + 4 * (layers_ext * n // m) * (m - 1)
            ok &= ext.n_qubits == 2 * n + (m - 1)
    spot = step_cost_periodic_extended(32, 32)
    ok &= (spot.n_rot, spot.n_t) == (72, 1808)
    _report("criterion 2: rotation-merging identities on every table row", ok)


def test_criterion_3_section_split_fractions(periodic_sweep):
    hub_shares = [periodic_sweep["hubbard"][n].w_h
                  / periodic_sweep["hubbard"][n].w_tile for n in TABLE_N]
    ext_shares = [periodic_sweep["extended_hubbard"][n].w_h
                  / periodic_sweep["extended_hubbard"][n].w_tile for n in TABLE_N]
    hub_ok = all(0.123 <= s <= 0.129 for s in hub_shares)
    ext_ok = all(0.020 <= s <= 0.024 for s in ext_shares)

    ns = np.array(TABLE_N, dtype=float)
    whs = np.array([periodic_sweep["hubbard"][n].w_h for n in TABLE_N])
    slope, intercept = np.polyfit(ns, whs, 1)
    resid = whs - (slope * ns + intercept)
    r2 = 1 - float((resid**2).sum()) / float(((whs - whs.mean())**2).sum())
    _report("criterion 3: section-split share and linearity",
            hub_ok and ext_ok and r2 > 0.999,
            f"hubbard {min(hub_shares):.4f}..{max(hub_shares):.4f}, "
            f"extended {min(ext_shares):.4f}..{max(ext_shares):.4f}, R2={r2:.6f}")


def test_criterion_4_walk_operator_formulas():
    ok = select_cost(4, 4) == 636
    ok &= reflection_cost(4) == 141
    ok &= prepare_cost(4, 10, 40) == 228
    ok &= walk_qubits(4, 32) == 91
    reconciled = all(ledger_prepare_t(element_ledger(l, l)) == prepare_cost(l)
                     for l in range(2, 65) if l & (l - 1) != 0)
    row = next(r for r in element_ledger(4, 4) if r["element"] == "reflection")
    gap_reported = (row.get("closed_form_gap") == 9
                    and reflection_cost(4) - 4 * row["toffoli"] == 9)
    _report("criterion 4: walk-operator cost formulas and ledger",
            ok and reconciled and gap_reported,
            "ledger reconciles for all non-power-of-two L <= 64; 9-T gap reported")


def test_criterion_5_qpe_scaling(periodic_sweep):
    big_n = [n for n in TABLE_N if n >= 128]

    # fit the complexity-bearing terms: the additive synthesis / preparation
    # log-terms still contaminate the full totals at these lattice sizes
    # (full-total slopes are reported alongside for the record)
    trot_full, trot_dom = [], []
    for n in big_n:
        est = trotter_qpe(hubbard_step(n, "hubbard", "N/2-1"),
                          periodic_sweep["hubbard"][n].w_tile, 0.05)
        trot_full.append(est.total_t)
        trot_dom.append(est.intermediates["n_pe"] * est.intermediates["n_t_step"])
    slope_t, _ = np.polyfit(np.log(big_n), np.log(trot_dom), 1)
    slope_t_full, _ = np.polyfit(np.log(big_n), np.log(trot_full), 1)

    qub_full, qub_dom = [], []
    for n in big_n:
        est = qubitized_qpe(walk_costs(int(math.sqrt(n // 2))), 0.05)
        qub_full.append(est.total_t)
        qub_dom.append(est.intermediates["n_walk"] * est.intermediates["c_select"])
    slope_q, _ = np.polyfit(np.log(big_n), np.log(qub_dom), 1)
    slope_q_full, _ = np.polyfit(np.log(big_n), np.log(qub_full), 1)

    hub_plateau = trotter_qpe(hubbard_step(648, "hubbard", "N/2-1"),
                              periodic_sweep["hubbard"][648].w_tile,
                              0.005 * 648).total_t
    ext_plateau = trotter_qpe(hubbard_step(648, "extended_hubbard", "N/2-1"),
                              periodic_sweep["extended_hubbard"][648].w_tile,
                              0.005 * 648).total_t

    eps = 0.26
    crossover = all(
        trotter_qpe(hubbard_step(n, "hubbard", "N/2-1"),
                    periodic_sweep["hubbard"][n].w_tile, eps).total_t
        < qubitized_qpe(walk_costs(int(math.sqrt(n // 2))), eps).total_t
        for n in big_n)
    small_n_cheaper = (qubitized_qpe(walk_costs(4), 0.05).total_t
                       < trotter_qpe(hubbard_step(32, "hubbard", "N/2-1"),
                                     periodic_sweep["hubbard"][32].w_tile,
                                     0.05).total_t)

    ok = (abs(slope_t - 1.5) <= 0.1 and abs(slope_q - 2.0) <= 0.1
          and abs(hub_plateau / 1.8e6 - 1) <= 0.15
          and abs(ext_plateau / 7.0e6 - 1) <= 0.15
          and crossover and small_n_cheaper)
    _report("criterion 5: phase-estimation scaling and crossover", ok,
            f"exponents {slope_t:.3f}/{slope_q:.3f} "
            f"(full totals {slope_t_full:.3f}/{slope_q_full:.3f}), plateaus "
            f"{hub_plateau:.3g}/{ext_plateau:.3g}")


def test_criterion_6_tile_evolutions():
    worst = 0.0
    for kind in ("S1", "S2", "C4", "S4"):
        for t in (0.1, 0.5, 1.0):
            report = verify_tile_evolution(kind, tau=1.0, t=t)
            worst = max(worst, report["deviation"], report["core_deviation"])
    _report("criterion 6: tile evolution identities", worst <= 1e-10,
            f"max deviation {worst:.2e}")


def test_criterion_7_bound_dominance():
    t0 = time.time()
    lattices = [ring_lattice(4), ring_lattice(6), single_hexagon()]
    ok = True
    worst_ratio = 0.0
    for lat in lattices:
        for u in (0.0, 2.0, 4.0):
            for v in (0.0, 2.0, 4.0):
                params = ModelParams("extended_hubbard", tau=1.0, u=u, v=v)
                for report in verify_commutator_bounds(lat, params):
                    ok &= report["pass"]
                    if report["bound"] > 0:
                        worst_ratio = max(worst_ratio,
                                          report["exact"] / report["bound"])
    elapsed = time.time() - t0
    _report("criterion 7: exact norms never exceed closed-form bounds",
            ok and elapsed < 600,
            f"worst exact/bound = {worst_ratio:.3f}, {elapsed:.0f}s")


def test_criterion_8_step_inequality():
    hexagon = single_hexagon()
    cover = cover_hex_fragment(hexagon)
    params = ModelParams("hubbard", tau=1.0, u=4.0)
    breakdown = w_tile(hexagon, cover, params)
    reports = verify_trotter_step(hexagon, cover, params, (0.05, 0.1, 0.2),
                                  breakdown)
    ok = all(r["pass"] for r in reports)
    ratios = [r["ratio_t3"] for r in reports]
    spread = max(ratios) / min(ratios) - 1
    _report("criterion 8: step error within w_tile * t^3 and cubic",
            ok and spread < 0.2, f"ratio spread {spread:.3f}")


def test_criterion_9_oracle_identities():
    shifts_ok = True
    ring4 = ring_lattice(4)
    params = ModelParams("extended_hubbard", tau=1.0, u=4.0, v=2.0)
    for eta in (0, 1, 2, 3):
        for report in verify_chemical_shifts(ring4, params, eta):
            shifts_ok &= report["pass"] and report["exact"] <= 1e-10

    rules_ok = all(r["exact"] == 0.0 for r in verify_commutator_rules())

    norm_ok = True
    for lat in (ring_lattice(4), ring_lattice(6), single_hexagon()):
        report = verify_ff_norm(lat)
        norm_ok &= abs(report["exact"] - report["bound"]) <= 1e-8 * report["bound"]

    _report("criterion 9: chemical shifts, algebra rules, hopping norm",
            shifts_ok and rules_ok and norm_ok)
