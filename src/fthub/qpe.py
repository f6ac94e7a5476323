"""End-to-end phase-estimation budgets.

Two routes are costed.  The Trotterized route uses the adaptive
single-ancilla scheme: the step count is

    n_steps = 6.203 * sqrt(W) / ((1 - x)^1.5 * eps^1.5),

where W is the step error norm and a fraction x of the error budget is
assigned to repeat-until-success rotation synthesis, whose per-step T cost is

    n_rt = n_rot * (1.15 * log2(n_rot * sqrt(3 W) / (x sqrt(1-x) eps^1.5)) + 9.2).

The constants 6.203, 1.15 and 9.2 are opaque calibration constants of the
cited schemes.  The qubitized route repeats the walk operator
ceil(pi * lambda / (2 eps)) times, plus a unary iterator overhead of
4 n_walk - 4 T gates.

Step counts are kept continuous (not rounded up) so sweeps produce smooth
curves; x is optimized on a geometric grid followed by golden-section
refinement when not supplied.  The 200 grid points are fixed at import and
their costs are taken in one numpy evaluation of the same formula; only the
index of the first minimum comes from that array (a cost may differ from the
scalar one in its last bit).  The bracket around it is read from the list of
grid floats and refined with scalar ``math``, so x is that of a scan that
evaluates the grid point by point.  An eps with 6.203 sqrt(W) / eps^1.5 < 1, at
which fewer than one phase-estimation step would do at any x, is rejected.

``estimate_rows`` builds every row ``fthub qpe`` prints, one lattice at a
time: W, the step of each alpha rule and the walk are priced once and
shared by every eps rule.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field

import numpy as np

from .gatecount import (StepCost, step_cost_periodic_extended,
                        step_cost_periodic_hubbard, step_cost_ppp)
from .qubitization import WalkCosts, walk_costs
from .trotterbounds import w_tile

PE_STEP_CONSTANT = 6.203
RUS_LOG_COEFF = 1.15
RUS_OFFSET = 9.2

X_GRID_LO = 1e-4
X_GRID_HI = 0.5
X_GRID_POINTS = 200
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_X_RATIO = (X_GRID_HI / X_GRID_LO) ** (1.0 / (X_GRID_POINTS - 1))
X_GRID = tuple(X_GRID_LO * _X_RATIO ** i for i in range(X_GRID_POINTS))
_X_GRID_ARRAY = np.array(X_GRID)


@dataclass
class QpeEstimate:
    method: str                  # "trotter" | "qubitized"
    total_t: float
    total_rot: float
    n_qubits: int
    eps: float
    x: float | None = None
    intermediates: dict = field(default_factory=dict)


def _trotter_total_t(step: StepCost, w: float, eps: float, x,
                     sqrt=math.sqrt, log2=math.log2) -> tuple:
    """(total T, n_pe, n_rt) at synthesis fraction x: a float with the
    default ``math`` functions, or an array of the x grid with numpy's."""
    n_pe = PE_STEP_CONSTANT * math.sqrt(w) / ((1 - x) ** 1.5 * eps ** 1.5)
    if step.n_rot > 0:
        arg = step.n_rot * math.sqrt(3 * w) / (x * sqrt(1 - x) * eps ** 1.5)
        n_rt = step.n_rot * (RUS_LOG_COEFF * log2(arg) + RUS_OFFSET)
    else:
        n_rt = 0.0
    return n_pe * (n_rt + step.n_t), n_pe, n_rt


def optimize_x(step: StepCost, w: float, eps: float) -> float:
    """Deterministic grid scan plus golden-section refinement of the synthesis
    error fraction."""
    # the whole grid in one evaluation.  At the edge of the float range a
    # cost overflows or divides by zero to inf, with no numpy warning; the
    # scalar refinement below then raises where a point-by-point scan would
    with np.errstate(all="ignore"):
        costs = _trotter_total_t(step, w, eps, _X_GRID_ARRAY,
                                 np.sqrt, np.log2)[0]
    k = int(np.argmin(costs))  # the first minimum
    lo = X_GRID[max(k - 1, 0)]
    hi = X_GRID[min(k + 1, X_GRID_POINTS - 1)]
    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc = _trotter_total_t(step, w, eps, c)[0]
    fd = _trotter_total_t(step, w, eps, d)[0]
    # 60 narrowings; each keeps one interior point and its value, and the
    # last one's new point is never compared, so it is not evaluated
    for _ in range(59):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = _trotter_total_t(step, w, eps, c)[0]
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = _trotter_total_t(step, w, eps, d)[0]
    if fc < fd:
        b = d
    else:
        a = c
    return 0.5 * (a + b)


def check_eps(eps: float):
    if not math.isfinite(eps):
        raise ValueError(f"eps must be finite, got {eps!r}")
    if eps <= 0:
        raise ValueError("eps must be positive")


def _out_of_range(eps: float, why: str = "the T count is not a finite number"
                  ) -> ValueError:
    return ValueError(f"eps={eps!r} is out of range: {why}")


def trotter_qpe(step: StepCost, w: float, eps: float,
                x: float | None = None) -> QpeEstimate:
    """Total T budget for Trotterized phase estimation at accuracy eps."""
    if w <= 0:
        raise ValueError("error norm must be positive")
    check_eps(eps)
    try:
        # a tiny eps underflows eps**1.5 to 0, a huge one overflows it
        if PE_STEP_CONSTANT * math.sqrt(w) / eps ** 1.5 < 1:
            # n_pe >= 1 at every x keeps the RUS log argument >= 0.72, so
            # the T count stays positive
            raise _out_of_range(eps, "it needs fewer than one phase-"
                                "estimation step")
        if x is None:
            x = optimize_x(step, w, eps)
        if not 0 < x < 1:
            raise ValueError("x must lie in (0, 1)")
        total_t, n_pe, n_rt = _trotter_total_t(step, w, eps, x)
    except (ZeroDivisionError, OverflowError):
        raise _out_of_range(eps) from None
    if not math.isfinite(total_t):
        raise _out_of_range(eps)
    # +2 qubits: one adaptive-estimation ancilla, one synthesis ancilla
    return QpeEstimate(
        method="trotter",
        total_t=total_t,
        total_rot=n_pe * step.n_rot,
        n_qubits=step.n_qubits + 2,
        eps=eps,
        x=x,
        intermediates={"n_pe": n_pe, "n_rt": n_rt, "w": w,
                       "n_rot_step": step.n_rot, "n_t_step": step.n_t,
                       "alpha": step.alpha},
    )


def qubitized_qpe(walk: WalkCosts, eps: float) -> QpeEstimate:
    """Total T budget for qubitized phase estimation at accuracy eps."""
    check_eps(eps)
    try:
        n_walk = math.ceil(math.pi * walk.lam / (2 * eps))
        total_t = float(n_walk * walk.per_walk_t + (4 * n_walk - 4))
    except OverflowError:
        raise _out_of_range(eps) from None
    alpha_pe = 2 * math.ceil(math.log2(n_walk + 1)) - 1
    return QpeEstimate(
        method="qubitized",
        total_t=total_t,
        total_rot=0.0,
        n_qubits=walk.n_qubits_walk + alpha_pe,
        eps=eps,
        intermediates={"n_walk": n_walk, "lambda": walk.lam,
                       "alpha_pe": alpha_pe, "per_walk_t": walk.per_walk_t,
                       "c_select": walk.c_select, "c_prepare": walk.c_prepare,
                       "c_reflect": walk.c_reflect},
    )


# ---------------------------------------------------------------------------
# sweeps


# alpha rule -> HWP group size m (alpha = m - 1 ancillas) for N sites
ALPHA_RULES = {"0": lambda n: 1, "N/4-1": lambda n: n // 4,
               "N/2-1": lambda n: n // 2, "N-1": lambda n: n}

# model -> periodic step cost of N sites at HWP group size m
_PERIODIC_STEP = {"hubbard": step_cost_periodic_hubbard,
                  "extended_hubbard": step_cost_periodic_extended,
                  "ppp": step_cost_ppp}


def alpha_to_m(n: int, alpha_rule: str) -> int:
    """Hamming-weight-phasing group size m for an alpha rule of N sites."""
    if alpha_rule not in ALPHA_RULES:
        raise ValueError(f"unknown alpha rule {alpha_rule!r}")
    return ALPHA_RULES[alpha_rule](n)


def hubbard_step(n: int, model: str, alpha_rule: str) -> StepCost:
    """Step cost of a periodic model of N sites under an alpha rule."""
    m = alpha_to_m(n, alpha_rule)
    if model not in _PERIODIC_STEP:
        raise ValueError(f"no periodic step costing for model {model!r}")
    return _PERIODIC_STEP[model](n, m)


def estimate_rows(lattice, cover, params, eps_rules: dict, alpha_rules,
                  theta: int, gamma: int) -> dict:
    """The ``fthub qpe`` rows of an L x L periodic_hex ``lattice`` with its
    ``cover`` and ``ModelParams``: per name of ``eps_rules`` (name -> eps as
    a function of N), a Trotter row per alpha rule, then the qubitized row.
    Any other lattice has no qubitized walk and raises ``ValueError``."""
    if lattice.kind != "periodic_hex" or lattice.dims[0] != lattice.dims[1]:
        raise ValueError("qpe rows need an L x L periodic_hex lattice, not "
                         f"a {lattice.kind} of dims {lattice.dims}")
    l, n = lattice.dims[0], lattice.n_sites
    w = w_tile(lattice, cover, params).w_tile
    steps = [(rule, hubbard_step(n, params.model, rule)) for rule in alpha_rules]
    walk = walk_costs(l, params.tau, params.u, theta, gamma)
    out = {}
    for name, eps_rule in eps_rules.items():
        eps = eps_rule(n)
        rows = [_row(trotter_qpe(step, w, eps), n, l, rule, name)
                for rule, step in steps]
        rows.append(_row(qubitized_qpe(walk, eps), n, l, "-", name))
        out[name] = rows
    return out


CSV_COLUMNS = ["method", "N", "L", "eps", "x", "alpha", "total_t", "total_rot",
               "n_qubits", "n_pe_or_nw", "w_or_lambda", "eps_rule"]


def _row(est: QpeEstimate, n: int, l: int, alpha_rule: str, eps_rule: str) -> dict:
    inter = est.intermediates
    if est.method == "trotter":
        progress, weight = inter["n_pe"], inter["w"]
    else:
        progress, weight = inter["n_walk"], inter["lambda"]
    return {
        "method": est.method, "N": n, "L": l, "eps": est.eps,
        "x": "" if est.x is None else f"{est.x:.6g}",
        "alpha": alpha_rule,
        "total_t": f"{est.total_t:.6g}",
        "total_rot": f"{est.total_rot:.6g}",
        "n_qubits": est.n_qubits,
        "n_pe_or_nw": f"{progress:.6g}",
        "w_or_lambda": f"{weight:.6g}",
        "eps_rule": eps_rule,
    }


def rows_to_csv(rows: list, columns=CSV_COLUMNS) -> str:
    """CSV text of ``rows`` under a header of ``columns``."""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=columns, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()
