"""T-gate and qubit costs of the controlled qubitized walk operator for the
periodic hexagonal on-site Hubbard model.

The walk operator is controlled-SELECT, PREPARE, PREPARE-dagger and a
controlled reflection.  Only cost formulas are evaluated here; the circuits
themselves are out of scope.  An element-by-element ledger mirrors the cost
table of the underlying construction and must reconcile with the closed-form
PREPARE cost for every lattice dimension that is not a power of two; at
exact powers of two the uniform-state-preparation rows would go negative
(the preparation degenerates to Clifford gates), so they are clamped at zero
and the mismatch is reported, never absorbed.

A known 9-T inconsistency between the closed-form reflection cost
(32 ceil(log2 L) + 77) and 4x its ledger Toffoli row (32 ceil(log2 L) + 68)
is likewise surfaced in the ledger; headline numbers use the closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

DEFAULT_THETA = 10   # T per rotation inside uniform state preparation
DEFAULT_GAMMA = 40   # T per other rotation in PREPARE

REFLECTION_LEDGER_GAP = 9   # closed form minus 4x ledger Toffolis


def _log2ceil(x: int) -> int:
    return max(1, math.ceil(math.log2(x)))


def two_adic_valuation(x: int) -> int:
    """Exponent of the largest power of two dividing x."""
    if x <= 0:
        raise ValueError("positive integer required")
    v = 0
    while x % 2 == 0:
        x //= 2
        v += 1
    return v


def lambda_hubbard(n: int, tau: float, u: float) -> float:
    """L1 coefficient norm of the periodic hexagonal on-site model (3N/2 bonds)."""
    return (3 * tau + u / 4.0) * n


def select_cost(l_x: int, l_y: int) -> int:
    """T count of controlled SELECT: 40 L_x L_y - 4 (Toffoli count 10 L_x L_y - 1)."""
    if l_x < 2 or l_y < 2:
        raise ValueError("lattice dimensions must be >= 2")
    return 40 * l_x * l_y - 4


def prepare_cost(l: int, theta: int = DEFAULT_THETA, gamma: int = DEFAULT_GAMMA) -> int:
    """T count of PREPARE for L_x = L_y = L."""
    if l < 2:
        raise ValueError("lattice dimension must be >= 2")
    return 46 * _log2ceil(l) + 4 * theta + 4 * gamma - 24 * two_adic_valuation(l) - 16


def reflection_cost(l: int) -> int:
    """T count of the controlled reflection (single-ancilla scheme)."""
    if l < 2:
        raise ValueError("lattice dimension must be >= 2")
    return 32 * _log2ceil(l) + 77


def walk_qubits(l: int, n: int) -> int:
    """Total logical qubits of the controlled walk operator for L_x = L_y = L."""
    if n != 2 * l * l:
        raise ValueError("n must equal 2 * l * l")
    return 2 * n + 6 * _log2ceil(l) + 15


def element_ledger(l_x: int, l_y: int, theta: int = DEFAULT_THETA,
                   gamma: int = DEFAULT_GAMMA) -> list:
    """Per-element Toffoli/T/ancilla rows of the walk-operator cost table.

    Rows are dicts {element, toffoli, t, ancilla}; negative uniform-prep
    Toffoli rows are clamped at zero with a ``clamped`` marker.
    """
    cx, cy = _log2ceil(l_x), _log2ceil(l_y)
    ex, ey = two_adic_valuation(l_x), two_adic_valuation(l_y)
    rows = []

    def add(element, toffoli, t, ancilla, **extra):
        rows.append(dict(element=element, toffoli=toffoli, t=t,
                         ancilla=ancilla, **extra))

    add("controlled_select", 10 * l_x * l_y - 1, 40 * l_x * l_y - 4, cx + cy + 3)
    for axis, c, e in (("x", cx, ex), ("y", cy, ey)):
        tof = 3 * c - 3 * e - 3
        clamped = tof < 0
        tof = max(tof, 0)
        add(f"uniform_prep_{axis}", tof, 4 * tof + 2 * theta, c - e + 2,
            clamped=clamped)
    add("concat_success_qubits", 1, 4, 1)
    add("controlled_hadamard", 1, 4, 2)
    add("controlled_decrement_x", cx, 4 * cx, cx)
    add("controlled_decrement_y", cy, 4 * cy, cy)
    add("controlled_swaps", cx + cy, 7 * cx + 7 * cy, 0)
    add("prepare_rotation", 0, gamma, 1)
    add("prepare_superposition_00_01_10", 0, 3 * gamma, 1)
    add("reflection", 2 * (2 * cx + 2 * cy + 10) - 3,
        4 * (2 * (2 * cx + 2 * cy + 10) - 3), 1,
        closed_form_gap=REFLECTION_LEDGER_GAP)
    return rows


def ledger_prepare_t(rows: list) -> int:
    """Sum of the ledger's PREPARE T column (everything but SELECT/reflection)."""
    skip = {"controlled_select", "reflection"}
    return sum(r["t"] for r in rows if r["element"] not in skip)


@dataclass
class WalkCosts:
    l_x: int
    l_y: int
    tau: float
    u: float
    theta: int
    gamma: int
    c_select: int
    c_prepare: int
    c_reflect: int
    lam: float
    n_qubits_walk: int
    element_ledger: list = field(default_factory=list)
    warnings: list = field(default_factory=list)

    @property
    def per_walk_t(self) -> int:
        """T per controlled walk: SELECT + PREPARE + PREPARE-dagger + reflection."""
        return self.c_select + 2 * self.c_prepare + self.c_reflect


def check_rotation_costs(theta: int, gamma: int):
    """Raise unless theta and gamma (T per synthesized rotation) are >= 1."""
    if theta < 1:
        raise ValueError(f"theta must be >= 1, got {theta}")
    if gamma < 1:
        raise ValueError(f"gamma must be >= 1, got {gamma}")


def walk_costs(l: int, tau: float = 1.0, u: float = 4.0,
               theta: int = DEFAULT_THETA, gamma: int = DEFAULT_GAMMA) -> WalkCosts:
    """All walk-operator costs for an L x L periodic hexagonal lattice."""
    check_rotation_costs(theta, gamma)
    n = 2 * l * l
    rows = element_ledger(l, l, theta, gamma)
    warnings = []
    cp = prepare_cost(l, theta, gamma)
    ledger_cp = ledger_prepare_t(rows)
    if ledger_cp != cp:
        warnings.append(
            f"uniform-prep rows clamped at L={l}: ledger PREPARE T {ledger_cp} "
            f"differs from closed form {cp} by {ledger_cp - cp}")
    warnings.append(
        "reflection ledger row (4x Toffolis) is "
        f"{REFLECTION_LEDGER_GAP} T below the closed form; closed form used")
    return WalkCosts(
        l_x=l, l_y=l, tau=tau, u=u, theta=theta, gamma=gamma,
        c_select=select_cost(l, l),
        c_prepare=cp,
        c_reflect=reflection_cost(l),
        lam=lambda_hubbard(n, tau, u),
        n_qubits_walk=walk_qubits(l, n),
        element_ledger=rows,
        warnings=warnings,
    )
