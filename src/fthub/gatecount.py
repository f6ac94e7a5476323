"""Per-Trotter-step gate and qubit counts.

Counts follow the merged-boundary convention for many repeated steps: the
Coulomb layer of one step fuses with the next, and of S hopping sections the
first S-1 are applied twice at half angle while the last is applied once at
full angle.  Gate counts per tile application are angle independent, so only
application multiplicities matter.

Hamming-weight phasing (HWP) trades a group of m equal-angle rotations for
floor(log2(m) + 1) rotations, m - 1 Toffolis and m - 1 clean ancillas; each
Toffoli is accounted as 4 T gates.

All three periodic models share one step formula: rotation layers of N
sites, merged m at a time by HWP, plus 10N T gates; only the layer count
differs (6 on-site, 12 extended, 2N + 4 all-to-all PPP).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from .lattice import LatticeGraph
from .tiling import SectionCover, cover_tile_census, tile_catalog

TOFFOLI_T = 4

# per-application gate record for each catalog tile
_TILE_GATES = {
    "S1": {"rot": 2, "t": 0, "cnot": 2, "h": 8, "s": 6, "fswap": 0},
    "S2": {"rot": 2, "t": 4, "cnot": 8, "h": 20, "s": 12, "fswap": 0},
    "C4": {"rot": 2, "t": 8, "cnot": 14, "h": 32, "s": 18, "fswap": 0},
    "S4": {"rot": 2, "t": 12, "cnot": 20, "h": 44, "s": 24, "fswap": 2},
}


def tile_gate_cost(kind: str) -> dict:
    """Gate record for one application of the tile's time evolution."""
    tile_catalog(kind)  # raises on unknown kind
    return dict(_TILE_GATES[kind])


@dataclass
class StepCost:
    n_rot: int
    n_t: int
    n_tof: int = 0
    n_qubits: int = 0
    n_cnot: int = 0
    n_h: int = 0
    n_s: int = 0
    n_fswap: int = 0
    hwp_m: int = 1                 # rotations merged per HWP group; 1 = off
    alpha: int = 0                 # HWP ancillas = hwp_m - 1
    boundary_extra_rot: int = 0    # first/last-step Coulomb overhead
    notes: dict = field(default_factory=dict)

    def to_json(self) -> str:
        doc = {k: getattr(self, k) for k in
               ("n_rot", "n_t", "n_tof", "n_qubits", "n_cnot", "n_h", "n_s",
                "n_fswap", "hwp_m", "alpha", "boundary_extra_rot")}
        doc["notes"] = self.notes
        return json.dumps(doc, indent=1, sort_keys=True)


def _check_hwp(n_layer: int, m: int):
    if m < 1:
        raise ValueError("HWP group size must be >= 1")
    if n_layer % m:
        raise ValueError(f"HWP group size {m} must divide the layer size {n_layer}")


def _hwp_rotations(m: int) -> int:
    return math.floor(math.log2(m) + 1) if m > 1 else 1


def step_cost_fragment(lattice: LatticeGraph, cover: SectionCover) -> StepCost:
    """On-site-model step cost for a tiled fragment.

    Section s of S is applied 2x per step except the last (1x), each
    application doubled for the two spin sectors; the Coulomb layer
    contributes N rotations and 2 layers of CNOTs.  The cover is checked
    where it is built or read, not here.
    """
    census = cover_tile_census(cover)
    n = lattice.n_sites
    s_count = len(census)
    totals = {"rot": 0, "t": 0, "cnot": 0, "h": 0, "s": 0, "fswap": 0}
    for idx, (_color, counts) in enumerate(census):
        mult = 1 if idx == s_count - 1 else 2
        for kind, count in counts.items():
            gates = _TILE_GATES[kind]
            apps = mult * 2 * count
            for key in totals:
                totals[key] += apps * gates[key]
    return StepCost(
        n_rot=n + totals["rot"],
        n_t=totals["t"],
        n_qubits=2 * n,
        n_cnot=2 * n + totals["cnot"],
        n_h=totals["h"],
        n_s=totals["s"],
        n_fswap=totals["fswap"],
        boundary_extra_rot=n,
        notes={"intersection_fswap_layers": 0},
    )


def _step_cost_periodic(n: int, m: int, layers: int, boundary_layers: int
                        ) -> StepCost:
    """Periodic hexagonal step of ``layers`` rotation layers of N, plus
    ``boundary_layers`` layers of first/last-step Coulomb overhead, with
    HWP group size m (m = 1 is plain rotations)."""
    _check_hwp(n, m)
    n_tof = (layers * n // m) * (m - 1)
    return StepCost(n_rot=(layers * n // m) * _hwp_rotations(m),
                    n_t=10 * n + TOFFOLI_T * n_tof, n_tof=n_tof,
                    n_qubits=2 * n + (m - 1), hwp_m=m, alpha=m - 1,
                    boundary_extra_rot=(boundary_layers * n // m) * _hwp_rotations(m))


def step_cost_periodic_hubbard(n: int, m: int = 1) -> StepCost:
    """Periodic hexagonal on-site model: 6 rotation layers of N, 10N T gates."""
    return _step_cost_periodic(n, m, 6, 1)


def step_cost_periodic_extended(n: int, m: int = 1) -> StepCost:
    """Periodic hexagonal extended model: 12 rotation layers of N."""
    return _step_cost_periodic(n, m, 12, 7)


def step_cost_ppp(n: int, m: int = 1) -> StepCost:
    """Periodic hexagonal all-to-all Coulomb model: 2N - 1 distance-grouped
    Coulomb layers plus 5 hopping layers of N rotations, with 2N - 1 layers
    of first/last-step Coulomb overhead."""
    return _step_cost_periodic(n, m, 2 * n + 4, 2 * n - 1)
