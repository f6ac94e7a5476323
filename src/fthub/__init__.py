"""Resource estimation and exact verification for fault-tolerant quantum
simulation of generalized Hubbard models on tiled lattices."""

from .lattice import (LatticeGraph, LatticeError, build_hex_fragment,
                      build_periodic_hex, build_square_fragment,
                      degree_histogram, lattice_from_json, lattice_to_json,
                      ring_lattice, single_hexagon)
from .tiling import (CoverError, SectionCover, Tile, cover_from_json,
                     cover_hex_fragment, cover_periodic_hex, cover_tile_census,
                     cover_to_json, tile_catalog, validate_cover)
from .freefermion import schatten1, translation_blocks, translation_periods
from .trotterbounds import (BoundUnsupportedError, ModelParams,
                            TrotterErrorBreakdown, w_h, w_so2_extended,
                            w_so2_hubbard, w_tile)
from .gatecount import (StepCost, step_cost_fragment, step_cost_periodic_extended,
                        step_cost_periodic_hubbard, step_cost_ppp, tile_gate_cost)
from .qubitization import (WalkCosts, element_ledger, lambda_hubbard,
                           prepare_cost, reflection_cost, select_cost,
                           walk_costs, walk_qubits)
from .qpe import QpeEstimate, estimate_rows, qubitized_qpe, trotter_qpe

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
