"""Regenerate the stored reference outputs in ``perfbench/refs/``.

Run from the repository root:

    python3 perfbench/make_refs.py [verify_exact] [bounds_large] [estimate_sweep]

Every member of each workload's input pool gets a reference.  Exact
commutator norms are computed here by a route independent of the oracle's
solver: the nested commutator is split into its conserved (N_up, N_down)
sector blocks and each block is diagonalised densely, so neither Lanczos nor
the ``fthub.kernels`` matvec is involved.  Trotter-step errors, bound
breakdowns (as parsed JSON) and the SHA-256 of every other CLI output are
recorded from the program at the commit the references were made on.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads as wl  # noqa: E402


def sector_norm(op) -> float:
    """Largest |eigenvalue| of a Hermitian Pauli sum that conserves the
    spin-up and spin-down electron numbers, by dense sector blocks."""
    n = op.n_qubits
    dim = 1 << n
    idx = np.arange(dim)
    up = sum((idx >> b) & 1 for b in range(0, n, 2))
    dn = sum((idx >> b) & 1 for b in range(1, n, 2))
    label = up * (n + 1) + dn
    terms = [(x, z, c) for (x, z), c in op.terms.items()]
    weight = 0.0
    norm = 0.0
    for sector in np.unique(label):
        members = idx[label == sector]
        pos = np.full(dim, -1)
        pos[members] = np.arange(members.size)
        block = np.zeros((members.size, members.size), dtype=np.complex128)
        for x, z, c in terms:
            dst = pos[members ^ x]
            keep = dst >= 0
            sign = 1.0 - 2.0 * (np.bitwise_count(members & z) & 1)
            np.add.at(block, (dst[keep], np.nonzero(keep)[0]), c * sign[keep])
        weight += float(np.sum(np.abs(block) ** 2))
        if not np.allclose(block, block.conj().T, atol=1e-10):
            raise ValueError("operator is not Hermitian")
        norm = max(norm, float(np.abs(np.linalg.eigvalsh(block)).max()))
    total = dim * sum(abs(c) ** 2 for _, _, c in terms)
    # all Frobenius weight inside the blocks <=> the operator conserves both
    # spin numbers, so the block norms are the operator norm
    if abs(weight - total) > 1e-9 * max(total, 1.0):
        raise ValueError("operator leaks out of the spin sectors")
    return norm


def verify_refs() -> dict:
    from fthub import oracle
    from fthub.lattice import ring_lattice, single_hexagon
    from fthub.tiling import cover_hex_fragment
    from fthub.trotterbounds import ModelParams, w_tile

    lattices = {"ring4": ring_lattice(4), "ring6": ring_lattice(6),
                "hexagon": single_hexagon()}
    refs = {}
    for item in wl.verify_pool():
        lat = lattices[item["lattice"]]
        h_h = oracle.jw_hopping(lat, item["tau"])
        h_i = oracle.jw_onsite(lat, item["u"])
        h_v = oracle.jw_neighbor(lat, item["v"])
        h_c = h_i + h_v
        # the three nested commutators of oracle.verify_commutator_bounds
        nested = {"comm_CHC": (h_c, h_h, h_c), "comm_IHH": (h_i, h_h, h_h),
                  "comm_VHH": (h_v, h_h, h_h)}
        refs[wl.item_key(item)] = {
            name: sector_norm(a.commutator(b).commutator(c))
            for name, (a, b, c) in nested.items()}
        print(wl.item_key(item), refs[wl.item_key(item)], file=sys.stderr)
    hexagon = single_hexagon()
    cover = cover_hex_fragment(hexagon)
    for u in wl.INTERACTIONS:
        params = ModelParams("hubbard", tau=1.0, u=u)
        reports = oracle.verify_trotter_step(
            hexagon, cover, params, wl.TROTTER_TIMES,
            w_tile(hexagon, cover, params))
        for t, r in zip(wl.TROTTER_TIMES, reports):
            refs[wl.trotter_key(u, t)] = r["exact"]
    return refs


def cli_refs(pool: list, parse_json: bool) -> dict:
    from fthub.cli import main

    refs = {}
    work = ROOT / ".perfbench_work"
    work.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as tmp:
        out = str(Path(tmp) / "out")
        for item in pool:
            rc = main(wl.cli_argv(item, out))
            if rc != 0:
                raise SystemExit(f"{wl.item_key(item)}: exit code {rc}")
            if parse_json:
                with open(out) as fh:
                    refs[wl.item_key(item)] = json.load(fh)
            else:
                refs[wl.item_key(item)] = wl.sha256_file(out)
            print(wl.item_key(item), file=sys.stderr)
    return refs


def main(argv) -> int:
    builders = {
        "verify_exact": verify_refs,
        "bounds_large": lambda: cli_refs(wl.bounds_pool(), parse_json=True),
        "estimate_sweep": lambda: cli_refs(wl.sweep_pool(), parse_json=False),
    }
    for name in argv or wl.WORKLOADS:
        refs = builders[name]()
        wl.REFS_DIR.mkdir(exist_ok=True)
        with open(wl.REFS_DIR / f"{name}.json", "w") as fh:
            json.dump(refs, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
