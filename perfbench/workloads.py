"""Seeded inputs, item execution and output checks for the three workloads.

A *pass* is the fixed list of items one workload runs back to back.  The
shape of a pass (which lattices, which sizes, which subcommands) is fixed per
workload, so every pass does the same amount of work; the seed draws only the
physical parameters, the zero patterns and the order.  This keeps the
seed-to-seed spread of the pass time small while the inputs, and therefore
the outputs, still differ from seed to seed.  Where a pass's inputs could
be reused by a cache, which inputs repeat is fixed by construction, not left
to the draw (see ``_bounds_pass`` and ``_sweep_pass``).  Every value is
drawn from a finite pool, and ``refs/`` holds a reference output for every
member of that pool (see ``make_refs.py``).
"""

from __future__ import annotations

import csv
import hashlib
import json
import random
from pathlib import Path

WORKLOADS = ("verify_exact", "bounds_large", "estimate_sweep")

REFS_DIR = Path(__file__).resolve().parent / "refs"

# exact norms must match the stored reference on both sides to this share
NORM_RTOL = 1e-7
# bound breakdowns are floating-point sums; a reordered sum may move the last
# digits, which the reference-table contract (integer rounding) tolerates
BOUNDS_RTOL = 1e-9

INTERACTIONS = (0.0, 1.0, 2.0, 3.0, 4.0)
TAUS = (0.5, 1.0)
TROTTER_TIMES = (0.05, 0.1, 0.15, 0.2, 0.25)
TWELVE_QUBIT = ("ring6", "hexagon")

BOUNDS_SIZES = (22, 24)            # one L = 2 and one L = 0 (mod 4)
MODELS = ("hubbard", "extended_hubbard")

# the four (U, V) regimes of the 12-qubit commutator calls: U = 0 < V,
# V = 0 < U, 0 < V < U and 0 < U < V
REGIMES = (
    lambda u, v: u == 0 < v,
    lambda u, v: v == 0 < u,
    lambda u, v: 0 < v < u,
    lambda u, v: 0 < u < v,
)

# (U, tau) of ``fthub table2``; its V, 2, is also the CLI default of ``--V``
TABLE2_U_TAU = (4.0, 1.0)
QPE_L = 18
QPE_EPS = (0.02, 0.05)
QPE_THETA = (8, 12)
QPE_GAMMA = (32, 48)
ALPHA_RULES = ("0", "N/4-1", "N/2-1", "N-1")
SWEEP_SIZES = (4, 6, 8, 10, 12, 14, 16, 18)


def pass_rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{index}")


def run_choice(workload: str, seed: int, label: str, choices, index: int):
    """Member ``index`` of a permutation of ``choices`` fixed for the whole
    run, so the first ``len(choices)`` passes of a run never draw one twice."""
    order = list(choices)
    random.Random(f"{workload}/{seed}/{label}").shuffle(order)
    return order[index % len(order)]


# ---------------------------------------------------------------------------
# input generation


def make_pass(workload: str, seed: int, index: int) -> list:
    """The items of pass ``index`` of ``workload`` under ``seed``."""
    rng = pass_rng(workload, seed, index)
    if workload == "verify_exact":
        return _verify_pass(rng)
    if workload == "bounds_large":
        return _bounds_pass(rng, seed, index)
    if workload == "estimate_sweep":
        return _sweep_pass(rng, seed, index)
    raise ValueError(f"unknown workload {workload!r}")


def _commutator_item(lattice, u, v, tau):
    return {"kind": "commutator_bounds", "lattice": lattice,
            "u": u, "v": v, "tau": tau}


def _regime_pairs(regime) -> list:
    return [(u, v) for u in INTERACTIONS for v in INTERACTIONS if regime(u, v)]


def _verify_pass(rng):
    # four of five calls run on 12 qubits, one in each (U, V) regime.  The
    # nested commutators of one regime have the same strings and Lanczos
    # length whatever the values, while a free draw moves the pass cost by up
    # to 40 % (U = V cancels strings; U > V needs a third Lanczos block), so
    # every pass holds each regime once and the seed draws values inside it
    items = [_commutator_item("ring4", rng.choice(INTERACTIONS),
                              rng.choice(INTERACTIONS), rng.choice(TAUS))]
    for regime in REGIMES:
        u, v = rng.choice(_regime_pairs(regime))
        items.append(_commutator_item(rng.choice(TWELVE_QUBIT), u, v,
                                      rng.choice(TAUS)))
    items.append({"kind": "trotter_step", "u": rng.choice(INTERACTIONS),
                  "t": sorted(rng.sample(TROTTER_TIMES, 3))})
    return items


def _bounds_couplings(model) -> list:
    vs = INTERACTIONS if model == "extended_hubbard" else (0.0,)
    return [(u, v, tau) for u in INTERACTIONS for v in vs for tau in TAUS]


def _bounds_pass(rng, seed, index):
    # dense w_tile costs grow as L^6, so the sizes are fixed per pass and the
    # seed draws the couplings and the order.  No (L, model, U, V, tau)
    # recurs within a run, so a w_tile cache finds nothing to reuse here
    items = []
    for l in BOUNDS_SIZES:
        for model in MODELS:
            u, v, tau = run_choice("bounds_large", seed, f"{l}/{model}",
                                   _bounds_couplings(model), index)
            items.append({"kind": "bounds", "L": l, "model": model,
                          "u": u, "v": v, "tau": tau})
    rng.shuffle(items)
    return items


def _qpe_item(rng, model, u, tau):
    return {"kind": "qpe", "model": model, "L": QPE_L, "u": u, "tau": tau,
            "eps": rng.choice(QPE_EPS), "theta": rng.choice(QPE_THETA),
            "gamma": rng.choice(QPE_GAMMA)}


def _fresh_qpe_couplings() -> list:
    return [(u, tau) for u in INTERACTIONS for tau in TAUS
            if (u, tau) != TABLE2_U_TAU]


def _sweep_pass(rng, seed, index):
    # table2 evaluates w_tile on both models at L = 4..18.  The extended
    # qpe sweep runs at table2's (U, V, tau), so its eight w_tile inputs
    # repeat table2's in every pass; the on-site sweep draws any other
    # (U, tau), a new one in each pass of a run.  One pass therefore makes
    # 32 w_tile calls with 24 distinct inputs, whatever the seed.  The two
    # sweeps keep fixed models because the extended one costs about twice
    # the on-site one, so a seeded model would make the pass cost bimodal
    l = rng.choice(SWEEP_SIZES)
    u, tau = run_choice("estimate_sweep", seed, "qpe", _fresh_qpe_couplings(),
                        index)
    items = [{"kind": "table2"},
             _qpe_item(rng, "extended_hubbard", *TABLE2_U_TAU),
             _qpe_item(rng, "hubbard", u, tau)]
    items += [{"kind": "gates", "L": l, "model": m, "alpha": a}
              for m in MODELS for a in ALPHA_RULES]
    items += [{"kind": "lattice", "L": l}, {"kind": "cover", "L": l}]
    return items


# ---------------------------------------------------------------------------
# finite input pools (exactly the items make_pass can draw)


def verify_pool() -> list:
    items = [_commutator_item("ring4", u, v, tau) for u in INTERACTIONS
             for v in INTERACTIONS for tau in TAUS]
    items += [_commutator_item(lattice, u, v, tau) for lattice in TWELVE_QUBIT
              for regime in REGIMES for u, v in _regime_pairs(regime)
              for tau in TAUS]
    return items


def bounds_pool() -> list:
    return [{"kind": "bounds", "L": l, "model": model, "u": u, "v": v,
             "tau": tau}
            for l in BOUNDS_SIZES for model in MODELS
            for u, v, tau in _bounds_couplings(model)]


def sweep_pool() -> list:
    sweeps = [("extended_hubbard", TABLE2_U_TAU)]
    sweeps += [("hubbard", pair) for pair in _fresh_qpe_couplings()]
    items = [{"kind": "qpe", "model": model, "L": QPE_L, "u": u, "tau": tau,
              "eps": eps, "theta": theta, "gamma": gamma}
             for model, (u, tau) in sweeps for eps in QPE_EPS
             for theta in QPE_THETA for gamma in QPE_GAMMA]
    for l in SWEEP_SIZES:
        items += [{"kind": "gates", "L": l, "model": m, "alpha": a}
                  for m in MODELS for a in ALPHA_RULES]
        items += [{"kind": "lattice", "L": l}, {"kind": "cover", "L": l}]
    return items


def item_key(item: dict) -> str:
    """Canonical reference key of an item (its inputs, kind first)."""
    fields = [item["kind"]] + [f"{k}={item[k]}" for k in sorted(item)
                               if k != "kind"]
    return "|".join(fields)


def trotter_key(u: float, t: float) -> str:
    return f"trotter_step|u={u}|t={t}"


# ---------------------------------------------------------------------------
# execution (the timed part)


def cli_argv(item: dict, out: str) -> list:
    """``fthub`` command line for a CLI item."""
    kind = item["kind"]
    argv = [kind]
    if kind == "bounds":
        argv += ["--L", str(item["L"]), "--model", item["model"],
                 "--U", repr(item["u"]), "--V", repr(item["v"]),
                 "--tau", repr(item["tau"])]
    elif kind == "qpe":
        argv += ["--L", str(item["L"]), "--model", item["model"],
                 "--U", repr(item["u"]), "--tau", repr(item["tau"]),
                 "--eps", repr(item["eps"]), "--theta", str(item["theta"]),
                 "--gamma", str(item["gamma"])]
    elif kind == "gates":
        argv += ["--L", str(item["L"]), "--model", item["model"],
                 "--alpha", item["alpha"]]
    elif kind in ("lattice", "cover"):
        argv += ["--L", str(item["L"])]
    elif kind != "table2":
        raise ValueError(f"not a CLI item: {kind!r}")
    return argv + ["--out", out]


class Runner:
    """Runs items against an imported ``fthub`` package.

    Lattices and covers of the oracle items are built inside the call, as
    ``fthub verify`` does, so their cost is part of the item.
    """

    def __init__(self, workdir: Path):
        import fthub.cli
        import fthub.lattice
        import fthub.oracle
        import fthub.tiling
        import fthub.trotterbounds
        self.cli = fthub.cli
        self.lattice = fthub.lattice
        self.oracle = fthub.oracle
        self.tiling = fthub.tiling
        self.bounds = fthub.trotterbounds
        self.workdir = workdir

    def _build(self, name):
        if name == "hexagon":
            return self.lattice.single_hexagon()
        return self.lattice.ring_lattice(int(name[len("ring"):]))

    def run(self, index: int, item: dict):
        kind = item["kind"]
        if kind == "commutator_bounds":
            params = self.bounds.ModelParams("extended_hubbard", tau=item["tau"],
                                             u=item["u"], v=item["v"])
            return self.oracle.verify_commutator_bounds(
                self._build(item["lattice"]), params)
        if kind == "trotter_step":
            hexagon = self.lattice.single_hexagon()
            cover = self.tiling.cover_hex_fragment(hexagon)
            params = self.bounds.ModelParams("hubbard", tau=1.0, u=item["u"])
            breakdown = self.bounds.w_tile(hexagon, cover, params)
            return self.oracle.verify_trotter_step(hexagon, cover, params,
                                                   item["t"], breakdown)
        out = self.workdir / f"{index:02d}_{kind}.out"
        return {"rc": self.cli.main(cli_argv(item, str(out))), "path": out}


# ---------------------------------------------------------------------------
# output checks (outside the timed part)


def load_refs(workload: str) -> dict:
    with open(REFS_DIR / f"{workload}.json") as fh:
        return json.load(fh)


def _norm_mismatch(got: float, ref: float) -> bool:
    # two-sided: an under-converged solver that understates the norm fails
    return not abs(got - ref) <= NORM_RTOL * abs(ref) + 1e-12


def _close(got, ref) -> bool:
    if isinstance(ref, (int, float)) and not isinstance(ref, bool):
        return (isinstance(got, (int, float)) and not isinstance(got, bool)
                and abs(got - ref) <= BOUNDS_RTOL * abs(ref) + 1e-12)
    return got == ref


def sha256_file(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def check(item: dict, output, refs: dict) -> str | None:
    """None when the output is correct, else a one-line reason."""
    kind = item["kind"]
    if kind == "commutator_bounds":
        ref = refs[item_key(item)]
        if sorted(r["check"] for r in output) != sorted(ref):
            return f"checks {[r['check'] for r in output]} != {sorted(ref)}"
        for r in output:
            if not r["pass"]:
                return f"{r['check']} reported fail"
            if _norm_mismatch(r["exact"], ref[r["check"]]):
                return (f"{r['check']} exact {r['exact']!r} != "
                        f"reference {ref[r['check']]!r}")
        return None
    if kind == "trotter_step":
        if len(output) != len(item["t"]):
            return f"{len(output)} reports for {len(item['t'])} times"
        for t, r in zip(item["t"], output):
            if not r["pass"]:
                return f"trotter step t={t} reported fail"
            ref = refs[trotter_key(item["u"], t)]
            if _norm_mismatch(r["exact"], ref):
                return f"trotter step t={t} exact {r['exact']!r} != {ref!r}"
        return None
    if output["rc"] != 0:
        return f"exit code {output['rc']}"
    if kind == "table2":
        with open(output["path"], newline="") as fh:
            rows = list(csv.DictReader(fh))
        bad = [r for r in rows if int(r["diff"]) != 0]
        if not rows or bad:
            return f"{len(bad)} of {len(rows)} table rows differ"
        return None
    if kind == "bounds":
        with open(output["path"]) as fh:
            doc = json.load(fh)
        ref = refs[item_key(item)]
        if sorted(doc) != sorted(ref):
            return f"keys {sorted(doc)} != {sorted(ref)}"
        bad = [k for k in ref if not _close(doc[k], ref[k])]
        return f"values differ: {bad}" if bad else None
    digest = sha256_file(output["path"])
    if digest != refs[item_key(item)]:
        return f"output sha256 {digest[:12]} differs from the reference"
    return None
