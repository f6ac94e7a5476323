"""Command-line interface.

Subcommands:
  table2   regression table: error norms and per-step costs vs reference values
  qpe      phase-estimation sweep data (both accuracy rules)
  bounds   Trotter error-norm breakdown for one configuration
  gates    per-step gate counts for one configuration
  lattice  build a lattice and write its JSON document
  cover    build a section cover and write its JSON document
  verify   run the exact verification suite

Each subcommand takes only the options its ``cmd_*`` function reads (see
``COMMANDS``), plus ``--config`` and ``--out``; any other flag is rejected by
the parser.  Options may also be supplied through ``--config FILE`` holding
``key=value`` lines, each checked as the flag ``--key=value``; explicit flags
win.  Exit codes: 0 success, 1 check failure, 2 bad configuration.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

from . import qpe, refdata
from .gatecount import step_cost_fragment
from .lattice import (build_hex_fragment, build_periodic_hex,
                      build_square_fragment, check_lattice_memory,
                      lattice_to_json)
from .oracle import run_suite
from .qpe import estimate_rows, hubbard_step, rows_to_csv
from .qubitization import check_rotation_costs
from .tiling import (check_cover, check_cover_dims, cover_from_json,
                     cover_hex_fragment, cover_periodic_hex, cover_to_json)
from .trotterbounds import MODELS, ModelParams, w_so2_of, w_tile


def round_half_away(x: float) -> int:
    return int(math.floor(x + 0.5)) if x >= 0 else -int(math.floor(-x + 0.5))


def _write(path: str | None, text: str):
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def load_config(path: str) -> dict:
    out = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"bad config line: {line!r}")
            key, value = line.split("=", 1)
            out[key.strip()] = value.strip()
    return out


def _config_argv(argv: list, args: argparse.Namespace) -> list:
    """``argv`` with the lines of the ``--config`` file as ``--key=value``
    flags ahead of the command-line flags, so that one parse checks every
    value and an explicit flag wins."""
    flags = []
    for key, value in load_config(args.config).items():
        if key in ("command", "func", "config") or not hasattr(args, key):
            raise ValueError(f"unknown config key {key!r}")
        flags.append(f"--{key}={value}")
    # the top-level parser has no options, so argv[0] is the subcommand
    return argv[:1] + flags + argv[1:]


def _build_lattice(args):
    """The ``--lattice`` of ``--cells`` (default [[0,0]]) or of ``--L``
    (default 4); the flag that lattice does not read is an error."""
    unread = "L" if args.lattice == "hex_fragment" else "cells"
    if getattr(args, unread) is not None:
        raise ValueError(f"--lattice {args.lattice} reads no --{unread}")
    if args.lattice == "hex_fragment":
        try:
            return build_hex_fragment(json.loads(args.cells or "[[0,0]]"))
        except json.JSONDecodeError as exc:
            raise ValueError(f"--cells is not JSON: {exc}") from None
    l = 4 if args.L is None else args.L
    if args.lattice == "periodic_hex":
        return build_periodic_hex(l, l)
    return build_square_fragment(l, l)


def _build_cover(lattice, path: str | None = None):
    """The cover read from ``path``, or the builder's cover of ``lattice``."""
    if path:
        with open(path) as fh:
            cover = cover_from_json(fh.read(), lattice)
        check_cover(lattice, cover, "manual cover invalid")
        return cover
    if lattice.kind == "periodic_hex":
        return cover_periodic_hex(lattice)
    return cover_hex_fragment(lattice)


# ---------------------------------------------------------------------------
# subcommands


def cmd_table2(args) -> int:
    rows = []
    u, v, tau = (refdata.TABLE_PARAMS[k] for k in ("u", "v", "tau"))
    for model in ("hubbard", "extended_hubbard"):
        params = ModelParams(model, tau=tau, u=u, v=v)
        for idx, l in enumerate(refdata.TABLE_L):
            n = 2 * l * l
            lattice = build_periodic_hex(l, l)
            w = w_tile(lattice, cover_periodic_hex(lattice), params).w_tile
            ref = refdata.W_TILE[model][idx]
            rows.append({"model": model, "quantity": "w_tile", "alpha": "-",
                         "N": n, "computed": f"{w:.4f}",
                         "rounded": round_half_away(w), "reference": ref,
                         "diff": round_half_away(w) - ref})
            for rule in qpe.ALPHA_RULES:
                step = hubbard_step(n, model, rule)
                for qty, got in (("n_qubits", step.n_qubits),
                                 ("n_rot", step.n_rot), ("n_t", step.n_t)):
                    ref = refdata.STEP_TABLE[model][rule][qty][idx]
                    rows.append({"model": model, "quantity": qty, "alpha": rule,
                                 "N": n, "computed": got, "rounded": got,
                                 "reference": ref, "diff": got - ref})
    if args.format == "json":
        _write(args.out, json.dumps(rows, indent=1, sort_keys=True) + "\n")
    else:
        _write(args.out, rows_to_csv(rows, ["model", "quantity", "alpha", "N",
                                            "computed", "rounded", "reference",
                                            "diff"]))
    worst = max(abs(r["diff"]) for r in rows)
    return 0 if worst <= 1 else 1


def _model_params(args) -> ModelParams:
    return ModelParams(args.model, tau=args.tau, u=args.U, v=args.V)


def cmd_qpe(args) -> int:
    # checked here too, so that a sweep with no lattice size checks them;
    # the model parameters first, since the fixed eps below is eps * tau
    params = _model_params(args)
    w_so2_of(args.model)
    alpha_rules = tuple(args.alpha.split(","))
    for rule in alpha_rules:
        qpe.alpha_to_m(0, rule)
    fixed_eps = args.eps * args.tau
    qpe.check_eps(fixed_eps)
    check_rotation_costs(args.theta, args.gamma)
    check_lattice_memory(2 * max(args.L, 0) ** 2)
    eps_rules = {"fixed": lambda n: fixed_eps, "extensive": lambda n: 0.005 * n}
    rows = {name: [] for name in eps_rules}
    for l in range(4, args.L + 1, 2):
        lattice = build_periodic_hex(l, l)
        for name, swept in estimate_rows(
                lattice, cover_periodic_hex(lattice), params, eps_rules,
                alpha_rules, args.theta, args.gamma).items():
            rows[name] += swept
    # every fixed row, then every extensive row
    _write(args.out, rows_to_csv(sum(rows.values(), [])))
    return 0


def cmd_bounds(args) -> int:
    lattice = _build_lattice(args)
    if args.lattice == "square_fragment":
        # neither model has a bound there; say so before building a cover
        raise ValueError("bounds has no error-norm bound on --lattice "
                         "square_fragment")
    cover = _build_cover(lattice, args.cover)
    breakdown = w_tile(lattice, cover, _model_params(args))
    _write(args.out, breakdown.to_json() + "\n")
    return 0


def cmd_gates(args) -> int:
    lattice = _build_lattice(args)
    if args.lattice == "periodic_hex":
        # the periodic step costs read N alone
        if args.cover:
            raise ValueError("gates on a periodic_hex reads no --cover")
        # the step is the cost of the three-section cover, so it must exist
        check_cover_dims(*lattice.dims)
        step = hubbard_step(lattice.n_sites, args.model, args.alpha)
    else:
        # step_cost_fragment costs the on-site model without HWP ancillas
        if args.model != "hubbard":
            raise ValueError(f"gates on a {args.lattice} costs only the "
                             f"hubbard model, not {args.model}")
        if args.alpha != "0":
            raise ValueError(f"gates on a {args.lattice} uses no HWP "
                             f"ancillas: --alpha must be 0, not {args.alpha}")
        step = step_cost_fragment(lattice, _build_cover(lattice, args.cover))
    _write(args.out, step.to_json() + "\n")
    return 0


def cmd_lattice(args) -> int:
    _write(args.out, lattice_to_json(_build_lattice(args)) + "\n")
    return 0


def cmd_cover(args) -> int:
    _write(args.out, cover_to_json(_build_cover(_build_lattice(args))) + "\n")
    return 0


def cmd_verify(args) -> int:
    reports = run_suite(args.level)
    ok = all(r["pass"] for r in reports)
    lines = []
    for r in reports:
        status = "pass" if r["pass"] else "FAIL"
        lines.append(f"[{status}] {r['check']} {r.get('instance', '')}")
    summary = {"level": args.level, "n_checks": len(reports), "all_pass": ok,
               "reports": reports}
    _write(args.out, json.dumps(summary, indent=1, sort_keys=True,
                                default=float) + "\n")
    sys.stderr.write("\n".join(lines) + "\n")
    return 0 if ok else 1


# ---------------------------------------------------------------------------


# every option once; a subcommand registers only the ones its cmd_* reads
OPTIONS = {
    "lattice": dict(default="periodic_hex",
                    choices=["periodic_hex", "hex_fragment", "square_fragment"]),
    "L": dict(type=int, default=None, help="lattice dimension (default 4)"),
    "cells": dict(default=None,
                  help="JSON hexagon cell list for hex_fragment (default [[0,0]])"),
    "cover": dict(default=None,
                  help="manual cover JSON file (overrides the builder)"),
    "model": dict(default="hubbard", choices=MODELS),
    "U": dict(type=float, default=4.0),
    "V": dict(type=float, default=2.0),
    "tau": dict(type=float, default=1.0),
    "eps": dict(type=float, default=0.05),
    "alpha": dict(default="0", help="HWP ancilla rule"),
    "theta": dict(type=int, default=10),
    "gamma": dict(type=int, default=40),
    "format": dict(default="csv", choices=["csv", "json"]),
    "level": dict(default="fast", choices=["fast", "full"]),
}

# subcommand -> (function, the options it reads); --config and --out go on all
COMMANDS = {
    "table2": (cmd_table2, ("format",)),
    "qpe": (cmd_qpe, ("L", "model", "U", "V", "tau", "eps", "alpha", "theta",
                      "gamma")),
    "bounds": (cmd_bounds, ("lattice", "L", "cells", "cover", "model", "U",
                            "V", "tau")),
    "gates": (cmd_gates, ("lattice", "L", "cells", "cover", "model", "alpha")),
    "lattice": (cmd_lattice, ("lattice", "L", "cells")),
    "cover": (cmd_cover, ("lattice", "L", "cells")),
    "verify": (cmd_verify, ("level",)),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process and shared by
    every call: ``parse_args`` leaves it unchanged, and callers must not
    change it either (no ``add_argument`` or ``set_defaults`` on it)."""
    parser = argparse.ArgumentParser(prog="fthub",
                                     description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (fn, options) in COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="key=value options file")
        for key in options:
            p.add_argument(f"--{key}", **OPTIONS[key])
        p.add_argument("--out", default="-", help="output path, '-' for stdout")
        p.set_defaults(func=fn)
    sub.choices["qpe"].set_defaults(alpha=",".join(qpe.ALPHA_RULES), L=18)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parser.parse_args(argv)
        if args.config:
            args = parser.parse_args(_config_argv(argv, args))
        return args.func(args)
    except SystemExit as exc:
        # argparse has printed the usage message (or the help text)
        return 0 if exc.code in (0, None) else 2
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
