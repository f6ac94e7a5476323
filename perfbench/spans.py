"""Span tracing of ``fthub`` from outside the package.

``install`` wraps every public function of every ``fthub`` module, plus
``PauliSum.__matmul__``, at each place it is looked up: a function imported
by name into another module (``schatten1`` into ``trotterbounds`` and
``oracle``) is replaced there too, because that module looks it up in its own
globals.  Each call records a span (name, start, end, parent, item) and, for
the kernels, products and eigensolves, the sizes its counters are computed
from.  Only the traced worker process calls ``install``.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter, defaultdict

MARK = "__perfbench_span__"

# bytes a Pauli-string matvec moves per string and basis state, computed from
# array sizes: read the complex input vector, read and write the complex output
MATVEC_BYTES_PER_ENTRY = 3 * 16
COMPLEX_BYTES = 16


def _n_rows(matrix) -> int:
    return len(getattr(matrix, "matrix", matrix))


def _w_tile_key(lattice, cover, params):
    return (lattice.kind, lattice.n_sites, lattice.dims, cover.n_sections,
            params)


# size records taken from the arguments of selected calls.  A call whose
# size cannot be read (a changed signature) is counted in
# ``Tracer.size_errors``, and the traced run is refused: its counters would
# read 0, which looks like an improvement
SIZE_OF = {
    "kernels.apply_pauli_sum": lambda coeffs, xmasks, zmasks, vec, out=None:
        (len(coeffs), vec.shape[0]),
    "kernels.pauli_sum_dense": lambda coeffs, xmasks, zmasks, n_qubits:
        1 << n_qubits,
    "pauli.PauliSum.__matmul__": lambda self, other:
        len(self.terms) * len(other.terms),
    "freefermion.schatten1": lambda matrix, check_symmetry=True:
        _n_rows(matrix),
    "freefermion.ff_comm_norm": lambda a, b, sectors=1: _n_rows(a),
    "trotterbounds.w_tile": _w_tile_key,
}


class Tracer:
    """Keeps spans in memory: ``[name, start, end, parent, item, size]``."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list = []
        self.stack: list = []
        self.item = None
        self.size_errors: Counter = Counter()

    def wrap(self, name: str, fn):
        size_of = SIZE_OF.get(name)
        spans, stack, clock = self.spans, self.stack, self.clock
        size_errors = self.size_errors

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            size = None
            if size_of is not None:
                try:
                    size = size_of(*args, **kwargs)
                except Exception:
                    size_errors[name] += 1
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.item, size]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        setattr(wrapper, MARK, name)
        return wrapper


def install(tracer: Tracer) -> None:
    """Wrap fthub's public functions wherever they are looked up."""
    import importlib
    import pkgutil

    import fthub

    # every submodule that exists, so modules added or removed later are
    # traced without a change here
    modules = [importlib.import_module(f"fthub.{m.name}")
               for m in pkgutil.iter_modules(fthub.__path__)]
    wrappers = {}
    for mod in modules:
        short = mod.__name__.rsplit(".", 1)[1]
        for name, obj in vars(mod).items():
            if (not name.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__):
                wrappers[id(obj)] = tracer.wrap(f"{short}.{name}", obj)
    for mod in modules + [fthub]:
        for name, obj in list(vars(mod).items()):
            if id(obj) in wrappers and inspect.isfunction(obj):
                setattr(mod, name, wrappers[id(obj)])
    pauli_sum = getattr(sys.modules.get("fthub.pauli"), "PauliSum", None)
    if pauli_sum is not None:
        pauli_sum.__matmul__ = tracer.wrap("pauli.PauliSum.__matmul__",
                                           pauli_sum.__matmul__)


def installed_wrappers() -> int:
    """Number of traced attributes in the loaded fthub modules."""
    count = 0
    for name, mod in list(sys.modules.items()):
        if name == "fthub" or name.startswith("fthub."):
            count += sum(hasattr(obj, MARK) for obj in list(vars(mod).values()))
    pauli_sum = getattr(sys.modules.get("fthub.pauli"), "PauliSum", None)
    if pauli_sum is not None and hasattr(pauli_sum.__matmul__, MARK):
        count += 1
    return count


# ---------------------------------------------------------------------------
# derived quantities


def self_times(spans: list) -> list:
    """Each span's duration minus the part of its interval that its direct
    child spans cover (overlapping children are merged, not double counted)."""
    children = defaultdict(list)
    for i, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(i)
    out = []
    for i, span in enumerate(spans):
        start, end = span[1], span[2]
        cuts = sorted((max(spans[c][1], start), min(spans[c][2], end))
                      for c in children[i])
        covered = 0.0
        lo = hi = None
        for a, b in cuts:
            if b <= a:
                continue
            if hi is None or a > hi:
                if hi is not None:
                    covered += hi - lo
                lo, hi = a, b
            else:
                hi = max(hi, b)
        if hi is not None:
            covered += hi - lo
        out.append((end - start) - covered)
    return out


def layer_metrics(spans: list) -> dict:
    """Per-layer counts and self times (seconds) of one traced pass."""
    selfs = self_times(spans)
    count = defaultdict(int)
    self_s = defaultdict(float)
    module_calls = defaultdict(int)
    for span, s in zip(spans, selfs):
        count[span[0]] += 1
        self_s[span[0]] += s
        module_calls[span[0].split(".", 1)[0]] += 1
    module_self = defaultdict(float, module_self_times(spans, selfs))

    def sizes(name):
        return [span[5] for span in spans
                if span[0] == name and span[5] is not None]

    matvec = sizes("kernels.apply_pauli_sum")
    dense = sizes("kernels.pauli_sum_dense")
    in_norm = []
    for span in spans:
        in_norm.append(span[0] == "oracle.exact_spectral_norm"
                       or (span[3] >= 0 and in_norm[span[3]]))
    norm_matvecs = sum(1 for span, flag in zip(spans, in_norm)
                       if flag and span[0] == "kernels.apply_pauli_sum")
    norms = count["oracle.exact_spectral_norm"]
    eig = sizes("freefermion.schatten1") + sizes("freefermion.ff_comm_norm")
    tiles = sizes("trotterbounds.w_tile")
    return {
        "kernels.matvec_calls": count["kernels.apply_pauli_sum"],
        "kernels.matvec_s": self_s["kernels.apply_pauli_sum"],
        "kernels.strings_applied": sum(k for k, _ in matvec),
        "kernels.matvec_bytes": sum(MATVEC_BYTES_PER_ENTRY * k * d
                                    for k, d in matvec),
        "kernels.dense_calls": count["kernels.pauli_sum_dense"],
        "kernels.dense_s": self_s["kernels.pauli_sum_dense"],
        "kernels.dense_bytes": sum(COMPLEX_BYTES * d * d for d in dense),
        "pauli.product_calls": count["pauli.PauliSum.__matmul__"],
        "pauli.product_s": self_s["pauli.PauliSum.__matmul__"],
        "pauli.string_pairs": sum(sizes("pauli.PauliSum.__matmul__")),
        "oracle.norm_calls": norms,
        "oracle.norm_s": self_s["oracle.exact_spectral_norm"],
        "oracle.matvecs_per_norm": norm_matvecs / norms if norms else 0.0,
        "oracle.commutator_bounds_s": self_s["oracle.verify_commutator_bounds"],
        "oracle.trotter_step_s": self_s["oracle.verify_trotter_step"],
        "freefermion.calls": module_calls["freefermion"],
        "freefermion.self_s": module_self["freefermion"],
        "freefermion.eig_n3": sum(n ** 3 for n in eig),
        "trotterbounds.w_so2_s": (self_s["trotterbounds.w_so2_hubbard"]
                                  + self_s["trotterbounds.w_so2_extended"]),
        "trotterbounds.w_h_s": (self_s["trotterbounds.w_h"]
                                + self_s["trotterbounds.w_h_three_sections"]
                                + self_s["trotterbounds.w_h_general"]),
        "trotterbounds.w_tile_calls": count["trotterbounds.w_tile"],
        "trotterbounds.w_tile_distinct_frac":
            len(set(tiles)) / len(tiles) if tiles else 0.0,
        "lattice.build_s": module_self["lattice"],
        "tiling.cover_s": module_self["tiling"],
        "gatecount.step_cost_s": module_self["gatecount"],
        "qubitization.walk_costs_s": module_self["qubitization"],
        "qpe.optimize_x_calls": count["qpe.optimize_x"],
        "qpe.optimize_x_s": self_s["qpe.optimize_x"],
        "cli.self_s": module_self["cli"],
    }


def module_self_times(spans: list, selfs: list | None = None) -> dict:
    """Self time per fthub module."""
    out = defaultdict(float)
    for span, s in zip(spans, self_times(spans) if selfs is None else selfs):
        out[span[0].split(".", 1)[0]] += s
    return dict(out)
