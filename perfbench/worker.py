"""One workload in one fresh process: ``run.py`` starts this file.

    python3 perfbench/worker.py WORKLOAD SEED SECONDS TRACE PASSES

Runs passes of WORKLOAD back to back, one item at a time (a closed loop with
a single caller), until the next pass would end after SECONDS; PASSES > 0
runs exactly that many passes instead.  Pass ``i`` draws its inputs from
(SEED, i).  Outputs are checked against ``refs/`` after each pass, outside
the timed part.  With TRACE = 1 (and PASSES = 1) the fthub functions are
wrapped before the pass and its per-layer metrics are reported; the worker
exits with code 3 when a size record could not be read.  The last stdout
line is one JSON object.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def blas_info() -> dict:
    """BLAS build and the thread count the loaded OpenBLAS will use."""
    import ctypes

    import numpy as np

    info = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info = {"name": blas.get("name"), "version": blas.get("version")}
    except (KeyError, TypeError, AttributeError):
        pass
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "openblas" in line.lower() and "/" in line})
    except OSError:
        libs = []
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, sym):
                info["threads"] = int(getattr(lib, sym)())
                return info
    return info


def main(argv) -> int:
    workload, seed, seconds, trace, passes = argv
    seed, seconds, trace, passes = int(seed), float(seconds), int(trace), int(passes)
    sys.path.insert(0, str(ROOT / "src"))
    import fthub  # noqa: F401
    import_done = time.monotonic()

    import spans
    import workloads as wl

    tracer = None
    if trace:
        if passes != 1:
            raise SystemExit("perfbench: a traced worker runs exactly one pass")
        tracer = spans.Tracer()
        spans.install(tracer)
    refs = wl.load_refs(workload)
    workdir = ROOT / ".perfbench_work" / f"{workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    runner = wl.Runner(workdir)

    pass_s, failures = [], []
    attempted = 0
    started = time.perf_counter()
    try:
        index = 0
        while True:
            items = wl.make_pass(workload, seed, index)
            outputs = []
            t0 = time.perf_counter()
            for i, item in enumerate(items):
                if tracer is not None:
                    tracer.item = (index, i)
                try:
                    outputs.append(runner.run(i, item))
                except Exception as exc:  # the item failed; keep measuring
                    outputs.append(exc)
            pass_s.append(time.perf_counter() - t0)
            for item, out in zip(items, outputs):
                attempted += 1
                if isinstance(out, Exception):
                    reason = f"{type(out).__name__}: {out}"
                else:
                    reason = wl.check(item, out, refs)
                if reason is not None:
                    failures.append({"pass": index, "item": wl.item_key(item),
                                     "reason": reason})
            index += 1
            if passes > 0:
                if index >= passes:
                    break
            elif time.perf_counter() - started + max(pass_s) > seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    if tracer is not None and tracer.size_errors:
        print("perfbench: could not read the call sizes of "
              f"{dict(tracer.size_errors)}; update spans.SIZE_OF",
              file=sys.stderr)
        return 3
    result = {
        "import_done": import_done,
        "pass_s": pass_s,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:20],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "backend": getattr(sys.modules.get("fthub.kernels"), "ACTIVE_BACKEND",
                           None),
        "blas": blas_info(),
    }
    if tracer is not None:
        result["layers"] = spans.layer_metrics(tracer.spans)
        result["module_self_s"] = spans.module_self_times(tracer.spans)
        result["n_spans"] = len(tracer.spans)
    result["wrappers"] = spans.installed_wrappers()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
