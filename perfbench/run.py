"""fthub benchmark: one workload, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; fthub is imported from ``src``.
With ``--trace 0`` the run measures set-up time in fresh interpreters, then
runs the workload in one fresh worker process for about S seconds and
reports the end-to-end metrics of ``BENCHMARK.json``.  With ``--trace 1`` it
runs pass 0 twice, untraced and then traced, each in a fresh process, and
reports the per-layer metrics.  Every output is checked; the last stdout
line is the result object, the line before it the run's metadata and
details.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 15
DEADLINE_S = 170.0       # a run must end within 180 s


def git_commit() -> str | None:
    """HEAD of the checkout, or None when it is not a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def package_version(name: str) -> str | None:
    try:
        return importlib.metadata.version(name)
    except importlib.metadata.PackageNotFoundError:
        return None


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] \
        if env.get("PYTHONPATH") else src
    return env


def setup_samples(env: dict, deadline: float) -> list:
    """Seconds from starting a fresh interpreter to ``import fthub`` done."""
    code = "import time, fthub; print(time.monotonic())"
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic()
        proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                              capture_output=True, text=True, check=True,
                              timeout=max(deadline - t0, 1.0))
        samples.append(float(proc.stdout.split()[-1]) - t0)
    return samples


def run_worker(args, trace: int, passes: int, env: dict,
               deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), args.workload,
           str(args.seed), repr(float(args.seconds)), str(trace), str(passes)]
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                          text=True,
                          timeout=max(deadline - time.monotonic(), 1.0))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}: "
                           + proc.stderr.strip()[-2000:])
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "fthub" / "__init__.py").is_file():
        print("perfbench: no fthub sources under src/; run from a checkout",
              file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    deadline = time.monotonic() + DEADLINE_S
    env = child_env()

    details = {}
    try:
        if args.trace:
            plain = run_worker(args, 0, 1, env, deadline)
            traced = run_worker(args, 1, 1, env, deadline)
            workers = [plain, traced]
            values = dict(traced["layers"])
            values["trace.overhead_frac"] = (traced["pass_s"][0]
                                             / plain["pass_s"][0] - 1.0)
            wanted = spec["per_layer"]
            details.update(module_self_s=traced["module_self_s"],
                           n_spans=traced["n_spans"],
                           wrappers=[plain["wrappers"], traced["wrappers"]])
        else:
            setup = setup_samples(env, deadline)
            worker = run_worker(args, 0, 0, env, deadline)
            workers = [worker]
            values = {"setup_s": statistics.median(setup),
                      "wall_s": statistics.median(worker["pass_s"]),
                      "peak_rss_mb": worker["peak_rss_mb"]}
            wanted = spec["end_to_end"]
            details.update(setup_samples_s=setup, wrappers=[worker["wrappers"]])
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in wanted}
    except (subprocess.SubprocessError, RuntimeError, ValueError,
            KeyError) as exc:
        print(f"perfbench: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1

    attempted = sum(w["attempted"] for w in workers)
    failed = sum(w["failed"] for w in workers)
    details.update(
        workload=args.workload, seed=args.seed, seconds=args.seconds,
        trace=args.trace, commit=git_commit(),
        python=platform.python_version(), numpy=package_version("numpy"),
        scipy=package_version("scipy"), blas=workers[0]["blas"],
        nproc=os.cpu_count(), cpus_allowed=len(os.sched_getaffinity(0)),
        fthub_backend=workers[0]["backend"],
        numba_importable=importlib.util.find_spec("numba") is not None,
        FTHUB_BACKEND=os.environ.get("FTHUB_BACKEND"),
        OPENBLAS_NUM_THREADS=os.environ.get("OPENBLAS_NUM_THREADS"),
        OMP_NUM_THREADS=os.environ.get("OMP_NUM_THREADS"),
        pass_s=[w["pass_s"] for w in workers],
        error_rate=failed / attempted if attempted else None,
        failures=[f for w in workers for f in w["failures"]])
    print(json.dumps({"perfbench": details}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
