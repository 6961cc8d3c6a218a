"""microhom benchmark runner.

    python3 perfbench/run.py --workload cell256 --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the library is imported from
``src/``.  The runner makes the workload's inputs from the seed, times
operations in a closed loop (one process; the next operation starts
when the previous one ends) for about ``--seconds`` seconds, checks every
operation's output outside the timed region and prints, as its last line, one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced operations and reports the per-layer metrics of the
traced ones, with ``trace.overhead_frac``; the spans are written to
``perfbench/out/``.  ``--tiny`` shrinks every workload for the smoke test.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
SETUP_REPEATS = 5
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# Worker threads per workload, capped at nproc below.
WORKERS = {"cell256": 1, "dataset64": 2, "plate4x8": 2, "macro100x200": 1}
E2E_UNITS = {"op_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# What op_s measures on each workload.
OP_MEANING = {
    "cell256": "solve_s: concentration field (3 loads) + effective stiffness",
    "dataset64": "generate_dataset wall time",
    "plate4x8": "plate_s: run_multiscale wall time",
    "macro100x200": "macro_s: solve_plate wall time",
}


def log(*parts) -> None:
    print(*parts, flush=True)


def git_commit(root: Path):
    """The checked-out commit, or None outside a git checkout."""
    if not (root / ".git").exists():  # do not pick up an enclosing repository
        return None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_digest(src: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(path.relative_to(src).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def environment(workers: int, blas_threads: int) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpu_count": os.cpu_count(),
        "nproc": len(os.sched_getaffinity(0)),
        "workers": workers,
        "blas_threads": blas_threads,
        "blas_env": {var: os.environ[var] for var in BLAS_VARS},
        "commit": git_commit(ROOT),
        "src_sha256": source_digest(ROOT / "src"),
    }


def _import_microhom() -> float:
    """Seconds to import microhom afresh: its modules are dropped first, so
    each import runs them again.  Only the first pays for the standard-library
    modules they use; the median over the repeats leaves that out."""
    for name in [m for m in sys.modules if m == "microhom" or m.startswith("microhom.")]:
        del sys.modules[name]
    start = time.perf_counter()
    importlib.import_module("microhom")
    return time.perf_counter() - start


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    nproc = len(os.sched_getaffinity(0))
    workers = min(WORKERS[args.workload], nproc)
    # Workers times BLAS threads stays within nproc; must precede numpy's import.
    blas_threads = max(1, nproc // workers)
    for var in BLAS_VARS:
        os.environ[var] = str(blas_threads)

    src = ROOT / "src"
    if not (src / "microhom" / "__init__.py").is_file():
        print(f"no microhom sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    # numpy and scipy load untimed: their import is not microhom's set-up.
    import numpy  # noqa: F401
    import scipy.sparse.linalg  # noqa: F401

    import_runs = [_import_microhom() for _ in range(SETUP_REPEATS)]

    import spans
    from workloads import WORKLOADS

    log(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    log("env", json.dumps(environment(workers, blas_threads), sort_keys=True))

    workload = WORKLOADS[args.workload](args.tiny, workers)
    setup_runs = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        inputs = workload.setup(args.seed)
        setup_runs.append(time.perf_counter() - start)
    setup_s = statistics.median(import_runs) + statistics.median(setup_runs)
    log(f"setup: import of microhom {', '.join(f'{t:.4f}' for t in import_runs)} s, "
        f"inputs {', '.join(f'{t:.4f}' for t in setup_runs)} s")

    tracer = spans.Tracer() if args.trace else None
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    plain, traced, layer_runs = [], [], []
    attempted = failed = 0
    loop_start = time.perf_counter()
    try:
        while True:
            op = attempted
            tracing = tracer is not None and op % 2 == 1
            opdir = workdir / str(op)
            opdir.mkdir(parents=True)
            elapsed = None
            try:
                if tracing:
                    tracer.install()
                    tracer.begin_op(op)
                try:
                    start = time.perf_counter()
                    result = workload.op(inputs, opdir)
                    elapsed = time.perf_counter() - start
                    read = workload.read(inputs, result, opdir)
                finally:
                    if tracing:
                        tracer.end_op()
                        tracer.uninstall()
                problems = workload.check(inputs, result, read)
            except Exception as err:  # a failed operation is counted, not fatal
                traceback.print_exc()
                problems = [f"{type(err).__name__}: {err}"]
            shutil.rmtree(opdir)
            attempted += 1
            failed += bool(problems)
            if elapsed is not None:
                (traced if tracing else plain).append(elapsed)
                if tracing and not problems:
                    layer_runs.append(spans.op_metrics(tracer, op, workers))
            status = "ok" if not problems else "FAILED: " + "; ".join(problems)
            timing = "raised" if elapsed is None else f"{elapsed:.4f} s"
            log(f"op {op}{' traced' if tracing else ''}: {timing}, check {status}")

            typical = statistics.median(plain + traced) if plain or traced else 0.0
            spent = time.perf_counter() - loop_start
            if attempted >= (2 if tracer else 1) and spent + typical > args.seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    log(f"fail_frac = {failed / attempted:g} ({failed} failed of {attempted} attempted)")
    if tracer is None:
        op_s = statistics.median(plain) if plain else 0.0
        metrics = {
            "op_s": op_s,
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = E2E_UNITS
        log(f"op_s = {op_s:.4f} s over {len(plain)} ops ({OP_MEANING[args.workload]})")
        if args.workload == "dataset64" and op_s:
            log(f"samples_per_s = {workload.config.n_samples / op_s:.4f}")
    else:
        metrics = {
            key: statistics.median(run[key] for run in layer_runs) if layer_runs else 0.0
            for key in spans.UNITS if key != "trace.overhead_frac"
        }
        metrics["trace.overhead_frac"] = (
            statistics.median(traced) / statistics.median(plain) - 1.0 if plain and traced else 0.0
        )
        units = spans.UNITS
        if tracer.missing:
            log("trace targets not found:", ", ".join(tracer.missing))
        path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
        tracer.write(path)
        log(f"{len(tracer.spans)} spans written to {path.relative_to(ROOT)}")

    summary = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": units[key]} for key, value in metrics.items()},
    }
    print(json.dumps(summary), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
