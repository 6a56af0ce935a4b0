#!/usr/bin/env python3
"""decentopt benchmark: one workload, end-to-end or per-layer metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root (or any checkout holding ``src/`` and
``bench/``).  Every workload runs in fresh worker processes with BLAS
pinned to one thread before numpy is imported.  With ``--trace 0`` the
benchmark starts SETUP_RUNS workers; all but the last only set up, so
``setup_s`` is the median of SETUP_RUNS set-ups, and the last one runs
the op list for ``--seconds``.  With ``--trace 1`` a single worker runs
the op list once untraced and once traced and reports the per-layer
metrics.  Times are in reference seconds, wall time corrected for the
machine's drifting speed by a probe in the worker (``speed.py``).  The
last stdout line is the JSON result; the line before it is the run
record (machine, versions, commit, ``src/`` line count, wall times).
``--tiny`` shrinks every workload for the self-test.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.dont_write_bytecode = True

from workloads import WORKLOADS  # noqa: E402

SETUP_RUNS = 5
DEADLINE_S = 170.0
BLAS_THREADS = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_ms": "ms",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("us_per_iter"):
        return "us"
    if name.endswith(("_share", "_per_matrix", "_per_scan")):
        return "ratio"
    return "count"


class BenchError(Exception):
    """A worker failed to produce a result."""


def spawn(args, work: Path, deadline: float, setup_only: bool = False) -> dict:
    """Run one worker process to completion and return its JSON result."""
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work", str(work), "--t-spawn", repr(time.time())]
    if setup_only:
        cmd.append("--setup-only")
    if args.tiny:
        cmd.append("--tiny")
    path = [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    env = dict(os.environ, **BLAS_THREADS, PYTHONPATH=os.pathsep.join(path),
               PYTHONDONTWRITEBYTECODE="1", PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker did not finish within {DEADLINE_S:g} s")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with status {proc.returncode}")
    return json.loads(lines[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if not (ROOT / "src" / "decentopt" / "__init__.py").is_file():
        print(f"error: no decentopt sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_RUNS - 1):
                setups.append(spawn(args, work, deadline, setup_only=True))
        result = spawn(args, work, deadline)
    except (BenchError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()  # only when no other run is using it
        except OSError:
            pass

    for failure in result["failures"]:
        print(f"failed op: {failure}", file=sys.stderr)
    attempted, failed = result["attempted"], result["failed"]
    if args.trace:
        metrics = {name: {"value": value, "unit": per_layer_unit(name)}
                   for name, value in sorted(result["per_layer"].items())}
    else:
        setups.append(result)
        values = {
            "setup_s": statistics.median(s["setup_s"] for s in setups),
            "wall_s": result["wall_s"],
            "op_p50_ms": result["op_p50_ms"],
            "peak_rss_mb": result["peak_rss_mb"],
            "ok_ratio": (attempted - failed) / attempted,
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
        result["record"].update(
            pass_times=result["pass_times"], pass_wall_times=result["pass_walls"],
            setup_times=[s["setup_s"] for s in setups],
            setup_wall_times=[s["setup_wall_s"] for s in setups],
            probe_median_s=result["probe_median_s"])
    print("record " + json.dumps(result["record"], sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
