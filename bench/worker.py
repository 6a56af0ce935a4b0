"""One benchmark worker: a fresh process that sets up and runs a workload.

Started by run.py with BLAS already pinned to one thread in its
environment and ``src`` on PYTHONPATH.  It imports decentopt, generates
the workload's configs, runs one untimed warm-up op and reports set-up
time.  Unless ``--setup-only`` is given it then runs the fixed op list
through ``decentopt.cli.main`` in a closed loop (one op after the other)
and checks every op's artifacts outside the timed region.  Set-up and op
times are reported in reference seconds (``speed.py``): the speed probe
starts before decentopt is imported and runs until the last timed op.

Untraced, it repeats the op list and stops at the pass boundary nearest
to ``--seconds``, after one pass at least.
Traced, it runs the list once untraced and once traced, so the
difference is the tracing overhead and every count repeats exactly.
The result is one JSON line on stdout.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import speed

PROBE = speed.SpeedProbe()
PROBE.start()

import numpy  # noqa: E402
import scipy  # noqa: E402

import decentopt  # noqa: E402
from decentopt import cli  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


class OpRunner:
    """Runs ops through the CLI entry point and checks what they wrote."""

    def __init__(self, work: Path):
        self.work = work
        self.probe = None
        self.tracer = None
        self.attempted = 0
        self.failures = []

    def prepare(self, slot, op) -> dict:
        """Write op's config file; returns the op with its paths attached."""
        config_path = self.work / f"{slot}.json"
        config_path.write_text(json.dumps(op["config"], indent=1, sort_keys=True))
        return dict(op, config_path=config_path, out=self.work / f"{slot}.out")

    def execute(self, op):
        """Run and check one op: (latency, wall seconds, whether it passed).

        The latency is in reference seconds while a probe is attached and in
        wall seconds otherwise.
        """
        self.attempted += 1
        shutil.rmtree(op["out"], ignore_errors=True)
        argv = [op["command"], "--config", str(op["config_path"]),
                "--out", str(op["out"]), "--jobs", "1"]
        if self.tracer is not None:
            self.tracer.enabled = True
        mark = self.probe.mark() if self.probe is not None else None
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception as exc:  # a traceback escaping main is a failed op
            code = f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - start
        if self.tracer is not None:
            self.tracer.enabled = False
        latency = wall if mark is None else self.probe.reference_seconds(wall, mark)
        if code == 0:
            try:
                reason = checks.check(op, op["out"])
            except (OSError, ValueError, KeyError, TypeError) as exc:
                reason = f"unreadable artifacts ({type(exc).__name__}: {exc})"
        elif isinstance(code, int):
            reason = f"exit status {code}"
        else:
            reason = f"raised {code}"
        if reason is not None:
            self.failures.append(f"{op['label']}: {reason}")
        return latency, wall, reason is None

    def run_pass(self, ops):
        """(timed, wall seconds, latencies of the ops that passed) of one pass."""
        timed, walls, latencies = 0.0, 0.0, []
        for op in ops:
            latency, wall, ok = self.execute(op)
            timed += latency
            walls += wall
            if ok:
                latencies.append(latency)
        return timed, walls, latencies


def artifact_bytes(ops) -> int:
    return sum(f.stat().st_size for op in ops if op["out"].is_dir()
               for f in op["out"].iterdir())


def _blas() -> str:
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        return "unknown"


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_path = ROOT / ".git" / ref[5:]
    if ref_path.is_file():
        return ref_path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def run_record(args) -> dict:
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted((ROOT / "src").rglob("*.py")))
    return {
        "workload": args.workload,
        "seed": args.seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "decentopt": decentopt.__version__,
        "blas": _blas(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "commit": _commit(),
        "src_lines": src_lines,
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", required=True)
    parser.add_argument("--t-spawn", type=float, required=True,
                        help="time.time() when the parent started this process")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args()

    work = Path(args.work)
    work.mkdir(parents=True, exist_ok=True)
    warmup, ops = workloads.build(args.workload, args.seed, tiny=args.tiny)
    runner = OpRunner(work)
    warmup = runner.prepare("warmup", warmup)
    ops = [runner.prepare(i, op) for i, op in enumerate(ops)]
    runner.execute(warmup)
    setup_wall = time.time() - args.t_spawn
    result = {"setup_s": PROBE.reference_seconds(setup_wall), "setup_wall_s": setup_wall}
    if args.setup_only or args.trace:
        PROBE.stop()
    if args.setup_only:
        print(json.dumps(result))
        return 0
    runner.attempted = len(runner.failures)  # the warm-up counts only if it failed

    if args.trace:
        untraced_s, _, _ = runner.run_pass(ops)
        tracer = tracing.Tracer()
        tracing.install(tracer)
        runner.tracer = tracer
        traced_s, _, _ = runner.run_pass(ops)
        layers = tracing.layer_metrics(tracer.spans)
        layers["cli.artifact_bytes"] = artifact_bytes(ops)
        layers["trace.overhead_s"] = traced_s - untraced_s
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        tracer.write_csv(out_dir / f"spans-{args.workload}-{args.seed}.csv")
        result["per_layer"] = layers
    else:
        runner.probe = PROBE
        pass_times, pass_walls, latencies = [], [], []
        loop_start = time.perf_counter()
        while True:
            timed, walls, lat = runner.run_pass(ops)
            pass_times.append(timed)
            pass_walls.append(walls)
            latencies += lat
            # stop at the pass boundary nearest to --seconds
            elapsed = time.perf_counter() - loop_start
            if elapsed + elapsed / len(pass_times) / 2.0 >= args.seconds:
                break
        PROBE.stop()
        result.update(
            wall_s=statistics.median(pass_times),
            pass_times=pass_times,
            pass_walls=pass_walls,
            probe_median_s=statistics.median(PROBE.samples),
            op_p50_ms=1e3 * statistics.median(latencies) if latencies else 0.0,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        )
    result["attempted"] = runner.attempted
    result["failed"] = len(runner.failures)
    result["failures"] = runner.failures
    result["record"] = run_record(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        status = main()
    finally:
        PROBE.stop()
    sys.exit(status)
