"""Rerun the ops of tests/outcomes.json and rewrite the outcomes it records.

    PYTHONPATH=src python tests/record_outcomes.py

The file holds a fixed op set, copied in as configs: the four README
configs and the benchmark workloads' small (``tiny``) ops at seed 11.  For
each op it records the exit code and what the op's artifacts say: every
field of its JSON files and the rows of its CSV files, a trace thinned to
about TRACE_ROWS rows plus its last.  `test_outcomes.py` reruns the ops and
compares them with `moved`.  This script prints every field that moved
against the file it replaces, one `op: field: old -> new` line each, and
rewrites the file.  The file records behaviour, not correctness.
"""

import json
import math
import sys
import tempfile
from pathlib import Path

from decentopt.cli import main

PATH = Path(__file__).with_name("outcomes.json")
TRACE_ROWS = 16
# Floats agree within RTOL relative, except EXACT's, the scan brackets' ends,
# and ROUNDING's, rounding-level certificate residuals (about 1e-14), which
# agree within ATOL absolute; every int, str, bool and None is compared
# exactly.  Measured on one 2-CPU machine (numpy 2.4.6, OpenBLAS): every
# float of the op set is bit-identical at OPENBLAS_NUM_THREADS=1 and 2.
# Moving each entry of the Perron vector p by up to 2 ulp moves the trace
# floats by up to 5.8e-8 relative (extra and exact_diffusion_pd, whose S
# reads p, near rel_error 1e-10), the analysis floats by up to 7e-15, and
# closed_form_residual by 4% of its 1e-14.  RTOL and ATOL hold all of that
# with a margin.  CI's own machine was not measured here; CI reruns the
# check at two BLAS threads for that.
RTOL = 1e-6
ATOL = 1e-12
EXACT = ("mu_stable", "mu_unstable")
ROUNDING = ("closed_form_residual",)


def _value(text: str):
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def outcome(command: str, config: dict, work: Path) -> dict:
    """The exit code and artifact contents of `decentopt <command>` on config."""
    path, out = work / "config.json", work / "out"
    path.write_text(json.dumps(config))
    result = {"exit": main([command, "--config", str(path), "--out", str(out)])}
    for artifact in sorted(out.iterdir()) if out.exists() else ():
        if artifact.suffix == ".json":
            result[artifact.name] = json.loads(artifact.read_text())
            continue
        rows = [[_value(v) for v in line.split(",")]
                for line in artifact.read_text().splitlines()[1:]]
        stride = max(1, len(rows) // TRACE_ROWS)
        kept = rows[::stride] + ([rows[-1]] if (len(rows) - 1) % stride else [])
        result[artifact.name] = {"rows": len(rows), "kept": kept}
    return result


def _number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _close(a, b, key: str) -> bool:
    if key in EXACT or not (math.isfinite(a) and math.isfinite(b)):
        return a == b or math.isnan(a) and math.isnan(b)
    if key in ROUNDING:
        return abs(a - b) <= ATOL
    return a == b or abs(a - b) <= RTOL * max(abs(a), abs(b))


def moved(old, new, field: str = ""):
    """(field, old, new) of each value of `new` that does not match `old`."""
    if isinstance(old, dict) and isinstance(new, dict):
        for key in sorted(old.keys() | new.keys()):
            yield from moved(old.get(key), new.get(key), f"{field}.{key}".lstrip("."))
    elif isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        for i, (a, b) in enumerate(zip(old, new)):
            yield from moved(a, b, f"{field}[{i}]")
    elif isinstance(old, float) or isinstance(new, float):
        if not (_number(old) and _number(new) and _close(old, new, field.rsplit(".", 1)[-1])):
            yield field, old, new
    elif old != new:
        yield field, old, new


def record() -> int:
    ops = json.loads(PATH.read_text())
    count = 0
    for op in ops:
        with tempfile.TemporaryDirectory() as work:
            new = outcome(op["command"], op["config"], Path(work))
        for field, old, value in moved(op.get("outcome"), new):
            print(f"{op['name']}: {field or 'outcome'}: {old!r} -> {value!r}")
            count += 1
        op["outcome"] = new
    PATH.write_text(json.dumps(ops, indent=1) + "\n")
    print(f"{len(ops)} ops recorded, {count} fields moved")
    return 0


if __name__ == "__main__":
    sys.exit(record())
