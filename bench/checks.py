"""Output checks, one per CLI subcommand.

Each check reads the artifacts an op wrote and returns None when they
are correct, or a one-line reason when they are not.  Checks run outside
the timed region.  They test properties with an exact reference (exit
status, closed forms, the spectral radius of the one-step error map)
rather than stored numbers, so a change that legitimately moves a value
does not fail them.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import jsonschema
import numpy as np

import decentopt

UNIT_SLACK = 1e-9
SCAN_REL_WIDTH = 1e-3
ONSET_REL_TOL = 1e-5
RESIDUAL_LIMIT = 1e-8


def _read_json(path: Path) -> dict:
    with open(path) as fh:
        return json.load(fh)


SCHEMA = _read_json(Path(decentopt.__file__).parent / "schemas"
                    / "analysis_report.schema.json")


def check_run(config: dict, out: Path):
    status = _read_json(out / "trace.json")
    if status["status"] != "converged":
        return f"status {status['status']!r} after {status['iterations']} iterations"
    stop = config["run"]["stop"]
    if not status["final_rel_error"] <= stop:
        return f"final_rel_error {status['final_rel_error']:.3e} above stop {stop:g}"
    with open(out / "trace.csv", newline="") as fh:
        rows = sum(1 for _ in csv.DictReader(fh))
    if rows != status["iterations"] + 1:
        return f"trace.csv has {rows} rows for {status['iterations']} iterations"
    return None


def _spectral_radius(dyn, engine: str, mu: float) -> float:
    m = decentopt.one_step_matrix(dyn, engine, mu=mu)
    return float(np.abs(np.linalg.eigvals(m)).max())


def _error_dynamics(config: dict):
    graph = config["graph"]
    g = decentopt.random_connected_graph(graph["n"], graph["edge_probability"], graph["seed"])
    matrix = decentopt.build_metropolis(g)
    model = decentopt.model_from_config(dict(config["model"], n_agents=graph["n"]))
    return decentopt.build_error_dynamics(matrix, model=model)


def check_scan(config: dict, out: Path):
    summary = _read_json(out / "scan.json")
    lo, hi = summary["mu_stable"], summary["mu_unstable"]
    if lo is None or hi is None:
        return f"grid did not bracket the onset (mu_stable={lo}, mu_unstable={hi})"
    engine = config["scan"]["engine"]
    if engine in ("exact_diffusion", "extra"):
        # Metropolis weights and uniform q make every per-agent step equal
        # to the scan axis value, so the exact one-step map applies as is
        dyn = _error_dynamics(config)
        rho_lo = _spectral_radius(dyn, engine, lo)
        rho_hi = _spectral_radius(dyn, engine, hi)
        if rho_lo > 1.0 + UNIT_SLACK:
            return f"mu_stable={lo:.6g} has spectral radius {rho_lo:.12f}"
        if rho_hi <= 1.0 + UNIT_SLACK:
            return f"mu_unstable={hi:.6g} has spectral radius {rho_hi:.12f}"
        return None
    if not summary["refined"]:
        return "bracket not refined"
    if hi - lo > SCAN_REL_WIDTH * hi:
        return f"bracket [{lo:.6g}, {hi:.6g}] wider than {SCAN_REL_WIDTH:g} relative"
    return None


def check_two_agent(config: dict, out: Path):
    report = _read_json(out / "two_agent.json")
    a = config["two_agent"]["a"]
    sigma2 = config["two_agent"]["sigma2"]
    expected = {
        "onset_diffusion": min(2.0, (1.0 + 3.0 * a) / (2.0 * a)) / sigma2,
        "onset_extra": min(2.0, (1.0 + 3.0 * a) / 2.0) / sigma2,
    }
    for key, value in expected.items():
        if abs(report[key] - value) > ONSET_REL_TOL * value:
            return f"{key} {report[key]:.9g} differs from closed form {value:.9g}"
    return None


def check_analyze(config: dict, out: Path):
    report = _read_json(out / "analysis.json")
    try:
        jsonschema.validate(report, SCHEMA)
    except jsonschema.ValidationError as exc:
        return f"analysis.json fails its schema: {exc.message}"
    residual = report["closed_form_residual"]
    if residual is None or not residual <= RESIDUAL_LIMIT:
        return f"closed_form_residual {residual} above {RESIDUAL_LIMIT:g}"
    for key in ("mu_bound_diffusion", "mu_bound_extra"):
        value = report[key]
        if value is not None and not (value > 0 and math.isfinite(value)):
            return f"{key} is {value}"
    return None


CHECKS = {
    "run": check_run,
    "stability-scan": check_scan,
    "two-agent": check_two_agent,
    "analyze": check_analyze,
}


def check(op: dict, out: Path):
    """None when op's artifacts in `out` are correct, else the reason."""
    return CHECKS[op["command"]](op["config"], out)
