"""End-to-end command-line flows: configs in, deterministic artifacts out."""

import argparse
import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import decentopt
from decentopt import (
    ConvergenceError,
    Graph,
    SpectralError,
    save_matrix_csv,
    two_agent_case,
    two_agent_onset,
)
from decentopt.cli import _build_graph, main

from conftest import C, U
from oracles import read_trace_csv

SCHEMA_PATH = Path(decentopt.__file__).parent / "schemas" / "analysis_report.schema.json"


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload, indent=2))
    return str(path)


def base_run_config(engine="exact_diffusion", **run_extra):
    run_cfg = {"engine": engine, "mu_o": 0.004, "max_iters": 6000, "stop": 1e-10}
    run_cfg.update(run_extra)
    return {
        "seed": 7,
        "graph": {"kind": "random", "n": 6, "edge_probability": 0.6},
        "matrix": {"rule": "metropolis"},
        "model": {"kind": "least_squares", "dim": 3, "samples_per_agent": 10},
        "run": run_cfg,
    }


def logistic_config(ridge=1.0, **run_extra):
    """A logistic run on a 6-agent random network, as the benchmark's
    logistic workload draws one."""
    run_cfg = {"engine": "exact_diffusion", "mu_o": 0.5 / 6, "max_iters": 5000,
               "stop": 1e-10}
    run_cfg.update(run_extra)
    return {
        "graph": {"kind": "random", "n": 6, "edge_probability": 0.5, "seed": 78713325},
        "matrix": {"rule": "metropolis"},
        "model": {"kind": "logistic", "seed": 8, "dim": 3, "samples_per_agent": 10,
                  "ridge": ridge},
        "run": run_cfg,
    }


def run_cli(args):
    return main([str(a) for a in args])


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def two_agent_payload(out):
    """out/two_agent.json, parsed strictly: NaN and Infinity are not JSON."""
    return json.loads((out / "two_agent.json").read_text(), parse_constant=_reject_constant)


# ----------------------------------------------------------------- run


def test_run_produces_trace_and_status(tmp_path):
    cfg = write_config(tmp_path, base_run_config())
    out = tmp_path / "out"
    assert run_cli(["run", "--config", cfg, "--out", out]) == 0
    lines = (out / "trace.csv").read_text().splitlines()
    assert lines[0] == "iter,comm_units,rel_error,grad_norm"
    rows = list(csv.DictReader(lines))
    status = json.loads((out / "trace.json").read_text())
    assert set(status) == {"status", "iterations", "final_rel_error"}
    assert status["status"] == "converged"
    assert status["iterations"] == len(rows) - 1
    assert float(rows[-1]["rel_error"]) == status["final_rel_error"]
    assert float(rows[0]["rel_error"]) == 1.0
    assert rows[0]["comm_units"] == "0"


def test_run_outputs_are_byte_identical(tmp_path):
    cfg = write_config(tmp_path, base_run_config())
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert run_cli(["run", "--config", cfg, "--out", out1]) == 0
    assert run_cli(["run", "--config", cfg, "--out", out2]) == 0
    for name in ("trace.csv", "trace.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_run_artifacts_hold_the_library_run(tmp_path):
    """trace.csv holds the in-process run's records exactly (17 significant
    digits round-trip every double), and trace.json its status, as sorted,
    two-space JSON."""
    cfg = write_config(tmp_path, base_run_config())
    out = tmp_path / "out"
    assert run_cli(["run", "--config", cfg, "--out", out]) == 0
    matrix = decentopt.build_metropolis(decentopt.random_connected_graph(6, 0.6, 7))
    model = decentopt.least_squares_model(seed=7, n_agents=6, dim=3, samples_per_agent=10)
    steps = decentopt.StepSizes.from_weights(model.q, matrix.perron.p, 0.004)
    res = decentopt.run("exact_diffusion", model, matrix, steps, max_iters=6000, stop=1e-10)
    assert read_trace_csv(out / "trace.csv") == res.records
    text = (out / "trace.json").read_text()
    assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"
    assert json.loads(text) == {"status": "converged", "iterations": res.iterations,
                                "final_rel_error": res.final_rel_error}


def test_run_outputs_on_the_csr_path_are_byte_identical(tmp_path):
    payload = base_run_config(engine="adaptive_exact_diffusion", mu_o=0.003 / 400,
                              max_iters=300, stop=1e-6)
    payload["graph"].update(n=400, edge_probability=0.02)
    graph = decentopt.random_connected_graph(400, 0.02, payload["seed"])
    assert not isinstance(decentopt.build_metropolis(graph)._a_t_op, np.ndarray)
    cfg = write_config(tmp_path, payload)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert run_cli(["run", "--config", cfg, "--out", out1]) == 0
    assert run_cli(["run", "--config", cfg, "--out", out2]) == 0
    assert json.loads((out1 / "trace.json").read_text())["status"] == "converged"
    for name in ("trace.csv", "trace.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_run_every_engine(tmp_path):
    for engine in decentopt.ENGINES:
        cfg_dict = base_run_config(engine=engine)
        if engine in ("extra", "diging", "aug_dgm"):
            cfg_dict["run"] = {"engine": engine, "mu": 0.02,
                               "max_iters": 20000, "stop": 1e-10}
        cfg = write_config(tmp_path, cfg_dict, name=f"{engine}.json")
        out = tmp_path / engine
        assert run_cli(["run", "--config", cfg, "--out", out]) == 0
        status = json.loads((out / "trace.json").read_text())
        assert status["status"] == "converged", engine


def test_run_uniform_mu_rejected_off_perron_profile(tmp_path):
    # averaging rule on a non-regular graph: q = 1 is not proportional to
    # p, so a plain uniform mu contradicts the exact-diffusion invariant
    cfg_dict = base_run_config()
    cfg_dict["graph"] = {"kind": "star", "n": 5}
    cfg_dict["matrix"] = {"rule": "averaging"}
    cfg_dict["run"] = {"engine": "exact_diffusion", "mu": 0.01}
    cfg = write_config(tmp_path, cfg_dict)
    assert run_cli(["run", "--config", cfg, "--out", tmp_path / "x"]) == 2


def test_run_uniform_mu_allowed_on_doubly_stochastic(tmp_path, capsys):
    cfg_dict = base_run_config()
    cfg_dict["run"] = {"engine": "exact_diffusion", "mu": 0.05, "stop": 1e-10,
                       "max_iters": 6000}
    cfg = write_config(tmp_path, cfg_dict)
    out = tmp_path / "out"
    assert run_cli(["run", "--config", cfg, "--out", out]) == 0


def test_run_w0_seed_changes_trace(tmp_path):
    cfg_a = write_config(tmp_path, base_run_config(w0_seed=1), name="a.json")
    cfg_b = write_config(tmp_path, base_run_config(w0_seed=2), name="b.json")
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert run_cli(["run", "--config", cfg_a, "--out", out_a]) == 0
    assert run_cli(["run", "--config", cfg_b, "--out", out_b]) == 0
    assert (out_a / "trace.csv").read_bytes() != (out_b / "trace.csv").read_bytes()


def test_run_whose_seed_gradient_overflows_diverges_quietly(tmp_path, capsys):
    # the seed's record ran outside the loop's errstate, so its gradient
    # norm leaked "overflow encountered in dot" (an error under -W error)
    cfg = write_config(tmp_path, logistic_config(ridge=1e300, w0_seed=999102781))
    out = tmp_path / "out"
    assert run_cli(["run", "--config", cfg, "--out", out]) == 0
    assert json.loads((out / "trace.json").read_text())["status"] == "diverged"
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("command", ["run", "stability-scan"])
def test_a_target_too_close_to_w0_is_a_config_error(tmp_path, capsys, command):
    # with ridge 1e300 the target is about 3e-301, so ||0 - w*||^2 underflows:
    # `run` used to write "converged" at iteration 0 with grad_norm 1.9, and
    # `stability-scan` to call every grid point stable
    payload = logistic_config(ridge=1e300)
    section = "run"
    if command == "stability-scan":
        section = "scan"
        payload["scan"] = {"engine": "exact_diffusion", "mu_min": 0.05, "mu_max": 60.0,
                           "points": 10, "log_spacing": True, "max_iters": 3000}
        del payload["run"]
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "out"
    assert run_cli([command, "--config", cfg, "--out", out]) == 2
    assert (f"config error at {section}: the squared distance from w0"
            in capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "stability-scan"])
def test_a_target_too_far_from_w0_is_a_config_error(tmp_path, capsys, command):
    # the minimizer is exactly 2^530, so ||0 - w*||^2 overflows: `run` used to
    # warn "overflow encountered in square" and write a NaN `diverged` trace
    # at iteration 1, and `stability-scan` to call every grid point unstable
    payload = mse_config()
    payload["graph"] = {"kind": "path", "n": 2}
    payload["model"].update(covariances=[[[2.0 ** -500]], [[2.0 ** -500]]],
                            cross_vectors=[[2.0 ** 30], [2.0 ** 30]])
    section = "run" if command == "run" else "scan"
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "out"
    assert run_cli([command, "--config", cfg, "--out", out]) == 2
    assert capsys.readouterr().err == (
        f"config error at {section}: the squared distance from w0 (zeros unless given) to "
        "the target overflows or is not finite, so no relative error can be formed\n")
    assert not out.exists()


def test_an_overflowing_run_writes_strict_json(tmp_path, capsys):
    # one step to an infinite error used to write "final_rel_error": Infinity
    payload = base_run_config(mu_o=1e200, max_iters=50)
    payload["graph"] = {"kind": "ring", "n": 4}
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "out"
    assert run_cli(["run", "--config", cfg, "--out", out]) == 0
    status = json.loads((out / "trace.json").read_text(), parse_constant=_reject_constant)
    assert status == {"status": "diverged", "iterations": 1, "final_rel_error": None}
    rows = list(csv.DictReader((out / "trace.csv").read_text().splitlines()))
    assert (rows[-1]["iter"], rows[-1]["rel_error"]) == ("1", "inf")
    assert capsys.readouterr().err == ""


def test_seed_flag_overrides_config(tmp_path):
    cfg = write_config(tmp_path, base_run_config())
    out1, out2 = tmp_path / "s7", tmp_path / "s8"
    assert run_cli(["run", "--config", cfg, "--out", out1]) == 0
    assert run_cli(["run", "--config", cfg, "--out", out1, "--seed", "7"]) == 0
    assert run_cli(["run", "--config", cfg, "--out", out2, "--seed", "8"]) == 0
    assert (out1 / "trace.csv").read_bytes() != (out2 / "trace.csv").read_bytes()


def test_graph_and_matrix_file_routes(tmp_path):
    g = decentopt.random_connected_graph(5, 0.7, seed=3)
    gpath = tmp_path / "graph.json"
    gpath.write_text(g.to_json())
    cfg_dict = base_run_config()
    cfg_dict["graph"] = {"kind": "file", "path": str(gpath)}
    cfg = write_config(tmp_path, cfg_dict, name="gfile.json")
    out = tmp_path / "gout"
    assert run_cli(["run", "--config", cfg, "--out", out]) == 0

    matrix = decentopt.build_metropolis(g)
    mpath = tmp_path / "matrix.csv"
    save_matrix_csv(mpath, matrix.a)
    cfg_dict2 = base_run_config()
    del cfg_dict2["graph"]
    cfg_dict2["matrix"] = {"rule": "file", "path": str(mpath)}
    cfg2 = write_config(tmp_path, cfg_dict2, name="mfile.json")
    out2 = tmp_path / "mout"
    assert run_cli(["run", "--config", cfg2, "--out", out2]) == 0
    assert (out / "trace.csv").read_bytes() == (out2 / "trace.csv").read_bytes()


@pytest.mark.parametrize("n, edges", [("abc", [[0, 1], [1, 2]]), (3.7, [[0, 1], [1, 2]]),
                                      (True, [])])
def test_graph_file_agent_count_must_be_an_integer(tmp_path, capsys, n, edges):
    # these used to exit 1 with a traceback, truncate to 3 agents, and
    # read as 1 agent (with a report written), respectively
    gpath = tmp_path / "graph.json"
    gpath.write_text(json.dumps({"n": n, "edges": edges}))
    cfg = write_config(tmp_path, {"graph": {"kind": "file", "path": str(gpath)},
                                  "matrix": {"rule": "metropolis"}})
    out = tmp_path / "x"
    assert run_cli(["analyze", "--config", cfg, "--out", out]) == 2
    assert (f"config error at graph.path: bad graph file: n must be an integer, got {n!r}"
            in capsys.readouterr().err)
    assert not (out / "analysis.json").exists()


@pytest.mark.parametrize("edges", [[[0.7, 1], [1, 2.9]], [["0", 1], [1, 2]],
                                   [[True, 1], [1, 2]], [[1e300, 1], [1, 2]],
                                   [[10 ** 30, 1], [1, 2]], [[0, 1, 2]], [0, 1], "01"])
def test_graph_file_edges_must_be_integer_pairs(tmp_path, capsys, edges):
    # these used to run on a truncated graph (exit 0), accept strings and
    # bools as indices, or end in an OverflowError traceback
    gpath = tmp_path / "graph.json"
    gpath.write_text(json.dumps({"n": 3, "edges": edges}))
    cfg = write_config(tmp_path, {"graph": {"kind": "file", "path": str(gpath)},
                                  "matrix": {"rule": "metropolis"}})
    out = tmp_path / "x"
    assert run_cli(["analyze", "--config", cfg, "--out", out]) == 2
    assert "config error at graph.path: bad graph file: " in capsys.readouterr().err
    assert not out.exists()


def test_graph_file_of_one_agent_has_no_edges(tmp_path):
    gpath = tmp_path / "graph.json"
    gpath.write_text(json.dumps({"n": 1, "edges": []}))
    report = analyze_report(tmp_path, {"graph": {"kind": "file", "path": str(gpath)},
                                       "matrix": {"rule": "metropolis"}})
    assert report["n_agents"] == 1 and report["degenerate"]


@pytest.mark.parametrize("command, missing", [("run", "run"), ("stability-scan", "scan"),
                                              ("analyze", "matrix"),
                                              ("two-agent", "two_agent")])
def test_config_error_leaves_no_out_directory(tmp_path, capsys, command, missing):
    cfg = base_run_config()
    cfg["scan"] = scan_config()["scan"]
    cfg["two_agent"] = {"a": 0.5, "sigma2": 1.0, "mu": 1.0}
    del cfg[missing]
    out = tmp_path / "out"
    assert run_cli([command, "--config", write_config(tmp_path, cfg), "--out", out]) == 2
    assert f"config error at {missing}: required section is missing" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------- scan


def scan_config():
    return {
        "seed": 5,
        "graph": {"kind": "complete", "n": 2},
        "matrix": {"rule": "metropolis"},
        "model": {"kind": "mse_quadratic", "dim": 1,
                  "covariances": [[[1.0]], [[1.0]]],
                  "cross_vectors": [[0.7], [-0.3]]},
        "scan": {"engine": "extra", "mu_min": 0.1, "mu_max": 2.4,
                 "points": 8, "max_iters": 3000, "stop": 1e-10},
    }


def test_scan_locates_extra_boundary(tmp_path):
    cfg = write_config(tmp_path, scan_config())
    out = tmp_path / "out"
    assert run_cli(["stability-scan", "--config", cfg, "--out", out]) == 0
    lines = (out / "scan.csv").read_text().splitlines()
    assert lines[0] == "mu,algorithm,status"
    for line in lines[1:]:
        mu, algorithm, status = line.split(",")
        assert algorithm == "extra"
        # K2 with a = 1/2 and sigma^2 = 1: true onset at 1.25
        assert status == ("stable" if float(mu) < 1.25 else "unstable")
    summary = json.loads((out / "scan.json").read_text())
    assert set(summary) == {"engine", "mu_stable", "mu_unstable", "refined"}
    assert summary["refined"] is True
    assert abs(summary["mu_stable"] - 1.25) <= 5e-3
    assert 0 < summary["mu_unstable"] - summary["mu_stable"] <= 1e-3 * 2.4


def test_scan_outputs_identical_across_jobs(tmp_path):
    cfg = write_config(tmp_path, scan_config())
    out1, out4 = tmp_path / "j1", tmp_path / "j4"
    assert run_cli(["stability-scan", "--config", cfg, "--out", out1]) == 0
    assert run_cli(["stability-scan", "--config", cfg, "--out", out4,
                    "--jobs", "4"]) == 0
    for name in ("scan.csv", "scan.json"):
        assert (out1 / name).read_bytes() == (out4 / name).read_bytes()


@pytest.mark.parametrize("jobs", ["-4", "0"])
def test_jobs_below_one_is_a_config_error(tmp_path, capsys, jobs):
    # --jobs -4 used to exit 0
    cfg = write_config(tmp_path, scan_config())
    out = tmp_path / "out"
    assert run_cli(["stability-scan", "--config", cfg, "--out", out, "--jobs", jobs]) == 2
    assert "config error at --jobs: must be at least 1" in capsys.readouterr().err
    assert not out.exists()


def test_scan_that_overflows_writes_nothing_to_stderr(tmp_path):
    # a grid up to 1e308 used to print five numpy RuntimeWarnings
    payload = scan_config()
    payload["scan"].update(mu_max=1e308, points=4, max_iters=200)
    cfg = write_config(tmp_path, payload)
    src = str(Path(decentopt.__file__).resolve().parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-m", "decentopt.cli", "stability-scan", "--config",
                           cfg, "--out", str(tmp_path / "out")],
                          env=env, capture_output=True, text=True)
    assert (done.returncode, done.stderr) == (0, "")
    statuses = [line.split(",")[2] for line in
                (tmp_path / "out" / "scan.csv").read_text().splitlines()[1:]]
    assert statuses == ["stable", "unstable", "unstable", "unstable"]


def test_scan_validates_grid(tmp_path):
    bad = scan_config()
    bad["scan"]["points"] = 1
    cfg = write_config(tmp_path, bad)
    assert run_cli(["stability-scan", "--config", cfg, "--out", tmp_path / "x"]) == 2
    bad2 = scan_config()
    bad2["scan"]["mu_min"] = -0.5
    cfg2 = write_config(tmp_path, bad2, name="c2.json")
    assert run_cli(["stability-scan", "--config", cfg2, "--out", tmp_path / "y"]) == 2


# ------------------------------------------------------------- analyze


def analyze_config(rule="metropolis"):
    return {
        "seed": 9,
        "graph": {"kind": "random", "n": 7, "edge_probability": 0.5},
        "matrix": {"rule": rule},
    }


def load_schema():
    return json.loads(SCHEMA_PATH.read_text())


def test_analyze_report_matches_schema_and_library(tmp_path):
    cfg = write_config(tmp_path, analyze_config())
    out = tmp_path / "out"
    assert run_cli(["analyze", "--config", cfg, "--out", out]) == 0
    report = json.loads((out / "analysis.json").read_text())
    jsonschema.validate(report, load_schema())
    assert report["n_agents"] == 7 and report["degenerate"] is False
    assert report["closed_form_residual"] <= 1e-8
    matrix = decentopt.build_metropolis(
        decentopt.random_connected_graph(7, 0.5, seed=9))
    d = decentopt.diffusion_step_bound(matrix)
    e = decentopt.extra_step_bound(matrix)
    assert report["mu_bound_diffusion"] == pytest.approx(d.mu_bound, rel=1e-12)
    assert report["mu_bound_extra"] == pytest.approx(e.mu_bound, rel=1e-12)
    assert report["alpha_d"] < report["alpha_e"]
    assert report["t_d_norm"] < report["t_e_norm"]
    assert report["nu"] == 1.0 and report["delta"] == 1.0


def test_analyze_with_model_curvature(tmp_path):
    cfg_dict = analyze_config()
    cfg_dict["model"] = {"kind": "least_squares", "dim": 3, "samples_per_agent": 12}
    cfg = write_config(tmp_path, cfg_dict)
    out = tmp_path / "out"
    assert run_cli(["analyze", "--config", cfg, "--out", out]) == 0
    report = json.loads((out / "analysis.json").read_text())
    jsonschema.validate(report, load_schema())
    assert report["delta"] > report["nu"] > 0
    assert report["mu_bound_diffusion"] > 0


def test_analyze_averaging_skips_symmetric_only_fields(tmp_path):
    cfg_dict = analyze_config(rule="averaging")
    cfg_dict["graph"] = {"kind": "star", "n": 5}
    cfg = write_config(tmp_path, cfg_dict)
    out = tmp_path / "out"
    assert run_cli(["analyze", "--config", cfg, "--out", out]) == 0
    report = json.loads((out / "analysis.json").read_text())
    jsonschema.validate(report, load_schema())
    assert report["mu_bound_diffusion"] > 0
    assert report["alpha_e"] is None
    assert report["mu_bound_extra"] is None
    assert report["t_d_norm"] is None and report["t_e_norm"] is None


def test_analyze_single_agent_degenerates(tmp_path):
    a1 = tmp_path / "one.csv"
    save_matrix_csv(a1, np.array([[1.0]]))
    cfg = write_config(tmp_path, {"matrix": {"rule": "file", "path": str(a1)}})
    out = tmp_path / "out"
    assert run_cli(["analyze", "--config", cfg, "--out", out]) == 0
    report = json.loads((out / "analysis.json").read_text())
    jsonschema.validate(report, load_schema())
    assert report["degenerate"] is True
    assert report["lambda2"] is None
    assert report["mu_bound_diffusion"] is None


def test_analyze_rejects_unbalanced_matrix(tmp_path, capsys):
    a = np.array([[0.6, 0.2, 0.3], [0.2, 0.5, 0.3], [0.2, 0.3, 0.4]])
    path = tmp_path / "unbalanced.csv"
    save_matrix_csv(path, a)
    cfg = write_config(tmp_path, {"matrix": {"rule": "file", "path": str(path)}})
    assert run_cli(["analyze", "--config", cfg, "--out", tmp_path / "x"]) == 2
    assert "matrix" in capsys.readouterr().err


def analyze_report(tmp_path, payload):
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "x"
    assert run_cli(["analyze", "--config", cfg, "--out", out]) == 0
    report = json.loads((out / "analysis.json").read_text())
    jsonschema.validate(report, load_schema())
    return report


def test_analyze_beyond_dense_cap_is_config_error(tmp_path):
    # 2N = 240: analyze has no size cap, because B is decomposed in
    # closed form rather than by a dense 2N eigensolver
    report = analyze_report(tmp_path, {"graph": {"kind": "ring", "n": 120},
                                       "matrix": {"rule": "metropolis"}})
    assert report["n_agents"] == 120
    assert report["closed_form_residual"] <= 1e-8
    for key in ("mu_bound_diffusion", "mu_bound_extra", "alpha_d", "alpha_e"):
        assert 0 < report[key] < np.inf


@pytest.mark.parametrize("model", [
    logistic_config(ridge=1e300)["model"],
    {"kind": "mse_quadratic", "dim": 1, "covariances": [[[1e200]], [[1e200]]],
     "cross_vectors": [[1.0], [1.0]]},
])
def test_analyze_curvature_too_large_for_the_bounds_is_a_config_error(tmp_path, capsys,
                                                                       model):
    # squaring delta past 1.34e154 used to exit 1 with an OverflowError traceback
    payload = logistic_config() if model["kind"] == "logistic" else {
        "graph": {"kind": "complete", "n": 2}, "matrix": {"rule": "metropolis"}}
    payload.pop("run", None)
    payload["model"] = model
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "out"
    assert run_cli(["analyze", "--config", cfg, "--out", out]) == 2
    assert "config error at model: curvature bound delta" in capsys.readouterr().err
    assert not out.exists()


def test_analyze_decomposition_failure_is_config_error(tmp_path):
    # highly repeated spectrum: a dense eigensolver of B loses the
    # canonical left rows here, the closed form does not
    report = analyze_report(tmp_path, {"graph": {"kind": "star", "n": 100},
                                       "matrix": {"rule": "averaging"}})
    assert report["closed_form_residual"] <= 1e-8
    assert 0 < report["mu_bound_diffusion"] < np.inf
    assert report["mu_bound_extra"] is None


def test_analyze_certifies_the_b_spectrum_at_n1000(tmp_path):
    # no 2N eigensolve: the certified radius, rounding allowance
    # included, stays inside the eigenpair tolerance at N = 1000
    report = analyze_report(tmp_path, {
        "seed": 3, "graph": {"kind": "random", "n": 1000, "edge_probability": 0.1},
        "matrix": {"rule": "metropolis"}})
    assert report["n_agents"] == 1000
    assert 0 < report["closed_form_residual"] <= 1e-8


def test_only_analyze_computes_eigenvectors(tmp_path, monkeypatch):
    """run and stability-scan read the matrix's values-only spectrum;
    the eigenvectors of P^-1/2 A P^1/2, which V is built from too, are
    computed only for the error dynamics of analyze, in one eigh."""
    shapes = []
    eigh = np.linalg.eigh

    def recorded(m, *args, **kwargs):
        shapes.append(np.shape(m))
        return eigh(m, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recorded)
    cfg = base_run_config("exact_diffusion_pd")
    cfg["scan"] = {"engine": "extra", "mu_min": 0.01, "mu_max": 0.5, "points": 4,
                   "max_iters": 300}
    path = write_config(tmp_path, cfg)
    for command in ("run", "stability-scan"):
        assert run_cli([command, "--config", path, "--out", tmp_path / command]) == 0
    assert shapes == []
    assert run_cli(["analyze", "--config", path, "--out", tmp_path / "analyze"]) == 0
    assert shapes == [(6, 6)]


@pytest.mark.parametrize("kind", ["path", "ring", "star", "complete"])
@pytest.mark.parametrize("n", [1, 2, 3, 7])
def test_fixed_topologies_match_their_edge_lists(kind, n):
    path = [(k, k + 1) for k in range(n - 1)]
    edges = {
        "path": path,
        "ring": path + [(0, n - 1)] if n > 2 else path,
        "star": [(0, k) for k in range(1, n)],
        "complete": [(i, j) for i in range(n) for j in range(i + 1, n)],
    }[kind]
    assert _build_graph({"graph": {"kind": kind, "n": n}}, None) == Graph(n, frozenset(edges))


def test_analyze_bounds_do_not_depend_on_blas_threads(tmp_path):
    """alpha_d of complete-100 Metropolis, whose spectrum is one repeated
    eigenvalue, is the same at 1 and 2 BLAS threads."""
    cfg = write_config(tmp_path, {"graph": {"kind": "complete", "n": 100},
                                  "matrix": {"rule": "metropolis"}})
    src = str(Path(decentopt.__file__).resolve().parents[1])
    alphas = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads-{threads}"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        subprocess.run([sys.executable, "-m", "decentopt.cli", "analyze", "--config", cfg,
                        "--out", str(out)], env=env, check=True)
        alphas.append(json.loads((out / "analysis.json").read_text())["alpha_d"])
    assert alphas[1] == pytest.approx(alphas[0], rel=1e-12, abs=0)


# ------------------------------------------------------------ two-agent


def test_two_agent_payload_matches_closed_forms(tmp_path):
    cfg = write_config(tmp_path, {
        "two_agent": {"a": 0.5, "sigma2": 1.0, "mu": 1.9, "mu_e": 1.5}})
    out = tmp_path / "out"
    assert run_cli(["two-agent", "--config", cfg, "--out", out]) == 0
    payload = two_agent_payload(out)
    case = two_agent_case(0.5, 1.0, 1.9, 1.5)
    assert payload["specrad_diffusion"] == pytest.approx(case.specrad_d, rel=1e-12)
    assert payload["specrad_extra"] == pytest.approx(case.specrad_e, rel=1e-12)
    assert payload["stable_diffusion"] is True
    assert payload["stable_extra"] is False
    roots = {complex(re, im) for re, im in payload["roots_extra"]}
    assert all(any(abs(r - c) <= 1e-10 for c in case.roots_e) for r in roots)
    assert payload["onset_diffusion"] == pytest.approx(2.0, abs=1e-3)
    assert payload["onset_extra"] == pytest.approx(1.25, abs=1e-3)
    out2 = tmp_path / "out2"
    assert run_cli(["two-agent", "--config", cfg, "--out", out2]) == 0
    assert (out / "two_agent.json").read_bytes() == (out2 / "two_agent.json").read_bytes()


def test_two_agent_validates_inputs(tmp_path, capsys):
    cfg = write_config(tmp_path, {"two_agent": {"a": 1.5, "sigma2": 1.0, "mu": 0.5}})
    assert run_cli(["two-agent", "--config", cfg, "--out", tmp_path / "x"]) == 2
    assert "two_agent" in capsys.readouterr().err


@pytest.mark.parametrize("sigma2, mu", [(1e-320, 0.5), (1e200, 1e200)])
def test_two_agent_overflow_is_a_config_error(tmp_path, capsys, sigma2, mu):
    # sigma2 = 1e-320 used to exit 0 with "onset_diffusion": Infinity, which
    # is not JSON; an overflowing mu sigma2 reported numpy's "Array must not
    # contain infs or NaNs"
    cfg = write_config(tmp_path, {"two_agent": {"a": 0.5, "sigma2": sigma2, "mu": mu}})
    assert run_cli(["two-agent", "--config", cfg, "--out", tmp_path / "x"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error at two_agent: ") and "sigma2" in err, err
    assert not (tmp_path / "x").exists()


def test_two_agent_very_large_finite_steps_stay_finite(tmp_path):
    # mu sigma2 = 1e300 is finite, and so are the roots of both pairs
    case = two_agent_case(0.5, 1e150, 1e150)
    for roots, specrad in ((case.roots_d, case.specrad_d), (case.roots_e, case.specrad_e)):
        assert np.isfinite(roots).all() and len(roots) == 2
        assert specrad == pytest.approx(1e300, rel=1e-12)
    cfg = write_config(tmp_path, {"two_agent": {"a": 0.5, "sigma2": 1e150, "mu": 1e150}})
    out = tmp_path / "out"
    assert run_cli(["two-agent", "--config", cfg, "--out", out]) == 0
    payload = two_agent_payload(out)
    assert payload["stable_diffusion"] is False and payload["stable_extra"] is False


def test_two_agent_onsets_are_the_closed_forms(tmp_path):
    # (1 + 3a) / (2 sigma2) = 1 at a = 0.8, sigma2 = 1.7; a grid scan plus
    # bisection would stop near 1 + 2.4e-7
    cfg = write_config(tmp_path, {"two_agent": {"a": 0.8, "sigma2": 1.7, "mu": 0.5}})
    out = tmp_path / "out"
    assert run_cli(["two-agent", "--config", cfg, "--out", out]) == 0
    payload = two_agent_payload(out)
    assert payload["onset_extra"] == pytest.approx(1.0, rel=1e-15, abs=0)
    assert payload["onset_diffusion"] == two_agent_onset(0.8, 1.7, "exact_diffusion") == 2.0 / 1.7


def test_two_agent_builds_no_combination_matrix(tmp_path, monkeypatch):
    def refuse(self):
        raise AssertionError("two-agent built a CombinationMatrix")

    monkeypatch.setattr(decentopt.CombinationMatrix, "__post_init__", refuse)
    cfg = write_config(tmp_path, {"two_agent": {"a": 0.3, "sigma2": 2.0, "mu": 0.4}})
    assert run_cli(["two-agent", "--config", cfg, "--out", tmp_path / "out"]) == 0
    two_agent_payload(tmp_path / "out")


# ----------------------------------------------------------- error paths


def test_missing_config_file(tmp_path, capsys):
    assert run_cli(["run", "--config", tmp_path / "nope.json",
                    "--out", tmp_path / "x"]) == 2
    assert capsys.readouterr().err != ""


def test_malformed_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run_cli(["run", "--config", bad, "--out", tmp_path / "x"]) == 2


def test_field_paths_in_errors(tmp_path, capsys):
    cases = [
        ({"graph": {"kind": "warp", "n": 4}, "matrix": {"rule": "metropolis"},
          "model": {"kind": "least_squares", "dim": 2, "samples_per_agent": 4,
                    "seed": 1},
          "run": {"engine": "exact_diffusion", "mu_o": 0.01}}, "graph.kind"),
        (dict(base_run_config(), run={"engine": "warp", "mu": 0.1}), "run.engine"),
        (dict(base_run_config(), run={"engine": "exact_diffusion", "mu_o": -0.1}),
         "run.mu_o"),
        (dict(base_run_config(),
              run={"engine": "exact_diffusion", "mu": 0.1, "mu_o": 0.1}), "at run.mu: "),
        (dict(base_run_config(), run={"engine": "extra", "mu_o": 0.1}), "run.mu_o"),
        (dict(base_run_config(), run={"engine": "exact_diffusion"}), "run.mu_o"),
        # averaging on a star: q = 1 is not proportional to p, so no uniform mu fits
        (dict(base_run_config(), graph={"kind": "star", "n": 5}, matrix={"rule": "averaging"},
              run={"engine": "exact_diffusion", "mu": 0.01}), "at run.mu: "),
        (dict(base_run_config(), run={"engine": "adaptive_exact_diffusion", "mu": 0.01}),
         "at run.mu_o: "),
        (dict(base_run_config(), run={"engine": "adaptive_exact_diffusion", "mu": 99.0,
                                      "mu_o": 0.002}), "at run.mu: give either mu or mu_o"),
        # q mu_o / p overflows: it used to warn, then fail at run
        (dict(base_run_config(), run={"engine": "exact_diffusion", "mu_o": 1e308}),
         "at run.mu_o: "),
        (dict(base_run_config(), run={"engine": "adaptive_exact_diffusion", "mu_o": 1e308}),
         "at run.mu_o: "),
        # a q of the wrong length used to be reported at model
        (dict(base_run_config(), model=dict(base_run_config()["model"], q=[1, 2, 3])),
         "at model.q: "),
        ({k: v for k, v in base_run_config().items() if k != "run"}, "at run:"),
        ({k: v for k, v in base_run_config().items() if k != "model"}, "at model:"),
    ]
    for idx, (payload, needle) in enumerate(cases):
        cfg = write_config(tmp_path, payload, name=f"case{idx}.json")
        assert run_cli(["run", "--config", cfg, "--out", tmp_path / f"x{idx}"]) == 2
        err = capsys.readouterr().err
        assert "config error at" in err
        assert needle in err, (needle, err)


def run_and_scan_config():
    payload = base_run_config()
    payload["scan"] = {"engine": "exact_diffusion", "mu_min": 0.01, "mu_max": 0.1}
    return payload


@pytest.mark.parametrize("command, section, key, value", [
    ("run", "run", "stop", float("nan")),
    ("stability-scan", "scan", "mu_max", float("inf")),
])
def test_non_finite_numbers_are_config_errors(tmp_path, capsys, command, section, key, value):
    payload = run_and_scan_config()
    payload[section][key] = value
    cfg = write_config(tmp_path, payload)
    assert run_cli([command, "--config", cfg, "--out", tmp_path / "x"]) == 2
    assert f"config error at {section}.{key}: must be finite" in capsys.readouterr().err


def logistic_run_config():
    payload = base_run_config()
    payload["model"] = {"kind": "logistic", "dim": 3, "samples_per_agent": 10, "ridge": 1.0}
    return payload


@pytest.mark.parametrize("key, value", [
    ("q", [1.0, float("nan"), 1.0, 1.0, 1.0, 1.0]),
    ("q", [1.0, -1.0, 1.0, 1.0, 1.0, 1.0]),
    ("q", "uniform"),
    ("dim", 2.5),
    ("dim", 0),
    ("samples_per_agent", 0),
    ("n_agents", True),
    ("ridge", float("nan")),
    ("ridge", 0.0),
])
def test_model_fields_are_checked_at_their_path(tmp_path, capsys, key, value):
    payload = logistic_run_config()
    payload["model"][key] = value
    cfg = write_config(tmp_path, payload)
    assert run_cli(["run", "--config", cfg, "--out", tmp_path / "x"]) == 2
    assert f"config error at model.{key}:" in capsys.readouterr().err


def mse_config():
    return {
        "graph": {"kind": "complete", "n": 2},
        "matrix": {"rule": "metropolis"},
        "model": {"kind": "mse_quadratic", "dim": 1,
                  "covariances": [[[1.0]], [[1.0]]], "cross_vectors": [[0.7], [-0.3]]},
        "run": {"engine": "extra", "mu": 0.5},
        "scan": {"engine": "extra", "mu_min": 0.1, "mu_max": 2.4, "points": 4},
    }


@pytest.mark.parametrize("command", ["run", "stability-scan", "analyze"])
@pytest.mark.parametrize("key, value", [
    ("covariances", [[[float("nan")]], [[1.0]]]),
    ("covariances", [[[1.0]], [[float("inf")]]]),
    ("covariances", [[[1.0]], [[1.0, 2.0]]]),
    ("covariances", [[["1.0"]], [[1.0]]]),
    ("covariances", [[[True]], [[False]]]),
    ("cross_vectors", [[float("nan")], [-0.3]]),
    ("cross_vectors", "zeros"),
])
def test_quadratic_data_is_checked_at_its_path(tmp_path, capsys, command, key, value):
    # NaN data used to run to a NaN ground truth and exit 0
    payload = mse_config()
    payload["model"][key] = value
    cfg = write_config(tmp_path, payload)
    assert run_cli([command, "--config", cfg, "--out", tmp_path / "x"]) == 2
    assert f"config error at model.{key}:" in capsys.readouterr().err
    assert not (tmp_path / "x").exists() or not any((tmp_path / "x").iterdir())


@pytest.mark.parametrize("key, value, ndim", [("covariances", [1.0, 1.0], 3),
                                              ("cross_vectors", [0.7, -0.3], 2)])
def test_quadratic_data_needs_its_array_rank(tmp_path, capsys, key, value, ndim):
    # a flat covariance list used to exit at `model` with numpy's
    # "tri() missing 1 required positional argument"
    payload = mse_config()
    payload["model"][key] = value
    cfg = write_config(tmp_path, payload)
    assert run_cli(["run", "--config", cfg, "--out", tmp_path / "x"]) == 2
    assert f"config error at model.{key}: must be a {ndim}-D array, got 1-D" \
        in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "stability-scan", "analyze"])
@pytest.mark.parametrize("key, value", [("dim", 7), ("n_agents", 3)])
def test_quadratic_sizes_are_checked_against_the_data(tmp_path, capsys, command, key, value):
    # both fields used to be ignored, so "dim": 7 on 1-D data exited 0
    payload = mse_config()
    payload["model"][key] = value
    cfg = write_config(tmp_path, payload)
    assert run_cli([command, "--config", cfg, "--out", tmp_path / "x"]) == 2
    assert f"config error at model.{key}: is {value}, but the covariance data have {key} " \
        in capsys.readouterr().err


@pytest.mark.parametrize("text", ["0.5,0.5\n0.5,0.5\n0,0\n", "0.5,0.5,0\n0.5,0.5,1\n"])
def test_non_square_matrix_file_is_config_error(tmp_path, capsys, text):
    path = tmp_path / "a.csv"
    path.write_text(text)
    cfg = write_config(tmp_path, {"matrix": {"rule": "file", "path": str(path)}})
    assert run_cli(["analyze", "--config", cfg, "--out", tmp_path / "x"]) == 2
    assert "config error at matrix.path: bad combination matrix: combination matrix " \
        "must be square" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["analyze", "run", "stability-scan"])
@pytest.mark.parametrize("text", ["1,0\n0\n", "a,b\nc,d\n"])
def test_unparsable_matrix_file_is_config_error(tmp_path, capsys, command, text):
    # a ragged or non-numeric file used to end in numpy's ValueError traceback
    path = tmp_path / "a.csv"
    path.write_text(text)
    payload = run_and_scan_config()
    payload["matrix"] = {"rule": "file", "path": str(path)}
    cfg = write_config(tmp_path, payload)
    assert run_cli([command, "--config", cfg, "--out", tmp_path / "x"]) == 2
    assert f"config error at matrix.path: cannot read matrix file {path}: " \
        in capsys.readouterr().err


@pytest.mark.parametrize("command", ["analyze", "run", "stability-scan"])
@pytest.mark.parametrize("text", ["", "\n\n", "# a comment\n"],
                         ids=["empty", "blank-lines", "comment"])
def test_empty_matrix_file_is_config_error(tmp_path, capsys, command, text):
    # numpy used to warn on stderr, and the matrix then failed as shape (1, 0)
    path = tmp_path / "a.csv"
    path.write_text(text)
    payload = run_and_scan_config()
    payload["matrix"] = {"rule": "file", "path": str(path)}
    cfg = write_config(tmp_path, payload)
    assert run_cli([command, "--config", cfg, "--out", tmp_path / "x"]) == 2
    assert capsys.readouterr().err == (
        f"config error at matrix.path: cannot read matrix file {path}: it holds no numbers\n")
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("command, section", [("run", "run"), ("stability-scan", "scan")])
@pytest.mark.parametrize("key, value", [("stop", -1), ("stop", 0), ("max_iters", 0)])
def test_budget_is_checked_at_its_field(tmp_path, capsys, command, section, key, value):
    payload = run_and_scan_config()
    payload[section][key] = value
    cfg = write_config(tmp_path, payload)
    assert run_cli([command, "--config", cfg, "--out", tmp_path / "x"]) == 2
    assert f"config error at {section}.{key}:" in capsys.readouterr().err


@pytest.mark.parametrize("where", ["seed", "--seed", "graph.seed", "run.w0_seed", "model.seed"])
def test_negative_seeds_are_config_errors(tmp_path, capsys, where):
    payload = base_run_config()
    args = []
    if where == "--seed":
        args = ["--seed", "-1"]
    elif "." in where:
        section, key = where.split(".")
        payload[section][key] = -1
    else:
        payload["seed"] = -1
    cfg = write_config(tmp_path, payload)
    assert run_cli(["run", "--config", cfg, "--out", tmp_path / "x", *args]) == 2
    assert f"config error at {where}: must be non-negative" in capsys.readouterr().err


def test_scan_with_a_huge_budget_matches_a_small_one(tmp_path):
    # every grid point settles long before 3000 iterations, and no grid
    # point is left for bisection, so the budget changes nothing
    outs = []
    for max_iters in (3000, 2_000_000_000):
        payload = scan_config()
        payload["scan"].update(mu_max=1.0, max_iters=max_iters)
        cfg = write_config(tmp_path, payload, name=f"{max_iters}.json")
        outs.append(tmp_path / str(max_iters))
        assert run_cli(["stability-scan", "--config", cfg, "--out", outs[-1]]) == 0
    for name in ("scan.csv", "scan.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_graph_seed_required_without_top_level_seed(tmp_path, capsys):
    payload = base_run_config()
    del payload["seed"]
    cfg = write_config(tmp_path, payload)
    assert run_cli(["run", "--config", cfg, "--out", tmp_path / "x"]) == 2
    assert "graph.seed" in capsys.readouterr().err


def test_model_agent_count_must_match_graph(tmp_path, capsys):
    payload = base_run_config()
    payload["model"]["n_agents"] = 4  # graph has 6
    cfg = write_config(tmp_path, payload)
    assert run_cli(["run", "--config", cfg, "--out", tmp_path / "x"]) == 2
    assert "model" in capsys.readouterr().err


def _raise(error):
    def fail(*args, **kwargs):
        raise error("injected failure")
    return fail


@pytest.mark.parametrize("command", ["run", "stability-scan"])
def test_ground_truth_nonconvergence_is_config_error(tmp_path, capsys, monkeypatch, command):
    # no known input makes the solvers fail; inject the failure
    monkeypatch.setattr(decentopt.algorithms, "solve_centralized", _raise(ConvergenceError))
    monkeypatch.setattr(decentopt.stability, "solve_centralized", _raise(ConvergenceError))
    payload = base_run_config()
    payload["scan"] = {"engine": "exact_diffusion", "mu_min": 0.01, "mu_max": 0.1}
    cfg = write_config(tmp_path, payload)
    assert run_cli([command, "--config", cfg, "--out", tmp_path / "x"]) == 2
    assert "config error at model: injected failure" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "stability-scan"])
def test_perron_failure_is_config_error(tmp_path, capsys, monkeypatch, command):
    monkeypatch.setattr(decentopt.graphs, "_check_perron", _raise(SpectralError))
    payload = base_run_config()
    payload["scan"] = {"engine": "exact_diffusion", "mu_min": 0.01, "mu_max": 0.1}
    cfg = write_config(tmp_path, payload)
    assert run_cli([command, "--config", cfg, "--out", tmp_path / "x"]) == 2
    assert "config error at matrix: injected failure" in capsys.readouterr().err


@pytest.mark.parametrize("command, engine", [("run", "exact_diffusion"),
                                             ("run", "adaptive_exact_diffusion"),
                                             ("analyze", None)])
@pytest.mark.parametrize("rule, where", [("metropolis", "matrix"),
                                         ("file", "matrix.path: bad combination matrix")])
@pytest.mark.parametrize("failure, message", [("perron", "injected failure"),
                                              ("primitivity", "matrix is not primitive")])
def test_spectral_setup_failures_surface_at_the_matrix(tmp_path, capsys, monkeypatch, command,
                                                       engine, rule, where, failure, message):
    # the constructor computes p, so a failed Perron check (the one both the
    # edge-ratio p and the 1/N p pass) surfaces where the matrix is
    # built: at `matrix` for a built-in rule and at `matrix.path` for a
    # matrix file.  A's eigenvalues, and their
    # primitivity check, come on first read: `analyze` and the adaptive
    # engine read them where the matrix is built, so their failure surfaces
    # there too, and a run of any other engine never computes them
    payload = base_run_config(engine=engine or "exact_diffusion")
    if rule == "file":
        path = tmp_path / "a.csv"
        graph = decentopt.random_connected_graph(6, 0.6, seed=7)
        save_matrix_csv(path, decentopt.build_metropolis(graph).a)
        payload["matrix"] = {"rule": "file", "path": str(path)}
        del payload["graph"]
    if failure == "perron":
        monkeypatch.setattr(decentopt.graphs, "_check_perron", _raise(SpectralError))
    else:
        # every eigenvalue then counts as one at 1
        monkeypatch.setattr(decentopt.graphs, "UNIT_EIG_TOL", 2.0)
    cfg = write_config(tmp_path, payload)
    if failure == "primitivity" and engine == "exact_diffusion":
        shapes = []
        for name in ("eigh", "eigvalsh", "eigvals"):
            def recorded(x, *args, solver=getattr(np.linalg, name), **kwargs):
                shapes.append(np.shape(x))
                return solver(x, *args, **kwargs)
            monkeypatch.setattr(np.linalg, name, recorded)
        assert run_cli([command, "--config", cfg, "--out", tmp_path / "x"]) == 0
        assert (6, 6) not in shapes  # the ground truth's 3 x 3 Hessian is no matrix's
        return
    assert run_cli([command, "--config", cfg, "--out", tmp_path / "x"]) == 2
    assert f"config error at {where}: {message}" in capsys.readouterr().err


def test_no_matrix_construction_calls_a_solve_or_eigvals(tmp_path, monkeypatch):
    # p is read off the edges of a balanced matrix and is 1/N for a doubly
    # stochastic one; any other matrix has none, so no matrix needs a solve
    for name in ("solve", "eigvals"):
        monkeypatch.setattr(np.linalg, name, _raise(AssertionError))
    graph = decentopt.random_connected_graph(6, 0.6, seed=7)
    built = [decentopt.build_metropolis(graph), decentopt.build_averaging(graph)]
    for a in [m.a for m in built] + [U, C]:
        save_matrix_csv(tmp_path / "a.csv", a)
        built.append(decentopt.matrix_from_array(decentopt.load_matrix_csv(tmp_path / "a.csv")))
    assert [decentopt.check_balanced(m)[0] for m in built] == [True] * 4 + [False] * 2


def _refusal_config(tmp_path, a, command, engine, steps):
    path = tmp_path / "a.csv"
    save_matrix_csv(path, a)
    payload = base_run_config(engine=engine or "exact_diffusion", max_iters=2000)
    del payload["graph"], payload["run"]["mu_o"]
    payload["matrix"] = {"rule": "file", "path": str(path)}
    payload["run"].update(steps)
    payload["scan"] = {"engine": engine, "mu_min": 0.01, "mu_max": 0.5, "points": 4,
                       "max_iters": 500}
    return write_config(tmp_path, payload)


_BALANCED_U = "requires a locally balanced combination matrix (violation 7.895e-02)"
_BALANCED_C = "requires a locally balanced combination matrix (violation 1.667e-01)"


@pytest.mark.parametrize("matrix, command, engine, steps, where, text", [
    (U, "analyze", None, {}, "matrix", "combination matrix is not balanced (violation 7.895e-02)"),
    (U, "run", "exact_diffusion", {"mu": 0.01}, "run", "exact_diffusion " + _BALANCED_U),
    (U, "run", "exact_diffusion", {"mu_o": 0.004}, "run", "exact_diffusion " + _BALANCED_U),
    (U, "run", "adaptive_exact_diffusion", {"mu_o": 0.004}, "run",
     "adaptive_exact_diffusion " + _BALANCED_U),
    (U, "run", "diging", {"mu": 0.01}, "run",
     "diging requires a doubly stochastic combination matrix"),
    (U, "run", "extra", {"mu": 0.01}, "run",
     "extra requires a doubly stochastic combination matrix"),
    (U, "stability-scan", "exact_diffusion", {}, "scan", "exact_diffusion " + _BALANCED_U),
    (U, "stability-scan", "aug_dgm", {}, "scan",
     "aug_dgm requires a doubly stochastic combination matrix"),
    (C, "analyze", None, {}, "matrix", "combination matrix is not balanced (violation 1.667e-01)"),
    (C, "run", "exact_diffusion", {"mu": 0.01}, "run", "exact_diffusion " + _BALANCED_C),
    (C, "run", "exact_diffusion", {"mu_o": 0.004}, "run", "exact_diffusion " + _BALANCED_C),
    (C, "run", "adaptive_exact_diffusion", {"mu_o": 0.004}, "run",
     "adaptive_exact_diffusion " + _BALANCED_C),
    (C, "run", "diging", {"mu": 0.01}, None, None),
    (C, "run", "extra", {"mu": 0.01}, "run", "extra requires a symmetric combination matrix"),
    (C, "stability-scan", "exact_diffusion", {}, "scan", "exact_diffusion " + _BALANCED_C),
    (C, "stability-scan", "aug_dgm", {}, None, None),
], ids=[f"{m}-{c}" for m in "UC" for c in (
    "analyze", "exact_diffusion-mu", "exact_diffusion-mu_o", "adaptive", "diging", "extra",
    "scan-exact_diffusion", "scan-aug_dgm")])
def test_unbalanced_file_matrices_are_refused_where_their_reader_needs_balance(
        tmp_path, capsys, matrix, command, engine, steps, where, text):
    """The refusals of U and C read from a file: exit code, field path and
    text.  The engine's requirements are checked before its steps, so an
    exact diffusion run with a plain mu is refused at `run` for the matrix,
    as with mu_o, not at `run.mu` for a step rule that needs p."""
    cfg = _refusal_config(tmp_path, matrix, command, engine, steps)
    code = run_cli([command, "--config", cfg, "--out", tmp_path / "x"])
    err = capsys.readouterr().err
    if where is None:
        assert (code, err) == (0, "")
        assert os.listdir(tmp_path / "x")
        return
    assert code == 2
    assert err == f"config error at {where}: {text}\n"
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("command", ["run", "stability-scan"])
def test_rank_deficient_model_is_config_error(tmp_path, capsys, command):
    # five unknowns, one sample per agent, two agents: the aggregate
    # Hessian has rank two and the minimizer is not unique
    payload = base_run_config()
    payload["graph"] = {"kind": "path", "n": 2}
    payload["model"] = {"kind": "least_squares", "dim": 5, "samples_per_agent": 1}
    payload["scan"] = {"engine": "exact_diffusion", "mu_min": 0.01, "mu_max": 0.1}
    cfg = write_config(tmp_path, payload)
    assert run_cli([command, "--config", cfg, "--out", tmp_path / "x"]) == 2
    assert "config error at model: aggregate Hessian" in capsys.readouterr().err


def test_logistic_run_on_hard_instance_converges(tmp_path):
    # this instance's ground truth used to stop above gradient norm 1e-8
    payload = {
        "seed": 3,
        "graph": {"kind": "random", "n": 6, "edge_probability": 0.5},
        "matrix": {"rule": "metropolis"},
        "model": {"kind": "logistic", "dim": 3, "samples_per_agent": 10, "ridge": 1.0},
        "run": {"engine": "exact_diffusion", "mu_o": 0.08},
    }
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "out"
    assert run_cli(["run", "--config", cfg, "--out", out]) == 0
    assert json.loads((out / "trace.json").read_text())["status"] == "converged"


# ------------------------------------------------------------- start-up


def test_main_builds_no_parser(tmp_path, monkeypatch):
    """The parser is built once, at import: two main calls construct no
    ArgumentParser (subcommand parsers included)."""
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    cfg = write_config(tmp_path, {"two_agent": {"a": 0.3, "sigma2": 2.0, "mu": 0.4}})
    for out in ("first", "second"):
        assert run_cli(["two-agent", "--config", cfg, "--out", tmp_path / out]) == 0
        two_agent_payload(tmp_path / out)
    assert built == []


# Runs in a fresh interpreter: imports decentopt.cli, runs `main` on each
# argv list of sys.argv[1] (JSON), and prints a JSON report of the scipy
# modules loaded after the import and after each command, with the number of
# CSR operators built so far.
SCIPY_PROBE = """
import json, sys
import decentopt.cli
from decentopt import graphs

built = []
operator = graphs.CombinationMatrix._operator


def counted(self, *args, **kwargs):
    op = operator(self, *args, **kwargs)
    if not isinstance(op, graphs.np.ndarray):  # a CSR form
        built.append(op.shape[0])
    return op


graphs.CombinationMatrix._operator = counted


def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))


report = [{"scipy": scipy_modules(),
           "decentopt": sorted(m for m in sys.modules if m.startswith("decentopt."))}]
for argv in json.loads(sys.argv[1]):
    report.append({"exit": decentopt.cli.main(argv), "scipy": scipy_modules(),
                   "csr": len(built)})
print(json.dumps(report))
"""
SCIPY_FEATURES = ("scipy.sparse", "scipy.linalg", "scipy.special")


def scipy_probe(tmp_path, commands) -> list:
    """SCIPY_PROBE's report for (command, config payload) pairs."""
    argvs = [[command, "--config", write_config(tmp_path, payload, name=f"c{i}.json"),
              "--out", str(tmp_path / f"out{i}")]
             for i, (command, payload) in enumerate(commands)]
    src = str(Path(decentopt.__file__).resolve().parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", SCIPY_PROBE, json.dumps(argvs)], env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def loaded_features(step) -> set:
    return set(SCIPY_FEATURES) & set(step["scipy"])


def test_import_and_light_commands_leave_scipy_unloaded(tmp_path):
    """No module of the package imports scipy at module level: after
    `import decentopt.cli`, which imports every module, no scipy module is
    loaded.  An analyze at N=100 and dense runs and scans at N=20, adaptive
    ones included, load none of scipy.sparse, scipy.linalg and
    scipy.special."""
    run_cfg = base_run_config(max_iters=2000)
    run_cfg["graph"].update(n=20, edge_probability=0.3)
    adaptive_run_cfg = base_run_config(engine="adaptive_exact_diffusion", max_iters=200)
    adaptive_run_cfg["graph"].update(n=20, edge_probability=0.3)
    scan_cfgs = [{"seed": 4, "graph": {"kind": "random", "n": 20, "edge_probability": 0.6},
                  "matrix": {"rule": "metropolis"},
                  "model": {"kind": "least_squares", "dim": 3, "samples_per_agent": 10},
                  "scan": {"engine": engine, "mu_min": 0.01, "mu_max": 0.2,
                           "points": 4, "max_iters": 500, "stop": 1e-10}}
                 for engine in ("exact_diffusion", "adaptive_exact_diffusion")]
    analyze_cfg = {"seed": 3, "graph": {"kind": "random", "n": 100, "edge_probability": 0.1},
                   "matrix": {"rule": "metropolis"}}
    report = scipy_probe(tmp_path, [("analyze", analyze_cfg), ("run", run_cfg),
                                    ("run", adaptive_run_cfg)]
                         + [("stability-scan", cfg) for cfg in scan_cfgs])
    modules = {p.stem for p in Path(decentopt.__file__).parent.glob("*.py")} - {"__init__"}
    assert {f"decentopt.{m}" for m in modules} <= set(report[0]["decentopt"])
    assert report[0]["scipy"] == []
    for step in report[1:]:
        assert step["exit"] == 0 and step["csr"] == 0
        assert loaded_features(step) == set()


def test_logistic_commands_load_no_scipy(tmp_path):
    """The logistic model's sigmoid is numpy's: a logistic run, scan and
    analyze leave every scipy module unloaded."""
    run_cfg = logistic_config(w0_seed=999102781)
    scan_cfg = {key: run_cfg[key] for key in ("graph", "matrix", "model")}
    scan_cfg["scan"] = {"engine": "exact_diffusion", "mu_min": 0.05, "mu_max": 5.0,
                        "points": 4, "log_spacing": True, "max_iters": 500}
    analyze_cfg = {key: run_cfg[key] for key in ("graph", "matrix", "model")}
    report = scipy_probe(tmp_path, [("run", run_cfg), ("stability-scan", scan_cfg),
                                    ("analyze", analyze_cfg)])
    for step in report[1:]:
        assert step["exit"] == 0
        assert step["scipy"] == []


def test_csr_path_loads_scipy_sparse_alone(tmp_path):
    """A sparse run at N=200 takes the CSR path and loads scipy.sparse alone;
    an adaptive run then loads nothing more: its eigendecomposition is
    numpy's."""
    sparse_cfg = base_run_config(max_iters=100)
    sparse_cfg["graph"].update(n=200, edge_probability=0.05)
    adaptive_cfg = base_run_config(engine="adaptive_exact_diffusion", max_iters=200)
    adaptive_cfg["graph"].update(n=20, edge_probability=0.3)
    _, sparse, adaptive = scipy_probe(tmp_path, [("run", sparse_cfg), ("run", adaptive_cfg)])
    assert sparse["exit"] == 0 and sparse["csr"] > 0
    assert loaded_features(sparse) == {"scipy.sparse"}
    assert adaptive["exit"] == 0 and adaptive["csr"] == sparse["csr"]
    assert loaded_features(adaptive) == {"scipy.sparse"}
