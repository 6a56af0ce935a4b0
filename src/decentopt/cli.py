"""Command-line front end.

Subcommands (all take --config CONFIG.json --out OUTDIR [--seed N] [--jobs N]):

    run             simulate one engine, write trace.csv + trace.json
    stability-scan  classify a step-size grid, write scan.csv + scan.json
    analyze         spectral/bound report for a matrix, write analysis.json
    two-agent       closed-form two-agent case, write two_agent.json

Outputs are deterministic: floats carry 17 significant digits, JSON keys
are sorted, and nothing records timestamps, so reruns are byte-identical.
Exit status is 0 for completed work and 2 for configuration or I/O
errors (reported with the offending field path).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .algorithms import ENGINE_SPECS, ENGINES, StepSizes, _check_engine, _validate_steps, run
from .costs import ConvergenceError, CostModel, hessian_bounds, model_from_config
from .graphs import (
    CombinationMatrix,
    Graph,
    GraphError,
    SpectralError,
    build_averaging,
    build_metropolis,
    check_balanced,
    load_matrix_csv,
    matrix_from_array,
    random_connected_graph,
)
from .stability import (
    b_spectrum_residual,
    diffusion_step_bound,
    extra_step_bound,
    stability_scan,
    two_agent_case,
    two_agent_onset,
)


class ConfigError(Exception):
    """Configuration problem, tagged with the JSON field path."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


@contextmanager
def _failures_at(path: str):
    """Report library failures as config errors: ground-truth solver at
    `model`, eigen computations at `matrix`, any other ValueError at `path`."""
    try:
        yield
    except ConvergenceError as exc:
        raise ConfigError("model", str(exc))
    except SpectralError as exc:
        raise ConfigError("matrix", str(exc))
    except ValueError as exc:
        raise ConfigError(path, str(exc))


def _write_artifacts(outdir: Path, artifacts: dict) -> None:
    """Create outdir and write a command's {name: content} there: a .json
    dict, or a .csv (header, rows) streamed a line per row, floats to 17 digits."""
    outdir.mkdir(parents=True, exist_ok=True)
    for name, content in artifacts.items():
        with open(outdir / name, "w", newline="") as fh:
            if name.endswith(".json"):
                fh.write(json.dumps(content, indent=2, sort_keys=True) + "\n")
                continue
            header, rows = content
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(",".join(f"{v:.17g}" if isinstance(v, float) else str(v)
                                  for v in row) + "\n")


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(path, "file not found")
    except json.JSONDecodeError as exc:
        raise ConfigError(path, f"invalid JSON ({exc})")
    if not isinstance(cfg, dict):
        raise ConfigError(path, "top level must be a JSON object")
    return cfg


_KIND_CHECKS = {
    "int": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "str": lambda v: isinstance(v, str),
    "bool": lambda v: isinstance(v, bool),
    "list": lambda v: isinstance(v, list),
}

_MISSING = object()


def _field(section: dict, path: str, key: str, kind: str, default=_MISSING):
    where = f"{path}.{key}".lstrip(".")
    if key not in section:
        if default is _MISSING:
            raise ConfigError(where, "required field is missing")
        return default
    value = section[key]
    if not _KIND_CHECKS[kind](value):
        raise ConfigError(where, f"expected {kind}, got {type(value).__name__}")
    if kind == "number" and isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(where, "must be finite")
    return value


def _seed_field(section: dict, path: str, key: str, default=_MISSING):
    """A seed: a non-negative int, as numpy's generators take."""
    seed = _field(section, path, key, "int", default)
    if seed is not None and seed < 0:
        raise ConfigError(f"{path}.{key}".lstrip("."), "must be non-negative")
    return seed


def _positive(section: dict, path: str, key: str, default=_MISSING) -> float:
    value = _field(section, path, key, "number", default)
    if value <= 0:
        raise ConfigError(f"{path}.{key}", "must be positive")
    return value


def _count(section: dict, path: str, key: str, default=_MISSING) -> int:
    value = _field(section, path, key, "int", default)
    if value < 1:
        raise ConfigError(f"{path}.{key}".lstrip("."), "must be at least 1")
    return value


def _number_array(section: dict, path: str, key: str, ndim: int) -> np.ndarray:
    """A required, regular ndim-deep nested list of finite numbers, as an array."""
    value = _field(section, path, key, "list")
    try:
        array = np.asarray(value)
    except ValueError:  # ragged
        array = None
    if array is None or array.dtype.kind not in "iuf" or not np.isfinite(array).all():
        raise ConfigError(f"{path}.{key}", "must be a regular array of finite numbers")
    if array.ndim != ndim:
        raise ConfigError(f"{path}.{key}", f"must be a {ndim}-D array, got {array.ndim}-D")
    return array


def _budget(section: dict, path: str) -> tuple:
    """(max_iters, stop) of a run or scan section."""
    return (_count(section, path, "max_iters", default=4000),
            _positive(section, path, "stop", default=1e-8))


def _section(cfg: dict, name: str) -> dict:
    if name not in cfg:
        raise ConfigError(name, "required section is missing")
    if not isinstance(cfg[name], dict):
        raise ConfigError(name, "must be a JSON object")
    return cfg[name]


def _build_graph(cfg: dict, default_seed) -> Graph:
    section = _section(cfg, "graph")
    kind = _field(section, "graph", "kind", "str")
    if kind == "file":
        path = _field(section, "graph", "path", "str")
        try:
            with open(path) as fh:
                return Graph.from_json(fh.read())
        except FileNotFoundError:
            raise ConfigError("graph.path", f"file not found: {path}")
        except (json.JSONDecodeError, KeyError, TypeError, GraphError) as exc:
            raise ConfigError("graph.path", f"bad graph file: {exc}")
    n = _count(section, "graph", "n")
    with _failures_at("graph"):
        if kind == "random":
            prob = _field(section, "graph", "edge_probability", "number")
            seed = _seed_field(section, "graph", "seed", default=default_seed)
            if seed is None:
                raise ConfigError("graph.seed", "required (no top-level seed to fall back on)")
            return random_connected_graph(n, prob, seed)
        k = np.arange(1, n)
        if kind in ("path", "ring"):
            path = np.stack([k - 1, k], axis=1)
            return Graph(n, np.vstack([path, [(0, n - 1)]]) if kind == "ring" and n > 2 else path)
        if kind == "star":
            return Graph(n, np.stack([np.zeros_like(k), k], axis=1))
        if kind == "complete":
            return Graph(n, np.stack(np.triu_indices(n, k=1), axis=1))
    raise ConfigError("graph.kind", f"unknown kind {kind!r}")


def _build_matrix(cfg: dict, default_seed, spectrum: bool = False) -> CombinationMatrix:
    """The configured matrix.  With `spectrum` (for `analyze` and the
    adaptive engine, the readers of A's eigenvalues), a balanced matrix's
    eigenvalues, which it computes on first read, are read here too, so
    that a failure of their check surfaces where the matrix is built.  An
    unbalanced matrix has none, and is refused where its reader needs them."""
    section = _section(cfg, "matrix")
    rule = _field(section, "matrix", "rule", "str")
    if rule == "file":
        path = _field(section, "matrix", "path", "str")
        try:
            a = load_matrix_csv(path)
        except (OSError, ValueError) as exc:  # unreadable, or not a numeric table
            raise ConfigError("matrix.path", f"cannot read matrix file {path}: {exc}")
        graph = _build_graph(cfg, default_seed) if "graph" in cfg else None
        try:
            return _with_spectrum(matrix_from_array(a, graph), spectrum)
        except (GraphError, ValueError, SpectralError) as exc:
            raise ConfigError("matrix.path", f"bad combination matrix: {exc}")
    graph = _build_graph(cfg, default_seed)
    with _failures_at("matrix"):
        if rule == "metropolis":
            return _with_spectrum(build_metropolis(graph), spectrum)
        if rule == "averaging":
            return _with_spectrum(build_averaging(graph), spectrum)
    raise ConfigError("matrix.rule", f"unknown rule {rule!r}")


def _with_spectrum(matrix: CombinationMatrix, spectrum: bool) -> CombinationMatrix:
    if spectrum and check_balanced(matrix)[0]:
        matrix.rhoA  # computes and checks the eigenvalues
    return matrix


def _build_model(cfg: dict, n_agents: int, default_seed) -> CostModel:
    section = _section(cfg, "model")
    kind = _field(section, "model", "kind", "str")
    spec = dict(section)
    spec["n_agents"] = _count(section, "model", "n_agents", default=n_agents)
    _count(section, "model", "dim")
    if kind in ("least_squares", "logistic"):
        _count(section, "model", "samples_per_agent")
    if kind == "logistic":
        _positive(section, "model", "ridge")
    q = section.get("q")
    if q is not None and not (isinstance(q, list) and len(q) == spec["n_agents"] and all(
            _KIND_CHECKS["number"](v) and math.isfinite(v) and v > 0 for v in q)):
        raise ConfigError("model.q", f"must be a list of {spec['n_agents']} finite "
                                     "positive numbers")
    if kind == "mse_quadratic":
        cov = _number_array(section, "model", "covariances", 3)
        _number_array(section, "model", "cross_vectors", 2)
        for key, size in (("n_agents", cov.shape[0]), ("dim", cov.shape[2])):
            if spec[key] != size:
                raise ConfigError(f"model.{key}", f"is {spec[key]}, but the covariance "
                                                  f"data have {key} {size}")
    if spec.get("seed") is not None:
        _seed_field(section, "model", "seed")
    elif kind in ("least_squares", "logistic"):
        if default_seed is None:
            raise ConfigError("model.seed", "required (no top-level seed to fall back on)")
        spec["seed"] = default_seed
    try:
        model = model_from_config(spec)
    except (KeyError, TypeError) as exc:
        raise ConfigError("model", f"missing or malformed field: {exc}")
    except ValueError as exc:
        raise ConfigError("model", str(exc))
    if model.n_agents != n_agents:
        raise ConfigError("model.n_agents", f"must match the {n_agents}-agent network")
    return model


def _build_steps(run_cfg: dict, engine: str, model: CostModel,
                 matrix: CombinationMatrix) -> StepSizes:
    rule = ENGINE_SPECS[engine].step_rule
    has_mu = "mu" in run_cfg
    has_mu_o = "mu_o" in run_cfg
    if rule == "base" and not has_mu_o:
        raise ConfigError("run.mu_o", f"{engine} tunes from mu_o; set it")
    if rule in ("base", "perron") and has_mu and has_mu_o:
        raise ConfigError("run.mu", "give either mu or mu_o, not both")
    if rule in ("base", "perron") and has_mu_o:
        mu_o = _positive(run_cfg, "run", "mu_o")
        with _failures_at("run.mu_o"):
            return StepSizes.from_weights(model.q, matrix.p, mu_o)
    if rule == "perron" and not has_mu:
        raise ConfigError("run.mu_o", "required field is missing")
    if has_mu_o:
        raise ConfigError("run.mu_o", f"{engine} takes a plain uniform mu")
    steps = StepSizes.uniform(_positive(run_cfg, "run", "mu"), model.n_agents)
    with _failures_at("run.mu"):  # a perron engine's uniform mu fits only a q proportional to p
        _validate_steps(engine, steps, model, matrix)
    return steps


def _cmd_run(cfg: dict, seed) -> dict:
    run_cfg = _section(cfg, "run")
    engine = _field(run_cfg, "run", "engine", "str")
    if engine not in ENGINES:
        raise ConfigError("run.engine", f"unknown engine {engine!r}; choose from {list(ENGINES)}")
    matrix = _build_matrix(cfg, seed, spectrum=engine == "adaptive_exact_diffusion")
    model = _build_model(cfg, matrix.n, seed)
    with _failures_at("run"):  # the engine's needs first: its steps may read p
        _check_engine(engine, model, matrix)
        steps = _build_steps(run_cfg, engine, model, matrix)
    max_iters, stop = _budget(run_cfg, "run")
    w0 = None
    if "w0_seed" in run_cfg:
        w0_seed = _seed_field(run_cfg, "run", "w0_seed")
        w0 = np.random.default_rng(w0_seed).standard_normal((model.n_agents, model.dim))
    with _failures_at("run"):
        result = run(engine, model, matrix, steps, max_iters=max_iters,
                     stop=stop, w0=w0)
    rows = ((r.iteration, r.comm_units, r.rel_error, r.grad_norm) for r in result.records)
    # a non-finite final error, which only a diverged run has, is written as
    # null so the file stays strict JSON
    rel = result.final_rel_error
    return {"trace.csv": (("iter", "comm_units", "rel_error", "grad_norm"), rows),
            "trace.json": {"status": result.status, "iterations": result.iterations,
                           "final_rel_error": rel if math.isfinite(rel) else None}}


def _cmd_scan(cfg: dict, seed) -> dict:
    scan_cfg = _section(cfg, "scan")
    engine = _field(scan_cfg, "scan", "engine", "str")
    if engine not in ENGINES:
        raise ConfigError("scan.engine", f"unknown engine {engine!r}; choose from {list(ENGINES)}")
    mu_min = _field(scan_cfg, "scan", "mu_min", "number")
    mu_max = _field(scan_cfg, "scan", "mu_max", "number")
    points = _field(scan_cfg, "scan", "points", "int", default=20)
    log_spacing = _field(scan_cfg, "scan", "log_spacing", "bool", default=False)
    max_iters, stop = _budget(scan_cfg, "scan")
    if not 0 < mu_min < mu_max:
        raise ConfigError("scan.mu_min", "need 0 < mu_min < mu_max")
    if points < 2:
        raise ConfigError("scan.points", "need at least two grid points")
    matrix = _build_matrix(cfg, seed, spectrum=engine == "adaptive_exact_diffusion")
    model = _build_model(cfg, matrix.n, seed)
    grid = (np.geomspace if log_spacing else np.linspace)(mu_min, mu_max, points)
    with _failures_at("scan"):
        result = stability_scan(engine, model, matrix, grid, max_iters=max_iters, stop=stop)
    rows = ((mu, engine, cls) for mu, cls in zip(result.mus, result.classifications))
    return {"scan.csv": (("mu", "algorithm", "status"), rows),
            "scan.json": {"engine": engine, "mu_stable": result.mu_stable,
                          "mu_unstable": result.mu_unstable, "refined": result.refined}}


def _curvature(cfg: dict, matrix: CombinationMatrix, seed):
    """(nu, delta, k_o, tau) from the optional model section; normalized
    defaults (nu = delta = 1, uniform tau) otherwise."""
    if "model" not in cfg:
        return 1.0, 1.0, 0, np.ones(matrix.n)
    model = _build_model(cfg, matrix.n, seed)
    try:
        nu, delta, k_o = hessian_bounds(model)
    except (TypeError, ValueError) as exc:
        raise ConfigError("model", str(exc))
    with np.errstate(over="ignore"):  # an overflow is refused below
        ratio = model.q / matrix.p
    if not np.isfinite(ratio).all():
        raise ConfigError("model.q", "q / p overflows: the weights are too large")
    return nu, delta, k_o, ratio / ratio.max()


def _cmd_analyze(cfg: dict, seed) -> dict:
    matrix = _build_matrix(cfg, seed, spectrum=True)
    n = matrix.n
    with _failures_at("matrix"):
        report = {
            "n_agents": n,
            "degenerate": n < 2,
            "rhoA": matrix.rhoA,
            "lambdaN": matrix.lambdaN,
            "lambda2": None if n < 2 else matrix.lambda2,
            **dict.fromkeys(["alpha_d", "alpha_e", "mu_bound_diffusion", "mu_bound_extra",
                             "closed_form_residual", "nu", "delta", "t_d_norm", "t_e_norm"]),
        }
        if n >= 2:
            nu, delta, k_o, tau = _curvature(cfg, matrix, seed)
            residual = b_spectrum_residual(matrix)
            with _failures_at("model"):  # a curvature the bounds cannot square
                d_bound = diffusion_step_bound(matrix, tau=tau, nu=nu, delta=delta, k_o=k_o)
                report.update(nu=float(nu), delta=float(delta), closed_form_residual=residual,
                              alpha_d=d_bound.alpha, mu_bound_diffusion=d_bound.mu_bound)
                if matrix.is_symmetric_doubly_stochastic:
                    e_bound = extra_step_bound(matrix, nu, delta)
                    report.update(alpha_e=e_bound.alpha, mu_bound_extra=e_bound.mu_bound,
                                  t_d_norm=d_bound.t_norm, t_e_norm=e_bound.t_norm)
    return {"analysis.json": report}


def _cmd_two_agent(cfg: dict, seed) -> dict:
    section = _section(cfg, "two_agent")
    a = _field(section, "two_agent", "a", "number")
    sigma2 = _field(section, "two_agent", "sigma2", "number")
    mu = _field(section, "two_agent", "mu", "number")
    mu_e = _field(section, "two_agent", "mu_e", "number", default=mu)
    with _failures_at("two_agent"):
        case = two_agent_case(a, sigma2, mu, mu_e)
        onset_d = two_agent_onset(a, sigma2, "exact_diffusion")
        onset_e = two_agent_onset(a, sigma2, "extra")
    return {"two_agent.json": {
        "a": float(a),
        "sigma2": float(sigma2),
        "mu_d": case.mu_d,
        "mu_e": case.mu_e,
        "specrad_diffusion": case.specrad_d,
        "specrad_extra": case.specrad_e,
        "stable_diffusion": case.stable_d,
        "stable_extra": case.stable_e,
        "roots_diffusion": [[float(r.real), float(r.imag)] for r in case.roots_d],
        "roots_extra": [[float(r.real), float(r.imag)] for r in case.roots_e],
        "onset_diffusion": onset_d,
        "onset_extra": onset_e,
    }}


_COMMANDS = {
    "run": _cmd_run,
    "stability-scan": _cmd_scan,
    "analyze": _cmd_analyze,
    "two-agent": _cmd_two_agent,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="decentopt",
        description="Simulate and analyze decentralized optimization engines.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="experiment config (JSON)")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config's top-level seed")
        p.add_argument("--jobs", type=int, default=1,
                       help="accepted for compatibility; outputs do not depend on it")
    return parser


# built once per process: parsing leaves the parser unchanged
_PARSER = _build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        _count({"--jobs": args.jobs}, "", "--jobs")
        cfg = _load_json(args.config)
        where, seed = ("--seed", args.seed) if args.seed is not None else ("seed", cfg.get("seed"))
        seed = _seed_field({} if seed is None else {where: seed}, "", where, default=None)
        _write_artifacts(Path(args.out), _COMMANDS[args.command](cfg, seed))
        return 0
    except ConfigError as exc:
        print(f"config error at {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
