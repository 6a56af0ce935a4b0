"""Workload definitions for the decentopt benchmark.

Every op config is generated from the workload seed alone, with the
standard library's seeded generator, so the same seed always yields
byte-identical configs.  The program sees nothing but these configs.

An op is a dict with the CLI subcommand (``command``), a short
``label`` and the JSON ``config`` handed to ``decentopt <command>``.
``build`` returns one untimed warm-up op plus the fixed op list of a
workload; ``tiny=True`` shrinks every size for the self-test.
"""

from __future__ import annotations

import random

ENGINES = (
    "exact_diffusion",
    "exact_diffusion_pd",
    "extra",
    "diging",
    "aug_dgm",
    "adaptive_exact_diffusion",
)

# Typical stability onset (largest per-agent step) of each engine on a
# 20-agent random Metropolis network (edge probability SCAN_EDGE_PROB)
# with least-squares data, M=5 and 20 samples per agent.  Each scan grid
# spans [onset / 3, 3 * onset], which brackets the onset of every drawn
# instance.
SCAN_ONSETS = {
    "exact_diffusion": 0.047,
    "exact_diffusion_pd": 0.047,
    "extra": 0.029,
    "diging": 0.010,
    "aug_dgm": 0.064,
    "adaptive_exact_diffusion": 0.047,
}
# Networks scanned per engine in one pass.  A scan's cost depends on where
# the drawn instance's onset falls in the grid; six draws per engine
# average that out, so the pass costs about the same for every seed.
SCAN_NETWORKS = 6
# Dense draws: the scan cost of the adaptive engine varies twice as much
# across sparse (p = 0.3) draws as across these.
SCAN_EDGE_PROB = 0.6

# The logistic instance is pinned: at 200k gradient-descent iterations
# the centralized solver of the seed commit stops at a residual that
# depends on the data, and about one random instance in four fails with
# ConvergenceError (see NOTES.md).  This one ends at residual 2e-10.
LOGISTIC_MODEL = {"kind": "logistic", "seed": 8, "dim": 3,
                  "samples_per_agent": 10, "ridge": 1.0}


def _seed(rng: random.Random) -> int:
    return rng.randrange(1, 2**31)


def _least_squares(rng, dim, samples):
    return {"kind": "least_squares", "seed": _seed(rng), "dim": dim,
            "samples_per_agent": samples}


def _random_graph(rng, n, prob):
    return {"kind": "random", "n": n, "edge_probability": prob, "seed": _seed(rng)}


def _op(command, label, config):
    return {"command": command, "label": label, "config": config}


def _scan_op(rng, engine, n, points):
    onset = SCAN_ONSETS[engine]
    config = {
        "graph": _random_graph(rng, n, SCAN_EDGE_PROB),
        "matrix": {"rule": "metropolis"},
        "model": _least_squares(rng, 5, 20),
        "scan": {"engine": engine, "mu_min": onset / 3.0, "mu_max": onset * 3.0,
                 "points": points, "log_spacing": True, "max_iters": 3000,
                 "stop": 1e-10},
    }
    return _op("stability-scan", f"scan/{engine}", config)


def scan_n20(rng, tiny):
    n, points, networks = (8, 4, 1) if tiny else (20, 10, SCAN_NETWORKS)
    warmup = _scan_op(rng, "exact_diffusion", n, points)
    return warmup, [_scan_op(rng, engine, n, points)
                    for _ in range(networks) for engine in ENGINES]


def _analyze_op(rng, graph, rule, label):
    config = {"graph": graph, "matrix": {"rule": rule},
              "model": _least_squares(rng, 5, 20)}
    return _op("analyze", f"analyze/{label}", config)


def _two_agent_op(rng, a):
    # the onset sweeps probe a number of steps that depends on a alone,
    # so a is fixed per op and only sigma2 and mu come from the seed
    sigma2 = round(rng.uniform(0.5, 4.0), 6)
    mu = round(rng.uniform(0.2, 1.8) / sigma2, 6)
    config = {"two_agent": {"a": a, "sigma2": sigma2, "mu": mu}}
    return _op("two-agent", f"two-agent/a={a}", config)


def analysis(rng, tiny):
    n = 8 if tiny else 100
    warmup = _analyze_op(rng, _random_graph(rng, n, 0.1), "metropolis", "warmup")
    ops = [
        _analyze_op(rng, _random_graph(rng, n, 0.1), "metropolis", "random-metropolis"),
        _analyze_op(rng, _random_graph(rng, n, 0.1), "averaging", "random-averaging"),
        _analyze_op(rng, _random_graph(rng, n, 0.05), "metropolis", "sparse-metropolis"),
        _analyze_op(rng, {"kind": "ring", "n": n}, "metropolis", "ring-metropolis"),
        _analyze_op(rng, {"kind": "path", "n": n}, "averaging", "path-averaging"),
        _analyze_op(rng, {"kind": "complete", "n": n}, "metropolis", "complete-metropolis"),
    ]
    ops += [_two_agent_op(rng, a) for a in (0.2, 0.5, 0.8)]
    return warmup, ops


def _run_op(graph, rule, model, engine, step, n, label):
    run = {"engine": engine, "max_iters": 5000, "stop": 1e-10}
    if engine in ("exact_diffusion", "exact_diffusion_pd", "adaptive_exact_diffusion"):
        # mu_k = q_k mu_o / p_k; p_k = 1/N for Metropolis, so the largest
        # step is about `step` (averaging spreads it by the degree profile)
        run["mu_o"] = step / n
    else:
        run["mu"] = step
    config = {"graph": graph, "matrix": {"rule": rule}, "model": model, "run": run}
    return _op("run", f"run/{label}/{engine}", config)


def run_n400(rng, tiny):
    # seven ops, one per engine plus exact diffusion on both rules: with an
    # odd op count the median latency falls inside one op's cluster
    n = 12 if tiny else 400
    dense = _random_graph(rng, n, 0.5 if tiny else 0.02)
    # at p = 0.006 almost every draw is disconnected, so generation spends
    # its whole 200-draw rejection budget before the spanning-chain fallback
    sparse = _random_graph(rng, n, 0.006)
    model = _least_squares(rng, 10, 20)
    warmup = _run_op(_random_graph(rng, n, 0.02), "metropolis", model,
                     "exact_diffusion", 0.003, n, "warmup")
    ops = [
        _run_op(dense, "metropolis", model, "exact_diffusion", 0.0015, n, "dense-metropolis"),
        _run_op(dense, "metropolis", model, "extra", 0.0015, n, "dense-metropolis"),
        _run_op(dense, "metropolis", model, "diging", 0.001, n, "dense-metropolis"),
        _run_op(dense, "metropolis", model, "adaptive_exact_diffusion", 0.0015, n,
                "dense-metropolis"),
        _run_op(sparse, "metropolis", model, "aug_dgm", 0.002, n, "sparse-metropolis"),
        _run_op(sparse, "averaging", model, "exact_diffusion", 0.001, n, "sparse-averaging"),
        _run_op(sparse, "averaging", model, "exact_diffusion_pd", 0.001, n,
                "sparse-averaging"),
    ]
    return warmup, ops


def _logistic_op(rng, model):
    run = {"engine": "exact_diffusion", "mu_o": 0.5 / 6, "max_iters": 5000,
           "stop": 1e-10, "w0_seed": _seed(rng)}
    config = {"graph": _random_graph(rng, 6, 0.5), "matrix": {"rule": "metropolis"},
              "model": model, "run": run}
    return _op("run", "run/logistic/exact_diffusion", config)


def logistic_n6(rng, tiny):
    model = dict(LOGISTIC_MODEL)
    if tiny:
        # an instance whose gradient descent meets its tolerance at once
        model.update(seed=4, dim=2)
    ops = [_logistic_op(rng, model) for _ in range(2)]
    # the warm-up runs least squares on the first network: a logistic op
    # costs as much as a timed op, and warm-up only has to fill first-call
    # caches (imports, BLAS and LAPACK start-up)
    config = dict(ops[0]["config"], model=_least_squares(rng, 3, 10),
                  run={"engine": "exact_diffusion", "mu_o": 0.002, "max_iters": 5000,
                       "stop": 1e-10})
    return _op("run", "run/warmup/least-squares", config), ops


WORKLOADS = {
    "scan-n20": scan_n20,
    "analysis": analysis,
    "run-n400": run_n400,
    "logistic-n6": logistic_n6,
}


def build(name: str, seed: int, tiny: bool = False):
    """(warm-up op, timed op list) of workload `name` for `seed`."""
    rng = random.Random(f"{name}:{seed}")
    return WORKLOADS[name](rng, tiny)
