"""Engine iterations: trace semantics, equivalences, fixed points, i/o."""

import json

import numpy as np
import pytest

from decentopt import (
    ENGINES,
    StepSizes,
    TraceRecord,
    compute_v,
    least_squares_model,
    matrix_from_array,
    read_trace_csv,
    run,
    solve_centralized,
    write_status_json,
    write_trace_csv,
)
from decentopt.algorithms import (
    DIVERGENCE_CAP,
    ENGINE_SPECS,
    AlgorithmState,
    RunResult,
    _engine_context,
    _EngineContext,
    init_state,
)

from conftest import random_averaging, random_metropolis, random_quadratic

WEIGHTED = ("exact_diffusion", "exact_diffusion_pd", "adaptive_exact_diffusion")


def steps_for(engine, model, perron, mu_max):
    if engine in WEIGHTED:
        ratio = model.q / perron.p
        return StepSizes.from_weights(model.q, perron.p, mu_max / ratio.max())
    return StepSizes.uniform(mu_max, model.n_agents)


# ------------------------------------------------------------- step sizes


def test_step_sizes_construction():
    q = np.array([1.0, 2.0, 1.0])
    p = np.array([0.25, 0.5, 0.25])
    s = StepSizes.from_weights(q, p, 0.1)
    assert np.abs(s.mu - 0.1 * q / p).max() <= 1e-15
    assert s.mu_o == 0.1
    u = StepSizes.uniform(0.2, 3)
    assert u.is_uniform and np.all(u.mu == 0.2)
    assert not s.is_uniform or np.ptp(s.mu) == 0


def reference_run(engine, model, matrix, steps, max_iters=4000, stop=1e-8, w0=None,
                  ground_truth=None, keep_iterates=False):
    """`run` as one unstacked loop with its own telemetry, as it was before
    `run` became a one-member stack of the loop the scans share: an
    independent oracle for that loop.  It trusts its inputs, which must
    pass `run`'s checks."""
    spec = ENGINE_SPECS[engine]
    gt = solve_centralized(model) if ground_truth is None else ground_truth
    target = gt.w_star if spec.weighted else gt.w_o
    if w0 is None:
        w0 = np.zeros((model.n_agents, model.dim))
    ctx = _engine_context(engine, model, matrix, steps)
    state = init_state(engine, model, matrix, w0)
    target_stack = np.broadcast_to(target, w0.shape)
    denom = float(np.sum((w0 - target_stack) ** 2))

    def rel_error_of(w):
        if denom == 0.0:
            return 0.0
        return float(np.sum((w - target_stack) ** 2)) / denom

    def grad_norm_of(w):
        w_bar = w.mean(axis=0)
        return float(np.linalg.norm(model.weighted_grad(w_bar)))

    records = [TraceRecord(0, 0, 1.0 if denom > 0.0 else 0.0, grad_norm_of(state.w))]
    iterates = [state.w.copy()] if keep_iterates else None
    duals = [state.y.copy()] if keep_iterates and state.y is not None else None
    status = "exhausted"
    if denom == 0.0:
        return RunResult(records=records, status="converged", state=state,
                         target=target, iterates=iterates, dual_iterates=duals)

    for i in range(1, max_iters + 1):
        spec.step(state, ctx)
        rel = rel_error_of(state.w)
        records.append(TraceRecord(i, i * spec.comm_units, rel, grad_norm_of(state.w)))
        if keep_iterates:
            iterates.append(state.w.copy())
            if duals is not None:
                duals.append(state.y.copy())
        if not np.isfinite(rel) or rel > DIVERGENCE_CAP:
            status = "diverged"
            break
        if rel <= stop:
            status = "converged"
            break

    return RunResult(records=records, status=status, state=state,
                     target=target, iterates=iterates, dual_iterates=duals)


def _same_arrays(xs, ys):
    if xs is None or ys is None:
        return xs is None and ys is None
    return len(xs) == len(ys) and all(np.array_equal(x, y) for x, y in zip(xs, ys))


@pytest.mark.parametrize("engine", ENGINES)
def test_run_matches_the_reference_loop(engine):
    """run's one-member stack reproduces the unstacked loop bit for bit:
    records, status, iterates, duals and final state, from a random w0,
    for a converging, an exhausted and a diverging step size."""
    matrix = random_averaging(6, seed=17)
    model = random_quadratic(6, 3, seed=17)
    if engine not in WEIGHTED:
        matrix = random_metropolis(6, seed=17)
    perron = matrix.perron
    w0 = np.random.default_rng(17).standard_normal((6, 3))
    gt = solve_centralized(model)
    statuses = set()
    for mu_max, max_iters in ((0.02, 20_000), (0.02, 40), (5.0, 3000)):
        steps = steps_for(engine, model, perron, mu_max)
        args = (engine, model, matrix, steps)
        kwargs = dict(max_iters=max_iters, stop=1e-12, w0=w0, ground_truth=gt,
                      keep_iterates=True)
        got, want = run(*args, **kwargs), reference_run(*args, **kwargs)
        assert got.status == want.status
        assert got.records == want.records
        assert _same_arrays(got.iterates, want.iterates)
        assert _same_arrays(got.dual_iterates, want.dual_iterates)
        for name in ("w", "psi_prev", "y", "g_prev", "z"):
            assert _same_arrays([getattr(got.state, name)], [getattr(want.state, name)]), name
        statuses.add(got.status)
    assert statuses == {"converged", "exhausted", "diverged"}


def test_run_with_a_huge_budget_stops_early():
    matrix = random_metropolis(4, seed=18)
    model = least_squares_model(21, 4, 2, 8)
    steps = StepSizes.uniform(0.01, 4)
    res = run("diging", model, matrix, steps, max_iters=2_000_000_000, stop=1e-10)
    assert res.status == "converged"
    assert res.records == run("diging", model, matrix, steps, max_iters=20_000,
                              stop=1e-10).records


# ---------------------------------------------------------- trace semantics


def test_trace_starts_at_seed_and_counts_communications():
    matrix = random_metropolis(5, seed=1)
    model = least_squares_model(4, 5, 2, 8)
    perron = matrix.perron
    for engine in ENGINES:
        res = run(engine, model, matrix, steps_for(engine, model, perron, 0.01),
                  max_iters=7, stop=0.0)
        assert res.status == "exhausted"
        assert len(res.records) == 8
        first = res.records[0]
        assert (first.iteration, first.comm_units, first.rel_error) == (0, 0, 1.0)
        for i, rec in enumerate(res.records):
            assert rec.iteration == i
            assert rec.comm_units == i * ENGINE_SPECS[engine].comm_units
            assert rec.grad_norm >= 0.0


def test_run_converges_immediately_from_the_solution():
    matrix = random_metropolis(4, seed=2)
    model = least_squares_model(5, 4, 3, 9)
    gt = solve_centralized(model)
    w0 = np.tile(gt.w_star, (4, 1))
    res = run("exact_diffusion", model, matrix,
              steps_for("exact_diffusion", model, matrix.perron, 0.01),
              w0=w0)
    assert res.status == "converged"
    assert len(res.records) == 1
    assert res.records[0].rel_error == 0.0


def test_engines_converge_and_reach_consensus():
    matrix = random_metropolis(5, seed=3)
    model = least_squares_model(6, 5, 2, 10)
    perron = matrix.perron
    gt = solve_centralized(model)
    for engine in ENGINES:
        res = run(engine, model, matrix, steps_for(engine, model, perron, 0.02),
                  max_iters=20_000, stop=1e-16, ground_truth=gt)
        assert res.status == "converged", engine
        assert res.final_rel_error <= 1e-16
        spread = np.abs(res.state.w - res.state.w.mean(axis=0)).max()
        assert spread <= 1e-7
        target = gt.w_star if engine in WEIGHTED else gt.w_o
        assert np.abs(res.state.w - target).max() <= 1e-7
        # trace rel_error values are squared-norm ratios: nonincreasing-ish
        # and ending below the stop threshold
        assert res.records[-1].rel_error <= 1e-16


def test_divergence_is_flagged():
    matrix = random_metropolis(4, seed=4)
    model = least_squares_model(7, 4, 2, 8)
    res = run("extra", model, matrix, StepSizes.uniform(50.0, 4), max_iters=5000)
    assert res.status == "diverged"
    assert res.records[-1].rel_error > 1e12 or not np.isfinite(res.records[-1].rel_error)


def test_max_iters_one_is_exhausted():
    matrix = random_metropolis(4, seed=5)
    model = least_squares_model(8, 4, 2, 8)
    res = run("diging", model, matrix, StepSizes.uniform(1e-4, 4), max_iters=1)
    assert res.status == "exhausted"
    assert len(res.records) == 2
    assert res.iterations == 1


def test_keep_iterates_and_duals():
    matrix = random_metropolis(4, seed=6)
    model = least_squares_model(9, 4, 2, 8)
    perron = matrix.perron
    res = run("exact_diffusion_pd", model, matrix,
              steps_for("exact_diffusion_pd", model, perron, 0.01),
              max_iters=12, stop=0.0, keep_iterates=True)
    assert len(res.iterates) == len(res.records) == len(res.dual_iterates)
    res2 = run("exact_diffusion", model, matrix,
               steps_for("exact_diffusion", model, perron, 0.01),
               max_iters=12, stop=0.0, keep_iterates=True)
    assert res2.dual_iterates is None
    res3 = run("exact_diffusion", model, matrix,
               steps_for("exact_diffusion", model, perron, 0.01),
               max_iters=12, stop=0.0)
    assert res3.iterates is None


# ------------------------------------------------------------ equivalences


def test_exact_diffusion_equals_its_primal_dual_form():
    matrix = random_averaging(6, seed=7)
    model = least_squares_model(10, 6, 3, 9, q=[1.0, 2.0, 0.5, 1.0, 1.5, 1.0])
    perron = matrix.perron
    steps = StepSizes.from_weights(model.q, perron.p, 0.002)
    a = run("exact_diffusion", model, matrix, steps, max_iters=300, stop=0.0,
            keep_iterates=True)
    b = run("exact_diffusion_pd", model, matrix, steps, max_iters=300, stop=0.0,
            keep_iterates=True)
    gap = max(np.abs(x - y).max() for x, y in zip(a.iterates, b.iterates))
    assert gap <= 1e-9


def test_first_step_is_combine_of_gradient_step():
    matrix = random_metropolis(5, seed=8)
    model = least_squares_model(11, 5, 2, 8)
    perron = matrix.perron
    steps = steps_for("exact_diffusion", model, perron, 0.05)
    rng = np.random.default_rng(0)
    w0 = rng.standard_normal((5, 2))
    res = run("exact_diffusion", model, matrix, steps, max_iters=1, stop=0.0,
              keep_iterates=True)
    # default w0 is zeros; redo with explicit start for the identity
    res = run("exact_diffusion", model, matrix, steps, max_iters=1, stop=0.0,
              w0=w0, keep_iterates=True)
    abar = (np.eye(5) + matrix.a) / 2.0
    expect = abar.T @ (w0 - steps.mu[:, None] * model.grad(w0))
    assert np.abs(res.iterates[1] - expect).max() <= 1e-13


def test_adaptive_first_step_uses_self_weights():
    matrix = random_averaging(5, seed=9)
    model = least_squares_model(12, 5, 2, 8)
    perron9 = matrix.perron
    steps = StepSizes.from_weights(model.q, perron9.p, 0.003)
    res = run("adaptive_exact_diffusion", model, matrix, steps, max_iters=2,
              stop=0.0)
    # after one combine the mixing estimate is diag(A), so the tuned step
    # is q_k mu_o / a_kk on the first iteration
    hist = res.state.z_diag_history
    assert np.abs(hist[0] - np.diag(matrix.a)).max() <= 1e-15
    perron = matrix.perron
    assert np.abs(hist[-1] - perron.p).max() < np.abs(hist[0] - perron.p).max()


# ------------------------------------------------------------ fixed points


def build_ctx(engine, model, matrix, steps):
    perron = matrix.perron
    ctx = _EngineContext(model=model, a=matrix.a,
                         abar=(np.eye(matrix.n) + matrix.a) / 2.0, steps=steps)
    if engine in ("exact_diffusion_pd", "extra"):
        vm = compute_v(matrix)
        ctx.v = vm.v
        ctx.pinv_v = vm.v / perron.p[:, np.newaxis]
    return ctx


def test_fixed_point_residency_all_engines():
    matrix = random_metropolis(5, seed=10)
    model = random_quadratic(5, 2, seed=10)
    perron = matrix.perron
    gt = solve_centralized(model)
    w_star = np.tile(gt.w_star, (5, 1))
    w_o = np.tile(gt.w_o, (5, 1))
    g_star = model.grad(w_star)
    g_o = model.grad(w_o)
    steps = StepSizes.from_weights(model.q, perron.p, 0.01 / 5)
    uni = StepSizes.uniform(0.01, 5)
    vm = compute_v(matrix)
    pinv_v = np.linalg.pinv(vm.v)
    abar = (np.eye(5) + matrix.a) / 2.0

    states = {
        "exact_diffusion": AlgorithmState(
            w=w_star.copy(), psi_prev=w_star - steps.mu[:, None] * g_star),
        "exact_diffusion_pd": AlgorithmState(
            w=w_star.copy(),
            y=-pinv_v @ (perron.p[:, None] * (abar.T @ (steps.mu[:, None] * g_star)))),
        "extra": AlgorithmState(
            w=w_o.copy(), y=-(uni.mu[0] / 5.0) * (pinv_v @ g_o)),
        "diging": AlgorithmState(w=w_o.copy(), y=np.zeros((5, 2)), g_prev=g_o),
        "aug_dgm": AlgorithmState(w=w_o.copy(), y=np.zeros((5, 2)), g_prev=g_o),
        "adaptive_exact_diffusion": AlgorithmState(
            w=w_star.copy(), psi_prev=w_star - steps.mu[:, None] * g_star,
            z=np.outer(np.ones(5), perron.p)),
    }
    for engine, state in states.items():
        s = steps if engine in WEIGHTED else uni
        if engine == "adaptive_exact_diffusion":
            s = StepSizes(mu=steps.mu, mu_o=steps.mu_o)
        ctx = build_ctx(engine, model, matrix, s)
        w_ref = state.w.copy()
        ENGINE_SPECS[engine].step(state, ctx)
        assert np.abs(state.w - w_ref).max() <= 1e-12, engine


# -------------------------------------------------------------- validation


def test_engine_and_shape_validation():
    matrix = random_metropolis(4, seed=11)
    model = least_squares_model(13, 4, 2, 8)
    steps = StepSizes.uniform(0.01, 4)
    with pytest.raises(ValueError):
        run("sgd", model, matrix, steps)
    with pytest.raises(ValueError):
        run("diging", model, random_metropolis(5, seed=1), steps)
    with pytest.raises(ValueError):
        run("diging", model, matrix, StepSizes.uniform(0.01, 5))
    with pytest.raises(ValueError):
        run("diging", model, matrix, steps, w0=np.zeros((3, 2)))
    with pytest.raises(ValueError):
        run("diging", model, matrix, steps, max_iters=0)


def test_uniform_aggregate_engines_reject_nonuniform_q():
    matrix = random_metropolis(3, seed=12)
    model = least_squares_model(14, 3, 2, 8, q=[1.0, 2.0, 1.0])
    for engine in ("extra", "diging", "aug_dgm"):
        with pytest.raises(ValueError):
            run(engine, model, matrix, StepSizes.uniform(0.01, 3))


def test_asymmetric_doubly_stochastic_matrix_rules():
    # circulant: doubly stochastic but neither symmetric nor balanced
    a = np.array([[0.5, 0.3, 0.2], [0.2, 0.5, 0.3], [0.3, 0.2, 0.5]])
    matrix = matrix_from_array(a)
    model = least_squares_model(15, 3, 2, 8)
    perron = matrix.perron
    with pytest.raises(ValueError):
        run("extra", model, matrix, StepSizes.uniform(0.01, 3))
    with pytest.raises(ValueError):
        run("exact_diffusion", model, matrix,
            StepSizes.from_weights(model.q, perron.p, 0.01 / 3))
    res = run("diging", model, matrix, StepSizes.uniform(0.02, 3),
              max_iters=20_000, stop=1e-14)
    assert res.status == "converged"


def test_weighted_engines_enforce_step_invariant():
    matrix = random_averaging(4, seed=13)
    model = least_squares_model(16, 4, 2, 8)
    bad = StepSizes(mu=np.array([0.01, 0.02, 0.01, 0.01]), mu_o=None)
    with pytest.raises(ValueError):
        run("exact_diffusion", model, matrix, bad)


def test_extra_and_diging_need_uniform_steps():
    matrix = random_metropolis(4, seed=14)
    model = least_squares_model(17, 4, 2, 8)
    bad = StepSizes(mu=np.array([0.01, 0.02, 0.01, 0.01]), mu_o=None)
    for engine in ("extra", "diging"):
        with pytest.raises(ValueError):
            run(engine, model, matrix, bad)


def test_adaptive_validation():
    matrix = random_averaging(4, seed=15)
    model = least_squares_model(18, 4, 2, 8)
    with pytest.raises(ValueError):
        run("adaptive_exact_diffusion", model, matrix,
            StepSizes(mu=np.full(4, 0.01), mu_o=None))
    zero_diag = matrix_from_array(np.array(
        [[0.0, 0.5, 0.5], [0.5, 0.25, 0.25], [0.5, 0.25, 0.25]]))
    model3 = least_squares_model(18, 3, 2, 8)
    with pytest.raises(ValueError):
        run("adaptive_exact_diffusion", model3, zero_diag,
            StepSizes(mu=np.full(3, 0.001), mu_o=0.001))


def test_raw_array_matrix_is_accepted():
    a = np.array([[0.5, 0.5], [0.5, 0.5]])
    model = least_squares_model(19, 2, 2, 8)
    res = run("extra", model, a, StepSizes.uniform(0.05, 2), max_iters=5000,
              stop=1e-10)
    assert res.status == "converged"


# --------------------------------------------------------------------- io


def test_trace_csv_round_trip(tmp_path):
    records = [
        TraceRecord(0, 0, 1.0, 0.123456789123456789),
        TraceRecord(1, 2, 0.5, 9.87e-13),
        TraceRecord(2, 4, 1.0 / 3.0, np.pi),
    ]
    path = tmp_path / "trace.csv"
    write_trace_csv(path, records)
    text = path.read_text().splitlines()
    assert text[0] == "iter,comm_units,rel_error,grad_norm"
    back = read_trace_csv(path)
    assert back == records  # %.17g round-trips doubles exactly


def test_status_json(tmp_path):
    matrix = random_metropolis(4, seed=16)
    model = least_squares_model(20, 4, 2, 8)
    res = run("extra", model, matrix, StepSizes.uniform(0.01, 4),
              max_iters=20_000, stop=1e-10)
    path = tmp_path / "trace.json"
    write_status_json(path, res)
    payload = json.loads(path.read_text())
    assert payload == {
        "status": "converged",
        "iterations": res.iterations,
        "final_rel_error": res.final_rel_error,
    }
