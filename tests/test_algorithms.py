"""Engine iterations: trace semantics, equivalences, fixed points."""

import functools
import tracemalloc
import warnings

import numpy as np
import pytest

from decentopt import (
    ENGINES,
    CombinationMatrix,
    QuadraticModel,
    StepSizes,
    build_averaging,
    build_metropolis,
    least_squares_model,
    matrix_from_array,
    random_connected_graph,
    run,
    solve_centralized,
)
from decentopt.algorithms import (
    CHECK_BLOCK,
    DIVERGENCE_CAP,
    ENGINE_SPECS,
    AlgorithmState,
    _iterate,
    _lookback,
    init_state,
)
from decentopt import graphs
from decentopt.stability import (_steps_for, b_spectrum_residual, diffusion_step_bound,
                                  extra_step_bound, stability_scan)

from conftest import random_averaging, random_metropolis, random_quadratic
from oracles import power_iteration_diagonals, reference_run, symmetric_root

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


@pytest.mark.parametrize("mu", [[], [[0.1, 0.2]], [0.1, 0.0], [0.1, np.nan]])
def test_step_sizes_must_be_a_positive_finite_vector(mu):
    # an empty vector used to raise numpy's "zero-size array to reduction
    # operation minimum which has no identity"
    with pytest.raises(ValueError, match="step sizes must be a positive finite vector"):
        StepSizes(mu)


def test_overflowing_weighted_steps_are_a_value_error():
    # q mu_o / p used to overflow with numpy's "overflow encountered in
    # divide" before the finiteness check raised
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="finite"):
            StepSizes.from_weights(np.ones(6), np.full(6, 1.0 / 6.0), 1e308)


@pytest.mark.parametrize("q, p", [([1, 1], [0.5, 0.0]), ([0, 1], [0, 1])])
def test_weighted_steps_over_a_zero_weight_are_a_value_error(q, p):
    # q / 0 and 0 / 0 used to warn "divide by zero" and "invalid value"
    # before the finiteness check raised
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="finite"):
            StepSizes.from_weights(q, p, 0.1)


@pytest.mark.parametrize("engine", ENGINES)
def test_run_matches_the_reference_loop(engine):
    """run's one-member stack, checked once per CHECK_BLOCK iterations,
    reproduces the unstacked loop checked after every step bit for bit:
    records, status and final iterate, from a random w0, for a converging,
    an exhausted and a diverging step size, for budgets of 1, 15, 16, 17
    and 33, and for exits on the first and on the last row of a block."""
    matrix = random_averaging(6, seed=17)
    model = random_quadratic(6, 3, seed=17)
    if engine not in WEIGHTED:
        matrix = random_metropolis(6, seed=17)
    perron = matrix.perron
    w0 = np.random.default_rng(17).standard_normal((6, 3))
    gt = solve_centralized(model)
    trace = [r.rel_error for r in reference_run(
        engine, model, matrix, steps_for(engine, model, perron, 0.02), max_iters=40, stop=0.0,
        w0=w0, ground_truth=gt).records]
    # a stop first crossed on iteration t, for t on a block's first or last row
    exits = [t for t in (1, 16, 17, 32) if trace[t] < min(trace[:t])]
    assert {1, 16} <= set(exits)
    cases = [(0.02, 20_000, 1e-12), (0.02, 40, 1e-12), (5.0, 3000, 1e-12)]
    cases += [(0.02, budget, 1e-12) for budget in (1, 15, 16, 17, 33)]
    cases += [(0.02, 40, trace[t]) for t in exits]
    statuses, exited = set(), []
    for mu_max, max_iters, stop in cases:
        steps = steps_for(engine, model, perron, mu_max)
        args = (engine, model, matrix, steps)
        kwargs = dict(max_iters=max_iters, stop=stop, w0=w0, ground_truth=gt)
        got, want = run(*args, **kwargs), reference_run(*args, **kwargs)
        assert got.status == want.status
        assert got.records == want.records
        assert np.array_equal(got.w, want.w)
        statuses.add(got.status)
        if stop > 1e-12:
            exited.append((got.status, got.iterations))
    assert statuses == {"converged", "exhausted", "diverged"}
    assert exited == [("converged", t) for t in exits]


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


def test_a_start_whose_error_underflows_is_rejected():
    """With w0 = 0 and a target of 1e-200, ||w0 - w*||^2 underflows to 0:
    `run` used to call that start converged at iteration 0, and a scan every
    step size stable.  Both raise ValueError now, and w0 = w* exactly still
    converges at iteration 0."""
    n, m = 4, 2
    model = QuadraticModel(np.tile(np.eye(m), (n, 1, 1)), np.full((n, m), 1e-200))
    matrix = random_metropolis(n, seed=2)
    steps = steps_for("exact_diffusion", model, matrix.perron, 0.1)
    with pytest.raises(ValueError, match="underflows to 0"):
        run("exact_diffusion", model, matrix, steps)
    with pytest.raises(ValueError, match="underflows to 0"):
        stability_scan("exact_diffusion", model, matrix, [0.1, 1.0])
    w_star = solve_centralized(model).w_star
    assert 0.0 < np.abs(w_star).min()
    res = run("exact_diffusion", model, matrix, steps, w0=np.tile(w_star, (n, 1)))
    assert (res.status, res.iterations, res.final_rel_error) == ("converged", 0, 0.0)


def test_a_start_whose_error_overflows_is_rejected():
    """||w0 - w*||^2 past the largest double is inf: `run` from 1e160 used to
    diverge at iteration 1, on a step that converges from 1e150.  It raises
    ValueError now, with no warning, and so does a non-finite w0."""
    matrix = random_metropolis(6, seed=3)
    model = least_squares_model(6, 6, 2, 10)
    steps = steps_for("exact_diffusion", model, matrix.perron, 0.02)
    res = run("exact_diffusion", model, matrix, steps, max_iters=20_000,
              w0=np.full((6, 2), 1e150))
    assert res.status == "converged"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for w0 in (np.full((6, 2), 1e160), np.full((6, 2), np.inf), np.full((6, 2), np.nan)):
            with pytest.raises(ValueError, match="overflows or is not finite"):
                run("exact_diffusion", model, matrix, steps, w0=w0)


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
        spread = np.abs(res.w - res.w.mean(axis=0)).max()
        assert spread <= 1e-7
        target = gt.w_star if engine in WEIGHTED else gt.w_o
        assert np.abs(res.w - target).max() <= 1e-7
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


# ------------------------------------------------------------ equivalences


def test_exact_diffusion_equals_its_primal_dual_form():
    matrix = random_averaging(6, seed=7)
    model = least_squares_model(10, 6, 3, 9, q=[1.0, 2.0, 0.5, 1.0, 1.5, 1.0])
    perron = matrix.perron
    steps = StepSizes.from_weights(model.q, perron.p, 0.002)
    a = reference_run("exact_diffusion", model, matrix, steps, max_iters=300, stop=0.0)
    b = reference_run("exact_diffusion_pd", model, matrix, steps, max_iters=300, stop=0.0)
    gap = max(np.abs(x - y).max() for x, y in zip(a.iterates, b.iterates))
    assert gap <= 1e-9


def test_first_step_is_combine_of_gradient_step():
    matrix = random_metropolis(5, seed=8)
    model = least_squares_model(11, 5, 2, 8)
    perron = matrix.perron
    steps = steps_for("exact_diffusion", model, perron, 0.05)
    rng = np.random.default_rng(0)
    w0 = rng.standard_normal((5, 2))
    res = reference_run("exact_diffusion", model, matrix, steps, max_iters=1, stop=0.0)
    # default w0 is zeros; redo with explicit start for the identity
    res = reference_run("exact_diffusion", model, matrix, steps, max_iters=1, stop=0.0,
                        w0=w0)
    abar = (np.eye(5) + matrix.a) / 2.0
    expect = abar.T @ (w0 - steps.mu[:, None] * model.grad(w0))
    assert np.abs(res.iterates[1] - expect).max() <= 1e-13


def test_adaptive_first_step_uses_self_weights():
    matrix = random_averaging(5, seed=9)
    model = least_squares_model(12, 5, 2, 8)
    perron9 = matrix.perron
    steps = StepSizes.from_weights(model.q, perron9.p, 0.003)
    res = reference_run("adaptive_exact_diffusion", model, matrix, steps, max_iters=2,
                        stop=0.0)
    # after one combine the mixing estimate is diag(A), so the tuned step
    # is q_k mu_o / a_kk on the first iteration
    hist = res.perron_estimates
    assert np.abs(hist[0] - np.diag(matrix.a)).max() <= 1e-15
    perron = matrix.perron
    assert np.abs(hist[-1] - perron.p).max() < np.abs(hist[0] - perron.p).max()


@pytest.mark.parametrize("build", [build_metropolis, build_averaging])
@pytest.mark.parametrize("n, prob", [(5, 0.6), (60, 0.6), (400, 0.02), (400, 0.006)])
def test_adaptive_estimates_match_the_power_iteration(build, n, prob):
    """The estimates (U o U) lam^i from one eigendecomposition match the
    power iteration diag((A^T)^i) within 1e-13 over 500 steps, on the dense
    path (N = 5, 60) and the CSR path (N = 400)."""
    matrix = build(random_connected_graph(n, prob, seed=4))
    assert _is_csr(matrix._a_t_op) == (n == 400)
    model = random_quadratic(n, 2, seed=4)
    steps = StepSizes.from_weights(model.q, matrix.perron.p, 1e-4)
    res = reference_run("adaptive_exact_diffusion", model, matrix, steps, max_iters=500,
                        stop=0.0)
    assert res.status == "exhausted"
    want = power_iteration_diagonals(matrix.a, 500)
    assert np.abs(np.array(res.perron_estimates) - want).max() <= 1e-13


# ------------------------------------------------------------ fixed points


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
    v = symmetric_root(matrix)
    pinv_v = np.linalg.pinv(v)
    abar = (np.eye(5) + matrix.a) / 2.0

    states = {
        "exact_diffusion": AlgorithmState(
            w=w_star.copy(), psi_prev=w_star - steps.mu[:, None] * g_star),
        # the primal-dual engines carry z = V y: seed z* = V y*
        "exact_diffusion_pd": AlgorithmState(
            w=w_star.copy(),
            y=v @ (-pinv_v @ (perron.p[:, None] * (abar.T @ (steps.mu[:, None] * g_star))))),
        "extra": AlgorithmState(
            w=w_o.copy(), y=v @ (-(uni.mu[0] / 5.0) * (pinv_v @ g_o))),
        "diging": AlgorithmState(w=w_o.copy(), y=np.zeros((5, 2)), g_prev=g_o),
        "aug_dgm": AlgorithmState(w=w_o.copy(), y=np.zeros((5, 2)), g_prev=g_o),
        "adaptive_exact_diffusion": AlgorithmState(
            w=w_star.copy(), psi_prev=w_star - steps.mu[:, None] * g_star,
            z=np.eye(5)[-1]),  # converged powers lam^i = e_N: only the unit mode is left
    }
    for engine, state in states.items():
        s = steps if engine in WEIGHTED else uni
        if engine == "adaptive_exact_diffusion":
            s = StepSizes(mu=steps.mu, mu_o=steps.mu_o)
        _, ctx = init_state(engine, model, matrix, state.w, s)
        w_ref = state.w.copy()
        ENGINE_SPECS[engine].step(state, ctx)
        assert np.abs(state.w - w_ref).max() <= 1e-12, engine


# ---------------------------------------------------------- combine paths


def _is_csr(op):
    """Whether a combine operator is A's CSR form, not the dense array."""
    return not isinstance(op, np.ndarray)


@pytest.mark.parametrize("n, prob, sparse", [(20, 0.6, False), (100, 0.1, False),
                                             (400, 0.02, True), (400, 0.006, True)])
def test_combine_path_follows_network_size_and_density(n, prob, sparse):
    for build in (build_metropolis, build_averaging):
        matrix = build(random_connected_graph(n, prob, seed=3))
        ops = (matrix._a_t_op, matrix._abar_t_op, matrix._abar_op, matrix._dual_op)
        assert [_is_csr(op) for op in ops] == [sparse] * 4


def test_a_sparse_run_builds_only_the_operators_its_engine_applies(monkeypatch):
    """On a 400-agent sparse network a run, and a stacked scan, converts to
    CSR only what its step applies: Abar^T (the exact diffusion engines),
    A^T (the tracking engines), with S as well for the primal-dual engines,
    and Abar for extra."""
    built = []
    operator = CombinationMatrix._operator

    def counted(self, *args, **kwargs):
        op = operator(self, *args, **kwargs)
        if _is_csr(op):
            built.append(op)
        return op

    monkeypatch.setattr(CombinationMatrix, "_operator", counted)
    graph = random_connected_graph(400, 0.02, seed=3)
    model = least_squares_model(3, 400, 2, 4)
    gt = solve_centralized(model)
    want = {"exact_diffusion": 1, "adaptive_exact_diffusion": 1, "diging": 1, "aug_dgm": 1,
            "exact_diffusion_pd": 2, "extra": 2}
    for engine in ENGINES:
        matrix, built[:] = build_metropolis(graph), []
        steps = steps_for(engine, model, matrix.perron, 1e-3)
        run(engine, model, matrix, steps, max_iters=5, stop=0.0, ground_truth=gt)
        assert len(built) == want[engine], engine
        matrix, built[:] = build_metropolis(graph), []
        stability_scan(engine, model, matrix, [1e-4, 1e-3], max_iters=5, ground_truth=gt,
                       refine=False)
        assert len(built) == want[engine], engine


def test_the_sparse_run_path_holds_no_dense_array(monkeypatch):
    """At N = 2000 a Metropolis matrix, its CSR Abar^T and 32 exact
    diffusion iterations stay below the memory of one dense N x N array; the
    adaptive engine and the analysis then build the dense A once, and share it."""
    n = 2000
    graph = random_connected_graph(n, 0.005, seed=11)
    model = least_squares_model(3, n, 2, 4)
    gt = solve_centralized(model)
    built = []
    dense = graphs._EdgeForm.dense.func

    def counted(self):
        built.append(self.graph.n)
        return dense(self)

    cached = functools.cached_property(counted)
    cached.__set_name__(graphs._EdgeForm, "dense")
    monkeypatch.setattr(graphs._EdgeForm, "dense", cached)
    tracemalloc.start()
    try:
        matrix = build_metropolis(graph)
        assert _is_csr(matrix._abar_t_op)
        steps = steps_for("exact_diffusion", model, matrix.perron, 1e-3)
        result = run("exact_diffusion", model, matrix, steps, max_iters=32, stop=0.0,
                     ground_truth=gt)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.iterations == 32 and built == []
    assert peak < np.dtype(float).itemsize * n * n
    run("adaptive_exact_diffusion", model, matrix, steps, max_iters=2, ground_truth=gt)
    matrix.perron.rhoA
    diffusion_step_bound(matrix)
    extra_step_bound(matrix)
    b_spectrum_residual(matrix)
    assert built == [n]


def _on_path(matrix, sparse, monkeypatch):
    """A fresh copy of matrix whose combines take the CSR path (sparse)
    or the dense one, whatever its size and density."""
    monkeypatch.setattr(graphs, "SPARSE_MIN_AGENTS", 1 if sparse else matrix.n + 1)
    monkeypatch.setattr(graphs, "SPARSE_MAX_DENSITY", 1.0)
    copy = CombinationMatrix(matrix.a, matrix.graph)
    assert _is_csr(copy._a_t_op) == sparse  # chosen while patched
    return copy


def _close(got, want):
    """Two lists of arrays agree within 1e-12 of want's largest entry."""
    scale = max(np.abs(y).max() for y in want)
    return len(got) == len(want) and all(
        x.shape == y.shape and np.abs(x - y).max() <= 1e-12 * scale for x, y in zip(got, want))


def _combine_setup(engine, seed=21):
    matrix = (random_averaging if engine in WEIGHTED else random_metropolis)(12, seed=seed)
    model = random_quadratic(12, 3, seed=seed)
    w0 = np.random.default_rng(seed).standard_normal((12, 3))
    return matrix, model, solve_centralized(model), w0


@pytest.mark.parametrize("engine", ENGINES)
def test_dense_and_csr_combines_agree(engine, monkeypatch):
    """Both combine paths give the same statuses and iteration counts, for
    a run and for every member of a stack, with states within 1e-12
    relative at every iteration."""
    matrix, model, gt, w0 = _combine_setup(engine)
    paths = (_on_path(matrix, False, monkeypatch), _on_path(matrix, True, monkeypatch))
    for mu_max, max_iters in ((0.02, 20_000), (0.02, 40)):
        steps = steps_for(engine, model, matrix.perron, mu_max)
        want, got = (reference_run(engine, model, m, steps, max_iters=max_iters, stop=1e-12,
                                   w0=w0, ground_truth=gt) for m in paths)
        assert (got.status, got.iterations) == (want.status, want.iterations)
        assert _close(got.iterates, want.iterates)
        if want.dual_iterates is not None:
            assert _close(got.dual_iterates, want.dual_iterates)
        for name in ("psi_prev", "g_prev", "z"):
            if getattr(want.state, name) is not None:
                assert _close([getattr(got.state, name)], [getattr(want.state, name)]), name

    steps_list = [steps_for(engine, model, matrix.perron, mu) for mu in (0.005, 0.02, 5.0)]
    runs = []
    for m in paths:
        states = []
        statuses, verdicts = _iterate(engine, model, m, steps_list, 300, 1e-10, gt, w0,
                                      lambda ws, rels: states.extend(w.copy() for w in ws))
        runs.append((statuses, verdicts, states))
    (want_statuses, want_verdicts, want), (got_statuses, got_verdicts, got) = runs
    assert (got_statuses, got_verdicts) == (want_statuses, want_verdicts)
    assert {"converged", "diverged"} <= set(got_statuses)
    assert len(got) == len(want)
    assert all(_close([x], [y]) for x, y in zip(got, want))  # members leave together


def _member(block, k, dim):
    """Member k's (N, M) block of an agent-major (N, B*M) stack: columns
    k*M to (k+1)*M."""
    return block[:, k * dim:(k + 1) * dim]


@pytest.mark.parametrize("engine", ENGINES)
def test_csr_scan_member_matches_its_one_member_run(engine, monkeypatch):
    matrix, model, gt, w0 = _combine_setup(engine, seed=22)
    csr = _on_path(matrix, True, monkeypatch)
    steps_list = [steps_for(engine, model, matrix.perron, mu) for mu in (0.005, 0.01, 0.02)]
    statuses, _ = _iterate(engine, model, csr, steps_list, 80, 0.0, gt, w0)
    ws, rels = [], []
    _iterate(engine, model, csr, steps_list, 80, 0.0, gt, w0,
             lambda block, rel: (ws.extend(block), rels.extend(rel.copy())))
    for k, steps in enumerate(steps_list):
        res = run(engine, model, csr, steps, max_iters=80, stop=0.0, w0=w0, ground_truth=gt)
        assert res.status == statuses[k] == "exhausted"
        want = reference_run(engine, model, csr, steps, max_iters=80, stop=0.0, w0=w0,
                             ground_truth=gt).iterates
        assert len(ws) == len(want) == 81
        assert all(np.array_equal(x, _member(w, k, model.dim)) for x, w in zip(want, ws))
        assert np.array_equal(res.w, _member(ws[-1], k, model.dim))
        # a member's error sums its own N M entries in a row, as its run does
        assert [r.rel_error for r in res.records] == [rel[k] for rel in rels]


@pytest.mark.parametrize("engine", ENGINES)
def test_dense_scan_member_matches_its_one_member_run(engine):
    """On the dense path one combine is one product over the whole stack,
    which may round a member's entries in their last bits unlike its own
    run's products: each member still has its run's status, and its iterate
    at every iteration is within 1e-12 of the run's, relative."""
    # N = 20 and M = 5, the scan benchmark's shape, where the wide product
    # does round differently from the per-member ones
    matrix = (random_averaging if engine in WEIGHTED else random_metropolis)(20, seed=22)
    model = random_quadratic(20, 5, seed=22)
    gt, w0 = solve_centralized(model), np.random.default_rng(22).standard_normal((20, 5))
    assert not _is_csr(matrix._a_t_op)
    mus = (0.002, 0.005, 0.01, 0.015, 0.02)
    steps_list = [steps_for(engine, model, matrix.perron, mu) for mu in mus]
    ws = []
    statuses, _ = _iterate(engine, model, matrix, steps_list, 80, 0.0, gt, w0,
                           lambda block, rels: ws.extend(block))
    for k, steps in enumerate(steps_list):
        res = run(engine, model, matrix, steps, max_iters=80, stop=0.0, w0=w0, ground_truth=gt)
        assert res.status == statuses[k] == "exhausted"
        want = reference_run(engine, model, matrix, steps, max_iters=80, stop=0.0, w0=w0,
                             ground_truth=gt).iterates
        assert len(ws) == len(want) == 81
        for w, x in zip(ws, want):
            got = _member(w, k, model.dim)
            assert np.abs(got - x).max() <= 1e-12 * np.abs(x).max()


@pytest.mark.parametrize("engine", ENGINES)
def test_a_member_near_the_onset_is_classified_alike_beside_any_stack_mates(engine):
    """A step size just below (0.999x) and just above (1.003x) the scan's
    onset gets the same status and verdict alone, in a two-member stack with
    the other, and at two column positions of a 31-member stack."""
    matrix, model, gt, _ = _combine_setup(engine, seed=28)
    max_iters, stop = 1500, 1e-10
    scan = stability_scan(engine, model, matrix, np.geomspace(0.001, 2.0, 12), max_iters, stop,
                          ground_truth=gt, rel_tol=1e-4)
    assert scan.refined
    onset = 0.5 * (scan.mu_stable + scan.mu_unstable)
    near = [_steps_for(engine, model, matrix, f * onset) for f in (0.999, 1.003)]
    mates = [_steps_for(engine, model, matrix, mu)
             for mu in np.geomspace(onset / 3.0, 3.0 * onset, 30)]

    def outcomes(steps_list, columns):
        statuses, verdicts = _iterate(engine, model, matrix, steps_list, max_iters, stop, gt)
        return [(statuses[c], verdicts[c]) for c in columns]

    alone = [outcomes([steps], [0])[0] for steps in near]
    assert [verdict for _, verdict in alone] == ["stable", "unstable"]
    assert outcomes(near, [0, 1]) == alone
    for k, steps in enumerate(near):
        for column in (3, 27):
            stack = mates[:column] + [steps] + mates[column:]
            assert outcomes(stack, [column]) == [alone[k]]


# ------------------------------------------------------- primal-dual steps


def _dense_v_step(engine, state, ctx, v, p):
    """One step of exact_diffusion_pd or extra with an explicit dual y and
    the dense factor V, as the paper writes them."""
    if engine == "exact_diffusion_pd":
        state.w = (ctx.matrix._abar_t_op @ (state.w - ctx.mu * ctx.model.grad(state.w))
                   - (v / p) @ state.y)
    else:
        n = ctx.model.n_agents
        state.w = (ctx.matrix._abar_op @ state.w - ctx.mu * ctx.model.grad(state.w)
                   - n * (v @ state.y))
    state.y = state.y + v @ state.w


@pytest.mark.parametrize("sparse", [False, True])
@pytest.mark.parametrize("engine", ["exact_diffusion_pd", "extra"])
def test_v_free_steps_match_the_dense_v_step(engine, sparse, monkeypatch):
    """Carrying z = V y through S = V^2 reproduces the dense-V step on both
    operator paths: over 50 iterations from a random (w, y), w and z agree
    with the reference's w and V y within 1e-12 of the trajectory's scale."""
    matrix, model, gt, w0 = _combine_setup(engine, seed=23)
    matrix = _on_path(matrix, sparse, monkeypatch)
    assert _is_csr(matrix._dual_op) == sparse
    steps = steps_for(engine, model, matrix.perron, 0.02)
    _, ctx = init_state(engine, model, matrix, w0, steps)
    p = matrix.perron.p[:, np.newaxis]
    half = (np.diag(p[:, 0]) - matrix.a * p.T) / 2.0  # (P - A P)/2, built here from A and p
    sigma, u = np.linalg.eigh((half + half.T) / 2.0)
    v = (u * np.sqrt(np.clip(sigma, 0.0, None))) @ u.T
    y0 = np.random.default_rng(23).standard_normal(w0.shape)
    ours, ref = AlgorithmState(w=w0.copy(), y=v @ y0), AlgorithmState(w=w0.copy(), y=y0)
    got_w, got_z, want_w, want_z = [], [], [], []
    for _ in range(50):
        ENGINE_SPECS[engine].step(ours, ctx)
        _dense_v_step(engine, ref, ctx, v, p)
        got_w.append(ours.w.copy())
        got_z.append(ours.y.copy())
        want_w.append(ref.w.copy())
        want_z.append(v @ ref.y)
    assert _close(got_w, want_w)
    assert _close(got_z, want_z)


@pytest.mark.parametrize("engine", ["exact_diffusion_pd", "extra"])
def test_primal_dual_runs_never_build_v(engine):
    # V lives only in the error blocks, which no run or scan builds
    matrix, model, gt, w0 = _combine_setup(engine, seed=24)
    steps = steps_for(engine, model, matrix.perron, 0.02)
    run(engine, model, matrix, steps, max_iters=50, stop=0.0, w0=w0, ground_truth=gt)
    _iterate(engine, model, matrix, [steps, steps], 50, 0.0, gt, w0)
    assert "_error_blocks" not in matrix.__dict__


# ------------------------------------------------------------ stack exits


def _per_step(stop, on_step):
    """A block record for `_iterate` that calls on_step(rel) once per
    iteration, seed included, with the errors of the members that have not
    exited on an earlier iteration: what a stack checked after every step
    would show."""
    def record(ws, rels):
        done = ~(rels <= DIVERGENCE_CAP) | (rels <= stop)
        for rel, gone in zip(rels, np.cumsum(done, axis=0) - done > 0):
            on_step(rel[~gone])
    return record


def _stepwise_outcome(engine, model, matrix, steps, max_iters, stop, gt, w0):
    """(status, verdict) of the reference loop, which checks after every
    step, with the exhausted rule applied to its trace."""
    res = reference_run(engine, model, matrix, steps, max_iters=max_iters, stop=stop, w0=w0,
                        ground_truth=gt)
    if res.status == "exhausted":
        earlier = res.records[max_iters - _lookback(max_iters)].rel_error
        return res.status, "stable" if res.final_rel_error <= earlier else "unstable"
    return res.status, "unstable" if res.status == "diverged" else "stable"


def _separate_outcomes(engine, model, matrix, steps_list, max_iters, stop, gt, w0):
    """(status, verdict) of a one-member `run` per step size."""
    out = []
    for steps in steps_list:
        (status,), (verdict,) = _iterate(engine, model, matrix, [steps], max_iters, stop, gt,
                                         w0)
        assert run(engine, model, matrix, steps, max_iters=max_iters, stop=stop, w0=w0,
                   ground_truth=gt).status == status
        out.append((status, verdict))
    return out


@pytest.mark.parametrize("engine", ["exact_diffusion", "extra", "diging"])
def test_stack_keeps_running_past_a_member_that_overflows(engine):
    """Members whose error turns inf or NaN at once leave the stack as
    diverged; the others run on to the verdicts separate runs give."""
    matrix, model, gt, w0 = _combine_setup(engine, seed=25)
    steps_list = [steps_for(engine, model, matrix.perron, mu)
                  for mu in (0.005, 1e200, 0.02, 1e308, 5.0)]
    trace = []
    statuses, verdicts = _iterate(engine, model, matrix, steps_list, 300, 1e-10, gt, w0,
                                  lambda ws, rels: trace.extend(rels.copy()))
    separate = _separate_outcomes(engine, model, matrix, steps_list, 300, 1e-10, gt, w0)
    first = trace[1]
    assert not np.isfinite(first[1]) and not np.isfinite(first[3])
    assert np.isfinite(first[[0, 2, 4]]).all()
    assert list(zip(statuses, verdicts)) == separate
    assert statuses[1] == statuses[3] == "diverged"
    assert "diverged" not in (statuses[0], statuses[2])
    assert _iterate(engine, model, matrix, steps_list, 300, 1e-10, gt, w0) == (
        statuses, verdicts)


@pytest.mark.parametrize("engine", ENGINES)
def test_a_run_that_overflows_is_diverged_without_warnings(engine):
    # warnings are errors here: one overflowing step used to raise
    # "RuntimeWarning: overflow encountered in square" instead of a verdict
    matrix, model, gt, w0 = _combine_setup(engine, seed=25)
    steps = steps_for(engine, model, matrix.perron, 1e200)
    result = run(engine, model, matrix, steps, max_iters=50, w0=w0, ground_truth=gt)
    assert result.status == "diverged"
    assert not np.isfinite(result.final_rel_error)


def test_adaptive_stack_matches_separate_runs():
    """Three adaptive members share one power vector z: each still gets the
    status, verdict and exit iteration of its own run."""
    engine = "adaptive_exact_diffusion"
    matrix, model, gt, w0 = _combine_setup(engine, seed=27)
    steps_list = [steps_for(engine, model, matrix.perron, mu) for mu in (0.002, 0.02, 5.0)]
    sizes = []
    statuses, verdicts = _iterate(engine, model, matrix, steps_list, 300, 1e-10, gt, w0,
                                  _per_step(1e-10, lambda rel: sizes.append(rel.size)))
    assert list(zip(statuses, verdicts)) == _separate_outcomes(
        engine, model, matrix, steps_list, 300, 1e-10, gt, w0)
    assert set(statuses) == {"converged", "exhausted", "diverged"}
    assert _iterate(engine, model, matrix, steps_list, 300, 1e-10, gt, w0) == (
        statuses, verdicts)
    # members alive on iteration i and gone on i + 1 exited on iteration i
    exits = [i for i in range(1, len(sizes))
             for _ in range(sizes[i] - (sizes[i + 1] if i + 1 < len(sizes) else 0))]
    runs = [run(engine, model, matrix, steps, max_iters=300, stop=1e-10, w0=w0,
                ground_truth=gt) for steps in steps_list]
    assert exits == sorted(r.iterations for r in runs)


def test_stack_handles_a_convergence_and_a_divergence_on_one_iteration():
    """One member crosses `stop` on the very iteration another crosses the
    divergence cap, while a third runs on: each gets the status and verdict
    of its own run."""
    engine = "diging"
    matrix, model, gt, w0 = _combine_setup(engine, seed=26)
    steps_list = [steps_for(engine, model, matrix.perron, mu) for mu in (0.02, 0.2, 0.0005)]
    trace = []
    _iterate(engine, model, matrix, steps_list, 60, 0.0, gt, w0,
             _per_step(0.0, lambda rel: trace.append(rel.copy())))
    # the iteration the fast member diverges on, and a stop the converging
    # member first crosses on that same iteration
    blowup = next(i for i, rel in enumerate(trace) if rel.size < 3 or rel[1] > DIVERGENCE_CAP)
    assert trace[blowup].size == 3 and 2 <= blowup < len(trace) - 1
    stop = trace[blowup][0]
    assert all(rel[0] > stop for rel in trace[:blowup])
    exits = []
    statuses, verdicts = _iterate(engine, model, matrix, steps_list, 60, stop, gt, w0,
                                  _per_step(stop, lambda rel: exits.append(rel.size)))
    assert statuses == ["converged", "diverged", "exhausted"]
    assert exits[blowup] == 3 and exits[blowup + 1] == 1
    separate = _separate_outcomes(engine, model, matrix, steps_list, 60, stop, gt, w0)
    assert list(zip(statuses, verdicts)) == separate
    assert blowup % CHECK_BLOCK  # inside a checked block
    assert _iterate(engine, model, matrix, steps_list, 60, stop, gt, w0) == (
        statuses, verdicts)


@pytest.mark.parametrize("max_iters", [37, 300])
def test_record_free_stack_classifies_like_a_recorded_one(max_iters):
    """The stack checks its errors once per CHECK_BLOCK iterations, with a
    shortened last block and the lookback snapshot inside a block, and a
    record changes no outcome.  A member that turns inf inside a block
    steps on to its end while the others go on, and every member still
    gets the status and verdict the reference loop, checked on every step,
    gives it, and the status of its own run."""
    engine = "extra"
    matrix, model, gt, w0 = _combine_setup(engine, seed=26)
    steps_list = [steps_for(engine, model, matrix.perron, mu)
                  for mu in (0.0005, 0.02, 0.08, 0.15, 1e150)]
    assert max_iters % CHECK_BLOCK and (max_iters - _lookback(max_iters)) % CHECK_BLOCK
    state, ctx = init_state(engine, model, matrix, w0, steps_list[-1])
    finite = []
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(CHECK_BLOCK):
            ENGINE_SPECS[engine].step(state, ctx)
            finite.append(bool(np.isfinite(state.w).all()))
    assert finite[0] and not finite[-1]  # finite after one step, not after a block

    blocked = _iterate(engine, model, matrix, steps_list, max_iters, 1e-10, gt, w0)
    recorded = _iterate(engine, model, matrix, steps_list, max_iters, 1e-10, gt, w0,
                        lambda ws, rels: None)
    assert blocked == recorded
    stepwise = [_stepwise_outcome(engine, model, matrix, steps, max_iters, 1e-10, gt, w0)
                for steps in steps_list]
    assert list(zip(*blocked)) == stepwise
    runs = [run(engine, model, matrix, steps, max_iters=max_iters, stop=1e-10, w0=w0,
                ground_truth=gt) for steps in steps_list]
    assert blocked[0] == [r.status for r in runs] == {
        37: ["exhausted", "exhausted", "exhausted", "diverged", "diverged"],
        300: ["exhausted", "converged", "diverged", "diverged", "diverged"]}[max_iters]
    # at 37 the third member is exhausted and unstable: its error grew since the snapshot
    assert blocked[1] == ["stable", "stable", "unstable", "unstable", "unstable"]
    # some members exit inside a block
    assert any(r.status != "exhausted" and r.iterations % CHECK_BLOCK for r in runs)


def test_record_free_stack_takes_each_status_at_the_first_exit():
    """A member whose error crosses `stop` on the first step and the
    divergence cap later in the same block is converged, as in its own run:
    its status is read where it first exits, not at the block's end."""
    engine = "diging"
    matrix, model, gt, w0 = _combine_setup(engine, seed=26)
    steps = [steps_for(engine, model, matrix.perron, 0.5)]
    trace = []
    _iterate(engine, model, matrix, steps, CHECK_BLOCK, 0.0, gt, w0,
             _per_step(0.0, lambda rel: trace.append(rel[0])))
    assert len(trace) - 1 < CHECK_BLOCK and not trace[-1] <= DIVERGENCE_CAP
    stop = trace[1]
    assert run(engine, model, matrix, steps[0], max_iters=CHECK_BLOCK, stop=stop, w0=w0,
               ground_truth=gt).status == "converged"
    assert _iterate(engine, model, matrix, steps, CHECK_BLOCK, stop, gt, w0) == (
        ["converged"], ["stable"])


@pytest.mark.parametrize("engine, mu_growing", [("extra", 0.08),
                                                ("adaptive_exact_diffusion", 0.22)])
def test_record_free_stack_converges_on_the_exact_budget(engine, mu_growing):
    """A member whose own run converges on iteration t, inside a block,
    converges in a record-free stack with max_iters = t and is exhausted
    with t - 1; beside it, a member whose error grows is exhausted and
    unstable on its own final error."""
    matrix, model, gt, w0 = _combine_setup(engine, seed=26)
    steps_list = [steps_for(engine, model, matrix.perron, mu) for mu in (0.05, mu_growing)]
    first = run(engine, model, matrix, steps_list[0], max_iters=300, stop=1e-10, w0=w0,
                ground_truth=gt)
    t = first.iterations
    assert first.status == "converged" and t % CHECK_BLOCK
    for budget, status in ((t, "converged"), (t - 1, "exhausted")):
        assert _iterate(engine, model, matrix, steps_list, budget, 1e-10, gt, w0) == (
            [status, "exhausted"], ["stable", "unstable"])


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


@pytest.mark.parametrize("stop", [np.nan, -1.0, np.inf])
def test_stop_must_be_finite_and_nonnegative(stop):
    # NaN and negative stops used to report exhausted runs that had converged
    matrix = random_metropolis(4, seed=11)
    model = least_squares_model(13, 4, 2, 8)
    steps = StepSizes.uniform(0.01, 4)
    with pytest.raises(ValueError, match="stop"):
        run("diging", model, matrix, steps, stop=stop)
    with pytest.raises(ValueError, match="stop"):
        _iterate("diging", model, matrix, [steps, steps], 10, stop, None)
    assert run("diging", model, matrix, steps, max_iters=5, stop=0.0).iterations == 5


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

