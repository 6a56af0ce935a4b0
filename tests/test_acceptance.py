"""Acceptance gate: one test per headline claim, each printing a
PASS/FAIL line with the measured quantities (run with -s to see them
live)."""

import time

import numpy as np

from decentopt import (
    StepSizes,
    b_spectrum_residual,
    build_averaging,
    build_error_dynamics,
    build_metropolis,
    decompose_b,
    diffusion_step_bound,
    extra_step_bound,
    hessian_bounds,
    least_squares_model,
    logistic_model,
    matrix_from_array,
    mse_quadratic_model,
    one_step_matrix,
    random_connected_graph,
    run,
    solve_centralized,
    stability_scan,
    two_agent_onset,
)

from conftest import random_averaging, random_metropolis, random_quadratic
from oracles import (dense_x, dense_x_inv, greedy_spectrum_gap, mismatch_decay_check,
                     simulate_error_recursion, v_form)


def _report(criterion, ok, message):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {message}")
    assert ok, f"criterion {criterion}: {message}"


def _steps(engine, model, perron, mu_max):
    if engine in ("exact_diffusion", "exact_diffusion_pd", "adaptive_exact_diffusion"):
        ratio = model.q / perron.p
        return StepSizes.from_weights(model.q, perron.p, mu_max / ratio.max())
    return StepSizes.uniform(mu_max, model.n_agents)


def two_agent_matrix(a):
    return matrix_from_array(np.array([[a, 1 - a], [1 - a, a]]))


def test_criterion_1_exact_linear_convergence():
    # 20 agents, 5 coordinates, Metropolis weights, step at half the
    # theoretical bound: machine-deep convergence on a log-linear path
    t0 = time.perf_counter()
    graph = random_connected_graph(20, 0.5, seed=20)
    matrix = build_metropolis(graph)
    perron = matrix.perron
    model = least_squares_model(20, 20, 5, 40)
    gt = solve_centralized(model)
    nu, delta, k_o = hessian_bounds(model)
    bound = diffusion_step_bound(matrix, tau=None, nu=nu, delta=delta, k_o=k_o)
    steps = _steps("exact_diffusion", model, perron, bound.mu_bound / 2.0)
    res = run("exact_diffusion", model, matrix, steps, max_iters=150_000,
              stop=1e-10, ground_truth=gt)
    elapsed = time.perf_counter() - t0
    rels = np.array([r.rel_error for r in res.records])
    tail = np.log(rels[len(rels) // 2:])
    x = np.arange(len(rels) // 2, len(rels), dtype=float)
    slope, intercept = np.polyfit(x, tail, 1)
    fit = slope * x + intercept
    r2 = 1.0 - np.sum((tail - fit) ** 2) / np.sum((tail - tail.mean()) ** 2)
    ok = (res.status == "converged" and res.final_rel_error <= 1e-10
          and r2 >= 0.99 and elapsed < 5.0)
    _report(1, ok,
            f"status={res.status}, rel={res.final_rel_error:.2e} (<=1e-10), "
            f"tail-half R^2={r2:.6f} (>=0.99), {res.iterations} iters "
            f"in {elapsed:.2f}s (<5s)")


def test_criterion_2_two_agent_stability_gap():
    # at sigma^2 = 1 and a = 1/2, exact diffusion tolerates mu = 1.9 while
    # EXTRA already diverges at mu = 1.6
    t0 = time.perf_counter()
    matrix = two_agent_matrix(0.5)
    model = mse_quadratic_model(2, 1, [[[1.0]], [[1.0]]], [[0.7], [-0.3]])
    gt = solve_centralized(model)
    res_d = run("exact_diffusion", model, matrix, StepSizes.uniform(1.9, 2),
                max_iters=20_000, stop=1e-8, ground_truth=gt)
    res_e = run("extra", model, matrix, StepSizes.uniform(1.6, 2),
                max_iters=20_000, stop=1e-8, ground_truth=gt)
    elapsed = time.perf_counter() - t0
    ok = (res_d.status == "converged" and res_d.final_rel_error <= 1e-8
          and res_e.status == "diverged" and res_e.final_rel_error > 1e12
          and elapsed < 2.0)
    _report(2, ok,
            f"diffusion(mu=1.9)={res_d.status} rel={res_d.final_rel_error:.2e}, "
            f"extra(mu=1.6)={res_e.status} rel={res_e.final_rel_error:.2e}, "
            f"{elapsed:.2f}s (<2s)")


def _hundred_instances():
    rng = np.random.default_rng(100)
    for seed in range(100):
        n = int(rng.integers(2, 11))
        yield n, build_metropolis(random_connected_graph(n, 0.5, seed))


def test_criterion_3_dual_norm_closed_form():
    worst = 0.0
    for n, matrix in _hundred_instances():
        perron = matrix.perron
        # the dual factor of the V-form oracle
        v = v_form(matrix).v
        lam_max = np.linalg.eigvalsh(np.eye(n) + v @ v.T).max()
        closed = (2 * n + 1 - perron.lambdaN) / (2 * n)
        worst = max(worst, abs(lam_max - closed))
    ok = worst <= 1e-10
    _report(3, ok,
            f"max |lambda_max(I+VV^T) - (2N+1-lambda_N)/(2N)| = {worst:.2e} "
            f"(<=1e-10) over 100 symmetric doubly stochastic instances")


def test_criterion_4_coupling_norm_ordering():
    violations = 0
    checked = 0
    for n, matrix in _hundred_instances():
        d = diffusion_step_bound(matrix)
        e = extra_step_bound(matrix)
        t_d, t_e = d.t_norm, e.t_norm
        checked += 1
        if not (t_d ** 2 < t_e ** 2 and d.alpha < e.alpha
                and d.mu_bound > e.mu_bound):
            violations += 1
    ok = violations == 0 and checked == 100
    _report(4, ok,
            f"{violations} violations of ||T_d||^2 < ||T_e||^2, "
            f"alpha_d < alpha_e, mu_bound_d > mu_bound_e over {checked} instances")


def test_criterion_5_eigenstructure():
    worst_spec = 0.0
    worst_radius = 0.0
    uncovered = 0
    worst_vec = 0.0
    for seed in range(50):
        n = 3 + seed % 6
        builder = build_metropolis if seed % 2 == 0 else build_averaging
        matrix = builder(random_connected_graph(n, 0.5, seed))
        perron = matrix.perron
        dyn = build_error_dynamics(matrix)
        gap, radius = greedy_spectrum_gap(dyn), b_spectrum_residual(dyn)
        worst_spec, worst_radius = max(worst_spec, gap), max(worst_radius, radius)
        uncovered += gap > radius
        pair = decompose_b(dyn)
        r1 = np.concatenate([np.ones(n), np.zeros(n)])
        r2 = np.concatenate([np.zeros(n), np.ones(n)])
        l1 = np.concatenate([perron.p, np.zeros(n)])
        l2 = np.concatenate([np.zeros(n), np.full(n, 1.0 / n)])
        x, x_inv, b = dense_x(pair), dense_x_inv(pair), v_form(matrix).b
        worst_vec = max(
            worst_vec,
            np.abs(x[:, 0] - r1).max(),
            np.abs(x[:, 1] - r2).max(),
            np.abs(x_inv[0] - l1).max(),
            np.abs(x_inv[1] - l2).max(),
            np.abs(b @ r1 - r1).max(),
            np.abs(b @ r2 - r2).max(),
            np.abs(l1 @ b - l1).max(),
            np.abs(l2 @ b - l2).max(),
            np.abs(x_inv @ x - np.eye(2 * n)).max(),
        )
    ok = worst_radius <= 1e-8 and uncovered == 0 and worst_vec <= 1e-10
    _report(5, ok,
            f"certified spectrum radius {worst_radius:.2e} (<=1e-8), dense eigenvalue "
            f"multiset residual {worst_spec:.2e} above it on {uncovered} instances (0), "
            f"canonical vector residual {worst_vec:.2e} (<=1e-10) over "
            f"50 balanced instances")


def test_criterion_6_error_recursion_equivalence():
    worst = 0.0
    rng = np.random.default_rng(6)
    for i in range(20):
        n = 3 + i % 4
        dim = 1 + i % 3
        engine = "exact_diffusion_pd" if i % 2 == 0 else "extra"
        matrix = random_metropolis(n, seed=200 + i)
        model = random_quadratic(n, dim, seed=300 + i)
        _, delta, _ = hessian_bounds(model)
        mu = 0.4 / delta
        steps = (StepSizes.uniform(mu, n) if engine == "extra"
                 else _steps(engine, model, matrix.perron, mu))
        dyn = build_error_dynamics(matrix, model=model, steps=steps)
        lift = one_step_matrix(
            dyn, "extra" if engine == "extra" else "exact_diffusion")
        w0 = rng.standard_normal((n, dim))
        sim = simulate_error_recursion(dyn, model, steps, w0, 100, engine=engine)
        e = sim[0].reshape(-1)
        for k in range(100):
            e = lift @ e
            worst = max(worst, np.abs(e.reshape(2 * n, dim) - sim[k + 1]).max())
    ok = worst <= 1e-9
    _report(6, ok,
            f"max entrywise gap between lifted-matrix powers and direct "
            f"engine trajectories = {worst:.2e} (<=1e-9) over 20 instances "
            f"x 100 iterations")


def test_criterion_7_dual_consensus_invariant():
    worst = 0.0
    runs = 0
    rng = np.random.default_rng(7)
    cases = []
    for i in range(5):
        n = 4 + i
        cases.append(("exact_diffusion_pd",
                      random_averaging(n, seed=400 + i),
                      least_squares_model(500 + i, n, 2, 8,
                                          q=(1.0 + rng.random(n)).tolist())))
        cases.append(("extra",
                      random_metropolis(n, seed=420 + i),
                      least_squares_model(520 + i, n, 2, 8)))
    for engine, matrix, model in cases:
        n = matrix.n
        perron = matrix.perron
        mu = 0.3 / hessian_bounds(model)[1]
        res = run(engine, model, matrix, _steps(engine, model, perron, mu),
                  max_iters=400, stop=0.0, keep_iterates=True,
                  w0=rng.standard_normal((n, model.dim)))
        ys = np.array(res.dual_iterates)
        worst = max(worst, np.abs(ys.sum(axis=1)).max() / n)
        runs += 1
    ok = worst <= 1e-10
    _report(7, ok,
            f"max |1^T V y_i|/N = {worst:.2e} (<=1e-10) across {runs} "
            f"primal-dual runs started from y = 0, every iteration checked")


def test_criterion_8_terminal_gradient_stationarity():
    rng = np.random.default_rng(8)
    q_avg = (0.5 + rng.random(5)).tolist()
    avg_matrix = random_averaging(5, seed=801)
    met_matrix = random_metropolis(5, seed=802)
    cases = [
        ("exact_diffusion", avg_matrix, least_squares_model(810, 5, 2, 9, q=q_avg)),
        ("exact_diffusion_pd", avg_matrix, least_squares_model(811, 5, 2, 9, q=q_avg)),
        ("adaptive_exact_diffusion", avg_matrix,
         least_squares_model(812, 5, 2, 9, q=q_avg)),
        ("exact_diffusion", met_matrix, least_squares_model(813, 5, 2, 9)),
        ("extra", met_matrix, least_squares_model(814, 5, 2, 9)),
        ("diging", met_matrix, least_squares_model(815, 5, 2, 9)),
        ("aug_dgm", met_matrix, least_squares_model(816, 5, 2, 9)),
    ]
    worst = 0.0
    statuses = []
    for engine, matrix, model in cases:
        perron = matrix.perron
        mu = 0.3 / hessian_bounds(model)[1]
        res = run(engine, model, matrix, _steps(engine, model, perron, mu),
                  max_iters=60_000, stop=1e-22)
        statuses.append(res.status)
        worst = max(worst, res.records[-1].grad_norm)
    ok = all(s == "converged" for s in statuses) and worst <= 1e-7
    _report(8, ok,
            f"all {len(cases)} runs converged ({set(statuses)}), max terminal "
            f"||sum_k q_k grad J_k(w_bar)|| = {worst:.2e} (<=1e-7), "
            f"including nonuniform q on averaging-rule matrices")


def test_criterion_9_adaptive_tuning():
    matrix = random_averaging(5, seed=42)
    perron = matrix.perron
    rng = np.random.default_rng(9)
    model = least_squares_model(900, 5, 2, 10, q=(0.5 + rng.random(5)).tolist())
    _, delta, _ = hessian_bounds(model)
    ratio = model.q / perron.p
    steps = StepSizes.from_weights(model.q, perron.p,
                                   (0.4 / delta) / ratio.max())
    res = run("adaptive_exact_diffusion", model, matrix, steps,
              max_iters=60_000, stop=1e-8, keep_iterates=True)
    ok_run = res.status == "converged" and res.final_rel_error <= 1e-8
    ok_env, fitted = mismatch_decay_check(res.state.z_diag_history, perron.p,
                                          perron.rhoA)
    ok = ok_run and ok_env
    _report(9, ok,
            f"adaptive run {res.status} rel={res.final_rel_error:.2e} (<=1e-8); "
            f"Perron-estimate error inside the rho_A envelope at every "
            f"iteration, fitted decay {fitted:.4f} vs rho_A={perron.rhoA:.4f}")


def test_criterion_10_measured_stability_ranges():
    violations = 0
    for i in range(20):
        n = 3 + i % 4
        matrix = random_metropolis(n, seed=1000 + i)
        model = random_quadratic(n, 2, seed=1100 + i)
        _, delta, _ = hessian_bounds(model)
        grid = np.linspace(0.05 / delta, 6.0 / delta, 10)
        gt = solve_centralized(model)
        scan_d = stability_scan("exact_diffusion", model, matrix, grid,
                                max_iters=500, stop=1e-9, ground_truth=gt)
        scan_e = stability_scan("extra", model, matrix, grid,
                                max_iters=500, stop=1e-9, ground_truth=gt)
        if not (scan_d.refined and scan_e.refined
                and scan_d.mu_stable >= scan_e.mu_stable):
            violations += 1
    onset_gap = 0.0
    for a in (0.1, 0.3, 0.5, 0.7, 0.9):
        onset = two_agent_onset(a, 1.0, "extra")
        onset_gap = max(onset_gap, onset - (a + 1.0))
    ok = violations == 0 and onset_gap <= 1e-3
    _report(10, ok,
            f"{violations} ordering violations over 20 scanned instances "
            f"(diffusion range >= EXTRA range); measured EXTRA onset exceeds "
            f"(a+1)/sigma^2 by at most {onset_gap:.2e} (<=1e-3)")


def test_criterion_11_gradient_finite_differences():
    rng = np.random.default_rng(11)
    cov = [(lambda g: (g @ g.T + 0.5 * np.eye(3)).tolist())(rng.standard_normal((3, 3)))
           for _ in range(4)]
    cross = rng.standard_normal((4, 3)).tolist()
    models = [
        least_squares_model(1101, 4, 3, 9, q=[1.0, 2.0, 0.5, 1.5]),
        mse_quadratic_model(4, 3, cov, cross, q=[1.0, 1.0, 2.0, 0.5]),
        logistic_model(1102, 4, 3, 12, ridge=0.2, q=[2.0, 1.0, 1.0, 0.5]),
    ]
    worst = 0.0
    h = 1e-6
    for model in models:
        for _ in range(10):
            x = rng.standard_normal(model.dim)
            g = model.weighted_grad(x)
            fd = np.zeros(model.dim)
            for j in range(model.dim):
                e = np.zeros(model.dim)
                e[j] = h
                fd[j] = (model.q @ model.value_at(x + e)
                         - model.q @ model.value_at(x - e)) / (2 * h)
            rel = np.linalg.norm(fd - g) / max(1.0, np.linalg.norm(g))
            worst = max(worst, rel)
    ok = worst <= 1e-6
    _report(11, ok,
            f"max relative finite-difference gradient error {worst:.2e} "
            f"(<=1e-6) across 3 cost models x 10 points")
