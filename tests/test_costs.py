"""Cost models, centralized solutions, and curvature bounds."""

import numpy as np
import pytest

from decentopt import (
    ConvergenceError,
    LeastSquaresModel,
    LogisticModel,
    MSEQuadraticModel,
    QuadraticModel,
    hessian_bounds,
    least_squares_model,
    logistic_model,
    model_from_config,
    mse_quadratic_model,
    solve_centralized,
)


# ------------------------------------------------------------ least squares


def test_scalar_least_squares_oracle():
    # single agent, J(w) = 0.5 (2w - 4)^2: minimizer 2, gradient at 0 is -8
    model = LeastSquaresModel(np.array([[[2.0]]]), np.array([[4.0]]))
    gt = solve_centralized(model)
    assert abs(gt.w_star[0] - 2.0) <= 1e-12
    assert abs(gt.w_o[0] - 2.0) <= 1e-12
    assert gt.solver_residual <= 1e-10
    assert abs(model.grad_at(np.zeros(1))[0, 0] + 8.0) <= 1e-12
    assert abs(model.value_at(np.array([2.0]))[0]) <= 1e-12
    assert abs(model.value_at(np.zeros(1))[0] - 8.0) <= 1e-12


def test_grad_matches_grad_at_on_common_point():
    model = least_squares_model(3, 4, 3, 10)
    x = np.arange(3.0)
    w = np.tile(x, (4, 1))
    assert np.abs(model.grad(w) - model.grad_at(x)).max() <= 1e-12


def test_least_squares_solution_solves_normal_equations():
    model = least_squares_model(7, 5, 3, 12, q=[1.0, 2.0, 0.5, 1.5, 1.0])
    gt = solve_centralized(model)
    assert np.linalg.norm(model.weighted_grad(gt.w_star)) <= 1e-8
    # w_o is the uniform-weight solution
    grads = model.grad_at(gt.w_o)
    assert np.linalg.norm(grads.sum(axis=0)) <= 1e-8


def test_weighted_grad_is_the_q_weighted_sum_of_agent_gradients():
    model = least_squares_model(4, 6, 3, 10, q=[1.0, 2.0, 0.5, 1.5, 1.0, 3.0])
    rng = np.random.default_rng(4)
    for _ in range(5):
        x = rng.standard_normal(3)
        want = model.q @ model.grad_at(x)
        assert np.abs(model.weighted_grad(x) - want).max() <= 1e-12 * np.abs(want).max()


# -------------------------------------------------------------- quadratics


def test_quadratic_model_gradients_and_hessians():
    h = np.array([np.diag([1.0, 2.0]), np.diag([3.0, 0.5])])
    b = np.array([[1.0, 0.0], [0.0, 1.0]])
    model = QuadraticModel(h, b)
    x = np.array([2.0, -1.0])
    expect = np.einsum("kij,j->ki", h, x) - b
    assert np.abs(model.grad_at(x) - expect).max() <= 1e-14
    assert np.abs(model.hessians() - h).max() == 0.0


@pytest.mark.parametrize("shape", [(), (1,), (7,)])
def test_quadratic_grad_on_a_block_and_on_a_stack(shape):
    """grad of an (N, M) block and of an agent-major (N, B, M) stack is
    h[k] @ w[k] - b[k] agent by agent, also for a Hessian that is not
    symmetric."""
    rng = np.random.default_rng(5)
    n, m = 6, 4
    h = rng.standard_normal((n, m, m))
    model = QuadraticModel(h, rng.standard_normal((n, m)))
    w = rng.standard_normal((n,) + shape + (m,))
    got = model.grad(w)
    assert got.shape == w.shape
    for index in np.ndindex(shape):
        for k in range(n):
            want = h[k] @ w[k][index] - model.b[k]
            assert np.abs(got[k][index] - want).max() <= 1e-14 * (1.0 + np.abs(want).max())


@pytest.mark.parametrize("shape", [(), (1,), (7,)])
def test_logistic_grad_on_a_block_and_on_a_stack(shape):
    """grad of an (N, M) block and of an agent-major (N, B, M) stack is
    agent k's gradient at its own point w[k], member by member."""
    rng = np.random.default_rng(6)
    n, m = 5, 3
    model = logistic_model(6, n, m, 8, 0.5)
    w = rng.standard_normal((n,) + shape + (m,))
    got = model.grad(w)
    assert got.shape == w.shape
    for index in np.ndindex(shape):
        for k in range(n):
            want = model.grad_at(w[k][index])[k]
            assert np.abs(got[k][index] - want).max() <= 1e-14 * (1.0 + np.abs(want).max())


@pytest.mark.parametrize("kind", ["quadratic", "logistic"])
def test_grad_keeps_the_shape_of_blocks_and_stacks(kind):
    """grad returns its input's shape for an (N, M) block and for an (N, B, M)
    or (N, B*M) stack; a one-member stack gives the block's gradient bit for
    bit, and each member of a wider stack its own block's gradient within
    1e-15 relative."""
    rng = np.random.default_rng(7)
    n, m = 6, 4
    model = (QuadraticModel(rng.standard_normal((n, m, m)), rng.standard_normal((n, m)))
             if kind == "quadratic" else logistic_model(7, n, m, 8, 0.5))
    for b in (1, 5):
        members = [rng.standard_normal((n, m)) for _ in range(b)]
        want = [model.grad(w) for w in members]
        assert all(g.shape == (n, m) for g in want)
        stack = np.stack(members, axis=1)
        for w in (stack, stack.reshape(n, b * m)):
            got = model.grad(w)
            assert got.shape == w.shape
            got = got.reshape(n, b, m)
            for k in range(b):
                if b == 1:
                    assert np.array_equal(got[:, k], want[k])
                scale = np.abs(want[k]).max()
                assert np.abs(got[:, k] - want[k]).max() <= 1e-15 * scale


def test_mse_quadratic_requires_symmetry():
    bad = [[[1.0, 0.2], [0.0, 1.0]]]
    with pytest.raises(ValueError):
        MSEQuadraticModel(bad, [[0.0, 0.0]])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_model_weights_must_be_positive_and_finite(bad):
    # q.min() <= 0 let NaN through: extra then failed with "aggregate
    # Hessian is not positive definite (smallest eigenvalue nan)"
    with pytest.raises(ValueError, match="q must be a positive finite"):
        QuadraticModel(np.ones((4, 1, 1)), np.zeros((4, 1)), q=[bad, 1.0, 1.0, 1.0])


@pytest.mark.parametrize("n_agents, dim", [(9, 4), (3, 1), (2, 4)])
def test_mse_quadratic_sizes_must_match_the_data(n_agents, dim):
    # both sizes used to be ignored: (9, 4) on 2-agent, 1-D data gave a
    # 2-agent, 1-D model
    with pytest.raises(ValueError, match="covariance data hold 2 agents of dimension 1"):
        mse_quadratic_model(n_agents, dim, [[[1.0]], [[1.0]]], [[0.7], [-0.3]])


def test_hessian_bounds_quadratic_oracle():
    # agent 0 spectrum {1, 2}, agent 1 spectrum {3, 1/2}: nu is the best
    # per-agent floor (agent 0, value 1) and delta the global ceiling 3
    model = mse_quadratic_model(
        2, 2,
        [np.diag([1.0, 2.0]).tolist(), np.diag([3.0, 0.5]).tolist()],
        [[0.0, 0.0], [0.0, 0.0]],
    )
    nu, delta, k_o = hessian_bounds(model)
    assert (nu, delta, k_o) == (1.0, 3.0, 0)


def test_hessian_bounds_tie_breaks_on_first_agent():
    model = mse_quadratic_model(
        2, 2,
        [np.diag([1.0, 5.0]).tolist(), np.diag([1.0, 3.0]).tolist()],
        [[0.0, 0.0], [0.0, 0.0]],
    )
    assert hessian_bounds(model)[2] == 0


def test_hessian_bounds_rejects_flat_costs():
    model = mse_quadratic_model(
        2, 2,
        [np.diag([1.0, 0.0]).tolist(), np.diag([0.0, 1.0]).tolist()],
        [[0.0, 0.0], [0.0, 0.0]],
    )
    with pytest.raises(ValueError):
        hessian_bounds(model)


# ---------------------------------------------------------------- logistic


def test_logistic_gradient_finite_difference():
    model = logistic_model(5, 3, 4, 9, ridge=0.1)
    rng = np.random.default_rng(2)
    for _ in range(5):
        x = rng.standard_normal(4)
        g = model.weighted_grad(x)
        fd = np.zeros(4)
        h = 1e-6
        for j in range(4):
            e = np.zeros(4)
            e[j] = h
            fd[j] = (model.q @ model.value_at(x + e)
                     - model.q @ model.value_at(x - e)) / (2 * h)
        assert np.linalg.norm(fd - g) <= 1e-6 * max(1.0, np.linalg.norm(g))


def test_logistic_centralized_solution_is_stationary():
    model = logistic_model(8, 3, 3, 20, ridge=0.2, q=[2.0, 1.0, 0.5])
    gt = solve_centralized(model)
    assert np.linalg.norm(model.weighted_grad(gt.w_star)) <= 1e-8
    grads = model.grad_at(gt.w_o)
    assert np.linalg.norm(grads.sum(axis=0)) <= 1e-8


@pytest.mark.parametrize("args", [(1, 10, 3, 20, 0.5), (3, 6, 3, 10, 1.0)])
def test_logistic_solver_meets_tolerance_on_hard_instances(args):
    # both instances stopped above gradient norm 1e-8 after 200k
    # gradient-descent iterations
    model = logistic_model(*args)
    gt = solve_centralized(model)
    assert gt.solver_residual <= 1e-12
    assert np.linalg.norm(model.weighted_grad(gt.w_star)) <= 1e-12


def test_logistic_weighted_solution_meets_tolerance():
    model = logistic_model(8, 3, 3, 20, ridge=0.2, q=[2.0, 1.0, 0.5])
    gt = solve_centralized(model)
    assert gt.solver_residual <= 1e-12
    assert np.linalg.norm(model.weighted_grad(gt.w_star)) <= 1e-12
    assert np.linalg.norm(model.grad_at(gt.w_o).sum(axis=0)) <= 1e-12
    assert np.abs(gt.w_star - gt.w_o).max() > 1e-3  # w_o solved separately


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_logistic_solver_fails_on_a_nan_objective():
    # the backtracking line search used to halve its step forever
    model = logistic_model(3, 4, 2, 5, ridge=1.0)
    features = model.features.copy()
    features[1, 2, 0] = np.nan
    with pytest.raises(ConvergenceError):
        solve_centralized(LogisticModel(features, model.labels, 1.0))


def test_logistic_hessian_bounds():
    model = logistic_model(4, 3, 4, 10, ridge=0.3)
    nu, delta, k_o = hessian_bounds(model)
    assert nu == 0.3
    assert delta > nu
    assert k_o == 0


# ------------------------------------------------------------- validation


def test_q_must_be_positive_and_sized():
    with pytest.raises(ValueError):
        least_squares_model(0, 3, 2, 5, q=[1.0, -1.0, 1.0])
    with pytest.raises(ValueError):
        least_squares_model(0, 3, 2, 5, q=[1.0, 1.0])


def test_factories_are_seeded():
    a = least_squares_model(11, 4, 3, 6)
    b = least_squares_model(11, 4, 3, 6)
    c = least_squares_model(12, 4, 3, 6)
    assert np.array_equal(a.u, b.u) and np.array_equal(a.d, b.d)
    assert not np.array_equal(a.u, c.u)
    la = logistic_model(11, 3, 2, 6, ridge=0.1)
    lb = logistic_model(11, 3, 2, 6, ridge=0.1)
    assert np.array_equal(la.features, lb.features)
    assert np.array_equal(la.labels, lb.labels)
    assert set(np.unique(la.labels)) <= {-1.0, 1.0}


def test_model_from_config_round_trips():
    ls = model_from_config({"kind": "least_squares", "seed": 3, "n_agents": 4,
                            "dim": 2, "samples_per_agent": 7})
    direct = least_squares_model(3, 4, 2, 7)
    assert np.array_equal(ls.u, direct.u)

    lg = model_from_config({"kind": "logistic", "seed": 3, "n_agents": 3,
                            "dim": 2, "samples_per_agent": 7, "ridge": 0.5,
                            "q": [1.0, 2.0, 3.0]})
    assert isinstance(lg, LogisticModel)
    assert lg.ridge == 0.5 and lg.q.tolist() == [1.0, 2.0, 3.0]

    mq = model_from_config({"kind": "mse_quadratic", "n_agents": 1, "dim": 1,
                            "covariances": [[[2.0]]], "cross_vectors": [[1.0]]})
    assert isinstance(mq, MSEQuadraticModel)
    assert abs(solve_centralized(mq).w_star[0] - 0.5) <= 1e-12

    with pytest.raises(ValueError):
        model_from_config({"kind": "nope"})


def test_rank_deficient_quadratic_is_rejected():
    # five unknowns, one sample on each of two agents: rank-2 aggregate
    model = least_squares_model(5, 2, 5, 1, q=[1.0, 3.0])
    with pytest.raises(ConvergenceError, match="not positive definite"):
        solve_centralized(model)
    # the floor is relative: a uniformly tiny but well-conditioned
    # aggregate still solves
    tiny = mse_quadratic_model(2, 2, [np.diag([1e-20, 2e-20]).tolist()] * 2,
                               [[1e-20, 0.0], [0.0, 1e-20]])
    assert np.allclose(solve_centralized(tiny).w_star, [0.5, 0.25])


@pytest.mark.parametrize("covariances, cross_vectors", [
    ([[[np.nan]], [[1.0]]], [[0.7], [-0.3]]),
    ([[[1.0]], [[1.0]]], [[np.nan], [-0.3]]),
])
def test_quadratic_solver_fails_on_nan_data(covariances, cross_vectors):
    # every comparison with NaN is false, so a NaN ground truth used to
    # pass both the definiteness and the residual check
    model = mse_quadratic_model(2, 1, covariances, cross_vectors)
    with pytest.raises(ConvergenceError):
        solve_centralized(model)


def test_mse_quadratic_weighted_solution():
    # minimizer of sum q_k (0.5 w R_k w - r_k w) is (sum q R)^{-1} sum q r
    model = mse_quadratic_model(2, 1, [[[1.0]], [[3.0]]], [[1.0], [0.0]],
                                q=[2.0, 1.0])
    gt = solve_centralized(model)
    assert abs(gt.w_star[0] - 2.0 / 5.0) <= 1e-12
    assert abs(gt.w_o[0] - 1.0 / 4.0) <= 1e-12
