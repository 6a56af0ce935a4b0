"""Error dynamics, eigenstructure, step-size bounds, two-agent closed
forms, adaptive mismatch decay, and grid scans."""

import json
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from decentopt import (
    Graph,
    MSEQuadraticModel,
    QuadraticModel,
    SpectralError,
    StepSizes,
    TraceRecord,
    b_spectrum_residual,
    build_averaging,
    build_error_dynamics,
    build_metropolis,
    decompose_b,
    diffusion_step_bound,
    exact_radius,
    extra_step_bound,
    hessian_bounds,
    least_squares_model,
    logistic_model,
    matrix_from_array,
    mse_quadratic_model,
    one_step_matrix,
    random_connected_graph,
    solve_centralized,
    stability_scan,
    two_agent_case,
    two_agent_onset,
)
from decentopt import algorithms, graphs, stability
from decentopt.algorithms import ENGINES, run
from decentopt.cli import main

from conftest import random_averaging, random_metropolis, random_quadratic
from oracles import (classify_run, dense_x, dense_x_inv, dual_factor, greedy_spectrum_gap,
                     mismatch_decay_check, predicted_b_spectrum, simulate_error_recursion,
                     symmetric_root, v_form, v_form_one_step)
from test_algorithms import reference_run


def two_agent_matrix(a):
    return matrix_from_array(np.array([[a, 1 - a], [1 - a, a]]))


# -------------------------------------------------------- dynamics blocks


def test_b_matrix_block_structure():
    """The one-step map is B_z - T_z diag(mu_k H_k, 0) in the engines' (w, z)
    coordinates: at mu = 0 it is B_z = [[Abar^T, -P^{-1}], [S Abar^T,
    I - S P^{-1}]], and with H_k = 1 its first N columns lose T_z's,
    [Abar^T; S Abar^T] for exact diffusion and [I; S] for extra."""
    # the averaging rule's p is not uniform, so P^{-1} is no multiple of I
    matrix = random_averaging(5, seed=0)
    n, p, s = 5, matrix.perron.p, matrix.v_squared
    assert np.ptp(p) > 1e-3
    model = QuadraticModel(h=np.ones((n, 1, 1)), b=np.zeros((n, 1)))
    dyn = build_error_dynamics(matrix, model=model)
    abar = (np.eye(n) + matrix.a) / 2.0
    expect = np.block([
        [abar.T, -np.diag(1.0 / p)],
        [s @ abar.T, np.eye(n) - s @ np.diag(1.0 / p)],
    ])
    for engine, g in (("exact_diffusion", abar.T), ("extra", np.eye(n))):
        b_z = one_step_matrix(dyn, engine, mu=0.0)
        assert np.abs(b_z - expect).max() <= 1e-14
        t_z = b_z - one_step_matrix(dyn, engine, mu=1.0)
        assert np.abs(t_z[:, :n] - np.vstack([g, s @ g])).max() <= 1e-14
        assert not t_z[:, n:].any()


def test_closed_form_spectrum_matches_b():
    for seed in range(5):
        for builder in (random_metropolis, random_averaging):
            matrix = builder(4 + seed % 3, seed)
            radius = b_spectrum_residual(matrix)
            assert greedy_spectrum_gap(matrix) <= radius <= 1e-8
            # magnitudes agree as sorted multisets too
            predicted = np.sort(np.abs(predicted_b_spectrum(matrix)))
            actual = np.sort(np.abs(np.linalg.eigvals(v_form(matrix).b)))
            assert np.abs(predicted - actual).max() <= 1e-8


def test_spectrum_residual_handles_repeated_eigenvalues():
    # star graphs give Abar spectra with high multiplicity; the oracle's
    # matcher must not trip over conjugate-pair orderings
    star = Graph(4, frozenset((0, k) for k in range(1, 4)))
    matrix = build_averaging(star)
    assert greedy_spectrum_gap(matrix) <= b_spectrum_residual(matrix) <= 1e-8


def _criterion_10_ensemble():
    return [random_metropolis(3 + i % 4, seed=1000 + i) for i in range(20)]


def _fixed_topologies():
    return [builder(network(n)) for network in (ring_graph, path_graph, complete_graph)
            for n in (3, 10, 50) for builder in (build_metropolis, build_averaging)]


@pytest.mark.parametrize("ensemble", [_criterion_10_ensemble, _fixed_topologies])
def test_certified_radius_covers_the_dense_spectrum(ensemble):
    """The certificate's radius is at least the greedy gap between the
    dense eigvals(B) and the closed form, on random networks and on
    rings, paths and complete graphs, whose spectra repeat eigenvalues."""
    for matrix in ensemble():
        radius = b_spectrum_residual(matrix)
        assert greedy_spectrum_gap(matrix) <= radius <= 1e-8


def test_certificate_bounds_its_dense_pieces():
    """The pair's residual is at least ||B X - X D||_F and the radius at
    least ||X^{-1}||_2 times it, with X and X^{-1} built densely."""
    for matrix in _fixed_topologies()[::3] + _criterion_10_ensemble()[:4]:
        pair = decompose_b(matrix)
        x, x_inv = dense_x(pair), dense_x_inv(pair)
        assert np.linalg.norm(v_form(matrix).b @ x - x * pair.d) <= pair.residual
        assert np.linalg.norm(x_inv, 2) * pair.residual <= b_spectrum_residual(matrix)


def _spectral_radius(q):
    return float(np.abs(np.linalg.eigvals(q)).max())


def test_dual_factor_matches_the_symmetric_root():
    """The oracle's factor V (`oracles.dual_factor`) has V V^T = S and
    V 1 = 0, and is the symmetric root on doubly stochastic matrices.  Its
    B and the root's B have one spectrum within the certified radius and
    the same T norms.  For both factors, `one_step_matrix` Q_z in the
    engines' (w, z) coordinates intertwines with the V form Q_V,
    Q_z L = L Q_V for L = diag(I, V) (x) I_M, and has its spectral radius,
    on random networks and on rings, paths and stars."""
    networks = (_criterion_10_ensemble() + [random_averaging(n, seed=n) for n in (2, 10, 50)]
                + [builder(network(n)) for network in (ring_graph, path_graph, star_graph)
                   for n in (2, 10, 50) for builder in (build_metropolis, build_averaging)])
    for matrix in networks:
        n, m = matrix.n, 2
        dyn = build_error_dynamics(matrix, model=random_quadratic(n, m, seed=n))
        form, root = v_form(matrix), v_form(matrix, symmetric_root(matrix))
        v = form.v
        assert np.abs(v @ v.T - matrix.v_squared).max() <= 1e-14
        assert np.linalg.norm(v @ np.ones(n)) <= 1e-12
        if matrix.is_doubly_stochastic:
            assert np.abs(v - root.v).max() <= 1e-12
        radius = b_spectrum_residual(matrix)
        assert greedy_spectrum_gap(matrix) <= radius
        assert greedy_spectrum_gap(matrix, root.b) <= radius
        t_d_norm = matrix._error_blocks.t_d_norm
        assert t_d_norm == pytest.approx(np.linalg.norm(root.t_d, 2), rel=1e-12)
        if matrix.is_symmetric_doubly_stochastic:
            assert abs(t_d_norm - 1.0) <= 1e-14
            t_e_norm = extra_step_bound(matrix).t_norm
            for t_e in (form.t_e, root.t_e):
                assert t_e_norm == pytest.approx(np.linalg.norm(t_e, 2), rel=1e-12)
        lifts = [(factor.v, np.kron(np.block([[np.eye(n), np.zeros((n, n))],
                                              [np.zeros((n, n)), factor.v]]), np.eye(m)))
                 for factor in (form, root)]
        for engine in ("exact_diffusion", "extra"):
            for mu in (0.05, 1.0, 3.0):
                q_z = one_step_matrix(dyn, engine, mu=mu)
                rho = _spectral_radius(q_z)
                for factor, lift in lifts:
                    q_v = v_form_one_step(dyn, engine, mu, factor)
                    assert np.abs(q_z @ lift - lift @ q_v).max() <= 1e-13
                    assert abs(rho - _spectral_radius(q_v)) <= 1e-12 * max(1.0, rho)


def _eigh(matrix):
    """The eigenpairs of P^{-1/2} A P^{1/2} that `_network_blocks` takes."""
    return np.linalg.eigh(graphs._symmetrized(matrix.a, matrix.perron.p))


def _pair(matrix, lam=None, u=None, abar_t=None):
    """`_closed_form_pair` of `matrix`, (pair, radius), with the eigenpairs
    of At or Abar^T replaced where given."""
    eig_lam, eig_u = _eigh(matrix)
    abar_t = matrix.abar.T if abar_t is None else abar_t
    return stability._closed_form_pair(abar_t, eig_lam if lam is None else lam,
                                       eig_u if u is None else u, matrix.perron.p,
                                       int(np.count_nonzero(abar_t, axis=1).max()),
                                       matrix.is_symmetric_doubly_stochastic)


def _dense_b(matrix, lam, u):
    """The V-form B (`oracles.v_form`) with the factor of the eigenpairs
    (lam, u)."""
    return v_form(matrix, dual_factor(lam, u, matrix.perron.p)[0]).b


@pytest.mark.parametrize("builder", [random_metropolis, random_averaging])
def test_residual_pieces_equal_the_dense_residual(builder):
    """With U perturbed by 1e-6, B X - X D of the B built from that U equals
    the closed-form pieces of `_closed_form_pair`, which read only
    e = Abar^T x - lb x and E = U^T U - I (F = Sigma^{1/2} E, W = H U), and
    the factor P^{1/2} U Sigma^{1/2} U^T takes sqrt(p) to P^{1/2} U F_N,
    with sqrt(p) in place of U's unit column."""
    matrix = builder(8, seed=5)
    n, p = matrix.n, matrix.perron.p
    lam, u = _eigh(matrix)
    u = u + 1e-6 * np.random.default_rng(3).standard_normal(u.shape)
    v, w = dual_factor(lam, u, p)
    b = _dense_b(matrix, lam, u)
    sigma = (1.0 - lam) / 2.0
    sigma[-1] = 0.0
    gram = u.T @ u - np.eye(n)
    f = np.sqrt(sigma)[:, np.newaxis] * gram
    for k in range(n - 1):
        lb, s = (1.0 + lam[k]) / 2.0, np.sqrt(sigma[k])
        x = u[:, k] / np.sqrt(p)
        column = np.concatenate([x, -1j * np.sqrt(lb) * w[:, k]])
        dense = b @ column - (lb + 1j * np.sqrt(lb) * s) * column
        e = matrix.abar.T @ x - lb * x
        real = np.concatenate([e, lb * w @ f[:, k] + v.T @ e])
        imag = np.sqrt(lb) * np.concatenate([
            u @ f[:, k] / np.sqrt(p),
            w @ (s * f[:, k] + sigma * gram[:, k] + np.sqrt(sigma) * (gram @ f[:, k]))
            + (lb + sigma[k] - 1.0) * w[:, k]])
        assert np.linalg.norm(dense) > 1e-8
        assert np.linalg.norm(dense - (real + 1j * imag)) <= 1e-9 * np.linalg.norm(dense)
    pinned = u.copy()
    pinned[:, -1] = np.sqrt(p)
    f_n = np.sqrt(sigma) * (pinned.T @ pinned[:, -1])
    v_root = (np.sqrt(p)[:, np.newaxis] * u * np.sqrt(sigma)) @ u.T
    dense = v_root @ np.sqrt(p)
    assert np.linalg.norm(dense) > 1e-8
    assert np.linalg.norm(dense - np.sqrt(p) * (pinned @ f_n)) <= 1e-9 * np.linalg.norm(dense)


@pytest.mark.parametrize("builder", [random_metropolis, random_averaging])
def test_certificate_rejects_wrong_eigenvectors(builder):
    """A 1e-6 error in U, against the unperturbed A, is no eigenbasis of
    At: the certificate raises or exceeds 1e-8.  At 1e-10 its radius still
    covers the dense gap of the B built from that U, and its residual the
    dense ||B X - X D||_F."""
    matrix = builder(8, seed=4)
    lam, u = _eigh(matrix)
    error = np.random.default_rng(1).standard_normal(u.shape)
    try:
        assert _pair(matrix, u=u + 1e-6 * error)[1] > 1e-8
    except SpectralError:
        pass
    u = u + 1e-10 * error
    pair, radius = _pair(matrix, u=u)
    b = _dense_b(matrix, lam, u)
    assert greedy_spectrum_gap(matrix, b) <= radius
    x = dense_x(pair)
    assert np.linalg.norm(b @ x - x * pair.d) <= pair.residual


def test_eigenvalue_pairs_have_sqrt_magnitude():
    matrix = random_metropolis(6, seed=3)
    pair = decompose_b(matrix)
    abar_eigs = np.sort(np.linalg.eigvalsh((np.eye(6) + matrix.a) / 2.0))
    # drop the Perron eigenvalue 1; each remaining lambda spawns a
    # conjugate pair of magnitude sqrt(lambda)
    mags = np.sort(np.abs(pair.d))
    expect = np.sort(np.concatenate(
        [[1.0, 1.0], np.repeat(np.sqrt(abar_eigs[:-1]), 2)]))
    assert np.abs(mags - expect).max() <= 1e-8


def test_decompose_canonical_vectors_and_reconstruction():
    for seed, builder in ((0, random_metropolis), (1, random_averaging)):
        matrix = builder(5, seed)
        perron = matrix.perron
        pair = decompose_b(matrix)
        n = 5
        r1 = np.concatenate([np.ones(n), np.zeros(n)])
        r2 = np.concatenate([np.zeros(n), np.ones(n)])
        l1 = np.concatenate([perron.p, np.zeros(n)])
        l2 = np.concatenate([np.zeros(n), np.full(n, 1.0 / n)])
        x, x_inv = dense_x(pair), dense_x_inv(pair)
        assert np.abs(x[:, 0] - r1).max() <= 1e-12
        assert np.abs(x[:, 1] - r2).max() <= 1e-12
        assert np.abs(x_inv[0] - l1).max() <= 1e-12
        assert np.abs(x_inv[1] - l2).max() <= 1e-12
        # the pinned vectors really are eigenvectors of B at 1
        b = v_form(matrix).b
        assert np.abs(b @ r1 - r1).max() <= 1e-10
        assert np.abs(b @ r2 - r2).max() <= 1e-10
        assert np.abs(l1 @ b - l1).max() <= 1e-10
        assert np.abs(l2 @ b - l2).max() <= 1e-10
        assert np.abs(x_inv @ x - np.eye(2 * n)).max() <= 1e-10
        recon = x @ np.diag(pair.d) @ x_inv
        assert np.abs(recon - b).max() <= 1e-9
        assert np.abs(pair.d[0] - 1) <= 1e-12 and np.abs(pair.d[1] - 1) <= 1e-12


def test_decompose_rejects_extra_unit_eigenvalues():
    """A second unit eigenvalue, or a 1e-6 error in the non-unit one, is no
    eigenvalue of At for the unperturbed A."""
    matrix = random_metropolis(2, seed=0)
    lam, u = _eigh(matrix)
    for wrong in (1.0, lam[0] + 1e-6):
        with pytest.raises(SpectralError):
            _pair(matrix, np.array([wrong, lam[1]]), u)


@pytest.mark.parametrize("kind", ["A", "A along 1", "U", "lambda"])
def test_eigenpair_check_reads_every_input(kind):
    # a 1e-6 error in anything the eigenpair check reads must fail it.  The
    # random error in A has zero row sums in Abar^T, so only the conjugate
    # pairs see it; the error along 1^T only the pinned unit column [1; 0]
    # sees (every x has 1^T x = 0 here); U enters through E = U^T U - I
    n = 6
    matrix = random_metropolis(n, seed=2)
    lam, u = _eigh(matrix)
    rng = np.random.default_rng(0)
    abar_t = matrix.abar.T.copy()
    if kind == "A":
        error = rng.standard_normal((n, n))
        abar_t += 1e-6 * (error - error.mean(axis=1, keepdims=True))
    elif kind == "A along 1":
        abar_t += 1e-6 * np.outer(np.eye(n)[0], np.ones(n))
    elif kind == "U":
        u = u + 1e-6 * rng.standard_normal((n, n))
    else:
        lam = lam + 1e-6 * np.eye(n)[0]
    with pytest.raises(SpectralError, match="eigenpair residual"):
        _pair(matrix, lam, u, abar_t)


def test_single_agent_degenerates_cleanly():
    m1 = matrix_from_array(np.array([[1.0]]))
    pair = decompose_b(m1)
    assert np.allclose(pair.d, [1.0, 1.0])
    assert np.allclose(dense_x(pair), np.eye(2))
    with pytest.raises(ValueError):
        diffusion_step_bound(m1)
    with pytest.raises(ValueError):
        extra_step_bound(m1)
    assert (m1._error_blocks.t_d_norm, np.linalg.norm(v_form(m1).t_e, 2)) == (1.0, 1.0)


ENTRY_POINTS = {
    "run": lambda m: run("extra", least_squares_model(3, 5, 2, 6), m,
                         StepSizes.uniform(0.05, 5), max_iters=300).records,
    "decompose_b": lambda m: decompose_b(m).d,
    "b_spectrum_residual": b_spectrum_residual,
    "diffusion_step_bound": diffusion_step_bound,
    "extra_step_bound": extra_step_bound,
    "stability_scan": lambda m: stability_scan("extra", least_squares_model(3, 5, 2, 6), m,
                                               [0.05, 0.4, 1.6], max_iters=300),
}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_raw_arrays_coerce_like_combination_matrices(entry):
    matrix = random_metropolis(5, seed=4)
    assert matrix_from_array(matrix) is matrix
    from_matrix = ENTRY_POINTS[entry](matrix)
    from_array = ENTRY_POINTS[entry](matrix.a.copy())
    if isinstance(from_matrix, np.ndarray):
        assert np.array_equal(from_matrix, from_array)
    else:
        assert from_matrix == from_array


# ------------------------------------------------- one-step lift vs engine


def test_lifted_matrix_matches_engine_exact_diffusion():
    matrix = random_averaging(4, seed=5)
    model = random_quadratic(4, 2, seed=5, q=[1.0, 2.0, 0.5, 1.0])
    perron = matrix.perron
    steps = StepSizes.from_weights(model.q, perron.p, 0.01)
    dyn = build_error_dynamics(matrix, model=model)
    q = one_step_matrix(dyn, "exact_diffusion", steps.mu)
    rng = np.random.default_rng(0)
    w0 = rng.standard_normal((4, 2))
    sim = simulate_error_recursion(matrix, model, steps, w0, 60,
                                   engine="exact_diffusion_pd")
    e = sim[0].reshape(-1)
    for i in range(60):
        e = q @ e
        assert np.abs(e.reshape(8, 2) - sim[i + 1]).max() <= 1e-9


def test_lifted_matrix_matches_engine_extra():
    matrix = random_metropolis(4, seed=6)
    model = random_quadratic(4, 2, seed=6)
    steps = StepSizes.uniform(0.02, 4)
    dyn = build_error_dynamics(matrix, model=model)
    q = one_step_matrix(dyn, "extra", steps.mu)
    rng = np.random.default_rng(1)
    w0 = rng.standard_normal((4, 2))
    sim = simulate_error_recursion(matrix, model, steps, w0, 60, engine="extra")
    e = sim[0].reshape(-1)
    for i in range(60):
        e = q @ e
        assert np.abs(e.reshape(8, 2) - sim[i + 1]).max() <= 1e-9


@pytest.mark.parametrize("engine", ["exact_diffusion", "extra"])
@pytest.mark.parametrize("per_agent", [False, True])
def test_one_step_matrix_matches_the_block_diag_construction(engine, per_agent):
    """The numpy block diagonal places the same mu_k H_k blocks as
    `scipy.linalg.block_diag`: the lifted map equals B_z - T_z diag(mu_k H_k, 0)
    built from the z blocks, B_z = [[Abar^T, -P^{-1}], [S Abar^T,
    I - S P^{-1}]] and T_z = [[G, 0], [S G, 0]], bit for bit."""
    n, m = 5, 3
    matrix = random_metropolis(n, seed=8)
    model = random_quadratic(n, m, seed=8)
    mu = np.linspace(0.01, 0.03, n) if per_agent else np.full(n, 0.02)
    dyn = build_error_dynamics(matrix, model=model)
    abar_t, s, p = matrix.abar.T, matrix.v_squared, matrix.perron.p
    g = abar_t if engine == "exact_diffusion" else np.eye(n)
    b_z = np.block([[abar_t, -np.diag(1.0 / p)], [s @ abar_t, np.eye(n) - s / p]])
    mh = scipy.linalg.block_diag(*(mu[k] * dyn.h[k] for k in range(n)))
    expect = np.kron(b_z, np.eye(m))
    expect[:, : n * m] -= np.kron(np.vstack([g, s @ g]), np.eye(m)) @ mh
    assert np.array_equal(one_step_matrix(dyn, engine, mu=mu if per_agent else 0.02), expect)


def test_one_step_matrix_validation():
    matrix = random_metropolis(4, seed=0)
    model = random_quadratic(4, 2, seed=0)
    dyn = build_error_dynamics(matrix, model=model)
    with pytest.raises(ValueError):
        one_step_matrix(dyn, "diging", 0.01)
    with pytest.raises(TypeError):
        build_error_dynamics(matrix, model=logistic_model(0, 4, 2, 5, ridge=0.1))


def test_structural_unit_eigenvalues_stand_apart_by_value():
    """The premise of `exact_radius`'s drop rule: from mu = 1e-6 up, the dim
    eigenvalues of the one-step map nearest 1 lie within 1e-9 of it (at most
    1.1e-10 here), and the next is at least 1e3 times farther (1.09e4)."""
    for matrix in _criterion_10_ensemble():
        model = random_quadratic(matrix.n, 2, seed=matrix.n)
        dyn = build_error_dynamics(matrix, model=model)
        for engine in ("exact_diffusion", "exact_diffusion_pd", "extra",
                       "adaptive_exact_diffusion"):
            for mu in (1e-6, 1e-4, 0.1, 1.0, 3.0):
                steps = stability._steps_for(engine, model, matrix, mu)
                eigs = np.linalg.eigvals(one_step_matrix(dyn, engine, steps.mu))
                gaps = np.sort(np.abs(eigs - 1.0))
                assert gaps[model.dim - 1] <= 1e-9, (engine, mu)
                assert gaps[model.dim] >= 1e3 * gaps[model.dim - 1], (engine, mu)


def _no_solve(model):
    raise AssertionError("solved before the inputs were checked")


# a balanced symmetric doubly stochastic matrix with a zero self-weight
_ZERO_SELF_WEIGHT = np.array([[0.2, 0.4, 0.4], [0.4, 0.0, 0.6], [0.4, 0.6, 0.0]])
# column-stochastic, but neither balanced nor doubly stochastic
_UNBALANCED = np.array([[0.5, 0.2, 0.3], [0.3, 0.5, 0.3], [0.2, 0.3, 0.4]])


@pytest.mark.parametrize("engine, model, matrix, match", [
    ("extra", random_quadratic(6, 2, seed=1), random_averaging(6, seed=1), "doubly stochastic"),
    ("foo", random_quadratic(6, 2, seed=1), random_averaging(6, seed=1), "unknown engine 'foo'"),
    ("extra", least_squares_model(1, 6, 2, 8, q=np.linspace(1, 2, 6)),
     random_metropolis(6, seed=1, prob=0.5), "model weights q must be equal"),
    ("adaptive_exact_diffusion", random_quadratic(3, 2, seed=0), _ZERO_SELF_WEIGHT,
     "positive self-weights"),
    ("exact_diffusion", random_quadratic(5, 2, seed=0), random_metropolis(6, seed=1),
     "combination matrix size does not match"),
    ("exact_diffusion", random_quadratic(3, 2, seed=0), _UNBALANCED,
     r"exact_diffusion requires a locally balanced combination matrix \(violation 2.344e-02\)"),
    ("extra", random_quadratic(3, 2, seed=0), _UNBALANCED,
     "extra requires a doubly stochastic combination matrix"),
], ids=["averaging", "unknown", "unequal-q", "zero-self-weight", "size", "unbalanced",
        "unbalanced-extra"])
def test_exact_radius_refuses_what_run_refuses(monkeypatch, engine, model, matrix, match):
    """`exact_radius`, `run` and `stability_scan` refuse the same engine,
    model and matrix (`algorithms._check_engine`), and refuse them before
    any ground-truth solve."""
    monkeypatch.setattr(stability, "solve_centralized", _no_solve)
    monkeypatch.setattr(algorithms, "solve_centralized", _no_solve)
    steps = StepSizes.uniform(0.1, model.n_agents)
    for call in (lambda: exact_radius(engine, model, matrix, 0.1),
                 lambda: run(engine, model, matrix, steps, 10, 1e-10),
                 lambda: stability_scan(engine, model, matrix, [0.01, 0.1], max_iters=10)):
        with pytest.raises(ValueError, match=match):
            call()


def test_exact_radius_needs_quadratic_costs_and_an_analytic_map():
    metropolis = random_metropolis(4, seed=0)
    with pytest.raises(TypeError):
        exact_radius("exact_diffusion", logistic_model(0, 4, 2, 5, ridge=0.1), metropolis, 0.1)
    with pytest.raises(ValueError, match="no analytic error map"):
        exact_radius("diging", random_quadratic(4, 2, seed=0), metropolis, 0.1)


def test_exact_radius_refuses_an_overflowing_map():
    """At mu = 1e308 the one-step map overflows, and `exact_radius` raises
    ValueError with no warning; at 1e306 the map is finite, and so is its
    radius."""
    matrix, model = random_metropolis(6, seed=1), random_quadratic(6, 2, seed=1)
    for engine in ("exact_diffusion", "extra"):
        assert 1e306 < exact_radius(engine, model, matrix, 1e306) < np.inf
        with pytest.raises(ValueError, match="not finite"):
            exact_radius(engine, model, matrix, 1e308)


# ----------------------------------------------------------- step bounds


def test_bound_rate_is_one_exactly_at_the_bound():
    for seed in range(4):
        matrix = random_metropolis(5, seed=seed)
        for bound in (diffusion_step_bound(matrix), extra_step_bound(matrix)):
            assert abs(bound.rho_at(bound.mu_bound) - 1.0) <= 1e-12
            for f in (0.1, 0.5, 0.9, 0.99):
                assert bound.rho_at(f * bound.mu_bound) < 1.0
            assert bound.rho_at(0.0) <= 1.0


def test_bound_constants_satisfy_stated_relations():
    matrix = random_metropolis(6, seed=9)
    perron = matrix.perron
    d = diffusion_step_bound(matrix)
    e = extra_step_bound(matrix)
    for b in (d, e):
        assert b.sigma12 == pytest.approx(b.sigma21, rel=1e-12)
        assert b.sigma22 == pytest.approx(b.alpha * b.delta, rel=1e-12)
        assert b.sigma12 ** 2 == pytest.approx(
            np.sqrt(b.p_max) * b.alpha * b.delta ** 2, rel=1e-12)
        assert b.lam == pytest.approx(np.sqrt((1 + perron.lambda2) / 2), rel=1e-12)
        assert b.mu_bound == pytest.approx(
            b.sigma11 * (1 - b.lam) / (2 * b.sigma21 ** 2), rel=1e-12)
    # normalized curvature: nu = 1, uniform tau, p = 1/N
    assert d.sigma11 == pytest.approx(1.0 / 6, rel=1e-12)
    assert e.sigma11 == pytest.approx(1.0 / 6, rel=1e-12)
    assert d.alpha < e.alpha
    assert d.mu_bound > e.mu_bound
    assert d.t_norm < e.t_norm


def test_diffusion_bound_normalizes_tau():
    matrix = random_metropolis(5, seed=4)
    base = diffusion_step_bound(matrix, tau=np.ones(5))
    doubled = diffusion_step_bound(matrix, tau=np.full(5, 2.0))
    assert base.mu_bound == pytest.approx(doubled.mu_bound, rel=1e-12)


def test_extra_bound_requires_symmetric_doubly_stochastic():
    a = np.array([[0.5, 0.3, 0.2], [0.2, 0.5, 0.3], [0.3, 0.2, 0.5]])
    with pytest.raises(ValueError):
        extra_step_bound(matrix_from_array(a))


@pytest.mark.parametrize("delta", [1e154, 1e200, np.inf])
def test_bounds_reject_a_curvature_they_cannot_square(delta):
    # delta ** 2 used to raise OverflowError past 1.34e154
    matrix = random_metropolis(5, seed=2)
    with pytest.raises(ValueError, match="too large"):
        diffusion_step_bound(matrix, nu=1.0, delta=delta)
    with pytest.raises(ValueError, match="too large"):
        extra_step_bound(matrix, nu=1.0, delta=delta)
    for bound in (diffusion_step_bound(matrix, delta=1e150),
                  extra_step_bound(matrix, delta=1e150)):
        assert 0.0 < bound.mu_bound and bound.rho_at(bound.mu_bound) == pytest.approx(1.0)


# -------------------------------------------------------- norm comparison


def test_norm_comparison_closed_forms():
    for n in range(2, 9):
        matrix = random_metropolis(n, seed=n)
        perron = matrix.perron
        root = symmetric_root(matrix)
        t_d, t_e = diffusion_step_bound(matrix).t_norm, extra_step_bound(matrix).t_norm
        lam_n = perron.lambdaN
        assert t_e ** 2 == pytest.approx((2 * n + 1 - lam_n) / (2 * n), abs=1e-10)
        assert t_e ** 2 == pytest.approx(
            np.linalg.eigvalsh(np.eye(n) + root @ root).max(), abs=1e-12)
        # dual route: the closed forms equal the actual operator norms
        form = v_form(matrix)
        assert t_d == pytest.approx(np.linalg.norm(form.t_d, 2), abs=1e-12)
        assert t_e == pytest.approx(np.linalg.norm(form.t_e, 2), abs=1e-12)
        assert t_d < t_e


def test_norm_comparison_rejects_asymmetric():
    # ||T_e|| is reported only for a symmetric doubly stochastic matrix:
    # not for this unbalanced one, nor for a balanced averaging matrix,
    # which still has ||T_d||
    a = np.array([[0.5, 0.3, 0.2], [0.2, 0.5, 0.3], [0.3, 0.2, 0.5]])
    for bound in (diffusion_step_bound, extra_step_bound):
        with pytest.raises(ValueError):
            bound(matrix_from_array(a))
    averaging = random_averaging(6, seed=1)
    assert not averaging.is_symmetric_doubly_stochastic
    assert diffusion_step_bound(averaging).t_norm > 1.0
    with pytest.raises(ValueError, match="symmetric doubly stochastic"):
        extra_step_bound(averaging)


# ----------------------------------------------------- two-agent closed forms


def two_agent_spectrum(a, sigma2, engine, mu):
    """Eigenvalues of `one_step_matrix` on the 2-agent network with scalar
    Hessians sigma2, less its structural unit eigenvalue, dropped by value."""
    dyn = build_error_dynamics(two_agent_matrix(a), model=QuadraticModel(
        h=np.full((2, 1, 1), sigma2), b=np.zeros((2, 1))))
    eigs = np.linalg.eigvals(one_step_matrix(dyn, engine, mu=mu))
    unit = np.abs(eigs - 1.0) <= 1e-9
    assert unit.sum() == 1
    return eigs[~unit]


def test_two_agent_error_matrix_oracle():
    case = two_agent_case(0.5, 1.0, 1.5)
    # frozen roots for the diffusion characteristic polynomial
    # theta^2 - 0.25 theta - 0.25 at a = 1/2, mu sigma^2 = 3/2; with the
    # consensus mode 1 - m = -0.5 they are the general map's spectrum
    roots_d = np.array([-0.3903882032022076, 0.6403882032022076])
    assert np.abs(np.sort(case.roots_d.real) - roots_d).max() <= 1e-12
    assert case.specrad_d == pytest.approx(0.6403882032022076, abs=1e-12)
    general = np.sort(two_agent_spectrum(0.5, 1.0, "exact_diffusion", 1.5).real)
    assert np.abs(general - np.sort(np.append(roots_d, -0.5))).max() <= 1e-12
    # frozen roots for the EXTRA characteristic polynomial
    # theta^2 + 0.5 theta - 1 at a = 1/2, mu sigma^2 = 3/2
    roots = np.sort(case.roots_e.real)
    assert np.abs(roots - np.array([-1.2807764064044151, 0.7807764064044151])).max() <= 1e-12
    assert case.roots_e.prod().real == pytest.approx(-1.0, abs=1e-12)
    assert case.specrad_e == pytest.approx(1.2807764064044151, abs=1e-12)
    assert case.stable_e is False
    assert case.stable_d is True


def test_two_agent_characteristic_polynomials():
    rng = np.random.default_rng(3)
    for _ in range(20):
        a = rng.uniform(0.05, 0.95)
        sigma2 = rng.uniform(0.2, 3.0)
        mu_d = rng.uniform(0.05, 1.8) / sigma2
        mu_e = rng.uniform(0.05, 1.2) / sigma2
        case = two_agent_case(a, sigma2, mu_d, mu_e)
        m = mu_d * sigma2
        me = mu_e * sigma2
        r_d = np.sort_complex(np.roots([1.0, -(2 - m) * a, (1 - m) * a]))
        r_e = np.sort_complex(np.roots([1.0, -(2 * a - me), a - me]))
        assert np.abs(np.sort_complex(case.roots_d) - r_d).max() <= 1e-10
        assert np.abs(np.sort_complex(case.roots_e) - r_e).max() <= 1e-10
        # the 4x4 map of the generic builder has eigenvalues {1, 1 - m} and
        # the roots; without its unit one, its radius is the case's
        model = QuadraticModel(h=np.full((2, 1, 1), sigma2), b=np.zeros((2, 1)))
        for engine, mu, mm, roots, specrad, stable in (
                ("exact_diffusion", mu_d, m, r_d, case.specrad_d, case.stable_d),
                ("extra", mu_e, me, r_e, case.specrad_e, case.stable_e)):
            eigs = two_agent_spectrum(a, sigma2, engine, mu)
            expect = np.sort_complex(np.concatenate([[1 - mm], roots]))
            assert np.abs(np.sort_complex(eigs) - expect).max() <= 1e-10
            radius = np.abs(eigs).max()
            assert specrad == pytest.approx(radius, rel=1e-12, abs=0)
            assert exact_radius(engine, model, two_agent_matrix(a), mu) == pytest.approx(
                specrad, rel=1e-12, abs=0)
            assert stable == (radius < 1.0)


def test_two_agent_lifted_matrix_oracle():
    # for N = 2, P = I/2: the exact-diffusion one-step matrix in (w, z)
    # reduces to [[(1-m) Abar, -2 I], [(1-m) S Abar, Abar]] because
    # I - 2 S = Abar
    a_val = 0.5
    matrix = two_agent_matrix(a_val)
    model = mse_quadratic_model(2, 1, [[[1.0]], [[1.0]]], [[0.3], [-0.4]])
    dyn = build_error_dynamics(matrix, model=model)
    q = one_step_matrix(dyn, "exact_diffusion", 0.8)
    abar = (np.eye(2) + matrix.a) / 2.0
    s = matrix.v_squared
    assert np.abs(np.eye(2) - 2 * s - abar).max() <= 1e-12
    m = 0.8
    expect = np.block([
        [(1 - m) * abar, -2 * np.eye(2)],
        [(1 - m) * (s @ abar), abar],
    ])
    assert np.abs(q - expect).max() <= 1e-10


def test_two_agent_stability_verdicts_follow_step_size():
    # exact diffusion is stable exactly on 0 < mu sigma^2 < 2, regardless
    # of the coupling a
    for a in (0.1, 0.5, 0.9):
        for sigma2 in (0.5, 1.0, 2.0):
            for m in (0.05, 0.5, 1.0, 1.5, 1.95):
                case = two_agent_case(a, sigma2, m / sigma2)
                assert case.stable_d, (a, sigma2, m)
            for m in (2.0, 2.3, 3.0):
                case = two_agent_case(a, sigma2, m / sigma2)
                assert not case.stable_d, (a, sigma2, m)
    # EXTRA diverges once mu sigma^2 reaches a + 1
    for a in (0.2, 0.6):
        case = two_agent_case(a, 1.0, 0.1, (a + 1.0) + 1e-6)
        assert not case.stable_e


def test_two_agent_onsets():
    for sigma2 in (0.5, 1.0, 2.0):
        onset_d = two_agent_onset(0.5, sigma2, "exact_diffusion")
        assert onset_d == pytest.approx(2.0 / sigma2, abs=1e-3)
    for a in (0.1, 0.3, 0.5, 0.7, 0.9):
        onset_e = two_agent_onset(a, 1.0, "extra")
        assert onset_e == pytest.approx((3 * a + 1) / 2.0, abs=1e-3)
    with pytest.raises(ValueError):
        two_agent_onset(0.5, 1.0, "diging")


@pytest.mark.parametrize("sigma2", [0.3, 1.0, 2.7])
@pytest.mark.parametrize("algorithm", ["exact_diffusion", "extra"])
def test_two_agent_onsets_are_exact(algorithm, sigma2):
    # the closed-form onset is where the exact radius crosses 1: just below
    # it the map contracts, just above it does not
    model = QuadraticModel(h=np.full((2, 1, 1), sigma2), b=np.zeros((2, 1)))
    for a in np.linspace(0.02, 0.98, 25):
        onset = two_agent_onset(a, sigma2, algorithm)
        matrix = two_agent_matrix(a)
        assert exact_radius(algorithm, model, matrix, onset * (1 - 1e-9)) < 1.0, a
        assert exact_radius(algorithm, model, matrix, onset * (1 + 1e-9)) > 1.0, a


NAN = float("nan")


@pytest.mark.parametrize("call", [
    lambda m: diffusion_step_bound(m, nu=NAN),
    lambda m: diffusion_step_bound(m, delta=NAN),
    lambda m: diffusion_step_bound(m, tau=[NAN, 1.0, 1.0, 1.0]),
    lambda m: extra_step_bound(m, nu=NAN),
    lambda m: extra_step_bound(m, delta=NAN),
    lambda m: hessian_bounds(QuadraticModel(h=np.full((2, 1, 1), NAN), b=np.zeros((2, 1)))),
    lambda m: MSEQuadraticModel([[[1.0, NAN], [NAN, 1.0]]], [[0.0, 0.0]]),
    lambda m: two_agent_case(0.5, NAN, 1.0),
    lambda m: two_agent_case(0.5, 1.0, NAN),
    lambda m: two_agent_case(0.5, 1.0, 1.0, NAN),
    lambda m: two_agent_case(NAN, 1.0, 1.0),
    lambda m: two_agent_onset(0.5, NAN, "exact_diffusion"),
    lambda m: two_agent_onset(NAN, 1.0, "extra"),
], ids=["bound-nu", "bound-delta", "bound-tau", "extra-nu", "extra-delta", "hessian-bounds",
        "mse-symmetry", "case-sigma2", "case-mu-d", "case-mu-e", "case-a",
        "onset-sigma2", "onset-a"])
def test_nan_inputs_are_rejected(call):
    with pytest.raises(ValueError) as info:
        call(random_metropolis(4, seed=1))
    assert not isinstance(info.value, np.linalg.LinAlgError)


# ------------------------------------------------------- adaptive mismatch


def test_mismatch_decay_check_accepts_true_geometric_decay():
    p = np.array([0.4, 0.35, 0.25])
    rho = 0.55
    direction = np.array([1.0, -0.7, -0.3])
    direction /= np.linalg.norm(direction)
    history = [p + np.sqrt(3) * rho ** (i + 1) * 0.9 * direction for i in range(80)]
    ok, fitted = mismatch_decay_check(history, p, rho)
    assert ok
    assert fitted <= rho + 0.02


def test_mismatch_decay_check_rejects_slow_decay():
    p = np.array([0.5, 0.5])
    rho = 0.4
    slow = 0.8
    history = [p + slow ** (i + 1) * np.array([1.0, -1.0]) for i in range(60)]
    ok, fitted = mismatch_decay_check(history, p, rho)
    assert not ok
    assert fitted > rho + 0.02


def test_mismatch_decay_check_handles_exact_history():
    p = np.array([0.5, 0.5])
    ok, fitted = mismatch_decay_check([p.copy() for _ in range(30)], p, 0.6)
    assert ok and fitted == 0.0


# ------------------------------------------------------------ classification


def _fake_result(status, rels):
    class _R:
        pass

    r = _R()
    r.status = status
    r.records = [TraceRecord(i, i, float(v), 0.0) for i, v in enumerate(rels)]
    return r


def test_classify_run_rules():
    assert classify_run(_fake_result("converged", [1.0, 0.1]), 10) == "stable"
    assert classify_run(_fake_result("diverged", [1.0, 2.0]), 10) == "unstable"
    decreasing = [1.0] + [0.9 ** i for i in range(20)]
    assert classify_run(_fake_result("exhausted", decreasing), 20) == "stable"
    rising = [1.0] * 15 + [1.1, 1.3, 1.7, 2.5, 4.0, 8.0]
    assert classify_run(_fake_result("exhausted", rising), 20) == "unstable"


# --------------------------------------------------------------------- scan


def test_stability_scan_finds_two_agent_boundaries():
    matrix = two_agent_matrix(0.5)
    model = mse_quadratic_model(2, 1, [[[1.0]], [[1.0]]], [[0.7], [-0.3]])
    grid = np.linspace(0.05, 3.0, 12)
    scan_d = stability_scan("exact_diffusion", model, matrix, grid,
                            max_iters=3000, stop=1e-10)
    scan_e = stability_scan("extra", model, matrix, grid,
                            max_iters=3000, stop=1e-10)
    assert scan_d.refined and scan_e.refined
    assert scan_d.mu_stable == pytest.approx(2.0, abs=5e-3)
    assert scan_e.mu_stable == pytest.approx(1.25, abs=5e-3)
    assert scan_d.mu_unstable - scan_d.mu_stable <= 1e-3 * scan_d.mu_unstable
    assert scan_d.mu_stable >= scan_e.mu_stable
    for mu, cls in zip(scan_d.mus, scan_d.classifications):
        assert cls == ("stable" if mu < 2.0 else "unstable")


def test_stability_scan_grid_without_transition():
    matrix = two_agent_matrix(0.5)
    model = mse_quadratic_model(2, 1, [[[1.0]], [[1.0]]], [[0.7], [-0.3]])
    all_stable = stability_scan("exact_diffusion", model, matrix,
                                np.linspace(0.1, 0.5, 3), max_iters=2000)
    assert all_stable.mu_stable == pytest.approx(0.5)
    assert all_stable.mu_unstable is None and not all_stable.refined
    all_unstable = stability_scan("exact_diffusion", model, matrix,
                                  np.linspace(5.0, 8.0, 3), max_iters=2000)
    assert all_unstable.mu_stable is None
    assert all_unstable.mu_unstable == pytest.approx(5.0)
    assert not all_unstable.refined
    assert all(c == "unstable" for c in all_unstable.classifications)


def test_scan_grid_that_overflows_is_unstable_without_warnings():
    # warnings are errors here: a step that overflowed used to raise
    # "RuntimeWarning: overflow encountered in square" out of the scan
    matrix = two_agent_matrix(0.5)
    model = mse_quadratic_model(2, 1, [[[1.0]], [[1.0]]], [[0.7], [-0.3]])
    scan = stability_scan("exact_diffusion", model, matrix, [0.5, 1e150, 1e300],
                          max_iters=200)
    assert scan.classifications == ["stable", "unstable", "unstable"]


@pytest.mark.parametrize("call", [
    lambda: two_agent_case(0.5, 1e-320, 1.0),
    lambda: two_agent_onset(0.5, 1e-320, "extra"),
    lambda: two_agent_case(0.5, 1e200, 1e200),
    lambda: two_agent_case(0.5, 1e200, 1e-200, 1e200),
], ids=["case-onsets", "onset", "case-mu-d", "case-mu-e"])
def test_two_agent_inputs_must_give_finite_onsets_and_maps(call):
    # 2 / sigma2 and mu sigma2 used to overflow: to an onset of inf, and to
    # numpy's "Array must not contain infs or NaNs"
    with pytest.raises(ValueError, match="sigma2") as info:
        call()
    assert not isinstance(info.value, np.linalg.LinAlgError)


def test_stability_scan_rejects_bad_grid(monkeypatch):
    # both grids used to be refused only after the ground-truth solve
    monkeypatch.setattr(stability, "solve_centralized", _no_solve)
    matrix = two_agent_matrix(0.5)
    model = mse_quadratic_model(2, 1, [[[1.0]], [[1.0]]], [[0.7], [-0.3]])
    with pytest.raises(ValueError):
        stability_scan("exact_diffusion", model, matrix, [0.5])
    with pytest.raises(ValueError):
        stability_scan("exact_diffusion", model, matrix, [0.5, -0.2])


@pytest.mark.parametrize("rel_tol", [-1.0, 0.0, np.nan, np.inf])
def test_stability_scan_rel_tol_must_be_positive_and_finite(monkeypatch, rel_tol):
    # rel_tol = -1 used to bisect forever, and NaN returned the grid's
    # bracket marked refined; it is refused before the ground-truth solve
    monkeypatch.setattr(stability, "solve_centralized", _no_solve)
    matrix = random_metropolis(6, seed=5)
    model = least_squares_model(5, 6, 2, 8)
    with pytest.raises(ValueError, match="rel_tol"):
        stability_scan("exact_diffusion", model, matrix, [0.01, 10.0], max_iters=50,
                       rel_tol=rel_tol)


# ------------------------------------------------- stacked classification


def _verdicts_one_by_one(engine, model, matrix, mus, max_iters, stop, gt):
    """(status, classify_run verdict) of a separate unstacked reference run
    per step size: an oracle independent of the loop `run` and the scans
    share."""
    out = []
    for mu in mus:
        res = reference_run(engine, model, matrix,
                            stability._steps_for(engine, model, matrix, mu),
                            max_iters=max_iters, stop=stop, ground_truth=gt)
        out.append((res.status, classify_run(res, max_iters)))
    return out


@pytest.mark.parametrize("engine", ENGINES)
def test_stacked_verdicts_match_separate_runs(engine):
    matrix = random_metropolis(5, seed=7)
    model = random_quadratic(5, 2, seed=7)
    gt = solve_centralized(model)
    onset = stability_scan(engine, model, matrix, np.geomspace(1e-3, 3.0, 12), max_iters=300,
                           stop=1e-10, ground_truth=gt).mu_stable
    mus = [onset * f for f in (1e-3, 0.3, 0.5, 0.999, 1.003, 1.02, 3.0)]
    expected = _verdicts_one_by_one(engine, model, matrix, mus, 300, 1e-10, gt)
    stacked = stability_scan(engine, model, matrix, mus, max_iters=300, stop=1e-10,
                             ground_truth=gt, refine=False).classifications
    assert stacked == [verdict for _, verdict in expected]
    assert {("converged", "stable"), ("diverged", "unstable"), ("exhausted", "stable"),
            ("exhausted", "unstable")} <= set(expected)


def test_stacked_verdicts_match_separate_runs_logistic():
    matrix = random_metropolis(5, seed=8)
    model = logistic_model(8, 5, 2, 10, ridge=0.5)
    gt = solve_centralized(model)
    mus = list(np.geomspace(0.05, 8.0, 9))
    for engine in ("exact_diffusion", "extra"):
        expected = _verdicts_one_by_one(engine, model, matrix, mus, 400, 1e-10, gt)
        stacked = stability_scan(engine, model, matrix, mus, max_iters=400, stop=1e-10,
                                 ground_truth=gt, refine=False).classifications
        assert stacked == [verdict for _, verdict in expected]
        assert {"stable", "unstable"} <= set(stacked)


@pytest.mark.parametrize("engine", ["exact_diffusion", "extra", "diging"])
def test_exhausted_verdicts_match_separate_runs_at_every_small_budget(engine):
    """With stop=0 no member converges, so every member that does not
    diverge exhausts its budget, and its verdict rests on the error saved
    one tenth of the budget before the end (iteration 0 for a budget of
    1).  Small budgets put that iteration everywhere."""
    matrix = random_metropolis(5, seed=10)
    model = random_quadratic(5, 2, seed=10)
    gt = solve_centralized(model)
    mus = list(np.geomspace(0.01, 2.0, 9))
    seen = set()
    for max_iters in range(1, 41):
        expected = _verdicts_one_by_one(engine, model, matrix, mus, max_iters, 0.0, gt)
        stacked = stability_scan(engine, model, matrix, mus, max_iters=max_iters, stop=0.0,
                                 ground_truth=gt, refine=False).classifications
        assert stacked == [verdict for _, verdict in expected], max_iters
        seen.update(expected)
    assert {("exhausted", "stable"), ("exhausted", "unstable")} <= seen


def test_scan_with_a_huge_budget_keeps_memory_bounded():
    """Every member settles early, so a budget of 2e9 iterations gives the
    verdicts of a 3000-iteration budget, in memory that does not grow
    with the budget."""
    matrix = two_agent_matrix(0.5)
    model = mse_quadratic_model(2, 1, [[[1.0]], [[1.0]]], [[0.7], [-0.3]])
    grid = [0.1, 0.5, 1.0, 1.5, 3.0, 5.0]
    tracemalloc.start()
    try:
        huge = stability_scan("exact_diffusion", model, matrix, grid,
                              max_iters=2_000_000_000, stop=1e-10, refine=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6
    small = stability_scan("exact_diffusion", model, matrix, grid, max_iters=3000,
                           stop=1e-10, refine=False)
    assert huge.classifications == small.classifications
    assert set(huge.classifications) == {"stable", "unstable"}


def test_exhausted_adaptive_scan_keeps_memory_bounded():
    """The adaptive engine's members keep no per-iteration history in a
    scan: two members that use up a 20000-iteration budget stay under
    1 MB."""
    matrix = random_averaging(10, seed=4)
    model = random_quadratic(10, 2, seed=4)
    gt = solve_centralized(model)
    tracemalloc.start()
    try:
        scan = stability_scan("adaptive_exact_diffusion", model, matrix, [1e-5, 2e-5],
                              max_iters=20_000, stop=1e-10, ground_truth=gt, refine=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6
    assert scan.classifications == ["stable", "stable"]


@pytest.mark.parametrize("rel_tol", [1e-3, 1e-2])
@pytest.mark.parametrize("engine", ["exact_diffusion", "diging"])
def test_speculative_bisection_matches_sequential_bisection(engine, rel_tol):
    matrix = random_metropolis(5, seed=9)
    model = random_quadratic(5, 2, seed=9)
    gt = solve_centralized(model)
    grid = np.geomspace(0.01, 2.0, 6)

    def stable(mu):
        return _verdicts_one_by_one(engine, model, matrix, [mu], 300, 1e-10, gt)[0][1] == "stable"

    mus = sorted(grid)
    i = next(i for i in range(len(mus) - 1) if stable(mus[i]) and not stable(mus[i + 1]))
    lo, hi = mus[i], mus[i + 1]
    while hi - lo > rel_tol * hi:
        mid = 0.5 * (lo + hi)
        if stable(mid):
            lo = mid
        else:
            hi = mid
    scan = stability_scan(engine, model, matrix, grid, max_iters=300, stop=1e-10,
                          ground_truth=gt, rel_tol=rel_tol)
    assert scan.refined
    assert (scan.mu_stable, scan.mu_unstable) == (lo, hi)


def _counted_scans(monkeypatch):
    """The member count of each `_iterate` call the scans make from now on."""
    calls, iterate = [], stability._iterate

    def counted(engine, model, matrix, steps_list, *args):
        calls.append(len(steps_list))
        return iterate(engine, model, matrix, steps_list, *args)

    monkeypatch.setattr(stability, "_iterate", counted)
    return calls


def _onset_case():
    """(matrix, model, ground truth, onset) of exact diffusion on the
    five-agent case above, the onset within 1e-7 relative."""
    matrix = random_metropolis(5, seed=9)
    model = random_quadratic(5, 2, seed=9)
    gt = solve_centralized(model)
    onset = stability_scan("exact_diffusion", model, matrix, np.geomspace(0.01, 2.0, 6), 300,
                           1e-10, ground_truth=gt, rel_tol=1e-7).mu_stable
    return matrix, model, gt, onset


@pytest.mark.parametrize("levels", [5, 8, 9, 10, 13])
def test_refinement_schedule_leaves_no_one_level_run(levels, monkeypatch):
    """A grid bracket that needs `levels` bisection levels at worst is
    settled by runs of SPECULATION_DEPTH levels, the first taking one more
    when one level would be left over (5, 9, 13): no run is a one-level run
    of a single member, and the bracket is the one one-at-a-time bisection
    on `_iterate` verdicts reaches, bit for bit."""
    engine, rel_tol, max_iters = "exact_diffusion", 1e-3, 300
    matrix, model, gt, onset = _onset_case()
    # width 0.75 * 2**levels * rel_tol * lo: `levels` halvings reach rel_tol * lo
    width = 0.75 * 2.0 ** levels * rel_tol
    lo = onset / (1.0 + 0.37 * width)
    hi = lo * (1.0 + width)
    depth = stability.SPECULATION_DEPTH
    first = depth + 1 if levels % depth == 1 else depth
    assert stability._first_depth(lo, hi, rel_tol) == first

    def stable(mu):
        steps = [stability._steps_for(engine, model, matrix, mu)]
        return stability._iterate(engine, model, matrix, steps, max_iters, 1e-10,
                                  gt)[3] == ["stable"]

    assert stable(lo) and not stable(hi)
    want_lo, want_hi = lo, hi
    while want_hi - want_lo > rel_tol * want_hi:
        mid = 0.5 * (want_lo + want_hi)
        if stable(mid):
            want_lo = mid
        else:
            want_hi = mid
    calls = _counted_scans(monkeypatch)
    scan = stability_scan(engine, model, matrix, [lo, hi], max_iters, 1e-10, ground_truth=gt,
                          rel_tol=rel_tol)
    assert scan.refined
    assert (scan.mu_stable, scan.mu_unstable) == (want_lo, want_hi)
    assert calls[:2] == [2, 2 ** first - 1]  # the grid, then the first refinement run
    assert len(calls) == 1 + {5: 1, 8: 2, 9: 2, 10: 3, 13: 3}[levels]
    assert min(calls[1:]) > 1 and max(calls[2:], default=0) <= 2 ** depth - 1


def test_a_scan_shaped_like_the_benchmark_makes_three_runs(monkeypatch):
    """Ten log-spaced points over [onset / 3, 3 onset] leave a bracket of
    nine levels at rel_tol 1e-3: the grid run and two refinement runs, of
    five levels and of four."""
    matrix, model, gt, onset = _onset_case()
    calls = _counted_scans(monkeypatch)
    grid = np.geomspace(onset / 3.0, 3.0 * onset, 10)
    scan = stability_scan("exact_diffusion", model, matrix, grid, 300, 1e-10, ground_truth=gt,
                          rel_tol=1e-3)
    assert scan.refined and scan.mu_stable <= onset < scan.mu_unstable
    assert len(calls) <= 3


@pytest.mark.parametrize("engine, builder, seed", [
    *[(engine, build_metropolis, seed) for engine in ("exact_diffusion", "extra")
      for seed in (31, 32, 33)],
    *[("exact_diffusion_pd", build_metropolis, seed) for seed in range(31, 37)],
    *[(engine, build_averaging, seed) for engine in ("exact_diffusion", "exact_diffusion_pd")
      for seed in (1, 2, 3)]])
def test_scan_bracket_straddles_the_spectral_onset(engine, builder, seed):
    """The empirical bracket agrees with the exact oracle: the exact radius
    is below 1 at mu_stable and above 1 at mu_unstable, on Metropolis and
    averaging matrices."""
    n = 4 + seed % 3 if builder is build_metropolis else 6
    matrix = builder(graphs.random_connected_graph(n, 0.5, seed))
    model = least_squares_model(seed, n, 3, 8)
    scan = stability_scan(engine, model, matrix, np.geomspace(0.01, 1.0, 8),
                          max_iters=1000, stop=1e-10)
    assert scan.refined
    assert (exact_radius(engine, model, matrix, scan.mu_stable) < 1.0
            < exact_radius(engine, model, matrix, scan.mu_unstable))


# ------------------------------------------------------ shared spectral setup


def test_one_spectral_setup_per_matrix(monkeypatch):
    """Every consumer of one balanced matrix shares its spectral setup:
    one bordered solve for p, one symmetric eigendecomposition of
    P^-1/2 A P^1/2, cached by the matrix, from which the closed-form pair
    and the adaptive engine's Perron estimates both come (no eigh of S, no
    eigvalsh of S for ||T_e||), and a single decomposition of B.  No
    array goes through a nonsymmetric eigensolver, no 2N x 2N array is
    2-normed or SVD'd, and the cached blocks keep no array."""
    n = 6
    calls = {"decompose": 0}
    factored, solved, dense_eig, eigh_args, eigvalsh_args = [], [], [], [], []
    pair_args, modes = [], []
    eigh, closed_form = np.linalg.eigh, stability._closed_form_pair
    eigvalsh, perron_modes = np.linalg.eigvalsh, algorithms._perron_modes
    norm, svd, scipy_svd = np.linalg.norm, np.linalg.svd, scipy.linalg.svd

    def recorded(fn, shapes):
        def call(x, *args, **kwargs):
            shapes.append(np.shape(x))
            return fn(x, *args, **kwargs)
        return call

    def counted_norm(x, ord=None, *args, **kwargs):
        if ord == 2:
            factored.append(np.shape(x))
        return norm(x, ord, *args, **kwargs)

    def counted_eigh(x, *args, **kwargs):
        eigh_args.append(np.array(x))
        return eigh(x, *args, **kwargs)

    def counted_eigvalsh(x, *args, **kwargs):
        eigvalsh_args.append(np.array(x))
        return eigvalsh(x, *args, **kwargs)

    def counted_closed_form(*args):
        calls["decompose"] += 1
        pair_args.append(args)
        return closed_form(*args)

    def recorded_modes(matrix):
        modes.append(perron_modes(matrix))
        return modes[-1]

    monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
    monkeypatch.setattr(np.linalg, "eigvalsh", counted_eigvalsh)
    monkeypatch.setattr(algorithms, "_perron_modes", recorded_modes)
    monkeypatch.setattr(stability, "_closed_form_pair", counted_closed_form)
    monkeypatch.setattr(np.linalg, "solve", recorded(np.linalg.solve, solved))
    for module, name in ((np.linalg, "eig"), (np.linalg, "eigvals"),
                         (scipy.linalg, "eig"), (scipy.linalg, "eigvals")):
        monkeypatch.setattr(module, name, recorded(getattr(module, name), dense_eig))
    monkeypatch.setattr(np.linalg, "norm", counted_norm)
    monkeypatch.setattr(np.linalg, "svd", recorded(svd, factored))
    monkeypatch.setattr(scipy.linalg, "svd", recorded(scipy_svd, factored))
    matrix = random_metropolis(n, seed=3)
    model = random_quadratic(n, 2, seed=3)
    perron = matrix.perron
    run("exact_diffusion_pd", model, matrix, StepSizes.from_weights(model.q, perron.p, 0.01),
        max_iters=20)
    run("extra", model, matrix, StepSizes.uniform(0.05, n), max_iters=20)
    run("adaptive_exact_diffusion", model, matrix,
        StepSizes.from_weights(model.q, perron.p, 0.01), max_iters=20)
    stability_scan("exact_diffusion", model, matrix, [0.01, 0.05], max_iters=20)
    stability_scan("adaptive_exact_diffusion", model, matrix, [0.01, 0.05], max_iters=20)
    build_error_dynamics(matrix, model)
    diffusion_step_bound(matrix)
    extra_step_bound(matrix)
    assert decompose_b(matrix).norm_r > 0.0
    # the certificate of B's spectrum reuses the decomposition: no 2N
    # eigensolve, no second eigh
    assert b_spectrum_residual(matrix) <= 1e-8
    assert calls == {"decompose": 1}
    a_tilde = graphs._symmetrized(matrix.a, perron.p)
    assert len(eigh_args) == 1
    assert np.array_equal(eigh_args[0], a_tilde)
    assert not any(np.array_equal(x, matrix.v_squared) for x in eigvalsh_args)
    # the closed-form pair and both adaptive loops read the cached eigenpairs
    lam, u = matrix._eigh
    assert pair_args[0][1] is lam and pair_args[0][2] is u
    assert len(modes) == 2
    for lam_i, uu in modes:
        assert np.array_equal(lam_i[:-1], lam[:-1]) and lam_i[-1] == 1.0
        assert np.array_equal(uu[:, :-1], u[:, :-1] ** 2)
        assert np.array_equal(uu[:, -1], perron.p)
    blocks = matrix._error_blocks
    assert list(vars(blocks)) == ["pair", "radius", "t_d_norm"]
    assert not [k for k, v in vars(blocks).items() if isinstance(v, np.ndarray)]
    assert not any(hasattr(blocks, name) for name in ("t_d", "t_e", "u", "v"))
    assert solved.count((n, n)) == 1
    assert dense_eig == []
    assert matrix.perron is perron
    assert not [shape for shape in factored if 2 * n in shape]


@pytest.mark.parametrize("case, expected", [
    ("run", []),
    ("scan", []),
    ("adaptive run", ["eigh"]),
    ("adaptive scan", ["eigh"]),
    ("analyze metropolis", ["eigh"]),
    ("analyze averaging", ["eigh", "eigvalsh", "eigvalsh", "eigvalsh"]),
    ("one_step_matrix", []),
    ("exact_radius", []),
])
def test_eigensolve_budget_per_command(tmp_path, monkeypatch, case, expected):
    """The N x N eigensolves of each command on a fresh matrix.  No run or
    scan of a non-adaptive engine computes A's spectrum; the adaptive
    engine takes the one `eigh` of At.  `analyze` reads A's eigenvalues from
    that `eigh` too, and for a symmetric doubly stochastic A its norms are
    closed-form; an averaging matrix's non-uniform p keeps the Gram
    `eigvalsh` of ||X_R||, ||X_L|| and ||T_d||.  The one-step maps of both
    engines and their exact radii take none: the maps are built from Abar,
    S and p, and the radii's eigensolves are 2NM x 2NM."""
    n, calls = 12, []
    for name in ("eigh", "eigvalsh", "eigvals"):
        def counted(x, *args, solver=getattr(np.linalg, name), name=name, **kwargs):
            if np.shape(x) == (n, n):
                calls.append(name)
            return solver(x, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    rule = "averaging" if case.endswith("averaging") else "metropolis"
    if case.startswith("analyze"):
        config = tmp_path / "analyze.json"
        config.write_text(json.dumps({
            "seed": 3, "graph": {"kind": "random", "n": n, "edge_probability": 0.4},
            "matrix": {"rule": rule},
            "model": {"kind": "least_squares", "dim": 3, "samples_per_agent": 8}}))
        assert main(["analyze", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
    elif case in ("one_step_matrix", "exact_radius"):
        matrix, model = random_metropolis(n, seed=3, prob=0.4), random_quadratic(n, 3, seed=3)
        for engine in ("exact_diffusion", "extra"):
            if case == "exact_radius":
                exact_radius(engine, model, matrix, 0.01)
            else:
                one_step_matrix(build_error_dynamics(matrix, model), engine, mu=0.01)
    else:
        matrix = random_metropolis(n, seed=3, prob=0.4)
        model = random_quadratic(n, 3, seed=3)
        adaptive = case.startswith("adaptive")
        for engine in (["adaptive_exact_diffusion"] if adaptive else
                       [e for e in ENGINES if e != "adaptive_exact_diffusion"]):
            if case.endswith("run"):
                run(engine, model, matrix, stability._steps_for(engine, model, matrix, 0.01),
                    max_iters=20)
            else:
                stability_scan(engine, model, matrix, [0.01, 0.05], max_iters=20)
    assert calls == expected


def test_error_blocks_keep_n_by_n_pieces_only():
    """The certificate and both bounds at N = 200 retain N x N pieces only,
    and build no 2N x 2N B or T: in units of one (2N)^2 float array, at most
    2 retained (B with the pair's pieces would be 2.25) and 7.5 at the
    peak."""
    matrix = random_metropolis(200, seed=1, prob=0.1)
    unit = 8 * (2 * matrix.n) ** 2
    tracemalloc.start()
    try:
        b_spectrum_residual(matrix)
        diffusion_step_bound(matrix)
        extra_step_bound(matrix)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert retained <= 2 * unit
    assert peak <= 7.5 * unit


# ------------------------------------------- closed-form decomposition of B


def ring_graph(n):
    return Graph(n, frozenset((k, (k + 1) % n) for k in range(n)))


def star_graph(n):
    return Graph(n, frozenset((0, k) for k in range(1, n)))


def complete_graph(n):
    return Graph(n, frozenset((i, j) for i in range(n) for j in range(i + 1, n)))


def relabel(graph, perm):
    return Graph(graph.n, frozenset((int(perm[i]), int(perm[j])) for i, j in graph.edges))


@pytest.mark.parametrize("graph, builder", [(ring_graph(20), build_metropolis),
                                            (star_graph(10), build_averaging)])
def test_alpha_does_not_depend_on_agent_labels(graph, builder):
    # both spectra repeat eigenvalues, so the eigensolver's basis of an
    # eigenspace changes with the labelling; the bounds must not
    matrix = builder(graph)
    perm = np.random.default_rng(5).permutation(graph.n)
    relabelled = builder(relabel(graph, perm))
    assert (diffusion_step_bound(relabelled).alpha
            == pytest.approx(diffusion_step_bound(matrix).alpha, rel=1e-12, abs=0))
    if matrix.is_symmetric_doubly_stochastic:
        assert (extra_step_bound(relabelled).alpha
                == pytest.approx(extra_step_bound(matrix).alpha, rel=1e-12, abs=0))


@pytest.mark.parametrize("n", [8, 20])
def test_alpha_d_of_complete_metropolis_is_sqrt_2n(n):
    alpha = diffusion_step_bound(build_metropolis(complete_graph(n))).alpha
    assert alpha == pytest.approx(np.sqrt(2 * n), rel=1e-12, abs=0)


def lapack_alpha(form, t):
    """alpha = ||X_L|| ||T|| ||X_R|| from a dense eigendecomposition of the
    V-form B (`oracles.v_form`): the two eigenvalues nearest 1 pinned to
    [1; 0], [0; 1], X inverted numerically, each column/inverse-row pair
    balanced to equal norm.  Unique for simple spectra only."""
    n = form.v.shape[0]
    vals, x = scipy.linalg.eig(form.b)
    order = np.argsort(np.abs(vals - 1.0), kind="stable")
    vals, x = vals[order], x[:, order]
    x[:, 0] = np.concatenate([np.ones(n), np.zeros(n)])
    x[:, 1] = np.concatenate([np.zeros(n), np.ones(n)])
    x_inv = np.linalg.inv(x)
    scale = np.sqrt(np.linalg.norm(x_inv, axis=1) / np.linalg.norm(x, axis=0))
    x, x_inv = x * scale, x_inv / scale[:, np.newaxis]
    return vals, np.linalg.norm(x_inv[2:], 2) * np.linalg.norm(t, 2) * np.linalg.norm(x[:, 2:], 2)


def test_closed_form_decomposition_matches_dense_eig():
    checked = 0
    for n in range(3, 13):
        for builder in (random_metropolis, random_averaging):
            matrix = builder(n, seed=n)
            root_p = np.sqrt(matrix.perron.p)
            a_tilde = matrix.a * root_p / root_p[:, np.newaxis]
            if np.diff(np.linalg.eigvalsh((a_tilde + a_tilde.T) / 2)).min() < 1e-6:
                continue  # repeated eigenvalues: no unique reference
            pair, form = decompose_b(matrix), v_form(matrix)
            vals, alpha_d = lapack_alpha(form, form.t_d)
            assert np.abs(np.sort_complex(pair.d) - np.sort_complex(vals)).max() <= 1e-9
            x, x_inv = dense_x(pair), dense_x_inv(pair)
            assert np.abs(form.b @ x - x * pair.d).max() <= 1e-10
            assert np.abs(x_inv @ x - np.eye(2 * n)).max() <= 1e-10
            assert diffusion_step_bound(matrix).alpha == pytest.approx(alpha_d, rel=1e-9)
            if matrix.is_symmetric_doubly_stochastic:
                _, alpha_e = lapack_alpha(form, form.t_e)
                assert extra_step_bound(matrix).alpha == pytest.approx(alpha_e, rel=1e-9)
            checked += 1
    assert checked >= 12


def path_graph(n):
    return Graph(n, frozenset((k, k + 1) for k in range(n - 1)))


def random_graph(n):
    return random_connected_graph(n, 0.3, seed=n)


@pytest.mark.parametrize("builder", [build_metropolis, build_averaging])
@pytest.mark.parametrize("network, sizes", [(ring_graph, (3, 4, 9, 60)),
                                            (star_graph, (2, 3, 10, 60)),
                                            (path_graph, (2, 5, 17, 60)),
                                            (complete_graph, (2, 3, 8, 40)),
                                            (random_graph, (2, 6, 23, 60))])
def test_closed_form_norms_match_the_dense_oracle(network, sizes, builder):
    """||X_R||, ||X_L|| and ||T_d|| from N-row pieces, and the closed-form
    ||T_e|| of a symmetric doubly stochastic matrix, equal the 2-norms of
    the dense 2N matrices.  For such a matrix ||T_d|| = 1: its square is
    max over the eigenvalues lam of A of ((1 + lam)/2)^2 (1 + (1 - lam)/(2N)),
    which increases on [-1, 1].  Rings, stars and complete graphs repeat
    eigenvalues, so the eigensolver's basis of an eigenspace is arbitrary;
    the dense X it gives must still diagonalize B."""
    def rel(closed, dense):
        return abs(closed - dense) / dense

    for n in sizes:
        matrix = builder(network(n))
        form = v_form(matrix)
        t_d_norm = matrix._error_blocks.t_d_norm
        assert rel(t_d_norm, np.linalg.norm(form.t_d, 2)) <= 1e-12
        if matrix.is_symmetric_doubly_stochastic:
            assert abs(t_d_norm - 1.0) <= 1e-14
            assert rel(extra_step_bound(matrix).t_norm, np.linalg.norm(form.t_e, 2)) <= 1e-12
        pair = decompose_b(matrix)
        x, x_inv = dense_x(pair), dense_x_inv(pair)
        assert rel(pair.norm_r, np.linalg.norm(x[:, 2:], 2)) <= 1e-12
        assert rel(pair.norm_l, np.linalg.norm(x_inv[2:], 2)) <= 1e-12
        assert np.abs(form.b @ x - x * pair.d).max() <= 1e-10
        assert np.abs(x_inv @ x - np.eye(2 * n)).max() <= 1e-10


@pytest.mark.parametrize("n", [8, 20, 40])
@pytest.mark.parametrize("network, builder", [(complete_graph, build_metropolis),
                                              (ring_graph, build_metropolis),
                                              (star_graph, build_averaging)])
def test_one_step_map_contracts_at_the_bound(network, builder, n):
    """At mu_bound the one-step error map contracts: its exact radius, less
    the dim invariant unit eigenvalues (the dual consensus direction), is
    below 1."""
    graph = network(n)
    matrix = builder(graph)
    dim = 2
    model = random_quadratic(graph.n, dim, seed=graph.n)
    nu, delta, k_o = hessian_bounds(model)
    ratio = model.q / matrix.perron.p
    bounds = [("exact_diffusion", diffusion_step_bound(matrix, tau=ratio / ratio.max(), nu=nu,
                                                       delta=delta, k_o=k_o).mu_bound)]
    if matrix.is_symmetric_doubly_stochastic:
        bounds.append(("extra", extra_step_bound(matrix, nu, delta).mu_bound))
    for engine, mu in bounds:
        assert exact_radius(engine, model, matrix, mu) < 1.0


@pytest.mark.parametrize("network, seed", [("random-10", seed) for seed in range(5)]
                         + [("criterion-10", index) for index in range(20)])
def test_exact_rate_is_within_the_bound_rate(network, seed):
    """Below mu_bound the exact rate beats the bound's: `exact_radius` <=
    rho_at(mu).

    rho_at is the largest column sum of Part II's 2 x 2 recursion on the
    squared norms of the transformed error's two blocks,
    ||e_i||^2 <= (1 - sigma11 mu) ||e_{i-1}||^2 + (sigma12^2 mu / sigma11)
    ||e'_{i-1}||^2 and ||e'_i||^2 <= lam ||e'_{i-1}||^2 + 2 mu^2 / (1 - lam)
    (sigma21^2 ||e_{i-1}||^2 + sigma22^2 ||e'_{i-1}||^2), so it contracts the
    squared error norm and the paper gives rho^2 <= rho_at(mu).  The test
    asserts the stronger rho <= rho_at(mu), which holds with 1 - rho at
    least 2.8 times 1 - rho_at(mu) on these networks: random N = 10 ones,
    and the N = 3 to 6 networks of `_criterion_10_ensemble` (index `seed`)."""
    dim = 3
    matrix = (random_metropolis(10, seed=seed, prob=0.4) if network == "random-10"
              else _criterion_10_ensemble()[seed])
    n = matrix.n
    model = least_squares_model(seed, n, dim, 8)
    nu, delta, k_o = hessian_bounds(model)
    ratio = model.q / matrix.perron.p
    bounds = [diffusion_step_bound(matrix, tau=ratio / ratio.max(), nu=nu, delta=delta, k_o=k_o),
              extra_step_bound(matrix, nu, delta)]
    for engine, bound in zip(("exact_diffusion", "extra"), bounds):
        for fraction in (0.25, 0.5, 0.9):
            mu = fraction * bound.mu_bound
            assert exact_radius(engine, model, matrix, mu) <= bound.rho_at(mu) < 1.0
