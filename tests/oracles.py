"""Test oracles: independent re-derivations the suite checks the program
against.  None of them is part of the library."""

import csv
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.csgraph

from decentopt import StepSizes, TraceRecord, matrix_from_array, solve_centralized
from decentopt.algorithms import (
    DIVERGENCE_CAP,
    ENGINE_SPECS,
    AlgorithmState,
    RunResult,
    _exhausted_verdict,
    _lookback,
    init_state,
)
from decentopt.spectral import dual_vectors


def read_trace_csv(path) -> list:
    """The TraceRecords of a trace.csv that `decentopt run` wrote."""
    with open(path, newline="") as fh:
        return [TraceRecord(iteration=int(row["iter"]), comm_units=int(row["comm_units"]),
                            rel_error=float(row["rel_error"]),
                            grad_norm=float(row["grad_norm"]))
                for row in csv.DictReader(fh)]


@dataclass
class ReferenceRun(RunResult):
    """A `reference_run` result: `run`'s fields, and the final state and the
    histories `run` does not keep."""

    state: AlgorithmState = None
    iterates: list = None
    # the dual block y at every iteration, for engines that carry one: V y
    # for exact_diffusion_pd and extra
    dual_iterates: list = None
    # the adaptive engine's Perron estimate diag((A^T)^i) after each step
    perron_estimates: list = None


def reference_run(engine, model, matrix, steps, max_iters=4000, stop=1e-8, w0=None,
                  ground_truth=None) -> ReferenceRun:
    """`run` as one unstacked loop with its own telemetry, as it was before
    `run` became a one-member stack of the loop the scans share: an
    independent oracle for that loop, which also keeps every iterate.  It
    trusts its inputs, which must pass `run`'s checks."""
    spec = ENGINE_SPECS[engine]
    gt = solve_centralized(model) if ground_truth is None else ground_truth
    target = gt.w_star if spec.weighted else gt.w_o
    if w0 is None:
        w0 = np.zeros((model.n_agents, model.dim))
    state, ctx = init_state(engine, model, matrix, w0, steps)
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
    iterates = [state.w.copy()]
    duals = None if state.y is None else [state.y.copy()]
    estimates = []
    status = "exhausted"
    if denom == 0.0:
        return ReferenceRun(records, "converged", state.w, state, iterates, duals, estimates)

    for i in range(1, max_iters + 1):
        spec.step(state, ctx)
        rel = rel_error_of(state.w)
        records.append(TraceRecord(i, i * spec.comm_units, rel, grad_norm_of(state.w)))
        if state.z is not None:
            estimates.append(ctx.uu @ state.z)
        iterates.append(state.w.copy())
        if duals is not None:
            duals.append(state.y.copy())
        if not np.isfinite(rel) or rel > DIVERGENCE_CAP:
            status = "diverged"
            break
        if rel <= stop:
            status = "converged"
            break

    return ReferenceRun(records, status, state.w, state, iterates, duals, estimates)


def classify_run(result, max_iters: int) -> str:
    """Map a run outcome to stable/unstable from its trace records alone.
    Budget-exhausted runs count as stable only when the error did not grow
    over the last tenth of the budget."""
    if result.status == "diverged":
        return "unstable"
    if result.status == "converged":
        return "stable"
    rels = [r.rel_error for r in result.records]
    return _exhausted_verdict(rels[-1], rels[max(0, len(rels) - 1 - _lookback(max_iters))])


def symmetric_root(matrix) -> np.ndarray:
    """The symmetric PSD square root of S = (P - A P)/2 of a balanced
    matrix, the paper's dual factor: U sqrt(Sigma) U^T from one `eigh` of
    the matrix's `v_squared`, with eigenvalues below 1e-12 clipped to
    exactly zero."""
    w, u = np.linalg.eigh(matrix.v_squared)
    w[w < 1e-12] = 0.0
    v = (u * np.sqrt(w)) @ u.T
    return (v + v.T) / 2.0


def certify_nullspace(v) -> bool:
    """True iff null(V) = span{1} for a square factor array v: exactly one
    singular value of v at (or below) 1e-10, whose right singular vector
    is parallel to the ones vector."""
    _, sv, vt = np.linalg.svd(v)
    null_mask = sv <= 1e-10
    if null_mask.sum() != 1:
        return False
    n = v.shape[0]
    inner = abs(float(vt[int(np.argmax(null_mask))] @ np.ones(n))) / np.sqrt(n)
    return inner >= 1.0 - 1e-8


def mismatch_decay_check(history, p, rho_a: float, slack: float = 0.02):
    """Verify the adaptive tuner's Perron estimates against the geometric
    envelope |z_i[k] - p_k| <= sqrt(N) rho_a^{i+1}, floored at 1e-12 to
    absorb the floating-point error floor once the signal underflows it.

    Args:
        history: per-iteration diagonal estimates, shape (T, N) (row i
            holds the estimates after i + 1 combine steps).
        p: true Perron vector.
        rho_a: second-largest eigenvalue magnitude of the matrix.

    Returns:
        (ok, fitted_rate): ok requires the envelope to hold everywhere
        and the rate fitted on the pre-floor prefix to be at most
        rho_a + slack.
    """
    hist = np.atleast_2d(np.asarray(history, dtype=float))
    p = np.asarray(p, dtype=float)
    n = p.size
    errs = np.abs(hist - p[np.newaxis, :]).max(axis=1)
    steps = np.arange(1, errs.size + 1)
    envelope = np.maximum(np.sqrt(n) * rho_a ** steps * (1.0 + 1e-6), 1e-12)
    ok_env = bool(np.all(errs <= envelope))
    above = errs > 1e-12
    cut = int(np.argmin(above)) if not above.all() else errs.size
    fitted = 0.0
    if cut >= 2:
        slope = np.polyfit(np.arange(cut), np.log(errs[:cut]), 1)[0]
        fitted = float(np.exp(slope))
    return ok_env and fitted <= rho_a + slack, fitted


def simulate_error_recursion(matrix, model, steps: StepSizes, w0: np.ndarray, iters: int,
                             engine: str = "exact_diffusion_pd") -> np.ndarray:
    """Run the actual engine and return its stacked errors
    [W_i - W*; z_i - z*], shape (iters + 1, 2N, M) with row 0 the seed,
    in the engine's own coordinates: z = V y is the dual block it carries.

    At the fixed point w* is consensus, Abar^T w* = w*, so the primal step
    gives z* = -P Abar^T (mu o grad(w*)) for exact_diffusion_pd and
    z* = -(mu / N) grad(w_o) for extra; both have 1^T z* = 0.
    Cross-check target: errors[i] must equal the one-step matrix applied
    i times to errors[0] when the costs are quadratic.
    """
    if engine not in ("exact_diffusion_pd", "extra"):
        raise ValueError("error recursion is defined for exact_diffusion_pd and extra")
    n, m = model.n_agents, model.dim
    gt = solve_centralized(model)
    g = model.grad_at(gt.w_star if engine == "exact_diffusion_pd" else gt.w_o)
    if engine == "exact_diffusion_pd":
        w_ref = gt.w_star
        z_ref = -matrix.p[:, np.newaxis] * (matrix.abar.T @ (steps.mu[:, np.newaxis] * g))
    else:
        w_ref = gt.w_o
        z_ref = -(steps.mu[0] / n) * g

    state, ctx = init_state(engine, model, matrix, np.asarray(w0, dtype=float), steps)
    step = ENGINE_SPECS[engine].step
    errors = np.empty((iters + 1, 2 * n, m))
    errors[0] = np.vstack([state.w - w_ref, state.y - z_ref])
    for i in range(1, iters + 1):
        step(state, ctx)
        errors[i] = np.vstack([state.w - w_ref, state.y - z_ref])
    return errors


def dual_factor(lam: np.ndarray, u: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(V, H U) from the eigenpairs (lam, u) of At = P^{-1/2} A P^{1/2},
    ascending with the unit eigenvalue last, and the Perron vector p.
    P^{-1/2} S P^{-1/2} = (I - At)/2 = U Sigma U^T, Sigma = (1 - lam)/2 with
    the unit entry exactly 0, so V = P^{1/2} U sqrt(Sigma) (H U)^T has
    V V^T = S.  With H of `decentopt.spectral.dual_vectors`, H 1 is a
    multiple of sqrt(p), so V 1 = 0, and with p = 1/N, V is the symmetric
    root U sqrt(Sigma) U^T / sqrt(N)."""
    sigma = (1.0 - lam) / 2.0
    sigma[-1] = 0.0
    hu = dual_vectors(u, p)
    v = (np.sqrt(p)[:, np.newaxis] * u * np.sqrt(sigma)) @ hu.T
    return v, hu


def v_form(matrix, v=None) -> SimpleNamespace:
    """The V form of the error recursion of a balanced matrix, dense:
    v, B = [[Abar^T, -P^{-1} V], [V^T Abar^T, I - V^T P^{-1} V]],
    T_d = [[Abar^T, 0], [V^T Abar^T, 0]] and T_e = [[I, 0], [V^T, 0]], for
    the factor v (by default `dual_factor` of the matrix's cached
    eigenpairs of At).  A small-N oracle for the engines' (w, z) form."""
    n, p = matrix.n, matrix.p
    if v is None:
        v = dual_factor(*matrix._eigh, p)[0]
    abar_t, pinv_v = matrix.abar.T, v / p[:, np.newaxis]
    b = np.block([[abar_t, -pinv_v], [v.T @ abar_t, np.eye(n) - v.T @ pinv_v]])
    zeros = np.zeros((2 * n, n))
    return SimpleNamespace(v=v, b=b, t_d=np.hstack([b[:, :n], zeros]),
                           t_e=np.hstack([np.vstack([np.eye(n), v.T]), zeros]))


def v_form_one_step(dyn, engine: str, mu, v=None) -> np.ndarray:
    """The V-form one-step map B - T diag(mu_k H_k, 0) of quadratic costs,
    (2 N M, 2 N M) with agent-major flattening, T = T_d or T_e as the
    engine's `error_map` says, for the factor v (see `v_form`)."""
    form = v_form(dyn.matrix, v)
    n, m = dyn.matrix.n, dyn.h.shape[-1]
    mu = np.broadcast_to(np.atleast_1d(np.asarray(mu, dtype=float)), (n,))
    t = getattr(form, ENGINE_SPECS[engine].error_map)
    mh = scipy.linalg.block_diag(*(mu[k] * dyn.h[k] for k in range(n)))
    big = np.kron(form.b, np.eye(m))
    big[:, : n * m] -= np.kron(t, np.eye(m))[:, : n * m] @ mh
    return big


def predicted_b_spectrum(matrix) -> np.ndarray:
    """Closed-form eigenvalues of B: {1, 1} plus, for every non-Perron
    eigenvalue lam of Abar, the roots of d^2 - 2 lam d + lam = 0 (a
    conjugate pair of modulus sqrt(lam)), from A's cached eigenvalues and
    the quadratic formula, independent of `decompose_b`."""
    matrix = matrix_from_array(matrix)
    lams = (1.0 + matrix._eigh[0]) / 2.0  # the eigenvalues of Abar
    lams = np.delete(lams, np.argmin(np.abs(lams - 1.0))).astype(complex)
    root = np.sqrt(lams * lams - lams)
    return np.sort_complex(np.concatenate([[1.0, 1.0], lams + root, lams - root]))


def dense_x(pair) -> np.ndarray:
    """The right eigenvectors of B as columns, shape (2N, 2N), built from
    the N-row pieces of a `SpectralPair`."""
    n = pair.p.size
    x = np.zeros((2 * n, 2 * n), dtype=complex)
    x[:n, 0] = x[n:, 1] = 1.0
    for first, sign in ((2, 1.0), (3, -1.0)):
        x[:n, first::2] = pair.x_top
        x[n:, first::2] = -sign * 1j * pair.r_right * pair.r
    return x


def dense_x_inv(pair) -> np.ndarray:
    """The closed-form inverse of `dense_x(pair)`, shape (2N, 2N)."""
    n = pair.p.size
    x_inv = np.zeros((2 * n, 2 * n), dtype=complex)
    x_inv[0, :n] = pair.p
    x_inv[1, n:] = 1.0 / n
    for first, sign in ((2, 1.0), (3, -1.0)):
        x_inv[first::2, :n] = pair.y_top.T
        x_inv[first::2, n:] = (sign * 1j * pair.r_left * pair.r).T
    return x_inv


def greedy_spectrum_gap(matrix, b=None) -> float:
    """Largest gap between the dense `eigvals` of the V-form B (`v_form`,
    or of b, when given) and the closed-form prediction, under greedy
    multiset matching.
    Sorting both lists is not enough: repeated eigenvalues (for example
    Abar spectra like {1, 1/2, 1/2}) interleave their conjugate pairs
    differently once float fuzz enters the real parts.  A small-N oracle:
    it takes a 2N x 2N nonsymmetric eigensolve."""
    actual = np.linalg.eigvals(v_form(matrix).b if b is None else b)
    worst = 0.0
    for value in predicted_b_spectrum(matrix):
        diff = actual - value
        # hypot rounds as abs(complex) does; np.abs of complex values can
        # differ from both in the last bit
        gaps = np.hypot(diff.real, diff.imag)
        k = int(np.argmin(gaps))
        worst = max(worst, float(gaps[k]))
        actual[k] = np.inf  # matched
    return worst


def power_iteration_diagonals(a, steps: int) -> np.ndarray:
    """The adaptive engine's Perron estimates diag((A^T)^i) for i = 1..steps,
    shape (steps, N), from the power iteration Z <- A^T Z seeded at I that
    forms every N x N power.  A^T is applied in scipy's CSR form, which keeps
    N = 400 affordable and shares no code with the engines' operators."""
    a = np.asarray(a, dtype=float)
    a_t = scipy.sparse.csr_array(a.T)
    z = np.eye(a.shape[0])
    out = np.empty((steps, a.shape[0]))
    for i in range(steps):
        z = a_t @ z
        out[i] = z.diagonal()
    return out


def component_labels_oracle(n: int, edges) -> np.ndarray:
    """Each agent's component label as the smallest agent in its component,
    for the undirected graph on n agents with the (i, j) pairs `edges`, from
    scipy's component search."""
    ij = np.asarray(list(edges), dtype=np.int64).reshape(-1, 2)
    adj = scipy.sparse.coo_array((np.ones(len(ij)), (ij[:, 0], ij[:, 1])), shape=(n, n))
    _, labels = scipy.sparse.csgraph.connected_components(adj, directed=False)
    smallest = np.full(labels.max() + 1, n)
    np.minimum.at(smallest, labels, np.arange(n))
    return smallest[labels]


def connected_oracle(n: int, edges) -> bool:
    """Whether the undirected graph on n agents with the (i, j) pairs `edges`
    is connected, from scipy's component search."""
    return not component_labels_oracle(n, edges).any()


def strongly_connected_oracle(a) -> bool:
    """Whether the directed support of A (an arc l -> k where a[l, k] > 0) is
    strongly connected, from scipy's strong-component search."""
    support = scipy.sparse.csr_array(np.asarray(a) > 0)
    ncomp, _ = scipy.sparse.csgraph.connected_components(
        support, directed=True, connection="strong")
    return ncomp == 1


# The dense construction the edge form replaced: each rule's N x N array,
# the bordered Perron solve, and the arrays and checks derived from A.


def dense_metropolis(graph) -> np.ndarray:
    """The Metropolis A as the dense builder formed it."""
    n = graph.n
    i, j = graph._ij.T
    deg = graph.degrees()
    a = np.zeros((n, n))
    a[i, j] = a[j, i] = 1.0 / (1.0 + np.maximum(deg[i], deg[j]))
    a[np.diag_indices(n)] = 1.0 - a.sum(axis=0)
    return a


def dense_averaging(graph) -> np.ndarray:
    """The averaging A as the dense builder formed it."""
    i, j = graph._ij.T
    w = 1.0 / (1.0 + graph.degrees())
    a = np.diag(w)
    a[i, j] = w[j]
    a[j, i] = w[i]
    return a


def bordered_perron(a) -> np.ndarray:
    """p from the bordered solve: (I - A) p = 0 with its last row replaced
    by 1^T p = 1."""
    n = a.shape[0]
    bordered = np.eye(n) - a
    bordered[-1] = 1.0
    return np.linalg.solve(bordered, np.eye(n)[-1])


def dense_abar(a) -> np.ndarray:
    return (np.eye(a.shape[0]) + a) / 2.0


def dense_v_squared(a, p) -> np.ndarray:
    """S = (P - A P)/2, symmetrized, as formed from the dense A."""
    s = (np.diag(p) - a * p[np.newaxis, :]) / 2.0
    return (s + s.T) / 2.0


def dense_operators(a, p) -> dict:
    """Each engine operator's dense form, by the matrix attribute it fills."""
    abar = dense_abar(a)
    return {"_a_t_op": a.T, "_abar_t_op": abar.T, "_abar_op": abar,
            "_dual_op": dense_v_squared(a, p)}


def dense_checks(a, p, sparse_min_agents: int, sparse_max_density: float) -> dict:
    """The matrix's predicates as the dense code computed them: the balance
    residual, double and symmetric double stochasticity (within 1e-10) and
    whether its operators take CSR form."""
    n = a.shape[0]
    doubly = bool(np.abs(a.sum(axis=1) - 1.0).max() <= 1e-10)
    return {
        "balance": float(np.abs(p[:, np.newaxis] * a.T - a * p).max()),
        "doubly": doubly,
        "symmetric": doubly and bool(np.abs(a - a.T).max() <= 1e-10),
        "sparse": n >= sparse_min_agents and np.count_nonzero(a) <= sparse_max_density * n * n,
    }
