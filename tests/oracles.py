"""Test oracles: independent re-derivations the suite checks the program
against.  None of them is part of the library."""

import csv

import numpy as np
import scipy.sparse
import scipy.sparse.csgraph

from decentopt import StepSizes, TraceRecord, predicted_b_spectrum, solve_centralized
from decentopt.algorithms import (
    ENGINE_SPECS,
    _engine_context,
    _exhausted_verdict,
    _lookback,
    init_state,
)


def read_trace_csv(path) -> list:
    """The TraceRecords of a trace.csv written by `write_trace_csv`."""
    with open(path, newline="") as fh:
        return [TraceRecord(iteration=int(row["iter"]), comm_units=int(row["comm_units"]),
                            rel_error=float(row["rel_error"]),
                            grad_norm=float(row["grad_norm"]))
                for row in csv.DictReader(fh)]


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


def simulate_error_recursion(dyn, model, steps: StepSizes, w0: np.ndarray, iters: int,
                             engine: str = "exact_diffusion_pd") -> np.ndarray:
    """Run the actual engine and return its stacked errors
    [W_i - W*; Y_i - Y*], shape (iters + 1, 2N, M) with row 0 the seed.

    The engine carries z = V y, which lies in the range of V, so
    Y_i = pinv(V) z_i, with V = -P B[:N, N:] the factor B is built from.
    Cross-check target: errors[i] must equal the one-step matrix applied
    i times to errors[0] when the costs are quadratic.
    """
    if engine not in ("exact_diffusion_pd", "extra"):
        raise ValueError("error recursion is defined for exact_diffusion_pd and extra")
    n, m = model.n_agents, model.dim
    gt = solve_centralized(model)
    g = model.grad_at(gt.w_star if engine == "exact_diffusion_pd" else gt.w_o)
    matrix = dyn.matrix
    pinv_v = np.linalg.pinv(-matrix.perron.p[:, np.newaxis] * dyn.b[:n, n:])
    if engine == "exact_diffusion_pd":
        w_ref = gt.w_star
        y_ref = -pinv_v @ (matrix.perron.p[:, np.newaxis]
                           * (matrix.abar.T @ (steps.mu[:, np.newaxis] * g)))
    else:
        w_ref = gt.w_o
        y_ref = -(steps.mu[0] / n) * (pinv_v @ g)

    ctx = _engine_context(engine, model, matrix, steps)
    state = init_state(engine, model, matrix, np.asarray(w0, dtype=float))
    step = ENGINE_SPECS[engine].step
    errors = np.empty((iters + 1, 2 * n, m))
    errors[0] = np.vstack([state.w - w_ref, pinv_v @ state.y - y_ref])
    for i in range(1, iters + 1):
        step(state, ctx)
        errors[i] = np.vstack([state.w - w_ref, pinv_v @ state.y - y_ref])
    return errors


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


def greedy_spectrum_gap(dyn, b=None) -> float:
    """Largest gap between the dense `eigvals` of B (or of b, when given)
    and the closed-form prediction, under greedy multiset matching.
    Sorting both lists is not enough: repeated eigenvalues (for example
    Abar spectra like {1, 1/2, 1/2}) interleave their conjugate pairs
    differently once float fuzz enters the real parts.  A small-N oracle:
    it takes a 2N x 2N nonsymmetric eigensolve."""
    actual = np.linalg.eigvals(dyn.b if b is None else b)
    worst = 0.0
    for value in predicted_b_spectrum(dyn.matrix):
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
