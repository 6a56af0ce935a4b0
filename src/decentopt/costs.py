"""Per-agent cost functions with gradients, curvature constants, and
centralized ground-truth solvers.

Every model exposes the aggregate weights q (defaults to all-ones).  The
weighted problem is min_w sum_k q_k J_k(w); the uniform problem replaces
q with ones.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


# a quadratic aggregate Hessian is positive definite when its smallest
# eigenvalue exceeds this fraction of its largest
PD_REL_TOL = 1e-10


class ConvergenceError(RuntimeError):
    """Centralized solver failed to reach its tolerance, or the problem
    has no unique minimizer."""


@dataclass(frozen=True)
class GroundTruth:
    """Minimizers of the weighted (w_star) and uniform (w_o) aggregate
    problems, plus the worst gradient norm at the reported solutions."""

    w_star: np.ndarray
    w_o: np.ndarray
    solver_residual: float


class CostModel:
    """Base class: N agents, M-dimensional variable, positive weights q."""

    kind = "base"

    def __init__(self, n_agents: int, dim: int, q=None):
        self.n_agents = int(n_agents)
        self.dim = int(dim)
        if self.n_agents < 1 or self.dim < 1:
            raise ValueError("n_agents and dim must be positive")
        self.q = np.ones(self.n_agents) if q is None else np.asarray(q, dtype=float)
        if self.q.shape != (self.n_agents,) or not np.all((self.q > 0) & (self.q < np.inf)):
            raise ValueError("q must be a positive finite length-N vector")

    def grad(self, w: np.ndarray) -> np.ndarray:
        """Per-agent gradients at per-agent points, shaped like w: an (N, M)
        block or an agent-major stack of B of them, (N, B*M) or (N, B, M)."""
        raise NotImplementedError

    def grad_at(self, x: np.ndarray) -> np.ndarray:
        """All agents' gradients at the common point x; result is (N, M)."""
        raise NotImplementedError

    def value_at(self, x: np.ndarray) -> np.ndarray:
        """Per-agent costs J_k(x); result is (N,)."""
        raise NotImplementedError

    def weighted_grad(self, x: np.ndarray) -> np.ndarray:
        """Gradient of sum_k q_k J_k at x."""
        return self.q @ self.grad_at(x)


class QuadraticModel(CostModel):
    """J_k(w) = 0.5 w^T H_k w - b_k^T w + c_k with constant Hessians."""

    kind = "quadratic"

    def __init__(self, h: np.ndarray, b: np.ndarray, const=None, q=None):
        h = np.asarray(h, dtype=float)
        b = np.asarray(b, dtype=float)
        n, m = b.shape
        if h.shape != (n, m, m):
            raise ValueError(f"Hessian stack shape {h.shape} does not match {(n, m, m)}")
        super().__init__(n, m, q=q)
        self.h = h
        self.b = b
        self.const = np.zeros(n) if const is None else np.asarray(const, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
            self._h_q = np.einsum("k,kij->ij", self.q, h)  # sum_k q_k J_k's Hessian
            self._b_q = self.q @ b  # and its linear term
        finite = [bool(np.isfinite(x).all()) for x in (h, b, self._h_q, self._b_q)]
        if all(finite[:2]) and not all(finite[2:]):  # NaN data is left to solve_centralized
            raise ValueError("the q-weighted aggregate overflows: weights q or data too large")
        self._h_t = np.ascontiguousarray(h.transpose(0, 2, 1))
        self._b_stack = b[:, np.newaxis]  # b as an (N, B, M) stack, for the last B grad saw

    def grad(self, w):
        """Per-agent gradients H_k w_k - b_k of an (N, M) block or an
        agent-major stack, (N, B*M) or (N, B, M): one (B, M) x (M, M) product
        per agent, every member's row k times H_k^T."""
        hw = np.matmul(w.reshape(self.n_agents, -1, self.dim), self._h_t)
        b = self._b_stack
        if b.shape != hw.shape:  # b in full, so that the subtraction needs no broadcasting
            b = self._b_stack = np.repeat(self.b[:, np.newaxis], hw.shape[1], axis=1)
        hw -= b
        return hw.reshape(w.shape)

    def grad_at(self, x):
        return self.h @ x - self.b

    def value_at(self, x):
        return 0.5 * (x @ self.h @ x) - self.b @ x + self.const

    def weighted_grad(self, x):
        return self._h_q @ x - self._b_q

    def hessians(self) -> np.ndarray:
        """Constant per-agent Hessians, shape (N, M, M)."""
        return self.h


class LeastSquaresModel(QuadraticModel):
    """J_k(w) = 0.5 ||U_k w - d_k||^2 over per-agent data (U_k, d_k)."""

    kind = "least_squares"

    def __init__(self, u: np.ndarray, d: np.ndarray, q=None):
        u = np.asarray(u, dtype=float)
        d = np.asarray(d, dtype=float)
        h = np.einsum("ksi,ksj->kij", u, u)
        b = np.einsum("ksi,ks->ki", u, d)
        const = 0.5 * np.einsum("ks,ks->k", d, d)
        super().__init__(h, b, const=const, q=q)
        self.u = u
        self.d = d


class MSEQuadraticModel(QuadraticModel):
    """J_k(w) = 0.5 (w^T R_k w - 2 r_k^T w) with given covariance data."""

    kind = "mse_quadratic"

    def __init__(self, covariances, cross_vectors, q=None):
        covariances = np.asarray(covariances, dtype=float)
        for k, rk in enumerate(covariances):
            # NaN-safe on the off-diagonal pairs; a NaN diagonal is left to
            # solve_centralized, which raises ConvergenceError on it
            if not np.abs(np.triu(rk, 1) - np.tril(rk, -1).T).max() <= 1e-10:
                raise ValueError(f"covariance R_{k} is not symmetric")
        super().__init__(covariances, cross_vectors, q=q)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(z)), in place on z.  z is first clipped at 709, below
    exp's overflow at 709.78, so no warning is raised and no np.errstate is
    entered; the clipped value gives 1.2e-308, within 2.3e-308 of the exact
    value for every larger z.  NaN stays NaN."""
    np.minimum(z, 709.0, out=z)
    np.exp(z, out=z)
    z += 1.0
    return np.reciprocal(z, out=z)


class LogisticModel(CostModel):
    """Regularized logistic regression:
    J_k(w) = (1/L) sum_l ln(1 + exp(-gamma_{kl} h_{kl}^T w)) + (rho/2)||w||^2.
    The signed features gamma_{kl} h_{kl} are stored once (`signed`); as
    gamma = +-1, every margin and gradient formed from them is exactly the
    one formed from h and gamma apart.
    """

    kind = "logistic"

    def __init__(self, features: np.ndarray, labels: np.ndarray, ridge: float, q=None):
        features = np.asarray(features, dtype=float)  # (N, L, M)
        labels = np.asarray(labels, dtype=float)      # (N, L) in {-1, +1}
        n, n_samples, m = features.shape
        if labels.shape != (n, n_samples):
            raise ValueError("labels shape does not match features")
        if not ridge > 0:
            raise ValueError("ridge must be positive")
        super().__init__(n, m, q=q)
        self.features = features
        self.labels = labels
        self.signed = labels[:, :, np.newaxis] * features
        self.ridge = float(ridge)
        self.n_samples = n_samples

    def _margins_at(self, x):
        return self.signed @ x

    def grad(self, w):
        """Per-agent gradients -(1/L) sum_l s_l gamma_l h_l + rho w_k, with
        s_l = 1 / (1 + exp(gamma_l h_l^T w_k)), of an (N, M) block or an
        agent-major stack, (N, B*M) or (N, B, M)."""
        # an (N, B*M) stack as its (N, B, M) view: 3-D ufuncs on a block cost 2 us more
        ws = w if w.shape[-1] == self.dim else w.reshape(self.n_agents, -1, self.dim)
        s = _sigmoid(np.einsum("klm,k...m->...kl", self.signed, ws))  # member-major
        data = np.einsum("klm,...kl->k...m", self.signed, s)
        data /= -self.n_samples
        data += self.ridge * ws
        return data.reshape(w.shape)

    def grad_at(self, x):
        data = np.einsum("klm,kl->km", self.signed, _sigmoid(self._margins_at(x)))
        data /= -self.n_samples
        data += self.ridge * x
        return data

    def value_at(self, x):
        losses = np.logaddexp(0.0, -self._margins_at(x)).mean(axis=1)
        return losses + 0.5 * self.ridge * float(x @ x)


def least_squares_model(seed: int, n_agents: int, dim: int,
                        samples_per_agent: int, q=None) -> LeastSquaresModel:
    """Seeded synthetic least-squares data: standard-normal U_k and d_k."""
    rng = np.random.default_rng(seed)
    u = rng.standard_normal((n_agents, samples_per_agent, dim))
    d = rng.standard_normal((n_agents, samples_per_agent))
    return LeastSquaresModel(u, d, q=q)


def logistic_model(seed: int, n_agents: int, dim: int, samples_per_agent: int,
                   ridge: float, q=None) -> LogisticModel:
    """Seeded synthetic classification data: normal features, labels from a
    planted weight vector with additive label noise."""
    rng = np.random.default_rng(seed)
    features = rng.standard_normal((n_agents, samples_per_agent, dim))
    w_plant = rng.standard_normal(dim)
    noise = 0.5 * rng.standard_normal((n_agents, samples_per_agent))
    labels = np.where(features @ w_plant + noise >= 0, 1.0, -1.0)
    return LogisticModel(features, labels, ridge, q=q)


def mse_quadratic_model(n_agents: int, dim: int, covariances, cross_vectors,
                        q=None) -> MSEQuadraticModel:
    """Model over given covariance data; raises ValueError when n_agents
    or dim contradicts the data's shape."""
    model = MSEQuadraticModel(covariances, cross_vectors, q=q)
    if (model.n_agents, model.dim) != (n_agents, dim):
        raise ValueError(f"covariance data hold {model.n_agents} agents of dimension "
                         f"{model.dim}, not {n_agents} of dimension {dim}")
    return model


def model_from_config(cfg: dict) -> CostModel:
    """Build a model from a JSON-friendly config dict, such as the CLI's
    `model` section."""
    kind = cfg.get("kind")
    q = cfg.get("q")
    if kind == "least_squares":
        return least_squares_model(cfg["seed"], cfg["n_agents"], cfg["dim"],
                                   cfg["samples_per_agent"], q=q)
    if kind == "logistic":
        return logistic_model(cfg["seed"], cfg["n_agents"], cfg["dim"],
                              cfg["samples_per_agent"], cfg["ridge"], q=q)
    if kind == "mse_quadratic":
        return mse_quadratic_model(cfg["n_agents"], cfg["dim"],
                                   cfg["covariances"], cfg["cross_vectors"], q=q)
    raise ValueError(f"unknown model kind {kind!r}")


def _solve_quadratic(model: QuadraticModel, weights: np.ndarray) -> np.ndarray:
    h_sum = np.einsum("k,kij->ij", weights, model.h)
    if np.isinf(h_sum).any():  # einsum overflows with no FloatingPointError
        raise ConvergenceError("the weighted aggregate Hessian overflows")
    eigs = np.linalg.eigvalsh(h_sum)
    if not eigs[0] > PD_REL_TOL * abs(eigs[-1]):  # NaN data fails too
        raise ConvergenceError(
            f"aggregate Hessian is not positive definite (smallest eigenvalue {eigs[0]:.3e}, "
            f"largest {eigs[-1]:.3e}), so the minimizer is not unique"
        )
    return np.linalg.solve(h_sum, weights @ model.b)


def _solve_logistic(model: LogisticModel, weights: np.ndarray,
                    tol: float = 1e-12, max_iter: int = 100):
    """Damped Newton on sum_k w_k J_k from x = 0 with the analytic Hessian
    sum_k w_k [(1/L) sum_l s(1-s) h h^T + rho I], s = 1 / (1 + exp(margin)).  The
    Armijo backtracking on f has a slack of 1e-15 |f|, so full steps pass
    once f cannot resolve the decrease; it gives up after 100 halvings
    (a NaN objective, say).  Returns (x, gradient norm)."""

    def f(x):
        return float(weights @ model.value_at(x))

    x = np.zeros(model.dim)
    fx = f(x)
    feats = model.features.reshape(-1, model.dim)
    ridge_hess = model.ridge * weights.sum() * np.eye(model.dim)
    for _ in range(max_iter):
        g = weights @ model.grad_at(x)
        if np.linalg.norm(g) <= tol:
            break
        s = _sigmoid(model._margins_at(x))
        curv = (weights[:, np.newaxis] * s * (1.0 - s)).reshape(-1) / model.n_samples
        step = np.linalg.solve(feats.T @ (curv[:, np.newaxis] * feats) + ridge_hess, g)
        decrease = float(g @ step)
        t = 1.0
        for _ in range(100):
            x_new = x - t * step
            fx_new = f(x_new)
            if fx_new <= fx - 1e-4 * t * decrease + 1e-15 * abs(fx):
                break
            t *= 0.5
        else:
            raise ConvergenceError(f"logistic line search found no decrease at f = {fx:.3e}")
        x, fx = x_new, fx_new
    residual = float(np.linalg.norm(weights @ model.grad_at(x)))
    if residual > 1e-8:
        raise ConvergenceError(f"logistic solver stopped at gradient norm {residual:.3e}")
    return x, residual


def solve_centralized(model: CostModel) -> GroundTruth:
    """Ground truth for the weighted and uniform aggregate problems.

    Quadratics are solved directly and must have a positive definite
    aggregate Hessian (smallest eigenvalue above 1e-10 times the largest);
    otherwise the minimizer is not unique and ConvergenceError is raised.
    The direct solve must also leave a residual of at most 1e-10.  NaN
    data fails one of these two checks, so it raises too.
    Logistic models run damped Newton from zero down to gradient norm
    1e-12, with a hard failure above 1e-8.  An overflow anywhere in the
    solve raises ConvergenceError too.
    """
    ones = np.ones(model.n_agents)
    try:
        with np.errstate(over="raise"):
            if isinstance(model, QuadraticModel):
                w_star = _solve_quadratic(model, model.q)
                w_o = _solve_quadratic(model, ones)
                residual = max(float(np.linalg.norm(model.weighted_grad(w_star))),
                               float(np.linalg.norm(ones @ model.grad_at(w_o))))
                if not residual <= 1e-10:
                    raise ConvergenceError(f"direct solve residual {residual:.3e}")
                return GroundTruth(w_star=w_star, w_o=w_o, solver_residual=residual)
            if isinstance(model, LogisticModel):
                w_star, r1 = _solve_logistic(model, model.q)
                if np.array_equal(model.q, ones):
                    w_o, r2 = w_star.copy(), r1
                else:
                    w_o, r2 = _solve_logistic(model, ones)
                return GroundTruth(w_star=w_star, w_o=w_o, solver_residual=max(r1, r2))
    except FloatingPointError as exc:
        raise ConvergenceError(f"the q-weighted aggregate overflows in the ground-truth "
                               f"solve ({exc})") from None
    raise TypeError(f"no centralized solver for model kind {model.kind!r}")


def hessian_bounds(model: CostModel):
    """Curvature constants (nu, delta, k_o).

    delta bounds every agent's Hessian from above; nu is the best
    per-agent lower curvature bound, attained at agent k_o (ties broken
    by smallest index).  Raises ValueError when no agent is strongly
    convex.
    """
    if isinstance(model, QuadraticModel):
        eigs = np.linalg.eigvalsh(model.h)  # (N, M), ascending per agent
        lam_min = eigs[:, 0]
        lam_max = eigs[:, -1]
        delta = float(lam_max.max())
        k_o = int(np.argmax(lam_min))
        nu = float(lam_min[k_o])
        if not nu > 0:
            raise ValueError("no agent has a strongly convex cost (nu <= 0)")
        return nu, delta, k_o
    if isinstance(model, LogisticModel):
        # data-term curvature is at most s_max(H_k)^2 / (4 L)
        smax = np.linalg.svd(model.features, compute_uv=False)[:, 0]
        delta = model.ridge + float((smax ** 2).max()) / (4.0 * model.n_samples)
        return model.ridge, delta, 0
    raise TypeError(f"no curvature bounds for model kind {model.kind!r}")
