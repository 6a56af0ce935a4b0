"""Error dynamics, eigenstructure, and step-size stability ranges.

For a balanced combination matrix A with Perron vector p and dual factor
V (`spectral.dual_factor`: V V^T = (P - A P)/2 and null(V) = span{1}),
the distance-to-solution recursion of the correction-term engine is
driven by

    B   = [[Abar^T, -P^{-1} V], [V^T Abar^T, I - V^T P^{-1} V]]
    T_d = [[Abar^T, 0], [V^T Abar^T, 0]]        (gradient enters combined)
    T_e = [[I, 0], [V^T, 0]]                    (gradient enters raw)

with Abar = (I + A)/2 and P = diag(p).  The engines carry z = V y, whose
map depends on V only through V V^T, so any such factor gives the same
B up to an orthogonal change of the dual block.  For quadratic costs the
exact one-step error map is B - T diag(mu_k H_k, 0) lifted agent-wise,
which this module builds, decomposes, and turns into closed-form
step-size bounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .algorithms import ENGINE_SPECS, StepSizes, _iterate
from .costs import CostModel, QuadraticModel, solve_centralized
from .graphs import CombinationMatrix, SpectralError, check_balanced, matrix_from_array
from .spectral import dual_factor

EIGENPAIR_TOL = 1e-8
# bisection levels a scan resolves per stacked run: its 2**3 - 1 members
# are every midpoint the next three bisection steps can visit
SPECULATION_DEPTH = 3


@dataclass(frozen=True)
class _Blocks:
    """B for one matrix, the closed-form decomposition of B
    (`_closed_form_pair`) and the spectral norm of T_d, all computed in one
    pass by `_network_blocks`.  It holds results only, with no reference to
    the matrix that caches it, so it makes no reference cycle and is freed
    with the matrix."""

    b: np.ndarray
    pair: SpectralPair
    t_d_norm: float


def _two_norm(m: np.ndarray) -> float:
    """Largest singular value of a real matrix, from the largest
    eigenvalue of its Gram matrix (0.0 for an empty one)."""
    if m.size == 0:
        return 0.0
    return float(np.sqrt(max(np.linalg.eigvalsh(m @ m.T)[-1], 0.0)))


def _network_blocks(matrix: CombinationMatrix) -> _Blocks:
    """The blocks of `CombinationMatrix._error_blocks` of a balanced matrix
    (else ValueError), from its Perron vector and its cached eigenpairs of
    At = P^{-1/2} A P^{1/2} (`_eigh`), which give V (`dual_factor`) and the
    closed-form pair; ||T_d|| is the largest singular value of B[:, :N]."""
    balanced, violation = check_balanced(matrix)
    if not balanced:
        raise ValueError(f"combination matrix is not balanced (violation {violation:.3e})")
    n = matrix.n
    abar_t = matrix.abar.T
    p = matrix.perron.p
    lam, u = matrix._eigh
    v, hu = dual_factor(lam, u, p)
    pinv_v = v / p[:, np.newaxis]
    b = np.block([[abar_t, -pinv_v], [v.T @ abar_t, np.eye(n) - v.T @ pinv_v]])
    b.flags.writeable = False
    return _Blocks(b=b, pair=_closed_form_pair(b, lam, u, p, hu),
                   t_d_norm=_two_norm(b[:, :n].T))


@dataclass
class ErrorDynamics:
    """The error recursion of a balanced matrix, optionally carrying
    per-agent Hessians and step sizes.  B is read from the matrix's cached
    `_error_blocks`, so every dynamics of one matrix shares it; T_d and
    T_e, which only `one_step_matrix` reads, are built on read."""

    matrix: CombinationMatrix
    h: np.ndarray | None = None
    mu: np.ndarray | None = None

    @property
    def b(self) -> np.ndarray:
        return self.matrix._error_blocks.b

    @property
    def t_d(self) -> np.ndarray:
        """[B[:, :N], 0]: T_d shares B's first N columns."""
        n = self.matrix.n
        return np.hstack([self.b[:, :n], np.zeros((2 * n, n))])

    @property
    def t_e(self) -> np.ndarray:
        """[[I; V^T], 0], with V = -P B[:N, N:]."""
        n = self.matrix.n
        v = -self.matrix.perron.p[:, np.newaxis] * self.b[:n, n:]
        return np.hstack([np.vstack([np.eye(n), v.T]), np.zeros((2 * n, n))])


def build_error_dynamics(matrix, model: CostModel = None,
                         steps: StepSizes = None) -> ErrorDynamics:
    """Assemble the error dynamics of a balanced combination matrix.

    B, its decomposition and the norm of T_d are computed here, once per
    matrix, and shared.  model/steps are optional; they are only needed
    later by one_step_matrix, which requires constant Hessians (quadratic
    costs).
    """
    matrix = matrix_from_array(matrix)
    h = None
    if model is not None:
        if not isinstance(model, QuadraticModel):
            raise TypeError("error dynamics need constant Hessians (quadratic costs)")
        if model.n_agents != matrix.n:
            raise ValueError("model size does not match the combination matrix")
        h = model.hessians()
    matrix._error_blocks  # computed, or raising for an unbalanced matrix, here
    return ErrorDynamics(matrix=matrix, h=h, mu=None if steps is None else steps.mu)


def one_step_matrix(dyn: ErrorDynamics, engine: str = "exact_diffusion",
                    mu=None) -> np.ndarray:
    """Exact one-step error map for quadratic costs, lifted to
    (2 N M, 2 N M) with agent-major flattening: B - T diag(mu_k H_k, 0).
    """
    if dyn.h is None:
        raise ValueError("one_step_matrix needs Hessians; build with a quadratic model")
    if mu is None:
        mu = dyn.mu
    if mu is None:
        raise ValueError("one_step_matrix needs step sizes")
    n = dyn.matrix.n
    mu = np.broadcast_to(np.atleast_1d(np.asarray(mu, dtype=float)), (n,))
    spec = ENGINE_SPECS.get(engine)
    if spec is None or spec.error_map is None:
        raise ValueError(f"no analytic error map for engine {engine!r}")
    t = getattr(dyn, spec.error_map)
    m = dyn.h.shape[-1]
    mh = np.zeros((n * m, n * m))
    agents = np.arange(n)
    mh.reshape(n, m, n, m)[agents, :, agents, :] = mu[:, np.newaxis, np.newaxis] * dyn.h
    big = np.kron(dyn.b, np.eye(m))
    big[:, : n * m] -= np.kron(t, np.eye(m))[:, : n * m] @ mh
    return big


@dataclass
class SpectralPair:
    """Eigendecomposition of B with the unit pair pinned to canonical
    vectors: right columns [1; 0], [0; 1] and inverse rows [p^T, 0],
    [0, 1^T/N].  d[0] = d[1] = 1 exactly; the rest come in conjugate
    pairs with |d| = sqrt(lambda_k(Abar)) < 1.

    The k-th conjugate pair has the right columns
    [x_top[:, k]; -+ i r_right[k] r[:, k]] and the inverse rows
    [y_top[:, k]; +- i r_left[k] r[:, k]], with r's columns orthonormal:
    r is H U of `spectral.dual_factor`, less its unit column, in the
    descending order of d.
    These read-only N-row pieces give ||X_R||, ||X_L|| and
    `b_spectrum_residual` in closed form.  residual bounds
    ||B X - X D||_F, rounding included.
    """

    d: np.ndarray
    p: np.ndarray
    x_top: np.ndarray
    y_top: np.ndarray
    r: np.ndarray
    r_right: np.ndarray
    r_left: np.ndarray
    residual: float

    @cached_property
    def norm_r(self) -> float:
        """||X_R||.  Mixing each conjugate column pair (a, b) into
        (a +- b)/sqrt(2), a unitary change, makes X_R block-diagonal with
        blocks sqrt(2) x_top and sqrt(2) r diag(r_right), and the first
        block is the larger: column k of x_top is P^{-1/2} u_k scale_k,
        whose norm is at least scale_k / sqrt(p_max) > sqrt(lbar_k) scale_k
        = r_right[k]."""
        return float(np.sqrt(2.0) * _two_norm(self.x_top))

    @cached_property
    def norm_l(self) -> float:
        """||X_L||, block-diagonal after the same mixing of row pairs."""
        dual = self.r_left.max(initial=0.0)
        return float(np.sqrt(2.0) * max(_two_norm(self.y_top), dual))


def decompose_b(dyn: ErrorDynamics) -> SpectralPair:
    """Diagonalize B = X D X^{-1} in closed form, with the unit pair pinned.

    With At = P^{-1/2} A P^{1/2} (symmetric for a balanced A), every
    non-Perron eigenpair (lam, u) of At gives x = P^{-1/2} u, an
    eigenvector of A^T, and the unit vector r = V^T x / s with
    s = sqrt((1 - lam)/2), the matching column of H U (`dual_factor`).
    On span{[x; 0], [0; r]} B acts as [[lb, -s], [s lb, lb]] with
    lb = (1 + lam)/2, whose eigenvalues lb +- i sqrt(lb - lb^2) have
    right columns [x; -+ i sqrt(lb) r] and inverse rows
    [(P^{1/2} u)^T / 2, +- i r^T / (2 sqrt(lb))].  The Perron pair gives
    the canonical columns [1; 0], [0; 1] and rows [p^T, 0], [0, 1^T/N].
    Each column/inverse-row pair is rescaled to equal norm, which keeps
    ||X_R|| ||X_L|| small.  Within an eigenspace of At on which p is
    constant these norms do not depend on the basis the eigensolver
    picks, so neither do the bounds built from them.
    ||X_R|| and ||X_L|| come from N x N pieces (see `SpectralPair`).

    The matrix checked at construction that At has exactly one unit
    eigenvalue.  `build_error_dynamics` raises SpectralError when
    max |B X - X D| exceeds 1e-8.  The pair is computed once per matrix
    and shared (read-only).
    """
    return dyn.matrix._error_blocks.pair


def _closed_form_pair(b: np.ndarray, lam: np.ndarray, u: np.ndarray, p: np.ndarray,
                      hu: np.ndarray) -> SpectralPair:
    """The pair of `decompose_b` from the eigenpairs (lam, u) of At,
    ascending with the unit eigenvalue last, as `eigh` returns them, and
    the dual vectors H U of `dual_factor`.

    The eigenpair check max |B X - X D| runs on the blocks of b with
    real N x N products: for the column pair [x; -+ i sqrt(lb) r] at
    lb +- i sqrt(lb) s, B X - X D has the real part
    B[:, :N] x - lb [x; s r] and the imaginary part
    -+ sqrt(lb) (B[:, N:] r + [s x; -lb r]), both times the balancing
    scale, so both columns of a pair share one modulus.

    `residual` adds to the computed ||B X - X D||_F the rounding allowance
    (N + 8) u (|| |B| |X| ||_F + ||X||_F), u = 2^-53 (Higham's gamma_N for
    the N-term products, 8 u for the scaling, X D and d), with |B| |X| at
    most |B|'s row sums per column half times |X|'s column maxima."""
    n = p.size
    root_p = np.sqrt(p)
    # the non-unit pairs, descending, as the eigenvalues of B are listed
    lam, u, r = lam[-2::-1], u[:, -2::-1], np.ascontiguousarray(hu[:, -2::-1])
    lbar = (1.0 + lam) / 2.0
    root_lbar, s = np.sqrt(lbar), np.sqrt(1.0 - lbar)
    x = u / root_p[:, np.newaxis]
    y = u * root_p[:, np.newaxis] / 2.0
    # balance each column/inverse-row pair to equal norm
    scale = np.sqrt(np.sqrt((y * y).sum(axis=0) + 1.0 / (4.0 * lbar))
                    / np.sqrt((x * x).sum(axis=0) + lbar))
    d = np.ones(2 * n, dtype=complex)
    for first, sign in ((2, 1.0), (3, -1.0)):
        d[first::2] = lbar + sign * 1j * np.sqrt(lbar - lbar ** 2)
    real = b[:, :n] @ x - lbar * np.vstack([x, s * r])
    imag = root_lbar * (b[:, n:] @ r + np.vstack([s * x, -lbar * r]))
    unit_cols = np.concatenate([b[:, :n].sum(axis=1) - np.repeat([1.0, 0.0], n),
                                b[:, n:].sum(axis=1) - np.repeat([0.0, 1.0], n)])
    modulus = scale * np.hypot(real, imag)
    worst = max(float(modulus.max(initial=0.0)), float(np.abs(unit_cols).max()))
    if worst > EIGENPAIR_TOL:
        raise SpectralError(f"eigenpair residual {worst:.3e} above tolerance")
    pieces = dict(x_top=x * scale, y_top=y / scale, r=r, r_right=root_lbar * scale,
                  r_left=1.0 / (2.0 * root_lbar * scale))
    # the halves of |X| per conjugate-pair column, and |B| times the unit columns
    halves = [np.abs(pieces["x_top"]), pieces["r_right"] * np.abs(r)]
    rows = np.abs(b).reshape(2 * n, 2, n).sum(axis=2)
    abs_bx = np.hypot(np.sqrt(2.0) * np.linalg.norm(rows @ [h.max(axis=0) for h in halves]),
                      np.linalg.norm(rows))
    norm_x = np.sqrt(2.0 * (n + sum(np.linalg.norm(h) ** 2 for h in halves)))
    residual = float(np.hypot(np.sqrt(2.0) * np.linalg.norm(modulus), np.linalg.norm(unit_cols))
                     + (n + 8) * 2.0 ** -53 * (abs_bx + norm_x))
    for piece in (d, *pieces.values()):
        piece.flags.writeable = False
    return SpectralPair(d=d, p=p, residual=residual, **pieces)


def predicted_b_spectrum(matrix: CombinationMatrix) -> np.ndarray:
    """Closed-form eigenvalues of B: {1, 1} plus, for every non-Perron
    eigenvalue lam of Abar, the roots of d^2 - 2 lam d + lam = 0 (a
    conjugate pair of modulus sqrt(lam))."""
    matrix = matrix_from_array(matrix)
    lams = (1.0 + matrix._eigvals) / 2.0  # the eigenvalues of Abar
    lams = np.delete(lams, np.argmin(np.abs(lams - 1.0))).astype(complex)
    root = np.sqrt(lams * lams - lams)
    return np.sort_complex(np.concatenate([[1.0, 1.0], lams + root, lams - root]))


def b_spectrum_residual(dyn: ErrorDynamics) -> float:
    """Certified radius around the closed-form spectrum d of B, with no
    eigensolve of B.  With R = B X - X D (`SpectralPair.residual`) and Y
    the closed-form inverse of X, eta = ||Y X - I||_F < 1/2 (else
    SpectralError) bounds ||X^{-1}|| by ||Y|| / (1 - eta).  Bauer-Fike on
    X^{-1} B X = D + X^{-1} R, with continuity along D + t X^{-1} R, puts
    every eigenvalue of B, with multiplicity, in the disks of radius
    ||Y|| ||R||_F / (1 - eta) around d.  Y X - I is G1 +- G2 (- I) between
    pair rows and columns (G1 = y_top^T x_top, G2 = (r_left r_right^T) o
    (r^T r)), plus p^T x_top, 1^T r, y_top^T 1 and p^T 1 - 1;
    ||Y||^2 <= max(||p||^2, 1/N) + norm_l^2 (1 + ||r^T r - I||_F)."""
    pair = dyn.matrix._error_blocks.pair
    p, x, y, r = pair.p, pair.x_top, pair.y_top, pair.r
    n, eye, ones_r = p.size, np.eye(p.size - 1), r.sum(axis=0)
    g1, gram_r = y.T @ x, r.T @ r
    g2 = np.outer(pair.r_left, pair.r_right) * gram_r
    off = [g1 + g2 - eye, g1 - g2, p @ x, pair.r_right * ones_r / n, y.sum(axis=0),
           pair.r_left * ones_r]
    eta = np.sqrt(2.0 * sum(np.linalg.norm(part) ** 2 for part in off) + (p.sum() - 1.0) ** 2)
    if not eta < 0.5:
        raise SpectralError(f"closed-form inverse of X is off by {eta:.3e}")
    norm_y = np.sqrt(max(p @ p, 1.0 / n) + pair.norm_l ** 2 * (1.0 + np.linalg.norm(gram_r - eye)))
    return float(norm_y * pair.residual / (1.0 - eta))


@dataclass(frozen=True)
class StabilityBound:
    """Closed-form step-size range: the engine is linearly convergent for
    max_k mu_k below mu_bound, with contraction factor rho_at(mu)."""

    engine: str
    mu_bound: float
    lam: float
    alpha: float
    sigma11: float
    sigma12: float
    sigma21: float
    sigma22: float
    nu: float
    delta: float
    p_max: float
    norm_r: float
    norm_l: float
    t_norm: float

    def rho_at(self, mu: float) -> float:
        """Contraction factor of the two-branch recursion at step size mu
        (the largest per-agent step for heterogeneous tunings)."""
        gap = 1.0 - self.lam
        branch1 = 1.0 - self.sigma11 * mu + 2.0 * self.sigma21 ** 2 * mu ** 2 / gap
        branch2 = (self.lam + (self.sigma12 ** 2 / self.sigma11) * mu
                   + 2.0 * self.sigma22 ** 2 * mu ** 2 / gap)
        return max(branch1, branch2)


def _assemble_bound(engine: str, matrix: CombinationMatrix, sigma11: float,
                    nu: float, delta: float, t_norm: float) -> StabilityBound:
    if matrix.n < 2:
        raise ValueError("stability bounds need at least two agents")
    if not 0 < nu <= delta:
        raise ValueError("need 0 < nu <= delta")
    perron, blocks = matrix.perron, matrix._error_blocks
    lam = float(np.sqrt((1.0 + perron.lambda2) / 2.0))
    p_max = float(perron.p.max())
    norm_r, norm_l = blocks.pair.norm_r, blocks.pair.norm_l
    alpha = norm_l * t_norm * norm_r
    # at the optimal c the two cross couplings coincide:
    # sigma12^2 = sigma21^2 = sqrt(p_max) * alpha * delta^2
    cross_sq = np.sqrt(p_max) * alpha * delta ** 2
    sigma_cross = float(np.sqrt(cross_sq))
    sigma22 = alpha * delta
    mu_bound = sigma11 * (1.0 - lam) / (2.0 * cross_sq)
    return StabilityBound(engine=engine, mu_bound=float(mu_bound), lam=float(lam),
                          alpha=float(alpha), sigma11=float(sigma11),
                          sigma12=sigma_cross, sigma21=sigma_cross,
                          sigma22=float(sigma22), nu=float(nu), delta=float(delta),
                          p_max=float(p_max), norm_r=norm_r, norm_l=norm_l,
                          t_norm=float(t_norm))


def diffusion_step_bound(matrix, tau=None, nu: float = 1.0, delta: float = 1.0,
                         k_o: int = 0) -> StabilityBound:
    """Step-size stability bound for the correction-term engine.

    Args:
        matrix: balanced combination matrix.
        tau: per-agent step ratios mu_k / max_j mu_j (all ones when
            omitted); normalized internally so max(tau) = 1.
        nu: lower curvature bound at the strongly convex agent k_o.
        delta: global upper curvature bound.
        k_o: index of the agent realizing nu.

    Returns:
        StabilityBound on mu_max = max_k mu_k with
        mu_bound = sigma11 (1 - lam) / (2 sigma21^2) at the optimal
        eigenvector scaling.
    """
    matrix = matrix_from_array(matrix)
    n = matrix.n
    tau = np.ones(n) if tau is None else np.asarray(tau, dtype=float)
    if tau.shape != (n,) or tau.min() <= 0:
        raise ValueError("tau must be a positive length-N vector")
    tau = tau / tau.max()
    if not 0 <= k_o < n:
        raise ValueError("k_o out of range")
    return _assemble_bound("exact_diffusion", matrix,
                           float(matrix.perron.p[k_o] * tau[k_o] * nu), nu, delta,
                           matrix._error_blocks.t_d_norm)


def extra_step_bound(matrix, nu: float = 1.0, delta: float = 1.0) -> StabilityBound:
    """Step-size stability bound for the symmetric doubly stochastic
    variant whose gradient enters outside the combine (T_e route).

    sigma11 = nu / N here, and the bound reads
    mu_bound = nu (1 - lam) / (2 sqrt(N) alpha_e delta^2).  Here S = (I - A)/(2N),
    so ||T_e||^2 = ||I + V V^T|| = 1 + lambda_max(S) = 1 + (1 - lambda_N)/(2N).
    """
    matrix = matrix_from_array(matrix)
    if not matrix.is_symmetric_doubly_stochastic:
        raise ValueError("this bound needs a symmetric doubly stochastic matrix")
    t_norm = np.sqrt(1.0 + (1.0 - matrix.perron.lambdaN) / (2.0 * matrix.n))
    return _assemble_bound("extra", matrix, float(nu / matrix.n), nu, delta, t_norm)


@dataclass(frozen=True)
class TwoAgentCase:
    """Closed-form two-agent quadratic case over A = [[a, 1-a], [1-a, a]]
    with identical scalar Hessians sigma2.

    e_d / e_e are the reduced 3x3 error maps: the 4x4 maps of
    `one_step_matrix` less their trivial unit eigenvalue."""

    a: float
    sigma2: float
    mu_d: float
    mu_e: float
    e_d: np.ndarray
    e_e: np.ndarray
    roots_d: np.ndarray
    roots_e: np.ndarray
    specrad_d: float
    specrad_e: float
    stable_d: bool
    stable_e: bool


def two_agent_case(a: float, sigma2: float, mu_d: float, mu_e: float = None) -> TwoAgentCase:
    """Build both engines' closed-form error maps for two agents.

    The reduced maps are

        E_d = [[1 - m, 0, 0],
               [0, (1 - m) a,            -sqrt(2 - 2a)],
               [0, (1 - m) a sqrt((1-a)/2),  a]]         m = mu_d sigma2

        E_e = [[1 - me, 0, 0],
               [0, a - me,               -sqrt(2 - 2a)],
               [0, (a - me) sqrt((1-a)/2),   a]]         me = mu_e sigma2

    with characteristic pairs
        theta^2 - (2 - m) a theta + (1 - m) a = 0
        theta^2 - (2a - me) theta + (a - me) = 0.
    """
    _check_two_agent(a, sigma2)
    if mu_e is None:
        mu_e = mu_d
    if not (0 < mu_d < np.inf and 0 < mu_e < np.inf):
        raise ValueError("mu_d and mu_e must be positive and finite")
    e_d = _two_agent_map(a, mu_d * sigma2, "exact_diffusion")
    e_e = _two_agent_map(a, mu_e * sigma2, "extra")
    roots_d = np.linalg.eigvals(e_d[1:, 1:])
    roots_e = np.linalg.eigvals(e_e[1:, 1:])
    specrad_d = float(np.abs(np.linalg.eigvals(e_d)).max())
    specrad_e = float(np.abs(np.linalg.eigvals(e_e)).max())
    return TwoAgentCase(a=a, sigma2=sigma2, mu_d=float(mu_d), mu_e=float(mu_e),
                        e_d=e_d, e_e=e_e,
                        roots_d=roots_d, roots_e=roots_e,
                        specrad_d=specrad_d, specrad_e=specrad_e,
                        stable_d=specrad_d < 1.0, stable_e=specrad_e < 1.0)


def _check_two_agent(a: float, sigma2: float) -> None:
    if not 0.0 < a < 1.0:
        raise ValueError("self-weight a must lie in (0, 1)")
    if not 0 < sigma2 < np.inf:
        raise ValueError("sigma2 must be positive and finite")


def _two_agent_map(a: float, m: float, algorithm: str) -> np.ndarray:
    """Reduced 3x3 two-agent error map (see `two_agent_case`) at
    m = mu sigma2; the gradient enters combined for exact diffusion and
    raw for extra."""
    s = np.sqrt(2.0 - 2.0 * a)
    t = np.sqrt((1.0 - a) / 2.0)
    g = (1.0 - m) * a if algorithm == "exact_diffusion" else a - m
    return np.array([
        [1.0 - m, 0.0, 0.0],
        [0.0, g, -s],
        [0.0, g * t, a],
    ])


def two_agent_onset(a: float, sigma2: float, algorithm: str = "extra") -> float:
    """Smallest step size at which the chosen two-agent map stops being a
    contraction.  The Jury conditions on the characteristic pairs of
    `two_agent_case` (and |1 - m| < 1) give mu sigma2 < 2 for exact
    diffusion and mu sigma2 < (1 + 3a)/2 for extra, for every a in (0, 1)."""
    if algorithm not in ("extra", "exact_diffusion"):
        raise ValueError("algorithm must be 'extra' or 'exact_diffusion'")
    _check_two_agent(a, sigma2)
    if algorithm == "exact_diffusion":
        return 2.0 / sigma2
    return (1.0 + 3.0 * a) / (2.0 * sigma2)


@dataclass
class ScanResult:
    """Grid classification plus the refined stable/unstable bracket
    (None on either side when the grid never crosses)."""

    engine: str
    mus: list
    classifications: list
    mu_stable: float | None = None
    mu_unstable: float | None = None
    refined: bool = False


def _steps_for(engine: str, model: CostModel, matrix: CombinationMatrix,
               mu: float) -> StepSizes:
    # The scan axis is the largest per-agent step size, for every engine.
    # Heterogeneous engines keep their q/p profile but are rescaled so the
    # biggest entry equals mu; uniform engines just use mu everywhere.
    # That keeps measured ranges comparable across engines.
    if ENGINE_SPECS[engine].weighted:
        p = matrix.perron.p
        ratio = np.asarray(model.q, dtype=float) / p
        return StepSizes.from_weights(model.q, p, float(mu) / float(ratio.max()))
    return StepSizes.uniform(mu, model.n_agents)


def _midpoints(lo: float, hi: float, rel_tol: float, depth: int) -> list:
    """Every midpoint that `depth` steps of bisection from [lo, hi] can
    visit, skipping brackets already narrower than rel_tol."""
    if depth == 0 or not hi - lo > rel_tol * hi:
        return []
    mid = 0.5 * (lo + hi)
    return ([mid] + _midpoints(lo, mid, rel_tol, depth - 1)
            + _midpoints(mid, hi, rel_tol, depth - 1))


def stability_scan(engine: str, model: CostModel, matrix, mu_grid,
                   max_iters: int = 4000, stop: float = 1e-8,
                   ground_truth=None, refine: bool = True,
                   rel_tol: float = 1e-3) -> ScanResult:
    """Classify each step size on a grid, then bisect the first
    stable-to-unstable transition down to a relative width of rel_tol.

    Each grid value is the largest per-agent step size (see _steps_for),
    so measured ranges are comparable across engines.  Every point gets
    the verdict a `run` from zero with a shared precomputed ground truth
    would get, but the whole grid advances as one stacked run.  `run` and
    the scan share one iteration loop, with one divergence cap, stop rule
    and exhausted rule; a scan's memory is
    O(members) for any max_iters.  Bisection is speculative: one stacked
    run classifies every midpoint of the next SPECULATION_DEPTH levels,
    and the bracket then follows the verdicts, so it visits the same
    midpoints and ends at the same bracket as one-at-a-time bisection.
    """
    matrix = matrix_from_array(matrix)
    if engine not in ENGINE_SPECS:
        raise ValueError(f"unknown engine {engine!r}; expected one of {tuple(ENGINE_SPECS)}")
    if ground_truth is None:
        ground_truth = solve_centralized(model)
    mus = sorted(float(mu) for mu in mu_grid)
    if len(mus) < 2:
        raise ValueError("mu_grid needs at least two step sizes to bracket a transition")
    if mus[0] <= 0 or not all(np.isfinite(mu) for mu in mus):
        raise ValueError("mu_grid entries must be positive and finite")

    def classify(points: list) -> list:
        steps = [_steps_for(engine, model, matrix, mu) for mu in points]
        return _iterate(engine, model, matrix, steps, max_iters, stop, ground_truth)[3]

    classifications = classify(mus)
    result = ScanResult(engine=engine, mus=mus, classifications=classifications)
    transition = next(
        (i for i in range(len(mus) - 1)
         if classifications[i] == "stable" and classifications[i + 1] == "unstable"),
        None,
    )
    if transition is None:
        if classifications and classifications[0] == "unstable":
            result.mu_unstable = mus[0]
        elif classifications and classifications[-1] == "stable":
            result.mu_stable = mus[-1]
        return result

    lo, hi = mus[transition], mus[transition + 1]
    if refine:
        while hi - lo > rel_tol * hi:
            mids = _midpoints(lo, hi, rel_tol, SPECULATION_DEPTH)
            verdicts = dict(zip(mids, classify(mids)))
            for _ in range(SPECULATION_DEPTH):
                if not hi - lo > rel_tol * hi:
                    break
                mid = 0.5 * (lo + hi)
                if verdicts[mid] == "stable":
                    lo = mid
                else:
                    hi = mid
        result.refined = True
    result.mu_stable = lo
    result.mu_unstable = hi
    return result
