"""Error dynamics, eigenstructure, and step-size stability ranges.

For a balanced combination matrix A with Perron vector p and dual factor
V (so that null(V) = span{1}), the distance-to-solution recursion of the
correction-term engine is driven by

    B   = [[Abar^T, -P^{-1} V], [V Abar^T, I - V P^{-1} V]]
    T_d = [[Abar^T, 0], [V Abar^T, 0]]          (gradient enters combined)
    T_e = [[I, 0], [V, 0]]                      (gradient enters raw)

with Abar = (I + A)/2 and P = diag(p).  For quadratic costs the exact
one-step error map is B - T diag(mu_k H_k, 0) lifted agent-wise, which
this module builds, decomposes, and turns into closed-form step-size
bounds.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np
import scipy.linalg

from .algorithms import (
    ENGINE_SPECS,
    StepSizes,
    _engine_context,
    _exhausted_verdict,
    _iterate,
    _lookback,
    init_state,
)
from .costs import CostModel, QuadraticModel, solve_centralized
from .graphs import CombinationMatrix, PerronData, SpectralError, matrix_from_array
from .spectral import VMatrix

UNIT_EIG_TOL = 1e-8
EIGENPAIR_TOL = 1e-8
# bisection levels a scan resolves per stacked run: its 2**3 - 1 members
# are every midpoint the next three bisection steps can visit
SPECULATION_DEPTH = 3


@dataclass(frozen=True)
class _Blocks:
    """Read-only B, T_d, T_e for one matrix, Perron vector p and V, plus
    the unscaled closed-form decomposition of B (`_closed_form_pair`) and
    the spectral norms of T_d and T_e, computed on first use from N x N
    pieces only.  It keeps the arrays A and p and the `VMatrix` it needs
    for that, but no reference to the matrix that caches it, so it makes
    no reference cycle and is freed with the matrix."""

    b: np.ndarray
    t_d: np.ndarray
    t_e: np.ndarray
    a: np.ndarray
    p: np.ndarray
    vmat: VMatrix

    @cached_property
    def pair(self) -> SpectralPair:
        return _closed_form_pair(self.b, self.a, self.p, self.vmat.v)

    @cached_property
    def t_d_norm(self) -> float:
        """||T_d|| = ||(I + V^2)^{1/2} Abar^T||: with V^2 = U diag(sigma) U^T
        that is the largest singular value of Abar U diag(sqrt(1 + sigma))."""
        abar = (np.eye(self.p.size) + self.a) / 2.0
        return _two_norm(abar @ (self.vmat.u * np.sqrt(1.0 + self.vmat.sigma)))

    @cached_property
    def t_e_norm(self) -> float:
        """||T_e||^2 = ||I + V^2|| = 1 + sigma_max."""
        return float(np.sqrt(1.0 + self.vmat.sigma[0]))


def _two_norm(m: np.ndarray) -> float:
    """Largest singular value of a real matrix, from the largest
    eigenvalue of its Gram matrix (0.0 for an empty one)."""
    if m.size == 0:
        return 0.0
    return float(np.sqrt(max(np.linalg.eigvalsh(m @ m.T)[-1], 0.0)))


def _network_blocks(matrix: CombinationMatrix) -> _Blocks:
    """The blocks of `CombinationMatrix._error_blocks`, from the matrix's
    own Perron vector and V."""
    n = matrix.n
    abar_t = matrix.abar.T
    p, vmat = matrix.perron.p, matrix.vmat
    v = vmat.v
    pinv_v = v / p[:, np.newaxis]
    eye = np.eye(n)
    b = np.block([[abar_t, -pinv_v], [v @ abar_t, eye - v @ pinv_v]])
    t_d = np.block([[abar_t, np.zeros((n, n))], [v @ abar_t, np.zeros((n, n))]])
    t_e = np.block([[eye, np.zeros((n, n))], [v, np.zeros((n, n))]])
    for block in (b, t_d, t_e):
        block.flags.writeable = False
    return _Blocks(b=b, t_d=t_d, t_e=t_e, a=matrix.a, p=p, vmat=vmat)


@dataclass
class ErrorDynamics:
    """Network-level (dimension-free) blocks of the error recursion,
    optionally carrying per-agent Hessians and step sizes.  The Perron
    data, V and the read-only blocks are the matrix's cached spectral
    setup, so every dynamics of one matrix shares them."""

    matrix: CombinationMatrix
    h: np.ndarray | None = None
    mu: np.ndarray | None = None
    perron: PerronData = field(init=False)
    vmat: VMatrix = field(init=False)
    b: np.ndarray = field(init=False)
    t_d: np.ndarray = field(init=False)
    t_e: np.ndarray = field(init=False)
    _blocks: _Blocks = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        blocks = self._blocks = self.matrix._error_blocks
        self.perron, self.vmat = self.matrix.perron, self.matrix.vmat
        self.b, self.t_d, self.t_e = blocks.b, blocks.t_d, blocks.t_e

    @property
    def a(self) -> np.ndarray:
        return self.matrix.a

    @property
    def abar(self) -> np.ndarray:
        return self.matrix.abar

    @property
    def p(self) -> np.ndarray:
        return self.perron.p

    @property
    def v(self) -> np.ndarray:
        return self.vmat.v


def build_error_dynamics(matrix, model: CostModel = None,
                         steps: StepSizes = None) -> ErrorDynamics:
    """Assemble B, T_d, T_e for a balanced combination matrix.

    The blocks, and the decomposition of B, are computed once per matrix
    and shared.  model/steps are optional; they are only needed later by
    one_step_matrix, which requires constant Hessians (quadratic costs).
    """
    matrix = matrix_from_array(matrix)
    h = None
    if model is not None:
        if not isinstance(model, QuadraticModel):
            raise TypeError("error dynamics need constant Hessians (quadratic costs)")
        if model.n_agents != matrix.n:
            raise ValueError("model size does not match the combination matrix")
        h = model.hessians()
    mu = None if steps is None else steps.mu
    return ErrorDynamics(matrix=matrix, h=h, mu=mu)


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
    mh = scipy.linalg.block_diag(*(mu[k] * dyn.h[k] for k in range(n)))
    big = np.kron(dyn.b, np.eye(m))
    big[:, : n * m] -= np.kron(t, np.eye(m))[:, : n * m] @ mh
    return big


def simulate_error_recursion(dyn: ErrorDynamics, model: QuadraticModel,
                             steps: StepSizes, w0: np.ndarray, iters: int,
                             engine: str = "exact_diffusion_pd") -> np.ndarray:
    """Run the actual engine and return its stacked errors
    [W_i - W*; Y_i - Y*], shape (iters + 1, 2N, M) with row 0 the seed.

    Cross-check target: errors[i] must equal the one-step matrix applied
    i times to errors[0] when the costs are quadratic.
    """
    if engine not in ("exact_diffusion_pd", "extra"):
        raise ValueError("error recursion is defined for exact_diffusion_pd and extra")
    n, m = model.n_agents, model.dim
    gt = solve_centralized(model)
    g = model.grad_at(gt.w_star if engine == "exact_diffusion_pd" else gt.w_o)
    pinv_v = np.linalg.pinv(dyn.v)
    if engine == "exact_diffusion_pd":
        w_ref = gt.w_star
        y_ref = -pinv_v @ (dyn.p[:, np.newaxis] * (dyn.abar.T @ (steps.mu[:, np.newaxis] * g)))
    else:
        w_ref = gt.w_o
        y_ref = -(steps.mu[0] / n) * (pinv_v @ g)

    ctx = _engine_context(engine, model, dyn.matrix, steps)
    state = init_state(engine, model, dyn.matrix, np.asarray(w0, dtype=float))
    step = ENGINE_SPECS[engine].step
    errors = np.empty((iters + 1, 2 * n, m))
    errors[0] = np.vstack([state.w - w_ref, state.y - y_ref])
    for i in range(1, iters + 1):
        step(state, ctx)
        errors[i] = np.vstack([state.w - w_ref, state.y - y_ref])
    return errors


@dataclass
class SpectralPair:
    """Eigendecomposition of B with the unit pair pinned to canonical
    vectors: right columns [1; 0], [0; 1] and inverse rows [p^T, 0],
    [0, 1^T/N].  d[0] = d[1] = 1 exactly; the rest come in conjugate
    pairs with |d| = sqrt(lambda_k(Abar)) < 1.

    The k-th conjugate pair has the right columns
    [x_top[:, k]; -+ i r_right[k] r[:, k]] and the inverse rows
    [y_top[:, k]; +- i r_left[k] r[:, k]], with r's columns orthonormal;
    c divides X_R and multiplies X_L.  These read-only N-row pieces give
    ||X_R|| and ||X_L|| in closed form; the dense complex X and X^{-1}
    are built, read-only, only when read.
    """

    d: np.ndarray
    p: np.ndarray
    x_top: np.ndarray
    y_top: np.ndarray
    r: np.ndarray
    r_right: np.ndarray
    r_left: np.ndarray
    c: float = 1.0

    @cached_property
    def x(self) -> np.ndarray:
        """Right eigenvectors as columns, shape (2N, 2N)."""
        n = self.p.size
        x = np.zeros((2 * n, 2 * n), dtype=complex)
        x[:n, 0] = x[n:, 1] = 1.0
        for first, sign in ((2, 1.0), (3, -1.0)):
            x[:n, first::2] = self.x_top
            x[n:, first::2] = -sign * 1j * self.r_right * self.r
        x[:, 2:] /= self.c
        x.flags.writeable = False
        return x

    @cached_property
    def x_inv(self) -> np.ndarray:
        """Inverse of x, shape (2N, 2N)."""
        n = self.p.size
        x_inv = np.zeros((2 * n, 2 * n), dtype=complex)
        x_inv[0, :n] = self.p
        x_inv[1, n:] = 1.0 / n
        for first, sign in ((2, 1.0), (3, -1.0)):
            x_inv[first::2, :n] = self.y_top.T
            x_inv[first::2, n:] = (sign * 1j * self.r_left * self.r).T
        x_inv[2:, :] *= self.c
        x_inv.flags.writeable = False
        return x_inv

    @cached_property
    def norm_r(self) -> float:
        """||X_R||.  Mixing each conjugate column pair (a, b) into
        (a +- b)/sqrt(2), a unitary change, makes X_R block-diagonal with
        blocks sqrt(2) x_top and sqrt(2) r diag(r_right), and the first
        block is the larger: column k of x_top is P^{-1/2} u_k scale_k,
        whose norm is at least scale_k / sqrt(p_max) > sqrt(lbar_k) scale_k
        = r_right[k]."""
        return float(np.sqrt(2.0) * _two_norm(self.x_top) / self.c)

    @cached_property
    def norm_l(self) -> float:
        """||X_L||, block-diagonal after the same mixing of row pairs."""
        dual = self.r_left.max(initial=0.0)
        return float(np.sqrt(2.0) * max(_two_norm(self.y_top), dual) * self.c)


def decompose_b(dyn: ErrorDynamics, c: float = None) -> SpectralPair:
    """Diagonalize B = X D X^{-1} in closed form, with the unit pair pinned.

    With At = P^{-1/2} A P^{1/2} (symmetric for a balanced A), every
    non-Perron eigenpair (lam, u) of At gives x = P^{-1/2} u, an
    eigenvector of A^T, and the unit vector r = V x / s with
    s = sqrt((1 - lam)/2).  On span{[x; 0], [0; r]} B acts as
    [[lb, -s], [s lb, lb]] with lb = (1 + lam)/2, whose eigenvalues
    lb +- i sqrt(lb - lb^2) have right columns [x; -+ i sqrt(lb) r] and
    inverse rows [(P^{1/2} u)^T / 2, +- i r^T / (2 sqrt(lb))].  The
    Perron pair gives the canonical columns [1; 0], [0; 1] and rows
    [p^T, 0], [0, 1^T/N].  Each column/inverse-row pair is rescaled to
    equal norm, which keeps ||X_R|| ||X_L|| small.  Within an eigenspace
    of At on which p is constant these norms do not depend on the basis
    the eigensolver picks, so neither do the bounds built from them.
    ||X_R|| and ||X_L|| come from N x N pieces (see `SpectralPair`); the
    dense 2N x 2N X and X^{-1} are built only when a caller reads them.

    c, when given, additionally scales X_R by 1/c and X_L by c; products
    such as ||X_L|| ||T|| ||X_R|| are invariant to it.

    Raises SpectralError when At does not have exactly one eigenvalue at
    1 or when max |B X - X D| exceeds 1e-8.  The unscaled pair is
    computed once per matrix and shared (read-only).
    """
    pair = dyn._blocks.pair
    if c is None:
        return pair
    if c <= 0:
        raise ValueError("c must be positive")
    return replace(pair, c=c)


def _closed_form_pair(b: np.ndarray, a: np.ndarray, p: np.ndarray,
                      v: np.ndarray) -> SpectralPair:
    """The unscaled pair of `decompose_b` from one N x N `eigh` of At.

    The eigenpair check max |B X - X D| runs on the blocks of b with
    real N x N products: for the column pair [x; -+ i sqrt(lb) r] at
    lb +- i sqrt(lb) s, B X - X D has the real part
    B[:, :N] x - lb [x; s r] and the imaginary part
    -+ sqrt(lb) (B[:, N:] r + [s x; -lb r]), both times the balancing
    scale, so both columns of a pair share one modulus."""
    n = p.size
    root_p = np.sqrt(p)
    a_tilde = a * root_p[np.newaxis, :] / root_p[:, np.newaxis]
    lam, u = np.linalg.eigh((a_tilde + a_tilde.T) / 2.0)
    unit = np.abs(lam - 1.0) <= UNIT_EIG_TOL
    if int(unit.sum()) != 1:
        raise SpectralError(
            f"expected exactly one unit eigenvalue of P^-1/2 A P^1/2, found {int(unit.sum())}"
        )
    # descending, as the eigenvalues of B are listed
    lam, u = lam[~unit][::-1], u[:, ~unit][:, ::-1]
    lbar = (1.0 + lam) / 2.0
    root_lbar, s = np.sqrt(lbar), np.sqrt(1.0 - lbar)
    x = u / root_p[:, np.newaxis]
    y = u * root_p[:, np.newaxis] / 2.0
    r = (v @ x) / s
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
    residual = max(float((scale * np.hypot(real, imag)).max(initial=0.0)),
                   float(np.abs(unit_cols).max()))
    if residual > EIGENPAIR_TOL:
        raise SpectralError(f"eigenpair residual {residual:.3e} above tolerance")
    pieces = dict(x_top=x * scale, y_top=y / scale, r=r, r_right=root_lbar * scale,
                  r_left=1.0 / (2.0 * root_lbar * scale))
    for piece in (d, *pieces.values()):
        piece.flags.writeable = False
    return SpectralPair(d=d, p=p, **pieces)


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
    """Largest gap between the computed spectrum of B and the closed-form
    prediction, under greedy multiset matching.  Sorting both lists is not
    enough: repeated eigenvalues (for example Abar spectra like
    {1, 1/2, 1/2}) interleave their conjugate pairs differently once
    float fuzz enters the real parts."""
    actual = np.linalg.eigvals(dyn.b)
    predicted = predicted_b_spectrum(dyn.matrix)
    worst = 0.0
    for value in predicted:
        diff = actual - value
        # hypot rounds as abs(complex) does; np.abs of complex values can
        # differ from both in the last bit
        gaps = np.hypot(diff.real, diff.imag)
        k = int(np.argmin(gaps))
        worst = max(worst, float(gaps[k]))
        actual[k] = np.inf  # matched
    return worst


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
    c_opt: float

    def rho_at(self, mu: float) -> float:
        """Contraction factor of the two-branch recursion at step size mu
        (the largest per-agent step for heterogeneous tunings)."""
        gap = 1.0 - self.lam
        branch1 = 1.0 - self.sigma11 * mu + 2.0 * self.sigma21 ** 2 * mu ** 2 / gap
        branch2 = (self.lam + (self.sigma12 ** 2 / self.sigma11) * mu
                   + 2.0 * self.sigma22 ** 2 * mu ** 2 / gap)
        return max(branch1, branch2)


def _assemble_bound(engine: str, matrix: CombinationMatrix, sigma11: float,
                    nu: float, delta: float) -> StabilityBound:
    perron = matrix.perron
    dyn = build_error_dynamics(matrix)
    dec = decompose_b(dyn)
    lam = float(np.sqrt((1.0 + perron.lambda2) / 2.0))
    p_max = float(perron.p.max())
    t_norm = getattr(dyn._blocks, ENGINE_SPECS[engine].error_map + "_norm")
    norm_r, norm_l = dec.norm_r, dec.norm_l
    alpha = norm_l * t_norm * norm_r
    # at the optimal c the two cross couplings coincide:
    # sigma12^2 = sigma21^2 = sqrt(p_max) * alpha * delta^2
    cross_sq = np.sqrt(p_max) * alpha * delta ** 2
    sigma_cross = float(np.sqrt(cross_sq))
    sigma22 = alpha * delta
    mu_bound = sigma11 * (1.0 - lam) / (2.0 * cross_sq)
    c_opt = float(np.sqrt(np.sqrt(p_max) * norm_r / (norm_l * t_norm)))
    return StabilityBound(engine=engine, mu_bound=float(mu_bound), lam=float(lam),
                          alpha=float(alpha), sigma11=float(sigma11),
                          sigma12=sigma_cross, sigma21=sigma_cross,
                          sigma22=float(sigma22), nu=float(nu), delta=float(delta),
                          p_max=float(p_max), norm_r=norm_r, norm_l=norm_l,
                          t_norm=float(t_norm), c_opt=c_opt)


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
    if matrix.n < 2:
        raise ValueError("stability bounds need at least two agents")
    n = matrix.n
    tau = np.ones(n) if tau is None else np.asarray(tau, dtype=float)
    if tau.shape != (n,) or tau.min() <= 0:
        raise ValueError("tau must be a positive length-N vector")
    tau = tau / tau.max()
    if not 0 < nu <= delta:
        raise ValueError("need 0 < nu <= delta")
    if not 0 <= k_o < n:
        raise ValueError("k_o out of range")
    return _assemble_bound("exact_diffusion", matrix,
                           float(matrix.perron.p[k_o] * tau[k_o] * nu), nu, delta)


def extra_step_bound(matrix, nu: float = 1.0, delta: float = 1.0) -> StabilityBound:
    """Step-size stability bound for the symmetric doubly stochastic
    variant whose gradient enters outside the combine (T_e route).

    sigma11 = nu / N here, and the bound reads
    mu_bound = nu (1 - lam) / (2 sqrt(N) alpha_e delta^2).
    """
    matrix = matrix_from_array(matrix)
    if matrix.n < 2:
        raise ValueError("stability bounds need at least two agents")
    if not matrix.is_symmetric_doubly_stochastic:
        raise ValueError("this bound needs a symmetric doubly stochastic matrix")
    if not 0 < nu <= delta:
        raise ValueError("need 0 < nu <= delta")
    return _assemble_bound("extra", matrix, float(nu / matrix.n), nu, delta)


def norm_comparison(matrix) -> tuple:
    """Spectral norms (||T_d||, ||T_e||, ratio) over the same symmetric
    doubly stochastic matrix.  The combined route is never louder:
    ||T_d|| < ||T_e|| strictly for N >= 2 (equality only in the trivial
    single-agent case, which returns (1.0, 1.0, 1.0))."""
    matrix = matrix_from_array(matrix)
    if matrix.n == 1:
        return (1.0, 1.0, 1.0)
    if not matrix.is_symmetric_doubly_stochastic:
        raise ValueError("norm comparison needs a symmetric doubly stochastic matrix")
    blocks = build_error_dynamics(matrix)._blocks
    return (blocks.t_d_norm, blocks.t_e_norm, blocks.t_d_norm / blocks.t_e_norm)


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


def classify_run(result, max_iters: int) -> str:
    """Map a run outcome to stable/unstable.  Budget-exhausted runs count
    as stable only when the error did not grow over the last tenth of the
    budget."""
    if result.status == "diverged":
        return "unstable"
    if result.status == "converged":
        return "stable"
    rels = [r.rel_error for r in result.records]
    return _exhausted_verdict(rels[-1], rels[max(0, len(rels) - 1 - _lookback(max_iters))])


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
    so measured ranges are comparable across engines.  Every point is
    classified as `classify_run` classifies a `run` from zero with a
    shared precomputed ground truth, but the whole grid advances as one
    stacked run.  `run` and the scan share one iteration loop, with one
    divergence cap, stop rule and exhausted rule; a scan's memory is
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
