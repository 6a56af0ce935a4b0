"""Error dynamics, eigenstructure, and step-size stability ranges.

For a balanced combination matrix A with Perron vector p and dual factor
V (V V^T = S = (P - A P)/2 and null(V) = span{1}), the distance-to-solution
recursion of the correction-term engine is driven by

    B   = [[Abar^T, -P^{-1} V], [V^T Abar^T, I - V^T P^{-1} V]]
    T_d = [[Abar^T, 0], [V^T Abar^T, 0]]        (gradient enters combined)
    T_e = [[I, 0], [V^T, 0]]                    (gradient enters raw)

with Abar = (I + A)/2 and P = diag(p).  Any such factor gives the same B
up to an orthogonal change of the dual block.  B's closed-form spectrum,
its certificate and every bound read only Abar, p and the cached
eigenpairs of At = P^{-1/2} A P^{1/2}.  The primal-dual engines carry
z = V y and advance it with S, and the exact one-step map of quadratic
costs (`one_step_matrix`) is taken in those (w, z) coordinates, from
Abar, S and p.  No step of the library forms V or B.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algorithms import ENGINE_SPECS, StepSizes, _check_engine, _iterate
from .costs import CostModel, QuadraticModel, solve_centralized
from .graphs import CombinationMatrix, SpectralError, check_balanced, matrix_from_array
from .spectral import dual_vectors

EIGENPAIR_TOL = 1e-8
UNIT_ROUNDOFF = 2.0 ** -53
# bisection levels a scan resolves per stacked run: its 2**4 - 1 members
# are every midpoint the next four bisection steps can visit (one level
# more in a first run that would leave one over: see `_first_depth`)
SPECULATION_DEPTH = 4


@dataclass(frozen=True)
class _Blocks:
    """The pair, radius and ||T_d|| of one `_network_blocks` pass: results
    only, with no reference to the matrix that caches them (no cycle)."""

    pair: SpectralPair
    radius: float
    t_d_norm: float


def _two_norm(m: np.ndarray) -> float:
    """Largest singular value of a real matrix, from the largest
    eigenvalue of its Gram matrix (0.0 for an empty one)."""
    if m.size == 0:
        return 0.0
    return float(np.sqrt(max(np.linalg.eigvalsh(m @ m.T)[-1], 0.0)))


def _gamma(k: int) -> float:
    """Higham's gamma_k = k u / (1 - k u), u = 2^-53: the relative rounding of
    a sum of k rounded products."""
    return k * UNIT_ROUNDOFF / (1.0 - k * UNIT_ROUNDOFF)


def _network_blocks(matrix: CombinationMatrix) -> _Blocks:
    """`CombinationMatrix._error_blocks` of a balanced matrix (else
    ValueError) from Abar, p and At's cached eigenpairs.  The norms take one
    of two paths.  For a symmetric doubly stochastic A, P = I/N, so ||X_R||,
    ||X_L|| (see `_closed_form_pair`) and ||T_d|| (`_symmetric_t_d_norm`)
    are closed-form in At's eigenvalues and N, with no Gram matrix.
    Otherwise ||X_R|| and ||X_L|| are the 2-norms of the pair's N-row
    pieces, and ||T_d||^2 is the top eigenvalue of T_d^T T_d =
    Abar (I + S) Abar^T, each from a Gram `eigvalsh`."""
    _require_balanced(matrix)
    dense_t = matrix.abar.T
    k_max = int(np.count_nonzero(dense_t, axis=1).max())
    uniform, p = matrix.is_symmetric_doubly_stochastic, matrix.perron.p
    pair, radius = _closed_form_pair(matrix._abar_t_op, *matrix._eigh, p, k_max, uniform)
    if uniform:
        t_d_norm = _symmetric_t_d_norm(matrix.a, p)
    else:
        t_d = matrix._abar_op @ (dense_t + matrix._dual_op @ dense_t)
        t_d_norm = float(np.sqrt(max(np.linalg.eigvalsh(t_d)[-1], 0.0)))
    return _Blocks(pair=pair, radius=radius, t_d_norm=t_d_norm)


def _require_balanced(matrix: CombinationMatrix) -> None:
    balanced, violation = check_balanced(matrix)
    if not balanced:
        raise ValueError(f"combination matrix is not balanced (violation {violation:.3e})")


def _symmetric_t_d_norm(a: np.ndarray, p: np.ndarray) -> float:
    """An upper bound on ||T_d|| of a nearly symmetric doubly stochastic A,
    from A's measured asymmetry and row and column sums, with no eigensolve.

    With A_s = (A + A^T)/2 and S_0 = (I - A_s)/(2N), M_0 = Abar_s (I + S_0)
    Abar_s has the eigenvalues lb^2 (1 + (1 - lb)/N), lb = (1 + lam)/2 over
    A_s's eigenvalues lam, at most (1 + g/2)^2 for |lam| <= 1 + g, g the
    largest deviation of a row or column sum from 1 (equal to 1 at g = 0).
    ||T_d||^2 = ||M||, M = Abar (I + S) Abar^T, and with K = A - A^T,
    Abar = Abar_s + K/4 and S - S_0 = (2 Pi - A_s Pi - Pi A_s)/4 -
    (K P - P K)/8, Pi = P - I/N, Weyl's inequality gives ||M|| <= ||M_0||
    + (1 + ||S_0||) (||K|| ||Abar_s|| / 2 + ||K||^2 / 16)
    + ||Abar||^2 ||S - S_0||."""
    n = p.size
    sums = np.concatenate([a.sum(axis=0), a.sum(axis=1)])
    g = float(np.abs(sums - 1.0).max() + _gamma(n - 1) * sums.max())
    k = float(np.abs(a - a.T).sum(axis=0).max()) * (1.0 + _gamma(n))  # >= ||K||
    abar_s = 1.0 + g / 2.0
    abar_norm, s_0 = abar_s + k / 4.0, (2.0 + g) / (2.0 * n)
    ds = np.abs(p - 1.0 / n).max() * (2.0 + g) / 2.0 + k * p.max() / 4.0  # >= ||S - S_0||
    return float(np.sqrt(abar_s ** 2 + (1.0 + s_0) * (k * abar_s / 2.0 + k * k / 16.0)
                         + abar_norm ** 2 * ds))


@dataclass
class ErrorDynamics:
    """Error recursion of a balanced matrix with per-agent Hessians."""

    matrix: CombinationMatrix
    h: np.ndarray


def build_error_dynamics(matrix, model: CostModel) -> ErrorDynamics:
    """Pair a balanced combination matrix with the constant Hessians of quadratic
    costs (TypeError for other costs) for `one_step_matrix`, with no eigensolve."""
    matrix = matrix_from_array(matrix)
    if not isinstance(model, QuadraticModel):
        raise TypeError("error dynamics need constant Hessians (quadratic costs)")
    if model.n_agents != matrix.n:
        raise ValueError("model size does not match the combination matrix")
    _require_balanced(matrix)
    return ErrorDynamics(matrix=matrix, h=model.hessians())


def one_step_matrix(dyn: ErrorDynamics, engine: str, mu) -> np.ndarray:
    """Exact one-step error map for quadratic costs, lifted to
    (2 N M, 2 N M) with agent-major flattening: B_z - T_z diag(mu_k H_k, 0).

    It acts on the engines' own errors (W - W*, z - z*), z = V y the dual
    block `exact_diffusion_pd` and `extra` carry, as their steps do: w <-
    Abar^T w - P^{-1} z - G mu H w, then z <- z + S w, so B_z = [[Abar^T,
    -P^{-1}], [S Abar^T, I - S P^{-1}]] and T_z = [[G, 0], [S G, 0]], G =
    Abar^T where the gradient enters combined and I where it enters raw.
    With L = diag(I, V) (x) I_M, the map times L is L times the V-form map
    B - T diag(mu_k H_k, 0), so both have one spectrum, and its M unit
    eigenvalues are those of the conserved 1^T z.  As mu -> 0 they merge
    with the primal consensus modes into defective ones, which `eigvals`
    may read about 1e-8 off 1.  No eigensolve runs and no V is built.
    """
    matrix = dyn.matrix
    n = matrix.n
    mu = np.broadcast_to(np.atleast_1d(np.asarray(mu, dtype=float)), (n,))
    spec = ENGINE_SPECS.get(engine)
    if spec is None or spec.error_map is None:
        raise ValueError(f"no analytic error map for engine {engine!r}")
    abar_t, s, p = matrix.abar.T, matrix.v_squared, matrix.perron.p
    g = abar_t if spec.error_map == "t_d" else np.eye(n)
    b_z = np.block([[abar_t, -np.diag(1.0 / p)], [s @ abar_t, np.eye(n) - s / p]])
    m = dyn.h.shape[-1]
    mh = np.zeros((n * m, n * m))
    agents = np.arange(n)
    mh.reshape(n, m, n, m)[agents, :, agents, :] = mu[:, np.newaxis, np.newaxis] * dyn.h
    big = np.kron(b_z, np.eye(m))
    big[:, : n * m] -= np.kron(np.vstack([g, s @ g]), np.eye(m)) @ mh
    return big


def exact_radius(engine: str, model: CostModel, matrix, mu: float) -> float:
    """Spectral radius of `one_step_matrix` at the scan's step mu (the largest
    per-agent step, see `_steps_for`), less the model.dim eigenvalues nearest 1:
    the structural unit ones, dropped by value.  It refuses the engine, model
    and matrix that `run` refuses (`_check_engine`), an engine with no analytic
    map and a map that overflows (ValueError), and non-quadratic costs
    (TypeError).  Below about mu = 1e-6 the structural modes merge with the
    consensus modes within `eigvals`' accuracy: at 1e-8 the next eigenvalue is
    no farther from 1 than the dropped ones, so the radius reads 1 - O(1e-8)."""
    _, matrix = _check_engine(engine, model, matrix)
    dyn = build_error_dynamics(matrix, model=model)  # refuses non-quadratic costs
    with np.errstate(over="ignore", invalid="ignore"):
        big = one_step_matrix(dyn, engine, _steps_for(engine, model, dyn.matrix, mu).mu)
    if not np.isfinite(big).all():
        raise ValueError(f"the one-step map at mu = {mu:.3e} is not finite")
    eigs = np.linalg.eigvals(big)
    return float(np.abs(eigs[np.argsort(np.abs(eigs - 1.0))[model.dim:]]).max())


@dataclass
class SpectralPair:
    """Eigendecomposition of B with the unit pair pinned to canonical
    vectors: right columns [1; 0], [0; 1] and inverse rows [p^T, 0],
    [0, 1^T/N].  d[0] = d[1] = 1 exactly; the rest come in conjugate
    pairs with |d| = sqrt(lambda_k(Abar)) < 1.  The k-th has the right
    columns [x_top[:, k]; -+ i r_right[k] r[:, k]] and the inverse rows
    [y_top[:, k]; +- i r_left[k] r[:, k]], r = H U (`dual_vectors`) less
    its unit column, in the descending order of d.  These read-only N-row
    pieces give norm_r = ||X_R|| and norm_l = ||X_L||: mixing each
    conjugate column pair (a, b) into (a +- b)/sqrt(2) makes X_R
    block-diagonal, blocks sqrt(2) x_top and sqrt(2) r diag(r_right), the
    first the larger (||x_top[:, k]|| >= scale_k / sqrt(p_max) >
    sqrt(lbar_k) scale_k = r_right[k]), and X_L likewise, blocks
    sqrt(2) y_top and sqrt(2) r diag(r_left).  residual bounds
    ||B X - X D||_F.
    """

    d: np.ndarray
    p: np.ndarray
    x_top: np.ndarray
    y_top: np.ndarray
    r: np.ndarray
    r_right: np.ndarray
    r_left: np.ndarray
    residual: float
    norm_r: float
    norm_l: float


def decompose_b(matrix) -> SpectralPair:
    """Diagonalize B = X D X^{-1} in closed form, with the unit pair pinned.

    Every non-Perron eigenpair (lam, u) of the symmetric At gives x =
    P^{-1/2} u, an eigenvector of A^T, and the unit vector r = V^T x / s,
    s = sqrt((1 - lam)/2), the matching column of H U (`dual_vectors`).  On
    span{[x; 0], [0; r]} B acts as [[lb, -s], [s lb, lb]], lb = (1 + lam)/2,
    whose eigenvalues lb +- i sqrt(lb) s have right columns
    [x; -+ i sqrt(lb) r] and inverse rows [(P^{1/2} u)^T / 2,
    +- i r^T / (2 sqrt(lb))], each pair rescaled to equal norm.  Within an
    eigenspace of At on which p is constant ||X_R|| and ||X_L|| do not
    depend on the eigensolver's basis, so neither do the bounds.  It raises
    ValueError for an unbalanced matrix, and SpectralError when a column of
    B X - X D may exceed 1e-8 in norm.  No step forms V or B.
    """
    return matrix_from_array(matrix)._error_blocks.pair


def _gram_error(u: np.ndarray) -> tuple[np.ndarray, float]:
    """E = U^T U - I for U with unit columns, and a bound on each entry's
    rounding.  U = hi + lo exactly, hi's entries multiples of 2^-26, so
    hi^T hi is exact in any summation order (52-bit products, partial sums
    below 2); only the 2^-27 sqrt(N) cross terms round."""
    hi = np.round(u * 2.0 ** 26) / 2.0 ** 26
    lo = u - hi
    cross = hi.T @ lo
    gram = (hi.T @ hi - np.eye(u.shape[1])) + ((cross + cross.T) + lo.T @ lo)
    norm_hi, norm_lo = (np.linalg.norm(part, axis=0).max(initial=0.0) for part in (hi, lo))
    return gram, (_gamma(u.shape[0] + 4) * (2.0 * norm_hi + norm_lo) * norm_lo
                  + 2.0 * UNIT_ROUNDOFF * np.abs(gram).max(initial=0.0))


def _closed_form_pair(abar_t, lam: np.ndarray, u: np.ndarray, p: np.ndarray,
                      k_max: int, uniform: bool) -> tuple[SpectralPair, float]:
    """The pair of `decompose_b` and the radius of `b_spectrum_residual`
    from Abar^T (`op @ x`, at most k_max nonzeros a row) and the eigenpairs
    (lam, u) of At, ascending with the unit eigenvalue last.

    With `uniform` (a symmetric doubly stochastic A, p = 1/N), the norms are
    closed-form in the scales, which depend only on lbar and N, with
    ||U|| <= sqrt(1 + ||E||_F): ||X_R|| <= sqrt(2 / p_min) max scale_k ||U||,
    and ||X_L|| <= sqrt(2) max r_left[k] ||U||, since ||y_top|| <=
    sqrt(p_max) max 1 / (2 scale_k) ||U|| and r_left[k] =
    1 / (2 sqrt(lbar_k) scale_k) with p_max lbar_k < 1.  Otherwise each is
    a 2-norm from a Gram `eigvalsh`.

    Both run on B's orthogonal similar diag(I, H) B diag(I, H), whose factor
    is P^{1/2} U Sigma^{1/2} U^T, with dual halves U, not H U, and [0; 1] as
    sqrt(N) [0; a], a = sqrt(p) / ||sqrt(p)||, U's unit column in
    E = U^T U - I (`_gram_error`).  With e_k = Abar^T x_k - lb_k x_k and
    F = Sigma^{1/2} E, B X - X D is, for pair k, [e_k; lb_k U F_k + V^T e_k]
    + i sqrt(lb_k) [P^{-1/2} U F_k; U (s_k F_k + Sigma E_k + Sigma^{1/2} E F_k)
    + (lb_k + Sigma_k - 1) u_k], and for the unit columns [Abar^T 1 - 1;
    V^T Abar^T 1], V^T 1 = U F_N, and -sqrt(N) / ||a|| [P^{-1/2} U F_N;
    U Sigma^{1/2} (I + E) F_N].  Their norms use
    ||U||^2 <= 1 + ||E||_F and ||V|| <= sqrt(p_max Sigma_max) ||U||^2, e
    the allowance gamma_{2 k_max + 4} (|Abar^T| |x| + lb |x|), and E
    `_gram_error`'s; gamma_3 covers the stored pieces.  Y X - I is
    G1 +- G2 (- I) between pair rows and columns, G1 = C^{-1} (I + E) C / 2
    (C the scales) and G2 = (r_left r_right^T) o (I + E), plus p^T x_top,
    y_top^T 1, p^T 1 - 1 and the dual unit vector's sqrt(N) E_N / ||a||
    with the pairs; ||Y||^2 <= max(||p||^2, 1/N) + norm_l^2 (1 + ||E||_F)."""
    n = p.size
    root_p, sigma = np.sqrt(p), (1.0 - lam) / 2.0
    sigma[-1] = 0.0
    gram, eps = _gram_error(np.column_stack([u[:, :-1], root_p]))
    bound = np.abs(gram) + eps  # |E|, entrywise
    big_e, s_max, p_min = np.linalg.norm(bound), sigma.max(), p.min()
    norm_u, norm_v = np.sqrt(1.0 + big_e), np.sqrt(p.max() * s_max) * (1.0 + big_e)
    f = np.linalg.norm(np.sqrt(sigma)[:, np.newaxis] * bound, axis=0)  # ||F_k||
    # the non-unit pairs, descending, as the eigenvalues of B are listed
    lam, u, s, f_pairs = lam[-2::-1], u[:, -2::-1], np.sqrt(sigma[-2::-1]), f[-2::-1]
    lbar = (1.0 + lam) / 2.0
    root_lbar = np.sqrt(lbar)
    x, y = u / root_p[:, np.newaxis], u * root_p[:, np.newaxis] / 2.0
    # balance each column/inverse-row pair to equal norm
    scale = np.sqrt(np.sqrt((y * y).sum(axis=0) + 1.0 / (4.0 * lbar))
                    / np.sqrt((x * x).sum(axis=0) + lbar))
    d = np.concatenate([[1.0, 1.0], np.stack([lbar + 1j * root_lbar * s,
                                              lbar - 1j * root_lbar * s], axis=1).ravel()])
    abs_ax = abar_t @ np.abs(x)
    e = (np.linalg.norm(abar_t @ x - lbar * x, axis=0)
         + _gamma(2 * k_max + 4) * np.linalg.norm(abs_ax + lbar * np.abs(x), axis=0))
    modulus = scale * np.hypot(np.hypot(e, lbar * norm_u * f_pairs + norm_v * e), root_lbar * (
        np.hypot(f_pairs / np.sqrt(p_min), (s + np.sqrt(s_max) * (1.0 + big_e)) * f_pairs
                 + UNIT_ROUNDOFF) * norm_u))
    ones = abar_t @ np.ones((n, 1))
    top = np.linalg.norm(ones - 1.0) + _gamma(k_max + 1) * np.linalg.norm(ones)
    dual_one = np.sqrt(n / (1.0 + gram[-1, -1] - eps))  # sqrt(N) / ||a||
    unit = np.hypot(np.hypot(top, norm_u * (f[-1] + UNIT_ROUNDOFF * norm_u ** 2) + norm_v * top),
                    dual_one * norm_u * f[-1] * np.hypot(1.0 / np.sqrt(p_min),
                                                         np.sqrt(s_max) * norm_u ** 2))
    worst = max(float(modulus.max(initial=0.0)), float(unit))
    if worst > EIGENPAIR_TOL:
        raise SpectralError(f"eigenpair residual {worst:.3e} above tolerance")
    x_top, y_top, r_right = x * scale, y / scale, root_lbar * scale
    r_left = 1.0 / (2.0 * r_right)
    if uniform:
        norm_r = np.sqrt(2.0 / p_min) * norm_u * scale.max(initial=0.0)
        norm_l = np.sqrt(2.0) * norm_u * r_left.max(initial=0.0)
    else:
        norm_r = np.sqrt(2.0) * _two_norm(x_top)
        norm_l = np.sqrt(2.0) * max(_two_norm(y_top), r_left.max(initial=0.0))
    norm_x = np.linalg.norm(np.hypot(np.linalg.norm(x_top, axis=0), r_right * norm_u))
    norm_b = np.sqrt(s_max / p_min) * norm_u ** 2 + 1.0 + s_max * norm_u ** 4  # of B[:, N:]
    residual = float(np.hypot(np.sqrt(2.0) * np.linalg.norm(modulus), unit) + _gamma(3)
                     * np.sqrt(2.0) * ((1.0 + norm_v) * np.linalg.norm(abs_ax * scale)
                                       + (norm_b + 2.0) * norm_x))
    g1, g2 = scale / (2.0 * scale[:, np.newaxis]), np.outer(r_left, r_right)
    ones_r = dual_one * bound[-1, -2::-1]  # |1^T H U| of the pairs
    off = [(g1 + g2) * bound[-2::-1, -2::-1], np.abs(g1 - g2) * bound[-2::-1, -2::-1],
           r_right * ones_r / n, r_left * ones_r,
           np.abs(p @ x_top) + _gamma(n) * (p @ np.abs(x_top)),
           np.abs(y_top.sum(axis=0)) + _gamma(n) * np.abs(y_top).sum(axis=0)]
    eta = (np.sqrt(2.0 * sum(np.linalg.norm(part) ** 2 for part in off)
                   + (abs(p.sum() - 1.0) + _gamma(n)) ** 2)
           + _gamma(6) * (np.linalg.norm(x_top) * np.linalg.norm(y_top)
                          + np.linalg.norm(g2) * norm_u ** 2))
    if not eta < 0.5:
        raise SpectralError(f"closed-form inverse of X is off by {eta:.3e}")
    pair = SpectralPair(d=d, p=p, x_top=x_top, y_top=y_top, r=dual_vectors(u, p),
                        r_right=r_right, r_left=r_left, residual=residual,
                        norm_r=float(norm_r), norm_l=float(norm_l))
    for piece in (d, x_top, y_top, pair.r, r_right, r_left):
        piece.flags.writeable = False
    norm_y = np.sqrt(max(p @ p, 1.0 / n) + norm_l ** 2 * norm_u ** 2)
    return pair, float(norm_y * residual / (1.0 - eta))


def b_spectrum_residual(matrix) -> float:
    """Certified radius around the closed-form spectrum d of B, with no B.
    With R = B X - X D (`SpectralPair.residual`) and Y the closed-form
    inverse of X, eta = ||Y X - I||_F < 1/2 bounds ||X^{-1}|| by
    ||Y|| / (1 - eta).  Bauer-Fike on X^{-1} B X = D + X^{-1} R, with
    continuity along D + t X^{-1} R, puts every eigenvalue of B, with
    multiplicity, within ||Y|| ||R||_F / (1 - eta) of d.  It is computed with
    the pair and raises as `decompose_b` does, and SpectralError when eta >= 1/2."""
    return matrix_from_array(matrix)._error_blocks.radius


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
    # the bound and rho_at square delta and sigma22 = alpha delta, and squaring
    # a float past 1.34e154 raises OverflowError
    if not (delta < 1e154 and alpha * delta < 1e154):
        raise ValueError(f"curvature bound delta = {delta:.3e} is too large: the "
                         "bound's squared couplings overflow")
    sigma22 = alpha * delta
    # at the optimal c the two cross couplings coincide:
    # sigma12^2 = sigma21^2 = sqrt(p_max) * alpha * delta^2
    cross_sq = np.sqrt(p_max) * alpha * delta ** 2
    sigma_cross = float(np.sqrt(cross_sq))
    mu_bound = sigma11 * (1.0 - lam) / (2.0 * cross_sq)
    return StabilityBound(engine=engine, mu_bound=float(mu_bound), lam=float(lam),
                          alpha=float(alpha), sigma11=float(sigma11), sigma12=sigma_cross,
                          sigma21=sigma_cross, sigma22=float(sigma22), nu=float(nu),
                          delta=float(delta), p_max=float(p_max), norm_r=norm_r,
                          norm_l=norm_l, t_norm=float(t_norm))


def diffusion_step_bound(matrix, tau=None, nu: float = 1.0, delta: float = 1.0,
                         k_o: int = 0) -> StabilityBound:
    """Step-size stability bound for the correction-term engine on a
    balanced matrix: a StabilityBound on mu_max = max_k mu_k with
    mu_bound = sigma11 (1 - lam) / (2 sigma21^2) at the optimal eigenvector
    scaling.  tau holds the per-agent step ratios mu_k / max_j mu_j (all
    ones when omitted; normalized so max(tau) = 1), nu the lower curvature
    bound at the strongly convex agent k_o, delta the global upper one.
    """
    matrix = matrix_from_array(matrix)
    n = matrix.n
    tau = np.ones(n) if tau is None else np.asarray(tau, dtype=float)
    if tau.shape != (n,) or not np.all((tau > 0) & (tau < np.inf)):
        raise ValueError("tau must be a positive finite length-N vector")
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
    with identical scalar Hessians sigma2: each engine's roots of its
    characteristic pair, and the spectral radius with the consensus mode."""

    a: float
    sigma2: float
    mu_d: float
    mu_e: float
    roots_d: np.ndarray
    roots_e: np.ndarray
    specrad_d: float
    specrad_e: float
    stable_d: bool
    stable_e: bool


def two_agent_case(a: float, sigma2: float, mu_d: float, mu_e: float = None) -> TwoAgentCase:
    """Both engines' two-agent error spectra, from the characteristic pairs

        theta^2 - (2 - m) a theta + (1 - m) a = 0      m = mu_d sigma2
        theta^2 - (2a - me) theta + (a - me) = 0       me = mu_e sigma2

    of exact diffusion and extra.  With the consensus mode 1 - m they are
    the spectrum of `one_step_matrix` on the 2-agent network, less its unit
    eigenvalue, so the spectral radius is max(|1 - m|, max |theta|).
    """
    _check_two_agent(a, sigma2)
    if mu_e is None:
        mu_e = mu_d
    if not (0 < mu_d < np.inf and 0 < mu_e < np.inf):
        raise ValueError("mu_d and mu_e must be positive and finite")
    if not float(max(mu_d, mu_e)) * float(sigma2) < np.inf:
        raise ValueError("mu_d * sigma2 and mu_e * sigma2 must be finite")
    m, me = mu_d * sigma2, mu_e * sigma2
    roots_d = np.roots([1.0, -(2.0 - m) * a, (1.0 - m) * a])
    roots_e = np.roots([1.0, -(2.0 * a - me), a - me])
    specrad_d = float(max(abs(1.0 - m), np.abs(roots_d).max()))
    specrad_e = float(max(abs(1.0 - me), np.abs(roots_e).max()))
    return TwoAgentCase(a=a, sigma2=sigma2, mu_d=float(mu_d), mu_e=float(mu_e),
                        roots_d=roots_d, roots_e=roots_e,
                        specrad_d=specrad_d, specrad_e=specrad_e,
                        stable_d=specrad_d < 1.0, stable_e=specrad_e < 1.0)


def _check_two_agent(a: float, sigma2: float) -> None:
    if not 0.0 < a < 1.0:
        raise ValueError("self-weight a must lie in (0, 1)")
    if not 0 < sigma2 < np.inf:
        raise ValueError("sigma2 must be positive and finite")
    if not 2.0 / float(sigma2) < np.inf:  # the larger onset, exact diffusion's
        raise ValueError("sigma2 is too small: the onset 2 / sigma2 overflows")


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
    # The scan axis is the largest per-agent step size, for every engine:
    # heterogeneous engines keep their q/p profile, rescaled to peak at mu.
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


def _first_depth(lo: float, hi: float, rel_tol: float) -> int:
    """Levels the first refinement run of [lo, hi] settles: SPECULATION_DEPTH, plus one when
    the levels it needs at worst (halvings of hi - lo to rel_tol * lo) are 5, 9, 13, ..."""
    levels, width = 0, hi - lo
    while width > rel_tol * lo:  # halving, not hi - lo over 2**L, which may overflow
        levels, width = levels + 1, 0.5 * width
    return SPECULATION_DEPTH + (levels > SPECULATION_DEPTH and levels % SPECULATION_DEPTH == 1)


def stability_scan(engine: str, model: CostModel, matrix, mu_grid,
                   max_iters: int = 4000, stop: float = 1e-8,
                   ground_truth=None, refine: bool = True,
                   rel_tol: float = 1e-3) -> ScanResult:
    """Classify each step size on a grid, then bisect the first
    stable-to-unstable transition down to a relative width of rel_tol.

    Each grid value is the largest per-agent step size (see _steps_for).
    Every point gets the verdict a `run` from zero with a shared ground
    truth would get, but the grid advances as one stacked run through
    `run`'s loop, in O(members) memory for any max_iters.  Bisection is
    speculative: one stacked run classifies every midpoint of the next
    SPECULATION_DEPTH levels (see `_first_depth`), and the bracket follows
    the verdicts to the bracket one-at-a-time bisection reaches.
    """
    _, matrix = _check_engine(engine, model, matrix)
    mus = sorted(float(mu) for mu in mu_grid)
    if len(mus) < 2:
        raise ValueError("mu_grid needs at least two step sizes to bracket a transition")
    if mus[0] <= 0 or not all(np.isfinite(mu) for mu in mus):
        raise ValueError("mu_grid entries must be positive and finite")
    if not 0.0 < rel_tol < np.inf:
        raise ValueError("rel_tol must be positive and finite")
    if ground_truth is None:
        ground_truth = solve_centralized(model)

    def classify(points: list) -> list:
        steps = [_steps_for(engine, model, matrix, mu) for mu in points]
        return _iterate(engine, model, matrix, steps, max_iters, stop, ground_truth)[3]

    classifications = classify(mus)
    result = ScanResult(engine=engine, mus=mus, classifications=classifications)
    transition = next((i for i in range(len(mus) - 1) if classifications[i] == "stable"
                       and classifications[i + 1] == "unstable"), None)
    if transition is None:
        if classifications and classifications[0] == "unstable":
            result.mu_unstable = mus[0]
        elif classifications and classifications[-1] == "stable":
            result.mu_stable = mus[-1]
        return result

    lo, hi = mus[transition], mus[transition + 1]
    if refine:
        depth = _first_depth(lo, hi, rel_tol)
        while hi - lo > rel_tol * hi:
            mids = _midpoints(lo, hi, rel_tol, depth)
            verdicts = dict(zip(mids, classify(mids)))
            for _ in range(depth):
                if not hi - lo > rel_tol * hi:
                    break
                mid = 0.5 * (lo + hi)
                if verdicts[mid] == "stable":
                    lo = mid
                else:
                    hi = mid
            depth = SPECULATION_DEPTH
        result.refined = True
    result.mu_stable = lo
    result.mu_unstable = hi
    return result
