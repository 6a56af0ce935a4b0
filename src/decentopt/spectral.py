"""The dual factor V of the error dynamics.

For a balanced left-stochastic combination matrix A with Perron vector p
and P = diag(p), the lifted error map B is built from an N x N factor V
of S = (P - A P)/2 with V V^T = S and V 1 = 0, so null(V) = span{1}.
B's spectrum and every step-size bound depend on V only through those
two facts, and the engines only through S.  The factor here comes from
the eigenpairs of At = P^{-1/2} A P^{1/2} that the error dynamics
already take, with no eigensolve of its own; for a doubly stochastic A
it is the symmetric square root of S.
"""

from __future__ import annotations

import numpy as np


def dual_factor(lam: np.ndarray, u: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(V, H U) from the eigenpairs (lam, u) of At, ascending with the unit
    eigenvalue last as `eigh` returns them, and the Perron vector p.

    P^{-1/2} S P^{-1/2} = (I - At)/2 = U Sigma U^T with Sigma = (1 - lam)/2,
    the unit mode's entry set to exactly 0, so V = P^{1/2} U sqrt(Sigma)
    (H U)^T has V V^T = S for any orthogonal H.  H is the Householder
    reflection that sends sqrt(p) to -1/sqrt(N), along
    h = sqrt(p) + 1/sqrt(N) (positive entries, so no cancellation): the
    unit eigenvector +-sqrt(p) of At then maps to a multiple of 1, which
    makes V 1 = 0, and with p = 1/N, H = I - 2 1 1^T/N leaves
    U sqrt(Sigma) U^T, the symmetric root, unchanged.  V^T P^{-1/2} u_k =
    sqrt(Sigma_k) (H U)[:, k], so H U's columns are the unit dual vectors
    of B's closed-form eigenpairs."""
    sigma = (1.0 - lam) / 2.0
    sigma[-1] = 0.0
    root_p = np.sqrt(p)
    h = root_p + 1.0 / np.sqrt(p.size)
    hu = u - np.outer(h, (2.0 / (h @ h)) * (h @ u))
    v = (root_p[:, np.newaxis] * u * np.sqrt(sigma)) @ hu.T
    return v, hu
