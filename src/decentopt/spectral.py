"""The dual vectors and the dual factor V of the error dynamics.

For a balanced left-stochastic combination matrix A with Perron vector p
and P = diag(p), the lifted error map B is built from an N x N factor V
of S = (P - A P)/2 with V V^T = S and V 1 = 0, so null(V) = span{1}.
B's spectrum and every bound depend on V only through those two facts.
The factor comes from the cached eigenpairs of At = P^{-1/2} A P^{1/2}; the
analysis reads only the dual vectors H U, and V is built for the dense B.
"""

from __future__ import annotations

import numpy as np


def dual_vectors(u: np.ndarray, p: np.ndarray) -> np.ndarray:
    """H U for eigenvectors u of At (any of its columns) and the Perron
    vector p: the unit dual vectors of B's closed-form eigenpairs.  H is the
    Householder reflection along h = sqrt(p) + 1/sqrt(N) (no cancellation),
    which sends the unit eigenvector sqrt(p) of At to -1/sqrt(N)."""
    h = np.sqrt(p) + 1.0 / np.sqrt(p.size)
    return u - np.outer(h, (2.0 / (h @ h)) * (h @ u))


def dual_factor(lam: np.ndarray, u: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(V, H U) from the eigenpairs (lam, u) of At, ascending with the unit
    eigenvalue last, and the Perron vector p.  P^{-1/2} S P^{-1/2} =
    (I - At)/2 = U Sigma U^T, Sigma = (1 - lam)/2 with the unit entry exactly
    0, so V = P^{1/2} U sqrt(Sigma) (H U)^T has V V^T = S.  With H of
    `dual_vectors`, H 1 is a multiple of sqrt(p), so V 1 = 0, and with
    p = 1/N, V is the symmetric root U sqrt(Sigma) U^T / sqrt(N)."""
    sigma = (1.0 - lam) / 2.0
    sigma[-1] = 0.0
    hu = dual_vectors(u, p)
    v = (np.sqrt(p)[:, np.newaxis] * u * np.sqrt(sigma)) @ hu.T
    return v, hu
