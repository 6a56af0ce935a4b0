"""The dual vectors of the error dynamics' closed-form eigenpairs.

For a balanced left-stochastic combination matrix A with Perron vector p
and P = diag(p), the lifted error map B is built from any N x N factor V
of S = (P - A P)/2 with V V^T = S and V 1 = 0, and its spectrum and
every bound depend on V only through those two facts.  The closed-form
eigenpairs of B carry the dual vectors H U of the eigenvectors U of
At = P^{-1/2} A P^{1/2}; no step forms V.  `dual_vectors` stays a module
of its own because the benchmark's tracer times `spectral` as a layer of
the program; it moves into `stability` once that layer is retired.
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

