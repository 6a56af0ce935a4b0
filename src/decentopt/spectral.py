"""The consensus square-root matrix V and its nullspace certificate.

V is the symmetric PSD square root of (P - A P)/2, where P = diag(p) and
A is a balanced left-stochastic combination matrix, built from one
symmetric eigendecomposition.  Its nullspace is the consensus line
span{1}, which is what couples the primal and dual blocks of the error
dynamics.  The eigensystem of the lifted error map B is derived from
these pieces in closed form (`stability.decompose_b`), so no dense
nonsymmetric eigensolver is needed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import CombinationMatrix, SpectralError, check_balanced

CLIP_TOL = 1e-12
PSD_TOL = -1e-8


@dataclass(frozen=True)
class VMatrix:
    """Symmetric PSD square root of (P - A P)/2.

    Fields: the matrix v itself, the orthogonal eigenvector matrix u, and
    sigma, the eigenvalues of (P - A P)/2 in descending order (entries
    below the clipping threshold are exactly zero).
    """

    v: np.ndarray
    u: np.ndarray
    sigma: np.ndarray


def compute_v(matrix: CombinationMatrix) -> VMatrix:
    """Build V = U sqrt(Sigma) U^T from the eigendecomposition of
    (P - A P)/2, with p the matrix's own Perron vector.

    Requires a balanced matrix (otherwise (P - A P)/2 need not be
    symmetric PSD).  Eigenvalues below 1e-12 are clipped to exactly zero
    before the square root; anything below -1e-8 is a PSD violation.
    """
    balanced, violation = check_balanced(matrix)
    if not balanced:
        raise ValueError(
            f"combination matrix is not balanced (violation {violation:.3e})"
        )
    pv = matrix.perron.p
    s = (np.diag(pv) - matrix.a * pv[np.newaxis, :]) / 2.0
    s = (s + s.T) / 2.0  # balance makes this symmetric; kill rounding skew
    w, u = np.linalg.eigh(s)
    if w.min() < PSD_TOL:
        raise SpectralError(f"(P - AP)/2 has eigenvalue {w.min():.3e} < {PSD_TOL:g}")
    w = w[::-1].copy()
    u = u[:, ::-1].copy()
    w[w < CLIP_TOL] = 0.0
    v = (u * np.sqrt(w)[np.newaxis, :]) @ u.T
    v = (v + v.T) / 2.0
    return VMatrix(v=v, u=u, sigma=w)


def certify_nullspace(v: VMatrix) -> bool:
    """True iff null(V) = span{1}: exactly one eigenvalue of V at (or
    below) 1e-10 whose eigenvector is parallel to the ones vector."""
    eigs = np.sqrt(v.sigma)
    null_mask = eigs <= 1e-10
    if null_mask.sum() != 1:
        return False
    n = v.u.shape[0]
    u_null = v.u[:, int(np.argmax(null_mask))]
    inner = abs(float(u_null @ np.ones(n))) / np.sqrt(n)
    return inner >= 1.0 - 1e-8
