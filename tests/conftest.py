"""Shared builders for the test suite: seeded random networks and models."""

import numpy as np

from decentopt import (
    CombinationMatrix,
    QuadraticModel,
    build_averaging,
    build_metropolis,
    random_connected_graph,
)


# U is column stochastic but neither balanced nor doubly stochastic; the
# cycle C is doubly stochastic but not balanced
U = np.array([[0.5, 0.2, 0.3], [0.3, 0.5, 0.3], [0.2, 0.3, 0.4]])
C = 0.5 * np.eye(3) + 0.5 * np.roll(np.eye(3), 1, axis=0)


def random_metropolis(n: int, seed: int, prob: float = 0.6) -> CombinationMatrix:
    return build_metropolis(random_connected_graph(n, prob, seed))


def random_averaging(n: int, seed: int, prob: float = 0.6) -> CombinationMatrix:
    return build_averaging(random_connected_graph(n, prob, seed))


def random_quadratic(n: int, dim: int, seed: int, q=None) -> QuadraticModel:
    """Random strictly convex quadratic model: H_k = G_k G_k^T + 0.5 I."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, dim, dim))
    h = np.einsum("kij,klj->kil", g, g) + 0.5 * np.eye(dim)
    b = rng.standard_normal((n, dim))
    return QuadraticModel(h, b, q=q)
