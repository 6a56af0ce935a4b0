"""Network topologies, combination matrices, and their Perron data.

Agents are the nodes of an undirected connected graph.  A combination
matrix A is nonnegative and left-stochastic (columns sum to one); entry
a[l, k] is the weight agent k applies to data arriving from agent l.

A CombinationMatrix is immutable and computes its spectral data once, on
first use: the Perron vector p with the spectrum summary (lambda2,
lambdaN, rhoA) in `perron`, the dual factor V in `vmat`, and (I + A)/2
in `abar`.  `stability` caches its error-recursion blocks here too.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse
import scipy.sparse.csgraph

COLUMN_SUM_TOL = 1e-12
PERRON_RESIDUAL_TOL = 1e-10
BALANCE_TOL = 1e-10
STOCHASTIC_TOL = 1e-10


class GraphError(ValueError):
    """Malformed or disconnected graph."""


class SpectralError(RuntimeError):
    """An eigen computation failed or revealed unusable structure."""


@dataclass(frozen=True)
class Graph:
    """Undirected connected graph on n agents.

    Edges are canonical (i, j) pairs with i < j; self-loops are not part
    of the edge set (self-weights live on the matrix diagonal instead).
    The constructor takes any iterable of pairs and also keeps the edges
    as a read-only (E, 2) array in lexicographic order.
    """

    n: int
    edges: frozenset = field(default_factory=frozenset)
    _ij: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n < 1:
            raise GraphError(f"agent count must be positive, got {self.n}")
        edges = list(self.edges)
        try:
            ij = np.array(edges, dtype=np.int64).reshape(len(edges), 2)
        except (TypeError, ValueError):
            raise GraphError("edges must be (i, j) pairs of agent indices") from None
        ij = np.sort(ij, axis=1)
        bad = (ij[:, 0] == ij[:, 1]) | (ij[:, 0] < 0) | (ij[:, 1] >= self.n)
        if bad.any():
            raise GraphError(f"edge {tuple(ij[bad.argmax()].tolist())} is a self-loop "
                             f"or out of range for n={self.n}")
        ij = np.stack(np.divmod(np.unique(ij[:, 0] * self.n + ij[:, 1]), self.n), axis=1)
        ij.flags.writeable = False
        object.__setattr__(self, "edges", frozenset(zip(*ij.T.tolist())))
        object.__setattr__(self, "_ij", ij)
        if not _connected(self.n, ij):
            raise GraphError("graph is not connected")

    def adjacency(self) -> np.ndarray:
        """0/1 adjacency matrix (no self-loops)."""
        i, j = self._ij.T
        adj = np.zeros((self.n, self.n))
        adj[i, j] = adj[j, i] = 1.0
        return adj

    def degrees(self) -> np.ndarray:
        return np.bincount(self._ij.ravel(), minlength=self.n)

    def to_json(self) -> str:
        return json.dumps({"n": self.n, "edges": self._ij.tolist()})

    @classmethod
    def from_json(cls, text: str) -> "Graph":
        doc = json.loads(text)
        return cls(int(doc["n"]), doc["edges"])


def _connected(n: int, ij: np.ndarray) -> bool:
    """Whether the graph on n agents with edge rows (i, j), ascending in i, is connected."""
    indptr = np.searchsorted(ij[:, 0], np.arange(n + 1))
    adj = scipy.sparse.csr_matrix((np.ones(len(ij)), ij[:, 1], indptr), shape=(n, n))
    ncomp, _ = scipy.sparse.csgraph.connected_components(adj, directed=False)
    return ncomp == 1


@dataclass(frozen=True)
class CombinationMatrix:
    """Left-stochastic nonnegative matrix tied to a graph.

    Validated at construction: nonnegativity, column sums, sparsity that
    respects the graph, and primitivity (a single eigenvalue on the unit
    circle, located at 1, with at least one positive self-weight).
    `a` is a read-only copy, so the cached spectral data cannot go stale.
    """

    a: np.ndarray
    graph: Graph
    _eigvals: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        a = np.array(self.a, dtype=float)
        a.flags.writeable = False
        object.__setattr__(self, "a", a)
        n = self.graph.n
        if a.shape != (n, n):
            raise ValueError(f"matrix shape {a.shape} does not match n={n}")
        if a.min() < 0:
            raise ValueError("combination matrix has negative entries")
        colsum = a.sum(axis=0)
        if np.abs(colsum - 1.0).max() > COLUMN_SUM_TOL:
            raise ValueError(
                f"columns must sum to 1 within {COLUMN_SUM_TOL:g}; "
                f"max deviation {np.abs(colsum - 1.0).max():.3e}"
            )
        allowed = self.graph.adjacency().astype(bool) | np.eye(n, dtype=bool)
        if np.any((a > 0) & ~allowed):
            raise ValueError("positive weight on a non-edge pair")
        if not np.any(np.diag(a) > 0):
            raise SpectralError("no agent has a positive self-weight")
        # directed support must be strongly connected, otherwise the
        # Perron vector degenerates (zero entries) even when the
        # eigenvalue tests below look fine
        support = scipy.sparse.csr_matrix((a > 0).astype(int))
        n_comp, _ = scipy.sparse.csgraph.connected_components(
            support, directed=True, connection="strong")
        if n_comp != 1:
            raise SpectralError(
                "matrix support is not strongly connected; "
                "matrix is not primitive"
            )
        vals = np.linalg.eigvals(a)
        near_one = np.abs(vals - 1.0) <= 1e-8
        if near_one.sum() != 1:
            raise SpectralError(
                f"matrix is not primitive: {int(near_one.sum())} eigenvalues at 1"
            )
        others = np.abs(vals[~near_one])
        if others.size and others.max() >= 1.0 - 1e-10:
            raise SpectralError(
                "matrix is not primitive: non-unit eigenvalue on the unit circle"
            )
        object.__setattr__(self, "_eigvals", vals)

    @property
    def n(self) -> int:
        return self.graph.n

    @property
    def is_doubly_stochastic(self) -> bool:
        """Rows sum to one within 1e-10 (columns always do)."""
        return bool(np.abs(self.a.sum(axis=1) - 1.0).max() <= STOCHASTIC_TOL)

    @property
    def is_symmetric_doubly_stochastic(self) -> bool:
        """Symmetric within 1e-10 as well as doubly stochastic."""
        a = self.a
        return self.is_doubly_stochastic and bool(np.abs(a - a.T).max() <= STOCHASTIC_TOL)

    @cached_property
    def perron(self) -> PerronData:
        """Perron data of A, computed once per matrix, on first use.

        The vector comes from power iteration; when the spectral gap is
        small (|1 - rhoA| < 1e-3) or the iteration stalls, the eigenvector
        is taken from the full eigendecomposition instead.  The spectrum
        summary reuses the constructor's eigenvalues.  Raises SpectralError
        when the vector is not entrywise positive or misses the residual
        tolerance.
        """
        a = self.a
        lambda2, lambdaN, rhoA = _spectrum_summary(self._eigvals)
        p = None
        if self.n == 1:
            p = np.array([1.0])
        elif abs(1.0 - rhoA) >= 1e-3:
            x, residual = _power_iteration(a)
            if residual <= PERRON_RESIDUAL_TOL:
                p = x
        if p is None:
            # slow mixing (or stalled): read the eigenvector off the full solve
            w, v = np.linalg.eig(a)
            vec = np.real(v[:, np.argmin(np.abs(w - 1.0))])
            if vec.sum() < 0:
                vec = -vec
            p = vec / vec.sum()
        if p.min() <= 0:
            raise SpectralError("Perron vector is not entrywise positive")
        residual = np.abs(a @ p - p).max()
        if residual > PERRON_RESIDUAL_TOL:
            raise SpectralError(f"Perron residual {residual:.3e} above tolerance")
        p.flags.writeable = False
        return PerronData(p=p, lambda2=lambda2, lambdaN=lambdaN, rhoA=rhoA)

    @cached_property
    def vmat(self):
        """`spectral.compute_v` of a balanced matrix, computed on first use."""
        from .spectral import compute_v

        return compute_v(self)

    @cached_property
    def abar(self) -> np.ndarray:
        """(I + A)/2, read-only, computed on first use."""
        abar = (np.eye(self.n) + self.a) / 2.0
        abar.flags.writeable = False
        return abar

    @cached_property
    def _error_blocks(self):
        """B, T_d, T_e of the error recursion of a balanced matrix, and the
        decomposition of B, computed on first use (`stability._Blocks`)."""
        from .stability import _network_blocks

        return _network_blocks(self)


@dataclass(frozen=True)
class PerronData:
    """Perron vector p (Ap = p, sum 1, entrywise positive) plus the
    spectral summary of A: second-largest eigenvalue (real for balanced
    policies), smallest eigenvalue, and second-largest eigenvalue
    magnitude rhoA."""

    p: np.ndarray
    lambda2: float
    lambdaN: float
    rhoA: float


def build_metropolis(graph: Graph) -> CombinationMatrix:
    """Metropolis weights: symmetric doubly-stochastic.

    Off-diagonal weight 1/(1 + max(deg_i, deg_j)) on every edge, with the
    diagonal absorbing the remainder of each column.
    """
    n = graph.n
    i, j = graph._ij.T
    deg = graph.degrees()
    a = np.zeros((n, n))
    a[i, j] = a[j, i] = 1.0 / (1.0 + np.maximum(deg[i], deg[j]))
    a[np.diag_indices(n)] = 1.0 - a.sum(axis=0)
    return CombinationMatrix(a, graph)


def build_averaging(graph: Graph) -> CombinationMatrix:
    """Averaging rule: column k holds 1/|N_k| on the closed neighborhood
    of agent k.  Left-stochastic and balanced, with Perron entries
    proportional to the closed-neighborhood sizes."""
    i, j = graph._ij.T
    w = 1.0 / (1.0 + graph.degrees())
    a = np.diag(w)
    a[i, j] = w[j]
    a[j, i] = w[i]
    return CombinationMatrix(a, graph)


def _spectrum_summary(vals: np.ndarray):
    """(lambda2, lambdaN, rhoA) from the full set of eigenvalues."""
    vals = vals[np.lexsort((-vals.imag, -vals.real))]
    if vals.size == 1:
        return float("nan"), 1.0, 0.0
    lambda2 = float(vals[1].real)
    lambdaN = float(vals[-1].real)
    perron_idx = int(np.argmin(np.abs(vals - 1.0)))
    rest = np.delete(vals, perron_idx)
    rhoA = float(np.abs(rest).max())
    return lambda2, lambdaN, rhoA


def _power_iteration(a: np.ndarray):
    """x <- Ax with sum-one renormalization, iterated down to the
    numerical floor: stop once the residual no longer improves, so
    downstream consumers see the vector at full precision rather than an
    early-exit approximation.  Returns the best iterate and its residual."""
    n = a.shape[0]
    x = np.full(n, 1.0 / n)
    best, best_res, stall = x, np.inf, 0
    for _ in range(100_000):
        x = a @ x
        x /= x.sum()
        res = np.abs(a @ x - x).max()
        if res < best_res:
            best, best_res, stall = x, res, 0
        else:
            stall += 1
        if res <= 5e-16 or stall >= 50:
            break
    return best, best_res


def check_balanced(matrix: CombinationMatrix):
    """Balance predicate: P A^T == A P with P = diag(p), p the matrix's own
    Perron vector.

    Returns (balanced, violation) where violation is the largest residual
    entry.
    """
    pv = matrix.perron.p
    residual = float(np.abs(pv[:, np.newaxis] * matrix.a.T - matrix.a * pv).max())
    return residual <= BALANCE_TOL, residual


def random_connected_graph(n: int, edge_probability: float, seed: int) -> Graph:
    """Erdos-Renyi draw conditioned on connectivity.

    Rejection-samples up to a fixed budget, testing each draw's edge
    array and building a Graph only for the one it returns; then falls
    back to the last draw augmented with a random spanning chain.
    Deterministic for a fixed seed.
    """
    if n < 1:
        raise GraphError("n must be positive")
    if not (0 < edge_probability <= 1):
        raise GraphError("edge_probability must lie in (0, 1]")
    rng = np.random.default_rng(seed)
    pairs = np.stack(np.triu_indices(n, k=1), axis=1)
    for _ in range(200):
        # row indices select faster than a boolean mask over all n(n-1)/2 pairs
        ij = pairs[np.flatnonzero(rng.random(len(pairs)) < edge_probability)]
        if _connected(n, ij):
            return Graph(n, ij)
    # connect the last draw with a random spanning chain
    perm = rng.permutation(n)
    chain = np.stack([perm[:-1], perm[1:]], axis=1)
    return Graph(n, np.concatenate([ij, chain]))


def matrix_from_array(a, graph: Graph | None = None) -> CombinationMatrix:
    """Wrap a raw square array as a CombinationMatrix, inferring the graph
    from the off-diagonal sparsity pattern when none is given.  A
    CombinationMatrix with no graph given is returned as it is, so every
    entry point that takes either form coerces with this one call."""
    if isinstance(a, CombinationMatrix) and graph is None:
        return a
    a = np.array(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"combination matrix must be square, got shape {a.shape}")
    if graph is None:
        support = a > 0
        graph = Graph(a.shape[0], np.argwhere(np.triu(support | support.T, k=1)))
    return CombinationMatrix(a, graph)


def save_matrix_csv(path, a: np.ndarray) -> None:
    """N rows of N comma-separated decimals, column-stochastic as stored."""
    np.savetxt(path, np.atleast_2d(a), delimiter=",", fmt="%.17g")


def load_matrix_csv(path) -> np.ndarray:
    return np.atleast_2d(np.loadtxt(path, delimiter=","))
