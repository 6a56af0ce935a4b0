"""Network topologies, combination matrices, and their Perron data.

Agents are the nodes of an undirected connected graph.  A combination
matrix A is nonnegative and left-stochastic (columns sum to one); entry
a[l, k] is the weight agent k applies to data arriving from agent l.

A CombinationMatrix is immutable.  Its constructor validates A and
computes the Perron vector and the balance residual, with no eigensolve
(see the class).  A's spectrum comes on first read (see `PerronData`), and
so do S = (P - A P)/2 (`v_squared`), (I + A)/2 (`abar`), the engines'
operators, and the error-recursion blocks, which read only Abar, p and the
eigenpairs of At = P^{-1/2} A P^{1/2} (`_eigh`).  No dual factor V of S
and no lifted 2N x 2N matrix is formed.

Connectivity is tested with numpy alone: a graph's by a component search
over its edge array (`_components`), and the strong connectivity of a
matrix's directed support by the same search when the support is
symmetric, else by reachability from agent 0 along the arcs and against
them (`_strongly_connected`).  Only the CSR operators need scipy, and
`scipy.sparse` is imported when the first one is built.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

COLUMN_SUM_TOL = 1e-12
PERRON_RESIDUAL_TOL = 1e-10
BALANCE_TOL = 1e-10
UNIT_EIG_TOL = 1e-8
STOCHASTIC_TOL = 1e-10
# Combines go through CSR operators when A has at least SPARSE_MIN_AGENTS agents and at
# most SPARSE_MAX_DENSITY * N^2 nonzeros: per (N, 10) combine on one BLAS thread, CSR is
# 1.5-5x slower than dense up to N = 150, ties at N = 200-300 and density 0.1, and is
# 8-18x faster at N = 400-1000 and density 0.01-0.02.
SPARSE_MIN_AGENTS = 200
SPARSE_MAX_DENSITY = 0.1


class GraphError(ValueError):
    """Malformed or disconnected graph."""


class SpectralError(RuntimeError):
    """An eigen computation failed or revealed unusable structure."""


@dataclass(frozen=True)
class Graph:
    """Undirected connected graph on n agents.

    Edges are canonical (i, j) pairs with i < j; self-loops are not part
    of the edge set (self-weights live on the matrix diagonal instead).
    The constructor takes an (E, 2) array or any iterable of pairs and
    keeps them as a read-only (E, 2) array in lexicographic order.
    `_searched` is private: `random_connected_graph` sets it for a draw it
    has already found connected, so the component search runs once.
    """

    n: int
    edges: frozenset = field(default_factory=frozenset)
    _ij: np.ndarray = field(init=False, repr=False, compare=False)
    _searched: bool = field(default=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n < 1:
            raise GraphError(f"agent count must be positive, got {self.n}")
        edges = self.edges if isinstance(self.edges, np.ndarray) else list(self.edges)
        try:  # integers only: no float, string or bool is truncated to an index
            ij = np.asarray(edges)
            if ij.size and ij.dtype.kind not in "iu":
                raise TypeError
            ij = ij.astype(np.int64, copy=False).reshape(len(edges), 2)
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
        if not (self._searched or _connected(self.n, ij)):
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
        if type(doc["n"]) is not int:  # a float, a string or a bool is not
            raise GraphError(f"n must be an integer, got {doc['n']!r}")
        return cls(doc["n"], doc["edges"])


def _connected(n: int, ij: np.ndarray) -> bool:
    """Whether the graph on n agents with edge rows (i, j) is connected.  A
    graph with an isolated agent is rejected before the component search."""
    if n > 1 and np.bincount(ij.ravel(), minlength=n).min() == 0:
        return False
    return not _components(n, ij).any()


def _components(n: int, ij: np.ndarray) -> np.ndarray:
    """Each agent's component label, the smallest agent in its component, by
    label propagation with pointer jumping over the edge rows (i, j).

    Every agent points at a smaller or equal agent, and each pointer chain
    ends at a root that points at itself.  A round hooks, for every edge
    whose ends have different roots, the larger root onto the smaller one
    (the smallest offered, when a root is offered several), then jumps
    pointers until each agent points at its root.  A round that hooks
    nothing leaves one root per component.  Pointers only decrease, so no
    hook closes a cycle, and each round that hooks merges two trees at
    least: the search ends after at most n rounds, in practice a few."""
    root = np.arange(n)
    i, j = ij[:, 0], ij[:, 1]
    while True:
        ri, rj = root[i], root[j]
        cross = ri != rj
        if not cross.any():
            return root
        ri, rj = ri[cross], rj[cross]
        np.minimum.at(root, np.maximum(ri, rj), np.minimum(ri, rj))
        while True:
            jumped = root[root]
            if np.array_equal(jumped, root):
                break
            root = jumped


def _strongly_connected(a: np.ndarray, ij: np.ndarray) -> bool:
    """Whether the directed support of A (an arc l -> k where a[l, k] > 0) is
    strongly connected, for an A that is positive only on the diagonal and
    on the graph edges ij.  A symmetric support is strongly connected when
    it is connected; otherwise every agent must be reached from agent 0
    along the arcs, and reach agent 0 (see `_reaches_all`)."""
    i, j = ij[:, 0], ij[:, 1]
    fwd, bwd = a[i, j] > 0, a[j, i] > 0
    if np.array_equal(fwd, bwd):
        return _connected(a.shape[0], ij[fwd])
    src = np.concatenate([i[fwd], j[bwd]])
    dst = np.concatenate([j[fwd], i[bwd]])
    return _reaches_all(a.shape[0], src, dst) and _reaches_all(a.shape[0], dst, src)


def _reaches_all(n: int, src: np.ndarray, dst: np.ndarray) -> bool:
    """Whether every agent is reached from agent 0 along the arcs src -> dst.
    Each sweep follows the arcs that leave reached agents and drops them, so
    every arc is followed once."""
    seen = np.zeros(n, dtype=bool)
    seen[0] = True
    while src.size:
        out = seen[src]
        if not out.any():
            break
        seen[dst[out]] = True
        src, dst = src[~out], dst[~out]
    return bool(seen.all())


@dataclass(frozen=True)
class CombinationMatrix:
    """Left-stochastic nonnegative matrix tied to a graph.

    Validated at construction: nonnegativity, column sums, sparsity that
    respects the graph, and structural primitivity: a strongly connected
    support with at least one positive self-weight, which makes A
    irreducible with a positive diagonal entry, hence primitive.  So are
    `perron.p` (see `_perron_vector`) and the balance residual of
    `check_balanced`.  No eigensolve runs at construction: A's eigenvalues,
    and the eigenpairs of the symmetric At = P^{-1/2} A P^{1/2} of a
    balanced A (`_eigh`), are computed on first read and checked then (see
    `PerronData`).  `a` is a read-only copy, so the cached spectral data
    cannot go stale.
    """

    a: np.ndarray
    graph: Graph
    perron: PerronData = field(init=False, repr=False, compare=False)
    _balance: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        a = np.array(self.a, dtype=float)
        a.flags.writeable = False
        object.__setattr__(self, "a", a)
        n = self.graph.n
        if a.shape != (n, n):
            raise ValueError(f"matrix shape {a.shape} does not match n={n}")
        if not np.isfinite(a).all():
            raise ValueError("combination matrix has non-finite entries")
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
        # Perron vector degenerates (zero entries)
        if not _strongly_connected(a, self.graph._ij):
            raise SpectralError(
                "matrix support is not strongly connected; "
                "matrix is not primitive"
            )
        p = _perron_vector(a)
        # |p_i a_ji - a_ij p_j| over the edges: the diagonal and off-edge
        # terms of P A^T - A P are exactly 0, so this is its largest entry
        i, j = self.graph._ij.T
        balance = float(np.abs(p[i] * a[j, i] - a[i, j] * p[j]).max(initial=0.0))
        object.__setattr__(self, "perron", PerronData(p, a, balance <= BALANCE_TOL))
        object.__setattr__(self, "_balance", balance)

    @property
    def n(self) -> int:
        return self.graph.n

    @cached_property
    def is_doubly_stochastic(self) -> bool:
        """Rows sum to one within 1e-10 (columns always do)."""
        return bool(np.abs(self.a.sum(axis=1) - 1.0).max() <= STOCHASTIC_TOL)

    @cached_property
    def is_symmetric_doubly_stochastic(self) -> bool:
        """Symmetric within 1e-10 as well as doubly stochastic."""
        a = self.a
        return self.is_doubly_stochastic and bool(np.abs(a - a.T).max() <= STOCHASTIC_TOL)

    @cached_property
    def v_squared(self) -> np.ndarray:
        """S = V V^T = (P - A P)/2 of a balanced matrix, read-only,
        computed on first use.  Balance makes it symmetric; it is
        symmetrized to drop the rounding skew.  It has A's sparsity, plus
        the diagonal."""
        p = self.perron.p
        s = (np.diag(p) - self.a * p[np.newaxis, :]) / 2.0
        s = (s + s.T) / 2.0
        s.flags.writeable = False
        return s

    @cached_property
    def abar(self) -> np.ndarray:
        """(I + A)/2, read-only, computed on first use."""
        abar = (np.eye(self.n) + self.a) / 2.0
        abar.flags.writeable = False
        return abar

    @cached_property
    def _sparse(self) -> bool:
        """Whether the engines' operators take CSR form: on a large sparse
        network (see SPARSE_MIN_AGENTS)."""
        n = self.n
        return n >= SPARSE_MIN_AGENTS and np.count_nonzero(self.a) <= SPARSE_MAX_DENSITY * n * n

    def _operator(self, dense: np.ndarray):
        if self._sparse:
            import scipy.sparse  # loaded by the first large sparse network only

            return scipy.sparse.csr_array(dense)
        return dense

    # The engines' operators, each built on first read: `op @ x` on an (N, M)
    # block or an (N, B*M) stack, with the `csr_array` on a large sparse
    # network, else the dense array.  Each engine's step reads only the ones
    # it applies.

    @cached_property
    def _a_t_op(self):
        """A^T, the tracking engines' combine."""
        return self._operator(self.a.T)

    @cached_property
    def _abar_t_op(self):
        """Abar^T, the exact diffusion engines' combine."""
        return self._operator(self.abar.T)

    @cached_property
    def _abar_op(self):
        """Abar, extra's combine."""
        return self._operator(self.abar)

    @cached_property
    def _dual_op(self):
        """`v_squared`, the primal-dual engines' dual step."""
        return self._operator(self.v_squared)

    @property
    def _eigh(self) -> tuple:
        """(lam, U) of a balanced matrix's At = U diag(lam) U^T (see
        `PerronData._eigh`)."""
        return self.perron._eigh

    @cached_property
    def _error_blocks(self):
        """The closed-form decomposition of the error recursion's B of a
        balanced matrix, its certified radius and the norm of T_d, computed
        on first use in one pass with no B (`stability._Blocks`)."""
        from .stability import _network_blocks

        return _network_blocks(self)


@dataclass(frozen=True)
class PerronData:
    """Perron vector p (Ap = p, sum 1, entrywise positive) of a primitive
    left-stochastic A, plus the spectral summary of A: second-largest
    eigenvalue lambda2 (real for balanced policies), smallest eigenvalue
    lambdaN, and second-largest eigenvalue magnitude rhoA.

    p is computed with the matrix; the spectrum on first read.  A balanced
    A's eigenvalues are those of one `eigh` of At (`_eigh`), which the
    Perron data caches with its eigenvectors; an unbalanced A's come from
    one `eigvals(A)`.  That first read checks them: exactly one within
    UNIT_EIG_TOL of 1 and no other on the unit circle, else SpectralError.
    A structurally primitive A passes unless rounding trips the check."""

    p: np.ndarray
    _a: np.ndarray = field(repr=False, compare=False)
    _balanced: bool = field(repr=False, compare=False)

    @cached_property
    def _eigh(self) -> tuple:
        """(lam, U) of a balanced A's At = U diag(lam) U^T, read-only,
        ascending with the unit eigenvalue last, from one `eigh` on first use."""
        lam, u = np.linalg.eigh(_symmetrized(self._a, self.p))
        _check_primitive(lam)
        lam.flags.writeable = u.flags.writeable = False
        return lam, u

    @cached_property
    def _eigvals(self) -> np.ndarray:
        """A's eigenvalues, read-only: `_eigh`'s for a balanced A, else
        `eigvals(A)`'s."""
        if self._balanced:
            return self._eigh[0]
        vals = np.linalg.eigvals(self._a)
        _check_primitive(vals)
        vals.flags.writeable = False
        return vals

    @cached_property
    def _summary(self) -> tuple:
        return _spectrum_summary(self._eigvals)

    @property
    def lambda2(self) -> float:
        return self._summary[0]

    @property
    def lambdaN(self) -> float:
        return self._summary[1]

    @property
    def rhoA(self) -> float:
        return self._summary[2]


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


def _check_primitive(vals: np.ndarray) -> None:
    """SpectralError unless exactly one of A's eigenvalues lies within
    UNIT_EIG_TOL of 1 and no other on the unit circle."""
    near_one = np.abs(vals - 1.0) <= UNIT_EIG_TOL
    if near_one.sum() != 1:
        raise SpectralError(
            f"matrix is not primitive: {int(near_one.sum())} eigenvalues at 1"
        )
    others = np.abs(vals[~near_one])
    if others.size and others.max() >= 1.0 - 1e-10:
        raise SpectralError(
            "matrix is not primitive: non-unit eigenvalue on the unit circle"
        )


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


def _symmetrized(a: np.ndarray, p: np.ndarray) -> np.ndarray:
    """At = P^{-1/2} A P^{1/2} of a balanced A, without its rounding skew."""
    a_tilde = a * np.sqrt(p) / np.sqrt(p)[:, np.newaxis]
    return (a_tilde + a_tilde.T) / 2.0


def _perron_vector(a: np.ndarray) -> np.ndarray:
    """Perron vector (Ap = p, sum 1) of an irreducible left-stochastic A,
    read-only, from one bordered solve: (I - A) p = 0 with its last row
    replaced by 1^T p = 1.  The rows of I - A sum to zero and span a space
    of dimension N - 1, so any N - 1 of them are independent and the
    bordered system is nonsingular (for N = 1 it is 1 p = 1).  Raises
    SpectralError when p is not entrywise positive or misses the residual
    tolerance."""
    n = a.shape[0]
    bordered = np.eye(n) - a
    bordered[-1] = 1.0
    p = np.linalg.solve(bordered, np.eye(n)[-1])
    if not p.min() > 0:
        raise SpectralError("Perron vector is not entrywise positive")
    residual = np.abs(a @ p - p).max()
    if not residual <= PERRON_RESIDUAL_TOL:
        raise SpectralError(f"Perron residual {residual:.3e} above tolerance")
    p.flags.writeable = False
    return p


def check_balanced(matrix: CombinationMatrix):
    """Balance predicate: P A^T == A P with P = diag(p), p the matrix's own
    Perron vector.

    Returns (balanced, violation) where violation is the largest residual
    entry, as the constructor measured it.
    """
    return matrix._balance <= BALANCE_TOL, matrix._balance


def random_connected_graph(n: int, edge_probability: float, seed: int) -> Graph:
    """Erdos-Renyi draw conditioned on connectivity.

    Rejection-samples up to a fixed budget of 200 draws, testing each
    draw's edge array and building a Graph only for the one it returns;
    then falls back to the last draw augmented with a random spanning
    chain.  A draw takes one uniform per agent pair, in `triu_indices`
    order.  The pairs of the first r rows hold every edge of those agents,
    so the head of the first ceil(n/8) rows is drawn first, in two stages:
    the first 8 rows, then the rest of the head.  When an agent of a stage
    has no edge, the draw is rejected and the generator skips the rest of
    its uniforms (one 64-bit output each) without drawing them.  The graph
    returned is the one a whole-draw loop returns.  Deterministic for a
    fixed seed.
    """
    if n < 1:
        raise GraphError("n must be positive")
    if not (0 < edge_probability <= 1):
        raise GraphError("edge_probability must lie in (0, 1]")
    rng = np.random.default_rng(seed)
    pairs = np.stack(np.triu_indices(n, k=1), axis=1)
    stages = sorted({min(8, -(-n // 8)), -(-n // 8)})  # rows tested after each stage
    ends = np.searchsorted(pairs[:, 0], stages)  # pairs in those rows
    for draw in range(200):
        u = np.empty(0)
        if n > 1 and draw < 199:  # the fallback reads the last draw whole
            for rows, end in zip(stages, ends):
                u = np.concatenate([u, rng.random(end - u.size)])
                # row indices select faster than a boolean mask over the pairs
                hit = pairs[np.flatnonzero(u < edge_probability)]
                isolated = np.bincount(hit.ravel(), minlength=rows)[:rows].min() == 0
                if isolated:
                    break
            if isolated:
                rng.bit_generator.advance(len(pairs) - u.size)
                continue
        u = np.concatenate([u, rng.random(len(pairs) - u.size)])
        ij = pairs[np.flatnonzero(u < edge_probability)]
        if _connected(n, ij):
            return Graph(n, ij, _searched=True)
    # connect the last draw with a random spanning chain
    perm = rng.permutation(n)
    chain = np.stack([perm[:-1], perm[1:]], axis=1)
    return Graph(n, np.concatenate([ij, chain]))


def matrix_from_array(a, graph: Graph | None = None) -> CombinationMatrix:
    """Wrap a raw square array as a CombinationMatrix, inferring the graph
    from the off-diagonal sparsity pattern when none is given.  A
    CombinationMatrix with no graph given is returned as it is, so every
    entry point that takes either form coerces with this one call; with a
    graph as well, it is a ValueError (the matrix carries its own graph)."""
    if isinstance(a, CombinationMatrix):
        if graph is not None:
            raise ValueError("got a CombinationMatrix and a graph; "
                             "a CombinationMatrix already carries its own graph")
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
    """A CSV file's matrix ("#" starts a comment); ValueError for no numbers or no table."""
    with open(path) as fh:
        lines = [line for line in fh if line.split("#")[0].strip()]
    if not lines:
        raise ValueError("it holds no numbers")
    return np.atleast_2d(np.loadtxt(lines, delimiter=","))
