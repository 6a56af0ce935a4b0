"""Network topologies, combination matrices, and their Perron data.

Agents are the nodes of an undirected connected graph.  A combination
matrix A is nonnegative and left-stochastic (columns sum to one); entry
a[l, k] is the weight agent k applies to data arriving from agent l.

A CombinationMatrix is immutable and held in edge form, its diagonal and
one weight per arc.  Its constructor validates A and computes the Perron
vector and the balance residual in O(N + E), with no solve (see the
class).  The dense A, a balanced A's spectrum (see `PerronData`),
S = (P - A P)/2 (`v_squared`), (I + A)/2 (`abar`), the engines' operators
(CSR arrays built from the arcs on a large sparse network), and the
error-recursion blocks, which read only Abar, p and the eigenpairs of
At = P^{-1/2} A P^{1/2} (`perron._eigh`), come on first read.  No dual
factor V of S and no lifted 2N x 2N matrix is formed.

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
    return not _components(n, ij)[0].any()


def _components(n: int, ij: np.ndarray, ratio: np.ndarray | None = None) -> tuple:
    """(root, x): each agent's component label, the smallest agent in its
    component, by label propagation with pointer jumping over the edge rows
    (i, j), and, given each edge's ratio p_j / p_i, x = p / p_root (all
    ones without ratios).

    Every agent points at a smaller or equal agent, and each pointer chain
    ends at a root that points at itself.  A round hooks, for every edge
    whose ends have different roots, the larger root onto the smaller one
    (the smallest offered, when a root is offered several), then jumps
    pointers until each agent points at its root.  A hook sets the hooked
    root's x from its edge, and a jump multiplies x along the chain.  A
    round that hooks nothing leaves one root per component.  Pointers only
    decrease, so no hook closes a cycle, and each round that hooks merges
    two trees at least: the search ends after at most n rounds, in practice
    a few."""
    root, x = np.arange(n), np.ones(n)
    i, j = ij[:, 0], ij[:, 1]
    while True:
        ri, rj = root[i], root[j]
        cross = ri != rj
        if not cross.any():
            return root, x
        ri, rj = ri[cross], rj[cross]
        hi, lo = np.maximum(ri, rj), np.minimum(ri, rj)
        np.minimum.at(root, hi, lo)
        if ratio is not None:
            up = (ratio * x[i] / x[j])[cross]  # p_rj / p_ri
            won = root[hi] == lo
            x[hi[won]] = np.where(ri > rj, 1.0 / up, up)[won]  # p_hi / p_lo
        while True:
            jumped = root[root]
            if np.array_equal(jumped, root):
                break
            x, root = x * x[root], jumped


def _strongly_connected(n: int, ij: np.ndarray, fwd: np.ndarray, bwd: np.ndarray) -> bool:
    """Whether the directed support of A (an arc l -> k where a[l, k] > 0) is
    strongly connected, for an A that is positive only on the diagonal and
    on the graph edges ij, with fwd and bwd flagging a[i, j] > 0 and
    a[j, i] > 0.  A symmetric support is strongly connected when it is
    connected; otherwise every agent must be reached from agent 0 along the
    arcs, and reach agent 0 (see `_reaches_all`)."""
    if np.array_equal(fwd, bwd):
        return _connected(n, ij[fwd])
    i, j = ij[:, 0], ij[:, 1]
    src = np.concatenate([i[fwd], j[bwd]])
    dst = np.concatenate([j[fwd], i[bwd]])
    return _reaches_all(n, src, dst) and _reaches_all(n, dst, src)


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
class _EdgeForm:
    """A held by its edges: the diagonal `diag` and, over the graph's edge
    rows (i, j), a[i, j] (`upper`) and a[j, i] (`lower`), read-only.  A
    matrix and its Perron data share it, and with it the dense A it builds
    on first read; Perron data that held the matrix would make a reference
    cycle, whose arrays only the garbage collector frees."""

    graph: Graph
    diag: np.ndarray
    upper: np.ndarray
    lower: np.ndarray

    def __post_init__(self):
        for w in (self.diag, self.upper, self.lower):
            w.flags.writeable = False

    @cached_property
    def dense(self) -> np.ndarray:
        """The dense N x N A, read-only, built on first read."""
        return _dense(self.graph._ij, self.diag, self.upper, self.lower)

    def apply(self, x: np.ndarray) -> np.ndarray:
        """A x for a vector x."""
        n, (i, j) = self.graph.n, self.graph._ij.T
        return (self.diag * x + np.bincount(i, self.upper * x[j], n)
                + np.bincount(j, self.lower * x[i], n))


@dataclass(frozen=True, init=False, eq=False)
class CombinationMatrix:
    """Left-stochastic nonnegative matrix tied to a graph.

    Held in edge form (`_EdgeForm`), which the rules build directly
    (`_from_weights`) and the constructor reads from a dense array that is
    zero off the graph.  Validated in O(N + E): finite nonnegative entries,
    column sums, and structural primitivity: a strongly connected support
    with at least one positive self-weight, which makes A irreducible with
    a positive diagonal entry, hence primitive.  So are the balance
    residual of `check_balanced` and p, which `_check_perron` accepts from
    one of two sources: local balance over the edges
    (`_perron_from_balance`) for a balanced A, else 1/N for a doubly
    stochastic A.  Any other A has no Perron data: `perron` raises
    ValueError.  No eigensolve runs at construction: the eigenpairs of the
    symmetric At = P^{-1/2} A P^{1/2} of a balanced A (`perron._eigh`) are
    computed on first read and checked then (see `PerronData`).  The dense
    `a` is built on first read and read-only, so the cached spectral data
    cannot go stale.
    """

    graph: Graph
    _form: _EdgeForm = field(repr=False)
    _perron: PerronData | None = field(repr=False)
    _balance: float = field(repr=False)

    def __init__(self, a, graph: Graph):
        a = np.array(a, dtype=float)
        a.flags.writeable = False
        n = graph.n
        if a.shape != (n, n):
            raise ValueError(f"matrix shape {a.shape} does not match n={n}")
        allowed = graph.adjacency().astype(bool) | np.eye(n, dtype=bool)
        if np.any((a != 0) & ~allowed):  # the edge form checks the rest
            raise ValueError("nonzero weight on a non-edge pair")
        i, j = graph._ij.T
        form = _EdgeForm(graph, np.diag(a), a[i, j], a[j, i])
        object.__setattr__(form, "dense", a)  # the dense form is given: keep it
        self.__post_init__(form)

    @classmethod
    def _from_weights(cls, graph: Graph, diag, upper, lower) -> CombinationMatrix:
        """The matrix with diagonal `diag` and weights a[i, j] = upper and
        a[j, i] = lower over the graph's edge rows (i, j): no N x N array."""
        matrix = cls.__new__(cls)
        matrix.__post_init__(_EdgeForm(graph, diag, upper, lower))
        return matrix

    def __post_init__(self, form: _EdgeForm):
        """Validates the edge form in O(N + E), then computes p and the
        balance residual."""
        object.__setattr__(self, "graph", form.graph)
        object.__setattr__(self, "_form", form)
        weights = np.concatenate([form.diag, form.upper, form.lower])
        if not np.isfinite(weights).all():
            raise ValueError("combination matrix has non-finite entries")
        if weights.min() < 0:
            raise ValueError("combination matrix has negative entries")
        deviation = np.abs(_column_sums(form.graph._ij, form.diag, form.upper, form.lower)
                           - 1.0).max()
        if deviation > COLUMN_SUM_TOL:
            raise ValueError(
                f"columns must sum to 1 within {COLUMN_SUM_TOL:g}; "
                f"max deviation {deviation:.3e}"
            )
        if not np.any(form.diag > 0):
            raise SpectralError("no agent has a positive self-weight")
        # directed support must be strongly connected, otherwise the
        # Perron vector degenerates (zero entries)
        if not _strongly_connected(self.n, form.graph._ij, form.upper > 0, form.lower > 0):
            raise SpectralError(
                "matrix support is not strongly connected; "
                "matrix is not primitive"
            )
        uniform = np.full(self.n, 1.0 / self.n)
        try:
            p = _perron_from_balance(form)
        except SpectralError:  # A cannot be balanced: measure the residual at 1/N
            p = uniform
        balance = _balance_residual(form, p)
        if not balance <= BALANCE_TOL and self.is_doubly_stochastic:
            p, balance = uniform, _balance_residual(form, uniform)
        perron = None
        if balance <= BALANCE_TOL or self.is_doubly_stochastic:
            _check_perron(form, p)
            p.flags.writeable = False
            perron = PerronData(p, form)
        object.__setattr__(self, "_perron", perron)
        object.__setattr__(self, "_balance", balance)

    @property
    def n(self) -> int:
        return self.graph.n

    @property
    def perron(self) -> PerronData:
        """The Perron data, or ValueError for an A with none."""
        if self._perron is None:
            _require_balanced(self._balance)
        return self._perron

    @property
    def a(self) -> np.ndarray:
        """The dense N x N A, read-only, built on first read (a matrix
        given as a dense array keeps a copy of it)."""
        return self._form.dense

    @cached_property
    def is_doubly_stochastic(self) -> bool:
        """Rows sum to one within 1e-10 (columns always do)."""
        return bool(np.abs(self._form.apply(np.ones(self.n)) - 1.0).max() <= STOCHASTIC_TOL)

    @cached_property
    def is_symmetric_doubly_stochastic(self) -> bool:
        """Symmetric within 1e-10 as well as doubly stochastic."""
        form = self._form
        return self.is_doubly_stochastic and bool(
            np.abs(form.upper - form.lower).max(initial=0.0) <= STOCHASTIC_TOL)

    @cached_property
    def v_squared(self) -> np.ndarray:
        """S = V V^T = (P - A P)/2 of a balanced matrix, read-only,
        computed on first use (see `_weights`).  It has A's sparsity, plus
        the diagonal."""
        return _dense(self.graph._ij, *self._weights("v_squared"))

    @cached_property
    def abar(self) -> np.ndarray:
        """(I + A)/2, read-only, computed on first use."""
        return _dense(self.graph._ij, *self._weights("abar"))

    @cached_property
    def _sparse(self) -> bool:
        """Whether the engines' operators take CSR form: on a large sparse
        network (see SPARSE_MIN_AGENTS)."""
        n = self.n
        form = self._form
        nonzeros = sum(np.count_nonzero(w) for w in (form.diag, form.upper, form.lower))
        return n >= SPARSE_MIN_AGENTS and nonzeros <= SPARSE_MAX_DENSITY * n * n

    def _weights(self, name: str) -> tuple:
        """The edge form (diag, upper, lower) of A ("a"), of (I + A)/2
        ("abar") or of S = (P - A P)/2 ("v_squared"), which balance makes
        symmetric and which is symmetrized to drop the rounding skew.  Each
        entry is computed as the dense formula computes it, so a -0.0
        weight gives +0.0 there as well."""
        d, up, lo = self._form.diag, self._form.upper, self._form.lower
        if name == "abar":
            return (1.0 + d) / 2.0, (0.0 + up) / 2.0, (0.0 + lo) / 2.0
        if name == "v_squared":
            p, (i, j) = self.perron.p, self.graph._ij.T
            s = ((0.0 - up * p[j]) / 2.0 + (0.0 - lo * p[i]) / 2.0) / 2.0
            return (p - d * p) / 2.0, s, s
        return d, up, lo

    def _operator(self, name: str, transpose: bool = False):
        """The operator of `_weights(name)`, or of its transpose: on a large
        sparse network the `csr_array` assembled from the weights, a
        transpose swapping each edge's two weights, else the matrix's cached
        dense array or its transposed view."""
        if not self._sparse:
            dense = getattr(self, name)
            return dense.T if transpose else dense
        d, up, lo = self._weights(name)
        return _csr(self.graph._ij, d, *((lo, up) if transpose else (up, lo)))

    # The engines' operators, each built on first read: `op @ x` on an (N, M)
    # block or an (N, B*M) stack, with the `csr_array` on a large sparse
    # network, else the dense array.  Each engine's step reads only the ones
    # it applies.

    @cached_property
    def _a_t_op(self):
        """A^T, the tracking engines' combine."""
        return self._operator("a", transpose=True)

    @cached_property
    def _abar_t_op(self):
        """Abar^T, the exact diffusion engines' combine."""
        return self._operator("abar", transpose=True)

    @cached_property
    def _abar_op(self):
        """Abar, extra's combine."""
        return self._operator("abar")

    @cached_property
    def _dual_op(self):
        """`v_squared`, the primal-dual engines' dual step."""
        return self._operator("v_squared")

    @cached_property
    def _error_blocks(self):
        """The closed-form decomposition of the error recursion's B of a
        balanced matrix, its certified radius and the norm of T_d, computed
        on first use in one pass with no B (`stability._Blocks`)."""
        from .stability import _network_blocks

        return _network_blocks(self)


def _column_sums(ij: np.ndarray, diag, upper, lower) -> np.ndarray:
    """The column sums of the edge form (see `CombinationMatrix`), each
    column's entries added in row order, as numpy sums a dense A along axis
    0: column k takes the upper weights of edges (l, k), then a[k, k], then
    the lower weights of edges (k, l), each in ascending l."""
    n = diag.size
    return np.bincount(np.concatenate([ij[:, 1], np.arange(n), ij[:, 0]]),
                       np.concatenate([upper, diag, lower]), n)


def _dense(ij: np.ndarray, diag, upper, lower) -> np.ndarray:
    """The read-only N x N array with diagonal `diag`, upper at the edge rows
    (i, j), lower at (j, i) and +0.0 elsewhere."""
    n, (i, j) = diag.size, ij.T
    a = np.zeros((n, n))
    a[i, j], a[j, i] = upper, lower
    a[np.diag_indices(n)] = diag
    a.flags.writeable = False
    return a


def _csr(ij: np.ndarray, diag, upper, lower):
    """The `csr_array` with diagonal `diag`, upper at the edge rows (i, j)
    and lower at (j, i): zeros dropped and each row's columns ascending, with
    int32 indices, as `csr_array` stores a dense array."""
    import scipy.sparse  # loaded by the first large sparse network only

    n = diag.size
    rows, cols = (np.concatenate([np.arange(n), ij[:, k], ij[:, 1 - k]]) for k in (0, 1))
    data = np.concatenate([diag, upper, lower])
    kept = np.flatnonzero(data)
    kept = kept[np.argsort(rows[kept] * n + cols[kept])]  # row-major order
    index = np.int32 if kept.size < 2**31 else np.int64
    indptr = np.searchsorted(rows[kept], np.arange(n + 1))
    return scipy.sparse.csr_array((data[kept], cols[kept].astype(index), indptr.astype(index)),
                                  shape=(n, n))


@dataclass(frozen=True)
class PerronData:
    """Perron vector p (Ap = p, sum 1, entrywise positive) of a primitive
    left-stochastic A, plus the spectral summary of a balanced A:
    second-largest eigenvalue lambda2, smallest eigenvalue lambdaN, and
    second-largest eigenvalue magnitude rhoA.

    p is computed with the matrix; the spectrum on first read, from one
    `eigh` of At (`_eigh`), which the Perron data caches with its
    eigenvectors.  That first read checks the eigenvalues: exactly one
    within UNIT_EIG_TOL of 1 and no other on the unit circle, else
    SpectralError, and ValueError for an unbalanced A.  A structurally
    primitive A passes unless rounding trips the check."""

    p: np.ndarray
    _form: _EdgeForm = field(repr=False, compare=False)

    @cached_property
    def _eigh(self) -> tuple:
        """(lam, U) of a balanced A's At = U diag(lam) U^T, read-only,
        ascending with the unit eigenvalue last, from one `eigh` on first use."""
        _require_balanced(_balance_residual(self._form, self.p))
        lam, u = np.linalg.eigh(_symmetrized(self._form.dense, self.p))
        _check_primitive(lam)
        lam.flags.writeable = u.flags.writeable = False
        return lam, u

    @cached_property
    def _summary(self) -> tuple:
        return _spectrum_summary(self._eigh[0])

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
    i, j = graph._ij.T
    deg = graph.degrees()
    w = 1.0 / (1.0 + np.maximum(deg[i], deg[j]))
    diag = 1.0 - _column_sums(graph._ij, np.zeros(graph.n), w, w)
    return CombinationMatrix._from_weights(graph, diag, w, w)


def build_averaging(graph: Graph) -> CombinationMatrix:
    """Averaging rule: column k holds 1/|N_k| on the closed neighborhood
    of agent k.  Left-stochastic and balanced, with Perron entries
    proportional to the closed-neighborhood sizes."""
    i, j = graph._ij.T
    w = 1.0 / (1.0 + graph.degrees())
    return CombinationMatrix._from_weights(graph, w, w[j], w[i])


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
    """(lambda2, lambdaN, rhoA) from A's eigenvalues, real and ascending
    with the unit one last (see `_check_primitive`)."""
    if vals.size == 1:
        return float("nan"), 1.0, 0.0
    return float(vals[-2]), float(vals[0]), float(max(abs(vals[0]), abs(vals[-2])))


def _symmetrized(a: np.ndarray, p: np.ndarray) -> np.ndarray:
    """At = P^{-1/2} A P^{1/2} of a balanced A, without its rounding skew."""
    a_tilde = a * np.sqrt(p) / np.sqrt(p)[:, np.newaxis]
    return (a_tilde + a_tilde.T) / 2.0


def _perron_from_balance(form: _EdgeForm) -> np.ndarray:
    """The candidate Perron vector of a balanced A, read off its edges by
    local balance, p_j / p_i = a[j, i] / a[i, j] on each edge weighted both
    ways, carried along the component search's trees (`_components`) and
    normalized.  SpectralError when those edges do not connect the agents,
    so A cannot be balanced."""
    both = (form.upper > 0) & (form.lower > 0)
    root, x = _components(form.graph.n, form.graph._ij[both],
                          form.lower[both] / form.upper[both])
    if root.any():
        raise SpectralError("the edges weighted both ways do not connect the agents")
    return x / x.sum()


def _check_perron(form: _EdgeForm, p: np.ndarray) -> None:
    """SpectralError unless p is an entrywise positive Perron vector of A
    within the residual tolerance."""
    if not p.min() > 0:
        raise SpectralError("Perron vector is not entrywise positive")
    residual = np.abs(form.apply(p) - p).max()
    if not residual <= PERRON_RESIDUAL_TOL:
        raise SpectralError(f"Perron residual {residual:.3e} above tolerance")


def _balance_residual(form: _EdgeForm, p: np.ndarray) -> float:
    """The largest |p_i a[j, i] - a[i, j] p_j| over the edges (the diagonal
    and off-edge terms of P A^T - A P are exactly 0)."""
    i, j = form.graph._ij.T
    return float(np.abs(p[i] * form.lower - form.upper * p[j]).max(initial=0.0))


def _require_balanced(violation: float) -> None:
    """ValueError unless the balance residual `violation` is within BALANCE_TOL."""
    if not violation <= BALANCE_TOL:
        raise ValueError(f"combination matrix is not balanced (violation {violation:.3e})")


def check_balanced(matrix: CombinationMatrix):
    """Balance predicate: P A^T == A P with P = diag(p), p the matrix's own
    Perron vector.

    Returns (balanced, violation) where violation is the largest residual
    entry, as the constructor measured it: at p for a matrix with Perron
    data, else at the candidate read off the edges by local balance, or at
    1/N when the edges weighted both ways do not connect the agents.
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
    total, k = n * (n - 1) // 2, np.arange(n)
    starts = k * n - k * (k + 1) // 2  # row k's pairs start at this uniform of a draw
    stages = sorted({min(8, -(-n // 8)), -(-n // 8)})  # rows tested after each stage
    u = np.empty(total)
    for draw in range(200):
        drawn = 0
        if n > 1 and draw < 199:  # the fallback reads the last draw whole
            for rows in stages:
                end = rows * n - rows * (rows + 1) // 2  # pairs in those rows
                rng.random(out=u[drawn:end])
                drawn = end
                hit = _pairs(starts, np.flatnonzero(u[:end] < edge_probability))
                isolated = np.bincount(hit.ravel(), minlength=rows)[:rows].min() == 0
                if isolated:
                    break
            if isolated:
                rng.bit_generator.advance(total - drawn)
                continue
        rng.random(out=u[drawn:])
        ij = _pairs(starts, np.flatnonzero(u < edge_probability))
        if _connected(n, ij):
            return Graph(n, ij, _searched=True)
    # connect the last draw with a random spanning chain
    perm = rng.permutation(n)
    chain = np.stack([perm[:-1], perm[1:]], axis=1)
    return Graph(n, np.concatenate([ij, chain]))


def _pairs(starts: np.ndarray, flat: np.ndarray) -> np.ndarray:
    """The (i, j) rows of the agent pairs at the given indices of the
    `triu_indices` order, whose row k starts at index starts[k]."""
    i = np.searchsorted(starts, flat, side="right") - 1
    return np.stack([i, flat - starts[i] + i + 1], axis=1)


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
        support = a != 0
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
