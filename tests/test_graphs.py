"""Graphs, combination matrices, Perron data, and balance checks."""

import gc
import json
import tracemalloc
import weakref

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from decentopt import (
    CombinationMatrix,
    Graph,
    GraphError,
    SpectralError,
    build_averaging,
    build_metropolis,
    check_balanced,
    load_matrix_csv,
    matrix_from_array,
    random_connected_graph,
    save_matrix_csv,
)
from decentopt import graphs
from decentopt.graphs import (PERRON_RESIDUAL_TOL, _components, _connected,
                              _strongly_connected)

from conftest import C, U, random_metropolis
from oracles import (bordered_perron, component_labels_oracle, connected_oracle, dense_abar,
                     dense_averaging, dense_checks, dense_metropolis, dense_operators,
                     dense_v_squared, strongly_connected_oracle)


# ------------------------------------------------------------ references
# The loop-based graph layer the array-backed one replaced, kept as the
# oracle: the array code must return the same edges and the same bytes.


def reference_random_connected_graph(n, edge_probability, seed):
    rng = np.random.default_rng(seed)
    if n == 1:
        return Graph(1, frozenset())
    iu = np.triu_indices(n, k=1)
    edges = frozenset()
    for _ in range(200):
        mask = rng.random(len(iu[0])) < edge_probability
        edges = frozenset(zip(iu[0][mask].tolist(), iu[1][mask].tolist()))
        if connected_oracle(n, edges):
            return Graph(n, edges)
    perm = rng.permutation(n)
    chain = {(min(perm[t - 1], perm[t]), max(perm[t - 1], perm[t])) for t in range(1, n)}
    return Graph(n, edges | frozenset((int(i), int(j)) for i, j in chain))


def reference_build_metropolis(graph):
    n = graph.n
    deg = np.zeros(n, dtype=int)
    for i, j in graph.edges:
        deg[i] += 1
        deg[j] += 1
    a = np.zeros((n, n))
    for i, j in graph.edges:
        w = 1.0 / (1.0 + max(deg[i], deg[j]))
        a[i, j] = a[j, i] = w
    a[np.diag_indices(n)] = 1.0 - a.sum(axis=0)
    return a


def reference_build_averaging(graph):
    n = graph.n
    nbhd = [[k] for k in range(n)]
    for i, j in graph.edges:
        nbhd[i].append(j)
        nbhd[j].append(i)
    a = np.zeros((n, n))
    for k in range(n):
        for l in nbhd[k]:
            a[l, k] = 1.0 / len(nbhd[k])
    return a


def reference_matrix_from_array(a, graph=None):
    a = np.array(a, dtype=float)
    if graph is None:
        n = a.shape[0]
        edges = {
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if a[i, j] > 0 or a[j, i] > 0
        }
        graph = Graph(n, frozenset(edges))
    return matrix_from_array(a, graph)


# The Perron computation the bordered solve replaced: power iteration down
# to its numerical floor, with the full nonsymmetric eigendecomposition
# taking over when the spectral gap is small or the iteration stalls.


def reference_spectrum_summary(vals):
    vals = vals[np.lexsort((-vals.imag, -vals.real))]
    if vals.size == 1:
        return float("nan"), 1.0, 0.0
    rest = np.delete(vals, int(np.argmin(np.abs(vals - 1.0))))
    return float(vals[1].real), float(vals[-1].real), float(np.abs(rest).max())


def reference_power_iteration(a):
    x = np.full(a.shape[0], 1.0 / a.shape[0])
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


def reference_perron(a):
    """(p, (lambda2, lambdaN, rhoA)) as the power-iteration code computed them."""
    summary = reference_spectrum_summary(np.linalg.eigvals(a))
    if a.shape[0] == 1:
        return np.array([1.0]), summary
    if abs(1.0 - summary[2]) >= 1e-3:
        x, residual = reference_power_iteration(a)
        if residual <= PERRON_RESIDUAL_TOL:
            return x, summary
    w, v = np.linalg.eig(a)
    vec = np.real(v[:, np.argmin(np.abs(w - 1.0))])
    vec = -vec if vec.sum() < 0 else vec
    return vec / vec.sum(), summary


# ---------------------------------------------------------------- graphs


def test_graph_canonicalizes_edges():
    g = Graph(3, frozenset({(1, 0), (2, 1)}))
    assert sorted(g.edges) == [(0, 1), (1, 2)]
    assert list(g.degrees()) == [1, 2, 1]
    adj = g.adjacency()
    assert adj[0, 1] == 1 and adj[1, 0] == 1 and adj[0, 2] == 0


def test_graph_takes_an_edge_array():
    pairs = [(2, 1), (0, 1), (1, 2), (3, 0)]
    for edges in (np.array(pairs), np.array(pairs, dtype=np.int32), pairs, iter(pairs)):
        g = Graph(4, edges)
        assert g == Graph(4, frozenset(pairs))
        assert g._ij.tolist() == [[0, 1], [0, 3], [1, 2]]
    assert Graph(1, np.zeros((0, 2), dtype=int)) == Graph(1, frozenset())


def test_graph_rejects_self_loops_and_bad_vertices():
    with pytest.raises(GraphError):
        Graph(3, frozenset({(0, 1), (1, 1), (1, 2)}))
    with pytest.raises(GraphError):
        Graph(3, frozenset({(0, 1), (1, 5)}))


def test_graph_rejects_disconnected():
    with pytest.raises(GraphError):
        Graph(3, frozenset({(0, 1)}))
    with pytest.raises(GraphError):
        Graph(4, frozenset({(0, 1), (2, 3)}))


def test_graph_json_round_trip():
    g = Graph(4, frozenset({(0, 1), (1, 2), (2, 3), (0, 3)}))
    text = g.to_json()
    assert isinstance(text, str)
    assert Graph.from_json(text) == g


def test_single_node_graph():
    g = Graph(1, frozenset())
    assert g.n == 1 and not g.edges


def test_random_connected_graph_is_deterministic_and_connected():
    a = random_connected_graph(8, 0.4, seed=7)
    b = random_connected_graph(8, 0.4, seed=7)
    c = random_connected_graph(8, 0.4, seed=8)
    assert a == b
    assert a != c
    # very sparse draw still comes back connected thanks to the fallback
    sparse = random_connected_graph(12, 0.01, seed=3)
    assert sparse.n == 12
    assert Graph(12, sparse.edges) == sparse  # construction re-validates connectivity


@pytest.mark.parametrize("n", [1, 2, 3, 12, 40, 400])
@pytest.mark.parametrize("prob", [0.006, 0.02, 0.5])
def test_graph_layer_matches_the_loop_reference(n, prob):
    for seed in (11, 12, 13):
        g = random_connected_graph(n, prob, seed)
        assert g.edges == reference_random_connected_graph(n, prob, seed).edges
        assert g.to_json() == json.dumps({"n": n, "edges": sorted(map(list, g.edges))})
        assert build_metropolis(g).a.tobytes() == reference_build_metropolis(g).tobytes()
        averaging = build_averaging(g)
        assert averaging.a.tobytes() == reference_build_averaging(g).tobytes()
        inferred = matrix_from_array(averaging.a)
        expect = reference_matrix_from_array(averaging.a)
        assert inferred.graph.edges == expect.graph.edges == g.edges
        assert inferred.a.tobytes() == expect.a.tobytes()


@pytest.mark.parametrize("k", [0, 1, 7, 50])
def test_advance_leaves_the_generator_where_a_whole_draw_does(k):
    """random_connected_graph skips a rejected draw's tail with `advance`:
    after random(k), advance(n - k) must leave the generator exactly where
    random(n) leaves it, one 64-bit output per uniform."""
    n = 50
    whole, parted = np.random.default_rng(5), np.random.default_rng(5)
    want = whole.random(n)
    assert np.array_equal(parted.random(k), want[:k])
    parted.bit_generator.advance(n - k)
    assert parted.bit_generator.state == whole.bit_generator.state
    assert np.array_equal(parted.random(20), whole.random(20))


@pytest.mark.parametrize("prob", [0.006, 0.02])
def test_random_connected_graph_builds_one_graph(monkeypatch, prob):
    calls = []
    post_init = Graph.__post_init__

    def counted(self):
        calls.append(self.n)
        post_init(self)

    monkeypatch.setattr(Graph, "__post_init__", counted)
    for seed in (11, 12, 13):
        calls.clear()
        random_connected_graph(400, prob, seed)
        assert calls == [400]


def test_connected_agrees_with_the_component_search():
    """The isolated-agent shortcut never changes the answer: random edge
    arrays, with and without isolated agents, and n = 1 and n = 2."""
    seen = set()
    for n in range(1, 11):
        pairs = np.stack(np.triu_indices(n, k=1), axis=1)
        for seed in range(30):
            rng = np.random.default_rng(seed)
            ij = pairs[rng.random(len(pairs)) < rng.uniform(0.0, 0.7)]
            isolated = n > 1 and np.bincount(ij.ravel(), minlength=n).min() == 0
            connected = connected_oracle(n, ij.tolist())
            assert _connected(n, ij) == connected, (n, ij.tolist())
            seen.add((n, isolated, connected))
    assert {(1, False, True), (2, True, False), (2, False, True)} <= seen
    assert {(isolated, connected) for _, isolated, connected in seen} == {
        (True, False), (False, False), (False, True)}


def _strong(a, ij):
    """`_strongly_connected` of the support of a dense array on the edge rows ij."""
    return _strongly_connected(len(a), ij, a[ij[:, 0], ij[:, 1]] > 0, a[ij[:, 1], ij[:, 0]] > 0)


def test_connectivity_matches_the_scipy_oracle_on_random_graphs():
    """The component search, `_connected` and the strong-connectivity test
    against scipy's component searches, on seeded random graphs with
    n in [1, 60] and p in [0, 0.3]: each undirected draw, and directed
    supports on its edges (an arc kept in each direction with probability
    q, or kept both ways)."""
    seen = set()
    for seed in range(400):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 61))
        pairs = np.stack(np.triu_indices(n, k=1), axis=1)
        ij = pairs[rng.random(len(pairs)) < rng.uniform(0.0, 0.3)]
        labels = component_labels_oracle(n, ij)
        assert np.array_equal(_components(n, ij)[0], labels), (n, ij.tolist())
        assert _connected(n, ij) == (not labels.any())
        q = rng.uniform(0.5, 1.0)
        fwd = rng.random(len(ij)) < q
        bwd = fwd if seed % 4 == 0 else rng.random(len(ij)) < q
        a = np.eye(n)
        a[ij[fwd, 0], ij[fwd, 1]] = 1.0
        a[ij[bwd, 1], ij[bwd, 0]] = 1.0
        strong = strongly_connected_oracle(a)
        assert _strong(a, ij) == strong, (n, ij.tolist(), fwd, bwd)
        seen.add((not labels.any(), strong))
    assert seen == {(False, False), (True, False), (True, True)}


def test_connectivity_on_paths_rings_and_stars_at_n2000():
    n = 2000
    line = np.stack([np.arange(n - 1), np.arange(1, n)], axis=1)
    shapes = {
        "path": line,
        "ring": np.vstack([line, [(n - 1, 0)]]),
        "star": np.stack([np.zeros(n - 1, dtype=np.int64), np.arange(1, n)], axis=1),
    }
    for name, ij in shapes.items():
        for cut in (None, n // 2):
            edges = ij if cut is None else np.delete(ij, cut, axis=0)
            labels = component_labels_oracle(n, edges)
            assert np.array_equal(_components(n, edges)[0], labels), (name, cut)
            assert _connected(n, edges) == (not labels.any())
            # arcs along the edges one way only: strongly connected only as a ring
            support = np.eye(n, dtype=bool)
            support[edges[:, 0], edges[:, 1]] = True
            assert _strong(support, edges) == strongly_connected_oracle(support)
            assert _strong(support, edges) == (name == "ring" and cut is None)
    assert Graph(n, shapes["path"]).n == n
    with pytest.raises(GraphError, match="not connected"):
        Graph(n, shapes["star"][1:])


def test_unilateral_supports_are_not_strongly_connected():
    """Raw arrays whose undirected graph is connected but whose arcs all run
    forward in a random order of the agents: no arc returns, so the support
    is not strongly connected, and the constructor names that."""
    for seed in range(40):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 12))
        g = random_connected_graph(n, rng.uniform(0.2, 0.8), seed)
        rank = rng.permutation(n)
        i, j = g._ij.T
        src, dst = np.where(rank[i] < rank[j], i, j), np.where(rank[i] < rank[j], j, i)
        a = np.diag(rng.uniform(0.2, 1.0, n))
        a[src, dst] = rng.uniform(0.2, 1.0, len(src))
        a /= a.sum(axis=0)
        assert not strongly_connected_oracle(a)
        assert connected_oracle(n, np.argwhere(np.triu((a > 0) | (a > 0).T, k=1)))
        with pytest.raises(SpectralError, match="^matrix support is not strongly connected; "
                                                "matrix is not primitive$"):
            matrix_from_array(a)


@pytest.mark.parametrize("n, prob", [(1, 0.5), (12, 0.01), (40, 0.5), (400, 0.006),
                                     (400, 0.02)])
def test_random_connected_graph_searches_the_accepted_draw_once(monkeypatch, n, prob):
    """Every draw that reaches the component search is searched once, and the
    Graph built from the accepted one is not searched again: exactly one
    search, the last, finds a connected graph.  (12, 0.01) and (400, 0.006)
    end in the spanning-chain fallback, which the Graph constructor
    searches."""
    found = []
    connected = graphs._connected

    def counted(n, ij):
        found.append(connected(n, ij))
        return found[-1]

    monkeypatch.setattr(graphs, "_connected", counted)
    for seed in (11, 12, 13):
        found.clear()
        random_connected_graph(n, prob, seed)
        assert found.count(True) == 1 and found[-1], found


def test_malformed_edges_are_graph_errors():
    for edges in ({(0, 1, 2)}, {("a", "b")}, {0, 1}):
        with pytest.raises(GraphError):
            Graph(3, frozenset(edges))


# -------------------------------------------------- combination matrices


def test_metropolis_path_oracle():
    # path 0-1-2: degrees (1, 2, 1); edge weight 1/(1 + max degree) = 1/3
    g = Graph(3, frozenset({(0, 1), (1, 2)}))
    a = build_metropolis(g).a
    expect = np.array(
        [[2 / 3, 1 / 3, 0.0], [1 / 3, 1 / 3, 1 / 3], [0.0, 1 / 3, 2 / 3]]
    )
    assert np.abs(a - expect).max() <= 1e-15


def test_averaging_star_oracle():
    # star with hub 0: column k holds 1/(1 + deg_k) on self and neighbors
    g = Graph(3, frozenset({(0, 1), (0, 2)}))
    a = build_averaging(g).a
    expect = np.array(
        [[1 / 3, 1 / 2, 1 / 2], [1 / 3, 1 / 2, 0.0], [1 / 3, 0.0, 1 / 2]]
    )
    assert np.abs(a - expect).max() <= 1e-15
    p = build_averaging(g).p
    assert np.abs(p - np.array([3 / 7, 2 / 7, 2 / 7])).max() <= 1e-12


def test_averaging_perron_follows_degrees():
    g = random_connected_graph(9, 0.35, seed=11)
    m = build_averaging(g)
    p = m.p
    weights = 1.0 + np.asarray(g.degrees(), dtype=float)
    assert np.abs(p - weights / weights.sum()).max() <= 1e-12


def test_matrix_validation_failures():
    k2 = Graph(2, frozenset({(0, 1)}))
    with pytest.raises(ValueError):
        matrix_from_array(np.array([[1.1, 0.5], [-0.1, 0.5]]), k2)
    with pytest.raises(ValueError):
        matrix_from_array(np.array([[0.6, 0.5], [0.3, 0.5]]), k2)
    path3 = Graph(3, frozenset({(0, 1), (1, 2)}))
    dense = np.full((3, 3), 1 / 3)
    with pytest.raises(ValueError):
        matrix_from_array(dense, path3)  # weight on the missing (0, 2) edge
    with pytest.raises(ValueError):
        matrix_from_array(np.eye(3), k2)  # shape mismatch


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -0.1, 0.1])
def test_the_dense_constructor_refuses_any_nonzero_off_graph_entry(bad):
    a = np.array([[0.5, 0.25, 0.0], [0.5, 0.5, 0.5], [0.0, 0.25, 0.5]])
    a[0, 2] = bad
    with pytest.raises(ValueError, match="nonzero weight on a non-edge pair"):
        matrix_from_array(a, Graph(3, [(0, 1), (1, 2)]))
    # a graph inferred from the nonzero entries holds the pair, and the edge
    # form names the entry
    match = ("non-finite" if not np.isfinite(bad) else "negative" if bad < 0
             else "columns must sum")
    with pytest.raises(ValueError, match=match):
        matrix_from_array(a)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_matrix_rejects_non_finite_entries(bad):
    # NaN passes every comparison-based check and used to surface as a
    # numpy eigensolver message; now it is named before any solve
    with pytest.raises(ValueError, match="non-finite"):
        matrix_from_array(np.array([[bad, 0.5], [0.5, 0.5]]))


def test_matrix_primitivity_failures():
    k2 = Graph(2, frozenset({(0, 1)}))
    with pytest.raises(SpectralError):
        matrix_from_array(np.array([[0.0, 1.0], [1.0, 0.0]]), k2)
    # weights are column stochastic with a positive diagonal, yet agent 0
    # never listens to agent 1: support is not strongly connected
    with pytest.raises(SpectralError):
        matrix_from_array(np.array([[1.0, 0.5], [0.0, 0.5]]))


def test_the_constructor_keeps_read_only_copies_of_the_edge_form():
    """CombinationMatrix(graph, diag, upper, lower) neither freezes nor
    aliases the caller's arrays, and refuses weights that do not fit the
    graph."""
    graph = Graph(3, [(0, 1), (1, 2)])
    diag, upper, lower = np.array([0.5, 0.5, 0.5]), np.array([0.25, 0.5]), np.array([0.5, 0.25])
    m = CombinationMatrix(graph, diag, upper, lower)
    assert np.array_equal(m.a, [[0.5, 0.25, 0.0], [0.5, 0.5, 0.5], [0.0, 0.25, 0.5]])
    for given, kept in zip((diag, upper, lower), (m._diag, m._upper, m._lower)):
        assert given.flags.writeable and not kept.flags.writeable
        assert not np.shares_memory(given, kept)
    diag[0] = 0.0
    assert m._diag[0] == 0.5
    for bad in ((diag[:2], upper, lower), (diag, upper, lower[:1]), (diag, upper, 0.5)):
        with pytest.raises(ValueError, match="edge form shapes"):
            CombinationMatrix(graph, *bad)


@pytest.mark.parametrize("given", [True, False])
def test_the_dense_entry_holds_no_dense_array(given):
    """matrix_from_array reads a 400-agent sparse array into the edge form,
    with the graph given or inferred: the matrix keeps no dense `a` and
    shares no memory with the array, and the read peaks below one N x N
    float array."""
    rule = build_metropolis(random_connected_graph(400, 0.02, seed=5))
    a = np.array(rule.a)
    graph = rule.graph if given else None
    tracemalloc.start()
    try:
        m = matrix_from_array(a, graph)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "a" not in vars(m)
    assert not any(np.shares_memory(w, a) for w in (m._diag, m._upper, m._lower))
    assert a.flags.writeable and peak < a.nbytes
    assert m.graph == rule.graph and np.array_equal(m.a, a)


def test_matrix_from_array_rejects_a_matrix_with_a_graph():
    m = random_metropolis(3, seed=0)
    with pytest.raises(ValueError, match="already carries its own graph"):
        matrix_from_array(m, m.graph)


@pytest.mark.parametrize("shape", [(3, 2), (2, 3), (4,), (2, 2, 2)])
def test_matrix_from_array_rejects_non_square_arrays(shape):
    with pytest.raises(ValueError, match="square"):
        matrix_from_array(np.full(shape, 0.5))


def test_matrix_from_array_infers_graph():
    a = np.array([[0.6, 0.2, 0.2], [0.2, 0.5, 0.3], [0.2, 0.3, 0.5]])
    m = matrix_from_array(a)
    assert sorted(m.graph.edges) == [(0, 1), (0, 2), (1, 2)]
    m2 = matrix_from_array(a, m.graph)
    assert np.array_equal(m2.a, a)
    # each pair carries weight one way only; the graph still has the edge
    cyclic = np.array([[0.5, 0.0, 0.5], [0.5, 0.5, 0.0], [0.0, 0.5, 0.5]])
    assert matrix_from_array(cyclic).graph == reference_matrix_from_array(cyclic).graph


# ------------------------------------------------------------ perron data


def test_perron_uniform_for_doubly_stochastic():
    m = random_metropolis(7, seed=5)
    assert np.abs(m.p - 1 / 7).max() <= 1e-12
    assert m.rhoA < 1.0
    assert -1.0 < m.lambdaN < 1.0
    assert m.lambda2 < 1.0
    balanced, violation = check_balanced(m)
    assert balanced is True
    assert violation <= 1e-12


def test_perron_single_agent_conventions():
    m = matrix_from_array(np.array([[1.0]]))
    assert m.p.tolist() == [1.0]
    assert np.isnan(m.lambda2)
    assert m.lambdaN == 1.0
    assert m.rhoA == 0.0


def test_perron_residual_is_tiny():
    for seed in (0, 1, 2):
        for build in (build_metropolis, build_averaging):
            m = build(random_connected_graph(6, 0.5, seed))
            p = m.p
            assert np.abs(m.a @ p - p).max() <= 1e-12
            assert abs(p.sum() - 1.0) <= 1e-14


@pytest.mark.parametrize("n", [10, 100, 400])
@pytest.mark.parametrize("kind", ["ring", "path"])
@pytest.mark.parametrize("build", [build_metropolis, build_averaging])
def test_bordered_perron_matches_the_power_iteration_reference(n, kind, build):
    # long paths and rings mix slowly: the larger ones have spectral gaps
    # below 1e-3, where the reference switched to the full eigensolve
    edges = [(k, k + 1) for k in range(n - 1)] + ([(0, n - 1)] if kind == "ring" else [])
    m = build(Graph(n, edges))
    p_ref, summary_ref = reference_perron(m.a)
    p = m.p
    assert np.abs(m.a @ p - p).max() <= PERRON_RESIDUAL_TOL
    assert np.abs(p - p_ref).max() <= 1e-12
    summary = (m.lambda2, m.lambdaN, m.rhoA)
    assert summary == pytest.approx(summary_ref, rel=0, abs=1e-12)


def test_an_unbalanced_file_matrix_refuses_its_spectrum(tmp_path):
    """A matrix that is neither balanced nor doubly stochastic has no
    Perron data: each read of p or of the spectrum raises the balance
    text, never an AttributeError.  Its A and Abar operators are still
    there; S, which needs p, is not."""
    path = tmp_path / "a.csv"
    save_matrix_csv(path, U)
    m = matrix_from_array(load_matrix_csv(path))
    assert check_balanced(m)[0] is False
    text = r"^combination matrix is not balanced \(violation 7\.895e-02\)$"
    for read in (lambda: m.p, lambda: m.lambda2, lambda: m.lambdaN, lambda: m.rhoA,
                 lambda: m._eigh, lambda: m.v_squared):
        with pytest.raises(ValueError, match=text):
            read()
    for name, dense in dense_operators(U, np.full(3, 1 / 3)).items():
        if name != "_dual_op":
            assert getattr(m, name).tobytes() == dense.tobytes(), name
    # a doubly stochastic unbalanced matrix has p, but no spectrum either
    c = matrix_from_array(C)
    assert c.p.tolist() == [1 / 3] * 3
    for read in (lambda: c.lambda2, lambda: c.lambdaN, lambda: c.rhoA, lambda: c._eigh):
        with pytest.raises(ValueError,
                           match=r"^combination matrix is not balanced \(violation 1\.667e-01\)$"):
            read()


def test_combination_matrix_is_read_only():
    source = random_metropolis(4, seed=2).a.copy()
    m = matrix_from_array(source)
    source[0, 0] = 0.0  # the matrix keeps its own copy
    assert m.a[0, 0] > 0
    with pytest.raises(ValueError):
        m.a[0, 0] = 0.5
    with pytest.raises(ValueError):
        m.p[0] = 1.0


def test_check_balanced_flags_asymmetric_column_stochastic():
    a = np.array([[0.6, 0.2, 0.3], [0.2, 0.5, 0.3], [0.2, 0.3, 0.4]])
    assert np.abs(a.sum(axis=0) - 1.0).max() <= 1e-15  # column stochastic...
    m = matrix_from_array(a)
    balanced, violation = check_balanced(m)
    # ...but A diag(p) is not symmetric for its true Perron vector (the
    # oracle's solve), so it is unbalanced, and it has no Perron data
    pa = a @ np.diag(bordered_perron(a))
    assert np.abs(pa - pa.T).max() > 1e-3
    assert balanced is False
    assert violation > 1e-3
    # the violation is measured at the candidate read off the edges
    assert violation == _dense_balance(a, m._perron_from_balance())
    with pytest.raises(ValueError, match="not balanced"):
        m.p


def _dense_balance(a, p):
    """The largest entry of |P A^T - A P|, the constructor's former dense
    formula."""
    return float(np.abs(p[:, np.newaxis] * a.T - a * p).max())


def _violation_p(m):
    """The p that m's balance residual is measured at: its own, else the
    candidate read off the edges by local balance, else 1/N."""
    if m._p is not None:
        return m.p
    try:
        return m._perron_from_balance()
    except SpectralError:
        return np.full(m.n, 1.0 / m.n)


def _unbalanced_with_zero_weight_edges(seed):
    """A column-stochastic, strongly connected A on a random 8-agent graph
    with about a third of the arc weights set to 0, so that some graph
    edges carry weight one way or none."""
    rng = np.random.default_rng(seed)
    graph = random_connected_graph(8, 0.6, seed)
    i, j = graph._ij.T
    a = np.eye(8) * rng.uniform(0.1, 1.0, 8)
    a[i, j] = rng.uniform(0.1, 1.0, i.size) * (rng.random(i.size) > 0.35)
    a[j, i] = rng.uniform(0.1, 1.0, i.size) * (rng.random(i.size) > 0.35)
    return matrix_from_array(a / a.sum(axis=0), graph)


def test_balance_over_the_edges_is_the_dense_residual_bit_for_bit():
    matrices = [build(random_connected_graph(n, 0.4, seed))
                for build in (build_metropolis, build_averaging)
                for n, seed in ((6, 1), (40, 2), (120, 3))]
    unbalanced = []
    for seed in range(40):
        try:
            m = _unbalanced_with_zero_weight_edges(seed)
        except SpectralError:  # support not strongly connected
            continue
        i, j = m.graph._ij.T
        if (m.a[i, j] * m.a[j, i] == 0).any():
            unbalanced.append(m)
    assert len(unbalanced) >= 5
    assert not any(check_balanced(m)[0] for m in unbalanced)
    assert all(m._p is None for m in unbalanced)  # none is doubly stochastic
    for m in matrices + unbalanced:
        dense = _dense_balance(m.a, _violation_p(m))
        assert m._balance == dense
        assert check_balanced(m) == (m._balance <= graphs.BALANCE_TOL, dense)
    single = matrix_from_array(np.array([[1.0]]))
    assert single._balance == 0.0 == _dense_balance(single.a, single.p)


# -------------------------------------------------------------- edge form
# The rules build A from the graph's edges, and the CSR operators from the
# arcs; the dense construction they replaced (tests/oracles.py) is the oracle.


def _shape(kind, n):
    if kind.startswith("random"):  # both sides of SPARSE_MAX_DENSITY at n = 250
        return random_connected_graph(n, 0.02 if kind == "random-sparse" else 0.5, seed=n)
    k = np.arange(1, n)
    edges = {
        "path": np.stack([k - 1, k], axis=1),
        "ring": np.stack([k, (k + 1) % n], axis=1) if n > 2 else np.stack([k - 1, k], axis=1),
        "star": np.stack([np.zeros_like(k), k], axis=1),
        "complete": np.stack(np.triu_indices(n, k=1), axis=1),
    }[kind]
    return Graph(n, edges.reshape(-1, 2))


def _assert_operators_match(m, a):
    """Each engine operator of m equals its dense form built from a and m's
    p: the array itself, or the `csr_array` of it, with no zero stored."""
    for name, dense in dense_operators(a, m.p).items():
        op = getattr(m, name)
        if isinstance(op, np.ndarray):
            assert op.tobytes() == dense.tobytes(), name
            continue
        want = scipy.sparse.csr_array(dense)
        for part in ("indptr", "indices", "data"):
            got, ref = getattr(op, part), getattr(want, part)
            assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes(), (name, part)
        assert np.all(op.data != 0), name


@pytest.mark.parametrize("n", [1, 2, 7, 250])
@pytest.mark.parametrize("kind", ["random-sparse", "random-dense", "ring", "path", "star",
                                  "complete"])
@pytest.mark.parametrize("rule", ["metropolis", "averaging"])
def test_the_edge_form_matches_the_dense_construction(monkeypatch, n, kind, rule):
    graph = _shape(kind, n)
    build, dense_build = {"metropolis": (build_metropolis, dense_metropolis),
                          "averaging": (build_averaging, dense_averaging)}[rule]
    m = build(graph)
    a = dense_build(graph)
    assert "a" not in vars(m)  # built on first read
    i, j = graph._ij.T
    for got, want in ((m._diag, np.diag(a)), (m._upper, a[i, j]), (m._lower, a[j, i])):
        assert got.tobytes() == want.tobytes() and not got.flags.writeable
    assert m.a.tobytes() == a.tobytes()
    assert m.abar.tobytes() == dense_abar(a).tobytes()
    p = m.p
    assert m.v_squared.tobytes() == dense_v_squared(a, p).tobytes()
    assert np.abs(p - bordered_perron(a)).max() <= 1e-12
    want = dense_checks(a, p, graphs.SPARSE_MIN_AGENTS, graphs.SPARSE_MAX_DENSITY)
    assert check_balanced(m) == (want["balance"] <= graphs.BALANCE_TOL, want["balance"])
    assert (m.is_doubly_stochastic, m.is_symmetric_doubly_stochastic, m._sparse) == (
        want["doubly"], want["symmetric"], want["sparse"])
    _assert_operators_match(m, a)
    # the same matrix from a file: the same p, bit for bit
    assert matrix_from_array(m.a).p.tobytes() == p.tobytes()
    # every graph's operators in CSR form too, whatever its size and density
    monkeypatch.setattr(graphs, "SPARSE_MIN_AGENTS", 1)
    monkeypatch.setattr(graphs, "SPARSE_MAX_DENSITY", 1.0)
    forced = build(graph)
    assert forced._sparse
    assert forced.p.tobytes() == p.tobytes()
    _assert_operators_match(forced, a)


@pytest.mark.parametrize("n, prob", [(9, 0.4), (250, 0.02)], ids=["dense", "csr"])
def test_a_matrix_is_freed_without_the_garbage_collector(n, prob):
    """No reference cycle keeps a matrix, its dense A, its eigenpairs or
    its operators alive once it is dropped: every cache holds results, none
    the matrix, on the dense path and on the CSR one."""
    m = build_averaging(random_connected_graph(n, prob, seed=2))
    assert m._sparse == (n >= graphs.SPARSE_MIN_AGENTS)
    # fill every cache the matrix holds
    m.p, m.rhoA, m._eigh, m._error_blocks, m.abar, m.v_squared
    m._a_t_op, m._abar_t_op, m._abar_op, m._dual_op
    assert {"a", "_eigh", "_summary", "_error_blocks", "_a_t_op", "_abar_t_op", "_abar_op",
            "_dual_op"} <= set(vars(m))
    gone = weakref.ref(m)
    gc.disable()
    try:
        del m
        assert gone() is None
    finally:
        gc.enable()


def _doubly_stochastic_unbalanced():
    """A nonsymmetric doubly stochastic 4 x 4 A with every edge weighted
    both ways, so that local balance gives a candidate p that fails."""
    perm = np.roll(np.eye(4), 1, axis=0)
    return 0.4 * np.eye(4) + 0.4 * perm + 0.2 * perm.T


@pytest.mark.parametrize("a", [C, _doubly_stochastic_unbalanced()], ids=["cycle", "candidate"])
def test_a_doubly_stochastic_matrix_takes_p_uniform_with_no_solve(monkeypatch, a):
    """An unbalanced doubly stochastic A, with or without a candidate from
    local balance, gets p = 1/N exactly, with no solve; its balance residual
    is measured there, and its operators still match the dense forms."""
    solved = bordered_perron(a)
    monkeypatch.setattr(np.linalg, "solve", _no_call)
    n = a.shape[0]
    m = matrix_from_array(a)
    assert m.is_doubly_stochastic and not m.is_symmetric_doubly_stochastic
    assert m.p.tobytes() == np.full(n, 1.0 / n).tobytes()
    assert check_balanced(m) == (False, _dense_balance(a, m.p))
    assert np.abs(m.p - solved).max() <= 1e-15
    monkeypatch.setattr(graphs, "SPARSE_MIN_AGENTS", 1)
    monkeypatch.setattr(graphs, "SPARSE_MAX_DENSITY", 1.0)
    _assert_operators_match(matrix_from_array(a), a)


def _no_call(*args, **kwargs):
    raise AssertionError("called")


# ---------------------------------------------------------------- file io


def test_matrix_csv_round_trip(tmp_path):
    m = random_metropolis(5, seed=9)
    path = tmp_path / "a.csv"
    save_matrix_csv(path, m.a)
    back = load_matrix_csv(path)
    assert np.array_equal(back, m.a)  # 17 significant digits => exact


# ------------------------------------------------------------- properties


@settings(max_examples=20, deadline=None)
@given(n=st.integers(2, 8), seed=st.integers(0, 10_000))
def test_metropolis_is_symmetric_doubly_stochastic(n, seed):
    m = build_metropolis(random_connected_graph(n, 0.5, seed))
    assert np.abs(m.a - m.a.T).max() <= 1e-15
    assert np.abs(m.a.sum(axis=0) - 1.0).max() <= 1e-12
    assert check_balanced(m)[0]


@settings(max_examples=20, deadline=None)
@given(n=st.integers(2, 8), seed=st.integers(0, 10_000))
def test_averaging_is_balanced_column_stochastic(n, seed):
    m = build_averaging(random_connected_graph(n, 0.5, seed))
    assert np.abs(m.a.sum(axis=0) - 1.0).max() <= 1e-12
    assert m.p.min() > 0
    assert check_balanced(m)[0]
