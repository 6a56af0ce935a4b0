"""Graphs, combination matrices, Perron data, and balance checks."""

import json

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.csgraph
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

from conftest import random_metropolis


# ------------------------------------------------------------ references
# The loop-based graph layer the array-backed one replaced, kept as the
# oracle: the array code must return the same edges and the same bytes.


def reference_connected(n, edges):
    adj = np.zeros((n, n))
    for i, j in edges:
        adj[i, j] = adj[j, i] = 1.0
    ncomp, _ = scipy.sparse.csgraph.connected_components(
        scipy.sparse.csr_matrix(adj), directed=False)
    return ncomp == 1


def reference_random_connected_graph(n, edge_probability, seed):
    rng = np.random.default_rng(seed)
    if n == 1:
        return Graph(1, frozenset())
    iu = np.triu_indices(n, k=1)
    edges = frozenset()
    for _ in range(200):
        mask = rng.random(len(iu[0])) < edge_probability
        edges = frozenset(zip(iu[0][mask].tolist(), iu[1][mask].tolist()))
        if reference_connected(n, edges):
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
    return CombinationMatrix(a, graph)


# ---------------------------------------------------------------- graphs


def test_graph_canonicalizes_edges():
    g = Graph(3, frozenset({(1, 0), (2, 1)}))
    assert sorted(g.edges) == [(0, 1), (1, 2)]
    assert list(g.degrees()) == [1, 2, 1]
    adj = g.adjacency()
    assert adj[0, 1] == 1 and adj[1, 0] == 1 and adj[0, 2] == 0


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


@pytest.mark.parametrize("n", [1, 2, 12, 400])
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
    p = build_averaging(g).perron.p
    assert np.abs(p - np.array([3 / 7, 2 / 7, 2 / 7])).max() <= 1e-12


def test_averaging_perron_follows_degrees():
    g = random_connected_graph(9, 0.35, seed=11)
    m = build_averaging(g)
    p = m.perron.p
    weights = 1.0 + np.asarray(g.degrees(), dtype=float)
    assert np.abs(p - weights / weights.sum()).max() <= 1e-12


def test_matrix_validation_failures():
    k2 = Graph(2, frozenset({(0, 1)}))
    with pytest.raises(ValueError):
        CombinationMatrix(np.array([[1.1, 0.5], [-0.1, 0.5]]), k2)
    with pytest.raises(ValueError):
        CombinationMatrix(np.array([[0.6, 0.5], [0.3, 0.5]]), k2)
    path3 = Graph(3, frozenset({(0, 1), (1, 2)}))
    dense = np.full((3, 3), 1 / 3)
    with pytest.raises(ValueError):
        CombinationMatrix(dense, path3)  # weight on the missing (0, 2) edge
    with pytest.raises(ValueError):
        CombinationMatrix(np.eye(3), k2)  # shape mismatch


def test_matrix_primitivity_failures():
    k2 = Graph(2, frozenset({(0, 1)}))
    with pytest.raises(SpectralError):
        CombinationMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]), k2)
    # weights are column stochastic with a positive diagonal, yet agent 0
    # never listens to agent 1: support is not strongly connected
    with pytest.raises(SpectralError):
        matrix_from_array(np.array([[1.0, 0.5], [0.0, 0.5]]))


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
    perron = m.perron
    assert np.abs(perron.p - 1 / 7).max() <= 1e-12
    assert perron.rhoA < 1.0
    assert -1.0 < perron.lambdaN < 1.0
    assert perron.lambda2 < 1.0
    balanced, violation = check_balanced(m)
    assert balanced is True
    assert violation <= 1e-12


def test_perron_single_agent_conventions():
    m = matrix_from_array(np.array([[1.0]]))
    perron = m.perron
    assert perron.p.tolist() == [1.0]
    assert np.isnan(perron.lambda2)
    assert perron.lambdaN == 1.0
    assert perron.rhoA == 0.0


def test_perron_residual_is_tiny():
    for seed in (0, 1, 2):
        for build in (build_metropolis, build_averaging):
            m = build(random_connected_graph(6, 0.5, seed))
            p = m.perron.p
            assert np.abs(m.a @ p - p).max() <= 1e-12
            assert abs(p.sum() - 1.0) <= 1e-14


def test_combination_matrix_is_read_only():
    source = random_metropolis(4, seed=2).a.copy()
    m = matrix_from_array(source)
    source[0, 0] = 0.0  # the matrix keeps its own copy
    assert m.a[0, 0] > 0
    with pytest.raises(ValueError):
        m.a[0, 0] = 0.5
    with pytest.raises(ValueError):
        m.perron.p[0] = 1.0


def test_check_balanced_flags_asymmetric_column_stochastic():
    a = np.array([[0.6, 0.2, 0.3], [0.2, 0.5, 0.3], [0.2, 0.3, 0.4]])
    assert np.abs(a.sum(axis=0) - 1.0).max() <= 1e-15  # column stochastic...
    m = matrix_from_array(a)
    perron = m.perron
    balanced, violation = check_balanced(m)
    # ...but A diag(p) is not symmetric, so it is unbalanced
    pa = a @ np.diag(perron.p)
    assert np.abs(pa - pa.T).max() > 1e-3
    assert balanced is False
    assert violation > 1e-3


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
    p = m.perron
    assert p.p.min() > 0
    assert check_balanced(m)[0]
