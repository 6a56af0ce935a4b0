"""Graphs, combination matrices, Perron data, and balance checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decentopt import (
    CombinationMatrix,
    Graph,
    GraphError,
    PerronData,
    SpectralError,
    build_averaging,
    build_metropolis,
    check_balanced,
    load_matrix_csv,
    matrix_from_array,
    perron_vector,
    random_connected_graph,
    save_matrix_csv,
)

from conftest import random_metropolis


# ---------------------------------------------------------------- graphs


def test_graph_canonicalizes_edges():
    g = Graph(3, frozenset({(1, 0), (2, 1)}))
    assert sorted(g.edges) == [(0, 1), (1, 2)]
    assert list(g.degrees()) == [1, 2, 1]
    assert g.neighbors(1) == [0, 2]
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
    p = perron_vector(build_averaging(g)).p
    assert np.abs(p - np.array([3 / 7, 2 / 7, 2 / 7])).max() <= 1e-12


def test_averaging_perron_follows_degrees():
    g = random_connected_graph(9, 0.35, seed=11)
    m = build_averaging(g)
    p = perron_vector(m).p
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


def test_matrix_from_array_infers_graph():
    a = np.array([[0.6, 0.2, 0.2], [0.2, 0.5, 0.3], [0.2, 0.3, 0.5]])
    m = matrix_from_array(a)
    assert sorted(m.graph.edges) == [(0, 1), (0, 2), (1, 2)]
    m2 = matrix_from_array(a, m.graph)
    assert np.array_equal(m2.a, a)


# ------------------------------------------------------------ perron data


def test_perron_uniform_for_doubly_stochastic():
    m = random_metropolis(7, seed=5)
    perron = perron_vector(m)
    assert np.abs(perron.p - 1 / 7).max() <= 1e-12
    assert perron.rhoA < 1.0
    assert -1.0 < perron.lambdaN < 1.0
    assert perron.lambda2 < 1.0
    balanced, violation = check_balanced(m, perron)
    assert balanced is True
    assert violation <= 1e-12


def test_perron_single_agent_conventions():
    m = matrix_from_array(np.array([[1.0]]))
    perron = perron_vector(m)
    assert perron.p.tolist() == [1.0]
    assert np.isnan(perron.lambda2)
    assert perron.lambdaN == 1.0
    assert perron.rhoA == 0.0


def test_perron_residual_is_tiny():
    for seed in (0, 1, 2):
        for build in (build_metropolis, build_averaging):
            m = build(random_connected_graph(6, 0.5, seed))
            p = perron_vector(m).p
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
        perron_vector(m).p[0] = 1.0


def test_check_balanced_flags_asymmetric_column_stochastic():
    a = np.array([[0.6, 0.2, 0.3], [0.2, 0.5, 0.3], [0.2, 0.3, 0.4]])
    assert np.abs(a.sum(axis=0) - 1.0).max() <= 1e-15  # column stochastic...
    m = matrix_from_array(a)
    perron = perron_vector(m)
    balanced, violation = check_balanced(m, perron)
    # ...but A diag(p) is not symmetric, so it is unbalanced
    pa = a @ np.diag(perron.p)
    assert np.abs(pa - pa.T).max() > 1e-3
    assert balanced is False
    assert violation > 1e-3


def test_check_balanced_rejects_degenerate_perron_vector():
    m = matrix_from_array(np.array([[0.5, 0.5], [0.5, 0.5]]))
    fake = PerronData(p=np.array([1.0, 0.0]), lambda2=0.0, lambdaN=0.0, rhoA=0.0)
    balanced, violation = check_balanced(m, fake)
    assert balanced is False and violation > 0


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
    p = perron_vector(m)
    assert check_balanced(m, p)[0]


@settings(max_examples=20, deadline=None)
@given(n=st.integers(2, 8), seed=st.integers(0, 10_000))
def test_averaging_is_balanced_column_stochastic(n, seed):
    m = build_averaging(random_connected_graph(n, 0.5, seed))
    assert np.abs(m.a.sum(axis=0) - 1.0).max() <= 1e-12
    p = perron_vector(m)
    assert p.p.min() > 0
    assert check_balanced(m, p)[0]
