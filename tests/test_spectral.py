"""The dual factor V of the V-form error dynamics (the test oracle
`oracles.dual_factor`, built on `spectral.dual_vectors`) and nullspace
certificates."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decentopt import (
    build_averaging,
    build_error_dynamics,
    build_metropolis,
    matrix_from_array,
    random_connected_graph,
)
from decentopt.graphs import _symmetrized

from conftest import random_averaging, random_metropolis
from oracles import certify_nullspace, dual_factor


def two_agent(a):
    return matrix_from_array(np.array([[a, 1 - a], [1 - a, a]]))


def factor(matrix):
    """`dual_factor` on the eigenpairs of At."""
    p = matrix.perron.p
    return dual_factor(*np.linalg.eigh(_symmetrized(matrix.a, p)), p)


# ------------------------------------------------------------ dual_factor


def test_v_two_agent_oracle():
    # a = 1/2: P = I/2, Abar = (I + A)/2, and V comes out as the rank-one
    # projector 0.25 [[1, -1], [-1, 1]] with squared singular values
    # {1/4, 0}
    v, _ = factor(two_agent(0.5))
    expect = 0.25 * np.array([[1.0, -1.0], [-1.0, 1.0]])
    assert np.abs(v - expect).max() <= 1e-12
    assert np.abs(np.linalg.svd(v, compute_uv=False) ** 2 - [0.25, 0.0]).max() <= 1e-12
    assert certify_nullspace(v)


def test_v_annihilates_consensus_direction():
    for seed in range(4):
        for builder in (random_metropolis, random_averaging):
            m = builder(6, seed)
            v, hu = factor(m)
            ones = np.ones(6)
            # V 1 = 0, and 1^T V = 0: V's columns sum to zero too
            assert np.abs(v @ ones).max() <= 1e-12
            assert np.abs(ones @ v).max() <= 1e-12
            # V V^T = S is symmetric PSD, and H U is orthogonal
            assert np.abs(v @ v.T - m.v_squared).max() <= 1e-12
            assert np.linalg.eigvalsh(v @ v.T).min() >= -1e-10
            assert np.abs(hu.T @ hu - np.eye(6)).max() <= 1e-12


def test_v_plus_rank_one_is_invertible():
    # the nullspace of V is exactly span{1} and its range is 1^perp, so
    # adding 1 p^T restores full rank
    m = random_averaging(5, seed=2)
    v, _ = factor(m)
    patched = v + np.outer(np.ones(5), m.perron.p)
    assert np.linalg.matrix_rank(patched) == 5
    assert np.linalg.matrix_rank(v) == 4


def test_v_squared_matches_defining_matrix():
    # V V^T = P - (P Abar^T + Abar P)/2, symmetrized product with P = diag(p)
    m = random_averaging(6, seed=7)
    v, _ = factor(m)
    p = np.diag(m.perron.p)
    abar = (m.a + np.eye(6)) / 2.0
    target = p - (p @ abar.T + abar @ p) / 2.0
    assert np.abs(v @ v.T - target).max() <= 1e-12


def test_error_dynamics_reject_unbalanced():
    a = np.array([[0.6, 0.2, 0.3], [0.2, 0.5, 0.3], [0.2, 0.3, 0.4]])
    m = matrix_from_array(a)
    with pytest.raises(ValueError, match=r"combination matrix is not balanced \(violation "):
        build_error_dynamics(m)


def test_certify_nullspace_rejects_wrong_kernel():
    # two zero singular values: the kernel is too big to certify
    assert not certify_nullspace(np.zeros((2, 2)))
    # single zero singular value but kernel direction far from the
    # consensus vector
    assert not certify_nullspace(np.diag([0.0, 1.0]))


# ------------------------------------------------------------- properties


@settings(max_examples=15, deadline=None)
@given(n=st.integers(2, 7), seed=st.integers(0, 5_000),
       rule=st.sampled_from(["metropolis", "averaging"]))
def test_v_certified_for_balanced_policies(n, seed, rule):
    g = random_connected_graph(n, 0.5, seed)
    m = build_metropolis(g) if rule == "metropolis" else build_averaging(g)
    v, _ = factor(m)
    assert certify_nullspace(v)
    assert np.abs(v @ np.ones(n)).max() <= 1e-10
