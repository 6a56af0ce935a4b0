"""Dual-metric matrix V and nullspace certificates."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decentopt import (
    SpectralError,
    VMatrix,
    build_averaging,
    build_metropolis,
    compute_v,
    matrix_from_array,
    random_connected_graph,
)

from conftest import random_averaging, random_metropolis
from oracles import certify_nullspace


def two_agent(a):
    return matrix_from_array(np.array([[a, 1 - a], [1 - a, a]]))


# -------------------------------------------------------------- compute_v


def test_v_two_agent_oracle():
    # a = 1/2: P = I/2, Abar = (I + A)/2, and V comes out as the rank-one
    # projector 0.25 [[1, -1], [-1, 1]] with squared singular values
    # {1/4, 0}
    m = two_agent(0.5)
    vm = compute_v(m)
    expect = 0.25 * np.array([[1.0, -1.0], [-1.0, 1.0]])
    assert np.abs(vm.v - expect).max() <= 1e-12
    assert np.abs(vm.sigma - np.array([0.25, 0.0])).max() <= 1e-12
    assert certify_nullspace(vm)


def test_v_annihilates_consensus_direction():
    for seed in range(4):
        for builder in (random_metropolis, random_averaging):
            m = builder(6, seed)
            vm = compute_v(m)
            ones = np.ones(6)
            assert np.abs(vm.v @ ones).max() <= 1e-12
            # V is symmetric PSD by construction
            assert np.abs(vm.v - vm.v.T).max() <= 1e-12
            assert np.linalg.eigvalsh(vm.v).min() >= -1e-10
            assert vm.sigma.min() >= 0
            assert np.all(np.diff(vm.sigma) <= 1e-15)  # descending


def test_v_plus_rank_one_is_invertible():
    # the nullspace of V is exactly span{1}, so adding 1 p^T restores
    # full rank
    m = random_averaging(5, seed=2)
    perron = m.perron
    vm = compute_v(m)
    patched = vm.v + np.outer(np.ones(5), perron.p)
    assert np.linalg.matrix_rank(patched) == 5
    assert np.linalg.matrix_rank(vm.v) == 4


def test_v_squared_matches_defining_matrix():
    # V^2 = P - (P Abar^T + Abar P)/2, symmetrized product with P = diag(p)
    m = random_averaging(6, seed=7)
    perron = m.perron
    vm = compute_v(m)
    p = np.diag(perron.p)
    abar = (m.a + np.eye(6)) / 2.0
    target = p - (p @ abar.T + abar @ p) / 2.0
    assert np.abs(vm.v @ vm.v - target).max() <= 1e-12


def test_compute_v_rejects_unbalanced():
    a = np.array([[0.6, 0.2, 0.3], [0.2, 0.5, 0.3], [0.2, 0.3, 0.4]])
    m = matrix_from_array(a)
    with pytest.raises(ValueError):
        compute_v(m)


def test_certify_nullspace_rejects_wrong_kernel():
    # two zero singular values: the kernel is too big to certify
    fake = VMatrix(v=np.zeros((2, 2)), u=np.eye(2), sigma=np.zeros(2))
    assert not certify_nullspace(fake)
    # single zero singular value but kernel direction far from the
    # consensus vector
    u = np.eye(2)
    fake2 = VMatrix(v=np.diag([0.0, 1.0]), u=u[:, ::-1], sigma=np.array([1.0, 0.0]))
    assert not certify_nullspace(fake2)


# ------------------------------------------------------------- properties


@settings(max_examples=15, deadline=None)
@given(n=st.integers(2, 7), seed=st.integers(0, 5_000),
       rule=st.sampled_from(["metropolis", "averaging"]))
def test_v_certified_for_balanced_policies(n, seed, rule):
    g = random_connected_graph(n, 0.5, seed)
    m = build_metropolis(g) if rule == "metropolis" else build_averaging(g)
    vm = compute_v(m)
    assert certify_nullspace(vm)
    assert np.abs(vm.v @ np.ones(n)).max() <= 1e-10
