"""Property-based tests (hypothesis) for the core factorizations.

Invariants exercised on randomized shapes, block configurations and data:

* QR backward error and orthogonality bounded by machine precision for
  every algorithm and configuration.
* R is invariant (up to column signs) across algorithms and tree shapes.
* Applying Q then Q^T is the identity.
* Tree schedules eliminate every block exactly once for any block count.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.caqr import caqr_qr
from repro.core.householder import extract_r, geqr2, house, org2r
from repro.core.tree import build_tree
from repro.core.tsqr import tsqr, tsqr_qr
from repro.core.validation import (
    factorization_error,
    orthogonality_error,
    sign_canonical,
)
from repro.runtime import ExecutionPolicy

# Moderate sizes keep the pure-NumPy factorizations fast under many examples.
dims = st.tuples(st.integers(4, 120), st.integers(1, 24)).filter(lambda t: t[0] >= t[1])


def _random_matrix(m: int, n: int, seed: int, scale_pow: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.standard_normal((m, n)) * (10.0**scale_pow)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 40), seed=st.integers(0, 2**31))
def test_house_always_annihilates(n, seed):
    x = np.random.default_rng(seed).standard_normal(n)
    v, tau, beta = house(x)
    y = x - tau * v * float(v @ x)
    assert abs(y[0] - beta) < 1e-10 * max(1.0, abs(beta))
    assert np.linalg.norm(y[1:]) < 1e-10 * max(1.0, np.linalg.norm(x))


@settings(max_examples=30, deadline=None)
@given(dims=dims, seed=st.integers(0, 2**31), scale=st.integers(-6, 6))
def test_geqr2_backward_stable_across_scales(dims, seed, scale):
    m, n = dims
    A = _random_matrix(m, n, seed, scale)
    VR, tau = geqr2(A)
    Q = org2r(VR, tau, n_cols=min(m, n))
    R = extract_r(VR)
    assert factorization_error(A, Q, R) < 1e-12
    assert orthogonality_error(Q) < 1e-12


@settings(max_examples=30, deadline=None)
@given(
    dims=dims,
    seed=st.integers(0, 2**31),
    block_rows=st.integers(2, 64),
    shape=st.sampled_from(["binary", "quad", "binomial", "flat"]),
)
def test_tsqr_invariants(dims, seed, block_rows, shape):
    m, n = dims
    A = _random_matrix(m, n, seed)
    Q, R = tsqr_qr(A, policy=ExecutionPolicy(block_rows=block_rows, tree_shape=shape))
    assert factorization_error(A, Q, R) < 1e-11
    assert orthogonality_error(Q) < 1e-11
    assert np.allclose(np.tril(R, -1), 0.0)


@settings(max_examples=25, deadline=None)
@given(
    dims=dims,
    seed=st.integers(0, 2**31),
    pw=st.integers(1, 20),
    br=st.integers(4, 48),
)
def test_caqr_invariants(dims, seed, pw, br):
    m, n = dims
    A = _random_matrix(m, n, seed)
    Q, R = caqr_qr(A, policy=ExecutionPolicy(panel_width=pw, block_rows=br))
    assert factorization_error(A, Q, R) < 1e-11
    assert orthogonality_error(Q) < 1e-11


@settings(max_examples=25, deadline=None)
@given(dims=dims, seed=st.integers(0, 2**31), br=st.integers(2, 40))
def test_tsqr_r_matches_numpy_up_to_signs(dims, seed, br):
    m, n = dims
    A = _random_matrix(m, n, seed)
    Q, R = tsqr_qr(A, policy=ExecutionPolicy(block_rows=br))
    Q_np, R_np = np.linalg.qr(A)
    _, Rc = sign_canonical(Q, R)
    _, Rc_np = sign_canonical(Q_np, R_np)
    assert np.allclose(Rc, Rc_np, atol=1e-8 * max(1.0, np.linalg.norm(A)))


@settings(max_examples=25, deadline=None)
@given(dims=dims, seed=st.integers(0, 2**31), br=st.integers(2, 40), k=st.integers(1, 8))
def test_apply_q_qt_roundtrip(dims, seed, br, k):
    m, n = dims
    A = _random_matrix(m, n, seed)
    f = tsqr(A, policy=ExecutionPolicy(block_rows=br))
    B = np.random.default_rng(seed + 1).standard_normal((m, k))
    out = f.apply_q(f.apply_qt(B.copy()))
    assert np.allclose(out, B, atol=1e-10)


@settings(max_examples=60, deadline=None)
@given(
    n_blocks=st.integers(0, 400),
    shape=st.sampled_from(["binary", "quad", "binomial", "flat", "arity:3", "arity:7"]),
)
def test_tree_schedule_always_valid(n_blocks, shape):
    sched = build_tree(n_blocks, shape)
    sched.validate()
    if n_blocks >= 1:
        assert sched.survivors() == [0]
    # The number of eliminations is exactly n_blocks - 1 survivors removed.
    eliminated = sum(len(g) - 1 for lvl in sched.levels for g in lvl)
    assert eliminated == max(0, n_blocks - 1)
