"""Tests of the streaming (single-pass) TSQR."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.streaming import StreamingTSQR
from repro.core.validation import sign_canonical


def push_all(st_obj: StreamingTSQR, A: np.ndarray, sizes: list[int]) -> StreamingTSQR:
    pos = 0
    for h in sizes:
        st_obj.push(A[pos : pos + h])
        pos += h
    assert pos == A.shape[0]
    return st_obj


class TestStreamingR:
    def test_matches_batch_qr(self, rng):
        A = rng.standard_normal((500, 12))
        stq = push_all(StreamingTSQR(n_cols=12), A, [100, 150, 150, 100])
        R_np = np.triu(np.linalg.qr(A, mode="r"))[:12]
        assert np.allclose(np.abs(np.diag(stq.R)), np.abs(np.diag(R_np)), atol=1e-10)

    def test_incremental_prefix_property(self, rng):
        """After each push, R must equal the QR of the prefix seen."""
        A = rng.standard_normal((120, 6))
        stq = StreamingTSQR(n_cols=6)
        for i in range(0, 120, 30):
            stq.push(A[i : i + 30])
            R_np = np.triu(np.linalg.qr(A[: i + 30], mode="r"))[:6]
            assert np.allclose(np.abs(np.diag(stq.R)), np.abs(np.diag(R_np)), atol=1e-10)

    def test_single_row_blocks(self, rng):
        A = rng.standard_normal((25, 4))
        stq = push_all(StreamingTSQR(n_cols=4), A, [1] * 25)
        R_np = np.triu(np.linalg.qr(A, mode="r"))
        assert np.allclose(np.abs(np.diag(stq.R)), np.abs(np.diag(R_np)), atol=1e-10)

    def test_blocks_shorter_than_n(self, rng):
        A = rng.standard_normal((40, 8))
        stq = push_all(StreamingTSQR(n_cols=8), A, [3, 5, 2, 10, 20])
        R_np = np.triu(np.linalg.qr(A, mode="r"))
        assert np.allclose(np.abs(np.diag(stq.R)), np.abs(np.diag(R_np)), atol=1e-10)

    def test_short_total_stream(self, rng):
        A = rng.standard_normal((5, 8))  # fewer rows than columns
        stq = push_all(StreamingTSQR(n_cols=8), A, [2, 3])
        assert stq.R.shape == (5, 8)

    def test_r_before_push_raises(self):
        with pytest.raises(ValueError):
            StreamingTSQR(n_cols=4).R

    def test_bad_block_rejected(self, rng):
        stq = StreamingTSQR(n_cols=4)
        with pytest.raises(ValueError):
            stq.push(rng.standard_normal((3, 5)))
        with pytest.raises(ValueError):
            stq.push(rng.standard_normal((0, 4)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_block_rejected(self, rng, bad):
        stq = StreamingTSQR(n_cols=4)
        stq.push(rng.standard_normal((6, 4)))
        R_before = stq.R.copy()
        block = rng.standard_normal((5, 4))
        block[2, 1] = bad
        with pytest.raises(ValueError, match="StreamingTSQR.push"):
            stq.push(block)
        # The rejected block left no trace in the stream.
        assert stq.m == 6 and stq.n_blocks == 1
        assert np.array_equal(stq.R, R_before)

    def test_bookkeeping(self, rng):
        stq = push_all(StreamingTSQR(n_cols=3), rng.standard_normal((30, 3)), [10, 20])
        assert stq.m == 30
        assert stq.n_blocks == 2


class TestStreamingApply:
    def test_qt_applied_to_stream_gives_r(self, rng):
        A = rng.standard_normal((200, 10))
        stq = push_all(StreamingTSQR(n_cols=10), A, [50, 50, 100])
        out = stq.apply_qt(A.copy())
        assert np.allclose(np.triu(out[:10]), stq.R, atol=1e-11)
        assert np.linalg.norm(out[10:]) < 1e-9

    def test_norm_preserved(self, rng):
        A = rng.standard_normal((90, 5))
        stq = push_all(StreamingTSQR(n_cols=5), A, [30, 30, 30])
        b = rng.standard_normal(90)
        qtb = stq.apply_qt(b)
        assert np.linalg.norm(qtb) == pytest.approx(np.linalg.norm(b))

    def test_least_squares_through_stream(self, rng):
        A = rng.standard_normal((300, 7))
        x_true = rng.standard_normal(7)
        b = A @ x_true
        stq = push_all(StreamingTSQR(n_cols=7), A, [100, 100, 100])
        qtb = stq.apply_qt(b)
        from repro.core.triangular import solve_upper

        x = solve_upper(stq.R[:7, :7], qtb[:7])
        assert np.allclose(x, x_true, atol=1e-9)

    def test_vector_rhs_shape(self, rng):
        A = rng.standard_normal((40, 4))
        stq = push_all(StreamingTSQR(n_cols=4), A, [20, 20])
        out = stq.apply_qt(rng.standard_normal(40))
        assert out.shape == (40,)

    def test_row_mismatch_rejected(self, rng):
        stq = push_all(StreamingTSQR(n_cols=4), rng.standard_normal((20, 4)), [20])
        with pytest.raises(ValueError):
            stq.apply_qt(np.zeros((19, 2)))

    def test_short_first_blocks_apply(self, rng):
        A = rng.standard_normal((40, 8))
        stq = push_all(StreamingTSQR(n_cols=8), A, [3, 3, 3, 31])
        out = stq.apply_qt(A.copy())
        assert np.allclose(np.triu(out[:8]), stq.R, atol=1e-10)
        assert np.linalg.norm(out[8:]) < 1e-9


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(1, 10),
    seed=st.integers(0, 2**31),
    splits=st.lists(st.integers(1, 20), min_size=1, max_size=8),
)
def test_property_streaming_matches_batch(n, seed, splits):
    m = sum(splits)
    A = np.random.default_rng(seed).standard_normal((m, n))
    stq = StreamingTSQR(n_cols=n)
    pos = 0
    for h in splits:
        stq.push(A[pos : pos + h])
        pos += h
    R_np = np.triu(np.linalg.qr(A, mode="r"))
    k = min(m, n)
    assert np.allclose(np.abs(np.diag(stq.R)[:k]), np.abs(np.diag(R_np)[:k]), atol=1e-9)


class TestStreamingDtype:
    def test_dtype_fixed_across_uniform_pushes(self, rng):
        stq = StreamingTSQR(n_cols=4)
        stq.push(rng.standard_normal((6, 4)).astype(np.float32))
        stq.push(rng.standard_normal((6, 4)).astype(np.float32))
        assert stq.R.dtype == np.float32
        assert all(step.VR.dtype == np.float32 for step in stq._steps)

    def test_promotion_mid_stream(self, rng):
        """A float64 block after float32 pushes promotes the running R
        exactly once; results match an all-float64 stream to f32 accuracy."""
        A = rng.standard_normal((18, 4))
        stq = StreamingTSQR(n_cols=4)
        stq.push(A[:6].astype(np.float32))
        stq.push(A[6:12])  # promotes
        stq.push(A[12:])
        assert stq.R.dtype == np.float64
        ref = StreamingTSQR(n_cols=4)
        for i in range(0, 18, 6):
            ref.push(A[i : i + 6])
        assert np.allclose(np.abs(stq.R), np.abs(ref.R), atol=1e-5)
