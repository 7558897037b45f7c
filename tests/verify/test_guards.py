"""The single validation policy, demonstrated at every public entry point.

Complex input raises ``TypeError``; non-finite input raises ``ValueError``
by default with a ``nonfinite="propagate"`` escape hatch; int inputs
normalize to float64 and float32 is preserved.  These are the PR's two
headline bugfixes: previously complex inputs were silently truncated to
their real part (a ``ComplexWarning`` at best) and NaN/Inf flowed through
to plausible-looking garbage factors.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.caqr_gpu import caqr_gpu_factor
from repro.core.blocked import blocked_qr
from repro.core.caqr import caqr_qr
from repro.core.cholesky_qr import cholesky_qr
from repro.core.gram_schmidt import cgs2
from repro.core.randomized_svd import randomized_svd
from repro.core.tsqr import tsqr_qr
from repro.dispatch import QRDispatcher
from repro.graph.executor import caqr_lookahead
from repro.rpca.adaptive import AdaptiveSVT
from repro.runtime import ExecutionPolicy
from repro.verify.guards import GuardError, validate_matrix, validate_nonfinite_policy

# Every public entry point, normalized to a callable taking one matrix.
ENTRY_POINTS = {
    "caqr_qr": lambda A: caqr_qr(A),
    "tsqr_qr": lambda A: tsqr_qr(A),
    "blocked_qr": lambda A: blocked_qr(A),
    "caqr_lookahead": lambda A: caqr_lookahead(A),
    "caqr_gpu_factor": lambda A: caqr_gpu_factor(A),
    "dispatcher": lambda A: QRDispatcher().qr(A),
    "randomized_svd": lambda A: randomized_svd(A, k=2),
    "adaptive_svt": lambda A: AdaptiveSVT()(A, tau=0.1),
    "cholesky_qr": lambda A: cholesky_qr(A),
    "cgs2": lambda A: cgs2(A),
}


def _dispatcher_policy(**fields) -> ExecutionPolicy:
    """A :class:`QRDispatcher`'s default policy, with ``fields`` changed."""
    from repro.kernels.config import REFERENCE_CONFIG as cfg

    return ExecutionPolicy(
        panel_width=cfg.panel_width,
        block_rows=cfg.block_rows,
        tree_shape=cfg.tree_shape,
        **fields,
    )


@pytest.fixture(params=list(ENTRY_POINTS))
def entry_point(request):
    return ENTRY_POINTS[request.param]


class TestComplexRejection:
    def test_every_entry_point_raises_type_error(self, rng, entry_point):
        A = rng.standard_normal((32, 4)) + 1j * rng.standard_normal((32, 4))
        with pytest.raises(TypeError, match="complex"):
            entry_point(A)

    def test_complex_dtype_with_zero_imaginary_still_rejected(self, rng):
        # The dtype is the contract; a zero imaginary part is still a bug
        # waiting to happen upstream.
        A = rng.standard_normal((16, 3)).astype(np.complex128)
        with pytest.raises(TypeError, match="complex"):
            caqr_qr(A)

    def test_as_float_array_is_the_chokepoint(self, rng):
        from repro.core.dtypes import as_float_array

        with pytest.raises(TypeError, match="complex"):
            as_float_array(np.array([1 + 2j, 3 + 4j]))


class TestNonFiniteGuard:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_every_entry_point_raises_value_error(self, rng, entry_point, bad):
        A = rng.standard_normal((32, 4))
        A[7, 2] = bad
        with pytest.raises(ValueError, match="non-finite"):
            entry_point(A)

    def test_error_message_locates_first_bad_entry(self, rng):
        A = rng.standard_normal((32, 4))
        A[7, 2] = np.nan
        with pytest.raises(ValueError, match=r"\(7, 2\)"):
            caqr_qr(A)

    def test_error_message_mentions_escape_hatch(self, rng):
        A = rng.standard_normal((8, 2))
        A[0, 0] = np.inf
        with pytest.raises(ValueError, match="propagate"):
            tsqr_qr(A)

    def test_error_message_names_the_policy_field(self, rng):
        from repro.core.caqr import caqr

        A = rng.standard_normal((16, 4))
        A[3, 1] = np.nan
        with pytest.raises(ValueError, match=r"ExecutionPolicy\(nonfinite='propagate'\)"):
            caqr(A)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_propagate_opt_in(self, rng):
        A = rng.standard_normal((64, 8))
        A[17, 3] = np.nan
        Q, R = caqr_qr(A, policy=ExecutionPolicy(nonfinite="propagate"))
        assert not np.isfinite(Q).all() or not np.isfinite(R).all()

    def test_dispatcher_propagate_is_constructor_state(self, rng):
        A = rng.standard_normal((64, 8))
        A[1, 1] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            QRDispatcher().qr(A)
        res = QRDispatcher(policy=_dispatcher_policy(nonfinite="propagate")).qr(A)
        assert not np.isfinite(res.R).all()

    def test_unknown_policy_is_guard_error(self):
        with pytest.raises(GuardError, match="nonfinite"):
            validate_nonfinite_policy("explode")
        with pytest.raises(GuardError):
            QRDispatcher(policy=_dispatcher_policy(nonfinite="explode"))
        with pytest.raises(GuardError):
            AdaptiveSVT(policy=ExecutionPolicy(block_rows=256, nonfinite="explode"))


class TestNormalization:
    def test_int_input_becomes_float64(self):
        A = validate_matrix(np.arange(12).reshape(4, 3), where="t")
        assert A.dtype == np.float64

    def test_float32_preserved(self, rng):
        A = validate_matrix(rng.standard_normal((8, 3)).astype(np.float32), where="t")
        assert A.dtype == np.float32

    def test_dtype_pin_overrides(self, rng):
        A = validate_matrix(
            rng.standard_normal((8, 3)).astype(np.float32), where="t", dtype=np.float64
        )
        assert A.dtype == np.float64

    def test_non_2d_rejected(self):
        with pytest.raises(ValueError):
            validate_matrix(np.zeros(5), where="t")
        with pytest.raises(ValueError):
            validate_matrix(np.zeros((2, 2, 2)), where="t")

    def test_int_matrix_factors_end_to_end(self):
        A = np.arange(1, 33).reshape(8, 4)
        Q, R = caqr_qr(A, policy=ExecutionPolicy(panel_width=2, block_rows=4))
        assert Q.dtype == np.float64
        assert np.allclose(Q @ R, A.astype(np.float64))

    def test_where_tag_appears_in_errors(self, rng):
        A = rng.standard_normal((4, 2))
        A[0, 0] = np.nan
        with pytest.raises(ValueError, match="cholesky_qr"):
            cholesky_qr(A)
