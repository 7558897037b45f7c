"""ExecutionPolicy: validation, and the ``f(A, *, policy=None)`` contract.

The policy is the only way to choose how a factorization runs; these
tests pin its validation and that every public entry point takes it as
its single keyword-only execution argument.
"""

from __future__ import annotations

import inspect
import sys
from pathlib import Path

import pytest

from repro.runtime import ExecutionPolicy
from repro.verify.guards import GuardError

LINT_DIR = Path(__file__).resolve().parents[2] / "tools"


class TestValidation:
    def test_default_is_batched(self):
        p = ExecutionPolicy()
        assert p.path == "batched"
        assert p.uses_batched and not p.uses_structured
        assert p.effective_workers == 1

    def test_unknown_path_rejected(self):
        with pytest.raises(ValueError, match="unknown execution path"):
            ExecutionPolicy(path="warp-drive")

    @pytest.mark.parametrize(
        "kwargs",
        [{"panel_width": 0}, {"block_rows": 0}, {"workers": 0}],
    )
    def test_positive_geometry_required(self, kwargs):
        with pytest.raises(ValueError):
            ExecutionPolicy(path="lookahead" if "workers" in kwargs else "batched", **kwargs)

    def test_workers_require_lookahead(self):
        with pytest.raises(ValueError, match="requires path='lookahead'"):
            ExecutionPolicy(path="batched", workers=3)

    def test_bad_nonfinite_policy_is_guard_error(self):
        with pytest.raises(GuardError):
            ExecutionPolicy(nonfinite="explode")

    def test_frozen(self):
        with pytest.raises(AttributeError):
            ExecutionPolicy().path = "seed"  # type: ignore[misc]

    def test_structured_flags(self):
        assert ExecutionPolicy(path="structured").uses_structured
        assert ExecutionPolicy(path="structured").uses_batched
        assert ExecutionPolicy(path="seed_structured").uses_structured
        assert not ExecutionPolicy(path="seed_structured").uses_batched

    def test_with_nonfinite_returns_self_when_unchanged(self):
        p = ExecutionPolicy()
        assert p.with_nonfinite("raise") is p
        assert p.with_nonfinite("propagate").nonfinite == "propagate"


def _load_entry_points() -> frozenset:
    """The layering lint's list of policy-taking public entry points."""
    sys.path.insert(0, str(LINT_DIR))
    try:
        import lint_layering
    finally:
        sys.path.pop(0)
    return frozenset(lint_layering.ENTRY_POINTS)


def _entry_point(name: str):
    """``(callable, run, default)`` for one entry point.

    ``run(policy)`` calls it on a fixed matrix and returns the array whose
    bits the contract compares (R for the QR entry points, the basis or
    the singular values for the SVD ones, L for the SVT); ``default`` is
    the explicit policy that ``policy=None`` stands for.
    """
    import numpy as np

    from repro.caqr_gpu import caqr_gpu_factor
    from repro.core.caqr import caqr, caqr_qr
    from repro.core.randomized_svd import randomized_range_finder, randomized_svd
    from repro.core.tsqr import tsqr, tsqr_qr
    from repro.dispatch import QRDispatcher
    from repro.gpusim.device import C2050
    from repro.graph.executor import caqr_lookahead
    from repro.kernels.config import REFERENCE_CONFIG as cfg
    from repro.rpca.adaptive import AdaptiveSVT

    A = np.random.default_rng(31).standard_normal((300, 40))
    rsvd = ExecutionPolicy(block_rows=256)
    table = {
        "caqr": (caqr, lambda p: caqr(A, policy=p).R, ExecutionPolicy()),
        "caqr_qr": (caqr_qr, lambda p: caqr_qr(A, policy=p)[1], ExecutionPolicy()),
        "tsqr": (tsqr, lambda p: tsqr(A, policy=p).R, ExecutionPolicy()),
        "tsqr_qr": (tsqr_qr, lambda p: tsqr_qr(A, policy=p)[1], ExecutionPolicy()),
        "caqr_gpu_factor": (
            caqr_gpu_factor,
            lambda p: caqr_gpu_factor(A, policy=p)[0].R,
            ExecutionPolicy(device=C2050, config=cfg),
        ),
        "caqr_lookahead": (
            caqr_lookahead,
            lambda p: caqr_lookahead(A, policy=p).R,
            ExecutionPolicy(path="lookahead"),
        ),
        "randomized_svd": (
            randomized_svd,
            lambda p: randomized_svd(A, 4, policy=p)[1],
            rsvd,
        ),
        "randomized_range_finder": (
            randomized_range_finder,
            lambda p: randomized_range_finder(A, 4, policy=p),
            rsvd,
        ),
        "QRDispatcher": (
            QRDispatcher,
            lambda p: QRDispatcher(policy=p).qr(A).R,
            ExecutionPolicy(
                panel_width=cfg.panel_width,
                block_rows=cfg.block_rows,
                tree_shape=cfg.tree_shape,
            ),
        ),
        "AdaptiveSVT": (AdaptiveSVT, lambda p: AdaptiveSVT(policy=p)(A, 1.0)[0], rsvd),
    }
    return table[name]


# The execution kwargs the entry points used to take beside ``policy=``.
REMOVED_KWARGS = (
    "batched",
    "structured",
    "lookahead",
    "workers",
    "nonfinite",
    "panel_width",
    "block_rows",
    "tree_shape",
)


class TestEntryPointContract:
    """Every policy-taking entry point is ``f(A, *, policy=None)``."""

    @pytest.mark.parametrize("name", sorted(_load_entry_points()))
    def test_policy_is_the_only_execution_argument(self, name):
        import numpy as np

        fn, run, default = _entry_point(name)
        params = inspect.signature(fn).parameters
        assert params["policy"].kind is inspect.Parameter.KEYWORD_ONLY
        assert params["policy"].default is None
        assert not set(REMOVED_KWARGS) & set(params)
        with pytest.raises(TypeError):
            fn(np.ones((8, 2)), batched=False)
        assert np.array_equal(run(None), run(default))

    def test_default_calls_do_not_warn(self, rng, recwarn):
        from repro.core.caqr import caqr_qr

        caqr_qr(rng.standard_normal((32, 8)))
        assert not [w for w in recwarn if w.category is DeprecationWarning]


class TestShardedPolicy:
    """path='sharded' wiring: shards/fanin/interconnect validation."""

    def test_shards_required(self):
        with pytest.raises(ValueError, match="requires shards"):
            ExecutionPolicy(path="sharded")

    def test_shards_rejected_elsewhere(self):
        with pytest.raises(ValueError, match="shards applies only"):
            ExecutionPolicy(path="batched", shards=4)

    def test_shards_must_be_positive(self):
        with pytest.raises(ValueError, match="shards must be positive"):
            ExecutionPolicy(path="sharded", shards=0)

    def test_fanin_bounds_and_scope(self):
        with pytest.raises(ValueError, match="fanin must be at least 2"):
            ExecutionPolicy(path="sharded", shards=4, fanin=1)
        with pytest.raises(ValueError, match="fanin applies only"):
            ExecutionPolicy(path="batched", fanin=2)
        assert ExecutionPolicy(path="sharded", shards=4).effective_fanin == 2
        assert ExecutionPolicy(path="sharded", shards=4, fanin=4).effective_fanin == 4

    def test_interconnect_validated_and_resolved(self):
        from repro.distributed import INTERCONNECTS

        with pytest.raises(ValueError, match="unknown interconnect"):
            ExecutionPolicy(path="sharded", shards=4, interconnect="carrier-pigeon")
        with pytest.raises(ValueError, match="interconnect applies only"):
            ExecutionPolicy(path="batched", interconnect="pcie2")
        p = ExecutionPolicy(path="sharded", shards=4, interconnect="ethernet")
        assert p.resolved_interconnect() is INTERCONNECTS["ethernet"]
        default = ExecutionPolicy(path="sharded", shards=4).resolved_interconnect()
        assert default is INTERCONNECTS["pcie2"]

    def test_describe_names_the_shard_geometry(self):
        from repro.runtime import plan_qr

        plan = plan_qr(64, 8, policy=ExecutionPolicy(path="sharded", shards=4, fanin=3))
        assert "shards=4" in plan.describe() and "fanin=3" in plan.describe()
