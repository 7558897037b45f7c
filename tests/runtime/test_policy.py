"""ExecutionPolicy: validation, legacy-kwarg mapping, deprecation contract.

The policy layer is the single place the five legacy kwargs are mapped
onto execution paths; these tests pin that mapping (including the error
cases the pre-policy entry points raised) and the deprecation surface.
"""

from __future__ import annotations

import pytest

from repro.runtime import ExecutionPolicy
from repro.runtime.policy import UNSET, resolve_executor_policy, resolve_policy
from repro.verify.guards import GuardError


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


class TestFromLegacy:
    @pytest.mark.parametrize(
        "kwargs,path",
        [
            ({}, "batched"),
            ({"batched": False}, "seed"),
            ({"structured": True}, "structured"),
            ({"batched": False, "structured": True}, "seed_structured"),
            ({"lookahead": True}, "lookahead"),
            ({"workers": 3}, "lookahead"),
        ],
    )
    def test_mapping(self, kwargs, path):
        assert ExecutionPolicy.from_legacy(**kwargs).path == path

    def test_lookahead_rejects_structured(self):
        with pytest.raises(ValueError, match="not supported with lookahead"):
            ExecutionPolicy.from_legacy(lookahead=True, structured=True)

    def test_lookahead_rejects_seed(self):
        with pytest.raises(ValueError, match="requires the batched"):
            ExecutionPolicy.from_legacy(lookahead=True, batched=False)

    def test_unset_inherits_base(self):
        base = ExecutionPolicy(panel_width=8, block_rows=32, nonfinite="propagate")
        p = ExecutionPolicy.from_legacy(base, workers=2, lookahead=True)
        assert p.path == "lookahead" and p.workers == 2
        assert p.panel_width == 8 and p.block_rows == 32
        assert p.nonfinite == "propagate"


class TestResolvePolicy:
    def test_policy_wins(self):
        p = ExecutionPolicy(path="seed")
        assert resolve_policy("t", p) is p

    def test_mixing_policy_and_legacy_rejected(self):
        with pytest.raises(ValueError, match="not both"):
            resolve_policy("t", ExecutionPolicy(), batched=False)

    def test_deprecated_kwargs_warn(self):
        with pytest.warns(DeprecationWarning, match="docs/architecture.md"):
            p = resolve_policy("t", None, batched=False, stacklevel=2)
        assert p.path == "seed"

    def test_geometry_kwargs_map_silently(self, recwarn):
        p = resolve_policy("t", None, panel_width=4, block_rows=8, tree_shape="binary")
        assert not [w for w in recwarn if w.category is DeprecationWarning]
        assert (p.panel_width, p.block_rows, p.tree_shape) == (4, 8, "binary")

    def test_unset_sentinel_is_singleton_and_falsy_free(self):
        from repro.runtime.policy import _Unset

        assert _Unset() is UNSET

    def test_executor_policy_maps_lookahead_to_edge(self):
        with pytest.warns(DeprecationWarning):
            p = resolve_executor_policy("t", None, lookahead=False, stacklevel=2)
        assert p.path == "lookahead" and p.lookahead_edge is False

    def test_executor_rejects_non_lookahead_policy(self):
        with pytest.raises(ValueError, match="'lookahead' path"):
            resolve_executor_policy("t", ExecutionPolicy(path="batched"))


class TestEntryPointShims:
    """Every public entry point accepts policy= and warns on legacy kwargs."""

    def test_caqr_qr_legacy_warns_and_matches_policy(self, rng):
        import numpy as np

        from repro.core.caqr import caqr_qr

        A = rng.standard_normal((64, 12))
        with pytest.warns(DeprecationWarning):
            Q1, R1 = caqr_qr(A, batched=False, panel_width=4, block_rows=8)
        Q2, R2 = caqr_qr(
            A, policy=ExecutionPolicy(path="seed", panel_width=4, block_rows=8)
        )
        np.testing.assert_array_equal(Q1, Q2)
        np.testing.assert_array_equal(R1, R2)

    @pytest.mark.parametrize(
        "name,kw", [("caqr_qr", {"lookahead": True}), ("tsqr_qr", {"batched": False})]
    )
    def test_wrapper_warns_at_callers_line(self, rng, name, kw):
        import repro.core

        fn = getattr(repro.core, name)
        with pytest.warns(DeprecationWarning) as record:
            fn(rng.standard_normal((64, 8)), **kw)
        assert len(record) == 1
        assert record[0].filename == __file__

    def test_tsqr_legacy_warns(self, rng):
        from repro.core.tsqr import tsqr

        with pytest.warns(DeprecationWarning):
            tsqr(rng.standard_normal((64, 8)), batched=False)

    def test_rsvd_legacy_warns(self, rng):
        from repro.core.randomized_svd import randomized_svd

        with pytest.warns(DeprecationWarning):
            randomized_svd(rng.standard_normal((60, 30)), k=4, batched=False)

    def test_adaptive_svt_legacy_warns(self):
        from repro.rpca.adaptive import AdaptiveSVT

        with pytest.warns(DeprecationWarning):
            svt = AdaptiveSVT(batched=False)
        assert svt.policy.path == "seed"

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
