"""Tests of the model-driven QR dispatcher (the paper's Section V-C
autotuning-framework suggestion)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.validation import factorization_error, orthogonality_error
from repro.dispatch import QRDispatcher


@pytest.fixture(scope="module")
def dispatcher():
    return QRDispatcher()


class TestPrediction:
    def test_predictions_sorted(self, dispatcher):
        preds = dispatcher.predict(100_000, 192)
        secs = [p.seconds for p in preds]
        assert secs == sorted(secs)
        assert {p.engine for p in preds} == {"caqr", "blocked", "mkl"}

    def test_skinny_chooses_caqr(self, dispatcher):
        for m, n in ((1_000_000, 192), (100_000, 64), (8192, 512)):
            assert dispatcher.choose(m, n).engine == "caqr"

    def test_square_chooses_blocked(self, dispatcher):
        assert dispatcher.choose(8192, 8192).engine == "blocked"

    def test_crossover_matches_figure9(self, dispatcher):
        x = dispatcher.crossover_width(8192)
        assert x is not None
        assert 2500 <= x <= 6000  # the paper's ~4000-column line

    def test_crossover_none_when_caqr_always_wins(self, dispatcher):
        # Too tall for the libraries to ever catch up within the width cap.
        assert dispatcher.crossover_width(2048, max_width=1024) is None

    def test_no_cpu_option(self):
        d = QRDispatcher(include_cpu=False)
        assert {p.engine for p in d.predict(10_000, 64)} == {"caqr", "blocked"}

    def test_invalid_shape(self, dispatcher):
        with pytest.raises(ValueError):
            dispatcher.predict(0, 5)


class TestPredictionCache:
    def test_predict_memoizes_per_shape(self, monkeypatch):
        import repro.dispatch as dispatch_mod

        calls = {"n": 0}
        real = dispatch_mod.simulate_caqr

        def counting(*args, **kwargs):
            calls["n"] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(dispatch_mod, "simulate_caqr", counting)
        d = QRDispatcher()
        first = d.predict(50_000, 96)
        again = d.predict(50_000, 96)
        assert calls["n"] == 1
        assert first == again
        d.choose(50_000, 96)
        assert calls["n"] == 1  # choose() hits the same cache entry
        d.predict(50_000, 97)
        assert calls["n"] == 2

    def test_crossover_reuses_cached_predictions(self, monkeypatch):
        import repro.dispatch as dispatch_mod

        calls = {"n": 0}
        real = dispatch_mod.simulate_caqr

        def counting(*args, **kwargs):
            calls["n"] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(dispatch_mod, "simulate_caqr", counting)
        d = QRDispatcher()
        d.crossover_width(8192)
        probes = calls["n"]
        d.crossover_width(8192)  # same probes, all cached now
        assert calls["n"] == probes

    def test_returned_list_is_a_copy(self):
        d = QRDispatcher()
        preds = d.predict(10_000, 64)
        preds.clear()
        assert len(d.predict(10_000, 64)) == 3

    def test_lru_eviction(self):
        # One shard so all three shapes share one LRU order (the
        # multi-shard default spreads keys across independent LRUs).
        d = QRDispatcher(cache_size=2, cache_shards=1)
        d.predict(1000, 8)
        d.predict(1000, 9)
        d.predict(1000, 8)  # refresh: (1000, 9) is now least recent
        d.predict(1000, 10)  # evicts (1000, 9)
        assert set(d._pred_cache) == {(1000, 8), (1000, 10)}

    def test_sharded_capacity_is_bounded(self):
        d = QRDispatcher(cache_size=8, cache_shards=4)
        for n in range(8, 40):
            d.predict(4096, n)
        # ceil(8 / 4) = 2 entries per shard, 4 shards.
        assert len(d._pred_cache) <= 8


class TestLookaheadPlumbing:
    def test_qr_forwards_execution_options(self, rng):
        from repro.kernels.config import REFERENCE_CONFIG as cfg
        from repro.runtime import ExecutionPolicy

        d = QRDispatcher(
            policy=ExecutionPolicy(
                path="lookahead",
                workers=2,
                panel_width=cfg.panel_width,
                block_rows=cfg.block_rows,
                tree_shape=cfg.tree_shape,
            )
        )
        assert d.policy.path == "lookahead" and d.policy.workers == 2
        A = rng.standard_normal((2000, 24))
        out = d.qr(A)
        assert out.engine == "caqr"
        # The cached plan carries the same policy the dispatcher was given.
        plan = d.plan_for(2000, 24)
        assert plan.policy is d.policy
        assert factorization_error(A, out.Q, out.R) < 1e-12
        assert orthogonality_error(out.Q) < 1e-12

    def test_lookahead_matches_serial_dispatch(self, rng):
        from repro.runtime import ExecutionPolicy
        from repro.kernels.config import REFERENCE_CONFIG as cfg

        A = rng.standard_normal((1500, 32))
        serial = QRDispatcher().qr(A)
        overlap = QRDispatcher(
            policy=ExecutionPolicy(
                path="lookahead",
                workers=2,
                panel_width=cfg.panel_width,
                block_rows=cfg.block_rows,
                tree_shape=cfg.tree_shape,
            )
        ).qr(A)
        assert serial.engine == overlap.engine == "caqr"
        assert np.max(np.abs(serial.R - overlap.R)) < 1e-14 * np.linalg.norm(A)


class TestPlanCache:
    def test_qr_reuses_one_plan_per_shape(self, monkeypatch, rng):
        import repro.dispatch as dispatch_mod

        calls = {"n": 0}
        real = dispatch_mod.plan_qr

        def counting(*args, **kwargs):
            calls["n"] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(dispatch_mod, "plan_qr", counting)
        d = QRDispatcher()
        A = rng.standard_normal((2000, 24))
        B = rng.standard_normal((2000, 24))
        d.qr(A)
        d.qr(B)
        assert calls["n"] == 1  # second same-shape matrix skipped planning
        d.qr(rng.standard_normal((2100, 24)))
        assert calls["n"] == 2

    def test_plan_cache_lru_eviction(self):
        d = QRDispatcher(cache_size=2, cache_shards=1)
        d.plan_for(400, 8)
        d.plan_for(400, 9)
        d.plan_for(400, 8)  # refresh: (400, 9) is now least recent
        d.plan_for(400, 10)  # evicts (400, 9)
        assert {k[:2] for k in d._plan_cache} == {(400, 8), (400, 10)}

    def test_plan_keyed_on_dtype(self):
        d = QRDispatcher()
        p64 = d.plan_for(400, 8, dtype=np.float64)
        p32 = d.plan_for(400, 8, dtype=np.float32)
        assert p64 is not p32
        assert d.plan_for(400, 8, dtype=np.float64) is p64

    def test_dispatched_qr_scans_each_matrix_once(self, rng):
        from repro.verify.guards import count_validations

        d = QRDispatcher()
        A = rng.standard_normal((2000, 24))
        d.qr(A)  # warm the plan/pred caches outside the counted window
        with count_validations() as counter:
            out = d.qr(A)
        assert out.engine == "caqr"
        assert counter.validations == 1
        assert counter.scans == 1


class TestShardedCacheContention:
    """The per-shard locks: holding one shape's lock must not serialize
    accesses to shapes that hash to a different shard (the old global
    lock did)."""

    @staticmethod
    def _two_shapes_in_different_shards(d):
        base = (1000, 8)
        base_lock = d._pred_cache.lock_for(base)
        for n in range(9, 64):
            if d._pred_cache.lock_for((1000, n)) is not base_lock:
                return base, (1000, n)
        raise AssertionError("no second shard found (shards=1?)")

    def test_other_shard_proceeds_while_one_lock_is_held(self):
        import threading

        d = QRDispatcher()  # default: 8 shards
        a, b = self._two_shapes_in_different_shards(d)
        d.predict(*a)
        d.predict(*b)  # warm both: the probe below is pure cache reads
        done = threading.Event()

        def hit_other_shard():
            d.predict(*b)
            done.set()

        with d._pred_cache.lock_for(a):
            t = threading.Thread(target=hit_other_shard)
            t.start()
            # Deterministic: b's shard lock is free, so this completes
            # promptly even though a's shard lock is held the whole time.
            assert done.wait(timeout=5.0), (
                "predict() on a different shard blocked behind a held "
                "shard lock — sharding is not isolating shapes"
            )
            t.join()

    def test_same_shard_still_serializes(self):
        import threading

        d = QRDispatcher()
        a, _ = self._two_shapes_in_different_shards(d)
        d.predict(*a)
        done = threading.Event()

        def hit_same_shard():
            d.predict(*a)
            done.set()

        with d._pred_cache.lock_for(a):
            t = threading.Thread(target=hit_same_shard)
            t.start()
            # Same shard: must wait for the lock (LRU order stays exact).
            assert not done.wait(timeout=0.2)
        assert done.wait(timeout=5.0)
        t.join()


class TestCrossoverMemoization:
    def test_crossover_memoizes_per_height_and_cap(self):
        d = QRDispatcher()
        first = d.crossover_width(8192)
        calls = {"n": 0}
        real = d.choose

        def counting(m, n):
            calls["n"] += 1
            return real(m, n)

        d.choose = counting
        try:
            assert d.crossover_width(8192) == first
            assert calls["n"] == 0  # memoized: no probes at all
            # A different width cap is a different question.
            d.crossover_width(8192, max_width=1024)
            assert calls["n"] > 0
        finally:
            del d.choose

    def test_crossover_cache_keyed_on_cap(self):
        d = QRDispatcher()
        assert d.crossover_width(2048, max_width=1024) is None
        full = d.crossover_width(2048)
        assert full is None or full > 1024


class TestThreadSafety:
    def test_concurrent_qr_one_dispatcher(self, rng):
        from concurrent.futures import ThreadPoolExecutor

        d = QRDispatcher(cache_size=4)
        mats = [rng.standard_normal((600 + 50 * (i % 4), 16)) for i in range(16)]
        expected = [QRDispatcher().qr(A).R for A in mats]
        with ThreadPoolExecutor(max_workers=8) as ex:
            results = list(ex.map(d.qr, mats))
        for res, R in zip(results, expected):
            assert res.engine == "caqr"
            np.testing.assert_array_equal(res.R, R)

    def test_concurrent_predict_is_consistent(self):
        from concurrent.futures import ThreadPoolExecutor

        d = QRDispatcher(cache_size=8)
        shapes = [(10_000 + 1000 * (i % 5), 64) for i in range(40)]
        with ThreadPoolExecutor(max_workers=8) as ex:
            results = list(ex.map(lambda s: d.predict(*s), shapes))
        baseline = {s: QRDispatcher().predict(*s) for s in set(shapes)}
        for shape, preds in zip(shapes, results):
            assert preds == baseline[shape]


class TestDispatchedFactorization:
    def test_skinny_runs_caqr_and_is_accurate(self, dispatcher, rng):
        A = rng.standard_normal((2000, 24))
        out = dispatcher.qr(A)
        assert out.engine == "caqr"
        assert factorization_error(A, out.Q, out.R) < 1e-12
        assert orthogonality_error(out.Q) < 1e-12

    def test_squareish_runs_blocked_and_is_accurate(self, rng):
        d = QRDispatcher()
        # Force the blocked path via a shape where the libraries win.
        # (Use small real matrix but monkey-patch choice by predictions:
        # a genuinely square large matrix is too slow to factor in a
        # test, so check the routing logic + numerics separately.)
        A = rng.standard_normal((96, 96))
        out = d.qr(A)  # whatever engine wins, numerics must hold
        assert factorization_error(A, out.Q, out.R) < 1e-12

    def test_predictions_attached(self, dispatcher, rng):
        out = dispatcher.qr(rng.standard_normal((500, 8)))
        assert out.predictions[0].engine == out.engine
        assert len(out.predictions) == 3

    def test_rejects_1d(self, dispatcher):
        with pytest.raises(ValueError):
            dispatcher.qr(np.zeros(5))
