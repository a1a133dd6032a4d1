"""Shard engine mechanics and counter thread-safety."""

import functools
import threading

import numpy as np
import pytest

from repro.core.config import PC3_TR
from repro.core.kernels import (
    reset_table_cache_counters,
    table_cache_counters,
    value_table,
)
from repro.formats.floatfmt import BFLOAT16
from repro.formats.packed import pack, packing_counters, reset_packing_counters
from repro.nn.backend import bfp_backend, daism_backend, exact_backend
from repro.nn.models import (
    build_lenet,
    build_mlp,
    build_mobilenet_edge,
    build_transformer_encoder,
)
from repro.runtime import BatchEngine, compile_plan
from repro.runtime import engine as engine_module


class TestBatchEngine:
    def test_invalid_shards_rejected(self):
        plan = compile_plan(build_mlp().eval(), exact_backend())
        with pytest.raises(ValueError, match="shards"):
            BatchEngine(plan, shards=0)

    def test_close_is_idempotent_and_context_managed(self, shard_calls):
        plan = compile_plan(build_mlp().eval(), exact_backend())
        with BatchEngine(plan, shards=2) as engine:
            x = np.random.default_rng(0).standard_normal((4, 32)).astype(np.float32)
            calls = shard_calls(plan)
            engine.run(x)
            assert [rows for rows, _ in calls] == [2, 2]
        engine.close()  # second close is a no-op

    def test_uneven_split_covers_every_sample(self, shard_calls):
        plan = compile_plan(build_mlp().eval(), exact_backend())
        x = np.random.default_rng(1).standard_normal((13, 32)).astype(np.float32)
        want = plan.execute(x)
        with BatchEngine(plan, shards=4) as engine:
            calls = shard_calls(plan)
            got = engine.run(x)
        assert sorted(rows for rows, _ in calls) == [3, 3, 3, 4]
        np.testing.assert_array_equal(got.view(np.uint32), want.view(np.uint32))


#: ``offline_zoo`` geometry: model builder, sample shape, batch.
OFFLINE_ZOO = {
    "lenet": (build_lenet, (1, 16, 16), 64),
    "mobilenet_edge": (functools.partial(build_mobilenet_edge, size=48), (3, 48, 48), 8),
    "transformer_encoder": (build_transformer_encoder, (8, 256), 8),
}


class TestWorkRule:
    """With no shard count given, shards follow each shard's weight MACs."""

    @pytest.fixture
    def two_cores(self, monkeypatch):
        monkeypatch.setattr(engine_module.os, "cpu_count", lambda: 2)

    @pytest.mark.parametrize(
        "model, shards", [("lenet", 1), ("mobilenet_edge", 2), ("transformer_encoder", 2)]
    )
    def test_offline_zoo_batches_get_the_sweeps_counts(self, two_cores, model, shards):
        build, shape, batch = OFFLINE_ZOO[model]
        plan = compile_plan(build().eval(), exact_backend())
        engine = BatchEngine(plan)
        x = np.zeros((batch, *shape), dtype=np.float32)
        macs = plan.macs_per_sample(shape)
        assert engine.shard_count(x) == shards == max(
            1, min(2, batch, batch * macs // engine_module.SHARD_MIN_MACS)
        )
        assert engine.shard_count(x[:1]) == 1

    def test_batch_coupled_plan_stays_on_one_shard(self, two_cores):
        plan = compile_plan(build_mlp().eval(), bfp_backend())
        assert not plan.row_independent
        x = np.zeros((4096, 32), dtype=np.float32)
        assert BatchEngine(plan).shard_count(x) == 1

    def test_one_shard_runs_inline_without_a_pool(self, two_cores, shard_calls):
        plan = compile_plan(build_mlp().eval(), exact_backend())
        x = np.random.default_rng(2).standard_normal((8, 32)).astype(np.float32)
        with BatchEngine(plan) as engine:
            calls = shard_calls(plan)
            engine.run(x)
            assert engine._pool is None
        assert calls == [(8, threading.current_thread().name)]

    def test_pool_has_one_worker_fewer_than_shards(self, shard_calls):
        plan = compile_plan(build_mlp().eval(), exact_backend())
        x = np.random.default_rng(3).standard_normal((9, 32)).astype(np.float32)
        with BatchEngine(plan, shards=3) as engine:
            calls = shard_calls(plan)
            engine.run(x)
            assert engine._pool._max_workers == 2
        caller = threading.current_thread().name
        assert sorted(rows for rows, _ in calls) == [3, 3, 3]
        assert [name for _, name in calls].count(caller) == 1
        assert all(name == caller or name.startswith("repro-shard") for _, name in calls)

class TestCounterThreadSafety:
    def test_packing_counters_exact_under_contention(self):
        reset_packing_counters()
        threads_n, per_thread = 8, 50
        arr = np.ones((4, 4), dtype=np.float32)

        def worker():
            for _ in range(per_thread):
                pack(arr, BFLOAT16)

        threads = [threading.Thread(target=worker) for _ in range(threads_n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        counters = packing_counters()
        assert counters["pack_calls"] == threads_n * per_thread
        assert counters["elements_packed"] == threads_n * per_thread * arr.size
        reset_packing_counters()

    def test_table_counters_exact_under_contention(self):
        value_table(8, PC3_TR)  # ensure the table exists (a miss at most once)
        reset_table_cache_counters()
        threads_n, per_thread = 8, 50

        def worker():
            for _ in range(per_thread):
                value_table(8, PC3_TR)

        threads = [threading.Thread(target=worker) for _ in range(threads_n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        counters = table_cache_counters()
        assert counters["hits"] == threads_n * per_thread
        assert counters["misses"] == 0
        reset_table_cache_counters()

    def test_parallel_shards_report_consistent_pack_work(self):
        """Sharded and unsharded runs perform identical pack work,
        and none of it is lost to racy counter updates."""
        model = build_lenet().eval()
        plan = compile_plan(model, daism_backend(PC3_TR, BFLOAT16))
        x = np.random.default_rng(2).standard_normal((16, 1, 16, 16)).astype(np.float32)
        plan.execute(x)  # warm tables

        reset_packing_counters()
        plan.execute(x)
        serial = packing_counters()
        with BatchEngine(plan, shards=4) as engine:
            reset_packing_counters()
            assert engine.shard_count(x, 4) == 4
            engine.run(x, shards=4)
            parallel = packing_counters()
        # 4 shards pack 4 smaller activations per GEMM layer instead of
        # one big one: 4x the calls, identical element totals.
        assert parallel["elements_packed"] == serial["elements_packed"]
        assert parallel["pack_calls"] == 4 * serial["pack_calls"]
        reset_packing_counters()
