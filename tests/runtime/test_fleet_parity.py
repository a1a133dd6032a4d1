"""Fleet parity: worker-pool outputs byte-identical to the single-process path.

Every zoo model under every serving backend must produce, through the
multi-process fleet, byte-for-byte the outputs of the same compiled plan
run on each request alone.  The fleet coalesces for real — requests are
submitted concurrently into micro-batches of up to 64 samples — because
the kernels are batch-invariant: coalescing may change *when* a request
runs, never its bits.
"""

import threading

import numpy as np
import pytest

from repro.nn.models import model_input_shape, model_zoo
from repro.runtime import FleetServer, compile_plan, plan_digest
from repro.runtime.fleet import (
    _WorkerHandle,
    rebuild_model,
    rebuild_plan,
    resolve_backend,
    snapshot_model,
)

MODELS = ["lenet", "vgg_small", "mini_resnet"]
BACKENDS = ["exact", "quantized", "daism"]


def _x(n, seed=0):
    return (
        np.random.default_rng(seed)
        .standard_normal((n, 1, 16, 16))
        .astype(np.float32)
    )


def _reference(model, backend):
    """(snapshot, single-process plan) built from the same module."""
    module = model_zoo()[model]
    module.eval()
    snap = snapshot_model(model, module=module, backend=backend)
    return snap, compile_plan(module, resolve_backend(backend))


def _digest_plan(model, arg, backend, kernel):
    """A seeded LeNet (``arg`` = seed) or one conv (``arg`` = stride, padding).

    Every conv has the same weights, so two conv plans differ only in
    geometry.
    """
    from repro.nn.layers import Conv2d
    from repro.nn.models import build_lenet

    if model == "conv":
        stride, padding = arg
        module = Conv2d(1, 8, 3, stride=stride, padding=padding, rng=np.random.default_rng(0))
    else:
        module = build_lenet(seed=arg)
    return compile_plan(module.eval(), resolve_backend(backend, kernel))


def _coalescing_fleet(workers):
    return FleetServer(workers=workers, max_batch=64, max_delay_ms=5.0)


def _submit_concurrently(fleet, jobs):
    """Submit ``(model, x)`` jobs from one thread each; futures in job order."""
    futures = [None] * len(jobs)

    def client(i):
        futures[i] = fleet.submit(*jobs[i])

    threads = [threading.Thread(target=client, args=(i,)) for i in range(len(jobs))]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return futures


def _assert_bytes_equal(got, want):
    np.testing.assert_array_equal(got.view(np.uint32), want.view(np.uint32))


class TestFleetByteParity:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("model", MODELS)
    def test_zoo_model_backend_matrix(self, model, backend):
        snap, plan = _reference(model, backend)
        requests = [_x(2, seed=s) for s in range(4)]
        with _coalescing_fleet(workers=2) as fleet:
            fleet.register(snap)
            futures = _submit_concurrently(fleet, [(model, x) for x in requests])
            outputs = [f.result(timeout=60) for f in futures]
        for x, got in zip(requests, outputs):
            _assert_bytes_equal(got, plan.execute(x))

    def test_four_workers_byte_identical(self):
        snap, plan = _reference("lenet", "daism")
        requests = [_x(3, seed=s) for s in range(12)]
        with _coalescing_fleet(workers=4) as fleet:
            fleet.register(snap)
            futures = _submit_concurrently(fleet, [("lenet", x) for x in requests])
            outputs = [f.result(timeout=60) for f in futures]
            stats = fleet.stats()["lenet"]
        assert stats["workers"] == 4
        assert stats["completed_requests"] == 12
        for x, got in zip(requests, outputs):
            _assert_bytes_equal(got, plan.execute(x))

    def test_coalesced_batches_byte_identical(self):
        """Requests queued behind a busy worker coalesce into one batch."""
        snap, plan = _reference("lenet", "daism")
        requests = [_x(1 + s % 3, seed=200 + s) for s in range(16)]
        with FleetServer(workers=1, max_batch=64, max_delay_ms=20.0) as fleet:
            fleet.register(snap)
            futures = _submit_concurrently(fleet, [("lenet", x) for x in requests])
            outputs = [f.result(timeout=60) for f in futures]
            stats = fleet.stats()["lenet"]
        assert stats["batches"] < len(requests)
        for x, got in zip(requests, outputs):
            _assert_bytes_equal(got, plan.execute(x))

    def test_interleaved_multi_model_traffic(self):
        """Two models served concurrently; routing never crosses streams."""
        snap_a, plan_a = _reference("lenet", "daism")
        snap_b, plan_b = _reference("mini_resnet", "exact")
        with _coalescing_fleet(workers=2) as fleet:
            fleet.register(snap_a)
            fleet.register(snap_b)
            assert fleet.models() == ["lenet", "mini_resnet"]
            jobs = [
                ("lenet" if i % 2 == 0 else "mini_resnet", _x(2, seed=100 + i))
                for i in range(10)
            ]
            futures = _submit_concurrently(fleet, jobs)
            for (model, x), fut in zip(jobs, futures):
                plan = plan_a if model == "lenet" else plan_b
                _assert_bytes_equal(fut.result(timeout=60), plan.execute(x))
            stats = fleet.stats()
        assert stats["lenet"]["completed_requests"] == 5
        assert stats["mini_resnet"]["completed_requests"] == 5

    def test_submit_validates_model_and_shape(self):
        snap, _ = _reference("lenet", "exact")
        with _coalescing_fleet(workers=1) as fleet:
            fleet.register(snap)
            with pytest.raises(ValueError, match="unknown model"):
                fleet.submit("alexnet", _x(1))
            with pytest.raises(ValueError, match="sample axis"):
                fleet.submit("lenet", np.zeros(16, dtype=np.float32))
            with pytest.raises(ValueError, match="already registered"):
                fleet.register(snap)

    @pytest.mark.parametrize("workers", [0, -1])
    def test_register_rejects_fewer_than_one_worker(self, workers):
        """A deployment with no workers would accept requests it never serves."""
        snap, _ = _reference("lenet", "exact")
        with _coalescing_fleet(workers=1) as fleet:
            with pytest.raises(ValueError, match="workers must be >= 1"):
                fleet.register(snap, workers=workers)
            assert fleet.models() == []
            with pytest.raises(ValueError, match="unknown model"):
                fleet.submit("lenet", _x(1))


class TestMismatchedShapes:
    def test_mismatched_sample_shape_fails_alone(self):
        """A request of another sample shape fails on its own future; the
        requests coalesced around it get the bits they get alone."""
        snap, plan = _reference("lenet", "daism")
        good = [_x(2, seed=s) for s in range(6)]
        bad = np.ones((2, 2, 16, 16), dtype=np.float32)  # two channels, LeNet takes one
        with FleetServer(workers=1, max_batch=64, max_delay_ms=200.0) as fleet:
            fleet.register(snap)
            futures = [fleet.submit("lenet", x) for x in good[:3] + [bad] + good[3:]]
            with pytest.raises(RuntimeError, match="conv1"):
                futures[3].result(timeout=60)
            for x, fut in zip(good, futures[:3] + futures[4:]):
                np.testing.assert_array_equal(
                    fut.result(timeout=60).view(np.uint32),
                    plan.execute(x).view(np.uint32),
                )
            stats = fleet.stats()["lenet"]
        assert (stats["completed_requests"], stats["failed_requests"]) == (6, 1)
        # The six well-formed requests were served by one worker call.
        assert stats["batches"] == 1


class TestWorkerPlanDigest:
    """The cross-process proof: worker-rebuilt plans carry the same bits."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_worker_digest_matches_parent(self, backend):
        module = model_zoo()["lenet"]
        module.eval()
        snap = snapshot_model("lenet", module=module, backend=backend)
        parent = plan_digest(compile_plan(module, resolve_backend(backend)))
        import multiprocessing

        ctx = multiprocessing.get_context(
            "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
        )
        handle = _WorkerHandle(ctx, snap, "digest-probe", ready_timeout_s=60.0)
        try:
            status, worker_digest = handle.request(("digest",))
        finally:
            handle.stop()
        assert status == "ok"
        assert worker_digest == parent

    @pytest.mark.parametrize(
        "a, b",
        [
            (("lenet", 1, "daism", None), ("lenet", 2, "daism", None)),
            (("lenet", 1, "daism", None), ("lenet", 1, "daism", "blas_factored")),
            (("lenet", 1, "daism", None), ("lenet", 1, "quantized", "float_table")),
            (("lenet", 1, "quantized", None), ("lenet", 1, "exact", None)),
            (("conv", (1, 1), "daism", None), ("conv", (2, 0), "daism", None)),
            (("conv", (1, 1), "daism", None), ("conv", (1, 0), "daism", None)),
            (("conv", (1, 1), "exact", None), ("conv", (2, 1), "exact", None)),
        ],
        ids=[
            "weights",
            "kernel",
            "multiplier",
            "backend",
            "conv_stride_padding",
            "conv_padding",
            "conv_stride_exact",
        ],
    )
    def test_digest_discriminates(self, a, b):
        assert plan_digest(_digest_plan(*a)) != plan_digest(_digest_plan(*b))

    def test_rebuild_plan_digest_matches_in_process(self):
        module = model_zoo()["mini_resnet"]
        module.eval()
        snap = snapshot_model("mini_resnet", module=module, backend="daism")
        parent = compile_plan(module, resolve_backend("daism"))
        assert plan_digest(parent) == plan_digest(rebuild_plan(snap))


class TestScenarioSnapshotRoundTrip:
    """The two co-sim scenario models serialize and rebuild exactly.

    Weights are mutated away from the seeded build first, so the
    round-trip proves ``state_bytes``/``load_state_bytes`` carried the
    actual tensors — not that the fresh zoo build happens to match.
    """

    SCENARIOS = ["mobilenet_edge", "transformer_encoder"]

    @pytest.mark.parametrize("model", SCENARIOS)
    def test_state_bytes_round_trip_bit_exact(self, model):
        module = model_zoo()[model]
        module.eval()
        for i, p in enumerate(module.parameters()):
            p.data += np.float32(0.25) * np.float32(i + 1)
        snap = snapshot_model(model, module=module, backend="daism")
        rebuilt = rebuild_model(snap)
        originals = list(module.parameters())
        restored = list(rebuilt.parameters())
        assert len(originals) == len(restored)
        for p, q in zip(originals, restored):
            np.testing.assert_array_equal(
                p.data.view(np.uint32), q.data.view(np.uint32)
            )

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("model", SCENARIOS)
    def test_rebuilt_plan_digest_matches_parent(self, model, backend):
        module = model_zoo()[model]
        module.eval()
        snap = snapshot_model(model, module=module, backend=backend)
        parent = compile_plan(module, resolve_backend(backend))
        assert plan_digest(parent) == plan_digest(rebuild_plan(snap))

    @pytest.mark.parametrize("model", SCENARIOS)
    def test_digest_discriminates_scenario_weights(self, model):
        from repro.nn.models import build_mobilenet_edge, build_transformer_encoder

        build = {
            "mobilenet_edge": build_mobilenet_edge,
            "transformer_encoder": build_transformer_encoder,
        }[model]
        a = compile_plan(build(seed=1).eval(), resolve_backend("daism"))
        b = compile_plan(build(seed=2).eval(), resolve_backend("daism"))
        assert plan_digest(a) != plan_digest(b)

    def test_fleet_serves_transformer_byte_identical(self):
        """One scenario model end-to-end through a worker process: the
        sequence-model input geometry (N, T, D) survives the wire."""
        module = model_zoo()["transformer_encoder"]
        module.eval()
        snap = snapshot_model("transformer_encoder", module=module, backend="exact")
        plan = compile_plan(module, resolve_backend("exact"))
        _, d = model_input_shape("transformer_encoder")
        rng = np.random.default_rng(0)
        requests = [rng.standard_normal((2, 8, d)).astype(np.float32) for _ in range(3)]
        with _coalescing_fleet(workers=1) as fleet:
            fleet.register(snap)
            futures = _submit_concurrently(
                fleet, [("transformer_encoder", x) for x in requests]
            )
            outputs = [f.result(timeout=120) for f in futures]
        for x, got in zip(requests, outputs):
            _assert_bytes_equal(got, plan.execute(x))
