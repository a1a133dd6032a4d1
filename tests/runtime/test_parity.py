"""Acceptance parity: compiled plans == eager forward, byte for byte.

Compiled-plan batched inference is byte-identical to eager
``Module.forward`` for every ``model_zoo`` model under the exact,
quantised and DAISM backends, at 1, 2 and 8 shards, and under the
batch-coupled BFP backend for the MLP and the conv, residual and
attention models.
"""

import numpy as np
import pytest

from repro.core.config import PC3_TR
from repro.formats.floatfmt import BFLOAT16
from repro.nn.backend import (
    bfp_backend,
    daism_backend,
    exact_backend,
    quantized_backend,
    use_backend,
)
from repro.nn.layers import Flatten, Linear, Residual, Sequential
from repro.nn.models import build_mlp, model_input_shape, model_zoo
from repro.runtime import BatchEngine, compile_plan

BACKENDS = {
    "exact": exact_backend,
    "quantized": lambda: quantized_backend(BFLOAT16),
    "daism": lambda: daism_backend(PC3_TR, BFLOAT16),
}


def _models():
    zoo = dict(model_zoo())
    zoo["mlp"] = build_mlp()
    return zoo


def _input_for(name, batch=16, seed=0):
    rng = np.random.default_rng(seed)
    if name == "mlp":
        return rng.standard_normal((batch, 32)).astype(np.float32)
    return rng.standard_normal((batch, *model_input_shape(name))).astype(np.float32)


class TestPlanParity:
    @pytest.mark.parametrize("backend_name", sorted(BACKENDS))
    @pytest.mark.parametrize("model_name", ["lenet", "vgg_small", "mini_resnet", "mlp"])
    def test_plan_and_shards_byte_identical(self, model_name, backend_name):
        model = _models()[model_name].eval()
        backend = BACKENDS[backend_name]()
        x = _input_for(model_name)
        with use_backend(backend):
            want = model(x).view(np.uint32)
        plan = compile_plan(model, backend)
        engine = BatchEngine(plan, shards=8)
        try:
            np.testing.assert_array_equal(plan.execute(x).view(np.uint32), want)
            for shards in (1, 2, 8):
                assert engine.shard_count(x, shards) == shards
                got = engine.run(x, shards=shards)
                np.testing.assert_array_equal(got.view(np.uint32), want)
        finally:
            engine.close()

    def test_quantized_kernel_backend_parity(self):
        model = _models()["lenet"].eval()
        backend = quantized_backend(BFLOAT16, kernel="float_table")
        x = _input_for("lenet")
        with use_backend(backend):
            want = model(x).view(np.uint32)
        plan = compile_plan(model, backend)
        np.testing.assert_array_equal(plan.execute(x).view(np.uint32), want)

    def test_blas_factored_plan_parity(self):
        """The tolerance-path kernel still matches its own eager run exactly."""
        model = _models()["lenet"].eval()
        backend = daism_backend(PC3_TR, BFLOAT16, kernel="blas_factored")
        x = _input_for("lenet")
        with use_backend(backend):
            want = model(x).view(np.uint32)
        plan = compile_plan(model, backend)
        np.testing.assert_array_equal(plan.execute(x).view(np.uint32), want)

    def test_single_sample_batch(self):
        model = _models()["lenet"].eval()
        backend = daism_backend(PC3_TR, BFLOAT16)
        x = _input_for("lenet", batch=1)
        with use_backend(backend):
            want = model(x)
        plan = compile_plan(model, backend)
        np.testing.assert_array_equal(
            plan.execute(x).view(np.uint32), want.view(np.uint32)
        )


class TestBatchCoupledBackends:
    def test_bfp_plan_matches_eager_but_refuses_shards(self):
        model = _models()["mlp"].eval()
        backend = bfp_backend(PC3_TR)
        x = _input_for("mlp")
        with use_backend(backend):
            want = model(x)
        plan = compile_plan(model, backend)
        assert not plan.row_independent
        np.testing.assert_array_equal(
            plan.execute(x).view(np.uint32), want.view(np.uint32)
        )
        with pytest.raises(ValueError, match="couples samples"):
            BatchEngine(plan, shards=2)
        engine = BatchEngine(plan, shards=1)
        with pytest.raises(ValueError, match="couples samples"):
            engine.run(x, shards=4)

    @pytest.mark.parametrize("model_name", ["lenet", "mini_resnet", "transformer_encoder"])
    def test_bfp_plan_matches_eager_beyond_mlp(self, model_name):
        """Conv, residual and attention ops hand BFP the eager operands."""
        model = _models()[model_name].eval()
        backend = bfp_backend(PC3_TR)
        x = _input_for(model_name, batch=2)
        with use_backend(backend):
            want = model(x)
        plan = compile_plan(model, backend)
        assert not plan.row_independent
        np.testing.assert_array_equal(
            plan.execute(x).view(np.uint32), want.view(np.uint32)
        )


class TestResidualJoin:
    @pytest.mark.parametrize("shortcut", [False, True], ids=["identity", "shortcut"])
    def test_nan_payloads_follow_the_eager_operand_order(self, shortcut):
        """The join adds the body output first on both paths.

        With two NaNs the first operand's payload survives, so a plan
        that added the block input first would differ in bytes.
        """
        model = Sequential(Residual(Linear(4, 4), Flatten() if shortcut else None)).eval()
        x = np.ones((2, 4), dtype=np.float32)
        x.view(np.uint32)[:, 0] = 0x7FC00001
        x.view(np.uint32)[:, 1] = 0x7FC00002
        np.testing.assert_array_equal(
            compile_plan(model).execute(x).view(np.uint32), model(x).view(np.uint32)
        )
