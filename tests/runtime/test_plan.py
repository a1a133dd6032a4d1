"""Plan capture: tracing, compilation, staleness, workload derivation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.daism import DaismDesign
from repro.arch.network_runner import run_module, run_network
from repro.core.config import PC3_TR
from repro.formats.floatfmt import BFLOAT16
from repro.formats.packed import pack
from repro.nn import functional as F
from repro.nn.backend import daism_backend, exact_backend
from repro.nn.layers import Linear, Module, ReLU, Sequential
from repro.nn.models import (
    build_lenet,
    build_mini_resnet,
    build_mlp,
    build_mobilenet_edge,
    build_transformer_encoder,
    model_input_shape,
    model_zoo,
)
from repro.nn.optim import SGD
from repro.nn.serialize import load_state_dict, state_dict
from repro.runtime import compile_plan, conv_workload, trace
from repro.runtime.plan import cosim_shape, op_strategies
from repro.runtime.ops import PackedKernelStrategy, gather_packed_cols


class TestTrace:
    def test_lenet_op_kinds(self):
        kinds = [spec.kind for spec in trace(build_lenet())]
        assert kinds == [
            "conv2d", "relu", "maxpool2d",
            "conv2d", "relu", "maxpool2d",
            "flatten", "linear", "relu", "linear",
        ]

    def test_residual_flattens_to_stack_ops(self):
        kinds = [spec.kind for spec in trace(build_mini_resnet())]
        assert kinds.count("stack_push") == 2
        assert kinds.count("stack_add_pop") == 2
        assert "stack_swap" not in kinds  # identity shortcuts
        # No nesting: the trace is flat, residual bodies inline.
        assert kinds[kinds.index("stack_push") + 1] == "conv2d"

    def test_every_leaf_layer_has_a_spec(self):
        specs = trace(build_lenet())
        for spec in specs:
            assert spec.module is not None

    def test_unknown_module_rejected(self):
        class Custom(Module):
            def forward(self, x):
                return x

        with pytest.raises(TypeError, match="plan op"):
            trace(Sequential(Custom()))


class TestCompile:
    def test_dropout_elided(self):
        from repro.nn.layers import Dropout

        model = Sequential(Linear(8, 8), Dropout(0.5), ReLU())
        plan = compile_plan(model, exact_backend())
        assert [op.kind for op in plan.ops] == ["linear", "relu"]

    def test_plan_metadata(self):
        plan = compile_plan(build_lenet(), daism_backend(PC3_TR, BFLOAT16))
        assert plan.backend_name == "approx_bfloat16_PC3_tr"
        assert plan.row_independent
        assert len(plan.params) == 8  # 2 conv + 2 fc, weight + bias each
        rows = plan.describe()
        assert rows[0]["strategy"] == "PackedKernelStrategy"

    def test_compile_captures_thread_default_backend(self):
        from repro.nn.backend import use_backend

        with use_backend(daism_backend(PC3_TR, BFLOAT16)):
            plan = compile_plan(build_mlp())
        assert plan.backend_name == "approx_bfloat16_PC3_tr"

    def test_weights_prepared_once_at_compile(self):
        from repro.formats.packed import packing_counters, reset_packing_counters

        model = build_lenet().eval()
        plan = compile_plan(model, daism_backend(PC3_TR, BFLOAT16))
        x = np.random.default_rng(0).standard_normal((4, 1, 16, 16)).astype(np.float32)
        plan.execute(x)
        reset_packing_counters()
        plan.execute(x)
        plan.execute(x)
        counters = packing_counters()
        # Steady state packs activations only: one image pack per conv
        # plus one per fc layer, per pass — and nothing weight-sized.
        assert counters["pack_calls"] == 8
        reset_packing_counters()


class TestStaleness:
    def test_optimizer_step_invalidates(self):
        model = build_mlp().eval()
        plan = compile_plan(model, exact_backend())
        x = np.random.default_rng(0).standard_normal((4, 32)).astype(np.float32)
        plan.execute(x)
        opt = SGD(model.parameters(), lr=0.1)
        for p in model.parameters():
            p.grad[...] = 1.0
        opt.step()
        assert plan.stale()
        with pytest.raises(RuntimeError, match="stale plan"):
            plan.execute(x)

    def test_weight_load_invalidates_and_recompile_matches(self):
        model = build_mlp(seed=0).eval()
        donor = build_mlp(seed=1).eval()
        backend = daism_backend(PC3_TR, BFLOAT16)
        plan = compile_plan(model, backend)
        load_state_dict(model, state_dict(donor))
        assert plan.stale()
        x = np.random.default_rng(2).standard_normal((4, 32)).astype(np.float32)
        fresh = compile_plan(model, backend)
        from repro.nn.backend import use_backend

        with use_backend(backend):
            want = donor(x)
        np.testing.assert_array_equal(
            fresh.execute(x).view(np.uint32), want.view(np.uint32)
        )


class TestPackCols:
    """Packing the image, then gathering, is byte-identical to pack(im2col(x))."""

    @pytest.mark.parametrize("stride,padding", [(1, 1), (1, 0), (2, 1), (2, 0)])
    def test_planes_match_eager_pipeline(self, stride, padding):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((3, 4, 8, 8)).astype(np.float32)
        x[rng.random(x.shape) < 0.2] = 0.0
        want = pack(F.im2col(x, 3, stride, padding), BFLOAT16)
        got = gather_packed_cols(pack(x, BFLOAT16), 3, stride, padding, need_dense=True)
        np.testing.assert_array_equal(got.sign, want.sign)
        np.testing.assert_array_equal(got.exponent, want.exponent)
        np.testing.assert_array_equal(got.significand, want.significand)
        np.testing.assert_array_equal(
            got.scale().view(np.uint32), want.scale().view(np.uint32)
        )
        np.testing.assert_array_equal(
            got.dense().view(np.uint32), want.dense().view(np.uint32)
        )

    def test_dense_plane_lazy_fallback(self):
        x = np.random.default_rng(1).standard_normal((2, 1, 6, 6)).astype(np.float32)
        got = gather_packed_cols(pack(x, BFLOAT16), 3, 1, 1, need_dense=False)
        want = pack(F.im2col(x, 3, 1, 1), BFLOAT16)
        # Not gathered eagerly, but recomposable from the planes.
        np.testing.assert_array_equal(
            got.dense().view(np.uint32), want.dense().view(np.uint32)
        )

    def test_blas_strategy_requests_dense(self):
        plan = compile_plan(
            build_lenet(), daism_backend(PC3_TR, BFLOAT16, kernel="blas_factored")
        )
        conv_ops = [op for op in plan.ops if op.kind == "conv2d"]
        strategies = [s for op in conv_ops for s in op_strategies(op)]
        assert strategies and all(isinstance(s, PackedKernelStrategy) for s in strategies)
        assert all(s.needs_dense for s in strategies)


class TestConvWorkload:
    def test_lenet_shapes(self):
        layers = conv_workload(build_lenet(), (1, 16, 16))
        names = [l.name for l in layers]
        assert names == ["conv1", "conv2", "fc1", "fc2"]
        conv2 = layers[1]
        assert (conv2.in_channels, conv2.out_channels) == (8, 16)
        assert (conv2.height, conv2.width) == (8, 8)  # after 2x2 pool
        fc1 = layers[2]
        assert (fc1.in_channels, fc1.out_channels, fc1.kernel) == (256, 32, 1)

    def test_residual_shape_tracking(self):
        layers = conv_workload(build_mini_resnet(), (1, 16, 16))
        # stem + 2 convs per block x 2 blocks + fc
        assert len(layers) == 6
        # Second block runs after the pool at 8x8.
        assert (layers[3].height, layers[3].width) == (8, 8)

    def test_exclude_fc(self):
        layers = conv_workload(build_lenet(), (1, 16, 16), include_fc=False)
        assert [l.name for l in layers] == ["conv1", "conv2"]

    def test_run_module_equals_run_network_on_workload(self):
        model = build_lenet()
        design = DaismDesign()
        via_module = run_module(design, model, (1, 16, 16))
        via_layers = run_network(design, conv_workload(model, (1, 16, 16)))
        assert via_module.total_cycles == via_layers.total_cycles
        assert via_module.total_macs == via_layers.total_macs

    def test_plan_walks_its_own_specs(self):
        model = build_lenet()
        plan = compile_plan(model, exact_backend())
        assert [spec.kind for spec in plan.specs] == [spec.kind for spec in trace(model)]
        assert conv_workload(plan, (1, 16, 16)) == conv_workload(model, (1, 16, 16))


class TestMacsPerSample:
    @pytest.mark.parametrize("name", sorted(model_zoo()))
    def test_equals_the_workload_sum_for_every_zoo_model(self, name):
        module = model_zoo()[name]
        plan = compile_plan(module.eval(), exact_backend())
        shape = model_input_shape(name)
        layers = conv_workload(module, cosim_shape(shape))
        assert plan.macs_per_sample(shape) == sum(l.macs_dense for l in layers) > 0

    def test_offline_zoo_samples(self):
        """Per-sample weight MACs of the ``offline_zoo`` geometries."""
        cases = [
            (build_lenet(), (1, 16, 16), 100_480),
            (build_mobilenet_edge(size=48), (3, 48, 48), 5_631_488),
            # A (T, D) sequence sample is the co-sim's (D, T, 1).
            (build_transformer_encoder(), (8, 256), 6_291_456),
        ]
        for module, shape, macs in cases:
            assert compile_plan(module, exact_backend()).macs_per_sample(shape) == macs

    def test_cosim_shape(self):
        assert cosim_shape((3, 48, 48)) == (3, 48, 48)
        assert cosim_shape((8, 256)) == (256, 8, 1)
        assert cosim_shape((32,)) == (32, 1, 1)
        with pytest.raises(ValueError):
            cosim_shape((1, 2, 3, 4))


class TestWeightLayouts:
    """Compiled plans run each bit-exact GEMM in its prepared weight layout."""

    def test_describe_reports_each_ops_layout(self):
        plan = compile_plan(build_lenet(), daism_backend(PC3_TR, BFLOAT16))
        layouts = {row["name"]: row["layout"] for row in plan.describe()}
        assert layouts["conv1"] == "direct"  # N = 8: one tap loop, no im2col
        assert layouts["conv2"] == "direct"  # (72, 16): its table fits
        assert layouts["fc1"] == "gather"  # (256, 32) is past the 2 MiB cap
        assert layouts["relu"] == "-"
        wide = compile_plan(
            Sequential(Linear(40, 128), ReLU()), daism_backend(PC3_TR, BFLOAT16)
        )
        assert wide.describe()[0]["layout"] == "activation_expanded"
        for backend in (exact_backend(), daism_backend(PC3_TR, BFLOAT16, kernel="blas_factored")):
            other = compile_plan(build_lenet(), backend)
            assert {row["layout"] for row in other.describe()} == {"-"}

    def test_bit_exact_plans_drop_the_dense_weight_plane(self):
        import hashlib

        from repro.runtime import plan_digest

        plan = compile_plan(build_lenet().eval(), daism_backend(PC3_TR, BFLOAT16))
        strategies = [s for op in plan.ops for s in op_strategies(op)]
        assert {op.kind for op in plan.ops if op_strategies(op)} == {"conv2d", "linear"}
        assert all(s.weight._dense is None for s in strategies)
        # Same output bits as when plans kept the dense plane; the digest
        # is pinned as of when it started hashing op kind and geometry.
        digest = hashlib.sha256("".join(plan_digest(plan)).encode()).hexdigest()
        assert digest[:16] == "5adafc7d1c69a6d1"
        x = np.random.default_rng(0).standard_normal((8, 1, 16, 16)).astype(np.float32)
        assert hashlib.sha256(plan.execute(x).tobytes()).hexdigest()[:16] == "a8aa4e163668ab48"
        blas = compile_plan(
            build_lenet(), daism_backend(PC3_TR, BFLOAT16, kernel="blas_factored")
        )
        assert all(
            s.weight._dense is not None for op in blas.ops for s in op_strategies(op)
        )

    @settings(max_examples=10, deadline=None)
    @given(batch=st.integers(min_value=1, max_value=6), seed=st.integers(0, 2**16))
    def test_every_layout_is_batch_invariant_and_matches_eager(self, batch, seed):
        from repro.nn.backend import use_backend

        backend = daism_backend(PC3_TR, BFLOAT16)
        model = self._mixed_model()
        plan = compile_plan(model, backend)
        assert [row["layout"] for row in plan.describe() if row["kind"] == "linear"] == [
            "activation_expanded", "weight_stationary", "gather"
        ]
        x = np.random.default_rng(seed).standard_normal((batch, 40)).astype(np.float32)
        full = plan.execute(x)
        with use_backend(backend):
            np.testing.assert_array_equal(full.view(np.uint32), model(x).view(np.uint32))
        for i in range(batch):
            np.testing.assert_array_equal(
                full[i : i + 1].view(np.uint32), plan.execute(x[i : i + 1]).view(np.uint32)
            )

    @staticmethod
    def _mixed_model():
        # (40, 128) expands activations, (128, 16) is weight-stationary,
        # (16, 8) gathers.
        rng = np.random.default_rng(3)
        return Sequential(
            Linear(40, 128, rng=rng), ReLU(), Linear(128, 16, rng=rng), ReLU(), Linear(16, 8, rng=rng)
        ).eval()
