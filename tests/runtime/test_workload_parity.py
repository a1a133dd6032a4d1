"""Three-regime parity matrix for the scenario workloads.

The acceptance lock of the scenario-layers PR: for each of the two
co-sim-only workloads (the grouped/depthwise MobileNet-edge stack and
the plan-compilable transformer encoder), under each serving backend
(exact, quantized, daism), the three execution regimes agree byte for
byte —

1. **eager** ``Module.forward`` under ``use_backend``,
2. **compiled plan**, directly and through the shard-parallel
   :class:`~repro.runtime.BatchEngine` at 1/2/8 shards,
3. **fleet-rebuilt plan** (snapshot → ``rebuild_plan``), which must also
   carry the same :func:`~repro.runtime.plan_digest`.

Alongside, the shape-sync lock: the ConvLayer tables traced from the
executable ``nn`` models equal the hand-registered co-sim tables
exactly, so the architecture sweeps and the running software can never
drift apart.

Batch 16 (not 8): 8-way sharding then keeps every shard at M >= 2, so
BLAS stays on its sgemm path — M == 1 takes a gemv path whose
accumulation order legitimately differs in the last bit.
"""

import numpy as np
import pytest

from repro.arch.workloads import (
    mobilenet_edge_layers,
    mobilenet_edge_nn_layers,
    transformer_block_layers,
    transformer_encoder_nn_layers,
    workload_by_name,
)
from repro.nn.backend import use_backend
from repro.nn.models import model_zoo
from repro.runtime import BatchEngine, compile_plan, plan_digest
from repro.runtime.fleet import rebuild_plan, resolve_backend, snapshot_model
from repro.runtime.plan import op_strategies, plan_tiers

# Reduced input geometry keeps the matrix fast without changing any
# layer *kind*: mobilenet_edge is fully convolutional before the GAP
# head (48x48 instead of the canonical 96x96), and the transformer
# accepts any sequence length (T=8 instead of 64).
MODELS = {
    "mobilenet_edge": (3, 48, 48),
    "transformer_encoder": (8, 256),
}
BACKENDS = ["exact", "quantized", "daism"]


def _input(model, batch=16, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((batch, *MODELS[model])).astype(np.float32)


class TestThreeRegimeMatrix:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("model", sorted(MODELS))
    def test_eager_plan_fleet_byte_identical(self, model, backend):
        module = model_zoo()[model]
        module.eval()
        resolved = resolve_backend(backend)
        x = _input(model)

        with use_backend(resolved):
            want = module(x).view(np.uint32)

        plan = compile_plan(module, resolved)
        np.testing.assert_array_equal(plan.execute(x).view(np.uint32), want)
        engine = BatchEngine(plan, shards=8)
        try:
            for shards in (1, 2, 8):
                assert engine.shard_count(x, shards) == shards
                got = engine.run(x, shards=shards)
                np.testing.assert_array_equal(got.view(np.uint32), want)
        finally:
            engine.close()

        snap = snapshot_model(model, module=module, backend=backend)
        rebuilt = rebuild_plan(snap)
        assert plan_digest(rebuilt) == plan_digest(plan)
        np.testing.assert_array_equal(rebuilt.execute(x).view(np.uint32), want)

    def test_scenario_plans_expose_all_strategies(self):
        """Multi-strategy ops (grouped conv, attention) surface every
        kernel through ``op_strategies`` — what tiers/digest iterate."""
        for model in sorted(MODELS):
            module = model_zoo()[model]
            module.eval()
            plan = compile_plan(module, resolve_backend("daism"))
            strategies = [s for op in plan.ops for s in op_strategies(op)]
            assert strategies, model
            assert plan_tiers(plan), model
        # The transformer plan carries an attention op with exactly two
        # projection strategies (QKV and output).
        module = model_zoo()["transformer_encoder"]
        module.eval()
        plan = compile_plan(module, resolve_backend("daism"))
        attn = [op for op in plan.ops if op.kind == "attention"]
        assert len(attn) == 1
        assert len(op_strategies(attn[0])) == 2


class TestShapeSync:
    """Trace-derived co-sim shapes == hand-registered tables, exactly."""

    def test_mobilenet_trace_matches_registered(self):
        assert mobilenet_edge_nn_layers() == mobilenet_edge_layers()

    def test_transformer_trace_matches_registered(self):
        assert transformer_encoder_nn_layers() == transformer_block_layers()

    def test_registry_serves_both_shape_sources(self):
        assert workload_by_name("mobilenet_edge_nn") == workload_by_name(
            "mobilenet_edge"
        )
        assert workload_by_name("transformer_encoder_nn") == workload_by_name(
            "transformer_block"
        )

    def test_depthwise_layers_carry_groups(self):
        layers = workload_by_name("mobilenet_edge_nn")
        by_name = {layer.name: layer for layer in layers}
        for name in ("dw1", "dw2", "dw3"):
            assert by_name[name].groups == by_name[name].in_channels

    def test_run_module_derives_same_report_as_registered_table(self):
        from repro.arch.daism import DaismDesign
        from repro.arch.network_runner import run_module, run_network

        design = DaismDesign(banks=16, bank_kb=32)
        module = model_zoo()["mobilenet_edge"]
        module.eval()
        from_module = run_module(design, module, (3, 96, 96), include_fc=False)
        from_table = run_network(design, mobilenet_edge_layers())
        assert from_module.total_cycles == from_table.total_cycles
