"""Tests for the seeded fault injectors: bit flips, packed planes, wrappers."""

import numpy as np
import pytest

from repro.chaos.inject import (
    FaultyKernel,
    corrupt_cached_tables,
    corrupt_packed,
    flip_bits,
    wrap_plan_kernels,
)
from repro.core.config import PC3_TR
from repro.core.gemm import approx_matmul
from repro.core.integrity import check_and_heal, reset_integrity
from repro.formats.floatfmt import BFLOAT16
from repro.sram.faults import inject_random_faults


@pytest.fixture(autouse=True)
def _heal_after():
    yield
    check_and_heal()
    reset_integrity()


class TestFlipBits:
    def test_flips_in_place_and_reports_positions(self):
        arr = np.arange(64, dtype=np.float32)
        orig = arr.copy()
        positions = flip_bits(arr, 3, seed=0)
        assert len(positions) == 3
        assert not np.array_equal(arr, orig)

    def test_deterministic_per_seed(self):
        a = np.arange(64, dtype=np.float32)
        b = np.arange(64, dtype=np.float32)
        assert flip_bits(a, 4, seed=7) == flip_bits(b, 4, seed=7)
        np.testing.assert_array_equal(a.view(np.uint32), b.view(np.uint32))

    def test_double_flip_restores(self):
        arr = np.arange(16, dtype=np.uint64)
        orig = arr.copy()
        flip_bits(arr, 2, seed=3)
        flip_bits(arr, 2, seed=3)  # same positions -> XOR cancels
        np.testing.assert_array_equal(arr, orig)

    def test_non_contiguous_view_mutates_base(self):
        base = np.arange(64, dtype=np.float32).reshape(8, 8)
        orig = base.copy()
        flip_bits(base.T, 3, seed=0)  # no flat byte view exists
        assert not np.array_equal(base, orig)

    def test_read_only_array_flips_and_stays_read_only(self):
        arr = np.arange(32, dtype=np.float32)
        arr.setflags(write=False)
        flip_bits(arr, 1, seed=0)
        assert not arr.flags.writeable

    def test_zero_flips_is_a_no_op(self):
        arr = np.arange(8, dtype=np.float32)
        assert flip_bits(arr, 0, seed=0) == []


class TestCorruptCachedTables:
    def test_corruption_is_detected_by_integrity(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((8, 32)).astype(np.float32)
        b = rng.standard_normal((32, 16)).astype(np.float32)
        approx_matmul(a, b, BFLOAT16, PC3_TR, kernel="float_table")
        corrupted = corrupt_cached_tables(n_tables=4, flips_per_table=1, seed=0)
        assert corrupted
        report = check_and_heal()
        assert set(map(str, corrupted)) <= set(report["corrupted_tables"])


class TestGeneratorSeedContract:
    """``inject_random_faults`` accepts an int seed or a live Generator."""

    def test_int_seed_reproduces(self):
        a = inject_random_faults(256, 8, cell_fault_rate=0.05, seed=42)
        b = inject_random_faults(256, 8, cell_fault_rate=0.05, seed=42)
        assert a == b

    def test_generator_is_consumed_not_copied(self):
        rng = np.random.default_rng(42)
        first = inject_random_faults(256, 8, cell_fault_rate=0.05, seed=rng)
        second = inject_random_faults(256, 8, cell_fault_rate=0.05, seed=rng)
        assert first != second

    def test_generator_stream_matches_fresh_generator(self):
        a = inject_random_faults(
            256, 8, cell_fault_rate=0.05, seed=np.random.default_rng(9)
        )
        b = inject_random_faults(
            256, 8, cell_fault_rate=0.05, seed=np.random.default_rng(9)
        )
        assert a == b


class TestWrapPlanKernels:
    def _plan(self):
        from repro.core.config import PC3_TR
        from repro.nn.backend import daism_backend
        from repro.nn.models import model_zoo
        from repro.runtime.plan import compile_plan

        return compile_plan(model_zoo()["lenet"], daism_backend(PC3_TR))

    def test_faults_change_output_and_restore_is_byte_exact(self):
        plan = self._plan()
        rng = np.random.default_rng(0)
        x = rng.standard_normal((4, 1, 16, 16)).astype(np.float32)
        baseline = plan.execute(x)
        faults = inject_random_faults(64, 8, cell_fault_rate=0.2, seed=0)
        wrapped, restore = wrap_plan_kernels(plan, faults)
        assert wrapped >= 1
        faulty = plan.execute(x)
        assert not np.array_equal(faulty, baseline)
        restore()
        np.testing.assert_array_equal(
            plan.execute(x).view(np.uint32), baseline.view(np.uint32)
        )

    @pytest.mark.parametrize("model", ["lenet", "mobilenet_edge"])
    def test_faults_reach_direct_convs_and_restore_is_byte_exact(self, model):
        # Direct tap-loop convs run only on float_table kernels: a wrapped
        # strategy sends them down the per-group path, faults included.
        from repro.nn.backend import daism_backend
        from repro.nn.models import model_zoo
        from repro.runtime.ops import ExecContext
        from repro.runtime.plan import compile_plan

        plan = compile_plan(model_zoo()[model], daism_backend(PC3_TR))
        direct = [i for i, row in enumerate(plan.describe()) if row["layout"] == "direct"]
        assert direct
        shape = (1, 16, 16) if model == "lenet" else (3, 32, 32)
        x = np.random.default_rng(1).standard_normal((2, *shape)).astype(np.float32)

        def direct_outputs():
            ctx, h, outs = ExecContext(), x, []
            for i, op in enumerate(plan.ops):
                inputs, h = h, op.apply(h, ctx)
                if i in direct:
                    outs.append((inputs, h))
            return outs

        baseline = direct_outputs()
        # Nine rows: a depthwise group's whole 3x3 weight.
        faults = inject_random_faults(9, 8, cell_fault_rate=0.2, seed=0)
        _, restore = wrap_plan_kernels(plan, faults)
        try:
            for i, (inputs, want) in zip(direct, baseline):
                assert not np.array_equal(plan.ops[i].apply(inputs, None), want)
        finally:
            restore()
        for (_, want), (_, got) in zip(baseline, direct_outputs()):
            np.testing.assert_array_equal(got.view(np.uint32), want.view(np.uint32))

    def test_faulty_kernel_wraps_name(self):
        faults = inject_random_faults(64, 8, cell_fault_rate=0.2, seed=0)
        plan = self._plan()
        _, restore = wrap_plan_kernels(plan, faults)
        try:
            from repro.runtime.ops import PackedKernelStrategy
            from repro.runtime.plan import op_strategies

            wrapped = [
                s.kernel
                for op in plan.ops
                for s in op_strategies(op)
                if isinstance(s, PackedKernelStrategy)
                and isinstance(s.kernel, FaultyKernel)
            ]
            assert wrapped
            assert all("faulty" in k.name for k in wrapped)
        finally:
            restore()


class TestCorruptPacked:
    def test_returns_a_corrupted_copy(self):
        from repro.formats.packed import pack

        rng = np.random.default_rng(0)
        w = rng.standard_normal((16, 16)).astype(np.float32)
        pt = pack(w, BFLOAT16)
        faults = inject_random_faults(w.size, 8, cell_fault_rate=0.5, seed=0)
        corrupted = corrupt_packed(pt, faults)
        assert corrupted is not pt
        assert not np.array_equal(corrupted.significand, pt.significand)
