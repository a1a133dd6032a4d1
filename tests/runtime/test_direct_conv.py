"""Property tests for the direct tap-loop convolution of compiled plans.

A conv whose per-group weights are narrower than ``WS_MIN_N`` runs as one
tap loop over the packed image (``FloatTableKernel.run_direct``) instead
of per-group im2col GEMMs.  It must give the bits of those GEMMs and of
the eager forward for every grouping, geometry and batch, keep each
sample's output independent of its batch, and hand calls outside the
float32-exact regime to the per-group path.
"""

import gc
from unittest.mock import patch

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import kernels
from repro.core.config import PC3_TR
from repro.core.kernels import DIRECT, FloatTableKernel
from repro.formats.floatfmt import BFLOAT16, FLOAT16
from repro.formats.packed import pack
from repro.nn.backend import daism_backend, use_backend
from repro.nn.layers import Conv2d
from repro.runtime import compile_plan

BF16 = daism_backend(PC3_TR, BFLOAT16)


@st.composite
def conv_cases(draw):
    grouping = draw(st.sampled_from(["dense", "two", "depthwise"]))
    if grouping == "depthwise":
        groups, cg = draw(st.integers(1, 6)), 1
    else:
        groups, cg = (1 if grouping == "dense" else 2), draw(st.integers(1, 3))
    kernel = draw(st.sampled_from([1, 3, 5]))
    padding = draw(st.integers(0, 2))
    return dict(
        groups=groups,
        cg=cg,
        fg=draw(st.integers(1, 15)),
        kernel=kernel,
        stride=draw(st.integers(1, 2)),
        padding=padding,
        size=draw(st.integers(max(1, kernel - 2 * padding), kernel + 4)),
        batch=draw(st.integers(1, 4)),
        seed=draw(st.integers(0, 2**31 - 1)),
    )


def _conv(case, rng):
    """A conv with signed-zero weights and a nonzero bias."""
    groups = case["groups"]
    conv = Conv2d(
        groups * case["cg"],
        groups * case["fg"],
        case["kernel"],
        stride=case["stride"],
        padding=case["padding"],
        groups=groups,
        rng=rng,
    )
    weight = conv.weight.data
    weight[rng.random(weight.shape) < 0.1] = 0.0
    weight[rng.random(weight.shape) < 0.1] = -0.0
    conv.bias.data[:] = rng.standard_normal(conv.bias.data.shape)
    return conv


def _image(case, rng, scale=1.0):
    """An input with zero rows and signed zeros."""
    shape = (case["batch"], case["groups"] * case["cg"], case["size"], case["size"])
    x = (rng.standard_normal(shape) * scale).astype(np.float32)
    x[:, :, rng.integers(case["size"])] = 0.0
    x[rng.random(shape) < 0.2] = 0.0
    x[rng.random(shape) < 0.2] = -0.0
    return x


def _per_group(conv, backend):
    """The same conv compiled with its direct layout switched off."""
    plan = compile_plan(conv, backend)
    for op in plan.ops:
        op.direct = None
    return plan


def _bits(a):
    return a.view(np.uint32)


class TestDirectConv:
    @settings(max_examples=40, deadline=None)
    @given(conv_cases())
    def test_equals_per_group_and_eager_and_is_batch_invariant(self, case):
        rng = np.random.default_rng(case["seed"])
        conv = _conv(case, rng)
        x = _image(case, rng)
        plan = compile_plan(conv, BF16)
        assert plan.describe()[0]["layout"] == DIRECT
        with patch.object(FloatTableKernel, "run", side_effect=AssertionError("gathered")):
            full = plan.execute(x)
            rows = [plan.execute(x[i : i + 1]) for i in range(case["batch"])]
        np.testing.assert_array_equal(_bits(full), _bits(_per_group(conv, BF16).execute(x)))
        with use_backend(BF16):
            np.testing.assert_array_equal(_bits(full), _bits(conv(x)))
        for i, row in enumerate(rows):
            np.testing.assert_array_equal(_bits(full[i : i + 1]), _bits(row))

    def test_extreme_exponents_take_the_fallback(self):
        case = dict(groups=4, cg=1, fg=2, kernel=3, stride=1, padding=1, size=6, batch=2)
        rng = np.random.default_rng(1)
        conv = _conv(case, rng)
        x = _image(case, rng, scale=2.0**126)  # exponents past f32_exact
        plan = compile_plan(conv, BF16)
        calls = {"direct": 0, "run": 0}
        run_direct, run = FloatTableKernel.run_direct, FloatTableKernel.run

        def spy_direct(self, *args):
            out = run_direct(self, *args)
            calls["direct"] += out is not None
            return out

        def spy_run(self, *args):
            calls["run"] += 1
            return run(self, *args)

        with patch.object(FloatTableKernel, "run_direct", spy_direct), patch.object(
            FloatTableKernel, "run", spy_run
        ):
            got = plan.execute(x)
        assert calls == {"direct": 0, "run": case["groups"]}
        with use_backend(BF16):
            np.testing.assert_array_equal(_bits(got), _bits(conv(x)))

    def test_float16_range_masks_with_two_byte_rows(self):
        # 1025 significand rows per group: the row plane needs two bytes,
        # and small products flush below float16's emin inside f32_exact.
        backend = daism_backend(PC3_TR, FLOAT16)
        case = dict(groups=3, cg=2, fg=4, kernel=3, stride=2, padding=1, size=7, batch=3)
        rng = np.random.default_rng(2)
        conv = _conv(case, rng)
        x = _image(case, rng, scale=2.0**-8)
        plan = compile_plan(conv, backend)
        (op,) = plan.ops
        assert op.layout == DIRECT
        f32_exact, needs_flush = FloatTableKernel._range_masks(
            pack(x, FLOAT16), op.direct.weight
        )[:2]
        assert f32_exact and needs_flush
        with patch.object(FloatTableKernel, "run", side_effect=AssertionError("gathered")):
            got = plan.execute(x)
        np.testing.assert_array_equal(_bits(got), _bits(_per_group(conv, backend).execute(x)))
        with use_backend(backend):
            np.testing.assert_array_equal(_bits(got), _bits(conv(x)))

    def test_wide_or_oversized_weights_keep_their_per_group_layouts(self):
        rng = np.random.default_rng(3)
        # fg = 16 fits one table for both groups: direct.
        fits = compile_plan(Conv2d(2, 32, 3, groups=2, rng=rng), BF16)
        assert fits.describe()[0]["layout"] == "direct"
        # 72 taps x 129 rows x 32 columns x 4 bytes fits per group, not x 2.
        wide = compile_plan(Conv2d(16, 64, 3, groups=2, rng=rng), BF16)
        assert wide.ops[0].direct is None
        assert wide.describe()[0]["layout"] == "weight_stationary"
        # 25 taps x 64 groups x 129 rows x 15 columns x 4 bytes > 2 MiB.
        big = compile_plan(Conv2d(64, 64 * 15, 5, groups=64, rng=rng), BF16)
        assert big.ops[0].direct is None
        assert big.describe()[0]["layout"] == "gather"

    def test_table_released_with_the_plan(self):
        plan = compile_plan(Conv2d(4, 8, 3, groups=4), BF16)
        key = plan.ops[0].direct.table_key
        assert kernels.peek_table(key) is not None
        del plan
        gc.collect()
        assert kernels.peek_table(key) is None
