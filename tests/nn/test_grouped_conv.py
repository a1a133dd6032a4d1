"""Property tests for grouped/depthwise convolution.

One algebraic identity pins the grouped conv to the one-group conv:
for any valid ``groups``, the output equals running the one-group conv
independently on each channel slice with that group's filters (the
block-diagonal structure, made explicit), and so do the gradients.

It holds under approximate arithmetic too (the per-group GEMMs see the
same rows and widths either way), so the DAISM backend is part of the
property.  A second identity covers the compiled-plan per-group path:
a group's block of columns in the whole image's packed im2col is
byte-identical to packing the group's own im2col — pack commutes with
elementwise gathers, and im2col orders columns ``(c, kh, kw)``, which
is why plans pack and gather each image once.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.nn.functional as F
from repro.core.config import PC3_TR
from repro.formats.floatfmt import BFLOAT16
from repro.formats.packed import pack
from repro.nn.backend import daism_backend, exact_backend
from repro.nn.layers import Conv2d
from repro.runtime.ops import gather_packed_cols

# One backend instance per run: daism kernels build value tables on
# first use, and per-example construction would dominate the runtime.
EXACT = exact_backend()
DAISM = daism_backend(PC3_TR, BFLOAT16)


def _weight(rng, f, cg, k):
    return rng.standard_normal((f, cg, k, k)).astype(np.float32)


def _per_group_reference(x, weight, bias, stride, padding, groups, backend):
    """Per-group one-group convs on channel slices — the explicit block-diagonal."""
    f, cg = weight.shape[0], weight.shape[1]
    fg = f // groups
    outs = []
    for g in range(groups):
        out, _ = F.conv2d_forward(
            np.ascontiguousarray(x[:, g * cg : (g + 1) * cg]),
            weight[g * fg : (g + 1) * fg],
            None if bias is None else bias[g * fg : (g + 1) * fg],
            stride,
            padding,
            backend,
        )
        outs.append(out)
    return np.concatenate(outs, axis=1)


conv_cases = st.tuples(
    st.integers(1, 3),  # batch
    st.integers(1, 4),  # groups
    st.integers(1, 3),  # channels per group
    st.integers(1, 3),  # filters per group
    st.sampled_from([1, 3]),  # kernel
    st.integers(1, 2),  # stride
    st.integers(0, 1),  # padding
    st.integers(5, 8),  # spatial size
    st.integers(0, 2**31 - 1),  # seed
)


class TestGroupedEqualsDense:
    @settings(max_examples=25, deadline=None)
    @given(conv_cases)
    def test_per_group_slicing_equals_reference(self, case):
        n, groups, cg, fg_mult, k, stride, padding, size, seed = case
        rng = np.random.default_rng(seed)
        c, f = groups * cg, groups * fg_mult
        x = rng.standard_normal((n, c, size, size)).astype(np.float32)
        weight = _weight(rng, f, cg, k)
        bias = rng.standard_normal(f).astype(np.float32)
        want = _per_group_reference(x, weight, bias, stride, padding, groups, EXACT)
        got, _ = F.conv2d_forward(x, weight, bias, stride, padding, EXACT, groups=groups)
        np.testing.assert_array_equal(got.view(np.uint32), want.view(np.uint32))

    @settings(max_examples=8, deadline=None)
    @given(conv_cases)
    def test_identities_hold_under_daism_arithmetic(self, case):
        n, groups, cg, fg_mult, k, stride, padding, size, seed = case
        rng = np.random.default_rng(seed)
        c, f = groups * cg, groups * fg_mult
        x = rng.standard_normal((n, c, size, size)).astype(np.float32)
        weight = _weight(rng, f, cg, k)
        want = _per_group_reference(x, weight, None, stride, padding, groups, DAISM)
        got, _ = F.conv2d_forward(x, weight, None, stride, padding, DAISM, groups=groups)
        np.testing.assert_array_equal(got.view(np.uint32), want.view(np.uint32))

    @settings(max_examples=15, deadline=None)
    @given(conv_cases)
    @example((2, 2, 2, 1, 1, 1, 0, 8, 564511))
    def test_backward_matches_per_group_dense(self, case):
        n, groups, cg, fg_mult, k, stride, padding, size, seed = case
        rng = np.random.default_rng(seed)
        c, f = groups * cg, groups * fg_mult
        fg = f // groups
        x = rng.standard_normal((n, c, size, size)).astype(np.float32)
        weight = _weight(rng, f, cg, k)
        out, cols_cache = F.conv2d_forward(
            x, weight, None, stride, padding, EXACT, groups=groups
        )
        grad = rng.standard_normal(out.shape).astype(np.float32)
        dx, dw, db = F.conv2d_backward(
            grad, x.shape, cols_cache, weight, stride, padding, EXACT, groups=groups
        )
        assert dx.shape == x.shape and dw.shape == weight.shape and db.shape == (f,)
        for g in range(groups):
            xs = np.ascontiguousarray(x[:, g * cg : (g + 1) * cg])
            ws = weight[g * fg : (g + 1) * fg]
            _, cols = F.conv2d_forward(xs, ws, None, stride, padding, EXACT)
            gs = np.ascontiguousarray(grad[:, g * fg : (g + 1) * fg])
            dxs, dws, dbs = F.conv2d_backward(
                gs, xs.shape, cols, ws, stride, padding, EXACT
            )
            np.testing.assert_array_equal(
                dx[:, g * cg : (g + 1) * cg].view(np.uint32), dxs.view(np.uint32)
            )
            np.testing.assert_array_equal(
                dw[g * fg : (g + 1) * fg].view(np.uint32), dws.view(np.uint32)
            )
            np.testing.assert_array_equal(
                db[g * fg : (g + 1) * fg].view(np.uint32), dbs.view(np.uint32)
            )


class TestPackedColumnBlocks:
    @settings(max_examples=15, deadline=None)
    @given(conv_cases)
    def test_column_block_equals_pack_of_sliced_im2col(self, case):
        n, groups, cg, _fg, k, stride, padding, size, seed = case
        rng = np.random.default_rng(seed)
        c = groups * cg
        x = rng.standard_normal((n, c, size, size)).astype(np.float32)
        cols = gather_packed_cols(pack(x, BFLOAT16), k, stride, padding, need_dense=True)
        width = cg * k * k
        for g in range(groups):
            got = cols[:, g * width : (g + 1) * width]
            sl = slice(g * cg, (g + 1) * cg)
            want = pack(
                F.im2col(np.ascontiguousarray(x[:, sl]), k, stride, padding), BFLOAT16
            )
            np.testing.assert_array_equal(got.sign, want.sign)
            np.testing.assert_array_equal(got.exponent, want.exponent)
            np.testing.assert_array_equal(got.significand, want.significand)
            np.testing.assert_array_equal(
                got.scale().view(np.uint32), want.scale().view(np.uint32)
            )
            np.testing.assert_array_equal(
                got.dense().view(np.uint32), want.dense().view(np.uint32)
            )


class TestConv2dValidation:
    def test_groups_must_divide_in_channels(self):
        with pytest.raises(ValueError, match="groups"):
            Conv2d(7, 8, 3, groups=2)

    def test_groups_must_divide_out_channels(self):
        with pytest.raises(ValueError, match="groups"):
            Conv2d(8, 7, 3, groups=2)

    def test_depthwise_weight_shape(self):
        conv = Conv2d(8, 8, 3, groups=8)
        assert conv.weight.data.shape == (8, 1, 3, 3)
