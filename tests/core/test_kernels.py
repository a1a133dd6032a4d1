"""Tests for the GEMM kernel registry (repro.core.kernels).

The heart of the contract: the ``float_table`` default is byte-identical
to a strictly sequential scalar ``core.mantissa`` reference across every
Table I config — including subnormal-flush, inf-overflow, NaN and
signed-zero edge cases — at every tiling, so each output row is
independent of the rows that share its call, and in every prepared weight
layout; the ``blas_factored`` fast path stays within its documented
parity tolerance.
"""

import warnings
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import kernels
from repro.core.config import FLA, PC3, PC3_TR, all_configs
from repro.core.kernels import (
    BlasFactoredKernel,
    UnknownKernelError,
    exact_tier_name,
    factored_tables,
    get_kernel,
    kernel_names,
    register_kernel,
    reset_table_cache_counters,
    select_kernel,
    table_cache_counters,
    value_table,
    weight_layout,
)
from repro.core.mantissa import approx_multiply, exact_multiply
from repro.formats.floatfmt import (
    BFLOAT16,
    FLOAT8_E4M3,
    FLOAT16,
    FLOAT32,
    decompose,
    quantize,
)
from repro.formats.packed import pack


def _scalar_reference(a, b, fmt, config):
    """Ground-truth GEMM from the scalar core.mantissa multiplier.

    Each output is summed in float32 strictly left to right over K,
    ``((0 + p_0) + p_1) + ...`` — the kernels' accumulation contract.
    ``config=None`` selects exact significand products (the quantised
    backend's semantics).
    """
    aq = quantize(a, fmt)
    bq = quantize(b, fmt)
    sa, ea, ma = decompose(aq, fmt)
    sb, eb, mb = decompose(bq, fmt)
    bits = fmt.significand_bits
    emax = fmt.max_exponent - fmt.bias
    emin = 1 - fmt.bias
    m, k = aq.shape
    n = bq.shape[1]

    def product_value(mx, my, sign, exp):
        if mx == 0 or my == 0:
            return np.float32(-0.0) if sign else np.float32(0.0)
        if config is None:
            product = exact_multiply(mx, my, bits)
            truncated = False
        else:
            product = approx_multiply(mx, my, bits, config)
            truncated = config.truncated
        if truncated:
            if product >> (bits - 1):
                sig, e = product, exp + 1
            else:
                sig, e = product << 1, exp
        else:
            if product >> (2 * bits - 1):
                sig, e = product >> bits, exp + 1
            else:
                sig, e = product >> (bits - 1), exp
        if sig == 0:
            return np.float32(-0.0) if sign else np.float32(0.0)
        if e > emax:
            return np.float32(-np.inf) if sign else np.float32(np.inf)
        if e < emin:
            return np.float32(-0.0) if sign else np.float32(0.0)
        frac = (sig & ((1 << fmt.mantissa_bits) - 1)) << (23 - fmt.mantissa_bits)
        word = (sign << 31) | ((e + 127) << 23) | frac
        return np.uint32(word).view(np.float32)

    out = np.zeros((m, n), dtype=np.float32)
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(m):
            for j in range(n):
                total = np.float32(0.0)
                for t in range(k):
                    sign = int(sa[i, t]) ^ int(sb[t, j])
                    exp = int(ea[i, t]) + int(eb[t, j])
                    term = product_value(int(ma[i, t]), int(mb[t, j]), sign, exp)
                    total = np.float32(total + term)
                out[i, j] = total
    return out


def _assert_bytes_equal(got, want):
    np.testing.assert_array_equal(got.view(np.uint32), want.view(np.uint32))


def _extreme_operands(rng, shape, zero_frac=0.1):
    """Finite operands spanning the full bfloat16 exponent range."""
    exponents = rng.integers(-126, 127, shape).astype(np.float64)
    values = (rng.standard_normal(shape) * 2.0**exponents).astype(np.float32)
    values[rng.random(shape) < zero_frac] = 0.0
    values[rng.random(shape) < zero_frac] = -0.0
    return values


class TestRegistry:
    def test_builtin_kernels_registered(self):
        assert {"float_table", "blas_factored", "generic"} == set(kernel_names())

    def test_get_kernel_unknown_raises(self):
        with pytest.raises(ValueError, match="unknown GEMM kernel"):
            get_kernel("no_such_kernel")

    def test_retired_auto_name_fails_at_every_entry_point(self):
        # "auto" named the retired shape router; an old fleet snapshot or
        # script carrying it must fail before any GEMM runs.
        import dataclasses

        from repro.core.gemm import approx_matmul
        from repro.nn.backend import daism_backend
        from repro.runtime.fleet import FleetServer, resolve_backend, snapshot_model

        a = np.ones((2, 3), dtype=np.float32)
        b = np.ones((3, 2), dtype=np.float32)
        old_snapshot = dataclasses.replace(snapshot_model("lenet"), kernel="auto")
        with FleetServer(workers=1) as fleet:
            entry_points = (
                lambda: resolve_backend("daism", "auto"),
                lambda: daism_backend(PC3_TR, BFLOAT16, kernel="auto"),
                lambda: approx_matmul(a, b, BFLOAT16, PC3_TR, kernel="auto"),
                lambda: fleet.register(old_snapshot),
            )
            for call in entry_points:
                with pytest.raises(UnknownKernelError) as err:
                    call()
                assert err.value.kernel == "auto"
                assert "float_table" in err.value.registered
            assert fleet.models() == []

    def test_default_selection_by_format(self):
        assert select_kernel(BFLOAT16, PC3_TR).name == exact_tier_name(BFLOAT16)
        assert exact_tier_name(BFLOAT16) == "float_table"
        assert select_kernel(FLOAT32, PC3_TR).name == "generic"
        assert exact_tier_name(FLOAT32) == "generic"

    def test_named_selection_validates_support(self):
        assert select_kernel(BFLOAT16, PC3_TR, "blas_factored").name == "blas_factored"
        with pytest.raises(ValueError, match="does not support"):
            select_kernel(FLOAT32, PC3_TR, "float_table")

    def test_register_kernel_roundtrip(self):
        class Probe(get_kernel("generic").__class__):
            name = "probe_kernel"

        try:
            register_kernel(Probe())
            assert get_kernel("probe_kernel").name == "probe_kernel"
        finally:
            kernels._KERNELS.pop("probe_kernel", None)

    def test_bit_exact_flags(self):
        assert get_kernel("float_table").bit_exact
        assert get_kernel("generic").bit_exact
        assert not get_kernel("blas_factored").bit_exact


class TestFloatTableParity:
    """float_table == strictly sequential scalar reference, byte for byte."""

    @pytest.mark.parametrize("config", all_configs(), ids=lambda c: c.name)
    def test_extreme_exponents_match_reference(self, config):
        rng = np.random.default_rng(0)
        a = _extreme_operands(rng, (23, 37))
        b = _extreme_operands(rng, (37, 11))
        pa, pb = pack(a, BFLOAT16), pack(b, BFLOAT16)
        want = _scalar_reference(a, b, BFLOAT16, config)
        # One row of 7-wide K chunks, then 4-row blocks of the whole K
        # row, then the default tile.
        for budget in (77, 1771, kernels.ROW_BUDGET):
            with patch.object(kernels, "ROW_BUDGET", budget):
                _assert_bytes_equal(get_kernel("float_table").run(pa, pb, config), want)

    @pytest.mark.parametrize("config", all_configs(), ids=lambda c: c.name)
    def test_byte_identical_to_scalar_reference(self, config):
        rng = np.random.default_rng(1)
        a = _extreme_operands(rng, (5, 9))
        b = _extreme_operands(rng, (9, 3))
        pa, pb = pack(a, BFLOAT16), pack(b, BFLOAT16)
        want = _scalar_reference(a, b, BFLOAT16, config)
        for budget in (12, 60):  # 4-wide K chunks, then 2-row blocks
            with patch.object(kernels, "ROW_BUDGET", budget):
                _assert_bytes_equal(get_kernel("float_table").run(pa, pb, config), want)

    def test_opposite_infinities_sum_to_nan_without_warning(self):
        # +inf and -inf products in one output: the K-sum gives NaN, as
        # the scalar reference does, and the kernel raises no warning.
        a = np.full((1, 2), np.float32(2.0**100))
        b = np.array([[2.0**60], [-(2.0**60)]], dtype=np.float32)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = get_kernel("float_table").run(pack(a, BFLOAT16), pack(b, BFLOAT16), PC3)
        assert np.isnan(got[0, 0])
        _assert_bytes_equal(got, _scalar_reference(a, b, BFLOAT16, PC3))

    def test_subnormal_flush_is_signed_zero_free(self):
        # Products of the smallest normals underflow the format: the
        # datapath flushes them to zero rather than keeping subnormals.
        a = np.full((1, 4), np.float32(2.0**-120))
        b = np.full((4, 1), np.float32(2.0**-30))
        got = get_kernel("float_table").run(pack(a, BFLOAT16), pack(b, BFLOAT16), PC3_TR)
        assert got[0, 0] == 0.0
        want = _scalar_reference(a, b, BFLOAT16, PC3_TR)
        np.testing.assert_array_equal(got.view(np.uint32), want.view(np.uint32))

    def test_overflow_saturates_to_inf(self):
        a = np.full((1, 2), np.float32(2.0**100))
        b = np.full((2, 1), np.float32(2.0**60))
        got = get_kernel("float_table").run(pack(a, BFLOAT16), pack(b, BFLOAT16), PC3)
        assert np.isinf(got[0, 0]) and got[0, 0] > 0
        want = _scalar_reference(a, b, BFLOAT16, PC3)
        np.testing.assert_array_equal(got.view(np.uint32), want.view(np.uint32))

    def test_signed_zero_rows(self):
        a = np.array([[0.0, -0.0, 0.0]], dtype=np.float32)
        b = np.array([[1.0], [-2.0], [3.0]], dtype=np.float32)
        want = _scalar_reference(a, b, BFLOAT16, FLA)
        got = get_kernel("float_table").run(pack(a, BFLOAT16), pack(b, BFLOAT16), FLA)
        np.testing.assert_array_equal(got.view(np.uint32), want.view(np.uint32))

    def test_transposed_orientation_matches_standard(self):
        # Tall-skinny shapes take the transposed path; forcing the
        # standard orientation must give identical bits.
        kernel = get_kernel("float_table")
        rng = np.random.default_rng(2)
        a = rng.standard_normal((640, 13)).astype(np.float32)
        b = rng.standard_normal((13, 5)).astype(np.float32)
        pa, pb = pack(a, BFLOAT16), pack(b, BFLOAT16)
        assert 640 >= kernel.TRANSPOSE_ASPECT * 5  # transposed path active
        got = kernel.run(pa, pb, PC3_TR)
        aspect = kernel.TRANSPOSE_ASPECT
        try:
            type(kernel).TRANSPOSE_ASPECT = 10**9  # force standard path
            want = kernel.run(pa, pb, PC3_TR)
        finally:
            type(kernel).TRANSPOSE_ASPECT = aspect
        np.testing.assert_array_equal(got.view(np.uint32), want.view(np.uint32))

    @pytest.mark.parametrize("fmt", [FLOAT16, FLOAT8_E4M3], ids=lambda f: f.name)
    def test_narrow_exponent_formats(self, fmt):
        rng = np.random.default_rng(3)
        a = (rng.standard_normal((6, 8)) * 2.0 ** rng.integers(-8, 8, (6, 8))).astype(
            np.float32
        )
        b = (rng.standard_normal((8, 4)) * 2.0 ** rng.integers(-8, 8, (8, 4))).astype(
            np.float32
        )
        want = _scalar_reference(a, b, fmt, PC3_TR)
        got = get_kernel("float_table").run(pack(a, fmt), pack(b, fmt), PC3_TR)
        _assert_bytes_equal(got, want)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        config=st.sampled_from(all_configs()),
        scale=st.integers(min_value=0, max_value=120),
        m=st.integers(min_value=1, max_value=5),
        k=st.integers(min_value=1, max_value=8),
        n=st.integers(min_value=1, max_value=4),
    )
    def test_property_byte_identical_to_scalar_reference(
        self, seed, config, scale, m, k, n
    ):
        """The acceptance property: float_table == scalar mantissa pipeline.

        Exponents are drawn up to ±``scale``, so examples cover the
        subnormal-flush and inf-overflow regimes as well as the
        well-conditioned fast path; zeros of both signs are mixed in.
        """
        rng = np.random.default_rng(seed)
        a = (
            rng.standard_normal((m, k)) * 2.0 ** rng.integers(-scale - 6, scale + 1, (m, k))
        ).astype(np.float32)
        b = (
            rng.standard_normal((k, n)) * 2.0 ** rng.integers(-scale - 6, scale + 1, (k, n))
        ).astype(np.float32)
        a[rng.random((m, k)) < 0.2] = 0.0
        b[rng.random((k, n)) < 0.2] = -0.0
        want = _scalar_reference(a, b, BFLOAT16, config)
        got = get_kernel("float_table").run(pack(a, BFLOAT16), pack(b, BFLOAT16), config)
        _assert_bytes_equal(got, want)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        config=st.sampled_from(all_configs()),
        n=st.integers(min_value=1, max_value=3),
        tall=st.booleans(),
        m=st.integers(min_value=1, max_value=12),
        k=st.integers(min_value=1, max_value=24),
        budget=st.one_of(st.none(), st.integers(min_value=1, max_value=2048)),
    )
    # n = 1 in the standard orientation (K is the innermost tile axis).
    @example(seed=1, config=PC3_TR, n=1, tall=False, m=12, k=24, budget=None)
    # Tall-skinny, n = 1: 8-wide column blocks leave a width-1 remainder,
    # and K runs one term per chunk.
    @example(seed=2, config=PC3_TR, n=1, tall=True, m=1, k=24, budget=8)
    # 7-wide K chunks with a 3-wide tail.
    @example(seed=3, config=PC3, n=2, tall=False, m=5, k=24, budget=70)
    # Rows wider than the budget split N: 2-wide N chunks with a 1-wide
    # tail, and the transposed orientation's long row in 2-wide chunks.
    @example(seed=4, config=PC3_TR, n=3, tall=False, m=4, k=5, budget=2)
    @example(seed=5, config=PC3_TR, n=3, tall=True, m=1, k=5, budget=2)
    def test_property_strict_k_order_at_any_tiling(self, seed, config, n, tall, m, k, budget):
        """Tiling and batch never change a bit.

        Row budgets from one element up split K into several chunks and
        N into column blocks — on tall-skinny shapes (``m >= 16 n``, the
        transposed orientation) the row dimension — of width 1, including
        a width-1 remainder, where numpy would otherwise sum pairwise.
        The output must still equal the strictly sequential scalar
        reference, and row ``i`` must equal the run on row ``i`` alone.
        """
        rng = np.random.default_rng(seed)
        if tall:
            m = 16 * n + m
        a = (rng.standard_normal((m, k)) * 2.0 ** rng.integers(-20, 20, (m, k))).astype(
            np.float32
        )
        b = (rng.standard_normal((k, n)) * 2.0 ** rng.integers(-20, 20, (k, n))).astype(
            np.float32
        )
        a[rng.random((m, k)) < 0.1] = -0.0
        pa, pb = pack(a, BFLOAT16), pack(b, BFLOAT16)
        kernel = get_kernel("float_table")
        with patch.object(kernels, "ROW_BUDGET", budget or kernels.ROW_BUDGET):
            got = kernel.run(pa, pb, config)
            rows = [kernel.run(pack(a[i : i + 1], BFLOAT16), pb, config) for i in range(m)]
        _assert_bytes_equal(got, _scalar_reference(a, b, BFLOAT16, config))
        _assert_bytes_equal(got, np.concatenate(rows))


class TestDegenerateShapes:
    """Empty axes give float32 ``+0`` arrays of the right shape.

    ``run`` in both orientations (``m >= TRANSPOSE_ASPECT * max(1, n)``
    picks the transposed one) and ``run_pairs``, with any of P, M, K and
    N equal to 0; all-zero activations through the zero bypass are in
    ``test_zero_bypass``.
    """

    KERNEL = get_kernel("float_table")

    @staticmethod
    def _operand(rng, shape):
        return pack(rng.standard_normal(shape).astype(np.float32), BFLOAT16)

    @staticmethod
    def _assert_positive_zeros(got, shape):
        assert got.dtype == np.float32
        assert got.shape == shape
        assert not got.view(np.uint32).any()  # +0, never -0

    @pytest.mark.parametrize(
        "m, k, n, transposed",
        [
            (0, 4, 3, False),
            (3, 0, 2, False),
            (3, 4, 0, False),
            (0, 0, 0, False),
            (32, 0, 2, True),
            (17, 3, 0, True),
            (16, 0, 0, True),
        ],
    )
    def test_run(self, m, k, n, transposed):
        assert (m >= self.KERNEL.TRANSPOSE_ASPECT * max(1, n)) == transposed
        rng = np.random.default_rng(m + k + n)
        got = self.KERNEL.run(self._operand(rng, (m, k)), self._operand(rng, (k, n)), PC3_TR)
        self._assert_positive_zeros(got, (m, n))

    @pytest.mark.parametrize(
        "pairs, m, k, n", [(0, 2, 3, 4), (2, 0, 3, 4), (2, 3, 0, 4), (2, 3, 4, 0), (0, 0, 0, 0)]
    )
    def test_run_pairs(self, pairs, m, k, n):
        rng = np.random.default_rng(pairs + m + k + n)
        got = self.KERNEL.run_pairs(
            self._operand(rng, (pairs, m, k)), self._operand(rng, (pairs, k, n)), PC3_TR
        )
        self._assert_positive_zeros(got, (pairs, m, n))


def _spy_layout_runs(monkeypatch):
    """Count calls into each prepared-layout hot loop of ``float_table``."""
    from repro.core.kernels import FloatTableKernel

    calls = {"weight_stationary": 0, "activation_expanded": 0}
    for layout, attr in (
        ("weight_stationary", "_run_stationary"),
        ("activation_expanded", "_run_expanded"),
    ):
        original = getattr(FloatTableKernel, attr)

        def spy(self, *args, _original=original, _layout=layout):
            calls[_layout] += 1
            return _original(self, *args)

        monkeypatch.setattr(FloatTableKernel, attr, spy)
    return calls


class TestWeightLayouts:
    """Prepared weight layouts give ``float_table``'s bits, call by call.

    ``(k, n)`` pairs pick the layout: n = 15 gathers, n = 16 and small
    tables are weight-stationary, n >= 128 past the 2 MiB cap expands
    activations.  K = 17/33 leave a width-1 tail after 16-wide
    activation-expanded chunks, K = 65 after 64-wide weight-stationary
    ones.
    """

    SHAPES = {
        (9, 15): "gather",
        (9, 16): "weight_stationary",
        (65, 16): "weight_stationary",
        (31, 127): "weight_stationary",
        (33, 127): "gather",
        (31, 128): "weight_stationary",
        (33, 128): "activation_expanded",
        (17, 256): "activation_expanded",
    }

    def test_layout_rule_and_cap_boundary(self):
        for (k, n), layout in self.SHAPES.items():
            assert weight_layout(k, n, 8) == layout, (k, n)
        # 254 * 129 * 16 * 4 = 2,097,024 bytes fits the 2 MiB cap; 255 rows do not.
        assert weight_layout(254, 16, 8) == "weight_stationary"
        assert weight_layout(255, 16, 8) == "gather"
        assert weight_layout(32, 128, 8) == "activation_expanded"
        assert weight_layout(1000, 127, 8) == "gather"

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        config=st.sampled_from(all_configs()),
        shape=st.sampled_from(sorted(SHAPES)),
        m=st.integers(min_value=1, max_value=4),
        zero_row=st.booleans(),
        zero_col=st.booleans(),
    )
    @example(seed=0, config=PC3_TR, shape=(33, 128), m=1, zero_row=False, zero_col=True)
    @example(seed=1, config=PC3, shape=(65, 16), m=3, zero_row=True, zero_col=False)
    def test_property_matches_scalar_reference_and_gather(
        self, seed, config, shape, m, zero_row, zero_col
    ):
        """Every layout == ``float_table.run`` == the scalar reference.

        Zero rows and columns carry both signs of zero; row ``i`` alone
        gives the same bits as in the batch.  The scalar reference checks
        a few columns (it is independent per column), ``run`` all of them.
        """
        k, n = shape
        rng = np.random.default_rng(seed)
        a = (rng.standard_normal((m, k)) * 2.0 ** rng.integers(-20, 20, (m, k))).astype(
            np.float32
        )
        b = (rng.standard_normal((k, n)) * 2.0 ** rng.integers(-20, 20, (k, n))).astype(
            np.float32
        )
        a[rng.random((m, k)) < 0.1] = -0.0
        if zero_row:
            a[m // 2] = np.where(rng.random(k) < 0.5, -0.0, 0.0)
        if zero_col:
            b[:, n // 2] = -0.0
        kernel = get_kernel("float_table")
        pa, pb = pack(a, BFLOAT16), pack(b, BFLOAT16)
        prepared = kernel.prepare(pb, config)
        assert prepared.layout == self.SHAPES[shape]
        got = kernel.run_prepared(pa, prepared)
        _assert_bytes_equal(got, kernel.run(pa, pb, config))
        cols = sorted({0, n // 2, n - 1})
        _assert_bytes_equal(
            got[:, cols], _scalar_reference(a, b[:, cols], BFLOAT16, config)
        )
        rows = [kernel.run_prepared(pack(a[i : i + 1], BFLOAT16), prepared) for i in range(m)]
        _assert_bytes_equal(got, np.concatenate(rows))

    @pytest.mark.parametrize("shape", [(9, 16), (33, 128)], ids=str)
    def test_extreme_exponents_take_the_fallback(self, shape, monkeypatch):
        k, n = shape
        rng = np.random.default_rng(4)
        a = _extreme_operands(rng, (3, k))
        b = _extreme_operands(rng, (k, n))
        kernel = get_kernel("float_table")
        pb = pack(b, BFLOAT16)
        prepared = kernel.prepare(pb, PC3_TR)
        calls = _spy_layout_runs(monkeypatch)
        got = kernel.run_prepared(pack(a, BFLOAT16), prepared)
        assert calls == {"weight_stationary": 0, "activation_expanded": 0}
        _assert_bytes_equal(got, _scalar_reference(a, b, BFLOAT16, PC3_TR))

    def test_well_conditioned_calls_take_the_layouts(self, monkeypatch):
        rng = np.random.default_rng(5)
        kernel = get_kernel("float_table")
        calls = _spy_layout_runs(monkeypatch)
        for k, n in ((9, 16), (33, 128)):
            a = rng.standard_normal((4, k)).astype(np.float32)
            b = rng.standard_normal((k, n)).astype(np.float32)
            pb = pack(b, BFLOAT16)
            got = kernel.run_prepared(pack(a, BFLOAT16), kernel.prepare(pb, PC3_TR))
            _assert_bytes_equal(got, kernel.run(pack(a, BFLOAT16), pb, PC3_TR))
        assert calls == {"weight_stationary": 1, "activation_expanded": 1}

    @pytest.mark.parametrize("shape", [(254, 16), (255, 16), (32, 128)], ids=str)
    def test_cap_boundary_shapes_match_gather(self, shape):
        k, n = shape
        rng = np.random.default_rng(6)
        a = rng.standard_normal((70, k)).astype(np.float32)
        b = rng.standard_normal((k, n)).astype(np.float32)
        kernel = get_kernel("float_table")
        pa, pb = pack(a, BFLOAT16), pack(b, BFLOAT16)
        got = kernel.run_prepared(pa, kernel.prepare(pb, PC3))
        _assert_bytes_equal(got, kernel.run(pa, pb, PC3))

    @pytest.mark.parametrize("fmt", [FLOAT16, FLOAT8_E4M3], ids=lambda f: f.name)
    def test_narrow_formats_keep_their_range_masks(self, fmt):
        # Narrow exponent ranges flush and saturate products even inside
        # the float32-exact regime; the layouts apply the same masks.
        rng = np.random.default_rng(7)
        a = (rng.standard_normal((3, 20)) * 2.0 ** rng.integers(-5, 5, (3, 20))).astype(
            np.float32
        )
        b = (rng.standard_normal((20, 16)) * 2.0 ** rng.integers(-5, 5, (20, 16))).astype(
            np.float32
        )
        kernel = get_kernel("float_table")
        pa, pb = pack(a, fmt), pack(b, fmt)
        prepared = kernel.prepare(pb, PC3_TR)
        assert prepared.layout == "weight_stationary"
        got = kernel.run_prepared(pa, prepared)
        _assert_bytes_equal(got, _scalar_reference(a, b, fmt, PC3_TR))

    def test_stationary_table_released_with_its_last_user(self):
        import gc

        from repro.core import integrity

        b = np.random.default_rng(8).standard_normal((9, 16)).astype(np.float32)
        kernel = get_kernel("float_table")
        first = kernel.prepare(pack(b, BFLOAT16), PC3_TR)
        second = kernel.prepare(pack(b, BFLOAT16), PC3_TR)
        key = first.table_key
        assert second.table_key == key  # equal weights share one table
        del first
        gc.collect()
        assert kernels.peek_table(key) is not None
        assert key in integrity.registered_tables()
        del second
        gc.collect()
        assert kernels.peek_table(key) is None
        integrity.verify_tables()
        assert key not in integrity.registered_tables()

    def test_concurrent_prepare_run_release_keeps_counts(self):
        """Threads sharing one table: no lost retain/release, same bits."""
        import gc
        import sys
        import threading

        rng = np.random.default_rng(9)
        a = rng.standard_normal((32, 20)).astype(np.float32)
        b = rng.standard_normal((20, 16)).astype(np.float32)
        kernel = get_kernel("float_table")
        pa, pb = pack(a, BFLOAT16), pack(b, BFLOAT16)
        want = kernel.run(pa, pb, PC3_TR)
        key = kernel.prepare(pb, PC3_TR).table_key  # dropped at once
        failures = []

        def worker():
            for _ in range(30):
                prepared = kernel.prepare(pack(b, BFLOAT16), PC3_TR)
                got = kernel.run_prepared(pa, prepared)
                if not np.array_equal(got.view(np.uint32), want.view(np.uint32)):
                    failures.append("bits")
                del prepared

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker) for _ in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        gc.collect()
        assert failures == []
        assert key not in kernels._TABLE_REFS
        assert kernels.peek_table(key) is None


class TestBlasFactored:
    def test_within_documented_tolerance(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((96, 128)).astype(np.float32)
        b = rng.standard_normal((128, 32)).astype(np.float32)
        pa, pb = pack(a, BFLOAT16), pack(b, BFLOAT16)
        want = get_kernel("float_table").run(pa, pb, PC3_TR)
        got = get_kernel("blas_factored").run(pa, pb, PC3_TR)
        rel = np.linalg.norm(got - want) / np.linalg.norm(want)
        # Documented parity contract: well below the ~7% approximation
        # error of the multiplier itself.
        assert rel < 0.01

    def test_correction_improves_on_exact_only(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((48, 64)).astype(np.float32)
        b = rng.standard_normal((64, 16)).astype(np.float32)
        pa, pb = pack(a, BFLOAT16), pack(b, BFLOAT16)
        want = get_kernel("float_table").run(pa, pb, PC3_TR)
        corrected = get_kernel("blas_factored").run(pa, pb, PC3_TR)
        exact_only = BlasFactoredKernel(rank=0).run(pa, pb, PC3_TR)
        err_corrected = np.linalg.norm(corrected - want)
        err_exact_only = np.linalg.norm(exact_only - want)
        assert err_corrected < err_exact_only / 3

    def test_rank_zero_is_quantised_dense_product(self):
        rng = np.random.default_rng(6)
        a = rng.standard_normal((7, 9)).astype(np.float32)
        b = rng.standard_normal((9, 5)).astype(np.float32)
        pa, pb = pack(a, BFLOAT16), pack(b, BFLOAT16)
        got = BlasFactoredKernel(rank=0).run(pa, pb, PC3_TR)
        want = pa.dense() @ pb.dense()
        np.testing.assert_array_equal(got.view(np.uint32), want.view(np.uint32))

    def test_correction_info_reports_rank_and_residual(self):
        info = get_kernel("blas_factored").correction_info(BFLOAT16, PC3_TR)
        assert info["rank"] > 0
        assert 0.0 <= info["rel_frobenius_residual"] <= 0.05

    def test_factored_tables_error_rows_vanish_at_zero_index(self):
        fa, fb, _info = factored_tables(8, PC3_TR)
        # E[0, :] == E[:, 0] == 0 exactly, so the factors must (nearly)
        # vanish at index 0 — zero operands get no correction.
        assert np.abs(fa[:, 0]).max() < 1e-6
        assert np.abs(fb[:, 0]).max() < 1e-6


class TestValueTables:
    def test_value_table_entries_in_range(self):
        v = value_table(8, PC3_TR)
        # A zero significand gives a zero product; for *valid* operand
        # indices (MSB set, as decompose produces) values lie in [1, 4).
        assert not v[0].any() and not v[:, 0].any()
        valid = v[128:, 128:]
        assert valid.min() >= 1.0 and valid.max() < 4.0

    def test_exact_config_none_table(self):
        v = value_table(4, None)
        # exact normalised products: entry [a, b] ~= a*b / 2^(2*(bits-1)),
        # with the untruncated pipeline's one-position normalise drop.
        a, b = 9, 11  # 4-bit significands
        exact = (a * b) / 2.0 ** (2 * (4 - 1))
        assert abs(v[a, b] - exact) / exact < 2.0**-3

    def test_cache_hit_counters(self):
        value_table(8, FLA)  # ensure built
        reset_table_cache_counters()
        value_table(8, FLA)
        value_table(8, FLA)
        counters = table_cache_counters()
        assert counters["hits"] == 2 and counters["misses"] == 0

    def test_repeated_backend_construction_reuses_cached_table(self):
        """Satellite: rebuilding a backend must never rebuild its table."""
        from repro.nn.backend import daism_backend

        rng = np.random.default_rng(7)
        a = rng.standard_normal((4, 6)).astype(np.float32)
        b = rng.standard_normal((6, 3)).astype(np.float32)
        daism_backend(PC3_TR, BFLOAT16).matmul(a, b)  # warm the cache
        reset_table_cache_counters()
        for _ in range(3):
            backend = daism_backend(PC3_TR, BFLOAT16)  # fresh object each time
            backend.matmul(a, b)
        counters = table_cache_counters()
        assert counters["misses"] == 0
        assert counters["hits"] >= 3


class TestChunkPolicy:
    def test_row_blocking_is_bit_neutral(self):
        rng = np.random.default_rng(8)
        a = rng.standard_normal((37, 19)).astype(np.float32)
        b = rng.standard_normal((19, 7)).astype(np.float32)
        pa, pb = pack(a, BFLOAT16), pack(b, BFLOAT16)
        kernel = get_kernel("float_table")
        want = kernel.run(pa, pb, PC3_TR)
        for budget in (1, 64, 1 << 20):
            with patch.object(kernels, "ROW_BUDGET", budget):
                _assert_bytes_equal(kernel.run(pa, pb, PC3_TR), want)


class TestBackendPlumbing:
    def test_approx_matmul_kernel_argument(self):
        from repro.core.gemm import approx_matmul

        rng = np.random.default_rng(9)
        a = rng.standard_normal((6, 8)).astype(np.float32)
        b = rng.standard_normal((8, 4)).astype(np.float32)
        default = approx_matmul(a, b, BFLOAT16, PC3_TR)
        _assert_bytes_equal(default, _scalar_reference(a, b, BFLOAT16, PC3_TR))
        generic = approx_matmul(a, b, BFLOAT16, PC3_TR, kernel="generic")
        _assert_bytes_equal(generic, default)
        blas = approx_matmul(a, b, BFLOAT16, PC3_TR, kernel="blas_factored")
        rel = np.linalg.norm(blas - default) / np.linalg.norm(default)
        assert rel < 0.01
        with pytest.raises(ValueError, match="unknown GEMM kernel"):
            approx_matmul(a, b, BFLOAT16, PC3_TR, kernel="bogus")

    def test_daism_backend_kernel_plumbing(self):
        from repro.nn.backend import daism_backend

        rng = np.random.default_rng(10)
        a = rng.standard_normal((2, 5, 8)).astype(np.float32)
        b = rng.standard_normal((8, 3)).astype(np.float32)
        default = daism_backend(PC3_TR, BFLOAT16).matmul(a, b)
        generic = daism_backend(PC3_TR, BFLOAT16, kernel="generic").matmul(a, b)
        assert generic.shape == (2, 5, 3)
        _assert_bytes_equal(generic, default)
        want = np.stack([_scalar_reference(x, b, BFLOAT16, PC3_TR) for x in a])
        _assert_bytes_equal(default, want)

    def test_quantized_backend_kernel_routes_exact_products(self):
        from repro.nn.backend import quantized_backend

        rng = np.random.default_rng(11)
        a = rng.standard_normal((5, 7)).astype(np.float32)
        b = rng.standard_normal((7, 3)).astype(np.float32)
        dense = quantized_backend(BFLOAT16).matmul(a, b)
        via_kernel = quantized_backend(BFLOAT16, kernel="float_table").matmul(a, b)
        # The kernel path re-normalises every product to the format's
        # significand width (datapath semantics), so it deviates from
        # full-precision BLAS by at most ~2^-bits per product.
        np.testing.assert_allclose(via_kernel, dense, rtol=0.02, atol=1e-5)
        # And byte-identical to the scalar reference with exact products.
        want = _scalar_reference(a, b, BFLOAT16, None)
        np.testing.assert_array_equal(
            via_kernel.view(np.uint32), want.view(np.uint32)
        )


class TestKernelSpeedupExperiment:
    def test_registered_and_rows_shape(self):
        from repro.experiments import get_experiment

        exp = get_experiment("kernel_speedup")
        rows = exp.run(dict(exp.defaults, config="PC3_tr"))
        by_kernel = {row["kernel"]: row for row in rows}
        assert {"float_table", "generic", "blas_factored"} <= set(by_kernel)
        assert by_kernel["float_table"]["byte-identical to default"] == "yes"
        assert by_kernel["generic"]["byte-identical to default"] == "yes"
        assert by_kernel["blas_factored"]["bit_exact contract"] == "no (tolerance)"
        for row in rows:
            assert row["table rebuilds on reuse"] == 0
