"""Tests for the approximate GEMM and the matmul backends."""

from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.config import FLA, PC3, PC3_TR, all_configs
from repro.core.fp_mul import approx_fp_multiply
from repro.core.gemm import (
    ApproxMatmul,
    ExactMatmul,
    QuantizedMatmul,
    approx_matmul,
)
from repro.core.mantissa import approx_multiply
from repro.formats.floatfmt import (
    BFLOAT16,
    FLOAT8_E4M3,
    FLOAT16,
    FLOAT32,
    decompose,
    quantize,
)
from repro.formats.packed import pack, packing_counters


class TestApproxMatmul:
    def test_matches_elementwise_products(self):
        """The GEMM is exactly sum-of-approximate-products."""
        rng = np.random.default_rng(0)
        a = rng.standard_normal((5, 7)).astype(np.float32)
        b = rng.standard_normal((7, 3)).astype(np.float32)
        got = approx_matmul(a, b, BFLOAT16, PC3_TR)
        want = np.zeros((5, 3), dtype=np.float32)
        for k in range(7):
            want += approx_fp_multiply(a[:, k : k + 1], b[k : k + 1, :], BFLOAT16, PC3_TR)
        np.testing.assert_allclose(got, want, rtol=1e-6)

    def test_chunking_invariant(self):
        from repro.core import kernels

        rng = np.random.default_rng(1)
        a = rng.standard_normal((9, 33)).astype(np.float32)
        b = rng.standard_normal((33, 8)).astype(np.float32)
        full = approx_matmul(a, b, BFLOAT16, PC3)
        # 5-row blocks, one K term at a time.
        with patch.object(kernels, "ROW_BUDGET", 40):
            small = approx_matmul(a, b, BFLOAT16, PC3)
        np.testing.assert_array_equal(full.view(np.uint32), small.view(np.uint32))

    def test_identity_times_matrix_is_quantisation(self):
        rng = np.random.default_rng(2)
        b = rng.standard_normal((6, 6)).astype(np.float32)
        eye = np.eye(6, dtype=np.float32)
        got = approx_matmul(eye, b, BFLOAT16, PC3)
        np.testing.assert_allclose(got, quantize(b, BFLOAT16), rtol=0, atol=0)

    def test_zero_rows_stay_zero(self):
        a = np.zeros((3, 4), dtype=np.float32)
        b = np.ones((4, 2), dtype=np.float32)
        np.testing.assert_array_equal(approx_matmul(a, b, BFLOAT16, FLA), np.zeros((3, 2)))

    def test_error_small_relative_to_exact(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((32, 64)).astype(np.float32)
        b = rng.standard_normal((64, 16)).astype(np.float32)
        got = approx_matmul(a, b, BFLOAT16, PC3_TR)
        exact = a @ b
        rel = np.linalg.norm(got - exact) / np.linalg.norm(exact)
        assert rel < 0.15

    def test_shape_validation(self):
        a = np.zeros((2, 3), dtype=np.float32)
        with pytest.raises(ValueError, match="shape mismatch"):
            approx_matmul(a, np.zeros((4, 2), dtype=np.float32), BFLOAT16, PC3)
        with pytest.raises(ValueError, match="shape mismatch"):
            approx_matmul(np.zeros(3, dtype=np.float32), a, BFLOAT16, PC3)

    def test_float32_format_supported(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((4, 8)).astype(np.float32)
        b = rng.standard_normal((8, 4)).astype(np.float32)
        got = approx_matmul(a, b, FLOAT32, PC3)
        exact = a @ b
        rel = np.linalg.norm(got - exact) / np.linalg.norm(exact)
        assert rel < 0.15


class TestBackends:
    def test_exact_backend_is_numpy(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((3, 4)).astype(np.float32)
        b = rng.standard_normal((4, 5)).astype(np.float32)
        np.testing.assert_allclose(ExactMatmul().matmul(a, b), a @ b, rtol=1e-6)

    def test_quantized_backend_quantizes(self):
        a = np.array([[1.0 + 2.0 ** -10]], dtype=np.float32)  # not a bf16 value
        b = np.array([[1.0]], dtype=np.float32)
        out = QuantizedMatmul(BFLOAT16).matmul(a, b)
        assert out[0, 0] == np.float32(1.0)

    def test_approx_backend_name(self):
        backend = ApproxMatmul(fmt=BFLOAT16, config=PC3_TR)
        assert backend.name == "approx_bfloat16_PC3_tr"

    def test_backend_results_ordered_by_fidelity(self):
        """exact == quantised-fp32; PC3 closer to exact than FLA."""
        rng = np.random.default_rng(6)
        a = rng.standard_normal((16, 32)).astype(np.float32)
        b = rng.standard_normal((32, 8)).astype(np.float32)
        exact = ExactMatmul().matmul(a, b)
        err_pc3 = np.linalg.norm(ApproxMatmul(BFLOAT16, PC3).matmul(a, b) - exact)
        err_fla = np.linalg.norm(ApproxMatmul(BFLOAT16, FLA).matmul(a, b) - exact)
        assert err_pc3 < err_fla


def _scalar_reference_matmul(a, b, fmt, config):
    """Ground-truth GEMM from the scalar core.mantissa multiplier.

    Re-implements the whole FP pipeline (decompose, scalar approximate
    significand product, one-position normalise, compose, float32
    accumulation) with plain Python integers, independently of the
    vectorised kernels under test.
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
        product = approx_multiply(mx, my, bits, config)
        if config.truncated:
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

    # Accumulate exactly as the kernels do: each output is summed in
    # float32 strictly left to right over K, ``((0 + p_0) + p_1) + ...``,
    # one scalar addition at a time.  A numpy reduction is NOT
    # equivalent: numpy sums pairwise whenever K is the innermost axis
    # (a 1-D sum, or an ``(m, k, 1)`` block's axis-1 sum once k reaches
    # 8), which can (and did) differ from the sequential sum by 1 ulp.
    out = np.zeros((m, n), dtype=np.float32)
    for i in range(m):
        for j in range(n):
            total = np.float32(0.0)
            for t in range(k):
                sign = int(sa[i, t]) ^ int(sb[t, j])
                exp = int(ea[i, t]) + int(eb[t, j])
                total = np.float32(total + product_value(int(ma[i, t]), int(mb[t, j]), sign, exp))
            out[i, j] = total
    return out


class TestPackedMatmul:
    """The packed pipeline is byte-identical to the float-input pipeline."""

    @pytest.mark.parametrize("fmt", [BFLOAT16, FLOAT16, FLOAT8_E4M3, FLOAT32],
                             ids=lambda f: f.name)
    def test_packed_operands_byte_identical(self, fmt):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((6, 9)).astype(np.float32)
        b = rng.standard_normal((9, 4)).astype(np.float32)
        a[0, :4] = 0.0
        want = approx_matmul(a, b, fmt, PC3_TR)
        pa, pb = pack(a, fmt), pack(b, fmt)
        for lhs, rhs in [(pa, pb), (pa, b), (a, pb)]:
            got = approx_matmul(lhs, rhs, fmt, PC3_TR)
            np.testing.assert_array_equal(got.view(np.uint32), want.view(np.uint32))

    def test_packed_matmul_does_not_repack(self):
        rng = np.random.default_rng(8)
        pa = pack(rng.standard_normal((5, 8)).astype(np.float32), BFLOAT16)
        pb = pack(rng.standard_normal((8, 3)).astype(np.float32), BFLOAT16)
        before = packing_counters()
        approx_matmul(pa, pb, BFLOAT16, PC3_TR)
        approx_matmul(pa, pb, BFLOAT16, FLA)
        assert packing_counters() == before

    def test_format_mismatch_rejected(self):
        a = np.ones((2, 3), dtype=np.float32)
        b = np.ones((3, 2), dtype=np.float32)
        with pytest.raises(ValueError, match="packed operand"):
            approx_matmul(pack(a, FLOAT16), b, BFLOAT16, PC3_TR)
        with pytest.raises(ValueError, match="packed operand"):
            approx_matmul(a, pack(b, FLOAT16), BFLOAT16, PC3_TR)

    @pytest.mark.parametrize("fmt", [BFLOAT16, FLOAT8_E4M3], ids=lambda f: f.name)
    @pytest.mark.parametrize("config", [PC3_TR, PC3, FLA], ids=lambda c: c.name)
    def test_byte_identical_to_scalar_mantissa_reference(self, fmt, config):
        rng = np.random.default_rng(9)
        a = rng.standard_normal((4, 6)).astype(np.float32)
        b = rng.standard_normal((6, 3)).astype(np.float32)
        a[1, :2] = 0.0
        b[0, :] = 0.0
        want = _scalar_reference_matmul(a, b, fmt, config)
        got = approx_matmul(pack(a, fmt), pack(b, fmt), fmt, config)
        np.testing.assert_array_equal(got.view(np.uint32), want.view(np.uint32))

    def test_wide_format_generic_path_matches_scalar_reference(self):
        # float32 significands (24 bits) exceed the fused-table width and
        # exercise the generic zero-aware pipeline.
        rng = np.random.default_rng(10)
        a = rng.standard_normal((3, 4)).astype(np.float32)
        b = rng.standard_normal((4, 2)).astype(np.float32)
        a[0, 0] = 0.0
        want = _scalar_reference_matmul(a, b, FLOAT32, PC3)
        got = approx_matmul(a, b, FLOAT32, PC3)
        np.testing.assert_array_equal(got.view(np.uint32), want.view(np.uint32))

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        fmt=st.sampled_from([BFLOAT16, FLOAT16, FLOAT8_E4M3]),
        config=st.sampled_from(all_configs()),
        m=st.integers(min_value=1, max_value=5),
        k=st.integers(min_value=1, max_value=8),
        n=st.integers(min_value=1, max_value=4),
    )
    # n = 1, k = 8: a numpy sum over K would regroup pairwise (1 ulp off).
    @example(seed=4512741, fmt=BFLOAT16, config=PC3, m=5, k=8, n=1)
    def test_property_packed_and_batched_match_scalar_reference(
        self, seed, fmt, config, m, k, n
    ):
        rng = np.random.default_rng(seed)
        a = (rng.standard_normal((m, k)) * 2.0 ** rng.integers(-4, 5, (m, k))).astype(
            np.float32
        )
        b = (rng.standard_normal((k, n)) * 2.0 ** rng.integers(-4, 5, (k, n))).astype(
            np.float32
        )
        a[rng.random((m, k)) < 0.2] = 0.0
        b[rng.random((k, n)) < 0.2] = 0.0
        want = _scalar_reference_matmul(a, b, fmt, config)
        got_packed = approx_matmul(pack(a, fmt), pack(b, fmt), fmt, config)
        np.testing.assert_array_equal(
            got_packed.view(np.uint32), want.view(np.uint32)
        )
        batched = np.broadcast_to(a, (3, m, k)).copy()
        got_batched = approx_matmul(batched, b, fmt, config)
        for i in range(3):
            np.testing.assert_array_equal(
                got_batched[i].view(np.uint32), want.view(np.uint32)
            )


class TestBatchedMatmul:
    def test_batched_equals_per_sample_loop(self):
        rng = np.random.default_rng(11)
        a = rng.standard_normal((4, 7, 9)).astype(np.float32)
        b = rng.standard_normal((9, 5)).astype(np.float32)
        got = approx_matmul(a, b, BFLOAT16, PC3_TR)
        assert got.shape == (4, 7, 5)
        want = np.stack([approx_matmul(a[i], b, BFLOAT16, PC3_TR) for i in range(4)])
        np.testing.assert_array_equal(got.view(np.uint32), want.view(np.uint32))

    def test_batched_equals_flattened(self):
        rng = np.random.default_rng(12)
        a = rng.standard_normal((3, 5, 6)).astype(np.float32)
        b = rng.standard_normal((6, 4)).astype(np.float32)
        got = approx_matmul(a, b, BFLOAT16, PC3)
        want = approx_matmul(a.reshape(15, 6), b, BFLOAT16, PC3).reshape(3, 5, 4)
        np.testing.assert_array_equal(got.view(np.uint32), want.view(np.uint32))

    def test_all_backends_accept_batched_inputs(self):
        rng = np.random.default_rng(13)
        a = rng.standard_normal((2, 4, 6)).astype(np.float32)
        b = rng.standard_normal((6, 3)).astype(np.float32)
        backends = [
            ExactMatmul(),
            QuantizedMatmul(BFLOAT16),
            ApproxMatmul(BFLOAT16, PC3_TR),
        ]
        for backend in backends:
            got = backend.matmul(a, b)
            assert got.shape == (2, 4, 3)
            for i in range(2):
                want = backend.matmul(a[i], b)
                np.testing.assert_array_equal(
                    np.asarray(got[i], dtype=np.float32).view(np.uint32),
                    np.asarray(want, dtype=np.float32).view(np.uint32),
                )

    def test_bfp_backend_batched_matches_flattened(self):
        # A BFP block shares one exponent per tensor, so the batched call
        # must equal the batch flattened into one block — not a per-sample
        # loop, whose blocks would each pick their own exponent.
        from repro.nn.backend import bfp_backend

        rng = np.random.default_rng(13)
        a = rng.standard_normal((2, 4, 6)).astype(np.float32)
        b = rng.standard_normal((6, 3)).astype(np.float32)
        backend = bfp_backend(PC3_TR, mantissa_bits=8)
        got = backend.matmul(a, b)
        assert got.shape == (2, 4, 3)
        want = backend.matmul(a.reshape(8, 6), b).reshape(2, 4, 3)
        np.testing.assert_array_equal(
            got.astype(np.float32).view(np.uint32),
            want.astype(np.float32).view(np.uint32),
        )

    def test_bad_ranks_rejected(self):
        a4 = np.zeros((2, 2, 2, 2), dtype=np.float32)
        b3 = np.zeros((2, 2, 2), dtype=np.float32)
        with pytest.raises(ValueError, match="shape mismatch"):
            approx_matmul(a4, np.zeros((2, 2), dtype=np.float32), BFLOAT16, PC3)
        with pytest.raises(ValueError, match="shape mismatch"):
            approx_matmul(np.zeros((2, 2), dtype=np.float32), b3, BFLOAT16, PC3)


class TestPrepare:
    def test_prepare_then_matmul_byte_identical(self):
        rng = np.random.default_rng(14)
        a = rng.standard_normal((5, 8)).astype(np.float32)
        b = rng.standard_normal((8, 4)).astype(np.float32)
        backend = ApproxMatmul(BFLOAT16, PC3_TR)
        want = backend.matmul(a, b)
        prepared = backend.prepare(b)
        got = backend.matmul(a, prepared)
        np.testing.assert_array_equal(got.view(np.uint32), want.view(np.uint32))

    def test_prepared_operand_is_never_repacked(self):
        rng = np.random.default_rng(15)
        a = rng.standard_normal((5, 8)).astype(np.float32)
        b = rng.standard_normal((8, 4)).astype(np.float32)
        backend = ApproxMatmul(BFLOAT16, PC3_TR)
        prepared = backend.prepare(b)
        before = packing_counters()["pack_calls"]
        for _ in range(3):
            backend.matmul(a, prepared)
        # Only the activation side packs: one call per matmul.
        assert packing_counters()["pack_calls"] == before + 3

    def test_prepare_keys_shared_across_configs(self):
        assert (
            ApproxMatmul(BFLOAT16, PC3_TR).prepare_key
            == ApproxMatmul(BFLOAT16, FLA).prepare_key
            == QuantizedMatmul(BFLOAT16).prepare_key
        )
        assert (
            ApproxMatmul(BFLOAT16, PC3_TR).prepare_key
            != ApproxMatmul(FLOAT16, PC3_TR).prepare_key
        )
        assert ExactMatmul().prepare_key == "dense_float32"

    def test_quantized_backend_accepts_packed(self):
        rng = np.random.default_rng(16)
        a = rng.standard_normal((4, 6)).astype(np.float32)
        b = rng.standard_normal((6, 3)).astype(np.float32)
        backend = QuantizedMatmul(BFLOAT16)
        want = backend.matmul(a, b)
        got = backend.matmul(a, backend.prepare(b))
        np.testing.assert_array_equal(got.view(np.uint32), want.view(np.uint32))

    def test_exact_prepare_is_identity_cast(self):
        b = np.ones((3, 2), dtype=np.float64)
        prepared = ExactMatmul().prepare(b)
        assert prepared.dtype == np.float32
