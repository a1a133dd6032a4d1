"""Tests for the quantise-once PackedTensor pipeline."""

import numpy as np
import pytest

from repro.formats.floatfmt import (
    BFLOAT16,
    FLOAT8_E4M3,
    FLOAT16,
    FLOAT32,
    decompose,
    quantize,
)
from repro.formats.packed import (
    PackedTensor,
    pack,
    packing_counters,
    reset_packing_counters,
)

FORMATS = [FLOAT32, BFLOAT16, FLOAT16, FLOAT8_E4M3]


def _assert_fast_path_matches_reference(x, fmt):
    """``pack``'s planes, dense and scale equal ``quantize`` + ``decompose``'s."""
    packed = pack(x, fmt)
    want_dense = quantize(x, fmt)
    sign, exponent, significand = decompose(want_dense, fmt)
    want = PackedTensor(fmt, sign, exponent, significand.astype(np.uint32))
    np.testing.assert_array_equal(packed.dense().view(np.uint32), want_dense.view(np.uint32))
    for plane in ("sign", "exponent", "significand"):
        got, expected = getattr(packed, plane), getattr(want, plane)
        assert got.dtype == expected.dtype
        np.testing.assert_array_equal(got, expected)
    np.testing.assert_array_equal(packed.scale().view(np.uint32), want.scale().view(np.uint32))


@pytest.fixture(autouse=True)
def _fresh_counters():
    reset_packing_counters()
    yield
    reset_packing_counters()


class TestPackUnpack:
    @pytest.mark.parametrize("fmt", FORMATS, ids=lambda f: f.name)
    def test_roundtrip_equals_quantize(self, fmt):
        rng = np.random.default_rng(0)
        x = (rng.standard_normal((13, 7)) * 2.0 ** rng.integers(-10, 10, (13, 7))).astype(
            np.float32
        )
        x[0, :3] = 0.0
        x[1, 0] = -0.0
        packed = pack(x, fmt)
        want = quantize(x, fmt)
        np.testing.assert_array_equal(
            packed.unpack().view(np.uint32), want.view(np.uint32)
        )

    @pytest.mark.parametrize("fmt", FORMATS, ids=lambda f: f.name)
    def test_planes_match_decompose(self, fmt):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((4, 5)).astype(np.float32)
        packed = pack(x, fmt)
        sign, exponent, significand = decompose(quantize(x, fmt), fmt)
        np.testing.assert_array_equal(packed.sign, sign)
        np.testing.assert_array_equal(packed.exponent, exponent)
        np.testing.assert_array_equal(packed.significand, significand.astype(np.uint32))

    @pytest.mark.parametrize("fmt", [BFLOAT16, FLOAT32], ids=lambda f: f.name)
    def test_fast_path_parity_on_edge_values(self, fmt):
        """Signed zeros, subnormals and full-range exponents: the fused
        e8 fast path must match quantize+decompose byte for byte."""
        rng = np.random.default_rng(2)
        x = (
            rng.standard_normal(4096) * 2.0 ** rng.integers(-140, 127, 4096).astype(np.float64)
        ).astype(np.float32)
        x[:10] = [
            0.0, -0.0, 2.0**-140, -(2.0**-140), 2.0**-126, -(2.0**-126), 1.0, -1.0,
            3.39e38, -3.39e38,  # finite in float32, round to inf in bfloat16
        ]
        _assert_fast_path_matches_reference(x, fmt)
        # Seeded fuzz: ReLU-sparse tensors (the branch-free selects' case)
        # mixed with signed zeros, float32 subnormals, tiny negatives and
        # values that round to the largest finite magnitude.
        for seed in range(20):
            rng = np.random.default_rng([3, seed])
            n = 2048
            x = np.maximum(rng.standard_normal(n), 0.0).astype(np.float32)
            x *= (2.0 ** rng.integers(-130, 120, n)).astype(np.float32)
            pick = rng.integers(0, 8, n)
            x[pick == 1] = -0.0
            subnormal = rng.integers(1, 1 << 23, n, dtype=np.uint32)
            subnormal |= rng.integers(0, 2, n, dtype=np.uint32) << np.uint32(31)
            x[pick == 2] = subnormal.view(np.float32)[pick == 2]
            x[pick == 3] = -(2.0 ** rng.uniform(-149, -125, n)).astype(np.float32)[pick == 3]
            near_max = rng.integers(0x7F7E_0000, 0x7F7F_8000, n, dtype=np.uint32)
            near_max |= rng.integers(0, 2, n, dtype=np.uint32) << np.uint32(31)
            x[pick == 4] = near_max.view(np.float32)[pick == 4]
            _assert_fast_path_matches_reference(x, fmt)

    def test_specials_fall_back_to_generic_path(self):
        """NaN payloads whose rounding would wrap past the sign bit must
        not slip through the fast path (they packed as -0.0 once)."""
        evil_nan = np.uint32(0x7FFF_8000).view(np.float32)
        for special in (evil_nan, np.float32(np.nan), np.float32(np.inf), np.float32(-np.inf)):
            x = np.array([1.5, special, -2.5], dtype=np.float32)
            packed = pack(x, BFLOAT16)
            want = quantize(x, BFLOAT16)
            np.testing.assert_array_equal(
                packed.dense().view(np.uint32), want.view(np.uint32)
            )
            sign, exponent, significand = decompose(want, BFLOAT16)
            np.testing.assert_array_equal(packed.sign, sign)
            np.testing.assert_array_equal(packed.exponent, exponent)
            np.testing.assert_array_equal(packed.significand, significand.astype(np.uint32))

    def test_scale_plane_is_signed_power_of_two(self):
        x = np.array([3.5, -0.75, 0.0, -0.0, 2.0**-100], dtype=np.float32)
        packed = pack(x, BFLOAT16)
        scale = packed.scale()
        np.testing.assert_array_equal(
            scale, np.array([2.0, -0.5, 0.0, -0.0, 2.0**-100], dtype=np.float32)
        )
        assert np.signbit(scale[3])
        # Cached: same object on repeat, carried through reshape.
        assert packed.scale() is scale
        np.testing.assert_array_equal(packed.reshape(5, 1).scale().ravel(), scale)

    def test_dense_is_cached_and_correct(self):
        x = np.linspace(-3, 3, 12, dtype=np.float32).reshape(3, 4)
        packed = pack(x, BFLOAT16)
        first = packed.dense()
        np.testing.assert_array_equal(
            first.view(np.uint32), quantize(x, BFLOAT16).view(np.uint32)
        )
        assert packed.dense() is first

    def test_shape_properties(self):
        packed = pack(np.zeros((2, 3, 4), dtype=np.float32), BFLOAT16)
        assert packed.shape == (2, 3, 4)
        assert packed.ndim == 3
        assert packed.size == 24

    def test_reshape_preserves_values(self):
        x = np.arange(24, dtype=np.float32).reshape(4, 6)
        packed = pack(x, BFLOAT16).reshape(2, 12)
        assert packed.shape == (2, 12)
        np.testing.assert_array_equal(
            packed.unpack(), quantize(x, BFLOAT16).reshape(2, 12)
        )

    def test_mismatched_planes_rejected(self):
        with pytest.raises(ValueError, match="plane shapes differ"):
            PackedTensor(
                BFLOAT16,
                np.zeros((2, 2), dtype=np.uint32),
                np.zeros((2, 3), dtype=np.int32),
                np.zeros((2, 2), dtype=np.uint32),
            )

    def test_pack_of_packed_rejected(self):
        packed = pack(np.ones((2, 2), dtype=np.float32), BFLOAT16)
        with pytest.raises(TypeError, match="already packed"):
            pack(packed, BFLOAT16)


class TestCounters:
    def test_pack_increments_counters(self):
        assert packing_counters() == {"pack_calls": 0, "elements_packed": 0}
        pack(np.zeros((3, 5), dtype=np.float32), BFLOAT16)
        pack(np.zeros(7, dtype=np.float32), FLOAT16)
        counters = packing_counters()
        assert counters["pack_calls"] == 2
        assert counters["elements_packed"] == 22

    def test_reset(self):
        pack(np.zeros(4, dtype=np.float32), BFLOAT16)
        reset_packing_counters()
        assert packing_counters() == {"pack_calls": 0, "elements_packed": 0}

    def test_unpack_and_dense_do_not_count(self):
        packed = pack(np.ones((2, 2), dtype=np.float32), BFLOAT16)
        before = packing_counters()
        packed.unpack()
        packed.dense()
        packed.dense()
        assert packing_counters() == before
