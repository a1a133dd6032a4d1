"""Tests for the quantise-once PackedTensor pipeline."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.chaos.inject import corrupt_packed
from repro.core.config import PC3_TR
from repro.core.kernels import GATHER, FloatTableKernel
from repro.formats.floatfmt import (
    BFLOAT16,
    FLOAT8_E4M3,
    FLOAT16,
    FLOAT32,
    FloatFormat,
    decompose,
    quantize,
)
from repro.formats.packed import (
    PackedTensor,
    pack,
    packing_counters,
    reset_packing_counters,
    significand_dtype,
)
from repro.nn import functional as F
from repro.sram.faults import FaultModel

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


# --------------------------------------------------------------------------
# Two-plane packs: properties against quantize + decompose
# --------------------------------------------------------------------------

#: bfloat16 and two more 8-exponent-bit widths, one with a two-byte significand.
E8_FORMATS = [
    BFLOAT16,
    FloatFormat("e8m3", exponent_bits=8, mantissa_bits=3),
    FloatFormat("e8m10", exponent_bits=8, mantissa_bits=10),
]


def _from_bits(lo: int, hi: int):
    """float32 values whose magnitude bits lie in ``[lo, hi]``, either sign."""
    return st.tuples(st.integers(lo, hi), st.booleans()).map(
        lambda t: np.uint32(t[0] | (t[1] << 31)).view(np.float32)
    )


#: Signed zeros, float32 subnormals, values near the float32 maximum
#: (bfloat16 rounds some to inf), ordinary magnitudes, and any bit
#: pattern at all (inf and NaN payloads send the pack to its fallback).
edge_values = st.one_of(
    st.sampled_from([np.float32(0.0), np.float32(-0.0)]),
    _from_bits(1, 0x007F_FFFF),
    _from_bits(0x7F7E_0000, 0x7F7F_FFFF),
    _from_bits(0x3000_0000, 0x5000_0000),
    st.integers(0, 2**32 - 1).map(lambda b: np.uint32(b).view(np.float32)),
)


def _bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.float32).view(np.uint32)


def _nonzero_range(exponent: np.ndarray, significand: np.ndarray) -> tuple[int, int]:
    """The exponent range over nonzero elements, widened to include 0."""
    e = exponent[significand != 0]
    return min(0, int(e.min(initial=0))), max(0, int(e.max(initial=0)))


def _assert_matches_decompose(packed: PackedTensor, quantised: np.ndarray, fmt) -> None:
    """Stored planes, derived planes and range against ``decompose(quantised)``."""
    sign, exponent, significand = decompose(quantised, fmt)
    want = PackedTensor(fmt, sign, exponent, significand)
    assert packed.significand.dtype == significand_dtype(fmt)
    np.testing.assert_array_equal(packed.significand, significand)
    np.testing.assert_array_equal(_bits(packed.scale()), _bits(want.scale()))
    np.testing.assert_array_equal(packed.sign, sign)
    np.testing.assert_array_equal(packed.exponent, exponent)
    assert packed.exponent_range() == _nonzero_range(exponent, significand)
    if np.all(np.isfinite(quantised)):
        np.testing.assert_array_equal(_bits(packed.dense()), _bits(quantised))
    else:
        np.testing.assert_array_equal(packed.dense(), quantised)


class TestTwoPlanePack:
    @settings(max_examples=150, deadline=None)
    @given(
        st.sampled_from(E8_FORMATS),
        arrays(np.float32, st.integers(0, 40), elements=edge_values),
    )
    def test_planes_match_quantize_decompose(self, fmt, x):
        packed = pack(x, fmt)
        _assert_matches_decompose(packed, quantize(x, fmt), fmt)

    def test_bfloat16_stores_five_bytes_per_element(self):
        packed = pack(np.ones((4, 8), dtype=np.float32), BFLOAT16)
        assert packed.significand.dtype == np.uint8
        assert packed.scale().dtype == np.float32
        # Nothing else is stored until a path asks for it.
        assert packed._sign is None and packed._exponent is None and packed._dense is None

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 3),  # groups
        st.integers(1, 3),  # channels per group
        st.sampled_from([1, 2, 3]),  # kernel
        st.integers(1, 3),  # stride
        st.integers(0, 2),  # padding
        st.integers(0, 2**31 - 1),  # seed
        st.booleans(),  # plant a non-finite value
    )
    def test_gather_equals_pack_of_im2col(
        self, groups, cg, kernel, stride, padding, seed, special
    ):
        rng = np.random.default_rng(seed)
        size = kernel + rng.integers(0, 5)
        x = rng.standard_normal((2, groups * cg, size, size)).astype(np.float32)
        x[rng.random(x.shape) < 0.4] = 0.0
        x *= (2.0 ** rng.integers(-140, 120, x.shape)).astype(np.float32)
        if special:
            x.flat[rng.integers(x.size)] = rng.choice([np.inf, -np.inf, np.nan])
        cols = F.gather_packed_cols(pack(x, BFLOAT16), kernel, stride, padding)
        width = cols.shape[1] // groups
        for g in range(groups):
            got = cols[:, g * width : (g + 1) * width]
            patches = F.im2col(x[:, g * cg : (g + 1) * cg], kernel, stride, padding)
            want = pack(patches, BFLOAT16)
            np.testing.assert_array_equal(got.significand, want.significand)
            np.testing.assert_array_equal(_bits(got.scale()), _bits(want.scale()))
            assert got.exponent_range() == want.exponent_range()
            _assert_matches_decompose(got, quantize(patches, BFLOAT16), BFLOAT16)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.integers(1, 6), st.integers(16, 40))
    def test_flipped_msb_takes_the_plain_gather(self, seed, k, n):
        """A significand that lost its MSB has no table row: plain gather, same bits."""
        rng = np.random.default_rng(seed)
        weight = pack(rng.standard_normal((k, n)).astype(np.float32), BFLOAT16)
        # A significand of exactly the MSB would read zero, which has a row.
        cells = np.flatnonzero(weight.significand != 1 << (BFLOAT16.significand_bits - 1))
        cell = int(rng.choice(cells))
        faults = FaultModel(stuck_at_0=frozenset({(cell, BFLOAT16.significand_bits - 1)}))
        faulty = corrupt_packed(weight, faults)
        kernel = FloatTableKernel()
        prepared = kernel.prepare(faulty, PC3_TR)
        assert prepared.layout == GATHER
        assert kernel.prepare_direct([faulty], PC3_TR) is None
        x = pack(rng.standard_normal((3, k)).astype(np.float32), BFLOAT16)
        np.testing.assert_array_equal(
            _bits(kernel.run_prepared(x, prepared)), _bits(kernel.run(x, faulty, PC3_TR))
        )
