"""Zero bypass in ``float_table``: skipping products by zero keeps every bit.

A ``run`` call in the standard orientation whose activations are mostly
zeros runs over each row's nonzero activations only
(``FloatTableKernel._run_compacted``); a weight-stationary call adds, per
K step, only the rows whose activation is nonzero there
(``_run_stationary_sparse``).  Both must equal the strictly sequential
scalar reference byte for byte — signed zeros in either operand,
all-zero rows, rows with one nonzero, ``n = 1``, K over several tiles,
narrow formats whose range masks apply inside ``f32_exact``, and
products that overflow to inf or sum to NaN.  Calls outside
``f32_exact`` take the dense loops.  Work floors are patched down so
small shapes reach the bypass; spies check that it really ran.
"""

import contextlib
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import kernels
from repro.core.config import PC3, PC3_TR, all_configs
from repro.core.kernels import FloatTableKernel, get_kernel
from repro.formats.floatfmt import BFLOAT16, FLOAT8_E4M3, FLOAT16
from repro.formats.packed import pack

from test_kernels import _assert_bytes_equal, _extreme_operands, _scalar_reference

KERNEL = get_kernel("float_table")
FORMATS = [BFLOAT16, FLOAT16, FLOAT8_E4M3]
#: Exponent ranges per format: wide enough for products that overflow
#: to inf (bfloat16) or that the format's range masks flush and
#: saturate (float16, float8), inside ``f32_exact`` throughout.
EXPONENTS = {BFLOAT16.name: (-60, 100), FLOAT16.name: (-12, 12), FLOAT8_E4M3.name: (-5, 5)}
#: Never bypass: the dense loops, for comparison.
DENSE = {"BYPASS_ZEROS": 2.0, "BYPASS_STATIONARY_ZEROS": 2.0}


@contextlib.contextmanager
def _spy(**constants):
    """Count calls into both bypass paths, with module constants patched."""
    calls = {"compacted": 0, "stationary_sparse": 0}
    stack = contextlib.ExitStack()
    for name, attr in (
        ("compacted", "_run_compacted"),
        ("stationary_sparse", "_run_stationary_sparse"),
    ):
        original = getattr(FloatTableKernel, attr)

        def spy(self, *args, _original=original, _name=name):
            calls[_name] += 1
            return _original(self, *args)

        stack.enter_context(patch.object(FloatTableKernel, attr, spy))
    if constants:
        stack.enter_context(patch.multiple(kernels, **constants))
    with stack:
        yield calls


def _sparse(rng, shape, fmt, zeros):
    """Values ``±[1, 2) * 2^e`` over the format's exponent range, ``zeros`` of them ±0."""
    lo, hi = EXPONENTS[fmt.name]
    values = (rng.random(shape) + 1.0) * 2.0 ** rng.integers(lo, hi + 1, shape)
    values *= np.where(rng.random(shape) < 0.5, -1.0, 1.0)
    values = values.astype(np.float32)
    values[rng.random(shape) < zeros] = 0.0
    values[(values == 0) & (rng.random(shape) < 0.5)] = -0.0
    return values


def _activations(rng, m, k, fmt, zeros, zero_row, one_nonzero):
    a = _sparse(rng, (m, k), fmt, zeros)
    if zero_row:
        a[0] = np.where(rng.random(k) < 0.5, -0.0, 0.0)
    if one_nonzero:
        keep = rng.integers(k)
        a[-1] = np.where(np.arange(k) == keep, a[-1], -0.0)
        a[-1, keep] = 1.5
    return a


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    config=st.sampled_from(all_configs()),
    fmt=st.sampled_from(FORMATS),
    zeros=st.floats(min_value=0.5, max_value=0.95),
    m=st.integers(min_value=1, max_value=8),
    k=st.integers(min_value=1, max_value=48),
    n=st.integers(min_value=1, max_value=4),
    zero_row=st.booleans(),
    one_nonzero=st.booleans(),
    budget=st.integers(min_value=1, max_value=64),
    block=st.integers(min_value=1, max_value=64),
)
# n = 1: _accumulate's accumulate branch, over 3-wide K tiles.
@example(
    seed=1, config=PC3_TR, fmt=BFLOAT16, zeros=0.8, m=6, k=40, n=1,
    zero_row=True, one_nonzero=True, budget=3, block=64,
)
# One row per block, K in 5-wide tiles.
@example(
    seed=2, config=PC3, fmt=BFLOAT16, zeros=0.6, m=8, k=48, n=3,
    zero_row=False, one_nonzero=True, budget=16, block=1,
)
def test_property_run_matches_scalar_reference(
    seed, config, fmt, zeros, m, k, n, zero_row, one_nonzero, budget, block
):
    """The compacted ``run`` == the dense loops == the scalar reference.

    ``budget`` (the row budget) splits each block's K extent into tiles;
    ``block`` sets how many rows share a block.  The bypass runs exactly
    when the rule says so.
    """
    rng = np.random.default_rng(seed)
    a = _activations(rng, m, k, fmt, zeros, zero_row, one_nonzero)
    b = _sparse(rng, (k, n), fmt, 0.2)
    pa, pb = pack(a, fmt), pack(b, fmt)
    assert KERNEL._range_masks(pa, pb)[0]  # inside f32_exact
    with _spy(BYPASS_ROW_WORK=1, BYPASS_BLOCK=block, ROW_BUDGET=budget) as calls:
        got = KERNEL.run(pa, pb, config)
    assert calls["compacted"] == (kernels._zero_share(pa) >= kernels.BYPASS_ZEROS)
    with patch.multiple(kernels, **DENSE):
        _assert_bytes_equal(got, KERNEL.run(pa, pb, config))
    _assert_bytes_equal(got, _scalar_reference(a, b, fmt, config))


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    config=st.sampled_from(all_configs()),
    fmt=st.sampled_from(FORMATS),
    zeros=st.floats(min_value=0.5, max_value=0.95),
    m=st.integers(min_value=1, max_value=12),
    k=st.integers(min_value=1, max_value=30),
    n=st.sampled_from([16, 17]),  # float16 tables fit up to k * n = 511
    zero_row=st.booleans(),
    one_nonzero=st.booleans(),
)
@example(
    seed=3, config=PC3_TR, fmt=BFLOAT16, zeros=0.9, m=12, k=30, n=16,
    zero_row=True, one_nonzero=True,
)
def test_property_weight_stationary_matches_scalar_reference(
    seed, config, fmt, zeros, m, k, n, zero_row, one_nonzero
):
    """The per-K-step bypass == the dense stationary loop == the scalar reference.

    The scalar reference checks a few columns (it is independent per
    column), the dense loop all of them.
    """
    rng = np.random.default_rng(seed)
    a = _activations(rng, m, k, fmt, zeros, zero_row, one_nonzero)
    b = _sparse(rng, (k, n), fmt, 0.2)
    pa, pb = pack(a, fmt), pack(b, fmt)
    prepared = KERNEL.prepare(pb, config)
    assert prepared.layout == "weight_stationary"
    with _spy(BYPASS_STEP_WORK=1) as calls:
        got = KERNEL.run_prepared(pa, prepared)
    bypass = kernels._zero_share(pa) >= kernels.BYPASS_STATIONARY_ZEROS
    assert calls == {"compacted": 0, "stationary_sparse": int(bypass)}
    with patch.multiple(kernels, **DENSE):
        _assert_bytes_equal(got, KERNEL.run_prepared(pa, prepared))
    cols = sorted({0, n // 2, n - 1})
    _assert_bytes_equal(got[:, cols], _scalar_reference(a, b[:, cols], fmt, config))


def _specials(a, b):
    """Operands with ±inf and NaN in the activations and the weights."""
    a, b = a.copy(), b.copy()
    a[0, 1], a[-1, 0] = np.inf, np.nan
    b[1, 0] = -np.inf
    return a, b


@pytest.mark.parametrize("case", ["extreme", "specials"])
@pytest.mark.parametrize("n", [3, 16], ids=["run", "weight_stationary"])
def test_outside_f32_exact_takes_the_dense_loops(case, n):
    rng = np.random.default_rng(4)
    if case == "extreme":
        a = _extreme_operands(rng, (6, 20), zero_frac=0.6)
        b = _extreme_operands(rng, (20, n))
    else:
        a = _sparse(rng, (6, 20), BFLOAT16, 0.9)
        a, b = _specials(a, _sparse(rng, (20, n), BFLOAT16, 0.2))
    with np.errstate(over="ignore"):
        pa, pb = pack(a, BFLOAT16), pack(b, BFLOAT16)
        pa.scale(), pb.scale()  # inf operands overflow their scale planes
    assert kernels._zero_share(pa) >= kernels.BYPASS_STATIONARY_ZEROS
    assert not KERNEL._range_masks(pa, pb)[0]
    with _spy(BYPASS_ROW_WORK=1, BYPASS_STEP_WORK=1) as calls:
        if n < kernels.WS_MIN_N:
            got = KERNEL.run(pa, pb, PC3_TR)
        else:
            got = KERNEL.run_prepared(pa, KERNEL.prepare(pb, PC3_TR))
    assert calls == {"compacted": 0, "stationary_sparse": 0}
    if case == "extreme":
        want = _scalar_reference(a, b, BFLOAT16, PC3_TR)
    else:  # the scalar reference does not model inf/NaN operands
        with patch.multiple(kernels, **DENSE):
            want = KERNEL.run(pa, pb, PC3_TR)
    _assert_bytes_equal(got, want)


def test_rule_thresholds_and_work_floors():
    """Dense below the zero share or the work floor, and in the transposed orientation."""
    rng = np.random.default_rng(5)

    def calls_for(m, k, n, zeros, prepared=False):
        pa = pack(_sparse(rng, (m, k), BFLOAT16, zeros), BFLOAT16)
        pb = pack(_sparse(rng, (k, n), BFLOAT16, 0.0), BFLOAT16)
        with _spy() as calls:
            if prepared:
                KERNEL.run_prepared(pa, KERNEL.prepare(pb, PC3_TR))
            else:
                KERNEL.run(pa, pb, PC3_TR)
        return calls

    assert calls_for(16, 2048, 72, 0.9)["compacted"] == 1
    assert calls_for(16, 2048, 72, 0.3)["compacted"] == 0
    assert calls_for(32, 32, 4, 0.9)["compacted"] == 0  # k * n under the floor
    assert calls_for(400, 64, 9, 0.9)["compacted"] == 0  # transposed orientation
    assert calls_for(2048, 16, 72, 0.9, True)["stationary_sparse"] == 1
    assert calls_for(2048, 16, 72, 0.6, True)["stationary_sparse"] == 0
    assert calls_for(64, 16, 72, 0.9, True)["stationary_sparse"] == 0  # m * n under the floor


def test_empty_and_all_zero_activations():
    rng = np.random.default_rng(6)
    b = _sparse(rng, (64, 72), BFLOAT16, 0.2)
    pb = pack(b, BFLOAT16)
    for m in (0, 3):
        a = np.where(rng.random((m, 64)) < 0.5, -0.0, 0.0).astype(np.float32)
        with _spy() as calls:
            got = KERNEL.run(pack(a, BFLOAT16), pb, PC3_TR)
        assert calls["compacted"] == 1
        assert got.shape == (m, 72)
        _assert_bytes_equal(got, np.zeros((m, 72), np.float32))  # +0, never -0


@pytest.mark.parametrize("block", [1, kernels.BYPASS_BLOCK])
def test_all_zero_rows_among_nonzero_rows(block):
    """All-zero rows sort first into blocks of extent 0, which add nothing.

    With one row per block each zero row is its own extent-0 block; the
    zero rows stay ``+0`` and the others equal the dense loops.
    """
    rng = np.random.default_rng(7)
    a = _sparse(rng, (6, 64), BFLOAT16, 0.9)
    a[[1, 4]] = np.where(rng.random((2, 64)) < 0.5, -0.0, 0.0)
    pa, pb = pack(a, BFLOAT16), pack(_sparse(rng, (64, 72), BFLOAT16, 0.2), BFLOAT16)
    with _spy(BYPASS_BLOCK=block) as calls:
        got = KERNEL.run(pa, pb, PC3_TR)
    assert calls["compacted"] == 1
    _assert_bytes_equal(got[[1, 4]], np.zeros((2, 72), np.float32))
    with patch.multiple(kernels, **DENSE):
        _assert_bytes_equal(got, KERNEL.run(pa, pb, PC3_TR))
