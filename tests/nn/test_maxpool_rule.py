"""One max-pool rule for eager training, eager inference and the plan.

Each output is the first tap of its window (row-major) that no other tap
exceeds, NaN exceeding every number: a window with a NaN yields its
first NaN's bits, and equal maxima (``-0`` and ``+0`` included) yield
the earliest.  The property draws windows over signed zeros, NaNs with
different payloads, infinities and finite values, and checks that the
three paths are byte-equal and follow the rule.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn.layers import MaxPool2d
from repro.runtime import compile_plan

#: float32 bit patterns: +0, -0, quiet NaNs of both signs and two
#: payloads, +inf, -inf, and 1.0 (so equal finite maxima are common).
SPECIAL_BITS = [
    0x00000000, 0x80000000, 0x7FC00000, 0xFFC00000, 0x7FC00001, 0x7F800000, 0xFF800000, 0x3F800000,
]

finite_bits = st.floats(width=32, allow_nan=False, allow_infinity=False).map(
    lambda v: int(np.array(v, dtype=np.float32).view(np.uint32))
)
element_bits = st.one_of(st.sampled_from(SPECIAL_BITS), finite_bits)


@st.composite
def pool_inputs(draw):
    size = draw(st.integers(2, 3))
    n, c, oh, ow = (draw(st.integers(1, 2)) for _ in range(4))
    shape = (n, c, oh * size, ow * size)
    bits = draw(st.lists(element_bits, min_size=int(np.prod(shape)), max_size=int(np.prod(shape))))
    return np.array(bits, dtype=np.uint32).view(np.float32).reshape(shape), size


def _exceeds(a: np.float32, b: np.float32) -> bool:
    return bool(np.isnan(a) and not np.isnan(b)) or bool(a > b)


def rule(x: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """The stated rule, window by window: the output and the chosen tap."""
    n, c, h, w = x.shape
    out = np.empty((n, c, h // size, w // size), dtype=np.float32)
    arg = np.empty(out.shape, dtype=np.intp)
    for idx in np.ndindex(*out.shape):
        i, j, oy, ox = idx
        taps = x[i, j, oy * size : (oy + 1) * size, ox * size : (ox + 1) * size].ravel()
        first = next(t for t, v in enumerate(taps) if not any(_exceeds(u, v) for u in taps))
        out[idx], arg[idx] = taps[first], first
    return out, arg


def _bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a).view(np.uint32)


def _three_paths(x: np.ndarray, size: int):
    layer = MaxPool2d(size)
    train = layer.train()(x)
    grad = layer.backward(np.ones_like(train), input_grad=True)
    evaluated = layer.eval()(x)
    planned = compile_plan(layer).execute(x)
    return train, evaluated, planned, grad


@settings(max_examples=200, deadline=None)
@given(pool_inputs())
def test_train_eval_and_plan_follow_one_rule(case):
    x, size = case
    want, arg = rule(x, size)
    train, evaluated, planned, grad = _three_paths(x, size)
    for got in (train, evaluated, planned):
        np.testing.assert_array_equal(_bits(got), _bits(want))
    # Training routes each window's gradient to the tap the rule chose.
    n, c, oh, ow = want.shape
    taps = grad.reshape(n, c, oh, size, ow, size).transpose(0, 1, 2, 4, 3, 5)
    chosen = taps.reshape(n, c, oh, ow, size * size).argmax(axis=-1)
    np.testing.assert_array_equal(chosen, arg)
    assert grad.sum() == want.size


def test_signed_zero_ties_keep_the_first_tap():
    x = np.array([0.0, 0.0, 0.0, -0.0, -0.0, 0.0, 0.0, 0.0], dtype=np.float32)
    x = x.reshape(2, 1, 2, 2)
    for got in _three_paths(x, 2)[:3]:
        np.testing.assert_array_equal(_bits(got).ravel(), [0x00000000, 0x80000000])
