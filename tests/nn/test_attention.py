"""Property tests for softmax, LayerNorm and multi-head attention.

The approximate-attention invariants the scenario workloads rest on:

* softmax is shift-invariant and numerically stable — rows sum to one
  for *any* finite input, including bf16-range magnitudes (~3e38) and
  batched 3-D/4-D ``(B, H, T, T)`` score tensors (the regression that
  motivated the max-subtraction: naive ``exp`` overflows to ``inf/inf``);
* this still holds when the scores come out of the DAISM approximate
  GEMM — the probabilities the AV product consumes are always a valid
  distribution, whatever the multiplier error;
* LayerNorm output has zero mean / unit variance per row before the
  affine, and the affine is exactly ``gamma * x_hat + beta``;
* the attention backward is the true gradient (checked against central
  finite differences) and head split/merge round-trips.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.nn.functional as F
from repro.core.config import PC3_TR
from repro.formats.floatfmt import BFLOAT16
from repro.nn.backend import daism_backend, exact_backend
from repro.nn.layers import LayerNorm, MultiHeadAttention, Softmax

EXACT = exact_backend()
DAISM = daism_backend(PC3_TR, BFLOAT16)

# Finite float32 values across the full bf16 exponent range.
finite_f32 = st.floats(
    min_value=np.float32(-3e38), max_value=np.float32(3e38), allow_nan=False, width=32
)


class TestSoftmax:
    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(st.lists(finite_f32, min_size=1, max_size=8), min_size=1, max_size=4)
    )
    def test_rows_sum_to_one_any_finite_input(self, rows):
        width = max(len(r) for r in rows)
        logits = np.zeros((len(rows), width), dtype=np.float32)
        for i, r in enumerate(rows):
            logits[i, : len(r)] = r
        probs = F.softmax(logits)
        assert np.isfinite(probs).all()
        assert (probs >= 0).all()
        np.testing.assert_allclose(probs.sum(axis=-1), 1.0, rtol=1e-5)

    def test_bf16_scale_overflow_regression_batched_3d(self):
        """(B, H, T, T) scores at the bf16 magnitude ceiling: the naive
        ``exp(logits)`` is ``inf`` everywhere, so without row-max
        subtraction softmax returns NaN.  Pinned on the batched layout
        attention actually uses."""
        rng = np.random.default_rng(0)
        scores = rng.uniform(-3e38, 3e38, size=(2, 3, 4, 4)).astype(np.float32)
        probs = F.softmax(scores)
        assert probs.shape == scores.shape
        assert np.isfinite(probs).all()
        np.testing.assert_allclose(probs.sum(axis=-1), 1.0, rtol=1e-5)
        # The unstable formulation really does fail on this input.
        with np.errstate(over="ignore", invalid="ignore"):
            naive = np.exp(scores)
            naive = naive / naive.sum(axis=-1, keepdims=True)
        assert not np.isfinite(naive).all()

    def test_logits_spread_past_float32_range_without_warning(self):
        """Finite logits ~6.8e38 apart overflow the row-max shift to
        ``-inf``; ``exp`` maps that to an exact 0, so the row still sums
        to 1 and no overflow warning escapes."""
        logits = np.array([[3.4e38, -3.4e38, 0.0], [-3.4e38, 1.0, 3.4e38]], np.float32)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            probs = F.softmax(logits)
        np.testing.assert_array_equal(probs, [[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 6), st.integers(1, 8), st.integers(0, 2**31 - 1))
    def test_shift_invariance(self, rows, cols, seed):
        rng = np.random.default_rng(seed)
        logits = rng.standard_normal((rows, cols)).astype(np.float32)
        shifted = logits + np.float32(100.0)
        np.testing.assert_allclose(
            F.softmax(logits), F.softmax(shifted), rtol=1e-4, atol=1e-7
        )

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 6), st.integers(2, 8), st.integers(0, 2**31 - 1))
    def test_backward_rows_sum_to_zero(self, rows, cols, seed):
        """The softmax Jacobian maps any upstream gradient to a vector
        that sums to zero per row (probabilities stay normalised)."""
        rng = np.random.default_rng(seed)
        probs = F.softmax(rng.standard_normal((rows, cols)).astype(np.float32))
        grad = rng.standard_normal((rows, cols)).astype(np.float32)
        ds = F.softmax_backward(grad, probs)
        np.testing.assert_allclose(ds.sum(axis=-1), 0.0, atol=1e-5)

    def test_softmax_module_backward_matches_functional(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((3, 5)).astype(np.float32)
        grad = rng.standard_normal((3, 5)).astype(np.float32)
        layer = Softmax()
        probs = layer(x)
        np.testing.assert_array_equal(probs, F.softmax(x))
        np.testing.assert_array_equal(
            layer.backward(grad, input_grad=True), F.softmax_backward(grad, probs)
        )


class TestLayerNorm:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 5), st.integers(2, 16), st.integers(0, 2**31 - 1))
    def test_unit_affine_gives_zero_mean_unit_variance(self, n, d, seed):
        rng = np.random.default_rng(seed)
        x = (rng.standard_normal((n, d)) * 10 + 3).astype(np.float32)
        layer = LayerNorm(d)
        out = layer(x)  # fresh layer: gamma=1, beta=0
        np.testing.assert_allclose(out.mean(axis=-1), 0.0, atol=1e-4)
        # The contract is v/(v+eps), not exactly 1: a row of near-equal
        # values (possible at small d) has eps-dominated variance.
        v = x.astype(np.float64).var(axis=-1)
        np.testing.assert_allclose(out.var(axis=-1), v / (v + layer.eps), rtol=1e-2)

    def test_affine_is_gamma_xhat_plus_beta(self):
        rng = np.random.default_rng(2)
        d = 8
        x = rng.standard_normal((4, d)).astype(np.float32)
        layer = LayerNorm(d)
        x_hat = layer(x).copy()
        layer.gamma.data[:] = rng.standard_normal(d).astype(np.float32)
        layer.beta.data[:] = rng.standard_normal(d).astype(np.float32)
        np.testing.assert_allclose(
            layer(x), layer.gamma.data * x_hat + layer.beta.data, rtol=1e-5, atol=1e-6
        )

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        d = 6
        x = rng.standard_normal((2, d)).astype(np.float64)
        gamma = rng.standard_normal(d).astype(np.float64)
        beta = rng.standard_normal(d).astype(np.float64)
        grad = rng.standard_normal((2, d)).astype(np.float64)

        def loss(xv):
            out, _ = F.layernorm_forward(
                xv.astype(np.float32),
                gamma.astype(np.float32),
                beta.astype(np.float32),
                1e-5,
            )
            return float((out.astype(np.float64) * grad).sum())

        out, cache = F.layernorm_forward(
            x.astype(np.float32),
            gamma.astype(np.float32),
            beta.astype(np.float32),
            1e-5,
        )
        dx, _dgamma, _dbeta = F.layernorm_backward(
            grad.astype(np.float32), gamma.astype(np.float32), cache
        )
        eps = 1e-4
        for idx in np.ndindex(x.shape):
            bump = np.zeros_like(x)
            bump[idx] = eps
            numeric = (loss(x + bump) - loss(x - bump)) / (2 * eps)
            np.testing.assert_allclose(dx[idx], numeric, rtol=5e-2, atol=5e-3)


class TestAttentionCore:
    @settings(max_examples=10, deadline=None)
    @given(
        st.integers(1, 2),  # batch
        st.integers(1, 2),  # heads
        st.integers(1, 4),  # seq len
        st.integers(1, 4),  # head dim
        st.integers(0, 2**31 - 1),
    )
    def test_probs_are_distribution_under_daism(self, n, h, t, dh, seed):
        rng = np.random.default_rng(seed)
        q, k, v = (
            rng.standard_normal((n, h, t, dh)).astype(np.float32) for _ in range(3)
        )
        context, probs = F.attention_core(q, k, v, backend=DAISM)
        assert context.shape == (n, h, t, dh)
        assert np.isfinite(probs).all()
        np.testing.assert_allclose(probs.sum(axis=-1), 1.0, rtol=1e-5)

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        n, h, t, dh = 1, 2, 3, 2
        q, k, v = (
            rng.standard_normal((n, h, t, dh)).astype(np.float32) for _ in range(3)
        )
        grad = rng.standard_normal((n, h, t, dh)).astype(np.float32)
        context, probs = F.attention_core(q, k, v, backend=EXACT)
        dq, dk, dv = F.attention_core_backward(
            grad, q, k, v, probs, backend=EXACT
        )

        def loss(qv, kv, vv):
            out, _ = F.attention_core(qv, kv, vv, backend=EXACT)
            return float((out.astype(np.float64) * grad).sum())

        eps = 1e-3
        for tensor, analytic in ((q, dq), (k, dk), (v, dv)):
            for idx in np.ndindex(tensor.shape):
                bump = np.zeros_like(tensor)
                bump[idx] = eps
                args = [
                    (a + bump if a is tensor else a).astype(np.float32)
                    for a in (q, k, v)
                ]
                plus = loss(*args)
                args = [
                    (a - bump if a is tensor else a).astype(np.float32)
                    for a in (q, k, v)
                ]
                minus = loss(*args)
                numeric = (plus - minus) / (2 * eps)
                np.testing.assert_allclose(
                    analytic[idx], numeric, rtol=5e-2, atol=5e-3
                )

    @settings(max_examples=20, deadline=None)
    @given(st.integers(1, 3), st.integers(1, 4), st.sampled_from([1, 2, 4]))
    def test_split_merge_heads_roundtrip(self, n, t, heads):
        d = heads * 3
        rng = np.random.default_rng(0)
        x = rng.standard_normal((n, t, d)).astype(np.float32)
        split = F.split_heads(x, heads)
        assert split.shape == (n, heads, t, d // heads)
        np.testing.assert_array_equal(F.merge_heads(split), x)

    def test_split_heads_rejects_indivisible(self):
        with pytest.raises(ValueError, match="heads"):
            F.split_heads(np.zeros((1, 2, 5), dtype=np.float32), 2)


class TestMultiHeadAttention:
    def test_rejects_indivisible_d_model(self):
        with pytest.raises(ValueError, match="heads"):
            MultiHeadAttention(10, 4)

    def test_forward_backward_shapes_and_grads(self):
        rng = np.random.default_rng(5)
        mha = MultiHeadAttention(8, 2, rng=np.random.default_rng(0))
        x = rng.standard_normal((2, 3, 8)).astype(np.float32)
        out = mha(x)
        assert out.shape == x.shape
        dx = mha.backward(np.ones_like(out), input_grad=True)
        assert dx.shape == x.shape
        grads = [p.grad for p in mha.parameters()]
        assert len(grads) == 4  # qkv weight/bias + out weight/bias
        assert all(np.abs(g).sum() > 0 for g in grads)
