"""Tests for the prepared-weight caches in Linear/Conv2d.

The layers pack static weights once per (representation, version); an
optimiser step or a weight load bumps the parameter version and must
invalidate the cache, while repeated inference must perform zero weight
re-quantise/decompose work.  The global packing counters from
:mod:`repro.formats.packed` make both directions observable.
"""

import numpy as np
import pytest

from repro.core.config import FLA, PC3_TR
from repro.formats.floatfmt import BFLOAT16
from repro.formats.packed import packing_counters, reset_packing_counters
from repro.nn.backend import daism_backend, quantized_backend
from repro.nn.layers import Conv2d, Linear
from repro.nn.optim import SGD, Adam
from repro.nn.serialize import load_state_dict, state_dict


@pytest.fixture(autouse=True)
def _fresh_counters():
    reset_packing_counters()
    yield
    reset_packing_counters()


def _packs() -> int:
    return packing_counters()["pack_calls"]


class TestLinearWeightCache:
    def test_second_forward_packs_only_activations(self):
        rng = np.random.default_rng(0)
        layer = Linear(16, 8, backend=daism_backend(PC3_TR), rng=rng)
        x = rng.standard_normal((4, 16)).astype(np.float32)
        layer(x)
        first = _packs()  # weight + activation
        layer(x)
        assert _packs() - first == 1  # activation only
        layer(x)
        assert _packs() - first == 2

    def test_cached_forward_is_byte_identical(self):
        rng = np.random.default_rng(1)
        backend = daism_backend(PC3_TR)
        layer = Linear(16, 8, backend=backend, rng=rng)
        x = rng.standard_normal((4, 16)).astype(np.float32)
        first = layer(x)
        second = layer(x)  # served from the weight cache
        np.testing.assert_array_equal(
            first.view(np.uint32), second.view(np.uint32)
        )
        direct = backend.matmul(x, layer.weight.data.T) + layer.bias.data[None, :]
        np.testing.assert_array_equal(
            second.view(np.uint32), direct.astype(np.float32).view(np.uint32)
        )

    def test_optimizer_step_invalidates(self):
        rng = np.random.default_rng(2)
        layer = Linear(8, 4, backend=daism_backend(PC3_TR), rng=rng)
        x = rng.standard_normal((2, 8)).astype(np.float32)
        out = layer(x)
        layer.backward(np.ones_like(out))
        opt = SGD(layer.parameters(), lr=0.1)
        opt.step()
        before = _packs()
        refreshed = layer(x)
        assert _packs() - before == 2  # weight re-packed + activation
        stale = daism_backend(PC3_TR).matmul(x, layer.weight.data.T)
        np.testing.assert_allclose(refreshed - layer.bias.data[None, :], stale)

    def test_adam_step_invalidates(self):
        rng = np.random.default_rng(3)
        layer = Linear(8, 4, backend=daism_backend(PC3_TR), rng=rng)
        x = rng.standard_normal((2, 8)).astype(np.float32)
        out = layer(x)
        layer.backward(np.ones_like(out))
        Adam(layer.parameters(), lr=0.01).step()
        before = _packs()
        layer(x)
        assert _packs() - before == 2

    def test_weight_load_invalidates(self):
        rng = np.random.default_rng(4)
        source = Linear(8, 4, backend=daism_backend(PC3_TR), rng=np.random.default_rng(9))
        layer = Linear(8, 4, backend=daism_backend(PC3_TR), rng=rng)
        x = rng.standard_normal((2, 8)).astype(np.float32)
        layer(x)  # populate cache
        load_state_dict(layer, state_dict(source))
        before = _packs()
        out = layer(x)
        assert _packs() - before == 2  # re-packed after load
        want = daism_backend(PC3_TR).matmul(x, source.weight.data.T) + source.bias.data
        np.testing.assert_allclose(out, want.astype(np.float32))

    def test_cache_shared_across_same_format_backends(self):
        rng = np.random.default_rng(5)
        layer = Linear(8, 4, rng=rng)  # backend chosen per call via default
        x = rng.standard_normal((2, 8)).astype(np.float32)
        layer.backend = daism_backend(PC3_TR)
        layer(x)
        baseline = _packs()
        layer.backend = daism_backend(FLA)  # same packed_bfloat16 representation
        layer(x)
        assert _packs() - baseline == 1  # activation only, weight cache hit
        layer.backend = quantized_backend(BFLOAT16)
        layer(x)
        # quantized backend reads the cached packed tensor's dense form
        assert _packs() - baseline == 1


class TestConvWeightCache:
    def test_second_forward_packs_only_activations(self):
        rng = np.random.default_rng(6)
        layer = Conv2d(3, 8, kernel=3, backend=daism_backend(PC3_TR), rng=rng)
        x = rng.standard_normal((2, 3, 8, 8)).astype(np.float32)
        layer(x)
        first = _packs()
        out = layer(x)
        assert _packs() - first == 1  # im2col activations only
        assert out.shape == (2, 8, 8, 8)

    def test_optimizer_step_invalidates(self):
        rng = np.random.default_rng(7)
        layer = Conv2d(2, 4, kernel=3, backend=daism_backend(PC3_TR), rng=rng)
        x = rng.standard_normal((1, 2, 6, 6)).astype(np.float32)
        out = layer(x)
        layer.backward(np.ones_like(out))
        SGD(layer.parameters(), lr=0.1).step()
        before = _packs()
        layer(x)
        assert _packs() - before == 2  # weight re-packed + activations

    def test_backward_uses_cached_weight_rows(self):
        rng = np.random.default_rng(8)
        layer = Conv2d(2, 4, kernel=3, backend=daism_backend(PC3_TR), rng=rng)
        x = rng.standard_normal((1, 2, 6, 6)).astype(np.float32)
        out = layer(x)
        layer.backward(np.ones_like(out), input_grad=True)  # packs the (F, C*K*K) orientation
        layer(x)
        before = _packs()
        layer.backward(np.ones_like(out), input_grad=True)
        # dweight GEMM packs grad (its cols are gathered from the image the
        # forward packed), dcols GEMM packs grad again; the dcols weight
        # operand comes from the cache, so exactly 2 packs.
        assert _packs() - before == 2

    def test_grouped_backward_uses_cached_weight_rows(self):
        rng = np.random.default_rng(10)
        layer = Conv2d(4, 6, kernel=3, groups=2, backend=daism_backend(PC3_TR), rng=rng)
        x = rng.standard_normal((1, 4, 6, 6)).astype(np.float32)
        out = layer(x)
        layer.backward(np.ones_like(out), input_grad=True)  # packs each group's rows
        layer(x)
        before = _packs()
        layer.backward(np.ones_like(out), input_grad=True)
        # Per group: the dweight GEMM packs grad (cols are gathered from
        # the packed image), the dcols GEMM packs grad again; the weight
        # rows come from the cache.
        assert _packs() - before == 2 * 2
