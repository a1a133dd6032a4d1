"""Tests for the layer modules (forward semantics + gradient checks)."""

import numpy as np
import pytest

from repro.nn.layers import (
    BatchNorm2d,
    Conv2d,
    Flatten,
    GlobalAvgPool,
    Linear,
    MaxPool2d,
    ReLU,
    Residual,
    Sequential,
)


def numerical_check(module, x, param, grad, loss_grad, eps=1e-2, samples=4, rel=0.06):
    """Compare an analytic parameter gradient against finite differences."""
    flat = param.ravel()
    idxs = np.linspace(0, flat.size - 1, samples, dtype=int)
    for i in idxs:
        orig = flat[i]
        flat[i] = orig + eps
        up = float((module(x) * loss_grad).sum())
        flat[i] = orig - eps
        down = float((module(x) * loss_grad).sum())
        flat[i] = orig
        num = (up - down) / (2 * eps)
        assert num == pytest.approx(float(grad.ravel()[i]), rel=rel, abs=0.05)


class TestLinear:
    def test_forward_matches_numpy(self):
        rng = np.random.default_rng(0)
        layer = Linear(6, 4, rng=rng)
        x = rng.standard_normal((3, 6)).astype(np.float32)
        out = layer(x)
        np.testing.assert_allclose(out, x @ layer.weight.data.T + layer.bias.data, rtol=1e-5)

    def test_gradients(self):
        rng = np.random.default_rng(1)
        layer = Linear(5, 3, rng=rng)
        x = rng.standard_normal((4, 5)).astype(np.float32)
        g = rng.standard_normal((4, 3)).astype(np.float32)
        layer(x)
        dx = layer.backward(g, input_grad=True)
        np.testing.assert_allclose(dx, g @ layer.weight.data, rtol=1e-5)
        np.testing.assert_allclose(layer.weight.grad, g.T @ x, rtol=1e-5)
        np.testing.assert_allclose(layer.bias.grad, g.sum(axis=0), rtol=1e-5)

    def test_backward_before_forward_rejected(self):
        with pytest.raises(RuntimeError):
            Linear(2, 2).backward(np.zeros((1, 2), dtype=np.float32))


class TestConv2d:
    def test_gradient_check(self):
        rng = np.random.default_rng(2)
        layer = Conv2d(2, 3, 3, rng=rng)
        x = rng.standard_normal((2, 2, 5, 5)).astype(np.float32)
        g = rng.standard_normal((2, 3, 5, 5)).astype(np.float32)
        layer(x)
        layer.backward(g)
        numerical_check(layer, x, layer.weight.data, layer.weight.grad, g)

    def test_grad_accumulates(self):
        rng = np.random.default_rng(3)
        layer = Conv2d(1, 1, 3, rng=rng)
        x = rng.standard_normal((1, 1, 4, 4)).astype(np.float32)
        g = np.ones((1, 1, 4, 4), dtype=np.float32)
        layer(x)
        layer.backward(g)
        first = layer.weight.grad.copy()
        layer(x)
        layer.backward(g)
        np.testing.assert_allclose(layer.weight.grad, 2 * first, rtol=1e-5)

    def test_zero_grad(self):
        layer = Conv2d(1, 1, 3)
        x = np.ones((1, 1, 4, 4), dtype=np.float32)
        layer(x)
        layer.backward(np.ones((1, 1, 4, 4), dtype=np.float32))
        layer.zero_grad()
        assert np.all(layer.weight.grad == 0)


class TestActivationsAndShapes:
    def test_relu(self):
        layer = ReLU()
        x = np.array([[-1.0, 2.0]], dtype=np.float32)
        np.testing.assert_array_equal(layer(x), [[0.0, 2.0]])
        np.testing.assert_array_equal(layer.backward(np.ones_like(x), input_grad=True), [[0.0, 1.0]])

    def test_flatten_roundtrip(self):
        layer = Flatten()
        x = np.zeros((2, 3, 4, 4), dtype=np.float32)
        out = layer(x)
        assert out.shape == (2, 48)
        assert layer.backward(out, input_grad=True).shape == x.shape

    def test_maxpool_module(self):
        layer = MaxPool2d(2)
        x = np.random.default_rng(4).standard_normal((1, 2, 4, 4)).astype(np.float32)
        out = layer(x)
        assert out.shape == (1, 2, 2, 2)
        assert layer.backward(np.ones_like(out), input_grad=True).shape == x.shape

    def test_global_avg_pool_module(self):
        layer = GlobalAvgPool()
        x = np.ones((2, 3, 4, 4), dtype=np.float32)
        out = layer(x)
        np.testing.assert_allclose(out, np.ones((2, 3)))


class TestBatchNorm:
    def test_normalises_in_training(self):
        rng = np.random.default_rng(5)
        layer = BatchNorm2d(3)
        x = (rng.standard_normal((8, 3, 4, 4)) * 5 + 2).astype(np.float32)
        out = layer(x)
        assert abs(out.mean()) < 1e-5
        assert out.std() == pytest.approx(1.0, abs=0.01)

    def test_eval_uses_running_stats(self):
        rng = np.random.default_rng(6)
        layer = BatchNorm2d(2, momentum=0.5)
        x = (rng.standard_normal((16, 2, 4, 4)) * 3 + 1).astype(np.float32)
        for _ in range(20):
            layer(x)
        layer.eval()
        out = layer(x)
        assert abs(out.mean()) < 0.2

    def test_gradient_check(self):
        rng = np.random.default_rng(7)
        layer = BatchNorm2d(2)
        x = rng.standard_normal((4, 2, 3, 3)).astype(np.float32)
        g = rng.standard_normal((4, 2, 3, 3)).astype(np.float32)
        layer(x)
        layer.backward(g)
        numerical_check(layer, x, layer.gamma.data, layer.gamma.grad, g)

    def test_batchnorm_input_gradient_numerical(self):
        rng = np.random.default_rng(8)
        layer = BatchNorm2d(1)
        x = rng.standard_normal((3, 1, 2, 2)).astype(np.float64)
        g = rng.standard_normal((3, 1, 2, 2)).astype(np.float32)
        layer(x.astype(np.float32))
        dx = layer.backward(g, input_grad=True)
        eps = 1e-3
        flat = x.ravel()
        for i in (0, 5, 11):
            orig = flat[i]
            flat[i] = orig + eps
            up = float((layer(x.astype(np.float32)) * g).sum())
            flat[i] = orig - eps
            down = float((layer(x.astype(np.float32)) * g).sum())
            flat[i] = orig
            num = (up - down) / (2 * eps)
            assert num == pytest.approx(float(dx.ravel()[i]), rel=0.08, abs=0.02)


class TestContainers:
    def test_sequential_forward_backward(self):
        rng = np.random.default_rng(9)
        net = Sequential(Linear(4, 8, rng=rng), ReLU(), Linear(8, 2, rng=rng))
        x = rng.standard_normal((5, 4)).astype(np.float32)
        out = net(x)
        assert out.shape == (5, 2)
        dx = net.backward(np.ones_like(out), input_grad=True)
        assert dx.shape == x.shape
        assert len(net.parameters()) == 4

    def test_residual_identity_shortcut(self):
        rng = np.random.default_rng(10)
        block = Residual(Sequential(Linear(4, 4, rng=rng)))
        x = rng.standard_normal((2, 4)).astype(np.float32)
        out = block(x)
        inner = block.body(x)
        np.testing.assert_allclose(out, inner + x, rtol=1e-5)
        dx = block.backward(np.ones_like(out), input_grad=True)
        assert dx.shape == x.shape

    def test_residual_shape_mismatch_rejected(self):
        block = Residual(Sequential(Linear(4, 3)))
        with pytest.raises(ValueError, match="residual shape mismatch"):
            block(np.zeros((2, 4), dtype=np.float32))

    def test_train_eval_propagates(self):
        net = Sequential(BatchNorm2d(2), Sequential(BatchNorm2d(2)))
        net.eval()
        assert not net.modules[0].training
        assert not net.modules[1].modules[0].training
