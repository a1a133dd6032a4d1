"""Tests for the Adam optimiser and Dropout layer."""

import numpy as np
import pytest

from repro.nn.data import blobs_dataset
from repro.nn.layers import Dropout, Parameter
from repro.nn.models import build_mlp
from repro.nn.optim import Adam
from repro.nn.train import train


class TestAdam:
    def test_quadratic_convergence(self):
        p = Parameter(np.array([0.0]))
        opt = Adam([p], lr=0.1)
        for _ in range(300):
            opt.zero_grad()
            p.grad[:] = 2 * (p.data - 3.0)
            opt.step()
        np.testing.assert_allclose(p.data, [3.0], atol=1e-2)

    def test_scale_invariance(self):
        """Adam's normalised steps are (nearly) gradient-scale invariant."""
        trajectories = []
        for scale in (1.0, 1000.0):
            p = Parameter(np.array([10.0]))
            opt = Adam([p], lr=0.1)
            for _ in range(20):
                opt.zero_grad()
                p.grad[:] = scale * np.sign(p.data)
                opt.step()
            trajectories.append(p.data.copy())
        np.testing.assert_allclose(trajectories[0], trajectories[1], atol=1e-3)

    def test_weight_decay(self):
        p = Parameter(np.array([5.0]))
        opt = Adam([p], lr=0.01, weight_decay=0.1)
        p.grad[:] = [0.0]
        opt.step()
        assert p.data[0] < 5.0

    def test_validation(self):
        p = Parameter(np.array([1.0]))
        with pytest.raises(ValueError):
            Adam([p], lr=0.0)
        with pytest.raises(ValueError):
            Adam([p], betas=(1.0, 0.9))


class TestDropout:
    def test_eval_is_identity(self):
        layer = Dropout(0.5)
        layer.eval()
        x = np.random.default_rng(0).standard_normal((4, 8)).astype(np.float32)
        np.testing.assert_array_equal(layer(x), x)

    def test_training_zeroes_and_rescales(self):
        layer = Dropout(0.5, seed=1)
        layer.train()
        x = np.ones((100, 100), dtype=np.float32)
        out = layer(x)
        dropped = (out == 0).mean()
        assert 0.4 < dropped < 0.6
        kept = out[out != 0]
        np.testing.assert_allclose(kept, 2.0, rtol=1e-6)  # inverted scaling

    def test_expectation_preserved(self):
        layer = Dropout(0.3, seed=2)
        layer.train()
        x = np.ones((200, 200), dtype=np.float32)
        assert layer(x).mean() == pytest.approx(1.0, abs=0.02)

    def test_backward_uses_same_mask(self):
        layer = Dropout(0.5, seed=3)
        layer.train()
        x = np.ones((10, 10), dtype=np.float32)
        out = layer(x)
        grad = layer.backward(np.ones_like(x), input_grad=True)
        np.testing.assert_array_equal(grad == 0, out == 0)

    def test_p_zero_passthrough(self):
        layer = Dropout(0.0)
        layer.train()
        x = np.ones((3, 3), dtype=np.float32)
        np.testing.assert_array_equal(layer(x), x)
        np.testing.assert_array_equal(layer.backward(x, input_grad=True), x)

    def test_validation(self):
        with pytest.raises(ValueError):
            Dropout(1.0)


class TestAdamTraining:
    def test_adam_trains_mlp(self):
        data = blobs_dataset(n_train=256, n_test=128, spread=2.0, seed=1)
        model = build_mlp(in_features=32, num_classes=4, seed=2)
        opt = Adam(model.parameters(), lr=3e-3)

        from repro.nn import functional as F
        from repro.nn.data import iterate_batches

        rng = np.random.default_rng(0)
        for _ in range(8):
            for bx, by in iterate_batches(data.train_x, data.train_y, 32, rng):
                opt.zero_grad()
                logits = model(bx)
                model.backward(F.cross_entropy_grad(logits, by))
                opt.step()
        from repro.nn.train import evaluate

        assert evaluate(model, data.test_x, data.test_y) > 0.85
