"""Tests for the model zoo: shapes, parameter counts, determinism."""

import numpy as np

from repro.nn.models import (
    build_lenet,
    build_mini_resnet,
    build_mlp,
    build_mobilenet_edge,
    build_transformer_encoder,
    build_vgg_small,
    model_input_shape,
    model_zoo,
)


class TestShapes:
    def test_mlp(self):
        model = build_mlp(in_features=32, num_classes=4)
        out = model(np.zeros((3, 32), dtype=np.float32))
        assert out.shape == (3, 4)

    def test_lenet(self):
        model = build_lenet(size=16)
        out = model(np.zeros((2, 1, 16, 16), dtype=np.float32))
        assert out.shape == (2, 4)

    def test_vgg_small(self):
        model = build_vgg_small(size=16)
        out = model(np.zeros((2, 1, 16, 16), dtype=np.float32))
        assert out.shape == (2, 4)

    def test_mini_resnet(self):
        model = build_mini_resnet()
        out = model(np.zeros((2, 1, 16, 16), dtype=np.float32))
        assert out.shape == (2, 4)

    def test_mobilenet_edge(self):
        model = build_mobilenet_edge()
        out = model(np.zeros((2, 3, 96, 96), dtype=np.float32))
        assert out.shape == (2, 4)

    def test_mobilenet_edge_fully_convolutional(self):
        # No fixed spatial size until the GAP head: smaller inputs work,
        # which is what the quick parity configs rely on.
        model = build_mobilenet_edge()
        out = model(np.zeros((2, 3, 48, 48), dtype=np.float32))
        assert out.shape == (2, 4)

    def test_transformer_encoder(self):
        model = build_transformer_encoder()
        out = model(np.zeros((2, 64, 256), dtype=np.float32))
        assert out.shape == (2, 64, 256)

    def test_transformer_encoder_any_seq_len(self):
        model = build_transformer_encoder()
        out = model(np.zeros((2, 8, 256), dtype=np.float32))
        assert out.shape == (2, 8, 256)

    def test_rgb_input_supported(self):
        model = build_lenet(in_channels=3)
        out = model(np.zeros((1, 3, 16, 16), dtype=np.float32))
        assert out.shape == (1, 4)


class TestBackwardPass:
    def test_full_backward_all_models(self):
        rng = np.random.default_rng(0)
        for name, model in model_zoo().items():
            x = rng.standard_normal((2, *model_input_shape(name))).astype(np.float32)
            out = model(x)
            dx = model.backward(np.ones_like(out), input_grad=True)
            assert dx.shape == x.shape, name
            grads = [p.grad for p in model.parameters()]
            assert any(np.abs(g).sum() > 0 for g in grads), name


class TestDeterminism:
    def test_same_seed_same_weights(self):
        m1 = build_lenet(seed=7)
        m2 = build_lenet(seed=7)
        for p1, p2 in zip(m1.parameters(), m2.parameters()):
            np.testing.assert_array_equal(p1.data, p2.data)

    def test_different_seeds_differ(self):
        m1 = build_lenet(seed=1)
        m2 = build_lenet(seed=2)
        assert any(
            not np.array_equal(p1.data, p2.data)
            for p1, p2 in zip(m1.parameters(), m2.parameters())
        )

    def test_scenario_models_deterministic(self):
        for build in (build_mobilenet_edge, build_transformer_encoder):
            m1, m2 = build(seed=3), build(seed=3)
            for p1, p2 in zip(m1.parameters(), m2.parameters()):
                np.testing.assert_array_equal(p1.data, p2.data)


class TestZoo:
    def test_zoo_contents(self):
        zoo = model_zoo()
        assert set(zoo) == {
            "lenet",
            "vgg_small",
            "mini_resnet",
            "mobilenet_edge",
            "transformer_encoder",
        }

    def test_parameter_counts_reasonable(self):
        bounds = {
            "lenet": (1_000, 200_000),
            "vgg_small": (1_000, 200_000),
            "mini_resnet": (1_000, 200_000),
            "mobilenet_edge": (10_000, 200_000),
            "transformer_encoder": (500_000, 2_000_000),
        }
        for name, model in model_zoo().items():
            count = sum(p.data.size for p in model.parameters())
            lo, hi = bounds[name]
            assert lo < count < hi, (name, count)

    def test_input_shape_registry_covers_zoo(self):
        for name in model_zoo():
            assert len(model_input_shape(name)) in (2, 3)

    def test_input_shape_unknown_model_raises(self):
        try:
            model_input_shape("nope")
        except KeyError as exc:
            assert "nope" in str(exc)
        else:
            raise AssertionError("expected KeyError")
