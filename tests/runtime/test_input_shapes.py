"""Wrong-shape inputs raise ``ValueError``, eager and compiled, on every backend.

A conv checks its input channel count and a packed GEMM its inner
dimension, so a request with too few or too many channels (or
features) fails instead of returning logits — including on the
bit-exact tier, whose direct conv path and packed kernels would
otherwise compute on whatever columns they are given.
"""

import numpy as np
import pytest

from repro.core.config import PC3_TR
from repro.formats.floatfmt import BFLOAT16
from repro.nn.backend import daism_backend, exact_backend, quantized_backend, use_backend
from repro.nn.models import build_mlp, model_zoo
from repro.runtime import FleetServer, compile_plan
from repro.runtime.fleet import snapshot_model

BACKENDS = {
    "exact": exact_backend(),
    "quantized": quantized_backend(BFLOAT16),
    "daism": daism_backend(PC3_TR, BFLOAT16),
}

#: Per model: sample shapes one off the expected channel/feature count.
WRONG_SHAPES = {
    "lenet": [(2, 16, 16)],
    "vgg_small": [(2, 16, 16)],
    "mini_resnet": [(2, 16, 16)],
    "mobilenet_edge": [(1, 32, 32), (2, 32, 32)],
    "transformer_encoder": [(8, 255), (8, 257)],
    "mlp": [(29,), (35,)],
}


def _models():
    models = model_zoo()
    models["mlp"] = build_mlp()
    return {name: module.eval() for name, module in models.items()}


def _x(shape):
    return np.random.default_rng(0).standard_normal((2, *shape)).astype(np.float32)


@pytest.mark.parametrize("backend", sorted(BACKENDS))
def test_every_zoo_plan_rejects_wrong_shapes(backend):
    for name, module in _models().items():
        plan = compile_plan(module, BACKENDS[backend])
        for shape in WRONG_SHAPES[name]:
            with pytest.raises(ValueError):
                plan.execute(_x(shape))


@pytest.mark.parametrize("backend", sorted(BACKENDS))
def test_every_eager_zoo_model_rejects_wrong_shapes(backend):
    for name, module in _models().items():
        for shape in WRONG_SHAPES[name]:
            with use_backend(BACKENDS[backend]), pytest.raises(ValueError):
                module(_x(shape))


def test_conv_error_names_the_op():
    plan = compile_plan(_models()["mobilenet_edge"], BACKENDS["daism"])
    with pytest.raises(ValueError, match="conv1: input has 2 channels, expected 3"):
        plan.execute(_x((2, 32, 32)))


def test_fleet_request_with_wrong_channels_fails_its_future():
    module = _models()["mobilenet_edge"]
    with FleetServer(workers=1) as fleet:
        fleet.register(snapshot_model("mobilenet_edge", module=module, backend="daism"))
        future = fleet.submit("mobilenet_edge", _x((2, 32, 32)))
        with pytest.raises(RuntimeError, match="ValueError: conv1: input has 2 channels"):
            future.result(timeout=120)
        # The worker still serves well-formed requests afterwards.
        assert fleet.submit("mobilenet_edge", _x((3, 32, 32))).result(timeout=120).shape == (2, 4)
