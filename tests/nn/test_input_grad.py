"""``backward`` returns the input gradient only when asked.

Like autograd, where a tensor the caller creates does not require a
gradient, ``model.backward(g)`` accumulates every parameter gradient
and returns ``None``: the first layer skips the GEMM that only the
image's gradient needs.  Asking with ``input_grad=True`` must change
nothing else, bit for bit.  The LeNet training job's per-step packing
counters are pinned, so a path that packs a tensor twice, or packs an
operand nothing reads, fails here without any timing.
"""

import numpy as np
import pytest

from repro.core.config import PC3_TR
from repro.formats.packed import packing_counters
from repro.nn import functional as F
from repro.nn.backend import daism_backend, use_backend
from repro.nn.data import iterate_batches, shapes_dataset
from repro.nn.models import build_lenet, build_mini_resnet, build_transformer_encoder
from repro.nn.optim import SGD

DAISM = daism_backend(PC3_TR)

MODELS = {
    "lenet": (build_lenet, (4, 1, 16, 16)),
    "mini_resnet": (build_mini_resnet, (2, 1, 16, 16)),
    "transformer_encoder": (build_transformer_encoder, (1, 8, 256)),
}


def _grads(name: str, input_grad: bool):
    """One DAISM forward and backward; ``(returned, parameter grads as bits)``."""
    build, shape = MODELS[name]
    model = build()
    x = np.random.default_rng(0).standard_normal(shape).astype(np.float32)
    with use_backend(DAISM):
        out = model(x)
        grad = np.random.default_rng(1).standard_normal(out.shape).astype(np.float32)
        returned = model.backward(grad, input_grad=input_grad)
    return returned, [p.grad.view(np.uint32).copy() for p in model.parameters()], x.shape


@pytest.mark.parametrize("name", sorted(MODELS))
def test_parameter_grads_do_not_depend_on_input_grad(name):
    returned, grads, _shape = _grads(name, input_grad=False)
    assert returned is None
    asked, want, shape = _grads(name, input_grad=True)
    assert asked.shape == shape
    assert len(grads) == len(want)
    for got, expected in zip(grads, want):
        np.testing.assert_array_equal(got, expected)


def test_default_backward_skips_the_image_gradient():
    """``model.backward(g)`` defaults to no input gradient."""
    model = build_lenet()
    x = np.zeros((2, 1, 16, 16), dtype=np.float32)
    with use_backend(DAISM):
        out = model(x)
        assert model.backward(np.ones_like(out)) is None


#: Per step of the benchmark's LeNet job at batch 32: every GEMM operand
#: packed once (the conv dW patches are gathered from the image the
#: forward packed), and conv1's input-gradient GEMM not run at all.
LENET_STEP_PACKS = {"pack_calls": 20, "elements_packed": 195_400}


def test_lenet_training_step_packing_counters_are_pinned():
    data = shapes_dataset(n_train=96, n_test=1, seed=1)
    model = build_lenet()
    opt = SGD(model.parameters(), lr=0.05, momentum=0.9, weight_decay=1e-4)
    rng = np.random.default_rng(1)
    steps = []
    with use_backend(DAISM):
        for bx, by in iterate_batches(data.train_x, data.train_y, 32, rng):
            before = packing_counters()
            logits = model(bx)
            model.backward(F.cross_entropy_grad(logits, by))
            opt.step()
            opt.zero_grad()
            after = packing_counters()
            steps.append({k: after[k] - before[k] for k in LENET_STEP_PACKS})
    assert len(steps) == 3
    assert all(step == LENET_STEP_PACKS for step in steps), steps
