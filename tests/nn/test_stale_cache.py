"""Layers keep backward caches only from a training-mode forward.

An eval-mode forward clears the cache, so a backward after it raises
instead of differentiating the eval forward (or reusing the earlier
training forward's cache).
"""

import inspect

import numpy as np
import pytest

from repro.nn import layers as L

rng = np.random.default_rng(0)

#: Every leaf layer, built small, with an input it accepts.
LEAVES = {
    L.Conv2d: (lambda: L.Conv2d(2, 3, 3), (2, 2, 6, 6)),
    L.Linear: (lambda: L.Linear(4, 3), (2, 4)),
    L.ReLU: (L.ReLU, (2, 3, 4, 4)),
    L.MaxPool2d: (lambda: L.MaxPool2d(2), (2, 3, 4, 4)),
    L.GlobalAvgPool: (L.GlobalAvgPool, (2, 3, 4, 4)),
    L.BatchNorm2d: (lambda: L.BatchNorm2d(3), (2, 3, 4, 4)),
    L.LayerNorm: (lambda: L.LayerNorm(4), (2, 5, 4)),
    L.Softmax: (L.Softmax, (2, 5)),
    L.MultiHeadAttention: (lambda: L.MultiHeadAttention(8, 2), (2, 5, 8)),
    L.Dropout: (lambda: L.Dropout(0.5), (2, 6)),
    L.Flatten: (L.Flatten, (2, 3, 4, 4)),
}


def test_every_leaf_layer_is_covered():
    leaves = {
        cls
        for _name, cls in inspect.getmembers(L, inspect.isclass)
        if issubclass(cls, L.Module) and cls not in (L.Module, L.Sequential, L.Residual)
    }
    assert leaves == set(LEAVES)


@pytest.mark.parametrize("cls", list(LEAVES), ids=lambda cls: cls.__name__)
def test_backward_after_eval_forward_raises(cls):
    build, shape = LEAVES[cls]
    layer = build()
    x = rng.standard_normal(shape).astype(np.float32)
    out = layer.train()(x)
    layer.backward(np.ones_like(out))  # a training forward can be differentiated
    layer(x)
    layer.eval()(x)
    with pytest.raises(RuntimeError, match="training-mode forward"):
        layer.backward(np.ones_like(out))
    out = layer.train()(x)
    assert layer.backward(np.ones_like(out), input_grad=True).shape == x.shape
