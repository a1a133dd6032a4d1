"""Eager training on the kernel layouts: same bits as the plain gather kernel.

The layers arrange each weight version once for the ``float_table``
kernel — a direct tap loop for convs whose table fits, the
weight-stationary or activation-expanded layouts for the backward dX
GEMMs — picked from the weight's shape as compiled plans pick it.  A
layout regroups the same exact products and sums them in the same
order, so one SGD step must match, byte for byte, a backend that hands
every GEMM to the plain gather kernel: outputs, input gradients,
parameter gradients and the updated weights.  Calls outside the
``f32_exact`` regime (huge weights, ``inf``/``NaN`` inputs) fall back
to the plain kernel and must still match.

The plain gather kernel is no independent reference for the dW GEMMs:
both backends run them through the same ``run``, which skips products
by zero (the zero bypass).  So the loss trajectory of the benchmark's
LeNet job is pinned by a digest computed before the bypass existed,
with both bypass paths seen to run.

The layout tables are rebuilt for every weight version, so the table
cache, its reference counts and the integrity registry must stay flat
over a long run.
"""

import gc
import hashlib

import numpy as np
import pytest

from repro.core import integrity, kernels
from repro.core.config import PC3_TR
from repro.core.gemm import ApproxMatmul
from repro.formats.floatfmt import BFLOAT16
from repro.nn import functional as F
from repro.nn.backend import daism_backend, use_backend
from repro.nn.data import iterate_batches, shapes_dataset
from repro.nn.layers import Conv2d, Flatten, Linear, ReLU, Sequential
from repro.nn.models import build_lenet
from repro.nn.optim import SGD


class PlainGather(ApproxMatmul):
    """The DAISM backend without layouts: every GEMM runs the plain gather kernel."""

    def packed_kernel(self):
        return None


LAYOUTS = daism_backend(PC3_TR, BFLOAT16)
PLAIN = PlainGather(BFLOAT16, PC3_TR)


def _bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.float32).view(np.uint32)


def _sgd_step(build, backend, x, weight_scale=1.0):
    """One forward + backward + SGD step; every tensor it produced, as bits."""
    model = build()
    for p in model.parameters():
        p.data *= np.float32(weight_scale)
        p.mark_updated()
    with use_backend(backend), np.errstate(all="ignore"):
        out = model(x)
        grad = np.random.default_rng(1).standard_normal(out.shape).astype(np.float32)
        dx = model.backward(grad, input_grad=True)
        SGD(model.parameters(), lr=0.05, momentum=0.9, weight_decay=1e-4).step()
    tensors = {"out": out, "dx": dx}
    for i, p in enumerate(model.parameters()):
        tensors[f"{i}.{p.name}.grad"] = p.grad
        tensors[f"{i}.{p.name}.data"] = p.data
    return {name: _bits(t) for name, t in tensors.items()}


def _depthwise():
    return Sequential(Conv2d(4, 4, 3, padding=1, groups=4, rng=np.random.default_rng(3)))


def _image(shape, seed=0):
    return np.random.default_rng(seed).standard_normal(shape).astype(np.float32)


CASES = {
    "lenet": (build_lenet, (4, 1, 16, 16)),
    "depthwise": (_depthwise, (3, 4, 7, 7)),
}


class _DirectCalls:
    """Counts :meth:`FloatTableKernel.run_direct` calls and their fallbacks."""

    def __init__(self, monkeypatch):
        self.ran = self.fell_back = 0
        original = kernels.FloatTableKernel.run_direct

        def spy(kernel, *args):
            out = original(kernel, *args)
            self.ran += 1
            self.fell_back += out is None
            return out

        monkeypatch.setattr(kernels.FloatTableKernel, "run_direct", spy)


def _assert_same(got: dict, want: dict) -> None:
    assert got.keys() == want.keys()
    for name in want:
        np.testing.assert_array_equal(got[name], want[name], err_msg=name)


@pytest.mark.parametrize("case", sorted(CASES))
def test_step_matches_plain_gather(case, monkeypatch):
    build, shape = CASES[case]
    x = _image(shape)
    calls = _DirectCalls(monkeypatch)
    got = _sgd_step(build, LAYOUTS, x)
    assert calls.ran and not calls.fell_back  # the direct path really ran
    _assert_same(got, _sgd_step(build, PLAIN, x))


@pytest.mark.parametrize("case", sorted(CASES))
def test_huge_weights_fall_back_with_same_bits(case, monkeypatch):
    # 2^100 keeps the first conv's operands in f32_exact; its outputs
    # overflow to inf, so every later GEMM (and the backward) leaves it.
    # 2^126 puts the weights themselves past it.
    build, shape = CASES[case]
    x = _image(shape)
    for scale in (2.0**100, 2.0**126):
        calls = _DirectCalls(monkeypatch)
        got = _sgd_step(build, LAYOUTS, x, weight_scale=scale)
        if scale == 2.0**126:
            assert calls.fell_back == calls.ran > 0
        _assert_same(got, _sgd_step(build, PLAIN, x, weight_scale=scale))


@pytest.mark.parametrize("case", sorted(CASES))
def test_inf_nan_input_matches_plain_gather(case, monkeypatch):
    build, shape = CASES[case]
    x = _image(shape)
    x[0, 0, 1, 1] = np.inf
    x[-1, -1, 2, 3] = np.nan
    x[1, 0, 0, 0] = -np.inf
    calls = _DirectCalls(monkeypatch)
    got = _sgd_step(build, LAYOUTS, x)
    assert calls.fell_back  # the first conv sees the specials
    _assert_same(got, _sgd_step(build, PLAIN, x))


def test_training_loss_trajectory_matches_plain_gather():
    x = _image((8, 1, 16, 16), seed=4)
    labels = np.arange(8) % 4

    def losses(backend):
        model = build_lenet()
        opt = SGD(model.parameters(), lr=0.05, momentum=0.9)
        out = []
        with use_backend(backend):
            for _ in range(3):
                logits = model(x)
                out.append(F.cross_entropy(logits, labels))
                model.backward(F.cross_entropy_grad(logits, labels))
                opt.step()
                opt.zero_grad()
        return out

    assert losses(LAYOUTS) == losses(PLAIN)


def _loss_digest(losses) -> str:
    """The ``BENCH_perf.json`` training digest of a loss trajectory."""
    arr = np.asarray(losses)
    h = hashlib.sha256()
    h.update(str(arr.dtype).encode())
    h.update(str(arr.shape).encode())
    h.update(arr.tobytes())
    return h.hexdigest()[:16]


# (training samples, epochs) -> digest: the BENCH_perf.json training job
# in its quick (CI smoke) and full sizes, computed with every product
# formed.
LENET_JOBS = {(64, 1): "9964c36a4d35bd38", (256, 2): "e25004675e592ac4"}


@pytest.mark.parametrize("job", sorted(LENET_JOBS), ids=lambda j: f"{j[0]}x{j[1]}")
def test_lenet_job_loss_digest_is_pinned(job, monkeypatch):
    samples, epochs = job
    ran = {"_run_compacted": 0, "_run_stationary_sparse": 0}
    for name in ran:
        original = getattr(kernels.FloatTableKernel, name)

        def spy(kernel, *args, _original=original, _name=name):
            ran[_name] += 1
            return _original(kernel, *args)

        monkeypatch.setattr(kernels.FloatTableKernel, name, spy)
    data = shapes_dataset(n_train=samples, n_test=1, seed=1)
    model = build_lenet()
    opt = SGD(model.parameters(), lr=0.05, momentum=0.9, weight_decay=1e-4)
    rng = np.random.default_rng(1)
    losses = []
    with use_backend(LAYOUTS):
        for _epoch in range(epochs):
            for bx, by in iterate_batches(data.train_x, data.train_y, 32, rng):
                logits = model(bx)
                losses.append(F.cross_entropy(logits, by))
                model.backward(F.cross_entropy_grad(logits, by))
                opt.step()
                opt.zero_grad()
    assert all(ran.values()), ran  # both bypass paths formed these losses
    assert _loss_digest(losses) == LENET_JOBS[job]


def test_table_registries_stay_flat_over_1000_steps():
    rng = np.random.default_rng(5)
    model = Sequential(
        Conv2d(1, 4, 3, padding=1, rng=rng), ReLU(), Flatten(), Linear(4 * 6 * 6, 4, rng=rng)
    )
    opt = SGD(model.parameters(), lr=0.01)
    x = rng.standard_normal((2, 1, 6, 6)).astype(np.float32)
    labels = np.array([1, 3])

    def sizes():
        return len(kernels._TABLE_CACHE), len(kernels._TABLE_REFS), len(integrity._TABLES)

    gc.collect()  # tables of earlier tests' plans leave now, not mid-run
    seen = []
    with use_backend(LAYOUTS):
        for _ in range(1000):
            model.backward(F.cross_entropy_grad(model(x), labels))
            opt.step()
            opt.zero_grad()
            seen.append(sizes())
    assert set(seen[1:]) == {seen[0]}, (seen[0], sorted(set(seen)))
    assert np.all(np.isfinite(model.modules[0].weight.data))
