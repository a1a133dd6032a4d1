"""``matmul_pairs`` and batched attention against per-pair loops, byte for byte.

``MatmulBackend.matmul_pairs`` runs a stack of ``(M, K) @ (K, N)``
products, one per leading index.  On every backend its bits must equal
one 2-D ``matmul`` per pair: the default runs exactly that loop, and the
DAISM backend's one-call ``FloatTableKernel.run_pairs`` must reproduce
it — including width-1 axes (the accumulate branch of the K-sum), tall
pairs (where a lone ``run`` takes the transposed orientation), pairs
tiled by rows, by K and by N, ±inf/NaN
operands, a pair far outside the ``f32_exact`` regime while the others
are inside it, and operands small enough that products flush.

``attention_core`` and its backward run every (sample, head) pair in one
``matmul_pairs`` call per product; they must equal the per-pair loop
kept below as the reference.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.nn.functional as F
from repro.core import kernels
from repro.core.config import PC3_TR
from repro.formats.floatfmt import BFLOAT16
from repro.nn.backend import bfp_backend, daism_backend, exact_backend, quantized_backend

BACKENDS = {
    "exact": exact_backend(),
    "quantized": quantized_backend(BFLOAT16),
    "quantized_kernel": quantized_backend(BFLOAT16, kernel="float_table"),
    "daism": daism_backend(PC3_TR, BFLOAT16),
    "bfp": bfp_backend(PC3_TR),
}
#: Edge-case operand modes; block floating point has no inf/NaN encoding.
#: ``big_pair`` stays inside ``f32_exact``; ``edge_pair`` and
#: ``tiny_pair`` take the whole call out of it while the other pairs
#: stay in, and ``edge_pair``'s products overflow float32 unless the
#: scales are multiplied first.
MODES = ("plain", "inf_nan", "big_pair", "edge_pair", "tiny", "tiny_pair")


def operands(shape_a, shape_b, mode: str, seed: int) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(shape_a).astype(np.float32)
    b = rng.standard_normal(shape_b).astype(np.float32)
    if mode == "inf_nan":
        for x, value in ((a, np.inf), (a, -np.inf), (b, np.nan), (b, -np.inf)):
            x.reshape(-1)[rng.integers(x.size)] = value
    elif mode == "big_pair":
        a[rng.integers(len(a))] *= np.float32(2.0**120)
    elif mode == "edge_pair":
        i = rng.integers(len(a))
        a[i] = np.float32(1.75 * 2.0**127) * np.sign(a[i])
        b[i] *= np.float32(2.0**-10)
    elif mode == "tiny":
        a *= np.float32(2.0**-70)
        b *= np.float32(2.0**-70)
    elif mode == "tiny_pair":
        i = rng.integers(len(a))
        a[i] *= np.float32(2.0**-70)
        b[i] *= np.float32(2.0**-70)
    return a, b


def per_pair(backend, a, b) -> np.ndarray:
    return np.stack([backend.matmul(a[i], b[i]) for i in range(len(a))])


def assert_bytes_equal(got: np.ndarray, want: np.ndarray) -> None:
    assert got.dtype == want.dtype == np.float32
    assert got.shape == want.shape
    np.testing.assert_array_equal(got.view(np.uint32), want.view(np.uint32))


@pytest.mark.parametrize("name", sorted(BACKENDS))
@settings(max_examples=25, deadline=None)
@given(
    pairs=st.integers(1, 5),
    m=st.integers(1, 40),
    k=st.integers(1, 24),
    n=st.integers(1, 12),
    mode=st.sampled_from(MODES),
    seed=st.integers(0, 2**16),
)
@example(pairs=3, m=1, k=1, n=1, mode="plain", seed=0)
@example(pairs=2, m=5, k=7, n=1, mode="plain", seed=1)
@example(pairs=4, m=40, k=9, n=2, mode="plain", seed=2)
@example(pairs=3, m=32, k=6, n=1, mode="inf_nan", seed=3)
@example(pairs=3, m=8, k=8, n=8, mode="big_pair", seed=4)
@example(pairs=3, m=8, k=8, n=8, mode="edge_pair", seed=6)
@example(pairs=3, m=6, k=4, n=1, mode="tiny_pair", seed=7)
@example(pairs=2, m=20, k=5, n=1, mode="tiny", seed=5)
def test_matmul_pairs_equals_per_pair_matmul(name, pairs, m, k, n, mode, seed):
    if name == "bfp" and mode == "inf_nan":
        return
    backend = BACKENDS[name]
    a, b = operands((pairs, m, k), (pairs, k, n), mode, seed)
    with np.errstate(all="ignore"):
        want = per_pair(backend, a, b)
        got = backend.matmul_pairs(a, b)
    assert_bytes_equal(got, want)


def _spy_tiles(monkeypatch) -> list[tuple[int, int, int]]:
    """Record the ``(rows, k_step, n)`` shape of every tile the one K loop sums."""
    tiles = []
    accumulate = kernels._accumulate

    def spy(values, acc):
        tiles.append(values.shape)
        accumulate(values, acc)

    monkeypatch.setattr(kernels, "_accumulate", spy)
    return tiles


def _no_run(*args):
    raise AssertionError("run_pairs called run")


class TestRunPairs:
    """``FloatTableKernel.run_pairs`` is one call of the one K loop.

    Its tiles hold whole pairs when a pair fits, and one pair's rows
    when it does not; no pair runs through ``run``.
    """

    def test_one_tile_for_attention_shapes(self, monkeypatch):
        """Batch-8, 8-head attention at T=8: all 64 pairs in one tile."""
        backend = BACKENDS["daism"]
        a, b = operands((64, 8, 32), (64, 32, 8), "plain", 0)
        want = per_pair(backend, a, b)
        monkeypatch.setattr(kernels.FloatTableKernel, "run", _no_run)
        tiles = _spy_tiles(monkeypatch)
        assert_bytes_equal(backend.matmul_pairs(a, b), want)
        assert tiles == [(64 * 8, 32, 8)]

    def test_pair_tiles_at_registered_sequence_length(self, monkeypatch):
        """T=64 puts whole pairs in several tiles; a small budget splits K."""
        backend = BACKENDS["daism"]
        a, b = operands((20, 64, 32), (20, 32, 64), "plain", 1)
        want = per_pair(backend, a, b)
        tiles = _spy_tiles(monkeypatch)
        assert_bytes_equal(backend.matmul_pairs(a, b), want)
        assert len(tiles) > 1 and all(rows % 64 == 0 and ks == 32 for rows, ks, _n in tiles)
        tiles.clear()
        monkeypatch.setattr(kernels, "ROW_BUDGET", 1024)
        assert_bytes_equal(backend.matmul_pairs(a, b), want)
        assert tiles and all(ks < 32 for _rows, ks, _n in tiles)

    def test_pair_larger_than_a_tile_runs_alone(self, monkeypatch):
        """A pair over the budget runs alone, in row blocks of its own tiles."""
        backend = BACKENDS["daism"]
        a, b = operands((2, 2048, 1), (2, 1, 256), "plain", 2)
        want = per_pair(backend, a, b)
        monkeypatch.setattr(kernels.FloatTableKernel, "run", _no_run)
        tiles = _spy_tiles(monkeypatch)
        assert_bytes_equal(backend.matmul_pairs(a, b), want)
        assert len(tiles) > 2 and all(rows < 2048 for rows, _ks, _n in tiles)

    @pytest.mark.parametrize("mode", MODES)
    def test_rows_wider_than_the_budget_split_n(self, mode, monkeypatch):
        """A budget under one row of N splits N, one row and one K term per tile."""
        backend = BACKENDS["daism"]
        a, b = operands((3, 4, 5), (3, 5, 12), mode, 3)
        with np.errstate(all="ignore"):
            want = per_pair(backend, a, b)
            tiles = _spy_tiles(monkeypatch)
            monkeypatch.setattr(kernels, "ROW_BUDGET", 5)
            got = backend.matmul_pairs(a, b)
        assert_bytes_equal(got, want)
        assert {shape[2] for shape in tiles} == {5, 2}  # 12 = 5 + 5 + 2

    def test_mismatched_pairs_rejected(self):
        for backend in BACKENDS.values():
            with pytest.raises(ValueError, match="matmul_pairs"):
                backend.matmul_pairs(np.ones((2, 3, 4), np.float32), np.ones((3, 4, 5), np.float32))


# --------------------------------------------------------------------------
# Attention against the per-pair reference loop
# --------------------------------------------------------------------------


def attention_reference(q, k, v, backend, scale):
    """One 2-D ``backend.matmul`` per (sample, head) pair and product."""
    n, h, t, dh = q.shape
    scale = np.float32(scale)
    probs = np.empty((n, h, t, t), dtype=np.float32)
    context = np.empty((n, h, t, dh), dtype=np.float32)
    for i in range(n):
        for j in range(h):
            kt = np.ascontiguousarray(k[i, j].T)
            scores = (backend.matmul(q[i, j], kt) * scale).astype(np.float32)
            p = F.softmax(scores).astype(np.float32)
            probs[i, j] = p
            context[i, j] = backend.matmul(p, v[i, j])
    return context, probs


def attention_backward_reference(grad, q, k, v, probs, backend, scale):
    n, h, _t, _dh = q.shape
    scale = np.float32(scale)
    dq, dk, dv = np.empty_like(q), np.empty_like(k), np.empty_like(v)
    for i in range(n):
        for j in range(h):
            p, g = probs[i, j], grad[i, j]
            dv[i, j] = backend.matmul(np.ascontiguousarray(p.T), g)
            dp = backend.matmul(g, np.ascontiguousarray(v[i, j].T))
            ds = F.softmax_backward(dp, p) * scale
            dq[i, j] = backend.matmul(ds, k[i, j])
            dk[i, j] = backend.matmul(np.ascontiguousarray(ds.T), q[i, j])
    return dq, dk, dv


@pytest.mark.parametrize("name", sorted(BACKENDS))
@settings(max_examples=10, deadline=None)
@given(
    n=st.integers(1, 3),
    h=st.integers(1, 3),
    t=st.integers(1, 9),
    dh=st.integers(1, 8),
    mode=st.sampled_from(MODES),
    seed=st.integers(0, 2**16),
)
@example(n=2, h=2, t=8, dh=4, mode="plain", seed=0)
@example(n=1, h=2, t=9, dh=1, mode="big_pair", seed=1)
def test_attention_equals_per_pair_reference(name, n, h, t, dh, mode, seed):
    if name == "bfp" and mode == "inf_nan":
        return
    backend = BACKENDS[name]
    rng = np.random.default_rng(seed)
    q, k = operands((n, h, t, dh), (n, h, t, dh), mode, seed)
    v = rng.standard_normal((n, h, t, dh)).astype(np.float32)
    grad = rng.standard_normal((n, h, t, dh)).astype(np.float32)
    scale = 1.0 / np.sqrt(dh)
    with np.errstate(all="ignore"):
        context, probs = F.attention_core(q, k, v, backend, scale)
        want_context, want_probs = attention_reference(q, k, v, backend, scale)
        grads = F.attention_core_backward(grad, q, k, v, probs, backend, scale)
        want_grads = attention_backward_reference(grad, q, k, v, want_probs, backend, scale)
    assert_bytes_equal(context, want_context)
    assert_bytes_equal(probs, want_probs)
    for got, want in zip(grads, want_grads):
        assert_bytes_equal(got, want)
