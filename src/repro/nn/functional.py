"""Functional building blocks: im2col convolution, pooling, losses.

All dense products route through a :class:`~repro.core.gemm.MatmulBackend`
so the whole network can run on exact float32 or on the DAISM
approximate datapath (Sec. V-A of the paper evaluates full CNNs that
way).

Each layer kind's forward arithmetic is one function here, called by
the eager layer in train and eval mode and by the compiled plan op
(:mod:`repro.runtime.ops`), so the two are byte-identical by
construction.  A weight GEMM comes in as a ``matmul`` callable,
``(..., K) -> (..., N)``: the backend's or the plan strategy's.
"""

from __future__ import annotations

import numpy as np

from ..core.gemm import MatmulBackend
from ..formats.packed import PackedTensor, pack
from .backend import default_backend

__all__ = [
    "im2col",
    "col2im",
    "gather_packed_cols",
    "group_columns",
    "conv2d_forward",
    "conv2d_cols",
    "conv2d_output",
    "conv2d_backward",
    "direct_conv2d",
    "linear",
    "relu",
    "maxpool2d",
    "maxpool2d_forward",
    "maxpool2d_backward",
    "avgpool_global_forward",
    "avgpool_global_backward",
    "batchnorm_inv_std",
    "batchnorm2d",
    "residual_add",
    "layernorm_forward",
    "layernorm_backward",
    "softmax",
    "softmax_backward",
    "split_heads",
    "merge_heads",
    "attention_core",
    "attention_core_backward",
    "attention",
    "cross_entropy",
    "cross_entropy_grad",
]


def _out_size(size: int, kernel: int, stride: int, padding: int) -> int:
    out = (size + 2 * padding - kernel) // stride + 1
    if out < 1:
        raise ValueError(f"kernel {kernel} does not fit input of size {size}")
    return out


def im2col(x: np.ndarray, kernel: int, stride: int, padding: int) -> np.ndarray:
    """Unfold ``(N, C, H, W)`` into ``(N * OH * OW, C * K * K)`` patches.

    This is the kernel flattening of Fig. 3: convolution becomes a GEMM
    between patch rows and flattened kernels.
    """
    n, c, h, w = x.shape
    oh = _out_size(h, kernel, stride, padding)
    ow = _out_size(w, kernel, stride, padding)
    if padding:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))

    # Gather with stride tricks: windows (N, C, K, K, OH, OW).
    s0, s1, s2, s3 = x.strides
    windows = np.lib.stride_tricks.as_strided(
        x,
        shape=(n, c, kernel, kernel, oh, ow),
        strides=(s0, s1, s2, s3, s2 * stride, s3 * stride),
        writeable=False,
    )
    cols = windows.transpose(0, 4, 5, 1, 2, 3).reshape(n * oh * ow, c * kernel * kernel)
    return np.ascontiguousarray(cols)


def col2im(
    cols: np.ndarray,
    x_shape: tuple[int, int, int, int],
    kernel: int,
    stride: int,
    padding: int,
) -> np.ndarray:
    """Fold patch gradients back to the input tensor (im2col adjoint)."""
    n, c, h, w = x_shape
    oh = _out_size(h, kernel, stride, padding)
    ow = _out_size(w, kernel, stride, padding)
    padded = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=np.float32)
    cols6 = cols.reshape(n, oh, ow, c, kernel, kernel).transpose(0, 3, 4, 5, 1, 2)
    for kh in range(kernel):
        h_slice = slice(kh, kh + stride * oh, stride)
        for kw in range(kernel):
            w_slice = slice(kw, kw + stride * ow, stride)
            padded[:, :, h_slice, w_slice] += cols6[:, :, kh, kw]
    if padding:
        return padded[:, :, padding:-padding, padding:-padding]
    return padded


def gather_packed_cols(
    packed: PackedTensor,
    kernel: int,
    stride: int,
    padding: int,
    need_dense: bool = False,
) -> PackedTensor:
    """Gather already-packed image planes through :func:`im2col`.

    ``gather_packed_cols(pack(x, fmt), ...)`` is byte-identical to
    ``pack(im2col(x), fmt)``: quantisation is elementwise, so it
    commutes with the gather, and zero padding packs to all-zero planes.
    Gathers the two stored planes (and the dense values when
    ``need_dense``); the result derives its own exponent range.

    Columns come in im2col's ``(c, kh, kw)`` order, so the columns of a
    channel group form one contiguous block (:func:`group_columns`).
    """
    cols = PackedTensor.from_planes(
        packed.fmt,
        im2col(packed.significand, kernel, stride, padding),
        im2col(packed.scale(), kernel, stride, padding),
    )
    if need_dense:
        cols._dense = im2col(packed.dense(), kernel, stride, padding)
    return cols


def group_columns(cols: PackedTensor, groups: int) -> list[PackedTensor]:
    """Each channel group's contiguous block of gathered patch columns (views)."""
    width = cols.shape[1] // groups
    return [cols[:, g * width : (g + 1) * width] for g in range(groups)]


def direct_conv2d(
    kernel, packed, direct, bias: np.ndarray | None, size: int, stride: int, padding: int,
    groups: int,
) -> np.ndarray | None:
    """A :data:`~repro.core.kernels.DIRECT` conv of a packed image, plus bias.

    ``kernel`` is the :class:`~repro.core.kernels.FloatTableKernel` and
    ``direct`` its :meth:`~repro.core.kernels.FloatTableKernel.prepare_direct`
    weight (``None`` when the table did not fit).  Returns the NCHW
    float32 output, or ``None`` when the caller must take the im2col
    GEMMs instead (no direct weight, or a call outside ``f32_exact``);
    both give the same bits.  The eager layers and the compiled conv
    ops share this one path.
    """
    if direct is None:
        return None
    out = kernel.run_direct(packed, direct, size, stride, padding, groups)
    if out is None:
        return None
    if bias is not None:
        out = out + bias[None, :, None, None]
    return np.ascontiguousarray(out, dtype=np.float32)


def conv2d_cols(x: np.ndarray, groups: int, kernel: int, stride: int, padding: int):
    """Each channel group's :func:`im2col` patch matrix (the conv's backward cache)."""
    cg = x.shape[1] // groups
    return [im2col(x[:, g * cg : (g + 1) * cg], kernel, stride, padding) for g in range(groups)]


def conv2d_output(
    outs: list[np.ndarray], bias: np.ndarray | None, n: int, oh: int, ow: int
) -> np.ndarray:
    """Join per-group GEMM outputs (``N*OH*OW`` rows of ``F/G`` filters each,
    with or without a leading batch axis) into the NCHW conv output, plus bias."""
    out = outs[0] if len(outs) == 1 else np.concatenate(outs, axis=-1)
    if bias is not None:
        out = out + bias
    out = out.reshape(n, oh, ow, -1).transpose(0, 3, 1, 2)
    return np.ascontiguousarray(out, dtype=np.float32)


def conv2d_forward(
    x: np.ndarray,
    weight: np.ndarray,
    bias: np.ndarray | None,
    stride: int,
    padding: int,
    backend: MatmulBackend | None = None,
    *,
    groups: int = 1,
    prepared_weights=None,
    direct=None,
) -> tuple[np.ndarray, list[np.ndarray] | None]:
    """Convolution as one batched im2col GEMM per channel group.

    ``weight`` has shape ``(F, C // groups, K, K)``: input channel group
    ``g`` only meets filters ``[g*F/G, (g+1)*F/G)``, so each group runs
    a ``(N, OH*OW, C/G*K*K) @ (C/G*K*K, F/G)`` GEMM on its channel slice
    and the outputs join along the filter axis — the block-diagonal
    kernel matrix, of which ``groups=1`` is the one-block case.
    ``prepared_weights`` is an optional sequence of backend-prepared
    per-group ``(C/G*K*K, F/G)`` matrices — layers pass their cached
    weights here so inference performs zero per-call weight packing.
    ``direct``, a direct-layout weight on the backend's kernel, runs all
    groups as one tap loop over the packed image instead
    (:func:`direct_conv2d`).  Returns ``(output, saved)`` for the
    backward pass: the packed image when the forward packed one (its
    dW operands are gathered from it, never packed again), else one
    float patch matrix per group.
    """
    backend = backend or default_backend()
    n, c, h, w = x.shape
    f, cg, kernel, _ = weight.shape
    if c != cg * groups or f % groups:
        raise ValueError(
            f"conv shape mismatch: input {c} channels, weight "
            f"{cg} channels/group x {groups} groups, {f} filters"
        )
    fg = f // groups
    oh = _out_size(h, kernel, stride, padding)
    ow = _out_size(w, kernel, stride, padding)
    packed = None
    if direct is not None:
        packed = pack(x, direct.weight.fmt)
        out = direct_conv2d(
            backend.packed_kernel()[0], packed, direct, bias, kernel, stride, padding, groups
        )
        if out is not None:
            return out, packed
    cols_cache = conv2d_cols(x, groups, kernel, stride, padding)
    if prepared_weights is None:
        prepared_weights = [weight[g * fg : (g + 1) * fg].reshape(fg, -1).T for g in range(groups)]
    outs = [
        backend.matmul(cols.reshape(n, oh * ow, -1), wmat)
        for cols, wmat in zip(cols_cache, prepared_weights)
    ]
    return conv2d_output(outs, bias, n, oh, ow), cols_cache if packed is None else packed


def conv2d_backward(
    grad_out: np.ndarray,
    x_shape: tuple[int, int, int, int],
    saved,
    weight: np.ndarray,
    stride: int,
    padding: int,
    backend: MatmulBackend | None = None,
    *,
    groups: int = 1,
    prepared_weights=None,
    input_grad: bool = True,
) -> tuple[np.ndarray | None, np.ndarray, np.ndarray]:
    """Gradients of :func:`conv2d_forward`: ``(dx, dweight, dbias)``.

    The backward GEMMs also run on the configured backend — on the
    accelerator, training's backward passes are the same in-SRAM GEMMs
    (the paper targets "DNN Training and Inference").  Each group's
    backward is the one-group backward of its contiguous slice of the
    gradient and its patch matrix: a bias sum, a ``dweight`` GEMM and a
    ``dcols`` GEMM folded back by :func:`col2im`.  ``saved`` is what the
    forward returned: a packed image, whose gathered columns are the
    ``dweight`` operands, or the per-group float patches.
    ``prepared_weights`` is an optional sequence of backend-prepared
    per-group ``(F/G, C/G*K*K)`` weight rows for the ``dcols`` GEMMs.
    Without ``input_grad`` the ``dcols`` GEMMs and ``col2im`` do not
    run and ``dx`` is ``None``.
    """
    backend = backend or default_backend()
    f, cg, kernel, _ = weight.shape
    n, _c, h, w = x_shape
    fg = f // groups
    if isinstance(saved, PackedTensor):
        saved = group_columns(gather_packed_cols(saved, kernel, stride, padding), groups)
    dxs, dweights, dbiases = [], [], []
    for g, cols in enumerate(saved):
        filters = slice(g * fg, (g + 1) * fg)
        grad = np.ascontiguousarray(grad_out[:, filters])
        # ``(N*OH*OW, F/G)`` GEMM rows, a view or a copy depending on the
        # shape; the bias sum follows that layout.
        rows = grad.transpose(0, 2, 3, 1).reshape(-1, fg)
        dweights.append(backend.matmul(rows.T, cols).reshape(fg, cg, kernel, kernel))
        dbiases.append(rows.sum(axis=0))
        if input_grad:
            if prepared_weights is not None:
                wrows = prepared_weights[g]
            else:
                wrows = weight[filters].reshape(fg, -1)
            dcols = backend.matmul(rows, wrows)
            dxs.append(col2im(dcols, (n, cg, h, w), kernel, stride, padding))
    dx = None
    if input_grad:
        dx = (dxs[0] if groups == 1 else np.concatenate(dxs, axis=1)).astype(np.float32)
    dweight = dweights[0] if groups == 1 else np.concatenate(dweights)
    dbias = dbiases[0] if groups == 1 else np.concatenate(dbiases)
    return dx, dweight.astype(np.float32), dbias.astype(np.float32)


def linear(x: np.ndarray, matmul, bias: np.ndarray | None) -> np.ndarray:
    """Fully connected ``matmul(x) + bias``; ``matmul`` folds any leading axes of ``x``."""
    out = matmul(x)
    if bias is not None:
        out = out + bias
    return out.astype(np.float32, copy=False)


def relu(x: np.ndarray) -> np.ndarray:
    """Rectified linear unit: ``x`` where ``x > 0``, else ``+0`` (NaN and ``-0`` too)."""
    return np.where(x > 0, x, np.float32(0.0)).astype(np.float32, copy=False)


def _maxpool2d(x: np.ndarray, size: int, argmax: bool):
    n, c, h, w = x.shape
    if h % size or w % size:
        raise ValueError(f"spatial dims {h}x{w} not divisible by pool size {size}")
    windows = x.reshape(n, c, h // size, size, w // size, size)
    out = windows[:, :, :, 0, :, 0]
    arg = np.zeros(out.shape, dtype=np.intp) if argmax else None
    for tap in range(1, size * size):
        t = windows[:, :, :, tap // size, :, tap % size]
        # Take the tap where the running maximum is not NaN and the tap
        # exceeds it or is NaN: exactly where `t <= out` is false.
        take = (out == out) & ~(t <= out)
        out = np.where(take, t, out)
        if argmax:
            arg[take] = tap
    return np.ascontiguousarray(out, dtype=np.float32), arg


def maxpool2d(x: np.ndarray, size: int) -> np.ndarray:
    """Non-overlapping max pooling of ``(N, C, H, W)`` by ``size``.

    The rule: each output holds the bits of the first tap of its window,
    in row-major order, that no other tap exceeds, where NaN exceeds
    every number.  A window with a NaN yields its first NaN, and equal
    maxima, ``-0`` and ``+0`` included, yield the earliest: ``(+0, -0)``
    gives ``+0``, ``(-0, +0)`` gives ``-0``.  Only strict comparisons
    decide, never ``np.maximum``'s unspecified pick between equal operands.
    """
    return _maxpool2d(x, size, False)[0]


def maxpool2d_forward(x: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """:func:`maxpool2d` plus each window's chosen tap index: ``(output, argmax_cache)``."""
    return _maxpool2d(x, size, True)


def maxpool2d_backward(
    grad_out: np.ndarray, arg: np.ndarray, x_shape: tuple[int, int, int, int], size: int
) -> np.ndarray:
    """Route gradients to the argmax positions."""
    n, c, h, w = x_shape
    oh, ow = h // size, w // size
    flat = np.zeros((n, c, oh, ow, size * size), dtype=np.float32)
    np.put_along_axis(flat, arg[..., None], grad_out[..., None], axis=-1)
    windows = flat.reshape(n, c, oh, ow, size, size).transpose(0, 1, 2, 4, 3, 5)
    return windows.reshape(n, c, h, w)


def avgpool_global_forward(x: np.ndarray) -> np.ndarray:
    """Global average pooling ``(N, C, H, W) -> (N, C)``."""
    return x.mean(axis=(2, 3), dtype=np.float32)


def avgpool_global_backward(grad_out: np.ndarray, x_shape: tuple[int, int, int, int]) -> np.ndarray:
    """Spread gradients uniformly over the pooled window."""
    n, c, h, w = x_shape
    scale = np.float32(1.0 / (h * w))
    return np.broadcast_to(grad_out[:, :, None, None] * scale, x_shape).astype(np.float32)


def batchnorm_inv_std(var: np.ndarray, eps: float) -> np.ndarray:
    """Per-channel ``1 / sqrt(var + eps)`` for :func:`batchnorm2d`."""
    return 1.0 / np.sqrt(var + eps)


def batchnorm2d(
    x: np.ndarray, mean: np.ndarray, inv_std: np.ndarray, gamma: np.ndarray, beta: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Batch norm of ``(N, C, H, W)`` from per-channel statistics: ``(out, x_hat)``."""
    x_hat = (x - mean[None, :, None, None]) * inv_std[None, :, None, None]
    out = gamma[None, :, None, None] * x_hat + beta[None, :, None, None]
    return out.astype(np.float32, copy=False), x_hat


def residual_add(main: np.ndarray, skip: np.ndarray) -> np.ndarray:
    """The residual join ``main + skip`` (in that order: it picks which of two NaNs survives)."""
    if main.shape != skip.shape:
        raise ValueError(f"residual shape mismatch: {main.shape} vs {skip.shape}")
    return (main + skip).astype(np.float32, copy=False)


def layernorm_forward(
    x: np.ndarray, gamma: np.ndarray, beta: np.ndarray, eps: float
) -> tuple[np.ndarray, tuple]:
    """Layer normalisation over the last axis.  Returns ``(out, cache)``.

    Normalises every feature vector to zero mean / unit variance and
    applies the affine ``gamma * x_hat + beta``.  Both the eager layer
    and the compiled plan op call this one function, so the two regimes
    are byte-identical by construction.
    """
    mean = x.mean(axis=-1, keepdims=True, dtype=np.float32)
    var = x.var(axis=-1, keepdims=True, dtype=np.float32)
    inv_std = (1.0 / np.sqrt(var + np.float32(eps))).astype(np.float32)
    x_hat = ((x - mean) * inv_std).astype(np.float32)
    out = (gamma * x_hat + beta).astype(np.float32)
    return out, (x_hat, inv_std)


def layernorm_backward(
    grad: np.ndarray, gamma: np.ndarray, cache: tuple
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients of :func:`layernorm_forward`: ``(dx, dgamma, dbeta)``."""
    x_hat, inv_std = cache
    d = x_hat.shape[-1]
    axes = tuple(range(x_hat.ndim - 1))
    dgamma = (grad * x_hat).sum(axis=axes)
    dbeta = grad.sum(axis=axes)
    g = grad * gamma
    sum_g = g.sum(axis=-1, keepdims=True)
    sum_gx = (g * x_hat).sum(axis=-1, keepdims=True)
    dx = (inv_std / d) * (d * g - sum_g - x_hat * sum_gx)
    return dx.astype(np.float32), dgamma.astype(np.float32), dbeta.astype(np.float32)


def softmax(logits: np.ndarray) -> np.ndarray:
    """Softmax over the **last** axis (numerically stabilised).

    Max-subtraction keeps ``exp`` in range even at the top of the
    bfloat16 dynamic range (~3e38), where the naive form overflows to
    ``inf/inf``.  Works on any rank: classifier logits ``(N, C)`` and
    batched attention scores ``(B, H, T, T)`` alike normalise their
    trailing axis.  Finite logits spread wider than float32's range
    shift to ``-inf``, whose ``exp`` is an exact 0, so every row still
    sums to 1.
    """
    with np.errstate(over="ignore"):
        shifted = logits - logits.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


def softmax_backward(grad: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """Gradient through :func:`softmax` given its output ``probs``."""
    inner = (grad * probs).sum(axis=-1, keepdims=True)
    return (probs * (grad - inner)).astype(np.float32)


def split_heads(x: np.ndarray, heads: int) -> np.ndarray:
    """``(N, T, D) -> (N, H, T, D/H)`` — per-head view of a projection."""
    n, t, d = x.shape
    if d % heads:
        raise ValueError(f"model dim {d} not divisible by {heads} heads")
    return np.ascontiguousarray(x.reshape(n, t, heads, d // heads).transpose(0, 2, 1, 3))


def merge_heads(x: np.ndarray) -> np.ndarray:
    """``(N, H, T, D/H) -> (N, T, D)`` — inverse of :func:`split_heads`."""
    n, h, t, dh = x.shape
    return np.ascontiguousarray(x.transpose(0, 2, 1, 3).reshape(n, t, h * dh))


def _pairs(x: np.ndarray) -> np.ndarray:
    """``(N, H, T, D) -> (N*H, T, D)``: one GEMM operand per (sample, head) pair."""
    return x.reshape(-1, *x.shape[2:])


def _transposed(x: np.ndarray) -> np.ndarray:
    """The pairs of ``x`` with their two trailing axes swapped, contiguous."""
    return np.ascontiguousarray(x.transpose(0, 2, 1))


def attention_core(
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    backend: MatmulBackend | None = None,
    scale: float | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Scaled dot-product attention with both products on the backend.

    ``q``/``k``/``v`` are ``(N, H, T, Dh)``.  Unlike the weight GEMMs,
    ``Q K^T`` and ``A V`` multiply two *activations* — there is no static
    operand to pre-pack (on the accelerator these are the products DAISM
    must stream both operands for).  Each product is one
    ``backend.matmul_pairs`` call over all ``N * H`` (sample, head)
    pairs, and softmax runs over all their scores at once; the
    semantics stay per pair — every pair's bits equal its own 2-D
    ``backend.matmul``, and its GEMM shapes depend only on ``(T, Dh)``,
    never on the batch size — which is what makes attention shard-safe
    even on batch-coupled backends.

    Returns ``(context, probs)`` with ``context`` ``(N, H, T, Dh)`` and
    the post-softmax attention weights ``probs`` ``(N, H, T, T)``.
    Shared by the eager layer and the compiled plan op, so the two
    regimes are byte-identical by construction.
    """
    backend = backend or default_backend()
    n, h, t, dh = q.shape
    if scale is None:
        scale = 1.0 / np.sqrt(dh)
    scale = np.float32(scale)
    scores = (backend.matmul_pairs(_pairs(q), _transposed(_pairs(k))) * scale).astype(np.float32)
    probs = softmax(scores).astype(np.float32)
    context = backend.matmul_pairs(probs, _pairs(v))
    return context.reshape(n, h, t, dh), probs.reshape(n, h, t, t)


def attention_core_backward(
    grad: np.ndarray,
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    probs: np.ndarray,
    backend: MatmulBackend | None = None,
    scale: float | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients of :func:`attention_core`: ``(dq, dk, dv)``, one call per product."""
    backend = backend or default_backend()
    dh = q.shape[-1]
    if scale is None:
        scale = 1.0 / np.sqrt(dh)
    scale = np.float32(scale)
    p, g = _pairs(probs), _pairs(grad)
    dv = backend.matmul_pairs(_transposed(p), g)
    dp = backend.matmul_pairs(g, _transposed(_pairs(v)))
    ds = softmax_backward(dp, p) * scale
    dq = backend.matmul_pairs(ds, _pairs(k))
    dk = backend.matmul_pairs(_transposed(ds), _pairs(q))
    return dq.reshape(q.shape), dk.reshape(k.shape), dv.reshape(v.shape)


def attention(
    x: np.ndarray, qkv, out, heads: int, scale: float, backend: MatmulBackend | None = None
) -> tuple[np.ndarray, tuple]:
    """Multi-head self-attention on ``(N, T, D)``: ``(output, (q, k, v, probs))``.

    ``qkv`` and ``out`` are the fused QKV and output projections as
    callables; :func:`attention_core` runs the products between them.
    """
    d = x.shape[-1]
    proj = qkv(x)
    q = split_heads(np.ascontiguousarray(proj[..., :d]), heads)
    k = split_heads(np.ascontiguousarray(proj[..., d : 2 * d]), heads)
    v = split_heads(np.ascontiguousarray(proj[..., 2 * d :]), heads)
    context, probs = attention_core(q, k, v, backend, scale)
    return out(merge_heads(context)), (q, k, v, probs)


def cross_entropy(logits: np.ndarray, labels: np.ndarray) -> float:
    """Mean cross-entropy of integer labels."""
    probs = softmax(logits)
    n = logits.shape[0]
    picked = probs[np.arange(n), labels]
    return float(-np.log(np.clip(picked, 1e-12, None)).mean())


def cross_entropy_grad(logits: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Gradient of mean cross-entropy w.r.t. the logits."""
    n = logits.shape[0]
    grad = softmax(logits)
    grad[np.arange(n), labels] -= 1.0
    return (grad / n).astype(np.float32)
