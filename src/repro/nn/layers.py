"""Layer modules with explicit forward/backward (no autograd framework).

A tiny PyTorch-shaped stack: :class:`Module` with parameters,
``forward``/``backward`` pairs that cache what they need, and containers
(:class:`Sequential`, :class:`Residual`).  Multiply-heavy layers accept a
:class:`~repro.core.gemm.MatmulBackend` (or fall back to the process
default), which is the single switch between exact float32 and the DAISM
approximate datapath.

As in autograd, where a tensor the caller creates does not require a
gradient, ``backward`` always accumulates the parameter gradients but
computes the gradient with respect to the input only when asked
(``input_grad=True``); a container asks each inner module whose input
another module produced, so nothing differentiates the image.
"""

from __future__ import annotations

import numpy as np

from ..core.gemm import MatmulBackend
from ..core.kernels import FloatTableKernel
from . import functional as F
from .backend import default_backend

__all__ = [
    "Parameter",
    "Module",
    "Conv2d",
    "Linear",
    "ReLU",
    "MaxPool2d",
    "GlobalAvgPool",
    "BatchNorm2d",
    "LayerNorm",
    "Softmax",
    "MultiHeadAttention",
    "Dropout",
    "Flatten",
    "Sequential",
    "Residual",
]


class Parameter:
    """A learnable tensor with its gradient accumulator.

    ``version`` counts value updates: the optimisers and the weight
    loaders call :meth:`mark_updated` after mutating ``data``, and the
    layers' prepared-weight caches use the counter to decide whether
    their packed copy is still current.  Code that writes ``data`` in
    place by hand must call :meth:`mark_updated` as well.
    """

    def __init__(self, data: np.ndarray, name: str = "param"):
        self.data = np.asarray(data, dtype=np.float32)
        self.grad = np.zeros_like(self.data)
        self.name = name
        self.version = 0

    def mark_updated(self) -> None:
        """Record that ``data`` changed, invalidating prepared caches."""
        self.version += 1

    def zero_grad(self) -> None:
        self.grad[...] = 0.0

    def __repr__(self) -> str:
        return f"Parameter({self.name}, shape={self.data.shape})"


def _require(cache):
    """A layer's backward cache, or ``RuntimeError`` when there is none.

    Layers keep a cache only from a training-mode forward and clear it
    on an eval-mode one, so a backward never differentiates a forward
    that kept nothing (or a stale earlier one).
    """
    if cache is None:
        raise RuntimeError("backward called without a training-mode forward")
    return cache


def _plan_spec(kind: str, module: "Module | None" = None, **attrs):
    """Build an :class:`~repro.runtime.ops.OpSpec` (imported lazily).

    The runtime package imports the layers for plan capture, so the
    layers reach the spec type through a deferred import to keep the
    dependency one-way at import time.
    """
    from ..runtime.ops import OpSpec

    return OpSpec(kind, attrs, module)


class Module:
    """Base class: a forward/backward pair plus parameter discovery."""

    training = True

    def forward(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def to_plan_op(self):
        """Describe this layer for plan capture (see :mod:`repro.runtime`).

        Leaf layers return an :class:`~repro.runtime.ops.OpSpec` naming
        their kind and static shape attributes; the runtime compiler and
        the accelerator co-sim both consume that one description.
        Containers are walked structurally by
        :func:`repro.runtime.plan.trace` instead.
        """
        raise TypeError(f"{type(self).__name__} does not describe a plan op")

    def backward(self, grad: np.ndarray, *, input_grad: bool = False) -> np.ndarray | None:
        """Accumulate parameter gradients from ``grad``, the loss gradient of the output.

        Returns the loss gradient with respect to the input when
        ``input_grad`` is true, ``None`` otherwise (the work that only
        the input gradient needs is skipped).
        """
        raise NotImplementedError

    def parameters(self) -> list[Parameter]:
        params: list[Parameter] = []
        for value in vars(self).values():
            if isinstance(value, Parameter):
                params.append(value)
            elif isinstance(value, Module):
                params.extend(value.parameters())
        return params

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    def train(self) -> "Module":
        self._set_mode(True)
        return self

    def eval(self) -> "Module":
        self._set_mode(False)
        return self

    def _set_mode(self, training: bool) -> None:
        self.training = training
        for value in vars(self).values():
            if isinstance(value, Module):
                value._set_mode(training)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)


def _he_init(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int) -> np.ndarray:
    return (rng.standard_normal(shape) * np.sqrt(2.0 / fan_in)).astype(np.float32)


class _PreparedWeightCache:
    """Backend-prepared (e.g. packed) views of one Parameter, cached.

    Every entry is stamped with the parameter's version: an optimiser
    step (or weight load) bumps the version and silently invalidates
    every entry, while repeated inference reuses the prepared operand
    with zero re-quantise or decompose work.  Two tiers of entries:

    * the prepared operand, keyed by ``(backend.prepare_key,
      orientation)``.  Backends with the same ``prepare_key`` (every
      DAISM config over one format — whichever GEMM kernel it selects —
      plus the quantised backend of that format) share a single entry:
      a cached ``PackedTensor`` carries the planes, the dense values and
      the scale plane;
    * for a backend with a packed kernel
      (:meth:`~repro.core.gemm.MatmulBackend.packed_kernel`), that
      kernel's arrangement of the shared planes, keyed per config by
      ``(backend.name, kernel name, orientation)``.  It is picked from
      the weight's shape the way compiled plans pick it
      (:meth:`~repro.core.kernels.GemmKernel.prepare`, and
      :meth:`~repro.core.kernels.FloatTableKernel.prepare_direct` for a
      conv forward), and a layout never changes a bit.

    A stale entry is dropped before its successor is built, so a
    released layout table leaves the table cache, and its integrity
    record, before the next one is registered.
    """

    _MAX_ENTRIES = 8

    def __init__(self) -> None:
        self._entries: dict[tuple, tuple[int, object]] = {}

    def _lookup(self, key: tuple, version: int, build):
        hit = self._entries.get(key)
        if hit is not None and hit[0] == version:
            return hit[1]
        # Drop the stale entry first, so its tables are released before
        # the successor's are built.
        hit = None
        self._entries.pop(key, None)
        value = build()
        if len(self._entries) >= self._MAX_ENTRIES:
            self._entries.pop(next(iter(self._entries)))  # FIFO, evict one
        self._entries[key] = (version, value)
        return value

    def get(
        self, backend: MatmulBackend, param: Parameter, orientation: str, build,
        direct: bool = False,
    ):
        """The operand for ``build()``'s matrix, or a tuple for a list of matrices.

        Conv layers build one matrix per channel group under a single
        entry, invalidated together.  ``direct`` (a conv forward, always
        a list) returns ``(direct_weight, per_group)``: ``direct_weight``
        is the whole conv's direct layout, or ``None`` when the kernel
        has none for it.
        """

        def prepared():
            return self._lookup(
                (backend.prepare_key, orientation), param.version,
                lambda: _prepare(backend, build()),
            )

        target = backend.packed_kernel()
        if target is None:
            return (None, prepared()) if direct else prepared()
        kernel, config = target
        return self._lookup(
            (backend.name, kernel.name, orientation),
            param.version,
            lambda: _arrange(kernel, config, prepared(), direct),
        )

    def layouts(self) -> dict[str, str | None]:
        """``{orientation: layout}`` of the cached kernel arrangements (for reports).

        A per-group entry reports its first group's layout.
        """
        found = {}
        for key, (_version, value) in self._entries.items():
            if len(key) == 3:  # (backend.name, kernel name, orientation)
                while isinstance(value, tuple):
                    value = next(v for v in value if v is not None)
                found[key[2]] = value.layout
        return found


def _prepare(backend: MatmulBackend, built):
    """``backend.prepare`` of a matrix, or a tuple of them for a list."""
    if isinstance(built, list):
        return tuple(backend.prepare(b) for b in built)
    return backend.prepare(built)


def _arrange(kernel, config, packed, direct: bool):
    """``kernel``'s arrangement of packed weights (see :meth:`_PreparedWeightCache.get`).

    A conv with a direct layout keeps its per-group planes unarranged:
    they serve only the im2col fallback outside ``f32_exact``, where
    every layout runs the plain kernel.
    """
    if not isinstance(packed, tuple):
        return kernel.prepare(packed, config)
    if direct and isinstance(kernel, FloatTableKernel):
        weight = kernel.prepare_direct(list(packed), config)
        if weight is not None:
            return weight, packed
    arranged = tuple(kernel.prepare(w, config) for w in packed)
    return (None, arranged) if direct else arranged


class Conv2d(Module):
    """2-D convolution via the backend GEMM (He initialisation).

    ``groups > 1`` makes it a grouped convolution (``groups ==
    in_channels == out_channels`` is depthwise): the weight holds
    ``in_channels // groups`` channels per filter.  The forward runs one
    batched GEMM per group (one in all for ``groups=1``), each group's
    weight matrix prepared (packed) once and cached.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel: int,
        stride: int = 1,
        padding: int = 1,
        bias: bool = True,
        groups: int = 1,
        label: str | None = None,
        backend: MatmulBackend | None = None,
        rng: np.random.Generator | None = None,
    ):
        if groups < 1 or in_channels % groups or out_channels % groups:
            raise ValueError(
                f"groups={groups} must divide in_channels={in_channels} "
                f"and out_channels={out_channels}"
            )
        rng = rng or np.random.default_rng(0)
        fan_in = (in_channels // groups) * kernel * kernel
        self.weight = Parameter(
            _he_init(rng, (out_channels, in_channels // groups, kernel, kernel), fan_in),
            "conv.weight",
        )
        self.bias = Parameter(np.zeros(out_channels), "conv.bias") if bias else None
        self.stride = stride
        self.padding = padding
        self.groups = groups
        self.label = label
        self.backend = backend
        self._cache: tuple | None = None
        self._prepared = _PreparedWeightCache()

    def to_plan_op(self):
        """Conv spec: channel/kernel/stride/padding/group geometry."""
        out_channels, channels_per_group, kernel, _ = self.weight.data.shape
        return _plan_spec(
            "conv2d",
            self,
            in_channels=channels_per_group * self.groups,
            out_channels=out_channels,
            kernel=kernel,
            stride=self.stride,
            padding=self.padding,
            groups=self.groups,
            label=self.label,
        )

    def _group_rows(self) -> list[np.ndarray]:
        """Each channel group's ``(F/G, C/G*K*K)`` kernel rows."""
        fg = self.weight.data.shape[0] // self.groups
        return [
            self.weight.data[g * fg : (g + 1) * fg].reshape(fg, -1) for g in range(self.groups)
        ]

    def forward(self, x: np.ndarray) -> np.ndarray:
        backend = self.backend or default_backend()
        direct, wmats = self._prepared.get(
            backend, self.weight, "fwd", lambda: [r.T for r in self._group_rows()], direct=True
        )
        bias = self.bias.data if self.bias is not None else None
        out, saved = F.conv2d_forward(
            x, self.weight.data, bias, self.stride, self.padding, backend,
            groups=self.groups, prepared_weights=wmats, direct=direct,
        )
        # The packed image when the forward packed one: the dW GEMMs
        # gather their patches from it rather than packing them again.
        self._cache = (x.shape, saved) if self.training else None
        return out

    def backward(self, grad: np.ndarray, *, input_grad: bool = False) -> np.ndarray | None:
        x_shape, saved = _require(self._cache)
        backend = self.backend or default_backend()
        wrows = None
        if input_grad:
            wrows = self._prepared.get(backend, self.weight, "bwd", self._group_rows)
        dx, dw, db = F.conv2d_backward(
            grad, x_shape, saved, self.weight.data, self.stride, self.padding, backend,
            groups=self.groups, prepared_weights=wrows, input_grad=input_grad,
        )
        self.weight.grad += dw
        if self.bias is not None:
            self.bias.grad += db
        return dx


class Linear(Module):
    """Fully connected layer via the backend GEMM."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        label: str | None = None,
        backend: MatmulBackend | None = None,
        rng: np.random.Generator | None = None,
    ):
        rng = rng or np.random.default_rng(0)
        self.weight = Parameter(
            _he_init(rng, (out_features, in_features), in_features), "linear.weight"
        )
        self.bias = Parameter(np.zeros(out_features), "linear.bias") if bias else None
        self.label = label
        self.backend = backend
        self._x: np.ndarray | None = None
        self._prepared = _PreparedWeightCache()

    def to_plan_op(self):
        """Linear spec: feature dimensions."""
        out_features, in_features = self.weight.data.shape
        return _plan_spec(
            "linear", self,
            in_features=in_features, out_features=out_features, label=self.label,
        )

    def forward(self, x: np.ndarray) -> np.ndarray:
        backend = self.backend or default_backend()
        self._x = x if self.training else None
        wt = self._prepared.get(backend, self.weight, "fwd", lambda: self.weight.data.T)
        bias = self.bias.data if self.bias is not None else None
        return F.linear(x, lambda a: backend.matmul(a, wt), bias)

    def backward(self, grad: np.ndarray, *, input_grad: bool = False) -> np.ndarray | None:
        x = _require(self._x)
        backend = self.backend or default_backend()
        if grad.ndim > 2:
            # Sequence inputs: fold the leading axes into rows for the
            # weight/bias gradients, keep the batched shape for dx.
            grad2 = np.ascontiguousarray(grad.reshape(-1, grad.shape[-1]))
            x2 = np.ascontiguousarray(x.reshape(-1, x.shape[-1]))
        else:
            grad2, x2 = grad, x
        self.weight.grad += backend.matmul(grad2.T, x2)
        if self.bias is not None:
            self.bias.grad += grad2.sum(axis=0)
        if not input_grad:
            return None
        w = self._prepared.get(backend, self.weight, "bwd", lambda: self.weight.data)
        return backend.matmul(grad, w).astype(np.float32)


class ReLU(Module):
    """Rectified linear unit."""

    def __init__(self) -> None:
        self._mask: np.ndarray | None = None

    def to_plan_op(self):
        """Elementwise spec (no attributes)."""
        return _plan_spec("relu", self)

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._mask = x > 0 if self.training else None
        return F.relu(x)

    def backward(self, grad: np.ndarray, *, input_grad: bool = False) -> np.ndarray | None:
        mask = _require(self._mask)
        return np.where(mask, grad, 0.0).astype(np.float32) if input_grad else None


class MaxPool2d(Module):
    """Non-overlapping max pooling."""

    def __init__(self, size: int = 2):
        self.size = size
        self._cache: tuple | None = None

    def to_plan_op(self):
        """Pooling spec: window size."""
        return _plan_spec("maxpool2d", self, size=self.size)

    def forward(self, x: np.ndarray) -> np.ndarray:
        if not self.training:
            self._cache = None
            return F.maxpool2d(x, self.size)
        out, arg = F.maxpool2d_forward(x, self.size)
        self._cache = (x.shape, arg)
        return out

    def backward(self, grad: np.ndarray, *, input_grad: bool = False) -> np.ndarray | None:
        x_shape, arg = _require(self._cache)
        return F.maxpool2d_backward(grad, arg, x_shape, self.size) if input_grad else None


class GlobalAvgPool(Module):
    """Global average pooling to ``(N, C)``."""

    def __init__(self) -> None:
        self._shape: tuple | None = None

    def to_plan_op(self):
        """Pooling spec (no attributes)."""
        return _plan_spec("global_avg_pool", self)

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._shape = x.shape if self.training else None
        return F.avgpool_global_forward(x)

    def backward(self, grad: np.ndarray, *, input_grad: bool = False) -> np.ndarray | None:
        shape = _require(self._shape)
        return F.avgpool_global_backward(grad, shape) if input_grad else None


class BatchNorm2d(Module):
    """Batch normalisation over (N, H, W) per channel, with running stats."""

    def __init__(self, channels: int, momentum: float = 0.1, eps: float = 1e-5):
        self.gamma = Parameter(np.ones(channels), "bn.gamma")
        self.beta = Parameter(np.zeros(channels), "bn.beta")
        self.running_mean = np.zeros(channels, dtype=np.float32)
        self.running_var = np.ones(channels, dtype=np.float32)
        self.momentum = momentum
        self.eps = eps
        self._cache: tuple | None = None

    def to_plan_op(self):
        """Normalisation spec: channel count (stats captured at compile)."""
        return _plan_spec("batchnorm2d", self, channels=self.gamma.data.shape[0])

    def forward(self, x: np.ndarray) -> np.ndarray:
        if self.training:
            mean = x.mean(axis=(0, 2, 3))
            var = x.var(axis=(0, 2, 3))
            self.running_mean = (1 - self.momentum) * self.running_mean + self.momentum * mean
            self.running_var = (1 - self.momentum) * self.running_var + self.momentum * var
        else:
            mean, var = self.running_mean, self.running_var
        inv_std = F.batchnorm_inv_std(var, self.eps)
        out, x_hat = F.batchnorm2d(x, mean, inv_std, self.gamma.data, self.beta.data)
        self._cache = (x_hat, inv_std) if self.training else None
        return out

    def backward(self, grad: np.ndarray, *, input_grad: bool = False) -> np.ndarray | None:
        x_hat, inv_std = _require(self._cache)
        n, _c, h, w = grad.shape
        m = n * h * w
        self.gamma.grad += (grad * x_hat).sum(axis=(0, 2, 3))
        self.beta.grad += grad.sum(axis=(0, 2, 3))
        if not input_grad:
            return None

        g = grad * self.gamma.data[None, :, None, None]
        sum_g = g.sum(axis=(0, 2, 3), keepdims=True)
        sum_gx = (g * x_hat).sum(axis=(0, 2, 3), keepdims=True)
        dx = (inv_std[None, :, None, None] / m) * (m * g - sum_g - x_hat * sum_gx)
        return dx.astype(np.float32)


class LayerNorm(Module):
    """Layer normalisation over the trailing feature axis."""

    def __init__(self, dim: int, eps: float = 1e-5):
        self.gamma = Parameter(np.ones(dim), "ln.gamma")
        self.beta = Parameter(np.zeros(dim), "ln.beta")
        self.eps = eps
        self._cache: tuple | None = None

    def to_plan_op(self):
        """Normalisation spec: feature dimension."""
        return _plan_spec("layernorm", self, dim=self.gamma.data.shape[0])

    def forward(self, x: np.ndarray) -> np.ndarray:
        out, cache = F.layernorm_forward(x, self.gamma.data, self.beta.data, self.eps)
        self._cache = cache if self.training else None
        return out

    def backward(self, grad: np.ndarray, *, input_grad: bool = False) -> np.ndarray | None:
        dx, dgamma, dbeta = F.layernorm_backward(grad, self.gamma.data, _require(self._cache))
        self.gamma.grad += dgamma
        self.beta.grad += dbeta
        return dx if input_grad else None


class Softmax(Module):
    """Softmax over the trailing axis (stabilised, any rank)."""

    def __init__(self) -> None:
        self._probs: np.ndarray | None = None

    def to_plan_op(self):
        """Elementwise-row spec (no attributes)."""
        return _plan_spec("softmax", self)

    def forward(self, x: np.ndarray) -> np.ndarray:
        probs = F.softmax(x).astype(np.float32)
        self._probs = probs if self.training else None
        return probs

    def backward(self, grad: np.ndarray, *, input_grad: bool = False) -> np.ndarray | None:
        probs = _require(self._probs)
        return F.softmax_backward(grad, probs) if input_grad else None


class MultiHeadAttention(Module):
    """Multi-head self-attention on ``(N, T, D)`` sequences.

    The QKV and output projections are :class:`Linear` layers (prepared
    approximate GEMMs over the batch-folded rows); the per-head
    ``Q K^T`` and ``A V`` products stream through the backend, one
    ``matmul_pairs`` call over all (sample, head) pairs, via
    :func:`repro.nn.functional.attention_core`, so every multiply in the
    block lands on the DAISM datapath.
    """

    def __init__(
        self,
        d_model: int,
        heads: int,
        backend: MatmulBackend | None = None,
        rng: np.random.Generator | None = None,
    ):
        if d_model % heads:
            raise ValueError(f"d_model={d_model} not divisible by heads={heads}")
        rng = rng or np.random.default_rng(0)
        self.qkv = Linear(d_model, 3 * d_model, label="qkv_proj", backend=backend, rng=rng)
        self.out = Linear(d_model, d_model, label="attn_out", backend=backend, rng=rng)
        self.heads = heads
        self.scale = float(1.0 / np.sqrt(d_model // heads))
        self.backend = backend
        self._cache: tuple | None = None

    def to_plan_op(self):
        """Attention spec: model width and head count."""
        return _plan_spec(
            "attention", self, d_model=self.qkv.weight.data.shape[1], heads=self.heads
        )

    def forward(self, x: np.ndarray) -> np.ndarray:
        backend = self.backend or default_backend()
        out, cache = F.attention(x, self.qkv, self.out, self.heads, self.scale, backend)
        self._cache = cache if self.training else None
        return out

    def backward(self, grad: np.ndarray, *, input_grad: bool = False) -> np.ndarray | None:
        q, k, v, probs = _require(self._cache)
        backend = self.backend or default_backend()
        d_context = F.split_heads(self.out.backward(grad, input_grad=True), self.heads)
        dq, dk, dv = F.attention_core_backward(
            d_context, q, k, v, probs, backend, self.scale
        )
        d_qkv = np.concatenate(
            [F.merge_heads(dq), F.merge_heads(dk), F.merge_heads(dv)], axis=-1
        )
        return self.qkv.backward(d_qkv, input_grad=input_grad)


class Dropout(Module):
    """Inverted dropout (identity in eval mode).

    Besides regularisation, dropout increases activation sparsity — the
    very signal the DAISM zero-bypass exploits (see
    :mod:`repro.arch.scheduler`).
    """

    def __init__(self, p: float = 0.5, seed: int = 0):
        if not 0.0 <= p < 1.0:
            raise ValueError("dropout probability must be in [0, 1)")
        self.p = p
        self._rng = np.random.default_rng(seed)
        self._mask: np.ndarray | None = None

    def to_plan_op(self):
        """Dropout spec — an identity at inference, elided from plans."""
        return _plan_spec("dropout", self, p=self.p)

    def forward(self, x: np.ndarray) -> np.ndarray:
        if not self.training:
            self._mask = None
            return x
        if self.p == 0.0:
            self._mask = np.float32(1.0)  # identity, yet a training forward
            return x
        keep = 1.0 - self.p
        self._mask = (self._rng.random(x.shape) < keep).astype(np.float32) / keep
        return (x * self._mask).astype(np.float32)

    def backward(self, grad: np.ndarray, *, input_grad: bool = False) -> np.ndarray | None:
        mask = _require(self._mask)
        return (grad * mask).astype(np.float32) if input_grad else None


class Flatten(Module):
    """``(N, ...) -> (N, prod)``."""

    def __init__(self) -> None:
        self._shape: tuple | None = None

    def to_plan_op(self):
        """Reshape spec (no attributes)."""
        return _plan_spec("flatten", self)

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._shape = x.shape if self.training else None
        return x.reshape(x.shape[0], -1)

    def backward(self, grad: np.ndarray, *, input_grad: bool = False) -> np.ndarray | None:
        shape = _require(self._shape)
        return grad.reshape(shape) if input_grad else None


class Sequential(Module):
    """Chain of modules executed in order."""

    def __init__(self, *modules: Module):
        self.modules = list(modules)

    def forward(self, x: np.ndarray) -> np.ndarray:
        for module in self.modules:
            x = module(x)
        return x

    def backward(self, grad: np.ndarray, *, input_grad: bool = False) -> np.ndarray | None:
        """Back through the chain; each module but the first returns its input gradient."""
        for i in range(len(self.modules) - 1, -1, -1):
            grad = self.modules[i].backward(grad, input_grad=input_grad or i > 0)
        return grad

    def parameters(self) -> list[Parameter]:
        params: list[Parameter] = []
        for module in self.modules:
            params.extend(module.parameters())
        return params

    def _set_mode(self, training: bool) -> None:
        self.training = training
        for module in self.modules:
            module._set_mode(training)


class Residual(Module):
    """``y = f(x) + shortcut(x)`` — the ResNet building block."""

    def __init__(self, body: Module, shortcut: Module | None = None):
        self.body = body
        self.shortcut = shortcut

    def forward(self, x: np.ndarray) -> np.ndarray:
        main = self.body(x)
        skip = self.shortcut(x) if self.shortcut is not None else x
        return F.residual_add(main, skip)

    def backward(self, grad: np.ndarray, *, input_grad: bool = False) -> np.ndarray | None:
        d_main = self.body.backward(grad, input_grad=input_grad)
        d_skip = grad
        if self.shortcut is not None:
            d_skip = self.shortcut.backward(grad, input_grad=input_grad)
        return (d_main + d_skip).astype(np.float32) if input_grad else None

    def parameters(self) -> list[Parameter]:
        params = self.body.parameters()
        if self.shortcut is not None:
            params.extend(self.shortcut.parameters())
        return params

    def _set_mode(self, training: bool) -> None:
        self.training = training
        self.body._set_mode(training)
        if self.shortcut is not None:
            self.shortcut._set_mode(training)
