"""Plan ops: the compiled form of one layer's forward computation.

A compiled :class:`ExecutionPlan <repro.runtime.plan.ExecutionPlan>` is a
flat tuple of the op objects defined here.  Each op captures everything
its layer needs at *compile* time — resolved GEMM kernel, pre-packed
weight planes, snapshotted BatchNorm statistics — so steady-state
execution performs zero backend lookups, zero ``prepare()`` calls and no
Python recursion: the plan loop is ``for op in ops: x = op.apply(x, ctx)``.

Every op is **immutable and thread-safe**: ``apply`` reads captured
arrays and writes only fresh ones, so one plan can execute concurrently
on many shards (see :mod:`repro.runtime.engine`).  Ops are also
**row-independent** (sample ``i``'s output depends only on sample ``i``'s
input) except where noted.  The packed GEMM kernels sum each output in
one fixed K order whatever the row count, so shard-parallel execution —
and any batch a request is coalesced into — is byte-identical to running
each sample alone.

The layer seam is :class:`OpSpec`: every leaf layer in
:mod:`repro.nn.layers` exposes ``to_plan_op()`` returning a spec (kind +
static shape attributes + the source module), and both the runtime
compiler and the accelerator co-sim
(:func:`repro.runtime.plan.conv_workload`) consume that one description
instead of re-walking the module tree with their own shape logic.

Two optimisations over the eager path live here.  The conv ops pack a
convolution *input image* once and gather the packed bit planes through
im2col (:func:`gather_packed_cols`), instead of materialising the
``K*K``-fold redundant patch matrix and quantising every copy.  Quantisation is elementwise, so
the gathered planes are byte-identical to ``pack(im2col(x))`` — the
~``K*K``x cut in quantise/decompose work is free of any numerical
change.  A conv whose table fits (LeNet's convs, MobileNet's stem and
depthwise convs) skips im2col altogether: one table serves all its
groups, and a tap loop over the packed image sums the same products in
the same order (see :class:`ConvOp`).
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ..core.gemm import dense_matmul
from ..core.kernels import FloatTableKernel, GemmKernel, PreparedWeight
from ..formats.floatfmt import FloatFormat, quantize
from ..formats.packed import PackedTensor, pack
from ..nn import functional as F

__all__ = [
    "OpSpec",
    "ExecContext",
    "PlanOp",
    "MatmulStrategy",
    "ExactStrategy",
    "QuantDenseStrategy",
    "PackedKernelStrategy",
    "BackendStrategy",
    "gather_packed_cols",
    "ConvOp",
    "LinearOp",
    "AttentionOp",
    "LayerNormOp",
    "SoftmaxOp",
    "ReluOp",
    "MaxPoolOp",
    "GlobalAvgPoolOp",
    "BatchNormOp",
    "FlattenOp",
    "StackPushOp",
    "StackSwapOp",
    "StackAddPopOp",
]


@dataclasses.dataclass(frozen=True)
class OpSpec:
    """One layer's declarative description — the ``to_plan_op()`` seam.

    Parameters
    ----------
    kind:
        Op discriminator (``"conv2d"``, ``"linear"``, ``"relu"``,
        ``"maxpool2d"``, ``"global_avg_pool"``, ``"batchnorm2d"``,
        ``"dropout"``, ``"flatten"``, or the residual control kinds
        ``"stack_push"`` / ``"stack_swap"`` / ``"stack_add_pop"``).
    attrs:
        Static shape/config attributes (e.g. a conv's ``in_channels``,
        ``kernel``, ``stride``, ``padding``) — everything the
        accelerator co-sim needs to derive layer shapes without touching
        weights.
    module:
        The source :class:`~repro.nn.layers.Module`, from which the
        compiler captures weights; ``None`` for control ops.
    """

    kind: str
    attrs: dict = dataclasses.field(default_factory=dict)
    module: object = None


@dataclasses.dataclass
class ExecContext:
    """Per-execution state threaded through the op loop.

    ``stack`` holds residual shortcut activations for the flattened
    control ops.
    """

    stack: list = dataclasses.field(default_factory=list)


class PlanOp:
    """Interface: one compiled step of an execution plan."""

    #: Op discriminator, mirrors the producing ``OpSpec.kind``.
    kind = "abstract"
    #: Layer name used in ``ExecutionPlan.describe()`` rows.
    name = ""
    #: Whether sample ``i``'s output depends only on sample ``i``'s
    #: input (required for shard-parallel execution).
    row_independent = True

    def apply(self, x: np.ndarray, ctx: ExecContext) -> np.ndarray:
        """Compute this op's output for (a shard of) the batch."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name or self.kind})"


# --------------------------------------------------------------------------
# Matmul strategies: the arithmetic resolved once at compile time
# --------------------------------------------------------------------------


class MatmulStrategy:
    """A weight's resolved arithmetic: ``(rows, K) @ prepared -> (rows, N)``.

    Strategies are built by the compiler from the backend *once*; their
    ``matmul2d`` runs the steady-state product with no backend lookup
    and no ``prepare()`` call.
    """

    #: Sample rows are independent — sharding the row dimension is
    #: byte-identical.
    row_independent = True
    #: Whether the conv path should hand this strategy pre-packed
    #: im2col planes (see :func:`gather_packed_cols`) instead of a float matrix.
    packed_input = False
    #: Whether packed inputs must carry the dense value plane.
    needs_dense = False
    #: The kernel-tier name behind this strategy, for introspection
    #: (``ExecutionPlan.describe``/``plan_tiers``); ``None`` for
    #: strategies with no registry kernel (e.g. exact float32 BLAS).
    kernel_name: str | None = None
    #: The weight layout the kernel runs (see
    #: :func:`repro.core.kernels.weight_layout`); ``None`` without one.
    layout: str | None = None

    def matmul2d(self, a: np.ndarray) -> np.ndarray:
        """Product of a 2-D float operand against the prepared weight."""
        raise NotImplementedError


class ExactStrategy(MatmulStrategy):
    """Plain float32 BLAS against the prepared (cast-once) weight."""

    def __init__(self, weight: np.ndarray):
        self.weight = weight

    def matmul2d(self, a: np.ndarray) -> np.ndarray:
        return dense_matmul(np.asarray(a, dtype=np.float32), self.weight)


class QuantDenseStrategy(MatmulStrategy):
    """Quantise the activation, BLAS against the quantised dense weight."""

    kernel_name = "dense_blas"

    def __init__(self, fmt: FloatFormat, weight_q: np.ndarray):
        self.fmt = fmt
        self.weight_q = weight_q

    def matmul2d(self, a: np.ndarray) -> np.ndarray:
        return dense_matmul(quantize(a, self.fmt), self.weight_q)


class PackedKernelStrategy(MatmulStrategy):
    """A resolved packed GEMM kernel against pre-packed weight planes.

    Covers both the DAISM datapath (``config`` set) and the
    quantised-with-kernel path (``config=None`` — exact significand
    products).  The kernel arranges the weight once, here at compile
    time (:meth:`~repro.core.kernels.GemmKernel.prepare`), and every
    call runs against that arrangement.
    """

    packed_input = True

    def __init__(
        self,
        fmt: FloatFormat,
        config,
        kernel: GemmKernel,
        weight: PackedTensor,
    ):
        self.fmt = fmt
        self.config = config
        self.kernel = kernel
        self.prepared = kernel.prepare(weight, config)
        # Only the non-bit-exact (BLAS-factored) kernel reads the dense
        # value plane; gathering it for the others would be wasted work.
        # An unknown kernel that does read it still works — PackedTensor
        # falls back to recomposing dense values from the planes.
        self.needs_dense = not kernel.bit_exact
        self.kernel_name = kernel.name

    @property
    def weight(self) -> PackedTensor:
        """The packed weight planes."""
        return self.prepared.weight

    @property
    def layout(self) -> str | None:  # type: ignore[override]
        """The prepared weight's layout."""
        return self.prepared.layout

    def matmul2d(self, a: np.ndarray) -> np.ndarray:
        return self.matmul_packed(pack(a, self.fmt))

    def matmul_packed(self, pa: PackedTensor) -> np.ndarray:
        """Run the kernel on already-packed activation planes.

        Goes through ``self.kernel``, so a kernel swapped in after
        compilation (e.g. fault injection) runs on the prepared weight.
        """
        if pa.shape[-1] != self.weight.shape[0]:
            raise ValueError(f"shape mismatch for matmul: {pa.shape} @ {self.weight.shape}")
        return self.kernel.run_prepared(pa, self.prepared)


class BackendStrategy(MatmulStrategy):
    """Generic fallback: delegate to ``backend.matmul`` with a prepared weight.

    Used for backends the compiler has no specialised strategy for
    (e.g. the block-floating-point backend).  Still skips per-call
    ``prepare()`` work, but the backend owns its own chunking and may
    couple samples (BFP shares one exponent per matrix), so plans
    containing this strategy refuse shard-parallel execution.
    """

    row_independent = False

    def __init__(self, backend, prepared):
        self.backend = backend
        self.prepared = prepared

    def matmul2d(self, a: np.ndarray) -> np.ndarray:
        """``backend.matmul`` of ``a`` as given, batched operands included."""
        return self.backend.matmul(a, self.prepared)


# --------------------------------------------------------------------------
# Packed im2col: quantise the image once, gather planes K*K-fold
# --------------------------------------------------------------------------


def gather_packed_cols(
    packed: PackedTensor,
    kernel: int,
    stride: int,
    padding: int,
    need_dense: bool = False,
) -> PackedTensor:
    """Gather already-packed image planes through im2col.

    ``gather_packed_cols(pack(x, fmt), ...)`` is byte-identical to
    ``pack(im2col(x), fmt)``: quantisation is elementwise, so it
    commutes with the gather, and zero padding packs to all-zero planes.

    Columns come in im2col's ``(c, kh, kw)`` order, so the columns of a
    channel group form one contiguous block (see :func:`_column_block`).
    """

    def gather(plane: np.ndarray) -> np.ndarray:
        return F.im2col(plane, kernel, stride, padding)

    cols = PackedTensor(
        packed.fmt,
        gather(packed.sign),
        gather(packed.exponent),
        gather(packed.significand),
    )
    cols._scale = gather(packed.scale())
    if need_dense:
        cols._dense = gather(packed.dense())
    return cols


def _column_block(cols: PackedTensor, start: int, stop: int) -> PackedTensor:
    """Columns ``start:stop`` of packed patch planes, as views."""
    block = PackedTensor(
        cols.fmt,
        cols.sign[:, start:stop],
        cols.exponent[:, start:stop],
        cols.significand[:, start:stop],
    )
    block._scale = cols.scale()[:, start:stop]
    if cols._dense is not None:
        block._dense = cols._dense[:, start:stop]
    return block


# --------------------------------------------------------------------------
# Compiled ops
# --------------------------------------------------------------------------


def _prepare_direct(strategies: tuple[MatmulStrategy, ...]) -> PreparedWeight | None:
    """A :data:`~repro.core.kernels.DIRECT` weight for a conv's strategies, if any.

    Only ``float_table`` strategies qualify, and only weights
    :meth:`~repro.core.kernels.FloatTableKernel.prepare_direct` accepts.
    """
    first = strategies[0]
    if not all(
        isinstance(s, PackedKernelStrategy) and isinstance(s.kernel, FloatTableKernel)
        for s in strategies
    ):
        return None
    return first.kernel.prepare_direct([s.weight for s in strategies], first.config)


class ConvOp(PlanOp):
    """im2col convolution: one pre-resolved strategy per channel group.

    ``groups=1`` is the one-strategy case.  A conv whose weights took a
    :data:`~repro.core.kernels.DIRECT` layout at compile time runs as
    one tap loop over the packed image
    (:meth:`~repro.core.kernels.FloatTableKernel.run_direct`).  Calls
    outside ``f32_exact``, and strategies whose kernel was swapped for a
    non-``float_table`` one after compilation (fault injection), take
    the im2col path; both give the same bits.  That path packs and
    gathers the input image *once* (see :func:`gather_packed_cols`) and
    hands each group its contiguous block of patch columns —
    byte-identical to the eager per-group ``pack(im2col(x[:, slice]))``.
    """

    kind = "conv2d"

    def __init__(
        self,
        strategies: tuple[MatmulStrategy, ...],
        bias: np.ndarray | None,
        in_channels: int,
        out_channels: int,
        kernel: int,
        stride: int,
        padding: int,
        name: str = "conv2d",
    ):
        self.strategies = tuple(strategies)
        self.groups = len(self.strategies)
        self.bias = bias
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel = kernel
        self.stride = stride
        self.padding = padding
        self.name = name
        self.row_independent = all(s.row_independent for s in self.strategies)
        self.direct = _prepare_direct(self.strategies)

    @property
    def layout(self) -> str | None:
        """The direct layout's name; ``None`` when the strategies run their own."""
        return None if self.direct is None else self.direct.layout

    def _run_direct(self, packed: PackedTensor) -> np.ndarray | None:
        """The direct layout's NCHW output plus bias; ``None`` to take im2col."""
        if not all(isinstance(s.kernel, FloatTableKernel) for s in self.strategies):
            return None
        return F.direct_conv2d(
            self.strategies[0].kernel, packed, self.direct, self.bias,
            self.kernel, self.stride, self.padding, self.groups,
        )

    def apply(self, x: np.ndarray, ctx: ExecContext) -> np.ndarray:
        n, c, h, w = x.shape
        if c != self.in_channels:
            raise ValueError(f"{self.name}: input has {c} channels, expected {self.in_channels}")
        cg = c // self.groups
        oh = (h + 2 * self.padding - self.kernel) // self.stride + 1
        ow = (w + 2 * self.padding - self.kernel) // self.stride + 1
        first = self.strategies[0]
        if first.packed_input:
            packed = pack(np.ascontiguousarray(x, dtype=np.float32), first.fmt)
            direct = self._run_direct(packed)
            if direct is not None:
                return direct
            cols = gather_packed_cols(
                packed, self.kernel, self.stride, self.padding,
                any(s.needs_dense for s in self.strategies),
            )
        width = cg * self.kernel * self.kernel
        outs = []
        for g, strategy in enumerate(self.strategies):
            if strategy.packed_input:
                out_g = strategy.matmul_packed(_column_block(cols, g * width, (g + 1) * width))
            else:
                channels = slice(g * cg, (g + 1) * cg)
                cols_g = F.im2col(x[:, channels], self.kernel, self.stride, self.padding)
                if isinstance(strategy, BackendStrategy):
                    # Keep the eager operand shape: generic backends may
                    # couple the whole (batched) matrix (e.g. BFP's shared
                    # exponent spans everything the eager call handed it).
                    cols_g = cols_g.reshape(n, oh * ow, -1)
                out_g = strategy.matmul2d(cols_g)
            outs.append(out_g.reshape(n, oh * ow, -1))
        out = outs[0] if len(outs) == 1 else np.concatenate(outs, axis=2)
        if self.bias is not None:
            out = out + self.bias[None, None, :]
        out = out.reshape(n, oh, ow, self.out_channels).transpose(0, 3, 1, 2)
        return np.ascontiguousarray(out, dtype=np.float32)


class LinearOp(PlanOp):
    """Fully connected product with a pre-resolved strategy.

    Accepts sequence inputs ``(N, T, D)`` as well as ``(N, D)``: the
    leading axes fold into GEMM rows exactly as the eager backend does.
    """

    kind = "linear"

    def __init__(self, strategy: MatmulStrategy, bias: np.ndarray | None, name: str = "linear"):
        self.strategy = strategy
        self.bias = bias
        self.name = name
        self.row_independent = strategy.row_independent

    def apply(self, x: np.ndarray, ctx: ExecContext) -> np.ndarray:
        if x.ndim > 2:
            if isinstance(self.strategy, BackendStrategy):
                out = self.strategy.matmul2d(x)
            else:
                rows = np.ascontiguousarray(x.reshape(-1, x.shape[-1]))
                out = self.strategy.matmul2d(rows).reshape(*x.shape[:-1], -1)
        else:
            out = self.strategy.matmul2d(x)
        if self.bias is not None:
            out = out + self.bias[None, :]
        return out.astype(np.float32, copy=False)


class AttentionOp(PlanOp):
    """Multi-head self-attention with pre-resolved projection strategies.

    The QKV and output projections run through compiled
    :class:`MatmulStrategy` instances (pre-packed weights); the
    ``Q K^T``/``A V`` products of all (sample, head) pairs call the
    captured backend's ``matmul_pairs`` through the same
    :func:`repro.nn.functional.attention_core` the eager layer uses, so
    the whole block is byte-identical by construction.  Those inner
    GEMM shapes depend only on ``(T, Dh)``, never the batch, which
    keeps the op row-independent whenever its projections are.
    """

    kind = "attention"

    def __init__(
        self,
        qkv_strategy: MatmulStrategy,
        qkv_bias: np.ndarray | None,
        out_strategy: MatmulStrategy,
        out_bias: np.ndarray | None,
        heads: int,
        scale: float,
        backend,
        name: str = "attention",
    ):
        self.qkv_strategy = qkv_strategy
        self.qkv_bias = qkv_bias
        self.out_strategy = out_strategy
        self.out_bias = out_bias
        self.heads = heads
        self.scale = scale
        self.backend = backend
        self.name = name
        self.row_independent = (
            qkv_strategy.row_independent and out_strategy.row_independent
        )

    @property
    def strategies(self) -> tuple[MatmulStrategy, ...]:
        return (self.qkv_strategy, self.out_strategy)

    def _project(
        self,
        strategy: MatmulStrategy,
        bias: np.ndarray | None,
        x: np.ndarray,
    ) -> np.ndarray:
        n, t, _d = x.shape
        if isinstance(strategy, BackendStrategy):
            out = strategy.matmul2d(x)
        else:
            out = strategy.matmul2d(np.ascontiguousarray(x.reshape(n * t, -1)))
            out = out.reshape(n, t, -1)
        if bias is not None:
            out = out + bias[None, :]
        return out.astype(np.float32, copy=False)

    def apply(self, x: np.ndarray, ctx: ExecContext) -> np.ndarray:
        d = x.shape[2]
        qkv = self._project(self.qkv_strategy, self.qkv_bias, x)
        q = F.split_heads(np.ascontiguousarray(qkv[..., :d]), self.heads)
        k = F.split_heads(np.ascontiguousarray(qkv[..., d : 2 * d]), self.heads)
        v = F.split_heads(np.ascontiguousarray(qkv[..., 2 * d :]), self.heads)
        context, _probs = F.attention_core(q, k, v, self.backend, self.scale)
        return self._project(self.out_strategy, self.out_bias, F.merge_heads(context))


class LayerNormOp(PlanOp):
    """Layer normalisation over captured affine parameters."""

    kind = "layernorm"

    def __init__(self, gamma: np.ndarray, beta: np.ndarray, eps: float, name: str = "layernorm"):
        self.gamma = gamma
        self.beta = beta
        self.eps = eps
        self.name = name

    def apply(self, x: np.ndarray, ctx: ExecContext) -> np.ndarray:
        out, _cache = F.layernorm_forward(x, self.gamma, self.beta, self.eps)
        return out


class SoftmaxOp(PlanOp):
    """Softmax over the trailing axis."""

    kind = "softmax"
    name = "softmax"

    def apply(self, x: np.ndarray, ctx: ExecContext) -> np.ndarray:
        return F.softmax(x).astype(np.float32, copy=False)


class ReluOp(PlanOp):
    """Rectified linear unit."""

    kind = "relu"
    name = "relu"

    def apply(self, x: np.ndarray, ctx: ExecContext) -> np.ndarray:
        # Same values as the eager `np.where(mask, x, 0.0).astype(f32)`;
        # copy=False skips the eager path's redundant second copy.
        return np.where(x > 0, x, np.float32(0.0)).astype(np.float32, copy=False)


class MaxPoolOp(PlanOp):
    """Non-overlapping max pooling."""

    kind = "maxpool2d"

    def __init__(self, size: int):
        self.size = size
        self.name = f"maxpool{size}"

    def apply(self, x: np.ndarray, ctx: ExecContext) -> np.ndarray:
        # Inference needs no argmax cache for backward: an elementwise
        # maximum over the window taps picks the same values as the
        # eager argmax+gather at a fraction of its cost.
        n, c, h, w = x.shape
        size = self.size
        if h % size or w % size:
            raise ValueError(f"spatial dims {h}x{w} not divisible by pool size {size}")
        windows = x.reshape(n, c, h // size, size, w // size, size)
        out = windows[:, :, :, 0, :, 0]
        for i in range(size):
            for j in range(size):
                if i or j:
                    out = np.maximum(out, windows[:, :, :, i, :, j])
        return out.astype(np.float32, copy=False)


class GlobalAvgPoolOp(PlanOp):
    """Global average pooling to ``(N, C)``."""

    kind = "global_avg_pool"
    name = "global_avg_pool"

    def apply(self, x: np.ndarray, ctx: ExecContext) -> np.ndarray:
        return F.avgpool_global_forward(x)


class BatchNormOp(PlanOp):
    """Inference batch norm over snapshotted running statistics.

    Captures the layer's running mean/var and affine parameters at
    compile time and replays the eval-mode arithmetic of
    :class:`~repro.nn.layers.BatchNorm2d` operation-for-operation, so
    outputs are byte-identical to the eager eval pass.
    """

    kind = "batchnorm2d"

    def __init__(
        self,
        gamma: np.ndarray,
        beta: np.ndarray,
        mean: np.ndarray,
        var: np.ndarray,
        eps: float,
        name: str = "batchnorm2d",
    ):
        self.gamma = gamma
        self.beta = beta
        self.mean = mean
        # Same expression (and therefore the same bits) as the eager
        # eval branch computes per forward.
        self.inv_std = 1.0 / np.sqrt(var + eps)
        self.name = name

    def apply(self, x: np.ndarray, ctx: ExecContext) -> np.ndarray:
        x_hat = (x - self.mean[None, :, None, None]) * self.inv_std[None, :, None, None]
        out = self.gamma[None, :, None, None] * x_hat + self.beta[None, :, None, None]
        return out.astype(np.float32, copy=False)


class FlattenOp(PlanOp):
    """``(N, ...) -> (N, prod)``."""

    kind = "flatten"
    name = "flatten"

    def apply(self, x: np.ndarray, ctx: ExecContext) -> np.ndarray:
        return x.reshape(x.shape[0], -1)


class StackPushOp(PlanOp):
    """Save the current activation for a residual shortcut."""

    kind = "stack_push"
    name = "residual:push"

    def apply(self, x: np.ndarray, ctx: ExecContext) -> np.ndarray:
        ctx.stack.append(x)
        return x


class StackSwapOp(PlanOp):
    """Swap the current activation with the saved one.

    After the residual body ran, the current value is the body output
    and the stack holds the block input; swapping lets the shortcut ops
    consume the input while the body output waits on the stack.
    """

    kind = "stack_swap"
    name = "residual:swap"

    def apply(self, x: np.ndarray, ctx: ExecContext) -> np.ndarray:
        saved = ctx.stack[-1]
        ctx.stack[-1] = x
        return saved


class StackAddPopOp(PlanOp):
    """Pop the saved activation and add — the residual join."""

    kind = "stack_add_pop"
    name = "residual:add"

    def apply(self, x: np.ndarray, ctx: ExecContext) -> np.ndarray:
        saved = ctx.stack.pop()
        if saved.shape != x.shape:
            raise ValueError(f"residual shape mismatch: {saved.shape} vs {x.shape}")
        return (saved + x).astype(np.float32, copy=False)
