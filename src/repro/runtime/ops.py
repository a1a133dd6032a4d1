"""Plan ops: the compiled form of one layer's forward computation.

A compiled :class:`ExecutionPlan <repro.runtime.plan.ExecutionPlan>` is a
flat tuple of the op objects defined here.  Each op captures everything
its layer needs at *compile* time — resolved GEMM kernel, pre-packed
weight planes, snapshotted BatchNorm statistics — so steady-state
execution performs zero backend lookups, zero ``prepare()`` calls and no
Python recursion: the plan loop is ``for op in ops: x = op.apply(x, ctx)``.

An op owns no arithmetic: ``apply`` calls the :mod:`repro.nn.functional`
function its eager layer calls (``F.linear``, ``F.relu``,
``F.maxpool2d``, ``F.batchnorm2d``, ``F.residual_add``, ``F.attention``,
``F.conv2d_output``, ...) on its captured arrays, a
:class:`MatmulStrategy` standing in for the layer's backend, so plan and
eager eval are byte-identical by construction.  Ops never call layer
objects, so a plan stays bound to its compile-time state and backend.

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

What only the plan has lives here: the strategies, and the conv's
packed im2col, which packs the *input image* once and gathers the
packed planes through im2col (:func:`~repro.nn.functional.gather_packed_cols`,
re-exported here, where the perf harness wraps it) instead of
quantising the ``K*K``-fold redundant patch matrix — byte-identical,
since quantisation is elementwise.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ..core.gemm import dense_matmul
from ..core.kernels import FloatTableKernel, GemmKernel, PreparedWeight
from ..formats.floatfmt import FloatFormat, quantize
from ..formats.packed import PackedTensor, pack
from ..nn import functional as F
from ..nn.functional import gather_packed_cols

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
    #: The op's GEMM strategies, in order: one per conv group, one for
    #: a linear, QKV then output projection for attention.
    strategies: tuple = ()
    #: A weight layout the op runs itself (a direct conv), else ``None``.
    layout: str | None = None

    def apply(self, x: np.ndarray, ctx: ExecContext) -> np.ndarray:
        """Compute this op's output for (a shard of) the batch."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name or self.kind})"


# --------------------------------------------------------------------------
# Matmul strategies: the arithmetic resolved once at compile time
# --------------------------------------------------------------------------


class MatmulStrategy:
    """A weight's resolved arithmetic: ``(..., K) @ prepared -> (..., N)``.

    Strategies are built by the compiler from the backend *once*; their
    ``matmul`` runs the steady-state product with no backend lookup and
    no ``prepare()`` call.  Like
    :meth:`~repro.core.gemm.MatmulBackend.matmul`, it takes the operand
    with the leading axes the layer hands it.
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

    def matmul(self, a: np.ndarray) -> np.ndarray:
        """Product of ``a`` against the prepared weight; leading axes fold into rows."""
        rows = np.ascontiguousarray(a.reshape(-1, a.shape[-1]))
        return self.matmul2d(rows).reshape(*a.shape[:-1], -1)

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

    def matmul(self, a: np.ndarray) -> np.ndarray:
        """``backend.matmul`` of ``a`` as given: the backend folds (or couples) its axes."""
        return self.backend.matmul(a, self.prepared)


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
    (:func:`~repro.nn.functional.direct_conv2d`).  Calls outside
    ``f32_exact``, and strategies whose kernel was swapped for a
    non-``float_table`` one after compilation (fault injection), take
    the im2col path; both give the same bits.  That path packs and
    gathers the input image *once* (see :func:`gather_packed_cols`) and
    hands each group its contiguous block of patch columns —
    byte-identical to the eager per-group ``pack(im2col(x[:, slice]))``.
    Strategies without a packed kernel get the eager operands, each
    group's float im2col patches.  The per-group GEMM outputs join in
    :func:`~repro.nn.functional.conv2d_output`, as the eager ones do.
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

    def apply(self, x: np.ndarray, ctx: ExecContext) -> np.ndarray:
        n, c, h, w = x.shape
        if c != self.in_channels:
            raise ValueError(f"{self.name}: input has {c} channels, expected {self.in_channels}")
        oh = (h + 2 * self.padding - self.kernel) // self.stride + 1
        ow = (w + 2 * self.padding - self.kernel) // self.stride + 1
        first = self.strategies[0]
        if first.packed_input:
            packed = pack(np.ascontiguousarray(x, dtype=np.float32), first.fmt)
            if all(isinstance(s.kernel, FloatTableKernel) for s in self.strategies):
                direct = F.direct_conv2d(
                    first.kernel, packed, self.direct, self.bias,
                    self.kernel, self.stride, self.padding, self.groups,
                )
                if direct is not None:
                    return direct
            cols = gather_packed_cols(
                packed, self.kernel, self.stride, self.padding,
                any(s.needs_dense for s in self.strategies),
            )
            blocks = F.group_columns(cols, self.groups)
            outs = [s.matmul_packed(b) for s, b in zip(self.strategies, blocks)]
        else:
            cols = F.conv2d_cols(x, self.groups, self.kernel, self.stride, self.padding)
            outs = [s.matmul(p.reshape(n, oh * ow, -1)) for s, p in zip(self.strategies, cols)]
        return F.conv2d_output(outs, self.bias, n, oh, ow)


class LinearOp(PlanOp):
    """Fully connected product with a pre-resolved strategy (:func:`~repro.nn.functional.linear`).

    Accepts sequence inputs ``(N, T, D)`` as well as ``(N, D)``.
    """

    kind = "linear"

    def __init__(self, strategy: MatmulStrategy, bias: np.ndarray | None, name: str = "linear"):
        self.strategies = (strategy,)
        self.bias = bias
        self.name = name
        self.row_independent = strategy.row_independent

    def apply(self, x: np.ndarray, ctx: ExecContext) -> np.ndarray:
        return F.linear(x, self.strategies[0].matmul, self.bias)


class AttentionOp(PlanOp):
    """Multi-head self-attention with pre-resolved projection strategies.

    Runs the eager layer's :func:`~repro.nn.functional.attention` with
    the QKV and output projections on compiled :class:`MatmulStrategy`
    instances (pre-packed weights) and the ``Q K^T``/``A V`` products on
    the captured backend's ``matmul_pairs``.  Those inner GEMM shapes
    depend only on ``(T, Dh)``, never the batch, which keeps the op
    row-independent whenever its projections are.
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
        self.strategies = (qkv_strategy, out_strategy)
        self.qkv_bias = qkv_bias
        self.out_bias = out_bias
        self.heads = heads
        self.scale = scale
        self.backend = backend
        self.name = name
        self.row_independent = (
            qkv_strategy.row_independent and out_strategy.row_independent
        )

    def apply(self, x: np.ndarray, ctx: ExecContext) -> np.ndarray:
        qkv, out = self.strategies
        y, _cache = F.attention(
            x, lambda a: F.linear(a, qkv.matmul, self.qkv_bias),
            lambda a: F.linear(a, out.matmul, self.out_bias), self.heads, self.scale, self.backend,
        )
        return y


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
        return F.relu(x)


class MaxPoolOp(PlanOp):
    """Non-overlapping max pooling (:func:`~repro.nn.functional.maxpool2d`'s rule)."""

    kind = "maxpool2d"

    def __init__(self, size: int):
        self.size = size
        self.name = f"maxpool{size}"

    def apply(self, x: np.ndarray, ctx: ExecContext) -> np.ndarray:
        return F.maxpool2d(x, self.size)


class GlobalAvgPoolOp(PlanOp):
    """Global average pooling to ``(N, C)``."""

    kind = "global_avg_pool"
    name = "global_avg_pool"

    def apply(self, x: np.ndarray, ctx: ExecContext) -> np.ndarray:
        return F.avgpool_global_forward(x)


class BatchNormOp(PlanOp):
    """Inference batch norm over snapshotted running statistics.

    Captures the layer's running mean, ``inv_std`` and affine parameters
    at compile time and runs :func:`~repro.nn.functional.batchnorm2d`,
    the function the eager layer runs.
    """

    kind = "batchnorm2d"

    def __init__(self, gamma, beta, mean, var, eps: float, name: str = "batchnorm2d"):
        self.gamma = gamma
        self.beta = beta
        self.mean = mean
        self.inv_std = F.batchnorm_inv_std(var, eps)
        self.name = name

    def apply(self, x: np.ndarray, ctx: ExecContext) -> np.ndarray:
        out, _x_hat = F.batchnorm2d(x, self.mean, self.inv_std, self.gamma, self.beta)
        return out


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
    """Pop the saved activation and add — the residual join.

    :func:`~repro.nn.functional.residual_add` takes the body output
    first, as the eager block does.  After a shortcut ran (``swapped``)
    the stack holds the body output; without one it holds the block
    input and the body output is current.
    """

    kind = "stack_add_pop"
    name = "residual:add"

    def __init__(self, swapped: bool):
        self.swapped = swapped

    def apply(self, x: np.ndarray, ctx: ExecContext) -> np.ndarray:
        saved = ctx.stack.pop()
        return F.residual_add(saved, x) if self.swapped else F.residual_add(x, saved)
