"""Plan capture: compile a module tree into a flat execution plan.

:func:`compile_plan` walks any :class:`~repro.nn.layers.Module` tree
(``Sequential``, ``Residual``, the whole ``model_zoo``) *once*, resolves
the arithmetic backend into per-layer strategies, prepares (packs) every
static weight, snapshots BatchNorm statistics, and flattens the result
into an :class:`ExecutionPlan` — a tuple of
:class:`~repro.runtime.ops.PlanOp` objects executed in a plain loop.
Steady-state inference then performs **zero** backend lookups, **zero**
``prepare()`` calls and no Python recursion; residual blocks become
explicit stack ops instead of nested calls.

Plans are immutable inference snapshots (eval-mode semantics: dropout is
elided, batch norm uses the captured running statistics).  Each plan
records the version of every parameter it captured; executing a plan
after an optimiser step or a weight load raises, pointing at
recompilation — the plan-level analogue of the layers' prepared-weight
cache invalidation.

The same trace drives the accelerator co-simulation:
:func:`conv_workload` converts the traced op specs into the
:class:`~repro.arch.workloads.ConvLayer` records
:mod:`repro.arch.network_runner` executes, so the software runtime and
the hardware model derive layer shapes from one description instead of
two parallel walks.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ..arch.workloads import ConvLayer
from ..core.gemm import ApproxMatmul, ExactMatmul, MatmulBackend, QuantizedMatmul
from ..core.integrity import register_canary
from ..core.kernels import select_kernel
from ..formats.packed import PackedTensor
from ..nn.backend import default_backend
from ..nn.layers import Module, Parameter, Residual, Sequential
from .ops import (
    AttentionOp,
    BackendStrategy,
    BatchNormOp,
    ConvOp,
    ExactStrategy,
    ExecContext,
    FlattenOp,
    GlobalAvgPoolOp,
    LayerNormOp,
    LinearOp,
    MatmulStrategy,
    MaxPoolOp,
    OpSpec,
    PackedKernelStrategy,
    PlanOp,
    QuantDenseStrategy,
    ReluOp,
    SoftmaxOp,
    StackAddPopOp,
    StackPushOp,
    StackSwapOp,
)

__all__ = [
    "trace",
    "compile_plan",
    "ExecutionPlan",
    "conv_workload",
    "cosim_shape",
    "plan_tiers",
    "op_strategies",
]


def op_strategies(op: PlanOp) -> tuple[MatmulStrategy, ...]:
    """All matmul strategies behind one op (zero, one, or several).

    Every op carries a ``strategies`` tuple: empty without a GEMM, one
    for a linear, one per channel group for a convolution, QKV then
    output projection for attention.  Introspection (tier listings,
    plan digests) iterates this one accessor.
    """
    return tuple(op.strategies)


def plan_tiers(plan: "ExecutionPlan") -> list[str]:
    """Sorted kernel-tier names a plan's GEMM ops resolved to.

    Packed-kernel ops report their registry kernel name;
    dense-BLAS quantised ops report ``dense_blas``.  The serving benches
    embed this so recorded throughput always names the tiers behind it.
    """
    names = set()
    for op in plan.ops:
        for strategy in op_strategies(op):
            if strategy.kernel_name is not None:
                names.add(strategy.kernel_name)
    return sorted(names)


def trace(module: Module) -> list[OpSpec]:
    """Flatten a module tree into the ordered list of op specs.

    Containers are walked structurally: a ``Sequential`` concatenates
    its children, a ``Residual`` becomes explicit stack control specs
    around its body (and optional shortcut) so the resulting list has no
    nesting.  Leaves are asked for their ``to_plan_op()`` description;
    a module that does not provide one is not plan-compilable.
    """
    if isinstance(module, Sequential):
        specs: list[OpSpec] = []
        for child in module.modules:
            specs.extend(trace(child))
        return specs
    if isinstance(module, Residual):
        specs = [OpSpec("stack_push")]
        specs.extend(trace(module.body))
        if module.shortcut is not None:
            specs.append(OpSpec("stack_swap"))
            specs.extend(trace(module.shortcut))
        specs.append(OpSpec("stack_add_pop", {"swapped": module.shortcut is not None}))
        return specs
    to_plan_op = getattr(module, "to_plan_op", None)
    if to_plan_op is None:
        raise TypeError(
            f"{type(module).__name__} does not expose to_plan_op(); "
            "plan compilation supports the repro.nn layer set (and any "
            "module implementing the seam)"
        )
    return [to_plan_op()]


def _resolve_strategy(backend: MatmulBackend, weight: np.ndarray) -> MatmulStrategy:
    """Resolve ``backend`` into a compiled strategy for one weight matrix."""
    prepared = backend.prepare(weight)
    if isinstance(backend, ExactMatmul):
        return ExactStrategy(prepared)
    if isinstance(backend, ApproxMatmul):
        kernel = select_kernel(backend.fmt, backend.config, backend.kernel)
        strategy = PackedKernelStrategy(backend.fmt, backend.config, kernel, prepared)
    elif isinstance(backend, QuantizedMatmul):
        if backend.kernel is None:
            return QuantDenseStrategy(backend.fmt, prepared.dense())
        kernel = select_kernel(backend.fmt, None, backend.kernel)
        strategy = PackedKernelStrategy(backend.fmt, None, kernel, prepared)
    else:
        return BackendStrategy(backend, prepared)
    # Warm the packed weight's derived dense values now so first
    # execution (and concurrent shards) never race to build them lazily.
    if isinstance(prepared, PackedTensor):
        if strategy.needs_dense:
            prepared.dense()
        else:
            # Bit-exact kernels read only the planes; the plan holds this
            # weight for its lifetime, so drop any dense copy pack made.
            prepared._dense = None
    # Record the healthy canary digest for this (fmt, config, kernel)
    # while the tables are freshly built — the integrity subsystem's
    # periodic probe compares against it (idempotent per process).
    register_canary(strategy.fmt, strategy.config, strategy.kernel)
    return strategy


@dataclasses.dataclass
class ExecutionPlan:
    """A compiled, immutable, thread-safe forward pass.

    Parameters
    ----------
    ops:
        The flat op sequence (see :mod:`repro.runtime.ops`).
    backend_name:
        Label of the backend the plan was compiled against.
    params:
        ``(parameter, version)`` snapshot for staleness detection.
    row_independent:
        Whether every op is row-independent — the precondition for
        shard-parallel execution being byte-identical.
    specs:
        The traced op specs the plan was compiled from, which
        :func:`conv_workload` walks for the plan's layer shapes.
    """

    ops: tuple[PlanOp, ...]
    backend_name: str
    params: tuple[tuple[Parameter, int], ...]
    row_independent: bool
    specs: tuple[OpSpec, ...]

    def execute(self, x: np.ndarray) -> np.ndarray:
        """Run the plan on a batch (or any slice of one).

        Raises ``RuntimeError`` if any captured parameter changed since
        compilation.
        """
        self.assert_current()
        x = np.asarray(x, dtype=np.float32)
        ctx = ExecContext()
        for op in self.ops:
            x = op.apply(x, ctx)
        return x

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """Alias for :meth:`execute` on a full batch."""
        return self.execute(x)

    def stale(self) -> bool:
        """Whether any captured parameter changed since compilation."""
        return any(param.version != version for param, version in self.params)

    def assert_current(self) -> None:
        """Raise ``RuntimeError`` if the plan no longer matches its model."""
        for param, version in self.params:
            if param.version != version:
                raise RuntimeError(
                    f"stale plan: parameter {param.name!r} changed "
                    f"(version {param.version} != captured {version}); "
                    "recompile with compile_plan()"
                )

    def macs_per_sample(self, sample_shape: tuple[int, ...]) -> int:
        """Weight-GEMM multiply-accumulates of one sample of ``sample_shape``.

        The sum over the plan's :func:`conv_workload` layers, padding
        taps included (the GEMMs compute them); the attention products
        ``Q K^T`` and ``A V`` have no weight and do not count.  The
        sample shape maps to the co-sim's as :func:`cosim_shape` says.
        """
        return sum(layer.macs_dense for layer in conv_workload(self, cosim_shape(sample_shape)))

    def describe(self) -> list[dict[str, object]]:
        """One printable row per op (kind, name, strategy, kernel, weight layout)."""
        rows = []
        for i, op in enumerate(self.ops):
            strategy = op.strategies[0] if op.strategies else None
            # A direct conv's layout belongs to the op, not its strategies.
            layout = op.layout or (strategy.layout if strategy else None)
            rows.append(
                {
                    "op": i,
                    "kind": op.kind,
                    "name": op.name,
                    "strategy": type(strategy).__name__ if strategy else "-",
                    "kernel": (strategy.kernel_name if strategy else None) or "-",
                    "layout": layout or "-",
                }
            )
        return rows


#: Op kinds whose op captures nothing.
_STATELESS_OPS = {
    "softmax": SoftmaxOp,
    "relu": ReluOp,
    "global_avg_pool": GlobalAvgPoolOp,
    "flatten": FlattenOp,
    "stack_push": StackPushOp,
    "stack_swap": StackSwapOp,
}


def compile_plan(model: Module, backend: MatmulBackend | None = None) -> ExecutionPlan:
    """Compile a module tree into an :class:`ExecutionPlan`.

    Parameters
    ----------
    model:
        Any tree of :mod:`repro.nn.layers` modules (or custom modules
        implementing ``to_plan_op``).  The model is not mutated; the
        plan captures eval-mode semantics regardless of its current
        train/eval flag.
    backend:
        Arithmetic backend; ``None`` captures the calling thread's
        default (:func:`repro.nn.backend.default_backend`) at compile
        time — the plan does **not** re-read the default later.
    """
    backend = backend or default_backend()
    ops: list[PlanOp] = []
    params: list[tuple[Parameter, int]] = []
    counts: dict[str, int] = {}
    specs = tuple(trace(model))

    def tag(kind: str) -> str:
        counts[kind] = counts.get(kind, 0) + 1
        return f"{kind}{counts[kind]}"

    def capture(param: Parameter | None) -> np.ndarray | None:
        """A parameter's data, recording its version for staleness checks."""
        if param is None:
            return None
        params.append((param, param.version))
        return param.data

    for spec in specs:
        kind = spec.kind
        layer = spec.module
        if kind == "conv2d":
            weight = capture(layer.weight)
            bias = capture(layer.bias)
            fg = weight.shape[0] // spec.attrs.get("groups", 1)
            strategies = tuple(
                _resolve_strategy(backend, weight[g : g + fg].reshape(fg, -1).T)
                for g in range(0, weight.shape[0], fg)
            )
            ops.append(
                ConvOp(
                    strategies,
                    bias,
                    in_channels=spec.attrs["in_channels"],
                    out_channels=weight.shape[0],
                    kernel=spec.attrs["kernel"],
                    stride=spec.attrs["stride"],
                    padding=spec.attrs["padding"],
                    name=tag("conv"),
                )
            )
        elif kind == "attention":
            qkv, out = layer.qkv, layer.out
            ops.append(
                AttentionOp(
                    _resolve_strategy(backend, capture(qkv.weight).T),
                    capture(qkv.bias),
                    _resolve_strategy(backend, capture(out.weight).T),
                    capture(out.bias),
                    heads=spec.attrs["heads"],
                    scale=layer.scale,
                    backend=backend,
                    name=tag("attn"),
                )
            )
        elif kind == "layernorm":
            gamma, beta = capture(layer.gamma), capture(layer.beta)
            ops.append(LayerNormOp(gamma, beta, layer.eps, name=tag("ln")))
        elif kind == "linear":
            strategy = _resolve_strategy(backend, capture(layer.weight).T)
            ops.append(LinearOp(strategy, capture(layer.bias), name=tag("fc")))
        elif kind == "batchnorm2d":
            gamma, beta = capture(layer.gamma), capture(layer.beta)
            ops.append(
                BatchNormOp(
                    gamma, beta, layer.running_mean, layer.running_var, layer.eps, name=tag("bn")
                )
            )
        elif kind == "maxpool2d":
            ops.append(MaxPoolOp(spec.attrs["size"]))
        elif kind == "stack_add_pop":
            ops.append(StackAddPopOp(spec.attrs["swapped"]))
        elif kind in _STATELESS_OPS:
            ops.append(_STATELESS_OPS[kind]())
        elif kind != "dropout":  # dropout is an inference identity
            raise ValueError(f"unknown plan op kind {kind!r}")

    return ExecutionPlan(
        ops=tuple(ops),
        backend_name=backend.name,
        params=tuple(params),
        row_independent=all(op.row_independent for op in ops),
        specs=specs,
    )


def cosim_shape(sample_shape: tuple[int, ...]) -> tuple[int, int, int]:
    """The co-sim's ``(channels, height, width)`` for one input sample.

    Images ``(C, H, W)`` pass through; a sequence sample ``(T, D)`` is
    the symbolic ``(D, T, 1)`` map its token projections run over, and
    a flat ``(D,)`` vector is ``(D, 1, 1)``.
    """
    if len(sample_shape) == 3:
        return tuple(sample_shape)
    if len(sample_shape) == 2:
        seq_len, d_model = sample_shape
        return (d_model, seq_len, 1)
    if len(sample_shape) == 1:
        return (sample_shape[0], 1, 1)
    raise ValueError(f"no co-sim shape for a sample of shape {tuple(sample_shape)}")


def conv_workload(
    model: Module | ExecutionPlan,
    input_shape: tuple[int, int, int],
    include_fc: bool = True,
    prefix: str = "",
) -> list[ConvLayer]:
    """Derive the accelerator workload from the same trace the runtime runs.

    Walks the traced op specs of ``model`` (a compiled plan's own
    :attr:`ExecutionPlan.specs`, or a module's fresh trace) with a symbolic
    ``(channels, height, width)`` shape and emits one
    :class:`~repro.arch.workloads.ConvLayer` per convolution (and, when
    ``include_fc`` is set, one ``1x1`` layer per fully connected layer —
    an FC is a pointwise conv over the current token/feature map, and an
    attention block contributes its QKV/output projections).  Layers
    carrying a ``label`` keep it as their workload name, which is what
    lets the sync tests compare trace-derived shapes against the
    hand-registered tables in :mod:`repro.arch.workloads`.  Sequence
    models trace with ``input_shape = (d_model, seq_len, 1)``.  This is
    the single source of layer shapes shared by the software runtime and
    :func:`repro.arch.network_runner.run_module`.
    """
    c, h, w = input_shape
    layers: list[ConvLayer] = []
    shape_stack: list[tuple[int, int, int]] = []
    conv_i = fc_i = 0
    specs = model.specs if isinstance(model, ExecutionPlan) else trace(model)
    for spec in specs:
        kind = spec.kind
        if kind == "conv2d":
            conv_i += 1
            label = spec.attrs.get("label") or f"conv{conv_i}"
            layer = ConvLayer(
                name=f"{prefix}{label}",
                in_channels=spec.attrs["in_channels"],
                out_channels=spec.attrs["out_channels"],
                kernel=spec.attrs["kernel"],
                height=h,
                width=w,
                stride=spec.attrs["stride"],
                padding=spec.attrs["padding"],
                groups=spec.attrs.get("groups", 1),
            )
            layers.append(layer)
            c, h, w = layer.out_channels, layer.out_height, layer.out_width
        elif kind == "linear":
            fc_i += 1
            if include_fc:
                # An FC over (h, w) tokens is a pointwise conv on the
                # h x w map; classifier heads see h = w = 1 after
                # flatten/GAP, sequence models keep h = seq_len.
                label = spec.attrs.get("label") or f"fc{fc_i}"
                layers.append(
                    ConvLayer(
                        name=f"{prefix}{label}",
                        in_channels=spec.attrs["in_features"],
                        out_channels=spec.attrs["out_features"],
                        kernel=1,
                        height=h,
                        width=w,
                        stride=1,
                        padding=0,
                    )
                )
            c = spec.attrs["out_features"]
        elif kind == "attention":
            # The two weight GEMMs of the block: QKV and output
            # projections as pointwise convs over the token map.  The
            # activation-activation products (QK^T, AV) have no static
            # operand to pre-load into SRAM and are deliberately absent
            # (see arch.workloads.transformer_block_layers).
            d_model = spec.attrs["d_model"]
            layers.append(
                ConvLayer(
                    name=f"{prefix}qkv_proj",
                    in_channels=d_model,
                    out_channels=3 * d_model,
                    kernel=1,
                    height=h,
                    width=w,
                    stride=1,
                    padding=0,
                )
            )
            layers.append(
                ConvLayer(
                    name=f"{prefix}attn_out",
                    in_channels=d_model,
                    out_channels=d_model,
                    kernel=1,
                    height=h,
                    width=w,
                    stride=1,
                    padding=0,
                )
            )
        elif kind == "maxpool2d":
            size = spec.attrs["size"]
            h, w = h // size, w // size
        elif kind == "global_avg_pool":
            h = w = 1
        elif kind == "flatten":
            c, h, w = c * h * w, 1, 1
        elif kind == "stack_push":
            shape_stack.append((c, h, w))
        elif kind == "stack_swap":
            shape_stack[-1], (c, h, w) = (c, h, w), shape_stack[-1]
        elif kind == "stack_add_pop":
            saved = shape_stack.pop()
            if saved != (c, h, w):
                raise ValueError(
                    f"residual shape mismatch in workload trace: {saved} vs {(c, h, w)}"
                )
        # relu / batchnorm2d / layernorm / softmax / dropout keep the shape
    return layers
