"""Pluggable arithmetic backends for the DNN stack.

Every multiply-heavy operation in :mod:`repro.nn` (conv, linear) funnels
through a single ``matmul`` so the arithmetic can be swapped without
touching model code:

* exact float32 (the paper's baseline),
* quantised-only (bfloat16 storage, exact products),
* full DAISM (bfloat16 + approximate in-SRAM products).

A default backend can be set temporarily with :func:`use_backend` —
this is how the Fig. 4 benchmark runs the *same* trained model under
different arithmetic.  The default is **thread-local**: concurrent
in-process sweeps (e.g. threads evaluating one model under different
configurations) each see their own default and cannot race each other's
``use_backend`` scopes.  A thread that never set a default falls back to
exact float32.
"""

from __future__ import annotations

import contextlib
import threading

from ..core.config import MultiplierConfig
from ..core.gemm import ApproxMatmul, ExactMatmul, MatmulBackend, QuantizedMatmul
from ..formats.floatfmt import BFLOAT16, FloatFormat

__all__ = [
    "default_backend",
    "set_default_backend",
    "use_backend",
    "inherit_default_backend",
    "daism_backend",
    "exact_backend",
    "quantized_backend",
    "bfp_backend",
    "BfpMatmul",
]

#: Fallback for threads that never set their own default.
_FALLBACK: MatmulBackend = ExactMatmul()

_STATE = threading.local()


def default_backend() -> MatmulBackend:
    """The backend used when a layer is not given an explicit one.

    Reads this thread's default; threads that have not called
    :func:`set_default_backend` (directly or via :func:`use_backend`)
    see the exact float32 fallback.
    """
    backend = getattr(_STATE, "backend", None)
    return backend if backend is not None else _FALLBACK


def set_default_backend(backend: MatmulBackend) -> MatmulBackend:
    """Set *this thread's* default backend; returns the previous one."""
    previous = default_backend()
    _STATE.backend = backend
    return previous


@contextlib.contextmanager
def use_backend(backend: MatmulBackend):
    """Temporarily switch the default backend (context manager)."""
    previous = set_default_backend(backend)
    try:
        yield backend
    finally:
        set_default_backend(previous)


def inherit_default_backend():
    """Capture this thread's default backend for worker-thread inheritance.

    The default backend is thread-local, so a worker thread spawned
    inside a :func:`use_backend` scope would otherwise fall back to
    exact float32 — silently running the wrong arithmetic.  This returns
    a zero-argument callable that installs the *capturing* thread's
    default into whichever thread invokes it; pass it as a pool
    initializer::

        with use_backend(daism_backend(PC3_TR)):
            pool = ThreadPoolExecutor(4, initializer=inherit_default_backend())

    Every pool worker then sees the scope's backend.  The capture is a
    snapshot: later ``use_backend``/``set_default_backend`` calls in the
    parent thread do not retroactively change already-initialised
    workers.
    """
    captured = default_backend()

    def install() -> None:
        set_default_backend(captured)

    return install


def exact_backend() -> MatmulBackend:
    """Exact float32 arithmetic."""
    return ExactMatmul()


def quantized_backend(
    fmt: FloatFormat = BFLOAT16, kernel: str | None = None
) -> MatmulBackend:
    """Narrow storage, exact products (quantisation-only ablation).

    ``kernel`` optionally routes the exact products through a registered
    packed GEMM kernel instead of dense BLAS (see
    :class:`repro.core.gemm.QuantizedMatmul`).
    """
    return QuantizedMatmul(fmt, kernel=kernel)


def daism_backend(
    config: MultiplierConfig, fmt: FloatFormat = BFLOAT16, kernel: str | None = None
) -> MatmulBackend:
    """Full DAISM arithmetic: ``fmt`` storage + approximate products.

    ``kernel`` selects a registered GEMM kernel by name — ``None`` is
    the bit-exact default tier (``float_table``);
    ``"blas_factored"`` opts into the BLAS exact+correction fast path
    with its documented parity tolerance.  An unregistered name raises
    :class:`~repro.core.kernels.UnknownKernelError`.
    """
    return ApproxMatmul(fmt=fmt, config=config, kernel=kernel)


class BfpMatmul(MatmulBackend):
    """Block floating point GEMM (Sec. IV-B): one exponent per matrix.

    Each operand matrix is quantised to a single BFP block (shared
    exponent, integer mantissas); the integer mantissa products run
    through the configured approximate multiplier.  This is the "any
    other FP representation can make use of this multiplier" claim made
    concrete.
    """

    def __init__(self, config: MultiplierConfig | None = None, mantissa_bits: int = 8):
        from ..formats.bfp import BlockFloat, bfp_matmul

        self._block_float = BlockFloat
        self._bfp_matmul = bfp_matmul
        self.config = config
        self.mantissa_bits = mantissa_bits

    @property
    def name(self) -> str:  # type: ignore[override]
        suffix = self.config.name if self.config else "exact"
        return f"bfp{self.mantissa_bits}_{suffix}"

    @property
    def prepare_key(self) -> str:  # type: ignore[override]
        return f"bfp{self.mantissa_bits}"

    def prepare(self, b):
        """Quantise a static operand into its BFP block once."""
        if isinstance(b, self._block_float):
            if b.mantissa_bits != self.mantissa_bits:
                raise ValueError(
                    f"block has {b.mantissa_bits}-bit mantissas, backend expects "
                    f"{self.mantissa_bits}"
                )
            return b
        return self._block_float.from_float(b, self.mantissa_bits)

    def matmul(self, a, b):
        import numpy as np

        block_a = a if isinstance(a, self._block_float) else self._block_float.from_float(
            a, self.mantissa_bits
        )
        block_b = self.prepare(b)
        return self._bfp_matmul(block_a, block_b, config=self.config).astype(np.float32)


def bfp_backend(
    config: MultiplierConfig | None = None, mantissa_bits: int = 8
) -> MatmulBackend:
    """Block-floating-point backend (optionally with approximate products)."""
    return BfpMatmul(config=config, mantissa_bits=mantissa_bits)
