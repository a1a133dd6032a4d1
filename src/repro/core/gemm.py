"""Approximate GEMM built on the in-SRAM approximate multiplier.

On the accelerator, a GEMM is a stream of approximate scalar products that
a conventional accumulator sums (Sec. IV-A: SRAM rows produce products,
the adder at the bottom accumulates).  This module reproduces exactly
that: elementwise approximate FP products, exact accumulation in float32.

Three backends with a common ``matmul`` interface let the numpy DNN stack
(:mod:`repro.nn`) swap arithmetic without touching model code:

* :class:`ExactMatmul` — plain float32 ``A @ B`` (the paper's baseline);
* :class:`QuantizedMatmul` — quantise to a format, then exact products
  (isolates quantisation error from approximation error);
* :class:`ApproxMatmul` — quantise and run every product through the
  approximate multiplier (the DAISM datapath).

Operands flow through :class:`~repro.formats.packed.PackedTensor`: each
side is quantised and decomposed exactly once per tensor (mirroring the
one-time SRAM write of the paper's datapath), and pre-packed operands —
built via ``MatmulBackend.prepare`` — skip that front end entirely.  All
backends additionally accept stacked ``(B, M, K) @ (K, N)`` inputs,
flattening the batch into the row dimension so a whole batch runs as one
GEMM with bit-identical per-sample results.

The arithmetic itself lives in the kernel registry of
:mod:`repro.core.kernels`: the default ``float_table`` kernel collapses
the whole normalise+compose back end into one float32 value-table gather
plus two scale multiplies (bit-identical to the scalar reference), and
callers can opt into alternatives — including the ``blas_factored``
exact+correction fast path — by name through ``approx_matmul``'s
``kernel`` argument or the backends' ``kernel`` field.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ..formats.floatfmt import FLOAT32, FloatFormat, quantize
from ..formats.packed import PackedTensor, pack
from .config import MultiplierConfig
from .kernels import GemmKernel, PreparedWeight, get_kernel, select_kernel

__all__ = [
    "approx_matmul",
    "dense_matmul",
    "MatmulBackend",
    "ExactMatmul",
    "QuantizedMatmul",
    "ApproxMatmul",
]


def _as_packed(x: np.ndarray | PackedTensor, fmt: FloatFormat, side: str) -> PackedTensor:
    """Pack a float operand, or validate an already-packed one."""
    if isinstance(x, PackedTensor):
        if x.fmt != fmt:
            raise ValueError(
                f"packed operand {side} is {x.fmt.name}, matmul expects {fmt.name}"
            )
        return x
    return pack(x, fmt)


def _check_kernel(kernel: str | None) -> None:
    """Fail at construction on an unregistered kernel name."""
    if kernel is not None:
        get_kernel(kernel)


def approx_matmul(
    a: np.ndarray | PackedTensor,
    b: np.ndarray | PackedTensor | PreparedWeight,
    fmt: FloatFormat,
    config: MultiplierConfig,
    kernel: str | None = None,
) -> np.ndarray:
    """``a @ b`` with every scalar product computed approximately.

    Parameters
    ----------
    a:
        ``(M, K)`` or batched ``(B, M, K)`` float array, or an equally
        shaped :class:`~repro.formats.packed.PackedTensor`.  Float inputs
        are quantised to ``fmt`` internally (once); packed inputs are
        consumed as-is with zero re-quantise/decompose work.
    b:
        ``(K, N)`` float array or ``PackedTensor``, or a
        :class:`~repro.core.kernels.PreparedWeight` the kernel arranged
        under ``config`` (same bits, see
        :meth:`~repro.core.kernels.GemmKernel.run_prepared`).
    fmt:
        Operand floating point format (e.g. bfloat16).  Packed operands
        must have been packed to the same format.
    config:
        Multiplier configuration (Table I).
    kernel:
        Registered kernel name (see :func:`repro.core.kernels.kernel_names`);
        ``None`` selects the bit-exact default for ``fmt``.  Any other
        name raises :class:`~repro.core.kernels.UnknownKernelError`.

    Returns
    -------
    ``(M, N)`` (or ``(B, M, N)``) float32 result, accumulated in float32
    strictly left to right over K, so each row's bits are independent of
    the other rows in the call.
    """
    prepared = b if isinstance(b, PreparedWeight) else None
    if prepared is not None and prepared.config != config:
        raise ValueError("prepared operand b was arranged under another multiplier config")
    pa = _as_packed(a, fmt, "a")
    pb = _as_packed(b.weight if prepared is not None else b, fmt, "b")
    if pa.ndim not in (2, 3) or pb.ndim != 2 or pa.shape[-1] != pb.shape[0]:
        raise ValueError(f"shape mismatch for matmul: {pa.shape} @ {pb.shape}")

    batched = pa.ndim == 3
    if batched:
        batch, m, k = pa.shape
        pa = pa.reshape(batch * m, k)
    found = select_kernel(fmt, config, kernel)
    if prepared is not None:
        out = found.run_prepared(pa, prepared)
    else:
        out = found.run(pa, pb, config)
    if batched:
        return out.reshape(batch, m, -1)
    return out


#: Height of every BLAS call :func:`dense_matmul` makes.
DENSE_BLOCK_ROWS = 64


def dense_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` for 2-D float32 operands, with batch-invariant rows.

    BLAS picks its kernel — and so the accumulation order of a row —
    from the shape of the call (numpy sends a single row to ``gemv``).
    Running every row through a call of exactly
    :data:`DENSE_BLOCK_ROWS` rows (the tail zero-padded) keeps each
    row's bits independent of how many rows share the product.
    """
    m, k = a.shape
    blocks = -(-m // DENSE_BLOCK_ROWS)
    padded = np.zeros((blocks * DENSE_BLOCK_ROWS, k), dtype=np.float32)
    padded[:m] = a
    out = np.matmul(padded.reshape(blocks, DENSE_BLOCK_ROWS, k), b)
    return out.reshape(blocks * DENSE_BLOCK_ROWS, b.shape[1])[:m]


def _flatten_batch(a: np.ndarray) -> tuple[np.ndarray, tuple[int, ...] | None]:
    """Collapse a ``(B, M, K)`` operand to ``(B*M, K)``; 2-D passes through."""
    if a.ndim == 3:
        b, m, k = a.shape
        return a.reshape(b * m, k), (b, m)
    return a, None


def _check_pairs(a, b) -> None:
    if a.ndim != 3 or b.ndim != 3 or a.shape[0] != b.shape[0] or a.shape[2] != b.shape[1]:
        raise ValueError(f"shape mismatch for matmul_pairs: {a.shape} @ {b.shape}")


class MatmulBackend:
    """Interface: a named object computing ``matmul(a, b) -> (M, N)``.

    ``a`` is ``(M, K)`` — or batched ``(B, M, K)``, returning
    ``(B, M, N)`` — and ``b`` is ``(K, N)``; implementations return a
    float32 product.  The ``name`` attribute labels result columns in the
    accuracy studies.  This is the single seam through which the ``nn``
    stack reaches the DAISM arithmetic: swapping the backend swaps the
    arithmetic of every layer.

    ``prepare(b)`` converts a static right-hand operand (typically a
    weight matrix) into the backend's internal form once, so repeated
    ``matmul`` calls against it skip the per-call front end entirely.
    The ``prepare_key`` property names that internal form: backends whose
    keys match produce interchangeable prepared operands (e.g. every
    ``ApproxMatmul`` config over bfloat16 shares the same packed planes),
    which lets callers cache one prepared tensor across backends.
    ``packed_kernel()`` names the kernel that runs those planes, for
    callers that also arrange a prepared operand per config
    (:meth:`~repro.core.kernels.GemmKernel.prepare`).
    ``matmul_pairs(a, b)`` multiplies stacks of operand pairs, neither
    side static — attention's ``Q K^T`` and ``A V`` products.
    """

    name = "abstract"

    def matmul(self, a: np.ndarray, b) -> np.ndarray:
        """Product of ``a`` and ``b`` under this backend's arithmetic."""
        raise NotImplementedError

    def matmul_pairs(self, a, b) -> np.ndarray:
        """``(B, M, K) @ (B, K, N)``: one product per leading index.

        The default runs one :meth:`matmul` per pair, so each pair keeps
        the bits (and, for batch-coupled arithmetic, the shared
        exponents) of its own call.
        """
        _check_pairs(a, b)
        out = np.empty((a.shape[0], a.shape[1], b.shape[2]), dtype=np.float32)
        for i in range(len(out)):
            out[i] = self.matmul(a[i], b[i])
        return out

    def prepare(self, b: np.ndarray):
        """Pre-convert a static ``(K, N)`` operand; identity by default."""
        return b

    @property
    def prepare_key(self) -> str:
        """Cache key identifying the representation ``prepare`` produces."""
        return self.name

    def packed_kernel(self) -> tuple[GemmKernel, MultiplierConfig | None] | None:
        """``(kernel, config)`` whose arrangements ``matmul`` accepts; ``None`` by default."""
        return None

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name})"


class ExactMatmul(MatmulBackend):
    """Plain float32 matmul — the paper's exact baseline.

    Stateless; both operands are cast to float32 and multiplied with
    :func:`dense_matmul`.  Batched inputs are flattened into the row
    dimension so the result is bit-identical to the 2-D call.
    """

    name = "exact_float32"

    def matmul(self, a: np.ndarray, b) -> np.ndarray:
        """Exact float32 product (batched inputs flattened row-wise)."""
        a = np.asarray(a, dtype=np.float32)
        b = np.asarray(b, dtype=np.float32)
        flat, batch = _flatten_batch(a)
        out = dense_matmul(flat, b)
        return out.reshape(*batch, -1) if batch else out

    def prepare(self, b: np.ndarray) -> np.ndarray:
        """Cast once to float32 (the backend's internal form)."""
        return np.asarray(b, dtype=np.float32)

    @property
    def prepare_key(self) -> str:  # type: ignore[override]
        """Dense float32 operands; not shared with the packed backends."""
        return "dense_float32"


@dataclasses.dataclass
class QuantizedMatmul(MatmulBackend):
    """Quantise operands to ``fmt``, then multiply exactly.

    Separates the error due to the narrow datatype from the error due to
    the OR-approximation; used as an intermediate point in Fig. 4-style
    studies.  Prepared operands are packed tensors whose cached dense
    form is read back, so they interoperate with ``ApproxMatmul`` caches
    of the same format.

    ``kernel=None`` multiplies the quantised dense values with
    :func:`dense_matmul` (BLAS).  A named kernel routes the
    products through the registered packed kernel with an *exact*
    significand multiplier (``config=None``) instead — the
    conventional-multiplier datapath, whose products are re-normalised
    to the format's significand width and summed in datapath order.
    Mainly useful for cross-validating kernels against the scalar
    reference.
    """

    fmt: FloatFormat = FLOAT32
    kernel: str | None = None

    def __post_init__(self):
        _check_kernel(self.kernel)

    @property
    def name(self) -> str:  # type: ignore[override]
        """Backend label, e.g. ``quantized_bfloat16``."""
        return f"quantized_{self.fmt.name}"

    def _dense(self, x, side: str) -> np.ndarray:
        if isinstance(x, PackedTensor):
            if x.fmt != self.fmt:
                raise ValueError(
                    f"packed operand {side} is {x.fmt.name}, backend expects {self.fmt.name}"
                )
            return x.dense()
        return quantize(x, self.fmt)

    def matmul(self, a, b) -> np.ndarray:
        """Exact product of the ``fmt``-quantised operands."""
        if self.kernel is not None:
            pa = _as_packed(a, self.fmt, "a")
            pb = _as_packed(b, self.fmt, "b")
            batched = pa.ndim == 3
            if batched:
                batch, m, k = pa.shape
                pa = pa.reshape(batch * m, k)
            out = select_kernel(self.fmt, None, self.kernel).run(pa, pb, None)
            return out.reshape(batch, m, -1) if batched else out
        aq = self._dense(a, "a")
        bq = self._dense(b, "b")
        flat, batch = _flatten_batch(aq)
        out = dense_matmul(flat, bq)
        return out.reshape(*batch, -1) if batch else out

    def prepare(self, b: np.ndarray) -> PackedTensor:
        """Quantise + decompose a static operand once (see ``pack``)."""
        return b if isinstance(b, PackedTensor) else pack(b, self.fmt)

    @property
    def prepare_key(self) -> str:  # type: ignore[override]
        """Packed-plane form, shared with ``ApproxMatmul`` of the same ``fmt``."""
        return f"packed_{self.fmt.name}"


@dataclasses.dataclass
class ApproxMatmul(MatmulBackend):
    """Full DAISM arithmetic: quantise + approximate products.

    Parameters
    ----------
    fmt:
        Floating point format operands are quantised to (the paper's
        headline configuration uses bfloat16).
    config:
        Multiplier configuration (e.g. ``PC3_TR``).
    kernel:
        Registered kernel name; ``None`` selects the bit-exact default
        tier (``float_table`` for tabulated widths).  ``"blas_factored"``
        opts into the BLAS fast path with its documented parity
        tolerance (see :class:`repro.core.kernels.BlasFactoredKernel`).
        An unregistered name raises
        :class:`~repro.core.kernels.UnknownKernelError` here.
    """

    fmt: FloatFormat
    config: MultiplierConfig
    kernel: str | None = None

    def __post_init__(self):
        _check_kernel(self.kernel)

    @property
    def name(self) -> str:  # type: ignore[override]
        """Backend label, e.g. ``approx_bfloat16_PC3_tr``."""
        return f"approx_{self.fmt.name}_{self.config.name}"

    def matmul(self, a, b) -> np.ndarray:
        """DAISM approximate product (see :func:`approx_matmul`).

        ``b`` may be a :class:`~repro.core.kernels.PreparedWeight` from
        :meth:`packed_kernel`'s ``prepare``; the kernel then runs its layout.
        """
        return approx_matmul(a, b, self.fmt, self.config, kernel=self.kernel)

    def matmul_pairs(self, a, b) -> np.ndarray:
        """Every pair in one :meth:`~repro.core.kernels.GemmKernel.run_pairs` call.

        Each side is packed once; the bits equal one :meth:`matmul` per pair.
        """
        _check_pairs(a, b)
        pa = _as_packed(a, self.fmt, "a")
        pb = _as_packed(b, self.fmt, "b")
        kernel = select_kernel(self.fmt, self.config, self.kernel)
        return kernel.run_pairs(pa, pb, self.config)

    def packed_kernel(self) -> tuple[GemmKernel, MultiplierConfig]:
        """The kernel :func:`approx_matmul` selects, with this backend's config."""
        return select_kernel(self.fmt, self.config, self.kernel), self.config

    def prepare(self, b: np.ndarray) -> PackedTensor:
        """Quantise + decompose a static operand once (see ``pack``)."""
        return b if isinstance(b, PackedTensor) else pack(b, self.fmt)

    @property
    def prepare_key(self) -> str:  # type: ignore[override]
        """Packed-plane form, shared with ``QuantizedMatmul`` of the same ``fmt``."""
        return f"packed_{self.fmt.name}"
