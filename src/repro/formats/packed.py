"""Quantise-once packed tensors: the operand form the datapath streams.

On the accelerator, a tensor is decomposed exactly once when it is
written into SRAM — sign, exponent and significand land in separate bit
planes, and every product afterwards reads those planes directly
(Sec. III-C/IV-A of the paper).  The software stack mirrors that with
:class:`PackedTensor`: :func:`pack` quantises once, and the GEMM kernels
in :mod:`repro.core.kernels` consume the planes as-is.  Static weights
are packed a single time and reused for every matmul (see
``MatmulBackend.prepare`` and the weight caches in :mod:`repro.nn.layers`).

A packed tensor stores two planes, the two the bit-exact kernel reads:
the significand, in the narrowest unsigned dtype that holds it (one
byte for bfloat16), and the float32 scale ``(-1)^s 2^e``; plus the
range of its exponents.  That is 5 bytes per bfloat16 element.  The
sign and exponent planes and the dense quantised values are derived
from those on first read and cached, for the paths that want them.

The module keeps global packing counters so tests and the perf harness
can assert that a hot path performs *zero* re-quantise/decompose work.
"""

from __future__ import annotations

import threading

import numpy as np

from .floatfmt import FloatFormat, compose, decompose, quantize

__all__ = [
    "PackedTensor",
    "pack",
    "significand_dtype",
    "packing_counters",
    "reset_packing_counters",
]

#: Global instrumentation: how many times :func:`pack` ran and how many
#: elements it processed.  Read with :func:`packing_counters`; the perf
#: harness and the weight-cache tests use this to prove that cached
#: operands are never re-packed.
_COUNTERS = {"pack_calls": 0, "elements_packed": 0}
#: Guards the counters: shard-parallel execution packs activations from
#: several threads, and unsynchronised ``+=`` on a shared dict drops
#: increments (the read-modify-write is not atomic).
_COUNTERS_LOCK = threading.Lock()


def packing_counters() -> dict[str, int]:
    """A snapshot of the global pack-call counters (thread-safe)."""
    with _COUNTERS_LOCK:
        return dict(_COUNTERS)


def reset_packing_counters() -> None:
    """Reset the global pack-call counters to zero."""
    with _COUNTERS_LOCK:
        _COUNTERS["pack_calls"] = 0
        _COUNTERS["elements_packed"] = 0


def significand_dtype(fmt: FloatFormat) -> np.dtype:
    """The narrowest unsigned dtype holding ``fmt.significand_bits`` (``uint8`` for bfloat16)."""
    return np.min_scalar_type((1 << fmt.significand_bits) - 1)


def _scale_from_planes(sign, exponent, significand) -> np.ndarray:
    """``(-1)^sign * 2^exponent``; a zero significand gives that sign's zero."""
    with np.errstate(over="ignore"):  # an exponent past float32's saturates to inf
        scale = np.ldexp(np.where(sign, np.float32(-1.0), np.float32(1.0)), exponent).astype(
            np.float32
        )
    zero = significand == 0
    if np.any(zero):
        bits = scale.view(np.uint32)
        bits[zero] &= np.uint32(0x8000_0000)
    return scale


def _exponent_field(scale: np.ndarray) -> np.ndarray:
    """The biased exponent field of a scale plane, as ``uint8`` (0 for zeros)."""
    return (scale.view(np.uint32) >> np.uint32(23)).astype(np.uint8)


def _range_of_field(field: np.ndarray) -> tuple[int, int]:
    """The exponent range of a ``uint8`` biased-exponent field (0 marks a zero).

    Destroys ``field``.  The least nonzero field is the least of
    ``field - 1`` (zeros wrap to 255) plus one.
    """
    hi = int(field.max(initial=0))
    if hi == 0:
        return 0, 0
    field -= np.uint8(1)
    lo = int(field.min()) + 1
    return min(0, lo - 127), max(0, hi - 127)


class PackedTensor:
    """A tensor quantised to ``fmt`` and held as significand and scale planes.

    Attributes
    ----------
    fmt:
        The :class:`~repro.formats.floatfmt.FloatFormat` the values were
        quantised to.
    significand:
        ``fmt.significand_bits``-wide integers with the implicit leading
        one set (0 for zeros), in :func:`significand_dtype`.

    :meth:`scale` is the other stored plane; :attr:`sign`,
    :attr:`exponent` and :meth:`dense` are derived from the two on first
    read and cached, and :meth:`exponent_range` is recorded by
    :func:`pack` (a view or gather derives its own on first read, never
    inheriting a wider one).

    ``PackedTensor(fmt, sign, exponent, significand)`` builds one from
    the three decomposed planes — ``decompose``'s output, or planes a
    fault model rewrote.  It keeps ``sign`` and ``exponent`` as given
    and derives the scale from them, so every derived read reflects
    exactly those planes.  :func:`pack` is the usual way in.
    """

    def __init__(
        self,
        fmt: FloatFormat,
        sign: np.ndarray,
        exponent: np.ndarray,
        significand: np.ndarray,
    ) -> None:
        if not (sign.shape == exponent.shape == significand.shape):
            raise ValueError(
                f"plane shapes differ: {sign.shape} / {exponent.shape} / {significand.shape}"
            )
        self._set(
            fmt,
            significand.astype(significand_dtype(fmt), copy=False),
            _scale_from_planes(sign, exponent, significand),
        )
        self._sign = sign
        self._exponent = exponent
        self._given = True

    def _set(self, fmt, significand, scale, exponent_range=None) -> None:
        self.fmt = fmt
        self.significand = significand
        self._scale = scale
        self._range = exponent_range
        self._sign = self._exponent = self._dense = None
        #: Whether sign and exponent were given rather than derived.
        self._given = False

    @classmethod
    def from_planes(
        cls,
        fmt: FloatFormat,
        significand: np.ndarray,
        scale: np.ndarray,
        exponent_range: tuple[int, int] | None = None,
    ) -> "PackedTensor":
        """A packed tensor over given significand and scale planes (no copy).

        ``significand`` must be in :func:`significand_dtype` and ``scale``
        float32; ``exponent_range`` is derived on first read when
        ``None``.  Gathers and views of packed planes build through this.
        """
        out = cls.__new__(cls)
        out._set(fmt, significand, scale, exponent_range)
        return out

    @property
    def shape(self) -> tuple[int, ...]:
        return self.significand.shape

    @property
    def ndim(self) -> int:
        return self.significand.ndim

    @property
    def size(self) -> int:
        return self.significand.size

    def scale(self) -> np.ndarray:
        """The signed power-of-two plane ``(-1)^sign * 2^exponent`` (float32).

        This is the exact per-element scale factor the float-domain GEMM
        kernels multiply against the value table.  Zero elements carry a
        signed zero, nonzero elements an exact float32 power of two.
        """
        return self._scale

    @property
    def sign(self) -> np.ndarray:
        """``uint32`` plane of 0/1 sign bits (derived from the scale, cached)."""
        if self._sign is None:
            self._sign = self._scale.view(np.uint32) >> np.uint32(31)
        return self._sign

    @property
    def exponent(self) -> np.ndarray:
        """``int32`` plane of unbiased exponents, 0 for zeros (derived, cached)."""
        if self._exponent is None:
            field = _exponent_field(self._scale).astype(np.int32)
            exponent = field - np.int32(127)
            exponent[field == 0] = 0
            self._exponent = exponent
        return self._exponent

    def exponent_range(self) -> tuple[int, int]:
        """``(lo, hi)``: the least and greatest exponent, each widened to include 0.

        Over the nonzero elements; 0 is a zero's exponent.  This is the
        exponent plane's min and max with zeros counted, which the
        kernels' regime tests (``_range_masks`` in
        :mod:`repro.core.kernels`) read.  Recorded by :func:`pack`,
        otherwise derived once from this tensor's own planes.
        """
        if self._range is None:
            if self._given:
                e = self._exponent
                self._range = (int(e.min(initial=0)), int(e.max(initial=0)))
            else:
                self._range = _range_of_field(_exponent_field(self._scale))
        return self._range

    def dense(self) -> np.ndarray:
        """The quantised float32 values, derived once and cached.

        Backends that need the quantised *values* rather than the planes
        (e.g. ``QuantizedMatmul``) read this; repeated calls are free.
        From the two planes it is the scale's sign and exponent bits with
        the significand's fraction below them; from given planes,
        ``compose`` of them.
        """
        if self._dense is None:
            if not self._given:
                mantissa = self.fmt.mantissa_bits
                fraction = self.significand & self.significand.dtype.type((1 << mantissa) - 1)
                bits = fraction.astype(np.uint32) << np.uint32(23 - mantissa)
                bits |= self._scale.view(np.uint32)
                self._dense = bits.view(np.float32)
            else:
                self._dense = compose(self.sign, self._exponent, self.significand, self.fmt)
        return self._dense

    def unpack(self) -> np.ndarray:
        """A fresh copy of :meth:`dense` (equals ``quantize(src, fmt)``)."""
        return self.dense().copy()

    def _view(self, take, exponent_range=None) -> "PackedTensor":
        """The same tensor through ``take`` (a reshape or an index), cached planes too."""
        out = PackedTensor.from_planes(
            self.fmt, take(self.significand), take(self._scale), exponent_range
        )
        for name in ("_sign", "_exponent", "_dense"):
            plane = getattr(self, name)
            if plane is not None:
                setattr(out, name, take(plane))
        out._given = self._given
        return out

    def reshape(self, *shape: int) -> "PackedTensor":
        """A view of the same planes with a new shape (numpy semantics)."""
        return self._view(lambda plane: plane.reshape(*shape), self._range)

    def __getitem__(self, index) -> "PackedTensor":
        """The planes at ``index`` (numpy basic indexing: views, own range)."""
        return self._view(lambda plane: plane[index])

    def __repr__(self) -> str:
        return f"PackedTensor(fmt={self.fmt.name}, shape={self.shape})"


def _pack_e8(arr: np.ndarray, fmt: FloatFormat) -> PackedTensor | None:
    """Two-plane pack for 8-exponent-bit formats narrower than float32.

    Round-to-nearest-even on the float32 bits, then the significand,
    the scale and the exponent range all come from the rounded pattern,
    the range through a one-byte exponent field.  Byte-identical
    to ``quantize`` + ``decompose`` for finite values, including
    ``quantize``'s flush of rounded subnormals to *unsigned* zero (a
    tiny negative flushes to +0, while a true -0.0 input, or a tiny
    value whose mantissa rounds to zero, keeps its sign).  Returns
    ``None`` when any input is non-finite: those rare tensors take the
    generic route, which defines the behaviour for specials.  (The check
    runs before rounding, which could carry a NaN payload past the sign
    bit.)
    """
    if arr.size and not (np.isfinite(arr.min()) and np.isfinite(arr.max())):
        return None
    mantissa = fmt.mantissa_bits
    shift = np.uint32(23 - mantissa)
    bits = np.ascontiguousarray(arr).view(np.uint32)
    # bits + (half - 1) + lsb: round half to even, carrying into the exponent.
    rounded = bits >> shift
    rounded &= np.uint32(1)
    rounded += bits
    rounded += np.uint32((1 << (int(shift) - 1)) - 1)
    scale = rounded & np.uint32(0xFF80_0000)
    field = (scale >> np.uint32(23)).astype(np.uint8)  # biased exponent
    dtype = significand_dtype(fmt)
    significand = (rounded >> shift).astype(dtype)
    significand &= dtype.type((1 << mantissa) - 1)
    zero = field == 0
    # A zero field with mantissa bits is a rounded subnormal: quantize()
    # flushes it to +0, dropping the sign exact zeros keep.
    subnormal = significand != 0
    subnormal &= zero
    if subnormal.any():
        scale[subnormal] = 0
    significand |= dtype.type(1 << mantissa)
    np.logical_not(zero, out=zero)
    significand *= zero
    return PackedTensor.from_planes(
        fmt, significand, scale.view(np.float32), _range_of_field(field)
    )


def pack(values: np.ndarray, fmt: FloatFormat) -> "PackedTensor":
    """Quantise ``values`` to ``fmt`` and decompose into planes, once.

    This is the single entry point through which float tensors enter the
    packed arithmetic pipeline — its call count is tracked in the global
    packing counters precisely so callers can verify a value was packed
    only once.  Formats with 8 exponent bits (bfloat16 and custom e8
    widths) take the two-plane route (:func:`_pack_e8`); formats with
    fewer, and float32, whose subnormal values the two planes do not
    determine, go through ``quantize`` + ``decompose`` and keep every
    plane.
    """
    if isinstance(values, PackedTensor):
        raise TypeError("values are already packed; pack() expects a float array")
    arr = np.asarray(values, dtype=np.float32)
    with _COUNTERS_LOCK:
        _COUNTERS["pack_calls"] += 1
        _COUNTERS["elements_packed"] += arr.size
    if fmt.exponent_bits == 8 and fmt.mantissa_bits < 23:
        packed = _pack_e8(arr, fmt)
        if packed is not None:
            return packed
    quantised = quantize(arr, fmt)
    packed = PackedTensor(fmt, *decompose(quantised, fmt))
    packed._dense = quantised
    return packed
