"""Pluggable GEMM kernels over packed operands: the arithmetic hot path.

Every approximate (and quantised) matmul in the repository bottoms out in
one of the kernels registered here.  A kernel consumes two
:class:`~repro.formats.packed.PackedTensor` operands and produces the
float32 product matrix; which kernel runs is selected by name through
:func:`select_kernel` (plumbed up through ``approx_matmul`` and the
``nn`` backend seam).

Three kernels are built in:

``float_table`` (bit-exact default for table-supported widths)
    The float-domain value-table kernel.  A bfloat16-style product is
    ``(s_a 2^ea) * (s_b 2^eb) * V0[ma, mb]`` where ``V0`` is a
    ``2^bits x 2^bits`` float32 table of *normalised significand product
    values* (the one-position normalisation bump folded in, so entries
    lie in ``[1, 4)``).  Per element the kernel does one table gather
    and two multiplies by the per-operand scale planes pack stores, and is
    bit-identical to the scalar ``core.mantissa`` pipeline: scale
    products are exact powers of two, the gathered value has at most
    ``significand_bits + 1`` significant bits, overflow to inf falls out
    of float32 naturally (bfloat16 and float32 share ``emax``), and a
    cheap subnormal-flush mask reproduces the datapath's flush-to-zero
    underflow exactly.  One gather loop (:meth:`FloatTableKernel._gather`)
    computes ``(P, M, K) @ (P, K, N)`` for every unprepared call: ``run``
    in either orientation, its zero bypass and ``run_pairs``.  Compiled
    plans, and the eager layers once per weight version, arrange each
    static weight (:meth:`FloatTableKernel.prepare`) in a layout picked
    from its shape by :func:`weight_layout`, each with its own loop — a
    weight-stationary table, an activation-expanded index, or the plain
    gather — with the same bits.  A convolution whose weights fit one
    table (all groups together) runs as a direct tap loop over the
    packed image (:meth:`FloatTableKernel.run_direct`).

``blas_factored`` (opt-in fast path)
    Factor ``V0[ma, mb] = mu[ma] * mu[mb] + E[ma, mb]`` where ``mu`` is
    the exact significand value and ``E`` the per-config error table.
    The ``mu`` outer term is exactly the quantised dense operands, so it
    routes through ``numpy.matmul`` (BLAS); the correction contracts a
    rank-``r`` SVD factorisation of ``E`` as ``r`` extra BLAS columns.
    Faster than the plain gather kernel per eager GEMM (1.3-7x on the
    ``BENCH_perf.json`` grid), but *not* bit-identical, so it runs only
    when named: see
    :class:`BlasFactoredKernel` for the documented parity contract.

``generic``
    The per-element FP pipeline for significand widths too wide to
    tabulate (e.g. float32 operands).

Accumulation order: the bit-exact kernels sum every output element
strictly left to right over K in float32, ``((0 + p_0) + p_1) + ...``,
exactly as the array's accumulator does.  Tiling never touches that
order — each K chunk folds the running total into its first term, and
the remaining terms are reduced one K slice at a time — so K-chunk size,
row block, orientation, shard count and batch size are all bit-neutral,
and one sample's output never depends on what shares its batch.  Each
kernel picks its tiling from the GEMM shape and the constant row-block
budget :data:`ROW_BUDGET`.

Zero bypass: like the array, which never multiplies by zero (Sec.
III-C), ``float_table`` skips products whose activation significand is
zero, and the bits do not change.  The accumulator starts at ``+0``; in
round-to-nearest a float32 sum is ``-0`` only when both addends are
``-0``, so the running total is never ``-0`` and adding a ``±0`` product
leaves it unchanged (``inf`` and ``NaN`` totals too).  Inside
``f32_exact`` no operand is inf or NaN and ``V0``'s row 0 is zero, so a
zero-activation product is ``±0``, and the flush and overflow masks map
``±0`` to itself.  Two hot loops bypass:

* :meth:`FloatTableKernel.run` in the standard orientation (the dW GEMMs
  of training, and ``gather``-layout forwards) compacts each row's
  nonzero-activation K indices, in K order, when at least
  :data:`BYPASS_ZEROS` of the activations are zero and one row's dense
  products ``k * n`` reach :data:`BYPASS_ROW_WORK`;
* the weight-stationary layout adds, per K step, only the rows whose
  activation is nonzero there, when at least
  :data:`BYPASS_STATIONARY_ZEROS` of the activations are zero and one
  step's dense products ``m * n`` reach :data:`BYPASS_STEP_WORK`.

The rule reads only the operand's zero count and the GEMM shape, so it
never changes a bit either; calls it turns away run the dense loops.

All product tables are built once per ``(bits, config)`` (weight-stationary
tables once per weight) and cached;
:func:`table_cache_counters` exposes hit/miss counts alongside the
packing counters of :mod:`repro.formats.packed` so tests and the perf
harness can prove that hot paths never rebuild a table.
"""

from __future__ import annotations

import dataclasses
import functools
import threading
import weakref

import numpy as np

from ..formats.floatfmt import FloatFormat, compose
from ..formats.packed import PackedTensor
from . import integrity
from .config import MultiplierConfig
from .fp_mul import _normalise, significand_product
from .tables import table_supported

__all__ = [
    "GemmKernel",
    "PreparedWeight",
    "weight_layout",
    "FloatTableKernel",
    "BlasFactoredKernel",
    "GenericKernel",
    "UnknownKernelError",
    "register_kernel",
    "get_kernel",
    "kernel_names",
    "select_kernel",
    "exact_tier_name",
    "value_table",
    "factored_tables",
    "table_cache_counters",
    "reset_table_cache_counters",
    "peek_table",
    "install_table",
]

# --------------------------------------------------------------------------
# Chunking policy
# --------------------------------------------------------------------------

#: Row-block budget: elements of one ``(row_block, k_step, n)`` tile.
#: A speed choice only — tiling is bit-neutral.
ROW_BUDGET = 1 << 18


def _tiling(k: int, n: int) -> tuple[int, int]:
    """``(k_step, row_block)`` keeping one ``(rows, k_step, n)`` tile in budget.

    A row takes all of K when its ``k * n`` products fit
    :data:`ROW_BUDGET`, and the tile as many rows as then fit.  A speed
    choice, not part of the output contract: :func:`_accumulate` sums in
    the same order whatever the tile.
    """
    n = max(1, n)
    k_step = max(1, min(k, ROW_BUDGET // n))
    return k_step, max(1, ROW_BUDGET // (k_step * n))


#: Zero bypass (module docstring): plain ``run`` calls whose activation
#: operand is at least this share zeros skip the products by zero ...
BYPASS_ZEROS = 0.5
#: ... when one row's dense products (``k * n``) reach this many; below
#: it, per-block overhead outweighs the skipped work.
BYPASS_ROW_WORK = 4096
#: Products of one compacted ``(rows, extent, n)`` block, one call of the
#: gather loop: rows sharing a block pad to its longest row's nonzero
#: count, and each block pays the loop's fixed per-call cost.
BYPASS_BLOCK = 1 << 16
#: Weight-stationary calls bypass at this share of zero activations ...
BYPASS_STATIONARY_ZEROS = 0.75
#: ... when one K step's dense products (``m * n``) reach this many.
BYPASS_STEP_WORK = 1 << 15


def _zero_share(packed: PackedTensor) -> float:
    """Share of zero elements (zero significands) in a packed operand."""
    sig = packed.significand
    return 1.0 - np.count_nonzero(sig) / max(1, sig.size)


def _accumulate(values: np.ndarray, acc: np.ndarray) -> None:
    """``acc <- ((acc + values[:, 0]) + values[:, 1]) + ...`` in float32.

    ``values`` is a ``(rows, k_step, cols)`` tile of products and
    ``acc`` the ``(rows, cols)`` running total, updated in place.  With
    the total folded into the first term, numpy reduces the non-innermost
    K axis one slice at a time — strictly left to right.  A width-1
    inner axis would make K the innermost axis, which numpy sums
    pairwise, so that case runs an accumulate instead.
    """
    values[:, 0] += acc
    if values.shape[2] > 1:
        np.add.reduce(values, axis=1, out=acc)
    else:
        acc[...] = np.add.accumulate(values, axis=1)[:, -1]


# --------------------------------------------------------------------------
# Product tables (cached, with hit/miss instrumentation)
# --------------------------------------------------------------------------

_TABLE_CACHE: dict[tuple, object] = {}
_TABLE_COUNTERS = {"hits": 0, "misses": 0}
#: Guards the table cache *and* its counters so parallel shard execution
#: (see :mod:`repro.runtime.engine`) neither double-builds a table nor
#: drops counter increments.  Reentrant because building a factored
#: table looks up the value table through the same gate.
_TABLE_LOCK = threading.RLock()


def table_cache_counters() -> dict[str, int]:
    """Snapshot of the kernel-table cache hit/miss counters.

    A *miss* means a table (float value, transposed value, or factored
    correction) was built from scratch; a *hit* means a cached table was
    reused.  Complements :func:`repro.formats.packed.packing_counters`:
    together they prove a steady-state hot path does zero table-rebuild
    and zero re-pack work.  Reads and updates are lock-guarded, so the
    counts stay exact under multi-threaded execution.
    """
    with _TABLE_LOCK:
        return dict(_TABLE_COUNTERS)


def reset_table_cache_counters() -> None:
    """Reset the table cache hit/miss counters to zero."""
    with _TABLE_LOCK:
        _TABLE_COUNTERS["hits"] = 0
        _TABLE_COUNTERS["misses"] = 0


def _cached(key: tuple, build, source: tuple | None = None):
    with _TABLE_LOCK:
        hit = _TABLE_CACHE.get(key)
        if hit is not None:
            _TABLE_COUNTERS["hits"] += 1
            return hit
        # Build under the lock: concurrent first touches of a key must
        # yield one build (tables are shared read-only afterwards).
        _TABLE_COUNTERS["misses"] += 1
        value = build()
        _TABLE_CACHE[key] = value
    # Register the checksum + rebuild closure outside the table lock
    # (integrity takes its own lock first when healing; keeping the
    # integrity -> table ordering on both paths avoids a deadlock).
    integrity.register_table(key, value, build, source)
    return value


def peek_table(key: tuple):
    """The live cache entry for ``key`` (``None`` if absent).

    Integrity verification reads the *live* bytes through this — no
    build, no counter churn — to compare against the registered
    checksum.
    """
    with _TABLE_LOCK:
        return _TABLE_CACHE.get(key)


def install_table(key: tuple, value) -> None:
    """Replace a cache entry in place (the integrity heal path).

    Kernels look their tables up per ``run`` call, so the next GEMM on
    any thread reads the healed entry; the corrupted array is left to
    the garbage collector once in-flight calls drop it.
    """
    with _TABLE_LOCK:
        _TABLE_CACHE[key] = value


def _config_key(config: MultiplierConfig | None) -> tuple:
    if config is None:
        return (None, False)
    return (config.scheme, config.truncated)


def _normalised_products(
    bits: int, config: MultiplierConfig | None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(sig, bump, nonzero) of every significand pair under ``config``.

    ``config=None`` means *exact* products (the conventional multiplier
    followed by the same one-position normalisation) — this is what the
    quantised-only backend simulates.
    """
    operands = np.arange(1 << bits, dtype=np.uint64)
    a, b = operands[:, None], operands[None, :]
    if config is None:
        product = a * b
        truncated = False
    else:
        product = significand_product(a, b, bits, config)
        truncated = config.truncated
    sig, bump = _normalise(product, np.zeros_like(product, dtype=np.int64), bits, truncated)
    return sig, bump.astype(np.int32), product != 0


def value_table(bits: int, config: MultiplierConfig | None) -> np.ndarray:
    """The float32 value table ``V0[ma, mb]`` of normalised products.

    ``V0[ma, mb] = sig * 2^(bump - (bits-1))`` is the *value* of the
    normalised significand product with the normalisation bump folded
    in; for valid operand indices (MSB set, as ``decompose`` produces,
    or 0) entries lie in ``[1, 4)`` or are exactly 0.  The full product
    of two packed values is then
    ``scale_a * scale_b * V0[ma, mb]`` with ``scale = (-1)^s * 2^e`` —
    one gather and two multiplies.  Entries carry at most ``bits + 1``
    significant bits, so every in-range float32 product is exact.

    The table is *asymmetric*: ``ma`` indexes the stored operand, ``mb``
    the wordline-driving operand of the OR-multiplier.
    """

    def build() -> np.ndarray:
        sig, bump, _nonzero = _normalised_products(bits, config)
        table = np.ldexp(sig.astype(np.float32), bump - np.int32(bits - 1)).astype(
            np.float32
        )
        table.setflags(write=False)
        return table

    return _cached(_value_key(bits, config), build)


def _value_key(bits: int, config: MultiplierConfig | None) -> tuple:
    return (bits, *_config_key(config), "value")


def _value_table_t(bits: int, config: MultiplierConfig | None) -> np.ndarray:
    """Contiguous transpose of :func:`value_table` (``[mb, ma]`` layout).

    :meth:`FloatTableKernel.run`'s transposed orientation swaps the
    operands, so its gather reads ``V0^T[mb, ma]``.
    """

    def build() -> np.ndarray:
        table = np.ascontiguousarray(value_table(bits, config).T)
        table.setflags(write=False)
        return table

    return _cached(
        (bits, *_config_key(config), "value_T"), build, _value_key(bits, config)
    )


def factored_tables(
    bits: int,
    config: MultiplierConfig | None,
    rank: int | None = None,
    tol: float = 0.05,
    max_rank: int = 32,
) -> tuple[np.ndarray, np.ndarray, dict]:
    """SVD factor tables of the value-table error ``E = V0 - mu mu^T``.

    ``mu[m] = m * 2^-(bits-1)`` is the exact significand value, so the
    ``mu`` outer product is the *exact* component of every product and
    ``E`` is the per-config approximation-error table.  Returns
    ``(Fa, Fb, info)`` where ``Fa``/``Fb`` are ``(rank, 2^bits)``
    float32 factor tables (singular values folded in symmetrically) with
    ``E ~= Fa^T @ Fb``, and ``info`` records the chosen rank and the
    relative Frobenius residual of the truncation.

    Parameters
    ----------
    rank:
        Explicit truncation rank; ``None`` picks the smallest rank whose
        relative Frobenius residual is below ``tol`` (capped at
        ``max_rank``).
    tol, max_rank:
        Residual target and rank cap for the automatic choice.
    """

    def build() -> tuple[np.ndarray, np.ndarray, dict]:
        v0 = value_table(bits, config).astype(np.float64)
        mu = np.arange(1 << bits, dtype=np.float64) * 2.0 ** -(bits - 1)
        error = v0 - np.outer(mu, mu)
        left, sigma, right_t = np.linalg.svd(error)
        total = float(np.sqrt((sigma**2).sum()))
        if rank is None:
            chosen = int(max_rank)
            for r in range(max_rank + 1):
                resid = float(np.sqrt((sigma[r:] ** 2).sum()))
                if total == 0.0 or resid <= tol * total:
                    chosen = r
                    break
        else:
            chosen = int(rank)
        root = np.sqrt(sigma[:chosen])
        fa = (left[:, :chosen] * root).T.astype(np.float32)
        fb = (right_t[:chosen, :].T * root).T.astype(np.float32)
        fa.setflags(write=False)
        fb.setflags(write=False)
        resid = float(np.sqrt((sigma[chosen:] ** 2).sum()))
        info = {
            "rank": chosen,
            "rel_frobenius_residual": (resid / total) if total else 0.0,
        }
        return fa, fb, info

    return _cached(
        (bits, *_config_key(config), "factored", rank, tol, max_rank),
        build,
        _value_key(bits, config),
    )


# --------------------------------------------------------------------------
# Weight layouts: a static weight arranged once for the float_table hot loop
# --------------------------------------------------------------------------

#: Layout names, as ``ExecutionPlan.describe()`` reports them.
GATHER = "gather"
WEIGHT_STATIONARY = "weight_stationary"
ACTIVATION_EXPANDED = "activation_expanded"
DIRECT = "direct"

#: Narrowest weight given a weight-stationary table: the hot loop
#: gathers rows of N floats, and shorter rows stay per-element bound.
WS_MIN_N = 16
#: Largest weight-stationary table, in bytes (``K * rows * N`` float32).
WS_MAX_BYTES = 2 << 20
#: K columns per tile of each layout.  Like all tiling, bit-neutral.
LAYOUT_K_STEP = {WEIGHT_STATIONARY: 64, ACTIVATION_EXPANDED: 16}
#: Elements of one ``(row_block, k_step, n)`` product tile of a layout.
LAYOUT_TILE = 1 << 17


@functools.lru_cache(maxsize=None)
def _significand_rows(bits: int) -> tuple[np.ndarray, np.ndarray]:
    """``(significands, row_of)`` for ``bits``-bit packed significands.

    A packed operand holds zero or a significand with its MSB set, so
    ``2^(bits-1) + 1`` rows cover it: row 0 is zero, row ``r`` the
    significand ``2^(bits-1) + r - 1``.  ``row_of`` maps a significand to
    its row (129 rows for bfloat16, against 256 table columns).
    """
    significands = np.r_[0, np.arange(1 << (bits - 1), 1 << bits)].astype(np.intp)
    row_of = np.zeros(1 << bits, dtype=np.intp)
    row_of[significands] = np.arange(significands.size)
    significands.setflags(write=False)
    row_of.setflags(write=False)
    return significands, row_of


def weight_layout(k: int, n: int, bits: int) -> str:
    """The ``float_table`` layout for a ``(k, n)`` weight of ``bits``-bit significands.

    * :data:`WEIGHT_STATIONARY` when ``n >= WS_MIN_N`` and the table fits
      :data:`WS_MAX_BYTES`;
    * :data:`ACTIVATION_EXPANDED` when ``n`` reaches ``2^(bits-1)``
      (128 for bfloat16): expanding one activation element costs one row
      of ``2^(bits-1) + 1`` values, which ``n`` products then share;
    * :data:`GATHER` (the plain kernel) otherwise.

    A convolution whose table fits runs :data:`DIRECT` instead
    (:meth:`FloatTableKernel.prepare_direct`), whatever this returns.

    A function of the weight's shape alone, never of the batch, so a
    plan's layouts — and its bits — are the same in every process.
    """
    rows = _significand_rows(bits)[0].size
    if n >= WS_MIN_N and k * rows * n * 4 <= WS_MAX_BYTES:
        return WEIGHT_STATIONARY
    if n >= max(WS_MIN_N, rows - 1):
        return ACTIVATION_EXPANDED
    return GATHER


def _layout_tiling(layout: str, m: int, k: int, n: int) -> tuple[int, int]:
    """``(k_step, row_block)`` of one layout tile (a speed choice only)."""
    k_step = max(1, min(k, LAYOUT_K_STEP[layout]))
    return k_step, max(1, min(m, LAYOUT_TILE // (k_step * n)))


def _value_rows(bits: int, config: MultiplierConfig | None) -> np.ndarray:
    """``V0[:, significands]``: the value table at the weight rows only.

    ``(2^bits, rows)``; the activation-expanded layout gathers one row of
    it per activation element.
    """

    def build() -> np.ndarray:
        significands = _significand_rows(bits)[0]
        table = np.ascontiguousarray(value_table(bits, config)[:, significands])
        table.setflags(write=False)
        return table

    return _cached(
        (bits, *_config_key(config), "value_rows"), build, _value_key(bits, config)
    )


def _build_stationary(weight: PackedTensor, config: MultiplierConfig | None) -> np.ndarray:
    """``T[k * rows + r, :] = V0[significands[r], mb[k, :]] * beta[k, :]``.

    A direct-conv weight interleaves its groups' ``(K, fg)`` weights,
    so row ``(t * G + g) * rows + r`` is group ``g``, tap ``t``.
    """
    bits = weight.fmt.significand_bits
    significands = _significand_rows(bits)[0]
    k, n = weight.shape
    table = value_table(bits, config)[significands[None, :, None], weight.significand[:, None, :]]
    # Weights outside the f32_exact range may overflow here; calls with
    # them never read the table (run_prepared falls back to run()).
    with np.errstate(over="ignore", invalid="ignore"):
        table *= weight.scale()[:, None, :]
    table = table.reshape(k * significands.size, n)
    table.setflags(write=False)
    return table


def _row_addressable(weight: PackedTensor) -> bool:
    """Whether every significand is zero or has its MSB set (has a table row)."""
    mb, bits = weight.significand, weight.fmt.significand_bits
    return bool(np.all((mb == 0) | (mb >> (bits - 1) == 1)))


def _row_plane(packed: PackedTensor) -> np.ndarray:
    """``row_of[significand]`` in the significand's dtype, without a select on the zero mask.

    A nonzero significand's row is ``mb - (2^(bits-1) - 1)``: its bits
    below the MSB plus the MSB itself; zero maps to row 0.
    """
    sig, bits = packed.significand, packed.fmt.significand_bits
    row = sig & sig.dtype.type((1 << (bits - 1)) - 1)
    row += sig >> sig.dtype.type(bits - 1)
    return row


#: Live :class:`PreparedWeight` count per weight-stationary table key.
#: A table leaves the cache with the last plan (or layer cache entry)
#: that uses it.  The release runs in a finalizer, in whatever thread
#: drops the weight, so it takes only the table lock (no path holding
#: that lock waits on another).
_TABLE_REFS: dict[tuple, int] = {}
#: Keys whose table was released, queued for the integrity registry to
#: drop their records (each record's rebuild closure pins a packed
#: weight).  Written under the table lock; read by
#: :func:`drain_released` through atomic dict operations only, so the
#: integrity layer drains it under its own lock without taking this one.
_RELEASED: dict[tuple, None] = {}


def _retain(key: tuple) -> None:
    with _TABLE_LOCK:
        _TABLE_REFS[key] = _TABLE_REFS.get(key, 0) + 1


def _release(key: tuple) -> None:
    with _TABLE_LOCK:
        left = _TABLE_REFS.pop(key) - 1
        if left:
            _TABLE_REFS[key] = left
            return
        _TABLE_CACHE.pop(key, None)
        _RELEASED[key] = None


def drain_released() -> list[tuple]:
    """Keys released since the last drain.

    Takes no lock: each ``popitem`` is atomic.  A key whose table was
    rebuilt since is still queued only if its registration has not run
    yet (registration drains first), so dropping the key's record here
    never loses a live table's.
    """
    keys = []
    while _RELEASED:
        try:
            keys.append(_RELEASED.popitem()[0])
        except KeyError:
            break
    return keys


@dataclasses.dataclass(frozen=True, eq=False)
class PreparedWeight:
    """A static packed weight arranged once for a kernel's hot loop.

    Built by :meth:`GemmKernel.prepare` when a plan compiles (or an
    eager layer caches a weight version) and consumed by
    :meth:`GemmKernel.run_prepared`.  ``layout`` names the arrangement
    (see :func:`weight_layout`; ``None`` for kernels without layouts).
    A weight-stationary or direct layout keeps only the ``table_key`` of
    its table in the table cache and looks the table up on every call,
    so an integrity heal takes effect at the next GEMM.
    An activation-expanded layout keeps ``index``, each weight element's
    significand row ``row_of[mb[k, n]]`` in the narrowest unsigned dtype
    (one byte for bfloat16).
    """

    weight: PackedTensor
    config: MultiplierConfig | None
    layout: str | None = None
    table_key: tuple | None = None
    index: np.ndarray | None = None


# --------------------------------------------------------------------------
# Kernels
# --------------------------------------------------------------------------


class GemmKernel:
    """Interface: a named routine computing a packed ``(M, K) @ (K, N)``.

    Kernels consume two 2-D :class:`~repro.formats.packed.PackedTensor`
    operands of the same format and return the float32 product under
    ``config`` (``None`` selects exact significand products).  They are
    registered by name via :func:`register_kernel` and selected through
    :func:`select_kernel`; ``approx_matmul`` and the backends plumb the
    name down from user code.
    """

    #: Registry name; subclasses override.
    name = "abstract"

    #: Whether outputs are bit-identical to the scalar reference
    #: pipeline (``repro.core.mantissa`` + normalise + compose).
    bit_exact = True

    def supports(self, fmt: FloatFormat, config: MultiplierConfig | None) -> bool:
        """Whether this kernel can run operands of ``fmt`` under ``config``."""
        raise NotImplementedError

    def run(
        self,
        pa: PackedTensor,
        pb: PackedTensor,
        config: MultiplierConfig | None,
    ) -> np.ndarray:
        """Compute the product of 2-D packed operands."""
        raise NotImplementedError

    def run_pairs(
        self,
        pa: PackedTensor,
        pb: PackedTensor,
        config: MultiplierConfig | None,
    ) -> np.ndarray:
        """``(B, M, K) @ (B, K, N)``: one product per leading index.

        The default runs :meth:`run` once per pair.
        """
        out = np.empty((pa.shape[0], pa.shape[1], pb.shape[2]), dtype=np.float32)
        for i in range(len(out)):
            out[i] = self.run(pa[i], pb[i], config)
        return out

    def prepare(self, pb: PackedTensor, config: MultiplierConfig | None) -> PreparedWeight:
        """Arrange a static weight once for :meth:`run_prepared`.

        The default keeps the packed planes as they are.
        """
        return PreparedWeight(pb, config)

    def run_prepared(self, pa: PackedTensor, prepared: PreparedWeight) -> np.ndarray:
        """Product of packed activations with a :meth:`prepare`-d weight."""
        return self.run(pa, prepared.weight, prepared.config)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name})"


class FloatTableKernel(GemmKernel):
    """One-gather float-domain kernel (the bit-exact default).

    Per tile the kernel gathers ``V0[ma, mb]`` and multiplies in the two
    scale planes.  When operand exponents are comfortably inside the
    float32 range (the *safe* regime — always true for well-conditioned
    DNN tensors) every intermediate is exact and the three passes can
    run in-place in any order.  Otherwise it falls back to computing the
    exact power-of-two ``scale_a * scale_b`` first (so overflow
    saturates exactly like ``compose``) and applies a subnormal-flush
    mask for the datapath's emin branch; overflow to inf needs no mask
    because bfloat16 and float32 share ``emax``.  Both regimes are
    bit-identical to the scalar reference, including its NaN where an
    output sums ``+inf`` and ``-inf`` products.
    """

    name = "float_table"
    bit_exact = True

    #: A GEMM at least this many times taller than wide runs in the
    #: transposed orientation (long SIMD axis = rows).
    TRANSPOSE_ASPECT = 16

    def supports(self, fmt: FloatFormat, config: MultiplierConfig | None) -> bool:
        """Table-supported significand widths (see ``MAX_TABLE_BITS``)."""
        return table_supported(fmt.significand_bits)

    @staticmethod
    def _range_masks(pa, pb) -> tuple[bool, bool, bool, np.uint32, np.uint32]:
        fmt = pa.fmt
        ea_min, ea_max = pa.exponent_range()
        eb_min, eb_max = pb.exponent_range()

        # Every float32 intermediate is exact when scale products cannot
        # overflow or go subnormal; then the in-place multiply order is
        # bit-equivalent to composing the exact scale product first.
        f32_exact = ea_max <= 125 and eb_max <= 125 and ea_min + eb_min >= -126
        emin_u = 1 - fmt.bias
        emax_u = fmt.max_exponent - fmt.bias
        # Format-range masks: a product below 2^emin flushes to signed
        # zero, at or above 2^(emax+1) saturates to inf.  For 8-exponent-
        # bit formats the overflow mask is a no-op (float32 shares emax,
        # so IEEE multiply already saturates identically).
        needs_flush = ea_min + eb_min < emin_u
        needs_overflow = emax_u < 127 and ea_max + eb_max + 1 > emax_u
        flush_bits = np.uint32((emin_u + 127) << 23)
        inf_from = np.uint32((emax_u + 128) << 23)
        return f32_exact, needs_flush, needs_overflow, flush_bits, inf_from

    @staticmethod
    def _apply_masks(values, needs_flush, needs_overflow, flush_bits, inf_from):
        if not (needs_flush or needs_overflow):
            return
        bits = values.view(np.uint32)
        mag = bits & np.uint32(0x7FFF_FFFF)
        if needs_flush:
            bits[...] = np.where(mag < flush_bits, bits & np.uint32(0x8000_0000), bits)
        if needs_overflow:
            bits[...] = np.where(
                mag >= inf_from,
                (bits & np.uint32(0x8000_0000)) | np.uint32(0x7F80_0000),
                bits,
            )

    def run(self, pa, pb, config):
        """Gather-and-scale product: :meth:`_gather` with one pair.

        Tall-skinny problems (``m >= TRANSPOSE_ASPECT * n``) swap the
        operands over ``V0^T`` (``out^T = pb^T @ pa^T``), so the long row
        dimension is the loop's inner SIMD axis; the products and their K
        order are the same, so both orientations give identical bits.
        Otherwise mostly-zero activations skip their products by zero
        (:meth:`_run_compacted`; the zero bypass rule above).
        """
        m, k = pa.shape
        n = pb.shape[1]
        masks = self._range_masks(pa, pb)
        bits = pa.fmt.significand_bits
        with np.errstate(over="ignore", invalid="ignore"):
            if masks[0] and m >= self.TRANSPOSE_ASPECT * max(1, n):
                planes = (pb.significand.T, pb.scale().T, pa.significand.T, pa.scale().T)
                out = self._gather(_value_table_t(bits, config), *(x[None] for x in planes), masks)
                return np.ascontiguousarray(out[0].T)
            if masks[0] and k * n >= BYPASS_ROW_WORK and _zero_share(pa) >= BYPASS_ZEROS:
                return self._run_compacted(pa, pb, config, masks)
            planes = (pa.significand, pa.scale(), pb.significand, pb.scale())
            return self._gather(value_table(bits, config), *(x[None] for x in planes), masks)[0]

    def _run_compacted(self, pa, pb, config, masks):
        """Standard orientation over each row's nonzero activations (zero bypass).

        Each row's nonzero-activation K indices move to its front, in K
        order, padded with the index of the row's first zero.  Rows run
        in blocks sorted by nonzero count, each over the K extent of its
        longest row, so a shorter row's padding products are ±0.  A
        block is one :meth:`_gather` call in which each row is a pair
        against its own ``mb`` and ``beta`` rows, gathered at its
        compacted indices.  Only taken in the ``f32_exact`` regime.
        """
        m, k = pa.shape
        n = pb.shape[1]
        table = value_table(pa.fmt.significand_bits, config)
        sig = pa.significand
        counts = np.count_nonzero(sig, axis=1)
        rows, cols = np.nonzero(sig)
        compact = np.repeat(np.argmin(sig, axis=1)[:, None], counts.max(initial=0), axis=1)
        compact[rows, np.arange(rows.size) - (np.cumsum(counts) - counts)[rows]] = cols
        order = np.argsort(counts, kind="stable")
        counts, compact = counts[order], compact[order]
        cells = compact + (order * k)[:, None]
        ma = sig.reshape(-1).take(cells)[:, None]
        alpha = pa.scale().reshape(-1).take(cells)[:, None]
        mb, beta = pb.significand, pb.scale()

        out = np.zeros((m, n), dtype=np.float32)
        r0 = 0
        while r0 < m:
            # As many rows as fit BYPASS_BLOCK at the last row's extent.
            r1 = min(m, r0 + max(1, BYPASS_BLOCK // (n * max(1, counts[r0]))))
            while r1 - r0 > 1 and (r1 - r0) * counts[r1 - 1] * n > BYPASS_BLOCK:
                r1 = r0 + (r1 - r0) // 2
            extent = int(counts[r1 - 1])
            if extent:
                kk = compact[r0:r1, :extent]
                planes = (ma[r0:r1, :, :extent], alpha[r0:r1, :, :extent])
                planes += (mb.take(kk, axis=0), beta.take(kk, axis=0))
                out[order[r0:r1]] = self._gather(table, *planes, masks)[:, 0]
            r0 = r1
        return out

    def _gather(self, table, ma, alpha, mb, beta, masks):
        """``(P, M, K) @ (P, K, N)`` over the value table ``table``: the one K loop.

        ``ma``/``alpha`` are the significand and scale planes of the
        ``(P, M, K)`` operand, ``mb``/``beta`` those of the ``(P, K, N)``
        one, in any layout, and ``masks`` the call's :meth:`_range_masks`.
        Per tile the loop gathers ``table[ma, mb]`` and multiplies in both
        scales — in place inside ``f32_exact``, by the exact scale product
        first outside it — applies the range masks and folds the tile into
        the running total with :func:`_accumulate`, so every output is
        summed left to right over K.  A tile spans a block of whole pairs
        or of one pair's rows, and a K chunk (:func:`_tiling`); it splits
        N only when one row of N alone exceeds :data:`ROW_BUDGET`.
        Callers hold ``np.errstate(over="ignore", invalid="ignore")``:
        products may overflow to inf, and ``inf - inf`` sums to NaN.
        """
        p, m, k = ma.shape
        n = mb.shape[2]
        flat = table.reshape(-1)
        # C-order index planes keep each tile's index sum, and so the
        # gathered tile, in C order: K is never its inner axis.
        ma = np.multiply(ma, np.intp(table.shape[0]), dtype=np.intp, order="C")
        mb = mb.astype(np.intp, order="C", copy=False)
        beta = np.ascontiguousarray(beta)
        out = np.zeros((p, m, n), dtype=np.float32)
        n_step = max(1, min(n, ROW_BUDGET))
        k_step, row_block = _tiling(k, n_step)
        pair_block = max(1, row_block // max(1, m))
        row_block = max(1, min(row_block, m))
        f32_exact, masks = masks[0], masks[1:]
        for p0 in range(0, p, pair_block):
            p1 = min(p, p0 + pair_block)
            for r0 in range(0, m, row_block):
                r1 = min(m, r0 + row_block)
                for n0 in range(0, n, n_step):
                    n1 = min(n, n0 + n_step)
                    # Several pairs per tile only when it spans all rows
                    # and N, so the total is a view either way.
                    acc = out[p0:p1, r0:r1, n0:n1].reshape(-1, n1 - n0)
                    for c0 in range(0, k, k_step):
                        c1 = min(k, c0 + k_step)
                        a = alpha[p0:p1, r0:r1, c0:c1, None]
                        b = beta[p0:p1, None, c0:c1, n0:n1]
                        values = flat.take(
                            ma[p0:p1, r0:r1, c0:c1, None] + mb[p0:p1, None, c0:c1, n0:n1]
                        )
                        if f32_exact:
                            values *= a
                            values *= b
                        else:
                            scaled = a * b
                            scaled *= values
                            values = scaled
                        self._apply_masks(values, *masks)
                        _accumulate(values.reshape(-1, c1 - c0, n1 - n0), acc)
        return out

    def run_pairs(self, pa, pb, config):
        """All pairs' products in one :meth:`_gather` call.

        The regime and the masks are taken over all pairs together; a
        pair inside ``f32_exact`` is exact under either multiply order,
        and masks it does not need leave its products alone, so every
        pair's bits equal its own :meth:`run` (in either orientation).
        """
        table = value_table(pa.fmt.significand_bits, config)
        planes = (pa.significand, pa.scale(), pb.significand, pb.scale())
        with np.errstate(over="ignore", invalid="ignore"):
            return self._gather(table, *planes, self._range_masks(pa, pb))

    def prepare(self, pb, config):
        """Give a static weight its :func:`weight_layout`, building its table now.

        Layouts address significands by row, which cover only what
        ``pack`` produces (zero or MSB set); any other weight keeps the
        plain gather.
        """
        k, n = pb.shape
        bits = pb.fmt.significand_bits
        layout = weight_layout(k, n, bits)
        if layout == GATHER or not _row_addressable(pb):
            return PreparedWeight(pb, config, GATHER)
        if layout == WEIGHT_STATIONARY:
            return self._prepare_stationary(pb, config, layout)
        index = _row_plane(pb).astype(np.min_scalar_type(1 << (bits - 1)))
        index.setflags(write=False)
        _value_rows(bits, config)
        return PreparedWeight(pb, config, layout, index=index)

    def prepare_direct(self, weights, config) -> PreparedWeight | None:
        """One :data:`DIRECT` table for a convolution's per-group ``(K, fg)`` weights.

        The groups' weights are interleaved tap by tap into one
        ``(K * G, fg)`` weight and expanded into its weight-stationary
        table, capped at :data:`WS_MAX_BYTES`; ``None`` when the table
        would not fit or a significand is not row-addressable.  For a
        ``groups=1`` conv that is the weight's own weight-stationary
        table: same content, same cache key.
        """
        k, n = weights[0].shape
        rows = _significand_rows(weights[0].fmt.significand_bits)[0].size
        if len(weights) * k * rows * n * 4 > WS_MAX_BYTES:
            return None
        # Row t * G + g is group g's tap t: one contiguous block per tap.
        def interleave(planes):
            return np.stack(planes, axis=1).reshape(-1, n)

        ranges = [w.exponent_range() for w in weights]
        stacked = PackedTensor.from_planes(
            weights[0].fmt,
            interleave([w.significand for w in weights]),
            interleave([w.scale() for w in weights]),
            (min(lo for lo, _ in ranges), max(hi for _, hi in ranges)),
        )
        if not _row_addressable(stacked):
            return None
        return self._prepare_stationary(stacked, config, DIRECT)

    def _prepare_stationary(self, pb, config, layout) -> PreparedWeight:
        key = (
            pb.fmt.significand_bits,
            *_config_key(config),
            "value_ws",
            integrity.checksum_value((pb.significand, pb.scale())),
        )
        prepared = PreparedWeight(pb, config, layout, table_key=key)
        _retain(key)
        weakref.finalize(prepared, _release, key).atexit = False
        self._stationary_table(prepared)
        return prepared

    @staticmethod
    def _stationary_table(prepared: PreparedWeight) -> np.ndarray:
        weight, config = prepared.weight, prepared.config
        return _cached(
            prepared.table_key,
            lambda: _build_stationary(weight, config),
            _value_key(weight.fmt.significand_bits, config),
        )

    def run_prepared(self, pa, prepared):
        """The prepared layout's hot loop; :meth:`run` outside ``f32_exact``.

        Both layouts form every product from the same three exact
        factors as :meth:`run` — ``V0[ma, mb]``, ``alpha`` and ``beta`` —
        only grouped differently, and in the ``f32_exact`` regime every
        grouping is exact.  The K-sum is the same :func:`_accumulate`, so
        the output bits equal :meth:`run`'s.  A weight-stationary call
        with mostly-zero activations takes the zero bypass
        (:meth:`_run_stationary_sparse`).
        """
        if prepared.layout in (WEIGHT_STATIONARY, ACTIVATION_EXPANDED):
            masks = self._range_masks(pa, prepared.weight)
            if masks[0]:
                if prepared.layout == WEIGHT_STATIONARY:
                    m, n = pa.shape[0], prepared.weight.shape[1]
                    if m * n >= BYPASS_STEP_WORK and _zero_share(pa) >= BYPASS_STATIONARY_ZEROS:
                        return self._run_stationary_sparse(pa, prepared, masks)
                    return self._run_stationary(pa, prepared, masks)
                return self._run_expanded(pa, prepared, masks)
        return self.run(pa, prepared.weight, prepared.config)

    def _run_stationary(self, pa, prepared, masks):
        """Gather rows ``T[k * rows + row_of[ma[i, k]], :]``, scale by ``alpha``."""
        m, k = pa.shape
        n = prepared.weight.shape[1]
        table = self._stationary_table(prepared)
        significands, row_of = _significand_rows(pa.fmt.significand_bits)
        offsets = np.arange(0, k * significands.size, significands.size)
        alpha = pa.scale()

        out = np.zeros((m, n), dtype=np.float32)
        k_step, row_block = _layout_tiling(WEIGHT_STATIONARY, m, k, n)
        buf = np.empty(row_block * k_step * n, dtype=np.float32)
        with np.errstate(over="ignore", invalid="ignore"):
            for r0 in range(0, m, row_block):
                r1 = min(m, r0 + row_block)
                index = row_of.take(pa.significand[r0:r1])
                index += offsets
                for c0 in range(0, k, k_step):
                    c1 = min(k, c0 + k_step)
                    values = buf[: (r1 - r0) * (c1 - c0) * n].reshape(r1 - r0, c1 - c0, n)
                    # mode="clip" (indices are in range) lets take write
                    # straight into the buffer instead of a temporary.
                    table.take(
                        index[:, c0:c1].reshape(-1),
                        axis=0,
                        out=values.reshape(-1, n),
                        mode="clip",
                    )
                    values *= alpha[r0:r1, c0:c1, None]
                    self._apply_masks(values, *masks[1:])
                    _accumulate(values, out[r0:r1])
        return out

    def _run_stationary_sparse(self, pa, prepared, masks):
        """:meth:`_run_stationary` over nonzero activations only (zero bypass).

        Per K step, gathers table rows for the rows whose activation is
        nonzero there, scales them by ``alpha`` and adds them to those
        rows' totals.  A step selects each row at most once, so every
        output still gets its terms in K order.
        """
        m, k = pa.shape
        n = prepared.weight.shape[1]
        table = self._stationary_table(prepared)
        significands, row_of = _significand_rows(pa.fmt.significand_bits)
        sig_t = np.ascontiguousarray(pa.significand.T)
        alpha_t = np.ascontiguousarray(pa.scale().T)

        out = np.zeros((m, n), dtype=np.float32)
        with np.errstate(over="ignore", invalid="ignore"):
            for t in range(k):
                sel = np.flatnonzero(sig_t[t])
                index = row_of.take(sig_t[t].take(sel))
                index += t * significands.size
                values = table.take(index, axis=0)
                values *= alpha_t[t].take(sel)[:, None]
                self._apply_masks(values, *masks[1:])
                out[sel] += values
        return out

    def _run_expanded(self, pa, prepared, masks):
        """Per tile, expand ``A = V0[ma, significands] * alpha``, gather, scale by ``beta``.

        The expansion spans one K chunk, not the whole K row, so the row
        block stays wide.
        """
        m, k = pa.shape
        weight = prepared.weight
        n = weight.shape[1]
        table = _value_rows(pa.fmt.significand_bits, prepared.config)
        rows = table.shape[1]
        ma = pa.significand
        alpha, beta = pa.scale(), weight.scale()

        out = np.zeros((m, n), dtype=np.float32)
        k_step, row_block = _layout_tiling(ACTIVATION_EXPANDED, m, k, n)
        # Column ``j * rows + r`` of a tile's flattened expansion is row
        # ``r`` of the chunk's ``j``-th activation.
        offsets = np.arange(0, k_step * rows, rows)[:, None]
        expanded_buf = np.empty(row_block * k_step * rows, dtype=np.float32)
        buf = np.empty(row_block * k_step * n, dtype=np.float32)
        with np.errstate(over="ignore", invalid="ignore"):
            for r0 in range(0, m, row_block):
                r1 = min(m, r0 + row_block)
                for c0 in range(0, k, k_step):
                    c1 = min(k, c0 + k_step)
                    nr, nk = r1 - r0, c1 - c0
                    expanded = expanded_buf[: nr * nk * rows].reshape(nr, nk, rows)
                    table.take(
                        ma[r0:r1, c0:c1].reshape(-1),
                        axis=0,
                        out=expanded.reshape(-1, rows),
                        mode="clip",
                    )
                    expanded *= alpha[r0:r1, c0:c1, None]
                    local = prepared.index[c0:c1] + offsets[:nk]
                    values = buf[: nr * nk * n].reshape(nr, nk, n)
                    expanded.reshape(nr, nk * rows).take(
                        local.reshape(-1), axis=1, out=values.reshape(nr, nk * n), mode="clip"
                    )
                    values *= beta[None, c0:c1]
                    self._apply_masks(values, *masks[1:])
                    _accumulate(values, out[r0:r1])
        return out

    def run_direct(self, image, prepared, kernel, stride, padding, groups):
        """Convolve a packed ``(N, C, H, W)`` image with a :meth:`prepare_direct`-ed weight.

        Returns the ``(N, groups * fg, OH, OW)`` output, or ``None``
        outside ``f32_exact`` (the caller then runs the per-group GEMMs).
        No im2col: the image becomes one padded plane of table rows and
        one padded ``alpha`` plane, and each tap ``t = (c, kh, kw)`` —
        im2col's column order — reads a strided ``(N, groups, OH, OW)``
        window of both, gathers rows of ``fg`` products from tap ``t``'s
        block of the table and adds them to the total.  That is the
        left-to-right K-sum of :func:`_accumulate` over the same exact
        products, so the bits equal the per-group :meth:`run`'s, and each
        output depends on its own sample only.
        """
        masks = self._range_masks(image, prepared.weight)
        if not masks[0]:
            return None
        table = self._stationary_table(prepared)
        fg = table.shape[1]
        rows = _significand_rows(image.fmt.significand_bits)[0].size
        n, c, h, w = image.shape
        cg = c // groups
        block = groups * rows
        oh = (h + 2 * padding - kernel) // stride + 1
        ow = (w + 2 * padding - kernel) // stride + 1

        # Plane entry: group g's row of the pixel's significand, g * rows + row.
        offsets = (np.arange(c, dtype=np.uint32) // cg * rows)[None, :, None, None]
        plane = np.empty((n, c, h + 2 * padding, w + 2 * padding), np.min_scalar_type(block - 1))
        plane[...] = offsets  # padding reads row 0: a zero
        inner = (slice(None), slice(None), slice(padding, padding + h), slice(padding, padding + w))
        plane[inner] = _row_plane(image) + offsets
        alpha_plane = np.zeros(plane.shape, np.float32)
        alpha_plane[inner] = image.scale()

        # fg == 1 keeps 4-D tiles: a trailing broadcast axis of length 1
        # would become the ufuncs' inner loop.
        tile = (n, groups, oh, ow) if fg == 1 else (n, groups, oh, ow, fg)
        index = np.empty((n, groups, oh, ow), np.intp)
        values = np.empty(tile, np.float32)
        acc = np.zeros(tile, np.float32)
        t = 0
        with np.errstate(over="ignore", invalid="ignore"):
            for c0 in range(cg):
                for kh in range(kernel):
                    for kw in range(kernel):
                        window = (
                            slice(None),
                            slice(c0, None, cg),
                            slice(kh, kh + stride * (oh - 1) + 1, stride),
                            slice(kw, kw + stride * (ow - 1) + 1, stride),
                        )
                        np.copyto(index, plane[window])
                        table[t * block : (t + 1) * block].take(
                            index.reshape(-1), axis=0, out=values.reshape(-1, fg), mode="clip"
                        )
                        alpha = alpha_plane[window]
                        values *= alpha if fg == 1 else alpha[..., None]
                        self._apply_masks(values, *masks[1:])
                        acc += values
                        t += 1
        if fg == 1:
            return acc
        return acc.transpose(0, 1, 4, 2, 3).reshape(n, groups * fg, oh, ow)


class BlasFactoredKernel(GemmKernel):
    """BLAS-factored exact+correction fast path (opt-in, not bit-exact).

    Routes the exact component ``(alpha mu[ma]) @ (beta mu[mb])`` — which
    is literally the quantised dense operands — through ``numpy.matmul``
    and contracts a rank-``r`` factorisation of the per-config error
    table as ``r`` additional BLAS columns per reduction element.  Total
    cost is two BLAS GEMMs plus ``O(r (MK + KN))`` gathers, typically
    one to two orders of magnitude faster than the gather kernels.

    **Parity contract** (documented, tested): outputs are *not*
    bit-identical to the default kernel.  The deviation has three
    sources — the SVD truncation of the error table (bounded by the
    ``rel_frobenius_residual`` reported by :func:`factored_tables`,
    default tolerance 5% of the error table, i.e. well below the
    multiplier's own approximation error), BLAS accumulation order, and
    the absence of the per-product underflow-flush/overflow-saturate
    masks (operands must be well-conditioned: products near the float32
    range edges follow IEEE semantics instead of the datapath's
    flush-to-zero).  Empirically the relative output deviation on
    gaussian operands is ~0.4% for bfloat16 PC3_tr at the default rank,
    an order of magnitude below the ~7% arithmetic approximation error
    it perturbs.

    One instance is registered, ``blas_factored`` (default 5% truncation
    tolerance, rank ~14 for bfloat16); it runs only when named.  The
    ``tier_certification`` experiment sweeps the rank.
    """

    name = "blas_factored"
    bit_exact = False

    def __init__(
        self,
        rank: int | None = None,
        tol: float = 0.05,
        max_rank: int = 32,
    ):
        self.rank = rank
        self.tol = tol
        self.max_rank = max_rank

    def supports(self, fmt: FloatFormat, config: MultiplierConfig | None) -> bool:
        """Table-supported significand widths (see ``MAX_TABLE_BITS``)."""
        return table_supported(fmt.significand_bits)

    def correction_info(self, fmt: FloatFormat, config: MultiplierConfig | None) -> dict:
        """Rank and residual of the correction used for ``(fmt, config)``."""
        _fa, _fb, info = factored_tables(
            fmt.significand_bits, config, self.rank, self.tol, self.max_rank
        )
        return dict(info)

    def run(self, pa, pb, config):
        """Exact BLAS component plus low-rank error-table correction.

        The correction is contracted one rank at a time: two 1-D table
        gathers re-map each operand's significand plane, the stored
        scale planes fold in the signed exponents, and a standard BLAS
        GEMM accumulates — ``rank`` small matmuls instead of one wide
        one, which avoids materialising transposed ``(m, k, rank)``
        intermediates.
        """
        fa, fb, _info = factored_tables(
            pa.fmt.significand_bits, config, self.rank, self.tol, self.max_rank
        )
        out = pa.dense() @ pb.dense()
        mai, mbi = pa.significand, pb.significand
        alpha, beta = pa.scale(), pb.scale()
        for r in range(fa.shape[0]):
            left = fa[r].take(mai)
            left *= alpha
            right = fb[r].take(mbi)
            right *= beta
            out += left @ right
        return out


class GenericKernel(GemmKernel):
    """Per-element FP pipeline for widths too wide to tabulate.

    Runs the real ``significand_product`` + normalise + compose chain on
    every element — the only option for e.g. float32 significands, and
    the ground truth the tabulated kernels are derived from.  The
    pipeline is zero-aware: a zero operand yields a zero product, which
    normalise keeps at zero and compose turns into a signed zero.
    """

    name = "generic"
    bit_exact = True

    def supports(self, fmt: FloatFormat, config: MultiplierConfig | None) -> bool:
        """Any format (``config=None`` exact products included)."""
        return True

    def run(self, pa, pb, config):
        """Tiled per-element significand-product pipeline."""
        fmt = pa.fmt
        m, k = pa.shape
        n = pb.shape[1]
        bits = fmt.significand_bits

        sa, ea, ma = pa.sign, pa.exponent, pa.significand
        sb, eb, mb = pb.sign, pb.exponent, pb.significand

        out = np.zeros((m, n), dtype=np.float32)
        k_step, row_block = _tiling(k, n)
        with np.errstate(over="ignore", invalid="ignore"):
            for r0 in range(0, m, row_block):
                r1 = min(m, r0 + row_block)
                for c0 in range(0, k, k_step):
                    c1 = min(k, c0 + k_step)
                    mx = ma[r0:r1, c0:c1, None].astype(np.uint64)
                    my = mb[None, c0:c1, :].astype(np.uint64)
                    ex = ea[r0:r1, c0:c1, None].astype(np.int64)
                    ey = eb[None, c0:c1, :].astype(np.int64)
                    sx = sa[r0:r1, c0:c1, None]
                    sy = sb[None, c0:c1, :]

                    if config is None:
                        product = mx * my
                        truncated = False
                    else:
                        product = significand_product(mx, my, bits, config)
                        truncated = config.truncated
                    sig, exp = _normalise(product, ex + ey, bits, truncated)
                    _accumulate(compose(sx ^ sy, exp, sig, fmt), out[r0:r1])
        return out


# --------------------------------------------------------------------------
# Registry
# --------------------------------------------------------------------------

_KERNELS: dict[str, GemmKernel] = {}


def register_kernel(kernel: GemmKernel) -> GemmKernel:
    """Add (or replace) a kernel in the registry; returns it."""
    _KERNELS[kernel.name] = kernel
    return kernel


class UnknownKernelError(ValueError):
    """An unregistered kernel name, carrying the valid names as data.

    ``kernel`` is the offending name and ``registered`` the sorted
    registry names at raise time — CLI layers (``serve-bench``,
    ``fleet-bench``) render both as a structured error instead of making
    users parse the message.
    """

    def __init__(self, kernel: str, registered: list[str]):
        super().__init__(f"unknown GEMM kernel {kernel!r}; registered: {registered}")
        #: The name that failed to resolve.
        self.kernel = kernel
        #: Registered kernel names at raise time.
        self.registered = registered


def get_kernel(name: str) -> GemmKernel:
    """Look up a registered kernel by name (:class:`UnknownKernelError` if absent)."""
    try:
        return _KERNELS[name]
    except KeyError as exc:
        raise UnknownKernelError(name, kernel_names()) from exc


def kernel_names() -> list[str]:
    """Sorted names of all registered kernels."""
    return sorted(_KERNELS)


def exact_tier_name(fmt: FloatFormat) -> str:
    """Name of the bit-exact default tier for ``fmt``.

    ``float_table`` for table-supported significand widths, ``generic``
    for widths too wide to tabulate.  Both produce the scalar
    reference's bits.
    """
    return "float_table" if table_supported(fmt.significand_bits) else "generic"


def select_kernel(
    fmt: FloatFormat,
    config: MultiplierConfig | None = None,
    kernel: str | None = None,
) -> GemmKernel:
    """Resolve the kernel for ``(fmt, config)``.

    ``kernel=None`` picks the bit-exact default tier
    (:func:`exact_tier_name`): ``float_table`` for table-supported
    significand widths, ``generic`` otherwise.  A named kernel is
    validated against the registry and against ``kernel.supports``.
    """
    if kernel is None:
        return _KERNELS[exact_tier_name(fmt)]
    found = get_kernel(kernel)
    if not found.supports(fmt, config):
        raise ValueError(
            f"kernel {kernel!r} does not support {fmt.name} operands"
            f" (config {getattr(config, 'name', None)})"
        )
    return found


register_kernel(FloatTableKernel())
register_kernel(BlasFactoredKernel())
register_kernel(GenericKernel())
