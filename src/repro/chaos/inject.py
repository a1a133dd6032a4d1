"""Bit-flip injection into live kernel state (tables, packed planes).

Two injection sites, mirroring where the serving stack keeps long-lived
arithmetic bytes:

* **cached product tables** — :func:`corrupt_cached_tables` flips bits
  in the process-global table cache exactly as an SRAM upset would,
  which is what the integrity checksums/canaries must detect (the
  matrix asserts 100% detection);
* **packed weight planes** — :class:`FaultyKernel` wraps any registered
  :class:`~repro.core.kernels.GemmKernel` and corrupts the *weight*
  operand's significand plane per a
  :class:`~repro.sram.faults.FaultModel` (stuck-at-0/1 cells over
  (element, bit) coordinates, dead rows zeroing whole elements) before
  delegating — the same semantics the SRAM co-sim injects, applied to
  the software fast path.

Everything is driven by a ``numpy.random.Generator`` (or an int seed),
sharing the co-sim's seeding contract via
:func:`~repro.sram.faults.inject_random_faults`.
"""

from __future__ import annotations

import numpy as np

from ..core.kernels import GemmKernel
from ..formats.packed import PackedTensor
from ..sram.faults import FaultModel

__all__ = [
    "flip_bits",
    "corrupt_cached_tables",
    "corrupt_packed",
    "FaultyKernel",
    "wrap_plan_kernels",
]


def _as_rng(seed: int | np.random.Generator) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def flip_bits(
    arr: np.ndarray, n_flips: int, seed: int | np.random.Generator = 0
) -> list[tuple[int, int]]:
    """Flip ``n_flips`` random bits in ``arr``'s raw bytes, in place.

    Returns the flipped ``(byte_index, bit)`` positions.  Works on
    read-only arrays (the table cache pins ``write=False``) by
    temporarily re-enabling writes — exactly the point: a memory upset
    does not ask the ndarray flags for permission.
    """
    if n_flips < 1:
        return []
    rng = _as_rng(seed)
    writeable = arr.flags.writeable
    if not writeable:
        arr.setflags(write=True)
    n_bytes = arr.size * arr.itemsize
    positions = [
        (int(rng.integers(n_bytes)), int(rng.integers(8))) for _ in range(n_flips)
    ]
    try:
        if arr.flags.c_contiguous:
            flat = arr.view(np.uint8).reshape(-1)
            for byte, bit in positions:
                flat[byte] ^= np.uint8(1 << bit)
        else:
            # Non-contiguous targets (e.g. transposed factored-table
            # views) admit no flat byte view — flip through an
            # element-wise byte round-trip instead.
            item = arr.itemsize
            for byte, bit in positions:
                raw = bytearray(arr.flat[byte // item].tobytes())
                raw[byte % item] ^= 1 << bit
                arr.flat[byte // item] = np.frombuffer(bytes(raw), dtype=arr.dtype)[0]
    finally:
        if not writeable:
            arr.setflags(write=False)
    return positions


def corrupt_cached_tables(
    n_tables: int = 1,
    flips_per_table: int = 1,
    seed: int | np.random.Generator = 0,
) -> list[tuple]:
    """Flip bits in up to ``n_tables`` live cached product tables.

    Targets the integrity-registered keys (sorted for determinism) and
    returns the corrupted keys — the detection assertion compares this
    list against what :func:`repro.core.integrity.check_and_heal`
    reports.  Tuple-valued entries (the factored tables) corrupt their
    first array member.
    """
    from ..core import integrity, kernels

    rng = _as_rng(seed)
    keys = sorted(integrity.registered_tables(), key=repr)
    corrupted: list[tuple] = []
    for key in keys[: max(0, n_tables)]:
        value = kernels.peek_table(key)
        if value is None:
            continue
        target = value
        if isinstance(value, (tuple, list)):
            target = next((v for v in value if isinstance(v, np.ndarray)), None)
        if target is None or target.size == 0:
            continue  # e.g. the rank-0 factored tables: no bits to flip
        flip_bits(target, flips_per_table, rng)
        corrupted.append(key)
    return corrupted


def corrupt_packed(pt: PackedTensor, faults: FaultModel) -> PackedTensor:
    """Apply SRAM fault semantics to a packed tensor's planes (a copy).

    The fault coordinate space is ``(element, bit)``: elements are the
    flattened tensor positions, bits index the significand plane
    (``fmt.significand_bits`` wide, implicit leading one included).
    Stuck-at-1 sets the bit, stuck-at-0 clears it, a dead row zeroes the
    whole element (sign/exponent/significand — the value reads 0), the
    same one-sided behaviour :class:`~repro.sram.faults.FaultySRAMArray`
    senses.
    """
    bits = pt.fmt.significand_bits
    faults.validate(pt.size, bits)
    sign = pt.sign.reshape(-1).copy()
    exponent = pt.exponent.reshape(-1).copy()
    significand = pt.significand.reshape(-1).copy()
    cell = significand.dtype.type
    for r, c in faults.stuck_at_1:
        significand[r] |= cell(1 << c)
    for r, c in faults.stuck_at_0:
        significand[r] &= ~cell(1 << c)
    if faults.dead_rows:
        dead = np.fromiter(faults.dead_rows, dtype=np.intp)
        sign[dead] = 0
        exponent[dead] = 0
        significand[dead] = 0
    shape = pt.shape
    return PackedTensor(
        pt.fmt,
        sign.reshape(shape),
        exponent.reshape(shape),
        significand.reshape(shape),
    )


class FaultyKernel(GemmKernel):
    """A registered kernel wrapped to see fault-corrupted weight planes.

    ``run`` corrupts the weight operand per the fault model on every
    call (reads are what silicon faults corrupt — the stored plane stays
    intact, matching :class:`~repro.sram.faults.FaultySRAMArray`), then
    delegates to the wrapped kernel.  Not registered in the kernel
    registry: chaos wraps strategies explicitly via
    :func:`wrap_plan_kernels`.
    """

    def __init__(self, inner: GemmKernel, faults: FaultModel):
        self.inner = inner
        self.faults = faults
        self.name = f"faulty[{inner.name}]"
        self.bit_exact = False

    def supports(self, fmt, config) -> bool:
        return self.inner.supports(fmt, config)

    def run(self, pa, pb, config):
        return self.inner.run(pa, corrupt_packed(pb, self.faults), config)


def wrap_plan_kernels(plan, faults: FaultModel):
    """Wrap every packed-kernel strategy in ``plan`` with fault injection.

    Returns ``(wrapped_count, restore)`` where ``restore()`` puts the
    original kernels back — the recovery half of the fault-tolerance
    experiment (post-restore outputs must be byte-identical to the
    uninjected run).
    """
    from ..runtime.ops import PackedKernelStrategy
    from ..runtime.plan import op_strategies

    originals: list[tuple[object, GemmKernel]] = []
    for op in plan.ops:
        for strategy in op_strategies(op):
            if isinstance(strategy, PackedKernelStrategy):
                originals.append((strategy, strategy.kernel))
                strategy.kernel = FaultyKernel(strategy.kernel, faults)

    def restore() -> None:
        for strategy, kernel in originals:
            strategy.kernel = kernel

    return len(originals), restore
