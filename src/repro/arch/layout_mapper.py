"""Mapping convolution kernels onto DAISM compute-SRAM rows.

The DAISM dataflow (Sec. IV-A): kernels are flattened into the SRAM; each
cycle, one input element per bank activates one *element row* and is
multiplied by every kernel element stored there.  How the kernel elements
are arranged into rows therefore decides utilisation and cycle count —
"some input elements must not be multiplied by all kernel elements, which
decreases utilization" (Sec. V-C2).

The mapper works in **slices**: a slice is the set of ``F`` (out-channel)
kernel weights sharing one ``(c, kh, kw)`` coordinate.  Every input pixel
of channel ``c`` that touches tap ``(kh, kw)`` needs exactly the whole
slice — so slice-aligned rows are either fully useful to an input or not
needed at all, which is what makes the banked designs run near 100 %
utilisation (Table II's 502.52 GOPS out of 512 peak).

Rows are distributed round-robin across banks at *row* granularity, so a
slice's rows may spread over several banks (different inputs stream into
different banks each cycle — the paper's multi-bank parallelism).

The resulting :class:`MappingResult` gives exact cycle counts (activation
events on the busiest bank), exact MAC counts, utilisation, and the
per-bank balance — everything Fig. 7 and Table II need.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .workloads import ConvLayer

__all__ = ["MappingResult", "map_layer", "build_rows", "tap_masks"]


@dataclasses.dataclass(frozen=True)
class MappingResult:
    """Outcome of mapping one conv layer onto a banked DAISM array."""

    layer: ConvLayer
    banks: int
    pes_per_row: int
    element_rows: int
    rows_per_bank_max: int
    cycles: int
    macs: int
    utilization: float
    passes: int
    total_activations: int
    throughput_cycles: int
    throughput_utilization: float

    @property
    def total_pes(self) -> int:
        """PEs across all banks under this mapping."""
        return self.banks * self.pes_per_row

    def __str__(self) -> str:
        return (
            f"{self.layer.name} on {self.banks} bank(s) x {self.pes_per_row} PEs: "
            f"{self.cycles} cycles, util={self.utilization:.3f}"
        )


def tap_masks(layer: ConvLayer) -> dict[tuple[int, int], np.ndarray]:
    """Boolean (H, W) participation mask for every kernel tap."""
    masks: dict[tuple[int, int], np.ndarray] = {}
    h_idx = np.arange(layer.height)
    w_idx = np.arange(layer.width)
    for kh in range(layer.kernel):
        h_ok = _axis_mask(h_idx, kh, layer.stride, layer.padding, layer.out_height)
        for kw in range(layer.kernel):
            w_ok = _axis_mask(w_idx, kw, layer.stride, layer.padding, layer.out_width)
            masks[(kh, kw)] = h_ok[:, None] & w_ok[None, :]
    return masks


def _axis_mask(idx: np.ndarray, tap: int, stride: int, padding: int, out_size: int) -> np.ndarray:
    offset = idx - tap + padding
    return (offset >= 0) & (offset % stride == 0) & (offset // stride < out_size)


def build_rows(
    layer: ConvLayer, pes_per_row: int
) -> list[list[tuple[int, int, int, int]]]:
    """Arrange slices into element rows.

    Returns a list of rows; each row is a list of
    ``(channel, kh, kw, element_count)`` entries.  Slices are row-aligned:
    a slice of F elements takes ``ceil(F / pes)`` dedicated rows when it
    does not fit in one, and small slices are packed several per row.
    For grouped/depthwise layers F is ``filters_per_slice`` — an input
    channel only meets the filters of its own group.
    """
    f = layer.filters_per_slice
    slices = [
        (c, kh, kw)
        for c in range(layer.in_channels)
        for kh in range(layer.kernel)
        for kw in range(layer.kernel)
    ]
    rows: list[list[tuple[int, int, int, int]]] = []
    if f >= pes_per_row:
        full, rem = divmod(f, pes_per_row)
        for c, kh, kw in slices:
            rows.extend([[(c, kh, kw, pes_per_row)]] * full)
            if rem:
                rows.append([(c, kh, kw, rem)])
    else:
        per_row = pes_per_row // f
        current: list[tuple[int, int, int, int]] = []
        for c, kh, kw in slices:
            current.append((c, kh, kw, f))
            if len(current) == per_row:
                rows.append(current)
                current = []
        if current:
            rows.append(current)
    return rows


def _row_activations(
    row: list[tuple[int, int, int, int]], masks: dict[tuple[int, int], np.ndarray]
) -> int:
    """How many distinct input elements activate this row.

    An input ``(c, h, w)`` activates the row iff the row holds at least
    one slice of channel ``c`` whose tap is valid at ``(h, w)`` — inputs
    of different channels are different elements, so channel groups add.
    """
    by_channel: dict[int, list[tuple[int, int]]] = {}
    for c, kh, kw, _count in row:
        by_channel.setdefault(c, []).append((kh, kw))
    total = 0
    for taps in by_channel.values():
        union = masks[taps[0]]
        for tap in taps[1:]:
            union = union | masks[tap]
        total += int(union.sum())
    return total


def _assign_rows(
    activations: list[int], banks: int, distribution: str
) -> list[int]:
    """Assign each row index to a bank under the chosen policy.

    * ``round_robin`` — the paper-faithful default: row i goes to bank
      ``i % banks`` (trivial interconnect, near-balanced for uniform
      rows).
    * ``lpt`` — longest-processing-time greedy: heaviest rows first onto
      the least-loaded bank; the classic makespan heuristic, useful when
      border effects make row loads uneven.
    * ``block`` — contiguous chunks of rows per bank (cheapest wiring,
      worst balance); included as the ablation's lower bound.
    """
    n = len(activations)
    if distribution == "round_robin":
        return [i % banks for i in range(n)]
    if distribution == "block":
        per_bank = math.ceil(n / banks)
        return [min(i // per_bank, banks - 1) for i in range(n)]
    if distribution == "lpt":
        order = sorted(range(n), key=lambda i: -activations[i])
        loads = [0] * banks
        assignment = [0] * n
        for i in order:
            bank = loads.index(min(loads))
            assignment[i] = bank
            loads[bank] += activations[i]
        return assignment
    raise ValueError(f"unknown distribution {distribution!r}")


def map_layer(
    layer: ConvLayer,
    pes_per_row: int,
    banks: int = 1,
    bank_element_rows: int | None = None,
    distribution: str = "round_robin",
) -> MappingResult:
    """Map a conv layer and compute exact cycles/utilisation.

    Parameters
    ----------
    layer:
        The convolution shape.
    pes_per_row:
        Kernel-element slots per SRAM row of one bank.
    banks:
        Number of banks (each takes a distinct input per cycle).
    bank_element_rows:
        Element-row capacity of one bank; when the layer needs more, the
        kernel set is processed in multiple load passes (inputs are
        re-streamed per pass; the reload itself is amortised away by the
        operand reuse the paper quantifies).
    distribution:
        Row-to-bank assignment policy (see :func:`_assign_rows`).
    """
    if pes_per_row < 1 or banks < 1:
        raise ValueError("pes_per_row and banks must be positive")

    masks = tap_masks(layer)
    rows = build_rows(layer, pes_per_row)

    # Count activation events per row, then distribute rows over banks.
    activation_cache: dict[tuple, int] = {}
    activations = []
    for row in rows:
        key = tuple(sorted((c, kh, kw) for c, kh, kw, _cnt in row))
        if key not in activation_cache:
            activation_cache[key] = _row_activations(row, masks)
        activations.append(activation_cache[key])

    assignment = _assign_rows(activations, banks, distribution)
    bank_loads = [0] * banks
    bank_rows = [0] * banks
    for count, bank in zip(activations, assignment):
        bank_loads[bank] += count
        bank_rows[bank] += 1

    cycles = max(bank_loads)
    macs = sum(
        layer.valid_positions(kh, kw) * layer.filters_per_slice
        for kh in range(layer.kernel)
        for kw in range(layer.kernel)
    ) * layer.in_channels

    rows_per_bank_max = max(bank_rows)
    if bank_element_rows is not None:
        if bank_element_rows < 1:
            raise ValueError("bank_element_rows must be positive")
        passes = math.ceil(rows_per_bank_max / bank_element_rows)
    else:
        passes = 1

    total_pes = banks * pes_per_row
    utilization = macs / (cycles * total_pes) if cycles else 0.0

    # Steady-state (large-batch) figures: while one image's rows drain on
    # some banks, the next image's inputs fill the idle ones, so sustained
    # cycles per image are the *average* bank load, not the maximum.  The
    # paper leans on this ("when batch size is large during inference, it
    # amortizes...") and its GOPS figures sit at this utilisation level.
    total_activations = sum(bank_loads)
    throughput_cycles = math.ceil(total_activations / banks)
    throughput_utilization = (
        macs / (throughput_cycles * total_pes) if throughput_cycles else 0.0
    )
    return MappingResult(
        layer=layer,
        banks=banks,
        pes_per_row=pes_per_row,
        element_rows=len(rows),
        rows_per_bank_max=rows_per_bank_max,
        cycles=cycles,
        macs=macs,
        utilization=utilization,
        passes=passes,
        total_activations=total_activations,
        throughput_cycles=throughput_cycles,
        throughput_utilization=throughput_utilization,
    )
