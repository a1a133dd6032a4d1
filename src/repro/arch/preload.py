"""Pre-loading cost analysis (Sec. V-B2's amortisation claim).

Storing a kernel element costs several wordline *writes* (all its
partial-product/pre-computed lines).  The paper argues this is
negligible: "each input is reused for a very large number of kernel
elements and each kernel element is reused for thousands of inputs,
making the cost of any pre-loading negligible".  This module quantifies
that claim for any design/layer pair — write events vs read events and
the energy ratio between them.
"""

from __future__ import annotations

import dataclasses

from ..energy.cacti_lite import CactiLite
from .daism import DaismDesign
from .workloads import ConvLayer

__all__ = ["PreloadReport", "preload_analysis"]


@dataclasses.dataclass(frozen=True)
class PreloadReport:
    """Load-vs-compute accounting for one layer on one design."""

    layer_name: str
    load_row_writes: int
    compute_row_reads: int
    kernel_element_reuse: float
    input_element_reuse: float
    load_energy_uj: float
    compute_energy_uj: float

    @property
    def read_write_ratio(self) -> float:
        """Compute reads per load write — the amortisation factor."""
        return self.compute_row_reads / self.load_row_writes if self.load_row_writes else 0.0

    @property
    def load_energy_fraction(self) -> float:
        """Share of total SRAM energy spent on pre-loading."""
        total = self.load_energy_uj + self.compute_energy_uj
        return self.load_energy_uj / total if total else 0.0


def preload_analysis(
    design: DaismDesign, layer: ConvLayer, batch: int = 1, cacti: CactiLite | None = None
) -> PreloadReport:
    """Quantify the pre-loading cost of one layer on one design.

    ``batch`` models the paper's amortisation lever: the kernel lines are
    written once per pass while every image in the batch re-reads them —
    "when batch size is large during inference, it amortizes the cost of
    populating SRAM with the shifted bit patterns" (Sec. V-D).  Layers
    with little per-image reuse (the FC tail) depend on this.
    """
    if batch < 1:
        raise ValueError("batch must be positive")
    cacti = cacti or CactiLite()
    mapping = design.map_conv(layer)

    # Loading writes every logical line of every element row, once per pass.
    lines = design.layout.logical_lines
    load_writes = mapping.element_rows * lines * mapping.passes
    compute_reads = mapping.total_activations * mapping.passes * batch

    side = design.side_bits
    write_pj = cacti.row_write_energy_pj(side, side)
    read_pj = cacti.row_read_energy_pj(side, side)

    # Reuse factors the paper quotes: products per kernel element and per
    # input element.
    kernel_reuse = mapping.macs * batch / layer.kernel_elements
    input_reuse = mapping.macs / layer.input_elements

    return PreloadReport(
        layer_name=layer.name,
        load_row_writes=load_writes,
        compute_row_reads=compute_reads,
        kernel_element_reuse=kernel_reuse,
        input_element_reuse=input_reuse,
        load_energy_uj=load_writes * write_pj * 1e-6,
        compute_energy_uj=compute_reads * read_pj * 1e-6,
    )
