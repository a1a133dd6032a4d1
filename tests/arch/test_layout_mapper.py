"""Tests for the kernel-to-row mapper (cycles/utilisation engine)."""

import pytest

from repro.arch.layout_mapper import map_layer
from repro.arch.workloads import ConvLayer, vgg8_conv1


class TestBasicInvariants:
    def test_cycles_lower_bound(self):
        """Cycles can never beat total MACs over total PEs."""
        layer = vgg8_conv1()
        for banks, pes in [(1, 128), (4, 64), (16, 16)]:
            r = map_layer(layer, pes, banks)
            assert r.cycles >= r.macs / (banks * pes)

    def test_utilization_in_unit_range(self):
        layer = vgg8_conv1()
        r = map_layer(layer, 32, 16)
        assert 0 < r.utilization <= 1.0
        assert 0 < r.throughput_utilization <= 1.0
        assert r.throughput_utilization >= r.utilization

    def test_macs_independent_of_mapping(self):
        layer = vgg8_conv1()
        m1 = map_layer(layer, 16, 16).macs
        m2 = map_layer(layer, 128, 1).macs
        assert m1 == m2 == layer.macs

    def test_more_banks_fewer_cycles(self):
        layer = vgg8_conv1()
        c1 = map_layer(layer, 32, 1).cycles
        c4 = map_layer(layer, 32, 4).cycles
        c16 = map_layer(layer, 32, 16).cycles
        assert c16 < c4 < c1

    def test_throughput_cycles_at_most_latency_cycles(self):
        layer = vgg8_conv1()
        r = map_layer(layer, 32, 16)
        assert r.throughput_cycles <= r.cycles


class TestSliceAlignment:
    def test_dense_rows_when_filters_divide_row(self):
        """F a multiple of PEs/row -> every activated row is fully useful
        -> single-bank utilisation is 1."""
        layer = vgg8_conv1()  # F = 64
        r = map_layer(layer, 32, banks=1)
        assert r.utilization == pytest.approx(1.0, abs=1e-9)

    def test_row_sharing_hurts_utilisation(self):
        """PEs/row > F packs several slices per row; border inputs then
        activate rows they only partially need (the paper's single-bank
        512 kB penalty)."""
        layer = vgg8_conv1()
        r = map_layer(layer, 128, banks=1)
        assert r.utilization < 0.95

    def test_row_counts(self):
        layer = vgg8_conv1()
        # 27 slices, F=64: at 16 PEs/row each slice is 4 rows.
        assert map_layer(layer, 16, 1).element_rows == 27 * 4
        # At 128 PEs/row, two slices share a row: ceil(27/2) rows.
        assert map_layer(layer, 128, 1).element_rows == 14


class TestPasses:
    def test_single_pass_when_fits(self):
        layer = vgg8_conv1()
        r = map_layer(layer, 16, 16, bank_element_rows=16)
        assert r.passes == 1

    def test_multiple_passes_when_capacity_small(self):
        layer = vgg8_conv1()
        r = map_layer(layer, 16, 1, bank_element_rows=16)
        assert r.passes == (108 + 15) // 16

    def test_validation(self):
        with pytest.raises(ValueError):
            map_layer(vgg8_conv1(), 0, 1)
        with pytest.raises(ValueError):
            map_layer(vgg8_conv1(), 16, 1, bank_element_rows=0)


class TestDistributionPolicies:
    def test_all_policies_same_total_work(self):
        layer = vgg8_conv1()
        results = {
            d: map_layer(layer, 32, 16, distribution=d)
            for d in ("round_robin", "lpt", "block")
        }
        totals = {d: r.total_activations for d, r in results.items()}
        assert len(set(totals.values())) == 1
        macs = {d: r.macs for d, r in results.items()}
        assert len(set(macs.values())) == 1

    def test_lpt_never_worse_than_block(self):
        layer = vgg8_conv1()
        lpt = map_layer(layer, 32, 16, distribution="lpt").cycles
        block = map_layer(layer, 32, 16, distribution="block").cycles
        assert lpt <= block

    def test_round_robin_is_default(self):
        layer = vgg8_conv1()
        default = map_layer(layer, 32, 16)
        explicit = map_layer(layer, 32, 16, distribution="round_robin")
        assert default.cycles == explicit.cycles

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="unknown distribution"):
            map_layer(vgg8_conv1(), 32, 16, distribution="random")


class TestStridedAndPadded:
    def test_strided_layer_maps(self):
        layer = ConvLayer("s", 16, 32, 3, 32, 32, stride=2, padding=1)
        r = map_layer(layer, 32, 4)
        assert r.cycles > 0
        assert 0 < r.utilization <= 1.0

    def test_pointwise_layer(self):
        layer = ConvLayer("pw", 64, 64, 1, 14, 14, padding=0)
        r = map_layer(layer, 32, 2)
        assert r.macs == 14 * 14 * 64 * 64
        assert r.utilization == pytest.approx(1.0)

    def test_activation_accounting_exact_small_case(self):
        """Hand-checked: 1 channel, 1 filter, 2x2 kernel, 3x3 input,
        no padding -> taps valid at 2x2=4 positions each."""
        layer = ConvLayer("tiny", 1, 1, 2, 3, 3, padding=0)
        r = map_layer(layer, 1, 1)
        # 4 slices (1 per tap), 1 row each, 4 activations per row.
        assert r.element_rows == 4
        assert r.cycles == 16
        assert r.macs == 16
