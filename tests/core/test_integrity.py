"""Tests for the kernel-state integrity layer: checksum, canary, heal, recurrence.

The contract under test: every registered table's corruption is
detected (the digest covers every byte), healing restores byte-exact
behaviour, corruption that recurs on a site sets ``recurred`` in the
health report (a fleet respawns the worker on it), and the whole loop
is observable through structured events.
"""

import numpy as np
import pytest

from repro.core import integrity, kernels
from repro.core.config import PC3_TR
from repro.core.gemm import approx_matmul
from repro.core.integrity import (
    check_and_heal,
    checksum_value,
    corruption_counts,
    integrity_events,
    registered_canaries,
    registered_tables,
    reset_integrity,
    verify_canaries,
    verify_tables,
)
from repro.core.kernels import get_kernel
from repro.formats.floatfmt import BFLOAT16


@pytest.fixture(autouse=True)
def _clean_integrity():
    reset_integrity()
    yield
    # Heal anything a test corrupted and forgot, then drop the
    # corruption counts and events.
    check_and_heal()
    reset_integrity()


def _gemm(seed=0, kernel="float_table"):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((8, 32)).astype(np.float32)
    b = rng.standard_normal((32, 16)).astype(np.float32)
    return approx_matmul(a, b, BFLOAT16, PC3_TR, kernel=kernel)


def _corrupt_one_table():
    """Flip one bit in the first registered table with a live cache entry."""
    from repro.chaos.inject import flip_bits

    for key in sorted(registered_tables(), key=repr):
        value = kernels.peek_table(key)
        if value is None:
            continue
        target = value
        if isinstance(value, (tuple, list)):
            target = next(v for v in value if isinstance(v, np.ndarray))
        flip_bits(target, 1, seed=0)
        return key
    raise AssertionError("no registered table has a live cache entry")


class TestChecksum:
    def test_deterministic_and_byte_sensitive(self):
        arr = np.arange(64, dtype=np.float32)
        assert checksum_value(arr) == checksum_value(arr.copy())
        bumped = arr.copy()
        bumped[3] = np.float32(np.frombuffer(
            np.uint32(arr[3:4].view(np.uint32)[0] ^ 1).tobytes(), dtype=np.float32
        )[0])
        assert checksum_value(bumped) != checksum_value(arr)

    def test_covers_dtype_and_shape(self):
        arr = np.zeros(16, dtype=np.float32)
        assert checksum_value(arr) != checksum_value(arr.astype(np.float64))
        assert checksum_value(arr) != checksum_value(arr.reshape(4, 4))

    def test_tuple_values_hash_members_in_order(self):
        u, v = np.ones(4), np.zeros(4)
        assert checksum_value((u, v)) != checksum_value((v, u))


class TestVerifyAndHeal:
    def test_build_registers_tables(self):
        _gemm()
        assert registered_tables()

    def test_clean_state_verifies_clean(self):
        _gemm()
        report = verify_tables(heal=True)
        assert report["tables_checked"] >= 1
        assert report["corrupted_tables"] == []
        assert report["healed_tables"] == 0

    def test_corruption_detected_and_healed(self):
        baseline = _gemm()
        key = _corrupt_one_table()
        report = verify_tables(heal=True)
        assert str(key) in report["corrupted_tables"]
        assert report["healed_tables"] >= 1
        # Healed means byte-exact again, and the next round is clean.
        np.testing.assert_array_equal(
            _gemm().view(np.uint32), baseline.view(np.uint32)
        )
        assert verify_tables(heal=True)["corrupted_tables"] == []

    def test_detection_without_heal_leaves_corruption(self):
        _gemm()
        key = _corrupt_one_table()
        report = verify_tables(heal=False)
        assert str(key) in report["corrupted_tables"]
        assert report["healed_tables"] == 0
        # Still corrupted: a second no-heal pass finds it again.
        assert str(key) in verify_tables(heal=False)["corrupted_tables"]
        verify_tables(heal=True)

    def test_events_are_structured(self):
        _gemm()
        key = _corrupt_one_table()
        verify_tables(heal=True)
        events = integrity_events()
        assert events
        record = events[0]
        assert record["source"] == "integrity"
        assert record["event"] == "integrity"
        assert record["kind"] == "table_corruption"
        assert record["site"] == str(key)
        assert record["action"] == "rebuilt"


class TestCanary:
    def test_register_is_idempotent_and_passes_clean(self):
        # Canaries register at plan compile / worker boot; do it directly.
        expected = integrity.register_canary(
            BFLOAT16, PC3_TR, get_kernel("float_table")
        )
        assert registered_canaries()
        assert (
            integrity.register_canary(BFLOAT16, PC3_TR, get_kernel("float_table"))
            == expected
        )
        report = verify_canaries(heal=True)
        assert report["canaries_checked"] >= 1
        assert report["canary_failures"] == []

    def test_canary_catches_and_heals_table_corruption(self):
        # Flip enough bits that the pinned probe's index set is hit.
        from repro.chaos.inject import corrupt_cached_tables

        _gemm()
        integrity.register_canary(BFLOAT16, PC3_TR, get_kernel("float_table"))
        baseline = _gemm()
        corrupt_cached_tables(n_tables=64, flips_per_table=64, seed=1)
        report = check_and_heal()
        assert report["corrupted_tables"]  # checksums saw it
        assert report["persistent_failures"] == []  # heal fixed the probe
        np.testing.assert_array_equal(
            _gemm().view(np.uint32), baseline.view(np.uint32)
        )


class TestRecurrence:
    def test_recurring_corruption_sets_recurred(self):
        _gemm()
        reports = []
        for _ in range(integrity.RECURRENCE_THRESHOLD):
            _corrupt_one_table()
            reports.append(verify_tables(heal=True))
        assert not any(r["recurred"] for r in reports[:-1])
        assert reports[-1]["recurred"], "corruption recurred but was not reported"
        assert max(corruption_counts().values()) >= integrity.RECURRENCE_THRESHOLD

    def test_check_and_heal_reports_recurred_flag(self):
        _gemm()
        assert check_and_heal()["recurred"] is False
        for _ in range(integrity.RECURRENCE_THRESHOLD - 1):
            _corrupt_one_table()
            assert check_and_heal()["recurred"] is False
        _corrupt_one_table()
        assert check_and_heal()["recurred"] is True
        # Not sticky: a clean round after the recurrence reports none.
        assert check_and_heal()["recurred"] is False


class TestRebuildRegistration:
    def test_heal_reregisters_fresh_digest(self):
        _gemm()
        key = _corrupt_one_table()
        verify_tables(heal=True)
        live = kernels.peek_table(key)
        assert live is not None
        assert checksum_value(live) == integrity._TABLES[key].digest


class TestWeightStationaryTables:
    """A plan's weight-stationary tables are checksummed and healed like V0."""

    @staticmethod
    def _plan_and_input():
        from repro.nn.backend import daism_backend
        from repro.nn.models import build_lenet
        from repro.runtime import compile_plan

        plan = compile_plan(build_lenet().eval(), daism_backend(PC3_TR, BFLOAT16))
        x = np.random.default_rng(0).standard_normal((8, 1, 16, 16)).astype(np.float32)
        return plan, x

    @staticmethod
    def _stationary_key(plan):
        from repro.runtime.plan import op_strategies

        (key,) = [
            s.prepared.table_key
            for op in plan.ops
            if op.kind == "conv2d"
            for s in op_strategies(op)
            if s.layout == "weight_stationary"
        ]
        return key

    @staticmethod
    def _flip(table, rows):
        """Flip an exponent bit in every entry of ``rows`` (an upset burst)."""
        table.setflags(write=True)
        try:
            table.view(np.uint32)[rows] ^= np.uint32(1 << 24)
        finally:
            table.setflags(write=False)

    def test_live_table_flip_is_detected_and_healed(self):
        plan, x = self._plan_and_input()
        pristine = plan.execute(x)
        key = self._stationary_key(plan)
        self._flip(kernels.peek_table(key), slice(None))
        assert not np.array_equal(plan.execute(x), pristine)
        report = check_and_heal()
        assert str(key) in report["corrupted_tables"]
        np.testing.assert_array_equal(plan.execute(x).view(np.uint32), pristine.view(np.uint32))

    def test_direct_table_flip_is_detected_and_healed(self):
        plan, x = self._plan_and_input()
        pristine = plan.execute(x)
        (conv1,) = [op for op in plan.ops if op.name == "conv1"]
        assert conv1.layout == "direct"
        key = conv1.direct.table_key
        self._flip(kernels.peek_table(key), slice(None))
        assert not np.array_equal(plan.execute(x), pristine)
        report = integrity.verify_tables()
        assert str(key) in report["corrupted_tables"]
        assert checksum_value(kernels.peek_table(key)) == checksum_value(
            kernels._build_stationary(conv1.direct.weight, PC3_TR)
        )
        np.testing.assert_array_equal(plan.execute(x).view(np.uint32), pristine.view(np.uint32))

    def test_value_table_flipped_before_compile_heals_derived_tables(self):
        import gc

        from repro.core.kernels import value_table

        plan, x = self._plan_and_input()
        pristine = plan.execute(x)
        key = self._stationary_key(plan)
        del plan
        gc.collect()  # the plan's weight-stationary table goes with it
        assert kernels.peek_table(key) is None
        v0_key = (8, PC3_TR.scheme, PC3_TR.truncated, "value")
        # Every weight significand has its MSB set: corrupt that block.
        self._flip(value_table(8, PC3_TR), (slice(128, None), slice(128, None)))
        try:
            plan, x = self._plan_and_input()  # tables built from the bad V0
            assert not np.array_equal(plan.execute(x), pristine)
        finally:
            report = check_and_heal()
        assert {str(v0_key), str(key)} <= set(report["corrupted_tables"])
        np.testing.assert_array_equal(plan.execute(x).view(np.uint32), pristine.view(np.uint32))


class TestReleasedRecords:
    """A released table's record leaves the registry without a verification."""

    def test_registration_drops_released_records(self):
        from repro.formats.packed import pack

        kernel = get_kernel("float_table")
        rng = np.random.default_rng(3)
        weight = pack(rng.standard_normal((8, 16)).astype(np.float32), BFLOAT16)
        prepared = kernel.prepare(weight, PC3_TR)
        key = prepared.table_key
        assert key in registered_tables()
        del prepared  # releases the table
        assert kernels.peek_table(key) is None
        other = kernel.prepare(pack(weight.dense() * 2, BFLOAT16), PC3_TR)
        assert other.table_key in registered_tables()
        assert key not in registered_tables()
        del other  # released, then rebuilt under the same key
        again = kernel.prepare(pack(weight.dense() * 2, BFLOAT16), PC3_TR)
        assert again.table_key in registered_tables()

    def test_live_tables_keep_records_under_concurrent_release_and_rebuild(self):
        # Threads prepare and drop the same three content-keyed weights,
        # so tables are released and rebuilt under one key while other
        # threads register and verify: a drain that dropped a rebuilt
        # table's record would leave a live table without one.
        import sys
        import threading
        import time

        from repro.formats.packed import pack

        kernel = get_kernel("float_table")
        rng = np.random.default_rng(4)
        weights = [
            pack(rng.standard_normal((8, 16)).astype(np.float32), BFLOAT16) for _ in range(3)
        ]
        deadline = time.monotonic() + 1.5
        kept: list = []
        errors: list = []

        def churn(seed):
            order = np.random.default_rng(seed)
            last = None
            try:
                while time.monotonic() < deadline:
                    last = kernel.prepare(weights[order.integers(3)], PC3_TR)
            except Exception as exc:  # surfaced by the assertion below
                errors.append(exc)
            kept.append(last)

        def verify():
            while time.monotonic() < deadline:
                verify_tables(heal=False)

        threads = [threading.Thread(target=churn, args=(i,)) for i in range(4)]
        threads.append(threading.Thread(target=verify))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors
        records = set(registered_tables())
        live = {p.table_key for p in kept if p is not None}
        assert live and live <= records
        assert verify_tables(heal=False)["corrupted_tables"] == []
