"""Tests for the certified tier router and the on-disk tune cache.

Routing policy (explicit bypass / recorded override / tiny-shape guard /
certificate gating), the ``kernel="auto"`` plumbing through
``approx_matmul`` and compiled plans, and the :class:`TuneCache`
hit/miss/invalidation semantics that make autotuned choices persist
across processes without ever replaying a foreign machine's numbers.
"""

import json
import os

import numpy as np
import pytest

from repro.core.config import FLA, PC3, PC3_TR, all_configs
from repro.core.gemm import approx_matmul
from repro.core.kernels import (
    UnknownKernelError,
    autotune_row_budget,
    exact_tier_name,
    get_kernel,
    reset_tuned_budgets,
    shape_class,
)
from repro.core.router import (
    AUTO_KERNEL,
    CERT_MARGIN,
    TierCertificate,
    autotune_tier,
    certify_fast_path,
    record_tier,
    recorded_tiers,
    reset_recorded_tiers,
    route_decision,
    route_kernel,
)
from repro.core.tune_cache import (
    TUNE_CACHE_SCHEMA,
    TuneCache,
    default_cache_path,
    machine_fingerprint,
)
from repro.formats.floatfmt import BFLOAT16, FLOAT32


@pytest.fixture(autouse=True)
def _clean_recorded_tiers():
    reset_recorded_tiers()
    yield
    reset_recorded_tiers()


class TestShapeClass:
    def test_classes(self):
        assert shape_class(None, 128, 64) == "general"
        assert shape_class(4, 16, 16) == "tiny"  # 1024 macs
        assert shape_class(256, 288, 64) == "general"
        assert shape_class(4096, 64, 4) == "tall_skinny"

    def test_tiny_boundary(self):
        assert shape_class(1, 1, 1 << 14) == "tiny"
        assert shape_class(2, 1, 1 << 14) == "general"


class TestCertification:
    @pytest.mark.parametrize("config", all_configs(), ids=lambda c: c.name)
    def test_all_table1_configs_certify_on_bf16(self, config):
        cert = certify_fast_path(BFLOAT16, config)
        assert isinstance(cert, TierCertificate)
        assert cert.certified, (
            f"{config.name}: measured {cert.measured_rel_error} vs "
            f"margin*bound {cert.margin * cert.analytic_bound}"
        )
        assert 0.0 < cert.measured_rel_error <= CERT_MARGIN * cert.analytic_bound
        assert cert.rank >= 1
        assert cert.fmt == "bfloat16" and cert.config == config.name

    def test_deterministic_and_cached(self):
        a = certify_fast_path(BFLOAT16, PC3_TR)
        b = certify_fast_path(BFLOAT16, PC3_TR)
        assert a is b  # per-process cache returns the same object


class TestRoutingPolicy:
    def test_explicit_and_none_bypass(self):
        assert route_kernel(BFLOAT16, PC3_TR, "generic").name == "generic"
        assert route_kernel(BFLOAT16, PC3_TR, None).name == exact_tier_name(BFLOAT16)
        decision = route_decision(BFLOAT16, PC3_TR, None, shape=(256, 288, 64))
        assert decision.certificate is None  # no cert consulted off-route

    def test_auto_general_routes_to_certified_fast_path(self):
        decision = route_decision(BFLOAT16, PC3_TR, AUTO_KERNEL, shape=(256, 288, 64))
        assert decision.kernel == "blas_factored_fast"
        assert decision.certificate is not None and decision.certificate.certified
        assert decision.certificate.kernel == "blas_factored_fast"

    def test_auto_compile_time_unknown_batch_is_general(self):
        decision = route_decision(BFLOAT16, PC3_TR, AUTO_KERNEL, shape=(None, 128, 64))
        assert decision.shape_class == "general"
        assert decision.kernel == "blas_factored_fast"

    def test_auto_tiny_stays_exact(self):
        decision = route_decision(BFLOAT16, PC3_TR, AUTO_KERNEL, shape=(4, 16, 16))
        assert decision.kernel == exact_tier_name(BFLOAT16)
        assert "tiny" in decision.reason

    def test_auto_exact_products_stay_default(self):
        decision = route_decision(BFLOAT16, None, AUTO_KERNEL, shape=(256, 288, 64))
        assert decision.kernel == exact_tier_name(BFLOAT16)

    def test_auto_untabulated_format_stays_generic(self):
        decision = route_decision(FLOAT32, PC3_TR, AUTO_KERNEL, shape=(256, 288, 64))
        assert decision.kernel == "generic"

    def test_recorded_tier_wins_and_resets(self):
        record_tier(BFLOAT16, PC3_TR, "general", "generic")
        decision = route_decision(BFLOAT16, PC3_TR, AUTO_KERNEL, shape=(256, 288, 64))
        assert decision.kernel == "generic"
        assert decision.reason == "recorded tier"
        assert recorded_tiers()[("bfloat16", "PC3_tr", "general")] == "generic"
        reset_recorded_tiers()
        decision = route_decision(BFLOAT16, PC3_TR, AUTO_KERNEL, shape=(256, 288, 64))
        assert decision.kernel == "blas_factored_fast"

    def test_record_tier_validates_kernel(self):
        with pytest.raises(UnknownKernelError):
            record_tier(BFLOAT16, PC3_TR, "general", "bogus")

    def test_unknown_kernel_error_attrs(self):
        with pytest.raises(UnknownKernelError) as info:
            get_kernel("bogus")
        assert info.value.kernel == "bogus"
        assert "float_table" in info.value.registered
        assert "unknown GEMM kernel" in str(info.value)


class TestAutoPlumbing:
    def test_approx_matmul_auto_matches_routed_kernel(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((48, 64)).astype(np.float32)
        b = rng.standard_normal((64, 24)).astype(np.float32)
        got = approx_matmul(a, b, BFLOAT16, PC3_TR, kernel="auto")
        want = approx_matmul(a, b, BFLOAT16, PC3_TR, kernel="blas_factored_fast")
        np.testing.assert_array_equal(got.view(np.uint32), want.view(np.uint32))

    def test_approx_matmul_auto_tiny_matches_exact(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((4, 16)).astype(np.float32)
        b = rng.standard_normal((16, 16)).astype(np.float32)
        got = approx_matmul(a, b, BFLOAT16, PC3_TR, kernel="auto")
        want = approx_matmul(a, b, BFLOAT16, PC3_TR)
        np.testing.assert_array_equal(got.view(np.uint32), want.view(np.uint32))

    def test_compiled_plan_auto_parity_and_digest(self):
        from repro.nn.backend import daism_backend
        from repro.nn.models import model_zoo
        from repro.runtime import (
            BatchEngine,
            compile_plan,
            plan_digest,
            plan_tiers,
        )

        module = model_zoo()["lenet"]
        module.eval()
        x = np.random.default_rng(2).standard_normal((4, 1, 16, 16)).astype(
            np.float32
        )
        plan_auto = compile_plan(module, daism_backend(PC3_TR, BFLOAT16, kernel="auto"))
        plan_blas = compile_plan(
            module, daism_backend(PC3_TR, BFLOAT16, kernel="blas_factored_fast")
        )
        plan_default = compile_plan(module, daism_backend(PC3_TR, BFLOAT16))
        assert plan_tiers(plan_auto) == ["blas_factored_fast"]
        got = BatchEngine(plan_auto).run(x)
        want = BatchEngine(plan_blas).run(x)
        np.testing.assert_array_equal(got.view(np.uint32), want.view(np.uint32))
        # Tier choice is part of the digest: auto (-> blas) != default tier,
        # and recompiling the same auto plan reproduces the same digest.
        assert plan_digest(plan_auto) != plan_digest(plan_default)
        plan_again = compile_plan(
            module, daism_backend(PC3_TR, BFLOAT16, kernel="auto")
        )
        assert plan_digest(plan_again) == plan_digest(plan_auto)

    def test_quantized_auto_is_dense_blas(self):
        from repro.nn.backend import quantized_backend
        from repro.nn.models import model_zoo
        from repro.runtime import compile_plan, plan_tiers

        module = model_zoo()["lenet"]
        module.eval()
        plan = compile_plan(module, quantized_backend(BFLOAT16, kernel="auto"))
        assert plan_tiers(plan) == ["dense_blas"]


class TestTuneCache:
    def test_miss_then_hit(self, tmp_path):
        cache = TuneCache(path=str(tmp_path / "tune.json"))
        assert cache.get("float_table", "general") is None
        cache.put("float_table", "general", budget=4096, timings_ms={"a": 1.0})
        got = cache.get("float_table", "general")
        assert got == {"budget": 4096, "timings_ms": {"a": 1.0}}
        assert cache.counters() == {"hits": 1, "misses": 1, "invalidations": 0}

    def test_persists_across_instances(self, tmp_path):
        path = str(tmp_path / "tune.json")
        TuneCache(path=path).put("float_table", "general", budget=1024)
        reloaded = TuneCache(path=path)
        assert reloaded.get("float_table", "general")["budget"] == 1024

    def test_fingerprint_mismatch_invalidates(self, tmp_path):
        path = str(tmp_path / "tune.json")
        TuneCache(path=path, fingerprint="aaaa").put("k", "general", budget=7)
        other = TuneCache(path=path, fingerprint="bbbb")
        assert other.get("k", "general") is None
        assert other.counters()["invalidations"] == 1

    def test_schema_bump_invalidates(self, tmp_path):
        path = str(tmp_path / "tune.json")
        cache = TuneCache(path=path)
        cache.put("k", "general", budget=7)
        raw = json.loads(open(path, encoding="utf-8").read())
        raw["schema"] = TUNE_CACHE_SCHEMA + 1
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(raw, fh)
        fresh = TuneCache(path=path)
        assert fresh.get("k", "general") is None
        assert fresh.counters()["invalidations"] == 1

    def test_corrupt_file_degrades_to_cold(self, tmp_path):
        path = str(tmp_path / "tune.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("{not json")
        cache = TuneCache(path=path)
        assert cache.get("k", "general") is None
        cache.put("k", "general", budget=3)  # and it recovers by rewriting
        assert TuneCache(path=path).get("k", "general")["budget"] == 3

    def test_put_merges_keys(self, tmp_path):
        cache = TuneCache(path=str(tmp_path / "tune.json"))
        cache.put("k", "general", budget=5)
        cache.put("k", "general", tier="blas_factored")
        assert cache.get("k", "general") == {"budget": 5, "tier": "blas_factored"}

    def test_default_path_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TUNE_CACHE", str(tmp_path / "explicit.json"))
        assert default_cache_path() == str(tmp_path / "explicit.json")
        monkeypatch.delenv("REPRO_TUNE_CACHE")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cachedir"))
        assert default_cache_path() == os.path.join(
            str(tmp_path / "cachedir"), "tune_cache.json"
        )

    def test_fingerprint_is_stable(self):
        assert machine_fingerprint() == machine_fingerprint()
        assert len(machine_fingerprint()) == 16


class TestAutotunePersistence:
    def test_row_budget_measured_then_cached(self, tmp_path):
        cache = TuneCache(path=str(tmp_path / "tune.json"))
        reset_tuned_budgets()
        first = autotune_row_budget(
            "float_table", (64, 32, 16), BFLOAT16, PC3, reps=1, cache=cache
        )
        assert first.source == "measured"
        assert cache.get("float_table", shape_class(64, 32, 16))["budget"] == (
            first.chosen
        )
        reset_tuned_budgets()
        second = autotune_row_budget(
            "float_table", (64, 32, 16), BFLOAT16, PC3, reps=1, cache=cache
        )
        assert second.source == "cache"
        assert second.chosen == first.chosen
        reset_tuned_budgets()

    def test_autotune_tier_measured_then_replayed(self, tmp_path):
        cache = TuneCache(path=str(tmp_path / "tune.json"))
        first = autotune_tier(BFLOAT16, FLA, shape=(64, 48, 32), cache=cache, reps=1)
        assert first["source"] == "measured"
        assert first["tier"] in (
            exact_tier_name(BFLOAT16),
            "blas_factored",
            "blas_factored_fast",
        )
        assert first["certificate"]["certified"] is True
        reset_recorded_tiers()
        second = autotune_tier(BFLOAT16, FLA, shape=(64, 48, 32), cache=cache, reps=1)
        assert second["source"] == "cache"
        assert second["tier"] == first["tier"]
        # The replay re-pins the recorded tier for routing.
        assert recorded_tiers()[("bfloat16", "FLA", "general")] == first["tier"]
