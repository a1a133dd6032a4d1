"""Tests for the certified tier router.

Routing policy (explicit bypass / tiny-shape guard / certificate gating),
the SLA-aware variant the cost-model scheduler uses, and the
``kernel="auto"`` plumbing through ``approx_matmul`` and compiled plans.
"""

import numpy as np
import pytest

from repro.core import integrity
from repro.core.config import PC3_TR, all_configs
from repro.core.gemm import approx_matmul
from repro.core.kernels import (
    UnknownKernelError,
    exact_tier_name,
    get_kernel,
    shape_class,
)
from repro.core.router import (
    AUTO_KERNEL,
    CERT_MARGIN,
    TierCertificate,
    certify_fast_path,
    route_decision,
    route_decision_sla,
    route_kernel,
)
from repro.formats.floatfmt import BFLOAT16, FLOAT32


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


class TestSlaRouting:
    """``route_decision_sla``: bit-exact unless the SLA cannot be met."""

    @pytest.fixture(autouse=True)
    def _no_demotions(self):
        integrity.reset_integrity()
        yield
        integrity.reset_integrity()

    def test_untabulated_format_stays_generic(self):
        decision = route_decision_sla(FLOAT32, PC3_TR, 1000.0, 1.0)
        assert decision.kernel == "generic"
        assert decision.certificate is None

    def test_exact_products_stay_exact(self):
        decision = route_decision_sla(BFLOAT16, None, 1000.0, 1.0)
        assert decision.kernel == exact_tier_name(BFLOAT16)
        assert decision.certificate is None

    def test_demoted_config_stays_exact_under_pressure(self):
        integrity.demote(BFLOAT16, PC3_TR)
        decision = route_decision_sla(BFLOAT16, PC3_TR, 1000.0, 1.0)
        assert decision.kernel == exact_tier_name(BFLOAT16)
        assert "demotion" in decision.reason

    @pytest.mark.parametrize("predicted, budget", [(None, 1.0), (1000.0, None), (None, None)])
    def test_no_budget_or_uncalibrated_stays_exact(self, predicted, budget):
        decision = route_decision_sla(BFLOAT16, PC3_TR, predicted, budget)
        assert decision.kernel == exact_tier_name(BFLOAT16)
        assert "bit-exact" in decision.reason
        assert decision.certificate is None

    @pytest.mark.parametrize("predicted", [0.5, 1.0])
    def test_prediction_within_budget_stays_exact(self, predicted):
        decision = route_decision_sla(BFLOAT16, PC3_TR, predicted, 1.0)
        assert decision.kernel == exact_tier_name(BFLOAT16)
        assert "meets SLA" in decision.reason
        assert decision.certificate is None

    @pytest.mark.parametrize("config", all_configs(), ids=lambda c: c.name)
    def test_pressure_takes_the_auto_ladder(self, config):
        shape = (256, 288, 64)
        decision = route_decision_sla(BFLOAT16, config, 1000.0, 1.0, shape=shape)
        auto = route_decision(BFLOAT16, config, AUTO_KERNEL, shape=shape)
        assert decision.kernel == auto.kernel
        assert decision.certificate is auto.certificate
        assert decision.shape_class == "general"
        assert "sla pressure" in decision.reason
