"""The plan entry points ``perfbench/offline.py`` wraps are the ones the ops call.

The traced benchmark splits a batch's time into packing and GEMM time by
replacing ``repro.runtime.ops.pack``, ``repro.runtime.ops.gather_packed_cols``
and each packed strategy's ``matmul_packed`` (found through
``op_strategies``).  An op that stopped calling one of them by that name
would zero its ``kernels.*`` metrics without failing anything, so this
test wraps them the same way and checks that one compiled
``mobilenet_edge`` batch goes through each.
"""

import numpy as np

from repro.core.config import PC3_TR
from repro.formats.floatfmt import BFLOAT16
from repro.nn.backend import daism_backend
from repro.nn.models import build_mobilenet_edge
from repro.runtime import compile_plan
from repro.runtime import ops as plan_ops
from repro.runtime.ops import PackedKernelStrategy
from repro.runtime.plan import op_strategies


def test_compiled_plan_calls_every_wrapped_entry_point(monkeypatch):
    plan = compile_plan(build_mobilenet_edge(size=48).eval(), daism_backend(PC3_TR, BFLOAT16))
    calls = {"pack": 0, "gather_packed_cols": 0, "matmul_packed": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for attr in ("pack", "gather_packed_cols"):
        monkeypatch.setattr(plan_ops, attr, counted(attr, getattr(plan_ops, attr)))
    strategies = [
        s for op in plan.ops for s in op_strategies(op) if isinstance(s, PackedKernelStrategy)
    ]
    assert strategies
    for strategy in strategies:
        monkeypatch.setattr(
            strategy, "matmul_packed", counted("matmul_packed", strategy.matmul_packed)
        )

    x = np.random.default_rng(0).standard_normal((2, 3, 48, 48)).astype(np.float32)
    plan.execute(x)
    assert all(calls.values()), calls
