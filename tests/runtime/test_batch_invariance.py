"""Batch invariance: a sample's output bits never depend on its batch.

For every zoo model under each serving backend (exact, quantized,
daism), ``plan.execute(x)[i]`` is byte-equal to
``plan.execute(x[i:i+1])`` for random batches, and the shard-parallel
:class:`~repro.runtime.BatchEngine` at 1, 2 and 8 shards is byte-equal
to both.  This is what lets a server coalesce requests into any batch,
and a scheduler pick any batch size, without changing a reply.
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn.models import model_input_shape, model_zoo
from repro.runtime import BatchEngine, compile_plan
from repro.runtime.fleet import resolve_backend

MODELS = sorted(model_zoo())
BACKENDS = ["exact", "quantized", "daism"]

# Reduced geometry for the two heavy scenario models keeps the property
# fast without changing any layer kind (both accept any input size).
SHAPES = {"mobilenet_edge": (3, 16, 16), "transformer_encoder": (4, 256)}


@pytest.fixture(scope="module")
def plan_for():
    """Plans compiled once per module and released at its end.

    A plan holds its weight-stationary tables in the kernel cache; a
    process-wide cache here would keep them alive for later modules.
    """

    @functools.cache
    def compile_one(model, backend):
        module = model_zoo()[model]
        module.eval()
        return compile_plan(module, resolve_backend(backend))

    yield compile_one
    compile_one.cache_clear()


def _input(model, batch, seed):
    shape = SHAPES.get(model, model_input_shape(model))
    rng = np.random.default_rng(seed)
    return rng.standard_normal((batch, *shape)).astype(np.float32)


def _assert_batch_invariant(plan, x):
    full = plan.execute(x).view(np.uint32)
    for i in range(len(x)):
        alone = plan.execute(x[i : i + 1]).view(np.uint32)
        np.testing.assert_array_equal(full[i : i + 1], alone, err_msg=f"sample {i}")
    with BatchEngine(plan, shards=8) as engine:
        for shards in (1, 2, 8):
            count = min(shards, len(x))
            assert engine.shard_count(x, count) == count
            got = engine.run(x, shards=count)
            np.testing.assert_array_equal(got.view(np.uint32), full, err_msg=f"{shards} shards")


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("model", MODELS)
@settings(max_examples=3, deadline=None)
@given(batch=st.integers(min_value=1, max_value=16), seed=st.integers(0, 2**16))
def test_sample_bits_independent_of_batch(plan_for, model, backend, batch, seed):
    _assert_batch_invariant(plan_for(model, backend), _input(model, batch, seed))


@pytest.mark.parametrize("backend", BACKENDS)
def test_lenet_batch_64(plan_for, backend):
    _assert_batch_invariant(plan_for("lenet", backend), _input("lenet", 64, seed=7))
