"""TCP frontend over the fleet: framing, parity, structured errors."""

import threading

import numpy as np
import pytest

from repro.runtime import FleetServer, compile_plan
from repro.runtime.fleet import resolve_backend, snapshot_model
from repro.runtime.frontend import (
    FleetClient,
    FleetFrontend,
    FleetRequestError,
    FleetShedError,
)


def _x(n, seed=0):
    return (
        np.random.default_rng(seed)
        .standard_normal((n, 1, 16, 16))
        .astype(np.float32)
    )


@pytest.fixture()
def served_fleet():
    from repro.nn.models import model_zoo

    module = model_zoo()["lenet"]
    module.eval()
    snap = snapshot_model("lenet", module=module, backend="daism")
    plan = compile_plan(module, resolve_backend("daism"))
    with FleetServer(workers=1, max_batch=64, max_delay_ms=5.0) as fleet:
        fleet.register(snap)
        with FleetFrontend(fleet) as frontend:
            host, port = frontend.address
            with FleetClient(host, port) as client:
                yield client, plan, fleet


def _assert_bytes_equal(got, want):
    np.testing.assert_array_equal(got.view(np.uint32), want.view(np.uint32))


class TestFrontend:
    def test_models_over_the_wire(self, served_fleet):
        client, _, _ = served_fleet
        assert client.models() == ["lenet"]

    def test_infer_byte_identical_to_plan(self, served_fleet):
        client, plan, _ = served_fleet
        x = _x(3, seed=7)
        _assert_bytes_equal(client.infer("lenet", x), plan.execute(x))

    def test_many_requests_one_connection(self, served_fleet):
        client, plan, _ = served_fleet
        for s in range(8):
            x = _x(2, seed=s)
            _assert_bytes_equal(client.infer("lenet", x), plan.execute(x))

    def test_concurrent_clients_byte_identical(self, served_fleet):
        """Requests from several connections coalesce; each reply keeps
        the bits of its request run alone."""
        client, plan, _ = served_fleet
        host, port = client._sock.getpeername()
        requests = [_x(1 + s % 3, seed=50 + s) for s in range(8)]
        replies = [None] * len(requests)

        def run(i):
            with FleetClient(host, port) as own:
                replies[i] = own.infer("lenet", requests[i])

        threads = [threading.Thread(target=run, args=(i,)) for i in range(len(requests))]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for x, got in zip(requests, replies):
            _assert_bytes_equal(got, plan.execute(x))

    def test_unknown_model_is_structured_error(self, served_fleet):
        client, _, _ = served_fleet
        with pytest.raises(FleetRequestError, match="unknown model"):
            client.infer("alexnet", _x(1))

    def test_stats_over_the_wire(self, served_fleet):
        client, _, fleet = served_fleet
        client.infer("lenet", _x(2))
        remote = client.stats()
        assert remote.keys() == fleet.stats().keys()
        assert remote["lenet"]["completed_requests"] >= 1

    def test_shed_crosses_the_wire_structurally(self):
        """An admission rejection arrives as data, not a stringly error."""
        with FleetServer(workers=1, max_batch=8, sla_ms=1.0) as fleet:
            fleet.register(
                snapshot_model("lenet", backend="exact"),
                service_hint_ms_per_sample=10.0,
            )
            with FleetFrontend(fleet) as frontend:
                host, port = frontend.address
                with FleetClient(host, port) as client:
                    with pytest.raises(FleetShedError) as err:
                        client.infer("lenet", _x(4))
        info = err.value.info
        assert info["error"] == "shed_load"
        assert info["reason"] == "sla_unmeetable"
        assert info["predicted_ms"] == pytest.approx(40.0)

    def test_second_client_gets_its_own_connection(self, served_fleet):
        client, plan, fleet = served_fleet
        frontend_host, frontend_port = client._sock.getpeername()
        with FleetClient(frontend_host, frontend_port) as other:
            x = _x(2, seed=99)
            _assert_bytes_equal(other.infer("lenet", x), plan.execute(x))
        # The original connection still works after the other closed.
        assert client.models() == ["lenet"]
