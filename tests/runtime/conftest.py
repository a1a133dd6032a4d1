"""Shared fixtures for the runtime tests."""

import threading

import pytest


@pytest.fixture
def shard_calls(monkeypatch):
    """``watch(plan)`` records ``(rows, thread name)`` of each ``plan.execute`` call.

    A :class:`~repro.runtime.BatchEngine` run of ``k`` shards makes ``k``
    calls, so tests assert the shard count an engine really ran.
    """

    def watch(plan) -> list[tuple[int, str]]:
        calls: list[tuple[int, str]] = []
        execute = plan.execute

        def spy(x):
            calls.append((len(x), threading.current_thread().name))
            return execute(x)

        monkeypatch.setattr(plan, "execute", spy)
        return calls

    return watch
