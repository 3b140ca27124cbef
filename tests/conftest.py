import concurrent.futures
import os
import sys
from collections import deque

import pytest

from spikemine import Event, EventSequence, Interval, SerialEpisode


@pytest.fixture
def worked_sequence() -> EventSequence:
    """The 8-event stream used by the step-by-step counting walkthrough."""
    raw = [("A", 1), ("A", 2), ("B", 4), ("A", 5), ("C", 10), ("B", 12), ("C", 13), ("D", 17)]
    return EventSequence([Event(t, k) for t, k in raw])


@pytest.fixture
def worked_episode() -> SerialEpisode:
    return SerialEpisode(
        ("A", "B", "C", "D"),
        (Interval(0, 5), Interval(5, 10), Interval(0, 5)),
    )


@pytest.fixture
def peak_live_entries(monkeypatch):
    """``peak(count, eps, seq, cfg)``: the most time-list entries held at once
    while ``count`` counts ``eps`` in one pass. It replaces the ``deque`` of
    the counter's module with a subclass that counts its entries."""

    def peak(count, eps, seq, cfg=None):
        live = top = 0

        class CountedDeque(deque):
            def append(self, item):
                nonlocal live, top
                super().append(item)
                live += 1
                top = max(top, live)

            def popleft(self):
                nonlocal live
                live -= 1
                return super().popleft()

            def clear(self):
                nonlocal live
                live -= len(self)
                super().clear()

        monkeypatch.setattr(sys.modules[count.__module__], "deque", CountedDeque)
        count(eps, seq, cfg)
        return top

    return peak


@pytest.fixture
def cpus(monkeypatch):
    """``cpus(n)``: make ``n`` CPUs usable for the rest of the test."""
    def set_cpus(n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: n)

    return set_cpus


class InlineExecutor:
    """Stands in for ProcessPoolExecutor: appends its ``max_workers`` to
    ``workers`` and maps every call here, so no process starts however
    large the request."""

    def __init__(self, workers, max_workers):
        workers.append(max_workers)

    def map(self, fn, *iterables):
        return map(fn, *iterables)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        pass


@pytest.fixture
def inline_pools(monkeypatch):
    """The ``max_workers`` of every pool ``significance`` makes, each run in this
    process. ``run_significance`` looks the pool up where it starts workers."""
    workers = []
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        lambda max_workers: InlineExecutor(workers, max_workers))
    return workers
