import os
import sys
from collections import deque
from concurrent.futures import Future

import pytest

import spikemine.episodes as episodes
import spikemine.significance as significance
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


class InlinePools:
    """What the package hands its pools: ``workers`` holds each pool's
    ``max_workers``, ``initargs`` each pool's initializer arguments and
    ``submitted`` the arguments of every ``submit``."""

    def __init__(self):
        self.workers = []
        self.initargs = []
        self.submitted = []


class InlineExecutor:
    """Stands in for ProcessPoolExecutor: records what it is given and runs
    every call here, so no process starts however large the request."""

    def __init__(self, pools, max_workers, initializer=None, initargs=()):
        self.pools = pools
        pools.workers.append(max_workers)
        pools.initargs.append(initargs)
        if initializer is not None:
            initializer(*initargs)

    def submit(self, fn, *args):
        self.pools.submitted.append(args)
        future = Future()
        future.set_result(fn(*args))
        return future

    def map(self, fn, *iterables):
        return map(fn, *iterables)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        pass


@pytest.fixture
def inline_pools(monkeypatch):
    """An ``InlinePools`` record of every pool the package makes, run in this process."""
    pools = InlinePools()
    monkeypatch.setattr(episodes, "_stream", None)  # the in-process initializer sets it
    for module in (episodes, significance):
        monkeypatch.setattr(
            module, "ProcessPoolExecutor", lambda *a, **kw: InlineExecutor(pools, *a, **kw)
        )
    return pools
