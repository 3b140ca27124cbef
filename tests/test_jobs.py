"""``jobs`` on the mining and counting calls: it starts no process and
changes no result."""

import concurrent.futures
import os

import pytest

from spikemine import (
    Interval,
    MiningConfig,
    NetworkConfig,
    ParallelEpisode,
    SerialEpisode,
    count_parallel_expiry,
    count_serial_constrained,
    embed_pattern,
    mine_parallel,
    mine_serial,
    mine_synfire,
    simulate,
)


def levels_of(levels):
    return [(lv.size, lv.n_candidates, lv.counts) for lv in levels]


@pytest.fixture(scope="module")
def recording():
    """Three simulated seconds of example 1: enough for four serial levels."""
    return simulate(embed_pattern(NetworkConfig(duration=3.0, seed=3), "example1")).sequence


def test_mining_starts_no_process(cpus, monkeypatch, recording):
    def refuse(*args, **kwargs):
        raise AssertionError("a process was started")

    cpus(2)  # enough CPUs that a pool would start, if mining still had one
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
    monkeypatch.setattr(os, "fork", refuse)
    windows = (Interval(0, 3), Interval(3, 6))
    cfg = MiningConfig(freq_threshold=0.002, max_size=3, track_occurrences=True,
                       candidate_intervals=windows, expiry=2)
    serial = [SerialEpisode(("A", "B"), windows[:1]), SerialEpisode(("Z", "A"), windows[1:])]
    parallel = [ParallelEpisode(("A", "B")), ParallelEpisode(("Z",))]

    def run(jobs):
        synfire = mine_synfire(recording, cfg, jobs=jobs)
        return (
            levels_of(mine_serial(recording, cfg, jobs=jobs)),  # level 2 from the pair sweep
            levels_of(mine_parallel(recording, cfg, jobs=jobs)),
            levels_of(synfire.parallel_levels), synfire.rewritten_group_counts,
            synfire.rewritten.events, levels_of(synfire.serial_levels),
            count_serial_constrained(serial, recording, cfg, jobs=jobs),
            count_parallel_expiry(parallel, recording, cfg, jobs=jobs),
        )

    assert run(2) == run(1)
