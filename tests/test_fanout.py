"""The ``--jobs`` fan-out: root-aligned chunks, one pool per mined stream,
bounded worker counts, and results identical to counting in one process."""

import random

import pytest

import spikemine.episodes as episodes
from oracles import random_sequence
from spikemine import (
    EventSequence,
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
    run_significance,
    simulate,
)
from spikemine.episodes import root_chunks


def levels_of(levels):
    return [(lv.size, lv.n_candidates, lv.counts) for lv in levels]


@pytest.fixture(scope="module")
def recording():
    """Three simulated seconds of example 1: enough for four serial levels."""
    return simulate(embed_pattern(NetworkConfig(duration=3.0, seed=3), "example1")).sequence


def test_root_chunks_keep_roots_together_and_balance():
    rng = random.Random(8)
    for _ in range(200):
        roots = [rng.choice("ABCDEFG") for _ in range(rng.randint(0, 40))]
        n = rng.randint(1, 5)
        chunks = root_chunks(roots, n)
        assert len(chunks) == min(n, len(set(roots)))
        assert sorted(i for chunk in chunks for i in chunk) == list(range(len(roots)))
        owner = {roots[i]: k for k, chunk in enumerate(chunks) for i in chunk}
        assert all(owner[roots[i]] == k for k, chunk in enumerate(chunks) for i in chunk)
        # each group went to the least-loaded chunk: before its last group
        # went in, a chunk held no more than the lightest chunk holds at the end
        for chunk in chunks:
            last = roots.count(roots[chunk[-1]])
            assert len(chunk) - last <= min(map(len, chunks))


def test_chunked_counts_restore_order_with_duplicates(cpus, inline_pools):
    cpus(3)
    rng = random.Random(21)
    seq = random_sequence(rng, max_events=150, max_types=4)
    windows = (Interval(0, 2), Interval(2, 5))
    eps = [
        SerialEpisode((a, b, c), (w, v))
        for a in "ABCD" for b in "AB" for c in "CD" for w in windows for v in windows
    ]
    eps += rng.choices(eps, k=30)
    rng.shuffle(eps)
    cfg = MiningConfig(track_occurrences=True)
    solo = count_serial_constrained(eps, seq, cfg)
    assert count_serial_constrained(eps, seq, cfg, jobs=3) == solo
    assert inline_pools.workers == [3]

    peps = [ParallelEpisode(ep.etypes) for ep in eps]
    pcfg = MiningConfig(expiry=4, track_occurrences=True)
    assert count_parallel_expiry(peps, seq, pcfg, jobs=3) == count_parallel_expiry(peps, seq, pcfg)


def ints_only(value) -> bool:
    """True iff ``value`` is an int or a (nested) tuple or list of ints."""
    if isinstance(value, (tuple, list)):
        return all(ints_only(v) for v in value)
    return type(value) in (int, bool)


def test_only_ints_cross_the_pool(cpus, inline_pools, recording):
    cpus(2)
    windows = (Interval(0, 3), Interval(3, 6))
    cfg = MiningConfig(freq_threshold=0.002, max_size=3, track_occurrences=True,
                       candidate_intervals=windows, expiry=2)
    mine_serial(recording, cfg, jobs=2)  # two windows and a floor: the hull pass too
    mine_parallel(recording, cfg, jobs=2)
    mine_synfire(recording, cfg, jobs=2)
    count_serial_constrained(
        [SerialEpisode(("A", "B"), windows[:1]), SerialEpisode(("Z", "A"), windows[1:])],
        recording, cfg, jobs=2,
    )
    count_parallel_expiry(
        [ParallelEpisode(("A", "B")), ParallelEpisode(("Z",))], recording, cfg, jobs=2
    )
    assert inline_pools.workers == [2] * 6
    assert all(ints_only(args) for args in inline_pools.initargs)
    assert len(inline_pools.submitted) > 12
    for core, keys, args in inline_pools.submitted:
        assert callable(core)
        assert keys and all(type(key) is tuple and ints_only(key) for key in keys)
        assert ints_only(args)


def test_workers_bounded_by_jobs_cpus_and_chunks(cpus, inline_pools, recording):
    cpus(4)
    cfg = MiningConfig(max_size=2, candidate_intervals=(Interval(4, 6),), beam_width=20)
    mine_serial(recording, cfg, jobs=10**6)
    few = [e for e in recording.events if e.etype in "ABC"]
    mine_serial(EventSequence(few), cfg, jobs=10**6)
    mine_serial(recording, cfg, jobs=3)
    count_serial_constrained(
        [SerialEpisode(("A", "B"), (Interval(4, 6),))] * 2
        + [SerialEpisode(("B", "C"), (Interval(4, 6),))],
        recording, jobs=10**6,
    )
    assert inline_pools.workers == [4, 3, 3, 2]
    mine_serial(recording, cfg, jobs=1)
    cpus(1)
    mine_serial(recording, cfg, jobs=10**6)
    assert inline_pools.workers == [4, 3, 3, 2]  # one process is not a pool


def test_significance_workers_bounded(cpus, inline_pools):
    cpus(8)
    kwargs = dict(
        weight_seeds=1, noise_runs_per_seed=2, random_rate_runs=1,
        patterned_runs=1, max_size=2, beam_width=40, chain_length=4,
    )
    multi = run_significance(NetworkConfig(duration=2.0), jobs=10**6, **kwargs)
    assert inline_pools.workers == [3]  # three random datasets, one patterned
    solo = run_significance(NetworkConfig(duration=2.0), **kwargs)
    assert inline_pools.workers == [3]
    assert (multi.random_avg_max, multi.patterned_avg_min) == (
        solo.random_avg_max, solo.patterned_avg_min
    )


@pytest.fixture
def real_pools(monkeypatch, cpus):
    """``[max_workers, chunks submitted]`` of every real pool the counters start."""
    cpus(2)
    made = []

    class Counted(episodes.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.record = [self._max_workers, 0]
            made.append(self.record)

        def submit(self, *args, **kwargs):
            self.record[1] += 1
            return super().submit(*args, **kwargs)

    monkeypatch.setattr(episodes, "ProcessPoolExecutor", Counted)
    return made


def test_one_pool_per_mine_serial_call(real_pools, recording):
    # two windows and a floor: level 2 runs the hull pass in the same pool
    cfg = MiningConfig(
        freq_threshold=0.002, max_size=4, track_occurrences=True,
        candidate_intervals=(Interval(0, 3), Interval(3, 6)),
    )
    fanned = mine_serial(recording, cfg, jobs=2)
    assert len(fanned) == 4
    # levels 1, 3 and 4 and both passes of level 2, two chunks each
    assert real_pools == [[2, 10]]
    assert levels_of(fanned) == levels_of(mine_serial(recording, cfg))


def test_tracked_mine_parallel_jobs_match(real_pools, recording):
    cfg = MiningConfig(freq_threshold=0.002, max_size=3, expiry=2, track_occurrences=True)
    fanned = mine_parallel(recording, cfg, jobs=2)
    assert len(fanned) == 3
    assert real_pools == [[2, 6]]
    assert levels_of(fanned) == levels_of(mine_parallel(recording, cfg))


def test_mine_synfire_one_pool_per_stream(real_pools):
    seq = simulate(embed_pattern(NetworkConfig(duration=3.0, seed=5), "example2")).sequence
    cfg = MiningConfig(
        freq_threshold=0.003, max_size=4, expiry=1,
        candidate_intervals=(Interval(0, 2), Interval(2, 4), Interval(4, 6)),
    )
    fanned = mine_synfire(seq, cfg, jobs=2)
    assert [workers for workers, _ in real_pools] == [2, 2]  # the input, then the rewritten stream
    solo = mine_synfire(seq, cfg)
    assert levels_of(fanned.parallel_levels) == levels_of(solo.parallel_levels)
    assert fanned.rewritten_group_counts == solo.rewritten_group_counts
    assert fanned.rewritten.events == solo.rewritten.events
    assert levels_of(fanned.serial_levels) == levels_of(solo.serial_levels)
