"""Acceptance suite: one test per criterion, one PASS line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s``. The stochastic
recovery criteria (4 and 5) simulate ten seeds each and require at least
eight successes; the significance criteria run the desk-scale (6) and
the paper-scale (8) study. Expect the whole module to take on the order
of ten minutes.
"""

from __future__ import annotations

import hashlib
import os
import random
import time

import pytest

from oracles import (
    parallel_oracle_count,
    random_parallel_episode,
    random_sequence,
    random_serial_episode,
    serial_oracle_count,
)
from spikemine import (
    Event,
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
    parse_spike_file,
    run_significance,
    simulate,
    write_spike_file,
)

JOBS = min(4, os.cpu_count() or 1)
SEEDS = range(10)


def _report(name: str, detail: str = ""):
    print(f"\nACCEPTANCE {name}: PASS {detail}".rstrip())


def top_nonempty(levels):
    sized = [lvl for lvl in levels if lvl.counts]
    return sized[-1] if sized else None


# -- criterion 1 -------------------------------------------------------------

def test_criterion_1_worked_example(worked_sequence, worked_episode):
    cfg = MiningConfig(track_occurrences=True)
    best = float("inf")
    for _ in range(5):
        t0 = time.perf_counter()
        (res,) = count_serial_constrained([worked_episode], worked_sequence, cfg)
        best = min(best, time.perf_counter() - t0)
    assert res.freq == 1
    (occ,) = res.occurrences
    events = [(worked_sequence[i].etype, worked_sequence[i].time) for i in occ]
    assert events == [("A", 2), ("B", 4), ("C", 13), ("D", 17)]
    assert best < 0.001, f"pass took {best * 1e3:.3f} ms"
    _report("1 worked-example exactness", f"({best * 1e6:.0f} us/pass)")


# -- criteria 2 and 3: oracle equivalence ------------------------------------

def test_criterion_2_serial_oracle_equivalence():
    rng = random.Random(1_2024)
    cfg = MiningConfig(track_occurrences=True)
    checked = 0
    for _ in range(1000):
        seq = random_sequence(rng)
        episode = random_serial_episode(rng, seq)
        (res,) = count_serial_constrained([episode], seq, cfg)
        expected = serial_oracle_count(episode, seq)
        assert res.freq == expected, (
            f"{episode} on {len(seq)} events: engine {res.freq}, oracle {expected}"
        )
        checked += 1
    _report("2 serial oracle equivalence", f"({checked} random cases, exact)")


def test_criterion_3_parallel_oracle_equivalence():
    rng = random.Random(3_2024)
    checked = 0
    for _ in range(1000):
        seq = random_sequence(rng)
        episode = random_parallel_episode(rng, seq)
        expiry = rng.randint(1, 15)
        cfg = MiningConfig(expiry=expiry)
        (res,) = count_parallel_expiry([episode], seq, cfg)
        expected = parallel_oracle_count(episode, seq, expiry)
        assert res.freq == expected, (
            f"{episode} T={expiry} on {len(seq)} events: engine {res.freq}, oracle {expected}"
        )
        checked += 1
    _report("3 parallel oracle equivalence", f"({checked} random cases, exact)")


# -- criterion 4: pattern recovery on the diamond network --------------------

def pair(*types):
    return ParallelEpisode(types)


def chain(types, interval):
    return SerialEpisode(tuple(types), (interval,) * (len(types) - 1))


FOUR_CHAINS = {
    chain("ABCD", Interval(4, 6)),
    chain("ABEF", Interval(4, 6)),
    chain("ABED", Interval(4, 6)),
    chain("ABCF", Interval(4, 6)),
}


def _recover_example1(seed: int) -> tuple[bool, float]:
    run = simulate(embed_pattern(NetworkConfig(seed=seed), "example1"))
    seq = run.sequence
    slowest = 0.0

    def mined_ok(levels, expect_top_size, expect_set):
        nonlocal slowest
        slowest = max(slowest, max(lvl.seconds for lvl in levels))
        top = top_nonempty(levels)
        if expect_top_size == 1:
            return top is not None and top.size == 1
        if top is None or top.size != expect_top_size:
            return False
        return {c.episode for c in top.counts} == expect_set

    ok = True
    for expiry in (1, 2):
        cfg = MiningConfig(freq_threshold=0.01, max_size=6, expiry=expiry)
        ok &= mined_ok(mine_parallel(seq, cfg, jobs=JOBS), 2, {pair("C", "E"), pair("D", "F")})
    cfg7 = MiningConfig(freq_threshold=0.01, max_size=6, expiry=7)
    levels7 = mine_parallel(seq, cfg7, jobs=JOBS)
    slowest = max(slowest, max(lvl.seconds for lvl in levels7))
    found = {c.episode for lvl in levels7 for c in lvl.counts}
    ok &= pair("C", "D", "E", "F") in found

    cfg46 = MiningConfig(
        freq_threshold=0.01, max_size=6, candidate_intervals=(Interval(4, 6),)
    )
    ok &= mined_ok(mine_serial(seq, cfg46, jobs=JOBS), 4, FOUR_CHAINS)
    cfg24 = MiningConfig(
        freq_threshold=0.01, max_size=6, candidate_intervals=(Interval(2, 4),)
    )
    ok &= mined_ok(mine_serial(seq, cfg24, jobs=JOBS), 1, None)
    return ok, slowest


def test_criterion_4_example1_recovery():
    outcomes = []
    slowest = 0.0
    for seed in SEEDS:
        ok, worst = _recover_example1(seed)
        outcomes.append(ok)
        slowest = max(slowest, worst)
    assert sum(outcomes) >= 8, f"recovered {sum(outcomes)}/10 seeds: {outcomes}"
    assert slowest <= 5.0, f"slowest counting pass {slowest:.2f} s"
    _report(
        "4 example-1 recovery",
        f"({sum(outcomes)}/10 seeds, slowest pass {slowest:.2f} s)",
    )


# -- criterion 5: synfire recovery -------------------------------------------

EX2_CHAIN = SerialEpisode(
    ("A", "[B C D]", "E", "[F G H I]", "J", "[K L]"),
    (Interval(4, 6),) * 5,
)
EX3_CHAIN = SerialEpisode(
    ("X", "[A B C]", "D", "E", "F"),
    (Interval(4, 6), Interval(2, 4), Interval(6, 8), Interval(2, 4)),
)
EX3_INTERVALS = tuple(Interval(2 * i, 2 * i + 2) for i in range(5))


def _recover_synfire(seed: int, pattern: str, cfg: MiningConfig, expected) -> bool:
    run = simulate(embed_pattern(NetworkConfig(seed=seed), pattern))
    result = mine_synfire(run.sequence, cfg, jobs=JOBS)
    top = top_nonempty(result.serial_levels)
    if top is None or top.size != expected.size:
        return False
    return {c.episode for c in top.counts} == {expected}


def test_criterion_5_synfire_recovery():
    cfg2 = MiningConfig(
        freq_threshold=0.01, max_size=8, expiry=1, candidate_intervals=(Interval(4, 6),)
    )
    cfg3 = MiningConfig(
        freq_threshold=0.01, max_size=8, expiry=1, candidate_intervals=EX3_INTERVALS
    )
    ok2 = sum(_recover_synfire(seed, "example2", cfg2, EX2_CHAIN) for seed in SEEDS)
    ok3 = sum(_recover_synfire(seed, "example3", cfg3, EX3_CHAIN) for seed in SEEDS)
    assert ok2 >= 8, f"example-2 chain recovered on {ok2}/10 seeds"
    assert ok3 >= 8, f"example-3 chain recovered on {ok3}/10 seeds"
    _report("5 synfire recovery", f"(example2 {ok2}/10, example3 {ok3}/10 seeds)")


# -- criterion 6: significance separation ------------------------------------

def test_criterion_6_significance_separation():
    t0 = time.perf_counter()
    report = run_significance(
        weight_seeds=5,
        noise_runs_per_seed=2,   # 10 random-weight datasets
        random_rate_runs=5,
        patterned_runs=5,
        max_size=6,
        jobs=JOBS,
    )
    elapsed = time.perf_counter() - t0
    assert report.random_samples == 15 and report.patterned_samples == 5
    worst = min(report.separation(size) for size in range(3, 7))
    assert worst >= 20.0, f"weakest patterned/random ratio {worst:.1f}"
    assert elapsed < 900, f"desk-scale study took {elapsed:.0f} s"
    _report(
        "6 significance separation",
        f"(min ratio sizes 3-6: {worst:.0f}x, {elapsed:.0f} s)",
    )


# -- criterion 7: property suites --------------------------------------------

def test_criterion_7_property_suites(tmp_path):
    rng = random.Random(7_2024)

    # tracked serial occurrences: non-overlap and window membership
    cfg = MiningConfig(track_occurrences=True)
    for _ in range(200):
        seq = random_sequence(rng, max_events=120)
        episode = random_serial_episode(rng, seq)
        (res,) = count_serial_constrained([episode], seq, cfg)
        last_end = -1
        for occ in res.occurrences:
            assert occ[0] > last_end
            for j, iv in enumerate(episode.intervals):
                gap = seq[occ[j + 1]].time - seq[occ[j]].time
                assert iv.low < gap <= iv.high
            last_end = occ[-1]

    # parallel sub-multiset monotonicity
    for _ in range(200):
        seq = random_sequence(rng, max_events=120)
        big = random_parallel_episode(rng, seq, min_nodes=2, max_nodes=4)
        drop = rng.randrange(big.size)
        small = ParallelEpisode(big.etypes[:drop] + big.etypes[drop + 1 :])
        expiry = rng.randint(1, 12)
        counts = count_parallel_expiry([big, small], seq, MiningConfig(expiry=expiry))
        assert counts[1].freq >= counts[0].freq

    # simulator determinism and refractoriness
    sim_cfg = NetworkConfig(num_neurons=6, duration=4.0, seed=21, refractory_steps=3,
                            lambda_max=9000.0, rate_offset=1.0)
    one = simulate(sim_cfg).sequence
    two = simulate(sim_cfg).sequence
    assert one.events == two.events
    last = {}
    for ev in one:
        if ev.etype in last:
            assert ev.time - last[ev.etype] >= 3
        last[ev.etype] = ev.time

    # write/parse round trip
    for _ in range(20):
        seq = random_sequence(rng, max_events=300)
        path = tmp_path / "round.csv"
        write_spike_file(seq, path)
        assert parse_spike_file(path, seq.tick_seconds).events == seq.events

    _report("7 property suites", "(non-overlap, windows, monotonicity, simulator, round-trip)")


# -- criterion 8: paper-scale significance ----------------------------------

PAPER_SCALE_SHA256 = {
    "significance.txt": "3e54ef1df70b773062cc574a04a615fcbb60813ff16539ca8ca0ae82692a0f40",
    "significance.csv": "cd2358245af3901d6310f3c4eab899302e210b751cb134340522d0fd57fd1eed",
}


def test_criterion_8_paper_scale_study(tmp_path, capsys):
    # the full-scale study (150 + 20 datasets, sizes to 10), as the CLI runs it
    from spikemine.cli import main

    t0 = time.perf_counter()
    argv = ["significance", str(tmp_path), "--scale", "paper", "--jobs", "2", "--seed", "1"]
    assert main(argv) == 0
    elapsed = time.perf_counter() - t0
    capsys.readouterr()
    csv = (tmp_path / "significance.csv").read_text()
    for name, digest in PAPER_SCALE_SHA256.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, f"{name}\n{csv}"
    rows = [line.split(",") for line in csv.splitlines()[1:]]
    assert [int(size) for size, _, _ in rows] == list(range(1, 11))
    worst = min(float(pmin) / float(rmax) for size, rmax, pmin in rows[2:])
    assert worst >= 20.0, f"weakest patterned/random ratio {worst:.1f}"
    assert elapsed < 900, f"paper-scale study took {elapsed:.0f} s"
    _report("8 paper-scale significance", f"(min ratio sizes 3-10: {worst:.0f}x, {elapsed:.0f} s)")
