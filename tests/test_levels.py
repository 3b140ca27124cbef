"""Level-wise mining and the candidate joins against the reference level
loop and joins of ``oracles``, over alphabets whose sorted order differs
from any other plausible one (numeric suffixes, lower case, composite
labels)."""

import gc
import random
import tracemalloc
from dataclasses import replace
from types import SimpleNamespace

import pytest
from oracles import (
    parallel_join_oracle,
    parallel_oracle_count,
    reference_levels,
    reference_synfire,
    serial_join_oracle,
    serial_oracle_count,
)
from spikemine import (
    Event,
    EventSequence,
    Interval,
    MiningConfig,
    ParallelEpisode,
    SerialEpisode,
    count_parallel_expiry,
    count_serial_constrained,
    generate_parallel_candidates,
    generate_serial_candidates,
    mine_parallel,
    mine_serial,
    mine_synfire,
    parallel,
    serial,
)
from spikemine.episodes import count_pairs, counted

# sorted: "N1" < "N10" < "N2" < "Z" < "[A B]" < "a" < "b"
LABELS = ("N2", "N10", "N1", "a", "Z", "b", "[A B]")


def fresh(label: str) -> str:
    """A str equal to ``label`` but built anew, so not the same object."""
    return "".join(list(label))


def label_order_stream(rng: random.Random) -> EventSequence:
    # events and alphabet get fresh copies: equal labels that are not the same objects
    types = rng.sample(LABELS, rng.randint(2, 4))
    silent = rng.sample(LABELS, rng.randint(0, 1))  # alphabet may name silent channels
    events = []
    t = 0
    for _ in range(rng.randint(0, 45)):
        t += rng.choice((0, 1, 1, 2, 3))
        events.append(Event(fresh(rng.choice(types)), t))
    return EventSequence(events, alphabet={fresh(x) for x in types + silent})


def random_config(rng: random.Random) -> MiningConfig:
    windows = []
    low = rng.randint(0, 1)
    for _ in range(rng.randint(1, 3)):
        high = low + rng.randint(1, 3)
        windows.append(Interval(low, high))
        low = high + rng.randint(0, 1)
    return MiningConfig(
        max_size=3,
        candidate_intervals=tuple(windows),
        expiry=rng.randint(1, 4),
        min_count=rng.choice((None, None, 1, 2, 3)),  # None: the threshold's floor, 1
        beam_width=rng.choice((None, 1, 3)),
        track_occurrences=rng.random() < 0.5,
    )


def plain(levels):
    return [(lv.size, lv.n_candidates, lv.counts) for lv in levels]


def deep_config(rng: random.Random) -> MiningConfig:
    """``random_config`` mining to size 4 or 5 under a beam."""
    return replace(random_config(rng), max_size=rng.randint(4, 5), beam_width=rng.choice((2, 5, 8)))


def test_mining_equals_reference_levels():
    rng = random.Random(91)
    cases = [(label_order_stream(rng), random_config(rng)) for _ in range(25)]
    # deeper runs: covers come from several levels, and the beam leaves out frequent groups
    cases += [(label_order_stream(rng), deep_config(rng)) for _ in range(25)]
    deepest = 0
    for seq, cfg in cases:
        for kind, mine in (("serial", mine_serial), ("parallel", mine_parallel)):
            assert plain(mine(seq, cfg)) == reference_levels(seq, cfg, kind), (kind, cfg)
        result = mine_synfire(seq, cfg)
        parallel, groups, rewritten, serial = reference_synfire(seq, cfg)
        assert plain(result.parallel_levels) == parallel
        assert result.rewritten_group_counts == groups
        assert result.rewritten == rewritten
        assert plain(result.serial_levels) == serial
        deepest = max([deepest] + [lv.size for lv in result.parallel_levels if lv.counts])
    assert deepest == 5


def test_joins_equal_the_object_joins():
    rng = random.Random(7)
    windows = (Interval(0, 2), Interval(2, 3), Interval(5, 9))
    for _ in range(200):
        size = rng.randint(1, 3)
        serial = [
            SerialEpisode(
                tuple(rng.choice(LABELS) for _ in range(size)),
                tuple(rng.choice(windows) for _ in range(size - 1)),
            )
            for _ in range(rng.randint(0, 12))
        ]
        chosen = windows[: rng.randint(0, 3)]
        # duplicates in either input change nothing
        joined = generate_serial_candidates(serial + serial[:2], chosen + chosen)
        assert joined == serial_join_oracle(serial, chosen)
        parallel = [
            ParallelEpisode(tuple(rng.choice(LABELS[:4]) for _ in range(size)))
            for _ in range(rng.randint(0, 15))
        ]
        joined = generate_parallel_candidates(parallel + parallel[:2])
        assert joined == parallel_join_oracle(parallel)


def test_windows_of_any_width_mine_without_a_table_of_gaps():
    # the level-2 sweep keeps nothing per tick of gap: windows and an
    # expiry of 10**12 ticks, one reaching past the stream's span and one
    # wholly beyond it, mine as the reference does
    rng = random.Random(4343)
    for _ in range(10):
        seq = label_order_stream(rng)
        span = seq.ticks[-1] - seq.ticks[0] if len(seq) else 0
        windows = (Interval(0, 2), Interval(2, 10**12), Interval(10**12, 10**12 + 5))
        cfg = MiningConfig(max_size=3, candidate_intervals=windows, expiry=10**12 + span,
                           track_occurrences=rng.random() < 0.5)
        for kind, mine in (("serial", mine_serial), ("parallel", mine_parallel)):
            assert plain(mine(seq, cfg)) == reference_levels(seq, cfg, kind), (kind, cfg)


def test_wide_alphabets_keep_the_pair_sweep_small():
    # 10k events over 1000 labels at floor 1: a slot for every pair of type
    # codes would make a million, so the sweep keeps entries only for the
    # pairs that occur. The dict-keyed sweep it replaced peaked at 7.4 MiB
    # (serial) and 6.3 MiB (parallel) under tracemalloc on these streams;
    # the bound is 16 MiB, about twice that
    rng = random.Random(1)
    names = [f"n{k}" for k in range(1000)]
    t, events = 0, []
    for _ in range(10_000):
        t += rng.choice((1, 2, 3, 4))
        events.append(Event(rng.choice(names), t))
    seq = EventSequence(events)
    window = Interval(0, 5)
    for kind, spec in ((SerialEpisode, {"windows": (window,)}), (ParallelEpisode, {"expiry": 5})):
        seeds = [kind((x,)) for x in sorted(seq.alphabet)]
        tracemalloc.start()
        try:
            found, _ = count_pairs(seq, seeds, False, 1, **spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20, (kind.__name__, peak)
        occurring = set()
        for j in range(len(seq)):
            i = j - 1
            while i >= 0 and seq.ticks[j] - seq.ticks[i] <= 5:
                pair = (seq.labels[i], seq.labels[j])
                if kind is ParallelEpisode:
                    occurring.add(ParallelEpisode(pair))
                elif window.low < seq.ticks[j] - seq.ticks[i] <= window.high:
                    occurring.add(SerialEpisode(pair, (window,)))
                i -= 1
        counts = counted(found, False)
        assert [c.episode for c in counts] == sorted(occurring)
        for c in rng.sample(counts, 25):
            oracle = (serial_oracle_count(c.episode, seq) if kind is SerialEpisode
                      else parallel_oracle_count(c.episode, seq, 5))
            assert c.freq == oracle, c


def test_levels_1_and_2_run_no_counting_pass(monkeypatch):
    # level 1 is the label counts and level 2 the pair sweep, so the
    # counting passes first run at level 3, on the level-3 candidates
    rng = random.Random(2121)
    t, events = 0, []
    for _ in range(300):  # A -(2,4]-> B and {C D} embedded in noise
        t += rng.choice((1, 2, 3, 4))
        x = rng.choice("ABCDE")
        events += [Event(x, t)] + [Event("B", t + 3)] * (x == "A") + [Event("D", t)] * (x == "C")
    events += [Event("F", t + 100), Event("F", t + 200)]  # no pair with F occurs
    seq = EventSequence(events)
    received = []

    def recording(module):
        count = module._count
        monkeypatch.setattr(module, "_count", lambda eps, *args: received.append(eps) or count(eps, *args))

    recording(serial)
    recording(parallel)
    windows = (Interval(1, 2), Interval(2, 4))
    cfg = MiningConfig(max_size=2, candidate_intervals=windows, expiry=2, min_count=30)
    levels = mine_serial(seq, cfg) + mine_parallel(seq, cfg)
    assert [len(lv.counts) for lv in levels] == [5, 3, 5, 3]
    assert [lv.n_candidates for lv in levels] == [6, 50, 6, 15]  # the full joins
    floor_1 = replace(cfg, min_count=None)  # the default threshold
    levels = mine_serial(seq, floor_1) + mine_parallel(seq, floor_1)
    assert [lv.n_candidates for lv in levels] == [6, 72, 6, 21]
    assert not [c for lv in (levels[1], levels[3]) for c in lv.counts if "F" in c.episode.etypes]
    assert received == []
    deeper = replace(cfg, max_size=3, min_count=20)
    serial_levels, parallel_levels = mine_serial(seq, deeper), mine_parallel(seq, deeper)
    seeds = [c.episode for c in serial_levels[1].counts]  # serial joins inside its pass
    assert received == [seeds, generate_parallel_candidates([c.episode for c in parallel_levels[1].counts])]
    assert [serial_levels[2].n_candidates, len(received[1])] == [24, 8]
    assert len(generate_serial_candidates(seeds, windows)) == 24


class ReadTicks(tuple):
    """A tick column that records the indices read from it."""

    def __getitem__(self, i):
        self.read.add(i)
        return super().__getitem__(i)


def test_passes_read_only_the_events_of_their_candidates_types():
    # size-3 candidates over two of the stream's types: the passes count as
    # the oracles do, and read the tick of no event of another type
    rng = random.Random(2323)
    unread = 0
    for case in range(20):
        seq = label_order_stream(rng)
        ticks = ReadTicks(seq.ticks)
        stream = SimpleNamespace(labels=seq.labels, ticks=ticks, alphabet=seq.alphabet)
        cfg = random_config(rng)
        types = rng.sample(sorted(seq.alphabet), min(2, len(seq.alphabet)))
        eps = [SerialEpisode([rng.choice(types) for _ in range(3)], rng.choices(cfg.candidate_intervals, k=2))
               for _ in range(4)]
        peps = [ParallelEpisode([rng.choice(types) for _ in range(3)]) for _ in range(4)]
        for count, candidates, oracle in (
            (count_serial_constrained, eps, lambda ep: serial_oracle_count(ep, seq)),
            (count_parallel_expiry, peps, lambda ep: parallel_oracle_count(ep, seq, cfg.expiry)),
        ):
            ticks.read = set()
            assert [c.freq for c in count(candidates, stream, cfg)] == [oracle(ep) for ep in candidates]
            used = {x for ep in candidates for x in ep.etypes}
            assert ticks.read == {i for i, x in enumerate(seq.labels) if x in used}, case
            unread += len(seq) - len(ticks.read)
    assert unread > 0


def test_ties_rank_by_episode_through_the_beam():
    # repeated motifs at fixed gaps and short streams make many candidates
    # share a count: the beam cuts among ties, and only episode order can
    # pick the seeds
    rng = random.Random(2222)
    cut_among_ties = 0
    for case in range(32):
        motif = [fresh(rng.choice(LABELS[:4])) for _ in range(rng.randint(2, 4))]
        events = [Event(x, 2 * (k * len(motif) + j)) for k in range(rng.randint(1, 4))
                  for j, x in enumerate(motif)]
        seq = EventSequence(events, alphabet=set(LABELS[:4]))
        cfg = MiningConfig(
            max_size=3, candidate_intervals=(Interval(0, 2), Interval(2, 5)), expiry=rng.randint(1, 4),
            beam_width=rng.randint(2, 5), track_occurrences=case % 2 == 1,
        )
        for kind, mine in (("serial", mine_serial), ("parallel", mine_parallel)):
            levels = mine(seq, cfg)
            assert plain(levels) == reference_levels(seq, cfg, kind), (kind, cfg)
            for lv in levels[:-1]:
                counts, k = lv.counts, cfg.beam_width
                cut_among_ties += len(counts) > k and counts[k - 1].freq == counts[k].freq
    assert cut_among_ties >= 10


def test_mining_leaves_no_cyclic_garbage():
    # mine_levels pauses the cyclic collector, which is sound only because
    # mining makes no reference cycles: with the collector off, a
    # collection after each call finds nothing unreachable
    rng = random.Random(5151)
    cases = [(label_order_stream(rng), replace(deep_config(rng), track_occurrences=track))
             for track in (False, True) for _ in range(12)]
    deepest = 0
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for seq, cfg in cases:
            for mine in (mine_serial, mine_parallel, mine_synfire):
                gc.collect()
                result = mine(seq, cfg)
                assert gc.collect() == 0, (mine.__name__, cfg)
            # the trie passes run: synfire's serial phase reaches size 4
            deepest = max([deepest] + [lv.size for lv in result.serial_levels if lv.counts])
    finally:
        if was_enabled:
            gc.enable()
    assert deepest >= 4


def test_mining_restores_the_collector_on_return_and_raise(monkeypatch):
    # a level counts with the collector off; afterwards it is as the
    # caller had it, also when a counter raises
    seq = EventSequence([Event(x, 10 * k + j) for k in range(5) for j, x in enumerate("ABC")])
    cfg = MiningConfig(max_size=3, candidate_intervals=(Interval(0, 2),), expiry=2)
    seen = []
    count = serial._count
    monkeypatch.setattr(serial, "_count", lambda *args: seen.append(gc.isenabled()) or count(*args))
    was_enabled = gc.isenabled()
    try:
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            for mine in (mine_serial, mine_parallel, mine_synfire):
                mine(seq, cfg)
                assert gc.isenabled() == enabled, mine.__name__

        def failing(*args):
            seen.append(gc.isenabled())
            raise RuntimeError("counter failed")

        monkeypatch.setattr(serial, "_count", failing)
        gc.enable()
        with pytest.raises(RuntimeError, match="counter failed"):
            mine_serial(seq, cfg)
        assert gc.isenabled()
    finally:
        (gc.enable if was_enabled else gc.disable)()
    assert len(seen) >= 3 and not any(seen)  # serial level 3 counted in each run
