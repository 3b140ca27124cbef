"""Level-wise mining and the candidate joins against the reference level
loop and joins of ``oracles``, over alphabets whose sorted order differs
from any other plausible one (numeric suffixes, lower case, composite
labels)."""

import random
from dataclasses import replace

from oracles import (
    parallel_join_oracle,
    reference_levels,
    reference_synfire,
    serial_join_oracle,
)
from spikemine import (
    Event,
    EventSequence,
    Interval,
    MiningConfig,
    ParallelEpisode,
    SerialEpisode,
    bootstrap_serial,
    generate_parallel_candidates,
    generate_serial_candidates,
    mine_parallel,
    mine_serial,
    mine_synfire,
    parallel,
    serial,
)

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


def brute_pair_bound(seq, a, b, low, high):
    """The events of ``b`` with an earlier event of ``a`` at a tick in ``[t - high, t - low)``."""
    events = list(zip(seq.labels, seq.ticks))
    return sum(
        y == b and any(x == a and t - high <= u < t - low for x, u in events[:j])
        for j, (y, t) in enumerate(events)
    )


def test_level_2_counts_only_the_pairs_whose_bound_reaches_the_floor(monkeypatch):
    # a bound that is only too wide keeps every result exact, so only the
    # candidates the exact counters receive can show it
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

    def parallel_bound(a, b):
        n = brute_pair_bound(seq, a, b, -1, 2)
        return n if a == b else n + brute_pair_bound(seq, b, a, -1, 2)

    def survivors(types, floor):
        return [
            [ep for ep in generate_serial_candidates(bootstrap_serial(types), windows)
             if brute_pair_bound(seq, *ep.etypes, 1, 4) >= floor],
            [ep for ep in generate_parallel_candidates([ParallelEpisode((x,)) for x in types])
             if parallel_bound(*ep.etypes) >= floor],
        ]

    levels = mine_serial(seq, cfg) + mine_parallel(seq, cfg)
    assert [len(lv.counts) for lv in levels] == [5, 3, 5, 3]
    assert received == survivors("ABCDE", 30)  # level 1 runs no counting pass
    assert [len(eps) for eps in received] == [14, 7]  # of 50 and 15
    received.clear()
    for mine in (mine_serial, mine_parallel):  # the default threshold: a floor of 1
        mine(seq, replace(cfg, min_count=None))
    assert received == survivors("ABCDEF", 1)
    assert [len(eps) for eps in received] == [50, 15]  # of 72 and 21: no pair with F


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
