import itertools
import random
import string
from collections import deque
from dataclasses import replace

import pytest

from oracles import (
    coded_stream,
    dense_stream,
    parallel_oracle_occurrences,
    random_sequence,
    reference_levels,
    random_serial_episode,
    serial_oracle_count,
    serial_oracle_occurrences,
)
from spikemine import (
    Event,
    EventSequence,
    Interval,
    MiningConfig,
    ParallelEpisode,
    SerialEpisode,
    bootstrap_serial,
    count_parallel_expiry,
    count_serial_constrained,
    generate_serial_candidates,
    mine_serial,
)
from spikemine import serial
from spikemine.episodes import count_pairs, counted


TRACK = MiningConfig(track_occurrences=True)


def test_worked_example_count_and_occurrence(worked_sequence, worked_episode):
    (res,) = count_serial_constrained([worked_episode], worked_sequence, TRACK)
    assert res.freq == 1
    (occ,) = res.occurrences
    picked = [(worked_sequence[i].etype, worked_sequence[i].time) for i in occ]
    assert picked == [("A", 2), ("B", 4), ("C", 13), ("D", 17)]


def test_empty_sequence(worked_episode):
    (res,) = count_serial_constrained([worked_episode], EventSequence([]))
    assert res.freq == 0


def test_empty_candidate_set(worked_sequence):
    assert count_serial_constrained([], worked_sequence) == []


def test_untracked_result_refuses_occurrences(worked_sequence, worked_episode):
    (res,) = count_serial_constrained([worked_episode], worked_sequence)
    assert res.occurrences is None


def test_zero_count_episode_tracks_empty(worked_sequence):
    # "D" then "A" never occurs; "Z" and "0" are outside the alphabet, "0" sorting first
    w = (Interval(0, 2),)
    serial_absent = [SerialEpisode(("D", "A"), w), SerialEpisode(("Z",)),
                     SerialEpisode(("Z", "A"), w), SerialEpisode(("A", "Z"), w),
                     SerialEpisode(("0", "0"), w)]
    serial_present = SerialEpisode(("A", "B"), (Interval(0, 3),))
    parallel_absent = [ParallelEpisode(p) for p in (("Z",), ("A", "Z"), ("Z", "Z"), ("0", "B"))]
    parallel_present = ParallelEpisode(("A", "B"))
    pcfg = MiningConfig(expiry=3, track_occurrences=True)
    *zeros, res = count_serial_constrained(serial_absent + [serial_present], worked_sequence, TRACK)
    assert [(z.freq, z.occurrences) for z in zeros] == [(0, ())] * len(zeros)
    assert res.occurrences == serial_oracle_occurrences(serial_present, worked_sequence)

    *zeros, res = count_parallel_expiry(parallel_absent + [parallel_present], worked_sequence, pcfg)
    assert [(z.freq, z.occurrences) for z in zeros] == [(0, ())] * len(zeros)
    assert res.occurrences == parallel_oracle_occurrences(parallel_present, worked_sequence, 3)
    assert res.freq > 0


def test_single_node_counts_every_event(worked_sequence):
    (res,) = count_serial_constrained([SerialEpisode(("A",))], worked_sequence, TRACK)
    assert res.freq == 3
    assert res.occurrences == ((0,), (1,), (3,))


def test_repeated_type_chain():
    # one event must not advance two adjacent nodes
    seq = EventSequence([Event("A", t) for t in (0, 2, 4, 6)])
    ep = SerialEpisode(("A", "A"), (Interval(0, 3),))
    (res,) = count_serial_constrained([ep], seq, TRACK)
    assert res.freq == 2
    assert res.occurrences == ((0, 1), (2, 3))


def test_simultaneous_events_never_chain():
    seq = EventSequence([Event("A", 5), Event("B", 5)])
    ep = SerialEpisode(("A", "B"), (Interval(0, 10),))
    (res,) = count_serial_constrained([ep], seq)
    assert res.freq == 0


def test_completion_event_cannot_seed_next_occurrence():
    # B at t=4 completes; the A at the same tick arrives later in the stream
    # and may start the next occurrence, but the completing B may not.
    seq = EventSequence([Event("A", 1), Event("B", 4), Event("A", 4), Event("B", 6)])
    ep = SerialEpisode(("A", "B"), (Interval(0, 5),))
    (res,) = count_serial_constrained([ep], seq, TRACK)
    assert res.freq == 2
    assert res.occurrences == ((0, 1), (2, 3))


def test_tracking_picks_latest_valid_predecessor():
    seq = EventSequence([Event("A", 1), Event("A", 2), Event("B", 4)])
    ep = SerialEpisode(("A", "B"), (Interval(0, 5),))
    (res,) = count_serial_constrained([ep], seq, TRACK)
    assert res.occurrences == ((1, 2),)


@pytest.mark.parametrize("cfg", [None, TRACK])
def test_root_events_in_one_window_make_one_child_entry_each(monkeypatch, cfg):
    # every entry the pass makes is recorded. A -(w)-> B's node gets one entry
    # per B event with an A inside w, never more however many As are there,
    # and it starts at the latest of those As, its ``back`` when tracked
    made = []

    class RecordedDeque(deque):
        def append(self, entry):
            made.append(entry)
            super().append(entry)

    monkeypatch.setattr(serial, "deque", RecordedDeque)
    rng = random.Random(4141)
    bursts = 0
    for _ in range(40):
        seq = random_sequence(rng, max_events=80, max_types=2)
        low = rng.randint(0, 2)
        w = Interval(low, low + rng.randint(1, 4))
        ep = SerialEpisode(("A", "B", "A"), (w, Interval(0, 3)))
        made.clear()
        (res,) = count_serial_constrained([ep], seq, cfg)
        assert res.freq == serial_oracle_count(ep, seq)
        if cfg:
            assert res.occurrences == serial_oracle_occurrences(ep, seq)
        latest = {}  # B event -> the latest A inside w before it
        for i, ev in enumerate(seq):
            inside = [j for j in range(i) if seq[j].etype == "A" and w.low < ev.time - seq[j].time <= w.high]
            if ev.etype == "B" and inside:
                latest[i] = inside[-1]
                bursts += len(inside) > 1
        children = [entry for entry in made if entry[2] != entry[1]]  # a root entry starts at itself
        assert {entry[1]: entry[2] for entry in children} == latest
        assert len(children) == len(latest)
        for entry in children:
            assert entry[3] is None if cfg is None else entry[3][1] == entry[2]
    assert bursts > 0


def test_repeated_type_multi_window_chains_count_as_alone():
    # chains of one type over touching windows, on streams with same-tick
    # bursts: an event may sit in several windows of one entry and at
    # several nodes of one chain, yet each candidate counts as it does alone
    rng = random.Random(5151)
    windows = (Interval(0, 2), Interval(2, 4))
    for case in range(12):
        events, t = [], 0
        for _ in range(rng.randint(20, 70)):
            t += rng.choice((0, 0, 0, 1, 2, 3, 5))
            events.append(Event(rng.choice("AAB"), t))
        seq = EventSequence(events)
        eps = generate_serial_candidates(bootstrap_serial("A"), windows)
        eps += generate_serial_candidates(eps, windows)
        eps += [SerialEpisode(("A", "B", "A"), windows), SerialEpisode(("A", "A", "B"), windows[::-1])]
        rng.shuffle(eps)
        shared = check_shared_pass(eps, seq)
        for ep, res, plain in zip(eps, shared, count_serial_constrained(eps, seq)):
            assert res.occurrences == serial_oracle_occurrences(ep, seq), ep
            assert plain.freq == res.freq, ep
    assert SerialEpisode(("A", "A", "A"), windows) in eps


def oracle_sweep(cases, seed):
    rng = random.Random(seed)
    for _ in range(cases):
        seq = random_sequence(rng)
        ep = random_serial_episode(rng, seq)
        (res,) = count_serial_constrained([ep], seq, TRACK)
        expected = serial_oracle_count(ep, seq)
        assert res.freq == expected, f"{ep} on {len(seq)} events: {res.freq} != {expected}"
        yield seq, ep, res


def test_oracle_equivalence_smoke():
    for _ in oracle_sweep(150, seed=2024):
        pass


def test_tracked_occurrences_are_valid_and_nonoverlapped():
    for seq, ep, res in oracle_sweep(200, seed=77):
        last_end = -1
        for occ in res.occurrences:
            assert len(occ) == ep.size
            assert occ[0] > last_end  # strictly after the previous occurrence
            for j, idx in enumerate(occ):
                assert seq[idx].etype == ep.etypes[j]
            for j, iv in enumerate(ep.intervals):
                gap = seq[occ[j + 1]].time - seq[occ[j]].time
                assert iv.low < gap <= iv.high
            last_end = occ[-1]
        assert res.occurrences == serial_oracle_occurrences(ep, seq), f"{ep} on {len(seq)} events"


def check_shared_pass(eps, seq):
    """Counted in one pass, each candidate counts exactly what it counts
    alone, which is the oracle count; returns the shared results."""
    shared = count_serial_constrained(eps, seq, TRACK)
    for ep, res in zip(eps, shared):
        assert res.episode == ep
        assert res == count_serial_constrained([ep], seq, TRACK)[0]
        assert res.freq == serial_oracle_count(ep, seq), f"{ep} among {len(eps)}"
    return shared


def test_shared_pass_matches_solo_counts_and_oracle():
    rng = random.Random(321)
    for _ in range(120):
        seq = random_sequence(rng, max_events=120)
        eps = [random_serial_episode(rng, seq) for _ in range(rng.randint(2, 10))]
        eps += rng.choices(eps, k=rng.randint(0, 2))
        rng.shuffle(eps)
        check_shared_pass(eps, seq)


def test_heavily_shared_prefixes_match_solo_counts_and_oracle():
    # full joins share every prefix; shorter candidates are prefixes of
    # longer ones, some candidates repeat, and windows touch with low > 0
    rng = random.Random(6060)
    for case in range(8):
        seq = random_sequence(rng, max_events=80, max_types=2)
        windows = random_windows(rng, first_low=1)
        level = bootstrap_serial("AB")
        eps = []
        for _ in range(3):
            level = generate_serial_candidates(level, windows)
            eps += level
        eps += rng.choices(eps, k=20)
        rng.shuffle(eps)
        shared = check_shared_pass(eps, seq)
        if case < 2:
            assert count_serial_constrained(eps, seq, TRACK, jobs=2) == shared


def test_child_count_never_exceeds_parent():
    rng = random.Random(99)
    for _ in range(150):
        seq = random_sequence(rng, max_events=120)
        child = random_serial_episode(rng, seq, min_nodes=3, max_nodes=4)
        parent = SerialEpisode(child.etypes[:-1], child.intervals[:-1])
        suffix = SerialEpisode(child.etypes[1:], child.intervals[1:])
        counts = count_serial_constrained([child, parent, suffix], seq)
        assert counts[0].freq <= counts[1].freq
        assert counts[0].freq <= counts[2].freq


def test_memory_stays_near_window_population(peak_live_entries):
    # dense streams, so stale entries get pruned promptly: the retained
    # entries stay within the population of the episode's maximum span
    # window (one entry per node an event can sit in). Without C events
    # the A->B list extends nothing, and only the scans' pruning bounds it.
    ep = SerialEpisode(("A", "B", "C"), (Interval(0, 4), Interval(0, 4)))
    span = sum(iv.high for iv in ep.intervals)
    for types in ("ABC", "AB"):
        seq = dense_stream(random.Random(5), types, "ABC")
        times = [e.time for e in seq]
        window_max = 0
        for i in range(len(times)):
            j = i
            while j < len(times) and times[j] - times[i] <= span:
                j += 1
            window_max = max(window_max, j - i)
        peak = peak_live_entries(count_serial_constrained, [ep], seq)
        assert peak <= ep.size * window_max, types


def test_shared_prefix_holds_no_extra_entries(peak_live_entries):
    # 26 candidates that differ only in their last type share both time lists
    w = Interval(0, 4)
    seq = dense_stream(random.Random(17), "ABC", string.ascii_uppercase)
    fan = [SerialEpisode(("A", "B", x), (w, w)) for x in string.ascii_uppercase]
    one = SerialEpisode(("A", "B", "C"), (w, w))
    peak_fan = peak_live_entries(count_serial_constrained, fan, seq)
    assert peak_fan <= peak_live_entries(count_serial_constrained, [one], seq)


def test_trie_builds_no_node_for_a_last_step(monkeypatch):
    # a node per root and per proper prefix of a longer candidate: the step
    # a candidate ends at holds its slot but no node, and no time list
    import spikemine.serial as serial

    built = 0

    class CountedNode(serial._Node):
        __slots__ = ()

        def __init__(self):
            nonlocal built
            built += 1
            super().__init__()

    monkeypatch.setattr(serial, "_Node", CountedNode)

    def nodes_for(eps):
        roots = {ep.etypes[0] for ep in eps if ep.size > 1}
        inner = {(ep.etypes[:k], ep.intervals[: k - 1]) for ep in eps for k in range(2, ep.size)}
        return len(roots) + len(inner)

    rng = random.Random(2222)
    for case in range(6):
        seq = random_sequence(rng, max_events=60, max_types=3)
        windows = random_windows(rng)
        level1 = bootstrap_serial("ABC")
        level2 = generate_serial_candidates(level1, windows)
        level3 = generate_serial_candidates(rng.sample(level2, len(level2) // 2), windows)
        built = 0
        counts = count_serial_constrained(level3, seq)
        assert built == nodes_for(level3) < len(level3)
        for ep, res in zip(level3[:20], counts):
            assert res.freq == serial_oracle_count(ep, seq), ep
        # 1-, 2- and 3-node candidates that share prefixes, with repeats
        eps = rng.sample(level1, 2) + rng.sample(level2, 6) + rng.sample(level3, min(len(level3), 10))
        eps += rng.choices(eps, k=5)
        rng.shuffle(eps)
        built = 0
        shared = count_serial_constrained(eps, seq, TRACK)
        assert built == nodes_for(eps), case
        assert check_shared_pass(eps, seq) == shared


def test_mine_serial_levels():
    # crafted stream: A->B->C every 10 ticks with gap 2 within the triple
    events = []
    for k in range(50):
        base = k * 10
        events.extend([Event("A", base), Event("B", base + 2), Event("C", base + 4)])
    seq = EventSequence(events)
    cfg = MiningConfig(
        freq_threshold=0.2, max_size=4, candidate_intervals=(Interval(0, 3),)
    )
    levels = mine_serial(seq, cfg)
    assert [lvl.size for lvl in levels] == [1, 2, 3]
    top = {c.episode for c in levels[-1].counts}
    assert top == {SerialEpisode(("A", "B", "C"), (Interval(0, 3), Interval(0, 3)))}
    assert levels[1].n_candidates == 3 * 3  # alphabet^2 x 1 interval
    assert {c.episode.etypes for c in levels[1].counts} == {("A", "B"), ("B", "C")}


def test_mine_serial_threshold_one():
    events = [Event("A", t) for t in range(0, 20, 2)]
    seq = EventSequence(events)
    cfg = MiningConfig(freq_threshold=1.0, max_size=3, candidate_intervals=(Interval(0, 2),))
    levels = mine_serial(seq, cfg)
    # only the single type fills every position; A->A halves, so level 2 dies
    assert len(levels[0].counts) == 1
    assert len(levels) == 2 and not levels[1].counts


def test_mine_serial_requires_intervals(worked_sequence):
    with pytest.raises(ValueError):
        mine_serial(worked_sequence, MiningConfig())


def random_windows(rng, first_low=0):
    """2-4 disjoint sorted windows, some of them touching."""
    windows = []
    low = rng.randint(first_low, 2)
    for _ in range(rng.randint(2, 4)):
        high = low + rng.randint(1, 3)
        windows.append(Interval(low, high))
        low = high + rng.randint(0, 2)
    return tuple(windows)


def full_count_levels(seq, cfg):
    """The level loop of mine_serial with every join candidate counted exactly."""
    floor = cfg.count_floor(len(seq))
    levels = []
    candidates = bootstrap_serial(seq.alphabet)
    size = 1
    while candidates and size <= cfg.max_size:
        counts = count_serial_constrained(candidates, seq, cfg)
        frequent = sorted((c for c in counts if c.freq >= floor), key=lambda c: (-c.freq, c.episode))
        levels.append((size, len(candidates), tuple(frequent)))
        if not frequent or size == cfg.max_size:
            break
        seeds = frequent[: cfg.beam_width] if cfg.beam_width else frequent
        candidates = generate_serial_candidates([c.episode for c in seeds], cfg.candidate_intervals)
        size += 1
    return levels


def level_tuples(levels):
    return [(lv.size, lv.n_candidates, lv.counts) for lv in levels]


def test_exact_level_2_keeps_levels_of_full_count():
    rng = random.Random(4242)
    absent = 0
    for _ in range(60):
        seq = random_sequence(rng, max_events=150)
        cfg = MiningConfig(
            max_size=3,
            candidate_intervals=random_windows(rng),
            min_count=rng.randint(1, 8),
            track_occurrences=rng.random() < 0.5,
            beam_width=rng.choice((None, 3)),
        )
        levels = mine_serial(seq, cfg)
        assert level_tuples(levels) == full_count_levels(seq, cfg)
        for level in levels:
            for count in level.counts[:3]:
                assert count.freq == serial_oracle_count(count.episode, seq)
        if len(levels) > 1:
            seeds = [c.episode for c in levels[0].counts]
            pairs = generate_serial_candidates(seeds, cfg.candidate_intervals)
            found, _ = pair_sweep(seq, cfg.candidate_intervals, seeds)
            absent += len(pairs) - len(found)
    assert absent > 0  # the sweep leaves out candidates that never occur


def pair_sweep(seq, windows, seeds, track=True, floor=1):
    """The level-2 sweep of ``mine_serial`` from the size-1 ``seeds``: the pairs
    counted ``floor`` times or more, and their results. It checks that the
    sweep reports the size of the seeds' join and grows no other pair."""
    found, n_candidates = count_pairs(seq, seeds, track, floor, windows)
    counts = counted(found, track)
    pairs = generate_serial_candidates(seeds, windows)
    assert n_candidates == len(pairs) and {c.episode for c in counts} <= set(pairs)
    return [c.episode for c in counts], [c[1:] if track else c.freq for c in counts]


def test_pair_sweep_equals_the_oracles_under_every_window():
    # equal ticks, low = 0, gaps between windows, and repeated types
    rng = random.Random(808)
    lows = set()
    for _ in range(80):
        seq = random_sequence(rng, max_events=100, max_types=4)
        if not seq.alphabet:
            continue
        windows = random_windows(rng, first_low=rng.choice((0, 0, 1)))
        lows.add(windows[0].low)
        # the seeds' types only, as a beam may leave some out
        seeds = rng.sample(bootstrap_serial(seq.alphabet), rng.randint(1, len(seq.alphabet)))
        pairs = generate_serial_candidates(seeds, windows)
        found, results = pair_sweep(seq, windows, seeds)
        swept = dict(zip(found, results))
        for ep in pairs:
            freq, occurrences = swept.get(ep, (0, ()))
            assert freq == serial_oracle_count(ep, seq), ep
            assert occurrences == serial_oracle_occurrences(ep, seq), ep
        found, counts = pair_sweep(seq, windows, seeds, track=False)
        assert dict(zip(found, counts)) == {ep: freq for ep, (freq, _) in swept.items()}
        assert 0 not in counts
        for floor in (2, 4):
            found, _ = pair_sweep(seq, windows, seeds, floor=floor)
            assert found == [ep for ep in pairs if swept.get(ep, (0,))[0] >= floor]
    assert 0 in lows


def test_pair_sweep_codes_types_in_label_order():
    # 8-30 types coded in label order, not by first appearance, alphabet
    # labels that no event carries, and seeds a strict subset of the types;
    # a few types over many events keep flat counters, many over few dicts
    rng = random.Random(909)
    layouts = set()
    for _ in range(24):
        n_types = rng.randint(8, 30)
        seq = coded_stream(rng, n_types, max_events=4000 // n_types)
        windows = random_windows(rng, first_low=rng.choice((0, 1)))
        layouts.add(len(seq.alphabet) ** 2 * len(windows) <= 4 * len(seq))
        ones = bootstrap_serial(seq.alphabet)
        seeds = rng.sample(ones, rng.randint(len(ones) // 2, len(ones) - 1))
        seeded = {ep.etypes[0] for ep in seeds}
        occurring = {
            SerialEpisode((seq.labels[i], seq.labels[j]), (w,))
            for j in range(len(seq)) for i in range(j)
            for w in windows if w.low < seq.ticks[j] - seq.ticks[i] <= w.high
        }
        found, results = pair_sweep(seq, windows, seeds)
        assert found == sorted(ep for ep in occurring if set(ep.etypes) <= seeded)
        for ep, (freq, occurrences) in zip(found, results):
            assert occurrences == serial_oracle_occurrences(ep, seq) and freq == len(occurrences), ep
        assert pair_sweep(seq, windows, seeds, track=False)[1] == [freq for freq, _ in results]
        for floor in (2, 4):
            kept = [(ep, r) for ep, r in zip(found, results) if r[0] >= floor]
            assert list(zip(*pair_sweep(seq, windows, seeds, floor=floor))) == kept
    assert layouts == {True, False}


def random_seeds(rng, seq, windows, size):
    """1-30 distinct serial episodes of ``size`` 2 or 3 over ``seq``'s types,
    in no sorted order, as a level's best episodes come ranked by count."""
    pool = generate_serial_candidates(bootstrap_serial(seq.alphabet), windows)
    if size == 3:
        pool = generate_serial_candidates(rng.sample(pool, max(1, len(pool) // 3)), windows) or pool
    return rng.sample(pool, rng.randint(1, min(len(pool), 30)))


def test_seed_pass_equals_the_counted_join():
    # a level from its seeds: the join's size, and the join's candidates
    # counted floor times or more, tracked or not; some seeds have no extension
    rng = random.Random(6161)
    no_extension = empty_join = 0
    for case in range(60):
        seq = random_sequence(rng, max_events=120, max_types=4)
        if not seq.alphabet:
            continue
        windows = random_windows(rng)
        seeds = random_seeds(rng, seq, windows, size=2 + case % 2)
        join = generate_serial_candidates(seeds, windows)
        floor, track = rng.randint(1, 3), rng.random() < 0.5
        found, n_candidates = serial._count(seeds, seq, track, floor, {}, 5)  # may count ahead
        assert n_candidates == len(join), seeds
        want = [c for c in count_serial_constrained(join, seq, TRACK if track else None) if c.freq >= floor]
        assert counted(found, track) == want
        for count in want[:5]:
            assert count.freq == serial_oracle_count(count.episode, seq)
        prefixes = {(ep.etypes[:-1], ep.intervals[:-1]) for ep in seeds}
        no_extension += sum((ep.etypes[1:], ep.intervals[1:]) not in prefixes for ep in seeds)
        empty_join += not join
    assert no_extension > 0 and empty_join > 0


def test_seed_levels_equal_reference_levels():
    # few types, so episodes repeat types; several windows, floors 1-3,
    # beams, tracked and untracked, to size 4
    rng = random.Random(7171)
    deepest = 0
    for case in range(36):
        seq = random_sequence(rng, max_events=80, max_types=3)
        cfg = MiningConfig(
            max_size=4, candidate_intervals=random_windows(rng), min_count=1 + case % 3,
            beam_width=rng.choice((None, 2, 6)), track_occurrences=case % 2 == 1,
        )
        levels = mine_serial(seq, cfg)
        assert level_tuples(levels) == reference_levels(seq, cfg, "serial"), cfg
        deepest = max([deepest] + [lv.size for lv in levels if lv.counts])
    assert deepest == 4


def test_seed_pass_makes_a_slot_only_for_an_extension_that_occurs(monkeypatch):
    # every slot the pass makes is recorded: one per extension that occurs,
    # none for the others
    made = []

    class RecordedSlots(list):
        def __setitem__(self, i, value):
            made.append(value)
            super().__setitem__(i, value)

    class RecordedNode(serial._Node):
        __slots__ = ()

        def __setattr__(self, name, value):
            super().__setattr__(name, RecordedSlots(value) if name == "slots" else value)

    monkeypatch.setattr(serial, "_Node", RecordedNode)
    rng = random.Random(8181)
    never = 0
    for case in range(30):
        seq = random_sequence(rng, max_events=100, max_types=4)
        if not seq.alphabet:
            continue
        windows = random_windows(rng)
        seeds = random_seeds(rng, seq, windows, size=2 + case % 2)
        join = generate_serial_candidates(seeds, windows)
        occurs = [ep for ep in join if serial_oracle_count(ep, seq)]
        made.clear()
        found, _ = serial._count(seeds, seq, rng.random() < 0.5, 1, {}, 0)  # counts no level ahead
        assert len(made) == len(occurs) and [ep for ep, _ in found] == occurs
        never += len(join) - len(occurs)
    assert never > 0


def embedded_chains(rng, windows):
    """2-3 chains of 4-6 types over A-H, each embedded 8-14 times in all,
    with sparse noise; the alphabet adds silent channels, so the joins of
    the deep levels are narrow."""
    types = "ABCDEFGH"
    chains = []
    for _ in range(rng.randint(2, 3)):
        chain = [rng.choice(types) for _ in range(rng.randint(4, 6))]
        chains.append((chain, [rng.choice(windows) for _ in chain[1:]]))
    t, events = 0, []
    for _ in range(rng.randint(8, 14)):
        chain, gaps = rng.choice(chains)
        t += rng.randint(10, 20)
        events.append(Event(chain[0], t))
        for x, (low, high) in zip(chain[1:], gaps):
            t += rng.randint(low + 1, high)
            events.append(Event(x, t))
        if rng.random() < 0.5:
            events.append(Event(rng.choice(types), t + rng.randint(1, 9)))
    return EventSequence(events, alphabet=set(types) | {f"S{k}" for k in range(12)})


def layered_chain(layers, reps=2):
    """A chain through ``layers``, each a string of the types it may take,
    each gap 5 or 7 ticks: every mix of types and gaps embedded ``reps``
    times, far apart. Under the windows (4,6] and (6,8] a pair of layers two
    apart never fits a window, so level 2 holds the steps between
    neighbouring layers, and with one type a layer each later level has
    twice as many chains per start as the one before."""
    events, t = [], 0
    for _ in range(reps):
        for types in itertools.product(*layers):
            for mix in itertools.product((5, 7), repeat=len(layers) - 1):
                t += 20
                events.append(Event(types[0], t))
                for x, gap in zip(types[1:], mix):
                    t += gap
                    events.append(Event(x, t))
    return EventSequence(events, alphabet=set("".join(layers)) | {f"S{k}" for k in range(12)})


LAYER_WINDOWS = (Interval(4, 6), Interval(6, 8))


class PassRecorder:
    """Records each ``serial._scan`` call and the sizes ``serial._slots`` counts."""

    def __init__(self, monkeypatch):
        self.scans, self.sizes = 0, []
        scan, slots = serial._scan, serial._slots

        def counting_scan(*args):
            self.scans += 1
            return scan(*args)

        def sizing_slots(candidates, *args):
            self.sizes.append(sorted({len(types) for types, _ in candidates}))
            return slots(candidates, *args)

        monkeypatch.setattr(serial, "_scan", counting_scan)
        monkeypatch.setattr(serial, "_slots", sizing_slots)

    def mine(self, seq, cfg):
        self.scans, self.sizes = 0, []
        return mine_serial(seq, cfg)


@pytest.mark.parametrize("track", [False, True], ids=["untracked", "tracked"])
def test_counting_ahead_equals_reference_levels(monkeypatch, track):
    # narrow levels count their successors in one pass; each level still
    # reports its own join's size and only the counts of its own join
    passes = PassRecorder(monkeypatch)
    rng = random.Random(3434 + track)
    windows = (Interval(0, 2), Interval(2, 4), Interval(4, 7))
    ahead = stopped = 0
    for case in range(40):
        seq = embedded_chains(rng, windows)
        cfg = MiningConfig(max_size=rng.choice((4, 5, 8)), candidate_intervals=windows, min_count=rng.randint(2, 4),
                           beam_width=rng.choice((None, 2, 3, 4)), track_occurrences=track)
        levels = passes.mine(seq, cfg)
        assert level_tuples(levels) == reference_levels(seq, cfg, "serial"), case
        assert all(sizes[-1] <= cfg.max_size for sizes in passes.sizes)
        ahead += passes.scans < len(levels[2:])
        stopped += any(sizes[-1] == cfg.max_size for sizes in passes.sizes)
    assert ahead >= 5 and stopped >= 2


@pytest.mark.parametrize("track", [False, True], ids=["untracked", "tracked"])
def test_a_beam_that_cuts_seeds_leaves_the_speculative_extra_out(monkeypatch, track):
    # two gaps per step: level 3 has 8 frequent chains, each counted twice,
    # and 8 at level 4 counted once. The pass at level 3 counts all 16. A
    # beam of 6 keeps the 6 level-2 steps but cuts 2 level-3 seeds, so the
    # real level-4 join is 4 of the 8 counted ahead, the other 4 as frequent
    passes = PassRecorder(monkeypatch)
    seq = layered_chain("ABCD")
    for beam, join_4 in ((6, 4), (None, 8)):
        cfg = MiningConfig(max_size=8, candidate_intervals=LAYER_WINDOWS, min_count=2,
                           beam_width=beam, track_occurrences=track)
        levels = passes.mine(seq, cfg)
        assert level_tuples(levels) == reference_levels(seq, cfg, "serial")
        assert [(lv.n_candidates, len(lv.counts)) for lv in levels] == [(16, 4), (32, 6), (8, 8), (join_4, join_4)]
        assert (passes.scans, passes.sizes) == (1, [[3, 4]])
    # with a fifth layer, level 4's speculative join (16 chains) is wider
    # than level 3's join (12), so level 3 counts alone; level 4 counts
    # level 5 (16) in its own pass
    seq = layered_chain("ABCDE")
    levels = passes.mine(seq, cfg)
    assert level_tuples(levels) == reference_levels(seq, cfg, "serial")
    assert [lv.n_candidates for lv in levels[2:]] == [12, 16, 16]
    assert (passes.scans, passes.sizes) == (2, [[4, 5]])


def test_a_narrow_chain_runs_one_pass_a_dense_stream_one_per_level(monkeypatch):
    passes = PassRecorder(monkeypatch)
    chain = SerialEpisode("ABCDEFG", [(2, 4)] * 6)
    seq = EventSequence([Event(x, 40 * k + 3 * j) for k in range(12) for j, x in enumerate(chain.etypes)]
                        + [Event("H", 40 * k + 30) for k in range(12)])
    cfg = MiningConfig(max_size=8, candidate_intervals=((0, 2), (2, 4)), min_count=5)
    levels = passes.mine(seq, cfg)
    assert [lv.counts[0].episode for lv in levels[6:]] == [chain]
    assert [lv.n_candidates for lv in levels[2:]] == [5, 4, 3, 2, 1]
    assert (passes.scans, passes.sizes) == (1, [[3, 4, 5, 6, 7]])  # levels 3..7 in one pass
    for max_size in (3, 4, 6):  # the pass stops at max_size
        short = passes.mine(seq, replace(cfg, max_size=max_size))
        assert level_tuples(short) == level_tuples(levels[:max_size])
        assert (passes.scans, passes.sizes) == (1, [list(range(3, max_size + 1))] if max_size > 3 else [])
    # 8 of 14 seeds extend at level 3, under the 18 types, but the join (24)
    # is wider than the alphabet, so level 4 (24) runs a pass of its own
    fan = layered_chain(("A", "B", "CEF", "D"))
    cfg = MiningConfig(max_size=8, candidate_intervals=LAYER_WINDOWS, min_count=2)
    levels = passes.mine(fan, cfg)
    assert [(lv.n_candidates, len(lv.counts)) for lv in levels] == [(18, 6), (72, 14), (24, 24), (24, 24)]
    assert (passes.scans, passes.sizes) == (2, [])
    assert level_tuples(levels) == reference_levels(fan, cfg, "serial")
    rng = random.Random(99)
    dense = random_sequence(rng, max_events=200, max_types=4)
    cfg = MiningConfig(max_size=5, candidate_intervals=((0, 2), (2, 4)), min_count=1)
    levels = passes.mine(dense, cfg)
    assert len(levels) == 5 and all(lv.n_candidates > len(dense.alphabet) for lv in levels[2:])
    assert (passes.scans, passes.sizes) == (3, [])  # levels 3, 4 and 5, each in its own pass
    assert level_tuples(levels) == reference_levels(dense, cfg, "serial")


def churn_windows(rng):
    """1-3 disjoint sorted windows with low >= 0, often touching."""
    windows = []
    low = rng.randint(0, 2)
    for _ in range(rng.randint(1, 3)):
        high = low + rng.randint(1, 3)
        windows.append(Interval(low, high))
        low = high + rng.choice((0, 0, 1))
    return tuple(windows)


def churn_stream(rng, types):
    """A sparse stream over ``types``: same-tick events, short gaps, and gaps
    beyond every window, so each list empties and refills many times. A
    last event of type ``z`` comes later than any window reaches."""
    events = []
    t = 0
    for _ in range(rng.randint(60, 120)):
        t += rng.choice((0, 0, 1, 2, 4, 7, 12, 20))
        events.append(Event(rng.choice(types), t))
    events.append(Event("z", t + 100))
    return EventSequence(events)


def test_churn_regime_matches_solo_counts_and_oracles(monkeypatch):
    # wide alphabets, so every root has many child types and goes live and
    # empty many times. Every pass also counts A -(0,1]-> z, so it reads the
    # late last event, whose visit must prune every list: no window reaches
    # back to any entry, so every list must be empty again.
    import spikemine.serial as serial

    lists = []

    class RecordedDeque(deque):
        def __init__(self):
            super().__init__()
            lists.append(self)

    monkeypatch.setattr(serial, "deque", RecordedDeque)

    def one_pass(eps, seq):
        late_pair = SerialEpisode(("A", "z"), ((0, 1),))
        *results, late = count_serial_constrained(eps + [late_pair], seq, TRACK)
        assert late.freq == 0
        assert lists and not any(lists), "entries outlived every window"
        lists.clear()
        return results

    rng = random.Random(1010)
    for _ in range(10):
        types = string.ascii_uppercase[: rng.randint(10, 20)]
        seq = churn_stream(rng, types)
        windows = churn_windows(rng)
        level1 = bootstrap_serial(types)
        level2 = generate_serial_candidates(level1, windows)
        seeds = [c.episode for c in one_pass(level2, seq) if c.freq]
        level3 = generate_serial_candidates(seeds, windows)
        eps = level1 + level2 + rng.sample(level3, min(len(level3), 150))
        eps += rng.choices(eps, k=30)
        rng.shuffle(eps)
        solo = [one_pass([ep], seq)[0] for ep in eps]
        for ep, res in zip(eps, solo):
            assert res.freq == serial_oracle_count(ep, seq), ep
            assert res.occurrences == serial_oracle_occurrences(ep, seq), ep
        assert one_pass(eps, seq) == solo
