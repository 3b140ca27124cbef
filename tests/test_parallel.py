import random
import string
from collections import deque

import pytest

from oracles import (
    dense_stream,
    parallel_oracle_count,
    parallel_oracle_occurrences,
    random_parallel_episode,
    random_sequence,
)
from spikemine import (
    Event,
    EventSequence,
    Interval,
    MiningConfig,
    ParallelEpisode,
    count_parallel_expiry,
    generate_parallel_candidates,
    mine_parallel,
)
from spikemine import parallel
from spikemine.episodes import count_pairs, counted


def cfg_for(expiry, track=False):
    return MiningConfig(expiry=expiry, track_occurrences=track)


@pytest.fixture
def trio():
    return EventSequence([Event("B", 3), Event("C", 6), Event("A", 12)])


def test_span_within_expiry_counts(trio):
    (res,) = count_parallel_expiry([ParallelEpisode(("A", "B", "C"))], trio, cfg_for(10, track=True))
    assert res.freq == 1
    assert res.occurrences == ((0, 1, 2),)


def test_span_beyond_expiry_rejected(trio):
    (res,) = count_parallel_expiry([ParallelEpisode(("A", "B", "C"))], trio, cfg_for(5))
    assert res.freq == 0


def test_expiry_is_inclusive():
    seq = EventSequence([Event("A", 0), Event("B", 7)])
    (res,) = count_parallel_expiry([ParallelEpisode(("A", "B"))], seq, cfg_for(7))
    assert res.freq == 1


def test_expiry_must_be_positive(trio):
    with pytest.raises(ValueError):
        count_parallel_expiry([ParallelEpisode(("A",))], trio, cfg_for(0))


def test_single_node_frequency_is_event_count():
    seq = EventSequence([Event("A", t) for t in (0, 0, 1, 5)] + [Event("B", 2)])
    (res,) = count_parallel_expiry([ParallelEpisode(("A",))], seq, cfg_for(1))
    assert res.freq == 4


def test_duplicate_types_need_distinct_events():
    seq = EventSequence([Event("A", 0), Event("A", 1), Event("B", 1)])
    (aa,) = count_parallel_expiry([ParallelEpisode(("A", "A"))], seq, cfg_for(5, track=True))
    assert aa.freq == 1 and aa.occurrences == ((0, 1),)
    (aab,) = count_parallel_expiry([ParallelEpisode(("A", "A", "B"))], seq, cfg_for(5))
    assert aab.freq == 1


def test_earliest_events_consumed_on_completion():
    # two As are pending when B arrives; the reported tuple takes the earliest
    seq = EventSequence([Event("A", 0), Event("A", 1), Event("B", 1)])
    (res,) = count_parallel_expiry([ParallelEpisode(("A", "B"))], seq, cfg_for(3, track=True))
    assert res.freq == 1
    assert res.occurrences == ((0, 2),)


def test_cleared_state_starts_next_occurrence_after_completion():
    seq = EventSequence([Event("A", 0), Event("B", 1), Event("A", 2), Event("B", 3)])
    (res,) = count_parallel_expiry([ParallelEpisode(("A", "B"))], seq, cfg_for(3, track=True))
    assert res.freq == 2
    assert res.occurrences == ((0, 1), (2, 3))


def test_oracle_equivalence_smoke():
    rng = random.Random(4242)
    for _ in range(150):
        seq = random_sequence(rng, max_events=120)
        ep = random_parallel_episode(rng, seq)
        expiry = rng.randint(1, 15)
        (res,) = count_parallel_expiry([ep], seq, cfg_for(expiry))
        expected = parallel_oracle_count(ep, seq, expiry)
        assert res.freq == expected, f"{ep} T={expiry} on {len(seq)}: {res.freq} != {expected}"


def test_tracked_occurrences_respect_span_and_nonoverlap():
    rng = random.Random(31)
    for _ in range(80):
        seq = random_sequence(rng, max_events=100)
        ep = random_parallel_episode(rng, seq)
        expiry = rng.randint(1, 12)
        (res,) = count_parallel_expiry([ep], seq, cfg_for(expiry, track=True))
        last_end = -1
        for occ in res.occurrences:
            types = sorted(seq[i].etype for i in occ)
            assert tuple(types) == ep.etypes
            times = [seq[i].time for i in occ]
            assert max(times) - min(times) <= expiry
            assert occ[0] > last_end
            last_end = occ[-1]
        assert res.occurrences == parallel_oracle_occurrences(ep, seq, expiry), f"{ep} T={expiry}"


def test_submultiset_monotonicity():
    rng = random.Random(8)
    for _ in range(100):
        seq = random_sequence(rng, max_events=100)
        big = random_parallel_episode(rng, seq, min_nodes=2, max_nodes=4)
        drop = rng.randrange(big.size)
        small = ParallelEpisode(big.etypes[:drop] + big.etypes[drop + 1 :])
        expiry = rng.randint(1, 12)
        counts = count_parallel_expiry([big, small], seq, cfg_for(expiry))
        assert counts[1].freq >= counts[0].freq


def test_listing_order_is_irrelevant():
    seq = EventSequence([Event("A", 0), Event("B", 1), Event("C", 2)] * 3)
    eps = [ParallelEpisode(p) for p in (("A", "B", "C"), ("C", "B", "A"), ("B", "A", "C"))]
    counts = count_parallel_expiry(eps, seq, cfg_for(4))
    assert len({c.freq for c in counts}) == 1
    assert len({c.episode for c in counts}) == 1  # canonical form collapses them


def test_mine_parallel_levels():
    events = []
    for k in range(40):
        base = 20 * k
        events += [Event("A", base), Event("B", base + 1), Event("Z", base + 9)]
    seq = EventSequence(events)
    cfg = MiningConfig(freq_threshold=0.25, max_size=4, expiry=2)
    levels = mine_parallel(seq, cfg)
    # (A,B,B) is pruned because (B,B) is infrequent, so level 3 never forms
    assert [lvl.size for lvl in levels] == [1, 2]
    assert {c.episode for c in levels[1].counts} == {ParallelEpisode(("A", "B"))}


def check_shared_pass(eps, seq, expiry):
    """Counted in one tracked pass, each candidate counts and reports exactly
    what it does alone, which is what the oracle does."""
    cfg = cfg_for(expiry, track=True)
    for ep, res in zip(eps, count_parallel_expiry(eps, seq, cfg)):
        assert res.episode == ep
        assert res == count_parallel_expiry([ep], seq, cfg)[0]
        assert res.freq == parallel_oracle_count(ep, seq, expiry), f"{ep} T={expiry} among {eps}"
        assert res.occurrences == parallel_oracle_occurrences(ep, seq, expiry)


def test_shared_pass_matches_solo_counts_and_oracle():
    # candidates share their types' time lists; some repeat and some are
    # sub-multisets of others, so they complete on the same events
    rng = random.Random(515)
    for _ in range(120):
        seq = random_sequence(rng, max_events=100, max_types=3)
        eps = [random_parallel_episode(rng, seq, min_nodes=1) for _ in range(rng.randint(2, 7))]
        for big in rng.sample(eps, k=rng.randint(0, 2)):
            if big.size > 1:
                drop = rng.randrange(big.size)
                eps.append(ParallelEpisode(big.etypes[:drop] + big.etypes[drop + 1 :]))
        eps += rng.choices(eps, k=rng.randint(0, 2))
        rng.shuffle(eps)
        check_shared_pass(eps, seq, rng.randint(1, 10))


def test_shared_lists_hold_no_extra_entries(peak_live_entries):
    # six candidates over {A, B} keep the same two time lists as {A B} alone
    seq = dense_stream(random.Random(23), "AB", "AB")
    six = [ParallelEpisode(tuple(p)) for p in ("A", "B", "AB", "AA", "BB", "AAB")]
    one = [ParallelEpisode(("A", "B"))]
    cfg = cfg_for(3)
    peak_six = peak_live_entries(count_parallel_expiry, six, seq, cfg)
    assert peak_six <= peak_live_entries(count_parallel_expiry, one, seq, cfg)


def test_time_list_is_pruned_at_append(peak_live_entries):
    # no A ever arrives, so no completion check reaches B's list
    seq = EventSequence([Event("B", t) for t in range(2000)], alphabet="AB")
    ab = [ParallelEpisode(("A", "B"))]
    expiry = 4
    assert peak_live_entries(count_parallel_expiry, ab, seq, cfg_for(expiry)) <= 2 * (expiry + 1)


def test_key_waits_while_its_filing_type_is_out_of_the_window():
    # (A, B, C) is filed under A at the events of B and C, and under B at
    # those of A; B and C meet within the span while A lies outside it
    seq = EventSequence([Event("A", 0), Event("B", 5), Event("C", 6), Event("B", 9), Event("C", 9)])
    abc = ParallelEpisode(("A", "B", "C"))
    (res,) = count_parallel_expiry([abc], seq, cfg_for(3, track=True))
    assert res.freq == 0 and res.occurrences == ()
    check_shared_pass([abc, ParallelEpisode(("B", "C"))], seq, 3)


def test_filing_type_before_the_cut_and_again_inside_it():
    # B's watchers of (A, B) and (A, A, B) are filed under A, whose first
    # event lies before the cut of B at 6 and whose second lies inside it
    seq = EventSequence([Event("A", 0), Event("A", 5), Event("B", 6), Event("A", 7), Event("B", 12)])
    ab, aab = ParallelEpisode(("A", "B")), ParallelEpisode(("A", "A", "B"))
    res_ab, res_aab = count_parallel_expiry([ab, aab], seq, cfg_for(3, track=True))
    assert res_ab.occurrences == ((1, 2),)
    assert res_aab.occurrences == ((1, 2, 3),)  # completes at the third A, not at B
    check_shared_pass([ab, aab], seq, 3)


def test_negative_cut_at_ticks_below_expiry():
    seq = EventSequence([Event("C", 0), Event("A", 1), Event("B", 3), Event("A", 4), Event("C", 9)])
    eps = [ParallelEpisode(p) for p in ("ABC", "AC", "AA", "C")]
    abc, ac, aa, c = count_parallel_expiry(eps, seq, cfg_for(10, track=True))
    assert abc.occurrences == ((0, 1, 2),)
    assert ac.occurrences == ((0, 1), (3, 4))
    assert aa.occurrences == ((1, 3),)
    assert c.occurrences == ((0,), (4,))
    check_shared_pass(eps, seq, 10)


def test_shared_pass_over_six_types_matches_oracle():
    # with six types most keys are filed under a type other than the event's
    rng = random.Random(1806)
    for _ in range(60):
        types = "ABCDEF"[: rng.randint(5, 6)]
        t, events = 0, []
        for _ in range(rng.randint(0, 70)):
            t += rng.choice((0, 0, 1, 1, 2, 4))
            events.append(Event(rng.choice(types), t))
        seq = EventSequence(events, alphabet=types)
        eps = [ParallelEpisode(tuple(rng.choices(types, k=rng.randint(1, 4))))
               for _ in range(rng.randint(5, 12))]
        check_shared_pass(eps, seq, rng.randint(1, 6))


def test_an_event_checks_no_key_whose_filing_type_is_out_of_the_window(monkeypatch):
    # every other type fires once at tick 0 and then only B fires, so each
    # pair (B, y) is filed under y, which is out of the window: a B event
    # reads two entries pruning its own list and the last entry of each
    # filing type's list, and runs no key's check
    reads = 0

    class ReadCountingDeque(deque):
        def __getitem__(self, i):
            nonlocal reads
            reads += 1
            return super().__getitem__(i)

    monkeypatch.setattr(parallel, "deque", ReadCountingDeque)
    others = [y for y in string.ascii_uppercase if y != "B"]
    bs = [Event("B", t) for t in range(10, 1010)]
    seq = EventSequence([Event(y, 0) for y in others] + bs)
    pairs = [ParallelEpisode(tuple(sorted(("B", y)))) for y in others]
    assert {c.freq for c in count_parallel_expiry(pairs, seq, cfg_for(4))} == {0}
    assert reads <= (2 + len(others)) * len(bs)


def test_pair_sweep_equals_the_parallel_oracles():
    # every pair {a b}, {a a} included, over streams with equal ticks
    rng = random.Random(515)
    for _ in range(80):
        seq = random_sequence(rng, max_events=100, max_types=4)
        if not seq.alphabet:
            continue
        expiry = rng.randint(1, 4)
        # the sweep grows the pairs of the seeds' types, as a beam may leave some out
        seeds = [ParallelEpisode((x,)) for x in rng.sample(sorted(seq.alphabet), rng.randint(1, len(seq.alphabet)))]
        pairs = generate_parallel_candidates(seeds)
        found, n_candidates = count_pairs(seq, seeds, True, 1, expiry=expiry)
        swept = {c.episode: c[1:] for c in counted(found, True)}
        assert n_candidates == len(pairs) and set(swept) <= set(pairs)
        for ep in pairs:
            freq, occurrences = swept.get(ep, (0, ()))
            assert freq == parallel_oracle_count(ep, seq, expiry), (ep, expiry)
            assert occurrences == parallel_oracle_occurrences(ep, seq, expiry), (ep, expiry)
        found, _ = count_pairs(seq, seeds, False, 1, expiry=expiry)
        counts = {c.episode: c.freq for c in counted(found, False)}
        assert counts == {ep: freq for ep, (freq, _) in swept.items()}
        assert 0 not in counts.values()
        for floor in (2, 4):
            found, _ = count_pairs(seq, seeds, True, floor, expiry=expiry)
            assert [ep for ep, _ in found] == [ep for ep in pairs if swept.get(ep, (0,))[0] >= floor]
