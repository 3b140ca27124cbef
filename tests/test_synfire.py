import pytest

from spikemine import (
    EpisodeCount,
    Event,
    EventSequence,
    Interval,
    MiningConfig,
    ParallelEpisode,
    SerialEpisode,
    composite_label,
    mine_synfire,
    rewrite_stream,
)
from spikemine.synfire import CompositeEvent


def tracked(episode_types, *occurrences):
    return EpisodeCount(ParallelEpisode(episode_types), len(occurrences), tuple(occurrences))


def chain_stream(reps=40, gap=30):
    """A -> (B C D) -> E -> (K L), one synaptic delay (5 ticks) per hop."""
    events = []
    for k in range(reps):
        base = k * gap
        events.append(Event("A", base))
        events += [Event(x, base + 5) for x in "BCD"]
        events.append(Event("E", base + 10))
        events += [Event(x, base + 15) for x in "KL"]
    return EventSequence(events)


def test_composite_takes_mean_time():
    seq = EventSequence([Event("B", 10), Event("C", 11), Event("D", 12)])
    out = rewrite_stream(seq, [tracked(("B", "C", "D"), (0, 1, 2))])
    assert len(out) == 1
    ev = out[0]
    assert isinstance(ev, CompositeEvent)
    assert (ev.etype, ev.time, ev.members) == ("[B C D]", 11, (0, 1, 2))


def test_mean_rounds_half_up():
    seq = EventSequence([Event("A", 1), Event("B", 2)])
    out = rewrite_stream(seq, [tracked(("A", "B"), (0, 1))])
    assert out[0].time == 2


def test_no_occurrences_is_identity():
    seq = EventSequence([Event("A", 1), Event("B", 2)])
    out = rewrite_stream(seq, [])
    assert out.events == seq.events


def test_untracked_input_rejected():
    seq = EventSequence([Event("A", 1)])
    with pytest.raises(ValueError):
        rewrite_stream(seq, [EpisodeCount(ParallelEpisode(("A",)), 1, None)])


def test_cross_episode_conflicts():
    seq = EventSequence([Event("A", 0), Event("B", 1), Event("C", 2)])
    first = tracked(("A", "B"), (0, 1))
    second = tracked(("B", "C"), (1, 2))
    out = rewrite_stream(seq, [first, second])  # the first claim on B wins
    assert [(e.etype, e.time) for e in out] == [("[A B]", 1), ("C", 2)]
    assert out.alphabet >= {"[A B]", "[B C]"}
    assert rewrite_stream(seq, [first, second], on_conflict="skip") == out
    with pytest.raises(ValueError):
        rewrite_stream(seq, [first, second], on_conflict="error")


def test_event_conservation():
    seq = chain_stream(reps=10)
    occs_bcd = tuple((7 * k + 1, 7 * k + 2, 7 * k + 3) for k in range(10))
    occs_kl = tuple((7 * k + 5, 7 * k + 6) for k in range(10))
    out = rewrite_stream(
        seq, [tracked(("B", "C", "D"), *occs_bcd), tracked(("K", "L"), *occs_kl)]
    )
    consumed = 10 * 3 + 10 * 2
    inserted = 10 + 10
    assert len(out) == len(seq) - consumed + inserted
    assert "[B C D]" in out.alphabet and "[K L]" in out.alphabet


def test_mine_synfire_recovers_chain():
    seq = chain_stream()
    cfg = MiningConfig(
        freq_threshold=0.1,
        max_size=6,
        candidate_intervals=(Interval(4, 6),),
        expiry=1,
    )
    result = mine_synfire(seq, cfg)
    groups = {c.episode for c in result.rewritten_group_counts}
    assert groups == {ParallelEpisode(("B", "C", "D")), ParallelEpisode(("K", "L"))}
    top = result.serial_levels[-1]
    assert top.size == 4
    assert {c.episode for c in top.counts} == {
        SerialEpisode(
            ("A", "[B C D]", "E", "[K L]"),
            (Interval(4, 6),) * 3,
        )
    }


def test_mine_synfire_empty_phase1_runs_on_original():
    seq = EventSequence(
        [Event("A", 0), Event("B", 5), Event("A", 20), Event("B", 25)]
    )
    cfg = MiningConfig(
        freq_threshold=0.5,
        max_size=3,
        candidate_intervals=(Interval(4, 6),),
        expiry=1,
    )
    result = mine_synfire(seq, cfg)
    assert result.rewritten_group_counts == ()
    assert result.rewritten.events == seq.events
    two = [lvl for lvl in result.serial_levels if lvl.size == 2][0]
    assert {c.episode for c in two.counts} == {
        SerialEpisode(("A", "B"), (Interval(4, 6),))
    }


def test_mine_synfire_validates_config(worked_sequence):
    with pytest.raises(ValueError):
        mine_synfire(worked_sequence, MiningConfig(candidate_intervals=(Interval(0, 5),)))
    with pytest.raises(ValueError):
        mine_synfire(worked_sequence, MiningConfig(expiry=3))


def test_composite_label_style():
    assert composite_label(("C", "B", "D")) == "[C B D]"
