"""Two-phase discovery of chained synchronous groups.

Phase 1 mines parallel episodes with occurrence tracking and keeps the
maximal frequent ones (size >= 2, inside no other mined episode). Their
tracked occurrences are rewritten in rank order, and the first claim on
an event wins: each occurrence whose events are all unclaimed becomes one
composite event, labelled with the bracketed member-type list, at the
half-up-rounded mean of the member times; the rest are dropped. Phase 2
mines serial episodes over the rewritten stream, so the reported chains
may pass through composite nodes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .episodes import EpisodeCount, MiningConfig, MiningLevel, rank_key
from .events import Event, EventSequence, half_up
from .parallel import mine_parallel
from .serial import mine_serial


@dataclass(frozen=True)
class CompositeEvent(Event):
    """Stand-in event for one rewritten occurrence; remembers its members."""

    members: tuple[int, ...] = ()


def composite_label(etypes) -> str:
    return "[" + " ".join(etypes) + "]"


def rewrite_stream(
    seq: EventSequence, tracked: list[EpisodeCount], *, on_conflict: str = "skip"
) -> EventSequence:
    """Replace tracked occurrences by composite events at their mean time.

    ``tracked`` is processed in the given order, and the first claim on an
    event wins: an occurrence that touches an event already claimed by an
    earlier one is dropped. ``on_conflict`` names that rule and accepts
    only "skip". Untouched events are preserved and the result is
    re-sorted stably; the alphabet gains the composite labels.
    """
    if on_conflict != "skip":
        raise ValueError(f"on_conflict must be 'skip', got {on_conflict!r}")
    claimed: set[int] = set()
    composites: list[CompositeEvent] = []
    labels: set[str] = set()
    for count in tracked:
        if count.occurrences is None:
            raise ValueError(f"{count.episode} carries no tracked occurrences")
        label = composite_label(count.episode.etypes)
        labels.add(label)
        for occ in count.occurrences:
            if claimed.isdisjoint(occ):
                claimed.update(occ)
                mean = half_up(sum(seq.ticks[i] for i in occ), len(occ))
                composites.append(CompositeEvent(label, mean, tuple(occ)))
    kept = [i for i in range(len(seq)) if i not in claimed]
    return EventSequence._from_columns(
        [seq.labels[i] for i in kept] + [ev.etype for ev in composites],
        [seq.ticks[i] for i in kept] + [ev.time for ev in composites],
        seq.tick_seconds, seq.alphabet | labels, [None] * len(kept) + composites,
    )


@dataclass(frozen=True)
class SynfireResult:
    """Both phases of one run; ``serial_levels`` is the headline output."""

    parallel_levels: tuple[MiningLevel, ...]
    rewritten_group_counts: tuple[EpisodeCount, ...]
    rewritten: EventSequence
    serial_levels: tuple[MiningLevel, ...]


def mine_synfire(seq: EventSequence, cfg: MiningConfig, *, jobs: int = 1) -> SynfireResult:
    """Tracked parallel phase, first-claim rewrite of its maximal groups, serial phase.

    An empty phase-1 result leaves the stream unchanged. ``jobs`` starts
    no process, as both phases count in this one; the keyword stays so
    that callers passing it keep working.
    """
    if cfg.expiry <= 0:
        raise ValueError("synfire mining needs expiry > 0 for the parallel phase")
    if not cfg.candidate_intervals:
        raise ValueError("synfire mining needs candidate intervals for the serial phase")
    parallel_levels = mine_parallel(seq, replace(cfg, track_occurrences=True))
    # parallel_levels[i] holds the mined episodes of size i + 1. A size-s
    # group inside a mined episode of size m > s + 1 is inside a mined one
    # of size m - 1: the join kept the larger only if all its (m-1)-sub-
    # multisets were seeds, so mined, and one of them still holds the group.
    # Down to size s + 1: a group is inside another mined episode iff it is
    # one type short of a mined episode, so the cover set finds the maximal.
    covered = {
        types[:j] + types[j + 1 :]
        for types in (c.episode.etypes for level in parallel_levels[2:] for c in level.counts)
        for j in range(len(types))
    }
    groups = [c for level in parallel_levels[1:] for c in level.counts]
    maximal = sorted((c for c in groups if c.episode.etypes not in covered), key=rank_key)
    rewritten = rewrite_stream(seq, maximal)
    serial_levels = mine_serial(rewritten, cfg)
    return SynfireResult(tuple(parallel_levels), tuple(maximal), rewritten, tuple(serial_levels))
