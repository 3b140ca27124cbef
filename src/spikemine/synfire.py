"""Two-phase discovery of chained synchronous groups.

Phase 1 mines parallel episodes with occurrence tracking and keeps the
maximal frequent ones (size >= 2, not contained in any other frequent
episode). Every tracked occurrence of a kept episode is then rewritten:
its member events are removed from the stream and replaced by a single
composite event whose label is the bracketed member-type list and whose
time is the half-up-rounded mean of the member times. Phase 2 mines
serial episodes over the rewritten stream, so the reported chains may
pass through composite nodes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .episodes import EpisodeCount, MiningConfig, MiningLevel, is_subepisode, rank_key
from .events import Event, EventSequence, half_up
from .parallel import mine_parallel
from .serial import mine_serial


class RewriteConflictError(ValueError):
    """Occurrences of two distinct episodes claim the same event."""


@dataclass(frozen=True)
class CompositeEvent(Event):
    """Stand-in event for one rewritten occurrence; remembers its members."""

    members: tuple[int, ...] = ()


def composite_label(etypes) -> str:
    return "[" + " ".join(etypes) + "]"


def rewrite_stream(
    seq: EventSequence,
    tracked: list[EpisodeCount],
    *,
    on_conflict: str = "error",
) -> EventSequence:
    """Replace tracked occurrences by composite events at their mean time.

    ``tracked`` is processed in the given order. If an occurrence touches
    an event already claimed by an earlier one, ``on_conflict`` decides:
    "error" raises RewriteConflictError, "skip" drops that occurrence
    (first claim wins). Untouched events are preserved and the result is
    re-sorted stably; the alphabet gains the composite labels.
    """
    if on_conflict not in ("error", "skip"):
        raise ValueError(f"on_conflict must be 'error' or 'skip', got {on_conflict!r}")
    claimed: set[int] = set()
    composites: list[CompositeEvent] = []
    labels: set[str] = set()
    for count in tracked:
        if count.occurrences is None:
            raise ValueError(f"{count.episode} carries no tracked occurrences")
        label = composite_label(count.episode.etypes)
        labels.add(label)
        for occ in count.occurrences:
            if any(i in claimed for i in occ):
                if on_conflict == "error":
                    raise RewriteConflictError(
                        f"occurrence {occ} of {count.episode} overlaps an already-rewritten one"
                    )
                continue
            claimed.update(occ)
            mean = half_up(sum(seq.events[i].time for i in occ), len(occ))
            composites.append(CompositeEvent(label, mean, tuple(occ)))
    kept = [ev for i, ev in enumerate(seq.events) if i not in claimed]
    return EventSequence(
        kept + composites, seq.tick_seconds, seq.alphabet | labels
    )


@dataclass(frozen=True)
class SynfireResult:
    """Both phases of one run; ``serial_levels`` is the headline output."""

    parallel_levels: tuple[MiningLevel, ...]
    rewritten_group_counts: tuple[EpisodeCount, ...]
    rewritten: EventSequence
    serial_levels: tuple[MiningLevel, ...]


def mine_synfire(seq: EventSequence, cfg: MiningConfig, *, jobs: int = 1) -> SynfireResult:
    """Parallel phase with tracking, greedy rewrite, then serial phase.

    Maximal frequent parallel episodes are rewritten in descending
    frequency order; an event consumed by one composite is unavailable to
    later ones. An empty phase-1 result leaves the stream unchanged.
    """
    if cfg.expiry <= 0:
        raise ValueError("synfire mining needs expiry > 0 for the parallel phase")
    if not cfg.candidate_intervals:
        raise ValueError("synfire mining needs candidate intervals for the serial phase")
    pcfg = replace(cfg, track_occurrences=True)
    parallel_levels = mine_parallel(seq, pcfg, jobs=jobs)
    frequent = [
        c for level in parallel_levels for c in level.counts if c.episode.size >= 2
    ]
    maximal = [
        c
        for c in frequent
        if not any(
            other.episode != c.episode and is_subepisode(c.episode, other.episode)
            for other in frequent
        )
    ]
    maximal.sort(key=rank_key)
    rewritten = rewrite_stream(seq, maximal, on_conflict="skip")
    serial_levels = mine_serial(rewritten, cfg, jobs=jobs)
    return SynfireResult(
        tuple(parallel_levels), tuple(maximal), rewritten, tuple(serial_levels)
    )
