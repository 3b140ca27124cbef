"""Non-overlapped counting of parallel episodes under an expiry span.

A recognizer per candidate keeps, for each required event type, the
pending times seen so far that are still within ``expiry`` ticks of the
stream head. When every type's pending list covers its multiplicity, an
occurrence completes using the earliest pending entries per type -- all
retained entries lie within the expiry window of the completing event, so
the selected span is <= expiry by construction, and consuming earliest
entries leaves the freshest ones no longer needed. Completion clears all
pending state for the candidate, so successive counted occurrences use
strictly later events: the non-overlap rule. Completing at the earliest
feasible event plus a full clear yields the maximum non-overlapped count
(checked exactly against the exhaustive oracle in the test suite).
"""

from __future__ import annotations

from collections import deque

from .episodes import (
    EpisodeCount,
    MiningConfig,
    MiningLevel,
    ParallelEpisode,
    fan_out,
    generate_parallel_candidates,
    mine_levels,
)
from .events import EventSequence


class _Recognizer:
    __slots__ = ("episode", "needed", "pending", "freq", "occurrences")

    def __init__(self, episode: ParallelEpisode):
        self.episode = episode
        self.needed = dict(episode.multiplicities())
        self.pending = {t: deque() for t in self.needed}
        self.freq = 0
        self.occurrences: list[tuple[int, ...]] = []


def count_parallel_expiry(
    candidates,
    seq: EventSequence,
    cfg: MiningConfig,
    *,
    jobs: int = 1,
) -> list[EpisodeCount]:
    """Count all candidates in one pass; returns counts in input order."""
    if cfg.expiry <= 0:
        raise ValueError("parallel counting needs expiry > 0")
    candidates = list(candidates)
    if not candidates:
        return []
    if jobs > 1 and len(candidates) > 1:
        return fan_out(count_parallel_expiry, candidates, seq, cfg, jobs)
    expiry = cfg.expiry
    track = cfg.track_occurrences

    recs = [_Recognizer(ep) for ep in candidates]
    interested: dict[str, list[_Recognizer]] = {}
    for rec in recs:
        for etype in rec.needed:
            interested.setdefault(etype, []).append(rec)

    for idx, ev in enumerate(seq.events):
        watchers = interested.get(ev.etype)
        if not watchers:
            continue
        t = ev.time
        cut = t - expiry
        for rec in watchers:
            pending = rec.pending
            pending[ev.etype].append((t, idx))
            complete = True
            for etype, need in rec.needed.items():
                q = pending[etype]
                while q and q[0][0] < cut:
                    q.popleft()
                if len(q) < need:
                    complete = False
            if complete:
                rec.freq += 1
                if track:
                    chosen = []
                    for etype, need in rec.needed.items():
                        q = pending[etype]
                        for _ in range(need):
                            chosen.append(q.popleft()[1])
                    rec.occurrences.append(tuple(sorted(chosen)))
                for q in pending.values():
                    q.clear()

    return [
        EpisodeCount(rec.episode, rec.freq, tuple(rec.occurrences) if track else None)
        for rec in recs
    ]


def mine_parallel(seq: EventSequence, cfg: MiningConfig, *, jobs: int = 1) -> list[MiningLevel]:
    """Level-wise parallel mining (``mine_levels``); returns frequent episodes per size."""
    return mine_levels(
        [ParallelEpisode((t,)) for t in sorted(seq.alphabet)], cfg, cfg.count_floor(len(seq)),
        lambda candidates: count_parallel_expiry(candidates, seq, cfg, jobs=jobs),
        generate_parallel_candidates,
    )
