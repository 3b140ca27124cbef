"""Non-overlapped counting of gap-constrained serial episodes.

One recognizer per candidate: a chain of stages, one per episode node.
Each stage keeps a time list of events accepted there, i.e. events of the
stage's type that extend a gap-valid chain from stage 1. An event is
accepted at stage j > 1 only if some stage j-1 entry lies inside the
incoming window ``(low, high]``; at stage 1 every event of the first type
is accepted. Acceptance at the last stage completes one occurrence: the
count increments and the whole recognizer resets (all time lists cleared,
all stages deactivated back to stage 1), which is exactly what makes the
counted occurrences non-overlapped -- the next occurrence can only use
strictly later events.

The count equals the maximum-cardinality set of non-overlapped valid
occurrences: the recognizer tracks every viable partial match in
parallel, so it completes at the earliest event that finishes any valid
occurrence, and earliest-completion greedy is optimal for this
interval-scheduling structure (the randomized oracle suite checks this
exactly).

A waits index (event type -> stages currently able to consume it) keeps
a pass linear in the events each candidate actually cares about. Stages
of one recognizer enter a waits list in ascending stage order, so on a
shared event type the earlier stage always sees the event first. Time
lists are monotone in time and are pruned from the front once an entry's
outgoing window can no longer reach any future event.

Entries are ``(time, event_index, back)`` tuples; ``back`` links the
predecessor entry that licensed acceptance (kept only when tracking), so
a completed occurrence is recovered by walking the chain.

``mine_serial`` runs ``episodes.mine_levels`` with a counter that counts
level 2 in two passes when the count floor is above zero and there are
at least two candidate windows. Every occurrence of
``A -(w)-> B`` is also one of ``A -(hull)-> B`` for the hull
``(lowest low, highest high]`` of the windows, so the hull count bounds
each per-window count from above. Pass 1 counts each type pair once under
the hull; pass 2 counts exactly only the per-window candidates of the
pairs that reach the floor. The rest cannot be frequent, so the level's
frequent set is unchanged. ``MiningLevel.n_candidates``, and with it the
CLI's ``candidates=N``, still reports the full join.
"""

from __future__ import annotations

from collections import deque

from .episodes import (
    EpisodeCount,
    Interval,
    MiningConfig,
    MiningLevel,
    SerialEpisode,
    bootstrap_serial,
    fan_out,
    generate_serial_candidates,
    mine_levels,
)
from .events import EventSequence


class _Stage:
    __slots__ = (
        "rec", "pos", "etype", "low_in", "high_in", "high_out",
        "tlist", "visited", "prev", "after", "waiting",
    )

    def __init__(self, rec, pos, etype):
        self.rec = rec
        self.pos = pos
        self.etype = etype
        self.low_in = self.high_in = None   # incoming window, stages >= 2
        self.high_out = None                # outgoing window high, stages < last
        self.tlist = deque()
        self.visited = False
        self.prev = None
        self.after = None
        self.waiting = False


class _Recognizer:
    __slots__ = ("episode", "stages", "freq", "occurrences")

    def __init__(self, episode: SerialEpisode):
        self.episode = episode
        self.freq = 0
        self.occurrences: list[tuple[int, ...]] = []
        stages = []
        prev = None
        for pos, etype in enumerate(episode.etypes, 1):
            stage = _Stage(self, pos, etype)
            if pos >= 2:
                iv = episode.intervals[pos - 2]
                stage.low_in, stage.high_in = iv.low, iv.high
            if pos <= episode.size - 1:
                stage.high_out = episode.intervals[pos - 1].high
            stage.prev = prev
            if prev is not None:
                prev.after = stage
            stages.append(stage)
            prev = stage
        self.stages = stages

    def reset(self, waits):
        for stage in self.stages:
            stage.tlist.clear()
            stage.visited = False
            if stage.pos > 1 and stage.waiting:
                waits[stage.etype].remove(stage)
                stage.waiting = False


def count_serial_constrained(
    candidates,
    seq: EventSequence,
    cfg: MiningConfig | None = None,
    *,
    jobs: int = 1,
) -> list[EpisodeCount]:
    """Count all candidates in one pass; returns counts in input order.

    A stage consuming an event first drops its own entries whose outgoing
    window is behind the stream: counts never change, and memory stays
    bounded when the next stage's type never occurs.
    """
    candidates = list(candidates)
    if not candidates:
        return []
    if jobs > 1 and len(candidates) > 1:
        return fan_out(count_serial_constrained, candidates, seq, cfg, jobs)
    track = bool(cfg and cfg.track_occurrences)

    recs = [_Recognizer(ep) for ep in candidates]
    waits: dict[str, list[_Stage]] = {}
    for rec in recs:
        first = rec.stages[0]
        waits.setdefault(first.etype, []).append(first)
        first.waiting = True

    events = seq.events
    for idx in range(len(events)):
        ev = events[idx]
        lst = waits.get(ev.etype)
        if not lst:
            continue
        t = ev.time
        for stage in tuple(lst):
            if not stage.waiting:
                continue
            high_out = stage.high_out
            tl = stage.tlist
            if high_out is not None:
                cut = t - high_out
                while tl and tl[0][0] < cut:
                    tl.popleft()
            if stage.pos == 1:
                entry = (t, idx, None)
                accepted = True
            else:
                prev_tl = stage.prev.tlist
                cut = t - stage.high_in
                while prev_tl and prev_tl[0][0] < cut:
                    prev_tl.popleft()
                limit = t - stage.low_in  # licensed iff predecessor time < limit
                if prev_tl and prev_tl[0][0] < limit:
                    back = None
                    if track:
                        for cand in reversed(prev_tl):
                            if cand[0] < limit:
                                back = cand
                                break
                    entry = (t, idx, back)
                    accepted = True
                else:
                    accepted = False
            if not accepted:
                continue
            if stage.after is not None:
                tl.append(entry)
                if not stage.visited:
                    stage.visited = True
                    nxt = stage.after
                    waits.setdefault(nxt.etype, []).append(nxt)
                    nxt.waiting = True
            else:
                rec = stage.rec
                rec.freq += 1
                if track:
                    chain = []
                    node = entry
                    while node is not None:
                        chain.append(node[1])
                        node = node[2]
                    rec.occurrences.append(tuple(reversed(chain)))
                rec.reset(waits)

    return [
        EpisodeCount(rec.episode, rec.freq, tuple(rec.occurrences) if track else None)
        for rec in recs
    ]


def _hull_survivors(candidates, seq, cfg, floor, jobs):
    """Level-2 candidates whose type pair reaches ``floor`` under the window hull.

    The hull counts only bound, so they are taken without tracking (no cfg).
    """
    ivs = cfg.candidate_intervals
    hull = (Interval(ivs[0].low, ivs[-1].high),)
    pairs = sorted({ep.etypes for ep in candidates})
    bounds = count_serial_constrained(
        [SerialEpisode(p, hull) for p in pairs], seq, None, jobs=jobs
    )
    kept = {b.episode.etypes for b in bounds if b.freq >= floor}
    return [ep for ep in candidates if ep.etypes in kept]


def mine_serial(seq: EventSequence, cfg: MiningConfig, *, jobs: int = 1) -> list[MiningLevel]:
    """Level-wise serial mining (``mine_levels``); returns frequent episodes per size.

    Level 2 may first prune its candidates by hull count (see the module
    docstring); ``seconds`` covers both passes.
    """
    if not cfg.candidate_intervals:
        raise ValueError("serial mining needs a non-empty candidate interval set")
    floor = cfg.count_floor(len(seq))
    two_pass = floor > 0 and len(cfg.candidate_intervals) > 1

    def count(candidates):
        if two_pass and candidates[0].size == 2:
            candidates = _hull_survivors(candidates, seq, cfg, floor, jobs)
        return count_serial_constrained(candidates, seq, cfg, jobs=jobs)

    return mine_levels(
        bootstrap_serial(seq.alphabet), cfg, floor, count,
        lambda seeds: generate_serial_candidates(seeds, cfg.candidate_intervals),
    )
