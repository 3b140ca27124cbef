"""Non-overlapped counting of parallel episodes under an expiry span.

A counting pass keeps one time list of ``(time, index)`` per event type
that some candidate needs. An event of type ``x`` at ``t`` prunes ``x``'s
list by the cut ``t - expiry`` and then appends itself, so a list never
holds more than one expiry span of its type's events.

Each distinct candidate has a slot: its count, its watermark (the index of
its last completion) and its occurrences. It may use only events after the
watermark and not before the cut; in each list, ordered by index and time,
those form a suffix. So the candidate completes at ``t`` iff, for each of
its types with multiplicity ``m``, the ``m``-th entry from the end of that
type's list is usable, and a tracked occurrence takes the earliest ``m``
usable entries of each type. Completing at the earliest feasible event
gives the maximum non-overlapped count (checked exactly against the
exhaustive oracle in the test suite, occurrences included).
"""

from __future__ import annotations

from collections import Counter, deque

from .episodes import (
    EpisodeCount,
    MiningConfig,
    MiningLevel,
    ParallelEpisode,
    counting_pool,
    generate_parallel_candidates,
    mine_levels,
)
from .events import EventSequence


def count_parallel_expiry(
    candidates,
    seq: EventSequence,
    cfg: MiningConfig,
    *,
    jobs: int = 1,
) -> list[EpisodeCount]:
    """Count all candidates in one pass over shared time lists; returns counts in input order.

    Candidates that need a type share its list and equal candidates share
    a slot; each count is still exact, since the events a candidate may use
    form a suffix of each list (see the module docstring). With ``jobs > 1``
    the call counts in a pool of its own (``episodes.counting_pool``).
    """
    candidates = list(candidates)
    with counting_pool(seq, jobs, (ep.etypes[0] for ep in candidates)) as counter:
        return _count(counter, candidates, cfg)


def _count(counter, candidates: list, cfg: MiningConfig) -> list[EpisodeCount]:
    if cfg.expiry <= 0:
        raise ValueError("parallel counting needs expiry > 0")
    keys = [ep.etypes for ep in candidates]
    return counter(candidates, keys, _count_keys, cfg.track_occurrences, cfg.expiry)


def _count_keys(keys: list, seq: EventSequence, track: bool, expiry: int) -> list:
    """The counting pass over candidate keys, each a sorted tuple of event types.

    One result per key, in order: its count, or ``(count, occurrences)``
    when ``track``.
    """
    tlists: dict[str, deque] = {}
    watchers: dict[str, list] = {}  # event type -> (slot, needs) of each candidate needing it
    slot_of: dict[tuple, list] = {}
    for key in dict.fromkeys(keys):
        slot = slot_of[key] = [0, -1, []]  # freq, watermark, occurrences
        mult = Counter(key)
        needs = [(tlists.setdefault(y, deque()), m) for y, m in mult.items()]
        for y in mult:
            watchers.setdefault(y, []).append((slot, needs))

    for idx, ev in enumerate(seq.events):
        tl = tlists.get(ev.etype)
        if tl is None:
            continue
        t = ev.time
        cut = t - expiry
        while tl and tl[0][0] < cut:
            tl.popleft()
        tl.append((t, idx))
        for slot, needs in watchers[ev.etype]:
            mark = slot[1]
            for q, m in needs:
                if len(q) < m or q[-m][0] < cut or q[-m][1] <= mark:
                    break
            else:
                slot[0] += 1
                slot[1] = idx
                if track:
                    chosen = []
                    for q, m in needs:
                        k = len(q) - m
                        while k and q[k - 1][0] >= cut and q[k - 1][1] > mark:
                            k -= 1
                        chosen.extend(q[i][1] for i in range(k, k + m))
                    slot[2].append(tuple(sorted(chosen)))

    if track:
        return [(slot_of[key][0], tuple(slot_of[key][2])) for key in keys]
    return [slot_of[key][0] for key in keys]


def mine_parallel(seq: EventSequence, cfg: MiningConfig, *, jobs: int = 1) -> list[MiningLevel]:
    """Level-wise parallel mining (``mine_levels``); returns frequent episodes per size.

    Every level shares one ``counting_pool``.
    """
    with counting_pool(seq, jobs, seq.alphabet) as counter:
        return mine_levels(
            [ParallelEpisode((t,)) for t in sorted(seq.alphabet)], cfg, cfg.count_floor(len(seq)),
            lambda candidates: _count(counter, candidates, cfg),
            generate_parallel_candidates,
        )
