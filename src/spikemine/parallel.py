"""Non-overlapped counting of parallel episodes under an expiry span.

Candidates are keys, sorted tuples of labels (see ``episodes``), counted
over the stream's columns of labels and ticks, so each type's time list
and the candidates watching it sit in a dict keyed by label.

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
    counted,
    mine_levels,
    parallel_join,
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
    form a suffix of each list (see the module docstring). ``jobs`` starts
    no process: the pass reads the stream once, in order; the keyword stays
    so that callers passing it keep working.
    """
    candidates = list(candidates)
    keys = [ep.etypes for ep in candidates]
    results = _count_keys(keys, seq, cfg.track_occurrences, cfg.expiry)
    return counted(candidates, results, cfg.track_occurrences)


def _count_keys(keys: list, seq: EventSequence, track: bool, expiry: int) -> list:
    """The counting pass over parallel keys, each a sorted tuple of labels, on the
    stream's columns ``seq.labels`` and ``seq.ticks``.

    One result per key, in order: its count, or ``(count, occurrences)``
    when ``track``. ValueError unless ``expiry > 0``.
    """
    if expiry <= 0:
        raise ValueError("parallel counting needs expiry > 0")
    # label -> (time list, (slot, needs) of the keys watching it), once some key needs it
    lists: dict = dict.fromkeys(seq.alphabet)
    slot_of: dict[tuple, list] = {}
    for key in dict.fromkeys(keys):
        slot = slot_of[key] = [0, -1, []]  # freq, watermark, occurrences
        needs = []
        for y, m in Counter(key).items():
            entry = lists.get(y)
            if entry is None:
                entry = lists[y] = (deque(), [])
            needs.append((entry[0], m))
            entry[1].append((slot, needs))

    for idx, (x, t) in enumerate(zip(seq.labels, seq.ticks)):
        entry = lists[x]
        if entry is None:
            continue
        tl, watchers = entry
        cut = t - expiry
        while tl and tl[0][0] < cut:
            tl.popleft()
        tl.append((t, idx))
        for slot, needs in watchers:
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

    Every level reads the same columns, ``seq.labels`` and ``seq.ticks``.
    ``jobs`` starts no process, as each pass is one sequential scan; the
    keyword stays so that callers passing it keep working.
    """
    return mine_levels(
        [(x,) for x in sorted(seq.alphabet)], cfg, cfg.count_floor(len(seq)),
        lambda keys: (keys, _count_keys(keys, seq, cfg.track_occurrences, cfg.expiry)),
        parallel_join,
        ParallelEpisode,
    )
