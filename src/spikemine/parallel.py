"""Non-overlapped counting of parallel episodes under an expiry span.

Candidates are ``ParallelEpisode``s, named tuples ``(etypes,)`` of sorted
labels, counted over the columns ``EventSequence.labels`` and ``ticks``. A
pass reads only the events of the types some candidate needs, and keeps
one time list of ``(time, index)`` per such type, in a dict keyed by
label; an event of type ``x`` at ``t`` prunes ``x``'s list by the cut
``t - expiry`` and appends itself, so a list holds one expiry span at most.

Each distinct candidate has a slot: its count, its watermark (the index of
its last completion) and its occurrences. It may use only events after the
watermark and not before the cut, a suffix of each list, so it completes
at ``t`` iff, for each of its types with multiplicity ``m``, the ``m``-th
entry from the end of that list is usable; a tracked occurrence takes the
earliest ``m`` usable entries of each type. Completing at the earliest
feasible event gives the maximum non-overlapped count (checked against
the exhaustive oracle in the test suite, occurrences included).

As in the "waits" lists of Laxman, Sastry and Unnikrishnan ("A fast
algorithm for finding frequent episodes in event streams", KDD 2007), an
event checks only the candidates that can complete on it: the watchers of
``x`` are filed under the first other type of their episode (``x`` for an
episode of ``x`` alone), and an event of ``x`` reads a file only when its
filing type's last entry is not before the cut. This is exact: a candidate
completing at ``t`` has a usable entry of each type, so its filing type has
one too.

In ``mine_parallel`` this pass counts the join
``generate_parallel_candidates`` of each level's seeds from level 3 on, as
``episodes.mine_levels`` takes level 1 from the label counts and level 2
from one sweep over the type pairs.
"""

from __future__ import annotations

from collections import Counter, deque
from functools import partial

from .episodes import (EpisodeCount, MiningConfig, MiningLevel, counted, generate_parallel_candidates,
                       mine_levels)
from .events import EventSequence


def count_parallel_expiry(candidates, seq: EventSequence, cfg: MiningConfig, *,
                          jobs: int = 1) -> list[EpisodeCount]:
    """Count all candidates in one pass over shared time lists; returns counts in input order.

    Each count is exact, as if counted alone (see the module docstring).
    ``jobs`` starts no process: the pass reads the stream once, in order;
    the keyword stays so that callers passing it keep working.
    """
    candidates = list(candidates)
    return counted(zip(candidates, _count(candidates, seq, cfg.track_occurrences, cfg.expiry)),
                   cfg.track_occurrences)


def _count(candidates: list, seq: EventSequence, track: bool, expiry: int) -> list:
    """The counting pass over parallel episodes; the slot of each candidate,
    in order (see the module docstring). ValueError unless ``expiry > 0``.
    """
    if expiry <= 0:
        raise ValueError("parallel counting needs expiry > 0")
    # label -> (time list, {filing label: (that label's list, [(slot, needs)])}) once needed
    lists: dict = dict.fromkeys(seq.alphabet)
    slot_of: dict[tuple, list] = {}
    for ep in dict.fromkeys(candidates):
        slot = slot_of[ep] = [0, -1, []]  # freq, watermark, occurrences
        mult = Counter(ep.etypes)
        for y in mult:
            lists[y] = lists.get(y) or (deque(), {})
        needs = [(lists[y][0], m) for y, m in mult.items()]
        for y in mult:
            f = next((z for z in mult if z != y), y)
            lists[y][1].setdefault(f, (lists[f][0], []))[1].append((slot, needs))

    labels, ticks = seq.labels, seq.ticks
    for idx in [i for i, x in enumerate(labels) if lists[x] is not None]:
        x, t = labels[idx], ticks[idx]
        tl, files = lists[x]
        cut = t - expiry
        while tl and tl[0][0] < cut:
            tl.popleft()
        tl.append((t, idx))
        for zq, watchers in files.values():
            if zq and zq[-1][0] >= cut:
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

    return [slot_of[ep] for ep in candidates]


def _grow(seeds: list, seq: EventSequence, track: bool, floor: int, *, expiry: int):
    """A level of ``mine_parallel`` from level 3 on: the pairs ``(candidate,
    slot)`` of the seeds' join counted ``floor`` times or more, sorted, and
    the join's size."""
    candidates = generate_parallel_candidates(seeds)
    if not candidates:
        return [], 0
    slots = _count(candidates, seq, track, expiry)
    return [(ep, slot) for ep, slot in zip(candidates, slots) if slot[0] >= floor], len(candidates)


def mine_parallel(seq: EventSequence, cfg: MiningConfig, *, jobs: int = 1) -> list[MiningLevel]:
    """Level-wise parallel mining (``mine_levels``); returns frequent episodes per size.

    Level 1 is the label counts and level 2 one sweep over the type pairs
    (``episodes.mine_levels``); from level 3 the expiry pass counts the
    join of the last level's seeds (``_grow``).
    Every level reads the same columns, ``seq.labels`` and ``seq.ticks``.
    ``jobs`` starts no process, as each pass is one sequential scan; the
    keyword stays so that callers passing it keep working. ValueError
    unless ``cfg.expiry > 0``.
    """
    if cfg.expiry <= 0:
        raise ValueError("parallel mining needs expiry > 0")
    return mine_levels(seq, cfg, partial(_grow, expiry=cfg.expiry), expiry=cfg.expiry)
