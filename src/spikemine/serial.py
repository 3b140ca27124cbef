"""Non-overlapped counting of gap-constrained serial episodes.

Candidates are ``SerialEpisode``s, named tuples ``(etypes, intervals)``,
counted over the stream's columns of labels and ticks, so trie roots are
a dict keyed by label.

One counting pass holds all candidates in a prefix trie of steps
``[node, slot]``: one root per first type, and under a node one step per
next type and window ``(low, high)``. A node stands for one prefix, its
event types and its gap windows. Roots always have one; any other step
has one only where a longer candidate goes on, and a slot only where a
candidate ends. Candidates that share a prefix share its node, which
keeps one time list of entries ``(time, index, start, back)``, one per
event of its last type that ends a gap-valid chain of the prefix:

* at depth 1 every event of the type is an entry, with ``start`` its own
  index;
* an event of type ``x`` at time ``t`` makes an entry at child
  ``prefix -(low, high]-> x`` iff the parent list has an entry in
  ``[t - high, t - low)``. The new entry copies the ``start`` of the
  latest such entry and links it as ``back``.

``start`` is thus the first event of the entry's latest-starting chain,
and it never decreases along a list: a later event's window ends later,
so its latest parent entry is no earlier. The latest entry in a window
therefore carries the largest ``start`` of all entries in it.

Each distinct candidate has the slot of the step it ends at: its count,
its watermark (the index of its last completion) and its occurrences.
Counted occurrences must not overlap, so only chains that start after the
watermark may complete; an event completes the candidate iff the latest
entry in its last window has ``start > watermark``. That is exact: by the
monotone ``start``, no other entry in the window has a later chain. The
candidate completes at the earliest event that ends any valid occurrence
after its last one, and earliest-completion greedy gives the maximum
number of non-overlapped occurrences for this interval-scheduling
structure (the randomized oracle suite checks this exactly). Following
``back`` from a completion recovers its occurrence: the latest event at
each node, walking back from the end.

The pass keeps one insertion-ordered set of live nodes, those with
children and a non-empty list: a node enters when its list gets an entry
and leaves when a scan prunes it empty. An event adds its entry to the
depth-1 node of its type, then scans a snapshot of the set. Each node is
pruned from the front by the cut ``t - (largest high among its
children)``, since an older entry lies in no window of this or a later
event, and its children of the event's type are extended. Visit order
cannot change a count: an entry made at tick ``t`` is never in a window
``[t - high, t - low)`` of an event at ``t``, as ``low >= 0``. The pass
reads only the events whose type some candidate uses: any other event
would only prune, and the next visit prunes by a later cut anyway, so no
count, watermark or occurrence changes, and the lists stay bounded by
the window population of the events read.

``mine_serial`` runs ``episodes.mine_levels`` from ``bootstrap_serial``
with the join ``generate_serial_candidates`` and the counter of
``episodes.level_counter``, whose level 1 is the label counts and level 2
one sweep over the type pairs, so this pass runs from level 3 on.
``MiningLevel.n_candidates``, and with it the CLI's ``candidates=N``,
reports the full join.
"""

from __future__ import annotations

from collections import deque

from .episodes import (
    EpisodeCount,
    MiningConfig,
    MiningLevel,
    bootstrap_serial,
    counted,
    generate_serial_candidates,
    level_counter,
    mine_levels,
)
from .events import EventSequence


class _Node:
    """One candidate prefix: its time list and the steps to its children."""

    __slots__ = ("tlist", "reach", "kids")

    def __init__(self):
        self.tlist = deque()  # oldest first; a node with children is live iff this is non-empty
        self.reach = 0      # largest high among the children's windows; prune cut t - reach
        self.kids = {}      # event type -> {(low, high): [child node or None, slot or None]}


def count_serial_constrained(
    candidates,
    seq: EventSequence,
    cfg: MiningConfig | None = None,
    *,
    jobs: int = 1,
) -> list[EpisodeCount]:
    """Count all candidates in one pass over a prefix trie; returns counts in input order.

    Candidates that share a prefix share its time list, and equal
    candidates share one slot. The count is still each candidate's own:
    ``start`` never decreases along a list, so the latest entry in a
    window carries the largest ``start`` there, and the candidate
    completes exactly when some chain in the window starts after its last
    completion (see the module docstring). ``jobs`` starts no process: the
    pass reads the stream once, in order; the keyword stays so that
    callers passing it keep working.
    """
    candidates = list(candidates)
    track = bool(cfg and cfg.track_occurrences)
    return counted(candidates, _count(candidates, seq, track), track)


def _count(candidates: list, seq: EventSequence, track: bool) -> list:
    """The counting pass over ``(etypes, windows)`` pairs on the stream's
    columns ``seq.labels`` and ``seq.ticks``.

    One result per candidate, in order: its count, or ``(count,
    occurrences)`` when ``track``.
    """
    roots = dict.fromkeys(seq.alphabet)  # a type outside the alphabet gets a root no event reaches
    slots = []
    for types, windows in candidates:
        step = roots.get(types[0])
        if step is None:
            step = roots[types[0]] = [_Node(), None]
        for x, window in zip(types[1:], windows):
            node = step[0]
            if node is None:
                node = step[0] = _Node()
            by_window = node.kids.setdefault(x, {})
            step = by_window.get(window)
            if step is None:
                # a plain pair: the scan unpacks exact tuples faster than Intervals
                step = by_window[tuple(window)] = [None, None]
                if window[1] > node.reach:
                    node.reach = window[1]
        if step[1] is None:
            step[1] = [0, -1, []]
        slots.append(step[1])
    live: dict[_Node, None] = {}  # nodes with children and a non-empty time list
    labels, ticks = seq.labels, seq.ticks
    used = {x for types, _ in candidates for x in types}

    for idx in [i for i, x in enumerate(labels) if x in used]:
        x, t = labels[idx], ticks[idx]
        step = roots[x]
        if step is not None:
            root, slot = step
            if slot is not None:  # every event completes its 1-node candidate
                slot[0] += 1
                slot[1] = idx
                if track:
                    slot[2].append((idx,))
            if root.kids:
                if not root.tlist:
                    live[root] = None
                root.tlist.append((t, idx, idx, None))
        for node in tuple(live):  # the scan may add and drop live nodes
            tl = node.tlist
            cut = t - node.reach
            while tl and tl[0][0] < cut:
                tl.popleft()
            if not tl:
                del live[node]
                continue
            by_window = node.kids.get(x)
            if by_window is None:
                continue
            for (low, high), (child, slot) in by_window.items():
                limit = t - low
                for prev in reversed(tl):
                    if prev[0] < limit:
                        if prev[0] >= t - high:
                            if slot is not None and prev[2] > slot[1]:
                                slot[0] += 1
                                slot[1] = idx
                                if track:
                                    chain, link = [idx], prev
                                    while link is not None:
                                        chain.append(link[1])
                                        link = link[3]
                                    slot[2].append(tuple(reversed(chain)))
                            if child is not None:
                                if not child.tlist:
                                    live[child] = None
                                child.tlist.append((t, idx, prev[2], prev if track else None))
                        break

    if track:
        return [(slot[0], tuple(slot[2])) for slot in slots]
    return [slot[0] for slot in slots]


def mine_serial(seq: EventSequence, cfg: MiningConfig, *, jobs: int = 1) -> list[MiningLevel]:
    """Level-wise serial mining (``mine_levels``); returns frequent episodes per size.

    Level 1 is the label counts and level 2 one sweep over the type pairs
    (``episodes.level_counter``); the trie pass counts from level 3. Every
    pass reads the same columns, ``seq.labels`` and ``seq.ticks``. ``jobs``
    starts no process, as each pass is one sequential scan; the keyword
    stays so that callers passing it keep working.
    """
    if not cfg.candidate_intervals:
        raise ValueError("serial mining needs a non-empty candidate interval set")
    windows = cfg.candidate_intervals
    track, floor = cfg.track_occurrences, cfg.count_floor(len(seq))
    return mine_levels(
        bootstrap_serial(seq.alphabet), cfg, floor,
        level_counter(seq, track, lambda eps: _count(eps, seq, track), windows, floor=floor),
        lambda seeds: generate_serial_candidates(seeds, windows),
    )
