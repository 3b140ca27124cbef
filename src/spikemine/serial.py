"""Non-overlapped counting of gap-constrained serial episodes.

Candidates are ``SerialEpisode``s, named tuples ``(etypes, intervals)``,
counted over the stream's columns of labels and ticks, so trie roots are
a dict keyed by label.

One counting pass holds all candidates of 2 or more nodes in a prefix
trie: one root node per first type, and under a node one step per next
type and window ``(low, high)``. A node stands for one prefix, its event
types and its gap windows. A step leads to a node only where a longer
candidate goes on, and holds an index into its node's slots only where a
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
When mining, a slot is made only at its candidate's first completion.
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

``mine_serial`` runs ``episodes.mine_levels``, which takes level 1 from
the label counts and level 2 from one sweep over the type pairs, so this
pass runs from level 3 on (``_count``), where it grows each level from
its seeds, the best episodes of the last level, with no join list. The
trie holds only the seeds that the suffix-prefix join extends
(``episodes.serial_extensions``). A seed's node gets as children the
last steps of the seeds whose prefix is its suffix, shared by every seed
with that suffix, and a slot of its own for each at the extension's
first completion; only the slots at the floor become ``EpisodeCount``s.
``MiningLevel.n_candidates`` (the CLI's ``candidates=N``) still reports
the join's size, the sum of the seeds' extension counts. ``count_serial_constrained`` builds the
trie from explicit candidates of 2 or more nodes, for the same pass.
"""

from __future__ import annotations

from collections import deque
from operator import itemgetter

from .episodes import (
    EpisodeCount,
    MiningConfig,
    MiningLevel,
    SerialEpisode,
    counted,
    label_counts,
    mine_levels,
    serial_extensions,
)
from .events import EventSequence

_new = tuple.__new__  # builds a named tuple without its checks


class _Node:
    """One prefix: its time list and the steps to its children."""

    __slots__ = ("tlist", "reach", "kids", "slots")

    def __init__(self):
        self.tlist = deque()  # oldest first; a node with children is live iff this is non-empty
        self.reach = 0      # largest high among the children's windows; prune cut t - reach
        self.kids = {}      # event type -> {(low, high): (child node or None, index into slots or None)}
        self.slots = []     # the slots of the candidates that end at a step, or None before one completes


def _put(node: _Node, x, window, step: tuple) -> None:
    """Set ``node``'s step ``-window-> x`` to ``(child, e)``."""
    # a plain pair: the scan unpacks exact tuples faster than Intervals
    node.kids.setdefault(x, {})[tuple(window)] = step
    node.reach = max(node.reach, window[1])


def _node(roots: dict, types, windows) -> _Node:
    """The node of the prefix ``(types, windows)``, made with every node on its path."""
    node = roots.get(types[0])
    if node is None:
        node = roots[types[0]] = _Node()
    for x, window in zip(types[1:], windows):
        child, e = node.kids.get(x, {}).get(window, (None, None))
        if child is None:
            child = _Node()
            _put(node, x, window, (child, e))
        node = child
    return node


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
    completion (see the module docstring). A 1-node candidate takes its
    label count (``episodes.label_counts``) and stays out of the pass.
    ``jobs`` starts no process: the pass reads the stream once, in order;
    the keyword stays so that callers passing it keep working.
    """
    candidates = list(candidates)
    track = bool(cfg and cfg.track_occurrences)
    roots = dict.fromkeys(seq.alphabet)  # a type outside the alphabet gets a root no event reaches
    slots, ones, used = [], None, set()
    for types, windows in candidates:
        if len(types) == 1:
            ones = ones or label_counts(seq, track)
            slots.append(ones.get(types[0]) or [0, -1, []])
            continue
        node = _node(roots, types[:-1], windows[:-1])
        x, window = types[-1], windows[-1]
        child, e = node.kids.get(x, {}).get(window, (None, None))
        if e is None:
            e = len(node.slots)
            node.slots.append([0, -1, []])
            _put(node, x, window, (child, e))
        slots.append(node.slots[e])
        used.update(types)
    _scan(roots, used, seq, track)
    return counted(zip(candidates, slots), track)


def _count(seeds: list, seq: EventSequence, track: bool, floor: int):
    """A level of ``mine_serial`` from level 3 on, grown from ``seeds`` (see
    the module docstring): the pairs ``(extension, slot)`` counted
    ``floor`` times or more, sorted, and the join's size."""
    roots = dict.fromkeys(seq.alphabet)
    shared: dict[int, tuple] = {}  # id of a suffix's steps -> (its seeds' nodes' children, their reach)
    used, ends, n_candidates = set(), [], 0
    # sorted, so each seed's steps, and the extensions found, come nearly sorted
    for seed, steps in serial_extensions(sorted(seeds)):
        types, windows = seed
        n_candidates += len(steps)
        children = shared.get(id(steps))
        if children is None:
            kids = {}
            for e, (x, window) in enumerate(steps):
                kids.setdefault(x, {})[tuple(window)] = (None, e)
            children = shared[id(steps)] = (kids, max(window[1] for _, window in steps))
            used.update(kids)
        node = _node(roots, types, windows)
        (node.kids, node.reach), node.slots = children, [None] * len(steps)
        used.update(types)
        ends.append((seed, steps, node.slots))
    if ends:
        _scan(roots, used, seq, track)
    found = [(_new(SerialEpisode, (types + (x,), windows + (window,))), slot)
             for (types, windows), steps, slots in ends
             for (x, window), slot in zip(steps, slots) if slot is not None and slot[0] >= floor]
    found.sort(key=itemgetter(0))
    return found, n_candidates


def _scan(roots: dict, used: set, seq: EventSequence, track: bool) -> None:
    """The counting pass over the trie ``roots`` on the stream's columns
    ``seq.labels`` and ``seq.ticks``, reading only the events of the
    ``used`` types; it fills the slots."""
    live: dict[_Node, None] = {}  # nodes with children and a non-empty time list
    labels, ticks = seq.labels, seq.ticks

    for idx in [i for i, x in enumerate(labels) if x in used]:
        x, t = labels[idx], ticks[idx]
        root = roots[x]
        if root is not None:
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
            for (low, high), (child, e) in by_window.items():
                limit = t - low
                for prev in reversed(tl):
                    if prev[0] < limit:
                        if prev[0] >= t - high:
                            if e is not None:  # a candidate ends here
                                slots = node.slots
                                slot = slots[e]
                                if slot is None:  # its first completion
                                    slot = slots[e] = [0, -1, []]
                                if prev[2] > slot[1]:
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


def mine_serial(seq: EventSequence, cfg: MiningConfig, *, jobs: int = 1) -> list[MiningLevel]:
    """Level-wise serial mining (``mine_levels``); returns frequent episodes per size.

    Level 1 is the label counts and level 2 one sweep over the type pairs
    (``episodes.mine_levels``); from level 3 the trie pass counts the
    extensions of the last level's seeds (``_count``). Every pass reads
    the same columns, ``seq.labels`` and ``seq.ticks``. ``jobs`` starts
    no process, as each pass is one sequential scan; the keyword stays so
    that callers passing it keep working.
    """
    if not cfg.candidate_intervals:
        raise ValueError("serial mining needs a non-empty candidate interval set")
    return mine_levels(seq, cfg, _count, cfg.candidate_intervals)
