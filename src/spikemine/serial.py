"""Non-overlapped counting of gap-constrained serial episodes.

Candidates are ``SerialEpisode``s, named tuples ``(etypes, intervals)``,
counted over the stream's columns of labels and ticks, so trie roots are
a dict keyed by label.

One counting pass holds all candidates of 2 or more nodes in a prefix
trie: one root node per first type, and under a node one step per next
type and window ``(low, high)``. A node stands for one prefix, its event
types and its gap windows. A step leads to a node only where a longer
candidate goes on, and holds an index into its node's slots only where a
candidate ends. Candidates that share a prefix share its node. A node's
entries ``(time, index, start, back)`` are the events of its last type
that end a gap-valid chain of the prefix:

* at depth 1 every event of the type, with ``start`` its own index;
* at child ``prefix -(low, high]-> x``, an event of type ``x`` at time
  ``t`` iff the parent has an entry in ``[t - high, t - low)``. The new
  entry copies the ``start`` of the latest such entry and links it as
  ``back``.

``start`` is thus the first event of the entry's latest-starting chain,
and it never decreases along a node's entries: a later event's window
ends later, so its latest parent entry is no earlier. So the latest
entry in a window carries the largest ``start`` of all entries in it.

Each distinct candidate has the slot of the step it ends at: its count,
its watermark (the index of its last completion) and its occurrences.
When mining, a slot is made only at its candidate's first completion.
Counted occurrences must not overlap, so an event completes the
candidate iff the latest entry in its last window has ``start >
watermark``: by the monotone ``start``, no other entry there has a later
chain. So it completes at the earliest event that ends a valid
occurrence after its last one, and earliest-completion greedy gives the
maximum number of non-overlapped occurrences (the randomized oracle
suite checks this exactly). Following ``back`` from a completion
recovers its occurrence: the latest event at each node, walking back.

The pass holds the entries of all nodes in one deque, oldest first, each
with its node. An event at ``t`` drops the entries before ``t - reach``
(``reach``, the largest ``high`` of the pass, puts them outside every
window from now on), walks the rest newest first, and at each entry
whose node has a step of its type with ``low < gap <= high`` completes
the step's slot or makes the child's entry; then it appends the entries
made and, if its type has a root, the root's own. No node is visited as
such, and the walk keeps the rules above exactly:

* the first entry of a node that it finds in a step's window is the
  node's latest there, as it meets a node's entries newest first;
* an older entry of that node in that window cannot complete the slot
  again: its ``start`` is no larger, and the watermark is now this event
  if the latest one completed;
* a node keeps the index of the event that made its latest entry
  (``last``), so a child gets one entry per event, from the latest
  parent entry.

Walk order among nodes cannot change a count, as an entry made at tick
``t`` is in no window ``[t - high, t - low)`` of an event at ``t``
(``low >= 0``). The pass reads only the events of types some candidate
uses: any other would only drop entries, which the next event read drops
anyway, so the deque stays bounded by the window population.

``mine_serial`` counts levels 1 and 2 without this pass
(``episodes.mine_levels``) and from level 3 on grows each level from its
seeds, the best episodes of the last level, with no join list
(``_count``): the trie holds the seeds that the suffix-prefix join
extends (``episodes.serial_extensions``), and a seed's node gets as
children the last steps of the seeds whose prefix is its suffix, shared
by every seed with that suffix, with a slot of its own for each made at
the extension's first completion. ``count_serial_constrained`` builds
the trie from explicit candidates of 2 or more nodes (``_slots``).

A narrow level also counts the levels after it, after dynamic itemset
counting (Brin, Motwani, Ullman and Tsur, SIGMOD 1997). If a level's join
has no more members than the alphabet has types, its pass takes the
speculative joins too: the join of the join, and so on up to
``max_size``, while each is non-empty and no larger than the one before.
It counts them all in one explicit-candidate trie (``_slots``). This is
exact: the next level's seeds are members of this join, so its real join
is a subset of the speculative one, and each slot holds its own
candidate's count and occurrences. A level counted ahead runs no pass; it
reads its real join's slots, so its results and ``n_candidates`` are what
a pass of its own would give. At a dense level the rule costs one
comparison: the join has a member per seed it extends, so more such seeds
than types rule the level out before any join is sized or built.
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
    generate_serial_candidates,
    label_counts,
    mine_levels,
    serial_extensions,
)
from .events import EventSequence

_new = tuple.__new__  # builds a named tuple without its checks


class _Node:
    """One prefix: the steps to its children, their slots and its last entry's event."""

    __slots__ = ("kids", "slots", "last")

    def __init__(self):
        self.kids = {}      # event type -> {(low, high): (child node or None, index into slots or None)}
        self.slots = []     # the slots of the candidates that end at a step, or None before one completes
        self.last = -1      # index of the event that made this node's latest entry


def _put(node: _Node, x, window, step: tuple) -> None:
    """Set ``node``'s step ``-window-> x`` to ``(child, e)``."""
    # a plain pair: the scan unpacks exact tuples faster than Intervals
    node.kids.setdefault(x, {})[tuple(window)] = step


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

    Candidates that share a prefix share its node and entries, and equal
    candidates share one slot; each count is still the candidate's own
    (see the module docstring). A 1-node candidate takes its label count
    (``episodes.label_counts``) and stays out of the pass. ``jobs`` starts
    no process: the pass reads the stream once, in order; the keyword
    stays so that callers passing it keep working.
    """
    candidates = list(candidates)
    track = bool(cfg and cfg.track_occurrences)
    longer = [ep for ep in candidates if len(ep[0]) > 1]
    ones = label_counts(seq, track) if len(longer) < len(candidates) else {}
    passed = iter(_slots(longer, seq, track))
    slots = [next(passed) if len(types) > 1 else ones.get(types[0]) or [0, -1, []] for types, _ in candidates]
    return counted(zip(candidates, slots), track)


def _slots(candidates: list, seq: EventSequence, track: bool) -> list:
    """The slot of each candidate of 2 or more nodes, in order, from one
    pass over a trie of them all."""
    roots = dict.fromkeys(seq.alphabet)  # a type outside the alphabet gets a root no event reaches
    slots, used, reach = [], set(), 0
    for types, windows in candidates:
        node = _node(roots, types[:-1], windows[:-1])
        x, window = types[-1], windows[-1]
        child, e = node.kids.get(x, {}).get(window, (None, None))
        if e is None:
            e = len(node.slots)
            node.slots.append([0, -1, []])
            _put(node, x, window, (child, e))
        slots.append(node.slots[e])
        used.update(types)
        reach = max(reach, *(w[1] for w in windows))
    _scan(roots, used, reach, seq, track)
    return slots


def _count(seeds: list, seq: EventSequence, track: bool, floor: int, ahead: dict, max_size: int):
    """A level of ``mine_serial`` from level 3 on, grown from ``seeds`` (see
    the module docstring): the pairs ``(extension, slot)`` counted
    ``floor`` times or more, sorted, and the join's size.

    ``ahead`` maps each size that an earlier pass of the same mining
    counted ahead to the slots of that pass; such a level is read from
    them, with no pass. A narrow level counts the speculative joins of the
    sizes after it, up to ``max_size``, in its own pass and files them in
    ``ahead``."""
    size = len(seeds[0][0]) + 1
    slot_of = ahead.pop(size, None)
    if slot_of is not None:
        join = generate_serial_candidates(seeds)
        return [(ep, slot_of[ep]) for ep in join if slot_of[ep][0] >= floor], len(join)
    # sorted, so each seed's steps, and the extensions found, come nearly sorted
    extensions = serial_extensions(sorted(seeds))
    n_types, levels = len(seq.alphabet), []
    # each seed listed has a step, so its length alone rules out a dense level
    if (size < max_size and len(extensions) <= n_types
            and sum(len(steps) for _, steps in extensions) <= n_types):
        levels = [generate_serial_candidates(seeds)]
        while size + len(levels) <= max_size:
            pool = levels[-1]
            if not 0 < sum(len(steps) for _, steps in serial_extensions(pool)) <= len(pool):
                break
            levels.append(generate_serial_candidates(pool))
    if len(levels) > 1:
        flat = [ep for level in levels for ep in level]
        slot_of = dict(zip(flat, _slots(flat, seq, track)))
        ahead.update(dict.fromkeys(range(size + 1, size + len(levels)), slot_of))
        return [(ep, slot_of[ep]) for ep in levels[0] if slot_of[ep][0] >= floor], len(levels[0])
    roots = dict.fromkeys(seq.alphabet)
    shared: dict[int, dict] = {}  # id of a suffix's steps -> its seeds' nodes' children
    used, ends, n_candidates, reach = set(), [], 0, 0
    for seed, steps in extensions:
        types, windows = seed
        n_candidates += len(steps)
        kids = shared.get(id(steps))
        if kids is None:
            kids = shared[id(steps)] = {}
            for e, (x, window) in enumerate(steps):
                kids.setdefault(x, {})[tuple(window)] = (None, e)
                reach = max(reach, window[1])
            used.update(kids)
        node = _node(roots, types, windows)
        node.kids, node.slots = kids, [None] * len(steps)
        used.update(types)
        reach = max(reach, *(w[1] for w in windows))
        ends.append((seed, steps, node.slots))
    if ends:
        _scan(roots, used, reach, seq, track)
    found = [(_new(SerialEpisode, (types + (x,), windows + (window,))), slot)
             for (types, windows), steps, slots in ends
             for (x, window), slot in zip(steps, slots) if slot is not None and slot[0] >= floor]
    found.sort(key=itemgetter(0))
    return found, n_candidates


def _scan(roots: dict, used: set, reach: int, seq: EventSequence, track: bool) -> None:
    """The counting pass over the trie ``roots`` on the stream's columns
    ``seq.labels`` and ``seq.ticks``, reading only the events of the ``used``
    types; it fills the slots. ``reach`` is the largest ``high`` of the
    trie's windows (see the module docstring)."""
    recent = deque()  # (t, idx, start, back, node's kids, node), oldest first
    append, popleft = recent.append, recent.popleft
    labels, ticks = seq.labels, seq.ticks

    for idx in [i for i, x in enumerate(labels) if x in used]:
        x, t = labels[idx], ticks[idx]
        while recent and recent[0][0] < t - reach:
            popleft()
        made = []
        for prev in reversed(recent):
            by_window = prev[4].get(x)
            if by_window is None:
                continue
            gap = t - prev[0]
            for (low, high), (child, e) in by_window.items():
                if low < gap <= high:
                    if e is not None:  # a candidate ends here
                        slots = prev[5].slots
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
                    if child is not None and child.last != idx:  # this node's latest entry in the window
                        child.last = idx
                        made.append((t, idx, prev[2], prev if track else None, child.kids, child))
        root = roots[x]
        if root is not None:
            made.append((t, idx, idx, None, root.kids, root))
        for entry in made:
            append(entry)


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
    ahead: dict = {}  # the levels a pass of this call counted ahead, by size
    return mine_levels(seq, cfg, lambda seeds, *args: _count(seeds, *args, ahead, cfg.max_size),
                       cfg.candidate_intervals)
