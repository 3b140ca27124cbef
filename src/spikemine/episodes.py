"""Episode types, the subepisode relation, and level-wise candidate joins.

Two pattern kinds are mined:

* serial episodes: an ordered tuple of event types with one gap window
  per consecutive pair. The window is left-open right-closed, so a gap
  ``g`` matches ``(low, high]`` iff ``low < g <= high``. Windows are part
  of episode identity: one type chain under two windows is two episodes.
* parallel episodes: a multiset of event types (multiplicity matters),
  matched within an expiry span regardless of order.

``Interval``, ``SerialEpisode`` and ``ParallelEpisode`` are validated
named tuples, ``(low, high)``, ``(etypes, intervals)`` and ``(etypes,)``,
so an episode sorts, hashes and compares as its tuple and is itself the
key the counters file and the joins match on.

Candidate growth is level-wise. Serial candidates join a size-k episode's
(k-1)-suffix against another's (k-1)-prefix, types and windows both,
with no subset pruning, as gap windows do not project onto skipping
subepisodes. Parallel candidates use the sorted-prefix join plus full
sub-multiset pruning, sound because expiry-constrained non-overlapped
frequency is monotone under sub-multisets. The join of valid episodes is
valid, so the joins build with ``tuple.__new__`` and skip the checks.

One level loop, ``mine_levels``, mines both kinds. It works out the
count floor, takes level 1 from the label counts and level 2 from one
sweep over the type pairs (``count_pairs``: integer type codes, an index
row of pair slots per type, flat counters, or dicts for wide alphabets,
and no walk for an event with nothing in reach). From level 3 on it
hands the miner's ``grow`` each level's seeds: serial mining grows their
extensions (``serial_extensions``) in its trie pass (``serial``), and
parallel mining counts the join ``generate_parallel_candidates``. Every
pass reads the stream's columns (``EventSequence.labels`` and ``ticks``)
in order, in the calling process; from level 3 on, only the events whose
type some candidate uses.
"""

from __future__ import annotations

import gc
import math
import time as _time
from collections import Counter, defaultdict, namedtuple
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter
from typing import Iterable, Sequence, Union

_new = tuple.__new__  # builds a named tuple without its checks


# ``_make``, and so ``_replace``, build through ``__new__`` and its checks
_checked_make = classmethod(lambda cls, fields: cls(*fields))


class Interval(namedtuple("Interval", "low high")):
    """Half-open gap window ``(low, high]`` in ticks, with 0 <= low < high."""

    __slots__ = ()
    _make = _checked_make

    def __new__(cls, low: int, high: int):
        if not (0 <= low < high):
            raise ValueError(f"require 0 <= low < high, got ({low}, {high}]")
        return _new(cls, (low, high))

    def __str__(self) -> str:
        return f"({self.low},{self.high}]"


class SerialEpisode(namedtuple("SerialEpisode", "etypes intervals")):
    """Ordered event types plus one gap window per consecutive pair."""

    __slots__ = ()
    _make = _checked_make

    def __new__(cls, etypes: Iterable[str], intervals: Iterable = ()):
        etypes = tuple(etypes)
        intervals = tuple(Interval(*iv) for iv in intervals)
        if not etypes:
            raise ValueError("serial episode needs at least one event type")
        if len(intervals) != len(etypes) - 1:
            raise ValueError(
                f"{len(etypes)}-node serial episode needs "
                f"{len(etypes) - 1} intervals, got {len(intervals)}"
            )
        return _new(cls, (etypes, intervals))

    @property
    def size(self) -> int:
        return len(self.etypes)

    def __str__(self) -> str:
        parts = [self.etypes[0]]
        for iv, et in zip(self.intervals, self.etypes[1:]):
            parts.append(f"-{iv}-> {et}")
        return " ".join(parts)


class ParallelEpisode(namedtuple("ParallelEpisode", "etypes")):
    """Multiset of event types, stored canonically sorted."""

    __slots__ = ()
    _make = _checked_make

    def __new__(cls, etypes: Iterable[str]):
        etypes = tuple(sorted(etypes))
        if not etypes:
            raise ValueError("parallel episode needs at least one event type")
        return _new(cls, (etypes,))

    @property
    def size(self) -> int:
        return len(self.etypes)

    def __str__(self) -> str:
        return "{" + " ".join(self.etypes) + "}"


Episode = Union[SerialEpisode, ParallelEpisode]


@dataclass(frozen=True)
class MiningConfig:
    """Knobs shared by the mining drivers.

    ``freq_threshold`` is a fraction of the stream length; the absolute
    floor for a stream of n events is ceil(freq_threshold * n), computed
    exactly, and at least 1: a frequent episode occurs at least once, so
    the default threshold of 0 keeps every episode that occurs. When
    ``min_count`` (at least 1) is given it replaces the fractional floor.
    ``beam_width`` caps how many frequent episodes of one level seed the
    next level's join (None = no cap); counts of retained episodes are
    exact either way. Each ``candidate_intervals`` entry may be any
    ``(low, high)`` pair; it is checked and kept as an ``Interval``.
    """

    freq_threshold: float = 0.0
    max_size: int = 4
    candidate_intervals: tuple[Interval, ...] = ()
    expiry: int = 0
    track_occurrences: bool = False
    min_count: int | None = None
    beam_width: int | None = None

    def __post_init__(self):
        object.__setattr__(
            self, "candidate_intervals", tuple(Interval(*iv) for iv in self.candidate_intervals)
        )
        if not (0.0 <= self.freq_threshold <= 1.0):
            raise ValueError(f"freq_threshold must be in [0,1], got {self.freq_threshold}")
        if self.max_size < 1:
            raise ValueError("max_size must be >= 1")
        ivs = self.candidate_intervals
        for prev, cur in zip(ivs, ivs[1:]):
            if cur.low < prev.high:
                raise ValueError(f"candidate intervals must be disjoint and sorted: {prev} vs {cur}")
        if self.expiry < 0:
            raise ValueError("expiry must be >= 0")
        if self.min_count is not None and self.min_count < 1:
            raise ValueError("min_count must be >= 1")
        if self.beam_width is not None and self.beam_width < 1:
            raise ValueError("beam_width must be >= 1")

    def count_floor(self, n_events: int) -> int:
        if self.min_count is not None:
            return self.min_count
        # exact threshold arithmetic: 0.01 * 25000 must be 250, not 250.0000003
        return max(1, math.ceil(Fraction(str(self.freq_threshold)) * n_events))


class EpisodeCount(namedtuple("EpisodeCount", "episode freq occurrences", defaults=(None,))):
    """A counted episode; occurrences (event-index tuples) only when tracked."""

    __slots__ = ()
    _make = _checked_make

    def __new__(cls, episode: Episode, freq: int, occurrences: tuple | None = None):
        if occurrences is not None and len(occurrences) != freq:
            raise ValueError(
                f"tracked occurrence list length {len(occurrences)} != freq {freq}"
            )
        return _new(cls, (episode, freq, occurrences))


@dataclass(frozen=True)
class MiningLevel:
    """Frequent episodes of one size, with the pass cost for the level."""

    size: int
    n_candidates: int
    counts: tuple[EpisodeCount, ...]
    seconds: float


def rank_key(count: EpisodeCount):
    """Result order within a level: descending frequency, then episode."""
    return (-count.freq, count.episode)


def counted(found, track: bool) -> list[EpisodeCount]:
    """One ``EpisodeCount`` per ``(episode, slot)``, from the slot ``(count,
    watermark, occurrences)``; the occurrences only if ``track``."""
    if track:
        return [_new(EpisodeCount, (ep, slot[0], tuple(slot[2]))) for ep, slot in found]
    return [_new(EpisodeCount, (ep, slot[0], None)) for ep, slot in found]


def label_counts(seq, track: bool) -> dict[str, list]:
    """Each alphabet type's 1-node episode slot ``[count, watermark,
    occurrences]``, in type order: every event ``i`` completes the episode
    of its type, tracked as the occurrence ``(i,)``."""
    n, at = Counter(seq.labels), defaultdict(list)
    if track:
        for i, x in enumerate(seq.labels):
            at[x].append((i,))
    return {x: [n[x], None, at[x]] for x in sorted(seq.alphabet)}


class _Row(dict):
    """Type ``a``'s sparse index row: its slot for code ``x``, made at first use."""

    def __init__(self, a, m, w, ordered):
        self.a, self.m, self.w, self.ordered = a, m, w, ordered

    def __missing__(self, x):
        a, m = self.a, self.m
        s = self[x] = (a * m + x) * self.w if self.ordered else x * m + a if x < a else a * m + x
        return s


def count_pairs(seq, seeds, track: bool, floor: int, windows: Sequence[Interval] = (),
                expiry: int = 0):
    """Level 2 of the 1-node ``seeds``' types in one sweep: serial pairs
    under the sorted, disjoint ``windows``, or, with none, parallel ones.

    Types are coded ``0..m-1`` in label order, and each pair of codes has a
    slot per window, numbered in episode order: ``(a * m + x) * w + k`` for
    serial ``a -(k)-> x`` under ``w`` windows, ``min * m + max`` for
    parallel ``{a x}``. Each event carries its type's index row, so
    ``row[x] + k`` is a slot. For event ``j`` of type ``x`` at tick ``t``
    the sweep walks the earlier events ``i`` at ticks from ``t - reach``
    (the highest ``high``, or ``expiry``), if any. A slot completes at
    ``j`` with ``i`` iff ``i`` is past its watermark, which becomes ``j``:
    the counting passes' earliest-completion rule. A serial walk goes
    backward, so an occurrence takes the latest ``a`` in the gap's window
    (a pointer that only moves forward), as the trie's ``back`` chain does;
    a parallel one forward (for ``{x x}``, ``i`` is the other ``x``), so it
    takes the earliest usable ``a`` within ``expiry``, as
    ``parallel._count`` does. Counts, watermarks and occurrences are flat
    lists while the slots number at most 4 per event, else dicts with
    ``_Row`` rows, holding only the pairs that occur; nothing is kept per
    tick of gap. It gives the pairs ``(episode, slot)`` of seed types
    counted ``floor`` times or more, sorted, and the join size for ``n``
    seeds: ``n * n * w`` or ``n * (n + 1) / 2``.
    """
    ticks, spans = seq.ticks, windows or ((-1, expiry),)  # integer ticks: gaps (-1, expiry]
    lows, highs = [low for low, _ in spans], [high for _, high in spans]
    types, w, reach = sorted(seq.alphabet), len(spans), highs[-1]
    m, code = len(types), {x: c for c, x in enumerate(types)}
    if flat := m * m * w <= 4 * len(ticks):
        rows = [list(range(a * m * w, (a + 1) * m * w, w)) if windows
                else [*range(a, a * m, m), *range(a * m + a, a * m + m)] for a in range(m)]
        counts, free = [0] * (m * m * w), [0] * (m * m * w)
        occs = [[] for _ in counts] if track else None
    else:
        rows = [_Row(a, m, w, bool(windows)) for a in range(m)]
        counts, free, occs = defaultdict(int), defaultdict(int), defaultdict(list)
    codes = list(map(code.__getitem__, seq.labels))
    row_at = list(map(rows.__getitem__, codes))
    lo = 0
    for j, t in enumerate(ticks):
        while ticks[lo] < t - reach:
            lo += 1
        if lo == j:
            continue
        x, k, after = codes[j], 0, j + 1
        for i in range(j - 1, lo - 1, -1) if windows else range(lo, j):
            gap = t - ticks[i]
            while gap > highs[k]:
                k += 1
            if gap > lows[k]:
                s = row_at[i][x] + k
                if i >= free[s]:  # i is past the watermark, free[s] - 1
                    counts[s] += 1
                    free[s] = after
                    if track:
                        occs[s].append((i, j))
    seeded, found = {code[ep.etypes[0]] for ep in seeds}, []
    for s in sorted(s for s, n in (enumerate(counts) if flat else counts.items()) if n >= floor):
        (a, x), k = divmod(s // w, m), s % w
        if a in seeded and x in seeded:
            key = (types[a], types[x])
            ep = _new(SerialEpisode, (key, (spans[k],))) if windows else _new(ParallelEpisode, (key,))
            found.append((ep, (counts[s], None, occs[s] if track else None)))
    return found, len(seeded) ** 2 * w if windows else math.comb(len(seeded) + 1, 2)


def mine_levels(seq, cfg: MiningConfig, grow, windows: Sequence[Interval] = (),
                expiry: int = 0) -> list[MiningLevel]:
    """Level-wise search: count each level from the last one's seeds, keep
    those at the count floor ``cfg.count_floor(len(seq))``, rank.

    A level's seeds are the best ``beam_width`` episodes of the last
    level. Level 1 is ``label_counts``, level 2 ``count_pairs`` under the
    gap ``windows`` (serial) or, with none, under ``expiry`` (parallel),
    and from level 3 on ``grow(seeds, seq, track, floor)``. Each gives the
    pairs ``(episode, slot)`` counted ``floor`` times or more, sorted by
    episode, and the size of the seeds' join, the level's
    ``n_candidates``; its time is the level's ``seconds``. The episodes
    rank by count, highest first, in one stable sort, so ties keep episode
    order and the ranking is ``rank_key``'s. Stops at an empty join, at a
    level with no frequent episode or at ``max_size``.

    The loop pauses the cyclic garbage collector and, on return or raise,
    turns it back on only if it was on at entry. Mining makes no reference
    cycles (a trie node points only to its children, an entry only to its
    node and by ``back`` to an earlier entry, slots hold lists of tuples),
    so a collection would only walk the trie, entries and results again.
    The pause is process-wide: a thread running beside the call finds the
    collector off until the call returns.
    """
    floor, track = cfg.count_floor(len(seq)), cfg.track_occurrences
    kind = SerialEpisode if windows else ParallelEpisode
    levels: list[MiningLevel] = []
    seeds: list = []
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for size in range(1, cfg.max_size + 1):
            t0 = _time.perf_counter()
            if size == 1:
                slots = label_counts(seq, track)
                found = [(kind((x,)), slot) for x, slot in slots.items() if slot[0] >= floor]
                n_candidates = len(slots)
            elif size == 2:
                found, n_candidates = count_pairs(seq, seeds, track, floor, windows, expiry)
            else:
                found, n_candidates = grow(seeds, seq, track, floor)
            if not n_candidates:
                break
            ranked = sorted(counted(found, track), key=itemgetter(1), reverse=True)
            levels.append(MiningLevel(size, n_candidates, tuple(ranked), _time.perf_counter() - t0))
            if not ranked:
                break
            seeds = [c.episode for c in ranked[: cfg.beam_width]]
    finally:
        if was_enabled:
            gc.enable()
    return levels


def is_subepisode(beta: Episode, alpha: Episode) -> bool:
    """Type-structure embedding test; serial gap windows are ignored.

    Serial: beta's type list is a subsequence of alpha's (order kept).
    Parallel: beta's multiset is contained in alpha's.
    """
    if isinstance(beta, SerialEpisode) and isinstance(alpha, SerialEpisode):
        it = iter(alpha.etypes)
        return all(t in it for t in beta.etypes)
    if isinstance(beta, ParallelEpisode) and isinstance(alpha, ParallelEpisode):
        return Counter(beta.etypes) <= Counter(alpha.etypes)
    raise TypeError(
        f"cannot compare {type(beta).__name__} against {type(alpha).__name__}"
    )


def bootstrap_serial(alphabet: Iterable[str]) -> list[SerialEpisode]:
    """All 1-node serial episodes over an alphabet.

    1-node episodes carry no gap windows; windows enter at the 1 -> 2 join
    (see generate_serial_candidates).
    """
    return [SerialEpisode((t,)) for t in sorted(alphabet)]


def _one_size(episodes: Iterable[Episode]) -> list[Episode]:
    """``episodes`` without repeats, as a list; ValueError if their sizes differ."""
    pool = list(dict.fromkeys(episodes))
    sizes = {len(ep.etypes) for ep in pool}
    if len(sizes) > 1:
        raise ValueError(f"mixed episode sizes in join input: {sorted(sizes)}")
    return pool


def generate_serial_candidates(
    frequent: Iterable[SerialEpisode], intervals: Sequence[Interval] = ()
) -> list[SerialEpisode]:
    """Suffix-prefix join of equal-size serial episodes, one size up.

    For size k >= 2: every ordered pair (left, right) whose (k-1)-suffix
    of left equals the (k-1)-prefix of right -- event types and windows
    both -- yields left's k types and k-1 windows followed by right's
    last type and last window. Self-pairs are allowed, so repeated-type
    chains like A -> A -> A are reachable. For size 1 the overlap is
    empty and every ordered type pair is emitted once per candidate
    window in ``intervals``. Output is duplicate-free and sorted.
    """
    pool = _one_size(frequent)
    if pool and len(pool[0].etypes) == 1:
        # a product of sorted, distinct factors comes out sorted and distinct
        firsts = sorted(ep.etypes[0] for ep in pool)
        windows = [(w,) for w in sorted({Interval(*iv) for iv in intervals})]
        return [_new(SerialEpisode, ((a, b), w)) for a in firsts for b in firsts for w in windows]
    # a pair (left, right) determines its candidate, so a duplicate-free pool gives no duplicates
    return sorted(
        _new(SerialEpisode, (types + (last,), wins + (win,)))
        for (types, wins), steps in serial_extensions(pool)
        for last, win in steps
    )


def serial_extensions(pool: Sequence[SerialEpisode]) -> list[tuple]:
    """The suffix-prefix join of distinct serial episodes of one size k >= 2:
    each left side in ``pool`` order, with the last steps ``(type, window)``
    of the episodes whose (k-1)-prefix is its (k-1)-suffix, one list per
    suffix."""
    steps_of: dict[tuple, list] = {}  # a prefix -> the last steps of the episodes with it
    for types, windows in pool:
        steps_of.setdefault((types[:-1], windows[:-1]), []).append((types[-1], windows[-1]))
    return [(ep, steps) for ep in pool if (steps := steps_of.get((ep.etypes[1:], ep.intervals[1:])))]


def generate_parallel_candidates(frequent: Iterable[ParallelEpisode]) -> list[ParallelEpisode]:
    """Sorted-prefix join plus full sub-multiset pruning, one size up; sorted, duplicate-free."""
    pool = sorted(ep.etypes for ep in _one_size(frequent))
    have = set(pool)
    by_prefix: dict[tuple, list[tuple]] = {}
    for types in pool:
        by_prefix.setdefault(types[:-1], []).append(types)
    # prefixes, lefts and rights all ascend, so the output comes out sorted
    out = []
    for group in by_prefix.values():
        for i, left in enumerate(group):
            for right in group[i:]:  # right[-1] >= left[-1]; self-join allowed
                cand = left + right[-1:]
                if all(cand[:j] + cand[j + 1 :] in have for j in range(len(cand))):
                    out.append(_new(ParallelEpisode, (cand,)))
    return out
