"""Episode types, the subepisode relation, and level-wise candidate joins.

Two pattern kinds are mined:

* serial episodes: an ordered tuple of event types with one gap window
  per consecutive pair. The window is left-open right-closed, so a gap
  ``g`` matches ``(low, high]`` iff ``low < g <= high``. Windows are part
  of episode identity: the same type chain under two different windows is
  two distinct episodes, counted independently.
* parallel episodes: a multiset of event types (multiplicity matters),
  matched within an expiry span regardless of order.

Candidate growth is level-wise. Serial candidates join a size-k episode's
(k-1)-suffix against another's (k-1)-prefix, types and windows both;
no subset pruning is applied beyond the join because gap windows do not
project onto skipping subepisodes. Parallel candidates use the classic
sorted-prefix join plus full sub-multiset pruning, which is sound because
expiry-constrained non-overlapped frequency is monotone under
sub-multisets.

Mining runs on label keys: a serial key is ``(etypes, ((low, high),
...))``, a parallel key the sorted ``etypes``, so keys sort, rank and join
exactly like their episodes.

One level loop, ``mine_levels``, mines both kinds from their size-1 keys,
counter, key join (``serial_join``, ``parallel_join``) and decoder. Keys
stay keys through counting, ranking, the beam and the join; only the
frequent results of a level become episodes and ``EpisodeCount``s. The
public joins and counters take their episodes' keys, run the same code and
rebuild episodes. Every counting pass reads the stream's columns
(``EventSequence.labels`` and ``ticks``) once, in order, in the calling
process.
"""

from __future__ import annotations

import math
import time as _time
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, Union


@dataclass(frozen=True, order=True)
class Interval:
    """Half-open gap window ``(low, high]`` in ticks, with 0 <= low < high."""

    low: int
    high: int

    def __post_init__(self):
        if not (0 <= self.low < self.high):
            raise ValueError(f"require 0 <= low < high, got ({self.low}, {self.high}]")

    def contains(self, gap: int) -> bool:
        return self.low < gap <= self.high

    def __str__(self) -> str:
        return f"({self.low},{self.high}]"


@dataclass(frozen=True, order=True)
class SerialEpisode:
    """Ordered event types plus one gap window per consecutive pair."""

    etypes: tuple[str, ...]
    intervals: tuple[Interval, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "etypes", tuple(self.etypes))
        object.__setattr__(self, "intervals", tuple(self.intervals))
        if not self.etypes:
            raise ValueError("serial episode needs at least one event type")
        if len(self.intervals) != len(self.etypes) - 1:
            raise ValueError(
                f"{len(self.etypes)}-node serial episode needs "
                f"{len(self.etypes) - 1} intervals, got {len(self.intervals)}"
            )

    @property
    def size(self) -> int:
        return len(self.etypes)

    def __str__(self) -> str:
        parts = [self.etypes[0]]
        for iv, et in zip(self.intervals, self.etypes[1:]):
            parts.append(f"-{iv}-> {et}")
        return " ".join(parts)


@dataclass(frozen=True, order=True)
class ParallelEpisode:
    """Multiset of event types, stored canonically sorted."""

    etypes: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "etypes", tuple(sorted(self.etypes)))
        if not self.etypes:
            raise ValueError("parallel episode needs at least one event type")

    @property
    def size(self) -> int:
        return len(self.etypes)

    def multiplicities(self) -> Counter:
        return Counter(self.etypes)

    def __str__(self) -> str:
        return "{" + " ".join(self.etypes) + "}"


Episode = Union[SerialEpisode, ParallelEpisode]


@dataclass(frozen=True)
class MiningConfig:
    """Knobs shared by the mining drivers.

    ``freq_threshold`` is a fraction of the stream length; the absolute
    floor for a stream of n events is ceil(freq_threshold * n), computed
    exactly, so a threshold of 0 keeps every counted candidate. When
    ``min_count`` is given it replaces the fractional floor outright.
    ``beam_width`` caps how many frequent episodes of one level seed the
    next level's join (None = no cap); counts of retained episodes are
    exact either way.
    """

    freq_threshold: float = 0.0
    max_size: int = 4
    candidate_intervals: tuple[Interval, ...] = ()
    expiry: int = 0
    track_occurrences: bool = False
    min_count: int | None = None
    beam_width: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "candidate_intervals", tuple(self.candidate_intervals))
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
        if self.min_count is not None and self.min_count < 0:
            raise ValueError("min_count must be >= 0")
        if self.beam_width is not None and self.beam_width < 1:
            raise ValueError("beam_width must be >= 1")

    def count_floor(self, n_events: int) -> int:
        if self.min_count is not None:
            return self.min_count
        # exact threshold arithmetic: 0.01 * 25000 must be 250, not 250.0000003
        return math.ceil(Fraction(str(self.freq_threshold)) * n_events)


@dataclass(frozen=True)
class EpisodeCount:
    """A counted episode; occurrences (event-index tuples) only when tracked."""

    episode: Episode
    freq: int
    occurrences: tuple[tuple[int, ...], ...] | None = None

    def __post_init__(self):
        if self.occurrences is not None and len(self.occurrences) != self.freq:
            raise ValueError(
                f"tracked occurrence list length {len(self.occurrences)} != freq {self.freq}"
            )


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


def serial_key(ep: SerialEpisode) -> tuple:
    """The key ``(etypes, ((low, high), ...))`` of a serial episode."""
    return ep.etypes, tuple((iv.low, iv.high) for iv in ep.intervals)


def serial_episode(key: tuple, intervals: dict) -> SerialEpisode:
    """The episode of a serial key; ``intervals`` maps ``(low, high)`` to its Interval."""
    etypes, windows = key
    return SerialEpisode(etypes, tuple(map(intervals.__getitem__, windows)))


def counted(episodes: list, results: list, track: bool) -> list[EpisodeCount]:
    """One ``EpisodeCount`` per episode, from its counting result."""
    return [
        EpisodeCount(ep, *r) if track else EpisodeCount(ep, r) for ep, r in zip(episodes, results)
    ]


def mine_levels(
    candidates: list, cfg: MiningConfig, floor: int, count, join, decode
) -> list[MiningLevel]:
    """Level-wise search from the size-1 keys ``candidates``: count, filter, rank, join.

    ``count(keys)`` gives the keys it counted and a result each, the count
    or ``(count, occurrences)`` if tracked; its time is the level's
    ``seconds``. Keys counted ``floor`` times or more rank by ``(-count,
    key)``, which is ``rank_key``'s order, and only they are decoded
    (``decode(key)`` is the episode). ``join(keys)`` makes the next level's
    keys from the best ``beam_width``. Stops at a level with no frequent
    key or at ``max_size``.
    """
    levels: list[MiningLevel] = []
    size = 1
    while candidates and size <= cfg.max_size:
        t0 = _time.perf_counter()
        keys, results = count(candidates)
        if cfg.track_occurrences:
            ranked = sorted((-f, key, occs) for key, (f, occs) in zip(keys, results) if f >= floor)
        else:
            ranked = sorted((-f, key) for key, f in zip(keys, results) if f >= floor)
        counts = tuple(EpisodeCount(decode(r[1]), -r[0], *r[2:]) for r in ranked)
        levels.append(MiningLevel(size, len(candidates), counts, _time.perf_counter() - t0))
        if not ranked or size == cfg.max_size:
            break
        candidates = join([r[1] for r in ranked[: cfg.beam_width]])
        size += 1
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
        need = beta.multiplicities()
        have = alpha.multiplicities()
        return all(have[t] >= m for t, m in need.items())
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
    """``episodes`` as a list; ValueError if their sizes differ."""
    pool = list(episodes)
    sizes = {ep.size for ep in pool}
    if len(sizes) > 1:
        raise ValueError(f"mixed episode sizes in join input: {sorted(sizes)}")
    return pool


def serial_join(keys: Iterable[tuple], windows: Iterable[tuple[int, int]]) -> list[tuple]:
    """``generate_serial_candidates`` on serial keys of one size; sorted, duplicate-free."""
    pool = list(dict.fromkeys(keys))
    if pool and len(pool[0][0]) == 1:
        firsts = [types for types, _ in pool]
        return sorted({(a + b, (w,)) for a in firsts for b in firsts for w in windows})
    by_prefix: dict[tuple, list] = {}
    for types, wins in pool:
        by_prefix.setdefault((types[:-1], wins[:-1]), []).append((types[-1], wins[-1]))
    # a pair (left, right) determines its candidate, so a duplicate-free pool gives no duplicates
    return sorted(
        (types + (last,), wins + (win,))
        for types, wins in pool
        for last, win in by_prefix.get((types[1:], wins[1:]), ())
    )


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

    The join runs on keys (``serial_join``), as in ``mine_serial``, whose
    counter may prune the size-1 join by hull count (see ``serial``).
    """
    pool = _one_size(frequent)
    by_window = {(iv.low, iv.high): iv for ep in pool for iv in ep.intervals}
    by_window.update({(iv.low, iv.high): iv for iv in intervals})
    windows = [(iv.low, iv.high) for iv in intervals]
    return [serial_episode(key, by_window) for key in serial_join(map(serial_key, pool), windows)]


def parallel_join(keys: Iterable[tuple]) -> list[tuple]:
    """``generate_parallel_candidates`` on parallel keys of one size; sorted, duplicate-free."""
    pool = sorted(set(keys))
    have = set(pool)
    by_prefix: dict[tuple, list[tuple]] = {}
    for key in pool:
        by_prefix.setdefault(key[:-1], []).append(key)
    # prefixes, lefts and rights all ascend, so the output comes out sorted
    out = []
    for group in by_prefix.values():
        for i, left in enumerate(group):
            for right in group[i:]:  # right[-1] >= left[-1]; self-join allowed
                cand = left + right[-1:]
                if all(cand[:j] + cand[j + 1 :] in have for j in range(len(cand))):
                    out.append(cand)
    return out


def generate_parallel_candidates(frequent: Iterable[ParallelEpisode]) -> list[ParallelEpisode]:
    """Sorted-prefix join plus full sub-multiset pruning, one size up, on keys
    (``parallel_join``)."""
    return [ParallelEpisode(key) for key in parallel_join(ep.etypes for ep in _one_size(frequent))]
