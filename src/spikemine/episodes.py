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

One driver, ``mine_levels``, mines both kinds: ``mine_serial`` and
``mine_parallel`` only pass it their size-1 candidates, their counter and
their join. The counters count plain-tuple keys of the candidates in a
``counting_pool``: with ``jobs > 1`` one pool per mining call, whose workers
hold the stream, count chunks that keep all keys of one first event type
(one root of the serial prefix trie) together, and return bare counts.
"""

from __future__ import annotations

import math
import os
import time as _time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager, nullcontext
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


_stream = None  # a pool worker's EventSequence, set once by the pool initializer


def _hold_stream(seq) -> None:
    global _stream
    _stream = seq


def _count_chunk(core, keys: list, args: tuple) -> list:
    return core(keys, _stream, *args)


def pool_size(jobs: int, tasks: int) -> int:
    """Processes for ``tasks`` independent tasks, at most ``jobs`` and the usable CPUs."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return max(1, min(jobs, cpus or 1, tasks))


def root_chunks(roots: Sequence, n: int) -> list[list[int]]:
    """Indices of ``roots`` in at most ``n`` chunks, all indices of one root in one chunk;
    the root groups are dealt largest first, each to the chunk with the fewest indices."""
    groups: dict = {}
    for i, root in enumerate(roots):
        groups.setdefault(root, []).append(i)
    chunks: list[list[int]] = [[] for _ in range(min(n, len(groups)))]
    for group in sorted(groups.values(), key=len, reverse=True):
        min(chunks, key=len).extend(group)
    return chunks


@contextmanager
def counting_pool(seq, jobs: int, roots: Iterable[str]):
    """Yields ``count(candidates, keys, core, track, *args)``: the ``EpisodeCount``s of
    ``candidates`` from ``core(keys, seq, track, *args)``, which gives one count per key,
    or ``(count, occurrences)`` when ``track``.

    ``roots`` holds every first event type a pass may count. With
    ``pool_size(jobs, len(roots)) > 1`` workers, a pass of two root chunks
    or more is counted there, one chunk a worker, and only the bare results
    come back. The workers start at the first such pass and serve every
    later one; each gets the stream once, from the initializer: inherited
    under fork, pickled under spawn.
    """
    workers = pool_size(jobs, len(set(roots)))
    pool = (ProcessPoolExecutor(workers, initializer=_hold_stream, initargs=(seq,))
            if workers > 1 else nullcontext())
    with pool as executor:

        def count(candidates: list, keys: list, core, track: bool, *args) -> list[EpisodeCount]:
            if not keys:
                return []
            chunks = root_chunks([ep.etypes[0] for ep in candidates], workers)
            if len(chunks) < 2:
                results = core(keys, seq, track, *args)
            else:
                futures = [
                    executor.submit(_count_chunk, core, [keys[i] for i in chunk], (track, *args))
                    for chunk in chunks
                ]
                results = [None] * len(keys)
                for chunk, future in zip(chunks, futures):
                    for i, result in zip(chunk, future.result()):
                        results[i] = result
            if track:
                return [EpisodeCount(ep, f, occs) for ep, (f, occs) in zip(candidates, results)]
            return [EpisodeCount(ep, f) for ep, f in zip(candidates, results)]

        yield count


def mine_levels(candidates: list, cfg: MiningConfig, floor: int, count, join) -> list[MiningLevel]:
    """Level-wise search from the size-1 ``candidates``: count, filter, rank, join.

    ``count(candidates)`` gives one ``EpisodeCount`` per candidate (its time
    is the level's ``seconds``); ``join(episodes)`` makes the next level's
    candidates from the best ``beam_width`` episodes counted ``floor`` times
    or more. Stops at a level with none of those or at ``max_size``.
    """
    levels: list[MiningLevel] = []
    size = 1
    while candidates and size <= cfg.max_size:
        t0 = _time.perf_counter()
        counts = count(candidates)
        frequent = sorted((c for c in counts if c.freq >= floor), key=rank_key)
        levels.append(
            MiningLevel(size, len(candidates), tuple(frequent), _time.perf_counter() - t0)
        )
        if not frequent or size == cfg.max_size:
            break
        seeds = frequent[: cfg.beam_width] if cfg.beam_width else frequent
        candidates = join([c.episode for c in seeds])
        size += 1
    return levels


def tracked_occurrences(count: EpisodeCount) -> tuple[tuple[int, ...], ...]:
    """The counted occurrences of one result; error if counting did not track."""
    if count.occurrences is None:
        raise ValueError(f"{count.episode} was counted without occurrence tracking")
    return count.occurrences


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

    This is the ``join`` that ``mine_serial`` hands to ``mine_levels``;
    its counter may prune the size-1 join by hull count (see ``serial``).
    """
    pool = list(frequent)
    if not pool:
        return []
    sizes = {ep.size for ep in pool}
    if len(sizes) != 1:
        raise ValueError(f"mixed episode sizes in join input: {sorted(sizes)}")
    k = sizes.pop()
    out: set[SerialEpisode] = set()
    if k == 1:
        for left in pool:
            for right in pool:
                for iv in intervals:
                    out.add(SerialEpisode((left.etypes[0], right.etypes[0]), (iv,)))
        return sorted(out)
    by_prefix: dict[tuple, list[SerialEpisode]] = {}
    for ep in pool:
        by_prefix.setdefault((ep.etypes[:-1], ep.intervals[:-1]), []).append(ep)
    for left in pool:
        key = (left.etypes[1:], left.intervals[1:])
        for right in by_prefix.get(key, ()):
            out.add(
                SerialEpisode(
                    left.etypes + (right.etypes[-1],),
                    left.intervals + (right.intervals[-1],),
                )
            )
    return sorted(out)


def generate_parallel_candidates(frequent: Iterable[ParallelEpisode]) -> list[ParallelEpisode]:
    """Sorted-prefix join plus full sub-multiset pruning, one size up."""
    pool = sorted(set(frequent))
    if not pool:
        return []
    sizes = {ep.size for ep in pool}
    if len(sizes) != 1:
        raise ValueError(f"mixed episode sizes in join input: {sorted(sizes)}")
    have = {ep.etypes for ep in pool}
    out: set[ParallelEpisode] = set()
    by_prefix: dict[tuple, list[tuple[str, ...]]] = {}
    for ep in pool:
        by_prefix.setdefault(ep.etypes[:-1], []).append(ep.etypes)
    for group in by_prefix.values():
        for i, left in enumerate(group):
            for right in group[i:]:  # right[-1] >= left[-1]; self-join allowed
                cand = left + (right[-1],)
                if all(cand[:j] + cand[j + 1 :] in have for j in range(len(cand))):
                    out.add(ParallelEpisode(cand))
    return sorted(out)
