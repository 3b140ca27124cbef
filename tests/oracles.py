"""Brute-force reference implementations used as test oracles.

These enumerate every constraint-valid occurrence of an episode as an
index tuple and then take the maximum set of pairwise non-overlapped
occurrences by earliest-completion greedy (occurrences are index
intervals [first, last]; non-overlap means one ends strictly before the
other starts, so greedy by end index is optimal). They share no code with
the counting engines under test; only bisect narrows the enumeration
windows, membership decisions are spelled out directly.

``simulate_oracle`` is the network simulator's reference: it decides one
step at a time, computing every step's input, rate and refractory mask.

``quantize_oracle`` is the spike-CSV stamp rule in exact rational
arithmetic: the nearest tick, ties up.

``reference_levels`` and ``reference_synfire`` are the level-wise miners
on episode objects: joins of episodes (``serial_join_oracle``,
``parallel_join_oracle``), ranking by ``(-freq, episode)`` and the beam,
with every count (and tracked occurrence) from the brute-force oracles.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left, bisect_right
from collections import Counter, defaultdict
from dataclasses import replace
from decimal import Decimal
from fractions import Fraction
from itertools import combinations

import numpy as np

from spikemine import (
    EpisodeCount,
    Event,
    EventSequence,
    Interval,
    ParallelEpisode,
    SerialEpisode,
    is_subepisode,
    rewrite_stream,
)
from spikemine.simulator import update_rates


def _positions_by_type(seq):
    positions = defaultdict(list)
    for idx, ev in enumerate(seq.events):
        positions[ev.etype].append(idx)
    return positions


def enumerate_serial_occurrences(episode, seq):
    """Every index tuple matching the type chain with all gaps in-window."""
    positions = _positions_by_type(seq)
    times = {t: [seq.events[i].time for i in idxs] for t, idxs in positions.items()}
    results = []

    def extend(chain, depth):
        if depth == episode.size:
            results.append(tuple(chain))
            return
        window = episode.intervals[depth - 1]
        t_prev = seq.events[chain[-1]].time
        etype = episode.etypes[depth]
        tlist = times.get(etype, [])
        lo = bisect_right(tlist, t_prev + window.low)   # gap > low
        hi = bisect_right(tlist, t_prev + window.high)  # gap <= high
        for k in range(lo, hi):
            extend(chain + [positions[etype][k]], depth + 1)

    for idx in positions.get(episode.etypes[0], []):
        extend([idx], 1)
    return results


def _windowed_combos(indices, times, mult, expiry):
    """All index combos of one type with internal span <= expiry,
    as (combo, t_first, t_last), sorted by t_first."""
    combos = []
    for a, anchor in enumerate(indices):
        t0 = times[a]
        end = bisect_right(times, t0 + expiry)
        rest = indices[a + 1 : end]
        if mult == 1:
            combos.append(((anchor,), t0, t0))
            continue
        for tail in combinations(range(len(rest)), mult - 1):
            combo = (anchor,) + tuple(rest[i] for i in tail)
            combos.append((combo, t0, times[a + 1 + tail[-1]]))
    return combos


def enumerate_parallel_occurrences(episode, seq, expiry):
    """Every index tuple matching the multiset with span <= expiry."""
    positions = _positions_by_type(seq)
    needed = sorted(Counter(episode.etypes).items())
    per_type = []
    for etype, mult in needed:
        idxs = positions.get(etype, [])
        tlist = [seq.events[i].time for i in idxs]
        combos = _windowed_combos(idxs, tlist, mult, expiry)
        if not combos:
            return []
        per_type.append((combos, [c[1] for c in combos]))
    results = []

    def extend(i, chosen, t_lo, t_hi):
        if i == len(per_type):
            results.append(tuple(sorted(chosen)))
            return
        combos, firsts = per_type[i]
        # survivors need t_first >= t_hi - expiry and t_first <= t_lo + expiry
        start = bisect_left(firsts, t_hi - expiry) if chosen else 0
        for k in range(start, len(combos)):
            combo, lo, hi = combos[k]
            if chosen and lo > t_lo + expiry:
                break
            new_lo = min(t_lo, lo)
            new_hi = max(t_hi, hi)
            if new_hi - new_lo <= expiry:
                extend(i + 1, chosen + list(combo), new_lo, new_hi)

    extend(0, [], float("inf"), float("-inf"))
    return results


def max_nonoverlapped(occurrences, key=lambda o: (o[-1], o[0])):
    """Greedy earliest-end selection of index-disjoint occurrences; ``key``
    orders them by end first and breaks the ties."""
    chosen = []
    last_end = -1
    for occ in sorted(occurrences, key=key):
        if occ[0] > last_end:
            chosen.append(occ)
            last_end = occ[-1]
    return chosen


def serial_oracle_count(episode, seq):
    return len(max_nonoverlapped(enumerate_serial_occurrences(episode, seq)))


def serial_oracle_occurrences(episode, seq):
    """The occurrences a tracked serial count reports, in order.

    Repeatedly takes, among the valid occurrences that start after the last
    one taken ends, the earliest-ending one; ties go to the latest event at
    the second-to-last node, then at the node before it, walking back.
    """
    def preference(occ):
        return (occ[-1],) + tuple(-idx for idx in reversed(occ[:-1]))

    return tuple(max_nonoverlapped(enumerate_serial_occurrences(episode, seq), preference))


def parallel_oracle_count(episode, seq, expiry):
    return len(max_nonoverlapped(enumerate_parallel_occurrences(episode, seq, expiry)))


def parallel_oracle_occurrences(episode, seq, expiry):
    """The occurrences a tracked parallel count reports, in order.

    Repeatedly takes, among the valid occurrences that start after the last
    one taken ends, the earliest-ending one; ties go to the lexicographically
    smallest index tuple.
    """
    occurrences = enumerate_parallel_occurrences(episode, seq, expiry)
    return tuple(max_nonoverlapped(occurrences, key=lambda o: (o[-1], o)))


# ---------------------------------------------------------------------------
# level-wise mining on episode objects


def serial_join_oracle(frequent, intervals=()):
    """Suffix-prefix join of equal-size serial episodes; size 1 pairs every
    two types once per window. Sorted, duplicate-free."""
    pool = set(frequent)
    out = set()
    for left in pool:
        if left.size == 1:
            out.update(
                SerialEpisode(left.etypes + right.etypes, (iv,)) for right in pool for iv in intervals
            )
            continue
        for right in pool:
            if (left.etypes[1:], left.intervals[1:]) == (right.etypes[:-1], right.intervals[:-1]):
                out.add(SerialEpisode(
                    left.etypes + right.etypes[-1:], left.intervals + right.intervals[-1:]
                ))
    return sorted(out)


def parallel_join_oracle(frequent):
    """Every multiset one larger whose sub-multisets one smaller are all in
    ``frequent``. Sorted, duplicate-free."""
    pool = set(frequent)
    types = sorted({t for ep in pool for t in ep.etypes})
    out = set()
    for ep in pool:
        for t in types:
            cand = ParallelEpisode(ep.etypes + (t,))
            subs = (cand.etypes[:j] + cand.etypes[j + 1 :] for j in range(cand.size))
            if all(ParallelEpisode(sub) in pool for sub in subs):
                out.add(cand)
    return sorted(out)


def reference_levels(seq, cfg, kind):
    """``(size, candidates, counts)`` per level of mining ``kind`` ("serial"
    or "parallel"), every candidate counted by the oracles."""
    floor = cfg.count_floor(len(seq))
    if kind == "serial":
        candidates = [SerialEpisode((t,)) for t in sorted(seq.alphabet)]

        def occurrences(ep):
            return serial_oracle_occurrences(ep, seq)

        def join(seeds):
            return serial_join_oracle(seeds, cfg.candidate_intervals)
    else:
        candidates = [ParallelEpisode((t,)) for t in sorted(seq.alphabet)]

        def occurrences(ep):
            return parallel_oracle_occurrences(ep, seq, cfg.expiry)

        join = parallel_join_oracle
    levels = []
    size = 1
    while candidates and size <= cfg.max_size:
        counts = []
        for ep in candidates:
            occs = occurrences(ep)
            counts.append(EpisodeCount(ep, len(occs), occs if cfg.track_occurrences else None))
        frequent = sorted((c for c in counts if c.freq >= floor), key=lambda c: (-c.freq, c.episode))
        levels.append((size, len(candidates), tuple(frequent)))
        if not frequent or size == cfg.max_size:
            break
        beam = frequent[: cfg.beam_width] if cfg.beam_width else frequent
        candidates = join([c.episode for c in beam])
        size += 1
    return levels


def reference_synfire(seq, cfg):
    """``(parallel levels, rewritten groups, rewritten stream, serial levels)``
    of synfire mining, both phases from ``reference_levels``."""
    parallel = reference_levels(seq, replace(cfg, track_occurrences=True), "parallel")
    frequent = [c for _, _, counts in parallel for c in counts if c.episode.size >= 2]
    maximal = sorted(
        (c for c in frequent if not any(
            o.episode != c.episode and is_subepisode(c.episode, o.episode) for o in frequent
        )),
        key=lambda c: (-c.freq, c.episode),
    )
    rewritten = rewrite_stream(seq, maximal, on_conflict="skip")
    return parallel, tuple(maximal), rewritten, reference_levels(rewritten, cfg, "serial")


# ---------------------------------------------------------------------------
# random-case generators for the oracle-equivalence sweeps

ALPHABET = "ABCDE"


def random_sequence(rng: random.Random, max_events=200, max_types=5) -> EventSequence:
    n_types = rng.randint(1, max_types)
    types = ALPHABET[:n_types]
    n = rng.randint(0, max_events)
    t = 0
    events = []
    for _ in range(n):
        t += rng.choice((0, 0, 1, 1, 1, 2, 3))  # equal ticks are common on purpose
        events.append(Event(rng.choice(types), t))
    return EventSequence(events)


def dense_stream(rng: random.Random, types, alphabet) -> EventSequence:
    """400 events of ``types``, 0 or 1 tick apart."""
    events = []
    t = 0
    for _ in range(400):
        t += rng.choice((0, 1, 1))
        events.append(Event(rng.choice(types), t))
    return EventSequence(events, alphabet=alphabet)


def coded_stream(rng: random.Random, n_types: int, max_events=120) -> EventSequence:
    """A stream of up to ``n_types`` types whose sorted order is not their
    order of first appearance ("10" sorts before "9", composite labels like
    "[A B]"), over an alphabet with 1-3 more labels that no event carries."""
    pool = [str(k) for k in range(1, 40)] + ["[A B]", "[9 10]", "A", "a b"]
    labels = ["9", "10", "[A B]"] + rng.sample([x for x in pool if x not in ("9", "10", "[A B]")], n_types)
    types, unused = labels[:n_types], labels[n_types : n_types + rng.randint(1, 3)]
    t, events = 0, []
    for x in ["9", "[A B]", "10"] + [rng.choice(types) for _ in range(rng.randint(n_types, max_events))]:
        t += rng.choice((0, 0, 1, 1, 2, 3))
        events.append(Event(x, t))
    return EventSequence(events, alphabet=types + unused)


def random_serial_episode(rng: random.Random, seq, min_nodes=2, max_nodes=4) -> SerialEpisode:
    types = sorted(seq.alphabet) or ["A"]
    size = rng.randint(min_nodes, max_nodes)
    etypes = tuple(rng.choice(types) for _ in range(size))
    intervals = []
    for _ in range(size - 1):
        low = rng.randint(0, 6)
        intervals.append(Interval(low, low + rng.randint(1, 8)))
    return SerialEpisode(etypes, tuple(intervals))


def random_parallel_episode(rng: random.Random, seq, min_nodes=2, max_nodes=4) -> ParallelEpisode:
    types = sorted(seq.alphabet) or ["A"]
    size = rng.randint(min_nodes, max_nodes)
    return ParallelEpisode(tuple(rng.choice(types) for _ in range(size)))


def simulate_oracle(config) -> tuple[Event, ...]:
    """The events of ``simulate(config)``, deciding one step at a time."""
    n = config.num_neurons
    steps = config.steps
    weight_seed = config.weight_seed if config.weight_seed is not None else config.seed
    weight_rng = np.random.default_rng([weight_seed, 0])
    noise_rng = np.random.default_rng([config.seed, 1])

    weights = weight_rng.uniform(-config.weight_bound, config.weight_bound, (n, n))
    np.fill_diagonal(weights, 0.0)
    for edge in config.strong_edges:
        weights[edge.src, edge.dst] = 0.0

    fired = np.zeros((steps, n), dtype=np.uint8)
    last_spike = np.full(n, -math.inf)  # never fired, so never refractory
    h = config.synaptic_delay_steps
    dt = config.delta_t
    uniform = config.rate_mode == "uniform"
    if uniform:
        step_rates = noise_rng.uniform(0.0, config.lambda_max, (steps, n))
    draws = noise_rng.random((steps, n))

    for k in range(steps):
        if uniform:
            rates = step_rates[k]
        else:
            if k >= h:
                total_in = fired[k - h] @ weights
            else:
                total_in = np.zeros(n)
            for edge in config.strong_edges:
                back = k - edge.delay_steps
                if back >= 0 and fired[back, edge.src]:
                    total_in[edge.dst] += edge.weight
            rates = update_rates(total_in, config)
        p_fire = -np.expm1(-rates * dt)
        can_fire = (k - last_spike) >= config.refractory_steps
        spikes = (draws[k] < p_fire) & can_fire
        if spikes.any():
            fired[k, spikes] = 1
            last_spike[spikes] = k

    labels = config.labels
    ks, js = np.nonzero(fired)
    return tuple(Event(labels[j], int(k)) for k, j in zip(ks, js))


def round_half_up(value: Fraction) -> int:
    """Round to the nearest integer, ties toward +inf."""
    return math.floor(value + Fraction(1, 2))


def quantize_oracle(stamp: str, tick: Fraction) -> int:
    """The tick a decimal second-stamp denotes at ``tick`` seconds per tick."""
    return round_half_up(Fraction(Decimal(stamp)) / tick)
