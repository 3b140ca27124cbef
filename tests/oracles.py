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
"""

from __future__ import annotations

import random
from bisect import bisect_left, bisect_right
from collections import Counter, defaultdict
from itertools import combinations

import numpy as np

from spikemine import Event, EventSequence, Interval, ParallelEpisode, SerialEpisode
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
    last_spike = np.full(n, -(10**9), dtype=np.int64)
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
