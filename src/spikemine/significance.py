"""Episode-frequency-by-size profiles on random versus patterned data.

The study contrasts two dataset families:

* random data -- the simulator with background wiring only (several
  wiring seeds, several noise runs each), plus runs whose per-step rates
  are drawn independently at random. For each dataset and size we record
  the maximum frequency over all serial episodes of that size.
* patterned data -- the simulator with a long ordered chain embedded.
  For each size we record the minimum frequency over the chain's
  contiguous segments of that size (the embedded subepisodes that the
  gap window can actually match).

Random-data maxima are exact. Mining at a count floor of 2, with no
beam, finds every episode that occurs twice or more: a non-overlapped
count never exceeds the count of the episode's prefix or of its suffix,
and the level-wise join keeps an episode only when both are frequent. A
size at which no episode occurs twice has maximum 1 if some chain of
that many events has every gap in the window, else 0; one pass over the
ticks finds the longest chain. Patterned minima are counted directly on
the known segment candidates, which is exact and cheap.

Averaged over datasets, the patterned minima sit far above the random
maxima from size 3 on; the report states both profiles side by side.
"""

from __future__ import annotations

import os
import sys
import time
from dataclasses import dataclass, replace

from .episodes import Interval, MiningConfig, SerialEpisode
from .serial import count_serial_constrained, mine_serial
from .simulator import NetworkConfig, embed_pattern, neuron_labels, simulate

RATE_MODEL_LAMBDA_MAX = 14.0  # iid-rate datasets then average ~7 Hz, the network's resting scale
CHAIN_LENGTH = 10  # neurons in the embedded chain; no segment is longer
GAP_WINDOW = Interval(0, 5)  # ticks between successive events of every episode counted


@dataclass(frozen=True)
class SignificanceReport:
    sizes: tuple[int, ...]
    random_avg_max: tuple[float, ...]
    patterned_avg_min: tuple[float, ...]
    random_samples: int
    patterned_samples: int

    def __post_init__(self):
        profile = self.random_avg_max
        for a, b in zip(profile, profile[1:]):
            if b > a + 1e-9:
                raise ValueError(f"random max profile must be non-increasing, got {profile}")

    def separation(self, size: int) -> float:
        i = self.sizes.index(size)
        denom = self.random_avg_max[i]
        return self.patterned_avg_min[i] / denom if denom else float("inf")

    def to_text(self) -> str:
        lines = [
            f"# serial episode frequency profile, gap window {GAP_WINDOW} ticks",
            f"# random datasets: {self.random_samples}   patterned datasets: {self.patterned_samples}"
            f" (embedded chain of {CHAIN_LENGTH})",
            f"{'Size':>6} {'RandomAvgMax':>14} {'PatternedAvgMin':>16}",
        ]
        for size, rmax, pmin in zip(self.sizes, self.random_avg_max, self.patterned_avg_min):
            lines.append(f"{size:>6} {rmax:>14.2f} {pmin:>16.2f}")
        return "\n".join(lines) + "\n"

    def to_csv(self) -> str:
        lines = ["size,random_avg_max,patterned_avg_min"]
        for size, rmax, pmin in zip(self.sizes, self.random_avg_max, self.patterned_avg_min):
            lines.append(f"{size},{rmax},{pmin}")
        return "\n".join(lines) + "\n"


def pool_size(jobs: int, tasks: int) -> int:
    """Processes for ``tasks`` independent tasks, at most ``jobs`` and the usable CPUs."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return max(1, min(jobs, cpus or 1, tasks))


def _longest_chain(ticks, cap: int) -> int:
    """The most events, at most ``cap``, in one chain of the sorted
    ``ticks`` whose every gap is in ``GAP_WINDOW``.

    The window starts at 0 and is open there, so events at one tick never
    chain. Any chain's ticks lie in one run of distinct ticks whose steps
    are each at most ``GAP_WINDOW.high``, and such a run's ticks are a
    chain, so the answer is the longest run. The pass stops once a run
    reaches ``cap``.
    """
    longest = run = 0
    prev = float("-inf")
    for t in ticks:
        if t != prev:
            run = run + 1 if t - prev <= GAP_WINDOW.high else 1
            if run >= cap:
                return cap
            longest = max(longest, run)
            prev = t
    return longest


def _max_profile(args) -> list[int]:
    """Simulate one random dataset and return max frequency per size."""
    config, max_size = args
    seq = simulate(config).sequence
    cfg = MiningConfig(max_size=max_size, candidate_intervals=(GAP_WINDOW,), min_count=2)
    maxima = [0] * max_size
    for level in mine_serial(seq, cfg):
        if level.counts:
            maxima[level.size - 1] = max(c.freq for c in level.counts)
    chain = _longest_chain(seq.ticks, max_size)
    return [m or int(size <= chain) for size, m in enumerate(maxima, 1)]


def _min_profile(args) -> list[int]:
    """Simulate one chain dataset and return min segment frequency per size.

    One pass counts the segments of every size; they share prefixes in
    its trie.
    """
    config, max_size = args
    seq = simulate(config).sequence
    labels = neuron_labels(config.num_neurons)[:CHAIN_LENGTH]
    segments = [
        SerialEpisode(labels[i : i + size], (GAP_WINDOW,) * (size - 1))
        for size in range(1, max_size + 1)
        for i in range(CHAIN_LENGTH - size + 1)
    ]
    freqs: list[list[int]] = [[] for _ in range(max_size)]
    for count in count_serial_constrained(segments, seq):
        freqs[count.episode.size - 1].append(count.freq)
    return [min(f) for f in freqs]


def _timed(task) -> tuple[list[int], float]:
    """The profile of one ``(family, profile function, spec)`` task and its seconds."""
    _, profile, spec = task
    start = time.perf_counter()
    return profile(spec), time.perf_counter() - start


def _reported(tasks, results) -> dict[str, list[list[int]]]:
    """The profiles of each family, in task order; a stderr line as each dataset finishes."""
    profiles: dict[str, list[list[int]]] = {"random": [], "patterned": []}
    totals = {family: sum(task[0] == family for task in tasks) for family in profiles}
    for (family, _, _), (profile, seconds) in zip(tasks, results):
        profiles[family].append(profile)
        print(f"significance: {family} dataset {len(profiles[family])}/{totals[family]}"
              f" done in {seconds:.2f} s", file=sys.stderr, flush=True)
    return profiles


def run_significance(
    base: NetworkConfig | None = None,
    *,
    weight_seeds: int = 10,
    noise_runs_per_seed: int = 2,
    random_rate_runs: int = 5,
    patterned_runs: int = 5,
    max_size: int = 6,
    jobs: int = 1,
    seed0: int = 1,
) -> SignificanceReport:
    """Generate both dataset families, mine them, and aggregate profiles.

    ValueError, before anything is simulated, when ``max_size`` is below 1
    or exceeds ``CHAIN_LENGTH`` (the chain has no segment of that size) or
    when a family has no dataset to average.
    """
    if not 1 <= max_size <= CHAIN_LENGTH:
        raise ValueError(f"max_size {max_size} is below 1 or exceeds the embedded chain length "
                         f"{CHAIN_LENGTH}")
    base = base if base is not None else NetworkConfig()
    base = replace(base, strong_edges=())

    random_specs = []
    for w in range(weight_seeds):
        for r in range(noise_runs_per_seed):
            cfg = replace(base, weight_seed=seed0 + 100 + w, seed=seed0 + 1000 * (w + 1) + r)
            random_specs.append((cfg, max_size))
    for r in range(random_rate_runs):
        cfg = replace(base, rate_mode="uniform", lambda_max=RATE_MODEL_LAMBDA_MAX,
                      seed=seed0 + 500_000 + r)
        random_specs.append((cfg, max_size))

    chain = embed_pattern(base, f"chain-{CHAIN_LENGTH}")
    patterned_specs = [(replace(chain, seed=seed0 + 900_000 + r), max_size)
                       for r in range(patterned_runs)]
    if not random_specs or not patterned_specs:
        raise ValueError("each family needs at least one dataset")

    tasks = [("random", _max_profile, spec) for spec in random_specs]
    tasks += [("patterned", _min_profile, spec) for spec in patterned_specs]
    workers = pool_size(jobs, max(len(random_specs), len(patterned_specs)))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            profiles = _reported(tasks, pool.map(_timed, tasks))
    else:
        profiles = _reported(tasks, map(_timed, tasks))

    avg_max, avg_min = (tuple(sum(p[i] for p in ps) / len(ps) for i in range(max_size))
                        for ps in (profiles["random"], profiles["patterned"]))
    return SignificanceReport(
        sizes=tuple(range(1, max_size + 1)),
        random_avg_max=avg_max,
        patterned_avg_min=avg_min,
        random_samples=len(random_specs),
        patterned_samples=len(patterned_specs),
    )
