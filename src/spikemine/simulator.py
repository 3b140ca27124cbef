"""Stochastic spiking-network generator for synthetic event streams.

Each neuron is a rate-modulated point process on a fixed step grid. At
step k, neuron j's rate is

    rate_j(k) = lambda_max * sigmoid(input_j(k) - rate_offset)

where input_j(k) sums presynaptic spike counts one synaptic delay back,
weighted by the connection matrix; strong edges may carry their own
per-edge delay. Within a step the neuron fires at most once, with
probability 1 - exp(-rate * delta_t), unless it is refractory. One step
is one tick of the emitted event stream.

Random background connectivity draws every off-diagonal weight uniformly
from [-weight_bound, +weight_bound]; embedding a pattern overrides the
chosen edges with one of three calibrated weight classes:

* ``strong_weight`` saturates the sigmoid: one presynaptic spike fires
  the target in the delayed bin almost surely (~0.99). Used where a
  chain must propagate with near certainty (group-feeding fan-outs,
  generic embedded chains).
* ``relay_weight`` drives the target with probability ~0.9. Used for
  single-neuron relay chains, where a saturating drive would inflate
  downstream firing rates until coincidence patterns cross the mining
  thresholds meant to isolate the embedded structure.
* ``group_weight`` is sub-threshold for one spike (~0.2) but two or more
  synchronous presynaptic spikes drive the target (~0.9 and up). Used on
  group-convergent fan-ins so the target acts as a coincidence detector
  and stray background singles do not propagate through the chain.

The default resting rate (zero input) is ~7 Hz. That operating point is
what makes a 1% frequency floor separate structure from chance: pair
coincidences between two neurons scale with the product of their rates
while the floor scales with their sum, so the busiest relay targets must
stay a little under ~3% per step for chance pairs within a couple of
steps to stay below the floor. All three weights above are calibrated
against these defaults.

Runs are reproducible: the weight draw and the firing draws use separate
generators derived from (weight_seed, seed), so the significance study
can vary noise under fixed wiring.

Decision order. Every input of step k is a spike at least one step back
(one synaptic delay or one strong-edge delay), and zero input gives
exactly the resting probability. So ``simulate`` decides every step at
rest with one comparison of all draws (uniform mode, which has no input,
at each step's own probability), flags the steps those spikes reach, and
recomputes only flagged steps, in one sweep in step order and with the
per-step arithmetic, so every row they read is final; a spike a
recomputation adds flags its own targets, which lie later in the sweep.
With ``refractory_steps > 1`` the same sweep applies the refractory mask
at every step. The events are bit-identical to deciding one step at a time.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, fields, replace
from fractions import Fraction

import numpy as np

from .events import Event, EventSequence, as_tick_seconds, ms_to_ticks, format_seconds

_LETTERS = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"


# Largest grid ``simulate`` builds, in cells of steps * num_neurons (and of
# the num_neurons ** 2 weight matrix): 100 times the default 50 s x 26-neuron
# grid. Its draws alone take 8 bytes a cell, about 1 GiB at the bound; a
# larger grid would fail in numpy's allocator rather than as a config error.
MAX_GRID_CELLS = 100 * 50_000 * 26


class ConfigError(ValueError):
    """Bad simulator configuration, from file or from field validation."""


class _GridTooLarge(ConfigError):
    """A grid-size error, which a later line of a config file may lift."""


def neuron_labels(n: int) -> tuple[str, ...]:
    if n <= len(_LETTERS):
        return tuple(_LETTERS[:n])
    return tuple(f"N{i}" for i in range(n))


@dataclass(frozen=True, order=True)
class StrongEdge:
    src: int
    dst: int
    weight: float
    delay_steps: int

    def __post_init__(self):
        if self.src < 0 or self.dst < 0:
            raise ConfigError(f"edge endpoints must be >= 0: {self}")
        if self.delay_steps < 1:
            raise ConfigError(f"edge delay must be >= 1 step: {self}")
        if not math.isfinite(self.weight):
            raise ConfigError(f"edge weight must be finite: {self}")


@dataclass(frozen=True)
class NetworkConfig:
    num_neurons: int = 26
    weight_bound: float = 0.5
    strong_edges: tuple[StrongEdge, ...] = ()
    lambda_max: float = 5000.0          # spikes/sec at saturation
    rate_offset: float = 6.5699         # resting rate = lambda_max / (1 + e^offset) = 7 Hz
    delta_t: float = 0.001              # seconds per step (= one tick)
    synaptic_delay_steps: int = 5
    refractory_steps: int = 1
    duration: float = 50.0              # seconds
    seed: int = 0
    weight_seed: int | None = None
    strong_weight: float = 11.0         # saturating: one spike fires the target (~0.99)
    relay_weight: float = 6.41          # moderate: one spike fires the target (~0.9)
    group_weight: float = 3.21          # coincidence detector: needs >= 2 synchronous spikes
    rate_mode: str = "network"          # "network" | "uniform" (rates iid per step)

    def __post_init__(self):
        object.__setattr__(self, "strong_edges", tuple(self.strong_edges))
        for f in fields(self):
            if f.type == "float" and not math.isfinite(getattr(self, f.name)):
                raise ConfigError(f"{f.name} must be finite, got {getattr(self, f.name)}")
        if self.num_neurons < 1:
            raise ConfigError("num_neurons must be >= 1")
        if self.weight_bound < 0:
            raise ConfigError("weight_bound must be >= 0")
        if self.lambda_max <= 0 or self.delta_t <= 0 or self.duration <= 0:
            raise ConfigError("lambda_max, delta_t and duration must be positive")
        span = self.duration / self.delta_t  # inf if the quotient overflows
        if (self.num_neurons ** 2 > MAX_GRID_CELLS or span == math.inf
                or self.steps * self.num_neurons > MAX_GRID_CELLS):
            raise _GridTooLarge(f"{span:g} steps x {self.num_neurons} neurons exceeds "
                                f"MAX_GRID_CELLS = {MAX_GRID_CELLS}")
        if self.synaptic_delay_steps < 1:
            raise ConfigError("synaptic_delay_steps must be >= 1")
        if self.refractory_steps < 1:
            raise ConfigError("refractory_steps must be >= 1")
        if self.rate_mode not in ("network", "uniform"):
            raise ConfigError(f"rate_mode must be 'network' or 'uniform', got {self.rate_mode!r}")
        for edge in self.strong_edges:
            if edge.src >= self.num_neurons or edge.dst >= self.num_neurons:
                raise ConfigError(f"edge {edge} references neuron >= num_neurons")

    @property
    def steps(self) -> int:
        return round(self.duration / self.delta_t)

    @property
    def labels(self) -> tuple[str, ...]:
        return neuron_labels(self.num_neurons)

    @property
    def resting_rate(self) -> float:
        return float(update_rates(np.zeros(1), self)[0])


@dataclass(frozen=True)
class SpikeRun:
    sequence: EventSequence
    config: NetworkConfig
    total_spikes: int


def update_rates(inputs, config: NetworkConfig):
    """Per-neuron rate for given total inputs; bounded in (0, lambda_max)."""
    z = np.asarray(inputs, dtype=float) - config.rate_offset
    # overflow-safe logistic: exp of a non-positive argument only
    ez = np.exp(-np.abs(z))
    return config.lambda_max * np.where(z >= 0, 1.0 / (1.0 + ez), ez / (1.0 + ez))


def simulate(config: NetworkConfig) -> SpikeRun:
    """Run the network; deterministic for a fixed (seed, weight_seed).

    Decides each step at zero input, then recomputes the steps a spike
    reaches, in step order (see "Decision order" in the module docstring).
    """
    n = config.num_neurons
    steps = config.steps
    weight_seed = config.weight_seed if config.weight_seed is not None else config.seed
    weight_rng = np.random.default_rng([weight_seed, 0])
    noise_rng = np.random.default_rng([config.seed, 1])

    weights = weight_rng.uniform(-config.weight_bound, config.weight_bound, (n, n))
    np.fill_diagonal(weights, 0.0)
    for edge in config.strong_edges:
        weights[edge.src, edge.dst] = 0.0  # strong edges applied with their own delay

    h = min(config.synaptic_delay_steps, steps)  # any delay >= steps reaches past the run
    dt = config.delta_t
    network = config.rate_mode == "network"
    edges = config.strong_edges if network else ()

    # draw all randomness up front; every step starts at its zero-input decision
    if network:
        draws = noise_rng.random((steps, n))
        fired = draws < -np.expm1(-update_rates(np.zeros(n), config) * dt)
    else:
        # -expm1(-rates * dt) in place, so the grid holds two float arrays, not four
        p_fire = noise_rng.uniform(0.0, config.lambda_max, (steps, n))
        np.negative(np.expm1(np.multiply(p_fire, -dt, out=p_fire), out=p_fire), out=p_fire)
        fired = noise_rng.random((steps, n)) < p_fire

    # a spike of neuron j at step k is input to step k + delay for each delay in delays[j]
    delays = [[h] for _ in range(n)]
    for edge in edges:
        delays[edge.src].append(min(edge.delay_steps, steps))
    spiking = fired.any(axis=1)  # per step at rest; only a flagged step can change
    flagged = np.zeros(2 * steps, dtype=bool)
    if network:
        flagged[h:h + steps] = spiking
        for edge in edges:
            delay = min(edge.delay_steps, steps)
            flagged[delay:delay + steps] |= fired[:, edge.src]
    flagged, spiking = bytearray(flagged), bytearray(spiking)  # fast to index one by one
    last_spike = np.full(n, -(10**9), dtype=np.int64)

    # one sweep in step order: a flag always lands on a later step than the one setting it
    for k in range(steps):
        if flagged[k]:
            total_in = fired[k - h] @ weights if k >= h else np.zeros(n)
            for edge in edges:
                back = k - edge.delay_steps
                if back >= 0 and fired[back, edge.src]:
                    total_in[edge.dst] += edge.weight
            row = draws[k] < -np.expm1(-update_rates(total_in, config) * dt)
            for j in np.flatnonzero(row & ~fired[k]).tolist():
                for delay in delays[j]:
                    flagged[k + delay] = True
            fired[k] = row
        if config.refractory_steps > 1 and (flagged[k] or spiking[k]):
            fired[k] &= (k - last_spike) >= config.refractory_steps
            last_spike[fired[k]] = k

    labels = config.labels
    ks, js = np.nonzero(fired)
    events = [Event(labels[j], k) for k, j in zip(ks.tolist(), js.tolist())]
    seq = EventSequence(events, as_tick_seconds(config.delta_t), labels)
    return SpikeRun(seq, config, len(events))


# ---------------------------------------------------------------------------
# pattern embedding

def _idx(label: str, n: int) -> int:
    labels = neuron_labels(n)
    try:
        return labels.index(label)
    except ValueError:
        raise ConfigError(f"pattern neuron {label!r} is not among the {n} network labels") from None


def _delay_steps(delay_ms: str, tick: Fraction) -> int:
    try:
        return ms_to_ticks(delay_ms, tick)
    except ValueError as exc:
        raise ConfigError(f"edge delay: {exc}") from None


def _fan_chain(stages: list[str], delay_ms: float):
    """Edges linking every neuron of one stage to every neuron of the next.

    Fan-out edges into a group use the saturating class so the whole group
    fires; fan-in edges out of a group use the coincidence-detector class
    so only synchronous group firing propagates, not background singles.
    """
    hops = []
    for src_stage, dst_stage in zip(stages, stages[1:]):
        kind = "group" if len(src_stage) > 1 else "strong"
        for s in src_stage:
            for d in dst_stage:
                hops.append((s, d, delay_ms, kind))
    return hops


def _pattern_edges(name: str, config: NetworkConfig):
    if name == "example1":
        # one driver, a synchronous pair one delay later, and their followers;
        # relay drive keeps downstream rates low enough that coincidences
        # between the busy neurons stay below a 1% frequency floor
        return [
            ("A", "B", 5, "relay"), ("B", "C", 5, "relay"), ("B", "E", 5, "relay"),
            ("C", "D", 5, "relay"), ("E", "F", 5, "relay"),
        ]
    if name == "example2":
        # chained synchronous groups: A -> (BCD) -> E -> (FGHI) -> J -> (KL)
        return _fan_chain(["A", "BCD", "E", "FGHI", "J", "KL"], 5)
    if name == "example3":
        # heterogeneous delays along the chain
        return (
            _fan_chain(["X", "ABC"], 5)
            + _fan_chain(["ABC", "D"], 3)
            + [("D", "E", 7, "strong"), ("E", "F", 3, "strong")]
        )
    m = re.fullmatch(r"chain-(\d+)", name)
    if m:
        length = int(m.group(1))
        if length < 2:
            raise ConfigError("chain pattern needs at least 2 neurons")
        labels = neuron_labels(config.num_neurons)
        if length > len(labels):
            raise ConfigError(f"chain-{length} does not fit in {config.num_neurons} neurons")
        return [(labels[i], labels[i + 1], 5, "strong") for i in range(length - 1)]
    raise ConfigError(f"unknown pattern {name!r}")


def embed_pattern(config: NetworkConfig, pattern: str) -> NetworkConfig:
    """Return a copy of ``config`` with the named topology as strong edges."""
    if pattern in ("", "none"):
        return replace(config, strong_edges=())
    weight_of = {
        "strong": config.strong_weight,
        "relay": config.relay_weight,
        "group": config.group_weight,
    }
    tick = as_tick_seconds(config.delta_t)
    edges = []
    for src, dst, delay_ms, kind in _pattern_edges(pattern, config):
        edges.append(
            StrongEdge(
                _idx(src, config.num_neurons),
                _idx(dst, config.num_neurons),
                weight_of[kind],
                _delay_steps(str(delay_ms), tick),
            )
        )
    return replace(config, strong_edges=tuple(sorted(edges)))


# ---------------------------------------------------------------------------
# config file: flat "key = value" lines; edges as "edge = FROM,TO,WEIGHT,DELAY_MS"

_FIELD_PARSERS = {  # every field but strong_edges, parsed by its annotated type
    f.name: {"float": float, "str": str}.get(f.type, int)
    for f in fields(NetworkConfig) if f.name != "strong_edges"
}


def parse_network_config(path) -> NetworkConfig:
    """Read a key=value config file; errors carry the line number."""
    config = NetworkConfig()
    values: dict[str, object] = {}
    too_large = None  # a grid-size error that a later field line may still lift
    edge_specs: list[tuple[int, str]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            key = key.strip()
            value = value.strip()
            if not sep or not key or not value:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
            if key == "edge":
                edge_specs.append((lineno, value))
            elif key in _FIELD_PARSERS:
                try:
                    values[key] = _FIELD_PARSERS[key](value)
                    config, too_large = NetworkConfig(**values), None
                except _GridTooLarge as exc:
                    too_large = too_large or ConfigError(f"{path}:{lineno}: {exc}")
                except ConfigError as exc:
                    raise ConfigError(f"{path}:{lineno}: {exc}") from None
                except ValueError:
                    raise ConfigError(f"{path}:{lineno}: bad value for {key}: {value!r}") from None
            else:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
    if too_large:
        raise too_large
    tick = as_tick_seconds(config.delta_t)
    edges = []
    for lineno, spec in edge_specs:
        parts = [p.strip() for p in spec.split(",")]
        if len(parts) != 4:
            raise ConfigError(f"{path}:{lineno}: edge needs FROM,TO,WEIGHT,DELAY_MS, got {spec!r}")
        try:
            src, dst = (_idx(p, config.num_neurons) if p.isalpha() else int(p) for p in parts[:2])
            weight = float(parts[2])
            edges.append(StrongEdge(src, dst, weight, _delay_steps(parts[3], tick)))
        except ConfigError as exc:
            raise ConfigError(f"{path}:{lineno}: {exc}") from None
        except ValueError:
            raise ConfigError(f"{path}:{lineno}: bad edge spec {spec!r}") from None
    if edges:
        config = replace(config, strong_edges=tuple(sorted(edges)))
    return config


def write_network_config(config: NetworkConfig, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("# network configuration\n")
        for key in _FIELD_PARSERS:
            if getattr(config, key) is not None:
                fh.write(f"{key} = {getattr(config, key)}\n")
        labels = config.labels
        step_ms = as_tick_seconds(config.delta_t) * 1000
        for edge in config.strong_edges:
            delay_ms = format_seconds(edge.delay_steps, step_ms)
            fh.write(f"edge = {labels[edge.src]},{labels[edge.dst]},{edge.weight},{delay_ms}\n")
