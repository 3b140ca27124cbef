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

Decision order. Every input of step k is a spike at least one step back:
one synaptic delay, one strong-edge delay, or, for the refractory mask,
one of the last ``refractory_steps - 1`` steps. With none of them a step
fires at exactly the resting probability. So in network mode ``simulate``
decides every step at rest with one comparison of all draws, then
recomputes the steps a changed row reaches. One function computes the rows
of a set of steps from the rows as they stand, mask included, and one
function flags the steps each changed bit reaches. An earliest-first sweep
hands the first function the earliest flagged steps, one batch at a time,
until none is flagged: every step before the earliest flagged one is final,
so each batch finalises at least its first step, and its other steps are
flagged again if a row they read changed. Input sums are exact: each row's
sum is its own ``@``, and strong-edge weights add to each target in config
order. The events are bit-identical to deciding one step at a time. Uniform
mode has no input: it decides each step at its own probability, then masks
refractory spikes in step order.

Events leave the fired grid as its flat indices, divided by
``num_neurons`` into step and neuron columns: the grid is C-contiguous, so
the events come by step, and within a step by neuron index.

numpy is imported inside the functions that use it, so mining never loads it.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, fields, replace
from fractions import Fraction

from .events import EventSequence, as_tick_seconds, ms_to_ticks

_LETTERS = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"


# Largest grid ``simulate`` builds, in cells of steps * num_neurons (and of
# the num_neurons ** 2 weight matrix): 100 times the default 50 s x 26-neuron
# grid. Its draws alone take 8 bytes a cell, about 1 GiB at the bound; a
# larger grid would fail in numpy's allocator rather than as a config error.
MAX_GRID_CELLS = 100 * 50_000 * 26

# Steps the sweep recomputes per set of array calls: at 128 rows of 26 neurons
# its float temporaries take 26 KiB each, too little to raise the grid's peak RSS.
_BATCH_STEPS = 128


class ConfigError(ValueError):
    """Bad simulator configuration, from file or from field validation."""


class _GridSize(ConfigError):
    """A grid too large or of no step, which a later line of a config file may lift."""


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
        if math.copysign(1, self.weight_bound) < 0 or not math.isfinite(2 * self.weight_bound):
            raise ConfigError("weight_bound must be >= 0, not -0, with 2 * weight_bound finite")
        if self.lambda_max <= 0 or self.delta_t <= 0 or self.duration <= 0:
            raise ConfigError("lambda_max, delta_t and duration must be positive")
        span = self.duration / self.delta_t  # inf if the quotient overflows
        if (self.num_neurons ** 2 > MAX_GRID_CELLS or span == math.inf
                or self.steps * self.num_neurons > MAX_GRID_CELLS):
            raise _GridSize(f"{span:g} steps x {self.num_neurons} neurons exceeds "
                            f"MAX_GRID_CELLS = {MAX_GRID_CELLS}")
        if self.steps < 1:
            raise _GridSize(f"duration / delta_t = {span:g} rounds to 0 steps")
        if self.synaptic_delay_steps < 1:
            raise ConfigError("synaptic_delay_steps must be >= 1")
        if self.refractory_steps < 1:
            raise ConfigError("refractory_steps must be >= 1")
        if self.seed < 0 or (self.weight_seed or 0) < 0:
            raise ConfigError("seed and weight_seed must be >= 0")
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


@dataclass(frozen=True)
class SpikeRun:
    sequence: EventSequence
    config: NetworkConfig
    total_spikes: int


def update_rates(inputs, config: NetworkConfig):
    """Per-neuron rate for given total inputs; bounded in (0, lambda_max)."""
    import numpy as np
    z = np.asarray(inputs, dtype=float) - config.rate_offset
    # overflow-safe logistic: exp of a non-positive argument only
    ez = np.exp(-np.abs(z))
    return config.lambda_max * np.where(z >= 0, 1.0 / (1.0 + ez), ez / (1.0 + ez))


def simulate(config: NetworkConfig) -> SpikeRun:
    """Run the network; deterministic for a fixed (seed, weight_seed).

    See "Decision order" in the module docstring.
    """
    import numpy as np
    n = config.num_neurons
    steps = config.steps
    noise_rng = np.random.default_rng([config.seed, 1])
    period = min(config.refractory_steps, steps)  # a longer one masks the same spikes
    if config.rate_mode == "network":
        fired = _network(config, noise_rng.random((steps, n)), period - 1)
    else:
        # -expm1(-rates * dt) in place, so the grid holds two float arrays, not four
        p_fire = noise_rng.uniform(0.0, config.lambda_max, (steps, n))
        np.negative(np.expm1(np.multiply(p_fire, -config.delta_t, out=p_fire), out=p_fire), out=p_fire)
        fired = noise_rng.random((steps, n)) < p_fire
        last_spike = np.full(n, -period)  # never fired, so never refractory
        for k in np.flatnonzero(fired.any(axis=1)).tolist() if period > 1 else ():
            fired[k] &= k - last_spike >= period
            last_spike[fired[k]] = k

    labels = config.labels
    ks, js = np.divmod(np.flatnonzero(fired), n)
    seq = EventSequence._from_columns(
        list(map(labels.__getitem__, js.tolist())), ks.tolist(), config.delta_t, labels
    )
    return SpikeRun(seq, config, len(seq))


def _network(config: NetworkConfig, draws, rest: int):
    """The fired grid of a network-mode run; ``rest`` rows feed the refractory mask.

    ``step`` recomputes the rows of the steps it is given and ``flag`` marks
    the steps their changed bits reach. The sweep hands ``step`` the earliest
    flagged steps, from a start that only rises, until none is flagged.

    Two rules keep the peak RSS where the grid sets it. Every batch has the
    same shape, because numpy keeps freed arrays under 1 KiB for reuse, a few
    of each byte size, so arrays of ever new small sizes pile up. And the
    array calls keep to kernels the rest of a run loads anyway (float
    arithmetic, no integer comparisons), since each new kernel adds its code
    pages.
    """
    import numpy as np
    steps, n = draws.shape
    weight_seed = config.weight_seed if config.weight_seed is not None else config.seed
    weights = np.random.default_rng([weight_seed, 0]).uniform(
        -config.weight_bound, config.weight_bound, (n, n))
    np.fill_diagonal(weights, 0.0)
    for edge in config.strong_edges:
        weights[edge.src, edge.dst] = 0.0  # strong edges applied with their own delay

    h = min(config.synaptic_delay_steps, steps)  # any delay >= steps reaches past the run
    # strong edges in layers with one edge per target, each layer holding every
    # target's next edge in config order, so weights add in the per-step order
    layers, ranks = [], {}
    for edge in config.strong_edges:
        rank = ranks[edge.dst] = ranks.get(edge.dst, -1) + 1
        if rank == len(layers):
            layers.append([])
        layers[rank].append(edge)
    layers = [(np.array([e.src for e in layer], dtype=np.intp),
               np.array([e.dst for e in layer], dtype=np.intp),
               np.array([e.weight for e in layer]),
               np.array([min(e.delay_steps, steps) for e in layer], dtype=np.intp))
              for layer in layers]
    # silent rows before step 0, so a step reads k - delay without a bounds test
    lead = max(rest, h, *(min(edge.delay_steps, steps) for edge in config.strong_edges))
    cells = np.zeros((lead + steps, n), dtype=bool)
    fired = cells[lead:]
    np.less(draws, -np.expm1(-update_rates(np.zeros(n), config) * config.delta_t), out=fired)
    flagged = np.zeros(2 * steps, dtype=bool)

    def flag(ks, changed):
        hit = changed.any(axis=1)
        flagged[ks + h] |= hit
        for src, _, _, delay in layers:
            i, e = np.nonzero(changed[:, src])
            flagged[ks[i] + delay[e]] = True
        if rest:  # the steps whose mask reads a changed row
            hits = ks[hit]
            if rest < hits.size:  # fewer steps forward than rows: one array op a step
                for r in range(1, rest + 1):
                    flagged[hits + r] = True
            else:
                for k in hits.tolist():
                    flagged[k + 1:k + 1 + rest] = True

    def step(ks):
        flagged[ks] = False  # earlier calls' changes are read below
        # one (1, n) @ (n, n) product per row rounds as ``fired[k - h] @ weights`` does
        total_in = np.matmul(cells[ks + (lead - h), None], weights)[:, 0]
        for src, dst, gain, delay in layers:
            total_in[:, dst] += cells[ks[:, None] + (lead - delay), src] * gain  # a miss adds 0.0
        row = draws[ks] < -np.expm1(-update_rates(total_in, config) * config.delta_t)
        if rest:  # refractory: a spike of the same neuron in the last rest rows
            ends, back = ks + lead, 0
            while 0 < rest - back < np.count_nonzero(row):  # rows left < spikes: mask a row
                back += 1
                row &= ~cells[ends - back]
            for i, j in np.argwhere(row).tolist() if back < rest else ():  # then spike by spike
                row[i, j] = not np.count_nonzero(cells[ends[i] - rest:ends[i] - back, j])
        changed = row ^ fired[ks]
        fired[ks] = row
        flag(ks, changed)

    flag(np.arange(steps), fired)  # each spike of the rest decision is a changed bit
    lo = 0  # every step before the earliest flagged one is final
    while (batch := np.flatnonzero(flagged[lo:steps])[:_BATCH_STEPS] + lo).size:
        lo = int(batch[0])
        # a short batch repeats its steps (each copy computes the same row)
        step(np.resize(batch, _BATCH_STEPS))
    return fired


# ---------------------------------------------------------------------------
# pattern embedding

def _idx(label: str, n: int) -> int:
    labels = neuron_labels(n)
    if label in labels:
        return labels.index(label)
    try:
        return int(label)  # a config edge may give the index itself
    except ValueError:
        raise ConfigError(f"neuron {label!r} is not among the {n} network labels") from None


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
    return [(s, d, delay_ms, "group" if len(src) > 1 else "strong")
            for src, dst in zip(stages, stages[1:]) for s in src for d in dst]


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
    tick, n = as_tick_seconds(config.delta_t), config.num_neurons
    # an edge's kind, strong, relay or group, names its weight field
    edges = [StrongEdge(_idx(src, n), _idx(dst, n), getattr(config, f"{kind}_weight"),
                        _delay_steps(str(delay_ms), tick))
             for src, dst, delay_ms, kind in _pattern_edges(pattern, config)]
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
    bad_grid = None  # a grid-size error that a later field line may still lift
    edge_specs: list[tuple[int, str]] = []
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, raw in enumerate(fh, 1):
            try:
                raw.encode("utf-8")
            except UnicodeEncodeError:
                raise ConfigError(f"{path}:{lineno}: not UTF-8 text") from None
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
                    config, bad_grid = NetworkConfig(**values), None
                except _GridSize as exc:
                    bad_grid = bad_grid or ConfigError(f"{path}:{lineno}: {exc}")
                except ConfigError as exc:
                    raise ConfigError(f"{path}:{lineno}: {exc}") from None
                except ValueError:
                    raise ConfigError(f"{path}:{lineno}: bad value for {key}: {value!r}") from None
            else:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
    if bad_grid:
        raise bad_grid
    tick = as_tick_seconds(config.delta_t)
    edges = []
    for lineno, spec in edge_specs:
        parts = [p.strip() for p in spec.split(",")]
        if len(parts) != 4:
            raise ConfigError(f"{path}:{lineno}: edge needs FROM,TO,WEIGHT,DELAY_MS, got {spec!r}")
        try:
            src, dst = (_idx(p, config.num_neurons) for p in parts[:2])
            weight = float(parts[2])
            edges.append(StrongEdge(src, dst, weight, _delay_steps(parts[3], tick)))
        except ConfigError as exc:
            raise ConfigError(f"{path}:{lineno}: {exc}") from None
        except ValueError:
            raise ConfigError(f"{path}:{lineno}: bad edge spec {spec!r}") from None
    if edges:
        config = replace(config, strong_edges=tuple(sorted(edges)))
    return config
