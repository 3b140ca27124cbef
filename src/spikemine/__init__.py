"""Frequent-episode mining over long event streams, under temporal
constraints (per-edge gap windows for serial episodes, an expiry span for
parallel episodes), plus a spiking-network simulator for generating
synthetic streams with embedded connectivity patterns and a significance
study comparing random against patterned data.
"""

from .episodes import (
    EpisodeCount,
    Interval,
    MiningConfig,
    MiningLevel,
    ParallelEpisode,
    SerialEpisode,
    bootstrap_serial,
    generate_parallel_candidates,
    generate_serial_candidates,
    is_subepisode,
    tracked_occurrences,
)
from .events import (
    Event,
    EventSequence,
    SpikeFileError,
    parse_spike_file,
    write_spike_file,
)
from .parallel import count_parallel_expiry, mine_parallel
from .serial import count_serial_constrained, mine_serial
from .significance import SignificanceReport, run_significance
from .simulator import (
    ConfigError,
    NetworkConfig,
    SpikeRun,
    StrongEdge,
    embed_pattern,
    parse_network_config,
    simulate,
    update_rates,
)
from .synfire import (
    CompositeEvent,
    RewriteConflictError,
    SynfireResult,
    composite_label,
    mine_synfire,
    rewrite_stream,
)

__all__ = [
    "CompositeEvent",
    "ConfigError",
    "Event",
    "EventSequence",
    "EpisodeCount",
    "Interval",
    "MiningConfig",
    "MiningLevel",
    "NetworkConfig",
    "ParallelEpisode",
    "RewriteConflictError",
    "SerialEpisode",
    "SignificanceReport",
    "SpikeFileError",
    "SpikeRun",
    "StrongEdge",
    "SynfireResult",
    "bootstrap_serial",
    "composite_label",
    "count_parallel_expiry",
    "count_serial_constrained",
    "embed_pattern",
    "generate_parallel_candidates",
    "generate_serial_candidates",
    "is_subepisode",
    "mine_parallel",
    "mine_serial",
    "mine_synfire",
    "parse_network_config",
    "parse_spike_file",
    "rewrite_stream",
    "run_significance",
    "simulate",
    "tracked_occurrences",
    "update_rates",
    "write_spike_file",
]

__version__ = "0.1.0"
