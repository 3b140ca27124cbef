"""Frequent-episode mining over long event streams, under temporal
constraints (per-edge gap windows for serial episodes, an expiry span for
parallel episodes), plus a spiking-network simulator for generating
synthetic streams with embedded connectivity patterns and a significance
study comparing random against patterned data.

The public names are exactly those imported below.
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
    CompositeLabelError,
    SynfireResult,
    composite_label,
    mine_synfire,
    rewrite_stream,
)

__version__ = "0.1.0"
