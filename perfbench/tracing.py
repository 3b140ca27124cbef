"""Spans around calls into spikemine, recorded from the benchmark's own code.

Nothing inside the package is instrumented. A traced run does two things:

* it swaps the library names that ``spikemine.cli`` imported for wrappers
  that open a span, so a CLI call's simulate, write, parse and mine calls
  become children of the CLI span and the CLI's own self time is what is
  left: hashing, manifest and output writing;
* it re-drives the level loops of ``mine_serial``, ``mine_parallel`` and
  ``mine_synfire`` through their public building blocks, so every level's
  candidate join and counting pass gets a span of its own.

Spans are kept in memory (name, start, end, parent, attributes). The
re-driven loops must give the same levels as the library loops; the
workloads check that after the traced iterations.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace

import spikemine.cli as cli
from spikemine import (
    CompositeEvent,
    MiningLevel,
    ParallelEpisode,
    SynfireResult,
    bootstrap_serial,
    count_parallel_expiry,
    count_serial_constrained,
    generate_parallel_candidates,
    generate_serial_candidates,
    is_subepisode,
    rewrite_stream,
)


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    attrs: dict = field(default_factory=dict)
    end: float = 0.0
    call: tuple | None = None  # (args, result) of a re-driven mine call

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder; a span's parent is the innermost open span."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        span = Span(name, time.perf_counter(), self._open[-1] if self._open else None, attrs)
        self._open.append(len(self.spans))
        self.spans.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._open.pop()

    def self_seconds(self) -> list[float]:
        """Each span's duration minus the part its child spans cover."""
        own = [s.seconds for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.seconds
        return own


class Profile:
    """Sums over the spans of several tracers (set-up plus one iteration)."""

    def __init__(self, tracers):
        self.items = [
            (span, own) for tr in tracers for span, own in zip(tr.spans, tr.self_seconds())
        ]

    def matching(self, name: str, **attrs):
        for span, own in self.items:
            if span.name == name and all(span.attrs.get(k) == v for k, v in attrs.items()):
                yield span, own

    def self_s(self, name: str, **attrs) -> float:
        return sum((own for _, own in self.matching(name, **attrs)), 0.0)

    def total(self, name: str, attr: str, **attrs) -> int:
        return sum(span.attrs.get(attr, 0) for span, _ in self.matching(name, **attrs))


# ---------------------------------------------------------------------------
# level loops re-driven through the public building blocks; each mirrors the
# library function of the same name and returns the same result type


def _rank(count):
    return (-count.freq, count.episode)


def serial_loop(tracer, seq, cfg, jobs=1, level_candidates=None):
    """mine_serial, with a span per candidate join and per counting pass."""
    with tracer.span("mine.serial", jobs=jobs) as root:
        floor = cfg.count_floor(len(seq))
        levels = []
        with tracer.span("episodes.serial_join", level=1) as join:
            candidates = bootstrap_serial(seq.alphabet)
        join.attrs["candidates"] = len(candidates)
        size = 1
        while candidates and size <= cfg.max_size:
            t0 = time.perf_counter()
            with tracer.span("serial.count", level=size, jobs=jobs) as count:
                counts = count_serial_constrained(candidates, seq, cfg, jobs=jobs)
            frequent = sorted((c for c in counts if c.freq >= floor), key=_rank)
            count.attrs.update(
                candidates=len(candidates), frequent=len(frequent), events=len(seq)
            )
            levels.append(
                MiningLevel(size, len(candidates), tuple(frequent), time.perf_counter() - t0)
            )
            if level_candidates is not None:
                level_candidates.append(candidates)
            if not frequent or size == cfg.max_size:
                break
            seeds = frequent[: cfg.beam_width] if cfg.beam_width else frequent
            with tracer.span("episodes.serial_join", level=size + 1) as join:
                candidates = generate_serial_candidates(
                    [c.episode for c in seeds], cfg.candidate_intervals
                )
            join.attrs["candidates"] = len(candidates)
            size += 1
    root.call = ((seq, cfg, jobs), levels)
    return levels


def parallel_loop(tracer, seq, cfg, jobs=1):
    """mine_parallel, with a span per candidate join and per counting pass."""
    with tracer.span("mine.parallel", jobs=jobs) as root:
        floor = cfg.count_floor(len(seq))
        levels = []
        with tracer.span("episodes.parallel_join", level=1) as join:
            candidates = [ParallelEpisode((t,)) for t in sorted(seq.alphabet)]
        join.attrs["candidates"] = len(candidates)
        size = 1
        while candidates and size <= cfg.max_size:
            t0 = time.perf_counter()
            with tracer.span("parallel.count", level=size, jobs=jobs) as count:
                counts = count_parallel_expiry(candidates, seq, cfg, jobs=jobs)
            frequent = sorted((c for c in counts if c.freq >= floor), key=_rank)
            count.attrs.update(candidates=len(candidates), frequent=len(frequent))
            levels.append(
                MiningLevel(size, len(candidates), tuple(frequent), time.perf_counter() - t0)
            )
            if not frequent or size == cfg.max_size:
                break
            seeds = frequent[: cfg.beam_width] if cfg.beam_width else frequent
            with tracer.span("episodes.parallel_join", level=size + 1) as join:
                candidates = generate_parallel_candidates([c.episode for c in seeds])
            join.attrs["candidates"] = len(candidates)
            size += 1
    root.call = ((seq, cfg, jobs), levels)
    return levels


def synfire_loop(tracer, seq, cfg, jobs=1):
    """mine_synfire: tracked parallel phase, maximal filter, rewrite, serial phase."""
    with tracer.span("mine.synfire", jobs=jobs) as root:
        parallel_levels = parallel_loop(
            tracer, seq, replace(cfg, track_occurrences=True), jobs
        )
        with tracer.span("synfire.maximal"):
            frequent = [
                c for level in parallel_levels for c in level.counts if c.episode.size >= 2
            ]
            maximal = [
                c
                for c in frequent
                if not any(
                    other.episode != c.episode and is_subepisode(c.episode, other.episode)
                    for other in frequent
                )
            ]
            maximal.sort(key=_rank)
        with tracer.span("synfire.rewrite") as rewrite:
            rewritten = rewrite_stream(seq, maximal, on_conflict="skip")
        rewrite.attrs.update(
            composites=sum(isinstance(ev, CompositeEvent) for ev in rewritten.events),
            events=len(rewritten),
        )
        serial_levels = serial_loop(tracer, rewritten, cfg, jobs)
        result = SynfireResult(
            tuple(parallel_levels), tuple(maximal), rewritten, tuple(serial_levels)
        )
    root.call = ((seq, cfg, jobs), result)
    return result


def fanout_profile(tracer, seq, cfg, level_candidates, jobs):
    """Count each level's candidates at jobs 1 and each fan-out chunk alone.

    The chunks are the ones the library's fan-out hands its workers:
    ``ceil(n / jobs)`` consecutive candidates each.
    """
    for size, candidates in enumerate(level_candidates, 1):
        with tracer.span("serial.count_jobs1", level=size):
            count_serial_constrained(candidates, seq, cfg)
        step = -(-len(candidates) // min(jobs, len(candidates)))
        for i in range(0, len(candidates), step):
            with tracer.span("serial.count_chunk", level=size):
                count_serial_constrained(candidates[i : i + step], seq, cfg)


@contextmanager
def traced_cli(tracer):
    """Route the library calls ``spikemine.cli`` makes through spans."""

    def wrap(fn, name, describe):
        def traced(*args, **kwargs):
            with tracer.span(name) as span:
                result = fn(*args, **kwargs)
            span.attrs.update(describe(args, result))
            return result

        return traced

    swaps = {
        "simulate": wrap(
            cli.simulate, "simulator.simulate",
            lambda args, run: {"steps": args[0].steps, "spikes": run.total_spikes},
        ),
        "write_spike_file": wrap(
            cli.write_spike_file, "events.write", lambda args, _: {"events": len(args[0])}
        ),
        "parse_spike_file": wrap(
            cli.parse_spike_file, "events.parse", lambda _, seq: {"events": len(seq)}
        ),
        "mine_serial": lambda seq, cfg, jobs=1: serial_loop(tracer, seq, cfg, jobs),
        "mine_parallel": lambda seq, cfg, jobs=1: parallel_loop(tracer, seq, cfg, jobs),
        "mine_synfire": lambda seq, cfg, jobs=1: synfire_loop(tracer, seq, cfg, jobs),
    }
    saved = {name: getattr(cli, name) for name in swaps}
    for name, fn in swaps.items():
        setattr(cli, name, fn)
    try:
        yield
    finally:
        for name, fn in saved.items():
            setattr(cli, name, fn)
