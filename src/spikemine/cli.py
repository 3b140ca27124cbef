"""Command-line front end: simulate, mine, significance.

Every run writes a flat key=value manifest next to its output with the
full parameter snapshot, seeds, and sha256 checksums, so the output file
can be regenerated byte-identically from the manifest alone.

Exit codes: 0 success, 1 usage error or out of memory, 2 I/O error, 3 config error.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import time
from dataclasses import fields, replace
from fractions import Fraction
from pathlib import Path

from .episodes import Interval, MiningConfig
from .events import SpikeFileError, as_tick_seconds, ms_to_ticks
from .events import parse_spike_file, write_spike_file
from .parallel import mine_parallel
from .serial import mine_serial
from .significance import CHAIN_LENGTH, run_significance
from .simulator import (
    ConfigError,
    NetworkConfig,
    embed_pattern,
    parse_network_config,
    simulate,
)
from .synfire import CompositeLabelError, mine_synfire

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_CONFIG = 3

# what sizes each command's work, named when a run exhausts memory
SIZE_OPTIONS = {"simulate": "a shorter --duration", "significance": "a lower --max-size",
                "mine": "a higher --threshold or --min-count, or a lower --max-size"}


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits 2; usage errors are 1 here
        self.print_usage(sys.stderr)
        raise SystemExit(_fail(EXIT_USAGE, message))

    def parse_args(self, args=None, namespace=None):
        parsed = super().parse_args(args, namespace)
        for name, value in vars(parsed).items():
            if isinstance(value, list):  # argparse before 3.12 reads --tick=-- as []
                self.error(f"argument --{name.replace('_', '-')}: expected one argument")
        return parsed


def _fail(code: int, message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_manifest(path: Path, entries: list[tuple[str, object]]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("# run manifest\n")
        for key, value in entries:
            fh.write(f"{key} = {value}\n")


def _checked(*outputs: Path) -> tuple[Path, ...]:
    """``outputs``; OSError (exit 2) if one is a directory or has no parent
    directory. Called before any work, so a refused run writes nothing."""
    for path in outputs:
        if path.is_dir() or not path.parent.is_dir():
            raise OSError(f"output {path} is a directory or has no parent directory")
    return outputs


def _parse_intervals_ms(spec: str, tick_seconds: Fraction) -> tuple[Interval, ...]:
    """'a-b,c-d' in milliseconds -> sorted tick intervals (a,b],(c,d]; ValueError if
    malformed, naming the text, as a tick count may run to hundreds of digits."""
    intervals = []
    for part in spec.split(","):
        lo_txt, sep, hi_txt = part.strip().partition("-")
        if not sep:
            raise ValueError(f"bad interval {part!r}, expected LOW-HIGH in ms")
        lo, hi = ms_to_ticks(lo_txt, tick_seconds), ms_to_ticks(hi_txt, tick_seconds)
        if lo >= hi:
            raise ValueError(f"bad interval {part!r}, LOW must be below HIGH")
        intervals.append(Interval(lo, hi))
    intervals.sort()
    if any(b.low < a.high for a, b in zip(intervals, intervals[1:])):
        raise ValueError(f"intervals {spec!r} overlap")
    return tuple(intervals)


def _config_entries(config: NetworkConfig) -> list[tuple[str, object]]:
    entries = [(f"config.{f.name}", getattr(config, f.name))
               for f in fields(config) if f.name != "strong_edges"]
    labels = config.labels
    for i, edge in enumerate(config.strong_edges):
        entries.append(
            (f"config.edge.{i}",
             f"{labels[edge.src]},{labels[edge.dst]},{edge.weight},{edge.delay_steps}")
        )
    return entries


def _write_levels(path: Path, kind: str, levels, tick_seconds: Fraction) -> None:
    # timings go to the manifest, not here: same seed and flags must
    # reproduce this file byte for byte
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# frequent episodes ({kind})\n")
        fh.write(f"# tick_seconds = {tick_seconds}\n")
        for level in levels:
            fh.write(
                f"# level size={level.size} candidates={level.n_candidates} "
                f"frequent={len(level.counts)}\n"
            )
            for count in level.counts:
                fh.write(f"{count.episode} : {count.freq}\n")


def cmd_simulate(args) -> int:
    out, manifest = _checked(Path(args.out), Path(f"{args.out}.manifest"))
    if args.config and Path(args.config).resolve() in (out.resolve(), manifest.resolve()):
        raise UsageError(f"output {out} would overwrite the input {args.config}")
    config = parse_network_config(args.config) if args.config else NetworkConfig()
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    if args.duration is not None:
        config = replace(config, duration=args.duration)
    if args.pattern:
        config = embed_pattern(config, args.pattern)
    t0 = time.perf_counter()
    run = simulate(config)
    sim_seconds = time.perf_counter() - t0
    write_spike_file(run.sequence, out)
    entries = [
        ("command", "simulate"),
        ("pattern", args.pattern or "none"),
        ("output", out),
        ("output_sha256", _sha256(out)),
        ("total_spikes", run.total_spikes),
        ("phase.simulate_sec", f"{sim_seconds:.3f}"),
    ]
    entries.extend(_config_entries(config))
    _write_manifest(manifest, entries)
    print(f"{run.total_spikes} spikes over {config.duration} s -> {out}")
    return EXIT_OK


def _check_jobs(jobs: int) -> None:
    if jobs < 1:
        raise UsageError("--jobs must be at least 1")


def cmd_mine(args) -> int:
    _check_jobs(args.jobs)
    try:
        tick = as_tick_seconds(args.tick)
    except ValueError as exc:
        raise UsageError(f"bad --tick value: {exc}") from None
    if args.kind in ("serial", "synfire") and not args.intervals:
        raise UsageError(f"{args.kind} mining requires --intervals")
    if args.kind in ("parallel", "synfire") and args.expiry is None:
        raise UsageError(f"{args.kind} mining requires --expiry")
    try:
        intervals = _parse_intervals_ms(args.intervals, tick) if args.intervals else ()
        expiry = ms_to_ticks(args.expiry, tick) if args.expiry is not None else 0
        if args.kind in ("parallel", "synfire") and expiry <= 0:
            raise ValueError("--expiry must be at least one tick")
        cfg = MiningConfig(
            freq_threshold=args.threshold,
            max_size=args.max_size,
            candidate_intervals=intervals,
            expiry=expiry,
            min_count=args.min_count,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    try:
        out = Path(args.out) if args.out else Path(args.input).with_suffix(".episodes")
    except ValueError:  # an input path with no file name, such as "" or "/"
        raise UsageError(f"no default results path for input {args.input!r}; give --out") from None
    _, manifest = _checked(out, Path(f"{out}.manifest"))
    if Path(args.input).resolve() in (out.resolve(), manifest.resolve()):
        raise UsageError(f"output {out} would overwrite the input {args.input}")

    t0 = time.perf_counter()
    seq = parse_spike_file(args.input, tick)
    parse_seconds = time.perf_counter() - t0

    t0 = time.perf_counter()
    if args.kind == "serial":
        levels = mine_serial(seq, cfg)
    elif args.kind == "parallel":
        levels = mine_parallel(seq, cfg)
    else:
        levels = mine_synfire(seq, cfg).serial_levels
    mine_seconds = time.perf_counter() - t0

    _write_levels(out, args.kind, levels, tick)
    entries = [
        ("command", "mine"),
        ("kind", args.kind),
        ("input", args.input),
        ("input_sha256", _sha256(Path(args.input))),
        ("output", out),
        ("output_sha256", _sha256(out)),
        ("tick_seconds", tick),
        ("threshold", args.threshold),
        ("min_count", args.min_count if args.min_count is not None else "-"),
        ("intervals_ms", args.intervals or "-"),
        ("expiry_ms", args.expiry if args.expiry is not None else "-"),
        ("max_size", args.max_size),
        ("jobs", args.jobs),
        ("events", len(seq)),
        ("phase.parse_sec", f"{parse_seconds:.3f}"),
        ("phase.mine_sec", f"{mine_seconds:.3f}"),
    ]
    for level in levels:
        entries.append((f"phase.level{level.size}_sec", f"{level.seconds:.3f}"))
    _write_manifest(manifest, entries)
    total = sum(len(level.counts) for level in levels)
    top = max((level.size for level in levels if level.counts), default=0)
    print(f"{total} frequent episodes (largest size {top}) -> {out}")
    return EXIT_OK


def cmd_significance(args) -> int:
    if args.max_size is None:
        args.max_size = CHAIN_LENGTH if args.scale == "paper" else 6
    if not 1 <= args.max_size <= CHAIN_LENGTH:
        raise UsageError(f"--max-size must be from 1 to {CHAIN_LENGTH}, the embedded chain length")
    _check_jobs(args.jobs)
    if args.seed < 0:
        raise UsageError("--seed must be at least 0")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    text_path, csv_path, manifest = _checked(*(out_dir / f"significance.{ext}"
                                               for ext in ("txt", "csv", "manifest")))
    if args.scale == "paper":
        # full-scale run: about 9.8-13.7 s wall, 19.1-26.8 s CPU at --jobs 2 on a 2-core
        # box (Python 3.11); acceptance criterion 8 runs it at --seed 1
        params = dict(weight_seeds=10, noise_runs_per_seed=10, random_rate_runs=50,
                      patterned_runs=20, max_size=args.max_size)
    else:
        params = dict(weight_seeds=10, noise_runs_per_seed=2, random_rate_runs=5,
                      patterned_runs=5, max_size=args.max_size)
    t0 = time.perf_counter()
    report = run_significance(jobs=args.jobs, seed0=args.seed, **params)
    elapsed = time.perf_counter() - t0
    text_path.write_text(report.to_text(), encoding="utf-8")
    csv_path.write_text(report.to_csv(), encoding="utf-8")
    entries = [
        ("command", "significance"),
        ("scale", args.scale),
        ("seed", args.seed),
        ("jobs", args.jobs),
        ("max_size", args.max_size),
        ("report_txt", text_path),
        ("report_txt_sha256", _sha256(text_path)),
        ("report_csv", csv_path),
        ("report_csv_sha256", _sha256(csv_path)),
        ("random_samples", report.random_samples),
        ("patterned_samples", report.patterned_samples),
        ("phase.total_sec", f"{elapsed:.3f}"),
    ]
    _write_manifest(manifest, entries)
    print(report.to_text(), end="")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="spikemine", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="generate a synthetic spike stream")
    sim.add_argument("out", help="output spike CSV path")
    sim.add_argument("--config", help="network config file (key = value lines)")
    sim.add_argument("--pattern", default=None,
                     help="embedded topology: example1|example2|example3|chain-<k>|none")
    sim.add_argument("--seed", type=int, default=None)
    sim.add_argument("--duration", type=float, default=None, help="seconds")
    sim.set_defaults(func=cmd_simulate)

    mine = sub.add_parser("mine", help="mine frequent episodes from a spike CSV")
    mine.add_argument("kind", choices=("serial", "parallel", "synfire"))
    mine.add_argument("input", help="spike CSV path")
    mine.add_argument("--out", help="results path (default: input with .episodes)")
    mine.add_argument("--threshold", type=float, default=0.01,
                      help="frequency threshold as a fraction of stream length")
    mine.add_argument("--min-count", type=int, default=None,
                      help="absolute occurrence floor, at least 1 (overrides --threshold)")
    mine.add_argument("--intervals", help="gap windows in ms, e.g. 4-6 or 0-2,2-4")
    mine.add_argument("--expiry", help="span limit in ms for parallel/synfire")
    mine.add_argument("--max-size", type=int, default=8)
    mine.add_argument("--tick", default="0.001", help="seconds per tick of the input")
    mine.add_argument("--jobs", type=int, default=1,
                      help="at least 1; starts no process, as mining counts in one "
                           "sequential pass; still accepted and recorded for old scripts")
    mine.set_defaults(func=cmd_mine)

    sig = sub.add_parser("significance", help="random vs patterned frequency profiles")
    sig.add_argument("out", help="output directory")
    sig.add_argument("--scale", choices=("desk", "paper"), default="desk")
    sig.add_argument("--max-size", type=int, default=None, help="default 6, or 10 at paper scale")
    sig.add_argument("--seed", type=int, default=1)
    sig.add_argument("--jobs", type=int, default=1,
                     help="worker processes; each simulates and mines whole datasets")
    sig.set_defaults(func=cmd_significance)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        return _fail(EXIT_USAGE, str(exc))
    except ConfigError as exc:
        return _fail(EXIT_CONFIG, str(exc))
    except (SpikeFileError, CompositeLabelError, OSError) as exc:
        return _fail(EXIT_IO, str(exc))
    except MemoryError:
        return _fail(EXIT_USAGE, f"out of memory; retry with {SIZE_OPTIONS[args.command]}")


if __name__ == "__main__":
    sys.exit(main())
