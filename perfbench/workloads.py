"""The three workloads: set-up, one timed iteration, and the checks.

Each workload derives everything the program sees (simulator seeds) from
the benchmark seed and a recording number: ``setup(recording)`` prepares
the input of one timed iteration. An untraced run gives every iteration a
recording of its own, so its median covers many recordings, not one.
``run()`` is the timed part; ``run(tracer)`` is the same work with spans,
where the mining goes through the re-driven level loops of ``tracing``.
Checks run outside the timed part, on the last recording's outputs.
"""

from __future__ import annotations

import io
import random
import resource
import time
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

import spikemine.cli as cli
from oracles import parallel_oracle_count, serial_oracle_count
from spikemine import (
    Interval,
    MiningConfig,
    ParallelEpisode,
    SerialEpisode,
    mine_parallel,
    mine_serial,
    mine_synfire,
    parse_spike_file,
)

from metrics import FANOUT_JOBS
from tracing import fanout_profile, serial_loop, traced_cli

TICK = Fraction(1, 1000)  # the CLI's default --tick


def cpu_seconds() -> float:
    """User and system time of this process and its finished children.

    Unlike wall time it leaves out the time the host of a virtual machine
    steals from the guest, which makes wall time unsteady on a shared host.
    """
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


class Checks:
    """Correctness checks and operations attempted, and the ones that failed."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def op(self) -> None:
        self.attempted += 1

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def same_levels(a, b) -> bool:
    """Level lists equal in everything but their timing."""
    return [(lv.size, lv.n_candidates, lv.counts) for lv in a] == [
        (lv.size, lv.n_candidates, lv.counts) for lv in b
    ]


def same_synfire(a, b) -> bool:
    return (
        same_levels(a.parallel_levels, b.parallel_levels)
        and a.rewritten_group_counts == b.rewritten_group_counts
        and a.rewritten.events == b.rewritten.events
        and a.rewritten.alphabet == b.rewritten.alphabet
        and same_levels(a.serial_levels, b.serial_levels)
    )


def rendered(levels) -> list[str]:
    """The level blocks of a CLI results file, without its two header lines."""
    lines = []
    for lv in levels:
        lines.append(f"# level size={lv.size} candidates={lv.n_candidates} frequent={len(lv.counts)}")
        lines.extend(f"{c.episode} : {c.freq}" for c in lv.counts)
    return lines


def results_lines(path: Path) -> list[str]:
    return path.read_text(encoding="utf-8").splitlines()[2:]


def top_episodes(levels) -> set:
    sized = [lv for lv in levels if lv.counts]
    return {c.episode for c in sized[-1].counts} if sized else set()


class Workload:
    name = ""
    library = {}  # span name of a re-driven loop -> library function it mirrors
    outputs = ()  # files a traced iteration writes again, to compare byte for byte

    def __init__(self, work: Path, seed: int, recording_s: float, checks: Checks):
        self.work = work
        self.seed = seed
        self.recording_s = recording_s
        self.checks = checks

    def path(self, name: str, tracer=None) -> str:
        return str(self.work / (f"traced-{name}" if tracer else name))

    def cli(self, argv: list[str], tracer=None) -> float:
        """One in-process CLI call; returns its CPU seconds."""
        self.checks.op()
        sink = io.StringIO()
        cpu = cpu_seconds()
        with redirect_stdout(sink):
            if tracer is None:
                code = cli.main(argv)
            else:
                with traced_cli(tracer), tracer.span("cli", command=argv[0]):
                    code = cli.main(argv)
        cpu = cpu_seconds() - cpu
        if code != 0:
            raise RuntimeError(f"spikemine {' '.join(argv)} exited with {code}")
        return cpu

    def sim_seed(self, recording: int) -> int:
        return 1000 * self.seed + recording

    def setup(self, recording: int, tracer=None) -> dict:
        self.recording = recording
        return {}

    def run(self, tracer=None) -> dict:
        raise NotImplementedError

    def check(self) -> None:
        raise NotImplementedError

    def recovery(self) -> dict:
        return {}

    def check_traced(self, tracer) -> None:
        """Re-driven loops against the library; traced CLI files against untraced."""
        for span in tracer.spans:
            if span.name not in self.library:
                continue  # only the mine calls the workload makes, not their inner phases
            (seq, cfg, jobs), result = span.call
            expected = self.library[span.name](seq, cfg, jobs=jobs)
            same = same_synfire if span.name == "mine.synfire" else same_levels
            self.checks.expect(same(result, expected), f"re-driven {span.name} differs from the library")
        for name in self.outputs:
            plain = Path(self.path(name)).read_bytes()
            traced = Path(self.path(name, tracer=True)).read_bytes()
            self.checks.expect(plain == traced, f"traced {name} differs from the untraced one")


# ---------------------------------------------------------------------------


FOUR_CHAINS = {
    SerialEpisode(tuple(types), (Interval(4, 6),) * 3) for types in ("ABCD", "ABEF", "ABED", "ABCF")
}
EX3_CHAIN = SerialEpisode(
    ("X", "[A B C]", "D", "E", "F"),
    (Interval(4, 6), Interval(2, 4), Interval(6, 8), Interval(2, 4)),
)


class Example1Pipeline(Workload):
    """simulate --pattern example1, then mine serial and mine parallel on its CSV."""

    name = "ex1-pipeline"
    library = {"mine.serial": mine_serial, "mine.parallel": mine_parallel}
    outputs = ("ex1.csv", "serial.episodes", "parallel.episodes")
    serial_cfg = MiningConfig(freq_threshold=0.01, max_size=8, candidate_intervals=(Interval(4, 6),))
    parallel_cfg = MiningConfig(freq_threshold=0.01, max_size=8, expiry=7)

    def run(self, tracer=None) -> dict:
        csv = self.path("ex1.csv", tracer)
        t0 = time.perf_counter()
        sim = self.cli(
            ["simulate", csv, "--pattern", "example1", "--seed", str(self.sim_seed(self.recording)),
             "--duration", str(self.recording_s)],
            tracer,
        )
        mine = self.cli(
            ["mine", "serial", csv, "--intervals", "4-6", "--threshold", "0.01",
             "--jobs", "1", "--out", self.path("serial.episodes", tracer)],
            tracer,
        )
        mine += self.cli(
            ["mine", "parallel", csv, "--expiry", "7", "--threshold", "0.01",
             "--jobs", "1", "--out", self.path("parallel.episodes", tracer)],
            tracer,
        )
        return {"wall_s": time.perf_counter() - t0, "simulate_cpu_s": sim, "mine_cpu_s": mine}

    def check(self) -> None:
        seq = parse_spike_file(self.path("ex1.csv"), TICK)
        self.serial = mine_serial(seq, self.serial_cfg)
        self.parallel = mine_parallel(seq, self.parallel_cfg)
        for levels, out in ((self.serial, "serial.episodes"), (self.parallel, "parallel.episodes")):
            self.checks.expect(
                results_lines(Path(self.path(out))) == rendered(levels),
                f"{out} differs from the library result",
            )
        for lv in self.serial:
            for c in lv.counts:
                self.checks.expect(serial_oracle_count(c.episode, seq) == c.freq, f"oracle: {c.episode}")
        for lv in self.parallel:
            for c in lv.counts:
                self.checks.expect(
                    parallel_oracle_count(c.episode, seq, self.parallel_cfg.expiry) == c.freq,
                    f"oracle: {c.episode}",
                )

    def recovery(self) -> dict:
        found = {c.episode for lv in self.parallel for c in lv.counts}
        return {
            "four_chains": top_episodes(self.serial) == FOUR_CHAINS,
            "group_CDEF": ParallelEpisode(("C", "D", "E", "F")) in found,
        }


class Example3Synfire(Workload):
    """Set-up simulates example 3; the timed part is the CLI's mine synfire."""

    name = "ex3-synfire"
    library = {"mine.synfire": mine_synfire}
    outputs = ("synfire.episodes",)
    cfg = MiningConfig(
        freq_threshold=0.01, max_size=8, expiry=1,
        candidate_intervals=tuple(Interval(2 * i, 2 * i + 2) for i in range(5)),
    )

    def setup(self, recording: int, tracer=None) -> dict:
        sim = self.cli(
            ["simulate", self.path("ex3.csv"), "--pattern", "example3",
             "--seed", str(self.sim_seed(recording)),
             "--duration", str(self.recording_s)],
            tracer,
        )
        return {"simulate_cpu_s": sim}

    def run(self, tracer=None) -> dict:
        t0 = time.perf_counter()
        mine = self.cli(
            ["mine", "synfire", self.path("ex3.csv"), "--expiry", "1",
             "--intervals", "0-2,2-4,4-6,6-8,8-10", "--threshold", "0.01",
             "--jobs", "1", "--out", self.path("synfire.episodes", tracer)],
            tracer,
        )
        return {"wall_s": time.perf_counter() - t0, "mine_cpu_s": mine}

    def check(self) -> None:
        seq = parse_spike_file(self.path("ex3.csv"), TICK)
        self.result = mine_synfire(seq, self.cfg)
        self.checks.expect(
            results_lines(Path(self.path("synfire.episodes"))) == rendered(self.result.serial_levels),
            "synfire.episodes differs from the library result",
        )
        for lv in self.result.serial_levels:
            for c in lv.counts:
                self.checks.expect(
                    serial_oracle_count(c.episode, self.result.rewritten) == c.freq,
                    f"oracle: {c.episode}",
                )

    def recovery(self) -> dict:
        return {"chain_X_ABC_D_E_F": top_episodes(self.result.serial_levels) == {EX3_CHAIN}}


class RandomDeep(Workload):
    """Set-up simulates a random network; the timed part is a deep mine_serial."""

    name = "random-deep"
    library = {"mine.serial": mine_serial}
    cfg = MiningConfig(
        freq_threshold=0.0, max_size=5, candidate_intervals=(Interval(0, 5),), beam_width=500
    )
    oracle_sample = 10  # counts per level

    def setup(self, recording: int, tracer=None) -> dict:
        # the significance study's first wiring and its noise run number
        # ``recording``, for seed0 = seed
        config = Path(self.path("network.cfg"))
        config.write_text(
            f"seed = {self.seed + 1000 + recording}\nweight_seed = {self.seed + 100}\n"
            f"duration = {self.recording_s}\n",
            encoding="utf-8",
        )
        csv = self.path("random.csv")
        sim = self.cli(["simulate", csv, "--config", str(config)], tracer)
        self.checks.op()
        if tracer is None:
            self.seq = parse_spike_file(csv, TICK)
        else:
            with tracer.span("events.parse") as span:
                self.seq = parse_spike_file(csv, TICK)
            span.attrs["events"] = len(self.seq)
        return {"simulate_cpu_s": sim}

    def run(self, tracer=None) -> dict:
        self.checks.op()
        t0, cpu = time.perf_counter(), cpu_seconds()
        if tracer is None:
            self.levels = mine_serial(self.seq, self.cfg, jobs=FANOUT_JOBS)
        else:
            level_candidates = []
            serial_loop(tracer, self.seq, self.cfg, FANOUT_JOBS, level_candidates)
        wall, cpu = time.perf_counter() - t0, cpu_seconds() - cpu
        if tracer is not None:
            fanout_profile(tracer, self.seq, self.cfg, level_candidates, FANOUT_JOBS)
        return {"wall_s": wall, "mine_cpu_s": cpu}

    def check(self) -> None:
        alone = mine_serial(self.seq, self.cfg, jobs=1)
        self.checks.expect(same_levels(alone, self.levels), f"jobs={FANOUT_JOBS} differs from jobs=1")
        rng = random.Random(self.seed)
        for lv in self.levels:
            for c in rng.sample(lv.counts, min(self.oracle_sample, len(lv.counts))):
                self.checks.expect(serial_oracle_count(c.episode, self.seq) == c.freq, f"oracle: {c.episode}")


WORKLOADS = {w.name: w for w in (Example1Pipeline, Example3Synfire, RandomDeep)}
