"""spikemine benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload ex1-pipeline --seed 1 --seconds 30 --trace 0

Run from the repository root. With ``--trace 0`` it repeats a set-up
round and the timed part for ``--seconds`` (at least three times), checks
the outputs against the library and the brute-force oracles in
``tests/oracles.py``, and prints the end-to-end metrics (CPU seconds
scaled to a reference speed). With ``--trace 1`` it repeats an untraced
and a traced iteration instead and prints the per-layer metrics. The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``; the lines before it
(prefixed ``#``) record the environment and, untraced, whether the
embedded structure was recovered. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[1:1] = [str(ROOT / "src"), str(ROOT / "tests")]

import numpy  # noqa: E402

from metrics import END_TO_END, PER_LAYER, layer_metrics  # noqa: E402
from tracing import Profile, Tracer  # noqa: E402
from workloads import WORKLOADS, Checks, cpu_seconds  # noqa: E402

IMPORT_PROBES = 9
MIN_ITERATIONS = 3  # untraced; a traced run makes at least one
REFERENCE_CALIBRATION_S = 0.065  # CPU seconds of calibrate() at the reference speed


def calibrate() -> float:
    """CPU seconds of a fixed piece of interpreter and small-array numpy work.

    It uses nothing of spikemine, so a change to the program leaves it
    alone, while the machine's speed moves it as it moves the workload.
    """
    cpu = cpu_seconds()
    counts, total = {}, 0
    for i in range(120_000):
        key = (i * 7919) % 1543
        counts[key] = counts.get(key, 0) + 1
        total += key & 3
    total += len(sorted((v, k) for k, v in counts.items()))
    total += len(",".join(str(i) for i in range(40_000)).split(","))
    rng = numpy.random.default_rng(0)
    weights, x = rng.random((12, 12)), numpy.zeros(12)
    for _ in range(6_000):
        x = numpy.exp(-numpy.abs(weights @ x - 1.0))
        x[rng.random(12) < 0.1] = 0.0
    return cpu_seconds() - cpu


def at_reference(cpu: float, before: float, after: float) -> float:
    """CPU seconds scaled to the reference speed, by the calibrations either side."""
    return cpu * REFERENCE_CALIBRATION_S / ((before + after) / 2)


def cold_import_cpu_seconds() -> float:
    """CPU seconds of a fresh interpreter importing the CLI, which every
    spikemine command pays and the in-process calls skip."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    cpu = cpu_seconds()
    subprocess.run([sys.executable, "-c", "import spikemine.cli"], env=env, check=True)
    return cpu_seconds() - cpu


def peak_rss_mib() -> float:
    """Peak RSS of this process plus that of its largest finished child."""
    kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024


def git_commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def measure(workload, seconds: int) -> tuple[dict, dict]:
    """Untraced run: set-up rounds and timed iterations in turn, then probes and checks.

    Set-up is repeated before every timed iteration rather than all at once,
    so the set-up samples, like the timed ones, spread over the whole run and
    a slow spell of the machine weighs on both alike. A calibration runs
    between every two measured parts, and each part's CPU seconds are scaled
    to the reference speed by the calibrations either side of it, because
    the machine's speed swings within seconds and CPU time swings with it.
    """
    setups, samples, calibrations = [], [], [calibrate()]
    start = time.perf_counter()
    while len(samples) < MIN_ITERATIONS or time.perf_counter() - start < seconds:
        cpu = cpu_seconds()
        prepared = workload.setup(len(samples))
        setup_cpu = cpu_seconds() - cpu
        calibrations.append(calibrate())
        cpu = cpu_seconds()
        result = workload.run()
        run_cpu = cpu_seconds() - cpu
        calibrations.append(calibrate())
        before, between, after = calibrations[-3:]
        setups.append(at_reference(setup_cpu, before, between))
        sample = {key: at_reference(v, before, between) for key, v in prepared.items()}
        sample.update({key: at_reference(v, between, after) for key, v in result.items()})
        sample["cpu_s"] = at_reference(run_cpu, between, after)
        sample["wall_s"] = result["wall_s"]
        samples.append(sample)
    rss = peak_rss_mib()  # before the import probes, whose process is not the workload's
    probes = []
    for _ in range(IMPORT_PROBES):
        cpu = cold_import_cpu_seconds()
        calibrations.append(calibrate())
        probes.append(at_reference(cpu, *calibrations[-2:]))
    probe = statistics.median(probes)

    def median(key):
        return statistics.median(s[key] for s in samples)

    metrics = {
        "cpu_s": median("cpu_s"),
        "simulate_cpu_s": median("simulate_cpu_s"),
        "mine_cpu_s": median("mine_cpu_s"),
        "setup_s": probe + statistics.median(setups),
        "peak_rss_mib": rss,
    }
    workload.check()
    info = {
        "iterations": len(samples),
        "wall_s": median("wall_s"),
        "wall_s_samples": [s["wall_s"] for s in samples],
        "cold_import_cpu_s": probe,
        "calibration_s": statistics.median(calibrations),
        "recovered": workload.recovery(),
    }
    return metrics, info


def profile(workload, seconds: int) -> tuple[dict, dict]:
    """Traced run: untraced and traced iterations in turn; per-layer medians.

    Every iteration mines recording 0, so the counts repeat exactly.
    """
    setup_tracer = Tracer()
    workload.setup(0, setup_tracer)
    samples = []
    start = time.perf_counter()
    while not samples or time.perf_counter() - start < seconds:
        untraced = workload.run()["wall_s"]
        tracer = Tracer()
        traced = workload.run(tracer)["wall_s"]
        samples.append(layer_metrics(Profile([setup_tracer, tracer]), traced, untraced))
    workload.check_traced(tracer)
    metrics = {
        # a count repeats exactly, so report one that was measured
        name: (statistics.median_low if unit == "count" else statistics.median)(
            s[name] for s in samples
        )
        for name, unit in PER_LAYER.items()
    }
    return metrics, {"iterations": len(samples)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--recording-seconds", type=float, default=25.0,
                        help="length of the simulated recordings (default 25)")
    args = parser.parse_args(argv)

    env = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "loadavg_start": os.getloadavg(),
        "workload": args.workload,
        "seed": args.seed,
        "recording_s": args.recording_seconds,
        "run_seconds": args.seconds,
        "trace": args.trace,
    }
    work = ROOT / ".perfbench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    checks = Checks()
    try:
        workload = WORKLOADS[args.workload](work, args.seed, args.recording_seconds, checks)
        if args.trace:
            values, info = profile(workload, args.seconds)
        else:
            values, info = measure(workload, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    env["loadavg_end"] = os.getloadavg()
    env["git_commit"] = git_commit()  # after the run: its process is not the workload's

    units = PER_LAYER if args.trace else END_TO_END
    result = {
        "correct": not checks.failures,
        "attempted": checks.attempted,
        "failed": len(checks.failures),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print("# env " + json.dumps(env))
    print("# info " + json.dumps(info))
    for failure in checks.failures:
        print("# failed: " + failure)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
