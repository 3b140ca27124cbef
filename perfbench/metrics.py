"""Per-layer values derived from spans; metric names and units from BENCHMARK.json.

Every traced run reports every per-layer metric. A layer the workload
does not run (synfire outside ex3-synfire, parallel counting on
random-deep, the fan-out outside random-deep, a level the search never
reached) reports 0.
"""

from __future__ import annotations

import json
from pathlib import Path

_SPEC = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text(encoding="utf-8")
)
END_TO_END = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}

SERIAL_LEVELS = (1, 2, 3, 4)
PARALLEL_LEVELS = (1, 2, 3)
FANOUT_JOBS = 2  # random-deep's --jobs


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(profile, traced_wall: float, untraced_wall: float) -> dict[str, float]:
    """Per-layer values of one traced iteration (plus the set-up spans)."""
    p = profile
    m = {}
    m["simulator.simulate_s"] = sim = p.self_s("simulator.simulate")
    m["simulator.steps_per_s"] = _ratio(p.total("simulator.simulate", "steps"), sim)
    m["simulator.spikes"] = p.total("simulator.simulate", "spikes")
    m["events.write_s"] = p.self_s("events.write")
    m["events.parse_s"] = parse = p.self_s("events.parse")
    m["events.parse_events_per_s"] = _ratio(p.total("events.parse", "events"), parse)
    m["events.events"] = max((s.attrs["events"] for s, _ in p.matching("events.parse")), default=0)

    for kind, levels in (("serial", SERIAL_LEVELS), ("parallel", PARALLEL_LEVELS)):
        for k in levels:
            m[f"episodes.{kind}_join_s.L{k}"] = p.self_s(f"episodes.{kind}_join", level=k)
            m[f"episodes.candidates.{kind}.L{k}"] = p.total(
                f"episodes.{kind}_join", "candidates", level=k
            )
            count_s = p.self_s(f"{kind}.count", level=k)
            frequent = p.total(f"{kind}.count", "frequent", level=k)
            m[f"{kind}.count_s.L{k}"] = count_s
            m[f"{kind}.frequent.L{k}"] = frequent
            m[f"{kind}.yield.L{k}"] = _ratio(frequent, p.total(f"{kind}.count", "candidates", level=k))
            if kind == "serial":
                work = sum(
                    s.attrs["candidates"] * s.attrs["events"]
                    for s, _ in p.matching("serial.count", level=k)
                )
                m[f"serial.candidate_events_per_s.L{k}"] = _ratio(work, count_s)

    m["synfire.maximal_s"] = p.self_s("synfire.maximal")
    m["synfire.rewrite_s"] = p.self_s("synfire.rewrite")
    m["synfire.composites"] = p.total("synfire.rewrite", "composites")
    m["synfire.rewritten_events"] = p.total("synfire.rewrite", "events")

    for k in SERIAL_LEVELS:
        fanned = p.self_s("serial.count", level=k, jobs=FANOUT_JOBS)
        alone = p.self_s("serial.count_jobs1", level=k)
        chunks = [own for _, own in p.matching("serial.count_chunk", level=k)]
        slowest = max(chunks, default=0.0)
        m[f"serial.fanout_speedup.L{k}"] = _ratio(alone, fanned)
        m[f"serial.chunk_skew.L{k}"] = _ratio(slowest, min(chunks, default=0.0))
        m[f"serial.fanout_overhead_s.L{k}"] = fanned - slowest if chunks else 0.0

    m["cli.overhead_s"] = p.self_s("cli")
    m["trace.overhead_ratio"] = _ratio(traced_wall, untraced_wall) - 1.0
    return m
