import re

import pytest

import spikemine.significance as significance
from spikemine import (
    Interval,
    MiningConfig,
    NetworkConfig,
    SerialEpisode,
    count_serial_constrained,
    embed_pattern,
    mine_serial,
    run_significance,
    simulate,
)
from spikemine.simulator import neuron_labels
from spikemine.significance import SignificanceReport


@pytest.fixture(scope="module")
def tiny_report():
    base = NetworkConfig(duration=8.0)
    return run_significance(
        base,
        weight_seeds=2,
        noise_runs_per_seed=1,
        random_rate_runs=1,
        patterned_runs=2,
        max_size=3,
    )


def test_report_shape(tiny_report):
    assert tiny_report.sizes == (1, 2, 3)
    assert tiny_report.random_samples == 3
    assert tiny_report.patterned_samples == 2
    assert len(tiny_report.random_avg_max) == 3
    assert len(tiny_report.patterned_avg_min) == 3


def test_random_max_profile_non_increasing(tiny_report):
    profile = tiny_report.random_avg_max
    assert all(a >= b for a, b in zip(profile, profile[1:]))


def test_random_triples_are_rare(tiny_report):
    assert tiny_report.random_avg_max[2] < 10


def test_random_single_node_max_tracks_event_statistics(tiny_report):
    # ~7 Hz resting x 8 s = ~56 events/neuron; the busiest of 26 sits near that
    per_neuron = 7.0 * 8.0
    assert per_neuron / 3 <= tiny_report.random_avg_max[0] <= per_neuron * 3


def test_patterned_chain_dominates_random(tiny_report):
    # even at toy scale the embedded chain's segments dwarf random triples
    assert tiny_report.separation(3) > 5


def test_profile_invariant_enforced():
    with pytest.raises(ValueError):
        SignificanceReport(
            sizes=(1, 2),
            random_avg_max=(1.0, 2.0),
            patterned_avg_min=(5.0, 5.0),
            random_samples=1,
            patterned_samples=1,
        )


def test_render_text_and_csv(tiny_report):
    text = tiny_report.to_text()
    assert "RandomAvgMax" in text and "(0,5]" in text
    assert len(text.strip().splitlines()) == 3 + len(tiny_report.sizes)
    csv = tiny_report.to_csv()
    lines = csv.strip().splitlines()
    assert lines[0] == "size,random_avg_max,patterned_avg_min"
    assert len(lines) == 1 + len(tiny_report.sizes)


def test_jobs_do_not_change_results():
    base = NetworkConfig(duration=4.0)
    kwargs = dict(
        weight_seeds=1, noise_runs_per_seed=1, random_rate_runs=1,
        patterned_runs=1, max_size=2,
    )
    solo = run_significance(base, **kwargs)
    multi = run_significance(base, jobs=2, **kwargs)
    assert solo.random_avg_max == multi.random_avg_max
    assert solo.patterned_avg_min == multi.patterned_avg_min


def test_significance_workers_bounded(cpus, inline_pools):
    cpus(8)
    kwargs = dict(
        weight_seeds=1, noise_runs_per_seed=2, random_rate_runs=1,
        patterned_runs=1, max_size=2,
    )
    multi = run_significance(NetworkConfig(duration=2.0), jobs=10**6, **kwargs)
    assert inline_pools == [3]  # three random datasets, one patterned
    solo = run_significance(NetworkConfig(duration=2.0), **kwargs)
    assert inline_pools == [3]
    assert (multi.random_avg_max, multi.patterned_avg_min) == (
        solo.random_avg_max, solo.patterned_avg_min
    )


@pytest.mark.parametrize("jobs", [1, 2])
def test_each_finished_dataset_reports_progress(capfd, cpus, jobs):
    cpus(2)  # two workers start a process pool; one counts in this process
    run_significance(
        NetworkConfig(duration=2.0), weight_seeds=1, noise_runs_per_seed=2, random_rate_runs=0,
        patterned_runs=1, max_size=2, jobs=jobs,
    )
    out, err = capfd.readouterr()
    assert out == ""
    lines = err.splitlines()
    assert [line.rsplit(" in ", 1)[0] for line in lines] == [
        "significance: random dataset 1/2 done",
        "significance: random dataset 2/2 done",
        "significance: patterned dataset 1/1 done",
    ]
    assert all(re.fullmatch(r".* in \d+\.\d\d s", line) for line in lines)


@pytest.mark.parametrize("config, max_size", [
    (NetworkConfig(duration=3.0, weight_seed=101, seed=1001), 8),
    (NetworkConfig(duration=3.0, weight_seed=102, seed=2001), 8),
    (NetworkConfig(duration=3.0, rate_mode="uniform", lambda_max=14.0, seed=500_001), 8),
    (NetworkConfig(duration=0.5, weight_seed=101, seed=1001), 10),  # no chain of 8
    # a beam of the 500 best seeds per level misses the size-5 maximum of 2 here
    (NetworkConfig(weight_seed=102, seed=2002), 5),
], ids=["weights-3s-a", "weights-3s-b", "uniform-3s", "weights-0.5s", "weights-50s"])
def test_max_profile_equals_an_unbeamed_floor_1_mine(config, max_size):
    cfg = MiningConfig(max_size=max_size, candidate_intervals=(Interval(0, 5),))
    levels = mine_serial(simulate(config).sequence, cfg)
    maxima = [max((c.freq for c in level.counts), default=0) for level in levels]
    assert significance._max_profile((config, max_size)) == maxima + [0] * (max_size - len(maxima))


def test_longest_chain_counts_distinct_ticks_within_the_window():
    chain = significance._longest_chain
    assert chain((), 10) == 0
    assert chain((0, 5), 10) == 2  # a gap of exactly 5 ticks chains
    assert chain((0, 6), 10) == 1  # a gap of 6 breaks the chain
    assert chain((3, 3, 3), 10) == 1  # events at one tick never chain
    assert chain((0, 5, 5, 11, 12, 17), 10) == 3

    def ticks():
        yield from (0, 1, 2)
        pytest.fail("read past the cap")

    assert chain(ticks(), 3) == 3


def test_min_profile_one_pass_equals_one_pass_per_size():
    chain = embed_pattern(NetworkConfig(duration=4.0, seed=11), "chain-10")
    seq = simulate(chain).sequence
    labels = neuron_labels(chain.num_neurons)[:10]
    per_size = [
        min(c.freq for c in count_serial_constrained(
            [SerialEpisode(labels[i : i + size], (Interval(0, 5),) * (size - 1))
             for i in range(10 - size + 1)], seq))
        for size in range(1, 6)
    ]
    assert significance._min_profile((chain, 5)) == per_size
    assert per_size[-1] > 0  # the chain fires, so no minimum is trivially 0


def test_max_size_beyond_chain_refused_before_simulating(monkeypatch):
    monkeypatch.setattr(significance, "simulate", lambda config: pytest.fail("simulated"))
    with pytest.raises(ValueError, match="exceeds the embedded chain length 10"):
        run_significance(max_size=11)


@pytest.mark.parametrize("empty", [
    dict(patterned_runs=0),
    dict(weight_seeds=0, random_rate_runs=0),
    dict(noise_runs_per_seed=0, random_rate_runs=0),
])
def test_family_without_datasets_refused_before_simulating(monkeypatch, empty):
    monkeypatch.setattr(significance, "simulate", lambda config: pytest.fail("simulated"))
    with pytest.raises(ValueError, match="each family needs at least one dataset"):
        run_significance(NetworkConfig(duration=1.0), max_size=2, **empty)
