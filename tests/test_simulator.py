import itertools
import math
import random
from dataclasses import replace

import numpy as np
import pytest

from spikemine import (
    ConfigError,
    NetworkConfig,
    StrongEdge,
    embed_pattern,
    parse_network_config,
    simulate,
    update_rates,
)
from spikemine.simulator import MAX_GRID_CELLS, neuron_labels

from oracles import simulate_oracle

FLOAT_FIELDS = (
    "weight_bound", "lambda_max", "rate_offset", "delta_t", "duration",
    "strong_weight", "relay_weight", "group_weight",
)
NON_FINITE = ("nan", "inf", "-inf")


def fast_config(**overrides):
    base = dict(num_neurons=8, weight_bound=0.0, duration=5.0, seed=3)
    base.update(overrides)
    return NetworkConfig(**base)


class TestRateUpdate:
    def test_midpoint(self):
        cfg = NetworkConfig()
        (rate,) = update_rates([cfg.rate_offset], cfg)
        assert rate == pytest.approx(cfg.lambda_max / 2, rel=1e-12)

    def test_resting_rate(self):
        cfg = NetworkConfig()
        (rate,) = update_rates([0.0], cfg)
        assert rate == pytest.approx(cfg.lambda_max / (1 + math.exp(cfg.rate_offset)), rel=1e-12)
        assert rate == pytest.approx(7.0, rel=5e-3)  # calibrated default

    def test_matches_reference_formula(self):
        cfg = NetworkConfig(lambda_max=777.0, rate_offset=2.5)
        rng = random.Random(1)
        inputs = [rng.uniform(-30, 30) for _ in range(200)]
        got = update_rates(inputs, cfg)
        for x, g in zip(inputs, got):
            ref = cfg.lambda_max / (1 + math.exp(-x + cfg.rate_offset))
            assert g == pytest.approx(ref, rel=1e-12)

    def test_bounded_open_interval(self):
        cfg = NetworkConfig()
        # strictly inside (0, lambda_max) wherever float64 resolves the sigmoid
        inner = update_rates(np.linspace(-30, 30, 1001) + cfg.rate_offset, cfg)
        assert np.all(inner > 0) and np.all(inner < cfg.lambda_max)
        # far outside, the product saturates but never overshoots
        outer = update_rates(np.linspace(-300, 300, 1001), cfg)
        assert np.all(outer >= 0) and np.all(outer <= cfg.lambda_max)


class TestSimulate:
    def test_seed_determinism(self):
        cfg = fast_config(weight_bound=0.4)
        a = simulate(cfg).sequence
        b = simulate(cfg).sequence
        assert a.events == b.events
        c = simulate(fast_config(weight_bound=0.4, seed=4)).sequence
        assert c.events != a.events

    def test_resting_spike_count_zero_weights(self):
        # offset chosen for a 20 Hz resting rate: 26 neurons x 50 s ~ 26k spikes
        cfg = NetworkConfig(num_neurons=26, weight_bound=0.0, duration=50.0, seed=11,
                            rate_offset=math.log(5000.0 / 20.0 - 1.0))
        run = simulate(cfg)
        assert 26_000 * 0.85 <= run.total_spikes <= 26_000 * 1.15
        # per-neuron counts near the binomial expectation of the resting rate
        steps = cfg.steps
        (rate,) = update_rates([0.0], cfg)
        p = -math.expm1(-rate * cfg.delta_t)
        mean, sigma = steps * p, math.sqrt(steps * p * (1 - p))
        per = {label: 0 for label in cfg.labels}
        for ev in run.sequence:
            per[ev.etype] += 1
        for label, n in per.items():
            assert abs(n - mean) <= 4 * sigma, f"{label}: {n} vs {mean:.0f}"

    def test_tiny_rate_is_nearly_silent(self):
        run = simulate(fast_config(lambda_max=0.001))
        assert run.total_spikes == 0

    def test_refractory_gap(self):
        cfg = fast_config(num_neurons=3, lambda_max=50_000.0, rate_offset=-5.0,
                          refractory_steps=4, duration=2.0)
        run = simulate(cfg)
        assert run.total_spikes > 0
        last = {}
        for ev in run.sequence:
            if ev.etype in last:
                assert ev.time - last[ev.etype] >= 4
            last[ev.etype] = ev.time

    def test_strong_edge_drives_target(self):
        cfg = NetworkConfig(
            num_neurons=2, weight_bound=0.0, duration=20.0, seed=5,
            strong_edges=(StrongEdge(0, 1, 11.0, 5),),
        )
        run = simulate(cfg)
        a_times = {ev.time for ev in run.sequence if ev.etype == "A"}
        b_times = {ev.time for ev in run.sequence if ev.etype == "B"}
        driven = sum(1 for t in a_times if t + 5 in b_times)
        assert driven >= 0.9 * len(a_times) > 0

    def test_uniform_rate_mode_scale(self):
        cfg = NetworkConfig(num_neurons=26, rate_mode="uniform", lambda_max=40.0,
                            duration=10.0, seed=9)
        run = simulate(cfg)
        # E[p] = 1 - (1 - e^-x)/x per bin at x = lambda_max*dt
        x = cfg.lambda_max * cfg.delta_t
        expected = cfg.steps * 26 * (1 - (1 - math.exp(-x)) / x)
        assert 0.8 * expected <= run.total_spikes <= 1.2 * expected

    def test_sequence_tick_matches_step(self):
        run = simulate(fast_config(delta_t=0.002, duration=1.0))
        assert run.sequence.tick_seconds == run.config.delta_t or float(
            run.sequence.tick_seconds
        ) == run.config.delta_t


def assert_matches_oracle(cfg):
    events = simulate(cfg).sequence.events
    assert events == simulate_oracle(cfg), cfg
    return events


@pytest.mark.parametrize("rate_mode", ["network", "uniform"])
def test_same_tick_spikes_keep_neuron_index_order(rate_mode):
    # past 26 neurons the labels are N0, N1, ..., which sort apart from the indices
    cfg = NetworkConfig(num_neurons=40, weight_bound=0.5, lambda_max=400.0, rate_offset=0.0,
                        duration=1.0, seed=4, rate_mode=rate_mode)
    events = assert_matches_oracle(cfg)  # the oracle lists np.nonzero of its grid
    index = {x: i for i, x in enumerate(cfg.labels)}
    same_tick = [(a.etype, b.etype) for a, b in zip(events, events[1:]) if a.time == b.time]
    assert all(index[x] < index[y] for x, y in same_tick)
    assert any(x > y for x, y in same_tick)  # e.g. N9 before N10


class TestDecisionOrder:
    """``simulate`` against the loop that decides one step at a time."""

    @pytest.mark.parametrize("pattern", ["none", "example1", "example2", "example3", "chain-5"])
    def test_sweep_equals_step_oracle(self, pattern):
        # the earliest-first recompute sweep of network mode, over both delays and masks
        for seed, refractory, delay in itertools.product(range(3), (1, 2, 3, 4), (1, 5)):
            assert_matches_oracle(embed_pattern(
                NetworkConfig(duration=1.0, seed=seed, refractory_steps=refractory,
                              synaptic_delay_steps=delay),
                pattern,
            ))

    def test_one_step_edge_delay(self):
        # A -> B -> C with 1-step delays: a recomputed step flags the very next one,
        # through an edge and, with a refractory period, through the mask
        edges = (StrongEdge(0, 1, 11.0, 1), StrongEdge(1, 2, 11.0, 1))
        for seed, refractory in itertools.product(range(3), (1, 2, 3)):
            events = assert_matches_oracle(NetworkConfig(
                num_neurons=5, duration=3.0, seed=seed, strong_edges=edges,
                refractory_steps=refractory,
            ))
            times = {(ev.etype, ev.time) for ev in events}
            a_times = [t for label, t in times if label == "A"]
            assert sum(("B", t + 1) in times and ("C", t + 2) in times for t in a_times) > 0

    def test_edge_delays_below_synaptic_delay(self):
        # example 3 has 3-step edges under the 5-step synaptic delay, and a 7-step one
        cfg = embed_pattern(NetworkConfig(duration=5.0), "example3")
        assert {e.delay_steps for e in cfg.strong_edges} == {3, 5, 7}
        for seed in range(3):
            assert_matches_oracle(replace(cfg, seed=seed))

    def test_grids_shorter_than_and_not_a_multiple_of_a_delay(self):
        # busy neurons so that short grids hold spikes whose targets fall past the end
        busy = NetworkConfig(rate_offset=2.0, seed=7)
        for pattern, steps in itertools.product(("none", "example1", "example3"), range(1, 19)):
            events = assert_matches_oracle(
                embed_pattern(replace(busy, duration=steps / 1000), pattern)
            )
            assert events and max(ev.time for ev in events) < steps

    def test_delays_past_the_run_reach_nothing(self):
        # delays this long must not size any array by the delay
        edges = (StrongEdge(0, 1, 11.0, 10**300), StrongEdge(1, 2, 11.0, 1))
        for delay in (999, 1000, 10**24):
            assert_matches_oracle(NetworkConfig(num_neurons=3, duration=1.0, seed=1,
                                                synaptic_delay_steps=delay, strong_edges=edges))

    def test_refractory_binds_within_one_delay(self):
        # near-saturating drive fires neurons on consecutive steps, so masks of
        # 2..4 steps remove spikes from steps less than one synaptic delay apart
        base = embed_pattern(
            NetworkConfig(num_neurons=8, rate_offset=-3.0, duration=1.0, seed=2), "example1"
        )
        unmasked = {(ev.etype, ev.time) for ev in simulate(base).sequence}
        assert any((label, t + 1) in unmasked for label, t in unmasked)
        for refractory in (2, 3, 4):
            events = assert_matches_oracle(replace(base, refractory_steps=refractory))
            last = {}
            for ev in events:
                assert ev.time - last.get(ev.etype, -refractory) >= refractory
                last[ev.etype] = ev.time

    def test_strong_ring_finalises_one_hop_per_batch(self):
        # every spike circles the ring for good, so each batch of flagged steps
        # finalises only its first 5-step hop and the rest are recomputed again
        ring = tuple(StrongEdge(i, (i + 1) % 26, 11.0, 5) for i in range(26))
        for seed, refractory in itertools.product(range(2), (1, 2, 3)):
            events = assert_matches_oracle(NetworkConfig(
                duration=1.5, seed=seed, strong_edges=ring, refractory_steps=refractory,
            ))
            assert len(events) > 3 * 1500

    def test_busy_network_sums_crowded_rows(self):
        # rows with three or more spikes, whose input sums depend on the order of adding
        for seed in range(2):
            events = assert_matches_oracle(NetworkConfig(rate_offset=2.0, duration=1.0, seed=seed))
            per_step = np.bincount([ev.time for ev in events])
            assert (per_step >= 3).sum() > 50

    @pytest.mark.parametrize("delays", [(2, 2, 2, 2), (2, 3, 1, 2)], ids=["equal", "mixed"])
    def test_converging_edges_add_in_config_order(self, delays):
        # into D, in this unsorted order: 1e20 and -1e20 cancel, then 10 twice (a
        # duplicate edge) drives D; reversed, the 10s are lost beside the 1e20s
        gains = ((4, 1e20), (1, -1e20), (2, 10.0), (2, 10.0))
        edges = tuple(StrongEdge(src, 3, gain, delay)
                      for (src, gain), delay in zip(gains, delays)) + (StrongEdge(0, 4, 11.0, 1),)
        assert sorted(edges) != list(edges)
        for seed in range(3):  # busy sources, so all of them often reach D together
            cfg = NetworkConfig(num_neurons=5, rate_offset=1.0, duration=1.0, seed=seed,
                                strong_edges=edges)
            events = assert_matches_oracle(cfg)
            reversed_cfg = replace(cfg, strong_edges=edges[::-1])
            assert simulate_oracle(reversed_cfg) != events  # the case is order-sensitive

    @pytest.mark.parametrize("num_neurons", [1, 2])
    def test_tiny_networks_with_a_strong_edge(self, num_neurons):
        edges = (StrongEdge(0, num_neurons - 1, 11.0, 3),)
        for seed in range(3):
            assert_matches_oracle(NetworkConfig(num_neurons=num_neurons, rate_offset=3.0,
                                                duration=2.0, seed=seed, strong_edges=edges))

    def test_periods_past_the_run_keep_each_first_spike(self):
        # the period caps at the run length, so no array is sized by it, and a
        # neuron that has not fired yet is never refractory
        uniform = NetworkConfig(rate_mode="uniform", lambda_max=40.0, duration=1.0, seed=2)
        first = {}
        for ev in simulate(uniform).sequence:
            first.setdefault(ev.etype, ev)
        masked = simulate(replace(uniform, refractory_steps=10**24)).sequence.events
        assert masked == tuple(sorted(first.values(), key=lambda ev: ev.time))
        for pattern in ("none", "example1"):
            cfg = embed_pattern(NetworkConfig(duration=1.0, seed=1, refractory_steps=10**24), pattern)
            events = assert_matches_oracle(cfg)
            labels = [ev.etype for ev in events]
            assert labels and len(labels) == len(set(labels))

    def test_long_periods_mask_spike_by_spike(self):
        # periods longer than a batch has spikes: the mask drops spikes a row back
        # at a time while that takes fewer calls, then reads each spike's rows left
        rates = (6.5699, 4.0)  # the resting offset, and one that fires ~90 Hz
        for seed, refractory, offset in itertools.product(range(2), (8, 40, 200), rates):
            base = NetworkConfig(duration=1.0, seed=seed, rate_offset=offset)
            unmasked = simulate(base).sequence.events
            events = assert_matches_oracle(replace(base, refractory_steps=refractory))
            assert len(events) < len(unmasked)
        # one neuron, so no other changed row flags the last step a change unmasks
        for seed, refractory in itertools.product(range(3), (10, 20)):
            assert_matches_oracle(NetworkConfig(num_neurons=1, rate_offset=3.8, duration=2.0,
                                                seed=seed, refractory_steps=refractory))

    def test_uniform_mode_with_refractory(self):
        # uniform mode reads neither the pattern nor the synaptic delay
        for seed, refractory in itertools.product(range(3), (1, 2, 3, 4)):
            assert_matches_oracle(NetworkConfig(rate_mode="uniform", refractory_steps=refractory,
                                                duration=1.0, seed=seed))
        for seed in range(3):
            assert_matches_oracle(
                NetworkConfig(rate_mode="uniform", refractory_steps=3, duration=2.0, seed=seed)
            )


class TestGridBound:
    @pytest.mark.parametrize(
        "overrides",
        [
            dict(duration=1e300),
            dict(duration=1e7),
            dict(duration=1e300, delta_t=1e-300),  # the step count overflows a float
            dict(duration=5000.001),               # one step past the bound
            dict(num_neurons=11402, duration=1.0),  # only the weight matrix is too large
            dict(num_neurons=10**400),
        ],
    )
    def test_oversized_grid_rejected(self, overrides):
        with pytest.raises(ConfigError, match="MAX_GRID_CELLS"):
            NetworkConfig(**overrides)

    def test_grid_at_the_bound_accepted(self):
        assert NetworkConfig(duration=5000.0).steps * 26 == MAX_GRID_CELLS
        assert NetworkConfig(num_neurons=11401, duration=1.0).num_neurons ** 2 <= MAX_GRID_CELLS

    def test_config_line_carries_line_number(self, tmp_path):
        path = tmp_path / "big.cfg"
        path.write_text("num_neurons = 3\nduration = 1e300\nseed = 4\n")
        with pytest.raises(ConfigError, match=":2:.*MAX_GRID_CELLS"):
            parse_network_config(path)

    def test_field_order_does_not_matter(self, tmp_path):
        # 3000 neurons over the default 50 s exceed the bound until duration is read
        path = tmp_path / "wide.cfg"
        path.write_text("num_neurons = 3000\nduration = 10.0\n")
        assert parse_network_config(path) == NetworkConfig(num_neurons=3000, duration=10.0)
        # and a 100 s step gives the default 50 s no step until duration is read
        path.write_text("delta_t = 100\nduration = 1000\n")
        assert parse_network_config(path).steps == 10
        path.write_text("num_neurons = 3000\nseed = 4\n")
        with pytest.raises(ConfigError, match=":1:.*MAX_GRID_CELLS"):
            parse_network_config(path)


class TestPatterns:
    def test_example1_diamond(self):
        cfg = embed_pattern(NetworkConfig(), "example1")
        labels = cfg.labels
        edges = {(labels[e.src], labels[e.dst], e.delay_steps) for e in cfg.strong_edges}
        assert edges == {
            ("A", "B", 5), ("B", "C", 5), ("B", "E", 5), ("C", "D", 5), ("E", "F", 5),
        }
        assert all(e.weight == cfg.relay_weight for e in cfg.strong_edges)

    def test_example2_weight_classes(self):
        cfg = embed_pattern(NetworkConfig(), "example2")
        labels = cfg.labels
        by_edge = {(labels[e.src], labels[e.dst]): e.weight for e in cfg.strong_edges}
        assert by_edge[("A", "B")] == cfg.strong_weight   # fan-out into a group
        assert by_edge[("B", "E")] == cfg.group_weight    # group-convergent fan-in
        assert by_edge[("J", "K")] == cfg.strong_weight

    def test_example2_group_chain(self):
        cfg = embed_pattern(NetworkConfig(), "example2")
        assert len(cfg.strong_edges) == 3 + 3 + 4 + 4 + 2

    def test_example3_heterogeneous_delays(self):
        cfg = embed_pattern(NetworkConfig(), "example3")
        labels = cfg.labels
        delays = {(labels[e.src], labels[e.dst]): e.delay_steps for e in cfg.strong_edges}
        assert delays[("X", "A")] == 5 and delays[("A", "D")] == 3
        assert delays[("D", "E")] == 7 and delays[("E", "F")] == 3

    def test_chain_k(self):
        cfg = embed_pattern(NetworkConfig(), "chain-10")
        assert len(cfg.strong_edges) == 9
        srcs = sorted(e.src for e in cfg.strong_edges)
        assert srcs == list(range(9))

    def test_none_clears(self):
        cfg = embed_pattern(embed_pattern(NetworkConfig(), "example1"), "none")
        assert cfg.strong_edges == ()

    def test_unknown_pattern(self):
        with pytest.raises(ConfigError):
            embed_pattern(NetworkConfig(), "zigzag")

    def test_pattern_must_fit_network(self):
        with pytest.raises(ConfigError):
            embed_pattern(NetworkConfig(num_neurons=6), "example3")  # X = index 23
        with pytest.raises(ConfigError):
            embed_pattern(NetworkConfig(num_neurons=4), "chain-5")


EXAMPLE2_CONFIG = """\
# network configuration
num_neurons = 12
weight_bound = 0.5
lambda_max = 5000.0
rate_offset = 6.5699
delta_t = 0.001
synaptic_delay_steps = 5
refractory_steps = 1
duration = 3.5
seed = 42
weight_seed = 7
strong_weight = 11.0
relay_weight = 6.41
group_weight = 3.21
rate_mode = network
edge = A,B,11.0,5
edge = A,C,11.0,5
edge = A,D,11.0,5
edge = B,E,3.21,5
edge = C,E,3.21,5
edge = D,E,3.21,5
edge = E,F,11.0,5
edge = E,G,11.0,5
edge = E,H,11.0,5
edge = E,I,11.0,5
edge = F,J,3.21,5
edge = G,J,3.21,5
edge = H,J,3.21,5
edge = I,J,3.21,5
edge = J,K,11.0,5
edge = J,L,11.0,5
"""


class TestConfigFile:
    def test_roundtrip(self, tmp_path):
        # every field and every edge of the example-2 config, read back from text
        path = tmp_path / "net.cfg"
        path.write_text(EXAMPLE2_CONFIG)
        assert parse_network_config(path) == embed_pattern(
            NetworkConfig(num_neurons=12, seed=42, weight_seed=7, duration=3.5), "example2"
        )

    def test_roundtrip_past_26_neurons(self, tmp_path):
        # 30 neurons are labelled N0..N29, which the edge lines must read back
        path = tmp_path / "net.cfg"
        path.write_text("num_neurons = 30\nedge = N3,N5,11.0,5\n")
        cfg = NetworkConfig(num_neurons=30, strong_edges=(StrongEdge(3, 5, 11.0, 5),))
        assert parse_network_config(path) == cfg

    def test_roundtrip_keeps_every_delay_step(self, tmp_path):
        path = tmp_path / "net.cfg"
        path.write_text("num_neurons = 3\ndelta_t = 0.0001\nedge = A,B,11.0,123456.7\n")
        cfg = NetworkConfig(num_neurons=3, delta_t=0.0001,
                            strong_edges=(StrongEdge(0, 1, 11.0, 1234567),))
        assert parse_network_config(path) == cfg

    def test_delay_must_be_whole_steps(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("num_neurons = 3\nedge = A,B,11,5.5\n")
        with pytest.raises(ConfigError, match=":2: edge delay: 5.5 ms is not a whole number"):
            parse_network_config(path)

    def test_error_carries_line_number(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("num_neurons = 26\nwhat = 3\n")
        with pytest.raises(ConfigError, match=":2:"):
            parse_network_config(path)

    def test_bad_value(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("num_neurons = soup\n")
        with pytest.raises(ConfigError, match=":1:"):
            parse_network_config(path)

    def test_bad_edge(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("edge = A,B,11\n")
        with pytest.raises(ConfigError, match="FROM,TO,WEIGHT,DELAY_MS"):
            parse_network_config(path)

    @pytest.mark.parametrize("value", NON_FINITE)
    @pytest.mark.parametrize("field", FLOAT_FIELDS)
    def test_non_finite_field_rejected_with_line(self, tmp_path, field, value):
        with pytest.raises(ConfigError, match=field):
            NetworkConfig(**{field: float(value)})
        path = tmp_path / "bad.cfg"
        path.write_text(f"num_neurons = 3\n{field} = {value}\n")
        with pytest.raises(ConfigError, match=":2:"):
            parse_network_config(path)

    @pytest.mark.parametrize("value", NON_FINITE)
    def test_non_finite_edge_rejected_with_line(self, tmp_path, value):
        with pytest.raises(ConfigError):
            StrongEdge(0, 1, float(value), 5)
        for edge in (f"A,B,{value},5", f"A,B,1,{value}"):
            path = tmp_path / "bad.cfg"
            path.write_text(f"num_neurons = 3\nedge = {edge}\n")
            with pytest.raises(ConfigError, match=":2:"):
                parse_network_config(path)

    @pytest.mark.parametrize("first", ["num_neurons = 12", "# network configuration"])
    def test_leading_byte_order_mark_is_skipped(self, tmp_path, first):
        text = EXAMPLE2_CONFIG.replace("# network configuration", first, 1)
        plain, marked = tmp_path / "plain.cfg", tmp_path / "marked.cfg"
        plain.write_text(text, encoding="utf-8")
        marked.write_text(text, encoding="utf-8-sig")
        assert marked.read_bytes().startswith(b"\xef\xbb\xbf" + first.encode())
        assert parse_network_config(marked) == parse_network_config(plain)

    def test_edge_indices_validated(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("num_neurons = 3\nedge = A,Z,5,5\n")
        with pytest.raises(ConfigError):
            parse_network_config(path)


def test_labels():
    assert neuron_labels(3) == ("A", "B", "C")
    assert neuron_labels(30)[0] == "N0"
    assert len(set(neuron_labels(30))) == 30
