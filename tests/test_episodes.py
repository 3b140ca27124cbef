import itertools
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spikemine import (
    EpisodeCount,
    Event,
    EventSequence,
    Interval,
    MiningConfig,
    ParallelEpisode,
    SerialEpisode,
    bootstrap_serial,
    generate_parallel_candidates,
    generate_serial_candidates,
    is_subepisode,
    mine_parallel,
    mine_serial,
    mine_synfire,
)


def serial(*types, iv=(0, 5)):
    return SerialEpisode(tuple(types), (Interval(*iv),) * (len(types) - 1))


class TestInterval:
    @pytest.mark.parametrize("lo,hi", [(-1, 3), (3, 3), (5, 2)])
    def test_bad_bounds(self, lo, hi):
        with pytest.raises(ValueError):
            Interval(lo, hi)


class TestEpisodeTypes:
    def test_serial_needs_matching_interval_count(self):
        with pytest.raises(ValueError):
            SerialEpisode(("A", "B"))
        with pytest.raises(ValueError):
            SerialEpisode(("A",), (Interval(0, 5),))

    def test_repeated_types_allowed(self):
        ep = serial("A", "B", "A")
        assert ep.size == 3

    def test_parallel_is_canonically_sorted(self):
        assert ParallelEpisode(("C", "A", "B")).etypes == ("A", "B", "C")
        assert ParallelEpisode(("B", "A", "B")).etypes == ("A", "B", "B")

    def test_rendering(self):
        assert str(serial("A", "B")) == "A -(0,5]-> B"
        assert str(ParallelEpisode(("B", "A"))) == "{A B}"


class TestSubepisode:
    def test_order_respected(self):
        abc = serial("A", "B", "C")
        assert is_subepisode(serial("A", "B"), abc)
        assert not is_subepisode(serial("B", "A"), abc)

    def test_reflexive(self):
        for ep in (serial("A", "B"), ParallelEpisode(("A", "A", "B"))):
            assert is_subepisode(ep, ep)

    def test_parallel_multiplicity(self):
        assert is_subepisode(ParallelEpisode(("A", "B")), ParallelEpisode(("A", "B", "B")))
        assert not is_subepisode(ParallelEpisode(("B", "B")), ParallelEpisode(("A", "B")))

    def test_kind_mismatch(self):
        with pytest.raises(TypeError):
            is_subepisode(serial("A", "B"), ParallelEpisode(("A", "B")))

    @settings(max_examples=200)
    @given(
        beta=st.lists(st.sampled_from("ABC"), min_size=1, max_size=3),
        alpha=st.lists(st.sampled_from("ABC"), min_size=1, max_size=3),
    )
    def test_matches_bruteforce_subsequence(self, beta, alpha):
        got = is_subepisode(
            SerialEpisode(tuple(beta), (Interval(0, 1),) * (len(beta) - 1)),
            SerialEpisode(tuple(alpha), (Interval(0, 1),) * (len(alpha) - 1)),
        )
        brute = any(
            list(beta) == [alpha[i] for i in picks]
            for picks in itertools.combinations(range(len(alpha)), len(beta))
        )
        assert got == brute


class TestSerialCandidates:
    def test_suffix_prefix_join(self):
        left = SerialEpisode(("A", "B"), (Interval(0, 5),))
        right = SerialEpisode(("B", "C"), (Interval(5, 10),))
        out = generate_serial_candidates([left, right])
        assert SerialEpisode(("A", "B", "C"), (Interval(0, 5), Interval(5, 10))) in out

    def test_intervals_must_match_in_overlap(self):
        left = SerialEpisode(("A", "B", "C"), (Interval(0, 5), Interval(0, 5)))
        right = SerialEpisode(("B", "C", "D"), (Interval(5, 10), Interval(0, 5)))
        assert generate_serial_candidates([left, right]) == []

    def test_level1_cross_with_intervals(self):
        ones = bootstrap_serial({"A", "B"})
        out = generate_serial_candidates(ones, [Interval(0, 5)])
        expected = {
            SerialEpisode((a, b), (Interval(0, 5),)) for a in "AB" for b in "AB"
        }
        assert set(out) == expected  # self-pairs A->A included

    def test_level1_cross_is_sorted_and_distinct_from_any_seed_order(self):
        # seeds arrive ranked by count, and callers may repeat or unsort windows
        rng = random.Random(2424)
        windows = [(0, 2), Interval(2, 3), (3, 5), Interval(7, 9), (9, 12)]
        for _ in range(100):
            seeds = bootstrap_serial(rng.sample("ABCDEFGH", rng.randint(1, 8)))
            rng.shuffle(seeds)
            chosen = rng.choices(windows, k=rng.randint(0, 8))
            old = {
                SerialEpisode(a.etypes + b.etypes, (Interval(*w),))
                for a in seeds for b in seeds for w in chosen
            }
            assert generate_serial_candidates(seeds + seeds[:2], chosen) == sorted(old)

    def test_mixed_sizes_rejected(self):
        with pytest.raises(ValueError):
            generate_serial_candidates([serial("A", "B"), serial("A", "B", "C")])

    def test_join_keeps_prefix_and_suffix_in_input(self):
        pool = [
            SerialEpisode(("A", "B"), (Interval(0, 2),)),
            SerialEpisode(("B", "C"), (Interval(2, 4),)),
            SerialEpisode(("C", "A"), (Interval(0, 2),)),
        ]
        for cand in generate_serial_candidates(pool):
            head = SerialEpisode(cand.etypes[:-1], cand.intervals[:-1])
            tail = SerialEpisode(cand.etypes[1:], cand.intervals[1:])
            assert head in pool and tail in pool

    @settings(max_examples=100)
    @given(
        pool=st.lists(
            st.tuples(
                st.sampled_from("AB"), st.sampled_from("AB"),
                st.sampled_from([(0, 2), (2, 4)]),
            ),
            min_size=1,
            max_size=6,
        )
    )
    def test_matches_quadratic_reference_join(self, pool):
        eps = sorted({SerialEpisode((a, b), (Interval(*iv),)) for a, b, iv in pool})
        got = generate_serial_candidates(eps)
        brute = set()
        for left in eps:
            for right in eps:
                if left.etypes[1:] == right.etypes[:-1] and left.intervals[1:] == right.intervals[:-1]:
                    brute.add(
                        SerialEpisode(
                            left.etypes + (right.etypes[-1],),
                            left.intervals + (right.intervals[-1],),
                        )
                    )
        assert set(got) == brute


class TestParallelCandidates:
    def test_prune_requires_all_subsets(self):
        ab, ac, bc = (ParallelEpisode(p) for p in (("A", "B"), ("A", "C"), ("B", "C")))
        assert generate_parallel_candidates([ab, ac]) == []
        assert generate_parallel_candidates([ab, ac, bc]) == [ParallelEpisode(("A", "B", "C"))]

    def test_disjoint_pairs_yield_nothing(self):
        out = generate_parallel_candidates(
            [ParallelEpisode(("C", "E")), ParallelEpisode(("D", "F"))]
        )
        assert out == []

    def test_self_join_multiplicity(self):
        out = generate_parallel_candidates([ParallelEpisode(("A",)), ParallelEpisode(("B",))])
        assert set(out) == {
            ParallelEpisode(("A", "A")),
            ParallelEpisode(("A", "B")),
            ParallelEpisode(("B", "B")),
        }

    def test_mixed_sizes_rejected(self):
        with pytest.raises(ValueError):
            generate_parallel_candidates(
                [ParallelEpisode(("A",)), ParallelEpisode(("A", "B"))]
            )

    @settings(max_examples=100)
    @given(
        pool=st.sets(
            st.tuples(st.sampled_from("ABC"), st.sampled_from("ABC")), min_size=1, max_size=6
        )
    )
    def test_matches_bruteforce_closure(self, pool):
        eps = sorted({ParallelEpisode(p) for p in pool})
        got = set(generate_parallel_candidates(eps))
        have = {e.etypes for e in eps}
        universe = sorted({t for e in eps for t in e.etypes})
        brute = set()
        for combo in itertools.combinations_with_replacement(universe, 3):
            if all(combo[:j] + combo[j + 1 :] in have for j in range(3)):
                brute.add(ParallelEpisode(combo))
        assert got == brute


class TestBootstrapAndConfig:
    def test_bootstrap_is_all_single_types(self):
        ones = bootstrap_serial("ABC")
        assert [e.etypes for e in ones] == [("A",), ("B",), ("C",)]

    def test_two_node_candidate_volume(self):
        alphabet = [chr(ord("A") + i) for i in range(26)]
        ones = bootstrap_serial(alphabet)
        assert len(ones) == 26
        assert len(generate_serial_candidates(ones, [Interval(0, 5)])) == 26 * 26
        five = [Interval(2 * i, 2 * i + 2) for i in range(5)]
        assert len(generate_serial_candidates(ones, five)) == 26 * 26 * 5

    def test_count_floor_is_exact(self):
        cfg = MiningConfig(freq_threshold=0.01)
        assert cfg.count_floor(25_000) == 250
        # a frequent episode occurs at least once, also in an empty stream
        assert MiningConfig(freq_threshold=0.0).count_floor(10) == 1
        assert MiningConfig().count_floor(0) == 1
        assert MiningConfig(freq_threshold=0.01).count_floor(50) == 1
        assert MiningConfig(freq_threshold=1.0).count_floor(7) == 7
        assert MiningConfig(min_count=42, freq_threshold=0.5).count_floor(1000) == 42
        with pytest.raises(ValueError, match="min_count must be >= 1"):
            MiningConfig(min_count=0)

    def test_overlapping_intervals_rejected(self):
        with pytest.raises(ValueError):
            MiningConfig(candidate_intervals=(Interval(0, 5), Interval(4, 8)))
        MiningConfig(candidate_intervals=(Interval(0, 5), Interval(5, 8)))  # touching is fine

    def test_threshold_range(self):
        with pytest.raises(ValueError):
            MiningConfig(freq_threshold=1.5)


class TestValueTypes:
    def test_episodes_equal_hash_and_sort_as_their_tuples(self):
        eps = [serial("B", "A"), serial("A", "B", iv=(4, 6)), serial("A", "B"), serial("A")]
        plain = [(ep.etypes, tuple(tuple(iv) for iv in ep.intervals)) for ep in eps]
        assert eps == plain
        assert [hash(ep) for ep in eps] == [hash(t) for t in plain]
        assert sorted(eps) == sorted(plain)
        assert Interval(4, 6) == (4, 6) and hash(Interval(4, 6)) == hash((4, 6))
        assert sorted([Interval(4, 6), Interval(0, 9), Interval(0, 2)]) == [(0, 2), (0, 9), (4, 6)]
        pars = [ParallelEpisode(("B", "A")), ParallelEpisode(("A",)), ParallelEpisode(("A", "A"))]
        assert pars == [(("A", "B"),), (("A",),), (("A", "A"),)]
        assert [hash(ep) for ep in pars] == [hash((ep.etypes,)) for ep in pars]
        assert sorted(pars) == sorted((ep.etypes,) for ep in pars)

    def test_repr_and_str_pinned(self):
        iv = Interval(4, 6)
        assert repr(iv) == "Interval(low=4, high=6)"
        assert str(iv) == "(4,6]"
        ab = SerialEpisode(("A", "B"), (iv,))
        assert repr(ab) == "SerialEpisode(etypes=('A', 'B'), intervals=(Interval(low=4, high=6),))"
        assert str(ab) == "A -(4,6]-> B"
        assert repr(ParallelEpisode(("B", "A"))) == "ParallelEpisode(etypes=('A', 'B'))"
        assert str(ParallelEpisode(("B", "A"))) == "{A B}"

    def test_plain_pairs_become_checked_intervals(self):
        ep = SerialEpisode(("A", "B"), ((4, 6),))
        assert type(ep.intervals[0]) is Interval and ep == serial("A", "B", iv=(4, 6))
        with pytest.raises(ValueError):
            SerialEpisode(("A", "B"), ((6, 4),))

    def test_joins_and_miners_return_episode_instances(self):
        ones = bootstrap_serial("AB")
        twos = generate_serial_candidates(ones, [Interval(0, 2), Interval(2, 4)])
        threes = generate_serial_candidates(twos)
        for ep in ones + twos + threes:
            assert type(ep) is SerialEpisode
            assert all(type(iv) is Interval for iv in ep.intervals)
        pars = generate_parallel_candidates([ParallelEpisode((x,)) for x in "AB"])
        pars += generate_parallel_candidates(pars)
        assert pars and all(type(ep) is ParallelEpisode for ep in pars)
        seq = EventSequence([Event(x, t) for t, x in enumerate("ABABABAB")])
        cfg = MiningConfig(max_size=3, candidate_intervals=(Interval(0, 2),), expiry=2)
        levels = [*mine_serial(seq, cfg), *mine_synfire(seq, cfg).serial_levels]
        serials = [c.episode for lv in levels for c in lv.counts]
        assert serials and all(type(ep) is SerialEpisode for ep in serials)
        assert all(type(iv) is Interval for ep in serials for iv in ep.intervals)
        parallels = [c.episode for lv in mine_parallel(seq, cfg) for c in lv.counts]
        assert parallels and all(type(ep) is ParallelEpisode for ep in parallels)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: Interval._make((6, 4)),
            lambda: Interval(4, 6)._replace(low=9),
            lambda: SerialEpisode(("A", "B"), ((4, 6),))._replace(intervals=()),
            lambda: SerialEpisode._make((("A", "B"), ((6, 4),))),
            lambda: ParallelEpisode._make(((),)),
            lambda: EpisodeCount._make((serial("A"), 2, ((0,),))),
            lambda: EpisodeCount(serial("A"), 1, ((0,),))._replace(freq=2),
            lambda: EpisodeCount(serial("A"), 1, ((0,),))._replace(occurrences=()),
        ],
        ids=["interval-make", "interval-replace", "serial-replace", "serial-make", "parallel-make",
             "count-make", "count-replace-freq", "count-replace-occurrences"],
    )
    def test_make_and_replace_check_their_fields(self, build):
        with pytest.raises(ValueError):
            build()

    def test_valid_replace_returns_a_checked_instance(self):
        ep = serial("A", "B")._replace(intervals=((4, 6),))
        assert type(ep) is SerialEpisode and type(ep.intervals[0]) is Interval
        assert ep == serial("A", "B", iv=(4, 6))
        assert ParallelEpisode(("A", "B"))._replace(etypes=("C", "A")).etypes == ("A", "C")
        assert Interval._make([2, 4]) == Interval(2, 4)
        count = EpisodeCount(serial("A"), 1, ((0,),))._replace(freq=2, occurrences=((0,), (3,)))
        assert type(count) is EpisodeCount and count == (serial("A"), 2, ((0,), (3,)))

    def test_episode_count_defaults_and_pickles(self):
        untracked = EpisodeCount(serial("A", "B"), 4)
        assert untracked.occurrences is None and untracked == (serial("A", "B"), 4, None)
        tracked = EpisodeCount(ParallelEpisode(("B", "A")), 1, ((0, 2),))
        for count in (untracked, tracked):
            back = pickle.loads(pickle.dumps(count))
            assert type(back) is EpisodeCount and back == count
        forged = pickle.dumps(tuple.__new__(EpisodeCount, (serial("A"), 2, ((0,),))))
        with pytest.raises(ValueError):
            pickle.loads(forged)

    def test_pickled_interval_round_trips_and_is_checked_again(self):
        iv = pickle.loads(pickle.dumps(Interval(4, 6)))
        assert type(iv) is Interval and iv == Interval(4, 6)
        forged = pickle.dumps(tuple.__new__(Interval, (6, 4)))  # skips the check on the way in
        with pytest.raises(ValueError):
            pickle.loads(forged)


class TestConfigIntervals:
    def test_bad_plain_pair_rejected(self):
        with pytest.raises(ValueError):
            MiningConfig(candidate_intervals=((6, 4),))

    def test_plain_pair_mines_as_its_interval(self):
        seq = EventSequence([Event(x, 5 * t) for t, x in enumerate("ABCABCABDAB")])
        plain = MiningConfig(max_size=3, candidate_intervals=((4, 6),), min_count=2)
        assert plain.candidate_intervals == (Interval(4, 6),)
        assert type(plain.candidate_intervals[0]) is Interval
        checked = MiningConfig(max_size=3, candidate_intervals=(Interval(4, 6),), min_count=2)
        got = mine_serial(seq, plain)
        want = mine_serial(seq, checked)
        assert [lv.counts for lv in got] == [lv.counts for lv in want]
        assert str(got[-1].counts[0].episode) == "A -(4,6]-> B -(4,6]-> C"
