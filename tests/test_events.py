import random
import re
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spikemine import (
    CompositeEvent,
    EpisodeCount,
    Event,
    EventSequence,
    Interval,
    MiningConfig,
    NetworkConfig,
    ParallelEpisode,
    SpikeFileError,
    mine_parallel,
    mine_serial,
    parse_spike_file,
    rewrite_stream,
    simulate,
    write_spike_file,
)
from spikemine.events import half_up, seconds_formatter

from oracles import quantize_oracle, round_half_up

# decimal ticks, and ticks with no finite decimal expansion
TICKS = [Fraction(1, 1000), Fraction(1, 10), Fraction(3, 1000), Fraction(1, 1024),
         Fraction(1, 3), Fraction(2, 7), Fraction(5)]


def test_basic_quantization(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("A,0.001\nB,0.003\n")
    seq = parse_spike_file(path, 0.001)
    assert [(e.etype, e.time) for e in seq] == [("A", 1), ("B", 3)]


def test_seven_event_stream(tmp_path):
    rows = [("A", 1), ("B", 3), ("D", 4), ("C", 6), ("A", 12), ("E", 14), ("B", 15)]
    path = tmp_path / "s.csv"
    path.write_text("".join(f"{t},{k / 1000}\n" for t, k in rows))
    seq = parse_spike_file(path, 0.001)
    assert len(seq) == 7
    assert len(seq.alphabet) == 5
    assert [(e.etype, e.time) for e in seq] == rows


def test_out_of_order_input_is_sorted(tmp_path):
    rng = random.Random(7)
    rows = [(rng.choice("ABC"), rng.randint(0, 500)) for _ in range(200)]
    path = tmp_path / "s.csv"
    path.write_text("".join(f"{t},{k / 1000}\n" for t, k in rows))
    seq = parse_spike_file(path, 0.001)
    # reference: plain stable sort of the parsed tuples
    expected = sorted(rows, key=lambda r: r[1])
    assert [(e.etype, e.time) for e in seq] == expected


def test_comments_and_blank_lines(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("# header\n\nA,0.002\n# mid comment\nB,0.004\n")
    assert len(parse_spike_file(path, 0.001)) == 2


@pytest.mark.parametrize(
    "content,fragment",
    [
        ("A;0.001\n", "expected 'label,seconds'"),
        ("A,\n", "expected 'label,seconds'"),
        (",0.001\n", "expected 'label,seconds'"),
        ("A,zebra\n", "bad time value"),
        ("A,-0.5\n", "negative time"),
        ("A,nan\n", "not a finite decimal"),
        ("A,inf\n", "not a finite decimal"),
        ("A,-Infinity\n", "not a finite decimal"),
        ("A,1e999999999\n", "decimal exponent beyond"),
        ("A,1e-999999999\n", "decimal exponent beyond"),
        ("A,0." + "1" * 1001 + "\n", "more than 1000 significant digits"),
    ],
)
def test_malformed_lines_report_position(tmp_path, content, fragment):
    path = tmp_path / "bad.csv"
    path.write_text("# ok\n" + content)
    with pytest.raises(SpikeFileError) as err:
        parse_spike_file(path, 0.001)
    assert ":2:" in str(err.value)
    assert fragment in str(err.value)


def test_widest_decimal_exponent_is_accepted(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("A,1e-400\nB,0.002\n")
    assert [ev.time for ev in parse_spike_file(path, 0.001)] == [0, 2]


def test_most_significant_digits_are_accepted(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("A,0.002" + "0" * 998 + "1\nB,0.002\n")  # 1000 digits
    assert [ev.time for ev in parse_spike_file(path, 0.001)] == [2, 2]


def test_non_utf8_byte_reports_its_line(tmp_path):
    # far past the first decoded chunk, so the text reader fails late
    path = tmp_path / "bad.csv"
    path.write_bytes(b"A,0.001\n" * 3000 + b"\xff,0.002\n" + b"B,0.003\n")
    with pytest.raises(SpikeFileError) as err:
        parse_spike_file(path, 0.001)
    assert err.value.lineno == 3001
    assert "not UTF-8" in err.value.reason


def test_a_malformed_line_before_a_non_utf8_byte_is_reported_first(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_bytes(b"bad line\nA,0.1\xff\n")
    with pytest.raises(SpikeFileError) as err:
        parse_spike_file(path, 0.001)
    assert err.value.lineno == 1
    assert "expected 'label,seconds'" in err.value.reason


def test_non_ascii_utf8_labels_are_read(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("é,0.001\n# ünïcode comment\nÅ,0.002\n", encoding="utf-8")
    assert parse_spike_file(path, 0.001).labels == ("é", "Å")


def test_empty_file_is_empty_sequence(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    seq = parse_spike_file(path, 0.001)
    assert len(seq) == 0


def test_write_empty_emits_header_only(tmp_path):
    path = tmp_path / "out.csv"
    write_spike_file(EventSequence([]), path)
    lines = path.read_text().splitlines()
    assert len(lines) == 1 and lines[0].startswith("#")


@pytest.mark.parametrize("label", ["", " A", "A ", "\tA", "A\u00a0", "A,B", "A\nB", "A\rB", "#A"])
def test_write_refuses_labels_a_reparse_would_change(tmp_path, label):
    path = tmp_path / "out.csv"
    seq = EventSequence([Event("B", 0), Event(label, 1)])
    with pytest.raises(ValueError, match=re.escape(repr(label))):
        write_spike_file(seq, path)
    assert not path.exists()


def test_write_refuses_a_label_utf8_cannot_encode(tmp_path):
    path = tmp_path / "out.csv"
    seq = EventSequence([Event("A", 1), Event("\udc80", 2)])
    with pytest.raises(ValueError, match="would not survive") as info:
        write_spike_file(seq, path)
    assert not isinstance(info.value, UnicodeError)
    assert not path.exists()


def test_roundtrip_worked_stream(tmp_path, worked_sequence):
    path = tmp_path / "out.csv"
    write_spike_file(worked_sequence, path)
    again = parse_spike_file(path, worked_sequence.tick_seconds)
    assert again.events == worked_sequence.events
    data_lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
    assert len(data_lines) == 8


def test_roundtrip_random_1000(tmp_path):
    rng = random.Random(11)
    t = 0
    events = []
    for _ in range(1000):
        t += rng.choice((0, 1, 1, 2, 5))
        events.append(Event(rng.choice("ABCDEFG"), t))
    seq = EventSequence(events, Fraction(1, 1000))
    path = tmp_path / "big.csv"
    write_spike_file(seq, path)
    assert parse_spike_file(path, seq.tick_seconds).events == seq.events


@settings(max_examples=60)
@given(
    times=st.lists(st.integers(0, 10_000) | st.integers(0, 10**15), max_size=50),
    tick=st.sampled_from(TICKS),
)
def test_roundtrip_property(tmp_path_factory, times, tick):
    events = [Event("AB"[i % 2], t) for i, t in enumerate(sorted(times))]
    seq = EventSequence(events, tick)
    path = tmp_path_factory.mktemp("rt") / "s.csv"
    write_spike_file(seq, path)
    assert parse_spike_file(path, tick).events == seq.events


def test_roundtrip_drops_alphabet_labels_no_event_carries(tmp_path):
    # the CSV has no place for a silent channel, so it does not read back
    seq = EventSequence([Event("A", 1), Event("A", 7)], Fraction(1, 1000), alphabet={"A", "B"})
    path = tmp_path / "s.csv"
    write_spike_file(seq, path)
    again = parse_spike_file(path, seq.tick_seconds)
    assert again.events == seq.events
    assert again.tick_seconds == seq.tick_seconds
    assert again.alphabet == {"A"}


def test_write_skips_a_bad_label_on_a_silent_channel(tmp_path):
    # only carried labels are written, so only they must survive a re-parse
    seq = EventSequence([Event("A", 1)], Fraction(1, 1000), alphabet={"A", "B,C"})
    path = tmp_path / "s.csv"
    write_spike_file(seq, path)
    again = parse_spike_file(path, seq.tick_seconds)
    assert again.events == seq.events
    assert again.alphabet == {"A"}

def decimal_text(value: Fraction) -> str | None:
    """Exact decimal text of ``value``, or None if it has no finite expansion."""
    with localcontext() as ctx:
        ctx.prec = 80
        text = str(Decimal(value.numerator) / Decimal(value.denominator))
    return text if Fraction(Decimal(text)) == value else None


@st.composite
def stamps_and_tick(draw):
    """A tick and second-stamps for it: arbitrary decimals, exact half-tick
    ties where the tick has them, and decimals just either side of a tie."""
    tick = draw(st.sampled_from(TICKS))
    anywhere = st.decimals(min_value=0, max_value=10**6, allow_nan=False,
                           allow_infinity=False).map(str)
    kinds = [anywhere, st.from_regex(r"[0-9]{1,6}(\.[0-9]{0,9})?(e-?[0-9])?", fullmatch=True)]
    if decimal_text(tick / 2) is not None:
        tie = st.integers(0, 10**9).map(lambda k: (2 * k + 1) * tick / 2)
        nudge = st.sampled_from([0, Fraction(1, 10**30), -Fraction(1, 10**30)])
        kinds.append(st.builds(lambda t, d: decimal_text(t + d), tie, nudge))
    return tick, draw(st.lists(st.one_of(kinds), min_size=1, max_size=20))


@settings(max_examples=200)
@given(case=stamps_and_tick())
def test_quantizer_matches_fraction_reference(tmp_path_factory, case):
    tick, stamps = case
    path = tmp_path_factory.mktemp("q") / "s.csv"
    path.write_text("".join(f"A,{s}\n" for s in stamps))
    got = [ev.time for ev in parse_spike_file(path, tick)]
    assert got == sorted(quantize_oracle(s, tick) for s in stamps)


# ASCII digits[.digits] with at most 18 digits: the stamps ticked by integer arithmetic
PLAIN_STAMPS = ["0", "007.250", "5.", "0.00000000000000001", "123456789.123456789",
                "999999999999999999"]
# every other form goes through decimal_ratio: no whole part, a sign, 19 and 20
# digits, an underscore, an exponent, and Unicode digits that Decimal reads
OTHER_STAMPS = [".5", "-0", "+1", "0000000000000000000.5", "1234567890.123456789",
                "12345678901234567890", "1_000", "1e3", "١٢.٥", "１２"]


def test_edge_stamps_parse_to_the_fraction_reference(tmp_path, monkeypatch):
    import spikemine.events as events

    routed = []
    decimal_ratio = events.decimal_ratio
    monkeypatch.setattr(events, "decimal_ratio", lambda text: routed.append(text) or decimal_ratio(text))
    stamps = PLAIN_STAMPS + OTHER_STAMPS
    path = tmp_path / "s.csv"
    path.write_text("".join(f"L{i},{s}\n" for i, s in enumerate(stamps)), encoding="utf-8")
    for tick in TICKS:
        routed.clear()
        seq = parse_spike_file(path, tick)
        expected = [(f"L{i}", quantize_oracle(s, tick)) for i, s in enumerate(stamps)]
        assert list(zip(seq.labels, seq.ticks)) == sorted(expected, key=lambda row: row[1])
        assert routed == OTHER_STAMPS


@settings(max_examples=100)
@given(stamps=st.lists(st.from_regex(r"[0-9]{1,20}(\.[0-9]{0,20})?", fullmatch=True),
                       min_size=1, max_size=20),
       tick=st.sampled_from(TICKS))
def test_stamps_near_the_digit_cap_match_the_fraction_reference(tmp_path_factory, stamps, tick):
    path = tmp_path_factory.mktemp("cap") / "s.csv"
    path.write_text("".join(f"A,{s}\n" for s in stamps))
    got = [ev.time for ev in parse_spike_file(path, tick)]
    assert got == sorted(quantize_oracle(s, tick) for s in stamps)


BEYOND_EXPONENT = "1" + "0" * 401  # 402 digits: a decimal exponent of 401
OVER_DIGITS = "1." + "0" * 1000  # 1001 significant digits


@pytest.mark.parametrize(
    "stamp,reason",
    [
        ("²", "bad time value: '²' is not a finite decimal number"),
        ("1.2.3", "bad time value: '1.2.3' is not a finite decimal number"),
        (".", "bad time value: '.' is not a finite decimal number"),
        ("-1", "negative time '-1'"),
        (BEYOND_EXPONENT, f"bad time value: {BEYOND_EXPONENT!r} has a decimal exponent beyond +-400"),
        (OVER_DIGITS, f"bad time value: {OVER_DIGITS[:20]!r}... has more than 1000 significant digits"),
    ],
    ids=["superscript", "two-points", "point", "negative", "402-digits", "1001-digits"],
)
def test_refused_stamps_keep_their_message_and_line(tmp_path, stamp, reason):
    path = tmp_path / "bad.csv"
    path.write_text(f"A,0.001\n# comment\nB,{stamp}\nC,0.002\n", encoding="utf-8")
    with pytest.raises(SpikeFileError) as err:
        parse_spike_file(path, 0.001)
    assert (err.value.lineno, err.value.reason) == (3, reason)


@given(num=st.integers(-10**30, 10**30), den=st.integers(1, 10**12))
def test_half_up_matches_fraction_reference(num, den):
    assert half_up(num, den) == round_half_up(Fraction(num, den))


def test_half_tick_ties_round_up(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("A,0.0005\nB,0.0015\nC,0.00149999999999999999999\n")
    assert [ev.time for ev in parse_spike_file(path, 0.001)] == [1, 1, 2]


def test_equal_ticks_keep_input_order():
    events = [Event("B", 3), Event("A", 3), Event("C", 1)]
    seq = EventSequence(events)
    assert [(e.etype, e.time) for e in seq] == [("C", 1), ("B", 3), ("A", 3)]


def test_alphabet_may_exceed_events():
    seq = EventSequence([Event("A", 0)], alphabet={"A", "B", "Z"})
    assert seq.alphabet == {"A", "B", "Z"}
    with pytest.raises(ValueError):
        EventSequence([Event("Q", 0)], alphabet={"A"})


def test_negative_time_rejected():
    with pytest.raises(ValueError):
        Event("A", -1)


@pytest.mark.parametrize(
    "value,expected",
    [
        (Fraction(17, 1000), "0.017"),
        (Fraction(3, 2), "1.5"),
        (Fraction(5), "5"),
        (Fraction(0), "0"),
        (Fraction(12, 10), "1.2"),
    ],
)
def test_format_seconds_exact(value, expected):
    assert seconds_formatter(Fraction(1, value.denominator))([value.numerator]) == [expected]


def format_seconds_reference(ticks: int, tick: Fraction) -> str:
    """The per-event formula ``write_spike_file`` used before it formatted a whole column."""
    num, den = tick.numerator, tick.denominator
    places = 0
    exact = 10 ** den.bit_length() % den == 0
    while (10**places % den if exact else 10**places * num <= den):
        places += 1
    text = str((ticks * num * 10**places + den // 2) // den).rjust(places + 1, "0")
    point = len(text) - places
    whole, frac = text[:point], text[point:].rstrip("0")
    return f"{whole}.{frac}" if frac else whole


ANY_TICK = st.one_of(
    st.sampled_from([Fraction(1, 1000), Fraction(1, 3000), Fraction(1, 7), Fraction(3, 2)]),
    st.builds(Fraction, st.integers(1, 10**4), st.integers(1, 10**7)),
)


@settings(max_examples=300)
@given(tick=ANY_TICK, ticks=st.lists(st.integers(0, 10**12), min_size=1, max_size=10))
def test_hoisted_formatter_matches_format_seconds(tick, ticks):
    texts = seconds_formatter(tick)(ticks)
    assert len(texts) == len(ticks)
    for k, text in zip(ticks, texts):
        assert text == format_seconds_reference(k, tick)
        assert quantize_oracle(text, tick) == k  # the text reads back as its tick


@pytest.mark.parametrize("tick", [Fraction(1, 3), Fraction(1, 1024), Fraction(7, 3000)])
def test_written_stamps_match_format_seconds(tmp_path, tick):
    # every remainder of the fraction table's period, and ticks far past it
    ticks = [*range(3100), 10**6 + 1, 10**12 + 7, 10**15 - 1, 10**15 - 1]
    seq = EventSequence([Event("AB"[k % 2], k) for k in ticks], tick)
    path = tmp_path / "s.csv"
    write_spike_file(seq, path)
    expected = "# spike stream: label,seconds\n" + "".join(
        f"{x},{format_seconds_reference(k, tick)}\n" for x, k in zip(seq.labels, seq.ticks))
    assert path.read_bytes() == expected.encode()


# rows out of tick order, with ties at ticks 2 and 5; sorted, ties keep their row order
UNSORTED = [("B", 5), ("D", 2), ("A", 5), ("A", 1), ("C", 2)]
SORTED = [("A", 1), ("D", 2), ("C", 2), ("B", 5), ("A", 5)]


def columns_are_the_events(seq):
    assert seq.labels == tuple(ev.etype for ev in seq.events)
    assert seq.ticks == tuple(ev.time for ev in seq.events)
    assert len(seq) == len(seq.events)


def test_columns_of_the_events_constructor():
    seq = EventSequence([Event(x, t) for x, t in UNSORTED])
    columns_are_the_events(seq)
    assert list(zip(seq.labels, seq.ticks)) == SORTED
    # equal columns, tick and alphabet make equal sequences
    assert seq == EventSequence(list(seq.events), Fraction(1, 1000), "ABCD")
    assert seq != EventSequence(seq.events, Fraction(1, 100))
    assert seq != EventSequence(seq.events, alphabet="ABCDZ")


def test_columns_of_a_parsed_file(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("".join(f"{x},{t / 1000}\n" for x, t in UNSORTED))
    seq = parse_spike_file(path, 0.001)
    columns_are_the_events(seq)
    assert list(zip(seq.labels, seq.ticks)) == SORTED
    assert seq == EventSequence([Event(x, t) for x, t in UNSORTED])


def test_columns_of_a_simulated_run():
    # uniform rates near saturation: most steps fire several neurons
    config = NetworkConfig(num_neurons=6, duration=0.2, seed=3, rate_mode="uniform")
    seq = simulate(config).sequence
    columns_are_the_events(seq)
    rows = list(zip(seq.ticks, seq.labels))
    assert len(set(seq.ticks)) < len(rows)
    assert rows == sorted(rows)  # by tick, and within a step in neuron order


def test_columns_of_a_rewritten_stream():
    seq = EventSequence([Event(x, t) for x, t in [("A", 0), ("B", 1), ("C", 3), ("e", 2), ("d", 2)]])
    # B@1 and C@3 (rows 1 and 4) become one composite at tick 2, after the tied e and d
    group = EpisodeCount(ParallelEpisode(("B", "C")), 1, ((1, 4),))
    out = rewrite_stream(seq, [group])
    columns_are_the_events(out)
    assert list(zip(out.labels, out.ticks)) == [("A", 0), ("e", 2), ("d", 2), ("[B C]", 2)]
    assert isinstance(out.events[3], CompositeEvent) and out.events[3].members == (1, 4)


def test_parsing_and_mining_build_no_event(tmp_path, monkeypatch):
    made = []
    check = Event.__post_init__

    def counted_check(ev):
        made.append(ev)
        check(ev)

    monkeypatch.setattr(Event, "__post_init__", counted_check)
    path = tmp_path / "s.csv"
    path.write_text("".join(f"{x},{k / 1000}\n" for k in range(0, 300, 3) for x in "ABC"[k % 2:]))
    seq = parse_spike_file(path, 0.001)
    cfg = MiningConfig(min_count=1, max_size=3, candidate_intervals=(Interval(0, 3),), expiry=3)
    assert mine_serial(seq, cfg)[1].counts and mine_parallel(seq, cfg)[1].counts
    assert made == []
    assert len(seq.events) == len(made) == len(seq)  # the view builds them on first use


def test_parsed_labels_are_the_alphabet_entries(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("".join(f"{x},{k / 1000}\n" for k in range(50) for x in ("AB", "C", "AB")))
    seq = parse_spike_file(path, 0.001)
    entry = {x: x for x in seq.alphabet}
    assert len(seq) == 150
    assert all(x is entry[x] for x in seq.labels)
