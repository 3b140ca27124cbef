import random
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spikemine import Event, EventSequence, SpikeFileError, parse_spike_file, write_spike_file
from spikemine.events import format_seconds, half_up

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
    assert format_seconds(value.numerator, Fraction(1, value.denominator)) == expected
