"""Event streams: the time-ordered input that every miner consumes.

Time is kept as integer ticks so that every gap and span comparison in the
miners is exact integer arithmetic. The duration of one tick (in seconds)
travels with the sequence as an exact rational.

This module owns the one rule between decimal text and ticks, in integer
arithmetic:

* a spike-CSV stamp is quantized to the nearest tick, ties up (half_up,
  which also places a synfire composite at the mean of its members);
* a duration given in milliseconds (``mine --intervals``/``--expiry``, a
  config ``DELAY_MS``, a pattern delay) must be a whole number of ticks,
  else it is refused (ms_to_ticks; the CLI exits 1, or 3 for a config);
* ticks are written back as decimal text (format_seconds) exactly when the
  tick is a decimal fraction, else to the fewest places that stay within
  half a tick, so write-then-parse reproduces every tick.

File format (spike CSV): UTF-8 text, ``#``-prefixed comment lines allowed,
data lines ``label,seconds`` with a non-negative decimal time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from decimal import Decimal
from fractions import Fraction
from functools import lru_cache
from pathlib import Path
from typing import Iterable, Iterator, Union

TickSeconds = Union[Fraction, int, float, str]

DEFAULT_TICK_SECONDS = Fraction(1, 1000)  # 1 ms


class SpikeFileError(ValueError):
    """Malformed spike CSV content, with the offending line number."""

    def __init__(self, path, lineno: int, reason: str):
        super().__init__(f"{path}:{lineno}: {reason}")
        self.path = str(path)
        self.lineno = lineno
        self.reason = reason


# Decimal exponents beyond this are refused before conversion: the ratio of
# 1e999999999 is a billion-digit integer. The bound admits every float
# repr (5e-324 .. 1.8e308), which is the widest a written stamp can be.
MAX_DECIMAL_EXPONENT = 400
# Significant digits beyond this are refused too. With the exponent bound,
# the numerator and denominator of an accepted value, and of a product of
# two of them, stay far below Python's 4300-digit limit on int-to-str
# conversion, so every message and header can print them.
MAX_DECIMAL_DIGITS = 1000


def decimal_ratio(text: str) -> tuple[int, int]:
    """Exact value of a finite decimal string as (numerator, denominator > 0).

    ValueError for anything else, and for exponents or digit counts beyond
    the bounds above.
    """
    try:
        value = Decimal(text)
    except (ArithmeticError, ValueError):
        value = None
    if value is None or not value.is_finite():
        raise ValueError(f"{text!r} is not a finite decimal number")
    if abs(value.adjusted()) > MAX_DECIMAL_EXPONENT:
        raise ValueError(f"{text!r} has a decimal exponent beyond +-{MAX_DECIMAL_EXPONENT}")
    # a digit count never exceeds the text length, so short texts skip the count
    if len(text) > MAX_DECIMAL_DIGITS and len(value.as_tuple().digits) > MAX_DECIMAL_DIGITS:
        raise ValueError(f"{text[:20]!r}... has more than {MAX_DECIMAL_DIGITS} significant digits")
    return value.as_integer_ratio()


def as_tick_seconds(value: TickSeconds) -> Fraction:
    """Coerce a tick duration to an exact positive Fraction.

    Floats go through their shortest decimal repr, so 0.001 becomes
    exactly 1/1000 rather than the nearest binary fraction.
    """
    if isinstance(value, (Fraction, int)):
        tick = Fraction(value)
    elif isinstance(value, float):
        tick = Fraction(Decimal(repr(value)))
    elif isinstance(value, str):
        tick = Fraction(*decimal_ratio(value))
    else:
        raise TypeError(f"unsupported tick_seconds type: {type(value)!r}")
    if tick <= 0:
        raise ValueError(f"tick_seconds must be positive, got {tick}")
    return tick


def half_up(num: int, den: int) -> int:
    """``num / den`` (den > 0) rounded to the nearest integer, ties toward +inf."""
    return (2 * num + den) // (2 * den)


def ms_to_ticks(text: str, tick_seconds: Fraction) -> int:
    """Ticks in a decimal number of milliseconds; ValueError unless exactly whole."""
    try:
        num, den = decimal_ratio(text.strip())
    except ValueError:
        raise ValueError(f"bad millisecond value {text!r}") from None
    ticks, rest = divmod(num * tick_seconds.denominator, den * 1000 * tick_seconds.numerator)
    if rest:
        raise ValueError(f"{text} ms is not a whole number of ticks at {tick_seconds}s/tick")
    return ticks


def format_seconds(ticks: int, tick: Fraction) -> str:
    """Decimal text of ``ticks * tick`` that half-up quantization reads back as ``ticks``.

    Exact when the reduced denominator of ``tick`` divides a power of ten;
    otherwise rounded to the fewest places that stay within half a tick.
    Trailing zeros are dropped. A tick in milliseconds gives milliseconds.
    """
    num, den = tick.numerator, tick.denominator
    places = _decimal_places(num, den)
    text = str((ticks * num * 10**places + den // 2) // den).rjust(places + 1, "0")
    point = len(text) - places
    whole, frac = text[:point], text[point:].rstrip("0")
    return f"{whole}.{frac}" if frac else whole


@lru_cache(maxsize=64)
def _decimal_places(num: int, den: int) -> int:
    exact = 10 ** den.bit_length() % den == 0  # den has no prime factor but 2 and 5
    places = 0
    while (10**places % den if exact else 10**places * num <= den):
        places += 1
    return places


@dataclass(frozen=True)
class Event:
    """One typed occurrence at an integer tick."""

    etype: str
    time: int

    def __post_init__(self):
        if self.time < 0:
            raise ValueError(f"event time must be >= 0, got {self.time}")


@dataclass(frozen=True)
class EventSequence:
    """Immutable stream of events, sorted non-decreasing by tick.

    Ties at equal ticks keep their construction order (the sort is
    stable). ``alphabet`` may name types that never occur, e.g. silent
    channels of a recording; it always covers every event's type.
    """

    events: tuple[Event, ...]
    tick_seconds: Fraction = DEFAULT_TICK_SECONDS
    alphabet: frozenset[str] = field(default=frozenset())

    def __init__(
        self,
        events: Iterable[Event] = (),
        tick_seconds: TickSeconds = DEFAULT_TICK_SECONDS,
        alphabet: Iterable[str] | None = None,
    ):
        ordered = sorted(events, key=lambda ev: ev.time)
        seen = {ev.etype for ev in ordered}
        if alphabet is None:
            full = frozenset(seen)
        else:
            full = frozenset(alphabet)
            missing = seen - full
            if missing:
                raise ValueError(f"events use types outside alphabet: {sorted(missing)}")
        object.__setattr__(self, "events", tuple(ordered))
        object.__setattr__(self, "tick_seconds", as_tick_seconds(tick_seconds))
        object.__setattr__(self, "alphabet", full)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[Event]:
        return iter(self.events)

    def __getitem__(self, i: int) -> Event:
        return self.events[i]


def parse_spike_file(path, tick_seconds: TickSeconds) -> EventSequence:
    """Read a spike CSV, quantizing second-stamps to ticks.

    Each data line is ``label,seconds``. Times are quantized to the
    nearest tick, ties up (half_up), and the result is re-sorted stably
    by tick. An empty file yields an empty sequence.

    Raises SpikeFileError with a line number on malformed lines, times
    that are negative, not finite or out of decimal range (see
    decimal_ratio), and bytes that are not UTF-8.
    """
    tick = as_tick_seconds(tick_seconds)
    events = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                label, sep, stamp = line.partition(",")
                label = label.strip()
                stamp = stamp.strip()
                if not sep or not label or not stamp:
                    raise SpikeFileError(path, lineno, f"expected 'label,seconds', got {line!r}")
                try:
                    num, den = decimal_ratio(stamp)
                except ValueError as exc:
                    raise SpikeFileError(path, lineno, f"bad time value: {exc}") from None
                if num < 0:
                    raise SpikeFileError(path, lineno, f"negative time {stamp!r}")
                events.append(Event(label, half_up(num * tick.denominator, den * tick.numerator)))
    except UnicodeDecodeError:
        raise SpikeFileError(path, _first_non_utf8_line(path), "not UTF-8 text") from None
    return EventSequence(events, tick)


def _first_non_utf8_line(path) -> int:
    # text mode decodes whole chunks, so the failing line is found again here
    lineno = 0
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, 1):
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError:
                break
    return lineno


def write_spike_file(seq: EventSequence, path) -> None:
    """Write a spike CSV such that re-parsing reproduces ``seq`` exactly."""
    path = Path(path)
    tick = seq.tick_seconds
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("# spike stream: label,seconds\n")
        for ev in seq.events:
            fh.write(f"{ev.etype},{format_seconds(ev.time, tick)}\n")
