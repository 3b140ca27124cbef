"""Event streams: the time-ordered input that every miner consumes.

Time is kept as integer ticks so that every gap and span comparison in the
miners is exact integer arithmetic. The duration of one tick (in seconds)
travels with the sequence as an exact rational.

This module owns the one rule between decimal text and ticks, in integer
arithmetic:

* a spike-CSV stamp is quantized to the nearest tick, ties up (half_up,
  which also places a synfire composite at the mean of its members); a
  plain stamp is ticked from its digits, any other through decimal_ratio;
* a duration given in milliseconds (``mine --intervals``/``--expiry``, a
  config ``DELAY_MS``, a pattern delay) must be a whole number of ticks,
  else it is refused (ms_to_ticks; the CLI exits 1, or 3 for a config);
* ticks are written back as decimal text (seconds_formatter) exactly when
  the tick is a decimal fraction, else to the fewest places that stay
  within half a tick, so write-then-parse reproduces every tick. The
  writer formats the whole tick column at once: each whole part is one
  integer division, and each fraction text comes from a table filled
  once per tick remainder, so no Python function runs per event.

File format (spike CSV): UTF-8 text, ``#``-prefixed comment lines allowed,
data lines ``label,seconds`` with a non-negative decimal time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from functools import cached_property
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


def _short(value: Fraction) -> str:
    """``value`` to six significant digits, for a message: 1e+400, not 401 digits."""
    return f"{(Decimal(value.numerator) / value.denominator).normalize():.6g}"


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
        raise ValueError(f"tick_seconds must be positive, got {_short(tick)}")
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
        raise ValueError(f"{text} ms is not a whole number of ticks "
                         f"at {_short(tick_seconds)} s/tick")
    return ticks


def seconds_formatter(tick: Fraction):
    """A tick column -> the decimal texts of ``ticks * tick`` that half-up
    quantization reads back as those ticks, with the per-tick constants
    computed once and no Python call per tick.

    Exact when the reduced denominator of ``tick`` divides a power of ten;
    otherwise rounded to the fewest places that stay within half a tick.
    Trailing zeros are dropped. A tick in milliseconds gives milliseconds.

    A text is ``(ticks * scale + half) // den`` with its last ``places``
    digits after the point. Its whole part is one integer division by
    ``den * 10**places``; its fraction repeats with the tick every
    ``period`` ticks, so it comes from a table of the remainders that occur.
    """
    num, den = tick.numerator, tick.denominator
    exact = 10 ** den.bit_length() % den == 0  # den has no prime factor but 2 and 5
    places = 0
    while (10**places % den if exact else 10**places * num <= den):
        places += 1
    scale, half, unit = num * 10**places, den // 2, den * 10**places
    period = unit // math.gcd(scale, unit)  # period * scale is a multiple of unit

    def format_ticks(ticks) -> list[str]:
        tails = {}  # remainder mod period -> the text after the whole part
        for r in {t % period for t in ticks}:
            digits = (r * scale + half) // den % 10**places
            tails[r] = "." + str(digits).rjust(places, "0").rstrip("0") if digits else ""
        return [f"{(t * scale + half) // unit}{tails[t % period]}" for t in ticks]

    return format_ticks


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
    """Immutable stream of events as columns, sorted non-decreasing by tick.

    ``labels`` holds each event's type, as the alphabet's own str object,
    and ``ticks`` its tick. Ties at equal ticks keep their construction
    order (the sort is stable). ``alphabet`` may name types that never
    occur, e.g. silent channels of a recording; it always covers every
    event's type. ``events`` is the stream as ``Event`` objects: the ones
    given to the constructor, else built on first use.
    """

    labels: tuple[str, ...]
    ticks: tuple[int, ...]
    tick_seconds: Fraction
    alphabet: frozenset[str]

    def __init__(self, events: Iterable[Event] = (),
                 tick_seconds: TickSeconds = DEFAULT_TICK_SECONDS,
                 alphabet: Iterable[str] | None = None):
        events = list(events)
        labels = [ev.etype for ev in events]
        self._store(labels, [ev.time for ev in events], tick_seconds,
                    labels if alphabet is None else alphabet, events)

    @classmethod
    def _from_columns(cls, labels, ticks, tick_seconds, alphabet, given=None) -> EventSequence:
        """The columns in any order; ``given`` holds each row's ``events`` entry or None."""
        seq = object.__new__(cls)
        seq._store(labels, ticks, tick_seconds, alphabet, given)
        return seq

    def _store(self, labels, ticks, tick_seconds, alphabet, given) -> None:
        full = frozenset(alphabet)
        same = dict(zip(full, full))
        if not full.issuperset(labels):
            raise ValueError(f"events use types outside alphabet: {sorted(set(labels) - full)}")
        order = sorted(range(len(ticks)), key=ticks.__getitem__)
        vars(self).update(labels=tuple([same[labels[i]] for i in order]),
                          ticks=tuple([ticks[i] for i in order]), alphabet=full,
                          tick_seconds=as_tick_seconds(tick_seconds),
                          _given=given and [given[i] for i in order])

    @cached_property
    def events(self) -> tuple[Event, ...]:
        rows = zip(self._given or [None] * len(self), self.labels, self.ticks)
        return tuple([ev or Event(x, t) for ev, x, t in rows])

    def __len__(self) -> int:
        return len(self.ticks)

    def __iter__(self) -> Iterator[Event]:
        return iter(self.events)

    def __getitem__(self, i: int) -> Event:
        return self.events[i]


def parse_spike_file(path, tick_seconds: TickSeconds) -> EventSequence:
    """Read a spike CSV, quantizing second-stamps to ticks.

    Each data line is ``label,seconds``. Times are quantized to the
    nearest tick, ties up (half_up), and the result is re-sorted stably
    by tick. A plain stamp, ASCII ``digits[.digits]`` of at most 18 digits,
    is ticked from its digits in integer arithmetic, any other through
    decimal_ratio, to the same tick. An empty file yields an empty sequence.

    Raises SpikeFileError with a line number on malformed lines, times
    that are negative, not finite or out of decimal range (see
    decimal_ratio), and bytes that are not UTF-8.
    """
    tick = as_tick_seconds(tick_seconds)
    # a plain stamp is inside every bound of decimal_ratio, and its tick with k
    # fraction digits is half_up(digits * den, 10**k * num)
    two_den = 2 * tick.denominator
    scales = [(10**k * tick.numerator, 2 * 10**k * tick.numerator) for k in range(18)]
    labels, ticks = [], []
    # undecodable bytes become lone surrogates, so the line that holds one is known;
    # a leading byte-order mark is skipped
    with open(path, "r", encoding="utf-8-sig", errors="surrogateescape") as fh:
        for lineno, raw in enumerate(fh, 1):
            if not raw.isascii():
                try:
                    raw.encode("utf-8")
                except UnicodeEncodeError:
                    raise SpikeFileError(path, lineno, "not UTF-8 text") from None
            line = raw.strip()
            if not line or line[0] == "#":
                continue
            label, sep, stamp = line.partition(",")
            label, stamp = label.strip(), stamp.strip()
            if not sep or not label or not stamp:
                raise SpikeFileError(path, lineno, f"expected 'label,seconds', got {line!r}")
            whole, _, frac = stamp.partition(".")
            digits = whole + frac
            if whole and digits.isdigit() and len(digits) <= 18 and digits.isascii():
                half, den = scales[len(frac)]
                ticks.append((int(digits) * two_den + half) // den)
            else:
                try:
                    num, den = decimal_ratio(stamp)
                except ValueError as exc:
                    raise SpikeFileError(path, lineno, f"bad time value: {exc}") from None
                if num < 0:
                    raise SpikeFileError(path, lineno, f"negative time {stamp!r}")
                ticks.append(half_up(num * tick.denominator, den * tick.numerator))
            labels.append(label)
    return EventSequence._from_columns(labels, ticks, tick, labels)


def write_spike_file(seq: EventSequence, path) -> None:
    """Write a spike CSV such that re-parsing reproduces the events and tick of ``seq``.

    The CSV has no place for alphabet labels that no event carries, so they
    are not written: the re-parsed alphabet is the set of carried labels.

    ValueError, before the file is opened, for a carried label that would
    not read back: empty, with outer whitespace, a comma or line break, a
    leading ``#``, or a character UTF-8 cannot encode (a lone surrogate).
    """
    for label in sorted(set(seq.labels)):
        if (not label or label != label.strip() or label[0] == "#"
                or any(c in label for c in ",\n\r")
                or label != label.encode("utf-8", "replace").decode("utf-8")):
            raise ValueError(f"label {label!r} would not survive a re-parse of the spike CSV")
    path = Path(path)
    seconds = seconds_formatter(seq.tick_seconds)(seq.ticks)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("# spike stream: label,seconds\n")
        fh.writelines([f"{x},{s}\n" for x, s in zip(seq.labels, seconds)])
