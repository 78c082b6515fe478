"""Fixed-precision text serialization of trajectories and exact parsing back.

The wire format is a bracketed list of coordinate pairs,

    [(1.25,-0.50), (2.50,-1.00), ...]

with every coordinate printed at a fixed number of fractional digits. A
value like 23.17 therefore splits on the decimal point into an integer-meter
part and a fractional centimeter part, which is exactly the decomposition a
standard subword tokenizer produces. Serialization and parsing round-trip
bitwise on quantized values. The delimiters and the precision
(``DEFAULT_DECIMALS``) are fixed, because the system prompt announces this
shape.

``Waypoint``, ``Trajectory`` and the horizon are defined here, the module
every other one imports; ``scenario`` re-exports them. A ``Waypoint`` is a
``NamedTuple``: immutable and cheap to build, and, being a tuple, equal to
the plain ``(x, y)`` tuple of the same numbers. The horizon is fixed:
``DEFAULT_HORIZON_STEPS`` waypoints, ``DEFAULT_DT`` seconds apart, the shape
the system prompt announces.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal
from typing import NamedTuple

DEFAULT_DECIMALS = 2
DEFAULT_HORIZON_STEPS = 6
DEFAULT_DT = 0.5


class Waypoint(NamedTuple):
    x: float
    y: float


# a Waypoint from an (x, y) pair, without the NamedTuple's Python-level
# __new__; the caller has checked the length
_waypoint = functools.partial(tuple.__new__, Waypoint)


@dataclass(frozen=True)
class Trajectory:
    """Sequence of future 2D waypoints in the ego frame, ``DEFAULT_DT`` apart."""

    waypoints: tuple[Waypoint, ...]

    def __len__(self) -> int:
        return len(self.waypoints)


class TrajectoryParseError(ValueError):
    """Raised when text does not hold ``DEFAULT_HORIZON_STEPS`` coordinate
    pairs; the message names the count found."""


# the step every value rounds to, 10**-DEFAULT_DECIMALS, for the Decimal path
_STEP = Decimal(1).scaleb(-DEFAULT_DECIMALS)


def quantize(v: float) -> float:
    """Round half away from zero to ``DEFAULT_DECIMALS`` (2) fractional digits.

    Ties are resolved on D, the shortest decimal representation of the
    double (so quantize(2.675) == 2.68, matching what a reader of the
    printed value expects). Negative zero normalizes to 0.0, and any
    |v| >= 2**52, an integer as a double, comes back unchanged. For a
    finite float this never raises; a non-finite value raises ValueError,
    and an int too large for a double raises OverflowError, as ``float``
    does. The result is always a plain ``float``.

    A value rounds in binary: with ``t = v * 100.0`` inside
    ``-1e9 < t < 1e9`` and ``n = round(t)``, ``|t - n| < 0.499999``
    (0.5 - 1e-6) gives ``n / 100.0``. That is the ``Decimal`` result,
    because

    - ``t`` differs from D*100 by at most |t|*2**-52 (D and v, and t and
      v*100, each differ by half an ulp at most), under 2.3e-7 inside the
      band;
    - so outside the 1e-6 tie band D*100 is within 0.5 of ``n`` and not
      at a half, and rounding it half up gives ``round(t)``;
    - ``t - n`` is exact (Sterbenz lemma: ``n`` and ``t`` are within a
      factor of 2 of each other, or ``n`` is 0), so the test sees the true
      distance;
    - ``n / 100.0`` is the correctly rounded double of n/100 (|n| < 2**53
      converts exactly), which is the double ``float(Decimal(...))`` gives
      for the quantized decimal.

    Inside the band, a value within 1e-6 of a tie (``|t - n| >= 0.499999``)
    rounds on the text of D instead: with ``k = floor(|t|)``, the result is
    ``k / 100.0`` signed as ``v``, or ``(k + 1) / 100.0`` when the third
    fractional digit of ``repr(v)`` is 5 or more. That too is the
    ``Decimal`` result, because

    - ``|t| >= 0.499999`` and ``|t| < 1e9`` give ``0.005 <= |v| < 1e7``
      (to within the tolerance), where ``repr`` is positional;
    - D*100 is within 2.3e-7 of ``t``, so within 1.3e-6 of ``k + 0.5``
      and not an integer: D has at least 3 fractional digits, and the third
      is 4 below the half and 5 at or above it, which is the digit that
      rounding half up turns on;
    - ``k`` or ``k + 1`` over 100.0 is the correctly rounded double, as
      above; ``+ 0.0`` turns a negative zero into 0.0.

    A finite value past the band rounds D with ``Decimal``, to ``_STEP``.
    """
    t = v * 100.0
    if -1e9 < t < 1e9:
        n = round(t)
        if -0.499999 < t - n < 0.499999:
            return n / 100.0
        k = math.floor(abs(t))
        d = repr(float(v))
        if d[d.index(".") + 3] >= "5":
            k += 1
        return math.copysign(k, v) / 100.0 + 0.0
    if not math.isfinite(v):
        raise ValueError(f"cannot quantize non-finite value {v!r}")
    v = float(v)
    if abs(v) >= 2.0**52:
        return v
    q = float(Decimal(repr(v)).quantize(_STEP, rounding=ROUND_HALF_UP))
    return 0.0 if q == 0.0 else q


def quantize_literal(text: str) -> float:
    """``quantize(float(text))`` for a decimal literal.

    It decodes JSON float literals, as ``json.loads``' ``parse_float``, and
    the coordinate literals ``extract_pairs`` finds in plan text. A literal
    whose point is among its last ``DEFAULT_DECIMALS + 1`` characters has
    no exponent (that needs a digit, an ``e`` and a digit after the point)
    and at most ``DEFAULT_DECIMALS`` fractional digits: it is already exact,
    so it skips ``quantize`` (-0.0 still becomes 0.0). A non-finite value,
    such as ``1e400`` or a 400-digit run, comes back unchanged for the
    caller to report or skip.
    """
    v = float(text)
    if "." in text[-DEFAULT_DECIMALS - 1:]:
        return v + 0.0  # -0.0 + 0.0 is 0.0
    return quantize(v) if math.isfinite(v) else v


# "%.2f": the one fixed-point spec every coordinate and scalar prints with
_FIXED = f"%.{DEFAULT_DECIMALS}f"


def format_number(v: float) -> str:
    """Quantize and render with exactly DEFAULT_DECIMALS fractional digits.

    A value the rendered text reads back as exactly is already quantized,
    so that text is the answer (``+ 0.0`` prints -0.0 unsigned); any other
    value goes through ``quantize``, which raises ValueError for a
    non-finite one (``inf`` reads back as itself, hence the finiteness test).
    """
    text = _FIXED % (v + 0.0)
    if float(text) == v and math.isfinite(v):
        return text
    return _FIXED % quantize(v)


def format_pair(x: float, y: float) -> str:
    return f"({format_number(x)},{format_number(y)})"


def format_waypoints(waypoints) -> str:
    """Bracketed pair list for any sequence of (x, y) pairs."""
    pairs = [f"({format_number(x)},{format_number(y)})" for x, y in waypoints]
    return "[" + ", ".join(pairs) + "]"


def serialize_trajectory(t: Trajectory) -> str:
    """Canonical text for a trajectory: deterministic, no whitespace variance."""
    return format_waypoints(t.waypoints)


_NUMBER = r"[-+]?(?:\d+(?:\.\d*)?|\.\d+)"
_PAIR_RE = re.compile(r"\(\s*(" + _NUMBER + r")\s*,\s*(" + _NUMBER + r")\s*\)")
BRACKET_LIST_RE = re.compile(r"\[([^\[\]]*)\]")  # innermost [...] and its body


def extract_pairs(text: str) -> list[tuple[float, float]]:
    """All quantized coordinate pairs found anywhere in the text, in order.

    Each literal is decoded by ``quantize_literal``, the rule scenario files
    are read with; a pair with a non-finite coordinate (a run of digits
    too long for a double) is skipped.
    """
    out = []
    for mx, my in _PAIR_RE.findall(text):
        x, y = quantize_literal(mx), quantize_literal(my)
        if math.isfinite(x) and math.isfinite(y):
            out.append((x, y))
    return out


def parse_trajectory(text: str) -> tuple[Trajectory, bool]:
    """Parse exactly ``DEFAULT_HORIZON_STEPS`` coordinate pairs out of arbitrary text.

    Grammar first: bracketed pair lists are located and the last one of the
    horizon's length wins (prose before or after is ignored). If no bracketed
    list holds a pair, the whole text is scanned for pairs as a fallback.
    Returns the trajectory and whether its pairs came from a bracketed list.
    Raises TrajectoryParseError on empty input, an unparseable payload, or
    any other pair count (the message names the count found: that of the
    last bracketed list, or of the whole text when there is none).
    """
    if not text or not text.strip():
        raise TrajectoryParseError("empty input")

    candidates = [extract_pairs(m.group(1)) for m in BRACKET_LIST_RE.finditer(text)]
    candidates = [c for c in candidates if c]

    chosen = next((c for c in reversed(candidates) if len(c) == DEFAULT_HORIZON_STEPS), None)
    if chosen is None:
        chosen = candidates[-1] if candidates else extract_pairs(text)
    if len(chosen) != DEFAULT_HORIZON_STEPS:
        raise TrajectoryParseError(
            f"trajectory length mismatch: found {len(chosen)}, expected {DEFAULT_HORIZON_STEPS}"
        )
    return Trajectory(tuple(map(_waypoint, chosen))), bool(candidates)
