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
every other one imports; ``scenario`` re-exports them. The horizon is fixed:
``DEFAULT_HORIZON_STEPS`` waypoints, ``DEFAULT_DT`` seconds apart, the shape
the system prompt announces.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal

DEFAULT_DECIMALS = 2
DEFAULT_HORIZON_STEPS = 6
DEFAULT_DT = 0.5


@dataclass(frozen=True)
class Waypoint:
    x: float
    y: float


@dataclass(frozen=True)
class Trajectory:
    """Sequence of future 2D waypoints in the ego frame, ``DEFAULT_DT`` apart."""

    waypoints: tuple[Waypoint, ...]

    def __len__(self) -> int:
        return len(self.waypoints)

    def point(self, step: int) -> Waypoint:
        """Waypoint at 1-based horizon step (step i sits at time i * DEFAULT_DT)."""
        return self.waypoints[step - 1]


class TrajectoryParseError(ValueError):
    """Raised when text does not contain the expected coordinate pairs."""

    def __init__(self, message: str, found: int | None = None, expected: int | None = None):
        self.found = found
        self.expected = expected
        super().__init__(message)


def quantize(v: float, decimals: int = DEFAULT_DECIMALS) -> float:
    """Round half away from zero to `decimals` fractional digits.

    Ties are resolved on the shortest decimal representation of the double
    (so quantize(2.675, 2) == 2.68, matching what a reader of the printed
    value expects). Negative zero normalizes to 0.0.
    """
    if not math.isfinite(v):
        raise ValueError(f"cannot quantize non-finite value {v!r}")
    exp = Decimal(1).scaleb(-decimals)
    q = float(Decimal(repr(float(v))).quantize(exp, rounding=ROUND_HALF_UP))
    return 0.0 if q == 0.0 else q


def format_number(v: float) -> str:
    """Quantize and render with exactly DEFAULT_DECIMALS fractional digits."""
    return f"{quantize(v):.{DEFAULT_DECIMALS}f}"


def format_pair(x: float, y: float) -> str:
    return f"({format_number(x)},{format_number(y)})"


def format_waypoints(waypoints) -> str:
    """Bracketed pair list for any waypoint sequence."""
    return "[" + ", ".join(format_pair(w.x, w.y) for w in waypoints) + "]"


def serialize_trajectory(t: Trajectory) -> str:
    """Canonical text for a trajectory: deterministic, no whitespace variance."""
    return format_waypoints(t.waypoints)


_NUMBER = r"[-+]?(?:\d+\.?\d*|\.\d+)"
_PAIR_RE = re.compile(r"\(\s*(" + _NUMBER + r")\s*,\s*(" + _NUMBER + r")\s*\)")
BRACKET_LIST_RE = re.compile(r"\[([^\[\]]*)\]")  # innermost [...] and its body


def extract_pairs(text: str) -> list[tuple[float, float]]:
    """All quantized coordinate pairs found anywhere in the text, in order."""
    out = []
    for mx, my in _PAIR_RE.findall(text):
        try:
            out.append((quantize(float(mx)), quantize(float(my))))
        except (ValueError, OverflowError):
            continue  # e.g. a run of digits parsing to inf
    return out


@functools.lru_cache(maxsize=64)
def locate_trajectory(text: str, expected_len: int) -> tuple[Trajectory, bool]:
    """``parse_trajectory`` plus whether the pairs came from a bracketed list.

    Memoized on its arguments, so a caller that has just parsed a text can
    ask where the pairs came from without scanning the text again; the memo
    has room for what other threads parse in between.
    """
    if not text or not text.strip():
        raise TrajectoryParseError("empty input", found=0, expected=expected_len)

    candidates = [extract_pairs(m.group(1)) for m in BRACKET_LIST_RE.finditer(text)]
    candidates = [c for c in candidates if c]

    chosen = None
    for c in candidates:
        if len(c) == expected_len:
            chosen = c  # keep the last match of the right length
    if chosen is None:
        if candidates:
            n = len(candidates[-1])
            raise TrajectoryParseError(
                f"trajectory length mismatch: found {n}, expected {expected_len}",
                found=n,
                expected=expected_len,
            )
        loose = extract_pairs(text)
        if len(loose) != expected_len:
            raise TrajectoryParseError(
                f"trajectory length mismatch: found {len(loose)}, expected {expected_len}",
                found=len(loose),
                expected=expected_len,
            )
        chosen = loose

    return Trajectory(tuple(Waypoint(x, y) for x, y in chosen)), bool(candidates)


def parse_trajectory(text: str, expected_len: int) -> Trajectory:
    """Parse exactly expected_len coordinate pairs out of arbitrary text.

    Grammar first: bracketed pair lists are located and the last one of the
    expected length wins (prose before or after is ignored). If no bracketed
    list exists the whole text is scanned for pairs as a fallback. Raises
    TrajectoryParseError on empty input, an unparseable payload, or a pair
    count other than expected_len (reporting the found count).
    """
    return locate_trajectory(text, expected_len)[0]
