"""Order statistics for the benchmark's timing samples."""

from __future__ import annotations

import math

TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def percentile(values, p: float) -> float:
    """Linear-interpolated p-th percentile (0..100) of a non-empty sample."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of an empty sample")
    pos = (len(xs) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values) -> float:
    return percentile(values, 50.0)


def tail_percentile(n: int) -> float | None:
    """Highest listed percentile with at least ten samples beyond it, if any."""
    for p in TAIL_PERCENTILES:
        if n * (100.0 - p) / 100.0 >= 10:
            return p
    return None


def describe(values, unit: str) -> str:
    """'median X unit, pNN Y unit, n=K' for a timing sample."""
    n = len(values)
    text = f"median {median(values):.6g} {unit}"
    p = tail_percentile(n)
    if p is None:
        text += ", no tail percentile (fewer than 20 samples)"
    else:
        text += f", p{p:g} {percentile(values, p):.6g} {unit}"
    return text + f", n={n}"
