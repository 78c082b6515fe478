"""Reference work that measures how fast this machine runs right now.

On a shared host the same pass can take 1.8x longer from one minute to the
next, because other tenants share the cores. A fixed piece of work built
from the operations the pipeline spends its time in (Decimal quantizing,
fixed-point formatting, a pair regex, JSON with indentation) slows down
with it. Timing that work right before and right after each CPU-bound step,
and scaling the step to ``REF_NOMINAL_S``, removes most of that drift.
In three 20 s probes of offline passes on the 2-core reference machine,
the raw median pass time ranged over 80% and the scaled one over 5%.

The reference uses only the standard library, so no change to ``lmplan``
can move it.
"""

from __future__ import annotations

import json
import re
import time
from decimal import ROUND_HALF_UP, Decimal

# reference_seconds() on an idle core of the 2-core reference machine; a
# scaled time is the time the pass would take at that speed
REF_NOMINAL_S = 0.015

_PAIR = re.compile(r"\(\s*([-+]?\d+\.?\d*)\s*,\s*([-+]?\d+\.?\d*)\s*\)")
_FLOATS = [((i * 7919) % 10007) / 37.0 - 120.0 for i in range(600)]
_EXP = Decimal("0.01")


def reference_work() -> int:
    q = [float(Decimal(repr(v)).quantize(_EXP, rounding=ROUND_HALF_UP)) for v in _FLOATS]
    text = "[" + ", ".join(f"({x:.2f},{y:.2f})" for x, y in zip(q[::2], q[1::2])) + "]"
    pairs = [(float(a), float(b)) for a, b in _PAIR.findall(text)]
    doc = {"items": [{"id": f"s-{i:04d}", "pair": list(p), "label": text[i:i + 12]}
                     for i, p in enumerate(pairs)]}
    return len(json.loads(json.dumps(doc, indent=1))["items"])


def reference_seconds() -> float:
    t0 = time.perf_counter()
    reference_work()
    reference_work()
    return time.perf_counter() - t0


def timed_steps(steps, scale: bool = True) -> tuple[float, float]:
    """Run the steps in order; returns (seconds as measured, seconds scaled).

    Each step is scaled by the mean of the reference timings taken right
    before and right after it, so a pass made of short steps tracks a
    machine whose speed changes within the pass. With ``scale=False`` no
    reference is run and both numbers are the measured time.
    """
    if not scale:
        t0 = time.perf_counter()
        for step in steps:
            step()
        raw = time.perf_counter() - t0
        return raw, raw
    raw = scaled = 0.0
    ref = reference_seconds()
    for step in steps:
        t0 = time.perf_counter()
        step()
        dt = time.perf_counter() - t0
        ref_after = reference_seconds()
        raw += dt
        scaled += dt * REF_NOMINAL_S / ((ref + ref_after) / 2)
        ref = ref_after
    return raw, scaled
