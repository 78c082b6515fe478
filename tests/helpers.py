"""Shared builders and independent oracles used across the test modules.

Oracles here deliberately use different algorithms than the library:
collision by dense point sampling instead of separating axes, kinematics by
millisecond numerical integration instead of closed forms, quantization by
string arithmetic instead of Decimal.
"""

from __future__ import annotations

import math
import random

import numpy as np

from lmplan import ObjectBox, Scenario, Trajectory, Waypoint, synth_scenario
from lmplan.scenario import SYNTH_KINDS


def make_scenarios(n: int, seed0: int = 0) -> list[Scenario]:
    """n deterministic scenarios cycling through every archetype."""
    return [
        synth_scenario(SYNTH_KINDS[i % len(SYNTH_KINDS)], seed0 + i) for i in range(n)
    ]


def traj(points) -> Trajectory:
    return Trajectory(tuple(Waypoint(float(x), float(y)) for x, y in points))


def random_box(rng: random.Random) -> ObjectBox:
    return ObjectBox(
        center=Waypoint(rng.uniform(-10, 10), rng.uniform(-10, 10)),
        heading=rng.uniform(-math.pi, math.pi),
        length=rng.uniform(0.5, 6.0),
        width=rng.uniform(0.3, 3.0),
    )


def _grid_hits(a: ObjectBox, b: ObjectBox, n: int) -> bool:
    """Any point of a dense grid over box a falling inside box b."""
    xs = np.linspace(-a.length / 2, a.length / 2, n)
    ys = np.linspace(-a.width / 2, a.width / 2, n)
    gx, gy = np.meshgrid(xs, ys)
    ca, sa = math.cos(a.heading), math.sin(a.heading)
    px = a.center.x + gx * ca - gy * sa
    py = a.center.y + gx * sa + gy * ca
    cb, sb = math.cos(b.heading), math.sin(b.heading)
    rx, ry = px - b.center.x, py - b.center.y
    bx = rx * cb + ry * sb
    by = -rx * sb + ry * cb
    return bool(((np.abs(bx) <= b.length / 2) & (np.abs(by) <= b.width / 2)).any())


def boxes_intersect_sampled(a: ObjectBox, b: ObjectBox, n: int = 200) -> bool:
    """Point-sampling collision oracle, checked in both directions."""
    return _grid_hits(a, b, n) or _grid_hits(b, a, n)


def integrate_rollout(
    v0: float,
    a: float,
    omega: float,
    horizon_steps: int,
    dt: float,
    step: float = 1e-3,
):
    """Midpoint integration of the extrapolation model at millisecond steps.

    Speed is max(0, v0 + a*t); heading follows the fixed curvature
    omega / v0 along traveled arc length. Returns one (x, y) per step.
    """
    kappa = omega / v0 if v0 > 1e-9 else 0.0
    x = y = s = t = 0.0
    out = []
    for i in range(1, horizon_steps + 1):
        target = i * dt
        while t < target - 1e-12:
            h = min(step, target - t)
            tm = t + 0.5 * h
            v = max(0.0, v0 + a * tm)
            sm = s + v * 0.5 * h
            th = kappa * sm
            x += v * h * (-math.sin(th))
            y += v * h * math.cos(th)
            s += v * h
            t += h
        out.append((x, y))
    return out


def quantize_by_strings(v: float, decimals: int = 2) -> float:
    """Reference quantizer: digit-string arithmetic, half away from zero."""
    text = repr(float(v))
    if "e" in text or "E" in text:
        text = f"{float(v):.{decimals + 30}f}"
    sign = -1.0 if text.startswith("-") else 1.0
    text = text.lstrip("+-")
    whole, _, frac = text.partition(".")
    frac = frac + "0" * (decimals + 1)
    keep, next_digit = frac[:decimals], frac[decimals]
    scaled = int(whole + keep) if whole + keep else 0
    # half away from zero on the repr digits: the next digit alone decides
    if int(next_digit) >= 5:
        scaled += 1
    result = sign * scaled / (10**decimals)
    return 0.0 if result == 0.0 else result


def scenario_to_dict(s: Scenario) -> dict:
    """The documented schema's entry for one scenario, in its key order: what
    a scenario file written by ``save_scenarios`` decodes to."""
    return {
        "id": s.id,
        "ego": {
            "velocity": s.ego.velocity,
            "acceleration": s.ego.acceleration,
            "heading_rate": s.ego.heading_rate,
            "history": [[w.x, w.y] for w in s.ego.history],
        },
        "objects": [
            {
                "id": o.id,
                "class": o.class_name,
                "center": [o.center.x, o.center.y],
                "heading": o.heading,
                "length": o.length,
                "width": o.width,
            }
            for o in s.objects
        ],
        "predictions": [
            {"object_id": p.object_id, "future": [[w.x, w.y] for w in p.future]}
            for p in s.predictions
        ],
        "human_trajectory": [[w.x, w.y] for w in s.human_trajectory.waypoints],
        "gt_object_boxes": [
            [
                {
                    "center": [b.center.x, b.center.y],
                    "heading": b.heading,
                    "length": b.length,
                    "width": b.width,
                }
                for b in boxes
            ]
            for boxes in s.gt_object_boxes
        ],
    }
