"""Supervision targets: hypothetical rollout, critical objects, and decisions.

Builds the assistant-side text for fine-tuning: which objects matter, how
they interact with the planned motion, what high-level maneuver the human
trajectory encodes, and the trajectory itself. Everything here is
deterministic given the scenario. A ``ReasoningTrace`` is plain data that
``render_reasoning`` formats; a ``FineTuneExample`` holds just the two texts
a fine-tune record exports, the prompt and the target, rendered once when
the example is made.

The hypothetical rollout extrapolates the current ego state: speed follows
constant acceleration (clamped at zero, the vehicle does not reverse), and
the path bends along a constant-curvature arc computed from the initial
heading rate and speed. Objects whose predicted positions pass within
``LATERAL_THRESHOLD`` meters of that rollout are the critical ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .codec import _waypoint, format_number, quantize, serialize_trajectory
from .prompts import (
    SECTION_CRITICAL,
    SECTION_DECISION,
    SECTION_INTERACTION,
    SECTION_TRAJECTORY,
    Decision,
    PlannerPrompt,
    build_prompt,
)
from .scenario import DEFAULT_DT, DEFAULT_HORIZON_STEPS, EgoState, Scenario, Trajectory

# Segments shorter than this carry no usable direction.
_MIN_SEGMENT = 0.01
_EPS = 1e-9

# Thresholds for criticality and decision classification. Ratios compare the
# classified path length against the hypothetical rollout length over the same
# horizon: below STOP_RATIO the path all but halts; below DECEL_RATIO it
# slows down; above ACCEL_RATIO it speeds up. Turns are net heading changes
# beyond TURN_ANGLE_DEG; lane changes are lateral offsets beyond
# LANE_OFFSET_M without a turn.
LATERAL_THRESHOLD = 3.0  # meters
STOP_RATIO = 0.05
DECEL_RATIO = 0.85
ACCEL_RATIO = 1.15
TURN_ANGLE_DEG = 15.0
LANE_OFFSET_M = 1.5


@dataclass(frozen=True)
class CriticalObject:
    object_id: str
    class_name: str
    relation: str
    first_conflict_step: int  # 1-based horizon step of the first close pass
    min_distance: float  # closest center distance over the whole horizon


@dataclass(frozen=True)
class ReasoningTrace:
    critical_objects: tuple[CriticalObject, ...]
    decision: Decision


def rollout_hypothetical(ego: EgoState) -> Trajectory:
    """Extrapolate the current ego state over the fixed horizon.

    Arc length grows as v0*t + a*t^2/2 and freezes once a negative
    acceleration brings the speed to zero. Curvature is heading_rate / v0
    at the current moment and held constant; with negligible speed or zero
    heading rate the path is straight ahead.
    """
    v0 = max(0.0, ego.velocity)
    a = ego.acceleration
    kappa = ego.heading_rate / v0 if v0 > _EPS else 0.0
    curved = abs(kappa) > _EPS

    points = []
    for i in range(1, DEFAULT_HORIZON_STEPS + 1):
        t = i * DEFAULT_DT
        if a < 0 and v0 + a * t < 0:
            t = -v0 / a
        s = max(0.0, v0 * t + 0.5 * a * t * t)
        if curved:
            x = (math.cos(kappa * s) - 1.0) / kappa
            y = math.sin(kappa * s) / kappa
        else:
            x, y = 0.0, s
        points.append(_waypoint((quantize(x), quantize(y))))
    return Trajectory(tuple(points))


def path_length(t: Trajectory) -> float:
    """Arc length from the origin through every waypoint."""
    total, px, py = 0.0, 0.0, 0.0
    for x, y in t.waypoints:
        total += math.hypot(x - px, y - py)
        px, py = x, y
    return total


def segment_directions(t: Trajectory) -> list[tuple[float, float] | None]:
    """(dx, dy) of each segment from the origin through every waypoint; None
    for a segment shorter than a centimeter, which carries no direction."""
    out = []
    px, py = 0.0, 0.0
    for x, y in t.waypoints:
        dx, dy = x - px, y - py
        out.append((dx, dy) if math.hypot(dx, dy) >= _MIN_SEGMENT else None)
        px, py = x, y
    return out


def net_heading_change_deg(t: Trajectory) -> float:
    """Heading of the last usable segment minus the first, in degrees.

    Headings are measured from +y (straight ahead); positive means leftward.
    Segments shorter than a centimeter are skipped as directionless. Zero
    when fewer than one usable segment exists.
    """
    headings = [
        math.degrees(math.atan2(-d[0], d[1])) for d in segment_directions(t) if d is not None
    ]
    if len(headings) < 1:
        return 0.0
    delta = headings[-1] - headings[0]
    return (delta + 180.0) % 360.0 - 180.0


def final_lateral_offset(t: Trajectory) -> float:
    return t.waypoints[-1].x if t.waypoints else 0.0


def _relation(obj, prediction) -> str:
    """Coarse label for how the object moves relative to the ego frame."""
    if prediction is None or not prediction.future:
        return "static obstacle"
    dx = prediction.future[-1].x - obj.center.x
    dy = prediction.future[-1].y - obj.center.y
    if math.hypot(dx, dy) < 0.5:
        return "static obstacle"
    if abs(dx) > abs(dy):
        return "crossing"
    if dy < 0:
        return "oncoming"
    return "ahead in lane"


def find_critical_objects(s: Scenario, hypo: Trajectory) -> tuple[CriticalObject, ...]:
    """Objects whose expected position passes within the lateral threshold.

    Each object is tracked against the hypothetical rollout ``hypo`` step by
    step, using its predicted future when available and its current position
    otherwise. Results are ordered by urgency: earliest conflict step first,
    then smallest minimum distance.
    """
    ego_path = hypo.waypoints
    by_id = {p.object_id: p for p in s.predictions}
    found = []
    for obj in s.objects:
        pred = by_id.get(obj.id)
        if pred is not None and pred.future:
            # step i's position is future[i - 1], the last one held past its end
            future = pred.future
            path = future[: len(ego_path)] + future[-1:] * (len(ego_path) - len(future))
        else:
            path = (obj.center,) * len(ego_path)
        first, closest = None, math.inf
        for i, ((ex, ey), (ox, oy)) in enumerate(zip(ego_path, path), 1):
            d = math.hypot(ox - ex, oy - ey)
            if d < closest:
                closest = d
            if first is None and d < LATERAL_THRESHOLD:
                first = i
        if first is not None:
            found.append(
                CriticalObject(
                    object_id=obj.id,
                    class_name=obj.class_name,
                    relation=_relation(obj, pred),
                    first_conflict_step=first,
                    min_distance=closest,
                )
            )
    found.sort(key=lambda c: (c.first_conflict_step, c.min_distance, c.object_id))
    return tuple(found)


def classify_decision(trajectory: Trajectory, hypo: Trajectory) -> Decision:
    """Name the maneuver ``trajectory`` encodes against the rollout ``hypo``.

    Precedence: stop, then turns, then lane changes, then speed changes.
    A stopped ego (empty hypothetical) cannot classify by length ratio, so
    it reads as accelerate when the trajectory pulls away and keep_speed
    when both stand still.
    """
    length = path_length(trajectory)
    l_hypo = path_length(hypo)
    ratio = length / l_hypo if l_hypo > _EPS else None

    if ratio is not None and ratio < STOP_RATIO:
        return Decision.STOP
    heading = net_heading_change_deg(trajectory)
    if abs(heading) > TURN_ANGLE_DEG and length > _EPS:
        return Decision.TURN_LEFT if heading > 0 else Decision.TURN_RIGHT
    offset = final_lateral_offset(trajectory)
    if abs(offset) > LANE_OFFSET_M:
        # +x is rightward in the ego frame
        return Decision.CHANGE_LANE_LEFT if offset < 0 else Decision.CHANGE_LANE_RIGHT
    if ratio is None:
        return Decision.ACCELERATE if length > 0.5 else Decision.KEEP_SPEED
    if ratio < DECEL_RATIO:
        return Decision.DECELERATE
    if ratio > ACCEL_RATIO:
        return Decision.ACCELERATE
    return Decision.KEEP_SPEED


_DECISION_PHRASES = {
    Decision.KEEP_SPEED: "the path ahead is clear, hold the current pace",
    Decision.ACCELERATE: "the road opens up, pick up the pace",
    Decision.DECELERATE: "ease off to keep a safe gap",
    Decision.STOP: "brake to a standstill before the conflict point",
    Decision.TURN_LEFT: "follow the road leftward",
    Decision.TURN_RIGHT: "follow the road rightward",
    Decision.CHANGE_LANE_LEFT: "shift one lane leftward around the blockage",
    Decision.CHANGE_LANE_RIGHT: "shift one lane rightward around the blockage",
}


def interaction_summary(critical: tuple[CriticalObject, ...]) -> str:
    """One clause per critical object: who, how, how close, from when."""
    if not critical:
        return "no conflicts; the extrapolated path stays clear."
    clauses = []
    for c in critical:
        t = c.first_conflict_step * DEFAULT_DT
        clauses.append(
            f"{c.class_name} [{c.object_id}] ({c.relation}) passes within "
            f"{format_number(c.min_distance)} m of the extrapolated "
            f"path from t={t:.1f} s"
        )
    return "; ".join(clauses) + "."


def compose_reasoning(s: Scenario) -> ReasoningTrace:
    """Derive the full trace: critical objects, interactions, and decision."""
    hypo = rollout_hypothetical(s.ego)
    decision = classify_decision(s.human_trajectory, hypo)
    return ReasoningTrace(find_critical_objects(s, hypo), decision)


def render_reasoning(trace: ReasoningTrace) -> str:
    """Three labeled sections matching the announced output format."""
    if trace.critical_objects:
        listed = ", ".join(
            f"{c.class_name} [{c.object_id}] at min distance "
            f"{format_number(c.min_distance)} m"
            for c in trace.critical_objects
        )
    else:
        listed = "none"
    return (
        f"{SECTION_CRITICAL} {listed}.\n"
        f"{SECTION_INTERACTION} {interaction_summary(trace.critical_objects)}\n"
        f"{SECTION_DECISION} {trace.decision.value} - {_DECISION_PHRASES[trace.decision]}."
    )


def render_plan_text(trace: ReasoningTrace, trajectory_text: str) -> str:
    """The full answer: the three reasoning sections, then the trajectory."""
    return render_reasoning(trace) + f"\n{SECTION_TRAJECTORY} {trajectory_text}"


@dataclass(frozen=True)
class FineTuneExample:
    """One supervised pair: the scene prompt in, and the target text out, the
    reasoning sections followed by the trajectory."""

    prompt: PlannerPrompt
    target_text: str


def make_finetune_example(s: Scenario) -> FineTuneExample:
    """Build the supervised example for one scenario, its target rendered once."""
    return FineTuneExample(
        build_prompt(s),
        render_plan_text(compose_reasoning(s), serialize_trajectory(s.human_trajectory)),
    )
