"""Supervision targets: hypothetical rollout, critical objects, and decisions.

Builds the assistant-side text for fine-tuning: which objects matter, how
they interact with the planned motion, what high-level maneuver the human
trajectory encodes, and the trajectory itself. Everything here is
deterministic given the scenario and config.

The hypothetical rollout extrapolates the current ego state: speed follows
constant acceleration (clamped at zero, the vehicle does not reverse), and
the path bends along a constant-curvature arc computed from the initial
heading rate and speed. Objects whose predicted positions pass within
``lateral_threshold`` meters of that rollout are the critical ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .codec import DEFAULT_DECIMALS, CodecConfig, format_number, quantize, serialize_trajectory
from .prompts import (
    SECTION_CRITICAL,
    SECTION_DECISION,
    SECTION_INTERACTION,
    SECTION_TRAJECTORY,
    Decision,
    PlannerPrompt,
    build_prompt,
)
from .scenario import DEFAULT_DT, DEFAULT_HORIZON_STEPS, EgoState, Scenario, Trajectory, Waypoint

# Segments shorter than this carry no usable direction.
_MIN_SEGMENT = 0.01
_EPS = 1e-9


@dataclass(frozen=True)
class ReasoningConfig:
    """Thresholds for criticality and decision classification.

    Ratios compare the human path length against the hypothetical rollout
    length over the same horizon: below ``stop_ratio`` the human all but
    halts; below ``decel_ratio`` they slow down; above ``accel_ratio`` they
    speed up. Turns are net heading changes beyond ``turn_angle_deg``; lane
    changes are lateral offsets beyond ``lane_offset_m`` without a turn.
    """

    lateral_threshold: float = 3.0
    stop_ratio: float = 0.05
    decel_ratio: float = 0.85
    accel_ratio: float = 1.15
    turn_angle_deg: float = 15.0
    lane_offset_m: float = 1.5


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
    interaction_text: str
    decision: Decision

    @property
    def decision_text(self) -> str:
        return f"{self.decision.value} - {_DECISION_PHRASES[self.decision]}."


def rollout_hypothetical(ego: EgoState, decimals: int = DEFAULT_DECIMALS) -> Trajectory:
    """Extrapolate the current ego state over the fixed horizon.

    Arc length grows as v0*t + a*t^2/2 and freezes once a negative
    acceleration brings the speed to zero. Curvature is heading_rate / v0
    at the current moment and held constant; with negligible speed or zero
    heading rate the path is straight ahead.
    """
    v0 = max(0.0, ego.velocity)
    a = ego.acceleration
    kappa = ego.heading_rate / v0 if v0 > _EPS else 0.0

    def arc_at(t: float) -> float:
        if a < 0 and v0 + a * t < 0:
            t = -v0 / a
        return max(0.0, v0 * t + 0.5 * a * t * t)

    points = []
    for i in range(1, DEFAULT_HORIZON_STEPS + 1):
        s = arc_at(i * DEFAULT_DT)
        if abs(kappa) > _EPS:
            x = (math.cos(kappa * s) - 1.0) / kappa
            y = math.sin(kappa * s) / kappa
        else:
            x, y = 0.0, s
        points.append(Waypoint(quantize(x, decimals), quantize(y, decimals)))
    return Trajectory(tuple(points))


def path_length(t: Trajectory) -> float:
    """Arc length from the origin through every waypoint."""
    total, px, py = 0.0, 0.0, 0.0
    for w in t.waypoints:
        total += math.hypot(w.x - px, w.y - py)
        px, py = w.x, w.y
    return total


def segment_directions(t: Trajectory) -> list[tuple[float, float] | None]:
    """(dx, dy) of each segment from the origin through every waypoint; None
    for a segment shorter than a centimeter, which carries no direction."""
    out = []
    px, py = 0.0, 0.0
    for w in t.waypoints:
        dx, dy = w.x - px, w.y - py
        out.append((dx, dy) if math.hypot(dx, dy) >= _MIN_SEGMENT else None)
        px, py = w.x, w.y
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


def _object_position(obj, prediction, step: int) -> Waypoint:
    if prediction is not None and prediction.future:
        return prediction.future[min(step, len(prediction.future)) - 1]
    return obj.center


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


def find_critical_objects(
    s: Scenario,
    hypo: Trajectory | None = None,
    cfg: ReasoningConfig = ReasoningConfig(),
) -> tuple[CriticalObject, ...]:
    """Objects whose expected position passes within the lateral threshold.

    Each object is tracked against the hypothetical rollout step by step,
    using its predicted future when available and its current position
    otherwise. Results are ordered by urgency: earliest conflict step first,
    then smallest minimum distance.
    """
    if hypo is None:
        hypo = rollout_hypothetical(s.ego)
    by_id = {p.object_id: p for p in s.predictions}
    found = []
    for obj in s.objects:
        pred = by_id.get(obj.id)
        first, closest = None, math.inf
        for i in range(1, len(hypo) + 1):
            ego_p = hypo.point(i)
            obj_p = _object_position(obj, pred, i)
            d = math.hypot(obj_p.x - ego_p.x, obj_p.y - ego_p.y)
            closest = min(closest, d)
            if first is None and d < cfg.lateral_threshold:
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


def classify_decision(
    s: Scenario,
    hypo: Trajectory | None = None,
    cfg: ReasoningConfig = ReasoningConfig(),
) -> Decision:
    """Name the maneuver the human trajectory encodes.

    Precedence: stop, then turns, then lane changes, then speed changes.
    A stopped ego (empty hypothetical) cannot classify by length ratio, so
    it reads as accelerate when the human pulls away and keep_speed when
    both stand still.
    """
    if hypo is None:
        hypo = rollout_hypothetical(s.ego)
    human = s.human_trajectory
    l_human = path_length(human)
    l_hypo = path_length(hypo)
    ratio = l_human / l_hypo if l_hypo > _EPS else None

    if ratio is not None and ratio < cfg.stop_ratio:
        return Decision.STOP
    heading = net_heading_change_deg(human)
    if abs(heading) > cfg.turn_angle_deg and l_human > _EPS:
        return Decision.TURN_LEFT if heading > 0 else Decision.TURN_RIGHT
    offset = final_lateral_offset(human)
    if abs(offset) > cfg.lane_offset_m:
        # +x is rightward in the ego frame
        return Decision.CHANGE_LANE_LEFT if offset < 0 else Decision.CHANGE_LANE_RIGHT
    if ratio is None:
        return Decision.ACCELERATE if l_human > 0.5 else Decision.KEEP_SPEED
    if ratio < cfg.decel_ratio:
        return Decision.DECELERATE
    if ratio > cfg.accel_ratio:
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


def interaction_summary(
    critical: tuple[CriticalObject, ...], codec: CodecConfig = CodecConfig()
) -> str:
    """One clause per critical object: who, how, how close, from when."""
    if not critical:
        return "no conflicts; the extrapolated path stays clear."
    clauses = []
    for c in critical:
        t = c.first_conflict_step * DEFAULT_DT
        clauses.append(
            f"{c.class_name} [{c.object_id}] ({c.relation}) passes within "
            f"{format_number(c.min_distance, codec)} m of the extrapolated "
            f"path from t={t:.1f} s"
        )
    return "; ".join(clauses) + "."


def build_trace(
    s: Scenario,
    hypo: Trajectory,
    decision: Decision,
    cfg: ReasoningConfig = ReasoningConfig(),
    codec: CodecConfig = CodecConfig(),
) -> ReasoningTrace:
    """Critical objects and interactions against the rollout, plus a decision."""
    critical = find_critical_objects(s, hypo, cfg)
    return ReasoningTrace(
        critical_objects=critical,
        interaction_text=interaction_summary(critical, codec),
        decision=decision,
    )


def compose_reasoning(
    s: Scenario,
    cfg: ReasoningConfig = ReasoningConfig(),
    codec: CodecConfig = CodecConfig(),
) -> ReasoningTrace:
    """Derive the full trace: critical objects, interactions, and decision."""
    hypo = rollout_hypothetical(s.ego, codec.decimals)
    return build_trace(s, hypo, classify_decision(s, hypo, cfg), cfg, codec)


def render_reasoning(trace: ReasoningTrace, codec: CodecConfig = CodecConfig()) -> str:
    """Three labeled sections matching the announced output format."""
    if trace.critical_objects:
        listed = ", ".join(
            f"{c.class_name} [{c.object_id}] at min distance "
            f"{format_number(c.min_distance, codec)} m"
            for c in trace.critical_objects
        )
    else:
        listed = "none"
    return (
        f"{SECTION_CRITICAL} {listed}.\n"
        f"{SECTION_INTERACTION} {trace.interaction_text}\n"
        f"{SECTION_DECISION} {trace.decision_text}"
    )


def render_plan_text(
    trace: ReasoningTrace, trajectory_text: str, codec: CodecConfig = CodecConfig()
) -> str:
    """The full answer: the three reasoning sections, then the trajectory."""
    return render_reasoning(trace, codec) + f"\n{SECTION_TRAJECTORY} {trajectory_text}"


@dataclass(frozen=True)
class FineTuneExample:
    """One supervised pair: scene prompt in, reasoning plus trajectory out."""

    scenario_id: str
    prompt: PlannerPrompt
    reasoning: ReasoningTrace
    trajectory_text: str
    codec: CodecConfig = CodecConfig()  # renders the reasoning's numbers

    @property
    def target_text(self) -> str:
        return render_plan_text(self.reasoning, self.trajectory_text, self.codec)


def make_finetune_example(
    s: Scenario,
    cfg: ReasoningConfig = ReasoningConfig(),
    codec: CodecConfig = CodecConfig(),
) -> FineTuneExample:
    """Build the supervised example for one scenario."""
    prompt = build_prompt(s, codec)
    trace = compose_reasoning(s, cfg, codec)
    return FineTuneExample(
        scenario_id=s.id,
        prompt=prompt,
        reasoning=trace,
        trajectory_text=serialize_trajectory(s.human_trajectory, codec),
        codec=codec,
    )
