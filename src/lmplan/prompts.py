"""Prompt rendering: universal planning context plus per-frame scene text.

The templates below are frozen assets; ``template_hash()`` fingerprints them
so exported datasets and evaluation reports can record which prompt version
produced them. Scene text renders every number through the trajectory codec,
so each literal in the prompt re-parses to the exact stored value.
The ``Decision`` vocabulary the output format announces is defined here.
"""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass, field, replace

from .codec import DEFAULT_DECIMALS, format_number, format_pair, format_waypoints
from .scenario import DEFAULT_DT, DEFAULT_HORIZON_STEPS, Scenario

MAX_EXEMPLARS = 5

# Section labels shared with the output parser. The system prompt instructs
# the model to emit exactly these, in this order.
SECTION_CRITICAL = "Critical objects:"
SECTION_INTERACTION = "Interaction analysis:"
SECTION_DECISION = "Decision:"
SECTION_TRAJECTORY = "Trajectory:"
SECTION_LABELS = (SECTION_CRITICAL, SECTION_INTERACTION, SECTION_DECISION, SECTION_TRAJECTORY)


class Decision(str, enum.Enum):
    """Maneuver tokens, in the order the prompt announces them."""

    KEEP_SPEED = "keep_speed"
    ACCELERATE = "accelerate"
    DECELERATE = "decelerate"
    STOP = "stop"
    TURN_LEFT = "turn_left"
    TURN_RIGHT = "turn_right"
    CHANGE_LANE_LEFT = "change_lane_left"
    CHANGE_LANE_RIGHT = "change_lane_right"

    def __str__(self) -> str:  # render as the bare token, not Decision.X
        return self.value


OUTPUT_FORMAT_INSTRUCTION = """\
Answer with exactly these four labeled sections, in this order:
Critical objects: the detected objects that may affect the ego vehicle, or "none".
Interaction analysis: when, where, and how each critical object affects the plan.
Decision: one of {vocabulary}, then a short justification.
Trajectory: [({x1},{y1}), ({x2},{y2}), ...] with exactly {n} coordinate pairs, {decimals} decimals each."""

SYSTEM_TEMPLATE = """\
You are the motion planner of an autonomous vehicle. From the scene \
description you receive, plan the trajectory a careful human driver would \
follow.

Coordinate system: bird's-eye view centered on the ego vehicle at the \
current moment; x is lateral in meters (positive right), y is longitudinal \
in meters (positive forward).

Objective: plan the ego motion for the next {total_s} seconds as {n} \
waypoints, one every {dt} seconds, keeping the ride safe, comfortable, and \
close to human driving.

{output_format}"""

USER_TEMPLATE = """\
Scene description.
Perception (detected objects):
{perception}
Prediction (expected object motion):
{prediction}
Ego state:
- speed {speed} m/s, acceleration {accel} m/s^2, heading rate {hrate} rad/s.
- recent path (oldest first): {history}
Plan the trajectory now."""

NO_OBJECTS_LINE = "- no objects detected."
NO_PREDICTIONS_LINE = "- none."
NO_HISTORY = "none recorded."


@dataclass(frozen=True)
class PlannerPrompt:
    """System context, scene text, and optional in-context exemplar pairs."""

    system_text: str
    user_text: str
    exemplars: tuple[tuple[str, str], ...] = field(default=())


def template_hash() -> str:
    """Stable fingerprint of the frozen prompt templates."""
    blob = "\x1e".join(
        (
            SYSTEM_TEMPLATE,
            USER_TEMPLATE,
            OUTPUT_FORMAT_INSTRUCTION,
            NO_OBJECTS_LINE,
            NO_PREDICTIONS_LINE,
            NO_HISTORY,
            "|".join(SECTION_LABELS),
            "|".join(d.value for d in Decision),
        )
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:12]


def output_format_instruction() -> str:
    return OUTPUT_FORMAT_INSTRUCTION.format(
        vocabulary=", ".join(d.value for d in Decision),
        x1="x1", y1="y1", x2="x2", y2="y2",
        n=DEFAULT_HORIZON_STEPS,
        decimals=DEFAULT_DECIMALS,
    )


def build_system_prompt() -> str:
    """Universal planning context for the fixed horizon; deterministic."""
    return SYSTEM_TEMPLATE.format(
        total_s=f"{DEFAULT_HORIZON_STEPS * DEFAULT_DT:.1f}",
        n=DEFAULT_HORIZON_STEPS,
        dt=f"{DEFAULT_DT:g}",
        output_format=output_format_instruction(),
    )


def _path_text(waypoints) -> str:
    return format_waypoints(waypoints) if waypoints else NO_HISTORY


def build_user_prompt(s: Scenario) -> str:
    """Scene text: one sentence per object, per predicted motion, and the ego state.

    Objects are described in input order so fine-tune data and inference
    prompts agree.
    """
    if s.objects:
        perception = "\n".join(
            f"- {o.class_name} [{o.id}] at {format_pair(o.center.x, o.center.y)}, "
            f"heading {format_number(o.heading)} rad, "
            f"size {format_number(o.length)} m by {format_number(o.width)} m."
            for o in s.objects
        )
    else:
        perception = NO_OBJECTS_LINE

    if s.predictions:
        by_id = {o.id: o for o in s.objects}
        lines = []
        for p in s.predictions:
            label = by_id[p.object_id].class_name if p.object_id in by_id else "object"
            lines.append(f"- {label} [{p.object_id}] expected path: {_path_text(p.future)}.")
        prediction = "\n".join(lines)
    else:
        prediction = NO_PREDICTIONS_LINE

    return USER_TEMPLATE.format(
        perception=perception,
        prediction=prediction,
        speed=format_number(s.ego.velocity),
        accel=format_number(s.ego.acceleration),
        hrate=format_number(s.ego.heading_rate),
        history=_path_text(s.ego.history),
    )


def build_prompt(s: Scenario) -> PlannerPrompt:
    return PlannerPrompt(system_text=build_system_prompt(), user_text=build_user_prompt(s))


def pack_exemplars(base: PlannerPrompt, pool, k: int) -> PlannerPrompt:
    """Attach the first min(k, len(pool)) exemplars, in pool order.

    Pool items are fine-tune examples or plain (user_text, assistant_text)
    pairs. k above ``MAX_EXEMPLARS`` is an error; the context window the
    backend offers cannot fit more.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    if k > MAX_EXEMPLARS:
        raise ValueError(f"k={k} exceeds the exemplar cap of {MAX_EXEMPLARS}")
    pairs = []
    for item in list(pool)[: min(k, len(pool))]:
        if isinstance(item, tuple):
            user_text, assistant_text = item
        else:
            user_text, assistant_text = item.prompt.user_text, item.target_text
        pairs.append((user_text, assistant_text))
    if not pairs:
        return base
    return replace(base, exemplars=base.exemplars + tuple(pairs))
