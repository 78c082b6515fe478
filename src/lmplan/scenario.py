"""Scenario data model, JSON ingest, dataset splits, and synthetic fixtures.

All positions are ego-centric bird's-eye-view coordinates at the current
timestep: ego at the origin, +y forward, +x right, meters. Every scalar is
quantized to ``DEFAULT_DECIMALS`` fractional digits on ingest so that
store -> prompt -> parse round-trips are exact.

``Waypoint``, ``Trajectory`` and the fixed horizon (``DEFAULT_HORIZON_STEPS``
waypoints, ``DEFAULT_DT`` seconds apart) are defined in ``codec`` and
re-exported here.

File schema (top level ``{"scenarios": [...]}``, all floats SI units):

    {
      "id": "scene-0001",
      "ego": {"velocity": 6.0, "acceleration": 0.0, "heading_rate": 0.0,
              "history": [[x, y], ...]},
      "objects": [{"id": "o1", "class": "car", "center": [x, y],
                   "heading": 1.57, "length": 4.6, "width": 1.9}],
      "predictions": [{"object_id": "o1", "future": [[x, y], ...]}],
      "human_trajectory": [[x, y], ...],
      "gt_object_boxes": [[{"center": [x, y], "heading": 1.57,
                            "length": 4.6, "width": 1.9}, ...], ...]
    }

``human_trajectory`` and every ``predictions[].future`` carry one waypoint
per horizon step; ``gt_object_boxes`` carries one list of boxes per horizon
step, aligned with the waypoint times.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

from .codec import DEFAULT_DT, DEFAULT_HORIZON_STEPS, Trajectory, Waypoint, quantize

COORD_BOUND = 200.0  # sanity bound for any coordinate over a few seconds

SYNTH_KINDS = ("empty_road", "lead_vehicle", "crossing_pedestrian", "stationary_obstacle")


class ScenarioSchemaError(ValueError):
    """A scenario file does not match the documented schema."""

    def __init__(self, message: str, scenario_id: str | None = None, field_name: str | None = None):
        self.scenario_id = scenario_id
        self.field_name = field_name
        prefix = ""
        if scenario_id is not None:
            prefix += f"scenario {scenario_id!r}: "
        if field_name is not None:
            prefix += f"field {field_name!r}: "
        super().__init__(prefix + message)


@dataclass(frozen=True)
class EgoState:
    velocity: float
    acceleration: float
    heading_rate: float
    history: tuple[Waypoint, ...] = ()  # past positions, most recent last


@dataclass(frozen=True)
class DetectedObject:
    id: str
    class_name: str
    center: Waypoint
    heading: float
    length: float
    width: float


@dataclass(frozen=True)
class PredictedMotion:
    object_id: str
    future: tuple[Waypoint, ...]


@dataclass(frozen=True)
class ObjectBox:
    """Oriented box: center position, heading (rad), length along heading, width."""

    center: Waypoint
    heading: float
    length: float
    width: float


@dataclass(frozen=True)
class Scenario:
    id: str
    ego: EgoState
    objects: tuple[DetectedObject, ...]
    predictions: tuple[PredictedMotion, ...]
    human_trajectory: Trajectory
    gt_object_boxes: tuple[tuple[ObjectBox, ...], ...] = field(default=())


def _finite(v: float) -> bool:
    return isinstance(v, (int, float)) and math.isfinite(v)


def _waypoint_violations(w: Waypoint, where: str) -> list[str]:
    out = []
    if not (_finite(w.x) and _finite(w.y)):
        out.append(f"{where}: coordinates must be finite")
    else:
        if abs(w.x) > COORD_BOUND or abs(w.y) > COORD_BOUND:
            out.append(f"{where}: |x| <= {COORD_BOUND:g} and |y| <= {COORD_BOUND:g}")
    return out


def validate_scenario(s: Scenario) -> list[str]:
    """Check every invariant; returns a list of violations (empty means ok)."""
    v: list[str] = []

    if not _finite(s.ego.velocity) or s.ego.velocity < 0:
        v.append("ego velocity >= 0")
    if not _finite(s.ego.acceleration):
        v.append("ego acceleration finite")
    if not _finite(s.ego.heading_rate):
        v.append("ego heading_rate finite")
    for i, w in enumerate(s.ego.history):
        v.extend(_waypoint_violations(w, f"ego history[{i}]"))

    if len(s.human_trajectory) != DEFAULT_HORIZON_STEPS:
        v.append(
            f"trajectory length: expected {DEFAULT_HORIZON_STEPS} waypoints, "
            f"got {len(s.human_trajectory)}"
        )
    for i, w in enumerate(s.human_trajectory.waypoints):
        v.extend(_waypoint_violations(w, f"human_trajectory[{i}]"))

    ids = set()
    for o in s.objects:
        if o.id in ids:
            v.append(f"object {o.id!r}: duplicate id")
        ids.add(o.id)
        if not (_finite(o.length) and o.length > 0):
            v.append(f"object {o.id!r}: length > 0")
        if not (_finite(o.width) and o.width > 0):
            v.append(f"object {o.id!r}: width > 0")
        if not _finite(o.heading) or not (-math.pi <= o.heading <= math.pi):
            v.append(f"object {o.id!r}: heading in [-pi, pi]")
        v.extend(_waypoint_violations(o.center, f"object {o.id!r} center"))

    for p in s.predictions:
        if p.object_id not in ids:
            v.append(f"prediction references unknown object id {p.object_id!r}")
        if len(p.future) != DEFAULT_HORIZON_STEPS:
            v.append(
                f"prediction {p.object_id!r}: future length "
                f"{len(p.future)} != horizon {DEFAULT_HORIZON_STEPS}"
            )
        for i, w in enumerate(p.future):
            v.extend(_waypoint_violations(w, f"prediction {p.object_id!r} future[{i}]"))

    if s.gt_object_boxes and len(s.gt_object_boxes) != DEFAULT_HORIZON_STEPS:
        v.append(
            f"gt_object_boxes length: expected {DEFAULT_HORIZON_STEPS} steps, "
            f"got {len(s.gt_object_boxes)}"
        )
    for step, boxes in enumerate(s.gt_object_boxes):
        for j, b in enumerate(boxes):
            if not (_finite(b.length) and b.length > 0 and _finite(b.width) and b.width > 0):
                v.append(f"gt box [step {step}][{j}]: positive dimensions")
            v.extend(_waypoint_violations(b.center, f"gt box [step {step}][{j}] center"))

    return v


# --- JSON ingest / export -------------------------------------------------

def _q(v) -> float:
    return quantize(float(v))


def is_number(v) -> bool:
    """A JSON number: an int or a float, and not a bool."""
    return type(v) in (int, float)


def _number(raw, sid: str, field_name: str) -> float:
    if not is_number(raw):
        raise ScenarioSchemaError(f"expected a number, got {type(raw).__name__}", sid, field_name)
    try:
        return _q(raw)
    except (ValueError, OverflowError) as e:
        raise ScenarioSchemaError(f"bad number: {e}", sid, field_name) from None


def _pair(raw, sid: str, field_name: str) -> Waypoint:
    if not isinstance(raw, (list, tuple)) or len(raw) != 2:
        raise ScenarioSchemaError("expected an [x, y] pair", sid, field_name)
    return Waypoint(_number(raw[0], sid, field_name), _number(raw[1], sid, field_name))


def _pairs(raw, sid: str, field_name: str) -> tuple[Waypoint, ...]:
    if not isinstance(raw, list):
        raise ScenarioSchemaError("expected a list of [x, y] pairs", sid, field_name)
    return tuple(_pair(p, sid, f"{field_name}[{i}]") for i, p in enumerate(raw))


def _require(d, key: str, sid: str | None):
    if not isinstance(d, dict) or key not in d:
        raise ScenarioSchemaError("missing required key", sid, key)
    return d[key]


def _number_at(d, key: str, sid: str, where: str) -> float:
    return _number(_require(d, key, sid), sid, f"{where}.{key}")


def _list_at(raw: dict, key: str, sid: str) -> list:
    """An optional top-level list field; absent means empty."""
    value = raw.get(key, [])
    if not isinstance(value, list):
        raise ScenarioSchemaError(f"expected a list, got {type(value).__name__}", sid, key)
    return value


def _scenario_from_dict(raw: dict) -> Scenario:
    sid = raw.get("id")
    if not isinstance(sid, str) or not sid:
        raise ScenarioSchemaError("scenario id must be a non-empty string", str(sid), "id")

    ego_raw = _require(raw, "ego", sid)
    ego = EgoState(
        velocity=_number_at(ego_raw, "velocity", sid, "ego"),
        acceleration=_number_at(ego_raw, "acceleration", sid, "ego"),
        heading_rate=_number_at(ego_raw, "heading_rate", sid, "ego"),
        history=_pairs(ego_raw.get("history", []), sid, "ego.history"),
    )

    objects = []
    for i, o in enumerate(_list_at(raw, "objects", sid)):
        where = f"objects[{i}]"
        objects.append(
            DetectedObject(
                id=str(_require(o, "id", sid)),
                class_name=str(_require(o, "class", sid)),
                center=_pair(_require(o, "center", sid), sid, f"{where}.center"),
                heading=_number_at(o, "heading", sid, where),
                length=_number_at(o, "length", sid, where),
                width=_number_at(o, "width", sid, where),
            )
        )

    predictions = []
    for i, p in enumerate(_list_at(raw, "predictions", sid)):
        predictions.append(
            PredictedMotion(
                object_id=str(_require(p, "object_id", sid)),
                future=_pairs(_require(p, "future", sid), sid, f"predictions[{i}].future"),
            )
        )

    human = Trajectory(_pairs(_require(raw, "human_trajectory", sid), sid, "human_trajectory"))

    gt_steps = []
    for step, boxes in enumerate(_list_at(raw, "gt_object_boxes", sid)):
        if not isinstance(boxes, list):
            raise ScenarioSchemaError("expected a list of boxes", sid, f"gt_object_boxes[{step}]")
        row = []
        for j, b in enumerate(boxes):
            where = f"gt_object_boxes[{step}][{j}]"
            row.append(
                ObjectBox(
                    center=_pair(_require(b, "center", sid), sid, f"{where}.center"),
                    heading=_number_at(b, "heading", sid, where),
                    length=_number_at(b, "length", sid, where),
                    width=_number_at(b, "width", sid, where),
                )
            )
        gt_steps.append(tuple(row))

    return Scenario(
        id=sid,
        ego=ego,
        objects=tuple(objects),
        predictions=tuple(predictions),
        human_trajectory=human,
        gt_object_boxes=tuple(gt_steps),
    )


def load_scenarios(path: str | Path) -> list[Scenario]:
    """Load and validate all scenarios from a JSON file, in file order.

    Raises FileNotFoundError for a missing file, ScenarioSchemaError for
    malformed JSON (nesting too deep to decode included) or any
    schema/invariant violation (the error names the offending scenario id
    and field).
    """
    path = Path(path)
    text = path.read_text(encoding="utf-8")
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as e:
        raise ScenarioSchemaError(f"malformed JSON: {e}") from None
    if not isinstance(doc, dict) or not isinstance(doc.get("scenarios"), list):
        raise ScenarioSchemaError('top level must be {"scenarios": [...]}')

    out = []
    seen = set()
    for raw in doc["scenarios"]:
        if not isinstance(raw, dict):
            raise ScenarioSchemaError("each scenario must be an object")
        s = _scenario_from_dict(raw)
        if s.id in seen:
            raise ScenarioSchemaError("duplicate scenario id", s.id, "id")
        seen.add(s.id)
        violations = validate_scenario(s)
        if violations:
            raise ScenarioSchemaError("; ".join(violations), s.id)
        out.append(s)
    return out


def scenario_to_dict(s: Scenario) -> dict:
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


def save_scenarios(scenarios: list[Scenario], path: str | Path) -> None:
    """Write scenarios in the documented JSON schema (round-trips exactly)."""
    doc = {"scenarios": [scenario_to_dict(s) for s in scenarios]}
    Path(path).write_text(json.dumps(doc, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")


# --- dataset splits -------------------------------------------------------

def split_size(n: int, fraction: float) -> int:
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    # round before ceil so 0.01 * 700 == 7, not ceil(7.000000000000001)
    return min(n, math.ceil(round(fraction * n, 9)))


def sample_split(scenarios: list[Scenario], fraction: float, seed: int) -> list[Scenario]:
    """Seeded prefix sample of ceil(fraction * N) scenarios.

    One seeded permutation drives every fraction, so for a fixed seed the
    1% sample is a prefix of the 10% sample, which is a prefix of the 50%
    sample; few-shot subsets nest.
    """
    k = split_size(len(scenarios), fraction)
    perm = list(scenarios)
    random.Random(seed).shuffle(perm)
    return perm[:k]


# --- synthetic fixtures ---------------------------------------------------

def _speed_profile_trajectory(speeds, lateral=None) -> Trajectory:
    """Integrate per-interval speeds into waypoints; optional lateral offsets."""
    ys = []
    s = 0.0
    for v in speeds:
        s += v * DEFAULT_DT
        ys.append(s)
    xs = list(lateral) if lateral is not None else [0.0] * len(ys)
    return Trajectory(tuple(Waypoint(_q(x), _q(y)) for x, y in zip(xs, ys)))


def _history(v0: float, steps: int = 4) -> tuple[Waypoint, ...]:
    # constant-speed straight history, most recent last
    return tuple(Waypoint(0.0, _q(-v0 * DEFAULT_DT * k)) for k in range(steps, 0, -1))


def synth_scenario(kind: str, seed: int) -> Scenario:
    """Deterministic scenario of one of four archetypes.

    empty_road            no objects, constant-speed ego.
    lead_vehicle          slower vehicle ahead in lane; ego brakes to follow.
    crossing_pedestrian   pedestrian cuts across the lane; ego brakes hard.
    stationary_obstacle   static barrier in lane; ego shifts one lane left.

    Same (kind, seed) always yields the same scenario, and the result always
    passes validate_scenario.
    """
    if kind not in SYNTH_KINDS:
        raise ValueError(f"unknown kind {kind!r}; expected one of {SYNTH_KINDS}")
    rng = random.Random(f"{kind}/{seed}")
    H, sid = DEFAULT_HORIZON_STEPS, f"{kind}-{seed:04d}"
    times = [DEFAULT_DT * (i + 1) for i in range(H)]

    if kind == "empty_road":
        v0 = _q(rng.uniform(4.0, 8.0))
        ego = EgoState(v0, 0.0, 0.0, _history(v0))
        human = _speed_profile_trajectory([v0] * H)
        return Scenario(sid, ego, (), (), human, tuple(() for _ in range(H)))

    if kind == "lead_vehicle":
        v0 = _q(rng.uniform(5.0, 7.0))
        v_lead = _q(0.35 * v0)
        y0 = _q(2.0 + v0)
        x_lead = _q(rng.uniform(-0.3, 0.3))
        ego = EgoState(v0, 0.0, 0.0, _history(v0))
        # brake to the lead's speed within 1 s, then follow
        speeds = [max(v_lead, v0 - (v0 - v_lead) * (t - DEFAULT_DT / 2)) for t in times]
        human = _speed_profile_trajectory(speeds)
        lead_pos = [Waypoint(x_lead, _q(y0 + v_lead * t)) for t in times]
        obj = DetectedObject("o1", "car", Waypoint(x_lead, y0), _q(math.pi / 2), 4.6, 1.9)
        pred = PredictedMotion("o1", tuple(lead_pos))
        boxes = tuple((ObjectBox(p, _q(math.pi / 2), 4.6, 1.9),) for p in lead_pos)
        return Scenario(sid, ego, (obj,), (pred,), human, boxes)

    if kind == "crossing_pedestrian":
        v0 = _q(rng.uniform(5.0, 6.5))
        y_ped = _q(1.5 * v0)
        x_ped, vx_ped = 2.1, -1.4  # reaches the lane center at t = 1.5 s
        brake = 3.0
        ego = EgoState(v0, 0.0, 0.0, _history(v0))
        speeds = [max(0.0, v0 - brake * (t - DEFAULT_DT / 2)) for t in times]
        human = _speed_profile_trajectory(speeds)
        ped_pos = [Waypoint(_q(x_ped + vx_ped * t), y_ped) for t in times]
        obj = DetectedObject("p1", "pedestrian", Waypoint(_q(x_ped), y_ped), _q(-math.pi), 0.6, 0.6)
        pred = PredictedMotion("p1", tuple(ped_pos))
        boxes = tuple((ObjectBox(p, _q(-math.pi), 0.6, 0.6),) for p in ped_pos)
        return Scenario(sid, ego, (obj,), (pred,), human, boxes)

    # stationary_obstacle
    v0 = _q(rng.uniform(5.0, 7.0))
    y_obs = _q(2.0 * v0)
    x_obs = _q(rng.uniform(-0.5, 0.5))
    ego = EgoState(v0, 0.0, 0.0, _history(v0))
    # smoothstep lane shift to x = -2.0, complete by 1.4 s
    shift_end, offset = 1.4, -2.0
    lateral = []
    for t in times:
        u = min(1.0, t / shift_end)
        lateral.append(offset * (3 * u * u - 2 * u * u * u))
    human = _speed_profile_trajectory([v0] * H, lateral)
    obj = DetectedObject("b1", "barrier", Waypoint(x_obs, y_obs), _q(math.pi / 2), 2.0, 0.8)
    boxes = tuple(
        (ObjectBox(Waypoint(x_obs, y_obs), _q(math.pi / 2), 2.0, 0.8),) for _ in range(H)
    )
    return Scenario(sid, ego, (obj,), (), human, boxes)
