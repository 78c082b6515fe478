"""Scenario data model, JSON ingest, dataset splits, and synthetic fixtures.

All positions are ego-centric bird's-eye-view coordinates at the current
timestep: ego at the origin, +y forward, +x right, meters. Every scalar is
quantized to ``DEFAULT_DECIMALS`` fractional digits on ingest, as it is
decoded, so that store -> prompt -> parse round-trips are exact. Ids and
class names are JSON strings.

``Waypoint``, ``Trajectory`` and the fixed horizon (``DEFAULT_HORIZON_STEPS``
waypoints, ``DEFAULT_DT`` seconds apart) are defined in ``codec`` and
re-exported here. ``Waypoint`` and ``ObjectBox``, the records a scenario
holds many of, are ``NamedTuple``s; the other records are frozen dataclasses.

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

import contextlib
import functools
import gc
import json
import math
import random
import re
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

from .codec import (
    DEFAULT_DT,
    DEFAULT_HORIZON_STEPS,
    Trajectory,
    Waypoint,
    _waypoint,
    quantize,
    quantize_literal,
)

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


class ObjectBox(NamedTuple):
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


# --- invariants -----------------------------------------------------------
#
# One function per record kind holds that record's rules and returns a
# message for each rule it breaks. ``validate_scenario`` joins their lists;
# the load walk below calls the same functions as it builds each record, to
# learn whether it may skip ``validate_scenario``. Two checks are only
# sufficient, kept as fast paths for the walk: ``_in_bounds`` for a
# waypoint's rules (``_pairs`` makes it inline, ``_object_violations`` makes
# it first for an object's center) and ``_box``'s for a gt box's.

_HORIZON_S = DEFAULT_HORIZON_STEPS * DEFAULT_DT


def _finite(v) -> bool:
    """A number that converts to a finite float; an int past the float range does not."""
    try:
        return (type(v) is float or is_number(v)) and math.isfinite(v)
    except OverflowError:
        return False


def _in_bounds(w: Waypoint) -> bool:
    """A sufficient check that ``_waypoint_violations(w, ...)`` is empty."""
    x, y = w
    return (
        type(x) is float and type(y) is float
        and -COORD_BOUND <= x <= COORD_BOUND and -COORD_BOUND <= y <= COORD_BOUND
    )


def _waypoint_violations(w: Waypoint, where: str) -> list[str]:
    if not (_finite(w.x) and _finite(w.y)):
        return [f"{where}: coordinates must be finite"]
    if abs(w.x) > COORD_BOUND or abs(w.y) > COORD_BOUND:
        return [f"{where}: |x| <= {COORD_BOUND:g} and |y| <= {COORD_BOUND:g}"]
    return []


def _path_violations(ws, where: str) -> list[str]:
    out = []
    for i, w in enumerate(ws):
        out += _waypoint_violations(w, f"{where}[{i}]")
    return out


def _ego_violations(ego: EgoState) -> list[str]:
    """The ego scalars; its history is a path."""
    out = []
    v, a, k, t = ego.velocity, ego.acceleration, ego.heading_rate, _HORIZON_S
    velocity_ok = _finite(v) and v >= 0
    if not velocity_ok:
        out.append("ego velocity >= 0")
    if not _finite(a):
        out.append("ego acceleration finite")
    # the arc the constant-state rollout covers over the horizon stays within COORD_BOUND
    elif velocity_ok and not (v * t + 0.5 * max(a, 0.0) * t * t <= COORD_BOUND):
        out.append(
            f"ego velocity and ego acceleration: v*T + max(a, 0)*T^2/2 <= "
            f"{COORD_BOUND:g} m over T = {_HORIZON_S:g} s"
        )
    if not _finite(k):
        out.append("ego heading_rate finite")
    # the rollout's curvature, k / v, times any arc it covers stays finite
    elif velocity_ok and v > 0 and not math.isfinite(k / v * COORD_BOUND):
        out.append(f"ego heading_rate / ego velocity * {COORD_BOUND:g} m finite")
    return out


def _human_count_violations(n: int) -> list[str]:
    if n == DEFAULT_HORIZON_STEPS:
        return []
    return [f"trajectory length: expected {DEFAULT_HORIZON_STEPS} waypoints, got {n}"]


def _object_violations(o: DetectedObject, ids: set) -> list[str]:
    """``ids`` holds the ids of the objects before ``o``."""
    out = []
    if o.id in ids:
        out.append(f"object {o.id!r}: duplicate id")
    if not (_finite(o.length) and o.length > 0):
        out.append(f"object {o.id!r}: length > 0")
    if not (_finite(o.width) and o.width > 0):
        out.append(f"object {o.id!r}: width > 0")
    if not (is_number(o.heading) and -math.pi <= o.heading <= math.pi):
        out.append(f"object {o.id!r}: heading in [-pi, pi]")
    if not _in_bounds(o.center):  # the fast path
        out += _waypoint_violations(o.center, f"object {o.id!r} center")
    return out


def _prediction_violations(p: PredictedMotion, ids: set) -> list[str]:
    """``ids`` holds every object id; the future's waypoints are a path."""
    out = []
    if p.object_id not in ids:
        out.append(f"prediction references unknown object id {p.object_id!r}")
    if len(p.future) != DEFAULT_HORIZON_STEPS:
        out.append(
            f"prediction {p.object_id!r}: future length "
            f"{len(p.future)} != horizon {DEFAULT_HORIZON_STEPS}"
        )
    return out


def _gt_count_violations(n: int) -> list[str]:
    if n in (0, DEFAULT_HORIZON_STEPS):
        return []
    return [f"gt_object_boxes length: expected {DEFAULT_HORIZON_STEPS} steps, got {n}"]


def _box_violations(b: ObjectBox, where: str) -> list[str]:
    out = []
    if not (_finite(b.length) and b.length > 0 and _finite(b.width) and b.width > 0):
        out.append(f"{where}: positive dimensions")
    return out + _waypoint_violations(b.center, f"{where} center")


def validate_scenario(s: Scenario) -> list[str]:
    """Check every invariant; returns a list of violations (empty means ok)."""
    v = _ego_violations(s.ego) + _path_violations(s.ego.history, "ego history")
    v += _human_count_violations(len(s.human_trajectory))
    v += _path_violations(s.human_trajectory.waypoints, "human_trajectory")
    ids = set()
    for o in s.objects:
        v += _object_violations(o, ids)
        ids.add(o.id)
    for p in s.predictions:
        v += _prediction_violations(p, ids)
        v += _path_violations(p.future, f"prediction {p.object_id!r} future")
    v += _gt_count_violations(len(s.gt_object_boxes))
    for step, boxes in enumerate(s.gt_object_boxes):
        for j, b in enumerate(boxes):
            v += _box_violations(b, f"gt box [step {step}][{j}]")
    return v


# --- JSON ingest / export -------------------------------------------------
#
# ``load_scenarios`` decodes every float literal through ``quantize_literal``,
# once per distinct literal text in the file (``_LiteralMemo``), so the
# schema walk below takes a finite float as it is. A field's name is
# carried as its path, ("objects", 0, "center"), and spelled out only when
# the walk raises. The cyclic collector is paused while the tree is built
# and restored as the caller had it, even on error.
#
# The walk also calls the rule functions above on each record it builds
# (a gt box or an ``[x, y]`` pair that passes its fast check breaks none),
# and returns whether the scenario broke none of them; such a scenario
# skips ``validate_scenario``, and any other goes through it, which writes
# every message. An object of ASCII strings and finite floats (``_object``)
# skips only the general path's conversions. A record that misses its
# check (an int literal, a non-ASCII id, a coordinate out of bounds) takes
# the general path, which raises the schema errors, so the messages and
# their order do not depend on it; a pair that misses leaves its scenario
# to ``validate_scenario``.
#
# A ``{"scenarios": [...]}`` text is decoded one entry at a time
# (``_streamed_scenarios``); any other text, and any error, goes to the
# whole-file decode (``_decoded_entries``), which writes every message.

def is_number(v) -> bool:
    """A JSON number: an int or a float (or a subclass), and not a bool."""
    return type(v) is float or isinstance(v, (int, float)) and not isinstance(v, bool)


def _field(path: tuple) -> str:
    """("objects", 0, "center") -> "objects[0].center"."""
    name = path[0]
    for part in path[1:]:
        name += f"[{part}]" if type(part) is int else f".{part}"
    return name


def _number(raw, sid: str, *path) -> float:
    if type(raw) is float and math.isfinite(raw):
        return raw
    if not is_number(raw):
        raise ScenarioSchemaError(f"expected a number, got {type(raw).__name__}", sid, _field(path))
    try:
        return quantize(raw)  # an int, or a non-finite float for quantize to reject
    except (ValueError, OverflowError) as e:
        raise ScenarioSchemaError(f"bad number: {e}", sid, _field(path)) from None


def _pair(raw, sid: str, *path) -> Waypoint:
    if type(raw) is not list or len(raw) != 2:
        raise ScenarioSchemaError("expected an [x, y] pair", sid, _field(path))
    return Waypoint(_number(raw[0], sid, *path), _number(raw[1], sid, *path))


# a record from a list of its fields, without the NamedTuple's Python-level
# __new__ (``_waypoint`` is codec's); the caller has checked the length
_object_box = functools.partial(tuple.__new__, ObjectBox)

# a float between -_INF and _INF is finite
_INF = math.inf


def _pairs(raw, sid: str, *path) -> tuple[tuple[Waypoint, ...], bool]:
    """The waypoints, and whether each passed ``_in_bounds``' test, made inline."""
    if type(raw) is not list:
        raise ScenarioSchemaError("expected a list of [x, y] pairs", sid, _field(path))
    out = []
    valid = True
    for i, p in enumerate(raw):
        if type(p) is list and len(p) == 2:
            x, y = p
            if (
                type(x) is float and type(y) is float
                and -COORD_BOUND <= x <= COORD_BOUND and -COORD_BOUND <= y <= COORD_BOUND
            ):
                out.append(_waypoint(p))
                continue
        valid = False
        out.append(_pair(p, sid, *path, i))
    return tuple(out), valid


def _require(d, key: str, sid: str, *where):
    """``d[key]``; ``where`` is the path of ``d``, which names the field if it is missing."""
    if not isinstance(d, dict) or key not in d:
        raise ScenarioSchemaError("missing required key", sid, _field((*where, key)))
    return d[key]


def _number_at(d, key: str, sid: str, *where) -> float:
    return _number(_require(d, key, sid, *where), sid, *where, key)


def _string_at(d, key: str, sid: str, *where) -> str:
    raw = _require(d, key, sid, *where)
    if type(raw) is not str:
        raise ScenarioSchemaError(
            f"expected a string, got {type(raw).__name__}", sid, _field((*where, key))
        )
    if not raw.isascii():
        _check_utf8(raw, sid, _field((*where, key)))
    return raw


def _check_utf8(raw: str, sid: str, field_name: str) -> None:
    """Reject a string holding a lone surrogate (a ``"\\ud800"`` escape).

    No UTF-8 output can hold one, so every writer would fail part-way.
    """
    try:
        raw.encode("utf-8")
    except UnicodeEncodeError:
        raise ScenarioSchemaError("lone surrogate; UTF-8 cannot encode it", sid, field_name) from None


def _list_at(raw: dict, key: str, sid: str) -> list:
    """An optional top-level list field; absent means empty."""
    value = raw.get(key, [])
    if not isinstance(value, list):
        raise ScenarioSchemaError(f"expected a list, got {type(value).__name__}", sid, key)
    return value


def _box(b) -> ObjectBox | None:
    """A ``gt_object_boxes`` box that needs no conversion, else None."""
    if type(b) is not dict or len(b) != 4:
        return None
    center, heading = b.get("center"), b.get("heading")
    length, width = b.get("length"), b.get("width")
    if (  # a sufficient check that ``_box_violations`` is empty, the fast path
        type(center) is list and len(center) == 2
        and type(heading) is float and -_INF < heading < _INF
        and type(length) is float and 0.0 < length < _INF
        and type(width) is float and 0.0 < width < _INF
        and _in_bounds(center)
    ):
        return _object_box((_waypoint(center), heading, length, width))
    return None


def _object(o) -> DetectedObject | None:
    """An ``objects`` record that needs no conversion, else None."""
    if type(o) is not dict:
        return None
    oid, class_name, center = o.get("id"), o.get("class"), o.get("center")
    heading, length, width = o.get("heading"), o.get("length"), o.get("width")
    if (  # ASCII strings and finite floats (``_in_bounds`` implies them for the center),
        # which the general path would return as they are
        type(oid) is str and oid.isascii()
        and type(class_name) is str and class_name.isascii()
        and type(center) is list and len(center) == 2
        and type(heading) is float and -_INF < heading < _INF
        and type(length) is float and -_INF < length < _INF
        and type(width) is float and -_INF < width < _INF
        and _in_bounds(center)
    ):
        return DetectedObject(oid, class_name, _waypoint(center), heading, length, width)
    return None


def _scenario_from_dict(raw: dict) -> tuple[Scenario, bool]:
    """The scenario, and True only if ``validate_scenario`` would find nothing in it."""
    sid = raw.get("id")
    if not isinstance(sid, str) or not sid:
        # a number was rounded as it was decoded, so only a string id is echoed
        shown = sid if isinstance(sid, str) else None
        raise ScenarioSchemaError("scenario id must be a non-empty string", shown, "id")
    if not sid.isascii():
        _check_utf8(sid, sid, "id")

    ego_raw = _require(raw, "ego", sid)
    velocity = _number_at(ego_raw, "velocity", sid, "ego")
    acceleration = _number_at(ego_raw, "acceleration", sid, "ego")
    heading_rate = _number_at(ego_raw, "heading_rate", sid, "ego")
    history, valid = _pairs(ego_raw.get("history", []), sid, "ego", "history")
    ego = EgoState(velocity, acceleration, heading_rate, history)
    valid = valid and not _ego_violations(ego)

    objects = []
    ids = set()
    for i, o in enumerate(_list_at(raw, "objects", sid)):
        obj = _object(o)
        if obj is None:
            where = ("objects", i)
            obj = DetectedObject(
                id=_string_at(o, "id", sid, *where),
                class_name=_string_at(o, "class", sid, *where),
                center=_pair(_require(o, "center", sid, *where), sid, *where, "center"),
                heading=_number_at(o, "heading", sid, *where),
                length=_number_at(o, "length", sid, *where),
                width=_number_at(o, "width", sid, *where),
            )
        valid = valid and not _object_violations(obj, ids)
        ids.add(obj.id)
        objects.append(obj)

    predictions = []
    for i, p in enumerate(_list_at(raw, "predictions", sid)):
        where = ("predictions", i)
        object_id = _string_at(p, "object_id", sid, *where)
        future, future_valid = _pairs(_require(p, "future", sid, *where), sid, *where, "future")
        pred = PredictedMotion(object_id, future)
        valid = valid and future_valid and not _prediction_violations(pred, ids)
        predictions.append(pred)

    human, human_valid = _pairs(_require(raw, "human_trajectory", sid), sid, "human_trajectory")
    valid = valid and human_valid and not _human_count_violations(len(human))

    gt_steps = []
    for step, boxes in enumerate(_list_at(raw, "gt_object_boxes", sid)):
        if not isinstance(boxes, list):
            raise ScenarioSchemaError("expected a list of boxes", sid, f"gt_object_boxes[{step}]")
        row = []
        for j, b in enumerate(boxes):
            box = _box(b)
            if box is None:
                where = ("gt_object_boxes", step, j)
                box = ObjectBox(
                    _pair(_require(b, "center", sid, *where), sid, *where, "center"),
                    _number_at(b, "heading", sid, *where),
                    _number_at(b, "length", sid, *where),
                    _number_at(b, "width", sid, *where),
                )
                valid = valid and not _box_violations(box, f"gt box [step {step}][{j}]")
            row.append(box)
        gt_steps.append(tuple(row))
    valid = valid and not _gt_count_violations(len(gt_steps))

    objects, predictions, gt = tuple(objects), tuple(predictions), tuple(gt_steps)
    return Scenario(sid, ego, objects, predictions, Trajectory(human), gt), valid


class _LiteralMemo(dict):
    """``quantize_literal`` of each float literal text, decoded on first sight.

    Its ``__getitem__`` is ``json.loads``' ``parse_float``: a repeated
    literal is a dict hit, not a Python call (``functools.cache`` makes a
    generic call per hit: loads about 4% slower on CPython 3.11).
    ``quantize_literal`` is a pure function of the text, so the memo
    returns what the call would.
    """

    __slots__ = ()

    def __missing__(self, text: str) -> float:
        v = self[text] = quantize_literal(text)
        return v


# The decoded JSON, the records built from it and whatever an offline
# command derives from them hold no reference cycles, yet allocating them
# triggers cyclic collections that free nothing and rescan the growing heap.
# So a load, and in ``cli.main`` each offline command, runs with the
# collector paused. Pauses take turns under one reentrant lock: two threads
# cannot interleave their check-then-act and leave it off, and a load inside
# a paused command neither blocks nor switches it back on early.
_GC_PAUSE = threading.RLock()


@contextlib.contextmanager
def collector_paused():
    """Run the body with the cyclic collector off; put it back as it was, error or not."""
    with _GC_PAUSE:
        enabled = gc.isenabled()
        gc.disable()
        try:
            yield
        finally:
            if enabled:
                gc.enable()


def load_scenarios(path: str | Path) -> list[Scenario]:
    """Load and validate all scenarios from a JSON file, in file order.

    Raises FileNotFoundError for a missing file, ScenarioSchemaError for a
    file that is not UTF-8, malformed JSON (nesting too deep or an integer
    literal too long to decode included) or any schema/invariant violation
    (the error names the offending scenario id and field). The schema walk
    calls the per-record rule functions that ``validate_scenario`` joins;
    ``validate_scenario`` runs only for a scenario the walk could not clear,
    and writes the violation message. Malformed JSON anywhere in the file
    is raised before any schema error; a schema error in a scenario is
    raised before a duplicate scenario id, and that before an invariant
    violation.

    A file of the one key ``scenarios`` (any JSON layout, the key spelled
    without escapes) is decoded one entry at a time, so a load holds the
    text, the records and one entry's tree. Any other file, and any file
    with an error, is decoded whole and walked again, and that walk
    writes the error. The cyclic garbage collector is off during the
    decode and the walk (``collector_paused``) and comes back as the
    caller had it, error or not.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise ScenarioSchemaError(f"not UTF-8 text: {e}") from None
    with collector_paused():
        memo = _LiteralMemo()  # both walks share it, so no literal is decoded twice
        scenarios = _streamed_scenarios(text, memo)
        if scenarios is not None:
            return scenarios
        entries = _decoded_entries(text, memo)
        del text  # the walk needs only the tree
        return _scenarios_from_entries(entries)


# JSON's whitespace: ``str.isspace`` and ``str.strip`` take more than json does
_HEAD = re.compile(r'[ \t\n\r]*\{[ \t\n\r]*"scenarios"[ \t\n\r]*:[ \t\n\r]*\[[ \t\n\r]*')
_COMMA = re.compile(r"[ \t\n\r]*,[ \t\n\r]*")
_END = re.compile(r"[ \t\n\r]*\][ \t\n\r]*\}[ \t\n\r]*\Z")


def _streamed_scenarios(text: str, memo: _LiteralMemo) -> list[Scenario] | None:
    """The scenarios of a ``{"scenarios": [...]}`` text, decoded one entry at a time.

    None for any other text, and at the first JSON error, entry that is not
    an object, schema error, duplicate id or violation, so that the
    whole-file walk writes the message that its decode and its order give.
    """
    head = _HEAD.match(text)
    if head is None:
        return None
    decode = json.JSONDecoder(parse_float=memo.__getitem__).raw_decode
    i = head.end()
    out = []
    seen = set()
    if _END.match(text, i):  # no entries
        return out
    try:
        while True:
            raw, i = decode(text, i)
            if type(raw) is not dict:
                return None
            s, valid = _scenario_from_dict(raw)
            del raw  # before the next entry is decoded
            if s.id in seen or not valid and validate_scenario(s):
                return None
            seen.add(s.id)
            out.append(s)
            comma = _COMMA.match(text, i)
            if comma is None:
                break
            i = comma.end()
    except (ValueError, RecursionError):  # ScenarioSchemaError and JSONDecodeError included
        return None
    return out if _END.match(text, i) else None


def _decoded_entries(text: str, memo: _LiteralMemo) -> list:
    """The decoded top-level ``scenarios`` list."""
    try:
        doc = json.loads(text, parse_float=memo.__getitem__)
    except (json.JSONDecodeError, RecursionError) as e:
        raise ScenarioSchemaError(f"malformed JSON: {e}") from None
    except ValueError:  # json's int() refuses a literal past sys.get_int_max_str_digits()
        raise ScenarioSchemaError(
            "malformed JSON: an integer literal has too many digits to decode"
        ) from None
    if not isinstance(doc, dict) or not isinstance(doc.get("scenarios"), list):
        raise ScenarioSchemaError('top level must be {"scenarios": [...]}')
    return doc["scenarios"]


def _scenarios_from_entries(entries: list) -> list[Scenario]:
    """The scenarios, in file order; empties ``entries``, freeing each entry once built."""
    entries.reverse()  # popped from the end, so in file order
    out = []
    seen = set()
    while entries:
        raw = entries.pop()
        if not isinstance(raw, dict):
            raise ScenarioSchemaError("each scenario must be an object")
        s, valid = _scenario_from_dict(raw)
        del raw
        if s.id in seen:
            raise ScenarioSchemaError("duplicate scenario id", s.id, "id")
        seen.add(s.id)
        if not valid:
            violations = validate_scenario(s)
            if violations:
                raise ScenarioSchemaError("; ".join(violations), s.id)
        out.append(s)
    return out


# The writer leaves every leaf to ``json``: each scenario is one line, its
# ``_entry`` in json's compact layout. A waypoint and any other tuple pass
# through as they are, since json writes a tuple as an array. ``_entry``
# builds a fresh tree over immutable records, so the one encoder skips
# json's cycle check, which would add and drop a marker for each of an
# entry's ~70 containers; a cyclic leaf put into a record still raises
# (``RecursionError``), before the file is opened. A save holds one encoded
# copy of the file: each entry's text is encoded to UTF-8 and dropped, and
# the file is written from those pieces, never joined.
_encode_entry = json.JSONEncoder(
    separators=(",", ":"), ensure_ascii=False, check_circular=False
).encode


def _entry(s: Scenario) -> dict:
    """One entry of the top-level list, in the schema's key order."""
    e = s.ego
    return {
        "id": s.id,
        "ego": {"velocity": e.velocity, "acceleration": e.acceleration,
                "heading_rate": e.heading_rate, "history": e.history},
        "objects": [{"id": o.id, "class": o.class_name, "center": o.center, "heading": o.heading,
                     "length": o.length, "width": o.width} for o in s.objects],
        "predictions": [{"object_id": p.object_id, "future": p.future} for p in s.predictions],
        "human_trajectory": s.human_trajectory.waypoints,
        "gt_object_boxes": [
            [{"center": b.center, "heading": b.heading, "length": b.length, "width": b.width}
             for b in boxes]
            for boxes in s.gt_object_boxes
        ],
    }


def save_scenarios(scenarios: list[Scenario], path: str | Path) -> None:
    """Write scenarios in the documented JSON schema (round-trips exactly).

    One scenario per line: the bytes are ``{"scenarios":[``, a newline, the
    entries joined by a comma and a newline, then a newline, ``]}`` and one
    newline, in UTF-8. Each entry has the bytes of ``json.dumps(entry,
    separators=(",", ":"), ensure_ascii=False)``, written by one encoder
    built at import without json's cycle check, and holds ``id``, ``ego``
    (``velocity``, ``acceleration``, ``heading_rate``, ``history``),
    ``objects`` (``id``, ``class``, ``center``, ``heading``, ``length``,
    ``width``), ``predictions`` (``object_id``, ``future``),
    ``human_trajectory`` and ``gt_object_boxes`` (per step, boxes of
    ``center``, ``heading``, ``length``, ``width``), each point an
    ``[x, y]`` list. Every entry is encoded before the file is opened, so
    a leaf that cannot be written raises and leaves an existing file as it
    was; a leaf that holds itself raises ``RecursionError`` there. A save
    holds one encoded copy of the file: the UTF-8 bytes of each entry, which
    are written in turn with their separators. ``load_scenarios`` reads any
    JSON layout.
    """
    pieces = []
    for s in scenarios:
        pieces += (b",\n", _encode_entry(_entry(s)).encode("utf-8"))
    pieces[:1] = (b'{"scenarios":[\n',)  # the header takes the first separator's place
    pieces.append(b"\n]}\n")
    with Path(path).open("wb") as f:
        f.writelines(pieces)


# --- dataset splits -------------------------------------------------------

def split_size(n: int, fraction: float) -> int:
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    # round before ceil so 0.01 * 700 == 7, not ceil(7.000000000000001); rounding can
    # reach 0 (5e-10 * 1), yet a positive fraction of a nonempty set selects one
    return min(n, max(1, math.ceil(round(fraction * n, 9))))


def sample_split(scenarios: list[Scenario], fraction: float, seed: int) -> list[Scenario]:
    """Seeded prefix sample of ceil(fraction * N) scenarios, at least one if N >= 1.

    One seeded permutation drives every fraction, so for a fixed seed the
    1% sample is a prefix of the 10% sample, which is a prefix of the 50%
    sample; few-shot subsets nest.
    """
    k = split_size(len(scenarios), fraction)
    perm = list(scenarios)
    random.Random(seed).shuffle(perm)
    return perm[:k]


# --- synthetic fixtures ---------------------------------------------------
#
# Every record is built with ``tuple.__new__`` (``_waypoint``,
# ``_object_box``), as the loader builds them, and the two object headings
# are rounded once.

_HEADING_ALONG = quantize(math.pi / 2)  # facing +y, along the lane
_HEADING_ACROSS = quantize(-math.pi)  # facing -x, across the lane


def _speed_profile_trajectory(speeds, lateral=None) -> Trajectory:
    """Integrate per-interval speeds into waypoints; optional lateral offsets."""
    ys = []
    s = 0.0
    for v in speeds:
        s += v * DEFAULT_DT
        ys.append(s)
    xs = list(lateral) if lateral is not None else [0.0] * len(ys)
    return Trajectory(tuple(_waypoint((quantize(x), quantize(y))) for x, y in zip(xs, ys)))


def _history(v0: float) -> tuple[Waypoint, ...]:
    # four steps of constant-speed straight history, most recent last
    return tuple(_waypoint((0.0, quantize(-v0 * DEFAULT_DT * k))) for k in range(4, 0, -1))


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
        v0 = quantize(rng.uniform(4.0, 8.0))
        ego = EgoState(v0, 0.0, 0.0, _history(v0))
        human = _speed_profile_trajectory([v0] * H)
        return Scenario(sid, ego, (), (), human, tuple(() for _ in range(H)))

    if kind == "lead_vehicle":
        v0 = quantize(rng.uniform(5.0, 7.0))
        v_lead = quantize(0.35 * v0)
        y0 = quantize(2.0 + v0)
        x_lead = quantize(rng.uniform(-0.3, 0.3))
        ego = EgoState(v0, 0.0, 0.0, _history(v0))
        # brake to the lead's speed within 1 s, then follow
        speeds = [max(v_lead, v0 - (v0 - v_lead) * (t - DEFAULT_DT / 2)) for t in times]
        human = _speed_profile_trajectory(speeds)
        lead_pos = [_waypoint((x_lead, quantize(y0 + v_lead * t))) for t in times]
        obj = DetectedObject("o1", "car", _waypoint((x_lead, y0)), _HEADING_ALONG, 4.6, 1.9)
        pred = PredictedMotion("o1", tuple(lead_pos))
        boxes = tuple((_object_box((p, _HEADING_ALONG, 4.6, 1.9)),) for p in lead_pos)
        return Scenario(sid, ego, (obj,), (pred,), human, boxes)

    if kind == "crossing_pedestrian":
        v0 = quantize(rng.uniform(5.0, 6.5))
        y_ped = quantize(1.5 * v0)
        x_ped, vx_ped = 2.1, -1.4  # reaches the lane center at t = 1.5 s
        brake = 3.0
        ego = EgoState(v0, 0.0, 0.0, _history(v0))
        speeds = [max(0.0, v0 - brake * (t - DEFAULT_DT / 2)) for t in times]
        human = _speed_profile_trajectory(speeds)
        ped_pos = [_waypoint((quantize(x_ped + vx_ped * t), y_ped)) for t in times]
        obj = DetectedObject(
            "p1", "pedestrian", _waypoint((quantize(x_ped), y_ped)), _HEADING_ACROSS, 0.6, 0.6
        )
        pred = PredictedMotion("p1", tuple(ped_pos))
        boxes = tuple((_object_box((p, _HEADING_ACROSS, 0.6, 0.6)),) for p in ped_pos)
        return Scenario(sid, ego, (obj,), (pred,), human, boxes)

    # stationary_obstacle
    v0 = quantize(rng.uniform(5.0, 7.0))
    y_obs = quantize(2.0 * v0)
    x_obs = quantize(rng.uniform(-0.5, 0.5))
    ego = EgoState(v0, 0.0, 0.0, _history(v0))
    # smoothstep lane shift to x = -2.0, complete by 1.4 s
    shift_end, offset = 1.4, -2.0
    lateral = []
    for t in times:
        u = min(1.0, t / shift_end)
        lateral.append(offset * (3 * u * u - 2 * u * u * u))
    human = _speed_profile_trajectory([v0] * H, lateral)
    center = _waypoint((x_obs, y_obs))
    obj = DetectedObject("b1", "barrier", center, _HEADING_ALONG, 2.0, 0.8)
    boxes = tuple((_object_box((center, _HEADING_ALONG, 2.0, 0.8)),) for _ in range(H))
    return Scenario(sid, ego, (obj,), (), human, boxes)
