"""Differential tests for the scenario file writer and reader.

``save_scenarios`` must write one scenario per line, each exactly the
bytes of ``json.dumps(entry, separators=(",", ":"), ensure_ascii=False)``,
and ``load_scenarios`` must read that layout and the older indent-1 one to
the same scenarios. ``load_scenarios`` must also return what
the walk it replaced returned, or raise the same message. That walk
(json's own floats, ``quantize`` on every number, every field name built
up front) is kept below as the oracle, with the old ``validate_scenario``.
``validate_scenario`` itself must write the messages that its flat form,
one predicate per rule in one function, wrote for the same records.
"""

import dataclasses
import json
import math
import random
import re
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import make_scenarios, scenario_to_dict
from lmplan import (
    DetectedObject,
    EgoState,
    ObjectBox,
    PredictedMotion,
    Scenario,
    ScenarioSchemaError,
    Trajectory,
    Waypoint,
    load_scenarios,
    quantize,
    save_scenarios,
    synth_scenario,
    validate_scenario,
)
from lmplan.codec import DEFAULT_DT, DEFAULT_HORIZON_STEPS, quantize_literal
from lmplan import scenario as scenario_module
from lmplan.scenario import COORD_BOUND, SYNTH_KINDS, _scenario_from_dict

# --- writer ---------------------------------------------------------------


class FloatSub(float):
    def __repr__(self):
        return "not-json"


class StrSub(str):
    pass


numbers = st.one_of(
    st.floats(),  # NaN, +-inf, +-0.0 and subnormals included
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 1e300, 1e16, 0.1]),
    st.integers(),
    st.just(10**400),
    st.booleans(),
    st.floats().map(FloatSub),
)
strings = st.one_of(
    st.text(),  # non-ASCII, quotes, backslashes and control characters included
    st.sampled_from(['"', "\\", "\x00\x1f\x7f", "é \U0001f600"]),
    st.text().map(StrSub),
)
coordinates = st.one_of(st.floats(allow_nan=False, allow_infinity=False), numbers, strings)
waypoints = st.builds(Waypoint, coordinates, coordinates)
paths = st.lists(waypoints, max_size=3).map(tuple)
boxes = st.builds(ObjectBox, waypoints, numbers, numbers, numbers)
generated_scenarios = st.builds(
    Scenario,
    strings,
    st.builds(EgoState, numbers, numbers, numbers, paths),
    st.lists(
        st.builds(DetectedObject, strings, strings, waypoints, numbers, numbers, numbers),
        max_size=2,
    ).map(tuple),
    st.lists(st.builds(PredictedMotion, strings, paths), max_size=2).map(tuple),
    paths.map(Trajectory),
    st.lists(st.lists(boxes, max_size=2).map(tuple), max_size=3).map(tuple),  # empty steps too
)


def one_scenario_per_line(scenarios) -> bytes:
    """The file ``save_scenarios`` writes, built from json and ``scenario_to_dict``."""
    entries = [
        json.dumps(scenario_to_dict(s), separators=(",", ":"), ensure_ascii=False)
        for s in scenarios
    ]
    return ('{"scenarios":[\n' + ",\n".join(entries) + "\n]}\n").encode("utf-8")


@given(st.lists(generated_scenarios, max_size=2))
@settings(max_examples=400, deadline=None)
def test_scenario_writer_matches_json_one_compact_scenario_per_line(tmp_path_factory, scenarios):
    path = tmp_path_factory.getbasetemp() / "generated-scenarios.json"
    save_scenarios(scenarios, path)
    assert path.read_bytes() == one_scenario_per_line(scenarios)


def _list_holding_itself() -> list:
    leaf = []
    leaf.append(leaf)
    return leaf


@pytest.mark.parametrize(
    "field, leaf, error",
    [
        ("velocity", object(), TypeError),
        ("id", "\ud800", UnicodeEncodeError),  # a lone surrogate has no UTF-8 bytes
        ("class", "car \udfff", UnicodeEncodeError),
        # the writer's encoder has no cycle check; its depth limit stops the walk
        ("velocity", _list_holding_itself(), RecursionError),
    ],
    ids=["object", "surrogate-id", "surrogate-class", "cyclic"],
)
def test_unwritable_leaf_raises_and_keeps_the_file(tmp_path, field, leaf, error):
    path = tmp_path / "s.json"
    save_scenarios(make_scenarios(2), path)
    before = path.read_bytes()
    s = synth_scenario("lead_vehicle", 0)
    if field == "velocity":
        bad = dataclasses.replace(s, ego=EgoState(leaf, 0.0, 0.0))
    elif field == "id":
        bad = dataclasses.replace(s, id=leaf)
    else:
        bad = dataclasses.replace(s, objects=(dataclasses.replace(s.objects[0], class_name=leaf),))
    with pytest.raises(error):
        save_scenarios(make_scenarios(2) + [bad], path)
    assert path.read_bytes() == before


def test_saved_file_is_one_compact_scenario_per_line(tmp_path):
    scenarios = make_scenarios(24) + [
        Scenario("é \"quoted\" \\ \x01", EgoState(1.0, 0.0, 0.0), (), (), Trajectory(()))
    ]
    path = tmp_path / "s.json"
    save_scenarios(scenarios, path)
    assert path.read_bytes() == one_scenario_per_line(scenarios)


def test_an_indent_1_file_loads_to_the_same_scenarios(tmp_path):
    # the layout files had before the writer went to one compact scenario per line
    scenarios = make_scenarios(24)
    scenarios.append(dataclasses.replace(scenarios.pop(), id="é \"quoted\" \\ \x01"))
    new, old = tmp_path / "new.json", tmp_path / "old.json"
    save_scenarios(scenarios, new)
    doc = {"scenarios": [scenario_to_dict(s) for s in scenarios]}
    old.write_text(json.dumps(doc, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
    assert load_scenarios(old) == load_scenarios(new) == scenarios


def test_a_file_of_no_scenarios_loads_back_empty(tmp_path):
    path = tmp_path / "s.json"
    save_scenarios([], path)
    assert path.read_bytes() == b'{"scenarios":[\n\n]}\n'
    assert load_scenarios(path) == []


def test_save_load_save_is_byte_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    save_scenarios(make_scenarios(40, seed0=100), a)
    save_scenarios(load_scenarios(a), b)
    assert a.read_bytes() == b.read_bytes()


# --- validate_scenario on library-built records ---------------------------
#
# The messages, in order, against ``validate_scenario`` as it was written
# before its rules moved into one function per record kind: each rule once
# as a message, with one predicate per rule. Records built in Python can hold
# what no file can: bools, ``10**400``, NaN, strings as numbers, float
# subclasses, empty gt steps.

_T = DEFAULT_HORIZON_STEPS * DEFAULT_DT


def flat_is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def flat_finite(v):
    try:
        return flat_is_number(v) and math.isfinite(v)
    except OverflowError:
        return False


def flat_in_bounds(w):
    x, y = w
    return (
        type(x) is float and type(y) is float
        and -COORD_BOUND <= x <= COORD_BOUND and -COORD_BOUND <= y <= COORD_BOUND
    )


def flat_speed_ok(v):
    return flat_finite(v) and v >= 0


def flat_rollout_in_bounds(velocity, acceleration):
    return velocity * _T + 0.5 * max(acceleration, 0.0) * _T * _T <= COORD_BOUND


def flat_positive(v):
    return flat_finite(v) and v > 0


def flat_heading_ok(h):
    return flat_is_number(h) and -math.pi <= h <= math.pi


def flat_waypoint_violations(w, where):
    out = []
    if not (flat_finite(w.x) and flat_finite(w.y)):
        out.append(f"{where}: coordinates must be finite")
    else:
        if abs(w.x) > COORD_BOUND or abs(w.y) > COORD_BOUND:
            out.append(f"{where}: |x| <= {COORD_BOUND:g} and |y| <= {COORD_BOUND:g}")
    return out


def flat_validate(s):
    v = []
    velocity_ok = flat_speed_ok(s.ego.velocity)
    if not velocity_ok:
        v.append("ego velocity >= 0")
    if not flat_finite(s.ego.acceleration):
        v.append("ego acceleration finite")
    elif velocity_ok and not flat_rollout_in_bounds(s.ego.velocity, s.ego.acceleration):
        v.append(
            f"ego velocity and ego acceleration: v*T + max(a, 0)*T^2/2 <= "
            f"{COORD_BOUND:g} m over T = {_T:g} s"
        )
    if not flat_finite(s.ego.heading_rate):
        v.append("ego heading_rate finite")
    elif velocity_ok and s.ego.velocity > 0:
        # the one rule added since: the rollout's curvature times the arc stays finite
        if not math.isfinite(s.ego.heading_rate / s.ego.velocity * COORD_BOUND):
            v.append(f"ego heading_rate / ego velocity * {COORD_BOUND:g} m finite")
    for i, w in enumerate(s.ego.history):
        if not flat_in_bounds(w):
            v.extend(flat_waypoint_violations(w, f"ego history[{i}]"))

    if len(s.human_trajectory) != DEFAULT_HORIZON_STEPS:
        v.append(
            f"trajectory length: expected {DEFAULT_HORIZON_STEPS} waypoints, "
            f"got {len(s.human_trajectory)}"
        )
    for i, w in enumerate(s.human_trajectory.waypoints):
        if not flat_in_bounds(w):
            v.extend(flat_waypoint_violations(w, f"human_trajectory[{i}]"))

    ids = set()
    for o in s.objects:
        if o.id in ids:
            v.append(f"object {o.id!r}: duplicate id")
        ids.add(o.id)
        if not flat_positive(o.length):
            v.append(f"object {o.id!r}: length > 0")
        if not flat_positive(o.width):
            v.append(f"object {o.id!r}: width > 0")
        if not flat_heading_ok(o.heading):
            v.append(f"object {o.id!r}: heading in [-pi, pi]")
        if not flat_in_bounds(o.center):
            v.extend(flat_waypoint_violations(o.center, f"object {o.id!r} center"))

    for p in s.predictions:
        if p.object_id not in ids:
            v.append(f"prediction references unknown object id {p.object_id!r}")
        if len(p.future) != DEFAULT_HORIZON_STEPS:
            v.append(
                f"prediction {p.object_id!r}: future length "
                f"{len(p.future)} != horizon {DEFAULT_HORIZON_STEPS}"
            )
        for i, w in enumerate(p.future):
            if not flat_in_bounds(w):
                v.extend(flat_waypoint_violations(w, f"prediction {p.object_id!r} future[{i}]"))

    if s.gt_object_boxes and len(s.gt_object_boxes) != DEFAULT_HORIZON_STEPS:
        v.append(
            f"gt_object_boxes length: expected {DEFAULT_HORIZON_STEPS} steps, "
            f"got {len(s.gt_object_boxes)}"
        )
    for step, boxes in enumerate(s.gt_object_boxes):
        for j, b in enumerate(boxes):
            if not (flat_positive(b.length) and flat_positive(b.width)):
                v.append(f"gt box [step {step}][{j}]: positive dimensions")
            if not flat_in_bounds(b.center):
                v.extend(flat_waypoint_violations(b.center, f"gt box [step {step}][{j}] center"))

    return v


def _shared_ids(s):
    """``s`` with its predictions pointing at its objects where it has any, so both branches run."""
    ids = [o.id for o in s.objects]
    if not ids:
        return s
    predictions = tuple(
        dataclasses.replace(p, object_id=ids[i % len(ids)]) if i % 2 else p
        for i, p in enumerate(s.predictions)
    )
    return dataclasses.replace(s, predictions=predictions)


@given(generated_scenarios.map(_shared_ids))
@settings(max_examples=500, deadline=None)
def test_validate_scenario_matches_the_flat_rules_on_built_records(s):
    assert validate_scenario(s) == flat_validate(s)


# --- reader: the oracle ---------------------------------------------------


def old_finite(v) -> bool:
    return isinstance(v, (int, float)) and math.isfinite(v)


def old_waypoint_violations(w, where):
    out = []
    if not (old_finite(w.x) and old_finite(w.y)):
        out.append(f"{where}: coordinates must be finite")
    else:
        if abs(w.x) > COORD_BOUND or abs(w.y) > COORD_BOUND:
            out.append(f"{where}: |x| <= {COORD_BOUND:g} and |y| <= {COORD_BOUND:g}")
    return out


def old_validate(s):
    v = []
    if not old_finite(s.ego.velocity) or s.ego.velocity < 0:
        v.append("ego velocity >= 0")
    if not old_finite(s.ego.acceleration):
        v.append("ego acceleration finite")
    elif old_finite(s.ego.velocity) and s.ego.velocity >= 0:
        # the one rule added since: the rollout arc over the horizon stays in bounds
        t = DEFAULT_HORIZON_STEPS * DEFAULT_DT
        if s.ego.velocity * t + 0.5 * max(s.ego.acceleration, 0.0) * t * t > COORD_BOUND:
            v.append(
                f"ego velocity and ego acceleration: v*T + max(a, 0)*T^2/2 <= "
                f"{COORD_BOUND:g} m over T = {t:g} s"
            )
    if not old_finite(s.ego.heading_rate):
        v.append("ego heading_rate finite")
    for i, w in enumerate(s.ego.history):
        v.extend(old_waypoint_violations(w, f"ego history[{i}]"))
    if len(s.human_trajectory) != DEFAULT_HORIZON_STEPS:
        v.append(
            f"trajectory length: expected {DEFAULT_HORIZON_STEPS} waypoints, "
            f"got {len(s.human_trajectory)}"
        )
    for i, w in enumerate(s.human_trajectory.waypoints):
        v.extend(old_waypoint_violations(w, f"human_trajectory[{i}]"))
    ids = set()
    for o in s.objects:
        if o.id in ids:
            v.append(f"object {o.id!r}: duplicate id")
        ids.add(o.id)
        if not (old_finite(o.length) and o.length > 0):
            v.append(f"object {o.id!r}: length > 0")
        if not (old_finite(o.width) and o.width > 0):
            v.append(f"object {o.id!r}: width > 0")
        if not old_finite(o.heading) or not (-math.pi <= o.heading <= math.pi):
            v.append(f"object {o.id!r}: heading in [-pi, pi]")
        v.extend(old_waypoint_violations(o.center, f"object {o.id!r} center"))
    for p in s.predictions:
        if p.object_id not in ids:
            v.append(f"prediction references unknown object id {p.object_id!r}")
        if len(p.future) != DEFAULT_HORIZON_STEPS:
            v.append(
                f"prediction {p.object_id!r}: future length "
                f"{len(p.future)} != horizon {DEFAULT_HORIZON_STEPS}"
            )
        for i, w in enumerate(p.future):
            v.extend(old_waypoint_violations(w, f"prediction {p.object_id!r} future[{i}]"))
    if s.gt_object_boxes and len(s.gt_object_boxes) != DEFAULT_HORIZON_STEPS:
        v.append(
            f"gt_object_boxes length: expected {DEFAULT_HORIZON_STEPS} steps, "
            f"got {len(s.gt_object_boxes)}"
        )
    for step, boxes in enumerate(s.gt_object_boxes):
        for j, b in enumerate(boxes):
            if not (old_finite(b.length) and b.length > 0 and old_finite(b.width) and b.width > 0):
                v.append(f"gt box [step {step}][{j}]: positive dimensions")
            v.extend(old_waypoint_violations(b.center, f"gt box [step {step}][{j}] center"))
    return v


def old_number(raw, sid, field_name):
    if type(raw) not in (int, float):
        raise ScenarioSchemaError(f"expected a number, got {type(raw).__name__}", sid, field_name)
    try:
        return quantize(raw)
    except (ValueError, OverflowError) as e:
        raise ScenarioSchemaError(f"bad number: {e}", sid, field_name) from None


def old_pair(raw, sid, field_name):
    if not isinstance(raw, (list, tuple)) or len(raw) != 2:
        raise ScenarioSchemaError("expected an [x, y] pair", sid, field_name)
    return Waypoint(old_number(raw[0], sid, field_name), old_number(raw[1], sid, field_name))


def old_pairs(raw, sid, field_name):
    if not isinstance(raw, list):
        raise ScenarioSchemaError("expected a list of [x, y] pairs", sid, field_name)
    return tuple(old_pair(p, sid, f"{field_name}[{i}]") for i, p in enumerate(raw))


def old_require(d, key, sid, where=None):
    """The one intended change: a missing key is named by its path, ``objects[0].id``."""
    if not isinstance(d, dict) or key not in d:
        raise ScenarioSchemaError("missing required key", sid, f"{where}.{key}" if where else key)
    return d[key]


def old_number_at(d, key, sid, where):
    return old_number(old_require(d, key, sid, where), sid, f"{where}.{key}")


def old_list_at(raw, key, sid):
    value = raw.get(key, [])
    if not isinstance(value, list):
        raise ScenarioSchemaError(f"expected a list, got {type(value).__name__}", sid, key)
    return value


def old_scenario_from_dict(raw):
    sid = raw.get("id")
    if not isinstance(sid, str) or not sid:
        raise ScenarioSchemaError("scenario id must be a non-empty string", str(sid), "id")
    ego_raw = old_require(raw, "ego", sid)
    ego = EgoState(
        velocity=old_number_at(ego_raw, "velocity", sid, "ego"),
        acceleration=old_number_at(ego_raw, "acceleration", sid, "ego"),
        heading_rate=old_number_at(ego_raw, "heading_rate", sid, "ego"),
        history=old_pairs(ego_raw.get("history", []), sid, "ego.history"),
    )
    objects = []
    for i, o in enumerate(old_list_at(raw, "objects", sid)):
        where = f"objects[{i}]"
        objects.append(
            DetectedObject(
                id=str(old_require(o, "id", sid, where)),
                class_name=str(old_require(o, "class", sid, where)),
                center=old_pair(old_require(o, "center", sid, where), sid, f"{where}.center"),
                heading=old_number_at(o, "heading", sid, where),
                length=old_number_at(o, "length", sid, where),
                width=old_number_at(o, "width", sid, where),
            )
        )
    predictions = []
    for i, p in enumerate(old_list_at(raw, "predictions", sid)):
        where = f"predictions[{i}]"
        predictions.append(
            PredictedMotion(
                object_id=str(old_require(p, "object_id", sid, where)),
                future=old_pairs(old_require(p, "future", sid, where), sid, f"{where}.future"),
            )
        )
    human = Trajectory(old_pairs(old_require(raw, "human_trajectory", sid), sid, "human_trajectory"))
    gt_steps = []
    for step, boxes in enumerate(old_list_at(raw, "gt_object_boxes", sid)):
        if not isinstance(boxes, list):
            raise ScenarioSchemaError("expected a list of boxes", sid, f"gt_object_boxes[{step}]")
        row = []
        for j, b in enumerate(boxes):
            where = f"gt_object_boxes[{step}][{j}]"
            row.append(
                ObjectBox(
                    center=old_pair(old_require(b, "center", sid, where), sid, f"{where}.center"),
                    heading=old_number_at(b, "heading", sid, where),
                    length=old_number_at(b, "length", sid, where),
                    width=old_number_at(b, "width", sid, where),
                )
            )
        gt_steps.append(tuple(row))
    return Scenario(sid, ego, tuple(objects), tuple(predictions), human, tuple(gt_steps))


def old_load(path):
    text = path.read_text(encoding="utf-8")
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as e:
        raise ScenarioSchemaError(f"malformed JSON: {e}") from None
    if not isinstance(doc, dict) or not isinstance(doc.get("scenarios"), list):
        raise ScenarioSchemaError('top level must be {"scenarios": [...]}')
    out, seen = [], set()
    for raw in doc["scenarios"]:
        if not isinstance(raw, dict):
            raise ScenarioSchemaError("each scenario must be an object")
        s = old_scenario_from_dict(raw)
        if s.id in seen:
            raise ScenarioSchemaError("duplicate scenario id", s.id, "id")
        seen.add(s.id)
        violations = old_validate(s)
        if violations:
            raise ScenarioSchemaError("; ".join(violations), s.id)
        out.append(s)
    return out


# --- reader: adversarial files --------------------------------------------

LITERALS = (
    "1.23456", "-1.004999", "2.675", "-2.675", "0.005", "-0.005", "0.125", "3.1416", "-3.1416",
    "-0.0", "-0.00", "0.0", "0", "-0", "7", "-3", "12345678901234567890", "1" + "0" * 400,
    "1e400", "-1E400", "1e-400", "1E2", "1.5e-3", "-3.25e+01", "0.1e-1", "5e-324",
    "9" * 400 + ".5", "4" * 20 + ".25", "NaN", "Infinity", "-Infinity",
    "199.99", "200.004", "200.005", "-200.006", "66.66", "66.67", "0.0001",
    '"7.4"', "true", "false", "null", "[]", "{}", "[1.0]", "[1.0, 2.0, 3.0]", "[[1.0, 2.0]]",
    '{"x": 1.0}', '"o1"', '"ghost"', '""',
)
ID_KEYS = ("id", "class", "object_id")


def _paths(node, prefix=()):
    """Every path below `node`: dict keys and list indices."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for k, child in items:
        yield prefix + (k,)
        if isinstance(child, (dict, list)) and child:
            yield from _paths(child, prefix + (k,))


def _field_name(path) -> str:
    name = path[0]
    for part in path[1:]:
        name += f"[{part}]" if isinstance(part, int) else f".{part}"
    return name


def _base_docs():
    docs = [scenario_to_dict(synth_scenario(kind, 3)) for kind in SYNTH_KINDS]
    docs[1]["ego"]["velocity"] = 5.004999  # json's own float, not yet quantized
    docs[2]["objects"][0]["heading"] = -0.0
    return docs


BASE_DOCS = json.dumps(_base_docs())


def _outcome(load, path):
    try:
        return "ok", json.dumps([scenario_to_dict(s) for s in load(path)])
    except ScenarioSchemaError as e:
        return "error", str(e)


def _check_file(path, non_string_id=None):
    """load_scenarios against the oracle; a non-string id is the one intended difference.

    The oracle turned it into a string with ``str()``, and echoed a scenario
    id's value; the reader names only the field.
    """
    if non_string_id is None:
        want = _outcome(old_load, path)
        assert _outcome(load_scenarios, path) == want, path.read_text(encoding="utf-8")[:400]
        return want[0]
    try:
        load_scenarios(path)
    except ScenarioSchemaError as e:
        assert e.field_name == _field_name(non_string_id) and "string" in str(e)
        if non_string_id == ("id",):
            assert e.scenario_id is None
        return "error"
    raise AssertionError(f"a non-string {_field_name(non_string_id)} loaded")


def _node(doc, path):
    """The container holding `path`'s last key, or None if an earlier mutation replaced it."""
    node = doc
    for k in path[:-1]:
        if not isinstance(node, (dict, list)):
            return None
        try:
            node = node[k]
        except (KeyError, IndexError, TypeError):
            return None
    key = path[-1]
    if isinstance(node, dict) and key in node:
        return node
    if isinstance(node, list) and isinstance(key, int) and key < len(node):
        return node
    return None


def _mutated_file(rng: random.Random):
    """A one-scenario file with 1-3 fields replaced by raw literals or deleted."""
    doc = rng.choice(json.loads(BASE_DOCS))
    candidates = list(_paths(doc))
    literals, non_string_id = {}, None
    for n in range(rng.choice((1, 1, 2, 3))):
        target = rng.choice(candidates)
        literal = rng.choice(LITERALS)
        is_id = target[-1] in ID_KEYS and not literal.startswith('"')
        node = _node(doc, target)
        if node is None or (is_id and n):
            continue  # a non-string id is checked alone
        if not is_id and isinstance(node, dict) and rng.random() < 0.1:
            del node[target[-1]]
            continue
        node[target[-1]] = f"@@{n}@@"
        literals[f'"@@{n}@@"'] = literal
        if is_id:
            non_string_id = target
            break
    text = json.dumps({"scenarios": [doc]})
    for marker, literal in literals.items():
        text = text.replace(marker, literal)
    return text, non_string_id


def test_reader_matches_the_old_walk_on_mutated_files(tmp_path):
    rng = random.Random(20240901)
    path = tmp_path / "adversarial.json"
    outcomes = []
    for _ in range(2500):
        text, non_string_id = _mutated_file(rng)
        path.write_text(text, encoding="utf-8")
        outcomes.append(_check_file(path, non_string_id))
    assert 200 < outcomes.count("ok") < 2300  # both outcomes well exercised


def test_reader_matches_the_old_walk_on_whole_file_cases(tmp_path):
    base = json.dumps(json.loads(BASE_DOCS)[1])
    cases = [
        "{not json",
        "[1, 2]",
        '{"data": []}',
        '"text"',
        '{"scenarios": 5}',
        '{"scenarios": []}',
        '{"scenarios": [5]}',
        '{"scenarios": [{"id": ""}]}',
        '{"scenarios": [{"id": "x"}]}',
        '{"scenarios": [{"id": "x", "ego": []}]}',
        '{"scenarios": [' + base + ", " + base + "]}",  # duplicate id
        '{"scenarios": [' + base + "]}",
        '{"scenarios": ' + "[" * 200_000 + "]" * 200_000 + "}",
    ]
    path = tmp_path / "case.json"
    for text in cases:
        path.write_text(text, encoding="utf-8")
        _check_file(path)
    path.write_text('{"scenarios": [{"id": 5}]}', encoding="utf-8")
    _check_file(path, non_string_id=("id",))


# --- reader: the streamed walk and the whole-file walk --------------------
#
# A ``{"scenarios": [...]}`` file in any JSON layout is decoded one entry at
# a time; every other file, and every file with an error, is decoded whole.
# Either way the outcome is the oracle's.

TWIN_DOCS = [scenario_to_dict(s) for s in make_scenarios(4)]
INT_COORDINATE = re.compile(r"(?<=[\[,])(-?\d+)\.0(?=[,\]])")  # 4.0 in a pair, as 4


def _dumps(**layout) -> str:
    return json.dumps({"scenarios": TWIN_DOCS}, **layout)


def _schema_error_then_json_error() -> str:
    """Entry 0's velocity is a string; the last entry lacks a comma between two keys."""
    docs = json.loads(json.dumps(TWIN_DOCS))
    docs[0]["ego"]["velocity"] = "fast"
    text = json.dumps({"scenarios": docs})
    at = text.rindex(', "gt_object_boxes"')
    return text[:at] + text[at + 1:]


TWIN_CASES = {
    # the file's text (None: ``save_scenarios``'), and whether the streamed walk takes it
    "writer layout": (None, True),
    "json.dumps default layout": (_dumps(), True),
    "json.dumps indent=2 layout": (_dumps(indent=2), True),
    "CRLF line ends": (_dumps(indent=2).replace("\n", "\r\n"), True),
    "leading and trailing whitespace": (" \t\r\n" + _dumps() + "\r\n\t ", True),
    "a form feed before the object": ("\f" + _dumps(), False),  # str.isspace takes it
    "an extra key before scenarios": ('{"version": 1, ' + _dumps()[1:], False),
    "an extra key after scenarios": (_dumps()[:-1] + ', "version": 1}', False),
    "scenarios twice": (
        '{"scenarios": [' + json.dumps(TWIN_DOCS[0]) + "], " + _dumps()[1:], False),
    "an escaped key": (_dumps().replace('"scenarios"', '"sc\\u0065narios"', 1), False),
    "an empty list": ('{ "scenarios" : [ ] }', True),
    "a trailing comma": (_dumps()[:-2] + ",]}", False),
    "a missing ]": (_dumps()[:-2] + "}", False),
    "data after the }": (_dumps() + " {}", False),
    "a byte order mark": ("\ufeff" + _dumps(), False),
    "int coordinates that validate": (INT_COORDINATE.sub(r"\1", _dumps()), True),
    "an entry that is not an object": (_dumps()[:-2] + ", 7]}", False),
    "a schema error, then a JSON error": (_schema_error_then_json_error(), False),
}


@pytest.mark.parametrize("case", TWIN_CASES)
def test_the_streamed_walk_matches_the_old_walk(tmp_path, monkeypatch, case):
    text, streamed = TWIN_CASES[case]
    path = tmp_path / "s.json"
    if text is None:
        save_scenarios(make_scenarios(4), path)
    else:
        path.write_bytes(text.encode("utf-8"))
    whole_file = []
    decoded_entries = scenario_module._decoded_entries

    def spy(*args):
        whole_file.append(args)
        return decoded_entries(*args)

    monkeypatch.setattr(scenario_module, "_decoded_entries", spy)
    outcome = _outcome(load_scenarios, path)
    assert outcome == _outcome(old_load, path)
    assert len(whole_file) == (0 if streamed else 1)
    if case == "int coordinates that validate":
        assert text.count(".") < _dumps().count(".") and outcome[0] == "ok"
    if case == "a schema error, then a JSON error":
        assert outcome[1].startswith("malformed JSON: Expecting ',' delimiter"), outcome


# --- reader: one literal text, many scenarios -----------------------------
#
# The reader decodes each distinct literal text once per load and reuses the
# value; these files spell equal values differently and repeat each spelling
# across scenarios.

SPELLINGS = ("-0.0", "0.0", "-0.00", "1.0", "1.00", "1", "2.675", "2.68", "1.5e-3", "0.0015")


def _respelled_file(literals) -> str:
    """Eight scenarios whose coordinates and ego scalars take ``literals`` in turn, cycling."""
    docs = [scenario_to_dict(synth_scenario(kind, seed)) for seed in (1, 2) for kind in SYNTH_KINDS]
    n = 0
    for doc in docs:
        ego = doc["ego"]
        paths = [ego["history"], doc["human_trajectory"], *(p["future"] for p in doc["predictions"])]
        for w in (w for path in paths for w in path):
            w[:] = [f"@@{n}@@", f"@@{n + 1}@@"]
            n += 2
        ego["acceleration"], ego["heading_rate"] = f"@@{n}@@", f"@@{n + 1}@@"
        n += 2
    text = json.dumps({"scenarios": docs})
    return re.sub(r'"@@(\d+)@@"', lambda m: literals[int(m[1]) % len(literals)], text)


@pytest.mark.parametrize("literals, outcome", [
    (SPELLINGS, "ok"),
    (SPELLINGS[::-1], "ok"),
    (SPELLINGS * 5 + ("1e400",), "error"),  # finite literals first, then one that overflows
])
def test_reader_matches_the_old_walk_on_repeated_literals(tmp_path, literals, outcome):
    path = tmp_path / "respelled.json"
    path.write_text(_respelled_file(literals), encoding="utf-8")
    assert _check_file(path) == outcome


# --- reader: the invariant flag at its boundaries -------------------------

BOUNDARY_LITERALS = (
    "200.0", "-200.0", "200.01", "-200.01", "3.14", "3.15", "-3.15",
    "0.0", "0.01", "-0.01", "66.66", "66.67", "0", "-0",
)


def _check_flag(text, exact):
    """The walk's flag clears only what the oracle passes, and, when ``exact``, all of it.

    A waypoint or box that misses the walk's fast branch (an int literal, an
    extra key) is only suspect, so for those the flag may say no to a valid
    scenario; ``validate_scenario`` then runs and finds nothing.
    """
    raw = json.loads(text, parse_float=quantize_literal)["scenarios"][0]
    s, valid = _scenario_from_dict(raw)
    ok = old_validate(s) == []
    assert (valid == ok) if exact else (ok or not valid), (valid, old_validate(s), text[:400])


def _boundary_files():
    """(file text, exact) for every literal at every numeric path, and the structural cases."""
    for doc in _base_docs():
        for path in _paths(doc):
            if type(_node(doc, path)[path[-1]]) is not float:
                continue
            for literal in BOUNDARY_LITERALS:
                mutated = json.loads(json.dumps(doc))
                _node(mutated, path)[path[-1]] = "@@"
                text = json.dumps({"scenarios": [mutated]}).replace('"@@"', literal)
                yield text, "." in literal

        structural = []  # (mutation, exact)
        if doc["objects"]:
            structural.append((lambda d: d["objects"].append(dict(d["objects"][0])), True))
        if doc["predictions"]:
            structural.append((lambda d: d["predictions"][0].update(object_id="ghost"), True))
            for n in (5, 7):
                future = [[0.0, float(i)] for i in range(n)]
                structural.append((lambda d, f=future: d["predictions"][0].update(future=f), True))
        for n in (5, 7):
            structural.append((lambda d, n=n: d.update(
                gt_object_boxes=(d["gt_object_boxes"] * 2)[:n]), True))
        if any(doc["gt_object_boxes"]):
            structural.append((lambda d: d["gt_object_boxes"][2][0].update(score=1.0), False))
        structural.append((lambda d: d.update(gt_object_boxes=[]), True))
        for mutate, exact in structural:
            mutated = json.loads(json.dumps(doc))
            mutate(mutated)
            yield json.dumps({"scenarios": [mutated]}), exact


def test_reader_matches_the_old_walk_at_invariant_boundaries(tmp_path):
    path = tmp_path / "boundary.json"
    outcomes = []
    for text, exact in _boundary_files():
        path.write_text(text, encoding="utf-8")
        outcomes.append(_check_file(path))
        _check_flag(text, exact)
    assert 2000 < len(outcomes) and 200 < outcomes.count("error") < len(outcomes) - 200


# --- reader: the edges of the walk's inline checks ------------------------
#
# Objects, gt boxes and [x, y] pairs meet one inline check before the
# general path. These files sit just outside each check, and at the ego
# scalars and prediction ids, which take the general path alone: a literal
# that is not a plain finite float, an object with a key too few or too
# many, an id that is not ASCII or repeats one the check would pass.

EDGE_LITERALS = ("true", "7", '"7.4"', "1e400", "-1e400", "null", "0.0", "200.01")
EDGE_PATHS = (
    ("ego", "velocity"), ("ego", "acceleration"), ("ego", "heading_rate"),
    ("ego", "history", 1, 0), ("human_trajectory", 3, 1), ("predictions", 0, "future", 5, 0),
    ("objects", 0, "center", 0), ("objects", 0, "heading"), ("objects", 0, "length"),
    ("objects", 0, "width"), ("gt_object_boxes", 2, 0, "center", 1),
    ("gt_object_boxes", 2, 0, "heading"), ("gt_object_boxes", 2, 0, "length"),
    ("gt_object_boxes", 2, 0, "width"),
)
PAIR_LISTS = ("history", "human_trajectory", "future")  # a miss there leaves the flag unsure


def _renamed(d, object_id):
    d["objects"][0]["id"] = d["predictions"][0]["object_id"] = object_id


FAST_PATH_EDGES = {
    "object_5_keys": lambda d: d["objects"][0].pop("width"),
    "object_7_keys": lambda d: d["objects"][0].update(score=0.9),
    "object_non_ascii_id": lambda d: _renamed(d, "o1-ß"),
    "object_non_ascii_class": lambda d: d["objects"][0].update({"class": "Fußgänger ✓"}),
    "prediction_non_ascii_unknown_id": lambda d: d["predictions"][0].update(object_id="o1-ß"),
    "repeated_object_id": lambda d: d["objects"].append(dict(d["objects"][0], center=[5.0, 30.0])),
    "repeated_non_ascii_object_id": lambda d: (
        _renamed(d, "o1-ß"), d["objects"].append(dict(d["objects"][0]))),
    "repeated_after_an_int_center": lambda d: d["objects"].insert(
        0, dict(d["objects"][0], center=[5, 30])),
    "box_3_keys": lambda d: d["gt_object_boxes"][2][0].pop("width"),
    "box_5_keys": lambda d: d["gt_object_boxes"][2][0].update(score=0.9),
    "ego_not_a_dict": lambda d: d.update(ego=[5.0, 0.0, 0.0]),
    "prediction_not_a_dict": lambda d: d["predictions"].__setitem__(0, "o1"),
}


def _edge_files():
    """(name, file text, exact) around each inline check, on the lead_vehicle scenario."""
    base = json.loads(BASE_DOCS)[1]
    for path in EDGE_PATHS:
        for literal in EDGE_LITERALS:
            doc = json.loads(json.dumps(base))
            _node(doc, path)[path[-1]] = "@@"
            text = json.dumps({"scenarios": [doc]}).replace('"@@"', literal)
            yield f"{_field_name(path)}={literal}", text, not set(path) & set(PAIR_LISTS)
    for name, mutate in FAST_PATH_EDGES.items():
        doc = json.loads(json.dumps(base))
        mutate(doc)
        yield name, json.dumps({"scenarios": [doc]}, ensure_ascii=False), name != "box_5_keys"


EDGE_FILES = list(_edge_files())


@pytest.mark.parametrize("name, text, exact", EDGE_FILES, ids=[name for name, _, _ in EDGE_FILES])
def test_reader_matches_the_old_walk_at_the_fast_path_edges(tmp_path, name, text, exact):
    path = tmp_path / "edge.json"
    path.write_text(text, encoding="utf-8")
    outcome = _check_file(path)
    try:
        _check_flag(text, exact)
    except ScenarioSchemaError:
        assert outcome == "error"


def test_the_fast_path_edges_hit_every_outcome(tmp_path):
    path = tmp_path / "edge.json"
    outcomes = {}
    for name, text, _ in EDGE_FILES:
        path.write_text(text, encoding="utf-8")
        try:
            load_scenarios(path)
            outcomes[name] = "ok"
        except ScenarioSchemaError as e:
            outcomes[name] = str(e)
    assert outcomes["ego.velocity=7"] == outcomes["object_7_keys"] == "ok"
    assert outcomes["object_non_ascii_id"] == outcomes["object_non_ascii_class"] == "ok"
    assert outcomes["ego.velocity=1e400"].endswith("field 'ego.velocity': bad number: "
                                                   "cannot quantize non-finite value inf")
    assert outcomes["ego.heading_rate=true"].endswith(
        "field 'ego.heading_rate': expected a number, got bool")
    assert outcomes["objects[0].length=-1e400"].endswith("bad number: "
                                                         "cannot quantize non-finite value -inf")
    for name in ("repeated_object_id", "repeated_non_ascii_object_id",
                 "repeated_after_an_int_center"):
        assert "duplicate id" in outcomes[name], name
    assert "prediction references unknown object id 'o1-ß'" in (
        outcomes["prediction_non_ascii_unknown_id"])


def test_synth_files_skip_validate_scenario(tmp_path, monkeypatch):
    """Every synth scenario passes the inline checks, so none reaches ``validate_scenario``.

    A change that pushes such a file onto the general path fails here, not
    only as a slower benchmark. One coordinate respelled as an int literal
    misses the check, and only its scenario is validated.
    """
    checked = []
    validate = scenario_module.validate_scenario
    monkeypatch.setattr(scenario_module, "validate_scenario",
                        lambda s: checked.append(s.id) or validate(s))
    scenarios = [synth_scenario(kind, seed) for seed in (1, 2) for kind in SYNTH_KINDS]
    path = tmp_path / "synth.json"
    save_scenarios(scenarios, path)
    assert load_scenarios(path) == scenarios and checked == []

    docs = [scenario_to_dict(s) for s in scenarios]
    x = docs[1]["human_trajectory"][2][0]  # a lead_vehicle's, 0.0
    assert x == int(x)
    docs[1]["human_trajectory"][2][0] = int(x)
    path.write_text(json.dumps({"scenarios": docs}), encoding="utf-8")
    assert load_scenarios(path) == scenarios and checked == [scenarios[1].id]


# --- reader: strings no writer can hold -----------------------------------


@pytest.mark.parametrize(
    "where, field_name",
    [
        (("id",), "id"),
        (("objects", 0, "id"), "objects[0].id"),
        (("objects", 0, "class"), "objects[0].class"),
        (("predictions", 0, "object_id"), "predictions[0].object_id"),
    ],
)
def test_lone_surrogate_is_a_schema_error(tmp_path, where, field_name):
    path = tmp_path / "s.json"
    save_scenarios(make_scenarios(2), path)  # scenario 1 is a lead_vehicle
    doc = json.loads(path.read_text(encoding="utf-8"))
    node = doc["scenarios"][1]
    for key in where[:-1]:
        node = node[key]
    node[where[-1]] += "\ud800"
    path.write_text(json.dumps(doc), encoding="utf-8")  # ASCII: the "\ud800" escape
    with pytest.raises(ScenarioSchemaError, match="lone surrogate") as e:
        load_scenarios(path)
    assert e.value.field_name == field_name


def test_non_ascii_strings_load(tmp_path):
    s = synth_scenario("lead_vehicle", 0)
    renamed = {o.id: f"{o.id}-ß" for o in s.objects}
    s = dataclasses.replace(
        s,
        id="szene-ü",
        objects=tuple(dataclasses.replace(o, id=renamed[o.id], class_name="Fußgänger ✓")
                      for o in s.objects),
        predictions=tuple(dataclasses.replace(p, object_id=renamed[p.object_id])
                          for p in s.predictions),
    )
    path = tmp_path / "s.json"
    save_scenarios([s], path)
    assert load_scenarios(path) == [s]


# --- one copy in memory ---------------------------------------------------
#
# A load holds the file's text and one entry's tree at a time besides its
# records; a save holds the entries' UTF-8 bytes and no joined text.
# ``tracemalloc`` counts the bytes Python allocates, so the bounds hold on
# any host.


@pytest.fixture
def traced():
    tracemalloc.start()
    yield
    tracemalloc.stop()


def _traced_growth(call) -> tuple[object, int, int]:
    """``call()``, and the traced memory it left behind and its peak, past the start."""
    tracemalloc.reset_peak()
    start = tracemalloc.get_traced_memory()[0]
    result = call()
    current, peak = tracemalloc.get_traced_memory()
    return result, current - start, peak - start


def test_a_load_holds_no_more_than_one_decoded_tree_besides_its_records(tmp_path, traced):
    path = tmp_path / "s.json"
    save_scenarios(make_scenarios(2000), path)
    text = path.read_text(encoding="utf-8")
    # the tree as the loader decodes it, one float object per distinct literal
    memo = scenario_module._LiteralMemo()
    tree, tree_size, _ = _traced_growth(lambda: json.loads(text, parse_float=memo.__getitem__))
    del memo, tree, text
    scenarios, records, peak = _traced_growth(lambda: load_scenarios(path))
    assert len(scenarios) == 2000
    # The peak is the decode's text and tree, and the records take the place
    # of the entries they were built from: what the load holds past them is a
    # little over half a tree. A walk that kept the tree would hold about one, and
    # the text, the tree and the records at once more than one.
    assert peak - records < 0.8 * tree_size, (peak - records, tree_size)


@pytest.mark.parametrize("coordinates", ["floats", "ints"])
def test_a_load_holds_one_entrys_tree_besides_the_text_and_its_records(
    tmp_path, traced, coordinates
):
    path = tmp_path / "s.json"
    save_scenarios(make_scenarios(2000), path)
    text = path.read_text(encoding="utf-8")
    if coordinates == "ints":  # validated in place, so still one entry at a time
        text, n = INT_COORDINATE.subn(r"\1", text)
        assert n > 10_000
        path.write_text(text, encoding="utf-8")
    memo = scenario_module._LiteralMemo()
    tree, tree_size, _ = _traced_growth(lambda: json.loads(text, parse_float=memo.__getitem__))
    del memo, tree, text
    scenarios, records, peak = _traced_growth(lambda: load_scenarios(path))
    assert len(scenarios) == 2000
    # past its records, the load holds the text (about a sixth of a tree) and
    # one entry's tree; a whole-file decode holds over half a tree
    assert peak - records < 0.3 * tree_size, (peak - records, tree_size)


def test_a_save_holds_one_encoded_copy_of_the_file(tmp_path, traced):
    scenarios = make_scenarios(2000)
    path = tmp_path / "s.json"
    _, _, peak = _traced_growth(lambda: save_scenarios(scenarios, path))
    # the entries' text, their join and its bytes at once would be about three
    assert peak < 1.5 * path.stat().st_size, (peak, path.stat().st_size)


def _bad_velocity(d):
    d["ego"]["velocity"] = "fast"


def _negative_velocity(d):
    d["ego"]["velocity"] = -1.0


ERROR_PATH_CASES = {
    # the bad entry's mutation, and the message its scenario id goes into
    "schema error": (_bad_velocity, "field 'ego.velocity': expected a number, got str"),
    "duplicate id": (None, "field 'id': duplicate scenario id"),
    "invariant": (_negative_velocity, "ego velocity >= 0"),
    "schema error before duplicate id": (
        _bad_velocity, "field 'ego.velocity': expected a number, got str"),
    "duplicate id before invariant": (_negative_velocity, "field 'id': duplicate scenario id"),
}


@pytest.mark.parametrize("position", ["first", "middle", "last"])
@pytest.mark.parametrize("case", ERROR_PATH_CASES)
def test_an_error_after_freed_entries_is_the_one_the_walk_raised(tmp_path, case, position):
    """The bad entry of a 50-entry file raises its message wherever it stands.

    A duplicate repeats entry 0's id, so at the earliest it is entry 1.
    """
    scenarios = make_scenarios(50)
    docs = [scenario_to_dict(s) for s in scenarios]
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"scenarios": docs}), encoding="utf-8")
    assert load_scenarios(path) == scenarios

    mutate, message = ERROR_PATH_CASES[case]
    duplicate = "duplicate id" in case
    at = {"first": 1 if duplicate else 0, "middle": 25, "last": 49}[position]
    if mutate:
        mutate(docs[at])
    if duplicate:
        docs[at]["id"] = docs[0]["id"]
    path.write_text(json.dumps({"scenarios": docs}), encoding="utf-8")
    with pytest.raises(ScenarioSchemaError) as e:
        load_scenarios(path)
    assert str(e.value) == f"scenario {docs[at]['id']!r}: {message}"
