import dataclasses
import gc
import json
import math
import re
import sys
import threading

import numpy as np
import pytest

from helpers import make_scenarios, scenario_to_dict
from lmplan import (
    ScenarioSchemaError,
    Trajectory,
    Waypoint,
    load_scenarios,
    sample_split,
    save_scenarios,
    split_size,
    synth_scenario,
    validate_scenario,
)
from lmplan import scenario as scenario_module
from lmplan.metrics import collision_steps
from lmplan.reasoning import rollout_hypothetical
from lmplan.scenario import SYNTH_KINDS, EgoState, ObjectBox


def write_file(tmp_path, payload, name="sc.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def base_scenario_dict(sid="s1"):
    return {
        "id": sid,
        "ego": {
            "velocity": 5.0,
            "acceleration": 0.0,
            "heading_rate": 0.0,
            "history": [[0.0, -5.0], [0.0, -2.5]],
        },
        "objects": [
            {
                "id": "o1",
                "class": "car",
                "center": [1.0, 10.0],
                "heading": 1.57,
                "length": 4.5,
                "width": 1.8,
            }
        ],
        "predictions": [
            {"object_id": "o1", "future": [[1.0, 10.0 + i] for i in range(1, 7)]}
        ],
        "human_trajectory": [[0.0, 2.5 * i] for i in range(1, 7)],
    }


class TestLoading:
    def test_round_trip_through_file(self, tmp_path):
        original = make_scenarios(8)
        path = tmp_path / "out.json"
        save_scenarios(original, path)
        loaded = load_scenarios(path)
        assert [scenario_to_dict(s) for s in loaded] == [
            scenario_to_dict(s) for s in original
        ]

    def test_scalars_quantized_on_ingest(self, tmp_path):
        d = base_scenario_dict()
        d["ego"]["velocity"] = 5.005
        d["objects"][0]["center"] = [1.004999, 10.0]
        path = write_file(tmp_path, {"scenarios": [d]})
        s = load_scenarios(path)[0]
        assert s.ego.velocity == 5.01
        assert s.objects[0].center.x == 1.0

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_scenarios(tmp_path / "nope.json")

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ScenarioSchemaError):
            load_scenarios(path)

    def test_wrong_top_level_shape(self, tmp_path):
        for payload in ([1, 2], {"data": []}, "text"):
            path = write_file(tmp_path, payload)
            with pytest.raises(ScenarioSchemaError):
                load_scenarios(path)

    def test_missing_field_names_scenario_and_field(self, tmp_path):
        d = base_scenario_dict("weird-id")
        del d["ego"]["velocity"]
        path = write_file(tmp_path, {"scenarios": [d]})
        with pytest.raises(ScenarioSchemaError) as exc:
            load_scenarios(path)
        assert "weird-id" in str(exc.value)
        assert "velocity" in str(exc.value)

    def test_non_numeric_coordinate(self, tmp_path):
        d = base_scenario_dict()
        d["human_trajectory"][0] = ["a", "b"]
        path = write_file(tmp_path, {"scenarios": [d]})
        with pytest.raises(ScenarioSchemaError):
            load_scenarios(path)

    @pytest.mark.parametrize(
        "path, value, field_name",
        [
            (("ego", "heading_rate"), True, "ego.heading_rate"),
            (("ego", "velocity"), "7.44", "ego.velocity"),
            (("objects", 0, "center"), ["1.0", 10.0], "objects[0].center"),
            (("human_trajectory", 2), [0.0, False], "human_trajectory[2]"),
            (("gt_object_boxes", 0, 0, "length"), "4.6", "gt_object_boxes[0][0].length"),
            (("gt_object_boxes", 0, 0, "width"), None, "gt_object_boxes[0][0].width"),
            (("ego", "acceleration"), 10**400, "ego.acceleration"),  # overflows a float
        ],
        ids=["scalar_bool", "scalar_string", "pair_string", "pair_bool", "box_string", "box_null",
             "scalar_too_big"],
    )
    def test_non_number_values_rejected(self, tmp_path, path, value, field_name):
        d = base_scenario_dict()
        d["gt_object_boxes"] = [
            [{"center": [1.0, 10.0], "heading": 1.57, "length": 4.5, "width": 1.8}]
        ] * 6
        target = d
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        with pytest.raises(ScenarioSchemaError) as exc:
            load_scenarios(write_file(tmp_path, {"scenarios": [d]}))
        assert exc.value.field_name == field_name
        assert f"field {field_name!r}" in str(exc.value)

    @pytest.mark.parametrize(
        "mutate, field_name",
        [
            (lambda d: d["objects"][0].pop("id"), "objects[0].id"),
            (lambda d: d["objects"].__setitem__(0, 5), "objects[0].id"),
            (lambda d: d["predictions"][0].pop("future"), "predictions[0].future"),
            (lambda d: d["gt_object_boxes"][2][0].pop("center"), "gt_object_boxes[2][0].center"),
            (lambda d: d["gt_object_boxes"][2].__setitem__(0, []), "gt_object_boxes[2][0].center"),
            (lambda d: d["ego"].pop("velocity"), "ego.velocity"),
            (lambda d: d.pop("human_trajectory"), "human_trajectory"),
        ],
        ids=["object_id", "object_not_a_dict", "prediction_future", "box_center", "box_not_a_dict",
             "ego_velocity", "human_trajectory"],
    )
    def test_missing_key_is_named_by_its_path(self, tmp_path, mutate, field_name):
        d = base_scenario_dict("lead_vehicle-0003")
        box = {"center": [1.0, 10.0], "heading": 1.57, "length": 4.5, "width": 1.8}
        d["gt_object_boxes"] = [[dict(box)] for _ in range(6)]
        mutate(d)
        with pytest.raises(ScenarioSchemaError) as exc:
            load_scenarios(write_file(tmp_path, {"scenarios": [d]}))
        assert exc.value.field_name == field_name
        assert str(exc.value) == (
            f"scenario 'lead_vehicle-0003': field {field_name!r}: missing required key"
        )

    @pytest.mark.parametrize(
        "path, value, field_name, type_name",
        [
            (("objects", 0, "id"), None, "objects[0].id", "NoneType"),
            (("objects", 0, "class"), {"k": "car"}, "objects[0].class", "dict"),
            (("predictions", 0, "object_id"), 1.5, "predictions[0].object_id", "float"),
            (("id",), 7, "id", None),
        ],
        ids=["object_id_null", "class_dict", "prediction_id_float", "scenario_id_int"],
    )
    def test_ids_and_class_names_must_be_strings(self, tmp_path, path, value, field_name,
                                                 type_name):
        d = base_scenario_dict()
        target = d
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        with pytest.raises(ScenarioSchemaError) as exc:
            load_scenarios(write_file(tmp_path, {"scenarios": [d]}))
        assert exc.value.field_name == field_name
        if type_name:
            assert f"field {field_name!r}: expected a string, got {type_name}" in str(exc.value)
        else:  # a number was rounded on decode, so its value is not echoed as an id
            assert exc.value.scenario_id is None and "non-empty string" in str(exc.value)

    @pytest.mark.parametrize("value", [5, None], ids=["int", "null"])
    @pytest.mark.parametrize("key", ["objects", "predictions", "gt_object_boxes"])
    def test_non_list_collections_rejected(self, tmp_path, key, value):
        d = base_scenario_dict()
        d[key] = value
        with pytest.raises(ScenarioSchemaError) as exc:
            load_scenarios(write_file(tmp_path, {"scenarios": [d]}))
        assert exc.value.field_name == key
        assert f"field {key!r}: expected a list" in str(exc.value)

    def test_too_deeply_nested_json(self, tmp_path):
        path = tmp_path / "deep.json"
        depth = 200_000
        path.write_text('{"scenarios": ' + "[" * depth + "]" * depth + "}", encoding="utf-8")
        with pytest.raises(ScenarioSchemaError, match="malformed JSON"):
            load_scenarios(path)

    def test_duplicate_ids_rejected(self, tmp_path):
        payload = {"scenarios": [base_scenario_dict("x"), base_scenario_dict("x")]}
        path = write_file(tmp_path, payload)
        with pytest.raises(ScenarioSchemaError) as exc:
            load_scenarios(path)
        assert "duplicate" in str(exc.value)

    def test_empty_scenario_list_loads(self, tmp_path):
        path = write_file(tmp_path, {"scenarios": []})
        assert load_scenarios(path) == []

    def test_nondefault_horizon(self, tmp_path):
        d = base_scenario_dict()
        d["human_trajectory"] = [[0.0, i * 1.0] for i in range(1, 5)]
        d["predictions"][0]["future"] = [[1.0, 10.0 + i] for i in range(1, 5)]
        path = write_file(tmp_path, {"scenarios": [d]})
        with pytest.raises(ScenarioSchemaError):
            load_scenarios(path)  # the fixed horizon of 6 must reject it


def test_a_load_decodes_each_distinct_float_literal_once(tmp_path, monkeypatch):
    path = tmp_path / "sc.json"
    save_scenarios(make_scenarios(3), path)
    text = path.read_text(encoding="utf-8")
    # respell every other float literal with a trailing zero: same value, new text
    parts = re.split(r"(-?\d+\.\d+)", text)
    parts[3::4] = [p + "0" for p in parts[3::4]]
    path.write_text("".join(parts), encoding="utf-8")
    literals = []
    json.loads("".join(parts), parse_float=literals.append)
    distinct = set(literals)
    assert len(literals) > len(distinct)  # repeats in the file
    assert any(t + "0" in distinct for t in distinct)  # and respellings
    calls = []
    real = scenario_module.quantize_literal

    def spy(literal):
        calls.append(literal)
        return real(literal)

    monkeypatch.setattr(scenario_module, "quantize_literal", spy)
    assert load_scenarios(path) == make_scenarios(3)
    assert sorted(calls) == sorted(distinct)
    calls.clear()
    load_scenarios(path)  # no decode outlives a load
    assert sorted(calls) == sorted(distinct)


def test_a_load_that_falls_back_to_the_whole_file_decodes_no_literal_twice(tmp_path, monkeypatch):
    # the last entry's schema error sends the load from the entry-by-entry
    # walk, which has decoded every entry, to the whole-file one: both share the memo
    docs = [scenario_to_dict(s) for s in make_scenarios(3)]
    docs[-1]["ego"]["velocity"] = "fast"
    path = tmp_path / "sc.json"
    path.write_text(json.dumps({"scenarios": docs}), encoding="utf-8")
    literals = []
    json.loads(path.read_text(encoding="utf-8"), parse_float=literals.append)
    calls = []
    real = scenario_module.quantize_literal

    def spy(literal):
        calls.append(literal)
        return real(literal)

    monkeypatch.setattr(scenario_module, "quantize_literal", spy)
    with pytest.raises(ScenarioSchemaError, match="'ego.velocity': expected a number, got str"):
        load_scenarios(path)
    assert sorted(calls) == sorted(set(literals))


DEPTH = 200_000

COLLECTOR_CASES = {
    "loads": (json.dumps({"scenarios": [base_scenario_dict()]}), None),
    "schema error": (json.dumps({"scenarios": [{"id": "x", "ego": []}]}), "missing required key"),
    "malformed JSON": ("{not json", "malformed JSON"),
    "nesting too deep": ('{"scenarios": ' + "[" * DEPTH + "]" * DEPTH + "}", "malformed JSON"),
}


@pytest.fixture
def collector_state():
    """Put the collector back as it was, whatever the test left it in."""
    enabled = gc.isenabled()
    yield
    (gc.enable if enabled else gc.disable)()


class TestCollectorPause:
    @pytest.mark.parametrize("case", COLLECTOR_CASES)
    @pytest.mark.parametrize("enabled", [True, False], ids=["gc on", "gc off"])
    def test_load_restores_the_collector(self, tmp_path, monkeypatch, collector_state,
                                         case, enabled):
        text, error = COLLECTOR_CASES[case]
        path = tmp_path / "sc.json"
        path.write_text(text, encoding="utf-8")
        seen = []
        real = scenario_module.quantize_literal

        def spy(literal):
            seen.append(gc.isenabled())
            return real(literal)

        monkeypatch.setattr(scenario_module, "quantize_literal", spy)
        (gc.enable if enabled else gc.disable)()
        if error is None:
            assert len(load_scenarios(path)) == 1
        else:
            with pytest.raises(ScenarioSchemaError, match=error):
                load_scenarios(path)
        assert gc.isenabled() is enabled
        assert not any(seen)  # paused while the literals were decoded
        if case == "loads":
            assert seen

    def test_concurrent_loads_agree_and_leave_the_collector_on(self, tmp_path, collector_state):
        path = tmp_path / "sc.json"
        save_scenarios(make_scenarios(8), path)
        want = load_scenarios(path)
        gc.enable()
        results: list[list] = [[] for _ in range(8)]

        def worker(out):
            for _ in range(20):
                out.append(load_scenarios(path))

        threads = [threading.Thread(target=worker, args=(out,)) for out in results]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert all(len(out) == 20 and all(got == want for got in out) for out in results)
        assert gc.isenabled()


class TestValidation:
    def load_one(self, tmp_path, d):
        return load_scenarios(write_file(tmp_path, {"scenarios": [d]}))[0]

    def test_valid_scenario_has_no_violations(self, tmp_path):
        s = self.load_one(tmp_path, base_scenario_dict())
        assert validate_scenario(s) == []

    def test_trajectory_length_violation(self, tmp_path):
        s = self.load_one(tmp_path, base_scenario_dict())
        short = Trajectory(s.human_trajectory.waypoints[:3])
        bad = type(s)(
            s.id, s.ego, s.objects, s.predictions, short, s.gt_object_boxes
        )
        msgs = validate_scenario(bad)
        assert any("expected 6 waypoints, got 3" in m for m in msgs)

    def test_out_of_bounds_coordinate(self, tmp_path):
        d = base_scenario_dict()
        d["human_trajectory"][5] = [0.0, 500.0]
        path = write_file(tmp_path, {"scenarios": [d]})
        with pytest.raises(ScenarioSchemaError) as exc:
            load_scenarios(path)
        assert "human_trajectory[5]" in str(exc.value)
        assert "|x| <= 200" in str(exc.value)

    def test_nonpositive_object_dims(self, tmp_path):
        d = base_scenario_dict()
        d["objects"][0]["width"] = 0.0
        with pytest.raises(ScenarioSchemaError):
            self.load_one(tmp_path, d)

    def test_bool_is_not_a_number(self):
        s = make_scenarios(1)[0]
        bad = dataclasses.replace(s, ego=EgoState(True, False, 0.0))
        assert validate_scenario(bad) == ["ego velocity >= 0", "ego acceleration finite"]
        ok = dataclasses.replace(s, ego=EgoState(np.float64(5.0), 0.0, 0.0))  # a float subclass
        assert validate_scenario(ok) == []

    @pytest.mark.parametrize(
        "field, message",
        [
            ("velocity", "ego velocity >= 0"),
            ("acceleration", "ego acceleration finite"),
            ("history", "ego history[0]: coordinates must be finite"),
            ("length", "object 'o1': length > 0"),
        ],
        ids=["velocity", "acceleration", "history", "length"],
    )
    def test_int_past_the_float_range_is_a_violation(self, field, message):
        # a file cannot hold one (the loader rounds or rejects such ints), a library caller can
        huge = 10**400
        s = synth_scenario("lead_vehicle", 0)
        if field == "velocity":
            bad = dataclasses.replace(s, ego=EgoState(huge, 0.0, 0.0))
        elif field == "acceleration":
            bad = dataclasses.replace(s, ego=EgoState(0.0, huge, 0.0))
        elif field == "history":
            bad = dataclasses.replace(s, ego=EgoState(0.0, 0.0, 0.0, (Waypoint(huge, 0.0),)))
        else:
            bad = dataclasses.replace(s, objects=(dataclasses.replace(s.objects[0], length=huge),))
        assert validate_scenario(bad) == [message]

    def test_negative_velocity(self, tmp_path):
        d = base_scenario_dict()
        d["ego"]["velocity"] = -1.0
        with pytest.raises(ScenarioSchemaError):
            self.load_one(tmp_path, d)

    @pytest.mark.parametrize(
        "velocity, acceleration, ok",
        [
            (66.66, 0.0, True),  # 199.98 m over 3 s
            (66.67, 0.0, False),
            (50.0, 11.11, True),  # 150 + 49.995 m
            (50.0, 11.12, False),
            (60.0, -1e9, True),  # braking never lengthens the arc
            (1e26, 0.0, False),
            (0.0, 1e300, False),
        ],
    )
    def test_ego_rollout_arc_is_bounded(self, tmp_path, velocity, acceleration, ok):
        d = base_scenario_dict()
        d["ego"]["velocity"] = velocity
        d["ego"]["acceleration"] = acceleration
        if ok:
            assert self.load_one(tmp_path, d).ego.velocity == velocity
            return
        with pytest.raises(ScenarioSchemaError) as exc:
            self.load_one(tmp_path, d)
        assert "ego velocity and ego acceleration" in str(exc.value)
        assert "<= 200 m over T = 3 s" in str(exc.value)

    HEADING_RATE_MESSAGE = "ego heading_rate / ego velocity * 200 m finite"

    @pytest.mark.parametrize("velocity, heading_rate", [(0.01, 1e307), (1.0, 1e308)])
    def test_heading_rate_past_the_rollout_curvature_is_a_violation(self, velocity, heading_rate):
        # both finite, yet heading_rate / velocity times an arc overflows to inf,
        # which math.cos rejects in the rollout
        s = dataclasses.replace(synth_scenario("lead_vehicle", 0),
                                ego=EgoState(velocity, 0.0, heading_rate))
        assert validate_scenario(s) == [self.HEADING_RATE_MESSAGE]

    def test_heading_rate_past_the_rollout_curvature_fails_to_load(self, tmp_path):
        d = base_scenario_dict()
        d["ego"]["velocity"], d["ego"]["heading_rate"] = 0.01, 1e307
        with pytest.raises(ScenarioSchemaError) as exc:
            self.load_one(tmp_path, d)
        assert exc.value.scenario_id == "s1"
        assert str(exc.value).endswith(self.HEADING_RATE_MESSAGE)

    @pytest.mark.parametrize("ego", [
        EgoState(0.01, 0.0, 8.9e303),  # 8.9e303 / 0.01 * 200 = 1.78e308
        EgoState(66.66, 0.0, 66.66 * 8.9e305),  # the longest arc the arc rule allows
        EgoState(1e-10, 0.0, 1.0),
        EgoState(0.0, 0.0, 1e308),  # a standing ego goes straight
    ])
    def test_an_ego_that_passes_the_rules_rolls_out(self, ego):
        s = dataclasses.replace(synth_scenario("lead_vehicle", 0), ego=ego)
        assert validate_scenario(s) == []
        assert len(rollout_hypothetical(ego)) == 6

    def test_prediction_with_unknown_object(self, tmp_path):
        d = base_scenario_dict()
        d["predictions"][0]["object_id"] = "ghost"
        with pytest.raises(ScenarioSchemaError) as exc:
            self.load_one(tmp_path, d)
        assert "ghost" in str(exc.value)

    def test_prediction_horizon_mismatch(self, tmp_path):
        d = base_scenario_dict()
        d["predictions"][0]["future"] = d["predictions"][0]["future"][:2]
        with pytest.raises(ScenarioSchemaError):
            self.load_one(tmp_path, d)


class TestSplits:
    def test_split_size_ceiling_rule(self):
        assert split_size(700, 0.01) == 7
        assert split_size(700, 0.1) == 70
        assert split_size(700, 0.5) == 350
        assert split_size(10, 0.01) == 1  # ceil(0.1)
        assert split_size(3, 1.0) == 3

    def test_split_size_float_slop(self):
        # 0.01 * 700 is 7.000000000000001 in floating point; must stay 7
        assert split_size(700, 0.01) == 7
        assert split_size(300, 0.1) == 30
        assert split_size(900, 0.3) == 270

    @pytest.mark.parametrize("n", [1, 2, 3, 700])
    @pytest.mark.parametrize("fraction", [1e-10, 4e-10, 5e-324])
    def test_split_size_of_a_positive_fraction_is_at_least_one(self, n, fraction):
        # ceil(fraction * n) is 1, though a product below 5e-10 rounds to 0 at 9 digits
        assert split_size(n, fraction) == 1
        assert split_size(0, fraction) == 0

    def test_split_size_bounds(self):
        for frac in (0.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                split_size(100, frac)

    def test_sample_split_deterministic(self):
        scenarios = make_scenarios(40)
        a = sample_split(scenarios, 0.25, seed=9)
        b = sample_split(scenarios, 0.25, seed=9)
        assert [s.id for s in a] == [s.id for s in b]
        c = sample_split(scenarios, 0.25, seed=10)
        assert [s.id for s in a] != [s.id for s in c]

    def test_sample_split_nesting(self):
        scenarios = make_scenarios(100)
        for seed in (0, 3, 77):
            one = {s.id for s in sample_split(scenarios, 0.01, seed)}
            ten = {s.id for s in sample_split(scenarios, 0.10, seed)}
            half = {s.id for s in sample_split(scenarios, 0.50, seed)}
            assert one <= ten <= half
            assert (len(one), len(ten), len(half)) == (1, 10, 50)
            tiny = [s.id for s in sample_split(scenarios, 1e-10, seed)]
            assert tiny == [s.id for s in sample_split(scenarios, 0.01, seed)]

    def test_sample_split_full_fraction_is_permutation(self):
        scenarios = make_scenarios(12)
        out = sample_split(scenarios, 1.0, seed=5)
        assert sorted(s.id for s in out) == sorted(s.id for s in scenarios)


class TestSynth:
    def test_deterministic(self):
        a = synth_scenario("lead_vehicle", 11)
        b = synth_scenario("lead_vehicle", 11)
        assert scenario_to_dict(a) == scenario_to_dict(b)

    def test_all_kinds_validate(self):
        for kind in SYNTH_KINDS:
            for seed in range(30):
                s = synth_scenario(kind, seed)
                assert validate_scenario(s) == [], (kind, seed)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            synth_scenario("flying_car", 0)

    def test_ids_encode_kind_and_seed(self):
        assert synth_scenario("empty_road", 7).id == "empty_road-0007"

    def test_archetype_contents(self):
        empty = synth_scenario("empty_road", 1)
        assert empty.objects == () and empty.predictions == ()
        lead = synth_scenario("lead_vehicle", 1)
        assert [o.class_name for o in lead.objects] == ["car"]
        assert len(lead.predictions) == 1
        ped = synth_scenario("crossing_pedestrian", 1)
        assert ped.objects[0].class_name == "pedestrian"
        block = synth_scenario("stationary_obstacle", 1)
        assert block.predictions == ()

    def test_human_trajectories_are_collision_free(self):
        for kind in SYNTH_KINDS:
            for seed in range(25):
                s = synth_scenario(kind, seed)
                flags = collision_steps(s.human_trajectory, s.gt_object_boxes)
                assert not any(flags), (kind, seed)

    def test_all_scalars_quantized(self):
        from lmplan import quantize

        for kind in SYNTH_KINDS:
            s = synth_scenario(kind, 3)
            for w in s.human_trajectory.waypoints:
                assert w.x == quantize(w.x) and w.y == quantize(w.y)
            assert s.ego.velocity == quantize(s.ego.velocity)
            for o in s.objects:
                assert o.heading == quantize(o.heading)

    def test_every_point_is_a_waypoint_and_every_box_an_object_box(self, tmp_path):
        # neither the saved bytes nor == tell a plain (x, y) tuple from a Waypoint
        scenarios = [synth_scenario(kind, seed) for kind in SYNTH_KINDS for seed in range(50)]
        path = tmp_path / "s.json"
        save_scenarios(scenarios, path)
        loaded = load_scenarios(path)
        assert loaded == scenarios
        for s in scenarios + loaded:
            boxes = [b for step in s.gt_object_boxes for b in step]
            points = [*s.ego.history, *s.human_trajectory.waypoints]
            points += [o.center for o in s.objects] + [b.center for b in boxes]
            points += [w for p in s.predictions for w in p.future]
            assert all(type(w) is Waypoint for w in points), s.id
            assert all(type(b) is ObjectBox for b in boxes), s.id


class TestSavedSchema:
    def test_file_layout_matches_documented_schema(self, tmp_path):
        s = synth_scenario("lead_vehicle", 0)
        path = tmp_path / "one.json"
        save_scenarios([s], path)
        raw = json.loads(path.read_text(encoding="utf-8"))
        assert set(raw) == {"scenarios"}
        entry = raw["scenarios"][0]
        assert set(entry) == {
            "id",
            "ego",
            "objects",
            "predictions",
            "human_trajectory",
            "gt_object_boxes",
        }
        assert set(entry["ego"]) == {"velocity", "acceleration", "heading_rate", "history"}
        assert set(entry["objects"][0]) == {
            "id",
            "class",
            "center",
            "heading",
            "length",
            "width",
        }
        assert isinstance(entry["human_trajectory"][0], list)
