import dataclasses
import math
import random
import re

import pytest

from helpers import integrate_rollout, traj
from lmplan import (
    Decision,
    Scenario,
    classify_decision,
    compose_reasoning,
    find_critical_objects,
    make_finetune_example,
    quantize,
    render_reasoning,
    rollout_hypothetical,
)
from lmplan import reasoning
from lmplan.prompts import SECTION_CRITICAL, SECTION_DECISION, SECTION_INTERACTION
from lmplan.reasoning import (
    final_lateral_offset,
    net_heading_change_deg,
    path_length,
)
from lmplan.scenario import (
    DEFAULT_DT,
    DEFAULT_HORIZON_STEPS,
    SYNTH_KINDS,
    DetectedObject,
    EgoState,
    PredictedMotion,
    Trajectory,
    Waypoint,
    synth_scenario,
)


def bare_scenario(human_pts, v0=6.0, a=0.0, w=0.0, objects=(), predictions=()):
    return Scenario(
        "t", EgoState(v0, a, w), tuple(objects), tuple(predictions), traj(human_pts), ()
    )


class TestRollout:
    def test_constant_speed_straight(self):
        r = rollout_hypothetical(EgoState(6.0, 0.0, 0.0))
        assert [(w.x, w.y) for w in r.waypoints] == [
            (0.0, 3.0), (0.0, 6.0), (0.0, 9.0), (0.0, 12.0), (0.0, 15.0), (0.0, 18.0)
        ]

    def test_constant_acceleration(self):
        r = rollout_hypothetical(EgoState(4.0, 2.0, 0.0))
        assert [w.y for w in r.waypoints] == [2.25, 5.0, 8.25, 12.0, 16.25, 21.0]

    def test_deceleration_clamps_at_standstill(self):
        # v0=4, a=-2 stops at t=2s having gone 4 m; no reversing afterwards
        r = rollout_hypothetical(EgoState(4.0, -2.0, 0.0))
        assert [w.y for w in r.waypoints] == [1.75, 3.0, 3.75, 4.0, 4.0, 4.0]

    def test_stationary_ego_stays_put(self):
        r = rollout_hypothetical(EgoState(0.0, 0.0, 0.0))
        assert all((w.x, w.y) == (0.0, 0.0) for w in r.waypoints)

    def test_heading_rate_with_zero_speed_is_straight(self):
        r = rollout_hypothetical(EgoState(0.0, 2.0, 0.5))
        assert all(w.x == 0.0 for w in r.waypoints)

    def test_positive_heading_rate_curves_left(self):
        r = rollout_hypothetical(EgoState(6.0, 0.0, 0.3))
        assert all(w.x < 0 for w in r.waypoints)  # +x is rightward

    def test_matches_millisecond_integrator(self):
        rng = random.Random(7)
        for _ in range(40):
            v0 = rng.uniform(1.0, 8.0)
            a = rng.uniform(-3.0, 2.0)
            w = rng.uniform(-0.4, 0.4)
            r = rollout_hypothetical(EgoState(v0, a, w), decimals=12)
            oracle = integrate_rollout(v0, a, w, 6, 0.5, step=2.5e-4)
            for wp, (ox, oy) in zip(r.waypoints, oracle):
                assert abs(wp.x - ox) < 3e-5 and abs(wp.y - oy) < 3e-5, (v0, a, w)

    def test_clamped_curved_case_matches_integrator(self):
        r = rollout_hypothetical(EgoState(5.0, -3.0, 0.2), decimals=12)
        oracle = integrate_rollout(5.0, -3.0, 0.2, 6, 0.5, step=2.5e-4)
        for wp, (ox, oy) in zip(r.waypoints, oracle):
            assert abs(wp.x - ox) < 3e-5 and abs(wp.y - oy) < 3e-5

    def test_waypoints_are_quantized(self):
        r = rollout_hypothetical(EgoState(5.17, 0.83, 0.21))
        for w in r.waypoints:
            assert w.x == quantize(w.x) and w.y == quantize(w.y)


class TestPathDescriptors:
    def test_path_length(self):
        assert path_length(traj([(0, 3), (0, 6), (3, 6)])) == 9.0
        assert path_length(traj([(0, 0)])) == 0.0

    def test_net_heading_change(self):
        straight = traj([(0, i) for i in range(1, 7)])
        assert net_heading_change_deg(straight) == 0.0
        left = traj([(0, 3), (-1.5, 5.6), (-3.0, 8.2)])
        assert net_heading_change_deg(left) > 25.0
        right = traj([(0, 3), (1.5, 5.6), (3.0, 8.2)])
        assert net_heading_change_deg(right) < -25.0

    def test_degenerate_segments_skipped(self):
        # the stop at the tail contributes no direction
        t = traj([(0, 2), (0, 4), (0, 4), (0, 4.001)])
        assert net_heading_change_deg(t) == 0.0

    def test_final_lateral_offset(self):
        assert final_lateral_offset(traj([(0, 3), (-2.0, 6)])) == -2.0
        assert final_lateral_offset(Trajectory(())) == 0.0


def moving_object(oid, start, vx, vy, steps=6, dt=0.5, cls="car"):
    center = Waypoint(quantize(start[0]), quantize(start[1]))
    obj = DetectedObject(oid, cls, center, 0.0, 4.0, 1.8)
    fut = []
    for k in range(1, steps + 1):
        fut.append(Waypoint(quantize(start[0] + vx * dt * k), quantize(start[1] + vy * dt * k)))
    return obj, PredictedMotion(oid, tuple(fut))


class TestCriticalObjects:
    def oracle(self, s, hypo, threshold):
        pred = {p.object_id: p for p in s.predictions}
        rows = []
        for obj in s.objects:
            dists = []
            for step in range(1, len(hypo) + 1):
                p = pred.get(obj.id)
                pos = p.future[step - 1] if p is not None else obj.center
                e = hypo.point(step)
                dists.append(math.hypot(pos.x - e.x, pos.y - e.y))
            hits = [i + 1 for i, d in enumerate(dists) if d < threshold]
            if hits:
                rows.append((hits[0], min(dists), obj.id))
        rows.sort()
        return rows

    def random_scenario(self, rng):
        objects, predictions = [], []
        for i in range(rng.randint(0, 5)):
            has_pred = rng.random() < 0.7
            obj, pred = moving_object(
                f"o{i}",
                (rng.uniform(-8, 8), rng.uniform(-2, 22)),
                rng.uniform(-2, 2) if has_pred else 0.0,
                rng.uniform(-2, 2) if has_pred else 0.0,
            )
            objects.append(obj)
            if has_pred:
                predictions.append(pred)
        v0 = quantize(rng.uniform(0.0, 8.0))
        human = traj([(0, v0 * 0.5 * (i + 1)) for i in range(6)])
        return bare_scenario(
            [(w.x, w.y) for w in human.waypoints],
            v0=v0,
            a=quantize(rng.uniform(-1.5, 1.5)),
            w=quantize(rng.uniform(-0.2, 0.2)),
            objects=objects,
            predictions=predictions,
        )

    def test_agrees_with_brute_force_table(self):
        rng = random.Random(21)
        for _ in range(150):
            s = self.random_scenario(rng)
            hypo = rollout_hypothetical(s.ego)
            got = [
                (c.first_conflict_step, c.min_distance, c.object_id)
                for c in find_critical_objects(s, hypo)
            ]
            assert got == self.oracle(s, hypo, 3.0)

    def test_threshold_monotonicity(self, monkeypatch):
        rng = random.Random(33)

        def critical_ids(s, hypo, threshold):
            monkeypatch.setattr(reasoning, "LATERAL_THRESHOLD", threshold)
            return {c.object_id for c in find_critical_objects(s, hypo)}

        for _ in range(60):
            s = self.random_scenario(rng)
            hypo = rollout_hypothetical(s.ego)
            assert critical_ids(s, hypo, 2.0) <= critical_ids(s, hypo, 4.0)

    def test_object_without_prediction_uses_current_position(self):
        obj = DetectedObject("b1", "barrier", Waypoint(0.0, 9.0), 0.0, 2.0, 0.8)
        s = bare_scenario([(0, 3 * i) for i in range(1, 7)], v0=6.0, objects=[obj])
        crit = find_critical_objects(s)
        assert [c.object_id for c in crit] == ["b1"]
        assert crit[0].min_distance == 0.0  # rollout passes straight through it
        # step 2 sits exactly 3.0 m away, excluded by the strict threshold;
        # step 3 coincides with the barrier
        assert crit[0].first_conflict_step == 3

    def test_far_object_not_critical(self):
        obj = DetectedObject("far", "car", Waypoint(30.0, 100.0), 0.0, 4.0, 1.8)
        s = bare_scenario([(0, 3 * i) for i in range(1, 7)], objects=[obj])
        assert find_critical_objects(s) == ()

    def test_sorted_by_urgency(self):
        late_but_close_obj, late_pred = moving_object("late", (0.0, 30.0), 0.0, -6.0)
        early_obj = DetectedObject("early", "cone", Waypoint(2.0, 4.0), 0.0, 0.5, 0.5)
        s = bare_scenario(
            [(0, 3 * i) for i in range(1, 7)],
            objects=[late_but_close_obj, early_obj],
            predictions=[late_pred],
        )
        crit = find_critical_objects(s)
        ids = [c.object_id for c in crit]
        assert ids == sorted(
            ids,
            key=lambda i: [
                (c.first_conflict_step, c.min_distance) for c in crit if c.object_id == i
            ][0],
        )
        assert crit[0].first_conflict_step <= crit[-1].first_conflict_step


class TestRelations:
    def relation_of(self, obj, predictions):
        s = bare_scenario(
            [(0, 3 * i) for i in range(1, 7)], objects=[obj], predictions=predictions
        )
        crit = find_critical_objects(s)
        assert crit, "fixture must be critical"
        return crit[0].relation

    def test_static_obstacle_without_prediction(self):
        obj = DetectedObject("x", "barrier", Waypoint(0.0, 6.0), 0.0, 2.0, 0.8)
        assert self.relation_of(obj, []) == "static obstacle"

    def test_static_obstacle_with_tiny_motion(self):
        obj, pred = moving_object("x", (0.0, 6.0), 0.05, 0.05)
        assert self.relation_of(obj, [pred]) == "static obstacle"

    def test_crossing(self):
        obj, pred = moving_object("x", (4.0, 9.0), -2.0, 0.0, cls="pedestrian")
        assert self.relation_of(obj, [pred]) == "crossing"

    def test_oncoming(self):
        obj, pred = moving_object("x", (0.5, 20.0), 0.0, -4.0)
        assert self.relation_of(obj, [pred]) == "oncoming"

    def test_ahead_in_lane(self):
        obj, pred = moving_object("x", (0.0, 7.0), 0.0, 2.0)
        assert self.relation_of(obj, [pred]) == "ahead in lane"


class TestDecisions:
    def test_keep_speed(self):
        s = bare_scenario([(0, 3 * i) for i in range(1, 7)], v0=6.0)
        assert classify_decision(s) is Decision.KEEP_SPEED

    def test_decelerate(self):
        s = bare_scenario([(0, 1.5 * i) for i in range(1, 7)], v0=6.0)
        assert classify_decision(s) is Decision.DECELERATE

    def test_accelerate(self):
        s = bare_scenario([(0, 4.0 * i) for i in range(1, 7)], v0=6.0)
        assert classify_decision(s) is Decision.ACCELERATE

    def test_stop(self):
        s = bare_scenario(
            [(0, 0.1), (0, 0.15), (0, 0.15), (0, 0.15), (0, 0.15), (0, 0.15)], v0=6.0
        )
        assert classify_decision(s) is Decision.STOP

    def test_turn_left_and_right(self):
        left = [(0, 3), (-1.5, 5.6), (-3.0, 8.2), (-4.5, 10.8), (-6.0, 13.4), (-7.5, 16.0)]
        s = bare_scenario(left, v0=6.0)
        assert classify_decision(s) is Decision.TURN_LEFT
        right = [(x * -1, y) for x, y in left]
        assert classify_decision(bare_scenario(right, v0=6.0)) is Decision.TURN_RIGHT

    def test_change_lane_left_and_right(self):
        xs = [-0.33, -1.0, -1.67, -2.0, -2.0, -2.0]
        pts = [(x, 3.0 * (i + 1)) for i, x in enumerate(xs)]
        assert classify_decision(bare_scenario(pts, v0=6.0)) is Decision.CHANGE_LANE_LEFT
        mirrored = [(-x, y) for x, y in pts]
        assert classify_decision(bare_scenario(mirrored, v0=6.0)) is Decision.CHANGE_LANE_RIGHT

    def test_stop_outranks_turning(self):
        wiggle = [(0, 0.05), (-0.05, 0.1), (-0.1, 0.1), (-0.1, 0.1), (-0.1, 0.1), (-0.1, 0.1)]
        assert classify_decision(bare_scenario(wiggle, v0=6.0)) is Decision.STOP

    def test_turn_outranks_lane_change(self):
        # ends far off-axis AND with a large heading change: reads as a turn
        left = [(0, 3), (-1.5, 5.6), (-3.0, 8.2), (-4.5, 10.8), (-6.0, 13.4), (-7.5, 16.0)]
        assert classify_decision(bare_scenario(left, v0=6.0)) is Decision.TURN_LEFT

    def test_ratio_thresholds_respect_margins(self):
        slow = bare_scenario([(0, 2.52 * i) for i in range(1, 7)], v0=6.0)
        assert classify_decision(slow) is Decision.DECELERATE  # ratio 0.84
        nearly = bare_scenario([(0, 2.58 * i) for i in range(1, 7)], v0=6.0)
        assert classify_decision(nearly) is Decision.KEEP_SPEED  # ratio 0.86

    def test_stationary_ego(self):
        moving = bare_scenario([(0, 2.0 * i) for i in range(1, 7)], v0=0.0)
        assert classify_decision(moving) is Decision.ACCELERATE
        still = bare_scenario([(0, 0)] * 6, v0=0.0)
        assert classify_decision(still) is Decision.KEEP_SPEED

    def test_custom_config_thresholds(self, monkeypatch):
        s = bare_scenario([(0, 1.5 * i) for i in range(1, 7)], v0=6.0)
        assert classify_decision(s) is Decision.DECELERATE  # ratio ~0.5
        monkeypatch.setattr(reasoning, "DECEL_RATIO", 0.4)
        assert classify_decision(s) is Decision.KEEP_SPEED


class TestComposition:
    def test_sections_rendered_in_order(self):
        s = bare_scenario([(0, 3 * i) for i in range(1, 7)])
        text = render_reasoning(compose_reasoning(s))
        i1 = text.index(SECTION_CRITICAL)
        i2 = text.index(SECTION_INTERACTION)
        i3 = text.index(SECTION_DECISION)
        assert i1 < i2 < i3

    def test_no_objects_reads_none(self):
        s = bare_scenario([(0, 3 * i) for i in range(1, 7)])
        trace = compose_reasoning(s)
        assert trace.critical_objects == ()
        assert "none." in render_reasoning(trace)

    def test_critical_object_text_mentions_distance_and_time(self):
        obj = DetectedObject("b1", "barrier", Waypoint(0.0, 9.0), 0.0, 2.0, 0.8)
        s = bare_scenario([(0, 3 * i) for i in range(1, 7)], objects=[obj])
        trace = compose_reasoning(s)
        assert "barrier [b1]" in trace.interaction_text
        assert "0.00 m" in trace.interaction_text
        assert "t=1.5 s" in trace.interaction_text

    def test_decision_token_leads_the_decision_line(self):
        s = bare_scenario([(0, 1.5 * i) for i in range(1, 7)], v0=6.0)
        trace = compose_reasoning(s)
        assert trace.decision_text.startswith("decelerate - ")

    def test_finetune_target_ends_with_exact_trajectory(self):
        from lmplan import serialize_trajectory, synth_scenario

        s = synth_scenario("lead_vehicle", 5)
        ex = make_finetune_example(s)
        assert ex.target_text.endswith(serialize_trajectory(s.human_trajectory))
        assert ex.scenario_id == s.id

    def test_finetune_target_keeps_its_codec(self):
        from lmplan import synth_scenario

        ex = make_finetune_example(synth_scenario("lead_vehicle", 3))
        # time stamps ("t=1.5 s") are printed at 0.1 s, apart from the codec
        numbers = re.findall(r"-?\d+\.(\d+)", re.sub(r"t=\d+\.\d s", "", ex.target_text))
        assert numbers
        assert all(len(frac) == 2 for frac in numbers), ex.target_text

    @pytest.mark.parametrize("kind", ["lead_vehicle", "crossing_pedestrian", "stationary_obstacle"])
    def test_pairs_match_the_shape_the_prompt_announces(self, kind):
        from lmplan import synth_scenario

        ex = make_finetune_example(synth_scenario(kind, 3))
        assert "Trajectory: [(x1,y1), (x2,y2), ...]" in ex.prompt.system_text
        assert "2 decimals each" in ex.prompt.system_text
        pair = r"\(-?\d+\.\d{2},-?\d+\.\d{2}\)"
        for text in (ex.prompt.user_text, ex.target_text):
            groups = re.findall(r"\([^()]*\d[^()]*\)", text)  # any parenthesised numbers
            assert groups
            assert all(re.fullmatch(pair, g) for g in groups), text
            lists = re.findall(r"\[(\([^\[\]]*)\]", text)  # not the "[o1]" id tags
            assert lists
            assert all(re.fullmatch(f"{pair}(, {pair})*", body) for body in lists), text


# --- the rollout and the critical-object scan as they were, kept as oracles ---

def closure_rollout(ego: EgoState, decimals: int = 2) -> Trajectory:
    """``rollout_hypothetical`` with its arc length in a closure, as it was."""
    v0 = max(0.0, ego.velocity)
    a = ego.acceleration
    kappa = ego.heading_rate / v0 if v0 > 1e-9 else 0.0

    def arc_at(t: float) -> float:
        if a < 0 and v0 + a * t < 0:
            t = -v0 / a
        return max(0.0, v0 * t + 0.5 * a * t * t)

    points = []
    for i in range(1, DEFAULT_HORIZON_STEPS + 1):
        s = arc_at(i * DEFAULT_DT)
        if abs(kappa) > 1e-9:
            x = (math.cos(kappa * s) - 1.0) / kappa
            y = math.sin(kappa * s) / kappa
        else:
            x, y = 0.0, s
        points.append(Waypoint(quantize(x, decimals), quantize(y, decimals)))
    return Trajectory(tuple(points))


def _bits(t: Trajectory):
    """Each coordinate's exact value, the sign of zero included."""
    return [(x.hex(), y.hex()) for x, y in t.waypoints]


def _oracle_egos(rng: random.Random):
    for kind in SYNTH_KINDS:  # every synth archetype x 200 seeds
        for seed in range(200):
            yield synth_scenario(kind, seed).ego
    for _ in range(1000):  # curved: heading_rate != 0, at any speed
        v0 = rng.choice((0.0, 1e-10, rng.uniform(0.0, 0.1), rng.uniform(0.0, 20.0)))
        w = rng.choice((-1, 1)) * rng.choice((1e-12, 1e-6, rng.uniform(0.0, 1.0)))
        yield EgoState(v0, rng.uniform(-3.0, 3.0), w)
    for _ in range(1000):  # braking to a stop inside the 3 s horizon, straight or curved
        v0 = rng.uniform(0.0, 15.0)
        a = -rng.uniform(v0 / 3.0, v0 * 4.0 + 1e-3)
        yield EgoState(v0, a, rng.choice((0.0, rng.uniform(-0.5, 0.5))))
    yield EgoState(-2.0, -1.0, 0.3)  # reversing speed clamps to 0
    yield EgoState(4.0, -2.0, 0.0)  # stops exactly at t = 2 s


def test_rollout_matches_the_closure_version():
    rng = random.Random(20261025)
    n = 0
    for ego in _oracle_egos(rng):
        assert _bits(rollout_hypothetical(ego)) == _bits(closure_rollout(ego)), ego
        n += 1
    for ego in list(_oracle_egos(random.Random(7)))[::50]:
        for decimals in (0, 1, 3):
            got = rollout_hypothetical(ego, decimals)
            assert _bits(got) == _bits(closure_rollout(ego, decimals)), (ego, decimals)
            assert all(type(w) is Waypoint for w in got.waypoints)
    assert n == 4 * 200 + 2000 + 2


def test_rollout_quantizes_both_coordinates_of_every_step(monkeypatch):
    calls = []

    def counting(v, decimals=2):
        calls.append(v)
        return quantize(v, decimals)

    monkeypatch.setattr(reasoning, "quantize", counting)
    for ego in (EgoState(6.0, 0.0, 0.0), EgoState(5.0, -4.0, 0.2)):
        calls.clear()
        rollout_hypothetical(ego)
        assert len(calls) == 2 * DEFAULT_HORIZON_STEPS


def step_by_step_critical_objects(s: Scenario, hypo: Trajectory):
    """``find_critical_objects`` with a ``Trajectory.point`` and a position
    lookup per step, as it was."""
    def position(obj, prediction, step):
        if prediction is not None and prediction.future:
            return prediction.future[min(step, len(prediction.future)) - 1]
        return obj.center

    by_id = {p.object_id: p for p in s.predictions}
    found = []
    for obj in s.objects:
        pred = by_id.get(obj.id)
        first, closest = None, math.inf
        for i in range(1, len(hypo) + 1):
            ego_p = hypo.point(i)
            obj_p = position(obj, pred, i)
            d = math.hypot(obj_p.x - ego_p.x, obj_p.y - ego_p.y)
            closest = min(closest, d)
            if first is None and d < reasoning.LATERAL_THRESHOLD:
                first = i
        if first is not None:
            found.append(
                reasoning.CriticalObject(
                    obj.id, obj.class_name, reasoning._relation(obj, pred), first, closest
                )
            )
    found.sort(key=lambda c: (c.first_conflict_step, c.min_distance, c.object_id))
    return tuple(found)


def test_critical_objects_match_the_step_by_step_version():
    rng = random.Random(20261026)
    for kind in SYNTH_KINDS:
        for seed in range(200):
            s = synth_scenario(kind, seed)
            preds = [
                PredictedMotion(p.object_id, p.future[: rng.randrange(len(p.future) + 1)])
                for p in s.predictions
            ]  # futures shorter than the horizon, or empty
            objects = list(s.objects) + [
                DetectedObject(f"x{i}", "cone", Waypoint(rng.uniform(-4, 4), rng.uniform(0, 20)),
                               0.0, 0.5, 0.5)
                for i in range(rng.randrange(3))
            ]
            for variant in (s, dataclasses.replace(s, objects=tuple(objects),
                                                   predictions=tuple(preds))):
                for hypo in (rollout_hypothetical(variant.ego), variant.human_trajectory,
                             Trajectory(variant.human_trajectory.waypoints[:3]), Trajectory(())):
                    got = find_critical_objects(variant, hypo)
                    assert got == step_by_step_critical_objects(variant, hypo), (kind, seed)
