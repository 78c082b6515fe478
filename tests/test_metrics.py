import json
import math
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import boxes_intersect_sampled, make_scenarios, random_box, traj
from lmplan import (
    EvalConfig,
    ObjectBox,
    ParseQuality,
    PlanRecord,
    Scenario,
    Waypoint,
    collision_steps,
    ego_boxes_along,
    evaluate_dataset,
    headings_along,
    obb_intersects,
    render_csv,
    render_markdown,
    rollout_hypothetical,
    sat_margin,
    score,
    summarize,
    synth_scenario,
)
from lmplan import metrics
from lmplan.scenario import DEFAULT_DT, DEFAULT_HORIZON_STEPS, SYNTH_KINDS, EgoState, Trajectory


def box(cx, cy, heading=0.0, length=4.0, width=2.0):
    return ObjectBox(Waypoint(cx, cy), heading, length, width)


GT_STRAIGHT = traj([(0, i) for i in range(1, 7)])  # dt 0.5, 6 steps


def scored(pred, gt=GT_STRAIGHT, boxes=()):
    """The one report row ``evaluate_dataset`` gives ``pred`` against ``gt``."""
    s = Scenario("a", EgoState(2.0, 0.0, 0.0), (), (), gt, boxes)
    return evaluate_dataset([s], [PlanRecord("a", pred)]).rows[0]


class TestL2:
    def test_identical_trajectories_score_zero(self):
        row = scored(GT_STRAIGHT)
        for h in (1.0, 2.0, 3.0):
            assert row.l2_at_step[h] == 0.0
            assert row.l2_cumulative[h] == 0.0

    def test_hand_fixture_both_conventions(self):
        row = scored(traj([(0.3 * i, i) for i in range(1, 7)]))
        for h, at, cum in ((1.0, 0.6, 0.45), (2.0, 1.2, 0.75), (3.0, 1.8, 1.05)):
            assert abs(row.l2_at_step[h] - at) < 1e-9
            assert abs(row.l2_cumulative[h] - cum) < 1e-9

    def test_error_uses_both_axes(self):
        row = scored(traj([(0, 1), (0.3, 2.4), (0, 3), (0, 4), (0, 5), (0, 6)]))
        assert abs(row.l2_at_step[1.0] - 0.5) < 1e-12  # step 2 is the 1 s cell

    def test_each_horizon_is_a_whole_step_of_the_plan(self):
        assert [h for h, _ in metrics._HORIZON_STEPS] == list(metrics.HORIZONS_S)
        for h, k in metrics._HORIZON_STEPS:
            assert k * DEFAULT_DT == h and 1 <= k <= DEFAULT_HORIZON_STEPS


class TestHeadings:
    def test_straight_ahead(self):
        hs = headings_along(GT_STRAIGHT)
        assert all(abs(h - math.pi / 2) < 1e-12 for h in hs)

    def test_rightward_path(self):
        t = traj([(1, 0), (2, 0), (3, 0)])
        assert all(abs(h) < 1e-12 for h in headings_along(t))

    def test_stopped_tail_keeps_last_heading(self):
        t = traj([(0, 1), (1, 1), (1, 1), (1, 1)])
        hs = headings_along(t)
        assert abs(hs[1]) < 1e-12
        assert hs[2] == hs[1] and hs[3] == hs[1]

    def test_fully_degenerate_uses_initial_heading(self, monkeypatch):
        monkeypatch.setattr(metrics, "INITIAL_HEADING", 0.25)
        t = traj([(0, 0), (0, 0)])
        assert headings_along(t) == [0.25, 0.25]


class TestOBB:
    def test_identical_boxes_intersect(self):
        a = box(0, 0)
        assert obb_intersects(a, a)

    def test_disjoint_boxes(self):
        assert not obb_intersects(box(0, 0), box(10, 0))

    def test_touching_edges_count_as_intersecting(self):
        # 4 m long boxes, centers 4 m apart: faces exactly touch
        assert obb_intersects(box(0, 0), box(4.0, 0))
        assert sat_margin(box(0, 0), box(4.0, 0)) == 0.0

    def test_hairline_separation(self):
        assert not obb_intersects(box(0, 0), box(4.001, 0))

    def test_rotated_corner_overlap(self):
        # diamond (45 deg) overlapping a square near its corner
        a = box(0, 0, 0.0, 2.0, 2.0)
        b = box(1.9, 0, math.pi / 4, 2.0, 2.0)
        assert obb_intersects(a, b)

    def test_axis_aligned_gap_but_diagonal_separation(self):
        # boxes whose axis projections overlap but a rotated face separates
        a = box(0, 0, 0.0, 4.0, 0.5)
        b = box(2.5, 1.2, math.pi / 3, 4.0, 0.5)
        assert obb_intersects(a, b) == boxes_intersect_sampled(a, b)

    def test_margin_symmetry(self):
        rng = random.Random(5)
        for _ in range(50):
            a, b = random_box(rng), random_box(rng)
            assert abs(sat_margin(a, b) - sat_margin(b, a)) < 1e-9

    def test_agrees_with_sampling_oracle_spot(self):
        rng = random.Random(12)
        checked = 0
        for _ in range(300):
            a, b = random_box(rng), random_box(rng)
            if abs(sat_margin(a, b)) <= 0.01:
                continue  # boundary band: sampling cannot resolve it
            checked += 1
            assert obb_intersects(a, b) == boxes_intersect_sampled(a, b)
        assert checked > 250


class TestCollision:
    def test_box_on_path_flags_that_step(self):
        gt_boxes = tuple(
            (box(0, 3.0),) if step == 2 else () for step in range(6)
        )
        flags = collision_steps(GT_STRAIGHT, gt_boxes)
        assert flags == [False, False, True, False, False, False]

    def test_no_boxes_no_collisions(self):
        assert collision_steps(GT_STRAIGHT, ()) == [False] * 6

    def test_ego_box_dimensions_matter(self, monkeypatch):
        # obstacle 1.4 m to the side: hit with a wide ego, missed when narrow
        gt_boxes = ((box(1.4, 1.0, 0.0, 0.4, 0.4),),) + ((),) * 5
        monkeypatch.setattr(metrics, "EGO_WIDTH", 2.5)
        wide = collision_steps(GT_STRAIGHT, gt_boxes)
        monkeypatch.setattr(metrics, "EGO_WIDTH", 1.0)
        narrow = collision_steps(GT_STRAIGHT, gt_boxes)
        assert wide[0] and not narrow[0]

    @pytest.mark.parametrize(
        "points",
        [[(math.inf, math.inf), (math.inf, -math.inf)], [(math.nan, 1.0), (0.0, 2.0)]],
        ids=["inf", "nan"],
    )
    def test_non_finite_waypoint_is_a_value_error(self, points):
        # at (inf, inf), (inf, -inf) the full test once flagged step 2 (a NaN
        # heading makes every SAT term NaN) and the broad phase would not
        t = traj(points + [(0.0, float(i)) for i in range(3, 7)])
        gt_boxes = ((box(0.0, 1.0),), (box(0.0, 2.0),)) + ((),) * 4
        for boxes in (gt_boxes, ()):
            with pytest.raises(ValueError, match="coordinates must be finite"):
                collision_steps(t, boxes)

    def test_ego_boxes_follow_path_heading(self):
        t = traj([(0, 1), (1, 2), (2, 3)])
        boxes = ego_boxes_along(t)
        assert abs(boxes[1].heading - math.pi / 4) < 1e-12
        assert boxes[0].center.y == 1


def full_collision_steps(t, gt_boxes):
    """The reference: the separating-axis test on every pair, any() per step."""
    if not gt_boxes:
        return [False] * len(t)
    return [
        any(obb_intersects(ego, b) for b in (gt_boxes[i] if i < len(gt_boxes) else ()))
        for i, ego in enumerate(ego_boxes_along(t))
    ]


def half_diagonal(length, width):
    return 0.5 * math.hypot(length, width)


def corners(b):
    c, s = math.cos(b.heading), math.sin(b.heading)
    hl, hw = b.length / 2, b.width / 2
    return [
        (b.center.x + u * hl * c - v * hw * s, b.center.y + u * hl * s + v * hw * c)
        for u, v in ((1, 1), (-1, 1), (-1, -1), (1, -1))
    ]


def point_segment_distance(p, a, b):
    abx, aby = b[0] - a[0], b[1] - a[1]
    t = ((p[0] - a[0]) * abx + (p[1] - a[1]) * aby) / (abx * abx + aby * aby)
    t = min(1.0, max(0.0, t))
    return math.hypot(p[0] - a[0] - t * abx, p[1] - a[1] - t * aby)


def polygon_distance(a, b):
    """Distance between two disjoint boxes: the nearest corner-to-edge pair."""
    ca, cb = corners(a), corners(b)
    return min(
        point_segment_distance(p, q[k], q[(k + 1) % 4])
        for ps, q in ((ca, cb), (cb, ca))
        for p in ps
        for k in range(4)
    )


def sized_box(rng, cx=0.0, cy=0.0, spread=15.0):
    return ObjectBox(
        Waypoint(cx + rng.uniform(-spread, spread), cy + rng.uniform(-spread, spread)),
        rng.uniform(-math.pi, math.pi),
        rng.uniform(0.05, 12.0),
        rng.uniform(0.05, 12.0),
    )


def shifted(t, dx, dy):
    return Trajectory(tuple(Waypoint(w.x + dx, w.y + dy) for w in t.waypoints))


class TestBroadPhase:
    """``collision_steps`` skips far boxes; its flags must be the full test's."""

    def test_synth_scenes_match_the_full_test(self):
        hits = 0
        for kind in SYNTH_KINDS:
            for seed in range(200):
                s = synth_scenario(kind, seed)
                rollout = rollout_hypothetical(s.ego)
                plans = [s.human_trajectory, rollout] + [
                    shifted(rollout, dx, dy) for dx, dy in ((0.5, 0), (-0.5, 0), (0, 0.5), (0, -0.5))
                ]
                for t in plans:
                    want = full_collision_steps(t, s.gt_object_boxes)
                    assert collision_steps(t, s.gt_object_boxes) == want, (kind, seed)
                    hits += sum(want)
        assert hits > 100

    def test_crowded_scenes_match_the_full_test(self):
        rng = random.Random(14)
        hits = 0
        for _ in range(60):
            t = traj([(rng.uniform(-3, 3) * i, 2.0 * i) for i in range(1, 7)])
            gt_boxes = tuple(
                tuple(sized_box(rng, w.x, w.y) for _ in range(rng.randint(30, 60)))
                for w in t.waypoints
            )
            want = full_collision_steps(t, gt_boxes)
            assert collision_steps(t, gt_boxes) == want
            hits += sum(want)
        assert 0 < hits < 360

    @pytest.mark.parametrize("corner_to_corner", [False, True])
    def test_pairs_at_the_reach(self, monkeypatch, corner_to_corner):
        # center distance = sum of half-diagonals + eps; corner to corner, the
        # boxes overlap for eps < 0 and are apart for eps > 0
        rng = random.Random(2 + corner_to_corner)
        eps_values = [0.0] + [s * e for e in (1e-12, 1e-9, 1e-7, 1e-6, 1e-5) for s in (1, -1)]
        hits = misses = 0
        for _ in range(150):
            monkeypatch.setattr(metrics, "EGO_LENGTH", rng.uniform(0.05, 12.0))
            monkeypatch.setattr(metrics, "EGO_WIDTH", rng.uniform(0.05, 12.0))
            t = traj([(rng.uniform(-50, 50), rng.uniform(-50, 50)) for _ in range(6)])
            for eps_row in range(0, len(eps_values), 6):
                steps = []
                for ego, eps in zip(ego_boxes_along(t), eps_values[eps_row:eps_row + 6]):
                    length, width = rng.uniform(0.05, 12.0), rng.uniform(0.05, 12.0)
                    reach = half_diagonal(ego.length, ego.width) + half_diagonal(length, width)
                    if corner_to_corner:
                        # along the ego's corner direction, the box's corner facing back
                        away = ego.heading + math.atan2(ego.width, ego.length)
                        heading = away + math.pi - math.atan2(width, length)
                    else:
                        away = rng.uniform(-math.pi, math.pi)
                        heading = rng.uniform(-math.pi, math.pi)
                    d = reach + eps
                    center = Waypoint(
                        ego.center.x + d * math.cos(away), ego.center.y + d * math.sin(away)
                    )
                    steps.append((ObjectBox(center, heading, length, width),))
                steps = tuple(steps)
                want = full_collision_steps(t, steps)
                assert collision_steps(t, steps) == want
                hits += sum(want)
                misses += len(want) - sum(want)
        assert misses > 0
        if corner_to_corner:
            assert hits > 0

    @pytest.mark.parametrize(
        "center", [(4.0, 0.0), (1.0, 1.5), (4.0, 1.5), (-2.0, -1.5)],
        ids=["face_x", "face_y", "corner", "corner_behind"],
    )
    def test_touching_boxes_collide(self, monkeypatch, center):
        # dyadic sizes on a path along +x, so the margin is exactly 0.0
        monkeypatch.setattr(metrics, "EGO_LENGTH", 4.0)
        monkeypatch.setattr(metrics, "EGO_WIDTH", 2.0)
        t = traj([(i, 0) for i in range(1, 7)])
        b = box(*center, 0.0, 2.0, 1.0)
        assert sat_margin(ego_boxes_along(t)[0], b) == 0.0
        assert collision_steps(t, ((b,),) + ((),) * 5) == [True] + [False] * 5

    def test_sat_margin_is_at_least_distance_over_root_2(self):
        rng = random.Random(7)
        checked = 0
        for i in range(20000):
            if i % 4:
                a, b = sized_box(rng, spread=10.0), sized_box(rng, spread=10.0)
            else:  # two axis-aligned squares on a diagonal: the bound is tight
                gap = rng.uniform(1e-6, 3.0)
                a = box(0.0, 0.0, 0.0, 2.0, 2.0)
                b = box(2.0 + gap, 2.0 + gap * rng.uniform(0.5, 2.0), 0.0, 2.0, 2.0)
            margin = sat_margin(a, b)
            if margin <= 0.0:
                continue
            dist = polygon_distance(a, b)
            assert dist / math.sqrt(2) - 1e-12 <= margin <= dist + 1e-12
            checked += 1
        assert checked > 10000


def scenario_for_eval(sid, gt_boxes=()):
    human = GT_STRAIGHT
    return Scenario(sid, EgoState(2.0, 0.0, 0.0), (), (), human, gt_boxes)


class TestEvaluateDataset:
    def test_perfect_plan_scores_zero(self):
        scenarios = [scenario_for_eval(f"s{i}") for i in range(4)]
        records = [PlanRecord(s.id, s.human_trajectory, "clean") for s in scenarios]
        report = evaluate_dataset(scenarios, records)
        for key in ("l2_at_step", "l2_cumulative", "collision_at_step", "collision_cumulative"):
            assert report.summary[key]["avg"] == 0.0
        assert report.parse_failures == 0
        assert report.evaluated == 4

    def test_summary_cells_are_row_means_bit_for_bit(self):
        rng = random.Random(3)
        scenarios = make_scenarios(200)
        records = [
            PlanRecord(s.id, traj([(x + rng.gauss(0, 0.7), y + rng.gauss(0, 0.7))
                                   for x, y in s.human_trajectory.waypoints]))
            for s in scenarios[:-10]  # the last 10 fall back to the rollout
        ]
        report = evaluate_dataset(scenarios, records)
        n = len(report.rows)
        for key in ("l2_at_step", "l2_cumulative", "collision_at_step", "collision_cumulative"):
            want = {h: sum(float(getattr(r, key)[h]) for r in report.rows) / n
                    for h in (1.0, 2.0, 3.0)}
            want["avg"] = sum(want.values()) / 3
            assert report.summary[key] == want
        assert 0 < report.summary["collision_at_step"][3.0] < 1

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            evaluate_dataset([], [])

    def test_missing_record_counts_as_parse_failure_and_substitutes(self):
        scenarios = [scenario_for_eval("a"), scenario_for_eval("b")]
        records = [PlanRecord("a", scenarios[0].human_trajectory, "clean")]
        report = evaluate_dataset(scenarios, records)
        assert report.parse_failures == 1
        assert report.unplanned == 1
        assert report.fallbacks_substituted == 1
        assert report.evaluated == 2
        row_b = next(r for r in report.rows if r.scenario_id == "b")
        assert row_b.used_fallback and not row_b.planned
        # ego at 2 m/s vs human at 2 m/s: the substitute matches exactly
        assert row_b.l2_at_step[3.0] == 0.0

    def test_records_with_no_scenario_are_counted_and_change_no_row(self):
        scenarios = [scenario_for_eval("a"), scenario_for_eval("b")]
        planned = [PlanRecord("a", scenarios[0].human_trajectory, "clean")]
        foreign = [PlanRecord("x"), PlanRecord("y", GT_STRAIGHT, "clean")]
        alone = evaluate_dataset(scenarios, planned)
        report = evaluate_dataset(scenarios, iter(foreign + planned))  # any iterable of records
        assert (alone.unmatched, report.unmatched, report.unplanned) == (0, 2, 1)
        assert repr(report.rows) == repr(alone.rows)
        assert render_markdown(report) == render_markdown(alone)

    def test_exclude_policy_drops_failed_rows(self):
        scenarios = [scenario_for_eval("a"), scenario_for_eval("b")]
        records = [PlanRecord("a", scenarios[0].human_trajectory, "clean")]
        report = evaluate_dataset(scenarios, records, EvalConfig(fallback_policy="exclude"))
        assert report.parse_failures == 1
        assert report.unplanned == 1
        assert report.fallbacks_substituted == 0
        assert report.evaluated == 1
        assert [r.scenario_id for r in report.rows] == ["a"]

    def test_record_off_the_horizon_is_a_value_error(self):
        scenarios = [scenario_for_eval("a")]
        with pytest.raises(ValueError, match="trajectory has 3 waypoints, expected 6"):
            evaluate_dataset(scenarios, [PlanRecord("a", traj([(0, 1), (0, 2), (0, 3)]), "clean")])

    def test_short_human_trajectory_is_a_value_error(self):
        s = Scenario("a", EgoState(2.0, 0.0, 0.0), (), (), traj([(0, i) for i in range(1, 6)]))
        for records in ([PlanRecord("a", GT_STRAIGHT, "clean")], []):  # a plan, or the fallback
            with pytest.raises(ValueError, match="'a': human_trajectory has 5 waypoints"):
                evaluate_dataset([s], records)

    def test_non_finite_record_is_a_value_error(self):
        scenarios = [scenario_for_eval("a", ((box(0.0, 100.0),),) * 6)]
        plan = traj([(math.nan, float(i)) for i in range(1, 7)])
        with pytest.raises(ValueError, match="coordinates must be finite"):
            evaluate_dataset(scenarios, [PlanRecord("a", plan, "clean")])

    def test_null_trajectory_record_is_a_parse_failure(self):
        scenarios = [scenario_for_eval("a")]
        records = [PlanRecord("a", None, "failed")]
        report = evaluate_dataset(scenarios, records)
        assert report.parse_failures == 1
        assert report.unplanned == 0 and report.rows[0].planned

    def test_permutation_invariance_byte_identical(self):
        scenarios = make_scenarios(10)
        records = [PlanRecord(s.id, s.human_trajectory, "clean") for s in scenarios]
        fwd = evaluate_dataset(scenarios, records)
        rng = random.Random(3)
        shuffled_s, shuffled_r = list(scenarios), list(records)
        rng.shuffle(shuffled_s)
        rng.shuffle(shuffled_r)
        rev = evaluate_dataset(shuffled_s, shuffled_r)
        assert render_markdown(fwd) == render_markdown(rev)
        assert render_csv(fwd) == render_csv(rev)

    def test_repeated_record_id_is_a_value_error_in_either_order(self):
        s = synth_scenario("lead_vehicle", 3)
        a = PlanRecord(s.id, s.human_trajectory, "clean")
        b = PlanRecord(s.id, rollout_hypothetical(s.ego), "recovered")
        for records in ([a, b], [b, a]):
            with pytest.raises(ValueError, match=f"duplicate scenario_id {s.id!r}"):
                evaluate_dataset([s], records)

    def test_repeated_scenario_id_is_a_value_error(self):
        s = synth_scenario("lead_vehicle", 3)
        others = [synth_scenario("empty_road", 1), synth_scenario("stationary_obstacle", 2)]
        rec = PlanRecord(s.id, s.human_trajectory, "clean")
        for scenarios in ([s, s], [others[0], s, others[1], s]):
            with pytest.raises(ValueError) as e:
                evaluate_dataset(scenarios, [rec])
            assert str(e.value) == f"duplicate scenario id {s.id!r} in the scenarios"

    def test_collision_counted_against_gt_boxes(self):
        gt_boxes = tuple(
            (box(0.0, 6.0, 0.0, 0.6, 0.6),) if step == 5 else () for step in range(6)
        )
        s = scenario_for_eval("c", gt_boxes)
        # human GT passes through (0,6) at step 6; plan a clear path instead
        clear = traj([(-3, i) for i in range(1, 7)])
        report_hit = evaluate_dataset(
            [s], [PlanRecord("c", s.human_trajectory, "clean")]
        )
        report_clear = evaluate_dataset([s], [PlanRecord("c", clear, "clean")])
        assert report_hit.summary["collision_at_step"][3.0] == 1.0
        assert report_clear.summary["collision_at_step"][3.0] == 0.0

    def test_exclude_gt_collisions_masks_label_artifacts(self):
        gt_boxes = tuple(
            (box(0.0, 6.0, 0.0, 0.6, 0.6),) if step == 5 else () for step in range(6)
        )
        s = scenario_for_eval("c", gt_boxes)
        records = [PlanRecord("c", s.human_trajectory, "clean")]
        strict = evaluate_dataset([s], records)
        masked = evaluate_dataset([s], records, EvalConfig(exclude_gt_collisions=True))
        assert strict.summary["collision_at_step"][3.0] == 1.0
        assert masked.summary["collision_at_step"][3.0] == 0.0

    def test_fallback_policy_validation(self):
        with pytest.raises(ValueError):
            EvalConfig(fallback_policy="made_up")


def noisy_records(scenarios, seed):
    """No record for every seventh scenario, no trajectory for every fifth, else a noisy plan."""
    rng = random.Random(seed)
    records = []
    for i, s in enumerate(scenarios):
        if i % 7 == 3:
            continue
        plan = None if i % 5 == 1 else traj(
            [(x + rng.gauss(0, 0.7), y + rng.gauss(0, 0.7)) for x, y in s.human_trajectory.waypoints])
        records.append(PlanRecord(s.id, plan, "failed" if plan is None else "clean"))
    return records


class TestScoreAndSummarize:
    def test_score_gives_every_scenario_a_row_whatever_the_policy(self):
        scenarios = make_scenarios(12)
        records = noisy_records(scenarios, 1)
        rows = score(reversed(scenarios), records, EvalConfig())
        assert repr(score(scenarios, records, EvalConfig(fallback_policy="exclude"))) == repr(rows)
        by_id = {r.scenario_id: r for r in records}
        assert [r.scenario_id for r in rows] == sorted(s.id for s in scenarios)
        for row in rows:
            rec = by_id.get(row.scenario_id)
            assert row.planned == (rec is not None)
            assert row.used_fallback == (rec is None or rec.trajectory is None)

    @pytest.mark.parametrize("policy", metrics.FALLBACK_POLICIES)
    def test_an_archetypes_summary_is_its_report_alone_bit_for_bit(self, policy):
        cfg = EvalConfig(fallback_policy=policy)
        scenarios = make_scenarios(80)
        records = noisy_records(scenarios, 2)
        report = evaluate_dataset(scenarios, records, cfg)
        assert repr(summarize(report.rows)) == repr(report.summary)
        for kind in SYNTH_KINDS:
            group = [s for s in scenarios if s.id.startswith(kind + "-")]
            rows = [r for r in report.rows if r.scenario_id.startswith(kind + "-")]
            assert len(group) == 20 and rows
            alone = evaluate_dataset(group, records, cfg)
            assert repr(summarize(rows)) == repr(alone.summary), kind

    def test_no_rows_summarize_to_nan(self):
        summary = summarize(())
        assert all(math.isnan(v) for per_h in summary.values() for v in per_h.values())
        assert list(summary["l2_at_step"]) == [1.0, 2.0, 3.0, "avg"]


class TestRenderers:
    def make_report(self):
        scenarios = make_scenarios(6)
        records = [PlanRecord(s.id, s.human_trajectory, "clean") for s in scenarios]
        return evaluate_dataset(scenarios, records)

    def test_markdown_shape(self):
        md = render_markdown(self.make_report())
        assert "| Metric | 1s | 2s | 3s | Avg |" in md
        assert "| L2 at step (m) | 0.00 | 0.00 | 0.00 | 0.00 |" in md
        assert "Collision cumulative (%)" in md
        assert "template hash:" in md and "config hash:" in md

    def test_csv_shape(self):
        report = self.make_report()
        lines = render_csv(report).strip().splitlines()
        header = lines[0].split(",")
        assert header[:3] == ["scenario_id", "parse_quality", "used_fallback"]
        assert "l2_at_step_1s" in header and "collision_cumulative_3s" in header
        assert len(lines) == 1 + report.evaluated + 1
        assert lines[-1].startswith("__mean__")
        values = lines[1].split(",")
        assert values[3] == "0.000000"

    def test_hashes_stable(self):
        a, b = self.make_report(), self.make_report()
        assert a.config_hash == b.config_hash
        assert a.template_hash == b.template_hash
        assert EvalConfig().hash() != EvalConfig(exclude_gt_collisions=True).hash()


# quotes, backslashes, control and line-break characters, non-ASCII, lone surrogates
_AWKWARD = st.sampled_from('"\\/\x00\x1f\x7f\n\r\u2028\xe9\u6f22\U0001f600\ud800\udfff')
# a high surrogate followed by a low one, as two characters, reads back as
# the one character they escape together; a reply decoded from JSON or UTF-8
# never holds such a pair
_TEXT = st.text(_AWKWARD | st.characters(blacklist_categories=()), max_size=30).filter(
    lambda t: re.search("[\ud800-\udbff][\udc00-\udfff]", t) is None
)
_COORD = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [0.0, -0.0, 5e-324, -2.5e-310, 1e300, -1e300]
)

class _Label(str):
    """A str subclass: json writes it as the string it holds."""


# a string as it comes, or the same text in a str subclass
_ANY_TEXT = _TEXT | _TEXT.map(_Label)
_TRAJECTORY = st.lists(st.builds(Waypoint, _COORD, _COORD), min_size=6, max_size=6).map(
    lambda points: Trajectory(tuple(points))
)


def _no_constant(name):
    raise AssertionError(f"{name} in a results line")


@settings(max_examples=300, deadline=None)
@given(record=st.builds(PlanRecord, _ANY_TEXT, st.none() | _TRAJECTORY,
                        st.sampled_from([*ParseQuality, *(q.value for q in ParseQuality)]),
                        _ANY_TEXT))
def test_plan_record_round_trips_through_its_line(record):
    assert type(record.parse_quality) is ParseQuality  # a value string is coerced
    line = record.to_line()
    # the bytes of the json.dumps call the line was first written with
    traj = record.trajectory
    points = None if traj is None else [[w.x, w.y] for w in traj.waypoints]
    row = {"scenario_id": record.scenario_id, "raw_text": record.raw_text,
           "parse_quality": record.parse_quality, "trajectory": points}
    assert line == json.dumps(row, separators=(",", ":"), ensure_ascii=False) + "\n"
    json.loads(line, parse_constant=_no_constant)  # no NaN, Infinity or -Infinity
    # encoded as ``plan`` writes it: a lone surrogate becomes its JSON escape
    back = PlanRecord.from_line(line.encode("utf-8", "backslashreplace"))
    assert back == record
    assert hash(back) == hash(record)
    assert repr(back) == repr(record)  # -0.0 keeps its sign


@pytest.mark.parametrize(
    "field, value",
    [
        ("parse_quality", "bogus"),
        ("parse_quality", "clean,1\nx"),
        ("parse_quality", ["clean"]),
        ("trajectory", [[0.0, 1.0], [0.0, 2.0], [0.0, 3.0]]),
        ("trajectory", [[math.nan, 1.0]] + [[0.0, 1.0]] * 5),
        ("trajectory", [[0.0, 1.0]] * 5 + [[0.0, -math.inf]]),
        ("trajectory", [[0, 1], [0, 2], [0, 3]]),
        ("trajectory", [[0, 1]] * 5 + [[math.nan, 1]]),
        ("scenario_id", 5),
        ("raw_text", ["a"]),
    ],
    ids=["unknown_quality", "csv_breaking_quality", "non_string_quality", "short", "nan", "inf",
         "int_pairs_short", "int_pairs_nan", "int_id", "non_string_raw_text"],
)
def test_a_bad_field_is_refused_as_its_line_is(field, value):
    fields = {"scenario_id": "a", "trajectory": None, "parse_quality": "clean", "raw_text": ""}
    with pytest.raises(ValueError) as built:
        PlanRecord(**{**fields, field: traj(value) if field == "trajectory" else value})
    with pytest.raises(ValueError) as read:
        PlanRecord.from_line(json.dumps({**fields, field: value}).encode())
    assert str(built.value) == str(read.value)


_PAIRS = [[0.0, float(i)] for i in range(1, 7)]


@pytest.mark.parametrize(
    "points",
    [
        [[0, i] for i in range(1, 7)],
        [[0, 1.0], [0.0, 2], [0, 3], [0.0, 4.0], [0, 5], [0.0, 6]],
        [[-0, 1], *_PAIRS[1:]],
    ],
    ids=["int_pairs", "mixed_pairs", "negative_zero_int"],
)
def test_int_pairs_in_a_line_read_as_floats(points):
    line = json.dumps({"scenario_id": "a", "trajectory": points}).encode()
    record = PlanRecord.from_line(line)
    assert record == PlanRecord("a", traj(points))
    assert {type(v) for w in record.trajectory.waypoints for v in w} == {float}


def test_an_int_literal_minus_zero_reads_as_the_float_literal_does():
    lines = [b'{"scenario_id":"a","trajectory":[[%s,1]' % zero + b",[0,1]" * 5 + b"]}"
             for zero in (b"-0", b"-0.0")]
    a, b = map(PlanRecord.from_line, lines)
    assert repr(a) == repr(b) and math.copysign(1.0, a.trajectory.waypoints[0].x) == -1.0


@pytest.mark.parametrize("value", ["-0", "1e999", "9" * 401, "9" * 5001],
                         ids=["minus_zero", "1e999", "401_digits", "5001_digits"])
def test_an_unknown_field_is_ignored_whatever_number_it_holds(value):
    # json reads every number as a float, so no literal, however long, is refused
    line = f'{{"scenario_id":"a","extra":{value}}}'.encode()
    assert PlanRecord.from_line(line) == PlanRecord("a")


@pytest.mark.parametrize(
    "points",
    [
        [[True, 1.0], *_PAIRS[1:]],
        [*_PAIRS[:5], [0.0, False]],
        [[0.0, 1.0, 2.0], *_PAIRS[1:]],
        [*_PAIRS[:5], [6.0]],
        [["0.0", 1.0], *_PAIRS[1:]],
        [*_PAIRS[:5], [0.0, None]],
        [*_PAIRS[:5], 5],
        [*_PAIRS[:5], "ab"],
        [*_PAIRS[:5], {"x": 0.0, "y": 6.0}],
        {"0": [0.0, 1.0]},
        "[[0.0, 1.0]]",
    ],
    ids=["true_coordinate", "false_coordinate", "three_numbers", "one_number",
         "string_coordinate", "null_coordinate", "number_for_a_pair", "string_for_a_pair",
         "object_for_a_pair", "object", "string"],
)
def test_a_line_trajectory_off_the_fast_path_is_refused(points):
    # a record built in code cannot hold these; the line's message is the one for any bad shape
    line = json.dumps({"scenario_id": "a", "trajectory": points}).encode()
    with pytest.raises(ValueError, match=r"^trajectory must be a list of \[x, y\] number pairs$"):
        PlanRecord.from_line(line)


@pytest.mark.parametrize(
    "trajectory",
    [
        [[0.0, float(i)] for i in range(1, 7)],
        Trajectory([Waypoint(0.0, float(i)) for i in range(1, 7)]),
        Trajectory(tuple((0.0, float(i)) for i in range(1, 7))),
        Trajectory(tuple(Waypoint(0, i) for i in range(1, 7))),
        Trajectory(tuple(Waypoint(True, float(i)) for i in range(1, 7))),
    ],
    ids=["list", "waypoint_list", "plain_tuples", "int_coordinates", "bool_coordinates"],
)
def test_a_trajectory_must_hold_float_waypoints(trajectory):
    # each would write no line, a line that from_line refuses, one that reads
    # back as floats, or (a list of waypoints) an unhashable record that reads back as a tuple
    with pytest.raises(ValueError, match="^trajectory must be a Trajectory of float Waypoints$"):
        PlanRecord("a", trajectory, "clean")


def test_float_subclass_waypoints_in_a_trajectory_subclass_are_kept():
    # json writes a float subclass as the float it is, whatever its own repr,
    # so the line reads back equal
    class Metres(float):
        def __repr__(self):
            return f"Metres({float(self)!r})"

    class Path(Trajectory):
        pass

    record = PlanRecord("a", Path(tuple(Waypoint(Metres(0.5), Metres(i)) for i in range(1, 7))),
                        "clean")
    assert PlanRecord.from_line(record.to_line().encode()).trajectory.waypoints == \
        record.trajectory.waypoints
