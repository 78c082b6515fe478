import math
import random

import pytest

from helpers import boxes_intersect_sampled, make_scenarios, random_box, traj
from lmplan import (
    EgoDims,
    EvalConfig,
    ObjectBox,
    PlanRecord,
    Scenario,
    Waypoint,
    collision_steps,
    ego_boxes_along,
    evaluate_dataset,
    headings_along,
    l2_at_horizon,
    obb_intersects,
    render_csv,
    render_markdown,
    sat_margin,
)
from lmplan.scenario import EgoState


def box(cx, cy, heading=0.0, length=4.0, width=2.0):
    return ObjectBox(Waypoint(cx, cy), heading, length, width)


GT_STRAIGHT = traj([(0, i) for i in range(1, 7)])  # dt 0.5, 6 steps


class TestL2:
    def test_identical_trajectories_score_zero(self):
        for h in (1.0, 2.0, 3.0):
            assert l2_at_horizon(GT_STRAIGHT, GT_STRAIGHT, h) == 0.0
            assert l2_at_horizon(GT_STRAIGHT, GT_STRAIGHT, h, "cumulative_mean") == 0.0

    def test_hand_fixture_both_conventions(self):
        pred = traj([(0.3 * i, i) for i in range(1, 7)])
        assert abs(l2_at_horizon(pred, GT_STRAIGHT, 1.0) - 0.6) < 1e-9
        assert abs(l2_at_horizon(pred, GT_STRAIGHT, 2.0) - 1.2) < 1e-9
        assert abs(l2_at_horizon(pred, GT_STRAIGHT, 3.0) - 1.8) < 1e-9
        cum = [l2_at_horizon(pred, GT_STRAIGHT, h, "cumulative_mean") for h in (1, 2, 3)]
        for got, want in zip(cum, (0.45, 0.75, 1.05)):
            assert abs(got - want) < 1e-9

    def test_error_uses_both_axes(self):
        pred = traj([(0.3, 1.4), (0, 2), (0, 3), (0, 4), (0, 5), (0, 6)])
        assert abs(l2_at_horizon(pred, GT_STRAIGHT, 0.5) - 0.5) < 1e-12

    def test_bad_horizon_rejected(self):
        with pytest.raises(ValueError):
            l2_at_horizon(GT_STRAIGHT, GT_STRAIGHT, 0.7)  # not a multiple of dt
        with pytest.raises(ValueError):
            l2_at_horizon(GT_STRAIGHT, GT_STRAIGHT, 4.0)  # beyond the horizon
        with pytest.raises(ValueError):
            l2_at_horizon(GT_STRAIGHT, GT_STRAIGHT, 1.0, "median")


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

    def test_fully_degenerate_uses_initial_heading(self):
        t = traj([(0, 0), (0, 0)])
        assert headings_along(t, initial_heading=0.25) == [0.25, 0.25]


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

    def test_ego_box_dimensions_matter(self):
        # obstacle 1.4 m to the side: hit with a wide ego, missed when narrow
        gt_boxes = ((box(1.4, 1.0, 0.0, 0.4, 0.4),),) + ((),) * 5
        wide = collision_steps(GT_STRAIGHT, gt_boxes, EgoDims(4.0, 2.5))
        narrow = collision_steps(GT_STRAIGHT, gt_boxes, EgoDims(4.0, 1.0))
        assert wide[0] and not narrow[0]

    def test_ego_boxes_follow_path_heading(self):
        t = traj([(0, 1), (1, 2), (2, 3)])
        boxes = ego_boxes_along(t)
        assert abs(boxes[1].heading - math.pi / 4) < 1e-12
        assert boxes[0].center.y == 1


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

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            evaluate_dataset([], [])

    def test_missing_record_counts_as_parse_failure_and_substitutes(self):
        scenarios = [scenario_for_eval("a"), scenario_for_eval("b")]
        records = [PlanRecord("a", scenarios[0].human_trajectory, "clean")]
        report = evaluate_dataset(scenarios, records)
        assert report.parse_failures == 1
        assert report.fallbacks_substituted == 1
        assert report.evaluated == 2
        row_b = next(r for r in report.rows if r.scenario_id == "b")
        assert row_b.used_fallback
        # ego at 2 m/s vs human at 2 m/s: the substitute matches exactly
        assert row_b.l2_at_step[3.0] == 0.0

    def test_exclude_policy_drops_failed_rows(self):
        scenarios = [scenario_for_eval("a"), scenario_for_eval("b")]
        records = [PlanRecord("a", scenarios[0].human_trajectory, "clean")]
        report = evaluate_dataset(scenarios, records, EvalConfig(fallback_policy="exclude"))
        assert report.parse_failures == 1
        assert report.fallbacks_substituted == 0
        assert report.evaluated == 1
        assert [r.scenario_id for r in report.rows] == ["a"]

    def test_record_off_the_horizon_is_a_value_error(self):
        scenarios = [scenario_for_eval("a")]
        records = [PlanRecord("a", traj([(0, 1), (0, 2), (0, 3)]), "clean")]
        with pytest.raises(ValueError, match="'a': trajectory has 3 waypoints, expected 6"):
            evaluate_dataset(scenarios, records)

    def test_null_trajectory_record_is_a_parse_failure(self):
        scenarios = [scenario_for_eval("a")]
        records = [PlanRecord("a", None, "failed")]
        report = evaluate_dataset(scenarios, records)
        assert report.parse_failures == 1

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
