import random

from helpers import make_scenarios
from lmplan import (
    Decision,
    ParseQuality,
    extract_decision,
    make_finetune_example,
    parse_plan_output,
    serialize_trajectory,
)

VALID = (
    "Critical objects: none.\n"
    "Interaction analysis: no conflicts; the extrapolated path stays clear.\n"
    "Decision: keep_speed - the path ahead is clear, hold the current pace.\n"
    "Trajectory: [(0.00,3.00), (0.00,6.00), (0.00,9.00), (0.00,12.00), (0.00,15.00), (0.00,18.00)]"
)


class TestCleanParsing:
    def test_canonical_output_is_clean(self):
        out = parse_plan_output(VALID, 6)
        assert out.quality is ParseQuality.CLEAN
        assert out.decision is Decision.KEEP_SPEED
        assert out.error is None
        assert [w.y for w in out.trajectory.waypoints] == [3, 6, 9, 12, 15, 18]

    def test_supervision_targets_parse_clean(self):
        for s in make_scenarios(12):
            ex = make_finetune_example(s)
            out = parse_plan_output(ex.target_text, len(s.human_trajectory))
            assert out.quality is ParseQuality.CLEAN
            assert [(w.x, w.y) for w in out.trajectory.waypoints] == [
                (w.x, w.y) for w in s.human_trajectory.waypoints
            ]

    def test_lowercase_labels_still_clean(self):
        out = parse_plan_output(VALID.lower(), 6)
        assert out.quality is ParseQuality.CLEAN

    def test_prose_after_the_list_is_tolerated(self):
        out = parse_plan_output(VALID + "\nThat is my plan.", 6)
        assert out.quality is ParseQuality.CLEAN

    def test_last_trajectory_section_wins(self):
        echoed = VALID.replace("(0.00,3.00)", "(9.99,9.99)") + "\n" + VALID
        out = parse_plan_output(echoed, 6)
        assert out.quality is ParseQuality.CLEAN
        assert out.trajectory.waypoints[0].x == 0.0


class TestRecovered:
    def test_bare_list_recovers(self):
        out = parse_plan_output("[(1.00,2.00), (3.00,4.00)]", 2)
        assert out.quality is ParseQuality.RECOVERED
        assert out.trajectory is not None

    def test_missing_sections_with_trajectory_label(self):
        text = "Trajectory: [(1.00,2.00), (3.00,4.00)]"
        out = parse_plan_output(text, 2)
        assert out.quality is ParseQuality.RECOVERED

    def test_pairs_scattered_across_lines(self):
        text = "step one (1.00,2.00)\nstep two (3.00,4.00)\n"
        out = parse_plan_output(text, 2)
        assert out.quality is ParseQuality.RECOVERED
        assert [w.x for w in out.trajectory.waypoints] == [1.0, 3.0]

    def test_unbracketed_after_label(self):
        text = "Critical objects: none.\nInteraction analysis: -\nDecision: stop\n" \
               "Trajectory: (1.00,2.00), (3.00,4.00)"
        out = parse_plan_output(text, 2)
        assert out.quality is ParseQuality.RECOVERED
        assert out.decision is Decision.STOP


class TestFailed:
    def test_garbage(self):
        out = parse_plan_output("no coordinates at all", 6)
        assert out.quality is ParseQuality.FAILED
        assert out.trajectory is None
        assert "expected 6" in out.error

    def test_wrong_pair_count_reports_found(self):
        out = parse_plan_output("Trajectory: [(1.00,2.00), (3.00,4.00)]", 6)
        assert out.quality is ParseQuality.FAILED
        assert "found 2, expected 6" in out.error

    def test_empty_string(self):
        out = parse_plan_output("", 6)
        assert out.quality is ParseQuality.FAILED
        assert out.decision is None

    def test_decision_still_extracted_on_failure(self):
        out = parse_plan_output("Decision: decelerate, softly.\nTrajectory: none", 6)
        assert out.quality is ParseQuality.FAILED
        assert out.decision is Decision.DECELERATE


class TestDecisionExtraction:
    def test_all_tokens_roundtrip(self):
        for d in Decision:
            assert extract_decision(f"Decision: {d.value} now.") is d

    def test_spaced_and_hyphenated_variants(self):
        assert extract_decision("Decision: change lane left.") is Decision.CHANGE_LANE_LEFT
        assert extract_decision("Decision: turn-right ahead.") is Decision.TURN_RIGHT
        assert extract_decision("Decision: Keep Speed") is Decision.KEEP_SPEED

    def test_earliest_token_wins(self):
        text = "Decision: decelerate now; do not stop."
        assert extract_decision(text) is Decision.DECELERATE

    def test_scoped_to_decision_section(self):
        text = (
            "Critical objects: stop sign [s1] at min distance 2.00 m.\n"
            "Interaction analysis: the stop sign requires a full stop.\n"
            "Decision: keep_speed - sign faces the cross street.\n"
        )
        assert extract_decision(text) is Decision.KEEP_SPEED

    def test_word_boundaries_respected(self):
        assert extract_decision("Decision: unstoppable progress") is None
        assert extract_decision("Decision: we will stop.") is Decision.STOP

    def test_no_section_returns_none(self):
        assert extract_decision("just stop") is None
        assert extract_decision("") is None

    def test_section_ends_at_blank_line(self):
        text = "Decision: proceed as planned\n\nstop everything"
        assert extract_decision(text) is None

    def test_last_decision_section_wins(self):
        text = "Decision: stop\nDecision: accelerate"
        assert extract_decision(text) is Decision.ACCELERATE


class TestTotality:
    ADVERSARIAL = [
        "[",
        "]",
        "((((((",
        "Trajectory:",
        "Trajectory: [",
        "Trajectory: [()]",
        "(1,)" * 50,
        "(" + "9" * 500 + "," + "9" * 500 + ")",
        "[(1e99999,2.0)]",
        "\x00\x01\x02",
        "Decision: " + "a" * 10000,
        "Trajectory: [(1.00,2.00), (3.00,4.00)" * 40,
        "  ﻿Trajectory: oops",
        "-.-.-.-,.,.,",
    ]

    def test_never_raises_on_adversarial_inputs(self):
        for text in self.ADVERSARIAL:
            out = parse_plan_output(text, 6)
            assert out.quality in (ParseQuality.FAILED, ParseQuality.RECOVERED, ParseQuality.CLEAN)

    def test_fuzz_smoke(self):
        rng = random.Random(99)
        corpus = [VALID, "Trajectory: [(1.00,2.00)]", "Decision: stop"]
        for _ in range(2000):
            if rng.random() < 0.5:
                text = bytes(rng.randrange(256) for _ in range(rng.randrange(120))).decode(
                    "latin-1"
                )
            else:
                text = list(rng.choice(corpus))
                for _ in range(rng.randrange(8)):
                    op = rng.randrange(3)
                    pos = rng.randrange(max(1, len(text)))
                    if op == 0 and text:
                        del text[pos % len(text)]
                    elif op == 1:
                        text.insert(pos, chr(rng.randrange(32, 127)))
                    elif text:
                        text[pos % len(text)] = chr(rng.randrange(256))
                text = "".join(text)
            parse_plan_output(text, 6)  # must not raise


def test_round_trip_serialize_then_parse():
    from helpers import traj

    t = traj([(0.25, 1.75), (-3.5, 8.0)])
    text = f"Trajectory: {serialize_trajectory(t)}"
    out = parse_plan_output(text, 2)
    assert [(w.x, w.y) for w in out.trajectory.waypoints] == [(0.25, 1.75), (-3.5, 8.0)]
