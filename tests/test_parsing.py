import random
import re

from helpers import make_scenarios
from lmplan import (
    BackendConfig,
    Decision,
    ParseQuality,
    PlanOutput,
    TrajectoryParseError,
    complete,
    make_finetune_example,
    parse_plan_output,
    parse_trajectory,
    serialize_trajectory,
)
from lmplan.prompts import SECTION_DECISION, SECTION_LABELS, SECTION_TRAJECTORY

VALID = (
    "Critical objects: none.\n"
    "Interaction analysis: no conflicts; the extrapolated path stays clear.\n"
    "Decision: keep_speed - the path ahead is clear, hold the current pace.\n"
    "Trajectory: [(0.00,3.00), (0.00,6.00), (0.00,9.00), (0.00,12.00), (0.00,15.00), (0.00,18.00)]"
)
# VALID's six pairs, bracketed and bare
LIST = VALID[VALID.rindex("["):]
PAIRS = LIST[1:-1]


class TestCleanParsing:
    def test_canonical_output_is_clean(self):
        out = parse_plan_output(VALID)
        assert out.quality is ParseQuality.CLEAN
        assert out.decision is Decision.KEEP_SPEED
        assert out.error is None
        assert [w.y for w in out.trajectory.waypoints] == [3, 6, 9, 12, 15, 18]

    def test_supervision_targets_parse_clean(self):
        for s in make_scenarios(12):
            ex = make_finetune_example(s)
            out = parse_plan_output(ex.target_text)
            assert out.quality is ParseQuality.CLEAN
            assert [(w.x, w.y) for w in out.trajectory.waypoints] == [
                (w.x, w.y) for w in s.human_trajectory.waypoints
            ]

    def test_lowercase_labels_still_clean(self):
        out = parse_plan_output(VALID.lower())
        assert out.quality is ParseQuality.CLEAN

    def test_prose_after_the_list_is_tolerated(self):
        out = parse_plan_output(VALID + "\nThat is my plan.")
        assert out.quality is ParseQuality.CLEAN

    def test_last_trajectory_section_wins(self):
        echoed = VALID.replace("(0.00,3.00)", "(9.99,9.99)") + "\n" + VALID
        out = parse_plan_output(echoed)
        assert out.quality is ParseQuality.CLEAN
        assert out.trajectory.waypoints[0].x == 0.0


class TestRecovered:
    def test_bare_list_recovers(self):
        out = parse_plan_output(LIST)
        assert out.quality is ParseQuality.RECOVERED
        assert out.trajectory is not None

    def test_missing_sections_with_trajectory_label(self):
        out = parse_plan_output(f"Trajectory: {LIST}")
        assert out.quality is ParseQuality.RECOVERED

    def test_pairs_scattered_across_lines(self):
        text = "".join(f"step {i} ({i}.00,{2 * i}.00)\n" for i in range(1, 7))
        out = parse_plan_output(text)
        assert out.quality is ParseQuality.RECOVERED
        assert [w.x for w in out.trajectory.waypoints] == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]

    def test_unbracketed_after_label(self):
        text = "Critical objects: none.\nInteraction analysis: -\nDecision: stop\n" \
               f"Trajectory: {PAIRS}"
        out = parse_plan_output(text)
        assert out.quality is ParseQuality.RECOVERED
        assert out.decision is Decision.STOP
        # every label present, but a loose tail is never clean, even after a
        # bracket that holds no pair
        for tail in ("(0.00,3.00) (0.00,6.00) (0.00,9.00) (0.00,12.00) (0.00,15.00) (0.00,18.00)",
                     "[see below] (0,3), (0,6), (0,9), (0,12), (0,15), (0,18)"):
            out = parse_plan_output(VALID[: VALID.rindex("[")] + tail)
            assert out.quality is ParseQuality.RECOVERED
            assert [w.y for w in out.trajectory.waypoints] == [3, 6, 9, 12, 15, 18]


class TestFailed:
    def test_garbage(self):
        out = parse_plan_output("no coordinates at all")
        assert out.quality is ParseQuality.FAILED
        assert out.trajectory is None
        assert "expected 6" in out.error

    def test_wrong_pair_count_reports_found(self):
        out = parse_plan_output("Trajectory: [(1.00,2.00), (3.00,4.00)]")
        assert out.quality is ParseQuality.FAILED
        assert "found 2, expected 6" in out.error

    def test_empty_string(self):
        out = parse_plan_output("")
        assert out.quality is ParseQuality.FAILED
        assert out.decision is None

    def test_decision_still_extracted_on_failure(self):
        out = parse_plan_output("Decision: decelerate, softly.\nTrajectory: none")
        assert out.quality is ParseQuality.FAILED
        assert out.decision is Decision.DECELERATE


def decision_of(text):
    """The decision ``parse_plan_output`` takes from ``text``, whatever its trajectory."""
    return parse_plan_output(text).decision


class TestDecisionExtraction:
    def test_all_tokens_roundtrip(self):
        for d in Decision:
            assert decision_of(f"Decision: {d.value} now.") is d

    def test_spaced_and_hyphenated_variants(self):
        assert decision_of("Decision: change lane left.") is Decision.CHANGE_LANE_LEFT
        assert decision_of("Decision: turn-right ahead.") is Decision.TURN_RIGHT
        assert decision_of("Decision: Keep Speed") is Decision.KEEP_SPEED

    def test_earliest_token_wins(self):
        text = "Decision: decelerate now; do not stop."
        assert decision_of(text) is Decision.DECELERATE

    def test_scoped_to_decision_section(self):
        text = (
            "Critical objects: stop sign [s1] at min distance 2.00 m.\n"
            "Interaction analysis: the stop sign requires a full stop.\n"
            "Decision: keep_speed - sign faces the cross street.\n"
        )
        assert decision_of(text) is Decision.KEEP_SPEED

    def test_word_boundaries_respected(self):
        assert decision_of("Decision: unstoppable progress") is None
        assert decision_of("Decision: we will stop.") is Decision.STOP

    def test_no_section_returns_none(self):
        assert decision_of("just stop") is None
        assert decision_of("") is None

    def test_section_ends_at_blank_line(self):
        text = "Decision: proceed as planned\n\nstop everything"
        assert decision_of(text) is None

    def test_last_decision_section_wins(self):
        text = "Decision: stop\nDecision: accelerate"
        assert decision_of(text) is Decision.ACCELERATE


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
        "Trajectory: [(111111111111111111111111111,1.00)]",
        "Trajectory: [" + ", ".join(["(1" + "0" * 30 + ",-1" + "0" * 40 + ")"] * 6) + "]",
        "\x00\x01\x02",
        "Decision: " + "a" * 10000,
        "Trajectory: [(1.00,2.00), (3.00,4.00)" * 40,
        "  ﻿Trajectory: oops",
        "-.-.-.-,.,.,",
    ]

    def test_never_raises_on_adversarial_inputs(self):
        for text in self.ADVERSARIAL:
            out = parse_plan_output(text)
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
            parse_plan_output(text)  # must not raise


def test_round_trip_serialize_then_parse():
    from helpers import traj

    points = [(0.25, 1.75), (-3.5, 8.0), (0.0, -0.01), (12.5, 25.0), (-200.0, 199.99), (3.0, 4.0)]
    text = f"Trajectory: {serialize_trajectory(traj(points))}"
    out = parse_plan_output(text)
    assert [(w.x, w.y) for w in out.trajectory.waypoints] == points


# --- the parser as it was, lowercasing the reply once per label search ---

_OLD_DECISION_RE = re.compile(
    r"\b(?:"
    + "|".join(
        d.value.replace("_", r"[ _\-]+") for d in sorted(Decision, key=lambda d: -len(d.value))
    )
    + r")\b",
    re.IGNORECASE,
)

def _old_last_label_tail(text, label):
    i = text.lower().rfind(label.lower())
    if i < 0:
        return None
    return text[i + len(label):]


def _old_decision_section(text):
    low = text.lower()
    i = low.rfind(SECTION_DECISION.lower())
    if i < 0:
        return None
    start = i + len(SECTION_DECISION)
    end = len(text)
    for label in SECTION_LABELS:
        j = low.find(label.lower(), start)
        if j >= 0:
            end = min(end, j)
    blank = text.find("\n\n", start)
    if blank >= 0:
        end = min(end, blank)
    return text[start:end]


def old_extract_decision(text):
    section = _old_decision_section(text)
    if section is None:
        return None
    m = _OLD_DECISION_RE.search(section)
    if m is None:
        return None
    return Decision(re.sub(r"[ _\-]+", "_", m.group(0).lower()))


def old_parse_plan_output(text):
    decision = old_extract_decision(text)
    trajectory = None
    error = None
    tail = _old_last_label_tail(text, SECTION_TRAJECTORY)
    if tail is not None:
        try:
            trajectory = parse_trajectory(tail)[0]
        except TrajectoryParseError as e:
            error = str(e)
    if (
        trajectory is not None
        and all(label.lower() in text.lower() for label in SECTION_LABELS)
        and parse_trajectory(tail)[1]
    ):
        return PlanOutput(ParseQuality.CLEAN, trajectory, decision)
    if trajectory is None:
        try:
            trajectory = parse_trajectory(text)[0]
        except TrajectoryParseError as e:
            if error is None:
                error = str(e)
    if trajectory is not None:
        return PlanOutput(ParseQuality.RECOVERED, trajectory, decision)
    return PlanOutput(ParseQuality.FAILED, None, decision, error)


def _vary_case(rng, text):
    return "".join(c.upper() if rng.random() < 0.5 else c.lower() for c in text)


def _garble(rng, text):
    """One seeded edit of a plan text; ASCII only, as the old parser needs."""
    lines = text.split("\n")
    op = rng.randrange(9)
    if op == 0:  # a section missing
        del lines[rng.randrange(len(lines))]
    elif op == 1:  # labels in any case
        for label in SECTION_LABELS:
            text = text.replace(label, _vary_case(rng, label))
        return text
    elif op == 2:  # a section repeated
        lines.insert(rng.randrange(len(lines) + 1), rng.choice(lines))
    elif op == 3:  # a blank line anywhere, right after a label too
        colons = [i + 1 for i, c in enumerate(text) if c == ":"]
        i = rng.choice(colons + [rng.randrange(len(text) + 1)])
        return text[:i] + "\n\n" + text[i:]
    elif op == 4:  # cut off, as by max_tokens
        return text[: rng.randrange(len(text) + 1)]
    elif op == 5:  # characters deleted, inserted or replaced
        chars = list(text)
        for _ in range(rng.randint(1, 6)):
            pos = rng.randrange(len(chars) + 1)
            if rng.random() < 0.5 and pos < len(chars):
                del chars[pos]
            else:
                chars.insert(pos, chr(rng.randrange(32, 127)))
        return "".join(chars)
    elif op == 6:  # the decision spelled with spaces or hyphens
        return re.sub(r"(?<=[a-z])_(?=[a-z])", lambda m: rng.choice((" ", "-", " - ", "_")), text)
    elif op == 7:  # lines shuffled
        rng.shuffle(lines)
    else:  # all of it lowercased or uppercased
        return rng.choice((text.lower(), text.upper()))
    return "\n".join(lines)


def test_parse_plan_output_matches_the_old_parser_field_for_field():
    rng = random.Random(20261027)
    replay, hypothetical = BackendConfig(mode="stub_replay_gt"), BackendConfig()
    texts = []
    for s in make_scenarios(200):
        texts += [complete(replay, None, s), complete(hypothetical, None, s)]
    corpus = list(texts)
    for _ in range(6000):
        text = rng.choice(texts)
        for _ in range(rng.randint(1, 3)):
            text = _garble(rng, text)
        corpus.append(text)
    corpus += [VALID.replace(label, "") for label in SECTION_LABELS]
    corpus += [VALID.replace(SECTION_DECISION, SECTION_DECISION + sep) for sep in ("\n\n", "\n")]
    corpus += ["", "Decision:", "Trajectory:", "decision: STOP\n\ntrajectory: [(1,2)]"]
    qualities = set()
    for text in corpus:
        got, want = parse_plan_output(text), old_parse_plan_output(text)
        assert got == want, text
        assert got.decision is want.decision and got.quality is want.quality, text
        qualities.add(got.quality)
        assert decision_of(text) is old_extract_decision(text), text
    assert qualities == set(ParseQuality)


def test_a_decision_token_that_lowercases_past_ascii_still_parses():
    # IGNORECASE matches the long s and the dotted capital I, which str.lower
    # does not map to "s" and "i"; the reply is still a plan, not an error
    for word, want in (("ſtop", Decision.STOP), ("turn rİght", Decision.TURN_RIGHT),
                       ("KEEP SPEED", Decision.KEEP_SPEED)):
        out = parse_plan_output(f"Decision: {word}\n{VALID.splitlines()[-1]}")
        assert out.decision is want and out.quality is ParseQuality.RECOVERED


def test_a_letter_that_lowercases_to_two_does_not_shift_the_sections():
    # "İ".lower() is two characters; before, each one moved every later label
    # position by one, cutting into the trajectory and losing the decision
    lines = VALID.splitlines()
    lines[1] = "Interaction analysis: " + "İ" * 60 + "stanbul road, no conflicts."
    text = "\n".join(lines)
    out = parse_plan_output(text)
    assert out == parse_plan_output(VALID)
    assert out.quality is ParseQuality.CLEAN and out.decision is Decision.KEEP_SPEED
    assert decision_of("İ" * 40 + "Decision: stop\n\nturn left") is Decision.STOP
