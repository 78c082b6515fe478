import re

import pytest

from helpers import make_scenarios
from lmplan import (
    build_prompt,
    build_system_prompt,
    build_user_prompt,
    extract_pairs,
    make_finetune_example,
    pack_exemplars,
    synth_scenario,
    template_hash,
)
from lmplan.prompts import (
    MAX_EXEMPLARS,
    NO_OBJECTS_LINE,
    NO_PREDICTIONS_LINE,
    SECTION_LABELS,
    PlannerPrompt,
)

NUMBER = re.compile(r"-?\d+\.\d\d")


class TestSystemPrompt:
    def test_mentions_horizon_and_duration(self):
        text = build_system_prompt()
        assert "6 waypoints" in text
        assert "3.0 seconds" in text
        assert "0.5 seconds" in text

    def test_contains_output_format_and_labels(self):
        text = build_system_prompt()
        for label in SECTION_LABELS:
            assert label in text
        assert "exactly 6 coordinate pairs" in text
        assert "keep_speed" in text and "change_lane_right" in text

    def test_deterministic(self):
        assert build_system_prompt() == build_system_prompt()


class TestUserPrompt:
    def test_object_lines_one_per_object(self):
        s = synth_scenario("lead_vehicle", 4)
        text = build_user_prompt(s)
        assert text.count("- car [o1] at ") == 1
        assert text.count("- car [o1] expected path") == 1
        assert "heading" in text and "size" in text

    def test_no_objects_literal(self):
        s = synth_scenario("empty_road", 4)
        text = build_user_prompt(s)
        assert NO_OBJECTS_LINE in text
        assert NO_PREDICTIONS_LINE in text

    def test_every_literal_reparses_to_stored_value(self):
        # the invariant that makes text a lossless transport: any number
        # printed in the prompt equals the stored (quantized) value
        for s in make_scenarios(8):
            text = build_user_prompt(s)
            for p in s.predictions:
                line = next(
                    ln for ln in text.splitlines() if f"[{p.object_id}] expected path" in ln
                )
                got = extract_pairs(line)
                assert got == [(w.x, w.y) for w in p.future]
            history_line = next(ln for ln in text.splitlines() if "recent path" in ln)
            assert extract_pairs(history_line) == [
                (w.x, w.y) for w in s.ego.history
            ]

    def test_ego_state_values_rendered(self):
        s = synth_scenario("crossing_pedestrian", 2)
        text = build_user_prompt(s)
        assert f"speed {s.ego.velocity:.2f} m/s" in text

    def test_all_numbers_have_fixed_precision(self):
        s = synth_scenario("stationary_obstacle", 5)
        for token in NUMBER.findall(build_user_prompt(s)):
            assert float(token) == round(float(token), 2)

    def test_deterministic(self):
        s = synth_scenario("lead_vehicle", 9)
        assert build_user_prompt(s) == build_user_prompt(s)


class TestExemplars:
    def make_pool(self, n):
        return [make_finetune_example(s) for s in make_scenarios(n)]

    def test_zero_is_noop(self):
        base = build_prompt(synth_scenario("empty_road", 0))
        assert pack_exemplars(base, self.make_pool(3), 0) == base

    def test_takes_first_k_in_pool_order(self):
        pool = self.make_pool(4)
        base = build_prompt(synth_scenario("empty_road", 0))
        packed = pack_exemplars(base, pool, 2)
        assert len(packed.exemplars) == 2
        assert packed.exemplars[0] == (pool[0].prompt.user_text, pool[0].target_text)
        assert packed.exemplars[1] == (pool[1].prompt.user_text, pool[1].target_text)

    def test_pool_shorter_than_k(self):
        base = build_prompt(synth_scenario("empty_road", 0))
        packed = pack_exemplars(base, self.make_pool(2), 5)
        assert len(packed.exemplars) == 2

    def test_cap_enforced(self):
        base = build_prompt(synth_scenario("empty_road", 0))
        with pytest.raises(ValueError):
            pack_exemplars(base, self.make_pool(8), MAX_EXEMPLARS + 1)
        with pytest.raises(ValueError):
            pack_exemplars(base, self.make_pool(1), -1)

    def test_accepts_plain_pairs(self):
        base = build_prompt(synth_scenario("empty_road", 0))
        packed = pack_exemplars(base, [("ask", "answer")], 1)
        assert packed.exemplars == (("ask", "answer"),)

    def test_base_prompt_unchanged(self):
        base = build_prompt(synth_scenario("empty_road", 0))
        pack_exemplars(base, self.make_pool(2), 2)
        assert base.exemplars == ()


class TestTemplateHash:
    def test_stable_and_short_hex(self):
        h = template_hash()
        assert h == template_hash()
        assert re.fullmatch(r"[0-9a-f]{12}", h)


def test_build_prompt_bundles_both_parts():
    s = synth_scenario("empty_road", 3)
    p = build_prompt(s)
    assert isinstance(p, PlannerPrompt)
    assert "waypoints" in p.system_text
    assert "Scene description." in p.user_text
    assert p.exemplars == ()
