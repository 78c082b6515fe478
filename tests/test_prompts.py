import re

import pytest

from helpers import make_scenarios
from lmplan import (
    BackendMode,
    Decision,
    ParseQuality,
    build_prompt,
    build_user_prompt,
    extract_pairs,
    make_finetune_example,
    messages_from_prompt,
    pack_exemplars,
    synth_scenario,
    template_hash,
)
from lmplan.prompts import (
    MAX_EXEMPLARS,
    NO_OBJECTS_LINE,
    NO_PREDICTIONS_LINE,
    SECTION_LABELS,
    SYSTEM_PROMPT,
    PlannerPrompt,
)

NUMBER = re.compile(r"-?\d+\.\d\d")


@pytest.mark.parametrize("member", [*Decision, *ParseQuality, *BackendMode], ids=lambda m: f"{type(m).__name__}.{m.name}")
def test_enum_prints_as_its_bare_value(member):
    # prompts, result lines and CLI messages print a member as its token, not Decision.X
    assert str(member) == f"{member}" == member.value


class TestSystemPrompt:
    def test_mentions_horizon_and_duration(self):
        text = SYSTEM_PROMPT
        assert "6 waypoints" in text
        assert "3.0 seconds" in text
        assert "0.5 seconds" in text

    def test_contains_output_format_and_labels(self):
        text = SYSTEM_PROMPT
        for label in SECTION_LABELS:
            assert label in text
        assert "exactly 6 coordinate pairs" in text
        assert "keep_speed" in text and "change_lane_right" in text

    def test_every_request_opens_with_it(self):
        for s in make_scenarios(4):
            assert messages_from_prompt(build_prompt(s))[0] == {
                "role": "system", "content": SYSTEM_PROMPT,
            }


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
        assert pack_exemplars(base, []) == base

    def test_takes_the_whole_pool_in_order(self):
        pool = self.make_pool(2)
        base = build_prompt(synth_scenario("empty_road", 0))
        packed = pack_exemplars(base, pool)
        assert len(packed.exemplars) == 2
        assert packed.exemplars[0] == (pool[0].prompt.user_text, pool[0].target_text)
        assert packed.exemplars[1] == (pool[1].prompt.user_text, pool[1].target_text)

    def test_cap_enforced(self):
        base = build_prompt(synth_scenario("empty_road", 0))
        assert len(pack_exemplars(base, self.make_pool(MAX_EXEMPLARS)).exemplars) == MAX_EXEMPLARS
        with pytest.raises(ValueError):
            pack_exemplars(base, self.make_pool(MAX_EXEMPLARS + 1))

    def test_base_prompt_unchanged(self):
        base = build_prompt(synth_scenario("empty_road", 0))
        pack_exemplars(base, self.make_pool(2))
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
    assert p.user_text == build_user_prompt(s)
    assert "Scene description." in p.user_text
    assert p.exemplars == ()
