"""
Scenario files and scene prompts
================================

Synthesizes one driving scenario, shows the JSON it round-trips through,
and renders the chat prompt a planner backend would receive.
"""

import json
import tempfile
from pathlib import Path

from lmplan import build_prompt, load_scenarios, save_scenarios, synth_scenario
from lmplan.prompts import SYSTEM_PROMPT

# (1) Deterministic scenario from a built-in archetype. Same (kind, seed)
#     always gives the same scene.
scenario = synth_scenario("crossing_pedestrian", seed=4)
print("scenario id:", scenario.id)
print("ego:", scenario.ego)
print("objects:", [(o.id, o.class_name) for o in scenario.objects])

# (2) Scenarios serialize to a plain JSON schema and load back unchanged.
with tempfile.TemporaryDirectory() as d:
    path = Path(d) / "one.json"
    save_scenarios([scenario], path)
    doc = json.loads(path.read_text())
    print("\nschema keys:", sorted(doc["scenarios"][0]))
    reloaded = load_scenarios(path)[0]
    assert reloaded == scenario

# (3) The prompt pair: a system message fixing the output contract and a
#     user message describing the scene. Every number is fixed-precision,
#     so the text is reproducible byte for byte.
prompt = build_prompt(scenario)
print("\n--- system ---")
print(SYSTEM_PROMPT)
print("\n--- user ---")
print(prompt.user_text)
