"""
Chain-of-thought supervision targets
====================================

Supervision pairs a scene prompt with the text the planner should have
produced: critical objects, interaction analysis, a decision token, and
the human trajectory. Everything below is derived from scenario data by
closed-form rules, so regenerating the dataset is byte-reproducible.
"""

import tempfile
from pathlib import Path

from lmplan import (
    compose_reasoning,
    export_finetune_jsonl,
    find_critical_objects,
    load_finetune_jsonl,
    make_finetune_example,
    rollout_hypothetical,
    serialize_trajectory,
    synth_scenario,
)
from lmplan.reasoning import LATERAL_THRESHOLD

scenario = synth_scenario("lead_vehicle", seed=2)

# (1) The hypothetical rollout: where the ego would go if it ignored
#     everything and kept its current acceleration and heading rate.
hypo = rollout_hypothetical(scenario.ego)
print("hypothetical:", serialize_trajectory(hypo))
print("human:       ", serialize_trajectory(scenario.human_trajectory))

# (2) Critical objects: anything whose (predicted) position comes within
#     the lateral threshold of that rollout, ranked by urgency.
print(f"lateral threshold: {LATERAL_THRESHOLD} m")
critical = find_critical_objects(scenario, hypo)
for c in critical:
    print(
        f"critical: {c.class_name} [{c.object_id}] {c.relation},"
        f" first conflict step {c.first_conflict_step},"
        f" min distance {c.min_distance:.2f} m"
    )

# (3) The decision token compares human path length against the rollout
#     and the path shape; here the human brakes behind the lead vehicle.
trace = compose_reasoning(scenario)
print("decision:", trace.decision)

# (4) The full target text an ideal planner would emit.
example = make_finetune_example(scenario)
print("\n--- supervision target ---")
print(example.target_text)

# (5) Datasets export as chat-format JSONL, one record per scenario.
scenarios = [synth_scenario(kind, s) for kind in ("empty_road", "lead_vehicle") for s in range(3)]
with tempfile.TemporaryDirectory() as d:
    path = Path(d) / "train.jsonl"
    n = export_finetune_jsonl((make_finetune_example(s) for s in scenarios), path)
    records = load_finetune_jsonl(path)
    print(f"\nexported {n} records; roles of record 0:",
          [m["role"] for m in records[0]["messages"]])
