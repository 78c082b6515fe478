"""
Open-loop evaluation of two built-in planners
=============================================

Runs the two offline stub backends over a batch of scenarios and scores
them with the open-loop metrics. The ground-truth replay is the upper
bound (zero error by construction); the interference-blind rollout is the
lower bound and shows real L2 and collision numbers.
"""

from lmplan import (
    BackendConfig,
    BackendMode,
    PlanRecord,
    SYNTH_KINDS,
    build_prompt,
    complete,
    evaluate_dataset,
    parse_plan_output,
    render_markdown,
    synth_scenario,
)

scenarios = [
    synth_scenario(SYNTH_KINDS[i % len(SYNTH_KINDS)], i) for i in range(40)
]

# (1) Plan every scenario with a backend, parse the text it returns.
def plan_batch(mode):
    cfg = BackendConfig(mode=mode)
    records = []
    for s in scenarios:
        raw = complete(cfg, build_prompt(s), scenario=s)
        out = parse_plan_output(raw, len(s.human_trajectory))
        records.append(PlanRecord(s.id, out.trajectory, out.quality))
    return records

# (2) Ground-truth replay: the report must read 0.00 everywhere.
report = evaluate_dataset(scenarios, plan_batch(BackendMode.STUB_REPLAY_GT))
print(render_markdown(report))

# (3) The constant-state rollout never reacts, so it drifts from the human
#     trajectory wherever the scene demanded braking or a lane change, and
#     clips objects the human avoided.
report = evaluate_dataset(scenarios, plan_batch(BackendMode.STUB_HYPOTHETICAL))
print(render_markdown(report))
