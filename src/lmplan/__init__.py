"""Motion planning as a language task.

Scenarios become text prompts, a chat model (or offline stub) answers with
reasoning plus a fixed-precision trajectory, and the answer is parsed back
into numbers and scored open-loop against human driving.
"""

from .backend import (
    API_KEY_ENV,
    BackendConfig,
    BackendError,
    BackendMode,
    complete,
    export_finetune_jsonl,
    finetune_line,
    load_finetune_jsonl,
    messages_from_prompt,
)
from .codec import (
    TrajectoryParseError,
    extract_pairs,
    format_number,
    format_pair,
    parse_trajectory,
    quantize,
    serialize_trajectory,
)
from .metrics import (
    EvalConfig,
    EvalReport,
    PlanRecord,
    collision_steps,
    ego_boxes_along,
    evaluate_dataset,
    headings_along,
    obb_intersects,
    render_csv,
    render_markdown,
    sat_margin,
    score,
    summarize,
)
from .parsing import ParseQuality, PlanOutput, parse_plan_output
from .prompts import (
    MAX_EXEMPLARS,
    Decision,
    PlannerPrompt,
    build_prompt,
    build_user_prompt,
    pack_exemplars,
    template_hash,
)
from .reasoning import (
    CriticalObject,
    FineTuneExample,
    ReasoningTrace,
    classify_decision,
    compose_reasoning,
    find_critical_objects,
    make_finetune_example,
    render_reasoning,
    rollout_hypothetical,
)
from .scenario import (
    DEFAULT_DT,
    DEFAULT_HORIZON_STEPS,
    SYNTH_KINDS,
    DetectedObject,
    EgoState,
    ObjectBox,
    PredictedMotion,
    Scenario,
    ScenarioSchemaError,
    Trajectory,
    Waypoint,
    load_scenarios,
    sample_split,
    save_scenarios,
    split_size,
    synth_scenario,
    validate_scenario,
)

__version__ = "0.1.0"
