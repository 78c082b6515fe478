"""Open-loop evaluation: displacement error and box-overlap collision rate.

Two conventions are reported side by side because published numbers use
both and they differ substantially:

- ``at step``: the value at the horizon step itself (error at exactly t).
- ``cumulative``: the mean over all steps up to and including t.

Collision places an ego-sized oriented box on every predicted waypoint,
headed along the local path direction, and tests overlap against the
per-step ground-truth object boxes with the separating-axis test. Touching
boxes count as a collision.

Aggregation folds rows in scenario-id order, so reports are byte-identical
under input permutation.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass

from .prompts import template_hash
from .reasoning import rollout_hypothetical, segment_directions
from .scenario import DEFAULT_DT, DEFAULT_HORIZON_STEPS, ObjectBox, Scenario, Trajectory, Waypoint

# The paper's protocol: L2 and collision at 1 s, 2 s and 3 s, for the
# nuScenes ego footprint (meters), starting out facing +y.
HORIZONS_S = (1.0, 2.0, 3.0)
EGO_LENGTH = 4.084
EGO_WIDTH = 1.730
INITIAL_HEADING = math.pi / 2


@dataclass(frozen=True)
class EgoDims:
    length: float = EGO_LENGTH
    width: float = EGO_WIDTH


@dataclass(frozen=True)
class EvalConfig:
    # what to do with rows whose plan failed to parse: substitute the
    # constant-state rollout (kept in the aggregates, counted), or drop them
    fallback_policy: str = "substitute_hypothetical"
    # mask steps where the human trajectory itself overlaps a box, so
    # labeling artifacts in the ground truth do not count against the plan
    exclude_gt_collisions: bool = False

    def __post_init__(self):
        if self.fallback_policy not in ("substitute_hypothetical", "exclude"):
            raise ValueError(f"unknown fallback_policy {self.fallback_policy!r}")

    def hash(self) -> str:
        """Fingerprint of the protocol constants and the two settings."""
        blob = json.dumps(
            {
                "horizons": list(HORIZONS_S),
                "ego": [EGO_LENGTH, EGO_WIDTH],
                "fallback_policy": self.fallback_policy,
                "initial_heading": INITIAL_HEADING,
                "exclude_gt_collisions": self.exclude_gt_collisions,
            },
            sort_keys=True,
        )
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:12]


@dataclass(frozen=True)
class PlanRecord:
    """A planner's answer for one scenario, as fed to the evaluator."""

    scenario_id: str
    trajectory: Trajectory | None
    parse_quality: str = "clean"


@dataclass(frozen=True)
class ScenarioMetrics:
    scenario_id: str
    parse_quality: str
    used_fallback: bool
    l2_at_step: dict
    l2_cumulative: dict
    collision_at_step: dict  # horizon -> bool
    collision_cumulative: dict  # horizon -> mean of per-step flags


@dataclass(frozen=True)
class EvalReport:
    rows: tuple[ScenarioMetrics, ...]
    summary: dict  # metric name -> {horizon: value, "avg": value}
    total: int
    evaluated: int
    parse_failures: int
    fallbacks_substituted: int
    template_hash: str
    config_hash: str


def l2_at_horizon(
    pred: Trajectory, gt: Trajectory, horizon_s: float, mode: str = "at_step"
) -> float:
    """Displacement error against the ground truth at one time horizon.

    ``at_step`` takes the error at the horizon waypoint; ``cumulative_mean``
    averages the per-step errors over every step up to the horizon.
    """
    if mode not in ("at_step", "cumulative_mean"):
        raise ValueError(f"unknown mode {mode!r}")
    k = _horizon_step(horizon_s)
    errors = [
        math.hypot(pred.point(i).x - gt.point(i).x, pred.point(i).y - gt.point(i).y)
        for i in range(1, k + 1)
    ]
    return errors[-1] if mode == "at_step" else sum(errors) / k


def _horizon_step(horizon_s: float) -> int:
    k = horizon_s / DEFAULT_DT
    if abs(k - round(k)) > 1e-6:
        raise ValueError(f"horizon {horizon_s} s is not a multiple of dt={DEFAULT_DT}")
    k = round(k)
    if not 1 <= k <= DEFAULT_HORIZON_STEPS:
        raise ValueError(f"horizon {horizon_s} s needs step {k}, have {DEFAULT_HORIZON_STEPS}")
    return k


def headings_along(t: Trajectory, initial_heading: float = INITIAL_HEADING) -> list[float]:
    """Heading at each waypoint: the direction of the incoming segment.

    Standard math convention (radians, atan2(dy, dx)); the first segment
    starts at the origin. Segments under a centimeter carry the previous
    heading forward, so a stopped tail keeps its last direction.
    """
    out = []
    prev = initial_heading
    for d in segment_directions(t):
        if d is not None:
            prev = math.atan2(d[1], d[0])
        out.append(prev)
    return out


def _axes(heading: float):
    c, s = math.cos(heading), math.sin(heading)
    return (c, s), (-s, c)


def sat_margin(a: ObjectBox, b: ObjectBox) -> float:
    """Largest center-distance surplus over the projection radii, across the
    four face normals. Positive means a separating axis exists; zero or
    negative means the boxes intersect (touching included)."""
    ua, wa = _axes(a.heading)
    ub, wb = _axes(b.heading)
    dx, dy = b.center.x - a.center.x, b.center.y - a.center.y
    best = -math.inf
    for nx, ny in (ua, wa, ub, wb):
        ra = 0.5 * a.length * abs(ua[0] * nx + ua[1] * ny) + 0.5 * a.width * abs(
            wa[0] * nx + wa[1] * ny
        )
        rb = 0.5 * b.length * abs(ub[0] * nx + ub[1] * ny) + 0.5 * b.width * abs(
            wb[0] * nx + wb[1] * ny
        )
        best = max(best, abs(dx * nx + dy * ny) - (ra + rb))
    return best


def obb_intersects(a: ObjectBox, b: ObjectBox) -> bool:
    return sat_margin(a, b) <= 0.0


def ego_boxes_along(
    t: Trajectory, dims: EgoDims = EgoDims(), initial_heading: float = INITIAL_HEADING
) -> list[ObjectBox]:
    hs = headings_along(t, initial_heading)
    return [
        ObjectBox(center=Waypoint(w.x, w.y), heading=h, length=dims.length, width=dims.width)
        for w, h in zip(t.waypoints, hs)
    ]


def collision_steps(
    t: Trajectory,
    gt_boxes: tuple,
    dims: EgoDims = EgoDims(),
    initial_heading: float = INITIAL_HEADING,
) -> list[bool]:
    """Per-step flags: ego box on waypoint i overlaps any box for step i.

    ``gt_boxes`` is one tuple of boxes per step; an empty overall tuple
    means no obstacle data, i.e. no collisions.
    """
    if not gt_boxes:
        return [False] * len(t)
    flags = []
    for i, ego_box in enumerate(ego_boxes_along(t, dims, initial_heading)):
        step_boxes = gt_boxes[i] if i < len(gt_boxes) else ()
        flags.append(any(obb_intersects(ego_box, b) for b in step_boxes))
    return flags


def _metrics_for(
    s: Scenario,
    traj: Trajectory,
    quality: str,
    used_fallback: bool,
    cfg: EvalConfig,
) -> ScenarioMetrics:
    gt = s.human_trajectory
    flags = collision_steps(traj, s.gt_object_boxes)
    if cfg.exclude_gt_collisions and s.gt_object_boxes:
        human_flags = collision_steps(gt, s.gt_object_boxes)
        flags = [f and not h for f, h in zip(flags, human_flags)]
    l2_at, l2_cum, col_at, col_cum = {}, {}, {}, {}
    for h in HORIZONS_S:
        k = _horizon_step(h)
        l2_at[h] = l2_at_horizon(traj, gt, h, "at_step")
        l2_cum[h] = l2_at_horizon(traj, gt, h, "cumulative_mean")
        col_at[h] = flags[k - 1]
        col_cum[h] = sum(flags[:k]) / k
    return ScenarioMetrics(
        scenario_id=s.id,
        parse_quality=quality,
        used_fallback=used_fallback,
        l2_at_step=l2_at,
        l2_cumulative=l2_cum,
        collision_at_step=col_at,
        collision_cumulative=col_cum,
    )


def evaluate_dataset(
    scenarios,
    records,
    cfg: EvalConfig = EvalConfig(),
) -> EvalReport:
    """Join plans to scenarios by id and aggregate the open-loop metrics.

    A scenario with no record, or a record with no trajectory, is a parse
    failure; the fallback policy decides whether the constant-state rollout
    stands in for it or the row is dropped from the aggregates.
    """
    scenarios = sorted(scenarios, key=lambda s: s.id)
    if not scenarios:
        raise ValueError("no scenarios to evaluate")
    by_id = {}
    for r in records:
        by_id[r.scenario_id] = r

    rows = []
    parse_failures = 0
    fallbacks = 0
    for s in scenarios:
        rec = by_id.get(s.id)
        traj = rec.trajectory if rec is not None else None
        quality = rec.parse_quality if rec is not None else "failed"
        if traj is not None and len(traj) != DEFAULT_HORIZON_STEPS:
            raise ValueError(
                f"scenario {s.id!r}: trajectory has {len(traj)} waypoints, "
                f"expected {DEFAULT_HORIZON_STEPS}"
            )
        if traj is None:
            parse_failures += 1
            if cfg.fallback_policy == "exclude":
                continue
            traj = rollout_hypothetical(s.ego)
            fallbacks += 1
            rows.append(_metrics_for(s, traj, quality, True, cfg))
        else:
            rows.append(_metrics_for(s, traj, quality, False, cfg))

    summary = {}
    n = len(rows)
    for name, getter in (
        ("l2_at_step", lambda r: r.l2_at_step),
        ("l2_cumulative", lambda r: r.l2_cumulative),
        ("collision_at_step", lambda r: r.collision_at_step),
        ("collision_cumulative", lambda r: r.collision_cumulative),
    ):
        per_h = {}
        for h in HORIZONS_S:
            per_h[h] = (
                sum(float(getter(r)[h]) for r in rows) / n if n else math.nan
            )
        per_h["avg"] = sum(per_h[h] for h in HORIZONS_S) / len(HORIZONS_S)
        summary[name] = per_h

    return EvalReport(
        rows=tuple(rows),
        summary=summary,
        total=len(scenarios),
        evaluated=n,
        parse_failures=parse_failures,
        fallbacks_substituted=fallbacks,
        template_hash=template_hash(),
        config_hash=cfg.hash(),
    )


_METRIC_LABELS = (
    ("l2_at_step", "L2 at step (m)", 1.0),
    ("l2_cumulative", "L2 cumulative mean (m)", 1.0),
    ("collision_at_step", "Collision at step (%)", 100.0),
    ("collision_cumulative", "Collision cumulative (%)", 100.0),
)


def render_markdown(report: EvalReport) -> str:
    """Summary table, fixed column order, %.2f cells."""
    head = "| Metric | " + " | ".join(f"{h:g}s" for h in HORIZONS_S) + " | Avg |"
    rule = "|---" * (len(HORIZONS_S) + 2) + "|"
    lines = [
        "# Open-loop planning report",
        "",
        f"- scenarios: {report.total} (evaluated {report.evaluated}, "
        f"parse failures {report.parse_failures}, "
        f"fallbacks substituted {report.fallbacks_substituted})",
        f"- template hash: {report.template_hash}",
        f"- config hash: {report.config_hash}",
        "",
        head,
        rule,
    ]
    for key, label, scale in _METRIC_LABELS:
        vals = report.summary[key]
        cells = [f"{vals[h] * scale:.2f}" for h in HORIZONS_S]
        cells.append(f"{vals['avg'] * scale:.2f}")
        lines.append(f"| {label} | " + " | ".join(cells) + " |")
    return "\n".join(lines) + "\n"


def render_csv(report: EvalReport) -> str:
    """Per-scenario rows plus one __mean__ row, %.6f values."""
    cols = []
    for key, _, _ in _METRIC_LABELS:
        cols.extend((key, h) for h in HORIZONS_S)
    header = ["scenario_id", "parse_quality", "used_fallback"] + [
        f"{key}_{h:g}s" for key, h in cols
    ]
    out = [",".join(header)]
    for r in report.rows:
        cells = [r.scenario_id, r.parse_quality, str(int(r.used_fallback))]
        for key, h in cols:
            cells.append(f"{float(getattr(r, key)[h]):.6f}")
        out.append(",".join(cells))
    mean_cells = ["__mean__", "", ""]
    for key, h in cols:
        mean_cells.append(f"{report.summary[key][h]:.6f}")
    out.append(",".join(mean_cells))
    return "\n".join(out) + "\n"
