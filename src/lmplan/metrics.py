"""Open-loop evaluation: displacement error and box-overlap collision rate.

Two conventions are reported side by side because published numbers use
both and they differ substantially:

- ``at step``: the value at the horizon step itself (error at exactly t).
- ``cumulative``: the mean over all steps up to and including t.

Collision places an ego-sized oriented box on every predicted waypoint,
headed along the local path direction, and tests overlap against the
per-step ground-truth object boxes with the separating-axis test. Touching
boxes count as a collision. A broad phase first skips every box whose
circumscribed circle is more than ``_GAP`` from the ego box's; the
docstring of ``collision_steps`` proves such a box is never a collision, so
for finite coordinates the flags are those of the full test on every pair;
a trajectory that is not finite is a ``ValueError``.

Plans arrive as ``PlanRecord`` rows, which check their own fields, so
``evaluate_dataset`` checks only the human trajectory. Aggregation folds
rows in scenario-id order, so reports are byte-identical under input
permutation.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from itertools import chain

from .parsing import ParseQuality
from .prompts import template_hash
from .reasoning import rollout_hypothetical, segment_directions
from .scenario import (DEFAULT_DT, DEFAULT_HORIZON_STEPS, ObjectBox, Scenario, Trajectory,
                       Waypoint, is_number)

# The paper's protocol: L2 and collision at 1 s, 2 s and 3 s, for the
# nuScenes ego footprint (meters), starting out facing +y.
HORIZONS_S = (1.0, 2.0, 3.0)
EGO_LENGTH = 4.084
EGO_WIDTH = 1.730
INITIAL_HEADING = math.pi / 2

# what to do with rows whose plan failed to parse, the first the default:
# substitute the constant-state rollout (kept in the aggregates, counted),
# or drop them
FALLBACK_POLICIES = ("substitute_hypothetical", "exclude")


@dataclass(frozen=True)
class EvalConfig:
    fallback_policy: str = FALLBACK_POLICIES[0]
    # mask steps where the human trajectory itself overlaps a box, so
    # labeling artifacts in the ground truth do not count against the plan
    exclude_gt_collisions: bool = False

    def __post_init__(self):
        if self.fallback_policy not in FALLBACK_POLICIES:
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


_QUALITIES = {q.value: q for q in ParseQuality}


@dataclass(frozen=True)
class PlanRecord:
    """A planner's answer for one scenario: one line of the ``plan`` results
    file. The record checks its own fields (a quality string is coerced to its
    member), so ``to_line`` writes only lines that ``from_line`` reads back
    equal. A field the line leaves out reads as its default, ``cls.<field>``."""

    scenario_id: str
    trajectory: Trajectory | None = None
    parse_quality: ParseQuality = ParseQuality.FAILED
    raw_text: str = ""

    def __post_init__(self):
        quality, traj = self.parse_quality, self.trajectory
        if not isinstance(self.scenario_id, str) or not isinstance(quality, str):
            raise ValueError("scenario_id and parse_quality must be strings")
        if type(quality) is not ParseQuality:
            if quality not in _QUALITIES:
                raise ValueError(
                    f"parse_quality must be one of {', '.join(_QUALITIES)}, not {quality!r}")
            object.__setattr__(self, "parse_quality", _QUALITIES[quality])
        if not isinstance(self.raw_text, str):
            raise ValueError("raw_text must be a string")
        if traj is not None:
            if not isinstance(traj, Trajectory) or not all(
                type(w) is Waypoint and isinstance(w.x, float) and isinstance(w.y, float)
                for w in traj.waypoints
            ):
                raise ValueError("trajectory must be a Trajectory of float Waypoints")
            if not all(map(math.isfinite, chain.from_iterable(traj.waypoints))):
                raise ValueError("trajectory coordinates must be finite")
            if len(traj) != DEFAULT_HORIZON_STEPS:
                raise ValueError(f"trajectory has {len(traj)} waypoints, "
                                 f"expected {DEFAULT_HORIZON_STEPS}")

    def to_line(self) -> str:
        traj = None if self.trajectory is None else [[w.x, w.y] for w in self.trajectory.waypoints]
        row = {"scenario_id": self.scenario_id, "raw_text": self.raw_text,
               "parse_quality": self.parse_quality, "trajectory": traj}
        return json.dumps(row, separators=(",", ":"), ensure_ascii=False) + "\n"

    @classmethod
    def from_line(cls, line: bytes) -> PlanRecord:
        """The record a line holds: checks the JSON, the record its fields. A bad
        line raises ``ValueError`` (or ``OverflowError``, ``RecursionError``)."""
        obj = json.loads(line.decode("utf-8"))  # UnicodeDecodeError is a ValueError
        if not isinstance(obj, dict) or "scenario_id" not in obj:
            raise ValueError("expected a JSON object with a scenario_id")
        traj = obj.get("trajectory", cls.trajectory)
        if traj is not None:
            if not isinstance(traj, list) or not all(
                isinstance(p, list) and len(p) == 2 and all(is_number(v) for v in p) for p in traj
            ):
                raise ValueError("trajectory must be a list of [x, y] number pairs")
            traj = Trajectory(tuple(Waypoint(float(x), float(y)) for x, y in traj))
        return cls(obj["scenario_id"], traj, obj.get("parse_quality", cls.parse_quality),
                   obj.get("raw_text", cls.raw_text))


@dataclass(frozen=True)
class ScenarioMetrics:
    scenario_id: str
    parse_quality: ParseQuality
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


# (horizon, step) of the protocol's horizons: each horizon is a whole
# number of DEFAULT_DT steps within the plan, as tests/test_metrics.py pins
_HORIZON_STEPS = tuple((h, round(h / DEFAULT_DT)) for h in HORIZONS_S)


def headings_along(t: Trajectory) -> list[float]:
    """Heading at each waypoint: the direction of the incoming segment.

    Standard math convention (radians, atan2(dy, dx)); the first segment
    starts at the origin. Segments under a centimeter carry the previous
    heading forward, so a stopped tail keeps its last direction.
    """
    out = []
    prev = INITIAL_HEADING
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


def ego_boxes_along(t: Trajectory) -> list[ObjectBox]:
    return [
        ObjectBox(center=w, heading=h, length=EGO_LENGTH, width=EGO_WIDTH)
        for w, h in zip(t.waypoints, headings_along(t))
    ]


# Slack (m) the broad phase of ``collision_steps`` leaves between two
# circumscribed circles before it skips the full test; a fixed part of its proof.
_GAP = 1e-6


def collision_steps(t: Trajectory, gt_boxes: tuple) -> list[bool]:
    """Per-step flags: ego box on waypoint i overlaps any box for step i.

    ``gt_boxes`` is one tuple of boxes per step; an empty overall tuple
    means no obstacle data, i.e. no collisions. A waypoint that is not
    finite raises ``ValueError``.

    A broad phase skips ``obb_intersects`` for a box whose center is farther
    from the waypoint than ``r``, the two boxes' half-diagonals plus
    ``_GAP`` (compared as squared distance against ``r * r``). The skip
    never changes a flag:

    - Each box lies inside the circle of its half-diagonal about its
      center. With the circles apart the boxes are disjoint, separated by
      some distance δ > ``_GAP``.
    - For two disjoint rectangles the best face-normal gap, which SAT finds,
      is at least δ/√2. If the closest points lie on a face, that face's
      normal separates by δ. Otherwise they are two corners, and the
      direction d between them lies in both corners' 90° normal cones (one
      negated). The cones meet in an arc of at most 90° holding d, so one
      end of that arc, a face normal of one box, is within 45° of d, and
      along it the boxes are δ·cos(angle) >= δ/√2 apart. A check of 177,359
      seeded separated pairs found a worst ratio of 0.7093.
    - So a skipped pair has a true SAT margin of at least 7e-7 m. That is
      about 10⁶ times the rounding error of ``sat_margin`` (and of the
      squared distances) for coordinates within ±200 m, so the full test
      would have found the pair apart too.

    The proof needs finite coordinates: hence the waypoint check, and boxes
    are taken as finite, as ``load_scenarios`` ensures.
    """
    if not all(map(math.isfinite, chain.from_iterable(t.waypoints))):
        raise ValueError("trajectory coordinates must be finite")
    if not gt_boxes:
        return [False] * len(t)
    ego_reach = 0.5 * math.hypot(EGO_LENGTH, EGO_WIDTH) + _GAP
    flags = []
    for i, (w, heading) in enumerate(zip(t.waypoints, headings_along(t))):
        x, y = w
        ego_box = None
        hit = False
        for b in gt_boxes[i] if i < len(gt_boxes) else ():
            r = ego_reach + 0.5 * math.hypot(b.length, b.width)
            dx, dy = b.center.x - x, b.center.y - y
            if dx * dx + dy * dy > r * r:
                continue
            if ego_box is None:
                ego_box = ObjectBox(w, heading, EGO_LENGTH, EGO_WIDTH)
            if obb_intersects(ego_box, b):
                hit = True
                break
        flags.append(hit)
    return flags


def _metrics_for(
    s: Scenario,
    traj: Trajectory,
    quality: ParseQuality,
    used_fallback: bool,
    cfg: EvalConfig,
) -> ScenarioMetrics:
    gt = s.human_trajectory
    flags = collision_steps(traj, s.gt_object_boxes)
    if cfg.exclude_gt_collisions and s.gt_object_boxes:
        human_flags = collision_steps(gt, s.gt_object_boxes)
        flags = [f and not h for f, h in zip(flags, human_flags)]
    errors = list(map(math.dist, traj.waypoints, gt.waypoints))
    l2_at, l2_cum, col_at, col_cum = {}, {}, {}, {}
    for h, k in _HORIZON_STEPS:
        l2_at[h] = errors[k - 1]
        l2_cum[h] = sum(errors[:k]) / k
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
    stands in for it or the row is dropped from the aggregates. Two records
    with one id are a ``ValueError``: which one to score would depend on
    their order.
    """
    scenarios = sorted(scenarios, key=lambda s: s.id)
    if not scenarios:
        raise ValueError("no scenarios to evaluate")
    by_id = {}
    for r in records:
        if r.scenario_id in by_id:
            raise ValueError(f"duplicate scenario_id {r.scenario_id!r} in the records")
        by_id[r.scenario_id] = r

    rows = []
    parse_failures = 0
    for s in scenarios:
        rec = by_id.get(s.id) or PlanRecord(s.id)
        traj = rec.trajectory
        if len(s.human_trajectory) != DEFAULT_HORIZON_STEPS:
            raise ValueError(
                f"scenario {s.id!r}: human_trajectory has {len(s.human_trajectory)} "
                f"waypoints, expected {DEFAULT_HORIZON_STEPS}"
            )
        used_fallback = traj is None
        if used_fallback:
            parse_failures += 1
            if cfg.fallback_policy == "exclude":
                continue
            traj = rollout_hypothetical(s.ego)
        rows.append(_metrics_for(s, traj, rec.parse_quality, used_fallback, cfg))

    n = len(rows)
    # one pass over the rows; each cell's column is then summed in row order,
    # as a per-cell sum over the rows would
    columns = zip(*([getattr(r, key)[h] for key, h in _CELLS] for r in rows))
    means = [sum(map(float, c)) / n for c in columns] if n else [math.nan] * len(_CELLS)
    summary = {key: {} for key, _, _ in _METRIC_LABELS}
    for (key, h), mean in zip(_CELLS, means):
        summary[key][h] = mean
    for per_h in summary.values():
        per_h["avg"] = sum(per_h[h] for h in HORIZONS_S) / len(HORIZONS_S)

    return EvalReport(
        rows=tuple(rows),
        summary=summary,
        total=len(scenarios),
        evaluated=n,
        parse_failures=parse_failures,
        fallbacks_substituted=sum(r.used_fallback for r in rows),
        template_hash=template_hash(),
        config_hash=cfg.hash(),
    )


_METRIC_LABELS = (
    ("l2_at_step", "L2 at step (m)", 1.0),
    ("l2_cumulative", "L2 cumulative mean (m)", 1.0),
    ("collision_at_step", "Collision at step (%)", 100.0),
    ("collision_cumulative", "Collision cumulative (%)", 100.0),
)
# the report's (metric, horizon) cells, in column order
_CELLS = tuple((key, h) for key, _, _ in _METRIC_LABELS for h in HORIZONS_S)


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


def _csv_field(text: str) -> str:
    """``text`` as a CSV field, RFC 4180-quoted only if it holds ``,``, ``"`` or a line break."""
    if "," in text or '"' in text or "\n" in text or "\r" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def render_csv(report: EvalReport) -> str:
    """Per-scenario rows plus one __mean__ row, %.6f values."""
    header = ("scenario_id", "parse_quality", "used_fallback", *(f"{k}_{h:g}s" for k, h in _CELLS))
    out = [",".join(header)]
    row_format = "%s,%s,%d" + ",%.6f" * len(_CELLS)
    for r in report.rows:
        values = [getattr(r, key)[h] for key, h in _CELLS]
        sid = _csv_field(r.scenario_id)
        out.append(row_format % (sid, r.parse_quality, r.used_fallback, *values))
    means = (f"{report.summary[key][h]:.6f}" for key, h in _CELLS)
    out.append(",".join(["__mean__", "", "", *means]))
    return "\n".join(out) + "\n"
