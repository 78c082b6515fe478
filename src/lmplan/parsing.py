"""Parsing of model output into a plan: trajectory, decision, and quality.

``parse_plan_output`` is total: any string (including fuzzer garbage) maps
to a ``PlanOutput``, never an exception. Quality is a three-step ladder:

- ``clean``: every announced section label is present and the text after
  the last ``Trajectory:`` label holds a well-formed bracketed list with
  exactly the expected number of pairs.
- ``recovered``: the structure is broken but the expected number of
  coordinate pairs could still be pulled out of the text.
- ``failed``: no usable trajectory; ``error`` says what was found.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass

from .codec import (
    CodecConfig,
    Trajectory,
    TrajectoryParseError,
    locate_trajectory,
    parse_trajectory,
)
from .prompts import SECTION_DECISION, SECTION_LABELS, SECTION_TRAJECTORY, Decision


class ParseQuality(str, enum.Enum):
    CLEAN = "clean"
    RECOVERED = "recovered"
    FAILED = "failed"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class PlanOutput:
    quality: ParseQuality
    trajectory: Trajectory | None
    decision: Decision | None
    error: str | None = None


# Longest token first so alternation cannot stop at a shorter one; accepts
# underscore, hyphen, or whitespace between the words of a token.
_DECISION_RE = re.compile(
    r"\b(?:"
    + "|".join(
        d.value.replace("_", r"[ _\-]+")
        for d in sorted(Decision, key=lambda d: -len(d.value))
    )
    + r")\b",
    re.IGNORECASE,
)


def _last_label_tail(text: str, label: str) -> str | None:
    """Text after the final occurrence of `label`, case-insensitive."""
    i = text.lower().rfind(label.lower())
    if i < 0:
        return None
    return text[i + len(label):]


def _decision_section(text: str) -> str | None:
    """Body of the last Decision section: up to the next label or blank line."""
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


def extract_decision(text: str) -> Decision | None:
    """First decision token inside the Decision section, if any.

    Scoped to the labeled section so maneuver words elsewhere in the
    reasoning cannot be mistaken for the verdict; the earliest token wins
    because the format puts the decision before its justification.
    """
    section = _decision_section(text)
    if section is None:
        return None
    m = _DECISION_RE.search(section)
    if m is None:
        return None
    token = re.sub(r"[ _\-]+", "_", m.group(0).lower())
    return Decision(token)


def _has_all_labels(text: str) -> bool:
    low = text.lower()
    return all(label.lower() in low for label in SECTION_LABELS)


def parse_plan_output(
    text: str, horizon_steps: int, cfg: CodecConfig = CodecConfig()
) -> PlanOutput:
    """Classify and extract a plan from raw model output. Never raises."""
    decision = extract_decision(text)

    trajectory = None
    error = None
    tail = _last_label_tail(text, SECTION_TRAJECTORY)
    if tail is not None:
        try:
            trajectory = parse_trajectory(tail, horizon_steps, cfg)
        except TrajectoryParseError as e:
            error = str(e)

    # locate_trajectory answers from parse_trajectory's memo: no second scan
    if (
        trajectory is not None
        and _has_all_labels(text)
        and locate_trajectory(tail, horizon_steps, cfg)[1]
    ):
        return PlanOutput(ParseQuality.CLEAN, trajectory, decision)

    if trajectory is None:
        try:
            trajectory = parse_trajectory(text, horizon_steps, cfg)
        except TrajectoryParseError as e:
            if error is None:
                error = str(e)

    if trajectory is not None:
        return PlanOutput(ParseQuality.RECOVERED, trajectory, decision)
    return PlanOutput(ParseQuality.FAILED, None, decision, error)
