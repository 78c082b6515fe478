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

from .codec import Trajectory, TrajectoryParseError, parse_trajectory
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
# underscore, hyphen, or whitespace between the words of a token. Each token
# is a group named by its value, so a match names its decision even when
# IGNORECASE let a letter through that ``str.lower`` does not map to ASCII
# (the long s in "ſtop", the dotted capital I in "rİght").
_DECISION_RE = re.compile(
    r"\b(?:"
    + "|".join(
        f"(?P<{d.value}>" + d.value.replace("_", r"[ _\-]+") + ")"
        for d in sorted(Decision, key=lambda d: -len(d.value))
    )
    + r")\b",
    re.IGNORECASE,
)
_DECISION_OF_TOKEN = {d.value: d for d in Decision}

# the labels as they appear in lowercased text; the parser lowercases a
# reply once (``_lower``) and searches that
_LABELS = tuple(label.lower() for label in SECTION_LABELS)
_DECISION_LABEL = SECTION_DECISION.lower()
_TRAJECTORY_LABEL = SECTION_TRAJECTORY.lower()


def _lower(text: str) -> str:
    """``text.lower()`` one character for one, so that an index into it is an
    index into ``text``: a character that lowercases to two (``"İ"``) stays
    as it is. No label holds such a character."""
    low = text.lower()
    if len(low) == len(text):
        return low
    return "".join(c if len(c.lower()) > 1 else c.lower() for c in text)


def _decision_section(text: str, low: str) -> str:
    """Body of the last Decision section, up to the next label or blank line
    (``""`` if there is none); ``low`` is ``_lower(text)``."""
    i = low.rfind(_DECISION_LABEL)
    if i < 0:
        return ""
    start = i + len(SECTION_DECISION)
    end = len(text)
    for label in _LABELS:
        j = low.find(label, start)
        if j >= 0:
            end = min(end, j)
    blank = text.find("\n\n", start)
    if blank >= 0:
        end = min(end, blank)
    return text[start:end]


def _decision_in(text: str, low: str) -> Decision | None:
    m = _DECISION_RE.search(_decision_section(text, low))
    return None if m is None else _DECISION_OF_TOKEN[m.lastgroup]


def parse_plan_output(text: str, horizon_steps: int) -> PlanOutput:
    """Classify and extract a plan from raw model output. Never raises.

    The decision is the first decision token inside the last Decision
    section, taken whatever the trajectory: scoped to the labeled section so
    maneuver words elsewhere in the reasoning cannot be mistaken for the
    verdict, earliest first because the format puts the decision before its
    justification. The text after the last ``Trajectory:`` label is scanned
    once; the whole text is scanned only when that tail yields no trajectory.
    """
    low = _lower(text)
    decision = _decision_in(text, low)

    error = None
    i = low.rfind(_TRAJECTORY_LABEL)
    if i >= 0:
        tail = text[i + len(SECTION_TRAJECTORY):]
        try:
            trajectory, bracketed = parse_trajectory(tail, horizon_steps)
        except TrajectoryParseError as e:
            error = str(e)
        else:
            if bracketed and all(label in low for label in _LABELS):
                return PlanOutput(ParseQuality.CLEAN, trajectory, decision)
            return PlanOutput(ParseQuality.RECOVERED, trajectory, decision)

    try:
        trajectory = parse_trajectory(text, horizon_steps)[0]
    except TrajectoryParseError as e:
        return PlanOutput(ParseQuality.FAILED, None, decision, error or str(e))
    return PlanOutput(ParseQuality.RECOVERED, trajectory, decision)
