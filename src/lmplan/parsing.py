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

from .codec import Trajectory, TrajectoryParseError, locate_trajectory, parse_trajectory
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


def _decision_section(text: str, low: str) -> str | None:
    """Body of the last Decision section: up to the next label or blank line.

    ``low`` is ``_lower(text)``.
    """
    i = low.rfind(_DECISION_LABEL)
    if i < 0:
        return None
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
    section = _decision_section(text, low)
    if section is None:
        return None
    m = _DECISION_RE.search(section)
    if m is None:
        return None
    return _DECISION_OF_TOKEN[m.lastgroup]


def extract_decision(text: str) -> Decision | None:
    """First decision token inside the Decision section, if any.

    Scoped to the labeled section so maneuver words elsewhere in the
    reasoning cannot be mistaken for the verdict; the earliest token wins
    because the format puts the decision before its justification.
    """
    return _decision_in(text, _lower(text))


def parse_plan_output(text: str, horizon_steps: int) -> PlanOutput:
    """Classify and extract a plan from raw model output. Never raises."""
    low = _lower(text)
    decision = _decision_in(text, low)

    trajectory = None
    error = None
    i = low.rfind(_TRAJECTORY_LABEL)
    tail = None if i < 0 else text[i + len(SECTION_TRAJECTORY):]
    if tail is not None:
        try:
            trajectory = parse_trajectory(tail, horizon_steps)
        except TrajectoryParseError as e:
            error = str(e)

    # locate_trajectory answers from parse_trajectory's memo: no second scan
    if (
        trajectory is not None
        and all(label in low for label in _LABELS)
        and locate_trajectory(tail, horizon_steps)[1]
    ):
        return PlanOutput(ParseQuality.CLEAN, trajectory, decision)

    if trajectory is None:
        try:
            trajectory = parse_trajectory(text, horizon_steps)
        except TrajectoryParseError as e:
            if error is None:
                error = str(e)

    if trajectory is not None:
        return PlanOutput(ParseQuality.RECOVERED, trajectory, decision)
    return PlanOutput(ParseQuality.FAILED, None, decision, error)
