"""The README's Quick start code runs as written."""

import re
from pathlib import Path

from lmplan import make_finetune_example, synth_scenario

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_start_code() -> str:
    """The first ```python block under ``## Quick start``, before the next heading."""
    section = README.read_text(encoding="utf-8").split("\n## Quick start\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    match = re.search(r"^```python\n(.*?)^```$", section, re.DOTALL | re.MULTILINE)
    assert match, "no python block under ## Quick start"
    return match[1]


def test_quick_start_runs_and_prints_the_supervision_target(capsys):
    exec(compile(quick_start_code(), str(README), "exec"), {"__name__": "quick_start"})
    printed = capsys.readouterr().out.splitlines()
    target = make_finetune_example(synth_scenario("crossing_pedestrian", 4)).target_text
    trajectory_line = target.splitlines()[-1]
    assert trajectory_line.startswith("Trajectory: ")
    assert printed[-1] == trajectory_line
