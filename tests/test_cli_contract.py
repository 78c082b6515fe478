"""CLI contracts checked through separate processes.

Each test runs the command line as its own process in ``tmp_path``:
``python -m lmplan.cli`` with this checkout's package on ``PYTHONPATH``, or,
when ``LMPLAN_EXE`` is set, that command (``LMPLAN_EXE=lmplan`` runs the
installed console script) with the environment left as it is.
"""

from __future__ import annotations

import csv
import itertools
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import lmplan

_PACKAGE_ROOT = str(Path(lmplan.__file__).resolve().parent.parent)


def lmplan_cmd(cwd: Path, *argv) -> int:
    """Run one lmplan command in ``cwd``; its exit code."""
    exe = os.environ.get("LMPLAN_EXE")
    env = dict(os.environ)
    if exe:
        cmd = shlex.split(exe)
    else:
        cmd = [sys.executable, "-m", "lmplan.cli"]
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (_PACKAGE_ROOT, env.get("PYTHONPATH"))))
    proc = subprocess.run(
        cmd + [str(a) for a in argv], cwd=cwd, env=env, capture_output=True, timeout=300
    )
    return proc.returncode


def test_replayed_ground_truth_scores_zero_in_every_cell(tmp_path):
    # quantize -> serialize -> parse -> score, as separate processes
    assert lmplan_cmd(tmp_path, "synth", "--count", 40, "--out", "s.json") == 0
    assert lmplan_cmd(tmp_path, "plan", "--scenarios", "s.json", "--out", "r.jsonl",
                      "--mode", "stub_replay_gt") == 0
    assert lmplan_cmd(tmp_path, "evaluate", "--scenarios", "s.json", "--results", "r.jsonl",
                      "--out-dir", "report", "--fail-threshold", 0) == 0
    with open(tmp_path / "report" / "report.csv", newline="", encoding="utf-8") as f:
        rows = list(csv.DictReader(f))
    scores = [v for r in rows for k, v in r.items() if k.startswith(("l2_", "collision_"))]
    assert len(rows) == 41 and len(scores) == 41 * 12
    assert all(float(v) == 0 for v in scores)


def test_a_lone_surrogate_scenario_id_exits_2_and_writes_nothing(tmp_path):
    assert lmplan_cmd(tmp_path, "synth", "--count", 1, "--out", "s.json") == 0
    doc = json.loads((tmp_path / "s.json").read_text(encoding="utf-8"))
    doc["scenarios"][0]["id"] = "\ud800"
    (tmp_path / "bad.json").write_text(json.dumps(doc), encoding="ascii")
    assert lmplan_cmd(tmp_path, "plan", "--scenarios", "bad.json", "--out", "bad.jsonl",
                      "--mode", "stub_hypothetical") == 2
    assert not (tmp_path / "bad.jsonl").exists()


def _respell(text: str) -> str:
    """Each float literal written as X.YZ0, X.YZ0000001 or NNNe-2 in turn; strings untouched."""
    forms = itertools.cycle((
        lambda v: f"{v:.2f}0",
        lambda v: f"{v:.2f}0000001",
        lambda v: f"{round(v * 100)}e-2",
    ))
    token = re.compile(r'"(?:[^"\\]|\\.)*"|-?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?')

    def respell(m):
        tok = m[0]
        if tok.startswith('"') or not any(c in tok for c in ".eE"):
            return tok
        return next(forms)(float(tok))

    return token.sub(respell, text)


def test_respelled_float_literals_plan_and_score_byte_identically(tmp_path):
    # the loader decodes each distinct literal once per load, so a literal
    # respelled with the same quantized value must change no output byte
    assert lmplan_cmd(tmp_path, "synth", "--count", 40, "--out", "s.json") == 0
    respelled = _respell((tmp_path / "s.json").read_text(encoding="utf-8"))
    assert respelled.count("e-2") >= 100 and respelled.count("0000001") >= 100
    (tmp_path / "respelled.json").write_text(respelled, encoding="utf-8")
    for mode in ("stub_replay_gt", "stub_hypothetical"):
        for name in ("s", "respelled"):
            assert lmplan_cmd(tmp_path, "plan", "--scenarios", f"{name}.json",
                              "--out", f"{name}-{mode}.jsonl", "--mode", mode) == 0
            assert lmplan_cmd(tmp_path, "evaluate", "--scenarios", f"{name}.json", "--results",
                              f"{name}-{mode}.jsonl", "--out-dir", f"{name}-{mode}") == 0
        for out in (f"{{}}-{mode}.jsonl", f"{{}}-{mode}/report.md", f"{{}}-{mode}/report.csv"):
            a, b = (tmp_path / out.format(name) for name in ("s", "respelled"))
            assert a.read_bytes() == b.read_bytes(), out.format("respelled")
