"""CLI contracts checked through separate processes.

Each test runs the command line as its own process in ``tmp_path``:
``python -m lmplan.cli`` with this checkout's package on ``PYTHONPATH``, or,
when ``LMPLAN_EXE`` is set, that command (``LMPLAN_EXE=lmplan`` runs the
installed console script) with the environment left as it is, but for
``PYTHONUNBUFFERED``, which the closed-stdout test sets both ways.
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

import pytest

import lmplan

_PACKAGE_ROOT = str(Path(lmplan.__file__).resolve().parent.parent)


def lmplan_run(cwd: Path, *argv, stdout=subprocess.PIPE, env=None) -> subprocess.CompletedProcess:
    """Run one lmplan command in ``cwd``, in ``env`` (default this process's environment)."""
    exe = os.environ.get("LMPLAN_EXE")
    env = dict(os.environ if env is None else env)
    if exe:
        cmd = shlex.split(exe)
    else:
        cmd = [sys.executable, "-m", "lmplan.cli"]
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (_PACKAGE_ROOT, env.get("PYTHONPATH"))))
    return subprocess.run(
        cmd + [str(a) for a in argv], cwd=cwd, env=env, stdout=stdout, stderr=subprocess.PIPE,
        timeout=300,
    )


def lmplan_cmd(cwd: Path, *argv) -> int:
    """Run one lmplan command in ``cwd``; its exit code."""
    return lmplan_run(cwd, *argv).returncode


def test_synth_plan_evaluate_run_and_a_missing_file_exits_2(tmp_path):
    assert lmplan_cmd(tmp_path, "synth", "--count", 40, "--out", "s.json") == 0
    assert lmplan_cmd(tmp_path, "plan", "--scenarios", "s.json", "--out", "r.jsonl",
                      "--mode", "stub_hypothetical") == 0
    assert lmplan_cmd(tmp_path, "evaluate", "--scenarios", "s.json", "--results", "r.jsonl",
                      "--out-dir", "report") == 0
    assert lmplan_cmd(tmp_path, "plan", "--scenarios", "missing.json", "--out", "m.jsonl",
                      "--mode", "stub_hypothetical") == 2
    assert not (tmp_path / "m.jsonl").exists()


def test_cli_written_scenario_files_are_one_compact_scenario_per_line(tmp_path):
    # json.dumps re-encodes each decoded entry, an oracle independent of the writer
    assert lmplan_cmd(tmp_path, "synth", "--count", 40, "--out", "s.json") == 0
    assert lmplan_cmd(tmp_path, "split", "--scenarios", "s.json", "--fraction", 0.5,
                      "--out", "manifest.json", "--scenarios-out", "sub.json") == 0
    assert lmplan_cmd(tmp_path, "export-finetune", "--scenarios", "sub.json",
                      "--out", "ft.jsonl") == 0
    for name in ("s.json", "sub.json"):
        data = (tmp_path / name).read_bytes()
        entries = [json.dumps(entry, separators=(",", ":"), ensure_ascii=False)
                   for entry in json.loads(data)["scenarios"]]
        want = '{"scenarios":[\n' + ",\n".join(entries) + "\n]}\n"
        assert data == want.encode("utf-8"), name


def test_cli_written_result_and_finetune_lines_are_compact_json(tmp_path):
    # json.dumps re-encodes each line, an oracle independent of both line writers
    assert lmplan_cmd(tmp_path, "synth", "--count", 40, "--out", "s.json") == 0
    assert lmplan_cmd(tmp_path, "export-finetune", "--scenarios", "s.json",
                      "--out", "ft.jsonl") == 0
    names = ["ft.jsonl"]
    for mode in ("stub_replay_gt", "stub_hypothetical"):
        assert lmplan_cmd(tmp_path, "plan", "--scenarios", "s.json", "--out", f"{mode}.jsonl",
                          "--mode", mode) == 0
        names.append(f"{mode}.jsonl")
    for name in names:
        lines = (tmp_path / name).read_text(encoding="utf-8").splitlines()
        assert len(lines) == 40, name
        for line in lines:
            assert line == json.dumps(json.loads(line), separators=(",", ":"),
                                      ensure_ascii=False), name


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("threshold, code", [(0, 1), (1, 0)], ids=["gate-trips", "gate-holds"])
def test_a_closed_stdout_keeps_evaluates_exit_code(tmp_path, unbuffered, threshold, code):
    # a reader that exits early, as `lmplan evaluate ... | head -1` has
    assert lmplan_cmd(tmp_path, "synth", "--count", 4, "--out", "s.json") == 0
    assert lmplan_cmd(tmp_path, "plan", "--scenarios", "s.json", "--out", "all.jsonl",
                      "--mode", "stub_hypothetical") == 0
    lines = (tmp_path / "all.jsonl").read_bytes().splitlines(keepends=True)
    (tmp_path / "r.jsonl").write_bytes(b"".join(lines[:2]))  # 2 of 4 fail to parse
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = unbuffered
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = lmplan_run(tmp_path, "evaluate", "--scenarios", "s.json", "--results", "r.jsonl",
                          "--out-dir", "report", "--fail-threshold", threshold,
                          stdout=write_end, env=env)
    finally:
        os.close(write_end)
    assert proc.returncode == code, proc.stderr
    assert (tmp_path / "report" / "report.md").exists()
    assert (tmp_path / "report" / "report.csv").exists()
    assert b"Broken pipe" not in proc.stderr and b"Exception ignored" not in proc.stderr


def test_a_bad_parse_quality_exits_2_before_any_report(tmp_path):
    # a quality holding a comma and a newline would split report.csv rows
    assert lmplan_cmd(tmp_path, "synth", "--count", 4, "--out", "s.json") == 0
    assert lmplan_cmd(tmp_path, "plan", "--scenarios", "s.json", "--out", "r.jsonl",
                      "--mode", "stub_hypothetical") == 0
    rows = [json.loads(line) for line in (tmp_path / "r.jsonl").read_text("utf-8").splitlines()]
    rows[0]["parse_quality"] = "clean,1\nx"
    (tmp_path / "bad.jsonl").write_text(
        "".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8"
    )
    assert lmplan_cmd(tmp_path, "evaluate", "--scenarios", "s.json", "--results", "bad.jsonl",
                      "--out-dir", "report") == 2
    assert not (tmp_path / "report" / "report.csv").exists()


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
