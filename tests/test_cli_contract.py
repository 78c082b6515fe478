"""CLI contracts checked through separate processes.

- ``synth``, ``plan`` and ``evaluate`` run, and a missing scenario file exits 2.
- CLI-written scenario files hold one scenario per line in json's compact
  layout; CLI-written result and fine-tune lines are json's compact layout.
- With stdout a pipe whose reader has gone, buffered or not, ``evaluate``
  keeps its exit code (1 or 0) and writes its reports, and ``--help`` and
  ``plan --help`` exit 0; none puts broken-pipe text on stderr.
- A bad ``parse_quality`` exits 2 before ``report.csv`` is written.
- A truncated results file makes ``evaluate`` warn how many scenarios have
  no result line and count them in ``report.md``; the gate alone sets the
  exit code.
- The replayed ground truth scores 0 in every cell.
- A lone-surrogate scenario id exits 2 and writes nothing.
- A ``split`` whose ``--scenarios-out`` directory does not exist exits 2,
  names that flag and writes no manifest, or leaves an existing one as it was.
- A ``synth`` whose ``--out`` directory does not exist exits 2, names
  ``--out`` and writes nothing.
- A ``synth`` whose ``--out`` name is not UTF-8, with stdout a strict UTF-8
  stream (``PYTHONIOENCODING=utf-8``), exits 0, writes the file and prints
  the name with its backslash escape (``\\udcff``).
- A remote ``plan`` sends ``Bearer $PLANNER_API_KEY`` even when the netrc
  file names the endpoint's host.
- A remote ``plan`` that fails for a scenario whose id holds escape and
  other control characters warns with the id escaped: stderr holds no
  control character but line ends.
- A remote ``plan`` of 200 scenarios against a refused port, four requests
  in flight, writes each warning as a whole stderr line: every line holds
  exactly one ``lmplan: warning:``.
- Float literals respelled with the same quantized value plan and score
  byte-identically.

Each test runs the command line as its own process in ``tmp_path``:
``python -m lmplan.cli`` with this checkout's package on ``PYTHONPATH``, or,
when ``LMPLAN_EXE`` is set, that command (``LMPLAN_EXE=lmplan`` runs the
installed console script) with the environment left as it is, but for
``PYTHONUNBUFFERED``, which the closed-stdout tests set both ways.
"""

from __future__ import annotations

import csv
import dataclasses
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
from mockserver import MockChatServer, echo_target_responder

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


def run_into_closed_stdout(cwd: Path, unbuffered: str, *argv) -> subprocess.CompletedProcess:
    """Run one lmplan command with stdout a pipe whose reader has gone, as
    ``lmplan ... | head -1`` leaves it; ``PYTHONUNBUFFERED`` set to ``unbuffered``,
    or unset when that is empty."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = unbuffered
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = lmplan_run(cwd, *argv, stdout=write_end, env=env)
    finally:
        os.close(write_end)
    assert b"Broken pipe" not in proc.stderr and b"Exception ignored" not in proc.stderr
    return proc


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("threshold, code", [(0, 1), (1, 0)], ids=["gate-trips", "gate-holds"])
def test_a_closed_stdout_keeps_evaluates_exit_code(tmp_path, unbuffered, threshold, code):
    assert lmplan_cmd(tmp_path, "synth", "--count", 4, "--out", "s.json") == 0
    assert lmplan_cmd(tmp_path, "plan", "--scenarios", "s.json", "--out", "all.jsonl",
                      "--mode", "stub_hypothetical") == 0
    lines = (tmp_path / "all.jsonl").read_bytes().splitlines(keepends=True)
    (tmp_path / "r.jsonl").write_bytes(b"".join(lines[:2]))  # 2 of 4 have no result line
    proc = run_into_closed_stdout(tmp_path, unbuffered, "evaluate", "--scenarios", "s.json",
                                  "--results", "r.jsonl", "--out-dir", "report",
                                  "--fail-threshold", threshold)
    assert proc.returncode == code, proc.stderr
    assert (tmp_path / "report" / "report.md").exists()
    assert (tmp_path / "report" / "report.csv").exists()


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [["--help"], ["plan", "--help"]], ids=["help", "plan-help"])
def test_help_into_a_closed_stdout_exits_0(tmp_path, unbuffered, argv):
    proc = run_into_closed_stdout(tmp_path, unbuffered, *argv)
    assert proc.returncode == 0, proc.stderr


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


@pytest.mark.parametrize("threshold, code", [(1, 0), (0, 1)], ids=["gate-holds", "gate-trips"])
def test_a_truncated_results_file_warns_and_counts_the_missing_lines(tmp_path, threshold, code):
    assert lmplan_cmd(tmp_path, "synth", "--count", 10, "--out", "s.json") == 0
    assert lmplan_cmd(tmp_path, "plan", "--scenarios", "s.json", "--out", "all.jsonl",
                      "--mode", "stub_hypothetical") == 0
    lines = (tmp_path / "all.jsonl").read_bytes().splitlines(keepends=True)
    (tmp_path / "r.jsonl").write_bytes(b"".join(lines[:4]))
    proc = lmplan_run(tmp_path, "evaluate", "--scenarios", "s.json", "--results", "r.jsonl",
                      "--out-dir", "report", "--fail-threshold", threshold)
    assert proc.returncode == code, proc.stderr
    assert proc.stderr.decode().splitlines()[0] == (
        "lmplan: warning: r.jsonl: 6 scenario(s) have no result line")
    counts = ("- scenarios: 10 (evaluated 10, parse failures 6 (6 with no result line), "
              "fallbacks substituted 6)")
    assert counts in proc.stdout.decode().splitlines()
    assert counts in (tmp_path / "report" / "report.md").read_text(encoding="utf-8").splitlines()


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


@pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
def test_a_split_with_no_scenarios_out_directory_writes_no_manifest(tmp_path, existing):
    assert lmplan_cmd(tmp_path, "synth", "--count", 4, "--out", "s.json") == 0
    manifest = tmp_path / "m.json"
    if existing:
        manifest.write_bytes(b"old bytes\n")
    proc = lmplan_run(tmp_path, "split", "--scenarios", "s.json", "--fraction", 0.5,
                      "--out", "m.json", "--scenarios-out", "nodir/x.json")
    assert proc.returncode == 2
    assert proc.stderr.decode().startswith("lmplan: error: --scenarios-out nodir/x.json: ")
    if existing:
        assert manifest.read_bytes() == b"old bytes\n"
    else:
        assert not manifest.exists()


def test_a_synth_with_no_out_directory_writes_nothing(tmp_path):
    proc = lmplan_run(tmp_path, "synth", "--count", 4, "--out", "nodir/x.json")
    assert proc.returncode == 2
    assert proc.stderr.decode().startswith("lmplan: error: --out nodir/x.json: ")
    assert list(tmp_path.iterdir()) == []


def test_a_synth_out_a_strict_stdout_cannot_encode_is_written_and_exits_0(tmp_path):
    name = os.fsdecode(b"\xff.json")  # "\udcff.json"
    try:
        (tmp_path / name).touch()
        (tmp_path / name).unlink()
    except (OSError, UnicodeEncodeError):
        pytest.skip("the file system refuses a name that is not UTF-8")
    proc = lmplan_run(tmp_path, "synth", "--count", 2, "--out", name,
                      env=dict(os.environ, PYTHONIOENCODING="utf-8"))
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / name).is_file()
    assert b"\\udcff.json" in proc.stdout, proc.stdout


def test_a_remote_plan_sends_the_key_when_netrc_names_the_host(tmp_path):
    assert lmplan_cmd(tmp_path, "synth", "--count", 4, "--out", "s.json") == 0
    netrc = tmp_path / "netrc"
    netrc.write_text("machine 127.0.0.1 login bob password netrcpw\n")
    netrc.chmod(0o600)
    env = dict(os.environ, NETRC=str(netrc), PLANNER_API_KEY="contract-key")
    scenarios = lmplan.load_scenarios(tmp_path / "s.json")
    with MockChatServer(echo_target_responder(scenarios)) as srv:
        proc = lmplan_run(tmp_path, "plan", "--scenarios", "s.json", "--out", "r.jsonl",
                          "--mode", "remote", "--endpoint", srv.url, env=env)
    assert proc.returncode == 0, proc.stderr
    assert srv.auth_headers == ["Bearer contract-key"] * 4


def test_a_warning_writes_an_escape_bearing_id_escaped(tmp_path):
    sid = "\x1b]0;owned\x07\x1b[2J"
    lmplan.save_scenarios([dataclasses.replace(lmplan.synth_scenario("empty_road", 0), id=sid)],
                          tmp_path / "s.json")
    env = dict(os.environ, PLANNER_API_KEY="contract-key")
    proc = lmplan_run(tmp_path, "plan", "--scenarios", "s.json", "--out", "r.jsonl",
                      "--mode", "remote", "--endpoint", "http://127.0.0.1:1", "--backoff", 0,
                      "--max-retries", 0, "--timeout", 2, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.startswith(b"lmplan: warning: '\\x1b]0;owned\\x07\\x1b[2J': ")
    assert not re.search(rb"[\x00-\x09\x0b-\x1f\x7f]", proc.stderr), proc.stderr


def test_concurrent_warnings_reach_stderr_as_whole_lines(tmp_path):
    # the threads' warnings share one pipe: a line written in two parts can
    # take another thread's warning between them
    assert lmplan_cmd(tmp_path, "synth", "--count", 200, "--out", "s.json") == 0
    env = dict(os.environ, PLANNER_API_KEY="contract-key")
    proc = lmplan_run(tmp_path, "plan", "--scenarios", "s.json", "--out", "r.jsonl",
                      "--mode", "remote", "--endpoint", "http://127.0.0.1:1", "--backoff", 0,
                      "--max-retries", 0, "--timeout", 2, "--max-in-flight", 4, env=env)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stderr.decode().splitlines()
    assert len(lines) == 200
    assert [line.count("lmplan: warning:") for line in lines] == [1] * 200, proc.stderr


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
