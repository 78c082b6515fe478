"""The three workloads: seeded inputs, one pass through the CLI, output checks.

Each workload runs ``lmplan.cli.main`` in this process, the same code path
as the ``lmplan`` command. ``setup_steps()`` build the seeded inputs (and,
for ``remote_plan``, start the endpoint); ``pass_steps()`` are the timed
unit, one CLI command each, so the runner can time them one by one;
``check()`` returns the problems found in the pass's outputs, empty when
they are correct.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import json
import os
import random
from pathlib import Path

from lmplan import cli
from lmplan.backend import API_KEY_ENV, finetune_line, load_finetune_jsonl
from lmplan.prompts import build_user_prompt, template_hash
from lmplan.reasoning import make_finetune_example
from lmplan.scenario import SYNTH_KINDS, load_scenarios, save_scenarios, synth_scenario

from endpoint import MockEndpoint, Schedule

REMOTE_SLOTS = 2  # --max-in-flight; the nproc of the 2-core reference machine
REMOTE_EXEMPLARS = 5


class _Discard:
    def write(self, s):
        return len(s)

    def flush(self):
        pass


def run_cli(*argv) -> None:
    """Run one lmplan command with its stdout discarded; raise on a non-zero exit."""
    with contextlib.redirect_stdout(_Discard()):
        code = cli.main([str(a) for a in argv])
    if code != 0:
        raise RuntimeError(f"lmplan {argv[0]} exited {code}")


def digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def mixed_scenarios(n: int, seed: int, first_id: int, distinct_prompts: bool = False) -> list:
    """n synth scenarios of seeded random archetypes with distinct ids.

    With ``distinct_prompts``, a scenario whose scene text repeats an
    earlier one is skipped: an endpoint can only tell scenarios apart by
    their prompts.
    """
    rng = random.Random(f"scenarios/{seed}")
    out, seen = [], set()
    for i in itertools.count():
        if len(out) == n:
            return out
        s = synth_scenario(rng.choice(SYNTH_KINDS), first_id + i)
        if distinct_prompts:
            text = build_user_prompt(s)
            if text in seen:
                continue
            seen.add(text)
        out.append(s)


def read_results(path) -> list[dict]:
    with open(path, encoding="utf-8") as f:
        return [json.loads(line) for line in f if line.strip()]


def count_failed(*paths) -> int:
    return sum(r["parse_quality"] == "failed" for p in paths for r in read_results(p))


class Workload:
    name = ""
    n = 0  # scenarios per pass
    planned_per_pass = 0  # scenarios cmd_plan handles in one pass
    results_per_pass = 0  # result lines or records one pass writes
    answer_fn = None  # lmplan.cli function whose calls are the offline "requests"
    cpu_bound = True  # pass times are scaled to the reference speed

    def __init__(self, work: Path, seed: int):
        self.work = work
        self.seed = seed
        work.mkdir(parents=True, exist_ok=True)

    def setup_steps(self) -> list:
        """Callables that, run in order, build this workload's inputs."""
        raise NotImplementedError

    def pass_steps(self) -> list:
        """Callables that, run in order, make one pass of CLI commands."""
        raise NotImplementedError

    def pass_facts(self) -> dict:
        """Facts about the pass just run."""
        return {"scenarios": self.n}

    def setup(self) -> None:
        for step in self.setup_steps():
            step()

    def run_pass(self) -> dict:
        for step in self.pass_steps():
            step()
        return self.pass_facts()

    def check(self) -> tuple[list[str], int]:
        """Problems in the last pass's outputs, and how many of its results are failed."""
        raise NotImplementedError

    def close(self) -> None:
        pass


class OfflineEval(Workload):
    """plan in both stub modes, then evaluate each: the paper's upper/lower bound bracket."""

    name = "offline_eval"
    n = 400
    planned_per_pass = results_per_pass = 2 * n
    answer_fn = "complete"

    def setup_steps(self):
        return [self._synth_inputs, self._write_inputs]

    def _synth_inputs(self):
        self._synth = mixed_scenarios(self.n, self.seed, 10_000)

    def _write_inputs(self):
        self.scenarios = self.work / "scenarios.json"
        save_scenarios(self._synth, self.scenarios)
        self.ids = sorted(s.id for s in self._synth)
        self.reference = None  # output digests of the first pass

    def outputs(self):
        return {
            "gt": self.work / "results_gt.jsonl",
            "hypo": self.work / "results_hypo.jsonl",
            "gt_report": self.work / "eval_gt",
            "hypo_report": self.work / "eval_hypo",
        }

    def pass_steps(self):
        o, scn = self.outputs(), self.scenarios
        return [
            lambda: run_cli("plan", "--scenarios", scn, "--out", o["gt"],
                            "--mode", "stub_replay_gt"),
            lambda: run_cli("plan", "--scenarios", scn, "--out", o["hypo"],
                            "--mode", "stub_hypothetical"),
            lambda: run_cli("evaluate", "--scenarios", scn, "--results", o["gt"],
                            "--out-dir", o["gt_report"]),
            lambda: run_cli("evaluate", "--scenarios", scn, "--results", o["hypo"],
                            "--out-dir", o["hypo_report"]),
        ]

    def check(self):
        o = self.outputs()
        problems = check_offline(o["gt"], o["hypo"], o["gt_report"], self.ids)
        files = [o["gt"], o["hypo"]] + [
            o[k] / name for k in ("gt_report", "hypo_report") for name in ("report.md", "report.csv")
        ]
        digests = [digest(p) for p in files]
        if self.reference is None:
            self.reference = digests
        elif digests != self.reference:
            problems.append("offline outputs differ from the first pass's bytes")
        return problems, count_failed(o["gt"], o["hypo"])


def check_offline(gt_path, hypo_path, gt_report_dir, ids) -> list[str]:
    """Replay must score zero everywhere with no parse failure; hypothetical must be clean."""
    problems = []
    gt = read_results(gt_path)
    hypo = read_results(hypo_path)
    for label, lines in (("replay", gt), ("hypothetical", hypo)):
        if sorted(r["scenario_id"] for r in lines) != ids:
            problems.append(f"{label} results do not hold one line per scenario")
    unclean = [r["scenario_id"] for r in hypo if r["parse_quality"] != "clean"]
    if unclean:
        problems.append(f"{len(unclean)} hypothetical results not clean, e.g. {unclean[0]}")
    md = (Path(gt_report_dir) / "report.md").read_text(encoding="utf-8")
    if "parse failures 0," not in md:
        problems.append("replay report counts parse failures")
    rows = (Path(gt_report_dir) / "report.csv").read_text(encoding="utf-8").splitlines()
    for row in rows[1:]:
        cells = row.split(",")
        if cells[0] != "__mean__" and (cells[1] != "clean" or cells[2] != "0"):
            problems.append(f"replay row {cells[0]} is {cells[1]} with fallback {cells[2]}")
            break
        if any(float(v) != 0.0 for v in cells[3:]):
            problems.append(f"replay row {cells[0]} scores non-zero L2 or collision")
            break
    if len(rows) != len(ids) + 2:
        problems.append("replay report.csv does not hold one row per scenario plus the mean")
    return problems


class FinetuneExport(Workload):
    """synth then export-finetune: the write path over the same scenario layers."""

    name = "finetune_export"
    n = 400
    results_per_pass = n
    answer_fn = "make_finetune_example"

    def setup_steps(self):
        # the expected export, built through the library: what cmd_synth
        # writes is what export-finetune reads back
        return [self._write_reference_scenarios, self._build_reference_export]

    def _write_reference_scenarios(self):
        self.first_seed = 100_000 + self.seed * self.n
        self.scenarios = self.work / "synth.json"
        self.out = self.work / "finetune.jsonl"
        self.reference_scenarios = self.work / "expected_scenarios.json"
        save_scenarios(
            [synth_scenario(SYNTH_KINDS[i % len(SYNTH_KINDS)], self.first_seed + i)
             for i in range(self.n)],
            self.reference_scenarios,
        )

    def _build_reference_export(self):
        blob = "".join(finetune_line(make_finetune_example(s)) + "\n"
                       for s in load_scenarios(self.reference_scenarios))
        self.expected = hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def pass_steps(self):
        return [
            lambda: run_cli("synth", "--count", self.n, "--seed", self.first_seed,
                            "--out", self.scenarios),
            lambda: run_cli("export-finetune", "--scenarios", self.scenarios, "--out", self.out),
        ]

    def check(self):
        problems = check_finetune(self.out, self.n, self.expected)
        return problems, self.n if problems else 0


def check_finetune(out, n: int, expected_digest: str) -> list[str]:
    """N records load back, the sidecar names this template, the bytes are the reference's."""
    problems = []
    try:
        records = load_finetune_jsonl(out)
    except ValueError as e:
        return [f"export does not load back: {e}"]
    if len(records) != n:
        problems.append(f"export holds {len(records)} records, expected {n}")
    meta = json.loads(Path(str(out) + ".meta.json").read_text(encoding="utf-8"))
    if meta.get("template_hash") != template_hash():
        problems.append(f"sidecar template_hash {meta.get('template_hash')!r} != {template_hash()!r}")
    if meta.get("count") != n:
        problems.append(f"sidecar count {meta.get('count')!r} != {n}")
    if digest(out) != expected_digest:
        problems.append("export bytes differ from the library-built reference")
    return problems


class RemotePlan(Workload):
    """plan --mode remote against the in-process mock endpoint, closed loop."""

    name = "remote_plan"
    n = 100
    planned_per_pass = results_per_pass = n
    cpu_bound = False  # waits on the endpoint; wall time is the measure

    def __init__(self, work, seed):
        super().__init__(work, seed)
        self.endpoint = None

    def setup_steps(self):
        return [self._write_inputs, self._start_endpoint]

    def _write_inputs(self):
        os.environ[API_KEY_ENV] = "bench-key"
        self.close()
        self.scenarios = self.work / "scenarios.json"
        self.exemplars = self.work / "exemplars.json"
        self.out = self.work / "results.jsonl"
        save_scenarios(mixed_scenarios(self.n, self.seed, 20_000, distinct_prompts=True),
                       self.scenarios)
        save_scenarios(mixed_scenarios(REMOTE_EXEMPLARS, self.seed + 1, 30_000), self.exemplars)

    def _start_endpoint(self):
        """Build the answer table from the scenarios as the CLI will load them."""
        loaded = load_scenarios(self.scenarios)
        answers = []
        self.expected = {}
        for s in loaded:
            ex = make_finetune_example(s)
            answers.append((ex.prompt.user_text, ex.target_text))
            self.expected[s.id] = [[w.x, w.y] for w in s.human_trajectory.waypoints]
        schedule = Schedule(self.n, self.seed)
        self.garbled_ids = {loaded[i].id for i in schedule.garbled}
        self.endpoint = MockEndpoint(answers, schedule).__enter__()

    def pass_steps(self):
        return [self._plan]

    def _plan(self):
        self.endpoint.reset()
        run_cli("plan", "--scenarios", self.scenarios, "--out", self.out, "--mode", "remote",
                "--endpoint", self.endpoint.url, "--exemplars", REMOTE_EXEMPLARS,
                "--exemplar-scenarios", self.exemplars, "--max-in-flight", REMOTE_SLOTS)

    def pass_facts(self):
        counters = self.endpoint.counters()
        return {"scenarios": self.n, "requests": counters["requests"], "endpoint": counters}

    def check(self):
        return check_remote(self.out, self.expected, self.garbled_ids), count_failed(self.out)

    def close(self):
        if self.endpoint is not None:
            self.endpoint.close()
            self.endpoint = None


def check_remote(out, expected: dict, garbled_ids: set) -> list[str]:
    """One line per scenario; replay trajectories where not garbled; failed == garbled."""
    problems = []
    lines = read_results(out)
    ids = [r["scenario_id"] for r in lines]
    if sorted(ids) != sorted(expected):
        problems.append(f"{len(lines)} result lines for {len(expected)} scenarios")
    failed = {r["scenario_id"] for r in lines if r["parse_quality"] == "failed"}
    if failed != garbled_ids:
        problems.append(f"{len(failed)} failed results, the endpoint garbled {len(garbled_ids)}")
    for r in lines:
        sid = r["scenario_id"]
        if sid not in garbled_ids and r["trajectory"] != expected.get(sid):
            problems.append(f"{sid}: trajectory differs from the replay trajectory")
            break
    return problems


WORKLOADS = {w.name: w for w in (OfflineEval, FinetuneExport, RemotePlan)}
