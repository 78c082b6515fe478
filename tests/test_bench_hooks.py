"""A name the benchmark's tracer hooks that is gone, or that the pipeline no
longer calls through, fails here, not only in a traced run."""

from pathlib import Path

import pytest

from lmplan import cli, load_scenarios
from mockserver import MockChatServer, echo_target_responder

BENCH = Path(__file__).resolve().parent.parent / "bench"
needs_bench = pytest.mark.skipif(not (BENCH / "layers.py").exists(),
                                 reason="no bench/ in this checkout")


@needs_bench
def test_pass_tracer_finds_every_hooked_name(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    from layers import install_pass_tracer
    from tracing import Tracer

    complete, tracer = cli.complete, Tracer()
    try:
        install_pass_tracer(tracer)  # raises AttributeError for a hooked name that is gone
        assert cli.complete is not complete
    finally:
        tracer.uninstall()
    assert cli.complete is complete


@needs_bench
def test_pass_tracer_hooks_fire_in_a_pipeline_run(monkeypatch, tmp_path, api_key_env):
    # a call site moved out of cli's globals leaves its hook in place but never called;
    # the run takes each workload's command shape: offline_eval, finetune_export, remote_plan
    monkeypatch.syspath_prepend(str(BENCH))
    from layers import install_pass_tracer
    from tracing import Tracer

    scenarios, results = tmp_path / "scenarios.json", tmp_path / "results.jsonl"
    # the mock's answers are made untraced, so every span below comes from the pipeline
    assert cli.main(["synth", "--out", str(scenarios), "--count", "4"]) == 0
    responder = echo_target_responder(load_scenarios(scenarios))
    tracer = Tracer()
    try:
        install_pass_tracer(tracer)
        assert cli.main(["synth", "--out", str(scenarios), "--count", "4"]) == 0
        for mode in ("stub_replay_gt", "stub_hypothetical"):
            assert cli.main(["plan", "--scenarios", str(scenarios), "--out", str(results),
                             "--mode", mode]) == 0
        assert cli.main(["evaluate", "--scenarios", str(scenarios), "--results", str(results),
                         "--out-dir", str(tmp_path / "rep")]) == 0
        assert cli.main(["export-finetune", "--scenarios", str(scenarios),
                         "--out", str(tmp_path / "train.jsonl")]) == 0
        with MockChatServer(responder) as srv:
            assert cli.main(["plan", "--scenarios", str(scenarios),
                             "--out", str(tmp_path / "remote.jsonl"), "--mode", "remote",
                             "--endpoint", srv.url, "--exemplars", "1",
                             "--exemplar-scenarios", str(scenarios)]) == 0
    finally:
        tracer.uninstall()
    assert {s.name for s in tracer.spans} >= {
        "cli.plan", "cli.evaluate", "scenario.load", "parsing.parse",
        "backend.complete.stub_replay_gt", "backend.complete.stub_hypothetical",
        "metrics.evaluate", "metrics.render_markdown", "metrics.render_csv",
        "cli.synth", "scenario.synth", "scenario.save", "cli.export_finetune",
        "reasoning.example", "prompts.build", "codec.serialize", "backend.export",
        "prompts.pack", "backend.complete.remote", "backend.post", "codec.parse",
    }
    assert tracer.counts()["codec.quantize"] > 0
