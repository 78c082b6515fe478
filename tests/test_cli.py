import contextlib
import io
import json

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from lmplan import (
    BackendConfig,
    EvalConfig,
    build_prompt,
    load_finetune_jsonl,
    load_scenarios,
    make_finetune_example,
    messages_from_prompt,
    template_hash,
)
from lmplan import cli
from lmplan.cli import main
from lmplan.metrics import FALLBACK_POLICIES
from lmplan.prompts import pack_exemplars
from lmplan.scenario import SYNTH_KINDS
from mockserver import MockChatServer, echo_target_responder, garble


def run(*argv):
    return main([str(a) for a in argv])


def synth_file(tmp_path, count=12, name="scenarios.json", **flags):
    path = tmp_path / name
    argv = ["synth", "--out", path, "--count", count, "--seed", 0]
    for flag, value in flags.items():
        argv += [f"--{flag.replace('_', '-')}", value]
    assert run(*argv) == 0
    return path


def read_results(path):
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]


def request_order(srv, scenarios):
    """The scenario index of each request the mock server saw, in arrival order."""
    index = {build_prompt(s).user_text: i for i, s in enumerate(scenarios)}
    return [index[req["messages"][-1]["content"]] for req in srv.requests]


class TestSynth:
    def test_writes_loadable_scenarios(self, tmp_path, capsys):
        path = synth_file(tmp_path, count=8)
        assert len(load_scenarios(path)) == 8
        assert "wrote 8 scenarios" in capsys.readouterr().out

    def test_reruns_are_byte_identical(self, tmp_path):
        a = synth_file(tmp_path, name="a.json")
        b = synth_file(tmp_path, name="b.json")
        assert a.read_bytes() == b.read_bytes()

    def test_kind_filter(self, tmp_path):
        path = synth_file(tmp_path, count=5, kinds="empty_road")
        assert all(s.id.startswith("empty_road-") for s in load_scenarios(path))

    def test_unknown_kind_fails(self, tmp_path, capsys):
        assert run("synth", "--out", tmp_path / "x.json", "--kinds", "warp_drive") == 2
        assert "unknown kind" in capsys.readouterr().err

    def test_bad_count_fails(self, tmp_path):
        assert run("synth", "--out", tmp_path / "x.json", "--count", 0) == 2

    @pytest.mark.parametrize("flag, value", [("--dt", "0.5"), ("--horizon-steps", "6")])
    def test_horizon_is_not_a_flag(self, tmp_path, flag, value):
        with pytest.raises(SystemExit) as exc:
            run("synth", "--out", tmp_path / "x.json", flag, value)
        assert exc.value.code == 2
        assert not (tmp_path / "x.json").exists()


class TestSplit:
    def test_manifest_and_ceiling_count(self, tmp_path):
        scen = synth_file(tmp_path, count=40)
        out = tmp_path / "split.json"
        assert run("split", "--scenarios", scen, "--fraction", 0.1, "--out", out) == 0
        manifest = json.loads(out.read_text())
        assert manifest["fraction"] == 0.1
        assert manifest["seed"] == 0
        assert manifest["count"] == 4
        assert len(manifest["ids"]) == 4

    def test_smaller_fraction_is_a_prefix(self, tmp_path):
        scen = synth_file(tmp_path, count=40)
        small, large = tmp_path / "s.json", tmp_path / "l.json"
        run("split", "--scenarios", scen, "--fraction", 0.1, "--seed", 7, "--out", small)
        run("split", "--scenarios", scen, "--fraction", 0.5, "--seed", 7, "--out", large)
        ids_small = json.loads(small.read_text())["ids"]
        ids_large = json.loads(large.read_text())["ids"]
        assert ids_large[: len(ids_small)] == ids_small

    def test_subset_file_matches_manifest(self, tmp_path):
        scen = synth_file(tmp_path, count=20)
        out, sub = tmp_path / "m.json", tmp_path / "subset.json"
        assert run(
            "split", "--scenarios", scen, "--fraction", 0.5, "--out", out,
            "--scenarios-out", sub,
        ) == 0
        ids = json.loads(out.read_text())["ids"]
        assert [s.id for s in load_scenarios(sub)] == ids

    def test_bad_fraction_fails(self, tmp_path, capsys):
        scen = synth_file(tmp_path, count=5)
        assert run("split", "--scenarios", scen, "--fraction", 1.5, "--out", tmp_path / "m.json") == 2
        assert "error" in capsys.readouterr().err


class TestExportFinetune:
    def test_dataset_and_sidecar(self, tmp_path):
        scen = synth_file(tmp_path, count=6)
        out = tmp_path / "train.jsonl"
        assert run("export-finetune", "--scenarios", scen, "--out", out) == 0
        records = load_finetune_jsonl(out)
        assert len(records) == 6
        meta = json.loads((tmp_path / "train.jsonl.meta.json").read_text())
        assert meta == {"count": 6, "template_hash": template_hash()}
        scenarios = load_scenarios(scen)
        want = make_finetune_example(scenarios[0]).target_text
        assert records[0]["messages"][2]["content"] == want


class TestPlanStubs:
    def test_replay_gt_results_schema(self, tmp_path, capsys):
        scen = synth_file(tmp_path, count=10)
        out = tmp_path / "results.jsonl"
        assert run("plan", "--scenarios", scen, "--out", out, "--mode", "stub_replay_gt") == 0
        rows = read_results(out)
        scenarios = load_scenarios(scen)
        assert len(rows) == len(scenarios)
        assert [r["scenario_id"] for r in rows] == [s.id for s in scenarios]
        for row, s in zip(rows, scenarios):
            assert set(row) == {"scenario_id", "raw_text", "parse_quality", "trajectory"}
            assert row["parse_quality"] == "clean"
            assert row["trajectory"] == [[w.x, w.y] for w in s.human_trajectory.waypoints]
            assert "Trajectory:" in row["raw_text"]
        assert "clean 10, recovered 0, failed 0" in capsys.readouterr().out

    def test_hypothetical_mode_all_clean(self, tmp_path):
        scen = synth_file(tmp_path, count=8)
        out = tmp_path / "results.jsonl"
        assert run("plan", "--scenarios", scen, "--out", out) == 0
        assert all(r["parse_quality"] == "clean" for r in read_results(out))

    def test_reruns_are_byte_identical(self, tmp_path):
        scen = synth_file(tmp_path, count=6)
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        run("plan", "--scenarios", scen, "--out", a, "--mode", "stub_replay_gt")
        run("plan", "--scenarios", scen, "--out", b, "--mode", "stub_replay_gt")
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("mode", ["stub_replay_gt", "stub_hypothetical"])
    def test_huge_scenario_value_plans(self, tmp_path, mode, capsys):
        # a speed whose rollout leaves the coordinate bound is bad input, not a plan
        scen = synth_file(tmp_path, count=2)
        doc = json.loads(scen.read_text())
        doc["scenarios"][0]["ego"]["velocity"] = 1e26
        scen.write_text(json.dumps(doc))
        out = tmp_path / "r.jsonl"
        capsys.readouterr()
        assert run("plan", "--scenarios", scen, "--out", out, "--mode", mode) == 2
        err = capsys.readouterr().err
        assert err.startswith("lmplan: error:") and "Traceback" not in err
        assert "ego velocity" in err and not out.exists()

    @pytest.mark.parametrize("mode", ["stub_replay_gt", "stub_hypothetical"])
    def test_stubs_build_no_prompt(self, tmp_path, monkeypatch, mode):
        scen = synth_file(tmp_path, count=8)
        want, got = tmp_path / "want.jsonl", tmp_path / "got.jsonl"
        assert run("plan", "--scenarios", scen, "--out", want, "--mode", mode) == 0

        def refuse(*args, **kwargs):
            raise AssertionError("a stub plan built a prompt")

        monkeypatch.setattr(cli, "build_prompt", refuse)
        monkeypatch.setattr(cli, "pack_exemplars", refuse)
        assert run(
            "plan", "--scenarios", scen, "--out", got, "--mode", mode,
            "--exemplars", 2, "--exemplar-scenarios", scen,
        ) == 0
        assert got.read_bytes() == want.read_bytes()

    def test_exemplar_flags_validated(self, tmp_path, capsys):
        scen = synth_file(tmp_path, count=3)
        out = tmp_path / "r.jsonl"
        assert run("plan", "--scenarios", scen, "--out", out, "--exemplars", 2) == 2
        assert "--exemplar-scenarios" in capsys.readouterr().err
        assert run(
            "plan", "--scenarios", scen, "--out", out,
            "--exemplars", 9, "--exemplar-scenarios", scen,
        ) == 2


class TestPlanRemote:
    def test_remote_round_trip(self, tmp_path, api_key_env):
        scen = synth_file(tmp_path, count=6)
        scenarios = load_scenarios(scen)
        out = tmp_path / "results.jsonl"
        with MockChatServer(echo_target_responder(scenarios)) as srv:
            code = run(
                "plan", "--scenarios", scen, "--out", out,
                "--mode", "remote", "--endpoint", srv.url, "--backoff", 0,
            )
        assert code == 0
        rows = read_results(out)
        assert [r["scenario_id"] for r in rows] == [s.id for s in scenarios]
        assert all(r["parse_quality"] == "clean" for r in rows)
        assert len(srv.requests) == 6

    def test_exemplars_reach_the_request(self, tmp_path, api_key_env, monkeypatch):
        scen = synth_file(tmp_path, count=3)
        scenarios = load_scenarios(scen)
        out = tmp_path / "results.jsonl"
        built = []
        monkeypatch.setattr(
            cli, "make_finetune_example", lambda s: built.append(s) or make_finetune_example(s)
        )
        with MockChatServer(echo_target_responder(scenarios)) as srv:
            code = run(
                "plan", "--scenarios", scen, "--out", out,
                "--mode", "remote", "--endpoint", srv.url, "--backoff", 0,
                "--exemplars", 2, "--exemplar-scenarios", scen,
                "--max-in-flight", 1,
            )
        assert code == 0
        assert len(built) == 2  # only the exemplars a prompt takes are built
        # system + 2 exemplar pairs + final user = 6 messages
        assert all(len(req["messages"]) == 6 for req in srv.requests)
        pool = [make_finetune_example(s) for s in scenarios]
        want = [messages_from_prompt(pack_exemplars(build_prompt(s), pool, 2)) for s in scenarios]
        sent = [want[i] for i in request_order(srv, scenarios)]
        assert [req["messages"] for req in srv.requests] == sent

    def test_corrupted_completions_become_failed_rows(self, tmp_path, api_key_env):
        scen = synth_file(tmp_path, count=20)
        scenarios = load_scenarios(scen)
        out = tmp_path / "results.jsonl"
        with MockChatServer(echo_target_responder(scenarios), corrupt_every=5) as srv:
            code = run(
                "plan", "--scenarios", scen, "--out", out,
                "--mode", "remote", "--endpoint", srv.url,
                "--backoff", 0, "--max-retries", 1,
            )
        assert code == 0
        rows = read_results(out)
        failed = [r for r in rows if r["parse_quality"] == "failed"]
        assert len(failed) == 4  # every 5th of 20 distinct prompts
        assert all(r["trajectory"] is None for r in failed)
        assert all(r["raw_text"] for r in failed)  # raw text kept for debugging
        # one request per scenario: a garbled reply is not re-asked
        assert len(srv.requests) == 20

    def test_lone_surrogate_reply_is_escaped_and_the_run_goes_on(self, tmp_path, api_key_env):
        scen = synth_file(tmp_path, count=4)
        scenarios = load_scenarios(scen)
        echo = echo_target_responder(scenarios)
        odd_prompt = build_prompt(scenarios[1]).user_text

        def with_surrogate(payload):
            text = echo(payload)
            return text + " \ud800" if payload["messages"][-1]["content"] == odd_prompt else text

        outputs = {}
        for name, responder in (("plain", echo), ("surrogate", with_surrogate)):
            outputs[name] = tmp_path / f"{name}.jsonl"
            with MockChatServer(responder) as srv:
                code = run(
                    "plan", "--scenarios", scen, "--out", outputs[name],
                    "--mode", "remote", "--endpoint", srv.url, "--backoff", 0,
                )
            assert code == 0
            assert len(srv.requests) == 4
        plain = outputs["plain"].read_bytes().splitlines()
        data = outputs["surrogate"].read_bytes()
        lines = data.decode("utf-8").encode("utf-8").splitlines()  # strict: valid UTF-8
        assert len(lines) == 4
        assert [lines[i] for i in (0, 2, 3)] == [plain[i] for i in (0, 2, 3)]
        assert b"\\ud800" in lines[1]
        assert json.loads(lines[1])["raw_text"].endswith(" \ud800")
        assert run("evaluate", "--scenarios", scen, "--results", outputs["surrogate"],
                   "--out-dir", tmp_path / "rep") == 0

    def test_huge_coordinate_reply_is_a_failed_row(self, tmp_path, api_key_env):
        scen = synth_file(tmp_path, count=3)
        out = tmp_path / "results.jsonl"
        reply = "Trajectory: [(111111111111111111111111111,1.00)]"
        with MockChatServer(lambda payload: reply) as srv:
            code = run(
                "plan", "--scenarios", scen, "--out", out,
                "--mode", "remote", "--endpoint", srv.url, "--backoff", 0,
            )
        assert code == 0
        rows = read_results(out)
        assert len(rows) == 3
        assert all(r["parse_quality"] == "failed" for r in rows)

    def test_backoff_holds_no_slot(self, tmp_path, api_key_env):
        scen = synth_file(tmp_path, count=4)
        scenarios = load_scenarios(scen)
        out = tmp_path / "results.jsonl"
        with MockChatServer(
            echo_target_responder(scenarios), fail_first=1, latency_s=0.05
        ) as srv:
            code = run(
                "plan", "--scenarios", scen, "--out", out, "--mode", "remote",
                "--endpoint", srv.url, "--max-in-flight", 1, "--backoff", 0.5,
            )
        assert code == 0
        order = request_order(srv, scenarios)
        # The one slot serves the other three scenarios while the first
        # failure waits out its 0.5 s; holding the slot gave [0, 0, 1, 2, 3].
        # (Which of the first two scenarios gets the slot first is a race.)
        assert sorted(order[:4]) == [0, 1, 2, 3] and order[4] == order[0]
        assert srv.max_in_flight_seen == 1
        rows = read_results(out)
        assert [r["scenario_id"] for r in rows] == [s.id for s in scenarios]
        assert all(r["parse_quality"] == "clean" for r in rows)

    def test_retries_keep_the_bound_and_the_output(self, tmp_path, api_key_env):
        scen = synth_file(tmp_path, count=8)
        scenarios = load_scenarios(scen)
        outputs = {}
        for fail_first in (0, 3):
            out = outputs[fail_first] = tmp_path / f"results-{fail_first}.jsonl"
            with MockChatServer(
                echo_target_responder(scenarios), fail_first=fail_first, latency_s=0.1
            ) as srv:
                code = run(
                    "plan", "--scenarios", scen, "--out", out, "--mode", "remote",
                    "--endpoint", srv.url, "--max-in-flight", 2, "--backoff", 0.5,
                )
            assert code == 0
            assert srv.max_in_flight_seen <= 2
        assert len(srv.requests) == 8 + 3
        # the first four scenarios take the slots before any failure is retried
        assert sorted(request_order(srv, scenarios)[:4]) == [0, 1, 2, 3]
        assert outputs[3].read_bytes() == outputs[0].read_bytes()

    def test_unreachable_endpoint_yields_failed_rows_not_a_crash(
        self, tmp_path, api_key_env, capsys
    ):
        scen = synth_file(tmp_path, count=2)
        out = tmp_path / "results.jsonl"
        code = run(
            "plan", "--scenarios", scen, "--out", out, "--mode", "remote",
            "--endpoint", "http://127.0.0.1:1", "--backoff", 0,
            "--max-retries", 0, "--timeout", 2,
        )
        assert code == 0
        rows = read_results(out)
        assert all(r["parse_quality"] == "failed" and r["raw_text"] == "" for r in rows)
        assert "warning" in capsys.readouterr().err


class TestEvaluate:
    def plan_and_evaluate(self, tmp_path, capsys, *extra):
        scen = synth_file(tmp_path, count=8)
        results = tmp_path / "results.jsonl"
        run("plan", "--scenarios", scen, "--out", results, "--mode", "stub_replay_gt")
        capsys.readouterr()
        code = run(
            "evaluate", "--scenarios", scen, "--results", results,
            "--out-dir", tmp_path / "report", *extra,
        )
        return code, scen, results

    def test_perfect_results_score_zero(self, tmp_path, capsys):
        code, _, _ = self.plan_and_evaluate(tmp_path, capsys)
        assert code == 0
        out = capsys.readouterr().out
        assert "| L2 at step (m) | 0.00 | 0.00 | 0.00 | 0.00 |" in out
        md = (tmp_path / "report" / "report.md").read_text()
        csv_text = (tmp_path / "report" / "report.csv").read_text()
        assert "parse failures 0" in md
        assert csv_text.splitlines()[-1].startswith("__mean__")

    def test_threshold_trips_exit_code(self, tmp_path, capsys):
        scen = synth_file(tmp_path, count=4)
        results = tmp_path / "results.jsonl"
        run("plan", "--scenarios", scen, "--out", results, "--mode", "stub_replay_gt")
        rows = read_results(results)
        rows[0]["parse_quality"] = "failed"
        rows[0]["trajectory"] = None
        results.write_text(
            "".join(json.dumps(r, separators=(",", ":")) + "\n" for r in rows)
        )
        ok = run("evaluate", "--scenarios", scen, "--results", results,
                 "--out-dir", tmp_path / "r1")
        assert ok == 0  # default threshold tolerates failures
        capsys.readouterr()
        tripped = run(
            "evaluate", "--scenarios", scen, "--results", results,
            "--out-dir", tmp_path / "r2", "--fail-threshold", 0.0,
        )
        assert tripped == 1
        assert "exceeds threshold" in capsys.readouterr().err

    def test_fallback_substitution_counted(self, tmp_path, capsys):
        scen = synth_file(tmp_path, count=4)
        results = tmp_path / "results.jsonl"
        run("plan", "--scenarios", scen, "--out", results, "--mode", "stub_replay_gt")
        rows = read_results(results)
        rows[1]["parse_quality"] = "failed"
        rows[1]["trajectory"] = None
        results.write_text(
            "".join(json.dumps(r, separators=(",", ":")) + "\n" for r in rows)
        )
        assert run("evaluate", "--scenarios", scen, "--results", results,
                   "--out-dir", tmp_path / "rep") == 0
        md = (tmp_path / "rep" / "report.md").read_text()
        assert "fallbacks substituted 1" in md

    def test_exclude_policy_flag(self, tmp_path, capsys):
        scen = synth_file(tmp_path, count=4)
        results = tmp_path / "results.jsonl"
        run("plan", "--scenarios", scen, "--out", results, "--mode", "stub_replay_gt")
        rows = read_results(results)
        rows[0]["trajectory"] = None
        rows[0]["parse_quality"] = "failed"
        results.write_text(
            "".join(json.dumps(r, separators=(",", ":")) + "\n" for r in rows)
        )
        assert run(
            "evaluate", "--scenarios", scen, "--results", results,
            "--out-dir", tmp_path / "rep", "--fallback", "exclude",
        ) == 0
        md = (tmp_path / "rep" / "report.md").read_text()
        assert "evaluated 3" in md


class TestErrors:
    def test_missing_scenario_file(self, tmp_path, capsys):
        assert run("plan", "--scenarios", tmp_path / "nope.json",
                   "--out", tmp_path / "r.jsonl") == 2
        assert "lmplan: error:" in capsys.readouterr().err

    def test_empty_scenario_file(self, tmp_path, capsys):
        path = tmp_path / "empty.json"
        path.write_text('{"scenarios": []}')
        assert run("plan", "--scenarios", path, "--out", tmp_path / "r.jsonl") == 2
        assert "no scenarios" in capsys.readouterr().err

    def test_malformed_results_line(self, tmp_path, capsys):
        scen = synth_file(tmp_path, count=2)
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"scenario_id": "x"}\nnot json\n')
        assert run("evaluate", "--scenarios", scen, "--results", bad,
                   "--out-dir", tmp_path / "rep") == 2
        assert "bad result line" in capsys.readouterr().err

    def test_plan_out_is_a_directory(self, tmp_path, capsys):
        scen = synth_file(tmp_path, count=2)
        assert run("plan", "--scenarios", scen, "--out", tmp_path) == 2
        err = capsys.readouterr().err
        assert err.startswith("lmplan: error:") and "Traceback" not in err

    def test_remote_plan_out_is_a_directory_sends_nothing(self, tmp_path, api_key_env, capsys):
        scen = synth_file(tmp_path, count=3)
        with MockChatServer(echo_target_responder(load_scenarios(scen))) as srv:
            code = run(
                "plan", "--scenarios", scen, "--out", tmp_path, "--mode", "remote",
                "--endpoint", srv.url, "--backoff", 0,
            )
        assert code == 2
        assert srv.requests == []
        assert capsys.readouterr().err.startswith("lmplan: error:")

    @pytest.mark.parametrize("flag, value", [
        ("--temperature", "nan"),
        ("--temperature", "inf"),
        ("--timeout", "0"),
        ("--timeout", "-1"),
        ("--timeout", "nan"),
        ("--backoff", "nan"),
        ("--exemplars", "9"),
        ("--exemplars", "-1"),
        ("--max-in-flight", "65"),
        ("--endpoint", ""),
        ("--endpoint", "localhost:9"),
        ("--endpoint", "ftp://x"),
        ("--endpoint", "http://[::1"),
    ])
    def test_remote_config_it_cannot_use_sends_nothing(
        self, tmp_path, api_key_env, capsys, flag, value
    ):
        scen = synth_file(tmp_path, count=3)
        out = tmp_path / "results.jsonl"
        out.write_text("earlier results\n")
        options = {"--backoff": "0", "--exemplar-scenarios": str(scen), flag: value}
        with MockChatServer(echo_target_responder(load_scenarios(scen))) as srv:
            code = run(
                "plan", "--scenarios", scen, "--out", out, "--mode", "remote",
                "--endpoint", srv.url, *[a for kv in options.items() for a in kv],
            )
        assert code == 2
        assert srv.requests == []
        assert out.read_text() == "earlier results\n"
        assert capsys.readouterr().err.startswith("lmplan: error:")

    def test_remote_plan_without_api_key_sends_nothing(self, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv("PLANNER_API_KEY", raising=False)
        scen = synth_file(tmp_path, count=3)
        out = tmp_path / "results.jsonl"
        out.write_text("earlier results\n")
        with MockChatServer(echo_target_responder(load_scenarios(scen))) as srv:
            code = run(
                "plan", "--scenarios", scen, "--out", out, "--mode", "remote",
                "--endpoint", srv.url, "--backoff", "0",
            )
        assert code == 2
        assert srv.requests == []
        assert out.read_text() == "earlier results\n"
        assert "PLANNER_API_KEY" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, unwritten", [
        (["plan", "--scenarios", "{s}", "--out", "{s}"], None),
        (["plan", "--scenarios", "{s}", "--out", "{link}", "--mode", "stub_replay_gt"], None),
        (["plan", "--scenarios", "{other}", "--out", "{s}",
          "--exemplars", "1", "--exemplar-scenarios", "{s}"], None),
        (["plan", "--scenarios", "{other}", "--out", "{s}", "--mode", "remote",
          "--endpoint", "http://127.0.0.1:9", "--backoff", "0",
          "--exemplars", "1", "--exemplar-scenarios", "{s}"],
         None),
        (["export-finetune", "--scenarios", "{s}", "--out", "{s}"], None),
        (["export-finetune", "--scenarios", "{s}", "--out", "{stem}"], "{stem}"),  # the sidecar
        (["split", "--scenarios", "{s}", "--fraction", "0.5", "--out", "{s}"], None),
        (["split", "--scenarios", "{s}", "--fraction", "0.5", "--out", "{manifest}",
          "--scenarios-out", "{link}"], "{manifest}"),
        (["evaluate", "--scenarios", "{s}", "--results", "{results}", "--out-dir", "{reports}"],
         "{reports}/report.md"),  # its report.csv links to the scenario file
        (["split", "--scenarios", "{s}", "--fraction", "0.5", "--out", "{manifest}",
          "--scenarios-out", "{manifest}"], "{manifest}"),  # the two outputs are one file
    ])
    def test_output_that_names_an_input_is_refused(self, tmp_path, capsys, argv, unwritten):
        # the scenario file is named so that export-finetune's sidecar lands on it
        scen = synth_file(tmp_path, count=3, name="train.jsonl.meta.json")
        paths = {
            "s": scen,
            "other": synth_file(tmp_path, count=2, name="other.json"),
            "link": tmp_path / "link.json",
            "stem": tmp_path / "train.jsonl",
            "manifest": tmp_path / "manifest.json",
            "results": tmp_path / "results.jsonl",
            "reports": tmp_path / "reports",
        }
        paths["link"].symlink_to(scen)
        paths["results"].write_text("")
        paths["reports"].mkdir()
        (paths["reports"] / "report.csv").symlink_to(scen)
        before = scen.read_bytes()
        capsys.readouterr()
        assert run(*[a.format(**paths) for a in argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("lmplan: error:") and "would be overwritten" in err
        assert scen.read_bytes() == before
        if unwritten:
            assert not (tmp_path / unwritten.format(**paths)).exists()

    @pytest.mark.parametrize("threshold", ["nan", "-0.1"])
    def test_fail_threshold_that_cannot_gate(self, tmp_path, capsys, threshold):
        scen = synth_file(tmp_path, count=4)
        results = tmp_path / "results.jsonl"
        results.write_text("")  # every scenario failed to parse
        code = run("evaluate", "--scenarios", scen, "--results", results,
                   "--out-dir", tmp_path / "rep", "--fail-threshold", threshold)
        assert code == 2
        assert "--fail-threshold must be a number >= 0" in capsys.readouterr().err

    def test_scenario_value_of_wrong_type(self, tmp_path, capsys):
        scen = synth_file(tmp_path, count=2)
        doc = json.loads(scen.read_text())
        doc["scenarios"][1]["ego"]["heading_rate"] = True
        scen.write_text(json.dumps(doc))
        assert run("plan", "--scenarios", scen, "--out", tmp_path / "r.jsonl") == 2
        assert "'ego.heading_rate': expected a number" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, value, field_name",
        [
            ("objects", ("id", None), "objects[0].id"),
            ("objects", ("class", {"name": "car"}), "objects[0].class"),
            ("predictions", ("object_id", 1), "predictions[0].object_id"),
        ],
        ids=["id_null", "class_dict", "object_id_int"],
    )
    def test_scenario_id_that_is_not_a_string(self, tmp_path, capsys, key, value, field_name):
        scen = synth_file(tmp_path, count=2)
        doc = json.loads(scen.read_text())
        doc["scenarios"][1][key][0][value[0]] = value[1]  # scenario 1 is a lead_vehicle
        scen.write_text(json.dumps(doc))
        assert run("plan", "--scenarios", scen, "--out", tmp_path / "r.jsonl") == 2
        err = capsys.readouterr().err
        assert f"field {field_name!r}: expected a string" in err and "Traceback" not in err

    @pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
    @pytest.mark.parametrize("argv, outputs", [
        (["plan", "--scenarios", "{s}", "--out", "{out}/r.jsonl", "--mode", "stub_hypothetical"],
         ["r.jsonl"]),
        (["evaluate", "--scenarios", "{s}", "--results", "{results}", "--out-dir", "{out}/rep"],
         ["rep/report.md", "rep/report.csv"]),
        (["split", "--scenarios", "{s}", "--fraction", "0.5", "--out", "{out}/m.json",
          "--scenarios-out", "{out}/sub.json"], ["m.json", "sub.json"]),
    ], ids=["plan", "evaluate", "split"])
    def test_lone_surrogate_id_writes_nothing(self, tmp_path, capsys, argv, outputs, existing):
        scen = synth_file(tmp_path, count=1)
        doc = json.loads(scen.read_text())
        doc["scenarios"][0]["id"] = "\ud800"
        scen.write_text(json.dumps(doc))  # ASCII: the "\ud800" escape
        results = tmp_path / "results.jsonl"
        results.write_text("")
        out = tmp_path / "out"
        if existing:
            for name in outputs:
                (out / name).parent.mkdir(parents=True, exist_ok=True)
                (out / name).write_bytes(b"old bytes\n")
        capsys.readouterr()
        assert run(*[a.format(s=scen, results=results, out=out) for a in argv]) == 2
        err = capsys.readouterr().err
        assert "field 'id': lone surrogate" in err and "Traceback" not in err
        for name in outputs:
            if existing:
                assert (out / name).read_bytes() == b"old bytes\n", name
            else:
                assert not (out / name).exists(), name

    def test_duplicate_result_id(self, tmp_path, capsys):
        scen = synth_file(tmp_path, count=3)
        results = tmp_path / "results.jsonl"
        run("plan", "--scenarios", scen, "--out", results, "--mode", "stub_replay_gt")
        lines = results.read_text().splitlines()
        results.write_text("\n".join(lines + [lines[1]]) + "\n")
        capsys.readouterr()
        assert run("evaluate", "--scenarios", scen, "--results", results,
                   "--out-dir", tmp_path / "rep") == 2
        err = capsys.readouterr().err
        sid = load_scenarios(scen)[1].id
        assert err.startswith(f"lmplan: error: {results}:4: bad result line:")
        assert f"duplicate scenario_id {sid!r} (first on line 2)" in err

    def test_unknown_result_ids_are_dropped_with_one_warning(self, tmp_path, capsys):
        full = synth_file(tmp_path, count=6)
        results = tmp_path / "results.jsonl"
        run("plan", "--scenarios", full, "--out", results, "--mode", "stub_replay_gt")
        subset = tmp_path / "subset.json"
        run("split", "--scenarios", full, "--fraction", 0.5, "--out", tmp_path / "m.json",
            "--scenarios-out", subset)
        capsys.readouterr()
        assert run("evaluate", "--scenarios", subset, "--results", results,
                   "--out-dir", tmp_path / "rep") == 0
        captured = capsys.readouterr()
        warnings = [line for line in captured.err.splitlines() if "warning" in line]
        assert warnings == [
            f"lmplan: warning: {results}: ignored 3 result line(s) whose "
            "scenario_id is not in the scenario file"
        ]
        assert "evaluated 3" in captured.out and "parse failures 0" in captured.out

    def test_evaluate_scenarios_is_a_directory(self, tmp_path, capsys):
        results = tmp_path / "r.jsonl"
        results.write_text("")
        assert run("evaluate", "--scenarios", tmp_path, "--results", results,
                   "--out-dir", tmp_path / "rep") == 2
        err = capsys.readouterr().err
        assert err.startswith("lmplan: error:") and "Traceback" not in err

    @pytest.mark.parametrize(
        "fields, message",
        [
            ('"trajectory": [[0.0, 1.0], [0.0, 2.0], [0.0, 3.0]]', "3 waypoints, expected 6"),
            ('"trajectory": [1, 2, 3, 4, 5, 6]', "[x, y] number pairs"),
            ('"trajectory": [["a", 1.0]' + ", [0.0, 1.0]" * 5 + "]", "[x, y] number pairs"),
            ('"trajectory": [[NaN, 1.0]' + ", [0.0, 1.0]" * 5 + "]", "finite"),
            ('"parse_quality": ["clean"], "trajectory": null', "must be strings"),
            ('"parse_quality": "clean,1\\nx", "trajectory": null', "must be one of"),
            ('"parse_quality": "\\ud800", "trajectory": null', "must be one of"),
            ('"parse_quality": "CLEAN", "trajectory": null', "must be one of"),
        ],
        ids=["short", "flat", "non_numeric", "nan", "non_string_quality",
             "csv_breaking_quality", "lone_surrogate_quality", "upper_case_quality"],
    )
    def test_bad_result_line(self, tmp_path, capsys, fields, message):
        scen = synth_file(tmp_path, count=2)
        sid = load_scenarios(scen)[0].id
        bad = tmp_path / "bad.jsonl"
        bad.write_text(f'{{"scenario_id": "{sid}", {fields}}}\n')
        assert run("evaluate", "--scenarios", scen, "--results", bad,
                   "--out-dir", tmp_path / "rep") == 2
        err = capsys.readouterr().err
        assert err.startswith(f"lmplan: error: {bad}:1: bad result line:")
        assert message in err
        assert not (tmp_path / "rep").exists()

    @pytest.mark.parametrize("value", [5, None], ids=["int", "null"])
    @pytest.mark.parametrize("key", ["objects", "predictions", "gt_object_boxes"])
    def test_scenario_collection_not_a_list(self, tmp_path, capsys, key, value):
        scen = synth_file(tmp_path, count=2)
        doc = json.loads(scen.read_text())
        doc["scenarios"][1][key] = value
        scen.write_text(json.dumps(doc))
        assert run("plan", "--scenarios", scen, "--out", tmp_path / "r.jsonl") == 2
        err = capsys.readouterr().err
        assert err.startswith(f"lmplan: error: {scen}: scenario ")
        assert f"field {key!r}: expected a list" in err

    def test_too_deeply_nested_scenario_file(self, tmp_path, capsys):
        scen = tmp_path / "deep.json"
        scen.write_text('{"scenarios": ' + "[" * 200_000 + "]" * 200_000 + "}")
        assert run("plan", "--scenarios", scen, "--out", tmp_path / "r.jsonl") == 2
        assert capsys.readouterr().err.startswith(f"lmplan: error: {scen}: malformed JSON")

    def test_too_deeply_nested_result_line(self, tmp_path, capsys):
        scen = synth_file(tmp_path, count=2)
        bad = tmp_path / "deep.jsonl"
        bad.write_text("[" * 200_000 + "\n")
        assert run("evaluate", "--scenarios", scen, "--results", bad,
                   "--out-dir", tmp_path / "rep") == 2
        assert capsys.readouterr().err.startswith(f"lmplan: error: {bad}:1: bad result line:")

    def test_argparse_rejects_unknown_command(self):
        with pytest.raises(SystemExit) as exc:
            run("warp")
        assert exc.value.code == 2

    def test_garble_leaves_no_parseable_pairs(self):
        assert "1" not in garble("Trajectory: [(1.00,2.00)]")
        assert "[" not in garble("[(1.00,2.00)]")


def _json_values():
    scalars = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8)
    return st.recursive(
        scalars,
        lambda inner: st.lists(inner, max_size=4)
        | st.dictionaries(st.text(max_size=4), inner, max_size=4),
        max_leaves=12,
    )


PROPERTY_IDS = [f"{SYNTH_KINDS[i]}-{i:04d}" for i in range(3)]  # synth_file(count=3) ids


def _result_lines():
    """Arbitrary results-file lines: result-shaped dicts, other JSON, and plain text."""
    number = st.integers() | st.floats() | st.booleans() | st.none() | st.text(max_size=3)
    trajectory = st.lists(st.lists(number, max_size=3), max_size=8) | _json_values()
    record = st.fixed_dictionaries(
        {},
        optional={
            "scenario_id": st.sampled_from(PROPERTY_IDS) | _json_values(),
            "parse_quality": st.sampled_from(["clean", "recovered", "failed"]) | _json_values(),
            "trajectory": trajectory,
        },
    )
    coordinate = st.floats(allow_nan=False, allow_infinity=False)
    well_formed = st.fixed_dictionaries({
        "scenario_id": st.sampled_from(PROPERTY_IDS),
        "parse_quality": st.just("clean"),
        "trajectory": st.lists(st.lists(coordinate, min_size=2, max_size=2), min_size=6,
                               max_size=6),
    })
    text = st.text(st.characters(blacklist_categories=("Cs",)), max_size=40)
    line = (well_formed | record).map(json.dumps) | _json_values().map(json.dumps) | text
    return st.lists(line, max_size=6)


@pytest.fixture(scope="module")
def evaluate_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("evaluate_property")
    assert [s.id for s in load_scenarios(synth_file(d, count=3))] == PROPERTY_IDS
    return d


@settings(max_examples=150, deadline=None)
@given(lines=_result_lines(), threshold=st.sampled_from(["0", "0.5", "1"]))
def test_evaluate_exit_code_is_always_0_1_or_2(evaluate_dir, lines, threshold):
    # no results file, however malformed, may raise out of main()
    results = evaluate_dir / "results.jsonl"
    results.write_text("\n".join(lines) + "\n", encoding="utf-8")
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([
            "evaluate", "--scenarios", str(evaluate_dir / "scenarios.json"),
            "--results", str(results), "--out-dir", str(evaluate_dir / "rep"),
            "--fail-threshold", threshold,
        ])
    event(f"exit {code}")
    assert code in (0, 1, 2)
    if code == 2:
        assert err.getvalue().startswith("lmplan: error:")


def test_parsed_defaults_are_the_config_defaults():
    parser = cli.build_parser()
    plan = parser.parse_args(["plan", "--scenarios", "s.json", "--out", "r.jsonl"])
    backend = BackendConfig()
    assert (plan.mode, plan.endpoint, plan.model, plan.temperature, plan.timeout,
            plan.max_retries, plan.backoff, plan.max_in_flight) == (
        backend.mode.value, backend.endpoint_url, backend.model, backend.temperature,
        backend.timeout_s, backend.max_retries, backend.retry_backoff_s, backend.max_in_flight)
    evaluate = parser.parse_args(["evaluate", "--scenarios", "s.json", "--results", "r.jsonl",
                                  "--out-dir", "d"])
    assert evaluate.fallback == EvalConfig().fallback_policy == FALLBACK_POLICIES[0]
    assert evaluate.exclude_gt_collisions == EvalConfig().exclude_gt_collisions
    for policy in FALLBACK_POLICIES:
        assert EvalConfig(fallback_policy=policy).fallback_policy == policy
        args = parser.parse_args(["evaluate", "--scenarios", "s", "--results", "r",
                                  "--out-dir", "d", "--fallback", policy])
        assert args.fallback == policy
    with pytest.raises(SystemExit):
        parser.parse_args(["evaluate", "--scenarios", "s", "--results", "r", "--out-dir", "d",
                           "--fallback", "drop"])
    with pytest.raises(ValueError):
        EvalConfig(fallback_policy="drop")
