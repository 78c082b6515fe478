import contextlib
import io
import json

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from lmplan import (
    load_finetune_jsonl,
    load_scenarios,
    make_finetune_example,
    template_hash,
)
from lmplan.cli import main
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

    def test_exemplars_reach_the_request(self, tmp_path, api_key_env):
        scen = synth_file(tmp_path, count=3)
        scenarios = load_scenarios(scen)
        out = tmp_path / "results.jsonl"
        with MockChatServer(echo_target_responder(scenarios)) as srv:
            code = run(
                "plan", "--scenarios", scen, "--out", out,
                "--mode", "remote", "--endpoint", srv.url, "--backoff", 0,
                "--exemplars", 2, "--exemplar-scenarios", scen,
                "--max-in-flight", 1,
            )
        assert code == 0
        # system + 2 exemplar pairs + final user = 6 messages
        assert all(len(req["messages"]) == 6 for req in srv.requests)

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
    ])
    def test_remote_config_it_cannot_use_sends_nothing(
        self, tmp_path, api_key_env, capsys, flag, value
    ):
        scen = synth_file(tmp_path, count=3)
        out = tmp_path / "results.jsonl"
        out.write_text("earlier results\n")
        options = {"--backoff": "0", flag: value}
        with MockChatServer(echo_target_responder(load_scenarios(scen))) as srv:
            code = run(
                "plan", "--scenarios", scen, "--out", out, "--mode", "remote",
                "--endpoint", srv.url, *[a for kv in options.items() for a in kv],
            )
        assert code == 2
        assert srv.requests == []
        assert out.read_text() == "earlier results\n"
        assert capsys.readouterr().err.startswith("lmplan: error:")

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
        ],
        ids=["short", "flat", "non_numeric", "nan", "non_string_quality"],
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
