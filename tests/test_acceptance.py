"""End-to-end acceptance suite.

Each test is one gate over the public behavior of the package, with its
tolerance and time budget stated inline; the terminal summary prints one
PASS/FAIL line per gate. The live-endpoint check is optional and skips
unless both PLANNER_API_KEY and LMPLAN_LIVE_ENDPOINT are configured.
"""

import json
import os
import random
import time

import pytest

from helpers import boxes_intersect_sampled, integrate_rollout, random_box
from lmplan import (
    SYNTH_KINDS,
    Decision,
    ObjectBox,
    ParseQuality,
    PlanRecord,
    Scenario,
    Trajectory,
    TrajectoryParseError,
    Waypoint,
    compose_reasoning,
    evaluate_dataset,
    make_finetune_example,
    obb_intersects,
    parse_plan_output,
    parse_trajectory,
    quantize,
    rollout_hypothetical,
    sample_split,
    sat_margin,
    serialize_trajectory,
    synth_scenario,
)
from lmplan import reasoning
from lmplan.cli import main
from lmplan.scenario import EgoState
from mockserver import MockChatServer, echo_target_responder

HORIZON = 6
DT = 0.5


def run_cli(*argv):
    return main([str(a) for a in argv])


def test_codec_round_trip_10k_trajectories():
    # parse(serialize(t)) == quantize(t), exactly, for 10 000 random
    # trajectories; budget 5 s
    rng = random.Random(2026)
    start = time.perf_counter()
    for _ in range(10_000):
        pts = [(rng.uniform(-200, 200), rng.uniform(-200, 200)) for _ in range(HORIZON)]
        t = Trajectory(tuple(Waypoint(x, y) for x, y in pts))
        back, _ = parse_trajectory(serialize_trajectory(t))
        want = tuple(Waypoint(quantize(x), quantize(y)) for x, y in pts)
        assert back.waypoints == want
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"took {elapsed:.2f}s"


def test_perfect_planner_identity_end_to_end(tmp_path, capsys):
    # replaying the ground truth through the whole pipeline must score
    # Avg L2 = 0.00 under both conventions on >= 100 scenarios; budget 10 s
    start = time.perf_counter()
    scen = tmp_path / "scenarios.json"
    results = tmp_path / "results.jsonl"
    assert run_cli("synth", "--out", scen, "--count", 120, "--seed", 0) == 0
    assert run_cli("plan", "--scenarios", scen, "--out", results,
                   "--mode", "stub_replay_gt") == 0
    assert run_cli("evaluate", "--scenarios", scen, "--results", results,
                   "--out-dir", tmp_path / "report") == 0
    md = (tmp_path / "report" / "report.md").read_text()
    assert "| L2 at step (m) | 0.00 | 0.00 | 0.00 | 0.00 |" in md
    assert "| L2 cumulative mean (m) | 0.00 | 0.00 | 0.00 | 0.00 |" in md
    assert "scenarios: 120 (evaluated 120, parse failures 0" in md
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"took {elapsed:.2f}s"


def test_metric_convention_oracle():
    # hand-computed fixture scored by evaluate_dataset, the report's path:
    # per-step x-offsets of 0.3 m * step index give L2 at step
    # {0.6, 1.2, 1.8} and cumulative {0.45, 0.75, 1.05}; boxes on the plan
    # at steps 2, 5 and 6 give collision at step {1, 0, 1} and cumulative
    # {0.5, 0.25, 0.5}; tol 1e-9 in every row cell and summary cell
    gt = Trajectory(tuple(Waypoint(0.0, float(i)) for i in range(1, 7)))
    pred = Trajectory(tuple(Waypoint(0.3 * i, float(i)) for i in range(1, 7)))
    boxes = tuple(
        (ObjectBox(pred.waypoints[i - 1], 0.0, 1.0, 1.0),) if i in (2, 5, 6) else ()
        for i in range(1, 7)
    )
    s = Scenario("oracle", EgoState(2.0, 0.0, 0.0), (), (), gt, boxes)
    report = evaluate_dataset([s], [PlanRecord("oracle", pred)])
    want = {
        "l2_at_step": (0.6, 1.2, 1.8),
        "l2_cumulative": (0.45, 0.75, 1.05),
        "collision_at_step": (1.0, 0.0, 1.0),
        "collision_cumulative": (0.5, 0.25, 0.5),
    }
    (row,) = report.rows
    for key, values in want.items():
        for h, v in zip((1.0, 2.0, 3.0), values):
            assert abs(getattr(row, key)[h] - v) < 1e-9, (key, h)
            assert abs(report.summary[key][h] - v) < 1e-9, (key, h)


def test_collision_geometry_vs_sampling_oracle():
    # separating-axis test vs dense point sampling on 1 000 random pairs;
    # zero disagreements outside a 0.01 m boundary band; budget 30 s
    rng = random.Random(31)
    start = time.perf_counter()
    checked = disagreements = 0
    for _ in range(1000):
        a, b = random_box(rng), random_box(rng)
        if abs(sat_margin(a, b)) <= 0.01:
            continue  # sampling cannot resolve the boundary band
        checked += 1
        if obb_intersects(a, b) != boxes_intersect_sampled(a, b):
            disagreements += 1
    elapsed = time.perf_counter() - start
    assert disagreements == 0
    assert checked > 800  # the band must stay a sliver, not a loophole
    assert elapsed < 30.0, f"took {elapsed:.2f}s"


# frozen independent fixture: midpoint integration of v0=6, a=1.0,
# omega=0.3 at 2e-6 s steps (Richardson check vs 1e-5 agreed to 6e-10)
KINEMATIC_FIXTURE = (
    (-0.2436443237, 3.1122998555),
    (-1.0469854717, 6.3861757172),
    (-2.5086193689, 9.6980206031),
    (-4.7031562542, 12.8843537447),
    (-7.6659586766, 15.7439329468),
    (-11.3764696645, 18.0453518822),
)


def test_reasoning_rollout_closed_form(monkeypatch):
    # at wire precision the 0.005 m de-quantization bound holds against the
    # analytic fixture; with quantization out of the way the closed form
    # matches it to 1e-9, and the speed-clamped case matches a 1 ms-step
    # integrator
    ego = EgoState(6.0, 1.0, 0.3)
    wire = rollout_hypothetical(ego)
    for w, (fx, fy) in zip(wire.waypoints, KINEMATIC_FIXTURE):
        assert abs(w.x - fx) <= 0.005 + 1e-12
        assert abs(w.y - fy) <= 0.005 + 1e-12
    monkeypatch.setattr(reasoning, "quantize", lambda v: v)  # the unrounded closed form
    fine = rollout_hypothetical(ego)
    for w, (fx, fy) in zip(fine.waypoints, KINEMATIC_FIXTURE):
        assert abs(w.x - fx) < 1e-9 and abs(w.y - fy) < 1e-9

    # braking to a stop at t = 2 s, turning while still moving
    ref = integrate_rollout(3.0, -1.5, 0.2, HORIZON, DT, step=1e-3)
    clamped = rollout_hypothetical(EgoState(3.0, -1.5, 0.2))
    for w, (rx, ry) in zip(clamped.waypoints, ref):
        assert abs(w.x - rx) < 1e-7 and abs(w.y - ry) < 1e-7
    # once stopped, the pose must freeze
    assert clamped.waypoints[4] == clamped.waypoints[3] == clamped.waypoints[5]


def test_supervision_self_consistency():
    # every synthetic scenario's fine-tune target re-parses clean, returns
    # the exact quantized human trajectory, and carries the oracle decision
    for kind in SYNTH_KINDS:
        for seed in range(30):
            s = synth_scenario(kind, seed)
            ex = make_finetune_example(s)
            out = parse_plan_output(ex.target_text)
            assert out.quality is ParseQuality.CLEAN, (kind, seed)
            assert out.trajectory.waypoints == s.human_trajectory.waypoints, (kind, seed)
            want = compose_reasoning(s).decision
            assert out.decision is want, (kind, seed, out.decision, want)


def test_fault_tolerant_pipeline_with_corrupted_completions(tmp_path, capsys, api_key_env):
    # a backend garbling every 10th completion must not break the pipeline:
    # all 200 scenarios land in the report and the fallback count sits
    # within [5%, 15%]
    scen = tmp_path / "scenarios.json"
    results = tmp_path / "results.jsonl"
    assert run_cli("synth", "--out", scen, "--count", 200, "--seed", 11) == 0
    from lmplan import load_scenarios

    scenarios = load_scenarios(scen)
    with MockChatServer(echo_target_responder(scenarios), corrupt_every=10) as srv:
        code = run_cli(
            "plan", "--scenarios", scen, "--out", results,
            "--mode", "remote", "--endpoint", srv.url,
            "--backoff", 0, "--max-retries", 1, "--max-in-flight", 8,
        )
    assert code == 0
    rows = [json.loads(line) for line in results.read_text().splitlines()]
    assert len(rows) == 200  # no scenario lost
    assert run_cli("evaluate", "--scenarios", scen, "--results", results,
                   "--out-dir", tmp_path / "report") == 0
    md = (tmp_path / "report" / "report.md").read_text()
    assert "evaluated 200" in md
    fallbacks = int(md.split("fallbacks substituted ")[1].split(")")[0])
    assert 10 <= fallbacks <= 30, f"fallbacks {fallbacks} outside [5%, 15%] of 200"


def test_few_shot_prefix_split_protocol():
    # ceiling-rule counts are exact and smaller fractions are prefixes of
    # larger ones, for any seed
    scenarios = [
        synth_scenario(SYNTH_KINDS[i % len(SYNTH_KINDS)], i) for i in range(700)
    ]
    for seed in (0, 7, 123, 99991):
        subsets = {f: sample_split(scenarios, f, seed) for f in (0.01, 0.10, 0.50)}
        assert [len(subsets[f]) for f in (0.01, 0.10, 0.50)] == [7, 70, 350]
        ids = {f: [s.id for s in subsets[f]] for f in subsets}
        assert ids[0.10][:7] == ids[0.01]
        assert ids[0.50][:70] == ids[0.10]


def mutate(rng, text):
    ops = rng.randrange(1, 4)
    out = text
    for _ in range(ops):
        if not out:
            break
        op = rng.randrange(4)
        i = rng.randrange(len(out))
        j = min(len(out), i + rng.randrange(1, 30))
        if op == 0:  # delete a span
            out = out[:i] + out[j:]
        elif op == 1:  # duplicate a span
            out = out[:j] + out[i:j] + out[j:]
        elif op == 2:  # splatter junk
            junk = "".join(chr(rng.randrange(32, 127)) for _ in range(5))
            out = out[:i] + junk + out[i:]
        else:  # flip case of a span
            out = out[:i] + out[i:j].swapcase() + out[j:]
    return out


def test_parser_fuzzing_100k_inputs():
    # no input may crash the parsers: 70k random byte strings plus 30k
    # mutated valid plan texts
    rng = random.Random(404)
    targets = [
        make_finetune_example(synth_scenario(kind, seed)).target_text
        for kind in SYNTH_KINDS
        for seed in range(3)
    ]
    for i in range(100_000):
        if i % 10 < 7:
            n = rng.randrange(0, 201)
            text = bytes(rng.randrange(256) for _ in range(n)).decode("latin-1")
        else:
            text = mutate(rng, rng.choice(targets))
        out = parse_plan_output(text)
        assert out.quality in (ParseQuality.CLEAN, ParseQuality.RECOVERED, ParseQuality.FAILED)
        try:
            parse_trajectory(text)
        except TrajectoryParseError:
            pass  # the documented failure mode, not a crash


@pytest.mark.skipif(
    not (os.environ.get("PLANNER_API_KEY") and os.environ.get("LMPLAN_LIVE_ENDPOINT")),
    reason="live check needs PLANNER_API_KEY and LMPLAN_LIVE_ENDPOINT",
)
def test_live_endpoint_smoke(tmp_path, capsys):
    # optional, non-gating on numbers: a real endpoint must complete the
    # plan + evaluate loop on 5 scenarios and report its parse-failure rate
    endpoint = os.environ["LMPLAN_LIVE_ENDPOINT"]
    scen = tmp_path / "scenarios.json"
    results = tmp_path / "results.jsonl"
    assert run_cli("synth", "--out", scen, "--count", 5, "--seed", 3) == 0
    assert run_cli("plan", "--scenarios", scen, "--out", results,
                   "--mode", "remote", "--endpoint", endpoint) == 0
    assert run_cli("evaluate", "--scenarios", scen, "--results", results,
                   "--out-dir", tmp_path / "report") == 0
    md = (tmp_path / "report" / "report.md").read_text()
    assert "parse failures" in md
