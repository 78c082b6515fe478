"""lmplan benchmark: one workload per run, end-to-end or traced.

    python3 bench/run.py --workload offline_eval --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``. A run sets the workload up at least ``SETUP_REPS`` times and for at
least ``SETUP_SECONDS`` (``setup_s`` is the median), makes one untimed
warm-up pass, then repeats timed passes of the ``lmplan`` CLI for
``--seconds``, checking every pass's outputs.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json. ``--trace 1``
spends half the time untraced and half with every layer wrapped, and prints
the per-layer metrics, including the tracing overhead; the spans go to
``.bench_out/spans-<workload>.jsonl``.

The last line of stdout is one JSON object: ``correct``, ``attempted``
(scenarios run in the timed passes), ``failed`` (of those, scenarios in a
pass whose outputs failed a check) and ``metrics``. A failed check exits 1,
input or set-up trouble exits 2.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
import time
from pathlib import Path

import calibrate

SETUP_REPS = 9
SETUP_SECONDS = 4.0  # short set-ups repeat more, so their median is as steady
MIN_PASSES = 3
ROOT = Path(__file__).resolve().parent.parent


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def timed_phase(wl, seconds: float) -> dict:
    """Timed passes until `seconds` of wall time (at least MIN_PASSES), each checked.

    A CPU-bound workload's pass times are scaled to the reference speed
    (see calibrate.py); a latency-bound one's are used as measured.
    """
    raw, times, facts, problems = [], [], [], []
    failed = failed_results = 0
    start = time.perf_counter()
    while len(times) < MIN_PASSES or time.perf_counter() - start < seconds:
        t, scaled = calibrate.timed_steps(wl.pass_steps(), scale=wl.cpu_bound)
        fact = wl.pass_facts()
        raw.append(t)
        times.append(scaled)
        facts.append(fact)
        pass_problems, n_failed = wl.check()
        failed_results += n_failed
        if pass_problems:
            failed += fact["scenarios"]
            problems.extend(pass_problems)
    return {
        "raw": raw,
        "times": times,
        "facts": facts,
        "problems": problems,
        "failed": failed,
        "failed_results": failed_results,
        "sps": [f["scenarios"] / t for f, t in zip(facts, times)],
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "lmplan" / "__init__.py").is_file():
        print(f"bench: no lmplan sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    import workloads
    from layers import install_pass_tracer, install_setup_tracer, layer_metrics, self_time_table
    from stats import describe, median
    from tracing import Tracer

    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    wl = workloads.WORKLOADS[args.workload](work, args.seed)
    try:
        setup_s = []
        start = time.perf_counter()
        while len(setup_s) < SETUP_REPS or time.perf_counter() - start < SETUP_SECONDS:
            wl.close()
            setup_s.append(calibrate.timed_steps(wl.setup_steps())[1])
        wl.run_pass()
        warm_problems = wl.check()[0]

        if args.trace:
            setup_tracer = Tracer()
            install_setup_tracer(setup_tracer, workloads)
            try:
                wl.close()
                wl.setup()
                wl.run_pass()
                warm_problems += wl.check()[0]
            finally:
                setup_tracer.uninstall()
            plain = timed_phase(wl, args.seconds / 2)
            tracer = Tracer()
            install_pass_tracer(tracer)
            try:
                phase = timed_phase(wl, args.seconds / 2)
            finally:
                tracer.uninstall()
        else:
            counter = Tracer()
            if wl.answer_fn:
                from lmplan import cli

                counter.count_calls(cli, wl.answer_fn, "answers")
            try:
                phase = timed_phase(wl, args.seconds)
            finally:
                counter.uninstall()
    finally:
        wl.close()
        shutil.rmtree(work, ignore_errors=True)

    problems = warm_problems + phase["problems"]
    passes = len(phase["times"])
    attempted = passes * wl.n
    print(f"workload {wl.name}: {wl.n} scenarios per pass, {passes} timed passes, seed {args.seed}")
    print(f"  setup_s: {describe(setup_s, 's')} (scaled to the reference speed)")
    print(f"  pass_s: {describe(phase['times'], 's')}"
          + (" (scaled to the reference speed)" if wl.cpu_bound else ""))
    if wl.cpu_bound:
        print(f"  pass_s as measured: {describe(phase['raw'], 's')}")
    for p in problems[:20]:
        print(f"  CHECK FAILED: {p}")

    if args.trace:
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"spans-{wl.name}.jsonl")
        untraced, traced = median(plain["sps"]), median(phase["sps"])
        metrics, absent = layer_metrics(
            tracer, setup_tracer, phase["facts"], wl.planned_per_pass * passes, untraced, traced,
            time_scale=median(phase["times"]) / median(phase["raw"]),
        )
        for line in self_time_table(tracer):
            print("  " + line)
        if absent:
            print(f"  not exercised on {wl.name} (reported as 0): {', '.join(absent)}")
        expected = [m["name"] for m in spec["per_layer"]]
    else:
        facts = phase["facts"]
        if wl.answer_fn:
            answers = counter.counts()["answers"]
            answer_base = wl.planned_per_pass * passes or attempted
        else:
            answers = sum(f["requests"] for f in facts)
            answer_base = attempted
        results = wl.results_per_pass * passes
        metrics = {
            "setup_s": (median(setup_s), "s"),
            "throughput_sps": (median(phase["sps"]), "1/s"),
            "requests_per_scenario": (answers / answer_base, "count"),
            "ok_share": (1.0 - phase["failed_results"] / results, "ratio"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        expected = [m["name"] for m in spec["end_to_end"]]
    if sorted(metrics) != sorted(expected):
        print(f"bench: metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(expected)}",
              file=sys.stderr)
        return 2
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    correct = not problems
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": phase["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
