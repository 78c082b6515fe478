"""Command-line harness tying the pipeline together.

Subcommands:

- ``synth``: generate a deterministic scenario file from the built-in
  archetypes.
- ``split``: seeded fractional subset; writes a manifest of chosen ids and
  optionally the subset scenario file. Smaller fractions at the same seed
  are prefixes of larger ones.
- ``export-finetune``: supervision dataset as chat-format JSONL, plus a
  sidecar ``<out>.meta.json`` recording the prompt template hash.
- ``plan``: run a backend over every scenario and write one result line per
  scenario, ``metrics.PlanRecord.to_line``.
  Each scenario gets one completion; ``--max-retries`` bounds the backend's
  HTTP retries, and a reply that fails to parse is not asked again. Only
  remote mode builds prompts (and packs exemplars into them): the stubs
  answer from the scenario. In remote mode ``--max-in-flight`` (at most
  ``MAX_IN_FLIGHT``) bounds the requests on the wire; a scenario waiting
  out a retry backoff (or a 429/503 ``Retry-After``) holds no slot. An
  endpoint that is not an http(s) URL with a host, an endpoint with a
  query or fragment, no API key, or a ``PLANNER_API_KEY`` holding a
  character outside 0x21-0x7E exits 2 before ``--out`` is opened. Lines
  are written in scenario order as they finish.
- ``evaluate``: join the result lines (``metrics.PlanRecord.from_line``, each
  checked in full) to scenarios by id, compute open-loop metrics, write
  ``report.md`` and ``report.csv``. A repeated result id is an error; ids
  not in the scenario file are ignored with one warning.

Every command uses the fixed horizon: 6 waypoints, 0.5 s apart. No command
writes over one of its input files or writes two outputs to one file: an
output path that names an input or another output is bad input.

Exit codes: 0 success; 1 evaluate's parse-failure rate exceeded the
threshold; 2 bad input or configuration. A stdout whose reader has gone
away (``lmplan evaluate ... | head -1``) changes none of them.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from .backend import (
    MAX_IN_FLIGHT,
    BackendConfig,
    BackendError,
    BackendMode,
    check_remote_config,
    complete,
    export_finetune_jsonl,
)
from .metrics import (
    FALLBACK_POLICIES,
    EvalConfig,
    PlanRecord,
    evaluate_dataset,
    render_csv,
    render_markdown,
)
from .parsing import ParseQuality, parse_plan_output
from .prompts import build_prompt, check_exemplar_count, pack_exemplars, template_hash
from .reasoning import make_finetune_example
from .scenario import (
    SYNTH_KINDS,
    ScenarioSchemaError,
    load_scenarios,
    sample_split,
    save_scenarios,
    synth_scenario,
)


def _fail(msg: str) -> int:
    print(f"lmplan: error: {msg}", file=sys.stderr)
    return 2


def _say(text: str) -> None:
    """Print ``text`` to stdout and flush; a reader that has gone away changes no exit code.

    On ``BrokenPipeError`` fd 1 is pointed at ``os.devnull``, so this and
    later output, and the flush at exit, go nowhere instead of raising.
    """
    try:
        print(text, flush=True)
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _load_nonempty(path: str):
    try:
        scenarios = load_scenarios(path)
    except ScenarioSchemaError as e:
        raise ValueError(f"{path}: {e}") from None
    if not scenarios:
        raise ValueError(f"no scenarios in {path}")
    return scenarios


def _check_outputs(outputs, inputs) -> None:
    """Raise ``ValueError`` when an output names an existing input or an earlier output.

    Both are ``(flag, path)`` pairs, an empty path meaning not given. Called
    before anything is opened for writing, so the input stays as it was.
    """
    named = [(flag, p) for flag, p in inputs if p and os.path.exists(p)]
    for out_flag, out in outputs:
        if not out:
            continue
        for flag, p in named:
            if _same_file(out, p):
                raise ValueError(f"{out_flag} {out} is the {flag} file; it would be overwritten")
        named.append((out_flag, out))


def _same_file(a: str, b: str) -> bool:
    """Whether two paths, either of which may not exist yet, name one file."""
    if os.path.exists(a) and os.path.exists(b):
        return os.path.samefile(a, b)
    return os.path.realpath(a) == os.path.realpath(b)


def cmd_synth(args) -> int:
    kinds = args.kinds.split(",") if args.kinds else list(SYNTH_KINDS)
    for k in kinds:
        if k not in SYNTH_KINDS:
            return _fail(f"unknown kind {k!r}; choose from {', '.join(SYNTH_KINDS)}")
    if args.count < 1:
        return _fail("--count must be >= 1")
    scenarios = [synth_scenario(kinds[i % len(kinds)], args.seed + i) for i in range(args.count)]
    save_scenarios(scenarios, args.out)
    _say(f"wrote {len(scenarios)} scenarios to {args.out}")
    return 0


def cmd_split(args) -> int:
    scenarios = _load_nonempty(args.scenarios)
    subset = sample_split(scenarios, args.fraction, args.seed)
    _check_outputs(
        [("--out", args.out), ("--scenarios-out", args.scenarios_out)],
        [("--scenarios", args.scenarios)],
    )
    manifest = {
        "fraction": args.fraction,
        "seed": args.seed,
        "count": len(subset),
        "ids": [s.id for s in subset],
    }
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(manifest, f, indent=1)
        f.write("\n")
    if args.scenarios_out:
        save_scenarios(subset, args.scenarios_out)
    _say(f"selected {len(subset)} of {len(scenarios)} scenarios -> {args.out}")
    return 0


def cmd_export_finetune(args) -> int:
    scenarios = _load_nonempty(args.scenarios)
    meta_path = args.out + ".meta.json"
    _check_outputs(
        [("--out", args.out), ("--out's sidecar", meta_path)], [("--scenarios", args.scenarios)]
    )
    examples = (make_finetune_example(s) for s in scenarios)
    n = export_finetune_jsonl(examples, args.out)
    with open(meta_path, "w", encoding="utf-8") as f:
        json.dump({"count": n, "template_hash": template_hash()}, f, indent=1, sort_keys=True)
        f.write("\n")
    _say(f"wrote {n} examples to {args.out} (meta: {meta_path})")
    return 0


def cmd_plan(args) -> int:
    scenarios = _load_nonempty(args.scenarios)
    # each of the config's fields is parsed into the flag destination of its name
    cfg = BackendConfig(**{f.name: getattr(args, f.name) for f in dataclasses.fields(BackendConfig)})

    remote = cfg.mode is BackendMode.REMOTE

    # the same checks in every mode, all before --out is opened
    exemplar_pool = []
    if args.exemplars:
        check_exemplar_count(args.exemplars)
        if not args.exemplar_scenarios:
            return _fail("--exemplars needs --exemplar-scenarios")
        exemplar_scenarios = _load_nonempty(args.exemplar_scenarios)
        if len(exemplar_scenarios) < args.exemplars:
            return _fail(
                f"--exemplars {args.exemplars} needs as many scenarios; "
                f"{args.exemplar_scenarios} holds {len(exemplar_scenarios)}"
            )
        if remote:  # only the first --exemplars of them are packed
            exemplar_pool = [make_finetune_example(s) for s in exemplar_scenarios[: args.exemplars]]
    _check_outputs(
        [("--out", args.out)],
        [("--scenarios", args.scenarios), ("--exemplar-scenarios", args.exemplar_scenarios)],
    )
    if remote:
        try:
            check_remote_config(cfg)
        except BackendError as e:
            return _fail(str(e))

    def plan_one(s):
        prompt = None  # the stubs answer from the scenario and read no prompt
        if remote:
            prompt = build_prompt(s)
            if exemplar_pool:
                prompt = pack_exemplars(prompt, exemplar_pool)
        try:
            raw = complete(cfg, prompt, s)
        except BackendError as e:
            print(f"lmplan: warning: {s.id}: {e}", file=sys.stderr)
            return PlanRecord(s.id)
        out = parse_plan_output(raw)
        return PlanRecord(s.id, out.trajectory, out.quality, raw)

    # Both maps yield in input order: a line is written once it and all
    # before it are done. The pool starts threads only on submit, so the
    # stub modes (builtin map) run on this thread.
    counts = Counter()
    with (
        # a lone surrogate from a reply can sit only inside a JSON string, where
        # backslashreplace writes its JSON escape (\ud800)
        open(args.out, "w", encoding="utf-8", errors="backslashreplace", newline="", buffering=1) as f,
        # up to max_in_flight scenarios can wait out a backoff while every slot stays busy
        ThreadPoolExecutor(max_workers=2 * cfg.max_in_flight) as pool,
    ):
        ordered_map = pool.map if remote else map
        for rec in ordered_map(plan_one, scenarios):
            f.write(rec.to_line())
            counts[rec.parse_quality] += 1
    tally = ", ".join(f"{q.value} {counts[q]}" for q in ParseQuality)
    _say(f"planned {len(scenarios)} scenarios -> {args.out} ({tally})")
    return 0


def _read_results(path: str, known_ids: set[str]) -> list[PlanRecord]:
    """Records of the known scenario ids; each line is checked, a repeated id is an error."""
    records = []
    first_line: dict[str, int] = {}
    unknown = 0
    # split as text mode would (\n, \r, \r\n), so a line that is not UTF-8 has its number
    for lineno, line in enumerate(Path(path).read_bytes().splitlines(), 1):
        if not line.strip():
            continue
        try:
            rec = PlanRecord.from_line(line)
            sid = rec.scenario_id
            if sid in first_line:
                raise ValueError(f"duplicate scenario_id {sid!r} (first on line {first_line[sid]})")
        except (ValueError, OverflowError, RecursionError) as e:
            raise ValueError(f"{path}:{lineno}: bad result line: {e}") from None
        first_line[sid] = lineno
        if sid in known_ids:
            records.append(rec)
        else:
            unknown += 1
    if unknown:
        msg = f"ignored {unknown} result line(s) whose scenario_id is not in the scenario file"
        print(f"lmplan: warning: {path}: {msg}", file=sys.stderr)
    return records


def cmd_evaluate(args) -> int:
    if not args.fail_threshold >= 0:  # also rejects nan, which would switch the gate off
        return _fail("--fail-threshold must be a number >= 0")
    scenarios = _load_nonempty(args.scenarios)
    records = _read_results(args.results, {s.id for s in scenarios})
    out_dir = Path(args.out_dir)
    _check_outputs(
        [(f"--out-dir's {name}", str(out_dir / name)) for name in ("report.md", "report.csv")],
        [("--scenarios", args.scenarios), ("--results", args.results)],
    )
    cfg = EvalConfig(
        fallback_policy=args.fallback,
        exclude_gt_collisions=args.exclude_gt_collisions,
    )
    report = evaluate_dataset(scenarios, records, cfg)
    out_dir.mkdir(parents=True, exist_ok=True)
    md = render_markdown(report)
    (out_dir / "report.md").write_text(md, encoding="utf-8")
    (out_dir / "report.csv").write_text(render_csv(report), encoding="utf-8")
    _say(f"{md}reports written to {out_dir}/report.md and {out_dir}/report.csv")
    rate = report.parse_failures / report.total
    if rate > args.fail_threshold:
        print(
            f"lmplan: parse-failure rate {rate:.3f} exceeds threshold "
            f"{args.fail_threshold:.3f}",
            file=sys.stderr,
        )
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="lmplan",
        description="Motion planning as text: synth, split, export, plan, evaluate.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("synth", help="generate deterministic scenarios")
    sp.add_argument("--out", required=True)
    sp.add_argument("--count", type=int, default=20)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--kinds", default="", help="comma-separated archetype names")
    sp.set_defaults(func=cmd_synth)

    sp = sub.add_parser("split", help="seeded fractional subset")
    sp.add_argument("--scenarios", required=True)
    sp.add_argument("--fraction", type=float, required=True)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", required=True, help="manifest JSON path")
    sp.add_argument("--scenarios-out", default="", help="also write the subset scenarios")
    sp.set_defaults(func=cmd_split)

    sp = sub.add_parser("export-finetune", help="write chat-format JSONL supervision")
    sp.add_argument("--scenarios", required=True)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_export_finetune)

    sp = sub.add_parser("plan", help="run a backend over scenarios")
    sp.add_argument("--scenarios", required=True)
    sp.add_argument("--out", required=True, help="results JSONL path")
    defaults = {f.name: f.default for f in dataclasses.fields(BackendConfig)}
    sp.add_argument("--mode", default=defaults["mode"].value, choices=[m.value for m in BackendMode])
    sp.add_argument("--endpoint", dest="endpoint_url", metavar="ENDPOINT",
                    default=defaults["endpoint_url"], help="base URL for remote mode")
    sp.add_argument("--model", default=defaults["model"])
    sp.add_argument("--temperature", type=float, default=defaults["temperature"])
    sp.add_argument("--timeout", dest="timeout_s", metavar="TIMEOUT", type=float,
                    default=defaults["timeout_s"])
    sp.add_argument("--max-retries", type=int, default=defaults["max_retries"],
                    help="HTTP retries per request")
    sp.add_argument("--backoff", dest="retry_backoff_s", metavar="BACKOFF", type=float,
                    default=defaults["retry_backoff_s"], help="initial retry delay, seconds")
    sp.add_argument("--max-in-flight", type=int, default=defaults["max_in_flight"],
                    help=f"remote requests on the wire at once, 1..{MAX_IN_FLIGHT}; "
                    "a backoff holds no slot")
    sp.add_argument("--exemplars", type=int, default=0, help="in-context examples per prompt")
    sp.add_argument("--exemplar-scenarios", default="", help="scenario file the exemplars come from")
    sp.set_defaults(func=cmd_plan)

    sp = sub.add_parser("evaluate", help="score results against ground truth")
    sp.add_argument("--scenarios", required=True)
    sp.add_argument("--results", required=True)
    sp.add_argument("--out-dir", required=True)
    sp.add_argument("--fallback", default=FALLBACK_POLICIES[0], choices=FALLBACK_POLICIES)
    sp.add_argument(
        "--fail-threshold",
        type=float,
        default=1.0,
        help="exit 1 when the parse-failure rate exceeds this fraction",
    )
    sp.add_argument("--exclude-gt-collisions", action="store_true")
    sp.set_defaults(func=cmd_evaluate)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as e:  # ScenarioSchemaError is a ValueError
        return _fail(str(e))


if __name__ == "__main__":
    sys.exit(main())
