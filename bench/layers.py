"""Per-layer metrics: where the traced wrappers go, and what they add up to.

Layer names are the module names of ``lmplan`` (``scenario``, ``codec``,
``prompts``, ``reasoning``, ``backend``, ``parsing``, ``metrics``, ``cli``)
plus ``endpoint`` for the benchmark's mock server and ``trace`` for the cost
of tracing itself. Each function is wrapped where its caller looks it up:
``lmplan.cli`` for the pipeline stages, ``lmplan.backend`` for the replay
stub's supervision example and for ``requests.post``, ``lmplan.reasoning``
and ``lmplan.parsing`` for the codec calls they make.
"""

from __future__ import annotations

import os
import time
from collections import defaultdict

from stats import median, percentile
from tracing import Tracer, self_times

# (name, unit, better) in the order they are printed
PER_LAYER = (
    ("scenario.synth_us", "us/scenario", "lower"),
    ("scenario.save_us", "us/scenario", "lower"),
    ("scenario.load_us", "us/scenario", "lower"),
    ("scenario.file_bytes", "bytes/scenario", "lower"),
    ("codec.quantize_calls", "calls/scenario", "lower"),
    ("codec.quantize_ns", "ns/call", "lower"),
    ("codec.serialize_us", "us/call", "lower"),
    ("codec.parse_us", "us/call", "lower"),
    ("prompts.build_us", "us/call", "lower"),
    ("prompts.pack_us", "us/call", "lower"),
    ("prompts.request_chars", "chars/request", "lower"),
    ("reasoning.example_us", "us/example", "lower"),
    ("backend.stub_replay_gt_us", "us/call", "lower"),
    ("backend.stub_hypothetical_us", "us/call", "lower"),
    ("backend.complete_ms_p50", "ms", "lower"),
    ("backend.complete_ms_p99", "ms", "lower"),
    ("backend.attempts_per_complete", "count", "lower"),
    ("backend.retry_share", "ratio", "lower"),
    ("backend.attempt_ms_p50", "ms", "lower"),
    ("backend.transport_overhead_ms", "ms", "lower"),
    ("backend.wait_ms_per_complete", "ms", "lower"),
    ("backend.export_us", "us/record", "lower"),
    ("backend.export_bytes", "bytes/record", "lower"),
    ("parsing.parse_us", "us/call", "lower"),
    ("parsing.clean_share", "ratio", "higher"),
    ("parsing.recovered_share", "ratio", "lower"),
    ("parsing.failed_share", "ratio", "lower"),
    ("metrics.evaluate_us", "us/scenario", "lower"),
    ("metrics.render_ms", "ms/report", "lower"),
    ("cli.completes_per_scenario", "count", "lower"),
    ("cli.useful_completion_ratio", "ratio", "higher"),
    ("cli.plan_self_ms", "ms", "lower"),
    ("endpoint.connections_per_request", "count", "lower"),
    ("endpoint.max_in_flight", "count", "higher"),
    ("endpoint.service_ms", "ms", "lower"),
    ("endpoint.status_429", "count/pass", "lower"),
    ("endpoint.status_5xx", "count/pass", "lower"),
    ("trace.untraced_sps", "1/s", "higher"),
    ("trace.traced_sps", "1/s", "higher"),
    ("trace.overhead", "ratio", "lower"),
)


class _RequestsProxy:
    """Stands in for the ``requests`` module inside ``lmplan.backend``."""

    def __init__(self, real):
        self._real = real
        self.post = real.post

    def __getattr__(self, name):
        return getattr(self._real, name)


def _count(args, kwargs, result):
    return len(result)


def _saved(args, kwargs, result):
    return len(args[0])


def _file_size(pos):
    return lambda args, kwargs, result: os.path.getsize(args[pos])


def _request_chars(args, kwargs, result):
    return sum(len(m["content"]) for m in kwargs["json"]["messages"])


def _count_quality(tracer, result):
    tracer.count(f"parse.{result.quality.value}")


def install_setup_tracer(tracer: Tracer, workloads_module) -> None:
    """Trace the benchmark's own set-up calls, which synth and save the inputs."""
    tracer.span(workloads_module, "synth_scenario", "scenario.synth", "scenario")
    tracer.span(workloads_module, "save_scenarios", "scenario.save", "dataset", items=_saved)


def install_pass_tracer(tracer: Tracer) -> None:
    from lmplan import backend, cli, codec, parsing, reasoning, scenario

    for cmd in ("plan", "evaluate", "synth", "export_finetune"):
        tracer.span(cli, f"cmd_{cmd}", f"cli.{cmd}", "command")
    tracer.span(cli, "load_scenarios", "scenario.load", "dataset",
                items=_count, nbytes=_file_size(0))
    tracer.span(cli, "save_scenarios", "scenario.save", "dataset", items=_saved)
    tracer.span(cli, "synth_scenario", "scenario.synth", "scenario")
    tracer.span(cli, "build_prompt", "prompts.build", "scenario")
    tracer.span(cli, "pack_exemplars", "prompts.pack")
    tracer.span(cli, "complete", lambda a, k: f"backend.complete.{a[0].mode.value}", "scenario")
    tracer.span(cli, "parse_plan_output", "parsing.parse", on_result=_count_quality)
    tracer.span(cli, "make_finetune_example", "reasoning.example", "scenario")
    tracer.span(cli, "export_finetune_jsonl", "backend.export", "dataset",
                items=lambda a, k, r: r, nbytes=_file_size(1))
    tracer.span(cli, "evaluate_dataset", "metrics.evaluate", "dataset",
                items=lambda a, k, r: r.total)
    tracer.span(cli, "render_markdown", "metrics.render_markdown", "dataset")
    tracer.span(cli, "render_csv", "metrics.render_csv", "dataset")

    tracer.span(backend, "make_finetune_example", "reasoning.example", "scenario")
    tracer.replace(backend, "requests", _RequestsProxy(backend.requests))
    tracer.span(backend.requests, "post", "backend.post", items=_request_chars)
    tracer.span(backend, "serialize_trajectory", "codec.serialize")
    tracer.span(reasoning, "build_prompt", "prompts.build", "scenario")
    tracer.span(reasoning, "serialize_trajectory", "codec.serialize")
    tracer.span(parsing, "parse_trajectory", "codec.parse")
    for module in (codec, scenario, reasoning):
        tracer.count_calls(module, "quantize", "codec.quantize", sample=True)


def quantize_ns(samples) -> float:
    """Untraced ns per quantize call over the workload's own arguments (median of 5)."""
    from lmplan.codec import quantize

    if not samples:
        return 0.0
    runs = []
    for _ in range(5):
        t0 = time.perf_counter_ns()
        for args in samples:
            quantize(*args)
        runs.append((time.perf_counter_ns() - t0) / len(samples))
    return median(runs)


def layer_metrics(tracer: Tracer, setup_tracer: Tracer, passes: list[dict],
                  planned: int, untraced_sps: float, traced_sps: float, time_scale: float):
    """Per-layer metric values and the names of those this workload never exercised.

    ``passes`` are the facts each traced pass returned; ``planned`` is the
    number of scenarios ``cmd_plan`` handled over them. Times are multiplied
    by ``time_scale``, the traced phase's scaled-to-measured ratio, so a
    CPU-bound workload's layer times are at the reference speed too.
    """
    by_name = defaultdict(list)
    for s in tracer.spans:
        by_name[s.name].append(s)
    setup_by_name = defaultdict(list)
    for s in setup_tracer.spans:
        setup_by_name[s.name].append(s)
    self_t = self_times(tracer.spans)
    counts = tracer.counts()
    scenarios = sum(p["scenarios"] for p in passes)
    ep = [p["endpoint"] for p in passes if p.get("endpoint")]
    ep_requests = sum(c["requests"] for c in ep)

    def spans(name):
        return by_name.get(name) or setup_by_name.get(name, [])

    def mean_us(name):
        ss = spans(name)
        return sum(s.duration for s in ss) / len(ss) * 1e6 if ss else None

    def per_item_us(name, self_time=False):
        ss = spans(name)
        n = sum(s.items for s in ss)
        if not n:
            return None
        total = sum(self_t[s.idx] if self_time else s.duration for s in ss)
        return total / n * 1e6

    def ratio(num, den):
        return num / den if den else None

    remote = by_name.get("backend.complete.remote", [])
    posts = by_name.get("backend.post", [])
    parses = by_name.get("parsing.parse", [])
    completes = sum(len(v) for k, v in by_name.items() if k.startswith("backend.complete."))
    loads = spans("scenario.load")
    exports = spans("backend.export")
    renders = spans("metrics.render_markdown") + spans("metrics.render_csv")
    useful = counts["parse.clean"] + counts["parse.recovered"]
    service_ms = ratio(sum(c["service_s"] for c in ep) * 1e3, ep_requests)
    attempt_mean_ms = ratio(sum(s.duration for s in posts) * 1e3, len(posts))

    values = {
        "scenario.synth_us": mean_us("scenario.synth"),
        "scenario.save_us": per_item_us("scenario.save"),
        "scenario.load_us": per_item_us("scenario.load"),
        "scenario.file_bytes": ratio(sum(s.nbytes for s in loads), sum(s.items for s in loads)),
        "codec.quantize_calls": ratio(counts["codec.quantize"], scenarios),
        "codec.quantize_ns": quantize_ns(tracer.samples("codec.quantize")) or None,
        "codec.serialize_us": mean_us("codec.serialize"),
        "codec.parse_us": mean_us("codec.parse"),
        "prompts.build_us": mean_us("prompts.build"),
        "prompts.pack_us": mean_us("prompts.pack"),
        "prompts.request_chars": ratio(sum(s.items for s in posts), len(posts)),
        "reasoning.example_us": mean_us("reasoning.example"),
        "backend.stub_replay_gt_us": mean_us("backend.complete.stub_replay_gt"),
        "backend.stub_hypothetical_us": mean_us("backend.complete.stub_hypothetical"),
        "backend.complete_ms_p50":
            percentile([s.duration * 1e3 for s in remote], 50) if remote else None,
        "backend.complete_ms_p99":
            percentile([s.duration * 1e3 for s in remote], 99) if remote else None,
        "backend.attempts_per_complete": ratio(len(posts), len(remote)),
        "backend.retry_share": ratio(len(posts) - len(remote), len(posts)),
        "backend.attempt_ms_p50":
            percentile([s.duration * 1e3 for s in posts], 50) if posts else None,
        "backend.transport_overhead_ms":
            attempt_mean_ms - service_ms if posts and service_ms is not None else None,
        "backend.wait_ms_per_complete":
            ratio(sum(self_t[s.idx] for s in remote) * 1e3, len(remote)),
        "backend.export_us": per_item_us("backend.export", self_time=True),
        "backend.export_bytes":
            ratio(sum(s.nbytes for s in exports), sum(s.items for s in exports)),
        "parsing.parse_us": mean_us("parsing.parse"),
        "parsing.clean_share": ratio(counts["parse.clean"], len(parses)),
        "parsing.recovered_share": ratio(counts["parse.recovered"], len(parses)),
        "parsing.failed_share": ratio(counts["parse.failed"], len(parses)),
        "metrics.evaluate_us": per_item_us("metrics.evaluate"),
        "metrics.render_ms":
            ratio(sum(s.duration for s in renders) * 1e3, len(spans("metrics.render_markdown"))),
        "cli.completes_per_scenario": ratio(completes, planned),
        "cli.useful_completion_ratio": ratio(useful, completes),
        "cli.plan_self_ms": ratio(
            sum(self_t[s.idx] for s in by_name.get("cli.plan", [])) * 1e3,
            len(by_name.get("cli.plan", [])),
        ),
        "endpoint.connections_per_request":
            ratio(sum(c["connections"] for c in ep), ep_requests),
        "endpoint.max_in_flight": max((c["max_in_flight"] for c in ep), default=None),
        "endpoint.service_ms": service_ms,
        "endpoint.status_429":
            ratio(sum(c["statuses"].get(429, 0) for c in ep), len(ep)),
        "endpoint.status_5xx": ratio(
            sum(v for c in ep for k, v in c["statuses"].items() if k >= 500), len(ep)
        ),
        "trace.untraced_sps": untraced_sps,
        "trace.traced_sps": traced_sps,
        "trace.overhead": untraced_sps / traced_sps - 1.0,
    }
    absent = [name for name, _, _ in PER_LAYER if values[name] is None]
    out = {}
    for name, unit, _ in PER_LAYER:
        value = values[name] or 0.0
        if unit.split("/")[0] in ("ns", "us", "ms"):
            value *= time_scale
        out[name] = (value, unit)
    return out, absent


def self_time_table(tracer: Tracer) -> list[str]:
    """Lines of 'span  calls  total ms  self ms  share of self time', biggest first."""
    self_t = self_times(tracer.spans)
    calls, total, own = defaultdict(int), defaultdict(float), defaultdict(float)
    for s in tracer.spans:
        calls[s.name] += 1
        total[s.name] += s.duration
        own[s.name] += self_t[s.idx]
    all_self = sum(own.values()) or 1.0
    lines = [f"{'span':34} {'calls':>8} {'total_ms':>10} {'self_ms':>10} {'self%':>6}"]
    for name in sorted(own, key=own.get, reverse=True):
        lines.append(f"{name:34} {calls[name]:8d} {total[name] * 1e3:10.1f} "
                     f"{own[name] * 1e3:10.1f} {100 * own[name] / all_self:6.1f}")
    return lines
