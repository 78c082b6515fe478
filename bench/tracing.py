"""Spans and call counts recorded from outside the program.

A :class:`Tracer` replaces module attributes (``lmplan.cli.complete`` and
so on) with wrappers that time each call. Spans live in memory as
:class:`Span` records: name, start, end, parent span, and the scenario the
call worked on. Spans of one scenario share its id. Self time is computed
afterwards from the parent links: a span's duration minus the part of it
that its children cover.

A span with no open parent in its own thread takes the open command span
(``scope="command"``) as parent, so calls made in the plan worker threads
are children of ``cmd_plan``.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass


@dataclass(slots=True)
class Span:
    idx: int
    name: str
    start: float
    end: float
    parent: int | None
    sid: str | None
    items: int = 0  # scenarios, records or characters the call handled
    nbytes: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict[int, float]:
    """Span idx -> its duration minus the time its direct children cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {
        s.idx: s.duration - covered(children.get(s.idx, ()), s.start, s.end)
        for s in spans
    }


def _scenario_id(values):
    for v in values:
        if hasattr(v, "human_trajectory") and hasattr(v, "id"):
            return v.id
    return None


class _Cell:
    """Per-thread counts and argument samples, so counting takes no lock."""

    __slots__ = ("counts", "samples")

    def __init__(self):
        self.counts = Counter()
        self.samples = defaultdict(list)


class Tracer:
    SAMPLE_CAP = 20_000  # argument tuples kept per counted function

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._cells: list[_Cell] = []
        self._command: int | None = None
        self._patches: list[tuple[object, str, object]] = []

    # -- installing -----------------------------------------------------

    def replace(self, module, attr: str, value) -> None:
        """Set ``module.attr``; ``uninstall`` puts the old value back."""
        self._patches.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def uninstall(self) -> None:
        """Put every replaced attribute back, newest first."""
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def span(self, module, attr: str, name, scope: str = "inherit",
             items=None, nbytes=None, on_result=None) -> None:
        """Record a span around every call of ``module.attr``.

        ``name`` is a string or ``f(args, kwargs) -> str``. ``scope`` says
        how the span gets its scenario id: ``scenario`` from a scenario in
        the arguments or the result, ``inherit`` from the thread's last
        scenario, ``dataset``/``command`` none (``command`` also becomes the
        fallback parent for other threads). ``items``/``nbytes`` are
        ``f(args, kwargs, result) -> int``; ``on_result(tracer, result)``
        may count outcomes.
        """
        fn = getattr(module, attr)
        tracer = self
        local = self._local

        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else tracer._command
            idx = next(tracer._ids)
            if scope in ("dataset", "command"):
                local.sid = None
            elif scope == "scenario":
                local.sid = _scenario_id(itertools.chain(args, kwargs.values()))
            if scope == "command":
                tracer._command = idx
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                if scope == "command":
                    tracer._command = None
            if scope == "scenario" and local.sid is None:  # synth: the result is the scenario
                local.sid = _scenario_id((result,))
            sid = getattr(local, "sid", None) if scope in ("scenario", "inherit") else None
            tracer.spans.append(Span(
                idx,
                name if isinstance(name, str) else name(args, kwargs),
                start, end, parent, sid,
                items(args, kwargs, result) if items else 0,
                nbytes(args, kwargs, result) if nbytes else 0,
            ))
            if on_result is not None:
                on_result(tracer, result)
            return result

        self.replace(module, attr, wrapper)

    def count_calls(self, module, attr: str, key: str, sample: bool = False) -> None:
        """Count calls of ``module.attr`` under ``key``; optionally keep their arguments."""
        fn = getattr(module, attr)
        tracer = self
        cap = self.SAMPLE_CAP

        def wrapper(*args, **kwargs):
            cell = tracer.cell()
            cell.counts[key] += 1
            if sample and not kwargs:
                kept = cell.samples[key]
                if len(kept) < cap:
                    kept.append(args)
            return fn(*args, **kwargs)

        self.replace(module, attr, wrapper)

    # -- counting ---------------------------------------------------------

    def cell(self) -> _Cell:
        c = getattr(self._local, "cell", None)
        if c is None:
            c = self._local.cell = _Cell()
            with self._lock:
                self._cells.append(c)
        return c

    def count(self, key: str, n: int = 1) -> None:
        self.cell().counts[key] += n

    def counts(self) -> Counter:
        total = Counter()
        for c in self._cells:
            total.update(c.counts)
        return total

    def samples(self, key: str) -> list[tuple]:
        out = []
        for c in self._cells:
            out.extend(c.samples.get(key, ()))
        return out[: self.SAMPLE_CAP]

    # -- output -------------------------------------------------------------

    def write(self, path) -> None:
        """One JSON array per span: idx, name, start, end, parent, sid, items, nbytes."""
        with open(path, "w", encoding="utf-8") as f:
            for s in sorted(self.spans, key=lambda s: s.idx):
                f.write(json.dumps([s.idx, s.name, round(s.start, 7), round(s.end, 7),
                                    s.parent, s.sid, s.items, s.nbytes]) + "\n")
