"""Span self times, parent links and call counts."""

import threading
import types

import pytest

from stats import percentile, tail_percentile
from tracing import Span, Tracer, covered, self_times


def test_covered_merges_overlaps_and_clips():
    assert covered([(1, 3), (2, 5), (8, 12)], 0, 10) == 6  # [1,5] + [8,10]
    assert covered([], 0, 10) == 0
    assert covered([(11, 12), (-3, -1)], 0, 10) == 0
    assert covered([(0, 10), (2, 3)], 0, 10) == 10


def test_self_time_is_duration_minus_children_union():
    spans = [
        Span(0, "root", 0.0, 10.0, None, None),
        Span(1, "a", 1.0, 3.0, 0, None),
        Span(2, "b", 2.0, 5.0, 0, None),  # overlaps a: another thread
        Span(3, "c", 8.0, 12.0, 0, None),  # runs past the parent's end
        Span(4, "grandchild", 1.5, 2.5, 1, None),
    ]
    st = self_times(spans)
    assert st[0] == pytest.approx(10 - 4 - 2)
    assert st[1] == pytest.approx(2 - 1)
    assert st[2] == pytest.approx(3)
    assert st[4] == pytest.approx(1)


def _toy_module():
    mod = types.SimpleNamespace()

    class Scn:
        def __init__(self, sid):
            self.id, self.human_trajectory = sid, ()

    def inner(x):
        return x

    def per_scenario(s):
        return mod.inner(s.id)

    def command(items):
        return [mod.per_scenario(s) for s in items] + [mod.inner("after")]

    mod.Scn, mod.inner, mod.per_scenario, mod.command = Scn, inner, per_scenario, command
    return mod


def test_spans_link_parents_share_scenario_ids_and_uninstall():
    mod = _toy_module()
    original = mod.command
    t = Tracer()
    t.span(mod, "command", "cmd", "command")
    t.span(mod, "per_scenario", "scn", "scenario")
    t.span(mod, "inner", "inner")
    mod.command([mod.Scn("s1"), mod.Scn("s2")])
    t.uninstall()
    assert mod.command is original
    by_idx = {s.idx: s for s in t.spans}
    cmd = next(s for s in t.spans if s.name == "cmd")
    scn = [s for s in t.spans if s.name == "scn"]
    assert [s.sid for s in scn] == ["s1", "s2"] and all(s.parent == cmd.idx for s in scn)
    inner = [s for s in t.spans if s.name == "inner"]
    assert [by_idx[s.parent].name for s in inner] == ["scn", "scn", "cmd"]
    assert [s.sid for s in inner[:2]] == ["s1", "s2"]


def test_worker_thread_spans_take_the_open_command_as_parent():
    mod = _toy_module()
    t = Tracer()

    def threaded(items):
        th = threading.Thread(target=lambda: [mod.per_scenario(s) for s in items])
        th.start()
        th.join(timeout=10)
        assert not th.is_alive()

    mod.threaded = threaded
    t.span(mod, "threaded", "cmd", "command")
    t.span(mod, "per_scenario", "scn", "scenario")
    mod.threaded([mod.Scn("s1")])
    t.uninstall()
    cmd = next(s for s in t.spans if s.name == "cmd")
    assert next(s for s in t.spans if s.name == "scn").parent == cmd.idx


def test_counts_from_many_threads_add_up_and_samples_are_capped():
    mod = types.SimpleNamespace(f=lambda x: x)
    t = Tracer()
    t.SAMPLE_CAP = 100
    t.count_calls(mod, "f", "f", sample=True)
    threads = [threading.Thread(target=lambda: [mod.f(i) for i in range(1000)]) for _ in range(4)]
    for th in threads:
        th.start()
    for th in threads:
        th.join(timeout=10)
        assert not th.is_alive()
    t.uninstall()
    assert t.counts()["f"] == 4000
    assert len(t.samples("f")) == 100


def test_tail_percentile_leaves_ten_samples_beyond():
    assert tail_percentile(19) is None
    assert tail_percentile(20) == 50.0
    assert tail_percentile(100) == 90.0
    assert tail_percentile(1000) == 99.0
    assert percentile([1, 2, 3, 4], 50) == 2.5
