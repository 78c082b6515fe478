"""Each workload's output check passes on real output and rejects a corrupted one."""

import json

import pytest

import workloads


class SmallOffline(workloads.OfflineEval):
    n = 12
    planned_per_pass = results_per_pass = 2 * n


class SmallFinetune(workloads.FinetuneExport):
    n = 8
    results_per_pass = n


class SmallRemote(workloads.RemotePlan):
    n = 50
    planned_per_pass = results_per_pass = n


def _rewrite_lines(path, edit):
    lines = [json.loads(x) for x in path.read_text(encoding="utf-8").splitlines()]
    lines = edit(lines)
    path.write_text("".join(json.dumps(x) + "\n" for x in lines), encoding="utf-8")


@pytest.fixture()
def offline(tmp_path):
    wl = SmallOffline(tmp_path, seed=3)
    wl.setup()
    wl.run_pass()
    assert wl.check() == ([], 0)
    return wl


def test_offline_rejects_a_changed_byte_in_a_later_pass(offline):
    o = offline.outputs()
    o["gt"].write_bytes(o["gt"].read_bytes().replace(b'"clean"', b'"clean" ', 1))
    problems, _ = offline.check()
    assert any("first pass" in p for p in problems)


def test_offline_rejects_unclean_hypothetical_and_missing_lines(offline):
    o = offline.outputs()

    def unclean(lines):
        lines[0]["parse_quality"] = "recovered"
        return lines

    _rewrite_lines(o["hypo"], unclean)
    _rewrite_lines(o["gt"], lambda lines: lines[1:])
    problems = workloads.check_offline(o["gt"], o["hypo"], o["gt_report"], offline.ids)
    assert any("not clean" in p for p in problems)
    assert any("replay results" in p for p in problems)


def test_offline_rejects_a_nonzero_replay_score(offline):
    o = offline.outputs()
    csv = o["gt_report"] / "report.csv"
    rows = csv.read_text(encoding="utf-8").splitlines()
    cells = rows[1].split(",")
    cells[3] = "0.010000"
    rows[1] = ",".join(cells)
    csv.write_text("\n".join(rows) + "\n", encoding="utf-8")
    md = o["gt_report"] / "report.md"
    md.write_text(md.read_text().replace("parse failures 0,", "parse failures 1,"))
    problems = workloads.check_offline(o["gt"], o["hypo"], o["gt_report"], offline.ids)
    assert any("non-zero" in p for p in problems)
    assert any("parse failures" in p for p in problems)


@pytest.fixture()
def finetune(tmp_path):
    wl = SmallFinetune(tmp_path, seed=2)
    wl.setup()
    wl.run_pass()
    assert wl.check() == ([], 0)
    return wl


def test_finetune_rejects_a_dropped_record(finetune):
    lines = finetune.out.read_text(encoding="utf-8").splitlines(keepends=True)
    finetune.out.write_text("".join(lines[:-1]), encoding="utf-8")
    problems, failed = finetune.check()
    assert any("holds 7 records" in p for p in problems) and failed == finetune.n


def test_finetune_rejects_a_foreign_template_hash(finetune):
    meta_path = finetune.out.with_name(finetune.out.name + ".meta.json")
    meta = json.loads(meta_path.read_text())
    meta["template_hash"] = "000000000000"
    meta_path.write_text(json.dumps(meta))
    assert any("template_hash" in p for p in finetune.check()[0])


def test_finetune_rejects_changed_bytes_and_bad_shape(finetune):
    text = finetune.out.read_text(encoding="utf-8")
    finetune.out.write_text(text.replace('"role":"user"', '"role":"user" ', 1), encoding="utf-8")
    assert any("reference" in p for p in finetune.check()[0])
    finetune.out.write_text(text.replace('"assistant"', '"bot"', 1), encoding="utf-8")
    assert any("does not load back" in p for p in finetune.check()[0])


@pytest.fixture(scope="module")
def remote(tmp_path_factory):
    wl = SmallRemote(tmp_path_factory.mktemp("remote"), seed=4)
    wl.setup()
    try:
        wl.run_pass()
        yield wl
    finally:
        wl.close()


def test_remote_output_passes_and_counts_the_garbled_as_failed(remote):
    problems, failed = remote.check()
    assert problems == []
    assert failed == len(remote.garbled_ids) == 5


@pytest.mark.parametrize("corruption", ["drop", "trajectory", "extra_failure"])
def test_remote_rejects_corrupted_results(remote, tmp_path, corruption):
    lines = workloads.read_results(remote.out)
    clean = next(i for i, r in enumerate(lines) if r["scenario_id"] not in remote.garbled_ids)
    if corruption == "drop":
        lines.pop(clean)
    elif corruption == "trajectory":
        lines[clean]["trajectory"][0][1] += 0.01
    else:
        lines[clean]["parse_quality"], lines[clean]["trajectory"] = "failed", None
    out = tmp_path / "results.jsonl"
    out.write_text("".join(json.dumps(r) + "\n" for r in lines), encoding="utf-8")
    assert workloads.check_remote(out, remote.expected, remote.garbled_ids)
