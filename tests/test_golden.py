"""Byte-level fingerprints of the pipeline's outputs on a fixed synth set.

A refactor must leave every output byte unchanged: the prompt template
fingerprint, the synthesized scenario file, both stub ``plan`` result files
and the ``export-finetune`` dataset. Update a hash here only for a change
that is meant to alter that output.
"""

import ast
import hashlib
from pathlib import Path

import lmplan
from lmplan import template_hash
from lmplan.cli import main

TEMPLATE_HASH = "68ef4e5eeb7c"
SCENARIOS_SHA256 = "31740805badcfc45549c383e8628d1a192ade1a62dcc16cedc3de13814277144"
PLAN_SHA256 = {
    "stub_replay_gt": "9bb1845e1e4f79034f44820746a6964b70d31677788086c923b7dc53c31f0aed",
    "stub_hypothetical": "5a6adcfb0ca1feb80e5500508f6a8fcbd06851969ed1d01ebd6b8d7683f0b625",
}
EXPORT_SHA256 = "5c88b7f5a11dee057d2d3a8b9993e7d31ab7e90e8480be1e1dae0351d4154d98"


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run(*argv) -> int:
    return main([str(a) for a in argv])


def test_template_hash():
    assert template_hash() == TEMPLATE_HASH


def test_pipeline_outputs_are_byte_identical(tmp_path, capsys):
    scen = tmp_path / "scenarios.json"
    assert run("synth", "--out", scen, "--count", 40, "--seed", 7) == 0
    assert sha256(scen) == SCENARIOS_SHA256
    for mode, want in PLAN_SHA256.items():
        out = tmp_path / f"{mode}.jsonl"
        assert run("plan", "--scenarios", scen, "--out", out, "--mode", mode) == 0
        assert sha256(out) == want, mode
    train = tmp_path / "train.jsonl"
    assert run("export-finetune", "--scenarios", scen, "--out", train) == 0
    assert sha256(train) == EXPORT_SHA256


def test_no_function_local_imports():
    # an import inside a function usually hides an import cycle
    package = Path(lmplan.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(fn):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    found.append(f"{path.name}:{node.lineno}")
    assert not found, found
