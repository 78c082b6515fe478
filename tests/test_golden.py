"""Byte-level fingerprints of the pipeline's outputs on a fixed synth set.

A refactor must leave every output byte unchanged: the prompt template
fingerprint, the synthesized scenario file, both stub ``plan`` result files,
the ``evaluate`` reports on each and the ``export-finetune`` dataset. Update
a hash here only for a change that is meant to alter that output.
"""

import ast
import hashlib
from collections import Counter
from itertools import takewhile
from pathlib import Path

import lmplan
from lmplan import template_hash
from lmplan.cli import main

TEMPLATE_HASH = "68ef4e5eeb7c"
SCENARIOS_SHA256 = "7270f0a07aead217c01ea80bf8edd8ebb9bb0b0ef6afe09e4634059abcd35bee"
PLAN_SHA256 = {
    "stub_replay_gt": "9bb1845e1e4f79034f44820746a6964b70d31677788086c923b7dc53c31f0aed",
    "stub_hypothetical": "5a6adcfb0ca1feb80e5500508f6a8fcbd06851969ed1d01ebd6b8d7683f0b625",
}
REPORT_SHA256 = {
    "stub_replay_gt": {
        "report.md": "79defa9a3cfde20d2b2e87f0648f552f1091dddeb4b7198ced411a7158525dbc",
        "report.csv": "24056992d1b0889b38e607d49e3bd039127ca10368f2edbeaec6650b42fea0bc",
    },
    "stub_hypothetical": {
        "report.md": "1df63055b324adda183b1cb6f206181d4a053ea0723458ad748fe4a6f560e56a",
        "report.csv": "3d5659e5bf65802560baee9fcc7675e9cfc3cc11901a12f162dfc85bd0bbd8da",
    },
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
        reports = tmp_path / f"{mode}_reports"
        assert run("evaluate", "--scenarios", scen, "--results", out, "--out-dir", reports) == 0
        for name, want_report in REPORT_SHA256[mode].items():
            assert sha256(reports / name) == want_report, (mode, name)
    train = tmp_path / "train.jsonl"
    assert run("export-finetune", "--scenarios", scen, "--out", train) == 0
    assert sha256(train) == EXPORT_SHA256


# the sources the AST checks below scan: the package and the shared test helpers
CHECKED_SOURCES = sorted(Path(lmplan.__file__).parent.glob("*.py")) + [
    Path(__file__).parent / "mockserver.py",
    Path(__file__).parent / "helpers.py",
]


def test_no_function_local_imports():
    # an import inside a function usually hides an import cycle
    found = []
    for path in CHECKED_SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(fn):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    found.append(f"{path.name}:{node.lineno}")
    assert not found, found


def test_no_function_takes_a_parameter_it_never_reads():
    # a parameter no body reads is left over from a removed feature; a name
    # starting with "_", self and *args are exempt
    found = []
    for path in CHECKED_SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            a = fn.args
            params = a.posonlyargs + a.args + a.kwonlyargs + ([a.kwarg] if a.kwarg else [])
            read = {
                node.id for node in ast.walk(fn)
                if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)
            }
            found += [
                f"{path.name}:{fn.lineno} {p.arg}" for p in params
                if p.arg != "self" and not p.arg.startswith("_") and p.arg not in read
            ]
    assert not found, found


def test_no_function_is_memoized():
    # a functools.cache or lru_cache memo outlives every call: hidden state
    # that threads share, holding whatever it was last asked about
    found = []
    for path in CHECKED_SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for d in fn.decorator_list:
                target = d.func if isinstance(d, ast.Call) else d
                name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
                if name in ("cache", "lru_cache"):
                    found.append(f"{path.name}:{d.lineno}")
    assert not found, found


def test_no_parameter_always_gets_one_constant():
    # a parameter that every call fills with the same upper-case constant is
    # a setting with one value in use: the function should read the constant
    # itself. Checked for each function name defined once, over the calls
    # that name it; a bound method's self or cls is not counted
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in CHECKED_SOURCES]
    defs = {}
    for tree in trees:
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defs.setdefault(fn.name, []).append(fn.args)
    calls, passed = Counter(), {}
    for tree in trees:
        for call in ast.walk(tree):
            f = getattr(call, "func", None)
            name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
            if not isinstance(call, ast.Call) or len(defs.get(name, ())) != 1:
                continue
            a = defs[name][0]
            positional = [p.arg for p in a.posonlyargs + a.args]
            if positional[:1] in (["self"], ["cls"]):
                positional = positional[1:]
            calls[name] += 1
            args = takewhile(lambda v: not isinstance(v, ast.Starred), call.args)
            for param, v in [*zip(positional, args), *((k.arg, k.value) for k in call.keywords)]:
                const = v.id if isinstance(v, ast.Name) else getattr(v, "attr", "")
                passed.setdefault((name, param), []).append(const if const.isupper() else "")
    found = [
        f"{name}({param}) always {values[0]}"
        for (name, param), values in passed.items()
        if param and values[0] and values == [values[0]] * calls[name]
    ]
    assert not found, found


def test_no_defaulted_parameter_goes_unpassed():
    # a defaulted parameter of a package function that no call passes is a
    # setting with one value in use: the function should use that value
    # itself. Calls are matched by name over the package, the tests, the
    # demos and the benchmark; a call with *args or **kwargs may pass any
    # parameter; a method's self or cls is not counted; dunder methods are
    # exempt
    root = Path(__file__).parent.parent
    package = sorted(Path(lmplan.__file__).parent.glob("*.py"))
    callers = package + sorted(
        p for d in ("tests", "demos", "bench") for p in (root / d).rglob("*.py")
    )
    defaulted = {}  # (file, line, name) -> [(position or None, parameter)]
    for path in package:
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if fn.name.startswith("__") and fn.name.endswith("__"):
                continue
            a = fn.args
            positional = a.posonlyargs + a.args
            if positional[:1] and positional[0].arg in ("self", "cls"):
                positional = positional[1:]
            first = len(positional) - len(a.defaults)
            params = [(i, p.arg) for i, p in enumerate(positional) if i >= first]
            params += [(None, p.arg) for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
            if params:
                defaulted[(path.name, fn.lineno, fn.name)] = params
    passed = set()  # (name, parameter) and (name, position)
    for path in callers:
        for call in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            f = getattr(call, "func", None)
            name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
            if not isinstance(call, ast.Call) or name is None:
                continue
            if any(isinstance(v, ast.Starred) for v in call.args):
                passed.add((name, "*"))
            passed.update((name, i) for i in range(len(call.args)))
            passed.update((name, k.arg or "**") for k in call.keywords)
    found = [
        f"{file}:{line} {name}({param})"
        for (file, line, name), params in defaulted.items()
        for i, param in params
        if not {(name, param), (name, i), (name, "**")} & passed
        and not (i is not None and (name, "*") in passed)
    ]
    assert not found, found
