"""Byte-level fingerprints of the pipeline's outputs on a fixed synth set.

A refactor must leave every output byte unchanged: the prompt template
fingerprint, the synthesized scenario file, both stub ``plan`` result files,
the ``evaluate`` reports on each and, with some plans failed, under each
fallback policy and collision mask, the ``export-finetune`` dataset and the
request bodies remote ``plan`` sends. Update a hash here only for a change
that is meant to alter that output. The AST checks after the pins hold the
package's design rules.
"""

import ast
import hashlib
import json
import sys
from collections import Counter
from itertools import takewhile
from pathlib import Path

import lmplan
from lmplan import load_scenarios, template_hash
from lmplan.cli import main
from mockserver import MockChatServer, echo_target_responder

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
# evaluate's reports, per flag set, on the stub_hypothetical results with
# every fifth plan failed and one line for an id the scenarios lack. The
# human paths of this set overlap no box, so the collision mask moves only
# the config hash
POLICY_REPORT_SHA256 = {
    (): {
        "report.md": "be508b1779e9fffbc855a8eec41dac1100f6ee2ca6a4d9ff5f0a4c5220f832a1",
        "report.csv": "0439b6a843bb3a2cd666eb4564ecfaf5f711e4897e8f5e6522e781d95e5cf870",
    },
    ("--fallback", "exclude"): {
        "report.md": "c36f9d51ce3a66cf14f3c871bf23408bba6d42885494c32768407e5efdde2b03",
        "report.csv": "02617015820c54e4d892e5f8da39e1a9f9ee06d40aa8f92b02773180bb4ac4eb",
    },
    ("--exclude-gt-collisions",): {
        "report.md": "b79f5cb7fdac7b474baae88d0d6331ad8981fa1812083830be73e7177354710c",
        "report.csv": "0439b6a843bb3a2cd666eb4564ecfaf5f711e4897e8f5e6522e781d95e5cf870",
    },
    ("--fallback", "exclude", "--exclude-gt-collisions"): {
        "report.md": "b815431f430137fa777ad1c1d446d580e1f6985f593472ef480d7bb858647161",
        "report.csv": "02617015820c54e4d892e5f8da39e1a9f9ee06d40aa8f92b02773180bb4ac4eb",
    },
}
EXPORT_SHA256 = "5c88b7f5a11dee057d2d3a8b9993e7d31ab7e90e8480be1e1dae0351d4154d98"
# over the parsed request bodies, so neither thread order nor the transport's
# JSON spelling moves it
REQUEST_SHA256 = "6fda879d7ce692f9556350d985e73f109a161cae3a0eda2d04f54ba7a700b83b"


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


def test_fallback_and_mask_reports_are_byte_identical(tmp_path, capsys):
    scen, full = tmp_path / "scenarios.json", tmp_path / "full.jsonl"
    assert run("synth", "--out", scen, "--count", 40, "--seed", 7) == 0
    assert run("plan", "--scenarios", scen, "--out", full, "--mode", "stub_hypothetical") == 0
    rows = [json.loads(line) for line in full.read_text(encoding="utf-8").splitlines()]
    for row in rows[::5]:  # every archetype, as synth deals them round-robin
        row.update(parse_quality="failed", trajectory=None)
    rows.append({"scenario_id": "not-in-the-scenarios", "parse_quality": "clean", "trajectory": None})
    results = tmp_path / "results.jsonl"
    results.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
    for flags, want in POLICY_REPORT_SHA256.items():
        out = tmp_path / ("-".join(flags) or "default")
        assert run("evaluate", "--scenarios", scen, "--results", results, "--out-dir", out,
                   *flags) == 0
        assert {name: sha256(out / name) for name in want} == want, flags


def test_remote_plan_requests_are_byte_identical(tmp_path, api_key_env):
    scen, pool = tmp_path / "scenarios.json", tmp_path / "exemplars.json"
    assert run("synth", "--out", scen, "--count", 12, "--seed", 7) == 0
    assert run("synth", "--out", pool, "--count", 2, "--seed", 100) == 0
    answer = echo_target_responder(load_scenarios(scen))
    bodies = []

    def respond(body):
        bodies.append(json.dumps(body, sort_keys=True, ensure_ascii=False, separators=(",", ":")))
        return answer(body)

    with MockChatServer(respond) as srv:
        assert run("plan", "--scenarios", scen, "--out", tmp_path / "r.jsonl",
                   "--mode", "remote", "--endpoint", srv.url, "--backoff", 0,
                   "--exemplars", 2, "--exemplar-scenarios", pool) == 0
    assert len(bodies) == 12
    blob = "".join(line + "\n" for line in sorted(bodies))
    assert hashlib.sha256(blob.encode("utf-8")).hexdigest() == REQUEST_SHA256


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


def _is_record(cls: ast.ClassDef) -> bool:
    """Whether ``cls`` is decorated as a dataclass or subclasses ``NamedTuple``."""
    def last_name(node):  # dataclasses.dataclass(...) -> "dataclass"
        return ast.unparse(node.func if isinstance(node, ast.Call) else node).rsplit(".", 1)[-1]

    return "dataclass" in map(last_name, cls.decorator_list) or "NamedTuple" in map(
        last_name, cls.bases
    )


def test_no_parameter_always_gets_one_constant():
    # a parameter, or a field of a dataclass or NamedTuple, that every call
    # or construction fills with the same upper-case constant is a setting
    # with one value in use: the function or record should read the constant
    # itself. Checked for each function or record name defined once, over
    # the calls that name it; a bound method's self or cls is not counted
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in CHECKED_SOURCES]
    defs = {}  # name -> [positional parameter or field names], one list per definition
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                positional = [p.arg for p in node.args.posonlyargs + node.args.args]
                if positional[:1] in (["self"], ["cls"]):
                    positional = positional[1:]
                defs.setdefault(node.name, []).append(positional)
            elif isinstance(node, ast.ClassDef) and _is_record(node):
                fields = [
                    stmt.target.id for stmt in node.body
                    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
                ]
                defs.setdefault(node.name, []).append(fields)
    calls, passed = Counter(), {}
    for tree in trees:
        for call in ast.walk(tree):
            f = getattr(call, "func", None)
            name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
            if not isinstance(call, ast.Call) or len(defs.get(name, ())) != 1:
                continue
            positional = defs[name][0]
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


def _returns(fn):
    """The ``return`` statements of ``fn``'s own body, not of functions nested in it."""
    stack = list(ast.iter_child_nodes(fn))
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Return):
            yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            stack.extend(ast.iter_child_nodes(node))


def test_commands_return_0_or_1_and_main_alone_reports_bad_input():
    # exit 2 has one path: a command raises on bad input, and main writes
    # the "lmplan: error:" line and returns 2
    cli = Path(lmplan.__file__).parent / "cli.py"
    found = []
    for fn in ast.parse(cli.read_text(encoding="utf-8")).body:
        if not (isinstance(fn, ast.FunctionDef) and fn.name.startswith("cmd_")):
            continue
        if not isinstance(fn.body[-1], ast.Return):
            found.append(f"{fn.name}: falls off its end")
        found += [
            f"{fn.name}:{r.lineno}" for r in _returns(fn)
            if not (isinstance(r.value, ast.Constant) and type(r.value.value) is int
                    and r.value.value in (0, 1))
        ]
    assert not found, found
    package = Path(lmplan.__file__).parent.rglob("*.py")
    assert sum(p.read_text(encoding="utf-8").count("lmplan: error:") for p in package) == 1


def test_one_helper_owns_the_collector():
    # the collector is process-wide state: one function pauses it and puts
    # it back, so no two places can disagree on how it is left
    found = set()

    def visit(node, module, where):
        """Add to ``found`` the innermost function around each use of ``gc``."""
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        uses_gc = (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                   and node.value.id == "gc")
        if uses_gc or (isinstance(node, ast.ImportFrom) and node.module == "gc"):
            found.add(f"{module}:{where}")
        for child in ast.iter_child_nodes(node):
            visit(child, module, where)

    for path in Path(lmplan.__file__).parent.glob("*.py"):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.name, "<module>")
    assert found == {"scenario.py:collector_paused"}, sorted(found)


def test_the_package_imports_only_the_stdlib_itself_and_requests_in_send():
    # the transport seam: requests is the one third-party import, and only
    # backend._send names it, so swapping the transport rewrites one body
    found = []
    for path in sorted(Path(lmplan.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                modules = [node.module]
            else:
                continue
            found += [
                f"{path.name}:{node.lineno} {m}" for m in modules
                if m.partition(".")[0] not in sys.stdlib_module_names | {"lmplan"}
                and (m, path.name) != ("requests", "backend.py")
            ]
        inside_send = {
            id(node) for fn in tree.body if path.name == "backend.py"
            and isinstance(fn, ast.FunctionDef) and fn.name == "_send" for node in ast.walk(fn)
        }
        found += [
            f"{path.name}:{node.lineno} names requests" for node in ast.walk(tree)
            if isinstance(node, ast.Name) and node.id == "requests" and id(node) not in inside_send
        ]
    assert not found, found
