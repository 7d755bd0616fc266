"""The library surface that the benchmark in ``perfbench/`` calls and traces.

The benchmark's files are not edited together with the library, so a renamed
entry point or a changed signature would otherwise show only when the
benchmark runs. These tests read ``perfbench/`` as it stands and check it
against today's ``dgbo``.
"""

import ast
import importlib
import importlib.util
import inspect
from collections import defaultdict
from pathlib import Path

import pytest

import dgbo

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _dotted(node):
    """``a.b.c`` of an attribute chain on a name, or None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return ".".join([node.id, *reversed(parts)]) if isinstance(node, ast.Name) else None


def _dgbo_calls():
    """(dotted name, positional arguments, keywords, line) of every ``dgbo.…(…)``
    call in ``perfbench/workloads.py``, as AST nodes."""
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    calls = []
    for node in ast.walk(tree):
        name = _dotted(node.func) if isinstance(node, ast.Call) else None
        if name and name.startswith("dgbo."):
            calls.append((name, node.args, node.keywords, node.lineno))
    return sorted(calls, key=lambda c: c[3])


def _resolve(dotted):
    """The object named ``dotted`` (``dgbo.…``), with the modules workloads.py imports loaded."""
    obj = importlib.import_module("dgbo")
    importlib.import_module("dgbo.cli")
    for part in dotted.split(".")[1:]:
        obj = getattr(obj, part)
    return obj


def test_every_traced_entry_point_resolves():
    entry_points = _load_tracing().ENTRY_POINTS
    assert entry_points
    missing = []
    for _span, module_name, path, _hook in entry_points:
        obj = importlib.import_module(module_name)
        for part in path.split("."):
            obj = getattr(obj, part, None)
        if not callable(obj):
            missing.append(f"{module_name}.{path}")
    assert missing == []


CALLS = _dgbo_calls()


def test_the_workloads_call_the_library():
    names = {name for name, *_ in CALLS}
    assert {"dgbo.cli.blowup_scan", "dgbo.continuation_ladder", "dgbo.cli.main"} <= names


@pytest.mark.parametrize("name, args, keywords, line", CALLS,
                         ids=[f"{name}@{line}" for name, *_, line in CALLS])
def test_each_workload_call_binds_to_the_signature(name, args, keywords, line):
    # a dropped parameter or default that the benchmark still passes or relies on fails here
    assert not any(isinstance(a, ast.Starred) for a in args)
    assert all(k.arg is not None for k in keywords)
    signature = inspect.signature(_resolve(name))
    signature.bind(*[None] * len(args), **{k.arg: None for k in keywords})


def test_each_tracer_hook_reads_its_entry_point_result():
    # the hooks read attributes of the returned values (assemble's .matrix, the
    # .iterations of a ground state and of a decomposition), which a signature
    # check cannot see; run each once on a real return value
    gs = dgbo.solve_ground_state(2.0, dgbo.Grid(25.0, 256))
    op = dgbo.assemble(gs)
    results = {
        "solve_ground_state": gs,
        "assemble": op,
        "decompose": dgbo.decompose(gs.values, gs, dgbo.spectrum(op).chi0),
    }
    hooks = {path: hook for _span, _module, path, hook in _load_tracing().ENTRY_POINTS if hook}
    assert set(hooks) == set(results)
    counters = defaultdict(float)
    for path, hook in hooks.items():
        hook(counters, results[path])
    assert all(v > 0 for v in counters.values()) and len(counters) == 4
