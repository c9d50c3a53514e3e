import ast
import importlib
import inspect
import os

import pytest

import hplus
from hplus import cli

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def test_every_traced_function_resolves(monkeypatch):
    # perfbench/tracing.py looks hplus functions up by name; a rename would
    # otherwise surface only when perfbench/run.py --trace 1 runs
    monkeypatch.syspath_prepend(PERFBENCH)
    tracing = importlib.import_module("tracing")
    for module, function, *_ in tracing.TRACED:
        assert callable(getattr(importlib.import_module(f"hplus.{module}"), function)), (
            module,
            function,
        )


def test_every_counter_binds_the_traced_arguments(monkeypatch):
    # a counter is called as counter(tr, *args, **kwargs) with the traced
    # function's own arguments; a parameter added, removed or reordered in
    # hplus would otherwise surface only when perfbench/run.py --trace 1 runs
    monkeypatch.syspath_prepend(PERFBENCH)
    tracing = importlib.import_module("tracing")
    rows = [row for row in tracing.TRACED if row[3] is not None or row[4] is not None]
    assert rows
    positional = (inspect.Parameter.POSITIONAL_ONLY, inspect.Parameter.POSITIONAL_OR_KEYWORD)
    for module, function, _, *counters in rows:
        params = inspect.signature(getattr(importlib.import_module(f"hplus.{module}"), function))
        required = [
            p.name for p in params.parameters.values()
            if p.kind in positional and p.default is inspect.Parameter.empty
        ]
        for counter in counters:
            if counter is None:
                continue
            try:
                inspect.signature(counter).bind(None, *required)
            except TypeError as e:
                pytest.fail(f"{module}.{function}{params}: counter does not bind: {e}")


def _names_read(path: str):
    """Each hplus name the file reads: ``from hplus... import`` names, and
    attribute chains such as ``hplus._kernels.BACKEND`` or ``cli.main``
    rooted at the names ``hplus`` and ``cli``."""
    with open(path) as f:
        tree = ast.parse(f.read())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "hplus":
            for alias in node.names:
                yield importlib.import_module(node.module), [alias.name]
        chain = []
        while isinstance(node, ast.Attribute):
            chain.append(node.attr)
            node = node.value
        if chain and isinstance(node, ast.Name) and node.id in ("hplus", "cli"):
            yield {"hplus": hplus, "cli": cli}[node.id], chain[::-1]


@pytest.mark.parametrize("script", ["worker.py", "workloads.py"])
def test_every_name_the_benchmark_reads_resolves(script):
    # the benchmark's worker and workloads call into hplus by these names; a
    # deleted one would otherwise surface only when the benchmark runs
    names = list(_names_read(os.path.join(PERFBENCH, script)))
    assert names
    for root, chain in names:
        obj = root
        for attr in chain:
            assert hasattr(obj, attr), (script, root.__name__, ".".join(chain))
            obj = getattr(obj, attr)
