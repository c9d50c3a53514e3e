import importlib
import os


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
