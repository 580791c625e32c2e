"""perfbench's tracer wraps library functions by (module, name); each must exist.

The tracer rebinds the functions it times, so a rename in ``qmcbounds`` would
otherwise surface only when a benchmark runs with tracing on.  The layer
table is read from the tracer's source with ``ast``; nothing is imported from
``perfbench``.
"""

import ast
import importlib
import pathlib

TRACING = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _layers() -> list:
    tree = ast.parse(TRACING.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no LAYERS table in {TRACING}")


def test_every_traced_function_resolves():
    layers = _layers()
    assert layers
    missing = [f"qmcbounds.{module}.{name}" for _, module, name in layers
               if not callable(getattr(importlib.import_module(f"qmcbounds.{module}"), name,
                                       None))]
    assert missing == []
