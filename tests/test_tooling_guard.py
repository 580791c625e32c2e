"""perfbench's tracer wraps library functions by (module, name); each must exist.

The tracer rebinds the functions it times, imports names from ``qmcbounds``
and reads call arguments by parameter name, so a rename in ``qmcbounds``
would otherwise surface only when a benchmark runs with tracing on.  The
layer table, the imports and the counters are read from the tracer's source
with ``ast``; nothing is imported from ``perfbench``.
"""

import ast
import importlib
import inspect
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


def _install() -> ast.FunctionDef:
    return next(node for node in ast.walk(ast.parse(TRACING.read_text()))
                if isinstance(node, ast.FunctionDef) and node.name == "install")


def test_tracer_imports_resolve():
    imports = [node for node in ast.walk(_install()) if isinstance(node, ast.ImportFrom)]
    assert imports
    missing = [f"{node.module}.{alias.name}" for node in imports for alias in node.names
               if not hasattr(importlib.import_module(node.module), alias.name)]
    assert missing == []


def test_counted_arguments_are_parameters():
    """Each ``a["name"]`` a counter reads names a parameter of the function it counts."""
    install = _install()
    counters = {node.name: node for node in install.body if isinstance(node, ast.FunctionDef)}
    table = next(node.value for node in install.body if isinstance(node, ast.Assign)
                 and any(isinstance(t, ast.Name) and t.id == "counters" for t in node.targets))
    module_of = {name: module for _, module, name in _layers()}
    read, unknown = set(), []
    for key, value in zip(table.keys, table.values):
        fn_name, counter = ast.literal_eval(key), counters[value.id]
        arguments = counter.args.args[1].arg
        names = {node.slice.value for node in ast.walk(counter)
                 if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name)
                 and node.value.id == arguments}
        fn = getattr(importlib.import_module(f"qmcbounds.{module_of[fn_name]}"), fn_name)
        unknown += [f"{fn_name}.{name}" for name in sorted(names)
                    if name not in inspect.signature(fn).parameters]
        read |= names
    assert read and unknown == []
