"""Every name ``qmcbounds`` exports has a caller outside the tests.

A name counts as used when it appears as a name, an attribute or an import
alias in a library module other than ``__init__.py`` (its own module
counts), in ``demos/`` or ``tools/``, or in perfbench's ``LAYERS`` table of
traced functions.  Docstrings do not count.  An export that only its own
tests call is either a duplicate to delete or a reference that belongs in
``tests/``.  The sources are read with ``ast``; nothing is imported.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "qmcbounds"
TRACING = ROOT / "perfbench" / "tracing.py"
# the paper's Poisson equation, checked by the acceptance suite
ALLOWED = {"poisson_solve"}


def _exports() -> set:
    tree = ast.parse((SRC / "__init__.py").read_text())
    return {alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def _used_names(path: pathlib.Path) -> set:
    used = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name)
    return used


def _traced_names() -> set:
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets):
            return {name for _, _, name in ast.literal_eval(node.value)}
    raise AssertionError(f"no LAYERS table in {TRACING}")


def test_every_export_has_a_caller_outside_the_tests():
    programs = [p for p in SRC.glob("*.py") if p.name != "__init__.py"]
    programs += [*(ROOT / "demos").glob("*.py"), *(ROOT / "tools").glob("*.py")]
    used = _traced_names().union(*(_used_names(path) for path in programs))
    assert sorted(_exports() - used - ALLOWED) == []
