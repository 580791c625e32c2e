"""Only ``operators.py`` builds the matrix of a map or the Hermitian coordinates.

Every other module takes its superoperator matrices, Hermitian coordinates
and Kraus-family checks from ``operators.py``, so the vectorization
convention has one owner.  A ``kron`` call anywhere else would be a second
construction.  So would a use of ``hermitian_basis`` or of the coordinate
frame's gather (``_frame``, ``triu_indices``, the factor sqrt(1/2)): the
other modules convert through ``hermitian_coordinates``,
``from_hermitian_coordinates`` and ``hermitian_coordinate_matrix``.  The
fixed spaces come from one SVD, so no module calls ``schur`` or
``solve_sylvester``.  One centred restriction and resolvent in ``spectral.py``
serve channels and classical chains, so no other module calls ``solve`` or
``_null_space``.  The real matrix of a form comes from
``hermitian_coordinate_matrix`` of its operators, and KMS weighting is the
conjugation of a form's operators (``kms_conjugated``): no module names the
complex builders it replaced, no module, not even ``operators.py``, names the
KMS Gram matrices (``kms_weight_matrix``, ``kms_isometrized_matrix``), and outside
``operators.py`` only the irreducibility vote's fallback, for channels
near reducibility or not trace preserving, builds the complex matrix with
``superoperator_matrix``.  That fallback and primitivity's
``_peripheral_is_one`` are the only general eigensolves (``eigvals``), so the
bound path takes none.
The modules are read with ``ast``, so docstrings do not count; nothing is
imported.

The library and its command line need numpy only: no module imports scipy
when it is imported, checked by ``ast`` and by importing ``qmcbounds.cli``
in a fresh interpreter.  Code that needs scipy imports it inside the
function that uses it.
"""

import ast
import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "qmcbounds"


def other_modules():
    """(file name, ast node) of every node outside ``operators.py``."""
    for path in sorted(SRC.glob("*.py")):
        if path.name != "operators.py":
            for node in ast.walk(ast.parse(path.read_text())):
                yield path.name, node


def named(node) -> str | None:
    """The name a name, attribute or import alias node names, or None."""
    return (node.id if isinstance(node, ast.Name) else node.attr
            if isinstance(node, ast.Attribute) else node.name
            if isinstance(node, ast.alias) else None)


def called(node) -> str:
    """The name a call node calls, or ""."""
    if not isinstance(node, ast.Call):
        return ""
    func = node.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")


def test_only_operators_calls_kron():
    calls = [f"{name}:{node.lineno}" for name, node in other_modules() if called(node) == "kron"]
    assert calls == []


def test_only_operators_builds_hermitian_coordinates():
    frame = {"hermitian_basis", "_frame", "triu_indices"}
    found = []
    for name, node in other_modules():
        used = named(node)
        if used in frame:
            found.append(f"{name}:{node.lineno if hasattr(node, 'lineno') else '?'} {used}")
        if called(node) == "sqrt" and node.args and isinstance(node.args[0], ast.Constant) \
                and node.args[0].value in (0.5, 2):
            found.append(f"{name}:{node.lineno} sqrt({node.args[0].value})")
    assert found == []


def test_only_operators_names_the_kms_gram_matrix():
    """Not even ``operators.py`` names the KMS Gram matrices any more."""
    gram = {"kms_weight_matrix", "kms_isometrized_matrix"}
    found = [f"{path.name}:{node.lineno if hasattr(node, 'lineno') else '?'}"
             for path in sorted(SRC.glob("*.py")) for node in ast.walk(ast.parse(path.read_text()))
             if (named(node) or getattr(node, "name", None)) in gram]
    assert found == []


def test_no_module_calls_schur_or_sylvester():
    found = [f"{path.name}:{node.lineno} {called(node)}" for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if called(node) in ("schur", "solve_sylvester")]
    assert found == []


def test_only_spectral_restricts_and_solves():
    found = [f"{path.name}:{node.lineno} {called(node)}" for path in sorted(SRC.glob("*.py"))
             if path.name != "spectral.py" for node in ast.walk(ast.parse(path.read_text()))
             if called(node) in ("solve", "_null_space")]
    assert found == []


def test_no_module_names_a_deleted_builder():
    deleted = {"kraus_superoperator_matrix", "generator_superoperator_matrix",
               "gkls_superoperator_matrix"}
    found = [f"{path.name}:{node.lineno if hasattr(node, 'lineno') else '?'}"
             for path in sorted(SRC.glob("*.py")) for node in ast.walk(ast.parse(path.read_text()))
             if (named(node) or getattr(node, "name", None)) in deleted]
    assert found == []


def test_only_the_vote_calls_superoperator_matrix():
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "operators.py":
            continue
        tree = ast.parse(path.read_text())
        vote = {id(node) for function in ast.walk(tree)
                if isinstance(function, ast.FunctionDef) and path.name == "spectral.py"
                and function.name == "is_irreducible" for node in ast.walk(function)}
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if called(node) == "superoperator_matrix" and id(node) not in vote]
    assert found == []


def test_no_general_eigensolve_outside_the_in_band_vote_and_primitivity():
    tree = ast.parse((SRC / "spectral.py").read_text())
    functions = {node.name: node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    in_band = [node for node in ast.walk(functions["is_irreducible"]) if isinstance(node, ast.If)
               and ast.unparse(node.test) == "multiplicity is None"]
    assert len(in_band) == 1
    allowed = {id(node) for root in in_band[0].body + [functions["_peripheral_is_one"]]
               for node in ast.walk(root)}
    calls = [(path.name, node) for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(tree if path.name == "spectral.py" else ast.parse(path.read_text()))
             if called(node) == "eigvals"]
    assert [f"{name}:{node.lineno}" for name, node in calls if id(node) not in allowed] == []
    assert len(calls) == 2


def module_level(node):
    """The nodes that run when a module is imported: all but function bodies."""
    for child in ast.iter_child_nodes(node):
        if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            yield child
            yield from module_level(child)


def test_no_module_imports_scipy_at_module_level():
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in module_level(ast.parse(path.read_text())):
            modules = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                       else [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
            found += [f"{path.name}:{node.lineno} {module}" for module in modules
                      if module.split(".")[0] == "scipy"]
    assert found == []


def test_cli_import_loads_no_scipy():
    code = ("import sys, qmcbounds.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(SRC.parent)), timeout=60,
                          check=True)
    assert done.stdout.strip() == "[]"
