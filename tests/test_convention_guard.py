"""Only ``operators.py`` builds the matrix of a map.

Every other module takes its superoperator matrices, Hermitian coordinates
and Kraus-family checks from ``operators.py``, so the vectorization
convention has one owner.  A ``kron`` call anywhere else would be a second
construction.  The modules are read with ``ast``; nothing is imported.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "qmcbounds"


def test_only_operators_calls_kron():
    calls = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "operators.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
                if name == "kron":
                    calls.append(f"{path.name}:{node.lineno}")
    assert calls == []
