"""No tolerance, seed or size knob creeps back: each is a module constant unless
a second value is in use or a test needs it to reach a path the default does not."""

import ast
import pathlib
import re

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "qmcbounds"
KNOB = re.compile(r"((.*_)?tol(_.*)?|rcond|z|max_denominator|restarts|seed|chunk_size"
                  r"|budget|exact_limit)$")
ALLOWED = {
    "KrausChannel.__init__.tol", "load_model.tol_channel", "is_selfadjoint.tol",
    "nondemolition_channel.seed",  # a fixture's seed picks the model: an input
}


def test_no_defaulted_knob_outside_the_allow_list():
    found = set()
    for tree in (ast.parse(path.read_text()) for path in SRC.glob("*.py")):
        owner = {f: f"{c.name}." for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
                 for f in c.body}
        for fn in (n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)):
            a = fn.args
            positional = a.posonlyargs + a.args
            defaulted = positional[len(positional) - len(a.defaults):] + [
                arg for arg, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
            found |= {f"{owner.get(fn, '')}{fn.name}.{arg.arg}" for arg in defaulted
                      if KNOB.match(arg.arg)}
    assert found == ALLOWED
