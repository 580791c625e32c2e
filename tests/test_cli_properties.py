"""Property test: every fuzzed grid ends in a documented exit code and a NaN-free report."""
import contextlib
import io
import json
import os

from hypothesis import given, settings, strategies as st

from qmcbounds import cli

from conftest import reject_constant

MODELS = os.path.join(os.path.dirname(__file__), "..", "models")
SPECIAL = st.sampled_from(["0", "-0", "-1", "nan", "inf", "-inf", ""])


def grid(valid, invalid):
    """Comma grids of valid values, or grids that may hold invalid and special tokens."""
    wild = st.one_of(SPECIAL, invalid.map(repr), valid.map(repr))
    return st.one_of(st.lists(valid.map(repr), min_size=1, max_size=2),
                     st.lists(wild, min_size=1, max_size=2)).map(",".join)


GAMMAS = grid(st.floats(min_value=0.01, max_value=1.5), st.floats(min_value=-0.5, max_value=0))
STEPS = grid(st.integers(min_value=1, max_value=10), st.integers(min_value=-2, max_value=0))
TIMES = grid(st.floats(min_value=0.5, max_value=20.0), st.floats(min_value=-5.0, max_value=0))
TRIALS = st.integers(min_value=-2, max_value=50)


@st.composite
def commands(draw):
    command = draw(st.sampled_from(["bound", "verify", "simulate"]))
    if draw(st.booleans()):
        argv = [command, "--model", os.path.join(MODELS, "ring.json"), f"--n={draw(STEPS)}"]
        if command != "simulate":
            argv.append("--flavor=" + draw(st.sampled_from(["bernstein", "hoeffding"])))
    else:
        argv = [command, "--model", os.path.join(MODELS, "driven_qubit.json"),
                f"--t={draw(TIMES)}"]
        if command == "verify":
            argv.append("--mc")
        if command != "simulate":
            argv.append("--flavor=counting")
    argv.append(f"--gamma={draw(GAMMAS)}")
    if command != "bound":
        argv += [f"--trials={draw(TRIALS)}", f"--seed={draw(st.integers(0, 3))}"]
    return argv


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(commands())
def test_fuzzed_grids_end_in_a_documented_exit_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in range(6), (argv, code, err.getvalue())
    if out.getvalue():
        json.loads(out.getvalue(), parse_constant=reject_constant)
