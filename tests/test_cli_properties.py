"""Property test: every fuzzed command ends in a documented exit code and a NaN-free report.

The commands draw every bound flavor on its model, grids with invalid and special
tokens, and --override-epsilon and --tolerance values, valid or not.
"""
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
EPSILONS = st.sampled_from(["60", "0.5", "0", "-1", "nan", "inf", "abc"])
TOLERANCES = st.sampled_from(["channel=1e-8", "channel=1", "channel=0", "channel=-1",
                              "channel=nan", "channel=abc", "foo=1", "channel"])
# flavor -> (its model, its horizon flag); simulate reads the bernstein and counting models
FLAVORS = {
    "bernstein": ("ring.json", "n"), "hoeffding": ("ring.json", "n"),
    "counting": ("driven_qubit.json", "t"), "flux": ("two_state_chain.json", "n"),
    "tdm-bernstein": ("ring_tdm.json", "n"), "tdm-hoeffding": ("ring_tdm.json", "n"),
    "multitime": ("ring_tdm.json", "n"), "reducible": ("two_block_ring.json", "n"),
    "ci": ("ring_tdm.json", "n"),
}
VERIFIABLE = ["bernstein", "hoeffding", "counting", "flux"]
CASES = ([("bound", flavor) for flavor in FLAVORS] + [("verify", flavor) for flavor in VERIFIABLE]
         + [("simulate", "bernstein"), ("simulate", "counting")])


@st.composite
def commands(draw, command, flavor):
    name, horizon = FLAVORS[flavor]
    argv = [command, "--model", os.path.join(MODELS, name),
            f"--{horizon}={draw(STEPS if horizon == 'n' else TIMES)}"]
    if command != "simulate":
        argv.append(f"--flavor={flavor}")
        if draw(st.booleans()):
            argv.append(f"--override-epsilon={draw(EPSILONS)}")
    if command == "verify" and flavor == "counting":
        argv.append("--mc")
    argv.append(f"--gamma={draw(GAMMAS)}")
    if command != "bound":
        argv += [f"--trials={draw(TRIALS)}", f"--seed={draw(st.integers(0, 3))}"]
    if draw(st.booleans()):
        argv.append(f"--tolerance={draw(TOLERANCES)}")
    return argv


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_fuzzed_grids_end_in_a_documented_exit_code(data):
    for command, flavor in CASES:  # each example runs every case once
        argv = data.draw(commands(command, flavor))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        assert code in range(6), (argv, code, err.getvalue())
        if out.getvalue():
            json.loads(out.getvalue(), parse_constant=reject_constant)
