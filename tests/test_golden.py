"""Committed CLI reports on ``models/*.json`` that every change must reproduce.

The reports are compared as parsed JSON with ``==``; JSON floats round-trip
exactly, so a moved last digit fails.  ``command.model`` is dropped, since
the path the test passes differs from the one the files were made with.
``two_block_ring.json`` has no ``bound`` report: it exits 3 before one.

A change that moves an emitted number on purpose regenerates the files,
from the repository root, and lists each changed value in CHANGES.md::

    for m in models/*.json; do
        PYTHONPATH=src python -m qmcbounds.cli analyze --model "$m" \\
            > "tests/golden/analyze-$(basename "$m")"
    done
    for m in qubit_two_unitary ring ring_tdm; do
        for f in bernstein hoeffding; do
            PYTHONPATH=src python -m qmcbounds.cli bound --flavor "$f" \\
                --model "models/$m.json" --n 10,100,1000 --gamma 0.05,0.1,0.5 \\
                > "tests/golden/bound-$f-$m.json"
        done
    done
"""

import json
import os

import pytest

from qmcbounds import cli

from conftest import reject_constant

HERE = os.path.dirname(__file__)
MODELS = os.path.join(HERE, "..", "models")
GOLDEN = os.path.join(HERE, "golden")
BOUND_GRID = ["--n", "10,100,1000", "--gamma", "0.05,0.1,0.5"]

CASES = [(f"analyze-{name}", ["analyze", "--model", os.path.join(MODELS, name)])
         for name in sorted(os.listdir(MODELS)) if name.endswith(".json")]
CASES += [(f"bound-{flavor}-{stem}.json",
           ["bound", "--flavor", flavor, "--model", os.path.join(MODELS, f"{stem}.json"),
            *BOUND_GRID])
          for stem in ("qubit_two_unitary", "ring", "ring_tdm")
          for flavor in ("bernstein", "hoeffding")]


def without_model_path(report: dict) -> dict:
    report["command"].pop("model")
    return report


@pytest.mark.parametrize("golden, argv", CASES, ids=[name for name, _ in CASES])
def test_report_matches_golden(golden, argv, capsys):
    assert cli.main(argv) == 0, capsys.readouterr().err
    report = json.loads(capsys.readouterr().out, parse_constant=reject_constant)
    with open(os.path.join(GOLDEN, golden), encoding="utf-8") as fh:
        expected = json.load(fh, parse_constant=reject_constant)
    assert without_model_path(report) == without_model_path(expected)


def test_every_golden_file_is_checked():
    assert sorted(os.listdir(GOLDEN)) == sorted(name for name, _ in CASES)
