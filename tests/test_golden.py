"""Committed CLI reports on ``models/*.json`` that every change must reproduce.

The reports are compared as parsed JSON with ``==``; JSON floats round-trip
exactly, so a moved last digit fails.  The path-valued ``command.model`` and
``command.dump`` are dropped, since the paths the test passes differ from the
ones the files were made with; ``simulate --dump`` files are compared byte for
byte.  ``two_block_ring.json`` has no ``bound`` report: it exits 3 before one.

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
    for f in bernstein hoeffding; do
        PYTHONPATH=src python -m qmcbounds.cli verify --flavor "$f" \
            --model models/ring.json --n 16,64,256 --gamma 0.05,0.1,0.5 \
            > "tests/golden/verify-$f-ring.json"
    done
    PYTHONPATH=src python -m qmcbounds.cli verify --flavor bernstein --mc \
        --model models/ring.json --n 1500 --gamma 0.1 --trials 200 \
        > tests/golden/verify-bernstein-mc-ring.json
    PYTHONPATH=src python -m qmcbounds.cli verify --flavor flux \
        --model models/two_state_chain.json --n 16,64,256 --gamma 0.05,0.1,0.5 \
        > tests/golden/verify-flux-two_state_chain.json
    PYTHONPATH=src python -m qmcbounds.cli verify --flavor counting \
        --model models/driven_qubit.json --t 5,20 --gamma 0.1,0.3 --trials 200 \
        > tests/golden/verify-counting-driven_qubit.json
    PYTHONPATH=src python -m qmcbounds.cli simulate --model models/ring.json \
        --n 32 --gamma 0.1,0.3 --trials 100 \
        --dump tests/golden/simulate-ring.jsonl > tests/golden/simulate-ring.json
    PYTHONPATH=src python -m qmcbounds.cli simulate --model models/driven_qubit.json \
        --t 10 --gamma 0.1,0.3 --trials 100 \
        --dump tests/golden/simulate-driven_qubit.jsonl \
        > tests/golden/simulate-driven_qubit.json
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
VERIFY_GRID = ["--n", "16,64,256", "--gamma", "0.05,0.1,0.5"]
RING = os.path.join(MODELS, "ring.json")
DRIVEN = os.path.join(MODELS, "driven_qubit.json")

CASES = [(f"analyze-{name}", ["analyze", "--model", os.path.join(MODELS, name)])
         for name in sorted(os.listdir(MODELS)) if name.endswith(".json")]
CASES += [(f"bound-{flavor}-{stem}.json",
           ["bound", "--flavor", flavor, "--model", os.path.join(MODELS, f"{stem}.json"),
            *BOUND_GRID])
          for stem in ("qubit_two_unitary", "ring", "ring_tdm")
          for flavor in ("bernstein", "hoeffding")]
CASES += [(f"verify-{flavor}-ring.json",
           ["verify", "--flavor", flavor, "--model", RING, *VERIFY_GRID])
          for flavor in ("bernstein", "hoeffding")]
CASES += [
    ("verify-bernstein-mc-ring.json",  # n = 1500 is beyond the DP budget
     ["verify", "--flavor", "bernstein", "--mc", "--model", RING, "--n", "1500",
      "--gamma", "0.1", "--trials", "200"]),
    ("verify-flux-two_state_chain.json",
     ["verify", "--flavor", "flux", "--model", os.path.join(MODELS, "two_state_chain.json"),
      *VERIFY_GRID]),
    ("verify-counting-driven_qubit.json",
     ["verify", "--flavor", "counting", "--model", DRIVEN, "--t", "5,20",
      "--gamma", "0.1,0.3", "--trials", "200"]),
]
DUMPS = [
    ("simulate-ring", ["simulate", "--model", RING, "--n", "32", "--gamma", "0.1,0.3",
                       "--trials", "100"]),
    ("simulate-driven_qubit", ["simulate", "--model", DRIVEN, "--t", "10",
                               "--gamma", "0.1,0.3", "--trials", "100"]),
]


def without_paths(report: dict) -> dict:
    report["command"].pop("model")
    report["command"].pop("dump", None)
    return report


def run_against_golden(argv, golden, capsys):
    assert cli.main(argv) == 0, capsys.readouterr().err
    report = json.loads(capsys.readouterr().out, parse_constant=reject_constant)
    with open(os.path.join(GOLDEN, golden), encoding="utf-8") as fh:
        expected = json.load(fh, parse_constant=reject_constant)
    assert without_paths(report) == without_paths(expected)


@pytest.mark.parametrize("golden, argv", CASES, ids=[name for name, _ in CASES])
def test_report_matches_golden(golden, argv, capsys):
    run_against_golden(argv, golden, capsys)


@pytest.mark.parametrize("stem, argv", DUMPS, ids=[stem for stem, _ in DUMPS])
def test_simulate_dump_matches_golden(stem, argv, tmp_path, capsys):
    dump = tmp_path / "dump.jsonl"
    run_against_golden([*argv, "--dump", str(dump)], f"{stem}.json", capsys)
    with open(os.path.join(GOLDEN, f"{stem}.jsonl"), "rb") as fh:
        assert dump.read_bytes() == fh.read()


def test_every_golden_file_is_checked():
    expected = [name for name, _ in CASES]
    expected += [f"{stem}{ext}" for stem, _ in DUMPS for ext in (".json", ".jsonl")]
    assert sorted(os.listdir(GOLDEN)) == sorted(expected)
