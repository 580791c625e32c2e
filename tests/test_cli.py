import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import qmcbounds.bounds as bounds
import qmcbounds.classical as classical
import qmcbounds.modelfile as modelfile
import qmcbounds.spectral as spectral
import qmcbounds.trajectory as trajectory
from qmcbounds import cli
from qmcbounds.bounds import stationary_stats
from qmcbounds.fixtures import random_channel
from qmcbounds.modelfile import load_model
from qmcbounds.spectral import gkls_steady_state, invariant_state
from qmcbounds.trajectory import score_distribution_dp

from conftest import reject_constant

MODELS = os.path.join(os.path.dirname(__file__), "..", "models")


def run_cli(*argv, expect: int = 0):
    proc = subprocess.run([sys.executable, "-m", "qmcbounds.cli", *argv],
                          capture_output=True, text=True)
    assert proc.returncode == expect, proc.stderr or proc.stdout
    return proc


def model(name: str) -> str:
    return os.path.join(MODELS, name)


def main_report(capsys, *argv) -> dict:
    """Run the CLI in-process, expect exit 0 and return the report (NaN rejected)."""
    assert cli.main(list(argv)) == 0, capsys.readouterr().err
    return json.loads(capsys.readouterr().out, parse_constant=reject_constant)


def halve_an_outcome(doc):
    """Halve the first outcome of the model's last unravelling."""
    name = list(doc["unravellings"])[-1]
    entry = doc["unravellings"][name][0]
    entry["kraus"] = [[[[0.5 * re, 0.5 * im] for re, im in row] for row in m]
                      for m in entry["kraus"]]


class TestAnalyze:
    def test_ring_diagnostics(self):
        proc = run_cli("analyze", "--model", model("ring.json"))
        report = json.loads(proc.stdout)
        diag = report["diagnostics"]
        assert diag["irreducible"] is True
        assert diag["psi_irreducible"] is True
        assert diag["epsilon_multiplicative"] == pytest.approx(0.75, abs=1e-10)
        assert np.allclose(diag["invariant_state_diagonal"], [1 / 3] * 3)

    def test_two_block_lists_blocks(self):
        proc = run_cli("analyze", "--model", model("two_block_ring.json"))
        report = json.loads(proc.stdout)
        diag = report["diagnostics"]
        assert diag["irreducible"] is False
        assert diag["fixed_space_dimension"] == 2
        assert diag["blocks"] == 2

    def test_gkls_diagnostics(self):
        proc = run_cli("analyze", "--model", model("driven_qubit.json"))
        diag = json.loads(proc.stdout)["diagnostics"]
        assert diag["counting_constants"]["m"] == pytest.approx(2 / 9, abs=1e-10)
        assert diag["additive_irreducible"] is True

    def test_ring_runs_one_irreducibility_vote(self, capsys, monkeypatch):
        votes = []
        original = spectral.is_irreducible

        def counted(channel, *args, **kwargs):
            if not isinstance(channel.labels[0], tuple):  # psi is labelled by pairs
                votes.append(channel)
            return original(channel, *args, **kwargs)

        monkeypatch.setattr(cli, "is_irreducible", counted)
        monkeypatch.setattr(spectral, "is_irreducible", counted)
        diag = main_report(capsys, "analyze", "--model", model("ring.json"))["diagnostics"]
        assert diag["irreducible"] is True and "primitive" in diag
        assert len(votes) == 1

    def test_parse_error_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "kind": "kraus", "labels": ["a"],
            "kraus": [[[[0, 0], [1, 0]], [[1, 0]]]],
        }))
        proc = run_cli("analyze", "--model", str(bad), expect=2)
        assert "$.kraus[0][1]" in proc.stderr

    def test_missing_field_path(self, tmp_path):
        bad = tmp_path / "bad2.json"
        bad.write_text(json.dumps({"kind": "kraus", "labels": ["a"]}))
        proc = run_cli("analyze", "--model", str(bad), expect=2)
        assert "$.kraus" in proc.stderr

    @pytest.mark.parametrize("name, edit, field", [
        ("driven_qubit.json", lambda doc: doc.update(labels=3), "$.labels: expected a list"),
        ("driven_qubit.json", lambda doc: doc.update(jumps=5), "$.jumps: expected a list"),
        ("ring_tdm.json", lambda doc: doc.update(unravellings=[1, 2]),
         "$.unravellings: expected an object"),
        ("ring_tdm.json", lambda doc: doc.update(unravellings={"u": [5]}),
         "$.unravellings.u[0]: expected an object"),
        ("ring_tdm.json", lambda doc: doc["unravellings"]["edges"][0].update(kraus=3),
         "$.unravellings.edges[0].kraus: expected a list"),
        ("ring_tdm.json", lambda doc: doc.update(schedule=5), "$.schedule: expected a list"),
        ("ring_tdm.json", lambda doc: doc.update(schedule={}), "$.schedule: expected a list"),
        ("ring_tdm.json", lambda doc: doc.update(unravellings=0, schedule=[]),
         "$.unravellings: expected an object"),
        ("two_state_chain.json", lambda doc: doc.update(flux=5), "$.flux: expected a list"),
        ("two_state_chain.json", lambda doc: doc.update(initial="x"),
         "$.initial: expected a list"),
        ("ring_tdm.json", lambda doc: doc["unravellings"]["rotated"][-1].update(
            kraus=[[[[1, 0], [0, 0]], [[0, 0], [1, 0]]]]),
         "$.unravellings.rotated: unravelling does not sum to the channel (deviation inf)"),
        ("two_state_chain.json", lambda doc: doc["flux"].append(["a", "z", 1.0]),
         "$.flux[4]: unknown state 'z'"),
        ("driven_qubit.json", lambda doc: [doc.update(jumps=[], labels=[]),
                                           doc.pop("count_label")],
         "$.jumps: expected at least one jump operator"),
        ("ring_tdm.json", lambda doc: doc["unravellings"]["edges"][0].update(label=["x"]),
         "$.unravellings.edges[0].label: expected a string or number"),
        ("ring_tdm.json", lambda doc: doc.update(schedule=[5]),
         "$.schedule[0]: expected an object"),
        ("ring_tdm.json", lambda doc: doc["schedule"][0].update(unravelling=["edges"]),
         "$.schedule[0].unravelling: unknown unravelling ['edges']"),
        ("two_state_chain.json", lambda doc: doc.update(initial=[0.5, None]),
         "$.initial[1]: expected a finite number"),
        ("driven_qubit.json", lambda doc: doc.update(jumps=doc["jumps"] * 2,
                                                     labels=["click", "click"]),
         "$.labels: labels must be unique"),
        ("ring.json", lambda doc: doc["labels"].__setitem__(1, doc["labels"][0]),
         "$.labels: labels must be unique"),
        ("driven_qubit.json", lambda doc: [doc["jumps"].append([[0.0] * 3] * 3),
                                           doc["labels"].append("extra")],
         "$.jumps[1]: expected dimension 2, got 3"),
        ("driven_qubit.json", lambda doc: doc["jumps"][0][0].__setitem__(0, [math.nan, 0.0]),
         "$.jumps[0][0][0]: expected a finite number"),
    ], ids=["gkls-labels", "gkls-jumps", "unravellings-list", "outcome-not-object",
            "outcome-kraus", "schedule", "schedule-empty-object", "unravellings-zero",
            "flux", "initial", "operator-shape", "flux-state",
            "gkls-no-jumps", "outcome-label", "schedule-entry", "schedule-name",
            "initial-entry", "gkls-duplicate-labels", "kraus-duplicate-labels",
            "gkls-jump-shape", "gkls-jump-entry"])
    def test_structure_error_names_its_field(self, name, edit, field, tmp_path, capsys):
        doc = json.loads(open(model(name)).read())
        edit(doc)
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        assert cli.main(["analyze", "--model", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"model error: {field}")

    def test_hypothesis_failure_partial_diagnostics(self, tmp_path):
        # pure dephasing has a degenerate steady state: exit 3, but the
        # report with partial diagnostics is still emitted
        dephasing = tmp_path / "dephasing.json"
        dephasing.write_text(json.dumps({
            "kind": "gkls",
            "hamiltonian": [[[0, 0], [0, 0]], [[0, 0], [0, 0]]],
            "jumps": [[[[1, 0], [0, 0]], [[0, 0], [-1, 0]]]],
            "labels": ["z"],
        }))
        proc = run_cli("analyze", "--model", str(dephasing), expect=3)
        report = json.loads(proc.stdout)
        assert "hypothesis_failure" in report["diagnostics"]
        assert report["diagnostics"]["generator_unitality_residual"] < 1e-12

    def test_channel_judged_at_the_loaded_tolerance(self, tmp_path, capsys):
        doc = json.loads(open(model("ring.json")).read())
        doc["kraus"][0] = [[[(1 + 1e-6) * x for x in z] for z in row] for row in doc["kraus"][0]]
        path = tmp_path / "perturbed.json"
        path.write_text(json.dumps(doc))
        # the map is not trace preserving, so the spectral analysis fails (exit 3)
        assert cli.main(["analyze", "--model", str(path), "--tolerance", "channel=1e-3"]) == 3
        diag = json.loads(capsys.readouterr().out)["diagnostics"]
        assert diag["channel_ok"] is True and 1e-7 < diag["channel_deviation"] < 1e-3


AMPLITUDE_DAMPING = {  # invariant state |0><0|, not faithful
    "kind": "kraus", "labels": ["keep", "decay"], "observation": {"keep": 0.0, "decay": 1.0},
    "kraus": [[[[1, 0], [0, 0]], [[0, 0], [0.7 ** 0.5, 0]]],
              [[[0, 0], [0.3 ** 0.5, 0]], [[0, 0], [0, 0]]]],
}
PURE_DECAY = {  # H = 0, L = |0><1|: steady state |0><0|, not faithful
    "kind": "gkls", "labels": ["click"], "count_label": "click",
    "hamiltonian": [[[0, 0], [0, 0]], [[0, 0], [0, 0]]],
    "jumps": [[[[0, 0], [1, 0]], [[0, 0], [0, 0]]]],
}


ONE_LEVEL = {"kind": "gkls", "hamiltonian": [[0.0]], "jumps": [[[0.7]]], "labels": ["click"],
             "count_label": "click"}


@pytest.mark.parametrize("argv", [
    ["analyze"],
    ["bound", "--flavor", "counting", "--t", "2,8", "--gamma", "0.1"],
    ["verify", "--flavor", "counting", "--t", "2,8", "--gamma", "0.1", "--trials", "50"],
], ids=["analyze", "bound", "verify"])
def test_infinite_gap_is_written_as_null(argv, tmp_path, capsys):
    """One level: the additive spectrum has one eigenvalue, so epsilon = inf."""
    path = tmp_path / "one_level.json"
    path.write_text(json.dumps(ONE_LEVEL))
    report = main_report(capsys, *argv, "--model", str(path))
    constants = report["diagnostics"]["counting_constants"] if argv == ["analyze"] \
        else report["constants"]
    assert constants["epsilon"] is None and constants["hypothesis_ok"]


class TestUnfaithfulState:
    """An unfaithful stationary state is a hypothesis failure (exit 3), never a traceback."""

    @pytest.mark.parametrize("doc, argv", [
        (AMPLITUDE_DAMPING, ["bound", "--flavor", "bernstein", "--n", "10", "--gamma", "0.1"]),
        (AMPLITUDE_DAMPING, ["verify", "--flavor", "bernstein", "--n", "10", "--gamma", "0.1"]),
        (AMPLITUDE_DAMPING, ["bound", "--flavor", "ci", "--n", "10", "--gamma", "0.1"]),
        (PURE_DECAY, ["bound", "--flavor", "counting", "--t", "1", "--gamma", "0.1"]),
        (PURE_DECAY, ["verify", "--flavor", "counting", "--t", "1", "--gamma", "0.1",
                      "--trials", "20"]),
    ])
    def test_exit_3(self, doc, argv, tmp_path, capsys):
        path = tmp_path / "unfaithful.json"
        path.write_text(json.dumps(doc))
        assert cli.main(argv + ["--model", str(path)]) == 3
        assert "not faithful" in capsys.readouterr().err

    def test_analyze_emits_partial_diagnostics(self, tmp_path, capsys):
        path = tmp_path / "decay.json"
        path.write_text(json.dumps(PURE_DECAY))
        assert cli.main(["analyze", "--model", str(path)]) == 3
        diag = json.loads(capsys.readouterr().out)["diagnostics"]
        assert diag["faithful"] is False
        assert diag["steady_state_diagonal"] == pytest.approx([1.0, 0.0])
        assert "not faithful" in diag["hypothesis_failure"]

    def test_simulate_needs_only_the_intensity(self, tmp_path, capsys):
        path = tmp_path / "decay.json"
        path.write_text(json.dumps(PURE_DECAY))
        report = main_report(capsys, "simulate", "--model", str(path), "--t", "1",
                             "--gamma", "0.1", "--trials", "20")
        # started in |0><0|, the detector never clicks, at stationary intensity 0
        assert report["stationary_intensity"] == 0.0 and report["empirical_rate"] == 0.0


class TestBound:
    def test_bernstein_grid(self):
        proc = run_cli("bound", "--model", model("ring.json"), "--flavor",
                       "bernstein", "--n", "100,1000,10000",
                       "--gamma", "0.05,0.1,0.2")
        report = json.loads(proc.stdout)
        rows = report["rows"]
        assert len(rows) == 9
        by_gamma = {}
        for row in rows:
            by_gamma.setdefault(row["gamma"], []).append(row["bound"])
        for bounds in by_gamma.values():
            assert all(b <= a + 1e-15 for a, b in zip(bounds, bounds[1:]))
        assert report["constants"]["epsilon"] == pytest.approx(0.75, abs=1e-10)

    def test_hoeffding_all_out_of_regime(self):
        proc = run_cli("bound", "--model", model("ring.json"), "--flavor",
                       "hoeffding", "--n", "2,3", "--gamma", "0.01")
        rows = json.loads(proc.stdout)["rows"]
        assert all(row["valid"] is False for row in rows)
        assert all(row["reason"] == "outside regime" for row in rows)

    def test_counting_constants_echoed(self):
        proc = run_cli("bound", "--model", model("driven_qubit.json"), "--flavor",
                       "counting", "--t", "50,100", "--gamma", "0.1")
        report = json.loads(proc.stdout)
        constants = report["constants"]
        for key in ("m", "epsilon", "alpha", "b"):
            assert key in constants
        assert len(report["rows"]) == 2

    def test_flux_rows(self):
        proc = run_cli("bound", "--model", model("two_state_chain.json"),
                       "--flavor", "flux", "--n", "8", "--gamma", "0.3",
                       "--format", "csv")
        lines = proc.stdout.strip().splitlines()
        assert lines[0].startswith("flavor,horizon,gamma")
        assert len(lines) == 3  # header + bernstein + hoeffding

    def test_tdm_and_multitime_and_reducible_and_ci(self):
        proc = run_cli("bound", "--model", model("ring_tdm.json"), "--flavor",
                       "tdm-bernstein", "--n", "8", "--gamma", "0.4")
        assert json.loads(proc.stdout)["rows"][0]["valid"] is True
        proc = run_cli("bound", "--model", model("ring_tdm.json"), "--flavor",
                       "tdm-hoeffding", "--n", "16", "--gamma", "0.5")
        assert json.loads(proc.stdout)["rows"]
        proc = run_cli("bound", "--model", model("ring_tdm.json"), "--flavor",
                       "multitime", "--n", "32", "--gamma", "0.45")
        assert json.loads(proc.stdout)["rows"][0]["valid"] is True
        proc = run_cli("bound", "--model", model("two_block_ring.json"),
                       "--flavor", "reducible", "--n", "10", "--gamma", "0.4",
                       "--rho0", "maximally-mixed")
        rows = json.loads(proc.stdout)["rows"]
        assert {row["flavor"] for row in rows} == {"reducible-bernstein",
                                                   "reducible-hoeffding"}
        proc = run_cli("bound", "--model", model("ring_tdm.json"), "--flavor",
                       "ci", "--n", "1000", "--gamma", "0.1")
        rows = json.loads(proc.stdout)["rows"]
        assert len(rows) == 3  # one per parameter in the grid
        assert all(0.0 <= row["bound"] <= 1.0 for row in rows)

    @pytest.mark.parametrize("flavor", ["tdm-hoeffding", "tdm-bernstein"])
    def test_tdm_answers_any_horizon_from_the_period(self, flavor):
        # one schedule period and the powers up to their tail bound serve every n
        start = time.perf_counter()
        proc = run_cli("bound", "--flavor", flavor, "--model", model("ring_tdm.json"),
                       "--n", "1e12", "--gamma", "0.5")
        assert time.perf_counter() - start < 1.0
        [row] = json.loads(proc.stdout, parse_constant=reject_constant)["rows"]
        assert row["horizon"] == 10**12 and 0.0 <= row["bound"] <= 1.0
        loaded = load_model(model("ring_tdm.json"))
        sigma = invariant_state(loaded.channel).matrix
        constants = bounds.time_dependent_constants(loaded.channel, loaded.schedule, sigma,
                                                    sigma, flavor[4:])
        echoed = bounds.time_dependent_bound(constants, 0.5, 10**12).constants
        finite = [echoed.b, echoed.c] + ([echoed.g] if flavor == "tdm-hoeffding" else [])
        assert all(math.isfinite(v) for v in finite)

    def test_constant_payoff_hoeffding_exact_zero(self, tmp_path):
        doc = json.loads(open(model("ring.json")).read())
        doc["observation"] = {label: 1.0 for label in doc["labels"]}
        flat = tmp_path / "flat.json"
        flat.write_text(json.dumps(doc))
        proc = run_cli("bound", "--model", str(flat), "--flavor", "hoeffding",
                       "--n", "1,10", "--gamma", "0.1")
        rows = json.loads(proc.stdout)["rows"]
        assert all(row["valid"] and row["bound"] == 0.0 for row in rows)

    @pytest.mark.parametrize("name, flavor", [
        ("ring_tdm.json", "bernstein"), ("ring_tdm.json", "hoeffding"),
        ("ring_tdm.json", "tdm-bernstein"), ("ring_tdm.json", "tdm-hoeffding"),
        ("ring_tdm.json", "multitime"), ("two_state_chain.json", "flux"),
    ])
    def test_constant_payoff_exact_zero_in_every_flavor(self, name, flavor, tmp_path, capsys):
        doc = json.loads(open(model(name)).read())
        if name == "two_state_chain.json":
            doc["flux"] = [[a, b, 0.7] for a, b, _ in doc["flux"]]
        else:
            doc["observation"] = {label: 0.7 for label in doc["observation"]}
            for entry in doc["schedule"]:
                entry["observation"] = {label: 0.7 for label in entry["observation"]}
            doc["observation_windows"] = [[window, 0.7]
                                          for window, _ in doc["observation_windows"]]
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        rows = main_report(capsys, "bound", "--flavor", flavor, "--model", str(path),
                           "--n", "20,80", "--gamma", "0.1,0.5")["rows"]
        assert rows and len(rows) % 4 == 0  # flux reports both of its series
        for row in rows:
            assert row["valid"] and row["bound"] == 0.0 and row["exponent"] is None
            assert row["reason"].startswith("deterministic")

    def test_hoeffding_and_ci_never_run_the_heuristic(self, capsys, monkeypatch):
        runs = [["bound", "--model", model("ring.json"), "--flavor", "hoeffding",
                 "--n", "100,1000", "--gamma", "0.5"],
                ["bound", "--model", model("ring_tdm.json"), "--flavor", "ci",
                 "--n", "1000", "--gamma", "0.1"]]
        expected = [main_report(capsys, *argv) for argv in runs]

        def heuristic(*args, **kwargs):
            raise AssertionError("heuristic lower estimate ran on the bound path")

        monkeypatch.setattr(spectral, "_lower_estimate", heuristic)
        assert [main_report(capsys, *argv) for argv in runs] == expected

    def test_multitime_undefined_window_exit_2(self, tmp_path, capsys):
        doc = json.loads(open(model("ring_tdm.json")).read())
        doc["observation_windows"] = doc["observation_windows"][:3]
        short = tmp_path / "short.json"
        short.write_text(json.dumps(doc))
        assert cli.main(["bound", "--model", str(short), "--flavor", "multitime",
                         "--n", "20", "--gamma", "0.5"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("model error: observation_windows: payoff undefined")
        assert "('" in err and "Traceback" not in err

    @pytest.mark.parametrize("edit", [
        lambda pair: pair.__setitem__(1, "abc"),
        lambda pair: pair.__setitem__(1, None),
        lambda pair: pair.__setitem__(1, float("nan")),
        lambda pair: pair.__setitem__(0, pair[0][:1]),
    ], ids=["string", "null", "nan", "short-window"])
    def test_malformed_window_is_a_model_error(self, edit, tmp_path, capsys):
        doc = json.loads(open(model("ring_tdm.json")).read())
        edit(doc["observation_windows"][2])
        path = tmp_path / "windows.json"
        path.write_text(json.dumps(doc))
        for argv in (["analyze"], ["bound", "--flavor", "multitime", "--n", "20",
                                   "--gamma", "0.5"]):
            assert cli.main([*argv, "--model", str(path)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("model error: $.observation_windows[2]")
            assert "Traceback" not in err

    @pytest.mark.parametrize("name, flavor, edit, message", [
        ("two_state_chain.json", "flux", lambda doc: doc["flux"].pop(),
         "$.flux: flux undefined on edge ('b', 'b')"),
        ("ring_tdm.json", "tdm-bernstein", halve_an_outcome,
         "$.unravellings.rotated: unravelling does not sum to the channel"),
        ("ring_tdm.json", "multitime", lambda doc: doc.update(observation_windows=[]),
         "$.observation_windows: expected a non-empty list of windows"),
        ("two_state_chain.json", "flux", lambda doc: doc["flux"][0].__setitem__(2, "abc"),
         "$.flux: could not convert string to float"),
        ("ring_tdm.json", "tdm-hoeffding", lambda doc: doc["unravellings"].update(
            edges=[{"label": "x", "kraus": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}]),
         "$.unravellings.edges: unravelling does not sum to the channel (deviation inf)"),
    ])
    def test_inconsistent_sections_are_model_errors(self, name, flavor, edit, message,
                                                    tmp_path, capsys):
        doc = json.loads(open(model(name)).read())
        edit(doc)
        path = str(tmp_path / name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        for argv in (["analyze"], ["bound", "--flavor", flavor, "--n", "10", "--gamma", "0.1"]):
            assert cli.main([*argv, "--model", path]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith(f"model error: {message}")

    @pytest.mark.parametrize("command", ["bound", "verify"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0", "-1", "abc"])
    def test_override_epsilon_finite_positive(self, command, value, capsys):
        assert cli.main([command, "--model", model("ring.json"), "--flavor", "bernstein",
                         "--n", "10", "--gamma", "0.1", "--override-epsilon", value]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: argument --override-epsilon")

    def test_unreadable_rho0_exit_1(self):
        proc = run_cli("bound", "--model", model("ring.json"), "--flavor", "bernstein",
                       "--n", "10", "--gamma", "0.1", "--rho0", "/missing.json", expect=1)
        assert "usage error:" in proc.stderr and "Traceback" not in proc.stderr

    def test_rho0_not_a_state_exit_2(self, tmp_path):
        rho0 = tmp_path / "rho0.json"
        rho0.write_text(json.dumps([[[1, 0], [0, 0], [0, 0]], [[0, 0], [1, 0], [0, 0]],
                                    [[0, 0], [0, 0], [-1, 0]]]))  # eigenvalue -1
        proc = run_cli("bound", "--model", model("ring.json"), "--flavor", "bernstein",
                       "--n", "10", "--gamma", "0.1", "--rho0", str(rho0), expect=2)
        assert "model error:" in proc.stderr and "Traceback" not in proc.stderr

    def test_usage_error_exit_1(self):
        run_cli("bound", "--model", model("ring.json"), "--flavor", "bernstein",
                "--gamma", "0.1", expect=1)  # missing --n

    @pytest.mark.parametrize("argv", [
        ["bound", "--model", "ring.json", "--flavor", "bernstein", "--n", "10", "--gamma", "nan"],
        ["bound", "--model", "ring.json", "--flavor", "hoeffding", "--n", "10", "--gamma", "-0.1"],
        ["bound", "--model", "ring.json", "--flavor", "bernstein", "--n", "10", "--gamma", "0"],
        ["bound", "--model", "ring.json", "--flavor", "bernstein", "--n", "10", "--gamma", ","],
        ["bound", "--model", "ring.json", "--flavor", "bernstein", "--n", "inf", "--gamma", "0.1"],
        ["bound", "--model", "ring.json", "--flavor", "bernstein", "--n", "nan", "--gamma", "0.1"],
        ["bound", "--model", "ring.json", "--flavor", "bernstein", "--n", "5,0", "--gamma", "0.1"],
        ["bound", "--model", "driven_qubit.json", "--flavor", "counting", "--t", "-5",
         "--gamma", "0.1"],
        ["verify", "--model", "ring.json", "--flavor", "bernstein", "--n", "4", "--gamma=-inf"],
        ["verify", "--model", "driven_qubit.json", "--flavor", "counting", "--t", "-5",
         "--gamma", "0.1", "--trials", "10"],
        ["verify", "--mc", "--model", "driven_qubit.json", "--flavor", "counting", "--t", "10",
         "--gamma", "0.1", "--trials", "0"],
        ["simulate", "--model", "ring.json", "--n", "0", "--gamma", "0.1", "--trials", "5"],
        ["simulate", "--model", "ring.json", "--n", "5", "--gamma", "nan", "--trials", "5"],
        ["simulate", "--model", "driven_qubit.json", "--t", "0", "--trials", "5"],
        ["simulate", "--model", "driven_qubit.json", "--t", "-5", "--trials", "5"],
    ])
    def test_bad_grid_is_a_usage_error(self, argv, capsys):
        argv = [model(a) if a.endswith(".json") else a for a in argv]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and "Traceback" not in err

    def test_zero_horizon_bound_allowed(self, capsys):
        report = main_report(capsys, "bound", "--model", model("driven_qubit.json"),
                             "--flavor", "counting", "--t", "0,10", "--gamma", "0.1")
        assert [row["horizon"] for row in report["rows"]] == [0.0, 10.0]

    @pytest.mark.parametrize("value", ["missing", None, "high"])
    def test_schedule_observation_without_a_label_value_exit_2(self, value, tmp_path, capsys):
        doc = json.loads(open(model("ring_tdm.json")).read())
        if value == "missing":
            del doc["schedule"][1]["observation"]["2d"]
        else:
            doc["schedule"][1]["observation"]["2d"] = value
        bad = tmp_path / "short.json"
        bad.write_text(json.dumps(doc))
        assert cli.main(["analyze", "--model", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("model error: $.schedule[1].observation")
        assert "2d" in err


@pytest.mark.parametrize("argv", [
    ["analyze", "--model", "ring.json"],
    ["bound", "--model", "ring.json", "--flavor", "bernstein", "--n", "10", "--gamma", "0.1"],
    ["simulate", "--model", "ring.json", "--n", "10", "--gamma", "0.1", "--trials", "5"],
    ["verify", "--model", "ring.json", "--flavor", "bernstein", "--n", "10", "--gamma", "0.1"],
])
def test_unwritable_output_is_a_usage_error(argv, tmp_path):
    output = str(tmp_path / "missing" / "x.json")
    proc = run_cli(*[model(a) if a.endswith(".json") else a for a in argv],
                   "--output", output, expect=1)
    assert proc.stderr.startswith(f"usage error: cannot write --output {output}: ")
    assert "Traceback" not in proc.stderr and proc.stdout == ""


def test_unwritable_output_is_refused_before_the_model_loads(tmp_path, capsys):
    # analyze at d = 24 takes about a second; the probe answers first
    channel = random_channel(24, 3, seed=24)
    path = tmp_path / "d24.json"
    path.write_text(json.dumps({
        "kind": "kraus", "labels": ["a", "b", "c"], "observation": {"a": -1, "b": 0, "c": 1},
        "kraus": [[[[z.real, z.imag] for z in row] for row in v] for v in channel.kraus]}))
    output = str(tmp_path / "missing" / "x.json")
    start = time.perf_counter()
    assert cli.main(["analyze", "--model", str(path), "--output", output]) == 1
    assert time.perf_counter() - start < 0.2
    assert capsys.readouterr().err.startswith(f"usage error: cannot write --output {output}: ")


def test_probed_output_keeps_its_bytes_when_the_command_fails(tmp_path):
    output = tmp_path / "report.json"
    output.write_bytes(b"an earlier report\n")
    run_cli("bound", "--flavor", "bernstein", "--model", model("two_block_ring.json"),
            "--n", "10", "--gamma", "0.1", "--output", str(output), expect=3)
    assert output.read_bytes() == b"an earlier report\n"


class TestSimulate:
    def test_zero_trials_usage_error(self):
        run_cli("simulate", "--model", model("ring.json"), "--n", "5",
                "--trials", "0", "--seed", "1", expect=1)

    @pytest.mark.parametrize("argv, flag", [
        (["--model", "ring.json", "--n", "10,20", "--gamma", "0.1"], "--n"),
        (["--model", "driven_qubit.json", "--t", "5,10", "--gamma", "0.1"], "--t"),
    ])
    def test_a_grid_of_horizons_is_a_usage_error(self, argv, flag, capsys):
        argv = [model(a) if a.endswith(".json") else a for a in argv]
        assert cli.main(["simulate", *argv, "--trials", "5"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"usage error: simulate samples one horizon; {flag} has 2 values\n"

    @pytest.mark.parametrize("argv", [
        ["--model", "ring.json", "--n", "5", "--gamma", "0.1"],
        ["--model", "driven_qubit.json", "--t", "5", "--gamma", "0.1"],
    ])
    def test_unopenable_dump_is_a_usage_error(self, argv, tmp_path, capsys, monkeypatch):
        def sampler(*args, **kwargs):
            raise AssertionError("sampled before opening --dump")

        monkeypatch.setattr(cli, "_discrete_tails", sampler)
        monkeypatch.setattr(cli, "_counting_chunks", sampler)
        argv = [model(a) if a.endswith(".json") else a for a in argv]
        dump = str(tmp_path / "missing" / "d.jsonl")
        assert cli.main(["simulate", *argv, "--trials", "10", "--dump", dump]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"usage error: cannot write --dump {dump}")

    def test_classical_model_is_a_usage_error(self, tmp_path, capsys):
        # a reducible chain: the model kind is judged before any initial state
        path = tmp_path / "identity_chain.json"
        path.write_text(json.dumps({"kind": "classical", "states": ["a", "b"],
                                    "transition": [[1.0, 0.0], [0.0, 1.0]]}))
        assert cli.main(["simulate", "--model", str(path), "--n", "5"]) == 1
        assert capsys.readouterr().err.startswith(
            "usage error: simulate supports kraus and gkls models")

    def test_byte_identical_reports(self, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        args = ["simulate", "--model", model("ring.json"), "--n", "10",
                "--gamma", "0.2,0.4", "--trials", "500", "--seed", "7"]
        run_cli(*args, "--output", str(out1))
        run_cli(*args, "--output", str(out2))
        assert out1.read_bytes() == out2.read_bytes()

    def test_dump_lines(self, tmp_path):
        dump = tmp_path / "records.jsonl"
        run_cli("simulate", "--model", model("ring.json"), "--n", "6",
                "--trials", "10", "--seed", "3", "--dump", str(dump))
        lines = dump.read_text().strip().splitlines()
        assert len(lines) == 10
        first = json.loads(lines[0])
        assert first["seed"] == 3 and len(first["outcomes"]) == 6

    def test_dump_records_reproduce_the_tails(self, tmp_path, capsys):
        dump = tmp_path / "ring.jsonl"
        report = main_report(capsys, "simulate", "--model", model("ring.json"), "--n", "16",
                             "--trials", "300", "--gamma", "0.1,0.25,0.5", "--seed", "4",
                             "--dump", str(dump))
        records = [json.loads(line) for line in dump.read_text().splitlines()]
        assert [r["index"] for r in records] == list(range(300))
        payoff = load_model(model("ring.json")).observation
        sums = np.asarray([sum(payoff[lab] for lab in r["outcomes"]) for r in records])
        for row in report["rows"]:
            tail = trajectory._empirical_tail(int(np.sum(sums >= 16 * row["gamma"] - 1e-12)),
                                              300)
            assert (row["tail"], row["ci_low"], row["ci_high"]) == (
                tail.estimate, tail.ci_low, tail.ci_high)

    def test_dump_with_two_gammas_samples_each_trajectory_once(self, tmp_path, capsys,
                                                              monkeypatch):
        sampled = []
        uniform_rows = trajectory._uniform_rows

        def counted(seed, indices, count):
            sampled.append(len(indices))
            return uniform_rows(seed, indices, count)
        monkeypatch.setattr(trajectory, "_uniform_rows", counted)
        main_report(capsys, "simulate", "--model", model("ring.json"), "--n", "8",
                    "--trials", "200", "--gamma", "0.1,0.25", "--seed", "1",
                    "--dump", str(tmp_path / "d.jsonl"))
        assert sum(sampled) == 200

    def test_counting_dump_matches_single_records(self, tmp_path, capsys):
        dump = tmp_path / "driven.jsonl"
        main_report(capsys, "simulate", "--model", model("driven_qubit.json"), "--t", "20",
                    "--trials", "40", "--gamma", "0.1", "--seed", "6", "--dump", str(dump))
        gen = load_model(model("driven_qubit.json")).generator
        rho0 = gkls_steady_state(gen).matrix
        for idx, line in enumerate(dump.read_text().splitlines()):
            record = json.loads(line)
            single = trajectory.sample_counting(gen, rho0, 20.0, 6, index=idx)
            assert record["index"] == idx
            assert record["events"] == [[time, str(lab)] for time, lab in single.events]

    def test_intensity_above_its_bound_is_a_numerical_failure(self, capsys, monkeypatch):
        # a thinning bound at half of lambda_max(L^* L) is below the intensity
        # of the excited state, which the driven qubit soon reaches
        monkeypatch.setattr(trajectory, "_RATE_MARGIN", -0.5)
        assert cli.main(["simulate", "--model", model("driven_qubit.json"), "--t", "50",
                         "--trials", "20"]) == cli.EXIT_NUMERIC
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: counting sampler: jump intensity ")
        assert "above its bound 0.25" in err

    @pytest.mark.parametrize("command", [
        ["simulate", "--t", "5", "--trials", "10", "--seed", "1"],
        ["verify", "--flavor", "counting", "--t", "5", "--gamma", "0.1", "--trials", "10"],
    ], ids=["simulate", "verify"])
    def test_exceptional_point_is_a_numerical_failure(self, command, tmp_path, capsys):
        # kappa = 2 Omega: the no-jump generator G is a Jordan block, and the
        # eigenbasis numpy returns for it has cond(P)^2 far above 1e10
        doc = json.loads(open(model("driven_qubit.json")).read())
        doc["jumps"][0][0][1] = [1.4142135623730951, 0.0]
        path = tmp_path / "driven_qubit_ep.json"
        path.write_text(json.dumps(doc))
        assert cli.main([command[0], "--model", str(path), *command[1:]]) == cli.EXIT_NUMERIC
        assert capsys.readouterr().err.startswith(
            "numerical failure: counting sampler: the no-jump generator's eigenbasis is too "
            "ill conditioned (cond^2 = ")

    def test_counting_single_trial_stderr_null(self, capsys):
        report = main_report(capsys, "simulate", "--model", model("driven_qubit.json"),
                             "--t", "10", "--trials", "1", "--seed", "2")
        assert report["empirical_rate_stderr"] is None

    def test_counting_rate_report(self):
        proc = run_cli("simulate", "--model", model("driven_qubit.json"),
                       "--t", "50", "--trials", "400", "--seed", "2",
                       "--gamma", "0.1")
        report = json.loads(proc.stdout)
        m = report["stationary_intensity"]
        rate = report["empirical_rate"]
        se = report["empirical_rate_stderr"]
        assert abs(rate - m) < 4 * se + 1e-3
        assert report["rows"][0]["tail_kind"] == "mc"

    def test_counting_solves_the_steady_state_once(self, capsys, monkeypatch):
        solves = counted(monkeypatch, cli, "gkls_steady_state")
        report = main_report(capsys, "simulate", "--model", model("driven_qubit.json"),
                             "--t", "2", "--trials", "5", "--seed", "1")
        assert report["stationary_intensity"] > 0.0
        assert len(solves) == 1


class TestVerify:
    def test_ring_bernstein_passes(self):
        proc = run_cli("verify", "--model", model("ring.json"), "--flavor",
                       "bernstein", "--n", "4,8,14", "--gamma", "0.2,0.5,0.8")
        report = json.loads(proc.stdout)
        assert report["summary"]["overall"] == "pass"
        assert all(row["verdict"] is True for row in report["rows"])
        assert all(row["tail_kind"] == "dp" for row in report["rows"])

    def test_corrupted_epsilon_detected(self):
        proc = run_cli("verify", "--model", model("ring.json"), "--flavor",
                       "bernstein", "--n", "8,14", "--gamma", "0.2,0.4",
                       "--override-epsilon", "60.0")
        report = json.loads(proc.stdout)
        assert report["summary"]["overall"] == "fail"
        assert any(row["verdict"] is False for row in report["rows"])

    def test_flux_verify(self):
        proc = run_cli("verify", "--model", model("two_state_chain.json"),
                       "--flavor", "flux", "--n", "6,12", "--gamma", "0.2,0.6")
        report = json.loads(proc.stdout)
        assert report["summary"]["overall"] == "pass"

    def test_inputs_off_unit_mass_within_their_checks(self, tmp_path, capsys):
        # the loaders accept a state within 1e-10 of unit trace and an initial
        # law within 1e-9 of unit sum; the exact DP checks it conserved that mass
        rho0 = tmp_path / "rho0.json"
        rho0.write_text(json.dumps([[[1 / 3 + 3e-11, 0], [0, 0], [0, 0]],
                                    [[0, 0], [1 / 3, 0], [0, 0]],
                                    [[0, 0], [0, 0], [1 / 3, 0]]]))
        main_report(capsys, "verify", "--model", model("ring.json"), "--flavor", "bernstein",
                    "--rho0", str(rho0), "--n", "16", "--gamma", "0.1")
        doc = json.loads(open(model("two_state_chain.json")).read())
        doc["initial"] = [0.5, 0.5 + 5e-10]
        chain = tmp_path / "chain.json"
        chain.write_text(json.dumps(doc))
        main_report(capsys, "verify", "--model", str(chain), "--flavor", "flux",
                    "--n", "16", "--gamma", "0.1")

    def test_counting_verify_mc(self):
        proc = run_cli("verify", "--model", model("driven_qubit.json"),
                       "--flavor", "counting", "--t", "30", "--gamma", "0.1,0.2",
                       "--trials", "400", "--seed", "5")
        report = json.loads(proc.stdout)
        assert report["summary"]["overall"] == "pass"
        assert all(row["ci_high"] is not None for row in report["rows"])

    def test_mc_sound_bound_is_not_a_violation(self):
        # bound 1.6e-4 with 0 hits in 500 trials lies inside the Wilson
        # interval [0, 7.6e-3]: inconclusive, never a violation
        proc = run_cli("verify", "--mc", "--model", model("driven_qubit.json"),
                       "--flavor", "counting", "--t", "400", "--gamma", "0.3",
                       "--trials", "500", "--seed", "0")
        report = json.loads(proc.stdout)
        assert all(row["verdict"] is not False for row in report["rows"])
        assert report["summary"]["violations"] == 0
        assert report["summary"]["overall"] in ("pass", "inconclusive")

    def test_mc_corrupted_epsilon_detected(self):
        # negative control: bounds 0.055 and 3.0e-8 lie below ci_low; n = 1500
        # is beyond the exact DP's budget, so the tails are sampled
        proc = run_cli("verify", "--mc", "--model", model("ring.json"), "--flavor",
                       "bernstein", "--n", "1500", "--gamma", "0.02,0.05",
                       "--trials", "500", "--override-epsilon", "60")
        report = json.loads(proc.stdout)
        assert all(row["tail_kind"] == "mc" for row in report["rows"])
        assert all(row["verdict"] is False for row in report["rows"])
        assert report["summary"] == {"checked": 2, "violations": 2, "overall": "fail"}

    def test_infeasible_without_mc(self, tmp_path):
        # an observation value that defeats the rational lattice makes the
        # exact tail infeasible; without --mc this is exit 5
        doc = json.loads(open(model("ring.json")).read())
        doc["observation"]["0+"] = 0.123456789012345
        bad = tmp_path / "crooked.json"
        bad.write_text(json.dumps(doc))
        run_cli("verify", "--model", str(bad), "--flavor", "bernstein",
                "--n", "40", "--gamma", "0.2", expect=5)

    @pytest.mark.parametrize("mc", [[], ["--mc"]], ids=["exact", "mc"])
    def test_off_lattice_flux_is_infeasible(self, mc, tmp_path, capsys):
        # the flux DP is the only flux tail: like bernstein and hoeffding off
        # the lattice, the request is infeasible, with or without --mc, and the
        # message names the payoff value as a plain float
        doc = json.loads(open(model("two_state_chain.json")).read())
        doc["flux"][1][2] = np.pi * 1e-7
        bad = tmp_path / "crooked_chain.json"
        bad.write_text(json.dumps(doc))
        assert cli.main(["verify", "--model", str(bad), "--flavor", "flux",
                         "--n", "10", "--gamma", "0.1", *mc]) == cli.EXIT_INFEASIBLE
        assert capsys.readouterr().err == (
            "infeasible request: exact flux tail is infeasible: payoff value "
            "3.141592653589793e-07 has no rational approximation with denominator "
            "<= 1000000; flux has no Monte Carlo oracle\n")

    @pytest.mark.parametrize("argv, owner", [
        (["--flavor", "bernstein", "--model", model("ring.json"), "--n", "16,64,256"],
         trajectory),
        (["--flavor", "hoeffding", "--model", model("ring.json"), "--n", "256,16,64,16"],
         trajectory),
        (["--flavor", "flux", "--model", model("two_state_chain.json"), "--n", "6,12,24"],
         classical),
    ])
    def test_one_dp_pass_per_command(self, argv, owner, capsys, monkeypatch):
        calls = counted(monkeypatch, owner, "_lattice_dp")
        report = main_report(capsys, "verify", *argv, "--gamma", "0.1,0.5")
        last = max(int(n) for n in argv[-1].split(","))
        assert len(calls) == 1 and max(calls[0][-1]) == last + (owner is classical)
        assert len(report["rows"]) >= 6
        assert all(row["tail_kind"] == "dp" for row in report["rows"])

    def test_dp_and_mc_rows_share_a_grid(self, capsys, monkeypatch):
        # the DP serves the horizons within its budget; the others are sampled
        calls = counted(monkeypatch, trajectory, "_lattice_dp")
        report = main_report(capsys, "verify", "--mc", "--flavor", "bernstein", "--model",
                             model("ring.json"), "--n", "16,2000,64", "--gamma", "0.3",
                             "--trials", "50")
        assert [row["tail_kind"] for row in report["rows"]] == ["dp", "mc", "dp"]
        assert len(calls) == 1 and list(calls[0][-1]) == [16, 64]

    def test_dp_budget_counts_the_reachable_support(self, tmp_path, capsys):
        # payoff {0, 1, 1000}: 100 outcomes reach at most C(102, 2) = 5151 of
        # the 100001 lattice points in the span, well within the DP budget
        channel = random_channel(6, 3, seed=1)
        labels = ["a", "b", "c"]
        payoff = {"a": 0.0, "b": 1.0, "c": 1000.0}
        path = tmp_path / "sparse.json"
        path.write_text(json.dumps({
            "kind": "kraus", "labels": labels, "observation": payoff,
            "kraus": [[[[z.real, z.imag] for z in row] for row in v] for v in channel.kraus]}))
        report = main_report(capsys, "verify", "--flavor", "bernstein", "--model", str(path),
                             "--n", "100", "--gamma", "0.1")
        loaded = load_model(str(path)).channel
        sigma = invariant_state(loaded).matrix
        law = score_distribution_dp(loaded, sigma, payoff, 100)
        mean = stationary_stats(loaded, sigma, payoff).mean
        assert [(row["tail_kind"], row["tail"]) for row in report["rows"]] == [
            ("dp", law.tail(mean + 0.1))]

    def test_dp_budget_counts_the_reduced_span(self, tmp_path, capsys):
        # the ring paying 2 (i mod 3) on outcome i runs on the lattice reduced by
        # its stride 2: 600 * 1201 * 3 = 2.2e6 is within the budget, and its
        # tails at twice the gamma are those of the payoff (i mod 3)
        with open(model("ring.json")) as fh:
            doc = json.load(fh)
        rows = []
        for scale, gammas in ((1, "0.1,0.25"), (2, "0.2,0.5")):
            doc["observation"] = {label: float(scale * (i % 3))
                                  for i, label in enumerate(doc["labels"])}
            path = tmp_path / f"ring_{scale}.json"
            path.write_text(json.dumps(doc))
            report = main_report(capsys, "verify", "--flavor", "bernstein", "--model", str(path),
                                 "--n", "600", "--gamma", gammas)
            rows.append([(row["tail_kind"], row["tail"]) for row in report["rows"]])
        assert rows[0] == rows[1] and [kind for kind, _ in rows[1]] == ["dp", "dp"]

    def test_dp_budget_counts_moves_not_outcomes(self, capsys):
        # the ring's six outcomes pay +1 or -1, so the DP runs two moves:
        # 1000 * 1001 * 2 = 2.0e6 is within the budget, 1500 * 1501 * 2 = 4.5e6 not
        report = main_report(capsys, "verify", "--mc", "--flavor", "bernstein", "--model",
                             model("ring.json"), "--n", "1000,1500", "--gamma", "0.1",
                             "--trials", "50")
        assert [row["tail_kind"] for row in report["rows"]] == ["dp", "mc"]

    def test_flux_beyond_the_dp_budget_is_infeasible(self, capsys):
        report = main_report(capsys, "verify", "--flavor", "flux", "--model",
                             model("two_state_chain.json"), "--n", "256", "--gamma", "0.1")
        assert [row["tail_kind"] for row in report["rows"]] == ["dp", "dp"]
        start = time.perf_counter()
        assert cli.main(["verify", "--flavor", "flux", "--model", model("two_state_chain.json"),
                         "--n", "200000", "--gamma", "0.1"]) == cli.EXIT_INFEASIBLE
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr().err == (
            "infeasible request: exact flux tail at n=200000 is beyond the DP budget; "
            "flux has no Monte Carlo oracle\n")

    def test_flux_at_a_huge_horizon_is_beyond_the_dp_budget(self):
        # the flux DP's move count is a numpy integer, and n * support * moves
        # overflows int64 at n = 1e12: the budget must still say no, not fail
        proc = run_cli("verify", "--flavor", "flux", "--model", model("two_state_chain.json"),
                       "--n", "1e12", "--gamma", "0.1", expect=cli.EXIT_INFEASIBLE)
        assert "is beyond the DP budget" in proc.stderr
        assert not cli._dp_affords(10**12, np.array([-1, 0, 1]), np.int64(2))

    @pytest.mark.parametrize("argv, budget", [
        (["simulate", "--model", "driven_qubit.json", "--t", "1e9", "--trials", "100"],
         "counting sampler at t=1e+09 with 100 trials is beyond the work budget: 5e+10 "),
        (["verify", "--flavor", "counting", "--model", "driven_qubit.json", "--t", "1e9",
          "--trials", "100"],
         "counting sampler at t=1e+09 with 100 trials is beyond the work budget: 5e+10 "),
    ], ids=["simulate", "verify-counting"])
    def test_long_horizons_are_beyond_the_work_budget(self, capsys, argv, budget):
        # the counting sampler proposes Lambda t times per trial
        argv[argv.index("--model") + 1] = model(argv[argv.index("--model") + 1])
        start = time.perf_counter()
        assert cli.main([*argv, "--gamma", "0.1"]) == cli.EXIT_INFEASIBLE
        assert time.perf_counter() - start < 1.0
        assert budget in capsys.readouterr().err

    def test_tail_is_of_the_centered_mean(self, capsys):
        # pi(f) = 0.4: the bound on P(mean - 0.4 >= 0.3) meets the tail at 0.7
        report = main_report(capsys, "verify", "--flavor", "hoeffding", "--model",
                             model("qubit_two_unitary.json"), "--n", "800", "--gamma", "0.3")
        loaded = load_model(model("qubit_two_unitary.json"))
        sigma = invariant_state(loaded.channel).matrix
        assert stationary_stats(loaded.channel, sigma, loaded.observation).mean == (
            pytest.approx(0.4, abs=1e-12))
        law = score_distribution_dp(loaded.channel, sigma, loaded.observation, 800)
        assert [row["tail"] for row in report["rows"]] == [law.tail(0.4 + 0.3)]
        assert report["summary"]["overall"] == "pass"

    def test_mc_tail_is_of_the_centered_mean(self, capsys):
        # n = 2000 is beyond the DP budget, so the tail is sampled
        report = main_report(capsys, "verify", "--mc", "--flavor", "hoeffding", "--model",
                             model("qubit_two_unitary.json"), "--n", "2000", "--gamma", "0.3",
                             "--trials", "40")
        assert [row["tail_kind"] for row in report["rows"]] == ["mc"]
        assert all(row["verdict"] is not False for row in report["rows"])

    @pytest.mark.parametrize("owner, trials_at, argv", [
        ("_discrete_tails", 5, ["--mc", "--flavor", "bernstein", "--model", model("ring.json"),
                                "--n", "2000"]),
        ("counting_counts", 3, ["--flavor", "counting", "--model",
                                model("driven_qubit.json"), "--t", "5,20"]),
    ], ids=["discrete", "counting"])
    def test_each_horizon_sampled_once(self, owner, trials_at, argv, capsys, monkeypatch):
        gammas = ["0.05", "0.1", "0.2"]
        singles = [main_report(capsys, "verify", *argv, "--gamma", g, "--trials", "40")
                   for g in gammas]
        calls = counted(monkeypatch, cli, owner)
        report = main_report(capsys, "verify", *argv, "--gamma", ",".join(gammas),
                             "--trials", "40")
        horizons = len(argv[-1].split(","))
        assert [call[trials_at] for call in calls] == [40] * horizons
        for g, single in zip(gammas, singles):
            assert [row for row in report["rows"] if row["gamma"] == float(g)] == single["rows"]

    def test_determinism(self, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        args = ["verify", "--model", model("driven_qubit.json"), "--flavor",
                "counting", "--t", "20", "--gamma", "0.15", "--trials", "200",
                "--seed", "9"]
        run_cli(*args, "--output", str(out1))
        run_cli(*args, "--output", str(out2))
        assert out1.read_bytes() == out2.read_bytes()


# flavor -> (its model in models/, its horizon flag, a 2-point horizon grid)
FLAVOR_MODELS = {
    "bernstein": ("ring.json", "--n", "4,9"),
    "hoeffding": ("ring.json", "--n", "4,9"),
    "counting": ("driven_qubit.json", "--t", "5,20"),
    "flux": ("two_state_chain.json", "--n", "4,9"),
    "tdm-bernstein": ("ring_tdm.json", "--n", "20,80"),
    "tdm-hoeffding": ("ring_tdm.json", "--n", "20,80"),
    "multitime": ("ring_tdm.json", "--n", "20,80"),
    "reducible": ("two_block_ring.json", "--n", "10,40"),
    "ci": ("ring_tdm.json", "--n", "100,1000"),
}
VERIFIABLE = ["bernstein", "hoeffding", "counting", "flux"]


def flavor_argv(command: str, flavor: str, horizons: str, gammas: str) -> list:
    name, flag, _ = FLAVOR_MODELS[flavor]
    argv = [command, "--flavor", flavor, "--model", model(name), flag, horizons,
            "--gamma", gammas]
    return argv + (["--trials", "100", "--seed", "2"] if command == "verify" else [])


def counted(monkeypatch, owner, name: str) -> list:
    """Patch ``owner.name`` with a wrapper that records each call; return the record."""
    calls = []
    original = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


@pytest.mark.parametrize("flavor", list(FLAVOR_MODELS))
def test_huge_gamma_is_the_exact_zero(flavor, capsys):
    """An exponent too large for a float falls to -inf: bound 0 (coverage 1 for ci), exit 0."""
    name, flag, horizons = FLAVOR_MODELS[flavor]
    report = main_report(capsys, "bound", "--flavor", flavor, "--model", model(name),
                         flag, horizons, "--gamma", "1e200,1e308")
    assert report["rows"]
    for row in report["rows"]:
        assert row["valid"] and row["exponent"] is None
        assert row["bound"] == (1.0 if flavor == "ci" else 0.0)


class TestFlavorTable:
    def test_parsers_offer_the_table(self):
        parser = cli.build_parser()
        subs = parser._subparsers._group_actions[0].choices
        flavor = {cmd: next(a for a in subs[cmd]._actions if a.dest == "flavor").choices
                  for cmd in ("bound", "verify")}
        assert list(flavor["bound"]) == list(FLAVOR_MODELS) == list(cli.FLAVORS)
        assert list(flavor["verify"]) == VERIFIABLE
        assert [name for name, entry in cli.FLAVORS.items() if entry.gap] == [
            "bernstein", "counting"]

    @pytest.mark.parametrize("command, flavor", [("bound", f) for f in FLAVOR_MODELS]
                             + [("verify", f) for f in VERIFIABLE])
    def test_grid_rows_are_the_single_point_rows(self, command, flavor, capsys):
        horizons = FLAVOR_MODELS[flavor][2]
        grid = main_report(capsys, *flavor_argv(command, flavor, horizons, "0.3,0.8"))
        points = [(float(h), g) for h in horizons.split(",") for g in (0.3, 0.8)]
        singles = []
        for h, g in points:
            single = main_report(capsys, *flavor_argv(command, flavor, f"{h:g}", str(g)))
            assert {k: v for k, v in single.items() if k not in ("command", "rows", "summary")} \
                == {k: v for k, v in grid.items() if k not in ("command", "rows", "summary")}
            singles += single["rows"]
        # grouped by grid point in report order (ci lists the grid theta by theta)
        grouped = [row for point in points for row in grid["rows"]
                   if (float(row["horizon"]), row["gamma"]) == point]
        assert len(grouped) == len(grid["rows"]) and grouped == singles

    @pytest.mark.parametrize("flavor, owner, name, expected", [
        pytest.param("multitime", spectral, "_restriction", 1,  # shared by the
                     id="multitime-one-restriction"),  # chain and the Poisson check
        ("multitime", spectral, "_certified_sup_norm_chain", 1),
        ("multitime", bounds, "_window_effects", 1),
        ("reducible", bounds, "bernstein_constants", 2),  # one per block
        ("reducible", bounds, "hoeffding_constants", 2),
        ("tdm-bernstein", bounds, "multiplicative_gap_report", 1),
        pytest.param("tdm-bernstein", modelfile, "kraus_family_deviation", 2,  # one per
                     id="tdm-bernstein-modelfile-check"),  # unravelling
        pytest.param("tdm-bernstein", bounds, "kraus_family_deviation", 2,  # one per
                     id="tdm-bernstein-schedule-check"),  # schedule entry
        ("tdm-hoeffding", bounds, "phi_power_norms", 1),
        pytest.param("tdm-hoeffding", modelfile, "kraus_family_deviation", 2,
                     id="tdm-hoeffding-modelfile-check"),
        pytest.param("tdm-hoeffding", bounds, "kraus_family_deviation", 2,
                     id="tdm-hoeffding-schedule-check"),
        ("flux", classical, "chain_pseudoresolvent_norm", 1),
        ("flux", cli, "stationary_distribution", 1),
    ])
    def test_constants_built_once_per_command(self, flavor, owner, name, expected, capsys,
                                              monkeypatch):
        calls = counted(monkeypatch, owner, name)
        name_, flag, _ = FLAVOR_MODELS[flavor]
        report = main_report(capsys, "bound", "--flavor", flavor, "--model", model(name_),
                             flag, "20,80,320", "--gamma", "0.5,0.8")
        assert len(report["rows"]) >= 6
        assert len(calls) == expected

    @pytest.mark.parametrize("command, flavor", [
        ("bound", "hoeffding"), ("bound", "flux"), ("bound", "tdm-bernstein"),
        ("bound", "tdm-hoeffding"), ("bound", "multitime"), ("bound", "reducible"),
        ("bound", "ci"), ("verify", "hoeffding"), ("verify", "flux"),
    ])
    def test_override_epsilon_needs_a_gap(self, command, flavor, capsys):
        argv = flavor_argv(command, flavor, "5", "0.3") + ["--override-epsilon", "60"]
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage error: --override-epsilon applies to the "
                                       "flavors with a spectral gap (bernstein, counting)")
        assert repr(flavor) in captured.err

    @pytest.mark.parametrize("flavor", ["bernstein", "counting"])
    def test_override_epsilon_on_a_gap_flavor(self, flavor, capsys):
        report = main_report(capsys, *flavor_argv("bound", flavor, "5", "0.3"),
                             "--override-epsilon", "60")
        assert report["constants"]["epsilon"] == 60.0
        assert "negative control" in report["constants"]["note"]

    @pytest.mark.parametrize("command", ["analyze", "bound", "verify", "simulate"])
    @pytest.mark.parametrize("token", ["channel=abc", "channel=nan", "channel=-1",
                                       "channel=0", "channel=inf", "foo=1"])
    def test_bad_tolerance_is_a_usage_error(self, command, token, capsys):
        argv = [command, "--model", model("ring.json"), "--tolerance", token]
        if command != "analyze":
            argv += ["--n", "5", "--gamma", "0.3"]
        if command in ("bound", "verify"):
            argv += ["--flavor", "bernstein"]
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage error: --tolerance")
        assert ("unknown name 'foo'" if token == "foo=1" else token.split("=")[1]) \
            in captured.err

    def test_tolerance_reaches_the_model(self, capsys, monkeypatch):
        seen = []
        original = cli.load_model

        def spy(path, tol_channel):
            seen.append(tol_channel)
            return original(path, tol_channel=tol_channel)

        monkeypatch.setattr(cli, "load_model", spy)
        report = main_report(capsys, "analyze", "--model", model("ring.json"),
                             "--tolerance", " channel = 1e-8")
        assert seen == [1e-8] and report["command"]["tolerances"] == {"channel": 1e-8}
