"""Inputs, job lists and output checks of the three workloads.

A job is one in-process call of ``qmcbounds.cli.main`` or of a public
library function.  Every job parses its model file and builds its objects
anew, as a one-shot command would, so nothing carries over between
rounds.  ``run`` is the timed call; ``check`` reads what it produced
afterwards and returns a list of problems (empty when the output is right).
Reference values come from ``reference``, which shares no code with the
program.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import reference as ref
# called through their modules, so a traced run sees the wrapped functions
from qmcbounds import cli, modelfile, trajectory

# payoffs of the generated channels, per label
GENERATED_LABELS = ("a", "b", "c")
SIGNED_PAYOFF = (1.0, 0.0, -1.0)
SPARSE_PAYOFF = (0.0, 1.0, 1000.0)



@dataclass
class Job:
    kind: str
    run: Callable[[], object]
    check: Callable[[object, dict], list]
    needed: int = 0          # trajectories the command needs (sampling only)
    known_fault: bool = False  # fails every run because of a known program fault


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

def random_kraus(seed: int, dim: int, k: int) -> list[np.ndarray]:
    """k Kraus operators cut from a random (k d) x d isometry."""
    rng = np.random.default_rng([seed, dim, k])
    g = rng.standard_normal((k * dim, dim)) + 1j * rng.standard_normal((k * dim, dim))
    q, _ = np.linalg.qr(g)
    return [q[i * dim:(i + 1) * dim] for i in range(k)]


def write_channel(path: str, kraus, payoff) -> None:
    doc = {
        "kind": "kraus",
        "labels": list(GENERATED_LABELS),
        "kraus": [[[[float(z.real), float(z.imag)] for z in row] for row in v] for v in kraus],
        "observation": dict(zip(GENERATED_LABELS, payoff)),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


GENERATED = {
    # workload -> [(file stem, dim, payoff)]
    "certify": [("gen8", 8, SIGNED_PAYOFF), ("gen12", 12, SIGNED_PAYOFF),
                ("gen16", 16, SIGNED_PAYOFF)],
    "exact-oracle": [("gen6", 6, SIGNED_PAYOFF), ("gen6-sparse", 6, SPARSE_PAYOFF)],
    "sampling": [("gen8", 8, SIGNED_PAYOFF)],
}


def write_inputs(workload: str, seed: int, workdir: str) -> None:
    """Seeded random channels (k = 3) written as model files."""
    for stem, dim, payoff in GENERATED[workload]:
        write_channel(os.path.join(workdir, f"{stem}.json"), random_kraus(seed, dim, 3), payoff)


# ---------------------------------------------------------------------------
# shared checks
# ---------------------------------------------------------------------------

def _close(a: float, b: float, rel: float = 1e-9, abs_: float = 1e-12) -> bool:
    return abs(a - b) <= abs_ + rel * max(abs(a), abs(b))


def _bound_rows(report: dict) -> list[str]:
    """Bounds in [0, 1] and non-increasing in the horizon, per flavor and gamma."""
    problems = []
    series: dict = {}
    for row in report["rows"]:
        bound = row["bound"]
        if bound is None or not 0.0 <= bound <= 1.0:
            problems.append(f"bound {bound!r} outside [0, 1] at {row['horizon']}, {row['gamma']}")
            continue
        series.setdefault((row["flavor"], row["gamma"]), []).append((row["horizon"], bound))
    for key, points in series.items():
        points.sort()
        for (h0, b0), (h1, b1) in zip(points, points[1:]):
            if b1 > b0 + 1e-15:
                problems.append(f"{key}: bound rises from {b0!r} at {h0} to {b1!r} at {h1}")
    if not report["rows"]:
        problems.append("no rows")
    return problems


def _epsilon_ok(eps) -> list[str]:
    return [] if eps is not None and 0.0 < eps <= 1.0 else [f"epsilon {eps!r} not in (0, 1]"]


def _bernstein_formula(c: dict, gamma: float, n: int) -> float:
    """N_rho exp(-n gamma^2 eps / (6 b^2) h(10 c gamma / (3 b^2))), h(x) = 1/(sqrt(1+x) + x/2 + 1)."""
    b2 = c["b"] ** 2
    x = 10.0 * c["c"] * gamma / (3.0 * b2)
    h = 1.0 / (math.sqrt(1.0 + x) + 0.5 * x + 1.0)
    return min(1.0, c["n_rho"] * math.exp(-n * gamma**2 * c["epsilon"] / (6.0 * b2) * h))


def _hoeffding_formula(c: dict, gamma: float, n: int) -> float:
    g = c["g"]
    if n * gamma < 2.0 * g:
        return 1.0
    if n == 1:
        return 0.0
    return min(1.0, math.exp(-((n * gamma - 2.0 * g) ** 2) / (2.0 * (n - 1) * g**2)))


def _moments_match(report: dict, refs: dict, stem: str) -> list[str]:
    b, c = refs[f"moments:{stem}"]
    got = report["constants"]
    if _close(got["b"], b, 1e-7, 1e-10) and _close(got["c"], c, 1e-7, 1e-10):
        return []
    return [f"(b, c) = ({got['b']!r}, {got['c']!r}), expected ({b!r}, {c!r})"]


def _iid_plus_minus(path: str):
    """P(+1) of a model whose +1 outcomes occur i.i.d. (checked), and its exact tail."""
    doc = ref.read_json(path)
    ups = [i for i, lab in enumerate(doc["labels"]) if doc["observation"][lab] == 1.0]
    p = ref.class_probability(ref.kraus_from_doc(doc), ups)
    return p, lambda n, gamma: ref.plus_minus_tail(int(n), p, gamma)


def _driven_intensity(path: str) -> float:
    """Stationary click rate of a model with H = omega/2 sx and L = sqrt(kappa) s-."""
    doc = ref.read_json(path)
    omega = 2.0 * ref.matrix_from_doc(doc["hamiltonian"])[0, 1].real
    kappa = abs(ref.matrix_from_doc(doc["jumps"][0])[0, 1]) ** 2
    return ref.driven_qubit_intensity(omega, kappa)


# ---------------------------------------------------------------------------
# job builders
# ---------------------------------------------------------------------------

def _cli_job(kind: str, argv: list, out: str, check, needed: int = 0,
             known_fault: bool = False) -> Job:
    def run():
        return cli.main(argv + ["--output", out])

    def check_output(rc, ctx):
        if rc != 0:
            return [f"exit code {rc}"]
        with open(out, "r", encoding="utf-8") as fh:
            report = json.load(fh)
        return check(report, ctx)

    return Job(kind, run, check_output, needed, known_fault)


def _analyze_kraus(stem: str, refs: dict, irreducible: bool = True):
    def check(report, ctx):
        diag = report["diagnostics"]
        problems = []
        if diag.get("irreducible") is not irreducible:
            return [f"irreducible = {diag.get('irreducible')!r}"]
        if not irreducible:
            blocks = refs[f"blocks:{stem}"]
            if diag.get("blocks") != blocks or diag.get("fixed_space_dimension") != blocks:
                problems.append(f"blocks = {diag.get('blocks')!r}, fixed space dimension "
                                f"{diag.get('fixed_space_dimension')!r}, expected {blocks}")
            return problems
        sigma = np.asarray(diag["invariant_state_diagonal"])
        if np.max(np.abs(sigma - refs[f"sigma_diag:{stem}"])) > 1e-8:
            problems.append("invariant state diagonal differs from the reference fixed point")
        problems += _epsilon_ok(diag.get("epsilon_multiplicative"))
        lower, upper = diag["pseudoresolvent_lower"], diag["pseudoresolvent_certified"]
        if not upper >= lower:
            problems.append(f"certified {upper!r} < lower estimate {lower!r}")
        ctx[f"certified:{stem}"] = upper
        return problems
    return check


def _bernstein_check(stem: str, refs: dict, tail=None):
    def check(report, ctx):
        c = report["constants"]
        problems = _bound_rows(report) + _epsilon_ok(c.get("epsilon")) + _moments_match(report, refs, stem)
        for row in report["rows"]:
            expected = _bernstein_formula(c, row["gamma"], row["horizon"])
            if not _close(row["bound"], expected):
                problems.append(f"bernstein bound {row['bound']!r} != formula {expected!r}")
            if tail is not None and row["bound"] < tail(row["horizon"], row["gamma"]) - 1e-12:
                problems.append(f"bound {row['bound']!r} below the exact tail at {row['horizon']}")
        return problems
    return check


def _hoeffding_check(stem: str, refs: dict, tail=None):
    def check(report, ctx):
        c = report["constants"]
        problems = _bound_rows(report) + _moments_match(report, refs, stem)
        certified = ctx.get(f"certified:{stem}")
        if certified is None or not _close(c["g"], (1.0 + certified) * c["c"], 1e-12):
            problems.append(f"g = {c['g']!r} is not (1 + {certified!r}) c")
        for row in report["rows"]:
            expected = _hoeffding_formula(c, row["gamma"], row["horizon"])
            if not _close(row["bound"], expected):
                problems.append(f"hoeffding bound {row['bound']!r} != formula {expected!r}")
            if tail is not None and row["bound"] < tail(row["horizon"], row["gamma"]) - 1e-12:
                problems.append(f"bound {row['bound']!r} below the exact tail at {row['horizon']}")
        return problems
    return check


def _verify_dp_check(tail):
    """Every exact tail equals the reference, dominated by its bound, verdict pass."""
    def check(report, ctx):
        problems = _bound_rows(report)
        for row in report["rows"]:
            expected = tail(row["horizon"], row["gamma"])
            if row["tail_kind"] != "dp" or not _close(row["tail"], expected, 1e-9, 1e-13):
                problems.append(f"tail {row['tail']!r} at {row['horizon']}, {row['gamma']} "
                                f"!= reference {expected!r}")
            if row["bound"] < expected - 1e-12 or row["verdict"] is not True:
                problems.append(f"bound {row['bound']!r} vs tail {expected!r}: verdict {row['verdict']!r}")
        if report["summary"]["overall"] != "pass":
            problems.append(f"summary {report['summary']!r}")
        return problems
    return check


def _within(estimate: float, exact: float, trials: int, what: str) -> list[str]:
    """An MC estimate within 5 standard errors (floor: one hit) of the exact value."""
    se = max(math.sqrt(exact * (1.0 - exact) / trials), 1.0 / trials)
    if abs(estimate - exact) <= 5.0 * se:
        return []
    return [f"{what}: estimate {estimate!r} vs exact {exact!r} ({trials} trials)"]


def _mc_rows(report: dict, trials: int, tail) -> list[str]:
    problems = []
    for row in report["rows"]:
        if not row["ci_low"] <= row["tail"] <= row["ci_high"]:
            problems.append(f"tail {row['tail']!r} outside its interval")
        problems += _within(row["tail"], tail(row["horizon"], row["gamma"]), trials,
                            f"tail at gamma {row['gamma']}")
    if not report["rows"]:
        problems.append("no rows")
    return problems


def _library_dp(kind: str, run, check) -> Job:
    return Job(kind, run, lambda dist, ctx: check(dist))


def _law_checks(dist, refs_law=None, laplace=None) -> list[str]:
    problems = []
    total = float(dist.masses.sum())
    if abs(total - 1.0) > 1e-10:
        problems.append(f"masses sum to {total!r}")
    if refs_law is not None:
        scores, masses = refs_law
        got = dict(zip(dist.numerators.tolist(), dist.masses.tolist()))
        worst = max(abs(got.get(int(s), 0.0) - m) for s, m in zip(scores, masses))
        if worst > 1e-12 or set(got) - set(int(s) for s in scores):
            problems.append(f"law differs from the reference by {worst:.3e}")
    for u, expected in (laplace or {}).items():
        value = dist.log_laplace(u)
        if not _close(value, expected, 1e-9, 1e-10):
            problems.append(f"log Laplace at u={u}: {value!r} != tilted power {expected!r}")
    return problems


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def certify(models: str, workdir: str, seed: int) -> list:
    """Spectral constants at scale; no DP and no sampling."""
    refs: dict = {}
    paths = {"ring": f"{models}/ring.json"}
    for stem in ("gen8", "gen12", "gen16"):
        paths[stem] = f"{workdir}/{stem}.json"
    for stem, path in paths.items():
        doc = ref.read_json(path)
        kraus = ref.kraus_from_doc(doc)
        payoff = [doc["observation"][lab] for lab in doc["labels"]]
        refs[f"moments:{stem}"] = ref.payoff_moments(kraus, payoff)
        refs[f"sigma_diag:{stem}"] = np.diag(ref.stationary_state(kraus)).real
    refs["blocks:two_block_ring"] = ref.fixed_space_dimension(
        ref.kraus_from_doc(ref.read_json(f"{models}/two_block_ring.json")))
    _, ring_tail = _iid_plus_minus(paths["ring"])
    intensity = _driven_intensity(f"{models}/driven_qubit.json")

    out = lambda name: f"{workdir}/{name}.out.json"  # noqa: E731
    jobs = []
    grids = {"ring": ("100,400,1600", "0.1,0.2", "0.5,0.8")}
    for stem, path in paths.items():
        n_grid, g_bern, g_hoef = grids.get(stem, ("100,1000,10000", "0.05,0.1", "0.2,0.5"))
        tail = ring_tail if stem == "ring" else None
        jobs += [
            _cli_job(f"analyze:{stem}", ["analyze", "--model", path], out(f"analyze-{stem}"),
                     _analyze_kraus(stem, refs)),
            _cli_job(f"bernstein:{stem}",
                     ["bound", "--flavor", "bernstein", "--model", path, "--n", n_grid,
                      "--gamma", g_bern], out(f"bernstein-{stem}"),
                     _bernstein_check(stem, refs, tail)),
            _cli_job(f"hoeffding:{stem}",
                     ["bound", "--flavor", "hoeffding", "--model", path, "--n", n_grid,
                      "--gamma", g_hoef], out(f"hoeffding-{stem}"),
                     _hoeffding_check(stem, refs, tail)),
        ]

    def driven_analyze(report, ctx):
        c = report["diagnostics"]["counting_constants"]
        problems = [] if _close(c["m"], intensity, 1e-8) else [f"m = {c['m']!r}, expected {intensity!r}"]
        if not c["epsilon"] > 0.0 or not c["hypothesis_ok"]:
            problems.append(f"additive gap {c['epsilon']!r}")
        return problems

    def driven_bound(report, ctx):
        c = report["constants"]
        problems = _bound_rows(report)
        if not _close(c["m"], intensity, 1e-8):
            problems.append(f"m = {c['m']!r}, expected {intensity!r}")
        return problems

    block = f"{models}/two_block_ring.json"
    tdm = f"{models}/ring_tdm.json"
    jobs += [
        _cli_job("analyze:driven_qubit", ["analyze", "--model", f"{models}/driven_qubit.json"],
                 out("analyze-driven"), driven_analyze),
        _cli_job("counting:driven_qubit",
                 ["bound", "--flavor", "counting", "--model", f"{models}/driven_qubit.json",
                  "--t", "100,1000,10000", "--gamma", "0.05,0.1"], out("counting-driven"),
                 driven_bound),
        _cli_job("analyze:two_block_ring", ["analyze", "--model", block], out("analyze-block"),
                 _analyze_kraus("two_block_ring", refs, irreducible=False)),
        _cli_job("reducible:two_block_ring",
                 ["bound", "--flavor", "reducible", "--model", block, "--n", "100,400",
                  "--gamma", "0.2"], out("reducible-block"), lambda r, ctx: _bound_rows(r)),
        _cli_job("tdm-hoeffding:ring_tdm",
                 ["bound", "--flavor", "tdm-hoeffding", "--model", tdm, "--n", "20,80",
                  "--gamma", "0.5"], out("tdm-hoeffding"), lambda r, ctx: _bound_rows(r)),
        _cli_job("multitime:ring_tdm",
                 ["bound", "--flavor", "multitime", "--model", tdm, "--n", "20,80",
                  "--gamma", "0.5"], out("multitime"), lambda r, ctx: _bound_rows(r)),
    ]
    return jobs


def exact_oracle(models: str, workdir: str, seed: int) -> list:
    """Lattice DP up to n = 256 while the spectral work stays at d <= 6."""
    ring = f"{models}/ring.json"
    p_up, ring_tail = _iid_plus_minus(ring)

    chain_doc = ref.read_json(f"{models}/two_state_chain.json")
    states = chain_doc["states"]
    transition = np.asarray(chain_doc["transition"], dtype=float)
    flux = np.zeros_like(transition, dtype=int)
    for a, b, v in chain_doc["flux"]:
        flux[states.index(a), states.index(b)] = int(v)
    nu = ref.chain_stationary(transition)
    flux_mean = float(np.sum(nu[:, None] * transition * flux))

    def flux_tail(n, gamma):
        return ref.flux_tail(transition, flux, nu, int(n), n * (flux_mean + gamma))

    # windows of ring_tdm pay 1 exactly when both outcomes hop up
    tdm = f"{models}/ring_tdm.json"
    tdm_doc = ref.read_json(tdm)
    up = {lab for lab in tdm_doc["labels"] if tdm_doc["observation"][lab] == 1.0}
    for (a, b), v in tdm_doc["observation_windows"]:
        if v != float(a in up and b in up):
            raise ValueError("ring_tdm windows are not the adjacent-up indicator")
    tdm_kraus = ref.kraus_from_doc(tdm_doc)
    p_tdm = ref.class_probability(tdm_kraus, [tdm_doc["labels"].index(lab) for lab in up])
    n_windowed = 64
    window_law = ref.adjacent_pair_law(p_tdm, n_windowed)

    n_narrow, n_sparse = 96, 40
    laplace = {}
    for stem, n in (("gen6", n_narrow), ("gen6-sparse", n_sparse)):
        doc = ref.read_json(f"{workdir}/{stem}.json")
        kraus = ref.kraus_from_doc(doc)
        payoff = [doc["observation"][lab] for lab in doc["labels"]]
        rho0 = np.eye(6) / 6.0
        scale = 0.3 / max(abs(v) for v in payoff)
        laplace[stem] = {u: ref.tilted_log_laplace(kraus, payoff, rho0, n, u)
                         for u in (-scale, scale)}

    def dp_job(stem, n):
        def run():
            model = modelfile.load_model(f"{workdir}/{stem}.json")
            rho0 = np.eye(model.channel.dim) / model.channel.dim
            return trajectory.score_distribution_dp(model.channel, rho0, model.observation, n)
        return _library_dp(f"dp:{stem}", run, lambda dist: _law_checks(dist, laplace=laplace[stem]))

    def windowed_run():
        model = modelfile.load_model(tdm)
        rho0 = np.eye(model.channel.dim) / model.channel.dim
        return trajectory.score_distribution_windowed(
            model.channel, rho0, model.observation_windows, n_windowed)

    out = lambda name: f"{workdir}/{name}.out.json"  # noqa: E731
    jobs = [
        _cli_job("verify-bernstein:ring",
                 ["verify", "--flavor", "bernstein", "--model", ring, "--n", "16,64,256",
                  "--gamma", "0.1,0.25"], out("verify-bernstein"), _verify_dp_check(ring_tail)),
        _cli_job("verify-hoeffding:ring",
                 ["verify", "--flavor", "hoeffding", "--model", ring, "--n", "32,128",
                  "--gamma", "0.5,0.75"], out("verify-hoeffding"), _verify_dp_check(ring_tail)),
        _cli_job("verify-flux:two_state_chain",
                 ["verify", "--flavor", "flux", "--model", f"{models}/two_state_chain.json",
                  "--n", "64,128,256", "--gamma", "0.05,0.1"], out("verify-flux"),
                 _verify_dp_check(flux_tail)),
        _library_dp("windowed:ring_tdm", windowed_run,
                    lambda dist: _law_checks(dist, (np.arange(n_windowed + 1), window_law))),
        dp_job("gen6", n_narrow),
        dp_job("gen6-sparse", n_sparse),
    ]
    return jobs


def sampling(models: str, workdir: str, seed: int) -> list:
    """Discrete and counting Monte Carlo samplers, plus the known MC-verdict fault."""
    ring = f"{models}/ring.json"
    p_up, ring_tail = _iid_plus_minus(ring)

    gen = f"{workdir}/gen8.json"
    gen_doc = ref.read_json(gen)
    n_gen = 12
    gen_kraus = ref.kraus_from_doc(gen_doc)
    scores, masses = ref.integer_score_law(
        gen_kraus, [gen_doc["observation"][lab] for lab in gen_doc["labels"]],
        ref.stationary_state(gen_kraus), n_gen)

    def gen_tail(n, gamma):
        return float(masses[scores >= gamma * n - 1e-9].sum())

    intensity = _driven_intensity(f"{models}/driven_qubit.json")

    poisson_doc = ref.read_json(f"{models}/poisson_qubit.json")
    counted = ref.matrix_from_doc(poisson_doc["jumps"][
        poisson_doc["labels"].index(poisson_doc["count_label"])])
    effect = counted.conj().T @ counted
    rate = float(effect[0, 0].real)
    if np.max(np.abs(effect - rate * np.eye(2))) > 1e-12:
        raise ValueError("poisson_qubit's counted detector is not state independent")

    t_count, trials_count = 50.0, 1000
    ring_n, ring_trials, dump_trials = 64, 4096, 256
    sim_seed = str(seed)

    def driven_check(report, ctx):
        problems = []
        if not _close(report["stationary_intensity"], intensity, 1e-8):
            problems.append(f"m = {report['stationary_intensity']!r}, expected {intensity!r}")
        se = report["empirical_rate_stderr"]
        if not se > 0.0 or abs(report["empirical_rate"] - intensity) > 5.0 * se:
            problems.append(f"rate {report['empirical_rate']!r} +- {se!r} vs m = {intensity!r}")
        return problems

    def poisson_tail(t, gamma):
        return ref.poisson_upper_tail(rate * t, math.ceil(t * (rate + gamma) - 1e-12))

    def poisson_check(report, ctx):
        problems = []
        if not _close(report["stationary_intensity"], rate, 1e-8):
            problems.append(f"m = {report['stationary_intensity']!r}, expected {rate!r}")
        se = math.sqrt(rate / t_count / trials_count)
        if abs(report["empirical_rate"] - rate) > 5.0 * se:
            problems.append(f"rate {report['empirical_rate']!r} vs Poisson {rate!r}")
        return problems + _mc_rows(report, trials_count, poisson_tail)

    dump_path = f"{workdir}/dump.jsonl"

    def dump_check(report, ctx):
        problems = _mc_rows(report, dump_trials, ring_tail)
        with open(dump_path, "r", encoding="utf-8") as fh:
            records = [json.loads(line) for line in fh]
        if [r["index"] for r in records] != list(range(dump_trials)):
            return problems + ["dump does not hold one record per trial"]
        payoff = ref.read_json(ring)["observation"]
        sums = np.asarray([sum(payoff[lab] for lab in r["outcomes"]) for r in records])
        if any(len(r["outcomes"]) != ring_n for r in records):
            problems.append("dumped record of the wrong length")
        for row in report["rows"]:
            # the dump replays the same per-trajectory streams as the tail
            hits = int(np.sum(sums >= ring_n * row["gamma"] - 1e-12))
            if hits / dump_trials != row["tail"]:
                problems.append(f"dumped trajectories give tail {hits / dump_trials!r}, "
                                f"report {row['tail']!r}")
        ups = float(np.mean([payoff[lab] == 1.0 for r in records for lab in r["outcomes"]]))
        problems += _within(ups, p_up, dump_trials * ring_n, "up-hop frequency")
        return problems

    def known_fault_check(report, ctx):
        # a row may be called a violation only when its bound is below ci_low
        return [f"sound bound {row['bound']!r} (ci_low {row['ci_low']!r}) called a violation"
                for row in report["rows"]
                if row["verdict"] is False and not row["bound"] < row["ci_low"]]

    out = lambda name: f"{workdir}/{name}.out.json"  # noqa: E731
    jobs = [
        _cli_job("simulate:ring",
                 ["simulate", "--model", ring, "--n", str(ring_n), "--trials", str(ring_trials),
                  "--gamma", "0.1,0.25", "--seed", sim_seed], out("simulate-ring"),
                 lambda r, ctx: _mc_rows(r, ring_trials, ring_tail), needed=ring_trials),
        _cli_job("simulate:gen8",
                 ["simulate", "--model", gen, "--n", str(n_gen), "--trials", "1024",
                  "--gamma", "0.1,0.25", "--seed", sim_seed], out("simulate-gen8"),
                 lambda r, ctx: _mc_rows(r, 1024, gen_tail), needed=1024),
        _cli_job("simulate:driven_qubit",
                 ["simulate", "--model", f"{models}/driven_qubit.json", "--t", str(t_count),
                  "--trials", str(trials_count), "--gamma", "0.05,0.1", "--seed", sim_seed],
                 out("simulate-driven"), driven_check, needed=trials_count),
        _cli_job("simulate:poisson_qubit",
                 ["simulate", "--model", f"{models}/poisson_qubit.json", "--t", str(t_count),
                  "--trials", str(trials_count), "--gamma", "0.05,0.13", "--seed", sim_seed],
                 out("simulate-poisson"), poisson_check, needed=trials_count),
        _cli_job("simulate-dump:ring",
                 ["simulate", "--model", ring, "--n", str(ring_n), "--trials", str(dump_trials),
                  "--gamma", "0.1,0.25", "--seed", sim_seed, "--dump", dump_path],
                 out("simulate-dump"), dump_check, needed=dump_trials),
        # cmd_verify's Monte Carlo path calls a row a violation whenever
        # bound < ci_high, so this sound bound with 0 hits fails; inputs and
        # seed are fixed, so it fails the same way on every run
        _cli_job("verify-mc-counting:driven_qubit",
                 ["verify", "--mc", "--flavor", "counting", "--model",
                  f"{models}/driven_qubit.json", "--t", "400", "--gamma", "0.3",
                  "--trials", "500", "--seed", "0"], out("verify-mc-counting"),
                 known_fault_check, needed=500, known_fault=True),
    ]
    return jobs


WORKLOADS = {"certify": certify, "exact-oracle": exact_oracle, "sampling": sampling}

# the parts of probe.py shaped like each workload's dominant work: dense
# LAPACK on superoperator matrices for certify; Python loops (a dict over
# lattice scores, or over trajectory steps) around small numpy matrix
# products for the DP and the samplers
PROBE_PARTS = {"certify": ("lapack",), "exact-oracle": ("python", "numpy"),
               "sampling": ("python", "numpy")}
