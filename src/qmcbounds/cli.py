"""Batch command-line interface.

Subcommands
-----------
analyze   -- validation residuals, invariant state, irreducibility and gap
             diagnostics, pseudoresolvent norms, block decomposition.
bound     -- evaluate a bound flavor over an (n or t) x gamma grid.
simulate  -- Monte Carlo tails / counting records at one horizon, optional dump.
verify    -- bounds against exact DP or Monte Carlo tails, with dominance
             verdicts per grid point.  A tail is that of the centered mean
             (1/n) sum f - pi(f) (flux: of the edge flux mean minus its
             stationary value).  An exact tail gives true or false.  A
             Monte Carlo tail gives false (violation) only for a bound below
             the Wilson interval's ci_low, null (inconclusive) for a bound
             inside [ci_low, ci_high), and true otherwise.  The summary's
             "overall" is "fail" if any row is false, "inconclusive" if some
             row is null, and "pass" otherwise; "violations" counts the false
             rows.

Flavors come from one table, ``FLAVORS``.  Each builds its model constants
once per command; the grid loop then evaluates the closed form at every
(horizon, gamma).  Besides --model, --gamma, --format, --output and
--tolerance, a flavor reads (x = reads, c = checks but leaves out of the bound):

    flavor          --n --t --rho0 --two-sided --override-epsilon  verify
    bernstein        x        x        x            x              DP / --mc
    hoeffding        x        x        x                           DP / --mc
    counting             x    x        x            x              MC
    flux             x                 x                           exact DP
    tdm-bernstein    x        x        x
    tdm-hoeffding    x        c        x
    multitime        x                 x
    reducible        x        x
    ci               x

--override-epsilon on a flavor without a gap is a usage error.  verify
reads --trials and --seed for Monte Carlo tails.

Reports are emitted as a single strict JSON document, a non-finite number as
null (``--format structured``, default), or as CSV rows with the fixed header

    flavor,horizon,gamma,bound,exponent,valid,reason,tail,tail_kind,ci_low,ci_high,verdict

Every randomized command echoes its seed; rerunning with the same arguments
reproduces the report byte for byte.  Exit codes: 0 success, 1 usage,
2 model parse failure, 3 hypothesis failure (an unfaithful stationary state
among them), 4 numerical runtime failure, 5 infeasible request.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from contextlib import nullcontext
from dataclasses import replace
from functools import cache, partial
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .bounds import (
    BoundConstants,
    BoundResult,
    _stationary_intensity,
    bernstein_bound,
    bernstein_constants,
    confidence_lower_bound,
    counting_bound,
    counting_constants,
    hoeffding_bound,
    hoeffding_constants,
    multitime_bound,
    multitime_constants,
    reducible_constants,
    reducible_mixture,
    stationary_stats,
    time_dependent_bound,
    time_dependent_constants,
)
from .classical import (
    chain_pseudoresolvent_norm,
    flux_bernstein_bound,
    flux_bernstein_constants,
    flux_hoeffding_bound,
    flux_hoeffding_constants,
    flux_matrix,
    is_chain_irreducible,
    stationary_distribution,
    _centered_flux,
    _flux_laws,
)
from .fixtures import ring_channel
from .modelfile import Model, ModelParseError, load_model, parse_complex_matrix
from .operators import TAU_CHANNEL, DensityMatrix, NotFaithfulError, observation_vector
from .spectral import (
    FixedSpaceError,
    HypothesisError,
    InconclusiveIrreducibilityError,
    additive_gap_report,
    decompose_invariant_subspaces,
    gkls_steady_state,
    invariant_state,
    is_irreducible,
    multiplicative_gap_report,
    pseudoresolvent_norm,
    _peripheral_is_one,
)
from .trajectory import (
    EmpiricalTail,
    FilterCollapseError,
    LatticeError,
    _MC_CHUNK,
    counting_counts,
    _counting_chunks,
    _discrete_tails,
    _lattice_reduction,
    _rate_tails,
    _score_lattice,
    _score_laws,
    _thinning_rate,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_HYPOTHESIS = 3
EXIT_NUMERIC = 4
EXIT_INFEASIBLE = 5

CSV_HEADER = ["flavor", "horizon", "gamma", "bound", "exponent", "valid", "reason",
              "tail", "tail_kind", "ci_low", "ci_high", "verdict"]


class UsageError(ValueError):
    pass


class InfeasibleError(RuntimeError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); usage failures are exit 1
        raise UsageError(message)


def _need(value, what: str):
    if value is None:
        raise UsageError(f"this flavor requires {what}")
    return value


def _float_grid(text: str, name: str, low: float = -math.inf,
                closed: bool = False) -> list[float]:
    """Non-empty comma grid of finite values above ``low`` (or at it, if ``closed``)."""
    tokens = _need(text, name).split(",")
    try:
        values = [float(tok) for tok in tokens if tok.strip()]
    except ValueError as exc:
        raise UsageError(f"bad grid {text!r}: {exc}") from exc
    if not values:
        raise UsageError(f"bad grid {text!r}: no values")
    for v in values:
        if not math.isfinite(v):
            raise UsageError(f"{name} values must be finite, got {v!r}")
        if v < low or (v == low and not closed):
            raise UsageError(f"{name} values must be {'>=' if closed else '>'} {low:g}, got {v!r}")
    return values


def _int_grid(text: str, name: str) -> list[int]:
    """Non-empty comma grid of step counts, each rounded and >= 1."""
    values = [int(round(v)) for v in _float_grid(text, name)]
    if min(values) < 1:
        raise UsageError(f"{name} values must be >= 1, got {min(values)}")
    return values


def _positive_float(text: str) -> float:
    """argparse type: a finite value > 0."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value > 0.0):
        raise argparse.ArgumentTypeError(f"expected a finite value > 0, got {text!r}")
    return value


def _parse_tolerances(pairs: list[str]) -> dict:
    """``name=value`` pairs; the only name is ``channel``, its value finite and > 0."""
    out = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise UsageError(f"--tolerance expects name=value, got {pair!r}")
        name, value = pair.split("=", 1)
        if name.strip() != "channel":
            raise UsageError(f"--tolerance: unknown name {name.strip()!r}; the only one is "
                             "'channel'")
        try:
            out["channel"] = _positive_float(value)
        except argparse.ArgumentTypeError as exc:
            raise UsageError(f"--tolerance channel: {exc}") from exc
    return out


def _load_model(args) -> Model:
    return load_model(args.model, tol_channel=args.tolerances.get("channel", TAU_CHANNEL))


def _resolve_rho0(spec: str, model: Model, sigma: DensityMatrix | None = None):
    """Initial state named by --rho0; ``sigma`` is the invariant state if already solved."""
    if spec == "stationary":
        if sigma is None:
            sigma = (invariant_state(model.channel) if model.kind == "kraus"
                     else gkls_steady_state(model.generator))
        return sigma.matrix
    if spec == "maximally-mixed":
        dim = model.channel.dim if model.kind == "kraus" else model.generator.dim
        return np.eye(dim) / dim
    try:
        fh = open(spec, "r", encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot read --rho0 {spec}: {exc}") from exc
    try:
        with fh:
            doc = json.load(fh)
        rho = DensityMatrix(parse_complex_matrix(doc, "$")).matrix
        dim = model.channel.dim if model.kind == "kraus" else model.generator.dim
        if rho.shape[0] != dim:
            raise ValueError(f"{rho.shape[0]}x{rho.shape[0]} state for a {dim}-level model")
    except (TypeError, ValueError) as exc:  # not JSON, not a matrix, not a state
        raise ModelParseError(f"--rho0 {spec}: {exc}") from exc
    return rho


def _constants_dict(c: BoundConstants) -> dict:
    out = {}
    for name in ("b", "c", "epsilon", "n_rho", "g", "m", "alpha"):
        value = getattr(c, name)
        if value is not None:
            out[name] = float(value)
    out["hypothesis_ok"] = bool(c.hypothesis_ok)
    if c.g is not None:
        out["g_provenance"] = "certified-upper"  # every G is built from the certified norm
    if c.note:
        out["note"] = c.note
    return out


def _row(flavor: str, horizon, gamma: float, bound: float | None = None,
         exponent: float | None = None, valid: bool = True, reason: str = "",
         tail=None, verdict: bool | None = None) -> dict:
    """One report row; ``tail`` is an exact tail, an :class:`EmpiricalTail` or None."""
    mc = isinstance(tail, EmpiricalTail)
    return {
        "flavor": flavor,
        "horizon": horizon,
        "gamma": gamma,
        "bound": bound,
        "exponent": exponent,
        "valid": valid,
        "reason": reason,
        "tail": tail.estimate if mc else tail,
        "tail_kind": "mc" if mc else ("" if tail is None else "dp"),
        "ci_low": tail.ci_low if mc else None,
        "ci_high": tail.ci_high if mc else None,
        "verdict": verdict,
    }


def _verdict(bound: float, tail) -> bool | None:
    """Whether a bound dominates its tail.

    An exact tail is compared up to rounding.  A Monte Carlo tail is known
    only to lie in its Wilson interval: a bound below ``ci_low`` is a
    violation (False), one inside the interval is inconclusive (None), and
    one at or above ``ci_high`` passes (True).
    """
    if isinstance(tail, EmpiricalTail):
        if bound < tail.ci_low:
            return False
        return None if bound < tail.ci_high else True
    return bool(bound >= tail - 1e-12)


def _result_row(res: BoundResult, tail=None) -> dict:
    """Row of a bound; given a tail, the row also carries the verdict."""
    return _row(res.flavor, res.horizon, res.gamma, res.probability_bound,
                res.exponent if np.isfinite(res.exponent) else None, res.valid, res.reason,
                tail, None if tail is None else _verdict(res.probability_bound, tail))


def _emit(report: dict, fmt: str, output: str | None) -> None:
    if fmt == "structured":
        text = json.dumps(_json_value(report), sort_keys=True, indent=2, allow_nan=False) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=CSV_HEADER, extrasaction="ignore",
                                lineterminator="\n")
        writer.writeheader()
        for row in report.get("rows", []):
            writer.writerow({k: ("" if row.get(k) is None else row.get(k))
                             for k in CSV_HEADER})
        text = buf.getvalue()
    with _open_for_writing(output, "--output") as fh:
        (fh or sys.stdout).write(text)


def _open_for_writing(path: str | None, flag: str):
    """The file a flag names, opened for writing, or a null context without one."""
    if not path:
        return nullcontext()
    try:
        return open(path, "w", encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot write {flag} {path}: {exc}") from exc


def _json_value(value):
    """``value`` with each non-finite float replaced by None, which JSON writes as null."""
    if isinstance(value, dict):
        return {k: _json_value(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_value(v) for v in value]
    return None if isinstance(value, float) and not math.isfinite(value) else value


def _base_report(args, extra: dict | None = None) -> dict:
    # the echo carries every input that determines the emitted numbers; the
    # output destination does not, so reports are path-independent
    report = {
        "tool": "qmcbounds",
        "version": __version__,
        "command": {k: v for k, v in sorted(vars(args).items())
                    if k not in ("func", "output")},
        "rows": [],
    }
    if extra:
        report.update(extra)
    return report


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

def _analyze_kraus(model: Model, diagnostics: dict) -> None:
    channel = model.channel  # validated at load, at the --tolerance channel= value
    diagnostics["channel_deviation"] = channel.channel_deviation
    diagnostics["channel_ok"] = channel.is_channel
    try:
        sigma = invariant_state(channel)
        diagnostics["invariant_state_diagonal"] = np.diag(sigma.matrix).real.tolist()
        diagnostics["faithful"] = sigma.is_faithful()
        diagnostics["min_eigenvalue"] = sigma.min_eigenvalue()
        evidence = is_irreducible(channel)
        diagnostics["irreducible"] = evidence.irreducible
        diagnostics["radius_multiplicity"] = evidence.radius_multiplicity
        if evidence.irreducible:
            gap = multiplicative_gap_report(channel, sigma)
            diagnostics["primitive"] = _peripheral_is_one(channel, gap)
            diagnostics["psi_irreducible"] = gap.irreducible
            diagnostics["epsilon_multiplicative"] = gap.epsilon
            norm = pseudoresolvent_norm(channel, sigma)
            diagnostics["pseudoresolvent_lower"] = norm.lower_estimate
            diagnostics["pseudoresolvent_certified"] = norm.certified_upper
    except FixedSpaceError as exc:
        evidence = is_irreducible(channel) if exc.dimension == 0 else None  # needs no fixed state
        diagnostics["irreducible"] = evidence is not None and evidence.irreducible
        if evidence is not None:
            diagnostics["radius_multiplicity"] = evidence.radius_multiplicity
        diagnostics["fixed_space_dimension"] = exc.dimension
        decomposition = decompose_invariant_subspaces(channel)
        diagnostics["blocks"] = decomposition.blocks
        diagnostics["block_dimensions"] = [u.shape[1] for u in decomposition.isometries]
        diagnostics["commutation_residual"] = decomposition.commutation_residual


def _analyze_gkls(model: Model, diagnostics: dict) -> None:
    gen = model.generator
    diagnostics["generator_unitality_residual"] = gen.unitality_residual
    sigma = gkls_steady_state(gen)
    diagnostics["steady_state_diagonal"] = np.diag(sigma.matrix).real.tolist()
    diagnostics["faithful"] = sigma.is_faithful()
    report = additive_gap_report(gen, sigma)
    diagnostics["additive_irreducible"] = report.irreducible
    diagnostics["epsilon_additive"] = report.epsilon
    diagnostics["hamiltonian_commutes_with_steady_state"] = report.hamiltonian_commutes
    constants = counting_constants(gen, model.count_label, sigma=sigma)
    diagnostics["counting_constants"] = _constants_dict(constants)


def _analyze_classical(model: Model, diagnostics: dict) -> None:
    chain = model.chain
    diagnostics["irreducible"] = is_chain_irreducible(chain)
    if diagnostics["irreducible"]:
        sigma = stationary_distribution(chain)
        diagnostics["stationary"] = sigma.tolist()
        diagnostics["pseudoresolvent_certified"] = chain_pseudoresolvent_norm(chain, sigma)


def cmd_analyze(args) -> int:
    model = _load_model(args)
    diagnostics: dict = {"kind": model.kind}
    failure = None
    try:
        if model.kind == "kraus":
            _analyze_kraus(model, diagnostics)
        elif model.kind == "gkls":
            _analyze_gkls(model, diagnostics)
        else:
            _analyze_classical(model, diagnostics)
    except (HypothesisError, FixedSpaceError, InconclusiveIrreducibilityError,
            NotFaithfulError) as exc:
        # partial diagnostics are still emitted below
        failure = exc
        diagnostics["hypothesis_failure"] = str(exc)
    report = _base_report(args, {"diagnostics": diagnostics})
    report["rows"] = [{"flavor": "analyze", "reason": f"{k}={v}"}
                      for k, v in diagnostics.items()]
    _emit(report, args.format, args.output)
    if failure is not None:
        print(f"hypothesis failure: {failure}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    return EXIT_OK


# ---------------------------------------------------------------------------
# bound and verify: one table of flavors
# ---------------------------------------------------------------------------

class _Plan(NamedTuple):
    """A flavor's constants, built once per command, as row makers over the grid.

    Each maker in a ``series`` group maps (horizon, gamma, tail) to a row;
    ``tail`` maps (horizon, gammas) to the tails at those gammas, so a
    sampled horizon is sampled once; ``report`` adds keys.
    """

    horizons: list
    series: list
    tail: Callable | None = None
    report: dict = {}


def _rows(evaluate, constants, two_sided: bool):
    """Row maker of a closed form ``evaluate(constants, gamma, horizon, two_sided)``."""
    return lambda h, gamma, tail: _result_row(evaluate(constants, gamma, h, two_sided), tail)


def _echoed(args, constants: BoundConstants, evaluate, horizons, tail) -> _Plan:
    """One closed form whose constants the report echoes, after any --override-epsilon."""
    if args.override_epsilon is not None:
        value = args.override_epsilon
        constants = replace(constants, epsilon=value, note=(
            constants.note + "; " if constants.note else "")
            + f"epsilon overridden to {value} (negative control)")
    return _Plan(horizons, [[_rows(evaluate, constants, args.two_sided)]], tail,
                 {"constants": _constants_dict(constants)})


def _discrete(args, model: Model, constants_of, evaluate) -> _Plan:
    channel = _need(model.channel, "a kraus model")
    f = _need(model.observation, "an observation section")
    horizons = _int_grid(args.n, "--n")
    sigma = invariant_state(channel)  # serves the constants and --rho0 stationary
    rho0 = _resolve_rho0(args.rho0, model, sigma)
    mean = stationary_stats(channel, sigma, f).mean
    return _echoed(args, constants_of(channel, f, rho=rho0, sigma=sigma), evaluate, horizons,
                   _discrete_tail(args, channel, f, rho0, horizons, mean))


def _counting(args, model: Model) -> _Plan:
    gen = _need(model.generator, "a gkls model")
    horizons = _float_grid(args.t, "--t", 0.0, closed=True)
    sigma = gkls_steady_state(gen)
    rho0 = _resolve_rho0(args.rho0, model, sigma)
    constants = counting_constants(gen, model.count_label, rho=rho0, sigma=sigma)
    col = gen.index(model.count_label)
    return _echoed(args, constants, counting_bound, horizons, lambda t, gammas: _rate_tails(
        counting_counts(gen, rho0, _sampler_affords(gen, t, args.trials), args.trials,
                        args.seed)[:, col], t, constants.m, gammas))


def _flux(args, model: Model) -> _Plan:
    chain = _need(model.chain, "a classical model")
    f = _need(model.flux, "a flux section")
    ns = _int_grid(args.n, "--n")
    sigma = stationary_distribution(chain)
    nu = model.initial if model.initial is not None else sigma
    ber = flux_bernstein_constants(chain, nu, f, sigma)
    hoe = flux_hoeffding_constants(chain, f, sigma)
    mean = _centered_flux(chain, f, sigma)[0]

    @cache
    def laws():  # one DP pass over the horizons it affords, at the first tail
        try:  # a state moves once per edge it leaves
            nums = _score_lattice(flux_matrix(f, chain)[chain.transition > 0.0])[0]
            return _flux_laws(chain, nu, f, [n for n in ns if _dp_affords(
                n, nums, np.count_nonzero(chain.transition))])
        except LatticeError as exc:
            raise InfeasibleError(f"exact flux tail is infeasible: {exc}; flux has no "
                                  f"Monte Carlo oracle") from exc

    def tail(n: int, gammas: list):
        if n not in laws():
            raise InfeasibleError(f"exact flux tail at n={n} is beyond the DP budget; flux "
                                  f"has no Monte Carlo oracle")
        return [laws()[n].tail(mean + gamma) for gamma in gammas]

    return _Plan(ns, [[_rows(flux_bernstein_bound, ber, args.two_sided),
                       _rows(flux_hoeffding_bound, hoe, args.two_sided)]], tail)


def _time_dependent(args, model: Model, flavor: str) -> _Plan:
    channel = _need(model.channel, "a kraus model")
    _need(model.schedule or None, "a schedule section in the model")
    ns = _int_grid(args.n, "--n")
    sigma = invariant_state(channel)
    rho0 = _resolve_rho0(args.rho0, model, sigma)
    constants = time_dependent_constants(channel, model.schedule, sigma.matrix, rho0, flavor,
                                         horizon=max(ns))
    return _Plan(ns, [[_rows(time_dependent_bound, constants, args.two_sided)]])


def _multitime(args, model: Model) -> _Plan:
    channel = _need(model.channel, "a kraus model")
    windows = _need(model.observation_windows, "an observation_windows section")
    ns = _int_grid(args.n, "--n")
    try:
        constants = multitime_constants(channel, invariant_state(channel).matrix, windows)
    except KeyError as exc:  # a window the payoff leaves undefined
        raise ModelParseError(f"observation_windows: {exc.args[0]}") from exc
    return _Plan(ns, [[_rows(multitime_bound, constants, args.two_sided)]])


def _reducible(args, model: Model) -> _Plan:
    channel = _need(model.channel, "a kraus model")
    f = _need(model.observation, "an observation section")
    ns = _int_grid(args.n, "--n")
    rho0 = _resolve_rho0(args.rho0 if args.rho0 != "stationary" else "maximally-mixed", model)
    decomposition = decompose_invariant_subspaces(channel)

    def rows(sub: str):
        constants = reducible_constants(decomposition, rho0, f, sub)
        reason = (f"mixture of {decomposition.blocks} blocks, "
                  f"weights {np.round(constants.weights, 6).tolist()}")
        return lambda n, gamma, tail: _row(f"reducible-{sub}", n, gamma, reducible_mixture(
            constants, gamma, n).mixture_bound, reason=reason)

    return _Plan(ns, [[rows("bernstein"), rows("hoeffding")]],
                 report={"blocks": decomposition.blocks})


def _ci(args, model: Model) -> _Plan:
    _need(model.channel, "a kraus model")
    ns = _int_grid(args.n, "--n")

    def rows(theta):
        if theta is None:
            channel, f = model.channel, _need(model.observation, "an observation section")
        elif model.family == "ring-asymmetry":
            channel, f = ring_channel(float(theta))
        else:
            raise UsageError(f"unknown parameter family {model.family!r}")
        sigma = invariant_state(channel)
        berc = bernstein_constants(channel, f, sigma=sigma)
        hoec = hoeffding_constants(channel, f, sigma=sigma)
        return lambda n, gamma, tail: _row("ci", n, gamma, confidence_lower_bound(
            n, gamma, bernstein_bound(berc, gamma, n), hoeffding_bound(hoec, gamma, n)),
            reason="" if theta is None else f"theta={theta}")

    # one row group per parameter, so the report lists the grid theta by theta
    return _Plan(ns, [[rows(theta)] for theta in model.parameter_grid or [None]])


class _Flavor(NamedTuple):
    build: Callable            # (args, model) -> _Plan
    gap: bool = False          # --override-epsilon replaces its spectral gap
    verifiable: bool = False   # its plan has a tail oracle, so verify offers it


# library functions are looked up when a plan is built, so wrappers that
# trace them by rebinding module names see every call
FLAVORS = {
    "bernstein": _Flavor(lambda args, model: _discrete(
        args, model, bernstein_constants, bernstein_bound), gap=True, verifiable=True),
    "hoeffding": _Flavor(lambda args, model: _discrete(
        args, model, hoeffding_constants, hoeffding_bound), verifiable=True),
    "counting": _Flavor(_counting, gap=True, verifiable=True),
    "flux": _Flavor(_flux, verifiable=True),
    "tdm-bernstein": _Flavor(partial(_time_dependent, flavor="bernstein")),
    "tdm-hoeffding": _Flavor(partial(_time_dependent, flavor="hoeffding")),
    "multitime": _Flavor(_multitime),
    "reducible": _Flavor(_reducible),
    "ci": _Flavor(_ci),
}


def _grid_report(args, verify: bool) -> dict:
    """The flavor's plan evaluated group by group, horizon by horizon, gamma by gamma."""
    flavor = FLAVORS[args.flavor]
    if args.override_epsilon is not None and not flavor.gap:
        gapped = ", ".join(name for name, entry in FLAVORS.items() if entry.gap)
        raise UsageError(f"--override-epsilon applies to the flavors with a spectral gap "
                         f"({gapped}), not to {args.flavor!r}")
    model = _load_model(args)
    gammas = _float_grid(args.gamma, "--gamma", 0.0)
    plan = flavor.build(args, model)
    report = _base_report(args, plan.report)
    for group in plan.series:
        for h in plan.horizons:
            tails = plan.tail(h, gammas) if verify else [None] * len(gammas)
            for gamma, tail in zip(gammas, tails):
                report["rows"].extend(row(h, gamma, tail) for row in group)
    return report


def cmd_bound(args) -> int:
    _emit(_grid_report(args, verify=False), args.format, args.output)
    return EXIT_OK


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def _one(grid: list, flag: str):
    if len(grid) > 1:
        raise UsageError(f"simulate samples one horizon; {flag} has {len(grid)} values")
    return grid[0]


def cmd_simulate(args) -> int:
    """Monte Carlo tails at every gamma, and the ``--dump`` records, from one sample."""
    if args.trials is not None and args.trials < 1:
        raise UsageError("--trials must be >= 1")
    model = _load_model(args)
    if model.kind not in ("kraus", "gkls"):
        raise UsageError("simulate supports kraus and gkls models")
    trials = args.trials or 1000
    seed = args.seed
    report = _base_report(args, {"seed": seed})
    rows = report["rows"]
    gammas = _float_grid(args.gamma, "--gamma", 0.0) if args.gamma else []
    sigma = gkls_steady_state(model.generator) if model.kind == "gkls" else None
    rho0 = _resolve_rho0(args.rho0, model, sigma)

    if model.kind == "kraus":
        n = _one(_int_grid(args.n, "--n"), "--n")
        channel = model.channel
        f = _need(model.observation, "an observation section") if gammas else None
        if gammas or args.dump:
            n = _filter_affords(n, trials)
            with _open_for_writing(args.dump, "--dump") as fh:
                def write(indices, picks):
                    for idx, row in zip(indices, picks):
                        fh.write(json.dumps({"seed": seed, "index": idx,
                                             "outcomes": [channel.labels[p] for p in row]},
                                            sort_keys=True) + "\n")
                tails = _discrete_tails(channel, rho0, f, n, gammas, trials, seed,
                                        on_chunk=write if args.dump else None)
            rows.extend(_row("simulate", n, gamma, tail=tail)
                        for gamma, tail in zip(gammas, tails))
    else:
        gen = model.generator
        t = _sampler_affords(gen, _one(_float_grid(args.t, "--t", 0.0), "--t"), trials)
        m = _stationary_intensity(gen, model.count_label, sigma)
        with _open_for_writing(args.dump, "--dump") as fh:
            counts, events = _counting_chunks(gen, rho0, t, trials, seed,
                                              collect_events=bool(args.dump))
            for idx, record in enumerate(events):
                fh.write(json.dumps({"seed": seed, "index": idx,
                                     "events": [[time, str(lab)] for time, lab in record]},
                                    sort_keys=True) + "\n")
        counts = counts[:, gen.index(model.count_label)]
        rate = counts / t
        report["empirical_rate"] = float(rate.mean())
        report["empirical_rate_stderr"] = (float(rate.std(ddof=1) / np.sqrt(trials))
                                           if trials > 1 else None)
        report["stationary_intensity"] = m
        rows.extend(_row("simulate-counting", t, gamma, tail=tail)
                    for gamma, tail in zip(gammas, _rate_tails(counts, t, m, gammas)))
    _emit(report, args.format, args.output)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _dp_affords(n: int, nums: np.ndarray, moves: int) -> bool:
    """Whether the DP, ``moves`` moves per score, affords n: n * support * moves <= 4e6.

    The support of n steps paying lattice values ``nums``, v of them distinct,
    is min(span n + 1, C(n + v - 1, v - 1)): the sum lies in a span of span n
    + 1 points and is fixed by how often each value occurs.  As in the DP's
    reduced lattice (``_lattice_reduction``), span is (max - base) / stride.
    """
    base, stride = _lattice_reduction(nums)
    span, v = int(nums.max() - base) // stride, len(np.unique(nums))
    return n * min(span * n + 1, math.comb(n + v - 1, v - 1)) * int(moves) <= 4_000_000


def _sampler_affords(gen, t: float, trials: int) -> float:
    """``t``, if the counting sampler's Lambda t trials proposals are <= 2e7; else infeasible."""
    proposals = t * trials * _thinning_rate(gen)
    if proposals > 2e7:
        raise InfeasibleError(f"counting sampler at t={t:g} with {trials} trials is beyond the "
                              f"work budget: {proposals:.3g} proposals (Lambda t trials) > 2e7")
    return t


def _filter_affords(n: int, trials: int) -> int:
    """``n``, if n (trials + 128 chunks) filter steps (128: a chunk step's overhead) are <= 4e7."""
    steps = n * (trials + 128 * -(-trials // _MC_CHUNK))
    if steps > 40_000_000:
        raise InfeasibleError(f"discrete sampler at n={n} with {trials} trials is beyond the "
                              f"work budget: {steps:.3g} steps (n (trials + 128 chunks)) > 4e7")
    return n


def _discrete_tail(args, channel, f, rho0, horizons, mean: float):
    """(horizon, gammas) -> tails; one DP pass serves every horizon the DP can afford.

    A tail is P((1/n) sum_k f(X_k) - mean >= gamma), ``mean`` being pi(f).
    The DP's one class moves once per distinct lattice value (``_dp_affords``).
    Other horizons get Monte Carlo tails at every gamma from one sample
    under --mc, and are infeasible requests otherwise.
    """
    @cache
    def laws():  # run at the first tail asked for, so `bound` never runs it
        try:
            nums, denom = _score_lattice(observation_vector(f, channel.labels))
        except LatticeError:
            return {}
        return _score_laws(channel, rho0, nums, denom, [
            n for n in horizons if _dp_affords(n, nums, len(np.unique(nums)))])

    def tail(n: int, gammas: list):
        if n in laws():
            return [laws()[n].tail(mean + gamma) for gamma in gammas]
        if not args.mc:
            raise InfeasibleError(f"exact tail at n={n} is infeasible and --mc was not given")
        return _discrete_tails(channel, rho0, f, _filter_affords(n, args.trials),
                               [mean + gamma for gamma in gammas], args.trials, args.seed)
    return tail


def cmd_verify(args) -> int:
    if args.trials < 1:
        raise UsageError("--trials must be >= 1")
    report = _grid_report(args, verify=True)
    verdicts = [row["verdict"] for row in report["rows"]]
    failures = verdicts.count(False)
    overall = "fail" if failures else ("inconclusive" if None in verdicts else "pass")
    report["seed"] = args.seed
    report["summary"] = {"checked": len(verdicts), "violations": failures, "overall": overall}
    _emit(report, args.format, args.output)
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--model", required=True, help="path to a JSON model file")
    sub.add_argument("--format", choices=("csv", "structured"), default="structured")
    sub.add_argument("--output", default=None, help="write the report to this path")
    sub.add_argument("--tolerance", action="append", default=[], metavar="NAME=VALUE",
                     help="override a named tolerance (e.g. channel=1e-8)")


def _add_grid(sub: argparse.ArgumentParser, flavors) -> None:
    """--flavor and the grid flags that bound and verify share."""
    sub.add_argument("--flavor", required=True, choices=tuple(flavors))
    sub.add_argument("--n", default=None, help="comma grid of step counts")
    sub.add_argument("--t", default=None, help="comma grid of horizons")
    sub.add_argument("--gamma", default=None, help="comma grid of deviations")
    sub.add_argument("--rho0", default="stationary", help="PATH | maximally-mixed | stationary")
    sub.add_argument("--two-sided", action="store_true", dest="two_sided")
    sub.add_argument("--override-epsilon", type=_positive_float, default=None,
                     dest="override_epsilon",
                     help="negative-control override of the spectral gap")


def build_parser() -> _Parser:
    parser = _Parser(prog="qmcbounds",
                     description="Concentration bounds for quantum Markov chain "
                                 "output statistics, with exact and Monte Carlo "
                                 "tail validation.")
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    p_analyze = subs.add_parser("analyze", help="model diagnostics")
    _add_common(p_analyze)
    p_analyze.set_defaults(func=cmd_analyze)

    p_bound = subs.add_parser("bound", help="evaluate bounds over a grid")
    _add_common(p_bound)
    _add_grid(p_bound, FLAVORS)
    p_bound.set_defaults(func=cmd_bound)

    p_sim = subs.add_parser("simulate", help="Monte Carlo tails and dumps")
    _add_common(p_sim)
    p_sim.add_argument("--n", default=None)
    p_sim.add_argument("--t", default=None)
    p_sim.add_argument("--gamma", default=None)
    p_sim.add_argument("--trials", type=int, default=None)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--rho0", default="stationary")
    p_sim.add_argument("--dump", default=None, help="write one JSON record per line")
    p_sim.set_defaults(func=cmd_simulate)

    p_verify = subs.add_parser("verify", help="dominance verdicts against tails")
    _add_common(p_verify)
    _add_grid(p_verify, [name for name, entry in FLAVORS.items() if entry.verifiable])
    p_verify.add_argument("--trials", type=int, default=2000)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--mc", action="store_true",
                          help="fall back to Monte Carlo when exact DP is infeasible")
    p_verify.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        args.tolerances = _parse_tolerances(args.tolerance)
        for flag in ("output", "dump"):  # probed before any work, creating nothing
            path = getattr(args, flag, None)
            target = path if not path or os.path.exists(path) else os.path.dirname(path) or "."
            if path and not os.access(target, os.W_OK):
                raise UsageError(f"cannot write --{flag} {path}: {target} is missing or read-only")
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ModelParseError as exc:
        print(f"model error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (HypothesisError, FixedSpaceError, InconclusiveIrreducibilityError,
            NotFaithfulError) as exc:
        print(f"hypothesis failure: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except (FilterCollapseError, LatticeError, OverflowError, FloatingPointError,
            np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except InfeasibleError as exc:
        print(f"infeasible request: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE


if __name__ == "__main__":
    sys.exit(main())
