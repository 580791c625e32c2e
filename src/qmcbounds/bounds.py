"""Concentration bounds for time-averaged measurement statistics.

Every entry point evaluates one of the finite-time tail bounds for the
output process of a quantum Markov chain (Bernstein and Hoeffding flavors
for discrete time, a Bernstein-type bound for continuous-time counting
processes, and their time-dependent / multi-time / reducible extensions).
Results come back as :class:`BoundResult` records carrying the probability
bound, the exponent, a validity flag and all intermediate constants, so a
caller scanning parameter grids always gets a total function.

Each inequality has one guarded evaluator: ``_bernstein_result`` serves the
Bernstein, flux-Bernstein and time-dependent Bernstein flavors,
``_hoeffding_result`` the Hoeffding, multi-time and flux-Hoeffding ones.  It
checks gamma and n, returns the exact-zero row of a degenerate payoff and
the invalid row of a failed hypothesis, and applies the regime and n = 1
rules; a flavor passes only its constants and its reason strings.

Two deliberate policies apply everywhere:

* observation functions are auto-centered against the stationary law before
  any constant is computed, so misuse with an uncentered function is
  impossible;
* Hoeffding-type constants consume the *certified* upper bound of the
  pseudoresolvent norm, never the heuristic lower estimate, so an emitted
  bound is rigorous up to floating point (a larger constant only weakens
  the bound).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Mapping, Sequence

import numpy as np

from .operators import (
    GKLSGenerator,
    KrausChannel,
    as_complex_matrix,
    dagger,
    hermitian_coordinate_matrix,
    kms_conjugated,
    kms_norm,
    kraus_family_deviation,
    observation_vector,
    state_matrix,
    state_power,
    uniform_norm,
)
from .spectral import (
    HypothesisError,
    MultiplicativeGap,
    _certified_poisson_norm,
    additive_gap_report,
    certified_pseudoresolvent_norm,
    gkls_steady_state,
    invariant_state,
    is_irreducible,
    multiplicative_gap_report,
    phi_power_norms,
)


def h_function(x: float) -> float:
    """h(x) = 1 / (sqrt(1 + x) + x/2 + 1), strictly decreasing on x >= 0."""
    if x < 0:
        raise ValueError("h is defined for x >= 0")
    return 1.0 / (math.sqrt(1.0 + x) + 0.5 * x + 1.0)


# ---------------------------------------------------------------------------
# constants
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StationaryStats:
    """Stationary outcome law and moments of a centered observation."""

    pi: np.ndarray            # stationary probability per outcome label
    mean: float               # pi(f) before centering
    centered: np.ndarray      # f - pi(f), aligned with the channel labels
    b: float                  # sqrt(pi(centered^2))
    c: float                  # max |centered|


def stationary_stats(channel: KrausChannel, sigma, f) -> StationaryStats:
    """pi(i) = tr(sigma V_i^* V_i) plus centered moments of f."""
    s = state_matrix(sigma)
    fv = observation_vector(f, channel.labels)
    pi = np.asarray([float(np.trace(s @ dagger(v) @ v).real) for v in channel.kraus])
    pi = np.clip(pi, 0.0, None)
    total = float(pi.sum())
    if abs(total - 1.0) > 1e-9:
        raise HypothesisError(f"stationary law sums to {total!r}; state not invariant?")
    pi = pi / total
    mean, centered, variance, c = _centered(pi, fv)
    return StationaryStats(pi=pi, mean=mean, centered=centered, b=math.sqrt(variance), c=c)


def _centered(pi: np.ndarray, f: np.ndarray) -> tuple[float, np.ndarray, float, float]:
    """(pi(f), f - pi(f), pi((f - pi(f))^2), max |f - pi(f)|) for a law pi aligned with f.

    A payoff constant up to rounding centers to exactly zero, not 1e-16 noise.
    """
    mean = float(pi @ f)
    centered = f - mean
    if np.max(np.abs(centered), initial=0.0) <= 1e-13 * max(1.0, abs(mean)):
        centered = np.zeros_like(centered)
    c = float(np.max(np.abs(centered))) if centered.size else 0.0
    return mean, centered, max(float(pi @ centered**2), 0.0), c


def n_rho(rho, sigma) -> float:
    """KMS norm of sigma^(-1/2) rho sigma^(-1/2): exactly 1 at rho = sigma, never below 1, as
    1 = tr rho = <sigma^(-1/4) rho sigma^(-1/4), sigma^(1/2)>_HS <= N_rho (tr sigma)^(1/2)."""
    s = state_matrix(sigma)
    r = state_matrix(rho)
    if np.array_equal(r, s):
        return 1.0
    half_inv = state_power(s, -0.5)
    return max(1.0, kms_norm(half_inv @ r @ half_inv, s))


@dataclass(frozen=True)
class BoundConstants:
    """Inputs of the bound formulas, with hypothesis flags.

    ``g`` always carries the certified pseudoresolvent upper bound;
    ``epsilon`` is the spectral gap of the relevant symmetrization and is 0
    whenever the corresponding irreducibility hypothesis fails.
    """

    b: float | None = None
    c: float | None = None
    epsilon: float | None = None
    n_rho: float | None = None
    g: float | None = None
    m: float | None = None
    alpha: float | None = None
    hypothesis_ok: bool = True
    note: str = ""


@dataclass(frozen=True)
class BoundResult:
    """A probability bound with its exponent, validity flag and constants."""

    probability_bound: float
    exponent: float
    valid: bool
    constants: BoundConstants
    flavor: str
    gamma: float
    horizon: float            # n for discrete time, t for continuous time
    two_sided: bool = False
    reason: str = ""


def _valid(flavor: str, constants: BoundConstants, gamma: float, horizon: float,
           two_sided: bool, prefactor: float, exponent: float, reason: str) -> BoundResult:
    """The bound prefactor exp(exponent), clipped to 1; exponent -inf is the exact zero."""
    bound = float(min(1.0, prefactor * math.exp(min(exponent, 0.0))))
    return BoundResult(probability_bound=bound, exponent=exponent, valid=True,
                       constants=constants, flavor=flavor, gamma=gamma,
                       horizon=horizon, two_sided=two_sided, reason=reason)


def _invalid(flavor: str, constants: BoundConstants, gamma: float, horizon: float,
             two_sided: bool, reason: str) -> BoundResult:
    return BoundResult(probability_bound=1.0, exponent=0.0, valid=False,
                       constants=constants, flavor=flavor, gamma=gamma,
                       horizon=horizon, two_sided=two_sided, reason=reason)


def _check_grid_point(gamma: float, n: int) -> None:
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    if n < 1:
        raise ValueError("n must be a positive integer")


def _exponent(formula) -> float:
    """formula(), or -inf where it overflows: every exponent falls to -inf as gamma grows."""
    try:
        return formula()
    except OverflowError:
        return -math.inf


def _bernstein_result(flavor: str, constants: BoundConstants, b2: float, gamma: float,
                      n: int, two_sided: bool, zero_reason: str,
                      reducible_reason: str) -> BoundResult:
    """N exp(-n gamma^2 eps / (6 b^2) h(10 c gamma / (3 b^2))), the one Bernstein evaluator.

    A deterministic average (b = 0) deviates with probability 0
    (``zero_reason``); without the gap hypothesis the row is invalid
    (``reducible_reason``).  ``b2`` is passed apart from ``constants.b``
    because each flavor squares its own way: the time-dependent one knows
    b_n^2 before the square root stored in the constants.
    """
    _check_grid_point(gamma, n)
    if constants.b == 0.0:
        return _valid(flavor, constants, gamma, n, two_sided, 0.0, -math.inf, zero_reason)
    if not constants.hypothesis_ok or not constants.epsilon or constants.epsilon <= 0.0:
        return _invalid(flavor, constants, gamma, n, two_sided, reducible_reason)
    exponent = _exponent(lambda: -n * (gamma**2 * constants.epsilon / (6.0 * b2)) * h_function(
        10.0 * constants.c * gamma / (3.0 * b2)))
    pref = (2.0 if two_sided else 1.0) * float(constants.n_rho or 1.0)
    return _valid(flavor, constants, gamma, n, two_sided, pref, exponent, "")


def _hoeffding_result(flavor: str, constants: BoundConstants, gamma: float, n: int,
                      two_sided: bool, zero_reason: str, reducible_reason: str,
                      single_reason: str) -> BoundResult:
    """exp(-(n gamma - 2G)^2 / (2 (n-1) G^2)) for n gamma >= 2G, the one Hoeffding evaluator.

    Without the hypothesis the row is invalid (``reducible_reason``); a
    constant payoff (c = 0) deviates with probability 0 (``zero_reason``).
    At n = 1 the regime forces gamma >= 2G >= 2c, beyond the range of a
    single centered payoff, so the bound is the exact zero (``single_reason``).
    """
    _check_grid_point(gamma, n)
    if not constants.hypothesis_ok:
        return _invalid(flavor, constants, gamma, n, two_sided, reducible_reason)
    if constants.c == 0.0:
        return _valid(flavor, constants, gamma, n, two_sided, 0.0, -math.inf, zero_reason)
    g = constants.g
    if g is None or g < 0.0:
        raise ValueError(f"Hoeffding constant G = {g!r} is missing or negative")
    if n * gamma < 2.0 * g:
        return _invalid(flavor, constants, gamma, n, two_sided, "outside regime")
    if n == 1:
        return _valid(flavor, constants, gamma, n, two_sided, 0.0, -math.inf, single_reason)
    exponent = _exponent(lambda: -((n * gamma - 2.0 * g)**2) / (2.0 * (n - 1) * g**2))
    return _valid(flavor, constants, gamma, n, two_sided, 2.0 if two_sided else 1.0, exponent, "")


def bernstein_constants(channel: KrausChannel, f, rho=None, sigma=None) -> BoundConstants:
    """Gap of the multiplicative symmetrization plus centered moments of f."""
    sig = invariant_state(channel) if sigma is None else sigma
    stats = stationary_stats(channel, sig, f)
    report = multiplicative_gap_report(channel, sig)
    nr = 1.0 if rho is None else n_rho(rho, sig)
    return BoundConstants(b=stats.b, c=stats.c, epsilon=report.epsilon, n_rho=nr,
                          hypothesis_ok=report.irreducible)


def bernstein_bound(constants: BoundConstants, gamma: float, n: int,
                    two_sided: bool = False) -> BoundResult:
    """Tail bound N_rho exp(-n gamma^2 eps / (6 b^2) h(10 c gamma / (3 b^2))).

    Requires the multiplicative symmetrization to be irreducible (flag on the
    constants) and b > 0; a deterministic average (b = 0) deviates with
    probability 0, which is returned as an exact bound.
    """
    return _bernstein_result("bernstein", constants, constants.b**2, gamma, n, two_sided,
                             "deterministic average (b = 0): deviation has probability 0",
                             "multiplicative symmetrization reducible (epsilon <= 0)")


def hoeffding_constants(channel: KrausChannel, f, rho=None, sigma=None) -> BoundConstants:
    """G = (1 + ||(Id - phi)^(-1)|F||_inf) c with the certified norm bound."""
    sig = invariant_state(channel) if sigma is None else sigma
    stats = stationary_stats(channel, sig, f)
    if not is_irreducible(channel).irreducible:  # shares invariant_state's SVD
        return BoundConstants(b=stats.b, c=stats.c, n_rho=1.0, hypothesis_ok=False,
                              note="channel reducible: pseudoresolvent undefined")
    g = (1.0 + certified_pseudoresolvent_norm(channel, sig)) * stats.c
    nr = 1.0 if rho is None else n_rho(rho, sig)
    return BoundConstants(b=stats.b, c=stats.c, n_rho=nr, g=g, hypothesis_ok=True)


def hoeffding_bound(constants: BoundConstants, gamma: float, n: int,
                    two_sided: bool = False) -> BoundResult:
    """Tail bound exp(-(n gamma - 2G)^2 / (2 (n-1) G^2)) for n gamma >= 2G."""
    return _hoeffding_result("hoeffding", constants, gamma, n, two_sided,
                             "deterministic average (c = 0): deviation has probability 0",
                             "channel reducible: Hoeffding constant undefined",
                             "n = 1 and gamma >= 2c: single outcome cannot deviate")


# ---------------------------------------------------------------------------
# continuous-time counting bound
# ---------------------------------------------------------------------------

def _stationary_intensity(gen: GKLSGenerator, label, sigma) -> float:
    """m = tr(L^* L sigma) of the detector ``label``."""
    l = gen.jumps[gen.index(label)]
    return float(np.trace(dagger(l) @ l @ state_matrix(sigma)).real)


def counting_constants(gen: GKLSGenerator, label, rho=None, sigma=None) -> BoundConstants:
    """m, b, alpha and the additive-symmetrization gap for one detector.

    For the jump map J(x) = L^* x L, b = ||(J + J_dagger)(1) / 2||_KMS and
    alpha = ||(J + J_dagger) / 2||_KMS = ||(T + T^T) / 2||_2, T the real matrix
    of the family sigma^(-1/4) L sigma^(1/4).
    """
    sig = gkls_steady_state(gen) if sigma is None else sigma
    s = state_matrix(sig)
    m_intensity = _stationary_intensity(gen, label, s)
    l = gen.jumps[gen.index(label)]
    half_inv = state_power(s, -0.5)
    b_val = kms_norm((dagger(l) @ l + half_inv @ l @ s @ dagger(l) @ half_inv) / 2, s)
    t = hermitian_coordinate_matrix(kms_conjugated([l], s))
    alpha = float(np.linalg.norm((t + t.T) / 2, 2))
    report = additive_gap_report(gen, s)
    nr = 1.0 if rho is None else n_rho(rho, sig)
    return BoundConstants(b=b_val, epsilon=report.epsilon, n_rho=nr, m=m_intensity, alpha=alpha,
                          hypothesis_ok=report.irreducible, note=report.note)


def counting_bound(constants: BoundConstants, gamma: float, t: float,
                   two_sided: bool = False) -> BoundResult:
    """Counting tail N_rho exp(-t gamma^2 / (2 (m + 2b^2/eps + (5a/eps v 5/2) gamma)))."""
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    if t < 0:
        raise ValueError("t must be nonnegative")
    if not constants.hypothesis_ok or not constants.epsilon or constants.epsilon <= 0.0:
        return _invalid("counting", constants, gamma, t, two_sided,
                        "additive symmetrization reducible (epsilon <= 0)")
    eps = constants.epsilon
    denom = 2.0 * (constants.m + 2.0 * constants.b**2 / eps
                   + max(5.0 * constants.alpha / eps, 2.5) * gamma)
    exponent = _exponent(lambda: -t * gamma**2 / denom)
    pref = (2.0 if two_sided else 1.0) * float(constants.n_rho or 1.0)
    return _valid("counting", constants, gamma, t, two_sided, pref, exponent, "")


def counting_aux_bounds(gen: GKLSGenerator, label, sigma) -> dict:
    """Closed-form upper bounds on b and alpha from the jump operator alone.

    These dominate the directly computed values and are cheap diagnostics:
    ``b_upper`` comes from the triangle + Cauchy-Schwarz chain, ``alpha_upper``
    from operator monotonicity against the smallest eigenvalue of sigma.
    """
    s = state_matrix(sigma)
    l = gen.jumps[gen.index(label)]
    m_intensity = _stationary_intensity(gen, label, s)
    half = state_power(s, 0.5)
    half_inv = state_power(s, -0.5)
    tilted = half @ dagger(l) @ half_inv
    term1 = math.sqrt(uniform_norm(dagger(l) @ l))
    term2 = math.sqrt(uniform_norm(dagger(tilted) @ tilted))
    b_upper = 0.5 * (term1 + term2) * math.sqrt(m_intensity)
    min_eig = float(np.min(np.linalg.eigvalsh(s)))
    alpha_upper = min(uniform_norm(l @ dagger(l)),
                      uniform_norm(tilted @ dagger(tilted))) / min_eig
    return {"m": m_intensity, "b_upper": b_upper, "alpha_upper": alpha_upper}


# ---------------------------------------------------------------------------
# time-dependent measurements
# ---------------------------------------------------------------------------

class Unravelling:
    """A channel split into completely positive sub-unital outcome maps.

    ``maps`` is one Kraus tuple per outcome (Heisenberg convention); the sum
    over outcomes must reproduce the channel being unravelled.
    """

    def __init__(self, maps: Sequence[Sequence[np.ndarray]], labels: Sequence | None = None):
        self.maps = tuple(tuple(as_complex_matrix(w) for w in ops) for ops in maps)
        if not self.maps or not all(self.maps):
            raise ValueError("each outcome needs at least one Kraus operator")
        self.labels = tuple(labels) if labels is not None else tuple(range(len(self.maps)))
        if len(self.labels) != len(self.maps):
            raise ValueError("one label per outcome required")

    @classmethod
    def standard(cls, channel: KrausChannel) -> "Unravelling":
        return cls([(v,) for v in channel.kraus], channel.labels)

    def apply_outcome_dual(self, i: int, rho) -> np.ndarray:
        r = state_matrix(rho)
        return sum(w @ r @ dagger(w) for w in self.maps[i])


@dataclass(frozen=True)
class TimeStep:
    """One measurement step: an unravelling of the channel plus its payoff."""

    unravelling: Unravelling
    f: Mapping


def _step_stats(steps: Sequence[TimeStep], sigma) -> list[tuple[np.ndarray, float, float]]:
    """(centered payoff, variance, max |centered payoff|) of each step under its stationary law."""
    s = state_matrix(sigma)
    stats = []
    for step in steps:
        pi = np.asarray([float(np.trace(step.unravelling.apply_outcome_dual(i, s)).real)
                         for i in range(len(step.unravelling.maps))])
        pi = np.clip(pi, 0.0, None)
        pi = pi / pi.sum()
        stats.append(_centered(pi, observation_vector(step.f, step.unravelling.labels))[1:])
    return stats


@dataclass(frozen=True)
class TimeDependentConstants:
    """Constants of a time-dependent flavor whose P steps repeat, at every horizon.

    ``c[k-1]`` is c_k and ``var_sums[k]`` the variance sum of the first k
    steps, k <= P.  The Bernstein flavor adds the gap of the multiplicative
    symmetrization and N_rho, the Hoeffding flavor the certified power norms
    t_j >= ||phi^j|F||, j <= K, and their ``tail`` T (:func:`phi_power_norms`).
    """

    flavor: str
    c: tuple[float, ...]
    var_sums: tuple[float, ...]
    gap: MultiplicativeGap | None = None
    n_rho: float = 1.0
    powers: tuple[float, ...] = ()
    tail: float = 0.0


def time_dependent_constants(channel: KrausChannel, steps: Sequence[TimeStep], sigma,
                             rho=None, flavor: str = "bernstein", *,
                             horizon: float) -> TimeDependentConstants:
    """Validate the period ``steps`` and build the constants of ``flavor`` up to n = ``horizon``.

    G_n is exact at every n <= ``horizon``.  Past it, it still bounds, each
    power norm not taken counting as its cap 1 or through the tail T.
    """
    if flavor not in ("bernstein", "hoeffding"):
        raise ValueError(f"unknown flavor {flavor!r}")
    for k, step in enumerate(steps):
        dev = kraus_family_deviation([w for ops in step.unravelling.maps for w in ops],
                                     channel.kraus)
        if dev > 1e-9:
            raise ValueError(
                f"step {k}: unravelling does not sum to the channel (deviation {dev:.3e})")
    _, variances, ranges = zip(*_step_stats(steps, sigma))
    c = tuple(accumulate(ranges, max, initial=0.0))[1:]
    var_sums = tuple(accumulate(variances, initial=0.0))
    if flavor == "bernstein":
        return TimeDependentConstants(
            "bernstein", c, var_sums, gap=multiplicative_gap_report(channel, sigma),
            n_rho=n_rho(rho, sigma) if rho is not None else 1.0)
    powers, tail = phi_power_norms(channel, sigma, horizon) if c[-1] else ([], 0.0)
    return TimeDependentConstants("hoeffding", c, var_sums, powers=tuple(powers), tail=tail)


def time_dependent_bound(constants: TimeDependentConstants, gamma: float, n: int,
                         two_sided: bool = False) -> BoundResult:
    """The bound of ``constants.flavor`` over the first n steps, for any n.

    Bernstein keeps the gap of the time-homogeneous multiplicative
    symmetrization; only the moments b_n^2 (average stationary variance) and
    c_n (worst centered range) change: c_n = c_min(n, P), and the variance
    sum floor(n/P) S_P + S_(n mod P) is exactly rounded.  Hoeffding uses
    G_n = (1 + sum_{j<=min(n-2, K)} t_j + min(T, n - 2 - K)) c_n: T bounds the
    terms past K, and below a quarter ulp it leaves the float of the full sum.
    In the regime n gamma >= G_n its exponent is
    -(n gamma - G_n)^2 / ((n-1) G_n^2).
    """
    _check_grid_point(gamma, n)
    period, sums = len(constants.c), constants.var_sums
    c_n = constants.c[min(n, period) - 1]
    b_n2 = float((n // period * Fraction(sums[-1]) + Fraction(sums[n % period])) / n)
    if constants.flavor == "bernstein":
        gap = constants.gap
        bc = BoundConstants(b=math.sqrt(b_n2), c=c_n, epsilon=gap.epsilon,
                            n_rho=constants.n_rho, hypothesis_ok=gap.irreducible)
        return _bernstein_result("tdm-bernstein", bc, b_n2, gamma, n, two_sided,
                                 "deterministic payoffs (b_n = 0)",
                                 "multiplicative symmetrization reducible")
    if c_n == 0.0:
        return _valid("tdm-hoeffding", BoundConstants(b=0.0, c=0.0, n_rho=1.0), gamma, n,
                      two_sided, 0.0, -math.inf, "deterministic payoffs (c_n = 0)")
    beyond = max(0, n - 1 - len(constants.powers))  # the terms j = K+1..n-2
    g_n = (1.0 + sum(constants.powers[:n - 1]) + min(constants.tail, beyond)) * c_n
    bc = BoundConstants(b=math.sqrt(b_n2), c=c_n, g=g_n, n_rho=1.0)
    if n == 1:
        # G_1 = c_1; a single centered payoff can attain its range, so the
        # zero bound is only claimed strictly beyond it
        if gamma > c_n + 1e-12:
            return _valid("tdm-hoeffding", bc, gamma, n, two_sided, 0.0, -math.inf,
                          "n = 1 and gamma > c_1: outside the payoff range")
        return _invalid("tdm-hoeffding", bc, gamma, n, two_sided, "n = 1 at the regime boundary")
    if n * gamma < g_n:
        return _invalid("tdm-hoeffding", bc, gamma, n, two_sided, "outside regime")
    exponent = _exponent(lambda: -((n * gamma - g_n)**2) / ((n - 1) * g_n**2))
    return _valid("tdm-hoeffding", bc, gamma, n, two_sided, 2.0 if two_sided else 1.0,
                  exponent, "")


def time_dependent_bernstein(channel: KrausChannel, steps: Sequence[TimeStep],
                             sigma, rho, gamma: float,
                             two_sided: bool = False) -> BoundResult:
    """Bernstein bound with step-dependent unravellings and payoffs."""
    constants = time_dependent_constants(channel, steps, sigma, rho, "bernstein",
                                         horizon=len(steps))
    return time_dependent_bound(constants, gamma, len(steps), two_sided)


def time_dependent_hoeffding(channel: KrausChannel, steps: Sequence[TimeStep],
                             sigma, rho, gamma: float,
                             two_sided: bool = False) -> BoundResult:
    """Hoeffding bound with G_n = (1 + sum_{j<=n-2} ||phi^j|F||) c_n."""
    constants = time_dependent_constants(channel, steps, sigma, rho, "hoeffding",
                                         horizon=len(steps))
    return time_dependent_bound(constants, gamma, len(steps), two_sided)


# ---------------------------------------------------------------------------
# multi-time statistics
# ---------------------------------------------------------------------------

def _window_effects(channel: KrausChannel, m: int) -> dict:
    """m-tuple of labels -> effect W^* W of its product W = V_{i_m} ... V_{i_1}."""
    effects: dict = {}

    def recurse(prefix, product):
        if len(prefix) == m:
            effects[prefix] = dagger(product) @ product
            return
        for lab, v in zip(channel.labels, channel.kraus):
            recurse(prefix + (lab,), v @ product)

    recurse((), np.eye(channel.dim, dtype=complex))
    return effects


def _window_length(f: Mapping) -> int:
    """Window length m of a payoff on m-tuples of outcome labels.

    The one input contract of the windowed oracles (multi-time constants,
    windowed DP, windowed Monte Carlo): an empty payoff and keys of mixed or
    zero length raise the same ValueError.
    """
    lengths = {len(k) for k in f}
    if len(lengths) != 1 or 0 in lengths:
        raise ValueError("windowed payoff needs keys, all m-tuples of one length m >= 1")
    return lengths.pop()


def _effects_law(sigma, effects: dict) -> dict:
    """tuple -> tr(sigma E) for each window effect E."""
    s = state_matrix(sigma)
    return {k: float(np.trace(s @ op).real) for k, op in effects.items()}


def multitime_constants(channel: KrausChannel, sigma, f: Mapping) -> BoundConstants:
    """c and G = (m + ||(Id-phi)^(-1)|F||) c of a sliding-window payoff f.

    f maps m-tuples of outcome labels to reals; it is centered against the
    m-step stationary law and the window Poisson equation is solved, which
    checks solvability.  A window the payoff leaves undefined is a KeyError.
    """
    m = _window_length(f)
    effects = _window_effects(channel, m)
    law = _effects_law(sigma, effects)
    missing = [k for k in law if k not in f]
    if missing:
        raise KeyError(f"payoff undefined on outcome tuples, e.g. {missing[0]}")
    _, centered, _, c = _centered(np.asarray(list(law.values())),
                                  np.asarray([float(f[k]) for k in law]))
    if c == 0.0:
        return BoundConstants(b=0.0, c=0.0, n_rho=1.0)

    # right-hand side of the window Poisson equation: the full m-step
    # conditional expectation operator of the centered payoff
    f_m = sum(fc * op for fc, op in zip(centered, effects.values()))
    certified = _certified_poisson_norm(channel, f_m, sigma)
    return BoundConstants(b=None, c=c, g=(m + certified) * c, n_rho=1.0)


def multitime_bound(constants: BoundConstants, gamma: float, n: int,
                    two_sided: bool = False) -> BoundResult:
    """exp(-(n gamma - 2G)^2 / (2 (n-1) G^2)) from :func:`multitime_constants`."""
    return _hoeffding_result("multitime", constants, gamma, n, two_sided,
                             "deterministic window payoff (c = 0)",
                             "channel reducible: Hoeffding constant undefined",
                             "n = 1 and gamma >= 2c: single window cannot deviate")


def multitime_hoeffding(channel: KrausChannel, sigma, f: Mapping, gamma: float, n: int,
                        two_sided: bool = False) -> BoundResult:
    """Hoeffding bound for sliding-window payoffs f on m consecutive outcomes.

    G = (m + ||(Id-phi)^(-1)|F||) c feeds the usual exponent in the regime
    n gamma >= 2G; see :func:`multitime_constants`.
    """
    return multitime_bound(multitime_constants(channel, sigma, f), gamma, n, two_sided)


# ---------------------------------------------------------------------------
# reducible channels: mixtures over invariant blocks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReducibleBound:
    """Per-block two-sided bounds and their convex mixture."""

    mixture_bound: float
    weights: np.ndarray
    block_results: tuple[BoundResult | None, ...]
    block_means: tuple[float, ...]


@dataclass(frozen=True)
class ReducibleConstants:
    """Per-block constants of one flavor; None for a block ``rho`` does not weigh."""

    flavor: str
    weights: np.ndarray
    block_constants: tuple[BoundConstants | None, ...]
    block_means: tuple[float, ...]


def reducible_constants(decomposition, rho, f, flavor: str = "bernstein") -> ReducibleConstants:
    """Block weights lambda_j(rho), stationary means and block constants of ``flavor``."""
    if flavor not in ("bernstein", "hoeffding"):
        raise ValueError(f"unknown flavor {flavor!r}")
    weights = decomposition.weights(rho)
    constants: list[BoundConstants | None] = []
    means: list[float] = []
    for j, (channel_j, sigma_j) in enumerate(
            zip(decomposition.restricted_channels, decomposition.block_states)):
        means.append(stationary_stats(channel_j, sigma_j, f).mean)
        if weights[j] <= 1e-15:
            constants.append(None)
            continue
        build = bernstein_constants if flavor == "bernstein" else hoeffding_constants
        constants.append(build(channel_j, f, rho=decomposition.block_state(rho, j),
                               sigma=sigma_j))
    return ReducibleConstants(flavor=flavor, weights=weights, block_constants=tuple(constants),
                              block_means=tuple(means))


def reducible_mixture(constants: ReducibleConstants, gamma: float, n: int) -> ReducibleBound:
    """Mixture sum_j lambda_j * (two-sided block bound) at one grid point."""
    evaluate = bernstein_bound if constants.flavor == "bernstein" else hoeffding_bound
    results: list[BoundResult | None] = []
    mixture = 0.0
    for weight, block in zip(constants.weights, constants.block_constants):
        res = None if block is None else evaluate(block, gamma, n, two_sided=True)
        results.append(res)
        if res is not None:
            mixture += weight * res.probability_bound
    return ReducibleBound(mixture_bound=float(min(1.0, mixture)), weights=constants.weights,
                          block_results=tuple(results), block_means=constants.block_means)


def reducible_bound(decomposition, rho, f, gamma: float, n: int,
                    flavor: str = "bernstein") -> ReducibleBound:
    """Mixture bound sum_j lambda_j(rho) * (two-sided block bound).

    Deviations are measured around the block-dependent limit, so each block
    bound is the two-sided (union-bound doubled) variant.  Blocks whose
    hypotheses fail contribute their full weight, which keeps the mixture a
    valid upper bound.
    """
    return reducible_mixture(reducible_constants(decomposition, rho, f, flavor), gamma, n)


# ---------------------------------------------------------------------------
# confidence intervals
# ---------------------------------------------------------------------------

def confidence_lower_bound(n: int, gamma: float, bernstein: BoundResult,
                           hoeffding: BoundResult) -> float:
    """Coverage lower bound 1 - 2 min(bernstein, hoeffding), clipped to [0, 1].

    Both inputs must be one-sided bounds for the same (n, gamma); an invalid
    flavor contributes nothing (its bound is 1).
    """
    for res, name in ((bernstein, "bernstein"), (hoeffding, "hoeffding")):
        if abs(res.gamma - gamma) > 1e-12 or abs(res.horizon - n) > 1e-12:
            raise ValueError(f"{name} result was computed for different (n, gamma)")
        if res.two_sided:
            raise ValueError("confidence interval needs one-sided inputs")
    best = min(bernstein.probability_bound if bernstein.valid else 1.0,
               hoeffding.probability_bound if hoeffding.valid else 1.0)
    return float(min(1.0, max(0.0, 1.0 - 2.0 * best)))
