"""The emitted bounds dominate the exact DP tails on seeded random channels.

A derandomized harness: 48 channels ``random_channel(d, k, seed)`` with
d = 2..4 and k = 2..3, a payoff in {-1, 0, 1} per label, started in their
invariant state sigma.  At every (n, gamma) of a grid with n <= 64, the
Bernstein and Hoeffding bounds must be at least the exact tail
P((1/n) sum_k f(X_k) - pi(f) >= gamma) of the lattice DP, less 1e-12.  The
heuristic pseudoresolvent lower estimate, before the clamp that
``pseudoresolvent_norm`` applies, must stay below the certified upper bound,
up to a relative 1e-12 at the degenerate point where both are 1.

The least bound/tail ratio per flavour, among bounds below 1, is printed
(``pytest -s``), so a change that moves digits shows its effect on the
margin.  The negative control multiplies the Bernstein gap epsilon by
``INFLATE``; the harness must then find a violation.
"""

import dataclasses
import functools

import numpy as np

import qmcbounds.spectral as spectral
from qmcbounds.bounds import (
    bernstein_bound,
    bernstein_constants,
    hoeffding_bound,
    hoeffding_constants,
    stationary_stats,
)
from qmcbounds.fixtures import random_channel
from qmcbounds.spectral import invariant_state, pseudoresolvent_norm
from qmcbounds.trajectory import score_distribution_dp

CHANNELS = 48
HORIZONS = (1, 2, 4, 8, 16, 32, 64)
GAMMAS = tuple(float(g) for g in np.linspace(0.05, 1.25, 25))
SLACK = 1e-12
INFLATE = 30.0  # the negative control's factor on epsilon (10 finds no violation)


def case(seed: int):
    """(channel, payoff) of case ``seed``: d = 2..4, k = 2..3, payoffs in {-1, 0, 1}."""
    channel = random_channel(2 + seed % 3, 2 + seed // 3 % 2, 9100 + seed)
    values = np.random.default_rng(seed).integers(-1, 2, len(channel.labels))
    return channel, {label: float(v) for label, v in zip(channel.labels, values)}


@functools.cache
def evaluated():
    """Per case: the constants of both flavours and the exact tail at every grid point."""
    rows = []
    for seed in range(CHANNELS):
        channel, payoff = case(seed)
        sigma = invariant_state(channel)
        mean = stationary_stats(channel, sigma, payoff).mean
        tails = {}
        for n in HORIZONS:
            law = score_distribution_dp(channel, sigma, payoff, n)
            tails.update({(n, gamma): law.tail(mean + gamma) for gamma in GAMMAS})
        rows.append((seed, {"bernstein": bernstein_constants(channel, payoff, sigma=sigma),
                            "hoeffding": hoeffding_constants(channel, payoff, sigma=sigma)},
                     tails))
    return rows


BOUNDS = {"bernstein": bernstein_bound, "hoeffding": hoeffding_bound}


def violations_and_margins(adjust=lambda flavor, constants: constants):
    """(violations, least bound/tail ratio per flavour) over every case and grid point."""
    violations, least = [], {flavor: np.inf for flavor in BOUNDS}
    for seed, constants, tails in evaluated():
        for flavor, bound in BOUNDS.items():
            adjusted = adjust(flavor, constants[flavor])
            for (n, gamma), tail in tails.items():
                value = bound(adjusted, gamma, n).probability_bound
                if value < tail - SLACK:
                    violations.append((seed, flavor, n, gamma, value, tail))
                if tail > 0.0 and value < 1.0:
                    least[flavor] = min(least[flavor], value / tail)
    return violations, least


def test_bounds_dominate_the_exact_tails():
    violations, least = violations_and_margins()
    print("least bound/tail ratio:", {flavor: round(r, 4) for flavor, r in least.items()})
    assert violations == []
    # the grid reaches bounds below 1 with a positive tail in both flavours
    assert all(np.isfinite(r) for r in least.values())


def test_inflated_epsilon_is_caught():
    def inflate(flavor, constants):
        if flavor != "bernstein" or not constants.epsilon:
            return constants
        return dataclasses.replace(constants, epsilon=INFLATE * constants.epsilon)

    violations, _ = violations_and_margins(inflate)
    assert any(flavor == "bernstein" for _, flavor, *_ in violations)


def test_lower_estimate_stays_below_the_certified_norm(monkeypatch):
    raw = []
    heuristic = spectral._lower_estimate
    monkeypatch.setattr(spectral, "_lower_estimate",
                        lambda *args: raw.append(heuristic(*args)) or raw[-1])
    crossed = []
    for seed in range(CHANNELS):
        channel, _ = case(seed)
        norm = pseudoresolvent_norm(channel, invariant_state(channel))
        if raw[-1] > norm.certified_upper * (1.0 + SLACK):
            crossed.append((seed, raw[-1], norm.certified_upper))
    assert len(raw) == CHANNELS
    assert crossed == []
