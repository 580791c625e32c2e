"""The five closed-form evaluators row by row at their edges.

Each evaluator is asked for a degenerate payoff, a failed hypothesis, a point
outside the Hoeffding regime (an ordinary point for the Bernstein flavors,
which have none), n = 1 and an interior point.  The expected rows are exact:
every number is compared with ``==``.
"""

import math

import pytest

from qmcbounds.bounds import BoundConstants, bernstein_bound, hoeffding_bound, multitime_bound
from qmcbounds.classical import flux_bernstein_bound, flux_hoeffding_bound

INF = math.inf

EVALUATORS = {
    "bernstein": bernstein_bound,
    "flux-bernstein": flux_bernstein_bound,
    "hoeffding": hoeffding_bound,
    "multitime": multitime_bound,
    "flux-hoeffding": flux_hoeffding_bound,
}

# case -> (constants, gamma, n)
BERNSTEIN_CASES = {
    "degenerate": (BoundConstants(b=0.0, c=0.0, epsilon=0.5, n_rho=1.0), 0.1, 100),
    "hypothesis": (BoundConstants(b=1.0, c=1.0, epsilon=0.0, n_rho=1.0, hypothesis_ok=False),
                   0.1, 100),
    "regime": (BoundConstants(b=1.0, c=1.0, epsilon=0.5, n_rho=1.0), 0.01, 2),
    "single": (BoundConstants(b=1.0, c=1.0, epsilon=0.5, n_rho=1.0), 2.0, 1),
    "interior": (BoundConstants(b=0.7, c=1.2, epsilon=0.3, n_rho=1.3), 0.3, 500),
}
HOEFFDING_CASES = {
    "degenerate": (BoundConstants(b=0.0, c=0.0, g=0.0, n_rho=1.0), 0.1, 100),
    "hypothesis": (BoundConstants(b=0.2, c=0.25, g=0.5, n_rho=1.0, hypothesis_ok=False),
                   0.1, 100),
    "regime": (BoundConstants(b=0.2, c=0.25, g=0.5, n_rho=1.0), 0.05, 10),
    "single": (BoundConstants(b=0.2, c=0.25, g=0.5, n_rho=1.0), 1.0, 1),
    "interior": (BoundConstants(b=0.2, c=0.25, g=0.5, n_rho=1.0), 0.1, 100),
}
CASES = {"bernstein": BERNSTEIN_CASES, "flux-bernstein": BERNSTEIN_CASES,
         "hoeffding": HOEFFDING_CASES, "multitime": HOEFFDING_CASES,
         "flux-hoeffding": HOEFFDING_CASES}

# (flavor, case, two_sided) -> (valid, probability_bound, exponent, reason)
ROWS = {
    ("bernstein", "degenerate", False): (
        True, 0.0, -INF, "deterministic average (b = 0): deviation has probability 0"),
    ("bernstein", "hypothesis", False): (
        False, 1.0, 0.0, "multiplicative symmetrization reducible (epsilon <= 0)"),
    ("bernstein", "regime", False): (True, 0.9999918027615051, -8.197272092375054e-06, ""),
    ("bernstein", "single", False): (True, 0.9541505971248083, -0.04693376137081924, ""),
    ("bernstein", "interior", False): (True, 0.42204820756585465, -1.125, ""),
    ("bernstein", "interior", True): (True, 0.8440964151317093, -1.125, ""),
    ("flux-bernstein", "degenerate", False): (True, 0.0, -INF, "deterministic flux (b = 0)"),
    ("flux-bernstein", "hypothesis", False): (
        False, 1.0, 0.0, "multiplicative symmetrization of P is reducible"),
    ("flux-bernstein", "regime", False): (True, 0.9999918027615051, -8.197272092375054e-06, ""),
    ("flux-bernstein", "single", False): (True, 0.9541505971248083, -0.04693376137081924, ""),
    ("flux-bernstein", "interior", False): (True, 0.42204820756585465, -1.125, ""),
    ("flux-bernstein", "interior", True): (True, 0.8440964151317093, -1.125, ""),
    ("hoeffding", "degenerate", False): (
        True, 0.0, -INF, "deterministic average (c = 0): deviation has probability 0"),
    ("hoeffding", "hypothesis", False): (
        False, 1.0, 0.0, "channel reducible: Hoeffding constant undefined"),
    ("hoeffding", "regime", False): (False, 1.0, 0.0, "outside regime"),
    ("hoeffding", "single", False): (
        True, 0.0, -INF, "n = 1 and gamma >= 2c: single outcome cannot deviate"),
    ("hoeffding", "interior", False): (True, 0.19468670833151014, -1.6363636363636365, ""),
    ("hoeffding", "interior", True): (True, 0.3893734166630203, -1.6363636363636365, ""),
    ("multitime", "degenerate", False): (True, 0.0, -INF, "deterministic window payoff (c = 0)"),
    # multitime and flux-hoeffding used to ignore hypothesis_ok; their builders
    # raise instead of flagging, so only a hand-built record reaches this row
    ("multitime", "hypothesis", False): (
        False, 1.0, 0.0, "channel reducible: Hoeffding constant undefined"),
    ("multitime", "regime", False): (False, 1.0, 0.0, "outside regime"),
    ("multitime", "single", False): (
        True, 0.0, -INF, "n = 1 and gamma >= 2c: single window cannot deviate"),
    ("multitime", "interior", False): (True, 0.19468670833151014, -1.6363636363636365, ""),
    ("multitime", "interior", True): (True, 0.3893734166630203, -1.6363636363636365, ""),
    ("flux-hoeffding", "degenerate", False): (True, 0.0, -INF, "deterministic flux (c = 0)"),
    ("flux-hoeffding", "hypothesis", False): (
        False, 1.0, 0.0, "chain reducible: Hoeffding constant undefined"),
    ("flux-hoeffding", "regime", False): (False, 1.0, 0.0, "outside regime"),
    ("flux-hoeffding", "single", False): (
        True, 0.0, -INF, "n = 1 and gamma >= 2c: single jump cannot deviate"),
    ("flux-hoeffding", "interior", False): (True, 0.19468670833151014, -1.6363636363636365, ""),
    ("flux-hoeffding", "interior", True): (True, 0.3893734166630203, -1.6363636363636365, ""),
}


@pytest.mark.parametrize("flavor, case, two_sided", sorted(ROWS))
def test_edge_row(flavor, case, two_sided):
    constants, gamma, n = CASES[flavor][case]
    res = EVALUATORS[flavor](constants, gamma, n, two_sided)
    assert (res.valid, res.probability_bound, res.exponent, res.reason) == ROWS[
        flavor, case, two_sided]
    assert (res.flavor, res.gamma, res.horizon, res.two_sided) == (flavor, gamma, n, two_sided)
    assert res.constants is constants


@pytest.mark.parametrize("flavor", sorted(EVALUATORS))
@pytest.mark.parametrize("gamma, n", [(0.0, 10), (-0.1, 10), (0.1, 0), (0.1, -3)])
def test_nonpositive_gamma_or_horizon_raises(flavor, gamma, n):
    constants, _, _ = CASES[flavor]["interior"]
    with pytest.raises(ValueError):
        EVALUATORS[flavor](constants, gamma, n)
