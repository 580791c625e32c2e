"""The spectral layer in real Hermitian coordinates agrees with the complex computations.

``spectral.py`` factorises the real matrices of its maps in the Hermitian
basis of ``operators.py``; ``reference.py`` keeps the complex column-stacking
computations they replaced.  On 60 seeded channels (d = 2..6, k = 2..4) and
on the Kraus models of ``models/*.json`` the invariant state, the gap
epsilon of psi, the certified pseudoresolvent norm, the heuristic lower
estimate and the Poisson solution agree to 1e-12 relative.  Each quantity
after the first is computed on both sides from the same sigma.  The gap is
compared through lambda_2 = 1 - epsilon, its eigenvalue: on a channel whose
psi is reducible, such as the two-unitary qubit, epsilon is 0 in exact
arithmetic and both sides return rounding noise.
"""

import pathlib

import numpy as np
import pytest

import qmcbounds.spectral as spectral
from qmcbounds.fixtures import random_channel
from qmcbounds.modelfile import load_model
from qmcbounds.spectral import (
    invariant_state,
    multiplicative_gap_report,
    poisson_solve,
    pseudoresolvent_norm,
)

from conftest import random_hermitian
from reference import (
    complex_invariant_state,
    complex_lower_estimate,
    complex_poisson_solve,
    complex_psi_gap,
    complex_resolvent,
)

MODELS = pathlib.Path(__file__).resolve().parent.parent / "models"
STEMS = ["qubit_two_unitary", "ring", "ring_tdm"]  # the Kraus models with one fixed state
CASES = [f"seed{seed}" for seed in range(60)] + STEMS
REL = 1e-12


def channel_of(name):
    if name in STEMS:
        return load_model(str(MODELS / f"{name}.json")).channel
    seed = int(name[4:])
    return random_channel(2 + seed % 5, 2 + seed % 3, 4000 + seed)


def assert_close(value, reference):
    scale = float(np.max(np.abs(reference)))
    assert float(np.max(np.abs(np.asarray(value) - reference))) <= REL * scale


@pytest.mark.parametrize("name", CASES)
def test_matches_the_complex_computation(name):
    channel = channel_of(name)
    sigma = invariant_state(channel).matrix
    assert_close(sigma, complex_invariant_state(channel))

    q, phi_f, inv_f = complex_resolvent(channel, sigma)
    certified = spectral._certified_sup_norm_chain(phi_f, inv_f, channel.dim)
    lower = complex_lower_estimate(sigma, q @ inv_f @ q.conj().T, 64,
                                   spectral._ASCENT_ITERATIONS, 0)
    norm = pseudoresolvent_norm(channel, sigma)
    assert_close(norm.certified_upper, certified)
    assert_close(norm.lower_estimate, min(lower, certified))

    epsilon = multiplicative_gap_report(channel, sigma).epsilon
    assert_close(1.0 - epsilon, 1.0 - complex_psi_gap(channel, sigma))

    h = random_hermitian(channel.dim, np.random.default_rng(5))
    f = h - np.trace(sigma @ h) * np.eye(channel.dim)
    assert_close(poisson_solve(channel, f, sigma), complex_poisson_solve(channel, f, sigma))


def test_two_block_ring_has_the_same_fixed_space():
    channel = load_model(str(MODELS / "two_block_ring.json")).channel
    with pytest.raises(spectral.FixedSpaceError) as err:
        invariant_state(channel)
    assert err.value.dimension == 2
    m_s = spectral.superoperator_matrix(channel).matrix.conj().T
    assert spectral._null_space(m_s - np.eye(m_s.shape[0])).shape[1] == 2
