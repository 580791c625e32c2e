"""Every map the library factorises is the real matrix of a Kraus or generator form.

The DP's per-operator blocks, the GKLS generator's matrix, the KMS adjoint
and operator norm, psi and the KMS-isometrized maps (the generator's
additive symmetrization, the jump map's real part, the tilted psi_u) come from
``hermitian_coordinate_matrix`` of a Kraus or generator form, KMS-weighted by
conjugating the operators with sigma^(-/+1/4).  These tests hold them to the
routes they replaced, kept in ``reference.py``: einsum blocks, Kronecker
sums, d^2 x d^2 KMS Gram matrices and complex SVDs.  Values agree within
1e-12 relative (the GKLS matrix and states within 1e-14 of their scale),
and multiplicities and verdicts are equal.  The real matrix of each form is
bit for bit the gather of its complex Kronecker sum, as ``reference.py``
computes it.
"""

import pathlib

import numpy as np
import pytest

import qmcbounds.trajectory as trajectory
from qmcbounds.bounds import counting_constants
from qmcbounds.fixtures import (
    PAULI_Z,
    SIGMA_MINUS,
    driven_qubit,
    poisson_counting_qubit,
    random_channel,
    two_unitary_qubit,
)
from qmcbounds.modelfile import load_model
from qmcbounds.operators import (
    GKLSGenerator,
    hermitian_coordinate_matrix,
    hermitian_coordinates,
    kms_adjoint,
    kms_conjugated,
    kms_operator_norm,
    observation_vector,
    superoperator_matrix,
)
from qmcbounds.spectral import (
    TAU_EIG,
    additive_gap_report,
    gkls_steady_state,
    invariant_state,
    multiplicative_symmetrization,
    spectral_radius_deformed,
)
from qmcbounds.trajectory import score_distribution_dp

from conftest import random_state
from reference import (
    complex_steady_state,
    coordinate_matrix,
    einsum_blocks,
    gram_additive_gap,
    gram_counting_constants,
    gram_deformed_radius,
    gram_kms_adjoint,
    gram_kms_operator_norm,
    gram_psi_matrix,
    kron_generator_matrix,
    kron_sum,
)

MODELS = pathlib.Path(__file__).resolve().parent.parent / "models"


def seeded_generator(seed: int) -> GKLSGenerator:
    """A random generator with d = 2..5 and one or two jumps."""
    rng = np.random.default_rng(seed)
    d = 2 + seed % 4
    h = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    jumps = [rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
             for _ in range(1 + seed // 4 % 2)]
    return GKLSGenerator((h + h.conj().T) / 2, jumps)


def generator(name: str) -> GKLSGenerator:
    if name == "driven_qubit":
        return driven_qubit()
    if name == "poisson_qubit":
        return poisson_counting_qubit()
    if name == "thermal":  # H commutes with the diagonal steady state
        return GKLSGenerator(np.diag([0.0, 1.0]).astype(complex),
                             [0.8 * SIGMA_MINUS, 0.4 * SIGMA_MINUS.conj().T])
    if name == "dephasing":  # reducible symmetrization
        return GKLSGenerator(np.zeros((2, 2)), [np.sqrt(0.5) * PAULI_Z])
    return seeded_generator(int(name[4:]))


GENERATORS = [f"seed{seed}" for seed in range(48)] + [
    "driven_qubit", "poisson_qubit", "thermal", "dephasing"]


def relative(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


@pytest.mark.parametrize("name", GENERATORS)
def test_generator_form_matches_the_kronecker_sum_and_the_gram_route(name):
    gen = generator(name)
    m = superoperator_matrix(gen).matrix
    old = kron_generator_matrix(gen)
    assert np.max(np.abs(m - old)) <= 1e-14 * max(1.0, np.max(np.abs(old)))
    sigma = np.eye(2) / 2 if name == "dephasing" else gkls_steady_state(gen).matrix
    if name != "dephasing":  # its stationary states form a plane
        assert np.max(np.abs(sigma - complex_steady_state(gen))) < 1e-14
    report = additive_gap_report(gen, sigma)
    epsilon, multiplicity, irreducible = gram_additive_gap(gen, sigma)
    top = report.eigenvalues[-1]
    assert int(np.sum(np.abs(report.eigenvalues - top) <= TAU_EIG)) == multiplicity
    assert report.irreducible == irreducible == (name != "dephasing")
    assert report.epsilon == 0.0 if not irreducible else relative(report.epsilon, epsilon) < 1e-12
    constants = counting_constants(gen, gen.labels[0], sigma=sigma)
    b, alpha = gram_counting_constants(gen, gen.labels[0], sigma)
    assert relative(constants.b, b) < 1e-12 and relative(constants.alpha, alpha) < 1e-12
    assert constants.epsilon == report.epsilon


@pytest.mark.parametrize("name", ["poisson_qubit", "thermal", "dephasing"])
def test_commutation_note_only_on_an_irreducible_symmetrization(name):
    """[H, sigma] = 0 makes irreducibility automatic only where it holds."""
    gen = generator(name)
    sigma = np.eye(2) / 2 if name == "dephasing" else gkls_steady_state(gen).matrix
    report = additive_gap_report(gen, sigma)
    assert report.hamiltonian_commutes
    note = "[H, sigma] = 0: irreducibility of the symmetrization is automatic"
    expected = note if report.irreducible else ""
    assert report.irreducible == (name != "dephasing")
    assert report.note == expected
    assert counting_constants(gen, gen.labels[0], sigma=sigma).note == expected


@pytest.mark.parametrize("seed", range(12))
def test_deformed_radius_matches_the_gram_route(seed):
    channel = random_channel(2 + seed % 4, 2 + seed % 3, seed)
    sigma = invariant_state(channel).matrix
    payoff = {label: float(i % 3 - 1) for i, label in enumerate(channel.labels)}
    for u in (0.0, 0.3, -1.0, 2.0):
        assert relative(spectral_radius_deformed(channel, payoff, u, sigma),
                        gram_deformed_radius(channel, payoff, u, sigma)) < 1e-12


@pytest.mark.parametrize("seed", range(12))
def test_kms_adjoint_norm_and_psi_match_the_gram_route(seed):
    """The adjoint and norm at a random faithful state and the invariant one, psi at the latter."""
    channel = random_channel(2 + seed % 4, 2 + seed % 3, seed)
    m = superoperator_matrix(channel).matrix

    def assert_close(value, reference):
        assert np.max(np.abs(value - reference)) < 1e-12 * np.max(np.abs(reference))

    for sigma in (random_state(channel.dim, np.random.default_rng(seed)),
                  invariant_state(channel).matrix):
        assert relative(kms_operator_norm(channel, sigma), gram_kms_operator_norm(m, sigma)) < 1e-12
        assert_close(superoperator_matrix(kms_adjoint(channel, sigma)).matrix,
                     gram_kms_adjoint(m, sigma))
    assert_close(superoperator_matrix(multiplicative_symmetrization(channel, sigma)).matrix,
                 gram_psi_matrix(channel, sigma))
    for kms in (kms_adjoint, kms_operator_norm):
        with pytest.raises(TypeError):
            kms(superoperator_matrix(channel), sigma)


def test_deformed_radius_on_the_two_unitary_qubit():
    channel, payoff = two_unitary_qubit()
    sigma = invariant_state(channel).matrix
    for u in (0.0, 0.5, -0.5):
        assert relative(spectral_radius_deformed(channel, payoff, u, sigma),
                        gram_deformed_radius(channel, payoff, u, sigma)) < 1e-12


@pytest.mark.parametrize("d", range(2, 17))
def test_dp_blocks_match_the_einsum(d):
    channel = random_channel(d, 3, 100 + d)
    blocks = np.stack([hermitian_coordinate_matrix([v]) for v in channel.kraus])
    assert np.max(np.abs(blocks - einsum_blocks(channel))) < 4e-16


def models():
    return [(path.stem, load_model(str(path))) for path in sorted(MODELS.glob("*.json"))]


def kraus_forms():
    """(name, ops) of the models' Kraus families and of random_channel(d, k, s), with
    each family conjugated by a seeded faithful state and its one-operator families."""
    rng = np.random.default_rng(26)
    channels = [(name, model.channel) for name, model in models()]
    channels += [(f"random({d},{k},{s})", random_channel(d, k, s))
                 for d in range(2, 7) for k in (1, 2, 3) for s in (0, 1)]
    for name, channel in channels:
        if channel is None:
            continue
        yield name, channel.kraus
        yield f"{name} kms", kms_conjugated(channel.kraus, random_state(channel.dim, rng))
        yield from ((f"{name} [{i}]", [v]) for i, v in enumerate(channel.kraus))


def generator_forms():
    """(name, jumps, G) of the models' and ``GENERATORS``' generators, and KMS-conjugated."""
    gens = [(name, model.generator) for name, model in models()]
    gens += [(name, generator(name)) for name in GENERATORS]
    for name, gen in gens:
        if gen is None:
            continue
        yield name, gen.jumps, gen.no_jump_generator_matrix
        sigma = np.eye(2) / 2 if name == "dephasing" else gkls_steady_state(gen)
        g, *jumps = kms_conjugated((gen.no_jump_generator_matrix,) + gen.jumps, sigma)
        yield f"{name} kms", jumps, g


def test_coordinate_matrix_of_every_form_is_bit_identical_to_the_kron_gather():
    forms = [(name, ops, None) for name, ops in kraus_forms()] + list(generator_forms())
    assert len(forms) == 262
    moved = [name for name, ops, g in forms
             if not np.array_equal(hermitian_coordinate_matrix(ops, g),
                                   coordinate_matrix(kron_sum(ops, g)))]
    assert moved == []


def test_ring_dp_masses_are_the_einsum_blocks_masses(ring):
    """The ring's law at n = 256 is bit for bit the one the einsum blocks gave."""
    channel, payoff = ring
    rho0 = np.diag([0.5, 0.3, 0.2]).astype(complex)
    law = score_distribution_dp(channel, rho0, payoff, 256)
    nums, denom = trajectory._score_lattice(observation_vector(payoff, channel.labels))
    init = hermitian_coordinates(rho0)
    rows = trajectory._lattice_dp(einsum_blocks(channel)[None],
                                  np.zeros((1, len(nums)), dtype=np.int64), nums[None, :],
                                  init, [256])
    scores, vecs = rows[256]
    old = trajectory._dp_laws({256: (scores, vecs[:, :3].sum(axis=1))}, denom, 0,
                              float(init[:3].sum()))[256]
    assert np.array_equal(law.numerators, old.numerators)
    assert np.array_equal(law.masses, old.masses)
