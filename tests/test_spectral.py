import json
import math
import os
import pathlib
from itertools import accumulate

import numpy as np
import pytest

import qmcbounds.spectral as spectral
from qmcbounds import classical, cli
from qmcbounds.bounds import bernstein_constants
from qmcbounds.modelfile import load_model
from qmcbounds.classical import (
    MarkovChain,
    chain_pseudoresolvent_norm,
    stationary_distribution,
)
from qmcbounds.fixtures import (
    PAULI_Z,
    SIGMA_MINUS,
    driven_qubit,
    nondemolition_channel,
    poisson_counting_qubit,
    random_channel,
    ring_channel,
    two_block_ring,
)
from qmcbounds.operators import (
    DensityMatrix,
    GKLSGenerator,
    KrausChannel,
    from_hermitian_coordinates,
    hermitian_coordinate_matrix,
    hermitian_coordinates,
    kms_conjugated,
    superoperator_matrix,
    uniform_norm,
    vec,
)
from qmcbounds.spectral import (
    FixedSpaceError,
    HypothesisError,
    _certified_sup_norm_chain,
    additive_gap_report,
    certified_pseudoresolvent_norm,
    decompose_invariant_subspaces,
    deformed_channel,
    faithful_fixed_point,
    gkls_steady_state,
    invariant_state,
    is_irreducible,
    is_primitive,
    multiplicative_gap_report,
    multiplicative_symmetrization,
    phi_power_norms,
    poisson_solve,
    pseudoresolvent_norm,
    spectral_gap_multiplicative,
    spectral_radius_deformed,
)

from conftest import random_hermitian, random_state
from reference import coordinate_matrix, power_norms, reachable_dimension, schur_fixed_point


def rank_one_channel(seed=0, dim=3):
    """phi(x) = tr(sigma x) 1: every Kraus is sqrt(lam_j) |u_j><e_i|."""
    rng = np.random.default_rng(seed)
    sigma = random_state(dim, rng)
    lam, u = np.linalg.eigh(sigma)
    ops = [np.sqrt(lam[j]) * np.outer(u[:, j], np.eye(dim)[i])
           for j in range(dim) for i in range(dim)]
    return KrausChannel(ops), sigma


class TestInvariantState:
    def test_bistochastic_gives_maximally_mixed(self, ring):
        channel, _ = ring
        sigma = invariant_state(channel)
        assert np.max(np.abs(sigma.matrix - np.eye(3) / 3)) < 1e-12
        assert sigma.is_faithful()

    def test_two_block_reports_dimension(self, two_block):
        channel, _ = two_block
        with pytest.raises(FixedSpaceError) as err:
            invariant_state(channel)
        assert err.value.dimension == 2

    def test_random_channel_fixed_point(self):
        ch = random_channel(4, 3, seed=1)
        sigma = invariant_state(ch)
        assert np.max(np.abs(ch.schrodinger(sigma.matrix) - sigma.matrix)) < 1e-11


def schrodinger_matrix(mapping) -> np.ndarray:
    """The predual's matrix, built apart from the Heisenberg one."""
    if isinstance(mapping, KrausChannel):
        return sum(np.kron(v.conj(), v) for v in mapping.kraus)
    h, eye = mapping.hamiltonian, np.eye(mapping.dim)
    m = -1j * (np.kron(eye, h) - np.kron(h.T, eye))
    for l in mapping.jumps:
        ll = l.conj().T @ l
        m = m + np.kron(l.T, l.conj().T) - 0.5 * (np.kron(eye, ll) + np.kron(ll.T, eye))
    return m.conj().T


def normalized_fixed_point(v, dim):
    x = np.asarray(v, dtype=complex).reshape((dim, dim), order="F")
    x = (x + x.conj().T) / 2
    return x / float(np.trace(x).real)


# seeded channels (the bordered solve), a two-block channel coupled at 1e-6 (a
# singular value in _SVD_BAND: the SVD) and the reducible two-block ring
FIXED_POINT_CASES = [f"seed{seed}" for seed in range(24)] + ["coupled", "two-block"]


def bordered(channel):
    """Whether _fixed_space takes the bordered solve, proved, and no SVD on this channel."""
    m = spectral._heisenberg_matrix(channel).T - np.eye(channel.dim**2)
    return (channel.channel_deviation <= spectral.TAU_IDENTITY
            and spectral._proved_fixed_point(m) is not None)


def fixed_point_case(name):
    if name == "two-block":
        return two_block_ring()[0]
    if name == "coupled":
        return dict(vote_family("two-block"))["eps1e-06 s0"]()
    return seeded_channel(int(name[4:]))


class TestFixedPointsFromTheHeisenbergMatrix:
    """The Heisenberg matrix's conjugate transpose is, bit for bit, a
    Schroedinger matrix built apart, and the invariant state is read off the
    predual's real matrix R^T in Hermitian coordinates, R the Heisenberg
    matrix's: where the bordered solve proves the kernel separated, within
    1e-13 of the SVD's null vector, and where the SVD decides, bit for bit.
    The Cesaro limit from the shared fixed space and the stationary state
    from the generator's real matrix agree to rounding with the complex
    routes they replaced (Schur form and Sylvester solve; complex SVD of the
    predual generator's matrix)."""

    @pytest.mark.parametrize("name", FIXED_POINT_CASES)
    def test_channel_fixed_points(self, name):
        channel = fixed_point_case(name)
        m_s = schrodinger_matrix(channel)
        assert np.array_equal(superoperator_matrix(channel).matrix.conj().T, m_s)
        r_s = coordinate_matrix(m_s.conj().T).T
        basis = spectral._null_space(r_s - np.eye(r_s.shape[0]))
        if basis.shape[1] == 1:
            fixed = vec(from_hermitian_coordinates(basis[:, 0], channel.dim))
            expected = DensityMatrix(normalized_fixed_point(fixed, channel.dim)).matrix
            sigma = invariant_state(channel).matrix
            assert bordered(channel) == name.startswith("seed")
            if bordered(channel):
                assert np.max(np.abs(sigma - expected)) < 1e-13
                assert np.max(np.abs(channel.schrodinger(sigma) - sigma)) < 1e-14
            else:
                assert np.array_equal(sigma, expected)
        else:
            with pytest.raises(FixedSpaceError):
                invariant_state(channel)
        # coupled: both routes move by u / sigma_(n-1), about 1e-10, from the exact limit
        tolerance = 1e-9 if name == "coupled" else 1e-14
        assert np.max(np.abs(faithful_fixed_point(channel) - schur_fixed_point(channel))) < tolerance

    @pytest.mark.parametrize("make", [driven_qubit, poisson_counting_qubit])
    def test_gkls_steady_state(self, make):
        gen = make()
        basis = spectral._null_space(schrodinger_matrix(gen))
        expected = DensityMatrix(normalized_fixed_point(basis[:, 0], gen.dim)).matrix
        assert np.max(np.abs(gkls_steady_state(gen).matrix - expected)) < 1e-15


class TestIrreducibility:
    def test_identity_channel_reducible(self):
        ev = is_irreducible(KrausChannel([np.eye(2)]))
        assert not ev.irreducible
        assert ev.radius_multiplicity == 4

    def test_single_diagonal_unitary_reducible(self):
        # eigenvector axes of the unitary are invariant lines; the witness
        # vectors from the fixed-point supports must catch them
        ev = is_irreducible(KrausChannel([np.diag([1.0, 1j])]))
        assert not ev.irreducible
        assert not ev.reachability_full

    def test_ring_irreducible(self, ring):
        channel, _ = ring
        ev = is_irreducible(channel)
        assert ev.irreducible and ev.reachability_full
        assert ev.radius_multiplicity == 1

    def test_two_block_reducible(self, two_block):
        channel, _ = two_block
        assert not is_irreducible(channel).irreducible

    def test_amplitude_damping_reducible(self):
        p = 0.3
        v0 = np.array([[1, 0], [0, np.sqrt(1 - p)]], dtype=complex)
        v1 = np.array([[0, np.sqrt(p)], [0, 0]], dtype=complex)
        ev = is_irreducible(KrausChannel([v0, v1]))
        assert not ev.irreducible  # invariant state |0><0| is not faithful
        assert ev.radius_multiplicity == 1 and not ev.fixed_point_faithful


class TestPrimitivity:
    def test_ring_primitive(self, ring):
        channel, _ = ring
        assert is_primitive(channel)

    def test_random_channel_primitive(self):
        assert is_primitive(random_channel(3, 3, seed=2))

    def test_the_gap_proves_it_without_an_eigensolve(self, ring, qubit, monkeypatch):
        calls = []
        original = np.linalg.eigvals
        monkeypatch.setattr(np.linalg, "eigvals", lambda m: (calls.append(m.shape), original(m))[1])
        assert is_primitive(ring[0]) and calls == []
        assert is_primitive(qubit[0]) and calls == [(4, 4)]  # psi reducible: gap 0

    def test_reducible_rejected(self):
        with pytest.raises(HypothesisError):
            is_primitive(KrausChannel([np.eye(2)]))


class TestMultiplicativeSymmetrization:
    def test_ring_is_kms_selfadjoint_so_psi_is_square(self, ring, ring_sigma):
        channel, _ = ring
        psi = multiplicative_symmetrization(channel, ring_sigma)
        m_phi = superoperator_matrix(channel).matrix
        m_psi = superoperator_matrix(psi).matrix
        assert np.max(np.abs(m_psi - m_phi @ m_phi)) < 1e-12
        assert psi.labels[0] == (channel.labels[0], channel.labels[0])

    def test_identity_channel(self):
        ch = KrausChannel([np.eye(2)])
        psi = multiplicative_symmetrization(ch, np.eye(2) / 2)
        assert np.max(np.abs(superoperator_matrix(psi).matrix - np.eye(4))) < 1e-12

    def test_psi_unital_selfadjoint_spectrum_in_unit_interval(self):
        ch = random_channel(3, 3, seed=3)
        sigma = invariant_state(ch)
        psi = multiplicative_symmetrization(ch, sigma)
        assert np.max(np.abs(psi.heisenberg(np.eye(3)) - np.eye(3))) < 1e-11
        iso = hermitian_coordinate_matrix(kms_conjugated(psi.kraus, sigma))
        assert np.max(np.abs(iso - iso.T)) < 1e-10
        eigs = np.linalg.eigvalsh((iso + iso.T) / 2)
        assert eigs.min() > -1e-10 and eigs.max() < 1.0 + 1e-10

    def test_non_invariant_state_rejected(self, ring):
        channel, _ = ring
        with pytest.raises(HypothesisError, match="not invariant"):
            multiplicative_symmetrization(channel, np.diag([0.5, 0.3, 0.2]))


class TestMultiplicativeGap:
    def test_ring_gap_golden(self, ring, ring_sigma):
        channel, _ = ring
        eps = spectral_gap_multiplicative(channel, ring_sigma)
        assert eps == pytest.approx(0.75, abs=1e-10)

    def test_rank_one_gap_is_one(self):
        ch, sigma = rank_one_channel(seed=4)
        assert spectral_gap_multiplicative(ch, sigma) == pytest.approx(1.0, abs=1e-10)

    def test_identity_channel_errors(self):
        with pytest.raises(HypothesisError):
            spectral_gap_multiplicative(KrausChannel([np.eye(2)]), np.eye(2) / 2)

    def test_non_invariant_state_rejected(self, ring):
        channel, _ = ring
        with pytest.raises(HypothesisError, match="not invariant"):
            multiplicative_gap_report(channel, np.diag([0.5, 0.3, 0.2]))

    def test_two_unitary_qubit_psi_reducible(self, qubit):
        channel, _ = qubit
        sigma = invariant_state(channel)
        report = multiplicative_gap_report(channel, sigma)
        assert not report.irreducible
        assert report.epsilon < 1e-10
        with pytest.raises(HypothesisError):
            spectral_gap_multiplicative(channel, sigma)


class TestAdditiveGap:
    def test_driven_qubit_gap_positive(self, qubit_gen):
        sigma = gkls_steady_state(qubit_gen)
        report = additive_gap_report(qubit_gen, sigma)
        assert report.irreducible and report.epsilon > 0
        assert not report.hamiltonian_commutes
        assert np.max(report.eigenvalues) < 1e-9

    def test_commuting_hamiltonian_note(self):
        # thermal-style qubit: H diagonal, jumps up/down, diagonal steady state
        h = np.diag([0.0, 1.0]).astype(complex)
        gen = GKLSGenerator(h, [0.8 * SIGMA_MINUS, 0.4 * SIGMA_MINUS.conj().T])
        sigma = gkls_steady_state(gen)
        report = additive_gap_report(gen, sigma)
        assert report.hamiltonian_commutes
        assert "automatic" in report.note
        assert report.irreducible

    def test_verdict_rebuilds_no_fixed_point(self, qubit_gen, monkeypatch):
        sigma = gkls_steady_state(qubit_gen)
        expected = additive_gap_report(qubit_gen, sigma)
        for name in ("from_hermitian_coordinates", "_trace_normalized"):
            monkeypatch.setattr(spectral, name, None)
        # spectral.py no longer imports state_power; should it again, the verdict must not call it
        monkeypatch.setattr(spectral, "state_power", None, raising=False)
        report = additive_gap_report(qubit_gen, sigma)
        assert report.irreducible and report.epsilon == expected.epsilon

    def test_pure_dephasing_errors(self):
        gen = GKLSGenerator(np.zeros((2, 2)), [np.sqrt(0.5) * PAULI_Z])
        assert not additive_gap_report(gen, np.eye(2) / 2).irreducible

    def test_driven_qubit_steady_state(self, qubit_gen):
        sigma = gkls_steady_state(qubit_gen)
        assert sigma.matrix[1, 1].real == pytest.approx(4.0 / 9.0, abs=1e-12)


class TestPseudoresolvent:
    def test_rank_one_both_sides_one(self):
        ch, sigma = rank_one_channel(seed=5)
        norm = pseudoresolvent_norm(ch, sigma)
        assert norm.lower_estimate == pytest.approx(1.0, abs=1e-10)
        assert norm.certified_upper == pytest.approx(1.0, abs=1e-10)

    def test_ring_bracketing(self, ring, ring_sigma):
        channel, _ = ring
        norm = pseudoresolvent_norm(channel, ring_sigma)
        assert norm.lower_estimate <= norm.certified_upper + 1e-12
        assert norm.lower_estimate >= 0.99  # heuristic, but the norm is >= 1 here

    def test_seed_reproducible(self, ring, ring_sigma):
        channel, _ = ring
        a = pseudoresolvent_norm(channel, ring_sigma)
        b = pseudoresolvent_norm(channel, ring_sigma)
        assert a == b

    def test_near_reducible_large_but_finite(self):
        # two rings mixed by a tiny incoherent transfer in each direction:
        # irreducible, with spectral gap of the order of the transfer rate
        eta = 1e-3
        ops = []
        base, _ = ring_channel()
        for v in base.kraus:
            z = np.zeros((6, 6), dtype=complex)
            z[:3, :3] = np.sqrt(1 - eta) * v
            z[3:, 3:] = np.sqrt(1 - eta) * v
            ops.append(z)
        down = np.zeros((6, 6), dtype=complex)
        down[3:, :3] = np.eye(3)
        up = np.zeros((6, 6), dtype=complex)
        up[:3, 3:] = np.eye(3)
        ops += [np.sqrt(eta) * down, np.sqrt(eta) * up]
        ch = KrausChannel(ops)
        sigma = invariant_state(ch)
        norm = pseudoresolvent_norm(ch, sigma)
        assert np.isfinite(norm.certified_upper)
        assert norm.certified_upper > 50.0  # blows up as eta -> 0
        assert norm.lower_estimate <= norm.certified_upper + 1e-9


def full_chain(phi_f, inv_f, dim, max_terms=32):
    """The certified norm chain run over all ``max_terms`` terms, no early exit."""
    root_d = float(np.sqrt(dim))
    best = root_d * float(np.linalg.norm(inv_f, 2))
    partial = 0.0
    power = np.eye(phi_f.shape[0], dtype=phi_f.dtype)
    term = 1.0
    for _ in range(max_terms):
        power = phi_f @ power
        partial += term
        best = min(best, partial + root_d * float(np.linalg.norm(power @ inv_f, 2)))
        term = min(1.0, root_d * float(np.linalg.norm(power, 2)))
    return best


def resolvent_on_f(phi_f):
    eye_f = np.eye(phi_f.shape[0])
    return np.linalg.solve(eye_f - phi_f, eye_f)


def head_chain(phi_f, inv_f, dim):
    """The chain with one SVD per term and tail and the early exit; returns (value, SVDs)."""
    svds = 0

    def norm(a):
        nonlocal svds
        svds += 1
        return float(np.linalg.norm(a, 2))

    root_d = float(np.sqrt(dim))
    best = root_d * norm(inv_f)
    partial = 0.0
    power = np.eye(phi_f.shape[0], dtype=phi_f.dtype)
    for j in range(spectral._MAX_TERMS):
        term = 1.0 if j == 0 else min(1.0, root_d * norm(power))
        power = phi_f @ power
        partial += term
        if partial >= best:
            break
        best = min(best, partial + root_d * norm(power @ inv_f))
    return best, svds


def isometry_channel(dim, seed):
    """Three Kraus operators cut from a seeded (3 d) x d isometry, as perfbench generates."""
    rng = np.random.default_rng([seed, dim, 3])
    q, _ = np.linalg.qr(rng.standard_normal((3 * dim, dim))
                        + 1j * rng.standard_normal((3 * dim, dim)))
    return KrausChannel([q[i * dim:(i + 1) * dim] for i in range(3)])


def stochastic_chain(size):
    rng = np.random.default_rng(size)
    p = rng.random((size, size)) ** 3
    return MarkovChain(p / p.sum(axis=1, keepdims=True))


def case_channel(case):
    """The channel of a named chain case: random:seed (d <= 8, k <= 4), isometry:d,
    replacement:d (phi vanishes on F) or a model file's stem."""
    kind, _, arg = case.partition(":")
    if kind == "random":
        seed = int(arg)
        return random_channel(2 + seed % 7, 2 + seed % 3, seed=seed)
    if kind == "isometry":
        return isometry_channel(int(arg), 1)
    if kind == "replacement":
        return rank_one_channel(seed=7, dim=int(arg))[0]
    return load_model(str(MODELS / f"{kind}.json")).channel


def chain_inputs(case):
    """(phi_F, (Id - phi_F)^(-1), d) of a named chain case; classical:e is a chain."""
    kind, _, arg = case.partition(":")
    if kind == "classical":
        chain = stochastic_chain(int(arg))
        q = spectral._null_space(stationary_distribution(chain)[None, :])
        phi_f = q.T @ chain.transition @ q
        return phi_f, resolvent_on_f(phi_f), chain.size
    channel = case_channel(case)
    _, phi_f = spectral._restriction(*spectral._coordinates(channel, invariant_state(channel)))
    return phi_f, resolvent_on_f(phi_f), channel.dim


MODELS = pathlib.Path(__file__).resolve().parent.parent / "models"
CHAIN_CASES = ([f"random:{seed}" for seed in range(24)]
               + [f"isometry:{d}" for d in (8, 12, 16)]
               + [f"classical:{e}" for e in (13, 20, 40)]
               + ["replacement:3", "replacement:6", "qubit_two_unitary", "ring"])
_FULL_CHAIN: dict = {}


def full_chain_of(case):
    if case not in _FULL_CHAIN:
        _FULL_CHAIN[case] = full_chain(*chain_inputs(case))
    return _FULL_CHAIN[case]


@pytest.fixture(params=["default", "bounded", "loose", "zero"])
def chain_mode(request, monkeypatch):
    """The default size switch, bounds on every matrix, bounds from one power
    step, loose enough that the chain must walk on and settle terms, or every
    bound 0 (still a valid lower bound), so that no term moves the sum of
    bounds and the chain must settle its loose terms to go on."""
    if request.param != "default":
        monkeypatch.setattr(spectral, "_SVD_BELOW", 0)
    if request.param == "loose":
        monkeypatch.setattr(spectral, "_POWER_STEPS", 1)
    if request.param == "zero":
        monkeypatch.setattr(spectral, "_norm_bound", lambda a, right, v: (0.0, False, v))
    return request.param


def counted_svds(monkeypatch):
    calls = []
    plain = spectral._svd_norm
    monkeypatch.setattr(spectral, "_svd_norm", lambda a: calls.append(a.shape) or plain(a))
    return calls


class TestCertifiedChain:
    @pytest.mark.parametrize("seed", range(20))
    def test_early_exit_is_bit_identical(self, seed):
        dim, n_kraus = 2 + seed % 5, 2 + seed % 3
        channel = random_channel(dim, n_kraus, seed=seed)
        sigma = invariant_state(channel)
        _, phi_f = spectral._restriction(*spectral._coordinates(channel, sigma))
        expected = full_chain(phi_f, resolvent_on_f(phi_f), dim)
        assert _certified_sup_norm_chain(phi_f, resolvent_on_f(phi_f), dim) == expected
        assert certified_pseudoresolvent_norm(channel, sigma) == expected
        assert pseudoresolvent_norm(channel, sigma).certified_upper == expected

    @pytest.mark.parametrize("size", [3, 5, 8])
    def test_classical_chain_bit_identical(self, size, monkeypatch):
        rng = np.random.default_rng(size)
        p = rng.random((size, size)) ** 3
        chain = MarkovChain(p / p.sum(axis=1, keepdims=True))
        sigma = stationary_distribution(chain)
        q = spectral._null_space(sigma[None, :])
        p_f = q.T @ chain.transition @ q
        expected = full_chain(p_f, resolvent_on_f(p_f), size)
        monkeypatch.setattr(classical, "_VERTEX_LIMIT", 0)
        assert chain_pseudoresolvent_norm(chain) == expected

    def test_ring_stops_early(self, ring, ring_sigma, monkeypatch):
        channel, _ = ring
        terms = []
        original = spectral._power_terms

        def counted(phi_f, root_d):
            for item in original(phi_f, root_d):
                terms.append(item[0])
                yield item

        monkeypatch.setattr(spectral, "_power_terms", counted)
        certified_pseudoresolvent_norm(channel, ring_sigma)
        assert 1 <= len(terms) <= 4

    @pytest.mark.parametrize("case", CHAIN_CASES)
    def test_equals_full_chain(self, case, chain_mode):
        assert _certified_sup_norm_chain(*chain_inputs(case)) == full_chain_of(case)

    @pytest.mark.parametrize("case", CHAIN_CASES)
    def test_never_more_svds_than_one_per_norm(self, case, chain_mode, monkeypatch):
        inputs = chain_inputs(case)
        _, head_svds = head_chain(*inputs)
        calls = counted_svds(monkeypatch)
        _certified_sup_norm_chain(*inputs)
        assert len(calls) <= head_svds

    @pytest.mark.parametrize("case", CHAIN_CASES)
    def test_bounds_settle_with_one_svd(self, case, monkeypatch):
        monkeypatch.setattr(spectral, "_SVD_BELOW", 0)
        inputs = chain_inputs(case)
        calls = counted_svds(monkeypatch)
        assert _certified_sup_norm_chain(*inputs) == full_chain_of(case)
        assert len(calls) == 1

    def test_d16_takes_at_most_two_svds(self, monkeypatch):
        inputs = chain_inputs("isometry:16")
        assert head_chain(*inputs)[1] >= 15
        calls = counted_svds(monkeypatch)
        _certified_sup_norm_chain(*inputs)
        assert 1 <= len(calls) <= 2

    def test_two_unitary_qubit_reaches_max_terms(self):
        _, head_svds = head_chain(*chain_inputs("qubit_two_unitary"))
        assert head_svds == 2 * spectral._MAX_TERMS

    @pytest.mark.parametrize("size", [13, 20, 40])
    def test_classical_paths(self, size, chain_mode, monkeypatch):
        expected = full_chain_of(f"classical:{size}")
        chain = stochastic_chain(size)
        assert chain_pseudoresolvent_norm(chain) == expected
        monkeypatch.setattr(classical, "_VERTEX_LIMIT", 0)
        assert chain_pseudoresolvent_norm(chain) == expected

    @pytest.mark.parametrize("case", ["random:6", "isometry:8", "replacement:6", "ring"])
    def test_power_norms_are_clamped_svd_norms(self, case, chain_mode):
        phi_f, _, dim = chain_inputs(case)
        root_d = float(np.sqrt(dim))
        channel = case_channel(case)
        norms, tail = phi_power_norms(channel, invariant_state(channel))
        raw = power_norms(phi_f, len(norms) - 1)
        assert norms == [min(1.0, root_d * x) for x in raw]
        # K is the first power whose tail bound is below a quarter ulp of
        # 1 + t_0 + ... + t_K, or the 4e6 / d^4-th, and T is that bound
        heads, sums = list(accumulate(raw)), list(accumulate(norms))
        tails = [root_d * x / (1.0 - x) * heads[j - 1] if x < 1.0 else math.inf
                 for j, x in enumerate(raw) if j]
        stops = [j for j in range(1, len(raw)) if tails[j - 1] < math.ulp(1.0 + sums[j]) / 4]
        assert stops == [len(raw) - 1] or (stops == [] and len(raw) - 1 == 4_000_000 // dim**4)
        assert tail == tails[-1]

    @pytest.mark.parametrize("seed", range(6))
    def test_lower_bound_is_below_the_svd_norm(self, seed, monkeypatch):
        monkeypatch.setattr(spectral, "_SVD_BELOW", 0)
        rng = np.random.default_rng(seed)
        n = 30 + 7 * seed
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        right = np.linalg.inv(np.eye(n) - 0.9 * a / np.linalg.norm(a, 2))
        lower, exact, v = spectral._norm_bound(a, None, None)
        assert not exact and 0.5 * spectral._svd_norm(a) < lower <= spectral._svd_norm(a)
        lower, exact, _ = spectral._norm_bound(a, right, v)
        assert not exact and lower <= spectral._svd_norm(a @ right)
        # a dominant singular value: the bound is within the margin, and below
        u, _ = np.linalg.qr(a)
        spiked = 10.0 * np.outer(u[:, 0], u[:, 1].conj()) + a / np.linalg.norm(a, 2)
        lower, _, _ = spectral._norm_bound(spiked, None, None)
        assert (1 - 1e-9) * spectral._svd_norm(spiked) < lower <= spectral._svd_norm(spiked)


def sequential_lower_estimate(s, n_full, restarts, iterations, seed):
    """The heuristic lower estimate run one restart after another.

    ``n_full`` is the map's real matrix in Hermitian coordinates and each
    iterate a vector of coordinates.  A step takes ``eigvalsh`` of the image,
    the top eigenvector by shifted inverse iteration and one ``eigh`` for the
    sign matrix; the sup-norm of a sign iterate is its closed form.  Returns
    the estimate and, per restart, the iteration at which it stopped (None if
    it ran all ``iterations``).
    """
    d = s.shape[0]
    weights = hermitian_coordinates(s) / np.trace(s).real
    unit = hermitian_coordinates(np.eye(d))

    def center(r):
        c = (r * weights).sum()
        return r - c * unit, c

    def norm(r):
        w = np.linalg.eigvalsh(from_hermitian_coordinates(r, d))
        return max(abs(w[0]), abs(w[-1]))

    def ratio(nx, n_image):
        return 0.0 if nx < 1e-14 else n_image / nx

    rng = np.random.default_rng(seed)
    starts = [center(hermitian_coordinates(rng.standard_normal((d, d))
                                           + 1j * rng.standard_normal((d, d))))[0]
              for _ in range(restarts)]
    start = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    best, stops = 0.0, []
    for r in starts:
        stops.append(None)
        size = norm(r)
        for it in range(iterations + 1):
            y = from_hermitian_coordinates(n_full @ r, d)
            w = np.linalg.eigvalsh(y)
            best = max(best, ratio(size, max(abs(w[0]), abs(w[-1]))))
            if it == iterations:
                break
            low = abs(w[0]) >= abs(w[-1])
            lam = w[0] if low else w[-1]
            mu = lam + (-spectral._SHIFT if low else spectral._SHIFT) * (abs(lam) if lam else 1.0)
            shifted = y - mu * np.eye(d)
            x = start
            for _ in range(spectral._INVERSE_SOLVES):
                x = np.linalg.solve(shifted, x[:, None])[:, 0]
                x = x / np.sqrt((x.real ** 2 + x.imag ** 2).sum())
            lead = np.outer(x, x.conj()) * np.sign(lam)
            g = from_hermitian_coordinates(n_full.T @ hermitian_coordinates(lead), d)
            w, u = np.linalg.eigh((g + g.conj().T) / 2)
            signs = np.where(w >= 0.0, 1.0, -1.0)
            r_new, c = center(hermitian_coordinates((u * signs) @ u.conj().T))
            if norm(r_new - r) < 1e-12:
                stops[-1] = it
                break
            r = r_new
            size = max(abs(1.0 - c) if (signs > 0).any() else 0.0,
                       abs(1.0 + c) if (signs < 0).any() else 0.0)
    return best, stops


def seeded_channel(seed):
    return random_channel(2 + seed % 5, 2 + seed % 3, seed=seed)


# 20 seeded channels, the rank-one channel and a channel whose restarts stop early
LOCK_STEP_CASES = [f"seed{seed}" for seed in range(20)] + ["rank-one", "early-stop"]


def lock_step_case(name):
    if name == "rank-one":
        return rank_one_channel(seed=2)
    channel = random_channel(2, 2, 1) if name == "early-stop" else seeded_channel(int(name[4:]))
    return channel, invariant_state(channel).matrix


class TestLowerEstimate:
    @pytest.mark.parametrize("restarts", [0, 1, 8])
    @pytest.mark.parametrize("name", LOCK_STEP_CASES)
    def test_lock_step_equals_sequential(self, name, restarts):
        channel, sigma = lock_step_case(name)
        q, _, inv_f = spectral._resolvent(*spectral._coordinates(channel, sigma))
        n_full = q @ inv_f @ q.T
        expected, stops = sequential_lower_estimate(sigma, n_full, restarts, 8, 0)
        assert spectral._lower_estimate(sigma, n_full, restarts, 8, 0) == expected
        if name == "early-stop" and restarts == 8:
            # restarts stop at different iterations: frozen and running rows mix
            assert None not in stops and len(set(stops)) > 1

    @pytest.mark.parametrize("d", [2, 3, 5, 8, 16, 32])
    def test_closed_form_sup_norm_of_a_sign_iterate(self, d):
        """max |e - c| over the signs e present in S is eigvalsh's sup-norm of S - c 1
        within 8 d ulps, for S the sign matrix of a centred direction, c = tr(s S) / tr(s)."""
        rng = np.random.default_rng(d)
        s = random_state(d, rng)
        weights = hermitian_coordinates(s) / np.trace(s).real
        g = np.stack([random_hermitian(d, rng) for _ in range(64)])
        g -= (np.trace(s @ g, axis1=1, axis2=2).real / np.trace(s).real)[:, None, None] * np.eye(d)
        sign, signs = spectral._sign_matrix(g)
        coordinates = hermitian_coordinates(sign)
        c = (coordinates * weights).sum(axis=-1)
        closed = np.maximum(np.where((signs > 0).any(axis=1), np.abs(1.0 - c), 0.0),
                            np.where((signs < 0).any(axis=1), np.abs(1.0 + c), 0.0))
        r = coordinates - c[:, None] * hermitian_coordinates(np.eye(d))
        sup = np.abs(np.linalg.eigvalsh(from_hermitian_coordinates(r, d))).max(axis=1)
        assert np.all(np.abs(closed - sup) <= 8 * d * np.spacing(sup))

    def test_zero_and_rank_one_images_raise_nothing(self):
        """The shift puts y - mu 1 beyond the spectrum, so a zero or rank-one image solves."""
        d, rng = 4, np.random.default_rng(1)
        v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        v /= np.linalg.norm(v)
        y = np.stack([np.zeros((d, d)), 2.5 * np.outer(v, v.conj()), -np.outer(v, v.conj()),
                      random_hermitian(d, rng)])
        w = np.linalg.eigvalsh(y)
        lam, top = spectral._top_eigenpairs(y, w, np.ones(d, dtype=complex))
        assert np.all(np.isfinite(top)) and np.allclose(np.linalg.norm(top, axis=1), 1.0)
        assert lam[0] == 0.0 and abs(lam[1] - 2.5) < 1e-14 and abs(lam[2] + 1.0) < 1e-14
        assert np.allclose(np.abs(top[1:3] @ v.conj()), 1.0, atol=1e-12)
        residual = np.einsum("rij,rj->ri", y, top) - lam[:, None] * top
        assert np.max(np.abs(residual)) < 1e-12
        # the whole estimate: a zero map, and a map whose every image is rank one
        sigma = random_state(d, rng)
        projector = hermitian_coordinates(np.outer(v, v.conj()))
        zero = np.zeros((d * d, d * d))
        assert spectral._lower_estimate(sigma, zero, 8, 8, 0) == 0.0
        rank_one = np.outer(projector, rng.standard_normal(d * d))
        assert np.isfinite(spectral._lower_estimate(sigma, rank_one, 8, 8, 0))


def hermitian_steps(d, rng):
    """Hermitian coordinates of steps with sup-norms 0.4e-12 to 4e-12, of rank 1 (Frobenius
    norm = sup-norm) and of full rank with eigenvalues +-s (Frobenius norm = sqrt(d) s)."""
    rows = []
    for sup in np.geomspace(0.4e-12, 4e-12, 41):
        u, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
        for eigenvalues in ([sup] + [0.0] * (d - 1), sup * rng.choice([-1.0, 1.0], d)):
            rows.append(hermitian_coordinates((u * eigenvalues) @ u.conj().T))
    return np.array(rows)


class TestFreezeDecision:
    @pytest.mark.parametrize("d", [2, 3, 6])
    def test_frozen_matches_the_eigvalsh_rule(self, d, monkeypatch):
        step = hermitian_steps(d, np.random.default_rng(d))
        sup = np.abs(np.linalg.eigvalsh(from_hermitian_coordinates(step, d))).max(axis=1)
        frobenius = np.linalg.norm(step, axis=1)
        band = (frobenius >= 0.5e-12) & (frobenius <= 2e-12 * np.sqrt(d))
        calls = []
        original = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: (calls.append(len(a)), original(a))[1])
        frozen = spectral._frozen(step, d)
        assert np.array_equal(frozen, sup < 1e-12)
        assert calls == [int(band.sum())]
        # rows on each side of the bracket and in it, frozen and running in each
        for rows in (band, ~band & (frobenius < 1e-12), ~band & (frobenius > 1e-12)):
            assert rows.any()
        assert (frozen & band).any() and (~frozen & band).any()


def near_unitary_channel(d, eps, seed):
    """A seeded unitary mixed with ``random_channel(d, 2, 900 + seed)`` at weight eps."""
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    return KrausChannel([np.sqrt(1 - eps) * u]
                        + [np.sqrt(eps) * v for v in random_channel(d, 2, 900 + seed).kraus])


# psi of these is nearly reducible: the two-method vote on the explicit psi is
# inconclusive on all but two of them
NEAR_UNITARY = [f"near-unitary d{d} eps{eps} s{s}" for eps in (1e-9, 1e-8)
                for d in (2, 3, 4) for s in range(4)]


def near_unitary_case(name):
    d, eps, seed = name.split()[1:]
    channel = near_unitary_channel(int(d[1:]), float(eps[3:]), int(seed[1:]))
    return channel, invariant_state(channel).matrix


def psi_vote(channel, sigma):
    """The two-method vote on the explicit psi: its verdict, or "inconclusive"."""
    return vote_verdict(is_irreducible, multiplicative_symmetrization(channel, sigma))


class TestPsiVote:
    """psi's verdict from the simple top of T^T T against the full vote on the explicit psi."""

    @pytest.mark.parametrize("name", LOCK_STEP_CASES + ["two-unitary"] + NEAR_UNITARY)
    def test_vote_on_the_gap_spectrum_matches_is_irreducible(self, name, qubit):
        if name == "two-unitary":  # psi is reducible
            channel = qubit[0]
            sigma = invariant_state(channel).matrix
        elif name in NEAR_UNITARY:
            channel, sigma = near_unitary_case(name)
        else:
            channel, sigma = lock_step_case(name)
        report = multiplicative_gap_report(channel, sigma)
        vote = psi_vote(channel, sigma)
        if vote == "inconclusive":
            assert not report.irreducible and report.epsilon == 0.0
        else:
            assert report.irreducible == vote
        if name not in NEAR_UNITARY:
            assert report.irreducible == (name != "two-unitary")

    def test_near_unitary_channels_reach_the_inconclusive_vote(self):
        verdicts = [psi_vote(*near_unitary_case(name)) for name in NEAR_UNITARY]
        assert verdicts.count("inconclusive") == 22 and verdicts.count(True) == 2

    def test_gap_report_builds_no_psi_and_takes_no_svd(self, ring, ring_sigma, monkeypatch):
        channel, _ = ring
        calls = []
        monkeypatch.setattr(spectral, "KrausChannel", lambda *a, **k: calls.append("psi"))
        monkeypatch.setattr(spectral, "superoperator_matrix",
                            lambda *a, **k: calls.append("superoperator"))
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd",
                            lambda *a, **k: (calls.append("svd"), svd(*a, **k))[1])
        assert multiplicative_gap_report(channel, ring_sigma).irreducible
        assert calls == []

    def test_one_general_eigensolve_per_analysis(self, ring, capsys, monkeypatch):
        """At most one: psi's gap proves ring primitive, and leaves qubit_two_unitary
        (gap 0) to the eigensolve."""
        calls = []
        original = np.linalg.eigvals

        def counted(m):
            calls.append(m.shape)
            return original(m)

        monkeypatch.setattr(np.linalg, "eigvals", counted)
        channel, payoff = ring
        bernstein_constants(channel, payoff)
        assert calls == []
        models = os.path.join(os.path.dirname(__file__), "..", "models")
        assert cli.main(["analyze", "--model", os.path.join(models, "ring.json")]) == 0
        capsys.readouterr()
        assert calls == []
        assert cli.main(["analyze", "--model", os.path.join(models, "qubit_two_unitary.json")]) == 0
        capsys.readouterr()
        assert calls == [(4, 4)]


def eigvals_vote(channel):
    """(verdict, multiplicity, faithful) as the vote took them before the shared
    SVD: a general eigensolve, and the dual basis from ker(M_s - r I)."""
    m_h = superoperator_matrix(channel).matrix
    eigs = np.linalg.eigvals(m_h)
    radius = float(np.max(np.abs(eigs)))
    multiplicity = int(np.sum(np.abs(eigs - radius) <= spectral.TAU_EIG * max(1.0, radius)))
    dual_basis = spectral._null_space(m_h.conj().T - radius * np.eye(m_h.shape[0]))
    point = (spectral._trace_normalized(dual_basis[:, 0], channel.dim)
             if dual_basis.shape[1] == 1 else None)
    faithful = point is not None and np.min(np.linalg.eigvalsh(point)) > spectral.TAU_PSD
    eig_verdict = multiplicity == 1 and faithful
    reach_verdict = all(reachable_dimension(channel._stack, v) == channel.dim
                        for v in spectral._witness_vectors(dual_basis, channel.dim))
    return ("inconclusive" if eig_verdict != reach_verdict else eig_verdict), multiplicity, faithful


def peripheral_rule(channel):
    """Primitivity's peripheral rule on the spectrum of the complex M_h."""
    eigs = np.linalg.eigvals(superoperator_matrix(channel).matrix)
    peripheral = eigs[np.abs(eigs) >= 1.0 - spectral.TAU_PER]
    return bool(np.all(np.abs(peripheral - 1.0) <= spectral.TAU_PER))


def vote_verdict(vote, channel):
    try:
        return vote(channel).irreducible
    except spectral.InconclusiveIrreducibilityError:
        return "inconclusive"


def direct_sum_kraus(a, b):
    n = a.dim + b.dim
    ops = []
    for v, at in [(v, 0) for v in a.kraus] + [(v, a.dim) for v in b.kraus]:
        z = np.zeros((n, n), dtype=complex)
        z[at:at + v.shape[0], at:at + v.shape[0]] = v
        ops.append(z)
    return ops


COUPLINGS = (0.0, 1e-12, 1e-10, 1e-9, 1e-8, 1e-7, 1e-6)


def vote_family(family):
    """(name, builder) pairs; each builder returns a new channel object."""
    if family == "models":
        return [(path.name, lambda path=path: load_model(str(path)).channel)
                for path in sorted(MODELS.glob("*.json")) if load_model(str(path)).kind == "kraus"]
    if family == "random":
        return [(f"d{d} k{k} s{s}", lambda d=d, k=k, s=s: random_channel(d, k, 1000 * d + 10 * k + s))
                for d in range(2, 7) for k in range(1, 5) for s in range(6)]
    if family == "two-block":
        def coupled(eps, seed):
            # two random blocks, mixed with a random channel on the whole space
            a, b = random_channel(2 + seed % 2, 2, 50 + seed), random_channel(2 + seed // 2 % 2, 2, 80 + seed)
            ops = [np.sqrt(1 - eps) * v for v in direct_sum_kraus(a, b)]
            if eps:
                ops += [np.sqrt(eps) * v for v in random_channel(a.dim + b.dim, 2, 110 + seed).kraus]
            return KrausChannel(ops)
        return [(f"eps{eps} s{s}", lambda eps=eps, s=s: coupled(eps, s))
                for eps in COUPLINGS for s in range(10)]
    if family == "leak":
        def leaking(eps, seed):
            # block a drains into block b at rate eps; the fixed state lives on b
            a, b = random_channel(2 + seed % 2, 2, 600 + seed), random_channel(2, 2, 700 + seed)
            n = a.dim + b.dim
            ops = [np.sqrt(1 - eps) * v for v in direct_sum_kraus(a, b)]
            if eps:
                for i in range(a.dim):
                    leak = np.zeros((n, n), dtype=complex)
                    leak[a.dim + seed % 2, i] = np.sqrt(eps)
                    ops.append(leak)
                ops.append(np.sqrt(eps) * np.diag([0.0] * a.dim + [1.0] * b.dim).astype(complex))
            return KrausChannel(ops)
        return [(f"eps{eps} s{s}", lambda eps=eps, s=s: leaking(eps, s))
                for eps in COUPLINGS for s in range(4)]
    assert family == "loose"

    def perturbed(delta, seed):
        # trace preserving only to about delta, as loaded under --tolerance channel=1e-6
        rng = np.random.default_rng(seed)
        if seed % 2:
            base = list(random_channel(3 + seed % 3, 2, 300 + seed).kraus)
        else:
            block = direct_sum_kraus(random_channel(2, 2, 300 + seed), random_channel(2, 2, 400 + seed))
            base = ([np.sqrt(1 - 1e-9) * v for v in block]
                    + [np.sqrt(1e-9) * v for v in random_channel(4, 2, 500 + seed).kraus])
        return KrausChannel([v + delta * (rng.standard_normal(v.shape) + 1j * rng.standard_normal(v.shape))
                             for v in base], tol=1e-6)
    return [(f"delta{delta} s{s}", lambda delta=delta, s=s: perturbed(delta, s))
            for delta in (1e-9, 1e-8, 1e-7) for s in range(6)]


VOTE_FAMILIES = ("models", "random", "two-block", "leak", "loose")


class TestVoteOnTheFixedPointSVD:
    """The vote on the SVD of M_s - I gives today's verdict on 240 channels:
    4 + 120 random + 70 two-block + 28 leaking + 18 loosely trace-preserving."""

    @pytest.mark.parametrize("family", VOTE_FAMILIES)
    def test_verdicts_match_the_eigvals_vote(self, family):
        moved = []
        for name, build in vote_family(family):
            reference = eigvals_vote(build())
            try:
                evidence = is_irreducible(build())
            except spectral.InconclusiveIrreducibilityError:
                if reference[0] != "inconclusive":
                    moved.append((name, reference, "inconclusive"))
                continue
            vote = (evidence.irreducible, evidence.radius_multiplicity,
                    evidence.fixed_point_faithful)
            if vote != reference:
                moved.append((name, reference, vote))
        assert moved == []

    @pytest.mark.parametrize("family", VOTE_FAMILIES)
    def test_primitivity_matches_the_peripheral_rule_on_m_h(self, family):
        moved = [name for name, build in vote_family(family)
                 if vote_verdict(is_irreducible, channel := build()) is True
                 and spectral._peripheral_is_one(channel) != peripheral_rule(channel)]
        assert moved == []

    def test_the_gap_proof_agrees_with_the_peripheral_rule(self, monkeypatch):
        """Where psi's gap proves primitivity (no eigensolve), the rule on M_h agrees;
        is_primitive, which tries the proof first, agrees everywhere."""
        irreducible, proved, moved = 0, [], []
        original = np.linalg.eigvals
        for family in VOTE_FAMILIES:
            for name, build in vote_family(family):
                if vote_verdict(is_irreducible, channel := build()) is not True:
                    continue
                irreducible += 1
                rule = peripheral_rule(channel)
                try:  # is_primitive's route
                    gap = multiplicative_gap_report(channel, invariant_state(channel))
                except (FixedSpaceError, ValueError):
                    gap = None
                calls = []
                with monkeypatch.context() as patch:
                    patch.setattr(np.linalg, "eigvals",
                                  lambda m: (calls.append(m.shape), original(m))[1])
                    verdict = spectral._peripheral_is_one(channel, gap)
                if calls == []:
                    proved.append(name)
                if verdict != rule or is_primitive(channel) != rule:
                    moved.append((family, name, rule))
        assert moved == []
        assert irreducible == 132 and len(proved) >= 100

    def test_the_bordered_solve_keeps_the_svd_vote(self, monkeypatch):
        """(verdict, multiplicity, faithful) with the bordered solve and its Cholesky
        proof equal the SVD route's on all 240 channels; the proof settles at least 90."""
        def vote(channel):
            try:
                evidence = is_irreducible(channel)
            except spectral.InconclusiveIrreducibilityError:
                return "inconclusive"
            return (evidence.irreducible, evidence.radius_multiplicity,
                    evidence.fixed_point_faithful)

        moved, proved, total = [], 0, 0
        for family in VOTE_FAMILIES:
            for name, build in vote_family(family):
                total += 1
                verdict = vote(channel := build())
                proved += bordered(channel)
                with monkeypatch.context() as patch:
                    patch.setattr(spectral, "_proved_fixed_point", lambda m: None)
                    reference = vote(build())
                if verdict != reference:
                    moved.append((family, name, reference, verdict))
        assert moved == []
        assert total == 240 and proved >= 90

    def test_families_reach_every_verdict_and_both_counts(self):
        cases = [build for family in VOTE_FAMILIES for _, build in vote_family(family)]
        assert len(cases) >= 200
        assert {eigvals_vote(build())[0] for build in cases} == {True, False, "inconclusive"}
        counted = [spectral._fixed_space(build())[0] is not None for build in cases]
        assert sum(counted) >= 100 and len(counted) - sum(counted) >= 50

    @pytest.mark.parametrize("family", VOTE_FAMILIES)
    def test_poisson_verdicts_match_the_svd_test(self, family):
        mismatched = []
        for name, build in vote_family(family):
            channel = build()
            try:
                sigma = invariant_state(channel).matrix
            except (FixedSpaceError, ValueError):
                continue
            h = random_hermitian(channel.dim, np.random.default_rng(3))
            f = h - np.trace(sigma @ h) * np.eye(channel.dim)
            q, phi_f, inv_f = spectral._resolvent(*spectral._coordinates(channel, sigma))
            system = np.eye(phi_f.shape[0]) - phi_f
            values = np.linalg.svd(system, compute_uv=False)
            if spectral._is_singular(system, inv_f) != (values[-1] <= 1e-10 * max(values[0], 1.0)):
                mismatched.append((name, "singular"))
            certified = spectral._certified_sup_norm_chain(phi_f, inv_f, channel.dim)
            for bound in (None, certified):
                outcomes = [poisson_outcome(solve, channel, f, sigma, bound)
                            for solve in (svd_tested_poisson_solve, poisson_solve)]
                if outcomes[0] != outcomes[1]:
                    mismatched.append((name, bound, outcomes))
        assert mismatched == []


class TestStackedReachability:
    """The reachability probe on the distinct witness vectors, one stacked SVD per width and
    round, gives the per-vector loop's dimensions, tuple and verdict."""

    @pytest.mark.parametrize("family", VOTE_FAMILIES)
    def test_dims_match_the_per_vector_loop(self, family, monkeypatch):
        witnesses = []
        original = spectral._witness_vectors
        monkeypatch.setattr(spectral, "_witness_vectors",
                            lambda *args: witnesses.append(original(*args)) or witnesses[-1])
        moved = []
        for name, build in vote_family(family):
            channel = build()
            try:
                evidence = is_irreducible(channel)
                dims, verdict = evidence.reachability_dims, evidence.reachability_full
            except spectral.InconclusiveIrreducibilityError as err:
                dims, verdict = str(err), None
            reference = tuple(reachable_dimension(channel._stack, v) for v in witnesses[-1])
            full = all(dim == channel.dim for dim in reference)
            if verdict is None:
                if f"reachability says {full} (dims {reference}," not in dims:
                    moved.append((name, reference, dims))
            elif (dims, verdict) != (reference, full):
                moved.append((name, reference, dims))
        assert moved == []

    def test_ring_probes_its_five_distinct_witnesses(self, monkeypatch):
        probed = []
        original = spectral._reachable_dimensions
        monkeypatch.setattr(spectral, "_reachable_dimensions",
                            lambda kraus, vectors: probed.append(len(vectors))
                            or original(kraus, vectors))
        evidence = is_irreducible(ring_channel()[0])
        assert probed == [5] and evidence.reachability_dims == (3,) * 8

    def test_diverging_widths_take_one_stack_each(self, monkeypatch):
        """Blocks of dimensions 2 and 4: the probes split by width, so there are more
        stacked SVDs than rounds, and fewer than the per-vector loop's SVDs."""
        channel = KrausChannel(direct_sum_kraus(random_channel(2, 2, 5), random_channel(4, 2, 6)))
        vectors = np.unique(spectral._witness_vectors(spectral._fixed_space(channel)[1],
                                                      channel.dim), axis=0)
        calls = []
        original = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd",
                            lambda a, **kwargs: calls.append(a.shape) or original(a, **kwargs))
        reference = []
        for v in vectors:
            before = len(calls)
            reference.append((reachable_dimension(channel._stack, v), len(calls) - before))
        del calls[:]
        dims = spectral._reachable_dimensions(channel._stack, vectors)
        assert dims == [dim for dim, _ in reference] and len(set(dims)) > 1
        rounds = max(count for _, count in reference)
        assert len(calls) > rounds
        assert len(calls) < sum(count for _, count in reference)
        # stacks capped at one probe each: the per-vector loop's SVDs, one by one
        del calls[:]
        monkeypatch.setattr(spectral, "_PROBE_ENTRIES", 1)
        assert spectral._reachable_dimensions(channel._stack, vectors) == dims
        assert len(calls) == sum(count for _, count in reference)


# Leak channels on which the Schur route's cluster at 1 (eigenvalues within
# 1e-8) held the draining block's eigenvalue 1 - O(eps), so its "Cesaro limit"
# was faithful; the limit from the fixed-space SVD is the exact one, and no
# faithful invariant state exists.
NOT_RECURRENT = ("eps1e-10 s2", "eps1e-09 s1", "eps1e-09 s2", "eps1e-09 s3", "eps1e-08 s3",
                 "eps1e-07 s1")


def fixed_point_outcome(fixed_point, channel):
    """The Cesaro limit, or the message of the HypothesisError raised instead."""
    try:
        return fixed_point(channel)
    except HypothesisError as exc:
        return str(exc)


def kraus_model(path, channel):
    labels = [f"k{i}" for i in range(len(channel.kraus))]
    path.write_text(json.dumps({
        "kind": "kraus", "labels": labels,
        "kraus": [[[[z.real, z.imag] for z in row] for row in v] for v in channel.kraus],
        "observation": {label: float(i % 3 - 1) for i, label in enumerate(labels)}}))
    return str(path)


class TestPositiveRecurrence:
    """faithful_fixed_point from the shared fixed-space SVD against the Schur
    route on the 222 trace-preserving vote-family channels."""

    def test_verdicts_and_limits_match_the_schur_route(self):
        moved, compared, total = [], 0, 0
        for family in ("models", "random", "two-block", "leak"):
            for name, build in vote_family(family):
                total += 1
                new = fixed_point_outcome(faithful_fixed_point, build())
                old = fixed_point_outcome(schur_fixed_point, build())
                if isinstance(new, str) or isinstance(old, str):
                    if not (isinstance(new, str) and isinstance(old, str) and new == old):
                        moved.append((family, name))
                    continue
                # near-reducible channels: Schur's cluster at 1 holds eigenvalues
                # 1 - O(coupling), which the limit does not project onto
                multiplicity, basis, _ = spectral._fixed_space(build())
                if multiplicity is not None and (basis.shape[1] == 1 or name.startswith("eps0.0")):
                    compared += 1
                    assert np.max(np.abs(new - old)) < 1e-12, (family, name)
        assert moved == [("leak", name) for name in NOT_RECURRENT]
        assert total == 222 and compared >= 100

    @pytest.mark.parametrize("name", NOT_RECURRENT)
    def test_leak_channels_fail_positive_recurrence(self, name, tmp_path, capsys):
        channel = dict(vote_family("leak"))[name]()
        with pytest.raises(HypothesisError, match="positive recurrence fails"):
            decompose_invariant_subspaces(channel)
        path = kraus_model(tmp_path / "leak.json", channel)
        assert cli.main(["bound", "--flavor", "reducible", "--model", path,
                         "--n", "10", "--gamma", "0.1"]) == cli.EXIT_HYPOTHESIS
        assert "positive recurrence fails" in capsys.readouterr().err


def test_analyze_reports_the_vote_where_no_fixed_state_exists(tmp_path, capsys):
    """The irreducible loosely trace-preserving channels: R^T - I has no null
    vector, so analyze exits 3 with "no eigenvalue 1", and reports the vote's
    verdict and multiplicity, not "irreducible: false"."""
    checked = []
    for name, build in vote_family("loose"):
        if vote_verdict(is_irreducible, build()) is not True:
            continue
        evidence = is_irreducible(build())
        path = kraus_model(tmp_path / "loose.json", build())
        assert cli.main(["analyze", "--model", path, "--tolerance", "channel=1e-6"]) == 3, name
        captured = capsys.readouterr()
        diagnostics = json.loads(captured.out)["diagnostics"]
        assert diagnostics["fixed_space_dimension"] == 0, name
        assert diagnostics["irreducible"] is True, name
        assert diagnostics["radius_multiplicity"] == evidence.radius_multiplicity == 1, name
        assert "no eigenvalue 1: map is not trace preserving" in captured.err, name
        checked.append(name)
    assert len(checked) == 14


def test_verify_bernstein_passes_where_psi_is_irreducible_by_rounding(tmp_path, capsys):
    """The leak channel on which psi's verdict is irreducible, where a vote read inconclusive.

    Its sigma is faithful only by rounding (least eigenvalue 2.4e-10, exactly
    0 in exact arithmetic).  The simple top of T^T T gives epsilon = 2e-7, and
    the full vote on the explicit psi calls it irreducible too; the vote that
    counted the multiplicity from the spectrum of T^T T was inconclusive.
    """
    channel = dict(vote_family("leak"))["eps1e-07 s0"]()
    sigma = invariant_state(channel).matrix
    assert 0.0 < np.min(np.linalg.eigvalsh(sigma)) < 1e-8
    assert psi_vote(channel, sigma) is True
    assert multiplicative_gap_report(channel, sigma).irreducible
    path = kraus_model(tmp_path / "leak.json", channel)
    assert cli.main(["verify", "--flavor", "bernstein", "--model", path,
                     "--n", "4,16,64", "--gamma", "0.1,0.5"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["constants"]["hypothesis_ok"] and report["constants"]["epsilon"] > 0
    assert [row["verdict"] for row in report["rows"]] == [True] * 6


def svd_tested_poisson_solve(channel, f, sigma, certified_upper):
    """``poisson_solve`` as it was: an SVD tests singularity, then its own solve,
    on the restriction in Hermitian coordinates."""
    q, phi_f = spectral._restriction(*spectral._coordinates(channel, sigma))
    system = np.eye(phi_f.shape[0]) - phi_f
    values = np.linalg.svd(system, compute_uv=False)
    if values[-1] <= 1e-10 * max(values[0], 1.0):
        raise HypothesisError("channel is reducible: Id - phi is singular on the centered subspace")
    coordinates = q @ np.linalg.solve(system, q.T @ hermitian_coordinates(f))
    a = from_hermitian_coordinates(coordinates, channel.dim)  # f is Hermitian, so is a
    residual = float(np.max(np.abs((a - channel.heisenberg(a)) - f)))
    if residual > 1e-10 * max(1.0, float(np.max(np.abs(f)))):
        raise HypothesisError(f"Poisson residual {residual:.3e} exceeds tolerance")
    if certified_upper is not None and uniform_norm(a) > certified_upper * uniform_norm(f) + 1e-12:
        raise HypothesisError("solution norm exceeds certified bound")
    return a


def poisson_outcome(solve, channel, f, sigma, bound):
    """The verdict of a Poisson solve: the first words of its error, or "solved"."""
    try:
        solve(channel, f, sigma, bound)
    except HypothesisError as exc:
        return " ".join(str(exc).split()[:2])
    return "solved"


class TestCholeskyProof:
    """_proves_psd accepts a least eigenvalue of k c and rejects -k c, c its shift."""

    @pytest.mark.parametrize("n", [3, 40])
    @pytest.mark.parametrize("formed", [0.0, 1e-9])
    def test_accepts_beyond_the_shift_and_rejects_below(self, n, formed):
        rng = np.random.default_rng(n)
        q = np.linalg.qr(rng.standard_normal((n, n)))[0]
        rest = rng.uniform(1.0, 2.0, n - 1)

        def matrix(least):
            b = (q * np.concatenate([[least], rest])) @ q.T
            return (b + b.T) / 2

        unit = np.finfo(float).eps / 2
        gamma = (n + 1) * unit / (1 - (n + 1) * unit)
        shift = 2 * gamma * float(np.abs(np.diagonal(matrix(0.0))).sum()) + formed
        for k in (2, 10, 100):
            assert spectral._proves_psd(matrix(k * shift), formed), k
            assert not spectral._proves_psd(matrix(-k * shift), formed), k


def counted_factorisations(monkeypatch):
    """The matrices of the general eigensolves and of the square SVDs with vectors."""
    calls = {"eigvals": [], "svd": []}
    eigvals, svd = np.linalg.eigvals, np.linalg.svd

    def counted_eigvals(m):
        calls["eigvals"].append(m)
        return eigvals(m)

    def counted_svd(m, *args, **kwargs):
        if kwargs.get("compute_uv", True) and m.shape[0] == m.shape[1]:
            calls["svd"].append(m)
        return svd(m, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvals", counted_eigvals)
    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    return calls


def random_model(path, d):
    channel = random_channel(d, 3, 17)
    labels = [f"k{i}" for i in range(3)]
    path.write_text(json.dumps({
        "kind": "kraus", "labels": labels,
        "kraus": [[[[z.real, z.imag] for z in row] for row in v] for v in channel.kraus],
        "observation": dict(zip(labels, (1.0, 0.0, -1.0)))}))
    return str(path)


class TestOneFixedPointFactorisation:
    @pytest.mark.parametrize("d", [3, 6])
    def test_hoeffding_bound_takes_no_fixed_space_svd_and_no_eigensolve(self, d, tmp_path,
                                                                         capsys, monkeypatch):
        path = str(MODELS / "ring.json") if d == 3 else random_model(tmp_path / "random6.json", d)
        calls = counted_factorisations(monkeypatch)
        assert cli.main(["bound", "--flavor", "hoeffding", "--model", path,
                         "--n", "100,1000", "--gamma", "0.5"]) == 0
        capsys.readouterr()
        assert calls["eigvals"] == []
        assert [m.shape for m in calls["svd"] if m.shape[0] == d * d] == []  # the bordered solve

    @pytest.mark.parametrize("d", [3, 8])
    def test_bernstein_constants_take_no_svd_and_no_eigensolve(self, d, monkeypatch):
        sigma = invariant_state(random_channel(d, 3, 17))  # on another channel object
        channel = random_channel(d, 3, 17)
        payoff = {label: float(i % 3 - 1) for i, label in enumerate(channel.labels)}
        calls = []
        svd, eigvals = np.linalg.svd, np.linalg.eigvals
        monkeypatch.setattr(np.linalg, "svd", lambda m, *a, **k: (calls.append(m.shape),
                                                                   svd(m, *a, **k))[1])
        monkeypatch.setattr(np.linalg, "eigvals", lambda m: (calls.append(m.shape), eigvals(m))[1])
        assert bernstein_constants(channel, payoff, sigma=sigma).hypothesis_ok
        assert calls == []

    def test_bernstein_bound_takes_no_svd(self, capsys, monkeypatch):
        calls = []
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda m, *a, **k: (calls.append(m.shape),
                                                                   svd(m, *a, **k))[1])
        assert cli.main(["bound", "--flavor", "bernstein", "--model", str(MODELS / "ring.json"),
                         "--n", "100,1000", "--gamma", "0.5"]) == 0
        capsys.readouterr()
        assert calls == []  # invariant_state takes the bordered solve and its Cholesky proof

    @pytest.mark.parametrize("command", ["analyze", "hoeffding", "bernstein"])
    def test_each_form_is_built_once(self, command, tmp_path, capsys, monkeypatch):
        """analyze and both bounds build the channel's R once (and psi's T once)."""
        path = random_model(tmp_path / "random6.json", 6)
        forms = []
        build = spectral.hermitian_coordinate_matrix
        monkeypatch.setattr(spectral, "hermitian_coordinate_matrix",
                            lambda ops, g=None: (forms.append(np.stack(ops)), build(ops, g))[1])
        argv = (["analyze"] if command == "analyze" else
                ["bound", "--flavor", command, "--n", "100,1000", "--gamma", "0.5"])
        assert cli.main([*argv, "--model", path]) == 0
        capsys.readouterr()
        kraus = np.stack(load_model(path).channel.kraus)
        assert sum(np.array_equal(ops, kraus) for ops in forms) == 1
        assert len(forms) == (1 if command == "hoeffding" else 2)
        assert not any(np.array_equal(a, b) for i, a in enumerate(forms) for b in forms[:i])

    def test_decomposition_takes_one_svd_and_none_per_block(self, monkeypatch):
        channel, _ = two_block_ring()
        calls = counted_factorisations(monkeypatch)
        dec = decompose_invariant_subspaces(channel)
        assert calls["eigvals"] == []
        for sub in dec.restricted_channels:  # the bordered solve serves the vote and the state
            assert bordered(sub)
        # the whole channel's, whose left null vectors give the split
        assert [m.shape for m in calls["svd"] if m.shape[0] > 3] == [(36, 36)]


class TestPoisson:
    def test_zero_rhs(self, ring, ring_sigma):
        channel, _ = ring
        a = poisson_solve(channel, np.zeros((3, 3)), ring_sigma)
        assert np.max(np.abs(a)) < 1e-12

    def test_rank_one_identity_on_centered(self):
        ch, sigma = rank_one_channel(seed=6)
        rng = np.random.default_rng(6)
        f = random_hermitian(3, rng)
        f = f - np.trace(sigma @ f) * np.eye(3)
        a = poisson_solve(ch, f, sigma)
        assert np.max(np.abs(a - f)) < 1e-11

    def test_ring_payoff_observable(self, ring, ring_sigma):
        channel, payoff = ring
        f_op = sum(payoff[l] * v.conj().T @ v
                   for l, v in zip(channel.labels, channel.kraus))
        a = poisson_solve(channel, f_op, ring_sigma)
        residual = (a - channel.heisenberg(a)) - f_op
        assert np.max(np.abs(residual)) < 1e-11
        assert abs(np.trace(ring_sigma.matrix @ a)) < 1e-11

    def test_round_trip_on_centered_inputs(self, ring, ring_sigma):
        channel, _ = ring
        rng = np.random.default_rng(9)
        x = random_hermitian(3, rng)
        x -= np.trace(ring_sigma.matrix @ x) * np.eye(3)
        rhs = x - channel.heisenberg(x)
        back = poisson_solve(channel, rhs, ring_sigma)
        assert np.max(np.abs(back - x)) < 1e-10

    def test_uncentered_rejected(self, ring, ring_sigma):
        channel, _ = ring
        with pytest.raises(ValueError, match="not centered"):
            poisson_solve(channel, np.eye(3), ring_sigma)

    def test_reducible_rejected(self, two_block):
        # Id - phi is singular on the centered subspace of a two-block
        # channel, so the centered solution would not be unique
        channel, _ = two_block
        sigma = faithful_fixed_point(channel)
        f = np.diag([1.0, -1.0, 0.0, 0.0, 0.0, 0.0]).astype(complex)
        f -= np.trace(sigma @ f) * np.eye(6)
        with pytest.raises(HypothesisError, match="reducible"):
            poisson_solve(channel, f, sigma)


class TestDeformed:
    def test_u_zero_unchanged(self, ring):
        channel, payoff = ring
        tilted = deformed_channel(channel, payoff, 0.0)
        assert all(np.array_equal(a, b) for a, b in zip(tilted.kraus, channel.kraus))

    def test_constant_payoff_scalar_factor(self, ring):
        channel, _ = ring
        tilted = deformed_channel(channel, {l: 2.0 for l in channel.labels}, 0.3)
        m = superoperator_matrix(tilted).matrix
        m0 = superoperator_matrix(channel).matrix
        assert np.max(np.abs(m - np.exp(0.6) * m0)) < 1e-12

    def test_not_trace_preserving_flagged(self, ring):
        channel, payoff = ring
        tilted = deformed_channel(channel, payoff, 0.2)
        assert not tilted.is_channel

    def test_ring_tilted_spectrum_is_complex(self, ring):
        # asymmetric payoffs on the hops make the tilted family non-normal
        channel, payoff = ring
        tilted = deformed_channel(channel, payoff, 0.3)
        eigs = np.linalg.eigvals(superoperator_matrix(tilted).matrix)
        assert np.max(np.abs(eigs.imag)) > 1e-6

    def test_radius_at_zero(self, ring, ring_sigma):
        channel, payoff = ring
        assert spectral_radius_deformed(channel, payoff, 0.0, ring_sigma) == \
            pytest.approx(1.0, abs=1e-10)

    def test_radius_flat_for_zero_payoff(self, ring, ring_sigma):
        channel, _ = ring
        zero = {l: 0.0 for l in channel.labels}
        for u in (0.1, 0.7, 2.0):
            assert spectral_radius_deformed(channel, zero, u, ring_sigma) == \
                pytest.approx(1.0, abs=1e-10)

    def test_radius_nondecreasing_for_nonnegative_payoff(self, ring, ring_sigma):
        channel, _ = ring
        f = {l: (1.0 if l.endswith("+") else 0.0) for l in channel.labels}
        grid = [spectral_radius_deformed(channel, f, u, ring_sigma)
                for u in np.linspace(0.0, 0.5, 8)]
        assert all(b >= a - 1e-10 for a, b in zip(grid, grid[1:]))


class TestDecomposition:
    def test_irreducible_single_block(self, ring):
        channel, _ = ring
        dec = decompose_invariant_subspaces(channel)
        assert dec.blocks == 1
        assert np.max(np.abs(dec.projections[0] - np.eye(3))) < 1e-10

    def test_two_block_recovered(self, two_block):
        channel, _ = two_block
        dec = decompose_invariant_subspaces(channel)
        assert dec.blocks == 2
        assert sorted(u.shape[1] for u in dec.isometries) == [3, 3]
        assert dec.commutation_residual < 1e-8
        total = sum(dec.projections)
        assert np.max(np.abs(total - np.eye(6))) < 1e-10
        weights = dec.weights(np.eye(6) / 6)
        assert np.allclose(weights, [0.5, 0.5], atol=1e-10)

    def test_nondemolition_pointer_blocks(self):
        channel = nondemolition_channel(seed=5, dim=3)
        dec = decompose_invariant_subspaces(channel)
        assert dec.blocks == 3
        assert all(u.shape[1] == 1 for u in dec.isometries)

    def test_no_faithful_state_rejected(self):
        p = 0.3
        v0 = np.array([[1, 0], [0, np.sqrt(1 - p)]], dtype=complex)
        v1 = np.array([[0, np.sqrt(p)], [0, 0]], dtype=complex)
        with pytest.raises(HypothesisError, match="positive recurrence"):
            decompose_invariant_subspaces(KrausChannel([v0, v1]))

    def test_collided_split_gives_up(self, two_block, monkeypatch):
        # every draw collides: the bounded retry raises instead of recursing
        monkeypatch.setattr(spectral, "_group_eigenvalues",
                            lambda w, tol: [np.arange(w.size)])
        channel, _ = two_block
        with pytest.raises(HypothesisError, match="block decomposition"):
            decompose_invariant_subspaces(channel)

    def test_mixture_law_short_sequences(self, two_block):
        channel, _ = two_block
        dec = decompose_invariant_subspaces(channel)
        rng = np.random.default_rng(12)
        rho = random_state(6, rng)
        weights = dec.weights(rho)

        def law(ch, state, seq):
            op = state.astype(complex)
            for lab in seq:
                v = ch.kraus[ch.labels.index(lab)]
                op = v @ op @ v.conj().T
            return float(np.trace(op).real)

        from itertools import product
        labels = channel.labels
        worst = 0.0
        for length in (1, 2, 3, 4):
            for seq in product(labels, repeat=length):
                total = law(channel, rho, seq)
                mix = 0.0
                for j in range(dec.blocks):
                    if weights[j] <= 1e-15:
                        continue
                    block_labels = [dec.restricted_channels[j].labels.index(l)
                                    for l in seq]
                    rho_j = dec.block_state(rho, j)
                    mix += weights[j] * law(dec.restricted_channels[j], rho_j, seq)
                worst = max(worst, abs(total - mix))
            if length == 2:
                assert worst < 1e-10  # early signal before the big loop
        assert worst < 1e-10


class TestPowerNorms:
    def test_leading_entry_is_one(self, ring, ring_sigma):
        channel, _ = ring
        assert phi_power_norms(channel, ring_sigma)[0][0] == 1.0

    def test_rank_one_zero_tail(self):
        ch, sigma = rank_one_channel(seed=7)
        norms, tail = phi_power_norms(ch, sigma)
        assert norms[0] == 1.0
        assert all(v < 1e-12 for v in norms[1:]) and tail < 1e-12

    def test_ring_decays(self, ring, ring_sigma):
        channel, _ = ring
        norms, _ = phi_power_norms(channel, ring_sigma)
        assert all(b <= a + 1e-12 for a, b in zip(norms[1:], norms[2:]))
        assert norms[6] < 0.1

    @pytest.mark.parametrize("seed", range(20))
    def test_tail_covers_the_terms_it_replaces(self, seed):
        channel = case_channel(f"random:{seed}")
        sigma = invariant_state(channel)
        norms, tail = phi_power_norms(channel, sigma)
        phi_f = chain_inputs(f"random:{seed}")[0]
        later = power_norms(phi_f, len(norms) + 499)[len(norms):]
        assert len(later) == 500
        assert sum(min(1.0, np.sqrt(channel.dim) * x) for x in later) <= tail
