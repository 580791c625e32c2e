import math

import numpy as np
import pytest
from scipy.linalg import expm

import qmcbounds.trajectory as trajectory
from qmcbounds.fixtures import PAULI_X, PAULI_Z, random_channel
from qmcbounds.operators import (
    ChannelValidationError,
    DensityMatrix,
    GKLSGenerator,
    KrausChannel,
    NotFaithfulError,
    NotSelfadjointError,
    ObservationFunction,
    from_hermitian_coordinates,
    hermitian_coordinate_matrix,
    hermitian_coordinates,
    kms_adjoint,
    kms_conjugated,
    kms_inner,
    kms_norm,
    kms_operator_norm,
    kms_positive_parts,
    superoperator_matrix,
    uniform_norm,
    unvec,
    validate_channel,
    vec,
)

from conftest import random_hermitian, random_state
from reference import einsum_blocks, hermitian_basis


def ring_ops(amplitude):
    ops = []
    for k in range(3):
        up = np.zeros((3, 3), dtype=complex)
        up[(k + 1) % 3, k] = amplitude
        dn = np.zeros((3, 3), dtype=complex)
        dn[(k - 1) % 3, k] = amplitude
        ops += [up, dn]
    return ops


class TestChannelValidation:
    def test_identity_channel_passes(self):
        report = validate_channel(KrausChannel([np.eye(2)]))
        assert report.passed and report.max_deviation == 0.0

    def test_ring_amplitude_half_fails(self):
        # sum V^* V = identity / 2 for hop amplitude 1/2
        with pytest.raises(ChannelValidationError):
            KrausChannel(ring_ops(0.5))
        ch = KrausChannel(ring_ops(0.5), expect_channel=False)
        total = sum(v.conj().T @ v for v in ch.kraus)
        assert np.allclose(total, np.eye(3) / 2)
        assert not validate_channel(ch).passed

    def test_ring_amplitude_sqrt_half_passes(self):
        report = validate_channel(KrausChannel(ring_ops(1 / np.sqrt(2))))
        assert report.passed and report.max_deviation <= 1e-15

    def test_zero_kraus_flagged(self):
        ch = KrausChannel([np.eye(2), np.zeros((2, 2))], expect_channel=False)
        assert validate_channel(ch).zero_kraus_labels == (1,)

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            KrausChannel([np.eye(2) / np.sqrt(2)] * 2, labels=("a", "a"))


class TestChannelAction:
    def test_identity_channel_fixes_everything(self):
        ch = KrausChannel([np.eye(3)])
        rng = np.random.default_rng(0)
        x = random_hermitian(3, rng)
        assert np.allclose(ch.heisenberg(x), x)

    def test_ring_fixes_maximally_mixed(self, ring):
        channel, _ = ring
        out = channel.schrodinger(np.eye(3) / 3)
        assert np.max(np.abs(out - np.eye(3) / 3)) < 1e-15

    @pytest.mark.parametrize("seed", range(5))
    def test_duality_pairing(self, seed):
        rng = np.random.default_rng(seed)
        ch = random_channel(3, 3, seed)
        x = random_hermitian(3, rng)
        rho = random_state(3, rng)
        lhs = np.trace(rho @ ch.heisenberg(x))
        rhs = np.trace(ch.schrodinger(rho) @ x)
        assert abs(lhs - rhs) < 1e-12

    def test_dimension_mismatch(self, ring):
        channel, _ = ring
        with pytest.raises(Exception):
            channel.heisenberg(np.eye(2))


class TestKMSInner:
    def test_maximally_mixed_identity(self):
        assert kms_inner(np.eye(2), np.eye(2), np.eye(2) / 2) == pytest.approx(1.0)

    def test_maximally_mixed_reduces_to_hs(self):
        rng = np.random.default_rng(1)
        x, y = (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
                for _ in range(2))
        got = kms_inner(x, y, np.eye(3) / 3)
        assert got == pytest.approx(np.trace(x.conj().T @ y) / 3)

    def test_skewed_state_pauli_x(self):
        sigma = np.diag([0.75, 0.25])
        got = kms_inner(PAULI_X, PAULI_X, sigma)
        assert got.real == pytest.approx(2 * np.sqrt(0.75 * 0.25), abs=1e-12)

    def test_singular_state_rejected(self):
        with pytest.raises(NotFaithfulError, match="not faithful"):
            kms_inner(np.eye(2), np.eye(2), np.diag([1.0, 0.0]))

    def test_norm_of_identity_is_one(self):
        rng = np.random.default_rng(2)
        sigma = random_state(4, rng)
        assert kms_norm(np.eye(4), sigma) == pytest.approx(1.0)


class TestKMSAdjoint:
    def test_maximally_mixed_adjoint_is_trace_dual(self):
        ch = random_channel(2, 3, seed=3)
        # with sigma = 1/d the weighting is scalar: adjoint = trace dual
        adj = kms_adjoint(ch, np.eye(2) / 2)
        rng = np.random.default_rng(3)
        x = random_hermitian(2, rng)
        assert np.allclose(adj.heisenberg(x), ch.schrodinger(x), atol=1e-12)

    def test_adjoint_is_channel_with_same_invariant_state(self):
        from qmcbounds.spectral import invariant_state
        ch = random_channel(3, 3, seed=4)
        sigma = invariant_state(ch)
        adj = kms_adjoint(ch, sigma)
        assert np.max(np.abs(adj.heisenberg(np.eye(3)) - np.eye(3))) < 1e-11
        assert np.max(np.abs(adj.schrodinger(sigma.matrix) - sigma.matrix)) < 1e-11

    @pytest.mark.parametrize("seed", range(4))
    def test_pairing_and_involution(self, seed):
        rng = np.random.default_rng(seed)
        ch = KrausChannel([rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
                           for _ in range(2)], expect_channel=False)
        sigma = random_state(3, rng)
        adj = kms_adjoint(ch, sigma)
        x, y = random_hermitian(3, rng), random_hermitian(3, rng)
        lhs = kms_inner(x, ch.heisenberg(y), sigma)
        rhs = kms_inner(adj.heisenberg(x), y, sigma)
        assert abs(lhs - rhs) < 1e-12
        twice = kms_adjoint(adj, sigma)
        assert np.max(np.abs(hermitian_coordinate_matrix(twice.kraus)
                             - hermitian_coordinate_matrix(ch.kraus))) < 1e-12

    def test_norm_inequality_for_positive_map_differences(self):
        # for completely positive eta1, eta2: ||eta1 - eta2||_2 <= ||eta1 + eta2||_2
        rng = np.random.default_rng(7)
        for seed in range(10):
            d = int(rng.integers(2, 5))
            sigma = random_state(d, rng)
            k1 = [rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
                  for _ in range(2)]
            k2 = [rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
                  for _ in range(2)]
            r1, r2 = (hermitian_coordinate_matrix(kms_conjugated(k, sigma)) for k in (k1, k2))
            diff = float(np.linalg.norm(r1 - r2, 2))
            total = kms_operator_norm(KrausChannel(k1 + k2, expect_channel=False), sigma)
            assert diff <= total + 1e-12


class TestPositiveParts:
    def test_psd_input_untouched(self):
        rng = np.random.default_rng(5)
        sigma = random_state(3, rng)
        x = random_state(3, rng) * 3.0
        plus, minus = kms_positive_parts(x, sigma)
        assert np.max(np.abs(plus - x)) < 1e-10
        assert np.max(np.abs(minus)) < 1e-10

    def test_negative_identity(self):
        sigma = random_state(2, np.random.default_rng(6))
        plus, minus = kms_positive_parts(-np.eye(2), sigma)
        assert np.max(np.abs(plus)) < 1e-12
        assert np.max(np.abs(minus - np.eye(2))) < 1e-12

    def test_pauli_z_split(self):
        sigma = np.diag([0.75, 0.25])
        plus, minus = kms_positive_parts(PAULI_Z, sigma)
        assert np.max(np.abs((plus - minus) - PAULI_Z)) < 1e-12
        assert np.min(np.linalg.eigvalsh(plus)) > -1e-12
        assert np.min(np.linalg.eigvalsh(minus)) > -1e-12
        assert abs(kms_inner(plus, minus, sigma)) < 1e-12

    def test_non_selfadjoint_rejected(self):
        with pytest.raises(NotSelfadjointError):
            kms_positive_parts(np.array([[0, 1], [0, 0]], dtype=complex),
                               np.eye(2) / 2)


class TestSuperoperator:
    def test_identity_map(self):
        sup = superoperator_matrix(KrausChannel([np.eye(3)]))
        assert np.array_equal(sup.matrix, np.eye(9))

    def test_kraus_matrix_matches_action(self, ring):
        channel, _ = ring
        sup = superoperator_matrix(channel)
        for i in range(3):
            for j in range(3):
                unit = np.zeros((3, 3), dtype=complex)
                unit[i, j] = 1.0
                direct = channel.heisenberg(unit)
                assert np.max(np.abs(sup.apply(unit) - direct)) < 1e-13

    def test_gkls_kernel_contains_identity(self, qubit_gen):
        sup = superoperator_matrix(qubit_gen)
        assert np.max(np.abs(sup.matrix @ vec(np.eye(2)))) < 1e-13

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    @pytest.mark.parametrize("lead", [(), (5,), (2, 3)])
    def test_stacked_vec_is_the_per_matrix_loop(self, d, lead):
        rng = np.random.default_rng(d)
        x = rng.standard_normal(lead + (d, d)) + 1j * rng.standard_normal(lead + (d, d))
        flat = x.reshape((-1, d, d))
        v = vec(x)
        assert v.shape == lead + (d * d,)
        assert np.array_equal(v.reshape((-1, d * d)),
                              np.stack([m.reshape(-1, order="F") for m in flat]))
        back = unvec(v, d)
        assert np.array_equal(back.reshape((-1, d, d)),
                              np.stack([w.reshape((d, d), order="F")
                                        for w in v.reshape((-1, d * d))]))
        assert np.array_equal(back, x)


def bitwise_equal(a, b) -> bool:
    """Equal bit for bit, signed zeros included."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def random_generator(seed: int) -> GKLSGenerator:
    rng = np.random.default_rng(seed)
    d = 2 + seed % 3
    h = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    jumps = [rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
             for _ in range(1 + seed % 2)]
    return GKLSGenerator((h + h.conj().T) / 2, jumps)


def dp_blocks(channel):
    """The exact DP's real blocks: the coordinate matrix of each one-operator family."""
    return np.stack([hermitian_coordinate_matrix([v]) for v in channel.kraus])


class TestHermitianCoordinates:
    """The builders reproduce the inline constructions they replaced: the
    coordinates bit for bit, the DP's blocks to rounding."""

    @staticmethod
    def channels(ring):
        return [ring[0]] + [random_channel(2 + s % 4, 1 + s % 3, 70 + s) for s in range(5)]

    @staticmethod
    def old_basis(d):
        e = np.eye(d * d, dtype=complex).reshape(d, d, d, d)
        pairs = [(p, q) for p in range(d) for q in range(p + 1, d)]
        return np.stack([e[p, p] for p in range(d)]
                        + [(e[p, q] + e[q, p]) * math.sqrt(0.5) for p, q in pairs]
                        + [(e[q, p] - e[p, q]) * 1j * math.sqrt(0.5) for p, q in pairs])

    def test_blocks_and_coordinates_are_the_old_einsums(self, ring):
        rng = np.random.default_rng(3)
        for channel in self.channels(ring):
            basis = self.old_basis(channel.dim)
            assert bitwise_equal(hermitian_basis(channel.dim), basis)
            assert np.max(np.abs(dp_blocks(channel) - einsum_blocks(channel))) <= 2e-16
            rho = random_state(channel.dim, rng)
            assert bitwise_equal(hermitian_coordinates(rho),
                                 np.einsum("bqp,pq->b", basis, rho).real)

    def test_blocks_act_as_the_channel(self, ring):
        """r @ K[i] are the coordinates of V_i T V_i^*; sum_i K[i] is the Heisenberg matrix."""
        rng = np.random.default_rng(4)
        for channel in self.channels(ring):
            blocks = dp_blocks(channel)
            x = random_hermitian(channel.dim, rng)
            r = hermitian_coordinates(x)
            for v, block in zip(channel.kraus, blocks):
                assert np.allclose(r @ block, hermitian_coordinates(v @ x @ v.conj().T),
                                   atol=1e-12)
            assert np.allclose(blocks.sum(axis=0) @ r,
                               hermitian_coordinates(channel.heisenberg(x)), atol=1e-12)
            back = np.einsum("b,bpq->pq", r, hermitian_basis(channel.dim))
            assert np.allclose(back, x, atol=1e-12)

    def test_coordinate_matrix_is_the_unitary_change_of_basis(self, ring):
        """U^* M U with U the vec(B_b) columns; real coordinates give Hermitian matrices."""
        rng = np.random.default_rng(6)
        for channel in self.channels(ring):
            d = channel.dim
            u = vec(hermitian_basis(d)).T
            assert np.allclose(u.conj().T @ u, np.eye(d * d), atol=1e-15)
            m = superoperator_matrix(channel).matrix
            r = hermitian_coordinate_matrix(channel.kraus)
            assert r.dtype == float and np.max(np.abs((u.conj().T @ m @ u).imag)) < 1e-14
            assert np.allclose(r, (u.conj().T @ m @ u).real, atol=1e-14)
            x = rng.standard_normal((4, d, d)) + 1j * rng.standard_normal((4, d, d))
            coordinates = hermitian_coordinates(x) + 1j * hermitian_coordinates(-1j * x)
            assert np.allclose(from_hermitian_coordinates(coordinates, d), x, atol=1e-14)
            h = from_hermitian_coordinates(hermitian_coordinates(x), d)
            assert np.array_equal(h, h.conj().swapaxes(-1, -2))
            assert np.allclose(h, (x + x.conj().swapaxes(-1, -2)) / 2, atol=1e-14)
            images = np.stack([channel.heisenberg(y) for y in h])
            assert np.allclose(hermitian_coordinates(h) @ r.T, hermitian_coordinates(images),
                               atol=1e-13)

    @pytest.mark.parametrize("generator", ["qubit_gen", "poisson_gen", 0, 1, 2, 3, 4])
    def test_no_jump_matrix_is_the_old_kron(self, generator, request):
        """The counting sampler's d x d eigenbasis of G rebuilds the d^2 x d^2 no-jump matrix.

        The old kron matrix of rho -> G rho + rho G^* has the eigenvectors
        kron(conj(P), P) and eigenvalues conj(w_i) + w_j, so its conditioning
        is cond(P)^2, the quantity the sampler's guard bounds.
        """
        gen = (random_generator(generator) if isinstance(generator, int)
               else request.getfixturevalue(generator))
        g, eye = gen.no_jump_generator_matrix, np.eye(gen.dim)
        old = np.kron(g.conj(), eye) + np.kron(eye, g)
        w, right, left = trajectory._no_jump_basis(gen)
        p = right.T
        assert np.allclose(left.T @ p, eye, atol=1e-12)
        basis = np.kron(p.conj(), p)
        rebuilt = basis @ np.diag(np.add.outer(w.conj(), w).ravel()) @ np.linalg.inv(basis)
        assert np.allclose(rebuilt, old, atol=1e-12)
        assert np.linalg.cond(basis) == pytest.approx(np.linalg.cond(p) ** 2, rel=1e-8)
        rng = np.random.default_rng(5)
        psi = rng.standard_normal(gen.dim) + 1j * rng.standard_normal(gen.dim)
        for tau in (0.1, 3.0):
            row = (psi @ left * np.exp(tau * w)) @ right
            assert np.allclose(row, expm(tau * g) @ psi, atol=1e-12)


class TestGKLS:
    def test_generator_unitality(self, qubit_gen):
        assert np.max(np.abs(qubit_gen.apply(np.eye(2)))) < 1e-13

    def test_non_selfadjoint_hamiltonian_rejected(self):
        with pytest.raises(NotSelfadjointError):
            GKLSGenerator(np.array([[0, 1], [0, 0]]), [np.zeros((2, 2))])


class TestNorms:
    def test_uniform_norm_identity(self):
        assert uniform_norm(np.eye(5)) == pytest.approx(1.0)

    def test_channel_contraction_in_kms_norm(self):
        from qmcbounds.spectral import invariant_state
        for seed in range(5):
            ch = random_channel(3, 3, seed=seed + 20)
            sigma = invariant_state(ch)
            assert kms_operator_norm(ch, sigma) <= 1.0 + 1e-10


class TestDomainTypes:
    def test_density_matrix_validation(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.diag([0.7, 0.7]))
        with pytest.raises(ValueError):
            DensityMatrix(np.diag([1.5, -0.5]))
        dm = DensityMatrix(np.diag([0.25, 0.75]))
        assert dm.is_faithful()

    def test_observation_function(self):
        f = ObservationFunction({"a": 1.0, "b": -1.0})
        assert np.allclose(f.vector(("b", "a")), [-1.0, 1.0])
        with pytest.raises(KeyError):
            f.vector(("a", "c"))
        with pytest.raises(ValueError):
            ObservationFunction({"a": float("nan")})
