import itertools

import numpy as np
import pytest

from qmcbounds import classical
from qmcbounds.classical import (
    FluxFunction,
    MarkovChain,
    chain_pseudoresolvent_norm,
    doubled_chain,
    edge_stationary_law,
    embed_diagonal,
    exact_flux_tail,
    flux_bernstein,
    flux_hoeffding,
    flux_matrix,
    stationary_distribution,
    stationary_l2_adjoint,
    _flux_laws,
)
from qmcbounds.spectral import HypothesisError
from qmcbounds.trajectory import exact_tail_dp

from reference import flux_mgf


RING_WALK = MarkovChain(np.array([[0.0, 0.5, 0.5],
                                  [0.5, 0.0, 0.5],
                                  [0.5, 0.5, 0.0]]), states=(0, 1, 2))


def edge_indicator(chain, edge):
    return {e: (1.0 if e == edge else 0.0) for e in chain.edges()}


class TestStationary:
    def test_ring_walk_uniform(self):
        assert np.allclose(stationary_distribution(RING_WALK), np.ones(3) / 3)

    def test_two_state(self, chain2):
        sigma = stationary_distribution(chain2)
        assert np.allclose(sigma, [4 / 7, 3 / 7], atol=1e-13)
        assert np.max(np.abs(sigma @ chain2.transition - sigma)) < 1e-12

    def test_doubly_stochastic_uniform(self):
        p = np.array([[0.2, 0.8], [0.8, 0.2]])
        assert np.allclose(stationary_distribution(MarkovChain(p)), [0.5, 0.5])

    def test_reducible_rejected(self):
        with pytest.raises(HypothesisError, match="reducible"):
            stationary_distribution(MarkovChain(np.eye(2)))

    def test_malformed_rows_rejected(self):
        with pytest.raises(ValueError, match="sum"):
            MarkovChain([[0.5, 0.4], [0.5, 0.5]])


class TestAdjoint:
    @pytest.mark.parametrize("seed", range(5))
    def test_l2_pairing(self, chain2, seed):
        sigma = stationary_distribution(chain2)
        adj = stationary_l2_adjoint(chain2, sigma)
        rng = np.random.default_rng(seed)
        h, g = rng.standard_normal(2), rng.standard_normal(2)
        lhs = float(np.sum(sigma * h * (chain2.transition @ g)))
        rhs = float(np.sum(sigma * (adj @ h) * g))
        assert abs(lhs - rhs) < 1e-12


class TestFluxBernstein:
    def test_zero_flux_degenerate(self, chain2):
        sigma = stationary_distribution(chain2)
        zero = {e: 0.0 for e in chain2.edges()}
        res = flux_bernstein(chain2, sigma, zero, 0.3, 10)
        assert res.valid and res.probability_bound == 0.0

    def test_stationary_start_unit_prefactor(self, chain2):
        sigma = stationary_distribution(chain2)
        f = edge_indicator(chain2, ("a", "b"))
        res = flux_bernstein(chain2, sigma, f, 0.2, 10)
        assert res.constants.n_rho == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("nu_kind", ["stationary", "point"])
    def test_dominates_exact_tail(self, chain2, nu_kind):
        sigma = stationary_distribution(chain2)
        nu = sigma if nu_kind == "stationary" else np.array([1.0, 0.0])
        f = edge_indicator(chain2, ("a", "b"))
        mean = float(np.sum(edge_stationary_law(chain2, sigma)
                            * flux_matrix(f, chain2)))
        for n in (4, 8, 12):
            for gamma in (0.1, 0.3, 0.5, 0.7):
                res = flux_bernstein(chain2, nu, f, gamma, n)
                exact = exact_flux_tail(chain2, nu, f, n, mean + gamma)
                assert res.probability_bound >= exact - 1e-12


class TestFluxHoeffding:
    def test_rank_one_rows_norm_one(self):
        # iid chain: every row equals the stationary law, P acts as a
        # projection so (Id - P)^(-1) is the identity on the centered space
        p = np.array([[0.6, 0.4], [0.6, 0.4]])
        chain = MarkovChain(p)
        assert chain_pseudoresolvent_norm(chain) == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("seed", range(40))
    def test_chain_path_dominates_enumeration(self, seed, monkeypatch):
        # the certified norm chain (no vertex enumeration) must bound the
        # exact vertex-enumeration value from above
        rng = np.random.default_rng(seed)
        e = int(rng.integers(3, 9))
        p = rng.random((e, e)) * (rng.random((e, e)) < 0.6)
        p[np.arange(e), (np.arange(e) + 1) % e] += 0.2  # a cycle keeps it irreducible
        chain = MarkovChain(p / p.sum(axis=1, keepdims=True))
        exact = chain_pseudoresolvent_norm(chain)
        monkeypatch.setattr(classical, "_VERTEX_LIMIT", 0)
        assert chain_pseudoresolvent_norm(chain) >= exact - 1e-12

    def test_dominates_exact_tail_in_regime(self, chain2):
        sigma = stationary_distribution(chain2)
        f = edge_indicator(chain2, ("a", "b"))
        mean = float(np.sum(edge_stationary_law(chain2, sigma)
                            * flux_matrix(f, chain2)))
        seen_valid = False
        for n in (8, 12, 16):
            for gamma in (0.5, 0.7, 0.9):
                res = flux_hoeffding(chain2, f, gamma, n)
                exact = exact_flux_tail(chain2, sigma, f, n, mean + gamma)
                assert res.probability_bound >= exact - 1e-12
                seen_valid = seen_valid or res.valid
        assert seen_valid  # the grid reaches the n gamma >= 2G regime

    def test_single_step_zero_beyond_range(self, chain2):
        f = edge_indicator(chain2, ("a", "b"))
        res = flux_hoeffding(chain2, f, 50.0, 1)
        assert res.valid and res.probability_bound == 0.0


class TestDoubledChain:
    def test_two_state_doubling(self, chain2):
        doubled = doubled_chain(chain2)
        assert doubled.size == 4
        sigma = stationary_distribution(doubled)
        edge_law = edge_stationary_law(chain2)[chain2.transition > 0]
        assert np.allclose(sigma, edge_law, atol=1e-12)

    def test_singleton(self):
        single = MarkovChain([[1.0]], states=("x",))
        doubled = doubled_chain(single)
        assert doubled.size == 1 and doubled.states == (("x", "x"),)

    def test_ring_walk_doubling(self):
        doubled = doubled_chain(RING_WALK)
        assert doubled.size == 6
        assert np.allclose(stationary_distribution(doubled), np.ones(6) / 6)

    def test_doubled_symmetrization_degenerates(self, chain2):
        # the multiplicative symmetrization of the edge-level chain is never
        # irreducible beyond a singleton state space, which is why the flux
        # bounds are built from P itself
        from qmcbounds.classical import _strongly_connected, stationary_l2_adjoint
        doubled = doubled_chain(chain2)
        q = stationary_l2_adjoint(doubled) @ doubled.transition
        assert not _strongly_connected(q > 1e-12)
        sym = np.max(np.abs(stationary_l2_adjoint(doubled) - doubled.transition))
        assert sym > 0.1  # nor is the doubled chain selfadjoint


class TestDiagonalEmbedding:
    def test_ring_recovers_half_amplitudes(self):
        channel, _ = embed_diagonal(RING_WALK, {e: 1.0 for e in RING_WALK.edges()})
        assert channel.is_channel
        amps = sorted(np.max(np.abs(v)) for v in channel.kraus)
        assert np.allclose(amps, [1 / np.sqrt(2)] * 6)

    @pytest.mark.parametrize("nu", [np.array([4 / 7, 3 / 7]), np.array([1.0, 0.0])])
    def test_two_state_tails_agree(self, chain2, nu):
        f = edge_indicator(chain2, ("a", "b"))
        channel, payoff = embed_diagonal(chain2, f)
        rho0 = np.diag(nu).astype(complex)
        for n in (5, 9, 12):
            for gamma in (0.2, 0.45):
                classical = exact_flux_tail(chain2, nu, f, n, gamma)
                quantum = exact_tail_dp(channel, rho0, payoff, n, gamma)
                assert abs(classical - quantum) < 1e-11

    def test_permutation_chain_deterministic(self):
        perm = MarkovChain(np.array([[0.0, 1.0], [1.0, 0.0]]), states=("x", "y"))
        channel, payoff = embed_diagonal(perm, {e: 1.0 for e in perm.edges()})
        from qmcbounds.trajectory import sample_discrete
        rec = sample_discrete(channel, np.diag([1.0, 0.0]).astype(complex), 4, seed=0)
        assert rec.outcomes == (("x", "y"), ("y", "x"), ("x", "y"), ("y", "x"))


class TestMGF:
    def test_matches_enumeration(self, chain2):
        sigma = stationary_distribution(chain2)
        f = edge_indicator(chain2, ("a", "b"))
        fm = flux_matrix(f, chain2)
        for n in (3, 6, 8):
            for u in (0.1, 0.4):
                brute = 0.0
                for path in itertools.product(range(2), repeat=n + 1):
                    w = sigma[path[0]]
                    score = 0.0
                    for k in range(n):
                        w *= chain2.transition[path[k], path[k + 1]]
                        score += fm[path[k], path[k + 1]]
                    brute += w * np.exp(u * score)
                assert flux_mgf(chain2, sigma, f, n, u) == pytest.approx(brute,
                                                                         rel=1e-12)


class TestFluxLaw:
    @pytest.mark.parametrize("seed", range(4))
    def test_log_laplace_matches_mgf(self, seed):
        rng = np.random.default_rng(seed)
        p = rng.random((3, 3)) * (rng.random((3, 3)) < 0.7)  # some edges missing
        p[np.arange(3), rng.integers(0, 3, 3)] += 0.1
        chain = MarkovChain(p / p.sum(axis=1, keepdims=True))
        f = {e: float(rng.integers(-3, 4)) / 2 for e in chain.edges()}
        nu = rng.random(3)
        nu[seed % 3] = 0.0
        nu /= nu.sum()
        laws = _flux_laws(chain, nu, f, [20, 1, 7])
        for n, law in laws.items():
            assert law.masses.sum() == pytest.approx(1.0, abs=1e-14)
            for u in (-0.7, 0.3, 1.1):
                assert law.log_laplace(u) == pytest.approx(
                    np.log(flux_mgf(chain, nu, f, n, u)), abs=1e-12)
            single = _flux_laws(chain, nu, f, [n])[n]
            assert np.array_equal(law.masses, single.masses)


class TestFluxFunction:
    def test_missing_edge_rejected(self, chain2):
        with pytest.raises(KeyError, match="undefined"):
            FluxFunction({("a", "b"): 1.0}).matrix(chain2)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            FluxFunction({("a", "b"): float("inf")})
