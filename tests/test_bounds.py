import math
import os

import numpy as np
import pytest

from qmcbounds.bounds import (
    BoundResult,
    BoundConstants,
    TimeStep,
    Unravelling,
    bernstein_bound,
    bernstein_constants,
    confidence_lower_bound,
    counting_aux_bounds,
    counting_bound,
    counting_constants,
    h_function,
    hoeffding_bound,
    hoeffding_constants,
    multitime_hoeffding,
    n_rho,
    reducible_bound,
    stationary_stats,
    time_dependent_bernstein,
    time_dependent_bound,
    time_dependent_constants,
    time_dependent_hoeffding,
    _effects_law,
    _step_stats,
    _window_effects,
)
import qmcbounds.spectral as spectral
from qmcbounds import cli
from qmcbounds.modelfile import load_model
from qmcbounds.fixtures import random_channel
from qmcbounds.operators import GKLSGenerator, KrausChannel, kraus_family_deviation
from qmcbounds.spectral import (
    decompose_invariant_subspaces,
    gkls_steady_state,
    invariant_state,
    pseudoresolvent_norm,
)

from conftest import random_state
from reference import cycled_time_dependent


class TestHFunction:
    def test_values(self):
        assert h_function(0.0) == pytest.approx(0.5)
        assert h_function(3.0) == pytest.approx(2.0 / 9.0)
        assert h_function(1.0 / 3.0) == pytest.approx(0.430781, abs=1e-6)

    def test_strictly_decreasing(self):
        xs = np.linspace(0.0, 20.0, 50)
        ys = [h_function(x) for x in xs]
        assert all(b < a for a, b in zip(ys, ys[1:]))
        assert all(0.0 < y <= 0.5 for y in ys)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            h_function(-0.1)


class TestStationaryStats:
    def test_constant_payoff_degenerates(self, ring, ring_sigma):
        channel, _ = ring
        stats = stationary_stats(channel, ring_sigma, {l: 3.0 for l in channel.labels})
        assert stats.b == 0.0 and stats.c == 0.0
        assert stats.mean == pytest.approx(3.0)

    def test_ring_symmetric(self, ring, ring_sigma):
        channel, payoff = ring
        stats = stationary_stats(channel, ring_sigma, payoff)
        assert stats.pi.sum() == pytest.approx(1.0, abs=1e-12)
        assert stats.mean == pytest.approx(0.0, abs=1e-12)
        assert stats.b == pytest.approx(1.0, abs=1e-12)
        assert stats.c == pytest.approx(1.0, abs=1e-12)

    def test_two_unitary_qubit_values(self, qubit):
        channel, payoff = qubit
        sigma = invariant_state(channel)
        stats = stationary_stats(channel, sigma, payoff)
        assert stats.mean == pytest.approx(0.4, abs=1e-12)
        assert stats.c == pytest.approx(1.4, abs=1e-12)
        assert stats.b**2 == pytest.approx(0.84, abs=1e-12)


class TestNRho:
    def test_equal_states(self):
        rng = np.random.default_rng(0)
        sigma = random_state(3, rng)
        assert n_rho(sigma, sigma) == pytest.approx(1.0, abs=1e-10)

    def test_pure_state_against_maximally_mixed(self):
        rho = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)
        assert n_rho(rho, np.eye(4) / 4) == pytest.approx(2.0, abs=1e-12)

    def test_never_below_one(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            sigma = random_state(3, rng)
            rho = random_state(3, rng)
            assert n_rho(rho, sigma) >= 1.0 - 1e-10


class TestBernstein:
    def test_worked_example(self):
        constants = BoundConstants(b=1.0, c=1.0, epsilon=0.5, n_rho=1.0)
        res = bernstein_bound(constants, 0.1, 100)
        assert res.exponent == pytest.approx(-0.0358984, abs=1e-6)
        assert res.probability_bound == pytest.approx(0.964738, abs=1e-6)

    def test_small_gamma_approaches_prefactor(self):
        constants = BoundConstants(b=1.0, c=1.0, epsilon=0.5, n_rho=1.3)
        res = bernstein_bound(constants, 1e-9, 10)
        assert res.probability_bound == pytest.approx(1.0)  # min(1, n_rho)
        res2 = bernstein_bound(BoundConstants(b=1.0, c=1.0, epsilon=0.5, n_rho=0.9999),
                               1e-9, 10)
        assert res2.probability_bound == pytest.approx(0.9999, abs=1e-6)

    def test_deterministic_average(self):
        constants = BoundConstants(b=0.0, c=0.0, epsilon=0.5, n_rho=1.0)
        res = bernstein_bound(constants, 0.2, 5)
        assert res.valid and res.probability_bound == 0.0

    def test_reducible_symmetrization_invalid(self):
        constants = BoundConstants(b=1.0, c=1.0, epsilon=0.0, n_rho=1.0,
                                   hypothesis_ok=False)
        res = bernstein_bound(constants, 0.2, 5)
        assert not res.valid and res.probability_bound == 1.0

    def test_two_sided_doubles_prefactor(self):
        constants = BoundConstants(b=1.0, c=1.0, epsilon=0.5, n_rho=1.0)
        one = bernstein_bound(constants, 0.3, 50)
        two = bernstein_bound(constants, 0.3, 50, two_sided=True)
        assert two.probability_bound == pytest.approx(
            min(1.0, 2.0 * one.probability_bound))

    def test_monotone_in_n_and_gamma(self, ring):
        channel, payoff = ring
        constants = bernstein_constants(channel, payoff)
        bounds_n = [bernstein_bound(constants, 0.3, n).probability_bound
                    for n in (5, 10, 20, 40)]
        assert all(b <= a + 1e-15 for a, b in zip(bounds_n, bounds_n[1:]))
        bounds_g = [bernstein_bound(constants, g, 20).probability_bound
                    for g in (0.1, 0.3, 0.6, 0.9)]
        assert all(b <= a + 1e-15 for a, b in zip(bounds_g, bounds_g[1:]))

    def test_autocentering_consistency(self, ring):
        channel, payoff = ring
        shifted = {l: v + 5.0 for l, v in payoff.items()}
        a = bernstein_constants(channel, payoff)
        b = bernstein_constants(channel, shifted)
        assert a.b == pytest.approx(b.b, abs=1e-12)
        assert a.c == pytest.approx(b.c, abs=1e-12)
        ra = bernstein_bound(a, 0.25, 30).probability_bound
        rb = bernstein_bound(b, 0.25, 30).probability_bound
        assert ra == pytest.approx(rb, abs=1e-14)


class TestHoeffding:
    def test_regime_boundary_gives_one(self):
        constants = BoundConstants(c=1.0, g=2.0, n_rho=1.0)
        res = hoeffding_bound(constants, 0.4, 10)  # n gamma = 4 = 2G
        assert res.valid and res.probability_bound == 1.0 and res.exponent == 0.0

    def test_outside_regime_flagged(self):
        constants = BoundConstants(c=1.0, g=2.0, n_rho=1.0)
        res = hoeffding_bound(constants, 0.1, 10)
        assert not res.valid and res.probability_bound == 1.0
        assert res.reason == "outside regime"

    def test_single_step_zero(self):
        constants = BoundConstants(c=1.0, g=1.5, n_rho=1.0)
        res = hoeffding_bound(constants, 3.1, 1)  # gamma >= 2G >= 2c
        assert res.valid and res.probability_bound == 0.0

    def test_degenerate_constant_exact_zero(self):
        # a constant payoff (c = 0, hence G = 0) cannot deviate, as in Bernstein
        res = hoeffding_bound(BoundConstants(c=0.0, g=0.0, n_rho=1.0), 0.5, 10)
        assert res.valid and res.probability_bound == 0.0 and res.exponent == -np.inf
        with pytest.raises(ValueError):
            hoeffding_bound(BoundConstants(c=1.0, g=None, n_rho=1.0), 0.5, 10)

    def test_qubit_constants_certified(self, qubit):
        channel, payoff = qubit
        constants = hoeffding_constants(channel, payoff)
        assert constants.hypothesis_ok
        assert cli._constants_dict(constants)["g_provenance"] == "certified-upper"
        assert constants.g > 2.0 * constants.c / 2.0  # g = (1 + norm) c >= c
        res = hoeffding_bound(constants, 0.9, 16)
        if res.valid:
            assert 0.0 <= res.probability_bound <= 1.0


    def test_constants_never_run_the_heuristic(self, ring, ring_sigma, monkeypatch):
        channel, payoff = ring
        windows = {(a, b): (1.0 if a.endswith("+") else 0.0)
                   for a in channel.labels for b in channel.labels}
        certified = pseudoresolvent_norm(channel, ring_sigma).certified_upper
        constants = hoeffding_constants(channel, payoff, rho=np.eye(3) / 3)
        window_bound = multitime_hoeffding(channel, ring_sigma.matrix, windows, 0.45, 32)

        def heuristic(*args, **kwargs):
            raise AssertionError("heuristic lower estimate ran on the bound path")

        monkeypatch.setattr(spectral, "_lower_estimate", heuristic)
        assert constants.g == (1.0 + certified) * constants.c
        assert hoeffding_constants(channel, payoff, rho=np.eye(3) / 3) == constants
        assert multitime_hoeffding(channel, ring_sigma.matrix, windows, 0.45, 32) == window_bound


class TestCounting:
    def test_worked_example(self):
        constants = BoundConstants(b=0.5, epsilon=0.4, n_rho=1.0, m=0.25, alpha=1.0)
        res = counting_bound(constants, 0.2, 100.0)
        assert res.exponent == pytest.approx(-0.5, abs=1e-12)
        assert res.probability_bound == pytest.approx(math.exp(-0.5), abs=1e-12)

    def test_small_gamma_approaches_prefactor(self):
        constants = BoundConstants(b=0.5, epsilon=0.4, n_rho=2.0, m=0.25, alpha=1.0)
        res = counting_bound(constants, 1e-12, 10.0)
        assert res.probability_bound == pytest.approx(1.0)

    def test_invalid_without_gap(self):
        constants = BoundConstants(b=0.5, epsilon=0.0, n_rho=1.0, m=0.25, alpha=1.0,
                                   hypothesis_ok=False)
        assert not counting_bound(constants, 0.1, 10.0).valid

    def test_driven_qubit_constants(self, qubit_gen):
        constants = counting_constants(qubit_gen, "click")
        assert constants.m == pytest.approx(2.0 / 9.0, abs=1e-12)
        assert constants.hypothesis_ok and constants.epsilon > 0
        assert constants.b > 0 and constants.alpha > 0

    def test_aux_bounds_dominate(self, qubit_gen):
        sigma = gkls_steady_state(qubit_gen)
        constants = counting_constants(qubit_gen, "click", sigma=sigma)
        aux = counting_aux_bounds(qubit_gen, "click", sigma)
        assert aux["m"] == pytest.approx(constants.m, abs=1e-12)
        assert aux["b_upper"] >= constants.b - 1e-12
        assert aux["alpha_upper"] >= constants.alpha - 1e-12

    def test_aux_bounds_maximally_mixed_normal_jump(self):
        # normal jump with sigma = 1/d: b_upper = ||L^*L||^(1/2) m^(1/2),
        # alpha_upper = ||L L^*|| d
        kappa = 0.3
        l = np.sqrt(kappa) * np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        gen = GKLSGenerator(np.zeros((2, 2)), [l], labels=("c",))
        sigma = np.eye(2) / 2
        aux = counting_aux_bounds(gen, "c", sigma)
        assert aux["m"] == pytest.approx(kappa)
        assert aux["b_upper"] == pytest.approx(math.sqrt(kappa) * math.sqrt(kappa))
        assert aux["alpha_upper"] == pytest.approx(kappa * 2)

    def test_aux_bounds_zero_jump(self):
        gen = GKLSGenerator(np.zeros((2, 2)), [np.zeros((2, 2))], labels=("c",))
        aux = counting_aux_bounds(gen, "c", np.eye(2) / 2)
        assert aux["m"] == 0.0 and aux["b_upper"] == 0.0 and aux["alpha_upper"] == 0.0

    def test_random_generators_aux_dominance(self):
        rng = np.random.default_rng(5)
        for seed in range(5):
            h = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            h = (h + h.conj().T) / 2
            jumps = [rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
                     for _ in range(2)]
            gen = GKLSGenerator(h, jumps, labels=("a", "b"))
            try:
                sigma = gkls_steady_state(gen)
            except Exception:
                continue
            constants = counting_constants(gen, "a", sigma=sigma)
            aux = counting_aux_bounds(gen, "a", sigma)
            assert aux["b_upper"] >= constants.b - 1e-10
            assert aux["alpha_upper"] >= constants.alpha - 1e-10


def schedule_case(case):
    """(channel, period, sigma): ring_tdm's schedule; random:6, three steps of a seeded
    d = 6 channel over its own and a rotated unravelling; cycle:3, the 3-cycle
    permutation in two equal halves paying +-1, with sigma = 1/3."""
    if case == "ring_tdm":
        model = load_model(os.path.join(os.path.dirname(__file__), "..", "models",
                                        "ring_tdm.json"))
        return model.channel, model.schedule, invariant_state(model.channel).matrix
    if case == "cycle:3":
        half = np.roll(np.eye(3), 1, axis=0) / np.sqrt(2)
        channel = KrausChannel([half, half], ["a", "b"])
        return channel, [TimeStep(Unravelling.standard(channel), {"a": 1.0, "b": -1.0})], \
            np.eye(3) / 3
    channel = random_channel(6, 3, seed=6)
    rng = np.random.default_rng(6)
    mix = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))[0]
    rotated = Unravelling([(sum(mix[i, j] * v for j, v in enumerate(channel.kraus)),)
                           for i in range(3)], ["x", "y", "z"])
    steps = [TimeStep(unravelling, dict(zip(unravelling.labels, rng.standard_normal(3))))
             for unravelling in (Unravelling.standard(channel), rotated,
                                 Unravelling.standard(channel))]
    return channel, steps, invariant_state(channel).matrix


class TestTimeDependent:
    def test_homogeneous_steps_reduce_to_bernstein(self, ring, ring_sigma):
        channel, payoff = ring
        steps = [TimeStep(Unravelling.standard(channel), payoff)] * 12
        res = time_dependent_bernstein(channel, steps, ring_sigma.matrix, None, 0.3)
        base = bernstein_bound(bernstein_constants(channel, payoff, sigma=ring_sigma),
                               0.3, 12)
        assert res.probability_bound == pytest.approx(base.probability_bound, abs=1e-12)

    def test_zero_payoffs_degenerate(self, ring, ring_sigma):
        channel, _ = ring
        zero = {l: 0.0 for l in channel.labels}
        steps = [TimeStep(Unravelling.standard(channel), zero)] * 5
        res = time_dependent_bernstein(channel, steps, ring_sigma.matrix, None, 0.2)
        assert res.valid and res.probability_bound == 0.0

    def test_unravelling_mismatch_rejected(self, ring, ring_sigma):
        channel, payoff = ring
        broken = Unravelling([(0.9 * v,) for v in channel.kraus], channel.labels)
        with pytest.raises(ValueError, match="does not sum"):
            time_dependent_bernstein(channel, [TimeStep(broken, payoff)],
                                     ring_sigma.matrix, None, 0.2)

    def test_hoeffding_single_step_constant(self, ring, ring_sigma):
        channel, payoff = ring
        steps = [TimeStep(Unravelling.standard(channel), payoff)]
        beyond = time_dependent_hoeffding(channel, steps, ring_sigma.matrix, None, 1.5)
        assert beyond.valid and beyond.probability_bound == 0.0
        at = time_dependent_hoeffding(channel, steps, ring_sigma.matrix, None, 1.0)
        assert not at.valid  # G_1 = c_1 boundary: the range can be attained

    def test_hoeffding_rank_one_collapses(self):
        from test_spectral import rank_one_channel
        ch, sigma = rank_one_channel(seed=9)
        payoff = {l: (1.0 if i % 2 else -1.0) for i, l in enumerate(ch.labels)}
        steps = [TimeStep(Unravelling.standard(ch), payoff)] * 6
        res = time_dependent_hoeffding(ch, steps, sigma, None, 0.9)
        # only the j = 0 term survives: G_n = 2 c_n
        assert res.constants.g == pytest.approx(2.0 * res.constants.c, abs=1e-9)

    def test_alternating_unravellings(self, ring, ring_sigma):
        channel, payoff = ring
        rotated = []
        labels = []
        for k in range(3):
            up, dn = channel.kraus[2 * k], channel.kraus[2 * k + 1]
            rotated += [((up + dn) / np.sqrt(2),), ((up - dn) / np.sqrt(2),)]
            labels += [f"{k}s", f"{k}d"]
        unr_b = Unravelling(rotated, labels)
        payoff_b = {l: (1.0 if l.endswith("s") else -1.0) for l in labels}
        steps = []
        for k in range(10):
            if k % 2 == 0:
                steps.append(TimeStep(Unravelling.standard(channel), payoff))
            else:
                steps.append(TimeStep(unr_b, payoff_b))
        res = time_dependent_bernstein(channel, steps, ring_sigma.matrix, None, 0.4)
        assert res.valid and 0.0 < res.probability_bound <= 1.0
        res_h = time_dependent_hoeffding(channel, steps, ring_sigma.matrix, None, 0.4)
        assert res_h.flavor == "tdm-hoeffding"

    def test_unravelling_check_is_the_shared_deviation(self, ring):
        """The old kron-loop deviation within 1e-15: 0 on the channel's own operators,
        rounding on the rotated split, the perturbation on perturbed ones; inf on a
        wrongly shaped operator."""
        channel, _ = ring
        model = load_model(os.path.join(os.path.dirname(__file__), "..", "models",
                                        "ring_tdm.json"))
        paired = Unravelling([channel.kraus[2 * k:2 * k + 2] for k in range(3)])

        def kron_loop(ops):
            return sum(np.kron(w.T, w.conj().T) for w in ops)

        def old_deviation(ops, reference):
            return float(np.max(np.abs(kron_loop(ops) - kron_loop(reference))))

        rng = np.random.default_rng(11)
        cases = [(model.unravellings["edges"], model.channel, 0.0),
                 (paired, channel, 0.0),
                 (model.unravellings["rotated"], model.channel, None)]
        for unravelling, reference, exact in cases:
            flat = [w for ops in unravelling.maps for w in ops]
            new = kraus_family_deviation(flat, reference.kraus)
            assert abs(new - old_deviation(flat, reference.kraus)) <= 1e-15
            assert new == exact if exact is not None else new <= 1e-15
            for scale in (1e-10, 1e-8, 1e-6):
                perturbed = [w + scale * (rng.standard_normal(w.shape)
                                          + 1j * rng.standard_normal(w.shape)) for w in flat]
                old = old_deviation(perturbed, reference.kraus)
                assert old > 0.1 * scale
                assert abs(kraus_family_deviation(perturbed, reference.kraus) - old) <= 1e-15
        wrong = [*model.channel.kraus[:-1], np.eye(2)]
        assert kraus_family_deviation(wrong, model.channel.kraus) == math.inf

    @pytest.mark.parametrize("case", ["ring_tdm", "random:6", "cycle:3"])
    def test_the_period_matches_the_cycled_steps(self, case):
        """c_n and G_n at every n <= 2000 are those of the steps cycled to n with
        every power norm, and b_n is that of their running variance sum up to the
        period.  Beyond it, b_n lies within 4 ulps of the exact sum's: the running
        float sum drifts from it (by 41 ulps of b_n at n <= 2000 on random:6).
        cycle:3 is a permutation channel: every t_j is 1 and no tail converges."""
        channel, steps, sigma = schedule_case(case)
        constants = time_dependent_constants(channel, steps, sigma, None, "hoeffding")
        _, phi_f = spectral._restriction(*spectral._coordinates(channel, sigma))
        expected = cycled_time_dependent(_step_stats(steps, sigma), phi_f, channel.dim, 2000)
        moved = []
        for n, (c_n, b_n, exact_b_n, g_n) in enumerate(expected, start=1):
            got = time_dependent_bound(constants, 0.5, n).constants
            b_moved = (got.b != b_n if n <= len(steps)
                       else abs(got.b - exact_b_n) > 4 * math.ulp(exact_b_n))
            if (got.c, got.g) != (c_n, g_n) or b_moved:
                moved.append((n, got.c - c_n, got.b - b_n, got.g - g_n))
        assert moved == []
        if case == "cycle:3":  # the powers ran to the cap
            assert set(constants.powers) == {1.0} and len(constants.powers) == 4_000_000 // 81 + 1


class TestMultitime:
    def test_window_one_reduces_to_hoeffding(self, ring, ring_sigma):
        channel, payoff = ring
        windows = {(l,): payoff[l] for l in channel.labels}
        res = multitime_hoeffding(channel, ring_sigma.matrix, windows, 0.8, 10)
        base = hoeffding_bound(hoeffding_constants(channel, payoff, sigma=ring_sigma),
                               0.8, 10)
        assert res.valid == base.valid
        if res.valid:
            # same exponent shape with m = 1
            assert res.probability_bound == pytest.approx(base.probability_bound,
                                                          abs=1e-12)

    def test_stationary_pair_law(self, ring, ring_sigma):
        channel, _ = ring
        law = _effects_law(ring_sigma.matrix, _window_effects(channel, 2))
        assert sum(law.values()) == pytest.approx(1.0, abs=1e-12)
        # hops are independently +- with probability 1/2: each directed pair
        # of edge labels consistent with the walk has probability 1/36 * ...
        up_up = sum(v for k, v in law.items()
                    if k[0].endswith("+") and k[1].endswith("+"))
        assert up_up == pytest.approx(0.25, abs=1e-12)

    def test_zero_payoff_degenerate(self, ring, ring_sigma):
        channel, _ = ring
        windows = {(a, b): 0.0 for a in channel.labels for b in channel.labels}
        res = multitime_hoeffding(channel, ring_sigma.matrix, windows, 0.2, 10)
        assert res.valid and res.probability_bound == 0.0

    def test_pair_indicator_in_regime(self, ring, ring_sigma):
        channel, _ = ring
        windows = {(a, b): (1.0 if a.endswith("+") and b.endswith("+") else 0.0)
                   for a in channel.labels for b in channel.labels}
        res = multitime_hoeffding(channel, ring_sigma.matrix, windows, 0.45, 32)
        assert res.valid
        assert 0.0 < res.probability_bound < 1.0


class TestReducible:
    def test_single_block_matches_two_sided(self, ring, ring_sigma):
        channel, payoff = ring
        dec = decompose_invariant_subspaces(channel)
        rho = np.eye(3) / 3
        mix = reducible_bound(dec, rho, payoff, 0.3, 12, flavor="bernstein")
        direct = bernstein_bound(
            bernstein_constants(channel, payoff, rho=rho, sigma=ring_sigma),
            0.3, 12, two_sided=True)
        assert mix.mixture_bound == pytest.approx(direct.probability_bound, abs=1e-10)

    def test_two_block_weights(self, two_block):
        channel, payoff = two_block
        dec = decompose_invariant_subspaces(channel)
        rho = np.eye(6) / 6
        mix = reducible_bound(dec, rho, payoff, 0.4, 10, flavor="bernstein")
        assert np.allclose(sorted(mix.weights), [0.5, 0.5], atol=1e-10)
        assert sorted(np.round(mix.block_means, 6)) == [-0.4, 0.3]
        assert 0.0 <= mix.mixture_bound <= 1.0

    def test_state_on_one_block(self, two_block):
        channel, payoff = two_block
        dec = decompose_invariant_subspaces(channel)
        rho = np.zeros((6, 6), dtype=complex)
        rho[:3, :3] = np.eye(3) / 3
        # identify which block carries the support
        weights = dec.weights(rho)
        assert sorted(np.round(weights, 12)) == [0.0, 1.0]
        mix = reducible_bound(dec, rho, payoff, 0.4, 10, flavor="hoeffding")
        live = [r for r in mix.block_results if r is not None]
        assert len(live) == 1


class TestConfidence:
    def test_weak_bounds_clip_to_zero(self, ring):
        channel, payoff = ring
        constants_b = bernstein_constants(channel, payoff)
        constants_h = hoeffding_constants(channel, payoff)
        ber = bernstein_bound(constants_b, 0.05, 10)
        hoe = hoeffding_bound(constants_h, 0.05, 10)
        assert confidence_lower_bound(10, 0.05, ber, hoe) == 0.0

    def test_arithmetic_with_invalid_flavor(self):
        # bernstein bound 0.05, hoeffding outside its regime -> coverage 0.9
        constants = BoundConstants(b=1.0, c=1.0, epsilon=0.75, n_rho=1.0)
        ber = BoundResult(probability_bound=0.05, exponent=-3.0, valid=True,
                          constants=constants, flavor="bernstein", gamma=0.2,
                          horizon=100)
        hoe = BoundResult(probability_bound=1.0, exponent=0.0, valid=False,
                          constants=constants, flavor="hoeffding", gamma=0.2,
                          horizon=100, reason="outside regime")
        assert confidence_lower_bound(100, 0.2, ber, hoe) == pytest.approx(0.9)

    def test_mismatch_rejected(self, ring):
        channel, payoff = ring
        constants = bernstein_constants(channel, payoff)
        ber = bernstein_bound(constants, 0.1, 10)
        hoe = bernstein_bound(constants, 0.2, 10)
        with pytest.raises(ValueError, match="different"):
            confidence_lower_bound(10, 0.1, ber, hoe)
