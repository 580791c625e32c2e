"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
The exact-tail oracles (score-lattice dynamic programming, closed-form
Poisson tails, brute-force enumeration) are independent of the bound
implementations they check.
"""

import os
import subprocess
import sys
import time
from itertools import product

import numpy as np
import pytest
from scipy import stats

import qmcbounds.trajectory as trajectory
from qmcbounds.bounds import (
    TimeStep,
    Unravelling,
    bernstein_bound,
    bernstein_constants,
    confidence_lower_bound,
    counting_bound,
    counting_constants,
    hoeffding_bound,
    hoeffding_constants,
    multitime_hoeffding,
    reducible_bound,
    time_dependent_bernstein,
    time_dependent_hoeffding,
)
from qmcbounds.fixtures import (
    poisson_counting_qubit,
    random_channel,
    ring_channel,
    two_block_ring,
    two_unitary_qubit,
)
from qmcbounds.operators import (
    KrausChannel,
    hermitian_coordinate_matrix,
    kms_adjoint,
    kms_conjugated,
    kms_inner,
    kms_operator_norm,
    kms_positive_parts,
    uniform_norm,
)
from qmcbounds.spectral import (
    certified_pseudoresolvent_norm,
    decompose_invariant_subspaces,
    gkls_steady_state,
    invariant_state,
    is_irreducible,
    multiplicative_gap_report,
    poisson_solve,
    spectral_radius_deformed,
)
from qmcbounds.trajectory import (
    _channel_step,
    _filter_batch,
    counting_counts,
    mc_tail,
    mc_tail_unravelled,
    score_distribution_dp,
    score_distribution_windowed,
    wilson_interval,
)
from qmcbounds.classical import (
    edge_stationary_law,
    embed_diagonal,
    exact_flux_tail,
    flux_bernstein,
    flux_hoeffding,
    flux_matrix,
    stationary_distribution,
)
from qmcbounds.fixtures import two_state_chain

N_GRID = list(range(4, 17))
GAMMA_GRID = [round(0.1 * k, 2) for k in range(1, 10)]
MODELS = os.path.join(os.path.dirname(__file__), "..", "models")


def _verdict(num: int, name: str, ok: bool) -> None:
    print(f"\nACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'} - {name}")


@pytest.fixture(scope="module")
def fixtures():
    ring, ring_f = ring_channel()
    qubit, qubit_f = two_unitary_qubit()
    return {
        "ring": (ring, ring_f, invariant_state(ring)),
        "qubit": (qubit, qubit_f, invariant_state(qubit)),
    }


def test_criterion_01_bernstein_dominance(fixtures):
    ok = False
    started = time.time()
    try:
        for name, (channel, payoff, sigma) in fixtures.items():
            states = [("stationary", sigma.matrix)]
            if name == "ring":
                pure = np.zeros((3, 3), dtype=complex)
                pure[0, 0] = 1.0
                states.append(("pure", pure))
            from qmcbounds.bounds import stationary_stats
            mean = stationary_stats(channel, sigma, payoff).mean
            for _, rho0 in states:
                constants = bernstein_constants(channel, payoff, rho=rho0,
                                                sigma=sigma)
                for n in N_GRID:
                    dist = score_distribution_dp(channel, rho0, payoff, n)
                    for gamma in GAMMA_GRID:
                        res = bernstein_bound(constants, gamma, n)
                        tail = dist.tail(mean + gamma)  # deviation past the mean
                        assert res.probability_bound >= tail - 1e-12, \
                            (name, n, gamma, res.probability_bound, tail)
        elapsed = time.time() - started
        assert elapsed < 30.0, f"criterion 1 took {elapsed:.1f}s"
        ok = True
    finally:
        _verdict(1, "Bernstein bound dominates exact tails on both fixtures", ok)


def test_criterion_02_hoeffding_dominance(fixtures):
    ok = False
    try:
        for name, (channel, payoff, sigma) in fixtures.items():
            constants = hoeffding_constants(channel, payoff, sigma=sigma)
            g = constants.g
            from qmcbounds.bounds import stationary_stats
            mean = stationary_stats(channel, sigma, payoff).mean
            in_regime_points = 0
            for n in N_GRID:
                dist = score_distribution_dp(channel, sigma.matrix, payoff, n)
                for gamma in GAMMA_GRID:
                    if n * gamma < 2.0 * g:
                        continue
                    in_regime_points += 1
                    res = hoeffding_bound(constants, gamma, n)
                    assert res.valid
                    tail = dist.tail(mean + gamma)
                    assert res.probability_bound >= tail - 1e-12, \
                        (name, n, gamma, res.probability_bound, tail)
            if name == "ring":
                assert in_regime_points > 0, "ring: no grid point reaches 2G"
            elif in_regime_points == 0:
                # the two-unitary qubit has pseudoresolvent norm > 11 (its
                # heuristic lower estimate already shows this), so 2G lies
                # beyond the whole n <= 16 grid: the regime set is empty
                print(f"(note: {name} fixture has no grid point with "
                      f"n*gamma >= 2G = {2 * g:.2f}; dominance holds vacuously)")
            # single measurement at least twice the range away: exact tail 0
            from qmcbounds.bounds import stationary_stats
            stats_ = stationary_stats(channel, sigma, payoff)
            dist1 = score_distribution_dp(channel, sigma.matrix, payoff, 1)
            assert dist1.tail(stats_.mean + 2.0 * stats_.c) == 0.0
            res1 = hoeffding_bound(constants, 2.0 * g + 1e-9, 1)
            assert res1.valid and res1.probability_bound == 0.0
        ok = True
    finally:
        _verdict(2, "Hoeffding bound dominates exact tails in regime", ok)


def test_criterion_03_chernoff_identity(fixtures):
    ok = False
    try:
        for name, (channel, payoff, sigma) in fixtures.items():
            rho0 = sigma.matrix
            for n in (1, 2, 4, 8):
                dist = score_distribution_dp(channel, rho0, payoff, n)
                for u in (0.0, 0.05, 0.1, 0.2):
                    via_dp = dist.laplace(u)
                    via_powers = _tilted_expectation(channel, rho0, payoff, n, u)
                    assert abs(via_dp - via_powers) < 1e-10 * max(1.0, via_dp), \
                        (name, n, u, via_dp, via_powers)
        ok = True
    finally:
        _verdict(3, "Laplace transform via tilted powers equals the DP value", ok)


def _tilted_expectation(channel, rho0, payoff, n, u):
    from qmcbounds.spectral import deformed_channel
    tilted = deformed_channel(channel, payoff, u)
    x = np.eye(channel.dim, dtype=complex)
    for _ in range(n):
        x = tilted.heisenberg(x)
    return float(np.trace(rho0 @ x).real)


def test_criterion_04_tilted_radius_bound(fixtures):
    ok = False
    try:
        for name, (channel, payoff, sigma) in fixtures.items():
            report = multiplicative_gap_report(channel, sigma)
            eps = report.epsilon if report.irreducible else 0.0
            from qmcbounds.bounds import stationary_stats
            stats_ = stationary_stats(channel, sigma, payoff)
            b2, c = stats_.b**2, stats_.c
            centered = {l: v - stats_.mean for l, v in payoff.items()}
            u_max = 0.99 * eps / (10.0 * c) if eps > 0 else 0.0
            for u in np.linspace(0.0, u_max, 50):
                r_u = spectral_radius_deformed(channel, centered, float(u), sigma)
                if eps > 0:
                    cap = np.exp(6.0 * b2 * u * u / eps
                                 / (1.0 - 10.0 * c * u / eps))
                else:
                    cap = 1.0
                assert r_u <= cap + 1e-10, (name, u, r_u, cap)
        ok = True
    finally:
        _verdict(4, "tilted spectral radius obeys the gap bound on the u-grid", ok)


def test_criterion_05_kms_suite():
    ok = False
    try:
        rng = np.random.default_rng(2024)
        worst = 0.0
        for trial in range(200):
            d = int(rng.integers(2, 5))
            a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            sigma = a @ a.conj().T + 0.05 * np.eye(d)
            sigma /= np.trace(sigma).real
            families = [[rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
                         for _ in range(2)] for _ in range(2)]
            eta1 = KrausChannel(families[0], expect_channel=False)
            # adjoint pairing and involution
            x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            y = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            adj = kms_adjoint(eta1, sigma)
            pairing = abs(kms_inner(x, eta1.heisenberg(y), sigma)
                          - kms_inner(adj.heisenberg(x), y, sigma))
            worst = max(worst, pairing)
            back = kms_adjoint(adj, sigma)
            worst = max(worst, float(np.max(np.abs(hermitian_coordinate_matrix(back.kraus)
                                                   - hermitian_coordinate_matrix(eta1.kraus)))))
            # norm inequality for differences of completely positive maps
            r1, r2 = (hermitian_coordinate_matrix(kms_conjugated(ops, sigma)) for ops in families)
            diff = float(np.linalg.norm(r1 - r2, 2))
            total = kms_operator_norm(KrausChannel(families[0] + families[1],
                                                   expect_channel=False), sigma)
            assert diff <= total + 1e-10, trial
            # positive-part split of a selfadjoint matrix
            h = x + x.conj().T
            plus, minus = kms_positive_parts(h, sigma)
            worst = max(worst, float(np.max(np.abs((plus - minus) - h))))
            worst = max(worst, abs(kms_inner(plus, minus, sigma)))
            assert np.min(np.linalg.eigvalsh((plus + plus.conj().T) / 2)) > -1e-10
            assert np.min(np.linalg.eigvalsh((minus + minus.conj().T) / 2)) > -1e-10
        assert worst < 1e-10, worst
        ok = True
    finally:
        _verdict(5, "KMS adjoint / involution / norm inequality / splits", ok)


def test_criterion_06_poisson_equation():
    ok = False
    try:
        rng = np.random.default_rng(77)
        checked = 0
        while checked < 100:
            d = int(rng.integers(2, 5))
            channel = random_channel(d, 3, seed=int(rng.integers(0, 2**31)))
            if not is_irreducible(channel).irreducible:
                continue
            sigma = invariant_state(channel)
            certified = certified_pseudoresolvent_norm(channel, sigma)
            h = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            f = (h + h.conj().T) / 2
            f -= np.trace(sigma.matrix @ f).real * np.eye(d)
            a = poisson_solve(channel, f, sigma)
            residual = np.max(np.abs((a - channel.heisenberg(a)) - f))
            assert residual < 1e-11 * max(1.0, uniform_norm(f))
            assert abs(np.trace(sigma.matrix @ a)) < 1e-11
            assert uniform_norm(a) <= (1.0 + certified) \
                * uniform_norm(f) + 1e-10
            checked += 1
        ok = True
    finally:
        _verdict(6, "Poisson equation solved and norm-certified on 100 channels", ok)


@pytest.fixture(scope="module")
def driven_qubit_counts():
    from qmcbounds.fixtures import driven_qubit
    gen = driven_qubit()
    sigma = gkls_steady_state(gen)
    counts = {
        50.0: counting_counts(gen, sigma.matrix, 50.0, 4000, seed=501),
        100.0: counting_counts(gen, sigma.matrix, 100.0, 2000, seed=502),
        200.0: counting_counts(gen, sigma.matrix, 200.0, 10000, seed=503),
    }
    return gen, sigma, counts


def test_criterion_07_counting_bound(driven_qubit_counts):
    ok = False
    started = time.time()
    try:
        gen, sigma, counts = driven_qubit_counts
        assert sigma.matrix[1, 1].real == pytest.approx(4.0 / 9.0, abs=1e-12)
        constants = counting_constants(gen, "click", sigma=sigma)
        assert constants.m == pytest.approx(2.0 / 9.0, abs=1e-12)
        rates = counts[200.0][:, 0] / 200.0
        se = rates.std(ddof=1) / np.sqrt(len(rates))
        assert abs(rates.mean() - constants.m) < 3 * se
        for t, gamma in product((50.0, 100.0, 200.0), (0.05, 0.1, 0.2)):
            res = counting_bound(constants, gamma, t)
            assert res.valid
            trials = counts[t].shape[0]
            hits = int(np.sum(counts[t][:, 0] / t - constants.m >= gamma - 1e-12))
            _, ci_high = wilson_interval(hits, trials)
            assert res.probability_bound >= ci_high, (t, gamma, res, ci_high)
        elapsed = time.time() - started
        assert elapsed < 300.0, f"criterion 7 took {elapsed:.1f}s"
        ok = True
    finally:
        _verdict(7, "counting bound dominates Monte Carlo tails, m verified", ok)


def test_criterion_08_poisson_degeneration():
    ok = False
    try:
        gen = poisson_counting_qubit(kappa=0.4, damping=0.6)
        sigma = gkls_steady_state(gen)
        constants = counting_constants(gen, "poisson", sigma=sigma)
        kappa = constants.m
        assert kappa == pytest.approx(0.4, abs=1e-12)  # intensity tr(L^*L sigma)
        assert constants.hypothesis_ok
        counts = counting_counts(gen, sigma.matrix, 50.0, 4000, seed=88)[:, 0]
        # the counted detector has constant intensity: exactly Poisson
        for gamma in (0.05, 0.1, 0.2):
            threshold = int(np.ceil((kappa + gamma) * 50.0 - 1e-9))
            exact = float(stats.poisson.sf(threshold - 1, kappa * 50.0))
            empirical = float(np.mean(counts / 50.0 - kappa >= gamma - 1e-12))
            se = np.sqrt(max(exact * (1 - exact), 2.5e-7) / len(counts))
            assert abs(empirical - exact) < 3 * se + 1e-3, (gamma, empirical, exact)
            for t in (50.0, 100.0, 200.0):
                thr = int(np.ceil((kappa + gamma) * t - 1e-9))
                tail = float(stats.poisson.sf(thr - 1, kappa * t))
                res = counting_bound(constants, gamma, t)
                assert res.valid and res.probability_bound >= tail - 1e-12
        ok = True
    finally:
        _verdict(8, "Poisson degeneration: sampler and bound agree with the law", ok)


def test_criterion_09_classical_fluxes():
    ok = False
    try:
        chain = two_state_chain()
        sigma = stationary_distribution(chain)
        assert np.allclose(sigma, [4 / 7, 3 / 7], atol=1e-12)
        f = {e: (1.0 if e == ("a", "b") else 0.0) for e in chain.edges()}
        mean = float(np.sum(edge_stationary_law(chain, sigma)
                            * flux_matrix(f, chain)))
        channel, payoff = embed_diagonal(chain, f)
        rho0 = np.diag(sigma).astype(complex)
        for n in N_GRID:
            dist = score_distribution_dp(channel, rho0, payoff, n)
            for gamma in GAMMA_GRID:
                exact = exact_flux_tail(chain, sigma, f, n, mean + gamma)
                quantum = dist.tail(mean + gamma)
                assert abs(exact - quantum) < 1e-11, (n, gamma)
                ber = flux_bernstein(chain, sigma, f, gamma, n)
                hoe = flux_hoeffding(chain, f, gamma, n)
                assert ber.probability_bound >= exact - 1e-12
                assert hoe.probability_bound >= exact - 1e-12
        ok = True
    finally:
        _verdict(9, "classical flux bounds dominate exact tails; embedding agrees", ok)


def test_criterion_10_reducible_mixture():
    ok = False
    try:
        channel, payoff = two_block_ring()
        decomposition = decompose_invariant_subspaces(channel)
        rng = np.random.default_rng(3)
        a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        rho = a @ a.conj().T
        rho /= np.trace(rho).real
        weights = decomposition.weights(rho)

        def sequence_probability(ch, state, seq):
            op = state.astype(complex)
            for lab in seq:
                v = ch.kraus[ch.labels.index(lab)]
                op = v @ op @ v.conj().T
            return float(np.trace(op).real)

        worst = 0.0
        for seq in product(channel.labels, repeat=4):
            total = sequence_probability(channel, rho, seq)
            mix = 0.0
            for j in range(decomposition.blocks):
                if weights[j] <= 1e-15:
                    continue
                rho_j = decomposition.block_state(rho, j)
                mix += weights[j] * sequence_probability(
                    decomposition.restricted_channels[j], rho_j, seq)
            worst = max(worst, abs(total - mix))
        assert worst < 1e-10, worst

        # mixture bound against the Monte Carlo two-sided tail around the
        # block-dependent limit (the block never changes along a trajectory,
        # so the first outcome label identifies it)
        n, gamma, trials = 12, 0.5, 20000
        rho_mix = np.eye(6, dtype=complex) / 6
        mix = reducible_bound(decomposition, rho_mix, payoff, gamma, n,
                              flavor="bernstein")
        block_mean_of_prefix = {}
        for j in range(decomposition.blocks):
            support = np.argmax(np.sum(np.abs(decomposition.isometries[j])**2,
                                       axis=1))
            prefix = "A" if support < 3 else "B"
            block_mean_of_prefix[prefix] = mix.block_means[j]
        picks = _filter_batch([_channel_step(channel)] * n, rho_mix, 909, list(range(trials)))
        fv = np.asarray([payoff[l] for l in channel.labels])
        averages = fv[picks].mean(axis=1)
        limits = np.asarray([block_mean_of_prefix[channel.labels[p][0]]
                             for p in picks[:, 0]])
        hits = int(np.sum(np.abs(averages - limits) >= gamma - 1e-12))
        _, ci_high = wilson_interval(hits, trials)
        assert mix.mixture_bound >= ci_high, (mix.mixture_bound, ci_high)
        ok = True
    finally:
        _verdict(10, "invariant-block mixture law and mixture bound hold", ok)


def test_criterion_11_time_dependent_and_multitime():
    ok = False
    try:
        channel, payoff = ring_channel()
        sigma = invariant_state(channel)
        rotated, labels = [], []
        for k in range(3):
            up, dn = channel.kraus[2 * k], channel.kraus[2 * k + 1]
            rotated += [((up + dn) / np.sqrt(2),), ((up - dn) / np.sqrt(2),)]
            labels += [f"{k}s", f"{k}d"]
        unr_rot = Unravelling(rotated, labels)
        payoff_rot = {l: (1.0 if l.endswith("s") else -1.0) for l in labels}
        n, trials = 12, 30000
        steps = [TimeStep(Unravelling.standard(channel), payoff) if k % 2 == 0
                 else TimeStep(unr_rot, payoff_rot) for k in range(n)]
        rho0 = sigma.matrix
        for gamma in (0.35, 0.5):
            ber = time_dependent_bernstein(channel, steps, sigma.matrix, rho0, gamma)
            hoe = time_dependent_hoeffding(channel, steps, sigma.matrix, rho0, gamma)
            tail = mc_tail_unravelled(steps, sigma.matrix, rho0, gamma, trials,
                                      seed=404)
            assert ber.valid and ber.probability_bound >= tail.ci_high
            if hoe.valid:
                assert hoe.probability_bound >= tail.ci_high
        assert any(time_dependent_hoeffding(channel, steps, sigma.matrix, rho0,
                                            g).valid for g in (0.35, 0.5))

        # sliding pair windows against the exact windowed DP
        pair = {(a, b): (1.0 if a.endswith("+") and b.endswith("+") else 0.0)
                for a in channel.labels for b in channel.labels}
        law_mean = 0.25
        n_windows = 32
        dist = score_distribution_windowed(channel, rho0, pair, n_windows)
        for gamma in (0.4, 0.5):
            res = multitime_hoeffding(channel, sigma.matrix, pair, gamma, n_windows)
            assert res.valid
            exact = dist.tail(law_mean + gamma)
            assert res.probability_bound >= exact - 1e-12, (gamma, res, exact)
        ok = True
    finally:
        _verdict(11, "time-dependent and windowed bounds dominate their tails", ok)


def test_criterion_12_confidence_coverage():
    ok = False
    try:
        theta = 0.1
        n, gamma, runs = 1000, 0.1, 2000
        channel, payoff = ring_channel(bias=theta)
        sigma = invariant_state(channel)
        ber_c = bernstein_constants(channel, payoff, sigma=sigma)
        hoe_c = hoeffding_constants(channel, payoff, sigma=sigma)
        lower = confidence_lower_bound(
            n, gamma,
            bernstein_bound(ber_c, gamma, n),
            hoeffding_bound(hoe_c, gamma, n))
        picks = _filter_batch([_channel_step(channel)] * n, sigma.matrix, 1212, list(range(runs)))
        fv = np.asarray([payoff[l] for l in channel.labels])
        estimates = fv[picks].mean(axis=1)
        coverage = float(np.mean(np.abs(estimates - theta) < gamma))
        assert coverage >= lower, (coverage, lower)
        assert coverage > 0.9  # the interval is generous at n = 1000
        ok = True
    finally:
        _verdict(12, "empirical coverage is at least the certified lower bound", ok)


def test_criterion_13_determinism(tmp_path, monkeypatch):
    ok = False
    try:
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        args = [sys.executable, "-m", "qmcbounds.cli", "verify", "--model",
                os.path.join(MODELS, "ring.json"), "--flavor", "bernstein",
                "--n", "6,10", "--gamma", "0.2,0.4", "--seed", "11"]
        subprocess.run(args + ["--output", str(out1)], check=True)
        subprocess.run(args + ["--output", str(out2)], check=True)
        assert out1.read_bytes() == out2.read_bytes()

        channel, payoff = ring_channel()
        monkeypatch.setattr(trajectory, "_MC_CHUNK", 64)
        a = mc_tail(channel, np.eye(3) / 3, payoff, 8, 0.25, trials=4000, seed=5)
        monkeypatch.setattr(trajectory, "_MC_CHUNK", 4096)
        b = mc_tail(channel, np.eye(3) / 3, payoff, 8, 0.25, trials=4000, seed=5)
        assert a == b
        from qmcbounds.fixtures import driven_qubit
        gen = driven_qubit()
        monkeypatch.setattr(trajectory, "_COUNTING_CHUNK", 61)
        c1 = counting_counts(gen, np.eye(2) / 2, 30.0, 500, seed=2)
        monkeypatch.setattr(trajectory, "_COUNTING_CHUNK", 500)
        c2 = counting_counts(gen, np.eye(2) / 2, 30.0, 500, seed=2)
        assert np.array_equal(c1, c2)
        ok = True
    finally:
        _verdict(13, "seeded runs byte-identical; results chunking-independent", ok)
