import itertools

import numpy as np
import pytest
from scipy import stats

import qmcbounds.trajectory as trajectory
from qmcbounds.bounds import TimeStep, Unravelling, multitime_hoeffding
from qmcbounds.fixtures import random_channel
from qmcbounds.operators import GKLSGenerator, KrausChannel, observation_vector, unvec, vec
from qmcbounds.spectral import gkls_steady_state, invariant_state
from qmcbounds.trajectory import (
    FilterCollapseError,
    LatticeError,
    SurvivalMonotonicityError,
    counting_counts,
    exact_tail_dp,
    laplace_transform_exact,
    mc_counting_tail,
    mc_tail,
    mc_tail_unravelled,
    mc_tail_windowed,
    sample_counting,
    sample_discrete,
    score_distribution_dp,
    score_distribution_windowed,
    wilson_interval,
    _discrete_outcomes_batch,
    _filter_batch,
)

from conftest import random_state
from reference import enumeration_batches, exact_tail_enumeration


@pytest.fixture(scope="module")
def ring_f(ring):
    return ring


class TestSampleDiscrete:
    def test_single_unitary_deterministic(self):
        ch = KrausChannel([np.eye(2)], labels=("only",))
        rec = sample_discrete(ch, np.eye(2) / 2, 7, seed=0)
        assert rec.outcomes == ("only",) * 7

    def test_first_step_probabilities(self, ring):
        channel, _ = ring
        rho0 = np.zeros((3, 3), dtype=complex)
        rho0[0, 0] = 1.0
        probs = [np.trace(v @ rho0 @ v.conj().T).real for v in channel.kraus]
        # from |0><0| only the two hops out of site 0 can fire
        by_label = dict(zip(channel.labels, probs))
        assert by_label["0+"] == pytest.approx(0.5)
        assert by_label["0-"] == pytest.approx(0.5)
        assert sum(probs) == pytest.approx(1.0)

    def test_seed_reproducibility(self, ring):
        channel, _ = ring
        a = sample_discrete(channel, np.eye(3) / 3, 25, seed=9, index=4)
        b = sample_discrete(channel, np.eye(3) / 3, 25, seed=9, index=4)
        assert a == b
        c = sample_discrete(channel, np.eye(3) / 3, 25, seed=9, index=5)
        assert c.outcomes != a.outcomes

    def test_conditional_states_recorded(self, ring):
        channel, _ = ring
        rec = sample_discrete(channel, np.eye(3) / 3, 5, seed=1, keep_states=True)
        assert len(rec.conditional_states) == 5
        for dm in rec.conditional_states:
            assert dm.dim == 3  # DensityMatrix construction validates psd + trace

    def test_filter_collapse_detected(self):
        # a valid channel whose outcome annihilates the support of rho
        v0 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
        v1 = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)
        ch = KrausChannel([v0, v1])
        rho = np.diag([1.0, 0.0]).astype(complex)
        rec = sample_discrete(ch, rho, 3, seed=0)
        assert rec.outcomes == (0, 0, 0)  # stays in the supported branch
        broken = KrausChannel([np.zeros((2, 2)), np.zeros((2, 2))],
                              expect_channel=False)
        with pytest.raises(FilterCollapseError):
            sample_discrete(broken, rho, 2, seed=0)

    def test_stationary_marginals(self, ring):
        channel, _ = ring
        sigma = invariant_state(channel)
        picks = _discrete_outcomes_batch(channel, sigma.matrix, 4, 17,
                                         list(range(100_000)))
        for k in range(4):
            counts = np.bincount(picks[:, k], minlength=6)
            _, pval = stats.chisquare(counts)
            assert pval > 1e-3

    def test_channel_is_its_standard_unravelling(self, ring):
        channel, _ = ring
        rho0 = random_state(3, np.random.default_rng(4))
        indices = list(range(50, 650))
        picks = _discrete_outcomes_batch(channel, rho0, 20, 31, indices)
        standard = [trajectory._row_maps(Unravelling.standard(channel).maps)] * 20
        assert np.array_equal(picks, _filter_batch(standard, rho0, 31, indices))

    def test_two_point_correlations_match_process_law(self, ring):
        # P(X_n = i, X_m = j) = tr( phi^(m-n-1)(V_j^* V_j) V_i rho' V_i^* )
        # with rho' the average state before step n
        channel, _ = ring
        rng_state = np.zeros((3, 3), dtype=complex)
        rng_state[0, 0] = 1.0
        n_step, m_step = 2, 4
        trials = 40000
        picks = _discrete_outcomes_batch(channel, rng_state, m_step, 23,
                                         list(range(trials)))
        i_lab, j_lab = 0, 3  # arbitrary outcome indices
        empirical = np.mean((picks[:, n_step - 1] == i_lab)
                            & (picks[:, m_step - 1] == j_lab))
        rho_before = rng_state
        for _ in range(n_step - 1):
            rho_before = channel.schrodinger(rho_before)
        v_i = channel.kraus[i_lab]
        v_j = channel.kraus[j_lab]
        inner = v_j.conj().T @ v_j
        for _ in range(m_step - n_step - 1):
            inner = channel.heisenberg(inner)
        exact = float(np.trace(inner @ v_i @ rho_before @ v_i.conj().T).real)
        se = np.sqrt(exact * (1 - exact) / trials)
        assert abs(empirical - exact) < 4 * se + 1e-4


def fresh_stream(seed: int, index: int, count: int) -> np.ndarray:
    """count uniforms of stream (seed, index) from a generator of its own."""
    key = np.array([seed % 2**64, index % 2**64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key)).random(count)


class TestStreams:
    INDICES = [0, 1, 7, 2**63 + 3, 2**64 + 5]  # the last enters the key as 5

    @pytest.mark.parametrize("seed", [0, 31, 2**64 + 9])
    def test_uniform_rows_are_the_per_trajectory_streams(self, seed):
        rows = trajectory._uniform_rows(seed, self.INDICES, 37)
        assert np.array_equal(rows, np.vstack([fresh_stream(seed, i, 37)
                                               for i in self.INDICES]))

    @pytest.mark.parametrize("seed", [2, 2**63 + 1])
    def test_tape_refills_continue_each_stream(self, seed):
        tape = trajectory._Tape(seed, self.INDICES)
        drawn = [[] for _ in self.INDICES]
        # row r draws at every (r+1)-th take, so the rows refill out of step;
        # row 0 draws 4 blocks, 3 of them refills
        for take in range(4 * trajectory._TAPE_BLOCK):
            rows = np.asarray([r for r in range(len(self.INDICES)) if take % (r + 1) == 0])
            for r, x in zip(rows, tape.take(rows)):
                drawn[r].append(x)
        for r, index in enumerate(self.INDICES):
            assert np.array_equal(drawn[r], fresh_stream(seed, index, len(drawn[r])))


def reference_filter(outcomes_per_step, rho0, seed: int, indices) -> np.ndarray:
    """Outcome indices of one trajectory at a time, filtered by plain matrix loops.

    Step k has the outcomes ``outcomes_per_step[k]``, each a Kraus family;
    an outcome's weight is tr(sum_W W rho W^*) and the draw is ``_categorical``.
    """
    n = len(outcomes_per_step)
    picks = np.empty((len(indices), n), dtype=np.int64)
    for b, index in enumerate(indices):
        u = fresh_stream(seed, index, n)
        rho = np.asarray(rho0, dtype=complex)
        for k, outcomes in enumerate(outcomes_per_step):
            images = [sum(w @ rho @ w.conj().T for w in ops) for ops in outcomes]
            probs = np.asarray([[np.trace(x).real for x in images]])
            picks[b, k] = trajectory._categorical(probs, u[k:k + 1], "collapse")[0]
            rho = images[picks[b, k]] / np.trace(images[picks[b, k]]).real
    return picks


class TestFilterReference:
    @pytest.mark.parametrize("dim, seed", [(2, 3), (3, 5), (4, 8)])
    def test_random_channels(self, dim, seed):
        channel = random_channel(dim, 3, seed)
        rho0 = random_state(dim, np.random.default_rng(seed))
        indices = range(40, 240)
        picks = _discrete_outcomes_batch(channel, rho0, 12, seed, indices)
        standard = [[(v,) for v in channel.kraus]] * 12
        assert np.array_equal(picks, reference_filter(standard, rho0, seed, indices))

    def test_outcomes_of_one_two_and_three_operators(self):
        kraus = random_channel(3, 6, 17).kraus
        grouped = Unravelling([kraus[:1], kraus[1:3], kraus[3:]])
        standard = Unravelling([(v,) for v in kraus])
        schedule = [grouped, grouped, standard] * 4
        maps = {id(u): trajectory._row_maps(u.maps) for u in (grouped, standard)}
        rho0 = random_state(3, np.random.default_rng(17))
        indices = range(300)
        picks = _filter_batch([maps[id(u)] for u in schedule], rho0, 9, indices)
        assert np.array_equal(picks, reference_filter([u.maps for u in schedule], rho0, 9,
                                                      indices))

    @pytest.mark.parametrize("generator", ["qubit_gen", "poisson_gen"])
    def test_counting_jump(self, generator, request):
        gen = request.getfixturevalue(generator)
        rng = np.random.default_rng(23)
        states = np.stack([random_state(2, rng) for _ in range(200)])
        u = rng.random(200)
        pick, rows = trajectory._filter_step(trajectory._CountingSampler(gen).jump_maps,
                                             vec(states), u, "collapse")
        for b, rho in enumerate(states):
            images = [l @ rho @ l.conj().T for l in gen.jumps]
            probs = np.asarray([[np.trace(x).real for x in images]])
            expected = trajectory._categorical(probs, u[b:b + 1], "collapse")[0]
            assert pick[b] == expected
            np.testing.assert_allclose(unvec(rows[b], 2),
                                       images[expected] / np.trace(images[expected]).real,
                                       rtol=0, atol=1e-14)

    def test_each_distinct_unravelling_is_built_once(self, ring, monkeypatch):
        channel, payoff = ring
        built = []
        row_maps = trajectory._row_maps

        def counted(outcomes):
            built.append(outcomes)
            return row_maps(outcomes)
        monkeypatch.setattr(trajectory, "_row_maps", counted)
        coarse = Unravelling([channel.kraus[0::2], channel.kraus[1::2]], ["up", "down"])
        standard = Unravelling.standard(channel)
        steps = [TimeStep(coarse, {"up": 1.0, "down": -1.0}) if k % 2
                 else TimeStep(standard, payoff) for k in range(12)]
        sigma = invariant_state(channel).matrix
        mc_tail_unravelled(steps, sigma, np.eye(3) / 3, 0.25, 300, 11, chunk_size=100)
        assert sorted(map(len, built)) == [2, 6]


class TestExactTailDP:
    def test_zero_payoff(self, ring):
        channel, _ = ring
        rho0 = np.eye(3) / 3
        zero = {l: 0.0 for l in channel.labels}
        assert exact_tail_dp(channel, rho0, zero, 5, 0.1) == 0.0
        assert exact_tail_dp(channel, rho0, zero, 5, -0.1) == pytest.approx(1.0)

    def test_single_step_law(self, ring):
        channel, payoff = ring
        rho0 = np.zeros((3, 3), dtype=complex)
        rho0[0, 0] = 1.0
        got = exact_tail_dp(channel, rho0, payoff, 1, 0.5)
        probs = [np.trace(v @ rho0 @ v.conj().T).real for v in channel.kraus]
        want = sum(p for p, l in zip(probs, channel.labels) if payoff[l] >= 0.5)
        assert got == pytest.approx(want, abs=1e-12)

    def test_matches_enumeration(self, ring):
        channel, payoff = ring
        rho0 = np.zeros((3, 3), dtype=complex)
        rho0[0, 0] = 1.0
        for n, gamma in ((6, 0.25), (8, 0.5)):
            dp = exact_tail_dp(channel, rho0, payoff, n, gamma)
            brute = exact_tail_enumeration(channel, rho0, payoff, n, gamma)
            assert dp == pytest.approx(brute, abs=1e-11)

    def test_matches_binomial(self, ring):
        # from any state the hop direction is a fair coin, so the score sum
        # is a simple random walk
        channel, payoff = ring
        dist = score_distribution_dp(channel, np.eye(3) / 3, payoff, 12)
        tail = dist.tail(0.5)
        want = float(stats.binom.sf(8, 12, 0.5))  # ups >= 9 <=> sum >= 6
        assert tail == pytest.approx(want, abs=1e-12)

    def test_mass_conservation_up_to_16(self, ring):
        channel, payoff = ring
        rho0 = random_state(3, np.random.default_rng(3))
        for n in (4, 9, 16):
            dist = score_distribution_dp(channel, rho0, payoff, n)
            assert abs(dist.masses.sum() - 1.0) < 1e-11

    def test_lattice_failure_instructs_fallback(self, ring):
        channel, _ = ring
        # pi * 1e-7 is off the lattice of denominators <= 10**6
        crooked = {l: (np.pi * 1e-7 if l == "0+" else -1.0) for l in channel.labels}
        with pytest.raises(LatticeError, match=r"^payoff value 3\.141592653589793e-07 has no "
                                                r"rational approximation with denominator "
                                                r"<= 1000000$"):
            exact_tail_dp(channel, np.eye(3) / 3, crooked, 4, 0.2)
        # the reference enumeration sums real scores, so it takes the same payoff
        value = exact_tail_enumeration(channel, np.eye(3) / 3, crooked, 4, 0.2)
        assert 0.0 <= value <= 1.0

    def test_enumeration_size_guard(self, ring):
        channel, payoff = ring
        with pytest.raises(ValueError, match="2\\^24"):
            exact_tail_enumeration(channel, np.eye(3) / 3, payoff, 12, 0.5)


def enumeration_law(channel, rho0, f, n: int, budget: int) -> dict:
    """Lattice score -> probability over all |I|^n outcome sequences, from the enumeration."""
    nums, _ = trajectory._score_lattice(observation_vector(f, channel.labels))
    law: dict = {}
    for scores, masses in enumeration_batches(channel, rho0, nums, n, budget):
        for s, m in zip(scores.tolist(), masses.tolist()):
            law[s] = law.get(s, 0.0) + m
    return law


class TestLatticeKernel:
    """The lattice DP against oracles that share no code with it."""

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("values", [(1.0, 0.0, -1.0), (0.0, 1.0, 1000.0)])
    def test_masses_match_enumeration(self, seed, values):
        rng = np.random.default_rng(seed)
        dim, k = (int(x) for x in rng.integers(2, 5, size=2))
        channel = random_channel(dim, k, seed)
        payoff = {lab: values[i % 3] for i, lab in enumerate(channel.labels)}
        rho0 = random_state(dim, rng)
        dist = score_distribution_dp(channel, rho0, payoff, 6)
        # a small budget makes the enumeration walk prefixes as well as batch words
        law = enumeration_law(channel, rho0, payoff, 6, budget=2**7)
        assert dist.numerators.tolist() == sorted(law)
        assert np.max(np.abs(dist.masses - [law[s] for s in sorted(law)])) < 1e-14

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_windowed_law_matches_brute_force(self, m):
        channel = random_channel(2, 3, 7 + m)
        labels = channel.labels
        rng = np.random.default_rng(m)
        f = {w: float(rng.integers(-2, 3)) for w in itertools.product(labels, repeat=m)}
        rho0 = random_state(2, rng)
        n = 4
        law: dict = {}
        for seq in itertools.product(range(len(labels)), repeat=n + m - 1):
            op = rho0
            for i in seq:
                op = channel.kraus[i] @ op @ channel.kraus[i].conj().T
            score = int(sum(f[tuple(labels[j] for j in seq[t:t + m])] for t in range(n)))
            law[score] = law.get(score, 0.0) + float(np.trace(op).real)
        dist = score_distribution_windowed(channel, rho0, f, n)
        assert dist.denominator == 1
        assert dist.numerators.tolist() == sorted(law)
        assert np.max(np.abs(dist.masses - [law[s] for s in sorted(law)])) < 1e-14

    def test_blocks_cover_wide_lattices(self):
        # the wide sparse payoff reaches (n+1)(n+2)/2 scores, more than one GEMM block
        channel = random_channel(3, 3, 11)
        payoff = dict(zip(channel.labels, (0.0, 1.0, 1000.0)))
        rho0 = np.eye(3) / 3
        dist = score_distribution_dp(channel, rho0, payoff, 30)
        assert dist.numerators.size == 31 * 32 // 2 > trajectory._DP_BLOCK
        for u in (-1e-3, 1e-3):  # the tilted-operator route shares no code with the DP
            assert dist.log_laplace(u) == pytest.approx(
                np.log(laplace_transform_exact(channel, rho0, payoff, 30, u)), abs=1e-12)

    def test_one_pass_serves_every_horizon(self, ring):
        channel, payoff = ring
        rho0 = random_state(3, np.random.default_rng(5))
        nums, denom = trajectory._score_lattice(observation_vector(payoff, channel.labels))
        laws = trajectory._score_laws(channel, rho0, nums, denom, [9, 1, 4])
        for n, law in laws.items():
            single = score_distribution_dp(channel, rho0, payoff, n)
            assert np.array_equal(law.numerators, single.numerators)
            assert np.array_equal(law.masses, single.masses) and law.n == n

    def test_lost_mass_is_caught(self):
        # one law assembly serves every tag layout: rows of a score are summed,
        # then the total must be the mass the kernel started with
        rows = {3: (np.array([-1, 2, 2]), np.array([0.25, 0.5, 0.25]))}
        law = trajectory._dp_laws(rows, 2, 1, 1.0)[2]
        assert law.numerators.tolist() == [-1, 2] and law.masses.tolist() == [0.25, 0.75]
        with pytest.raises(RuntimeError, match="DP mass"):
            trajectory._dp_laws(rows, 2, 1, 1.0 + 1e-9)


class TestMCTail:
    def test_deterministic_channel(self):
        ch = KrausChannel([np.eye(2)], labels=("a",))
        tail = mc_tail(ch, np.eye(2) / 2, {"a": 1.0}, 5, 0.5, trials=64, seed=0)
        assert tail.estimate == 1.0
        tail0 = mc_tail(ch, np.eye(2) / 2, {"a": 1.0}, 5, 1.5, trials=64, seed=0)
        assert tail0.estimate == 0.0

    def test_estimate_close_to_exact(self, ring):
        channel, payoff = ring
        rho0 = np.eye(3) / 3
        exact = exact_tail_dp(channel, rho0, payoff, 10, 0.3)
        tail = mc_tail(channel, rho0, payoff, 10, 0.3, trials=40000, seed=5)
        se = np.sqrt(exact * (1 - exact) / tail.trials)
        assert abs(tail.estimate - exact) < 4 * se

    def test_interval_calibration(self, ring):
        # the 95% Wilson interval should cover the exact tail for the vast
        # majority of seeds (nominal coverage ~0.95)
        channel, payoff = ring
        rho0 = np.eye(3) / 3
        exact = exact_tail_dp(channel, rho0, payoff, 8, 0.25)
        covered = 0
        seeds = 100
        for seed in range(seeds):
            tail = mc_tail(channel, rho0, payoff, 8, 0.25, trials=2000, seed=seed)
            covered += tail.ci_low <= exact <= tail.ci_high
        assert covered / seeds >= 0.9

    def test_single_trial_interval_defined(self, ring):
        channel, payoff = ring
        tail = mc_tail(channel, np.eye(3) / 3, payoff, 4, 0.2, trials=1, seed=1)
        assert 0.0 <= tail.ci_low <= tail.estimate <= tail.ci_high <= 1.0

    def test_chunking_invariance(self, ring):
        channel, payoff = ring
        kw = dict(n=8, gamma=0.25, trials=3000, seed=11)
        a = mc_tail(channel, np.eye(3) / 3, payoff, chunk_size=100, **kw)
        b = mc_tail(channel, np.eye(3) / 3, payoff, chunk_size=1024, **kw)
        assert a == b
        pair = {(x, y): float(x.endswith("+")) - float(y.endswith("-"))
                for x in channel.labels for y in channel.labels}
        a = mc_tail_windowed(channel, np.eye(3) / 3, pair, chunk_size=100, **kw)
        b = mc_tail_windowed(channel, np.eye(3) / 3, pair, chunk_size=1024, **kw)
        assert a == b
        # a coarse step has two operators per outcome
        coarse = Unravelling([channel.kraus[0::2], channel.kraus[1::2]], ["up", "down"])
        steps = [TimeStep(coarse, {"up": 1.0, "down": -1.0}) if k % 2
                 else TimeStep(Unravelling.standard(channel), payoff) for k in range(8)]
        sigma = invariant_state(channel).matrix
        a = mc_tail_unravelled(steps, sigma, np.eye(3) / 3, 0.25, 3000, 11, chunk_size=100)
        b = mc_tail_unravelled(steps, sigma, np.eye(3) / 3, 0.25, 3000, 11, chunk_size=1024)
        assert a == b

    def test_wilson_basics(self):
        low, high = wilson_interval(0, 10)
        assert low == 0.0 and 0.0 < high < 0.4
        low1, high1 = wilson_interval(10, 10)
        assert high1 == pytest.approx(1.0) and 0.6 < low1 < 1.0

    def test_wilson_exact_endpoints(self):
        # an exact-zero bound must not fall below ci_low at zero successes
        low, high = wilson_interval(0, 500)
        assert low == 0.0 and 0.0 < high < 0.01
        low, high = wilson_interval(500, 500)
        assert high == 1.0 and 0.99 < low < 1.0


class TestLaplace:
    def test_u_zero(self, ring):
        channel, payoff = ring
        assert laplace_transform_exact(channel, np.eye(3) / 3, payoff, 6, 0.0) == \
            pytest.approx(1.0, abs=1e-12)

    def test_constant_payoff(self, ring):
        channel, _ = ring
        const = {l: 0.7 for l in channel.labels}
        got = laplace_transform_exact(channel, np.eye(3) / 3, const, 5, 0.2)
        assert got == pytest.approx(np.exp(5 * 0.2 * 0.7), rel=1e-12)

    def test_routes_agree(self, ring):
        channel, payoff = ring
        rho0 = random_state(3, np.random.default_rng(8))
        for u in (0.05, 0.1, 0.2):
            value = laplace_transform_exact(channel, rho0, payoff, 8, u)
            dp = score_distribution_dp(channel, rho0, payoff, 8).laplace(u)
            assert value == pytest.approx(dp, rel=1e-10)

    def test_overflow_reported(self, ring):
        channel, payoff = ring
        with pytest.raises(OverflowError, match="log value"):
            laplace_transform_exact(channel, np.eye(3) / 3, payoff, 20, 40.0)


class TestCounting:
    def test_no_jumps_when_generator_silent(self):
        gen = GKLSGenerator(np.zeros((2, 2)), [np.zeros((2, 2))], labels=("c",))
        rec = sample_counting(gen, np.eye(2) / 2, 10.0, seed=0)
        assert rec.events == ()

    def test_zero_horizon(self, qubit_gen):
        rec = sample_counting(qubit_gen, np.eye(2) / 2, 0.0, seed=0)
        assert rec.horizon == 0.0 and rec.events == ()

    def test_renewal_rate(self):
        kappa = 0.7
        gen = GKLSGenerator(np.zeros((2, 2)), [np.sqrt(kappa) * np.eye(2)],
                            labels=("c",))
        rec = sample_counting(gen, np.eye(2) / 2, 3000.0, seed=4)
        times = np.array([t for t, _ in rec.events])
        assert np.all(np.diff(times) > 0)
        gaps = np.diff(np.concatenate([[0.0], times]))
        se = (1 / kappa) / np.sqrt(len(gaps))
        assert abs(gaps.mean() - 1 / kappa) < 3 * se

    def test_driven_qubit_long_run_rate(self, qubit_gen):
        sigma = gkls_steady_state(qubit_gen)
        m = 2.0 / 9.0
        counts = counting_counts(qubit_gen, sigma.matrix, 200.0, 2000, seed=6)
        rates = counts[:, 0] / 200.0
        se = rates.std(ddof=1) / np.sqrt(len(rates))
        assert abs(rates.mean() - m) < 3 * se

    def test_counting_determinism_and_chunking(self, qubit_gen):
        a = counting_counts(qubit_gen, np.eye(2) / 2, 40.0, 400, seed=2, chunk_size=37)
        b = counting_counts(qubit_gen, np.eye(2) / 2, 40.0, 400, seed=2, chunk_size=400)
        assert np.array_equal(a, b)
        r1 = sample_counting(qubit_gen, np.eye(2) / 2, 40.0, seed=2, index=11)
        r2 = sample_counting(qubit_gen, np.eye(2) / 2, 40.0, seed=2, index=11)
        assert r1 == r2
        assert len(r1.events) == int(a[11].sum())

    def test_tail_at_zero_horizon(self, qubit_gen):
        tail = mc_counting_tail(qubit_gen, "click", np.eye(2) / 2, 0.0, 0.1,
                                trials=10, seed=0)
        assert tail.estimate == 0.0  # N(0)/0 treated as -m < gamma
        tail2 = mc_counting_tail(qubit_gen, "click", np.eye(2) / 2, 0.0, -1.0,
                                 trials=10, seed=0, m=0.5)
        assert tail2.estimate == 1.0

    def test_poisson_tail_matches_closed_form(self, poisson_gen):
        sigma = gkls_steady_state(poisson_gen)
        l = poisson_gen.jumps[0]
        kappa = float(np.trace(l.conj().T @ l @ sigma.matrix).real)
        t, gamma, trials = 60.0, 0.1, 4000
        tail = mc_counting_tail(poisson_gen, "poisson", np.eye(2) / 2, t, gamma,
                                trials=trials, seed=13, m=kappa)
        threshold = int(np.ceil((kappa + gamma) * t - 1e-9))
        exact = float(stats.poisson.sf(threshold - 1, kappa * t))
        se = np.sqrt(max(exact * (1 - exact), 1e-9) / trials)
        assert abs(tail.estimate - exact) < 3 * se + 1e-3


GROUND = np.diag([1.0, 0.0]).astype(complex)   # the post-jump state of driven_qubit
EXCITED = np.diag([0.0, 1.0]).astype(complex)
MIXED = np.eye(2, dtype=complex) / 2
STATES = {"ground": GROUND, "excited": EXCITED, "mixed": MIXED}
GENERATORS = ["qubit_gen", "poisson_gen", "renewal_gen"]


@pytest.fixture(scope="module")
def renewal_gen():
    return GKLSGenerator(np.zeros((2, 2)), [np.sqrt(0.7) * np.eye(2)], labels=("c",))


def reference_survival(a, eigenvalues, taus):
    return np.einsum("bk,bk->b", a, np.exp(np.outer(taus, eigenvalues))).real


def bisection_waiting_times(sampler, coeff, targets, remaining):
    """The masked bisection the Newton solve replaced, kept as its reference.

    The same jump test and bracket growth, then every open bracket is halved
    until hi - lo <= _WAIT_REL_TOL * hi; the result is the bracket's midpoint.
    """
    w = sampler.eigenvalues
    a = coeff * sampler.trace_row[None, :]
    jumps = reference_survival(a, w, remaining) <= targets
    tau = remaining.astype(float).copy()
    idx = np.nonzero(jumps)[0]
    a, tgt, rem = a[idx], targets[idx], remaining[idx]
    lo = np.zeros(idx.size)
    hi = np.minimum(sampler.t0, rem)
    s_hi = reference_survival(a, w, hi)
    while np.any(s_hi > tgt):
        need = s_hi > tgt
        lo = np.where(need, hi, lo)
        hi = np.where(need, np.minimum(hi * 2.0, rem), hi)
        s_hi = np.where(need, reference_survival(a, w, hi), s_hi)
    for _ in range(100):
        active = (hi - lo) > trajectory._WAIT_REL_TOL * hi
        if not np.any(active):
            break
        mid = np.where(active, 0.5 * (lo + hi), hi)
        go_right = active & (reference_survival(a, w, mid) > tgt)
        lo = np.where(go_right, mid, lo)
        hi = np.where(active & ~go_right, mid, hi)
    tau[idx] = 0.5 * (lo + hi)
    return tau, jumps


def traced_waiting_times(sampler, coeff, targets, remaining, monkeypatch):
    """Solve one row per call; per row return (tau, jump, lo, hi, evaluations).

    The bracket is rebuilt from every survival value the call evaluated: lo is
    the largest point above the target (0 if none), hi the smallest at or below.
    """
    evaluated = []
    survival = trajectory._CountingSampler._survival

    def recorded(*args):
        values = survival(*args)
        evaluated.append((args[-1], values[0]))
        return values
    monkeypatch.setattr(trajectory._CountingSampler, "_survival", staticmethod(recorded))
    rows = []
    for i, target in enumerate(targets):
        evaluated.clear()
        tau, jumps = sampler.waiting_times(coeff[i:i + 1], targets[i:i + 1],
                                           remaining[i:i + 1])
        taus = np.concatenate([t for t, _ in evaluated])
        values = np.concatenate([s for _, s in evaluated])
        rows.append((tau[0], jumps[0], taus[values > target].max(initial=0.0),
                     taus[values <= target].min(initial=np.inf), len(evaluated)))
    return rows


def assert_certified(tau, lo, hi):
    assert lo < hi and hi - lo <= trajectory._WAIT_REL_TOL * hi
    assert tau == 0.5 * (lo + hi)


class TestWaitingTimes:
    @pytest.mark.parametrize("state", STATES)
    @pytest.mark.parametrize("generator", GENERATORS)
    def test_newton_matches_the_bisection_reference(self, generator, state, request,
                                                   monkeypatch):
        sampler = trajectory._CountingSampler(request.getfixturevalue(generator))
        coeff0 = vec(STATES[state]) @ sampler.right_inv_t
        a0 = (coeff0 * sampler.trace_row)[None, :]
        rng = np.random.default_rng(41)
        for horizon in (0.37 * sampler.t0, 1e3):
            targets = [1e-12, 1e-6, 1e-3, 0.5, 0.9, 0.999, *rng.random(16)]
            # roots within a few ulps of the ends the bracket growth evaluates
            ends = np.minimum(sampler.t0 * np.array([1.0, 2.0, 4.0]), horizon)
            for s in reference_survival(np.repeat(a0, 3, axis=0), sampler.eigenvalues, ends):
                targets += [s + k * np.spacing(s) for k in range(-3, 4)]
            targets = np.asarray(targets)
            remaining = np.full(targets.size, horizon)
            coeff = np.repeat(coeff0[None, :], targets.size, axis=0)
            ref_tau, ref_jumps = bisection_waiting_times(sampler, coeff, targets, remaining)
            rows = traced_waiting_times(sampler, coeff, targets, remaining, monkeypatch)
            batch_tau, batch_jumps = sampler.waiting_times(coeff, targets, remaining)
            assert np.array_equal(batch_jumps, ref_jumps)
            assert np.array_equal(batch_tau, [r[0] for r in rows])
            for (tau, jump, lo, hi, evaluations), expected in zip(rows, ref_tau):
                assert evaluations <= 24
                if jump:
                    assert_certified(tau, lo, hi)
                    assert abs(tau - expected) <= trajectory._WAIT_REL_TOL * expected
                else:
                    assert tau == horizon

    @pytest.mark.parametrize("state", STATES)
    @pytest.mark.parametrize("generator", GENERATORS)
    def test_target_next_to_one(self, generator, state, request, monkeypatch):
        """u = 1 - 2**-53 still gives a certified bracket and the reference's jump.

        Doubles next to 1 are 2**-53 apart, so near such a root the computed
        survival is constant over relative time ranges far wider than the
        tolerance, and for the ground state it crosses the target more than
        once.  The solve bisects there, so neither the evaluation budget nor
        closeness to the reference's crossing applies.
        """
        sampler = trajectory._CountingSampler(request.getfixturevalue(generator))
        coeff = (vec(STATES[state]) @ sampler.right_inv_t)[None, :]
        targets = np.array([1.0 - 2.0**-53])
        for horizon in (0.37 * sampler.t0, 1e3):
            remaining = np.array([horizon])
            _, ref_jumps = bisection_waiting_times(sampler, coeff, targets, remaining)
            [(tau, jump, lo, hi, _)] = traced_waiting_times(sampler, coeff, targets,
                                                            remaining, monkeypatch)
            assert jump == ref_jumps[0]
            assert_certified(tau, lo, hi)

    def test_target_at_or_above_the_computed_survival_at_zero(self, qubit_gen):
        """Rounding can put the computed survival(0) below 1; a target at or above it
        is met at tau = 0, and the other rows of the batch solve as they would alone."""
        sampler = trajectory._CountingSampler(qubit_gen)
        w = sampler.eigenvalues
        target = 1.0 - 2.0**-53
        rng = np.random.default_rng(7)
        for _ in range(2000):
            coeff = (vec(random_state(2, rng)) @ sampler.right_inv_t)[None, :]
            a = coeff * sampler.trace_row
            if sampler._survival(a, a * w, w, np.zeros(1))[0][0] <= target:
                break
        else:
            pytest.fail("the search found no state whose computed survival(0) is below 1")
        mixed = (vec(MIXED) @ sampler.right_inv_t)[None, :]
        tau, jumps = sampler.waiting_times(np.vstack([coeff, mixed]), np.array([target, 0.5]),
                                           np.full(2, 1e3))
        assert jumps.all() and tau[0] == 0.0
        assert tau[1] == sampler.waiting_times(mixed, np.array([0.5]), np.array([1e3]))[0][0]

    def test_unconverged_solve_raises(self, qubit_gen, monkeypatch):
        monkeypatch.setattr(trajectory, "_WAIT_MAX_ITER", 2)
        sampler = trajectory._CountingSampler(qubit_gen)
        coeff = (vec(MIXED) @ sampler.right_inv_t)[None, :]
        with pytest.raises(SurvivalMonotonicityError, match="waiting-time solve"):
            sampler.waiting_times(coeff, np.array([0.5]), np.array([1e3]))

    def test_rising_survival_raises_while_growing(self, qubit_gen):
        sampler = trajectory._CountingSampler(qubit_gen)
        # the slowest decay rate is 0.25: the survival now rises first, then decays
        sampler.eigenvalues = sampler.eigenvalues + 0.2
        coeff = (vec(GROUND) @ sampler.right_inv_t)[None, :]
        with pytest.raises(SurvivalMonotonicityError, match="increased while growing"):
            sampler.waiting_times(coeff, np.array([0.5]), np.array([1e3]))


class TestWindowed:
    def test_missing_window_is_a_key_error_for_every_oracle(self, ring, monkeypatch):
        channel, _ = ring
        rho0 = np.eye(3) / 3
        plus_first = {(a, b): 1.0 for a in channel.labels if a.endswith("+")
                      for b in channel.labels}
        with pytest.raises(KeyError, match="undefined"):
            score_distribution_windowed(channel, rho0, plus_first, 8)
        with pytest.raises(KeyError, match="undefined"):
            multitime_hoeffding(channel, rho0, plus_first, 0.3, 8)

        def no_sampling(*args):
            raise AssertionError("sampled before checking the payoff")
        monkeypatch.setattr(trajectory, "_uniform_rows", no_sampling)
        with pytest.raises(KeyError, match="undefined"):
            mc_tail_windowed(channel, rho0, plus_first, 8, 0.3, trials=100, seed=1)

    @pytest.mark.parametrize("payoff", [{}, {("0+",): 1.0, ("0+", "0-"): 0.5}],
                             ids=["empty", "ragged"])
    def test_malformed_payoff_is_one_value_error_for_every_oracle(self, payoff, ring):
        channel, _ = ring
        rho0 = np.eye(3) / 3
        oracles = [lambda: score_distribution_windowed(channel, rho0, payoff, 8),
                   lambda: mc_tail_windowed(channel, rho0, payoff, 8, 0.3, trials=10, seed=1),
                   lambda: multitime_hoeffding(channel, rho0, payoff, 0.3, 8)]
        messages = []
        for oracle in oracles:
            with pytest.raises(ValueError) as info:
                oracle()
            messages.append(str(info.value))
        assert len(set(messages)) == 1 and "m-tuples of one length" in messages[0]

    def test_windowed_dp_mass_and_mc_agreement(self, ring):
        channel, _ = ring
        pair = {(a, b): (1.0 if a.endswith("+") and b.endswith("+") else 0.0)
                for a in channel.labels for b in channel.labels}
        rho0 = np.eye(3) / 3
        dist = score_distribution_windowed(channel, rho0, pair, 8)
        assert abs(dist.masses.sum() - 1.0) < 1e-11
        gamma = 0.45
        exact = dist.tail(gamma)
        mc = mc_tail_windowed(channel, rho0, pair, 8, gamma, trials=30000, seed=19)
        assert mc.ci_low - 1e-9 <= exact <= mc.ci_high + 1e-9
