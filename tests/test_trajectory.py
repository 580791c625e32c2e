import itertools
import os
import sys
import tracemalloc

import numpy as np
import pytest
from scipy import stats
from scipy.linalg import expm

import qmcbounds.classical as classical
import qmcbounds.trajectory as trajectory
from qmcbounds.bounds import TimeStep, Unravelling, multitime_hoeffding
from qmcbounds.classical import MarkovChain, _flux_laws
from qmcbounds.fixtures import random_channel, ring_channel, two_state_chain
from qmcbounds.modelfile import load_model
from qmcbounds.operators import (
    GKLSGenerator,
    KrausChannel,
    observation_vector,
    superoperator_matrix,
    vec,
)
from qmcbounds.spectral import gkls_steady_state, invariant_state
from qmcbounds.trajectory import (
    FilterCollapseError,
    LatticeError,
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
    _channel_step,
    _filter_batch,
)

from conftest import random_state
from reference import enumeration_batches, exact_tail_enumeration, lattice_dp_unreduced


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
        picks = _filter_batch([_channel_step(channel)] * 4, sigma.matrix, 17, list(range(100_000)))
        for k in range(4):
            counts = np.bincount(picks[:, k], minlength=6)
            _, pval = stats.chisquare(counts)
            assert pval > 1e-3

    def test_channel_is_its_standard_unravelling(self, ring):
        channel, _ = ring
        rho0 = random_state(3, np.random.default_rng(4))
        indices = list(range(50, 650))
        picks = _filter_batch([_channel_step(channel)] * 20, rho0, 31, indices)
        standard = [trajectory._step_operators(Unravelling.standard(channel).maps)] * 20
        assert np.array_equal(picks, _filter_batch(standard, rho0, 31, indices))

    def test_two_point_correlations_match_process_law(self, ring):
        # P(X_n = i, X_m = j) = tr( phi^(m-n-1)(V_j^* V_j) V_i rho' V_i^* )
        # with rho' the average state before step n
        channel, _ = ring
        rng_state = np.zeros((3, 3), dtype=complex)
        rng_state[0, 0] = 1.0
        n_step, m_step = 2, 4
        trials = 40000
        picks = _filter_batch([_channel_step(channel)] * m_step, rng_state, 23,
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

    Uniform 0 picks an eigenvector e_j of rho0 with weight p_j; step k has
    the outcomes ``outcomes_per_step[k]``, each a Kraus family, and draws
    one operator W of all of them with weight |W psi|^2 by uniform k + 1,
    reports W's outcome and moves psi to W psi / |W psi|.  Every draw is
    ``_categorical``.
    """
    n = len(outcomes_per_step)
    picks = np.empty((len(indices), n), dtype=np.int64)
    p, e = np.linalg.eigh(np.asarray(rho0, dtype=complex))
    for b, index in enumerate(indices):
        u = fresh_stream(seed, index, n + 1)
        psi = e[:, trajectory._categorical(p[None, :], u[:1], "collapse")[0]]
        for k, outcomes in enumerate(outcomes_per_step):
            owners = [i for i, ops in enumerate(outcomes) for _ in ops]
            images = [w @ psi for ops in outcomes for w in ops]
            probs = np.asarray([[np.vdot(x, x).real for x in images]])
            fine = trajectory._categorical(probs, u[k + 1:k + 2], "collapse")[0]
            picks[b, k] = owners[fine]
            psi = images[fine] / np.sqrt(probs[0, fine])
    return picks


class TestFilterReference:
    @pytest.mark.parametrize("dim, seed", [(2, 3), (3, 5), (4, 8)])
    def test_random_channels(self, dim, seed):
        channel = random_channel(dim, 3, seed)
        rho0 = random_state(dim, np.random.default_rng(seed))
        indices = range(40, 240)
        picks = _filter_batch([_channel_step(channel)] * 12, rho0, seed, indices)
        standard = [[(v,) for v in channel.kraus]] * 12
        assert np.array_equal(picks, reference_filter(standard, rho0, seed, indices))

    def test_outcomes_of_one_two_and_three_operators(self):
        kraus = random_channel(3, 6, 17).kraus
        grouped = Unravelling([kraus[:1], kraus[1:3], kraus[3:]])
        standard = Unravelling([(v,) for v in kraus])
        schedule = [grouped, grouped, standard] * 4
        maps = {id(u): trajectory._step_operators(u.maps) for u in (grouped, standard)}
        rho0 = random_state(3, np.random.default_rng(17))
        indices = range(300)
        picks = _filter_batch([maps[id(u)] for u in schedule], rho0, 9, indices)
        assert np.array_equal(picks, reference_filter([u.maps for u in schedule], rho0, 9,
                                                      indices))

    @pytest.mark.parametrize("generator", ["qubit_gen", "poisson_gen"])
    def test_counting_jump(self, generator, request):
        gen = request.getfixturevalue(generator)
        rng = np.random.default_rng(23)
        psi = rng.standard_normal((200, 2)) + 1j * rng.standard_normal((200, 2))
        psi /= np.linalg.norm(psi, axis=1)[:, None]
        u = rng.random(200)
        images, probs = trajectory._images(
            trajectory._step_operators([(l,) for l in gen.jumps]), psi)
        pick, new = trajectory._collapse(images, probs, u, "collapse")
        for b, vector in enumerate(psi):
            jumped = [l @ vector for l in gen.jumps]
            weights = np.asarray([[np.vdot(x, x).real for x in jumped]])
            np.testing.assert_allclose(probs[b], weights[0], rtol=1e-14, atol=0)
            expected = trajectory._categorical(weights, u[b:b + 1], "collapse")[0]
            assert pick[b] == expected
            np.testing.assert_allclose(new[b], jumped[expected] / np.linalg.norm(jumped[expected]),
                                       rtol=0, atol=1e-15)

    def test_each_distinct_unravelling_is_built_once(self, ring, monkeypatch):
        channel, payoff = ring
        built = []
        step_operators = trajectory._step_operators

        def counted(outcomes):
            built.append(outcomes)
            return step_operators(outcomes)
        monkeypatch.setattr(trajectory, "_step_operators", counted)
        coarse = Unravelling([channel.kraus[0::2], channel.kraus[1::2]], ["up", "down"])
        standard = Unravelling.standard(channel)
        steps = [TimeStep(coarse, {"up": 1.0, "down": -1.0}) if k % 2
                 else TimeStep(standard, payoff) for k in range(12)]
        sigma = invariant_state(channel).matrix
        monkeypatch.setattr(trajectory, "_MC_CHUNK", 100)
        mc_tail_unravelled(steps, sigma, np.eye(3) / 3, 0.25, 300, 11)
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


def quotient_cases():
    """(name, law, tolerance): exact laws of every tag layout; tolerance None asks bit equality."""
    rho3 = np.diag([0.5, 0.3, 0.2])
    ring, ring_payoff = ring_channel()
    tdm = load_model(os.path.join(os.path.dirname(__file__), "..", "models", "ring_tdm.json"))
    small = random_channel(2, 3, 5)
    first = small.labels[0]
    triples = {w: float(w.count(first)) - 1.0
               for w in itertools.product(small.labels, repeat=3)}
    flux2 = {("a", "a"): 0.0, ("a", "b"): 1.0, ("b", "a"): -1.0, ("b", "b"): 0.5}
    rng = np.random.default_rng(4)
    p = rng.random((4, 4))
    p[3] = p[2]  # states 2 and 3 move alike, so their tags merge
    chain4 = MarkovChain(p / p.sum(axis=1, keepdims=True))
    flux4 = {(x, y): float(rng.integers(-3, 4)) / 2 for x, y in chain4.edges()}
    # state 1 pays as state 0 does, but moves with other weights
    flux4.update({(z, y): flux4[(x, y)] for x, z in ((0, 1), (2, 3)) for y in range(4)})
    wide = random_channel(8, 6, 101)
    wide_payoff = {label: float(i % 3 - 1) for i, label in enumerate(wide.labels)}
    return [
        ("ring", lambda: score_distribution_dp(ring, rho3, ring_payoff, 64), None),
        ("ring_tdm", lambda: score_distribution_windowed(
            tdm.channel, rho3, tdm.observation_windows, 64), 1e-15),
        ("window3", lambda: score_distribution_windowed(small, np.eye(2) / 2, triples, 12),
         1e-15),
        ("two_state_flux", lambda: _flux_laws(two_state_chain(), [0.5, 0.5], flux2, [40])[40],
         1e-15),
        ("chain4_flux", lambda: _flux_laws(chain4, np.ones(4) / 4, flux4, [40])[40], 1e-15),
        ("random8", lambda: score_distribution_dp(wide, np.eye(8) / 8, wide_payoff, 24), 1e-15),
    ]


class TestQuotient:
    @pytest.mark.parametrize("name, law, tol", quotient_cases(),
                             ids=[case[0] for case in quotient_cases()])
    def test_laws_match_the_unreduced_loop(self, name, law, tol, monkeypatch):
        quotient = law()
        monkeypatch.setattr(trajectory, "_lattice_dp", lattice_dp_unreduced)
        monkeypatch.setattr(classical, "_lattice_dp", lattice_dp_unreduced)
        unreduced = law()
        assert np.array_equal(quotient.numerators, unreduced.numerators)
        if tol is None:
            assert np.array_equal(quotient.masses, unreduced.masses)
        else:
            assert np.max(np.abs(quotient.masses - unreduced.masses)) <= tol

    def test_quotient_sizes(self, monkeypatch):
        tables = []
        reduce = trajectory._quotient
        monkeypatch.setattr(trajectory, "_quotient",
                            lambda *args: tables.append(reduce(*args)) or tables[-1])
        for _, law, _ in quotient_cases()[:2]:
            law()
        (_, _, ring_next, _), (tdm_maps, _, tdm_next, _) = tables
        # the ring's six hops pay +1 or -1: one class, two moves
        assert len(ring_next) == 1 and np.count_nonzero(ring_next >= 0) == 2
        # a window of ring_tdm pays when both hops go up: the last hop up is one
        # class, and the empty history moves as a last hop down does; both
        # classes hop up or down, so their four moves share two summed maps
        assert len(tdm_next) == 2 and np.count_nonzero(tdm_next >= 0) == 4
        assert len(tdm_maps) == 2

    def test_tag_zero_is_class_zero_and_alike_moves_sum(self):
        # tag 2 moves as tag 0 does; tag 1's labels 0 and 2 move alike
        maps = np.arange(1.0, 10.0).reshape(3, 3, 1, 1)
        maps[2] = maps[0]
        next_tag = np.array([[1, 2, -1], [0, -1, 0], [1, 2, -1]])
        shift = np.array([[0, 1, 0], [2, 0, 2], [0, 1, 0]])
        q_maps, q_index, q_next, q_shift = trajectory._quotient(maps, next_tag, shift)
        assert q_next.tolist() == [[1, 0, -1], [0, -1, -1]]
        assert q_shift.tolist() == [[0, 1, 0], [2, 0, 0]]
        assert q_index.tolist() == [[0, 1, -1], [2, -1, -1]]
        assert q_maps[:, 0, 0].tolist() == [1.0, 2.0, 10.0]

    def test_each_summed_map_is_stored_once(self):
        # a length-3 window whose tags do not merge: 43 tags, 6 labels and 6
        # distinct 64 x 64 maps; one map per (class, move) would take 8.3 MB
        channel = random_channel(8, 6, 3)
        index = {label: i for i, label in enumerate(channel.labels)}
        payoff = {w: float(sum(index[label] for label in w) % 5)
                  for w in itertools.product(channel.labels, repeat=3)}
        rho0 = np.eye(8) / 8
        tracemalloc.start()
        try:
            score_distribution_windowed(channel, rho0, payoff, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5e6


def kernel_layouts():
    """(name, tables): the (maps, next_tag, shift, init) of every tag layout the kernel runs."""
    def recorded(law):
        def tables():
            seen, real = [], trajectory._lattice_dp
            with pytest.MonkeyPatch.context() as patch:
                for owner in (trajectory, classical):
                    patch.setattr(owner, "_lattice_dp",
                                  lambda *args: seen.append(args[:4]) or real(*args))
                law()
            return seen[0]
        return tables

    def gen6(payoff):
        channel = random_channel(6, 3, 1)
        return lambda: score_distribution_dp(channel, np.eye(6) / 6,
                                             dict(zip(channel.labels, payoff)), 4)

    def three_classes():
        # no move enters tag 0; tag 2's second label leads nowhere
        maps = np.random.default_rng(9).random((3, 2, 2, 2))
        next_tag = np.array([[1, 2], [2, 1], [1, -1]])
        shift = np.array([[0, 1], [2, -1], [1, 0]])
        return maps, next_tag, shift, np.array([1.0, 0.5])

    def gap():
        # tags 0 and 1 keep contiguous scores; tag 2 gets them 20 apart
        maps = np.random.default_rng(9).random((3, 3, 2, 2))
        next_tag = np.array([[0, 1, 2], [1, 1, 2], [-1, -1, -1]])
        shift = np.array([[0, 0, 0], [0, 1, 20], [0, 0, 0]])
        return maps, next_tag, shift, np.array([1.0, 0.5])

    def mixed():
        # tag 1 pays 0, 2 or 3 and never reaches score 1; tag 0 stays at 0
        maps = np.random.default_rng(9).random((2, 3, 2, 2))
        next_tag = np.array([[0, 1, -1], [1, 1, 1]])
        shift = np.array([[0, 0, 0], [0, 2, 3]])
        return maps, next_tag, shift, np.array([1.0, 0.5])

    ring, ring_payoff = ring_channel()
    tdm = load_model(os.path.join(os.path.dirname(__file__), "..", "models", "ring_tdm.json"))
    flux2 = {("a", "a"): 0.0, ("a", "b"): 1.0, ("b", "a"): 0.0, ("b", "b"): 0.0}
    rng = np.random.default_rng(12)
    p = rng.random((4, 4))
    chain4 = MarkovChain(p / p.sum(axis=1, keepdims=True))
    flux4 = {(x, y): float(rng.integers(-3, 4)) / 2 for x, y in chain4.edges()}
    wide4 = {(x, y): float(x + 3 * y) for x, y in chain4.edges()}
    return [
        ("ring", recorded(lambda: score_distribution_dp(ring, np.diag([0.5, 0.3, 0.2]),
                                                        ring_payoff, 4))),
        ("gen6", recorded(gen6([1.0, 0.0, -1.0]))),
        ("gen6-sparse", recorded(gen6([0.0, 1.0, 1000.0]))),
        ("ring_tdm", recorded(lambda: score_distribution_windowed(
            tdm.channel, np.eye(3) / 3, tdm.observation_windows, 4))),
        ("two_state_flux", recorded(lambda: _flux_laws(two_state_chain(), [0.4, 0.6],
                                                       flux2, [4]))),
        ("chain4_flux", recorded(lambda: _flux_laws(chain4, np.ones(4) / 4, flux4, [4]))),
        ("three_classes", three_classes),
        ("stride2", recorded(gen6([0.0, 2.0, 2.0]))),
        ("negative", recorded(gen6([-1.0, -2.0, -3.0]))),
        ("gap", gap),
        ("mixed", mixed),
        # more than _DP_BLOCK rows a class by step 40, in one 1 x 1 product
        ("wide_flux", recorded(lambda: _flux_laws(chain4, np.ones(4) / 4, wide4, [4]))),
    ]


class TestClassArrays:
    """The kernel keeps one score array per class; its rows are the sorted-key loop's bits."""

    @pytest.mark.parametrize("name, tables", kernel_layouts(),
                             ids=[case[0] for case in kernel_layouts()])
    def test_rows_match_the_sorted_key_loop(self, name, tables):
        maps, next_tag, shift, init = tables()
        steps = [0, 1, 2, 7, 40]
        rows = trajectory._lattice_dp(maps, next_tag, shift, init, steps)
        q_maps, q_index, q_next, q_shift = trajectory._quotient(maps, next_tag, shift)
        if name == "three_classes":
            assert len(q_next) == 3
        reference = lattice_dp_unreduced(q_maps[q_index], q_next, q_shift, init, steps)
        assert list(rows) == list(reference) == steps
        for step in steps:
            assert np.array_equal(rows[step][0], reference[step][0])
            assert np.array_equal(rows[step][1], reference[step][1])
        if name == "wide_flux":  # its four state classes hold every row after step 1
            assert rows[40][0].size > 4 * trajectory._DP_BLOCK

    @pytest.mark.parametrize("name, sorts", [
        ("ring", False), ("ring_tdm", False), ("two_state_flux", False), ("gen6", False),
        ("stride2", False), ("negative", False), ("wide_flux", False), ("gen6-sparse", True),
        ("gap", True), ("mixed", True)])
    def test_interval_rows_need_no_sort(self, name, sorts, monkeypatch):
        # rows that fill an interval take slices; the sparse payoff still sorts
        tables = dict(kernel_layouts())[name]()
        calls, unique = [], np.unique
        monkeypatch.setattr(np, "unique", lambda *args, **kwargs: calls.append(
            sys._getframe(1).f_code.co_name) or unique(*args, **kwargs))
        trajectory._lattice_dp(*tables, [40])
        assert ("_lattice_dp" in calls) == sorts


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

    def test_chunking_invariance(self, ring, monkeypatch):
        channel, payoff = ring
        kw = dict(n=8, gamma=0.25, trials=3000, seed=11)

        def chunked(size, sample, *args, **kwargs):
            monkeypatch.setattr(trajectory, "_MC_CHUNK", size)
            return sample(*args, **kwargs)

        a = chunked(100, mc_tail, channel, np.eye(3) / 3, payoff, **kw)
        b = chunked(1024, mc_tail, channel, np.eye(3) / 3, payoff, **kw)
        assert a == b
        pair = {(x, y): float(x.endswith("+")) - float(y.endswith("-"))
                for x in channel.labels for y in channel.labels}
        a = chunked(100, mc_tail_windowed, channel, np.eye(3) / 3, pair, **kw)
        b = chunked(1024, mc_tail_windowed, channel, np.eye(3) / 3, pair, **kw)
        assert a == b
        # a coarse step has two operators per outcome
        coarse = Unravelling([channel.kraus[0::2], channel.kraus[1::2]], ["up", "down"])
        steps = [TimeStep(coarse, {"up": 1.0, "down": -1.0}) if k % 2
                 else TimeStep(Unravelling.standard(channel), payoff) for k in range(8)]
        sigma = invariant_state(channel).matrix
        a = chunked(100, mc_tail_unravelled, steps, sigma, np.eye(3) / 3, 0.25, 3000, 11)
        b = chunked(1024, mc_tail_unravelled, steps, sigma, np.eye(3) / 3, 0.25, 3000, 11)
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


ALPHA = 1e-4  # level of every law test below, fixed before any of them was run


def score_cells(law, trials: int) -> tuple[np.ndarray, np.ndarray]:
    """(lower ends, probabilities) of consecutive score intervals of ``law``.

    Each interval expects at least 5 of ``trials`` draws; a short last one
    joins the one before.
    """
    starts, probs = [], []
    for score, mass in zip(law.numerators, law.masses):
        if not probs or probs[-1] * trials >= 5.0:
            starts.append(int(score))
            probs.append(0.0)
        probs[-1] += mass
    if len(probs) > 1 and probs[-1] * trials < 5.0:
        starts.pop()
        probs[-2] += probs.pop()
    return np.asarray(starts), np.asarray(probs)


def law_pvalue(hits, probs: np.ndarray, trials: int) -> float:
    """Chi-square p-value of cell counts against ``probs``; hits[i] = draws >= cell i's start."""
    observed = -np.diff(np.append(hits, 0))
    assert hits[0] == trials and observed.min() >= 0
    return float(stats.chisquare(observed, probs / probs.sum() * trials).pvalue)


class TestSamplerLaws:
    """Sampled laws against exact ones, each at the level ALPHA."""

    N, TRIALS, SEED = 8, 10_000, 2024

    def check_discrete(self, channel, rho0, payoff):
        law = score_distribution_dp(channel, rho0, payoff, self.N)
        assert law.denominator == 1
        starts, probs = score_cells(law, self.TRIALS)
        tails = trajectory._discrete_tails(channel, rho0, payoff, self.N,
                                           [(s - 0.5) / self.N for s in starts], self.TRIALS,
                                           self.SEED)
        hits = [round(tail.estimate * self.TRIALS) for tail in tails]
        assert len(probs) >= 4 and law_pvalue(hits, probs, self.TRIALS) > ALPHA

    def test_ring(self, ring):
        channel, payoff = ring
        self.check_discrete(channel, np.eye(3) / 3, payoff)

    def test_mixed_non_diagonal_initial_state(self):
        channel = random_channel(3, 3, 41)
        rho0 = random_state(3, np.random.default_rng(41))
        assert np.min(np.abs(rho0[np.triu_indices(3, 1)])) > 1e-3
        payoff = {lab: float(i % 3 - 1) for i, lab in enumerate(channel.labels)}
        self.check_discrete(channel, rho0, payoff)

    def test_random_d4(self):
        channel = random_channel(4, 3, 43)
        rho0 = invariant_state(channel).matrix
        payoff = {lab: float(i % 3 - 1) for i, lab in enumerate(channel.labels)}
        self.check_discrete(channel, rho0, payoff)

    def test_coarse_unravelling(self):
        # three outcomes of two, one and one operators; the coarse law is the
        # law of the fine channel with each operator scored by its outcome
        channel = random_channel(3, 4, 47)
        kraus = channel.kraus
        coarse = Unravelling([kraus[:2], kraus[2:3], kraus[3:]], ["a", "b", "c"])
        f = {"a": 1.0, "b": 0.0, "c": -1.0}
        sigma = invariant_state(channel).matrix
        rho0 = random_state(3, np.random.default_rng(47))
        fine = dict(zip(channel.labels, (1.0, 1.0, 0.0, -1.0)))
        law = score_distribution_dp(channel, rho0, fine, self.N)
        trials = 4000  # one sample per cell: mc_tail_unravelled takes one gamma
        starts, probs = score_cells(law, trials)
        mean = sum(f[lab] * np.trace(coarse.apply_outcome_dual(i, sigma)).real
                   for i, lab in enumerate(coarse.labels))
        steps = [TimeStep(coarse, f)] * self.N
        hits = [round(mc_tail_unravelled(steps, sigma, rho0, (s - 0.5) / self.N - mean,
                                         trials, self.SEED).estimate * trials)
                for s in starts]
        assert len(probs) >= 4 and law_pvalue(hits, probs, trials) > ALPHA

    def test_poisson_counts(self, poisson_gen):
        # the counted detector has the state-independent intensity 0.4
        t, trials = 10.0, 20_000
        counts = counting_counts(poisson_gen, np.eye(2) / 2, t, trials, self.SEED)[:, 0]
        law = stats.poisson(0.4 * t)
        starts = np.arange(int(law.isf(1e-3)))
        probs = np.append(-np.diff(law.sf(starts - 1)), law.sf(starts[-1] - 1))
        hits = [int(np.sum(counts >= s)) for s in starts]
        assert law_pvalue(hits, probs, trials) > ALPHA

    @pytest.mark.parametrize("generator", ["qubit_gen", "complex_gen"])
    def test_mean_count(self, generator, request):
        """E[N(t)] = int_0^t tr(L^* L e^{s L} rho0) ds over every label, by one expm.

        The block matrix [[M, 0], [a, 0]], with M the master equation's
        matrix on vec(rho) and a the row rho -> tr(sum L^* L rho), has the
        exponential whose corner at time t applied to vec(rho0) is the integral.
        """
        gen = (GKLSGenerator(*self.complex_parts(), labels=("x", "y"))
               if generator == "complex_gen" else request.getfixturevalue(generator))
        d, t, trials = gen.dim, 3.0, 10_000
        rho0 = random_state(d, np.random.default_rng(53))
        m = superoperator_matrix(gen).matrix.conj().T
        a = vec(sum(l.conj().T @ l for l in gen.jumps)).conj()
        block = np.zeros((d * d + 1, d * d + 1), dtype=complex)
        block[:d * d, :d * d], block[d * d, :d * d] = m, a
        exact = float((expm(t * block)[d * d, :d * d] @ vec(rho0)).real)
        totals = counting_counts(gen, rho0, t, trials, self.SEED).sum(axis=1)
        z = stats.norm.isf(ALPHA / 2)
        assert abs(totals.mean() - exact) <= z * totals.std(ddof=1) / np.sqrt(trials)

    @staticmethod
    def complex_parts():
        """A Hamiltonian and two jumps on C^3 with complex entries, so the sign of H matters."""
        rng = np.random.default_rng(59)
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        jumps = [0.3 * (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
                 for _ in range(2)]
        return (a + a.conj().T) / 2, jumps


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

    def test_counting_determinism_and_chunking(self, qubit_gen, monkeypatch):
        monkeypatch.setattr(trajectory, "_COUNTING_CHUNK", 37)
        a = counting_counts(qubit_gen, np.eye(2) / 2, 40.0, 400, seed=2)
        monkeypatch.setattr(trajectory, "_COUNTING_CHUNK", 400)
        b = counting_counts(qubit_gen, np.eye(2) / 2, 40.0, 400, seed=2)
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
