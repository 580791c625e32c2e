"""Sampling and exact tail computation for measurement output processes.

The samplers unravel states into state vectors (Dalibard, Castin & Molmer
1992).  A trajectory starts from an eigenvector e_j of rho0 = sum_j p_j
e_j e_j^*, drawn with weight p_j, so that the trajectories average to rho0
and their outcomes have rho0's law.  A filter step applies every Kraus
operator V_k of the step to psi, draws one with weight |V_k psi|^2,
reports its outcome and moves to V_k psi / |V_k psi|; an outcome of
several operators is the mixture of its operators' branches, so its
probability is tr(W_i(rho)) as for the density filter
rho -> W_i(rho) / tr(...).  A batch is a (batch, d) array of rows psi, and
one step is one (batch, d) @ (d, K d) product over the K operators, in
real arithmetic when the operators and rho0 are real.  One filter step
serves Kraus channels, per-step unravellings and counting jumps alike: a
channel is its standard unravelling (one operator per outcome) at every
step, and the jump operators of a generator are one more such family.
Tails at several deviations come from one pass over the trajectories, and
the CLI's dump records are the very trajectories behind the tails it
reports.

Continuous-time counting records are drawn by thinning (Lewis & Shedler
1979; Ogata 1981): proposals at the rate Lambda = lambda_max(sum_i L_i^*
L_i), which bounds the jump intensity sum_i |L_i psi|^2 of every unit
vector, between which psi follows the no-jump evolution e^{tau G} psi in
the d x d eigenbasis of G; a proposal is a jump with probability
intensity / Lambda, and its label is drawn by the filter step.

Randomness comes from counter-based Philox streams keyed as
``(master_seed, trajectory_index)``: every trajectory owns its stream, so
results are reproducible bit-for-bit from the seed and independent of how
trajectories are batched or parallelized.  One bit generator per batch is
re-keyed to each stream in turn, which draws the same numbers as a fresh
generator per trajectory.  Uniform variates are consumed from fixed-size
per-trajectory tapes (block size ``_TAPE_BLOCK``), which keeps the
consumption order a function of the trajectory alone.

Exact tails on small instances come from one lattice DP kernel.  Its
state holds, per tag, an ascending array of reached scores, one row of
weights per score: the real coordinates of the conditioned operator
``T[s]`` in a Hermitian basis for a channel, one probability for a chain.
The basis, the coordinates and the real blocks come from :mod:`operators`.
The tag holds the rest of the state: none for the plain score sum, the
last outcomes for sliding windows, the current state for chain fluxes.
Label i sends tag t to ``next_tag[t, i]``, adds ``shift[t, i]`` to the
score and multiplies the weights by a block: the matrix of
``T -> V_i T V_i^*``, or ``p_xy``.  The kernel runs on the quotient of
these tables: tags with the same future merge, and labels that move a tag
alike are one move with the sum of their blocks (the ring's six labels are
two moves).  A (class, move) maps scores injectively, so each GEMM result
adds into a slice or at plain indices.  One pass serves every horizon, and
every tag layout turns its rows into laws the same way (sum per score,
clip, check the mass).  A batched enumeration over outcome sequences,
sharing no code with the kernel, is the independent check; it and the
unreduced sorted-key loop live with the tests, in ``tests/reference.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, product
from typing import Mapping, Sequence

import numpy as np

from .bounds import _stationary_intensity, _step_stats, _window_length
from .operators import (
    GKLSGenerator,
    KrausChannel,
    dagger,
    hermitian_coordinate_matrix,
    hermitian_coordinates,
    observation_vector,
    state_matrix,
    uniform_norm,
)
from .spectral import gkls_steady_state

_TAPE_BLOCK = 64          # uniforms drawn per refill of a trajectory tape (a multiple of 4)
_MASK64 = 0xFFFFFFFFFFFFFFFF  # seeds and indices enter a Philox key modulo 2**64
_PROB_FLOOR = 1e-15       # outcome probabilities below this count as zero
_DP_BLOCK = 256           # rows per GEMM block of the lattice DP
_RATE_MARGIN = 1e-12      # relative excess of the thinning bound over lambda_max(sum L^* L)
_MC_CHUNK = 4096          # trajectories per batch of the discrete samplers
_COUNTING_CHUNK = 2048    # trajectories per batch of the counting sampler
_MAX_DENOMINATOR = 10**6  # largest denominator of a score lattice
_MASS_TOL = 1e-11         # |total DP mass - initial mass| allowed


class FilterCollapseError(RuntimeError):
    """A sampler's filter failed numerically: its probabilities vanished or left their bounds."""


class LatticeError(ValueError):
    """Observation values do not fit a rational score lattice."""


# ---------------------------------------------------------------------------
# records and intervals
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrajectoryRecord:
    """Sampled discrete-time outcome sequence with its RNG coordinates."""

    outcomes: tuple
    seed: int
    index: int = 0


@dataclass(frozen=True)
class CountingRecord:
    """Timed jump events (time, label) on [0, horizon]."""

    horizon: float
    events: tuple
    seed: int
    index: int = 0


@dataclass(frozen=True)
class EmpiricalTail:
    estimate: float
    ci_low: float
    ci_high: float
    trials: int


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """95% Wilson score interval; well defined down to trials = 1.

    The interval ends exactly at 0 with no successes and exactly at 1 with
    no failures, where ``center -+ half`` would otherwise round off the end.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    p = successes / trials
    z = 1.959963984540054  # the normal 97.5% quantile
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = (p + z2 / (2 * trials)) / denom
    half = z * math.sqrt(p * (1 - p) / trials + z2 / (4 * trials * trials)) / denom
    low = 0.0 if successes == 0 else max(0.0, center - half)
    high = 1.0 if successes == trials else min(1.0, center + half)
    return low, high


def _empirical_tail(successes: int, trials: int) -> EmpiricalTail:
    low, high = wilson_interval(successes, trials)
    return EmpiricalTail(estimate=successes / trials, ci_low=low, ci_high=high,
                         trials=trials)


# ---------------------------------------------------------------------------
# counter-based per-trajectory randomness
# ---------------------------------------------------------------------------

class _Streams:
    """The streams (seed, index) of one seed, drawn through one re-keyed bit generator.

    Stream (seed, index) is ``Generator(Philox(key=(seed, index)))``.  Each
    uniform consumes one 64-bit Philox output and one counter value yields
    four, so the uniforms from position ``start`` (a multiple of 4) on are
    those that follow counter ``start // 4`` with an empty buffer.  Setting
    the key and counter avoids seeding a new generator per trajectory from
    OS entropy that the key then overrides.
    """

    def __init__(self, seed: int):
        self._bits = np.random.Philox(key=np.array([seed & _MASK64, 0], dtype=np.uint64))
        self._gen = np.random.Generator(self._bits)
        self._state = self._bits.state  # counter 0, empty buffer

    def fill(self, index: int, start: int, out: np.ndarray) -> None:
        """Write uniforms start, start+1, ... of stream (seed, index) into ``out``."""
        self._state["state"]["key"][1] = index & _MASK64
        self._state["state"]["counter"][0] = start // 4
        self._bits.state = self._state
        self._gen.random(out=out)


def _uniform_rows(seed: int, indices: Sequence[int], count: int) -> np.ndarray:
    """count uniforms per trajectory, row i from stream (seed, indices[i])."""
    streams = _Streams(seed)
    u = np.empty((len(indices), count))
    for row, index in zip(u, indices):
        streams.fill(index, 0, row)
    return u


class _Tape:
    """Per-trajectory uniform tapes refilled in fixed-size blocks."""

    def __init__(self, seed: int, indices: Sequence[int]):
        self._streams = _Streams(seed)
        self._indices = indices
        self._buf = np.empty((len(indices), _TAPE_BLOCK))
        self._blocks = np.zeros(len(indices), dtype=np.int64)  # blocks drawn so far
        self._cursor = np.full(len(indices), _TAPE_BLOCK)      # every tape starts empty

    def take(self, rows: np.ndarray) -> np.ndarray:
        for r in rows[self._cursor[rows] >= _TAPE_BLOCK]:
            self._streams.fill(self._indices[r], int(self._blocks[r]) * _TAPE_BLOCK,
                               self._buf[r])
            self._blocks[r] += 1
            self._cursor[r] = 0
        out = self._buf[rows, self._cursor[rows]]
        self._cursor[rows] += 1
        return out


# ---------------------------------------------------------------------------
# discrete-time sampling
# ---------------------------------------------------------------------------

def _categorical(probs: np.ndarray, u: np.ndarray, collapse: str) -> np.ndarray:
    """Per row, the index drawn by uniform u[b] with weights probs[b] floored at _PROB_FLOOR."""
    probs = np.where(probs < _PROB_FLOOR, 0.0, probs)
    totals = probs.sum(axis=1)
    if np.any(totals <= 0.0):
        raise FilterCollapseError(collapse)
    cum = np.cumsum(probs, axis=1)
    pick = np.count_nonzero(cum < (u * totals)[:, None], axis=1)
    return np.minimum(pick, probs.shape[1] - 1)


def _step_operators(outcomes: Sequence[Sequence[np.ndarray]]) -> tuple[np.ndarray, np.ndarray]:
    """(matrix, owner) of a filter step whose outcome i has the Kraus family outcomes[i].

    The K operators of all families, flattened, are the fine operators V_k;
    for a row psi (the entries of a state vector), ``psi @ matrix`` holds
    the K rows V_k psi side by side, and ``owner[k]`` is V_k's outcome.
    """
    stack = np.stack([v for ops in outcomes for v in ops])
    stack = stack if np.any(stack.imag) else stack.real
    owner = np.repeat(np.arange(len(outcomes)), [len(ops) for ops in outcomes])
    return stack.transpose(2, 0, 1).reshape(stack.shape[2], -1), owner


def _channel_step(channel: KrausChannel) -> tuple[np.ndarray, np.ndarray]:
    """``_step_operators`` of the standard unravelling of ``channel``: one operator per outcome."""
    return _step_operators([(v,) for v in channel.kraus])


def _images(step: tuple[np.ndarray, np.ndarray], psi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """V_k psi for each row and fine operator, shape (b, K, d), and their squared norms (b, K)."""
    images = (psi @ step[0]).reshape(len(psi), len(step[1]), psi.shape[1])
    parts = images.view(np.float64)
    return images, np.einsum("bkj,bkj->bk", parts, parts)


def _collapse(images: np.ndarray, probs: np.ndarray, u: np.ndarray,
              collapse: str) -> tuple[np.ndarray, np.ndarray]:
    """(fine operator drawn per row by u with weights probs, its normalized image)."""
    pick = _categorical(probs, u, collapse)
    rows = np.arange(len(pick))
    return pick, images[rows, pick] / np.sqrt(probs[rows, pick])[:, None]


def _initial_vectors(rho0, u: np.ndarray) -> np.ndarray:
    """Rows e_j of rho0 = sum_j p_j e_j e_j^*, j drawn per row by u with weights p_j."""
    rho = state_matrix(rho0)
    p, e = np.linalg.eigh(rho if np.any(rho.imag) else rho.real)
    j = _categorical(np.broadcast_to(p, (len(u), len(p))), u, "initial state has no weight")
    return e.T[j]


def _filter_batch(steps: Sequence[tuple[np.ndarray, np.ndarray]], rho0, seed: int,
                  indices: Sequence[int]) -> np.ndarray:
    """Outcome index matrix (len(indices), n); row i uses stream (seed, indices[i]).

    Uniform 0 of a stream picks the trajectory's initial eigenvector of
    rho0 and uniform k + 1 drives step k, through the ``_step_operators``
    pair ``steps[k]``; pass one pair object per distinct step so each is
    built once.
    """
    u = _uniform_rows(seed, indices, len(steps) + 1)
    psi = _initial_vectors(rho0, u[:, 0])
    picks = np.empty((len(indices), len(steps)), dtype=np.int64)
    for k, step in enumerate(steps):
        images, probs = _images(step, psi)
        fine, psi = _collapse(images, probs, u[:, k + 1], f"filter collapse at step {k}")
        picks[:, k] = step[1][fine]
    return picks


def _chunks(trials: int, chunk_size: int) -> list[range]:
    """Index ranges of at most ``chunk_size`` trajectories covering 0..trials-1."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    return [range(start, min(start + chunk_size, trials))
            for start in range(0, trials, chunk_size)]


def _filter_tails(steps: Sequence[tuple], rho0, score, n: int, gammas: Sequence[float],
                  trials: int, seed: int, on_chunk=None) -> list[EmpiricalTail]:
    """P(score(picks) / n >= gamma) per gamma; on_chunk(indices, picks) sees each chunk."""
    thresholds = [n * gamma - 1e-12 for gamma in gammas]
    hits = [0] * len(thresholds)
    for indices in _chunks(trials, _MC_CHUNK):
        picks = _filter_batch(steps, rho0, seed, indices)
        if thresholds:
            sums = score(picks)
            for j, threshold in enumerate(thresholds):
                hits[j] += int(np.sum(sums >= threshold))
        if on_chunk is not None:
            on_chunk(indices, picks)
    return [_empirical_tail(h, trials) for h in hits]


def _discrete_tails(channel: KrausChannel, rho0, f, n: int, gammas: Sequence[float],
                    trials: int, seed: int, on_chunk=None) -> list[EmpiricalTail]:
    """``mc_tail`` at every gamma from one sample; ``f`` is read only if there are gammas."""
    fv = observation_vector(f, channel.labels) if gammas else None
    return _filter_tails([_channel_step(channel)] * n, rho0, lambda picks: fv[picks].sum(axis=1),
                         n, gammas, trials, seed, on_chunk)


def sample_discrete(channel: KrausChannel, rho0, n: int, seed: int,
                    index: int = 0) -> TrajectoryRecord:
    """One trajectory of n outcomes of the standard unravelling, from stream (seed, index)."""
    picks = _filter_batch([_channel_step(channel)] * n, rho0, seed, [index])[0]
    return TrajectoryRecord(outcomes=tuple(channel.labels[p] for p in picks),
                            seed=seed, index=index)


def mc_tail(channel: KrausChannel, rho0, f, n: int, gamma: float, trials: int,
            seed: int) -> EmpiricalTail:
    """Monte Carlo estimate of P(mean of f over n outcomes >= gamma).

    Deterministic given the seed and independent of ``_MC_CHUNK``: each
    trajectory consumes only its own Philox stream.
    """
    return _discrete_tails(channel, rho0, f, n, [gamma], trials, seed)[0]


def mc_tail_unravelled(steps, sigma, rho0, gamma: float, trials: int, seed: int) -> EmpiricalTail:
    """Tail of (1/n) sum_k (f_k(X_k) - pi_k(f_k)) >= gamma under per-step unravellings."""
    n = len(steps)
    centered = [row[0] for row in _step_stats(steps, sigma)]
    distinct = {id(step.unravelling): step.unravelling for step in steps}
    maps = {key: _step_operators(unravelling.maps) for key, unravelling in distinct.items()}
    return _filter_tails([maps[id(step.unravelling)] for step in steps], rho0,
                         lambda picks: sum(centered[k][picks[:, k]] for k in range(n)),
                         n, [gamma], trials, seed)[0]


# ---------------------------------------------------------------------------
# exact tails by dynamic programming on a rational score lattice
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScoreDistribution:
    """Exact law of the n-step score sum on an integer lattice."""

    numerators: np.ndarray    # integer scores; actual sum = numerators / denominator
    masses: np.ndarray
    denominator: int
    n: int

    def tail(self, gamma: float) -> float:
        """P(score sum / n >= gamma)."""
        threshold = gamma * self.n * self.denominator - 1e-9
        return float(self.masses[self.numerators >= threshold].sum())

    def laplace(self, u: float) -> float:
        """E[exp(u * score sum)]."""
        return float(np.exp(self.log_laplace(u)))

    def log_laplace(self, u: float) -> float:
        log_terms = u * self.numerators / self.denominator
        keep = self.masses > 0.0
        shift = np.max(log_terms[keep])
        return float(shift + np.log(np.sum(
            self.masses[keep] * np.exp(log_terms[keep] - shift))))


def _score_lattice(fv: np.ndarray) -> tuple[np.ndarray, int]:
    fracs = [Fraction(float(x)).limit_denominator(_MAX_DENOMINATOR) for x in fv]
    for x, fr in zip(fv, fracs):
        if abs(float(fr) - float(x)) > 1e-12 * max(1.0, abs(float(x))):
            raise LatticeError(
                f"payoff value {float(x)!r} has no rational approximation with "
                f"denominator <= {_MAX_DENOMINATOR}")
    denom = 1
    for fr in fracs:
        denom = denom * fr.denominator // math.gcd(denom, fr.denominator)
    nums = np.asarray([int(fr * denom) for fr in fracs], dtype=np.int64)
    return nums, denom


def _quotient(maps: np.ndarray, next_tag: np.ndarray, shift: np.ndarray
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The DP's tables on their quotient: equivalent tags merged, alike moves summed.

    Tags are equivalent when, label by label, they have the same shift, map
    and equivalent next tag (partition refinement, Moore 1956).  A class has
    one move per (next class, shift), its map the sum of their maps in label
    order.  Returns (maps, index, next class, shift): each distinct summed
    map once, and per (class, move) the index of its map; -1 pads the tables.
    """
    live, ids = next_tag >= 0, {}  # ids: one number per distinct map
    block = [[ids.setdefault(m.tobytes(), len(ids)) for m in row] for row in maps]
    keys, cls, count = np.hstack(np.where(live, [shift, block], -1)), np.zeros(len(live), int), -1
    while cls.max() > count:  # refine until stable; classes numbered as first seen, tag 0's is 0
        _, first, inverse = np.unique(np.c_[keys, np.where(live, cls[next_tag], -1)], axis=0,
                                      return_index=True, return_inverse=True)
        count, cls = cls.max(), np.argsort(first).argsort()[inverse.ravel()]
    reps = np.unique(cls, return_index=True)[1]  # the first tag of each class
    q_next = np.full((len(reps), next_tag.shape[1]), -1)
    q_shift, q_index, sums = np.zeros_like(q_next), np.full_like(q_next, -1), {}
    for c, t in enumerate(reps):
        moves: dict = {}
        for i in np.flatnonzero(live[t]):
            moves.setdefault((cls[next_tag[t, i]], shift[t, i]), []).append(i)
        for j, (move, labels) in enumerate(moves.items()):  # a sum is named by its terms
            q_next[c, j], q_shift[c, j] = move
            q_index[c, j] = sums.setdefault(tuple(block[t][i] for i in labels),
                                            (len(sums), t, labels))[0]
    return (np.array([sum(maps[t, i] for i in labels) for _, t, labels in sums.values()]),
            q_index, q_next, q_shift)


def _lattice_reduction(shifts: np.ndarray) -> tuple[int, int]:
    """(base, stride) of 1-D integer shifts: the least (or 0) and the gcd over it (or 1)."""
    base = int(min(shifts, default=0))
    return base, math.gcd(*(shifts - base).tolist()) or 1


def _lattice_dp(maps: np.ndarray, next_tag: np.ndarray, shift: np.ndarray,
                init: np.ndarray, steps: Sequence[int]) -> dict:
    """Rows of the tagged score-lattice DP after each step count in ``steps``.

    The DP starts from the single row (tag 0, score 0) holding ``init``.
    Label i moves a row of tag t to tag ``next_tag[t, i]`` (nowhere if
    negative), adds ``shift[t, i]`` to its score and right-multiplies its
    weights by ``maps[t, i]``, on the tables' ``_quotient``: a row's tag is
    its class.  As every row moves once per step, shifts are reduced to
    (shift - base) / stride, base the least and stride the gcd of the rest,
    and a reduced score s after k steps is handed back as base k + stride s.
    Each class keeps one ascending score array and its block of weights.  A
    step adds each source's blocks of ``_DP_BLOCK`` rows (one block for 1 x 1
    maps, whose products round per row) times its map, in (class, move)
    order: into slices where the contiguous sources tile one interval, else
    where the inverse of one ``np.unique`` of the shifted sources puts them.
    Returns {step: (scores, weights)}, the rows sorted by (score, class),
    so scores ascend and repeat once per class.
    """
    last = max(steps, default=0)
    if int(np.abs(shift).max(initial=0)) * last >= 2**63:
        raise LatticeError(f"a {last}-step score lattice this wide overflows 64-bit scores")
    maps, index, next_tag, shift = _quotient(maps, next_tag, shift)
    base, stride = _lattice_reduction(shift[next_tag >= 0])
    shift = (shift - base) // stride
    classes = range(next_tag.shape[0])
    sources = [[(c, j) for c in classes for j in np.flatnonzero(next_tag[c] == u)]
               for u in classes]
    block_rows = _DP_BLOCK if maps.shape[1:] != (1, 1) else 2**62  # 1 x 1: one block
    none = np.zeros(0, dtype=np.int64)
    first = np.asarray(init)[None, :].astype(np.result_type(init, maps))
    scores = [np.zeros(1, dtype=np.int64)] + [none] * (len(classes) - 1)
    vecs = [first] + [first[:0]] * (len(classes) - 1)
    out = {}
    for step in range(last + 1):
        if step:
            targets = [(none, first[:0])] * len(classes)
            dense = [s.size and s[-1] - s[0] < s.size for s in scores]  # contiguous scores
            for u in classes:
                moves = [(c, j) for c, j in sources[u] if scores[c].size]
                if not moves:
                    continue
                sizes = [scores[c].size for c, _ in moves]
                at = ([int(scores[c][0] + shift[c, j]) for c, j in moves]
                      if all(dense[c] for c, _ in moves) else [])
                spans = sorted(zip(at, sizes))
                reach = list(accumulate((a + size for a, size in spans), max))  # half-open ends
                if at and all(a <= b for (a, _), b in zip(spans[1:], reach)):  # one interval
                    scores_u, where = np.arange(spans[0][0], reach[-1]), np.s_  # np.s_[a:b] is a:b
                    at = [a - spans[0][0] for a in at]
                else:
                    cand = np.concatenate([scores[c] + shift[c, j] for c, j in moves])
                    scores_u, where = np.unique(cand, return_inverse=True)
                    at = accumulate(sizes, initial=0)
                new = np.zeros((scores_u.size, first.shape[1]), dtype=first.dtype)
                for (c, j), to in zip(moves, at):  # one move's score map is injective
                    for lo in range(0, scores[c].size, block_rows):
                        block = vecs[c][lo:lo + block_rows]
                        new[where[to + lo:to + lo + len(block)]] += block @ maps[index[c, j]]
                targets[u] = scores_u, new
            scores, vecs = zip(*targets)
        if step in steps:
            flat = np.concatenate(scores)
            order = np.argsort(flat, kind="stable")  # a score's rows stay in class order
            out[step] = base * step + stride * flat[order], np.concatenate(vecs)[order]
    return out


def _dp_laws(rows: dict, denom: int, lag: int, mass: float) -> dict:
    """{n: law of the score sum} from the kernel's {n + lag: (scores, row masses)}.

    The rows of one score are summed and rounding noise below 0 is clipped.
    The kernel conserves the initial ``mass``, which the input checks hold
    to 1 only within their own tolerance, so the total is checked against
    it at ``_MASS_TOL``.
    """
    laws = {}
    for step, (scores, masses) in rows.items():
        starts = np.flatnonzero(np.r_[True, scores[1:] != scores[:-1]])
        masses = np.clip(np.add.reduceat(masses, starts), 0.0, None)
        total = float(masses.sum())
        if abs(total - mass) > _MASS_TOL:
            raise RuntimeError(f"DP mass {total!r} deviates from the initial {mass!r} "
                               f"beyond {_MASS_TOL:g}")
        laws[step - lag] = ScoreDistribution(numerators=scores[starts], masses=masses,
                                             denominator=denom, n=step - lag)
    return laws


def _channel_laws(channel: KrausChannel, rho0, next_tag: np.ndarray, shift: np.ndarray,
                  denom: int, steps: Sequence[int], lag: int) -> dict:
    """{n: law} from the kernel run on the operators of ``channel`` to each n + lag in ``steps``.

    Rows hold the real coordinates r_b = tr(B_b T) of the Hermitian T[s]
    (:func:`operators.hermitian_coordinates`), and the mass tr T sums the d
    diagonal ones.  V T V^* is ``r @ K`` for K the real Heisenberg matrix of
    the one-operator family (V), as the predual's matrix is its transpose.
    """
    d = channel.dim
    blocks = np.stack([hermitian_coordinate_matrix([v]) for v in channel.kraus])
    maps = np.broadcast_to(blocks, (next_tag.shape[0],) + blocks.shape)
    init = hermitian_coordinates(state_matrix(rho0))
    rows = _lattice_dp(maps, next_tag, shift, init, steps)
    return _dp_laws({step: (scores, vecs[:, :d].sum(axis=1)) for step, (scores, vecs)
                     in rows.items()}, denom, lag, float(init[:d].sum()))


def _score_laws(channel: KrausChannel, rho0, nums: np.ndarray, denom: int,
                horizons: Sequence[int]) -> dict:
    """{n: law of sum_k f(X_k)} at every horizon from one DP pass; f is on the lattice."""
    return _channel_laws(channel, rho0, np.zeros((1, len(nums)), dtype=np.int64),
                         np.asarray(nums, dtype=np.int64)[None, :], denom, horizons, 0)


def score_distribution_dp(channel: KrausChannel, rho0, f, n: int) -> ScoreDistribution:
    """Exact distribution of sum_k f(X_k) by operator-valued DP.

    State: unnormalized conditioned operators T[s] per lattice score s,
    updated as T'[s + f(i)] += V_i T[s] V_i^*.  Mass conservation
    sum_s tr(T_n[s]) = tr(rho0) is checked at ``_MASS_TOL``.
    """
    nums, denom = _score_lattice(observation_vector(f, channel.labels))
    return _score_laws(channel, rho0, nums, denom, [n])[n]


def exact_tail_dp(channel: KrausChannel, rho0, f, n: int, gamma: float) -> float:
    """Exact P((1/n) sum_k f(X_k) >= gamma) on a desk-scale instance."""
    return score_distribution_dp(channel, rho0, f, n).tail(gamma)


def _window_value(f: Mapping, window: tuple):
    if window not in f:
        raise KeyError(f"windowed payoff undefined on {window}")
    return f[window]


def score_distribution_windowed(channel: KrausChannel, rho0, f: Mapping,
                                n: int) -> ScoreDistribution:
    """Exact law of sum_k f(X_k, ..., X_{k+m-1}) over n sliding windows.

    The DP state is (last m-1 outcomes, lattice score); n windows involve
    n + m - 1 outcomes in total, the first m-1 of them unscored.
    """
    m = _window_length(f)
    keys = list(f.keys())
    vals = np.asarray([float(f[k]) for k in keys])
    nums_list, denom = _score_lattice(vals)
    nums = {k: int(v) for k, v in zip(keys, nums_list)}
    labels = channel.labels
    # one tag per history of fewer than m outcomes, the empty one first
    histories = [h for size in range(m) for h in product(range(len(labels)), repeat=size)]
    tag = {h: t for t, h in enumerate(histories)}
    next_tag = np.zeros((len(histories), len(labels)), dtype=np.int64)
    shift = np.zeros_like(next_tag)
    for h, t in tag.items():
        for i in range(len(labels)):
            window = h + (i,)
            if len(window) < m:
                next_tag[t, i] = tag[window]
            else:
                next_tag[t, i] = tag[window[1:]]
                shift[t, i] = _window_value(nums, tuple(labels[j] for j in window))
    return _channel_laws(channel, rho0, next_tag, shift, denom, [n + m - 1], m - 1)[n]


def mc_tail_windowed(channel: KrausChannel, rho0, f: Mapping, n: int, gamma: float,
                     trials: int, seed: int) -> EmpiricalTail:
    """Monte Carlo tail of the sliding-window mean over n windows.

    Like :func:`score_distribution_windowed`, raises ``KeyError`` if the
    payoff is undefined on some window of outcome labels.
    """
    m = _window_length(f)
    labels = channel.labels
    lookup = np.empty((len(labels),) * m)
    for idx in np.ndindex(lookup.shape):
        lookup[idx] = float(_window_value(f, tuple(labels[i] for i in idx)))
    return _filter_tails([_channel_step(channel)] * (n + m - 1), rho0,
                         lambda picks: sum(lookup[tuple(picks[:, k + j] for j in range(m))]
                                           for k in range(n)),
                         n, [gamma], trials, seed)[0]


# ---------------------------------------------------------------------------
# Laplace transforms
# ---------------------------------------------------------------------------

def laplace_transform_exact(channel: KrausChannel, rho0, f, n: int, u: float) -> float:
    """E[exp(u sum_k f(X_k))], cross-validated along two independent routes.

    Route one iterates the tilted Heisenberg family on the identity and
    pairs with the initial state; route two sums the exact DP score law.
    Both are carried in log-domain; a log-value above ~700 is reported as
    an overflow rather than returned as inf.
    """
    fv = observation_vector(f, channel.labels)
    weights = np.exp(0.5 * u * fv)  # applied on both sides of x
    x = np.eye(channel.dim, dtype=complex)
    log_scale = 0.0
    for _ in range(n):
        x = np.einsum("i,iqp,qr,irs->ps", weights**2, channel._stack.conj(), x,
                      channel._stack)
        norm = uniform_norm(x)
        if norm == 0.0:
            raise RuntimeError("tilted iteration annihilated the identity")
        x = x / norm
        log_scale += math.log(norm)
    value = float(np.trace(state_matrix(rho0) @ x).real)
    if value <= 0.0:
        raise RuntimeError("tilted expectation lost positivity")
    log_operator = log_scale + math.log(value)
    log_dp = score_distribution_dp(channel, rho0, f, n).log_laplace(u)
    if abs(log_operator - log_dp) > 1e-10 * max(1.0, abs(log_dp)):
        raise RuntimeError(
            f"Laplace transform routes disagree: {log_operator!r} vs {log_dp!r} (log scale)")
    if log_operator > 700.0:
        raise OverflowError(
            f"Laplace transform overflows double precision; log value {log_operator:.6f}")
    return float(math.exp(log_operator))


# ---------------------------------------------------------------------------
# continuous-time counting processes
# ---------------------------------------------------------------------------

def _no_jump_basis(gen: GKLSGenerator) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(w, P^T, P^-T) with G = P diag(w) P^-1 for the generator's no-jump matrix G.

    Under the no-jump evolution rho -> G rho + rho G^* of
    :class:`operators.GKLSGenerator`, a state vector follows e^{tau G} psi:
    with coefficients c = psi P^-T, the row (c * e^{tau w}) P^T.  The
    evolution's d^2 x d^2 eigenbasis is kron(conj(P), P), of condition
    number cond(P)^2, and that is what is held at 1e10.
    """
    w, p = np.linalg.eig(gen.no_jump_generator_matrix)
    cond = np.linalg.cond(p) ** 2
    if not cond <= 1e10:
        raise FilterCollapseError(f"counting sampler: the no-jump generator's eigenbasis is too "
                                  f"ill conditioned (cond^2 = {cond:.3g} > 1e10)")
    return w, p.T.copy(), np.linalg.inv(p).T.copy()


def _thinning_rate(gen: GKLSGenerator) -> float:
    """Lambda = lambda_max(sum_i L_i^* L_i): the largest sum_i |L_i psi|^2 over unit psi."""
    return float(np.linalg.eigvalsh(sum(dagger(l) @ l for l in gen.jumps))[-1])


def _counting_batch(gen: GKLSGenerator, rho0, t: float, seed: int,
                    indices: Sequence[int], collect_events: bool):
    """Counts per label (and optionally event lists) for a batch of trajectories.

    Jump times are drawn by thinning (Lewis & Shedler; Ogata).  The total
    intensity sum_i |L_i psi|^2 of a unit vector psi is at most
    Lambda = lambda_max(sum_i L_i^* L_i), raised by the relative
    ``_RATE_MARGIN`` for rounding.  So proposals come at Exp(Lambda) gaps,
    between which psi follows e^{tau G} psi / |.|, and a proposal whose
    second uniform v has v Lambda < sum_i |L_i psi|^2 is a jump.  Given
    that, v Lambda / sum_i |L_i psi|^2 is uniform again and draws the label
    through the filter step.  Event times are sums of the gaps.

    The cost is about Lambda t proposals per trajectory, one product each;
    Lambda is 2.25 times the total stationary intensity on ``driven_qubit``
    and 1.75 times it on ``poisson_qubit``.  Lambda = 0 means no events.  A
    computed intensity above Lambda is a numerical failure and is never
    clipped.
    """
    batch = len(indices)
    counts = np.zeros((batch, len(gen.jumps)), dtype=np.int64)
    events: list[list] = [[] for _ in range(batch)] if collect_events else []
    jumps = _step_operators([(l,) for l in gen.jumps])
    bound = _thinning_rate(gen) * (1.0 + _RATE_MARGIN)
    if not bound > 0.0:
        return counts, events
    w, right, left = _no_jump_basis(gen)
    tape = _Tape(seed, indices)
    active = np.arange(batch)
    coeff = _initial_vectors(rho0, tape.take(active)) @ left
    clock = np.zeros(batch)
    while True:
        gap = -np.log1p(-tape.take(active)) / bound
        clock[active] += gap
        live = clock[active] < t
        active, gap = active[live], gap[live]
        if not active.size:
            return counts, events
        c = coeff[active] * np.exp(np.outer(gap, w))
        psi = c @ right
        norm = np.sqrt(np.einsum("bj,bj->b", psi.view(np.float64), psi.view(np.float64)))
        if np.any(norm <= 0.0):
            raise FilterCollapseError("counting sampler: no-jump propagation lost all probability")
        psi /= norm[:, None]
        coeff[active] = c / norm[:, None]
        images, probs = _images(jumps, psi)
        rate = probs.sum(axis=1)
        if np.any(rate > bound):
            raise FilterCollapseError(f"counting sampler: jump intensity {rate.max()!r} above "
                                      f"its bound {bound!r}")
        v = tape.take(active) * bound
        jumped = v < rate
        hit = active[jumped]
        if hit.size:
            pick, psi = _collapse(images[jumped], probs[jumped], v[jumped] / rate[jumped],
                                  "vanishing jump intensities at a jump time")
            coeff[hit] = psi @ left
            counts[hit, pick] += 1
            if collect_events:
                for row, p in zip(hit, pick):
                    events[row].append((float(clock[row]), gen.labels[p]))


def sample_counting(gen: GKLSGenerator, rho0, t: float, seed: int,
                    index: int = 0) -> CountingRecord:
    """One counting record on [0, t] from stream (seed, index)."""
    if t < 0:
        raise ValueError("horizon t must be nonnegative")
    if t == 0.0:
        return CountingRecord(horizon=0.0, events=(), seed=seed, index=index)
    _, events = _counting_batch(gen, rho0, t, seed, [index], collect_events=True)
    return CountingRecord(horizon=t, events=tuple(events[0]), seed=seed, index=index)


def _counting_chunks(gen: GKLSGenerator, rho0, t: float, trials: int, seed: int,
                     collect_events: bool = False):
    """Counts (and event lists) of trajectories 0..trials-1, ``_COUNTING_CHUNK`` at a time."""
    batches = [_counting_batch(gen, rho0, t, seed, indices, collect_events)
               for indices in _chunks(trials, _COUNTING_CHUNK)]
    return (np.vstack([counts for counts, _ in batches]),
            [events for _, chunk in batches for events in chunk])


def counting_counts(gen: GKLSGenerator, rho0, t: float, trials: int, seed: int) -> np.ndarray:
    """Matrix of per-label click counts, one row per trajectory."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if t == 0.0:
        return np.zeros((trials, len(gen.jumps)), dtype=np.int64)
    return _counting_chunks(gen, rho0, t, trials, seed)[0]


def _rate_tails(counts: np.ndarray, t: float, m: float,
                gammas: Sequence[float]) -> list[EmpiricalTail]:
    """P(N(t)/t - m >= gamma) per gamma from one label's counts; at t = 0 the rate is 0."""
    deviations = (counts / t if t > 0.0 else np.zeros(counts.shape)) - m
    return [_empirical_tail(int(np.sum(deviations >= gamma - 1e-12)), counts.size)
            for gamma in gammas]


def mc_counting_tail(gen: GKLSGenerator, label, rho0, t: float, gamma: float,
                     trials: int, seed: int, m: float | None = None) -> EmpiricalTail:
    """Monte Carlo tail of N_label(t)/t - m >= gamma.

    The stationary intensity m = tr(L^* L sigma) is computed from the steady
    state unless passed explicitly.
    """
    if m is None:
        m = _stationary_intensity(gen, label, gkls_steady_state(gen))
    counts = counting_counts(gen, rho0, t, trials, seed)
    return _rate_tails(counts[:, gen.index(label)], t, m, [gamma])[0]
