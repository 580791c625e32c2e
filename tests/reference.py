"""Reference oracles for the lattice DP, sharing no code with its kernel.

The DP in ``qmcbounds.trajectory`` and ``qmcbounds.classical`` computes
exact score laws on an integer lattice; these references compute the same
quantities another way, so the tests compare against them:

* a batched enumeration over all |I|^n outcome sequences of a channel;
* the moment generating function of a chain's flux from powers of the tilted
  transition matrix.
"""

import numpy as np

from qmcbounds.classical import MarkovChain, flux_matrix
from qmcbounds.operators import KrausChannel, dagger, observation_vector, state_matrix


def enumeration_batches(channel: KrausChannel, rho0, nums: np.ndarray, n: int,
                        budget: int = 2**18):
    """(scores, masses) of all |I|^n outcome sequences, one batch per prefix.

    ``nums`` holds each label's score, integer or real.  Prefixes are
    walked depth first; the last L levels are one batched stack of the k^L
    products V_{i_L} ... V_{i_1}, with k^L d^2 <= ``budget``.
    """
    stack = np.stack(channel.kraus)
    k, d = stack.shape[0], channel.dim
    levels = 0
    while levels < n and k ** (levels + 1) * d * d <= budget:
        levels += 1
    words = np.eye(d, dtype=complex)[None]
    word_scores = np.zeros(1, dtype=nums.dtype)
    for _ in range(levels):
        words = np.matmul(stack[:, None], words[None]).reshape(-1, d, d)
        word_scores = (nums[:, None] + word_scores[None, :]).reshape(-1)

    def walk(depth: int, score, op: np.ndarray):
        if depth == n - levels:
            yield score + word_scores, np.einsum("wpq,wpq->w", words @ op, words.conj()).real
            return
        for num, v in zip(nums, channel.kraus):
            yield from walk(depth + 1, score + num, v @ op @ dagger(v))

    yield from walk(0, 0, state_matrix(rho0).astype(complex))


def exact_tail_enumeration(channel: KrausChannel, rho0, f, n: int, gamma: float) -> float:
    """P((1/n) sum_k f(X_k) >= gamma) over all |I|^n outcome sequences.

    Scores are summed as real numbers, so a payoff off the DP's rational
    lattice (a ``LatticeError`` there) is handled here.
    """
    if len(channel.kraus) ** n > 2**24:
        raise ValueError("enumeration limited to |I|^n <= 2^24")
    fv = observation_vector(f, channel.labels)
    return float(sum(masses[scores >= gamma * n - 1e-9].sum()
                     for scores, masses in enumeration_batches(channel, rho0, fv, n)))


def deformed_transition(chain: MarkovChain, f, u: float) -> np.ndarray:
    """Tilted matrix (p_xy exp(u f(x,y))); its powers give the flux MGF."""
    fm = flux_matrix(f, chain)
    return chain.transition * np.exp(u * fm)


def flux_mgf(chain: MarkovChain, nu, f, n: int, u: float) -> float:
    """E_nu[exp(u sum_{k<=n} f(X_k, X_{k+1}))] = nu P_u^n 1."""
    p_u = deformed_transition(chain, f, u)
    vec_ = np.ones(chain.size)
    for _ in range(n):
        vec_ = p_u @ vec_
    return float(np.asarray(nu, dtype=float) @ vec_)
