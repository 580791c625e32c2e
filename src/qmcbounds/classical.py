"""Concentration bounds for empirical fluxes of classical Markov chains.

A flux is a time average of a function of the *jumps* (x, y) of a chain
rather than of its states.  The bounds here work directly with the
transition matrix P: the Bernstein flavor uses the spectral gap of the
multiplicative symmetrization Q = P_dagger P (adjoint in l2(sigma)), the
Hoeffding flavor the sup norm of the pseudoresolvent (Id - P)^(-1) on the
centered subspace.  The doubled-up chain on edges is provided as a
diagnostic of why bounds through the enlarged chain degenerate, and the
diagonal quantum embedding (Kraus operators sqrt(p_xy) |y><x|) links every
classical computation to its quantum counterpart for cross-validation.
"""

from __future__ import annotations

import math
from itertools import product
from typing import Hashable, Mapping, Sequence

import numpy as np

from .bounds import BoundConstants, BoundResult, _bernstein_result, _centered, _hoeffding_result
from .operators import KrausChannel
from .spectral import HypothesisError, _certified_sup_norm_chain, _resolvent
from .trajectory import _dp_laws, _lattice_dp, _score_lattice

_VERTEX_LIMIT = 12  # chains of at most this many states take the exact vertex enumeration


class MarkovChain:
    """Finite chain given by a row-stochastic transition matrix."""

    def __init__(self, transition, states: Sequence[Hashable] | None = None):
        p = np.asarray(transition, dtype=float)
        if p.ndim != 2 or p.shape[0] != p.shape[1]:
            raise ValueError(f"transition matrix must be square, got {p.shape}")
        if np.any(p < -1e-12):
            raise ValueError("transition probabilities must be nonnegative")
        rows = p.sum(axis=1)
        if np.max(np.abs(rows - 1.0)) > 1e-12:
            raise ValueError(f"rows must sum to 1, worst deviation {np.max(np.abs(rows-1)):.3e}")
        self.transition = np.clip(p, 0.0, None)
        self.states = tuple(states) if states is not None else tuple(range(p.shape[0]))
        if len(self.states) != p.shape[0]:
            raise ValueError("one state label per row required")
        self.size = p.shape[0]

    def edges(self) -> tuple[tuple, ...]:
        """Positive-probability jumps (x, y), in row-major order."""
        return tuple((self.states[x], self.states[y])
                     for x in range(self.size) for y in range(self.size)
                     if self.transition[x, y] > 0.0)

    def index(self, state) -> int:
        return self.states.index(state)


class FluxFunction:
    """Real value per positive-probability edge of a chain."""

    def __init__(self, values: Mapping):
        self.values = {tuple(k): float(v) for k, v in values.items()}
        if not all(np.isfinite(v) for v in self.values.values()):
            raise ValueError("flux values must be finite")

    def matrix(self, chain: MarkovChain) -> np.ndarray:
        """Edge values as a matrix, zero on non-edges; errors on missing edges."""
        out = np.zeros((chain.size, chain.size))
        for x, y in chain.edges():
            key = (x, y)
            if key not in self.values:
                raise KeyError(f"flux undefined on edge {key}")
            out[chain.index(x), chain.index(y)] = self.values[key]
        return out


def flux_matrix(f, chain: MarkovChain) -> np.ndarray:
    if isinstance(f, FluxFunction):
        return f.matrix(chain)
    return FluxFunction(f).matrix(chain)


def _strongly_connected(mask: np.ndarray) -> bool:
    def reach(adj: np.ndarray) -> np.ndarray:
        seen = np.zeros(adj.shape[0], dtype=bool)
        stack = [0]
        seen[0] = True
        while stack:
            x = stack.pop()
            for y in np.nonzero(adj[x])[0]:
                if not seen[y]:
                    seen[y] = True
                    stack.append(int(y))
        return seen
    return bool(reach(mask).all() and reach(mask.T).all())


def is_chain_irreducible(chain: MarkovChain) -> bool:
    return _strongly_connected(chain.transition > 0.0)


def stationary_distribution(chain: MarkovChain) -> np.ndarray:
    """Unique invariant law sigma P = sigma; errors on a reducible chain."""
    if not is_chain_irreducible(chain):
        raise HypothesisError("chain is reducible: no unique invariant law")
    p = chain.transition
    a = np.vstack([p.T - np.eye(chain.size), np.ones(chain.size)])
    b = np.concatenate([np.zeros(chain.size), [1.0]])
    sigma, *_ = np.linalg.lstsq(a, b, rcond=None)
    sigma = np.clip(sigma, 0.0, None)
    sigma = sigma / sigma.sum()
    residual = float(np.max(np.abs(sigma @ p - sigma)))
    if residual > 1e-12:
        raise HypothesisError(f"stationary solve residual {residual:.3e} exceeds 1e-12")
    return sigma


def stationary_l2_adjoint(chain: MarkovChain, sigma: np.ndarray | None = None) -> np.ndarray:
    """Adjoint of P in l2(sigma): D^(-1) P^T D with D = diag(sigma)."""
    s = stationary_distribution(chain) if sigma is None else np.asarray(sigma, dtype=float)
    return (chain.transition.T * s[None, :]) / s[:, None]


def edge_stationary_law(chain: MarkovChain, sigma: np.ndarray | None = None) -> np.ndarray:
    """pi(x, y) = sigma_x p_xy as a matrix."""
    s = stationary_distribution(chain) if sigma is None else np.asarray(sigma, dtype=float)
    return s[:, None] * chain.transition


def _centered_flux(chain: MarkovChain, f, sigma: np.ndarray) -> tuple[float, float, float]:
    """pi(f), b and c of a flux, centered against the stationary edge law sigma_x p_xy."""
    mask = chain.transition > 0.0
    mean, _, variance, c = _centered(edge_stationary_law(chain, sigma)[mask],
                                     flux_matrix(f, chain)[mask])
    return mean, math.sqrt(variance), c


def flux_bernstein_constants(chain: MarkovChain, nu, f,
                             sigma: np.ndarray | None = None) -> BoundConstants:
    """b, c, N_nu and the gap of Q = P_dagger P in l2(sigma) for a flux f."""
    sigma = stationary_distribution(chain) if sigma is None else sigma
    nu = np.asarray(nu, dtype=float)
    _, b, c = _centered_flux(chain, f, sigma)
    n_nu = math.sqrt(float(np.sum(nu**2 / sigma)))
    q = stationary_l2_adjoint(chain, sigma) @ chain.transition
    q_irreducible = _strongly_connected(q > 1e-15)
    root = np.sqrt(sigma)
    sym = (root[:, None] * q) / root[None, :]
    eigs = np.sort(np.linalg.eigvalsh((sym + sym.T) / 2))
    epsilon = float(1.0 - eigs[-2]) if eigs.size >= 2 else 1.0
    return BoundConstants(b=b, c=c, epsilon=epsilon if q_irreducible else 0.0,
                          n_rho=n_nu, hypothesis_ok=q_irreducible)


def flux_bernstein_bound(constants: BoundConstants, gamma: float, n: int,
                         two_sided: bool = False) -> BoundResult:
    """Bernstein-type flux bound from :func:`flux_bernstein_constants`."""
    return _bernstein_result("flux-bernstein", constants, constants.b * constants.b, gamma, n,
                             two_sided, "deterministic flux (b = 0)",
                             "multiplicative symmetrization of P is reducible")


def flux_bernstein(chain: MarkovChain, nu, f, gamma: float, n: int,
                   two_sided: bool = False) -> BoundResult:
    """Bernstein-type flux bound via the gap of Q = P_dagger P in l2(sigma)."""
    return flux_bernstein_bound(flux_bernstein_constants(chain, nu, f), gamma, n, two_sided)


def _centered_subspace_vertices(sigma: np.ndarray) -> np.ndarray:
    """Extreme points of {h: ||h||_inf <= 1, sigma . h = 0}, |E| small.

    Vertices have all coordinates at +-1 except at most one, fixed by the
    centering constraint.
    """
    e = sigma.size
    vertices = []
    for free in range(e):
        others = [i for i in range(e) if i != free]
        for signs in product((-1.0, 1.0), repeat=e - 1):
            h = np.zeros(e)
            h[others] = signs
            val = -float(sigma[others] @ h[others]) / sigma[free]
            if abs(val) <= 1.0 + 1e-12:
                h[free] = np.clip(val, -1.0, 1.0)
                vertices.append(h)
    return np.asarray(vertices)


def chain_pseudoresolvent_norm(chain: MarkovChain, sigma: np.ndarray | None = None) -> float:
    """Certified || (Id - P)^(-1) ||_inf on {h: sigma(h) = 0}.

    Exact vertex enumeration for chains of at most ``_VERTEX_LIMIT`` states,
    otherwise the same sqrt(|E|) * (2 -> 2) norm-equivalence chain used for
    channels; both take (Id - P_F)^(-1) from ``spectral._resolvent``.
    """
    s = stationary_distribution(chain) if sigma is None else np.asarray(sigma, dtype=float)
    q, p_f, inv_f = _resolvent(chain.transition, s)
    if chain.size <= _VERTEX_LIMIT:
        images = _centered_subspace_vertices(s) @ (q @ inv_f @ q.T).T
        return float(np.max(np.abs(images)))
    return _certified_sup_norm_chain(p_f, inv_f, chain.size)


def flux_hoeffding_constants(chain: MarkovChain, f,
                             sigma: np.ndarray | None = None) -> BoundConstants:
    """b, c and G = (1 + ||(Id-P)^(-1)|F||_inf) c for a flux f."""
    sigma = stationary_distribution(chain) if sigma is None else sigma
    _, b, c = _centered_flux(chain, f, sigma)
    if c == 0.0:
        return BoundConstants(b=0.0, c=0.0, n_rho=1.0)
    return BoundConstants(b=b, c=c, g=(1.0 + chain_pseudoresolvent_norm(chain, sigma)) * c,
                          n_rho=1.0)


def flux_hoeffding_bound(constants: BoundConstants, gamma: float, n: int,
                         two_sided: bool = False) -> BoundResult:
    """Hoeffding-type flux bound from :func:`flux_hoeffding_constants`."""
    return _hoeffding_result("flux-hoeffding", constants, gamma, n, two_sided,
                             "deterministic flux (c = 0)",
                             "chain reducible: Hoeffding constant undefined",
                             "n = 1 and gamma >= 2c: single jump cannot deviate")


def flux_hoeffding(chain: MarkovChain, f, gamma: float, n: int,
                   two_sided: bool = False) -> BoundResult:
    """Hoeffding-type flux bound with G = (1 + ||(Id-P)^(-1)|F||_inf) c."""
    return flux_hoeffding_bound(flux_hoeffding_constants(chain, f), gamma, n, two_sided)


def doubled_chain(chain: MarkovChain) -> MarkovChain:
    """Chain on edges with p_(x,y)(z,w) = delta(y, z) p_yw.

    Inherits irreducibility from P, with invariant law sigma_x p_xy; shipped
    as a diagnostic: its multiplicative symmetrization is degenerate for any
    chain with more than one state, which is why the flux bounds work with P
    itself instead.
    """
    edges = chain.edges()
    p = np.zeros((len(edges), len(edges)))
    for a, (_, y) in enumerate(edges):
        for b, (z, w) in enumerate(edges):
            if y == z:
                p[a, b] = chain.transition[chain.index(z), chain.index(w)]
    return MarkovChain(p, states=edges)


def embed_diagonal(chain: MarkovChain, f) -> tuple[KrausChannel, dict]:
    """Quantum dilation: Kraus sqrt(p_xy) |y><x| per edge, payoff per edge label.

    The output process of the embedded channel started in diag(nu) is the
    edge process of the chain started in nu, so exact tails agree.
    """
    fm = flux_matrix(f, chain)
    ops, labels, payoff = [], [], {}
    for x, y in chain.edges():
        i, j = chain.index(x), chain.index(y)
        v = np.zeros((chain.size, chain.size), dtype=complex)
        v[j, i] = math.sqrt(chain.transition[i, j])
        ops.append(v)
        labels.append((x, y))
        payoff[(x, y)] = float(fm[i, j])
    return KrausChannel(ops, labels), payoff


def _flux_laws(chain: MarkovChain, nu, f, horizons) -> dict:
    """{n: exact law of sum_{k<n} f(X_k, X_{k+1})} at every horizon from one DP pass.

    The DP runs over (state, score) with one tag per state after a start tag
    whose move to y weighs nu_y; a move x -> y weighs p_xy.
    """
    fm = flux_matrix(f, chain)
    mask = chain.transition > 0.0
    nums = np.zeros_like(fm, dtype=np.int64)
    nums[mask], denom = _score_lattice(fm[mask])
    weights = np.vstack([np.asarray(nu, dtype=float), chain.transition])
    next_tag = np.where(weights > 0.0, np.arange(1, chain.size + 1), -1)
    shift = np.vstack([np.zeros(chain.size, dtype=np.int64), nums])
    rows = _lattice_dp(weights[:, :, None, None], next_tag, shift, np.ones(1),
                       [n + 1 for n in horizons])
    return _dp_laws({step: (scores, vecs[:, 0]) for step, (scores, vecs) in rows.items()},
                    denom, 1, float(weights[0].sum()))


def exact_flux_tail(chain: MarkovChain, nu, f, n: int, gamma: float) -> float:
    """Exact P((1/n) sum_k f(X_k, X_{k+1}) >= gamma) by (state, score) DP."""
    return _flux_laws(chain, nu, f, [n])[n].tail(gamma)
