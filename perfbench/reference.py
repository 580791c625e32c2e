"""Reference values computed apart from qmcbounds.

Every function here works from raw model-file JSON or plain arrays with
its own numpy code, so a check built on it does not share an algorithm
with the program it checks.  Vectorization is column stacking:
vec(V rho V^*) = kron(conj(V), V) vec(rho).
"""

from __future__ import annotations

import json
import math

import numpy as np


def read_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def kraus_from_doc(doc: dict) -> list[np.ndarray]:
    """Kraus matrices of a ``"kind": "kraus"`` document ([re, im] entries)."""
    return [np.asarray([[complex(re, im) for re, im in row] for row in m])
            for m in doc["kraus"]]


def matrix_from_doc(rows) -> np.ndarray:
    return np.asarray([[complex(re, im) for re, im in row] for row in rows])


def transfer_matrix(kraus, weights=None) -> np.ndarray:
    """sum_i w_i kron(conj(V_i), V_i): the Schrodinger map on vec(rho)."""
    if weights is None:
        weights = np.ones(len(kraus))
    return sum(w * np.kron(v.conj(), v) for w, v in zip(weights, kraus))


def stationary_state(kraus) -> np.ndarray:
    """Fixed state of rho -> sum_i V_i rho V_i^*, from the eigenvalue nearest 1."""
    d = kraus[0].shape[0]
    w, vecs = np.linalg.eig(transfer_matrix(kraus))
    rho = vecs[:, int(np.argmin(np.abs(w - 1.0)))].reshape(d, d, order="F")
    rho = rho / np.trace(rho)
    return 0.5 * (rho + rho.conj().T)


def fixed_space_dimension(kraus, tol: float = 1e-8) -> int:
    """Multiplicity of the eigenvalue 1 of the Schrodinger map; one per block
    when the invariant blocks are mutually inequivalent."""
    w = np.linalg.eigvals(transfer_matrix(kraus))
    return int(np.sum(np.abs(w - 1.0) < tol))


def outcome_law(kraus, rho) -> np.ndarray:
    """P(i) = tr(V_i rho V_i^*)."""
    return np.asarray([float(np.trace(v @ rho @ v.conj().T).real) for v in kraus])


def payoff_moments(kraus, payoff) -> tuple[float, float]:
    """(b, c) of a payoff centred against the stationary outcome law."""
    pi = outcome_law(kraus, stationary_state(kraus))
    centred = np.asarray(payoff, dtype=float) - float(pi @ payoff)
    return float(np.sqrt(pi @ centred**2)), float(np.max(np.abs(centred)))


def class_probability(kraus, members) -> float:
    """p with sum_{i in members} V_i^* V_i = p 1; the class then occurs i.i.d."""
    d = kraus[0].shape[0]
    effect = sum(kraus[i].conj().T @ kraus[i] for i in members)
    p = float(np.trace(effect).real) / d
    if np.max(np.abs(effect - p * np.eye(d))) > 1e-12:
        raise ValueError("outcome class effect is not a multiple of the identity")
    return p


def tilted_log_laplace(kraus, payoff, rho0, n: int, u: float) -> float:
    """log E[exp(u sum_k f(X_k))] from the n-th power of the tilted transfer matrix."""
    d = rho0.shape[0]
    tilted = transfer_matrix(kraus, np.exp(u * np.asarray(payoff, dtype=float)))
    v = rho0.reshape(-1, order="F").astype(complex)
    log_scale = 0.0
    for _ in range(n):
        v = tilted @ v
        norm = float(np.max(np.abs(v)))
        v = v / norm
        log_scale += math.log(norm)
    return log_scale + math.log(float(v[:: d + 1].sum().real))


def binomial_upper_tail(n: int, p: float, k_min: int) -> float:
    """P(K >= k_min) for K ~ Binomial(n, p), 0 < p < 1."""
    if k_min <= 0:
        return 1.0
    if k_min > n:
        return 0.0
    logs = [math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
            + k * math.log(p) + (n - k) * math.log1p(-p) for k in range(k_min, n + 1)]
    top = max(logs)
    return math.exp(top) * sum(math.exp(x - top) for x in logs)


def plus_minus_tail(n: int, p: float, gamma: float) -> float:
    """P(mean of n i.i.d. +-1 steps >= gamma) with P(+1) = p.

    The 1e-9 slack matches the lattice comparison of an exact tail, so a
    threshold that falls on a lattice point is counted the same way.
    """
    return binomial_upper_tail(n, p, math.ceil((n * (1.0 + gamma) - 1e-9) / 2.0))


def poisson_upper_tail(lam: float, k_min: int) -> float:
    """P(N >= k_min) for N ~ Poisson(lam)."""
    if k_min <= 0:
        return 1.0
    k_max = int(k_min + lam + 40.0 * math.sqrt(lam + 1.0) + 40)
    logs = [-lam + k * math.log(lam) - math.lgamma(k + 1) for k in range(k_min, k_max)]
    top = max(logs)
    return math.exp(top) * sum(math.exp(x - top) for x in logs)


def integer_score_law(kraus, payoff, rho0, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact law of sum_k f(X_k) for an integer payoff, as dense (scores, masses).

    Carries one unnormalized operator per score in a (S, d, d) array.
    """
    f = [int(v) for v in payoff]
    if any(float(a) != b for a, b in zip(f, payoff)):
        raise ValueError("integer payoff required")
    lo, hi = min(0, min(f)) * n, max(0, max(f)) * n
    d = rho0.shape[0]
    ops = np.zeros((hi - lo + 1, d, d), dtype=complex)
    ops[-lo] = rho0
    for _ in range(n):
        new = np.zeros_like(ops)
        for v, shift in zip(kraus, f):
            moved = v @ ops @ v.conj().T
            if shift >= 0:
                new[shift:] += moved[:len(ops) - shift]
            else:
                new[:shift] += moved[-shift:]
        ops = new
    masses = np.einsum("spp->s", ops).real
    return np.arange(lo, hi + 1), masses


def flux_tail(transition, flux, nu, n: int, threshold: float) -> float:
    """P(sum over n transitions of an integer flux >= threshold) by (state, count) DP."""
    p = np.asarray(transition, dtype=float)
    fl = np.asarray(flux, dtype=int)
    size = p.shape[0]
    span = int(fl.max()) * n + 1
    mass = np.zeros((size, span))
    mass[:, 0] = nu
    for _ in range(n):
        new = np.zeros_like(mass)
        for x in range(size):
            for y in range(size):
                s = fl[x, y]
                new[y, s:] += p[x, y] * mass[x, :span - s]
        mass = new
    counts = np.arange(span)
    return float(mass[:, counts >= threshold - 1e-9].sum())


def chain_stationary(transition) -> np.ndarray:
    w, vecs = np.linalg.eig(np.asarray(transition, dtype=float).T)
    nu = np.abs(vecs[:, int(np.argmin(np.abs(w - 1.0)))].real)
    return nu / nu.sum()


def adjacent_pair_law(p: float, n: int) -> np.ndarray:
    """Law of #{k <= n : U_k = U_{k+1} = 1} for i.i.d. Bernoulli(p) U_1..U_{n+1}."""
    # mass[last, count]
    mass = np.zeros((2, n + 1))
    mass[1, 0], mass[0, 0] = p, 1.0 - p
    for _ in range(n):
        new = np.zeros_like(mass)
        new[0] += (1.0 - p) * (mass[0] + mass[1])
        new[1] += p * mass[0]
        new[1, 1:] += p * mass[1, :-1]
        mass = new
    return mass.sum(axis=0)


def driven_qubit_intensity(omega: float, kappa: float) -> float:
    """Stationary click rate kappa omega^2 / (kappa^2 + 2 omega^2) of H = omega/2 sx, L = sqrt(kappa) s-."""
    return kappa * omega**2 / (kappa**2 + 2.0 * omega**2)
