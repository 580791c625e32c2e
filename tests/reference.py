"""Reference computations that share no code with what the tests compare them to.

The DP in ``qmcbounds.trajectory`` and ``qmcbounds.classical`` computes
exact score laws on an integer lattice; these references compute the same
quantities another way:

* a batched enumeration over all |I|^n outcome sequences of a channel;
* the moment generating function of a chain's flux from powers of the tilted
  transition matrix.

The spectral layer factorises real matrices in Hermitian coordinates; the
complex column-stacking computations it replaced are kept here:

* the invariant state from the SVD of M_s - I;
* the restriction q^* M q to F = {tr(sigma x) = 0} in a complex orthonormal
  basis of F, with its resolvent, which are the certified chain's inputs;
* the gap of psi from ``eigvalsh`` of the complex KMS-isometrized psi,
  with psi's matrix from the Gram matrices;
* the heuristic lower estimate on complex matrices;
* the Poisson solution from the complex restriction.

Every map is now the real matrix of a Kraus or generator form in Hermitian
coordinates, KMS-weighted by conjugating its operators.  The routes that
did this another way are kept here too:

* the orthonormal Hermitian basis and the DP's per-operator blocks from
  two einsums over it;
* the real matrix of a form as ``hermitian_coordinate_matrix`` computes it
  inside, from a complex matrix: the Kronecker sum of the form and the
  gather of the Hermitian basis vectors, for the tests that start from a
  complex column-stacking matrix and as the bit-identity reference;
* the GKLS generator's matrix as a sum of Kronecker products, and its
  stationary state from the complex SVD of the predual's matrix;
* the KMS adjoint, the KMS operator norm and the matrix of psi from
  d^2 x d^2 KMS Gram matrices, which the library no longer builds;
* the additive gap, alpha, b and the deformed radius from the same Gram
  matrices, with the dual fixed point from a complex null space;
* the Cesaro limit of 1/d from a sorted complex Schur form and a Sylvester
  solve.

The lattice DP runs on the quotient of its tag and label tables and keeps
one score array per class.  The loop it replaced, one sorted array of keys
``score * tags + tag`` and one GEMM per (tag, label) pair of the tables it
is given, is kept here as ``lattice_dp_unreduced``: on the unreduced tables
it is the DP before the quotient, and on the quotient's tables it is the
step loop the kernel ran before its per-class arrays.

The time-dependent constants are taken over one period of the schedule, with
the power norms of phi on F cut off by a tail bound.  The route they
replaced, the schedule cycled to the horizon, running sums of its ranges and
variances and one power and SVD of phi_F per step, is kept here as
``cycled_time_dependent``, with that power loop as ``power_norms``.  The
running float sum of the variances drifts from its exact value as the
horizon grows, so it also gives the exactly rounded one.

The irreducibility vote's reachability probe runs on the distinct witness
vectors, one stacked SVD per round for the probes of equal width.  The loop
it replaced, one probe after another with one SVD per round, is kept here as
``reachable_dimension``.
"""

import math
from fractions import Fraction
from itertools import accumulate

import numpy as np
import scipy.linalg as sla

from qmcbounds.classical import MarkovChain, flux_matrix
from qmcbounds.operators import (
    GKLSGenerator,
    KrausChannel,
    dagger,
    kms_norm,
    observation_vector,
    state_matrix,
    superoperator_matrix,
    unvec,
    vec,
)
from qmcbounds.spectral import (
    _RANK_TOL,
    TAU_EIG,
    TAU_PSD,
    HypothesisError,
    deformed_channel,
)


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


def lattice_dp_unreduced(maps: np.ndarray, next_tag: np.ndarray, shift: np.ndarray,
                         init: np.ndarray, steps) -> dict:
    """``trajectory._lattice_dp``'s rows from one GEMM per (tag, label) of the tables as given.

    Same contract: label i moves a row of tag t to ``next_tag[t, i]``
    (nowhere if negative), adds ``shift[t, i]`` to its score and
    right-multiplies its weights by ``maps[t, i]``; returns {step: (scores,
    weights)} with the rows sorted by (score, tag).
    """
    n_tags = next_tag.shape[0]
    keys = np.zeros(1, dtype=np.int64)
    vecs = np.asarray(init)[None, :].astype(np.result_type(init, maps))
    out = {0: (keys, vecs)} if 0 in steps else {}
    for step in range(1, max(steps, default=0) + 1):
        scores, tags = np.divmod(keys, n_tags)
        targets = next_tag[tags]
        cand = (scores[:, None] + shift[tags]) * n_tags + targets
        new_keys = np.unique(cand[targets >= 0])
        pos = np.searchsorted(new_keys, cand)
        new = np.zeros((new_keys.size, vecs.shape[1]), dtype=vecs.dtype)
        for t in range(n_tags):
            rows_t = np.flatnonzero(tags == t)
            for i in np.flatnonzero(next_tag[t] >= 0):
                for lo in range(0, rows_t.size, 256):
                    rows = rows_t[lo:lo + 256]
                    new[pos[rows, i]] += vecs[rows] @ maps[t, i]
        keys, vecs = new_keys, new
        if step in steps:
            out[step] = (keys // n_tags, vecs)
    return out


def power_norms(phi_f: np.ndarray, j_max: int) -> list[float]:
    """||phi_f^j||_2, j = 0..j_max, from one matrix power and one SVD per j (1.0 at j = 0)."""
    norms, power = [1.0], np.eye(phi_f.shape[0])
    for _ in range(j_max):
        power = phi_f @ power
        norms.append(float(np.linalg.norm(power, 2)))
    return norms


def cycled_time_dependent(step_stats, phi_f: np.ndarray, dim: int, n_max: int) -> list:
    """(c_n, b_n, exact b_n, G_n) at n = 1..n_max with the period's steps cycled to n_max.

    ``step_stats`` holds (centered payoff, variance, range) per step of the
    period.  c_n and the variance sums S_n are running ``accumulate`` sums over
    the cycled steps, b_n = sqrt(S_n / n), exact b_n takes S_n / n in exact
    rational arithmetic, rounded once, and
    G_n = (1 + sum_{j<=n-2} min(1, sqrt(d) ||phi_F^j||_2)) c_n from every power.
    """
    cycled = [step_stats[k % len(step_stats)] for k in range(n_max)]
    _, variances, ranges = zip(*cycled)
    c = list(accumulate(ranges, max, initial=0.0))[1:]
    var_sums = list(accumulate(variances, initial=0.0))[1:]
    exact_sums = list(accumulate(map(Fraction, variances)))
    root_d = float(np.sqrt(dim))
    terms = [min(1.0, root_d * x) for x in power_norms(phi_f, max(n_max - 2, 0))]
    heads = list(accumulate(terms, initial=0))  # heads[m] == sum(terms[:m])
    return [(c[n - 1], math.sqrt(var_sums[n - 1] / n), math.sqrt(float(exact_sums[n - 1] / n)),
             (1.0 + heads[n - 1]) * c[n - 1]) for n in range(1, n_max + 1)]


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


def reachable_dimension(kraus: tuple[np.ndarray, ...], v: np.ndarray) -> int:
    """Dimension of span{V_in ... V_i1 v} grown until stable, one SVD per round."""
    d = v.shape[0]
    basis = v[:, None] / np.linalg.norm(v)
    for _ in range(d):
        stacked = np.hstack([basis] + [k @ basis for k in kraus])
        u, s, _ = np.linalg.svd(stacked, full_matrices=False)
        grown = u[:, s > _RANK_TOL * max(float(s[0]), 1.0)]
        if grown.shape[1] == basis.shape[1]:
            break
        basis = grown
        if basis.shape[1] == d:
            break
    return basis.shape[1]


def hermitize(x: np.ndarray) -> np.ndarray:
    return (x + x.conj().swapaxes(-1, -2)) / 2


def complex_invariant_state(channel: KrausChannel) -> np.ndarray:
    """The fixed state from the null vector of the complex M_s - I, at unit trace."""
    m_s = superoperator_matrix(channel).matrix.conj().T
    _, _, vh = np.linalg.svd(m_s - np.eye(m_s.shape[0]))
    x = hermitize(unvec(vh[-1].conj(), channel.dim))
    return x / float(np.trace(x).real)


def complex_resolvent(channel: KrausChannel, sigma) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(q, phi_F, (Id - phi_F)^(-1)) with q a complex orthonormal basis of F."""
    q = sla.null_space(vec(state_matrix(sigma)).conj()[None, :])
    phi_f = q.conj().T @ superoperator_matrix(channel).matrix @ q
    eye_f = np.eye(phi_f.shape[0])
    return q, phi_f, np.linalg.solve(eye_f - phi_f, eye_f)


def kms_weight_matrix(sigma, power: float = 1.0) -> np.ndarray:
    """Vectorized Gram matrix of the KMS product: kron(conj(sigma^p/2), sigma^p/2)."""
    w, u = np.linalg.eigh(hermitize(state_matrix(sigma)))
    half = (u * w ** (power / 2.0)) @ u.conj().T
    return np.kron(half.conj(), half)


def kms_isometrized_matrix(m: np.ndarray, sigma) -> np.ndarray:
    """W^(1/2) M W^(-1/2) of a column-stacking matrix M; Hermitian iff M is KMS-selfadjoint."""
    return kms_weight_matrix(sigma, 0.5) @ m @ kms_weight_matrix(sigma, -0.5)


def gram_kms_adjoint(m: np.ndarray, sigma) -> np.ndarray:
    """W^(-1) M^* W, the matrix of the KMS adjoint of the map with matrix M."""
    return kms_weight_matrix(sigma, -1.0) @ m.conj().T @ kms_weight_matrix(sigma)


def gram_kms_operator_norm(m: np.ndarray, sigma) -> float:
    """KMS operator norm of the map with matrix M: the top singular value of W^(1/2) M W^(-1/2)."""
    return float(np.linalg.norm(kms_isometrized_matrix(m, sigma), 2))


def gram_psi_matrix(channel: KrausChannel, sigma) -> np.ndarray:
    """The matrix of psi = phi_dagger phi, the KMS adjoint through the Gram matrices."""
    m = superoperator_matrix(channel).matrix
    return gram_kms_adjoint(m, sigma) @ m


def complex_psi_gap(channel: KrausChannel, sigma) -> float:
    """1 - lambda_2 from eigvalsh of the complex KMS-isometrized psi."""
    iso = kms_isometrized_matrix(gram_psi_matrix(channel, sigma), sigma)
    eigs = np.clip(np.sort(np.linalg.eigvalsh(hermitize(iso))), 0.0, None)
    return float(1.0 - eigs[-2])


def complex_lower_estimate(s: np.ndarray, n_full: np.ndarray, restarts: int,
                           iterations: int, seed: int) -> float:
    """The heuristic lower estimate on complex d x d matrices, n_full in vec form."""
    d = s.shape[0]
    n_adjoint = n_full.conj().T

    def center(x):
        return x - (np.trace(s @ x, axis1=1, axis2=2) / np.trace(s))[:, None, None] * np.eye(d)

    def apply(m, x):
        return unvec(np.matmul(m, vec(x)[..., None])[..., 0], d)

    def sup_norms(x):
        return np.linalg.svd(x, compute_uv=False)[:, 0]

    def ratio(x, image):
        nx = sup_norms(x)
        return float(np.max(np.where(nx < 1e-14, 0.0, sup_norms(image) / np.maximum(nx, 1e-14))))

    def sign_matrix(g):
        w, u = np.linalg.eigh(hermitize(g))
        return (u * np.where(w >= 0.0, 1.0, -1.0)[..., None, :]) @ u.conj().swapaxes(-1, -2)

    z = np.random.default_rng(seed).standard_normal((restarts, 2, d, d))
    x = center(hermitize(z[:, 0] + 1j * z[:, 1]))
    active, rows, best = np.ones(restarts, dtype=bool), np.arange(restarts), 0.0
    for _ in range(iterations):
        image = apply(n_full, x)
        best = max(best, ratio(x, image))
        w, u = np.linalg.eigh(hermitize(image))
        k = np.argmax(np.abs(w), axis=1)
        top = u[rows, :, k]
        lead = top[:, :, None] * top.conj()[:, None, :] * np.sign(w[rows, k])[:, None, None]
        x_new = center(sign_matrix(hermitize(apply(n_adjoint, lead))))
        active &= ~(sup_norms(x_new - x) < 1e-12)
        if not active.any():
            break
        x = np.where(active[:, None, None], x_new, x)
    return max(best, ratio(x, apply(n_full, x)))


def complex_poisson_solve(channel: KrausChannel, f: np.ndarray, sigma) -> np.ndarray:
    """The centered solution of (Id - phi)(A) = F for a Hermitian centered F."""
    q, phi_f, _ = complex_resolvent(channel, sigma)
    z = np.linalg.solve(np.eye(phi_f.shape[0]) - phi_f, q.conj().T @ vec(f))
    return hermitize(unvec(q @ z, channel.dim))


def hermitian_basis(d: int) -> np.ndarray:
    """(d^2, d, d) orthonormal basis of the Hermitian matrices, the d diagonal units first.

    E_pp, then (E_pq + E_qp) / sqrt(2), then i (E_qp - E_pq) / sqrt(2), for
    the pairs p < q in row-major order.
    """
    e = np.eye(d * d, dtype=complex).reshape(d, d, d, d)  # e[p, q] is the unit E_pq
    pairs = [(p, q) for p in range(d) for q in range(p + 1, d)]
    return np.stack([e[p, p] for p in range(d)]
                    + [(e[p, q] + e[q, p]) * math.sqrt(0.5) for p, q in pairs]
                    + [(e[q, p] - e[p, q]) * 1j * math.sqrt(0.5) for p, q in pairs])


def einsum_blocks(channel: KrausChannel) -> np.ndarray:
    """The DP's real blocks K[i, b, c] = tr(B_c V_i B_b V_i^*), from two einsums."""
    basis = hermitian_basis(channel.dim)
    images = np.einsum("ipq,bqr,isr->ibps", channel._stack, basis, channel._stack.conj())
    return np.einsum("cqp,ibpq->ibc", basis, images).real


def kron_sum(ops, g=None) -> np.ndarray:
    """Heisenberg matrix of sum_i V_i^* x V_i, plus G^* x + x G when ``g`` is given."""
    m = sum(np.kron(v.T, v.conj().T) for v in ops)
    if g is None:
        return m
    eye = np.eye(g.shape[0])
    return np.kron(eye, g.conj().T) + np.kron(g.T, eye) + m


def _basis_gather(v: np.ndarray, d: int, sign: complex) -> np.ndarray:
    """U^* v (``sign`` = -1j) or U^T v (``sign`` = 1j) along the last axis, U the vec(B_b) columns.

    B_b runs over :func:`hermitian_basis`; each column of U has at most two
    entries, sqrt(1/2) or (for the diagonal units) 1.
    """
    s = math.sqrt(0.5)
    pairs = [(p, q) for p in range(d) for q in range(p + 1, d)]
    upper = v[..., [q * d + p for p, q in pairs]]  # vec index of E_pq
    lower = v[..., [p * d + q for p, q in pairs]]  # vec index of E_qp
    return np.concatenate([v[..., [p * (d + 1) for p in range(d)]], s * upper + s * lower,
                           sign * (s * lower - s * upper)], axis=-1)


def coordinate_matrix(m: np.ndarray) -> np.ndarray:
    """The real part of U^* m U for a complex column-stacking d^2 x d^2 matrix m."""
    d = math.isqrt(m.shape[0])
    return _basis_gather(_basis_gather(m, d, 1j).T, d, -1j).T.real


def kron_generator_matrix(gen: GKLSGenerator) -> np.ndarray:
    """Heisenberg matrix of a GKLS generator, term by term from its Hamiltonian and jumps."""
    d = gen.dim
    eye = np.eye(d)
    h = gen.hamiltonian
    m = -1j * (np.kron(eye, h) - np.kron(h.T, eye))
    for l in gen.jumps:
        ll = dagger(l) @ l
        m = m + np.kron(l.T, l.conj().T) - 0.5 * (np.kron(eye, ll) + np.kron(ll.T, eye))
    return m


def _null_space(m: np.ndarray) -> np.ndarray:
    """Orthonormal basis of ker(m), singular values below 1e-10 * max(s_max, 1)."""
    u, s, vh = np.linalg.svd(m)
    rank = int(np.sum(s > 1e-10 * max(s[0], 1.0)))
    return vh[rank:].conj().T


def complex_steady_state(gen: GKLSGenerator) -> np.ndarray:
    """The stationary state from the null vector of the complex predual generator, at unit trace."""
    basis = _null_space(kron_generator_matrix(gen).conj().T)
    assert basis.shape[1] == 1
    x = hermitize(unvec(basis[:, 0], gen.dim))
    return x / float(np.trace(x).real)


def _kms_real_part(m: np.ndarray, sigma) -> np.ndarray:
    """(M + M_dagger) / 2, the adjoint taken in the KMS product through its Gram matrices."""
    return (m + gram_kms_adjoint(m, sigma)) / 2


def gram_additive_gap(gen: GKLSGenerator, sigma) -> tuple[float, int, bool]:
    """(epsilon, multiplicity, irreducible) of (L + L_dagger) / 2 through the Gram matrices.

    epsilon is minus the second eigenvalue, whatever the verdict.
    """
    a = _kms_real_part(kron_generator_matrix(gen), sigma)
    eigs = np.sort(np.linalg.eigvalsh(hermitize(kms_isometrized_matrix(a, sigma))))
    top = eigs[-1]
    multiplicity = int(np.sum(np.abs(eigs - top) <= TAU_EIG))
    basis = _null_space(a.conj().T - top * np.eye(a.shape[0]))
    faithful = False
    if basis.shape[1] == 1:
        x = hermitize(unvec(basis[:, 0], gen.dim))
        tr = float(np.trace(x).real)
        faithful = abs(tr) >= 1e-12 and float(np.min(np.linalg.eigvalsh(x / tr))) > TAU_PSD
    return float(-eigs[-2]), multiplicity, multiplicity == 1 and faithful


def gram_counting_constants(gen: GKLSGenerator, label, sigma) -> tuple[float, float]:
    """(b, alpha) of one detector from the KMS real part of its jump map."""
    jump = KrausChannel([gen.jumps[gen.index(label)]], expect_channel=False)
    b_op = _kms_real_part(superoperator_matrix(jump).matrix, sigma)
    return (kms_norm(unvec(b_op @ vec(np.eye(gen.dim)), gen.dim), sigma),
            gram_kms_operator_norm(b_op, sigma))


def gram_deformed_radius(channel: KrausChannel, f, u: float, sigma) -> float:
    """Spectral radius of M_u_dagger M_u, the KMS adjoint through the Gram matrices."""
    m_u = superoperator_matrix(deformed_channel(channel, f, u)).matrix
    return float(np.max(np.abs(np.linalg.eigvals(gram_kms_adjoint(m_u, sigma) @ m_u))))


def schur_fixed_point(channel: KrausChannel) -> np.ndarray:
    """The Cesaro limit of 1/d from the spectral projector at 1, by Schur form and Sylvester.

    Raises ``HypothesisError`` when the limit is not faithful.
    """
    m = superoperator_matrix(channel).matrix.conj().T
    t, z, sdim = sla.schur(m, output="complex", sort=lambda lam: abs(lam - 1.0) < 1e-8)
    if sdim == 0:
        raise HypothesisError("no eigenvalue 1: map is not trace preserving")
    p1 = np.eye(m.shape[0], dtype=complex)
    if sdim < m.shape[0]:
        t11, t12, t22 = t[:sdim, :sdim], t[:sdim, sdim:], t[sdim:, sdim:]
        p_t = np.zeros_like(m)
        p_t[:sdim, :sdim] = np.eye(sdim)
        p_t[:sdim, sdim:] = sla.solve_sylvester(t11, -t22, t12)
        p1 = z @ p_t @ z.conj().T
    x = hermitize(unvec(p1 @ vec(np.eye(channel.dim) / channel.dim), channel.dim))
    tr = float(np.trace(x).real)
    if abs(tr) < 1e-12 or float(np.min(np.linalg.eigvalsh(x / tr))) <= TAU_PSD:
        raise HypothesisError("positive recurrence fails")
    return x / tr
