"""Spectral analysis of quantum channels and continuous-time generators.

Invariant states, irreducibility and primitivity diagnostics, spectral gaps
of the multiplicative symmetrization ``psi = phi_dagger phi`` and of the
additive symmetrization of a GKLS generator, the Poisson equation on the
centered subspace, certified pseudoresolvent norms, tilted transition
operators, and the decomposition of a positive-recurrent channel into
irreducible invariant blocks.

A channel's irreducibility is decided by one two-method vote,
:func:`is_irreducible`: the eigenstructure criterion (the eigenvalue at the
spectral radius is algebraically simple and the dual fixed point is a
faithful state) cross-checked against reachability of the full space by
Kraus-operator products.  Reachability is probed from random starting
vectors plus witness vectors drawn from the supports of fixed points, so
the two checks agree except under genuine numerical trouble, which is
surfaced as an error instead of silently resolved.  The two
symmetrizations take no vote: each is irreducible when the top of the
symmetric spectrum that gives its gap is simple.

The dense d^2 x d^2 factorisations of a Kraus channel run in real
arithmetic.  Every map here preserves Hermiticity (phi, psi, the KMS
weights and (Id - phi)^(-1) on F), so its matrix R in Hermitian
coordinates is real and unitarily similar to the complex one
(:func:`operators.hermitian_coordinate_matrix`): the same eigenvalues and
singular values, with the predual's matrix R^T.  F = {tr(sigma x) = 0} is
the complexification of its Hermitian part, so a restriction to F is a
real matrix too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .operators import (
    TAU_IDENTITY,
    TAU_PSD,
    DensityMatrix,
    KrausChannel,
    GKLSGenerator,
    as_complex_matrix,
    from_hermitian_coordinates,
    hermitian_coordinate_matrix,
    hermitian_coordinates,
    is_selfadjoint,
    kms_adjoint,
    kms_conjugated,
    observation_vector,
    state_matrix,
    superoperator_matrix,
    uniform_norm,
    unvec,
)

TAU_EIG = 1e-8   # eigenvalue-cluster resolution for simplicity checks
TAU_PER = 1e-8   # peripheral-spectrum resolution
TAU_DEC = 1e-8   # invariant-subspace commutation / eigenvalue grouping
_RANK_TOL = 1e-10        # relative singular-value cut of the reachability probe
_PROBE_ENTRIES = 1 << 20  # entries of one stacked probe SVD's input, at most (16 MB)
_SVD_BAND = (1e-10, 1e-4)  # singular values of R^T - I here leave the vote to the eigensolve
_MAX_TERMS = 32          # terms of the certified pseudoresolvent chain
_MARGIN = 1e-10          # relative margin of a chain norm's power-iteration lower bound
_POWER_STEPS = 5         # power-iteration steps per lower bound
_SVD_BELOW = 32          # chain matrices with fewer rows take every norm by SVD (measured)
_ASCENT_ITERATIONS = 8   # projected-ascent steps of the heuristic lower estimate
_INVERSE_SOLVES = 3      # shifted-inverse-iteration solves per top eigenvector of the ascent
_SHIFT = 1e-10           # relative distance of their shift beyond the extreme eigenvalue


class HypothesisError(RuntimeError):
    """A spectral hypothesis required by a bound fails for this model."""


class FixedSpaceError(RuntimeError):
    """The fixed space is not one-dimensional; carries the observed dimension."""

    def __init__(self, dimension: int, message: str | None = None):
        self.dimension = dimension
        super().__init__(message or f"fixed space dimension {dimension}")


class InconclusiveIrreducibilityError(RuntimeError):
    """Eigenstructure and reachability votes disagree beyond tolerance."""


# ---------------------------------------------------------------------------
# invariant states and irreducibility
# ---------------------------------------------------------------------------

def _singular_null_space(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Singular values of m and the orthonormal bases of ker(m) and ker(m^*) they cut.

    The bases span the right and the left singular vectors whose singular
    values lie at or below 1e-10 * max(s_max, 1); only those rows of V and
    columns of U are kept.
    """
    u, s, vh = np.linalg.svd(m)
    cut = 1e-10 * max(s[0], 1.0) if s.size else 0.0
    rank = int(np.sum(s > cut))
    return s, vh[rank:].conj().T, u[:, rank:]


def _null_space(m: np.ndarray) -> np.ndarray:
    """Orthonormal basis of ker(m), singular values below 1e-10 * max(s_max, 1)."""
    return _singular_null_space(m)[1]


def _heisenberg_matrix(channel: KrausChannel) -> np.ndarray:
    """The channel's real Heisenberg matrix R, built once per channel object, read only."""
    if channel._matrix is None:
        channel._matrix = hermitian_coordinate_matrix(channel.kraus)
        channel._matrix.setflags(write=False)
    return channel._matrix


def _proves_psd(b: np.ndarray, formed: float) -> bool:
    """Whether a Cholesky proves lambda_min(b) > ``formed`` (the caller's rounding of b, 2-norm).

    A completed Cholesky of C (order n, any summation order) gives G^T G = C + D, |D| <= g |G^T||G|,
    g = gamma_(n+1) (Higham, *Accuracy and Stability of Numerical Algorithms*, 2002, Thm 10.3);
    || |G^T||G| ||_2 <= tr(G^T G), so lambda_min(C) > -g tr(C) / (1 - g) (Rump, BIT 46, 2006).
    C = fl(b - cI), c = 2 g sum|b_ii| + formed, has tr(C) <= sum|b_ii| and a diagonal rounded by
    u |b_ii - c|: the 2 covers both, so lambda_min(b) > formed.
    """
    n, unit = b.shape[0], np.finfo(float).eps / 2
    shift = 2 * (n + 1) * unit / (1 - (n + 1) * unit) * float(np.abs(np.diagonal(b)).sum())
    try:
        np.linalg.cholesky(b - (shift + formed) * np.eye(n))
    except np.linalg.LinAlgError:
        return False
    return True


def _proved_fixed_point(m: np.ndarray) -> np.ndarray | None:
    """s spanning ker(m), m = R^T - I, where that kernel is proved separated; else None.

    e, the coordinates of 1, has e^T m = 0 on a trace-preserving channel, so one LU of
    (m + e e^T) s = e gives m s = 0 and tr(s) = e . s = 1.  Proved: sigma_n(m) <= ||m s|| / ||s||
    < ``_SVD_BAND[0]`` (gamma_n ||m||_F ||s|| for the product, doubled for the norms as ||m||_F >
    tau), and sigma_(n-1)(m) > tau = ``_SVD_BAND[1]``: the Householder reflection of v = e +
    sqrt(d) e_1 has the other columns Q, so sigma_(n-1)(m) >= sigma_(n-1)(a), a = Q^T m
    (interlacing), > tau where :func:`_proves_psd` proves a a^T - tau^2 I > 0, with ``formed``
    2 n u ||a||_F^2 (product, shift) plus (2 tau + r) r (a's error r = 8 (n + 4) u ||m||_F).
    """
    n, d = m.shape[0], math.isqrt(m.shape[0])
    e = hermitian_coordinates(np.eye(d))
    try:
        s = np.linalg.solve(m + np.outer(e, e), e)
    except np.linalg.LinAlgError:
        return None
    eps, frob, size = np.finfo(float).eps, float(np.linalg.norm(m)), float(np.linalg.norm(s))
    if not np.linalg.norm(m @ s) + n * eps * frob * size < _SVD_BAND[0] * size:
        return None
    v = e + math.sqrt(d) * (np.arange(n) == 0)
    a = (m - np.outer(v, (2 / (v @ v)) * (v @ m)))[1:]
    tau, r = _SVD_BAND[1], 4 * (n + 4) * eps * frob
    b = a @ a.T - tau**2 * np.eye(n - 1)
    return s if _proves_psd(b, n * eps * float(np.sum(a * a)) + (2 * tau + r) * r) else None


def _fixed_space(channel: KrausChannel) -> tuple[int | None, np.ndarray, np.ndarray]:
    """(multiplicity of 1 or None, fixed states, fixed observables) of R^T - I, as coordinates.

    Each basis is a real d^2 x m array, its columns the Hermitian coordinates of m fixed points.
    R (:func:`_heisenberg_matrix`) is the channel's real Heisenberg matrix and R^T its
    predual's, similar to M_s: the same singular values, and null spaces of Hermitian matrices
    whose complexifications are ker(M_s - I) and ker(M_h - I).  Within ``TAU_IDENTITY`` of trace
    preservation :func:`_proved_fixed_point` comes first: where it proves the kernel, the bases
    are its s and 1 / sqrt(d) (phi(1) = 1), the multiplicity is 1, and no SVD is taken.
    Else one SVD's singular vectors at the cut span them and the multiplicity counts singular
    values at or below ``TAU_EIG``; None off trace preservation or with one in ``_SVD_BAND``,
    where a rounding-sized shift moves null vectors by up to u / s (a fixed point's least
    eigenvalue across ``TAU_PSD``; an eigenvalue near 1 and a singular value near 0 across
    ``TAU_EIG``).  Memoized: :func:`invariant_state`, the vote, the Cesaro limit and the split.
    """
    if channel._fixed_space is None:
        d, tight = channel.dim, channel.channel_deviation <= TAU_IDENTITY
        m = _heisenberg_matrix(channel).T - np.eye(d * d)
        state = _proved_fixed_point(m) if tight else None
        if state is None:
            singular, states, observables = _singular_null_space(m)
            band = np.any((singular > _SVD_BAND[0]) & (singular <= _SVD_BAND[1]))
            multiplicity = int(np.sum(singular <= TAU_EIG)) if tight and not band else None
        else:
            multiplicity, states = 1, state[:, None]
            observables = hermitian_coordinates(np.eye(d))[:, None] / math.sqrt(d)
        channel._fixed_space = (multiplicity, states, observables)
    return channel._fixed_space


def _hermitize(x: np.ndarray) -> np.ndarray:
    """(x + x^*) / 2 of a matrix or of each matrix of a stack."""
    return (x + x.conj().swapaxes(-1, -2)) / 2


def _trace_normalized(x: np.ndarray) -> np.ndarray | None:
    """The Hermitian part of the matrix x at unit trace; None when |trace| < 1e-12."""
    tr = float(np.trace(x).real)  # the Hermitian part's trace, bit for bit
    return None if abs(tr) < 1e-12 else _hermitize(x) / tr


def invariant_state(channel: KrausChannel) -> DensityMatrix:
    """Unique fixed state of the predual action, phi_*(sigma) = sigma.

    The fixed space is the null space of R^T - I, R^T the predual's real
    matrix in Hermitian coordinates, as :func:`_fixed_space` keeps it (one
    bordered solve where proved, else one SVD; sigma from its one column of
    coordinates).  For a trace-preserving channel the spectral radius is 1 and the peripheral
    eigenvalues are semisimple (M. M. Wolf, *Quantum Channels & Operations:
    Guided Tour*, 2012, Prop. 6.2), so that null space is the whole
    eigenspace at the radius, and :func:`is_irreducible` of the same channel
    reads its dual fixed basis and its multiplicity from the same fixed
    space unless a singular value lies in ``_SVD_BAND``.

    Raises :class:`FixedSpaceError` when the fixed space of the predual has
    dimension != 1 (singular values cut at 1e-10 * max(s_max, 1)).
    Faithfulness is *not* enforced here; check it with
    ``DensityMatrix.is_faithful``.
    """
    basis = _fixed_space(channel)[1]
    if basis.shape[1] != 1:
        raise FixedSpaceError(basis.shape[1])
    sigma = _trace_normalized(from_hermitian_coordinates(basis[:, 0], channel.dim))
    if sigma is None:
        raise FixedSpaceError(1, "fixed point has vanishing trace; eigenproblem defective")
    residual = float(np.max(np.abs(channel.schrodinger(sigma) - sigma)))
    if residual > 1e-11:
        raise FixedSpaceError(1, f"fixed-point residual {residual:.3e} exceeds 1e-11")
    return DensityMatrix(sigma)


def gkls_steady_state(gen: GKLSGenerator) -> DensityMatrix:
    """Unique stationary state of the semigroup: ker R^T, R the generator's real matrix."""
    r = hermitian_coordinate_matrix(gen.jumps, gen.no_jump_generator_matrix)
    singular, basis, _ = _singular_null_space(r.T)
    if basis.shape[1] != 1:
        raise FixedSpaceError(basis.shape[1])
    sigma = _trace_normalized(from_hermitian_coordinates(basis[:, 0], gen.dim))
    if sigma is None:
        raise FixedSpaceError(1, "stationary solve returned a traceless matrix")
    residual = float(np.max(np.abs(gen.apply_dual(sigma))))
    if residual > max(1e-10, 1e-9 * singular[0]):
        raise FixedSpaceError(1, f"stationary residual {residual:.3e}")
    return DensityMatrix(sigma)


def _reachable_dimensions(kraus: np.ndarray, vectors: np.ndarray) -> list[int]:
    """Dimension of span{V_in ... V_i1 v} grown until stable, for each row v of ``vectors``.

    Each probe keeps an orthonormal basis, from v / ||v||; a round replaces
    it by the left singular vectors of [basis, V_1 basis, ...] above
    ``_RANK_TOL`` max(s_max, 1), until the width stops growing or reaches d,
    for at most d rounds.  The live probes of equal width take one stacked
    ``matmul`` and one stacked SVD per round (split so that no stack exceeds
    ``_PROBE_ENTRIES`` entries), which make the BLAS and LAPACK call of a
    lone probe on each matrix, so every probe grows as it would alone;
    probes whose widths diverge go in one stack per width.
    """
    d = vectors.shape[1]
    live = {i: v[:, None] / np.linalg.norm(v) for i, v in enumerate(vectors)}
    dims: dict[int, int] = {}
    for _ in range(d):
        widths: dict[int, list[int]] = {}
        for i, basis in live.items():
            widths.setdefault(basis.shape[1], []).append(i)
        for width, probes in widths.items():
            size = max(1, _PROBE_ENTRIES // (d * (len(kraus) + 1) * width))
            for group in (probes[at:at + size] for at in range(0, len(probes), size)):
                bases = np.stack([live[i] for i in group])[:, None]
                stacked = np.concatenate([bases, np.matmul(kraus, bases)], axis=1)  # g, k+1, d, w
                u, s, _ = np.linalg.svd(stacked.transpose(0, 2, 1, 3).reshape(len(group), d, -1),
                                        full_matrices=False)
                ranks = np.sum(s > _RANK_TOL * np.maximum(s[:, :1], 1.0), axis=1)
                for i, rank, grown in zip(group, ranks, u):
                    if rank == width or rank == d:
                        dims[i] = int(rank)
                        del live[i]
                    else:
                        live[i] = grown[:, :rank]
        if not live:
            break
    dims.update((i, basis.shape[1]) for i, basis in live.items())
    return [dims[i] for i in range(len(vectors))]


@dataclass(frozen=True)
class IrreducibilityEvidence:
    irreducible: bool
    radius_multiplicity: int
    fixed_point_faithful: bool
    min_fixed_eigenvalue: float
    reachability_full: bool
    reachability_dims: tuple[int, ...]


def _witness_vectors(fixed: np.ndarray) -> np.ndarray:
    """Starting vectors for the reachability probe, one per row, from a stack of fixed points.

    Besides two seeded random vectors and the standard basis, eigenvectors of
    Hermitian elements of the dual fixed space are included: the support of
    any fixed state is invariant under the Kraus operators, so a deficient
    block always leaves a witness here.
    """
    rng, dim = np.random.default_rng(7), fixed.shape[-1]
    vectors = [rng.standard_normal(dim) + 1j * rng.standard_normal(dim) for _ in range(2)]
    vectors.extend(np.eye(dim, dtype=complex))
    # h(b) and h(i b) per fixed point b, h the Hermitian part; h(i b) = 0 for a Hermitian b
    for h in np.stack([_hermitize(fixed), _hermitize(1j * fixed)], axis=1).reshape(-1, dim, dim):
        if np.max(np.abs(h)) < 1e-14:
            continue
        vectors.extend(np.linalg.eigh(h)[1].T)
    return np.array(vectors)


def is_irreducible(channel: KrausChannel) -> IrreducibilityEvidence:
    """Two-method irreducibility vote for a completely positive Kraus family.

    Eigenstructure check: the eigenvalue at the spectral radius is
    algebraically simple within ``TAU_EIG`` and the corresponding fixed point
    of the predual has least eigenvalue above ``TAU_PSD``.  Reachability
    check: Kraus products span the full space from every probed starting
    vector.  A disagreement raises :class:`InconclusiveIrreducibilityError`.

    A trace-preserving channel has spectral radius 1 and semisimple
    peripheral eigenvalues (M. M. Wolf, *Quantum Channels & Operations:
    Guided Tour*, 2012, Prop. 6.2), so the multiplicity of 1 is the number of
    zero singular values of R^T - I.  Unless one lies in ``_SVD_BAND``, the
    vote reads it and the dual fixed states' coordinates from :func:`_fixed_space`,
    which :func:`invariant_state` shares: 1 where the bordered solve is proved,
    else the count at or below ``TAU_EIG``; no general eigensolve.  The band
    makes this agree with the eigenvalue rule, where the null-space cut
    (1e-10) alone would call near-reducible channels irreducible.  In the band, or
    off trace preservation, the vote counts the eigenvalues of the complex
    M_h within ``TAU_EIG`` max(1, r) of its spectral radius r, and the dual
    fixed points are unvec of ker(M_s - r I), the module's one vec form.

    The reachability probe (:func:`_reachable_dimensions`) runs once per
    distinct witness vector, as equal vectors grow equal spans (where the
    dual fixed point is 1, its eigenvectors are the standard basis), and
    advances the live probes of equal width by one stacked SVD per round;
    ``reachability_dims`` holds one entry per witness vector, in their order.
    """
    multiplicity, states, _ = _fixed_space(channel)
    fixed = from_hermitian_coordinates(states.T, channel.dim)
    if multiplicity is None:
        m_h = superoperator_matrix(channel).matrix
        eigs = np.linalg.eigvals(m_h)
        radius = float(np.max(np.abs(eigs)))
        multiplicity = int(np.sum(np.abs(eigs - radius) <= TAU_EIG * max(1.0, radius)))
        fixed = unvec(_null_space(m_h.conj().T - radius * np.eye(m_h.shape[0])).T, channel.dim)
    point = _trace_normalized(fixed[0]) if len(fixed) == 1 else None
    min_eig = -np.inf if point is None else float(np.min(np.linalg.eigvalsh(point)))
    faithful = min_eig > TAU_PSD
    eig_verdict = multiplicity == 1 and faithful

    distinct, copies = np.unique(_witness_vectors(fixed), axis=0, return_inverse=True)
    reached = _reachable_dimensions(channel._stack, distinct)
    dims = tuple(reached[i] for i in copies)
    reach_verdict = all(d == channel.dim for d in dims)

    if eig_verdict != reach_verdict:
        raise InconclusiveIrreducibilityError(
            f"inconclusive irreducibility: eigenstructure says {eig_verdict}, "
            f"reachability says {reach_verdict} (dims {dims}, multiplicity {multiplicity}, "
            f"min fixed eigenvalue {min_eig:.3e})")
    return IrreducibilityEvidence(
        irreducible=eig_verdict,
        radius_multiplicity=multiplicity,
        fixed_point_faithful=faithful,
        min_fixed_eigenvalue=min_eig,
        reachability_full=reach_verdict,
        reachability_dims=dims,
    )


def _peripheral_is_one(channel: KrausChannel, gap: MultiplicativeGap | None = None) -> bool:
    """Whether each eigenvalue of R of modulus >= 1 - TAU_PER lies within TAU_PER of 1.

    ``gap`` proves it where it can: T = G R G^(-1), G: x -> sigma^(1/4) x sigma^(1/4),
    has R's eigenvalues, so |l_1 l_2| <= sqrt(m_1 m_2), m_1 >= m_2 atop T^T T (Weyl,
    PNAS 35, 408, 1949), and l_1 = rho(phi) (phi positive) is within e = d delta < 1e-9
    of 1, as (1 -+ e)^j bracket phi^j(1), for delta = ``channel_deviation`` <=
    ``TAU_IDENTITY``.  sqrt((m_1 + c)(m_2 + c)) < 1 - 2 TAU_PER proves it: c = 8 n u
    sum(m), n = d^2, covers forming T^T T (gamma_n ||T||_F^2) and eigvalsh (p(n) u m_1),
    the second TAU_PER covers e, leaving 1e-9 for T's and R's rounding.  Else eigvals(R).
    """
    if gap is not None and gap.eigenvalues.size > 1 and channel.channel_deviation <= TAU_IDENTITY:
        m = gap.eigenvalues
        c = 8 * m.size * np.finfo(float).eps * float(m.sum())
        if math.sqrt((m[-1] + c) * (m[-2] + c)) < 1.0 - 2 * TAU_PER:
            return True
    eigs = np.linalg.eigvals(_heisenberg_matrix(channel))
    peripheral = eigs[np.abs(eigs) >= 1.0 - TAU_PER]
    return bool(np.all(np.abs(peripheral - 1.0) <= TAU_PER))


def is_primitive(channel: KrausChannel) -> bool:
    """Irreducible with peripheral spectrum {1}, as ``analyze`` decides it; errors if reducible."""
    if not is_irreducible(channel).irreducible:
        raise HypothesisError("primitivity is undefined for a reducible channel")
    try:
        gap = multiplicative_gap_report(channel, invariant_state(channel))
    except (FixedSpaceError, ValueError):  # no faithful invariant state: eigvals(R) decides
        gap = None
    return _peripheral_is_one(channel, gap)


# ---------------------------------------------------------------------------
# multiplicative and additive symmetrizations
# ---------------------------------------------------------------------------

def _invariant_matrix(channel: KrausChannel, sigma) -> np.ndarray:
    """``sigma``'s matrix; :class:`HypothesisError` unless phi_*(sigma) = sigma within 1e-9."""
    s = state_matrix(sigma)
    residual = float(np.max(np.abs(channel.schrodinger(s) - s)))
    if residual > 1e-9:
        raise HypothesisError(
            f"state is not invariant (residual {residual:.3e}); "
            "multiplicative symmetrization undefined")
    return s


def _top_is_simple(eigs: np.ndarray, cluster: float) -> bool:
    """Irreducibility of a symmetrization: its top eigenvalue is alone within ``cluster``.

    ``eigs`` ascend.  Both symmetrizations are KMS-selfadjoint for a faithful
    sigma (:func:`operators.kms_conjugated` raises otherwise) and leave it
    invariant, so their fixed points (the generator's kernel) form a *-algebra
    (Frigerio, CMP 63, 1978; Wolf, 2012, ch. 6): trivial iff the top is simple.
    """
    return int(np.sum(np.abs(eigs - eigs[-1]) <= cluster)) == 1


def multiplicative_symmetrization(channel: KrausChannel, sigma) -> KrausChannel:
    """psi = phi_dagger phi with Kraus operators V_i A_j, A_j those of :func:`kms_adjoint`.

    ``sigma`` must be the invariant state of the channel; the returned family
    is labeled by outcome pairs (i, j).
    """
    adjoint = kms_adjoint(channel, _invariant_matrix(channel, sigma)).kraus
    return KrausChannel([vi @ aj for vi in channel.kraus for aj in adjoint],
                        [(i, j) for i in channel.labels for j in channel.labels],
                        expect_channel=False)


@dataclass(frozen=True)
class MultiplicativeGap:
    epsilon: float
    irreducible: bool
    eigenvalues: np.ndarray


def multiplicative_gap_report(channel: KrausChannel, sigma) -> MultiplicativeGap:
    """Spectral gap of psi = phi_dagger phi, without raising on a reducible psi.

    The spectrum is that of the KMS-isometrized psi, W^(1/2) M_psi W^(-1/2)
    with W the Gram matrix of the KMS product.  As psi = phi_dagger phi, that
    is T^* T for the KMS-isometrized phi, T = W^(1/2) M_phi W^(-1/2), the
    Heisenberg matrix of the Kraus family sigma^(-1/4) V_i sigma^(1/4).  T
    preserves Hermiticity, so in Hermitian coordinates it is real, T^T T is
    real symmetric and positive semidefinite, and its eigenvalues, clipped
    at 0 against rounding, are psi's.  The gap is 0 unless the top one is
    simple within ``TAU_EIG`` max(1, top) (:func:`_top_is_simple`).
    """
    s = _invariant_matrix(channel, sigma)
    t = hermitian_coordinate_matrix(kms_conjugated(channel.kraus, s))
    eigs = np.clip(np.linalg.eigvalsh(t.T @ t), 0.0, None)  # ascending
    epsilon = float(1.0 - eigs[-2]) if eigs.size >= 2 else 1.0
    irreducible = _top_is_simple(eigs, TAU_EIG * max(1.0, float(eigs[-1])))
    return MultiplicativeGap(epsilon if irreducible else 0.0, irreducible, eigs)


def spectral_gap_multiplicative(channel: KrausChannel, sigma) -> float:
    """Gap 1 - lambda_2 of the multiplicative symmetrization; errors if reducible."""
    report = multiplicative_gap_report(channel, sigma)
    if not report.irreducible or report.epsilon <= 0.0:
        raise HypothesisError(
            "multiplicative symmetrization is reducible; Bernstein-type gap undefined")
    return report.epsilon


@dataclass(frozen=True)
class AdditiveGap:
    epsilon: float
    irreducible: bool
    eigenvalues: np.ndarray
    hamiltonian_commutes: bool
    note: str = ""


def additive_gap_report(gen: GKLSGenerator, sigma) -> AdditiveGap:
    """Spectral gap of the additive symmetrization (L + L_dagger)/2; 0 when it is reducible.

    It is similar to (T + T^T) / 2, T the real matrix of the generator form
    on sigma^(-1/4) X sigma^(1/4) for X = G and the jumps.  Irreducible means
    a simple top eigenvalue within ``TAU_EIG`` (:func:`_top_is_simple`).
    """
    s = state_matrix(sigma)
    g, *jumps = kms_conjugated((gen.no_jump_generator_matrix,) + gen.jumps, s)
    t = hermitian_coordinate_matrix(jumps, g)
    eigs = np.linalg.eigh((t + t.T) / 2)[0]  # ascending
    second = eigs[-2] if eigs.size >= 2 else -np.inf
    irreducible = _top_is_simple(eigs, TAU_EIG)
    commutes = float(np.max(np.abs(gen.hamiltonian @ s - s @ gen.hamiltonian))) <= 1e-10
    note = ("[H, sigma] = 0: irreducibility of the symmetrization is automatic"
            if commutes and irreducible else "")
    return AdditiveGap(float(-second) if irreducible else 0.0, irreducible, eigs, commutes, note)


# ---------------------------------------------------------------------------
# centered subspace, Poisson equation and pseudoresolvent norms
# ---------------------------------------------------------------------------

def _coordinates(channel: KrausChannel, sigma) -> tuple[np.ndarray, np.ndarray]:
    """(R, weights): the channel's Heisenberg matrix and sigma in Hermitian coordinates.

    tr(sigma x) = weights . x, so an orthonormal basis q of {weights . x = 0} is one
    of F, and q^T R q has the spectral norms of phi|F's powers and resolvent.
    """
    return _heisenberg_matrix(channel), hermitian_coordinates(state_matrix(sigma))


def _restriction(matrix: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(q, q^T matrix q), q an orthonormal basis of {x : weights . x = 0}.

    A channel passes :func:`_coordinates`; a classical chain passes P and its
    stationary law, for the functions centred under it.
    """
    q = _null_space(weights[None, :])
    return q, q.T @ matrix @ q


@dataclass(frozen=True)
class PseudoresolventNorm:
    """Bracketing of || (Id - phi)^(-1) ||_inf on the centered subspace."""

    lower_estimate: float
    certified_upper: float


def _svd_norm(a: np.ndarray) -> float:
    """||a||_2 as the chain takes it exactly: LAPACK's largest singular value."""
    return float(np.linalg.norm(a, 2))


def _norm_bound(a: np.ndarray, right: np.ndarray | None,
                v: np.ndarray | None) -> tuple[float, bool, np.ndarray | None]:
    """(value, exact, v) for ``_svd_norm(a)``, or of ``a @ right``.

    Below ``_SVD_BELOW`` rows the value is that SVD norm.  Otherwise it is a
    lower bound from ``_POWER_STEPS`` steps of power iteration on the Gram
    matrix, from the unit vector ``v`` (a seeded one when None), and the
    last iterate is returned as the next start.  Each ratio ||a v|| (with
    the product applied to vectors, never formed) is at most the largest
    singular value; the rounding of the products is below
    8 n eps ||a||_F ||right||_F in norm, which also covers the GEMM that
    forms ``a @ right``, and that much is subtracted.  The rest of the margin
    argument is in :func:`_certified_sup_norm_chain`.
    """
    if a.shape[0] < _SVD_BELOW:
        return _svd_norm(a if right is None else a @ right), True, v
    if v is None:
        v = np.random.default_rng(0).standard_normal(a.shape[0])
        v /= np.linalg.norm(v)
    ratio = 0.0
    for _ in range(_POWER_STEPS):
        w = a @ (v if right is None else right @ v)
        ratio = max(ratio, float(np.linalg.norm(w)))
        u = w.conj() @ a
        u = (u if right is None else u @ right).conj()
        size = float(np.linalg.norm(u))
        if size == 0.0:
            break
        v = u / size
    frob = float(np.linalg.norm(a)) * (1.0 if right is None else float(np.linalg.norm(right)))
    slack = 8 * a.shape[0] * np.finfo(float).eps * frob
    return float(max(0.0, (ratio - slack) * (1.0 - _MARGIN))), False, v


def _power_terms(phi_f: np.ndarray, root_d: float):
    """Yield (term, exact, phi_F^(j+1)) for j = 0, 1, 2, ...

    ||phi^j|F|| <= min(1, sqrt(d) ||phi^j|F||_HS); ``term`` is that bound
    when ``exact`` (the identity term, every term of a matrix with fewer
    than ``_SVD_BELOW`` rows, and every term proved to be 1), and a lower
    bound on it otherwise.  The powers start from an identity of
    ``phi_f.dtype``, so a real matrix (a classical chain, or a channel in
    Hermitian coordinates) is multiplied in real arithmetic.
    """
    power = np.eye(phi_f.shape[0], dtype=phi_f.dtype)
    term, exact, v = 1.0, True, None
    while True:
        power = phi_f @ power
        yield term, exact, power
        norm, exact, v = _norm_bound(power, None, v)
        term = min(1.0, root_d * norm)
        exact = exact or term == 1.0


def _certified_sup_norm_chain(phi_f: np.ndarray, inv_f: np.ndarray, dim: int) -> float:
    """Certified upper bound on the sup-operator norm of (Id - phi)^(-1)|F.

    Uses the norm equivalence ||x||_HS <= sqrt(d) ||x|| together with the
    resolvent identity (Id - phi)^(-1) = sum_{j<J} phi^j + phi^J (Id - phi)^(-1):
    the minimum over J <= ``_MAX_TERMS`` of the candidate
    c_J = (certified partial sum of J terms) + sqrt(d) ||phi^J (Id - phi)^(-1)||
    is a rigorous upper bound, and degenerates gracefully to 1 when phi
    vanishes on F.  Shared by channels (d = dim) and classical chains
    (d = states).  A term is min(1, sqrt(d) ||phi^j||), and every norm is the
    largest singular value of the matrix formed by the GEMMs
    ``phi_f @ power`` and ``power @ inv_f``.

    The value is exactly that minimum, bit for bit.  A lower bound on a norm
    (:func:`_norm_bound`) put through a candidate's floating-point formula
    gives a lower bound on the candidate, as rounding is monotone; a term
    whose bound clamps to 1 is exactly 1.  The bounds hold in floating point:
    a backward-stable SVD returns the largest singular value to a relative
    p(n) u, and a power-iteration ratio is below it up to the product's
    rounding (Higham, *Accuracy and Stability of Numerical Algorithms*, 2nd
    ed., ch. 3 and 20); the relative margin ``_MARGIN`` = 1e-10 lies far
    above p(n) u for any matrix the chain can afford, and the rounding of
    the products is subtracted explicitly.  Three steps:

    1. The walk: bound the tail of J = 0, then each term and the tail after
       it, until the partial sum of term bounds reaches the least candidate
       bound.  Terms are >= 0 and a floating-point sum of non-negative
       numbers never decreases, so every candidate not walked is at least
       that partial sum.
    2. One settling SVD: if every term of the least candidate is exact, an
       SVD of its tail gives its value.  If that is at most every other
       walked candidate's bound and the stopping partial sum (or every
       candidate was walked), it is the minimum.
    3. Otherwise :func:`_plain_chain`, with the exact norms taken so far.
       Step 2 adds no SVD that it skips: at each exact term before the least
       candidate the walk went on, so the plain chain, with the same partial
       sum and no smaller least value, goes on too and reaches that tail.
    """
    root_d = float(np.sqrt(dim))
    terms: dict[int, float] = {}  # the exact terms and tail norms, by index
    tails: dict[int, float] = {}
    norm, exact, v = _norm_bound(inv_f, None, None)
    if exact:
        tails[0] = norm
    bounds = [root_d * norm]  # the candidates' lower bounds, by J
    least = (0, 0.0, None)  # (J, partial sum, phi^J) of the least bound
    partial = 0.0
    for j, (term, exact, power) in enumerate(islice(_power_terms(phi_f, root_d), _MAX_TERMS)):
        if exact:
            terms[j] = term
        partial += term
        if partial >= min(bounds):
            break
        norm, exact, v = _norm_bound(power, inv_f, v)
        if exact:
            tails[j + 1] = norm
        bounds.append(partial + root_d * norm)
        if bounds[-1] < bounds[least[0]]:
            least = (j + 1, partial, power)
    else:
        partial = np.inf  # every candidate was walked
    j, start, power = least
    if all(i in terms for i in range(j)):
        if j not in tails:
            tails[j] = _svd_norm(inv_f if power is None else power @ inv_f)
        bounds[j] = start + root_d * tails[j]
        if bounds[j] <= min(bounds) and bounds[j] <= partial:
            return bounds[j]
    return _plain_chain(phi_f, inv_f, root_d, terms, tails)


def _plain_chain(phi_f: np.ndarray, inv_f: np.ndarray, root_d: float,
                 terms: dict[int, float], tails: dict[int, float]) -> float:
    """The chain with an SVD per term and tail, up to the early exit.

    ``terms`` and ``tails`` hold exact terms and tail norms already taken,
    by index, which stand in for their SVDs.
    """
    best = root_d * (tails[0] if 0 in tails else _svd_norm(inv_f))
    partial = 0.0
    power = np.eye(phi_f.shape[0], dtype=phi_f.dtype)
    for j in range(_MAX_TERMS):
        term = terms[j] if j in terms else min(1.0, root_d * _svd_norm(power))
        power = phi_f @ power
        partial += term
        if partial >= best:
            break
        tail = tails[j + 1] if j + 1 in tails else _svd_norm(power @ inv_f)
        best = min(best, partial + root_d * tail)
    return best


def _sign_matrix(g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(sign(g), its eigenvalues +-1) per Hermitian matrix of a stack; sign(0) = 1."""
    w, u = np.linalg.eigh(g)
    signs = np.where(w >= 0.0, 1.0, -1.0)
    return (u * signs[..., None, :]) @ u.conj().swapaxes(-1, -2), signs


def _top_eigenpairs(y: np.ndarray, w: np.ndarray,
                    start: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(lambda, v) per Hermitian matrix of a stack y: the eigenvalue of largest modulus, a unit
    eigenvector.

    ``w`` is ``eigvalsh(y)``, ascending, and lambda one of its ends, the lower
    one on a tie, as ``argmax`` of |w| picks it.  v is ``start`` after
    ``_INVERSE_SOLVES`` solves of (y - mu I) x' = x, each normalized
    (inverse iteration: Ipsen, SIAM Review 39, 1997).  mu lies ``_SHIFT``
    |lambda| beyond that end (``_SHIFT`` at lambda = 0), far beyond
    ``eigvalsh``'s error, so y - mu I is definite, for a zero or rank-one y
    too, and each solve shrinks every other eigenvector's share of x by
    |lambda - mu| over its eigenvalue's distance to mu.
    """
    low = np.abs(w[:, 0]) >= np.abs(w[:, -1])
    lam = np.where(low, w[:, 0], w[:, -1])
    size = np.abs(lam)
    mu = lam + np.where(low, -_SHIFT, _SHIFT) * np.where(size > 0.0, size, 1.0)
    shifted = y - mu[:, None, None] * np.eye(y.shape[-1])
    x = np.broadcast_to(start, y.shape[:-1])
    for _ in range(_INVERSE_SOLVES):
        x = np.linalg.solve(shifted, x[..., None])[..., 0]
        x = x / np.sqrt((x.real ** 2 + x.imag ** 2).sum(axis=-1))[..., None]
    return lam, x


_SINGULAR = "channel is reducible: Id - phi is singular on the centered subspace"


def _resolvent(matrix: np.ndarray,
               weights: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(q, M_F, (Id - M_F)^(-1)) of :func:`_restriction`: the one solve for channels and chains."""
    q, m_f = _restriction(matrix, weights)
    eye_f = np.eye(m_f.shape[0])
    try:
        inv_f = np.linalg.solve(eye_f - m_f, eye_f)
    except np.linalg.LinAlgError as exc:
        raise HypothesisError(_SINGULAR) from exc
    return q, m_f, inv_f


def certified_pseudoresolvent_norm(channel: KrausChannel, sigma) -> float:
    """Certified upper bound on ||(Id - phi)^(-1)|F||_inf, F = {tr(sigma x) = 0}.

    The value of ``pseudoresolvent_norm(channel, sigma).certified_upper``
    without the heuristic lower estimate.
    """
    _, phi_f, inv_f = _resolvent(*_coordinates(channel, sigma))
    return _certified_sup_norm_chain(phi_f, inv_f, channel.dim)


def _frozen(step: np.ndarray, d: int) -> np.ndarray:
    """Whether each row's matrix has sup-norm s < 1e-12, as ``eigvalsh`` decides it."""
    f = np.linalg.norm(step, axis=1)  # the Frobenius norm: s <= f <= sqrt(d) s
    band = (f >= 0.5e-12) & (f <= 2e-12 * math.sqrt(d))  # f decides outside, as in _is_singular
    if band.any():
        f[band] = np.abs(np.linalg.eigvalsh(from_hermitian_coordinates(step[band], d))).max(axis=1)
    return f < 1e-12


def _lower_estimate(s: np.ndarray, n_full: np.ndarray, restarts: int,
                    iterations: int, seed: int) -> float:
    """Heuristic maximizer of ||n_full(x)|| / ||x|| over selfadjoint centered x.

    ``n_full`` is the map's real matrix in Hermitian coordinates, and the
    iterates are rows of coordinates.  Projected ascent over sign matrices
    of the linearized objective from ``restarts`` seeded random starts;
    every evaluated ratio is a true lower bound on the sup-norm of the map.
    The sup-norm of a Hermitian matrix is its largest |eigenvalue|.  A step
    takes one ``eigvalsh`` of the image y = N(r), whose extreme eigenvalue
    gives the ratio, and the top eigenvector from :func:`_top_eigenpairs`
    (a few solves, from the next draw of the seeded stream), then one
    ``eigh``, of the ascent direction, for the sign matrix S.  The next
    iterate is S - c 1, c = tr(s S) / tr(s), and its sup-norm is the closed
    form max |e - c| over the signs e = +-1 present in S, so only the random
    starts take an ``eigvalsh`` of their own.

    The restarts advance in lock-step as one (restarts, d^2) stack, and the
    result equals running them one after another: the matrix-vector
    products are a stacked ``matmul`` (one BLAS call per row), the stacked
    ``eigh``, ``eigvalsh`` and ``solve`` make the same LAPACK call on each
    matrix, and the other steps are elementwise or reduce each row on its
    own, so a restart's arithmetic touches only its own row; a restart
    whose step falls below 1e-12 is frozen where a lone run would stop, so
    it only repeats ratios already taken; and ``best`` is a max, exact in
    any order.
    """
    d = s.shape[0]
    weights = hermitian_coordinates(s) / np.trace(s).real  # tr(s x) / tr(s) = weights . r
    unit = hermitian_coordinates(np.eye(d))

    def center(r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        c = (r * weights).sum(axis=-1)
        return r - c[:, None] * unit, c

    def apply(m: np.ndarray, r: np.ndarray) -> np.ndarray:
        return np.matmul(m, r[..., None])[..., 0]

    def ratio(nx: np.ndarray, n_image: np.ndarray) -> float:
        return float(np.max(n_image / np.maximum(nx, 1e-14), where=nx >= 1e-14, initial=0.0))

    rng = np.random.default_rng(seed)
    z = rng.standard_normal((restarts, 2, d, d))  # per restart: real, then imaginary
    r = center(hermitian_coordinates(z[:, 0] + 1j * z[:, 1]))[0]
    norm = np.abs(np.linalg.eigvalsh(from_hermitian_coordinates(r, d))).max(axis=1)
    start = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    active = np.ones(restarts, dtype=bool)
    best = 0.0
    for step in range(iterations + 1):
        y = from_hermitian_coordinates(apply(n_full, r), d)
        w = np.linalg.eigvalsh(y)
        best = max(best, ratio(norm, np.abs(w).max(axis=1)))
        if step == iterations:
            break
        lam, top = _top_eigenpairs(y, w, start)
        lead = top[:, :, None] * top.conj()[:, None, :] * np.sign(lam)[:, None, None]
        ascent = from_hermitian_coordinates(apply(n_full.T, hermitian_coordinates(lead)), d)
        sign, signs = _sign_matrix(ascent)
        r_new, c = center(hermitian_coordinates(sign))
        norm_new = np.maximum(np.where((signs > 0.0).any(axis=1), np.abs(1.0 - c), 0.0),
                              np.where((signs < 0.0).any(axis=1), np.abs(1.0 + c), 0.0))
        active &= ~_frozen(r_new - r, d)
        if not active.any():
            break
        r = np.where(active[:, None], r_new, r)
        norm = np.where(active, norm_new, norm)
    return best


def pseudoresolvent_norm(channel: KrausChannel, sigma) -> PseudoresolventNorm:
    """Sup-norm of (Id - phi)^(-1) restricted to F = {tr(sigma x) = 0}.

    ``lower_estimate`` is a heuristic maximizer (projected ascent over
    sign matrices of the linearized objective, 64 random restarts from seed
    0 run in lock-step, with the value of running them one after another);
    every evaluated ratio is a true lower bound.  Each of its
    ``_ASCENT_ITERATIONS`` steps takes one stacked ``eigh``, of the ascent
    direction's sign matrix; the image's top eigenpair comes from
    ``eigvalsh`` and shifted inverse iteration, and a sign iterate's
    sup-norm from its closed form (:func:`_lower_estimate`).
    ``certified_upper`` is rigorous; the bounds consume it alone, through
    :func:`certified_pseudoresolvent_norm`, which skips the heuristic.
    """
    s = state_matrix(sigma)
    q, phi_f, inv_f = _resolvent(*_coordinates(channel, s))
    certified = _certified_sup_norm_chain(phi_f, inv_f, channel.dim)
    n_full = q @ inv_f @ q.T  # (Id-phi)^(-1) P_F in Hermitian coordinates
    best = _lower_estimate(s, n_full, 64, _ASCENT_ITERATIONS, 0)
    # both bracket the same quantity; rounding can make them cross at the
    # fully degenerate point where the norm is exactly 1
    return PseudoresolventNorm(lower_estimate=min(best, certified), certified_upper=certified)


def phi_power_norms(channel: KrausChannel, sigma, horizon: float) -> tuple[list[float], float]:
    """t_j = min(1, sqrt(d) ||phi^j|F||_2) >= ||phi^j|F||_inf for j <= K, and T >= sum_{j>=K} t_j.

    R leaves F invariant, so with x = ||phi^K|F||_2, ||phi^(aK+b)|F||_2 <= x^a ||phi^b|F||_2 and
    T = sqrt(d) x / (1 - x) sum_{b<K} ||phi^b|F||_2 (inf for x >= 1, as each t_j <= 1).  K is the
    first power with T below a quarter ulp of 1 + t_0 + ... + t_K, or the 4e6 / d^4-th, or
    ``horizon`` - 2, the last power that G_n reads at n = ``horizon``.
    """
    _, phi_f = _restriction(*_coordinates(channel, sigma))
    root_d = float(np.sqrt(channel.dim))
    norms, head, total, tail, power = [1.0], 1.0, 1.0, math.inf, np.eye(phi_f.shape[0])
    last = min(4_000_000 // channel.dim**4, horizon - 2)
    while tail >= math.ulp(1.0 + total) / 4 and len(norms) <= last:
        power = phi_f @ power
        x = _svd_norm(power)
        norms.append(min(1.0, root_d * x))
        total += norms[-1]  # sum(norms), term by term
        tail = root_d * x / (1.0 - x) * head if x < 1.0 else math.inf
        head += x
    return norms, tail


def _is_singular(system: np.ndarray, inverse: np.ndarray) -> bool:
    """Whether sigma_min(system) <= 1e-10 max(sigma_max(system), 1), ``inverse`` its solve.

    The test is ||inverse||_2 max(||system||_2, 1) >= 1e10.  As
    ||x||_F / sqrt(n) <= ||x||_2 <= ||x||_F, the product p of the Frobenius
    norms brackets it from above, and p / n from below.  A bracket clear of
    the cut by a factor 2 decides it, far beyond the relative error of either
    computed norm (about cond(system) u <= 1e-5 near the cut); in between,
    the singular values of ``system`` decide.
    """
    product = float(np.linalg.norm(inverse)) * max(float(np.linalg.norm(system)), 1.0)
    if product < 0.5e10:
        return False
    if product > 2e10 * system.shape[0]:
        return True
    singular_values = np.linalg.svd(system, compute_uv=False)
    return bool(singular_values[-1] <= 1e-10 * max(singular_values[0], 1.0))


def _poisson(channel: KrausChannel, f_target, s: np.ndarray, resolvent: tuple,
             certified_upper: float | None) -> np.ndarray:
    """The checked solution of :func:`poisson_solve` from ``_resolvent``'s triple."""
    f = as_complex_matrix(f_target, channel.dim)
    scale = max(1.0, float(np.max(np.abs(f))))
    centering = abs(complex(np.trace(s @ f)))
    if centering > 1e-9 * scale:
        raise ValueError(
            f"right-hand side is not centered: |tr(sigma F)| = {centering:.3e}")
    q, phi_f, inv_f = resolvent
    if _is_singular(np.eye(phi_f.shape[0]) - phi_f, inv_f):
        raise HypothesisError(_SINGULAR)
    # F = F_1 + i F_2 with F_1, F_2 Hermitian: one real column of coordinates each
    rhs = q.T @ np.stack([hermitian_coordinates(f), hermitian_coordinates(-1j * f)], axis=1)
    z = inv_f @ rhs
    z += inv_f @ (rhs - (z - phi_f @ z))  # one refinement step: a solve's residual
    parts = from_hermitian_coordinates((q @ z).T, channel.dim)
    a = parts[0] if is_selfadjoint(f, 1e-10) else parts[0] + 1j * parts[1]
    residual = float(np.max(np.abs((a - channel.heisenberg(a)) - f)))
    if residual > 1e-10 * scale:
        raise HypothesisError(
            f"Poisson residual {residual:.3e} exceeds tolerance; channel near-reducible")
    if certified_upper is not None:
        bound = certified_upper * uniform_norm(f) + 1e-12
        if uniform_norm(a) > bound:
            raise HypothesisError(
                f"solution norm {uniform_norm(a):.6e} exceeds certified bound {bound:.6e}")
    return a


def poisson_solve(channel: KrausChannel, f_target, sigma,
                  certified_upper: float | None = None) -> np.ndarray:
    """Centered solution of (Id - phi)(A) = F on F = {tr(sigma x) = 0}.

    The right-hand side must already be centered; the solution satisfies
    tr(sigma A) = 0 and, when ``certified_upper`` is passed, the norm bound
    ||A|| <= certified_upper * ||F|| is verified.
    """
    s = state_matrix(sigma)
    return _poisson(channel, f_target, s, _resolvent(*_coordinates(channel, s)), certified_upper)


def _certified_poisson_norm(channel: KrausChannel, f_target, sigma) -> float:
    """The certified norm, after checking the Poisson equation for F against it.

    One restriction and one solve of Id - phi_F serve the chain and the
    Poisson solution, whose checks are those of :func:`poisson_solve`.
    """
    s = state_matrix(sigma)
    resolvent = _resolvent(*_coordinates(channel, s))
    certified = _certified_sup_norm_chain(resolvent[1], resolvent[2], channel.dim)
    _poisson(channel, f_target, s, resolvent, certified)
    return certified


# ---------------------------------------------------------------------------
# tilted transition operators
# ---------------------------------------------------------------------------

def deformed_channel(channel: KrausChannel, f, u: float) -> KrausChannel:
    """Tilted family with Kraus operators exp(u f(i) / 2) V_i.

    Completely positive but not trace preserving for u != 0 (flagged through
    ``is_channel``); at u = 0 this is the original family.
    """
    fv = observation_vector(f, channel.labels)
    ops = [np.exp(0.5 * u * fi) * v for fi, v in zip(fv, channel.kraus)]
    return KrausChannel(ops, channel.labels, expect_channel=False)


def spectral_radius_deformed(channel: KrausChannel, f, u: float, sigma) -> float:
    """Spectral radius of psi_u = (phi_u)_dagger phi_u; equals 1 at u = 0.

    psi_u is similar to T^T T, T the real matrix of the Kraus family
    sigma^(-1/4) e^(u f(i) / 2) V_i sigma^(1/4), so the radius is ||T||_2^2.
    """
    ops = kms_conjugated(deformed_channel(channel, f, u).kraus, sigma)
    return _svd_norm(hermitian_coordinate_matrix(ops)) ** 2


# ---------------------------------------------------------------------------
# invariant-subspace decomposition of positive-recurrent channels
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InvariantDecomposition:
    """Orthogonal invariant blocks with irreducible restricted channels."""

    projections: tuple[np.ndarray, ...]
    isometries: tuple[np.ndarray, ...]
    restricted_channels: tuple[KrausChannel, ...]
    block_states: tuple[DensityMatrix, ...]
    commutation_residual: float

    @property
    def blocks(self) -> int:
        return len(self.projections)

    def weights(self, rho) -> np.ndarray:
        """lambda_j(rho) = tr(p_j rho)."""
        r = state_matrix(rho)
        return np.asarray([float(np.trace(p @ r).real) for p in self.projections])

    def block_state(self, rho, j: int) -> np.ndarray:
        """Compression of rho to block j, renormalized (in block coordinates)."""
        u = self.isometries[j]
        comp = u.conj().T @ state_matrix(rho) @ u
        tr = float(np.trace(comp).real)
        if tr <= 0.0:
            raise ValueError(f"state has no weight on block {j}")
        return comp / tr


def faithful_fixed_point(channel: KrausChannel) -> np.ndarray:
    """A full-rank fixed state of the predual, via the Cesaro limit of 1/d.

    The limit is S (O^T S)^(-1) O^T e in real Hermitian coordinates (e those
    of 1/d), the projection onto the fixed states S along the range of phi_* -
    Id, O the fixed observables, both from :func:`_fixed_space`; 1 is a semisimple
    eigenvalue of a channel (Wolf, 2012, Prop. 6.2), so O^T S is invertible.

    Raises :class:`HypothesisError` ("positive recurrence fails") when no
    faithful invariant state exists.
    """
    _, states, observables = _fixed_space(channel)
    if states.shape[1] == 0:
        raise HypothesisError("no eigenvalue 1: map is not trace preserving")
    d, o = channel.dim, observables.T
    limit = states @ np.linalg.solve(o @ states, o @ hermitian_coordinates(np.eye(d) / d))
    candidate = _trace_normalized(from_hermitian_coordinates(limit, d))
    if candidate is None or float(np.min(np.linalg.eigvalsh(candidate))) <= TAU_PSD:
        raise HypothesisError("positive recurrence fails")
    return candidate


def _group_eigenvalues(w: np.ndarray, tol: float) -> list[np.ndarray]:
    """Indices of w in ascending runs whose neighbours lie within ``tol``."""
    order = np.argsort(w)
    return np.split(order, np.flatnonzero(np.diff(w[order]) > tol) + 1)


_SPLIT_ATTEMPTS = 32  # random fixed points drawn before the split gives up


def _split_once(channel: KrausChannel, seed: int) -> list[np.ndarray]:
    """Isometries of the invariant blocks found from one random fixed point.

    The fixed points are the Heisenberg ones of :func:`_fixed_space`, whose
    SVD a leaf block's vote and invariant state then share.  When the
    eigenvalues of the drawn fixed point collide into one group, the draw is
    retried with seeds ``seed + 1, seed + 2, ...``, at most
    ``_SPLIT_ATTEMPTS`` draws in all.
    """
    basis = _fixed_space(channel)[2]
    if basis.shape[1] <= 1:
        return [np.eye(channel.dim, dtype=complex)]
    fixed = from_hermitian_coordinates(basis.T, channel.dim)  # Hermitian fixed points
    for attempt in range(seed, seed + _SPLIT_ATTEMPTS):
        y = np.tensordot(np.random.default_rng(attempt).standard_normal(len(fixed)), fixed, 1)
        w, u = np.linalg.eigh(y)
        scale = max(1.0, float(np.max(np.abs(w))))
        groups = _group_eigenvalues(w, TAU_DEC * scale)
        if len(groups) > 1:
            return [u[:, g] for g in groups]
    raise HypothesisError(
        f"block decomposition: {_SPLIT_ATTEMPTS} random fixed points of a "
        f"{basis.shape[1]}-dimensional fixed space each had a single eigenvalue group")


def _restrict(channel: KrausChannel, isometry: np.ndarray) -> KrausChannel:
    ops = [isometry.conj().T @ v @ isometry for v in channel.kraus]
    return KrausChannel(ops, channel.labels, expect_channel=False)


def decompose_invariant_subspaces(channel: KrausChannel) -> InvariantDecomposition:
    """Decompose a positive-recurrent channel into irreducible invariant blocks.

    Fixed points of the Heisenberg action span the invariant projections when
    a faithful invariant state exists; a random selfadjoint fixed point is
    spectrally split at resolution ``TAU_DEC`` and the blocks are refined
    recursively until each restricted channel is irreducible.  Every block is
    restricted from ``channel`` through its whole isometry, so a leaf's
    channel object is the block's, and its one SVD serves the split, the
    vote and the invariant state.
    """
    faithful_fixed_point(channel)  # raises if positive recurrence fails

    blocks: list[tuple[np.ndarray, KrausChannel]] = []

    def refine(isometry: np.ndarray, sub: KrausChannel, depth: int):
        if depth > channel.dim:
            raise HypothesisError("invariant-subspace refinement failed to terminate")
        parts = _split_once(sub, 11 + depth)
        if len(parts) == 1:
            blocks.append((isometry, sub))
            return
        for part in parts:
            refine(isometry @ part, _restrict(channel, isometry @ part), depth + 1)

    refine(np.eye(channel.dim, dtype=complex), channel, 0)
    blocks.sort(key=lambda block: (int(np.argmax(np.abs(block[0][:, 0]) > 1e-8)),
                                   -block[0].shape[1]))

    projections, restricted, states = [], [], []
    residual = 0.0
    for u, sub in blocks:
        p = u @ u.conj().T
        for v in channel.kraus:
            residual = max(residual, float(np.max(np.abs(v @ p - p @ v))))
        if not is_irreducible(sub).irreducible:  # shares its SVD with invariant_state(sub)
            raise HypothesisError("restricted block is not irreducible after refinement")
        projections.append(p)
        restricted.append(sub)
        states.append(invariant_state(sub))
    total = sum(projections)
    if float(np.max(np.abs(total - np.eye(channel.dim)))) > 1e-8:
        raise HypothesisError("block projections do not resolve the identity")
    if residual > TAU_DEC:
        raise HypothesisError(
            f"commutation residual {residual:.3e} exceeds {TAU_DEC:g}; blocks not invariant")
    return InvariantDecomposition(projections=tuple(projections),
                                  isometries=tuple(u for u, _ in blocks),
                                  restricted_channels=tuple(restricted),
                                  block_states=tuple(states),
                                  commutation_residual=residual)
