"""Dense complex linear algebra for finite-dimensional quantum channels.

Everything in this package works on plain ``numpy`` complex arrays.  This
module provides the basic objects (channels given by Kraus operators, GKLS
generators given by a Hamiltonian and jump operators, dense superoperator
matrices) together with the weighted inner-product machinery (KMS inner
product, adjoints, positive-part splits) that the spectral analysis and the
concentration bounds are built on.

Conventions
-----------
* Channels act in the Heisenberg form, ``phi(x) = sum_i V_i^* x V_i``;
  the predual (Schroedinger) action is ``phi_*(rho) = sum_i V_i rho V_i^*``.
* This module is the one place that knows how a map becomes a matrix: the
  column-stacking vectorization ``vec(a @ x @ b) = kron(b.T, a) @ vec(x)``.
  Superoperator matrices are ``d^2 x d^2`` and always Heisenberg; the
  predual's matrix is their conjugate transpose.  Every matrix comes from a
  Kraus form ``sum_i V_i^* x V_i`` or a generator form
  ``G^* x + x G + sum_i L_i^* x L_i`` (GKLS: ``G = iH - sum_i L_i^* L_i / 2``).
  :func:`hermitian_coordinate_matrix` takes a form's operators to its real
  matrix in an orthonormal Hermitian basis; the module also builds real
  coordinates and the Choi-matrix check that one Kraus family sums to another.
* KMS weighting is conjugation: the form on ``sigma^(-1/4) X sigma^(1/4)``
  (:func:`kms_conjugated`) has the matrix ``W^(1/2) M W^(-1/2)``, ``W`` the
  KMS Gram matrix, which is never built: every KMS quantity comes from a
  Kraus form.
* Matrix functions of selfadjoint inputs go through an eigendecomposition.

All operations are pure functions of immutable inputs, with two memos: a
``KrausChannel`` carries ``_matrix``, its real Heisenberg matrix R (read only),
and ``_fixed_space``, the fixed spaces of R^T - I in real Hermitian coordinates,
which the spectral layer writes on first use.  Every write stores the same value (each route is
deterministic) and a second write changes nothing, so channels can still be
shared across threads; a race costs one more build.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Hashable, Iterable, Mapping, Sequence

import numpy as np

# Tolerances for double-precision work at dimensions d <= ~32.  Only the
# channel tolerance is settable, per KrausChannel (``--tolerance channel=``).
TAU_PSD = 1e-10       # eigenvalue floor: faithfulness / positivity checks
TAU_TRACE = 1e-10     # |tr(rho) - 1| allowed for states
TAU_CHANNEL = 1e-9    # || sum V_i^* V_i - 1 || allowed for channels
TAU_IDENTITY = 1e-12  # generic identity residual


class DimensionMismatchError(ValueError):
    """Operands live on spaces of different dimension."""


class NotFaithfulError(ValueError):
    """A KMS operation was asked to divide by a singular state."""


class NotSelfadjointError(ValueError):
    """An operation that needs a selfadjoint input received something else."""


class ChannelValidationError(ValueError):
    """Kraus family fails the channel normalization at the given tolerance."""


# ---------------------------------------------------------------------------
# basic matrix helpers
# ---------------------------------------------------------------------------

def as_complex_matrix(x, dim: int | None = None) -> np.ndarray:
    """Coerce ``x`` to a square complex matrix with finite entries."""
    a = np.asarray(x, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
        raise ValueError("matrix has non-finite entries")
    if dim is not None and a.shape[0] != dim:
        raise DimensionMismatchError(f"expected dimension {dim}, got {a.shape[0]}")
    return a


def dagger(x: np.ndarray) -> np.ndarray:
    return x.conj().T


def is_selfadjoint(x, tol: float = TAU_IDENTITY) -> bool:
    a = np.asarray(x)
    return bool(np.max(np.abs(a - a.conj().T)) <= tol)


def uniform_norm(x) -> float:
    """Largest singular value (operator norm on vectors)."""
    return float(np.linalg.norm(np.asarray(x, dtype=complex), 2))


def vec(x: np.ndarray) -> np.ndarray:
    """Column-stacking vectorization of a matrix, or of each matrix of a stack."""
    a = np.asarray(x, dtype=complex)
    return a.swapaxes(-1, -2).reshape(a.shape[:-2] + (a.shape[-2] * a.shape[-1],))


def unvec(v: np.ndarray, dim: int) -> np.ndarray:
    """Inverse of :func:`vec`; leading axes of ``v`` index a stack."""
    a = np.asarray(v, dtype=complex)
    return a.reshape(a.shape[:-1] + (dim, dim)).swapaxes(-1, -2)


def state_power(sigma: np.ndarray, power: float) -> np.ndarray:
    """``sigma**power`` for a faithful state; negative powers need min eig > TAU_PSD."""
    a = as_complex_matrix(sigma)
    w, u = np.linalg.eigh((a + a.conj().T) / 2)
    if power < 0 and np.min(w) <= TAU_PSD:
        raise NotFaithfulError("state not faithful")
    w = np.clip(w, TAU_PSD if power < 0 else 0.0, None)
    return (u * np.power(w, power)) @ u.conj().T


def positive_negative_parts(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Functional-calculus split x = x_+ - x_- of a selfadjoint matrix."""
    w, u = np.linalg.eigh((x + x.conj().T) / 2)
    plus = (u * np.clip(w, 0.0, None)) @ u.conj().T
    minus = (u * np.clip(-w, 0.0, None)) @ u.conj().T
    return plus, minus


def state_matrix(rho) -> np.ndarray:
    """Accept a DensityMatrix or a bare array and return the array."""
    if isinstance(rho, DensityMatrix):
        return rho.matrix
    return as_complex_matrix(rho)


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

class DensityMatrix:
    """A positive semidefinite, unit-trace matrix (checked, not assumed)."""

    __slots__ = ("matrix",)

    def __init__(self, matrix):
        m = as_complex_matrix(matrix)
        m = (m + m.conj().T) / 2 if is_selfadjoint(m, 1e-9) else m
        if not is_selfadjoint(m, 1e-9):
            raise NotSelfadjointError("density matrix must be selfadjoint")
        eigmin = float(np.min(np.linalg.eigvalsh(m)))
        if eigmin < -TAU_PSD:
            raise ValueError(f"density matrix has eigenvalue {eigmin:.3e} below -{TAU_PSD:g}")
        tr = float(np.trace(m).real)
        if abs(tr - 1.0) > TAU_TRACE:
            raise ValueError(f"density matrix trace {tr!r} differs from 1 beyond {TAU_TRACE:g}")
        self.matrix = m

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def min_eigenvalue(self) -> float:
        return float(np.min(np.linalg.eigvalsh(self.matrix)))

    def is_faithful(self) -> bool:
        return self.min_eigenvalue() > TAU_PSD

    def __repr__(self) -> str:  # pragma: no cover
        return f"DensityMatrix(dim={self.dim})"


@dataclass(frozen=True)
class ChannelValidation:
    """Report of the channel normalization check sum V_i^* V_i = 1."""

    max_deviation: float
    tolerance: float
    passed: bool
    zero_kraus_labels: tuple = ()


class KrausChannel:
    """A completely positive map given by an ordered, labeled Kraus family.

    Heisenberg action ``phi(x) = sum_i V_i^* x V_i``.  With
    ``expect_channel=True`` (the default) the family must satisfy
    ``sum_i V_i^* V_i = 1`` within ``tol``; pass ``expect_channel=False``
    for deliberately sub- or super-normalized completely positive families
    (e.g. tilted transition operators), which are flagged via
    ``is_channel``.
    """

    def __init__(self, kraus: Iterable, labels: Sequence[Hashable] | None = None, *,
                 expect_channel: bool = True, tol: float = TAU_CHANNEL):
        ops = tuple(as_complex_matrix(k) for k in kraus)
        if not ops:
            raise ValueError("need at least one Kraus operator")
        dim = ops[0].shape[0]
        for k in ops:
            if k.shape[0] != dim:
                raise DimensionMismatchError("Kraus operators of mixed dimension")
        if labels is None:
            labels = tuple(range(len(ops)))
        labels = tuple(labels)
        if len(labels) != len(ops):
            raise ValueError("one label per Kraus operator required")
        if len(set(labels)) != len(labels):
            raise ValueError("labels must be unique")
        self.kraus = ops
        self.labels = labels
        self.dim = dim
        self._stack = np.stack(ops)
        self._matrix = self._fixed_space = None  # R and R^T - I's fixed spaces: spectral memos
        report = validate_kraus(ops, labels, tol)
        self.channel_deviation = report.max_deviation
        self.is_channel = report.passed
        if expect_channel and not report.passed:
            raise ChannelValidationError(
                f"sum V_i^* V_i deviates from identity by {report.max_deviation:.3e} "
                f"(tolerance {tol:g})")

    def index(self, label) -> int:
        return self.labels.index(label)

    def heisenberg(self, x) -> np.ndarray:
        """sum_i V_i^* x V_i."""
        a = as_complex_matrix(x, self.dim)
        return np.einsum("iqp,qr,irs->ps", self._stack.conj(), a, self._stack)

    def schrodinger(self, rho) -> np.ndarray:
        """sum_i V_i rho V_i^*."""
        a = as_complex_matrix(state_matrix(rho), self.dim)
        return np.einsum("ipq,qr,isr->ps", self._stack, a, self._stack.conj())

    def __repr__(self) -> str:  # pragma: no cover
        return f"KrausChannel(dim={self.dim}, outcomes={len(self.kraus)})"


def validate_kraus(ops: Sequence[np.ndarray], labels: Sequence, tol: float) -> ChannelValidation:
    total = sum(dagger(k) @ k for k in ops)
    dev = float(np.max(np.abs(total - np.eye(ops[0].shape[0]))))
    zeros = tuple(l for l, k in zip(labels, ops) if np.max(np.abs(k)) == 0.0)
    return ChannelValidation(max_deviation=dev, tolerance=tol, passed=dev <= tol,
                             zero_kraus_labels=zeros)


def validate_channel(channel: KrausChannel) -> ChannelValidation:
    """Report-style normalization check of an existing Kraus family at TAU_CHANNEL."""
    return validate_kraus(channel.kraus, channel.labels, TAU_CHANNEL)


class GKLSGenerator:
    """Continuous-time generator from a Hamiltonian and labeled jump operators.

    Heisenberg form ``gen(x) = -i[H, x] + sum_i (L_i^* x L_i - {L_i^* L_i, x}/2)``
    with the no-jump part ``exp(t gen0)(x) = exp(t G)^* x exp(t G)`` for
    ``G = iH - sum_i L_i^* L_i / 2`` and jump maps ``J_i(x) = L_i^* x L_i``.
    """

    def __init__(self, hamiltonian, jumps: Iterable, labels: Sequence[Hashable] | None = None):
        h = as_complex_matrix(hamiltonian)
        if not is_selfadjoint(h, 1e-9):
            raise NotSelfadjointError("Hamiltonian must be selfadjoint")
        ops = tuple(as_complex_matrix(l, h.shape[0]) for l in jumps)
        if labels is None:
            labels = tuple(range(len(ops)))
        labels = tuple(labels)
        if len(labels) != len(ops):
            raise ValueError("one label per jump operator required")
        if len(set(labels)) != len(labels):
            raise ValueError("labels must be unique")
        self.hamiltonian = (h + h.conj().T) / 2
        self.jumps = ops
        self.labels = labels
        self.dim = h.shape[0]
        self.no_jump_generator_matrix = 1j * self.hamiltonian - 0.5 * sum(
            dagger(l) @ l for l in ops)  # the matrix G
        # unitality residual of the generator, gen(1) = 0 up to rounding
        self.unitality_residual = float(np.max(np.abs(self.apply(np.eye(self.dim)))))

    def index(self, label) -> int:
        return self.labels.index(label)

    def apply(self, x) -> np.ndarray:
        """Heisenberg generator applied to x."""
        a = as_complex_matrix(x, self.dim)
        h = self.hamiltonian
        out = -1j * (h @ a - a @ h)
        for l in self.jumps:
            ll = dagger(l) @ l
            out = out + dagger(l) @ a @ l - 0.5 * (ll @ a + a @ ll)
        return out

    def apply_dual(self, rho) -> np.ndarray:
        """Predual (master-equation) generator applied to rho."""
        a = as_complex_matrix(state_matrix(rho), self.dim)
        h = self.hamiltonian
        out = 1j * (h @ a - a @ h)
        for l in self.jumps:
            ll = dagger(l) @ l
            out = out + l @ a @ dagger(l) - 0.5 * (ll @ a + a @ ll)
        return out

    def __repr__(self) -> str:  # pragma: no cover
        return f"GKLSGenerator(dim={self.dim}, jumps={len(self.jumps)})"


@dataclass(frozen=True)
class Superoperator:
    """Dense column-stacking matrix of a linear map on d x d matrices."""

    dim: int
    matrix: np.ndarray

    def __post_init__(self):
        d2 = self.dim * self.dim
        if self.matrix.shape != (d2, d2):
            raise DimensionMismatchError(
                f"superoperator matrix must be {d2}x{d2}, got {self.matrix.shape}")

    def apply(self, x) -> np.ndarray:
        return unvec(self.matrix @ vec(as_complex_matrix(x, self.dim)), self.dim)


class ObservationFunction:
    """Real value per outcome label; evaluation over a channel's label order."""

    def __init__(self, values: Mapping[Hashable, float]):
        vals = dict(values)
        if not vals:
            raise ValueError("observation function needs at least one value")
        arr = np.asarray(list(vals.values()), dtype=float)
        if not np.all(np.isfinite(arr)):
            raise ValueError("observation values must be finite")
        self.values = vals

    def vector(self, labels: Sequence[Hashable]) -> np.ndarray:
        missing = [l for l in labels if l not in self.values]
        if missing:
            raise KeyError(f"observation function undefined on labels {missing}")
        return np.asarray([float(self.values[l]) for l in labels], dtype=float)

    def __repr__(self) -> str:  # pragma: no cover
        return f"ObservationFunction({self.values!r})"


def observation_vector(f, labels: Sequence[Hashable]) -> np.ndarray:
    """Coerce dict / ObservationFunction / array-like to a per-label vector."""
    if isinstance(f, ObservationFunction):
        return f.vector(labels)
    if isinstance(f, Mapping):
        return ObservationFunction(f).vector(labels)
    arr = np.asarray(f, dtype=float)
    if arr.shape != (len(labels),):
        raise DimensionMismatchError(
            f"observation vector of length {arr.shape} does not match {len(labels)} labels")
    if not np.all(np.isfinite(arr)):
        raise ValueError("observation values must be finite")
    return arr


# ---------------------------------------------------------------------------
# superoperator matrices
# ---------------------------------------------------------------------------

def _kron_sum(ops: Sequence[np.ndarray], g: np.ndarray | None = None) -> np.ndarray:
    """Heisenberg matrix of sum_i V_i^* x V_i, plus G^* x + x G when ``g`` is given."""
    kraus = sum(np.kron(v.T, v.conj().T) for v in ops)
    if g is None:
        return kraus
    eye = np.eye(g.shape[0])
    return np.kron(eye, g.conj().T) + np.kron(g.T, eye) + kraus


def superoperator_matrix(mapping) -> Superoperator:
    """Heisenberg matrix of a KrausChannel or GKLSGenerator."""
    if isinstance(mapping, KrausChannel):
        return Superoperator(mapping.dim, _kron_sum(mapping.kraus))
    if isinstance(mapping, GKLSGenerator):
        return Superoperator(mapping.dim,
                             _kron_sum(mapping.jumps, mapping.no_jump_generator_matrix))
    raise TypeError(f"cannot build a superoperator from {type(mapping)!r}")


def kraus_family_deviation(ops: Sequence[np.ndarray], reference: Sequence[np.ndarray]) -> float:
    """max |Choi(ops) - Choi(reference)|; inf when ops are not shaped like reference."""
    if any(w.shape != reference[0].shape for w in ops):
        return math.inf
    a, b = vec(np.stack(ops)), vec(np.stack(reference))
    return float(np.max(np.abs(a.T @ a.conj() - b.T @ b.conj())))


@lru_cache(maxsize=None)
def _frame_indices(d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(p d + q, q d + p, (d + 1) k) for the pairs p < q in row-major order and k < d.

    Flat positions: of (p, q), (q, p) and the diagonal in a C-ordered matrix,
    so of E_qp, E_pq and the diagonal in vec form.  :func:`_frame` gathers
    them and :func:`from_hermitian_coordinates` scatters them; built once per
    d, read only.
    """
    p, q = np.triu_indices(d, 1)
    tables = (p * d + q, q * d + p, np.arange(d) * (d + 1))
    for table in tables:
        table.setflags(write=False)
    return tables


def _frame(v: np.ndarray, d: int, sign: complex) -> np.ndarray:
    """U^* v (``sign`` = -1j) or U^T v (``sign`` = 1j) along the last axis, indexed as vec.

    U is the unitary whose columns are vec(B_b) for the orthonormal basis of
    the Hermitian matrices that every Hermitian coordinate refers to: the d
    diagonal units E_pp, then (E_pq + E_qp) / sqrt(2), then
    i (E_qp - E_pq) / sqrt(2), for the pairs p < q in row-major order.  Each
    column has at most two entries, so this is a gather, not a product.
    """
    pq, qp, diagonal = _frame_indices(d)
    upper, lower, s = v[..., qp], v[..., pq], math.sqrt(0.5)  # E_pq, E_qp
    return np.concatenate([v[..., diagonal], s * upper + s * lower,
                           sign * (s * lower - s * upper)], axis=-1)


def hermitian_coordinates(x: np.ndarray) -> np.ndarray:
    """Real coordinates r_b = Re tr(B_b x) in the basis of :func:`_frame`, of a matrix or a stack.

    For a Hermitian x these are its coordinates; otherwise they are those of
    its Hermitian part (x + x^*) / 2.
    """
    # contiguous rows: numpy then sums each row of a stack as it sums one row
    return np.ascontiguousarray(_frame(vec(x), x.shape[-1], -1j).real)


def from_hermitian_coordinates(r: np.ndarray, d: int) -> np.ndarray:
    """sum_b r_b B_b for coordinates r (real or complex) along the last axis.

    Real coordinates give an exactly Hermitian matrix: each off-diagonal
    pair is built as a complex number and its conjugate.
    """
    pq, qp, diagonal = _frame_indices(d)
    s, m = math.sqrt(0.5), pq.size
    x = np.zeros(r.shape[:-1] + (d * d,), dtype=complex)
    x[..., diagonal] = r[..., :d]
    sym, anti = s * r[..., d:d + m], s * r[..., d + m:]
    x[..., pq] = sym - 1j * anti
    x[..., qp] = sym + 1j * anti
    return x.reshape(r.shape[:-1] + (d, d))


def hermitian_coordinate_matrix(ops: Sequence, g: np.ndarray | None = None) -> np.ndarray:
    """The real matrix R = U^* M U of sum_i V_i^* x V_i, plus G^* x + x G when ``g`` is given.

    ``ops`` are the V_i, M is the form's column-stacking d^2 x d^2 Heisenberg
    matrix and U the matrix of the columns vec(B_b) of the basis of
    :func:`_frame`.  The basis is orthonormal and also a basis of all d x d
    complex matrices, so U is unitary and R has the eigenvalues and singular
    values of M; it is real because the map sends the Hermitian B_b to
    Hermitian matrices, and its imaginary part (rounding, about 1e-17) is
    dropped.  For a channel's R, the predual's matrix in the same coordinates
    is R^T, the adjoint in a real orthonormal basis.
    """
    m = _kron_sum(ops, g)
    d = math.isqrt(m.shape[0])
    return _frame(_frame(m, d, 1j).T, d, -1j).T.real


# ---------------------------------------------------------------------------
# KMS inner product machinery
# ---------------------------------------------------------------------------

def kms_inner(x, y, sigma) -> complex:
    """KMS inner product tr(sigma^(1/2) x^* sigma^(1/2) y) for faithful sigma."""
    s = state_matrix(sigma)
    x = as_complex_matrix(x, s.shape[0])
    y = as_complex_matrix(y, s.shape[0])
    if float(np.min(np.linalg.eigvalsh(s))) <= TAU_PSD:
        raise NotFaithfulError("state not faithful")
    root = state_power(s, 0.5)
    return complex(np.trace(root @ dagger(x) @ root @ y))


def kms_norm(x, sigma) -> float:
    v = kms_inner(x, x, sigma)
    return float(np.sqrt(max(v.real, 0.0)))


def kms_conjugated(ops: Sequence[np.ndarray], sigma) -> list[np.ndarray]:
    """sigma^(-1/4) X sigma^(1/4) for each X: the form on them has the matrix W^(1/2) M W^(-1/2).

    M is the form's matrix on ``ops`` and W = kron(conj(sigma^(1/2)),
    sigma^(1/2)) the Gram matrix of the KMS product of a faithful sigma.
    """
    s = state_matrix(sigma)
    quarter, quarter_inv = state_power(s, 0.25), state_power(s, -0.25)
    return [quarter_inv @ x @ quarter for x in ops]


def kms_operator_norm(channel: KrausChannel, sigma) -> float:
    """Operator norm induced by the KMS norm: the largest singular value of W^(1/2) M W^(-1/2)."""
    if not isinstance(channel, KrausChannel):
        raise TypeError(f"cannot take the KMS operator norm of {type(channel)!r}")
    ops = kms_conjugated(channel.kraus, sigma)
    return float(np.linalg.norm(hermitian_coordinate_matrix(ops), 2))


def kms_adjoint(channel: KrausChannel, sigma) -> KrausChannel:
    """Adjoint with respect to the KMS inner product of a faithful state.

    The adjoint of a Kraus family is the Kraus family with operators
    ``sigma^(1/2) V_i^* sigma^(-1/2)`` under the same labels.
    """
    if not isinstance(channel, KrausChannel):
        raise TypeError(f"cannot take the KMS adjoint of {type(channel)!r}")
    s = state_matrix(sigma)
    half, half_inv = state_power(s, 0.5), state_power(s, -0.5)
    ops = [half @ dagger(v) @ half_inv for v in channel.kraus]
    return KrausChannel(ops, channel.labels, expect_channel=False)


def kms_positive_parts(x, sigma) -> tuple[np.ndarray, np.ndarray]:
    """Split a selfadjoint x into KMS-orthogonal positive semidefinite parts.

    Returns ``(x_plus, x_minus)`` with ``x = x_plus - x_minus``, both parts
    positive semidefinite and KMS-orthogonal: conjugate by ``sigma^(1/4)``,
    split by functional calculus, conjugate back.
    """
    s = state_matrix(sigma)
    a = as_complex_matrix(x, s.shape[0])
    if not is_selfadjoint(a, 1e-9):
        raise NotSelfadjointError("positive-part split needs a selfadjoint input")
    quarter = state_power(s, 0.25)
    quarter_inv = state_power(s, -0.25)
    plus, minus = positive_negative_parts(quarter @ a @ quarter)
    return quarter_inv @ plus @ quarter_inv, quarter_inv @ minus @ quarter_inv
