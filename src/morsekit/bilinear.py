"""Symmetric bilinear forms on finite-dimensional inner-product spaces.

Two arithmetic backends share one API.  Exact matrices are numpy object
arrays of ``fractions.Fraction``; floating matrices are float64.  The
backend is inferred from the dtype and never mixed within one space.
Sign counts on the exact backend are computed by rational congruence
diagonalization, so they are unconditionally correct; the floating
backend classifies eigenvalues against a zero band and reports marginal
cases instead of hiding them.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from . import exactla
from .errors import (
    EigensolverFailure,
    IsotropicDirection,
    NonSymmetric,
    NotNegativeDirection,
    NotPositiveDefinite,
    UnsupportedBackend,
)
from .tolerances import DEFAULT, Tolerances, classify_spectrum, spectral_radius, zero_band


def as_backend_matrix(matrix, exact: bool | None = None) -> np.ndarray:
    """Normalize input to a square object-Fraction or float64 array.

    Float64 input is shared, not copied: a form or space built on an array
    holds that array, which must therefore not be mutated afterwards.
    """
    arr = np.asarray(matrix)
    if exact is None:
        exact = arr.dtype == object
    return exactla.frac_matrix(arr) if exact else np.asarray(arr, dtype=float)


def as_backend_vector(vec, exact: bool) -> np.ndarray:
    arr = np.asarray(vec)
    return exactla.frac_vector(arr) if exact else arr.astype(float)


def _check_symmetric(matrix: np.ndarray, tol: Tolerances, what: str) -> None:
    if matrix.dtype == object:
        # list equality tries identity first, so shared entries compare free
        if matrix.tolist() != matrix.T.tolist():
            raise NonSymmetric(f"{what} is not symmetric")
        return
    scale = float(np.max(np.abs(matrix))) if matrix.size else 0.0
    gap = float(np.max(np.abs(matrix - matrix.T))) if matrix.size else 0.0
    if gap > tol.symmetry * scale:
        raise NonSymmetric(f"{what} is not symmetric within tolerance "
                           f"(max asymmetry {gap:.3e})")


def _eigh(matrix: np.ndarray, gram: np.ndarray | None = None, vectors: bool = True):
    """(eigenvalues, eigenvectors) via LAPACK, wrapped in our error type;
    the eigenvectors are None, and not computed, when ``vectors`` is false.
    The two LAPACK paths round differently, so a caller that prints
    eigenvalues must keep to one of them."""
    if matrix.shape[0] == 0:
        return np.empty(0), (np.empty((0, 0)) if vectors else None)
    try:
        if vectors:
            return scipy.linalg.eigh(matrix, gram)
        return scipy.linalg.eigh(matrix, gram, eigvals_only=True), None
    except (np.linalg.LinAlgError, scipy.linalg.LinAlgError) as exc:
        raise EigensolverFailure(str(exc)) from exc


def _positive_definite(g: np.ndarray, tol: Tolerances) -> bool:
    """Whether the symmetric gram g is positive definite: every exact
    congruence pivot is positive, or the smallest floating eigenvalue lies
    above the zero band of the spectral radius."""
    if g.shape[0] == 0:
        return True
    d = np.diagonal(g)
    if np.count_nonzero(g) == np.count_nonzero(d):
        # a diagonal gram's eigenvalues are its diagonal
        if g.dtype == object:
            return all(x > 0 for x in d)
        return bool(d.min() > zero_band(float(np.max(np.abs(d))), tol))
    if g.dtype == object:
        neg, zero, _ = exactla.inertia_counts(g)
        return not (neg or zero)
    if _cholesky_clears_band(g, tol):
        return True
    w = np.linalg.eigvalsh(g)
    return bool(w[0] > zero_band(spectral_radius(w), tol))


def _cholesky_clears_band(g: np.ndarray, tol: Tolerances) -> bool:
    """A sufficient test for the floating rule of ``_positive_definite``.

    r, the largest absolute row sum, bounds the spectral radius, so a
    Cholesky factorization of g - 2 * band(r) * I proves that the smallest
    eigenvalue of g exceeds band(r) >= band(spectral radius), with a
    margin of band(r) for the rounding of the factorization.  The shift
    never drops below a rounding bound of order n * eps * r.  A failure
    proves nothing, and the caller falls back to the eigenvalues.
    """
    n = g.shape[0]
    r = float(np.linalg.norm(g, np.inf))
    shifted = g.copy()
    shifted.flat[::n + 1] -= 2.0 * max(zero_band(r, tol), n * np.finfo(float).eps * r)
    # the transpose is the Fortran-ordered view LAPACK factors in place; its
    # upper triangle is the lower triangle eigvalsh reads
    _, info = scipy.linalg.lapack.dpotrf(shifted.T, lower=False, overwrite_a=True,
                                         clean=False)
    return info == 0


@dataclass(frozen=True, eq=False)
class InnerProductSpace:
    """R^dim with a symmetric positive definite Gram matrix.

    dim = 0 is allowed so that a full set of constraints can restrict a
    form down to the empty space.
    """

    gram: np.ndarray
    tol: Tolerances = field(default=DEFAULT, compare=False)

    def __post_init__(self):
        g = as_backend_matrix(self.gram)
        if g.ndim != 2 or g.shape[0] != g.shape[1]:
            raise NotPositiveDefinite("gram matrix must be square")
        _check_symmetric(g, self.tol, "gram matrix")
        if not _positive_definite(g, self.tol):
            raise NotPositiveDefinite("gram matrix is not positive definite")
        object.__setattr__(self, "gram", g)

    @classmethod
    def euclidean(cls, dim: int, exact: bool = False, tol: Tolerances = DEFAULT):
        g = exactla.identity(dim) if exact else np.eye(dim)
        return cls(g, tol)

    @property
    def dim(self) -> int:
        return self.gram.shape[0]

    @property
    def exact(self) -> bool:
        return self.gram.dtype == object

    def inner(self, u, v):
        u = as_backend_vector(u, self.exact)
        v = as_backend_vector(v, self.exact)
        return u.dot(self.gram.dot(v))

    def norm_sq(self, u):
        return self.inner(u, u)


@dataclass(frozen=True, eq=False)
class SymmetricForm:
    """Bilinear form S(u, v) = u^T A v with symmetric A on a given space.

    ``factored`` caches the form's one factorization (see :func:`factor`);
    a caller that already holds the pencil's eigenvalues may pass them in.
    The matrix is shared with float64 input (see :func:`as_backend_matrix`).
    """

    space: InnerProductSpace
    matrix: np.ndarray
    factored: Factorization | None = field(default=None, repr=False)
    # set by restrict_to: the parent's spectral radius, whose band it keeps
    parent_scale: float | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        m = as_backend_matrix(self.matrix, exact=self.space.exact)
        if m.shape != self.space.gram.shape:
            raise NonSymmetric("form matrix does not match the space dimension")
        _check_symmetric(m, self.space.tol, "form matrix")
        object.__setattr__(self, "matrix", m)

    @classmethod
    def from_matrix(cls, matrix, gram=None, exact: bool | None = None,
                    tol: Tolerances = DEFAULT):
        m = as_backend_matrix(matrix, exact)
        if gram is None:
            space = InnerProductSpace.euclidean(m.shape[0], exact=m.dtype == object, tol=tol)
        else:
            space = InnerProductSpace(as_backend_matrix(gram, m.dtype == object), tol)
        return cls(space, m)

    @property
    def dim(self) -> int:
        return self.space.dim

    @property
    def exact(self) -> bool:
        return self.space.exact

    def evaluate(self, u, v):
        u = as_backend_vector(u, self.exact)
        v = as_backend_vector(v, self.exact)
        return u.dot(self.matrix.dot(v))

    def quadratic(self, u):
        return self.evaluate(u, u)


@dataclass(frozen=True)
class Inertia:
    """Sign counts of a symmetric form; marginal=True means some floating
    eigenvalue sat close enough to the zero band edge that the counts
    could move under tiny perturbations."""

    negative: int
    zero: int
    positive: int
    marginal: bool = False

    @property
    def dim(self) -> int:
        return self.negative + self.zero + self.positive

    @property
    def counts(self) -> tuple[int, int, int]:
        return (self.negative, self.zero, self.positive)


@dataclass(frozen=True, eq=False)
class Factorization:
    """A form diagonalized once: values[i] is the form on column i of vectors.

    Floating backend: eigenpairs of the pencil (matrix, gram), columns
    gram-orthonormal.  Exact backend: an invertible C with
    C^T A C = diag(values), so the zero columns span the kernel of A.
    ``vectors`` is None when only the eigenvalues were kept.  ``scale``
    (floating) is the spectral radius that sets the zero band.
    """

    values: np.ndarray
    vectors: np.ndarray | None = None
    scale: float | None = None

    def __post_init__(self):
        if self.scale is None and self.values.dtype != object:
            object.__setattr__(self, "scale", spectral_radius(self.values))

    def band(self, tol: Tolerances):
        """Half-width of the zero band; 0 on the exact backend."""
        return 0 if self.values.dtype == object else zero_band(self.scale, tol)

    def inertia(self, tol: Tolerances) -> Inertia:
        w = self.values
        if w.dtype != object:
            return Inertia(*classify_spectrum(w, tol, self.scale))
        neg, zero = int(np.sum(w < 0)), int(np.sum(w == 0))
        return Inertia(neg, zero, w.size - neg - zero)

    def split(self, tol: Tolerances) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The columns on which the form is negative, zero and positive."""
        w, X = self.values, self.vectors
        tau = self.band(tol)
        return X[:, w < -tau], X[:, np.abs(w) <= tau], X[:, w > tau]

    def range_cosine(self, f: np.ndarray, tol: Tolerances) -> float:
        """How far f is from range(A) = Ker(A)^perp, where the zero columns
        K span Ker(A): |Q^T f| / |f| for a Euclidean orthonormal basis Q of
        K (floating), 0 when the band is empty.  The exact backend decides
        K^T f = 0 without a measure and reports 0 or 1."""
        K = self.split(tol)[1]
        if self.values.dtype == object:
            return float(np.any(K.T.dot(f)))
        if K.shape[1] == 0:
            return 0.0
        # BLAS norms scale internally: f may be near the float range ends
        return float(scipy.linalg.norm(np.linalg.qr(K)[0].T.dot(f)) / scipy.linalg.norm(f))

    def solve(self, f: np.ndarray, tol: Tolerances) -> np.ndarray:
        """u = sum of x_i (x_i^T f) / w_i over the columns x_i outside the
        zero band, so A u = f for every f in range(A)."""
        w, X = self.values, self.vectors
        keep = np.abs(w) > self.band(tol)
        if w.dtype == object:
            return exactla.pseudo_solve(X[:, keep], w[keep], f)
        Y = X[:, keep]
        return Y.dot(Y.T.dot(f) / w[keep])


@dataclass(frozen=True, eq=False)
class Subspace:
    """A subspace given by an independent (not necessarily orthonormal)
    basis; vectors are stored as columns of ``basis``."""

    basis: np.ndarray

    @property
    def dim(self) -> int:
        return self.basis.shape[1]


@dataclass(frozen=True, eq=False)
class Decomposition:
    """Orthogonal splitting of the space into negative, kernel, and
    positive invariant subspaces of the form (floating backend)."""

    basis_neg: np.ndarray
    basis_zero: np.ndarray
    basis_pos: np.ndarray
    eigenvalues: np.ndarray
    marginal: bool


def inertia(form: SymmetricForm, tol: Tolerances | None = None) -> Inertia:
    """Sign counts of the form, honoring the gram matrix of its space.

    Counts are invariant under congruence, so they are read from the
    form's factorization: the coefficient matrix directly on the exact
    backend, the generalized symmetric eigenproblem against the gram
    matrix on the floating one (same signs, better conditioning for
    non-Euclidean spaces).
    """
    tol = tol or form.space.tol
    return factor(form, vectors=False).inertia(tol)


def morse_index(form: SymmetricForm, tol: Tolerances | None = None) -> int:
    """dim of a maximal negative-definite subspace."""
    return inertia(form, tol).negative


def nullity(form: SymmetricForm, tol: Tolerances | None = None) -> int:
    """dim of the kernel of the form."""
    return inertia(form, tol).zero


def _is_identity(g: np.ndarray) -> bool:
    return g.dtype != object and bool(np.array_equal(g, np.eye(g.shape[0])))


def factor(form: SymmetricForm, vectors: bool = True) -> Factorization:
    """The form's factorization, computed once and kept on the form: one
    ``_eigh`` on the floating backend, one congruence diagonalization on
    the exact backend.  With ``vectors`` false a floating form is solved
    for its eigenvalues alone, which is all its counts and zero band
    read; a factorization without vectors is solved again when vectors
    are asked for."""
    fac = form.factored
    if fac is None or (vectors and fac.vectors is None):
        if form.exact:
            C, diag = exactla.congruence_diagonalize(form.matrix)
            fac = Factorization(np.array(diag, dtype=object), C)
        else:
            gram = None if _is_identity(form.space.gram) else form.space.gram
            fac = Factorization(*_eigh(form.matrix, gram, vectors), scale=form.parent_scale)
        object.__setattr__(form, "factored", fac)
    return fac


def fundamental_decomposition(form: SymmetricForm,
                              tol: Tolerances | None = None) -> Decomposition:
    """Split the space along the form's eigenvectors (floating only).

    The three blocks are mutually orthogonal both in the inner product and
    under the form, and their dimensions reproduce the inertia counts.
    """
    if form.exact:
        raise UnsupportedBackend("fundamental_decomposition needs the floating backend")
    tol = tol or form.space.tol
    fac = factor(form)
    return Decomposition(*fac.split(tol), fac.values, fac.inertia(tol).marginal)


def kernel_intersection(space: InnerProductSpace, constraints,
                        tol: Tolerances | None = None) -> Subspace:
    """Basis of the joint kernel of the given functionals.

    Each constraint is a coefficient vector f with phi(v) = f . v.  With no
    constraints the whole space is returned.  Zero functionals impose
    nothing and simply do not cut the dimension.
    """
    tol = tol or space.tol
    rows = [as_backend_vector(c, space.exact) for c in constraints]
    n = space.dim
    if not rows:
        return Subspace(exactla.identity(n) if space.exact else np.eye(n))
    F = np.stack(rows, axis=0)
    if space.exact:
        basis = exactla.nullspace(F)
        if not basis:
            return Subspace(np.empty((n, 0), dtype=object))
        return Subspace(np.stack(basis, axis=1))
    Q, r = float_row_split(F, tol)
    return Subspace(Q[:, r:])


def float_row_split(F: np.ndarray, tol: Tolerances,
                    mode: str = "full") -> tuple[np.ndarray, int]:
    """(Q, r) from QR with column pivoting of F^T: r counts the pivots
    above ``tol.rank`` times the largest, Q[:, :r] is an orthonormal basis
    of F's row space and, in full mode, Q[:, r:] one of its kernel.  The
    economic mode has the same R, so the same r."""
    Q, R, _ = scipy.linalg.qr(F.T, pivoting=True, mode=mode)
    d = np.abs(np.diag(R)) if min(R.shape) else np.empty(0)
    r = 0
    if d.size and d[0] > 0:
        r = int(np.sum(d > tol.rank * d[0]))
    return Q, r


def float_rank(F: np.ndarray, tol: Tolerances) -> int:
    return float_row_split(F, tol, "economic")[1]


def restrict(form: SymmetricForm, constraints,
             tol: Tolerances | None = None) -> SymmetricForm:
    """The form pulled back to the joint kernel of the constraints.

    This is the brute-force oracle every theorem-based prediction is
    checked against: inertia of the restricted matrix B^T A B, where the
    columns of B span the kernel.  Restricting by a full set of
    constraints yields the empty form on the zero-dimensional space.
    """
    tol = tol or form.space.tol
    sub = kernel_intersection(form.space, constraints, tol)
    return restrict_to(form, sub)


def restrict_to(form: SymmetricForm, sub: Subspace) -> SymmetricForm:
    B = sub.basis
    if form.exact:
        A2 = exactla.congruence(form.matrix, B)
        G2 = exactla.congruence(form.space.gram, B)
    else:
        A2 = B.T.dot(form.matrix.dot(B))
        G2 = B.T.dot(form.space.gram.dot(B))
        A2 = 0.5 * (A2 + A2.T)
        G2 = 0.5 * (G2 + G2.T)
    child = SymmetricForm(InnerProductSpace(G2, form.space.tol), A2)
    if not form.exact:
        # the rounding error of B^T A B scales with A, so A's band is kept
        object.__setattr__(child, "parent_scale", factor(form, vectors=False).scale)
    return child


def rayleigh(form: SymmetricForm, u, tol: Tolerances | None = None):
    """(S(u, u) / <u, u>, zero band): S(u, u) counts as zero when the
    quotient lies in the band.  Floating u is scaled to unit largest entry
    first, so no square of a huge or tiny vector is formed."""
    u = as_backend_vector(u, form.exact)
    band = 0 if form.exact else factor(form, vectors=False).band(tol or form.space.tol)
    if not np.any(u):
        return 0, band
    if not form.exact:
        u = u / np.max(np.abs(u))
    return form.quadratic(u) / form.space.norm_sq(u), band


def s_project(form: SymmetricForm, u, v, tol: Tolerances | None = None) -> np.ndarray:
    """Component of v along u with respect to the form: (S(u,v)/S(u,u)) u."""
    u = as_backend_vector(u, form.exact)
    quotient, band = rayleigh(form, u, tol)
    if abs(quotient) <= band:
        raise IsotropicDirection("S(u, u) vanishes within the zero band")
    return (form.evaluate(u, v) / form.quadratic(u)) * u


def maximal_negative_subspace_through(form: SymmetricForm, u,
                                      tol: Tolerances | None = None) -> Subspace:
    """A maximal negative-definite subspace containing the direction u.

    Requires S(u, u) < 0.  Starting from an S-orthogonal negative basis
    c_1..c_k (exact congruence columns, or eigenvectors of negative
    eigenvalue), each c_i except one pivot c_j is tilted by a multiple of
    c_j so it becomes S-orthogonal to u; span(u) plus those k-1 tilted
    vectors is negative definite of dimension k = Morse index, with u as
    the first basis column.
    """
    tol = tol or form.space.tol
    u = as_backend_vector(u, form.exact)
    # factored with vectors before rayleigh reads its band
    fac = factor(form)
    quotient, band = rayleigh(form, u, tol)
    if not quotient < -band:
        raise NotNegativeDirection("S(u, u) must be negative beyond the zero band")
    vecs = list(fac.split(tol)[0].T)
    k = len(vecs)
    # the S-projection of u onto span(c_i) has square sum(w_i^2 / d_i),
    # which is <= S(u, u) < 0, so some pairing w_j = S(u, c_j) is nonzero
    weights = [form.evaluate(u, c) for c in vecs]
    j = max(range(k), key=lambda i: abs(weights[i]))
    cols = [u]
    for i in range(k):
        if i == j:
            continue
        cols.append(vecs[i] - (weights[i] / weights[j]) * vecs[j])
    return Subspace(np.stack(cols, axis=1))
