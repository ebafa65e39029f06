"""Symmetric bilinear forms on finite-dimensional inner-product spaces.

Two arithmetic backends share one API.  Exact matrices are numpy object
arrays of ``fractions.Fraction``; floating matrices are float64.  The
backend is inferred from the dtype and never mixed within one space.
Sign counts on the exact backend are computed by rational congruence
diagonalization, so they are unconditionally correct; the floating
backend classifies eigenvalues against a zero band and reports marginal
cases instead of hiding them.  A floating form and its gram may also be
held as :class:`Tridiagonal` bands; such a pencil is factored by Sturm
counts in O(n) per shift (:class:`SturmFactorization`), and no n x n
array is formed.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import exactla
from ._lapack import (dgeqp3, dgeqrf, dgtsv, dnrm2, dorgqr, dpotrf, dpttrf, dstebz,
                      dsyevr, dsyevr_lwork, dsygvd)
from .errors import (
    EigensolverFailure,
    IsotropicDirection,
    NonSymmetric,
    NotNegativeDirection,
    NotPositiveDefinite,
    UnsupportedBackend,
    ValidationError,
)
from .tolerances import (DEFAULT, Tolerances, classify_counts, classify_spectrum,
                         spectral_radius, zero_band)


_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True, eq=False)
class Tridiagonal:
    """A symmetric tridiagonal float64 matrix held by its diagonal and its
    first off-diagonal, so symmetric by construction.  It stands in for
    the dense matrix wherever a form or a gram is multiplied: ``dot``
    takes vectors and n x k blocks."""

    diag: np.ndarray
    off: np.ndarray

    dtype = np.dtype(float)
    ndim = 2

    @classmethod
    def identity(cls, n: int) -> "Tridiagonal":
        return cls(np.ones(n), np.zeros(max(n - 1, 0)))

    @property
    def shape(self) -> tuple[int, int]:
        return (self.diag.shape[0], self.diag.shape[0])

    def dot(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        d, e = (self.diag, self.off) if x.ndim == 1 else (self.diag[:, None], self.off[:, None])
        y = d * x
        y[:-1] += e * x[1:]
        y[1:] += e * x[:-1]
        return y

    def todense(self) -> np.ndarray:
        n = self.shape[0]
        out = np.zeros((n, n))
        i = np.arange(n)
        out[i, i] = self.diag
        out[i[:-1], i[1:]] = self.off
        out[i[1:], i[:-1]] = self.off
        return out

    def interior(self) -> "Tridiagonal":
        """The block without the first and the last row and column."""
        return Tridiagonal(self.diag[1:-1], self.off[1:-1])

    def shifted(self, s: float, gram: "Tridiagonal") -> tuple[np.ndarray, np.ndarray]:
        """The bands of self - s * gram."""
        return self.diag - s * gram.diag, self.off - s * gram.off

    def row_sum_norm(self) -> float:
        """The largest absolute row sum, which bounds the spectral radius."""
        e = np.abs(self.off)
        rows = np.abs(self.diag)
        rows[:-1] += e
        rows[1:] += e
        return float(np.max(rows, initial=0.0))


def solve_tridiagonal(diag: np.ndarray, off: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """The solution of T x = rhs for the symmetric tridiagonal T with these
    bands (LAPACK dgtsv, LU with partial pivoting, the routine behind
    ``scipy.linalg.solve_banded((1, 1), ...)``); vectors or n x k blocks.
    T of order 1 divides, and T of order 0 gives an empty result, as
    solve_banded does.  Raises numpy.linalg.LinAlgError when T is exactly
    singular and ValueError on inf or NaN input."""
    if not (np.isfinite(diag).all() and np.isfinite(off).all() and np.isfinite(rhs).all()):
        raise ValueError("array must not contain infs or NaNs")
    if diag.shape[0] < 2:
        return rhs / diag[0] if diag.shape[0] else np.empty_like(rhs, dtype=float)
    _, _, _, x, info = dgtsv(off, diag, off, rhs)
    if info > 0:
        raise np.linalg.LinAlgError("singular matrix")
    return x


def _ldl_definite(diag: np.ndarray, off: np.ndarray) -> bool:
    """Whether the symmetric tridiagonal matrix with these bands is
    positive definite: every pivot of its LDL^T (LAPACK dpttrf) is."""
    if diag.shape[0] < 2:
        return bool(np.all(diag > 0.0))
    return dpttrf(diag, off)[2] == 0


def as_backend_matrix(matrix, exact: bool | None = None) -> np.ndarray:
    """Normalize input to a square object-Fraction or float64 array; a
    :class:`Tridiagonal` is kept as it is.

    Float64 input is shared, not copied: a form or space built on an array
    holds that array, which must therefore not be mutated afterwards.
    """
    if isinstance(matrix, Tridiagonal):
        return matrix
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
    if not math.isfinite(scale):
        # NaN propagates through the max and compares False with any gap
        raise ValidationError(f"{what} has a NaN or infinite entry")
    gap = float(np.max(np.abs(matrix - matrix.T))) if matrix.size else 0.0
    if gap > tol.symmetry * scale:
        raise NonSymmetric(f"{what} is not symmetric within tolerance "
                           f"(max asymmetry {gap:.3e})")


def _eigh(matrix: np.ndarray, gram: np.ndarray | None = None, vectors: bool = True):
    """(eigenvalues, eigenvectors) of the dense float pencil (matrix, gram),
    from the lower triangles, by one LAPACK call: dsyevr with its queried
    workspace for the standard problem (gram None), dsygvd for the
    generalized one.  These are the routines and workspaces that
    ``scipy.linalg.eigh`` picks by default, so the results are bitwise
    its results, without its wrapper's cost on small matrices.  The
    eigenvectors are None, and not computed, when ``vectors`` is false;
    the two paths round differently, so forms are factored with vectors,
    and the values-only path serves the dense spectra of
    :mod:`morsekit.boundary` alone.  A non-finite entry, a failed
    iteration and a gram that is not positive definite raise
    EigensolverFailure."""
    n = matrix.shape[0]
    if n == 0:
        return np.empty(0), (np.empty((0, 0)) if vectors else None)
    if not (np.isfinite(matrix).all() and (gram is None or np.isfinite(gram).all())):
        raise EigensolverFailure("array must not contain infs or NaNs")
    if gram is None:
        work, iwork, info = dsyevr_lwork(n, lower=1)
        if info == 0:
            w, v, _, _, info = dsyevr(matrix, compute_v=int(vectors), lower=1,
                                      lwork=int(work), liwork=int(iwork))
    else:
        w, v, info = dsygvd(matrix, gram, jobz="V" if vectors else "N", uplo="L")
    if info > n and gram is not None:
        raise EigensolverFailure(f"the leading minor of order {info - n} of the gram "
                                 "is not positive definite")
    if info:
        raise EigensolverFailure(f"LAPACK {'dsyevr' if gram is None else 'dsygvd'} "
                                 f"failed (info {info})")
    return w, (v if vectors else None)


def _positive_definite(g: np.ndarray, tol: Tolerances) -> bool:
    """Whether the symmetric gram g is positive definite: every exact
    congruence pivot is positive, or the zero-band rule
    (``classify_counts``) counts every floating eigenvalue positive, so
    the zero gram is refused."""
    n = g.shape[0]
    if n == 0:
        return True
    if isinstance(g, Tridiagonal):
        if _ldl_definite(g.diag - _clearing_shift(g, g.row_sum_norm(), tol), g.off):
            return True
        return SturmFactorization(g, Tridiagonal.identity(n)).inertia(tol).positive == n
    d = np.diagonal(g)
    if np.count_nonzero(g) == np.count_nonzero(d):
        # a diagonal gram's eigenvalues are its diagonal
        if g.dtype == object:
            return all(x > 0 for x in d)
        return classify_spectrum(d, tol)[2] == n
    if g.dtype == object:
        neg, zero, _ = exactla.inertia_counts(g)
        return not (neg or zero)
    if _cholesky_clears_band(g, tol):
        return True
    return classify_spectrum(np.linalg.eigvalsh(g), tol)[2] == n


def _cholesky_clears_band(g: np.ndarray, tol: Tolerances) -> bool:
    """A sufficient test for the floating rule of ``_positive_definite``.

    r, the largest absolute row sum, bounds the spectral radius, so a
    Cholesky factorization of g - 2 * band(r) * I proves that the smallest
    eigenvalue of g exceeds band(r) >= band(spectral radius), with a
    margin of band(r) for the rounding of the factorization.  The shift
    never drops below a rounding bound of order n * eps * r.  A failure
    proves nothing, and the caller falls back to the eigenvalues.
    """
    shifted = g.copy()
    shifted.flat[::g.shape[0] + 1] -= _clearing_shift(g, float(np.linalg.norm(g, np.inf)), tol)
    # the transpose is the Fortran-ordered view LAPACK factors in place; its
    # upper triangle is the lower triangle eigvalsh reads
    _, info = dpotrf(shifted.T, lower=False, overwrite_a=True, clean=False)
    return info == 0


def _clearing_shift(g, r: float, tol: Tolerances) -> float:
    """The diagonal shift of ``_cholesky_clears_band`` for a gram whose
    largest absolute row sum is r."""
    return 2.0 * max(zero_band(r, tol), g.shape[0] * _EPS * r)


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
        if not isinstance(g, Tridiagonal):
            _check_symmetric(g, self.tol, "gram matrix")
        if not _positive_definite(g, self.tol):
            raise NotPositiveDefinite("gram matrix is not positive definite")
        object.__setattr__(self, "gram", g)

    @classmethod
    def euclidean(cls, dim: int, exact: bool = False, tol: Tolerances = DEFAULT):
        """R^dim with the identity gram, which is symmetric and positive
        definite by construction, so it is neither converted nor checked."""
        space = object.__new__(cls)
        object.__setattr__(space, "gram", exactla.identity(dim) if exact else np.eye(dim))
        object.__setattr__(space, "tol", tol)
        return space

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
    a caller that already holds it, a :class:`Factorization` with its
    eigenvectors or a :class:`SturmFactorization`, may pass it in.
    The matrix is shared with float64 input (see :func:`as_backend_matrix`).
    """

    space: InnerProductSpace
    matrix: np.ndarray
    factored: Factorization | SturmFactorization | None = field(default=None, repr=False)
    # set by restrict_to: the parent's spectral radius, whose band it keeps
    parent_scale: float | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        m = as_backend_matrix(self.matrix, exact=self.space.exact)
        if m.shape != self.space.gram.shape:
            raise NonSymmetric("form matrix does not match the space dimension")
        if isinstance(m, Tridiagonal) != isinstance(self.space.gram, Tridiagonal):
            raise UnsupportedBackend("a tridiagonal form needs a tridiagonal gram, "
                                     "and a dense one a dense gram")
        if not isinstance(m, Tridiagonal):
            _check_symmetric(m, self.space.tol, "form matrix")
        object.__setattr__(self, "matrix", m)

    @classmethod
    def from_matrix(cls, matrix, gram=None, exact: bool | None = None,
                    tol: Tolerances = DEFAULT):
        # the matrix and the gram are converted once each, by __post_init__
        # on the space's backend, which an object array selects
        if exact is None:
            exact = not isinstance(matrix, Tridiagonal) and np.asarray(matrix).dtype == object
        if gram is None:
            space = InnerProductSpace.euclidean(np.shape(matrix)[0], exact=exact, tol=tol)
        elif exact:
            space = InnerProductSpace(np.asarray(gram, dtype=object), tol)
        else:
            space = InnerProductSpace(as_backend_matrix(gram, False), tol)
        return cls(space, matrix)

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
    eigenvalue sat close enough to zero (``classify_counts``) that the
    counts could move under tiny perturbations."""

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
    ``scale`` (floating) is the spectral radius that sets the zero band.
    """

    values: np.ndarray
    vectors: np.ndarray
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
        return X[:, w < -tau], self.kernel(tol), X[:, w > tau]

    def kernel(self, tol: Tolerances) -> np.ndarray:
        """The zero columns, which span Ker(A)."""
        return self.vectors[:, np.abs(self.values) <= self.band(tol)]

    def range_cosine(self, f: np.ndarray, tol: Tolerances) -> float:
        """How far f is from range(A) = Ker(A)^perp, where the zero columns
        K span Ker(A): |Q^T f| / |f| for a Euclidean orthonormal basis Q of
        K (floating), 0 when the band is empty.  The exact backend decides
        K^T f = 0 without a measure and reports 0 or 1."""
        K = self.kernel(tol)
        if self.values.dtype == object:
            return float(np.any(K.T.dot(f)))
        return _cosine_to(K, f)

    def solve(self, f: np.ndarray, tol: Tolerances) -> np.ndarray:
        """u = sum of x_i (x_i^T f) / w_i over the columns x_i outside the
        zero band, so A u = f for every f in range(A)."""
        w, X = self.values, self.vectors
        keep = np.abs(w) > self.band(tol)
        if w.dtype == object:
            return exactla.pseudo_solve(X[:, keep], w[keep], f)
        Y = X[:, keep]
        return Y.dot(Y.T.dot(f) / w[keep])


def _cosine_to(K: np.ndarray, f: np.ndarray) -> float:
    """|Q^T f| / |f| for a Euclidean orthonormal basis Q of the columns of
    K; 0 when K has none."""
    if K.shape[1] == 0:
        return 0.0
    # scipy.linalg.norm refuses these, and it is dnrm2 for a float vector
    if not np.isfinite(f).all():
        raise ValueError("array must not contain infs or NaNs")
    y = orthonormal_basis(K).T.dot(f)
    if not np.isfinite(y).all():
        raise ValueError("array must not contain infs or NaNs")
    # BLAS norms scale internally: f may be near the float range ends
    return float(dnrm2(y) / dnrm2(f))


def sturm_negatives(diag: np.ndarray, off: np.ndarray, border: np.ndarray | None = None) -> int:
    """Negative pivots of the LDL^T of the symmetric tridiagonal T with
    diagonal ``diag`` and off-diagonal ``off``, or, given a border C, of
    [[T, C], [C^T, 0]] with the border last.  By Sylvester's law this is
    the number of negative eigenvalues.

    T is eliminated by the Sturm recurrence d_i = a_i - e_{i-1}^2 / d_{i-1}
    (Barth-Martin-Wilkinson), with a zero pivot replaced by eps times the
    largest entry (the smallest normal float for T = 0);
    the same pivots carry the border, y_i = c_i - l_{i-1} y_{i-1} with
    l_i = e_i / d_i, into the Schur complement S = -sum y_i y_i^T / d_i,
    whose eigenvalue signs are the border's pivots.
    """
    if diag.shape[0] == 0:
        return 0
    tiny = _EPS * float(max(np.max(np.abs(diag)), np.max(np.abs(off), initial=0.0)))
    tiny = tiny or sys.float_info.min
    squares = (off * off).tolist()
    squares.insert(0, 0.0)
    pivots = []
    pivot = 1.0
    for a, b2 in zip(diag.tolist(), squares):
        pivot = a - b2 / pivot
        if pivot == 0.0:
            pivot = tiny
        pivots.append(pivot)
    d = np.array(pivots)
    count = int(np.count_nonzero(d < 0.0))
    if border is None or border.shape[1] == 0:
        return count
    ratios = [0.0] + (off / d[:-1]).tolist()
    Y = np.empty_like(border)
    for j in range(border.shape[1]):
        y, col = 0.0, []
        for c, ratio in zip(border[:, j].tolist(), ratios):
            y = c - ratio * y
            col.append(y)
        Y[:, j] = col
    S = -(Y / d[:, None]).T.dot(Y)
    return count + int(np.count_nonzero(np.linalg.eigvalsh(S) < 0.0))


def tridiagonal_negatives(diag: np.ndarray, off: np.ndarray) -> int:
    """The number of negative eigenvalues of the symmetric tridiagonal T
    with these bands, by one LAPACK bisection count (dstebz, Kahan's count
    of the pivots of the same recurrence as ``sturm_negatives``).  dstebz
    counts the eigenvalues at or below a point, so the strict count is n
    minus its count for -T at 0; an abstol of inf stops it before any
    bisection.  The pivots are bitwise those of ``sturm_negatives`` until
    one is (nearly) zero: dstebz moves a pivot below pivmin, an
    underflow-sized floor, to -pivmin, where the recurrence moves an exact
    zero pivot to eps times the largest entry, and it drops an off-diagonal
    e_j with e_j^2 below ulp^2 |d_j d_j+1|.  T of order below 2 goes to
    ``sturm_negatives``."""
    n = diag.shape[0]
    if n < 2:
        return sturm_negatives(diag, off)
    m, _, _, _, info = dstebz(-diag, -off, 1, -math.inf, 0.0, 0, 0, math.inf, "B")
    if info:
        raise EigensolverFailure(f"LAPACK dstebz failed (info {info})")
    return n - m


@dataclass(frozen=True, eq=False)
class SturmFactorization:
    """A tridiagonal pencil (matrix, gram), gram positive definite,
    factored by counts instead of eigenpairs.

    ``below(s)``, the number of pencil eigenvalues below s, is the number
    of negative LDL^T pivots of matrix - s * gram (Sylvester's law), one
    LAPACK count (``tridiagonal_negatives``) in O(n) per shift; counts are
    kept by shift.  It answers what :class:`Factorization` answers:
    ``inertia`` and ``band`` from counts at the band edges, eigenvalues by
    bisection, the kernel columns by inverse iteration at the eigenvalues
    inside the band, and ``solve`` by a banded solve
    (``solve_tridiagonal``).  ``scale`` is the spectral radius, by default
    found by bisection; a clamped pencil is given its parent's.
    """

    matrix: Tridiagonal
    gram: Tridiagonal
    scale: float | None = None
    counts: dict = field(default_factory=dict, init=False, repr=False)
    kernels: dict = field(default_factory=dict, init=False, repr=False)
    # a proven bound of the spectral radius; counts resolve 4 eps * reach
    reach: float = field(default=0.0, init=False, repr=False)

    def __post_init__(self):
        n = self.dim
        if n == 0:
            if self.scale is None:
                object.__setattr__(self, "scale", 0.0)
            return
        lo, hi = self._bounds()
        self.counts[lo], self.counts[hi] = 0, n
        object.__setattr__(self, "reach", max(-lo, hi))
        if self.scale is None:
            object.__setattr__(self, "scale", self._radius(lo, hi))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def _definite(self, s: float, sign: int) -> bool:
        """Whether sign * (matrix - s * gram) is positive definite, by a
        LAPACK LDL^T: then no eigenvalue lies below s (sign 1), or none at
        or above s (sign -1).  s * gram - matrix is formed directly: it is
        bitwise the negation of matrix - s * gram but for the sign of a
        zero, which no pivot test sees."""
        A, G = self.matrix, self.gram
        if sign > 0:
            return _ldl_definite(*A.shifted(s, G))
        return _ldl_definite(s * G.diag - A.diag, s * G.off - A.off)

    def _bounds(self) -> tuple[float, float]:
        """(lo, hi) with every eigenvalue in (lo, hi), each end proven by
        ``_definite``: the row-sum bound of matrix over a Gershgorin lower
        bound of gram, doubled until it holds."""
        floor = self.gram_floor
        r = self.matrix.row_sum_norm() / (floor if floor > 0.0 else float(np.min(self.gram.diag)))
        r = r if r > 0.0 else 1.0
        ends = []
        for sign in (1, -1):
            bound = -sign * r
            for _ in range(64):
                if self._definite(bound, sign):
                    break
                bound *= 2.0
            else:
                raise EigensolverFailure("no bound of the tridiagonal pencil's spectrum")
            ends.append(bound)
        return ends[0], ends[1]

    def _radius(self, lo: float, hi: float) -> float:
        """The spectral radius, its largest |eigenvalue| bisected to a
        relative 1e-13 on ``_definite``: the largest eigenvalue first, the
        smallest only when a count shows it may be larger in magnitude.
        The zero matrix has radius 0."""
        if not (np.any(self.matrix.diag) or np.any(self.matrix.off)):
            return 0.0
        rq = self.matrix.diag / self.gram.diag
        top = self._edge(float(np.max(rq)), hi, -1)
        if self._definite(-abs(top), 1):
            return abs(top)
        return abs(self._edge(lo, min(float(np.min(rq)), -abs(top)), 1))

    def _edge(self, lo: float, hi: float, sign: int) -> float:
        """The largest (sign -1) or smallest (sign 1) eigenvalue, given an
        interval (lo, hi) that holds it and whose far end is proven."""
        lo, hi = min(lo, hi), max(lo, hi)
        while hi - lo > max(1e-13 * max(abs(lo), abs(hi)), 4.0 * _EPS * self.reach):
            mid = 0.5 * (lo + hi)
            if not lo < mid < hi:
                break
            # sign -1: all eigenvalues below mid, so the largest is below
            if self._definite(mid, sign) == (sign < 0):
                hi = mid
            else:
                lo = mid
        return hi if sign < 0 else lo

    def below(self, s: float) -> int:
        """The number of eigenvalues below s."""
        count = self.counts.get(s)
        if count is None:
            count = self.counts[s] = tridiagonal_negatives(*self.matrix.shifted(s, self.gram))
        return count

    def band(self, tol: Tolerances) -> float:
        return zero_band(self.scale, tol)

    def inertia(self, tol: Tolerances) -> Inertia:
        """The zero-band rule (``classify_counts``) on the counts ``below``
        at the pencil's scale; the zero pencil is all zero, and marginal."""
        return Inertia(*classify_counts(self.below, self.dim, self.scale, tol))

    def eigenvalue(self, j: int) -> float:
        """Eigenvalue j in ascending order (from 0), bisected on counts to
        4 eps * reach.  Ends far apart on one side of 0 are split at their
        geometric mean, so an eigenvalue much smaller than the scale is
        reached in few counts.  Once an interval (L, H) holds eigenvalue j
        alone and the current one lies at least its own width inside it,
        its midpoint is three times closer to eigenvalue j than to any
        other, and Rayleigh quotient iteration (``_rayleigh``) is tried
        from there once; the bisection goes on only if it fails."""
        lo = max(s for s, c in self.counts.items() if c <= j)
        hi = min(s for s, c in self.counts.items() if c > j)
        alone, tried = None, False
        while hi - lo > 4.0 * _EPS * self.reach:
            if alone is None and self.counts[lo] == j and self.counts[hi] == j + 1:
                alone = (lo, hi)
            if (alone and not tried and lo - alone[0] >= hi - lo
                    and alone[1] - hi >= hi - lo):
                tried = True
                lam = self._rayleigh(*alone, 0.5 * (lo + hi))
                if lam is not None:
                    return lam
            if lo * hi > 0.0 and max(lo / hi, hi / lo) > 4.0:
                mid = math.copysign(math.sqrt(lo * hi), lo)
            else:
                mid = 0.5 * (lo + hi)
            if not lo < mid < hi:
                break
            if self.below(mid) <= j:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    def _rayleigh(self, lo: float, hi: float, shift: float) -> float | None:
        """The one eigenvalue in (lo, hi), or None: two steps of inverse
        iteration at ``shift``, which must lie closer to it than to any
        other eigenvalue, then Rayleigh quotient iteration until the
        quotient rho settles.  It is accepted when its residual bound
        |A x - rho G x| / sqrt(g) (g a Gershgorin floor of the gram, x
        gram-normalized), which some eigenvalue lies within, keeps it
        inside (lo, hi)."""
        if self.gram_floor <= 0.0:
            return None
        A, G = self.matrix, self.gram
        x, rho = self.start, shift
        for step in range(12):
            y = self._solve(*A.shifted(shift if step < 2 else rho, G), G.dot(x))
            x = y / math.sqrt(y.dot(G.dot(y)))
            Ax = A.dot(x)
            quotient = x.dot(Ax)
            settled, rho = abs(quotient - rho), quotient
            if step >= 2 and settled <= 1e-12 * self.scale:
                bound = float(np.linalg.norm(Ax - rho * G.dot(x))) / math.sqrt(self.gram_floor)
                return rho if lo < rho - bound and rho + bound < hi else None
        return None

    @cached_property
    def gram_floor(self) -> float:
        """min_i g_ii - |g_i,i-1| - |g_i,i+1|: by Gershgorin, when
        positive, a lower bound of the gram's smallest eigenvalue."""
        e = np.abs(self.gram.off)
        low = self.gram.diag.copy()
        low[:-1] -= e
        low[1:] -= e
        return float(np.min(low, initial=math.inf))

    @cached_property
    def start(self) -> np.ndarray:
        """A fixed start vector for inverse iteration."""
        return np.random.default_rng(0).uniform(-1.0, 1.0, self.dim)

    def near_zero(self) -> tuple:
        """(the largest eigenvalue below 0, the smallest at or above 0),
        None where the spectrum has none."""
        k = self.below(0.0)
        return (self.eigenvalue(k - 1) if k else None,
                self.eigenvalue(k) if k < self.dim else None)

    def kernel(self, tol: Tolerances) -> np.ndarray:
        """Gram-orthonormal eigenvectors of the eigenvalues inside the band,
        as columns."""
        tau = self.band(tol)
        K = self.kernels.get(tau)
        if K is None:
            cols: list[np.ndarray] = []
            counts = self.inertia(tol)
            for j in range(counts.negative, counts.negative + counts.zero):
                cols.append(self._eigenvector(self.eigenvalue(j), cols))
            K = np.stack(cols, axis=1) if cols else np.empty((self.dim, 0))
            self.kernels[tau] = K
        return K

    def _eigenvector(self, lam: float, prev: list) -> np.ndarray:
        """Inverse iteration at lam, gram-orthogonal to the columns prev."""
        x = self.start
        d, e = self.matrix.shifted(lam, self.gram)
        for _ in range(3):
            y = self._solve(d, e, self.gram.dot(x))
            for q in prev:
                y -= q * q.dot(self.gram.dot(y))
            x = y / math.sqrt(y.dot(self.gram.dot(y)))
        return x

    def _solve(self, d: np.ndarray, e: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """The banded solve with (d, e); a matrix so close to singular that
        LAPACK refuses it or the solution overflows is moved off its
        eigenvalue by eps * scale along the gram."""
        try:
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                x = solve_tridiagonal(d, e, rhs)
            if np.all(np.isfinite(x)):
                return x
        except np.linalg.LinAlgError:
            pass
        nudge = _EPS * (self.scale or 1.0)
        return solve_tridiagonal(d - nudge * self.gram.diag, e - nudge * self.gram.off, rhs)

    def split(self, tol: Tolerances):
        raise UnsupportedBackend("a tridiagonal pencil is factored by counts; only its "
                                 "kernel columns are formed")

    def range_cosine(self, f: np.ndarray, tol: Tolerances) -> float:
        """|Q^T f| / |f| for a Euclidean orthonormal basis Q of the kernel
        columns, 0 when the band is empty, as :class:`Factorization`."""
        return _cosine_to(self.kernel(tol), f)

    def solve(self, f: np.ndarray, tol: Tolerances) -> np.ndarray:
        """The u of ``Factorization.solve``: with K the kernel columns, the
        banded solve of A u = f - G K K^T f, then u - K K^T G u."""
        K = self.kernel(tol)
        u = self._solve(self.matrix.diag, self.matrix.off,
                        f - self.gram.dot(K.dot(K.T.dot(f))))
        return u - K.dot(K.T.dot(self.gram.dot(u)))


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
    return factor(form).inertia(tol)


def morse_index(form: SymmetricForm, tol: Tolerances | None = None) -> int:
    """dim of a maximal negative-definite subspace."""
    return inertia(form, tol).negative


def nullity(form: SymmetricForm, tol: Tolerances | None = None) -> int:
    """dim of the kernel of the form."""
    return inertia(form, tol).zero


def _is_identity(g: np.ndarray) -> bool:
    # n nonzeros, all of them ones on the diagonal; no n x n identity is built
    return (g.dtype != object and np.count_nonzero(g) == g.shape[0]
            and bool(np.all(np.diagonal(g) == 1.0)))


def factor(form: SymmetricForm) -> Factorization | SturmFactorization:
    """The form's factorization, computed once and kept on the form: one
    ``_eigh`` with eigenvectors on the floating backend, one congruence
    diagonalization on the exact backend, a :class:`SturmFactorization`
    for a tridiagonal pencil.  Counts, zero band, duals and witnesses all
    read it, so a form is never solved twice."""
    fac = form.factored
    if fac is None:
        if isinstance(form.matrix, Tridiagonal):
            fac = SturmFactorization(form.matrix, form.space.gram, form.parent_scale)
        elif form.exact:
            fac = _congruence_factorization(form.matrix)
        else:
            fac = _pencil_factorization(form.matrix, form.space.gram, form.parent_scale)
        object.__setattr__(form, "factored", fac)
    return fac


def _congruence_factorization(matrix: np.ndarray) -> Factorization:
    """One congruence diagonalization of the exact symmetric matrix."""
    C, diag = exactla.congruence_diagonalize(matrix)
    return Factorization(np.array(diag, dtype=object), C)


def _pencil_factorization(matrix: np.ndarray, gram: np.ndarray,
                          scale: float | None) -> Factorization:
    """One ``_eigh`` with eigenvectors of the dense float pencil (matrix,
    gram), the standard problem when gram is the identity."""
    return Factorization(*_eigh(matrix, None if _is_identity(gram) else gram), scale=scale)


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
    economic mode has the same R, so the same r.

    LAPACK dgeqp3 factors F^T and dorgqr forms Q, each with the workspace
    its own query returns, as ``scipy.linalg.qr(F.T, pivoting=True,
    mode=mode)`` calls them, so Q and the pivots are bitwise its results;
    the pivots are the diagonal of the factored array.  An empty F is
    split without LAPACK.  Raises ValueError on inf or NaN input."""
    k, m = F.shape
    if F.size == 0:
        return (np.eye(m) if mode == "full" else np.empty((m, 0))), 0
    if not np.isfinite(F).all():
        raise ValueError("array must not contain infs or NaNs")
    qr, _, tau = _queried(dgeqp3, F.T)
    d = np.abs(np.diag(qr))
    if m < k:
        qr = qr[:, :m]
    elif mode == "full":
        qr = np.concatenate([qr, np.empty((m, m - k))], axis=1)
    Q, = _queried(dorgqr, qr, tau, overwrite_a=1)
    r = int(np.sum(d > tol.rank * d[0])) if d[0] > 0 else 0
    return Q, r


def orthonormal_basis(K: np.ndarray) -> np.ndarray:
    """The Q of the reduced QR factorization of the float matrix K, whose
    columns are an orthonormal basis of K's columns when they are
    independent: LAPACK dgeqrf, then dorgqr, each with the workspace its
    own query returns, as ``np.linalg.qr(K)[0]`` calls them, so Q is
    bitwise its result; it is returned in C order, as numpy's, because
    products with it sum in an order set by its layout.  K without
    columns gives Q without columns."""
    m, n = K.shape
    if n == 0:
        return np.empty((m, 0))
    qr, tau = _queried(dgeqrf, K)
    Q, = _queried(dorgqr, qr[:, :m] if m < n else qr, tau, overwrite_a=1)
    return np.ascontiguousarray(Q)


def _queried(routine, *args, **kwargs) -> tuple:
    """The outputs of a LAPACK routine, less its work array and info, run
    with the workspace its lwork = -1 query returns."""
    lwork = routine(*args, lwork=-1, **kwargs)[-2][0]
    *out, _, info = routine(*args, lwork=int(lwork), **kwargs)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of LAPACK "
                         f"{routine.__name__.split()[-1]}")
    return tuple(out)


def restrict(form: SymmetricForm, constraints,
             tol: Tolerances | None = None) -> SymmetricForm:
    """The form pulled back to the joint kernel of the constraints: B^T A B
    on the space with gram B^T G B, where the columns of B span the kernel.

    Its inertia is what the oracle (``restricted_inertia``) counts, from
    the same pullback but without building this form.  Restricting by a
    full set of constraints yields the empty form on the zero-dimensional
    space.
    """
    tol = tol or form.space.tol
    sub = kernel_intersection(form.space, constraints, tol)
    return restrict_to(form, sub)


def restricted_inertia(form: SymmetricForm, constraints,
                       tol: Tolerances | None = None) -> Inertia:
    """The oracle: the inertia of the form on the joint kernel of the
    constraints, counted apart from every prediction.  A dense form is
    counted on B^T A B, the columns of B spanning the kernel, with no
    restricted form built: by one congruence diagonalization on the exact
    backend, where the gram never enters a count, and by one ``_eigh`` of
    the pencil (B^T A B, B^T G B) against the form's own band on the
    floating one.  B^T G B is positive definite by construction (B has
    independent columns and G was proven so), so it is not checked again.
    A tridiagonal pencil (A, G) is bordered instead: for C an orthonormal
    basis of the constraints by the rank rule of ``kernel_intersection``
    (r columns), [[A - s G, C], [C^T, 0]] has r + #(lambda < s) negative
    eigenvalues, lambda running over the constrained pencil (Haynsworth),
    which ``sturm_negatives`` counts in O(n) per row against the form's
    band."""
    tol = tol or form.space.tol
    if not isinstance(form.matrix, Tridiagonal):
        B = kernel_intersection(form.space, constraints, tol).basis
        A2 = _pullback(form.matrix, B)
        if form.exact:
            return Inertia(*exactla.inertia_counts(A2))
        # the rounding error of B^T A B scales with A, so A's band is kept
        fac = _pencil_factorization(A2, _pullback(form.space.gram, B), factor(form).scale)
        return fac.inertia(tol)
    F = np.array(constraints, dtype=float).reshape(len(constraints), form.dim)
    Q, r = float_row_split(F, tol, "economic")
    C = Q[:, :r]

    def below(s: float) -> int:
        return sturm_negatives(*form.matrix.shifted(s, form.space.gram), C) - r

    return Inertia(*classify_counts(below, form.dim - r, factor(form).scale, tol))


def _pullback(matrix: np.ndarray, B: np.ndarray) -> np.ndarray:
    """B^T M B for a symmetric dense M: exact, one Fraction per entry, on
    the exact backend; symmetrized after rounding on the floating one, by
    halves, so a finite B^T M B near the end of the float range does not
    overflow."""
    if matrix.dtype == object:
        return exactla.congruence(matrix, B)
    M = B.T.dot(matrix.dot(B))
    return 0.5 * M + 0.5 * M.T


def restrict_to(form: SymmetricForm, sub: Subspace) -> SymmetricForm:
    B = sub.basis
    G2 = _pullback(form.space.gram, B)
    child = SymmetricForm(InnerProductSpace(G2, form.space.tol), _pullback(form.matrix, B))
    if not form.exact:
        # the rounding error of B^T A B scales with A, so A's band is kept
        object.__setattr__(child, "parent_scale", factor(form).scale)
    return child


def rayleigh(form: SymmetricForm, u, tol: Tolerances | None = None):
    """(S(u, u) / <u, u>, zero band): S(u, u) counts as zero when the
    quotient lies in the band.  Floating u is scaled to unit largest entry
    first, so no square of a huge or tiny vector is formed, and then by
    2^-k for the least k >= 0 that keeps n^2 m 2^-2k, a bound of every
    partial sum of u^T A u and u^T G u when m is the largest entry of A
    and G, below 2^1023: the quotient is finite for every finite form,
    and a power of two changes no rounding short of underflow."""
    u = as_backend_vector(u, form.exact)
    band = 0 if form.exact else factor(form).band(tol or form.space.tol)
    if not np.any(u):
        return 0, band
    if not form.exact:
        u = u / np.max(np.abs(u))
        k = _headroom(form)
        if k > 0:
            u = u * math.ldexp(1.0, -k)
    return form.quadratic(u) / form.space.norm_sq(u), band


def _headroom(form: SymmetricForm, reach: int = 0) -> int:
    """The least k >= 0 that keeps n^2 m 2^(2 reach - 2k) below 2^1023, m
    the largest entry of A and G: a bound of every partial sum of x^T A y
    and x^T G y for x, y with entries below 2^reach (at most 1 for reach
    0), so none overflows once x and y are scaled by 2^-k."""
    m = max(_largest_entry(form.matrix), _largest_entry(form.space.gram))
    return max(0, (math.frexp(m)[1] + 2 * reach + 2 * form.dim.bit_length() - 1022) // 2)


def _largest_entry(matrix) -> float:
    """The largest absolute entry of a vector, or of a dense float or
    tridiagonal matrix."""
    if isinstance(matrix, Tridiagonal):
        return max(float(np.max(np.abs(matrix.diag), initial=0.0)),
                   float(np.max(np.abs(matrix.off), initial=0.0)))
    return float(np.max(np.abs(matrix), initial=0.0))


def s_project(form: SymmetricForm, u, v, tol: Tolerances | None = None) -> np.ndarray:
    """Component of v along u with respect to the form: (S(u,v)/S(u,u)) u.
    Floating u is first scaled by a power of two to a largest entry in
    [1/2, 1), so that a tiny u does not underflow S(u, u); then u and v are
    both scaled by the power of two of ``_headroom`` for their largest
    entry.  Powers of two leave the result bitwise unchanged short of
    underflow, so it is finite for every finite form."""
    u = as_backend_vector(u, form.exact)
    quotient, band = rayleigh(form, u, tol)
    if abs(quotient) <= band:
        raise IsotropicDirection("S(u, u) vanishes within the zero band")
    x, y = u, v
    if not form.exact:
        u = x = np.ldexp(u, -math.frexp(_largest_entry(u))[1])
        y = as_backend_vector(v, False)
        k = _headroom(form, math.frexp(max(_largest_entry(u), _largest_entry(y)))[1])
        if k > 0:
            x, y = u * math.ldexp(1.0, -k), y * math.ldexp(1.0, -k)
    return (form.evaluate(x, y) / form.quadratic(x)) * u


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
    quotient, band = rayleigh(form, u, tol)
    if not quotient < -band:
        raise NotNegativeDirection("S(u, u) must be negative beyond the zero band")
    vecs = list(factor(form).split(tol)[0].T)
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
