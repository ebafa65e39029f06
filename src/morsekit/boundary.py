"""Discrete boundary index form on an interval.

The quadratic form Q(u, v) = int(u'v' - p u v) - q_a u(a)v(a) - q_b u(b)v(b)
is assembled with piecewise-linear finite elements on a uniform mesh, so
every matrix is tridiagonal and is held by its bands; the dense matrices
are built only on request.  Three spectra come from the same bands: the
Robin pencil (Qmat, Mmass) whose negative count is the Morse index of Q,
the clamped interior pencil giving the Dirichlet eigenvalues, and the
two-dimensional boundary Schur complement playing the role of the
Dirichlet-to-Neumann form on discrete harmonic extensions.  The headline
check is the exact matrix identity behind the index split MI(Q) = a + b:
block inertia additivity of Qmat partitioned into interior and boundary
nodes.

Both pencils are factored by Sturm counts (``SturmFactorization``, one
LAPACK dstebz count per shift): the counts at the band edges, the
eigenvalues nearest zero by bisection, and the boundary Schur complement
by one banded solve, all O(n) per shift.  The weak index, Q on the
kernel of the volume functional or of explicit constraints, is predicted
from the Robin factorization, whose banded solves give the duals.  Its
oracle is ``bilinear.restricted_inertia``, which counts a tridiagonal
form on another route with another count: the hand-written LDL^T
recurrence (``sturm_negatives``) of the pencil bordered by the
constraints, instead of a dense restriction B^T A B.
``robin_spectrum`` and ``dirichlet_spectrum`` stay as the dense O(n^3)
reference.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg

from .bilinear import (
    InnerProductSpace,
    SturmFactorization,
    SymmetricForm,
    Tridiagonal,
    _eigh,
    solve_tridiagonal,
)
from .constraints import ConstrainedReport, Functional, analyze, as_functional
from .errors import (
    DegenerateDirichletKernel,
    InvalidCoefficients,
    ZeroBoundaryWeight,
)
from .tolerances import DEFAULT, Tolerances, classify_spectrum, spectral_radius, zero_band

# 2-point Gauss offsets on the reference element [0, 1], weights 1/2 each
_GAUSS_XI = (0.5 - 0.5 / math.sqrt(3.0), 0.5 + 0.5 / math.sqrt(3.0))


@dataclass(frozen=True)
class IntervalDomain:
    a: float
    b: float
    n_elements: int

    def __post_init__(self):
        if not self.a < self.b:
            raise InvalidCoefficients("domain needs a < b")
        if self.n_elements < 1:
            raise InvalidCoefficients("need at least one element")

    @property
    def h(self) -> float:
        return (self.b - self.a) / self.n_elements

    @property
    def nodes(self) -> np.ndarray:
        return np.linspace(self.a, self.b, self.n_elements + 1)


@dataclass(frozen=True)
class Constant:
    value: float


@dataclass(frozen=True)
class Polynomial:
    """Polynomial potential, coefficients in ascending degree order."""

    coeffs: tuple


@dataclass(frozen=True)
class NodalSamples:
    """Potential given by its values at the mesh nodes, interpolated
    linearly inside each element."""

    values: tuple


@dataclass(frozen=True)
class CoefficientSpec:
    p: Constant | Polynomial | NodalSamples
    q_a: float
    q_b: float

    def __post_init__(self):
        if self.q_a < 0 or self.q_b < 0:
            raise InvalidCoefficients("boundary weights must be nonnegative")
        if isinstance(self.p, Polynomial) and len(self.p.coeffs) > 7:
            raise InvalidCoefficients("polynomial potentials above degree 6 "
                                      "are refused")


@dataclass(frozen=True, eq=False)
class AssembledProblem:
    """The bands of the stiffness, mass, potential and Robin matrices; the
    dense K, Mmass, P, D and Qmat = K - P - D are built on request."""

    domain: IntervalDomain
    coeffs: CoefficientSpec
    K_band: Tridiagonal
    M_band: Tridiagonal
    P_band: Tridiagonal
    Q_band: Tridiagonal

    @property
    def n_nodes(self) -> int:
        return self.K_band.shape[0]

    @property
    def K(self) -> np.ndarray:
        return self.K_band.todense()

    @property
    def Mmass(self) -> np.ndarray:
        return self.M_band.todense()

    @property
    def P(self) -> np.ndarray:
        return self.P_band.todense()

    @property
    def D(self) -> np.ndarray:
        D = np.zeros((self.n_nodes, self.n_nodes))
        D[0, 0] = self.coeffs.q_a
        D[-1, -1] = self.coeffs.q_b
        return D

    @property
    def Qmat(self) -> np.ndarray:
        return self.Q_band.todense()

    @cached_property
    def robin_factorization(self) -> SturmFactorization:
        """The Robin pencil (Qmat, Mmass), factored once for the index
        split and the weak index."""
        return SturmFactorization(self.Q_band, self.M_band)

    @cached_property
    def dirichlet_factorization(self) -> SturmFactorization:
        """The clamped pencil: the interior bands, whose Qmat block is that
        of K - P since D vanishes there, in the Robin pencil's band."""
        return SturmFactorization(self.Q_band.interior(), self.M_band.interior(),
                                  self.robin_factorization.scale)


@dataclass(frozen=True, eq=False)
class SteklovResult:
    """Pencil eigenvalues of T h = mu D_B h (math.inf marks directions
    with zero boundary weight) and b = negative inertia of T - D_B."""

    mu: tuple
    b: int
    marginal: bool


@dataclass(frozen=True, eq=False)
class SpectrumReport:
    """The index split; ``*_near_zero`` are each pencil's largest
    eigenvalue below 0 and smallest at or above 0 (None where there is
    none), ``scale`` the Robin spectral radius that sets the zero band."""

    robin_near_zero: tuple
    dirichlet_near_zero: tuple
    scale: float
    steklov: tuple
    a: int
    b: int
    mi_q: int
    decomposition_ok: bool
    degenerate: bool


@dataclass(frozen=True, eq=False)
class StabilityReport:
    levels: tuple
    mi_q: tuple
    a: tuple
    b: tuple
    weak: tuple
    decomposition_ok: tuple
    counts_stable: bool
    drift: dict
    warnings: tuple


def _potential_values(p, x: np.ndarray, domain: IntervalDomain) -> np.ndarray:
    if isinstance(p, Constant):
        return np.full_like(x, float(p.value))
    if isinstance(p, Polynomial):
        return np.polyval(list(reversed(p.coeffs)), x)
    if isinstance(p, NodalSamples):
        vals = np.asarray(p.values, dtype=float)
        if vals.shape[0] != domain.n_elements + 1:
            raise InvalidCoefficients("nodal sample count must match the mesh")
        return np.interp(x, domain.nodes, vals)
    raise InvalidCoefficients(f"unknown potential type {type(p).__name__}")


def assemble(domain: IntervalDomain, coeffs: CoefficientSpec) -> AssembledProblem:
    """Assembly of the stiffness, mass, potential, and Robin bands;
    Qmat = K - P - D, with D the boundary weights on the two end nodes.

    The potential integral uses 2-point Gauss per element, exact for
    constant and linear p against the piecewise-linear product basis.
    All elements are evaluated at once; each diagonal entry sums at most
    two element contributions, first the element on its right, so the
    bands are bitwise those of adding the element blocks one by one.
    """
    n = domain.n_elements
    h = domain.h
    left = domain.nodes[:-1]
    p_diag = np.zeros((n, 2))
    p_off = np.zeros(n)
    for xi in _GAUSS_XI:
        pval = (h / 2.0) * _potential_values(coeffs.p, left + xi * h, domain)
        p_diag += pval[:, None] * np.array([(1.0 - xi) * (1.0 - xi), xi * xi])
        p_off += pval * ((1.0 - xi) * xi)
    K = _banded(np.full(n, 1.0 / h), np.full(n, 1.0 / h), np.full(n, -1.0 / h))
    m_el = h / 6.0
    M = _banded(np.full(n, m_el * 2.0), np.full(n, m_el * 2.0), np.full(n, m_el))
    P = _banded(p_diag[:, 0], p_diag[:, 1], p_off)
    d = np.zeros(n + 1)
    d[0] = coeffs.q_a
    d[-1] = coeffs.q_b
    Q = Tridiagonal(K.diag - P.diag - d, K.off - P.off)
    return AssembledProblem(domain, coeffs, K_band=K, M_band=M, P_band=P, Q_band=Q)


def _banded(left: np.ndarray, right: np.ndarray, off: np.ndarray) -> Tridiagonal:
    """The sum of the symmetric 2x2 element blocks [[left[e], off[e]],
    [off[e], right[e]]] placed on nodes e and e + 1."""
    diag = np.zeros(left.shape[0] + 1)
    diag[:-1] += left
    diag[1:] += right
    return Tridiagonal(diag, off)


def robin_spectrum(problem: AssembledProblem) -> np.ndarray:
    """Eigenvalues of Qmat x = lambda Mmass x, ascending, by a dense
    eigensolve: the O(n^3) reference for the Robin factorization, whose
    count below the zero band is the Morse index of the discrete form."""
    return _eigh(problem.Qmat, problem.Mmass, vectors=False)[0]


def dirichlet_spectrum(problem: AssembledProblem) -> np.ndarray:
    """Eigenvalues of the clamped problem, the interior block of K - P
    against the interior mass block, by a dense eigensolve: the O(n^3)
    reference for the Dirichlet factorization."""
    i = slice(1, problem.n_nodes - 1)
    return _eigh(problem.Qmat[i, i], problem.Mmass[i, i], vectors=False)[0]


def _schur_boundary(problem: AssembledProblem) -> np.ndarray:
    """Boundary Schur complement T of A = K - P, the discrete
    Dirichlet-to-Neumann form on harmonic extensions."""
    K, P = problem.K_band, problem.P_band
    if problem.n_nodes == 2:
        return K.todense() - P.todense()
    # node 0 couples only to node 1 and node n only to node n - 1, through
    # the off-diagonals of Qmat, which are those of K - P
    e = problem.Q_band.off
    interior = problem.Q_band.interior()
    A_IB = np.zeros((problem.n_nodes - 2, 2))
    A_IB[0, 0], A_IB[-1, 1] = e[0], e[-1]
    X = solve_tridiagonal(interior.diag, interior.off, A_IB)
    T = np.diag([K.diag[0] - P.diag[0], K.diag[-1] - P.diag[-1]]) - A_IB.T.dot(X)
    return 0.5 * (T + T.T)


def steklov_spectrum(problem: AssembledProblem,
                     tol: Tolerances = DEFAULT) -> SteklovResult:
    """Boundary pencil eigenvalues and the inertia count b.

    Requires a nonsingular clamped operator (no Dirichlet eigenvalue
    inside the zero band) and at least one positive boundary weight.
    b is always the negative inertia of T - D_B; when both weights are
    positive this equals the number of pencil eigenvalues below 1.  The
    clamped inertia is counted in the band of the Robin pencil.
    """
    q_a, q_b = problem.coeffs.q_a, problem.coeffs.q_b
    if q_a + q_b <= 0:
        raise ZeroBoundaryWeight("both boundary weights vanish")
    if problem.dirichlet_factorization.inertia(tol).zero:
        raise DegenerateDirichletKernel(
            "a Dirichlet eigenvalue sits in the zero band; the boundary "
            "reduction is singular at this potential")
    T = _schur_boundary(problem)
    D_B = np.diag([q_a, q_b])
    w = np.linalg.eigvalsh(T - D_B)
    neg, zero, _, marginal = classify_spectrum(w, tol)
    b = neg
    if q_a > 0 and q_b > 0:
        mu = tuple(float(v) for v in scipy.linalg.eigh(T, D_B, eigvals_only=True))
    else:
        # one zero weight: eliminate its direction; one finite eigenvalue
        # survives, the other escapes to infinity
        pos, free = (0, 1) if q_a > 0 else (1, 0)
        weight = q_a if q_a > 0 else q_b
        # T[free, free] is the Rayleigh quotient of T - D_B on that direction
        if abs(T[free, free]) <= zero_band(spectral_radius(w), tol):
            mu = (math.inf, math.inf)
            marginal = True
        else:
            finite = (T[pos, pos] - T[pos, free] * T[free, pos] / T[free, free]) / weight
            mu = tuple(sorted((float(finite), math.inf)))
    return SteklovResult(mu=mu, b=b, marginal=marginal or zero > 0)


def verify_decomposition(problem: AssembledProblem,
                         tol: Tolerances = DEFAULT) -> SpectrumReport:
    """Check the index split: Morse index of Q equals the non-positive
    Dirichlet count a plus the boundary inertia count b.

    On the discrete level this is inertia additivity for the block
    partition of Qmat into interior and boundary nodes, so away from
    marginal eigenvalues the equality is exact.
    """
    robin = problem.robin_factorization
    clamped = problem.dirichlet_factorization
    full = robin.inertia(tol)
    d = clamped.inertia(tol)
    a = d.negative + d.zero
    stek = steklov_spectrum(problem, tol)
    return SpectrumReport(
        robin_near_zero=robin.near_zero(),
        dirichlet_near_zero=clamped.near_zero(),
        scale=robin.scale,
        steklov=stek.mu,
        a=a,
        b=stek.b,
        mi_q=full.negative,
        decomposition_ok=(full.negative == a + stek.b),
        degenerate=full.marginal or d.marginal or stek.marginal,
    )


def volume_functional(problem: AssembledProblem) -> Functional:
    """Discrete integral functional phi(v) = 1^T Mmass v."""
    return Functional(problem.M_band.dot(np.ones(problem.n_nodes)))


def weak_index(problem: AssembledProblem, constraint="volume",
               tol: Tolerances = DEFAULT) -> ConstrainedReport:
    """Morse index of Q restricted to mean-zero variations, or to the joint
    kernel of one functional or a list of them, predicted and
    oracle-checked.  The form holds the Robin bands and their cached
    factorization, which gives the full-form counts and the banded dual
    solves; being tridiagonal, it has its oracle counted on the bordered
    pencil (``bilinear.restricted_inertia``)."""
    form = SymmetricForm(InnerProductSpace(problem.M_band, tol), problem.Q_band,
                         problem.robin_factorization)
    if isinstance(constraint, str):
        if constraint != "volume":
            raise InvalidCoefficients(f"unknown constraint kind {constraint!r}")
        phis = [volume_functional(problem)]
    elif isinstance(constraint, list):
        phis = [as_functional(p, exact=False) for p in constraint]
    else:
        phis = [as_functional(constraint, exact=False)]
    return analyze(form, phis, tol)


def refine_and_check(problem: AssembledProblem, levels,
                     tol: Tolerances = DEFAULT) -> StabilityReport:
    """Recompute all integer outputs across mesh refinements.

    Counts that move between levels, marginal spectra, and limits that
    extrapolate into the zero band are reported as warnings instead of
    being asserted away.
    """
    levels = tuple(int(n) for n in levels)
    if any(b <= a for a, b in zip(levels, levels[1:])):
        raise InvalidCoefficients("refinement levels must increase")
    dom = problem.domain
    coeffs = problem.coeffs
    has_q = coeffs.q_a + coeffs.q_b > 0
    mi_list, a_list, b_list, weak_list, ok_list = [], [], [], [], []
    lam1, del1 = [], []
    warnings: list[str] = []
    for n in levels:
        domain_n = IntervalDomain(dom.a, dom.b, n)
        coeffs_n = coeffs
        if isinstance(coeffs.p, NodalSamples):
            old = np.asarray(coeffs.p.values, dtype=float)
            old_nodes = np.linspace(dom.a, dom.b, old.shape[0])
            resampled = np.interp(domain_n.nodes, old_nodes, old)
            coeffs_n = CoefficientSpec(NodalSamples(tuple(resampled)),
                                       coeffs.q_a, coeffs.q_b)
        prob_n = assemble(domain_n, coeffs_n)
        robin = prob_n.robin_factorization.inertia(tol)
        mi_list.append(robin.negative)
        lam1.append(_nearest(prob_n.robin_factorization.near_zero()))
        del1.append(_nearest(prob_n.dirichlet_factorization.near_zero()))
        if robin.marginal:
            warnings.append(f"n={n}: marginal Robin spectrum")
        if has_q:
            try:
                rep = verify_decomposition(prob_n, tol)
                a_list.append(rep.a)
                b_list.append(rep.b)
                ok_list.append(rep.decomposition_ok)
                if rep.degenerate:
                    warnings.append(f"n={n}: marginal decomposition spectra")
            except DegenerateDirichletKernel:
                a_list.append(None)
                b_list.append(None)
                ok_list.append(None)
                warnings.append(f"n={n}: Dirichlet kernel degenerate")
        else:
            a_list.append(None)
            b_list.append(None)
            ok_list.append(None)
        weak_rep = weak_index(prob_n, "volume", tol)
        weak_list.append(weak_rep.mi_constrained_oracle)
        if not weak_rep.agreement:
            warnings.append(f"n={n}: weak index prediction disagrees with oracle")
    drift = {
        "robin_nearest_zero": tuple(lam1),
        "dirichlet_nearest_zero": tuple(del1),
        "robin_diffs": tuple(y - x for x, y in zip(lam1, lam1[1:])),
        "dirichlet_diffs": tuple(y - x for x, y in zip(del1, del1[1:])),
    }
    for name, series in (("robin", lam1), ("dirichlet", del1)):
        flag = _limit_unresolved(series)
        if flag:
            warnings.append(f"{name} eigenvalue nearest zero extrapolates into "
                            "the zero band; its limiting sign is unresolved")
    counts_stable = (len(set(mi_list)) == 1 and len(set(weak_list)) == 1
                     and len(set(a_list)) == 1 and len(set(b_list)) == 1)
    return StabilityReport(
        levels=levels,
        mi_q=tuple(mi_list),
        a=tuple(a_list),
        b=tuple(b_list),
        weak=tuple(weak_list),
        decomposition_ok=tuple(ok_list),
        counts_stable=counts_stable,
        drift=drift,
        warnings=tuple(warnings),
    )


def _nearest(pair: tuple) -> float:
    """The eigenvalue of a near-zero pair closer to 0, the lower one on a
    tie; nan for an empty spectrum."""
    values = [v for v in pair if v is not None]
    return min(values, key=abs) if values else float("nan")


def _limit_unresolved(values: list) -> bool:
    """True when the sequence drifts toward zero faster than it stays
    away from it: the extrapolated limit is smaller than the last step."""
    if len(values) < 3:
        return False
    last, prev = values[-1], values[-2]
    step = abs(last - prev)
    if step == 0.0:
        return False
    # geometric extrapolation from the last two steps
    prev_step = abs(prev - values[-3])
    if prev_step == 0.0:
        return False
    rho = step / prev_step
    if rho >= 1.0:
        return False
    limit = last + (last - prev) * rho / (1.0 - rho)
    return abs(limit) <= step
