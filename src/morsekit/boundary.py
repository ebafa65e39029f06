"""Discrete boundary index form on an interval.

The quadratic form Q(u, v) = int(u'v' - p u v) - q_a u(a)v(a) - q_b u(b)v(b)
is assembled with piecewise-linear finite elements on a uniform mesh.
Three spectra are computed from the same matrices: the Robin pencil
(Qmat, Mmass) whose negative count is the Morse index of Q, the clamped
interior pencil giving the Dirichlet eigenvalues, and the two-dimensional
boundary Schur complement playing the role of the Dirichlet-to-Neumann
form on discrete harmonic extensions.  The headline check is the exact
matrix identity behind the index split MI(Q) = a + b: block inertia
additivity of Qmat partitioned into interior and boundary nodes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg

from .bilinear import Factorization, InnerProductSpace, SymmetricForm, _eigh
from .constraints import ConstrainedReport, Functional, analyze
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
    domain: IntervalDomain
    coeffs: CoefficientSpec
    K: np.ndarray
    Mmass: np.ndarray
    P: np.ndarray
    D: np.ndarray
    Qmat: np.ndarray

    @property
    def n_nodes(self) -> int:
        return self.K.shape[0]

    @property
    def interior(self) -> np.ndarray:
        return np.arange(1, self.n_nodes - 1)

    @property
    def boundary(self) -> np.ndarray:
        return np.array([0, self.n_nodes - 1])

    @cached_property
    def robin(self) -> np.ndarray:
        """Eigenvalues of the Robin pencil (Qmat, Mmass), computed once for
        both the index split and the weak index; the eigenvectors are not
        kept.  They are still computed: the values-only LAPACK path rounds
        differently (2e-8 apart at n = 1024 on a spectrum of radius 1e7),
        and these eigenvalues are printed in the spectrum report."""
        return _eigh(self.Qmat, self.Mmass)[0]


@dataclass(frozen=True, eq=False)
class SteklovResult:
    """Pencil eigenvalues of T h = mu D_B h (math.inf marks directions
    with zero boundary weight) and b = negative inertia of T - D_B."""

    mu: tuple
    b: int
    marginal: bool


@dataclass(frozen=True, eq=False)
class SpectrumReport:
    robin: np.ndarray
    dirichlet: np.ndarray
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
    """Assembly of stiffness, mass, potential, and boundary matrices;
    Qmat = K - P - D.

    The potential integral uses 2-point Gauss per element, exact for
    constant and linear p against the piecewise-linear product basis.
    All elements are evaluated at once; each entry sums at most two
    element contributions, so the result is bitwise that of adding the
    element blocks one by one.
    """
    n = domain.n_elements
    h = domain.h
    left = domain.nodes[:-1]
    size = n + 1
    k_el = (1.0 / h) * np.array([[1.0, -1.0], [-1.0, 1.0]])
    m_el = (h / 6.0) * np.array([[2.0, 1.0], [1.0, 2.0]])
    p_el = np.zeros((n, 2, 2))
    for xi in _GAUSS_XI:
        pval = _potential_values(coeffs.p, left + xi * h, domain)
        shape = np.array([1.0 - xi, xi])
        p_el += ((h / 2.0) * pval)[:, None, None] * np.outer(shape, shape)
    D = np.zeros((size, size))
    D[0, 0] = coeffs.q_a
    D[-1, -1] = coeffs.q_b
    K = _scatter(np.broadcast_to(k_el, (n, 2, 2)), size)
    M = _scatter(np.broadcast_to(m_el, (n, 2, 2)), size)
    P = _scatter(p_el, size)
    return AssembledProblem(domain, coeffs, K=K, Mmass=M, P=P, D=D,
                            Qmat=K - P - D)


def _scatter(blocks: np.ndarray, size: int) -> np.ndarray:
    """The sum of the 2x2 element blocks[e] placed on nodes e and e + 1."""
    out = np.zeros((size, size))
    e = np.arange(blocks.shape[0])
    for i in (0, 1):
        for j in (0, 1):
            out[e + i, e + j] += blocks[:, i, j]
    return out


def robin_spectrum(problem: AssembledProblem) -> np.ndarray:
    """Eigenvalues of Qmat x = lambda Mmass x, ascending; the count below
    the zero band is the Morse index of the discrete form."""
    return problem.robin


def dirichlet_spectrum(problem: AssembledProblem) -> np.ndarray:
    """Eigenvalues of the clamped problem: interior block of K - P against
    the interior mass block: the Robin pencil on the interior nodes.
    Solved with vectors, as the Robin pencil is, because the values-only
    LAPACK path rounds differently and these eigenvalues are printed."""
    idx = problem.interior
    A = (problem.K - problem.P)[np.ix_(idx, idx)]
    M = problem.Mmass[np.ix_(idx, idx)]
    return _eigh(A, M)[0]


def _schur_boundary(problem: AssembledProblem) -> np.ndarray:
    """Boundary Schur complement T of A = K - P, the discrete
    Dirichlet-to-Neumann form on harmonic extensions."""
    A = problem.K - problem.P
    i = problem.interior
    bnd = problem.boundary
    A_BB = A[np.ix_(bnd, bnd)]
    if i.size == 0:
        return A_BB
    A_II = A[np.ix_(i, i)]
    A_IB = A[np.ix_(i, bnd)]
    T = A_BB - A_IB.T.dot(np.linalg.solve(A_II, A_IB))
    return 0.5 * (T + T.T)


def steklov_spectrum(problem: AssembledProblem,
                     tol: Tolerances = DEFAULT) -> SteklovResult:
    """Boundary pencil eigenvalues and the inertia count b.

    Requires a nonsingular clamped operator (no Dirichlet eigenvalue
    inside the zero band) and at least one positive boundary weight.
    b is always the negative inertia of T - D_B; when both weights are
    positive this equals the number of pencil eigenvalues below 1.
    """
    return _steklov(problem, dirichlet_spectrum(problem),
                    spectral_radius(problem.robin), tol)


def _steklov(problem: AssembledProblem, delta: np.ndarray, scale: float,
             tol: Tolerances) -> SteklovResult:
    """steklov_spectrum given the Dirichlet eigenvalues delta, in the band
    of the Robin pencil's spectral radius ``scale``."""
    q_a, q_b = problem.coeffs.q_a, problem.coeffs.q_b
    if q_a + q_b <= 0:
        raise ZeroBoundaryWeight("both boundary weights vanish")
    if delta.size and np.min(np.abs(delta)) <= zero_band(scale, tol):
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
    lam = robin_spectrum(problem)
    scale = spectral_radius(lam)
    mi_neg, _, _, robin_marginal = classify_spectrum(lam, tol)
    delta = dirichlet_spectrum(problem)
    d_neg, d_zero, _, dirichlet_marginal = classify_spectrum(delta, tol, scale)
    a = d_neg + d_zero
    stek = _steklov(problem, delta, scale, tol)
    degenerate = robin_marginal or dirichlet_marginal or stek.marginal
    return SpectrumReport(
        robin=lam,
        dirichlet=delta,
        steklov=stek.mu,
        a=a,
        b=stek.b,
        mi_q=mi_neg,
        decomposition_ok=(mi_neg == a + stek.b),
        degenerate=degenerate,
    )


def volume_functional(problem: AssembledProblem) -> Functional:
    """Discrete integral functional phi(v) = 1^T Mmass v."""
    return Functional(problem.Mmass.dot(np.ones(problem.n_nodes)))


def weak_index(problem: AssembledProblem, constraint="volume",
               tol: Tolerances = DEFAULT) -> ConstrainedReport:
    """Morse index of Q restricted to mean-zero variations, or to the joint
    kernel of one functional or a list of them, predicted and
    oracle-checked; the full-form counts are read off the Robin spectrum."""
    form = SymmetricForm(InnerProductSpace(problem.Mmass, tol), problem.Qmat,
                         Factorization(robin_spectrum(problem)))
    if isinstance(constraint, str):
        if constraint != "volume":
            raise InvalidCoefficients(f"unknown constraint kind {constraint!r}")
        phis = [volume_functional(problem)]
    elif isinstance(constraint, list):
        phis = constraint
    else:
        phis = [constraint]
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
        lam = robin_spectrum(prob_n)
        neg, _, _, lam_marg = classify_spectrum(lam, tol)
        mi_list.append(neg)
        lam1.append(float(lam[np.argmin(np.abs(lam))]))
        delta = dirichlet_spectrum(prob_n)
        del1.append(float(delta[np.argmin(np.abs(delta))]) if delta.size
                    else float("nan"))
        if lam_marg:
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
