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

The weak index, Q on the kernel of the volume functional or of explicit
constraints, is predicted from the Robin factorization, whose kept
eigenvectors give the dual solves.  Its oracle takes another route: the
pencil is tridiagonal, so the counts of the restricted pencil come from
the LDL^T recurrence of the pencil bordered by the constraints, O(n) per
constraint and shift, instead of the dense restriction B^T A B and a
third eigensolve.  The Robin and Dirichlet spectra stay dense eigensolves
with vectors because they are printed, and the values-only LAPACK path
rounds them differently.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg

from .bilinear import (
    Factorization,
    Inertia,
    InnerProductSpace,
    SymmetricForm,
    _eigh,
    float_row_split,
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
    def interior(self) -> slice:
        """The interior nodes; a slice, so their blocks are views."""
        return slice(1, self.n_nodes - 1)

    @property
    def boundary(self) -> np.ndarray:
        return np.array([0, self.n_nodes - 1])

    @cached_property
    def robin_factorization(self) -> Factorization:
        """The Robin pencil (Qmat, Mmass) solved once, eigenvalues and
        eigenvectors, for both the index split and the weak index, whose
        dual solves read the eigenvectors.  Solved with vectors in any
        case: the values-only LAPACK path rounds differently (2e-8 apart at
        n = 1024 on a spectrum of radius 1e7), and these eigenvalues are
        printed in the spectrum report."""
        return Factorization(*_eigh(self.Qmat, self.Mmass))

    @property
    def robin(self) -> np.ndarray:
        """Eigenvalues of the Robin pencil, ascending."""
        return self.robin_factorization.values


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
    # D vanishes off the two boundary diagonal entries, so this block of
    # Qmat = K - P - D is bitwise that of K - P; the blocks are views, which
    # LAPACK copies once, and no n x n K - P is built
    i = problem.interior
    return _eigh(problem.Qmat[i, i], problem.Mmass[i, i])[0]


def _schur_boundary(problem: AssembledProblem) -> np.ndarray:
    """Boundary Schur complement T of A = K - P, the discrete
    Dirichlet-to-Neumann form on harmonic extensions."""
    bnd = problem.boundary
    A_BB = problem.K[np.ix_(bnd, bnd)] - problem.P[np.ix_(bnd, bnd)]
    if problem.n_nodes == 2:
        return A_BB
    # the interior rows of Qmat are those of K - P, as in dirichlet_spectrum
    i = problem.interior
    A_IB = problem.Qmat[i][:, bnd]
    T = A_BB - A_IB.T.dot(np.linalg.solve(problem.Qmat[i, i], A_IB))
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
    # the clamped pencil is solved first, while the n x n Robin eigenvectors
    # that the weak index reads are not yet held: a pde op's peak memory is
    # then one dense eigensolve's, not one plus those eigenvectors
    delta = dirichlet_spectrum(problem)
    lam = robin_spectrum(problem)
    scale = spectral_radius(lam)
    mi_neg, _, _, robin_marginal = classify_spectrum(lam, tol)
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
    oracle-checked.  The full-form counts and the dual solves read the
    Robin factorization; the oracle is counted on the tridiagonal pencil
    by :func:`_interval_oracle`."""
    form = SymmetricForm(InnerProductSpace(problem.Mmass, tol), problem.Qmat,
                         problem.robin_factorization)
    if isinstance(constraint, str):
        if constraint != "volume":
            raise InvalidCoefficients(f"unknown constraint kind {constraint!r}")
        phis = [volume_functional(problem)]
    elif isinstance(constraint, list):
        phis = [as_functional(p, exact=False) for p in constraint]
    else:
        phis = [as_functional(constraint, exact=False)]
    F = np.array([p.coeffs for p in phis]).reshape(len(phis), problem.n_nodes)
    return analyze(form, phis, tol, oracle=_interval_oracle(problem, F, tol))


def _interval_oracle(problem: AssembledProblem, F: np.ndarray,
                     tol: Tolerances) -> Inertia:
    """Inertia of the Robin pencil on the joint kernel of the rows of F,
    with the counts and marginal flag of ``inertia(restrict(form, F))``,
    in O(n) per row of F instead of a dense restriction and eigensolve.

    C, an orthonormal basis of F's row space, comes from the rank rule
    of ``kernel_intersection``, so Ker C^T is the space the dense oracle
    restricts to.  By Haynsworth's inertia additivity the bordered matrix
    [[Q - s M, C], [C^T, 0]] has r + #(lambda < s) negative eigenvalues,
    lambda running over the constrained pencil, and its LDL^T with the
    border last counts them (``_bordered_negatives``).  Counts below
    +-tau and +-(1 + marginal_factor) tau, tau the Robin pencil's zero
    band, give the semantics of ``classify_spectrum`` and
    ``near_band_edge``.
    """
    Q, r = float_row_split(F, tol, "economic")
    C = Q[:, :r]
    dim = problem.n_nodes - r
    if dim == 0:
        return Inertia(0, 0, 0)
    tau = problem.robin_factorization.band(tol)
    a, e = np.diagonal(problem.Qmat), np.diagonal(problem.Qmat, 1)
    m, mo = np.diagonal(problem.Mmass), np.diagonal(problem.Mmass, 1)

    def below(s: float) -> int:
        return _bordered_negatives(a - s * m, e - s * mo, C) - r

    edge = (1.0 + tol.marginal_factor) * tau
    neg, up = below(-tau), below(tau)
    return Inertia(neg, up - neg, dim - up, below(edge) - below(-edge) > 0)


def _bordered_negatives(diag: np.ndarray, off: np.ndarray, C: np.ndarray) -> int:
    """Negative pivots of the LDL^T of [[T, C], [C^T, 0]], T the symmetric
    tridiagonal matrix with diagonal ``diag`` and off-diagonal ``off``.

    T is eliminated first by the Sturm recurrence d_i = a_i - e_{i-1}^2 /
    d_{i-1} (Barth-Martin-Wilkinson), with a zero pivot replaced by
    eps * max |a|; the same pivots carry the border, y_i = c_i - l_{i-1}
    y_{i-1} with l_i = e_i / d_i, into the Schur complement
    S = -sum y_i y_i^T / d_i, whose eigenvalue signs are the border's
    pivots.
    """
    tiny = np.finfo(float).eps * float(np.max(np.abs(diag)))
    pivots = []
    pivot = 1.0
    for a, b in zip(diag.tolist(), [0.0] + off.tolist()):
        pivot = a - b * b / pivot
        if pivot == 0.0:
            pivot = tiny
        pivots.append(pivot)
    d = np.array(pivots)
    count = int(np.count_nonzero(d < 0.0))
    if C.shape[1] == 0:
        return count
    ratios = [0.0] + (off / d[:-1]).tolist()
    Y = np.empty_like(C)
    for j in range(C.shape[1]):
        y, col = 0.0, []
        for c, ratio in zip(C[:, j].tolist(), ratios):
            y = c - ratio * y
            col.append(y)
        Y[:, j] = col
    S = -(Y / d[:, None]).T.dot(Y)
    return count + int(np.count_nonzero(np.linalg.eigvalsh(S) < 0.0))


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
