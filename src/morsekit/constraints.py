"""Predicting index and nullity changes under linear constraints.

A constraint is a linear functional phi(v) = f . v, with a dual u, A u = f,
when f lies in the range of A.  One formula predicts every constraint set.
Let Phi be the span of the nonzero functionals, k = dim Phi, and Phi_R its
part that vanishes on Ker A, k0 = dim Phi_R; let M[i, j] = S(u_i, u_j) pair
the duals of a basis of Phi_R (compare Maddocks' restricted quadratic
forms, 1985).  On the joint kernel the Morse index is mi - (neg + zero)(M)
and the nullity null + zero(M) - (k - k0); for one constraint that is its
``BRANCH_EFFECT`` entry by the sign of phi(u).  ``analyze`` checks every
prediction against the restriction oracle of :mod:`morsekit.bilinear`
(``restricted_inertia``) and reports whether they agree.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import exactla
from .bilinear import (
    Factorization,
    InnerProductSpace,
    SymmetricForm,
    _congruence_factorization,
    _pencil_factorization,
    _pullback,
    as_backend_vector,
    factor,
    float_row_split,
    inertia,
    orthonormal_basis,
    rayleigh,
    restricted_inertia,
)
from .errors import DependentInput, ImpossibleCounts, TrivialFunctional
from .tolerances import Tolerances, classify_spectrum


# What one constraint does to the counts, by the branch its dual solve
# lands in: branch -> (drop of the Morse index, change of the nullity).
BRANCH_EFFECT = {
    "negative": (1, 0),
    "zero": (1, 1),
    "positive": (0, 0),
    "out_of_range": (0, -1),
}


@dataclass(frozen=True, eq=False)
class Functional:
    """Linear functional phi(v) = coeffs . v on a coordinate space."""

    coeffs: np.ndarray

    @property
    def dim(self) -> int:
        return self.coeffs.shape[0]

    def __call__(self, v) -> object:
        return self.coeffs.dot(np.asarray(v, dtype=self.coeffs.dtype))

    def is_zero(self) -> bool:
        return not np.any(self.coeffs)


def as_functional(phi, exact: bool) -> Functional:
    if isinstance(phi, Functional):
        if (phi.coeffs.dtype == object) == exact:
            return phi
        phi = phi.coeffs
    return Functional(as_backend_vector(phi, exact))


@dataclass(frozen=True, eq=False)
class SolveOutcome:
    """Result of deciding f in range(A) and solving A u = f.

    status is "in_range" (u and phi_of_u populated) or "not_in_range"
    (kernel_component is a kernel vector z of A with phi(z) != 0, the
    witness that no solution exists).  residual is the range cosine the
    decision read (``Factorization.range_cosine``): on the floating
    backend the cosine of the angle between f and Ker(A), on the exact
    one 0 in range and 1 out of it.
    """

    status: str
    u: np.ndarray | None = None
    phi_of_u: object | None = None
    kernel_component: np.ndarray | None = None
    residual: float = 0.0
    warnings: tuple[str, ...] = ()

    @property
    def in_range(self) -> bool:
        return self.status == "in_range"


@dataclass(frozen=True, eq=False)
class Decision:
    """One constraint's branch, its ``BRANCH_EFFECT`` entry, whether the
    sign of phi(u) sat near the zero band, and the dual solve behind it."""

    branch: str
    drop: int
    change: int
    marginal: bool
    outcome: SolveOutcome


@dataclass(frozen=True, eq=False)
class MultiConstraintReport:
    """The joint prediction for a constraint set: the duals of a basis of
    Phi_R, the form on their span (None when Phi_R is empty), the index
    drop and nullity change, and the warnings raised on the way."""

    duals: list
    gram_matrix: np.ndarray | None
    drop: int
    change: int
    warnings: tuple[str, ...] = ()


@dataclass(frozen=True, eq=False)
class ConstrainedReport:
    """Side-by-side theorem prediction and restriction-oracle truth."""

    mi_full: int
    nullity_full: int
    mi_constrained_oracle: int
    nullity_constrained_oracle: int
    mi_constrained_predicted: int
    nullity_constrained_predicted: int
    s_critical: tuple
    agreement: bool
    warnings: tuple[str, ...] = ()


def riesz(space: InnerProductSpace, phi) -> np.ndarray:
    """The vector representing phi in the inner product: gram . rep = f."""
    phi = as_functional(phi, space.exact)
    if space.exact:
        return exactla.solve_general(space.gram, phi.coeffs)
    return np.linalg.solve(space.gram, phi.coeffs)


def _marginal_cosines(cosines, what: str, tol: Tolerances) -> tuple[str, ...]:
    """A warning for each range cosine within a factor marginal_factor of
    the floating cutoff ``tol.residual``."""
    cutoff, mf = tol.residual, tol.marginal_factor
    return tuple(f"range cosine {c:.3e} of {what} is marginal against cutoff {cutoff:.1e}"
                 for c in cosines if cutoff / mf <= c <= cutoff * mf)


def solve_dual(form: SymmetricForm, phi,
               tol: Tolerances | None = None) -> SolveOutcome:
    """Decide whether the constraint has a dual vector and produce it.

    Both backends read the form's one factorization.  f is in range(A) =
    Ker(A)^perp when its ``range_cosine`` against the zero columns K is at
    most the cutoff: 0 on the exact backend, ``tol.residual`` on the
    floating one, where a cosine within a factor ``marginal_factor`` of
    the cutoff raises a warning either way.  The dual is
    ``Factorization.solve``; the not-in-range witness is the
    gram-orthogonal projection of phi's representing vector onto Ker(A),
    which pairs positively with phi.
    """
    tol = tol or form.space.tol
    f = as_functional(phi, form.exact).coeffs
    fac = factor(form)
    cosine = fac.range_cosine(f, tol)
    cutoff = 0 if form.exact else tol.residual
    warnings = () if form.exact else _marginal_cosines([cosine], "the dual solve", tol)
    if cosine <= cutoff:
        u = fac.solve(f, tol)
        return SolveOutcome("in_range", u=u, phi_of_u=f.dot(u), residual=cosine,
                            warnings=warnings)
    K = fac.kernel(tol)
    if form.exact:
        z = K.dot(exactla.solve_general(exactla.congruence(form.space.gram, K), K.T.dot(f)))
    else:
        # the floating columns are gram-orthonormal: K^T G K = I
        z = K.dot(K.T.dot(f))
    return SolveOutcome("not_in_range", kernel_component=z, residual=cosine,
                        warnings=warnings)


def decide(form: SymmetricForm, phi, tol: Tolerances | None = None) -> Decision:
    """Solve the dual of one nonzero constraint and look its effect up in
    ``BRANCH_EFFECT`` by the sign of phi(u) = S(u, u), or by the lack of
    a dual.  On the floating backend the sign is the zero-band rule's
    count of the Rayleigh quotient S(u, u) / <u, u>."""
    tol = tol or form.space.tol
    phi = as_functional(phi, form.exact)
    if phi.is_zero():
        raise TrivialFunctional("the zero functional imposes no constraint")
    outcome = solve_dual(form, phi, tol)
    branch, marginal = "out_of_range", False
    if outcome.in_range:
        val = outcome.phi_of_u
        if not form.exact:
            neg, _, pos, marginal = classify_spectrum([rayleigh(form, outcome.u, tol)[0]], tol,
                                                      factor(form).scale)
            val = pos - neg
        branch = "zero" if val == 0 else "negative" if val < 0 else "positive"
    return Decision(branch, *BRANCH_EFFECT[branch], marginal, outcome)


def predict_index_drop(form: SymmetricForm, phi,
                       tol: Tolerances | None = None) -> int:
    """How much the Morse index falls on Ker(phi): 1 iff a dual u exists
    with phi(u) <= 0, else 0."""
    return decide(form, phi, tol).drop


def predict_nullity_change(form: SymmetricForm, phi,
                           tol: Tolerances | None = None) -> int:
    """Nullity on Ker(phi) minus full nullity: +1 when the dual lies in
    Ker(phi), -1 when f misses the range of A, 0 otherwise."""
    return decide(form, phi, tol).change


def is_s_critical(form: SymmetricForm, phi, tol: Tolerances | None = None) -> bool:
    """True when cutting by phi lowers the Morse index, equivalently when
    every maximal negative subspace meets the constraint nontrivially."""
    return predict_index_drop(form, phi, tol) == 1


def _row_space(form: SymmetricForm, rows: list[np.ndarray], tol: Tolerances) -> np.ndarray:
    """A basis of the rows' span as columns: the reduced rows of the RREF
    (exact), or orthonormal by the rank rule of ``kernel_intersection``."""
    F = np.stack(rows, axis=0)
    if form.exact:
        R, pivots = exactla.rref(F)
        return np.array(R[:len(pivots)], dtype=object).reshape(len(pivots), F.shape[1]).T
    Q, r = float_row_split(F, tol, "economic")
    return Q[:, :r]


def _range_duals(form: SymmetricForm, basis: np.ndarray, tol: Tolerances, warnings: list) -> list:
    """The duals of a basis of Phi_R: the combinations B c that vanish on
    Ker(A).  For orthonormal floating B, B c is in range when its cosine to
    Ker(A), a singular value of Q^T B for Q orthonormal on Ker(A), passes
    ``solve_dual``'s absolute cutoff and marginal test (``_marginal_cosines``)."""
    fac = factor(form)
    K = fac.kernel(tol)
    if form.exact:
        coords = exactla.nullspace(K.T.dot(basis))
    else:
        _, sigma, Vt = np.linalg.svd(orthonormal_basis(K).T.dot(basis))
        sigma = np.concatenate([sigma, np.zeros(basis.shape[1] - sigma.size)])
        warnings.extend(_marginal_cosines(sigma, "the constraint span", tol))
        coords = Vt[sigma <= tol.residual]
    return [fac.solve(basis.dot(c), tol) for c in coords]


def _on_span(form: SymmetricForm, duals: list) -> tuple[np.ndarray, np.ndarray, Factorization]:
    """(U, M, its factorization): the form on the span of the duals as the
    pairing matrix M = U^T A U in a basis U of that span, factored as the
    oracle factors B^T A B, with no form built around it.  Exact: U is the
    duals, and M is diagonalized by congruence (its counts never read a
    gram).  Floating: U is orthonormal, which does not square the duals'
    conditioning, and the pencil (M, U^T G U) is solved against the
    form's own band."""
    U = np.stack(duals, axis=1)
    if form.exact:
        M = exactla.congruence(form.matrix, U)
        return U, M, _congruence_factorization(M)
    U = orthonormal_basis(U)
    M = _pullback(form.matrix, U)
    return U, M, _pencil_factorization(M, _pullback(form.space.gram, U), factor(form).scale)


def predict_multi(form: SymmetricForm, phis,
                  tol: Tolerances | None = None) -> MultiConstraintReport:
    """Joint index drop and nullity change for any constraint set.

    M[i, j] = S(u_i, u_j) pairs the duals of a basis of Phi_R
    (``_range_duals``).  The index drops by (neg + zero)(M), and the
    nullity changes by zero(M) less the k - k0 directions of Phi that miss
    the range of A.  M is read as the form on the span of the duals
    (``gram_matrix``; see ``_on_span`` for its basis).  Zero functionals
    span nothing and change nothing.
    """
    tol = tol or form.space.tol
    warnings: list[str] = []
    basis = _row_space(form, [as_functional(p, form.exact).coeffs for p in phis], tol)
    duals = _range_duals(form, basis, tol, warnings)
    drop, change, gram = 0, len(duals) - basis.shape[1], None
    if duals:
        _, gram, pairing = _on_span(form, duals)
        counts = pairing.inertia(tol)
        if counts.marginal:
            warnings.append("pairing matrix spectrum has marginal eigenvalues")
        drop, change = counts.negative + counts.zero, change + counts.zero
    return MultiConstraintReport(duals, gram, drop, change, tuple(warnings))


def diagonalize_duals(form: SymmetricForm, duals,
                      tol: Tolerances | None = None) -> list[np.ndarray]:
    """Replace duals by a basis of the same span that is S-orthogonal."""
    tol = tol or form.space.tol
    duals = [as_backend_vector(u, form.exact) for u in duals]
    if _row_space(form, duals, tol).shape[1] < len(duals):
        raise DependentInput("dual vectors are linearly dependent")
    U, _, pairing = _on_span(form, duals)
    out = U.dot(pairing.vectors)
    return [out[:, i] for i in range(out.shape[1])]


def analyze(form: SymmetricForm, constraints,
            tol: Tolerances | None = None) -> ConstrainedReport:
    """Run predictions and the restriction oracle side by side.

    Every constraint set is predicted by the module's formula: one nonzero
    constraint by its ``BRANCH_EFFECT`` entry, any larger set by
    ``predict_multi``.  Predicted counts no form can have raise
    ImpossibleCounts.  The oracle is ``restricted_inertia``, which the
    form's representation routes, counted apart from the predictor.
    """
    tol = tol or form.space.tol
    phis = [as_functional(p, form.exact) for p in constraints]
    full = inertia(form, tol)
    warnings: list[str] = []
    if full.marginal:
        warnings.append("full spectrum has marginal eigenvalues")
    oracle = restricted_inertia(form, [p.coeffs for p in phis], tol)
    if oracle.marginal:
        warnings.append("restricted spectrum has marginal eigenvalues")

    nonzero = [p for p in phis if not p.is_zero()]
    decisions = [decide(form, p, tol) for p in nonzero]
    for d in decisions:
        warnings.extend(d.outcome.warnings)
        if d.marginal:
            warnings.append("phi(u) classification is marginal")
    drop, change = 0, 0
    if len(decisions) == 1:
        drop, change = decisions[0].drop, decisions[0].change
    elif decisions:
        multi = predict_multi(form, nonzero, tol)
        warnings.extend(multi.warnings)
        drop, change = multi.drop, multi.change
    mi, null = full.negative - drop, full.zero + change
    if not (mi >= 0 and 0 <= null <= form.dim):
        raise ImpossibleCounts(f"predicted index {mi} and nullity {null} "
                               f"are impossible in dimension {form.dim}; warnings: {warnings}")

    return ConstrainedReport(
        mi_full=full.negative,
        nullity_full=full.zero,
        mi_constrained_oracle=oracle.negative,
        nullity_constrained_oracle=oracle.zero,
        mi_constrained_predicted=mi,
        nullity_constrained_predicted=null,
        # a set with a zero functional names no critical constraints
        s_critical=tuple(d.drop == 1 for d in decisions) if len(nonzero) == len(phis) else (),
        agreement=(mi, null) == (oracle.negative, oracle.zero),
        warnings=tuple(warnings),
    )
