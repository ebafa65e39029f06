"""Core form machinery: inertia on both backends, decomposition,
restriction oracle, projections, maximal negative subspaces."""
import json
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from fractions import Fraction

import morsekit
from morsekit import _lapack, exactla
from morsekit.bilinear import (
    Factorization,
    Inertia,
    InnerProductSpace,
    SturmFactorization,
    SymmetricForm,
    Tridiagonal,
    _cosine_to,
    _eigh,
    factor,
    float_row_split,
    fundamental_decomposition,
    inertia,
    kernel_intersection,
    maximal_negative_subspace_through,
    morse_index,
    nullity,
    orthonormal_basis,
    rayleigh,
    restrict,
    restrict_to,
    restricted_inertia,
    s_project,
    solve_tridiagonal,
    sturm_negatives,
    tridiagonal_negatives,
)
from morsekit.constraints import analyze
from morsekit.errors import (
    EigensolverFailure,
    IsotropicDirection,
    NonSymmetric,
    NotNegativeDirection,
    NotPositiveDefinite,
    UnsupportedBackend,
    ValidationError,
)
from morsekit.harness import random_unimodular
from morsekit.tolerances import DEFAULT, spectral_radius, zero_band


def exact_form(rows):
    return SymmetricForm.from_matrix(exactla.frac_matrix(rows))


def float_form(rows, gram=None):
    return SymmetricForm.from_matrix(np.array(rows, dtype=float), gram=gram)


# ---------------------------------------------------------------------------
# construction and validation

def test_space_rejects_asymmetric_gram():
    with pytest.raises(NonSymmetric):
        InnerProductSpace(np.array([[1.0, 0.5], [0.0, 1.0]]))


def test_space_rejects_indefinite_gram():
    with pytest.raises(NotPositiveDefinite):
        InnerProductSpace(np.array([[1.0, 0.0], [0.0, -1.0]]))
    with pytest.raises(NotPositiveDefinite):
        InnerProductSpace(exactla.frac_matrix([[0, 0], [0, 1]]))


@pytest.mark.parametrize("n", [1, 3])
def test_space_rejects_the_zero_gram(n):
    # a spectrum of scale 0 counts all zero, dense or tridiagonal
    with pytest.raises(NotPositiveDefinite):
        InnerProductSpace(Tridiagonal(np.zeros(n), np.zeros(n - 1)))
    with pytest.raises(NotPositiveDefinite):
        InnerProductSpace(np.zeros((n, n)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_non_finite_entries_are_refused(bad):
    # refused before the asymmetry gap is formed, so inf - inf never runs
    # and NaN cannot compare its way past the symmetry test
    with pytest.raises(ValidationError, match="form matrix has a NaN or infinite entry"):
        SymmetricForm.from_matrix(np.array([[bad, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValidationError, match="gram matrix has a NaN or infinite entry"):
        SymmetricForm.from_matrix(np.eye(2), gram=np.array([[1.0, 0.0], [0.0, bad]]))


def _eigenvalue_rule(g):
    # the dense rule a floating gram is judged by: its smallest eigenvalue
    # lies above the zero band of its spectral radius
    w = np.linalg.eigvalsh(g)
    return w[0] > zero_band(spectral_radius(w), DEFAULT)


def _accepted(gram):
    try:
        InnerProductSpace(gram)
    except NotPositiveDefinite:
        return False
    return True


def _spd(rng, n, smallest):
    # symmetric, spectral radius 1, smallest eigenvalue `smallest`
    Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    lam = np.concatenate([[smallest], rng.uniform(0.1, 1.0, n - 2), [1.0]])
    g = (Q * lam) @ Q.T
    return 0.5 * (g + g.T)


def test_gram_check_decides_as_the_eigenvalue_rule():
    rng = np.random.default_rng(12)
    grams = []
    for n in (2, 5, 17, 60):
        for smallest in np.concatenate([np.logspace(-11, -7, 33), [0.0, -1e-9, -1.0]]):
            grams.append(_spd(rng, n, smallest))
    for d in ([1.0, 2.0], [1e-10, 1.0], [2e-9, 1.0], [1e-9, -1.0], [0.0, 1.0],
              [-1.0, 2.0], [3.0]):
        grams.append(np.diag(d))
    decisions = [_accepted(g) for g in grams]
    assert decisions == [_eigenvalue_rule(g) for g in grams]
    assert 0 < sum(decisions) < len(decisions)


def test_from_matrix_converts_an_exact_matrix_once(count_calls):
    # one conversion for the matrix; the identity gram is built exact
    calls = count_calls(exactla, "frac_matrix")
    form = SymmetricForm.from_matrix(np.array([[1, 2], [2, Fraction(-1, 3)]], dtype=object))
    assert len(calls) == 1
    assert form.exact and form.matrix[1, 1] == Fraction(-1, 3)
    assert form.space.gram.tolist() == [[1, 0], [0, 1]]
    # a given gram is converted once too, whatever its input type
    form = SymmetricForm.from_matrix(np.array([[1, 2], [2, Fraction(-1, 3)]], dtype=object),
                                     gram=[[2, 1], [1, Fraction(3, 2)]], exact=True)
    assert len(calls) == 3
    assert form.space.exact and form.space.gram[1, 1] == Fraction(3, 2)


def test_exact_gram_check_decides_diagonal_and_full_grams():
    SymmetricForm.from_matrix(exactla.frac_matrix([[1, 2], [2, -3]]))
    InnerProductSpace(exactla.frac_matrix([[Fraction(1, 3), 0], [0, 5]]))
    for bad in ([[0, 0], [0, 1]], [[2, 0], [0, -1]], [[1, 2], [2, 1]]):
        with pytest.raises(NotPositiveDefinite):
            InnerProductSpace(exactla.frac_matrix(bad))


def test_float_input_is_shared_not_copied():
    A = np.array([[1.0, 2.0], [2.0, -3.0]])
    G = np.array([[2.0, 1.0], [1.0, 2.0]])
    form = SymmetricForm.from_matrix(A, gram=G)
    assert np.shares_memory(form.matrix, A)
    assert np.shares_memory(form.space.gram, G)


def test_form_rejects_asymmetric_matrix():
    with pytest.raises(NonSymmetric):
        SymmetricForm.from_matrix(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(NonSymmetric):
        SymmetricForm.from_matrix(exactla.frac_matrix([[0, 1], [2, 0]]))


def test_form_not_symmetrized():
    # asymmetry just over the relative tolerance must be rejected, not averaged
    a = np.eye(3)
    a[0, 1] = 1e-10
    with pytest.raises(NonSymmetric):
        SymmetricForm.from_matrix(a)


def test_symmetry_evaluation_probes():
    rng = np.random.default_rng(5)
    m = rng.standard_normal((4, 4))
    form = float_form(m + m.T)
    for _ in range(20):
        u = rng.standard_normal(4)
        v = rng.standard_normal(4)
        assert np.isclose(form.evaluate(u, v), form.evaluate(v, u))


# ---------------------------------------------------------------------------
# inertia

def test_inertia_diagonal_signs():
    assert inertia(exact_form([[-1, 0], [0, 1]])).counts == (1, 0, 1)
    assert inertia(exact_form(np.diag([-2, 0, 0, 3]))).counts == (1, 2, 1)


def test_inertia_hyperbolic_plane():
    # eigenvalues of [[0,1],[1,0]] are +1 and -1
    assert inertia(exact_form([[0, 1], [1, 0]])).counts == (1, 0, 1)
    assert inertia(float_form([[0, 1], [1, 0]])).counts == (1, 0, 1)


def test_morse_index_and_nullity_projections():
    assert morse_index(exact_form([[-1, 0], [0, 1]])) == 1
    assert nullity(exact_form([[-1, 0], [0, 1]])) == 0
    assert morse_index(exact_form(np.eye(3, dtype=int))) == 0
    assert nullity(exact_form(np.diag([-2, 0, 0, 3]))) == 2


def test_inertia_sums_to_dim():
    rng = np.random.default_rng(17)
    for _ in range(25):
        n = int(rng.integers(1, 7))
        m = rng.integers(-4, 5, (n, n))
        res = inertia(exact_form(m + m.T))
        assert res.dim == n


def test_sylvester_consistency_under_unimodular_congruence():
    rng = np.random.default_rng(23)
    for _ in range(40):
        n = int(rng.integers(2, 7))
        lam = rng.integers(-4, 5, n)
        base = inertia(exact_form(np.diag(lam))).counts
        P = random_unimodular(rng, n)
        transformed = P.T @ np.diag(lam) @ P
        assert inertia(exact_form(transformed)).counts == base


def test_exact_congruence_is_a_true_congruence():
    rng = np.random.default_rng(31)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        m = rng.integers(-3, 4, (n, n))
        A = exactla.frac_matrix(m + m.T)
        C, diag = exactla.congruence_diagonalize(A)
        D = C.T.dot(A.dot(C))
        for i in range(n):
            for j in range(n):
                assert D[i, j] == (diag[i] if i == j else 0)


def test_float_inertia_marginal_flag():
    # big entry sets tau = 1.0; values within a factor of ten of the band
    # edge are flagged, values far outside are not
    big = 1.0e9
    clean = float_form(np.diag([big, 20.0]))
    assert not inertia(clean).marginal
    assert inertia(clean).counts == (0, 0, 2)
    edge = float_form(np.diag([big, 5.0]))
    res = inertia(edge)
    assert res.counts == (0, 0, 2)
    assert res.marginal
    inside = float_form(np.diag([big, 0.5]))
    res2 = inertia(inside)
    assert res2.counts == (0, 1, 1)
    assert res2.marginal


def test_float_inertia_zero_counts_as_marginal():
    res = inertia(float_form(np.diag([1.0, 0.0])))
    assert res.counts == (0, 1, 1)
    assert res.marginal


# ---------------------------------------------------------------------------
# fundamental decomposition

def test_decomposition_diagonal():
    dec = fundamental_decomposition(float_form(np.diag([-1.0, 1.0])))
    assert dec.basis_neg.shape[1] == 1
    assert dec.basis_pos.shape[1] == 1
    v = dec.basis_neg[:, 0]
    assert abs(abs(v[0]) - 1.0) < 1e-12 and abs(v[1]) < 1e-12


def test_decomposition_hyperbolic():
    dec = fundamental_decomposition(float_form([[0.0, 1.0], [1.0, 0.0]]))
    v = dec.basis_neg[:, 0]
    # negative eigenvector of [[0,1],[1,0]] is (1,-1)/sqrt(2) up to sign
    assert abs(abs(v[0]) - 1 / np.sqrt(2)) < 1e-12
    assert abs(v[0] + v[1]) < 1e-12


def test_decomposition_zero_form():
    dec = fundamental_decomposition(float_form(np.zeros((2, 2))))
    assert dec.basis_zero.shape[1] == 2


def test_decomposition_rejected_on_exact_backend():
    with pytest.raises(UnsupportedBackend):
        fundamental_decomposition(exact_form([[1, 0], [0, 1]]))


def test_decomposition_completeness_and_orthogonality():
    rng = np.random.default_rng(43)
    for _ in range(15):
        n = int(rng.integers(2, 9))
        m = rng.standard_normal((n, n))
        A = m + m.T
        form = float_form(A)
        dec = fundamental_decomposition(form)
        X = np.hstack([dec.basis_neg, dec.basis_zero, dec.basis_pos])
        assert X.shape == (n, n)
        scale = 1e-8 * np.linalg.norm(A)
        gram_resid = X.T @ X - np.eye(n)
        assert np.max(np.abs(gram_resid)) <= scale + 1e-12
        cross_s = X.T @ A @ X
        off = cross_s - np.diag(np.diag(cross_s))
        assert np.max(np.abs(off)) <= scale
        counts = inertia(form).counts
        assert (dec.basis_neg.shape[1], dec.basis_zero.shape[1],
                dec.basis_pos.shape[1]) == counts


# ---------------------------------------------------------------------------
# kernel intersection and restriction

def test_kernel_of_coordinate_functional():
    space = InnerProductSpace.euclidean(2, exact=True)
    sub = kernel_intersection(space, [exactla.frac_vector([1, 0])])
    assert sub.dim == 1
    assert sub.basis[0, 0] == 0 and sub.basis[1, 0] == 1


def test_kernel_absorbs_dependent_constraints():
    space = InnerProductSpace.euclidean(3, exact=True)
    sub = kernel_intersection(space, [exactla.frac_vector(v) for v in
                                      ([1, 0, 0], [0, 1, 0], [1, 1, 0])])
    assert sub.dim == 1
    assert sub.basis[2, 0] == 1


def test_kernel_full_constraint_set_is_empty():
    space = InnerProductSpace.euclidean(2)
    sub = kernel_intersection(space, [np.array([1.0, 0.0]), np.array([0.0, 1.0])])
    assert sub.dim == 0


def test_kernel_no_constraints_gives_whole_space():
    space = InnerProductSpace.euclidean(4)
    assert kernel_intersection(space, []).dim == 4


def test_restrict_coordinate_kill():
    res = restrict(exact_form([[-1, 0], [0, 1]]), [exactla.frac_vector([1, 0])])
    assert res.dim == 1
    assert res.matrix[0, 0] == 1
    assert inertia(res).counts == (0, 0, 1)


def test_restrict_hyperbolic_to_isotropic_line():
    res = restrict(exact_form([[0, 1], [1, 0]]), [exactla.frac_vector([1, 0])])
    assert inertia(res).counts == (0, 1, 0)


def test_restrict_two_coordinates():
    form = exact_form(np.diag([-1, -1, 1, 1]))
    res = restrict(form, [exactla.frac_vector([1, 0, 0, 0]),
                          exactla.frac_vector([0, 1, 0, 0])])
    assert inertia(res).counts == (0, 0, 2)


def test_restrict_to_zero_dimensions():
    form = float_form(np.diag([-1.0, 1.0]))
    res = restrict(form, [np.array([1.0, 0.0]), np.array([0.0, 1.0])])
    assert res.dim == 0
    assert inertia(res).counts == (0, 0, 0)


def test_restriction_associativity():
    rng = np.random.default_rng(59)
    for _ in range(25):
        n = int(rng.integers(3, 7))
        m = rng.integers(-3, 4, (n, n))
        form = exact_form(m + m.T)
        f1 = exactla.frac_vector(rng.integers(-3, 4, n))
        f2 = exactla.frac_vector(rng.integers(-3, 4, n))
        if not np.any(f1) or not np.any(f2):
            continue
        joint = inertia(restrict(form, [f1, f2])).counts
        first = restrict(form, [f1])
        sub = kernel_intersection(form.space, [f1])
        pulled = sub.basis.T.dot(f2)
        stepwise = inertia(restrict(first, [pulled])).counts
        assert joint == stepwise


def test_oracle_drop_is_at_most_one():
    # cutting by a single functional moves the index by 0 or 1 and the
    # nullity by at most 1 in each direction
    rng = np.random.default_rng(61)
    for _ in range(60):
        n = int(rng.integers(2, 7))
        m = rng.integers(-4, 5, (n, n))
        form = exact_form(m + m.T)
        f = rng.integers(-4, 5, n)
        if not np.any(f):
            continue
        full = inertia(form)
        cut = inertia(restrict(form, [exactla.frac_vector(f)]))
        assert full.negative - cut.negative in (0, 1)
        assert cut.zero - full.zero in (-1, 0, 1)


def _oracle_cases(exact: bool):
    """(form, constraints) pairs on one backend: forms with a kernel on
    Euclidean and non-identity grams, each cut by no functional, one, a
    zero one, a dependent set and a full set (last).  First, a cut whose
    float counts are marginal only in the parent's band: 5 and -3 lie
    within 11 band widths of 0 at scale 1e9."""
    rng = np.random.default_rng(71)
    matrix = exactla.frac_matrix if exact else (lambda m: np.array(m, dtype=float))
    cases = [(SymmetricForm.from_matrix(matrix(np.diag([10 ** 9, 5, -3]))), [matrix([1, 0, 0])])]
    for n in (3, 5):
        B = random_unimodular(rng, n)
        lam = rng.integers(-3, 4, n)
        lam[0] = 0
        c = rng.integers(-2, 3, (n, n))
        f1, f2 = rng.integers(-3, 4, (2, n))
        sets = [[], [f1], [np.zeros(n, dtype=int)], [f1, f2, f1 - 2 * f2],
                list(np.eye(n, dtype=int))]
        for gram in (None, matrix(c.T @ c + np.eye(n, dtype=int))):
            form = SymmetricForm.from_matrix(matrix(B.T @ np.diag(lam) @ B), gram=gram)
            cases += [(form, [matrix(f) for f in fs]) for fs in sets]
    return cases


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
def test_oracle_counts_what_restrict_counts(exact):
    # the oracle counts B^T A B without building the restricted form; its
    # counts, and on the float backend its marginal flag, are those of
    # the form restrict builds
    cases = _oracle_cases(exact)
    for form, fs in cases:
        assert restricted_inertia(form, fs) == inertia(restrict(form, fs))
    form, fs = cases[-1]
    assert restricted_inertia(form, fs).counts == (0, 0, 0)


# ---------------------------------------------------------------------------
# s_project

def test_s_project_euclidean():
    form = float_form(np.eye(2))
    out = s_project(form, np.array([1.0, 0.0]), np.array([3.0, 4.0]))
    assert np.allclose(out, [3.0, 0.0])


def test_s_project_indefinite():
    # S(u,v) = -3, S(u,u) = -1, so the projection is 3*u
    form = exact_form([[-1, 0], [0, 1]])
    out = s_project(form, exactla.frac_vector([1, 0]), exactla.frac_vector([3, 4]))
    assert out[0] == 3 and out[1] == 0


def test_s_project_perpendicular_input_gives_zero():
    form = exact_form(np.diag([-1, 1]))
    out = s_project(form, exactla.frac_vector([1, 0]), exactla.frac_vector([0, 7]))
    assert not np.any(out)


def test_s_project_residual_is_s_perpendicular():
    rng = np.random.default_rng(67)
    for _ in range(20):
        n = 5
        m = rng.integers(-3, 4, (n, n))
        form = exact_form(m + m.T)
        u = exactla.frac_vector(rng.integers(-3, 4, n))
        v = exactla.frac_vector(rng.integers(-3, 4, n))
        if form.quadratic(u) == 0:
            continue
        out = s_project(form, u, v)
        assert form.evaluate(u, v - out) == 0


def test_s_project_isotropic_direction_rejected():
    form = exact_form([[0, 1], [1, 0]])
    with pytest.raises(IsotropicDirection):
        s_project(form, exactla.frac_vector([1, 0]), exactla.frac_vector([0, 1]))


# ---------------------------------------------------------------------------
# maximal negative subspace through a vector

def _check_maximal_negative(form, u):
    sub = maximal_negative_subspace_through(form, u)
    mi = morse_index(form)
    assert sub.dim == mi
    # u is the first basis column
    first = sub.basis[:, 0]
    assert np.array_equal(first, u)
    res = restrict_to(form, sub)
    assert inertia(res).counts == (mi, 0, 0)


def test_maximal_negative_subspace_examples():
    form = exact_form(np.diag([-1, -2, 3]))
    _check_maximal_negative(form, exactla.frac_vector([1, 1, 0]))
    form2 = exact_form(np.diag([-1, 1]))
    sub = maximal_negative_subspace_through(form2, exactla.frac_vector([1, 0]))
    assert sub.dim == 1


def test_maximal_negative_subspace_rejects_nonnegative_direction():
    with pytest.raises(NotNegativeDirection):
        maximal_negative_subspace_through(exact_form(np.eye(2, dtype=int)),
                                          exactla.frac_vector([1, 1]))
    with pytest.raises(NotNegativeDirection):
        maximal_negative_subspace_through(float_form(np.eye(2)),
                                          np.array([1.0, 1.0]))


def test_maximal_negative_subspace_random_directions():
    # dimension equals the Morse index for every admissible direction
    rng = np.random.default_rng(71)
    done = 0
    while done < 25:
        n = int(rng.integers(2, 7))
        m = rng.integers(-4, 5, (n, n))
        form = exact_form(m + m.T)
        u = exactla.frac_vector(rng.integers(-3, 4, n))
        if not form.quadratic(u) < 0:
            continue
        _check_maximal_negative(form, u)
        done += 1


def test_maximal_negative_subspace_float_backend():
    rng = np.random.default_rng(73)
    done = 0
    while done < 10:
        n = int(rng.integers(2, 7))
        m = rng.standard_normal((n, n))
        A = m + m.T
        form = float_form(A)
        u = rng.standard_normal(n)
        if form.quadratic(u) >= -1e-6:
            continue
        sub = maximal_negative_subspace_through(form, u)
        assert sub.dim == morse_index(form)
        res = restrict_to(form, sub)
        assert inertia(res).counts == (sub.dim, 0, 0)
        done += 1


# ---------------------------------------------------------------------------
# gram-aware behavior

def test_inertia_respects_gram():
    # the matrix alone has a negative direction, but signs are congruence
    # invariants, so any positive definite gram gives the same counts
    gram = np.array([[2.0, 1.0], [1.0, 2.0]])
    form = float_form([[-1.0, 0.0], [0.0, 1.0]], gram=gram)
    assert inertia(form).counts == (1, 0, 1)


def test_restrict_carries_gram():
    gram = exactla.frac_matrix([[2, 0], [0, 1]])
    space = InnerProductSpace(gram)
    form = SymmetricForm(space, exactla.frac_matrix([[-1, 0], [0, 1]]))
    res = restrict(form, [exactla.frac_vector([0, 1])])
    assert res.space.gram[0, 0] == 2
    assert inertia(res).counts == (1, 0, 0)


# ---------------------------------------------------------------------------
# tridiagonal forms

def _tridiagonal(rng, n, shift=0.0):
    return Tridiagonal(rng.normal(size=n) + shift, rng.normal(size=max(n - 1, 0)))


def _with_smallest(T, smallest):
    # T shifted so that its smallest eigenvalue is `smallest` times its
    # spectral radius, up to rounding
    w = np.linalg.eigvalsh(T.todense())
    shift = w[0] - smallest * (w[-1] - w[0]) / (1.0 - smallest)
    return Tridiagonal(T.diag - shift, T.off)


def test_tridiagonal_dot_is_the_dense_product():
    rng = np.random.default_rng(21)
    for n in (1, 2, 7, 40):
        T = _tridiagonal(rng, n)
        dense = T.todense()
        assert np.array_equal(dense, dense.T)
        assert np.array_equal(np.diagonal(dense), T.diag)
        assert np.array_equal(np.diagonal(dense, 1), T.off)
        for x in (rng.normal(size=n), rng.normal(size=(n, 3))):
            assert np.allclose(T.dot(x), dense @ x, rtol=1e-14, atol=1e-14)


def test_tridiagonal_gram_check_decides_as_the_eigenvalue_rule(monkeypatch):
    # LAPACK's LDL^T of the shifted gram proves most grams; a Sturm count
    # below the zero band decides the rest, and no eigensolve runs
    rng = np.random.default_rng(22)
    grams = []
    for n in (2, 5, 17, 60):
        T = _tridiagonal(rng, n)
        for smallest in np.concatenate([np.logspace(-11, -7, 32), [0.0, -1e-9, -0.5]]):
            grams.append(_with_smallest(T, smallest))
    want = [_eigenvalue_rule(g.todense()) for g in grams]

    def refuse(*_):
        raise AssertionError("a dense eigensolve ran")

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    assert [_accepted(g) for g in grams] == want
    assert 0 < sum(want) < len(want)


def test_tridiagonal_form_needs_a_tridiagonal_gram():
    T = Tridiagonal(np.array([2.0, -1.0, 3.0]), np.array([0.5, 0.25]))
    with pytest.raises(UnsupportedBackend):
        SymmetricForm(InnerProductSpace(np.eye(3)), T)
    with pytest.raises(UnsupportedBackend):
        SymmetricForm(InnerProductSpace(Tridiagonal.identity(3)), T.todense())
    form = SymmetricForm(InnerProductSpace(Tridiagonal.identity(3)), T)
    assert inertia(form).counts == inertia(float_form(T.todense())).counts


def test_sturm_factorization_matches_the_dense_one():
    rng = np.random.default_rng(23)
    for trial in range(60):
        n = int(rng.integers(1, 30))
        A = _tridiagonal(rng, n)
        G = Tridiagonal(rng.uniform(2.0, 3.0, n), rng.uniform(-0.5, 0.5, max(n - 1, 0)))
        if trial % 3 == 0:
            # an eigenvalue inside the band: A - lambda G is singular
            lam = _eigh(A.todense(), G.todense())[0][n // 2]
            A = Tridiagonal(*A.shifted(lam, G))
        form = SymmetricForm(InnerProductSpace(G), A)
        sturm = factor(form)
        dense = Factorization(*_eigh(A.todense(), G.todense()))
        assert isinstance(sturm, SturmFactorization)
        assert abs(sturm.scale - dense.scale) <= 1e-12 * dense.scale
        assert sturm.inertia(DEFAULT) == dense.inertia(DEFAULT)
        w = dense.values
        for j in range(n):
            assert abs(sturm.eigenvalue(j) - w[j]) <= 1e-12 * dense.scale
        K, f = sturm.kernel(DEFAULT), rng.normal(size=n)
        assert K.shape[1] == dense.kernel(DEFAULT).shape[1]
        assert np.allclose(K.T @ G.dot(K), np.eye(K.shape[1]), atol=1e-10)
        assert abs(sturm.range_cosine(f, DEFAULT) - dense.range_cosine(f, DEFAULT)) <= 1e-8
        u, v = sturm.solve(f, DEFAULT), dense.solve(f, DEFAULT)
        # the zero form's dual is 0 on both sides, up to rounding
        assert np.linalg.norm(u - v) <= 1e-8 * np.linalg.norm(v) + 1e-12 * np.linalg.norm(f)


def test_tridiagonal_restriction_is_the_dense_one():
    rng = np.random.default_rng(24)
    T = _tridiagonal(rng, 12)
    G = Tridiagonal(rng.uniform(2.0, 3.0, 12), rng.uniform(-0.5, 0.5, 11))
    tri = SymmetricForm(InnerProductSpace(G), T)
    dense = SymmetricForm(InnerProductSpace(G.todense()), T.todense())
    rows = list(rng.normal(size=(3, 12)))
    a, b = restrict(tri, rows), restrict(dense, rows)
    assert np.allclose(a.matrix, b.matrix, atol=1e-12)
    assert np.allclose(a.space.gram, b.space.gram, atol=1e-12)
    assert inertia(a) == inertia(b)
    with pytest.raises(UnsupportedBackend):
        fundamental_decomposition(tri)


# ---------------------------------------------------------------------------
# the LAPACK count kernel and tridiagonal solve, against their references

def _integer_bands(rng, n):
    return (rng.integers(-3, 4, n).astype(float), rng.integers(-3, 4, n - 1).astype(float))


def test_count_kernel_matches_the_recurrence_on_integer_tridiagonals():
    # an exactly singular T is counted by rounding: its zero eigenvalue may
    # land on either side of 0, in either kernel, so there both counts lie
    # between the exact negative and nonpositive counts; every other T is
    # counted as the recurrence counts it, zero pivots included
    def check(d, e):
        count, reference = tridiagonal_negatives(d, e), sturm_negatives(d, e)
        if count != reference:
            T = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
            neg, zero, _ = exactla.inertia_counts(T.astype(int).astype(object))
            assert zero > 0, (d, e)
            assert neg <= min(count, reference) and max(count, reference) <= neg + zero
        return count != reference

    rng = np.random.default_rng(31)
    zero_pivots = 0
    for _ in range(20000):
        d, e = _integer_bands(rng, int(rng.integers(2, 9)))
        zero_pivots += d[0] == 0.0
        check(d, e)
    assert zero_pivots > 2000
    # inertia (3, 1, 2) and a zero first pivot: after the recurrence's
    # eps-sized replacement pivot the last pivot rounds to +1.8e-15, after
    # LAPACK's 2e-307 to -8.9e-16
    assert check(np.array([0.0, 0.0, -3.0, -1.0, -1.0, 2.0]),
                 np.array([-3.0, -3.0, 1.0, -1.0, -1.0]))


def test_count_kernel_keeps_an_exact_kernel_at_or_above_zero():
    # the Neumann Laplacian's constant vector: its last pivot is an exact 0
    for n in (2, 3, 17, 1024):
        d = np.full(n, 2.0)
        d[[0, -1]] = 1.0
        e = -np.ones(n - 1)
        assert tridiagonal_negatives(d, e) == sturm_negatives(d, e) == 0
        assert tridiagonal_negatives(d - 1e-12, e) == 1
        sturm = factor(SymmetricForm(InnerProductSpace(Tridiagonal.identity(n)), Tridiagonal(d, e)))
        below, at_or_above = sturm.near_zero()
        assert below is None and abs(at_or_above) <= 1e-12 * sturm.scale
        assert sturm.inertia(DEFAULT).counts == (0, 1, n - 1)


def test_count_kernel_small_orders():
    assert tridiagonal_negatives(np.empty(0), np.empty(0)) == 0
    for a in (-1.0, 0.0, 2.0):
        assert tridiagonal_negatives(np.array([a]), np.empty(0)) == int(a < 0.0)
    values = (-2.0, -1.0, 0.0, 1.0, 2.0)
    for a in values:
        for b in values:
            for c in values:
                d, e = np.array([a, c]), np.array([b])
                assert tridiagonal_negatives(d, e) == sturm_negatives(d, e), (a, b, c)


def test_count_kernel_is_scale_free():
    rng = np.random.default_rng(32)
    for _ in range(300):
        d, e = _integer_bands(rng, int(rng.integers(2, 9)))
        T = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
        if exactla.inertia_counts(T.astype(int).astype(object))[1]:
            continue
        count = tridiagonal_negatives(d, e)
        for c in (1e-150, 1e-100, 1e-50, 1e50, 1e100, 1e150):
            assert tridiagonal_negatives(c * d, c * e) == sturm_negatives(c * d, c * e) == count


def test_solve_tridiagonal_is_bitwise_the_banded_solve():
    rng = np.random.default_rng(33)
    for n in (2, 3, 16, 255):
        d, e = rng.normal(size=n), rng.normal(size=n - 1)
        ab = np.zeros((3, n))
        ab[0, 1:], ab[1], ab[2, :-1] = e, d, e
        for rhs in (rng.normal(size=n), rng.normal(size=(n, 2)), rng.normal(size=(n, 5))):
            x = solve_tridiagonal(d, e, rhs)
            assert x.shape == rhs.shape
            assert np.array_equal(x, scipy.linalg.solve_banded((1, 1), ab, rhs))


def test_solve_tridiagonal_errors_and_order_one():
    with pytest.raises(scipy.linalg.LinAlgError):
        solve_tridiagonal(np.array([1.0, 1.0]), np.array([1.0]), np.ones(2))
    good = (np.array([2.0, 3.0, 4.0]), np.array([1.0, 1.0]), np.ones(3))
    for i in range(3):
        for bad in (np.inf, np.nan):
            args = [a.copy() for a in good]
            args[i][0] = bad
            with pytest.raises(ValueError):
                solve_tridiagonal(*args)
    assert np.array_equal(solve_tridiagonal(np.array([2.0]), np.empty(0), np.array([3.0])), [1.5])
    assert np.array_equal(solve_tridiagonal(np.array([4.0]), np.empty(0), np.ones((1, 2))),
                          [[0.25, 0.25]])
    for rhs in (np.empty(0), np.empty((0, 2))):
        x = solve_tridiagonal(np.empty(0), np.empty(0), rhs)
        assert x.shape == rhs.shape and x.dtype == float


# ---------------------------------------------------------------------------
# direct LAPACK calls: bitwise scipy's defaults

def test_eigh_is_bitwise_scipys_eigh():
    rng = np.random.default_rng(41)
    for n in (0, 1, 8, 64):
        m, c = rng.standard_normal((2, n, n))
        A, G = m + m.T, c.dot(c.T) + np.eye(n)
        for gram in (None, G):
            w, v = _eigh(A, gram)
            want_w, want_v = scipy.linalg.eigh(A, gram)
            assert np.array_equal(w, want_w) and np.array_equal(v, want_v)


def test_eigh_refuses_a_singular_gram_and_non_finite_input():
    A = np.diag([1.0, 2.0])
    with pytest.raises(EigensolverFailure):
        _eigh(A, np.diag([1.0, 0.0]))
    for bad in (np.inf, np.nan):
        for matrix, gram in ((np.diag([bad, 1.0]), None), (A, np.diag([1.0, bad]))):
            with pytest.raises(EigensolverFailure):
                _eigh(matrix, gram)


def test_float_row_split_is_bitwise_scipys_pivoted_qr():
    rng = np.random.default_rng(43)
    deficient = rng.standard_normal((4, 2)).dot(rng.standard_normal((2, 6)))
    # k rows on R^n: fewer rows than columns, more, rank-deficient, empty
    for F in (rng.standard_normal((2, 5)), rng.standard_normal((6, 3)), deficient,
              deficient.T, np.zeros((2, 3)), np.empty((0, 4)), np.empty((3, 0))):
        before = F.copy()
        for mode in ("full", "economic"):
            Q, r = float_row_split(F, DEFAULT, mode)
            want_Q, R, _ = scipy.linalg.qr(F.T, pivoting=True, mode=mode)
            d = np.abs(np.diag(R))
            want_r = int(np.sum(d > DEFAULT.rank * d[0])) if d.size and d[0] > 0 else 0
            assert np.array_equal(Q, want_Q) and r == want_r
        assert np.array_equal(F, before)
    assert float_row_split(deficient, DEFAULT)[1] == 2
    with pytest.raises(ValueError):
        float_row_split(np.array([[1.0, np.nan]]), DEFAULT)


def test_orthonormal_basis_is_bitwise_numpys_qr():
    rng = np.random.default_rng(44)
    shapes = [(m, n) for m in range(1, 17) for n in range(m + 1)] + [(3, 5), (2, 7), (4, 0)]
    for m, n in shapes:
        K = rng.standard_normal((m, n)) * 10.0 ** rng.uniform(-5.0, 4.0)
        for layout in (K, np.asfortranarray(K), K[:, ::-1]):
            Q, want = orthonormal_basis(layout), np.linalg.qr(layout)[0]
            assert np.array_equal(Q, want) and Q.flags.c_contiguous == want.flags.c_contiguous


# ---------------------------------------------------------------------------
# the LAPACK and BLAS door: scipy's compiled routines without scipy.linalg

SRC = str(Path(morsekit.__file__).resolve().parents[1])


def _fresh(code: str) -> str:
    """stdout of a fresh interpreter that finds morsekit in its source
    tree and runs code."""
    return subprocess.run([sys.executable, "-c", f"import sys; sys.path.insert(0, {SRC!r}); "
                           + code], capture_output=True, text=True, check=True).stdout


def test_import_leaves_scipy_linalg_unloaded():
    for module in ("morsekit", "morsekit.cli"):
        out = _fresh(f"import {module}; print('scipy.linalg' in sys.modules)")
        assert out.split() == ["False"]


def test_accepting_a_document_leaves_jsonschema_unloaded(tmp_path):
    # only a refused document imports jsonschema, to word the refusal
    for module in ("morsekit", "morsekit.cli"):
        out = _fresh(f"import {module}; print('jsonschema' in sys.modules)")
        assert out.split() == ["False"]
    doc = {"kind": "pde", "domain": {"a": 0.0, "b": 1.0, "n_elements": 16},
           "p": {"constant": 0.0}, "q_a": 1.0, "q_b": 1.0}
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    good.write_text(json.dumps(doc))
    bad.write_text(json.dumps({**doc, "domain": {**doc["domain"], "n_elements": 0}}))
    code = ("sys.stderr = sys.stdout; from morsekit.cli import main; "
            "rc = main(['pde', {!r}]); print(rc, 'jsonschema' in sys.modules)")
    assert _fresh(code.format(str(good))).splitlines()[-1] == "0 False"
    assert _fresh(code.format(str(bad))).splitlines() == [
        "error: domain.n_elements: 0 is less than the minimum of 1", "2 True"]


def test_scipy_linalg_shares_the_loaded_routines():
    for first, second in (("morsekit", "scipy.linalg"), ("scipy.linalg", "morsekit")):
        out = _fresh(f"import {first}, {second}, scipy.linalg, morsekit._lapack as m; "
                     "print(scipy.linalg.lapack.dsyevr is m.dsyevr, "
                     "scipy.linalg.blas.dnrm2 is m.dnrm2)")
        assert out.split() == ["True", "True"]


def test_a_missing_extension_file_is_an_import_error():
    with pytest.raises(ImportError, match="_nosuch"):
        _lapack._load("_nosuch")
    assert "scipy.linalg._nosuch" not in sys.modules


def test_dnrm2_is_scipys_norm_near_the_float_range_ends():
    rng = np.random.default_rng(45)
    for c in (5e-324, 1e-310, 1e-300, 1.0, 1e300, 1e307, 1.7e308):
        for n in (1, 2, 5, 16):
            v = c * rng.uniform(-1.0, 1.0, n)
            assert _lapack.dnrm2(v) == scipy.linalg.norm(v)
    K = np.array([[1.0], [0.0]])
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError):
            _cosine_to(K, np.array([1.0, bad]))


def test_rayleigh_is_finite_near_the_float_range_end():
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        form = float_form(np.diag([1.5e308, 1.5e308]))
        assert rayleigh(form, np.array([1.0, -1.0]))[0] == 1.5e308
        huge_gram = float_form(np.diag([1.5e308, 1.5e308]), gram=np.diag([1e308, 1e308]))
        assert rayleigh(huge_gram, np.array([1.0, -1.0]))[0] == 1.5e308 / 1e308
        assert analyze(form, [np.array([1.0, -1.0])]).agreement
    # in the normal range u is scaled to unit largest entry alone
    rng = np.random.default_rng(46)
    for n in (1, 3, 8):
        m = rng.standard_normal((n, n))
        form = float_form(m + m.T, gram=np.eye(n) + 0.1 * np.diag(rng.uniform(size=n)))
        u = rng.standard_normal(n)
        v = u / np.max(np.abs(u))
        assert rayleigh(form, u)[0] == form.quadratic(v) / form.space.norm_sq(v)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_s_project_is_finite_near_the_float_range_end():
    # S(u, u) = 3e308 overflows, but the projection 0.5 u does not
    form = float_form(np.diag([1.5e308, 1.5e308]))
    out = s_project(form, np.array([1.0, -1.0]), np.array([1.0, 0.0]))
    assert out.tolist() == [0.5, -0.5]
    # in the normal range the ratio is that of the unscaled vectors
    rng = np.random.default_rng(47)
    for n in (1, 3, 8):
        m = rng.standard_normal((n, n))
        form = float_form(m + m.T)
        u, v = 1e3 * rng.standard_normal(n), rng.standard_normal(n)
        want = (form.evaluate(u, v) / form.quadratic(u)) * u
        assert s_project(form, u, v).tolist() == want.tolist()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_s_project_is_finite_for_a_tiny_direction():
    # S(u, u) = 1e-400 underflows to 0 unless u is scaled up first
    form = float_form(np.diag([1.0, 2.0]))
    for tiny in (1e-200, 1e-170):
        out = s_project(form, np.array([tiny, 0.0]), np.array([1.0, 1.0]))
        assert out.tolist() == [1.0, 0.0]


def test_oracle_pullback_does_not_overflow_near_the_float_range_end():
    # B^T A B = 1.5e308 is finite, but the sum M + M^T of its symmetrizing
    # is not; the oracle halves first
    form = float_form(np.diag([1.5e308, 1.5e308]))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert restricted_inertia(form, [np.array([1.0, -1.0])]) == Inertia(0, 0, 1)
