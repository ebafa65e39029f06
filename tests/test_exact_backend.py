"""The exact backend stays exact: every public exact output holds only ints
and Fractions and satisfies its defining identity with no rounding, on
rational forms with large denominators and on hyperbolic (zero-diagonal)
forms; and exactla's counts agree with an independent computer algebra
system."""
import random
import tempfile
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import configuration, given, settings
from hypothesis import strategies as st

from morsekit import (
    InnerProductSpace,
    SymmetricForm,
    analyze,
    diagonalize_duals,
    inertia,
    kernel_intersection,
    maximal_negative_subspace_through,
    predict_multi,
    riesz,
    s_project,
    solve_dual,
)
from morsekit import exactla
from morsekit.bilinear import factor, restrict

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=150)

# keep hypothesis' constants cache out of the source tree (see test_zero_band)
configuration.set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "morsekit-hypothesis")


def rationals(max_den=10**6, lo=-10**6):
    """'n/d' literals with lo <= n <= 10^6 and 1 <= d <= max_den."""
    return st.builds(lambda n, d: f"{n}/{d}", st.integers(lo, 10**6),
                     st.integers(1, max_den))


def _symmetric(draw, n, entry):
    rows = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = draw(entry)
    return exactla.frac_matrix(rows)


@st.composite
def exact_problems(draw):
    """(form, constraints): a rational symmetric form on a space with a
    rational diagonal gram, of one of three shapes, and one to three
    rational functionals, each generic or in the range of the form."""
    n = draw(st.integers(1, 6))
    shape = draw(st.sampled_from(["generic", "hyperbolic", "degenerate"]))
    if shape == "degenerate":
        # B^T M B with B of rank r < n has a kernel of dimension >= n - r
        r = draw(st.integers(0, n - 1))
        M = _symmetric(draw, r, rationals(1000))
        B = exactla.frac_matrix([[draw(rationals(100)) for _ in range(n)] for _ in range(r)])
        A = B.T.dot(M.dot(B)) if r else exactla.frac_matrix(np.zeros((n, n), dtype=int))
    else:
        A = _symmetric(draw, n, rationals())
        if shape == "hyperbolic":
            for i in range(n):
                A[i, i] = Fraction(0)
    weights = [draw(rationals(lo=1)) for _ in range(n)]
    gram = [[weights[i] if i == j else 0 for j in range(n)] for i in range(n)]
    form = SymmetricForm(InnerProductSpace(exactla.frac_matrix(gram)), A)
    fs = []
    for _ in range(draw(st.integers(1, 3))):
        f = exactla.frac_vector([draw(rationals()) for _ in range(n)])
        if draw(st.booleans()):
            f = A.dot(f)
        fs.append(f)
    return form, fs


def is_exact(values) -> bool:
    return all(type(x) in (int, Fraction) for x in np.asarray(values, dtype=object).flat)


def _zero(values) -> bool:
    return not np.any(np.asarray(values, dtype=object))


@PROPERTY
@given(exact_problems())
def test_exact_outputs_are_exact_and_satisfy_their_identities(problem):
    form, fs = problem
    A, G, n = form.matrix, form.space.gram, form.dim

    # congruence: C^T A C = diag(values), C invertible with integer columns
    C, values = exactla.congruence_diagonalize(A)
    assert is_exact(C) and is_exact(values)
    assert all(type(x) is int for x in C.flat)
    D = C.T.dot(A.dot(C))
    assert all(D[i, j] == (values[i] if i == j else 0) for i in range(n) for j in range(n))
    assert len(exactla.rref(C)[1]) == n
    fac = factor(form)
    assert is_exact(fac.values) and is_exact(fac.vectors)

    # kernel of the constraints: F . basis = 0 and dim = n - rank
    sub = kernel_intersection(form.space, fs)
    assert is_exact(sub.basis)
    F = np.stack(fs)
    assert _zero(F.dot(sub.basis))
    assert sub.dim == n - len(exactla.rref(F)[1])
    assert len(exactla.rref(sub.basis.T)[1]) == sub.dim

    for f in fs:
        out = solve_dual(form, f)
        if out.in_range:
            assert is_exact(out.u) and is_exact([out.phi_of_u])
            assert _zero(A.dot(out.u) - f)
            assert out.phi_of_u == f.dot(out.u)
        else:
            z = out.kernel_component
            assert is_exact(z)
            assert _zero(A.dot(z)) and f.dot(z) != 0
        rep = riesz(form.space, f)
        assert is_exact(rep) and _zero(G.dot(rep) - f)

    # a maximal negative subspace through a negative direction
    negative = fac.split(form.space.tol)[0]
    if negative.shape[1]:
        u = negative.dot(exactla.frac_vector(range(1, negative.shape[1] + 1)))
        basis = maximal_negative_subspace_through(form, u).basis
        assert is_exact(basis)
        pulled_back = exactla.congruence(A, basis)
        assert exactla.inertia_counts(pulled_back) == (negative.shape[1], 0, 0)
        assert list(basis[:, 0]) == list(u)

    # s_project leaves an S-orthogonal remainder
    u, v = fs[0], fs[-1]
    if form.evaluate(u, u):
        proj = s_project(form, u, v)
        assert is_exact(proj) and form.evaluate(u, v - proj) == 0

    # joint prediction: the restricted counts, the pairing matrix of the
    # duals, and an S-orthogonal basis of their span
    multi = predict_multi(form, fs)
    full, cut = inertia(form), inertia(restrict(form, fs))
    assert (cut.negative, cut.zero) == (full.negative - multi.drop, full.zero + multi.change)
    duals = multi.duals
    if not duals:
        assert multi.gram_matrix is None
        return
    assert is_exact(multi.gram_matrix)
    k = len(duals)
    assert all(multi.gram_matrix[i, j] == form.evaluate(duals[i], duals[j])
               for i in range(k) for j in range(k))
    basis = diagonalize_duals(form, duals)
    assert is_exact(basis)
    assert all(form.evaluate(basis[i], basis[j]) == 0
               for i in range(k) for j in range(k) if i != j)
    assert len(exactla.rref(np.stack(duals + basis))[1]) == k


@PROPERTY
@given(exact_problems())
def test_exact_analyze_agrees_with_its_oracle(problem):
    form, fs = problem
    rep = analyze(form, fs)
    assert all(type(x) is int for x in (rep.mi_full, rep.nullity_full,
                                        rep.mi_constrained_oracle,
                                        rep.nullity_constrained_oracle))
    assert rep.agreement


def test_kernel_vectors_are_primitive_integer_vectors():
    F = exactla.frac_matrix([["1/2", "1/3", "0"], ["0", "1/4", "1/6"]])
    [v] = exactla.nullspace(F)
    assert [type(x) for x in v] == [int, int, int]
    assert list(v) == [4, -6, 9]


# ---------------------------------------------------------------------------
# cross-check against sympy


def _random_symmetric(rng: random.Random, n: int) -> list[list[Fraction]]:
    """A rational symmetric matrix: generic, zero-diagonal, or of low rank."""
    def entry():
        return Fraction(rng.randint(-50, 50), rng.randint(1, 1000))

    shape = rng.choice(["generic", "hyperbolic", "degenerate"])
    if shape == "degenerate":
        r = rng.randint(0, n - 1)
        B = [[entry() for _ in range(n)] for _ in range(r)]
        w = [entry() for _ in range(r)]
        return [[sum(B[t][i] * w[t] * B[t][j] for t in range(r)) for j in range(n)]
                for i in range(n)]
    A = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            A[i][j] = A[j][i] = Fraction(0) if shape == "hyperbolic" and i == j else entry()
    return A


def _sympy_inertia(M) -> tuple[int, int, int]:
    """Counts from the characteristic polynomial: its roots are real, so
    Descartes' rule of signs counts the positive ones exactly, and those
    of p(-x) the negative ones; the zero count is the multiplicity of 0."""
    coeffs = M.charpoly().all_coeffs()
    zero = 0
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
        zero += 1

    def sign_changes(cs):
        signs = [bool(c > 0) for c in cs if c != 0]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    deg = len(coeffs) - 1
    pos = sign_changes(coeffs)
    neg = sign_changes([c * (-1) ** (deg - i) for i, c in enumerate(coeffs)])
    assert neg + zero + pos == M.shape[0]
    return neg, zero, pos


def test_counts_match_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(20201012)
    for trial in range(120):
        n = rng.randint(1, 12)
        A = _random_symmetric(rng, n)
        M = sympy.Matrix(n, n, lambda i, j: sympy.Rational(str(A[i][j])))
        ours = exactla.frac_matrix(A)
        assert exactla.inertia_counts(ours) == _sympy_inertia(M), trial
        rank = M.to_DM().rank()
        assert len(exactla.rref(ours)[1]) == rank, trial
        assert len(exactla.nullspace(ours)) == n - rank, trial
        # a wide constraint matrix: its rows are the first k rows of A
        k = rng.randint(1, n)
        assert len(exactla.rref(ours[:k])[1]) == M[:k, :].to_DM().rank(), trial


def test_numpy_integers_are_eliminated_as_python_ints():
    # big * big overflows int64: numpy integer entries, and Fractions built
    # on them, must reach the elimination as Python ints
    big = 3037000500
    rows = [[big, 1], [1, big]]
    scalars = [[np.int64(v) for v in row] for row in rows]
    variants = (scalars, np.array(scalars, dtype=object),
                [[Fraction(v) for v in row] for row in scalars],
                [[Fraction(np.int64(3 * v), np.int64(3)) for v in row] for row in rows])
    want = exactla.inertia_counts(exactla.frac_matrix(rows))
    assert want == (0, 0, 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for variant in variants:
            m = exactla.frac_matrix(variant)
            assert all(type(x.numerator) is int and type(x.denominator) is int for x in m.flat)
            assert exactla.inertia_counts(m) == want
            form = SymmetricForm.from_matrix(variant, exact=True)
            assert inertia(form).counts == want
            # exactla called directly on the unconverted object array
            assert exactla.inertia_counts(np.array(variant, dtype=object)) == want
