"""Constraint predictors against the restriction oracle: dual solves,
single and joint drop formulas, criticality, every kind of constraint set."""
import numpy as np
import pytest
from fractions import Fraction

from morsekit import bilinear, exactla
from morsekit.bilinear import (
    InnerProductSpace,
    SymmetricForm,
    inertia,
    kernel_intersection,
    maximal_negative_subspace_through,
    morse_index,
    restrict,
)
from morsekit.constraints import (
    BRANCH_EFFECT,
    Functional,
    analyze,
    decide,
    diagonalize_duals,
    is_s_critical,
    predict_index_drop,
    predict_multi,
    predict_nullity_change,
    riesz,
    solve_dual,
)
from morsekit.errors import DependentInput, TrivialFunctional
from morsekit.harness import _make_single_instance, random_unimodular


def exact_form(rows):
    return SymmetricForm.from_matrix(exactla.frac_matrix(rows))


def fv(entries):
    return exactla.frac_vector(entries)


def random_exact_instance(rng, n):
    m = rng.integers(-4, 5, (n, n))
    return exact_form(m + m.T)


# ---------------------------------------------------------------------------
# riesz representatives

def test_riesz_euclidean_is_identity_map():
    space = InnerProductSpace.euclidean(3)
    f = np.array([1.0, -2.0, 0.5])
    assert np.allclose(riesz(space, f), f)


def test_riesz_weighted_gram():
    # <u, v> = 2 u1 v1 + u2 v2, phi = (2, 3) gives u = (1, 3)
    space = InnerProductSpace(exactla.frac_matrix([[2, 0], [0, 1]]))
    u = riesz(space, fv([2, 3]))
    assert u[0] == 1 and u[1] == 3


def test_riesz_reproduces_functional():
    rng = np.random.default_rng(3)
    for _ in range(10):
        m = rng.standard_normal((4, 4))
        gram = m @ m.T + 4.0 * np.eye(4)
        space = InnerProductSpace(0.5 * (gram + gram.T))
        f = rng.standard_normal(4)
        u = riesz(space, f)
        v = rng.standard_normal(4)
        assert np.isclose(space.inner(u, v), f @ v)


# ---------------------------------------------------------------------------
# solve_dual branches

def test_solve_dual_negative_branch():
    form = exact_form([[-1, 0], [0, 1]])
    out = solve_dual(form, fv([1, 0]))
    assert out.in_range
    assert out.u[0] == -1 and out.u[1] == 0
    assert out.phi_of_u == -1


def test_solve_dual_positive_branch():
    form = exact_form([[0, 0], [0, 1]])
    out = solve_dual(form, fv([0, 1]))
    assert out.in_range
    assert out.phi_of_u == 1


def test_solve_dual_out_of_range_witness():
    form = exact_form([[0, 0], [0, 1]])
    out = solve_dual(form, fv([1, 0]))
    assert not out.in_range
    z = out.kernel_component
    # z spans Ker(A) = span(e1) and phi does not vanish on it
    assert z[1] == 0 and z[0] != 0
    assert isinstance(z[0], Fraction)


def test_solve_dual_float_matches_exact():
    rng = np.random.default_rng(11)
    for _ in range(25):
        n = int(rng.integers(2, 6))
        m = rng.integers(-3, 4, (n, n))
        A = m + m.T
        f = rng.integers(-3, 4, n)
        if not np.any(f):
            continue
        ex = solve_dual(exact_form(A), fv(f))
        fl = solve_dual(SymmetricForm.from_matrix(A.astype(float)),
                        f.astype(float))
        assert ex.in_range == fl.in_range
        if ex.in_range:
            assert np.isclose(float(ex.phi_of_u), fl.phi_of_u, atol=1e-8)


def test_phi_of_u_independent_of_solution_choice():
    # f in range(A) is gram-perpendicular to Ker(A), so adding any kernel
    # vector to u leaves phi(u) unchanged
    rng = np.random.default_rng(13)
    checked = 0
    while checked < 20:
        n = int(rng.integers(3, 6))
        form = random_exact_instance(rng, n)
        null_basis = exactla.nullspace(form.matrix)
        if not null_basis:
            continue
        y = fv(rng.integers(-3, 4, n))
        f = form.matrix.dot(y)  # guaranteed in range
        if not np.any(f):
            continue
        out = solve_dual(form, f)
        assert out.in_range
        base = out.phi_of_u
        shift = out.u + null_basis[0]
        assert f.dot(shift) == base
        checked += 1


# ---------------------------------------------------------------------------
# single-constraint predictions vs oracle

def test_predict_index_drop_examples():
    form = exact_form([[-1, 0], [0, 1]])
    assert predict_index_drop(form, fv([1, 0])) == 1  # phi_of_u = -1
    assert predict_index_drop(form, fv([0, 1])) == 0  # phi_of_u = +1
    sing = exact_form([[0, 0], [0, 1]])
    assert predict_index_drop(sing, fv([1, 0])) == 0  # out of range


def test_predict_nullity_change_examples():
    sing = exact_form([[0, 0], [0, 1]])
    assert predict_nullity_change(sing, fv([1, 0])) == -1
    assert predict_nullity_change(sing, fv([0, 1])) == 0  # phi_of_u = 1
    # A = diag(1, 0), phi = e1: u = e1 solves, phi(u) = 1 > 0 -> 0
    other = exact_form([[1, 0], [0, 0]])
    assert predict_nullity_change(other, fv([1, 0])) == 0
    # u in Ker(phi): A = diag(-1, 1, 0) with phi = (0, 1, 0) has u = e2,
    # not in the kernel; use phi = (1, 0, 0) -> u = -e1, phi(u) = -1.
    # A zero-branch case: A = [[0,1],[1,0]], phi = (1, 0): u = (0, 1),
    # phi(u) = 0, nullity rises from 0 to 1 on Ker(phi) = span(e2)
    hyp = exact_form([[0, 1], [1, 0]])
    assert predict_nullity_change(hyp, fv([1, 0])) == 1


def test_zero_functional_rejected():
    form = exact_form([[-1, 0], [0, 1]])
    with pytest.raises(TrivialFunctional):
        predict_index_drop(form, fv([0, 0]))
    with pytest.raises(TrivialFunctional):
        predict_nullity_change(form, fv([0, 0]))
    rep = predict_multi(form, [fv([1, 0]), fv([0, 0])])
    assert (rep.drop, rep.change) == (1, 0)


def test_single_constraint_theorem_matches_oracle_exact():
    rng = np.random.default_rng(101)
    for trial in range(120):
        n = int(rng.integers(2, 7))
        form = random_exact_instance(rng, n)
        f = rng.integers(-4, 5, n)
        if not np.any(f):
            continue
        phi = fv(f)
        full = inertia(form)
        cut = inertia(restrict(form, [phi]))
        assert full.negative - predict_index_drop(form, phi) == cut.negative
        assert full.zero + predict_nullity_change(form, phi) == cut.zero


def test_single_constraint_theorem_matches_oracle_float():
    rng = np.random.default_rng(103)
    for trial in range(60):
        n = int(rng.integers(2, 7))
        lam = rng.integers(-4, 5, n)
        B = random_unimodular(rng, n)
        A = (B.T @ np.diag(lam) @ B).astype(float)
        form = SymmetricForm.from_matrix(A)
        f = (B.T @ rng.integers(-3, 4, n)).astype(float)
        if not np.any(f):
            continue
        full = inertia(form)
        cut = inertia(restrict(form, [f]))
        if full.marginal or cut.marginal:
            continue
        assert full.negative - predict_index_drop(form, f) == cut.negative
        assert full.zero + predict_nullity_change(form, f) == cut.zero


def test_instability_from_nonpositive_phi():
    # in range with phi(u) <= 0 and f != 0 forces at least one negative
    # direction in the unconstrained form
    rng = np.random.default_rng(107)
    seen = 0
    while seen < 30:
        n = int(rng.integers(2, 6))
        form = random_exact_instance(rng, n)
        f = rng.integers(-4, 5, n)
        if not np.any(f):
            continue
        out = solve_dual(form, fv(f))
        if not out.in_range or out.phi_of_u > 0:
            continue
        assert morse_index(form) >= 1
        seen += 1


def test_is_s_critical_tracks_drop():
    form = exact_form([[-1, 0], [0, 1]])
    assert is_s_critical(form, fv([1, 0]))
    assert not is_s_critical(form, fv([0, 1]))


def test_s_critical_geometric_witness():
    # when phi(u) < 0 the dual u is a negative direction and the maximal
    # negative subspace through it meets Ker(phi) in one dimension less
    rng = np.random.default_rng(109)
    seen = 0
    while seen < 15:
        n = int(rng.integers(2, 6))
        form = random_exact_instance(rng, n)
        f = rng.integers(-4, 5, n)
        if not np.any(f):
            continue
        out = solve_dual(form, fv(f))
        if not out.in_range or not out.phi_of_u < 0:
            continue
        u = out.u
        assert form.quadratic(u) == out.phi_of_u
        W = maximal_negative_subspace_through(form, u)
        coeffs_on_w = W.basis.T.dot(fv(f))
        inside = kernel_intersection(
            InnerProductSpace.euclidean(W.dim, exact=True), [coeffs_on_w])
        assert inside.dim == W.dim - 1
        seen += 1


# ---------------------------------------------------------------------------
# joint constraints

def test_predict_multi_two_negative_directions():
    form = exact_form(np.diag([-1, -1, 1]))
    rep = predict_multi(form, [fv([1, 0, 0]), fv([0, 1, 0])])
    assert rep.drop == 2 and rep.change == 0
    assert rep.gram_matrix[0, 0] == -1
    assert rep.gram_matrix[1, 1] == -1
    assert rep.gram_matrix[0, 1] == 0
    cut = inertia(restrict(form, [fv([1, 0, 0]), fv([0, 1, 0])]))
    assert cut.negative == morse_index(form) - rep.drop


def _predicts_restriction(form, fs):
    rep = predict_multi(form, fs)
    full, cut = inertia(form), inertia(restrict(form, fs))
    assert (cut.negative, cut.zero) == (full.negative - rep.drop, full.zero + rep.change)
    return rep


def test_predict_multi_predicts_dependent_set():
    form = exact_form(np.diag([-1, -1, 1]))
    rep = _predicts_restriction(form, [fv([1, 0, 0]), fv([2, 0, 0])])
    assert (rep.drop, rep.change, len(rep.duals)) == (1, 0, 1)


def test_predict_multi_predicts_out_of_range_set():
    # e1 spans Ker A, so only e2 has a dual: Phi_R = span(e2), k - k0 = 1
    form = exact_form(np.diag([0, 1, -1]))
    rep = _predicts_restriction(form, [fv([0, 1, 0]), fv([1, 0, 0])])
    assert (rep.drop, rep.change, len(rep.duals)) == (0, -1, 1)


def test_predict_multi_of_one_constraint_is_its_branch_effect():
    # the fuzz generator pins each single constraint's branch
    for branch, effect in BRANCH_EFFECT.items():
        for seed in range(25):
            A, (f,) = _make_single_instance(np.random.default_rng([seed]), 8, branch)
            form, phi = exact_form(A), fv(f)
            rep = predict_multi(form, [phi])
            d = decide(form, phi)
            assert d.branch == branch
            assert (rep.drop, rep.change) == (d.drop, d.change) == effect


def test_multi_constraint_matches_oracle_exact():
    rng = np.random.default_rng(211)
    for _ in range(60):
        n = int(rng.integers(3, 7))
        form = random_exact_instance(rng, n)
        k = int(rng.integers(2, min(n, 4)))
        _predicts_restriction(form, [fv(rng.integers(-3, 4, n)) for _ in range(k)])


def test_diagonalize_duals_preserves_drop_count():
    rng = np.random.default_rng(223)
    for _ in range(20):
        n = int(rng.integers(3, 7))
        form = random_exact_instance(rng, n)
        k = int(rng.integers(2, min(n, 4)))
        fs = [fv(rng.integers(-3, 4, n)) for _ in range(k)]
        rep = predict_multi(form, fs)
        new_duals = diagonalize_duals(form, rep.duals)
        m = len(new_duals)
        vals = [form.quadratic(u) for u in new_duals]
        pairing_offdiag = [form.evaluate(new_duals[i], new_duals[j])
                           for i in range(m) for j in range(i + 1, m)]
        assert all(v == 0 for v in pairing_offdiag)
        # the k - k0 directions of Phi outside the range lower the nullity
        missing = len(exactla.rref(np.stack(fs))[1]) - m
        assert sum(1 for v in vals if v <= 0) == rep.drop
        assert sum(1 for v in vals if v == 0) - missing == rep.change


def test_diagonalize_duals_rejects_dependent_input():
    form = exact_form(np.diag([-1, 1]))
    with pytest.raises(DependentInput):
        diagonalize_duals(form, [fv([1, 0]), fv([2, 0])])


def test_nullity_witness_is_null_on_restriction():
    # zero branch: u solves A u = f with phi(u) = 0, so u lies in Ker(phi)
    # and is S-perpendicular to all of Ker(phi)
    rng = np.random.default_rng(227)
    seen = 0
    while seen < 12:
        n = int(rng.integers(2, 6))
        form = random_exact_instance(rng, n)
        f = rng.integers(-4, 5, n)
        if not np.any(f):
            continue
        out = solve_dual(form, fv(f))
        if not out.in_range or out.phi_of_u != 0:
            continue
        u = out.u
        sub = kernel_intersection(form.space, [fv(f)])
        for j in range(sub.dim):
            assert form.evaluate(u, sub.basis[:, j]) == 0
        seen += 1


# ---------------------------------------------------------------------------
# analyze

def test_analyze_single_constraint_report():
    form = exact_form([[-1, 0], [0, 1]])
    rep = analyze(form, [fv([1, 0])])
    assert rep.mi_full == 1 and rep.nullity_full == 0
    assert rep.mi_constrained_oracle == 0
    assert rep.mi_constrained_predicted == 0
    assert rep.nullity_constrained_predicted == 0
    assert rep.s_critical == (True,)
    assert rep.agreement


def test_analyze_no_constraints():
    form = exact_form(np.diag([-2, 0, 3]))
    rep = analyze(form, [])
    assert rep.mi_constrained_oracle == 1
    assert rep.nullity_constrained_oracle == 1
    assert rep.mi_constrained_predicted == 1
    assert rep.agreement


def _predicted_equals_oracle(rep, counts):
    assert (rep.mi_constrained_predicted, rep.nullity_constrained_predicted) == counts
    assert (rep.mi_constrained_oracle, rep.nullity_constrained_oracle) == counts
    assert rep.agreement
    assert not any("oracle only" in w for w in rep.warnings)


def test_analyze_predicts_set_with_zero_functional():
    form = exact_form([[-1, 0], [0, 1]])
    rep = analyze(form, [fv([0, 0])])
    # Ker(0) is the whole space
    _predicted_equals_oracle(rep, (1, 0))
    assert rep.s_critical == ()


def test_analyze_predicts_dependent_set():
    form = exact_form(np.diag([-1, -1, 1]))
    rep = analyze(form, [fv([1, 0, 0]), fv([2, 0, 0])])
    # Phi = span(e1) is in range with M = (-1): one drop
    _predicted_equals_oracle(rep, (1, 0))


def test_analyze_predicts_set_with_functional_out_of_range():
    form = exact_form(np.diag([0, 1, -1]))
    rep = analyze(form, [fv([0, 1, 0]), fv([1, 0, 0])])
    # Ker both = span(e3), restricted form = (-1); Phi_R = span(e2) with
    # M = (1), and e1 off the range takes the nullity
    _predicted_equals_oracle(rep, (1, 0))


def test_analyze_agreement_over_random_instances():
    rng = np.random.default_rng(229)
    for trial in range(80):
        n = int(rng.integers(2, 6))
        form = random_exact_instance(rng, n)
        k = int(rng.integers(0, 3))
        fs = [fv(rng.integers(-3, 4, n)) for _ in range(k)]
        rep = analyze(form, fs)
        assert rep.agreement


SET_KINDS = ("mixed", "dependent", "zero", "random")


def planted_set(rng, kind):
    """(A, fs): A = B^T L B for unimodular integer B and n <= 8, half with
    a planted kernel, and one to n - 1 integer constraints of the kind:
    each in range (B^T L y) or not (B^T y) at random, the same plus an
    integer combination of them, the same plus a zero row, or arbitrary
    integer rows."""
    n = int(rng.integers(2, 9))
    lam = rng.choice([-5, -4, -3, -2, -1, 1, 2, 3, 4, 5], n)
    if rng.integers(2):
        lam[rng.permutation(n)[:rng.integers(1, n)]] = 0
    B = random_unimodular(rng, n)
    k = int(rng.integers(1, n))
    if kind == "random":
        return B.T @ (lam[:, None] * B), [rng.integers(-3, 4, n) for _ in range(k)]
    fs = [B.T @ (lam * y if rng.integers(2) else y)
          for y in rng.integers(-2, 3, (k, n))]
    if kind == "dependent":
        fs.append(sum(int(c) * f for c, f in zip(rng.integers(-2, 3, k), fs)))
    elif kind == "zero":
        fs.insert(int(rng.integers(k + 1)), np.zeros(n, dtype=np.int64))
    return B.T @ (lam[:, None] * B), fs


@pytest.mark.parametrize("kind", SET_KINDS)
def test_analyze_predicts_every_exact_set(kind):
    rng = np.random.default_rng(SET_KINDS.index(kind))
    for _ in range(100):
        A, fs = planted_set(rng, kind)
        rep = analyze(SymmetricForm.from_matrix(A, exact=True), fs)
        predicted = (rep.mi_constrained_predicted, rep.nullity_constrained_predicted)
        assert all(type(c) is int for c in predicted)
        assert predicted == (rep.mi_constrained_oracle, rep.nullity_constrained_oracle)
        assert rep.agreement


@pytest.mark.parametrize("kind", SET_KINDS)
def test_float_predictions_under_congruence_are_right(kind):
    # the float form c P^T A P on the gram P^T P with constraints d_i P^T f_i
    # has the restricted counts of the exact A with the f_i, for any
    # invertible P and positive scales c and d_i
    rng = np.random.default_rng(100 + SET_KINDS.index(kind))
    checked = 0
    for _ in range(60):
        A, fs = planted_set(rng, kind)
        exact = analyze(SymmetricForm.from_matrix(A, exact=True), fs)
        truth = (exact.mi_constrained_oracle, exact.nullity_constrained_oracle)
        n = A.shape[0]
        P = np.eye(n) + rng.uniform(-1.0, 1.0, (n, n))
        AP = P.T @ A @ P
        form = SymmetricForm.from_matrix(10.0 ** rng.uniform(-3, 3) * 0.5 * (AP + AP.T),
                                         gram=P.T @ P)
        rep = analyze(form, [10.0 ** rng.uniform(-3, 3) * (P.T @ f) for f in fs])
        # a planted kernel flags the full spectrum, so the rule "right
        # unless flagged" would not see a wrong count on a set with one
        # out of range; the predictor is held to the truth everywhere
        assert (rep.mi_constrained_predicted, rep.nullity_constrained_predicted) == truth
        if not any("marginal" in w for w in rep.warnings):
            assert (rep.mi_constrained_oracle, rep.nullity_constrained_oracle) == truth
            checked += 1
    assert checked >= 20


def test_range_cutoff_is_absolute():
    # Ker A = span(e1), and every constraint meets it at a cosine of 1e-12,
    # far inside the cutoff: Phi_R is all of Phi = span(e2, e3), M =
    # diag(1, -1).  A cutoff relative to the largest cosine would read the
    # 1 x 2 block K^T B as rank 1 and lose a dimension of Phi_R.
    form = SymmetricForm.from_matrix(np.diag([0.0, 1.0, -1.0]))
    rep = analyze(form, [np.array([1e-12, 1.0, 0.0]), np.array([0.0, 0.0, 1.0]),
                         np.array([1e-12, 1.0, 1.0])])
    assert (rep.mi_constrained_predicted, rep.nullity_constrained_predicted) == (0, 1)
    assert rep.agreement


def test_span_cosine_near_the_cutoff_is_warned():
    # Ker A = span(e1, e2); each constraint is far from the range, but
    # their difference (0, -3e-8, 1, -1) meets Ker A at a cosine of 2.1e-8,
    # just past the cutoff: Phi_R = 0 and the nullity falls by two
    form = SymmetricForm.from_matrix(np.diag([0.0, 0.0, 1.0, -1.0]))
    rep = analyze(form, [np.array([1.0, 0.0, 1.0, 0.0]), np.array([1.0, 3e-8, 0.0, 1.0])])
    assert (rep.mi_constrained_predicted, rep.nullity_constrained_predicted) == (1, 0)
    assert rep.agreement
    assert ("range cosine 2.121e-08 of the constraint span is marginal against cutoff 1.0e-08"
            in rep.warnings)


def test_constraints_in_range_whose_span_meets_the_kernel():
    # each constraint meets Ker A = span(e2) at a cosine of 5e-9, inside the
    # cutoff, but their span holds e2 itself: Phi_R = span(e1), so the
    # nullity falls and the index stays, as on Ker f1 and f2 = span(e3)
    form = SymmetricForm.from_matrix(np.diag([1.0, 0.0, -1.0]))
    rep = analyze(form, [np.array([1.0, 5e-9, 0.0]), np.array([1.0, -5e-9, 0.0])])
    assert (rep.mi_constrained_predicted, rep.nullity_constrained_predicted) == (1, 0)
    assert rep.agreement


def test_analyze_float_backend_report():
    form = SymmetricForm.from_matrix(np.diag([-1.0, 1.0]))
    rep = analyze(form, [np.array([1.0, 0.0])])
    assert rep.mi_constrained_predicted == 0
    assert rep.agreement


def test_analyze_factors_the_full_form_once(count_calls):
    # one eigensolve for the full form, read again by the dual solve, and
    # one for the restricted pencil of the oracle
    calls = count_calls(bilinear, "_eigh")
    form = SymmetricForm.from_matrix(np.diag([0.0, 1.0, -2.0]))
    rep = analyze(form, [np.array([1.0, 0.0, 0.0])])
    assert rep.nullity_constrained_predicted == 0
    assert rep.agreement
    assert len(calls) == 2


def test_exact_analyze_diagonalizes_twice_and_restricts_nothing(count_calls):
    # one congruence diagonalization for the full form, read again by the
    # dual solve, and one for the oracle's B^T A B; no restricted form and
    # so no check of its gram
    diagonalize = count_calls(exactla, "congruence_diagonalize")
    restricted = count_calls(bilinear, "restrict")
    form = exact_form([[2, 1, 0], [1, 0, Fraction(1, 3)], [0, Fraction(1, 3), -1]])
    rep = analyze(form, [fv([1, -1, 2])])
    assert rep.agreement
    assert len(diagonalize) == 2
    assert restricted == []


def test_float_joint_prediction_validates_nothing_it_built(count_calls):
    # the pairing pencil (U^T A U, U^T G U) and the oracle's (B^T A B,
    # B^T G B) are symmetric and positive definite by construction, so
    # once the input form is built no matrix is checked again
    rng = np.random.default_rng(23)
    m, c = rng.standard_normal((2, 5, 5))
    form = SymmetricForm.from_matrix(m + m.T, c.dot(c.T) + np.eye(5))
    symmetric = count_calls(bilinear, "_check_symmetric")
    definite = count_calls(bilinear, "_positive_definite")
    rep = analyze(form, list(rng.standard_normal((3, 5))))
    assert rep.agreement
    assert symmetric == [] and definite == []


def test_exact_joint_prediction_converts_only_the_constraints(count_calls):
    # each constraint is converted by analyze and again by the oracle's
    # kernel_intersection; the pairing matrix is counted as it comes from
    # the congruence, with no form, gram or check built around it
    form = SymmetricForm.from_matrix(
        exactla.frac_matrix([[2, 1, 0, 0], [1, 0, Fraction(1, 3), 0],
                             [0, Fraction(1, 3), -1, 2], [0, 0, 2, 1]]),
        gram=exactla.frac_matrix(np.diag([1, 2, 1, 3])))
    phis = [fv([1, -1, 2, 0]), fv([0, 1, 0, 1]), fv([3, 0, 0, -1])]
    converted = count_calls(exactla, "frac_matrix")
    symmetric = count_calls(bilinear, "_check_symmetric")
    definite = count_calls(bilinear, "_positive_definite")
    rep = analyze(form, phis)
    assert rep.agreement
    assert len(converted) == 2 * len(phis)
    assert symmetric == [] and definite == []


def test_functional_wrapper_call():
    phi = Functional(fv([1, -2]))
    assert phi(fv([3, 1])) == 1
    assert phi.dim == 2
    assert not phi.is_zero()
    assert Functional(fv([0, 0])).is_zero()


def test_phi_of_u_deep_inside_the_band_is_marginal():
    # diag(1, -1) with f = (1, 1): u = (1, -1) and phi(u) = 0 exactly, so
    # the zero branch rests on a value inside the band and is flagged, by
    # the same rule that flags the restricted spectrum
    form = SymmetricForm.from_matrix(np.diag([1.0, -1.0]))
    rep = analyze(form, [np.array([1.0, 1.0])])
    assert (rep.mi_constrained_predicted, rep.nullity_constrained_predicted) == (0, 1)
    assert "phi(u) classification is marginal" in rep.warnings
    assert "restricted spectrum has marginal eigenvalues" in rep.warnings


# ---------------------------------------------------------------------------
# range and dual from the one factorization

def test_exact_dual_in_range_needs_no_elimination(count_calls):
    # f = A y is in range; the congruence factorization alone gives u
    A = exactla.frac_matrix([[2, 1, 0], [1, 0, Fraction(1, 3)], [0, Fraction(1, 3), 0]])
    form = SymmetricForm.from_matrix(A)
    f = A.dot(fv([1, Fraction(-2, 7), 5]))
    bilinear.factor(form)
    rref = count_calls(exactla, "rref")
    solve_general = count_calls(exactla, "solve_general")
    out = solve_dual(form, f)
    assert out.in_range and out.residual == 0
    assert all(isinstance(x, Fraction) for x in out.u)
    assert not np.any(A.dot(out.u) - f)
    assert rref == [] and solve_general == []


def test_counts_then_dual_solve_a_dense_form_once(count_calls):
    # the counts and the dual read one factorization with eigenvectors, so
    # the form is solved once and its zero band does not move in between
    rng = np.random.default_rng(20)
    m, c = rng.standard_normal((2, 6, 6))
    form = SymmetricForm.from_matrix(m + m.T, c.dot(c.T) + np.eye(6))
    eigh = count_calls(bilinear, "_eigh")
    inertia(form)
    scale = form.factored.scale
    assert solve_dual(form, rng.standard_normal(6)).in_range
    assert len(eigh) == 1
    assert bilinear.factor(form).scale == scale


def test_empty_band_puts_every_functional_in_range():
    # a nonsingular float form has no band kernel: every cosine is 0
    rng = np.random.default_rng(5)
    m = rng.standard_normal((5, 5))
    form = SymmetricForm.from_matrix(m + m.T)
    fac = bilinear.factor(form)
    assert fac.split(form.space.tol)[1].shape[1] == 0
    for _ in range(10):
        f = rng.standard_normal(5)
        assert fac.range_cosine(f, form.space.tol) == 0.0
        out = solve_dual(form, f)
        assert out.in_range and out.residual == 0.0 and out.warnings == ()
        assert np.allclose(form.matrix.dot(out.u), f)


def test_float_range_cosine_against_the_band_kernel():
    # Ker A = span(1, 1, 0) / sqrt 2 in the weighted space; the cosine of
    # f with that kernel is Euclidean, as range(A) = Ker(A)^perp is
    form = SymmetricForm(InnerProductSpace(np.diag([1.0, 4.0, 2.0])),
                         np.array([[1.0, -1.0, 0.0], [-1.0, 1.0, 0.0], [0.0, 0.0, 3.0]]))
    fac = bilinear.factor(form)
    tol = form.space.tol
    assert fac.range_cosine(np.array([1.0, -1.0, 2.0]), tol) < 1e-15
    assert np.isclose(fac.range_cosine(np.array([1.0, 0.0, 0.0]), tol), np.sqrt(0.5))
    out = solve_dual(form, np.array([1.0, -1.0, 2.0]))
    assert out.in_range
    assert np.allclose(form.matrix.dot(out.u), [1.0, -1.0, 2.0])
    out = solve_dual(form, np.array([1.0, 0.0, 0.0]))
    assert not out.in_range and np.isclose(out.residual, np.sqrt(0.5))
    # the witness is the gram-orthogonal projection of G^-1 f onto Ker A
    assert np.allclose(out.kernel_component, [0.2, 0.2, 0.0])


def test_range_cosine_near_the_cutoff_is_marginal():
    # f leans on the kernel e1 by a cosine of about 2e-8, within a factor
    # 10 of the cutoff 1e-8, so the range decision is flagged
    form = SymmetricForm.from_matrix(np.diag([0.0, 1.0]))
    out = solve_dual(form, np.array([2e-8, 1.0]))
    assert not out.in_range
    assert len(out.warnings) == 1 and "marginal" in out.warnings[0]
    out = solve_dual(form, np.array([1e-3, 1.0]))
    assert not out.in_range and out.warnings == ()
