"""One scale-aware zero band: counts do not move under the paper's
invariances (scaling the form, rescaling a constraint, congruence,
reordering constraints), float counts agree with exact ones unless a
warning flags them marginal, and impossible predictions raise."""
import math
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import configuration, given, settings
from hypothesis import strategies as st

from morsekit import (
    DEFAULT,
    InnerProductSpace,
    SymmetricForm,
    Tolerances,
    analyze,
    inertia,
    maximal_negative_subspace_through,
    morse_index,
    s_project,
)
from morsekit import constraints
from morsekit.constraints import BRANCH_EFFECT, Decision
from morsekit.errors import ImpossibleCounts, NonSymmetric, NotPositiveDefinite, ValidationError
from morsekit.harness import random_unimodular

# deterministic examples, and no example database written to disk
PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=100)


# hypothesis caches the constants it reads from the package source under
# its home directory, ./.hypothesis by default, while tests are collected;
# keep that cache out of the source tree
configuration.set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "morsekit-hypothesis")


@st.composite
def problems(draw):
    """(A, fs) with A = B^T L B for unimodular integer B, and one to three
    integer constraints, in range (B^T L y) or generic (B^T y)."""
    n = draw(st.integers(2, 6))
    lam = np.array(draw(st.lists(st.integers(-5, 5), min_size=n, max_size=n)))
    B = random_unimodular(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), n)
    in_range = draw(st.booleans())
    fs = []
    for _ in range(draw(st.integers(1, min(3, n - 1)))):
        y = np.array(draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n)))
        fs.append(B.T @ (lam * y if in_range else y))
    return B.T @ (lam[:, None] * B), fs


def _counts(rep):
    return ((rep.mi_constrained_oracle, rep.nullity_constrained_oracle),
            (rep.mi_constrained_predicted, rep.nullity_constrained_predicted))


def _truth(A, fs):
    """Exact restricted counts of the integer instance."""
    return _counts(analyze(SymmetricForm.from_matrix(A, exact=True), fs))[0]


def _agrees_unless_flagged(truth, A, fs):
    """A float count is right, flagged marginal, or refused as impossible."""
    form = SymmetricForm.from_matrix(np.asarray(A, dtype=float))
    try:
        rep = analyze(form, [np.asarray(f, dtype=float) for f in fs])
    except ImpossibleCounts:
        return
    if any("marginal" in w for w in rep.warnings):
        return
    oracle, predicted = _counts(rep)
    assert oracle == truth
    assert predicted == truth


@PROPERTY
@given(problems(), st.integers(-150, 150))
def test_scaling_the_form_moves_no_count(problem, k):
    A, fs = problem
    _agrees_unless_flagged(_truth(A, fs), 10.0 ** k * A, fs)


@PROPERTY
@given(problems(), st.integers(-150, 150))
def test_scaling_the_constraints_moves_no_count(problem, k):
    A, fs = problem
    _agrees_unless_flagged(_truth(A, fs), A, [10.0 ** k * f for f in fs])


@PROPERTY
@given(problems(), st.integers(0, 2**32 - 1))
def test_congruence_moves_no_count(problem, seed):
    A, fs = problem
    P = random_unimodular(np.random.default_rng(seed), A.shape[0])
    _agrees_unless_flagged(_truth(A, fs), P.T @ A @ P, [P.T @ f for f in fs])


@PROPERTY
@given(problems(), st.randoms(use_true_random=False))
def test_constraint_order_moves_no_count(problem, rnd):
    A, fs = problem
    _agrees_unless_flagged(_truth(A, fs), A, rnd.sample(fs, len(fs)))


@PROPERTY
@given(problems())
def test_float_agrees_with_exact_unless_marginal(problem):
    A, fs = problem
    _agrees_unless_flagged(_truth(A, fs), A, fs)


SCALES = (1e-200, 1e-150, 1e-100, 1.0, 1e100, 1e150)


@pytest.mark.parametrize("h", SCALES)
def test_split_form_counts_at_every_scale(h):
    # diag(h, -h) on Ker(1, 1) is the zero form: phi(u) = 0 for the dual,
    # so index 1 drops to 0 and the nullity rises to 1
    form = SymmetricForm.from_matrix(np.diag([h, -h]))
    rep = analyze(form, [np.array([1.0, 1.0])])
    assert (rep.mi_constrained_predicted, rep.nullity_constrained_predicted) == (0, 1)
    assert (rep.mi_constrained_oracle, rep.nullity_constrained_oracle) == (0, 1)
    assert rep.agreement


def test_tiny_scale_raises_no_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = analyze(SymmetricForm.from_matrix(np.diag([1e-200, -1e-200])),
                      [np.array([1.0, 1.0])])
    assert (rep.mi_constrained_predicted, rep.nullity_constrained_predicted) == (0, 1)


def test_impossible_prediction_raises(monkeypatch):
    # a decision no form can produce: the negative branch on diag(1, 2),
    # whose Morse index 0 would drop to -1
    real = constraints.decide

    def negative(form, phi, tol=None):
        return Decision("negative", *BRANCH_EFFECT["negative"], False,
                        real(form, phi, tol).outcome)

    monkeypatch.setattr(constraints, "decide", negative)
    with pytest.raises(ImpossibleCounts, match="impossible in dimension 2"):
        analyze(SymmetricForm.from_matrix(np.diag([1.0, 2.0])), [np.array([1.0, 0.0])])


def test_eigenvalue_inside_the_band_gives_a_flagged_disagreement():
    # a congruent copy of a fuzz instance: the eigenvalue -3.6e-5 sits in
    # the zero band of a form of norm 1.1e5, so the float full counts are
    # (0, 1) instead of (1, 0); f pairs with that band kernel, so it is out
    # of range and the prediction (0, 0) misses the oracle's (0, 1), which
    # the marginal flag says, instead of an impossible nullity
    A = np.array([[47120, -55178], [-55178, 64614]])
    f = np.array([-152, 178])
    rep = analyze(SymmetricForm.from_matrix(A.astype(float)), [f.astype(float)])
    assert (rep.mi_constrained_predicted, rep.nullity_constrained_predicted) == (0, 0)
    assert (rep.mi_constrained_oracle, rep.nullity_constrained_oracle) == (0, 1)
    assert not rep.agreement
    assert any("marginal" in w for w in rep.warnings)
    rep = analyze(SymmetricForm.from_matrix(A, exact=True), [f])
    assert (rep.mi_constrained_predicted, rep.nullity_constrained_predicted) == (0, 1)


def test_joint_prediction_with_nearly_parallel_duals():
    # the duals (1, 0, 0) and (1, 1e-6, 0) are nearly parallel, but their
    # span is exactly that of e1, e2, where the form is positive: no drop
    A = np.diag([1.0, 1e3, -1.0])
    rep = analyze(SymmetricForm.from_matrix(A),
                  [np.array([1.0, 0.0, 0.0]), np.array([1.0, 1e-3, 0.0])])
    assert (rep.mi_constrained_predicted, rep.nullity_constrained_predicted) == (1, 0)
    assert rep.agreement and rep.warnings == ()


def test_small_gram_is_positive_definite():
    space = InnerProductSpace(1e-12 * np.eye(3))
    assert space.dim == 3


def test_tiny_asymmetric_form_is_refused():
    with pytest.raises(NonSymmetric):
        SymmetricForm.from_matrix(1e-100 * np.array([[1.0, 2.0], [0.0, 1.0]]))


def test_single_direction_tests_at_small_scale():
    s = 1e-20
    form = SymmetricForm.from_matrix(s * np.diag([-1.0, -2.0, 3.0]))
    out = s_project(form, np.array([1.0, 0.0, 0.0]), np.array([3.0, 4.0, 5.0]))
    assert np.allclose(out, [3.0, 0.0, 0.0])
    sub = maximal_negative_subspace_through(form, np.array([1.0, 1.0, 0.0]))
    assert sub.dim == morse_index(form) == 2


def test_values_on_the_band_edges():
    # eigh returns a diagonal's entries exactly, and scale 1 gives tau = 1e-9
    # exactly: the band [-tau, tau] and the marginal window [-11 tau, 11 tau]
    # are closed
    for d, counts in (([1.0, 1e-9], (0, 1, 1)), ([1.0, -1e-9], (0, 1, 1)),
                      ([1.0, 11 * 1e-9], (0, 0, 2))):
        got = inertia(SymmetricForm.from_matrix(np.diag(d)))
        assert (got.counts, got.marginal) == (counts, True), d
    with pytest.raises(NotPositiveDefinite):
        InnerProductSpace(np.diag([1.0, 1e-9]))


@pytest.mark.parametrize("name,value", [
    ("null_band", -1.0), ("null_band", 0.0), ("residual", math.inf), ("rank", math.nan),
    ("symmetry", -1e-12), ("marginal_factor", 0.5), ("marginal_factor", math.nan)])
def test_invalid_tolerances_raise(name, value):
    with pytest.raises(ValidationError, match=name):
        Tolerances(**{name: value})
    with pytest.raises(ValidationError, match=name):
        DEFAULT.with_overrides(**{name: value})


def test_negative_band_is_refused_before_it_counts():
    # with null_band = -1 nothing would be zero: diag(1, 0, -1) would report
    # a Morse index of 2
    with pytest.raises(ValidationError):
        analyze(SymmetricForm.from_matrix(np.diag([1.0, 0.0, -1.0]),
                                          tol=Tolerances(null_band=-1.0)),
                [np.array([1.0, 1.0, 0.0])])
