"""Discretized interval problems: assembly, spectra, the boundary index
split, mean-zero weak index, mesh refinement stability."""
import json
import math
import sys
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from morsekit import bilinear, boundary, harness
from morsekit.bilinear import (
    Factorization,
    Inertia,
    InnerProductSpace,
    SymmetricForm,
    _eigh,
    inertia,
    restrict,
    restricted_inertia,
)
from morsekit.constraints import analyze, solve_dual
from morsekit.boundary import (
    _GAUSS_XI,
    AssembledProblem,
    Constant,
    CoefficientSpec,
    IntervalDomain,
    NodalSamples,
    Polynomial,
    _potential_values,
    assemble,
    dirichlet_spectrum,
    refine_and_check,
    robin_spectrum,
    steklov_spectrum,
    verify_decomposition,
    volume_functional,
    weak_index,
)
from morsekit.errors import (
    DegenerateDirichletKernel,
    InvalidCoefficients,
    ZeroBoundaryWeight,
)
from morsekit.tolerances import DEFAULT, classify_spectrum


def problem(a, b, n, p, q_a=0.0, q_b=0.0):
    return assemble(IntervalDomain(a, b, n), CoefficientSpec(p, q_a, q_b))


# ---------------------------------------------------------------------------
# assembly

def test_single_element_matrices():
    prob = problem(0.0, 1.0, 1, Constant(0.0))
    assert np.allclose(prob.K, [[1.0, -1.0], [-1.0, 1.0]])
    assert np.allclose(prob.Mmass, np.array([[2.0, 1.0], [1.0, 2.0]]) / 6.0)
    assert np.allclose(prob.P, 0.0)
    assert np.allclose(prob.Qmat, prob.K)


def test_constant_potential_matrix_is_scaled_mass():
    prob = problem(0.0, 2.0, 5, Constant(3.0))
    assert np.allclose(prob.P, 3.0 * prob.Mmass, atol=1e-14)


def test_boundary_weights_enter_with_minus_sign():
    base = problem(0.0, 1.0, 4, Constant(0.0))
    weighted = problem(0.0, 1.0, 4, Constant(0.0), q_a=2.0, q_b=7.0)
    assert np.isclose(weighted.Qmat[0, 0], base.Qmat[0, 0] - 2.0)
    assert np.isclose(weighted.Qmat[-1, -1], base.Qmat[-1, -1] - 7.0)
    assert np.allclose(weighted.Qmat[1:-1, 1:-1], base.Qmat[1:-1, 1:-1])


def test_matrices_are_symmetric():
    prob = problem(-1.0, 3.0, 9, Polynomial((1.0, -2.0, 0.5)), q_a=1.0)
    for m in (prob.K, prob.Mmass, prob.P, prob.Qmat):
        assert np.array_equal(m, m.T)


def test_stiffness_annihilates_constants():
    prob = problem(0.0, 1.0, 13, Constant(4.0))
    ones = np.ones(prob.n_nodes)
    assert np.allclose(prob.K @ ones, 0.0, atol=1e-13)
    # mass row sums integrate the hat functions: total is |domain|
    assert np.isclose(ones @ prob.Mmass @ ones, 1.0)


def _simpson_energy(prob, u, v):
    # independent per-element quadrature of the weak form; Simpson is
    # exact through cubics, covering constant, linear, and nodal p
    dom = prob.domain
    nodes = dom.nodes
    h = dom.h
    coeffs = prob.coeffs

    def pot(x):
        if isinstance(coeffs.p, Constant):
            return coeffs.p.value
        if isinstance(coeffs.p, Polynomial):
            return sum(c * x ** k for k, c in enumerate(coeffs.p.coeffs))
        vals = np.asarray(coeffs.p.values, dtype=float)
        return float(np.interp(x, nodes, vals))

    total = 0.0
    for e in range(dom.n_elements):
        xl, xr = nodes[e], nodes[e + 1]
        xm = 0.5 * (xl + xr)
        du = (u[e + 1] - u[e]) / h
        dv = (v[e + 1] - v[e]) / h
        total += h * du * dv

        def uval(x):
            t = (x - xl) / h
            return (1 - t) * u[e] + t * u[e + 1]

        def vval(x):
            t = (x - xl) / h
            return (1 - t) * v[e] + t * v[e + 1]

        fl = pot(xl) * uval(xl) * vval(xl)
        fm = pot(xm) * uval(xm) * vval(xm)
        fr = pot(xr) * uval(xr) * vval(xr)
        total -= (h / 6.0) * (fl + 4.0 * fm + fr)
    total -= coeffs.q_a * u[0] * v[0]
    total -= coeffs.q_b * u[-1] * v[-1]
    return total


@pytest.mark.parametrize("p", [
    Constant(2.0),
    Polynomial((3.0, -1.5)),
])
def test_weak_form_matches_independent_quadrature(p):
    prob = problem(0.0, 2.0, 7, p, q_a=1.5, q_b=0.5)
    rng = np.random.default_rng(7)
    for _ in range(5):
        u = rng.standard_normal(prob.n_nodes)
        v = rng.standard_normal(prob.n_nodes)
        lhs = v @ prob.Qmat @ u
        rhs = _simpson_energy(prob, u, v)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


def test_weak_form_matches_quadrature_nodal_potential():
    dom = IntervalDomain(0.0, 1.0, 6)
    rng = np.random.default_rng(9)
    samples = tuple(rng.uniform(-5.0, 5.0, dom.n_elements + 1))
    prob = assemble(dom, CoefficientSpec(NodalSamples(samples), 0.0, 2.0))
    for _ in range(5):
        u = rng.standard_normal(prob.n_nodes)
        v = rng.standard_normal(prob.n_nodes)
        lhs = v @ prob.Qmat @ u
        rhs = _simpson_energy(prob, u, v)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


def test_polynomial_potential_evaluation():
    # p(x) = 1 + x^2 on [0,1]: P equals mass-weighted quadrature of p; the
    # constant part must match Mmass exactly, checked via p - x^2 split
    prob_full = problem(0.0, 1.0, 8, Polynomial((1.0, 0.0, 1.0)))
    prob_sq = problem(0.0, 1.0, 8, Polynomial((0.0, 0.0, 1.0)))
    assert np.allclose(prob_full.P - prob_sq.P, prob_full.Mmass, atol=1e-14)


def _element_loop_assembly(domain, coeffs):
    # reference: the element-by-element loop, one 2x2 block added at a time
    n, h, nodes = domain.n_elements, domain.h, domain.nodes
    K, M, P = (np.zeros((n + 1, n + 1)) for _ in range(3))
    k_el = (1.0 / h) * np.array([[1.0, -1.0], [-1.0, 1.0]])
    m_el = (h / 6.0) * np.array([[2.0, 1.0], [1.0, 2.0]])
    for e in range(n):
        sl = slice(e, e + 2)
        K[sl, sl] += k_el
        M[sl, sl] += m_el
        p_el = np.zeros((2, 2))
        for xi in _GAUSS_XI:
            xg = nodes[e] + xi * h
            pval = float(_potential_values(coeffs.p, np.array([xg]), domain)[0])
            shape = np.array([1.0 - xi, xi])
            p_el += (h / 2.0) * pval * np.outer(shape, shape)
        P[sl, sl] += p_el
    D = np.zeros((n + 1, n + 1))
    D[0, 0] = coeffs.q_a
    D[-1, -1] = coeffs.q_b
    return K, M, P, D, K - P - D


@pytest.mark.parametrize("kind", ["constant", "polynomial", "nodal"])
def test_assembly_is_bitwise_the_element_loop(kind):
    rng = np.random.default_rng({"constant": 1, "polynomial": 2, "nodal": 3}[kind])
    sizes = [1, 2, 3, 7, 64, 128, 181, 300] + list(rng.integers(1, 301, 12))
    for n in sizes:
        n = int(n)
        a = float(rng.uniform(-3.0, 1.0))
        b = a + float(rng.uniform(0.1, 5.0))
        if kind == "constant":
            p = Constant(float(rng.normal() * 10.0))
        elif kind == "polynomial":
            p = Polynomial(tuple(rng.normal(size=int(rng.integers(1, 8))) * 40.0))
        else:
            p = NodalSamples(tuple(rng.normal(size=n + 1) * 5.0))
        dom = IntervalDomain(a, b, n)
        coeffs = CoefficientSpec(p, float(rng.uniform(0.0, 2.0)), float(rng.uniform(0.0, 2.0)))
        prob = assemble(dom, coeffs)
        got = (prob.K, prob.Mmass, prob.P, prob.D, prob.Qmat)
        for mine, ref in zip(got, _element_loop_assembly(dom, coeffs)):
            assert mine.tobytes() == ref.tobytes()


def test_bands_are_bitwise_the_diagonals_of_the_element_loop():
    rng = np.random.default_rng(7)
    for n in [1, 2, 3, 64, 300] + [int(x) for x in rng.integers(1, 301, 8)]:
        p = (Constant(float(rng.normal() * 10.0)),
             Polynomial(tuple(rng.normal(size=int(rng.integers(1, 8))) * 40.0)),
             NodalSamples(tuple(rng.normal(size=n + 1) * 5.0)))[n % 3]
        dom = IntervalDomain(0.0, float(rng.uniform(0.1, 5.0)), n)
        coeffs = CoefficientSpec(p, float(rng.uniform(0.0, 2.0)), float(rng.uniform(0.0, 2.0)))
        prob = assemble(dom, coeffs)
        K, M, P, _, Q = _element_loop_assembly(dom, coeffs)
        for band, dense in ((prob.K_band, K), (prob.M_band, M), (prob.P_band, P),
                            (prob.Q_band, Q)):
            assert band.diag.tobytes() == np.diagonal(dense).tobytes()
            assert band.off.tobytes() == np.diagonal(dense, 1).tobytes()


# ---------------------------------------------------------------------------
# validation

def test_domain_validation():
    with pytest.raises(InvalidCoefficients):
        IntervalDomain(1.0, 1.0, 4)
    with pytest.raises(InvalidCoefficients):
        IntervalDomain(0.0, 1.0, 0)


def test_coefficient_validation():
    with pytest.raises(InvalidCoefficients):
        CoefficientSpec(Constant(0.0), -1.0, 0.0)
    with pytest.raises(InvalidCoefficients):
        CoefficientSpec(Polynomial(tuple(range(8))), 0.0, 0.0)


def test_nodal_samples_length_checked():
    dom = IntervalDomain(0.0, 1.0, 4)
    with pytest.raises(InvalidCoefficients):
        assemble(dom, CoefficientSpec(NodalSamples((1.0, 2.0, 3.0)), 0.0, 0.0))


# ---------------------------------------------------------------------------
# spectra

def test_neumann_spectrum_zero_potential():
    # q = 0, p = 0: lowest eigenvalue is 0 (constants), next is pi^2
    prob = problem(0.0, 1.0, 64, Constant(0.0))
    lam = robin_spectrum(prob)
    assert abs(lam[0]) < 1e-10
    assert abs(lam[1] - math.pi ** 2) < 1e-2


def test_constant_potential_shifts_spectrum():
    # Qmat = K - p M shifts every Neumann eigenvalue down by p
    prob = problem(0.0, 1.0, 48, Constant(5.0))
    lam = robin_spectrum(prob)
    assert abs(lam[0] + 5.0) < 1e-10
    assert abs(lam[1] - (math.pi ** 2 - 5.0)) < 2e-2


def test_dirichlet_closed_form():
    # clamped eigenvalues on [0, pi] with p = 2.5 are k^2 - 2.5
    prob = problem(0.0, math.pi, 128, Constant(2.5))
    delta = dirichlet_spectrum(prob)
    assert abs(delta[0] - (1.0 - 2.5)) < 1e-3
    assert abs(delta[1] - (4.0 - 2.5)) < 1e-2


def test_dirichlet_convergence_is_second_order():
    exact = 1.0 - 2.5
    errs = []
    for n in (32, 64, 128):
        prob = problem(0.0, math.pi, n, Constant(2.5))
        errs.append(abs(dirichlet_spectrum(prob)[0] - exact))
    assert 3.6 < errs[0] / errs[1] < 4.4
    assert 3.6 < errs[1] / errs[2] < 4.4


@pytest.mark.parametrize("kind", ["constant", "polynomial", "nodal"])
def test_clamped_blocks_are_bitwise_those_of_k_minus_p(kind):
    # the clamped pencil and the Schur complement T read Qmat's interior
    # bands, which are bitwise those of the n x n K - P the reference
    # builds; T comes from a banded solve, so it agrees to rounding
    rng = np.random.default_rng({"constant": 4, "polynomial": 5, "nodal": 6}[kind])
    for n in [1, 2, 3, 7, 64, 181] + [int(x) for x in rng.integers(1, 301, 8)]:
        if kind == "constant":
            p = Constant(float(rng.normal() * 40.0))
        elif kind == "polynomial":
            p = Polynomial(tuple(rng.normal(size=int(rng.integers(1, 8))) * 40.0))
        else:
            p = NodalSamples(tuple(rng.normal(size=n + 1) * 20.0))
        prob = problem(0.0, 1.0, n, p, float(rng.uniform(0.0, 2.0)), float(rng.uniform(0.0, 2.0)))
        A = prob.K - prob.P
        i, bnd = np.arange(1, n), np.array([0, n])
        T, delta = A[np.ix_(bnd, bnd)], np.empty(0)
        if n > 1:
            A_IB = A[np.ix_(i, bnd)]
            T = T - A_IB.T.dot(np.linalg.solve(A[np.ix_(i, i)], A_IB))
            T = 0.5 * (T + T.T)
            delta = scipy.linalg.eigh(A[np.ix_(i, i)], prob.Mmass[np.ix_(i, i)],
                                      eigvals_only=True)
        clamped = prob.dirichlet_factorization
        assert clamped.matrix.diag.tobytes() == np.diagonal(A)[1:-1].tobytes()
        assert clamped.matrix.off.tobytes() == np.diagonal(A, 1)[1:-1].tobytes()
        assert clamped.gram.diag.tobytes() == np.diagonal(prob.Mmass)[1:-1].tobytes()
        assert clamped.gram.off.tobytes() == np.diagonal(prob.Mmass, 1)[1:-1].tobytes()
        mine = boundary._schur_boundary(prob)
        assert np.max(np.abs(mine - T)) <= 1e-10 * np.max(np.abs(T))
        assert np.array_equal(mine, mine.T)
        assert np.array_equal(dirichlet_spectrum(prob), delta)


def test_steklov_flat_potential_boundary_matrix():
    # with p = 0 the condensed boundary operator is [[1,-1],[-1,1]] on
    # [0,1] for every mesh, so mu = {0, 2/q0} for equal weights q0
    for n in (1, 2, 17, 40):
        prob = problem(0.0, 1.0, n, Constant(0.0), q_a=1.0, q_b=1.0)
        res = steklov_spectrum(prob)
        assert abs(res.mu[0] - 0.0) < 1e-9
        assert abs(res.mu[1] - 2.0) < 1e-9
        assert res.b == 1  # T - I has eigenvalues -1 and 1


def test_steklov_mu_is_bitwise_scipys_eigh():
    for n, p, q_a, q_b in ((1, Constant(0.0), 1.0, 1.0), (8, Constant(-30.0), 0.4, 1.3),
                           (40, Polynomial((60.0, -20.0, 35.0)), 2.0, 0.7)):
        prob = problem(0.0, 1.0, n, p, q_a, q_b)
        want = scipy.linalg.eigh(boundary._schur_boundary(prob), np.diag([q_a, q_b]),
                                 eigvals_only=True)
        assert steklov_spectrum(prob).mu == tuple(want.tolist())


def test_steklov_inertia_count_tracks_weight():
    # eigenvalues of T - q0 I are -q0 and 2 - q0
    res1 = steklov_spectrum(problem(0.0, 1.0, 8, Constant(0.0), 3.0, 3.0))
    assert res1.b == 2
    assert abs(res1.mu[1] - 2.0 / 3.0) < 1e-9
    res2 = steklov_spectrum(problem(0.0, 1.0, 8, Constant(0.0), 0.5, 0.5))
    assert res2.b == 1
    assert abs(res2.mu[1] - 4.0) < 1e-9


def test_steklov_transition_weight_is_marginal():
    # q0 = 2 puts an exact zero into T - D_B
    res = steklov_spectrum(problem(0.0, 1.0, 8, Constant(0.0), 2.0, 2.0))
    assert res.b == 1
    assert res.marginal


def test_steklov_one_sided_weight():
    res = steklov_spectrum(problem(0.0, 1.0, 8, Constant(0.0), 0.0, 2.0))
    assert res.mu[1] == math.inf
    assert abs(res.mu[0]) < 1e-9  # condensing the free end leaves mu = 0
    # T - diag(0, 2) = [[1,-1],[-1,-1]] has one sign change
    assert res.b == 1


def test_steklov_rejects_zero_weights():
    with pytest.raises(ZeroBoundaryWeight):
        steklov_spectrum(problem(0.0, 1.0, 8, Constant(0.0)))


def test_steklov_rejects_degenerate_clamped_operator():
    base = problem(0.0, 1.0, 16, Constant(0.0), 1.0, 1.0)
    shift = float(dirichlet_spectrum(base)[0])
    # shifting p by the lowest clamped eigenvalue zeroes it exactly
    rigged = problem(0.0, 1.0, 16, Constant(shift), 1.0, 1.0)
    with pytest.raises(DegenerateDirichletKernel):
        steklov_spectrum(rigged)


# ---------------------------------------------------------------------------
# index decomposition

def test_decomposition_flat_potential():
    rep = verify_decomposition(problem(0.0, 1.0, 32, Constant(0.0), 1.0, 1.0))
    # one negative direction from the boundary, none clamped
    assert rep.a == 0
    assert rep.b == 1
    assert rep.mi_q == 1
    assert rep.decomposition_ok


def test_decomposition_with_clamped_negatives():
    # p = 12 on [0, pi]: clamped eigenvalues 1 - 12, 4 - 12, 9 - 12 < 0,
    # 16 - 12 > 0, so a = 3
    rep = verify_decomposition(problem(0.0, math.pi, 64, Constant(12.0),
                                       1.0, 1.0))
    assert rep.a == 3
    assert rep.mi_q == rep.a + rep.b
    assert rep.decomposition_ok


def test_decomposition_random_potentials():
    rng = np.random.default_rng(33)
    checked = 0
    while checked < 20:
        samples = tuple(rng.uniform(-20.0, 20.0, 33))
        q_a = float(rng.uniform(0.1, 5.0))
        q_b = float(rng.uniform(0.1, 5.0))
        prob = assemble(IntervalDomain(0.0, 1.0, 32),
                        CoefficientSpec(NodalSamples(samples), q_a, q_b))
        try:
            rep = verify_decomposition(prob)
        except DegenerateDirichletKernel:
            continue
        if rep.degenerate:
            continue
        assert rep.decomposition_ok
        checked += 1


def test_decomposition_is_block_inertia_identity():
    # sign counts are congruence invariants, so the pencil count must
    # match the plain eigenvalue signs of Qmat itself
    prob = problem(0.0, 1.0, 24, Polynomial((8.0, -3.0)), 2.0, 0.5)
    rep = verify_decomposition(prob)
    lam = np.linalg.eigvalsh(prob.Qmat)
    assert rep.mi_q == int(np.sum(lam < -1e-9))
    assert rep.mi_q == rep.a + rep.b


# ---------------------------------------------------------------------------
# weak (mean-zero) index

def test_volume_functional_integrates():
    prob = problem(0.0, 1.0, 10, Constant(0.0))
    phi = volume_functional(prob)
    assert np.isclose(phi(np.ones(prob.n_nodes)), 1.0)
    hat = np.zeros(prob.n_nodes)
    hat[3] = 1.0
    assert np.isclose(phi(hat), prob.domain.h)


def test_weak_index_flat_negative_potential():
    # p = 5, q = 0 on [0,1]: index 1 from the constant direction; the
    # dual is u = -(1/5) 1 with phi(u) = -1/5, so the volume constraint
    # removes that direction
    prob = problem(0.0, 1.0, 32, Constant(5.0))
    rep = weak_index(prob)
    assert rep.mi_full == 1
    assert rep.mi_constrained_predicted == 0
    assert rep.mi_constrained_oracle == 0
    assert rep.s_critical == (True,)
    assert rep.agreement


def test_weak_index_dual_vector_value():
    from morsekit.constraints import solve_dual
    from morsekit.bilinear import InnerProductSpace, SymmetricForm
    prob = problem(0.0, 1.0, 32, Constant(5.0))
    form = SymmetricForm(InnerProductSpace(prob.Mmass), prob.Qmat)
    out = solve_dual(form, volume_functional(prob))
    assert out.in_range
    assert np.allclose(out.u, -0.2, atol=1e-9)
    assert abs(out.phi_of_u + 0.2) < 1e-9


def test_weak_index_positive_potential_not_critical():
    # p = -3 makes the form positive definite; nothing to remove
    prob = problem(0.0, 1.0, 32, Constant(-3.0))
    rep = weak_index(prob)
    assert rep.mi_full == 0
    assert rep.mi_constrained_predicted == 0
    assert rep.s_critical == (False,)


def test_weak_index_p15_keeps_one_negative():
    # p = 15 > pi^2: indices lam0 = -15, lam1 = pi^2 - 15 < 0, so index 2;
    # the volume constraint removes one
    prob = problem(0.0, 1.0, 64, Constant(15.0))
    rep = weak_index(prob)
    assert rep.mi_full == 2
    assert rep.mi_constrained_oracle == 1
    assert rep.agreement


def test_weak_index_custom_functional():
    prob = problem(0.0, 1.0, 16, Constant(5.0))
    e0 = np.zeros(prob.n_nodes)
    e0[0] = 1.0
    rep = weak_index(prob, constraint=e0)
    assert rep.agreement


def test_weak_index_form_holds_the_assembled_matrices(monkeypatch):
    # the form and its space hold the problem's bands and its cached
    # Robin factorization, not copies
    prob = problem(0.0, 1.0, 16, Constant(3.0))
    seen = []
    monkeypatch.setattr(boundary, "analyze",
                        lambda form, phis, tol: seen.append(form))
    weak_index(prob)
    assert seen[0].matrix is prob.Q_band
    assert seen[0].space.gram is prob.M_band
    assert seen[0].factored is prob.robin_factorization


def _oracle_case(rng, family):
    if family == "constant":
        n = int(rng.integers(1, 257))
        # near the resonances p = (k pi)^2 the restricted pencil has an
        # eigenvalue of size O(h^2) that crosses the zero band and its
        # marginal edges as n grows
        p = Constant(float((int(rng.integers(0, 4)) * math.pi) ** 2
                           + rng.choice([0.0, 1e-9, -1e-9, 1e-6, -1e-6])))
        q_a = q_b = 0.0
    else:
        n = int(np.exp(rng.uniform(0.0, np.log(257.0))))
        if family == "polynomial":
            p = Polynomial(tuple(rng.uniform(-60.0, 150.0, int(rng.integers(1, 5)))))
        else:
            p = NodalSamples(tuple(rng.uniform(-20.0, 120.0, n + 1)))
        q_a, q_b = (float(x) for x in rng.uniform(0.0, 2.0, 2))
    prob = problem(0.0, 1.0, n, p, q_a, q_b)
    rows = []
    for _ in range(int(rng.integers(0, 4))):
        kind = rng.choice(["random", "dependent", "zero", "constant", "volume"])
        if kind == "dependent" and rows:
            rows.append(-2.5 * rows[-1] + rows[0])
        elif kind == "zero":
            rows.append(np.zeros(n + 1))
        elif kind == "constant":
            rows.append(np.ones(n + 1))
        elif kind == "volume":
            rows.append(volume_functional(prob).coeffs)
        else:
            rows.append(rng.uniform(-1.0, 1.0, n + 1))
    if n <= 3 and rng.random() < 0.5:
        # more independent rows than nodes: the restricted space is {0}
        rows = list(rng.uniform(-1.0, 1.0, (n + 2, n + 1)))
    return prob, np.array(rows).reshape(len(rows), n + 1)


def test_interval_oracle_matches_the_dense_restriction():
    rng = np.random.default_rng(14)
    seen = {"marginal": 0, "zero": 0, "empty": 0, "rank_deficient": 0}
    for case in range(300):
        prob, F = _oracle_case(rng, ("constant", "polynomial", "nodal")[case % 3])
        dense = SymmetricForm(InnerProductSpace(prob.Mmass), prob.Qmat,
                              prob.robin_factorization)
        want = inertia(restrict(dense, list(F)), DEFAULT)
        banded = SymmetricForm(InnerProductSpace(prob.M_band), prob.Q_band,
                               prob.robin_factorization)
        assert restricted_inertia(banded, list(F), DEFAULT) == want, (case, F.shape)
        seen["marginal"] += want.marginal
        seen["zero"] += want.zero > 0
        seen["empty"] += want.dim == 0
        seen["rank_deficient"] += want.dim > prob.n_nodes - F.shape[0]
    assert min(seen.values()) >= 3, seen


def test_interval_oracle_does_not_share_the_predictor_count(monkeypatch, count_calls):
    # the oracle counts the bordered pencil by its own recurrence; the
    # predictor's factorizations count in LAPACK and never reach it
    bordered = []
    recurrence = bilinear.sturm_negatives

    def oracle_count(diag, off, border=None):
        if border is None:
            raise AssertionError("a factorization counted with the oracle's recurrence")
        bordered.append(border.shape)
        return recurrence(diag, off, border)

    monkeypatch.setattr(bilinear, "sturm_negatives", oracle_count)
    lapack = count_calls(bilinear, "tridiagonal_negatives")
    rng = np.random.default_rng(15)
    doc = {"kind": "pde", "domain": {"a": 0.0, "b": 1.0, "n_elements": 256},
           "p": {"polynomial": [60.0, -20.0, 35.0]}, "q_a": 0.4, "q_b": 1.3,
           "constraints": [list(rng.uniform(-1.0, 1.0, 257)) for _ in range(2)],
           "checks": ["decomposition", "weak_index"]}
    report = harness.run(harness.parse_problem(json.dumps(doc)))
    # harness.run turns the refusal into the report's error
    assert report.error is None and report.payloads["weak"].agreement
    # the marginal window is empty: counted at its two edges alone
    assert bordered == [(257, 2)] * 2
    assert len(lapack) > 20
    # a constant potential on a constrained eigenvalue occupies the window,
    # so the band edges are counted too
    bordered.clear()
    rng = np.random.default_rng(16)
    doc = {"kind": "pde", "domain": {"a": 0.0, "b": 1.0, "n_elements": 64},
           "p": {"constant": 37.001325}, "q_a": 0.4, "q_b": 1.3,
           "constraints": [list(np.round(rng.uniform(-1.0, 1.0, 65), 3)) for _ in range(2)]}
    report = harness.run(harness.parse_problem(json.dumps(doc)))
    assert report.error is None
    assert "restricted spectrum has marginal eigenvalues" in report.payloads["weak"].warnings
    assert bordered == [(65, 2)] * 4


def _near_zero_agrees(pair, w, scale):
    # the pair from Sturm counts against the dense eigenvalues w; an
    # eigenvalue within rounding of 0 may land on either side of it
    close = 1e-12 * scale
    k = int(np.sum(w < 0.0))
    if w.size and np.min(np.abs(w)) <= close:
        return all(v is None or np.min(np.abs(w - v)) <= close for v in pair)
    want = (w[k - 1] if k else None, w[k] if k < w.size else None)
    return all((v is None and u is None) or (v is not None and u is not None
                                             and abs(v - u) <= close)
               for v, u in zip(pair, want))


def _dense_reference(prob):
    """The Robin factorization and the clamped eigenvalues by dense
    eigensolves."""
    return Factorization(*_eigh(prob.Qmat, prob.Mmass)), dirichlet_spectrum(prob)


def test_sturm_path_matches_the_dense_reference():
    rng = np.random.default_rng(17)
    seen = {"band": 0, "flip": 0, "duals": 0}
    for case in range(300):
        prob, F = _oracle_case(rng, ("constant", "polynomial", "nodal")[case % 3])
        robin, delta = _dense_reference(prob)
        w, scale, tau = robin.values, robin.scale, robin.band(DEFAULT)
        sturm, clamped = prob.robin_factorization, prob.dirichlet_factorization
        assert abs(sturm.scale - scale) <= 1e-12 * scale, case
        assert sturm.inertia(DEFAULT) == robin.inertia(DEFAULT), case
        assert clamped.inertia(DEFAULT) == Inertia(*classify_spectrum(delta, DEFAULT, scale)), case
        assert _near_zero_agrees(sturm.near_zero(), w, scale), case
        assert _near_zero_agrees(clamped.near_zero(), delta, scale), case
        seen["band"] += sturm.kernel(DEFAULT).shape[1] > 0
        seen["flip"] += bool(w.size and np.min(np.abs(w)) <= 1e-12 * scale)
        # the same analysis on the dense form, with its dense oracle
        dense = SymmetricForm(InnerProductSpace(prob.Mmass), prob.Qmat)
        want, got = analyze(dense, list(F)), weak_index(prob, list(F))
        for name in ("mi_full", "nullity_full", "mi_constrained_oracle",
                     "nullity_constrained_oracle", "mi_constrained_predicted",
                     "nullity_constrained_predicted", "s_critical", "agreement",
                     "warnings"):
            assert getattr(got, name) == getattr(want, name), (case, name)
        # a dual is as accurate as the pencil's conditioning allows on both
        # sides: eps * scale over the eigenvalue nearest zero outside the band
        outside = np.abs(w[np.abs(w) > tau])
        slack = 1e-8 + 10.0 * np.finfo(float).eps * scale / np.min(outside, initial=scale)
        tri = SymmetricForm(InnerProductSpace(prob.M_band), prob.Q_band, sturm)
        for f in F:
            if not np.any(f):
                continue
            a, b = solve_dual(dense, f), solve_dual(tri, f)
            assert a.status == b.status, case
            x, y = (a.u, b.u) if a.in_range else (a.kernel_component, b.kernel_component)
            assert np.linalg.norm(x - y) <= slack * np.linalg.norm(x), case
            seen["duals"] += 1
    assert seen["band"] >= 3 and seen["duals"] >= 100, seen
    # exact zeros (the Neumann constants at p = 0) are hit, and their side of
    # 0 is rounding on both routes
    assert seen["flip"] >= 1, seen


@pytest.mark.parametrize("n, coeffs", [
    (1024, (28.673, 6.499, -21.489, -40.079)),
    (1024, (141.2, -55.0, 31.7, 12.9, -48.3, 20.1, -3.3)),
    (2048, (60.0, -20.0, 35.0)),
])
def test_ladder_factorizations_match_the_dense_reference(n, coeffs):
    prob = problem(0.0, 1.0, n, Polynomial(coeffs), 0.505, 0.609)
    robin, delta = _dense_reference(prob)
    sturm, clamped = prob.robin_factorization, prob.dirichlet_factorization
    assert abs(sturm.scale - robin.scale) <= 1e-12 * robin.scale
    assert sturm.inertia(DEFAULT) == robin.inertia(DEFAULT)
    assert clamped.inertia(DEFAULT) == Inertia(*classify_spectrum(delta, DEFAULT, robin.scale))
    assert _near_zero_agrees(sturm.near_zero(), robin.values, robin.scale)
    assert _near_zero_agrees(clamped.near_zero(), delta, robin.scale)


def test_pde_op_runs_no_dense_work(monkeypatch):
    # no dense eigensolve, and no n x n array: one float64 1025 x 1025
    # matrix alone is 8 MiB
    def refuse(*_, **__):
        raise AssertionError("a dense eigensolve ran")

    for mod in list(sys.modules.values()):
        if mod.__name__.startswith("morsekit") and getattr(mod, "_eigh", None) is _eigh:
            monkeypatch.setattr(mod, "_eigh", refuse)
    text = ('{"kind": "pde", "domain": {"a": 0.0, "b": 1.0, "n_elements": 1024}, '
            '"p": {"polynomial": [60.0, -20.0, 35.0]}, "q_a": 0.4, "q_b": 1.3, '
            '"checks": ["decomposition", "weak_index"]}')
    harness.report_to_json(harness.run(harness.parse_problem(text)))
    tracemalloc.start()
    try:
        report = harness.run(harness.parse_problem(text))
        harness.report_to_json(report)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.verdict == "pass" and report.error is None
    assert peak < 2 * 2 ** 20, peak


def test_weak_index_unknown_keyword():
    prob = problem(0.0, 1.0, 4, Constant(0.0))
    with pytest.raises(InvalidCoefficients):
        weak_index(prob, constraint="area")


# ---------------------------------------------------------------------------
# refinement stability

def test_refine_stable_counts():
    # p = 0, q0 = 1: one boundary-bound mode (tanh(w/2) = 1/w has a
    # single root), no clamped negatives, and the volume dual solves
    # -u'' = 1 with u'(0) = -u(0), u'(1) = u(1), giving integral -5/12,
    # so the weak index is 0
    prob = problem(0.0, 1.0, 16, Constant(0.0), 1.0, 1.0)
    rep = refine_and_check(prob, (16, 32, 64))
    assert rep.counts_stable
    assert rep.mi_q == (1, 1, 1)
    assert rep.a == (0, 0, 0)
    assert rep.b == (1, 1, 1)
    assert rep.weak == (0, 0, 0)
    assert all(rep.decomposition_ok)


def test_refine_flags_borderline_potential():
    # p = pi^2 sits exactly on a crossing: the second eigenvalue tends to
    # zero under refinement and its limiting sign cannot be resolved
    prob = problem(0.0, 1.0, 16, Constant(math.pi ** 2))
    rep = refine_and_check(prob, (16, 32, 64, 128))
    assert any("unresolved" in w for w in rep.warnings)


def test_refine_nodal_potential_resampled():
    rng = np.random.default_rng(41)
    samples = tuple(rng.uniform(-10.0, 10.0, 17))
    prob = assemble(IntervalDomain(0.0, 1.0, 16),
                    CoefficientSpec(NodalSamples(samples), 1.0, 1.0))
    rep = refine_and_check(prob, (16, 32, 64))
    assert len(rep.mi_q) == 3
    # the coarse-level counts reproduce the direct computation
    direct = verify_decomposition(prob)
    assert rep.mi_q[0] == direct.mi_q
    assert rep.a[0] == direct.a and rep.b[0] == direct.b


def test_refine_factors_each_pencil_once_per_level(count_calls, factorization_sizes):
    # the drift reads the same cached factorizations as the index split and
    # the weak index; the dense references never run
    dense = [count_calls(boundary, "robin_spectrum"), count_calls(boundary, "dirichlet_spectrum")]
    rep = refine_and_check(problem(0.0, 1.0, 16, Constant(0.0), 1.0, 1.0), (16, 32, 64))
    assert rep.counts_stable
    assert dense == [[], []]
    assert sorted(factorization_sizes) == [15, 17, 31, 33, 63, 65]


def test_refine_requires_increasing_levels():
    prob = problem(0.0, 1.0, 8, Constant(0.0))
    with pytest.raises(InvalidCoefficients):
        refine_and_check(prob, (16, 16, 32))


def test_refine_without_boundary_weights_skips_split():
    prob = problem(0.0, 1.0, 8, Constant(5.0))
    rep = refine_and_check(prob, (8, 16))
    assert rep.a == (None, None)
    assert rep.b == (None, None)
    assert rep.weak == (0, 0)


def test_weak_index_of_a_nonsingular_ill_conditioned_form():
    # a benchmark document whose Robin spectrum has no eigenvalue within 12
    # band widths of zero, so every functional is in range; a least-squares
    # residual of 1.1e-8 once called the volume functional out of range
    # and predicted the impossible nullity -1
    prob = problem(0.0, 1.0, 724, Polynomial((28.673, 6.499, -21.489, -40.079)),
                   q_a=0.505, q_b=0.609)
    rep = weak_index(prob)
    assert (rep.mi_full, rep.nullity_full) == (1, 0)
    assert (rep.mi_constrained_predicted, rep.nullity_constrained_predicted) == (1, 0)
    assert rep.agreement and rep.warnings == ()
