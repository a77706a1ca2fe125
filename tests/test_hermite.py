"""Tests for the Hermite basis, quadrature rules, and transforms.

Oracle values come from closed forms of the harmonic-oscillator
eigenfunctions (h_0(x) = pi^{-1/4} e^{-x^2/2} and the three-term
recurrence) and from moments of Gaussian integrals.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.linalg import eigh_tridiagonal
from scipy.special import eval_hermite, gammaln

from oscillab import (
    HermiteBasis,
    MultiIndex,
    SpectralField,
    analyze,
    eigenvalue,
    galerkin_project,
    gauss_hermite_rule,
    hermite_values_1d,
    synthesize,
)
from oscillab.hermite import _hermite_rows, _mirrored_values


def test_ground_state_value_at_origin():
    vals = hermite_values_1d(0, np.array([0.0]))
    assert_allclose(vals[0, 0], math.pi ** -0.25, rtol=1e-15)


@pytest.mark.parametrize("k", [0, 1, 2, 3, 5, 8, 13, 21])
def test_values_match_physicists_hermite(k):
    # h_k(x) = H_k(x) e^{-x^2/2} / sqrt(2^k k! sqrt(pi))
    x = np.linspace(-4.0, 4.0, 41)
    log_norm = 0.5 * (k * math.log(2.0) + gammaln(k + 1) + 0.5 * math.log(math.pi))
    expected = eval_hermite(k, x) * np.exp(-0.5 * x * x - log_norm)
    vals = hermite_values_1d(k, x)
    assert_allclose(vals[k], expected, rtol=5e-13, atol=1e-15)


def test_values_high_degree_finite():
    # the renormalized recurrence must survive degrees where naive
    # Hermite polynomials overflow (H_k ~ 10^{600+} for k ~ 400)
    rule = gauss_hermite_rule(2 * 2000 + 2, w=2)
    vals = hermite_values_1d(2000, rule.nodes)
    assert np.all(np.isfinite(vals))
    assert np.max(np.abs(vals)) < 1.0
    assert np.max(np.abs(vals[2000])) > 1e-3


def test_rule_nodes_symmetric_bitwise():
    rule = gauss_hermite_rule(34, w=2)
    assert rule.size == 34
    assert np.all(rule.nodes == -rule.nodes[::-1])
    assert np.all(rule.weights == rule.weights[::-1])
    assert np.all(rule.weights > 0)


def _reference_edge_values(Q, x):
    """(h_{Q-1}, h_Q, sum_{k<Q} h_k^2) at x by the plain streamed recurrence,
    with the same power-of-two renormalization as the package."""
    a = (-0.5 * x * x - 0.25 * math.log(math.pi)) / math.log(2.0)
    kappa = np.floor(a)
    ebar, kap_i = np.exp2(a - kappa), kappa.astype(np.int64)
    cnt = np.zeros(x.size, dtype=np.int64)
    p_prev, p_cur = np.zeros_like(x), np.ones_like(x)
    sumsq = np.zeros_like(x)
    for k in range(Q):
        row = np.ldexp(p_cur * ebar, kap_i + cnt)
        sumsq += row * row
        p_prev, p_cur = p_cur, x * math.sqrt(2.0 / (k + 1)) * p_cur \
            - math.sqrt(k / (k + 1.0)) * p_prev
        big = np.abs(p_cur) > 2.0 ** 500
        p_prev, p_cur = np.where(big, p_prev * 2.0 ** -512, p_prev), np.where(
            big, p_cur * 2.0 ** -512, p_cur)
        cnt += np.where(big, 512, 0)
    return row, np.ldexp(p_cur * ebar, kap_i + cnt), sumsq


def _reference_rule(Q):
    """w = 1 rule by the full-size Golub-Welsch eigenproblem, three Newton passes on
    every node, then averaging of the mirror images."""
    nodes = np.zeros(1)
    if Q > 1:
        k = np.arange(1, Q)
        nodes = eigh_tridiagonal(np.zeros(Q), np.sqrt(k / 2.0), eigvals_only=True)
        for _ in range(3):
            h_prev, h_top, _ = _reference_edge_values(Q, nodes)
            nodes = nodes - h_top / (math.sqrt(2.0 * Q) * h_prev - nodes * h_top)
        nodes = 0.5 * (nodes - nodes[::-1])
    weights = 1.0 / _reference_edge_values(Q, nodes)[2]
    return nodes, 0.5 * (weights + weights[::-1])


@pytest.mark.parametrize("Q", [1, 2, 3, 34, 66, 130, 131, 514, 3910])
def test_rule_matches_full_eigenproblem_reference(Q):
    ref_nodes, ref_weights = _reference_rule(Q)
    rule = gauss_hermite_rule(Q, w=1)
    ulp = np.spacing(np.abs(ref_nodes))
    assert np.all(np.abs(rule.nodes - ref_nodes) <= 8 * ulp)
    assert_allclose(rule.weights, ref_weights, rtol=1e-11)
    for w in (1, 2):
        rule = gauss_hermite_rule(Q, w=w)
        assert np.all(rule.nodes == -rule.nodes[::-1])
        assert np.all(rule.weights == rule.weights[::-1])
    if Q % 2:
        assert rule.nodes[Q // 2] == 0.0


@pytest.mark.parametrize("Q", [1, 2, 3, 7, 34, 66, 131, 3910])
@pytest.mark.parametrize("w", [1, 2])
def test_folded_value_table_bitwise_equal_full_evaluation(Q, w):
    # a bilinear cell tables degrees up to max(top_u, top_v) on its Q = top_u + top_v + 1
    # nodes, so K_eval runs from 0 up to Q - 1 as well as past Q / 2
    rule = gauss_hermite_rule(Q, w=w)
    for K_eval in sorted({0, min(Q - 1, 300), Q // 2 + 8}):
        folded = _mirrored_values(K_eval, rule)
        assert folded.tobytes() == hermite_values_1d(K_eval, rule.nodes).tobytes()


@pytest.mark.parametrize("Q", [1, 2, 3, 7, 66, 130, 512, 3910])
def test_rows_from_start_are_the_full_table_rows_bitwise(Q):
    # the rule's Newton pass runs the recurrence but rebuilds only h_{Q-1} and h_Q
    x = gauss_hermite_rule(Q, w=1).nodes[::max(1, Q // 64)]
    full = hermite_values_1d(Q, x)
    for start in sorted({0, 1, Q // 2, Q - 1, Q}):
        rows = list(_hermite_rows(Q, x, start=start))
        assert len(rows) == Q + 1 - start
        assert np.array(rows).tobytes() == full[start:].tobytes()


def test_basis_tables_are_full_evaluations():
    basis = HermiteBasis(1, 40)
    assert np.array_equal(basis.values, hermite_values_1d(basis.K_eval, basis.rule.nodes))
    assert np.array_equal(
        basis.companion_values,
        hermite_values_1d(basis.K_eval, basis.companion_rule.nodes),
    )


def test_large_rule_integrates_ground_state_quartic():
    # int h_0^4 = (2 pi)^{-1/2}, on the Q = 3910 rule of the bilinear presets
    rule = gauss_hermite_rule(3910, w=2)
    h0 = hermite_values_1d(0, rule.nodes)[0]
    assert abs(float(np.dot(rule.weights, h0 ** 4)) - (2.0 * math.pi) ** -0.5) < 1e-13


def test_values_keep_exact_bits_on_given_nodes():
    # a table built from given (not mirrored) nodes is evaluated at exactly those
    # nodes: the same node gives the same bits wherever it sits in the array
    x = np.array([0.3, -1.7, 2.5, 0.3, 11.0])
    vals = hermite_values_1d(40, x)
    assert np.array_equal(vals[:, 0], vals[:, 3])
    for i, xi in enumerate(x):
        assert np.array_equal(vals[:, i], hermite_values_1d(40, np.array([xi]))[:, 0])
    # far outside the oscillatory region every value underflows to zero
    assert np.all(hermite_values_1d(40, np.array([1e6, -3e5, 5e4])) == 0.0)


def test_rule_rejects_bad_arguments():
    with pytest.raises(ValueError):
        gauss_hermite_rule(0, w=2)
    with pytest.raises(ValueError):
        gauss_hermite_rule(10, w=3)


@pytest.mark.parametrize("n", [0, 1, 2, 5, 11, 17])
def test_quadrature_exact_gaussian_moments(n):
    # the w=2 rule with Q = 2K+2 integrates x^{2n} e^{-2x^2} exactly for
    # 2n <= 4K+3; closed form: Gamma(n+1/2) / 2^{n+1/2}
    K = 8
    rule = gauss_hermite_rule(2 * K + 2, w=2)
    f = rule.nodes ** (2 * n) * np.exp(-2.0 * rule.nodes**2)
    got = float(np.dot(rule.weights, f))
    want = math.exp(gammaln(n + 0.5) - (n + 0.5) * math.log(2.0))
    assert_allclose(got, want, rtol=1e-13)


def test_quadrature_odd_moment_exact_zero():
    rule = gauss_hermite_rule(18, w=2)
    f = rule.nodes ** 3 * np.exp(-2.0 * rule.nodes**2)
    folded = f * rule.weights
    assert float(np.sum(folded + folded[::-1])) == 0.0


def test_companion_rule_orthonormality():
    # the w=1 companion rule integrates h_a h_b exactly through degree 2 K_eval
    basis = HermiteBasis(1, 24)
    V = basis.companion_values
    gram = (V * basis.companion_rule.weights) @ V.T
    assert np.max(np.abs(gram - np.eye(V.shape[0]))) < 1e-13


def test_eigenvalue_and_multiindex():
    assert eigenvalue(MultiIndex((0,)), 1) == 1
    assert eigenvalue(MultiIndex((3,)), 1) == 7
    assert eigenvalue(MultiIndex((2, 5)), 2) == 16
    assert MultiIndex((2, 5)).degree == 7
    basis = HermiteBasis(2, 4)
    assert basis.lambda_sq[0, 0] == 2
    assert basis.lambda_sq[3, 1] == 10


def test_basis_shape_and_k_eval():
    basis = HermiteBasis(2, 6)
    assert basis.shape == (7, 7)
    assert basis.K_eval > basis.K  # headroom for ladder images
    assert basis.rule.size == 2 * basis.K + 2
    assert basis.rule.weight_exponent == 2
    assert basis.companion_rule.weight_exponent == 1


def test_analyze_synthesize_roundtrip_2d():
    basis = HermiteBasis(2, 10)
    rng = np.random.default_rng(7)
    coeffs = rng.standard_normal(basis.shape) + 1j * rng.standard_normal(basis.shape)
    u = SpectralField(basis, coeffs)
    back = analyze(synthesize(u), basis)
    assert_allclose(back.coeffs, u.coeffs, rtol=0, atol=1e-12 * u.l2_norm())


def _reference_contract_axes(coeffs, table):
    """Complex tensordot contraction of `table` along every axis: the transforms
    before they ran as real GEMMs on the real and imaginary planes."""
    out = coeffs
    for _ in range(coeffs.ndim):
        out = np.tensordot(table, out, axes=(1, 0))
        out = np.moveaxis(out, 0, -1)
    return out


def _max_rel(got, want):
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("K", [0, 1, 5, 16])
def test_transforms_match_complex_tensordot_reference(d, K):
    basis = HermiteBasis(d, K)
    rng = np.random.default_rng((d, K))
    coeffs = rng.standard_normal(basis.shape) + 1j * rng.standard_normal(basis.shape)
    grid_shape = (basis.rule.size,) * d
    grid = rng.standard_normal(grid_shape) + 1j * rng.standard_normal(grid_shape)
    synth_t = basis.values[: K + 1].T
    got = synthesize(SpectralField(basis, coeffs))
    assert _max_rel(got, _reference_contract_axes(coeffs, synth_t)) <= 1e-13
    got = galerkin_project(grid, basis).coeffs
    assert _max_rel(got, _reference_contract_axes(grid, basis._dual_matrix)) <= 1e-13
    got = analyze(grid, basis).coeffs
    assert _max_rel(got, _reference_contract_axes(grid, basis._analysis_matrix)) <= 1e-13


@settings(max_examples=30, deadline=None)
@given(
    d=st.integers(min_value=1, max_value=2),
    K=st.integers(min_value=0, max_value=12),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_analyze_inverts_synthesize(d, K, seed):
    basis = HermiteBasis(d, K)
    rng = np.random.default_rng(seed)
    coeffs = rng.standard_normal(basis.shape) + 1j * rng.standard_normal(basis.shape)
    back = analyze(synthesize(SpectralField(basis, coeffs)), basis).coeffs
    assert _max_rel(back, coeffs) <= 1e-12


def test_galerkin_project_quartic_class_exact():
    # the raw dual rows are exact on the quartic class: the cube of the
    # ground state against h_0 gives int h_0^4 = (2 pi)^{-1/2}, and odd
    # modes vanish identically by parity
    basis = HermiteBasis(1, 12)
    g = basis.mode_values((0,))
    proj = galerkin_project(g**3, basis)
    assert_allclose(proj.coeffs[0].real, 1.0 / math.sqrt(2.0 * math.pi), rtol=1e-13)
    assert abs(proj.coeffs[1]) < 1e-16
    assert abs(proj.coeffs[3]) < 1e-16


def test_from_mode_and_mode_values():
    basis = HermiteBasis(2, 5)
    u = SpectralField.from_mode(basis, (1, 3), amplitude=2.0 - 1.0j)
    assert u.coeffs[1, 3] == 2.0 - 1.0j
    assert np.count_nonzero(u.coeffs) == 1
    grid = basis.mode_values((1, 3))
    v1 = hermite_values_1d(basis.K_eval, basis.rule.nodes)
    assert_allclose(grid, np.multiply.outer(v1[1], v1[3]), rtol=0, atol=1e-15)


def test_l2_norm_matches_companion_quadrature():
    # Parseval against the bilinear-exact rule: |u|^2 decays like e^{-y^2}
    basis = HermiteBasis(1, 16)
    rng = np.random.default_rng(11)
    u = SpectralField(
        basis, rng.standard_normal(basis.shape) + 1j * rng.standard_normal(basis.shape)
    )
    nodes_u = u.coeffs @ basis.companion_values[: basis.K + 1]
    mass_grid = float(basis.companion_rule.integrate(np.abs(nodes_u) ** 2).real)
    assert_allclose(math.sqrt(mass_grid), u.l2_norm(), rtol=1e-12)


def test_zero_field_and_copy_independent():
    basis = HermiteBasis(1, 4)
    z = SpectralField.zero(basis)
    assert z.l2_norm() == 0.0
    u = SpectralField.from_mode(basis, (2,))
    w = u.copy()
    w.coeffs[2] = 0.0
    assert u.coeffs[2] == 1.0
