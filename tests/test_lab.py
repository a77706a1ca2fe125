"""Tests for the quadrilinear identity machinery and scaling measurements.

Closed-form oracles for the all-ground tuple in one dimension:
    L0 = int h0^4        = (2 pi)^{-1/2}
    L1 = 3 int (h0')^2 h0^2 = 3/4 (2 pi)^{-1/2}
    Lx = int x^2 h0^4    = 1/4 (2 pi)^{-1/2}
with resonance denominator 1 - 1 - 1 - 1 = -2, so the identity reads
L0 = -2 (L1 + Lx) / (-2) = L1 + Lx.  The bilinear ground-pair norm over
[0, pi] is sqrt(pi) (2 pi)^{-1/4}.
"""

import functools
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from oscillab import (
    HermiteBasis,
    PWord,
    QuadTuple,
    ResonantTupleError,
    SolverConfig,
    SpectralField,
    almost_orthogonality_scan,
    bilinear_min_K,
    bilinear_strichartz_ratio,
    derivative_bilinear_ratio,
    energy,
    energy_increment_scan,
    fit_power_law,
    identity_residual_scan_1d,
    norm_growth_experiment,
    quad_L0,
    quad_L1_plus_weight,
    random_shell_field,
    run_recorded,
    verify_identity_k1,
)
from oscillab import lab
from oscillab.hermite import gauss_hermite_rule, hermite_values_1d
from oscillab.operators import _letter_image

INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def _ground_tuple(basis):
    return QuadTuple.from_modes(basis, (0,), (0,), (0,), (0,))


def test_all_ground_closed_forms():
    basis = HermiteBasis(1, 8)
    qt = _ground_tuple(basis)
    assert quad_L0(qt) == pytest.approx(INV_SQRT_2PI, rel=1e-14)
    L1, Lx = quad_L1_plus_weight(qt)
    assert L1 == pytest.approx(0.75 * INV_SQRT_2PI, rel=1e-13)
    assert Lx == pytest.approx(0.25 * INV_SQRT_2PI, rel=1e-13)


def test_all_ground_identity_residual():
    basis = HermiteBasis(1, 8)
    assert verify_identity_k1(_ground_tuple(basis)) < 1e-14


def test_resonant_tuple_raises():
    # degrees (1,0,0,0): 3 - 1 - 1 - 1 = 0 is a resonant denominator
    basis = HermiteBasis(1, 8)
    qt = QuadTuple.from_modes(basis, (1,), (0,), (0,), (0,))
    with pytest.raises(ResonantTupleError):
        verify_identity_k1(qt)


def test_odd_parity_integral_is_exact_zero():
    # degrees (3,0,0,0): odd total parity, nonresonant (7 - 3 = 4)
    basis = HermiteBasis(1, 8)
    qt = QuadTuple.from_modes(basis, (3,), (0,), (0,), (0,))
    assert quad_L0(qt) == 0.0
    L1, Lx = quad_L1_plus_weight(qt)
    assert L1 == 0.0 and Lx == 0.0


def test_single_axis_odd_tuple_is_exact_zero_in_2d():
    # degree sums 7 and 5 per axis: even in total, so only the mirror of each
    # single axis makes the integrals vanish; the full mirror x -> -x does not
    basis = HermiteBasis(2, 32)
    qt = QuadTuple.from_modes(basis, (5, 0), (0, 3), (2, 2), (0, 0))
    assert quad_L0(qt) == 0.0
    L1, Lx = quad_L1_plus_weight(qt)
    assert L1 == 0.0 and Lx == 0.0


def test_quad_tuple_rejects_mixed_shell_field():
    basis = HermiteBasis(1, 8)
    c = np.zeros(9, dtype=complex)
    c[0] = 1.0
    c[2] = 0.5  # different shell
    mixed = SpectralField(basis, c)
    ground = SpectralField.from_mode(basis, (0,))
    with pytest.raises(ValueError):
        QuadTuple(mixed, ground, ground, ground, 1, 1, 1, 1)


def test_quad_tuple_requires_shared_basis():
    b1 = HermiteBasis(1, 8)
    b2 = HermiteBasis(1, 8)
    g1 = SpectralField.from_mode(b1, (0,))
    g2 = SpectralField.from_mode(b2, (0,))
    with pytest.raises(ValueError):
        QuadTuple(g1, g1, g1, g2, 1, 1, 1, 1)


def test_identity_scan_small_exhaustive():
    scan = identity_residual_scan_1d(6)
    res = scan["residual"]
    resonant = scan["resonant"]
    assert res.shape == (7, 7, 7, 7)
    assert int(resonant.sum()) == 56
    assert np.all(np.isnan(res[resonant]))
    max_res = float(np.nanmax(res))
    assert max_res < 1e-12
    # odd-parity tuples are exactly zero on both sides
    assert scan["L0"][1, 0, 0, 0] == 0.0
    assert scan["L0"][3, 0, 0, 0] == 0.0


def test_identity_scan_matches_quad_tuple_route():
    basis = HermiteBasis(1, 6)
    scan = identity_residual_scan_1d(6)
    for modes in [(0, 0, 0, 0), (2, 2, 0, 0), (4, 2, 2, 4), (6, 1, 1, 2)]:
        qt = QuadTuple.from_modes(basis, *[(k,) for k in modes])
        assert quad_L0(qt) == pytest.approx(scan["L0"][modes], rel=1e-13, abs=1e-18)


def test_identity_scan_is_the_tuple_path_on_c_order_tuples():
    K = 6
    scan = identity_residual_scan_1d(K)
    modes = np.array(list(itertools.product(range(K + 1), repeat=4)))[..., None]
    tuples = lab.identity_residual_tuples(K, modes)
    for key in ("L0", "Lx", "rhs", "residual", "resonant"):
        assert scan[key].shape == (K + 1,) * 4
        assert scan[key].tobytes() == tuples[key].tobytes(), key


def test_random_shell_field_lives_on_shell():
    basis = HermiteBasis(2, 10)
    rng = np.random.default_rng(0)
    mu_sq = 2 * 7 + 2
    e = random_shell_field(basis, mu_sq, rng)
    occupied = basis.lambda_sq[np.abs(e.coeffs) != 0]
    assert np.all(occupied == mu_sq)
    assert e.l2_norm() == pytest.approx(1.0, rel=1e-13)


def test_fit_power_law_recovers_exponent():
    xs = np.array([2.0, 4.0, 8.0, 16.0, 32.0])
    ys = 3.0 * xs**-0.7
    fit = fit_power_law(xs, ys)
    assert fit.slope == pytest.approx(-0.7, abs=1e-12)
    assert fit.intercept == pytest.approx(math.log(3.0), abs=1e-12)
    assert fit.dropped == 0


def test_fit_power_law_drops_exact_zeros():
    xs = [1.0, 2.0, 4.0, 8.0]
    ys = [1.0, 0.0, 0.0625, 0.015625]  # zero from an exact-parity cancellation
    fit = fit_power_law(xs, ys)
    assert fit.dropped == 1
    assert fit.slope == pytest.approx(-2.0, abs=1e-12)


def test_almost_orthogonality_decay_is_superpolynomial():
    basis = HermiteBasis(1, 40)
    ground = SpectralField.from_mode(basis, (0,))
    lambda1_list = [math.sqrt(2 * k + 1) for k in range(41)]
    out = almost_orthogonality_scan(
        basis, lambda1_list, ground, ground, ground, trials=2, seed=1, C0=2.0
    )
    assert not out["empty"]
    assert np.all(out["lambda1"] >= 6.0)  # admissibility kept only separated shells
    assert out["fit"] is not None
    assert out["fit"].slope < -6.0


def test_almost_orthogonality_rejects_mixed_trio():
    basis = HermiteBasis(1, 12)
    c = np.zeros(13, dtype=complex)
    c[0] = c[2] = 1.0
    mixed = SpectralField(basis, c)
    ground = SpectralField.from_mode(basis, (0,))
    with pytest.raises(ValueError):
        almost_orthogonality_scan(basis, [5.0], mixed, ground, ground, 1, 0)


def test_almost_orthogonality_refuses_complex_or_foreign_trio():
    basis = HermiteBasis(1, 12)
    ground = SpectralField.from_mode(basis, (0,))
    complex_ground = SpectralField.from_mode(basis, (0,), amplitude=1j)
    foreign = SpectralField.from_mode(HermiteBasis(1, 10), (0,))
    for trio in ((complex_ground, ground, ground), (ground, ground, foreign)):
        with pytest.raises(ValueError, match="real coefficients on the scan's basis"):
            almost_orthogonality_scan(basis, [], *trio, trials=1, seed=0)  # no shell admissible


@pytest.mark.parametrize("d, K, trials", [(1, 64, 4), (2, 48, 4), (3, 56, 2)])
def test_almost_orthogonality_matches_per_axis_reference(d, K, trials):
    # b_m = prod_a int h_{m_a} h_0^3 from the exact per-axis reference, on the same draws
    seed = 20260814
    basis = HermiteBasis(d, K)
    trio = [SpectralField.from_mode(basis, (0,) * d) for _ in range(3)]
    lambda1_list = [math.sqrt(2 * m + d) for m in range(K + 1)]
    out = almost_orthogonality_scan(basis, lambda1_list, *trio, trials=trials, seed=seed, C0=2.0)
    axis_tuples = np.zeros((K + 1, 4, 1), dtype=int)
    axis_tuples[:, 0, 0] = np.arange(K + 1)
    b = functools.reduce(np.multiply.outer, [_exact_terms(axis_tuples, K)[0]] * d)
    odd = 0
    for lam1, got in zip(out["lambda1"], out["max_abs_L0"]):
        mu_sq = int(round(lam1 ** 2))
        if (mu_sq - d) % 4 != 0:  # odd total degree with the ground trio
            odd += 1
            assert got == 0.0 and not np.signbit(got)
            continue
        want = max(abs(np.sum(b * random_shell_field(
            basis, mu_sq, np.random.default_rng(np.random.SeedSequence((seed, mu_sq, t)))).coeffs.real))
            for t in range(trials))
        assert abs(got - want) <= 1e-15
    assert 0 < odd < len(out["lambda1"])


def test_bilinear_min_K_frozen_values():
    assert bilinear_min_K(1) == 8
    assert bilinear_min_K(64) == 1954
    assert bilinear_min_K(32) > bilinear_min_K(16) > bilinear_min_K(8)
    assert all(bilinear_min_K(N) == bilinear_min_K(N, 2) for N in range(1, 129))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_bilinear_min_K_clips_no_draw(d):
    # at d = 1 one axis takes all of N^2; a cap sized for 0.85 N^2 clipped every u window
    for N in (4, 5, 8, 12, 16, 24, 32, 48, 64):
        cap = bilinear_min_K(N, d)
        for trial in range(200):
            capped, free = (lab._draw_packet_pair(
                np.random.default_rng(np.random.SeedSequence((5, N, trial))), d, N, 2, math.pi, K)
                for K in (cap, 10 ** 9))
            for (m0, c), (f0, f) in zip(capped[0] + capped[1], free[0] + free[1]):
                assert m0 == f0 and c.tobytes() == f.tobytes()


def test_bilinear_ground_pair_closed_form():
    # N = M = 1 draws exactly the ground-state pair: |u v| = h0^2 for all t,
    # so the space-time norm over [0, pi] is sqrt(pi) (2 pi)^{-1/4}
    basis = HermiteBasis(1, 16)
    out = bilinear_strichartz_ratio(basis, 1, N=1, M=1, T=math.pi, trials=1, seed=0)
    want = math.sqrt(math.pi) * (2.0 * math.pi) ** -0.25
    assert out["raw_max"] == pytest.approx(want, rel=1e-12)
    assert out["ratio_max"] == pytest.approx(want, rel=1e-12)  # unit normalization


def test_empty_word_reduction_bit_identical():
    basis = HermiteBasis(1, bilinear_min_K(8))
    ident = PWord.identity()
    a = derivative_bilinear_ratio(basis, 2, ident, ident, 8, 2, math.pi, 4, 123)
    b = bilinear_strichartz_ratio(basis, 2, 8, 2, math.pi, 4, 123)
    assert np.array_equal(a["raws"], b["raws"])
    assert np.array_equal(a["ratios"], b["ratios"])
    assert a["normalization"] == b["normalization"]


# The three ladder-letter copies lab carried before its letters went through the one
# kernel in operators, unchanged but for their names: references for the bitwise tests.

def _reference_grad_ext(coeffs, axis):
    """Gradient along `axis` with the array grown by one degree on that axis."""
    shape = list(coeffs.shape)
    shape[axis] += 1
    out = np.zeros(shape, dtype=coeffs.dtype)
    w = np.moveaxis(out, axis, 0)
    c = np.moveaxis(coeffs, axis, 0)
    L = c.shape[0]
    n = np.arange(L + 1, dtype=float)
    bshape = (-1,) + (1,) * (c.ndim - 1)
    w[: L - 1] += np.sqrt(n[1:L] / 2.0).reshape(bshape)[: L - 1] * c[1:]
    w[1:] -= np.sqrt(n[1:] / 2.0).reshape(bshape) * c[:L]
    return out


def _reference_ladder_window(m0, c, letter):
    """Apply one ladder letter to a windowed 1-D coefficient vector."""
    lo = max(m0 - 1, 0)
    hi = m0 + c.size  # top degree grows by one
    out = np.zeros(hi - lo + 1, dtype=complex)
    m_new = np.arange(lo, hi + 1)
    idx_up = m_new + 1 - m0
    ok = (idx_up >= 0) & (idx_up < c.size)
    out[ok] += np.sqrt((m_new[ok] + 1) / 2.0) * c[idx_up[ok]]
    idx_dn = m_new - 1 - m0
    ok = (idx_dn >= 0) & (idx_dn < c.size)
    down = np.sqrt(m_new[ok] / 2.0) * c[idx_dn[ok]]
    if letter == "GRAD":
        out[ok] -= down
    else:
        out[ok] += down
    return lo, out


def _reference_derivative_table(V, K_max):
    """Rows h_k' = sqrt(k/2) h_{k-1} - sqrt((k+1)/2) h_{k+1}, k = 0..K_max."""
    DV = np.zeros_like(V[: K_max + 1])
    for k in range(K_max + 1):
        DV[k] = -math.sqrt((k + 1) / 2.0) * V[k + 1]
        if k >= 1:
            DV[k] += math.sqrt(k / 2.0) * V[k - 1]
    return DV


def _signed_zero_field(rng, shape, complex_valued):
    """Random coefficients with exact +0.0 and -0.0 entries sprinkled in."""
    c = rng.standard_normal(shape)
    if complex_valued:
        c = c + 1j * rng.standard_normal(shape)
    flat = c.reshape(-1)
    flat[::3] = 0.0
    flat[1::4] = -0.0
    if complex_valued:
        flat.imag[2::5] = -0.0
    return c


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("complex_valued", [False, True])
def test_letter_image_is_the_old_gradient_bitwise(d, complex_valued):
    rng = np.random.default_rng(40 + d)
    for n in (1, 2, 6):
        c = _signed_zero_field(rng, (n + 1,) * d, complex_valued)
        for axis in range(d):
            start, image = _letter_image(c, "GRAD", axis)
            want = _reference_grad_ext(c, axis)
            assert start == 0
            assert image.shape == want.shape and image.tobytes() == want.tobytes()


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("letter", ["GRAD", "X"])
@pytest.mark.parametrize("m0", [0, 1, 2, 7, 40])
def test_letter_image_is_the_old_ladder_window_bitwise(d, letter, m0):
    # along `axis`, every fiber of the image is the old 1-D window letter of that fiber
    rng = np.random.default_rng(100 * d + m0)
    for axis in range(d):
        for size in (1, 2, 9):
            shape = [3] * d
            shape[axis] = size
            c = _signed_zero_field(rng, tuple(shape), True)
            start, image = _letter_image(c, letter, axis, m0)
            fibers = np.moveaxis(c, axis, -1).reshape(-1, size)
            images = np.moveaxis(image, axis, -1).reshape(fibers.shape[0], -1)
            for fiber, got in zip(fibers, images):
                want_start, want = _reference_ladder_window(m0, fiber, letter)
                assert start == want_start
                assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("K", [1, 4, 16, 24])
def test_identity_scan_derivative_table_is_the_old_loop_bitwise(K):
    V = HermiteBasis(1, K).values[: K + 2]
    got = -_letter_image(V, "GRAD", 0)[1][: K + 1]
    assert got.tobytes() == _reference_derivative_table(V, K).tobytes()


def _reference_v_nodes(Vv, m0, cv, tg):
    """The support cut of the kernel before its phase table: the same floor and
    candidate nodes, on the full phases e^{-i(2m+1)t} of the window's modes."""
    m = np.arange(m0, m0 + cv.size)
    ev = (cv[:, None] * np.exp(-1j * np.outer(2 * m + 1, tg))).view(float)
    floor = 1e-11 * np.abs((Vv.T @ ev[:, :2]).view(complex)).max()
    cand = np.flatnonzero(np.abs(cv) @ np.abs(Vv) > 0.5 * floor)
    peak = np.abs((Vv[:, cand].T @ ev).view(complex)).max(axis=1)
    return cand[peak > 1e-11 * peak.max()]


def _dense_reference_raws(basis, d, word_a, word_b, N, M, T, trials, seed, v_nodes=None,
                          cell_rule=False):
    """The dense trial loop: both factors on every node, complex products.  When
    `v_nodes` is a list, each axis's _reference_v_nodes is appended to it.  The nodes
    are those of the basis's 2K+2 rule, or with `cell_rule` those of the Gauss rule of
    top_u + top_v + 1 nodes sized to the cell's windows, tabled by full evaluation."""
    tg, tw = lab._time_rule(T, N)
    K_draw = basis.K - max(word_a.order, word_b.order)
    pairs = []
    for trial in range(trials):
        rng = np.random.default_rng(np.random.SeedSequence((seed, N, M, trial)))
        u_axes, v_axes = lab._draw_packet_pair(rng, d, N, M, T, K_draw)
        for axis in range(d):
            for letter in [letter for letter, ax in word_a.letters if ax - 1 == axis]:
                u_axes[axis] = _reference_ladder_window(*u_axes[axis], letter)
            for letter in [letter for letter, ax in word_b.letters if ax - 1 == axis]:
                v_axes[axis] = _reference_ladder_window(*v_axes[axis], letter)
        pairs.append((u_axes, v_axes))
    if cell_rule:
        top_u = max(m0 + c.size - 1 for u_axes, _ in pairs for m0, c in u_axes)
        top_v = max(m0 + c.size - 1 for _, v_axes in pairs for m0, c in v_axes)
        rule = gauss_hermite_rule(top_u + top_v + 1, 2)
        V = hermite_values_1d(max(top_u, top_v), rule.nodes)
    else:
        rule = basis.rule
        V = basis.values[: basis.K + 1]
    W = rule.weights
    raws = []
    for u_axes, v_axes in pairs:
        prof = np.ones_like(tg)
        for (m0u, cu), (m0v, cv) in zip(u_axes, v_axes):
            if v_nodes is not None:
                v_nodes.append(_reference_v_nodes(V[m0v:m0v + cv.size], m0v, cv, tg))
            mv = np.arange(m0v, m0v + cv.size)
            gv = V[m0v:m0v + cv.size].T @ (cv[:, None] * np.exp(-1j * np.outer(2 * mv + 1, tg)))
            sup = np.abs(gv).max(axis=1) > 1e-11 * np.abs(gv).max()
            mu = np.arange(m0u, m0u + cu.size)
            gu = V[np.ix_(mu, np.flatnonzero(sup))].T @ (
                cu[:, None] * np.exp(-1j * np.outer(2 * mu + 1, tg))
            )
            prof = prof * (W[sup] @ (np.abs(gu * gv[sup]) ** 2))
        raws.append(math.sqrt(float(np.sum(tw * prof))))
    return np.array(raws)


_WORDS = {
    "identity": PWord.identity(),
    "GRAD1": PWord.grad(1),
    "X1.GRAD2": PWord((("X", 1), ("GRAD", 2))),
}


@pytest.mark.parametrize(
    "d,word",
    [(d, word) for d in (1, 2, 3) for word in _WORDS if d >= 2 or word != "X1.GRAD2"],
)
def test_bilinear_kernel_matches_dense_reference(d, word):
    # across rules: the kernel on the cell's rule against the dense loop on the basis's
    # 2K+2 rule; with M = N the cell's rule comes close to 2K+1 nodes
    w = _WORDS[word]
    basis = HermiteBasis(1, bilinear_min_K(16, d) + w.order)
    for N in (4, 8, 16):
        for M in sorted({2, 4, N}):
            got = derivative_bilinear_ratio(basis, d, w, w, N, M, math.pi, 2, 31)["raws"]
            want = _dense_reference_raws(basis, d, w, w, N, M, math.pi, 2, 31)
            assert_allclose(got, want, rtol=1e-13, atol=0)


@pytest.mark.parametrize("word", ["identity", "GRAD1"])
def test_bilinear_phase_table_matches_dense_reference_at_large_N(word, monkeypatch):
    # at N = 64 the full phases (2m+1)t reach 2.5e4 rad; the kernel's e^{-2ijt} table
    # must give the same raws and keep the very same support nodes of the cell's rule
    w = _WORDS[word]
    basis = HermiteBasis(1, bilinear_min_K(64) + w.order)
    seen, v_support = [], lab._v_support

    def spy(*args):
        seen.append(v_support(*args))
        return seen[-1]

    monkeypatch.setattr(lab, "_v_support", spy)
    for N in (32, 64):
        seen.clear()
        want_nodes = []
        got = derivative_bilinear_ratio(basis, 2, w, w, N, 2, math.pi, 1, 31)["raws"]
        want = _dense_reference_raws(basis, 2, w, w, N, 2, math.pi, 1, 31, want_nodes,
                                     cell_rule=True)
        assert_allclose(got, want, rtol=1e-13, atol=0)
        assert len(seen) == len(want_nodes) == 2
        for (nodes, _), want_ax in zip(seen, want_nodes):
            assert np.array_equal(nodes, want_ax)


def test_bilinear_trial_memory_bounded():
    # one N = 64 trial at d = 2 once held Q x time-node complex arrays per axis
    # (3910 x 1024, 64 MB each), 131.5 MiB in all on top of the tables; the cell's
    # own rule and value table are counted here
    basis = HermiteBasis(1, bilinear_min_K(64))
    ident = PWord.identity()
    tracemalloc.start()
    try:
        derivative_bilinear_ratio(basis, 2, ident, ident, 64, 2, math.pi, 1, 7)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2 ** 20


def test_derivative_bilinear_validates_inputs():
    basis = HermiteBasis(1, 20)
    ident = PWord.identity()
    with pytest.raises(ValueError):
        derivative_bilinear_ratio(basis, 2, ident, ident, 2, 4, 1.0, 1, 0)  # N < M
    with pytest.raises(ValueError):
        derivative_bilinear_ratio(basis, 2, ident, ident, 64, 2, 1.0, 1, 0)  # K too small
    with pytest.raises(ValueError):
        derivative_bilinear_ratio(basis, 1, PWord.grad(2), ident, 4, 1, 1.0, 1, 0)
    basis2 = HermiteBasis(2, 8)
    with pytest.raises(ValueError):
        derivative_bilinear_ratio(basis2, 2, ident, ident, 1, 1, 1.0, 1, 0)


def test_gradient_word_raises_measured_norm():
    # a gradient on the high factor scales the raw norm up by roughly N
    basis = HermiteBasis(1, bilinear_min_K(8) + 1)
    out_id = bilinear_strichartz_ratio(basis, 2, 8, 2, math.pi, 4, 5)
    out_gr = derivative_bilinear_ratio(
        basis, 2, PWord.grad(1), PWord.identity(), 8, 2, math.pi, 4, 5
    )
    boost = out_gr["raw_max"] / out_id["raw_max"]
    assert 2.0 < boost < 32.0


def test_energy_increment_scan_smoke():
    basis = HermiteBasis(2, 12)
    rng = np.random.default_rng(2)
    c = rng.standard_normal(basis.shape) + 1j * rng.standard_normal(basis.shape)
    c *= np.exp(-basis.lambda_sq / 4.0)
    c *= 0.5 / np.linalg.norm(c)
    u0 = SpectralField(basis, c)
    cfg = SolverConfig(dt=1e-3, T=0.05, record_every=10)
    out = energy_increment_scan(u0, 1.5, [2, 4], cfg)
    assert set(out["increments"]) == {2, 4}
    assert all(v >= 0.0 for v in out["increments"].values())
    assert out["n_records"] >= 2
    assert "tainted" in out["diagnostics"]


@pytest.mark.parametrize("coupling", [0.0, 1.0])
def test_energy_drift_floor_is_the_unmodified_energy_drift(coupling):
    # the floor is the drift of E at the run's own coupling; with coupling = 0, E is
    # the quadratic part alone, which the exact linear flow conserves up to roundoff
    basis = HermiteBasis(2, 12)
    rng = np.random.default_rng(2)
    c = rng.standard_normal(basis.shape) + 1j * rng.standard_normal(basis.shape)
    c *= np.exp(-basis.lambda_sq / 4.0)
    c *= 0.5 / np.linalg.norm(c)
    u0 = SpectralField(basis, c)
    cfg = SolverConfig(dt=1e-3, T=0.05, record_every=10, coupling=coupling)
    out = energy_increment_scan(u0, 1.5, [2, 64], cfg)
    energies = []
    run_recorded(u0, cfg, lambda t, u: energies.append(energy(u, coupling)))
    floor = out["energy_drift_floor"]
    assert floor == max(abs(e - energies[0]) for e in energies)
    if coupling == 0.0:
        assert floor <= 1e-14 * energies[0]
    else:
        assert floor > 1e-12 * energies[0]  # the splitting error, well above roundoff
    assert out["increments"][64] == floor  # I_64 is the identity on this basis
    assert set(out["increments"]) == {2, 64}


def test_norm_growth_experiment_smoke():
    basis = HermiteBasis(1, 12)
    rng = np.random.default_rng(3)
    c = rng.standard_normal(basis.shape) + 1j * rng.standard_normal(basis.shape)
    c *= np.exp(-basis.lambda_sq / 4.0)
    c *= 0.6 / np.linalg.norm(c)
    u0 = SpectralField(basis, c)
    cfg = SolverConfig(dt=0.01, T=3.0, record_every=10)
    out = norm_growth_experiment(u0, 2.0, cfg)
    for branch in ("nonlinear", "linear"):
        rec = out[branch]
        rm = rec["running_max"]
        assert np.all(np.diff(rm) >= 0.0)
        assert rec["times"][0] == 0.0
    # the linear flow preserves every H^s norm exactly
    lin = out["linear"]["hs_norms"]
    assert_allclose(lin, lin[0], rtol=1e-12)
    assert abs(out["linear"]["fit"].slope) < 1e-10


# ---------------------------------------------------------------------------
# The stacked quadrilinear terms
# ---------------------------------------------------------------------------

_SCAN_K = 5


@functools.cache
def _scan_1d():
    return identity_residual_scan_1d(_SCAN_K)


def _tuple_modes(d):
    mode = st.tuples(*[st.integers(min_value=0, max_value=_SCAN_K)] * d)
    return st.tuples(mode, mode, mode, mode)


@settings(max_examples=25, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("d", [2, 3])
def test_quad_terms_factorize_over_axes(d, data):
    # a single-mode tuple is a product over axes of 1-D tuples:
    # L0 = prod_j L0_j and Lx = sum_j Lx_j prod_{k != j} L0_k
    modes = data.draw(_tuple_modes(d))
    scan = _scan_1d()
    per_axis = [tuple(m[ax] for m in modes) for ax in range(d)]
    L0_ax = [scan["L0"][t] for t in per_axis]
    Lx_ax = [scan["Lx"][t] for t in per_axis]
    want_L0 = math.prod(L0_ax)
    terms = [Lx_ax[j] * math.prod(L0_ax[:j] + L0_ax[j + 1:]) for j in range(d)]
    want_Lx = sum(terms)
    L0, _, Lx = lab._quad_terms(QuadTuple.from_modes(HermiteBasis(d, _SCAN_K), *modes))
    assert L0 == pytest.approx(want_L0, rel=1e-13, abs=1e-18)
    # the axis terms can cancel exactly (modes (0,0),(0,0),(0,0),(0,2) give Lx = 0),
    # so the roundoff scale of Lx is sum_j |term_j|, not |Lx|
    assert Lx == pytest.approx(want_Lx, rel=1e-13, abs=1e-13 * sum(map(abs, terms)))


@settings(max_examples=25, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("d", [2, 3])
def test_quad_terms_single_axis_odd_tuple_is_exact_zero(d, data):
    modes = [list(m) for m in data.draw(_tuple_modes(d))]
    axis = data.draw(st.integers(min_value=0, max_value=d - 1))
    if sum(m[axis] for m in modes) % 2 == 0:  # make the degree sum on `axis` odd
        modes[0][axis] += 1 if modes[0][axis] < _SCAN_K else -1
    qt = QuadTuple.from_modes(HermiteBasis(d, _SCAN_K), *modes)
    assert lab._quad_terms(qt) == (0.0, 0.0, 0.0)


@settings(max_examples=25, deadline=None)
@given(data=st.data(), K=st.integers(min_value=1, max_value=8))
@pytest.mark.parametrize("d", [1, 2, 3])
def test_quad_L0_is_the_first_quad_term_bitwise(d, K, data):
    mode = st.tuples(*[st.integers(min_value=0, max_value=K)] * d)
    modes = data.draw(st.tuples(mode, mode, mode, mode))
    qt = QuadTuple.from_modes(HermiteBasis(d, K), *modes)
    L0, L1, Lx = lab._quad_terms(qt)
    assert quad_L0(qt) == L0
    assert quad_L1_plus_weight(qt) == (L1, Lx)


def test_quad_terms_shell_fields_match_mode_sums():
    # random real shell fields: L0 is linear in each field, so it is the coefficient-
    # weighted sum of single-mode L0s
    basis = HermiteBasis(2, 4)
    rng = np.random.default_rng(12)
    fields = [random_shell_field(basis, mu, rng) for mu in (8, 6, 4, 6)]
    qt = QuadTuple(*fields, 8, 6, 4, 6)
    want = 0.0
    supports = [np.argwhere(e.coeffs.real != 0.0) for e in fields]
    for m1 in supports[0]:
        for m2 in supports[1]:
            for m3 in supports[2]:
                for m4 in supports[3]:
                    c = math.prod(e.coeffs.real[tuple(m)] for e, m in zip(fields, (m1, m2, m3, m4)))
                    want += c * quad_L0(QuadTuple.from_modes(basis, m1, m2, m3, m4))
    assert lab._quad_terms(qt)[0] == pytest.approx(want, rel=1e-12, abs=1e-16)


# ---------------------------------------------------------------------------
# Sampled single-mode tuples as products of 1-D folded sums
# ---------------------------------------------------------------------------

def _draw_modes(d, K, n, seed):
    rng = np.random.default_rng(seed)
    return rng.integers(0, K + 1, size=(n, 4, d))


def _exact_terms(modes, K):
    """(L0, L1, Lx) per tuple, from numpy's Gauss-Hermite rule in y = sqrt(2) x (exact
    for the degree <= 4K + 2 polynomials times e^{-2x^2}) and the normalised recurrence
    for h_k(x) e^{x^2/2}, independent of oscillab's tables.  Per axis a: E_a = int h h h h,
    X_a = int x^2 h h h h and B_a = the three gradient pairs, with h_k' = sqrt(k/2) h_{k-1}
    - sqrt((k+1)/2) h_{k+1}; L0 = prod_a E_a, L1 and Lx = sum_a (B_a or X_a) prod_{b != a} E_b."""
    y, w = np.polynomial.hermite.hermgauss(2 * K + 2)
    x = y / math.sqrt(2.0)
    P = np.zeros((K + 2, x.size))
    P[0] = math.pi ** -0.25
    P[1] = math.sqrt(2.0) * x * P[0]
    for k in range(1, K + 1):
        P[k + 1] = math.sqrt(2.0 / (k + 1)) * x * P[k] - math.sqrt(k / (k + 1)) * P[k - 1]
    k = np.arange(K + 1)[:, None]
    dP = np.sqrt(k / 2.0) * np.vstack([np.zeros_like(x), P[:K]]) - np.sqrt((k + 1) / 2.0) * P[1:]
    w = w / math.sqrt(2.0)
    d = modes.shape[2]
    E, X, B = np.empty((3, d, modes.shape[0]))
    for a in range(d):
        h1, h2, h3, h4 = np.moveaxis(P[modes[:, :, a]], 1, 0)
        g2, g3, g4 = np.moveaxis(dP[modes[:, 1:, a]], 1, 0)
        E[a] = np.sum(w * h1 * h2 * h3 * h4, axis=-1)
        X[a] = np.sum(w * x ** 2 * h1 * h2 * h3 * h4, axis=-1)
        B[a] = np.sum(w * h1 * (g2 * g3 * h4 + g2 * g4 * h3 + g3 * g4 * h2), axis=-1)
    rest = [np.prod(np.delete(E, a, axis=0), axis=0) for a in range(d)]
    return (np.prod(E, axis=0), sum(B[a] * rest[a] for a in range(d)),
            sum(X[a] * rest[a] for a in range(d)))


@pytest.mark.parametrize("d, K", [(2, 24), (3, 12)])
def test_identity_tuples_L0_matches_exact_reference(d, K):
    modes = _draw_modes(d, K, 200, seed=d)
    out = lab.identity_residual_tuples(K, modes)
    assert np.abs(out["L0"] - _exact_terms(modes, K)[0]).max() <= 1e-14
    assert np.array_equal(out["mu_sq"], 2 * modes.sum(axis=2) + d)


@pytest.mark.parametrize("d, K", [(2, 24), (3, 12)])
def test_identity_tuples_L1_Lx_match_exact_reference(d, K):
    modes = _draw_modes(d, K, 200, seed=d)
    out = lab.identity_residual_tuples(K, modes)
    _, L1, Lx = _exact_terms(modes, K)
    assert np.abs(out["L1"] - L1).max() <= 1e-14
    assert np.abs(out["Lx"] - Lx).max() <= 1e-14


@settings(max_examples=25, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("d", [2, 3])
def test_identity_tuples_match_quad_terms(d, data):
    # the same tolerance as test_quad_terms_factorize_over_axes: an axis sum can cancel,
    # so L1 and Lx are compared on the scale sum_a |axis term a|
    tuples = data.draw(st.lists(_tuple_modes(d), min_size=1, max_size=6))
    out = lab.identity_residual_tuples(_SCAN_K, np.array(tuples))
    axis_basis, basis = HermiteBasis(1, _SCAN_K), HermiteBasis(d, _SCAN_K)
    for t, modes in enumerate(tuples):
        qt = QuadTuple.from_modes(basis, *modes)
        L0, L1, Lx = lab._quad_terms(qt)
        per_axis = [lab._quad_terms(QuadTuple.from_modes(axis_basis, *[(m[a],) for m in modes]))
                    for a in range(d)]
        rest = [math.prod(abs(per_axis[b][0]) for b in range(d) if b != a) for a in range(d)]
        scale_L1 = sum(abs(per_axis[a][1]) * rest[a] for a in range(d))
        scale_Lx = sum(abs(per_axis[a][2]) * rest[a] for a in range(d))
        assert out["L0"][t] == pytest.approx(L0, rel=1e-13, abs=1e-18)
        assert out["L1"][t] == pytest.approx(L1, rel=1e-13, abs=1e-13 * scale_L1)
        assert out["Lx"][t] == pytest.approx(Lx, rel=1e-13, abs=1e-13 * scale_Lx)
        assert tuple(out["mu_sq"][t]) == qt.mu_sqs
        assert out["resonant"][t] == (qt.mu_sq_1 - qt.mu_sq_2 - qt.mu_sq_3 - qt.mu_sq_4 == 0)


def test_identity_tuples_do_not_depend_on_the_block_size(monkeypatch):
    modes = _draw_modes(3, 10, 50, seed=4)
    whole = lab.identity_residual_tuples(10, modes)
    monkeypatch.setattr(lab, "_TUPLE_BLOCK", 7)
    blocked = lab.identity_residual_tuples(10, modes)
    for key, value in whole.items():
        assert value.tobytes() == blocked[key].tobytes(), key


@settings(max_examples=25, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("d", [2, 3])
def test_identity_tuples_single_axis_odd_is_positive_zero(d, data):
    modes = [list(m) for m in data.draw(_tuple_modes(d))]
    axis = data.draw(st.integers(min_value=0, max_value=d - 1))
    if sum(m[axis] for m in modes) % 2 == 0:  # make the degree sum on `axis` odd
        modes[0][axis] += 1 if modes[0][axis] < _SCAN_K else -1
    out = lab.identity_residual_tuples(_SCAN_K, np.array([modes]))
    for key in ("L0", "L1", "Lx") + (() if out["resonant"][0] else ("rhs",)):
        assert out[key][0] == 0.0 and not np.signbit(out[key][0]), key


def test_identity_tuples_odd_axis_times_negative_axis_is_positive_zero():
    # axis 0 is odd, axis 1 integrates to int h0^3 h2 < 0: the product is -0.0 unless
    # the signed zero is normalized
    assert _scan_1d()["L0"][0, 0, 0, 2] < 0.0
    out = lab.identity_residual_tuples(_SCAN_K, np.array([[(1, 0), (0, 0), (0, 0), (0, 2)]]))
    for key in ("L0", "L1", "Lx", "rhs", "residual"):
        assert out[key][0] == 0.0 and not np.signbit(out[key][0]), key
