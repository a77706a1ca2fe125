"""Tests for ladder words, spectral projections, and the I-operator.

Ladder oracles come from the creation/annihilation algebra:
    d/dx h_k = sqrt(k/2) h_{k-1} - sqrt((k+1)/2) h_{k+1}
    x   h_k = sqrt(k/2) h_{k-1} + sqrt((k+1)/2) h_{k+1}
which also fixes the commutators [H, grad] = -2x and [H, x] = -2 grad.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from oscillab import (
    HermiteBasis,
    IOperatorSpec,
    PWord,
    SpectralField,
    apply_H,
    apply_I,
    apply_I_inverse,
    apply_P,
    bernstein_ratio,
    bernstein_ratios,
    commutator_H_P,
    i_multiplier,
    littlewood_paley,
    project_pi_mu,
    sobolev_norm,
)
from oscillab.hermite import eigenvalue_box
from oscillab.operators import _apply_word, bernstein_draws, window_degree


def _random_field(basis, seed, top_margin=0):
    """Random complex field; the last `top_margin` degrees stay empty."""
    rng = np.random.default_rng(seed)
    c = rng.standard_normal(basis.shape) + 1j * rng.standard_normal(basis.shape)
    if top_margin:
        cut = basis.K + 1 - top_margin
        for ax in range(basis.d):
            sl = [slice(None)] * basis.d
            sl[ax] = slice(cut, None)
            c[tuple(sl)] = 0.0
    return SpectralField(basis, c)


def test_grad_single_mode_oracle():
    basis = HermiteBasis(1, 8)
    u = SpectralField.from_mode(basis, (3,))
    image, spill = apply_P(u, PWord.grad(1))
    want = np.zeros(9, dtype=complex)
    want[2] = math.sqrt(3.0 / 2.0)
    want[4] = -math.sqrt(4.0 / 2.0)
    assert_allclose(image.coeffs, want, rtol=0, atol=1e-15)
    assert spill == 0.0


def test_x_single_mode_oracle():
    basis = HermiteBasis(1, 8)
    u = SpectralField.from_mode(basis, (3,))
    image, spill = apply_P(u, PWord.x(1))
    want = np.zeros(9, dtype=complex)
    want[2] = math.sqrt(3.0 / 2.0)
    want[4] = math.sqrt(4.0 / 2.0)
    assert_allclose(image.coeffs, want, rtol=0, atol=1e-15)
    assert spill == 0.0


def test_grad_acts_along_requested_axis():
    basis = HermiteBasis(2, 6)
    u = SpectralField.from_mode(basis, (2, 3))
    image, _ = apply_P(u, PWord.grad(2))
    assert image.coeffs[2, 2] == pytest.approx(math.sqrt(1.5))
    assert image.coeffs[2, 4] == pytest.approx(-math.sqrt(2.0))
    assert image.coeffs[1, 3] == 0.0


def test_canonical_commutation_relation():
    # grad(x u) - x(grad u) = u
    basis = HermiteBasis(1, 20)
    u = _random_field(basis, 5, top_margin=3)
    a, sa = apply_P(u, PWord.x(1).then(PWord.grad(1)))
    b, sb = apply_P(u, PWord.grad(1).then(PWord.x(1)))
    assert sa == 0.0 and sb == 0.0
    assert_allclose((a - b).coeffs, u.coeffs, rtol=0, atol=1e-13)


def test_identity_word_is_noop():
    basis = HermiteBasis(2, 5)
    u = _random_field(basis, 1)
    image, spill = apply_P(u, PWord.identity())
    assert np.array_equal(image.coeffs, u.coeffs)
    assert spill == 0.0


def test_apply_P_spillage_reported():
    basis = HermiteBasis(1, 6)
    u = SpectralField.from_mode(basis, (6,))
    image, spill = apply_P(u, PWord.grad(1))
    assert image.coeffs[5] == pytest.approx(math.sqrt(3.0))
    # the h_7 branch leaves the basis and is reported as spillage
    assert spill == pytest.approx(math.sqrt(3.5), rel=1e-14)


def test_word_validation():
    with pytest.raises(ValueError):
        PWord((("CURL", 1),))
    with pytest.raises(ValueError):
        PWord((("GRAD", 0),))
    with pytest.raises(ValueError):
        PWord(tuple([("X", 1)] * 9))  # beyond the supported word order
    basis = HermiteBasis(2, 4)
    u = SpectralField.from_mode(basis, (0, 0))
    with pytest.raises(ValueError):
        apply_P(u, PWord.grad(3))  # axis beyond dimension


def test_apply_H_is_diagonal():
    basis = HermiteBasis(2, 7)
    u = SpectralField.from_mode(basis, (2, 3), amplitude=1.5j)
    hu = apply_H(u)
    assert hu.coeffs[2, 3] == 1.5j * (2 * 5 + 2)
    assert np.count_nonzero(hu.coeffs) == 1


@pytest.mark.parametrize("d", [1, 2])
def test_commutator_grad_gives_minus_two_x(d):
    basis = HermiteBasis(d, 14)
    u = _random_field(basis, 42, top_margin=2)
    comm, spill = commutator_H_P(u, PWord.grad(1))
    xu, _ = apply_P(u, PWord.x(1))
    # the spill estimate sqrt(total - kept) bottoms out at sqrt(eps)*norm
    assert spill < 1e-6 * max(1.0, comm.l2_norm())
    assert_allclose(comm.coeffs, -2.0 * xu.coeffs, rtol=0, atol=1e-12)


@pytest.mark.parametrize("d", [1, 2])
def test_commutator_x_gives_minus_two_grad(d):
    basis = HermiteBasis(d, 14)
    u = _random_field(basis, 43, top_margin=2)
    comm, spill = commutator_H_P(u, PWord.x(1))
    gu, _ = apply_P(u, PWord.grad(1))
    assert spill < 1e-6 * max(1.0, comm.l2_norm())
    assert_allclose(comm.coeffs, -2.0 * gu.coeffs, rtol=0, atol=1e-12)


def test_shell_projections_decompose_identity():
    basis = HermiteBasis(2, 9)
    u = _random_field(basis, 9)
    shells = np.unique(basis.lambda_sq)
    acc = SpectralField.zero(basis)
    for mu_sq in shells:
        piece = project_pi_mu(u, int(mu_sq))
        assert np.array_equal(
            project_pi_mu(piece, int(mu_sq)).coeffs, piece.coeffs
        )
        acc = acc + piece
    assert np.array_equal(acc.coeffs, u.coeffs)


def test_littlewood_paley_window_support():
    basis = HermiteBasis(1, 40)
    u = SpectralField(basis, np.ones(basis.shape, dtype=complex))
    block = littlewood_paley(u, 4)
    lsq = basis.lambda_sq
    outside = (4 * lsq <= 16) | (lsq >= 32)
    assert np.all(block.coeffs[outside] == 0.0)
    inside_plateau = (2 * lsq >= 16) & (lsq <= 16)
    assert np.all(block.coeffs[inside_plateau] == 1.0)


def test_littlewood_paley_partition_of_unity():
    basis = HermiteBasis(1, 40)
    u = _random_field(basis, 12)
    acc = SpectralField.zero(basis)
    for N in (1, 2, 4, 8, 16):
        acc = acc + littlewood_paley(u, N)
    assert_allclose(acc.coeffs, u.coeffs, rtol=0, atol=1e-14)


def test_littlewood_paley_rejects_non_dyadic():
    basis = HermiteBasis(1, 8)
    u = SpectralField.zero(basis)
    with pytest.raises(ValueError):
        littlewood_paley(u, 3)


def test_sobolev_norm_single_mode():
    basis = HermiteBasis(2, 6)
    u = SpectralField.from_mode(basis, (1, 2), amplitude=2.0)
    mu_sq = 2 * 3 + 2
    assert sobolev_norm(u, 1.5) == pytest.approx(2.0 * mu_sq**0.75, rel=1e-14)
    assert sobolev_norm(u, 0.0) == pytest.approx(2.0, rel=1e-14)


def test_i_multiplier_plateau_and_tail():
    spec = IOperatorSpec(N=8, s=2.0)
    lam = np.array([1.0, 4.0, 8.0, 16.0, 32.0, 64.0])
    m = i_multiplier(spec, lam)
    assert_allclose(m[:3], 1.0, rtol=0, atol=0)
    assert_allclose(m[3], 2.0, rtol=1e-14)  # (16/8)^{s-1}
    assert_allclose(m[4], 4.0, rtol=1e-14)
    assert_allclose(m[5], 8.0, rtol=1e-14)
    # monotone nondecreasing across the bridge
    grid = np.linspace(7.0, 17.0, 400)
    vals = i_multiplier(spec, grid)
    assert np.all(np.diff(vals) >= -1e-15)


def test_i_multiplier_bridge_is_continuous():
    spec = IOperatorSpec(N=4, s=1.5)
    eps = 1e-9
    lo = i_multiplier(spec, np.array([4.0 - eps, 4.0 + eps]))
    hi = i_multiplier(spec, np.array([8.0 - eps, 8.0 + eps]))
    assert abs(lo[1] - lo[0]) < 1e-6
    assert abs(hi[1] - hi[0]) < 1e-6


def test_i_operator_spec_validation():
    with pytest.raises(ValueError):
        IOperatorSpec(N=3, s=2.0)
    with pytest.raises(ValueError):
        IOperatorSpec(N=4, s=1.0)


@settings(max_examples=20, deadline=None)
@given(
    n_exp=st.integers(min_value=0, max_value=5),
    s=st.floats(min_value=1.1, max_value=3.0, allow_nan=False),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_apply_I_round_trip(n_exp, s, seed):
    basis = HermiteBasis(1, 24)
    u = _random_field(basis, seed)
    spec = IOperatorSpec(N=2**n_exp, s=s)
    back = apply_I_inverse(apply_I(u, spec), spec)
    assert_allclose(back.coeffs, u.coeffs, rtol=1e-14, atol=0)


def test_bernstein_identity_word_is_one():
    basis = HermiteBasis(1, 140)
    assert bernstein_ratio(basis, PWord.identity(), 8, trials=3, seed=0) == 1.0


def test_bernstein_grad_ratio_stable_across_N():
    basis = HermiteBasis(1, 600)
    r8 = bernstein_ratio(basis, PWord.grad(1), 8, trials=6, seed=0)
    r16 = bernstein_ratio(basis, PWord.grad(1), 16, trials=6, seed=0)
    assert 0.5 < r8 < 2.5
    assert abs(r16 / r8 - 1.0) < 0.25


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("N", [1, 2, 4, 8])
def test_window_degree_is_the_largest_degree_in_the_window(d, N):
    # every mode with m_j <= N^2, a box past any window mode: N^2/4 < 2|m| + d < 2 N^2
    lsq = eigenvalue_box(d, N * N + 1)
    in_window = (4 * lsq > N * N) & (lsq < 2 * N * N)
    degrees = np.indices(lsq.shape)[:, in_window]
    if degrees.size:
        assert window_degree(N, d) == degrees.max()
    else:  # only Delta_1 at d >= 2 holds no mode
        assert (N, d > 1) == (1, True) and window_degree(N, d) < 0


def test_bernstein_rejects_empty_window():
    basis = HermiteBasis(1, 4)
    with pytest.raises(ValueError):
        bernstein_ratio(basis, PWord.grad(1), 64, trials=2, seed=0)


# ---------------------------------------------------------------------------
# The box-window Bernstein ratio and the buffer-writing letter kernel against
# the full-basis reference they replace
# ---------------------------------------------------------------------------

def _reference_apply_letter(work, letter, axis):
    """The previous letter: a zero-initialised copy per letter, moved to axis 0."""
    w = np.moveaxis(work, axis, 0)
    out = np.zeros_like(w)
    L = w.shape[0]
    n = np.arange(L, dtype=float)
    shape = (-1,) + (1,) * (w.ndim - 1)
    up = np.sqrt((n[:-1] + 1.0) / 2.0).reshape(shape)
    down = np.sqrt(n[1:] / 2.0).reshape(shape)
    out[:-1] += up * w[1:]
    if letter == "GRAD":
        out[1:] -= down * w[:-1]
    else:
        out[1:] += down * w[:-1]
    return np.moveaxis(out, 0, axis)


def _reference_word_padded(work, word):
    for letter, axis in word.letters:
        work = _reference_apply_letter(work, letter, axis - 1)
    return work


def _reference_truncate_with_spill(work, K):
    inner = work[(slice(0, K + 1),) * work.ndim]
    total = float(np.vdot(work, work).real)
    kept = float(np.vdot(inner, inner).real)
    return inner.copy(), math.sqrt(max(total - kept, 0.0))


def _reference_apply_P(u, word):
    if word.order == 0:
        return u.copy(), 0.0
    work = _reference_word_padded(np.pad(u.coeffs, [(0, word.order)] * u.basis.d), word)
    inner, spill = _reference_truncate_with_spill(work, u.basis.K)
    return SpectralField(u.basis, inner), spill


def _reference_commutator_H_P(u, word):
    d, K = u.basis.d, u.basis.K
    work = np.pad(u.coeffs, [(0, max(word.order, 1))] * d)
    grids = np.meshgrid(*[np.arange(work.shape[0])] * d, indexing="ij")
    lam = (2 * sum(grids) + d).astype(np.int64)
    p_of_hu = _reference_word_padded(lam * work, word)
    h_of_pu = lam * _reference_word_padded(work, word)
    inner, spill = _reference_truncate_with_spill(h_of_pu - p_of_hu, K)
    return SpectralField(u.basis, inner), spill


def _reference_bernstein_ratio(basis, word, N, trials, seed):
    """The previous bernstein_ratio: every trial on the full (K+1)^d basis."""
    lsq = basis.lambda_sq
    window = (4 * lsq > N * N) & (lsq < 2 * N * N)
    n_window = int(window.sum())
    flat_idx = np.flatnonzero(window.ravel())
    lam_flat = lsq.ravel()[flat_idx]
    ratios = []
    for trial in range(trials):
        coeffs = np.zeros(basis.shape, dtype=complex)
        if trial == 0:
            coeffs.ravel()[flat_idx[int(np.argmax(lam_flat))]] = 1.0
        elif trial == 1 and n_window > 1:
            coeffs.ravel()[flat_idx[int(np.argmin(lam_flat))]] = 1.0
        else:
            rng = np.random.default_rng(np.random.SeedSequence((seed, N, trial)))
            z = rng.standard_normal(n_window) + 1j * rng.standard_normal(n_window)
            coeffs.ravel()[flat_idx] = z / np.linalg.norm(z)
        u = SpectralField(basis, coeffs)
        if word.order == 0:
            ratios.append(1.0)
            continue
        image, spill = _reference_apply_P(u, word)
        full_norm = math.hypot(image.l2_norm(), spill)
        ratios.append(full_norm / (float(N) ** word.order * u.l2_norm()))
    return max(ratios)


def _words_up_to_order2(d):
    singles = [PWord.grad(ax) for ax in range(1, d + 1)] + [PWord.x(ax) for ax in range(1, d + 1)]
    return [PWord.identity()] + singles + [a.then(b) for a in singles for b in singles]


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("N", [2, 4, 8])
def test_bernstein_box_matches_full_basis_reference(d, N):
    K_N = (2 * N * N - d - 1) // 2  # largest degree of a window mode
    # d = 3, N = 8 runs one seed: each reference call there works on 64^3 arrays
    seeds = (0,) if (d, N) == (3, 8) else (0, 1)
    for K in (max(K_N // 2, 1), K_N + 1):
        basis = HermiteBasis(d, K)
        for word in _words_up_to_order2(d):
            for seed in seeds:
                got = bernstein_ratio(basis, word, N, trials=3, seed=seed)
                want = _reference_bernstein_ratio(basis, word, N, 3, seed)
                assert abs(got - want) <= 4e-15 * want, (K, word, seed)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_apply_P_and_commutator_bitwise_equal_reference(d):
    basis = HermiteBasis(d, 9 if d < 3 else 5)
    u = _random_field(basis, 11 + d)
    # a signed zero next to the lowest degree: the reference's zero-initialised sum
    # turns its product into +0.0 in the lowest-degree entry of the image
    u.coeffs[(1,) * d] = complex(-0.0, 0.5)
    words = _words_up_to_order2(d) + [PWord((("X", 1), ("GRAD", d), ("X", d)))]
    for word in words:
        for fn, ref in ((apply_P, _reference_apply_P),
                        (commutator_H_P, _reference_commutator_H_P)):
            (got, got_spill), (want, want_spill) = fn(u, word), ref(u, word)
            assert got.coeffs.tobytes() == want.coeffs.tobytes(), (fn.__name__, word)
            assert got_spill == want_spill


def _reference_bernstein_box_ratio(basis, word, N, trials, seed):
    """The window-box bernstein_ratio before the draws were shared: every call draws."""
    d = basis.d
    n = min(basis.K, (2 * N * N - d - 1) // 2) + 1
    grids = np.meshgrid(*[np.arange(n)] * d, indexing="ij")
    lsq = (2 * sum(grids) + d).astype(np.int64)
    window = (4 * lsq > N * N) & (lsq < 2 * N * N)
    n_window = int(window.sum())
    if word.order == 0:
        return 1.0
    modes = np.argwhere(window)
    lam = lsq[window]
    work = np.zeros((n + word.order,) * d, dtype=complex)
    out, tmp = np.empty_like(work), np.empty_like(work)
    ratios = []
    for trial in range(trials):
        work.fill(0.0)
        if trial == 0 or (trial == 1 and n_window > 1):
            pick = np.argmax(lam) if trial == 0 else np.argmin(lam)
            work[tuple(modes[pick])] = 1.0
            u_norm = 1.0
        else:
            rng = np.random.default_rng(np.random.SeedSequence((seed, N, trial)))
            z = rng.standard_normal(n_window) + 1j * rng.standard_normal(n_window)
            c = z / np.linalg.norm(z)
            work[(slice(0, n),) * d][window] = c
            u_norm = float(np.linalg.norm(c))
        image = _apply_word(work, word, out, tmp)
        ratios.append(math.sqrt(np.vdot(image, image).real) / (float(N) ** word.order * u_norm))
    return max(ratios)


@pytest.mark.parametrize("d,N", [(d, N) for d in (1, 2, 3) for N in (2, 4, 8) if d + N < 11])
def test_bernstein_shared_draws_give_the_per_word_ratios_bitwise(d, N):
    basis = HermiteBasis(d, (2 * N * N - d - 1) // 2 + 1)
    words = _words_up_to_order2(d)
    draws = bernstein_draws(basis, N, trials=5, seed=17)
    shared = [bernstein_ratio(basis, w, N, 5, 17, draws) for w in words]
    fresh = [bernstein_ratio(basis, w, N, 5, 17) for w in words]
    reference = [_reference_bernstein_box_ratio(basis, w, N, 5, 17) for w in words]
    assert np.array(shared).tobytes() == np.array(fresh).tobytes()
    assert np.array(shared).tobytes() == np.array(reference).tobytes()
    # one call over every word: shuffled, with a duplicate word and an order-3 word
    words += [words[-1], PWord((("X", 1), ("GRAD", d), ("X", d)))]
    words = [words[i] for i in np.random.default_rng(10 * d + N).permutation(len(words))]
    batch = bernstein_ratios(basis, words, N, 5, 17, draws)
    reference = [_reference_bernstein_box_ratio(basis, w, N, 5, 17) for w in words]
    assert np.array(batch).tobytes() == np.array(reference).tobytes()
    with pytest.raises(ValueError, match=f"letter axis {d + 1} of word"):
        bernstein_ratios(basis, words + [PWord.x(1).then(PWord.grad(d + 1))], N, 5, 17, draws)
    window, fields = draws
    for array in [window] + [c for c, _ in fields]:
        with pytest.raises(ValueError):  # read-only: threads share them
            array.flat[0] = 0


def test_bernstein_cell_memory_is_the_window_box():
    basis = HermiteBasis(2, 254)  # the full basis would hold 255^2 coefficients
    word = PWord.grad(1).then(PWord.x(2))
    tracemalloc.start()
    try:
        bernstein_ratio(basis, word, 4, trials=8, seed=3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 256 * 2 ** 10


# ---------------------------------------------------------------------------
# Letter algebra on padded coefficient arrays
# ---------------------------------------------------------------------------

def _letter_image(c, letter, axis):
    """One letter on a copy of `c` through the kernel; the array's extent is kept."""
    out, tmp = np.empty_like(c), np.empty_like(c)
    return _apply_word(c.copy(), PWord(((letter, axis),)), out, tmp)


_padded_arrays = dict(
    d=st.integers(min_value=1, max_value=2),
    L=st.integers(min_value=2, max_value=12),
    axis_pick=st.integers(min_value=0, max_value=1),
    seed=st.integers(min_value=0, max_value=2**31),
)


def _two_padded(d, L, seed):
    """Two random complex arrays of shape (L,)*d, zero in the last layer of every axis,
    so one letter keeps its whole image inside the array."""
    rng = np.random.default_rng(seed)
    arrays = []
    for _ in range(2):
        c = np.zeros((L,) * d, dtype=complex)
        inner = (slice(0, L - 1),) * d
        c[inner] = rng.standard_normal((L - 1,) * d) + 1j * rng.standard_normal((L - 1,) * d)
        arrays.append(c)
    return arrays


@settings(max_examples=40, deadline=None)
@given(**_padded_arrays)
def test_grad_is_anti_adjoint_and_x_self_adjoint(d, L, axis_pick, seed):
    axis = 1 + axis_pick % d
    u, v = _two_padded(d, L, seed)
    for letter, sign in (("GRAD", -1.0), ("X", 1.0)):
        lhs = np.vdot(_letter_image(u, letter, axis), v)
        rhs = sign * np.vdot(u, _letter_image(v, letter, axis))
        scale = max(1.0, np.linalg.norm(_letter_image(u, letter, axis)) * np.linalg.norm(v))
        assert abs(lhs - rhs) <= 1e-13 * scale, letter


@settings(max_examples=40, deadline=None)
@given(**_padded_arrays)
def test_canonical_commutator_away_from_pad_edge(d, L, axis_pick, seed):
    axis = 1 + axis_pick % d
    rng = np.random.default_rng(seed)
    u = rng.standard_normal((L,) * d) + 1j * rng.standard_normal((L,) * d)
    gx = _letter_image(_letter_image(u, "X", axis), "GRAD", axis)
    xg = _letter_image(_letter_image(u, "GRAD", axis), "X", axis)
    # the last layer along the axis lost its neighbour beyond the array
    away = tuple(slice(0, L - 1) if ax == axis - 1 else slice(None) for ax in range(d))
    assert_allclose((gx - xg)[away], u[away], rtol=0, atol=1e-13 * max(1.0, L))
