"""Tests for the splitting integrator and conserved functionals.

The linear flow is diagonal (phases e^{-i t (2|m|+d)}), which gives exact
oracles: periodicity at t = pi up to the global phase e^{-i pi d}, and the
mirror-image revival at t = pi/2.  Energy of the ground state has the
closed form 1/2 + (1/4) (2 pi)^{-1/2}.
"""

import cmath
import math
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from numpy.testing import assert_allclose

from oscillab import (
    HermiteBasis,
    IOperatorSpec,
    SolverConfig,
    SpectralField,
    apply_I,
    energy,
    linear_propagator,
    nonlinear_phase_step,
    run_recorded,
    sobolev_norm,
    strang_step,
)
from oscillab.solver import _THETA_SERIES, _nl_increment, _phase_increment, _Workspace


def _packet(basis, seed=0, scale=0.5):
    rng = np.random.default_rng(seed)
    c = rng.standard_normal(basis.shape) + 1j * rng.standard_normal(basis.shape)
    c *= np.exp(-basis.lambda_sq / 6.0)
    c *= scale / np.linalg.norm(c)
    return SpectralField(basis, c)


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(dt=0.0, T=1.0)
    with pytest.raises(ValueError):
        SolverConfig(dt=0.1, T=-1.0)
    with pytest.raises(ValueError):
        SolverConfig(dt=0.1, T=1.0, record_every=0)


@pytest.mark.parametrize("key", ["dt", "T"])
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
def test_config_refuses_a_non_finite_time_by_name(value, key):
    # refused by name, not later in math.ceil or by a run of no steps
    with pytest.raises(ValueError, match=f"^{key} must be finite"):
        SolverConfig(**{"dt": 0.1, "T": 1.0, key: value})


def test_linear_propagator_mode_phase():
    basis = HermiteBasis(2, 6)
    u = SpectralField.from_mode(basis, (1, 2))
    t = 0.37
    v = linear_propagator(u, t)
    assert v.coeffs[1, 2] == pytest.approx(cmath.exp(-1j * 8 * t), rel=1e-15)


@pytest.mark.parametrize("d", [1, 2])
def test_pi_revival_up_to_global_phase(d):
    basis = HermiteBasis(d, 20)
    u = _packet(basis, seed=3)
    v = linear_propagator(u, math.pi)
    assert_allclose(v.coeffs, cmath.exp(-1j * math.pi * d) * u.coeffs, atol=1e-12)


def test_half_period_mirror_revival():
    # at t = pi/2 every mode picks up (-1)^{|m|} e^{-i pi d / 2}: the mirror image
    basis = HermiteBasis(1, 15)
    u = _packet(basis, seed=4)
    v = linear_propagator(u, math.pi / 2.0)
    signs = (-1.0) ** np.arange(16)
    assert_allclose(v.coeffs, -1j * signs * u.coeffs, atol=1e-12)


def test_ground_state_energy_closed_form():
    basis = HermiteBasis(1, 10)
    u = SpectralField.from_mode(basis, (0,))
    want = 0.5 + 0.25 / math.sqrt(2.0 * math.pi)
    assert energy(u) == pytest.approx(want, rel=1e-13)


def test_energy_quadratic_part_only_for_tiny_amplitude():
    basis = HermiteBasis(1, 8)
    u = SpectralField.from_mode(basis, (2,), amplitude=1e-8)
    # quartic part is O(amp^4), negligible against 1/2 lambda^2 amp^2
    assert energy(u) == pytest.approx(0.5 * 5 * 1e-16, rel=1e-6)


def test_nonlinear_phase_step_preserves_mass():
    basis = HermiteBasis(1, 24)
    u = _packet(basis, seed=5)
    v, defect = nonlinear_phase_step(u, 1e-3)
    assert defect < 1e-10
    assert v.l2_norm() == pytest.approx(u.l2_norm(), rel=1e-10)


def test_nonlinear_phase_step_zero_coupling_noop():
    basis = HermiteBasis(1, 6)
    u = _packet(basis, seed=6)
    v, defect = nonlinear_phase_step(u, 0.5, coupling=0.0)
    assert defect == 0.0
    assert np.array_equal(v.coeffs, u.coeffs)


def _reference_phase_increment(vr, vi, scale, theta, sin, tmp):
    """The two-sin form of the phase factor, kept as it stood before the guarded
    Taylor form: the fallback branch must give its bytes."""
    np.multiply(vr, vr, out=theta)
    np.multiply(vi, vi, out=tmp)
    theta += tmp
    theta *= scale
    np.sin(theta, out=sin)
    theta *= 0.5
    np.sin(theta, out=theta)
    np.square(theta, out=theta)
    theta *= -2.0  # cos(theta) - 1
    np.multiply(sin, vi, out=tmp)
    sin *= vr
    vr *= theta
    vr += tmp
    vi *= theta
    vi -= sin


def _assert_phase_within_4_ulp(theta_wanted, sign=1.0):
    # v = sqrt(|theta|) on the real axis and scale = sign = +-1, so the increment
    # planes are ((cos theta - 1) v, -sin(theta) v); the reference is evaluated at
    # the theta the helper itself forms, sign fl(v^2).  Returns the helper's max
    # |theta|.
    mpmath = pytest.importorskip("mpmath")
    vr = np.sqrt(theta_wanted)
    theta = sign * (vr * vr)
    gr, gi = vr.copy(), np.zeros_like(vr)
    theta_max = _phase_increment(gr, gi, sign, *(np.empty_like(vr) for _ in range(3)))
    assert theta_max == np.abs(theta).max()
    with mpmath.workdps(50):
        for i in range(vr.size):
            th, x = mpmath.mpf(float(theta[i])), mpmath.mpf(float(vr[i]))
            for got, want in ((gr[i], (mpmath.cos(th) - 1) * x), (gi[i], -mpmath.sin(th) * x)):
                want = float(want)
                assert abs(got - want) <= 4 * np.spacing(abs(want)), (theta[i], got, want)
    return theta_max


def test_fused_phase_factor_within_4_ulp():
    # theta up to 1: the two-sin fallback
    assert _assert_phase_within_4_ulp(np.logspace(-12, 0, 241)) > _THETA_SERIES


def test_fallback_phase_factor_within_4_ulp_negative_coupling():
    # theta down to -5 (a focusing coupling): the guard bounds |theta|, so the
    # two-sin fallback, which is exact for either sign
    theta = np.logspace(-12, math.log10(5.0), 241)
    assert _assert_phase_within_4_ulp(theta, sign=-1.0) > _THETA_SERIES


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_series_phase_factor_within_4_ulp(sign):
    # |theta| up to the guard constant itself: the Taylor form
    theta = np.append(np.logspace(-12, math.log10(_THETA_SERIES), 241), _THETA_SERIES)
    assert _assert_phase_within_4_ulp(theta, sign) == _THETA_SERIES


@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("d", [1, 2])
def test_phase_fallback_is_the_two_sin_form_bitwise(d, sign):
    # one |theta| just above the guard constant, of either sign, sends the whole
    # array to the fallback; on the real axis (every other point) the Taylor
    # form's last bit often differs from the two-sin form's
    shape = (33,) * d
    r = np.sqrt(np.logspace(-12, 0, 33**d)).reshape(shape)  # |v|^2 = 1 at the end
    phi = np.random.default_rng(18).uniform(0.0, 2.0 * math.pi, shape)
    phi.flat[1::2] = 0.0
    vr, vi = r * np.cos(phi), r * np.sin(phi)
    vr.flat[-1], vi.flat[-1] = 1.0, 0.0
    scale = sign * np.nextafter(_THETA_SERIES, 1.0)
    got, want = (vr.copy(), vi.copy()), (vr.copy(), vi.copy())
    theta_max = _phase_increment(*got, scale, *(np.empty(shape) for _ in range(3)))
    _reference_phase_increment(*want, scale, *(np.empty(shape) for _ in range(3)))
    assert theta_max == abs(scale) > _THETA_SERIES
    assert got[0].tobytes() == want[0].tobytes()
    assert got[1].tobytes() == want[1].tobytes()


def _increment_peak_bytes(coupling):
    basis = HermiteBasis(2, 64)
    c = _packet(basis, seed=13).coeffs
    work = _Workspace(basis)
    _, theta_max = _nl_increment(c, basis, 1e-4, coupling, work)
    tracemalloc.start()
    try:
        for _ in range(20):
            _nl_increment(c, basis, 1e-4, coupling, work)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return theta_max, peak


def test_nl_increment_allocates_nothing_per_step():
    theta_max, peak = _increment_peak_bytes(1.0)
    assert theta_max <= _THETA_SERIES  # the Taylor form
    assert peak < 16 * 1024


def test_nl_increment_allocates_nothing_per_step_on_fallback():
    theta_max, peak = _increment_peak_bytes(1e4)
    assert theta_max > _THETA_SERIES  # the two-sin form
    assert peak < 16 * 1024


def test_concurrent_runs_on_shared_basis_match_serial():
    basis = HermiteBasis(2, 16)
    data = [_packet(basis, seed=seed, scale=1.0) for seed in (14, 15)]
    cfg = SolverConfig(dt=1e-3, T=0.2, record_every=20)

    def trajectory(u0):
        seen = []
        run_recorded(u0, cfg, lambda t, u: seen.append(u.coeffs))
        return np.stack(seen)

    serial = [trajectory(u0) for u0 in data]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=2) as pool:
            futures = [pool.submit(trajectory, u0) for u0 in data]
            threaded = [f.result(timeout=300) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    for a, b in zip(serial, threaded):
        assert np.array_equal(a, b)


def _global_error(step_fn, u0, dt, T, cfg, reference):
    u = u0
    n = round(T / dt)
    for _ in range(n):
        u, _ = step_fn(u, dt, cfg)
    return float(np.linalg.norm(u.coeffs - reference.coeffs))


def _reference_solution(u0, T, cfg, n=2**14):
    u = u0
    dt = T / n
    for _ in range(n):
        u, _ = strang_step(u, dt, cfg)
    return u


def test_strang_is_second_order():
    # moderate amplitude keeps the dt^2 splitting error above the first-order
    # projection-mismatch floor that dominates at very fine dt
    basis = HermiteBasis(1, 10)
    u0 = _packet(basis, seed=7, scale=0.3)
    cfg = SolverConfig(dt=1.0, T=1.0)
    ref = _reference_solution(u0, 0.5, cfg)
    e1 = _global_error(strang_step, u0, 1.0 / 16.0, 0.5, cfg, ref)
    e2 = _global_error(strang_step, u0, 1.0 / 32.0, 0.5, cfg, ref)
    assert 3.4 < e1 / e2 < 4.7


@pytest.mark.parametrize("T", [0.05, 0.0537])  # 0.0537 ends on a short step of 0.0037
def test_step_wrappers_match_run_recorded_bitwise(T):
    basis = HermiteBasis(2, 8)
    u0 = _packet(basis, seed=16, scale=1.0)
    cfg = SolverConfig(dt=0.01, T=T, record_every=10**9)
    records = []
    diag = run_recorded(u0, cfg, lambda t, u: records.append((t, u.coeffs)))
    u, t, defects = u0, 0.0, []
    for step in range(1, diag["n_steps"] + 1):  # run_recorded's clock, step by step
        dt, t_next = cfg.dt, step * cfg.dt
        if t_next > cfg.T:
            dt, t_next = cfg.T - t, cfg.T
        u, defect = strang_step(u, dt, cfg)
        defects.append(defect)
        t = t_next
    assert diag["n_steps"] == math.ceil(T / cfg.dt - 1e-12)
    assert records[-1][0] == t == T
    assert records[-1][1].tobytes() == u.coeffs.tobytes()
    assert diag["max_step_defect"] == max(defects)


def test_step_wrappers_with_zero_coupling_are_the_linear_substeps():
    basis = HermiteBasis(2, 6)
    u0 = _packet(basis, seed=17)
    cfg = SolverConfig(dt=0.03, T=1.0, coupling=0.0)
    half = np.exp(-1j * basis.lambda_sq * (0.5 * cfg.dt))
    u, defect = strang_step(u0, cfg.dt, cfg)
    assert defect == 0.0
    assert u.coeffs.tobytes() == (u0.coeffs * half * half).tobytes()
    assert "rule" not in vars(basis)  # no workspace, so the grid is never built


@pytest.mark.parametrize("coupling", [0.0, 3.0, -2.0])
def test_recorded_energy_is_the_energy_of_its_coupling(coupling):
    # E_g = quadratic part + g/4 quartic part is what the flow of coupling g conserves;
    # the coupling-1 energy drifts along that flow by the O(1e-3) quartic change
    basis = HermiteBasis(2, 12)
    u0 = _packet(basis, seed=11, scale=0.8)
    quad, quart = energy(u0, 0.0), energy(u0, 1.0) - energy(u0, 0.0)
    assert energy(u0, coupling) == pytest.approx(quad + coupling * quart, rel=1e-14)
    cfg = SolverConfig(dt=0.005, T=0.5, record_every=20, coupling=coupling)
    spec = IOperatorSpec(N=2, s=1.5)
    e, e_mod, e1 = [], [], []

    def on_record(t, u):
        e.append(energy(u, coupling))
        e_mod.append(energy(apply_I(u, spec), coupling))
        e1.append(energy(u))

    run_recorded(u0, cfg, on_record)
    assert e[0] == energy(u0, coupling)
    assert max(abs(v - e[0]) for v in e) < 2e-5  # splitting error
    assert max(abs(v - e_mod[0]) for v in e_mod) > 0.0
    assert max(abs(v - e1[0]) for v in e1) > 1e-3


def test_run_recorded_linear_branch_exact():
    basis = HermiteBasis(1, 12)
    u0 = _packet(basis, seed=9)
    cfg = SolverConfig(dt=0.01, T=0.3, record_every=10, coupling=0.0)
    seen = []
    diag = run_recorded(u0, cfg, lambda t, u: seen.append((t, u)))
    telemetry = {k: diag.pop(k) for k in ("drive_s", "steps_per_s")}
    assert diag == {"n_steps": 30, "max_step_defect": 0.0, "tainted": False, "max_theta": 0.0}
    assert telemetry["drive_s"] > 0.0
    assert telemetry["steps_per_s"] == 30 / telemetry["drive_s"]
    times = [t for t, _ in seen]
    assert times[0] == 0.0 and times[-1] == pytest.approx(0.3)
    for t, u_t in seen:
        assert_allclose(u_t.coeffs, linear_propagator(u0, t).coeffs, atol=1e-15)


def test_run_recorded_cadence_and_endpoint():
    basis = HermiteBasis(1, 10)
    u0 = _packet(basis, seed=10)
    cfg = SolverConfig(dt=0.01, T=0.25, record_every=7)
    times = []
    diag = run_recorded(u0, cfg, lambda t, u: times.append(t))
    assert diag["n_steps"] == 25
    assert times[0] == 0.0
    assert times[-1] == pytest.approx(0.25)
    assert times[1] == pytest.approx(0.07)
    assert not diag["tainted"]
    assert diag["max_theta"] > 0.0


@pytest.mark.parametrize("coupling", [0.0, 1.0])
def test_run_recorded_records_T_however_small(coupling):
    # T / dt = 2e-13 rounds to no step; both branches must still record t = T
    basis = HermiteBasis(1, 8)
    u0 = _packet(basis, seed=19)
    cfg = SolverConfig(dt=0.005, T=1e-15, coupling=coupling)
    times = []
    diag = run_recorded(u0, cfg, lambda t, u: times.append(t))
    assert times == [0.0, 1e-15]
    assert diag["n_steps"] == 1
    assert not diag["tainted"]


def test_run_recorded_conserves_mass():
    basis = HermiteBasis(2, 12)
    u0 = _packet(basis, seed=11)
    cfg = SolverConfig(dt=0.005, T=0.5, record_every=20)
    records = []

    def on_record(t, u):
        mass = float(np.vdot(u.coeffs, u.coeffs).real)
        records.append((mass, energy(u), {s: sobolev_norm(u, s) for s in (1.0, 2.0)}))

    diag = run_recorded(u0, cfg, on_record)
    assert not diag["tainted"]
    m0 = records[0][0]
    for mass, _, hs_norms in records:
        assert mass == pytest.approx(m0, rel=2e-7)
        assert 0.0 < hs_norms[1.0] < hs_norms[2.0]
    # energy drift at this dt stays small but nonzero
    drift = abs(records[-1][1] - records[0][1])
    assert drift < 1e-6


def test_strang_energy_drift_shrinks_fourfold():
    basis = HermiteBasis(1, 16)
    rng = np.random.default_rng(12)
    c = rng.standard_normal(basis.shape) + 1j * rng.standard_normal(basis.shape)
    c *= np.exp(-basis.lambda_sq / 3.0)
    c *= 0.4 / np.linalg.norm(c)
    u0 = SpectralField(basis, c)

    def drift(dt):
        cfg = SolverConfig(dt=dt, T=1.0, record_every=10**9)
        e = []
        run_recorded(u0, cfg, lambda t, u: e.append(energy(u)))
        return abs(e[-1] - e[0])

    ratio = drift(0.04) / drift(0.02)
    assert 3.2 < ratio < 4.8
