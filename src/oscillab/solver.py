"""Split-step integrators for i u_t = H u + g |u|^2 u on the Hermite basis.

The linear flow is diagonal (coefficient m picks up e^{-i (2|m|+d) t}), so linear
propagation is exact.  The nonlinear substep is evaluated in increment form

    v = synthesize(c);   theta = dt g |v|^2;   c <- c + Proj[(e^{-i theta} - 1) v]

with the raw dual (Galerkin) projection, which integrates the O(dt) cubic term
exactly on the built-in rule.  The phase factor e^{-i theta} - 1 =
(cos theta - 1) - i sin theta is formed in one of two ways, chosen per step by one
max over the grid.  When every |theta| is at most _THETA_SERIES = 2^-10 (every preset
stays below it) it is a short even/odd Taylor form with no transcendental call,
exact to roundoff there.  Otherwise it is -2 sin^2(theta/2) - i sin(theta): two sin
calls, without the cancellation of cos(theta) - 1 at small theta.  The largest
|theta| of a run is reported as its max_theta, which tells which form it took.
The whole substep runs on real planes (real and imaginary parts, see
hermite._contract_planes) in buffers of a workspace that each run owns: two real
GEMMs per axis, the phase in place, and no allocation per step.  Two consequences
worth noting:

* with g = 0 the grid is never touched, so the splitting reproduces the exact
  linear flow bit for bit;
* the only mass defect per step is the O(dt^2) projection loss of the phase
  factor's higher terms.  The per-step relative defect is tracked and the run is
  flagged (tainted) when it exceeds SPILL_TOL.

One step body, _step, applies a Strang or Lie step in place; run_recorded drives it
with a workspace and phase array built once per run, and strang_step and lie_step
are one-step wrappers around it.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .hermite import HermiteBasis, SpectralField, _contract_planes, _pass_buffers, synthesize
from .operators import IOperatorSpec, apply_I, sobolev_norm

__all__ = [
    "SolverConfig",
    "EnergyReport",
    "linear_propagator",
    "nonlinear_phase_step",
    "strang_step",
    "lie_step",
    "evolve",
    "run_recorded",
    "energy",
    "modified_energy",
]

# each scheme's linear substep, as a fraction of dt: L(dt/2) N(dt) L(dt/2) or N(dt) L(dt)
_SCHEMES = {"strang": 0.5, "lie": 1.0}
SPILL_TOL = 1e-8  # largest relative mass defect per step of an untainted run
# largest |theta| of the phase's Taylor form: its first dropped terms, theta^7/5040 and
# theta^8/40320, stay below 2^-53 relative to sin and cos - 1 (2e-22 and 4e-23 here)
_THETA_SERIES = 2.0 ** -10


@dataclass(frozen=True)
class SolverConfig:
    dt: float
    T: float
    scheme: str = "strang"
    record_every: int = 10
    coupling: float = 1.0

    def __post_init__(self):
        if not self.dt > 0:
            raise ValueError("dt must be > 0")
        if self.T < 0:
            raise ValueError("T must be >= 0")
        if self.scheme not in _SCHEMES:
            raise ValueError(f"scheme must be one of {tuple(_SCHEMES)}, got {self.scheme!r}")
        if self.record_every < 1:
            raise ValueError("record_every must be >= 1")


@dataclass
class EnergyReport:
    t: float
    mass: float
    energy: float
    modified_energy: float
    hs_norms: dict = field(default_factory=dict)


def _phases(lam: np.ndarray, t: float) -> np.ndarray:
    """The linear flow's factors e^{-i lam t} for the eigenvalues lam."""
    return np.exp(-1j * lam * t)


def linear_propagator(u: SpectralField, t: float) -> SpectralField:
    """Exact flow of i u_t = H u for time t."""
    return SpectralField(u.basis, u.coeffs * _phases(u.basis.lambda_sq, float(t)))


class _Workspace:
    """Every buffer of one nonlinear increment on a basis, as real planes.

    One run owns one workspace, so concurrent runs on a shared basis never write
    into the same buffers.
    """

    def __init__(self, basis: HermiteBasis):
        d, n, Q = basis.d, basis.K + 1, basis.rule.size
        self.coef = np.empty((2,) + basis.shape)
        self.synth = _pass_buffers(d, n, Q)  # synth[-1]: grid planes
        self.proj = _pass_buffers(d, Q, n)  # proj[-1]: increment planes
        self.theta = np.empty((Q,) * d)
        self.sin = np.empty((Q,) * d)
        self.tmp = np.empty((Q,) * d)


def _phase_increment(vr, vi, scale: float, theta, sin, tmp) -> float:
    """Overwrite the planes (vr, vi) of v with those of (e^{-i theta} - 1) v,
    theta = scale |v|^2; returns the largest |theta|.

    When that max is at most _THETA_SERIES the factor is the Taylor form
    sin theta = theta - theta^3/6 + theta^5/120 and
    cos theta - 1 = theta^2 (-1/2 + theta^2/24 - theta^4/720), with no
    transcendental call; the first dropped terms are below 2^-53 relative.
    Otherwise it is -2 sin^2(theta/2) - i sin(theta), which has no cancellation in
    cos(theta) - 1 at small theta.  theta, sin and tmp are scratch arrays of the
    planes' shape.
    """
    np.multiply(vr, vr, out=theta)
    np.multiply(vi, vi, out=tmp)
    theta += tmp
    # the guard bounds |theta|, for either sign of the coupling; with scale > 0
    # it equals fl(theta).max() bit for bit, since rounding is monotone
    theta_max = abs(scale) * float(theta.max())
    theta *= scale
    if theta_max <= _THETA_SERIES:
        np.square(theta, out=tmp)
        np.multiply(tmp, 1.0 / 120.0, out=sin)
        sin -= 1.0 / 6.0
        sin *= tmp
        sin *= theta
        sin += theta
        np.multiply(tmp, -1.0 / 720.0, out=theta)
        theta += 1.0 / 24.0
        theta *= tmp
        theta -= 0.5
        theta *= tmp  # cos(theta) - 1
    else:
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
    return theta_max


def _nl_increment(coeffs: np.ndarray, basis: HermiteBasis, dt: float, coupling: float,
                  work: _Workspace) -> tuple[float, float]:
    """In-place nonlinear phase increment c += Proj[(e^{-i theta} - 1) v], computed
    in the buffers of `work`; returns (relative mass defect, largest |theta|)."""
    np.copyto(work.coef[0], coeffs.real)
    np.copyto(work.coef[1], coeffs.imag)
    v = _contract_planes(work.coef, basis._synthesis_matrix, work.synth)
    theta_max = _phase_increment(v[0], v[1], dt * coupling, work.theta, work.sin, work.tmp)
    inc = _contract_planes(v, basis._dual_matrix, work.proj)
    before = float(np.vdot(coeffs, coeffs).real)
    re, im = coeffs.real, coeffs.imag
    np.add(re, inc[0], out=re)
    np.add(im, inc[1], out=im)
    after = float(np.vdot(coeffs, coeffs).real)
    return abs(after - before) / max(before, 1e-300), theta_max


def nonlinear_phase_step(u: SpectralField, dt: float, coupling: float = 1.0) -> tuple[SpectralField, float]:
    """Exact-in-phase nonlinear substep v -> v e^{-i dt g |v|^2}, projected back.

    Returns (new field, relative mass defect of the projection).  coupling = 0 is
    an exact no-op (the grid is not touched).
    """
    if coupling == 0.0:
        return u.copy(), 0.0
    c = u.coeffs.copy()
    defect, _ = _nl_increment(c, u.basis, dt, coupling, _Workspace(u.basis))
    return SpectralField(u.basis, c), defect


def _step(c: np.ndarray, basis: HermiteBasis, scheme: str, phases: np.ndarray, dt: float,
          coupling: float, work: _Workspace | None) -> tuple[float, float]:
    """One step of `scheme` on the coefficients c, in place, given the factors of its
    linear substep, phases = _phases(lam, _SCHEMES[scheme] * dt); returns (relative
    mass defect, largest |theta|).  coupling = 0 skips the nonlinear substep and needs
    no workspace."""
    c *= phases
    out = _nl_increment(c, basis, dt, coupling, work) if coupling != 0.0 else (0.0, 0.0)
    if scheme == "strang":
        c *= phases
    return out


def _one_step(u: SpectralField, dt: float, scheme: str, coupling: float) -> tuple[SpectralField, float]:
    c = u.coeffs.copy()
    work = _Workspace(u.basis) if coupling != 0.0 else None
    phases = _phases(u.basis.lambda_sq, _SCHEMES[scheme] * dt)
    defect, _ = _step(c, u.basis, scheme, phases, dt, coupling, work)
    return SpectralField(u.basis, c), defect


def strang_step(u: SpectralField, dt: float, cfg: SolverConfig) -> tuple[SpectralField, float]:
    """One symmetric step L(dt/2) N(dt) L(dt/2)."""
    return _one_step(u, dt, "strang", cfg.coupling)


def lie_step(u: SpectralField, dt: float, cfg: SolverConfig) -> tuple[SpectralField, float]:
    """One first-order step N(dt) L(dt)."""
    return _one_step(u, dt, "lie", cfg.coupling)


def energy(u: SpectralField, coupling: float = 1.0) -> float:
    """E(u) = 1/2 (||grad u||^2 + ||x u||^2) + g/4 ||u||_{L^4}^4, conserved by the flow
    of coupling g.

    The quadratic part is 1/2 <H u, u> = 1/2 sum (2|m|+d) |c_m|^2 (exact identity);
    the quartic part is integrated exactly on the basis rule.
    """
    lam = u.basis.lambda_sq
    quad = 0.5 * float(np.sum(lam * (u.coeffs.real ** 2 + u.coeffs.imag ** 2)))
    v = synthesize(u)
    quart = float(u.basis.rule.integrate((v.real ** 2 + v.imag ** 2) ** 2).real)
    return quad + 0.25 * coupling * quart


def modified_energy(u: SpectralField, spec: IOperatorSpec | None, coupling: float = 1.0) -> float:
    """E(I u): the I-operator-dressed energy functional (spec = None means I = Id)."""
    return energy(u if spec is None else apply_I(u, spec), coupling)


def _report(u: SpectralField, t: float, ispec, s_values, coupling: float) -> EnergyReport:
    mass = float(np.vdot(u.coeffs, u.coeffs).real)
    e = energy(u, coupling)
    me = modified_energy(u, ispec, coupling) if ispec is not None else e
    hs = {float(s): sobolev_norm(u, float(s)) for s in s_values}
    return EnergyReport(t=t, mass=mass, energy=e, modified_energy=me, hs_norms=hs)


def run_recorded(u0: SpectralField, cfg: SolverConfig, on_record) -> dict:
    """Drive the configured scheme, invoking on_record(t, field) at t = 0, every
    cfg.record_every steps, and at t = T.  Returns the run diagnostics:
    n_steps, max_step_defect, tainted, and the telemetry drive_s (seconds spent in
    the stepping loop, records included), steps_per_s = n_steps / drive_s and
    max_theta, the largest nonlinear phase |dt g| |v|^2 of the run (it tells which
    form of the phase factor the steps took, see _phase_increment).

    With coupling = 0 the exact diagonal propagator is evaluated directly at the
    record times (no stepping, no grid), so the linear flow is reproduced exactly;
    drive_s then times those evaluations.
    """
    basis = u0.basis
    n_steps = max(int(math.ceil(cfg.T / cfg.dt - 1e-12)), 0)
    if cfg.coupling == 0.0:
        record_times = [0.0]
        record_times += [s * cfg.dt for s in range(cfg.record_every, n_steps, cfg.record_every)]
        if cfg.T > 0:
            record_times.append(cfg.T)
        t0 = time.perf_counter()
        for t_rec in record_times:
            on_record(t_rec, linear_propagator(u0, t_rec))
        return _diagnostics(n_steps, 0.0, False, time.perf_counter() - t0, 0.0)
    c = u0.coeffs.copy()
    on_record(0.0, SpectralField(basis, c.copy()))
    work = _Workspace(basis)
    max_defect = max_theta = 0.0
    t = 0.0
    phases = _phases(basis.lambda_sq, _SCHEMES[cfg.scheme] * cfg.dt)
    t0 = time.perf_counter()
    for step in range(1, n_steps + 1):
        dt = cfg.dt
        t_next = step * cfg.dt
        if t_next > cfg.T:  # the short last step
            dt = cfg.T - t
            t_next = cfg.T
            phases = _phases(basis.lambda_sq, _SCHEMES[cfg.scheme] * dt)
        defect, theta = _step(c, basis, cfg.scheme, phases, dt, cfg.coupling, work)
        max_defect = max(max_defect, defect)
        max_theta = max(max_theta, theta)
        t = t_next
        if step % cfg.record_every == 0 or step == n_steps:
            on_record(t, SpectralField(basis, c.copy()))
    drive_s = time.perf_counter() - t0
    return _diagnostics(n_steps, max_defect, bool(max_defect > SPILL_TOL), drive_s, max_theta)


def _diagnostics(n_steps: int, max_defect: float, tainted: bool, drive_s: float,
                 max_theta: float) -> dict:
    return {
        "n_steps": n_steps,
        "max_step_defect": max_defect,
        "tainted": tainted,
        "drive_s": drive_s,
        "steps_per_s": n_steps / drive_s if drive_s > 0 else 0.0,
        "max_theta": max_theta,
    }


def evolve(
    u0: SpectralField,
    cfg: SolverConfig,
    ispec: IOperatorSpec | None = None,
    s_values=(1.0,),
) -> tuple[list[EnergyReport], dict]:
    """Integrate to T, recording every cfg.record_every steps (plus t = 0 and t = T).

    Returns (reports, diagnostics) with the diagnostics of run_recorded.
    """
    reports: list[EnergyReport] = []

    def on_record(t, u_t):
        reports.append(_report(u_t, t, ispec, s_values, cfg.coupling))

    diagnostics = run_recorded(u0, cfg, on_record)
    return reports, diagnostics
