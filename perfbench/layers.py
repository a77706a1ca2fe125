"""Spans and per-layer probes of the traced run.

The layers are oscillab's modules: hermite, operators, solver, lab and cli.
Spans are recorded only from the benchmark's own code: around the set-up steps,
around each call the benchmark makes into a module, and -- while a traced pass
runs -- around each call `oscillab.cli` makes into the other modules, by
wrapping the names `cli` imported from them.  The program's source is not
changed.  Spans stay in memory and are written once, when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import math
import statistics
import time

import numpy as np

from oscillab import cli, hermite, lab, operators, solver
from oscillab.hermite import HermiteBasis, SpectralField
from oscillab.operators import IOperatorSpec, PWord
from oscillab.solver import SolverConfig

#: Table functions that HermiteBasis calls lazily, inside the experiments.
_TABLE_FUNCTIONS = ("gauss_hermite_rule", "hermite_values_1d")


class Tracer:
    """Span recorder: name, start, end and parent span, kept in memory."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        rec = {"id": len(self.spans), "name": name,
               "parent": self._stack[-1] if self._stack else None,
               "start": time.perf_counter(), "end": None}
        if self.enabled:
            self.spans.append(rec)
            self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            if self.enabled:
                self._stack.pop()

    def wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def self_time(self, span: dict) -> float:
        """Duration minus the time its direct children cover (one thread, so they
        never overlap)."""
        children = sum(s["end"] - s["start"] for s in self.spans if s["parent"] == span["id"])
        return span["end"] - span["start"] - children

    def dump(self, path, header: dict) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump({**header, "spans": self.spans}, f)
            f.write("\n")


@contextlib.contextmanager
def instrumented(tracer: Tracer):
    """Give every call from `oscillab.cli` into lab, solver, operators and hermite,
    and every lazy table build, a span of its own while the block runs."""
    targets = [
        (cli, name, fn) for name, fn in vars(cli).items()
        if inspect.isfunction(fn) and fn.__module__.startswith("oscillab.")
        and fn.__module__ != cli.__name__
    ]
    targets += [(hermite, name, getattr(hermite, name)) for name in _TABLE_FUNCTIONS]
    for module, name, fn in targets:
        setattr(module, name, tracer.wrap(fn, f"{fn.__module__.rsplit('.', 1)[1]}.{name}"))
    try:
        yield
    finally:
        for module, name, fn in targets:
            setattr(module, name, fn)


def build_setup(setup, tracer: Tracer) -> tuple[dict, float, float]:
    """Build the workload's bases as its experiments do: Gauss rule, value table and,
    for the solver, the dual matrix.  Returns (bases, rule seconds, values seconds)."""
    bases, rule_s, values_s = {}, 0.0, 0.0
    for d, K, with_dual in setup:
        basis = HermiteBasis(d, K)
        with tracer.span("hermite.rule") as rec:
            basis.rule
        rule_s += rec["end"] - rec["start"]
        with tracer.span("hermite.values") as rec:
            basis.values
        values_s += rec["end"] - rec["start"]
        if with_dual:
            with tracer.span("hermite.dual"):  # the first projection builds it
                hermite.galerkin_project(np.zeros((basis.rule.size,) * d), basis)
        bases[(d, K)] = basis
    return bases, rule_s, values_s


def table_mib(bases: dict, setup) -> float:
    """Bytes of the rule, value table and dual matrix, from their shapes, in MiB."""
    total = 0
    for d, K, with_dual in setup:
        basis = bases[(d, K)]
        Q = basis.rule.size
        total += 8 * (2 * Q + (basis.K_eval + 1) * Q + (K + 1) * Q * with_dual)
    return total / 2 ** 20


def transform_flops(d: int, K: int) -> int:
    """Real flops of one synthesize plus one projection as dense per-axis
    contractions: pass j of synthesis costs Q^j (K+1)^(d+1-j) multiply-adds of a
    real table entry with a complex value (4 flops), and projection the same."""
    n, Q = K + 1, 2 * K + 2
    return 8 * sum(Q ** j * n ** (d + 1 - j) for j in range(1, d + 1))


def _timed(tracer: Tracer, name: str, fn, min_calls=5, budget_s=0.25, max_calls=400) -> float:
    """Median seconds per call, after one untimed warm-up call."""
    fn()
    durations = []
    stop = time.perf_counter() + budget_s
    while len(durations) < min_calls or (time.perf_counter() < stop and len(durations) < max_calls):
        with tracer.span(name) as rec:
            fn()
        durations.append(rec["end"] - rec["start"])
    return statistics.median(durations)


def _probe_field(basis: HermiteBasis, seed: int) -> SpectralField:
    """Unit-norm complex field with coefficients decaying in the degree."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, 7)))
    deg = (basis.lambda_sq - basis.d) // 2
    c = (rng.standard_normal(basis.shape) + 1j * rng.standard_normal(basis.shape))
    c *= np.exp(-deg / 6.0)
    return SpectralField(basis, c / np.linalg.norm(c))


def _window_field(basis: HermiteBasis, N: int, seed: int) -> SpectralField:
    rng = np.random.default_rng(np.random.SeedSequence((seed, 8)))
    lsq = basis.lambda_sq
    window = (4 * lsq > N * N) & (lsq < 2 * N * N)
    c = np.zeros(basis.shape, dtype=complex)
    c[window] = rng.standard_normal(int(window.sum())) + 1j * rng.standard_normal(int(window.sum()))
    return SpectralField(basis, c / np.linalg.norm(c))


_QUAD_MODES = ((5, 0), (0, 3), (2, 2), (0, 0))  # every field basis is two-dimensional
_WORD2 = PWord((("GRAD", 1), ("X", 1)))  # order 2, on an axis every dimension has


def probe(wl, bases: dict, seed: int, tracer: Tracer) -> dict:
    """Median seconds per call of each layer's public functions at the workload's
    shapes; all calls run inside spans."""
    m = {}
    d, K = wl.field
    basis = bases.get((d, K)) or HermiteBasis(d, K)
    u = _probe_field(basis, seed)
    grid = hermite.synthesize(u)
    m["hermite.synthesize_s"] = _timed(tracer, "hermite.synthesize", lambda: hermite.synthesize(u))
    m["hermite.project_s"] = _timed(
        tracer, "hermite.galerkin_project", lambda: hermite.galerkin_project(grid, basis))
    m["hermite.transform_gflop_per_s"] = (
        transform_flops(d, K) / (m["hermite.synthesize_s"] + m["hermite.project_s"]) / 1e9)

    cfg = SolverConfig(dt=wl.dt, T=wl.dt)
    m["solver.strang_step_s"] = _timed(
        tracer, "solver.strang_step", lambda: solver.strang_step(u, wl.dt, cfg))
    phase = _timed(tracer, "solver.nonlinear_phase_step",
                   lambda: solver.nonlinear_phase_step(u, wl.dt))
    m["solver.phase_self_s"] = phase - m["hermite.synthesize_s"] - m["hermite.project_s"]
    m["solver.energy_s"] = _timed(tracer, "solver.energy", lambda: solver.energy(u))
    m["solver.linear_propagator_s"] = _timed(
        tracer, "solver.linear_propagator", lambda: solver.linear_propagator(u, 0.37))

    dL, KL, NL = wl.ladder
    ladder_basis = bases.get((dL, KL)) or HermiteBasis(dL, KL)
    w = _window_field(ladder_basis, NL, seed)
    m["operators.apply_P_s"] = _timed(tracer, "operators.apply_P", lambda: operators.apply_P(w, _WORD2))
    m["operators.bernstein_ratio_s"] = _timed(
        tracer, "operators.bernstein_ratio",
        lambda: operators.bernstein_ratio(ladder_basis, _WORD2, NL, 8, seed), min_calls=3)
    m["operators.sobolev_norm_s"] = _timed(
        tracer, "operators.sobolev_norm", lambda: operators.sobolev_norm(u, 2.0))
    lam = np.sqrt(basis.lambda_sq.astype(float))
    spec = IOperatorSpec(N=8, s=1.5)
    m["operators.i_multiplier_s"] = _timed(
        tracer, "operators.i_multiplier", lambda: operators.i_multiplier(spec, lam))

    N, M = wl.bilinear
    Kb = lab.bilinear_min_K(N)
    axis_basis = bases.get((1, Kb)) or HermiteBasis(1, Kb)
    ident = PWord.identity()
    m["lab.bilinear_trial_s"] = _timed(
        tracer, "lab.derivative_bilinear_ratio",
        lambda: lab.derivative_bilinear_ratio(axis_basis, 2, ident, ident, N, M, math.pi, 1, seed),
        min_calls=3)
    qt = lab.QuadTuple.from_modes(basis, *_QUAD_MODES)
    m["lab.quad_L0_s"] = _timed(tracer, "lab.quad_L0", lambda: lab.quad_L0(qt))
    m["lab.quad_L1_s"] = _timed(tracer, "lab.quad_L1_plus_weight", lambda: lab.quad_L1_plus_weight(qt))
    m["lab.identity_scan_s"] = _timed(
        tracer, "lab.identity_residual_scan_1d", lambda: lab.identity_residual_scan_1d(16),
        min_calls=3)
    return m
