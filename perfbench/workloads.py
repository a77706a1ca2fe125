"""The benchmark workloads and the independent checks of their outputs.

A workload is one or more parts -- each a fixed list of `oscillab.cli.run`
configurations (one pass each) with the checks of their outputs and the Hermite
bases their experiments build lazily before the first step or trial (the set-up) --
and the shapes at which the traced run probes each layer.
Every check reads a pass's `results.csv` and `manifest.json` and compares them
with a reference computed here, without the program's own summary code: closed
forms, exact symmetries, bands from the paper's scaling laws, and least-squares
fits redone with numpy.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
from dataclasses import dataclass, field
from decimal import Decimal
from pathlib import Path
from typing import Callable

import numpy as np

from oscillab import solver
from oscillab.hermite import HermiteBasis, SpectralField
from oscillab.lab import bilinear_min_K

#: Seed of the sampled d = 2 identity tuples.  It is fixed, not taken from
#: --seed: with it, 140 of the 512 tuples fail (the parity fault of
#: `_folded_rule_sum`), and the failed share must be the same in every run.
IDENTITY_D2_SEED = 20260814

#: Tolerance of the quadrilinear identity residual (acceptance criterion 01).
IDENTITY_TOL = 1e-8

#: A sampled tuple may fail the identity only as the known fault: its exact L0 is
#: zero by the parity of one axis, or so small that the relative residual
#: measures roundoff.  At seed 20260814 the failing tuples have |L0| <= 3.6e-12.
KNOWN_FAULT_L0 = 1e-10

#: Largest allowed |L0 - exact L0| of a sampled tuple (about 3e-18 is seen).
L0_ABS_TOL = 1e-14

H0_QUARTIC_1D = (2.0 * math.pi) ** -0.5  # int h_0^4 dx on the real line


@dataclass
class Output:
    """What one pass through cli.run left behind."""

    config: dict
    rc: int | None
    error: str | None
    csv: bytes
    cols: dict  # column name -> list of cell strings
    manifest: dict


def read_output(config: dict, rc, error, out_dir: Path) -> Output:
    csv_path, man_path = out_dir / "results.csv", out_dir / "manifest.json"
    data = csv_path.read_bytes() if csv_path.is_file() else b""
    cols: dict = {}
    if data:
        table = list(csv.reader(io.StringIO(data.decode("utf-8"))))
        cols = {name: list(col) for name, col in zip(table[0], zip(*table[1:]))}
    manifest = json.loads(man_path.read_text("utf-8")) if man_path.is_file() else {}
    return Output(config, rc, error, data, cols, manifest)


@dataclass(frozen=True)
class Check:
    """One checked property.  `fn(outputs, ctx)` returns (failed ops, detail);
    a check covers `count` operations and fails as many as it reports."""

    name: str
    fn: Callable
    count: int = 1
    known_fault: bool = False


@dataclass
class Context:
    """What the checks need besides the outputs.  Only the set-up's rules are kept,
    not its value tables, so that the run's peak memory is the program's own."""

    seed: int
    rules: dict  # (d, K) -> QuadratureRule of each basis built in the set-up
    energy_basis: HermiteBasis = field(default_factory=lambda: HermiteBasis(2, 64))


@dataclass(frozen=True)
class Part:
    """Passes whose outputs are checked together; each check sees only these."""

    name: str
    configs: tuple  # cli config dicts; "seed" is filled in from --seed unless fixed
    setup: tuple  # (d, K, with dual matrix) of every basis the experiments build
    checks: tuple


@dataclass(frozen=True)
class Workload:
    name: str
    parts: tuple
    field: tuple  # (d, K): basis of the transform, solver and operator probes
    ladder: tuple  # (d, K, N): basis and window of the ladder-word probes
    bilinear: tuple  # (N, M) of the one-trial bilinear probe
    dt: float  # step of the solver probes

    @property
    def configs(self) -> tuple:
        return tuple(c for part in self.parts for c in part.configs)

    @property
    def setup(self) -> tuple:
        return tuple(s for part in self.parts for s in part.setup)

    @property
    def steps(self) -> int:
        """Nonlinear Strang steps per round."""
        return sum(n_steps(c) for c in self.configs
                   if c["experiment"] in ("energy_increment", "norm_growth"))

    @property
    def trials(self) -> int:
        """Bilinear packet-pair trials per round."""
        return sum(c["trials"] * len(c["N_list"]) * len(c["M_list"])
                   for c in self.configs if c["experiment"] == "bilinear")


def config_text(config: dict, seed: int) -> str:
    return json.dumps({"seed": seed, **config}, sort_keys=True)


def n_steps(config: dict) -> int:
    """ceil(T / dt) in decimal arithmetic, independent of the solver's float rounding."""
    return math.ceil(Decimal(repr(config["T"])) / Decimal(repr(config["dt"])))


def _ok(cond, detail: str) -> tuple[int, str]:
    return (0 if cond else 1), detail


def _f(out: Output, col: str) -> np.ndarray:
    return np.array([float(v) for v in out.cols[col]])


def _loglog_slope(x, y) -> float:
    """Least-squares slope of log|y| against log x, exact zeros dropped."""
    x, y = np.asarray(x, dtype=float), np.abs(np.asarray(y, dtype=float))
    keep = y != 0.0
    return float(np.polyfit(np.log(x[keep]), np.log(y[keep]), 1)[0])


def _same(a: float, b: float, tol: float = 1e-9) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


# --------------------------------------------------------------------------
# Checks every pass gets
# --------------------------------------------------------------------------

def check_exit(out: Output) -> tuple[int, str]:
    taint = out.manifest.get("taint", {})
    return _ok(out.rc == 0 and taint.get("tainted") is False,
               f"rc={out.rc} taint={taint} error={out.error}")


def check_deterministic(digest: str, other: str) -> tuple[int, str]:
    """Two passes of one configuration wrote the same results.csv (sha256 digests)."""
    return _ok(bool(digest) and digest == other, f"results.csv sha256 {digest[:16]} vs {other[:16]}")


# --------------------------------------------------------------------------
# increment part (increment-d2)
# --------------------------------------------------------------------------

def _increments(outs):
    out = outs[0]
    N = _f(out, "N")
    order = np.argsort(N)
    return N[order], _f(out, "sup_increment")[order]


def _inc_alpha(outs, ctx):
    N, inc = _increments(outs)
    alpha = -_loglog_slope(N, inc)
    return _ok(alpha >= 0.8, f"alpha {alpha:.4f} >= 0.8")


def _inc_summary(outs, ctx):
    N, inc = _increments(outs)
    s = outs[0].manifest["summary"]
    alpha = -_loglog_slope(N, inc)
    same = all(s["increments"][str(int(n))] == v for n, v in zip(N, inc))
    return _ok(same and _same(s["alpha"], alpha),
               f"manifest alpha {s['alpha']!r} vs refit {alpha!r}; increments equal: {same}")


def _solver_steps(outs, ctx):
    out = outs[0]
    summary = out.manifest["summary"]
    diag = summary.get("diagnostics") or summary["diagnostics_nonlinear"]
    want = n_steps(out.config)
    return _ok(diag["n_steps"] == want, f"n_steps {diag['n_steps']} == ceil(T/dt) = {want}")


def _energy_closed_form(outs, ctx):
    """E(a h_0) = a^2 d / 2 + a^4 (2 pi)^{-d/2} / 4 on the (2, 64) basis."""
    basis = ctx.energy_basis
    d = basis.d
    a = 0.5 + np.random.default_rng(ctx.seed).random()
    got = solver.energy(SpectralField.from_mode(basis, (0,) * d, amplitude=a))
    want = a * a * d / 2.0 + a ** 4 * (2.0 * math.pi) ** (-d / 2.0) / 4.0
    return _ok(abs(got - want) <= 1e-12 * want, f"E = {got!r}, closed form {want!r}")


# --------------------------------------------------------------------------
# growth part (growth-d2)
# --------------------------------------------------------------------------

def _branch(out: Output, name: str):
    sel = np.array([b == name for b in out.cols["branch"]])
    return _f(out, "t")[sel], _f(out, "hs_norm")[sel], _f(out, "running_max")[sel]


def _growth_exponent(out: Output) -> float:
    t, hs, _ = _branch(out, "nonlinear")
    tail = t >= 0.5 * out.config["T"]
    return _loglog_slope(t[tail], np.maximum.accumulate(hs)[tail])


def _linear_constant(outs, ctx):
    out = outs[0]
    _, hs_lin, _ = _branch(out, "linear")
    _, hs_nl, _ = _branch(out, "nonlinear")
    h0 = hs_nl[0]
    dev = float(np.max(np.abs(hs_lin - h0)) / h0)
    return _ok(hs_lin.size > 1 and dev <= 1e-12,
               f"{hs_lin.size} linear norms, max relative deviation {dev:.2e} <= 1e-12")


def _growth_exponent_max(outs, ctx):
    e = _growth_exponent(outs[0])
    return _ok(e <= 0.87, f"nonlinear exponent {e:.4g} <= 0.87")


def _growth_summary(outs, ctx):
    out = outs[0]
    e = _growth_exponent(out)
    got = out.manifest["summary"]["exponent_nonlinear"]
    _, hs, running = _branch(out, "nonlinear")
    same_max = np.array_equal(running, np.maximum.accumulate(hs))
    return _ok(abs(got - e) <= 1e-9 and same_max,
               f"manifest exponent {got!r} vs refit {e!r}; running max equal: {same_max}")


# --------------------------------------------------------------------------
# bilinear part (bilinear-d2)
# --------------------------------------------------------------------------

def _bilinear_maxima(out: Output):
    M = _f(out, "M")
    N = _f(out, "N")[M == 2]
    raw, ratio = _f(out, "raw_norm")[M == 2], _f(out, "ratio")[M == 2]
    Ns = np.unique(N)
    return (Ns, np.array([raw[N == n].max() for n in Ns]),
            np.array([ratio[N == n].max() for n in Ns]))


def _bil_exponent(outs, ctx):
    Ns, raw_max, _ = _bilinear_maxima(outs[0])
    slope = _loglog_slope(Ns, raw_max)
    return _ok(abs(slope + 0.5) <= 0.15, f"raw exponent {slope:.4f} in -0.5 +- 0.15")


def _bil_ratio(outs, ctx):
    _, _, ratio_max = _bilinear_maxima(outs[0])
    top = ratio_max[-1] / ratio_max[-2]
    return _ok(abs(top - 1.0) <= 0.25, f"ratio_top_over_prev {top:.4f} in 1 +- 0.25")


def _bil_summary(outs, ctx):
    Ns, raw_max, ratio_max = _bilinear_maxima(outs[0])
    entry = outs[0].manifest["summary"]["per_M"]["2"]
    same = all(entry["raw_max_by_N"][str(int(n))] == v for n, v in zip(Ns, raw_max))
    ok = (same and _same(entry["raw_exponent"], _loglog_slope(Ns, raw_max))
          and _same(entry["ratio_top_over_prev"], ratio_max[-1] / ratio_max[-2]))
    return _ok(ok, f"manifest {entry['raw_exponent']!r}, {entry['ratio_top_over_prev']!r}; "
                   f"maxima equal: {same}")


def _axis_rule(outs, ctx):
    return ctx.rules[(1, bilinear_min_K(max(outs[0].config["N_list"])))]


def _rule_quartic(outs, ctx):
    """The w = 2 rule integrates h_0^4 = pi^{-1} e^{-2 y^2} exactly."""
    rule = _axis_rule(outs, ctx)
    h0 = math.pi ** -0.25 * np.exp(-0.5 * rule.nodes ** 2)
    err = abs(float(np.sum(rule.weights * h0 ** 4)) - H0_QUARTIC_1D)
    return _ok(err <= 1e-13, f"Q={rule.size}: |sum W h0^4 - (2 pi)^-1/2| = {err:.2e} <= 1e-13")


def _rule_mirror(outs, ctx):
    nodes = _axis_rule(outs, ctx).nodes
    return _ok(np.array_equal(nodes, -nodes[::-1]), f"Q={nodes.size} nodes mirror exactly")


# --------------------------------------------------------------------------
# scans part (scans): identity d=1 exhaustive, identity d=2 sampled, bernstein,
# orthogonality
# --------------------------------------------------------------------------

def _identity_columns(out: Output):
    mu = np.stack([np.array([int(v) for v in out.cols[f"mu_sq_{i}"]]) for i in range(1, 5)])
    resonant = mu[0] - mu[1] - mu[2] - mu[3] == 0
    flagged = np.array([v == "True" for v in out.cols["resonant"]])
    return mu, resonant, flagged, _f(out, "residual")


def _identity_1d(outs, ctx):
    out = outs[0]
    _, resonant, flagged, res = _identity_columns(out)
    K = out.config["K"]
    n_rows = (K + 1) ** 4
    worst = float(res[~resonant].max())
    ok = res.size == n_rows and np.array_equal(resonant, flagged) and worst < IDENTITY_TOL
    return _ok(ok, f"{res.size}/{n_rows} tuples, resonance flags match: "
                   f"{np.array_equal(resonant, flagged)}, max residual {worst:.3e} < 1e-8")


def _identity_1d_values(outs, ctx):
    """L0 of the ground tuple is int h_0^4; odd total degree integrates to 0.0 exactly."""
    out = outs[0]
    mu, _, _, _ = _identity_columns(out)
    L0 = _f(out, "L0")
    ground = np.flatnonzero((mu == 1).all(axis=0))
    odd = ((mu - 1) // 2).sum(axis=0) % 2 == 1
    err = abs(L0[ground[0]] - H0_QUARTIC_1D)
    nonzero_odd = int(np.count_nonzero(L0[odd]))
    return _ok(err <= 1e-13 and nonzero_odd == 0,
               f"|L0(0,0,0,0) - (2 pi)^-1/2| = {err:.2e}; odd tuples with L0 != 0: {nonzero_odd}")


def _psi(K: int, x: np.ndarray) -> np.ndarray:
    """Rows k = 0..K: h_k(x) e^{x^2/2}, by the normalised three-term recurrence."""
    P = np.zeros((K + 1, x.size))
    P[0] = math.pi ** -0.25
    if K:
        P[1] = math.sqrt(2.0) * x * P[0]
    for k in range(1, K):
        P[k + 1] = math.sqrt(2.0 / (k + 1)) * x * P[k] - math.sqrt(k / (k + 1)) * P[k - 1]
    return P


def identity_d2_reference(config: dict) -> tuple[np.ndarray, np.ndarray]:
    """(mu_sq of each tuple, exact L0 of each tuple) of a sampled identity_k1 run."""
    return _identity_d2_reference(config["d"], config["K"], config["seed"], config["trials"])


@functools.lru_cache(maxsize=4)
def _identity_d2_reference(d: int, K: int, seed: int, trials: int):
    """The same, for one set of inputs; three checks a round share it.

    The modes are drawn as the experiment draws its inputs, SeedSequence((seed, 5, i)).
    L0 = int h_m1 h_m2 h_m3 h_m4 dx is a product of 1-D integrals, each of a
    polynomial of degree <= 4K times e^{-2x^2}; numpy's Gauss-Hermite rule in
    y = sqrt(2) x with 2K + 2 nodes integrates it exactly.
    """
    y, w = np.polynomial.hermite.hermgauss(2 * K + 2)
    P = _psi(K, y / math.sqrt(2.0))
    w = w / math.sqrt(2.0)
    mu_sq, L0 = [], []
    for i in range(trials):
        rng = np.random.default_rng(np.random.SeedSequence((seed, 5, i)))
        m = np.array([rng.integers(0, K + 1, size=d) for _ in range(4)])
        mu_sq.append(2 * m.sum(axis=1) + d)
        L0.append(math.prod(float(np.sum(w * P[m[0, a]] * P[m[1, a]] * P[m[2, a]] * P[m[3, a]]))
                            for a in range(d)))
    return np.array(mu_sq).T, np.array(L0)


def _identity_2d_failing(res, resonant) -> np.ndarray:
    return ~resonant & ~(res <= IDENTITY_TOL)


def _identity_2d_tuples(outs, ctx):
    """One operation per sampled tuple; a non-resonant tuple fails above 1e-8."""
    out = outs[1]
    want = out.config["trials"]
    _, resonant, _, res = _identity_columns(out)
    failed = int(_identity_2d_failing(res, resonant).sum()) + max(want - res.size, 0)
    return min(failed, want), f"{failed} of {want} tuples above 1e-8"


def _identity_2d_inputs(outs, ctx):
    """Every sampled tuple is there, with its mu_sq and its resonance flag."""
    out = outs[1]
    mu, resonant, flagged, _ = _identity_columns(out)
    mu_ref, _ = identity_d2_reference(out.config)
    same_mu = mu.shape == mu_ref.shape and np.array_equal(mu, mu_ref)
    same_flags = np.array_equal(resonant, flagged)
    return _ok(same_mu and same_flags,
               f"{mu.shape[1]}/{mu_ref.shape[1]} tuples, mu_sq as drawn: {same_mu}, "
               f"resonance flags match: {same_flags}")


def _identity_2d_L0(outs, ctx):
    out = outs[1]
    _, L0_ref = identity_d2_reference(out.config)
    err = float(np.max(np.abs(_f(out, "L0") - L0_ref)))
    return _ok(err <= L0_ABS_TOL, f"max |L0 - exact L0| = {err:.2e} <= {L0_ABS_TOL:g}")


def _identity_2d_fault_only(outs, ctx):
    """A failing tuple must be one of the known fault's: exact |L0| <= 1e-10."""
    out = outs[1]
    _, resonant, _, res = _identity_columns(out)
    _, L0_ref = identity_d2_reference(out.config)
    other = _identity_2d_failing(res, resonant) & (np.abs(L0_ref) > KNOWN_FAULT_L0)
    return _ok(not other.any(), f"{int(other.sum())} failing tuples with exact |L0| > "
                                f"{KNOWN_FAULT_L0:g}, first {np.flatnonzero(other)[:5].tolist()}")


def _word_tops(out: Output) -> dict:
    """ratio(top N) / ratio(previous N) per ladder word, from the CSV."""
    N, ratio, words = _f(out, "N"), _f(out, "ratio"), out.cols["word"]
    top, prev = sorted(set(N))[-2:][::-1]
    by = {(w, n): x for w, n, x in zip(words, N, ratio)}
    return {w: by[(w, top)] / by[(w, prev)] for w in dict.fromkeys(words)}


def _bernstein(outs, ctx):
    tops = _word_tops(outs[2])
    worst = max(tops.values(), key=lambda v: abs(v - 1.0))
    d = outs[2].config["d"]
    n_words = 1 + 2 * d + (2 * d) ** 2  # identity, single letters, letter pairs
    return _ok(len(tops) == n_words and abs(worst - 1.0) <= 0.25,
               f"{len(tops)} words, worst top_over_prev {worst:.4f} in 1 +- 0.25")


def _orthogonality_slope(out: Output) -> float:
    return _loglog_slope(np.sqrt(_f(out, "lambda1_sq")), _f(out, "max_abs_L0"))


def _orthogonality(outs, ctx):
    slope = _orthogonality_slope(outs[3])
    return _ok(slope <= -6.0, f"slope {slope:.3f} <= -6")


def _scans_summary(outs, ctx):
    id1, _, bern, orth = outs
    _, resonant, _, res = _identity_columns(id1)
    max_res = id1.manifest["summary"]["max_residual"]
    orth_slope = orth.manifest["summary"]["slope"]
    tops = _word_tops(bern)
    same_words = all(e["top_over_prev"] == tops[w]
                     for w, e in bern.manifest["summary"]["per_word"].items())
    ok = (max_res == float(res[~resonant].max()) and same_words
          and _same(orth_slope, _orthogonality_slope(orth)))
    return _ok(ok, f"identity max {max_res!r}, words equal: {same_words}, "
                   f"orthogonality slope {orth_slope!r}")


# --------------------------------------------------------------------------
# Workload table
# --------------------------------------------------------------------------

def _part(name: str, quick: bool) -> Part:
    if name == "increment":
        cfg = dict(experiment="energy_increment", d=2, K=64, s=1.5, N_list=[4, 8, 16, 32],
                   dt=1e-5, T=0.001 if quick else 0.01)
        return Part(name, (cfg,), ((2, 64, True),),
                    (Check("alpha_at_least_0.8", _inc_alpha),
                     Check("summary_matches_csv", _inc_summary),
                     Check("n_steps", _solver_steps),
                     Check("energy_closed_form", _energy_closed_form)))
    if name == "growth":
        cfg = dict(experiment="norm_growth", d=2, K=32, s=2.0, dt=0.01, T=2.0 if quick else 20.0)
        return Part(name, (cfg,), ((2, 32, True),),
                    (Check("linear_norm_constant", _linear_constant),
                     Check("exponent_at_most_0.87", _growth_exponent_max),
                     Check("summary_matches_csv", _growth_summary),
                     Check("n_steps", _solver_steps)))
    if name == "bilinear":
        N_list = [4, 8, 16] if quick else [4, 8, 16, 32, 64]
        cfg = dict(experiment="bilinear", d=2, N_list=N_list, M_list=[2], T=math.pi,
                   trials=2 if quick else 4)
        return Part(name, (cfg,), ((1, bilinear_min_K(max(N_list)), False),),
                    (Check("raw_exponent_band", _bil_exponent),
                     Check("ratio_top_over_prev_band", _bil_ratio),
                     Check("summary_matches_csv", _bil_summary),
                     Check("rule_h0_quartic", _rule_quartic),
                     Check("rule_nodes_mirror", _rule_mirror)))
    if name == "scans":
        K1, K2, n2 = (8, 16, 64) if quick else (16, 32, 512)
        configs = (
            dict(experiment="identity_k1", d=1, K=K1),
            dict(experiment="identity_k1", d=2, K=K2, trials=n2, seed=IDENTITY_D2_SEED),
            dict(experiment="bernstein", d=2, N_list=[4, 8] if quick else [4, 8, 16], trials=8),
            dict(experiment="orthogonality", d=1, K=32 if quick else 64, trials=4),
        )
        return Part(name, configs, ((1, K1, False), (2, K2, False), (1, configs[3]["K"], False)),
                    (Check("identity_1d_residuals", _identity_1d),
                     Check("identity_1d_exact_values", _identity_1d_values),
                     Check("identity_d2_tuples", _identity_2d_tuples, count=n2, known_fault=True),
                     Check("identity_d2_inputs", _identity_2d_inputs),
                     Check("identity_d2_exact_L0", _identity_2d_L0),
                     Check("identity_d2_failures_are_the_fault", _identity_2d_fault_only),
                     Check("bernstein_top_over_prev", _bernstein),
                     Check("orthogonality_slope", _orthogonality),
                     Check("summary_matches_csv", _scans_summary)))
    raise KeyError(name)


def workload(name: str, quick: bool = False) -> Workload:
    """The named workload; `quick` shrinks every run length for the self-test."""
    if name == "increment-d2":
        return Workload(name, (_part("increment", quick),), field=(2, 64), ladder=(2, 64, 8),
                        bilinear=(4, 2), dt=1e-5)
    if name == "growth-d2":
        return Workload(name, (_part("growth", quick),), field=(2, 32), ladder=(2, 32, 4),
                        bilinear=(4, 2), dt=0.01)
    if name == "bilinear-d2":
        bilinear = _part("bilinear", quick)
        return Workload(name, (bilinear,), field=(2, 32), ladder=(2, 32, 4),
                        bilinear=(max(bilinear.configs[0]["N_list"]), 2), dt=0.01)
    if name == "scans":
        scans = _part("scans", quick)
        N_bern = max(scans.configs[2]["N_list"])
        K_bern = (2 * N_bern ** 2 - 3) // 2  # the K the bernstein experiment picks at d = 2
        return Workload(name, (scans,), field=(2, scans.configs[1]["K"]),
                        ladder=(2, K_bern, N_bern), bilinear=(4, 2), dt=0.01)
    raise KeyError(name)


NAMES = ("increment-d2", "growth-d2", "bilinear-d2", "scans")
