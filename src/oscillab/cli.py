"""Configuration-driven experiment runner.

A run is described by a JSON object or by ``key = value`` lines (``#`` starts a
comment).  Its keys are ``experiment``, ``seed``, ``output_dir`` and the keys of the
experiment's row in EXPERIMENTS, which also holds their presets.  Every run writes
two files into the output directory:

* ``results.csv`` — long-format table with a fixed column set per experiment;
  floats are written with shortest round-trip formatting, so the file is
  byte-identical across reruns with the same config and seed;
* ``manifest.json`` — canonical-form JSON (sorted keys) echoing the raw config
  text byte-identically, plus the fully resolved configuration (every applied
  default), derived parameters (quadrature sizes, windows, delta, ...), package
  version, wall time, summary statistics and taint flags.

Determinism: all randomness derives from per-cell ``SeedSequence((seed, tags...))``
streams and parallel cells are merged by index, so ``--threads`` (or the
OSCILLAB_THREADS environment variable) never changes the output bytes.  The BLAS
thread count can: identity_k1 runs no BLAS matrix product, but the bilinear experiments'
GEMMs give bits that depend on it, and the solver experiments run GEMMs too.

Exit codes: 0 success, 1 error (bad config / runtime failure), 2 completed but
tainted (e.g. solver spillage above tolerance).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import time
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from . import __version__
from .hermite import HermiteBasis, MultiIndex, SpectralField
from .operators import (IOperatorSpec, PWord, apply_I, bernstein_draws, bernstein_ratios,
                        sobolev_norm)
from .solver import SolverConfig, evolve
from .lab import (
    almost_orthogonality_scan,
    bilinear_min_K,
    derivative_bilinear_ratio,
    energy_increment_scan,
    fit_power_law,
    identity_residual_tuples,
    norm_growth_experiment,
    time_node_count,
)

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "parse_config",
    "run",
    "main",
]

class ConfigError(ValueError):
    """Configuration problem; .key names the offending key (or key path)."""

    def __init__(self, key: str, message: str):
        super().__init__(message)
        self.key = key


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    seed: int
    d: int | None = None
    K: int | None = None
    s: float | None = None
    N_list: list | None = None
    M_list: list | None = None
    dt: float | None = None
    T: float | None = None
    trials: int | None = None
    output_dir: str | None = None
    raw_text: str = ""  # original config text, carried for the manifest echo


# --------------------------------------------------------------------------
# Parsing and validation
# --------------------------------------------------------------------------

def _as_int(key, v, lo=None, hi=None):
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(key, f"{key} must be an integer, got {v!r}")
    if lo is not None and v < lo:
        raise ConfigError(key, f"{key} must be >= {lo}, got {v}")
    if hi is not None and v > hi:
        raise ConfigError(key, f"{key} must be <= {hi}, got {v}")
    return v


def _as_float(key, v, positive=False):
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(key, f"{key} must be a number, got {v!r}")
    v = float(v)
    if not math.isfinite(v):
        raise ConfigError(key, f"{key} must be finite, got {v}")
    if positive and not v > 0:
        raise ConfigError(key, f"{key} must be > 0, got {v}")
    return v


def _as_int_list(key, v):
    if not isinstance(v, (list, tuple)) or len(v) == 0:
        raise ConfigError(key, f"{key} must be a non-empty list of integers, got {v!r}")
    return [_as_int(f"{key}[{i}]", item, lo=1) for i, item in enumerate(v)]


def _as_output_dir(key, v):
    if not isinstance(v, str) or not v:
        raise ConfigError(key, f"{key} must be a non-empty string")
    return v


# the checks of the optional keys, run in this order
_CHECKS = {
    "d": partial(_as_int, lo=1, hi=3), "K": partial(_as_int, lo=1),
    "s": partial(_as_float, positive=True), "dt": partial(_as_float, positive=True),
    "T": partial(_as_float, positive=True), "trials": partial(_as_int, lo=1),
    "N_list": _as_int_list, "M_list": _as_int_list, "output_dir": _as_output_dir,
}


def parse_config(text: str) -> ExperimentConfig:
    """Parse UTF-8 config text (JSON object or key=value lines) and validate it."""
    if text.lstrip().startswith("{"):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError("<json>", f"invalid JSON config: {exc}") from None
        if not isinstance(data, dict):
            raise ConfigError("<json>", "top-level JSON value must be an object")
    else:
        data = {}
        for line_no, line in enumerate(text.splitlines(), start=1):
            body = line.split("#", 1)[0].strip()
            if not body:
                continue
            if "=" not in body:
                raise ConfigError(
                    f"<line {line_no}>", f"expected 'key = value', got {body!r}"
                )
            key, _, value = body.partition("=")
            key = key.strip()
            value = value.strip()
            try:
                data[key] = json.loads(value)
            except json.JSONDecodeError:
                data[key] = value
    return _config_from_dict(data, text)


def _config_from_dict(data: dict, raw_text: str) -> ExperimentConfig:
    if "experiment" not in data:
        raise ConfigError("experiment", "missing required key 'experiment'")
    experiment = data["experiment"]
    if experiment not in EXPERIMENTS:
        raise ConfigError(
            "experiment",
            f"unknown experiment {experiment!r}; choices: {', '.join(EXPERIMENTS)}",
        )
    keys = ("experiment", "seed", *EXPERIMENTS[experiment][2], "output_dir")
    for key in data:
        if key not in keys:
            raise ConfigError(key, f"{experiment} reads no key {key!r}; its keys: {', '.join(keys)}")
    if "seed" not in data:
        raise ConfigError("seed", "missing required key 'seed' (runs must be reproducible)")
    kwargs = {
        "experiment": experiment,
        "seed": _as_int("seed", data["seed"], lo=0),
        "raw_text": raw_text,
    }
    for key, check in _CHECKS.items():
        if key in data:
            kwargs[key] = check(key, data[key])
    return ExperimentConfig(**kwargs)


# Experiment-internal knobs (not part of the config key set; echoed in manifests).
_ORTHO_C0 = 2.0
_IDENTITY_EXHAUSTIVE_K_CAP = 24
_MAX_STEPS = 10 ** 7  # the most solver steps a config may ask for
_MAX_ARRAY_BYTES = 2 ** 31  # the largest array a config may ask for: 2 GiB
_INC_RECORD_EVERY = 200
_INC_BODY_DECAY = 6.0
_INC_BODY_DEG_CUT = 40
_INC_RING_AMP = 0.15
_GROWTH_RECORD_EVERY = 20
_GROWTH_BODY_DECAY = 4.0
_GROWTH_DEG_CUT = 20
_GROWTH_HS_NORM = 3.0
_CONS_RECORD_EVERY = 10
_CONS_BODY_DECAY = 2.0
_CONS_DEG_CUT = 9
_CONS_MASS = 0.25


def _resolve(cfg: ExperimentConfig) -> tuple[dict, dict]:
    """Merge user config over the experiment's preset -> (resolved dict, defaults
    applied).  A key the experiment does not read resolves to None."""
    preset = EXPERIMENTS[cfg.experiment][2]
    resolved: dict = {"experiment": cfg.experiment, "seed": cfg.seed}
    defaults: dict = {}
    for key in _CHECKS:  # the optional keys
        resolved[key] = getattr(cfg, key)
        if resolved[key] is None and key in preset:
            resolved[key] = defaults[key] = preset[key]
    for key, value in defaults.items():  # a derived preset reads the other keys
        if callable(value):
            resolved[key] = defaults[key] = value(resolved)
    if resolved["output_dir"] is None:
        resolved["output_dir"] = defaults["output_dir"] = os.path.join("runs", cfg.experiment)
    # refused here, before any table is built or any step is taken
    d, K, s, N_list, dt, T = (resolved[k] for k in ("d", "K", "s", "N_list", "dt", "T"))
    if cfg.experiment in ("energy_increment", "bernstein") and any(N & (N - 1) for N in N_list):
        raise ConfigError("N_list", f"N_list must hold powers of two, got {N_list}")
    if cfg.experiment == "energy_increment" and not s > 1.0:
        raise ConfigError("s", f"s must be > 1 for energy_increment, got {s}")
    if cfg.experiment == "identity_k1" and d == 1 and K > _IDENTITY_EXHAUSTIVE_K_CAP:
        raise ConfigError("K", f"the exhaustive 1-D identity scan ((K+1)^4 rows) caps at K = "
                          f"{_IDENTITY_EXHAUSTIVE_K_CAP}; use d >= 2 for sampled tuples")
    if dt is not None and T / dt > _MAX_STEPS:
        raise ConfigError("dt", f"T / dt = {T / dt:.3g} steps exceeds {_MAX_STEPS:.0e}")
    if "M_list" in preset:  # bilinear: 1-D tables; a cell's phase table is the largest array
        nodes = time_node_count(T, max(N_list))
        key, size, what = "T", nodes * (K + 1) * 16, f"a phase table of {nodes} time nodes x {K + 1} modes"
    else:
        key, size, what = "K", (2 * K + 2) ** d * 16, f"a {2 * K + 2}^{d} complex grid"
    if size > _MAX_ARRAY_BYTES:
        raise ConfigError(key, f"{key} = {resolved[key]} gives {what}, {size / 2 ** 30:.3g} GiB, "
                          f"over the {_MAX_ARRAY_BYTES // 2 ** 30} GiB bound")
    return resolved, defaults


# --------------------------------------------------------------------------
# Output helpers
# --------------------------------------------------------------------------

@dataclass
class DriverResult:
    table: dict  # column name -> numpy array or list, in CSV order
    summary: dict
    derived: dict
    taints: list


def _map_cells(fn, cells, threads: int):
    if threads <= 1 or len(cells) <= 1:
        return [fn(c) for c in cells]
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, cells))


def _csv_field(text: str) -> str:
    """text as a field of a CSV row: quoted by the csv module when it holds a comma, a
    quote or a line break, else as it is."""
    if not any(c in text for c in ',"\r\n'):
        return text
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow([text])
    return buf.getvalue()[:-1]


def _fmt_cell(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return str(bool(v))
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return _csv_field(str(v))


def _fmt_column(col) -> list[str]:
    """One column's cells as text: a single C-level map when every cell has the same
    builtin type (the text _fmt_cell gives), else _fmt_cell per cell."""
    kinds = set(map(type, col))
    if kinds == {float}:
        return list(map(repr, col))
    if len(kinds) == 1 and kinds <= {int, bool}:
        return list(map(str, col))
    return [_fmt_cell(v) for v in col]


def _fmt_block(col) -> list[str]:
    """One column block as text.  A numeric or bool array is formatted through its
    distinct values, keyed by their bits so that -0.0, 0.0 and NaN payloads stay apart:
    one _fmt_column text per distinct value, then one gather.  Other columns go to
    _fmt_column as they are."""
    if not isinstance(col, np.ndarray):
        return _fmt_column(col)
    if col.dtype.kind not in "biuf" or col.itemsize not in (1, 2, 4, 8):
        return _fmt_column(col.tolist())
    bits, inverse = np.unique(col.view(f"u{col.itemsize}"), return_inverse=True)
    texts = np.array(_fmt_column(bits.view(col.dtype).tolist()), dtype=object)
    return texts[inverse].tolist()


_CSV_BLOCK_ROWS = 1024


def _write_csv(path: str, table: dict) -> int:
    """Write the table (column name -> column) in blocks of _CSV_BLOCK_ROWS rows, each
    column block formatted once, each distinct value of an array block once
    (_fmt_block); returns the number of rows."""
    lengths = {len(col) for col in table.values()}
    if len(lengths) != 1:
        raise ValueError(f"columns of unequal lengths {sorted(lengths)}")
    (n_rows,) = lengths
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write(",".join(map(_csv_field, table)) + "\n")
        for start in range(0, n_rows, _CSV_BLOCK_ROWS):
            block = (col[start:start + _CSV_BLOCK_ROWS] for col in table.values())
            cells = [_fmt_block(b) for b in block]
            f.write("\n".join(map(",".join, zip(*cells))) + "\n")
    return n_rows


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    return obj


def _fit_summary(fit):
    if fit is None:
        return None
    return {
        "slope": fit.slope,
        "intercept": fit.intercept,
        "residual": fit.residual,
        "dropped": fit.dropped,
        "n_points": int(fit.xs.size),
    }


def _word_label(word: PWord) -> str:
    if not word.letters:
        return "ID"
    return ".".join(f"{letter}{axis}" for letter, axis in word.letters)


# --------------------------------------------------------------------------
# Experiment drivers
# --------------------------------------------------------------------------

def _run_identity_k1(resolved: dict, threads: int) -> DriverResult:
    d, K, seed, trials = resolved["d"], resolved["K"], resolved["seed"], resolved["trials"]
    if d == 1:  # every tuple, in C order; K is capped by _resolve
        modes = np.indices((K + 1,) * 4).reshape(4, -1).T[..., None]
    else:
        modes = np.empty((trials, 4, d), dtype=np.int64)
        for i in range(trials):
            rng = np.random.default_rng(np.random.SeedSequence((seed, 5, i)))
            modes[i] = [rng.integers(0, K + 1, size=d) for _ in range(4)]
    scan = identity_residual_tuples(K, modes)
    table = {f"mu_sq_{i}": mu for i, mu in enumerate(scan["mu_sq"].T, start=1)}
    table.update((key, scan[key]) for key in ("L0", "rhs", "residual", "resonant"))
    residuals = scan["residual"][~scan["resonant"]]
    summary = {
        "max_residual": float(residuals.max()) if residuals.size else math.nan,
        "n_tuples": int(scan["residual"].size),
        "n_resonant": int(scan["resonant"].sum()),
        "exhaustive": d == 1,
    }
    derived = {"Q": 2 * K + 2, "mu_sq_max": int(2 * d * K + d)}
    return DriverResult(table, summary, derived, [])


def _run_orthogonality(resolved: dict, threads: int) -> DriverResult:
    d, K, seed, trials = resolved["d"], resolved["K"], resolved["seed"], resolved["trials"]
    basis = HermiteBasis(d, K)
    ground = MultiIndex((0,) * d)
    trio = [SpectralField.from_mode(basis, ground) for _ in range(3)]
    lambda1_list = [math.sqrt(2 * m + d) for m in range(K + 1)]
    res = almost_orthogonality_scan(
        basis, lambda1_list, *trio, trials=trials, seed=seed, C0=_ORTHO_C0
    )
    table = {"lambda1_sq": np.rint(res["lambda1"] ** 2).astype(int),
             "max_abs_L0": res["max_abs_L0"]}
    summary = {
        "fit": _fit_summary(res["fit"]),
        "slope": res["fit"].slope if res["fit"] is not None else float("nan"),
        "n_admissible": len(res["lambda1"]),
        "empty_window": bool(res["empty"]),
    }
    derived = {"C0": _ORTHO_C0, "trio_mu_sq": [d, d, d], "Q": 2 * K + 2}
    return DriverResult(table, summary, derived, [])


def _bilinear_K(resolved: dict, word_a: PWord) -> int:
    """The smallest K that holds every packet draw and its word (word_b is the identity)."""
    N = max(max(resolved["N_list"]), max(resolved["M_list"]))
    return bilinear_min_K(N, resolved["d"]) + word_a.order


def _run_bilinear(resolved: dict, threads: int, word_a: PWord) -> DriverResult:
    word_b = PWord.identity()
    d, K, seed = resolved["d"], resolved["K"], resolved["seed"]
    N_list, M_list = resolved["N_list"], resolved["M_list"]
    T, trials = resolved["T"], resolved["trials"]
    axis_basis = HermiteBasis(1, K)  # caps the draws; each cell builds its own rule

    cells = [(int(N), int(M)) for M in M_list for N in N_list]

    def cell(nm):
        N, M = nm
        return derivative_bilinear_ratio(
            axis_basis, d, word_a, word_b, N, M, T, trials, seed
        )

    results = _map_cells(cell, cells, threads)
    N_col, M_col = np.repeat(cells, trials, axis=0).T
    table = {"N": N_col, "M": M_col, "trial": np.tile(np.arange(trials), len(cells)),
             "raw_norm": np.concatenate([res["raws"] for res in results]),
             "ratio": np.concatenate([res["ratios"] for res in results])}
    by_cell = {nm: res for nm, res in zip(cells, results)}
    per_M = {}
    for M in M_list:
        Ns = sorted({int(N) for N in N_list})
        raw_max = {N: by_cell[(N, M)]["raw_max"] for N in Ns}
        ratio_max = {N: by_cell[(N, M)]["ratio_max"] for N in Ns}
        entry = {
            "raw_max_by_N": {str(N): raw_max[N] for N in Ns},
            "ratio_max_by_N": {str(N): ratio_max[N] for N in Ns},
        }
        if len(Ns) >= 2:
            fit = fit_power_law(Ns, [raw_max[N] for N in Ns])
            entry["raw_exponent"] = fit.slope
            entry["raw_fit"] = _fit_summary(fit)
            entry["ratio_top_over_prev"] = ratio_max[Ns[-1]] / ratio_max[Ns[-2]]
        per_M[str(M)] = entry
    summary = {"per_M": per_M, "word_a": _word_label(word_a), "word_b": _word_label(word_b)}
    derived = {
        "K": K,
        "K_needed": _bilinear_K(resolved, word_a),
        "time_nodes_max": time_node_count(T, max(N_list)),
        "normalization_by_cell": {f"N={N},M={M}": by_cell[(N, M)]["normalization"] for (N, M) in cells},
        "Q_by_cell": {f"N={N},M={M}": by_cell[(N, M)]["Q"] for (N, M) in cells},
    }
    return DriverResult(table, summary, derived, [])


def _bernstein_K(resolved: dict) -> int:
    """The largest degree inside the top window."""
    return (2 * max(resolved["N_list"]) ** 2 - resolved["d"] - 1) // 2


def _all_words_up_to_order2(d: int) -> list[tuple[str, PWord]]:
    singles = [PWord.grad(ax) for ax in range(1, d + 1)]
    singles += [PWord.x(ax) for ax in range(1, d + 1)]
    words = [PWord.identity()] + singles
    words += [w1.then(w2) for w1 in singles for w2 in singles]
    return [(_word_label(w), w) for w in words]


def _run_bernstein(resolved: dict, threads: int) -> DriverResult:
    d, K, seed, trials = resolved["d"], resolved["K"], resolved["seed"], resolved["trials"]
    N_list = resolved["N_list"]
    basis = HermiteBasis(d, K)  # ladder algebra only; quadrature tables stay unbuilt
    words = _all_words_up_to_order2(d)
    Ns = sorted({int(N) for N in N_list})
    draws = {N: bernstein_draws(basis, N, trials, seed) for N in Ns}
    by_first = {}  # words that share a first letter share its image
    for _, word in words:
        by_first.setdefault(word.letters[:1], []).append(word)
    cells = [(N, group) for N in Ns for group in by_first.values()]

    def cell(args):
        N, group = args
        return bernstein_ratios(basis, group, N, trials, seed, draws[N])

    ratio = {}
    for (N, group), ratios in zip(cells, _map_cells(cell, cells, threads)):
        ratio.update(((N, word), r) for word, r in zip(group, ratios))
    rows = [(label, word, int(N)) for (label, word) in words for N in N_list]
    table = {"N": [N for _, _, N in rows], "word": [label for label, _, _ in rows],
             "ratio": [ratio[(N, word)] for _, word, N in rows]}
    per_word = {}
    for label, word in words:
        entry = {"ratio_by_N": {str(N): ratio[(N, word)] for N in Ns}}
        if len(Ns) >= 2:
            entry["top_over_prev"] = ratio[(Ns[-1], word)] / ratio[(Ns[-2], word)]
        per_word[label] = entry
    window_sizes = {str(N): int(draws[N][0].sum()) for N in Ns}
    summary = {
        "per_word": per_word,
        "max_top_over_prev": max(
            (e["top_over_prev"] for e in per_word.values() if "top_over_prev" in e),
            default=float("nan"),
        ),
        "n_words": len(words),
    }
    derived = {"K": K, "K_needed": _bernstein_K(resolved), "window_sizes": window_sizes}
    return DriverResult(table, summary, derived, [])


def _decaying_body(basis: HermiteBasis, rng, decay: float, degree_cut: int) -> np.ndarray:
    """Complex Gaussian coefficients damped by exp(-degree / decay), zero above
    degree_cut: the random body of every solver datum (real draws, then imaginary)."""
    deg = (basis.lambda_sq - basis.d) // 2
    body = rng.standard_normal(deg.shape) + 1j * rng.standard_normal(deg.shape)
    body *= np.exp(-deg / decay)
    body[deg > degree_cut] = 0.0
    return body


def _increment_datum(basis: HermiteBasis, seed: int) -> SpectralField:
    """Unit-mass random body below degree _INC_BODY_DEG_CUT plus a band on the top
    three degree shells.

    The band shells are mutually connected by degree-conserving (resonant) cubic
    interactions, so mass flows across the top eigenvalue cut at an O(t) rate; the
    narrowest I-cutoffs see that flux through their multiplier and stay strictly
    above the splitting-drift floor."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, 101)))
    body = _decaying_body(basis, rng, _INC_BODY_DECAY, _INC_BODY_DEG_CUT)
    body /= np.linalg.norm(body)
    deg = (basis.lambda_sq - basis.d) // 2
    band = rng.standard_normal(deg.shape) + 1j * rng.standard_normal(deg.shape)
    band[deg < deg.max() - 2] = 0.0
    band *= _INC_RING_AMP / np.linalg.norm(band)
    return SpectralField(basis, body + band)


def _run_energy_increment(resolved: dict, threads: int) -> DriverResult:
    d, K, s, seed = resolved["d"], resolved["K"], resolved["s"], resolved["seed"]
    N_list, dt, T = resolved["N_list"], resolved["dt"], resolved["T"]
    basis = HermiteBasis(d, K)
    u0 = _increment_datum(basis, seed)
    cfg = SolverConfig(dt=dt, T=T, record_every=_INC_RECORD_EVERY)
    res = energy_increment_scan(u0, s, N_list, cfg)
    Ns = [int(N) for N in N_list]
    table = {"N": Ns, "sup_increment": [res["increments"][N] for N in Ns]}
    incs = [res["increments"][N] for N in sorted(Ns)]
    strictly_decreasing = all(a > b for a, b in zip(incs, incs[1:]))
    fit = res["fit"]
    floor = res["energy_drift_floor"]
    summary = {
        "increments": {str(N): float(res["increments"][N]) for N in Ns},
        "energy_drift_floor": floor,
        "increment_over_floor": {
            str(N): res["increments"][N] / floor if floor > 0 else float("nan") for N in Ns
        },
        "above_floor": sum(res["increments"][N] > floor for N in Ns),
        "strictly_decreasing": strictly_decreasing,
        "alpha": -fit.slope if fit is not None else float("nan"),
        "fit": _fit_summary(fit),
        "diagnostics": res["diagnostics"],
        "n_records": res["n_records"],
    }
    delta_by_N = {}
    for N in Ns:
        iu = apply_I(u0, IOperatorSpec(N=N, s=s))
        h1 = sobolev_norm(iu, 1.0)
        delta_by_N[str(N)] = min(1.0, 1.0 / (h1 * h1))
    derived = {
        "delta_by_N": delta_by_N,
        "record_every": _INC_RECORD_EVERY,
        "datum": {"body_decay": _INC_BODY_DECAY, "body_degree_cut": _INC_BODY_DEG_CUT,
                  "ring_amplitude": _INC_RING_AMP, "ring_degree": int(2 * K)},
        "Q": 2 * K + 2,
    }
    taints = ["solver_spillage"] if res["diagnostics"]["tainted"] else []
    return DriverResult(table, summary, derived, taints)


def _growth_datum(basis: HermiteBasis, seed: int, s: float) -> SpectralField:
    rng = np.random.default_rng(np.random.SeedSequence((seed, 202)))
    u = SpectralField(basis, _decaying_body(basis, rng, _GROWTH_BODY_DECAY, _GROWTH_DEG_CUT))
    u.coeffs *= _GROWTH_HS_NORM / sobolev_norm(u, s)
    return u


def _run_norm_growth(resolved: dict, threads: int) -> DriverResult:
    d, K, s, seed = resolved["d"], resolved["K"], resolved["s"], resolved["seed"]
    dt, T = resolved["dt"], resolved["T"]
    basis = HermiteBasis(d, K)
    u0 = _growth_datum(basis, seed, s)
    cfg = SolverConfig(dt=dt, T=T, record_every=_GROWTH_RECORD_EVERY)
    res = norm_growth_experiment(u0, s, cfg)
    branches = ("nonlinear", "linear")
    table = {"branch": np.repeat(branches, [res[b]["times"].size for b in branches])}
    for column, key in (("t", "times"), ("hs_norm", "hs_norms"), ("running_max", "running_max")):
        table[column] = np.concatenate([res[b][key] for b in branches])
    summary = {
        "exponent_nonlinear": res["nonlinear"]["exponent"],
        "exponent_linear": res["linear"]["exponent"],
        "fit_nonlinear": _fit_summary(res["nonlinear"]["fit"]),
        "fit_linear": _fit_summary(res["linear"]["fit"]),
        "diagnostics_nonlinear": res["nonlinear"]["diagnostics"],
        "diagnostics_linear": res["linear"]["diagnostics"],
    }
    taints = [f"solver_spillage_{b}" for b in ("nonlinear", "linear")
              if res[b]["diagnostics"]["tainted"]]
    derived = {
        "record_every": _GROWTH_RECORD_EVERY,
        "datum": {"body_decay": _GROWTH_BODY_DECAY, "degree_cut": _GROWTH_DEG_CUT,
                  "hs_norm": _GROWTH_HS_NORM},
        "Q": 2 * K + 2,
    }
    return DriverResult(table, summary, derived, taints)


def _conservation_datum(basis: HermiteBasis, seed: int) -> SpectralField:
    rng = np.random.default_rng(np.random.SeedSequence((seed, 303)))
    coeffs = _decaying_body(basis, rng, _CONS_BODY_DECAY, _CONS_DEG_CUT)
    coeffs *= math.sqrt(_CONS_MASS) / np.linalg.norm(coeffs)
    return SpectralField(basis, coeffs)


def _run_conservation(resolved: dict, threads: int) -> DriverResult:
    d, K, s, seed = resolved["d"], resolved["K"], resolved["s"], resolved["seed"]
    dt, T = resolved["dt"], resolved["T"]
    basis = HermiteBasis(d, K)
    u0 = _conservation_datum(basis, seed)
    cfg = SolverConfig(dt=dt, T=T, record_every=_CONS_RECORD_EVERY)
    reports, diagnostics = evolve(u0, cfg, ispec=None, s_values=(float(s),))
    table = {key: np.array([getattr(r, key) for r in reports], dtype=float)
             for key in ("t", "mass", "energy", "modified_energy")}
    table["hs_norm_s"] = np.array([r.hs_norms[float(s)] for r in reports], dtype=float)
    mass0, e0 = reports[0].mass, reports[0].energy
    mass_drift_rel = max(abs(r.mass - mass0) for r in reports) / mass0
    energy_drift = max(abs(r.energy - e0) for r in reports)
    summary = {
        "mass_drift_rel": mass_drift_rel,
        "energy_drift": energy_drift,
        "diagnostics": diagnostics,
        "n_records": len(reports),
    }
    derived = {
        "record_every": _CONS_RECORD_EVERY,
        "datum": {"body_decay": _CONS_BODY_DECAY, "degree_cut": _CONS_DEG_CUT, "mass": _CONS_MASS},
        "Q": 2 * K + 2,
    }
    taints = ["solver_spillage"] if diagnostics["tainted"] else []
    return DriverResult(table, summary, derived, taints)


def _bilinear_row(word_a: PWord, description: str) -> tuple:
    preset = dict(d=2, K=partial(_bilinear_K, word_a=word_a), N_list=[4, 8, 16, 32, 64],
                  M_list=[2], T=math.pi, trials=32)
    return partial(_run_bilinear, word_a=word_a), description, preset


# name -> (driver, description, preset).  The preset holds exactly the optional keys the
# experiment reads, with their defaults; a callable default is derived from the others.
EXPERIMENTS: dict[str, tuple] = {
    "identity_k1": (_run_identity_k1, "quadrilinear identity residuals over eigenspace tuples",
                    dict(d=1, K=16, trials=64)),
    "orthogonality": (_run_orthogonality, "decay of the quadrilinear form in the separated eigenvalue",
                      dict(d=1, K=64, trials=4)),
    "bilinear": _bilinear_row(
        PWord.identity(), "bilinear space-time norms of wave-packet pairs across dyadic windows"),
    "bilinear_derivative": _bilinear_row(
        PWord.grad(axis=1), "bilinear norms with a gradient word on the high-frequency factor"),
    "bernstein": (_run_bernstein, "ladder-word operator norms on dyadic windows vs N^order",
                  dict(d=1, K=_bernstein_K, N_list=[4, 8, 16, 32, 64], trials=8)),
    "energy_increment": (_run_energy_increment, "modified-energy increments across I-operator cutoffs",
                         dict(d=2, K=64, s=1.5, N_list=[4, 8, 16, 32], dt=1e-5, T=0.4)),
    "norm_growth": (_run_norm_growth, "long-time Sobolev growth with linear control run",
                    dict(d=2, K=32, s=2.0, dt=0.01, T=200.0)),
    "conservation": (_run_conservation, "mass/energy drift of the splitting scheme",
                     dict(d=2, K=32, s=1.0, dt=0.005, T=10.0)),
}


# --------------------------------------------------------------------------
# Run + CLI entry points
# --------------------------------------------------------------------------

def run(cfg: ExperimentConfig, output_dir: str | None = None,
        threads: int = 1, seed_override: bool = False) -> int:
    """Execute one experiment; write results.csv + manifest.json; return exit code."""
    t_start = time.perf_counter()
    resolved, defaults_applied = _resolve(cfg)
    if output_dir is not None:
        resolved["output_dir"] = output_dir
        defaults_applied.pop("output_dir", None)
    result = EXPERIMENTS[cfg.experiment][0](resolved, threads)
    out_dir = resolved["output_dir"]
    os.makedirs(out_dir, exist_ok=True)
    # both files go to temporaries first, so a failed write leaves the previous pair
    final = {name: os.path.join(out_dir, name) for name in ("results.csv", "manifest.json")}
    tmp = {name: f"{path}.{os.getpid()}.tmp" for name, path in final.items()}
    try:
        n_rows = _write_csv(tmp["results.csv"], result.table)
        manifest = {
            "config_echo": cfg.raw_text,
            "csv_columns": list(result.table),
            "defaults_applied": defaults_applied,
            "derived": result.derived,
            "experiment": cfg.experiment,
            "resolved_config": resolved,
            "seed_override": bool(seed_override),
            "summary": result.summary,
            "taint": {"tainted": bool(result.taints), "flags": result.taints},
            "version": __version__,
            "wall_time_s": time.perf_counter() - t_start,
        }
        with open(tmp["manifest.json"], "w", encoding="utf-8") as f:
            json.dump(_jsonable(manifest), f, sort_keys=True, indent=2)
            f.write("\n")
        for name, path in final.items():
            os.replace(tmp[name], path)
    finally:
        for path in filter(os.path.exists, tmp.values()):
            os.remove(path)
    print(
        f"{cfg.experiment}: wrote {n_rows} rows to {out_dir}/results.csv"
        + (f" [tainted: {', '.join(result.taints)}]" if result.taints else "")
    )
    return 2 if result.taints else 0


def _threads_arg(value: int | None) -> int:
    if value is None:
        env = os.environ.get("OSCILLAB_THREADS", "")
        if not env:
            return 1
        try:
            value = int(env)
        except ValueError:
            raise ConfigError("OSCILLAB_THREADS", f"OSCILLAB_THREADS must be an integer, got {env!r}")
    if value < 1:
        raise ConfigError("threads", f"threads must be >= 1, got {value}")
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="oscillab",
        description="Hermite-spectral experiments for the cubic NLS with harmonic potential",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run an experiment config")
    p_run.add_argument("config", help="path to a JSON or key=value config file")
    p_run.add_argument("--output-dir", default=None, help="override output_dir")
    p_run.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_run.add_argument("--threads", type=int, default=None,
                       help="parallel scan cells (default: OSCILLAB_THREADS or 1)")
    p_val = sub.add_parser("validate", help="parse a config and print the resolved settings")
    p_val.add_argument("config")
    sub.add_parser("list-experiments", help="list experiment names")
    args = parser.parse_args(argv)

    if args.command == "list-experiments":
        for name, (_, description, _) in EXPERIMENTS.items():
            print(f"{name}: {description}")
        return 0

    try:
        with open(args.config, encoding="utf-8") as f:
            text = f.read()
    except OSError as exc:
        print(f"error: cannot read config file: {exc}", file=sys.stderr)
        return 1
    try:
        cfg = parse_config(text)
        if args.command == "validate":
            resolved, defaults_applied = _resolve(cfg)
            print(json.dumps(
                _jsonable({"resolved_config": resolved, "defaults_applied": defaults_applied}),
                sort_keys=True, indent=2,
            ))
            return 0
    except ConfigError as exc:
        print(f"config error [{exc.key}]: {exc}", file=sys.stderr)
        return 1

    seed_override = args.seed is not None
    try:
        if seed_override:
            cfg = replace(cfg, seed=_as_int("seed", args.seed, lo=0))
        threads = _threads_arg(args.threads)
        return run(cfg, output_dir=args.output_dir, threads=threads,
                   seed_override=seed_override)
    except ConfigError as exc:
        print(f"config error [{exc.key}]: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
