"""One-off reference figures for perfbench/README.md (not part of a benchmark run).

    python3 perfbench/reference.py > reference.txt     # about 4 minutes

Prints, with the BLAS pool pinned as in run.py:
* every acceptance preset's wall time through cli.run (single runs);
* cProfile shares (own time / total) of energy_increment at T=0.04 and of
  bilinear with trials=8;
* the single-call reference figures: energy_increment T=0.05, norm_growth
  T=100, gauss_hermite_rule(3910), strang_step at (2,64) and (2,32), and one
  bilinear trial at N=64 and N=4.
"""

from __future__ import annotations

import contextlib
import cProfile
import io
import json
import math
import pstats
import statistics
import sys
import tempfile
import time
from pathlib import Path

import run as bench

PRESET_RUNS = [  # (criterion, experiment, extra keys)
    ("01", "identity_k1", {}), ("02", "orthogonality", {}), ("03", "bilinear", {}),
    ("04", "bilinear_derivative", {}), ("05", "bernstein", {}),
    ("06", "conservation", {}), ("06", "conservation", {"dt": 0.0025}),
    ("07", "energy_increment", {}), ("08", "norm_growth", {}),
]
SEED = 20260814


def _run_cli(cli, experiment, extra, out_dir) -> float:
    cfg = cli.parse_config(json.dumps({"experiment": experiment, "seed": SEED, **extra}))
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        cli.run(cfg, output_dir=str(out_dir), threads=1)
    return time.perf_counter() - t0


def _profile_shares(cli, experiment, extra, out_dir, top=6) -> list[tuple[str, float]]:
    prof = cProfile.Profile()
    prof.runcall(_run_cli, cli, experiment, extra, out_dir)
    stats = pstats.Stats(prof)
    total = stats.total_tt
    rows = sorted(stats.stats.items(), key=lambda kv: kv[1][2], reverse=True)[:top]
    return [(f"{Path(f).name}:{line}({name})", tt / total) for (f, line, name), (_, _, tt, _, _) in rows]


def _median_call(fn, n=20) -> float:
    fn()
    times = []
    for _ in range(n):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def main() -> int:
    thread_vars = bench._pin_blas_threads()
    sys.path.insert(0, str(bench.ROOT / "src"))
    from oscillab import cli, hermite, lab, solver
    from oscillab.operators import PWord

    print(json.dumps(bench._environment(thread_vars)))
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        print("\n| criterion | preset | wall time (s) |\n| --- | --- | --- |")
        for crit, experiment, extra in PRESET_RUNS:
            wall = _run_cli(cli, experiment, extra, out)
            label = experiment + (f" {extra}" if extra else "")
            print(f"| {crit} | `{label}` | {wall:.2f} |")

        for experiment, extra in (("energy_increment", {"T": 0.04}), ("bilinear", {"trials": 8})):
            print(f"\ncProfile own-time shares, {experiment} {extra}:")
            for name, share in _profile_shares(cli, experiment, extra, out):
                print(f"  {share:6.1%}  {name}")

        print("\nsingle-call figures:")
        for experiment, extra in (("energy_increment", {"T": 0.05}), ("norm_growth", {"T": 100.0}),
                                  ("bilinear", {})):
            print(f"  {experiment} {extra}: {_run_cli(cli, experiment, extra, out):.2f} s")
    t0 = time.perf_counter()
    hermite.gauss_hermite_rule(3910)
    print(f"  gauss_hermite_rule(3910): {time.perf_counter() - t0:.2f} s")
    for d, K in ((2, 64), (2, 32)):
        basis = hermite.HermiteBasis(d, K)
        u = hermite.SpectralField(basis, (1.0 + 0.5j) * 0.01 * (basis.lambda_sq < 40))
        cfg = solver.SolverConfig(dt=1e-3, T=1e-3)
        print(f"  strang_step at ({d},{K}): "
              f"{_median_call(lambda: solver.strang_step(u, 1e-3, cfg)) * 1e3:.2f} ms")
    ident = PWord.identity()
    for N in (64, 4):
        axis = hermite.HermiteBasis(1, lab.bilinear_min_K(N))
        trial = _median_call(lambda: lab.derivative_bilinear_ratio(
            axis, 2, ident, ident, N, 2, math.pi, 1, SEED), n=5)
        print(f"  one bilinear trial at N={N}, M=2: {trial * 1e3:.1f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
