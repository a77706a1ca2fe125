"""oscillab benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--quick]

Run from the repository root; the package is imported from ./src.  Workloads:
increment-d2, growth-d2, bilinear-d2, scans (see perfbench/README.md).

A run repeats whole rounds for about --seconds, at least two.  A round is one
pass through `oscillab.cli.run` per configuration of the workload, followed by
the untimed checks.  Before the first round and after each one, the run sets the
workload's bases up again, for about a tenth of the last round's time and at
least once (setup_s is the median), so set-up and rounds sample the same spells
of machine speed.  Every round's results.csv bytes must equal the next round's
(the last round's the first's).  Every round must give the same tally of
operations; the result line reports one round's.  With --trace 0 it prints the
end-to-end metrics; with --trace 1 it alternates untraced and traced rounds,
probes every layer, writes the spans to perfbench_out/ and prints the per-layer
metrics.  The last stdout line is {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_ROOT = ROOT / "perfbench_out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

SETUP_SHARE = 0.1  # set-up time after each round, as a share of the round's time
FIRST_SETUP_S = 0.1  # set-up time before the first round
MIN_ROUNDS = 2  # the repeat check compares rounds; a traced run needs one of each kind


def _pin_blas_threads() -> dict:
    """Fix the BLAS pool before numpy loads: the main thread plus BLAS workers stay
    within the CPUs this process may use.  Returns the variables as they were read."""
    read = {k: os.environ.get(k) for k in (*THREAD_VARS, "OSCILLAB_THREADS")}
    nproc = len(os.sched_getaffinity(0))
    for key in THREAD_VARS:
        os.environ[key] = str(max(1, nproc - 1))
    return read


def _environment(thread_vars_read: dict) -> dict:
    import numpy as np
    import scipy

    with contextlib.redirect_stdout(io.StringIO()):
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu_model = platform.processor()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu_model = next((ln.split(":", 1)[1].strip() for ln in f
                              if ln.startswith("model name")), cpu_model)
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "cpu_count": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "thread_vars_read": thread_vars_read,
        "blas_threads_set": os.environ[THREAD_VARS[0]],
        "cell_pool_threads": 1,
    }


def _run_pass(cli, text: str, out_dir: Path, tracer, traced: bool):
    """One pass through cli.run; returns (wall seconds, rc, error)."""
    from layers import instrumented

    rc, error = None, None
    shutil.rmtree(out_dir, ignore_errors=True)
    patch = instrumented(tracer) if traced else contextlib.nullcontext()
    with patch, contextlib.redirect_stdout(io.StringIO()):
        t0 = time.perf_counter()
        try:
            with tracer.span("cli.parse_config") if traced else contextlib.nullcontext():
                cfg = cli.parse_config(text)
            with tracer.span("cli.run") if traced else contextlib.nullcontext():
                rc = cli.run(cfg, output_dir=str(out_dir), threads=1)
        except Exception:  # noqa: BLE001 - a failing pass is a failed check, not a crash
            error = traceback.format_exc(limit=3)
        wall = time.perf_counter() - t0
    return wall, rc, error


class Tally:
    """Operations attempted and failed, per check name."""

    def __init__(self):
        self.by_check: dict[str, list[int]] = {}
        self.correct = True
        self.first_failure: dict[str, str] = {}

    def add(self, name: str, count: int, failed: int, detail: str, known_fault=False):
        entry = self.by_check.setdefault(name, [0, 0])
        entry[0] += count
        entry[1] += failed
        if failed:
            self.first_failure.setdefault(name, detail)
            if not known_fault:
                self.correct = False

    @property
    def attempted(self) -> int:
        return sum(a for a, _ in self.by_check.values())

    @property
    def failed(self) -> int:
        return sum(f for _, f in self.by_check.values())


def check_round(wl, outs, ctx) -> Tally:
    """The tally of one round's checks."""
    import workloads as W

    tally = Tally()
    for i, out in enumerate(outs):
        tally.add(f"pass{i}:{out.config['experiment']}:exit_ok", 1, *W.check_exit(out))
    first = 0
    for part in wl.parts:
        part_outs = outs[first:first + len(part.configs)]
        first += len(part.configs)
        for check in part.checks:
            try:
                failed, detail = check.fn(part_outs, ctx)
            except Exception:  # noqa: BLE001 - missing or malformed output fails the check
                failed, detail = check.count, traceback.format_exc(limit=2)
            tally.add(f"{part.name}.{check.name}", check.count, failed, detail, check.known_fault)
    return tally


def check_repeats(configs, digests: list[list[str]], tallies: list[Tally]) -> None:
    """Each round's results.csv must equal the next round's, the last the first's;
    the check goes into the tally of the round it starts from."""
    import workloads as W

    for k, (mine, tally) in enumerate(zip(digests, tallies)):
        other = digests[(k + 1) % len(digests)]
        for i, config in enumerate(configs):
            tally.add(f"pass{i}:{config['experiment']}:deterministic", 1,
                      *W.check_deterministic(mine[i], other[i]))


def one_round(tallies: list[Tally]) -> tuple[bool, int, int]:
    """(correct, attempted, failed) of one round.  Every round runs the same checks
    on the same inputs, so every round must give the same tally; if two differ,
    the run is not correct."""
    first = tallies[0]
    agree = all(t.by_check == first.by_check for t in tallies)
    return agree and all(t.correct for t in tallies), first.attempted, first.failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--quick", action="store_true", help="shrink the workload (self-test)")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "oscillab" / "__init__.py").is_file():
        print(f"error: no oscillab package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be >= 0", file=sys.stderr)
        return 2

    thread_vars_read = _pin_blas_threads()
    sys.path.insert(0, str(ROOT / "src"))
    import workloads as W
    from layers import Tracer, build_setup, probe, table_mib
    from oscillab import cli

    if args.workload not in W.NAMES:
        print(f"error: unknown workload {args.workload!r}; choices: {', '.join(W.NAMES)}",
              file=sys.stderr)
        return 2
    wl = W.workload(args.workload, quick=args.quick)
    env = _environment(thread_vars_read)
    tracer = Tracer(enabled=bool(args.trace))
    run_dir = OUT_ROOT / f"{wl.name}-{os.getpid()}"
    texts = [W.config_text(c, args.seed) for c in wl.configs]
    configs = [json.loads(t) for t in texts]
    setup_s, rule_s, values_s, setup = [], [], [], {}

    def set_up(budget_s: float) -> None:
        """Build the workload's bases again and again for about budget_s, at least
        once.  Only the rules and the table size are kept, not the tables."""
        stop = time.perf_counter() + budget_s
        while True:
            t0 = time.perf_counter()
            bases, r, v = build_setup(wl.setup, tracer)
            setup_s.append(time.perf_counter() - t0)
            rule_s.append(r)
            values_s.append(v)
            setup["rules"] = {key: b.rule for key, b in bases.items()}
            setup["table_mib"] = table_mib(bases, wl.setup)
            del bases
            if time.perf_counter() >= stop:
                return

    try:
        t_rounds = time.perf_counter()
        set_up(FIRST_SETUP_S)
        ctx = W.Context(args.seed, setup["rules"])

        tallies, digests = [], []
        walls = {False: [], True: []}
        cli_self, results_bytes, steps = [], 0, 0
        n_rounds = 0
        while True:
            traced = bool(args.trace) and n_rounds % 2 == 1
            outs, wall = [], 0.0
            first_span = len(tracer.spans)
            for i, text in enumerate(texts):
                dt, rc, error = _run_pass(cli, text, run_dir / str(i), tracer, traced)
                wall += dt
                outs.append(W.read_output(configs[i], rc, error, run_dir / str(i)))
            walls[traced].append(wall)
            if traced:
                cli_self.append(sum(tracer.self_time(s) for s in tracer.spans[first_span:]
                                    if s["name"] == "cli.run"))
            results_bytes = sum(len(o.csv) for o in outs)
            steps = sum(d.get("n_steps", 0) for o in outs
                        for k, d in o.manifest.get("summary", {}).items()
                        if k in ("diagnostics", "diagnostics_nonlinear"))
            digests.append([hashlib.sha256(o.csv).hexdigest() if o.csv else "" for o in outs])
            tallies.append(check_round(wl, outs, ctx))
            del outs
            n_rounds += 1
            set_up(SETUP_SHARE * wall)
            elapsed = time.perf_counter() - t_rounds
            if n_rounds >= MIN_ROUNDS and elapsed * (n_rounds + 1) / n_rounds > args.seconds:
                break
        check_repeats(configs, digests, tallies)
        correct, attempted, failed = one_round(tallies)

        wall_s = statistics.median(walls[False])
        if args.trace:
            layer = probe(wl, {}, args.seed, tracer)
            metrics = {
                "hermite.rule_build_s": (statistics.median(rule_s), "s"),
                "hermite.values_build_s": (statistics.median(values_s), "s"),
                "hermite.table_mb": (setup["table_mib"], "MiB"),
                **{k: (v, "GFLOP/s" if k.endswith("gflop_per_s") else "s") for k, v in layer.items()},
                "solver.steps": (steps, "count"),
                "cli.parse_s": (statistics.median(tracer.durations("cli.parse_config")), "s"),
                "cli.self_s": (statistics.median(cli_self), "s"),
                "cli.results_bytes": (results_bytes, "bytes"),
                "trace.overhead_s": (statistics.median(walls[True]) - wall_s, "s"),
            }
            OUT_ROOT.mkdir(exist_ok=True)
            tracer.dump(OUT_ROOT / f"spans-{wl.name}-seed{args.seed}.json",
                        {"workload": wl.name, "seed": args.seed, "environment": env})
        else:
            # Every result line carries every metric.  A workload without solver
            # steps (or bilinear trials) counts its cli.run passes per round instead.
            passes_per_s = len(texts) / wall_s
            metrics = {
                "wall_s": (wall_s, "s"),
                "setup_s": (statistics.median(setup_s), "s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
                "steps_per_s": (wl.steps / wall_s if wl.steps else passes_per_s, "steps/s"),
                "trials_per_s": (wl.trials / wall_s if wl.trials else passes_per_s, "trials/s"),
            }
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    print(json.dumps({
        "workload": wl.name, "seed": args.seed, "trace": args.trace, "quick": args.quick,
        "rounds": n_rounds, "walls_s": walls[False], "traced_walls_s": walls[True],
        "setup_reps": len(setup_s),
        "setup_reps_s": setup_s[:50], "attempted_per_round": attempted,
        "failed_per_round": failed, "checks_per_round": [t.by_check for t in tallies],
        "first_failure": {k: v for t in tallies for k, v in t.first_failure.items()},
        "environment": env,
    }))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
