"""Every preset's output on a commit and on the working tree, compared byte for byte.

    python3 scripts/preset_bytes.py --base HEAD~1 [--config scripts/configs/*.cfg]

Exports --base with `git archive` into a temporary directory (as
scripts/bench_pairs.py does) and runs every experiment that the working tree's
`oscillab list-experiments` names at its preset, on both trees:
`oscillab run` with only `experiment` and `seed = 20260814`, `--threads 1` and
OpenBLAS on one thread, into the output directory `out`.  Each --config FILE
is run the same way as written, after the presets; scripts/configs/ holds the
configs of README's Determinism section.  Prints per run whether results.csv is
byte-identical and whether the manifest's resolved_config, defaults_applied and
derived blocks are equal; exits 1 on any difference.  A run that fails or whose
exit code differs counts as a difference.  Where results.csv differs, prints the
columns that only one side has and, per column of both (matched by name), the
cells that differ and, over its numeric cells, the largest absolute move and the
largest relative move off nonzero base cells.  Where a manifest block differs,
prints each differing key path with both values, as `resolved_config.K: 1954 -> None`.
"""

import argparse
import csv
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from export_rev import ROOT, export_rev

SEED = 20260814
BLOCKS = ("resolved_config", "defaults_applied", "derived")


def oscillab(tree: Path, cwd: Path, *args: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "OPENBLAS_NUM_THREADS": "1",
           "OSCILLAB_THREADS": "1"}
    return subprocess.run([sys.executable, "-m", "oscillab", *args], cwd=cwd, env=env,
                          capture_output=True, text=True)


def run_config(tree: Path, cwd: Path, text: str):
    """(exit code, results.csv bytes, the manifest's BLOCKS) of one run of a config."""
    cwd.mkdir(parents=True, exist_ok=True)
    (cwd / "run.cfg").write_text(text, encoding="utf-8")
    rc = oscillab(tree, cwd, "run", "run.cfg", "--threads", "1", "--output-dir", "out").returncode
    out = cwd / "out"  # relative, so resolved_config is the same on both trees
    if rc not in (0, 2):
        return rc, None, None
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    return rc, (out / "results.csv").read_bytes(), {k: manifest[k] for k in BLOCKS}


def column_moves(base: bytes, change: bytes) -> list[str]:
    """One line per column that only one of two results.csv files has, and one per
    column of both, matched by name, whose cells differ."""
    rows_b, rows_c = (list(csv.reader(io.StringIO(b.decode("utf-8")))) for b in (base, change))
    if len(rows_b) != len(rows_c):
        return [f"  row count differs ({len(rows_b) - 1} / {len(rows_c) - 1} rows)"]
    lines = [f"  {name}: only in the {side}" for side, head, other in (
        ("base", rows_b[0], rows_c[0]), ("change", rows_c[0], rows_b[0]))
        for name in head if name not in other]
    for j, name in enumerate(rows_b[0]):
        if name not in rows_c[0]:
            continue
        k = rows_c[0].index(name)
        pairs = [(b[j], c[k]) for b, c in zip(rows_b[1:], rows_c[1:]) if b[j] != c[k]]
        if not pairs:
            continue
        abs_move = rel_move = 0.0
        for b, c in pairs:
            try:
                move, fb = abs(float(c) - float(b)), float(b)
            except ValueError:
                continue  # a non-numeric cell is only counted
            abs_move = max(abs_move, move)
            if fb != 0.0:
                rel_move = max(rel_move, move / abs(fb))
        lines.append(f"  {name}: {len(pairs)} of {len(rows_b) - 1} cells differ, largest move "
                     f"{abs_move:.3g} absolute, {rel_move:.3g} relative")
    return lines


class _Absent:
    def __repr__(self) -> str:
        return "<absent>"


ABSENT = _Absent()


def key_moves(base, change, path: str) -> list[str]:
    """One line per key path under `path` whose values differ between two manifest
    blocks: `path: base -> change`, a key missing on one side shown as <absent>."""
    if isinstance(base, dict) and isinstance(change, dict):
        return [line for key in sorted(base.keys() | change.keys())
                for line in key_moves(base.get(key, ABSENT), change.get(key, ABSENT),
                                      f"{path}.{key}")]
    return [] if base == change else [f"  {path}: {base!r} -> {change!r}"]


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--base", required=True, help="commit to compare the working tree against")
    p.add_argument("--config", action="extend", nargs="+", default=[], type=Path, metavar="FILE",
                   help="config files to compare as well (repeatable)")
    args = p.parse_args()
    listing = oscillab(ROOT, ROOT, "list-experiments")
    listing.check_returncode()
    presets = [line.split(":", 1)[0] for line in listing.stdout.splitlines()]
    runs = [(name, f"experiment = {name}\nseed = {SEED}\n") for name in presets]
    runs += [(str(path), path.read_text(encoding="utf-8")) for path in args.config]
    differ = 0
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp) / "base"
        sha = export_rev(args.base, base)
        print(f"base {sha}, preset seed {SEED}")
        for i, (name, text) in enumerate(runs):
            (rc_b, csv_b, man_b), (rc_c, csv_c, man_c) = (
                run_config(tree, Path(tmp) / side / str(i), text)
                for side, tree in (("base", base), ("change", ROOT)))
            same_csv = rc_b == rc_c and csv_b is not None and csv_b == csv_c
            same_man = rc_b == rc_c and man_b is not None and man_b == man_c
            differ += not (same_csv and same_man)
            print(f"{name}: results.csv {'equal' if same_csv else 'different'}, "
                  f"manifest {'equal' if same_man else 'different'} (exit {rc_b}/{rc_c})")
            if csv_b is not None and csv_c is not None and not same_csv:
                print("\n".join(column_moves(csv_b, csv_c)))
            if man_b is not None and man_c is not None and not same_man:
                print("\n".join(line for block in BLOCKS
                                 for line in key_moves(man_b[block], man_c[block], block)))
    if differ:
        sys.exit(f"error: {differ} of {len(runs)} runs differ")


if __name__ == "__main__":
    main()
