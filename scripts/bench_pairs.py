"""Alternating base/change benchmark pairs, written to a BENCH_*.json file.

    python3 scripts/bench_pairs.py --out BENCH_6.json --base HEAD~1 \
        --workload increment-d2 --seeds 901 910

Exports --base with `git archive` into a temporary directory and runs
`python3 perfbench/run.py --workload W --seed S --seconds 30 --trace 0` on it and
on the working tree, one pair per seed: the same seed on both sides, the order
swapped every pair.  It takes at least ten seeds: with six pairs, a one-sided
result still has odds 1/32 under no change.  For each end-to-end metric of
BENCHMARK.json the file gets every pair's values, each side's quartiles (q1,
median, q3), the pairs the change won and `clears_spread`: the change won at
least 9 in 10 of the pairs and the medians differ by more than the base's q3 - q1.
The summary's `runs` gives each side's `correct` (every run correct) and its
`failed` and `attempted` operations.  The script exits 1 when a run is not
correct or when the change fails a larger share of its operations than the
base.  An existing --out file keeps its other workloads.
"""

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from export_rev import ROOT, export_rev

SECONDS = 30  # length of every run, the same on both sides and in every BENCH file
MIN_PAIRS = 10  # the fewest pairs a BENCH file reads a result from


def bench(tree: Path, workload: str, seed: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(SECONDS), "--trace", "0"]
    lines = subprocess.run(cmd, cwd=tree, check=True, capture_output=True, text=True).stdout.splitlines()
    run, result = json.loads(lines[-2]), json.loads(lines[-1])
    metrics = {k: m["value"] for k, m in result.pop("metrics").items()}
    return {**result, "metrics": metrics, "environment": run["environment"]}


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--out", required=True)
    p.add_argument("--base", required=True, help="commit to compare the working tree against")
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=int, nargs=2, required=True, metavar=("FIRST", "LAST"))
    args = p.parse_args()
    if args.seeds[1] - args.seeds[0] + 1 < MIN_PAIRS:
        p.error(f"--seeds needs at least {MIN_PAIRS} seeds, LAST >= FIRST + {MIN_PAIRS - 1}")
    better = {m["name"]: m["better"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    pairs = []
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "base"
        base_sha = export_rev(args.base, tree)
        for i, seed in enumerate(range(args.seeds[0], args.seeds[1] + 1)):
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            pair = {side: bench(tree if side == "base" else ROOT, args.workload, seed)
                    for side in order}
            env = pair["change"].pop("environment")
            pair["base"].pop("environment")
            pairs.append({"seed": seed, "first": order[0], **pair})
            print(json.dumps(pairs[-1]), file=sys.stderr)
    runs = {side: {"correct": all(pr[side]["correct"] for pr in pairs),
                   "failed": sum(pr[side]["failed"] for pr in pairs),
                   "attempted": sum(pr[side]["attempted"] for pr in pairs)}
            for side in ("base", "change")}
    summary = {"runs": runs}
    for name, direction in better.items():
        vals = {side: [pr[side]["metrics"][name] for pr in pairs] for side in ("base", "change")}
        sign = 1 if direction == "higher" else -1
        quart = {side: dict(zip(("q1", "median", "q3"), statistics.quantiles(v, n=4)))
                 for side, v in vals.items()}
        wins = sum(sign * (c - b) > 0 for b, c in zip(vals["base"], vals["change"]))
        gap = sign * (quart["change"]["median"] - quart["base"]["median"])
        summary[name] = {**quart, "change_wins": wins,
                         "clears_spread": 10 * wins >= 9 * len(pairs)
                         and gap > quart["base"]["q3"] - quart["base"]["q1"]}
    out = Path(args.out)
    doc = json.loads(out.read_text()) if out.exists() else {}
    doc.setdefault("workloads", {})[args.workload] = {
        "base": base_sha, "seconds": SECONDS, "pairs": pairs, "summary": summary, "environment": env}
    out.write_text(json.dumps(doc, indent=1) + "\n")
    base, change = runs["base"], runs["change"]
    if not (base["correct"] and change["correct"]):
        sys.exit("error: a run is not correct")
    if change["failed"] * base["attempted"] > base["failed"] * change["attempted"]:
        sys.exit(f"error: the change fails {change['failed']}/{change['attempted']} operations, "
                 f"the base {base['failed']}/{base['attempted']}")


if __name__ == "__main__":
    main()
