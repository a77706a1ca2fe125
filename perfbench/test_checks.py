"""Self-test of the benchmark's correctness checks, on the quick workloads.

    python3 -m pytest perfbench/test_checks.py -q

Every check must pass on the program's own outputs and must reject a result
corrupted on purpose: a perturbed manifest summary, a non-constant
linear-branch norm, a flipped CSV byte, and so on, one corruption per check.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402
import workloads as W  # noqa: E402
from layers import Tracer, build_setup  # noqa: E402
from oscillab import cli  # noqa: E402
from oscillab.hermite import HermiteBasis, QuadratureRule  # noqa: E402

SEED = 3
BILINEAR_AXIS = W._part("bilinear", quick=True).setup[0][:2]  # (d, K) of its 1-D basis


@pytest.fixture(scope="module")
def quick(tmp_path_factory):
    """name -> (workload, outputs of one quick round, context), built once."""
    cache = {}

    def get(name):
        if name not in cache:
            wl = W.workload(name, quick=True)
            bases, _, _ = build_setup(wl.setup, Tracer(False))
            outs = []
            for i, config in enumerate(wl.configs):
                text = W.config_text(config, SEED)
                out_dir = tmp_path_factory.mktemp(f"{name}-{i}")
                _, rc, error = bench._run_pass(cli, text, out_dir, Tracer(False), False)
                outs.append(W.read_output(json.loads(text), rc, error, out_dir))
            rules = {key: basis.rule for key, basis in bases.items()}
            cache[name] = (wl, outs, W.Context(SEED, rules))
        return cache[name]

    return get


def _tally(wl, outs, ctx, references):
    """Checks of one round, its repeat check made against `references` (CSV bytes)."""
    tally = bench.check_round(wl, outs, ctx)
    digest = [hashlib.sha256(o.csv).hexdigest() for o in outs]
    bench.check_repeats([o.config for o in outs],
                        [digest, [hashlib.sha256(r).hexdigest() for r in references]],
                        [tally, bench.Tally()])
    return tally


# -- corruptions: each takes (outputs, context) and damages one thing -----------

def _scale_rows(out, col, select_col, pick, factor):
    keys = [float(v) for v in out.cols[select_col]]
    target = pick(keys)
    out.cols[col] = [repr(float(v) * factor) if k == target else v
                     for v, k in zip(out.cols[col], keys)]


def _flatten_increments(outs, ctx):  # decreasing, but alpha = 0.5
    outs[0].cols["sup_increment"] = [repr(1e-6 * float(n) ** -0.5) for n in outs[0].cols["N"]]


def _heavier(rule):
    return QuadratureRule(rule.nodes, rule.weights * (1 + 1e-6), rule.weight_exponent)


def _heavier_energy_rule(outs, ctx):
    old = ctx.energy_basis
    basis = HermiteBasis(old.d, old.K)
    basis.__dict__["rule"] = _heavier(old.rule)
    ctx.energy_basis = basis


def _heavier_rule(key):
    def corrupt(outs, ctx):
        ctx.rules = {**ctx.rules, key: _heavier(ctx.rules[key])}
    return corrupt


def _nudged_node(key):
    def corrupt(outs, ctx):
        old = ctx.rules[key]
        nodes = old.nodes.copy()
        nodes[0] = np.nextafter(nodes[0], 0.0)
        ctx.rules = {**ctx.rules, key: QuadratureRule(nodes, old.weights, old.weight_exponent)}
    return corrupt


def _summary(path, delta, index=0):
    def corrupt(outs, ctx):
        node = outs[index].manifest["summary"]
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] += delta
    return corrupt


def _uneven_linear_norm(outs, ctx):
    out = outs[0]
    last = max(i for i, b in enumerate(out.cols["branch"]) if b == "linear")
    out.cols["hs_norm"][last] = repr(float(out.cols["hs_norm"][last]) * (1 + 1e-9))


def _linear_growth(outs, ctx):
    out = outs[0]
    out.cols["hs_norm"] = [repr(max(float(t), 1e-3)) if b == "nonlinear" else h
                           for t, h, b in zip(out.cols["t"], out.cols["hs_norm"], out.cols["branch"])]


def _first_nonresonant(out, col, value):
    i = out.cols["resonant"].index("False")
    out.cols[col][i] = repr(value)


def _passing_tuple_fails(outs, ctx):
    """A tuple outside the known fault (exact |L0| > 1e-10) fails the identity."""
    out = outs[1]
    _, L0 = W.identity_d2_reference(out.config)
    i = next(i for i, (r, f) in enumerate(zip(out.cols["residual"], out.cols["resonant"]))
             if f == "False" and float(r) <= W.IDENTITY_TOL and abs(L0[i]) > W.KNOWN_FAULT_L0)
    out.cols["residual"][i] = "1.0"


def _misflagged_tuple(outs, ctx):
    out = outs[1]
    i = out.cols["resonant"].index("False")
    out.cols["resonant"][i] = "True"


def _largest_L0_off(outs, ctx):
    out = outs[1]
    L0 = [abs(float(v)) for v in out.cols["L0"]]
    i = L0.index(max(L0))
    out.cols["L0"][i] = repr(float(out.cols["L0"][i]) * (1 + 1e-9))


def _ground_L0_off(outs, ctx):
    out = outs[0]
    i = next(i for i in range(len(out.cols["L0"]))
             if all(out.cols[f"mu_sq_{j}"][i] == "1" for j in range(1, 5)))
    out.cols["L0"][i] = repr(float(out.cols["L0"][i]) + 1e-12)


def _flat_orthogonality(outs, ctx):
    outs[3].cols["max_abs_L0"] = ["1.0"] * len(outs[3].cols["max_abs_L0"])


CORRUPTIONS = {  # part -> check -> corruption of that part's outputs
    "increment": {
        "alpha_at_least_0.8": _flatten_increments,
        "summary_matches_csv": _summary(["alpha"], 1e-6),
        "n_steps": _summary(["diagnostics", "n_steps"], 1),
        "energy_closed_form": _heavier_energy_rule,
    },
    "growth": {
        "linear_norm_constant": _uneven_linear_norm,
        "exponent_at_most_0.87": _linear_growth,
        "summary_matches_csv": _summary(["exponent_nonlinear"], 1e-6),
        "n_steps": _summary(["diagnostics_nonlinear", "n_steps"], 1),
    },
    "bilinear": {
        "raw_exponent_band": lambda o, c: _scale_rows(o[0], "raw_norm", "N", max, 10.0),
        "ratio_top_over_prev_band": lambda o, c: _scale_rows(o[0], "ratio", "N", max, 2.0),
        "summary_matches_csv": _summary(["per_M", "2", "raw_exponent"], 1e-6),
        "rule_h0_quartic": _heavier_rule(BILINEAR_AXIS),
        "rule_nodes_mirror": _nudged_node(BILINEAR_AXIS),
    },
    "scans": {
        "identity_1d_residuals": lambda o, c: _first_nonresonant(o[0], "residual", 1e-6),
        "identity_1d_exact_values": _ground_L0_off,
        "identity_d2_tuples": _passing_tuple_fails,
        "identity_d2_inputs": _misflagged_tuple,
        "identity_d2_exact_L0": _largest_L0_off,
        "identity_d2_failures_are_the_fault": _passing_tuple_fails,
        "bernstein_top_over_prev": lambda o, c: _scale_rows(o[2], "ratio", "N", max, 1.5),
        "orthogonality_slope": _flat_orthogonality,
        "summary_matches_csv": _summary(["slope"], 1e-6, index=3),
    },
}


def _pass_corruptions(wl):
    """A tainted manifest and a flipped CSV byte, for every pass."""
    cases = {}
    for i, config in enumerate(wl.configs):
        tag = f"pass{i}:{config['experiment']}"

        def taint(outs, ctx, i=i):
            outs[i].manifest["taint"]["tainted"] = True

        def flip_byte(outs, ctx, i=i):
            data = bytearray(outs[i].csv)
            data[len(data) // 2] ^= 0x01
            outs[i].csv = bytes(data)

        cases[f"{tag}:exit_ok"] = taint
        cases[f"{tag}:deterministic"] = flip_byte
    return cases


def _on_part(corrupt, first: int, n: int):
    return lambda outs, ctx: corrupt(outs[first:first + n], ctx)


def _corruptions(wl) -> dict:
    """check name as tallied -> corruption of the whole round's outputs."""
    cases, first = _pass_corruptions(wl), 0
    for part in wl.parts:
        n = len(part.configs)
        for check, corrupt in CORRUPTIONS[part.name].items():
            cases[f"{part.name}.{check}"] = _on_part(corrupt, first, n)
        first += n
    return cases


CASES = [(name, check) for name in W.NAMES for check in _corruptions(W.workload(name, quick=True))]


@pytest.mark.parametrize("name", W.NAMES)
def test_every_check_has_a_corruption(name):
    for part in W.workload(name, quick=True).parts:
        assert {c.name for c in part.checks} == set(CORRUPTIONS[part.name])


@pytest.mark.parametrize("name", W.NAMES)
def test_program_outputs_pass(quick, name):
    wl, outs, ctx = quick(name)
    tally = _tally(wl, outs, ctx, [o.csv for o in outs])
    assert tally.correct, tally.first_failure
    # one exit check and one repeat check per pass
    n_checks = sum(c.count for part in wl.parts for c in part.checks)
    assert tally.attempted == n_checks + 2 * len(wl.configs)


@pytest.mark.parametrize("name,check", CASES)
def test_check_rejects_corruption(quick, name, check):
    wl, outs, ctx = quick(name)
    references = [o.csv for o in outs]
    clean = _tally(wl, outs, ctx, references).by_check[check][1]
    bad_outs, bad_ctx = copy.deepcopy(outs), copy.copy(ctx)
    _corruptions(wl)[check](bad_outs, bad_ctx)
    tally = _tally(wl, bad_outs, bad_ctx, references)
    assert tally.by_check[check][1] > clean, tally.by_check[check]
    assert tally.attempted == _tally(wl, outs, ctx, references).attempted


def test_result_counts_one_round(quick, capsys):
    """Two rounds report the attempted and failed operations of one round."""
    wl, outs, ctx = quick("scans")
    tally = _tally(wl, outs, ctx, [o.csv for o in outs])
    assert bench.main(["--workload", "scans", "--seed", str(SEED), "--seconds", "0.1",
                       "--trace", "0", "--quick"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(json.loads(lines[-2])["checks_per_round"]) >= 2
    result = json.loads(lines[-1])
    assert result["correct"]
    assert tally.by_check["scans.identity_d2_tuples"][1] > 0  # the known fault shows
    assert (result["attempted"], result["failed"]) == (tally.attempted, tally.failed)


def test_rounds_that_disagree_are_not_correct():
    a, b = bench.Tally(), bench.Tally()
    a.add("x", 4, 1, "known", known_fault=True)
    b.add("x", 4, 2, "known", known_fault=True)
    assert bench.one_round([a, a]) == (True, 4, 1)
    assert bench.one_round([a, b])[0] is False


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_carries_every_declared_metric(capsys, trace, key):
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text("utf-8"))[key]
    assert bench.main(["--workload", "growth-d2", "--seed", str(SEED), "--seconds", "0.1",
                       "--trace", str(trace), "--quick"]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
