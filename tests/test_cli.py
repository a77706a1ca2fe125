"""Tests for config parsing, the experiment drivers, and the CLI contract.

The reproducibility contract: identical config + seed produce byte-identical
results.csv, independent of --threads.  Exit codes: 0 success, 1 config or
runtime error, 2 completed-but-tainted run.
"""

import contextlib
import importlib
import io
import json
import math
import os
import pkgutil
import subprocess
import sys
import tempfile
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import oscillab
from oscillab import cli, lab
from oscillab.cli import (
    ConfigError,
    EXPERIMENTS,
    main,
    parse_config,
    run,
)
from oscillab.hermite import HermiteBasis
from oscillab.operators import window_degree

FAST_IDENTITY = "experiment = identity_k1\nK = 5\nseed = 42\n"


def _write(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

def test_parse_key_value_and_json_agree():
    kv = parse_config("experiment = bilinear\nseed = 7\nN_list = [4, 8]\nT = 3.5\n")
    js = parse_config(json.dumps(
        {"experiment": "bilinear", "seed": 7, "N_list": [4, 8], "T": 3.5}
    ))
    # identical settings; only the raw_text echo differs between formats
    assert replace(kv, raw_text="") == replace(js, raw_text="")
    assert kv.keys == {"N_list": [4, 8], "T": 3.5}


@pytest.mark.parametrize("text,field,value", [
    ("# a comment\n\nexperiment = identity_k1\nseed = 1\n", "experiment", "identity_k1"),
    ("experiment = bilinear  # note\nseed = 1\n", "experiment", "bilinear"),
    ("experiment = bilinear\nseed = 1\nN_list = [4, 8] # note\n", "N_list", [4, 8]),
    # a '#' inside a quoted value is kept; one after it starts a comment
    ('experiment = bilinear\nseed = 1\noutput_dir = "runs/#1"  # "a" note\n', "output_dir", "runs/#1"),
    ('experiment = bilinear\nseed = 1\noutput_dir = "a\\"#b"\n', "output_dir", 'a"#b'),
    ('{"experiment": "bilinear", "seed": 1, "output_dir": "runs/#1"}', "output_dir", "runs/#1"),
])
def test_parse_config_ignores_comments_and_blanks(text, field, value):
    cfg = parse_config(text)
    assert {"experiment": cfg.experiment, **cfg.keys}[field] == value


def test_unknown_key_is_named_in_error():
    with pytest.raises(ConfigError) as err:
        parse_config("experiment = identity_k1\nseed = 1\nwavelength = 3\n")
    assert err.value.key == "wavelength"
    assert "wavelength" in str(err.value)


def test_missing_required_keys():
    with pytest.raises(ConfigError) as err:
        parse_config("seed = 1\n")
    assert err.value.key == "experiment"
    with pytest.raises(ConfigError) as err:
        parse_config("experiment = identity_k1\n")
    assert err.value.key == "seed"


def test_unknown_experiment_rejected():
    with pytest.raises(ConfigError) as err:
        parse_config("experiment = warp_drive\nseed = 1\n")
    assert err.value.key == "experiment"


@pytest.mark.parametrize(
    "line,key",
    [
        ("d = 4", "d"),
        ("K = 0", "K"),
        ("s = 0.0", "s"),
        ("dt = -0.1", "dt"),
        ("T = 0", "T"),
        ("trials = 0", "trials"),
        ("seed = -3", "seed"),
        ("K = true", "K"),
        ("N_list = [4, 0]", "N_list"),
        ("N_list = 4", "N_list"),
        ("K = 10\nK = 20", "K"),  # a key given twice, not its last value
        ('{"experiment": "identity_k1", "seed": 1, "K": 10, "K": 20}', "K"),
    ],
)
def test_range_and_type_validation(line, key):
    if line.startswith("{"):  # a whole JSON config
        text = line
    elif key == "seed":
        text = "experiment = identity_k1\n" + line + "\n"
    else:
        text = "experiment = identity_k1\nseed = 1\n" + line + "\n"
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert err.value.key.startswith(key)


@pytest.mark.parametrize("text,key", [
    ("experiment = energy_increment\ns = 0.0", "s"),
    ("experiment = conservation\ndt = -0.1", "dt"),
    ("experiment = bilinear\nT = 0", "T"),
    ("experiment = bernstein\nN_list = [4, 0]", "N_list[1]"),
    ("experiment = bilinear\nM_list = 4", "M_list"),
])
def test_range_checks_on_the_rows_that_read_the_key(text, key):
    with pytest.raises(ConfigError) as err:
        parse_config(text + "\nseed = 1\n")
    assert err.value.key == key
    assert "must be" in str(err.value)


@pytest.mark.parametrize("key", ["dt", "T", "s"])
@pytest.mark.parametrize("value", ["Infinity", "-Infinity"])
@pytest.mark.parametrize("form", ["key_value", "json"])
def test_non_finite_numbers_rejected(key, value, form):
    # json.loads accepts Infinity; an infinite dt once ran to a single t = 0 row
    # with exit code 0, and an infinite T died in an OverflowError
    if form == "json":
        text = f'{{"experiment": "norm_growth", "seed": 1, "{key}": {value}}}'
    else:
        text = f"experiment = norm_growth\nseed = 1\n{key} = {value}\n"
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert err.value.key == key
    assert "finite" in str(err.value)


def test_infinite_dt_run_fails_naming_key(tmp_path, capsys):
    cfg_path = _write(tmp_path, "experiment = conservation\nseed = 1\ndt = Infinity\n")
    assert main(["run", cfg_path, "--output-dir", str(tmp_path / "out")]) == 1
    assert "config error [dt]" in capsys.readouterr().err
    assert not (tmp_path / "out" / "results.csv").exists()


def test_config_is_frozen():
    cfg = parse_config(FAST_IDENTITY)
    with pytest.raises(Exception):
        cfg.K = 10
    with pytest.raises(TypeError):  # nor can a key be set through the mapping
        cfg.keys["K"] = 10


def test_registry_covers_every_preset_experiment():
    assert list(EXPERIMENTS) == [
        "identity_k1",
        "orthogonality",
        "bilinear",
        "bilinear_derivative",
        "bernstein",
        "energy_increment",
        "norm_growth",
        "conservation",
    ]


# ---------------------------------------------------------------------------
# the run/validate/list-experiments commands
# ---------------------------------------------------------------------------

def test_list_experiments_output(capsys):
    assert main(["list-experiments"]) == 0
    out = capsys.readouterr().out
    for name in EXPERIMENTS:
        assert name in out


def test_validate_valid_and_invalid(tmp_path, capsys):
    good = _write(tmp_path, FAST_IDENTITY)
    assert main(["validate", good]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["resolved_config"]["experiment"] == "identity_k1"
    assert payload["defaults_applied"]["d"] == 1

    bad = _write(tmp_path, "experiment = identity_k1\nK = -2\nseed = 1\n", "bad.cfg")
    assert main(["validate", bad]) == 1
    assert "config error [K]" in capsys.readouterr().err


def _refuse_to_drive(monkeypatch):
    """Replace every experiment's run function by one that fails: nothing may run."""
    def never(resolved, threads):
        raise AssertionError("the config was run")

    for name, (_, description, preset) in list(EXPERIMENTS.items()):
        monkeypatch.setitem(EXPERIMENTS, name, (never, description, preset))


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize("text,key", [
    ("experiment = energy_increment\nN_list = [3, 5]\n", "N_list"),
    ("experiment = energy_increment\nN_list = [4, 8, 12]\n", "N_list"),
    ("experiment = energy_increment\nN_list = [2, 2, 4]\n", "N_list"),  # an N twice
    ("experiment = energy_increment\ns = 0.5\n", "s"),
    ("experiment = energy_increment\ns = 1\n", "s"),
    ("experiment = bernstein\nN_list = [4, 6, 8]\n", "N_list"),
    ("experiment = identity_k1\nK = 25\n", "K"),
    ("experiment = conservation\nN_list = [4]\n", "N_list"),  # a key the row does not read
    ("experiment = conservation\ndt = 1e-300\n", "dt"),  # ~1e301 steps
    ("experiment = conservation\nd = 3\nK = 400\n", "K"),  # an 802^3 complex grid, 8.2 GB
    ("experiment = identity_k1\nd = 3\nK = 12000\n", "K"),  # a 1-D value table of 2.1 GiB
    ("experiment = identity_k1\nd = 2\nK = 4393\n", "K"),  # over the basis's hard cap
    ("experiment = bernstein\nN_list = [128]\n", "N_list"),  # a window of degree 16383
    ("experiment = bernstein\nd = 3\nN_list = [32]\n", "N_list"),  # 4 boxes of 1025^3, 64 GiB
    ("experiment = bernstein\nK = 63\n", "K"),  # its windows fix the degree: it reads no K
    ("experiment = bernstein\nd = 2\nN_list = [1, 2]\n", "N_list"),  # Delta_1 is empty at d >= 2
    ("experiment = bernstein\nd = 3\nN_list = [1]\n", "N_list"),
    # (2dK + d)^(2s) overflows: the solver rows once wrote NaN or a wrong 0.0, untainted
    ("experiment = energy_increment\nK = 16\ndt = 1e-4\nT = 0.001\ns = 400\n", "s"),
    ("experiment = norm_growth\nK = 8\nT = 1\ns = 1000\n", "s"),
    ("experiment = conservation\nK = 8\nT = 0.1\ns = 1000\n", "s"),
    ("experiment = bilinear\nN_list = [4, 8]\nM_list = [8]\n", "M_list"),  # the cell N=4, M=8
    ("experiment = bilinear\nK = 2000\n", "K"),  # the bilinear rows read no K
    ("experiment = bilinear_derivative\nK = 2000\n", "K"),
    ("experiment = bilinear\nN_list = [128]\n", "N_list"),  # draws of degree 7385
])
def test_run_time_failures_refused_up_front(tmp_path, capsys, monkeypatch, command, text, key):
    _refuse_to_drive(monkeypatch)
    path = _write(tmp_path, text + "seed = 1\n")
    extra = ["--output-dir", str(tmp_path / "out")] if command == "run" else []
    assert main([command, path, *extra]) == 1
    assert f"config error [{key}]" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("text", [
    "experiment = energy_increment\nN_list = [1, 2, 4]\ndt = 1e-3\nT = 0.002\n",
    "experiment = norm_growth\nT = 1\n",
    "experiment = conservation\nT = 0.1\n",
])
def test_the_largest_s_accepted_runs_to_finite_output(tmp_path, capsys, text):
    d, K = 2, 8
    s_max = math.log(sys.float_info.max) / (2 * math.log(2 * d * K + d))  # 100.6
    over = _write(tmp_path, f"{text}d = {d}\nK = {K}\ns = {math.nextafter(s_max, math.inf)!r}\n"
                            "seed = 1\n", "over.cfg")
    assert main(["validate", over]) == 1
    assert "config error [s]" in capsys.readouterr().err
    path = _write(tmp_path, f"{text}d = {d}\nK = {K}\ns = {s_max!r}\nseed = 1\n")
    assert main(["run", path, "--output-dir", str(tmp_path / "out")]) == 0
    _, *rows = (tmp_path / "out" / "results.csv").read_text().splitlines()
    cells = [cell for row in rows for cell in row.split(",") if cell not in ("nonlinear", "linear")]
    assert cells and all(math.isfinite(float(cell)) for cell in cells)


@pytest.mark.parametrize("text", [
    "experiment = energy_increment\nN_list = [1, 2, 4]\ns = 1.01\n",
    "experiment = bernstein\nN_list = [2, 16]\n",
    "experiment = bernstein\nd = 2\nN_list = [64]\n",  # 4 boxes of 4097^2, 1.0 GiB
    "experiment = bernstein\nd = 3\nN_list = [16]\n",  # 4 boxes of 257^3, 1.0 GiB
    "experiment = bilinear\nN_list = [6, 12]\n",  # any N: the time rule needs no dyadic N
    "experiment = identity_k1\nK = 24\n",
    "experiment = identity_k1\nd = 2\nK = 40\n",
    "experiment = conservation\ndt = 1e-6\n",  # T / dt = 1e7 steps
    "experiment = conservation\nd = 3\nK = 250\n",  # 502^3 * 16 B, just below 2 GiB
    "experiment = identity_k1\nd = 3\nK = 400\n",  # 1-D tables: no 802^3 grid is built
    "experiment = identity_k1\nd = 3\nK = 4392\n",  # the largest basis degree
    "experiment = bilinear\nT = 200\n",  # the time rule does not grow with T:
    "experiment = bilinear\nT = 400\n",  # B + 1 nodes at a multiple of pi, 2B + 1 else
    "experiment = bilinear\nT = 1e6\n",
    "experiment = bilinear\nN_list = [8, 8]\nM_list = [2, 8]\n",  # M = N is a cell
])
def test_validate_accepts_the_edges_of_the_up_front_checks(tmp_path, capsys, monkeypatch, text):
    _refuse_to_drive(monkeypatch)
    assert main(["validate", _write(tmp_path, text + "seed = 1\n")]) == 0
    assert "resolved_config" in capsys.readouterr().out


@pytest.mark.parametrize("text,draw_K", [
    ("experiment = bilinear\nN_list = [4]\ntrials = 1\n", lab.bilinear_min_K(4)),
    ("experiment = bilinear_derivative\nN_list = [4]\ntrials = 1\n", lab.bilinear_min_K(4) + 1),
    # one axis takes all of N^2
    ("experiment = bilinear\nd = 1\nN_list = [8]\ntrials = 1\n", lab.bilinear_min_K(8, 1)),
    ("experiment = bernstein\nN_list = [2, 4]\ntrials = 1\n", window_degree(4, 1)),
    ("experiment = bernstein\nd = 2\nN_list = [2, 4]\ntrials = 1\n", window_degree(4, 2)),
    ("experiment = bernstein\nN_list = [1]\ntrials = 1\n", 0),  # one mode at d = 1, m = 0
])
def test_validate_resolves_the_K_that_run_uses(tmp_path, capsys, text, draw_K):
    path = _write(tmp_path, text + "seed = 1\n")
    assert main(["validate", path]) == 0
    validated = json.loads(capsys.readouterr().out)
    out = tmp_path / "out"
    assert main(["run", path, "--output-dir", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["resolved_config"]["K"] == validated["resolved_config"]["K"]
    assert manifest["defaults_applied"].get("K") == validated["defaults_applied"].get("K")
    # these rows read no K: their windows fix the basis degree
    assert validated["resolved_config"]["K"] is None
    assert "K" not in manifest["defaults_applied"]
    assert manifest["derived"]["K"] == draw_K and "K_needed" not in manifest["derived"]
    if "bilinear" in text:  # one Gauss rule per cell
        Q_by_cell = manifest["derived"]["Q_by_cell"]
        assert Q_by_cell.keys() == manifest["derived"]["normalization_by_cell"].keys()
        assert all(1 <= Q <= 2 * manifest["derived"]["K"] + 1 for Q in Q_by_cell.values())
        assert manifest["derived"]["P_by_cell"].keys() == Q_by_cell.keys()
        assert "time_nodes_max" not in manifest["derived"]
        # each cell's seconds by stage, outside derived (which preset_bytes compares)
        seconds = manifest["summary"]["seconds_by_cell"]
        assert seconds.keys() == Q_by_cell.keys()
        assert all(set(sec) == {"nodes", "sweep", "kernel"} and min(sec.values()) >= 0.0
                   for sec in seconds.values())
        assert not any("seconds" in key for key in manifest["derived"])


@pytest.mark.parametrize("experiment", ["bilinear", "bilinear_derivative"])
@pytest.mark.parametrize("d,T", [(d, T) for d in (1, 2, 3) for T in (math.pi, 7.0)])
def test_bilinear_price_bounds_the_kernel_arrays(tmp_path, monkeypatch, experiment, d, T):
    # the kernel's large arrays in every cell: v's rows on all the rule's nodes, from
    # which _v_candidates picks the nodes, and the value table from the cell's sweep on
    # them; the price must bound both, so a bound one byte below the largest must refuse
    # the config on N_list.  The FFTs run in one buffer of at most _SERIES_BLOCK bytes
    sizes = {}

    def spy(name, fn, nbytes):
        def wrapped(*args, **kwargs):
            out = fn(*args, **kwargs)
            sizes.setdefault(name, []).append(nbytes(out))
            return out
        return wrapped

    monkeypatch.setattr(np.fft, "fft", spy("fft", np.fft.fft, lambda out: out.nbytes))
    monkeypatch.setattr(lab, "_mirrored_values",
                        spy("rows", lab._mirrored_values, lambda out: out.nbytes))
    monkeypatch.setattr(lab, "_rule_columns",
                        spy("table", lab._rule_columns, lambda out: out[1].nbytes))
    text = (f"experiment = {experiment}\nd = {d}\nT = {T!r}\nN_list = [4, 8, 16]\n"
            "M_list = [2, 4]\ntrials = 4\nseed = 3\n")
    assert main(["run", _write(tmp_path, text), "--output-dir", str(tmp_path / "out")]) == 0
    # one row set and one table per cell, at least one FFT per axis and trial
    assert len(sizes["rows"]) == len(sizes["table"]) == 6 and len(sizes["fft"]) >= 6 * 4 * d
    assert max(sizes["fft"]) <= lab._SERIES_BLOCK
    monkeypatch.setattr(cli, "_MAX_ARRAY_BYTES", max(sizes["rows"] + sizes["table"]) - 1)
    with pytest.raises(ConfigError) as refused:
        cli._resolve(parse_config(text))
    assert refused.value.key == "N_list"


@pytest.mark.parametrize("d,K", [(1, 16), (3, 4)])
def test_energy_increment_manifest_records_the_band_degree(tmp_path, d, K):
    # the band sits on the top three total degrees, d K - 2 .. d K
    text = (f"experiment = energy_increment\nd = {d}\nK = {K}\nN_list = [2, 4]\ndt = 0.001\n"
            "T = 0.002\nseed = 3\n")
    out = tmp_path / "e"
    assert main(["run", _write(tmp_path, text), "--output-dir", str(out)]) == 0
    ring_degree = json.loads((out / "manifest.json").read_text())["derived"]["datum"]["ring_degree"]
    basis = HermiteBasis(d, K)
    degrees = (basis.lambda_sq - d) // 2
    assert ring_degree == d * K == degrees[cli._increment_datum(basis, 3).coeffs != 0].max()


# valid values for every optional key: every combination of them passes the up-front checks
_VALID = {
    "d": st.integers(1, 3),
    "K": st.integers(1, 24),
    "s": st.floats(1.0, 8.0, exclude_min=True),
    "dt": st.floats(1e-3, 1.0),
    "T": st.floats(1e-3, 10.0),
    "trials": st.integers(1, 100),
    "N_list": st.lists(st.sampled_from([1, 2, 4, 8]), min_size=1, max_size=4),
    "M_list": st.lists(st.integers(1, 8), min_size=1, max_size=3),
    "output_dir": st.from_regex(r"out/[a-z0-9_]{0,8}", fullmatch=True),
}
_COMMON = ("experiment", "seed", "output_dir")


@st.composite
def _row_config(draw):
    name = draw(st.sampled_from(list(EXPERIMENTS)))
    keys = draw(st.sets(st.sampled_from(sorted(EXPERIMENTS[name][2]) + ["output_dir"])))
    if name == "bernstein" and "d" in keys:  # the preset N_list at d = 3 gives 4097^3 boxes
        keys.add("N_list")
    config = {"experiment": name, "seed": draw(st.integers(0, 2**32)),
              **{key: draw(_VALID[key]) for key in sorted(keys)}}
    if name == "energy_increment" and "N_list" in keys:  # it refuses a repeated N
        config["N_list"] = list(dict.fromkeys(config["N_list"]))
    if name == "bernstein" and config.get("d", 1) > 1:  # Delta_1 holds no mode at d >= 2
        config["N_list"] = [N for N in config["N_list"] if N > 1] or [2]
    if "M_list" in EXPERIMENTS[name][2]:  # every bilinear cell has N >= M
        lists = {**EXPERIMENTS[name][2], **config}
        assume(min(lists["N_list"]) >= max(lists["M_list"]))
    return config


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=_row_config())
def test_row_configs_parse_alike_and_resolve_every_row_key(monkeypatch, data):
    _refuse_to_drive(monkeypatch)
    key_value = "".join(f"{key} = {json.dumps(value)}\n" for key, value in data.items())
    kv, js = parse_config(key_value), parse_config(json.dumps(data))
    assert replace(kv, raw_text="") == replace(js, raw_text="")
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "row.cfg")
        with open(path, "w", encoding="utf-8") as f:
            f.write(key_value)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["validate", path]) == 0
    resolved = json.loads(out.getvalue())["resolved_config"]
    preset = EXPERIMENTS[data["experiment"]][2]
    for key in (*preset, *_COMMON):
        assert resolved[key] is not None
        assert resolved[key] == data.get(key, resolved[key])
    for key in _VALID:
        if key not in preset and key != "output_dir":
            assert resolved[key] is None


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(list(EXPERIMENTS)),
       key=st.one_of(st.sampled_from(sorted(_VALID)), st.from_regex(r"[A-Za-z_]\w{0,10}", fullmatch=True)),
       value=st.integers(1, 4))
def test_a_key_outside_the_row_is_refused_by_name(name, key, value):
    assume(key not in (*EXPERIMENTS[name][2], *_COMMON))
    text = f"experiment = {name}\nseed = 1\n{key} = {value}\n"
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert err.value.key == key
    assert repr(key) in str(err.value)


def _readme_lines():
    return (Path(__file__).resolve().parent.parent / "README.md").read_text().splitlines()


def _readme_key_table():
    """The README's experiment x key table: {experiment: {key: cell text}}."""
    lines = _readme_lines()
    start = lines.index("| experiment | d | K | s | N_list | M_list | dt | T | trials |")
    header = [c.strip() for c in lines[start].strip("|").split("|")]
    table = {}
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            break
        cells = [c.strip().strip("`") for c in line.strip("|").split("|")]
        table[cells[0]] = dict(zip(header[1:], cells[1:]))
    return table


def test_readme_key_table_is_the_registry():
    table = _readme_key_table()
    assert list(table) == list(EXPERIMENTS)
    for name, cells in table.items():
        preset = EXPERIMENTS[name][2]
        assert {key for key, cell in cells.items() if cell != "—"} == set(preset), name
        for key, value in preset.items():
            assert json.loads(cells[key].replace("π", repr(math.pi))) == value, (name, key)


def test_readme_python_api_example_runs(capsys):
    lines = _readme_lines()
    begin = lines.index("```python", lines.index("## Python API")) + 1
    exec("\n".join(lines[begin:lines.index("```", begin)]), {})
    residual, run = capsys.readouterr().out.splitlines()
    assert float(residual) < 1e-13  # the comment there says ~ 1e-14
    mass, tainted = run.split()
    assert float(mass) == pytest.approx(0.25, rel=1e-9)
    assert tainted == "False"


def test_every_exported_name_resolves():
    # a name left in an __all__ after its definition is deleted fails here, not at
    # a user's `from oscillab import *`
    modules = [oscillab] + [importlib.import_module(f"oscillab.{m.name}")
                            for m in pkgutil.iter_modules(oscillab.__path__)]
    assert [m.__name__ for m in modules if not hasattr(m, "__all__")] == ["oscillab.__main__"]
    exported = [(m, name) for m in modules for name in getattr(m, "__all__", ())]
    assert [f"{m.__name__}.{name}" for m, name in exported if not hasattr(m, name)] == []


def test_failed_manifest_write_keeps_the_previous_output(tmp_path, monkeypatch, capsys):
    out = tmp_path / "out"
    assert main(["run", _write(tmp_path, FAST_IDENTITY), "--output-dir", str(out)]) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    assert sorted(before) == ["manifest.json", "results.csv"]

    def disk_full(*args, **kwargs):
        raise OSError("no space left on device")

    other = _write(tmp_path, "experiment = identity_k1\nK = 4\nseed = 42\n", "other.cfg")
    monkeypatch.setattr(json, "dump", disk_full)
    assert main(["run", other, "--output-dir", str(out)]) == 1
    assert "no space left on device" in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before
    # the refused run would have replaced both files
    monkeypatch.undo()
    assert main(["run", other, "--output-dir", str(out)]) == 0
    after = {p.name: p.read_bytes() for p in out.iterdir()}
    assert sorted(after) == sorted(before)
    assert all(after[name] != before[name] for name in before)


def test_missing_config_file_is_error(tmp_path, capsys):
    assert main(["run", str(tmp_path / "absent.cfg")]) == 1
    assert "cannot read config" in capsys.readouterr().err


def test_run_writes_results_and_manifest(tmp_path):
    cfg_path = _write(tmp_path, FAST_IDENTITY)
    out = tmp_path / "out"
    assert main(["run", cfg_path, "--output-dir", str(out)]) == 0
    rows = (out / "results.csv").read_text().splitlines()
    assert rows[0] == "mu_sq_1,mu_sq_2,mu_sq_3,mu_sq_4,L0,rhs,residual,resonant"
    assert len(rows) == 6**4 + 1
    manifest = json.loads((out / "manifest.json").read_text())
    assert set(manifest) == {
        "config_echo",
        "csv_columns",
        "defaults_applied",
        "derived",
        "experiment",
        "resolved_config",
        "seed_override",
        "summary",
        "taint",
        "version",
        "wall_time_s",
    }
    assert manifest["config_echo"] == FAST_IDENTITY
    assert manifest["taint"] == {"tainted": False, "flags": []}
    assert manifest["summary"]["max_residual"] < 1e-8


def test_rerun_is_byte_identical(tmp_path):
    cfg_path = _write(tmp_path, FAST_IDENTITY)
    main(["run", cfg_path, "--output-dir", str(tmp_path / "a")])
    main(["run", cfg_path, "--output-dir", str(tmp_path / "b")])
    assert (tmp_path / "a" / "results.csv").read_bytes() == (
        tmp_path / "b" / "results.csv"
    ).read_bytes()


def test_threads_do_not_change_bytes(tmp_path):
    # a threaded experiment with per-cell RNG: bilinear at reduced size
    text = "experiment = bilinear\nN_list = [4, 8]\nM_list = [2]\ntrials = 3\nseed = 9\n"
    cfg_path = _write(tmp_path, text)
    main(["run", cfg_path, "--output-dir", str(tmp_path / "t1"), "--threads", "1"])
    main(["run", cfg_path, "--output-dir", str(tmp_path / "t4"), "--threads", "4"])
    assert (tmp_path / "t1" / "results.csv").read_bytes() == (
        tmp_path / "t4" / "results.csv"
    ).read_bytes()


def test_sampled_identity_threads_do_not_change_bytes(tmp_path):
    # d = 2 tuples: one vectorized pass of 1-D folded sums, each tuple reduced by its own
    # fixed-order row sum, so the pool size cannot reach the bytes
    text = "experiment = identity_k1\nd = 2\nK = 8\ntrials = 24\nseed = 5\n"
    cfg_path = _write(tmp_path, text)
    main(["run", cfg_path, "--output-dir", str(tmp_path / "t1"), "--threads", "1"])
    main(["run", cfg_path, "--output-dir", str(tmp_path / "t2"), "--threads", "2"])
    assert (tmp_path / "t1" / "results.csv").read_bytes() == (
        tmp_path / "t2" / "results.csv"
    ).read_bytes()


def test_bernstein_threads_do_not_change_bytes(tmp_path):
    # one cell per (N, first letter), each cell's words sharing their prefix images
    text = "experiment = bernstein\nd = 2\nN_list = [2, 4, 8]\ntrials = 4\nseed = 11\n"
    cfg_path = _write(tmp_path, text)
    assert main(["run", cfg_path, "--output-dir", str(tmp_path / "t1"), "--threads", "1"]) == 0
    assert main(["run", cfg_path, "--output-dir", str(tmp_path / "t4"), "--threads", "4"]) == 0
    assert (tmp_path / "t1" / "results.csv").read_bytes() == (
        tmp_path / "t4" / "results.csv"
    ).read_bytes()


def test_sampled_identity_rows_do_not_depend_on_trials(tmp_path):
    # tuple i is drawn from SeedSequence((seed, 5, i)) and computed on its own
    lines = {}
    for trials in (24, 48):
        text = f"experiment = identity_k1\nd = 2\nK = 8\ntrials = {trials}\nseed = 5\n"
        out = tmp_path / str(trials)
        assert main(["run", _write(tmp_path, text), "--output-dir", str(out)]) == 0
        lines[trials] = (out / "results.csv").read_bytes().splitlines(keepends=True)
    assert len(lines[48]) == 49
    assert b"".join(lines[48][:25]) == b"".join(lines[24])


def test_sampled_identity_writes_no_negative_zero(tmp_path):
    # the d = 2 tuples of the scans benchmark: many are odd on one axis, and their L0 is
    # the product of 0.0 with the other axis's integral, which may be negative
    text = "experiment = identity_k1\nd = 2\nK = 32\ntrials = 512\nseed = 20260814\n"
    out = tmp_path / "o"
    assert main(["run", _write(tmp_path, text), "--output-dir", str(out)]) == 0
    header, *rows = (out / "results.csv").read_text().splitlines()
    cells = [row.split(",") for row in rows]
    L0, rhs = header.split(",").index("L0"), header.split(",").index("rhs")
    assert sum(row[L0] == "0.0" for row in cells) > 100
    assert not any(row[L0] == "-0.0" or row[rhs] == "-0.0" for row in cells)


def test_exhaustive_identity_writes_no_negative_zero(tmp_path):
    # the d = 1 preset: an odd tuple's L0 and rhs are zeros set by parity and read 0.0
    # (every resonant tuple is odd, and its rhs is nan)
    out = tmp_path / "o"
    assert main(["run", _write(tmp_path, "experiment = identity_k1\nseed = 1\n"),
                 "--output-dir", str(out)]) == 0
    header, *rows = (out / "results.csv").read_text().splitlines()
    L0, rhs = header.split(",").index("L0"), header.split(",").index("rhs")
    cells = [row.split(",") for row in rows]
    odd = [sum(int(mu) // 2 for mu in row[:4]) % 2 == 1 for row in cells]
    assert len(cells) == 17 ** 4 and sum(odd) == (17 ** 4 - 1) // 2
    assert all(row[L0] == "0.0" and row[rhs] in ("0.0", "nan")
               for row, is_odd in zip(cells, odd) if is_odd)
    assert not any(row[L0] == "-0.0" or row[rhs] == "-0.0" for row in cells)


_CONFIGS = Path(__file__).resolve().parents[1] / "scripts" / "configs"


@pytest.mark.parametrize("config", [
    # the identity preset, K = 16: a BLAS-backed d = 1 scan gave equal bytes under both
    # settings at K = 6, 8 and 12 and differed only at K = 16
    "experiment = identity_k1\nseed = 20260814\n",
    # the bilinear kernel with v's series and the space sums through BLAS differed at
    # seed 3; M = N cells put the widest v windows through the FFT
    (_CONFIGS / "bilinear_derivative_seed3.cfg").read_text(encoding="utf-8"),
    (_CONFIGS / "bilinear_M_eq_N_seed7.cfg").read_text(encoding="utf-8"),
], ids=["identity_k1", "bilinear_derivative_seed3", "bilinear_M_eq_N_seed7"])
def test_identity_preset_bytes_do_not_depend_on_blas_threads(tmp_path, config):
    cfg_path = _write(tmp_path, config)
    src = str(Path(__file__).resolve().parents[1] / "src")
    csv_bytes = {}
    for n in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": n,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        subprocess.run([sys.executable, "-m", "oscillab", "run", cfg_path, "--threads", "1",
                        "--output-dir", str(tmp_path / n)],
                       env=env, check=True, capture_output=True, timeout=600)
        csv_bytes[n] = (tmp_path / n / "results.csv").read_bytes()
    assert csv_bytes["1"] == csv_bytes["2"]


def test_sampled_identity_memory_bounded(tmp_path):
    # every term is a product of 1-D folded sums on the (K + 1)-node half grid: no
    # tuple builds planes on the (2K + 2)^d grid
    cfg = parse_config("experiment = identity_k1\nd = 3\nK = 48\ntrials = 8\nseed = 5\n")
    tracemalloc.start()
    try:
        run(cfg, str(tmp_path / "o"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20


def test_seed_override_recorded(tmp_path):
    cfg_path = _write(tmp_path, FAST_IDENTITY)
    out = tmp_path / "o"
    assert main(["run", cfg_path, "--output-dir", str(out), "--seed", "77"]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed_override"] is True
    assert manifest["resolved_config"]["seed"] == 77


def test_tainted_run_exits_two(tmp_path):
    # conservation datum needs degree headroom: K close to the datum support
    # makes the cubic term spill past the truncation every step
    text = "experiment = conservation\nd = 1\nK = 12\ndt = 0.01\nT = 2.0\nseed = 42\n"
    cfg_path = _write(tmp_path, text)
    out = tmp_path / "t"
    assert main(["run", cfg_path, "--output-dir", str(out)]) == 2
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["taint"]["tainted"] is True
    assert "solver_spillage" in manifest["taint"]["flags"]


def test_csv_floats_round_trip(tmp_path):
    from oscillab.lab import identity_residual_scan_1d

    cfg_path = _write(tmp_path, FAST_IDENTITY)
    out = tmp_path / "rt"
    main(["run", cfg_path, "--output-dir", str(out)])
    scan = identity_residual_scan_1d(5)
    rows = (out / "results.csv").read_text().splitlines()[1:]
    first = rows[0].split(",")
    a, b, c, d = (int(v) for v in first[:4])
    idx = ((a - 1) // 2, (b - 1) // 2, (c - 1) // 2, (d - 1) // 2)
    assert float(first[4]) == scan["L0"][idx]


def test_conservation_csv_columns(tmp_path):
    text = "experiment = conservation\nd = 1\nK = 24\ndt = 0.02\nT = 1.0\nseed = 3\n"
    cfg_path = _write(tmp_path, text)
    out = tmp_path / "c"
    assert main(["run", cfg_path, "--output-dir", str(out)]) == 0
    header, *rows = (out / "results.csv").read_text().splitlines()
    assert header == "t,mass,energy,hs_norm_s"
    summary = json.loads((out / "manifest.json").read_text())["summary"]
    assert len(rows) == summary["n_records"] == 6  # t = 0, every 10 of 50 steps
    # solver telemetry goes to the manifest only
    diag = summary["diagnostics"]
    assert diag["steps_per_s"] == pytest.approx(diag["n_steps"] / diag["drive_s"])


def test_energy_increment_summary_reports_floor(tmp_path):
    text = ("experiment = energy_increment\nd = 1\nK = 16\nN_list = [2, 4]\n"
            "dt = 0.001\nT = 0.05\nseed = 3\n")
    out = tmp_path / "e"
    assert main(["run", _write(tmp_path, text), "--output-dir", str(out)]) == 0
    assert (out / "results.csv").read_text().splitlines()[0] == "N,sup_increment"
    summary = json.loads((out / "manifest.json").read_text())["summary"]
    floor, incs = summary["energy_drift_floor"], summary["increments"]
    assert floor > 0.0
    assert summary["increment_over_floor"] == {N: v / floor for N, v in incs.items()}
    assert summary["above_floor"] == sum(v > floor for v in incs.values())
    assert 0.0 < summary["diagnostics"]["max_theta"] <= 2.0 ** -10


def test_run_api_returns_exit_code(tmp_path):
    cfg = parse_config(FAST_IDENTITY)
    code = run(cfg, output_dir=str(tmp_path / "api"), threads=1)
    assert code == 0
    assert (tmp_path / "api" / "results.csv").exists()


def test_output_dir_default_from_config(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg_path = _write(tmp_path, FAST_IDENTITY)
    assert main(["run", cfg_path]) == 0
    assert (tmp_path / "runs" / "identity_k1" / "results.csv").exists()


def test_threads_env_fallback(tmp_path, monkeypatch):
    monkeypatch.setenv("OSCILLAB_THREADS", "2")
    cfg_path = _write(tmp_path, FAST_IDENTITY)
    out = tmp_path / "env"
    assert main(["run", cfg_path, "--output-dir", str(out)]) == 0
    assert (out / "results.csv").exists()


def test_negative_seed_override_rejected(tmp_path, capsys):
    cfg_path = _write(tmp_path, FAST_IDENTITY)
    assert main(["run", cfg_path, "--seed", "-1"]) == 1
    assert "seed" in capsys.readouterr().err


def _reference_write_csv(path, columns, rows):
    """The per-cell writer the column formatter replaced."""
    import csv

    def fmt(v):
        if isinstance(v, (bool, np.bool_)):
            return str(bool(v))
        if isinstance(v, (int, np.integer)):
            return str(int(v))
        if isinstance(v, (float, np.floating)):
            return repr(float(v))
        return str(v)

    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([fmt(v) for v in row])


def test_write_csv_matches_per_cell_formatting(tmp_path):
    from oscillab.cli import _CSV_BLOCK_ROWS, _write_csv

    rng = np.random.default_rng(3)
    n = _CSV_BLOCK_ROWS + 37  # one full block and a partial one
    x = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
    x[:4] = [float("nan"), float("inf"), -0.0, 1e-320]
    rows = [[int(i), float(v), bool(i % 3), f"w,{i}", True] for i, v in enumerate(x)]
    # numpy scalars and mixed types put the second block's columns on the per-cell path
    rows[-1] = [np.int64(7), np.float64(0.1), np.bool_(False), "plain", 2]
    rows[-2][4] = 2.5
    columns = ["i", "x", "flag", "label", "mixed"]
    table = dict(zip(columns, map(list, zip(*rows))))
    # numpy array columns, as the drivers hand them over
    table["i32"] = np.arange(n, dtype=np.int32) - 500
    table["i64"] = rng.integers(-2 ** 62, 2 ** 62, n)
    table["f"] = x[::-1].copy()
    table["b"] = x > 0
    # array columns whose values repeat within a block, formatted once per distinct bits
    nan2 = np.array([0x7FF8000000000001], dtype=np.uint64).view(np.float64)[0]
    pool = np.array([0.0, -0.0, np.nan, -np.nan, nan2, -nan2, np.inf, -np.inf, 5e-324, 0.1])
    table["f_rep"] = pool[rng.integers(0, pool.size, n)]
    table["f_rep_reversed"] = pool[rng.integers(0, pool.size, n)][::-1]  # a strided view
    table["i_rep"] = rng.integers(-3, 3, n).astype(np.int64) * 2 ** 40
    table["b_rep"] = rng.integers(0, 2, n).astype(bool)
    rows = list(zip(*table.values()))
    _write_csv(str(tmp_path / "new.csv"), table)
    _reference_write_csv(str(tmp_path / "ref.csv"), list(table), rows)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    _write_csv(str(tmp_path / "empty.csv"), {name: [] for name in columns})
    assert (tmp_path / "empty.csv").read_text() == "i,x,flag,label,mixed\n"
    with pytest.raises(ValueError, match="unequal lengths"):
        _write_csv(str(tmp_path / "ragged.csv"), {"i": [1, 2], "x": [0.5]})


def test_bench_pairs_refuses_fewer_than_ten_seeds(tmp_path):
    # with six pairs a one-sided result has odds 1/32 under no change
    script = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
    out = tmp_path / "BENCH.json"
    done = subprocess.run([sys.executable, str(script), "--out", str(out), "--base", "HEAD",
                           "--workload", "scans", "--seeds", "1", "9"],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 2 and "at least 10 seeds" in done.stderr
    assert not out.exists()
