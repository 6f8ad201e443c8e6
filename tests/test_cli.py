import dataclasses
import gc
import importlib.util
import json
import math
import os
import pickle
import re
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from szego_lab import cli, dynamics, plots
from szego_lab.cli import (
    _run_tracked,
    build_g0,
    build_grid,
    build_potential,
    horizon,
    main,
    run_spec,
    validate_config,
)
from szego_lab.decomposition import TrackReport, theorem_metrics, track
from szego_lab.dynamics import (
    DivergenceError,
    EffectiveState,
    evolve_effective,
    evolve_pde,
)
from szego_lab.soliton_manifold import soliton_profile
from szego_lab.spectral_core import from_spectrum


def tiny_config(**overrides):
    cfg = {
        "grid": {"n": 2048, "L": 128.0},
        "soliton": {"a0": -3.0, "alpha0": 1.0, "phi0": 0.0, "mu0": 3.0},
        "potential": {"kind": "gaussian", "amplitude": 1.0, "center": 0.0,
                      "width": 1.0},
        "eps": 0.01,
        "delta": 0.35,
        "t_final": {"policy": "fixed", "value": 0.2},
        "dt": 1e-3,
        "stride": 50,
    }
    cfg.update(overrides)
    return cfg


def write_config(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


# ------------------------------------------------------------- config checks


def test_valid_config_produces_no_errors():
    assert validate_config(tiny_config()) == []


def test_readme_config_block_is_valid():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    schema = readme.split("Config schema", 1)[1]
    block = re.search(r"^    \{$.*?^    \}$", schema, re.S | re.M).group(0)
    assert validate_config(json.loads(block)) == []


def test_readme_names_every_default_of_the_settings_table():
    # the README's sentence on optional keys gives each row's default as
    # the table holds it, and names no other default than outdir's
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    sentence = " ".join(readme.split("Optional keys and their defaults:", 1)[1]
                        .split("Leaving a key out", 1)[0].split())
    named = dict(re.findall(r'"([\w.]+)" ("\S*"|[\d.e+-]+)', sentence))
    defaults = {path: f"{default:g}" for path, default, _, _ in cli.SETTINGS
                if default is not None}
    assert named == dict(defaults, outdir='"."')


def test_validate_config_reports_paths():
    cfg = tiny_config()
    cfg["grid"]["n"] = 100
    cfg["soliton"]["alpha0"] = -1.0
    cfg["delta"] = 0.7
    cfg["potential"]["kind"] = "mystery"
    errors = validate_config(cfg)
    joined = "\n".join(errors)
    assert "grid.n" in joined
    assert "soliton.alpha0" in joined
    assert "delta" in joined
    assert "potential.kind" in joined
    assert len(errors) >= 4


def test_validate_config_checks_horizon_policy():
    cfg = tiny_config(t_final={"policy": "theorem_horizon", "c0_fit": 32.0})
    assert validate_config(cfg) == []
    cfg_bad = tiny_config(t_final={"policy": "theorem_horizon", "c0_fit": 0.5})
    assert any("c0_fit" in e for e in validate_config(cfg_bad))
    cfg_unknown = tiny_config(t_final={"policy": "whenever"})
    assert any("t_final" in e for e in validate_config(cfg_unknown))


def test_zero_step_horizon_is_config_error(tmp_path):
    # a theorem horizon of 0.0018 holds no step of dt = 5e-3
    cfg = tiny_config(eps=0.9, dt=5e-3,
                      t_final={"policy": "theorem_horizon", "c0_fit": 32.0})
    assert run_spec(cfg).times[-1] == 0.0
    assert any(e.startswith("t_final") for e in validate_config(cfg))
    path = write_config(tmp_path, cfg)
    for command in ("track", "simulate"):
        assert main([command, "--config", path,
                     "--out", str(tmp_path / command)]) == 2
    short = tiny_config(t_final={"policy": "fixed", "value": 0.5e-3})
    assert any(e.startswith("t_final") for e in validate_config(short))
    assert validate_config(tiny_config(t_final={"policy": "fixed",
                                                "value": 1e-3})) == []


def test_sweep_checks_every_members_step_count(tmp_path, capsys, monkeypatch):
    # at dt = 5e-3 the theorem horizon holds 10 steps at eps = 0.1 and 4
    # at 0.3, but none at 0.9 (0.0018); the sweep must stop before any
    # member runs, not fail that member after the others ran
    cfg = tiny_config(eps=0.1, dt=5e-3, eps_list=[0.9, 0.3, 0.1],
                      t_final={"policy": "theorem_horizon", "c0_fit": 32.0})
    assert [run_spec(dict(cfg, eps=v)).times[-1] / 5e-3 for v in (0.9, 0.3, 0.1)] \
        == pytest.approx([0, 4, 10])
    assert validate_config(cfg) == []
    errors = validate_config(cfg, need_sweep=True)
    assert len(errors) == 1 and errors[0].startswith("t_final: horizon 0.0018")
    assert "at eps = 0.9 must hold" in errors[0]

    def no_member(c):
        raise AssertionError(f"member eps={c['eps']} ran")

    monkeypatch.setattr(cli, "_run_tracked", no_member)
    out = tmp_path / "s"
    assert main(["sweep", "--config", write_config(tmp_path, cfg),
                 "--out", str(out)]) == 2
    assert "config error: t_final: horizon 0.0018" in capsys.readouterr().err
    assert not out.exists()


def test_unresolved_soliton_scale_is_config_error(tmp_path, capsys):
    # mu0 = 64 on the transit grid leaves exp(-xi_max/mu0) ~ 0.2 at the
    # top bin; the example configs leave ~3e-15
    cfg = tiny_config(grid={"n": 8192, "L": 256.0},
                      soliton=dict(_SOLITON, mu0=64.0))
    errors = validate_config(cfg)
    assert len(errors) == 1 and errors[0].startswith("soliton.mu0: spectral tail")
    assert "0.21" in errors[0]
    assert main(["track", "--config", write_config(tmp_path, cfg),
                 "--out", str(tmp_path / "o")]) == 2
    assert "config error: soliton.mu0: " in capsys.readouterr().err
    for path in (Path(__file__).resolve().parents[1] / "configs").glob("*.json"):
        cfg = json.loads(path.read_text())
        assert validate_config(cfg, need_sweep="eps_list" in cfg) == [], path.name


@pytest.mark.parametrize("kind, narrow, wide", [("gaussian", 0.073, 0.074),
                                                ("sech2", 0.109, 0.110)],
                         ids=["gaussian", "sech2"])
def test_unresolved_potential_width_is_config_error(tmp_path, capsys, kind,
                                                    narrow, wide):
    # on the transit grid xi_max = 100.5, and the transform there must fall
    # to 1e-6 of its value at 0: width >= 0.074 for a Gaussian and >= 0.110
    # for sech2.  A Gaussian of width 0.01 on it gives sup_dev_a 2.2x off
    # the n = 32768 value
    grid = {"n": 8192, "L": 256.0}
    pot = {"kind": kind, "amplitude": 1.0, "center": 0.0}
    cfg = tiny_config(grid=grid, potential=dict(pot, width=narrow))
    errors = validate_config(cfg)
    assert len(errors) == 1
    assert errors[0].startswith(f"potential.width: the {kind}'s transform")
    out = tmp_path / "o"
    assert main(["track", "--config", write_config(tmp_path, cfg),
                 "--out", str(out)]) == 2
    assert "config error: potential.width: " in capsys.readouterr().err
    assert not out.exists()
    assert validate_config(tiny_config(grid=grid, potential=dict(pot, width=wide))) == []


def test_sweep_needs_eps_list():
    cfg = tiny_config()
    assert any("eps_list" in e for e in validate_config(cfg, need_sweep=True))
    good = tiny_config(eps_list=[4e-2, 2e-2, 1e-2])
    assert validate_config(good, need_sweep=True) == []
    bad = tiny_config(eps_list=[1e-2, 2e-2, 4e-2, 5e-2])
    assert any("eps_list" in e for e in validate_config(bad, need_sweep=True))


@pytest.mark.parametrize("policy", [{"policy": "fixed", "value": 5.0},
                                    {"policy": "theorem_horizon", "c0_fit": 32.0}],
                         ids=["fixed", "theorem_horizon"])
def test_sweep_config_needs_no_eps(policy):
    # a member's eps comes from eps_list, so a sweep reads no "eps"; a
    # single run still needs it
    root = Path(__file__).resolve().parents[1]
    cfg = json.loads((root / "configs" / "sweep.json").read_text())
    del cfg["eps"]
    cfg["t_final"] = policy
    assert validate_config(cfg, need_sweep=True) == []
    assert any(e.startswith("eps: ") for e in validate_config(cfg))
    # the horizon and wrap checks still run over eps_list
    short = dict(cfg, dt=6.0, t_final={"policy": "fixed", "value": 5.0})
    errors = validate_config(short, need_sweep=True)
    assert errors and all(e.startswith("t_final: horizon 5 at eps = ") for e in errors)
    far = dict(cfg, soliton=dict(cfg["soliton"], a0=125.0))
    errors = validate_config(far, need_sweep=True)
    assert errors[0].startswith("soliton.a0: the free soliton starts at a = 125")


def test_fixed_sweep_horizon_error_is_reported_once():
    # a fixed horizon is the same for every member, so a step too coarse
    # for it is one error, not one per eps_list entry
    root = Path(__file__).resolve().parents[1]
    cfg = json.loads((root / "configs" / "sweep.json").read_text())
    assert len(cfg["eps_list"]) == 3
    errors = validate_config(dict(cfg, dt=6.0), need_sweep=True)
    assert len(errors) == 1 and errors[0].startswith("t_final: horizon 5 at eps = ")


@pytest.mark.parametrize("eps_list", [[1e-2, 1e-2, 1e-2], [1e-2, 2e-2, 4e-2]],
                         ids=["repeated", "increasing"])
def test_sweep_rejects_eps_lists_that_do_not_decrease(tmp_path, capsys, eps_list):
    # README promises a geometrically decreasing list.  Both lists have a
    # constant ratio; the repeated one used to run, write one member
    # directory and print NaN slopes
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    assert '"eps_list", a geometrically decreasing list' in readme
    out = tmp_path / "s"
    assert main(["sweep", "--config", write_config(tmp_path, tiny_config(eps_list=eps_list)),
                 "--out", str(out)]) == 2
    assert "config error: eps_list: values must be distinct, decreasing" \
        in capsys.readouterr().err
    assert not out.exists()


def test_sweep_rejects_eps_values_that_share_a_member_directory(tmp_path, capsys):
    # geometric and decreasing, but every member's directory is eps_0.01:
    # the sweep used to exit 0 with one member's files and a summary of three
    cfg = tiny_config(eps_list=[0.01000002, 0.01000001, 0.01])
    out = tmp_path / "s"
    assert main(["sweep", "--config", write_config(tmp_path, cfg),
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "config error: eps_list: values must differ within 6 significant digits, "
        "the precision of each member's output directory eps_<value>\n")
    assert not out.exists()


def test_soliton_wrapping_round_the_box_is_config_error(tmp_path, capsys):
    # the free soliton moves at c ~ 1.5; it must stay 10/mu0 = 3.33 clear
    # of the edge L/2 from a0 to a0 + c T
    edge = tiny_config(soliton=dict(_SOLITON, a0=-63.0),     # L/2 = 64
                       t_final={"policy": "fixed", "value": 2.0})
    errors = validate_config(edge)
    assert len(errors) == 1
    assert errors[0].startswith("soliton.a0: the free soliton starts at a = -63, ")
    assert main(["track", "--config", write_config(tmp_path, edge),
                 "--out", str(tmp_path / "o")]) == 2
    assert "wrap round the periodic box" in capsys.readouterr().err
    long_run = tiny_config(t_final={"policy": "fixed", "value": 45.0})
    errors = validate_config(long_run)
    assert len(errors) == 1
    assert errors[0].startswith("soliton.a0: the free soliton reaches a = 65.6")
    assert validate_config(tiny_config(t_final={"policy": "fixed", "value": 40.0})) == []
    # a sweep checks every member's horizon: at c0_fit = 1.009 the theorem
    # horizon is 5.0 at eps = 0.5 but 59.8 at the sweep's eps = 1e-2
    theorem = {"policy": "theorem_horizon", "c0_fit": 1.009}
    assert validate_config(tiny_config(eps=0.5, t_final=theorem)) == []
    sweep = tiny_config(eps=0.5, t_final=theorem, eps_list=[4e-2, 2e-2, 1e-2])
    errors = validate_config(sweep, need_sweep=True)
    assert len(errors) == 1 and errors[0].startswith("soliton.a0: the free soliton reaches")


def test_horizon_formula():
    cfg = tiny_config(eps=1e-2, delta=0.35,
                      t_final={"policy": "theorem_horizon", "c0_fit": 32.0})
    want = (0.35 / (6 * math.log(32.0))) * (1e-2) ** -(0.5 - 0.35) * math.log(1e2)
    assert abs(horizon(cfg["t_final"], 1e-2, 0.35, 32.0, 1e-3)[0] - want) < 1e-12
    fixed = tiny_config(t_final={"policy": "fixed", "value": 7.5})
    assert horizon(fixed["t_final"], 1e-2, 0.35, 32.0, 1e-3)[0] == 7.5


def test_build_helpers_roundtrip():
    cfg = tiny_config()
    g0 = build_g0(cfg)
    assert (g0.a, g0.alpha, g0.phi, g0.mu) == (-3.0, 1.0, 0.0, 3.0)
    b = build_potential(cfg)
    assert abs(b.eval_b(np.array([0.0]))[0] - 1.0) < 1e-14
    tab = tiny_config(potential={"kind": "table",
                                 "x": [float(v) for v in np.linspace(-4, 4, 33)],
                                 "values": [float(v) for v in
                                            np.exp(-np.linspace(-4, 4, 33) ** 2)]})
    assert validate_config(tab) == []
    bt = build_potential(tab)
    assert abs(bt.eval_b(np.array([0.5]))[0] - math.exp(-0.25)) < 1e-3


# ------------------------------------------------------------------ commands


def test_main_reports_missing_config(tmp_path):
    assert main(["simulate", "--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path)]) == 2


def test_main_reports_malformed_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path)]) == 2


def test_main_reports_validation_errors(tmp_path):
    cfg = tiny_config()
    cfg["dt"] = -1.0
    path = write_config(tmp_path, cfg)
    assert main(["simulate", "--config", path, "--out", str(tmp_path / "o")]) == 2


def test_main_reports_unusable_output_directory(tmp_path, capsys, monkeypatch):
    # a non-string or empty outdir, or an --out that names a file, is a
    # config error for a run command and for validate alike
    monkeypatch.chdir(tmp_path)
    taken = tmp_path / "taken"
    taken.write_text("")
    runs = [["--config", write_config(tmp_path, tiny_config(outdir=5), "number.json")],
            ["--config", write_config(tmp_path, tiny_config(outdir=""), "empty.json")],
            ["--config", write_config(tmp_path, tiny_config()), "--out", str(taken)]]
    for argv in [["track", *extra] for extra in runs] + [["validate", "--out", str(taken)]]:
        assert main(argv) == 2, argv
        assert capsys.readouterr().err.startswith("config error: output directory "), argv


def test_sweep_reports_a_member_directory_that_is_a_file(tmp_path, capsys,
                                                        monkeypatch):
    # checked before any member runs: no member is integrated, nothing
    # is written, and the taken path is named as an output directory error
    def no_run(cfg):
        raise AssertionError("a member ran")

    monkeypatch.setattr(cli, "_run_tracked", no_run)
    out = tmp_path / "s"
    out.mkdir()
    (out / "eps_0.02").write_text("")
    path = write_config(tmp_path, tiny_config(eps_list=[4e-2, 2e-2, 1e-2]))
    assert main(["sweep", "--config", path, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: output directory ") and "eps_0.02" in err
    assert sorted(p.name for p in out.iterdir()) == ["eps_0.02"]


_SOLITON = {"a0": -3.0, "alpha0": 1.0, "phi0": 0.0, "mu0": 3.0}


def _setting_to(path, value):
    """tiny_config() with the key at path set to value."""
    cfg = tiny_config()
    section, _, key = path.rpartition(".")
    (cfg[section] if section else cfg)[key] = value
    return cfg


# every row of the settings table, set to JSON null and to true; under
# tiny_config's fixed policy this checks t_final.c0_fit, which only the
# theorem_horizon policy reads
_ROW_VALUES = [(path, value) for path, *_ in cli.SETTINGS for value in (None, True)]


@pytest.mark.parametrize("path, overrides", [
    ("eps", {"eps": True}),
    ("stride", {"stride": True}),
    ("grid.L", {"grid": {"n": 2048, "L": True}}),
    ("soliton.a0", {"soliton": dict(_SOLITON, a0=math.nan)}),
    ("grid.L", {"grid": {"n": 2048, "L": math.inf}}),
    ("t_final.value", {"t_final": {"policy": "fixed", "value": math.inf}}),
    ("t_final", {"t_final": {"policy": "fixed", "value": 1e308}}),
    ("grid", {"grid": 5}),
    ("soliton", {"soliton": []}),
    ("potential", {"potential": "gaussian"}),
    ("potential.x/values", {"potential": {"kind": "table", "x": [-2, -1, 1, 2],
                                          "values": [0, 1, "1", 0]}}),
    ("potential.x/values", {"potential": {"kind": "table", "x": [-2, 1, 0, 2],
                                          "values": [0, 1, 1, 0]}}),
    ("potential.kind", {"potential": {"kind": ["gaussian"]}}),
] + [(path, _setting_to(path, value)) for path, value in _ROW_VALUES],
    ids=["bool_eps", "bool_stride", "bool_L", "nan_a0", "inf_L", "inf_t_final", "huge_t_final",
         "grid_number", "soliton_list", "potential_string", "table_string",
         "table_x_unordered", "kind_list"]
    + [f"{json.dumps(value)}_{path}" for path, value in _ROW_VALUES])
def test_main_rejects_malformed_numbers_and_sections(tmp_path, capsys, path,
                                                     overrides):
    # JSON's true, NaN and Infinity are not finite real numbers, and a
    # section must be an object: each is a config error naming its path
    cfg_path = write_config(tmp_path, tiny_config(**overrides))
    assert main(["effective", "--config", cfg_path,
                 "--out", str(tmp_path / "o")]) == 2
    assert f"config error: {path}: " in capsys.readouterr().err


def test_csv_rows_are_the_per_cell_formatting(tmp_path):
    # one % per row over tolist() columns writes what "%.17g" of each
    # cell wrote, for array and plain-list columns alike
    special = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1 / 3, 0.0]
    columns = [np.array(special), list(reversed(special)),
               np.arange(7, dtype=float) * 0.1]
    path = tmp_path / "t.csv"
    cli._write_csv(path, ["a", "b", "c"], columns)
    rows = ["a,b,c"] + [",".join("%.17g" % col[i] for col in columns)
                        for i in range(len(special))]
    assert path.read_bytes() == ("\n".join(rows) + "\n").encode()


def test_simulate_writes_deterministic_outputs(tmp_path):
    path = write_config(tmp_path, tiny_config())
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["simulate", "--config", path, "--out", str(out1)]) == 0
    assert main(["simulate", "--config", path, "--out", str(out2)]) == 0
    csv1 = (out1 / "fields.csv").read_bytes()
    csv2 = (out2 / "fields.csv").read_bytes()
    assert csv1 == csv2
    header = csv1.decode().splitlines()[0]
    assert header == "t,norm_L2,norm_H12,mass,hamiltonian"
    cons = json.loads((out1 / "conservation.json").read_text())
    assert cons["mass_drift"] < 1e-9
    assert cons["hamiltonian_drift"] < 1e-9


def test_simulate_fields_agree_with_conservation(tmp_path):
    # fields.csv and conservation.json come from the run's own per-sample
    # sums: each column's largest relative change is its drift, exactly,
    # and norm_L2 is the square root of the mass
    path = write_config(tmp_path, tiny_config(stride=10))
    assert main(["simulate", "--config", path, "--out", str(tmp_path)]) == 0
    rows = (tmp_path / "fields.csv").read_text().splitlines()[1:]
    _, norm_l2, _, m, h = np.array([[float(v) for v in r.split(",")]
                                    for r in rows]).T
    cons = json.loads((tmp_path / "conservation.json").read_text())
    assert m.size == cons["samples"] == 21
    assert cons["mass_drift"] > 0 and cons["hamiltonian_drift"] > 0
    assert np.max(np.abs(m - m[0]) / m[0]) == cons["mass_drift"]
    assert np.max(np.abs(h - h[0]) / abs(h[0])) == cons["hamiltonian_drift"]
    assert np.array_equal(norm_l2, np.sqrt(m))


def test_simulate_plots_flag(tmp_path):
    path = write_config(tmp_path, tiny_config())
    out = tmp_path / "plotted"
    assert main(["simulate", "--config", path, "--out", str(out), "--plots"]) == 0
    svg = (out / "conservation.svg").read_text()
    assert svg.startswith("<svg")


@pytest.mark.parametrize("axis", ["logx", "logy"])
def test_line_plot_of_one_point_on_a_log_axis(tmp_path, axis):
    # a degenerate range padded by +-0.5 would reach below zero
    path = tmp_path / f"{axis}.svg"
    plots.line_plot(path, [0.05], [[0.01]], **{axis: True})
    svg = path.read_text()
    assert svg.startswith("<svg") and "<polyline" in svg


def test_track_plots_a_run_of_two_samples(tmp_path):
    # one stride: the remainder is exactly zero at t = 0, so the log plot
    # of |w| holds one point
    cfg = tiny_config(t_final={"policy": "fixed", "value": 0.05},
                      soliton={"a0": -3.0, "alpha0": 1.0, "phi0": 0.5, "mu0": 3.0})
    out = tmp_path / "two"
    assert main(["track", "--config", write_config(tmp_path, cfg),
                 "--out", str(out), "--plots"]) == 0
    rows = (out / "track.csv").read_text().splitlines()
    assert len(rows) == 3 and float(rows[1].split(",")[5]) == 0.0
    for name in ("w_norm.svg", "deviations.svg"):
        assert (out / name).read_text().startswith("<svg")


def test_effective_writes_parameter_table(tmp_path):
    path = write_config(tmp_path, tiny_config())
    out = tmp_path / "eff"
    assert main(["effective", "--config", path, "--out", str(out)]) == 0
    lines = (out / "effective.csv").read_text().splitlines()
    assert lines[0] == "t,a,alpha,phi,mu"
    first = [float(v) for v in lines[1].split(",")]
    assert first == [0.0, -3.0, 1.0, 0.0, 3.0]


def test_effective_writes_the_run_track_compares_against(tmp_path):
    # the grid route at the sample times, with track's tolerances
    cfg = tiny_config()
    out = tmp_path / "eff"
    assert main(["effective", "--config", write_config(tmp_path, cfg),
                 "--out", str(out)]) == 0
    times = run_spec(cfg).times
    states = evolve_effective(EffectiveState(0.0, build_g0(cfg)),
                              build_potential(cfg), cfg["eps"], times,
                              grid=build_grid(cfg), rtol=1e-11, atol=1e-13)
    want = "t,a,alpha,phi,mu\n" + "".join(
        ",".join("%.17g" % v for v in (s.t, *s.g.as_array())) + "\n"
        for s in states)
    assert (out / "effective.csv").read_bytes() == want.encode()


def test_track_writes_metrics(tmp_path):
    path = write_config(tmp_path, tiny_config())
    out = tmp_path / "tr"
    assert main(["track", "--config", path, "--out", str(out)]) == 0
    header = (out / "track.csv").read_text().splitlines()[0]
    assert header.startswith("t,a,alpha,phi,mu,w_h12,x_norm")
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["eps"] == 0.01
    assert metrics["sup_w_h12"] >= 0
    assert "c_fit" in metrics
    assert metrics["max_newton_iters"] <= 5


def test_track_runs_theorem_horizon(tmp_path):
    # the formula horizon is not a whole number of steps; the run stops
    # at the last step inside it
    cfg = tiny_config(t_final={"policy": "theorem_horizon", "c0_fit": 32.0})
    path = write_config(tmp_path, cfg)
    out = tmp_path / "th"
    assert main(["track", "--config", path, "--out", str(out)]) == 0
    last = float((out / "track.csv").read_text().splitlines()[-1].split(",")[0])
    T = horizon(cfg["t_final"], cfg["eps"], cfg["delta"], 32.0, cfg["dt"])[0]
    assert T - cfg["dt"] < last <= T


def test_left_out_settings_take_the_readme_defaults(tmp_path):
    # dt, stride, delta and t_final.c0_fit resolve to their defaults in
    # one place: leaving them out and spelling the README's values out
    # give the same run, byte for byte
    theorem = {"policy": "theorem_horizon"}
    bare = {k: v for k, v in tiny_config(t_final=theorem).items()
            if k not in ("dt", "stride", "delta")}
    spelled = tiny_config(dt=5e-4, stride=100, delta=0.35,
                          t_final=dict(theorem, c0_fit=32))
    outs = [tmp_path / "bare", tmp_path / "spelled"]
    for cfg, out in zip((bare, spelled), outs):
        assert main(["track", "--config", write_config(tmp_path, cfg),
                     "--out", str(out)]) == 0
    for name in ("track.csv", "metrics.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_sweep_without_eps_list_fails(tmp_path):
    path = write_config(tmp_path, tiny_config())
    assert main(["sweep", "--config", path, "--out", str(tmp_path / "s")]) == 2


def test_sweep_writes_summary(tmp_path):
    cfg = tiny_config(eps_list=[4e-2, 2e-2, 1e-2])
    path = write_config(tmp_path, cfg)
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", path, "--out", str(out),
                 "--parallel", "3"]) == 0
    summary = json.loads((out / "sweep_summary.json").read_text())
    assert summary["completed"] == [0.04, 0.02, 0.01]
    assert "slopes" in summary
    assert summary["slopes"]["sup_w_h12"] > 0
    for eps in (0.04, 0.02, 0.01):
        sub = out / f"eps_{eps:g}"
        assert (sub / "metrics.json").exists()
        assert (sub / "track.csv").exists()


@pytest.mark.parametrize("parallel", ["0", "-3"])
def test_sweep_rejects_a_pool_below_one_worker(tmp_path, capsys, parallel):
    path = write_config(tmp_path, tiny_config(eps_list=[4e-2, 2e-2, 1e-2]))
    out = tmp_path / "s"
    with pytest.raises(SystemExit) as info:
        main(["sweep", "--config", path, "--out", str(out),
              "--parallel", parallel])
    assert info.value.code == 2
    assert "--parallel must be at least 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.fixture
def forks(monkeypatch):
    """Every pid os.fork returns in this process, and the thread count at
    each fork (a worker is forked from a single-threaded process)."""
    real_fork, pids, threads = os.fork, [], []

    def fork():
        threads.append(threading.active_count())
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return pids, threads


def assert_reaped(forks, n):
    # n workers, each forked alone and reaped before the sweep returned
    pids, threads = forks
    assert len(pids) == n and threads == [1] * n
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


@pytest.mark.parametrize("parallel", ["2", "3"])
def test_sweep_parallel_matches_serial(tmp_path, parallel, forks):
    # members in forked workers must write what one process writes
    path = write_config(tmp_path, tiny_config(eps_list=[4e-2, 2e-2, 1e-2]))
    outs = []
    for p in (parallel, "1"):
        out = tmp_path / f"p{p}"
        assert main(["sweep", "--config", path, "--out", str(out),
                     "--parallel", p]) == 0
        outs.append(out)
    got, want = (o / "sweep_summary.json" for o in outs)
    assert got.read_bytes() == want.read_bytes()
    for eps in (0.04, 0.02, 0.01):
        for name in ("track.csv", "metrics.json"):
            got, want = (o / f"eps_{eps:g}" / name for o in outs)
            assert got.read_bytes() == want.read_bytes(), (eps, name)
    assert_reaped(forks, int(parallel) - 1)


def test_sweep_reports_a_member_that_fails_in_a_worker(tmp_path, capsys,
                                                        monkeypatch, forks):
    # at --parallel 2 this process runs eps 0.04 and 0.01, the one
    # forked worker eps 0.02, which inherits the patched _run_tracked
    real = cli._run_tracked

    def fail_002(cfg):
        if cfg["eps"] == 0.02:
            raise RuntimeError("injected")
        return real(cfg)

    monkeypatch.setattr(cli, "_run_tracked", fail_002)
    path = write_config(tmp_path, tiny_config(eps_list=[4e-2, 2e-2, 1e-2]))
    out = tmp_path / "s"
    assert main(["sweep", "--config", path, "--out", str(out),
                 "--parallel", "2"]) == 1
    assert "member eps=0.02 failed: injected" in capsys.readouterr().err
    summary = json.loads((out / "sweep_summary.json").read_text())
    assert summary["failed_eps"] == 0.02
    assert summary["error"] == "RuntimeError: injected"
    assert summary["completed"] == [0.04, 0.01]
    assert sorted(p.name for p in out.iterdir() if p.is_dir()) \
        == ["eps_0.01", "eps_0.04"]
    assert_reaped(forks, 1)


def test_sweep_reports_a_worker_killed_by_a_signal(tmp_path, capsys,
                                                   monkeypatch, forks):
    # the forked worker of --parallel 2 runs eps 0.02 and kills itself
    # there; the member it never sent fails alone, named by the signal
    real, cli_pid = cli._run_tracked, os.getpid()

    def die_at_002(cfg):
        if cfg["eps"] == 0.02 and os.getpid() != cli_pid:
            os.kill(os.getpid(), signal.SIGKILL)
        return real(cfg)

    monkeypatch.setattr(cli, "_run_tracked", die_at_002)
    path = write_config(tmp_path, tiny_config(eps_list=[4e-2, 2e-2, 1e-2]))
    out = tmp_path / "s"
    assert main(["sweep", "--config", path, "--out", str(out),
                 "--parallel", "2"]) == 1
    assert "member eps=0.02 failed: worker" in capsys.readouterr().err
    summary = json.loads((out / "sweep_summary.json").read_text())
    assert summary["failed_eps"] == 0.02
    assert f"killed by signal {int(signal.SIGKILL)} " in summary["error"]
    assert summary["error"].startswith("RuntimeError: worker ")
    assert summary["completed"] == [0.04, 0.01]
    for eps in ("0.04", "0.01"):
        assert (out / f"eps_{eps}" / "metrics.json").is_file()
    assert not (out / "eps_0.02").exists()
    assert_reaped(forks, 1)


def test_a_member_whose_result_cannot_be_pickled_fails_alone(monkeypatch, forks):
    # at --parallel 2 the worker runs members 1 and 3: member 1's result
    # holds a lambda, which pickle refuses; member 3 still arrives
    monkeypatch.setattr(cli, "_run_tracked",
                        lambda cfg: (lambda: None) if cfg["i"] == 1 else cfg["i"])
    out = cli._map_tracked([{"i": i} for i in range(4)], 2)
    assert [out[i] for i in (0, 2, 3)] == [0, 2, 3]
    assert isinstance(out[1], RuntimeError)
    assert str(out[1]).endswith("exited with status 1 before it sent member 1")
    assert_reaped(forks, 1)


def test_a_worker_does_not_wait_for_the_parent_to_read(monkeypatch, forks):
    # a result larger than the pipe is held back in the worker, which goes
    # on to its next member while this process still runs its own
    t0 = time.monotonic()

    def run(cfg):
        i = cfg["i"]
        if i % 2 == 0:
            time.sleep(1.0)        # this process's members 0 and 2
            return i
        return bytes(1 << 20) if i == 1 else time.monotonic() - t0

    monkeypatch.setattr(cli, "_run_tracked", run)
    out = cli._map_tracked([{"i": i} for i in range(4)], 2)
    assert out[:3] == [0, bytes(1 << 20), 2]
    assert out[3] < 1.0, "the worker's second member waited for the parent"
    assert_reaped(forks, 1)


def test_a_worker_killed_at_its_second_member_delivers_its_first(monkeypatch,
                                                                 forks):
    # at --parallel 2 the worker runs members 1 and 3 and kills itself at
    # member 3: member 1, already sent, arrives, and member 3 fails alone
    def run(cfg):
        if cfg["i"] == 3:
            os.kill(os.getpid(), signal.SIGKILL)
        return cfg["i"]

    monkeypatch.setattr(cli, "_run_tracked", run)
    out = cli._map_tracked([{"i": i} for i in range(4)], 2)
    assert out[:3] == [0, 1, 2]
    assert isinstance(out[3], RuntimeError)
    assert f"was killed by signal {int(signal.SIGKILL)} " in str(out[3])
    assert_reaped(forks, 1)


def test_an_interrupted_sweep_reaps_its_workers(tmp_path, monkeypatch, forks,
                                                open_pipes):
    # at --parallel 2 this process's own member is interrupted while the
    # worker still runs its member: the worker is killed and reaped, and
    # its pipe closed, before the interrupt leaves the sweep
    cli_pid = os.getpid()

    def run(cfg):
        if os.getpid() == cli_pid:
            raise KeyboardInterrupt
        time.sleep(60)

    monkeypatch.setattr(cli, "_run_tracked", run)
    path = write_config(tmp_path, tiny_config(eps_list=[4e-2, 2e-2, 1e-2]))
    before = open_pipes()
    with pytest.raises(KeyboardInterrupt):
        main(["sweep", "--config", path, "--out", str(tmp_path / "s"),
              "--parallel", "2"])
    assert_reaped(forks, 1)
    assert open_pipes() == before


def test_member_result_pickles_without_the_grid_tables():
    # a worker pipes each member's result to the CLI; the n = 8192 grid's
    # tables alone would pickle to about 450 KiB of it
    cfg = json.loads((Path(__file__).resolve().parents[1] / "configs"
                      / "sweep.json").read_text())
    cfg = dict(cfg, eps=cfg["eps_list"][0],
               t_final={"policy": "fixed", "value": 0.5})
    assert len(pickle.dumps(_run_tracked(cfg))) < 32 * 1024


def test_sweep_in_one_process_forks_nothing(tmp_path, monkeypatch):
    def no_fork():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", no_fork)
    path = write_config(tmp_path, tiny_config(eps_list=[4e-2, 2e-2, 1e-2]))
    assert main(["sweep", "--config", path, "--out", str(tmp_path / "s"),
                 "--parallel", "1"]) == 0


_PROC_CHILDREN = pytest.mark.skipif(
    not Path(f"/proc/self/task/{os.getpid()}/children").exists(),
    reason="reads the process tree from Linux /proc")


def assert_child_ends_with_a_killed_cli(tmp_path, argv):
    # once the CLI has forked, kill it: its child must end with it, not run on
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.Popen(
        [sys.executable, "-m", "szego_lab.cli", *argv],
        env=dict(os.environ, PYTHONPATH=src), stdin=subprocess.DEVNULL,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    children = Path(f"/proc/{proc.pid}/task/{proc.pid}/children")
    deadline = time.monotonic() + 60
    try:
        while not children.read_text().split():
            assert proc.poll() is None and time.monotonic() < deadline
            time.sleep(0.05)
        child = int(children.read_text().split()[0])
    finally:
        proc.kill()
        proc.wait()

    def alive():
        try:   # a zombie has ended, whether or not it was reaped
            stat = Path(f"/proc/{child}/stat").read_text()
        except FileNotFoundError:
            return False
        return stat.rsplit(")", 1)[1].split()[0] != "Z"

    try:
        while alive():
            assert time.monotonic() < deadline + 10, \
                f"child {child} outlived the CLI"
            time.sleep(0.05)
    finally:
        if alive():
            os.kill(child, signal.SIGKILL)


@_PROC_CHILDREN
def test_sweep_worker_ends_with_a_killed_cli(tmp_path):
    # a worker runs its 30-unit member while the CLI runs its own
    cfg = tiny_config(eps_list=[4e-2, 2e-2, 1e-2],
                      t_final={"policy": "fixed", "value": 30.0})
    assert_child_ends_with_a_killed_cli(
        tmp_path, ["sweep", "--config", write_config(tmp_path, cfg),
                   "--out", str(tmp_path / "s"), "--parallel", "2"])


# ------------------------------------------- track's decomposition consumer


@pytest.mark.parametrize("stride, rows", [(1, 101), (7, 16)])
def test_track_writes_the_same_with_and_without_the_consumer(tmp_path, monkeypatch,
                                                              forks, stride, rows):
    # the consumer takes the sample times from the run spec; at stride 7
    # the last of the 100 steps is a sample off the stride
    path = write_config(tmp_path, tiny_config(
        stride=stride, t_final={"policy": "fixed", "value": 0.1}))
    outs = {}
    for consumer in (True, False):
        monkeypatch.setattr(cli, "_spare_cpu", lambda: consumer)
        outs[consumer] = tmp_path / str(consumer)
        assert main(["track", "--config", path, "--out", str(outs[consumer])]) == 0
    for name in ("track.csv", "metrics.json"):
        assert (outs[True] / name).read_bytes() == (outs[False] / name).read_bytes()
    assert len((outs[True] / "track.csv").read_text().splitlines()) == rows + 1
    assert_reaped(forks, 1)


def test_each_consumer_sample_is_a_field_of_its_own(tmp_path, monkeypatch, forks):
    # a sink that reads a sample's values gets that sample's, not the
    # values the first sample cached
    class ReadsValues(cli.Tracker):
        def add(self, t, u):
            if not np.array_equal(u.values, from_spectrum(self.grid, u.spectrum)):
                raise ValueError(f"t = {t:.6g}: stale values")
            super().add(t, u)

    monkeypatch.setattr(cli, "Tracker", ReadsValues)
    monkeypatch.setattr(cli, "_spare_cpu", lambda: True)
    path = write_config(tmp_path, tiny_config(
        stride=1, t_final={"policy": "fixed", "value": 0.01}))
    assert main(["track", "--config", path, "--out", str(tmp_path / "o")]) == 0
    assert_reaped(forks, 1)


def test_the_consumer_record_pickles_small(tmp_path, monkeypatch, forks):
    # what a 401-sample consumer sends: about 58 KB as a pickled Tracker
    # of (t, GroupElement, ...) rows, about 32 KB as the record's arrays
    real, sent = cli._read, []

    def keep(children):
        got = real(children)
        sent.extend(got[0])
        return got

    monkeypatch.setattr(cli, "_read", keep)
    monkeypatch.setattr(cli, "_spare_cpu", lambda: True)
    path = write_config(tmp_path, tiny_config(
        stride=1, t_final={"policy": "fixed", "value": 0.4}))
    assert main(["track", "--config", path, "--out", str(tmp_path / "o")]) == 0
    assert len((tmp_path / "o" / "track.csv").read_text().splitlines()) == 402
    assert len(sent) == 1 and len(pickle.dumps(sent[0])) < 40 * 1024
    assert_reaped(forks, 1)


def _transit_config(tmp_path, value):
    # n = 8192, so a sample is about as large as a default pipe
    cfg = json.loads((Path(__file__).resolve().parents[1] / "configs"
                      / "transit.json").read_text())
    cfg.update(stride=1, t_final={"policy": "fixed", "value": value})
    return write_config(tmp_path, cfg)


class _FailsAtSample(cli.Tracker):
    K = 10

    def add(self, t, u):
        if len(self.rows) == self.K:
            raise cli.TubularNeighborhoodError(f"t = {t:.6g}: injected")
        super().add(t, u)


@pytest.mark.parametrize("diverge", [False, True])
def test_a_failed_decomposition_stops_the_consumer_run(tmp_path, capsys,
                                                       monkeypatch, forks,
                                                       diverge):
    # the consumer fails at sample K of 101: the CLI reports what the
    # inline run reports, having made at most samples 0 .. K + 2, also
    # when the PDE itself fails at sample K + 1, after the consumer's error
    made, real = [], dynamics.from_bins

    def counted(*args):
        made.append(1)
        if diverge and len(made) == _FailsAtSample.K + 2:
            raise DivergenceError("injected after the decomposition failed")
        return real(*args)

    monkeypatch.setattr(dynamics, "from_bins", counted)
    monkeypatch.setattr(cli, "Tracker", _FailsAtSample)
    path, errs = _transit_config(tmp_path, 0.05), {}
    for consumer in (False, True):
        monkeypatch.setattr(cli, "_spare_cpu", lambda: consumer)
        made.clear()
        assert main(["track", "--config", path,
                     "--out", str(tmp_path / str(consumer))]) == 1
        errs[consumer] = capsys.readouterr().err
        assert len(made) <= _FailsAtSample.K + 3, (consumer, len(made))
    assert errs[True] == errs[False]
    assert errs[True] == ("runtime error: decomposition left the tubular "
                          "neighborhood (t = 0.005: injected)\n")
    assert_reaped(forks, 1)


def test_track_names_a_consumer_killed_by_a_signal(tmp_path, capsys,
                                                   monkeypatch, forks):
    # the consumer kills itself at sample 3
    cli_pid = os.getpid()

    class DiesAtSample(cli.Tracker):
        def add(self, t, u):
            if len(self.rows) == 3 and os.getpid() != cli_pid:
                os.kill(os.getpid(), signal.SIGKILL)
            super().add(t, u)

    monkeypatch.setattr(cli, "Tracker", DiesAtSample)
    monkeypatch.setattr(cli, "_spare_cpu", lambda: True)
    assert main(["track", "--config", _transit_config(tmp_path, 0.05),
                 "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("runtime error: decomposition consumer ")
    assert f"was killed by signal {int(signal.SIGKILL)} " in err
    assert not (tmp_path / "o" / "track.csv").exists()
    assert_reaped(forks, 1)


def test_an_interrupted_consumer_run_reaps_the_consumer(tmp_path, monkeypatch,
                                                        forks):
    made, real = [], dynamics.from_bins

    def interrupt_at_5(*args):
        made.append(1)
        if len(made) == 5:
            raise KeyboardInterrupt
        return real(*args)

    monkeypatch.setattr(dynamics, "from_bins", interrupt_at_5)
    monkeypatch.setattr(cli, "_spare_cpu", lambda: True)
    with pytest.raises(KeyboardInterrupt):
        main(["track", "--config", _transit_config(tmp_path, 0.05),
              "--out", str(tmp_path / "o")])
    assert_reaped(forks, 1)


@pytest.mark.parametrize("command, consumer",
                         [("simulate", None), ("track", True), ("track", False)])
def test_a_diverging_run_is_a_runtime_error(tmp_path, capsys, monkeypatch, forks,
                                            command, consumer):
    # DivergenceError is a RuntimeError: exit 1 with its message, and a
    # forked consumer is reaped
    def diverges(*args, **kwargs):
        raise DivergenceError("non-finite field at t = 0.001")

    monkeypatch.setattr(cli, "evolve_pde", diverges)
    monkeypatch.setattr(cli, "_spare_cpu", lambda: consumer)
    assert main([command, "--config", write_config(tmp_path, tiny_config()),
                 "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == "runtime error: non-finite field at t = 0.001\n"
    assert_reaped(forks, int(bool(consumer)))


@_PROC_CHILDREN
@pytest.mark.skipif(not cli._spare_cpu(), reason="track forks no consumer here")
def test_track_consumer_ends_with_a_killed_cli(tmp_path):
    cfg = tiny_config(t_final={"policy": "fixed", "value": 30.0})
    assert_child_ends_with_a_killed_cli(
        tmp_path, ["track", "--config", write_config(tmp_path, cfg),
                   "--out", str(tmp_path / "t")])


# ------------------------------------------------------------ streamed runs


def test_streamed_run_matches_stored_track():
    # the streamed pipeline against track over a run that keeps its fields
    cfg = tiny_config(stride=1, t_final={"policy": "fixed", "value": 0.05})
    report, metrics, _ = _run_tracked(cfg)

    spec = run_spec(cfg)
    grid, b, g0, eps = spec.grid, spec.potential, spec.g0, 0.01
    traj = evolve_pde(soliton_profile(g0, grid), b, eps, float(spec.times[-1]),
                      cfg["dt"], 1)
    assert len(traj.fields) == traj.times.size == 51
    assert np.array_equal(spec.times, traj.times)
    eff = evolve_effective(EffectiveState(0.0, g0), b, eps, traj.times,
                           grid=grid, rtol=1e-11, atol=1e-13)
    assert [s.t for s in eff] == list(traj.times)
    want = track(traj, b, eps, eff, g0=g0)

    for f in dataclasses.fields(TrackReport):
        got, exp = getattr(report, f.name), getattr(want, f.name)
        if f.name == "g_series":
            got = [g.as_array() for g in got]
            exp = [g.as_array() for g in exp]
        assert np.array_equal(got, exp, equal_nan=True), f.name
    want_metrics = theorem_metrics(want, eps, cfg["delta"])
    want_metrics["mass_drift"] = traj.mass_drift
    want_metrics["hamiltonian_drift"] = traj.hamiltonian_drift
    want_metrics["max_newton_iters"] = int(want.newton_iters.max())
    want_metrics["max_mass_identity_residual"] = float(want.mass_residual.max())
    assert json.dumps(metrics, sort_keys=True) == \
        json.dumps(want_metrics, sort_keys=True)


def test_streamed_run_memory_does_not_grow_with_samples():
    def peak(t_final):
        cfg = tiny_config(stride=1, t_final={"policy": "fixed", "value": t_final})
        tracemalloc.start()
        try:
            _run_tracked(cfg)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(0.05)                      # first call fills the module caches
    short, long = peak(0.05), peak(0.1)
    # 50 more samples; a kept sample holds values and spectrum
    field_bytes = 2 * tiny_config()["grid"]["n"] * 16
    assert long - short < 0.1 * 50 * field_bytes, (short, long)


def test_commands_leave_scipy_integrate_and_interpolate_unloaded(tmp_path):
    # the effective ODE runs on dynamics._rk45, the splines are imported
    # only by table potentials and non-family rescales, and the FFTs call
    # the compiled pocketfft directly, so no command pays for any of these
    # subpackages at start-up.  The run commands also leave numpy.random
    # (and the OpenSSL it loads through secrets and hashlib), numpy.fft and
    # multiprocessing unloaded: only validate's random draws need
    # numpy.random, and sweep's workers are bare forks with a pipe each.
    path = write_config(tmp_path, tiny_config(eps_list=[4e-2, 2e-2, 1e-2]))
    runs = [[cmd, "--config", path, "--out", str(tmp_path / cmd), *extra]
            for cmd, *extra in (["simulate"], ["effective"], ["track", "--plots"],
                                ["sweep", "--parallel", "2"])]
    validate = ["validate", "--out", str(tmp_path / "validate")]
    script = ("import sys\nfrom szego_lab import cli\n"
              f"for argv in {runs!r}:\n    assert cli.main(argv) == 0, argv\n"
              "print('runs:', sorted({'numpy.random', 'numpy.fft', 'hashlib',"
              " '_hashlib', 'secrets', 'multiprocessing', 'concurrent.futures'}"
              " & set(sys.modules)))\n"
              f"assert cli.main({validate!r}) == 0\n"
              "print('all:', sorted({'scipy.fft', 'scipy.integrate', 'scipy.interpolate'}"
              " & set(sys.modules)))")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    assert "runs: []" in lines
    assert lines[-1] == "all: []"


_LAYERS = ["spectral_core", "soliton_manifold", "operators", "dynamics",
           "decomposition"]


@pytest.mark.parametrize("module, loaded", [
    *((layer, _LAYERS[:k + 1]) for k, layer in enumerate(_LAYERS)),
    ("plots", ["plots"]),
    ("cli", _LAYERS + ["plots", "cli"]),
], ids=_LAYERS + ["plots", "cli"])
def test_a_module_loads_only_the_modules_it_imports(module, loaded):
    # the package re-exports nothing, so each layer of grid, soliton
    # family, operators, flow and decomposition loads only those below it
    script = (f"import json, sys, szego_lab.{module}\n"
              "print(json.dumps(sorted(m for m in sys.modules"
              " if m.startswith('szego_lab.'))))")
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == sorted(f"szego_lab.{m}" for m in loaded)


def test_benchmark_tracer_installs():
    # perfbench/tracing.py wraps szego_lab's module attributes by name,
    # cli.track among them, which cli.py imports only for the tracer; a
    # deleted or renamed name makes install fail
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(root / "src"), str(root / "perfbench")]))
    done = subprocess.run(
        [sys.executable, "-c", "import tracing; tracing.install(tracing.Tracer())"],
        capture_output=True, text=True, env=env, cwd=root)
    assert done.returncode == 0, done.stderr


def test_benchmark_setup_probe_runs(tmp_path, monkeypatch):
    # perfbench/setup_probe.py times a run's set-up through validate_config,
    # build_grid, build_potential, build_g0 and cli.soliton_profile; a
    # renamed one would break only the benchmark's setup_s.  perfbench's
    # own dense and sweep configs carry a "seed" key the schema does not
    # name: a config check that rejected unknown keys would make every
    # benchmark run exit 2
    root = Path(__file__).resolve().parents[1]
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", root / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)   # for its dataclass
    spec.loader.exec_module(workloads)
    configs = {"tiny": tiny_config()}
    for name in ("dense", "sweep"):
        configs[name] = workloads.make_config(workloads.WORKLOADS[name], 1)
        assert "seed" in configs[name]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    for name, cfg in configs.items():
        done = subprocess.run(
            [sys.executable, str(root / "perfbench" / "setup_probe.py"),
             write_config(tmp_path, cfg, f"{name}.json")],
            capture_output=True, text=True, env=env, cwd=tmp_path)
        assert done.returncode == 0, (name, done.stderr)


def test_benchmark_tracer_records_a_tiny_track_run(tmp_path):
    # install alone would miss a wrapped name that breaks at call time:
    # run the traced CLI and read its spans the way the benchmark does
    root = Path(__file__).resolve().parents[1]
    spans_path, out = tmp_path / "spans.json", tmp_path / "out"
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    done = subprocess.run(
        [sys.executable, str(root / "perfbench" / "traced_cli.py"), str(spans_path),
         "track", "--config", write_config(tmp_path, tiny_config()),
         "--out", str(out)],
        capture_output=True, text=True, env=env, cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", root / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    metrics = tracing.layer_metrics(json.loads(spans_path.read_text()))
    assert metrics["spectral_core.transform_calls"] > 0
    assert metrics["dynamics.steps"] == 200
    assert (out / "metrics.json").is_file()


# ------------------------------------------------------ the command-line entry


def test_main_in_process_freezes_nothing(tmp_path):
    # only the command-line entry freezes the heap: a caller of main(),
    # this test suite among them, still has its garbage collected
    before = gc.get_freeze_count()
    assert main(["track", "--config", write_config(tmp_path, tiny_config()),
                 "--out", str(tmp_path / "o")]) == 0
    assert gc.get_freeze_count() == before


def test_the_command_line_writes_what_main_writes(tmp_path):
    # `python -m szego_lab.cli` and the szego-lab script run one entry,
    # which freezes the import heap and then writes what main() writes
    root = Path(__file__).resolve().parents[1]
    assert re.search(r'^szego-lab = "szego_lab\.cli:entry"$',
                     (root / "pyproject.toml").read_text(), re.M)
    path = write_config(tmp_path, tiny_config(stride=1))
    assert main(["track", "--plots", "--config", path,
                 "--out", str(tmp_path / "main")]) == 0
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    argv = ["track", "--plots", "--config", path, "--out", str(tmp_path / "cli")]
    done = subprocess.run([sys.executable, "-m", "szego_lab.cli", *argv],
                          capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stderr
    names = sorted(p.name for p in (tmp_path / "main").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "cli").iterdir())
    for name in names:
        assert (tmp_path / "cli" / name).read_bytes() \
            == (tmp_path / "main" / name).read_bytes(), name
    script = ("import gc, sys\nfrom szego_lab import cli\n"
              f"sys.argv[1:] = {argv!r}\n"
              "code = cli.entry()\nprint(code, gc.get_freeze_count() > 0)")
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split()[-2:] == ["0", "True"]
