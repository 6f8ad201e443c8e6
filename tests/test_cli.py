import dataclasses
import json
import math
import multiprocessing
import os
import re
import signal
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from szego_lab import cli, plots
from szego_lab.cli import (
    _run_tracked,
    _sample_times,
    build_g0,
    build_grid,
    build_potential,
    horizon,
    main,
    run_horizon,
    validate_config,
)
from szego_lab.decomposition import TrackReport, theorem_metrics, track
from szego_lab.dynamics import EffectiveState, evolve_effective, evolve_pde
from szego_lab.soliton_manifold import soliton_profile


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
    assert run_horizon(cfg) == 0.0
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
    assert [run_horizon(dict(cfg, eps=v)) / 5e-3 for v in (0.9, 0.3, 0.1)] \
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


def test_sweep_needs_eps_list():
    cfg = tiny_config()
    assert any("eps_list" in e for e in validate_config(cfg, need_sweep=True))
    good = tiny_config(eps_list=[4e-2, 2e-2, 1e-2])
    assert validate_config(good, need_sweep=True) == []
    bad = tiny_config(eps_list=[1e-2, 2e-2, 4e-2, 5e-2])
    assert any("eps_list" in e for e in validate_config(bad, need_sweep=True))


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
    assert abs(horizon(cfg) - want) < 1e-12
    fixed = tiny_config(t_final={"policy": "fixed", "value": 7.5})
    assert horizon(fixed) == 7.5


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


_SOLITON = {"a0": -3.0, "alpha0": 1.0, "phi0": 0.0, "mu0": 3.0}


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
], ids=["bool_eps", "bool_stride", "bool_L", "nan_a0", "inf_L", "inf_t_final", "huge_t_final",
        "grid_number", "soliton_list", "potential_string", "table_string"])
def test_main_rejects_malformed_numbers_and_sections(tmp_path, capsys, path,
                                                     overrides):
    # JSON's true, NaN and Infinity are not finite real numbers, and a
    # section must be an object: each is a config error naming its path
    cfg_path = write_config(tmp_path, tiny_config(**overrides))
    assert main(["effective", "--config", cfg_path,
                 "--out", str(tmp_path / "o")]) == 2
    assert f"config error: {path}: " in capsys.readouterr().err


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
    times = _sample_times(cfg)
    states = evolve_effective(EffectiveState(0.0, build_g0(cfg)),
                              build_potential(cfg), cfg["eps"], float(times[-1]),
                              t_eval=times, grid=build_grid(cfg),
                              rtol=1e-11, atol=1e-13)
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
    assert horizon(cfg) - cfg["dt"] < last <= horizon(cfg)


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


@pytest.mark.parametrize("parallel", ["2", "3"])
def test_sweep_parallel_matches_serial(tmp_path, parallel):
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


def test_sweep_reports_a_member_that_fails_in_a_worker(tmp_path, capsys,
                                                        monkeypatch):
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
    assert multiprocessing.active_children() == []


def test_sweep_in_one_process_forks_nothing(tmp_path, monkeypatch):
    def no_fork():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", no_fork)
    path = write_config(tmp_path, tiny_config(eps_list=[4e-2, 2e-2, 1e-2]))
    assert main(["sweep", "--config", path, "--out", str(tmp_path / "s"),
                 "--parallel", "1"]) == 0


@pytest.mark.skipif(not Path(f"/proc/self/task/{os.getpid()}/children").exists(),
                    reason="reads the process tree from Linux /proc")
def test_sweep_worker_ends_with_a_killed_cli(tmp_path):
    # a worker idles on its task queue once its member is done; if the
    # CLI is killed it must not be left behind
    cfg = tiny_config(eps_list=[4e-2, 2e-2, 1e-2],
                      t_final={"policy": "fixed", "value": 30.0})
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.Popen(
        [sys.executable, "-m", "szego_lab.cli", "sweep", "--config",
         write_config(tmp_path, cfg), "--out", str(tmp_path / "s"),
         "--parallel", "2"],
        env=dict(os.environ, PYTHONPATH=src), stdin=subprocess.DEVNULL,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    children = Path(f"/proc/{proc.pid}/task/{proc.pid}/children")
    deadline = time.monotonic() + 60
    try:
        while not children.read_text().split():
            assert proc.poll() is None and time.monotonic() < deadline
            time.sleep(0.05)
        worker = int(children.read_text().split()[0])
    finally:
        proc.kill()
        proc.wait()

    def alive():
        try:   # a zombie has ended, whether or not it was reaped
            stat = Path(f"/proc/{worker}/stat").read_text()
        except FileNotFoundError:
            return False
        return stat.rsplit(")", 1)[1].split()[0] != "Z"

    try:
        while alive():
            assert time.monotonic() < deadline + 10, \
                f"worker {worker} outlived the CLI"
            time.sleep(0.05)
    finally:
        if alive():
            os.kill(worker, signal.SIGKILL)


# ------------------------------------------------------------ streamed runs


def test_streamed_run_matches_stored_track():
    # the streamed pipeline against track over a run that keeps its fields
    cfg = tiny_config(stride=1, t_final={"policy": "fixed", "value": 0.05})
    report, metrics, _ = _run_tracked(cfg)

    grid, b, g0, eps = build_grid(cfg), build_potential(cfg), build_g0(cfg), 0.01
    traj = evolve_pde(soliton_profile(g0, grid), b, eps, run_horizon(cfg),
                      cfg["dt"], 1)
    assert len(traj.fields) == traj.times.size == 51
    assert np.array_equal(_sample_times(cfg), traj.times)
    eff = evolve_effective(EffectiveState(0.0, g0), b, eps,
                           float(traj.times[-1]), t_eval=traj.times,
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
    # the effective ODE runs on dynamics._rk45 and the splines are
    # imported only by table potentials and non-family rescales, so no
    # command pays for either subpackage at start-up
    path = write_config(tmp_path, tiny_config(eps_list=[4e-2, 2e-2, 1e-2]))
    argvs = [[cmd, "--config", path, "--out", str(tmp_path / cmd), *extra]
             for cmd, *extra in (["simulate"], ["effective"], ["track", "--plots"],
                                 ["sweep", "--parallel", "2"])]
    argvs.append(["validate", "--out", str(tmp_path / "validate")])
    script = ("import sys\nfrom szego_lab import cli\n"
              f"for argv in {argvs!r}:\n    assert cli.main(argv) == 0, argv\n"
              "print(sorted({'scipy.integrate', 'scipy.interpolate'} & set(sys.modules)))")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip().splitlines()[-1] == "[]"


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
