"""Config-driven experiment runner.

Subcommands: simulate (PDE run + conservation report), effective
(parameter ODE), track (PDE + effective + decomposition report),
sweep (several eps values, scaling regression), validate (the check
table of checks.py).  One JSON config drives everything; outputs are
CSV and JSON (plus optional SVG), written with fixed 17-significant-digit
formatting so an identical config gives byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .spectral_core import SpectralGrid, sobolev_norm
from .operators import (
    constant_potential,
    gaussian_potential,
    hamiltonian,
    mass,
    sech2_potential,
    table_potential,
)
from .soliton_manifold import MU_MAX, MU_MIN, GroupElement, soliton_profile
from .dynamics import DivergenceError, EffectiveState, evolve_effective, evolve_pde
from .decomposition import (
    Tracker,
    TubularNeighborhoodError,
    theorem_metrics,
    track,  # unused here; perfbench's tracer wraps cli.track at install
)
from . import checks, plots

_POTENTIAL_KINDS = ("gaussian", "sech2", "constant", "table")


def _check(errors, path, ok, message):
    if not ok:
        errors.append(f"{path}: {message}")


def validate_config(cfg: dict, need_sweep: bool = False) -> list:
    """Schema check with explicit error paths; returns a list of
    problems (empty when the config is usable)."""
    e = []
    if not isinstance(cfg, dict):
        return ["<root>: config must be a JSON object"]
    g = cfg.get("grid", {})
    _check(e, "grid.n", isinstance(g.get("n"), int) and g.get("n", 0) >= 16
           and (g.get("n", 0) & (g.get("n", 0) - 1)) == 0,
           "n must be a power-of-two integer >= 16")
    _check(e, "grid.L", isinstance(g.get("L"), (int, float)) and g.get("L", 0) > 0,
           "L must be a positive number")
    s = cfg.get("soliton", {})
    for key in ("a0", "alpha0", "phi0", "mu0"):
        _check(e, f"soliton.{key}", isinstance(s.get(key), (int, float)),
               "missing or non-numeric")
    if isinstance(s.get("alpha0"), (int, float)):
        _check(e, "soliton.alpha0", s["alpha0"] > 0, "must be positive")
    if isinstance(s.get("mu0"), (int, float)):
        _check(e, "soliton.mu0", MU_MIN <= s["mu0"] <= MU_MAX,
               f"must lie in [{MU_MIN:g}, {MU_MAX:g}]")
    p = cfg.get("potential", {})
    kind = p.get("kind")
    _check(e, "potential.kind", kind in _POTENTIAL_KINDS,
           f"must be one of {_POTENTIAL_KINDS}")
    if kind in ("gaussian", "sech2"):
        for key in ("amplitude", "center", "width"):
            _check(e, f"potential.{key}",
                   isinstance(p.get(key), (int, float)), "missing or non-numeric")
        if isinstance(p.get("width"), (int, float)):
            _check(e, "potential.width", p["width"] > 0, "must be positive")
    elif kind == "constant":
        _check(e, "potential.value", isinstance(p.get("value"), (int, float)),
               "missing or non-numeric")
    elif kind == "table":
        xs, vs = p.get("x"), p.get("values")
        ok = isinstance(xs, list) and isinstance(vs, list) \
            and len(xs) == len(vs) and len(xs) >= 4
        _check(e, "potential.x/values", ok,
               "need two equal-length lists with at least 4 points")
    eps = cfg.get("eps")
    _check(e, "eps", isinstance(eps, (int, float)) and eps >= 0, "must be >= 0")
    delta = cfg.get("delta", 0.35)
    _check(e, "delta", isinstance(delta, (int, float)) and 0 < delta < 0.5,
           "must lie strictly inside (0, 1/2)")
    tf = cfg.get("t_final", {})
    policy = tf.get("policy") if isinstance(tf, dict) else None
    _check(e, "t_final.policy", policy in ("fixed", "theorem_horizon"),
           "must be 'fixed' or 'theorem_horizon'")
    if policy == "fixed":
        _check(e, "t_final.value",
               isinstance(tf.get("value"), (int, float)) and tf.get("value", 0) > 0,
               "must be a positive number")
    if policy == "theorem_horizon":
        c0 = tf.get("c0_fit", 32.0)
        _check(e, "t_final.c0_fit",
               isinstance(c0, (int, float)) and c0 > 1, "must be > 1")
        _check(e, "eps", isinstance(eps, (int, float)) and eps > 0,
               "theorem_horizon needs eps > 0")
    dt = cfg.get("dt", 5e-4)
    _check(e, "dt", isinstance(dt, (int, float)) and dt > 0, "must be positive")
    stride = cfg.get("stride", 100)
    _check(e, "stride", isinstance(stride, int) and stride >= 1,
           "must be an integer >= 1")
    if need_sweep:
        el = cfg.get("eps_list")
        if not (isinstance(el, list) and len(el) >= 3
                and all(isinstance(v, (int, float)) and v > 0 for v in el)):
            e.append("eps_list: sweep needs at least 3 positive eps values")
        else:
            r = [el[i] / el[i + 1] for i in range(len(el) - 1)]
            _check(e, "eps_list", max(r) / min(r) < 1 + 1e-9,
                   "values must be geometrically spaced")
    if not e:
        _check(e, "t_final", run_horizon(cfg) >= dt,
               f"horizon {horizon(cfg):.6g} is shorter than one dt step")
    return e


def horizon(cfg: dict) -> float:
    tf = cfg["t_final"]
    if tf["policy"] == "fixed":
        return float(tf["value"])
    eps = float(cfg["eps"])
    delta = float(cfg.get("delta", 0.35))
    c0 = float(tf.get("c0_fit", 32.0))
    return (delta / (6.0 * math.log(c0))) * eps ** (-(0.5 - delta)) \
        * math.log(1.0 / eps)


def run_horizon(cfg: dict) -> float:
    """horizon(cfg) snapped down to a whole number of dt steps, the
    horizon every command integrates to."""
    dt = float(cfg.get("dt", 5e-4))
    return math.floor(horizon(cfg) / dt + 1e-9) * dt


def build_grid(cfg: dict) -> SpectralGrid:
    return SpectralGrid(cfg["grid"]["n"], float(cfg["grid"]["L"]))


def build_potential(cfg: dict):
    p = cfg["potential"]
    kind = p["kind"]
    if kind == "gaussian":
        return gaussian_potential(p["amplitude"], p["center"], p["width"])
    if kind == "sech2":
        return sech2_potential(p["amplitude"], p["center"], p["width"])
    if kind == "constant":
        return constant_potential(p["value"])
    return table_potential(np.asarray(p["x"], dtype=float),
                           np.asarray(p["values"], dtype=float))


def build_g0(cfg: dict) -> GroupElement:
    s = cfg["soliton"]
    return GroupElement(float(s["a0"]), float(s["alpha0"]),
                        float(s["phi0"]), float(s["mu0"]))


def _write_csv(path, header: list, columns: list) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        n = len(columns[0])
        for i in range(n):
            fh.write(",".join("%.17g" % col[i] for col in columns) + "\n")


def _write_json(path, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _sample_times(cfg: dict) -> np.ndarray:
    dt = float(cfg.get("dt", 5e-4))
    stride = int(cfg.get("stride", 100))
    n_steps = int(round(run_horizon(cfg) / dt))
    ks = list(range(0, n_steps + 1, stride))
    if ks[-1] != n_steps:
        ks.append(n_steps)
    return np.array([k * dt for k in ks])


def cmd_simulate(cfg: dict, outdir: str, with_plots: bool) -> int:
    grid = build_grid(cfg)
    b = build_potential(cfg)
    eps = float(cfg["eps"])
    u0 = soliton_profile(build_g0(cfg), grid)
    norms_l2, norms_h12, masses, hams = [], [], [], []

    def on_sample(t, f):
        norms_l2.append(f.norm_l2())
        norms_h12.append(sobolev_norm(f, 0.5))
        masses.append(mass(f))
        hams.append(hamiltonian(f, b, eps))

    traj = evolve_pde(u0, b, eps, run_horizon(cfg), float(cfg.get("dt", 5e-4)),
                      int(cfg.get("stride", 100)), on_sample=on_sample)
    _write_csv(os.path.join(outdir, "fields.csv"),
               ["t", "norm_L2", "norm_H12", "mass", "hamiltonian"],
               [traj.times, norms_l2, norms_h12, masses, hams])
    _write_json(os.path.join(outdir, "conservation.json"), {
        "eps": eps, "dt": traj.dt, "t_final": float(traj.times[-1]),
        "samples": int(traj.times.size),
        "mass_drift": traj.mass_drift,
        "hamiltonian_drift": traj.hamiltonian_drift,
    })
    if with_plots:
        plots.line_plot(os.path.join(outdir, "conservation.svg"),
                        traj.times, [masses, hams],
                        labels=["mass", "H_b"], title="conserved quantities",
                        xlabel="t")
    print(f"simulate: {traj.times.size} samples -> {outdir}/fields.csv "
          f"(mass drift {traj.mass_drift:.3e}, H_b drift "
          f"{traj.hamiltonian_drift:.3e})")
    return 0


def _effective_run(cfg: dict, grid: SpectralGrid, b, g0: GroupElement) -> list:
    """The reduced flow on the grid route at the sample times: what
    effective writes and what track compares against."""
    times = _sample_times(cfg)
    return evolve_effective(EffectiveState(0.0, g0), b, float(cfg["eps"]),
                            float(times[-1]), t_eval=times, grid=grid,
                            rtol=1e-11, atol=1e-13)


def cmd_effective(cfg: dict, outdir: str, with_plots: bool) -> int:
    states = _effective_run(cfg, build_grid(cfg), build_potential(cfg),
                            build_g0(cfg))
    times = [s.t for s in states]
    params = list(np.array([s.g.as_array() for s in states]).T)
    _write_csv(os.path.join(outdir, "effective.csv"),
               ["t", "a", "alpha", "phi", "mu"], [times] + params)
    if with_plots:
        plots.line_plot(os.path.join(outdir, "effective.svg"), times, params,
                        labels=["a", "alpha", "phi", "mu"],
                        title="effective parameters", xlabel="t")
    print(f"effective: {len(times)} samples -> {outdir}/effective.csv")
    return 0


def _run_tracked(cfg: dict):
    """The tracked run of track and sweep: the effective run at the
    sample times, then one PDE pass that streams each sample into the
    decomposition, so no sample is kept."""
    grid = build_grid(cfg)
    b = build_potential(cfg)
    eps = float(cfg["eps"])
    g0 = build_g0(cfg)
    eff = _effective_run(cfg, grid, b, g0)
    tracker = Tracker(grid, g0)
    traj = evolve_pde(soliton_profile(g0, grid), b, eps, run_horizon(cfg),
                      float(cfg.get("dt", 5e-4)), int(cfg.get("stride", 100)),
                      on_sample=tracker.add)
    report = tracker.report(b, eps, eff)
    metrics = theorem_metrics(report, eps, float(cfg.get("delta", 0.35)))
    metrics["mass_drift"] = traj.mass_drift
    metrics["hamiltonian_drift"] = traj.hamiltonian_drift
    metrics["max_newton_iters"] = int(report.newton_iters.max())
    metrics["max_mass_identity_residual"] = float(report.mass_residual.max())
    return report, metrics


def _emit_tracked(report, metrics, outdir: str, with_plots: bool) -> None:
    report.to_csv(os.path.join(outdir, "track.csv"))
    _write_json(os.path.join(outdir, "metrics.json"), metrics)
    if with_plots:
        plots.line_plot(os.path.join(outdir, "w_norm.svg"), report.times,
                        [report.w_h12], labels=["|w|_H12"],
                        title="remainder size", xlabel="t", logy=True)
        if report.deviations is not None:
            plots.line_plot(os.path.join(outdir, "deviations.svg"),
                            report.times,
                            [report.deviations[:, k] for k in range(4)],
                            labels=["|a-a_eff|", "|alpha-alpha_eff|",
                                    "|phi-phi_eff|", "|mu-mu_eff|"],
                            title="deviation from effective dynamics",
                            xlabel="t", logy=True)


def cmd_track(cfg: dict, outdir: str, with_plots: bool) -> int:
    report, metrics = _run_tracked(cfg)
    _emit_tracked(report, metrics, outdir, with_plots)
    print(f"track: {report.times.size} samples -> {outdir}/track.csv  "
          f"(sup |w|_H12 {metrics['sup_w_h12']:.3e}, "
          f"c_fit {metrics.get('c_fit', float('nan')):.3g})")
    return 0


_SWEEP_SLOPES = [("sup_w_h12", "power_w_h12"), ("sup_dev_a", "power_a"),
                 ("sup_dev_alpha", "power_alpha"), ("sup_dev_phi", "power_phi"),
                 ("sup_dev_mu", "power_mu")]


def cmd_sweep(cfg: dict, outdir: str, with_plots: bool, parallel: int) -> int:
    eps_list = [float(v) for v in cfg["eps_list"]]
    members = []
    for eps in eps_list:
        mcfg = dict(cfg)
        mcfg["eps"] = eps
        members.append(mcfg)

    results = {}
    failure = None
    with ThreadPoolExecutor(max_workers=max(1, parallel)) as pool:
        futs = {pool.submit(_run_tracked, m): m["eps"] for m in members}
        for fut, eps in futs.items():
            try:
                results[eps] = fut.result()
            except Exception as exc:   # preserve partial results on abort
                if failure is None:
                    failure = (eps, exc)
    for eps in sorted(results, reverse=True):
        sub = os.path.join(outdir, f"eps_{eps:g}")
        os.makedirs(sub, exist_ok=True)
        _emit_tracked(*results[eps], sub, with_plots)

    summary = {"eps_list": eps_list, "delta": float(cfg.get("delta", 0.35)),
               "completed": sorted(results, reverse=True)}
    if len(results) >= 2:
        le = np.log([e for e in sorted(results, reverse=True)])
        slopes = {}
        for key, pkey in _SWEEP_SLOPES:
            vals = np.array([results[e][1][key]
                             for e in sorted(results, reverse=True)])
            with np.errstate(divide="ignore"):
                lv = np.log(vals)
            slopes[key] = float(np.polyfit(le, lv, 1)[0]) \
                if np.all(np.isfinite(lv)) else float("nan")
            slopes[f"predicted_{key}"] = results[max(results)][1][pkey]
        summary["slopes"] = slopes
        if with_plots and len(results) >= 2:
            es = sorted(results, reverse=True)
            plots.line_plot(
                os.path.join(outdir, "scaling.svg"), es,
                [[results[e][1][k] for e in es] for k, _ in _SWEEP_SLOPES],
                labels=[k for k, _ in _SWEEP_SLOPES],
                title="sweep scaling", xlabel="eps", logx=True, logy=True)
    if failure is not None:
        eps, exc = failure
        summary["failed_eps"] = eps
        summary["error"] = f"{type(exc).__name__}: {exc}"
        _write_json(os.path.join(outdir, "sweep_summary.json"), summary)
        print(f"sweep: member eps={eps:g} failed: {exc}", file=sys.stderr)
        return 1
    _write_json(os.path.join(outdir, "sweep_summary.json"), summary)
    slopes = summary.get("slopes", {})
    print("sweep: " + "  ".join(f"{k}={slopes.get(k, float('nan')):.3f}"
                                for k, _ in _SWEEP_SLOPES))
    return 0


def cmd_validate(outdir: str) -> int:
    suite = checks.Suite()
    width = max(len(row[0]) for row in checks.VALIDATE_ROWS)
    results = {}
    for name, measure, compare, bound in checks.VALIDATE_ROWS:
        value = float(measure(suite))
        ok = bool(compare(value, bound))
        print(f"{name:<{width}}  {'PASS' if ok else 'FAIL'}  "
              f"(measured {value:.3e}, bound {bound:.3e})")
        results[name] = {"passed": ok, "measured": value, "bound": float(bound)}
    _write_json(os.path.join(outdir, "validate.json"), results)
    return 0 if all(r["passed"] for r in results.values()) else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="szego-lab",
                                 description="soliton dynamics experiments")
    ap.add_argument("command",
                    choices=["simulate", "effective", "track", "sweep",
                             "validate"])
    ap.add_argument("--config", help="JSON experiment config")
    ap.add_argument("--out", help="output directory (overrides config)")
    ap.add_argument("--plots", action="store_true", help="also write SVG plots")
    ap.add_argument("--parallel", type=int, default=1,
                    help="sweep worker pool size")
    args = ap.parse_args(argv)

    cfg = {}
    if args.command != "validate":
        if not args.config:
            print("config error: --config is required", file=sys.stderr)
            return 2
        try:
            with open(args.config) as fh:
                cfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 2
        problems = validate_config(cfg, need_sweep=(args.command == "sweep"))
        if problems:
            for p in problems:
                print(f"config error: {p}", file=sys.stderr)
            return 2

    outdir = args.out or cfg.get("outdir", ".")
    os.makedirs(outdir, exist_ok=True)

    try:
        if args.command == "simulate":
            return cmd_simulate(cfg, outdir, args.plots)
        if args.command == "effective":
            return cmd_effective(cfg, outdir, args.plots)
        if args.command == "track":
            return cmd_track(cfg, outdir, args.plots)
        if args.command == "sweep":
            return cmd_sweep(cfg, outdir, args.plots, args.parallel)
        return cmd_validate(outdir)
    except DivergenceError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 1
    except TubularNeighborhoodError as exc:
        print(f"runtime error: decomposition left the tubular neighborhood "
              f"({exc})", file=sys.stderr)
        return 1
    except (RuntimeError, ValueError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
