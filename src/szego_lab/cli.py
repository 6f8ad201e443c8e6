"""Config-driven experiment runner.

Subcommands: simulate (PDE run + conservation report), effective
(parameter ODE), track (PDE + effective + decomposition report),
sweep (several eps values, scaling regression), validate (built-in
check suite).  One JSON config drives everything; outputs are CSV and
JSON (plus optional SVG), written with fixed 17-significant-digit
formatting so identical config and seed give byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .spectral_core import (
    HardyField,
    SpectralGrid,
    eta_field,
    from_spectrum,
    inner_real,
    random_hardy_field,
    random_rational_field,
    sobolev_norm,
)
from .operators import (
    constant_potential,
    gaussian_potential,
    hamiltonian,
    hankel_apply,
    hankel_rank,
    kernel_witness,
    linearized_apply,
    mass,
    sech2_potential,
    table_potential,
)
from .soliton_manifold import (
    MU_MAX,
    MU_MIN,
    GroupElement,
    generator_spectra,
    manifold_project,
    omega_eta_matrix,
    soliton_profile,
)
from .dynamics import (
    DivergenceError,
    EffectiveState,
    effective_rhs,
    evolve_effective,
    evolve_pde,
    free_flow,
)
from .decomposition import (
    Tracker,
    TubularNeighborhoodError,
    theorem_metrics,
    track,
    x_vector,
)
from . import plots

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
    seed = cfg.get("seed", 0)
    _check(e, "seed", isinstance(seed, int), "must be an integer")
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


def cmd_effective(cfg: dict, outdir: str, with_plots: bool) -> int:
    b = build_potential(cfg)
    eps = float(cfg["eps"])
    times = _sample_times(cfg)
    states = evolve_effective(EffectiveState(0.0, build_g0(cfg)), b, eps,
                              float(times[-1]), t_eval=times)
    P = np.array([s.g.as_array() for s in states])
    _write_csv(os.path.join(outdir, "effective.csv"),
               ["t", "a", "alpha", "phi", "mu"],
               [times, P[:, 0], P[:, 1], P[:, 2], P[:, 3]])
    if with_plots:
        plots.line_plot(os.path.join(outdir, "effective.svg"), times,
                        [P[:, 0], P[:, 1], P[:, 2], P[:, 3]],
                        labels=["a", "alpha", "phi", "mu"],
                        title="effective parameters", xlabel="t")
    print(f"effective: {times.size} samples -> {outdir}/effective.csv")
    return 0


def _run_tracked(cfg: dict):
    """The tracked run of track, sweep and the scripts: the effective
    run at the sample times, then one PDE pass that streams each sample
    into the decomposition, so no sample is kept."""
    grid = build_grid(cfg)
    b = build_potential(cfg)
    eps = float(cfg["eps"])
    g0 = build_g0(cfg)
    times = _sample_times(cfg)
    eff = evolve_effective(EffectiveState(0.0, g0), b, eps, float(times[-1]),
                           t_eval=times, grid=grid, rtol=1e-11, atol=1e-13)
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


def _validate_checks(seed: int):
    """The built-in check suite: (name, passed, measured, bound)."""
    grid = SpectralGrid(8192, 256.0)
    tol_tail = max(1e-8, 10.0 / grid.box_length)
    rng = np.random.default_rng(seed)
    out = []

    M = omega_eta_matrix(grid)
    ref = {(0, 1): -np.pi / 2, (0, 2): 0.0, (0, 3): -np.pi / 2,
           (1, 2): -np.pi, (1, 3): 0.0, (2, 3): np.pi / 2}
    err = max(abs(M[i, j] - v) for (i, j), v in ref.items())
    out.append(("symplectic_table", err < tol_tail, err, tol_tail))

    eta = eta_field(grid)
    E = generator_spectra(grid)
    worst = np.inf
    for _ in range(20):
        w = random_hardy_field(grid, rng)
        y = manifold_project(w)
        spec = w.spectrum.copy()
        spec -= sum(y.as_array()[k] * E[k] for k in range(4))
        wp = HardyField(grid, from_spectrum(grid, spec), _spectrum=spec)
        ratio = inner_real(wp, linearized_apply(wp)) / sobolev_norm(wp, 0.5) ** 2
        worst = min(worst, ratio)
    out.append(("coercivity", worst >= 0.24, worst, 0.24))

    eta2 = HardyField(grid, eta.values ** 2)
    r1 = hankel_rank(eta).rank_estimate
    r2 = hankel_rank(eta2).rank_estimate
    out.append(("kronecker_ranks", (r1, r2) == (1, 2), float(r1 * 10 + r2), 12.0))

    worst = 0.0
    for _ in range(5):
        h = random_rational_field(grid, rng)
        kw = kernel_witness(h)
        resid = hankel_apply(eta2, kw).norm_l2() / h.norm_l2()
        worst = max(worst, resid)
    out.append(("kernel_witness", worst < 1e-6, worst, 1e-6))

    g0 = GroupElement(0.0, 1.0, 0.0, 1.0)
    traj = evolve_pde(soliton_profile(g0, grid), None, 0.0, 2.0, 1e-3, 500)
    ref_f = soliton_profile(free_flow(g0, 2.0, grid), grid)
    dev = np.sqrt(np.sum(np.abs(traj.fields[-1].spectrum - ref_f.spectrum) ** 2)
                  / grid.box_length)
    out.append(("exact_flow", dev < 1e-6, dev, 1e-6))

    b = gaussian_potential(1.0, 0.0, 1.0)
    g0 = GroupElement(-3.0, 1.0, 0.0, 3.0)
    traj = evolve_pde(soliton_profile(g0, grid), b, 1e-2, 2.0, 1e-3, 100)
    cons_ok = traj.mass_drift < 1e-8 and traj.hamiltonian_drift < 1e-7
    out.append(("conservation", cons_ok,
                max(traj.mass_drift, traj.hamiltonian_drift), 1e-7))

    rep = track(traj, b, 1e-2, g0=g0)
    mres = float(rep.mass_residual.max())
    out.append(("mass_identity", mres < 1e-6, mres, 1e-6))

    worst = 0.0
    for _ in range(20):
        g = GroupElement(rng.uniform(-5, 5), rng.uniform(0.7, 1.4),
                         rng.uniform(-3, 3), rng.uniform(0.7, 1.4))
        gd = effective_rhs(EffectiveState(0.0, g), b, 1e-2)
        worst = max(worst, x_vector(g, gd, b, 1e-2).norm())
    out.append(("effective_fixed_point", worst < 1e-9, worst, 1e-9))
    return out


def cmd_validate(outdir: str, seed: int) -> int:
    checks = _validate_checks(seed)
    width = max(len(name) for name, *_ in checks)
    for name, ok, value, bound in checks:
        print(f"{name:<{width}}  {'PASS' if ok else 'FAIL'}  "
              f"(measured {value:.3e}, bound {bound:.3e})")
    _write_json(os.path.join(outdir, "validate.json"),
                {name: {"passed": bool(ok), "measured": float(value),
                        "bound": float(bound)}
                 for name, ok, value, bound in checks})
    return 0 if all(ok for _, ok, *_ in checks) else 1


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

    parallel = args.parallel
    env = os.environ.get("SZEGO_LAB_THREADS")
    if env is not None:
        try:
            parallel = max(1, int(env))
        except ValueError:
            print(f"config error: SZEGO_LAB_THREADS={env!r} is not an integer",
                  file=sys.stderr)
            return 2

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
    seed = int(cfg.get("seed", 0))

    try:
        if args.command == "simulate":
            return cmd_simulate(cfg, outdir, args.plots)
        if args.command == "effective":
            return cmd_effective(cfg, outdir, args.plots)
        if args.command == "track":
            return cmd_track(cfg, outdir, args.plots)
        if args.command == "sweep":
            return cmd_sweep(cfg, outdir, args.plots, parallel)
        return cmd_validate(outdir, seed)
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
