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
import signal
import sys

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
from .soliton_manifold import (
    MU_MAX,
    MU_MIN,
    GroupElement,
    family_drift_rate,
    soliton_profile,
)
from .dynamics import DivergenceError, EffectiveState, evolve_effective, evolve_pde
from .decomposition import (
    Tracker,
    TubularNeighborhoodError,
    theorem_metrics,
    track,  # unused here; perfbench's tracer wraps cli.track at install
)
from . import checks, plots

_POTENTIAL_KINDS = ("gaussian", "sech2", "constant", "table")
# largest family-spectrum tail exp(-xi_max/mu0) left at the top grid bin
SPECTRAL_TAIL_MAX = 1e-6


def _check(errors, path, ok, message):
    if not ok:
        errors.append(f"{path}: {message}")


def _real(v) -> bool:
    """A finite real number: not a bool, NaN or +-Infinity."""
    return isinstance(v, (int, float)) and not isinstance(v, bool) \
        and abs(v) <= sys.float_info.max


def _section(errors, cfg: dict, key: str) -> dict:
    """cfg[key] when it is an object, else {} and an error if present."""
    sec = cfg.get(key, {})
    _check(errors, key, isinstance(sec, dict), "must be a JSON object")
    return sec if isinstance(sec, dict) else {}


def validate_config(cfg: dict, need_sweep: bool = False) -> list:
    """Schema check with explicit error paths; returns a list of
    problems (empty when the config is usable)."""
    e = []
    if not isinstance(cfg, dict):
        return ["<root>: config must be a JSON object"]
    g = _section(e, cfg, "grid")
    n = g.get("n")
    _check(e, "grid.n", type(n) is int and n >= 16 and (n & (n - 1)) == 0,
           "n must be a power-of-two integer >= 16")
    _check(e, "grid.L", _real(g.get("L")) and g["L"] > 0,
           "L must be a positive number")
    s = _section(e, cfg, "soliton")
    for key in ("a0", "alpha0", "phi0", "mu0"):
        _check(e, f"soliton.{key}", _real(s.get(key)), "missing or non-numeric")
    if _real(s.get("alpha0")):
        _check(e, "soliton.alpha0", s["alpha0"] > 0, "must be positive")
    if _real(s.get("mu0")):
        _check(e, "soliton.mu0", MU_MIN <= s["mu0"] <= MU_MAX,
               f"must lie in [{MU_MIN:g}, {MU_MAX:g}]")
    p = _section(e, cfg, "potential")
    kind = p.get("kind")
    _check(e, "potential.kind", kind in _POTENTIAL_KINDS,
           f"must be one of {_POTENTIAL_KINDS}")
    if kind in ("gaussian", "sech2"):
        for key in ("amplitude", "center", "width"):
            _check(e, f"potential.{key}", _real(p.get(key)),
                   "missing or non-numeric")
        if _real(p.get("width")):
            _check(e, "potential.width", p["width"] > 0, "must be positive")
    elif kind == "constant":
        _check(e, "potential.value", _real(p.get("value")),
               "missing or non-numeric")
    elif kind == "table":
        xs, vs = p.get("x"), p.get("values")
        ok = isinstance(xs, list) and isinstance(vs, list) \
            and len(xs) == len(vs) and len(xs) >= 4 and all(map(_real, xs + vs))
        _check(e, "potential.x/values", ok,
               "need two equal-length lists of at least 4 finite numbers")
    eps = cfg.get("eps")
    _check(e, "eps", _real(eps) and eps >= 0, "must be a number >= 0")
    delta = cfg.get("delta", 0.35)
    _check(e, "delta", _real(delta) and 0 < delta < 0.5,
           "must lie strictly inside (0, 1/2)")
    tf = _section(e, cfg, "t_final")
    policy = tf.get("policy")
    _check(e, "t_final.policy", policy in ("fixed", "theorem_horizon"),
           "must be 'fixed' or 'theorem_horizon'")
    if policy == "fixed":
        _check(e, "t_final.value", _real(tf.get("value")) and tf["value"] > 0,
               "must be a positive number")
    if policy == "theorem_horizon":
        c0 = tf.get("c0_fit", 32.0)
        _check(e, "t_final.c0_fit", _real(c0) and c0 > 1, "must be > 1")
        _check(e, "eps", _real(eps) and eps > 0,
               "theorem_horizon needs eps > 0")
    dt = cfg.get("dt", 5e-4)
    _check(e, "dt", _real(dt) and dt > 0, "must be positive")
    stride = cfg.get("stride", 100)
    _check(e, "stride", type(stride) is int and stride >= 1,
           "must be an integer >= 1")
    if need_sweep:
        el = cfg.get("eps_list")
        if not (isinstance(el, list) and len(el) >= 3
                and all(_real(v) and v > 0 for v in el)):
            e.append("eps_list: sweep needs at least 3 positive eps values")
        else:
            r = [el[i] / el[i + 1] for i in range(len(el) - 1)]
            _check(e, "eps_list", min(r) > 1 and max(r) / min(r) < 1 + 1e-9,
                   "values must be distinct, decreasing and geometrically spaced")
    if not e:
        # every sweep member runs to the horizon of its own eps
        for v in (cfg["eps_list"] if need_sweep and policy == "theorem_horizon"
                  else [eps]):
            m = dict(cfg, eps=v)
            _check(e, "t_final", _real(horizon(m) / dt) and run_horizon(m) >= dt,
                   f"horizon {horizon(m):.6g} at eps = {v:g} must hold one to "
                   "finitely many dt steps")
        # the soliton spectrum decays as exp(-xi/mu0); a tail the grid
        # cuts off is a member it cannot represent
        tail = math.exp(-2 * math.pi * (n // 2 - 1) / (g["L"] * s["mu0"]))
        _check(e, "soliton.mu0", tail <= SPECTRAL_TAIL_MAX,
               f"spectral tail exp(-xi_max/mu0) = {tail:.2g} at the top grid "
               f"bin exceeds {SPECTRAL_TAIL_MAX:g}; the grid does not resolve "
               "this scale (raise grid.n, or lower grid.L or mu0)")
    if not e:
        _check_wrap(e, cfg, cfg["eps_list"] if need_sweep else [cfg["eps"]])
    return e


def _check_wrap(errors, cfg: dict, eps_list: list) -> None:
    """The free soliton must stay 10/mu0 clear of the box edge +-L/2 from
    a0 to a0 + c T (c the discrete-family drift rate, T the longest run
    horizon over eps_list), or it wraps round the periodic box."""
    s, half = cfg["soliton"], 0.5 * cfg["grid"]["L"]
    c = family_drift_rate(s["alpha0"], s["mu0"], build_grid(cfg))
    T = max(run_horizon(dict(cfg, eps=v)) for v in eps_list)
    margin = 10.0 / s["mu0"]
    end = s["a0"] + c * T
    for a, where in ((s["a0"], f"starts at a = {s['a0']:.6g}"),
                     (end, f"reaches a = {end:.6g} at t = {T:.6g}")):
        _check(errors, "soliton.a0", abs(a) <= half - margin,
               f"the free soliton {where}, not 10/mu0 = {margin:.3g} clear "
               f"of the box edge +-{half:g}; it would wrap round the periodic "
               "box (raise grid.L or shorten t_final)")


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
    """The tracked run of track, sweep and the acceptance gate: the
    effective run at the sample times, then one PDE pass that streams
    each sample into the decomposition, so no sample is kept.  Returns
    the report, the metrics.json values and the PDE trajectory, whose
    drifts include the momentum's."""
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
    return report, metrics, traj


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
    report, metrics, _ = _run_tracked(cfg)
    _emit_tracked(report, metrics, outdir, with_plots)
    print(f"track: {report.times.size} samples -> {outdir}/track.csv  "
          f"(sup |w|_H12 {metrics['sup_w_h12']:.3e}, "
          f"c_fit {metrics.get('c_fit', float('nan')):.3g})")
    return 0


_SWEEP_SLOPES = [("sup_w_h12", "power_w_h12"), ("sup_dev_a", "power_a"),
                 ("sup_dev_alpha", "power_alpha"), ("sup_dev_phi", "power_phi"),
                 ("sup_dev_mu", "power_mu")]


def _tracked_or_error(cfg: dict):
    """_run_tracked(cfg), or the exception it raised.  The name is looked
    up at call time, so a forked worker runs whatever wraps or replaces
    it in the parent (the benchmark tracer, a test's monkeypatch)."""
    try:
        return _run_tracked(cfg)
    except Exception as exc:   # reported per member by the caller
        return exc


def _end_with_parent(parent: int) -> None:
    """Initializer of a forked worker: Linux kills it when the process
    that forked it ends, however that ends, so a killed sweep leaves no
    worker idling on its task queue.  Elsewhere this does nothing."""
    import ctypes
    prctl = getattr(ctypes.CDLL(None), "prctl", None)
    if prctl is not None:
        prctl(1, signal.SIGKILL)   # PR_SET_PDEATHSIG
    if os.getppid() != parent:     # it ended before prctl took effect
        os._exit(1)


def _map_tracked(cfgs: list, parallel: int) -> list:
    """_run_tracked of each config, or the exception that run raised,
    `parallel` configs at a time.  With k = min(parallel, len(cfgs)),
    this process runs configs 0, k, 2k, ... itself and k - 1 workers run
    the rest; at k = 1 nothing is forked.  Members share no state, and
    in separate processes their short ufuncs and the Python glue between
    them do not contend for one GIL.  Workers are forked, not spawned:
    they start with the package imported and with this process's module
    attributes."""
    k = min(parallel, len(cfgs))
    if k <= 1:
        return [_tracked_or_error(c) for c in cfgs]
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    fork = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(k - 1, mp_context=fork,
                             initializer=_end_with_parent,
                             initargs=(os.getpid(),)) as pool:
        futs = {i: pool.submit(_tracked_or_error, c)
                for i, c in enumerate(cfgs) if i % k}
        out = [_tracked_or_error(c) if i % k == 0 else None
               for i, c in enumerate(cfgs)]
        for i, fut in futs.items():
            try:
                out[i] = fut.result()
            except Exception as exc:   # worker died or result unpicklable
                out[i] = exc
    return out


def cmd_sweep(cfg: dict, outdir: str, with_plots: bool, parallel: int) -> int:
    eps_list = [float(v) for v in cfg["eps_list"]]
    results = {}
    failure = None
    for eps, res in zip(eps_list, _map_tracked(
            [dict(cfg, eps=eps) for eps in eps_list], parallel)):
        if isinstance(res, Exception):
            if failure is None:
                failure = (eps, res)
        else:
            results[eps] = res[:2]
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
    ap.add_argument("--parallel", type=int, default=1, metavar="N",
                    help="sweep members run at once: one in this process, "
                         "the others in forked workers (N > 1 needs the "
                         "POSIX fork start method)")
    args = ap.parse_args(argv)
    if args.parallel < 1:
        ap.error("--parallel must be at least 1")

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
