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
import contextlib
import gc
import json
import math
import os
import pickle
import signal
import sys
from dataclasses import dataclass

import numpy as np

from .spectral_core import HardyField, SpectralGrid, sobolev_norm
from .operators import (
    constant_potential,
    gaussian_potential,
    sech2_potential,
    table_potential,
)
from .soliton_manifold import (
    MU_MAX,
    MU_MIN,
    GroupElement,
    soliton_profile,
)
from .dynamics import EffectiveState, evolve_effective, evolve_pde, free_flow
from .decomposition import (
    Tracker,
    TubularNeighborhoodError,
    theorem_metrics,
    track,  # unused here; perfbench's tracer wraps cli.track at install
)
from . import plots

# largest share of its value at xi = 0 that the soliton's spectrum or the
# potential's transform may keep at the top grid bin
SPECTRAL_TAIL_MAX = 1e-6


def _real(v) -> bool:
    """A finite real number: not a bool, NaN or +-Infinity."""
    return isinstance(v, (int, float)) and not isinstance(v, bool) \
        and abs(v) <= sys.float_info.max


def _positive(v) -> bool:
    return _real(v) and v > 0


# One row per config key that every run reads: (path, default, check, message);
# a default of None marks a required key.  validate_config checks the value
# _settings resolves for each row, so a key given is checked whatever reads it.
SETTINGS = (
    ("grid.n", None, lambda v: type(v) is int and v >= 16 and v & (v - 1) == 0,
     "n must be a power-of-two integer >= 16"),
    ("grid.L", None, _positive, "L must be a positive number"),
    ("soliton.a0", None, _real, "missing or non-numeric"),
    ("soliton.alpha0", None, _positive, "missing, non-numeric or not positive"),
    ("soliton.phi0", None, _real, "missing or non-numeric"),
    ("soliton.mu0", None, lambda v: _real(v) and MU_MIN <= v <= MU_MAX,
     f"missing, non-numeric or outside [{MU_MIN:g}, {MU_MAX:g}]"),
    ("dt", 5e-4, _positive, "must be positive"),
    ("stride", 100, lambda v: type(v) is int and v >= 1, "must be an integer >= 1"),
    ("delta", 0.35, lambda v: _real(v) and 0 < v < 0.5,
     "must lie strictly inside (0, 1/2)"),
    ("t_final.c0_fit", 32.0, lambda v: _real(v) and v > 1, "must be a number > 1"),
)

# potential kind -> (its operators constructor, the keys it takes in order)
POTENTIALS = {
    "gaussian": (gaussian_potential, ("amplitude", "center", "width")),
    "sech2": (sech2_potential, ("amplitude", "center", "width")),
    "constant": (constant_potential, ("value",)),
    "table": (table_potential, ("x", "values")),
}


def _object(v) -> dict:
    """v when it is a JSON object, else {}."""
    return v if isinstance(v, dict) else {}


def _settings(cfg: dict) -> dict:
    """Each SETTINGS row's path -> its value as cfg gives it, the row's
    default when left out: the one place the defaults are read."""
    values = {}
    for path, default, _, _ in SETTINGS:
        section, _, key = path.rpartition(".")
        values[path] = _object(cfg.get(section) if section else cfg).get(key, default)
    return values


def validate_config(cfg: dict, need_sweep: bool = False) -> list:
    """Schema check with explicit error paths; returns a list of
    problems (empty when the config is usable)."""
    if not isinstance(cfg, dict):
        return ["<root>: config must be a JSON object"]
    e = [f"{key}: must be a JSON object"
         for key in ("grid", "soliton", "potential", "t_final")
         if not isinstance(cfg.get(key, {}), dict)]
    values = _settings(cfg)
    e += [f"{path}: {message}"
          for path, _, check, message in SETTINGS if not check(values[path])]
    p = _object(cfg.get("potential"))
    kind = p.get("kind")
    if not (isinstance(kind, str) and kind in POTENTIALS):
        e.append(f"potential.kind: must be one of {tuple(POTENTIALS)}")
    elif kind == "table":
        xs, vs = p.get("x"), p.get("values")
        if not (isinstance(xs, list) and isinstance(vs, list) and len(xs) == len(vs)
                and len(xs) >= 4 and all(map(_real, xs + vs))):
            e.append("potential.x/values: need two equal-length lists "
                     "of at least 4 finite numbers")
        elif not all(a < b for a, b in zip(xs, xs[1:])):
            e.append("potential.x/values: x must be strictly increasing")
    else:
        e += [f"potential.{key}: missing or non-numeric"
              for key in POTENTIALS[kind][1] if not _real(p.get(key))]
        if kind != "constant" and _real(p.get("width")) and p["width"] <= 0:
            e.append("potential.width: must be positive")
    # a sweep member's eps comes from eps_list, checked below
    eps = cfg.get("eps")
    if not (need_sweep or (_real(eps) and eps >= 0)):
        e.append("eps: must be a number >= 0")
    tf = _object(cfg.get("t_final"))
    policy = tf.get("policy")
    if policy not in ("fixed", "theorem_horizon"):
        e.append("t_final.policy: must be 'fixed' or 'theorem_horizon'")
    if policy == "fixed" and not _positive(tf.get("value")):
        e.append("t_final.value: must be a positive number")
    if policy == "theorem_horizon" and not (need_sweep or _positive(eps)):
        e.append("eps: theorem_horizon needs eps > 0")
    if need_sweep:
        el = cfg.get("eps_list")
        if not (isinstance(el, list) and len(el) >= 3
                and all(_positive(v) for v in el)):
            e.append("eps_list: sweep needs at least 3 positive eps values")
        else:
            r = [el[i] / el[i + 1] for i in range(len(el) - 1)]
            if not (min(r) > 1 and max(r) / min(r) < 1 + 1e-9):
                e.append("eps_list: values must be distinct, decreasing "
                         "and geometrically spaced")
            if len({_member_dir(v) for v in el}) != len(set(el)):
                e.append("eps_list: values must differ within 6 significant "
                         "digits, the precision of each member's output "
                         "directory eps_<value>")
    if e:
        return e
    n, L, a0, mu0, dt, delta, c0 = (values[k] for k in (
        "grid.n", "grid.L", "soliton.a0", "soliton.mu0", "dt", "delta", "t_final.c0_fit"))
    # every sweep member runs to the horizon of its own eps; a fixed
    # horizon is the same for all of them, so it is checked once
    eps_values = cfg["eps_list"] if need_sweep else [eps]
    longest = 0.0
    for v in eps_values if policy == "theorem_horizon" else eps_values[:1]:
        T, steps = horizon(tf, v, delta, c0, dt)
        if steps < 1:
            e.append(f"t_final: horizon {T:.6g} at eps = {v:g} "
                     "must hold one to finitely many dt steps")
        longest = max(longest, steps * dt)
    # the soliton spectrum decays as exp(-xi/mu0); a tail the grid
    # cuts off is a member it cannot represent
    xi_max = 2 * math.pi * (n // 2 - 1) / L
    tail = math.exp(-xi_max / mu0)
    if tail > SPECTRAL_TAIL_MAX:
        e.append(f"soliton.mu0: spectral tail exp(-xi_max/mu0) = {tail:.2g} at "
                 f"the top grid bin exceeds {SPECTRAL_TAIL_MAX:g}; the grid does "
                 "not resolve this scale (raise grid.n, or lower grid.L or mu0)")
    if kind in ("gaussian", "sech2"):
        # the transform at xi_max over its value at 0: exp(-z^2) for the
        # Gaussian and x / sinh x, x = pi z, for sech2, z = xi_max width / 2
        z = 0.5 * xi_max * p["width"]
        x = math.pi * z
        tail = math.exp(-z * z) if kind == "gaussian" \
            else (x / math.sinh(x) if x < 700 else 0.0)
        if tail > SPECTRAL_TAIL_MAX:
            e.append(f"potential.width: the {kind}'s transform at the top grid "
                     f"bin is {tail:.2g} of its value at 0, above "
                     f"{SPECTRAL_TAIL_MAX:g}; the grid does not resolve this "
                     "width (raise grid.n, or lower grid.L, or widen the potential)")
    if e:
        return e
    # the free soliton must stay 10/mu0 clear of the box edge +-L/2 from
    # a0 to a0 + c T (c the discrete-family drift rate, T the longest
    # run horizon), or it wraps round the periodic box
    half, margin = 0.5 * L, 10.0 / mu0
    end = free_flow(build_g0(cfg), longest, build_grid(cfg)).a
    return [f"soliton.a0: the free soliton {where}, not 10/mu0 = {margin:.3g} clear "
            f"of the box edge +-{half:g}; it would wrap round the periodic box "
            "(raise grid.L or shorten t_final)"
            for a, where in ((a0, f"starts at a = {a0:.6g}"),
                             (end, f"reaches a = {end:.6g} at t = {longest:.6g}"))
            if abs(a) > half - margin]


def _member_dir(eps) -> str:
    """The name of a sweep member's output directory."""
    return f"eps_{float(eps):g}"


def horizon(tf: dict, eps: float, delta: float, c0: float, dt: float) -> tuple:
    """The t_final policy's horizon at eps, and the whole dt steps in it."""
    if tf["policy"] == "fixed":
        T = float(tf["value"])
    else:
        T = (delta / (6.0 * math.log(c0))) * eps ** (-(0.5 - delta)) \
            * math.log(1.0 / eps)
    return T, (math.floor(T / dt + 1e-9) if _real(T / dt) else 0)


@dataclass(frozen=True)
class RunSpec:
    """One run of a validated config, every default filled in: the sample
    times are every stride-th dt step and the last one inside horizon()."""
    grid: SpectralGrid
    potential: object
    g0: GroupElement
    eps: float
    delta: float
    dt: float
    stride: int
    times: np.ndarray


def run_spec(cfg: dict) -> RunSpec:
    """The RunSpec of a config that validate_config accepts."""
    s = _settings(cfg)
    eps, delta, dt = float(cfg["eps"]), float(s["delta"]), float(s["dt"])
    steps = horizon(cfg["t_final"], eps, delta, float(s["t_final.c0_fit"]), dt)[1]
    return RunSpec(build_grid(cfg), build_potential(cfg), build_g0(cfg), eps,
                   delta, dt, s["stride"],
                   np.append(np.arange(0, steps, s["stride"]), steps) * dt)


def build_grid(cfg: dict) -> SpectralGrid:
    return SpectralGrid(cfg["grid"]["n"], float(cfg["grid"]["L"]))


def build_potential(cfg: dict):
    p = cfg["potential"]
    make, keys = POTENTIALS[p["kind"]]
    return make(*(p[key] for key in keys))


def build_g0(cfg: dict) -> GroupElement:
    s = cfg["soliton"]
    return GroupElement(float(s["a0"]), float(s["alpha0"]),
                        float(s["phi0"]), float(s["mu0"]))


def _write_csv(path, header: list, columns: list) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        row = ",".join(["%.17g"] * len(columns)) + "\n"
        fh.writelines(row % r for r in zip(*(np.asarray(c).tolist() for c in columns)))


def _write_json(path, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _run_pde(spec: RunSpec, on_sample):
    """The PDE run of spec from its initial soliton, on_sample(t, field) at
    each of spec's sample times.  evolve_pde and soliton_profile are looked
    up at call time, so whatever wraps or replaces them here is run."""
    return evolve_pde(soliton_profile(spec.g0, spec.grid), spec.potential,
                      spec.eps, float(spec.times[-1]), spec.dt, spec.stride,
                      on_sample=on_sample)


def cmd_simulate(cfg: dict, outdir: str, with_plots: bool) -> int:
    spec = run_spec(cfg)
    norms_h12 = []
    traj = _run_pde(spec, lambda t, f: norms_h12.append(sobolev_norm(f, 0.5)))
    _write_csv(os.path.join(outdir, "fields.csv"),
               ["t", "norm_L2", "norm_H12", "mass", "hamiltonian"],
               [traj.times, np.sqrt(traj.mass), norms_h12, traj.mass,
                traj.hamiltonian])
    _write_json(os.path.join(outdir, "conservation.json"), {
        "eps": spec.eps, "dt": traj.dt, "t_final": float(traj.times[-1]),
        "samples": int(traj.times.size),
        "mass_drift": traj.mass_drift,
        "hamiltonian_drift": traj.hamiltonian_drift,
    })
    if with_plots:
        plots.line_plot(os.path.join(outdir, "conservation.svg"),
                        traj.times, [traj.mass, traj.hamiltonian],
                        labels=["mass", "H_b"], title="conserved quantities",
                        xlabel="t")
    print(f"simulate: {traj.times.size} samples -> {outdir}/fields.csv "
          f"(mass drift {traj.mass_drift:.3e}, H_b drift "
          f"{traj.hamiltonian_drift:.3e})")
    return 0


def _effective_run(spec: RunSpec) -> list:
    """The reduced flow on the grid route at the sample times: what
    effective writes and what track compares against."""
    return evolve_effective(EffectiveState(0.0, spec.g0), spec.potential,
                            spec.eps, spec.times, grid=spec.grid,
                            rtol=1e-11, atol=1e-13)


def cmd_effective(cfg: dict, outdir: str, with_plots: bool) -> int:
    states = _effective_run(run_spec(cfg))
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


def _end_with_parent(parent: int) -> None:
    """First act of a forked child (_fork): Linux kills it when the
    process that forked it ends, however that ends, so a killed CLI
    leaves no sweep worker or consumer running.  Elsewhere this does
    nothing."""
    import ctypes
    prctl = getattr(ctypes.CDLL(None), "prctl", None)
    if prctl is not None:
        prctl(1, signal.SIGKILL)   # PR_SET_PDEATHSIG
    if os.getppid() != parent:     # it ended before prctl took effect
        os._exit(1)


def _write_all(fd: int, data) -> None:
    """Every byte of the buffer data to fd, waiting while the pipe is full."""
    view = memoryview(data).cast("B")
    while view:
        view = view[os.write(fd, view):]


@contextlib.contextmanager
def _reaping():
    """A list for _fork's children, which _read takes off in turn.  The
    children still on it when the block is left, by an error or an
    interrupt, are killed, their pipes closed, and reaped (_read)."""
    children = []
    try:
        yield children
    finally:
        for pid, pipe in children:
            os.kill(pid, signal.SIGKILL)
            pipe.close()
        while children:
            _read(children)


def _fork(children: list, work, *fds) -> None:
    """Fork a child of this single-threaded process and put (pid, the read
    end of its result pipe) on children.  The child closes fds and the pipes
    of the children before it, pickles each object the iterable work yields
    into its pipe once made, and exits, with status 1 if an object could not
    be pickled (it is not sent).  No write waits on the reader before the
    last object: what the pipe cannot take yet is held back until then.  The
    child starts with this process's module attributes."""
    parent = os.getpid()
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:                   # the child never returns from here
        try:
            _end_with_parent(parent)
            for fd in (r, *fds, *(pipe.fileno() for _, pipe in children)):
                os.close(fd)
            status, pending = 0, bytearray()
            os.set_blocking(w, False)
            for obj in work:
                try:
                    pending += pickle.dumps(obj)
                except Exception:  # whatever pickle raised, it is not sent
                    status = 1
                try:
                    del pending[:os.write(w, pending)]
                except BlockingIOError:   # the reader is still on other work
                    pass
            os.set_blocking(w, True)
            _write_all(w, pending)
            os._exit(status)
        finally:                   # any other way out: an error escaped
            os._exit(1)
    os.close(w)
    children.append((pid, open(r, "rb")))


def _read(children: list) -> tuple:
    """The objects the first child on children (_fork) sent, read from
    its pipe to the end, and how it ended: its pid, then its exit status
    or signal.  Reaps the child, closes its pipe and takes it off."""
    pid, pipe = children[0]
    sent = []
    try:
        while True:
            sent.append(pickle.load(pipe))
    except (EOFError, pickle.UnpicklingError, ValueError):   # cut short or closed
        pass
    code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    del children[0]
    pipe.close()
    return sent, (f"{pid} was killed by signal {-code} ({signal.strsignal(-code)})"
                  if code < 0 else f"{pid} exited with status {code}")


def _spare_cpu() -> bool:
    """Whether track decomposes its samples in a forked consumer: this
    process can fork and may run on more than one CPU."""
    cpus = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") \
        else range(os.cpu_count() or 1)
    return hasattr(os, "fork") and len(cpus) > 1


def _consume(spec: RunSpec, fd: int):
    """The forked consumer's work: Tracker.add of each sample read from
    the pipe fd, at spec's sample times, the ones evolve_pde takes the
    samples at, until the run ends and the pipe closes; then it yields the
    Tracker's record(), or the exception add raised.  Each sample is a
    field of its own over one reused buffer, so values a sink derives from
    it are that sample's.  A failed add closes fd at once, so the CLI's
    next sample write fails."""
    tracker = Tracker(spec.grid, spec.potential, spec.eps, spec.g0)
    bins = np.empty(spec.grid.n_points // 2, dtype=complex)
    failed = None
    with open(fd, "rb") as pipe:
        for t in spec.times:
            if pipe.readinto(bins) < bins.nbytes:    # the PDE stopped
                break
            try:
                tracker.add(float(t), HardyField(spec.grid, _spectrum=bins))
            except Exception as exc:   # the CLI raises it once the PDE stops
                failed = exc
                break
    yield tracker.record() if failed is None else failed


def _decompose_in_consumer(spec: RunSpec):
    """_run_pde(spec, ...) while a forked consumer runs Tracker.add on each
    sample (_consume); returns the PDE trajectory and a Tracker that has
    loaded the consumer's record.  Only a sample's bins cross the pipe, as
    raw bytes, and a default pipe holds 64 KiB, the bins of one sample at
    n = 8192: there the PDE writes a sample without waiting whenever the
    consumer has read the one before, and stops within a sample or two of
    a failed decomposition.  The consumer's exception is raised in place
    of whatever else stopped the PDE, since it came from an earlier
    sample; a consumer that sent nothing is named by its signal or exit
    status."""
    samples_r, samples_w = os.pipe()
    with _reaping() as children:
        _fork(children, _consume(spec, samples_r), samples_w)
        os.close(samples_r)
        traj = stopped = None
        try:
            traj = _run_pde(spec, lambda t, f: _write_all(samples_w, f.spectrum))
        except BrokenPipeError:    # the consumer stopped reading
            pass
        except Exception as exc:   # raised below, after the consumer's
            stopped = exc
        finally:                   # the end of the samples
            os.close(samples_w)
        sent, how = _read(children)
    if sent and isinstance(sent[0], Exception):
        raise sent[0]
    if stopped is not None:
        raise stopped
    if not sent or traj is None:
        raise RuntimeError(f"decomposition consumer {how} "
                           "before it sent the whole run's decompositions")
    tracker = Tracker(spec.grid, spec.potential, spec.eps, spec.g0)
    tracker.load(sent[0])
    return traj, tracker


def _run_tracked(cfg: dict, consumer: bool = False):
    """The tracked run of track, sweep and the acceptance gate: the
    effective run at the sample times, then one PDE pass that streams
    each sample into the decomposition, so no sample is kept; with
    `consumer`, the decomposition runs in a forked consumer process
    (_decompose_in_consumer), with the same results.  Returns the report, the
    metrics.json values and the PDE trajectory, whose drifts include the
    momentum's."""
    spec = run_spec(cfg)
    eff = _effective_run(spec)
    if consumer:
        traj, tracker = _decompose_in_consumer(spec)
    else:
        tracker = Tracker(spec.grid, spec.potential, spec.eps, spec.g0)
        traj = _run_pde(spec, tracker.add)
    report = tracker.report(eff)
    metrics = theorem_metrics(report, spec.eps, spec.delta)
    metrics["mass_drift"] = traj.mass_drift
    metrics["hamiltonian_drift"] = traj.hamiltonian_drift
    metrics["max_newton_iters"] = int(report.newton_iters.max())
    metrics["max_mass_identity_residual"] = float(report.mass_residual.max())
    return report, metrics, traj


def _emit_tracked(report, metrics, outdir: str, with_plots: bool) -> None:
    dev = list(report.deviations.T)
    _write_csv(os.path.join(outdir, "track.csv"),
               ["t", "a", "alpha", "phi", "mu", "w_h12", "x_norm",
                "da", "dalpha", "dphi", "dmu"],
               [report.times, *report.params().T, report.w_h12,
                report.x_norm, *dev])
    _write_json(os.path.join(outdir, "metrics.json"), metrics)
    if with_plots:
        plots.line_plot(os.path.join(outdir, "w_norm.svg"), report.times,
                        [report.w_h12], labels=["|w|_H12"],
                        title="remainder size", xlabel="t", logy=True)
        plots.line_plot(os.path.join(outdir, "deviations.svg"), report.times,
                        dev, labels=["|a-a_eff|", "|alpha-alpha_eff|",
                                     "|phi-phi_eff|", "|mu-mu_eff|"],
                        title="deviation from effective dynamics",
                        xlabel="t", logy=True)


def cmd_track(cfg: dict, outdir: str, with_plots: bool) -> int:
    report, metrics, _ = _run_tracked(cfg, consumer=_spare_cpu())
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


def _map_tracked(cfgs: list, parallel: int) -> list:
    """_run_tracked of each config, or the exception that run raised,
    `parallel` configs at a time.  With k = min(parallel, len(cfgs)),
    this process runs configs 0, k, 2k, ... and worker j of k - 1 runs
    configs j, j + k, ...; at k = 1 nothing is forked.  In separate
    processes the members' short ufuncs and Python glue do not contend
    for one GIL.  A worker (_fork) sends each member's (index, result)
    once done; its pipe is read to the end once this process's members
    are done.  A member that never arrives gets an error naming the
    worker's exit status or signal."""
    k = min(parallel, len(cfgs))
    out = [None] * len(cfgs)
    with _reaping() as children:
        for j in range(1, k):
            own = range(j, len(cfgs), k)
            _fork(children, ((i, _tracked_or_error(cfgs[i])) for i in own))
        for i in range(0, len(cfgs), k):
            out[i] = _tracked_or_error(cfgs[i])
        for j in range(1, k):      # worker j, the first child left
            sent, how = _read(children)
            for i, res in sent:
                out[i] = res
            for i in range(j, len(cfgs), k):
                if out[i] is None:
                    out[i] = RuntimeError(f"worker {how} before it sent member {i}")
    return out


def cmd_sweep(cfg: dict, outdir: str, with_plots: bool, parallel: int) -> int:
    eps_list = [float(v) for v in cfg["eps_list"]]
    # a member's directory is made once it completes, so a path that
    # cannot be one is reported before any member runs
    subs = [os.path.join(outdir, _member_dir(eps)) for eps in eps_list]
    taken = [s for s in subs if os.path.lexists(s) and not os.path.isdir(s)]
    for sub in taken:
        print(f"config error: output directory {sub!r}: not a directory",
              file=sys.stderr)
    if taken:
        return 2
    results = {}
    failure = None
    for eps, res in zip(eps_list, _map_tracked(
            [dict(cfg, eps=eps) for eps in eps_list], parallel)):
        if isinstance(res, Exception):
            if failure is None:
                failure = (eps, res)
        else:
            results[eps] = res[:2]
    # eps_list decreases (validate_config), and so does results' order
    completed = list(results)
    for eps in completed:
        sub = os.path.join(outdir, _member_dir(eps))
        os.makedirs(sub, exist_ok=True)
        _emit_tracked(*results[eps], sub, with_plots)

    summary = {"eps_list": eps_list, "delta": float(_settings(cfg)["delta"]),
               "completed": completed}
    if len(completed) >= 2:
        le = np.log(completed)
        slopes = {}
        for key, pkey in _SWEEP_SLOPES:
            vals = np.array([results[e][1][key] for e in completed])
            with np.errstate(divide="ignore"):
                lv = np.log(vals)
            slopes[key] = float(np.polyfit(le, lv, 1)[0]) \
                if np.all(np.isfinite(lv)) else float("nan")
            slopes[f"predicted_{key}"] = results[completed[0]][1][pkey]
        summary["slopes"] = slopes
        if with_plots:
            plots.line_plot(
                os.path.join(outdir, "scaling.svg"), completed,
                [[results[e][1][k] for e in completed] for k, _ in _SWEEP_SLOPES],
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
    from . import checks  # its random draws load numpy.random; no run needs it
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
                         "the others in workers made by os.fork (N > 1 "
                         "needs POSIX)")
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
    try:
        os.makedirs(outdir, exist_ok=True)
    except (OSError, TypeError) as exc:   # not a path, or not a directory
        print(f"config error: output directory {outdir!r}: {exc}",
              file=sys.stderr)
        return 2

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
    except TubularNeighborhoodError as exc:
        print(f"runtime error: decomposition left the tubular neighborhood "
              f"({exc})", file=sys.stderr)
        return 1
    except (RuntimeError, ValueError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 1


def entry() -> int:
    """The command line, `python -m szego_lab.cli` and the szego-lab
    script: main() on sys.argv, once the heap the imports left is
    collected and frozen.  Frozen objects are left out of every later
    collection, in this process and in the children it forks, and out of
    the ones at interpreter exit; collecting first keeps the garbage of
    the imports out of the frozen heap.  main() called from Python does
    not freeze, so a caller's heap is still collected."""
    gc.collect()
    gc.freeze()
    return main()


if __name__ == "__main__":
    sys.exit(entry())
