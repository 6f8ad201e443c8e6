"""In-memory span tracing of szego_lab from outside the package.

Wrappers are installed at the module attributes the callers look up
(for example ``szego_lab.cli.evolve_pde``, which cli.py resolves at call
time, or ``szego_lab.dynamics.spectrum`` inside the RK4 closure), so
nothing under src/ changes.  A span holds a name, start, end, the span
that was open on the same thread when it started, and a member id: the
id of the enclosing ``cli.member`` span (one tracked run, or one sweep
member), or 0 outside any member.  Spans stay in memory and are written
out when the run ends.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import defaultdict

MEMBER = "cli.member"


class Tracer:
    """Records spans; ``clock`` is injectable so tests can drive time."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []           # [id, name, start, end, parent, member, extra]
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, extra=None):
        """``fn`` wrapped in a span; ``extra(result)`` may return a dict
        of counts stored on the span."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            sid = next(tracer._ids)
            parent = stack[-1][0] if stack else 0
            member = sid if name == MEMBER else (stack[-1][1] if stack else 0)
            stack.append((sid, member))
            start = tracer.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = tracer.clock()
                stack.pop()
            tracer.spans.append([sid, name, start, end, parent, member,
                                 extra(result) if extra else None])
            return result

        return traced


def _trajectory_counts(traj):
    held = sum(f.values.nbytes + (f._spectrum.nbytes if f._spectrum is not None
                                  else 0) for f in traj.fields)
    return {"steps": int(round(float(traj.times[-1]) / traj.dt)),
            "samples": len(traj.fields), "sample_bytes": held}


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary of the imported szego_lab package."""
    from szego_lab import (cli, decomposition, dynamics, operators, plots,
                           soliton_manifold, spectral_core)

    def at(module, attr, name, extra=None):
        setattr(module, attr, tracer.wrap(name, getattr(module, attr), extra))

    # the transform pair, wherever a module holds a reference to it
    for fn_name in ("spectrum", "from_spectrum"):
        original = getattr(spectral_core, fn_name)
        for module in (spectral_core, operators, soliton_manifold, dynamics,
                       decomposition, cli):
            if getattr(module, fn_name, None) is original:
                at(module, fn_name, "spectral_core.transform")

    at(cli, "evolve_pde", "dynamics.integrate", _trajectory_counts)
    at(cli, "evolve_effective", "dynamics.effective")
    at(dynamics, "effective_rhs", "dynamics.effective_rhs")
    for module in (dynamics, decomposition):
        at(module, "abc_pairing", "dynamics.abc_pairing")
    for module, attr in ((dynamics, "mass"), (dynamics, "hamiltonian"),
                         (decomposition, "mass")):
        at(module, attr, "operators.conservation")
    at(cli, "soliton_profile", "soliton_manifold.profile")
    at(cli, "track", "decomposition.track")
    at(decomposition, "_newton", "decomposition.newton",
       lambda r: {"iters": int(r[1])})
    at(decomposition, "x_vector", "decomposition.x_vector")
    at(cli, "_run_tracked", MEMBER)
    at(cli, "_emit_tracked", "cli.emit")
    at(cli, "_write_json", "cli.write_json")
    at(cli, "cmd_track", "cli.command")
    at(cli, "cmd_sweep", "cli.command")
    at(plots, "line_plot", "plots.svg")


def self_times(spans) -> dict:
    """Span id -> duration minus the durations of its direct children."""
    child = defaultdict(float)
    for sid, _, start, end, parent, _, _ in spans:
        if parent:
            child[parent] += end - start
    return {s[0]: (s[3] - s[2]) - child[s[0]] for s in spans}


def pool_efficiency(members, command_start: float, workers: int) -> float:
    """Member busy time over (pool wall x workers).

    ``members`` are (start, end) pairs; the pool wall runs from the start
    of the command that submitted them to the end of the last member.
    """
    busy = sum(end - start for start, end in members)
    wall = max(end for _, end in members) - command_start
    return busy / (wall * workers)


def layer_metrics(spans, parallel: int = 1) -> dict:
    """Per-layer figures of one traced run, keyed by metric name."""
    by = defaultdict(list)
    for s in spans:
        by[s[1]].append(s)
    ids = {s[0]: s for s in spans}

    def total(name):
        return sum(s[3] - s[2] for s in by[name])

    def count(name, key=None):
        return sum(s[6][key] for s in by[name]) if key else len(by[name])

    def has_ancestor(span, names):
        parent = ids.get(span[4])
        while parent is not None:
            if parent[1] in names:
                return True
            parent = ids.get(parent[4])
        return False

    selft = self_times(spans)
    out = {}
    calls = count("spectral_core.transform")
    out["spectral_core.transform_calls"] = calls
    out["spectral_core.transform_s"] = total("spectral_core.transform")
    out["spectral_core.transform_us"] = (
        1e6 * out["spectral_core.transform_s"] / calls if calls else 0.0)

    steps = count("dynamics.integrate", "steps")
    out["dynamics.integrate_s"] = total("dynamics.integrate")
    out["dynamics.steps"] = steps
    out["dynamics.step_us"] = (1e6 * sum(selft[s[0]] for s in by["dynamics.integrate"])
                               / steps if steps else 0.0)
    out["dynamics.samples"] = count("dynamics.integrate", "samples")
    out["dynamics.sample_mb"] = count("dynamics.integrate", "sample_bytes") / 2**20
    out["dynamics.effective_s"] = total("dynamics.effective")
    out["dynamics.effective_rhs_calls"] = count("dynamics.effective_rhs")
    out["dynamics.abc_pairing_calls"] = count("dynamics.abc_pairing")
    out["dynamics.abc_pairing_s"] = total("dynamics.abc_pairing")
    out["operators.conservation_calls"] = count("operators.conservation")
    out["operators.conservation_s"] = total("operators.conservation")
    out["soliton_manifold.profile_s"] = total("soliton_manifold.profile")

    newton = by["decomposition.newton"]
    out["decomposition.track_s"] = total("decomposition.track")
    out["decomposition.decompose_ms"] = (
        1e3 * total("decomposition.newton") / len(newton) if newton else 0.0)
    out["decomposition.newton_iters_total"] = sum(s[6]["iters"] for s in newton)
    out["decomposition.newton_iters_max"] = max(
        (s[6]["iters"] for s in newton), default=0)
    out["decomposition.x_vector_calls"] = count("decomposition.x_vector")

    writers = ("cli.emit", "cli.write_json")
    write = sum(s[3] - s[2] for n in writers for s in by[n]
                if not has_ancestor(s, writers))
    svg_in_write = sum(s[3] - s[2] for s in by["plots.svg"]
                       if has_ancestor(s, writers))
    out["cli.write_s"] = write - svg_in_write
    out["plots.svg_s"] = total("plots.svg")

    members = [(s[2], s[3]) for s in by[MEMBER]]
    command_start = min(s[2] for s in by["cli.command"])
    out["cli.member_s"] = total(MEMBER)
    out["cli.pool_wait_s"] = sum(start - command_start for start, _ in members)
    out["cli.pool_efficiency"] = pool_efficiency(
        members, command_start, min(parallel, len(members)))
    return out
