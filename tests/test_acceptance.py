"""End-to-end acceptance gate.

Nine criteria, each printing a single PASS/FAIL line (run with -s to see
them).  The perturbed transits dominate the runtime, so they are shared
module-wide; each is the CLI's own tracked run (cli._run_tracked) on a
fixed-horizon config, up to four at once through cli._map_tracked.
Every tolerance here is pinned against the default grid (8192 points,
box 256).
"""

import os
import time

import numpy as np
import pytest

from szego_lab.checks import (
    coercivity_quotients,
    effective_flow_defect,
    free_flow_error,
    hankel_ranks,
    kernel_witness_residual,
    symplectic_table_error,
)
from szego_lab.cli import _map_tracked
from szego_lab.operators import gaussian_potential
from szego_lab.soliton_manifold import GroupElement, identity, soliton_profile
from szego_lab.dynamics import EffectiveState, evolve_effective, evolve_pde
from szego_lab.decomposition import reparametrize

pytestmark = pytest.mark.filterwarnings(
    "ignore:rescaled field exceeds the band limit")

GAUSS = gaussian_potential(1.0, 0.0, 1.0)
TRANSIT_G0 = GroupElement(-3.0, 1.0, 0.0, 3.0)
SWEEP_EPS = (4e-2, 2e-2, 1e-2)
DELTA = 0.35
DT = 5e-4
STRIDE = 100


def _report(criterion, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def _horizon(eps):
    # eps^(-1/2), snapped down to the sampling comb
    step = STRIDE * DT
    return np.floor(eps**-0.5 / step) * step


def _transit_config(eps):
    """The transit of TRANSIT_G0 through GAUSS on the default grid, to
    the horizon of eps."""
    g = TRANSIT_G0
    return {
        "grid": {"n": 8192, "L": 256.0},
        "soliton": {"a0": g.a, "alpha0": g.alpha, "phi0": g.phi, "mu0": g.mu},
        "potential": {"kind": "gaussian", "amplitude": 1.0, "center": 0.0,
                      "width": 1.0},
        "eps": eps,
        "delta": DELTA,
        "t_final": {"policy": "fixed", "value": float(_horizon(eps))},
        "dt": DT,
        "stride": STRIDE,
    }


@pytest.fixture(scope="module")
def transit():
    """eps -> (report, metrics, trajectory) of its tracked run, as many
    at once as this process may use cores, at most four."""
    t0 = time.time()
    eps_all = SWEEP_EPS + (5e-3,)
    results = _map_tracked([_transit_config(eps) for eps in eps_all],
                           min(4, len(os.sched_getaffinity(0))))
    for res in results:
        if isinstance(res, Exception):
            raise res
    runs = dict(zip(eps_all, results))
    runs["wall"] = time.time() - t0
    return runs


@pytest.fixture(scope="module")
def free_run(grid):
    traj = evolve_pde(soliton_profile(identity(), grid), eps=0.0,
                      t_final=10.0, dt=1e-3, stride=1000)
    return traj


def test_criterion_1_symplectic_table(grid):
    t0 = time.time()
    worst = symplectic_table_error(grid)
    wall = time.time() - t0
    tol = max(1e-8, 10.0 / grid.box_length)
    _report(
        "criterion-1 symplectic-table",
        worst < tol and wall < 1.0,
        f"worst entry error {worst:.3e} < {tol:.3e}, {wall:.2f}s",
    )


def test_criterion_2_exact_flow(grid, free_run):
    t0 = time.time()
    dev = free_flow_error(free_run, identity())
    # convergence order from a dt-halving ladder kept above the
    # square-root-of-n roundoff floor
    u0 = soliton_profile(identity(), grid)
    errs = [free_flow_error(evolve_pde(u0, eps=0.0, t_final=1.6, dt=dt,
                                       stride=10**6), identity())
            for dt in (3.2e-2, 1.6e-2, 8e-3)]
    slopes = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    wall = time.time() - t0
    ok = dev < 1e-6 and np.all(np.abs(slopes - 4.0) < 0.3) and wall < 60.0
    _report(
        "criterion-2 exact-flow",
        ok,
        f"t=10 deviation {dev:.3e} < 1e-6, slopes {slopes.round(3)} in 4+-0.3, "
        f"{wall:.1f}s",
    )


def test_criterion_3_conservation(free_run, transit):
    traj = transit[1e-2][2]
    pert_p = traj.momentum_drift
    free_p = free_run.momentum_drift
    ok = (
        traj.mass_drift < 1e-8
        and traj.hamiltonian_drift < 1e-7
        and free_p < 1e-7
        and pert_p > 1e-5
    )
    _report(
        "criterion-3 conservation",
        ok,
        f"mass {traj.mass_drift:.2e} < 1e-8, H_b {traj.hamiltonian_drift:.2e} "
        f"< 1e-7, free momentum {free_p:.2e} < 1e-7, perturbed momentum "
        f"{pert_p:.2e} > 1e-5",
    )


def test_criterion_4_coercivity(grid):
    t0 = time.time()
    worst = coercivity_quotients(grid, np.random.default_rng(2024), 50).min()
    wall = time.time() - t0
    _report(
        "criterion-4 coercivity",
        worst >= 0.24 and wall < 10.0,
        f"min quotient {worst:.4f} >= 0.24 over 50 fields, {wall:.1f}s",
    )


def test_criterion_5_kernel_and_rank(grid):
    worst = kernel_witness_residual(grid, np.random.default_rng(77), 20)
    r1, r2 = hankel_ranks(grid)
    ok = worst < 1e-6 and r1 == 1 and r2 == 2
    _report(
        "criterion-5 kernel-and-rank",
        ok,
        f"witness annihilation {worst:.3e} < 1e-6 over 20 fields, "
        f"ranks ({r1}, {r2}) == (1, 2)",
    )


def test_criterion_6_decomposition(grid, transit):
    rg = np.random.default_rng(99)
    worst_err, worst_iters = 0.0, 0
    for _ in range(100):
        g = GroupElement(rg.uniform(-5, 5), rg.uniform(0.7, 1.4),
                         rg.uniform(-np.pi, np.pi), rg.uniform(0.5, 1.5))
        u = soliton_profile(g, grid)
        guess = GroupElement(g.a + rg.uniform(-0.05, 0.05),
                             g.alpha * rg.uniform(0.97, 1.03),
                             g.phi + rg.uniform(-0.05, 0.05),
                             g.mu * rg.uniform(0.97, 1.03))
        d = reparametrize(u, guess)
        err = max(abs(d.g.a - g.a), abs(d.g.alpha - g.alpha),
                  abs(d.g.phi - g.phi), abs(d.g.mu - g.mu))
        worst_err = max(worst_err, err)
        worst_iters = max(worst_iters, d.newton_iters)
    report = transit[1e-2][0]
    mass_res = float(np.nanmax(report.mass_residual))
    ok = worst_err < 1e-9 and worst_iters <= 5 and mass_res < 1e-6
    _report(
        "criterion-6 decomposition",
        ok,
        f"100 recoveries: worst error {worst_err:.2e} < 1e-9 in <= "
        f"{worst_iters} iterations, tracked mass identity {mass_res:.2e} < 1e-6",
    )


def test_criterion_7_effective_fixed_point(grid):
    worst = effective_flow_defect(np.random.default_rng(500), 100, GAUSS, 1e-2,
                                  grid, phi_max=np.pi, mu_range=(0.5, 2.0))
    states = evolve_effective(EffectiveState(0.0, TRANSIT_G0), GAUSS, 1e-2,
                              10.0, t_eval=np.linspace(0.0, 10.0, 21))
    inv0 = TRANSIT_G0.alpha**2 * TRANSIT_G0.mu
    drift = max(abs(s.g.alpha**2 * s.g.mu - inv0) / inv0 for s in states)
    ok = worst < 1e-9 and drift < 1e-9
    _report(
        "criterion-7 effective-fixed-point",
        ok,
        f"defect field {worst:.2e} < 1e-9 at 100 states, "
        f"alpha^2 mu drift {drift:.2e} < 1e-9",
    )


def test_criterion_8_scaling_regression(transit):
    eps = np.array(SWEEP_EPS)
    loge = np.log(eps)

    def slope(key):
        vals = np.array([transit[e][1][key] for e in SWEEP_EPS])
        return float(np.polyfit(loge, np.log(vals), 1)[0])

    s_w = slope("sup_w_h12")
    s_mu = slope("sup_dev_mu")
    s_a = slope("sup_dev_a")
    s_phi = slope("sup_dev_phi")
    wall = transit["wall"]
    ok = s_w >= 0.5 and s_mu >= 0.9 and s_a >= 0.9 and s_phi >= 0.6 and wall < 1800
    _report(
        "criterion-8 scaling-regression",
        ok,
        f"slopes w {s_w:.2f}>=0.5, mu {s_mu:.2f}>=0.9, a {s_a:.2f}>=0.9, "
        f"phi {s_phi:.2f}>=0.6; sweep wall {wall:.0f}s < 1800s",
    )


def test_criterion_9_defect_bound(transit):
    c_ref = transit[1e-2][1]["c_fit"]
    c_half = transit[5e-3][1]["c_fit"]
    ratio = c_half / c_ref
    ok = np.isfinite(c_ref) and c_ref > 0 and 0.5 <= ratio <= 2.0
    _report(
        "criterion-9 defect-bound",
        ok,
        f"c_fit {c_ref:.4f} at eps=1e-2, ratio {ratio:.3f} in [0.5, 2] "
        f"under halving",
    )
