import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st
from numpy.testing import assert_allclose
from scipy.integrate import solve_ivp

from szego_lab import cli, decomposition, dynamics, spectral_core
from szego_lab.cli import (
    SPECTRAL_TAIL_MAX,
    _run_tracked,
    run_spec,
)
from szego_lab.spectral_core import (
    HardyField,
    SpectralGrid,
    from_spectrum,
    random_rational_field,
    spectrum,
    szego_project,
)
from szego_lab.operators import (
    constant_potential,
    gaussian_potential,
    hamiltonian,
    mass,
    momentum,
    sech2_potential,
    table_potential,
    toeplitz_apply,
)
from szego_lab.soliton_manifold import (
    GroupElement,
    family_drift_rate,
    family_mass_constant,
    family_spectrum,
    identity,
    soliton_profile,
    tangent_frame_spectra,
)
from szego_lab.dynamics import (
    DivergenceError,
    EffectiveState,
    abc_coefficients,
    abc_pairing,
    effective_rhs,
    evolve_effective,
    evolve_pde,
    free_flow,
    pde_rhs,
)
from szego_lab.decomposition import Tracker, x_vector


GAUSS = gaussian_potential(1.0, 0.0, 1.0)


# ------------------------------------------------------ averaged coefficients


def test_abc_vanish_without_perturbation():
    co = abc_coefficients(GroupElement(-3.0, 1.0, 0.0, 3.0), GAUSS, 0.0)
    assert co.A == co.B == co.C == 0.0


def test_abc_constant_potential_shortcut():
    # flat b: the weighted averages collapse to (eps*b, 0, 0) exactly
    co = abc_coefficients(GroupElement(1.0, 1.1, 0.2, 2.0), constant_potential(0.8), 1e-2)
    assert_allclose([co.A, co.B, co.C], [8e-3, 0.0, 0.0], atol=1e-15)


def test_abc_gaussian_against_adaptive_quadrature():
    # reference values from an independent adaptive quadrature of the
    # three averages at (a, alpha, phi, mu) = (-3, 1, 0, 3), eps = 1e-2
    co = abc_coefficients(GroupElement(-3.0, 1.0, 0.0, 3.0), GAUSS, 1e-2)
    assert_allclose(co.A, 2.552366909170154e-04, rtol=1e-9)
    assert_allclose(co.B, 2.412620223991253e-04, rtol=1e-9)
    assert_allclose(co.C, 7.205042093744453e-05, rtol=1e-9)


def test_abc_sech2_against_adaptive_quadrature():
    b = sech2_potential(0.8, -0.5, 1.3)
    co = abc_coefficients(GroupElement(0.7, 1.2, 0.4, 0.8), b, 3e-3)
    assert_allclose(co.A, 8.481793644155245e-04, rtol=1e-9)
    assert_allclose(co.B, -3.037688835423084e-04, rtol=1e-9)
    assert_allclose(co.C, -4.375664197646203e-04, rtol=1e-9)


def test_abc_pairing_agrees_with_quadrature(grid):
    # the frame-pairing route sees the box-truncated soliton, so the two
    # constructions agree to the grid bias, not to machine precision
    g = GroupElement(-3.0, 1.0, 0.0, 3.0)
    quad = abc_coefficients(g, GAUSS, 1e-2)
    paired = abc_pairing(g, GAUSS, 1e-2, grid)
    scale = max(abs(quad.A), abs(quad.B), abs(quad.C))
    for got, want in zip(paired.as_array(), quad.as_array()):
        assert abs(got - want) < 2e-2 * scale


def _per_bin_abc_pairing(g, b, eps, grid):
    """Reference form of abc_pairing: the forcing and the four tangent
    spectra over the whole grid, paired bin by bin."""
    probe = GroupElement(g.a, 1.0, 0.0, g.mu)
    S = family_spectrum(probe, grid)
    F = -1j * eps * spectrum(grid, b.on_grid(grid) * from_spectrum(grid, S))
    T = tangent_frame_spectra(probe, grid)
    L = grid.box_length
    r = np.array([np.sum(np.imag(F * np.conj(Tk))) / L for Tk in T])
    Om = np.array([[np.sum(np.imag(Tk * np.conj(Tl))) / L for Tl in T] for Tk in T])
    rates = -np.linalg.solve(Om, r)
    B = -g.mu * rates[0] / 2.0
    C = -rates[3] / (2.0 * g.mu)
    return np.array([-rates[2] - B, B, C])


@pytest.mark.parametrize("b", [GAUSS, sech2_potential(0.8, -0.5, 1.3)])
def test_abc_pairing_matches_per_bin_pairings(grid, b):
    for a in (-3.0, -0.4, 1.7):
        for mu in (0.7, 1.0, 3.0):
            g = GroupElement(a, 1.2, 0.3, mu)
            got = abc_pairing(g, b, 1e-2, grid).as_array()
            want = _per_bin_abc_pairing(g, b, 1e-2, grid)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), (a, mu)


def test_abc_pairing_constant_potential(grid):
    co = abc_pairing(GroupElement(0.0, 1.0, 0.0, 1.0), constant_potential(0.5), 1e-2, grid)
    assert_allclose([co.A, co.B, co.C], [5e-3, 0.0, 0.0], atol=1e-10)


_TABLE = table_potential(np.linspace(-2.0, 3.0, 9), np.sin(np.linspace(-2.0, 3.0, 9)) ** 2)
# the scale whose spectral tail exp(-xi_max/mu) at the top bin is exactly
# the largest the config check accepts
_MU_LIMIT = 2 * np.pi * 4095 / 256.0 / -np.log(SPECTRAL_TAIL_MAX)


@pytest.mark.parametrize("b, a, mu", [
    (GAUSS, -3.0, _MU_LIMIT),
    (GAUSS, 0.45 * 256.0, 3.0),
    (GAUSS, -0.45 * 256.0, 1.0),
    (_TABLE, 0.8, 3.0),
    (_TABLE, -0.45 * 256.0, _MU_LIMIT),
    (sech2_potential(0.8, -0.5, 1.3), 0.45 * 256.0, 3.0),
    (sech2_potential(0.8, -0.5, 1.3), 2.0, _MU_LIMIT),
    (constant_potential(0.5), 1.3, 3.0),
], ids=["gauss_mu_limit", "gauss_wrap_right", "gauss_wrap_left", "table",
        "table_wrap_mu_limit", "sech2_wrap", "sech2_mu_limit", "constant"])
def test_closed_form_pairing_matches_per_bin_pairings(grid, b, a, mu):
    # the transform-free closed form against the FFT reference, where the
    # profile wraps round the box, at the coarsest resolved scale, on a
    # compact potential and on potentials that span the whole box
    g = GroupElement(a, 1.2, 0.3, mu)
    got = abc_pairing(g, b, 1e-2, grid).as_array()
    want = _per_bin_abc_pairing(g, b, 1e-2, grid)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    assert np.all(abc_pairing(g, b, 0.0, grid).as_array() == 0.0)


def test_closed_form_pairing_sums_only_the_potential_support(grid):
    # the table is zero outside [-2, 3]; the sech2 is nonzero everywhere
    assert np.count_nonzero(_TABLE.on_grid(grid)) < grid.n_points // 40
    assert np.all(sech2_potential(0.8, -0.5, 1.3).on_grid(grid) != 0.0)
    zero = table_potential(np.linspace(200.0, 201.0, 4), np.ones(4))
    assert not np.any(zero.on_grid(grid))
    co = abc_pairing(GroupElement(-3.0, 1.0, 0.0, 3.0), zero, 1e-2, grid)
    assert co.as_array().tolist() == [0.0, 0.0, 0.0]


_TAILS = np.linspace(-8.0, 8.0, 33)


@pytest.mark.parametrize("b", [GAUSS, table_potential(_TAILS, np.exp(-_TAILS**2))],
                         ids=["transit_gauss", "table"])
def test_support_sums_floor_moves_them_by_rounding_only(grid, b, monkeypatch):
    # points where |b| is under 1e-17 of its peak are left out; the sums
    # over the kept span against those over the whole nonzero span, along
    # the transit's path and across the mu window
    bv = b.on_grid(grid)
    kept = np.abs(bv) > dynamics.B_FLOOR * np.abs(bv).max()
    assert 0 < np.count_nonzero(kept) < np.count_nonzero(bv)
    for a in (-3.0, -1.0, 0.0, 1.0, 6.0, 12.0):
        for mu in (1.5, 3.0, 4.5):
            got = dynamics._support_sums(a, mu, bv, grid)
            with monkeypatch.context() as m:
                m.setattr(dynamics, "B_FLOOR", 0.0)
                want = dynamics._support_sums(a, mu, bv, grid)
            for g, w in zip(got, want):
                assert abs(g - w) <= 1e-14 * abs(w), (a, mu)


# --------------------------------------------------------------- the full PDE


def test_pde_rhs_assembly(grid):
    u = soliton_profile(GroupElement(0.5, 1.1, 0.2, 1.5), grid)
    cubic = szego_project(HardyField(grid, np.abs(u.values) ** 2 * u.values))
    expected = -1j * (cubic.values + 1e-2 * toeplitz_apply(GAUSS, u).values)
    got = pde_rhs(u, GAUSS, 1e-2)
    assert_allclose(got.values, expected, atol=1e-12)


@given(log2n=st.integers(4, 13), eps=st.sampled_from([0.0, 1e-2]),
       seed=st.integers(0, 2**31 - 1))
def test_half_length_kernel_matches_length_n_projection(log2n, eps, seed):
    # the kernel's two length-n/2 transforms against the length-n
    # pointwise product and Hardy projection they replace; P zeroes the
    # bins [n/2, n), so fft(-i P(g))[:n/2] is -i fft(g)[:n/2]
    n = 1 << log2n
    grid = SpectralGrid(n, n / 32.0)
    rng = np.random.default_rng(seed)
    N = n // 2
    V = (rng.standard_normal(N) + 1j * rng.standard_normal(N)) * (n / N**0.5)
    u = np.fft.ifft(np.concatenate([V, np.zeros(N)]))
    g = (np.abs(u) ** 2 + eps * GAUSS.on_grid(grid)) * u
    ref = -1j * np.fft.fft(g)[:N]
    eb = dynamics._eb_rows(GAUSS, eps, grid)
    K = -1j * dynamics._raw_rhs(*dynamics._rows_abs2(V, grid), grid, eb)
    assert np.max(np.abs(K - ref)) <= 1e-13 * np.max(np.abs(ref))
    # the stepping form, in the caller's rows and work arrays, is the same sum
    rows = dynamics._rows_abs2(V, grid, np.empty((2, N), dtype=complex),
                               np.empty((2, N)), np.empty((2, N)))
    assert np.array_equal(-1j * dynamics._raw_rhs(*rows, grid, eb), K)
    # szego_project runs on the same helpers, so its independent check is
    # the full transform of the non-Hardy g with bins [n/2, n) zeroed
    G = np.fft.fft(g)
    G[N:] = 0.0
    p = szego_project(g, grid)
    want = np.fft.ifft(G)
    assert np.max(np.abs(p.values - want)) <= 1e-13 * np.max(np.abs(want))
    want = G[:N] * grid.dx * np.exp(-1j * grid.xi_pos * grid.x[0])
    assert np.max(np.abs(p.spectrum - want)) <= 1e-13 * np.max(np.abs(want))


@given(log2n=st.integers(4, 13), seed=st.integers(0, 2**31 - 1))
def test_rows_abs2_is_re2_plus_im2_bitwise(log2n, seed):
    # the kernel's |u|^2, alone and in the caller's buffers, is bitwise
    # the textbook re^2 + im^2 of the rows (no hypot)
    n = 1 << log2n
    grid = SpectralGrid(n, n / 32.0)
    rng = np.random.default_rng(seed)
    N = n // 2
    V = (rng.standard_normal(N) + 1j * rng.standard_normal(N)) * (n / N**0.5)
    u, w = dynamics._rows_abs2(V, grid)
    assert np.array_equal(u, spectral_core.hardy_rows(V, grid))
    assert np.array_equal(w, u.real**2 + u.imag**2)
    z, ws, sq = np.empty((2, N), dtype=complex), np.empty((2, N)), np.empty((2, N))
    got = dynamics._rows_abs2(V, grid, z, ws, sq)
    assert got[0] is z and got[1] is ws
    assert np.array_equal(ws, w) and np.array_equal(z, u)


def test_lean_kernel_matches_reference_rk4(grid):
    # the raw-coordinate stepper against textbook RK4 over the public
    # pde_rhs, on the transit geometry
    eps, dt, n_steps = 1e-2, 5e-4, 100
    u0 = soliton_profile(GroupElement(-3.0, 1.0, 0.0, 3.0), grid)
    traj = evolve_pde(u0, GAUSS, eps, t_final=n_steps * dt, dt=dt, stride=n_steps)
    u = u0.values
    for _ in range(n_steps):
        k1 = pde_rhs(HardyField(grid, u), GAUSS, eps).values
        k2 = pde_rhs(HardyField(grid, u + 0.5 * dt * k1), GAUSS, eps).values
        k3 = pde_rhs(HardyField(grid, u + 0.5 * dt * k2), GAUSS, eps).values
        k4 = pde_rhs(HardyField(grid, u + dt * k3), GAUSS, eps).values
        u = u + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    ref = szego_project(u, grid)
    assert np.max(np.abs(traj.fields[-1].spectrum - ref.spectrum)) <= 1e-12


def test_evolve_pde_rejects_misaligned_horizon(grid):
    u = soliton_profile(identity(), grid)
    with pytest.raises(ValueError):
        evolve_pde(u, eps=0.0, t_final=1.0005, dt=1e-3)


def test_evolve_pde_flags_divergence(grid):
    u0 = soliton_profile(identity(), grid)
    big = HardyField(grid, 100.0 * u0.values)
    with pytest.raises(DivergenceError) as info:
        evolve_pde(big, eps=0.0, t_final=1.0, dt=0.1)
    assert "non-finite" in str(info.value)


def test_evolve_pde_sampling(grid):
    u = soliton_profile(identity(), grid)
    traj = evolve_pde(u, eps=0.0, t_final=0.1, dt=1e-3, stride=25)
    assert_allclose(traj.times, [0.0, 0.025, 0.05, 0.075, 0.1], atol=1e-12)
    assert len(traj.fields) == 5
    assert traj.dt == 1e-3
    for sums in (traj.mass, traj.hamiltonian, traj.momentum):
        assert sums.shape == traj.times.shape


def test_stored_samples_do_not_alias_the_stepping_buffers(grid):
    # a sample keeps a copy of the step's bins, from which it builds its
    # values, while the next step consumes the stepping buffers in place
    u0 = soliton_profile(GroupElement(-3.0, 1.0, 0.0, 3.0), grid)
    traj = evolve_pde(u0, GAUSS, 1e-2, t_final=0.01, dt=1e-3, stride=2)
    assert len(traj.fields) == 6
    for f in traj.fields:
        ref = from_spectrum(grid, f.spectrum)
        assert np.max(np.abs(f.values - ref)) <= 1e-13 * np.max(np.abs(ref))
    for f, h in zip(traj.fields, traj.fields[1:]):
        assert not np.shares_memory(f.values, h.values)
        assert not np.shares_memory(f.spectrum, h.spectrum)


def test_streamed_samples_never_build_their_values(monkeypatch, tmp_path):
    # the decomposition reads each sample's spectrum alone, and simulate
    # its spectrum and the run's sums, so neither run builds a sample's
    # values from its spectrum
    cfg = {"grid": {"n": 2048, "L": 128.0},
           "soliton": {"a0": -3.0, "alpha0": 1.0, "phi0": 0.0, "mu0": 3.0},
           "potential": {"kind": "gaussian", "amplitude": 1.0, "center": 0.0,
                         "width": 1.0},
           "eps": 0.01, "t_final": {"policy": "fixed", "value": 0.01},
           "dt": 1e-3, "stride": 1}
    built = []
    synthesize = spectral_core.from_spectrum
    monkeypatch.setattr(spectral_core, "from_spectrum",
                        lambda grid, spec: built.append(1) or synthesize(grid, spec))
    report, _, _ = _run_tracked(cfg)
    assert report.times.size == 11
    assert cli.cmd_simulate(cfg, str(tmp_path), False) == 0
    assert built == []


def test_stored_sample_values_are_built_on_first_read(grid):
    # a stored sample holds no values until they are first read; then
    # they are bitwise from_spectrum of its spectrum, and bitwise what a
    # sink that reads them at once gets
    u0 = soliton_profile(GroupElement(-3.0, 1.0, 0.0, 3.0), grid)
    traj = evolve_pde(u0, GAUSS, 1e-2, t_final=0.01, dt=1e-3, stride=2)
    read_at_once = []
    evolve_pde(u0, GAUSS, 1e-2, t_final=0.01, dt=1e-3, stride=2,
               on_sample=lambda t, f: read_at_once.append(f.values))
    for f, v in zip(traj.fields, read_at_once):
        assert f._values is None
        assert f.values.tobytes() == from_spectrum(grid, f.spectrum).tobytes()
        assert f.values.tobytes() == v.tobytes()


def test_fft_only_on_the_rk4_path(monkeypatch):
    # a stride-1 tracked run: 8 transforms per RK4 step (the first stage
    # reuses the inverse transform the step starts from, which is also
    # the sample's field), at most 3 more per run, and none in the
    # decomposition, the defect or the pairing
    cfg = {"grid": {"n": 2048, "L": 128.0},
           "soliton": {"a0": -3.0, "alpha0": 1.0, "phi0": 0.0, "mu0": 3.0},
           "potential": {"kind": "gaussian", "amplitude": 1.0, "center": 0.0,
                         "width": 1.0},
           "eps": 0.01, "t_final": {"policy": "fixed", "value": 0.01},
           "dt": 1e-3, "stride": 1}
    calls = {"all": 0, "inside": 0}
    depth = [0]
    rk4 = [0]
    batches = []    # (shape, axis) of each transform inside the RK4 loop

    def counted(fn):
        def wrapper(a, out=None):
            calls["all"] += 1
            calls["inside"] += depth[0] > 0
            if rk4[0] and not depth[0]:
                batches.append((a.shape, a.ndim - 1))   # the pair's axis
            return fn(a, out)
        return wrapper

    def guarded(fn, depth=depth):
        def wrapper(*args, **kwargs):
            depth[0] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                depth[0] -= 1
        return wrapper

    # dynamics and spectral_core both look the pair up on spectral_core
    for name in ("fft", "ifft"):
        monkeypatch.setattr(spectral_core, name, counted(getattr(spectral_core, name)))
    monkeypatch.setattr(Tracker, "add", guarded(Tracker.add))
    monkeypatch.setattr(Tracker, "report", guarded(Tracker.report))
    for module in (dynamics, decomposition):
        monkeypatch.setattr(module, "abc_pairing", guarded(module.abc_pairing))
    monkeypatch.setattr(cli, "evolve_pde", guarded(cli.evolve_pde, rk4))
    report, _, _ = _run_tracked(cfg)
    assert report.times.size == 11
    assert calls["inside"] == 0
    assert 8 * 10 <= calls["all"] <= 8 * 10 + 3
    # every RK4 transform is one (2, n/2) batch along the last axis
    assert len(batches) >= 8 * 10
    assert set(batches) == {((2, 1024), 1)}


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="glibc malloc thresholds")
def test_rk4_step_reuses_freed_fft_scratch():
    # pocketfft allocates and frees 384 KiB of scratch per call at
    # n = 16384; returned to the OS each time, it cost 768 minor page
    # faults a step.  A fresh process, so that no scipy.fft import from
    # another test sets the malloc thresholds instead of spectral_core.
    script = (
        "import resource\n"
        "from szego_lab.dynamics import evolve_pde\n"
        "from szego_lab.operators import gaussian_potential\n"
        "from szego_lab.soliton_manifold import GroupElement, soliton_profile\n"
        "from szego_lab.spectral_core import SpectralGrid\n"
        "u0 = soliton_profile(GroupElement(-3.0, 1.0, 0.0, 3.0),"
        " SpectralGrid(16384, 512.0))\n"
        "run = lambda steps: evolve_pde(u0, gaussian_potential(), 1e-2,"
        " t_final=steps * 5e-4, dt=5e-4, stride=steps, on_sample=lambda t, f: None)\n"
        "run(5)\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "run(20)\n"
        "print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 20)\n")
    src = str(Path(dynamics.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env)
    assert done.returncode == 0, done.stderr
    assert float(done.stdout) < 8


def test_free_soliton_follows_closed_form(grid):
    g0 = identity()
    traj = evolve_pde(soliton_profile(g0, grid), eps=0.0, t_final=2.0, dt=1e-3,
                      stride=2000)
    ref = soliton_profile(free_flow(g0, 2.0, grid), grid)
    dev = np.sqrt(np.sum(np.abs(traj.fields[-1].values - ref.values) ** 2) * grid.dx)
    assert dev < 1e-6


def test_perturbed_run_conserves_mass_and_energy(grid):
    u0 = soliton_profile(GroupElement(-3.0, 1.0, 0.0, 3.0), grid)
    traj = evolve_pde(u0, GAUSS, 1e-2, t_final=2.0, dt=1e-3, stride=500)
    assert traj.mass_drift < 1e-9
    assert traj.hamiltonian_drift < 1e-9
    # drift fields are relative, cross-check one directly
    m0 = mass(traj.fields[0])
    m1 = mass(traj.fields[-1])
    assert abs(m1 - m0) / m0 <= traj.mass_drift + 1e-15
    # the in-loop H_b, summed over the kernel's |u|^2, against hamiltonian()
    h0 = hamiltonian(traj.fields[0], GAUSS, 1e-2)
    h1 = hamiltonian(traj.fields[-1], GAUSS, 1e-2)
    assert abs(h1 - h0) / abs(h0) <= traj.hamiltonian_drift + 1e-15
    # the in-loop momentum sum against momentum() of the stored samples
    p = np.array([momentum(f) for f in traj.fields])
    assert traj.momentum_drift > 1e-7
    assert abs(traj.momentum_drift - np.max(np.abs(p - p[0])) / p[0]) < 1e-13
    # each sample's sums against the same functionals of its field
    assert_allclose(traj.mass, [mass(f) for f in traj.fields], rtol=1e-13)
    assert_allclose(traj.hamiltonian,
                    [hamiltonian(f, GAUSS, 1e-2) for f in traj.fields], rtol=1e-13)
    assert_allclose(traj.momentum * grid.dx**2 / grid.box_length, p, rtol=1e-13)


@given(seed=st.integers(0, 2**31 - 1))
def test_flow_conserves_mass_energy_and_free_momentum(seed):
    # random rational data: mass and H_b are conserved with and without
    # the potential, and the momentum at eps = 0, where the cubic Szego
    # flow conserves it (Gerard & Grellier, Ann. Sci. ENS 2010)
    grid = SpectralGrid(1024, 64.0)
    u0 = random_rational_field(grid, np.random.default_rng(seed))
    free = evolve_pde(u0, eps=0.0, t_final=0.25, dt=1e-3, stride=25)
    assert free.mass_drift < 1e-12
    assert free.hamiltonian_drift < 1e-12
    assert free.momentum_drift < 1e-12
    pert = evolve_pde(u0, gaussian_potential(1.0, 0.0, 1.0), 1e-2, 0.25, 1e-3, 25)
    assert pert.mass_drift < 1e-12
    assert pert.hamiltonian_drift < 1e-12


# ------------------------------------------------------------- averaged flow


def test_effective_rhs_continuum_free_rates():
    rates = effective_rhs(GroupElement(2.0, 1.3, 0.1, 0.7), GAUSS, 0.0)
    al, mu = 1.3, 0.7
    assert_allclose(rates, [al**2 * mu / 2, 0.0, -(al**2) * mu**2 / 4, 0.0],
                    atol=1e-15)


def test_effective_rhs_grid_free_rates(grid):
    rates = effective_rhs(GroupElement(2.0, 1.3, 0.1, 0.7), GAUSS, 0.0, grid)
    c = family_drift_rate(1.3, 0.7, grid)
    assert_allclose(rates, [c, 0.0, -c**2 / 1.3**2, 0.0], atol=1e-15)


def test_parameter_flow_is_stationary_for_x(grid):
    # the defect functional vanishes identically on the averaged flow
    rg = np.random.default_rng(3)
    for _ in range(10):
        g = GroupElement(rg.uniform(-5, 5), rg.uniform(0.7, 1.4),
                         rg.uniform(-3, 3), rg.uniform(0.5, 2.0))
        rates = effective_rhs(g, GAUSS, 1e-2, grid)
        X = x_vector(g, rates, GAUSS, 1e-2, grid=grid)
        assert X.norm() < 1e-12


def test_continuum_effective_flow_conserves_alpha2mu():
    s0 = EffectiveState(0.0, GroupElement(-3.0, 1.0, 0.0, 3.0))
    states = evolve_effective(s0, GAUSS, 1e-2, t_eval=np.linspace(0, 5, 11))
    inv0 = s0.g.alpha**2 * s0.g.mu
    worst = max(abs(s.g.alpha**2 * s.g.mu - inv0) / inv0 for s in states)
    assert worst < 1e-9


def test_grid_effective_flow_conserves_family_mass(grid):
    s0 = EffectiveState(0.0, GroupElement(-3.0, 1.0, 0.0, 3.0))
    states = evolve_effective(s0, GAUSS, 1e-2, t_eval=np.linspace(0, 5, 11),
                              grid=grid)
    inv0 = s0.g.alpha**2 * family_mass_constant(s0.g.mu, grid)
    worst = max(
        abs(s.g.alpha**2 * family_mass_constant(s.g.mu, grid) - inv0) / inv0
        for s in states
    )
    assert worst < 1e-9


@pytest.mark.parametrize("route", ["continuum", "grid"])
def test_effective_flow_matches_free_flow_without_potential(route, grid):
    on = grid if route == "grid" else None
    s0 = EffectiveState(0.0, GroupElement(1.0, 1.2, 0.5, 2.0))
    states = evolve_effective(s0, GAUSS, 0.0, t_eval=np.array([0.0, 3.0]), grid=on)
    ref = free_flow(s0.g, 3.0, on)
    got = states[-1].g
    assert_allclose([got.a, got.alpha, got.phi, got.mu],
                    [ref.a, ref.alpha, ref.phi, ref.mu], rtol=1e-9, atol=1e-9)


# ------------------------------------------------- the effective integrator


def _transit_case():
    cfg = json.loads((Path(__file__).resolve().parents[1] / "configs"
                      / "transit.json").read_text())
    spec = run_spec(cfg)
    return (spec.g0, spec.potential, spec.eps, spec.times, spec.grid,
            1e-11, 1e-13)


@pytest.mark.parametrize("case", ["transit", "continuum", "grid", "free"])
def test_rk45_reproduces_solve_ivp(case, grid, monkeypatch):
    # scipy's RK45 is the oracle: the same states to the bit, from the
    # same number of right-hand-side evaluations
    g0 = GroupElement(-3.0, 1.0, 0.0, 3.0)
    t11 = np.linspace(0, 5, 11)
    g0, b, eps, t_eval, on, rtol, atol = {
        "transit": _transit_case,
        "continuum": lambda: (g0, GAUSS, 1e-2, t11, None, 1e-10, 1e-12),
        "grid": lambda: (g0, GAUSS, 1e-2, t11, grid, 1e-10, 1e-12),
        "free": lambda: (GroupElement(1.0, 1.2, 0.5, 2.0), GAUSS, 0.0,
                         np.array([0.0, 3.0]), grid, 1e-10, 1e-12),
    }[case]()
    calls = []
    monkeypatch.setattr(dynamics, "effective_rhs",
                        lambda *a: calls.append(1) or effective_rhs(*a))
    states = evolve_effective(EffectiveState(0.0, g0), b, eps, t_eval, grid=on,
                              rtol=rtol, atol=atol)
    sol = solve_ivp(lambda t, y: effective_rhs(GroupElement(*y), b, eps, on),
                    (0.0, t_eval[-1]), g0.as_array(), method="RK45",
                    t_eval=t_eval, rtol=rtol, atol=atol)
    assert sol.success and sol.t.size == t_eval.size
    assert np.array_equal([s.t for s in states], sol.t)
    assert np.array_equal(np.array([s.g.as_array() for s in states]).T, sol.y)
    assert len(calls) == sol.nfev


@pytest.mark.parametrize("t_bad", [0.0, 0.3])
def test_rk45_fails_on_nan_rhs(t_bad):
    # NaN from the first call, or from t = 0.3 on, which rejects steps
    # down to the 10-ulp floor
    def rhs(t, y):
        return np.full(4, np.nan) if t >= t_bad else -y

    with pytest.raises(RuntimeError, match="effective integration failed"):
        dynamics._rk45(rhs, 0.0, np.ones(4), 1.0, np.linspace(0, 1, 5), 1e-10, 1e-12)


def test_evolve_effective_reports_non_finite_state_as_failed_integration(monkeypatch):
    # a NaN velocity must not surface as GroupElement's parameter check
    monkeypatch.setattr(dynamics, "effective_rhs", lambda *a: np.full(4, np.nan))
    with pytest.raises(RuntimeError, match="non-finite state at t="):
        evolve_effective(EffectiveState(0.0, GroupElement(-3.0, 1.0, 0.0, 3.0)),
                         GAUSS, 1e-2, t_eval=[0.0, 1.0])


@pytest.mark.parametrize("t_eval", [[0.0], [-0.5, 1.0]], ids=["empty", "early"])
def test_evolve_effective_rejects_empty_interval_or_outside_samples(t_eval):
    # the horizon is the last sample time: it must lie after s0.t, and no
    # sample may lie before s0.t
    with pytest.raises(ValueError, match=r"t_eval\[-1\] > s0.t"):
        evolve_effective(EffectiveState(0.0, GroupElement(-3.0, 1.0, 0.0, 3.0)),
                         GAUSS, 1e-2, t_eval=t_eval)
