import numpy as np
import pytest
from numpy.testing import assert_allclose

from szego_lab.spectral_core import HardyField, from_spectrum, spectrum, szego_project
from szego_lab.operators import (
    constant_potential,
    gaussian_potential,
    hamiltonian,
    mass,
    sech2_potential,
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
    w_equation_rhs,
)
from szego_lab.decomposition import reparametrize, x_vector


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
    F[~grid.nonneg] = 0.0
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


# --------------------------------------------------------------- the full PDE


def test_pde_rhs_assembly(grid):
    u = soliton_profile(GroupElement(0.5, 1.1, 0.2, 1.5), grid)
    cubic = szego_project(HardyField(grid, np.abs(u.values) ** 2 * u.values))
    expected = -1j * (cubic.values + 1e-2 * toeplitz_apply(GAUSS, u).values)
    got = pde_rhs(u, GAUSS, 1e-2)
    assert_allclose(got.values, expected, atol=1e-12)


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


def test_free_soliton_follows_closed_form(grid):
    g0 = identity()
    traj = evolve_pde(soliton_profile(g0, grid), eps=0.0, t_final=2.0, dt=1e-3,
                      stride=2000)
    ref = soliton_profile(free_flow(g0, 2.0, grid), grid)
    dev = np.sqrt(np.sum(np.abs(traj.fields[-1].values - ref.values) ** 2) * grid.dx)
    assert dev < 1e-6


def test_time_stepper_is_fourth_order(grid):
    # halving dt across the ladder must shrink the terminal error 16-fold
    g0 = identity()
    u0 = soliton_profile(g0, grid)
    ref = soliton_profile(free_flow(g0, 1.6, grid), grid)
    errs = []
    for dt in (3.2e-2, 1.6e-2, 8e-3):
        traj = evolve_pde(u0, eps=0.0, t_final=1.6, dt=dt, stride=10**6)
        errs.append(
            np.sqrt(np.sum(np.abs(traj.fields[-1].values - ref.values) ** 2) * grid.dx)
        )
    slopes = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(slopes > 3.7) and np.all(slopes < 4.3), slopes


def test_perturbed_run_conserves_mass_and_energy(grid):
    u0 = soliton_profile(GroupElement(-3.0, 1.0, 0.0, 3.0), grid)
    traj = evolve_pde(u0, GAUSS, 1e-2, t_final=2.0, dt=1e-3, stride=500)
    assert traj.mass_drift < 1e-9
    assert traj.hamiltonian_drift < 1e-9
    # drift fields are relative, cross-check one directly
    m0 = mass(traj.fields[0])
    m1 = mass(traj.fields[-1])
    assert abs(m1 - m0) / m0 <= traj.mass_drift + 1e-15


# ------------------------------------------------------------- averaged flow


def test_effective_rhs_continuum_free_rates():
    s = EffectiveState(0.0, GroupElement(2.0, 1.3, 0.1, 0.7))
    rates = effective_rhs(s, GAUSS, 0.0)
    al, mu = 1.3, 0.7
    assert_allclose(rates, [al**2 * mu / 2, 0.0, -(al**2) * mu**2 / 4, 0.0],
                    atol=1e-15)


def test_effective_rhs_grid_free_rates(grid):
    s = EffectiveState(0.0, GroupElement(2.0, 1.3, 0.1, 0.7))
    rates = effective_rhs(s, GAUSS, 0.0, grid)
    c = family_drift_rate(1.3, 0.7, grid)
    assert_allclose(rates, [c, 0.0, -c**2 / 1.3**2, 0.0], atol=1e-15)


def test_parameter_flow_is_stationary_for_x(grid):
    # the defect functional vanishes identically on the averaged flow
    rg = np.random.default_rng(3)
    for _ in range(10):
        g = GroupElement(rg.uniform(-5, 5), rg.uniform(0.7, 1.4),
                         rg.uniform(-3, 3), rg.uniform(0.5, 2.0))
        s = EffectiveState(0.0, g)
        rates = effective_rhs(s, GAUSS, 1e-2, grid)
        X = x_vector(g, rates, GAUSS, 1e-2, grid=grid)
        assert X.norm() < 1e-12


def test_continuum_effective_flow_conserves_alpha2mu():
    s0 = EffectiveState(0.0, GroupElement(-3.0, 1.0, 0.0, 3.0))
    states = evolve_effective(s0, GAUSS, 1e-2, 5.0, t_eval=np.linspace(0, 5, 11))
    inv0 = s0.g.alpha**2 * s0.g.mu
    worst = max(abs(s.g.alpha**2 * s.g.mu - inv0) / inv0 for s in states)
    assert worst < 1e-9


def test_grid_effective_flow_conserves_family_mass(grid):
    s0 = EffectiveState(0.0, GroupElement(-3.0, 1.0, 0.0, 3.0))
    states = evolve_effective(s0, GAUSS, 1e-2, 5.0,
                              t_eval=np.linspace(0, 5, 11), grid=grid)
    inv0 = s0.g.alpha**2 * family_mass_constant(s0.g.mu, grid)
    worst = max(
        abs(s.g.alpha**2 * family_mass_constant(s.g.mu, grid) - inv0) / inv0
        for s in states
    )
    assert worst < 1e-9


def test_effective_flow_matches_free_flow_without_potential(grid):
    s0 = EffectiveState(0.0, GroupElement(1.0, 1.2, 0.5, 2.0))
    states = evolve_effective(s0, GAUSS, 0.0, 3.0,
                              t_eval=np.array([0.0, 3.0]), grid=grid)
    ref = free_flow(s0.g, 3.0, grid)
    got = states[-1].g
    assert_allclose([got.a, got.alpha, got.phi, got.mu],
                    [ref.a, ref.alpha, ref.phi, ref.mu], rtol=1e-9, atol=1e-9)


# ----------------------------------------------------------- remainder field


def test_remainder_rhs_vanishes_on_manifold(grid):
    # on the family, with the free rates and no potential, every block
    # cancels identically
    g = GroupElement(-1.0, 1.1, 0.3, 1.4)
    w0 = HardyField(grid, np.zeros(grid.n_points, dtype=complex))
    rates = effective_rhs(EffectiveState(0.0, g), GAUSS, 0.0, grid)
    out = w_equation_rhs(w0, g, rates, GAUSS, 0.0)
    assert np.max(np.abs(out.values)) == 0.0


def _fd_mismatch(grid, u0, g0, eps, h=5e-3, dt=2.5e-4):
    # centered time difference of the decomposed remainder versus the
    # assembled right-hand side at the middle sample
    traj = evolve_pde(u0, GAUSS, eps, t_final=2 * h, dt=dt, stride=int(round(h / dt)))
    decs = []
    guess = g0
    for f in traj.fields:
        d = reparametrize(f, guess)
        decs.append(d)
        guess = d.g
    gdot = np.array([
        (decs[2].g.a - decs[0].g.a),
        (decs[2].g.alpha - decs[0].g.alpha),
        (decs[2].g.phi - decs[0].g.phi),
        (decs[2].g.mu - decs[0].g.mu),
    ]) / (2 * h)
    wdot_fd = (decs[2].w.values - decs[0].w.values) / (2 * h)
    rhs = w_equation_rhs(decs[1].w, decs[1].g, gdot, GAUSS, eps)
    num = np.sqrt(np.sum(np.abs(wdot_fd - rhs.values) ** 2) * grid.dx)
    den = np.sqrt(np.sum(np.abs(rhs.values) ** 2) * grid.dx)
    return num / den


@pytest.mark.filterwarnings("ignore:rescaled field exceeds the band limit")
def test_remainder_rhs_consistent_with_pde(grid):
    # the model-frame equation and the pulled-back flow are built from
    # different discretizations of the same continuum objects, so they
    # agree to the finite-box coefficient floor, not to machine precision;
    # a sign error or a dropped block would register at order one.  The
    # measured defect is proportional to eps here, i.e. it sits entirely
    # in the inhomogeneous block.
    g0 = GroupElement(-3.0, 1.0, 0.0, 3.0)
    rel = _fd_mismatch(grid, soliton_profile(g0, grid), g0, eps=1e-2)
    assert rel < 0.1


@pytest.mark.filterwarnings("ignore:rescaled field exceeds the band limit")
def test_remainder_rhs_consistent_without_potential(grid):
    # off the family with no potential the mismatch scales with ||w||
    # through the frozen-coefficient linearization
    from szego_lab.spectral_core import from_spectrum

    g0 = GroupElement(-3.0, 1.0, 0.0, 3.0)
    u0 = soliton_profile(g0, grid)
    bump = np.zeros(grid.n_points, dtype=complex)
    nn = grid.nonneg
    bump[nn] = 0.02 * np.exp(-((grid.xi[nn] - 1.5) ** 2)) * (1 + 0.3j)
    up = HardyField(grid, u0.values + from_spectrum(grid, bump))
    rel = _fd_mismatch(grid, up, g0, eps=0.0)
    assert rel < 0.05
