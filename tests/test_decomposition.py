import numpy as np
import pytest
from numpy.testing import assert_allclose

from szego_lab.spectral_core import (
    HardyField,
    SpectralGrid,
    from_spectrum,
    random_rational_field,
)
from szego_lab.operators import gaussian_potential, mass
from szego_lab.soliton_manifold import (
    GroupElement,
    act,
    family_mass_constant,
    generator_spectra,
    identity,
    manifold_project,
    soliton_profile,
)
from szego_lab.dynamics import EffectiveState, evolve_effective, evolve_pde
from szego_lab.cli import _emit_tracked
from szego_lab.decomposition import (
    Decomposition,
    _residual_and_jacobian,
    DegenerateParametrizationError,
    Tracker,
    TrackReport,
    TubularNeighborhoodError,
    reparametrize,
    theorem_metrics,
    track,
    x_vector,
)

GAUSS = gaussian_potential(1.0, 0.0, 1.0)


def _orthogonal_bump(grid, rng, norm):
    w = random_rational_field(grid, rng, norm=norm)
    y = manifold_project(w)
    spec = w.spectrum.copy()
    for k, Ek in enumerate(generator_spectra(grid)):
        spec -= y.as_array()[k] * Ek
    return HardyField(grid, from_spectrum(grid, spec))


def _pair_im(A, B, L):
    return float(np.sum(np.imag(A * np.conj(B))) / L)


def _per_bin_residual_and_jacobian(u_pos, g, grid):
    """Reference form of the orthogonality system: the frame, its
    parameter derivatives and the tangents as full spectra, paired bin
    by bin."""
    L = grid.box_length
    xi = grid.xi_pos
    zeta = xi / g.mu
    base = (np.exp(1j * g.phi) * g.alpha) * np.exp(-zeta - 1j * g.a * xi)
    S = -2j * np.pi * base
    v = [-2.0 * np.pi * zeta, -2j * np.pi * np.ones_like(zeta),
         2.0 * np.pi * np.ones_like(zeta), -2j * np.pi * zeta]
    dv = [-2.0 * np.pi, 0.0, 0.0, -2j * np.pi]
    E = [base * vj for vj in v]
    dE = [[-1j * xi * E[j], E[j] / g.alpha, 1j * E[j],
           (xi / g.mu**2) * (E[j] - base * dv[j])] for j in range(4)]
    T = [-1j * xi * S, S / g.alpha, 1j * S, (xi / g.mu**2) * S]
    D = u_pos - S
    R = np.array([_pair_im(D, E[j], L) for j in range(4)])
    J = np.array([[-_pair_im(T[k], E[j], L) + _pair_im(D, dE[j][k], L)
                   for k in range(4)] for j in range(4)])
    return R, J


def _near_family(grid, rng, g):
    """A member near g plus a small generic bump, as its n/2-bin spectrum."""
    shifted = GroupElement(g.a + rng.uniform(-0.1, 0.1),
                           g.alpha * rng.uniform(0.95, 1.05),
                           g.phi + rng.uniform(-0.1, 0.1),
                           g.mu * rng.uniform(0.95, 1.05))
    w = random_rational_field(grid, rng, norm=0.05)
    u = HardyField(grid, soliton_profile(shifted, grid).values + w.values)
    return u.spectrum


_SYSTEM_POINTS = [GroupElement(-3.0, 1.0, 0.0, 3.0),
                  GroupElement(1.3, 1.1, 0.7, 1.0),
                  GroupElement(4.2, 0.8, -2.5, 0.6),
                  GroupElement(-0.5, 1.4, 2.9, 1.7)]


@pytest.mark.parametrize("g", _SYSTEM_POINTS)
def test_moment_system_matches_per_bin_pairings(grid, rng, g):
    u_pos = _near_family(grid, rng, g)
    R, J, _ = _residual_and_jacobian(u_pos, g, grid)
    R_ref, J_ref = _per_bin_residual_and_jacobian(u_pos, g, grid)
    assert np.max(np.abs(R - R_ref)) <= 1e-11 * np.max(np.abs(R_ref))
    assert np.max(np.abs(J - J_ref)) <= 1e-11 * np.max(np.abs(J_ref))


@pytest.mark.parametrize("g", _SYSTEM_POINTS)
def test_jacobian_matches_central_differences(grid, rng, g):
    u_pos = _near_family(grid, rng, g)
    _, J, _ = _residual_and_jacobian(u_pos, g, grid)
    h = 1e-5
    for k in range(4):
        step = np.zeros(4)
        step[k] = h
        Rp, _, _ = _residual_and_jacobian(u_pos, GroupElement(*(g.as_array() + step)), grid)
        Rm, _, _ = _residual_and_jacobian(u_pos, GroupElement(*(g.as_array() - step)), grid)
        fd = (Rp - Rm) / (2 * h)
        assert np.max(np.abs(J[:, k] - fd)) <= 1e-8 * np.max(np.abs(J)), k


# -------------------------------------------------------------- reparametrize


def test_recovers_exact_member(grid):
    g = GroupElement(-3.0, 1.0, 0.0, 3.0)
    u = soliton_profile(g, grid)
    guess = GroupElement(-2.9, 1.05, 0.1, 3.1)
    d = reparametrize(u, guess)
    assert d.newton_iters <= 5
    assert abs(d.g.a - g.a) < 1e-9
    assert abs(d.g.alpha - g.alpha) < 1e-9
    assert abs(d.g.phi - g.phi) < 1e-9
    assert abs(d.g.mu - g.mu) < 1e-9
    assert d.w_l2 < 1e-9


def test_recovers_random_members(grid):
    rg = np.random.default_rng(8)
    for _ in range(20):
        g = GroupElement(rg.uniform(-5, 5), rg.uniform(0.7, 1.4),
                         rg.uniform(-3, 3), rg.uniform(0.5, 1.5))
        u = soliton_profile(g, grid)
        guess = GroupElement(g.a + rg.uniform(-0.05, 0.05),
                             g.alpha * rg.uniform(0.96, 1.04),
                             g.phi + rg.uniform(-0.05, 0.05),
                             g.mu * rg.uniform(0.96, 1.04))
        d = reparametrize(u, guess)
        assert d.newton_iters <= 5
        err = max(abs(d.g.a - g.a), abs(d.g.alpha - g.alpha),
                  abs(d.g.phi - g.phi), abs(d.g.mu - g.mu))
        assert err < 1e-9, f"param error {err:.2e} at {g}"


def test_round_trip_with_orthogonal_remainder(grid, rng):
    # unit-scaling member: the action is exact and the decomposition must
    # hand back both factors to solver precision
    g = GroupElement(1.3, 1.1, 0.7, 1.0)
    w_orth = _orthogonal_bump(grid, rng, norm=0.05)
    u = act(g, HardyField(grid, soliton_profile(identity(), grid).values + w_orth.values))
    d = reparametrize(u, GroupElement(1.33, 1.07, 0.75, 1.03))
    assert max(abs(d.g.a - g.a), abs(d.g.alpha - g.alpha),
               abs(d.g.phi - g.phi), abs(d.g.mu - g.mu)) < 1e-9
    wdiff = np.sqrt(np.sum(np.abs(d.w.values - w_orth.values) ** 2) * grid.dx)
    assert wdiff < 1e-8


@pytest.mark.filterwarnings("ignore:rescaled field exceeds the band limit")
def test_round_trip_at_general_scaling(grid, rng):
    # at mu != 1 the construction itself resamples the bump, so recovery
    # is limited by that interpolation, not by the solver
    g = GroupElement(1.3, 1.1, 0.7, 1.25)
    w_orth = _orthogonal_bump(grid, rng, norm=0.05)
    u = act(g, HardyField(grid, soliton_profile(identity(), grid).values + w_orth.values))
    d = reparametrize(u, GroupElement(1.33, 1.07, 0.75, 1.3))
    assert d.residual < 1e-10
    assert max(abs(d.g.a - g.a), abs(d.g.alpha - g.alpha),
               abs(d.g.phi - g.phi), abs(d.g.mu - g.mu)) < 5e-4


def test_w_norms_match_direct_evaluation(grid, rng):
    g = GroupElement(0.4, 1.05, -0.2, 1.0)
    w_orth = _orthogonal_bump(grid, rng, norm=0.08)
    u = act(g, HardyField(grid, soliton_profile(identity(), grid).values + w_orth.values))
    d = reparametrize(u, g)
    direct = np.sqrt(np.sum(np.abs(d.w.values) ** 2) * grid.dx)
    assert abs(d.w_l2 - direct) < 1e-8


def test_rejects_field_outside_tube(grid, rng):
    g = GroupElement(0.0, 1.0, 0.0, 1.0)
    w_big = _orthogonal_bump(grid, rng, norm=0.6)
    u = HardyField(grid, soliton_profile(g, grid).values + w_big.values)
    with pytest.raises((TubularNeighborhoodError, DegenerateParametrizationError)):
        reparametrize(u, g)


def test_rejects_zero_field(grid):
    u = HardyField(grid, np.zeros(grid.n_points, dtype=complex))
    with pytest.raises((TubularNeighborhoodError, DegenerateParametrizationError)):
        reparametrize(u, identity())


def test_decomposition_is_dataclass(grid):
    d = reparametrize(soliton_profile(identity(), grid), identity())
    assert isinstance(d, Decomposition)
    assert d.residual >= 0.0
    assert d.w_h12 >= d.w_l2 * 0.0  # both populated
    assert d.w.grid is grid or d.w.grid == grid


# ------------------------------------------------------------------ x_vector


def test_x_vector_zero_on_free_flow_continuum():
    g = GroupElement(2.0, 1.3, 0.4, 0.7)
    al, mu = g.alpha, g.mu
    free = np.array([al**2 * mu / 2, 0.0, -(al**2) * mu**2 / 4, 0.0])
    X = x_vector(g, free, GAUSS, 0.0)
    assert X.norm() < 1e-14


def test_x_vector_scales_with_rate_defect(grid):
    g = GroupElement(0.0, 1.0, 0.0, 1.0)
    base = x_vector(g, np.array([0.5, 0.0, -0.25, 0.0]), GAUSS, 0.0)
    off = x_vector(g, np.array([0.5 + 1e-3, 0.0, -0.25, 0.0]), GAUSS, 0.0)
    assert base.norm() < 1e-14
    # translation-rate defect enters through the first slot scaled by mu
    assert abs(off.y1 - 1e-3) < 1e-12
    assert abs(off.norm() - 1e-3) < 1e-12


# --------------------------------------------------------------------- track


@pytest.fixture(scope="module")
def short_tracked_run():
    grid = SpectralGrid(8192, 256.0)
    g0 = GroupElement(-3.0, 1.0, 0.0, 3.0)
    u0 = soliton_profile(g0, grid)
    traj = evolve_pde(u0, GAUSS, 1e-2, t_final=1.0, dt=5e-4, stride=100)
    eff = evolve_effective(EffectiveState(0.0, g0), GAUSS, 1e-2,
                           t_eval=np.asarray(traj.times), grid=grid)
    report = track(traj, GAUSS, 1e-2, effective_trajectory=eff, g0=g0)
    return grid, traj, eff, report


def test_track_report_shape(short_tracked_run):
    grid, traj, eff, report = short_tracked_run
    n = len(traj.times)
    assert len(report.times) == n
    assert len(report.g_series) == n
    assert report.w_h12.shape == (n,)
    assert report.x_norm.shape == (n,)
    assert report.deviations.shape == (n, 4)
    assert report.mu_window_ok


def test_track_rates_are_centered_differences(short_tracked_run):
    _, _, _, report = short_tracked_run
    # no one-sided stencils: the endpoints are left unrated
    assert np.isnan(report.x_norm[0]) and np.isnan(report.x_norm[-1])
    assert np.all(np.isfinite(report.x_norm[1:-1]))


def test_track_newton_stays_warm(short_tracked_run):
    _, _, _, report = short_tracked_run
    assert report.newton_iters.max() <= 5


def test_track_mass_identity(short_tracked_run):
    grid, traj, _, report = short_tracked_run
    # the remainder norm balances the family mass against the conserved
    # total, with the discrete family constant in place of pi mu
    assert np.nanmax(report.mass_residual) < 1e-9
    g_last = report.g_series[-1]
    m0 = mass(traj.fields[0])
    recon = (g_last.alpha**2 * g_last.mu * report.w_l2[-1] ** 2
             + g_last.alpha**2 * family_mass_constant(g_last.mu, grid))
    assert abs(recon - m0) / m0 < 1e-9


def test_track_deviations_against_effective(short_tracked_run):
    _, _, eff, report = short_tracked_run
    # column order (a, alpha, phi, mu); all small over one unit of time
    assert np.max(np.abs(report.deviations)) < 1e-2
    a_dev = abs(report.g_series[-1].a - eff[-1].g.a)
    assert_allclose(report.deviations[-1, 0], a_dev, atol=1e-12)


def test_track_requires_matching_effective_samples(short_tracked_run):
    grid, traj, eff, _ = short_tracked_run
    with pytest.raises(ValueError):
        track(traj, GAUSS, 1e-2, effective_trajectory=eff[:-1],
              g0=GroupElement(-3.0, 1.0, 0.0, 3.0))


def test_track_error_carries_timestamp(grid):
    u0 = soliton_profile(GroupElement(0.0, 1.0, 0.0, 1.0), grid)
    traj = evolve_pde(u0, GAUSS, 0.0, t_final=0.02, dt=1e-2, stride=1)
    # corrupt the second sample so the decomposition cannot succeed there
    traj.fields[1] = HardyField(grid, 0.0 * u0.values)
    with pytest.raises((TubularNeighborhoodError, DegenerateParametrizationError)) as info:
        track(traj, GAUSS, 0.0, g0=identity())
    assert "t = " in str(info.value)


def test_tracker_makes_no_full_length_complex_exponential(monkeypatch):
    # the family shape of every Newton evaluation and pairing comes from
    # two tables of about sqrt(n/2) points, never from n/2 exponentials
    grid = SpectralGrid(2048, 128.0)
    g0 = GroupElement(-3.0, 1.0, 0.0, 3.0)
    traj = evolve_pde(soliton_profile(g0, grid), GAUSS, 1e-2, t_final=0.05,
                      dt=1e-3, stride=10)
    sizes, exp = [], np.exp

    def counting_exp(x, *args, **kwargs):
        if np.iscomplexobj(x):
            sizes.append(np.size(x))
        return exp(x, *args, **kwargs)

    monkeypatch.setattr(np, "exp", counting_exp)
    tracker = Tracker(grid, GAUSS, 1e-2, g0)
    for t, u in zip(traj.times, traj.fields):
        tracker.add(float(t), u)
    tracker.report()
    assert sizes and max(sizes) <= 2 * np.sqrt(grid.n_points // 2)


def test_track_csv_format(short_tracked_run, tmp_path):
    _, _, _, report = short_tracked_run
    _emit_tracked(report, theorem_metrics(report, 1e-2, 0.35), str(tmp_path), False)
    text = (tmp_path / "track.csv").read_text()
    header = text.splitlines()[0]
    assert header.startswith("t,a,alpha,phi,mu,w_h12,x_norm")
    assert "da,dalpha,dphi,dmu" in header
    # 17 significant digits survive a parse round trip
    row = text.splitlines()[2].split(",")
    assert float(row[0]) == report.times[1]
    assert float(row[1]) == report.g_series[1].a


def test_params_accessor(short_tracked_run):
    _, _, _, report = short_tracked_run
    P = report.params()
    assert P.shape == (len(report.times), 4)
    assert_allclose(P[0], [-3.0, 1.0, 0.0, 3.0], atol=1e-9)


# ------------------------------------------------------ the streamed defect


def _gdot_series(times: np.ndarray, params: np.ndarray) -> np.ndarray:
    """Reference: the whole-series differences Tracker.report took before
    the defect was streamed, one loop over the finished series."""
    n = times.size
    out = np.full((n, 4), np.nan)
    if n < 3:
        return out
    h = float(times[1] - times[0])
    uniform = np.allclose(np.diff(times), h, rtol=0, atol=1e-12 * max(h, 1.0))
    last = n if uniform else n - 1
    for k in range(1, last - 1):
        if 2 <= k <= last - 3:
            out[k] = (params[k - 2] - 8.0 * params[k - 1]
                      + 8.0 * params[k + 1] - params[k + 2]) / (12.0 * h)
        elif k == 1 and last >= 5:
            out[k] = (-3.0 * params[0] - 10.0 * params[1] + 18.0 * params[2]
                      - 6.0 * params[3] + params[4]) / (12.0 * h)
        elif k == last - 2 and last >= 5:
            out[k] = (-params[k - 3] + 6.0 * params[k - 2]
                      - 18.0 * params[k - 1] + 10.0 * params[k]
                      + 3.0 * params[k + 1]) / (12.0 * h)
        else:
            out[k] = (params[k + 1] - params[k - 1]) / (2.0 * h)
    out[0] = np.nan
    out[last - 1:] = np.nan
    return out


@pytest.fixture(scope="module")
def stride_1_run():
    # 100 steps of dt = 1e-3 on a coarse grid, every step a stored sample
    grid = SpectralGrid(2048, 128.0)
    g0 = GroupElement(-3.0, 1.0, 0.0, 3.0)
    traj = evolve_pde(soliton_profile(g0, grid), GAUSS, 1e-2, t_final=0.1,
                      dt=1e-3, stride=1)
    return grid, g0, traj


@pytest.mark.parametrize("steps", [
    range(0, 101, 4),                    # uniform
    [*range(0, 100, 7), 100],            # stride 7: a short final interval
    *(range(k) for k in (3, 4, 5, 6, 7)),  # three-point and offset stencils
], ids=["uniform", "stride7", "n3", "n4", "n5", "n6", "n7"])
def test_streamed_defect_is_the_batch_defect(stride_1_run, steps):
    # the rows add settles and those report finishes are bitwise the
    # batch differences' ||X||, NaN rows included; a Tracker that is never
    # reported holds every row but the last three once it has 6 samples
    grid, g0, traj = stride_1_run
    eps = 1e-2
    tracker = Tracker(grid, GAUSS, eps, g0)
    for k in steps:
        tracker.add(float(traj.times[k]), traj.fields[k])
    n = len(tracker.rows)
    times = np.array([row[0] for row in tracker.rows])
    gs = [row[1] for row in tracker.rows]
    gdot = _gdot_series(times, np.array([g.as_array() for g in gs]))
    want = np.full(n, np.nan)
    for k in range(n):
        if np.all(np.isfinite(gdot[k])):
            want[k] = x_vector(gs[k], gdot[k], GAUSS, eps, grid=grid).norm()
    settled = n - 3 if n >= 6 else 0
    assert len(tracker.x_norm) == settled
    assert np.array_equal(tracker.x_norm, want[:settled], equal_nan=True)
    got = tracker.report().x_norm
    assert np.array_equal(got, want, equal_nan=True)
    assert np.isnan(got[0]) and np.isnan(got[-1])
    assert np.all(np.isfinite(got[1:-2]))


# --------------------------------------------------------------- the metrics


def test_theorem_metrics_keys(short_tracked_run):
    _, _, _, report = short_tracked_run
    m = theorem_metrics(report, eps=1e-2, delta=0.35)
    for key in ("eps", "delta", "sup_w_h12", "sup_dev_a", "sup_dev_alpha",
                "sup_dev_phi", "sup_dev_mu", "alpha2mu_drift", "c_fit",
                "mu_window_ok"):
        assert key in m, key
    assert m["eps"] == 1e-2
    assert m["sup_w_h12"] > 0
    assert np.isfinite(m["c_fit"])


def test_theorem_metrics_needs_deviations(grid):
    report = TrackReport(
        times=np.array([0.0, 1.0]),
        g_series=[identity(), identity()],
        w_h12=np.zeros(2),
        x_norm=np.full(2, np.nan),
    )
    with pytest.raises(ValueError):
        theorem_metrics(report, eps=1e-2, delta=0.35)
