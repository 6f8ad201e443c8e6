"""Symplectically orthogonal decomposition u = g.(eta + w) and the
per-run bookkeeping built on it: parameter extraction along a
trajectory, the defect vector X of the extracted parameters, and the
scaling summaries used by the sweep regressions.

The Newton solve runs in the lab frame.  For a candidate g the
orthogonality conditions pair u - S(g) against the generator frame at
g, every spectrum in closed form, so one FFT of u at entry is the only
transform the iteration needs.  The moving-frame field w is
materialized once, after convergence.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectral_core import HardyField, SpectralGrid
from .operators import PotentialSpec, mass
from .soliton_manifold import (
    MU_MAX,
    GroupElement,
    LieVector,
    act,
    family_mass_constant,
    family_drift_rate,
    inverse,
    mass_log_slope,
    soliton_profile,
)
from .dynamics import (
    CoefficientTriple,
    PdeTrajectory,
    abc_coefficients,
    abc_pairing,
)

__all__ = [
    "Decomposition",
    "TrackReport",
    "TubularNeighborhoodError",
    "DegenerateParametrizationError",
    "reparametrize",
    "x_vector",
    "track",
    "theorem_metrics",
]

TUBULAR_RADIUS = 0.25   # accept decompositions only below this H^{1/2} size
MAX_NEWTON_ITERS = 50
COND_LIMIT = 1e12


class TubularNeighborhoodError(RuntimeError):
    """The field is too far from the soliton family for a unique g."""


class DegenerateParametrizationError(RuntimeError):
    """The orthogonality system lost rank (parametrization breakdown)."""


@dataclass(frozen=True)
class Decomposition:
    g: GroupElement
    w: HardyField
    residual: float
    newton_iters: int
    w_l2: float = 0.0
    w_h12: float = 0.0


def _pair_im(A: np.ndarray, B: np.ndarray, L: float) -> float:
    return float(np.sum(np.imag(A * np.conj(B))) / L)


def _frame_and_derivs(g: GroupElement, grid: SpectralGrid):
    """Generator frame at g and its parameter derivatives, by formula.

    Each frame spectrum is base * v_j(xi/mu) with base the family
    spectrum shape and v_j a polynomial of degree <= 1, so every
    derivative is again elementary.
    """
    xi = grid.xi_pos
    zeta = xi / g.mu
    base = (np.exp(1j * g.phi) * g.alpha) * np.exp(-zeta - 1j * g.a * xi)
    v = [-2.0 * np.pi * zeta,
         -2j * np.pi * np.ones_like(zeta),
         2.0 * np.pi * np.ones_like(zeta),
         -2j * np.pi * zeta]
    dv = [-2.0 * np.pi, 0.0, 0.0, -2j * np.pi]
    E = [base * vj for vj in v]
    dE = np.empty((4, 4, xi.size), dtype=complex)
    for j in range(4):
        dE[j, 0] = -1j * xi * E[j]
        dE[j, 1] = E[j] / g.alpha
        dE[j, 2] = 1j * E[j]
        dE[j, 3] = (xi / g.mu**2) * (E[j] - base * dv[j])
    return E, dE


def _residual_and_jacobian(u_pos: np.ndarray, g: GroupElement,
                           grid: SpectralGrid):
    """Orthogonality residual R_j = omega(u - S(g), E_j(g)) and its
    analytic 4x4 Jacobian in (a, alpha, phi, mu)."""
    L = grid.box_length
    xi = grid.xi_pos
    S = (np.exp(1j * g.phi) * g.alpha * (-2j * np.pi)) \
        * np.exp(-xi / g.mu - 1j * g.a * xi)
    D = u_pos - S
    T = [-1j * xi * S, S / g.alpha, 1j * S, (xi / g.mu**2) * S]
    E, dE = _frame_and_derivs(g, grid)
    R = np.array([_pair_im(D, E[j], L) for j in range(4)])
    J = np.empty((4, 4))
    for j in range(4):
        for k in range(4):
            J[j, k] = -_pair_im(T[k], E[j], L) + _pair_im(D, dE[j, k], L)
    return R, J


def _newton(u_pos: np.ndarray, g0: GroupElement, grid: SpectralGrid,
            norm_u: float):
    """Damped Newton on the four orthogonality conditions.

    Returns (g, iterations, residual).  The residual reported is the
    moving-frame value max_j |omega(w, e_j eta)|, which differs from
    the lab-frame pairing by the conformal factor alpha^2 mu.
    """
    g = g0
    R, J = _residual_and_jacobian(u_pos, g, grid)
    for it in range(MAX_NEWTON_ITERS + 1):
        scale = g.alpha**2 * g.mu
        resid = float(np.max(np.abs(R))) / scale
        if resid < 1e-11 * norm_u:
            return g, it, resid
        if it == MAX_NEWTON_ITERS:
            break
        if np.linalg.cond(J) > COND_LIMIT:
            raise DegenerateParametrizationError(
                f"orthogonality system condition number exceeds {COND_LIMIT:g} "
                f"at g = {g}")
        step = np.linalg.solve(J, -R)
        base = g.as_array()
        nR = float(np.linalg.norm(R))
        lam = 1.0
        accepted = None
        for _ in range(8):
            trial = base + lam * step
            if (trial[1] > 0.05) and (0.05 < trial[3] < MU_MAX):
                gt = GroupElement(*trial)
                Rt, Jt = _residual_and_jacobian(u_pos, gt, grid)
                if float(np.linalg.norm(Rt)) <= (1.0 - 0.25 * lam) * nR + 1e-30:
                    accepted = (gt, Rt, Jt)
                    break
            lam *= 0.5
        if accepted is None:
            raise TubularNeighborhoodError(
                "Newton stalled: no damped step reduces the orthogonality "
                "residual (field likely outside the tubular neighborhood)")
        g, R, J = accepted
    raise TubularNeighborhoodError(
        f"no convergence in {MAX_NEWTON_ITERS} Newton iterations "
        f"(last residual {resid:.3e})")


def _exact_w_norms(u_pos: np.ndarray, g: GroupElement, grid: SpectralGrid):
    """L2 and H^{1/2} norms of w evaluated in the lab frame.

    The conformal change of variables maps the moving-frame mode zeta
    onto xi = mu * zeta bin by bin, so both norms are plain weighted
    sums over the lab spectrum of u - S(g); no resampling enters.
    """
    xi = grid.xi_pos
    S = (np.exp(1j * g.phi) * g.alpha * (-2j * np.pi)) \
        * np.exp(-xi / g.mu - 1j * g.a * xi)
    d2 = np.abs(u_pos - S) ** 2
    scale = g.alpha**2 * g.mu * grid.box_length
    wl2 = float(np.sqrt(np.sum(d2) / scale))
    wh12 = float(np.sqrt(np.sum(np.sqrt(1.0 + (xi / g.mu) ** 2) * d2) / scale))
    return wl2, wh12


def reparametrize(u: HardyField, g_guess: GroupElement) -> Decomposition:
    """Unique decomposition u = g.(eta + w) with w symplectically
    orthogonal to all four generator directions along the family.

    Newton-iterates the group parameters from g_guess; raises
    TubularNeighborhoodError when the iteration cannot converge or the
    converged remainder exceeds the tubular radius, and
    DegenerateParametrizationError when the 4x4 system degenerates.
    """
    grid = u.grid
    u_pos = u.spectrum[grid.nonneg]
    norm_u = u.norm_l2()
    g, iters, resid = _newton(u_pos, g_guess, grid, norm_u)
    wl2, wh12 = _exact_w_norms(u_pos, g, grid)
    if wh12 > TUBULAR_RADIUS:
        raise TubularNeighborhoodError(
            f"remainder H^(1/2) norm {wh12:.3g} exceeds the tubular radius "
            f"{TUBULAR_RADIUS}")
    eta = soliton_profile(GroupElement(0.0, 1.0, 0.0, 1.0), grid)
    pulled = act(inverse(g), u)
    w = HardyField(grid, pulled.values - eta.values)
    return Decomposition(g, w, resid, iters, wl2, wh12)


def x_vector(g: GroupElement, gdot, b: PotentialSpec, eps: float,
             grid: SpectralGrid = None,
             coeffs: CoefficientTriple = None) -> LieVector:
    """Defect of the parameter velocities against the effective flow:

        X1 = da mu - alpha^2 mu^2 / 2 + 2B
        X2 = dalpha/alpha - C
        X3 = dphi + alpha^2 mu^2 / 4 + A + B
        X4 = dmu/mu + 2C.

    With a grid, the free rates are the exact discrete-family values
    (drift c and its phase companion -c^2/alpha^2) and the amplitude
    channel carries the finite-box mass correction, mirroring
    effective_rhs; the two routes agree to O(1/L).
    """
    da, dal, dphi, dmu = (float(v) for v in np.asarray(gdot, dtype=float))
    al, mu = g.alpha, g.mu
    if grid is None:
        co = coeffs if coeffs is not None else abc_coefficients(g, b, eps)
        free = 0.5 * al**2 * mu
        return LieVector(da * mu - free * mu + 2.0 * co.B,
                         dal / al - co.C,
                         dphi + 0.25 * al**2 * mu**2 + co.A + co.B,
                         dmu / mu + 2.0 * co.C)
    co = coeffs if coeffs is not None else abc_pairing(g, b, eps, grid)
    c = family_drift_rate(al, mu, grid)
    return LieVector((da - c) * mu + 2.0 * co.B,
                     dal / al - mass_log_slope(mu, grid) * co.C,
                     dphi + c**2 / al**2 + co.A + co.B,
                     dmu / mu + 2.0 * co.C)


@dataclass(frozen=True)
class TrackReport:
    """Per-sample record of a tracked run."""

    times: np.ndarray
    g_series: list
    w_h12: np.ndarray
    x_norm: np.ndarray
    deviations: np.ndarray = None      # |g - g_effective|, columns a,alpha,phi,mu
    w_l2: np.ndarray = None
    mass_residual: np.ndarray = None   # family mass identity, relative to mass(u0)
    newton_iters: np.ndarray = None
    mu_window_ok: bool = True
    eps: float = 0.0

    def params(self) -> np.ndarray:
        return np.array([g.as_array() for g in self.g_series])

    def to_csv(self, path) -> None:
        cols = ["t", "a", "alpha", "phi", "mu", "w_h12", "x_norm"]
        P = self.params()
        data = [self.times, P[:, 0], P[:, 1], P[:, 2], P[:, 3],
                self.w_h12, self.x_norm]
        if self.deviations is not None:
            cols += ["da", "dalpha", "dphi", "dmu"]
            data += [self.deviations[:, k] for k in range(4)]
        with open(path, "w") as fh:
            fh.write(",".join(cols) + "\n")
            for i in range(self.times.size):
                fh.write(",".join("%.17g" % col[i] for col in data) + "\n")


def _warm_guess(g: GroupElement, dt: float, grid: SpectralGrid) -> GroupElement:
    """Advance a converged g by the free rates; the O(eps dt) error is
    far inside the Newton basin."""
    c = family_drift_rate(g.alpha, g.mu, grid)
    return GroupElement(g.a + c * dt, g.alpha,
                        g.phi - (c**2 / g.alpha**2) * dt, g.mu)


def _gdot_series(times: np.ndarray, params: np.ndarray) -> np.ndarray:
    """Fourth-order differences of the parameter series.

    Centered five-point stencils inside, offset five-point stencils at
    the two samples next to the ends (uniform O(h^4) error keeps the
    defect quotient from being polluted right where the remainder is
    still small), NaN at the endpoints themselves.  Three-point
    fallback only when the series is too short for any five-point rule.
    """
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


def track(pde_trajectory: PdeTrajectory, b: PotentialSpec, eps: float,
          effective_trajectory=None, g0: GroupElement = None) -> TrackReport:
    """Extract (a, alpha, phi, mu) along a sampled run and measure the
    Theorem-style quantities: the remainder norms, the defect ||X||
    from differenced parameter velocities, deviations against an
    effective-run comparison, and the family mass identity.
    """
    grid = pde_trajectory.grid
    times = np.asarray(pde_trajectory.times, dtype=float)
    n = times.size
    guess = g0 if g0 is not None else GroupElement(0.0, 1.0, 0.0, 1.0)
    m0 = mass(pde_trajectory.fields[0])

    g_series = []
    wl2 = np.empty(n)
    wh12 = np.empty(n)
    iters = np.empty(n, dtype=int)
    mass_res = np.empty(n)
    for k in range(n):
        u = pde_trajectory.fields[k]
        u_pos = u.spectrum[grid.nonneg]
        try:
            g, it, _ = _newton(u_pos, guess, grid, u.norm_l2())
        except (TubularNeighborhoodError, DegenerateParametrizationError) as e:
            raise type(e)(f"t = {times[k]:.6g}: {e}") from e
        l2, h12 = _exact_w_norms(u_pos, g, grid)
        if h12 > TUBULAR_RADIUS:
            raise TubularNeighborhoodError(
                f"t = {times[k]:.6g}: remainder H^(1/2) norm {h12:.3g} "
                f"exceeds the tubular radius {TUBULAR_RADIUS}")
        g_series.append(g)
        wl2[k] = l2
        wh12[k] = h12
        iters[k] = it
        fam = g.alpha**2 * family_mass_constant(g.mu, grid)
        mass_res[k] = abs(g.alpha**2 * g.mu * l2**2 + fam - m0) / m0
        if k + 1 < n:
            guess = _warm_guess(g, float(times[k + 1] - times[k]), grid)

    P = np.array([g.as_array() for g in g_series])
    mu0 = P[0, 3]
    mu_ok = bool(np.all((P[:, 3] >= mu0 / 2.0) & (P[:, 3] <= 1.5 * mu0)))

    gdot = _gdot_series(times, P)
    x_norm = np.full(n, np.nan)
    for k in range(n):
        if np.all(np.isfinite(gdot[k])):
            X = x_vector(g_series[k], gdot[k], b, eps, grid=grid)
            x_norm[k] = X.norm()

    deviations = None
    if effective_trajectory is not None:
        eff = effective_trajectory
        if len(eff) != n:
            raise ValueError("effective trajectory not aligned with samples")
        E = np.array([s.g.as_array() for s in eff])
        deviations = np.abs(P - E)

    return TrackReport(times, g_series, wh12, x_norm, deviations,
                       wl2, mass_res, iters, mu_ok, eps)


_DEVIATION_POWERS = {
    "w_h12": lambda d: 0.5 + d / 3.0,
    "a": lambda d: 0.5 + d,
    "alpha": lambda d: 0.5 + d,
    "phi": lambda d: 2.0 * d,
    "mu": lambda d: 0.5 + d,
    "alpha2mu": lambda d: 1.0 + 2.0 * d / 3.0,
}


def theorem_metrics(report: TrackReport, eps: float, delta: float) -> dict:
    """Run-level summary paired with the predicted eps-powers, ready
    for log-log regression across a sweep."""
    if report.deviations is None:
        raise ValueError("theorem_metrics needs a report with an effective "
                         "comparison (deviations)")
    P = report.params()
    a2mu = P[:, 1] ** 2 * P[:, 3]
    out = {
        "eps": float(eps),
        "delta": float(delta),
        "sup_w_h12": float(np.nanmax(report.w_h12)),
        "sup_dev_a": float(np.nanmax(report.deviations[:, 0])),
        "sup_dev_alpha": float(np.nanmax(report.deviations[:, 1])),
        "sup_dev_phi": float(np.nanmax(report.deviations[:, 2])),
        "sup_dev_mu": float(np.nanmax(report.deviations[:, 3])),
        "alpha2mu_drift": float(np.max(np.abs(a2mu - a2mu[0]))),
        "mu_window_ok": bool(report.mu_window_ok),
    }
    for key, p in _DEVIATION_POWERS.items():
        out[f"power_{key}"] = float(p(delta))
    if report.w_l2 is not None:
        rhs = (eps * report.w_l2 + report.w_h12**2 + report.w_h12**3)
        valid = np.isfinite(report.x_norm) & (rhs > 1e-14)
        out["c_fit"] = float(np.max(report.x_norm[valid] / rhs[valid])) \
            if np.any(valid) else float("nan")
    return out
