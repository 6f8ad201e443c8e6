"""Symplectically orthogonal decomposition u = g.(eta + w) and the
per-run bookkeeping built on it: parameter extraction along a
trajectory, the defect vector X of the extracted parameters, and the
scaling summaries used by the sweep regressions.

The Newton solve runs in the lab frame.  For a candidate g the
orthogonality conditions pair u - S(g) against the generator frame at
g.  The frame, its parameter derivatives and the tangents of S are the
family spectrum shape times polynomials of degree <= 2 in xi, so the
residual and its Jacobian are closed-form combinations of six spectral
moments of u and of the family shape: each Newton evaluation costs one
exponential and a few weighted sums over the nonnegative bins, and one
FFT of u at entry is the only transform.  The moving-frame field w is
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
    "Tracker",
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


def _residual_and_jacobian(u_pos: np.ndarray, g: GroupElement,
                           grid: SpectralGrid):
    """Orthogonality residual R_j = omega(u - S(g), E_j(g)) and its
    analytic 4x4 Jacobian in (a, alpha, phi, mu), from six moments,
    with the family shape exp(-xi/mu - i a xi) they were built on.

    With base = S / (-2 pi i), the frame E_j, its parameter derivatives
    and the tangents dS/dg_k are all base times a polynomial of degree
    <= 2 in xi, so every pairing is a fixed combination of
    m_p = sum u conj(base) xi^p and q_p = sum |base|^2 xi^p, p = 0, 1, 2
    (u - S contributes m_p + 2 pi i q_p).
    """
    al, mu = g.alpha, g.mu
    xi = grid.xi_pos
    shape = np.exp(-xi / mu - 1j * g.a * xi)
    base = (np.exp(1j * g.phi) * al) * shape
    bb = base.real * base.real + base.imag * base.imag
    ub = u_pos * np.conj(base)
    xi2 = xi * xi
    m = (complex(np.sum(ub)), complex(np.sum(ub * xi)),
         complex(np.sum(ub * xi2)))
    x0, x1, x2 = (v.real for v in m)
    y0, y1, y2 = (v.imag for v in m)
    tp = 2.0 * np.pi
    Q0, Q1, Q2 = tp * np.sum(bb), tp * np.sum(bb * xi), tp * np.sum(bb * xi2)
    # R_j and J_jk written out in the moments, in units of 2 pi / L
    s = tp / grid.box_length
    R = s * np.array([-(y1 + Q1) / mu, x0, y0 + Q0, x1 / mu])
    J = s * np.array([
        [-x2 / mu, -(y1 + 2 * Q1) / (al * mu), x1 / mu,
         (y1 + Q1 - (y2 + 2 * Q2) / mu) / mu**2],
        [-y1, x0 / al, y0, x1 / mu**2],
        [x1, (y0 + 2 * Q0) / al, -x0, (y1 + 2 * Q1) / mu**2],
        [-y2 / mu, x1 / (al * mu), y1 / mu, (x2 / mu - x1) / mu**2]])
    return R, J, shape


def _newton(u_pos: np.ndarray, g0: GroupElement, grid: SpectralGrid,
            norm_u: float):
    """Damped Newton on the four orthogonality conditions.

    Returns (g, iterations, residual, shape at g).  The residual is the
    moving-frame value max_j |omega(w, e_j eta)|, which differs from
    the lab-frame pairing by the conformal factor alpha^2 mu.
    """
    g = g0
    R, J, shape = _residual_and_jacobian(u_pos, g, grid)
    for it in range(MAX_NEWTON_ITERS + 1):
        scale = g.alpha**2 * g.mu
        resid = float(np.max(np.abs(R))) / scale
        if resid < 1e-11 * norm_u:
            return g, it, resid, shape
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
                Rt, Jt, st = _residual_and_jacobian(u_pos, gt, grid)
                if float(np.linalg.norm(Rt)) <= (1.0 - 0.25 * lam) * nR + 1e-30:
                    accepted = (gt, Rt, Jt, st)
                    break
            lam *= 0.5
        if accepted is None:
            raise TubularNeighborhoodError(
                "Newton stalled: no damped step reduces the orthogonality "
                "residual (field likely outside the tubular neighborhood)")
        g, R, J, shape = accepted
    raise TubularNeighborhoodError(
        f"no convergence in {MAX_NEWTON_ITERS} Newton iterations "
        f"(last residual {resid:.3e})")


def _exact_w_norms(u_pos: np.ndarray, g: GroupElement, shape: np.ndarray,
                   grid: SpectralGrid):
    """L2 and H^{1/2} norms of w evaluated in the lab frame, given the
    family shape at g from the last Newton evaluation.

    The conformal change of variables maps the moving-frame mode zeta
    onto xi = mu * zeta bin by bin, so both norms are plain weighted
    sums over the lab spectrum of u - S(g); no resampling enters.
    """
    xi = grid.xi_pos
    S = (np.exp(1j * g.phi) * g.alpha * (-2j * np.pi)) * shape
    d2 = np.abs(u_pos - S) ** 2
    scale = g.alpha**2 * g.mu * grid.box_length
    wl2 = float(np.sqrt(np.sum(d2) / scale))
    wh12 = float(np.sqrt(np.sum(np.sqrt(1.0 + (xi / g.mu) ** 2) * d2) / scale))
    return wl2, wh12


def _decompose(u: HardyField, g_guess: GroupElement):
    """(g, iterations, residual, |w|_L2, |w|_H12) of u, Newton-iterated
    from g_guess; raises TubularNeighborhoodError when the iteration
    cannot converge or the remainder exceeds the tubular radius, and
    DegenerateParametrizationError when the 4x4 system degenerates."""
    grid = u.grid
    u_pos = u.spectrum[grid.nonneg]
    g, iters, resid, shape = _newton(u_pos, g_guess, grid, u.norm_l2())
    wl2, wh12 = _exact_w_norms(u_pos, g, shape, grid)
    if wh12 > TUBULAR_RADIUS:
        raise TubularNeighborhoodError(
            f"remainder H^(1/2) norm {wh12:.3g} exceeds the tubular radius "
            f"{TUBULAR_RADIUS}")
    return g, iters, resid, wl2, wh12


def reparametrize(u: HardyField, g_guess: GroupElement) -> Decomposition:
    """Unique decomposition u = g.(eta + w) with w symplectically
    orthogonal to all four generator directions along the family
    (errors as in _decompose)."""
    grid = u.grid
    g, iters, resid, wl2, wh12 = _decompose(u, g_guess)
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


class Tracker:
    """Incremental form of track: add(t, u) decomposes one sample as it
    is made and keeps only its parameters and norms, so a streamed run
    (evolve_pde with on_sample=tracker.add) holds no fields; report()
    then measures the run.
    """

    def __init__(self, grid: SpectralGrid, g0: GroupElement = None):
        self.grid = grid
        self.g0 = g0 if g0 is not None else GroupElement(0.0, 1.0, 0.0, 1.0)
        self.rows = []      # (t, g, |w|_L2, |w|_H12, Newton iterations, mass residual)
        self.m0 = None

    def add(self, t: float, u: HardyField) -> None:
        if self.rows:
            t_prev, g_prev = self.rows[-1][:2]
            guess = _warm_guess(g_prev, t - t_prev, self.grid)
        else:
            self.m0, guess = mass(u), self.g0
        try:
            g, it, _, l2, h12 = _decompose(u, guess)
        except (TubularNeighborhoodError, DegenerateParametrizationError) as e:
            raise type(e)(f"t = {t:.6g}: {e}") from e
        fam = g.alpha**2 * family_mass_constant(g.mu, self.grid)
        m_res = abs(g.alpha**2 * g.mu * l2**2 + fam - self.m0) / self.m0
        self.rows.append((t, g, l2, h12, it, m_res))

    def report(self, b: PotentialSpec, eps: float,
               effective_trajectory=None) -> TrackReport:
        """The defect ||X|| from differenced parameter velocities,
        deviations against an effective run sampled at the same times,
        and the mu window."""
        grid = self.grid
        t, g_series, wl2, wh12, iters, m_res = (list(c) for c in zip(*self.rows))
        times = np.array(t, dtype=float)
        n = times.size
        P = np.array([g.as_array() for g in g_series])
        mu0 = P[0, 3]
        mu_ok = bool(np.all((P[:, 3] >= mu0 / 2.0) & (P[:, 3] <= 1.5 * mu0)))

        gdot = _gdot_series(times, P)
        x_norm = np.full(n, np.nan)
        for k in range(n):
            if np.all(np.isfinite(gdot[k])):
                x_norm[k] = x_vector(g_series[k], gdot[k], b, eps, grid=grid).norm()

        deviations = None
        if effective_trajectory is not None:
            if len(effective_trajectory) != n:
                raise ValueError("effective trajectory not aligned with samples")
            E = np.array([s.g.as_array() for s in effective_trajectory])
            deviations = np.abs(P - E)

        return TrackReport(times, g_series, np.array(wh12), x_norm, deviations,
                           np.array(wl2), np.array(m_res), np.array(iters),
                           mu_ok, eps)


def track(pde_trajectory: PdeTrajectory, b: PotentialSpec, eps: float,
          effective_trajectory=None, g0: GroupElement = None) -> TrackReport:
    """Extract (a, alpha, phi, mu) along a stored run and measure the
    Theorem-style quantities: the remainder norms, the defect ||X||
    from differenced parameter velocities, deviations against an
    effective-run comparison, and the family mass identity.  A Tracker
    fed the stored samples in order.
    """
    tracker = Tracker(pde_trajectory.grid, g0)
    for t, u in zip(pde_trajectory.times, pde_trajectory.fields):
        tracker.add(float(t), u)
    return tracker.report(b, eps, effective_trajectory)


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
