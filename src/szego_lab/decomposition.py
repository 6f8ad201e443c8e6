"""Symplectically orthogonal decomposition u = g.(eta + w) and the
per-run bookkeeping built on it: parameter extraction along a
trajectory, the defect vector X of the extracted parameters, and the
scaling summaries used by the sweep regressions.  A tracked run's one
record is a TrackReport of arrays, the (a, alpha, phi, mu) rows among
them; a forked consumer sends it as it is, and with_deviations adds the
deviations against the effective run.

The Newton solve runs in the lab frame.  For a candidate g the
orthogonality conditions pair u - S(g) against the generator frame at
g.  The frame, its parameter derivatives and the tangents of S are the
family spectrum shape times polynomials of degree <= 2 in xi, so the
residual and its Jacobian are closed-form combinations of six spectral
moments of u and of the family shape.  The conjugate shape
exp(-xi/mu + i a xi) comes from soliton_manifold.family_shape, the outer
product of two exponential tables of about sqrt(n/2) points (the bins
form a geometric sequence); the moments of u against it are one product
with the grid's [1, xi, xi^2] table, and the |S|^2 moments are the closed
geometric sums of family_shape_moments.  A field is read through its
spectrum alone, its norm by Parseval, so a PDE sample, which holds its
spectrum, is decomposed with no transform and no grid values.  The
moving-frame field w is materialized once, after convergence, by
reparametrize only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .spectral_core import HardyField, SpectralGrid
from .operators import PotentialSpec, mass  # perfbench's tracer wraps mass here
from .soliton_manifold import (
    MU_MAX,
    GroupElement,
    LieVector,
    act,
    family_mass_constant,
    family_shape,
    family_shape_moments,
    inverse,
    soliton_profile,
)
from .dynamics import (
    PdeTrajectory,
    abc_coefficients,
    abc_pairing,
    free_flow,
    free_rates,
)


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
    with the conjugate family shape exp(-xi/mu + i a xi) they were taken
    against.

    With base = S / (-2 pi i), the frame E_j, its parameter derivatives
    and the tangents dS/dg_k are all base times a polynomial of degree
    <= 2 in xi, so every pairing is a fixed combination of
    m_p = sum u conj(base) xi^p and q_p = sum |base|^2 xi^p, p = 0, 1, 2
    (u - S contributes m_p + 2 pi i q_p).  base is alpha exp(i phi) times
    the shape, so m_p is alpha exp(-i phi) times the moment against the
    conjugate shape, and q_p is alpha^2 family_shape_moments.
    """
    al, mu = g.alpha, g.mu
    cshape = family_shape(-g.a, mu, grid)
    # rows p = 0, 1, 2 of [1, xi, xi^2] against (Re, Im) of u conj(shape)
    M = grid.xi_powers @ (u_pos * cshape).view(float).reshape(-1, 2)
    m = M.view(complex)[:, 0] * (al * np.exp(-1j * g.phi))
    (x0, x1, x2), (y0, y1, y2) = m.real, m.imag
    tp = 2.0 * np.pi
    Q0, Q1, Q2 = (tp * al * al * s for s in family_shape_moments(mu, grid))
    # R_j and J_jk written out in the moments, in units of 2 pi / L
    s = tp / grid.box_length
    R = s * np.array([-(y1 + Q1) / mu, x0, y0 + Q0, x1 / mu])
    J = s * np.array([
        [-x2 / mu, -(y1 + 2 * Q1) / (al * mu), x1 / mu,
         (y1 + Q1 - (y2 + 2 * Q2) / mu) / mu**2],
        [-y1, x0 / al, y0, x1 / mu**2],
        [x1, (y0 + 2 * Q0) / al, -x0, (y1 + 2 * Q1) / mu**2],
        [-y2 / mu, x1 / (al * mu), y1 / mu, (x2 / mu - x1) / mu**2]])
    return R, J, cshape


def _newton(u_pos: np.ndarray, g0: GroupElement, grid: SpectralGrid,
            norm_u: float):
    """Damped Newton on the four orthogonality conditions.

    Returns (g, iterations, residual, conjugate shape at g).  The
    residual is the moving-frame value max_j |omega(w, e_j eta)|, which
    differs from the lab-frame pairing by the conformal factor
    alpha^2 mu.
    """
    g = g0
    R, J, cshape = _residual_and_jacobian(u_pos, g, grid)
    for it in range(MAX_NEWTON_ITERS + 1):
        scale = g.alpha**2 * g.mu
        resid = float(np.max(np.abs(R))) / scale
        if resid < 1e-11 * norm_u:
            return g, it, resid, cshape
        if it == MAX_NEWTON_ITERS:
            break
        # the 2-norm condition number, infinite when J is singular
        sv = np.linalg.svd(J, compute_uv=False)
        if sv[0] > COND_LIMIT * sv[-1] or not sv[-1]:
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
        g, R, J, cshape = accepted
    raise TubularNeighborhoodError(
        f"no convergence in {MAX_NEWTON_ITERS} Newton iterations "
        f"(last residual {resid:.3e})")


def _exact_w_norms(u_pos: np.ndarray, g: GroupElement, cshape: np.ndarray,
                   grid: SpectralGrid):
    """L2 and H^{1/2} norms of w evaluated in the lab frame, given the
    conjugate family shape at g from the last Newton evaluation.

    The conformal change of variables maps the moving-frame mode zeta
    onto xi = mu * zeta bin by bin, so both norms are plain weighted
    sums over the lab spectrum of u - S(g); no resampling enters.
    """
    xi = grid.xi_pos
    # S = c shape is conj(conj(c) cshape), bitwise family_spectrum at g
    d = u_pos - np.conj((np.exp(-1j * g.phi) * g.alpha * (2j * np.pi)) * cshape)
    d2 = d.real ** 2 + d.imag ** 2
    scale = g.alpha**2 * g.mu * grid.box_length
    wl2 = float(np.sqrt(np.sum(d2) / scale))
    wh12 = float(np.sqrt(np.sum(np.sqrt(1.0 + (xi / g.mu) ** 2) * d2) / scale))
    return wl2, wh12


def _decompose(u: HardyField, g_guess: GroupElement):
    """(g, iterations, residual, |w|_L2, |w|_H12, |u|_L2^2 by Parseval)
    of u's spectrum, Newton-iterated from g_guess; raises
    TubularNeighborhoodError when the iteration cannot converge or the
    remainder exceeds the tubular radius, and
    DegenerateParametrizationError when the 4x4 system degenerates."""
    grid = u.grid
    spec = u.spectrum
    m = float(spec.view(float) @ spec.view(float)) / grid.box_length
    g, iters, resid, cshape = _newton(spec, g_guess, grid, math.sqrt(m))
    wl2, wh12 = _exact_w_norms(spec, g, cshape, grid)
    if wh12 > TUBULAR_RADIUS:
        raise TubularNeighborhoodError(
            f"remainder H^(1/2) norm {wh12:.3g} exceeds the tubular radius "
            f"{TUBULAR_RADIUS}")
    return g, iters, resid, wl2, wh12, m


def reparametrize(u: HardyField, g_guess: GroupElement) -> Decomposition:
    """Unique decomposition u = g.(eta + w) with w symplectically
    orthogonal to all four generator directions along the family
    (errors as in _decompose)."""
    grid = u.grid
    g, iters, resid, wl2, wh12, _ = _decompose(u, g_guess)
    eta = soliton_profile(GroupElement(0.0, 1.0, 0.0, 1.0), grid)
    pulled = act(inverse(g), u)
    w = HardyField(grid, pulled.values - eta.values)
    return Decomposition(g, w, resid, iters, wl2, wh12)


def x_vector(g: GroupElement, gdot, b: PotentialSpec, eps: float,
             grid: SpectralGrid = None) -> LieVector:
    """Defect of the parameter velocities against the effective flow:

        X1 = (da - c) mu + 2B
        X2 = dalpha/alpha - k C
        X3 = dphi - w + A + B
        X4 = dmu/mu + 2C,

    with (c, w, k) = dynamics.free_rates(g, grid) and the coefficients of
    the same route as dynamics.effective_rhs, whose velocities it
    vanishes on; the continuum and grid routes agree to O(1/L).
    """
    da, dal, dphi, dmu = (float(v) for v in np.asarray(gdot, dtype=float))
    co = abc_coefficients(g, b, eps) if grid is None \
        else abc_pairing(g, b, eps, grid)
    c, w, k = free_rates(g, grid)
    return LieVector((da - c) * g.mu + 2.0 * co.B, dal / g.alpha - k * co.C,
                     dphi - w + co.A + co.B, dmu / g.mu + 2.0 * co.C)


@dataclass(frozen=True)
class TrackReport:
    """Per-sample record of a tracked run, as arrays: what Tracker.report
    assembles, inline or in track's forked consumer."""

    times: np.ndarray
    params: np.ndarray                 # (n, 4): a, alpha, phi, mu
    w_h12: np.ndarray
    x_norm: np.ndarray
    deviations: np.ndarray = None      # |g - g_effective|, columns a,alpha,phi,mu
    w_l2: np.ndarray = None
    mass_residual: np.ndarray = None   # family mass identity, relative to mass(u0)
    newton_iters: np.ndarray = None
    mu_window_ok: bool = True


def _stencil_end(times: np.ndarray) -> tuple:
    """(last, h) of a whole series for _gdot_row: h its first interval, and
    `last` n when the series is uniform, n - 1 when its final interval is
    not h (the last sample of a run whose horizon is off the stride); 0 for
    a series too short for any stencil."""
    n = times.size
    if n < 3:
        return 0, 1.0
    h = float(times[1] - times[0])
    uniform = np.allclose(np.diff(times), h, rtol=0, atol=1e-12 * max(h, 1.0))
    return (n if uniform else n - 1), h


def _gdot_row(params, k: int, last: int, h: float) -> np.ndarray:
    """Row k of the fourth-order differences of the parameter rows params
    at spacing h, over a series whose stencils end at `last` (_stencil_end).

    Centered five-point stencils inside, offset five-point stencils at
    the two rows next to the ends (uniform O(h^4) error keeps the
    defect quotient from being polluted right where the remainder is
    still small), NaN at the endpoints themselves.  Three-point
    fallback only when the series is too short for any five-point rule.
    The row only reads `last` through these choices, so row 1 is settled
    once last >= 5 and row k >= 2 once last >= k + 3, however the
    series goes on.
    """
    if k == 0 or k >= last - 1:
        return np.full(4, np.nan)
    if 2 <= k <= last - 3:
        return (params[k - 2] - 8.0 * params[k - 1]
                + 8.0 * params[k + 1] - params[k + 2]) / (12.0 * h)
    if k == 1 and last >= 5:
        return (-3.0 * params[0] - 10.0 * params[1] + 18.0 * params[2]
                - 6.0 * params[3] + params[4]) / (12.0 * h)
    if k == last - 2 and last >= 5:
        return (-params[k - 3] + 6.0 * params[k - 2]
                - 18.0 * params[k - 1] + 10.0 * params[k]
                + 3.0 * params[k + 1]) / (12.0 * h)
    return (params[k + 1] - params[k - 1]) / (2.0 * h)


class Tracker:
    """Incremental form of track: add(t, u) decomposes one sample's
    spectrum as it is made and keeps only its parameters and norms, so a
    streamed run (evolve_pde with on_sample=tracker.add) holds no fields
    and never builds their values.  add also measures the defect ||X||
    of every row whose stencil is settled, three samples behind the
    newest (_gdot_row); report() measures the last rows and assembles
    the run.
    """

    def __init__(self, grid: SpectralGrid, b: PotentialSpec, eps: float,
                 g0: GroupElement = None):
        self.grid, self.b, self.eps = grid, b, eps
        self.g0 = g0 if g0 is not None else GroupElement(0.0, 1.0, 0.0, 1.0)
        # one list per TrackReport column; x_norm holds the leading rows
        # whose stencil is settled
        self.times, self.params, self.w_l2, self.w_h12 = [], [], [], []
        self.newton_iters, self.mass_residual, self.x_norm = [], [], []
        self.m0 = None

    def add(self, t: float, u: HardyField) -> None:
        t = float(t)
        if self.times:
            # the free rates; the O(eps dt) error is far inside the Newton basin
            guess = free_flow(GroupElement(*self.params[-1]), t - self.times[-1],
                              self.grid)
        else:
            guess = self.g0
        try:
            g, it, _, l2, h12, m = _decompose(u, guess)
        except (TubularNeighborhoodError, DegenerateParametrizationError) as e:
            raise type(e)(f"t = {t:.6g}: {e}") from e
        if self.m0 is None:
            self.m0 = m
        fam = g.alpha**2 * family_mass_constant(g.mu, self.grid)
        self.times.append(t)
        self.params.append(g.as_array())
        self.w_l2.append(l2)
        self.w_h12.append(h12)
        self.newton_iters.append(it)
        self.mass_residual.append(
            abs(g.alpha**2 * g.mu * l2**2 + fam - self.m0) / self.m0)
        n = len(self.times)
        if n >= 6:   # the series ends at n - 1 or later: rows < n - 3 are settled
            h = self.times[1] - self.times[0]
            while len(self.x_norm) < n - 3:
                self.x_norm.append(self._defect(len(self.x_norm), n - 1, h))

    def _defect(self, k: int, last: int, h: float) -> float:
        """||X|| of row k, from its _gdot_row; NaN where that is not finite."""
        gdot = _gdot_row(self.params, k, last, h)
        if not np.all(np.isfinite(gdot)):
            return math.nan
        return x_vector(GroupElement(*self.params[k]), gdot, self.b, self.eps,
                        grid=self.grid).norm()

    def report(self) -> TrackReport:
        """The columns as arrays, with the defect ||X|| of the rows whose
        stencils the run's end settles, and the mu window; no deviations
        (with_deviations)."""
        times = np.array(self.times, dtype=float)
        n = times.size
        P = np.array(self.params)
        mu0 = P[0, 3]
        mu_ok = bool(np.all((P[:, 3] >= mu0 / 2.0) & (P[:, 3] <= 1.5 * mu0)))
        last, h = _stencil_end(times)
        x_norm = np.array(self.x_norm + [self._defect(k, last, h)
                                         for k in range(len(self.x_norm), n)])
        return TrackReport(times, P, np.array(self.w_h12), x_norm, None,
                           np.array(self.w_l2), np.array(self.mass_residual),
                           np.array(self.newton_iters), mu_ok)


def with_deviations(report: TrackReport, effective_trajectory) -> TrackReport:
    """report with its deviations |g - g_effective| against an effective
    run sampled at the same times."""
    if len(effective_trajectory) != report.times.size:
        raise ValueError("effective trajectory not aligned with samples")
    E = np.array([s.g.as_array() for s in effective_trajectory])
    return replace(report, deviations=np.abs(report.params - E))


def track(pde_trajectory: PdeTrajectory, b: PotentialSpec, eps: float,
          effective_trajectory=None, g0: GroupElement = None) -> TrackReport:
    """Extract (a, alpha, phi, mu) along a stored run and measure the
    Theorem-style quantities: the remainder norms, the defect ||X||
    from differenced parameter velocities, deviations against an
    effective-run comparison, and the family mass identity.  A Tracker
    fed the stored samples in order.
    """
    tracker = Tracker(pde_trajectory.grid, b, eps, g0)
    for t, u in zip(pde_trajectory.times, pde_trajectory.fields):
        tracker.add(float(t), u)
    report = tracker.report()
    if effective_trajectory is None:
        return report
    return with_deviations(report, effective_trajectory)


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
    P = report.params
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
        "max_newton_iters": int(report.newton_iters.max()),
        "max_mass_identity_residual": float(report.mass_residual.max()),
    }
    for key, p in _DEVIATION_POWERS.items():
        out[f"power_{key}"] = float(p(delta))
    rhs = (eps * report.w_l2 + report.w_h12**2 + report.w_h12**3)
    valid = np.isfinite(report.x_norm) & (rhs > 1e-14)
    out["c_fit"] = float(np.max(report.x_norm[valid] / rhs[valid])) \
        if np.any(valid) else float("nan")
    return out
