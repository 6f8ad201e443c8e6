"""Time integration of the perturbed flow and of the effective
parameter dynamics, plus the coefficient integrals coupling them.

Two routes to the coefficients A, B, C coexist deliberately.  The
quadrature route evaluates the printed integrals of the continuum
theory and is what effective_rhs and x_vector use by default; it makes
the pair (effective_rhs, x_vector) cancel algebraically.  The pairing
route extracts the same coefficients from the symplectic response of
the discrete soliton family to the forcing; it differs by O(1/L) grid
corrections and is what the tracked-run comparisons use, because the
grid family drifts at its own exact rate (family_drift_rate) rather
than the continuum alpha^2 mu / 2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from .spectral_core import (
    HardyField,
    SpectralGrid,
    from_spectrum,
    project_spectrum,
    spectrum,
)
from .operators import (
    PotentialSpec,
    hamiltonian,
    linearized_apply,
    mass,
    nonlinear_remainder,
)
from .soliton_manifold import (
    GroupElement,
    LieVector,
    family_drift_rate,
    family_spectrum,
    generator_spectra,
    lie_apply,
    mass_log_slope,
    tangent_frame_spectra,
)

__all__ = [
    "EffectiveState",
    "CoefficientTriple",
    "DivergenceError",
    "PdeTrajectory",
    "abc_coefficients",
    "abc_pairing",
    "pde_rhs",
    "evolve_pde",
    "effective_rhs",
    "evolve_effective",
    "free_flow",
    "w_equation_rhs",
]


class DivergenceError(RuntimeError):
    """The explicit integrator produced a non-finite field."""


@dataclass(frozen=True)
class EffectiveState:
    t: float
    g: GroupElement


@dataclass(frozen=True)
class CoefficientTriple:
    """Potential-response coefficients, all O(eps)."""

    A: float
    B: float
    C: float

    def as_array(self) -> np.ndarray:
        return np.array([self.A, self.B, self.C])


def _window(b: PotentialSpec, g: GroupElement, n_quad: int = 1 << 17):
    lo, hi = b.support_hint
    pad = 8.0 / g.mu
    y = np.linspace(lo - pad, hi + pad, n_quad)
    return y, y[1] - y[0]


def _trapz(f: np.ndarray, dy: float) -> float:
    return float(dy * (np.sum(f) - 0.5 * (f[0] + f[-1])))


def abc_coefficients(g: GroupElement, b: PotentialSpec, eps: float,
                     n_quad: int = 1 << 17) -> CoefficientTriple:
    """The coefficient integrals
    A = (eps/pi) int b(a + x/mu) |eta|^2 dx,
    B = (eps/pi) int b'(a + x/mu) x |eta|^2 dx / mu,
    C = (eps/pi) int b'(a + x/mu) |eta|^2 dx / mu,
    computed in the variable y = a + x/mu so the samples concentrate
    where the potential actually varies.
    """
    if eps == 0.0:
        return CoefficientTriple(0.0, 0.0, 0.0)
    if b.l1_db == 0.0:
        # constant symbol: only the mean survives, and exactly
        return CoefficientTriple(eps * float(b.eval_b(np.zeros(1))[0]), 0.0, 0.0)
    a, mu = g.a, g.mu
    if b.support_hint is not None:
        y, dy = _window(b, g, n_quad)
        x = mu * (y - a)
        dens = mu / (x**2 + 1.0)          # |eta(mu(y-a))|^2 * mu
        bv = np.asarray(b.eval_b(y), dtype=float)
        dbv = np.asarray(b.eval_db(y), dtype=float)
        A = (eps / np.pi) * _trapz(bv * dens, dy)
        B = (eps / np.pi) * _trapz(dbv * (y - a) * dens, dy)
        C = (eps / np.pi) * _trapz(dbv * dens / mu, dy)
    else:
        # no support information; fall back to a wide fixed window
        y = np.linspace(a - 64.0, a + 64.0, n_quad)
        dy = y[1] - y[0]
        x = mu * (y - a)
        dens = mu / (x**2 + 1.0)
        A = (eps / np.pi) * _trapz(np.asarray(b.eval_b(y), dtype=float) * dens, dy)
        dbv = np.asarray(b.eval_db(y), dtype=float)
        B = (eps / np.pi) * _trapz(dbv * (y - a) * dens, dy)
        C = (eps / np.pi) * _trapz(dbv * dens / mu, dy)
    return CoefficientTriple(A, B, C)


def _forcing_spectrum(grid: SpectralGrid, b: PotentialSpec, eps: float,
                      S: np.ndarray) -> np.ndarray:
    bv = b.on_grid(grid)
    vals = bv * from_spectrum(grid, S)
    return -1j * eps * project_spectrum(grid, spectrum(grid, vals))


def abc_pairing(g: GroupElement, b: PotentialSpec, eps: float,
                grid: SpectralGrid) -> CoefficientTriple:
    """Grid-consistent coefficients from the symplectic response.

    The potential forcing is paired against the tangent frame of the
    discrete family at (a, 1, 0, mu); the induced parameter rates are
    then read back through the same relations that define A, B, C in
    the continuum (B from the translation channel, C from the scale
    channel, A from the phase channel).  Converges to abc_coefficients
    as L grows.
    """
    if eps == 0.0:
        return CoefficientTriple(0.0, 0.0, 0.0)
    probe = GroupElement(g.a, 1.0, 0.0, g.mu)
    S = family_spectrum(probe, grid)
    Ff = _forcing_spectrum(grid, b, eps, S)
    T = tangent_frame_spectra(probe, grid)
    Om = np.zeros((4, 4))
    r = np.zeros(4)
    for k in range(4):
        r[k] = np.sum(np.imag(Ff * np.conj(T[k]))) / grid.box_length
        for l in range(k + 1, 4):
            v = np.sum(np.imag(T[k] * np.conj(T[l]))) / grid.box_length
            Om[k, l] = v
            Om[l, k] = -v
    rates = -np.linalg.solve(Om, r)
    B = -probe.mu * rates[0] / 2.0
    C = -rates[3] / (2.0 * probe.mu)
    A = -rates[2] - B
    return CoefficientTriple(A, B, C)


def pde_rhs(u: HardyField, b: PotentialSpec = None, eps: float = 0.0) -> HardyField:
    """-i (P(|u|^2 u) + eps T_b u), the right-hand side of the flow."""
    grid = u.grid
    vals = np.abs(u.values) ** 2 * u.values
    if eps != 0.0:
        vals = vals + eps * b.on_grid(grid) * u.values
    spec = -1j * project_spectrum(grid, spectrum(grid, vals))
    return HardyField(grid, from_spectrum(grid, spec), _spectrum=spec)


@dataclass(frozen=True)
class PdeTrajectory:
    """Sampled run of the perturbed flow with its conservation report."""

    grid: SpectralGrid
    times: np.ndarray
    fields: list
    mass_drift: float
    hamiltonian_drift: float
    eps: float
    dt: float


def evolve_pde(u0: HardyField, b: PotentialSpec = None, eps: float = 0.0,
               t_final: float = 1.0, dt: float = 1e-3,
               stride: int = 10) -> PdeTrajectory:
    """Classical fourth-order integration of pde_rhs.

    The Hardy projection is applied inside every stage evaluation; the
    nonlinearity has no derivatives of u, so there is no step-size
    stability constraint beyond accuracy.  Samples are kept every
    `stride` steps (plus the final step).
    """
    grid = u0.grid
    n_steps = int(round(t_final / dt))
    if abs(n_steps * dt - t_final) > 1e-9 * max(1.0, t_final):
        raise ValueError("t_final must be an integer number of steps")
    bv = b.on_grid(grid) if (b is not None and eps != 0.0) else None
    neg = ~grid.nonneg

    def rhs(spec_u):
        u = from_spectrum(grid, spec_u)
        vals = np.abs(u) ** 2 * u
        if bv is not None:
            vals += eps * bv * u
        out = spectrum(grid, vals)
        out[neg] = 0.0
        return -1j * out

    U = u0.spectrum.copy()
    U[neg] = 0.0
    times = [0.0]
    fields = [HardyField(grid, from_spectrum(grid, U.copy()), _spectrum=U.copy())]
    m0 = mass(fields[0])
    h0 = hamiltonian(fields[0], b, eps)
    m_drift = 0.0
    h_drift = 0.0
    h_scale = max(abs(h0), 1e-30)
    for k in range(1, n_steps + 1):
        k1 = rhs(U)
        k2 = rhs(U + 0.5 * dt * k1)
        k3 = rhs(U + 0.5 * dt * k2)
        k4 = rhs(U + dt * k3)
        U = U + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all(np.isfinite(U)):
            raise DivergenceError(f"non-finite field at step {k} (t={k * dt:.6g})")
        if k % stride == 0 or k == n_steps:
            f = HardyField(grid, from_spectrum(grid, U.copy()), _spectrum=U.copy())
            times.append(k * dt)
            fields.append(f)
            m_drift = max(m_drift, abs(mass(f) - m0) / m0)
            h_drift = max(h_drift, abs(hamiltonian(f, b, eps) - h0) / h_scale)
    return PdeTrajectory(grid, np.array(times), fields, m_drift, h_drift, eps, dt)


def effective_rhs(s: EffectiveState, b: PotentialSpec, eps: float,
                  grid: SpectralGrid = None) -> np.ndarray:
    """Parameter velocities (da, dalpha, dphi, dmu) of the averaged flow.

    Default is the continuum system
        da     = alpha^2 mu / 2 - 2B/mu
        dalpha = alpha C
        dphi   = -alpha^2 mu^2 / 4 - A - B
        dmu    = -2 mu C,
    which conserves alpha^2 mu identically.  With a grid, the free
    rates are replaced by the exact discrete-family values and the
    amplitude channel picks up the finite-box mass correction, so that
    the flow stays on the discrete family instead of the continuum one.
    """
    g = s.g
    al, mu = g.alpha, g.mu
    if grid is None:
        co = abc_coefficients(g, b, eps)
        return np.array([
            0.5 * al**2 * mu - 2.0 * co.B / mu,
            al * co.C,
            -0.25 * al**2 * mu**2 - co.A - co.B,
            -2.0 * mu * co.C,
        ])
    co = abc_pairing(g, b, eps, grid)
    c = family_drift_rate(al, mu, grid)
    return np.array([
        c - 2.0 * co.B / mu,
        al * mass_log_slope(mu, grid) * co.C,
        -c**2 / al**2 - co.A - co.B,
        -2.0 * mu * co.C,
    ])


def evolve_effective(s0: EffectiveState, b: PotentialSpec, eps: float,
                     t_final: float, t_eval=None, grid: SpectralGrid = None,
                     rtol: float = 1e-10, atol: float = 1e-12) -> list:
    """Adaptive embedded 4(5) integration of effective_rhs."""
    def rhs(t, y):
        st = EffectiveState(t, GroupElement(y[0], y[1], y[2], y[3]))
        return effective_rhs(st, b, eps, grid)

    y0 = s0.g.as_array()
    sol = solve_ivp(rhs, (s0.t, s0.t + t_final), y0, method="RK45",
                    t_eval=t_eval, rtol=rtol, atol=atol, dense_output=False)
    if not sol.success:
        raise RuntimeError(f"effective integration failed: {sol.message}")
    return [EffectiveState(float(t), GroupElement(*sol.y[:, i]))
            for i, t in enumerate(sol.t)]


def free_flow(g0: GroupElement, t: float, grid: SpectralGrid = None) -> GroupElement:
    """Unperturbed soliton motion: uniform translation and phase rotation.

    With a grid, the translation speed is the exact discrete-family
    rate; otherwise the continuum alpha^2 mu / 2 and -alpha^2 mu^2 / 4.
    """
    if grid is None:
        da = 0.5 * g0.alpha**2 * g0.mu
        dphi = -0.25 * g0.alpha**2 * g0.mu**2
    else:
        da = family_drift_rate(g0.alpha, g0.mu, grid)
        dphi = -da**2 / g0.alpha**2
    return GroupElement(g0.a + da * t, g0.alpha, g0.phi + dphi * t, g0.mu)


def w_equation_rhs(w: HardyField, g: GroupElement, gdot, b: PotentialSpec,
                   eps: float) -> HardyField:
    """Right-hand side of the remainder equation in the moving frame:

        dw/dt = -X.eta + (forcing block on eta)
                -X.w   + (forcing block on w)
                + i alpha^2 mu^2 (L w - N w),

    with the forcing block  -i eps P(b(a + x/mu) .) + 2B e1 . - C e2 .
    + (A+B) e3 . + 2C e4 .  The coefficients, the free rates inside X,
    and the generator fields of eta are all taken grid-consistent, so
    the expression vanishes identically on the exact discrete flow.
    """
    from .decomposition import x_vector  # runtime import breaks the module cycle

    grid = w.grid
    al, mu = g.alpha, g.mu
    co = abc_pairing(g, b, eps, grid) if eps != 0.0 else CoefficientTriple(0, 0, 0)
    X = x_vector(g, gdot, b, eps, grid=grid, coeffs=co)
    bsh = np.asarray(b.eval_b(g.a + grid.x / mu), dtype=float) if eps != 0.0 else None

    # eta and its generator directions, all from closed-form spectra
    E = generator_spectra(grid)
    eta_vals = from_spectrum(grid, E[1])

    spec_total = np.zeros(grid.n_points, dtype=complex)
    # eta block
    for c_j, Ej in zip((-X.y1 + 2 * co.B, -X.y2 - co.C,
                        -X.y3 + co.A + co.B, -X.y4 + 2 * co.C), E):
        spec_total += c_j * Ej
    vals = from_spectrum(grid, spec_total)
    if eps != 0.0:
        vals = vals - 1j * eps * bsh * (eta_vals + w.values)
    # w blocks
    Yw = LieVector(-X.y1 + 2 * co.B, -X.y2 - co.C,
                   -X.y3 + co.A + co.B, -X.y4 + 2 * co.C)
    vals = vals + lie_apply(Yw, w).values
    lw = linearized_apply(w)
    nw = nonlinear_remainder(w)
    vals = vals + 1j * al**2 * mu**2 * (lw.values - nw.values)
    spec = project_spectrum(grid, spectrum(grid, vals))
    return HardyField(grid, from_spectrum(grid, spec), _spectrum=spec)
