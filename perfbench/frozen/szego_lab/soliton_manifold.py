"""The symmetry group, its Lie frame, and the soliton family.

Group elements g = (a, alpha, phi, mu) act on fields by
(g.u)(x) = exp(i phi) alpha mu u(mu (x - a)).  The orbit of the ground
state eta = 1/(x+i) is the soliton manifold; its tangent frame, the
symplectic form restricted to it, and the Hamiltonian vector field
construction all live here.

On the periodic grid the family member for g is defined by its
geometric spectrum
    S_hat(xi) = exp(i phi) alpha (-2 pi i) exp(-xi/mu - i a xi),
sampled on the nonnegative bins.  This makes the family exactly
invariant under the discrete flow machinery: the free translation rate
and the family mass pick up explicit 1/L corrections (see
family_drift_rate, family_mass_constant) that converge to the
continuum values alpha^2 mu / 2 and pi alpha^2 mu.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import CubicSpline

from .spectral_core import (
    HardyField,
    SpectralGrid,
    from_spectrum,
    pair_spectra,
    project_spectrum,
    spectrum,
    szego_project,
    symplectic_pair,
)

__all__ = [
    "MU_MIN",
    "MU_MAX",
    "GroupElement",
    "LieVector",
    "compose",
    "identity",
    "inverse",
    "act",
    "soliton_profile",
    "lie_apply",
    "omega_eta_matrix",
    "manifold_project",
    "hamiltonian_field_on_M",
    "omega_on_M",
    "generator_spectra",
    "tangent_frame_spectra",
    "frame_gram",
    "family_spectrum",
    "family_mass_constant",
    "family_drift_rate",
    "mass_log_slope",
    "default_grid",
]

# extreme scales alias on a fixed grid; the theorem regime keeps mu
# near mu0 anyway
MU_MIN = 1.0 / 64.0
MU_MAX = 64.0

_DEFAULT_GRID = None


def default_grid() -> SpectralGrid:
    global _DEFAULT_GRID
    if _DEFAULT_GRID is None:
        _DEFAULT_GRID = SpectralGrid(8192, 256.0)
    return _DEFAULT_GRID


@dataclass(frozen=True)
class GroupElement:
    """Point of the symmetry group (translation, amplitude, phase, scale).

    The phase is stored as a raw real so that trajectories of group
    elements stay continuous; phi_principal gives the representative in
    [0, 2 pi) when only the group point matters.
    """

    a: float
    alpha: float
    phi: float
    mu: float

    def __post_init__(self):
        if not (self.alpha > 0):
            raise ValueError("alpha must be positive")
        if not (MU_MIN <= self.mu <= MU_MAX):
            raise ValueError(f"mu must lie in [{MU_MIN}, {MU_MAX}]")

    @property
    def phi_principal(self) -> float:
        return self.phi % (2 * math.pi)

    def as_array(self) -> np.ndarray:
        return np.array([self.a, self.alpha, self.phi, self.mu], dtype=float)


@dataclass(frozen=True)
class LieVector:
    """Coefficients in the generator basis (-d/dx, 1, i, d/dx(x .))."""

    y1: float
    y2: float
    y3: float
    y4: float

    def as_array(self) -> np.ndarray:
        return np.array([self.y1, self.y2, self.y3, self.y4], dtype=float)

    def norm(self) -> float:
        return float(np.linalg.norm(self.as_array()))


def identity() -> GroupElement:
    return GroupElement(0.0, 1.0, 0.0, 1.0)


def compose(g: GroupElement, gp: GroupElement) -> GroupElement:
    """Group law matching act(compose(g, gp), u) = act(g, act(gp, u))."""
    return GroupElement(g.a + gp.a / g.mu, g.alpha * gp.alpha,
                        g.phi + gp.phi, g.mu * gp.mu)


def inverse(g: GroupElement) -> GroupElement:
    return GroupElement(-g.a * g.mu, 1.0 / g.alpha, -g.phi, 1.0 / g.mu)


def family_spectrum(g: GroupElement, grid: SpectralGrid) -> np.ndarray:
    """Geometric spectrum of the discrete family member for g."""
    spec = np.zeros(grid.n_points, dtype=complex)
    xi = grid.xi_pos
    spec[grid.nonneg] = (np.exp(1j * g.phi) * g.alpha * (-2j * np.pi)
                         * np.exp(-xi / g.mu - 1j * xi * g.a))
    return spec


def soliton_profile(g: GroupElement, grid: SpectralGrid = None) -> HardyField:
    """Family member for g; pointwise it is exp(i phi) alpha/(x - a + i/mu).

    Synthesized from the geometric spectrum, so it is the exact orbit
    point of the discrete family; sampling the rational profile instead
    agrees up to the 1/L tail error.
    """
    if grid is None:
        grid = default_grid()
    spec = family_spectrum(g, grid)
    return HardyField(grid, from_spectrum(grid, spec), orbit=g, _spectrum=spec)


def _resample_spectrum(grid: SpectralGrid, spec: np.ndarray, mu: float):
    """Evaluate a Hardy spectrum at xi/mu by cubic interpolation in xi."""
    xi = grid.xi_pos
    interp = CubicSpline(xi, spec[grid.nonneg], extrapolate=False)
    target = xi / mu
    out = interp(target)
    out[np.isnan(out)] = 0.0
    if mu < 1.0:
        # source frequencies above mu*xi_max fall outside the band
        lost = np.sum(np.abs(spec[grid.nonneg][xi > mu * xi[-1]]) ** 2)
        total = np.sum(np.abs(spec) ** 2)
        if total > 0 and lost > 1e-16 * total:
            warnings.warn("rescaled field exceeds the band limit; "
                          f"{math.sqrt(lost / total):.2e} of its spectral "
                          "mass was discarded")
    return out


def act(g: GroupElement, u: HardyField) -> HardyField:
    """Group action on a field.

    Fields tagged as family members are re-synthesized from the closed
    form, which keeps the orbit exact; everything else goes through the
    spectral rescale exp(i phi) alpha exp(-i a xi) u_hat(xi / mu).
    """
    if u.orbit is not None:
        return soliton_profile(compose(g, u.orbit), u.grid)
    grid = u.grid
    out = np.zeros(grid.n_points, dtype=complex)
    out[grid.nonneg] = (np.exp(1j * g.phi) * g.alpha
                        * np.exp(-1j * grid.xi_pos * g.a)
                        * _resample_spectrum(grid, u.spectrum, g.mu))
    return HardyField(grid, from_spectrum(grid, out), _spectrum=out)


def lie_apply(Y: LieVector, u: HardyField) -> HardyField:
    """Infinitesimal action y1 (-u') + y2 u + y3 iu + y4 (u + x u').

    The derivative is spectral; the x-multiplication uses the box
    coordinate, so fields with slowly decaying tails pick up an O(1/L)
    wrap artifact (the analytic generator frame in generator_spectra is
    the right tool near eta).
    """
    grid = u.grid
    du_spec = 1j * grid.xi * u.spectrum
    du = from_spectrum(grid, du_spec)
    vals = (-Y.y1 * du + (Y.y2 + 1j * Y.y3) * u.values
            + Y.y4 * (u.values + grid.x * du))
    spec = project_spectrum(grid, spectrum(grid, vals))
    return HardyField(grid, from_spectrum(grid, spec), _spectrum=spec)


def generator_spectra(grid: SpectralGrid, g: GroupElement = None) -> list:
    """Spectra of the four fields act(g, e_j eta), in closed form.

    At the identity these are the generator fields
    (eta^2, eta, i eta, i eta^2-type); their spectra are polynomials in
    xi times exp(-xi).
    """
    if g is None:
        g = identity()
    xi = grid.xi_pos
    z = xi / g.mu
    base = np.exp(1j * g.phi) * g.alpha * np.exp(-z - 1j * xi * g.a)
    shapes = (-2 * np.pi * z, -2j * np.pi * np.ones_like(z),
              2 * np.pi * np.ones_like(z), -2j * np.pi * z)
    out = []
    for s in shapes:
        spec = np.zeros(grid.n_points, dtype=complex)
        spec[grid.nonneg] = base * s
        out.append(spec)
    return out


def tangent_frame_spectra(g: GroupElement, grid: SpectralGrid) -> list:
    """Spectra of the coordinate tangent fields d(g.eta)/d(a,alpha,phi,mu)."""
    S = family_spectrum(g, grid)
    xi = grid.xi
    return [-1j * xi * S, S / g.alpha, 1j * S, (xi / g.mu**2) * S]


def _omega_spec(grid, su, sv) -> float:
    return pair_spectra(grid, su, sv).imag


_GRAM_CACHE = {}


def frame_gram(grid: SpectralGrid, g: GroupElement = None) -> np.ndarray:
    """Symplectic Gram matrix omega(E_j, E_k) of the generator frame at g."""
    if g is None:
        g = identity()
    key = (grid.n_points, grid.box_length, g)
    cached = _GRAM_CACHE.get(key)
    if cached is not None:
        return cached
    E = generator_spectra(grid, g)
    G = np.zeros((4, 4))
    for j in range(4):
        for k in range(j + 1, 4):
            v = _omega_spec(grid, E[j], E[k])
            G[j, k] = v
            G[k, j] = -v
    _GRAM_CACHE[key] = G
    return G


def omega_eta_matrix(grid: SpectralGrid = None) -> np.ndarray:
    """Pairings omega(e_i eta, e_j eta); the continuum values are
    (1,2) -> -pi/2, (1,3) -> 0, (1,4) -> -pi/2, (2,3) -> -pi,
    (2,4) -> 0, (3,4) -> pi/2.

    The generator fields have closed rational forms (eta^2, eta,
    i eta, i eta^2); they are sampled pointwise so the entries carry
    the 1/L tail error of the box, not the larger zero-bin offset of
    the periodized family (see the family mass constant).
    """
    if grid is None:
        grid = default_grid()
    x = grid.x
    eta = 1.0 / (x + 1j)
    eta2 = eta * eta
    fields = [szego_project(f, grid)
              for f in (eta2, eta, 1j * eta, 1j * eta2)]
    M = np.zeros((4, 4))
    for i in range(4):
        for j in range(i + 1, 4):
            v = symplectic_pair(fields[i], fields[j])
            M[i, j] = v
            M[j, i] = -v
    return M


def manifold_project(u: HardyField, g: GroupElement = None) -> LieVector:
    """Symplectic projection coefficients of u onto the generator frame.

    Solves the frame Gram system, so P(Y . eta) = Y holds to roundoff on
    the grid; as L grows the weights converge to the continuum
    combinations (2/pi)(omega(u, e2 eta) - 2 omega(u, e4 eta)) etc.
    """
    grid = u.grid
    G = frame_gram(grid, g)
    E = generator_spectra(grid, g)
    su = u.spectrum
    r = np.array([_omega_spec(grid, su, Ej) for Ej in E])
    y = np.linalg.solve(G.T, r)
    return LieVector(*y)


def hamiltonian_field_on_M(df, g: GroupElement) -> LieVector:
    """Hamiltonian vector field on the family from a differential.

    df = (f_a, f_alpha, f_phi, f_mu) are the partials of a function of
    the four parameters; the returned coefficients are the unique
    solution of omega|_M(. , X) = df.
    """
    al, mu = g.alpha, g.mu
    if al <= 0 or mu <= 0:
        raise ValueError("alpha and mu must be positive")
    f_a, f_al, f_phi, f_mu = df
    c2 = 2.0 / (al**2 * mu**2 * np.pi)
    c1 = 2.0 / (al**2 * mu * np.pi)
    return LieVector(
        -c2 * (-2 * mu * f_mu + al * f_al),
        c2 * (al * f_a + al * mu * f_phi),
        c1 * (mu * f_mu - al * f_al),
        -c1 * (mu * f_phi + 2 * f_a),
    )


def omega_on_M(g: GroupElement) -> np.ndarray:
    """Coefficient matrix of the restricted symplectic form at g.

    Entry (i, j) multiplies dx_i wedge dx_j in coordinate order
    (a, alpha, phi, mu); at the identity this reduces to
    omega_eta_matrix().
    """
    al, mu = g.alpha, g.mu
    s = al**2 * mu * np.pi / 2.0
    M = np.zeros((4, 4))
    M[1, 0] = s * mu / al   # dalpha ^ da
    M[3, 0] = s             # dmu ^ da
    M[2, 1] = s * 2.0 / al  # dphi ^ dalpha
    M[2, 3] = s / mu        # dphi ^ dmu
    return M - M.T


def family_mass_constant(mu: float, grid: SpectralGrid) -> float:
    """Squared L2 norm of the family member with alpha = 1 and scale mu.

    Equals 4 pi^2 / (L (1 - exp(-4 pi/(L mu)))), which tends to
    pi * mu as L -> infinity; the soliton of general g has mass
    alpha^2 * family_mass_constant(mu).
    """
    L = grid.box_length
    return 4 * np.pi**2 / (L * -np.expm1(-4 * np.pi / (L * mu)))


def family_drift_rate(alpha: float, mu: float, grid: SpectralGrid) -> float:
    """Exact free translation speed of the discrete family member.

    The geometric-spectrum soliton travels at
    2 pi alpha^2 / (L (1 - exp(-4 pi/(L mu)))), the discrete analogue of
    alpha^2 mu / 2; the matching phase rate is -rate^2 / alpha^2.
    """
    L = grid.box_length
    return 2 * np.pi * alpha**2 / (L * -np.expm1(-4 * np.pi / (L * mu)))


def mass_log_slope(mu: float, grid: SpectralGrid) -> float:
    """d log family_mass_constant / d log mu = z/(exp(z)-1), z = 4 pi/(L mu).

    Converges to 1 as L -> infinity; it is the factor by which the
    amplitude response to a scale drift differs from the continuum on a
    finite box (mass conservation on the family couples them).
    """
    z = 4 * np.pi / (grid.box_length * mu)
    return z / math.expm1(z)
