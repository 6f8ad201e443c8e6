"""The symmetry group, its Lie frame, and the soliton family.

Group elements g = (a, alpha, phi, mu) act on fields by
(g.u)(x) = exp(i phi) alpha mu u(mu (x - a)).  The orbit of the ground
state eta = 1/(x+i) is the soliton manifold; its tangent frame and the
symplectic pairings of that frame live here.

On the periodic grid the family member for g is defined by its
geometric spectrum
    S_hat(xi) = exp(i phi) alpha (-2 pi i) exp(-xi/mu - i a xi),
sampled on the non-negative bins.  This makes the family exactly
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

from .spectral_core import (
    HardyField,
    SpectralGrid,
    from_spectrum,
    pair_spectra,
    szego_project,
    symplectic_pair,
)


# extreme scales alias on a fixed grid; the theorem regime keeps mu
# near mu0 anyway
MU_MIN = 1.0 / 64.0
MU_MAX = 64.0


@dataclass(frozen=True)
class GroupElement:
    """Point of the symmetry group (translation, amplitude, phase, scale).

    The phase is stored as a raw real so that trajectories of group
    elements stay continuous.
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


def family_shape(a: float, mu: float, grid: SpectralGrid) -> np.ndarray:
    """The family shape exp(-xi/mu - i a xi) on the n/2 non-negative bins.

    xi_k = k dxi, so the shape is the geometric sequence r^k with
    r = exp(w dxi), w = -1/mu - i a (the rank-one Hankel orbit of
    Pocovnicu, Anal. PDE 2011).  With B = 2^floor(log2(n/2)/2), bin
    jB + k is the product of a coarse table exp(w xi_jB) and a fine one
    exp(w xi_k): two exponentials of about sqrt(n/2) points and one
    outer product in place of n/2 complex exponentials.
    """
    xi = grid.xi_pos
    w = -1.0 / mu - 1j * a
    B = 1 << ((xi.size.bit_length() - 1) // 2)
    return np.multiply.outer(np.exp(w * xi[::B]), np.exp(w * xi[:B])).ravel()


def family_shape_moments(mu: float, grid: SpectralGrid) -> tuple:
    """(s0, s1, s2), s_p = sum_k xi_k^p |exp(-xi_k/mu)|^2 over the n/2 bins.

    |shape|^2 is the geometric sequence x^k, x = exp(-2 dxi/mu), so with
    N = n/2 the sums of k^p x^k over k < N are closed forms in
    om = 1 - x and x^N, and s_p is dxi^p times them.
    """
    N = grid.n_points // 2
    dxi = 2.0 * math.pi / grid.box_length
    om = -math.expm1(-2.0 * dxi / mu)
    tail = math.exp(-2.0 * dxi * N / mu)
    G = -math.expm1(-2.0 * dxi * N / mu) / om
    T1 = (G - 1.0 - (N - 1) * tail) / om
    T2 = (2.0 * T1 - (G - 1.0) - (N - 1) ** 2 * tail) / om
    return G, dxi * T1, dxi * dxi * T2


def family_spectrum(g: GroupElement, grid: SpectralGrid) -> np.ndarray:
    """Geometric spectrum of the discrete family member for g."""
    return (np.exp(1j * g.phi) * g.alpha * (-2j * np.pi)
            * family_shape(g.a, g.mu, grid))


def soliton_profile(g: GroupElement, grid: SpectralGrid) -> HardyField:
    """Family member for g; pointwise it is exp(i phi) alpha/(x - a + i/mu).

    Synthesized from the geometric spectrum, so it is the exact orbit
    point of the discrete family; sampling the rational profile instead
    agrees up to the 1/L tail error.
    """
    spec = family_spectrum(g, grid)
    return HardyField(grid, from_spectrum(grid, spec), orbit=g, _spectrum=spec)


def _resample_spectrum(grid: SpectralGrid, spec: np.ndarray, mu: float):
    """Evaluate a Hardy spectrum at xi/mu by cubic interpolation in xi."""
    from scipy.interpolate import CubicSpline  # only non-family fields need it

    xi = grid.xi_pos
    interp = CubicSpline(xi, spec, extrapolate=False)
    target = xi / mu
    out = interp(target)
    out[np.isnan(out)] = 0.0
    if mu < 1.0:
        # source frequencies above mu*xi_max fall outside the band
        lost = np.sum(np.abs(spec[xi > mu * xi[-1]]) ** 2)
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
    out = (np.exp(1j * g.phi) * g.alpha * np.exp(-1j * grid.xi_pos * g.a)
           * _resample_spectrum(grid, u.spectrum, g.mu))
    return HardyField(grid, _spectrum=out)


def generator_spectra(grid: SpectralGrid, g: GroupElement = None) -> list:
    """Spectra of the four fields act(g, e_j eta), in closed form.

    At the identity these are the generator fields
    (eta^2, eta, i eta, i eta^2-type); their spectra are polynomials in
    xi times exp(-xi).
    """
    if g is None:
        g = identity()
    z = grid.xi_pos / g.mu
    base = np.exp(1j * g.phi) * g.alpha * family_shape(g.a, g.mu, grid)
    shapes = (-2 * np.pi * z, -2j * np.pi * np.ones_like(z),
              2 * np.pi * np.ones_like(z), -2j * np.pi * z)
    return [base * s for s in shapes]


def tangent_frame_spectra(g: GroupElement, grid: SpectralGrid) -> list:
    """Spectra of the coordinate tangent fields d(g.eta)/d(a,alpha,phi,mu)."""
    S = family_spectrum(g, grid)
    xi = grid.xi_pos
    return [-1j * xi * S, S / g.alpha, 1j * S, (xi / g.mu**2) * S]


def _omega_spec(grid, su, sv) -> float:
    return pair_spectra(grid, su, sv).imag


def frame_gram(grid: SpectralGrid, g: GroupElement = None) -> np.ndarray:
    """Symplectic Gram matrix omega(E_j, E_k) of the generator frame at g."""
    E = generator_spectra(grid, g)
    G = np.zeros((4, 4))
    for j in range(4):
        for k in range(j + 1, 4):
            v = _omega_spec(grid, E[j], E[k])
            G[j, k] = v
            G[k, j] = -v
    return G


def omega_eta_matrix(grid: SpectralGrid) -> np.ndarray:
    """Pairings omega(e_i eta, e_j eta); the continuum values are
    (1,2) -> -pi/2, (1,3) -> 0, (1,4) -> -pi/2, (2,3) -> -pi,
    (2,4) -> 0, (3,4) -> pi/2.

    The generator fields have closed rational forms (eta^2, eta,
    i eta, i eta^2); they are sampled pointwise so the entries carry
    the 1/L tail error of the box, not the larger zero-bin offset of
    the periodized family (see the family mass constant).
    """
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
