"""Toeplitz and Hankel operators, conserved functionals, and the
linearization of the flow at the ground soliton.

The potential enters everywhere through a PotentialSpec, which carries
the symbol b, its derivative, and the interval outside which b' is
negligible.  The operator pieces assembled here --
T_b h = P(b h), H_u h = P(u conj(h)) and the second-variation operator
L -- act pointwise on grid values followed by a single Hardy projection.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectral_core import (
    HardyField,
    SpectralGrid,
    _as_values,
    from_spectrum,
    quadrature,
    sobolev_norm,
    szego_project,
)
from .soliton_manifold import generator_spectra, identity, soliton_profile


@dataclass(frozen=True)
class PotentialSpec:
    """Real bounded potential b with integrable derivative.

    support_hint is the interval outside which b' is negligible; the
    coefficient quadratures center their windows on it.
    """

    eval_b: callable
    eval_db: callable
    support_hint: tuple = None

    def __post_init__(self):
        lo, hi = self.support_hint if self.support_hint else (-20.0, 20.0)
        lo, hi = lo - 2.0, hi + 2.0
        # 16 fixed check points (golden-ratio sequence): no numpy.random
        pts = lo + (hi - lo) * ((0.6180339887498949 * np.arange(1, 17)) % 1.0)
        if np.iscomplexobj(self.eval_b(pts)):
            raise ValueError("potential must be real-valued")
        db = np.asarray(self.eval_db(pts), dtype=float)
        # two-sided difference at h ~ cbrt(eps) balances truncation
        # against cancellation; 1e-6 absolute-over-scale tolerance
        h = 1e-5
        fd = (np.asarray(self.eval_b(pts + h)) - np.asarray(self.eval_b(pts - h))) / (2 * h)
        scale = max(1.0, float(np.max(np.abs(db))))
        if np.max(np.abs(fd - db)) > 1e-6 * scale:
            raise ValueError("eval_db is not the derivative of eval_b")
        object.__setattr__(self, "_grid_cache", {})

    def on_grid(self, grid: SpectralGrid) -> np.ndarray:
        key = (grid.n_points, grid.box_length)
        cached = self._grid_cache.get(key)
        if cached is None:
            cached = np.asarray(self.eval_b(grid.x), dtype=float)
            self._grid_cache[key] = cached
        return cached


def gaussian_potential(amplitude: float = 1.0, center: float = 0.0,
                       width: float = 1.0) -> PotentialSpec:
    """b(x) = amplitude * exp(-((x - center)/width)^2)."""
    def b(x):
        return amplitude * np.exp(-(((np.asarray(x, dtype=float) - center) / width) ** 2))

    def db(x):
        x = np.asarray(x, dtype=float)
        return b(x) * (-2.0 * (x - center) / width**2)

    half = 8.0 * width
    return PotentialSpec(b, db, (center - half, center + half))


def sech2_potential(amplitude: float = 1.0, center: float = 0.0,
                    width: float = 1.0) -> PotentialSpec:
    """b(x) = amplitude / cosh^2((x - center)/width)."""
    def b(x):
        return amplitude / np.cosh((np.asarray(x, dtype=float) - center) / width) ** 2

    def db(x):
        x = np.asarray(x, dtype=float)
        z = (x - center) / width
        return -2.0 * amplitude * np.tanh(z) / (width * np.cosh(z) ** 2)

    half = 20.0 * width
    return PotentialSpec(b, db, (center - half, center + half))


def constant_potential(value: float) -> PotentialSpec:
    def b(x):
        return np.full_like(np.asarray(x, dtype=float), float(value))

    def db(x):
        return np.zeros_like(np.asarray(x, dtype=float))

    return PotentialSpec(b, db, (-1.0, 1.0))


def table_potential(xs, values) -> PotentialSpec:
    """Cubic-spline potential through tabulated samples; zero outside."""
    from scipy.interpolate import CubicSpline  # only table potentials need it

    xs = np.asarray(xs, dtype=float)
    values = np.asarray(values, dtype=float)
    if xs.ndim != 1 or xs.size < 4 or xs.shape != values.shape:
        raise ValueError("need matching 1-d tables with at least 4 points")
    lo, hi = float(xs[0]), float(xs[-1])

    def zero_outside(spline):
        def f(x):
            x = np.asarray(x, dtype=float)
            out = np.zeros_like(x)
            inside = (x >= lo) & (x <= hi)
            out[inside] = spline(x[inside])
            return out
        return f

    sp = CubicSpline(xs, values)
    return PotentialSpec(zero_outside(sp), zero_outside(sp.derivative()), (lo, hi))


def toeplitz_apply(b: PotentialSpec, h: HardyField) -> HardyField:
    """T_b h = P(b h) for a real potential b."""
    return szego_project(b.on_grid(h.grid) * h.values, h.grid)


def hankel_apply(u: HardyField, h) -> HardyField:
    """H_u h = P(u conj(h)); antilinear in h, a field or grid samples."""
    vals = u.values * np.conj(_as_values(h, u.grid)[1])
    return szego_project(vals, u.grid)


@dataclass(frozen=True)
class OperatorDiagnostics:
    rank_estimate: int
    singular_values: np.ndarray


def hankel_rank(u: HardyField, tol: float = 1e-8, m: int = 256) -> OperatorDiagnostics:
    """Numerical rank of H_u restricted to the first m spectral modes.

    The matrix elements against the normalized modes e_j = exp(i xi_j x)/sqrt(L)
    depend on j+k only, M[j,k] = u_hat(xi_{j+k})/L, so the restriction is
    complex-symmetric by construction.  rank_estimate counts singular
    values above tol * sigma_max.
    """
    n_modes = u.spectrum.size
    if 2 * m - 1 > n_modes:
        raise ValueError(f"m={m} needs {2 * m - 1} modes, grid has {n_modes}")
    s = u.spectrum[: 2 * m - 1] / u.grid.box_length
    idx = np.arange(m)
    M = s[idx[:, None] + idx[None, :]]
    sing = np.linalg.svd(M, compute_uv=False)
    smax = sing[0] if sing.size else 0.0
    rank = int(np.sum(sing > tol * smax)) if smax > 0 else 0
    return OperatorDiagnostics(rank, sing)


def kernel_witness(h: HardyField) -> np.ndarray:
    """Grid samples of h times the squared inner factor ((x-i)/(x+i))^2.

    The product lies in the kernel of the Hankel operator with symbol
    eta^2.  It is returned as the raw pointwise product, an array, not
    a HardyField: the factor is inner, so the product is Hardy only up
    to grid truncation (a smooth random field puts 1e-6 to 1e-5 of its
    energy on the Nyquist and negative bins), and leaving it unprojected
    preserves the rational cancellation that the kernel identity rests
    on.  hankel_apply takes it as it is; szego_project makes it a field.
    """
    q = (h.grid.x - 1j) / (h.grid.x + 1j)
    return q * q * h.values


def linearized_apply(w: HardyField) -> HardyField:
    """Second variation of the unperturbed energy at the ground soliton:
    -(i/2) w' - 2 T_{|eta|^2} w - H_{eta^2} w + w/4.

    eta^2 is synthesized from its own closed-form spectrum
    -2 pi xi exp(-xi), the first generator spectrum at the identity,
    rather than by squaring samples, keeping the Hankel symbol an exact
    one-parameter family object.
    """
    grid = w.grid
    abs2 = np.abs(soliton_profile(identity(), grid).values) ** 2
    eta_sq = from_spectrum(grid, generator_spectra(grid)[0])
    dw = from_spectrum(grid, 1j * grid.xi_pos * w.spectrum)
    vals = (-0.5j * dw - 2.0 * abs2 * w.values - eta_sq * np.conj(w.values)
            + 0.25 * w.values)
    return szego_project(vals, grid)


def hamiltonian(u: HardyField, b: PotentialSpec = None, eps: float = 0.0) -> float:
    """H_b(u) = (1/4) int |u|^4 + (eps/2) int b |u|^2."""
    au2 = np.abs(u.values) ** 2
    value = 0.25 * float(np.real(quadrature(au2 * au2, u.grid)))
    if eps != 0.0:
        if b is None:
            raise ValueError("eps != 0 requires a potential")
        value += 0.5 * eps * float(np.real(quadrature(b.on_grid(u.grid) * au2, u.grid)))
    return value


def mass(u: HardyField) -> float:
    """Conserved L^2 mass int |u|^2."""
    return float(np.real(quadrature(np.abs(u.values) ** 2, u.grid)))


def momentum(u: HardyField) -> float:
    """Squared homogeneous H^{1/2} norm; not conserved once eps > 0."""
    return sobolev_norm(u, 0.5, homogeneous=True) ** 2

