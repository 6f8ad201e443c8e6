"""Toeplitz and Hankel operators, conserved functionals, and the
linearization of the flow at the ground soliton.

The potential enters everywhere through a PotentialSpec, which carries
the symbol b, its derivative, and the norms that the perturbative
estimates are phrased in.  The operator pieces assembled here --
T_b h = P(b h), H_u h = P(u conj(h)), the second-variation operator L
and the cubic-and-quadratic remainder N -- act pointwise on grid values
followed by a single Hardy projection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import CubicSpline

from .spectral_core import (
    HardyField,
    SpectralGrid,
    from_spectrum,
    project_spectrum,
    quadrature,
    sobolev_norm,
    spectrum,
    szego_project,
)

__all__ = [
    "PotentialSpec",
    "OperatorDiagnostics",
    "gaussian_potential",
    "sech2_potential",
    "constant_potential",
    "table_potential",
    "toeplitz_apply",
    "hankel_apply",
    "hankel_rank",
    "kernel_witness",
    "linearized_apply",
    "nonlinear_remainder",
    "hamiltonian",
    "mass",
    "momentum",
    "energy_E",
]


@dataclass(frozen=True)
class PotentialSpec:
    """Real bounded potential b with integrable derivative.

    support_hint is the interval outside which b' is negligible; the
    coefficient quadratures center their windows on it.  sup_b, l1_db
    and l2_db are the norms appearing in the perturbative bounds,
    precomputed on a dense window at construction.
    """

    eval_b: callable
    eval_db: callable
    support_hint: tuple = None
    label: str = "potential"
    sup_b: float = field(default=None, repr=False)
    l1_db: float = field(default=None, repr=False)
    l2_db: float = field(default=None, repr=False)

    def __post_init__(self):
        lo, hi = self.support_hint if self.support_hint else (-20.0, 20.0)
        lo, hi = lo - 2.0, hi + 2.0
        rng = np.random.default_rng(109)
        pts = rng.uniform(lo, hi, size=16)
        b = np.asarray(self.eval_b(pts), dtype=float)
        db = np.asarray(self.eval_db(pts), dtype=float)
        if np.iscomplexobj(self.eval_b(pts)):
            raise ValueError("potential must be real-valued")
        # two-sided difference at h ~ cbrt(eps) balances truncation
        # against cancellation; 1e-6 absolute-over-scale tolerance
        h = 1e-5
        fd = (np.asarray(self.eval_b(pts + h)) - np.asarray(self.eval_b(pts - h))) / (2 * h)
        scale = max(1.0, float(np.max(np.abs(db))))
        if np.max(np.abs(fd - db)) > 1e-6 * scale:
            raise ValueError("eval_db is not the derivative of eval_b")
        ys = np.linspace(lo, hi, 16384)
        dy = ys[1] - ys[0]
        dbs = np.abs(np.asarray(self.eval_db(ys), dtype=float))
        object.__setattr__(self, "sup_b", float(np.max(np.abs(b))) if self.sup_b is None
                           else self.sup_b)
        if self.l1_db is None:
            object.__setattr__(self, "l1_db", float(np.sum(dbs) * dy))
        if self.l2_db is None:
            object.__setattr__(self, "l2_db", float(math.sqrt(np.sum(dbs**2) * dy)))
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
    return PotentialSpec(b, db, (center - half, center + half),
                         label=f"gaussian(amp={amplitude},c={center},w={width})")


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
    return PotentialSpec(b, db, (center - half, center + half),
                         label=f"sech2(amp={amplitude},c={center},w={width})")


def constant_potential(value: float) -> PotentialSpec:
    def b(x):
        return np.full_like(np.asarray(x, dtype=float), float(value))

    def db(x):
        return np.zeros_like(np.asarray(x, dtype=float))

    return PotentialSpec(b, db, (-1.0, 1.0), label=f"constant({value})")


def table_potential(xs, values) -> PotentialSpec:
    """Cubic-spline potential through tabulated samples; zero outside."""
    xs = np.asarray(xs, dtype=float)
    values = np.asarray(values, dtype=float)
    if xs.ndim != 1 or xs.size < 4 or xs.shape != values.shape:
        raise ValueError("need matching 1-d tables with at least 4 points")
    sp = CubicSpline(xs, values)
    dsp = sp.derivative()
    lo, hi = float(xs[0]), float(xs[-1])

    def b(x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        inside = (x >= lo) & (x <= hi)
        out[inside] = sp(x[inside])
        return out

    def db(x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        inside = (x >= lo) & (x <= hi)
        out[inside] = dsp(x[inside])
        return out

    return PotentialSpec(b, db, (lo, hi), label="table")


def _symbol_values(b, grid: SpectralGrid) -> np.ndarray:
    if isinstance(b, PotentialSpec):
        return b.on_grid(grid)
    if np.isscalar(b):
        return np.full(grid.n_points, float(b))
    arr = np.asarray(b)
    if arr.shape != (grid.n_points,):
        raise ValueError("symbol samples do not match the grid")
    return arr


def toeplitz_apply(b, h: HardyField) -> HardyField:
    """T_b h = P(b h) for a real symbol b."""
    vals = _symbol_values(b, h.grid) * h.values
    spec = project_spectrum(h.grid, spectrum(h.grid, vals))
    return HardyField(h.grid, from_spectrum(h.grid, spec), _spectrum=spec)


def hankel_apply(u: HardyField, h: HardyField) -> HardyField:
    """H_u h = P(u conj(h)); antilinear in h."""
    vals = u.values * np.conj(h.values)
    spec = project_spectrum(u.grid, spectrum(u.grid, vals))
    return HardyField(u.grid, from_spectrum(u.grid, spec), _spectrum=spec)


@dataclass(frozen=True)
class OperatorDiagnostics:
    symmetry_defect: float
    rank_estimate: int
    singular_values: np.ndarray


def hankel_rank(u: HardyField, tol: float = 1e-8, m: int = 256) -> OperatorDiagnostics:
    """Numerical rank of H_u restricted to the first m spectral modes.

    The matrix elements against the normalized modes e_j = exp(i xi_j x)/sqrt(L)
    depend on j+k only, M[j,k] = u_hat(xi_{j+k})/L, so the restriction is
    complex-symmetric by construction; the defect reported is the
    numerical deviation from that identity.  rank_estimate counts
    singular values above tol * sigma_max.
    """
    n_modes = int(np.count_nonzero(u.grid.nonneg))
    if 2 * m - 1 > n_modes:
        raise ValueError(f"m={m} needs {2 * m - 1} modes, grid has {n_modes}")
    s = u.spectrum[np.where(u.grid.nonneg)[0][: 2 * m - 1]] / u.grid.box_length
    idx = np.arange(m)
    M = s[idx[:, None] + idx[None, :]]
    sing = np.linalg.svd(M, compute_uv=False)
    smax = sing[0] if sing.size else 0.0
    rank = int(np.sum(sing > tol * smax)) if smax > 0 else 0
    defect = float(np.max(np.abs(M - M.T))) if m else 0.0
    return OperatorDiagnostics(defect, rank, sing)


_ETA_CACHE = {}


def _eta_pieces(grid: SpectralGrid):
    """Grid values of the family ground state, |eta|^2, and eta^2.

    eta^2 is synthesized from its own closed-form spectrum
    -2 pi xi exp(-xi) rather than by squaring samples, keeping the
    Hankel symbol an exact one-parameter family object.
    """
    key = (grid.n_points, grid.box_length)
    cached = _ETA_CACHE.get(key)
    if cached is None:
        spec = np.zeros(grid.n_points, dtype=complex)
        spec[grid.nonneg] = -2j * np.pi * np.exp(-grid.xi_pos)
        eta = from_spectrum(grid, spec)
        spec2 = np.zeros(grid.n_points, dtype=complex)
        spec2[grid.nonneg] = -2 * np.pi * grid.xi_pos * np.exp(-grid.xi_pos)
        eta_sq = from_spectrum(grid, spec2)
        cached = (eta, np.abs(eta) ** 2, eta_sq)
        _ETA_CACHE[key] = cached
    return cached


def kernel_witness(h: HardyField) -> HardyField:
    """Multiply by the squared inner factor ((x-i)/(x+i))^2.

    The result lies in the kernel of the Hankel operator with symbol
    eta^2.  Kept as the raw pointwise product: the factor is inner, so
    the product is again a Hardy field up to grid truncation, and
    leaving it unprojected preserves the rational cancellation that
    the kernel identity rests on.
    """
    grid = h.grid
    q = (grid.x - 1j) / (grid.x + 1j)
    return HardyField(grid, q * q * h.values)


def linearized_apply(w: HardyField) -> HardyField:
    """Second variation of the unperturbed energy at the ground soliton:
    -(i/2) w' - 2 T_{|eta|^2} w - H_{eta^2} w + w/4."""
    grid = w.grid
    _, abs2, eta_sq = _eta_pieces(grid)
    dw = from_spectrum(grid, 1j * grid.xi * w.spectrum)
    vals = (-0.5j * dw - 2.0 * abs2 * w.values - eta_sq * np.conj(w.values)
            + 0.25 * w.values)
    spec = project_spectrum(grid, spectrum(grid, vals))
    return HardyField(grid, from_spectrum(grid, spec), _spectrum=spec)


def nonlinear_remainder(w: HardyField) -> HardyField:
    """Quadratic-and-cubic remainder P(|w|^2 w + |w|^2 eta + 2 w Re(eta conj(w)))."""
    grid = w.grid
    eta, _, _ = _eta_pieces(grid)
    aw2 = np.abs(w.values) ** 2
    vals = aw2 * w.values + aw2 * eta + 2.0 * w.values * np.real(eta * np.conj(w.values))
    spec = project_spectrum(grid, spectrum(grid, vals))
    return HardyField(grid, from_spectrum(grid, spec), _spectrum=spec)


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


def energy_E(u: HardyField) -> float:
    """Unperturbed energy (1/4) int |u|^4 + (i/4) int u' conj(u) - (1/8) int |u|^2.

    The middle term is real for Hardy fields and equals -momentum/4,
    computed spectrally.
    """
    quartic = 0.25 * float(np.real(quadrature(np.abs(u.values) ** 4, u.grid)))
    return quartic - 0.25 * momentum(u) - 0.125 * mass(u)
