"""Hardy-space fields on a truncated periodic grid.

The real line is replaced by the box [-L/2, L/2) with n equispaced
points.  A field belongs to the discrete Hardy space when its FFT
coefficients vanish on strictly negative frequencies; the projector,
norms, pairings and quadrature defined here are the primitives every
other module consumes.

Fourier convention: spectrum(u)[k] approximates
u_hat(xi_k) = int exp(-i xi_k x) u(x) dx with xi_k = 2 pi k / L, so the
inverse carries the 1/(2 pi) and the discrete Parseval sum is
(1/L) sum |u_hat|^2.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.fft

__all__ = [
    "SpectralGrid",
    "HardyField",
    "szego_project",
    "sobolev_norm",
    "inner_real",
    "symplectic_pair",
    "quadrature",
    "eta_field",
    "spectrum",
    "from_spectrum",
    "random_hardy_field",
    "random_rational_field",
]

HARDY_TOL = 1e-12


@dataclass(frozen=True)
class SpectralGrid:
    """Periodic grid for [-L/2, L/2) with FFT frequency bookkeeping.

    Derived arrays (nodes, frequencies, the nonnegative-frequency mask,
    the first n/2 bins it selects with their powers [1, xi, xi^2] and
    their half-length FFT twiddles, and the phase factors that align
    numpy's FFT with the continuum transform) are computed once and
    shared by every field on the grid.
    """

    n_points: int
    box_length: float

    def __post_init__(self):
        n, L = self.n_points, float(self.box_length)
        if n < 16 or n & (n - 1) != 0:
            raise ValueError("n_points must be a power of two, at least 16")
        if L <= 0:
            raise ValueError("box_length must be positive")
        dx = L / n
        x = -L / 2 + dx * np.arange(n)
        xi = 2 * np.pi * np.fft.fftfreq(n, d=dx)
        # Nyquist lands on the negative side of fftfreq and is zeroed by
        # the projector, removing an untracked real degree of freedom.
        nonneg = xi >= 0
        object.__setattr__(self, "dx", dx)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "xi", xi)
        object.__setattr__(self, "nonneg", nonneg)
        object.__setattr__(self, "xi_pos", xi[nonneg])
        # spectral moments are products with this table; built here, not
        # on first use, so a grid is never written after it is made
        object.__setattr__(self, "xi_powers", np.vstack(
            [np.ones(n // 2), xi[:n // 2], xi[:n // 2] ** 2]))
        # e^{+-i pi k/(n/2)}, k < n/2: the odd-sample twiddles that split a
        # length-n transform of a Hardy field into two of length n/2
        t = np.exp(1j * np.pi * np.arange(n // 2) / (n // 2))
        object.__setattr__(self, "twiddle", np.vstack([t, t.conj()]))
        object.__setattr__(self, "_fwd_phase", dx * np.exp(-1j * xi * x[0]))
        object.__setattr__(self, "_inv_phase", (n / L) * np.exp(1j * xi * x[0]))


def spectrum(grid: SpectralGrid, values: np.ndarray) -> np.ndarray:
    """Continuum-normalized Fourier coefficients of grid samples."""
    return scipy.fft.fft(values) * grid._fwd_phase


def from_spectrum(grid: SpectralGrid, spec: np.ndarray) -> np.ndarray:
    """Inverse of :func:`spectrum`."""
    return scipy.fft.ifft(spec * grid._inv_phase)


@dataclass(frozen=True, eq=False)
class HardyField:
    """Complex field with spectrum supported on nonnegative frequencies.

    ``orbit`` tags fields known to lie on the soliton family (the group
    element that generated them); the group action uses it to re-derive
    closed forms instead of resampling.
    """

    grid: SpectralGrid
    values: np.ndarray
    orbit: object = None
    _spectrum: np.ndarray = field(default=None, repr=False, compare=False)

    @property
    def spectrum(self) -> np.ndarray:
        if self._spectrum is None:
            object.__setattr__(self, "_spectrum", spectrum(self.grid, self.values))
        return self._spectrum

    def norm_l2(self) -> float:
        return float(np.sqrt(self.grid.dx * np.sum(np.abs(self.values) ** 2)))


def _as_values(f, grid=None):
    if isinstance(f, HardyField):
        return f.grid, f.values
    if grid is None:
        raise ValueError("grid required for raw sample arrays")
    f = np.asarray(f)
    if f.shape != (grid.n_points,):
        raise ValueError("sample count does not match the grid")
    return grid, f


def _check_same_grid(u: HardyField, v: HardyField):
    if u.grid.n_points != v.grid.n_points or u.grid.box_length != v.grid.box_length:
        raise ValueError("fields live on different grids")


def szego_project(f, grid: SpectralGrid = None) -> HardyField:
    """Zero all strictly negative frequencies (the Nyquist bin included)."""
    grid, vals = _as_values(f, grid)
    spec = spectrum(grid, vals)
    spec[~grid.nonneg] = 0.0
    return HardyField(grid, from_spectrum(grid, spec), _spectrum=spec)


def sobolev_norm(h: HardyField, s: float = 0.5, homogeneous: bool = False) -> float:
    """H^s norm, ((1/2pi) int (1+xi^2)^s |h_hat|^2 dxi)^(1/2).

    Only s in {0, 1/2} is supported; the homogeneous flag swaps the
    weight for |xi|^(2s).
    """
    if s not in (0.0, 0.5):
        raise ValueError(f"unsupported Sobolev exponent s={s}")
    spec = h.spectrum
    xi = h.grid.xi
    if homogeneous:
        weight = np.abs(xi) ** (2 * s)
    else:
        weight = (1.0 + xi**2) ** s
    return float(np.sqrt(np.sum(weight * np.abs(spec) ** 2) / h.grid.box_length))


def inner_real(u: HardyField, v: HardyField) -> float:
    """Real scalar product Re int u conj(v) dx."""
    _check_same_grid(u, v)
    return float(u.grid.dx * np.sum(np.real(u.values * np.conj(v.values))))


def symplectic_pair(u: HardyField, v: HardyField) -> float:
    """Symplectic form omega(u, v) = Im int u conj(v) dx."""
    _check_same_grid(u, v)
    return float(u.grid.dx * np.sum(np.imag(u.values * np.conj(v.values))))


def pair_spectra(grid: SpectralGrid, su: np.ndarray, sv: np.ndarray) -> complex:
    """Hermitian pairing (1/2pi) int su conj(sv) dxi on the discrete bins."""
    return complex(np.sum(su * np.conj(sv)) / grid.box_length)


def quadrature(samples, grid: SpectralGrid = None):
    """Periodic trapezoid rule, dx * sum(samples)."""
    grid, vals = _as_values(samples, grid)
    return grid.dx * np.sum(vals)


def eta_spectrum(grid: SpectralGrid) -> np.ndarray:
    """Spectrum of the ground soliton 1/(x+i): -2 pi i exp(-xi) on xi >= 0."""
    spec = np.zeros(grid.n_points, dtype=complex)
    spec[grid.nonneg] = -2j * np.pi * np.exp(-grid.xi_pos)
    return spec


def eta_field(grid: SpectralGrid) -> HardyField:
    """Grid-native ground soliton.

    Built from its geometric spectrum, so it is an exact member of the
    discrete soliton family; it agrees with pointwise samples of
    1/(x+i) up to the documented 1/L tail error, and its squared norm
    tends to pi as L grows.
    """
    spec = eta_spectrum(grid)
    from .soliton_manifold import identity  # local import to avoid a cycle

    return HardyField(grid, from_spectrum(grid, spec), orbit=identity(),
                      _spectrum=spec)


def random_hardy_field(grid: SpectralGrid, rng: np.random.Generator,
                       decay: float = 0.25, norm: float = 1.0) -> HardyField:
    """Random smooth Hardy field with exponentially decaying spectrum."""
    k = grid.xi_pos
    coeff = (rng.normal(size=k.size) + 1j * rng.normal(size=k.size))
    coeff *= np.exp(-decay * k)
    spec = np.zeros(grid.n_points, dtype=complex)
    spec[grid.nonneg] = coeff
    vals = from_spectrum(grid, spec)
    h = HardyField(grid, vals, _spectrum=spec)
    scale = norm / max(h.norm_l2(), 1e-300)
    return HardyField(grid, vals * scale, _spectrum=spec * scale)


def random_rational_field(grid: SpectralGrid, rng: np.random.Generator,
                          n_poles: int = None, norm: float = 1.0) -> HardyField:
    """Random rational Hardy field: pole atoms in the lower half-plane.

    Atoms of order >= 2 give x^-2 tails, so box-truncation effects stay
    far below the operator-identity tolerances; these are the natural
    test inputs for the finite-rank Hankel machinery.
    """
    if n_poles is None:
        n_poles = int(rng.integers(2, 5))
    x = grid.x
    vals = np.zeros(grid.n_points, dtype=complex)
    for _ in range(n_poles):
        pole = rng.uniform(-10, 10) - 1j * rng.uniform(0.5, 3.0)
        order = int(rng.integers(2, 4))
        c = rng.normal() + 1j * rng.normal()
        vals += c / (x - pole) ** order
    h = szego_project(vals, grid)
    scale = norm / max(h.norm_l2(), 1e-300)
    return HardyField(grid, h.values * scale, _spectrum=h.spectrum * scale)
