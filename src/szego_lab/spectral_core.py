"""Hardy-space fields on a truncated periodic grid.

The real line is replaced by the box [-L/2, L/2) with n equispaced
points.  A field belongs to the discrete Hardy space when its FFT
coefficients vanish on strictly negative frequencies; the projector,
norms, pairings and quadrature defined here are the primitives every
other module consumes.

Every transform runs on the half-length layout that the RK4 kernel in
dynamics shares: a Hardy field as its n/2 non-negative raw FFT bins and
as the (2, n/2) rows of its even and odd samples, each one batched
transform of the other by decimation in time (Cooley & Tukey, 1965).
spectrum, from_spectrum and the projector are hardy_rows and
project_rows with the continuum phases applied, so no transform has
length n.

Fourier convention: spectrum(u)[k] approximates
u_hat(xi_k) = int exp(-i xi_k x) u(x) dx with xi_k = 2 pi k / L, so the
inverse carries the 1/(2 pi) and the discrete Parseval sum is
(1/L) sum |u_hat|^2.
"""

from __future__ import annotations

import ctypes
import importlib.machinery
import importlib.util
import os
from dataclasses import dataclass, field

import numpy as np


def _load_pocketfft():
    """The compiled pocketfft module that scipy.fft wraps, loaded from
    its file without importing scipy or scipy.fft, whose Python layers
    cost about 0.25 s and 20 MiB a process (they import numpy.f2py,
    numpy.testing, numpy.ma, numpy.random and scipy.special) and add
    nothing to a transform."""
    scipy_spec = importlib.util.find_spec("scipy")
    where = os.path.join(scipy_spec.submodule_search_locations[0], "fft",
                         "_pocketfft") if scipy_spec else "scipy (not installed)"
    spec = importlib.machinery.PathFinder.find_spec("pypocketfft", [where])
    if spec is None:
        raise ImportError(f"scipy's compiled pypocketfft not found in {where}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_pocketfft = _load_pocketfft()


def fft(a: np.ndarray, out: np.ndarray = None) -> np.ndarray:
    """Unnormalized forward FFT along the last axis, into `out` if given;
    the call scipy.fft.fft makes, so the result is bitwise the same."""
    return _pocketfft.c2c(a, (a.ndim - 1,), True, 0, out, 1)


def ifft(a: np.ndarray, out: np.ndarray = None) -> np.ndarray:
    """Inverse FFT along the last axis with the 1/n factor, into `out` if
    given; bitwise scipy.fft.ifft."""
    return _pocketfft.c2c(a, (a.ndim - 1,), False, 2, out, 1)


def _keep_freed_scratch():
    """Fix glibc's malloc thresholds, so that the scratch buffer pocketfft
    allocates and frees on every call is reused instead of being handed
    back to the OS and faulted in again.  Left to glibc's own adaptive
    thresholds, an RK4 step at n = 16384 (384 KiB of scratch a call) took
    768 minor page faults and 3,000 us, against none and 1,770 us with
    these values; a trim threshold of 1 MiB still left 2 faults a step,
    and these values also take n = 32768 from 1,800 faults a step to 5.
    Where mallopt is missing this does nothing."""
    libc = ctypes.CDLL(None) if os.name == "posix" else None
    mallopt = getattr(libc, "mallopt", None)
    if mallopt is None:
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(-3, 1 << 20)   # M_MMAP_THRESHOLD: 1 MiB
    mallopt(-1, 2 << 20)   # M_TRIM_THRESHOLD: 2 MiB


_keep_freed_scratch()


@dataclass(frozen=True)
class SpectralGrid:
    """Periodic grid for [-L/2, L/2) with FFT frequency bookkeeping.

    A Hardy spectrum on this grid is its n/2 non-negative bins; the
    Nyquist bin and every negative frequency are zero by layout, which
    removes an untracked real degree of freedom.  Derived arrays (nodes,
    the non-negative frequencies xi_pos with their powers [1, xi, xi^2],
    the half-length FFT twiddles, and the phase factors that align the
    raw FFT with the continuum transform on those bins) are computed once
    and shared by every field on the grid.
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
        # bitwise the first half of 2 pi numpy.fft.fftfreq(n, dx)
        xi = 2 * np.pi * (np.arange(n // 2) * (1.0 / (n * dx)))
        object.__setattr__(self, "dx", dx)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "xi_pos", xi)
        # spectral moments are products with this table; built here, not
        # on first use, so a grid is never written after it is made
        object.__setattr__(self, "xi_powers", np.vstack([np.ones(n // 2), xi, xi**2]))
        # e^{+-i pi k/(n/2)}, k < n/2: the odd-sample twiddles that split a
        # length-n transform of a Hardy field into two of length n/2
        t = np.exp(1j * np.pi * np.arange(n // 2) / (n // 2))
        object.__setattr__(self, "twiddle", np.vstack([t, t.conj()]))
        object.__setattr__(self, "_fwd_phase", dx * np.exp(-1j * xi * x[0]))
        object.__setattr__(self, "_inv_phase", (n / L) * np.exp(1j * xi * x[0]))

    def __reduce__(self):
        """Pickle n and L alone; the tables are rebuilt on load."""
        return SpectralGrid, (self.n_points, self.box_length)


@dataclass(frozen=True, eq=False)
class HardyField:
    """Complex field with spectrum supported on non-negative frequencies.

    ``spectrum`` holds the n/2 non-negative bins (see SpectralGrid), so
    every field's spectrum is Hardy by construction.  A field holds its
    values, its spectrum or both, and derives the missing one on first
    read: the spectrum by :func:`spectrum`, the values by
    :func:`from_spectrum`; a consumer of the spectrum alone never builds
    the n values.  ``orbit`` tags fields known to lie on the soliton
    family (the group element that generated them); the group action
    uses it to re-derive closed forms instead of resampling.
    """

    grid: SpectralGrid
    _values: np.ndarray = field(default=None, repr=False)
    orbit: object = None
    _spectrum: np.ndarray = field(default=None, repr=False, compare=False)

    @property
    def values(self) -> np.ndarray:
        if self._values is None:
            object.__setattr__(self, "_values", from_spectrum(self.grid, self._spectrum))
        return self._values

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


def hardy_rows(V: np.ndarray, grid: SpectralGrid, out: np.ndarray = None) -> np.ndarray:
    """u = ifft(V) from the n/2 non-negative raw bins V (the rest vanish),
    as the (2, n/2) rows of its even and odd samples.

    u[2m] = ifft_{n/2}(V)_m / 2 and u[2m+1] = ifft_{n/2}(V e^{i pi k/(n/2)})_m / 2,
    one batched inverse transform, run in `out` when it is given.
    """
    z = np.empty((2, V.size), dtype=complex) if out is None else out
    np.multiply(V, 0.5, out=z[0])
    np.multiply(z[0], grid.twiddle[0], out=z[1])
    return ifft(z, out=z)


def project_rows(g: np.ndarray, grid: SpectralGrid) -> np.ndarray:
    """The raw bins [0, n/2) of the Hardy projection of g, given as the
    (2, n/2) complex rows of its even and odd samples.

    P keeps exactly these bins of the length-n transform of g,
    fft_{n/2}(g_even)_k + e^{-i pi k/(n/2)} fft_{n/2}(g_odd)_k.  The rows
    are consumed: the transform runs in their buffer, and the result is a
    view of its first row.
    """
    F = fft(g, out=g)
    F[1] *= grid.twiddle[1]
    F[0] += F[1]
    return F[0]


def raw_bins(h: HardyField) -> np.ndarray:
    """The n/2 non-negative raw FFT bins of a Hardy field, a fresh array."""
    return h.spectrum * h.grid._inv_phase


def spectrum(grid: SpectralGrid, values: np.ndarray) -> np.ndarray:
    """Continuum-normalized Fourier coefficients of grid samples on the
    n/2 non-negative bins, project_rows of their even and odd rows; any
    negative-frequency content is dropped."""
    rows = values.reshape(-1, 2).T.astype(complex, order="C")
    return project_rows(rows, grid) * grid._fwd_phase


def from_spectrum(grid: SpectralGrid, spec: np.ndarray) -> np.ndarray:
    """Grid samples of the Hardy field with the n/2 bins spec, the
    inverse of :func:`spectrum` on Hardy fields: hardy_rows of its raw
    bins, interleaved."""
    return hardy_rows(spec * grid._inv_phase, grid).T.ravel()


def from_bins(V: np.ndarray, grid: SpectralGrid) -> HardyField:
    """The field with raw bins V: its spectrum, V in continuum
    normalization, in a fresh array; its values are built on first read."""
    return HardyField(grid, _spectrum=V * grid._fwd_phase)


def szego_project(f, grid: SpectralGrid = None) -> HardyField:
    """Zero all strictly negative frequencies (the Nyquist bin included):
    the field whose spectrum is that of f's samples."""
    grid, vals = _as_values(f, grid)
    return HardyField(grid, _spectrum=spectrum(grid, vals))


def sobolev_norm(h: HardyField, s: float = 0.5, homogeneous: bool = False) -> float:
    """H^s norm, ((1/2pi) int (1+xi^2)^s |h_hat|^2 dxi)^(1/2).

    Only s in {0, 1/2} is supported; the homogeneous flag swaps the
    weight for |xi|^(2s).
    """
    if s not in (0.0, 0.5):
        raise ValueError(f"unsupported Sobolev exponent s={s}")
    spec = h.spectrum
    xi = h.grid.xi_pos
    if homogeneous:
        weight = xi ** (2 * s)
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


def random_hardy_field(grid: SpectralGrid, rng: np.random.Generator,
                       decay: float = 0.25, norm: float = 1.0) -> HardyField:
    """Random smooth Hardy field with exponentially decaying spectrum."""
    k = grid.xi_pos
    spec = (rng.normal(size=k.size) + 1j * rng.normal(size=k.size))
    spec *= np.exp(-decay * k)
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
