import importlib.util
import re
import types

import numpy as np
import pytest
from hypothesis import given, strategies as st
from numpy.testing import assert_allclose

from szego_lab import spectral_core
from szego_lab.spectral_core import (
    HardyField,
    SpectralGrid,
    from_spectrum,
    inner_real,
    pair_spectra,
    quadrature,
    random_hardy_field,
    random_rational_field,
    sobolev_norm,
    spectrum,
    symplectic_pair,
    szego_project,
)
from szego_lab.soliton_manifold import identity, soliton_profile


def test_grid_geometry(grid):
    assert grid.dx == grid.box_length / grid.n_points
    assert_allclose(np.diff(grid.xi)[0], 2 * np.pi / grid.box_length)
    # exactly half the bins carry nonnegative frequencies
    assert int(np.sum(grid.nonneg)) == grid.n_points // 2
    assert np.all(grid.xi[grid.nonneg] >= 0)
    # ... and they are the first n/2, the bins the [:n/2] slices select
    assert np.array_equal(grid.nonneg, np.arange(grid.n_points) < grid.n_points // 2)
    assert np.array_equal(grid.xi_powers,
                          [np.ones_like(grid.xi_pos), grid.xi_pos, grid.xi_pos**2])
    assert grid.x[0] == -grid.box_length / 2
    # the frequencies are numpy.fft.fftfreq's, bitwise
    for g in (grid, SpectralGrid(16, 3.0), SpectralGrid(8192, 256.0)):
        assert np.array_equal(g.xi, 2 * np.pi * np.fft.fftfreq(g.n_points, d=g.dx))


@pytest.mark.parametrize("n", [100, 8, 0, -16])
def test_grid_rejects_bad_point_count(n):
    with pytest.raises(ValueError):
        SpectralGrid(n, 256.0)


def test_grid_rejects_bad_box():
    with pytest.raises(ValueError):
        SpectralGrid(1024, -2.0)


@pytest.mark.parametrize("name", ["fft", "ifft"])
@pytest.mark.parametrize("shape", [(8192,), (2, 4096)], ids=["n", "batch"])
def test_fft_pair_is_bitwise_scipy_fft(name, shape, rng):
    # the pair calls the compiled module scipy.fft wraps, loaded from its
    # file; importing scipy.fft here loads that file again under scipy's
    # own name, and both must give the same bits, in place or not
    import scipy.fft

    a = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    want = getattr(scipy.fft, name)(a).tobytes()
    transform = getattr(spectral_core, name)
    fresh = transform(a)
    assert fresh.tobytes() == want and not np.shares_memory(fresh, a)
    b = a.copy()
    assert transform(b, out=b) is b
    assert b.tobytes() == want


def test_fft_loader_names_the_path_it_searched(monkeypatch, tmp_path):
    # a scipy without the compiled module is an ImportError, not a
    # fallback to another FFT
    found = types.SimpleNamespace(submodule_search_locations=[str(tmp_path)])
    monkeypatch.setattr(importlib.util, "find_spec", lambda name: found)
    with pytest.raises(ImportError, match=re.escape(str(tmp_path / "fft" / "_pocketfft"))):
        spectral_core._load_pocketfft()


def test_spectrum_roundtrip(grid, rng):
    vals = rng.standard_normal(grid.n_points) + 1j * rng.standard_normal(grid.n_points)
    back = from_spectrum(grid, spectrum(grid, vals))
    assert_allclose(back, vals, atol=1e-12)


@given(seed=st.integers(0, 2**31 - 1))
def test_parseval(grid, seed):
    # discrete transform keeps the full-weight sum identity exact
    u = random_hardy_field(grid, np.random.default_rng(seed))
    physical = float(np.real(quadrature(np.abs(u.values) ** 2, grid)))
    spectral = float(np.sum(np.abs(u.spectrum) ** 2)) / grid.box_length
    assert abs(physical - spectral) <= 1e-10 * max(1.0, physical)


@given(seed=st.integers(0, 2**31 - 1))
def test_projection_idempotent(grid, seed):
    rg = np.random.default_rng(seed)
    vals = rg.standard_normal(grid.n_points) + 1j * rg.standard_normal(grid.n_points)
    once = szego_project(HardyField(grid, vals))
    twice = szego_project(once)
    assert_allclose(twice.values, once.values, atol=1e-12)
    assert np.all(once.spectrum[~grid.nonneg] == 0)


def test_projection_is_orthogonal(grid, rng):
    vals = rng.standard_normal(grid.n_points) + 1j * rng.standard_normal(grid.n_points)
    f = HardyField(grid, vals)
    p = szego_project(f)
    q = HardyField(grid, f.values - p.values)
    # removed part is L2-orthogonal to the retained part
    ip = np.sum(p.spectrum * np.conj(spectrum(grid, q.values))) / grid.box_length
    assert abs(ip) < 1e-10


def test_inner_real_is_real_symmetric(grid, rng):
    u = random_hardy_field(grid, rng)
    v = random_hardy_field(grid, rng)
    a = inner_real(u, v)
    b = inner_real(v, u)
    assert isinstance(a, float)
    assert abs(a - b) < 1e-12 * max(1.0, abs(a))
    assert abs(inner_real(u, u) - u.norm_l2() ** 2) < 1e-10


def test_symplectic_pair_antisymmetric(grid, rng):
    u = random_hardy_field(grid, rng)
    v = random_hardy_field(grid, rng)
    assert abs(symplectic_pair(u, v) + symplectic_pair(v, u)) < 1e-12
    assert abs(symplectic_pair(u, u)) < 1e-12
    # pairing u against iu recovers the squared norm (with the Im u conj(v) sign)
    iu = HardyField(grid, 1j * u.values)
    assert_allclose(symplectic_pair(u, iu), -u.norm_l2() ** 2, rtol=1e-10)


def test_pair_spectra_matches_field_pairing(grid, rng):
    u = random_hardy_field(grid, rng)
    v = random_hardy_field(grid, rng)
    pair = pair_spectra(grid, u.spectrum, v.spectrum)
    # full Hermitian pairing: real part is the L2 inner product,
    # imaginary part the symplectic one
    assert_allclose(pair.real, inner_real(u, v), atol=1e-12, rtol=1e-10)
    assert_allclose(pair.imag, symplectic_pair(u, v), atol=1e-12, rtol=1e-10)


def test_eta_spectrum_closed_form(grid):
    # the ground state is the family member at the identity; its shape is
    # a two-table product that rounds the exponent xi, so the tolerance
    # grows with xi (as in test_family_shape_is_the_direct_exponential)
    spec = soliton_profile(identity(), grid).spectrum
    nn = grid.nonneg
    want = -2j * np.pi * np.exp(-grid.xi[nn])
    tol = 4 * np.finfo(float).eps * (1.0 + grid.xi[nn])
    assert np.all(np.abs(spec[nn] - want) <= tol * np.abs(want))
    assert np.all(spec[~nn] == 0)


def test_eta_field_resembles_cauchy_kernel(grid):
    eta = soliton_profile(identity(), grid)
    target = 1.0 / (grid.x + 1j)
    # interior agreement; the box tail carries the truncation error
    mid = np.abs(grid.x) < 32
    assert np.max(np.abs(eta.values[mid] - target[mid])) < 2e-2
    assert np.all(eta.spectrum[~grid.nonneg] == 0)


def test_sobolev_norm_cases(grid, tail_tol):
    eta = soliton_profile(identity(), grid)
    # s=0 is the plain L2 norm
    assert_allclose(sobolev_norm(eta, s=0.0), eta.norm_l2(), rtol=1e-12)
    # homogeneous half norm squared is the momentum integral, pi/2 for eta
    hom = sobolev_norm(eta, s=0.5, homogeneous=True) ** 2
    assert abs(hom - np.pi / 2) < tail_tol
    # inhomogeneous weight dominates the homogeneous one
    assert sobolev_norm(eta, s=0.5) >= sobolev_norm(eta, s=0.5, homogeneous=True)


def test_sobolev_norm_rejects_other_exponents(grid):
    eta = soliton_profile(identity(), grid)
    with pytest.raises(ValueError):
        sobolev_norm(eta, s=1.0)


def test_random_hardy_field_properties(grid):
    u1 = random_hardy_field(grid, np.random.default_rng(7))
    u2 = random_hardy_field(grid, np.random.default_rng(7))
    assert_allclose(u1.values, u2.values)
    assert np.all(u1.spectrum[~grid.nonneg] == 0)
    assert np.isfinite(u1.norm_l2())


def test_random_rational_field_properties(grid):
    u = random_rational_field(grid, np.random.default_rng(11))
    assert abs(u.norm_l2() - 1.0) < 1e-10
    assert np.all(u.spectrum[~grid.nonneg] == 0)


def test_quadrature_constant(grid):
    ones = np.ones(grid.n_points)
    assert_allclose(float(np.real(quadrature(ones, grid))), grid.box_length, rtol=1e-14)
