import importlib.util
import pickle
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
    from_bins,
    from_spectrum,
    inner_real,
    pair_spectra,
    quadrature,
    random_hardy_field,
    random_rational_field,
    raw_bins,
    sobolev_norm,
    spectrum,
    symplectic_pair,
    szego_project,
)
from szego_lab.soliton_manifold import (GroupElement, act, identity,
                                        soliton_profile)
from szego_lab.operators import linearized_apply
from szego_lab.dynamics import evolve_pde


def _negative_content(values):
    """Largest bin of numpy.fft.fft(values) at the Nyquist frequency or
    below zero, relative to the largest bin of all."""
    F = np.abs(np.fft.fft(values))
    return np.max(F[values.size // 2:]) / np.max(F)


def test_grid_geometry(grid):
    assert grid.dx == grid.box_length / grid.n_points
    assert_allclose(np.diff(grid.xi_pos)[0], 2 * np.pi / grid.box_length)
    assert np.array_equal(grid.xi_powers,
                          [np.ones_like(grid.xi_pos), grid.xi_pos, grid.xi_pos**2])
    assert grid.x[0] == -grid.box_length / 2
    # the Hardy bins are the first n/2 of numpy.fft.fftfreq's, bitwise,
    # the rest are the Nyquist and negative frequencies, and the phase
    # tables hold one entry per Hardy bin
    for g in (grid, SpectralGrid(16, 3.0), SpectralGrid(8192, 256.0)):
        N = g.n_points // 2
        xi = 2 * np.pi * np.fft.fftfreq(g.n_points, d=g.dx)
        assert np.array_equal(g.xi_pos, xi[:N])
        assert np.all(xi[N:] < 0)
        for table in (g._fwd_phase, g._inv_phase, g.twiddle[0], g.twiddle[1]):
            assert table.shape == (N,)


@pytest.mark.parametrize("n", [100, 8, 0, -16])
def test_grid_rejects_bad_point_count(n):
    with pytest.raises(ValueError):
        SpectralGrid(n, 256.0)


def test_grid_rejects_bad_box():
    with pytest.raises(ValueError):
        SpectralGrid(1024, -2.0)


def test_pickled_grid_rebuilds_its_tables_bitwise(grid):
    # a grid pickles as (n, L) alone, and every table rebuilt on load is
    # bitwise the original's
    data = pickle.dumps(grid)
    assert len(data) < 200
    back = pickle.loads(data)
    assert back == grid and vars(back).keys() == vars(grid).keys()
    for name, table in vars(grid).items():
        rebuilt = getattr(back, name)
        assert type(rebuilt) is type(table), name
        assert np.asarray(rebuilt).tobytes() == np.asarray(table).tobytes(), name


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


def test_every_transform_has_length_n_half(grid, rng, monkeypatch):
    # the transform pair, a projection, values built from a spectrum,
    # the group action, L and the RK4 loop all run on the half-length
    # layout: no transform has length n
    lengths = set()
    c2c = spectral_core._pocketfft.c2c

    def recorded(a, *args):
        lengths.add(a.shape[-1])
        return c2c(a, *args)

    monkeypatch.setattr(spectral_core, "_pocketfft", types.SimpleNamespace(c2c=recorded))
    vals = rng.standard_normal(grid.n_points) + 1j * rng.standard_normal(grid.n_points)
    spectrum(grid, vals)
    szego_project(vals, grid).values
    act(GroupElement(0.8, 1.1, -0.4, 1.25), random_hardy_field(grid, rng)).values
    linearized_apply(random_hardy_field(grid, rng)).values
    evolve_pde(soliton_profile(identity(), grid), t_final=2e-3, dt=1e-3, stride=1)
    assert lengths == {grid.n_points // 2}


def test_spectrum_roundtrip(grid, rng):
    # spectrum keeps the n/2 Hardy bins of any samples, and from_spectrum
    # gives back the samples with the other bins of their transform zeroed
    vals = rng.standard_normal(grid.n_points) + 1j * rng.standard_normal(grid.n_points)
    F = np.fft.fft(vals)
    F[grid.n_points // 2:] = 0.0
    hardy = np.fft.ifft(F)
    assert_allclose(from_spectrum(grid, spectrum(grid, vals)), hardy, atol=1e-12)
    assert_allclose(from_spectrum(grid, spectrum(grid, hardy)), hardy, atol=1e-12)


def test_every_constructor_holds_the_n_half_hardy_bins(grid, rng):
    N = grid.n_points // 2
    vals = rng.standard_normal(grid.n_points) + 1j * rng.standard_normal(grid.n_points)
    member = soliton_profile(GroupElement(-3.0, 1.0, 0.4, 3.0), grid)
    fields = {
        "soliton_profile": member,
        "from_bins": from_bins(raw_bins(member), grid),
        "szego_project": szego_project(vals, grid),
        "random_hardy_field": random_hardy_field(grid, rng),
        "random_rational_field": random_rational_field(grid, rng),
        "act": act(GroupElement(0.8, 1.1, -0.4, 1.25),
                   random_rational_field(grid, rng)),
        "spectrum only": HardyField(grid, _spectrum=member.spectrum.copy()),
    }
    for name, f in fields.items():
        assert f.spectrum.shape == (N,), name
        assert _negative_content(f.values) < 1e-13, name
    # a field given only its samples computes its spectrum on first use
    lazy = HardyField(grid, vals)
    assert lazy._spectrum is None
    assert lazy.spectrum.shape == (N,)


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
    assert _negative_content(once.values) < 1e-13


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
    eta = soliton_profile(identity(), grid)
    want = -2j * np.pi * np.exp(-grid.xi_pos)
    tol = 4 * np.finfo(float).eps * (1.0 + grid.xi_pos)
    assert eta.spectrum.shape == want.shape
    assert np.all(np.abs(eta.spectrum - want) <= tol * np.abs(want))
    assert _negative_content(eta.values) < 1e-13


def test_eta_field_resembles_cauchy_kernel(grid):
    eta = soliton_profile(identity(), grid)
    target = 1.0 / (grid.x + 1j)
    # interior agreement; the box tail carries the truncation error
    mid = np.abs(grid.x) < 32
    assert np.max(np.abs(eta.values[mid] - target[mid])) < 2e-2
    assert _negative_content(eta.values) < 1e-13


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
    assert _negative_content(u1.values) < 1e-13
    assert np.isfinite(u1.norm_l2())


def test_random_rational_field_properties(grid):
    u = random_rational_field(grid, np.random.default_rng(11))
    assert abs(u.norm_l2() - 1.0) < 1e-10
    assert _negative_content(u.values) < 1e-13


def test_quadrature_constant(grid):
    ones = np.ones(grid.n_points)
    assert_allclose(float(np.real(quadrature(ones, grid))), grid.box_length, rtol=1e-14)
