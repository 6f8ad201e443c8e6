import numpy as np
import pytest
from hypothesis import given, strategies as st
from numpy.testing import assert_allclose

from szego_lab.spectral_core import (
    HardyField,
    SpectralGrid,
    from_spectrum,
    inner_real,
    quadrature,
    random_hardy_field,
    random_rational_field,
    sobolev_norm,
    szego_project,
)
from szego_lab.operators import (
    PotentialSpec,
    constant_potential,
    gaussian_potential,
    hamiltonian,
    hankel_apply,
    hankel_rank,
    kernel_witness,
    linearized_apply,
    mass,
    momentum,
    sech2_potential,
    table_potential,
    toeplitz_apply,
)
from szego_lab.soliton_manifold import (family_mass_constant, generator_spectra,
                                       identity, manifold_project, soliton_profile)


# ---------------------------------------------------------------- potentials


def _l1_db(b) -> float:
    """||b'||_L1 on b's support window padded by 2, from 16,384 samples."""
    lo, hi = b.support_hint
    ys = np.linspace(lo - 2.0, hi + 2.0, 16384)
    return float(np.sum(np.abs(b.eval_db(ys))) * (ys[1] - ys[0]))


def test_gaussian_potential_shape():
    b = gaussian_potential(2.0, 1.0, 0.5)
    xs = np.linspace(-3, 3, 11)
    assert_allclose(b.eval_b(xs), 2.0 * np.exp(-(((xs - 1.0) / 0.5) ** 2)), rtol=1e-14)
    # |b'| integrates to twice the peak height, independent of width
    assert abs(_l1_db(b) - 4.0) < 1e-5
    # ... so a narrow peak is not missed
    for narrow, peak in ((gaussian_potential(2.0, 1.0, 0.05), 2.0),
                         (sech2_potential(1.0, 0.0, 0.1), 1.0)):
        assert abs(_l1_db(narrow) - 2.0 * peak) < 1e-4 * peak


def test_constant_potential_has_flat_derivative():
    b = constant_potential(0.7)
    xs = np.linspace(-5, 5, 7)
    assert np.all(b.eval_b(xs) == 0.7)
    assert np.all(b.eval_db(xs) == 0.0)
    assert _l1_db(b) == 0.0


def test_table_potential_matches_samples():
    xs = np.linspace(-8, 8, 400)
    src = sech2_potential(1.3, 0.2, 0.9)
    tab = table_potential(xs, src.eval_b(xs))
    probe = np.linspace(-7, 7, 57)
    assert_allclose(tab.eval_b(probe), src.eval_b(probe), atol=1e-6)
    # zero outside the tabulated window
    assert np.all(tab.eval_b(np.array([-20.0, 20.0])) == 0.0)


def test_table_potential_rejects_short_tables():
    with pytest.raises(ValueError):
        table_potential([0.0, 1.0], [1.0, 2.0])


def test_potential_derivative_selfcheck():
    def b(x):
        return np.exp(-np.asarray(x, dtype=float) ** 2)

    def bad_db(x):
        return np.zeros_like(np.asarray(x, dtype=float))

    with pytest.raises(ValueError):
        PotentialSpec(b, bad_db, (-8.0, 8.0))


def test_potential_on_grid_cached(grid):
    b = gaussian_potential()
    first = b.on_grid(grid)
    second = b.on_grid(grid)
    assert first is second
    assert_allclose(first, np.exp(-grid.x**2), rtol=1e-14)


# ------------------------------------------------- Toeplitz / Hankel algebra


def test_toeplitz_constant_symbol_is_scalar(grid, rng):
    h = random_hardy_field(grid, rng)
    out = toeplitz_apply(constant_potential(0.3), h)
    assert_allclose(out.values, 0.3 * h.values, atol=1e-12)


@given(seed=st.integers(0, 2**31 - 1))
def test_toeplitz_selfadjoint(grid, seed):
    rg = np.random.default_rng(seed)
    u = random_hardy_field(grid, rg)
    v = random_hardy_field(grid, rg)
    b = gaussian_potential(1.0, 0.0, 2.0)
    lhs = inner_real(toeplitz_apply(b, u), v)
    rhs = inner_real(u, toeplitz_apply(b, v))
    assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs))


@given(seed=st.integers(0, 2**31 - 1))
def test_hankel_symmetric_bilinear(grid, seed):
    # <H_u a, b> = <H_u b, a>: the kernel depends on the sum of the modes only
    rg = np.random.default_rng(seed)
    u = random_hardy_field(grid, rg)
    a = random_hardy_field(grid, rg)
    b = random_hardy_field(grid, rg)
    lhs = complex(np.vdot(b.values, hankel_apply(u, a).values))
    rhs = complex(np.vdot(a.values, hankel_apply(u, b).values))
    assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(lhs))


def test_hankel_rank_of_cauchy_powers(grid):
    eta = soliton_profile(identity(), grid)
    d1 = hankel_rank(eta)
    assert d1.rank_estimate == 1
    d2 = hankel_rank(HardyField(grid, eta.values**2))
    assert d2.rank_estimate == 2
    # third power of the kernel, built in frequency to keep it exact
    sp3 = grid.xi_pos ** 2 * np.exp(-grid.xi_pos)
    d3 = hankel_rank(HardyField(grid, from_spectrum(grid, sp3)))
    assert d3.rank_estimate == 3
    assert d3.singular_values[3] < 1e-12 * d3.singular_values[0]


def test_hankel_rank_needs_enough_modes():
    small = SpectralGrid(256, 64.0)
    with pytest.raises(ValueError):
        # default m wants 511 modes, grid has 128
        hankel_rank(soliton_profile(identity(), small))


# ------------------------------------------------------------ kernel witness


def test_kernel_witness_preserves_norm(grid, rng):
    h = random_rational_field(grid, rng)
    f = kernel_witness(h)
    # unimodular multiplier: pointwise modulus is untouched
    assert_allclose(np.abs(f), np.abs(h.values), atol=1e-13)
    assert abs(np.sqrt(grid.dx * np.sum(np.abs(f) ** 2)) - h.norm_l2()) < 1e-12


def test_kernel_witness_is_the_raw_product_not_a_field(grid, rng):
    # the product is Hardy only up to grid truncation, so it comes back
    # as grid samples; numpy.fft of the samples shows what a HardyField
    # of them would have lost between its values and its n/2 bins
    h = random_hardy_field(grid, rng)
    k = kernel_witness(h)
    q = (grid.x - 1j) / (grid.x + 1j)
    assert type(k) is np.ndarray and np.array_equal(k, q * q * h.values)
    N = grid.n_points // 2
    K = np.fft.fft(k)
    outside = np.sum(np.abs(K[N:]) ** 2) / np.sum(np.abs(K) ** 2)
    assert 1e-7 < outside < 1e-4
    # H_u reads the samples as they are: P(u conj(k)) at length n, which
    # nearly vanishes, so the error is measured against the product
    symbol = HardyField(grid, soliton_profile(identity(), grid).values ** 2)
    product = symbol.values * np.conj(k)
    G = np.fft.fft(product)
    G[N:] = 0.0
    got = hankel_apply(symbol, k).values
    assert np.max(np.abs(got - np.fft.ifft(G))) <= 1e-13 * np.max(np.abs(product))


def test_kernel_witness_annihilated_by_hankel(grid):
    eta = soliton_profile(identity(), grid)
    symbol = HardyField(grid, eta.values**2)
    rg = np.random.default_rng(5)
    worst = 0.0
    for _ in range(10):
        h = random_rational_field(grid, rg)
        image = hankel_apply(symbol, kernel_witness(h))
        worst = max(worst, image.norm_l2() / h.norm_l2())
    assert worst < 1e-6


def test_witness_of_soliton_closed_form(grid, tail_tol):
    # L applied to the witness of eta collapses to the witness factor
    # times the combination (i/2) eta^2 + eta/4.  The discrete |eta|^2
    # symbol carries a 2 pi / box_length quadrature bias at its peak, so
    # the identity is pinned at twice the usual truncation floor; a sign
    # error anywhere in L would show up at order one.
    eta = soliton_profile(identity(), grid)
    out = linearized_apply(szego_project(kernel_witness(eta), grid))
    q = (grid.x - 1j) / (grid.x + 1j)
    expected = q * q * (0.5j * eta.values**2 + 0.25 * eta.values)
    diff = np.sqrt(np.sum(np.abs(out.values - expected) ** 2) * grid.dx)
    assert diff < 2 * tail_tol


# ------------------------------------------------------- linearized operator


def test_linearized_apply_symmetric(grid, rng):
    u = random_hardy_field(grid, rng)
    v = random_hardy_field(grid, rng)
    lhs = inner_real(linearized_apply(u), v)
    rhs = inner_real(u, linearized_apply(v))
    assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(lhs))


def test_coercive_on_orthogonal_complement(grid):
    # symplectically orthogonal to the four generator directions
    rg = np.random.default_rng(42)
    E = generator_spectra(grid)
    worst = np.inf
    for _ in range(5):
        u = random_hardy_field(grid, rg)
        y = manifold_project(u)
        spec = u.spectrum.copy()
        for k, Ek in enumerate(E):
            spec -= y.as_array()[k] * Ek
        w = HardyField(grid, from_spectrum(grid, spec))
        ratio = inner_real(linearized_apply(w), w) / sobolev_norm(w, 0.5) ** 2
        worst = min(worst, ratio)
    assert worst >= 0.24


# ----------------------------------------------------- conserved functionals


def test_hamiltonian_of_soliton(grid, tail_tol):
    eta = soliton_profile(identity(), grid)
    assert abs(hamiltonian(eta) - np.pi / 8) < tail_tol


def test_hamiltonian_requires_potential_when_perturbed(grid):
    with pytest.raises(ValueError):
        hamiltonian(soliton_profile(identity(), grid), None, 1e-2)


def test_hamiltonian_constant_potential_shift(grid):
    eta = soliton_profile(identity(), grid)
    base = hamiltonian(eta)
    shifted = hamiltonian(eta, constant_potential(0.4), 1e-2)
    assert_allclose(shifted - base, 0.5 * 1e-2 * 0.4 * mass(eta), rtol=1e-12)


def test_mass_and_momentum_of_soliton(grid, tail_tol):
    eta = soliton_profile(identity(), grid)
    # frequency-built soliton carries exactly the discrete family mass
    assert abs(mass(eta) - family_mass_constant(1.0, grid)) < 1e-12
    assert abs(momentum(eta) - np.pi / 2) < tail_tol
    assert_allclose(momentum(eta), sobolev_norm(eta, 0.5, homogeneous=True) ** 2,
                    rtol=1e-12)
    # pointwise-sampled soliton hits the continuum mass instead
    etas = szego_project(1.0 / (grid.x + 1j), grid)
    assert abs(mass(etas) - np.pi) < tail_tol


def test_soliton_is_critical_point(grid, tail_tol):
    # (i/2) eta' + P(|eta|^2 eta) - eta/4 vanishes up to grid truncation
    eta = soliton_profile(identity(), grid)
    deta = from_spectrum(grid, 1j * grid.xi_pos * eta.spectrum)
    cubic = szego_project(HardyField(grid, np.abs(eta.values) ** 2 * eta.values))
    res = 0.5j * deta + cubic.values - 0.25 * eta.values
    resid = np.sqrt(np.sum(np.abs(res) ** 2) * grid.dx)
    assert resid < tail_tol
