import numpy as np
import pytest
from hypothesis import given, strategies as st
from numpy.testing import assert_allclose

from szego_lab.spectral_core import (
    HardyField,
    SpectralGrid,
    from_spectrum,
    random_hardy_field,
    random_rational_field,
)
from szego_lab.cli import SPECTRAL_TAIL_MAX
from szego_lab.operators import mass
from szego_lab.soliton_manifold import (
    MU_MAX,
    MU_MIN,
    GroupElement,
    act,
    compose,
    family_drift_rate,
    family_mass_constant,
    family_shape,
    family_shape_moments,
    family_spectrum,
    frame_gram,
    generator_spectra,
    identity,
    inverse,
    manifold_project,
    mass_log_slope,
    omega_eta_matrix,
    soliton_profile,
    tangent_frame_spectra,
)

group_params = st.tuples(
    st.floats(-20.0, 20.0),
    st.floats(0.1, 8.0),
    st.floats(-10.0, 10.0),
    st.floats(0.25, 4.0),
).map(lambda t: GroupElement(*t))


# ------------------------------------------------------------ group structure


@given(g=group_params)
def test_identity_is_neutral(g):
    for h in (compose(g, identity()), compose(identity(), g)):
        assert_allclose(
            [h.a, h.alpha, h.phi, h.mu], [g.a, g.alpha, g.phi, g.mu], atol=1e-12
        )


@given(g=group_params)
def test_inverse_cancels(g):
    h = compose(g, inverse(g))
    assert_allclose([h.a, h.alpha, h.phi, h.mu], [0.0, 1.0, 0.0, 1.0], atol=1e-9)
    h = compose(inverse(g), g)
    assert_allclose([h.a, h.alpha, h.phi, h.mu], [0.0, 1.0, 0.0, 1.0], atol=1e-9)


@given(g1=group_params, g2=group_params, g3=group_params)
def test_compose_associative(g1, g2, g3):
    left = compose(compose(g1, g2), g3)
    right = compose(g1, compose(g2, g3))
    assert_allclose(
        [left.a, left.alpha, left.phi, left.mu],
        [right.a, right.alpha, right.phi, right.mu],
        rtol=1e-9,
        atol=1e-9,
    )


def test_group_element_validation():
    with pytest.raises(ValueError):
        GroupElement(0.0, 0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        GroupElement(0.0, 1.0, 0.0, MU_MIN / 2)
    with pytest.raises(ValueError):
        GroupElement(0.0, 1.0, 0.0, 2 * MU_MAX)


def test_compose_respects_action(grid):
    # group law mirrors operator composition on fields
    g1 = GroupElement(1.5, 1.2, 0.3, 2.0)
    g2 = GroupElement(-0.7, 0.8, -1.1, 0.5)
    u = soliton_profile(identity(), grid)
    via_ops = act(g1, act(g2, u))
    via_law = act(compose(g1, g2), u)
    diff = np.max(np.abs(via_ops.values - via_law.values))
    assert diff < 1e-9


# ------------------------------------------------------------- family action


def test_soliton_profile_is_group_orbit(grid):
    g = GroupElement(-3.0, 1.0, 0.0, 3.0)
    member = soliton_profile(g, grid)
    moved = act(g, soliton_profile(identity(), grid))
    assert_allclose(member.values, moved.values, atol=1e-12)
    assert member.orbit == g


@pytest.mark.parametrize("n", [2**k for k in range(4, 16)])
def test_family_shape_is_the_direct_exponential(n):
    # two-table product against one exponential per bin; both round the
    # exponent w xi, so the tolerance grows with its size
    grid = SpectralGrid(n, 256.0)
    xi, L = grid.xi_pos, grid.box_length
    for mu in (MU_MIN, 1.0, 3.0, MU_MAX):
        for a in (-L / 2, -3.0, 0.0, L / 2):
            want = np.exp(-xi / mu - 1j * a * xi)
            got = family_shape(a, mu, grid)
            tol = 4 * np.finfo(float).eps * (1.0 + abs(-1.0 / mu - 1j * a) * xi)
            assert got.shape == want.shape
            assert np.all(np.abs(got - want) <= tol * np.abs(want) + 1e-300), (mu, a)


@pytest.mark.parametrize("n, L", [(8192, 256.0), (2048, 128.0)])
def test_family_shape_moments_are_the_direct_sums(n, L):
    # the closed geometric sums against sum_k xi_k^p |shape_k|^2, from
    # the smallest scale to the largest, and at the coarsest scale the
    # config check resolves (top-bin tail exp(-xi_max/mu) = 1e-6)
    grid = SpectralGrid(n, L)
    mu_limit = grid.xi_pos[-1] / -np.log(SPECTRAL_TAIL_MAX)
    for mu in (MU_MIN, 1.0, mu_limit, MU_MAX):
        want = grid.xi_powers @ np.abs(family_shape(0.7, mu, grid)) ** 2
        got = np.array(family_shape_moments(mu, grid))
        assert np.all(np.abs(got - want) <= 1e-13 * want), mu


def test_family_spectrum_matches_profile(grid):
    g = GroupElement(2.0, 0.9, 1.3, 0.7)
    spec = family_spectrum(g, grid)
    member = soliton_profile(g, grid)
    assert_allclose(spec, member.spectrum, atol=1e-10)


def test_member_mass_is_family_constant(grid):
    g = GroupElement(-3.0, 1.0, 0.0, 3.0)
    member = soliton_profile(g, grid)
    assert_allclose(
        mass(member), g.alpha**2 * family_mass_constant(g.mu, grid), rtol=1e-12
    )


@pytest.mark.filterwarnings("ignore:rescaled field exceeds the band limit")
def test_act_inverse_roundtrip(grid, rng):
    # rational fields are smooth enough for the spline resample at
    # non-unit mu; spectra with rough tails are not recoverable this way
    u = random_rational_field(grid, rng)
    g = GroupElement(0.8, 1.1, -0.4, 1.25)
    back = act(inverse(g), act(g, u))
    rel = np.sqrt(np.sum(np.abs(back.values - u.values) ** 2)
                  / np.sum(np.abs(u.values) ** 2))
    assert rel < 1e-4


# --------------------------------------------------------- infinitesimal data


def test_generator_closed_forms_on_soliton(grid):
    # translations square the profile, scalings reproduce it, etc.; exact
    # statements in frequency where the family is an explicit exponential
    eta = soliton_profile(identity(), grid)
    E = generator_spectra(grid)
    xi = grid.xi_pos
    eta_sq_spec = -2 * np.pi * xi * np.exp(-xi)
    # assert_allclose also holds each spectrum to the n/2 Hardy bins
    assert_allclose(E[0], eta_sq_spec, atol=1e-12)          # -d/dx
    assert_allclose(E[1], eta.spectrum, atol=1e-12)         # dilation modulus
    assert_allclose(E[2], 1j * eta.spectrum, atol=1e-12)    # phase
    assert_allclose(E[3], 1j * eta_sq_spec, atol=1e-12)     # scaling


def test_symplectic_table(grid, tail_tol):
    M = omega_eta_matrix(grid)
    assert_allclose(M, -M.T, atol=1e-12)
    table = np.array(
        [
            [0.0, -np.pi / 2, 0.0, -np.pi / 2],
            [np.pi / 2, 0.0, -np.pi, 0.0],
            [0.0, np.pi, 0.0, np.pi / 2],
            [np.pi / 2, 0.0, -np.pi / 2, 0.0],
        ]
    )
    assert np.max(np.abs(M - table)) < tail_tol


def test_frame_gram_at_identity(grid):
    # frequency-built frame: the phase-dilation slot carries exactly the
    # discrete family mass, the vanishing slots vanish identically, and
    # the remaining entries sit within the quadrature bias of the table
    G = frame_gram(grid, identity())
    assert_allclose(G, -G.T, atol=1e-14)
    assert abs(G[1, 2] + family_mass_constant(1.0, grid)) < 1e-12
    assert G[0, 2] == 0.0 and G[1, 3] == 0.0
    assert abs(G[0, 3] + np.pi / 2) < 1e-6
    assert abs(G[0, 1] + np.pi / 2) < 1e-3
    assert abs(G[2, 3] - np.pi / 2) < 1e-3


def test_tangent_frame_consistent_with_generators(grid):
    # at the identity the parameter-derivative frame and the generator
    # frame coincide slot by slot
    T = tangent_frame_spectra(identity(), grid)
    E = generator_spectra(grid)
    for k in range(4):
        assert_allclose(T[k], E[k], atol=1e-10)


def test_manifold_project_recovers_tangent_coefficients(grid):
    coeffs = np.array([0.3, -0.2, 0.15, 0.05])
    E = generator_spectra(grid)
    spec = sum(c * Ek for c, Ek in zip(coeffs, E))
    u = HardyField(grid, from_spectrum(grid, spec))
    y = manifold_project(u)
    assert_allclose(y.as_array(), coeffs, atol=1e-9)


def test_manifold_project_kills_orthogonal_part(grid, rng):
    u = random_hardy_field(grid, rng)
    y = manifold_project(u)
    spec = u.spectrum.copy()
    for k, Ek in enumerate(generator_spectra(grid)):
        spec -= y.as_array()[k] * Ek
    w = HardyField(grid, from_spectrum(grid, spec))
    z = manifold_project(w)
    assert np.max(np.abs(z.as_array())) < 1e-9 * max(1.0, np.max(np.abs(y.as_array())))


# ---------------------------------------------------------- family constants


def test_family_mass_constant_asymptotics(grid):
    # pi * mu plus the first box correction
    for mu in (0.5, 1.0, 3.0):
        val = family_mass_constant(mu, grid)
        predicted = np.pi * mu + 2 * np.pi**2 / grid.box_length
        assert abs(val - predicted) < 1e-3 * val


def test_mass_log_slope_is_log_derivative(grid):
    mu = 1.7
    h = 1e-6
    fd = (
        np.log(family_mass_constant(mu * (1 + h), grid))
        - np.log(family_mass_constant(mu * (1 - h), grid))
    ) / (2 * h)
    assert abs(mass_log_slope(mu, grid) - fd) < 1e-6
    # approaches one with increasing box resolution of the spectrum
    assert abs(mass_log_slope(mu, grid) - 1.0) < 0.05


def test_family_drift_rate_continuum_limit(grid):
    # alpha^2 mu / 2 up to the same box correction
    for alpha, mu in ((1.0, 1.0), (1.2, 3.0)):
        c = family_drift_rate(alpha, mu, grid)
        assert abs(c - alpha**2 * mu / 2) < 2e-2 * alpha**2 * mu
