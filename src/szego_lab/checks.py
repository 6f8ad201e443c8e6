"""The structural checks of the soliton family and of the two flows.

One function per measurement, and the table of `validate` rows built
on them.  The acceptance gate and scripts/coercivity_scan.py call the
same functions with their own seeds, counts and bounds, so each
measurement loop exists once.
"""

from __future__ import annotations

import operator
from functools import cached_property

import numpy as np

from .spectral_core import (HardyField, SpectralGrid, eta_field, from_spectrum,
                            inner_real, random_hardy_field,
                            random_rational_field, sobolev_norm)
from .operators import (gaussian_potential, hankel_apply, hankel_rank,
                        kernel_witness, linearized_apply)
from .soliton_manifold import (GroupElement, generator_spectra, identity,
                               manifold_project, omega_eta_matrix,
                               soliton_profile)
from .dynamics import (EffectiveState, PdeTrajectory, effective_rhs, evolve_pde,
                       free_flow)
from .decomposition import Tracker, x_vector

# continuum omega(e_i eta, e_j eta) above the diagonal; the matrix is
# antisymmetric, so these entries cover it
_SYMPLECTIC_TABLE = {(0, 1): -np.pi / 2, (0, 2): 0.0, (0, 3): -np.pi / 2,
                     (1, 2): -np.pi, (1, 3): 0.0, (2, 3): np.pi / 2}


def symplectic_table_error(grid: SpectralGrid) -> float:
    """Largest deviation of omega_eta_matrix from its continuum table."""
    M = omega_eta_matrix(grid)
    return float(max(abs(M[i, j] - v) for (i, j), v in _SYMPLECTIC_TABLE.items()))


def coercivity_quotients(grid: SpectralGrid, rng: np.random.Generator,
                         count: int) -> np.ndarray:
    """<w, L w> / ||w||_H12^2 for `count` random Hardy fields with their
    four generator components removed; the theory puts the infimum at
    1/4."""
    E = generator_spectra(grid)
    out = np.empty(count)
    for k in range(count):
        u = random_hardy_field(grid, rng)
        y = manifold_project(u).as_array()
        spec = u.spectrum - sum(y[j] * E[j] for j in range(4))
        w = HardyField(grid, from_spectrum(grid, spec), _spectrum=spec)
        out[k] = inner_real(w, linearized_apply(w)) / sobolev_norm(w, 0.5) ** 2
    return out


def hankel_ranks(grid: SpectralGrid) -> tuple:
    """Numerical ranks of the Hankel operators of eta and eta^2, (1, 2)
    on the rank-one family."""
    eta = eta_field(grid)
    return (hankel_rank(eta).rank_estimate,
            hankel_rank(HardyField(grid, eta.values ** 2)).rank_estimate)


def kernel_witness_residual(grid: SpectralGrid, rng: np.random.Generator,
                            count: int) -> float:
    """Largest ||H_{eta^2} k(h)|| / ||h|| over `count` random rational
    fields h, with k(h) the kernel witness."""
    symbol = HardyField(grid, eta_field(grid).values ** 2)
    worst = 0.0
    for _ in range(count):
        h = random_rational_field(grid, rng)
        worst = max(worst, hankel_apply(symbol, kernel_witness(h)).norm_l2()
                    / h.norm_l2())
    return worst


def free_flow_error(traj: PdeTrajectory, g0: GroupElement) -> float:
    """L2 distance of the run's last sample from the family member that
    the exact free flow carries g0 to at that time."""
    grid = traj.grid
    ref = soliton_profile(free_flow(g0, float(traj.times[-1]), grid), grid)
    return float(np.sqrt(np.sum(np.abs(traj.fields[-1].spectrum - ref.spectrum)
                                ** 2) / grid.box_length))


def effective_flow_defect(rng: np.random.Generator, count: int, b, eps: float,
                          grid: SpectralGrid = None, phi_max: float = 3.0,
                          mu_range: tuple = (0.7, 1.4)) -> float:
    """Largest defect ||X|| of the effective flow's own velocities at
    `count` random group elements (zero up to roundoff); the grid
    selects the discrete-family route of effective_rhs and x_vector."""
    worst = 0.0
    for _ in range(count):
        g = GroupElement(rng.uniform(-5, 5), rng.uniform(0.7, 1.4),
                         rng.uniform(-phi_max, phi_max), rng.uniform(*mu_range))
        rates = effective_rhs(EffectiveState(0.0, g), b, eps, grid)
        worst = max(worst, x_vector(g, rates, b, eps, grid=grid).norm())
    return worst


_GAUSS = gaussian_potential(1.0, 0.0, 1.0)
_TRANSIT_G0 = GroupElement(-3.0, 1.0, 0.0, 3.0)


class Suite:
    """What the validate rows share: the default grid, one seed-0 rng
    that the rows draw from in table order, and a 2-unit transit at
    eps = 1e-2, integrated on first use."""

    def __init__(self):
        self.grid = SpectralGrid(8192, 256.0)
        self.rng = np.random.default_rng(0)

    @cached_property
    def transit(self) -> tuple:
        """The transit's trajectory and the report of the Tracker its
        samples stream into, as in cli._run_tracked: no field is kept."""
        tracker = Tracker(self.grid, _TRANSIT_G0)
        traj = evolve_pde(soliton_profile(_TRANSIT_G0, self.grid), _GAUSS, 1e-2,
                          2.0, 1e-3, 100, on_sample=tracker.add)
        return traj, tracker.report(_GAUSS, 1e-2)


def _ranks_as_number(grid: SpectralGrid) -> float:
    """The two Hankel ranks as one number, 10 r1 + r2."""
    r1, r2 = hankel_ranks(grid)
    return float(10 * r1 + r2)


# (name, measurement of a Suite, comparison, bound): a row passes when
# comparison(measured, bound) holds
VALIDATE_ROWS = (
    ("symplectic_table", lambda s: symplectic_table_error(s.grid), operator.lt,
     max(1e-8, 10.0 / 256.0)),
    ("coercivity", lambda s: coercivity_quotients(s.grid, s.rng, 20).min(),
     operator.ge, 0.24),
    ("kronecker_ranks", lambda s: _ranks_as_number(s.grid), operator.eq, 12.0),
    ("kernel_witness", lambda s: kernel_witness_residual(s.grid, s.rng, 5),
     operator.lt, 1e-6),
    ("exact_flow", lambda s: free_flow_error(evolve_pde(
        soliton_profile(identity(), s.grid), None, 0.0, 2.0, 1e-3, 500), identity()),
     operator.lt, 1e-6),
    ("mass_drift", lambda s: s.transit[0].mass_drift, operator.lt, 1e-8),
    ("hamiltonian_drift", lambda s: s.transit[0].hamiltonian_drift, operator.lt,
     1e-7),
    ("mass_identity", lambda s: s.transit[1].mass_residual.max(), operator.lt,
     1e-6),
    ("effective_fixed_point", lambda s: effective_flow_defect(s.rng, 20, _GAUSS, 1e-2),
     operator.lt, 1e-9),
)
