"""Pseudospectral toolkit for the cubic Szego equation with a small
Toeplitz potential.

The package discretizes the Hardy space L^2_+ on a periodic box, evolves
the perturbed equation, and tracks how close the solution stays to the
four-parameter soliton family by reparametrizing each snapshot into a
group element plus a symplectically orthogonal remainder.
"""

from .spectral_core import (
    SpectralGrid,
    HardyField,
    szego_project,
    sobolev_norm,
    inner_real,
    symplectic_pair,
    quadrature,
    synthesize,
    eta_field,
)
from .operators import (
    PotentialSpec,
    gaussian_potential,
    sech2_potential,
    constant_potential,
    table_potential,
    toeplitz_apply,
    hankel_apply,
    hankel_rank,
    kernel_witness,
    linearized_apply,
    nonlinear_remainder,
    hamiltonian,
    mass,
    momentum,
    energy_E,
)
from .soliton_manifold import (
    GroupElement,
    LieVector,
    compose,
    identity,
    inverse,
    act,
    soliton_profile,
    lie_apply,
    omega_eta_matrix,
    manifold_project,
    hamiltonian_field_on_M,
    omega_on_M,
)
from .dynamics import (
    EffectiveState,
    CoefficientTriple,
    abc_coefficients,
    pde_rhs,
    evolve_pde,
    effective_rhs,
    evolve_effective,
    w_equation_rhs,
)
from .decomposition import (
    Decomposition,
    TrackReport,
    TubularNeighborhoodError,
    DegenerateParametrizationError,
    reparametrize,
    x_vector,
    track,
    theorem_metrics,
)

__version__ = "0.1.0"
