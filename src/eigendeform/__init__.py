"""Low-order representation of eigenmode deformation in parameterized systems."""

from .edm import (
    EdmBasis,
    OutOfDomainError,
    build_data_matrix,
    compute_edms,
    direct_interpolate,
    energy_fraction,
    extract_edm_basis,
    interpolate_mode,
    interpolation_error,
    select_rank,
)
from .io import load_database, load_edm_basis, save_database, save_edm_basis
from .modal import (
    ModeDatabase,
    ModeSample,
    align_database,
    mode_at,
    pair_modes,
    sample_spectrum,
)
from .numerics import (
    MassFactor,
    cholesky_factor,
    generalized_eig,
    slowest_eigenpairs,
    solve_linear,
    truncated_svd,
)
from .rom import (
    Rom,
    Trajectory,
    benchmark_strategies,
    build_rom_at_sample,
    build_rom_interpolated,
    simulate_full,
    simulate_rom,
    solution_interpolation,
    trajectory_error,
)
from .systems import (
    FullOrderSystem,
    SecondOrderSystem,
    equilibrium,
    first_order_form,
    heat_rod,
    spring_chain_with_defect,
    traveling_bump_family,
)

__version__ = "0.1.0"
