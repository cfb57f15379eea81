"""Spectral quantum dynamics on periodic grids.

Wavefunctions and observables on 1-D/2-D periodic grids, split-step
propagation, the two-time evolution operator, scenario simulations (free
packet, harmonic and quartic wells, two-slit diffraction), and a named check
suite that certifies the framework's identities numerically.
"""

__version__ = "0.1.0"

from .grids import (
    Grid,
    MomentumAmplitudes,
    Wavefunction,
    from_momentum,
    gaussian_packet,
    inner,
    make_grid,
    normalize,
    norm_squared,
    plane_wave,
    random_state,
    to_momentum,
)
from .operators import (
    DenseOperator,
    DiagonalReal,
    LinearOperator,
    OperatorSum,
    SpectralReal,
    apply,
    expectation,
    force_op,
    hamiltonian,
    hermiticity_defect,
    kinetic_op,
    momentum_op,
    position_op,
    potential_op,
    to_dense,
)
from .evolution import (
    Trajectory,
    evolution_operator,
    extract_generator,
    spectrum,
    split_step,
    unitarity_defect,
)
from .checks import (
    CheckReport,
    FieldConfiguration,
    VerifyConfig,
    check_antihermitian_exponential,
    check_commutant_uniqueness,
    check_commutator_system,
    check_ehrenfest_force,
    check_ehrenfest_velocity,
    check_field_energy_parseval,
    check_normalization,
    check_parseval_momentum,
    run_all,
)
from .scenarios import (
    DiffractionResult,
    ScenarioConfig,
    build,
    reference_two_slit_config,
    run,
    run_diffraction,
)
