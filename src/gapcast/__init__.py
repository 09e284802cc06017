"""Optimal linear extrapolation for vector stationary sequences observed
with noise and with missing stretches, plus robust (least-favorable) variants.
"""

from .errors import (
    ConfigError,
    DataShapeError,
    DegenerateObservationsError,
    GapcastError,
    InfeasibleClassError,
    InsufficientLagError,
    InternalConsistencyError,
    InvalidParameterError,
    InvalidPatternError,
    NonInvertibleOperatorError,
    SimulationMethodError,
    SingularDensityError,
    UnsupportedClassError,
)
from .extrapolate import (
    EstimateResult,
    FunctionalSpec,
    delta_of_characteristic,
    default_truncation,
    estimate,
    optimal_delta,
)
from .operators import (
    MissingPattern,
    build_operator_system,
    solve_coefficients,
)
from .oracle import (
    CirculantEmbedding,
    MonteCarloResult,
    OracleResult,
    SimulationConfig,
    functional_variance,
    monte_carlo_mse,
    projection_ladder,
    projection_oracle,
)
from .config import (
    RunConfig,
    build_class,
    build_functional,
    build_model,
    build_oracle_check,
    build_pattern,
    build_simulation,
    config_hash,
    dumps_config,
    load_config,
    loads_config,
)
from .families import (
    DensityFamily,
    ar1_fixed_power_family,
    contamination_family,
    scalar_mixture_family,
    singleton_family,
)
from .minimax import (
    ClassData,
    DensityClass,
    LeastFavorableResult,
    OptConfig,
    ResidualReport,
    SaddleReport,
    characterization_residuals,
    class_constraint_report,
    evaluate_candidate,
    maximize_delta,
    verify_saddle_point,
)
from .spectral import (
    FourierTable,
    SpectralModel,
    ar1_model,
    ar1_scalar,
    check_minimality,
    coeffs_from_samples,
    covariance,
    grid_points,
    laurent_density,
    laurent_entry,
    ma_pair_model,
    make_ar1_pair,
    white_model,
)

__version__ = "0.1.0"
