"""Mermin and Svetlichny tests for polarization-entangled three-qubit states."""

from .inequalities import (
    ALGEBRAIC_MAX,
    BOUND,
    Classification,
    CorrelationTensor,
    Functional,
    InequalityReport,
    SettingsPair,
    classify,
    correlation_tensor,
    functional_value,
    mermin_partner_value,
    symmetric_pairs,
)
from .lhv import (
    HybridStrategy,
    LhvMaxResult,
    LocalStrategy,
    ModelClass,
    Partition,
    enumerate_hybrid,
    enumerate_local,
    lhv_max,
    mixture_tensor,
    strategy_tensor,
)
from .optimizer import (
    OptimizationResult,
    optimize,
)
from .polarimetry import (
    OutcomeDistribution,
    StateTensor,
    correlation,
    correlation_from_distribution,
    outcome_distribution,
    wrap_phase,
)
from .qstate import (
    DensityMatrix,
    PureState,
    as_density,
    make_ghz,
    make_w,
    mix_with_white_noise,
    state_from_jsonable,
)
from .shots import (
    CountTable,
    EstimatedReport,
    critical_visibility,
    estimate_inequality,
    estimate_tensor,
    sample_counts,
)

__version__ = "0.1.0"
