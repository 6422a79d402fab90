"""Safety-critical control toolkit: barrier-function safety filters,
projected-disturbance quantification, episodic residual learning, and
projection-to-state safety certificates."""

from .barrier import (
    BarrierFunction,
    DegenerateGradientError,
    FilterResult,
    FilteredController,
    cbf_margin,
    h_dot,
    issf_margin,
    safety_filter,
)
from .certify import (
    CertificateReport,
    CompatiblePair,
    DeltaTrace,
    Projection,
    PssfCertificate,
    check_compatibility,
    closed_loop_delta_trace,
    delta_bound,
    direct_transport_floor,
    make_certificate,
    projected_disturbance,
    projected_dynamics,
    transport_inflation,
    verify_certificate,
)
from .config import ConfigError, DEFAULT_CONFIG, load_config, validate_config
from .dynamics import (
    BENCHMARK_PERTURBATION,
    ControlAffineSystem,
    DisturbanceSignal,
    NumericalBlowUpError,
    PerturbationSpec,
    SegwayParams,
    Trajectory,
    segway_energy,
    segway_nominal,
    segway_true,
    simulate,
    step_rk4,
)
from .kfun import (
    ComparisonFunction,
    Composition,
    DomainError,
    Linear,
    NotInvertibleError,
    Power,
    TabulatedMonotone,
    compose,
    verify_class_membership,
)
from .learning import (
    Dataset,
    EpisodeHistory,
    FeatureMap,
    NoiseSpec,
    ResidualModel,
    collect_episode,
    episodic_train,
    excite,
    fit_residual,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
