"""mrplab: mixed renewal processes built from a kernel family and a mixing measure.

Construction and simulation of claim interarrival/arrival/counting paths,
exact finite-dimensional mixture probabilities by adaptive quadrature, and
statistical verification of the structural properties (exchangeability,
conditional i.i.d., the mixed-Poisson special case).
"""

from .construction import (
    Ensemble,
    MrpModel,
    MrpPath,
    build_model,
    sample_conditional_path,
    sample_path,
    simulate_ensemble,
    write_ensemble,
)
from .counting import (
    CountingPath,
    arrivals_from_counting,
    arrivals_from_interarrivals,
    count_at,
    counts_on_grid,
    interarrivals_from_arrivals,
    validate_counting_axioms,
)
from .errors import (
    AccuracyError,
    CapacityError,
    ConfigurationError,
    DegenerateTestError,
    IngestionError,
    InsufficientDataError,
    InvalidInterarrivalError,
    MrplabError,
    OutOfHorizonError,
    ParameterDomainError,
    SchemaError,
    UnsupportedModelError,
    UnsupportedOperationError,
)
from .exact import (
    BoxQuery,
    ExactResult,
    count_pmf,
    count_pmfs,
    cylinder_probability_density_form,
    example16_closed_form,
    joint_interarrival_probabilities,
    joint_interarrival_probability,
)
from .kernels import (
    BetaMarginal,
    DiracMixing,
    DiscreteMixing,
    GammaMarginal,
    GammaMixing,
    KernelSpec,
    MixingMeasure,
    ProductRectangleMixing,
    RateMap,
    UniformMarginal,
    kernel_cdf,
    kernel_pdf,
    kernel_sample,
    mixing_density,
    mixing_sample,
)
from .modelfile import (
    bundled_model_path,
    load_bundled_model,
    load_model_file,
    load_queries_file,
)
from .quadrature import QuadratureConfig
from .report import VerificationReport
from .rng import UniformStream, child_seed
from .special import log_beta, regularized_incomplete_gamma
from .stats import (
    conditional_iid_test,
    exchangeability_test,
    mc_vs_exact,
    mixed_poisson_check,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
