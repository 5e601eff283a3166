"""copreli: how wrong is the independence assumption for a dependent system?

Quantifies the error committed when the dependent components of a series or
parallel system are modelled as independent, with dependence expressed
through copula families: survival/distribution functions, hazard-type error
identities, over-/under-assessment verdicts, and numerically certified
stochastic orderings, all cross-checked by Monte Carlo.
"""

from .assessment import ErrorReport, SystemPair, classify_assessment
from .bivariate import (
    BlockBasuBVE,
    MarshallOlkinBVE,
    gumbel_i_copula_sf,
    gumbel_i_sf,
    gumbel_ii_copula_sf,
    gumbel_ii_sf,
    gumbel_iii_copula_sf,
    gumbel_iii_sf,
)
from .copulas import (
    FAMILIES,
    Amh,
    Clayton,
    Copula,
    Fgm,
    FischerHinzmann,
    FischerKock,
    GumbelBarnet,
    GumbelHougaard,
    Independence,
    LinearSpearman,
    MarshallOlkin,
    NelsenTen,
    RluExtended,
    parse_copula,
    poincare_survival,
)
from .exceptions import (
    CapacityError,
    ConfigError,
    CopreliError,
    DomainError,
    IntegrationError,
    SamplingError,
    SingularityError,
)
from .marginals import Exponential, Weibull, parse_marginal
from .montecarlo import (
    SampleBatch,
    empirical_system_sf,
    finite_difference_audit,
    sample_bivariate,
)
from .ordering import (
    MonotonicityVerdict,
    OrderingReport,
    OrderingVerdict,
    build_ordering_report,
    check_lr_linear_spearman,
    check_radial_duality,
    classify_monotonicity,
    default_grid,
    infer_ordering,
    ratio_function,
    verify_theorem1,
)
from .systems import ReliabilityCurve, System

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # marginals
    "Exponential", "Weibull", "parse_marginal",
    # copulas
    "Copula", "Independence", "Fgm", "FischerKock", "Clayton", "GumbelHougaard",
    "GumbelBarnet", "NelsenTen", "MarshallOlkin", "Amh", "FischerHinzmann",
    "RluExtended", "LinearSpearman", "FAMILIES", "parse_copula",
    "poincare_survival",
    # systems
    "System", "ReliabilityCurve",
    # classic bivariate exponentials
    "gumbel_i_sf", "gumbel_i_copula_sf", "gumbel_ii_sf", "gumbel_ii_copula_sf",
    "gumbel_iii_sf", "gumbel_iii_copula_sf", "MarshallOlkinBVE", "BlockBasuBVE",
    # error assessment
    "SystemPair", "ErrorReport", "classify_assessment",
    # ordering
    "MonotonicityVerdict", "OrderingVerdict", "OrderingReport", "default_grid",
    "ratio_function", "classify_monotonicity", "infer_ordering",
    "verify_theorem1", "check_radial_duality", "check_lr_linear_spearman",
    "build_ordering_report",
    # monte carlo
    "SampleBatch", "sample_bivariate", "empirical_system_sf",
    "finite_difference_audit",
    # exceptions
    "CopreliError", "DomainError", "ConfigError", "SingularityError",
    "CapacityError", "IntegrationError", "SamplingError",
]
