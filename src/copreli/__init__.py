"""copreli: how wrong is the independence assumption for a dependent system?

Quantifies the error committed when the dependent components of a series or
parallel system are modelled as independent, with dependence expressed
through copula families: survival/distribution functions, hazard-type error
identities, over-/under-assessment verdicts, and numerically certified
stochastic orderings, all cross-checked by Monte Carlo.
"""

from . import assessment, bivariate, copulas, exceptions, marginals, montecarlo, ordering, systems
from .assessment import *  # noqa: F403
from .bivariate import *  # noqa: F403
from .copulas import *  # noqa: F403
from .exceptions import *  # noqa: F403
from .marginals import *  # noqa: F403
from .montecarlo import *  # noqa: F403
from .ordering import *  # noqa: F403
from .systems import *  # noqa: F403

__version__ = "0.1.0"

_PUBLIC = (assessment, bivariate, copulas, exceptions, marginals, montecarlo, ordering, systems)
__all__ = ["__version__", *(name for module in _PUBLIC for name in module.__all__)]
