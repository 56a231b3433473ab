"""Column-sampled low-rank kernel ridge regression.

Approximate an n x n kernel matrix from p of its columns, solve the reduced
ridge problem in O(p^2 n), and analyze exactly (in fixed design) how large p
must be before nothing is lost: the answer scales with the ridge smoother's
degrees of freedom rather than with any matrix-approximation error.
"""

# numpy imports these on first use; import them with the package, so that no
# command pays for an import while it runs.
import numpy.fft  # noqa: F401
import numpy.random  # noqa: F401

from .errors import (
    ConfigError,
    DataError,
    NumericalError,
    NyridgeError,
    VacuousBoundError,
)
from .kernels import KernelSpec, gram
from .lowrank import (
    ColumnSelection,
    LowRankFactor,
    approx_error,
    feature_matrix,
    nystrom,
    pivoted_ichol,
    sample_columns,
)
from .regression import RidgeFit, krr_exact, krr_lowrank, predict
from .stats import (
    RateFit,
    bias_variance,
    dof,
    fit_rate,
    optimal_lambda,
    theorem_rank_bound,
    verify_theorem,
)
from .synthetic import (
    FixedDesignProblem,
    SpectrumSpec,
    draw_noise,
    eig_circulant,
    grid_problem,
)

__version__ = "0.1.0"

__all__ = [
    "ColumnSelection",
    "ConfigError",
    "DataError",
    "FixedDesignProblem",
    "KernelSpec",
    "LowRankFactor",
    "NumericalError",
    "NyridgeError",
    "RateFit",
    "RidgeFit",
    "SpectrumSpec",
    "VacuousBoundError",
    "approx_error",
    "bias_variance",
    "dof",
    "draw_noise",
    "eig_circulant",
    "feature_matrix",
    "fit_rate",
    "gram",
    "grid_problem",
    "krr_exact",
    "krr_lowrank",
    "nystrom",
    "optimal_lambda",
    "pivoted_ichol",
    "predict",
    "sample_columns",
    "theorem_rank_bound",
    "verify_theorem",
]
