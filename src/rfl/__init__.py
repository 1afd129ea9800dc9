"""Kernel interpolation of function samples and network training on node values.

The package covers the pipeline from reproducing kernels to trained
two-hidden-layer tanh networks: kernel families with Fourier data
(``kernels``), node sets on the unit cube (``geometry``), Gram systems,
projections and power functions (``rkhs``), spectral lower bounds
(``spectral``), scalar functionals with Hölder constants
(``functionals``), network width schedules and training (``nets``), and
reproducible studies plus a CLI (``experiments``, ``cli``).
"""

from __future__ import annotations

from .errors import (
    ArgumentError,
    ConfigError,
    DivergenceError,
    ResourceLimitError,
    RflError,
    SingularGramError,
    UnsupportedConfigurationError,
)
from .functionals import (
    BETAS,
    FUNCTIONAL_KINDS,
    LINKS,
    ODE_RHS,
    TargetFunctional,
)
from .geometry import (
    PointSet,
    fill_distance,
    halton_points,
    uniform_grid,
)
from .kernels import (
    FAMILIES,
    GAUSSIAN,
    INVERSE_MULTIQUADRIC,
    SOBOLEV,
    Kernel,
    m_d_constant,
)
from .nets import (
    TanhNetwork,
    TrainConfig,
    TrainReport,
    WidthSchedule,
    forward_batch,
    gradient,
    init,
    loss_mse,
    theoretical_widths,
    train,
)
from .rkhs import (
    GramSystem,
    RkhsFunction,
    build_gram,
    default_power_eval_set,
    power_function_sup,
    power_values,
    project,
    rkhs_inner,
    rkhs_norm,
    sample_unit_ball,
)
from .spectral import (
    SpectralReport,
    check_eigen_lower_bound,
    holder_constant_G,
    lambda_min_accurate,
    smallest_eigenvalue,
)
from .experiments import (
    Dataset,
    DecompositionResult,
    EigenRateStudy,
    FlmExperiment,
    FlmRunRow,
    PowerRateStudy,
    error_decomposition,
    flm_experiment,
    generate_dataset,
    kernel_label,
    rate_study_eigen,
    rate_study_power,
    theorem_metadata,
)

__version__ = "0.1.0"

__all__ = [
    "ArgumentError",
    "BETAS",
    "ConfigError",
    "Dataset",
    "DecompositionResult",
    "DivergenceError",
    "EigenRateStudy",
    "FAMILIES",
    "FlmExperiment",
    "FlmRunRow",
    "FUNCTIONAL_KINDS",
    "GAUSSIAN",
    "GramSystem",
    "INVERSE_MULTIQUADRIC",
    "Kernel",
    "LINKS",
    "ODE_RHS",
    "PointSet",
    "PowerRateStudy",
    "ResourceLimitError",
    "RflError",
    "RkhsFunction",
    "SOBOLEV",
    "SingularGramError",
    "SpectralReport",
    "TanhNetwork",
    "TargetFunctional",
    "TrainConfig",
    "TrainReport",
    "UnsupportedConfigurationError",
    "WidthSchedule",
    "build_gram",
    "check_eigen_lower_bound",
    "default_power_eval_set",
    "error_decomposition",
    "fill_distance",
    "flm_experiment",
    "forward_batch",
    "generate_dataset",
    "gradient",
    "halton_points",
    "holder_constant_G",
    "init",
    "kernel_label",
    "lambda_min_accurate",
    "loss_mse",
    "m_d_constant",
    "power_function_sup",
    "power_values",
    "project",
    "rate_study_eigen",
    "rate_study_power",
    "rkhs_inner",
    "rkhs_norm",
    "sample_unit_ball",
    "smallest_eigenvalue",
    "theorem_metadata",
    "theoretical_widths",
    "train",
    "uniform_grid",
]
