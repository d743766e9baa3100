"""relbound: lower confidence limits for coherent-system reliability.

Computes LCLs for system reliability from component-level lifetime data,
centered on a double bootstrap percentile whose resamples are generated by a
distribution transform instead of dataset resampling, alongside delta,
bootstrap-percentile, basic-bootstrap and conventional double-bootstrap
baselines, with a Monte Carlo harness for coverage studies.
"""

from .bootstrap import LclResult, bb_lcl, bootstrap_curve, bp_lcl, dbp_lcl_oracle, dbpt_lcl
from .censoring import CensoredDataset, censoring_count, impute, type2_censor
from .distributions import (
    EXPONENTIAL,
    LOGNORMAL,
    WEIBULL,
    ComponentModel,
    Exponential,
    Generic,
    LifetimeFamily,
    LogNormal,
    Weibull,
    component_reliability,
    family_from_name,
    sample_lifetimes,
    time_at_reliability,
)
from .errors import (
    ConfigError,
    DegenerateSampleError,
    EstimationError,
    RelboundError,
    StructureError,
    StructureParseError,
)
from .estimators import (
    MleEstimate,
    MomentEstimate,
    delta_curve,
    delta_lcl,
    fisher_information,
    mle_fit,
    moment_estimate,
    observed_information,
)
from .resampling import gen_aux_batch
from .simulation import (
    CoverageReport,
    LclRequest,
    MethodCell,
    StudyConfig,
    bend_back_violations,
    compute_lcl,
    default_t_grid,
    lcl_curve,
    run_coverage_study,
    runtime_scaling_probe,
    solve_identical_components,
)
from .structures import (
    ComponentRef,
    KOutOfN,
    Parallel,
    Series,
    StructureNode,
    eval_reliability,
    eval_reliability_bruteforce,
    eval_structure,
    num_components,
    parse_structure,
    structure_partials,
)

__version__ = "0.1.0"
