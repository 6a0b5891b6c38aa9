"""Shot-noise ratio distributions and cache-network delivery analysis.

The package has three layers:

* closed forms: stable laws (:mod:`snratio.stable`), shot-noise and
  shot-noise-ratio distributions (:mod:`snratio.shotnoise`), popularity
  profiles (:mod:`snratio.popularity`) and delivery probabilities with
  their bounds and gains (:mod:`snratio.delivery`);
* a Monte Carlo point-process simulator that validates every closed form
  independently (:mod:`snratio.simulate`);
* reproducible experiment sweeps with CSV output and a validation suite
  (:mod:`snratio.experiments`), driven by the ``snratio`` command line.
"""

from .delivery import (
    Alpha4Bounds,
    FadingBatch,
    Scenario,
    alignment_gain_approx,
    alpha4_bounds,
    baseline_delivery_prob,
    conditional_delivery_prob,
    conditional_delivery_prob_alpha4,
    conditional_delivery_prob_series,
    delivery_lower_bound,
    delivery_upper_bound,
    high_sir_approx,
    inverse_g_moments,
    mu_integral,
    total_delivery_prob,
)
from .errors import (
    ContractError,
    DegenerateScenarioError,
    MomentReliabilityWarning,
    ParameterDomainError,
    SeriesDivergenceError,
)
from .mc import Estimate, substream
from .popularity import PopularityProfile, ZipfSpec, decompose_densities, zipf
from .shotnoise import (
    RatioSpec,
    SeriesControl,
    diff_char_fn,
    diff_stable_params,
    normalize_diff,
    ratio_ccdf,
    ratio_ccdf_via_stable,
    ratio_laplace,
    reciprocal_gamma,
    shot_noise_pdf,
)
from .simulate import (
    DiskRegion,
    Totals,
    TrialConfig,
    default_region,
    empirical_ratio_ccdf,
    ratio_ccdf_estimates,
    ratio_laplace_estimate,
    ratio_samples,
    shot_noise_samples,
    simulate_sir_aligned,
    simulate_sir_baseline,
    simulate_total_aligned,
    simulate_total_baseline,
    simulate_totals,
    sir_samples_aligned,
    sir_samples_baseline,
)
from .stable import StableParams, char_fn, convert, unit_scale, zero_crossing_prob

__version__ = "0.1.0"

__all__ = [
    "Alpha4Bounds", "ContractError", "DegenerateScenarioError", "DiskRegion",
    "Estimate", "FadingBatch", "MomentReliabilityWarning", "ParameterDomainError",
    "PopularityProfile", "RatioSpec", "Scenario", "SeriesControl",
    "SeriesDivergenceError", "StableParams", "Totals", "TrialConfig", "ZipfSpec",
    "alignment_gain_approx", "alpha4_bounds", "baseline_delivery_prob", "char_fn",
    "conditional_delivery_prob", "conditional_delivery_prob_alpha4",
    "conditional_delivery_prob_series", "convert", "decompose_densities",
    "default_region", "delivery_lower_bound", "delivery_upper_bound", "diff_char_fn",
    "diff_stable_params", "empirical_ratio_ccdf", "high_sir_approx",
    "inverse_g_moments", "mu_integral", "normalize_diff", "ratio_ccdf",
    "ratio_ccdf_estimates", "ratio_ccdf_via_stable", "ratio_laplace",
    "ratio_laplace_estimate", "ratio_samples", "reciprocal_gamma", "shot_noise_pdf",
    "shot_noise_samples", "simulate_sir_aligned", "simulate_sir_baseline",
    "simulate_total_aligned", "simulate_total_baseline", "simulate_totals",
    "sir_samples_aligned", "sir_samples_baseline", "substream", "total_delivery_prob",
    "unit_scale", "zero_crossing_prob", "zipf",
]
