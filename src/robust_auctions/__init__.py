"""Robust learning of revenue-optimal auctions from corrupted valuation data.

Builds Myerson auctions that stay near-optimal when an adversary perturbs
the value distributions (or the samples drawn from them) within a small
Kolmogorov-Smirnov ball.
"""

from .adversary import (AdversaryError, corrupt, mhr_lb_radius,
                        regular_lb_radius)
from .ball import minimal_in_ks_ball
from .distributions import (AppxC1, AppxC2, Distribution, DownShiftSpike,
                            EqualRevenue, Exponential, PiecewiseLinkCDF,
                            PointMass, ProductDist, StepCDF, UpShift, Uniform,
                            dist_from_dict, empirical_from_samples,
                            ks_distance, parse_dist_spec)
from .harness import (CheckFailure, ConfigError, ExperimentConfig,
                      reproduce_counterexample1, run_sweep, write_rows)
from .links import (PiecewiseLinearFn, convex_envelope, link_forward,
                    link_inverse)
from .myerson import Mechanism, VirtualValueFn
from .pipeline import population_robust_myerson, robust_empirical_myerson
from .revenue import (RevenueEstimate, opt_single, rev_monte_carlo,
                      revenue_at_reserve, revenue_ratio_detail)

__version__ = "0.1.0"

__all__ = [
    "AdversaryError", "AppxC1", "AppxC2", "CheckFailure", "ConfigError",
    "Distribution", "DownShiftSpike", "EqualRevenue", "ExperimentConfig",
    "Exponential", "Mechanism", "PiecewiseLinearFn", "PiecewiseLinkCDF",
    "PointMass", "ProductDist", "RevenueEstimate", "StepCDF", "Uniform",
    "UpShift", "VirtualValueFn", "convex_envelope", "corrupt",
    "dist_from_dict", "empirical_from_samples", "ks_distance",
    "link_forward", "link_inverse", "mhr_lb_radius", "minimal_in_ks_ball",
    "opt_single", "parse_dist_spec", "population_robust_myerson",
    "regular_lb_radius", "reproduce_counterexample1", "rev_monte_carlo",
    "revenue_at_reserve", "revenue_ratio_detail",
    "robust_empirical_myerson", "run_sweep", "write_rows",
]
