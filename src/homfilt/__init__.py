"""Reduced-order nonlinear filtering for slow/fast stochastic systems.

Builds the averaged (reduced) model of a two-timescale diffusion from the
invariant measure of its fast block, runs full- and reduced-dimension particle
filters on a shared observation path, and measures the rate at which the
reduced filter approaches the slow marginal of the full one.
"""

__version__ = "0.1.0"

from .averaging import (HomogenizedModel, StationaryAverager, TabulationGrid,
                        build_homogenized, load_tabulated, matrix_sqrt_psd,
                        save_tabulated)
from .errors import (BlowUpError, HomfiltError, ModelShapeError, NotPSDError,
                     NotSymmetricError, StudyAbortError, UsageError,
                     WeightCollapseError)
from .filtering import (FilterBatch, ess, gaussian_prior, kalman_filter,
                        run_full_filter, run_homogenized_filter,
                        systematic_resample, weight_update)
from .measures import EmpiricalMeasure, TestFunctionBasis, default_basis, metric_d
from . import catalog
from .rng import stream
from .models import (MultiscaleModel, ObservationPath, blow_up_steps,
                     fast_step, multiscale_step, simulate_frozen_fast,
                     simulate_multiscale, simulate_observations, step_count)
from .study import (ConvergenceReport, StudyConfig, fit_loglog_slope,
                    replication_filters, replication_paths, report_csv,
                    report_text, run_replication, run_replications, run_study,
                    summarize)
