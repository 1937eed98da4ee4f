"""Spectral estimation and completion of partially observed low rank matrices.

Non-iterative pipeline: debiased gram matrices -> leading eigenvectors and
noise-floor-corrected eigenvalues -> sign resolution on the observed cells ->
completed matrix, with rank selection, plug-in confidence intervals, and a
replicated simulation harness.
"""

from .data import GroundTruth, ObservedMatrix
from .gram import (bias_adjust, expected_gram_left, expected_gram_right,
                   gram_left, gram_right, observed_fraction)
from .inference import (InferenceReport, build_report, confidence_intervals,
                        estimate_noise_variance, singular_value_covariance,
                        squared_sv_sum_variance, squared_sv_sum_variance_plugin)
from .io import (IoOptions, dumps_csv, dumps_json, load_dense, load_triplets,
                 project_omega, write_report, write_triplets)
from .metrics import (MetricRow, frobenius_mse, rmse_on_omega, sign_align,
                      sin_theta_sq, standardized_sv_stat, true_sv_sum_variance)
from .rank import RankDecision, estimate_rank, scree
from .signs import (CompletedMatrix, SIGN_BUDGET, assemble, complete,
                    enumerate_sign_residuals, predict_entries, predict_entry,
                    reference_signs, resolve_signs, resolve_signs_exhaustive,
                    resolve_signs_heuristic)
from .simulate import (SimConfig, SimResult, default_dim, generate_instance,
                       run_replicate, run_replicates)
from .spectral import (ClampWarning, EigenLadder, SpectralEstimate,
                       estimate_singular_triplets, right_ladder,
                       singular_values_from_eigs, sym_eig_desc,
                       top_gram_eigenpairs, trailing_eig_mean)

__version__ = "0.1.0"
