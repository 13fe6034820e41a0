"""Tabular-to-image encoding toolkit.

Three encoders (binarized radar silhouette, glyph-grid text, rank-matched
pixel assignment) behind one fit/encode surface, plus dataset ingestion,
repeated stratified cross-validation with nearest-neighbor probes,
classifier-comparison statistics, and encode-time benchmarking. The
``mdenc`` CLI wires these into end-to-end workflows.
"""

from ._doc import read_json, write_json
from .bench import TimingRecord, linearity_fit, run_timing_sweep
from .data import CVPlan, Dataset, generate_synthetic, load_csv, load_keel, make_cv_plan
from .encoders import EncoderModel, encode, encode_batch, fit
from .errors import MdencError
from .probe import EvalReport, balanced_accuracy, knn1_tabular, run_cv_eval
from .raster import PolarLayout
from .scaling import ScalerParams
from .stats import combined_5x2cv_f_test, f_distribution_sf, mean_ranks, wilcoxon_signed_rank

__version__ = "0.1.0"

__all__ = [
    "CVPlan",
    "Dataset",
    "EncoderModel",
    "EvalReport",
    "MdencError",
    "PolarLayout",
    "ScalerParams",
    "TimingRecord",
    "balanced_accuracy",
    "combined_5x2cv_f_test",
    "encode",
    "encode_batch",
    "f_distribution_sf",
    "fit",
    "generate_synthetic",
    "knn1_tabular",
    "linearity_fit",
    "load_csv",
    "load_keel",
    "make_cv_plan",
    "mean_ranks",
    "read_json",
    "run_cv_eval",
    "run_timing_sweep",
    "wilcoxon_signed_rank",
    "write_json",
]
