"""Lifelong evaluation harness and baselines for drifting tabular streams.

The package covers the full loop of a code-submission benchmark: synthesize
or load chronologically ordered binary-classification streams, cut them
into blocks, drive predictors through the predict-then-reveal protocol
under per-dataset time budgets, score blocks with ROC AUC, and turn many
scored submissions into tie-broken, mergeable leaderboards.  An
incrementally grown gradient-boosted tree baseline with pluggable drift
policies ships both as an in-process adapter and as an external program
speaking the harness file protocol.
"""

from .data import (
    BlockPlan,
    BlockPlanError,
    ChronoDataset,
    DatasetFormatError,
    FeatureKind,
    FeatureSchema,
    load_dataset,
    plan_blocks,
    save_dataset,
)
from .encoding import EncoderKind, FittedEncoder, encode_dataset, fit_encoder, transform_column
from .harness import (
    ConstantPredictor,
    DatasetRef,
    EvaluationTrace,
    PhaseConfig,
    PredictorAdapter,
    PredictorError,
    PredictorTimeout,
    SubprocessPredictor,
    run_lifelong,
    run_suite,
)
from .metrics import UndefinedAUCError, auc
from .baseline import (
    BaselineConfig,
    BaselinePredictor,
    BoostedEnsemble,
    TrainingPool,
    extend,
    fit_initial,
    predict_scores,
    select_training_pool,
)
from .ranking import (
    Leaderboard,
    SubmissionEntry,
    average_rank,
    build_leaderboard,
    merge_bundles,
    rank_within_dataset,
    render_leaderboard_csv,
)
from .synth import DATASET_SHAPES, DriftGenSpec, desk_spec, generate_drift_stream

__version__ = "0.1.0"
