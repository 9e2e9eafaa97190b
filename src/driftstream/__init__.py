"""driftstream: drift-aware stream learning with incremental naive Bayes,
Page-Hinkley / ADWIN drift detection, and retraining data-selection
strategies (last / mixed / next) under prequential evaluation."""

from .adaptation import Controller, LabelError, PrequentialRecord, Records, RetrainEvent, Rows
from .detectors import Adwin, NoDetector, PageHinkley, make_detector
from .evaluation import (
    ConfigError,
    CsvSource,
    ExperimentConfig,
    ExperimentSummary,
    SynthSource,
    experiment_matrix,
    grid_search,
    rolling_mean,
    run_experiment,
)
from .naive_bayes import NaiveBayesModel
from .preprocess import (
    BinBoundaries,
    BoxCoxParams,
    EncodedInstance,
    EncoderState,
    apply_boxcox,
    bin_target,
    fit_boxcox,
    fit_target_bins,
    inverse_boxcox,
    truncate_category,
)
from .stream_core import (
    FeatureSchema,
    RowError,
    SchemaError,
    StreamParseError,
    Table,
    open_csv_stream,
)
from .synth import (
    DriftSpec,
    SynthConfig,
    SynthStream,
    generate,
    paper_like_config,
    write_concept_sidecar,
    write_csv,
)

__version__ = "0.1.0"
