"""driftstream: drift-aware stream learning with incremental naive Bayes,
Page-Hinkley / ADWIN drift detection, and retraining data-selection
strategies (last / mixed / next) under prequential evaluation."""

import os

# driftstream makes no BLAS call, yet numpy's OpenBLAS starts one worker
# thread per CPU when it loads, and each idle worker spins for about 0.1 s
# of CPU before it sleeps. One thread starts none. This must run before the
# first submodule import loads numpy; a value the caller set is kept, and
# once numpy is loaded the variable has no effect.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .adaptation import Controller, LabelError, PrequentialRecord, Records, RetrainEvent, Rows
from .detectors import Adwin, NoDetector, PageHinkley, make_detector
from .evaluation import (
    ExperimentConfig,
    ExperimentSummary,
    experiment_matrix,
    load_stream,
    rolling_mean,
    run_experiment,
)
from .naive_bayes import NaiveBayesModel
from .preprocess import (
    BinBoundaries,
    BoxCoxParams,
    EncoderState,
    apply_boxcox,
    bin_target,
    fit_boxcox,
    fit_target_bins,
    inverse_boxcox,
    truncate_category,
)
from .stream_core import (
    ConfigError,
    DataError,
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
