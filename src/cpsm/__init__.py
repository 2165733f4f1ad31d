"""Posterior adaptation under conditional probability shift.

A source-trained probabilistic classifier is corrected for a target domain
where the class distribution given a chosen conditioning feature block has
changed, using EM on unlabeled target data. Includes synthetic generators,
a resampling shift protocol, evaluation metrics, and a benchmark CLI.
"""

from .adjust import (
    AdjustResult,
    adjust_posterior,
)
from .data import (
    LabeledDataset,
    UnlabeledDataset,
    read_dataset_csv,
    read_labels_csv,
    write_dataset_csv,
    write_labels_csv,
)
from .em import (
    CpsmFit,
    EmConfig,
    SourceModels,
    fit_cpsm,
    fit_mlls,
    fit_to_dict,
    load_fit_json,
    naive_posterior,
    params_from_dict,
    params_from_prior,
    params_to_dict,
    save_fit_json,
)
from .errors import CpsmError, NumericalError, ValidationError
from .metrics import (
    MetricRow,
    approximation_error,
    balanced_accuracy,
    classify,
    fit_oracle,
)
from .softmax import (
    FitConfig,
    SoftmaxParams,
    fit_hard,
    fit_soft,
    log_likelihood,
    log_likelihood_grad,
    predict_proba,
)
from .synth import (
    ShiftProtocolConfig,
    SynthConfig,
    calibrate_intercept,
    generate_pair,
    induce_conditional_shift,
)

__all__ = [
    "AdjustResult",
    "CpsmError",
    "CpsmFit",
    "EmConfig",
    "FitConfig",
    "LabeledDataset",
    "MetricRow",
    "NumericalError",
    "ShiftProtocolConfig",
    "SoftmaxParams",
    "SourceModels",
    "SynthConfig",
    "UnlabeledDataset",
    "ValidationError",
    "adjust_posterior",
    "approximation_error",
    "balanced_accuracy",
    "calibrate_intercept",
    "classify",
    "fit_cpsm",
    "fit_hard",
    "fit_mlls",
    "fit_oracle",
    "fit_soft",
    "fit_to_dict",
    "generate_pair",
    "induce_conditional_shift",
    "load_fit_json",
    "log_likelihood",
    "log_likelihood_grad",
    "naive_posterior",
    "params_from_dict",
    "params_from_prior",
    "params_to_dict",
    "predict_proba",
    "read_dataset_csv",
    "read_labels_csv",
    "save_fit_json",
    "write_dataset_csv",
    "write_labels_csv",
]

__version__ = "0.1.0"
