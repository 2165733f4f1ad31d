"""One rule for the numbers a caller hands the library: every public entry
reads an array through `as_float_matrix` (labels through the label reader)
and a scalar by the config classes' number rule, so malformed input raises
ValidationError and never a raw ValueError, TypeError or OverflowError."""
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpsm import (
    EmConfig,
    FitConfig,
    LabeledDataset,
    ShiftProtocolConfig,
    SoftmaxParams,
    SourceModels,
    SynthConfig,
    UnlabeledDataset,
    ValidationError,
    adjust_posterior,
    approximation_error,
    balanced_accuracy,
    bench,
    calibrate_intercept,
    classify,
    fit_cpsm,
    fit_mlls,
    fit_soft,
    log_likelihood,
    params_from_dict,
    params_from_prior,
    predict_proba,
)
from cpsm.adjust import check_posterior
from cpsm.data import as_float_matrix
from helpers import zero_params

_FEATURES = [[0.0], [1.0]]
_POSTERIOR = [[0.5, 0.5], [0.25, 0.75]]
_ONES = [[1.0, 1.0], [1.0, 1.0]]
_LABELS = [1, 2, 1, 2]
_MODEL = zero_params(2, 1)


def _model_document(**fields):
    doc = {"n_classes": 3, "n_features": 1, "intercepts": [0.5, -0.5], "slopes": [[1.0], [2.0]]}
    return {**doc, **fields}


# Each public numeric reader: a valid value for the argument it reads, and
# the call that hands it that argument.
_READERS = {
    "UnlabeledDataset-z": (_FEATURES, lambda v: UnlabeledDataset(z=v, x=_FEATURES)),
    "UnlabeledDataset-x": (_FEATURES, lambda v: UnlabeledDataset(z=_FEATURES, x=v)),
    "LabeledDataset-z": (_FEATURES, lambda v: LabeledDataset(z=v, x=_FEATURES, y=[1, 2])),
    "LabeledDataset-x": (_FEATURES, lambda v: LabeledDataset(z=_FEATURES, x=v, y=[1, 2])),
    "predict_proba": (_FEATURES, lambda v: predict_proba(_MODEL, v)),
    "fit_soft-features": (_FEATURES, lambda v: fit_soft(v, _POSTERIOR, FitConfig())),
    "fit_soft-targets": (_POSTERIOR, lambda v: fit_soft(_FEATURES, v, FitConfig())),
    "fit_soft-sample_weights": (
        [1.0, 2.0], lambda v: fit_soft(_FEATURES, _POSTERIOR, FitConfig(), sample_weights=v)
    ),
    "log_likelihood-features": (_FEATURES, lambda v: log_likelihood(_MODEL, v, _POSTERIOR)),
    "log_likelihood-targets": (_POSTERIOR, lambda v: log_likelihood(_MODEL, _FEATURES, v)),
    "SoftmaxParams-intercepts": ([0.5, -0.5], lambda v: SoftmaxParams(3, 1, v, [[1.0], [2.0]])),
    "SoftmaxParams-slopes": ([[1.0], [2.0]], lambda v: SoftmaxParams(3, 1, [0.5, -0.5], v)),
    "adjust_posterior-source": (_POSTERIOR, lambda v: adjust_posterior(v, _ONES, _ONES)),
    "adjust_posterior-numerator": (_ONES, lambda v: adjust_posterior(_POSTERIOR, v, _ONES)),
    "adjust_posterior-denominator": (_ONES, lambda v: adjust_posterior(_POSTERIOR, _ONES, v)),
    "check_posterior": (_POSTERIOR, check_posterior),
    "classify": (_POSTERIOR, classify),
    "approximation_error-method": (_POSTERIOR, lambda v: approximation_error(v, _POSTERIOR)),
    "approximation_error-oracle": (_POSTERIOR, lambda v: approximation_error(_POSTERIOR, v)),
    "balanced_accuracy-y_true": (_LABELS, lambda v: balanced_accuracy(v, _LABELS)),
    "balanced_accuracy-y_pred": (_LABELS, lambda v: balanced_accuracy(_LABELS, v)),
    "params_from_prior": ([0.25, 0.75], params_from_prior),
    "params_from_dict-intercepts": (
        [0.5, -0.5], lambda v: params_from_dict(_model_document(intercepts=v))
    ),
    "params_from_dict-slopes": (
        [[1.0], [2.0]], lambda v: params_from_dict(_model_document(slopes=v))
    ),
}

# The faults, each in the first cell of a valid value: a string, a pair (so
# that its row is ragged), an int past the float range, and NaN.
_FAULTS = ("string", "ragged", "huge", "nan")
_BAD_CELLS = {"string": "a", "huge": 10**400, "nan": math.nan}


def _corrupt(good: list, fault: str) -> list:
    if isinstance(good[0], list):
        return [_corrupt(good[0], fault)] + good[1:]
    cell = [good[0], good[0]] if fault == "ragged" else _BAD_CELLS[fault]
    return [cell] + good[1:]


# Scalar arguments, read by the number rule of the config classes: a bool or
# a non-number is refused, and an integer argument takes no float.
_SCALARS = [
    pytest.param(lambda: calibrate_intercept("1", 0.3, "bernoulli_z", 5), id="shift_slope-string"),
    pytest.param(lambda: calibrate_intercept(1, "0.3", "bernoulli_z", 5), id="target_prior-string"),
    pytest.param(lambda: calibrate_intercept(1, True, "bernoulli_z", 5), id="target_prior-bool"),
    pytest.param(lambda: calibrate_intercept(1, 0.3, "gaussian_z", 2.5), id="d_z-fraction"),
    pytest.param(lambda: calibrate_intercept(1, 0.3, "gaussian_z", 5.0), id="d_z-float"),
    pytest.param(lambda: classify(_POSTERIOR, "0.5"), id="threshold-string"),
    pytest.param(lambda: classify(_POSTERIOR, True), id="threshold-bool"),
]

_CASES = [
    pytest.param(lambda call=call, bad=_corrupt(good, fault): call(bad), id=f"{reader}-{fault}")
    for reader, (good, call) in _READERS.items()
    for fault in _FAULTS
] + _SCALARS


@pytest.mark.parametrize("call", _CASES)
def test_malformed_numbers_are_validation_errors(call):
    with pytest.raises(ValidationError):
        call()


@pytest.mark.parametrize("reader", _READERS)
def test_each_reader_takes_its_valid_value(reader):
    good, call = _READERS[reader]
    call(good)


@pytest.mark.parametrize("slopes", [[[1.0], [2.0]]], ids=["matrix"])
def test_a_model_does_not_alias_the_callers_arrays(slopes):
    intercepts, slopes = np.array([0.5, -0.5]), np.array(slopes)
    params = SoftmaxParams(3, 1, intercepts, slopes)
    intercepts[:] = 9.0
    slopes[:] = 9.0
    assert params.intercepts.tolist() == [0.5, -0.5]
    assert params.slopes.tolist() == [[1.0], [2.0]]


# A target whose z is 1 column wide and whose [z | x] is 3.
_NARROW_Z = UnlabeledDataset(z=np.zeros((4, 1)), x=np.zeros((4, 2)))


def _naive_adapt_of_a_narrower_target():
    # Source z has 2 columns and x 1, so [z | x] has the posterior model's 3
    # columns and only z is of another width.
    source = LabeledDataset(z=np.zeros((4, 2)), x=np.zeros((4, 1)), y=_LABELS)
    return bench.adapt("naive", bench.SourceFit(source), _NARROW_Z, EmConfig())


# Each read site of an array of fixed size, given one wrong size, and the
# shape rule's message. A model's arrays are read at (K-1,) and (K-1, d) and
# never reshaped, so transposed or flat slopes are refused, not scrambled.
_TRANSPOSED = np.arange(6.0).reshape(3, 2)
_WRONG_SIZES = {
    "SoftmaxParams-intercepts": (
        lambda: SoftmaxParams(3, 1, [0.5, -0.5, 0.0], [[1.0], [2.0]]),
        "intercepts shape (3,) != (2,)",
    ),
    "SoftmaxParams-slopes": (
        lambda: SoftmaxParams(3, 1, [0.5, -0.5], [[1.0, 2.0], [2.0, 1.0]]),
        "slopes shape (2, 2) != (2, 1)",
    ),
    "predict_proba": (lambda: predict_proba(_MODEL, [[0.0, 1.0]]), "features shape (1, 2) != (1, 1)"),
    "fit_soft-sample_weights": (
        lambda: fit_soft(_FEATURES, _POSTERIOR, FitConfig(), sample_weights=[1.0, 2.0, 3.0]),
        "sample_weights shape (3,) != (2,)",
    ),
    "check_posterior": (
        lambda: check_posterior(_POSTERIOR, shape=(3, None)), "posterior shape (2, 2) != (3, 2)"
    ),
    "adjust_posterior-numerator": (
        lambda: adjust_posterior(_POSTERIOR, [[1.0, 1.0]], _ONES), "numerator shape (1, 2) != (2, 2)"
    ),
    "adjust_posterior-denominator": (
        lambda: adjust_posterior(_POSTERIOR, _ONES, [[1.0, 1.0, 1.0]] * 2),
        "denominator shape (2, 3) != (2, 2)",
    ),
    "UnlabeledDataset": (lambda: UnlabeledDataset(z=_FEATURES, x=[[0.0]]), "x shape (1, 1) != (2, 1)"),
    "params_from_prior": (lambda: params_from_prior([[0.25, 0.75]]), "prior must be a 1-D vector, got ndim=2"),
    "transposed-slopes": (
        lambda: SoftmaxParams(3, 3, np.zeros(2), _TRANSPOSED), "slopes shape (3, 2) != (2, 3)"
    ),
    "transposed-slopes-document": (
        lambda: params_from_dict(_model_document(
            n_features=3, intercepts=[0.0, 0.0], slopes=_TRANSPOSED.tolist()
        )),
        "slopes shape (3, 2) != (2, 3)",
    ),
    "flat-slopes": (
        lambda: SoftmaxParams(3, 1, [0.5, -0.5], [1.0, 2.0]), "slopes must be a 2-D matrix, got ndim=1"
    ),
    "matrix-intercepts": (
        lambda: SoftmaxParams(2, 1, [[0.5]], [[1.0]]), "intercepts must be a 1-D vector, got ndim=2"
    ),
    # A model's sizes (or another array) fix these shapes. A zero-round fit
    # never scores z, yet its conditional model still fixes z's width.
    "_problem-features": (
        lambda: fit_soft(_FEATURES, _POSTERIOR, FitConfig(), init=zero_params(2, 2)),
        "features shape (2, 1) != (2, 2)",
    ),
    "_problem-targets": (
        lambda: log_likelihood(zero_params(3, 1), _FEATURES, _POSTERIOR),
        "soft targets shape (2, 2) != (2, 3)",
    ),
    "fit_cpsm-z": (
        lambda: fit_cpsm(SourceModels(zero_params(2, 3), zero_params(2, 2)), _NARROW_Z, EmConfig()),
        "target z shape (4, 1) != (4, 2)",
    ),
    "fit_cpsm-z-zero-rounds": (
        lambda: fit_cpsm(SourceModels(zero_params(2, 3), zero_params(2, 2)), _NARROW_Z,
                         EmConfig(max_em_iters=0)),
        "target z shape (4, 1) != (4, 2)",
    ),
    "adapt-naive-z": (_naive_adapt_of_a_narrower_target, "target z shape (4, 1) != (4, 2)"),
    "fit_cpsm-posterior-width": (
        lambda: fit_cpsm(SourceModels(zero_params(2, 4), zero_params(2, 1)), _NARROW_Z, EmConfig()),
        "features shape (4, 3) != (4, 4)",
    ),
    "fit_mlls-prior": (
        lambda: fit_mlls(zero_params(2, 3), [0.5, 0.3, 0.2], _NARROW_Z, EmConfig()),
        "prior shape (3,) != (2,)",
    ),
    "classify-threshold": (
        lambda: classify([[0.2, 0.3, 0.5]], threshold=0.5), "posterior shape (1, 3) != (1, 2)"
    ),
    "approximation_error-oracle": (
        lambda: approximation_error(_POSTERIOR, [[0.5, 0.5]]),
        "oracle_posterior shape (1, 2) != (2, 2)",
    ),
}


@pytest.mark.parametrize("site", _WRONG_SIZES)
def test_each_site_reads_its_array_at_its_shape(site):
    call, message = _WRONG_SIZES[site]
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        call()


_CELLS = st.one_of(
    st.floats(),
    st.text(max_size=4),
    st.none(),
    st.integers(min_value=10**308, max_value=10**400).map(lambda i: i * (-1) ** (i % 2)),
)


@settings(max_examples=300, deadline=None)
@given(st.recursive(_CELLS, lambda inner: st.lists(inner, max_size=3), max_leaves=10),
       st.sampled_from([(None,), (2,), (None, None), (None, 1), (2, None), (1, 2)]))
def test_the_reader_gives_finite_floats_or_a_validation_error(value, shape):
    try:
        out = as_float_matrix(value, "value", shape=shape)
    except ValidationError:
        return
    assert out.dtype == np.float64
    assert np.all(np.isfinite(out))
    assert out.ndim == len(shape)
    assert all(size is None or got == size for got, size in zip(out.shape, shape))


def _as_text(good: list, kind: str):
    """`good` with its first cell written as the text of its own number, as a
    list, or as a numpy array of str, bytes or objects."""
    if kind == "list":
        if isinstance(good[0], list):
            return [_as_text(good[0], kind)] + good[1:]
        return [repr(good[0])] + good[1:]
    dtype = {"str-array": str, "bytes-array": bytes, "object-array": object}[kind]
    return np.array(good).astype(str).astype(dtype)


@pytest.mark.parametrize("kind", ["list", "str-array", "bytes-array", "object-array"])
@pytest.mark.parametrize("reader", _READERS)
def test_numeric_text_is_not_a_number(reader, kind):
    # numpy parses "1.5" as a float; the number rule, like a config's, does not.
    good, call = _READERS[reader]
    with pytest.raises(ValidationError, match="must be"):
        call(_as_text(good, kind))


@pytest.mark.parametrize("labels", [[True, True], np.array([True, False, True])])
def test_booleans_are_not_labels(labels):
    with pytest.raises(ValidationError, match="y_true must be integers"):
        balanced_accuracy(labels, [1] * len(labels))
    with pytest.raises(ValidationError, match="y_pred must be integers"):
        balanced_accuracy([1] * len(labels), labels)
    with pytest.raises(ValidationError, match="labels must be integers"):
        LabeledDataset(z=np.zeros((len(labels), 1)), x=np.zeros((len(labels), 1)), y=labels)


_GAUSSIAN = {"dataset_kind": "gaussian_z", "n_source": 10, "n_target": 10}
_PROTOCOL = {"base_rate": 0.2, "shift_delta": 0.1, "n_source": 10, "n_target": 10}


@pytest.mark.parametrize("huge", [10**400, -(10**400)], ids=["positive", "negative"])
@pytest.mark.parametrize("name, call", [
    ("shift_slope", lambda v: calibrate_intercept(v, 0.05, "gaussian_z", 5)),
    ("target_prior", lambda v: calibrate_intercept(5.0, v, "bernoulli_z", 5)),
    ("shift_slope", lambda v: SynthConfig(**_GAUSSIAN, shift_slope=v)),
    ("target_prior", lambda v: SynthConfig(**_GAUSSIAN, target_prior=v)),
    ("source_cond_prob", lambda v: SynthConfig(**_GAUSSIAN, source_cond_prob=v)),
    ("base_rate", lambda v: ShiftProtocolConfig(**{**_PROTOCOL, "base_rate": v})),
    ("shift_delta", lambda v: ShiftProtocolConfig(**{**_PROTOCOL, "shift_delta": v})),
    ("tolerance", lambda v: FitConfig(tolerance=v)),
    ("l2_penalty", lambda v: FitConfig(l2_penalty=v)),
    ("em_tolerance", lambda v: EmConfig(em_tolerance=v)),
    ("threshold", lambda v: classify(_POSTERIOR, v)),
])
def test_an_integer_past_the_float_range_is_named(name, call, huge):
    with pytest.raises(ValidationError, match=f"^{name} must be a real number within"):
        call(huge)
