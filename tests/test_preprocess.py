"""Tests for the feature pipeline: prefix truncation, Box-Cox, target
binning, and the encoder built from its warm-up rows."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from driftstream.preprocess import (
    FIXED_DAYS,
    TERTILE,
    BinBoundaries,
    BoxCoxParams,
    DegenerateInputError,
    EncoderState,
    apply_boxcox,
    bin_target,
    boxcox_log_likelihood,
    fit_boxcox,
    fit_target_bins,
    inverse_boxcox,
    truncate_category,
)
from driftstream.stream_core import CATEGORICAL, NUMERIC, UNLABELED, DictColumn, FeatureSchema, Table


# -- truncate_category --------------------------------------------------------


def test_truncate_basic():
    assert truncate_category("10234567", 4) == "1023"


def test_truncate_shorter_value_unchanged():
    assert truncate_category("ab", 4) == "ab"


def test_truncate_empty():
    assert truncate_category("", 4) == ""


def test_truncate_rejects_zero_prefix():
    with pytest.raises(ValueError):
        truncate_category("abc", 0)


# -- fit_boxcox ---------------------------------------------------------------


def grid_scan_lambda(values):
    """Independent oracle: dense likelihood grid over [-5, 5]."""
    grid = np.linspace(-5, 5, 2001)
    lls = [stats.boxcox_llf(l, values) for l in grid]
    return grid[int(np.argmax(lls))]


def test_lognormal_lambda_near_zero():
    rng = np.random.default_rng(0)
    x = np.exp(rng.standard_normal(10000))
    params = fit_boxcox(x)
    assert abs(params.lam) < 0.1
    assert abs(params.lam - grid_scan_lambda(x)) < 0.05
    assert params.shift == 0.0


def test_gaussian_lambda_near_one():
    rng = np.random.default_rng(1)
    x = rng.normal(100, 5, size=10000)
    params = fit_boxcox(x)
    assert abs(params.lam - 1.0) < 0.3
    assert abs(params.lam - grid_scan_lambda(x)) < 0.05


def test_likelihood_matches_scipy():
    rng = np.random.default_rng(2)
    x = rng.gamma(2.0, 3.0, size=500)
    for lam in (-1.0, 0.0, 0.5, 2.0):
        assert boxcox_log_likelihood(x, lam) == pytest.approx(
            float(stats.boxcox_llf(lam, x)), rel=1e-9
        )


def test_scipy_mle_agrees():
    rng = np.random.default_rng(3)
    x = rng.gamma(2.0, 3.0, size=5000)
    params = fit_boxcox(x)
    _, scipy_lam = stats.boxcox(x)
    assert abs(params.lam - scipy_lam) < 0.05


def test_values_containing_zero_get_shift():
    x = np.concatenate([[0.0], np.linspace(1, 10, 20)])
    params = fit_boxcox(x)
    assert params.shift == pytest.approx(1e-6)


def test_all_equal_is_degenerate():
    with pytest.raises(DegenerateInputError):
        fit_boxcox([5.0] * 20)


def test_too_few_values_rejected():
    with pytest.raises(ValueError):
        fit_boxcox([1.0, 2.0, 3.0])


# -- apply / inverse ----------------------------------------------------------


def test_apply_half_lambda():
    assert apply_boxcox(4.0, BoxCoxParams(0.5)) == pytest.approx(2.0)


def test_apply_log_branch():
    assert apply_boxcox(math.e, BoxCoxParams(0.0)) == pytest.approx(1.0)


def test_apply_fixed_point_one():
    for lam in (-2.0, -0.5, 0.0, 0.5, 3.0):
        assert apply_boxcox(1.0, BoxCoxParams(lam)) == pytest.approx(0.0)


def test_apply_domain_error():
    with pytest.raises(ValueError):
        apply_boxcox(-1.0, BoxCoxParams(0.5, shift=0.0))


@settings(max_examples=200)
@given(
    lo=st.floats(1e-3, 1e3),
    ratio=st.floats(1.000001, 100.0),
    lam=st.floats(-2, 2),
)
def test_apply_is_strictly_monotone(lo, ratio, lam):
    # a minimum relative gap keeps the comparison above double resolution
    hi = lo * ratio
    p = BoxCoxParams(lam)
    assert apply_boxcox(lo, p) < apply_boxcox(hi, p)


def roundtrip_condition(lam, y):
    """Relative error amplification of y -> x for one ulp of error in y."""
    if abs(lam) < 1e-8:
        return abs(y)
    return abs(lam * y / (lam * y + 1.0)) / abs(lam)


def test_inverse_round_trip_grid():
    """1e-9 relative error wherever the inverse is well conditioned in
    double precision; elsewhere exact up to the conditioning bound. At the
    far extremes (|lam * ln x| beyond ~700 the forward value underflows and
    the inverse raises a domain error instead of fabricating a value."""
    eps = np.finfo(float).eps
    checked_tight = 0
    for lam in np.linspace(-5, 5, 21):
        p = BoxCoxParams(float(lam))
        for x in np.geomspace(1e-3, 1e6, 19):
            x = float(x)
            y = apply_boxcox(x, p)
            if abs(lam) > 1e-8 and lam * y + 1.0 <= 0.0:
                with pytest.raises(ValueError):
                    inverse_boxcox(y, p)
                continue
            back = inverse_boxcox(y, p)
            kappa = max(roundtrip_condition(float(lam), y), 1.0)
            assert abs(back - x) / x <= max(1e-9, 32 * eps * kappa)
            if 32 * eps * kappa <= 1e-9:
                assert back == pytest.approx(x, rel=1e-9)
                checked_tight += 1
    assert checked_tight >= 300


def test_inverse_round_trip_with_shift():
    p = BoxCoxParams(0.7, shift=2.5)
    for x in (-2.0, 0.0, 3.0, 100.0):
        assert inverse_boxcox(apply_boxcox(x, p), p) == pytest.approx(x, abs=1e-9)


# -- target binning -----------------------------------------------------------


def test_fixed_days_edges():
    bins = fit_target_bins([], mode=FIXED_DAYS, day_edges=(6, 39))
    assert bins.upper_edges == (6.0, 39.0)
    assert bins.unit_divisor == 24.0
    assert bins.n_classes == 3


def test_tertile_on_one_to_nine():
    bins = fit_target_bins(list(range(1, 10)), mode=TERTILE)
    # oracle: numpy's linear-interpolation quantiles
    assert bins.upper_edges[0] == pytest.approx(np.quantile(range(1, 10), 1 / 3))
    assert bins.upper_edges[1] == pytest.approx(np.quantile(range(1, 10), 2 / 3))
    assert bins.upper_edges[0] == pytest.approx(11 / 3, abs=1e-9)
    assert bins.upper_edges[1] == pytest.approx(19 / 3, abs=1e-9)


def test_tertile_tied_values_degenerate():
    with pytest.raises(DegenerateInputError):
        fit_target_bins([5.0, 5.0, 5.0], mode=TERTILE)


def test_tertile_too_few_values():
    with pytest.raises(ValueError):
        fit_target_bins([1.0, 2.0], mode=TERTILE)


def test_unknown_mode():
    with pytest.raises(ValueError):
        fit_target_bins([1, 2, 3], mode="quartile")


DAY_BINS = BinBoundaries((6, 39), unit_divisor=24.0)


def test_bin_100h_is_short():
    assert bin_target(100.0, DAY_BINS) == 0


def test_bin_936h_is_medium():
    assert bin_target(936.0, DAY_BINS) == 1


def test_bin_960h_is_large():
    assert bin_target(960.0, DAY_BINS) == 2


def test_bin_day_boundaries_exact():
    assert bin_target(6 * 24.0, DAY_BINS) == 0  # day 6 still short
    assert bin_target(7 * 24.0, DAY_BINS) == 1
    assert bin_target(39 * 24.0, DAY_BINS) == 1  # day 39 still medium
    assert bin_target(40 * 24.0, DAY_BINS) == 2


def test_bin_negative_rejected():
    with pytest.raises(ValueError):
        bin_target(-1.0, DAY_BINS)


@given(st.floats(0, 1e6))
def test_bin_exhaustive_and_exclusive(hours):
    label = bin_target(hours, DAY_BINS)
    assert label in (0, 1, 2)


def test_tertile_bins_balance_fitting_sample():
    rng = np.random.default_rng(4)
    x = rng.uniform(0, 1000, size=999)
    bins = fit_target_bins(x, mode=TERTILE)
    counts = np.bincount([bin_target(v, bins) for v in x], minlength=3)
    assert max(counts) - min(counts) <= 1


def test_bin_boundaries_must_ascend():
    with pytest.raises(ValueError):
        BinBoundaries((39, 6))


# -- encoder ------------------------------------------------------------------


SCHEMA = FeatureSchema((("mat", CATEGORICAL), ("value", NUMERIC)), "label")


def insts(pairs):
    mats, values = zip(*pairs)
    return Table(np.arange(len(pairs)), np.full(len(pairs), UNLABELED),
                 {"mat": DictColumn.from_tokens(mats), "value": np.array(values)})


def row(index, mat, value):
    return Table(np.array([index]), np.array([UNLABELED]),
                 {"mat": DictColumn.from_tokens([mat]), "value": np.array([value])})


def test_encode_known_and_unseen_category():
    enc = EncoderState(SCHEMA, insts([("A", 1.0), ("B", 2.0)]))
    assert enc.cat_maps["mat"] == {"A": 0, "B": 1}
    assert enc.encode_many(row(9, "B", 0.0))[0][0, 0] == 1
    assert enc.encode_many(row(9, "C", 0.0))[0][0, 0] == 2
    assert enc.cat_cardinalities == (3,)


def test_encode_numeric_boxcox_composition():
    enc = EncoderState(SCHEMA, insts([("A", float(v)) for v in range(1, 21)]),
                       boxcox_features=("value",))
    enc.boxcox["value"] = BoxCoxParams(0.5, 0.0)  # pin for the arithmetic check
    _, nums = enc.encode_many(row(0, "A", 4.0))
    assert nums[0, 0] == pytest.approx(2.0)


def test_prefix_truncation_applied_before_mapping():
    enc = EncoderState(SCHEMA, insts([("10234567", 1.0), ("10239999", 2.0), ("55511", 3.0)]),
                       prefix_len={"mat": 4})
    assert enc.cat_maps["mat"] == {"1023": 0, "5551": 1}


def test_fit_maps_categories_in_order_of_first_appearance_in_the_rows():
    # the vocabulary holds an unused token and lists the others out of order
    mats = DictColumn(np.array([2, 0, 2, 1]), ("x", "y", "z", "unused"))
    enc = EncoderState(SCHEMA, Table(np.arange(4), np.full(4, UNLABELED),
                                     {"mat": mats, "value": np.ones(4)}))
    assert enc.cat_maps["mat"] == {"z": 0, "x": 1, "y": 2}
    cats, _ = enc.encode_many(insts([("unused", 1.0), ("y", 1.0), ("z", 1.0)]))
    assert cats[:, 0].tolist() == [3, 2, 0]


def test_prefix_truncated_tokens_that_collide_share_one_index():
    enc = EncoderState(SCHEMA, insts([("abX", 1.0), ("cd", 2.0), ("abY", 3.0), ("a", 4.0)]),
                       prefix_len={"mat": 2})
    assert enc.cat_maps["mat"] == {"ab": 0, "cd": 1, "a": 2}
    cats, _ = enc.encode_many(insts([("abZ", 1.0), ("a", 1.0), ("cdef", 1.0), ("x", 1.0)]))
    assert cats[:, 0].tolist() == [0, 2, 1, 3]


def test_encode_many_follows_each_tables_vocabulary():
    enc = EncoderState(SCHEMA, insts([("A", 1.0), ("B", 2.0)]))
    table = insts([("B", 1.0), ("C", 1.0), ("A", 1.0)])
    for rows in (table, insts([("A", 1.0), ("B", 1.0)]), table[1:], table):
        cats, _ = enc.encode_many(rows)
        expected = [{"A": 0, "B": 1}.get(t, 2) for t in rows.columns["mat"].tokens()]
        assert cats[:, 0].tolist() == expected


def test_encoder_freeze_is_deterministic():
    enc = EncoderState(SCHEMA, insts([("A", 1.0), ("B", 2.0)]))
    probe = row(3, "A", 7.5)
    a = enc.encode_many(probe)
    b = enc.encode_many(probe)
    assert (a[0] == b[0]).all() and (a[1] == b[1]).all()


def test_boxcox_on_non_numeric_feature_rejected():
    with pytest.raises(ValueError):
        EncoderState(SCHEMA, insts([("A", 1.0)]), boxcox_features=("mat",))


@pytest.mark.parametrize("name", ["value", "nope"])
def test_prefix_len_on_non_categorical_feature_rejected(name):
    with pytest.raises(ValueError, match=name):
        EncoderState(SCHEMA, insts([("A", 1.0)]), prefix_len={name: 3})


@pytest.mark.parametrize(
    "values,error",
    [([2.0] * 20, DegenerateInputError), ([1.0, 2.0, 3.0], ValueError)],
    ids=["constant", "too-few"],
)
def test_failed_boxcox_fit_names_the_feature(values, error):
    with pytest.raises(error, match="'value'"):
        EncoderState(SCHEMA, insts([("A", v) for v in values]), boxcox_features=("value",))
