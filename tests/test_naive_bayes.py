"""Tests for the incremental naive Bayes classifier, through its column
calls (``fit``, ``update``, ``log_scores_many``, ``predict_many``).

The hand-checkable posteriors are verified against a brute-force reference
that computes smoothed priors and likelihoods directly from the raw counts.
"""

import copy
import pickle
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftstream.naive_bayes import NaiveBayesModel


class Row(NamedTuple):
    label: int
    cat: np.ndarray
    num: np.ndarray


def columns(rows, n_cat, n_num):
    """The (labels, cats, nums) columns of a list of rows."""
    n = len(rows)
    return (
        np.array([r.label for r in rows], dtype=np.int64),
        np.array([r.cat for r in rows], dtype=np.int64).reshape(n, n_cat),
        np.array([r.num for r in rows], dtype=float).reshape(n, n_num),
    )


def rows(cats=None, nums=None, labels=None):
    """Columns of hand-written rows: category indices and values per row
    (absent: no such features) and labels (absent: all 0)."""
    n = len(cats if cats is not None else nums)
    return (
        np.array(labels if labels is not None else [0] * n, dtype=np.int64),
        np.array(cats if cats is not None else [()] * n, dtype=np.int64).reshape(n, -1),
        np.array(nums if nums is not None else [()] * n, dtype=float).reshape(n, -1),
    )


def fit(data, n_classes, cards, n_numeric, **kw):
    return NaiveBayesModel.fit(*data, n_classes, cards, n_numeric, **kw)


def part(data, sel):
    return tuple(c[sel] for c in data)


def state(model):
    """The model's state as bytes, so that -0.0 and 0.0, and NaN payloads,
    tell apart: trained rows, class counts, the stacked categorical counts
    and the Gaussian means and M2s."""
    return (
        model.n_trained,
        model.class_counts.tobytes(),
        model._counts.tobytes(),
        model.g_mean.tobytes(),
        model.g_m2.tobytes(),
    )


def posterior(model, cats, nums):
    """Normalized class posterior of the first probe: the max-subtracted
    softmax of its log scores."""
    s = model.log_scores_many(cats, nums)[0]
    s = np.exp(s - s.max())
    return s / s.sum()


def reference_variances(model):
    """The per-class variances: M2 / (n - 1) for a class with two or more
    rows, at least the floor."""
    var = np.full((model.n_classes, model.n_numeric), model.var_floor)
    n = model.class_counts[:, None]
    np.divide(model.g_m2, np.maximum(n - 1, 1), out=var, where=n >= 2)
    return np.maximum(var, model.var_floor)


def brute_force_posterior(data, probe_cats, n_classes, cards, alpha=1.0):
    """Independent reference: smoothed priors and per-feature multinomial
    likelihoods computed from plain Python counts."""
    labels, cats = data[0].tolist(), data[1].tolist()
    N = len(labels)
    post = []
    for k in range(n_classes):
        nk = labels.count(k)
        p = (nk + alpha) / (N + alpha * n_classes)
        for f, c in enumerate(cards):
            nkv = sum(1 for y, cs in zip(labels, cats) if y == k and cs[f] == probe_cats[f])
            p *= (nkv + alpha) / (nk + alpha * c)
        post.append(p)
    total = sum(post)
    return [p / total for p in post]


# -- Welford accumulators ----------------------------------------------------


def one_numeric(values):
    return rows(nums=[[x] for x in values])


def test_update_welford_textbook_values():
    m = fit(one_numeric([1.0]), 1, (), 1)
    m.update(*one_numeric([2.0, 3.0]))
    assert m.class_counts[0] == 3
    assert m.g_mean[0, 0] == pytest.approx(2.0)
    assert reference_variances(m)[0, 0] == pytest.approx(1.0)


def test_update_chunked_equivalence():
    a = fit(one_numeric([1.0]), 1, (), 1)
    a.update(*one_numeric([2.0]))
    a.update(*one_numeric([3.0]))
    b = fit(one_numeric([1.0]), 1, (), 1)
    b.update(*one_numeric([2.0, 3.0]))
    assert (a.class_counts == b.class_counts).all()
    assert a.g_mean[0, 0] == pytest.approx(b.g_mean[0, 0], abs=1e-12)
    assert a.g_m2[0, 0] == pytest.approx(b.g_m2[0, 0], abs=1e-12)


def test_single_row_variance_is_the_floor():
    m = fit(one_numeric([5.0]), 1, (), 1)
    assert reference_variances(m)[0, 0] == 1e-9


# -- fit ----------------------------------------------------------------------


def test_single_class_always_predicted():
    m = fit(rows(cats=[[i % 3] for i in range(20)]), 2, [4], 0)
    assert (m.predict_many(*rows(cats=[[v] for v in range(4)])[1:]) == 0).all()


def test_hand_computed_posterior_two_class():
    # A -> class 0 twice, B -> class 1 once; alpha = 1, 2 real categories
    data = rows(cats=[[0], [0], [1]], labels=[0, 0, 1])
    m = fit(data, 2, [2], 0)
    probe = rows(cats=[[0]])[1:]
    assert m.predict_many(*probe)[0] == 0
    ours = posterior(m, *probe)
    ref = brute_force_posterior(data, [0], 2, [2])
    np.testing.assert_allclose(ours, ref, atol=1e-12)
    # class 0's likelihood of A is the smoothed (2+1)/(2+2)
    expected0 = (3 / 5) * (3 / 4)
    expected1 = (2 / 5) * (1 / 3)
    assert ours[0] == pytest.approx(expected0 / (expected0 + expected1))


def test_fit_then_empty_update_is_noop():
    data = rows(cats=[[i % 2] for i in range(10)], nums=[[float(i)] for i in range(10)],
                labels=[i % 2 for i in range(10)])
    m = fit(data, 2, [3], 1)
    before = state(m)
    m.update(*part(data, slice(0, 0)))
    assert state(m) == before


def test_fit_empty_list_rejected():
    empty = np.empty(0, dtype=np.int64), np.empty((0, 1), dtype=np.int64), np.empty((0, 0))
    with pytest.raises(ValueError, match="empty"):
        fit(empty, 2, [2], 0)


def test_fit_label_out_of_range_rejected():
    with pytest.raises(ValueError):
        fit(rows(cats=[[0]], labels=[5]), 2, [2], 0)


def test_count_invariants_after_fit():
    rng = np.random.default_rng(0)
    drawn = []
    for _ in range(200):
        cat, num = [rng.integers(3), rng.integers(4)], [rng.normal()]
        drawn.append(Row(int(rng.integers(3)), cat, num))
    data = columns(drawn, 2, 1)
    m = fit(data, 3, [3, 4], 1)
    assert m.n_trained == 200
    for f in range(2):
        np.testing.assert_array_equal(m.cat_counts[f].sum(axis=1), m.class_counts)
    assert (m.g_m2 >= 0).all()


# -- update / incremental-batch equivalence -----------------------------------


def random_rows(rng, n, cards=(3, 5), n_num=2, k=3):
    """Columns of n random rows, drawn row by row: categories, values, label."""
    drawn = []
    for _ in range(n):
        cat = [int(rng.integers(c)) for c in cards]
        num = list(rng.normal(size=n_num))
        drawn.append(Row(int(rng.integers(k)), cat, num))
    return columns(drawn, len(cards), n_num)


def test_update_in_chunks_matches_single_chunk():
    rng = np.random.default_rng(1)
    data = random_rows(rng, 30)
    a = fit(part(data, slice(10)), 3, (3, 5), 2)
    a.update(*part(data, slice(10, 20)))
    a.update(*part(data, slice(20, None)))
    b = fit(part(data, slice(10)), 3, (3, 5), 2)
    b.update(*part(data, slice(10, None)))
    np.testing.assert_array_equal(a.class_counts, b.class_counts)
    np.testing.assert_allclose(a.g_mean, b.g_mean, atol=1e-12)
    np.testing.assert_allclose(a.g_m2, b.g_m2, atol=1e-12)


def test_fit_vs_update_equivalence_randomized():
    rng = np.random.default_rng(2)
    data = random_rows(rng, 1000)
    probe = random_rows(rng, 200)[1:]
    for split in rng.integers(1, 1000, size=10):
        whole = fit(data, 3, (3, 5), 2)
        parts = fit(part(data, slice(split)), 3, (3, 5), 2)
        parts.update(*part(data, slice(split, None)))
        np.testing.assert_array_equal(whole.class_counts, parts.class_counts)
        for f in range(2):
            np.testing.assert_array_equal(whole.cat_counts[f], parts.cat_counts[f])
        np.testing.assert_allclose(whole.g_mean, parts.g_mean, atol=1e-9)
        np.testing.assert_allclose(whole.g_m2, parts.g_m2, atol=1e-9)
        np.testing.assert_array_equal(whole.predict_many(*probe), parts.predict_many(*probe))


@pytest.mark.parametrize("copied", [copy.deepcopy, lambda m: pickle.loads(pickle.dumps(m))],
                         ids=["deepcopy", "pickle"])
def test_a_copied_model_keeps_its_views_on_its_own_tables(copied):
    # class_counts, _counts, g_mean, g_m2 and cat_counts are views of the
    # count table and the Gaussian accumulators; a copy must take them anew
    # from its own, or its update would leave them (and stage's counts) stale
    rng = np.random.default_rng(3)
    data = random_rows(rng, 60)
    model = fit(part(data, slice(30)), 3, (3, 5), 2)
    model.cat_counts  # cached before the copy
    before = state(model)
    twin = copied(model)
    twin.update(*part(data, slice(30, None)))
    assert state(model) == before
    updated = fit(part(data, slice(30)), 3, (3, 5), 2).update(*part(data, slice(30, None)))
    assert state(twin) == state(updated)
    np.testing.assert_array_equal(twin.class_counts, twin._table[-2])
    np.testing.assert_array_equal(twin._counts, twin._table[:-2])
    np.testing.assert_array_equal(twin.g_mean, twin._gauss[0])
    np.testing.assert_array_equal(twin.g_m2, twin._gauss[1])
    np.testing.assert_array_equal(twin.class_counts, np.bincount(data[0], minlength=3))
    for f, counts in enumerate(twin.cat_counts):
        np.testing.assert_array_equal(counts.sum(axis=1), twin.class_counts)
        cells = np.zeros((3, (3, 5)[f]), np.int64)
        np.add.at(cells, (data[0], data[1][:, f]), 1)
        np.testing.assert_array_equal(counts, cells)


def test_update_bad_label_rejected():
    m = fit(rows(cats=[[0]]), 2, [2], 0)
    before = state(m)
    with pytest.raises(ValueError):
        m.update(*rows(cats=[[0]], labels=[2]))
    with pytest.raises(ValueError):
        m.update(*rows(cats=[[0]], labels=[-1]))
    assert state(m) == before


# -- predict ------------------------------------------------------------------


def test_symmetric_tie_breaks_to_lowest_class():
    m = fit(rows(cats=[[0], [0]], labels=[0, 1]), 2, [2], 0)
    probe = rows(cats=[[0]])[1:]
    scores = m.log_scores_many(*probe)[0]
    assert scores[0] == pytest.approx(scores[1])
    assert m.predict_many(*probe)[0] == 0


def test_unseen_category_on_balanced_model():
    # cardinality 3 includes the reserved unseen slot (index 2)
    m = fit(rows(cats=[[0], [1]], labels=[0, 1]), 2, [3], 0)
    probe = rows(cats=[[2]])[1:]
    np.testing.assert_allclose(posterior(m, *probe), [0.5, 0.5], atol=1e-12)
    assert m.predict_many(*probe)[0] == 0


def test_prediction_invariant_to_feature_order():
    rng = np.random.default_rng(4)
    data = random_rows(rng, 300, cards=(3, 5), n_num=2)
    labels, cats, nums = data
    a = fit(data, 3, (3, 5), 2)
    b = fit((labels, cats[:, ::-1], nums[:, ::-1]), 3, (5, 3), 2)
    _, cats, nums = random_rows(rng, 100)
    np.testing.assert_array_equal(
        a.predict_many(cats, nums), b.predict_many(cats[:, ::-1], nums[:, ::-1])
    )


def test_duplicated_training_data_keeps_argmax():
    rng = np.random.default_rng(5)
    data = random_rows(rng, 200, n_num=0)
    single = fit(data, 3, (3, 5), 0)
    double = fit(tuple(np.concatenate((c, c)) for c in data), 3, (3, 5), 0)
    probe = random_rows(rng, 200, n_num=0)[1:]
    disagreements = int((single.predict_many(*probe) != double.predict_many(*probe)).sum())
    # smoothing shifts ratios slightly under duplication; argmax flips must
    # be rare and confined to near-ties
    assert disagreements <= 4


def test_predict_many_matches_predict():
    rng = np.random.default_rng(6)
    m = fit(random_rows(rng, 400), 3, (3, 5), 2)
    _, cats, nums = random_rows(rng, 150)
    batch = m.predict_many(cats, nums)
    single = [m.predict_many(cats[i : i + 1], nums[i : i + 1])[0] for i in range(len(cats))]
    np.testing.assert_array_equal(batch, single)


@pytest.mark.parametrize("n_num", [0, 2, 3, 9])
def test_predict_scores_are_rows_of_the_shared_routine(n_num):
    # categories 2 and 4 are the reserved unseen slots: never trained on
    rng = np.random.default_rng(8)
    m = fit(random_rows(rng, 300, cards=(2, 4), n_num=n_num), 3, (3, 5), n_num)
    _, cats, nums = random_rows(rng, 60, cards=(3, 5), n_num=n_num)
    assert 2 in cats[:, 0] and 4 in cats[:, 1]
    scores = m.log_scores_many(cats, nums)
    preds = m.predict_many(cats, nums)
    for i in range(len(cats)):
        row = m.log_scores_many(cats[i : i + 1], nums[i : i + 1])[0]
        assert np.array_equal(row, scores[i])
        assert m.predict_many(cats[i : i + 1], nums[i : i + 1])[0] == preds[i]


def test_tied_scores_are_bitwise_rows_of_the_shared_routine():
    # mirrored classes: any probe on the unseen slot, or with equal values,
    # ties classes 0 and 1 exactly
    data = rows(
        cats=[[0], [1], [0], [1]],
        nums=[[1.0, -2.0, 0.5], [1.0, -2.0, 0.5], [3.0, 0.0, -1.5], [3.0, 0.0, -1.5]],
        labels=[0, 1, 0, 1],
    )
    m = fit(data, 2, [3], 3)
    _, cats, nums = rows(cats=[[2], [2]], nums=[[2.0, -1.0, -0.5], [0.0, 0.0, 0.0]])
    scores = m.log_scores_many(cats, nums)
    for i in range(len(cats)):
        row = m.log_scores_many(cats[i : i + 1], nums[i : i + 1])[0]
        pred = m.predict_many(cats[i : i + 1], nums[i : i + 1])[0]
        assert row[0] == row[1]
        assert np.array_equal(row, scores[i])
        assert pred == m.predict_many(cats, nums)[i] == 0


def test_predict_untrained_rejected():
    m = NaiveBayesModel(2, [2], 0)
    with pytest.raises(ValueError):
        m.predict_many(*rows(cats=[[0]])[1:])


def test_absent_class_keeps_smoothed_prior_but_never_wins():
    data = rows(cats=[[i % 2] for i in range(40)], labels=[i % 2 for i in range(40)])
    m = fit(data, 3, [3], 0)  # class 2 never seen
    assert (m.predict_many(*data[1:]) != 2).all()
    assert posterior(m, *rows(cats=[[0]])[1:])[2] > 0


@settings(max_examples=40, deadline=None)
@given(split=st.integers(1, 99), seed=st.integers(0, 1000))
def test_equivalence_property(split, seed):
    rng = np.random.default_rng(seed)
    data = random_rows(rng, 100, cards=(3,), n_num=1, k=2)
    probe = random_rows(rng, 20, cards=(3,), n_num=1, k=2)[1:]
    whole = fit(data, 2, (3,), 1)
    parts = fit(part(data, slice(split)), 2, (3,), 1)
    parts.update(*part(data, slice(split, None)))
    np.testing.assert_array_equal(whole.predict_many(*probe), parts.predict_many(*probe))


# -- column kernels against the per-instance reference --------------------------
#
# The reference is the per-instance numpy fit and update that the column
# kernels replaced, pinned here: fit stacks instance rows with np.array,
# update takes one vector Welford step per instance. The column kernels
# must give the same bits, so models are compared by their state's bytes.


def reference_fit(instances, n_classes, cards, n_numeric):
    model = NaiveBayesModel(n_classes, cards, n_numeric)
    labels = np.array([e.label for e in instances], dtype=np.int64)
    model.n_trained = len(labels)
    model.class_counts[:] = np.bincount(labels, minlength=n_classes)
    if cards:
        cats = np.array([e.cat for e in instances])
        for f, c in enumerate(cards):
            flat = labels * c + cats[:, f]
            model.cat_counts[f][:] = (
                np.bincount(flat, minlength=n_classes * c).reshape(n_classes, c).astype(np.int64)
            )
    if n_numeric:
        nums = np.array([e.num for e in instances])
        for k in range(n_classes):
            xs = nums[labels == k]
            if len(xs) == 0:
                continue
            mean = xs.mean(axis=0)
            model.g_mean[k] = mean
            model.g_m2[k] = ((xs - mean) ** 2).sum(axis=0)
    return model


def reference_update(model, batch):
    for e in batch:
        k = e.label
        model.n_trained += 1
        model.class_counts[k] += 1
        for f in range(len(model.cat_cardinalities)):
            model.cat_counts[f][k, e.cat[f]] += 1
        n = model.class_counts[k]
        delta = e.num - model.g_mean[k]
        model.g_mean[k] = model.g_mean[k] + delta / n
        model.g_m2[k] = model.g_m2[k] + delta * (e.num - model.g_mean[k])
    return model


values = st.floats(-1e4, 1e4, allow_nan=False, allow_infinity=False)


@st.composite
def column_streams(draw):
    """Columns of a labeled stream with some classes never drawn."""
    n_classes = draw(st.integers(1, 4))
    present = draw(st.lists(st.integers(0, n_classes - 1), min_size=1, max_size=n_classes, unique=True))
    cards = tuple(draw(st.lists(st.integers(1, 5), max_size=3)))
    n_numeric = draw(st.integers(0, 3))
    n = draw(st.integers(4, 60))
    labels = np.array(draw(st.lists(st.sampled_from(present), min_size=n, max_size=n)), dtype=np.int64)
    cats = np.array(
        [[draw(st.integers(0, c - 1)) for c in cards] for _ in range(n)], dtype=np.int64
    ).reshape(n, len(cards))
    nums = np.array(
        draw(st.lists(values, min_size=n * n_numeric, max_size=n * n_numeric)), dtype=float
    ).reshape(n, n_numeric)
    return n_classes, cards, n_numeric, labels, cats, nums


def instances_at(pos, labels, cats, nums):
    return [Row(int(labels[i]), cats[i], nums[i]) for i in pos]


@settings(max_examples=150, deadline=None)
@given(stream=column_streams(), data=st.data())
def test_column_fit_is_bitwise_the_reference(stream, data):
    n_classes, cards, n_numeric, labels, cats, nums = stream
    n = len(labels)
    lo = data.draw(st.integers(0, n - 2))
    hi = data.draw(st.integers(lo + 1, n))
    # a contiguous window as column views, as the buffer of *last* and *next*
    model = NaiveBayesModel.fit(labels[lo:hi], cats[lo:hi], nums[lo:hi], n_classes, cards, n_numeric)
    ref = reference_fit(instances_at(range(lo, hi), labels, cats, nums), n_classes, cards, n_numeric)
    assert state(model) == state(ref)
    assert state(fit_from_positions(labels[lo:hi], cats[lo:hi], nums[lo:hi], model)) == state(ref)
    # a *mixed* window: the rows around an alarm row, which is left out
    alarm = data.draw(st.integers(lo, hi - 1))
    pos = np.concatenate((np.arange(lo, alarm), np.arange(alarm + 1, hi)))
    if len(pos):
        model = NaiveBayesModel.fit(labels[pos], cats[pos], nums[pos], n_classes, cards, n_numeric)
        ref = reference_fit(instances_at(pos, labels, cats, nums), n_classes, cards, n_numeric)
        assert state(model) == state(ref)
        assert state(fit_from_positions(labels[pos], cats[pos], nums[pos], model)) == state(ref)


def fit_from_positions(labels, cats, nums, like):
    """A fit of the rows from their count positions, as a refit of the
    controller takes them, for a model shaped like ``like``."""
    shape = like.n_classes, like.cat_cardinalities, like.n_numeric
    return NaiveBayesModel.fit(labels, cats, nums, *shape, like.positions(labels, cats))


@settings(max_examples=150, deadline=None)
@given(stream=column_streams(), mini_batch=st.integers(1, 12), data=st.data())
def test_column_update_is_bitwise_the_reference(stream, mini_batch, data):
    n_classes, cards, n_numeric, labels, cats, nums = stream
    n = len(labels)
    start = data.draw(st.integers(1, n - 1))
    model = NaiveBayesModel.fit(labels[:start], cats[:start], nums[:start], n_classes, cards, n_numeric)
    ref = reference_fit(instances_at(range(start), labels, cats, nums), n_classes, cards, n_numeric)
    for lo in range(start, n, mini_batch):
        hi = min(n, lo + mini_batch)
        model.update(labels[lo:hi], cats[lo:hi], nums[lo:hi])
        reference_update(ref, instances_at(range(lo, hi), labels, cats, nums))
        assert state(model) == state(ref)


def reference_log_scores(model, cats, nums):
    """Scoring as it was before the log tables were taken in one pass: one
    np.log per feature table and per feature denominator."""
    n = len(cats) if model.cat_cardinalities else len(nums)
    K = model.n_classes
    scores = np.empty((n, K))
    scores[:] = np.log(model.class_counts + model.alpha) - np.log(model.n_trained + model.alpha * K)
    for f, c in enumerate(model.cat_cardinalities):
        log_counts = np.log(model.cat_counts[f] + model.alpha).T
        scores = (scores + log_counts[cats[:, f]]) - np.log(model.class_counts + model.alpha * c)
    if model.n_numeric:
        var = reference_variances(model)
        diff = nums[:, None, :] - model.g_mean
        scores = scores - 0.5 * (np.log(2.0 * np.pi * var) + diff * diff / var).sum(axis=-1)
    return scores


@settings(max_examples=100, deadline=None)
@given(
    stream=column_streams(), mini_batch=st.integers(1, 12), every=st.integers(1, 2), data=st.data()
)
def test_log_scores_are_bitwise_the_per_feature_reference(stream, mini_batch, every, data):
    # scored after the fit and after every update (or every second one, so
    # that two changes also meet unscored), so that a score state kept from
    # before a model change would show
    n_classes, cards, n_numeric, labels, cats, nums = stream
    n = len(labels)
    split = data.draw(st.integers(1, n - 1))
    model = NaiveBayesModel.fit(labels[:split], cats[:split], nums[:split], n_classes, cards, n_numeric)
    probe_cats, probe_nums = cats[split:], nums[split:]

    def assert_reference_scores():
        assert np.array_equal(
            model.log_scores_many(probe_cats, probe_nums),
            reference_log_scores(model, probe_cats, probe_nums),
        )

    assert_reference_scores()
    assert_reference_scores()  # again, from the kept score state
    for i, lo in enumerate(range(split, n, mini_batch), start=1):
        hi = min(n, lo + mini_batch)
        model.update(labels[lo:hi], cats[lo:hi], nums[lo:hi])
        if i % every == 0 or hi == n:
            assert_reference_scores()


def test_column_update_label_out_of_range_rejected():
    m = NaiveBayesModel.fit(np.array([0]), np.array([[0]]), np.empty((1, 0)), 2, [2], 0)
    before = state(m)
    with pytest.raises(ValueError):
        m.update(np.array([0, 2]), np.array([[0], [0]]), np.empty((2, 0)))
    assert state(m) == before


# -- staged versions against update then score ---------------------------------


def assert_staged_is_update_then_score(model_args, labels, cats, nums, start, pending, block, size, v):
    """Fit on rows [0, start); rows [start, start + pending) are a part-filled
    mini-batch and the next ``block`` rows are scored, each against the
    version it would see row by row: staged and gathered in one call, and,
    on the per-instance reference model, scored per mini-batch and then
    updated with it. The scores must agree bit for bit, and committing
    version ``v`` must give the state (and the scores) of the reference
    after ``v`` updates."""
    columns = labels, cats, nums
    model = NaiveBayesModel.fit(labels[:start], cats[:start], nums[:start], *model_args)
    ref = reference_fit(instances_at(range(start), *columns), *model_args)
    lo, hi = start + pending, start + pending + block
    n_versions = (pending + block) // size
    staged_rows = part(columns, slice(start, start + n_versions * size))
    staged = model.stage(*staged_rows, size)
    # staged from the rows' count positions, as the controller stages: the
    # same versions, bit for bit
    from_positions = model.stage(*staged_rows, size, model.positions(*staged_rows[:2]))
    assert [a.tobytes() for a in from_positions] == [a.tobytes() for a in staged]
    # a class with fewer than two rows has the least variance in every version
    assert (staged.gauss[2][staged.table[:, -2] < 2] == model.var_floor).all()
    at = np.arange(pending, pending + block) // size
    scores = model.log_scores_many(cats[lo:hi], nums[lo:hi], staged, at)
    assert len(staged.table) == n_versions + 1
    expected, states = [], [state(ref)]
    for edge in range(start, start + (n_versions + 1) * size, size):
        rows = slice(max(lo, edge), min(hi, edge + size))
        if rows.start < rows.stop:
            expected.append(reference_log_scores(ref, cats[rows], nums[rows]))
        if edge + size <= start + n_versions * size:
            reference_update(ref, instances_at(range(edge, edge + size), *columns))
            states.append(state(ref))
    assert scores.tobytes() == np.concatenate(expected).tobytes()
    assert state(model) == states[0]  # staging leaves the model as it is
    model.commit(staged, v)
    assert state(model) == states[v]
    ref = reference_fit(instances_at(range(start), *columns), *model_args)
    reference_update(ref, instances_at(range(start, start + v * size), *columns))
    probe = cats[start:], nums[start:]
    assert model.log_scores_many(*probe).tobytes() == reference_log_scores(ref, *probe).tobytes()


@settings(max_examples=150, deadline=None)
@given(
    stream=column_streams(),
    size=st.integers(1, 12),
    edges=st.integers(0, 5),
    data=st.data(),
)
def test_staged_versions_are_bitwise_update_then_score(stream, size, edges, data):
    n_classes, cards, n_numeric, labels, cats, nums = stream
    start = data.draw(st.integers(1, len(labels)))
    pending = data.draw(st.integers(0, size - 1))
    # a block that crosses ``edges`` mini-batch edges
    block = max(1, edges * size - pending) + data.draw(st.integers(0, size - 1))
    reps = -(-(start + pending + block) // len(labels))  # the stream, repeated as needed
    labels, cats, nums = np.tile(labels, reps), np.tile(cats, (reps, 1)), np.tile(nums, (reps, 1))
    v = data.draw(st.integers(0, (pending + block) // size))
    assert_staged_is_update_then_score(
        (n_classes, cards, n_numeric), labels, cats, nums, start, pending, block, size, v
    )


@pytest.mark.parametrize(
    "cards,n_numeric,labels",
    [
        ((3, 2), 2, [0, 0, 0, 1, 0, 1, 1, 0, 2, 0, 1, 2, 2, 1, 0, 1]),  # class 2 absent so far
        ((3, 2), 2, [0, 2, 1, 0, 1, 1, 0, 0, 1, 0, 1, 2, 0, 1, 0, 1]),  # class 2 has one row
        ((), 2, [0, 1, 1, 0, 2, 1, 1, 0, 2, 0, 1, 2, 2, 1, 0, 1]),  # no categorical feature
        ((3, 2), 0, [0, 1, 1, 0, 2, 1, 1, 0, 2, 0, 1, 2, 2, 1, 0, 1]),  # no numeric feature
    ],
)
@pytest.mark.parametrize("size", [1, 3])
def test_staged_versions_cover_sparse_classes_and_missing_features(cards, n_numeric, labels, size):
    rng = np.random.default_rng(size)
    labels = np.array(labels, dtype=np.int64)
    cats = np.array([[rng.integers(c) for c in cards] for _ in labels], dtype=np.int64).reshape(
        len(labels), len(cards)
    )
    nums = rng.normal(size=(len(labels), n_numeric))
    for pending in range(size):
        for v in range(4 // size + 1):
            assert_staged_is_update_then_score(
                (3, cards, n_numeric), labels, cats, nums, 4, pending, 12 - pending, size, v
            )
