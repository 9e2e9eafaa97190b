"""Tests for the incremental naive Bayes classifier.

The hand-checkable posteriors are verified against a brute-force reference
that computes smoothed priors and likelihoods directly from the raw counts.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftstream.naive_bayes import NaiveBayesModel
from driftstream.preprocess import EncodedInstance


def enc(i, cats=(), nums=(), label=None):
    return EncodedInstance(
        i, np.array(cats, dtype=np.int64), np.array(nums, dtype=float), label
    )


def brute_force_posterior(instances, probe_cats, n_classes, cards, alpha=1.0):
    """Independent reference: smoothed priors and per-feature multinomial
    likelihoods computed from plain Python counts."""
    N = len(instances)
    post = []
    for k in range(n_classes):
        nk = sum(1 for e in instances if e.label == k)
        p = (nk + alpha) / (N + alpha * n_classes)
        for f, c in enumerate(cards):
            nkv = sum(1 for e in instances if e.label == k and e.cat[f] == probe_cats[f])
            p *= (nkv + alpha) / (nk + alpha * c)
        post.append(p)
    total = sum(post)
    return [p / total for p in post]


# -- Welford accumulators ----------------------------------------------------


def one_numeric(values, label=0):
    return [enc(i, nums=[x], label=label) for i, x in enumerate(values)]


def test_update_welford_textbook_values():
    m = NaiveBayesModel.fit_instances(one_numeric([1.0]), 1, (), 1)
    m.update_instances(one_numeric([2.0, 3.0]))
    assert m.g_count[0, 0] == 3
    assert m.g_mean[0, 0] == pytest.approx(2.0)
    assert m._variances()[0, 0] == pytest.approx(1.0)


def test_update_chunked_equivalence():
    a = NaiveBayesModel.fit_instances(one_numeric([1.0]), 1, (), 1)
    a.update_instances(one_numeric([2.0]))
    a.update_instances(one_numeric([3.0]))
    b = NaiveBayesModel.fit_instances(one_numeric([1.0]), 1, (), 1)
    b.update_instances(one_numeric([2.0, 3.0]))
    assert (a.g_count == b.g_count).all()
    assert a.g_mean[0, 0] == pytest.approx(b.g_mean[0, 0], abs=1e-12)
    assert a.g_m2[0, 0] == pytest.approx(b.g_m2[0, 0], abs=1e-12)


def test_single_row_variance_is_the_floor():
    m = NaiveBayesModel.fit_instances(one_numeric([5.0]), 1, (), 1, var_floor=1e-9)
    assert m._variances()[0, 0] == 1e-9


# -- fit ----------------------------------------------------------------------


def test_single_class_always_predicted():
    data = [enc(i, cats=[i % 3], label=0) for i in range(20)]
    m = NaiveBayesModel.fit_instances(data, 2, [4], 0)
    for v in range(4):
        assert m.predict(enc(99, cats=[v]))[0] == 0


def test_hand_computed_posterior_two_class():
    # A -> class 0 twice, B -> class 1 once; alpha = 1, 2 real categories
    data = [enc(0, cats=[0], label=0), enc(1, cats=[0], label=0), enc(2, cats=[1], label=1)]
    m = NaiveBayesModel.fit_instances(data, 2, [2], 0)
    pred, _ = m.predict(enc(9, cats=[0]))
    assert pred == 0
    ours = m.posterior(enc(9, cats=[0]))
    ref = brute_force_posterior(data, [0], 2, [2])
    np.testing.assert_allclose(ours, ref, atol=1e-12)
    # class 0's likelihood of A is the smoothed (2+1)/(2+2)
    expected0 = (3 / 5) * (3 / 4)
    expected1 = (2 / 5) * (1 / 3)
    assert ours[0] == pytest.approx(expected0 / (expected0 + expected1))


def test_fit_then_empty_update_is_noop():
    data = [enc(i, cats=[i % 2], nums=[float(i)], label=i % 2) for i in range(10)]
    m = NaiveBayesModel.fit_instances(data, 2, [3], 1)
    before = m.to_json()
    m.update_instances([])
    assert m.to_json() == before


def test_fit_empty_list_rejected():
    with pytest.raises(ValueError):
        NaiveBayesModel.fit_instances([], 2, [2], 0)


def test_fit_label_out_of_range_rejected():
    with pytest.raises(ValueError):
        NaiveBayesModel.fit_instances([enc(0, cats=[0], label=5)], 2, [2], 0)


def test_count_invariants_after_fit():
    rng = np.random.default_rng(0)
    data = [
        enc(i, cats=[rng.integers(3), rng.integers(4)], nums=[rng.normal()],
            label=int(rng.integers(3)))
        for i in range(200)
    ]
    m = NaiveBayesModel.fit_instances(data, 3, [3, 4], 1)
    assert m.n_trained == 200
    for f in range(2):
        np.testing.assert_array_equal(m.cat_counts[f].sum(axis=1), m.class_counts)
    assert (m.g_m2 >= 0).all()


# -- update / incremental-batch equivalence -----------------------------------


def random_instances(rng, n, cards=(3, 5), n_num=2, k=3):
    return [
        enc(
            i,
            cats=[int(rng.integers(c)) for c in cards],
            nums=list(rng.normal(size=n_num)),
            label=int(rng.integers(k)),
        )
        for i in range(n)
    ]


def test_update_in_chunks_matches_single_chunk():
    rng = np.random.default_rng(1)
    data = random_instances(rng, 30)
    a = NaiveBayesModel.fit_instances(data[:10], 3, (3, 5), 2)
    a.update_instances(data[10:20])
    a.update_instances(data[20:])
    b = NaiveBayesModel.fit_instances(data[:10], 3, (3, 5), 2)
    b.update_instances(data[10:])
    np.testing.assert_array_equal(a.class_counts, b.class_counts)
    np.testing.assert_allclose(a.g_mean, b.g_mean, atol=1e-12)
    np.testing.assert_allclose(a.g_m2, b.g_m2, atol=1e-12)


def test_fit_vs_update_equivalence_randomized():
    rng = np.random.default_rng(2)
    data = random_instances(rng, 1000)
    probe = random_instances(rng, 200)
    for split in rng.integers(1, 1000, size=10):
        whole = NaiveBayesModel.fit_instances(data, 3, (3, 5), 2)
        parts = NaiveBayesModel.fit_instances(data[:split], 3, (3, 5), 2)
        parts.update_instances(data[split:])
        np.testing.assert_array_equal(whole.class_counts, parts.class_counts)
        for f in range(2):
            np.testing.assert_array_equal(whole.cat_counts[f], parts.cat_counts[f])
        np.testing.assert_allclose(whole.g_mean, parts.g_mean, atol=1e-9)
        np.testing.assert_allclose(whole.g_m2, parts.g_m2, atol=1e-9)
        for p in probe:
            assert whole.predict(p)[0] == parts.predict(p)[0]


def test_update_bad_label_rejected():
    m = NaiveBayesModel.fit_instances([enc(0, cats=[0], label=0)], 2, [2], 0)
    with pytest.raises(ValueError):
        m.update_instances([enc(1, cats=[0], label=2)])
    with pytest.raises(ValueError):
        m.update_instances([enc(1, cats=[0], label=None)])


# -- predict ------------------------------------------------------------------


def test_symmetric_tie_breaks_to_lowest_class():
    data = [enc(0, cats=[0], label=0), enc(1, cats=[0], label=1)]
    m = NaiveBayesModel.fit_instances(data, 2, [2], 0)
    pred, scores = m.predict(enc(9, cats=[0]))
    assert scores[0] == pytest.approx(scores[1])
    assert pred == 0


def test_unseen_category_on_balanced_model():
    # cardinality 3 includes the reserved unseen slot (index 2)
    data = [enc(0, cats=[0], label=0), enc(1, cats=[1], label=1)]
    m = NaiveBayesModel.fit_instances(data, 2, [3], 0)
    post = m.posterior(enc(9, cats=[2]))
    np.testing.assert_allclose(post, [0.5, 0.5], atol=1e-12)
    assert m.predict(enc(9, cats=[2]))[0] == 0


def test_posterior_sums_to_one():
    rng = np.random.default_rng(3)
    data = random_instances(rng, 100)
    m = NaiveBayesModel.fit_instances(data, 3, (3, 5), 2)
    for p in random_instances(rng, 50):
        assert m.posterior(p).sum() == pytest.approx(1.0, abs=1e-9)


def test_prediction_invariant_to_feature_order():
    rng = np.random.default_rng(4)
    data = random_instances(rng, 300, cards=(3, 5), n_num=2)
    swapped = [
        enc(e.index, cats=e.cat[::-1], nums=e.num[::-1], label=e.label) for e in data
    ]
    a = NaiveBayesModel.fit_instances(data, 3, (3, 5), 2)
    b = NaiveBayesModel.fit_instances(swapped, 3, (5, 3), 2)
    probes = random_instances(rng, 100)
    for p in probes:
        q = enc(p.index, cats=p.cat[::-1], nums=p.num[::-1])
        assert a.predict(p)[0] == b.predict(q)[0]


def test_duplicated_training_data_keeps_argmax():
    rng = np.random.default_rng(5)
    data = random_instances(rng, 200, n_num=0)
    single = NaiveBayesModel.fit_instances(data, 3, (3, 5), 0)
    double = NaiveBayesModel.fit_instances(data + data, 3, (3, 5), 0)
    disagreements = sum(
        single.predict(p)[0] != double.predict(p)[0]
        for p in random_instances(rng, 200, n_num=0)
    )
    # smoothing shifts ratios slightly under duplication; argmax flips must
    # be rare and confined to near-ties
    assert disagreements <= 4


def test_predict_many_matches_predict():
    rng = np.random.default_rng(6)
    data = random_instances(rng, 400)
    m = NaiveBayesModel.fit_instances(data, 3, (3, 5), 2)
    probes = random_instances(rng, 150)
    cats = np.stack([p.cat for p in probes])
    nums = np.stack([p.num for p in probes])
    batch = m.predict_many(cats, nums)
    single = [m.predict(p)[0] for p in probes]
    np.testing.assert_array_equal(batch, single)


@pytest.mark.parametrize("n_num", [0, 2, 3, 9])
def test_predict_scores_are_rows_of_the_shared_routine(n_num):
    # categories 2 and 4 are the reserved unseen slots: never trained on
    rng = np.random.default_rng(8)
    data = random_instances(rng, 300, cards=(2, 4), n_num=n_num)
    m = NaiveBayesModel.fit_instances(data, 3, (3, 5), n_num)
    probes = random_instances(rng, 60, cards=(3, 5), n_num=n_num)
    assert {2} <= {int(p.cat[0]) for p in probes} and {4} <= {int(p.cat[1]) for p in probes}
    cats = np.stack([p.cat for p in probes])
    nums = np.stack([p.num for p in probes]).reshape(len(probes), n_num)
    scores = m.log_scores_many(cats, nums)
    preds = m.predict_many(cats, nums)
    for i, p in enumerate(probes):
        pred, row = m.predict(p)
        assert np.array_equal(row, scores[i])
        assert pred == preds[i]


def test_tied_scores_are_bitwise_rows_of_the_shared_routine():
    # mirrored classes: any probe on the unseen slot, or with equal values,
    # ties classes 0 and 1 exactly
    data = [
        enc(0, cats=[0], nums=[1.0, -2.0, 0.5], label=0),
        enc(1, cats=[1], nums=[1.0, -2.0, 0.5], label=1),
        enc(2, cats=[0], nums=[3.0, 0.0, -1.5], label=0),
        enc(3, cats=[1], nums=[3.0, 0.0, -1.5], label=1),
    ]
    m = NaiveBayesModel.fit_instances(data, 2, [3], 3)
    probes = [enc(9, cats=[2], nums=[2.0, -1.0, -0.5]), enc(9, cats=[2], nums=[0.0, 0.0, 0.0])]
    cats = np.stack([p.cat for p in probes])
    nums = np.stack([p.num for p in probes])
    scores = m.log_scores_many(cats, nums)
    for i, p in enumerate(probes):
        pred, row = m.predict(p)
        assert row[0] == row[1]
        assert np.array_equal(row, scores[i])
        assert pred == m.predict_many(cats, nums)[i] == 0


def test_predict_untrained_rejected():
    m = NaiveBayesModel(2, [2], 0)
    with pytest.raises(ValueError):
        m.predict(enc(0, cats=[0]))


def test_absent_class_keeps_smoothed_prior_but_never_wins():
    data = [enc(i, cats=[i % 2], label=i % 2) for i in range(40)]
    m = NaiveBayesModel.fit_instances(data, 3, [3], 0)  # class 2 never seen
    for e in data:
        assert m.predict(e)[0] != 2
    assert m.posterior(enc(0, cats=[0]))[2] > 0


# -- plumbing -----------------------------------------------------------------


def test_json_round_trip():
    rng = np.random.default_rng(7)
    data = random_instances(rng, 120)
    m = NaiveBayesModel.fit_instances(data, 3, (3, 5), 2)
    back = NaiveBayesModel.from_json(m.to_json())
    for p in random_instances(rng, 60):
        np.testing.assert_allclose(m.log_scores(p), back.log_scores(p), atol=1e-12)


def test_json_version_check():
    m = NaiveBayesModel.fit_instances([enc(0, cats=[0], label=0)], 2, [2], 0)
    doc = m.to_json().replace('"version": 1', '"version": 99')
    with pytest.raises(ValueError):
        NaiveBayesModel.from_json(doc)


@settings(max_examples=40, deadline=None)
@given(split=st.integers(1, 99), seed=st.integers(0, 1000))
def test_equivalence_property(split, seed):
    rng = np.random.default_rng(seed)
    data = random_instances(rng, 100, cards=(3,), n_num=1, k=2)
    probe = random_instances(rng, 20, cards=(3,), n_num=1, k=2)
    whole = NaiveBayesModel.fit_instances(data, 2, (3,), 1)
    parts = NaiveBayesModel.fit_instances(data[:split], 2, (3,), 1)
    parts.update_instances(data[split:])
    for p in probe:
        assert whole.predict(p)[0] == parts.predict(p)[0]


# -- column kernels against the per-instance reference --------------------------
#
# The reference is the per-instance numpy fit and update that the column
# kernels replaced, pinned here: fit stacks instance rows with np.array,
# update takes one vector Welford step per instance. The column kernels
# must give the same bits, so models are compared by their JSON text.


def reference_fit(instances, n_classes, cards, n_numeric):
    model = NaiveBayesModel(n_classes, cards, n_numeric)
    labels = np.array([e.label for e in instances], dtype=np.int64)
    model.class_counts = np.bincount(labels, minlength=n_classes).astype(np.int64)
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
    return [enc(int(i), cats[i], nums[i], int(labels[i])) for i in pos]


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
    assert model.to_json() == ref.to_json()
    # a *mixed* window: the rows around an alarm row, which is left out
    alarm = data.draw(st.integers(lo, hi - 1))
    pos = np.concatenate((np.arange(lo, alarm), np.arange(alarm + 1, hi)))
    if len(pos):
        model = NaiveBayesModel.fit(labels[pos], cats[pos], nums[pos], n_classes, cards, n_numeric)
        ref = reference_fit(instances_at(pos, labels, cats, nums), n_classes, cards, n_numeric)
        assert model.to_json() == ref.to_json()


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
        assert model.to_json() == ref.to_json()


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
        var = model._variances()
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


def test_instance_adaptors_stack_into_the_column_kernels():
    rng = np.random.default_rng(9)
    data = random_instances(rng, 80)
    labels = np.array([e.label for e in data])
    cats = np.stack([e.cat for e in data])
    nums = np.stack([e.num for e in data])
    a = NaiveBayesModel.fit_instances(data[:50], 3, (3, 5), 2).update_instances(data[50:])
    b = NaiveBayesModel.fit(labels[:50], cats[:50], nums[:50], 3, (3, 5), 2)
    b.update(labels[50:], cats[50:], nums[50:])
    assert a.to_json() == b.to_json()


def test_column_update_label_out_of_range_rejected():
    m = NaiveBayesModel.fit(np.array([0]), np.array([[0]]), np.empty((1, 0)), 2, [2], 0)
    before = m.to_json()
    with pytest.raises(ValueError):
        m.update(np.array([0, 2]), np.array([[0], [0]]), np.empty((2, 0)))
    assert m.to_json() == before
