"""Tests for the incremental naive Bayes classifier.

The hand-checkable posteriors are verified against a brute-force reference
that computes smoothed priors and likelihoods directly from the raw counts.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftstream.naive_bayes import NaiveBayesModel, Welford
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


# -- Welford ------------------------------------------------------------------


def test_welford_textbook_values():
    w = Welford()
    for x in [1.0, 2.0, 3.0]:
        w.push(x)
    assert w.count == 3
    assert w.mean == pytest.approx(2.0)
    assert w.variance() == pytest.approx(1.0)


def test_welford_chunked_equivalence():
    a = Welford()
    for x in [1.0, 2.0]:
        a.push(x)
    for x in [3.0]:
        a.push(x)
    b = Welford()
    for x in [1.0, 2.0, 3.0]:
        b.push(x)
    assert a.count == b.count
    assert a.mean == pytest.approx(b.mean, abs=1e-12)
    assert a.m2 == pytest.approx(b.m2, abs=1e-12)


def test_welford_variance_floor():
    w = Welford()
    w.push(5.0)
    assert w.variance(1e-9) == 1e-9


# -- fit ----------------------------------------------------------------------


def test_single_class_always_predicted():
    data = [enc(i, cats=[i % 3], label=0) for i in range(20)]
    m = NaiveBayesModel.fit(data, 2, [4], 0)
    for v in range(4):
        assert m.predict(enc(99, cats=[v]))[0] == 0


def test_hand_computed_posterior_two_class():
    # A -> class 0 twice, B -> class 1 once; alpha = 1, 2 real categories
    data = [enc(0, cats=[0], label=0), enc(1, cats=[0], label=0), enc(2, cats=[1], label=1)]
    m = NaiveBayesModel.fit(data, 2, [2], 0)
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
    m = NaiveBayesModel.fit(data, 2, [3], 1)
    before = m.to_json()
    m.update([])
    assert m.to_json() == before


def test_fit_empty_list_rejected():
    with pytest.raises(ValueError):
        NaiveBayesModel.fit([], 2, [2], 0)


def test_fit_label_out_of_range_rejected():
    with pytest.raises(ValueError):
        NaiveBayesModel.fit([enc(0, cats=[0], label=5)], 2, [2], 0)


def test_count_invariants_after_fit():
    rng = np.random.default_rng(0)
    data = [
        enc(i, cats=[rng.integers(3), rng.integers(4)], nums=[rng.normal()],
            label=int(rng.integers(3)))
        for i in range(200)
    ]
    m = NaiveBayesModel.fit(data, 3, [3, 4], 1)
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
    a = NaiveBayesModel.fit(data[:10], 3, (3, 5), 2)
    a.update(data[10:20])
    a.update(data[20:])
    b = NaiveBayesModel.fit(data[:10], 3, (3, 5), 2)
    b.update(data[10:])
    np.testing.assert_array_equal(a.class_counts, b.class_counts)
    np.testing.assert_allclose(a.g_mean, b.g_mean, atol=1e-12)
    np.testing.assert_allclose(a.g_m2, b.g_m2, atol=1e-12)


def test_fit_vs_update_equivalence_randomized():
    rng = np.random.default_rng(2)
    data = random_instances(rng, 1000)
    probe = random_instances(rng, 200)
    for split in rng.integers(1, 1000, size=10):
        whole = NaiveBayesModel.fit(data, 3, (3, 5), 2)
        parts = NaiveBayesModel.fit(data[:split], 3, (3, 5), 2)
        parts.update(data[split:])
        np.testing.assert_array_equal(whole.class_counts, parts.class_counts)
        for f in range(2):
            np.testing.assert_array_equal(whole.cat_counts[f], parts.cat_counts[f])
        np.testing.assert_allclose(whole.g_mean, parts.g_mean, atol=1e-9)
        np.testing.assert_allclose(whole.g_m2, parts.g_m2, atol=1e-9)
        for p in probe:
            assert whole.predict(p)[0] == parts.predict(p)[0]


def test_update_bad_label_rejected():
    m = NaiveBayesModel.fit([enc(0, cats=[0], label=0)], 2, [2], 0)
    with pytest.raises(ValueError):
        m.update([enc(1, cats=[0], label=2)])
    with pytest.raises(ValueError):
        m.update([enc(1, cats=[0], label=None)])


# -- predict ------------------------------------------------------------------


def test_symmetric_tie_breaks_to_lowest_class():
    data = [enc(0, cats=[0], label=0), enc(1, cats=[0], label=1)]
    m = NaiveBayesModel.fit(data, 2, [2], 0)
    pred, scores = m.predict(enc(9, cats=[0]))
    assert scores[0] == pytest.approx(scores[1])
    assert pred == 0


def test_unseen_category_on_balanced_model():
    # cardinality 3 includes the reserved unseen slot (index 2)
    data = [enc(0, cats=[0], label=0), enc(1, cats=[1], label=1)]
    m = NaiveBayesModel.fit(data, 2, [3], 0)
    post = m.posterior(enc(9, cats=[2]))
    np.testing.assert_allclose(post, [0.5, 0.5], atol=1e-12)
    assert m.predict(enc(9, cats=[2]))[0] == 0


def test_posterior_sums_to_one():
    rng = np.random.default_rng(3)
    data = random_instances(rng, 100)
    m = NaiveBayesModel.fit(data, 3, (3, 5), 2)
    for p in random_instances(rng, 50):
        assert m.posterior(p).sum() == pytest.approx(1.0, abs=1e-9)


def test_prediction_invariant_to_feature_order():
    rng = np.random.default_rng(4)
    data = random_instances(rng, 300, cards=(3, 5), n_num=2)
    swapped = [
        enc(e.index, cats=e.cat[::-1], nums=e.num[::-1], label=e.label) for e in data
    ]
    a = NaiveBayesModel.fit(data, 3, (3, 5), 2)
    b = NaiveBayesModel.fit(swapped, 3, (5, 3), 2)
    probes = random_instances(rng, 100)
    for p in probes:
        q = enc(p.index, cats=p.cat[::-1], nums=p.num[::-1])
        assert a.predict(p)[0] == b.predict(q)[0]


def test_duplicated_training_data_keeps_argmax():
    rng = np.random.default_rng(5)
    data = random_instances(rng, 200, n_num=0)
    single = NaiveBayesModel.fit(data, 3, (3, 5), 0)
    double = NaiveBayesModel.fit(data + data, 3, (3, 5), 0)
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
    m = NaiveBayesModel.fit(data, 3, (3, 5), 2)
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
    m = NaiveBayesModel.fit(data, 3, (3, 5), n_num)
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
    m = NaiveBayesModel.fit(data, 2, [3], 3)
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
    m = NaiveBayesModel.fit(data, 3, [3], 0)  # class 2 never seen
    for e in data:
        assert m.predict(e)[0] != 2
    assert m.posterior(enc(0, cats=[0]))[2] > 0


# -- plumbing -----------------------------------------------------------------


def test_clone_is_independent():
    data = [enc(i, cats=[i % 2], nums=[float(i)], label=i % 2) for i in range(10)]
    m = NaiveBayesModel.fit(data, 2, [3], 1)
    c = m.clone()
    c.update([enc(10, cats=[0], nums=[3.0], label=0)])
    assert m.n_trained == 10 and c.n_trained == 11


def test_json_round_trip():
    rng = np.random.default_rng(7)
    data = random_instances(rng, 120)
    m = NaiveBayesModel.fit(data, 3, (3, 5), 2)
    back = NaiveBayesModel.from_json(m.to_json())
    for p in random_instances(rng, 60):
        np.testing.assert_allclose(m.log_scores(p), back.log_scores(p), atol=1e-12)


def test_json_version_check():
    m = NaiveBayesModel.fit([enc(0, cats=[0], label=0)], 2, [2], 0)
    doc = m.to_json().replace('"version": 1', '"version": 99')
    with pytest.raises(ValueError):
        NaiveBayesModel.from_json(doc)


@settings(max_examples=40, deadline=None)
@given(split=st.integers(1, 99), seed=st.integers(0, 1000))
def test_equivalence_property(split, seed):
    rng = np.random.default_rng(seed)
    data = random_instances(rng, 100, cards=(3,), n_num=1, k=2)
    probe = random_instances(rng, 20, cards=(3,), n_num=1, k=2)
    whole = NaiveBayesModel.fit(data, 2, (3,), 1)
    parts = NaiveBayesModel.fit(data[:split], 2, (3,), 1)
    parts.update(data[split:])
    for p in probe:
        assert whole.predict(p)[0] == parts.predict(p)[0]
