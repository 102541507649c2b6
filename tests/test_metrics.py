from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trustprop import build_report, kendall, precision_at_k, rmse_mae, spearman, top_k_ids
from trustprop import metrics
from trustprop.errors import InputError
from trustprop.metrics import average_ranks, layer_reports, normalize_scores_for_error


def exact_ranks(values):
    """Average ranks as exact fractions."""
    ranks = []
    for v in values:
        less = sum(1 for w in values if w < v)
        equal = sum(1 for w in values if w == v)
        # tied values share the mean of the rank positions they occupy
        ranks.append(Fraction(2 * less + equal + 1, 2))
    return ranks


def exact_spearman(a, b):
    ra, rb = exact_ranks(a), exact_ranks(b)
    n = len(a)
    ma = sum(ra, Fraction(0)) / n
    mb = sum(rb, Fraction(0)) / n
    cov = sum((x - ma) * (y - mb) for x, y in zip(ra, rb))
    va = sum((x - ma) ** 2 for x in ra)
    vb = sum((y - mb) ** 2 for y in rb)
    if va == 0 or vb == 0:
        return None
    return cov, va * vb  # rho = cov / sqrt(va * vb)


def exact_kendall(a, b):
    n = len(a)
    concordant = discordant = ties_a = ties_b = 0
    for i, j in itertools.combinations(range(n), 2):
        da, db = a[i] - a[j], b[i] - b[j]
        if da == 0 and db == 0:
            ties_a += 1
            ties_b += 1
        elif da == 0:
            ties_a += 1
        elif db == 0:
            ties_b += 1
        elif (da > 0) == (db > 0):
            concordant += 1
        else:
            discordant += 1
    pairs = n * (n - 1) // 2
    denom_sq = (pairs - ties_a) * (pairs - ties_b)
    if denom_sq == 0:
        return None
    return concordant - discordant, denom_sq  # tau = (c - d) / sqrt(denom_sq)


def test_average_ranks_handles_ties():
    assert average_ranks([10, 20, 20, 30]).tolist() == [1.0, 2.5, 2.5, 4.0]
    assert average_ranks([5, 5, 5]).tolist() == [2.0, 2.0, 2.0]
    assert average_ranks([3, 1, 2]).tolist() == [3.0, 1.0, 2.0]


def test_spearman_exact_on_all_permutations_of_four():
    base = [1.0, 2.0, 3.0, 4.0]
    for perm in itertools.permutations(base):
        cov, denom_sq = exact_spearman(base, perm)
        want = float(cov) / math.sqrt(float(denom_sq))
        assert spearman(base, perm) == want, perm


def test_kendall_exact_on_all_permutations_of_four():
    base = [1.0, 2.0, 3.0, 4.0]
    for perm in itertools.permutations(base):
        num, denom_sq = exact_kendall(base, perm)
        want = num / math.sqrt(denom_sq)
        assert kendall(base, perm) == want, perm


def test_correlations_with_ties_match_brute_force():
    rng = np.random.default_rng(31)
    for trial in range(206):
        # the last trials are long vectors with many ties
        n = int(rng.integers(3, 12)) if trial < 200 else int(rng.integers(100, 301))
        a = list(rng.integers(0, 4, size=n).astype(float))
        b = list(rng.integers(0, 4, size=n).astype(float))
        want = exact_spearman(a, b)
        if want is not None:
            cov, denom_sq = want
            assert spearman(a, b) == pytest.approx(float(cov) / math.sqrt(float(denom_sq)),
                                                   abs=1e-12)
        else:
            assert math.isnan(spearman(a, b))
        want = exact_kendall(a, b)
        if want is not None:
            num, denom_sq = want
            assert kendall(a, b) == num / math.sqrt(denom_sq)
        else:
            assert math.isnan(kendall(a, b))


def test_kendall_matches_the_pair_loop_bit_for_bit():
    rng = np.random.default_rng(43)
    pools = ([-0.0, 0.0, 1.0], [0.0, 1.5, -2.0, 1e308, -1e308], [7.0])  # the last is constant
    for trial in range(400):
        n = int(rng.integers(2, 60)) if trial < 396 else int(rng.integers(300, 400))
        if trial % 4 == 3:
            a, b = rng.normal(size=n), rng.normal(size=n)
            b[rng.random(n) < 0.3] = 0.5
        else:
            a, b = (rng.choice(pools[int(rng.integers(0, len(pools)))], size=n) for _ in "ab")
        want = exact_kendall(a.tolist(), b.tolist())
        got = kendall(a, b)
        if want is None:
            assert math.isnan(got), trial
        else:
            num, denom_sq = want
            assert got == num / math.sqrt(denom_sq), trial


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("metric", [spearman, kendall, rmse_mae])
def test_paired_metrics_refuse_non_finite_values(metric, bad):
    """A NaN or an infinity on either side is an input error naming its position."""
    name = metric.__name__
    with pytest.raises(InputError, match=f"^{name}: non-finite value {bad} at position 1$"):
        metric([1.0, bad, 3.0], [1.0, 2.0, 3.0])
    with pytest.raises(InputError, match=f"^{name}: non-finite value {bad} at position 0$"):
        metric([1.0, 2.0, 3.0], [bad, bad, 0.0])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("metric", [
    lambda scored: top_k_ids(scored, 1),
    lambda scored: precision_at_k(scored, dict.fromkeys(scored, 1.0), 1),
    lambda scored: precision_at_k(dict.fromkeys(scored, 1.0), scored, 1),
    lambda scored: build_report("doctor", "votes", "", scored, dict.fromkeys(scored, 1.0), 1),
    lambda scored: build_report("doctor", "votes", "", dict.fromkeys(scored, 1.0), scored, 1),
])
def test_scored_metrics_refuse_non_finite_scores(metric, bad):
    """A NaN or an infinity among scores or truth is an input error naming its id."""
    with pytest.raises(InputError, match=f"^non-finite score {bad} for 'b'$"):
        metric({"a": 1.0, "b": bad, "c": bad})


def test_perfect_and_reversed_correlation():
    a = [1.0, 2.0, 3.0, 4.0, 5.0]
    assert spearman(a, a) == 1.0
    assert kendall(a, a) == 1.0
    assert spearman(a, a[::-1]) == -1.0
    assert kendall(a, a[::-1]) == -1.0


def test_constant_vector_has_no_correlation():
    assert math.isnan(spearman([1.0, 1.0, 1.0], [1.0, 2.0, 3.0]))
    assert math.isnan(kendall([2.0, 2.0], [1.0, 5.0]))


def test_too_few_samples_rejected():
    with pytest.raises(InputError, match="spearman needs at least 2 samples, got 1"):
        spearman([1.0], [2.0])
    with pytest.raises(InputError, match="kendall needs at least 2 samples, got 0"):
        kendall([], [])


def test_rank_metrics_invariant_under_monotone_transform():
    rng = np.random.default_rng(17)
    a = rng.random(20)
    b = rng.random(20)
    squashed = np.exp(3.0 * a)  # strictly increasing transform
    assert spearman(squashed, b) == pytest.approx(spearman(a, b), abs=1e-12)
    assert kendall(squashed, b) == pytest.approx(kendall(a, b), abs=1e-12)


def test_top_k_breaks_ties_by_ascending_id():
    scored = {"b": 1.0, "a": 1.0, "c": 2.0, "d": 0.5}
    assert top_k_ids(scored, 3) == ["c", "a", "b"]
    with pytest.raises(InputError, match="k=5 exceeds the 4 scored items"):
        top_k_ids(scored, 5)
    with pytest.raises(InputError, match="k must be at least 1, got 0"):
        top_k_ids(scored, 0)


def test_precision_at_k_self_is_perfect():
    scored = {f"e{i}": float(i) for i in range(8)}
    p, r, f1 = precision_at_k(scored, scored, 3)
    assert (p, r, f1) == (1.0, 1.0, 1.0)


def test_precision_at_k_brute_force():
    rng = np.random.default_rng(13)
    ids = [f"e{i}" for i in range(9)]
    for _ in range(100):
        pred = {i: float(rng.integers(0, 5)) for i in ids}
        true = {i: float(rng.integers(0, 5)) for i in ids}
        k = int(rng.integers(1, 9))
        p, r, f1 = precision_at_k(pred, true, k)
        top = [sorted(scores, key=lambda i: (-scores[i], i))[:k] for scores in (pred, true)]
        assert [top_k_ids(pred, k), top_k_ids(true, k)] == top
        overlap = len(set(top[0]) & set(top[1]))
        assert p == r == overlap / k
        assert f1 == pytest.approx(p if p == 0 else 2 * p * r / (p + r))


scores_by_id = st.dictionaries(
    st.text(alphabet="abcXY", min_size=1, max_size=3),
    st.sampled_from([0.0, -0.0, 1.0, 2.5]) | st.floats(-1e6, 1e6),
    min_size=1, max_size=30)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(scores_by_id, scores_by_id, st.data())
def test_ranking_aligned_arrays_equals_top_k(scores, truth, data):
    """On finite scores, a stable argsort of the values aligned with the sorted ids
    gives the k highest scores' ids in order, ties broken by ascending id, and
    build_report's top-k metrics are precision_at_k's over the shared ids."""
    ids = sorted(scores)
    k = data.draw(st.integers(1, len(ids)))
    ranking = metrics._ranking(np.array([scores[i] for i in ids]))
    assert ([ids[p] for p in ranking[:k].tolist()]
            == sorted(scores, key=lambda i: (-scores[i], i))[:k] == top_k_ids(scores, k))

    shared = set(scores) & set(truth)
    if shared:
        k = data.draw(st.integers(1, len(shared)))
        report = build_report("doctor", "votes", "", scores, truth, k)
        pred, true = ({i: column[i] for i in shared} for column in (scores, truth))
        assert (report.precision, report.recall, report.f1) == precision_at_k(pred, true, k)


def test_precision_requires_matching_universe():
    with pytest.raises(InputError, match="predicted and truth must score the same ids"):
        precision_at_k({"a": 1.0, "b": 2.0}, {"a": 1.0, "c": 2.0}, 1)


def test_rmse_mae_identical_is_zero():
    values = [0.3, 0.5, 0.9]
    assert rmse_mae(values, values) == (0.0, 0.0)


def test_rmse_mae_brute_force():
    rng = np.random.default_rng(23)
    a, b = rng.random(30), rng.random(30)
    rmse, mae = rmse_mae(a, b)
    assert rmse == pytest.approx(math.sqrt(sum((x - y) ** 2 for x, y in zip(a, b)) / 30))
    assert mae == pytest.approx(sum(abs(x - y) for x, y in zip(a, b)) / 30)
    assert rmse >= mae  # power mean inequality
    with pytest.raises(InputError, match="rmse_mae needs at least 1 sample"):
        rmse_mae([], [])


def test_normalize_scores_onto_rating_range():
    out = normalize_scores_for_error([0.0, 0.5, 1.0], [3.0, 4.0, 5.0])
    assert out.tolist() == [3.0, 4.0, 5.0]
    # constant scores carry no ordering: midpoint of the rating range
    out = normalize_scores_for_error([0.7, 0.7], [2.0, 4.0])
    assert out.tolist() == [3.0, 3.0]


def test_build_report_full_row():
    scores = {"a": 0.9, "b": 0.1, "c": 0.5}
    truth = {"a": 5.0, "b": 1.0, "c": 3.0}
    report = build_report("hospital", "social_score", "uniform", scores, truth, k=2)
    assert report.sample_size == 3
    assert report.spearman == 1.0 and report.kendall == 1.0
    assert report.precision == report.recall == report.f1 == 1.0
    assert report.rmse == pytest.approx(0.0) and report.mae == pytest.approx(0.0)


def test_build_report_intersects_universes_and_degrades():
    scores = {"a": 0.9, "b": 0.1, "x": 0.4}
    truth = {"a": 5.0, "b": 1.0, "y": 2.0}
    report = build_report("doctor", "votes", "", scores, truth)
    assert report.sample_size == 2
    assert report.k is None and report.precision is None
    single = build_report("doctor", "votes", "", {"a": 1.0}, {"a": 3.0})
    assert single.sample_size == 1
    assert single.spearman is None and single.kendall is None
    assert single.rmse is not None  # constant maps to midpoint, error still defined


def test_build_report_absent_correlation_on_constant_truth():
    report = build_report("department", "social_score", "normal",
                          {"a": 0.2, "b": 0.4}, {"a": 3.0, "b": 3.0})
    assert report.spearman is None and report.kendall is None


def test_layer_reports_compute_correlations_once_per_column(monkeypatch):
    rng = np.random.default_rng(31)
    ids = [f"e{i:02d}" for i in range(60)]
    # 50 ids both scored and rated, plus unrated and unscored ids on each side
    scores = dict(zip(ids[:55], rng.random(55).tolist()))
    truth = dict(zip(ids[5:], rng.integers(1, 6, 55).astype(float).tolist()))
    ks = [3, 5, 10]
    expected = [build_report("doctor", "social_score", "uniform", scores, truth, k) for k in ks]
    calls = []
    monkeypatch.setattr(metrics, "kendall", lambda a, b: calls.append(len(a)) or kendall(a, b))
    reports = layer_reports("doctor", "social_score", "uniform", scores, truth, ks)
    assert calls == [50]
    assert reports == expected
    assert [report.k for report in reports] == ks
