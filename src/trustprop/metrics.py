"""Validation metrics: rank correlations, top-k retrieval, and scale errors.

Correlations use average ranks for ties (Spearman) and the tie-corrected
tau-b (Kendall). Top-k sets break score ties by ascending entity id so results
are reproducible. Error metrics compare against ratings after min-max rescaling
the scores onto the rating range, since propagation scores have no scale of
their own. Every score and rating must be finite: any other is an InputError
that says where it is.
"""
from __future__ import annotations

import logging
import math
from dataclasses import asdict, dataclass, replace
from typing import Iterable, Mapping

import numpy as np

from .errors import InputError

log = logging.getLogger(__name__)


def _paired_arrays(a, b, what: str) -> tuple[np.ndarray, np.ndarray]:
    """Two 1-dimensional float arrays of one length. Raises InputError otherwise, and on
    a value that is not finite, naming its position."""
    xa = np.asarray(a, dtype=float)
    xb = np.asarray(b, dtype=float)
    if xa.shape != xb.shape or xa.ndim != 1:
        raise InputError(f"{what}: got shapes {xa.shape} and {xb.shape}")
    for x in (xa, xb):
        if (bad := np.flatnonzero(~np.isfinite(x))).size:
            raise InputError(f"{what}: non-finite value {x[bad[0]]} at position {bad[0]}")
    return xa, xb


def average_ranks(values) -> np.ndarray:
    """1-based ranks; tied values share the mean of the ranks they occupy."""
    _, inverse, counts = np.unique(np.asarray(values, dtype=float),
                                   return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)
    starts = ends - counts
    return ((starts + 1 + ends) / 2)[inverse]


def spearman(a, b) -> float:
    """Spearman rank correlation with average-rank tie handling.

    Returns nan when either side has zero rank variance (correlation is
    undefined for a constant vector).
    """
    xa, xb = _paired_arrays(a, b, "spearman")
    if len(xa) < 2:
        raise InputError(f"spearman needs at least 2 samples, got {len(xa)}")
    ra = average_ranks(xa)
    rb = average_ranks(xb)
    da = ra - ra.mean()
    db = rb - rb.mean()
    denom_sq = float((da * da).sum()) * float((db * db).sum())
    if denom_sq == 0.0:
        return math.nan
    return float((da * db).sum()) / math.sqrt(denom_sq)


def _tied_pairs(x: np.ndarray) -> int:
    """Pairs of equal values: the sum of c(c-1)/2 over each value's count c."""
    counts = np.unique(x, return_counts=True)[1]
    return int((counts * (counts - 1) // 2).sum())


def _inversions(x: np.ndarray) -> int:
    """Pairs i < j with x[i] > x[j], for integers x in [0, len(x)).

    A bottom-up merge sort, one vectorised level per doubling of the block
    width: each value is offset by its merge pair's index times len(x), so one
    sorted search over all left halves counts, for every right-half value, the
    greater values in its own left half.
    """
    n = len(x)
    position = np.arange(n)
    inversions = 0
    width = 1
    while width < n:
        offset = position // (2 * width) * n
        right = position // width % 2 == 1
        keys = x + offset
        left = keys[~right]  # sorted: each left half is sorted, and offsets rise
        ends = np.searchsorted(left, offset[right] + n)
        inversions += int((ends - np.searchsorted(left, keys[right], side="right")).sum())
        x = np.sort(keys) - offset
        width *= 2
    return inversions


def kendall(a, b) -> float:
    """Kendall rank correlation, tie-corrected (tau-b).

    Returns nan when every pair is tied on one side. Knight's method (1966) takes
    O(n log n) time: sort the pairs by (a, b), and the discordant pairs are
    the inversions left in b.
    """
    xa, xb = _paired_arrays(a, b, "kendall")
    n = len(xa)
    if n < 2:
        raise InputError(f"kendall needs at least 2 samples, got {n}")
    ra, rb = (np.unique(x, return_inverse=True)[1] for x in (xa, xb))
    ties_a, ties_b, ties_both = _tied_pairs(ra), _tied_pairs(rb), _tied_pairs(ra * n + rb)
    discordant = _inversions(rb[np.lexsort((rb, ra))])
    pairs = n * (n - 1) // 2
    concordance = float(pairs - ties_a - ties_b + ties_both - 2 * discordant)
    n0 = n * (n - 1) / 2.0
    denom_sq = (n0 - ties_a) * (n0 - ties_b)
    if denom_sq == 0.0:
        return math.nan
    return concordance / math.sqrt(denom_sq)


def _scored_dict(scored: Mapping) -> dict[str, float]:
    """``scored`` with str ids and float scores. Raises InputError on a score that is not
    finite, naming the first such id."""
    scores = {str(k): float(v) for k, v in scored.items()}
    finite = np.isfinite(np.fromiter(scores.values(), dtype=float, count=len(scores)))
    if not finite.all():
        bad = list(scores)[int(np.argmin(finite))]
        raise InputError(f"non-finite score {scores[bad]} for {bad!r}")
    return scores


def _check_k(k: int, n: int) -> None:
    if k < 1:
        raise InputError(f"k must be at least 1, got {k}")
    if k > n:
        raise InputError(f"k={k} exceeds the {n} scored items")


def top_k_ids(scored: Mapping[str, float], k: int) -> list[str]:
    """Ids of the k highest scores, ties broken by ascending id."""
    scores = _scored_dict(scored)
    _check_k(k, len(scores))
    ids = sorted(scores)
    return [ids[p] for p in _ranking(np.array([scores[i] for i in ids]))[:k].tolist()]


def precision_at_k(predicted: Mapping[str, float], truth: Mapping[str, float],
                   k: int) -> tuple[float, float, float]:
    """Overlap of the predicted and true top-k sets: (precision, recall, f1).

    Both mappings must score the same ids. Because both sides contribute exactly
    k items, precision and recall coincide here; f1 is their harmonic mean.
    """
    pred = _scored_dict(predicted)
    true = _scored_dict(truth)
    if set(pred) != set(true):
        only_pred = sorted(set(pred) - set(true))[:3]
        only_true = sorted(set(true) - set(pred))[:3]
        raise InputError(
            f"predicted and truth must score the same ids "
            f"(only-predicted: {only_pred}, only-truth: {only_true})"
        )
    _check_k(k, len(pred))
    return _ranked_overlap(*(_ranking(column) for column in _aligned(pred, true)), k)


def _overlap_scores(overlap: int, k: int) -> tuple[float, float, float]:
    precision = overlap / k
    recall = overlap / k
    f1 = 0.0 if precision + recall == 0 else 2 * precision * recall / (precision + recall)
    return precision, recall, f1


def _ranking(values: np.ndarray) -> np.ndarray:
    """Positions of ``values`` from the highest down, ties by ascending position: for
    finite values (:func:`_scored_dict` refuses others) aligned with sorted ids, the first
    k are the top-k ids, ties broken by ascending id."""
    return np.argsort(-values, kind="stable")


def _ranked_overlap(order_s: np.ndarray, order_t: np.ndarray, k: int) -> tuple[float, float, float]:
    """:func:`precision_at_k` of two rankings over the same positions."""
    in_truth = np.zeros(len(order_t), dtype=bool)
    in_truth[order_t[:k]] = True
    return _overlap_scores(int(np.count_nonzero(in_truth[order_s[:k]])), k)


def rmse_mae(predicted, truth) -> tuple[float, float]:
    """Root-mean-square and mean absolute error of two aligned vectors."""
    xa, xb = _paired_arrays(predicted, truth, "rmse_mae")
    if len(xa) == 0:
        raise InputError("rmse_mae needs at least 1 sample")
    diff = xa - xb
    return float(np.sqrt((diff * diff).mean())), float(np.abs(diff).mean())


def normalize_scores_for_error(scores, ratings) -> np.ndarray:
    """Min-max rescale scores onto the ratings' value range.

    A constant score vector carries no ordering information, so it maps to the
    midpoint of the rating range.
    """
    s = np.asarray(scores, dtype=float)
    r = np.asarray(ratings, dtype=float)
    if len(s) == 0:
        return s.copy()
    lo, hi = float(r.min()), float(r.max())
    smin, smax = float(s.min()), float(s.max())
    if smax == smin:
        return np.full(len(s), (lo + hi) / 2.0)
    return lo + (s - smin) * (hi - lo) / (smax - smin)


@dataclass(frozen=True)
class MetricsReport:
    """One evaluation row: a score column against ground truth on one layer."""

    layer: str
    baseline: str
    scenario: str
    k: int | None
    sample_size: int
    precision: float | None = None
    recall: float | None = None
    f1: float | None = None
    spearman: float | None = None
    kendall: float | None = None
    rmse: float | None = None
    mae: float | None = None

    def as_dict(self) -> dict:
        return asdict(self)


def _clean_corr(value: float) -> float | None:
    return None if math.isnan(value) else value


def _aligned(scores: Mapping[str, float],
             truth: Mapping[str, float]) -> tuple[np.ndarray, np.ndarray]:
    """The scores and the truth of the ids both sides hold, in sorted id order."""
    scores = _scored_dict(scores)
    truth = _scored_dict(truth)
    ids = sorted(set(scores) & set(truth))
    return (np.array([scores[i] for i in ids], dtype=float),
            np.array([truth[i] for i in ids], dtype=float))


def build_report(layer: str, baseline: str, scenario: str,
                 scores: Mapping[str, float], truth: Mapping[str, float],
                 k: int | None = None) -> MetricsReport:
    """Compare a score column to ground truth over their shared id universe.

    Entities missing from either side are dropped (an unrated entity cannot
    anchor a comparison). Correlations on fewer than two shared entities, or on
    constant vectors, are reported as absent rather than zero. The top-k sets
    are ranked over the aligned arrays.
    """
    s, t = _aligned(scores, truth)
    n = len(s)
    rho = tau = None
    if n >= 2:
        rho = _clean_corr(spearman(s, t))
        tau = _clean_corr(kendall(s, t))
    precision = recall = f1 = None
    if k is not None and 1 <= k <= n:
        precision, recall, f1 = _ranked_overlap(_ranking(s), _ranking(t), k)
    err_rmse = err_mae = None
    if n:
        normalized = normalize_scores_for_error(s, t)
        err_rmse, err_mae = rmse_mae(normalized, t)
    return MetricsReport(layer=layer, baseline=baseline, scenario=scenario, k=k,
                         sample_size=n, precision=precision, recall=recall, f1=f1,
                         spearman=rho, kendall=tau, rmse=err_rmse, mae=err_mae)


def layer_reports(layer: str, baseline: str, scenario: str,
                  scores: Mapping[str, float], truth: Mapping[str, float],
                  ks: Iterable[int]) -> list[MetricsReport]:
    """One report per usable k for a score column on one layer.

    A k outside 1..(number of ids both scored and rated) is skipped with a
    warning; when no k is left, one report without top-k metrics is made.
    """
    shared = set(scores) & set(truth)
    usable: list[int] = []
    for k in ks:
        if 1 <= k <= len(shared):
            usable.append(k)
        else:
            log.warning("%s layer: skipping k=%d, only %d rated entities", layer, k, len(shared))
    # correlations and errors do not depend on k: compute them once, then add each k's top-k
    reports = [build_report(layer, baseline, scenario, scores, truth, usable[0] if usable else None)]
    if len(usable) > 1:
        rankings = [_ranking(column) for column in _aligned(scores, truth)]
        for k in usable[1:]:
            precision, recall, f1 = _ranked_overlap(*rankings, k)
            reports.append(replace(reports[0], k=k, precision=precision, recall=recall, f1=f1))
    return reports
