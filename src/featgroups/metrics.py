"""Clustering and binary-classification quality metrics.

External clustering metrics (ARI, NMI) compare a hard partition to a ground
truth; the silhouette score judges cluster geometry without one. Classifier
quality is scored threshold-free with AUROC and AUPRC.
"""

from __future__ import annotations

import warnings

import numpy as np


def _as_labels(labels) -> np.ndarray:
    out = np.asarray(labels)
    if out.ndim != 1:
        raise ValueError(f"partition labels must be 1-D, got shape {out.shape}")
    return out


def _contingency(truth: np.ndarray, predicted: np.ndarray) -> np.ndarray:
    _, ti = np.unique(truth, return_inverse=True)
    _, pi = np.unique(predicted, return_inverse=True)
    table = np.zeros((ti.max() + 1, pi.max() + 1), dtype=np.int64)
    np.add.at(table, (ti, pi), 1)
    return table


def ari(truth, predicted) -> float:
    """Adjusted Rand index: chance-corrected pair-counting agreement.

    ARI = (RI − E[RI]) / (max RI − E[RI]), computed via the contingency-table
    identity. 1 means identical partitions, 0 is the chance level, negative
    values mean worse-than-chance agreement.
    """
    truth, predicted = _as_labels(truth), _as_labels(predicted)
    if truth.shape != predicted.shape:
        raise ValueError("partitions must have equal length")
    n = truth.size
    if n < 2:
        raise ValueError("ARI needs at least 2 points")
    table = _contingency(truth, predicted)

    def comb2(x):
        return x * (x - 1) / 2.0

    sum_ij = comb2(table).sum()
    sum_a = comb2(table.sum(axis=1)).sum()
    sum_b = comb2(table.sum(axis=0)).sum()
    total = comb2(n)
    expected = sum_a * sum_b / total
    max_index = 0.5 * (sum_a + sum_b)
    if max_index == expected:
        # both partitions are trivial (all-one-cluster or all-singletons)
        return 1.0
    return float((sum_ij - expected) / (max_index - expected))


def nmi(truth, predicted) -> float:
    """Normalized mutual information, I(u,v) / sqrt(H(u)·H(v)).

    Returns 0.0 (with a warning) when either partition has zero entropy,
    where the normalization is undefined.
    """
    truth, predicted = _as_labels(truth), _as_labels(predicted)
    if truth.shape != predicted.shape:
        raise ValueError("partitions must have equal length")
    n = truth.size
    table = _contingency(truth, predicted).astype(np.float64)
    pa = table.sum(axis=1) / n
    pb = table.sum(axis=0) / n
    h_a = -np.sum(pa[pa > 0] * np.log(pa[pa > 0]))
    h_b = -np.sum(pb[pb > 0] * np.log(pb[pb > 0]))
    if h_a == 0.0 or h_b == 0.0:
        warnings.warn("degenerate single-cluster partition: NMI undefined, returning 0", stacklevel=2)
        return 0.0
    pij = table / n
    outer = np.outer(pa, pb)
    mask = pij > 0
    mi = np.sum(pij[mask] * np.log(pij[mask] / outer[mask]))
    return float(max(mi, 0.0) / np.sqrt(h_a * h_b))


def silhouette(points, labels) -> float:
    """Mean silhouette over points, Euclidean distances.

    Per point: (nearest-other-cluster mean distance − own-cluster mean
    distance) / max of the two. Singleton clusters contribute 0; an exact
    0/0 (all points identical) also scores 0.
    """
    points = np.asarray(points, dtype=np.float64)
    labels = _as_labels(labels)
    if points.shape[0] != labels.size:
        raise ValueError("points and labels must have equal length")
    uniq = np.unique(labels)
    if uniq.size < 2:
        raise ValueError("silhouette needs at least 2 clusters")
    diff = points[:, None, :] - points[None, :, :]
    dist = np.sqrt((diff * diff).sum(axis=-1))
    scores = np.zeros(labels.size)
    for i in range(labels.size):
        same = labels == labels[i]
        n_same = same.sum()
        if n_same == 1:
            continue
        a = dist[i, same].sum() / (n_same - 1)
        b = min(dist[i, labels == c].mean() for c in uniq if c != labels[i])
        denom = max(a, b)
        scores[i] = 0.0 if denom == 0.0 else (b - a) / denom
    return float(scores.mean())


def _check_scores_labels(scores, labels):
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise ValueError("scores and labels must be equal-length 1-D arrays")
    pos = labels == 1
    if pos.all() or not pos.any():
        raise ValueError("both classes must be present")
    return scores, pos


def auroc(scores, labels) -> float:
    """Area under the ROC curve via the Mann-Whitney rank statistic.

    Ties get midranks, so a tied positive/negative pair counts as half.
    """
    scores, pos = _check_scores_labels(scores, labels)
    _, inverse, counts = np.unique(scores, return_inverse=True, return_counts=True)
    ranks = (np.cumsum(counts) - (counts - 1) / 2.0)[inverse]
    n_pos = int(pos.sum())
    n_neg = scores.size - n_pos
    u = ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


def auprc(scores, labels) -> float:
    """Area under the precision-recall curve, step-wise (no interpolation).

    Thresholds sweep through the distinct scores from high to low; the area
    is Σ (R_i − R_{i−1}) · P_i, i.e. average precision.
    """
    scores, pos = _check_scores_labels(scores, labels)
    order = np.argsort(-scores, kind="stable")
    sorted_pos = pos[order].astype(np.float64)
    sorted_scores = scores[order]
    tp = np.cumsum(sorted_pos)
    predicted = np.arange(1, scores.size + 1, dtype=np.float64)
    # evaluate only at the last index of each tied-score block
    block_end = np.ones(scores.size, dtype=bool)
    block_end[:-1] = sorted_scores[:-1] != sorted_scores[1:]
    precision = tp[block_end] / predicted[block_end]
    recall = tp[block_end] / pos.sum()
    prev = np.concatenate([[0.0], recall[:-1]])
    return float(np.sum((recall - prev) * precision))
