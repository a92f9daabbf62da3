"""Metric checks against independent brute-force oracles.

ARI is cross-checked by explicit pair counting, NMI by a looped contingency
evaluation, AUROC by comparing every positive/negative score pair. The
oracles never share code with the implementations they check.
"""

import tracemalloc

import numpy as np
import pytest

from featgroups.metrics import ari, auprc, auroc, nmi, silhouette


def pair_count_ari(truth, predicted):
    """ARI from raw pair classification: 2(ad−bc) / ((a+b)(b+d)+(a+c)(c+d))."""
    n = len(truth)
    a = b = c = d = 0
    for i in range(n):
        for j in range(i + 1, n):
            same_t = truth[i] == truth[j]
            same_p = predicted[i] == predicted[j]
            if same_t and same_p:
                a += 1
            elif same_t:
                b += 1
            elif same_p:
                c += 1
            else:
                d += 1
    denom = (a + b) * (b + d) + (a + c) * (c + d)
    if denom == 0:
        return 1.0
    return 2.0 * (a * d - b * c) / denom


def looped_nmi(truth, predicted):
    """NMI from an explicitly looped contingency table, natural log."""
    n = len(truth)
    cells = {}
    for t, p in zip(truth, predicted):
        cells[(t, p)] = cells.get((t, p), 0) + 1
    row = {}
    col = {}
    for (t, p), c in cells.items():
        row[t] = row.get(t, 0) + c
        col[p] = col.get(p, 0) + c
    h_t = -sum((c / n) * np.log(c / n) for c in row.values())
    h_p = -sum((c / n) * np.log(c / n) for c in col.values())
    if h_t == 0 or h_p == 0:
        return 0.0
    mi = sum(
        (c / n) * np.log((c / n) / ((row[t] / n) * (col[p] / n))) for (t, p), c in cells.items()
    )
    return max(mi, 0.0) / np.sqrt(h_t * h_p)


def pairwise_auroc(scores, labels):
    """Fraction of positive/negative pairs ranked correctly, ties count half."""
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    total = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                total += 1.0
            elif p == q:
                total += 0.5
    return total / (len(pos) * len(neg))


def partitions_up_to_k(n, k):
    """All restricted-growth label strings of length n with at most k labels."""
    out = []

    def grow(prefix, used):
        if len(prefix) == n:
            out.append(tuple(prefix))
            return
        for lab in range(min(used + 1, k)):
            grow(prefix + [lab], max(used, lab + 1))

    grow([], 0)
    return out


class TestAri:
    def test_identical_partitions(self):
        assert ari([0, 0, 1, 1], [1, 1, 0, 0]) == pytest.approx(1.0)

    def test_crossed_pairs_value(self):
        # truth {1,2}{3,4} vs predicted {1,3}{2,4}
        assert ari([0, 0, 1, 1], [0, 1, 0, 1]) == pytest.approx(-0.5)
        assert pair_count_ari([0, 0, 1, 1], [0, 1, 0, 1]) == pytest.approx(-0.5)

    def test_relabeling_invariance(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            t = rng.integers(0, 3, size=10)
            p = rng.integers(0, 3, size=10)
            relabeled = np.array([2, 0, 1])[p]
            assert ari(t, p) == pytest.approx(ari(t, relabeled))
            assert ari(t, p) == pytest.approx(ari(p, t))

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            ari([0], [0])

    def test_exhaustive_six_points_up_to_three_clusters(self):
        parts = partitions_up_to_k(6, 3)
        assert len(parts) == 122
        for t in parts:
            for p in parts:
                assert ari(t, p) == pytest.approx(pair_count_ari(t, p), abs=1e-12)


class TestNmi:
    def test_identical_partitions(self):
        assert nmi([0, 1, 1, 2], [2, 0, 0, 1]) == pytest.approx(1.0)

    def test_independent_partitions_zero(self):
        assert nmi([0, 0, 1, 1], [0, 1, 0, 1]) == pytest.approx(0.0, abs=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            t = rng.integers(0, 4, size=12)
            p = rng.integers(0, 3, size=12)
            assert nmi(t, p) == pytest.approx(nmi(p, t))

    def test_single_cluster_returns_zero_with_warning(self):
        with pytest.warns(UserWarning, match="degenerate"):
            assert nmi([0, 0, 0], [0, 1, 2]) == 0.0

    def test_exhaustive_six_points_up_to_three_clusters(self):
        parts = partitions_up_to_k(6, 3)
        nontrivial = [p for p in parts if len(set(p)) > 1]
        for t in nontrivial:
            for p in nontrivial:
                assert nmi(t, p) == pytest.approx(looped_nmi(t, p), abs=1e-12)


def all_pairs_silhouette(points, labels):
    """Silhouette from the full (F, F) distance matrix, built at once from
    every (F, F, D) difference."""
    diff = points[:, None, :] - points[None, :, :]
    dist = np.sqrt((diff * diff).sum(axis=-1))
    scores = np.zeros(labels.size)
    for i in range(labels.size):
        same = labels == labels[i]
        if same.sum() == 1:
            continue
        a = dist[i, same].sum() / (same.sum() - 1)
        b = min(dist[i, labels == c].mean() for c in np.unique(labels) if c != labels[i])
        scores[i] = 0.0 if max(a, b) == 0.0 else (b - a) / max(a, b)
    return float(scores.mean())


class TestSilhouette:
    def _blobs(self, rng, separation=30.0):
        # unit-variance blobs, centers ~50 sigma apart: mean silhouette ~0.95
        a = rng.normal(size=(20, 3)) + 0.0
        b = rng.normal(size=(20, 3)) + separation
        return np.vstack([a, b]), np.array([0] * 20 + [1] * 20)

    def test_far_blobs_score_high(self):
        points, labels = self._blobs(np.random.default_rng(2))
        assert silhouette(points, labels) > 0.9

    def test_swapping_points_decreases_score(self):
        points, labels = self._blobs(np.random.default_rng(3))
        base = silhouette(points, labels)
        swapped = labels.copy()
        swapped[0], swapped[20] = swapped[20], swapped[0]
        assert silhouette(points, swapped) < base

    def test_identical_points_score_zero(self):
        points = np.zeros((6, 2))
        assert silhouette(points, [0, 0, 0, 1, 1, 1]) == 0.0

    def test_singletons_contribute_zero(self):
        points = np.array([[0.0], [10.0], [10.1]])
        value = silhouette(points, [0, 1, 1])
        per_point = np.array([0.0, (10.0 - 0.1) / 10.0, (10.1 - 0.1) / 10.1])
        assert value == pytest.approx(per_point.mean())

    def test_one_cluster_raises(self):
        with pytest.raises(ValueError):
            silhouette(np.zeros((3, 2)), [0, 0, 0])

    @pytest.mark.parametrize("shape, k", [((6, 2000), 3), ((240, 12), 4), ((9, 5), 2)])
    def test_equals_the_all_pairs_formula_bitwise(self, shape, k):
        rng = np.random.default_rng(4)
        points = rng.normal(size=shape) * rng.uniform(0.1, 10.0, size=shape[1])
        labels = np.arange(shape[0]) % k
        assert silhouette(points, labels) == all_pairs_silhouette(points, labels)

    def test_wide_points_stay_small(self):
        # the static `flat` vectors' shape: all (F, F, D) differences and
        # their squares would take 121 MB
        points = np.random.default_rng(5).normal(size=(6, 210_000))
        tracemalloc.start()
        try:
            silhouette(points, [0, 0, 1, 1, 2, 2])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 40e6, f"peak {peak / 1e6:.0f} MB"


class TestAuroc:
    def test_documented_example(self):
        scores = [0.1, 0.4, 0.35, 0.8]
        labels = [0, 0, 1, 1]
        assert auroc(scores, labels) == pytest.approx(0.75)
        assert pairwise_auroc(scores, labels) == pytest.approx(0.75)

    def test_perfect_and_flipped(self):
        scores = np.array([0.9, 0.8, 0.2, 0.1])
        labels = np.array([1, 1, 0, 0])
        assert auroc(scores, labels) == pytest.approx(1.0)
        assert auroc(-scores, labels) == pytest.approx(0.0)

    def test_one_class_raises(self):
        with pytest.raises(ValueError):
            auroc([0.1, 0.2], [1, 1])

    def test_brute_force_500_random_sets(self):
        rng = np.random.default_rng(4)
        for _ in range(500):
            n = int(rng.integers(4, 30))
            # quantized scores force plenty of ties
            scores = np.round(rng.uniform(size=n), 1)
            labels = rng.integers(0, 2, size=n)
            if labels.all() or not labels.any():
                labels[0] = 1 - labels[0]
            assert auroc(scores, labels) == pytest.approx(
                pairwise_auroc(scores, labels), abs=1e-10
            )

    def test_rank_statistic_matches_trapezoid_on_tie_free_inputs(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = 40
            scores = rng.permutation(n) + rng.uniform(0, 0.5, size=n)
            labels = rng.integers(0, 2, size=n)
            if labels.all() or not labels.any():
                labels[0] = 1 - labels[0]
            order = np.argsort(-scores)
            tps = np.cumsum(labels[order])
            fps = np.cumsum(1 - labels[order])
            tpr = np.concatenate([[0], tps / labels.sum()])
            fpr = np.concatenate([[0], fps / (n - labels.sum())])
            trapezoid = np.trapezoid(tpr, fpr)
            assert auroc(scores, labels) == pytest.approx(trapezoid, abs=1e-10)

    def test_random_scores_near_half(self):
        rng = np.random.default_rng(6)
        scores = rng.uniform(size=10000)
        labels = np.array([0, 1] * 5000)
        assert auroc(scores, labels) == pytest.approx(0.5, abs=0.05)


class TestAuprc:
    def test_perfect_separation(self):
        assert auprc([0.9, 0.8, 0.1], [1, 1, 0]) == pytest.approx(1.0)

    def test_known_small_case(self):
        # descending scores -> labels 1,0,1: P at R-steps: 1/1 then 2/3
        value = auprc([0.9, 0.6, 0.3], [1, 0, 1])
        assert value == pytest.approx(0.5 * 1.0 + 0.5 * (2 / 3))

    def test_tied_scores_grouped(self):
        # both ties evaluated at the block end, not one-by-one
        value = auprc([0.5, 0.5, 0.1], [1, 1, 0])
        assert value == pytest.approx(1.0)

    def test_one_class_raises(self):
        with pytest.raises(ValueError):
            auprc([0.1, 0.2], [0, 0])
