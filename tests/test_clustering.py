"""Clustering-layer checks: unification, the three algorithms against their
classical monotone objectives, membership rules, seeding, EMA algebra, and
the differentiable regularizer against hand-computed values."""

from dataclasses import replace
from itertools import permutations, product

import numpy as np
import pytest

from featgroups import clustering
from featgroups.autodiff import Tensor, gradcheck, stack
from featgroups.clustering import (
    COMBINE_MODES,
    COVARIANCE_TYPES,
    EMA_RULES,
    ClusterState,
    ClusteringError,
    ReclusterOptions,
    converge,
    converge_best,
    ema_centroids,
    ema_gaussian,
    fcm_objective,
    fuzzy_memberships,
    gmm_em_step,
    gmm_log_likelihood,
    gmm_responsibilities,
    hard_membership,
    init_kmeanspp,
    init_prior,
    kmeans_assign_and_update,
    kmeans_sse,
    match_clusters,
    recluster,
    reg_loss,
    score_points,
    soft_membership,
    unify,
    update_step,
)


class TestUnify:
    def setup_method(self):
        # one feature's weight row over its bias row
        self.w_num = np.array([[1.0, 2.0, 3.0], [0.5, 0.5, 0.5]])

    def test_numerical_sum_mode(self):
        out = unify(self.w_num, "bias_sum_linear")
        np.testing.assert_array_equal(out, [0.5, 0.5, 0.5, 1.0, 2.0, 3.0])

    def test_bias_mode_length_h_for_any_cf(self):
        assert unify(self.w_num, "bias").shape == (3,)

    def test_unknown_mode_raises(self):
        with pytest.raises(ValueError, match="combine mode"):
            unify(self.w_num, "bias_avg_linear")

    def test_stack_unifies_row_by_row(self):
        weights = np.random.default_rng(0).normal(size=(5, 2, 3))
        for mode in COMBINE_MODES:
            expected = np.stack([unify(w, mode) for w in weights])
            np.testing.assert_array_equal(unify(weights, mode), expected)
            # a list of matrices unifies as their stack
            np.testing.assert_array_equal(unify(list(weights), mode), expected)

    def test_tensor_matches_array(self):
        weights = np.random.default_rng(1).normal(size=(4, 2, 3))
        for mode in COMBINE_MODES:
            out = unify(Tensor(weights), mode)
            assert isinstance(out, Tensor)
            np.testing.assert_array_equal(out.data, unify(weights, mode))

    @pytest.mark.parametrize("shape", [(3,), (3, 3), (4, 3, 2)])
    def test_malformed_shape_raises(self, shape):
        with pytest.raises(ValueError, match=r"\(\.\.\., 2, H\)"):
            unify(np.zeros(shape), "bias_sum_linear")
        with pytest.raises(ValueError, match=r"\(\.\.\., 2, H\)"):
            unify(Tensor(np.zeros(shape)), "bias")


def brute_force_best_partition(points, k):
    """Minimal-SSE assignment by exhaustive enumeration over label vectors."""
    points = np.asarray(points, dtype=np.float64)
    best, best_sse = None, np.inf
    for labels in product(range(k), repeat=len(points)):
        labels = np.array(labels)
        if len(np.unique(labels)) < k:
            continue
        sse = sum(
            ((points[labels == j] - points[labels == j].mean(axis=0)) ** 2).sum()
            for j in range(k)
        )
        if sse < best_sse:
            best, best_sse = labels, sse
    return best, best_sse


class TestKmeans:
    def test_line_instance_one_step(self):
        points = np.array([[0.0], [1.0], [10.0], [11.0]])
        state = ClusterState(kind="kmeans", centroids=np.array([[0.0], [10.0]]))
        scores, mu = kmeans_assign_and_update(points, state)
        np.testing.assert_array_equal(mu, [[0.5], [10.5]])
        np.testing.assert_array_equal(scores.argmax(axis=1), [0, 0, 1, 1])
        # exhaustive enumeration confirms this is the minimal-SSE 2-partition
        labels, best_sse = brute_force_best_partition(points, 2)
        assert kmeans_sse(points, mu) == pytest.approx(best_sse)
        assert len(np.unique(labels[:2])) == 1 and len(np.unique(labels[2:])) == 1

    def test_single_point_single_cluster(self):
        state = ClusterState(kind="kmeans", centroids=np.array([[3.0, 3.0]]))
        _, mu = kmeans_assign_and_update(np.array([[1.0, 2.0]]), state)
        np.testing.assert_array_equal(mu, [[1.0, 2.0]])

    def test_fixed_point_is_stable(self):
        points = np.array([[0.0], [0.0], [4.0], [4.0]])
        state = ClusterState(kind="kmeans", centroids=np.array([[0.0], [4.0]]))
        scores, mu = kmeans_assign_and_update(points, state)
        np.testing.assert_array_equal(mu, state.centroids)
        np.testing.assert_array_equal(scores.argmax(axis=1), [0, 0, 1, 1])

    def test_k_larger_than_points_raises(self):
        state = ClusterState(kind="kmeans", centroids=np.zeros((3, 1)))
        with pytest.raises(ValueError, match="exceeds"):
            kmeans_assign_and_update(np.zeros((2, 1)), state)

    def test_empty_cluster_repair(self):
        # both centroids near origin point mass; third centroid far away
        points = np.array([[0.0], [0.1], [0.2], [50.0]])
        state = ClusterState(kind="kmeans", centroids=np.array([[0.0], [0.1], [100.0]]))
        scores, mu = kmeans_assign_and_update(points, state)
        assert (scores.sum(axis=0) > 0).all()

    def test_lloyd_sse_monotone(self):
        rng = np.random.default_rng(8)
        points = rng.normal(size=(30, 4))
        state = init_kmeanspp(points, 4, np.random.default_rng(0))
        prev = kmeans_sse(points, state.centroids)
        for _ in range(15):
            _, mu = kmeans_assign_and_update(points, state)
            state = ClusterState(kind="kmeans", centroids=mu)
            sse = kmeans_sse(points, mu)
            assert sse <= prev + 1e-9
            prev = sse

    def test_converged_partition_matches_enumeration(self):
        rng = np.random.default_rng(9)
        points = rng.normal(size=(8, 2))
        points[:4] += 8.0
        state = init_kmeanspp(points, 2, np.random.default_rng(1))
        for _ in range(50):
            scores, mu = kmeans_assign_and_update(points, state)
            if np.allclose(mu, state.centroids):
                break
            state = ClusterState(kind="kmeans", centroids=mu)
        labels, best_sse = brute_force_best_partition(points, 2)
        assert kmeans_sse(points, mu) == pytest.approx(best_sse, rel=1e-9)


class TestFuzzy:
    def test_equidistant_point_splits_evenly(self):
        points = np.array([[1.0]])
        state = ClusterState(kind="fuzzy", centroids=np.array([[0.0], [2.0]]), fuzzifier=2.0)
        memberships, _ = fuzzy_memberships(points, state)
        np.testing.assert_allclose(memberships, [[0.5, 0.5]])

    def test_coincident_point_gets_full_membership(self):
        points = np.array([[0.0], [1.0]])
        state = ClusterState(kind="fuzzy", centroids=np.array([[0.0], [2.0]]), fuzzifier=2.0)
        memberships, _ = fuzzy_memberships(points, state)
        np.testing.assert_array_equal(memberships[0], [1.0, 0.0])

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(10)
        points = rng.normal(size=(12, 3))
        state = ClusterState(kind="fuzzy", centroids=rng.normal(size=(3, 3)), fuzzifier=2.5)
        memberships, _ = fuzzy_memberships(points, state)
        np.testing.assert_allclose(memberships.sum(axis=1), 1.0, atol=1e-12)

    def test_invalid_fuzzifier(self):
        with pytest.raises(ValueError, match="fuzzifier"):
            ClusterState(kind="fuzzy", centroids=np.zeros((2, 1)), fuzzifier=1.0)

    def test_objective_monotone(self):
        rng = np.random.default_rng(11)
        points = rng.normal(size=(20, 2))
        for m in (2.0, 5.0, 10.0):
            state = ClusterState(
                kind="fuzzy", centroids=points[:3] + rng.normal(size=(3, 2)), fuzzifier=m
            )
            prev = fcm_objective(points, state)
            for _ in range(10):
                _, mu = fuzzy_memberships(points, state)
                state = ClusterState(kind="fuzzy", centroids=mu, fuzzifier=m)
                obj = fcm_objective(points, state)
                assert obj <= prev + 1e-9
                prev = obj


class TestGmm:
    def test_single_component_matches_sample_moments(self):
        rng = np.random.default_rng(12)
        points = rng.normal(size=(40, 2)) @ np.array([[1.0, 0.3], [0.0, 0.5]])
        state = ClusterState(
            kind="gmm",
            centroids=np.zeros((1, 2)),
            covariances=np.eye(2)[None],
            weights=np.array([1.0]),
            covariance_type="full",
        )
        _, mu, cov, w = gmm_em_step(points, state)
        np.testing.assert_allclose(mu[0], points.mean(axis=0), atol=1e-12)
        centered = points - points.mean(axis=0)
        expected = centered.T @ centered / len(points) + 1e-6 * np.eye(2)
        np.testing.assert_allclose(cov[0], expected, atol=1e-12)
        assert w[0] == pytest.approx(1.0)

    def test_separated_blobs_one_hot_responsibilities(self):
        rng = np.random.default_rng(13)
        points = np.vstack([rng.normal(size=(15, 2)), rng.normal(size=(15, 2)) + 10.0])
        state = init_kmeanspp(points, 2, np.random.default_rng(2), kind="gmm")
        for _ in range(20):
            resp, mu, cov, w = gmm_em_step(points, state)
            state = ClusterState(
                kind="gmm", centroids=mu, covariances=cov, weights=w, covariance_type="full"
            )
        assert (resp.max(axis=1) > 0.99).all()

    @pytest.mark.parametrize("cov_type", ["spherical", "diagonal", "full", "tied"])
    def test_log_likelihood_monotone(self, cov_type):
        rng = np.random.default_rng(14)
        points = rng.normal(size=(25, 3)) * np.array([1.0, 2.0, 0.5])
        state = init_kmeanspp(points, 3, np.random.default_rng(3), kind="gmm", covariance_type=cov_type)
        prev = gmm_log_likelihood(points, state)
        for _ in range(10):
            _, mu, cov, w = gmm_em_step(points, state)
            state = ClusterState(
                kind="gmm", centroids=mu, covariances=cov, weights=w, covariance_type=cov_type
            )
            ll = gmm_log_likelihood(points, state)
            assert ll >= prev - 1e-9
            prev = ll

    def test_fewer_points_than_components_raises(self):
        state = ClusterState(
            kind="gmm",
            centroids=np.zeros((3, 1)),
            covariances=np.ones((3, 1, 1)),
            weights=np.full(3, 1 / 3),
        )
        with pytest.raises(ValueError, match="at least"):
            gmm_em_step(np.zeros((2, 1)), state)


    def test_starved_component_takes_the_worst_explained_point(self):
        # component 2 sits far from every point; the outlier at (3, 20) is
        # the point the other two explain worst
        rng = np.random.default_rng(16)
        points = np.vstack([rng.normal(size=(10, 2)), rng.normal(size=(10, 2)) + 6.0, [[3.0, 20.0]]])
        starved = ClusterState(
            kind="gmm",
            centroids=np.array([[0.0, 0.0], [6.0, 6.0], [500.0, -500.0]]),
            covariances=np.stack([np.eye(2)] * 3),
            weights=np.full(3, 1 / 3),
        )
        resp, mu, _, w = gmm_em_step(points, starved)
        np.testing.assert_array_equal(resp[20], [0.0, 0.0, 1.0])
        np.testing.assert_array_equal(mu[2], points[20])
        assert w[2] == pytest.approx(1 / 21)
        # in a stack, only the starved run is repaired
        healthy = replace(starved, centroids=np.array([[0.0, 0.0], [6.0, 6.0], [3.0, 20.0]]))
        together = gmm_em_step(points, stacked([healthy, starved]))
        for r, state in enumerate((healthy, starved)):
            for batched, alone in zip(together, gmm_em_step(points, state)):
                np.testing.assert_allclose(batched[r], alone, rtol=0, atol=1e-12)

    def test_log_density_matches_a_per_component_solve(self):
        # a tight cloud far from the origin, one component shrunk to the
        # jitter: the quadratic terms of x run to 1e9, so the kernel keeps the
        # digits only if it works on the centred points
        rng = np.random.default_rng(61)
        points = 10.0 + 0.01 * rng.normal(size=(240, 12))
        scatter = np.cov(points.T, bias=True)
        state = ClusterState(
            kind="gmm",
            centroids=points[[0, 80, 160]],
            covariances=np.stack([scatter, 0.5 * scatter + 1e-6 * np.eye(12), 1e-6 * np.eye(12)]),
            weights=np.array([0.5, 0.3, 0.2]),
        )
        log_joint = np.empty((240, 3))
        for j in range(3):
            diff = points - state.centroids[j]
            maha = (diff * np.linalg.solve(state.covariances[j], diff.T).T).sum(axis=1)
            logdet = np.linalg.slogdet(state.covariances[j])[1]
            log_joint[:, j] = np.log(state.weights[j]) - 0.5 * (maha + logdet + 12 * np.log(2 * np.pi))
        peak = log_joint.max(axis=1, keepdims=True)
        evidence = peak[:, 0] + np.log(np.exp(log_joint - peak).sum(axis=1))
        assert gmm_log_likelihood(points, state) == pytest.approx(evidence.sum(), rel=0, abs=1e-9)
        expected = np.exp(log_joint - evidence[:, None])
        np.testing.assert_allclose(gmm_responsibilities(points, state), expected, rtol=0, atol=1e-9)

    @pytest.mark.parametrize("cov_type", COVARIANCE_TYPES)
    def test_covariances_symmetric_positive_definite_after_a_repair_empties_one(self, cov_type):
        # component 2 sits far from every point, so it is starved and takes
        # the point the mixture explains worst: the outlier, whose broad
        # component 1 held nothing else and is left with ~1e-26 of a point
        rng = np.random.default_rng(60)
        points = np.vstack([rng.normal(size=(20, 3)) * 0.3, [[16.0, -12.0, 8.0]]])
        state = ClusterState(
            kind="gmm",
            centroids=np.array([[0.0, 0.0, 0.0], [16.0, -12.0, 8.0], [400.0, 400.0, 400.0]]),
            covariances=np.stack([0.1 * np.eye(3), 4.0 * np.eye(3), np.eye(3)]),
            weights=np.array([0.9, 0.05, 0.05]),
            covariance_type=cov_type,
        )
        resp, _, cov, _ = gmm_em_step(points, state)
        np.testing.assert_array_equal(resp[20], [0.0, 0.0, 1.0])
        assert resp[:, 1].sum() < 1e-12
        # symmetric to a few ulp, as a sum of products need not come out
        # bit-symmetric; moments without ½(C + Cᵀ) are ~75 ulp off
        np.testing.assert_allclose(cov, cov.swapaxes(-1, -2), rtol=2e-15, atol=0)
        assert (np.linalg.eigvalsh(cov) > 0).all()
        if cov_type != "tied":
            # the emptied component keeps the jitter alone
            np.testing.assert_allclose(cov[1], clustering.COVARIANCE_JITTER * np.eye(3), rtol=0, atol=1e-9)


def stacked(states):
    """One state holding ``states`` as runs on a leading axis."""
    gmm = states[0].kind == "gmm"
    return ClusterState(
        kind=states[0].kind,
        centroids=np.stack([s.centroids for s in states]),
        covariances=np.stack([s.covariances for s in states]) if gmm else None,
        weights=np.stack([s.weights for s in states]) if gmm else None,
        fuzzifier=states[0].fuzzifier,
        covariance_type=states[0].covariance_type,
    )


def converge_alone(points, state):
    """The reference: the per-start loop that converged one (K, D) state at a
    time. Returns the converged state and its iteration count."""
    current = state
    for iteration in range(1, clustering.CONVERGE_MAX_ITER + 1):
        _, updated = update_step(points, current)
        settled = (np.abs(updated.centroids - current.centroids) <= clustering.CONVERGE_TOL).all()
        current = updated
        if settled:
            break
    return current, iteration


def objective(points, state):
    """What one (K, D) run minimizes: SSE, FCM objective or -log-likelihood."""
    if state.kind == "kmeans":
        return kmeans_sse(points, state.centroids)
    if state.kind == "fuzzy":
        return fcm_objective(points, state)
    return -gmm_log_likelihood(points, state)


class StackedRuns:
    """Stacked runs of one algorithm converge as one batch, each exactly as
    the per-start reference loop converges it alone; the best run is the
    first minimum of the per-start objectives."""

    kind = None

    @pytest.fixture
    def cov_type(self):
        return "full"

    def assert_same(self, batched, alone):
        np.testing.assert_array_equal(batched, alone)

    def _points(self):
        rng = np.random.default_rng(50)
        blobs = [(0.5, 0.0), (1.0, 4.0), (0.8, -3.0)]
        return np.vstack([rng.normal(size=(12, 3)) * scale + shift for scale, shift in blobs])

    def _starts(self, points, cov_type="full", n=9):
        return [
            init_kmeanspp(
                points, 3, np.random.default_rng(seed), kind=self.kind, fuzzifier=2.0, covariance_type=cov_type
            )
            for seed in range(n)
        ]

    def test_matches_each_start_converged_alone(self, cov_type, monkeypatch):
        points = self._points()
        starts = self._starts(points, cov_type)
        alone, iterations = zip(*(converge_alone(points, start) for start in starts))
        assert len(set(iterations)) > 1  # runs settle at different iterations
        steps = []  # runs in each update_step call
        original = clustering.update_step

        def counting(pts, state):
            steps.append(len(state.centroids) if state.centroids.ndim == 3 else 1)
            return original(pts, state)

        monkeypatch.setattr(clustering, "update_step", counting)
        together = converge(points, stacked(starts))
        # each batched iteration steps the runs still moving: a run that
        # settles after n iterations alone is in the first n
        assert steps == [sum(n > i for n in iterations) for i in range(max(iterations))]
        for r, run in enumerate(alone):
            for name in ("centroids", "covariances", "weights"):
                if getattr(run, name) is not None:
                    self.assert_same(getattr(together, name)[r], getattr(run, name))
        # a single (K, D) state converges as a stack of one run
        steps.clear()
        single = converge(points, starts[4])
        assert single.centroids.shape == starts[4].centroids.shape
        assert steps == [1] * iterations[4]
        self.assert_same(single.centroids, alone[4].centroids)

    def test_winner_is_the_first_minimum_of_the_per_start_objectives(self, cov_type):
        points = self._points()
        starts = self._starts(points, cov_type)
        index, best = converge_best(points, starts)
        runs = [converge_alone(points, start)[0] for start in starts]
        values = [objective(points, run) for run in runs]
        if self.kind == "gmm":
            # batched and alone agree to rounding, so a near tie may go
            # either way: the winner reaches the per-start minimum, and is the
            # first minimum of the batched runs
            assert objective(points, best) == pytest.approx(min(values), abs=1e-9)
            values = list(objective(points, converge(points, stacked(starts))))
        assert index == min(range(len(runs)), key=values.__getitem__)
        self.assert_same(best.centroids, runs[index].centroids)
        assert best.centroids.shape == starts[0].centroids.shape
        # two identical starts tie exactly: the warm start, run 0, wins
        assert converge_best(points, [starts[3], starts[3].copy()])[0] == 0


class TestBatchedKmeans(StackedRuns):
    kind = "kmeans"

    def test_empty_cluster_repair_is_per_run(self):
        # runs 1 and 2 each leave a different cluster empty and steal a point
        # for it; run 0 needs no repair
        points = np.array([[0.0], [0.1], [0.2], [50.0]])
        runs = [
            ClusterState(kind="kmeans", centroids=np.array([[0.0], [0.2], [50.0]])),
            ClusterState(kind="kmeans", centroids=np.array([[0.0], [0.1], [100.0]])),
            ClusterState(kind="kmeans", centroids=np.array([[0.1], [30.0], [50.0]])),
        ]
        scores, means = kmeans_assign_and_update(points, stacked(runs))
        assert scores.shape == (3, 4, 3) and means.shape == (3, 3, 1)
        for r, run in enumerate(runs):
            alone_scores, alone_means = kmeans_assign_and_update(points, run)
            np.testing.assert_array_equal(scores[r], alone_scores)
            np.testing.assert_array_equal(means[r], alone_means)
        np.testing.assert_array_equal(kmeans_sse(points, means), [kmeans_sse(points, m) for m in means])


class TestBatchedFuzzy(StackedRuns):
    kind = "fuzzy"


class TestBatchedGmm(StackedRuns):
    kind = "gmm"

    @pytest.fixture(params=COVARIANCE_TYPES)
    def cov_type(self, request):
        return request.param

    def assert_same(self, batched, alone):
        np.testing.assert_allclose(batched, alone, rtol=0, atol=1e-10)

    def test_singular_run_raises_naming_run_and_component(self):
        points = self._points()
        starts = self._starts(points, n=3)
        starts[1].covariances[2] = 0.0
        with pytest.raises(ClusteringError, match=r"run 1: covariance of component 2 is singular"):
            converge(points, stacked(starts))
        with pytest.raises(ClusteringError, match=r"^covariance of component 2 is singular"):
            converge(points, starts[1])


def assert_constrained(cov, covariance_type, k, d):
    """(K, D, D) covariances that meet their covariance_type exactly."""
    assert cov.shape == (k, d, d)
    diags = np.diagonal(cov, axis1=1, axis2=2)
    if covariance_type in ("diagonal", "spherical"):
        np.testing.assert_array_equal(cov, diags[:, :, None] * np.eye(d))
    if covariance_type == "spherical":
        np.testing.assert_array_equal(diags, np.repeat(diags[:, :1], d, axis=1))
    if covariance_type == "tied":
        np.testing.assert_array_equal(cov, np.broadcast_to(cov[0], cov.shape))
    np.testing.assert_allclose(cov, cov.transpose(0, 2, 1), rtol=1e-12)


class TestCovarianceLayout:
    @pytest.mark.parametrize("cov_type", ["spherical", "diagonal", "full", "tied"])
    def test_every_state_is_k_d_d_and_constrained(self, cov_type):
        rng = np.random.default_rng(40)
        points = np.vstack([rng.normal(size=(5, 3)) * 0.3, rng.normal(size=(4, 3)) * 0.5 + 4.0])
        weights = [np.vstack([np.zeros((1, 3)), p[None, :]]) for p in points]
        state = init_kmeanspp(points, 2, np.random.default_rng(1), kind="gmm", covariance_type=cov_type)
        assert_constrained(state.covariances, cov_type, 2, 3)
        prior = np.zeros((9, 2))
        prior[:6, 0] = prior[6:, 1] = 1.0
        state = init_prior(points, prior, kind="gmm", covariance_type=cov_type)
        assert_constrained(state.covariances, cov_type, 2, 3)
        _, _, cov, _ = gmm_em_step(points, state)
        assert_constrained(cov, cov_type, 2, 3)
        # a stored membership no run can reproduce, so the EMA damping fires
        state.membership = np.zeros((9, 2))
        options = ReclusterOptions(combine_mode="bias", ema_decay=0.5)
        _, damped = recluster(weights, state, options, np.random.default_rng(2))
        assert_constrained(damped.covariances, cov_type, 2, 3)

    def test_tied_prior_is_the_size_weighted_pooled_covariance(self):
        # groups of 6 and 2 points: the M-step pools the scatter of every
        # point, so the tied initial state weights each group by its size
        rng = np.random.default_rng(41)
        points = np.vstack([rng.normal(size=(6, 2)), rng.normal(size=(2, 2)) * 3.0 + 5.0])
        prior = np.zeros((8, 2))
        prior[:6, 0] = prior[6:, 1] = 1.0
        state = init_prior(points, prior, kind="gmm", covariance_type="tied")
        scatter = [np.cov(points[rows].T, bias=True) for rows in (slice(0, 6), slice(6, 8))]
        pooled = (6 * scatter[0] + 2 * scatter[1]) / 8 + 1e-6 * np.eye(2)
        np.testing.assert_allclose(state.covariances, np.stack([pooled, pooled]), rtol=1e-12)

    def test_old_layout_rejected(self):
        with pytest.raises(ValueError, match=r"covariances must have shape \(2, 3, 3\), got \(2, 3\)"):
            ClusterState(
                kind="gmm",
                centroids=np.zeros((2, 3)),
                covariances=np.ones((2, 3)),
                weights=np.full(2, 0.5),
                covariance_type="diagonal",
            )


class TestMembership:
    def test_hard_argmax(self):
        member = hard_membership(np.array([[0.2, 0.8]]))
        np.testing.assert_array_equal(member, [[0.0, 1.0]])

    def test_hard_tie_breaks_low_index(self):
        member = hard_membership(np.array([[0.5, 0.5]]))
        np.testing.assert_array_equal(member, [[1.0, 0.0]])

    def test_hard_exactly_one_per_row(self):
        rng = np.random.default_rng(15)
        member = hard_membership(rng.uniform(size=(50, 4)))
        np.testing.assert_array_equal(member.sum(axis=1), np.ones(50))

    def test_soft_near_one_equals_hard(self):
        # equality requires the argmax to cover every cluster, otherwise the
        # non-empty repair adds memberships that plain argmax lacks
        rng = np.random.default_rng(16)
        checked = 0
        while checked < 1000:
            scores = rng.uniform(0.01, 1.0, size=(6, 3))
            scores[np.arange(6), rng.integers(0, 3, size=6)] += 1.0
            if len(np.unique(scores.argmax(axis=1))) < 3:
                continue
            np.testing.assert_array_equal(soft_membership(scores, 0.999), hard_membership(scores))
            checked += 1

    def test_soft_zero_threshold_fills_matrix(self):
        scores = np.array([[0.3, 0.2], [0.1, 0.9]])
        np.testing.assert_array_equal(soft_membership(scores, 0.0), np.ones((2, 2)))

    def test_soft_threshold_arithmetic(self):
        scores = np.array([[1.0, 0.85, 0.3], [0.1, 0.2, 1.0], [0.2, 1.0, 0.3]])
        member = soft_membership(scores, 0.8)
        np.testing.assert_array_equal(member[0], [1.0, 1.0, 0.0])

    def test_soft_repairs_empty_cluster(self):
        scores = np.array([[0.9, 0.5], [0.8, 0.4]])
        member = soft_membership(scores, 0.99)
        assert member[:, 1].sum() == 1.0 and member[0, 1] == 1.0

    def test_soft_invalid_delta(self):
        with pytest.raises(ValueError, match="delta"):
            soft_membership(np.ones((2, 2)), 1.0)


class TestInit:
    def test_k_equals_f_uses_every_point(self):
        rng = np.random.default_rng(17)
        points = rng.normal(size=(5, 2))
        state = init_kmeanspp(points, 5, np.random.default_rng(4))
        sorted_c = state.centroids[np.lexsort(state.centroids.T)]
        sorted_p = points[np.lexsort(points.T)]
        np.testing.assert_allclose(sorted_c, sorted_p)

    def test_seeded_determinism(self):
        rng = np.random.default_rng(18)
        points = rng.normal(size=(10, 3))
        a = init_kmeanspp(points, 3, np.random.default_rng(7))
        b = init_kmeanspp(points, 3, np.random.default_rng(7))
        np.testing.assert_array_equal(a.centroids, b.centroids)

    def test_far_point_dominates_second_draw(self):
        points = np.array([[0.0], [0.0], [0.0], [100.0]])
        hits = total = 0
        for seed in range(1000):
            state = init_kmeanspp(points, 2, np.random.default_rng(seed))
            first, second = state.centroids[:, 0]
            if first == 0.0:
                total += 1
                hits += second == 100.0
        assert total > 0 and hits / total > 0.99

    def test_too_few_distinct_points_raises(self):
        points = np.array([[0.0], [0.0], [1.0]])
        with pytest.raises(ValueError, match="distinct"):
            init_kmeanspp(points, 3, np.random.default_rng(0))

    def test_duplicates_with_k_distinct_points_draw_each(self):
        points = np.array([[0.0], [0.0], [1.0], [1.0], [2.0]])
        for seed in range(50):
            state = init_kmeanspp(points, 3, np.random.default_rng(seed))
            assert sorted(state.centroids[:, 0]) == [0.0, 1.0, 2.0]

    def test_prior_singleton_groups(self):
        points = np.array([[1.0], [5.0], [9.0]])
        state = init_prior(points, np.eye(3))
        np.testing.assert_array_equal(state.centroids, points)

    def test_prior_single_group_global_mean(self):
        points = np.array([[1.0, 2.0], [3.0, 4.0]])
        state = init_prior(points, np.ones((2, 1)))
        np.testing.assert_array_equal(state.centroids, [[2.0, 3.0]])

    def test_prior_empty_group_raises(self):
        with pytest.raises(ValueError, match="empty"):
            init_prior(np.zeros((2, 1)), np.array([[1.0, 0.0], [1.0, 0.0]]))

    def test_prior_truth_beats_random_grouping_on_intra(self):
        # tight ground-truth blobs: truth-initialized centroids give smaller
        # intracluster mass than random groupings, on average over seeds
        rng = np.random.default_rng(19)
        points = np.vstack([rng.normal(size=(2, 2)) * 0.1 + off for off in (0.0, 5.0, 10.0)])
        truth = np.zeros((6, 3))
        truth[[0, 1], 0] = truth[[2, 3], 1] = truth[[4, 5], 2] = 1.0

        def intra_mass(groups):
            centroids = (groups.T @ points) / groups.sum(axis=0)[:, None]
            loss, _ = reg_loss(Tensor(points), groups, centroids, "hard")
            return loss.item()

        truth_val = intra_mass(truth)
        random_vals = []
        for seed in range(20):
            labels = np.random.default_rng(seed).permutation([0, 0, 1, 1, 2, 2])
            groups = np.zeros((6, 3))
            groups[np.arange(6), labels] = 1.0
            random_vals.append(intra_mass(groups))
        assert truth_val <= np.mean(random_vals)


class TestEma:
    def test_alpha_zero_returns_new(self):
        np.testing.assert_array_equal(ema_centroids(np.ones(3), np.full(3, 7.0), 0.0), np.full(3, 7.0))

    def test_equal_inputs_unchanged(self):
        mu = np.array([1.0, 2.0])
        np.testing.assert_array_equal(ema_centroids(mu, mu, 0.6), mu)

    def test_quarter_blend(self):
        assert ema_centroids(np.zeros(1), np.full(1, 4.0), 0.25)[0] == pytest.approx(3.0)

    def test_alpha_out_of_range(self):
        with pytest.raises(ValueError, match="alpha"):
            ema_centroids(np.zeros(1), np.ones(1), 1.0)

    def test_gaussian_one_dim_moment_matching(self):
        mu, cov = ema_gaussian((np.array([0.0]), np.eye(1)), (np.array([2.0]), np.eye(1)), 0.5)
        assert mu[0] == pytest.approx(1.0, abs=1e-12)
        assert cov[0, 0] == pytest.approx(2.0, abs=1e-12)

    def test_gaussian_alpha_zero_identity_all_rules(self):
        old = (np.array([1.0, 1.0]), np.diag([2.0, 3.0]))
        new = (np.array([-1.0, 4.0]), np.diag([0.5, 1.5]))
        for rule in ("moment_matching", "product_of_experts", "wasserstein"):
            mu, cov = ema_gaussian(old, new, 0.0, rule)
            np.testing.assert_allclose(mu, new[0], atol=1e-12)
            np.testing.assert_allclose(cov, new[1], atol=1e-12)

    def test_gaussian_equal_components_agree_across_rules(self):
        rng = np.random.default_rng(20)
        a = rng.normal(size=(3, 3))
        comp = (rng.normal(size=3), a @ a.T + np.eye(3))
        results = [ema_gaussian(comp, comp, 0.3, rule) for rule in
                   ("moment_matching", "product_of_experts", "wasserstein")]
        for mu, cov in results:
            np.testing.assert_allclose(mu, comp[0], atol=1e-9)
            np.testing.assert_allclose(cov, comp[1], atol=1e-9)

    def test_moment_matching_cross_term_vanishes_at_equal_means(self):
        mu = np.array([1.0, -2.0])
        cov1, cov2 = np.diag([1.0, 4.0]), np.diag([3.0, 2.0])
        _, cov = ema_gaussian((mu, cov1), (mu, cov2), 0.25)
        np.testing.assert_allclose(cov, 0.25 * cov1 + 0.75 * cov2, atol=1e-12)

    def test_non_spd_input_raises(self):
        bad = np.diag([1.0, -1.0])
        with pytest.raises(ClusteringError):
            ema_gaussian((np.zeros(2), bad), (np.zeros(2), np.eye(2)), 0.5)

    @pytest.mark.parametrize("rule", EMA_RULES)
    def test_stacked_components_blend_each_as_alone_bitwise(self, rule):
        rng = np.random.default_rng(22)
        for _ in range(10):
            means = rng.normal(size=(2, 3, 12))
            roots = rng.normal(size=(2, 3, 12, 12))
            covs = roots @ roots.swapaxes(-1, -2) + np.eye(12)
            alpha = rng.uniform(0.0, 1.0)
            mu, cov = ema_gaussian((means[0], covs[0]), (means[1], covs[1]), alpha, rule)
            for j in range(3):
                mu_j, cov_j = ema_gaussian((means[0, j], covs[0, j]), (means[1, j], covs[1, j]), alpha, rule)
                np.testing.assert_array_equal(mu[j], mu_j)
                np.testing.assert_array_equal(cov[j], cov_j)


class TestRegLoss:
    def test_points_at_centroids_zero_loss(self):
        points = np.array([[0.0], [0.0], [4.0], [4.0]])
        member = np.array([[1, 0], [1, 0], [0, 1], [0, 1]], dtype=float)
        centroids = np.array([[0.0], [4.0]])
        loss, degenerate = reg_loss(Tensor(points), member, centroids, "hard")
        assert loss.item() == 0.0 and not degenerate

    def test_hand_evaluated_value(self):
        points = np.array([[0.0], [1.0], [4.0], [4.0]])
        member = np.array([[1, 0], [1, 0], [0, 1], [0, 1]], dtype=float)
        centroids = np.array([[0.0], [4.0]])
        loss, _ = reg_loss(Tensor(points), member, centroids, "hard")
        assert loss.item() == pytest.approx(0.125)

    def test_ratio_homogeneity(self):
        rng = np.random.default_rng(21)
        points = rng.normal(size=(6, 2))
        member = hard_membership(rng.uniform(size=(6, 2)))
        centroids = rng.normal(size=(2, 2))
        base, _ = reg_loss(Tensor(points), member, centroids, "hard")
        # doubling centroid separation doubles the denominator; with intra
        # distances held fixed the ratio halves
        mid = centroids.mean(axis=0)
        spread = mid + 2.0 * (centroids - mid)
        moved = points + np.where(member[:, :1] > 0, spread[0] - centroids[0], spread[1] - centroids[1])
        double, _ = reg_loss(Tensor(moved), member, spread, "hard")
        assert double.item() == pytest.approx(base.item() / 2.0)

    def test_scale_invariance(self):
        rng = np.random.default_rng(22)
        points = rng.normal(size=(5, 3))
        member = hard_membership(rng.uniform(size=(5, 2)))
        centroids = rng.normal(size=(2, 3))
        base, _ = reg_loss(Tensor(points), member, centroids, "hard")
        scaled, _ = reg_loss(Tensor(points * 3.7), member, centroids * 3.7, "hard")
        assert scaled.item() == pytest.approx(base.item(), rel=1e-12)

    def test_degenerate_centroids_sentinel(self):
        points = np.ones((3, 2))
        member = np.ones((3, 1))
        loss, degenerate = reg_loss(Tensor(points), member, np.zeros((2, 2)), "hard")
        assert degenerate and loss.item() == 1e6

    @pytest.mark.parametrize("variant", ["hard", "soft"])
    def test_gradient_matches_finite_differences(self, variant):
        rng = np.random.default_rng(23)
        u = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        centroids = rng.normal(size=(2, 3))
        basis = rng.uniform(0.1, 1.0, size=(5, 2))
        mat = hard_membership(basis) if variant == "hard" else basis

        def loss():
            value, _ = reg_loss(u, mat, centroids, variant)
            return value

        assert gradcheck(loss, [u], eps=1e-5) < 1e-4

    def test_centroids_receive_no_gradient(self):
        rng = np.random.default_rng(24)
        u = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        centroids = Tensor(rng.normal(size=(2, 2)), requires_grad=True)
        member = hard_membership(rng.uniform(size=(4, 2)))
        loss, _ = reg_loss(u, member, centroids.data, "hard")
        loss.backward()
        assert u.grad is not None and centroids.grad is None

    def test_gradient_through_unification(self):
        rng = np.random.default_rng(25)
        weights = [Tensor(rng.normal(size=(2, 3)), requires_grad=True) for _ in range(4)]
        centroids = rng.normal(size=(2, 6))
        member = hard_membership(rng.uniform(size=(4, 2)))

        def loss():
            u = unify(stack(weights), "bias_sum_linear")
            value, _ = reg_loss(u, member, centroids, "hard")
            return value

        assert gradcheck(loss, weights, eps=1e-5) < 1e-4


class TestRecluster:
    def _weights_from_points(self, points):
        # bias row = point, so bias-mode unification recovers the point itself
        return [np.vstack([np.zeros((1, len(p))), p[None, :]]) for p in points]

    def test_fixed_point_keeps_everything(self):
        points = np.array([[0.0, 0.0], [0.0, 0.0], [4.0, 4.0], [4.0, 4.0]])
        weights = self._weights_from_points(points)
        member0 = np.array([[1, 0], [1, 0], [0, 1], [0, 1]], dtype=float)
        state = ClusterState(kind="kmeans", centroids=np.array([[0.0, 0.0], [4.0, 4.0]]))
        state.membership = member0
        options = ReclusterOptions(combine_mode="bias", ema_decay=0.5)
        member, new_state = recluster(weights, state, options)
        np.testing.assert_array_equal(member, member0)
        np.testing.assert_array_equal(new_state.centroids, state.centroids)

    def test_maximal_damping_reproduces_previous_membership(self):
        # p1 sits at 4.9 (nearest old centroid 0), p2 at 5.1 (nearest 10);
        # plain Lloyd update would pull p2 into the first cluster
        points = np.array([[0.0], [4.9], [5.1], [20.0]])
        weights = self._weights_from_points(points)
        prev = np.array([[1, 0], [1, 0], [0, 1], [0, 1]], dtype=float)
        base = ClusterState(kind="kmeans", centroids=np.array([[0.0], [10.0]]))

        undamped = base.copy()
        undamped.membership = prev.copy()
        member_plain, _ = recluster(weights, undamped, ReclusterOptions(combine_mode="bias", ema_decay=0.0))
        assert not np.array_equal(member_plain, prev)

        damped = base.copy()
        damped.membership = prev.copy()
        member, new_state = recluster(weights, damped, ReclusterOptions(combine_mode="bias", ema_decay=0.9999))
        np.testing.assert_array_equal(member, prev)
        np.testing.assert_allclose(new_state.centroids, base.centroids, atol=1e-2)

    def test_single_cluster_tracks_global_mean(self):
        rng = np.random.default_rng(26)
        state = ClusterState(kind="kmeans", centroids=np.zeros((1, 1)))
        state.membership = np.ones((5, 1))
        for _ in range(3):
            points = rng.normal(size=(5, 1))
            weights = self._weights_from_points(points)
            member, state = recluster(weights, state, ReclusterOptions(combine_mode="bias", ema_decay=0.7))
            np.testing.assert_array_equal(member, np.ones((5, 1)))
            np.testing.assert_allclose(state.centroids[0], points.mean(axis=0))

    def test_gmm_recluster_with_ema(self):
        rng = np.random.default_rng(27)
        points = np.vstack([rng.normal(size=(4, 2)) * 0.2, rng.normal(size=(4, 2)) * 0.2 + 6.0])
        weights = self._weights_from_points(points)
        unified = unify(weights, "bias")
        state = init_kmeanspp(unified, 2, np.random.default_rng(5), kind="gmm", covariance_type="diagonal")
        state.membership = hard_membership(score_points(unified, state))
        member, new_state = recluster(
            weights, state, ReclusterOptions(combine_mode="bias", ema_decay=0.5, membership="hard")
        )
        assert member.shape == (8, 2)
        assert new_state.covariances.shape == (2, 2, 2)

    def test_restarts_leave_local_optimum_and_keep_cluster_ids(self):
        # pairs {0,1}, {10,11}, {30,31}; the state merges the first two pairs
        # and splits the third, a Lloyd fixed point with SSE 101 against 1.5
        points = np.array([[0.0], [1.0], [10.0], [11.0], [30.0], [31.0]])
        weights = self._weights_from_points(points)
        stuck = ClusterState(kind="kmeans", centroids=np.array([[5.5], [30.0], [31.0]]))
        stuck.membership = hard_membership(score_points(points, stuck))
        options = ReclusterOptions(combine_mode="bias")
        warm_only, _ = recluster(weights, stuck.copy(), options)
        np.testing.assert_array_equal(warm_only, stuck.membership)

        member, new_state = recluster(weights, stuck.copy(), options, np.random.default_rng(0))
        labels = member.argmax(axis=1)
        _, best_sse = brute_force_best_partition(points, 3)
        assert sum(
            ((points[labels == j] - points[labels == j].mean(axis=0)) ** 2).sum() for j in range(3)
        ) == pytest.approx(best_sse)

        # cluster k is the new cluster nearest old centroid k
        def matching_cost(order):
            return ((stuck.centroids - new_state.centroids[list(order)]) ** 2).sum()

        costs = {order: matching_cost(order) for order in permutations(range(3))}
        assert min(costs, key=costs.get) == (0, 1, 2)
        np.testing.assert_array_equal(labels, [0, 0, 1, 1, 2, 2])

        again, again_state = recluster(weights, stuck.copy(), options, np.random.default_rng(0))
        np.testing.assert_array_equal(again, member)
        np.testing.assert_array_equal(again_state.centroids, new_state.centroids)

    def test_match_clusters_is_minimum_cost_relabelling(self):
        rng = np.random.default_rng(29)
        for k in (1, 2, 4, 5):
            reference = rng.normal(size=(k, 3))
            state = ClusterState(
                kind="gmm",
                centroids=rng.normal(size=(k, 3)),
                covariances=rng.uniform(0.5, 2.0, size=(k, 3))[:, :, None] * np.eye(3),
                weights=rng.dirichlet(np.ones(k)),
                covariance_type="diagonal",
            )
            matched = match_clusters(state, reference)
            best = min(
                permutations(range(k)),
                key=lambda order: ((reference - state.centroids[list(order)]) ** 2).sum(),
            )
            np.testing.assert_array_equal(matched.centroids, state.centroids[list(best)])
            np.testing.assert_array_equal(matched.covariances, state.covariances[list(best)])
            np.testing.assert_array_equal(matched.weights, state.weights[list(best)])

    def test_update_step_dispatches_all_kinds(self):
        rng = np.random.default_rng(28)
        points = rng.normal(size=(6, 2))
        for state in (
            ClusterState(kind="kmeans", centroids=points[:2].copy()),
            ClusterState(kind="fuzzy", centroids=points[:2].copy(), fuzzifier=2.0),
            init_kmeanspp(points, 2, np.random.default_rng(6), kind="gmm"),
        ):
            scores, updated = update_step(points, state)
            assert scores.shape == (6, 2)
            assert updated.centroids.shape == (2, 2)
