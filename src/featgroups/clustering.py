"""Feature-group discovery over embedding weights.

Each feature of the model owns a small weight matrix; these matrices are
mapped to fixed-length vectors (unification), clustered with K-means, fuzzy
C-means, or a Gaussian mixture, and turned into a binary feature-to-group
membership matrix. A reclustering call runs the algorithm to convergence from
the previous parameters and from seeded k-means++ restarts, keeps the best
run, and keeps cluster ids matched to the previous centroids. Centroid motion
between reclustering calls can be damped with an exponential moving average,
and a differentiable intra/inter-cluster ratio regularizes the weights toward
the current cluster structure.

All functions are pure over value inputs, apart from drawing on a random
generator passed to them; distinct ClusterState instances may be used
concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .autodiff import Tensor, concat

COMBINE_MODES = ("bias", "bias_sum_linear")
MEMBERSHIP_MODES = ("hard", "soft")
REG_VARIANTS = ("hard", "soft")
COVARIANCE_TYPES = ("spherical", "diagonal", "full", "tied")
EMA_RULES = ("moment_matching", "product_of_experts", "wasserstein")

COVARIANCE_JITTER = 1e-6
DEGENERATE_LOSS = 1e6
RECLUSTER_RESTARTS = 8  # k-means++ restarts per reclustering call
CONVERGE_MAX_ITER = 100  # iterations per clustering run
CONVERGE_TOL = 1e-9  # largest centroid coordinate shift counted as settled


class ClusteringError(ValueError):
    """Numerical failure inside a clustering step (e.g. singular covariance)."""


# ----------------------------------------------------------------------
# unification
# ----------------------------------------------------------------------


def unify(weight: np.ndarray, combine_mode: str) -> np.ndarray:
    """Map one feature's (2, H) weight matrix, a weight row over a bias row,
    to a vector: [bias ‖ weight], or just [bias] in bias-only mode."""
    if combine_mode not in COMBINE_MODES:
        raise ValueError(f"unknown combine mode {combine_mode!r}, expected one of {COMBINE_MODES}")
    weight = np.asarray(weight, dtype=np.float64)
    if weight.ndim != 2 or weight.shape[0] != 2:
        raise ValueError(f"weight matrix must be 2 x H, got {weight.shape}")
    if combine_mode == "bias":
        return weight[1].copy()
    return np.concatenate([weight[1], weight[0]])


def unify_tensor(weight: Tensor, combine_mode: str) -> Tensor:
    """Differentiable twin of :func:`unify` for the regularizer path."""
    if combine_mode not in COMBINE_MODES:
        raise ValueError(f"unknown combine mode {combine_mode!r}, expected one of {COMBINE_MODES}")
    if combine_mode == "bias":
        return weight[1]
    return concat([weight[1], weight[0]], axis=0)


def unify_all(weights: list[np.ndarray], combine_mode: str) -> np.ndarray:
    return np.stack([unify(w, combine_mode) for w in weights])


# ----------------------------------------------------------------------
# cluster state
# ----------------------------------------------------------------------


@dataclass
class ClusterState:
    """Parameters of the configured clustering algorithm plus the current
    membership matrix, everything needed to resume training mid-run."""

    kind: str  # kmeans | fuzzy | gmm
    centroids: np.ndarray  # (K, D)
    covariances: np.ndarray | None = None  # layout depends on covariance_type
    weights: np.ndarray | None = None  # (K,) mixture weights, gmm only
    fuzzifier: float | None = None  # fuzzy only, m > 1
    covariance_type: str = "full"
    membership: np.ndarray | None = None  # (F, K) binary

    def __post_init__(self):
        self.centroids = np.asarray(self.centroids, dtype=np.float64)
        if self.kind not in ("kmeans", "fuzzy", "gmm"):
            raise ValueError(f"unknown clustering kind {self.kind!r}")
        if self.kind == "fuzzy" and (self.fuzzifier is None or self.fuzzifier <= 1.0):
            raise ValueError("fuzzy clustering needs fuzzifier m > 1")
        if self.kind == "gmm" and self.covariance_type not in COVARIANCE_TYPES:
            raise ValueError(f"unknown covariance type {self.covariance_type!r}")

    @property
    def n_clusters(self) -> int:
        return self.centroids.shape[0]

    def copy(self) -> "ClusterState":
        return replace(
            self,
            centroids=self.centroids.copy(),
            covariances=None if self.covariances is None else np.array(self.covariances),
            weights=None if self.weights is None else self.weights.copy(),
            membership=None if self.membership is None else self.membership.copy(),
        )


def _distances(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    diff = points[:, None, :] - centroids[None, :, :]
    return np.sqrt((diff * diff).sum(axis=-1))


# ----------------------------------------------------------------------
# K-means
# ----------------------------------------------------------------------


def kmeans_assign_and_update(points: np.ndarray, state: ClusterState):
    """One Lloyd step: hard-assign to nearest centroid, recompute means.

    Empty clusters steal the point farthest from its own centroid (skipping
    points that are alone in theirs). Returns one-hot scores and new means.
    """
    points = np.asarray(points, dtype=np.float64)
    k = state.n_clusters
    if k > points.shape[0]:
        raise ValueError(f"K={k} exceeds number of points {points.shape[0]}")
    dist = _distances(points, state.centroids)
    assign = dist.argmin(axis=1)
    for empty in range(k):
        if (assign == empty).any():
            continue
        sizes = np.bincount(assign, minlength=k)
        eligible = sizes[assign] > 1
        own_dist = np.where(eligible, dist[np.arange(points.shape[0]), assign], -np.inf)
        assign[own_dist.argmax()] = empty
    scores = np.zeros((points.shape[0], k))
    scores[np.arange(points.shape[0]), assign] = 1.0
    new_centroids = np.stack([points[assign == j].mean(axis=0) for j in range(k)])
    return scores, new_centroids


def kmeans_sse(points: np.ndarray, centroids: np.ndarray) -> float:
    """Within-cluster sum of squared distances under nearest-centroid assignment."""
    d = _distances(points, centroids)
    return float((d.min(axis=1) ** 2).sum())


# ----------------------------------------------------------------------
# fuzzy C-means
# ----------------------------------------------------------------------


def fuzzy_memberships(points: np.ndarray, state: ClusterState):
    """One FCM step: memberships from current centroids, then weighted means.

    p_fk = 1 / Σ_l (d_fk / d_fl)^(2/(m−1)); a point coinciding with a centroid
    gets membership 1 there (lowest such index on ties).
    """
    points = np.asarray(points, dtype=np.float64)
    m = state.fuzzifier
    if m is None or m <= 1.0:
        raise ValueError("fuzzifier m must be > 1")
    dist = _distances(points, state.centroids)
    memberships = _fcm_scores(dist, m)
    pm = memberships**m
    new_centroids = (pm.T @ points) / pm.sum(axis=0)[:, None]
    return memberships, new_centroids


def _fcm_scores(dist: np.ndarray, m: float) -> np.ndarray:
    exponent = 2.0 / (m - 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = (dist[:, :, None] / dist[:, None, :]) ** exponent
        memberships = 1.0 / ratio.sum(axis=2)
    zero_rows = (dist == 0.0).any(axis=1)
    for f in np.flatnonzero(zero_rows):
        memberships[f] = 0.0
        memberships[f, int(np.flatnonzero(dist[f] == 0.0)[0])] = 1.0
    return memberships


def fcm_objective(points: np.ndarray, state: ClusterState) -> float:
    """Σ_{f,k} p_fk^m · d_fk² with memberships implied by the state's centroids."""
    dist = _distances(points, state.centroids)
    p = _fcm_scores(dist, state.fuzzifier)
    return float(((p**state.fuzzifier) * dist**2).sum())


# ----------------------------------------------------------------------
# Gaussian mixture
# ----------------------------------------------------------------------


def _covariances_as_full(state: ClusterState) -> np.ndarray:
    k, d = state.centroids.shape
    cov = state.covariances
    if state.covariance_type == "full":
        return np.array(cov)
    if state.covariance_type == "tied":
        return np.broadcast_to(cov, (k, d, d)).copy()
    if state.covariance_type == "diagonal":
        return np.stack([np.diag(row) for row in cov])
    return np.stack([np.eye(d) * v for v in cov])  # spherical


def _covariances_from_full(full: np.ndarray, covariance_type: str) -> np.ndarray:
    if covariance_type == "full":
        return full
    if covariance_type == "tied":
        return full.mean(axis=0)
    diags = np.stack([np.diag(m) for m in full])
    if covariance_type == "diagonal":
        return diags
    return diags.mean(axis=1)  # spherical


def _log_gaussians(points: np.ndarray, state: ClusterState) -> np.ndarray:
    """Per-point, per-component log N(x | mu_k, Sigma_k)."""
    k, d = state.centroids.shape
    full = _covariances_as_full(state)
    out = np.empty((points.shape[0], k))
    for j in range(k):
        try:
            chol = np.linalg.cholesky(full[j])
        except np.linalg.LinAlgError:
            raise ClusteringError(f"covariance of component {j} is singular despite jitter") from None
        diff = points - state.centroids[j]
        solved = np.linalg.solve(chol, diff.T)
        logdet = 2.0 * np.log(np.diag(chol)).sum()
        out[:, j] = -0.5 * ((solved**2).sum(axis=0) + logdet + d * np.log(2.0 * np.pi))
    return out


def gmm_log_likelihood(points: np.ndarray, state: ClusterState) -> float:
    log_prob = _log_gaussians(points, state) + np.log(state.weights)[None, :]
    peak = log_prob.max(axis=1, keepdims=True)
    return float((peak[:, 0] + np.log(np.exp(log_prob - peak).sum(axis=1))).sum())


def gmm_responsibilities(points: np.ndarray, state: ClusterState) -> np.ndarray:
    log_prob = _log_gaussians(points, state) + np.log(state.weights)[None, :]
    log_prob -= log_prob.max(axis=1, keepdims=True)
    prob = np.exp(log_prob)
    return prob / prob.sum(axis=1, keepdims=True)


def gmm_em_step(points: np.ndarray, state: ClusterState):
    """One EM iteration. Returns (responsibilities, means, covariances, weights).

    Covariances follow the state's layout and carry +1e-6 diagonal jitter.
    """
    points = np.asarray(points, dtype=np.float64)
    k, d = state.centroids.shape
    if points.shape[0] < k:
        raise ValueError(f"need at least K={k} points, got {points.shape[0]}")
    resp = gmm_responsibilities(points, state)
    nk = resp.sum(axis=0)
    nk = np.maximum(nk, 1e-12)
    means = (resp.T @ points) / nk[:, None]
    weights = nk / points.shape[0]
    weights = weights / weights.sum()

    diff = points[:, None, :] - means[None, :, :]  # (F, K, D)
    if state.covariance_type == "full":
        cov = np.einsum("fk,fki,fkj->kij", resp, diff, diff) / nk[:, None, None]
        cov += COVARIANCE_JITTER * np.eye(d)
    elif state.covariance_type == "tied":
        cov = np.einsum("fk,fki,fkj->ij", resp, diff, diff) / points.shape[0]
        cov += COVARIANCE_JITTER * np.eye(d)
    elif state.covariance_type == "diagonal":
        cov = np.einsum("fk,fki->ki", resp, diff**2) / nk[:, None] + COVARIANCE_JITTER
    else:  # spherical
        cov = (np.einsum("fk,fki->ki", resp, diff**2) / nk[:, None]).mean(axis=1) + COVARIANCE_JITTER
    return resp, means, cov, weights


# ----------------------------------------------------------------------
# membership matrices
# ----------------------------------------------------------------------


def hard_membership(scores: np.ndarray) -> np.ndarray:
    """One group per feature: the argmax score, ties to the lowest index."""
    scores = np.asarray(scores, dtype=np.float64)
    member = np.zeros_like(scores)
    member[np.arange(scores.shape[0]), scores.argmax(axis=1)] = 1.0
    return member


def soft_membership(scores: np.ndarray, delta: float) -> np.ndarray:
    """Thresholded multi-membership that can never leave a cluster empty.

    Three phases: argmax-assign every feature; give any empty cluster its
    best-scoring feature; then also admit feature f to cluster k wherever
    p_fk / max_l p_fl > delta.
    """
    if not 0.0 <= delta < 1.0:
        raise ValueError(f"delta must be in [0, 1), got {delta}")
    scores = np.asarray(scores, dtype=np.float64)
    member = hard_membership(scores)
    for k in range(scores.shape[1]):
        if not member[:, k].any():
            member[scores[:, k].argmax(), k] = 1.0
    row_max = scores.max(axis=1, keepdims=True)
    member[scores / row_max > delta] = 1.0
    return member


def membership_from_scores(scores: np.ndarray, mode: str, delta: float = 0.0) -> np.ndarray:
    if mode == "hard":
        return hard_membership(scores)
    if mode == "soft":
        return soft_membership(scores, delta)
    raise ValueError(f"unknown membership mode {mode!r}, expected one of {MEMBERSHIP_MODES}")


# ----------------------------------------------------------------------
# initialization
# ----------------------------------------------------------------------


def _group_covariances(points, membership, covariance_type):
    k = membership.shape[1]
    d = points.shape[1]
    full = np.empty((k, d, d))
    for j in range(k):
        group = points[membership[:, j] > 0]
        centered = group - group.mean(axis=0)
        full[j] = centered.T @ centered / group.shape[0] + COVARIANCE_JITTER * np.eye(d)
    return _covariances_from_full(full, covariance_type)


def init_kmeanspp(
    points: np.ndarray,
    k: int,
    rng: np.random.Generator,
    kind: str = "kmeans",
    fuzzifier: float | None = None,
    covariance_type: str = "full",
) -> ClusterState:
    """k-means++ seeding: first centroid uniform, then proportional to the
    squared distance from the nearest chosen centroid.

    For a GMM the seeds define initial hard groups from which per-component
    means, covariances, and mixture weights are estimated.
    """
    points = np.asarray(points, dtype=np.float64)
    n = points.shape[0]
    if k > n:
        raise ValueError(f"K={k} exceeds number of points {n}")
    if np.unique(points, axis=0).shape[0] < k:
        raise ValueError(f"need at least K={k} distinct points")
    chosen = [int(rng.integers(n))]
    for _ in range(k - 1):
        d2 = (_distances(points, points[chosen]) ** 2).min(axis=1)
        chosen.append(int(rng.choice(n, p=d2 / d2.sum())))
    centroids = points[chosen].copy()
    if kind == "fuzzy":
        return ClusterState(kind="fuzzy", centroids=centroids, fuzzifier=fuzzifier)
    if kind == "gmm":
        groups = hard_membership(-_distances(points, centroids))
        cov = _group_covariances(points, groups, covariance_type)
        weights = groups.sum(axis=0) / n
        return ClusterState(
            kind="gmm",
            centroids=centroids,
            covariances=cov,
            weights=weights,
            covariance_type=covariance_type,
        )
    return ClusterState(kind="kmeans", centroids=centroids)


def init_prior(
    points: np.ndarray,
    prior_groups: np.ndarray,
    kind: str = "kmeans",
    fuzzifier: float | None = None,
    covariance_type: str = "full",
) -> ClusterState:
    """Initialize centroids (and GMM moments) directly from given hard groups."""
    points = np.asarray(points, dtype=np.float64)
    prior_groups = np.asarray(prior_groups, dtype=np.float64)
    sizes = prior_groups.sum(axis=0)
    if (sizes == 0).any():
        raise ValueError(f"prior group {int((sizes == 0).argmax())} is empty")
    centroids = (prior_groups.T @ points) / sizes[:, None]
    if kind == "fuzzy":
        state = ClusterState(kind="fuzzy", centroids=centroids, fuzzifier=fuzzifier)
    elif kind == "gmm":
        state = ClusterState(
            kind="gmm",
            centroids=centroids,
            covariances=_group_covariances(points, prior_groups, covariance_type),
            weights=sizes / points.shape[0],
            covariance_type=covariance_type,
        )
    else:
        state = ClusterState(kind="kmeans", centroids=centroids)
    state.membership = (prior_groups > 0).astype(np.float64)
    return state


# ----------------------------------------------------------------------
# EMA damping
# ----------------------------------------------------------------------


def ema_centroids(old: np.ndarray, new: np.ndarray, alpha: float) -> np.ndarray:
    """mu = alpha * old + (1 - alpha) * new."""
    if not 0.0 <= alpha < 1.0:
        raise ValueError(f"alpha must be in [0, 1), got {alpha}")
    return alpha * np.asarray(old, dtype=np.float64) + (1.0 - alpha) * np.asarray(new, dtype=np.float64)


def _spd_sqrt(mat: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(mat)
    if vals.min() <= 0:
        raise ClusteringError("covariance is not positive definite")
    return (vecs * np.sqrt(vals)) @ vecs.T


def _check_spd(mat: np.ndarray, label: str):
    if not np.allclose(mat, mat.T):
        raise ClusteringError(f"{label} covariance is not symmetric")
    try:
        np.linalg.cholesky(mat)
    except np.linalg.LinAlgError:
        raise ClusteringError(f"{label} covariance is not positive definite") from None


def ema_gaussian(old: tuple, new: tuple, alpha: float, rule: str = "moment_matching") -> tuple:
    """Blend two Gaussian components (mean, full covariance) with weight
    ``alpha`` on the old one.

    moment_matching treats the pair as a two-component mixture and returns
    the Gaussian with the mixture's moments; product_of_experts blends the
    precisions; wasserstein interpolates the covariance square roots.
    """
    if not 0.0 <= alpha < 1.0:
        raise ValueError(f"alpha must be in [0, 1), got {alpha}")
    if rule not in EMA_RULES:
        raise ValueError(f"unknown EMA rule {rule!r}, expected one of {EMA_RULES}")
    mu1, cov1 = (np.asarray(a, dtype=np.float64) for a in old)
    mu2, cov2 = (np.asarray(a, dtype=np.float64) for a in new)
    _check_spd(cov1, "old")
    _check_spd(cov2, "new")
    if rule == "moment_matching":
        mu = alpha * mu1 + (1.0 - alpha) * mu2
        gap = mu1 - mu2
        cov = alpha * cov1 + (1.0 - alpha) * cov2 + alpha * (1.0 - alpha) * np.outer(gap, gap)
        return mu, cov
    if rule == "product_of_experts":
        p1 = np.linalg.inv(cov1)
        p2 = np.linalg.inv(cov2)
        cov = np.linalg.inv(alpha * p1 + (1.0 - alpha) * p2)
        mu = cov @ (alpha * p1 @ mu1 + (1.0 - alpha) * p2 @ mu2)
        return mu, 0.5 * (cov + cov.T)
    root = alpha * _spd_sqrt(cov1) + (1.0 - alpha) * _spd_sqrt(cov2)
    return alpha * mu1 + (1.0 - alpha) * mu2, root @ root


# ----------------------------------------------------------------------
# regularization loss
# ----------------------------------------------------------------------


def _pairwise_norms(u: Tensor, centroids: np.ndarray) -> Tensor:
    f, d = u.shape
    diff = u.reshape(f, 1, d) - Tensor(centroids.reshape(1, -1, d))
    return ((diff * diff).sum(axis=2)).sqrt()


def reg_loss(
    u: Tensor,
    membership_or_scores: np.ndarray,
    centroids: np.ndarray,
    variant: str = "hard",
):
    """Cluster-shape regularizer: mean intracluster over mean intercluster.

    The gradient flows only into ``u`` (hence the embedding weights);
    centroids and the membership/score matrix are constants. The hard variant
    sums member-to-centroid distances; the soft variant softmaxes the given
    matrix over clusters (per feature) and measures ‖s_fk·u_f − mu_k‖ over
    all features. Returns (loss tensor, degenerate flag); coincident
    centroids yield a constant sentinel loss with the flag set.
    """
    if variant not in REG_VARIANTS:
        raise ValueError(f"unknown regularizer variant {variant!r}, expected one of {REG_VARIANTS}")
    centroids = np.asarray(centroids, dtype=np.float64)
    k = centroids.shape[0]
    gaps = centroids[:, None, :] - centroids[None, :, :]
    inter = np.sqrt((gaps**2).sum(axis=-1)).sum() / k
    if inter == 0.0:
        return Tensor(DEGENERATE_LOSS), True
    mat = np.asarray(membership_or_scores, dtype=np.float64)
    f, d = u.shape
    if variant == "hard":
        norms = _pairwise_norms(u, centroids)
        intra = (norms * Tensor(mat)).sum() * (1.0 / k)
    else:
        shifted = mat - mat.max(axis=1, keepdims=True)
        soft = np.exp(shifted)
        soft /= soft.sum(axis=1, keepdims=True)
        scaled = u.reshape(f, 1, d) * Tensor(soft.reshape(f, k, 1))
        diff = scaled - Tensor(centroids.reshape(1, k, d))
        intra = ((diff * diff).sum(axis=2)).sqrt().sum() * (1.0 / k)
    return intra * (1.0 / inter), False


# ----------------------------------------------------------------------
# reclustering (the update interleaved with training)
# ----------------------------------------------------------------------


@dataclass
class ReclusterOptions:
    combine_mode: str = "bias_sum_linear"
    membership: str = "hard"  # hard | soft
    delta: float = 0.0  # soft threshold
    alpha: float = 0.0  # EMA decay
    ema_rule: str = "moment_matching"


def score_points(points: np.ndarray, state: ClusterState) -> np.ndarray:
    """Assignment scores for the state's algorithm without updating it."""
    if state.kind == "kmeans":
        dist = _distances(points, state.centroids)
        scores = np.zeros_like(dist)
        scores[np.arange(points.shape[0]), dist.argmin(axis=1)] = 1.0
        return scores
    if state.kind == "fuzzy":
        return _fcm_scores(_distances(points, state.centroids), state.fuzzifier)
    return gmm_responsibilities(points, state)


def reg_basis(points: np.ndarray, state: ClusterState) -> np.ndarray:
    """Matrix the soft regularizer softmaxes: raw distances for K-means,
    membership scores for fuzzy C-means and GMM."""
    if state.kind == "kmeans":
        return _distances(points, state.centroids)
    return score_points(points, state)


def update_step(points: np.ndarray, state: ClusterState):
    """One full iteration of the state's algorithm; returns (scores, new state)."""
    if state.kind == "kmeans":
        scores, centroids = kmeans_assign_and_update(points, state)
        return scores, replace(state.copy(), centroids=centroids)
    if state.kind == "fuzzy":
        scores, centroids = fuzzy_memberships(points, state)
        return scores, replace(state.copy(), centroids=centroids)
    scores, means, cov, weights = gmm_em_step(points, state)
    return scores, replace(state.copy(), centroids=means, covariances=cov, weights=weights)


def _ema_state(old: ClusterState, new: ClusterState, alpha: float, rule: str) -> ClusterState:
    if old.kind != "gmm":
        out = new.copy()
        out.centroids = ema_centroids(old.centroids, new.centroids, alpha)
        return out
    old_full = _covariances_as_full(old)
    new_full = _covariances_as_full(new)
    means = np.empty_like(new.centroids)
    full = np.empty_like(new_full)
    for j in range(old.n_clusters):
        means[j], full[j] = ema_gaussian(
            (old.centroids[j], old_full[j]), (new.centroids[j], new_full[j]), alpha, rule
        )
    out = new.copy()
    out.centroids = means
    out.covariances = _covariances_from_full(full, old.covariance_type)
    mixed = alpha * old.weights + (1.0 - alpha) * new.weights
    out.weights = mixed / mixed.sum()
    return out


def _objective(points: np.ndarray, state: ClusterState) -> float:
    """What the state's algorithm minimizes: K-means SSE, the FCM objective,
    or the GMM negative log-likelihood."""
    if state.kind == "kmeans":
        return kmeans_sse(points, state.centroids)
    if state.kind == "fuzzy":
        return fcm_objective(points, state)
    return -gmm_log_likelihood(points, state)


def converge(points: np.ndarray, state: ClusterState) -> ClusterState:
    """Iterate the state's algorithm until its centroids stop moving (K-means
    reaches this exactly once the assignment is stable) or CONVERGE_MAX_ITER
    iterations have run."""
    current = state
    for _ in range(CONVERGE_MAX_ITER):
        _, updated = update_step(points, current)
        settled = np.allclose(updated.centroids, current.centroids, rtol=0.0, atol=CONVERGE_TOL)
        current = updated
        if settled:
            break
    return current


def _min_cost_matching(cost: np.ndarray) -> np.ndarray:
    """Hungarian algorithm on a square cost matrix: ``out[i]`` is the column
    matched to row ``i`` in a minimum-total-cost perfect matching."""
    n = cost.shape[0]
    u = np.zeros(n + 1)
    v = np.zeros(n + 1)
    row_of = np.zeros(n + 1, dtype=np.int64)  # 1-based row matched to column j; 0 = free
    for i in range(1, n + 1):
        row_of[0] = i
        j0 = 0
        slack = np.full(n + 1, np.inf)
        prev = np.zeros(n + 1, dtype=np.int64)
        used = np.zeros(n + 1, dtype=bool)
        while row_of[j0] != 0:
            used[j0] = True
            i0 = row_of[j0]
            reduced = cost[i0 - 1] - u[i0] - v[1:]
            free = ~used[1:]
            better = free & (reduced < slack[1:])
            slack[1:][better] = reduced[better]
            prev[1:][better] = j0
            j1 = int(np.flatnonzero(free)[slack[1:][free].argmin()]) + 1
            delta = slack[j1]
            u[row_of[used]] += delta
            v[used] -= delta
            slack[~used] -= delta
            j0 = j1
        while j0:
            j1 = prev[j0]
            row_of[j0] = row_of[j1]
            j0 = j1
    out = np.empty(n, dtype=np.int64)
    out[row_of[1:] - 1] = np.arange(n)
    return out


def match_clusters(state: ClusterState, reference: np.ndarray) -> ClusterState:
    """Relabel the state's clusters so that cluster k is the one whose centroid
    lies nearest ``reference[k]`` (minimum total squared distance), keeping
    cluster ids, and with them the group-MLP parameters, stable."""
    gaps = reference[:, None, :] - state.centroids[None, :, :]
    order = _min_cost_matching((gaps * gaps).sum(axis=-1))
    out = state.copy()
    out.centroids = state.centroids[order]
    if state.weights is not None:
        out.weights = state.weights[order]
    if state.covariances is not None and state.covariance_type != "tied":
        out.covariances = np.asarray(state.covariances)[order]
    return out


def recluster(
    weights: list[np.ndarray],
    state: ClusterState,
    options: ReclusterOptions,
    rng: np.random.Generator | None = None,
):
    """One reclustering call: unify the weights, run the clustering to
    convergence, and derive the membership matrix from the result.

    The clustering runs from the state's parameters (warm start) and, when a
    generator is given, from RECLUSTER_RESTARTS further k-means++ seedings
    drawn from it; the run with the lowest objective wins, so a warm start
    caught in a local optimum does not pin the grouping once the weights have
    moved on. The winner's clusters are relabelled to match the previous
    centroids. If the membership then differs from the state's stored matrix,
    the parameter update is damped by the configured EMA rule and the
    membership is recomputed once from the damped state, so that alpha near 1
    keeps the grouping pinned to the previous cluster geometry. Returns
    (membership, new state); the new state stores the membership it produced.
    """
    points = unify_all(weights, options.combine_mode)
    updated = converge(points, state)
    if rng is not None:
        for _ in range(RECLUSTER_RESTARTS):
            seeded = init_kmeanspp(
                points,
                state.n_clusters,
                rng,
                kind=state.kind,
                fuzzifier=state.fuzzifier,
                covariance_type=state.covariance_type,
            )
            candidate = converge(points, seeded)
            if _objective(points, candidate) < _objective(points, updated):
                updated = candidate
    updated = match_clusters(updated, state.centroids)
    member = membership_from_scores(score_points(points, updated), options.membership, options.delta)
    previous = state.membership
    if previous is not None and not np.array_equal(member, previous):
        damped = _ema_state(state, updated, options.alpha, options.ema_rule)
        member = membership_from_scores(score_points(points, damped), options.membership, options.delta)
        updated = damped
    updated.membership = member
    return member, updated
