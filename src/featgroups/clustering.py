"""Feature-group discovery over embedding weights.

Each feature of the model owns a small weight matrix; these matrices are
mapped to fixed-length vectors (unification), clustered with K-means, fuzzy
C-means, or a Gaussian mixture, and turned into a binary feature-to-group
membership matrix. A reclustering call runs the algorithm to convergence from
the previous parameters and from seeded k-means++ restarts, all stacked as
runs of one state that converge together as one batch, keeps the best run,
and keeps cluster ids matched to the previous centroids. Centroid motion
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

from .autodiff import Tensor

# a checkpoint stores an algorithm or covariance type as its index in these
# tuples, so a new name goes at the end
ALGORITHMS = ("kmeans", "fuzzy", "gmm")
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
# responsibility mass, in points, below which a GMM component counts as
# starved; a component holding one point sits just under 1
STARVED_MASS = 0.5


class ClusteringError(ValueError):
    """Numerical failure inside a clustering step (e.g. singular covariance)."""


# ----------------------------------------------------------------------
# unification
# ----------------------------------------------------------------------


def unify(weights, combine_mode: str):
    """Map (..., 2, H) weight matrices, a weight row over a bias row, to (..., D)
    vectors: [bias ‖ weight] (D = 2H), or [bias] (D = H) in bias-only mode. An
    array gives an array, possibly a view of ``weights``; a Tensor a Tensor."""
    if combine_mode not in COMBINE_MODES:
        raise ValueError(f"unknown combine mode {combine_mode!r}, expected one of {COMBINE_MODES}")
    if not isinstance(weights, Tensor):
        weights = np.asarray(weights, dtype=np.float64)
    if weights.ndim < 2 or weights.shape[-2] != 2:
        raise ValueError(f"weights must be (..., 2, H), got {weights.shape}")
    if combine_mode == "bias":
        return weights[..., 1, :]
    return weights[..., ::-1, :].reshape(weights.shape[:-2] + (2 * weights.shape[-1],))


# the name the acceptance tests import
unify_tensor = unify


# ----------------------------------------------------------------------
# cluster state
# ----------------------------------------------------------------------


@dataclass
class ClusterState:
    """Parameters of the configured clustering algorithm plus the current
    membership matrix, everything needed to resume training mid-run."""

    kind: str  # kmeans | fuzzy | gmm
    # a state may stack R runs: centroids, covariances and weights then gain
    # a leading R axis
    centroids: np.ndarray  # (K, D)
    covariances: np.ndarray | None = None  # (K, D, D), gmm only; constrained by covariance_type
    weights: np.ndarray | None = None  # (K,) mixture weights, gmm only
    fuzzifier: float | None = None  # fuzzy only, m > 1
    covariance_type: str = "full"
    membership: np.ndarray | None = None  # (F, K) binary

    def __post_init__(self):
        self.centroids = np.asarray(self.centroids, dtype=np.float64)
        if self.kind not in ALGORITHMS:
            raise ValueError(f"unknown clustering kind {self.kind!r}")
        if self.kind == "fuzzy" and (self.fuzzifier is None or self.fuzzifier <= 1.0):
            raise ValueError("fuzzy clustering needs fuzzifier m > 1")
        if self.kind == "gmm" and self.covariance_type not in COVARIANCE_TYPES:
            raise ValueError(f"unknown covariance type {self.covariance_type!r}")
        if self.centroids.ndim not in (2, 3):
            raise ValueError(f"centroids must be (K, D), or (R, K, D) for R runs, got {self.centroids.shape}")
        expected = self.centroids.shape + self.centroids.shape[-1:]
        if self.kind == "gmm" and np.shape(self.covariances) != expected:
            raise ValueError(f"gmm covariances must have shape {expected}, got {np.shape(self.covariances)}")

    @property
    def n_clusters(self) -> int:
        return self.centroids.shape[-2]

    def copy(self) -> "ClusterState":
        return replace(
            self,
            centroids=self.centroids.copy(),
            covariances=None if self.covariances is None else np.array(self.covariances),
            weights=None if self.weights is None else self.weights.copy(),
            membership=None if self.membership is None else self.membership.copy(),
        )


def _distances(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Euclidean distances of (F, D) points to (..., K, D) centroids: (..., F, K)."""
    diff = points[:, None, :] - centroids[..., None, :, :]
    return np.sqrt((diff * diff).sum(axis=-1))


# ----------------------------------------------------------------------
# K-means
# ----------------------------------------------------------------------


def kmeans_assign_and_update(points: np.ndarray, state: ClusterState):
    """One Lloyd step: hard-assign to nearest centroid, recompute means.

    Empty clusters steal the point farthest from its own centroid (skipping
    points that are alone in theirs). Returns one-hot scores and new means,
    each with a leading R axis for a state of R runs.
    """
    # the masked sum below is ten times slower on strided rows, such as the
    # bias rows `unify` returns as a view in bias-only mode
    points = np.ascontiguousarray(points, dtype=np.float64)
    n, k = points.shape[0], state.n_clusters
    if k > n:
        raise ValueError(f"K={k} exceeds number of points {n}")
    dist = _distances(points, state.centroids)
    assign = dist.argmin(axis=-1)
    for run in np.ndindex(assign.shape[:-1]):
        labels = assign[run]  # a view: a repair writes through to assign
        for empty in range(k):
            if (labels == empty).any():
                continue
            sizes = np.bincount(labels, minlength=k)
            own_dist = np.where(sizes[labels] > 1, dist[run][np.arange(n), labels], -np.inf)
            labels[own_dist.argmax()] = empty
    scores = (assign[..., None] == np.arange(k)).astype(np.float64)
    # each cluster adds only its members, in their order, so a mean rounds
    # as points[assign == j].mean(axis=0) does
    members = scores.swapaxes(-1, -2)[..., None] > 0  # (..., K, F, 1)
    every_point = np.broadcast_to(points, members.shape[:-1] + points.shape[-1:])
    new_centroids = np.add.reduce(every_point, axis=-2, where=members) / members.sum(axis=-2)
    return scores, new_centroids


def kmeans_sse(points: np.ndarray, centroids: np.ndarray) -> float | np.ndarray:
    """Within-cluster sum of squared distances under nearest-centroid
    assignment: a float, or one per run of (R, K, D) centroids."""
    d = _distances(points, centroids)
    return (d.min(axis=-1) ** 2).sum(axis=-1)


# ----------------------------------------------------------------------
# fuzzy C-means
# ----------------------------------------------------------------------


def fuzzy_memberships(points: np.ndarray, state: ClusterState):
    """One FCM step: memberships from current centroids, then weighted means.

    p_fk = 1 / Σ_l (d_fk / d_fl)^(2/(m−1)); a point coinciding with a centroid
    gets membership 1 there (lowest such index on ties). A state of R runs
    steps every run at once, each result gaining a leading R axis.
    """
    points = np.asarray(points, dtype=np.float64)
    m = state.fuzzifier
    if m is None or m <= 1.0:
        raise ValueError("fuzzifier m must be > 1")
    dist = _distances(points, state.centroids)
    memberships = _fcm_scores(dist, m)
    pm = memberships**m
    new_centroids = (pm.swapaxes(-1, -2) @ points) / pm.sum(axis=-2)[..., None]
    return memberships, new_centroids


def _fcm_scores(dist: np.ndarray, m: float) -> np.ndarray:
    exponent = 2.0 / (m - 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = (dist[..., :, None] / dist[..., None, :]) ** exponent
        memberships = 1.0 / ratio.sum(axis=-1)
    zero = dist == 0.0
    first_zero = np.arange(dist.shape[-1]) == zero.argmax(axis=-1)[..., None]
    return np.where(zero.any(axis=-1, keepdims=True), first_zero, memberships)


def fcm_objective(points: np.ndarray, state: ClusterState) -> float | np.ndarray:
    """Σ_{f,k} p_fk^m · d_fk² with memberships implied by the state's
    centroids: a float, or one per run of a stacked state."""
    dist = _distances(points, state.centroids)
    p = _fcm_scores(dist, state.fuzzifier)
    return ((p**state.fuzzifier) * dist**2).sum(axis=(-2, -1))


# ----------------------------------------------------------------------
# Gaussian mixture
# ----------------------------------------------------------------------


def _constrain(full: np.ndarray, covariance_type: str, weights: np.ndarray) -> np.ndarray:
    """Project (..., K, D, D) covariances onto ``covariance_type``: full keeps
    them, tied repeats their ``weights``-weighted mean (the size-weighted
    pooled covariance), diagonal keeps their diagonals, spherical the mean of
    each diagonal."""
    if covariance_type == "full":
        return full
    if covariance_type == "tied":
        pooled = (weights[..., None, None] * full).sum(axis=-3) / weights.sum(axis=-1)[..., None, None]
        return np.broadcast_to(pooled[..., None, :, :], full.shape).copy()
    diags = np.diagonal(full, axis1=-2, axis2=-1)
    if covariance_type == "spherical":
        diags = diags.mean(axis=-1, keepdims=True)
    return diags[..., None] * np.eye(full.shape[-1])


def _cholesky(covariances: np.ndarray) -> np.ndarray:
    """Cholesky factors of (..., K, D, D) covariances; a singular one raises
    ClusteringError naming its component, and its run in a stack of more
    than one run."""
    try:
        return np.linalg.cholesky(covariances)
    except np.linalg.LinAlgError:
        for index in np.ndindex(covariances.shape[:-2]):
            try:
                np.linalg.cholesky(covariances[index])
            except np.linalg.LinAlgError:
                run = f"run {index[0]}: " if len(index) == 2 and len(covariances) > 1 else ""
                raise ClusteringError(f"{run}covariance of component {index[-1]} is singular despite jitter") from None
        raise


def _moments(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The points' mean c and the (F, D·(D + 1)) features vec(y [y, 1]ᵀ) of
    the centred points y = x - c: for each i, y_i y and then y_i. Centring
    keeps the quadratic terms of a tight cluster far from the origin from
    cancelling away the digits of its log-density."""
    centre = points.mean(axis=0)
    z = np.ones((points.shape[0], points.shape[1] + 1))
    y = np.subtract(points, centre, out=z[:, :-1])
    return centre, np.einsum("fi,fj->fij", y, z).reshape(points.shape[0], -1)


def _log_joint(moments: tuple[np.ndarray, np.ndarray], state: ClusterState) -> np.ndarray:
    """log(pi_k N(x_f | mu_k, Sigma_k)) as (..., F, K), one leading axis per
    stacked run, from the points' ``_moments``: with P = Sigma_k⁻¹ and
    mu' = mu_k - c, one product of the features with the rows [-½ P, P mu']
    plus a per-component constant. The result is a view of a (..., K, F)
    array, so reductions over K run along contiguous memory."""
    centre, features = moments
    d = state.centroids.shape[-1]
    chol = _cholesky(state.covariances)
    inv_chol = np.linalg.inv(chol)
    precision = inv_chol.swapaxes(-1, -2) @ inv_chol
    mean = state.centroids - centre
    linear = precision @ mean[..., None]
    coeffs = np.concatenate([-0.5 * precision, linear], axis=-1)  # (..., K, D, D + 1)
    logdet = 2.0 * np.log(np.diagonal(chol, axis1=-2, axis2=-1)).sum(axis=-1)
    const = np.log(state.weights) - 0.5 * ((mean * linear[..., 0]).sum(axis=-1) + logdet + d * np.log(2.0 * np.pi))
    products = coeffs.reshape(-1, features.shape[1]) @ features.T  # (... · K, F)
    return (products.reshape(const.shape + (-1,)) + const[..., None]).swapaxes(-1, -2)


def _log_evidence(log_joint: np.ndarray) -> np.ndarray:
    """log p(x_f) = log Σ_k exp(log_joint): (..., F)."""
    peak = log_joint.max(axis=-1, keepdims=True)
    return peak[..., 0] + np.log(np.exp(log_joint - peak).sum(axis=-1))


def _responsibilities(log_joint: np.ndarray) -> np.ndarray:
    prob = np.exp(log_joint - log_joint.max(axis=-1, keepdims=True))
    return prob / prob.sum(axis=-1, keepdims=True)


def gmm_log_likelihood(points: np.ndarray, state: ClusterState) -> float | np.ndarray:
    """Σ_f log p(x_f): a float, or one per run of a stacked state."""
    return _log_evidence(_log_joint(_moments(points), state)).sum(axis=-1)


def gmm_responsibilities(points: np.ndarray, state: ClusterState) -> np.ndarray:
    return _responsibilities(_log_joint(_moments(points), state))


def _repair_starved(resp: np.ndarray, log_joint: np.ndarray, starved: np.ndarray):
    """Give each starved component the worst-explained point of its run (the
    lowest mixture density) not yet given to another, by making that point's
    responsibility row one-hot on it; ``resp`` is changed in place."""
    evidence = _log_evidence(log_joint)
    for run in np.ndindex(starved.shape[:-1]):
        worst = np.argsort(evidence[run], kind="stable")
        for point, component in zip(worst, np.flatnonzero(starved[run])):
            resp[run + (point,)] = 0.0
            resp[run + (point, component)] = 1.0


def gmm_em_step(points: np.ndarray, state: ClusterState, moments: tuple | None = None):
    """One EM iteration. Returns (responsibilities, means, covariances, weights).
    ``moments`` are the points' ``_moments``, built here when not given.

    A state of R stacked runs steps every run at once, each result gaining a
    leading R axis. A component with less than STARVED_MASS points of
    responsibility takes the worst-explained point of its run outright, as an
    empty K-means cluster takes the farthest point (Bishop, PRML §9.2).
    Covariances are (K, D, D), carry +1e-6 diagonal jitter and are
    constrained to the state's covariance_type.
    """
    points = np.asarray(points, dtype=np.float64)
    k, d = state.centroids.shape[-2:]
    if points.shape[0] < k:
        raise ValueError(f"need at least K={k} points, got {points.shape[0]}")
    centre, features = moments = _moments(points) if moments is None else moments
    log_joint = _log_joint(moments, state)
    resp = _responsibilities(log_joint)
    mass = resp.sum(axis=-2)
    if (mass < STARVED_MASS).any():
        _repair_starved(resp, log_joint, mass < STARVED_MASS)
        mass = resp.sum(axis=-2)
    nk = np.maximum(mass, 1e-12)  # a component a repair left empty keeps a finite mean
    resp_t = resp.swapaxes(-1, -2)  # (..., K, F)
    means = (resp_t @ points) / nk[..., None]
    weights = nk / points.shape[0]
    weights = weights / weights.sum(axis=-1, keepdims=True)

    # Σ_f r_f (y_f - mu')(y_f - mu')ᵀ = S - m mu'ᵀ - mu' mᵀ + s mu' mu'ᵀ for the
    # weighted moments S = Σ r y yᵀ, m = Σ r y and s = Σ r of each component
    stats = (resp_t.reshape(-1, points.shape[0]) @ features).reshape(mass.shape + (d, d + 1))
    second, first = stats[..., :d], stats[..., d:]
    mean = (means - centre)[..., None]
    cross = first * mean.swapaxes(-1, -2)
    cov = second - cross - cross.swapaxes(-1, -2) + mass[..., None, None] * mean * mean.swapaxes(-1, -2)
    cov /= nk[..., None, None]
    cov = 0.5 * (cov + cov.swapaxes(-1, -2))
    cov += COVARIANCE_JITTER * np.eye(d)
    return resp, means, _constrain(cov, state.covariance_type, weights), weights


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


def membership_from_scores(scores: np.ndarray, options: ReclusterOptions) -> np.ndarray:
    """The membership matrix that `options` derive from assignment scores."""
    if options.membership == "soft":
        return soft_membership(scores, options.delta)
    return hard_membership(scores)


# ----------------------------------------------------------------------
# initialization
# ----------------------------------------------------------------------


def _initial_state(points, centroids, groups, kind, fuzzifier, covariance_type) -> ClusterState:
    """A state of ``kind`` at ``centroids``. A GMM takes its mixture weights
    and (constrained) covariances from the hard ``groups`` (F, K) of the
    points, each covariance taken around its group's own mean."""
    if kind == "fuzzy":
        return ClusterState(kind="fuzzy", centroids=centroids, fuzzifier=fuzzifier)
    if kind != "gmm":
        return ClusterState(kind="kmeans", centroids=centroids)
    k, d = groups.shape[1], points.shape[1]
    full = np.empty((k, d, d))
    for j in range(k):
        group = points[groups[:, j] > 0]
        centered = group - group.mean(axis=0)
        full[j] = centered.T @ centered / group.shape[0] + COVARIANCE_JITTER * np.eye(d)
    weights = groups.sum(axis=0) / points.shape[0]
    return ClusterState(
        kind="gmm",
        centroids=centroids,
        covariances=_constrain(full, covariance_type, weights),
        weights=weights,
        covariance_type=covariance_type,
    )


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
    covariances and mixture weights are estimated.
    """
    points = np.asarray(points, dtype=np.float64)
    n = points.shape[0]
    if k > n:
        raise ValueError(f"K={k} exceeds number of points {n}")
    chosen = [int(rng.integers(n))]
    for _ in range(k - 1):
        d2 = (_distances(points, points[chosen]) ** 2).min(axis=1)
        # every point coincides with a chosen one: fewer than K are distinct
        if not d2.any():
            raise ValueError(f"need at least K={k} distinct points")
        chosen.append(int(rng.choice(n, p=d2 / d2.sum())))
    centroids = points[chosen].copy()
    groups = hard_membership(-_distances(points, centroids)) if kind == "gmm" else None
    return _initial_state(points, centroids, groups, kind, fuzzifier, covariance_type)


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
    state = _initial_state(points, centroids, prior_groups, kind, fuzzifier, covariance_type)
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
    """Symmetric square roots of (..., D, D) SPD matrices."""
    vals, vecs = np.linalg.eigh(mat)
    if vals.min() <= 0:
        raise ClusteringError("covariance is not positive definite")
    return (vecs * np.sqrt(vals)[..., None, :]) @ vecs.swapaxes(-1, -2)


def _check_spd(mat: np.ndarray, label: str):
    if not np.allclose(mat, mat.swapaxes(-1, -2)):
        raise ClusteringError(f"{label} covariance is not symmetric")
    try:
        np.linalg.cholesky(mat)
    except np.linalg.LinAlgError:
        raise ClusteringError(f"{label} covariance is not positive definite") from None


def ema_gaussian(old: tuple, new: tuple, alpha: float, rule: str = "moment_matching") -> tuple:
    """Blend two Gaussian components (mean, full covariance) with weight
    ``alpha`` on the old one. (..., D) means and (..., D, D) covariances
    blend each leading index as one pair of components.

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
        outer = gap[..., :, None] * gap[..., None, :]
        cov = alpha * cov1 + (1.0 - alpha) * cov2 + alpha * (1.0 - alpha) * outer
        return mu, cov
    if rule == "product_of_experts":
        p1 = np.linalg.inv(cov1)
        p2 = np.linalg.inv(cov2)
        cov = np.linalg.inv(alpha * p1 + (1.0 - alpha) * p2)
        mu = cov @ (alpha * p1 @ mu1[..., None] + (1.0 - alpha) * p2 @ mu2[..., None])
        return mu[..., 0], 0.5 * (cov + cov.swapaxes(-1, -2))
    root = alpha * _spd_sqrt(cov1) + (1.0 - alpha) * _spd_sqrt(cov2)
    return alpha * mu1 + (1.0 - alpha) * mu2, root @ root


# ----------------------------------------------------------------------
# regularization loss
# ----------------------------------------------------------------------


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
    points = u.reshape(f, 1, d)
    if variant == "soft":
        shifted = mat - mat.max(axis=1, keepdims=True)
        soft = np.exp(shifted)
        soft /= soft.sum(axis=1, keepdims=True)
        points = points * Tensor(soft.reshape(f, k, 1))
    diff = points - Tensor(centroids.reshape(1, k, d))
    norms = ((diff * diff).sum(axis=2)).sqrt()
    if variant == "hard":
        norms = norms * Tensor(mat)
    return norms.sum() * (1.0 / k) * (1.0 / inter), False


# ----------------------------------------------------------------------
# reclustering (the update interleaved with training)
# ----------------------------------------------------------------------


@dataclass
class ReclusterOptions:
    """The settings of a reclustering call."""

    combine_mode: str = "bias_sum_linear"
    membership: str = "hard"  # hard | soft
    delta: float = 0.8  # soft threshold
    ema_decay: float = 0.0  # weight the old state keeps when the membership flips
    ema_rule: str = "moment_matching"

    def __post_init__(self):
        choices = (("membership", MEMBERSHIP_MODES), ("combine_mode", COMBINE_MODES), ("ema_rule", EMA_RULES))
        for name, allowed in choices:
            if getattr(self, name) not in allowed:
                raise ValueError(f"{name} must be one of {allowed}, got {getattr(self, name)!r}")
        for name in ("ema_decay", "delta"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ValueError(f"{name} must be in [0, 1), got {getattr(self, name)}")


def score_points(points: np.ndarray, state: ClusterState) -> np.ndarray:
    """Assignment scores for the state's algorithm without updating it."""
    if state.kind == "kmeans":
        return hard_membership(-_distances(points, state.centroids))
    if state.kind == "fuzzy":
        return _fcm_scores(_distances(points, state.centroids), state.fuzzifier)
    return gmm_responsibilities(points, state)


def reg_basis(points: np.ndarray, state: ClusterState) -> np.ndarray:
    """Matrix the soft regularizer softmaxes: raw distances for K-means,
    membership scores for fuzzy C-means and GMM."""
    if state.kind == "kmeans":
        return _distances(points, state.centroids)
    return score_points(points, state)


def update_step(points: np.ndarray, state: ClusterState, moments: tuple | None = None):
    """One full iteration of the state's algorithm; returns (scores, new state).
    A GMM step reads the points' ``_moments`` when given them."""
    if state.kind == "kmeans":
        scores, centroids = kmeans_assign_and_update(points, state)
        return scores, replace(state, centroids=centroids)
    if state.kind == "fuzzy":
        scores, centroids = fuzzy_memberships(points, state)
        return scores, replace(state, centroids=centroids)
    scores, means, cov, weights = gmm_em_step(points, state, moments)
    return scores, replace(state, centroids=means, covariances=cov, weights=weights)


def _ema_state(old: ClusterState, new: ClusterState, alpha: float, rule: str) -> ClusterState:
    if old.kind != "gmm":
        return replace(new, centroids=ema_centroids(old.centroids, new.centroids, alpha))
    means, full = ema_gaussian((old.centroids, old.covariances), (new.centroids, new.covariances), alpha, rule)
    mixed = alpha * old.weights + (1.0 - alpha) * new.weights
    weights = mixed / mixed.sum()
    return replace(new, centroids=means, covariances=_constrain(full, old.covariance_type, weights), weights=weights)


def _objective(points: np.ndarray, state: ClusterState) -> np.ndarray:
    """Per run, what the state's algorithm minimizes: the K-means SSE, the FCM
    objective or the GMM negative log-likelihood."""
    if state.kind == "kmeans":
        return kmeans_sse(points, state.centroids)
    if state.kind == "fuzzy":
        return fcm_objective(points, state)
    return -gmm_log_likelihood(points, state)


def _settled(updated: ClusterState, current: ClusterState) -> np.ndarray:
    """Per run: whether no centroid coordinate moved more than CONVERGE_TOL."""
    return (np.abs(updated.centroids - current.centroids) <= CONVERGE_TOL).all(axis=(-2, -1))


def _run_arrays(state: ClusterState) -> dict[str, np.ndarray]:
    """The parameters that gain a leading axis when runs are stacked."""
    names = ("centroids", "covariances", "weights") if state.kind == "gmm" else ("centroids",)
    return {name: getattr(state, name) for name in names}


def _stack(states: list[ClusterState]) -> ClusterState:
    """States stacked into one state of len(states) runs."""
    arrays = [_run_arrays(s) for s in states]
    stacked = {name: np.stack([a[name] for a in arrays]) for name in arrays[0]}
    return replace(states[0], membership=None, **stacked)


def _runs(stacked: ClusterState, index) -> ClusterState:
    """The run(s) ``index`` of a stacked state (one run for an int); on a
    single (K, D) state, its clusters in the order ``index``."""
    return replace(stacked, **{name: array[index] for name, array in _run_arrays(stacked).items()})


def converge(points: np.ndarray, state: ClusterState) -> ClusterState:
    """Iterate the state's algorithm until its centroids stop moving (K-means
    reaches this exactly once the assignment is stable) or CONVERGE_MAX_ITER
    iterations have run.

    The runs of a stacked state converge together: each iteration is one
    batched step over the runs still moving, and a run freezes once its own
    centroids settle, so it stops where it would alone. A single (K, D) state
    converges as a stack of one run. A GMM builds the points' moments once,
    for every iteration. The result carries no membership."""
    single = state.centroids.ndim == 2
    moments = _moments(points) if state.kind == "gmm" else None
    out = _stack([state]) if single else state.copy()
    moving = np.arange(out.centroids.shape[0])
    for _ in range(CONVERGE_MAX_ITER):
        current = _runs(out, moving)
        _, updated = update_step(points, current, moments)
        for name, array in _run_arrays(out).items():
            array[moving] = getattr(updated, name)
        moving = moving[~_settled(updated, current)]
        if not moving.size:
            break
    return _runs(out, 0) if single else out


def converge_best(points: np.ndarray, starts: list[ClusterState]) -> tuple[int, ClusterState]:
    """Converge every start as one run of a stack; return the index and
    converged state of the run with the lowest objective (K-means SSE, FCM
    objective or GMM negative log-likelihood), the first one on ties."""
    runs = converge(points, _stack(starts))
    best = int(np.argmin(_objective(points, runs)))
    return best, _runs(runs, best)


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
    return _runs(state, _min_cost_matching((gaps * gaps).sum(axis=-1)))


def recluster(
    weights: np.ndarray,
    state: ClusterState,
    options: ReclusterOptions,
    rng: np.random.Generator | None = None,
):
    """One reclustering call: unify the (F, 2, H) feature weights, run the
    clustering to convergence, and derive the membership matrix from the result.

    The clustering runs from the state's parameters (warm start) and, when a
    generator is given, from RECLUSTER_RESTARTS further k-means++ seedings
    drawn from it, all converged together as one stacked batch; the run with
    the lowest objective wins, so a warm start caught in a local optimum does
    not pin the grouping once the weights have moved on. The winner's
    clusters are relabelled to match the previous centroids. If the
    membership then differs from the state's stored matrix, the parameter
    update is damped by the configured EMA rule and the membership is
    recomputed once from the damped state, so that an `ema_decay` near 1
    keeps the grouping pinned to the previous cluster geometry. Returns
    (membership, new state); the new state stores the membership it produced.
    """
    points = unify(weights, options.combine_mode)
    starts = [state]
    for _ in range(RECLUSTER_RESTARTS if rng is not None else 0):
        starts.append(
            init_kmeanspp(
                points,
                state.n_clusters,
                rng,
                kind=state.kind,
                fuzzifier=state.fuzzifier,
                covariance_type=state.covariance_type,
            )
        )
    _, best = converge_best(points, starts)
    updated = match_clusters(best, state.centroids)
    member = membership_from_scores(score_points(points, updated), options)
    previous = state.membership
    if previous is not None and not np.array_equal(member, previous):
        damped = _ema_state(state, updated, options.ema_decay, options.ema_rule)
        member = membership_from_scores(score_points(points, damped), options)
        updated = damped
    updated.membership = member
    return member, updated
