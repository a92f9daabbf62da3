"""Step-wise embedding classifier with grouped feature processing.

Every time step is embedded feature by feature (a per-feature linear map
followed by a shared nonlinearity), the feature embeddings are pooled within
each group of a binary membership matrix and passed through group-specific
MLPs, the group embeddings are aggregated, and a small self-attention head
over time produces one binary logit per series.

Groups may become empty during training (the clustering is free to abandon a
cluster). An empty group runs on a group of zero constants in place of its
parameters: it contributes a zero block under concatenation, is excluded
from mean/attention pooling, and its own parameters get no gradient.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autodiff import (
    Tensor,
    bce_with_logits,
    block_diag,
    concat,
    layer_norm,
    linear,
    moment_layer,
    scale_rows,
    scaled_dot_product_attention,
    stack,
)

AGG_MODES = ("concat", "mean", "attention")
PSI_KINDS = ("mlp", "relu", "identity")
FEATURE_INITS = ("shared", "independent")


@dataclass
class ModelSettings:
    """Architecture hyperparameters, whatever the feature count."""

    hidden: int = 6
    groups: int = 3
    agg_mode: str = "mean"
    psi: str = "mlp"
    seq_width: int = 6
    seq_heads: int = 2
    positional_encoding: bool = False
    feature_init: str = "shared"  # shared | independent

    def __post_init__(self):
        for name, allowed in (("agg_mode", AGG_MODES), ("psi", PSI_KINDS), ("feature_init", FEATURE_INITS)):
            if getattr(self, name) not in allowed:
                raise ValueError(f"{name} must be one of {allowed}, got {getattr(self, name)!r}")
        for name in ("hidden", "groups", "seq_width", "seq_heads"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.seq_width % self.seq_heads:
            raise ValueError(f"seq_width {self.seq_width} must be divisible by seq_heads {self.seq_heads}")


@dataclass
class ModelConfig(ModelSettings):
    """The settings of one model. Every feature is numerical, so
    ``feature_cards`` lists 1 per feature; it fixes the feature count."""

    feature_cards: list[int] = field(kw_only=True)

    def __post_init__(self):
        super().__post_init__()
        if any(cf != 1 for cf in self.feature_cards):
            raise ValueError(f"feature_cards must all be 1 (features are numerical), got {self.feature_cards}")

    @property
    def n_features(self) -> int:
        return len(self.feature_cards)

    @property
    def aggregated_width(self) -> int:
        return self.groups * self.hidden if self.agg_mode == "concat" else self.hidden


def _linear_init(rng: np.random.Generator, fan_in: int, shape) -> np.ndarray:
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


def sinusoidal_positions(length: int, width: int) -> np.ndarray:
    positions = np.arange(length)[:, None]
    rates = np.power(10000.0, -np.arange(0, width, 2) / width)
    enc = np.zeros((length, width))
    enc[:, 0::2] = np.sin(positions * rates)
    enc[:, 1::2] = np.cos(positions * rates[: enc[:, 1::2].shape[1]])
    return enc


class GroupedStepwiseModel:
    """Holds all learnable tensors and runs the forward pass.

    Group MLP parameters are indexed by cluster id and keep their shapes
    regardless of group size (groups enter through a mean over members), so
    membership changes during training never invalidate the parameters.
    """

    def __init__(self, config: ModelConfig, rng: np.random.Generator):
        self.config = config
        h, s = config.hidden, config.seq_width

        def param(name, fan_in, shape):
            return Tensor(_linear_init(rng, fan_in, shape), requires_grad=True, name=name)

        def mlp(prefix, n_in):
            # a two-layer MLP from n_in to h units: (w1, b1, w2, b2)
            return [
                param(f"{prefix}/w1", n_in, (n_in, h)),
                param(f"{prefix}/b1", n_in, (h,)),
                param(f"{prefix}/w2", h, (h, h)),
                param(f"{prefix}/b2", h, (h,)),
            ]

        # each feature owns a (2, H) matrix: its weight row over its bias row
        if config.feature_init == "shared":
            # identical base plus a whisper of noise: every geometric
            # difference the clustering later sees is earned through training,
            # and features the task ignores stay put, together
            base = _linear_init(rng, 1, (2, h))
            starts = [base + 0.01 * rng.standard_normal((2, h)) for _ in range(config.n_features)]
        else:
            starts = [_linear_init(rng, 1, (2, h)) for _ in range(config.n_features)]
        self.feature_weights = [
            Tensor(w, requires_grad=True, name=f"feature/{f}/weight") for f, w in enumerate(starts)
        ]
        self.psi_params = mlp("psi", h) if config.psi == "mlp" else []
        self.group_params = [mlp(f"group/{k}", 3 * h) for k in range(config.groups)]
        self.agg_query = param("agg/query", h, (h,)) if config.agg_mode == "attention" else None
        d_in = config.aggregated_width
        self.seq_params = {}

        def seq(key, fan_in, shape):
            self.seq_params[key] = param(f"seq/{key}", fan_in, shape)

        seq("proj_w", d_in, (d_in, s))
        seq("proj_b", d_in, (s,))
        for gate in ("q", "k", "v", "o"):
            seq(f"w{gate}", s, (s, s))
            if gate == "k":
                # a key bias shifts every attention score in a query row by the
                # same amount, which softmax cancels: dead parameter, omitted
                continue
            seq(f"b{gate}", s, (s,))
        seq("ffn_w1", s, (s, s))
        seq("ffn_b1", s, (s,))
        seq("ffn_w2", s, (s, s))
        seq("ffn_b2", s, (s,))
        for ln in ("ln1", "ln2", "ln3"):
            for key, start in ((f"{ln}_g", np.ones(s)), (f"{ln}_b", np.zeros(s))):
                self.seq_params[key] = Tensor(start, requires_grad=True, name=f"seq/{key}")
        seq("out_w", s, (s, 1))
        seq("out_b", s, (1,))

    # ------------------------------------------------------------------

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        out = [(t.name, t) for t in self.feature_weights]
        out += [(t.name, t) for t in self.psi_params]
        for group in self.group_params:
            out += [(t.name, t) for t in group]
        if self.agg_query is not None:
            out.append((self.agg_query.name, self.agg_query))
        out += [(t.name, t) for _, t in sorted(self.seq_params.items())]
        return out

    def parameters(self) -> list[Tensor]:
        return [t for _, t in self.named_parameters()]

    def feature_weight_arrays(self) -> np.ndarray:
        """A (F, 2, H) copy of the feature weights, never aliasing the parameters."""
        return np.stack([t.data for t in self.feature_weights])

    # ------------------------------------------------------------------

    def feature_embed(self, x: np.ndarray) -> Tensor:
        """(B, T, F) -> (B, T, F, H) per-feature embeddings."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 3 or x.shape[2] != self.config.n_features:
            raise ValueError(f"expected input (B, T, {self.config.n_features}), got {x.shape}")
        both = stack(self.feature_weights)  # (F, 2, H)
        w, wb = both[:, 0], both[:, 1]
        if self.config.psi == "mlp":
            # psi's first linear map folds into the per-feature one:
            # (x·w + b) @ W1 + b1 = x·(w @ W1) + (b @ W1 + b1)
            w1, b1, w2, b2 = self.psi_params
            return linear(scale_rows(x, w @ w1, wb @ w1 + b1).relu(), w2, b2)
        h = scale_rows(x, w, wb)
        return h if self.config.psi == "identity" else h.relu()

    def group_embed(self, h: Tensor, membership: np.ndarray) -> Tensor:
        """Pool features per group, apply the group MLPs, aggregate.

        Each group is summarized by permutation-invariant first and second
        moments — (mean, mean squared elementwise, mean of squares) — before
        its MLP. The squared terms carry the cross products between group
        members that a plain set-mean cannot express, which the interaction
        structure of the data requires.

        ``membership`` is binary (F, K); every feature must belong to at
        least one group. Soft memberships may route a feature into several
        group MLPs at once.
        """
        membership = np.asarray(membership)
        if membership.shape != (self.config.n_features, self.config.groups):
            raise ValueError(
                f"membership must be ({self.config.n_features}, {self.config.groups}),"
                f" got {membership.shape}"
            )
        if (membership.sum(axis=1) < 1).any():
            raise ValueError("every feature must belong to at least one group")
        b, t, f, hidden = h.shape
        sizes = membership.sum(axis=0)
        active = np.flatnonzero(sizes)
        # column block k of the pooling matrix averages group k's members
        pool = np.kron(membership / np.maximum(sizes, 1.0), np.eye(hidden))
        # the K group MLPs run as block-diagonal layers. An empty group runs on
        # a group of zero constants: its output is zero and its parameters
        # stay off the tape
        zeros = [Tensor(np.zeros(p.shape)) for p in self.group_params[0]]
        params = [p if sizes[k] else zeros for k, p in enumerate(self.group_params)]
        w1 = [block_diag([p[0][part * hidden : (part + 1) * hidden] for p in params]) for part in range(3)]
        b1 = concat([p[1] for p in params])
        hidden_units = moment_layer(h.reshape(b * t, f * hidden), pool, w1, b1).relu()
        return self._aggregate(hidden_units, params, active, b, t)

    def _aggregate(self, hidden_units: Tensor, params: list, active: np.ndarray, b: int, t: int) -> Tensor:
        """Second group-MLP layer plus aggregation over the non-empty groups."""
        mode = self.config.agg_mode
        h = self.config.hidden
        if mode == "mean":
            # the mean of the group outputs, folded into one (K·H, H) layer
            n = 1.0 / active.size
            w2 = concat([p[2] for p in params]) * n
            b2 = params[active[0]][3]
            for k in active[1:]:
                b2 = b2 + params[k][3]
            return linear(hidden_units, w2, b2 * n).reshape(b, t, h)
        w2 = block_diag([p[2] for p in params])
        b2 = concat([p[3] for p in params])
        outputs = linear(hidden_units, w2, b2).reshape(b, t, len(params), h)
        if mode == "concat":
            return outputs.reshape(b, t, len(params) * h)
        # an empty group's score of -inf gives its (zero) output weight 0
        mask = np.full(len(params), -np.inf)
        mask[active] = 0.0
        scores = (outputs * self.agg_query).sum(axis=3) * (1.0 / np.sqrt(h)) + Tensor(mask)
        weights = scores.softmax(axis=2)
        return (outputs * weights.reshape(b, t, len(params), 1)).sum(axis=2)

    def sequence_forward(self, g: Tensor) -> Tensor:
        """(B, T, D) group-aggregated steps -> (B,) classification logits.

        One pre-norm transformer block (self-attention + feed-forward, both
        residual) followed by mean pooling over time and a normalized
        nonlinear output head.
        """
        p = self.seq_params
        b, t = g.shape[0], g.shape[1]
        s, heads = self.config.seq_width, self.config.seq_heads
        dh = s // heads
        z = linear(g, p["proj_w"], p["proj_b"])  # (B, T, S)
        if self.config.positional_encoding:
            z = z + Tensor(sinusoidal_positions(t, s))

        def split_heads(m: Tensor) -> Tensor:
            return m.reshape(b, t, heads, dh).transpose((0, 2, 1, 3))

        normed = layer_norm(z, p["ln1_g"], p["ln1_b"])
        q = split_heads(linear(normed, p["wq"], p["bq"]))
        k = split_heads(linear(normed, p["wk"]))
        v = split_heads(linear(normed, p["wv"], p["bv"]))
        mixed = scaled_dot_product_attention(q, k, v)  # (B, heads, T, dh)
        mixed = mixed.transpose((0, 2, 1, 3)).reshape(b, t, s)
        z = z + linear(mixed, p["wo"], p["bo"])
        normed = layer_norm(z, p["ln2_g"], p["ln2_b"])
        z = z + linear(linear(normed, p["ffn_w1"], p["ffn_b1"]).relu(), p["ffn_w2"], p["ffn_b2"])
        pooled = z.mean(axis=1)  # (B, S)
        head = layer_norm(pooled, p["ln3_g"], p["ln3_b"]).relu()
        return (head @ p["out_w"] + p["out_b"]).reshape(b)

    def forward(self, x: np.ndarray, membership: np.ndarray) -> Tensor:
        h = self.feature_embed(x)
        g = self.group_embed(h, membership)
        return self.sequence_forward(g)

    # ------------------------------------------------------------------

    def state_dict(self) -> dict[str, np.ndarray]:
        return {name: t.data.copy() for name, t in self.named_parameters()}

    def load_state_dict(self, state: dict[str, np.ndarray]):
        for name, t in self.named_parameters():
            if name not in state:
                raise KeyError(f"checkpoint is missing parameter {name!r}")
            if state[name].shape != t.data.shape:
                raise ValueError(
                    f"parameter {name!r}: checkpoint shape {state[name].shape}"
                    f" != model shape {t.data.shape}"
                )
            t.data = np.array(state[name], dtype=np.float64)


def supervised_loss(logits: Tensor, labels) -> Tensor:
    """Mean binary cross-entropy of sigmoid(logits) against 0/1 labels."""
    return bce_with_logits(logits, np.asarray(labels, dtype=np.float64))
