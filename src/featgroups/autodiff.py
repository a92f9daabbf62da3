"""Reverse-mode automatic differentiation over dense float64 arrays.

The engine is define-by-run: every operation on a :class:`Tensor` appends a
node to an implicit tape, and ``loss.backward()`` walks the tape in reverse
topological order exactly once. Only float64 is supported; broadcasting is
limited to aligning a smaller operand against the trailing axes of a larger
one (leading batch dimensions), which keeps the op set small enough to audit.

The traversal order is a deterministic function of graph construction order,
so seeded runs accumulate gradients in a fixed order and are bit-reproducible.

The model's hot path runs on a few fused ops (``scale_rows``, ``linear``,
``moment_layer``, ``layer_norm``, ``scaled_dot_product_attention``) with closed-form
backwards. At the benchmark shape every array holds millions of elements
with rows of 6 to 36, so each op is written to keep numpy's inner loops long
and to allocate as few full-size temporaries as it can.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class ShapeError(ValueError):
    """Operand shapes incompatible with an op; names the op and the shapes."""

    def __init__(self, op: str, *shapes):
        self.op = op
        self.shapes = [tuple(s) for s in shapes]
        super().__init__(f"{op}: incompatible shapes " + " vs ".join(str(s) for s in self.shapes))


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a gradient down to `shape`, undoing leading-axis broadcasting."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    keep = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if keep:
        grad = grad.sum(axis=keep, keepdims=True)
    return grad


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-x)), evaluated so that exp never overflows."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ez = np.exp(x[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _as_tensor(x) -> "Tensor":
    return x if isinstance(x, Tensor) else Tensor(x)


def _needs_grad(t: "Tensor") -> bool:
    return t.requires_grad or bool(t._parents)


class Tensor:
    """A dense float64 array that records the ops applied to it.

    Leaves created with ``requires_grad=True`` are parameters: ``backward()``
    adds dL/dparam to the ``grad`` slot of each one the loss reaches. Leaves
    without ``requires_grad`` are constants and never receive gradients.
    """

    __slots__ = ("data", "grad", "requires_grad", "name", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False, name: str | None = None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self.name = name
        self._parents: tuple = ()
        self._backward = None

    @staticmethod
    def _op(data: np.ndarray, parents: tuple, backward) -> "Tensor":
        out = Tensor(data)
        if any(p.requires_grad or p._parents for p in parents):
            out._parents = parents
            out._backward = backward
        return out

    # ------------------------------------------------------------------
    # basic structure
    # ------------------------------------------------------------------

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.data.shape}{tag})"

    # ------------------------------------------------------------------
    # arithmetic
    # ------------------------------------------------------------------

    def __add__(self, other):
        other = _as_tensor(other)
        try:
            data = self.data + other.data
        except ValueError:
            raise ShapeError("add", self.shape, other.shape) from None

        def backward(g):
            return _unbroadcast(g, self.shape), _unbroadcast(g, other.shape)

        return Tensor._op(data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self):
        def backward(g):
            return (-g,)

        return Tensor._op(-self.data, (self,), backward)

    def __sub__(self, other):
        return self + (-_as_tensor(other))

    def __rsub__(self, other):
        return _as_tensor(other) + (-self)

    def __mul__(self, other):
        other = _as_tensor(other)
        try:
            data = self.data * other.data
        except ValueError:
            raise ShapeError("mul", self.shape, other.shape) from None
        a, b = self, other

        def backward(g):
            ga = _unbroadcast(g * b.data, a.shape) if _needs_grad(a) else None
            gb = _unbroadcast(g * a.data, b.shape) if _needs_grad(b) else None
            return ga, gb

        return Tensor._op(data, (self, other), backward)

    __rmul__ = __mul__

    def __matmul__(self, other):
        other = _as_tensor(other)
        if self.ndim < 2 or other.ndim < 2:
            raise ShapeError("matmul", self.shape, other.shape)
        try:
            data = self.data @ other.data
        except ValueError:
            raise ShapeError("matmul", self.shape, other.shape) from None
        a, b = self, other

        def backward(g):
            ga = _unbroadcast(g @ b.data.swapaxes(-1, -2), a.shape) if _needs_grad(a) else None
            gb = _unbroadcast(a.data.swapaxes(-1, -2) @ g, b.shape) if _needs_grad(b) else None
            return ga, gb

        return Tensor._op(data, (self, other), backward)

    # ------------------------------------------------------------------
    # elementwise nonlinearities
    # ------------------------------------------------------------------

    def relu(self):
        x = self

        def backward(g):
            return (g * (x.data > 0),)

        return Tensor._op(np.maximum(self.data, 0.0), (self,), backward)

    def log(self):
        x = self

        def backward(g):
            return (g / x.data,)

        return Tensor._op(np.log(self.data), (self,), backward)

    def sqrt(self):
        out = np.sqrt(self.data)

        def backward(g):
            # subgradient 0 at exactly 0 so distances to coincident points
            # do not poison the graph with infinities
            safe = np.where(out > 0.0, out, 1.0)
            return (np.where(out > 0.0, g * 0.5 / safe, 0.0),)

        return Tensor._op(out, (self,), backward)

    def softmax(self, axis: int = -1):
        shifted = self.data - self.data.max(axis=axis, keepdims=True)
        e = np.exp(shifted)
        out = e / e.sum(axis=axis, keepdims=True)

        def backward(g):
            inner = (g * out).sum(axis=axis, keepdims=True)
            return (out * (g - inner),)

        return Tensor._op(out, (self,), backward)

    # ------------------------------------------------------------------
    # reductions and reshaping
    # ------------------------------------------------------------------

    def sum(self, axis=None, keepdims: bool = False):
        data = self.data.sum(axis=axis, keepdims=keepdims)
        shape = self.shape

        def backward(g):
            # a read-only broadcast view: the backward walk never writes into
            # a gradient it did not allocate itself
            gk = g if axis is None or keepdims else np.expand_dims(g, axis)
            return (np.broadcast_to(gk, shape),)

        return Tensor._op(data, (self,), backward)

    def mean(self, axis=None, keepdims: bool = False):
        if axis is None:
            n = self.data.size
        elif isinstance(axis, tuple):
            n = int(np.prod([self.shape[a] for a in axis]))
        else:
            n = self.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / n)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        old = self.shape
        data = self.data.reshape(shape)

        def backward(g):
            return (g.reshape(old),)

        return Tensor._op(data, (self,), backward)

    def transpose(self, axes):
        axes = tuple(axes)
        inverse = tuple(np.argsort(axes))
        data = self.data.transpose(axes)

        def backward(g):
            return (g.transpose(inverse),)

        return Tensor._op(data, (self,), backward)

    def __getitem__(self, key):
        # basic indexing only: it reaches every entry at most once, so the
        # backward's scatter by assignment loses no contribution
        for part in key if isinstance(key, tuple) else (key,):
            basic = part is None or part is Ellipsis or isinstance(part, slice)
            if not basic and (isinstance(part, bool) or not isinstance(part, (int, np.integer))):
                raise ValueError(f"index {part!r} is not an int, slice, Ellipsis or None")
        # a basic index can return a non-contiguous view, over which numpy
        # reductions sum in another order; a C-ordered copy keeps that order
        # (and the rounding) the same for every key
        data = np.asarray(self.data[key], order="C")
        shape = self.shape

        def backward(g):
            full = np.zeros(shape)
            full[key] = g
            return (full,)

        return Tensor._op(data, (self,), backward)

    # ------------------------------------------------------------------
    # autograd driver
    # ------------------------------------------------------------------

    def backward(self):
        """Add this loss's gradient to ``grad`` on every reachable
        ``requires_grad`` leaf.

        Must be called on a scalar (the loss). A leaf's ``grad`` is the sum
        over every backward since the caller last set it to None, so a
        training step clears the gradients once and may then run several
        backwards (one per loss term or per chunk of a batch); a leaf none
        of them reached keeps ``grad`` None. Later contributions are added
        out of place, so an array that two leaves or a pending gradient
        share is never written through.
        """
        if self.data.size != 1:
            raise ValueError(f"backward() requires a scalar, got shape {self.shape}")
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))

        grads: dict[int, np.ndarray] = {id(self): np.ones_like(self.data)}
        # a pending gradient may be a view shared with other nodes; the first
        # accumulation into it allocates a private buffer, later ones add in place
        owned: set[int] = set()
        for node in reversed(order):
            g = grads.pop(id(node), None)
            if g is None:
                continue
            if node._backward is None:
                if node.requires_grad:
                    if node.grad is not None:
                        node.grad = node.grad + g
                    else:
                        node.grad = g if g.flags.writeable else g.copy()
                continue
            for parent, pg in zip(node._parents, node._backward(g)):
                if pg is None:
                    continue
                key = id(parent)
                acc = grads.get(key)
                if acc is None:
                    grads[key] = pg
                elif key in owned:
                    np.add(acc, pg, out=acc)
                else:
                    grads[key] = np.add(acc, pg, out=np.empty(parent.shape))
                    owned.add(key)


def _sum_rows(a: np.ndarray) -> np.ndarray:
    """Column sums of a 2-D array as one matrix-vector product; numpy's own
    reduction over a long leading axis with a short row is many times slower."""
    return np.ones(a.shape[0]) @ a


def _rows_wide(a: np.ndarray, row: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Views of a C-contiguous (n, m) array and an (m,) row with several rows
    side by side, so that an op broadcasting ``row`` over ``a`` runs over long
    rows; numpy's broadcast loop is slow for short ones."""
    reps = next(r for r in (16, 8, 4, 2, 1) if a.shape[0] % r == 0)
    return a.reshape(-1, reps * row.size), np.tile(row, reps)


def scale_rows(x: np.ndarray, weight: Tensor, bias: Tensor) -> Tensor:
    """out[..., f, h] = x[..., f] * weight[f, h] + bias[f, h].

    Fused broadcast-multiply-add for per-feature linear embeddings of scalar
    inputs. Each input is repeated across its H outputs first, so the
    arithmetic runs over rows of F·H; the backward contracts the batch axes
    with matrix products instead of materializing full-size temporaries.
    """
    x = np.asarray(x, dtype=np.float64)
    if weight.shape != bias.shape or x.shape[-1] != weight.shape[0]:
        raise ShapeError("scale_rows", x.shape, weight.shape, bias.shape)
    f, h = weight.shape
    flat_x = x.reshape(-1, f)
    data = np.repeat(flat_x, h, axis=1)
    data *= weight.data.reshape(-1)
    data += bias.data.reshape(-1)

    def backward(g):
        flat_g = g.reshape(-1, f * h)
        gw = gb = None
        if _needs_grad(weight):
            # one (1, N) @ (N, H) product per feature: Σ_n x[n, f] g[n, f, :]
            gw = (flat_x.T[:, None, :] @ flat_g.reshape(-1, f, h).transpose(1, 0, 2))[:, 0]
        if _needs_grad(bias):
            gb = _sum_rows(flat_g).reshape(f, h)
        return gw, gb

    return Tensor._op(data.reshape(*x.shape, h), (weight, bias), backward)


def linear(x, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """x @ weight (+ bias) over the last axis of ``x``.

    Leading axes are collapsed so forward and backward are plain 2-D matrix
    products; one tape node replaces the reshape/matmul/add chain.
    """
    x = _as_tensor(x)
    n_in, n_out = weight.shape
    if x.shape[-1] != n_in or (bias is not None and bias.shape != (n_out,)):
        raise ShapeError("linear", x.shape, weight.shape, () if bias is None else bias.shape)
    flat_x = x.data.reshape(-1, n_in)
    data = flat_x @ weight.data
    if bias is not None:
        wide, row = _rows_wide(data, bias.data)
        wide += row

    def backward(g):
        flat_g = g.reshape(-1, n_out)
        gx = (flat_g @ weight.data.T).reshape(x.shape) if _needs_grad(x) else None
        gw = flat_x.T @ flat_g if _needs_grad(weight) else None
        if bias is None:
            return gx, gw
        return gx, gw, _sum_rows(flat_g) if _needs_grad(bias) else None

    parents = (x, weight) if bias is None else (x, weight, bias)
    return Tensor._op(data.reshape(*x.shape[:-1], n_out), parents, backward)


def layer_norm(x: Tensor, gain: Tensor, shift: Tensor, eps: float = 1e-6) -> Tensor:
    """(x − mean) / √(var + eps) · gain + shift over the last axis (Ba et al.
    2016), as one tape node with the closed-form backward.

    Row means come from products with (n, n) averaging matrices, which keep
    every intermediate at full width and avoid per-row broadcasts.
    """
    n = x.shape[-1]
    if gain.shape != (n,) or shift.shape != (n,):
        raise ShapeError("layer_norm", x.shape, gain.shape, shift.shape)
    average = np.full((n, n), 1.0 / n)
    center = np.eye(n) - average
    flat_x = x.data.reshape(-1, n)
    centered = flat_x @ center
    inv_std = 1.0 / np.sqrt((centered * centered) @ average + eps)
    normed = centered * inv_std
    wide, gain_row = _rows_wide(normed, gain.data)
    data = wide * gain_row
    data += _rows_wide(normed, shift.data)[1]

    def backward(g):
        flat_g = g.reshape(-1, n)
        gx = None
        if _needs_grad(x):
            wide_g, gain_row = _rows_wide(np.ascontiguousarray(flat_g), gain.data)
            dn = (wide_g * gain_row).reshape(flat_g.shape)
            gx = dn @ center - normed * ((dn * normed) @ average)
            gx = (gx * inv_std).reshape(x.shape)
        gg = _sum_rows(flat_g * normed) if _needs_grad(gain) else None
        gs = _sum_rows(flat_g) if _needs_grad(shift) else None
        return gx, gg, gs

    return Tensor._op(data.reshape(x.shape), (x, gain, shift), backward)


def moment_layer(x: Tensor, pool: np.ndarray, weights: list, bias: Tensor) -> Tensor:
    """m₁ W₁ + m₂ W₂ + m₃ W₃ + bias over the pooled moments of the rows of x:
    m₁ = x P, m₂ = m₁ ⊙ m₁, m₃ = (x ⊙ x) P, for a constant pooling matrix P.

    One tape node, so the moments never need a concatenated copy and the
    backward needs one full-size temporary.
    """
    n_in, n_pool = pool.shape
    if x.ndim != 2 or x.shape[1] != n_in or len(weights) != 3:
        raise ShapeError("moment_layer", x.shape, pool.shape)
    n_out = bias.shape[0]
    if any(w.shape != (n_pool, n_out) for w in weights):
        raise ShapeError("moment_layer", pool.shape, *[w.shape for w in weights], bias.shape)
    first = x.data @ pool
    moments = (first, first * first, (x.data * x.data) @ pool)
    data = moments[0] @ weights[0].data
    for m, w in zip(moments[1:], weights[1:]):
        data += m @ w.data
    data += bias.data

    def backward(g):
        grads = [m.T @ g if _needs_grad(w) else None for m, w in zip(moments, weights)]
        g_first = g @ weights[0].data.T
        g_first += 2.0 * first * (g @ weights[1].data.T)
        gx = (g @ (2.0 * weights[2].data.T)) @ pool.T
        gx *= x.data
        gx += g_first @ pool.T
        return (gx, *grads, _sum_rows(g) if _needs_grad(bias) else None)

    return Tensor._op(data, (x, *weights, bias), backward)


def block_diag(blocks: list) -> Tensor:
    """The 2-D tensors in ``blocks`` along the diagonal of a zero matrix."""
    blocks = [_as_tensor(t) for t in blocks]
    if any(t.ndim != 2 for t in blocks):
        raise ShapeError("block_diag", *[t.shape for t in blocks])
    rows = np.cumsum([0] + [t.shape[0] for t in blocks])
    cols = np.cumsum([0] + [t.shape[1] for t in blocks])
    data = np.zeros((rows[-1], cols[-1]))
    for t, r, c in zip(blocks, rows, cols):
        data[r : r + t.shape[0], c : c + t.shape[1]] = t.data

    def backward(g):
        return tuple(g[r : r + t.shape[0], c : c + t.shape[1]] for t, r, c in zip(blocks, rows, cols))

    return Tensor._op(data, tuple(blocks), backward)


def concat(tensors: list, axis: int = 0) -> Tensor:
    tensors = [_as_tensor(t) for t in tensors]
    try:
        data = np.concatenate([t.data for t in tensors], axis=axis)
    except ValueError:
        raise ShapeError("concat", *[t.shape for t in tensors]) from None
    sizes = [t.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def backward(g):
        return tuple(np.split(g, splits, axis=axis))

    return Tensor._op(data, tuple(tensors), backward)


def stack(tensors: list, axis: int = 0) -> Tensor:
    """Equal-shape tensors stacked on a new ``axis``, as one node whose backward hands out views."""
    tensors = [_as_tensor(t) for t in tensors]
    try:
        data = np.stack([t.data for t in tensors], axis=axis)
    except ValueError:
        raise ShapeError("stack", *[t.shape for t in tensors]) from None

    def backward(g):
        return tuple(np.moveaxis(g, axis, 0))

    return Tensor._op(data, tuple(tensors), backward)


def scaled_dot_product_attention(q: Tensor, k: Tensor, v: Tensor) -> Tensor:
    """Attention(q, k, v) = softmax(q kᵀ / √d) v over the last two axes.

    One tape node. The exponentiated scores are kept unnormalized and the
    softmax denominator is applied to the (…, T, d) output instead of the
    (…, T, T) weights; the backward reuses both.
    """
    d = q.shape[-1]
    if k.shape[-1] != d or v.shape[-2] != k.shape[-2]:
        raise ShapeError("attention", q.shape, k.shape, v.shape)
    scale = 1.0 / np.sqrt(d)
    q_scaled = q.data * scale
    weights = q_scaled @ k.data.swapaxes(-1, -2)
    # softmax is shift-invariant; the row-max shift only guards exp against
    # overflow, which |score| <= d·max|q|·max|k|/√d rules out below 300
    if weights.size and d * np.abs(q_scaled).max() * np.abs(k.data).max() > 300.0:
        weights -= weights.max(axis=-1, keepdims=True)
    np.exp(weights, out=weights)
    n_keys = weights.shape[-1]
    norm = (weights.reshape(-1, n_keys) @ np.ones(n_keys)).reshape(weights.shape[:-1] + (1,))
    out = (weights @ v.data) / norm

    def backward(g):
        g_norm = g / norm
        # ∂L/∂score_ij = p_ij (g_i·v_j − g_i·out_i): one batched product of
        # [g_i, −g_i·out_i] / norm_i with [v_j, 1], times the unnormalized weights
        lhs = np.concatenate([g_norm, -(g_norm * out).sum(axis=-1, keepdims=True)], axis=-1)
        rhs = np.concatenate([v.data, np.ones(v.shape[:-1] + (1,))], axis=-1)
        grad_s = lhs @ rhs.swapaxes(-1, -2)
        grad_s *= weights
        gq = _unbroadcast((grad_s @ k.data) * scale, q.shape) if _needs_grad(q) else None
        gk = _unbroadcast(grad_s.swapaxes(-1, -2) @ q_scaled, k.shape) if _needs_grad(k) else None
        gv = _unbroadcast(weights.swapaxes(-1, -2) @ g_norm, v.shape) if _needs_grad(v) else None
        return gq, gk, gv

    return Tensor._op(out, (q, k, v), backward)


def bce(p: Tensor, y) -> Tensor:
    """Mean binary cross-entropy of probabilities ``p`` against labels ``y``."""
    p = _as_tensor(p)
    y = _as_tensor(y)
    losses = -(y * p.log() + (1.0 - y) * (1.0 - p).log())
    return losses.mean()


def bce_with_logits(z: Tensor, y) -> Tensor:
    """Numerically stable mean BCE of sigmoid(z) against labels ``y``.

    Uses max(z,0) − z·y + log(1+exp(−|z|)) so large logits never overflow.
    """
    z = _as_tensor(z)
    yv = np.asarray(_as_tensor(y).data, dtype=np.float64)
    data = np.maximum(z.data, 0.0) - z.data * yv + np.log1p(np.exp(-np.abs(z.data)))
    n = data.size
    zt = z

    def backward(g):
        return (np.broadcast_to(g, zt.shape) * (_sigmoid(zt.data) - yv),)

    out = Tensor._op(data, (z,), backward)
    return out.sum() * (1.0 / n)


# ----------------------------------------------------------------------
# optimizer
# ----------------------------------------------------------------------


@dataclass
class AdamState:
    """First/second moment estimates, one pair per parameter, plus timestep."""

    m: list = field(default_factory=list)
    v: list = field(default_factory=list)
    t: int = 0

    @staticmethod
    def for_params(params: list) -> "AdamState":
        return AdamState(
            m=[np.zeros_like(p.data) for p in params],
            v=[np.zeros_like(p.data) for p in params],
            t=0,
        )


def adam_step(
    params: list,
    state: AdamState,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> AdamState:
    """One Adam update with bias correction on each parameter's ``grad``, in
    place; a parameter whose ``grad`` is None stays put, moments included."""
    if len(params) != len(state.m):
        raise ShapeError("adam_step", (len(params),), (len(state.m),))
    state.t += 1
    t = state.t
    for p, m, v in zip(params, state.m, state.v):
        g = p.grad
        if g is None:
            continue
        if g.shape != p.data.shape:
            raise ShapeError("adam_step", p.data.shape, g.shape)
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * g * g
        m_hat = m / (1.0 - beta1**t)
        v_hat = v / (1.0 - beta2**t)
        p.data -= lr * m_hat / (np.sqrt(v_hat) + eps)
    return state


def gradcheck(loss_fn, params: list, eps: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``loss_fn`` must rebuild the graph from the current parameter values on
    every call. The parameters' ``grad`` is cleared before the one backward,
    so an earlier backward does not leak in. Error per coordinate is
    |a − n| / (|a| + |n| + 1e-12).
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    loss = loss_fn()
    if not np.isfinite(loss.data).all():
        raise FloatingPointError("loss is not finite")
    for p in params:
        p.grad = None
    loss.backward()
    analytic = [np.zeros_like(p.data) if p.grad is None else p.grad.copy() for p in params]
    worst = 0.0
    for p, ana in zip(params, analytic):
        flat = p.data.reshape(-1)
        aflat = ana.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            up = float(loss_fn().data)
            flat[i] = orig - eps
            down = float(loss_fn().data)
            flat[i] = orig
            if not (np.isfinite(up) and np.isfinite(down)):
                raise FloatingPointError("loss is not finite during perturbation")
            num = (up - down) / (2.0 * eps)
            err = abs(aflat[i] - num) / (abs(aflat[i]) + abs(num) + 1e-12)
            worst = max(worst, err)
    return worst
