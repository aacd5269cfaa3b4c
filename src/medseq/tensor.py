"""Reverse-mode automatic differentiation over numpy arrays.

Ops build a flat tape in construction order; the backward pass walks it in
reverse, so no explicit topological sort is needed.  Outside a ``Tape``
context the same functions run as plain numpy forward passes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ShapeError, ValidationError

_BackFn = Callable[[np.ndarray], np.ndarray]


class Tensor:
    """A numpy array plus the edges needed to backpropagate through it."""

    __slots__ = ("data", "_parents", "_backs")

    def __init__(self, data: np.ndarray | float | Sequence) -> None:
        self.data = np.asarray(data)
        self._parents: tuple[Tensor, ...] = ()
        self._backs: tuple[_BackFn, ...] = ()

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype})"


_ACTIVE_TAPE: "Tape | None" = None


class Tape:
    """Records op outputs while active; computes gradients afterwards."""

    def __init__(self) -> None:
        self._nodes: list[Tensor] = []

    def __enter__(self) -> "Tape":
        global _ACTIVE_TAPE
        if _ACTIVE_TAPE is not None:
            raise ValidationError("tapes do not nest")
        _ACTIVE_TAPE = self
        return self

    def __exit__(self, *exc) -> None:
        global _ACTIVE_TAPE
        _ACTIVE_TAPE = None

    def gradients(self, loss: Tensor, params: dict[str, Tensor]) -> dict[str, np.ndarray]:
        """Gradient of a scalar loss for each named parameter.

        Parameters the loss never touched map to zero arrays of the
        parameter's shape.
        """
        if loss.data.size != 1:
            raise ValidationError(f"loss must be scalar, got shape {loss.data.shape}")
        if not any(node is loss for node in self._nodes):
            raise ValidationError("loss was not computed under this tape")
        wanted = {id(p) for p in params.values()}
        grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
        for node in reversed(self._nodes):
            out_grad = grads.pop(id(node), None)
            if out_grad is None:
                continue
            for parent, back in zip(node._parents, node._backs):
                if not parent._parents and id(parent) not in wanted:
                    continue  # a constant: nothing upstream needs its gradient
                contrib = back(out_grad)
                key = id(parent)
                if key in grads:
                    grads[key] = grads[key] + contrib
                else:
                    grads[key] = contrib
        return {
            name: grads.get(id(p), np.zeros_like(p.data)) for name, p in params.items()
        }


def _record(data: np.ndarray, parents: tuple[Tensor, ...], backs: tuple[_BackFn, ...]) -> Tensor:
    out = Tensor(data)
    if _ACTIVE_TAPE is not None:
        out._parents = parents
        out._backs = backs
        _ACTIVE_TAPE._nodes.append(out)
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a gradient down to the shape numpy broadcast it up from."""
    if grad.ndim > len(shape):
        grad = grad.sum(axis=tuple(range(grad.ndim - len(shape))))
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


def _as_tensor(x: Tensor | float | np.ndarray, like: Tensor) -> Tensor:
    """Wrap a plain value; bare scalars adopt the other operand's dtype so a
    python float cannot silently upcast a float32 graph."""
    if isinstance(x, Tensor):
        return x
    arr = np.asarray(x)
    if arr.ndim == 0:
        arr = arr.astype(like.data.dtype)
    return Tensor(arr)


def add(a: Tensor, b: Tensor | float | np.ndarray) -> Tensor:
    b = _as_tensor(b, a)
    try:
        data = a.data + b.data
    except ValueError:
        raise ShapeError(f"add: shapes {a.shape} and {b.shape} do not broadcast")
    return _record(
        data,
        (a, b),
        (lambda g: _unbroadcast(g, a.shape), lambda g: _unbroadcast(g, b.shape)),
    )


def mul(a: Tensor, b: Tensor | float | np.ndarray) -> Tensor:
    b = _as_tensor(b, a)
    try:
        data = a.data * b.data
    except ValueError:
        raise ShapeError(f"mul: shapes {a.shape} and {b.shape} do not broadcast")
    return _record(
        data,
        (a, b),
        (
            lambda g: _unbroadcast(g * b.data, a.shape),
            lambda g: _unbroadcast(g * a.data, b.shape),
        ),
    )


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """a @ b.  A 2-d right operand (a weight) is applied to the leading axes of
    ``a`` flattened into rows, so each direction is a single GEMM."""
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ShapeError(f"matmul needs 2-d or batched operands, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul: inner dims differ, {a.shape} @ {b.shape}")
    if b.data.ndim == 2:
        a2 = a.data.reshape(-1, a.shape[-1])
        data = (a2 @ b.data).reshape(a.shape[:-1] + b.shape[1:])

        def back_rows(g: np.ndarray) -> np.ndarray:
            return (g.reshape(a2.shape[0], -1) @ b.data.T).reshape(a.shape)

        def back_weight(g: np.ndarray) -> np.ndarray:
            return a2.T @ g.reshape(a2.shape[0], -1)

        return _record(data, (a, b), (back_rows, back_weight))

    def back_a(g: np.ndarray) -> np.ndarray:
        return _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.shape)

    def back_b(g: np.ndarray) -> np.ndarray:
        return _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.shape)

    return _record(a.data @ b.data, (a, b), (back_a, back_b))


def _row_sum(x: np.ndarray, y: np.ndarray | None = None) -> np.ndarray:
    """Sums over the last axis of x (of x * y, when given), shaped (..., 1).

    einsum adds each row in its own inner loop, so a row's sum has the same
    bits whatever the number of rows; numpy's reduce costs several times
    more on short rows.  A BLAS matrix-vector product with ones would be
    faster still, but OpenBLAS picks kernels by the matrix's row count and
    so returns different bits for the same row in a longer array, which
    breaks bit-exact causality.
    """
    if y is None:
        return np.einsum("...i->...", x)[..., None]
    return np.einsum("...i,...i->...", x, y)[..., None]


def _lead_sum(x: np.ndarray, y: np.ndarray | None = None) -> np.ndarray:
    """Sums over every axis but the last of x (of x * y, when given): the
    gradient of a bias or gain broadcast over rows."""
    x2 = x.reshape(-1, x.shape[-1])
    if y is None:
        return np.einsum("ri->i", x2)
    return np.einsum("ri,ri->i", x2, y.reshape(x2.shape))


# ``_row_max`` halves columns only on arrays of at least this many rows, each
# at most this wide; elsewhere numpy's reduce was as fast or faster.
_HALVING_MIN_ROWS = 192
_HALVING_MAX_WIDTH = 16


def _row_max(x: np.ndarray) -> np.ndarray:
    """x.max(axis=-1, keepdims=True), exactly.

    numpy's reduce pays a fixed cost per row, which dominates on short rows;
    many short rows instead take elementwise maxima of two overlapping
    column halves until one column is left.  Each row's max is still one of
    its own entries, so the result is the same array.
    """
    width = x.shape[-1]
    if width > _HALVING_MAX_WIDTH or x.size < _HALVING_MIN_ROWS * width:
        return x.max(axis=-1, keepdims=True)
    while width > 1:
        half = (width + 1) // 2
        x = np.maximum(x[..., :half], x[..., width - half :])
        width = half
    return x


def _record_joint(
    data: np.ndarray,
    parents: tuple[Tensor, ...],
    backward: Callable[[np.ndarray], tuple[np.ndarray, ...]],
) -> Tensor:
    """One tape node over ``parents`` whose backward yields all their
    gradients in one pass, memoised on the incoming gradient."""
    if _ACTIVE_TAPE is None:
        return Tensor(data)
    memo: dict[str, object] = {}

    def part(i: int) -> _BackFn:
        def back(g: np.ndarray) -> np.ndarray:
            if memo.get("g") is not g:
                memo.update(g=g, grads=backward(g))
            return memo["grads"][i]

        return back

    return _record(data, parents, tuple(part(i) for i in range(len(parents))))


def feed_forward(
    x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor, keep: np.ndarray | None = None
) -> Tensor:
    """relu(x @ w1 + b1) * keep @ w2 + b2 as one tape node.

    ``keep`` is an optional multiplicative dropout mask on the hidden
    units, shaped like them, (..., ffn size).  ReLU and ``keep`` fold into
    one float mask, applied once forward and once backward; without
    ``keep`` the ReLU runs in place and the backward masks with h > 0.
    """
    if not (
        w1.data.ndim == w2.data.ndim == 2
        and x.shape[-1] == w1.shape[0]
        and b1.shape == w1.shape[1:] == w2.shape[:1]
        and b2.shape == w2.shape[1:]
    ):
        raise ShapeError(
            f"feed_forward: x {x.shape}, w1 {w1.shape}, b1 {b1.shape}, w2 {w2.shape}, b2 {b2.shape}"
        )
    x2 = x.data.reshape(-1, x.shape[-1])
    h = x2 @ w1.data
    h += b1.data
    if keep is None:
        mask = None
        np.maximum(h, 0, out=h)
    else:
        mask = np.multiply(h > 0, keep.reshape(h.shape), dtype=h.dtype)
        h *= mask
    out = h @ w2.data
    out += b2.data

    def backward(g: np.ndarray) -> tuple[np.ndarray, ...]:
        g2 = g.reshape(out.shape)
        dh = g2 @ w2.data.T
        dh *= (h > 0) if mask is None else mask
        return (
            (dh @ w1.data.T).reshape(x.shape),
            x2.T @ dh,
            _lead_sum(dh),
            h.T @ g2,
            _lead_sum(g2),
        )

    return _record_joint(out.reshape(x.shape[:-1] + w2.shape[1:]), (x, w1, b1, w2, b2), backward)


def _softmax_forward(
    qs: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    bias: np.ndarray | None,
    keep: np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(weights, kept weights, context) of softmax(qs kᵀ + bias) v, the
    weights multiplied by ``keep`` when one is given."""
    w = qs @ np.swapaxes(k, -1, -2)
    if bias is not None:
        w += bias
    w -= _row_max(w)
    np.exp(w, out=w)
    w /= _row_sum(w)
    wk = w if keep is None else w * keep
    return w, wk, wk @ v


def _softmax_backward(
    g: np.ndarray,
    qs: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    w: np.ndarray,
    wk: np.ndarray,
    keep: np.ndarray | None,
    scale: np.floating,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients for the unscaled q, k and v of ``_softmax_forward``."""
    ds = g @ np.swapaxes(v, -1, -2)
    if keep is not None:
        ds *= keep
    ds -= _row_sum(ds, w)
    ds *= w
    return (ds @ k) * scale, np.swapaxes(ds, -1, -2) @ qs, np.swapaxes(wk, -1, -2) @ g


def attention(
    q: Tensor,
    k: Tensor,
    v: Tensor,
    bias: np.ndarray | None,
    scale: float,
    keep: np.ndarray | None = None,
) -> Tensor:
    """softmax((q * scale) kᵀ + bias) v as one tape node.

    ``q`` is (..., t_q, d), ``k`` and ``v`` are (..., t_k, d); ``bias`` is a
    constant broadcast onto the (..., t_q, t_k) scores and ``keep`` an
    optional multiplicative mask on the attention weights (dropout, inverted
    scaling baked in).
    """
    s = q.data.dtype.type(scale)
    qs = q.data * s
    w, wk, out = _softmax_forward(qs, k.data, v.data, bias, keep)
    return _record_joint(
        out, (q, k, v), lambda g: _softmax_backward(g, qs, k.data, v.data, w, wk, keep, s)
    )


@dataclass(frozen=True)
class RaggedClass:
    """One length class of a ``RaggedPlan``: n_c records padded to L_q query
    and L_k key positions.

    ``q_slots`` (n_c, L_q) and ``k_slots`` (n_c, L_k) hold the packed row
    of each record's position, -1 where it has none (PAD, or past its end);
    ``bias`` is added to the class's (n_c, heads, L_q, L_k) scores.
    """

    q_slots: np.ndarray
    k_slots: np.ndarray
    bias: np.ndarray | None

    @property
    def shape(self) -> tuple[int, int, int]:
        """(n_c, L_q, L_k)."""
        return self.q_slots.shape + self.k_slots.shape[1:]


@dataclass(frozen=True)
class RaggedPlan:
    """How ``ragged_attention`` pads packed rows: one padded block per class,
    ``heads`` heads each.  Every packed query and key row sits in exactly
    one class."""

    heads: int
    classes: tuple[RaggedClass, ...]


def _with_zero_row(x: np.ndarray) -> np.ndarray:
    """x with a row of zeros appended."""
    out = np.empty((x.shape[0] + 1,) + x.shape[1:], dtype=x.dtype)
    out[:-1] = x
    out[-1] = 0
    return out


def ragged_attention(
    q: Tensor,
    k: Tensor,
    v: Tensor,
    plan: RaggedPlan,
    scale: float,
    keeps: Sequence[np.ndarray | None] | None = None,
) -> Tensor:
    """``attention`` of packed query rows over packed key/value rows, padded
    one length class at a time, as one tape node.

    ``q`` is (n_q, h) and ``k``, ``v`` are (n_k, h), each row one position
    of one record.  Each class of ``plan`` gathers its rows into
    (n_c, heads, L, h / heads) blocks, zeros at slot -1 as in a padded
    batch, runs the softmax with its bias and keep mask (``keeps[c]``,
    shaped (n_c, heads, L_q, L_k), or None), and scatters its context rows
    back: the result is (n_q, h).
    """
    width = q.shape[1]
    heads = plan.heads
    d = width // heads
    s = q.data.dtype.type(scale)
    keeps = keeps or [None] * len(plan.classes)
    # Slot -1 reads the zero row at the end, and writes to a spare row there.
    qz, kz, vz = _with_zero_row(q.data * s), _with_zero_row(k.data), _with_zero_row(v.data)

    def split(x: np.ndarray) -> np.ndarray:
        """(n_c, L, h) rows as a (n_c, heads, L, d) view."""
        return x.reshape(x.shape[:2] + (heads, d)).transpose(0, 2, 1, 3)

    def merge(into: np.ndarray, slots: np.ndarray, x: np.ndarray) -> None:
        """Write (n_c, heads, L, d) blocks back as the rows at ``slots``."""
        into[slots] = x.transpose(0, 2, 1, 3).reshape(slots.shape + (width,))

    # Every packed row sits in one class, so the merges fill each buffer.
    out = np.empty_like(qz)
    saved = []
    for cls, keep in zip(plan.classes, keeps, strict=True):
        qc, kc, vc = split(qz[cls.q_slots]), split(kz[cls.k_slots]), split(vz[cls.k_slots])
        w, wk, ctx = _softmax_forward(qc, kc, vc, cls.bias, keep)
        merge(out, cls.q_slots, ctx)
        saved.append((qc, kc, vc, w, wk))

    def backward(g: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        gz = _with_zero_row(g)
        dq, dk, dv = np.empty_like(qz), np.empty_like(kz), np.empty_like(vz)
        for cls, keep, (qc, kc, vc, w, wk) in zip(plan.classes, keeps, saved):
            gc = split(gz[cls.q_slots])
            dqc, dkc, dvc = _softmax_backward(gc, qc, kc, vc, w, wk, keep, s)
            merge(dq, cls.q_slots, dqc)
            merge(dk, cls.k_slots, dkc)
            merge(dv, cls.k_slots, dvc)
        return dq[:-1], dk[:-1], dv[:-1]

    return _record_joint(out[:-1], (q, k, v), backward)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-6) -> Tensor:
    """Normalize the last axis to zero mean and unit variance, then scale."""
    if gain.shape != x.shape[-1:] or bias.shape != x.shape[-1:]:
        raise ShapeError(
            f"layer_norm: gain/bias {gain.shape}/{bias.shape} must match last axis of {x.shape}"
        )
    n = x.shape[-1]
    y = x.data - _row_sum(x.data) / n
    inv = _row_sum(y, y)
    inv /= n
    inv += eps
    np.sqrt(inv, out=inv)
    np.divide(1.0, inv, out=inv)
    y *= inv
    out = gain.data * y
    out += bias.data

    def back_x(g: np.ndarray) -> np.ndarray:
        dy = g * gain.data
        m1 = _row_sum(dy)
        m1 /= n
        m2 = _row_sum(dy, y)
        m2 /= n
        dy -= m1
        dy -= y * m2
        dy *= inv
        return dy

    return _record(
        out.astype(x.dtype, copy=False),
        (x, gain, bias),
        (back_x, lambda g: _lead_sum(g, y), _lead_sum),
    )


def embedding_lookup(table: Tensor, ids: np.ndarray) -> Tensor:
    """table[ids]; ids may repeat, and the backward sums each id's rows."""
    ids = np.asarray(ids)
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise ValidationError(
            f"embedding ids out of range [0, {table.shape[0]}): min {ids.min()}, max {ids.max()}"
        )

    def back(g: np.ndarray) -> np.ndarray:
        # Group equal ids with a stable sort and sum each run in one reduceat.
        acc = np.zeros_like(table.data)
        flat = ids.reshape(-1)
        if flat.size == 0:
            return acc
        order = np.argsort(flat, kind="stable")
        sorted_ids = flat[order]
        starts = np.flatnonzero(np.r_[True, sorted_ids[1:] != sorted_ids[:-1]])
        rows = g.reshape((flat.size,) + table.shape[1:])[order]
        acc[sorted_ids[starts]] = np.add.reduceat(rows, starts, axis=0)
        return acc

    return _record(table.data[ids], (table,), (back,))


def take_rows(x: Tensor, rows: np.ndarray) -> Tensor:
    """x[rows] along the first axis, for distinct ``rows``; the backward
    writes the gradient rows into zeros."""

    def back(g: np.ndarray) -> np.ndarray:
        out = np.zeros_like(x.data)
        out[rows] = g
        return out

    return _record(x.data[rows], (x,), (back,))


def put_rows(x: Tensor, rows: np.ndarray, n: int) -> Tensor:
    """The inverse of ``take_rows``: n rows of zeros with x's rows written at
    the distinct indices ``rows``."""
    out = np.zeros((n,) + x.shape[1:], dtype=x.dtype)
    out[rows] = x.data
    return _record(out, (x,), (lambda g: g[rows],))


class GeneratorDropout:
    """Dropout masks drawn from one numpy generator (or a seed for one)."""

    def __init__(self, rng: np.random.Generator | int | Sequence[int]) -> None:
        self._rng = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)

    def mask(self, shape: tuple[int, ...], p: float, dtype: np.dtype) -> np.ndarray:
        """Multiplicative keep mask in ``dtype``, inverted scaling baked in.

        Each element draws a uint16 and is kept when the draw is at least
        round(p * 65536): with probability 1 - p to within 2^-17.  A kept
        element is exactly 1 / (1 - p) in ``dtype``.  The draws are the
        generator's raw 64-bit outputs cut into four little-endian uint16
        each, which costs about half of ``Generator.integers``.
        """
        n = math.prod(shape)
        raw = self._rng.bit_generator.random_raw(-(-n // 4))
        draws = raw.astype("<u8", copy=False).view("<u2")[:n].reshape(shape)
        keep = draws >= round(p * (1 << 16))
        return np.multiply(keep, 1.0 / (1.0 - p), dtype=dtype)


def keep_mask(
    shape: tuple[int, ...], p: float, train: bool, source: GeneratorDropout | None, dtype: np.dtype
) -> np.ndarray | None:
    """The multiplicative mask of dropout at rate ``p``; None when it is off."""
    if not 0.0 <= p < 1.0:
        raise ValidationError(f"dropout rate must be in [0, 1), got {p}")
    if not train or p == 0.0:
        return None
    if source is None:
        raise ValidationError("training-mode dropout needs a mask source")
    return source.mask(shape, p, dtype)


def dropout(x: Tensor, p: float, train: bool, source: GeneratorDropout | None = None) -> Tensor:
    m = keep_mask(x.shape, p, train, source, x.dtype)
    if m is None:
        return x
    return _record(x.data * m, (x,), (lambda g: g * m,))


def cross_entropy(
    logits: Tensor,
    targets: np.ndarray,
    label_smoothing: float = 0.0,
) -> Tensor:
    """Mean cross-entropy over the rows of ``logits``.

    ``logits`` is (n, vocab); ``targets`` is (n,) int ids.  With smoothing
    eps the target distribution puts 1-eps on the gold id and eps/(vocab-1)
    on every other id.  The work stays in the logits' dtype; the per-row
    sums and the loss are float64.
    """
    targets = np.asarray(targets)
    if logits.data.ndim != 2 or targets.shape != logits.shape[:1]:
        raise ShapeError(f"cross_entropy: logits {logits.shape} vs targets {targets.shape}")
    if not 0.0 <= label_smoothing < 1.0:
        raise ValidationError(f"label smoothing must be in [0, 1), got {label_smoothing}")
    n, vocab = logits.shape
    if n == 0:
        raise ValidationError("cross_entropy: no rows")
    x = logits.data
    rows = np.arange(n)

    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    sum_e = e.sum(axis=-1, dtype=np.float64)
    lse = np.log(sum_e)
    on = 1.0 - label_smoothing
    off = label_smoothing / (vocab - 1) if vocab > 1 else 0.0
    gold_lp = shifted[rows, targets] - lse
    all_lp = shifted.sum(axis=-1, dtype=np.float64) - vocab * lse
    per_row = -(on * gold_lp + off * (all_lp - gold_lp))
    loss = per_row.sum() / n

    def back(g: np.ndarray) -> np.ndarray:
        scale = float(g) / n
        grad = e * (scale / sum_e).astype(x.dtype)[:, None]
        grad -= off * scale
        grad[rows, targets] -= (on - off) * scale
        return grad

    return _record(np.asarray(loss), (logits,), (back,))


def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    return _record(x.data.reshape(shape), (x,), (lambda g: g.reshape(x.shape),))


def transpose(x: Tensor, axes: tuple[int, ...]) -> Tensor:
    return _record(x.data.transpose(axes), (x,), (lambda g: g.transpose(np.argsort(axes)),))


def reduce_sum(x: Tensor) -> Tensor:
    return _record(np.asarray(x.data.sum()), (x,), (lambda g: np.broadcast_to(g, x.shape).copy(),))


@dataclass(frozen=True)
class GradCheckResult:
    """Worst-case agreement between tape and finite-difference gradients."""

    max_rel_error: float
    n_coords: int
    worst_param: str


def finite_diff_check(
    f: Callable[[], Tensor],
    params: dict[str, Tensor],
    h: float = 1e-5,
    max_coords_per_param: int | None = None,
    seed: int = 0,
) -> GradCheckResult:
    """Compare tape gradients of ``f()`` against central differences.

    Relative error uses max(|analytic|, |numeric|, 1e-8) as denominator.
    Large parameters may be spot-checked on a random coordinate subset.
    """
    with Tape() as tape:
        loss = f()
        analytic = tape.gradients(loss, params)

    rng = np.random.default_rng(seed)
    worst = 0.0
    worst_param = ""
    n_checked = 0
    for name, p in params.items():
        size = p.data.size
        idxs = np.arange(size)
        if max_coords_per_param is not None and size > max_coords_per_param:
            idxs = rng.choice(size, size=max_coords_per_param, replace=False)
        a_flat = analytic[name].reshape(-1)
        for i in idxs:
            orig = p.data.flat[i]
            p.data.flat[i] = orig + h
            up = float(f().data)
            p.data.flat[i] = orig - h
            down = float(f().data)
            p.data.flat[i] = orig
            numeric = (up - down) / (2.0 * h)
            a = float(a_flat[i])
            rel = abs(a - numeric) / max(abs(a), abs(numeric), 1e-8)
            n_checked += 1
            if rel > worst:
                worst = rel
                worst_param = name
    return GradCheckResult(max_rel_error=worst, n_coords=n_checked, worst_param=worst_param)
