"""Autodiff core: per-primitive gradient checks against finite differences."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from medseq import tensor
from medseq.errors import ShapeError, ValidationError
from medseq.tensor import (
    GeneratorDropout,
    RaggedClass,
    RaggedPlan,
    Tape,
    Tensor,
    add,
    attention,
    cross_entropy,
    dropout,
    embedding_lookup,
    feed_forward,
    finite_diff_check,
    keep_mask,
    layer_norm,
    matmul,
    mul,
    put_rows,
    ragged_attention,
    reduce_sum,
    reshape,
    take_rows,
    transpose,
)

FD_TOL = 1e-4  # contract bound; observed errors sit near 1e-9 in float64


def rnd(rng, *shape, avoid_zero=False):
    x = rng.standard_normal(shape)
    if avoid_zero:
        x = np.sign(x) * (np.abs(x) + 0.2)
    return Tensor(x)


def check(f, params, **kw):
    result = finite_diff_check(f, params, **kw)
    assert result.max_rel_error < FD_TOL, (
        f"{result.worst_param}: rel error {result.max_rel_error:.3e} over {result.n_coords} coords"
    )


def attention_weights(q: Tensor, k: Tensor) -> np.ndarray:
    """The softmax weights inside ``attention``: against identity values its
    output is the (t_q, t_k) weight matrix itself."""
    return attention(q, k, Tensor(np.eye(k.shape[-2])), None, 1.0).data


class TestForwardValues:
    def test_softmax_uniform(self):
        out = attention_weights(Tensor(np.zeros((1, 2))), Tensor(np.ones((3, 2))))
        np.testing.assert_allclose(out, [[1 / 3] * 3], atol=1e-12)

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        out = attention_weights(Tensor(rng.standard_normal((4, 3))), Tensor(rng.standard_normal((7, 3))))
        np.testing.assert_allclose(out.sum(-1), np.ones(4), atol=1e-12)

    def test_feed_forward_zero_grad_below_zero(self):
        # identity weights, zero biases: the node is the ReLU itself
        x = Tensor(np.array([[-2.0, -0.5, 0.5]]))
        eye, zero = Tensor(np.eye(3)), Tensor(np.zeros(3))
        with Tape() as tape:
            out = feed_forward(x, eye, zero, eye, zero)
            grads = tape.gradients(reduce_sum(out), {"x": x})
        np.testing.assert_array_equal(out.data, [[0.0, 0.0, 0.5]])
        np.testing.assert_array_equal(grads["x"], [[0.0, 0.0, 1.0]])

    def test_cross_entropy_uniform_logits(self):
        logits = Tensor(np.zeros((2, 5)))
        targets = np.array([1, 3])
        loss = cross_entropy(logits, targets)
        assert math.isclose(float(loss.data), math.log(5), rel_tol=1e-9)

    def test_cross_entropy_label_smoothing_value(self):
        # one row, V=4, target 2, eps=0.3: loss = -(0.7*logp[2] + 0.1*sum(logp[others]))
        logits = np.array([[0.3, -0.2, 0.9, 0.1]])
        logp = logits - np.log(np.exp(logits).sum())
        want = -(0.7 * logp[0, 2] + 0.1 * (logp[0, 0] + logp[0, 1] + logp[0, 3]))
        got = cross_entropy(Tensor(logits), np.array([2]), label_smoothing=0.3)
        assert math.isclose(float(got.data), float(want), rel_tol=1e-9)

    def test_layer_norm_output_standardized(self):
        rng = np.random.default_rng(2)
        x = Tensor(rng.standard_normal((3, 8)))
        gain = Tensor(np.ones(8))
        bias = Tensor(np.zeros(8))
        y = layer_norm(x, gain, bias).data
        np.testing.assert_allclose(y.mean(-1), 0.0, atol=1e-9)
        np.testing.assert_allclose(y.std(-1), 1.0, atol=1e-3)

    def test_embedding_range_check(self):
        table = Tensor(np.zeros((4, 3)))
        with pytest.raises(ValidationError):
            embedding_lookup(table, np.array([4]))

    def test_add_broadcast_shape_error(self):
        with pytest.raises(ShapeError):
            add(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4,))))

    def test_matmul_requires_2d(self):
        with pytest.raises(ShapeError):
            matmul(Tensor(np.zeros(3)), Tensor(np.zeros((3, 2))))


class TestTapeSemantics:
    def test_product_rule(self):
        x = Tensor(np.array([1.0, 2.0, 3.0]))
        with Tape() as tape:
            loss = reduce_sum(mul(x, x))
            grads = tape.gradients(loss, {"x": x})
        np.testing.assert_allclose(grads["x"], [2.0, 4.0, 6.0])

    def test_unused_param_gets_zeros(self):
        x = Tensor(np.ones(3))
        unused = Tensor(np.ones((2, 2)))
        with Tape() as tape:
            loss = reduce_sum(x)
            grads = tape.gradients(loss, {"x": x, "unused": unused})
        np.testing.assert_array_equal(grads["unused"], np.zeros((2, 2)))

    def test_reused_tensor_accumulates(self):
        x = Tensor(np.array([2.0]))
        with Tape() as tape:
            loss = reduce_sum(add(mul(x, x), x))  # x^2 + x -> 2x + 1 = 5
            grads = tape.gradients(loss, {"x": x})
        np.testing.assert_allclose(grads["x"], [5.0])

    def test_non_scalar_loss_rejected(self):
        x = Tensor(np.ones(3))
        with Tape() as tape:
            y = mul(x, x)
            with pytest.raises(ValidationError):
                tape.gradients(y, {"x": x})

    def test_off_tape_loss_rejected(self):
        x = Tensor(np.ones(3))
        with Tape():
            pass
        with Tape() as tape:
            other = Tensor(np.ones(1))
            loss = reduce_sum(other)
        y = Tensor(np.array([1.0]))
        with pytest.raises(ValidationError):
            tape.gradients(y, {"x": x})
        tape.gradients(loss, {"x": x})

    def test_tapes_do_not_nest(self):
        with Tape():
            with pytest.raises(ValidationError):
                with Tape():
                    pass


class TestFiniteDiffCheckItself:
    def test_quadratic(self):
        x = Tensor(np.array([3.0]))
        result = finite_diff_check(lambda: reduce_sum(mul(x, x)), {"x": x})
        assert result.max_rel_error < 1e-8

    def test_linear_is_near_exact(self):
        x = Tensor(np.array([1.0, -2.0, 0.5]))
        w = Tensor(np.array([[2.0], [0.1], [-1.0]]))
        result = finite_diff_check(
            lambda: reduce_sum(matmul(reshape(x, (1, 3)), w)), {"x": x, "w": w}
        )
        assert result.max_rel_error < 1e-8

    def test_mlp_under_1e6(self):
        rng = np.random.default_rng(3)
        params = {
            "w1": rnd(rng, 4, 6),
            "b1": rnd(rng, 6),
            "w2": rnd(rng, 6, 2),
            "b2": rnd(rng, 2),
        }
        x = rng.standard_normal((3, 4))

        def f():
            return reduce_sum(feed_forward(Tensor(x), *params.values()))

        result = finite_diff_check(f, params)
        assert result.max_rel_error < 1e-6

    def test_restores_parameters(self):
        x = Tensor(np.array([1.0, 2.0]))
        before = x.data.copy()
        finite_diff_check(lambda: reduce_sum(mul(x, x)), {"x": x})
        np.testing.assert_array_equal(x.data, before)


class TestPrimitiveGradients:
    """One finite-difference property per primitive, randomized shapes."""

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000), rows=st.integers(1, 3), cols=st.integers(1, 4))
    def test_add_broadcast(self, seed, rows, cols):
        rng = np.random.default_rng(seed)
        a = rnd(rng, rows, cols)
        b = rnd(rng, cols)
        check(lambda: reduce_sum(mul(add(a, b), add(a, b))), {"a": a, "b": b})

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000), rows=st.integers(1, 3), cols=st.integers(1, 4))
    def test_mul_broadcast(self, seed, rows, cols):
        rng = np.random.default_rng(seed)
        a = rnd(rng, rows, cols)
        b = rnd(rng, rows, 1)
        check(lambda: reduce_sum(mul(mul(a, b), mul(a, b))), {"a": a, "b": b})

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(1, 3), k=st.integers(1, 4), m=st.integers(1, 3))
    def test_matmul(self, seed, n, k, m):
        rng = np.random.default_rng(seed)
        a = rnd(rng, n, k)
        b = rnd(rng, k, m)
        check(lambda: reduce_sum(mul(matmul(a, b), matmul(a, b))), {"a": a, "b": b})

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10_000), batch=st.integers(1, 3))
    def test_matmul_batched(self, seed, batch):
        rng = np.random.default_rng(seed)
        a = rnd(rng, batch, 2, 3)
        b = rnd(rng, batch, 3, 2)
        check(lambda: reduce_sum(matmul(a, b)), {"a": a, "b": b})

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(1, 4), with_keep=st.booleans())
    def test_feed_forward(self, seed, n, with_keep):
        rng = np.random.default_rng(seed)
        params = {"x": rnd(rng, n, 3), "w1": rnd(rng, 3, 5), "b1": rnd(rng, 5),
                  "w2": rnd(rng, 5, 2), "b2": rnd(rng, 2)}
        keep = GeneratorDropout(seed).mask((n, 5), 0.3, np.dtype("float64")) if with_keep else None
        w = Tensor(rng.standard_normal((n, 2)))
        # A random hidden unit within a finite-difference step of the ReLU
        # kink is vanishingly unlikely.
        check(lambda: reduce_sum(mul(feed_forward(*params.values(), keep), w)), params)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000), rows=st.integers(1, 3), cols=st.integers(2, 5))
    def test_softmax(self, seed, rows, cols):
        # the softmax inside attention, its weights read out through identity values
        rng = np.random.default_rng(seed)
        q = rnd(rng, rows, 2)
        k = rnd(rng, cols, 2)
        w = rnd(rng, rows, cols)
        eye = Tensor(np.eye(cols))
        check(lambda: reduce_sum(mul(attention(q, k, eye, None, 1.0), w)), {"q": q, "k": k})

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000), rows=st.integers(1, 3), cols=st.integers(3, 6))
    def test_layer_norm(self, seed, rows, cols):
        rng = np.random.default_rng(seed)
        x = rnd(rng, rows, cols)
        gain = Tensor(rng.standard_normal(cols) + 1.0)
        bias = rnd(rng, cols)
        w = rng.standard_normal((rows, cols))
        # h=1e-4: with tiny widths the normalized output is nearly flat in x,
        # so smaller steps drown the true derivative in rounding noise
        check(
            lambda: reduce_sum(mul(layer_norm(x, gain, bias), Tensor(w))),
            {"x": x, "gain": gain, "bias": bias},
            h=1e-4,
        )

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000), vocab=st.integers(2, 6), n=st.integers(1, 5))
    def test_embedding_lookup(self, seed, vocab, n):
        rng = np.random.default_rng(seed)
        table = rnd(rng, vocab, 3)
        ids = rng.integers(0, vocab, size=n)
        check(lambda: reduce_sum(mul(embedding_lookup(table, ids), embedding_lookup(table, ids))), {"table": table})

    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(1, 4),
        vocab=st.integers(2, 6),
        eps=st.sampled_from([0.0, 0.1]),
    )
    def test_cross_entropy(self, seed, n, vocab, eps):
        rng = np.random.default_rng(seed)
        logits = rnd(rng, n, vocab)
        targets = rng.integers(1, vocab, size=n)
        targets[rng.random(n) < 0.3] = 0  # some PAD rows, unless all end up PAD
        if (targets == 0).all():
            targets[0] = 1
        kept = np.flatnonzero(targets != 0)
        check(
            lambda: cross_entropy(take_rows(logits, kept), targets[kept], label_smoothing=eps),
            {"logits": logits},
        )

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_reshape_transpose(self, seed):
        rng = np.random.default_rng(seed)
        x = rnd(rng, 2, 3, 2)
        w = rng.standard_normal((2, 2, 3))
        check(
            lambda: reduce_sum(mul(transpose(x, (0, 2, 1)), Tensor(w))),
            {"x": x},
        )
        y = rnd(rng, 2, 6, avoid_zero=True)
        check(lambda: reduce_sum(mul(reshape(y, (3, 4)), reshape(y, (3, 4)))), {"y": y})

    def test_reshape_gradient_near_zero(self):
        """Seed 1056 of test_reshape_transpose without avoid_zero: one
        coordinate of y is about 1e-10, where the central difference's
        rounding swamps the relative error.  The exact gradient 2y still
        judges the tape there."""
        rng = np.random.default_rng(1056)
        rnd(rng, 2, 3, 2)
        rng.standard_normal((2, 2, 3))
        y = rnd(rng, 2, 6)
        assert np.abs(y.data).min() < 1e-9
        with Tape() as tape:
            r = reshape(y, (3, 4))
            grad = tape.gradients(reduce_sum(mul(r, r)), {"y": y})["y"]
        np.testing.assert_allclose(grad, 2.0 * y.data, rtol=0, atol=1e-12)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_reduce_sum(self, seed):
        rng = np.random.default_rng(seed)
        x = rnd(rng, 3, 4)
        check(lambda: mul(reduce_sum(x), reduce_sum(x)), {"x": x})


def softmax_ref(x: Tensor) -> Tensor:
    """The standalone softmax tape op that attention's fused node replaced."""
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=-1, keepdims=True)

    def back(g):
        return s * (g - (g * s).sum(axis=-1, keepdims=True))

    return tensor._record(s, (x,), (back,))


def composed_attention(q, k, v, bias, scale, keep):
    """softmax((q * scale) kᵀ + bias) v from separate tape ops."""
    scores = matmul(mul(q, scale), transpose(k, (0, 1, 3, 2)))
    if bias is not None:
        scores = add(scores, Tensor(bias))
    weights = softmax_ref(scores)
    if keep is not None:
        weights = mul(weights, Tensor(keep))
    return matmul(weights, v)


class TestAttention:
    """The fused node against the composed ops it replaced, in float64."""

    def _inputs(self, seed, with_bias, with_keep):
        rng = np.random.default_rng(seed)
        q, k, v = rnd(rng, 2, 3, 4, 5), rnd(rng, 2, 3, 6, 5), rnd(rng, 2, 3, 6, 5)
        bias = None
        if with_bias:
            bias = np.zeros((2, 1, 4, 6))
            bias[0, ..., 4:] = -1e9  # padded keys
            bias[1] = np.triu(np.full((4, 6), -1e9), k=3)
        keep = None
        if with_keep:
            keep = GeneratorDropout(seed).mask((2, 3, 4, 6), 0.3, np.dtype("float64"))
        return q, k, v, bias, keep

    @pytest.mark.parametrize("with_bias", [False, True])
    @pytest.mark.parametrize("with_keep", [False, True])
    def test_matches_composed_ops(self, with_bias, with_keep):
        q, k, v, bias, keep = self._inputs(1, with_bias, with_keep)
        w = np.random.default_rng(2).standard_normal((2, 3, 4, 5))
        params = {"q": q, "k": k, "v": v}
        results = []
        for fn in (attention, composed_attention):
            with Tape() as tape:
                out = fn(q, k, v, bias, 0.4, keep)
                grads = tape.gradients(reduce_sum(mul(out, Tensor(w))), params)
            results.append((out.data, grads))
        (fused, fused_grads), (ref, ref_grads) = results
        np.testing.assert_allclose(fused, ref, rtol=0, atol=1e-12)
        for name in params:
            np.testing.assert_allclose(fused_grads[name], ref_grads[name], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("with_bias", [False, True])
    @pytest.mark.parametrize("with_keep", [False, True])
    def test_finite_differences(self, with_bias, with_keep):
        q, k, v, bias, keep = self._inputs(3, with_bias, with_keep)
        w = Tensor(np.random.default_rng(4).standard_normal((2, 3, 4, 5)))
        check(
            lambda: reduce_sum(mul(attention(q, k, v, bias, 0.4, keep), w)),
            {"q": q, "k": k, "v": v},
        )

    def test_is_one_tape_node(self):
        q, k, v, bias, keep = self._inputs(5, True, True)
        with Tape() as tape:
            attention(q, k, v, bias, 0.4, keep)
        assert len(tape._nodes) == 1


def extents(real: np.ndarray) -> np.ndarray:
    """Each record's last real position + 1, at least 1."""
    ends = real.shape[1] - np.argmax(real[:, ::-1], axis=1)
    return np.where(real.any(axis=1), ends, 1)


def make_plan(q_real, k_real, bias, classes, heads):
    """A RaggedPlan for the real (non-PAD) positions of a padded layout:
    rows packed in row-major order, one class per list of records."""
    slots = []
    for real in (q_real, k_real):
        s = np.full(real.shape, -1)
        s[real] = np.arange(real.sum())
        slots.append(s)
    out = []
    for records in map(np.asarray, classes):
        t_q, t_k = extents(q_real[records]).max(), extents(k_real[records]).max()
        out.append(RaggedClass(slots[0][records, :t_q], slots[1][records, :t_k],
                               bias[records, :, :t_q, :t_k]))
    return RaggedPlan(heads, tuple(out))


def padded_attention(q, k, v, q_real, k_real, bias, heads, scale, keep):
    """The packed rows scattered into the padded (batch, heads, len, d)
    layout, zeros at PAD, through ``attention``, and the real rows back."""
    d = q.shape[1] // heads

    def split(x, real):
        full = put_rows(x, np.flatnonzero(real), real.size)
        return transpose(reshape(full, real.shape + (heads, d)), (0, 2, 1, 3))

    ctx = attention(split(q, q_real), split(k, k_real), split(v, k_real), bias, scale, keep)
    rows = reshape(transpose(ctx, (0, 2, 1, 3)), (q_real.size, q.shape[1]))
    return take_rows(rows, np.flatnonzero(q_real))


def ragged_case(name, with_keep):
    """(q, k, v, plan, keeps, reference keyword arguments) in float64."""
    heads, width = 2, 6
    self_real = np.array([
        [1, 1, 0, 1, 1, 0],  # interior PAD
        [1, 0, 0, 0, 0, 0],  # extent 1
        [1, 1, 1, 1, 1, 1],
        [1, 1, 1, 0, 0, 0],
    ], dtype=bool)
    pad = np.where(self_real, 0.0, -1e9)[:, None, None, :]
    if name == "self":
        q_real, k_real, bias = self_real, self_real, pad
        classes = [[1], [3, 0], [2]]  # a class of one record, the extent-1 record
    elif name == "causal":
        q_real, k_real = self_real, self_real
        bias = pad + np.triu(np.full((6, 6), -1e9), k=1)
        classes = [[1, 3], [0, 2]]
    else:  # cross: 3 queries over 5 keys, record 2 with no key at all
        q_real = np.array([[1, 1, 0], [1, 1, 1], [1, 0, 0]], dtype=bool)
        k_real = np.array([[1, 1, 1, 1, 0], [1, 0, 1, 0, 0], [0, 0, 0, 0, 0]], dtype=bool)
        bias = np.where(k_real, 0.0, -1e9)[:, None, None, :]
        classes = [[2, 1], [0]]
    rng = np.random.default_rng(len(name))
    q, k, v = rnd(rng, q_real.sum(), width), rnd(rng, k_real.sum(), width), rnd(rng, k_real.sum(), width)
    plan = make_plan(q_real, k_real, bias, classes, heads)
    keep, keeps = None, None
    if with_keep:
        keep = GeneratorDropout(7).mask((len(q_real), heads) + q_real.shape[1:] + k_real.shape[1:],
                                        0.3, np.dtype("float64"))
        keeps = [keep[np.asarray(c)][:, :, : cls.shape[1], : cls.shape[2]]
                 for c, cls in zip(classes, plan.classes)]
    reference = dict(q_real=q_real, k_real=k_real, bias=bias, heads=heads, keep=keep)
    return q, k, v, plan, keeps, reference


class TestRaggedAttention:
    """The per-class padded op against attention over the whole padded
    batch, in float64."""

    @pytest.mark.parametrize("name", ["self", "causal", "cross"])
    @pytest.mark.parametrize("with_keep", [False, True])
    def test_matches_padded_attention(self, name, with_keep):
        q, k, v, plan, keeps, ref = ragged_case(name, with_keep)
        g = Tensor(np.random.default_rng(9).standard_normal(q.shape))
        params = {"q": q, "k": k, "v": v}
        results = []
        for f in (lambda: ragged_attention(q, k, v, plan, 0.4, keeps),
                  lambda: padded_attention(q, k, v, scale=0.4, **ref)):
            with Tape() as tape:
                out = f()
                results.append((out.data, tape.gradients(reduce_sum(mul(out, g)), params)))
        (got, got_grads), (want, want_grads) = results
        assert got.shape == q.shape
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        for p in params:
            np.testing.assert_allclose(got_grads[p], want_grads[p], rtol=0, atol=1e-12, err_msg=p)

    def test_finite_differences(self):
        q, k, v, plan, keeps, _ = ragged_case("causal", True)
        w = Tensor(np.random.default_rng(10).standard_normal(q.shape))
        check(lambda: reduce_sum(mul(ragged_attention(q, k, v, plan, 0.4, keeps), w)),
              {"q": q, "k": k, "v": v})

    def test_is_one_tape_node(self):
        q, k, v, plan, keeps, _ = ragged_case("cross", True)
        with Tape() as tape:
            ragged_attention(q, k, v, plan, 0.4, keeps)
        assert len(tape._nodes) == 1


def composed_feed_forward(x, w1, b1, w2, b2, p, source):
    """The five tape nodes ``feed_forward`` replaced: matmul, bias add, ReLU,
    dropout at rate p (off when ``source`` is None), matmul plus bias add.
    The ReLU is x times the constant mask x > 0."""
    pre = add(matmul(x, w1), b1)
    h = mul(pre, (pre.data > 0).astype(pre.dtype))
    h = dropout(h, p, source is not None, source)
    return add(matmul(h, w2), b2)


class TestFeedForward:
    """The fused node against the composed ops it replaced, in float64."""

    def _params(self, lead):
        rng = np.random.default_rng(len(lead))
        return {"x": rnd(rng, *lead, 6), "w1": rnd(rng, 6, 10), "b1": rnd(rng, 10),
                "w2": rnd(rng, 10, 6), "b2": rnd(rng, 6)}

    @pytest.mark.parametrize("lead", [(7,), (3, 4)])
    @pytest.mark.parametrize("with_keep", [False, True])
    def test_matches_composed_ops(self, lead, with_keep):
        params = self._params(lead)
        g = Tensor(np.random.default_rng(8).standard_normal(lead + (6,)))
        source = (lambda: GeneratorDropout(5)) if with_keep else (lambda: None)
        # The keep mask comes from a generator in the state the composed
        # dropout's generator starts in: the same draws, the same mask.
        keep = keep_mask(lead + (10,), 0.3, with_keep, source(), np.dtype("float64"))
        results = []
        for f in (lambda: feed_forward(*params.values(), keep),
                  lambda: composed_feed_forward(*params.values(), 0.3, source())):
            with Tape() as tape:
                out = f()
                results.append((out.data, tape.gradients(reduce_sum(mul(out, g)), params)))
        (got, got_grads), (want, want_grads) = results
        assert got.shape == want.shape == lead + (6,)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        for name in params:
            np.testing.assert_allclose(got_grads[name], want_grads[name], rtol=0, atol=1e-12,
                                       err_msg=name)

    def test_finite_differences(self):
        params = self._params((3, 4))
        keep = GeneratorDropout(6).mask((3, 4, 10), 0.3, np.dtype("float64"))
        w = Tensor(np.random.default_rng(9).standard_normal((3, 4, 6)))
        check(lambda: reduce_sum(mul(feed_forward(*params.values(), keep), w)), params)

    def test_is_one_tape_node(self):
        params = self._params((5,))
        keep = GeneratorDropout(7).mask((5, 10), 0.3, np.dtype("float64"))
        with Tape() as tape:
            feed_forward(*params.values(), keep)
        assert len(tape._nodes) == 1

    def test_shape_mismatch_rejected(self):
        params = self._params((5,))
        with pytest.raises(ShapeError):
            feed_forward(params["x"], params["w1"], params["b1"], params["w1"], params["b2"])


class TestRowReductions:
    """The short-axis row sum and row max inside layer_norm and the softmax.

    Bit-exact causality needs each row's result to have the same bits
    whatever other rows share its array: a longer target prefix must not
    change an earlier position.  Row sums therefore run through einsum and
    never through BLAS (``x @ ones``): OpenBLAS picks its matrix-vector
    kernel by the number of rows, so the same row summed inside arrays of
    different lengths came out with different bits (on one thread, 16 to 19
    of the 36 prefixes of each of three random 37 x 64 float32 arrays
    differed from the full array in some row).
    """

    N = 40  # records; each has several rows

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("width", [1, 2, 5, 12, 16, 17, 64])
    @pytest.mark.parametrize("inner", [(6,), (2, 3)])
    def test_each_row_ignores_the_other_rows(self, dtype, width, inner):
        # N records of 6 rows each: 240 rows, above the halving threshold
        # of the row max, while short prefixes fall below it.
        assert self.N * 6 > tensor._HALVING_MIN_ROWS
        rng = np.random.default_rng(width)
        x = rng.standard_normal((self.N,) + inner + (width,)).astype(dtype)
        y = rng.standard_normal(x.shape).astype(dtype)
        reductions = [tensor._row_sum, lambda a: tensor._row_sum(a, y[: len(a)]), tensor._row_max]
        for reduce in reductions:
            full = reduce(x)
            assert full.shape == x.shape[:-1] + (1,) and full.dtype == dtype
            for k in range(1, self.N + 1):
                assert reduce(x[:k]).tobytes() == full[:k].tobytes(), k

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_row_sums_agree_with_numpy(self, dtype):
        rng = np.random.default_rng(3)
        x, y = rng.standard_normal((2, 300, 24)).astype(dtype)
        rtol = 1e-5 if dtype == np.float32 else 1e-12
        np.testing.assert_allclose(tensor._row_sum(x), x.sum(-1, keepdims=True),
                                   rtol=rtol, atol=rtol)
        np.testing.assert_allclose(tensor._row_sum(x, y), (x * y).sum(-1, keepdims=True),
                                   rtol=rtol, atol=rtol)

    @pytest.mark.parametrize("rows", [1, 7, tensor._HALVING_MIN_ROWS - 1,
                                      tensor._HALVING_MIN_ROWS, 1000])
    def test_row_max_equals_numpy_max(self, rows):
        rng = np.random.default_rng(rows)
        for width in range(1, 34):
            for shape in [(rows, width), (rows, 2, 1, width)]:
                x = rng.standard_normal(shape).astype(np.float32)
                x += np.where(rng.random(shape) < 0.4, np.float32(-1e9), np.float32(0))
                x[0] = -1e9  # a row with every key masked
                want = x.max(axis=-1, keepdims=True)
                got = tensor._row_max(x)
                assert got.shape == want.shape and got.dtype == want.dtype
                assert got.tobytes() == want.tobytes(), (shape, width)


class TestRowGathers:
    """take_rows and put_rows, the packed <-> padded moves of the model."""

    ROWS = np.array([0, 2, 3, 6])

    def test_finite_differences(self):
        rng = np.random.default_rng(0)
        x = rnd(rng, 7, 3)
        w = Tensor(rng.standard_normal((4, 3)))
        check(lambda: reduce_sum(mul(take_rows(x, self.ROWS), w)), {"x": x})
        packed = rnd(rng, 4, 3)
        w_full = Tensor(rng.standard_normal((7, 3)))
        check(lambda: reduce_sum(mul(put_rows(packed, self.ROWS, 7), w_full)), {"packed": packed})

    def test_each_inverts_the_other(self):
        rng = np.random.default_rng(1)
        packed = rng.standard_normal((4, 3))
        full = put_rows(Tensor(packed), self.ROWS, 7).data
        assert np.array_equal(take_rows(Tensor(full), self.ROWS).data, packed)
        assert not full[[1, 4, 5]].any()
        x = rng.standard_normal((7, 3))
        x[[1, 4, 5]] = 0.0
        assert np.array_equal(put_rows(take_rows(Tensor(x), self.ROWS), self.ROWS, 7).data, x)

    def test_each_is_one_tape_node(self):
        full, packed = Tensor(np.ones((7, 3))), Tensor(np.ones((4, 3)))
        for op in (lambda: take_rows(full, self.ROWS), lambda: put_rows(packed, self.ROWS, 7)):
            with Tape() as tape:
                op()
            assert len(tape._nodes) == 1


class TestEmbeddingBackward:
    """The sort-and-reduceat scatter against np.add.at, in float64."""

    @pytest.mark.parametrize("ids", [
        [3, 1, 3, 0, 1, 3],  # repeated and unsorted; row 2 unused
        [2, 2, 2, 2],  # all equal
        [1],  # single
        [[4, 0], [0, 4]],  # two-dimensional
    ])
    def test_matches_add_at(self, ids):
        ids = np.asarray(ids)
        rng = np.random.default_rng(ids.size)
        table = rnd(rng, 5, 3)
        g = rng.standard_normal(ids.shape + (3,))
        with Tape() as tape:
            out = embedding_lookup(table, ids)
            grad = tape.gradients(reduce_sum(mul(out, Tensor(g))), {"t": table})["t"]
        want = np.zeros((5, 3))
        np.add.at(want, ids.reshape(-1), g.reshape(-1, 3))
        np.testing.assert_allclose(grad, want, rtol=0, atol=1e-12)
        unused = np.setdiff1d(np.arange(5), ids)
        assert not grad[unused].any()


class TestWeightMatmul:
    @pytest.mark.parametrize("lead", [(6,), (3, 4), (2, 3, 2)])
    def test_flattened_gemm_matches_batched_reference(self, lead):
        rng = np.random.default_rng(len(lead))
        a = rnd(rng, *lead, 5)
        b = rnd(rng, 5, 7)
        g = rng.standard_normal(lead + (7,))
        with Tape() as tape:
            out = matmul(a, b)
            grads = tape.gradients(reduce_sum(mul(out, Tensor(g))), {"a": a, "b": b})
        np.testing.assert_allclose(out.data, np.einsum("...k,km->...m", a.data, b.data),
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(grads["a"], g @ b.data.T, rtol=0, atol=1e-12)
        stacked = np.swapaxes(a.data, -1, -2) @ g  # one (5, 7) product per leading index
        np.testing.assert_allclose(grads["b"], stacked.reshape(-1, 5, 7).sum(axis=0),
                                   rtol=0, atol=1e-12)


class TestCrossEntropyDtype:
    def test_float32_matches_float64(self):
        rng = np.random.default_rng(6)
        logits = rng.standard_normal((9, 40)) * 3
        targets = rng.integers(1, 40, size=9)
        targets[[2, 5]] = 0
        results = []
        for dtype in (np.float32, np.float64):
            x = Tensor(logits.astype(dtype))
            with Tape() as tape:
                kept = np.flatnonzero(targets != 0)
                loss = cross_entropy(take_rows(x, kept), targets[kept], label_smoothing=0.1)
                grads = tape.gradients(loss, {"x": x})
            results.append((float(loss.data), grads["x"]))
        (loss32, grad32), (loss64, grad64) = results
        assert grad32.dtype == np.float32
        np.testing.assert_allclose(loss32, loss64, rtol=1e-6)
        np.testing.assert_allclose(grad32, grad64, rtol=0, atol=1e-7)
        assert not grad32[[2, 5]].any()


class TestDropout:
    def test_identity_when_not_training(self):
        x = Tensor(np.ones((4, 4)))
        out = dropout(x, 0.5, train=False, source=GeneratorDropout(0))
        np.testing.assert_array_equal(out.data, x.data)

    def test_identity_at_zero_rate(self):
        x = Tensor(np.ones((4, 4)))
        out = dropout(x, 0.0, train=True, source=GeneratorDropout(0))
        np.testing.assert_array_equal(out.data, x.data)

    def test_requires_source_in_training(self):
        x = Tensor(np.ones(4))
        with pytest.raises(ValidationError):
            dropout(x, 0.5, train=True, source=None)

    def test_inverted_scaling_preserves_mean(self):
        x = Tensor(np.ones((400, 50)))
        out = dropout(x, 0.3, train=True, source=GeneratorDropout(1))
        kept = out.data[out.data > 0]
        np.testing.assert_allclose(kept, 1.0 / 0.7, rtol=1e-12)
        assert abs(out.data.mean() - 1.0) < 0.02

    def test_gradient_is_mask(self):
        x = Tensor(np.ones((50, 20)))
        with Tape() as tape:
            y = dropout(x, 0.4, train=True, source=GeneratorDropout(2))
            loss = reduce_sum(y)
            grads = tape.gradients(loss, {"x": x})
        zeros = y.data == 0
        np.testing.assert_array_equal(grads["x"][zeros], 0.0)
        np.testing.assert_allclose(grads["x"][~zeros], 1.0 / 0.6, rtol=1e-12)


    def test_masks_take_the_model_dtype_from_the_same_draws(self):
        m32 = GeneratorDropout((7, 3)).mask((40, 30), 0.25, np.dtype("float32"))
        m64 = GeneratorDropout((7, 3)).mask((40, 30), 0.25, np.dtype("float64"))
        assert m32.dtype == np.float32 and m64.dtype == np.float64
        np.testing.assert_array_equal(m32 > 0, m64 > 0)
        assert set(np.unique(m32)) == {0.0, np.float32(1 / 0.75)}

    def test_same_seed_and_step_reproduce_masks(self):
        def masks(key):
            source = GeneratorDropout(key)
            return [source.mask((8, 9), 0.5, np.dtype("float32")) for _ in range(3)]

        for a, b in zip(masks((11, 4)), masks((11, 4))):
            np.testing.assert_array_equal(a, b)
        assert any(not np.array_equal(a, b) for a, b in zip(masks((11, 4)), masks((11, 5))))
        assert any(not np.array_equal(a, b) for a, b in zip(masks((11, 4)), masks((12, 4))))


class TestDtypeDiscipline:
    def test_float32_graph_stays_float32(self):
        x = Tensor(np.ones((2, 3), dtype=np.float32))
        y = mul(add(x, 1.0), 0.5)
        assert y.data.dtype == np.float32

    def test_scalar_constants_adopt_operand_dtype(self):
        x = Tensor(np.ones(3, dtype=np.float32))
        assert add(x, 2.5).data.dtype == np.float32
        assert mul(x, 2.5).data.dtype == np.float32
