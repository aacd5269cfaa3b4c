"""Conditional encoder-decoder model: configuration, init, forward semantics.

Covers the structural contracts (parameter count, deterministic init,
shapes), the two conditioning guarantees (causal masking leaves earlier
logits bit-exact; zeroed side tables make side values irrelevant), loss
composition, and an end-to-end gradient check against finite differences.
"""

import itertools
import json

import numpy as np
import pytest

from medseq import transformer
from medseq.errors import ConfigError, ValidationError
from medseq.tensor import (
    GeneratorDropout,
    Tape,
    Tensor,
    add,
    attention,
    cross_entropy,
    dropout,
    embedding_lookup,
    finite_diff_check,
    layer_norm,
    matmul,
    mul,
    put_rows,
    reshape,
    take_rows,
    transpose,
)
from medseq.textprep import BOS_ID, EOS_ID, PAD_ID
from medseq.train import OptimizerState, adam_step, learning_rate, loss_and_grads
from medseq.transformer import (
    ModelConfig,
    decode_step,
    encode_source,
    forward,
    init_decoder_cache,
    init_model,
    param_count,
    sequence_loss,
    sinusoid_table,
)


def tiny_cfg(**overrides) -> ModelConfig:
    base = dict(
        src_vocab_size=13,
        tgt_vocab_size=11,
        hidden_size=8,
        n_layers_enc=1,
        n_layers_dec=1,
        n_heads=2,
        ffn_size=16,
        layer_postprocess_dropout=0.0,
        attention_dropout=0.0,
        relu_dropout=0.0,
        max_src_len=16,
        max_tgt_len=8,
        side_cardinalities=(3, 2, 2),
        dtype="float64",
    )
    base.update(overrides)
    return ModelConfig(**base)


def rand_batch(cfg, rng, batch=2, src_len=4, tgt_len=5):
    """Valid (src, side, tgt) arrays; tgt rows are BOS, body, EOS, PAD..."""
    src = rng.integers(4, cfg.src_vocab_size, size=(batch, src_len))
    side = np.stack(
        [rng.integers(0, card, size=batch) for card in cfg.side_cardinalities], axis=1
    )
    tgt = np.full((batch, tgt_len), PAD_ID, dtype=np.int64)
    tgt[:, 0] = BOS_ID
    for i in range(batch):
        n = int(rng.integers(1, tgt_len - 1))
        tgt[i, 1 : 1 + n] = rng.integers(4, cfg.tgt_vocab_size, size=n)
        tgt[i, 1 + n] = EOS_ID
    return src, side, tgt


class TestModelConfig:
    def test_defaults_valid(self):
        cfg = ModelConfig(src_vocab_size=100, tgt_vocab_size=50)
        assert cfg.hidden_size == 64
        assert cfg.side_cardinalities == (25, 6, 2, 2)

    def test_odd_hidden_rejected(self):
        with pytest.raises(ConfigError):
            tiny_cfg(hidden_size=7, n_heads=1)

    def test_heads_must_divide_hidden(self):
        with pytest.raises(ConfigError):
            tiny_cfg(hidden_size=8, n_heads=3)

    def test_dropout_range(self):
        with pytest.raises(ConfigError):
            tiny_cfg(attention_dropout=1.0)
        with pytest.raises(ConfigError):
            tiny_cfg(label_smoothing=-0.1)

    def test_vocab_floor(self):
        with pytest.raises(ConfigError):
            tiny_cfg(src_vocab_size=4)

    def test_side_cardinality_positive(self):
        with pytest.raises(ConfigError):
            tiny_cfg(side_cardinalities=(3, 0, 2))

    def test_max_lengths(self):
        with pytest.raises(ConfigError):
            tiny_cfg(max_tgt_len=1)

    def test_dtype_checked(self):
        with pytest.raises(ConfigError):
            tiny_cfg(dtype="float16")

    def test_dict_roundtrip_through_json(self):
        cfg = tiny_cfg()
        restored = ModelConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
        assert restored == cfg

    def test_from_dict_names_missing_and_unknown_keys(self):
        d = tiny_cfg().to_dict()
        d.pop("n_heads")
        d["n_head"] = 2
        with pytest.raises(ValidationError, match=r"missing keys \['n_heads'\], unknown keys \['n_head'\]"):
            ModelConfig.from_dict(d)

    def test_from_dict_rejects_wrong_value_types(self):
        for key, value in (("side_cardinalities", 3), ("hidden_size", "8")):
            d = tiny_cfg().to_dict()
            d[key] = value
            with pytest.raises(ValidationError):
                ModelConfig.from_dict(d)


class TestInit:
    @pytest.mark.parametrize(
        "cfg",
        [
            tiny_cfg(),
            tiny_cfg(
                hidden_size=16,
                n_layers_enc=2,
                n_layers_dec=3,
                n_heads=4,
                ffn_size=40,
                side_cardinalities=(25, 6, 2, 2),
            ),
        ],
    )
    def test_param_count_matches_parameters(self, cfg):
        model = init_model(cfg, seed=0)
        actual = sum(p.data.size for p in model.parameters.values())
        assert actual == param_count(cfg)

    def test_init_deterministic(self):
        a = init_model(tiny_cfg(), seed=5)
        b = init_model(tiny_cfg(), seed=5)
        assert a.parameters.keys() == b.parameters.keys()
        for name in a.parameters:
            assert np.array_equal(a.parameters[name].data, b.parameters[name].data)

    def test_seeds_differ(self):
        a = init_model(tiny_cfg(), seed=0)
        b = init_model(tiny_cfg(), seed=1)
        assert not np.array_equal(a.parameters["src_embed"].data, b.parameters["src_embed"].data)

    def test_norm_init_values(self):
        model = init_model(tiny_cfg(), seed=0)
        assert np.all(model.parameters["enc.final_norm.gain"].data == 1.0)
        assert np.all(model.parameters["enc.final_norm.bias"].data == 0.0)

    def test_parameter_dtype_follows_config(self):
        model32 = init_model(tiny_cfg(dtype="float32"), seed=0)
        assert all(p.data.dtype == np.float32 for p in model32.parameters.values())
        model64 = init_model(tiny_cfg(dtype="float64"), seed=0)
        assert all(p.data.dtype == np.float64 for p in model64.parameters.values())

    def test_sinusoid_values(self):
        table = sinusoid_table(10, 8, np.dtype("float64"))
        assert table.shape == (10, 8)
        np.testing.assert_allclose(table[0], [0.0, 1.0] * 4, atol=1e-15)
        np.testing.assert_allclose(table[:, 0], np.sin(np.arange(10.0)), atol=1e-15)
        assert np.abs(table).max() <= 1.0


class TestForwardShapes:
    def test_logit_shape(self):
        cfg = tiny_cfg()
        model = init_model(cfg, seed=0)
        rng = np.random.default_rng(0)
        src, side, tgt = rand_batch(cfg, rng, batch=3, src_len=5, tgt_len=5)
        logits = forward(model, src, side, tgt[:, :-1])
        assert logits.shape == (3, 4, cfg.tgt_vocab_size)
        assert logits.data.dtype == np.float64
        assert np.all(np.isfinite(logits.data))

    def test_encoder_memory_shape(self):
        cfg = tiny_cfg()
        model = init_model(cfg, seed=0)
        rng = np.random.default_rng(1)
        src, side, _ = rand_batch(cfg, rng, batch=2, src_len=6)
        src[1, 4:] = PAD_ID
        memory, packing, src_bias = encode_source(model, src, side)
        assert memory.shape == (10, cfg.hidden_size)  # one row per non-PAD position
        assert packing.slots.shape == (2, 6)
        assert src_bias.shape == (2, 1, 1, 6)

    def test_side_width_checked(self):
        cfg = tiny_cfg()
        model = init_model(cfg, seed=0)
        rng = np.random.default_rng(2)
        src, side, tgt = rand_batch(cfg, rng)
        with pytest.raises(ValidationError):
            forward(model, src, side[:, :2], tgt[:, :-1])

    def test_side_range_checked(self):
        cfg = tiny_cfg()
        model = init_model(cfg, seed=0)
        rng = np.random.default_rng(3)
        src, side, tgt = rand_batch(cfg, rng)
        bad = side.copy()
        bad[0, 0] = 99
        with pytest.raises(ValidationError):
            forward(model, src, bad, tgt[:, :-1])

    def test_source_rank_checked(self):
        cfg = tiny_cfg()
        model = init_model(cfg, seed=0)
        with pytest.raises(ValidationError):
            forward(model, np.array([5, 6, 7]), np.zeros((1, 3), dtype=np.int64),
                    np.array([[BOS_ID]]))

    def test_source_length_limit(self):
        cfg = tiny_cfg()
        model = init_model(cfg, seed=0)
        rng = np.random.default_rng(4)
        src, side, tgt = rand_batch(cfg, rng, src_len=cfg.max_src_len + 1)
        with pytest.raises(ValidationError):
            forward(model, src, side, tgt[:, :-1])

    def test_target_length_limit(self):
        cfg = tiny_cfg()
        model = init_model(cfg, seed=0)
        rng = np.random.default_rng(5)
        src, side, tgt = rand_batch(cfg, rng, tgt_len=cfg.max_tgt_len + 2)
        with pytest.raises(ValidationError):
            sequence_loss(model, src, side, tgt)

    def test_loss_needs_two_target_columns(self):
        cfg = tiny_cfg()
        model = init_model(cfg, seed=0)
        rng = np.random.default_rng(6)
        src, side, tgt = rand_batch(cfg, rng)
        with pytest.raises(ValidationError):
            sequence_loss(model, src, side, tgt[:, :1])

    def test_loss_rejects_empty_batch(self):
        cfg = tiny_cfg()
        model = init_model(cfg, seed=0)
        with pytest.raises(ValidationError):
            sequence_loss(
                model,
                np.zeros((0, 3), dtype=np.int64),
                np.zeros((0, 3), dtype=np.int64),
                np.zeros((0, 3), dtype=np.int64),
            )


class TestCausality:
    def test_future_perturbation_leaves_past_logits_bit_exact(self):
        cfg = tiny_cfg()
        model = init_model(cfg, seed=7)
        rng = np.random.default_rng(7)
        src, side, _ = rand_batch(cfg, rng, batch=2, src_len=5)
        for trial in range(10):
            tgt_in = rng.integers(1, cfg.tgt_vocab_size, size=(2, 6))
            base = forward(model, src, side, tgt_in).data
            j = int(rng.integers(1, 6))
            perturbed = tgt_in.copy()
            perturbed[:, j:] = rng.integers(0, cfg.tgt_vocab_size, size=(2, 6 - j))
            out = forward(model, src, side, perturbed).data
            assert np.array_equal(base[:, :j], out[:, :j]), f"trial {trial}, split {j}"

    def test_changing_future_does_change_future(self):
        cfg = tiny_cfg()
        model = init_model(cfg, seed=8)
        rng = np.random.default_rng(8)
        src, side, _ = rand_batch(cfg, rng, batch=1, src_len=4)
        tgt_in = np.array([[BOS_ID, 5, 6, 7]])
        other = np.array([[BOS_ID, 5, 9, 7]])
        a = forward(model, src, side, tgt_in).data
        b = forward(model, src, side, other).data
        assert not np.array_equal(a[:, 2:], b[:, 2:])


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


class TestCachedDecoderStep:
    def test_step_matches_teacher_forced_last_row(self):
        """Every step's log-probs equal forward's last row over the full
        prefix, for rows reordered, duplicated and dropped between steps."""
        cfg = tiny_cfg(n_layers_dec=2, max_tgt_len=7)
        model = init_model(cfg, seed=11)
        rng = np.random.default_rng(11)
        src, side, _ = rand_batch(cfg, rng, batch=3, src_len=6)
        src[0, 2:] = PAD_ID  # three source lengths in one padded batch
        src[1, 4:] = PAD_ID
        cache = init_decoder_cache(model, *encode_source(model, src, side))
        record = np.arange(3)
        prefixes = np.full((3, 1), BOS_ID)
        parents = np.arange(3)
        for step in range(cfg.max_tgt_len):
            logp = _log_softmax(decode_step(model, cache, parents, prefixes[:, -1]))
            expected = forward(model, src[record], side[record], prefixes).data[:, -1, :]
            np.testing.assert_allclose(logp, _log_softmax(expected), rtol=0, atol=1e-12,
                                       err_msg=f"step {step}")
            if step + 1 == cfg.max_tgt_len:
                break
            parents = rng.integers(0, len(record), size=int(rng.integers(2, 6)))
            record = record[parents]
            tokens = rng.integers(1, cfg.tgt_vocab_size, size=parents.size)
            prefixes = np.concatenate([prefixes[parents], tokens[:, None]], axis=1)
        with pytest.raises(ValidationError):
            decode_step(model, cache, np.arange(len(record)), prefixes[:, -1])

    def test_cross_keys_and_values_match_the_padded_memory(self):
        """The cache's cross K/V, laid out from the packed memory rows, are
        exactly 0 at PAD and elsewhere match K/V projected from the memory
        padded with zero rows: the composition they replaced."""
        cfg = tiny_cfg(n_layers_dec=2)
        model = init_model(cfg, seed=26)
        src, side, _ = rand_batch(cfg, np.random.default_rng(26), batch=3, src_len=5)
        src[0, 1:] = PAD_ID  # a source of length one
        src[1, 2] = PAD_ID  # a PAD between tokens
        memory, packing, src_bias = encode_source(model, src, side)
        cache = init_decoder_cache(model, memory, packing, src_bias)
        padded = reshape(put_rows(memory, packing.rows, src.size), src.shape + (cfg.hidden_size,))
        pad = src == PAD_ID
        for i, pair in enumerate(cache.cross):
            for w, got in zip(("wk", "wv"), pair):
                want = transformer._project(
                    model.parameters, f"dec{i}.cross_attn.{w}", padded, src.shape[1], cfg
                ).data
                assert got.shape == want.shape
                got, want = got.transpose(0, 2, 1, 3), want.transpose(0, 2, 1, 3)  # by position
                assert np.all(got[pad] == 0.0)
                np.testing.assert_allclose(got[~pad], want[~pad], rtol=0, atol=1e-12,
                                           err_msg=f"dec{i} {w}")


class TestSideConditioning:
    def test_zeroed_side_tables_make_side_irrelevant(self):
        cfg = tiny_cfg()
        model = init_model(cfg, seed=9)
        for name, p in model.parameters.items():
            if name.startswith("side_embed"):
                p.data[:] = 0.0
        rng = np.random.default_rng(9)
        src, side_a, tgt = rand_batch(cfg, rng, batch=2)
        side_b = np.stack(
            [(card - 1) - side_a[:, j] for j, card in enumerate(cfg.side_cardinalities)],
            axis=1,
        )
        assert not np.array_equal(side_a, side_b)
        out_a = forward(model, src, side_a, tgt[:, :-1]).data
        out_b = forward(model, src, side_b, tgt[:, :-1]).data
        assert np.array_equal(out_a, out_b)

    def test_side_change_moves_logits(self):
        cfg = tiny_cfg()
        model = init_model(cfg, seed=10)
        rng = np.random.default_rng(10)
        src, side, tgt = rand_batch(cfg, rng, batch=1)
        flipped = side.copy()
        flipped[0, 1] = 1 - flipped[0, 1]
        a = forward(model, src, side, tgt[:, :-1]).data
        b = forward(model, src, flipped, tgt[:, :-1]).data
        assert not np.array_equal(a, b)

    def test_side_shift_is_constant_offset_at_embedding(self):
        cfg = tiny_cfg()
        model = init_model(cfg, seed=11)
        rng = np.random.default_rng(11)
        src, side, _ = rand_batch(cfg, rng, batch=2, src_len=5)
        side_a = side.copy()
        side_b = side.copy()
        side_a[:, 2] = 0
        side_b[:, 2] = 1
        x_a = transformer._source_rows(model, src, side_a, False, None)[0].data
        x_b = transformer._source_rows(model, src, side_b, False, None)[0].data
        table = model.parameters["side_embed_2"].data
        expected = table[0] - table[1]
        diff = x_a - x_b
        assert diff.shape == (2 * 5, cfg.hidden_size)  # one row per source position
        for row in diff:
            np.testing.assert_allclose(row, expected, atol=1e-12)


class TestSequenceLoss:
    def test_near_uniform_logits_give_log_vocab(self):
        cfg = tiny_cfg()
        model = init_model(cfg, seed=12)
        for name, p in model.parameters.items():
            if not name.endswith(".gain"):
                p.data *= 1e-3
        rng = np.random.default_rng(12)
        src, side, tgt = rand_batch(cfg, rng, batch=4)
        loss = float(sequence_loss(model, src, side, tgt).data)
        expected = np.log(cfg.tgt_vocab_size)
        assert abs(loss - expected) < 0.05 * expected

    def test_matches_manual_composition(self):
        cfg = tiny_cfg()
        model = init_model(cfg, seed=13)
        rng = np.random.default_rng(13)
        src, side, tgt = rand_batch(cfg, rng, batch=3)
        manual = logits_loss(model, forward(model, src, side, tgt[:, :-1]), tgt)
        auto = sequence_loss(model, src, side, tgt)
        assert float(auto.data) == float(manual.data)

    @pytest.mark.parametrize("dropout", [0.0, 0.2])
    def test_rows_only_gradients_match_full_logits(self, dropout):
        """Projecting only the non-PAD rows gives the loss and gradients of
        cross-entropy over the full padded logits."""
        cfg = tiny_cfg(layer_postprocess_dropout=dropout, attention_dropout=dropout,
                       relu_dropout=dropout)
        model = init_model(cfg, seed=18)
        rng = np.random.default_rng(18)
        src, side, tgt = rand_batch(cfg, rng, batch=4, src_len=5, tgt_len=6)
        assert (tgt[:, 1:] == PAD_ID).any()

        def full_logits_loss():
            logits = forward(model, src, side, tgt[:, :-1], True, GeneratorDropout(5))
            return logits_loss(model, logits, tgt)

        results = []
        for f in (full_logits_loss,
                  lambda: sequence_loss(model, src, side, tgt, True, GeneratorDropout(5))):
            with Tape() as tape:
                loss = f()
                results.append((float(loss.data), tape.gradients(loss, model.parameters)))
        (full, full_grads), (rows, rows_grads) = results
        np.testing.assert_allclose(rows, full, rtol=1e-12)
        for name in full_grads:
            np.testing.assert_allclose(rows_grads[name], full_grads[name], rtol=0, atol=1e-12,
                                       err_msg=name)

    def test_batch_duplication_invariance(self):
        cfg = tiny_cfg()
        model = init_model(cfg, seed=14)
        rng = np.random.default_rng(14)
        src, side, tgt = rand_batch(cfg, rng, batch=1)
        single = float(sequence_loss(model, src, side, tgt).data)
        doubled = float(
            sequence_loss(
                model,
                np.concatenate([src, src]),
                np.concatenate([side, side]),
                np.concatenate([tgt, tgt]),
            ).data
        )
        np.testing.assert_allclose(doubled, single, rtol=1e-12)

    def test_loss_is_token_weighted_mean_over_rows(self):
        cfg = tiny_cfg()
        model = init_model(cfg, seed=15)
        rng = np.random.default_rng(15)
        src, side, tgt = rand_batch(cfg, rng, batch=2, tgt_len=6)
        n = [(row[1:] != PAD_ID).sum() for row in tgt]
        assert n[0] != n[1] or True  # rows may have different token counts
        losses = [
            float(sequence_loss(model, src[i : i + 1], side[i : i + 1], tgt[i : i + 1]).data)
            for i in range(2)
        ]
        combined = float(sequence_loss(model, src, side, tgt).data)
        expected = (n[0] * losses[0] + n[1] * losses[1]) / (n[0] + n[1])
        np.testing.assert_allclose(combined, expected, rtol=1e-12)


def composed_ffn(params, prefix, x, cfg, train, source):
    """The feed-forward sublayer as the five tape nodes that
    ``tensor.feed_forward`` replaced: matmul, bias add, ReLU (x times the
    constant mask x > 0), dropout, matmul plus bias add."""
    pre = add(matmul(x, params[f"{prefix}.w1"]), params[f"{prefix}.b1"])
    h = dropout(mul(pre, (pre.data > 0).astype(pre.dtype)), cfg.relu_dropout, train, source)
    return add(matmul(h, params[f"{prefix}.w2"]), params[f"{prefix}.b2"])


def padded_forward(model, src, side, tgt_in):
    """Logits of the stacks run in the padded (batch, len, h) layout, PAD
    positions computed like any other: the composition the packed rows
    replaced, kept as a reference.  No dropout."""
    cfg, p = model.config, model.parameters
    h, d = cfg.hidden_size, cfg.hidden_size // cfg.n_heads

    def norm(prefix, x):
        return layer_norm(x, p[f"{prefix}.gain"], p[f"{prefix}.bias"])

    def heads(x):
        return transpose(reshape(x, x.shape[:2] + (cfg.n_heads, d)), (0, 2, 1, 3))

    def attend(prefix, xq, xkv, bias):
        q = heads(matmul(xq, p[f"{prefix}.wq"]))
        k, v = (heads(matmul(xkv, p[f"{prefix}.{w}"])) for w in ("wk", "wv"))
        ctx = transpose(attention(q, k, v, bias, d ** -0.5), (0, 2, 1, 3))
        return matmul(reshape(ctx, xq.shape[:2] + (h,)), p[f"{prefix}.wo"])

    def ffn(prefix, x):
        return composed_ffn(p, prefix, x, cfg, False, None)

    def pad_bias(ids):
        return np.where(ids == PAD_ID, -1e9, 0.0)[:, None, None, :]

    x = mul(embedding_lookup(p["src_embed"], src), h ** 0.5)
    x = add(x, Tensor(model.pos_src[: src.shape[1]]))
    cond = embedding_lookup(p["side_embed_0"], side[:, 0])
    for j in range(1, side.shape[1]):
        cond = add(cond, embedding_lookup(p[f"side_embed_{j}"], side[:, j]))
    x = add(x, reshape(cond, (src.shape[0], 1, h)))
    for i in range(cfg.n_layers_enc):
        y = norm(f"enc{i}.attn_norm", x)
        x = add(x, attend(f"enc{i}.attn", y, y, pad_bias(src)))
        x = add(x, ffn(f"enc{i}.ffn", norm(f"enc{i}.ffn_norm", x)))
    memory = norm("enc.final_norm", x)
    t = tgt_in.shape[1]
    causal = np.triu(np.full((t, t), -1e9), k=1)[None, None]
    x = mul(embedding_lookup(p["tgt_embed"], tgt_in), h ** 0.5)
    x = add(x, Tensor(model.pos_tgt[:t]))
    for i in range(cfg.n_layers_dec):
        y = norm(f"dec{i}.self_norm", x)
        x = add(x, attend(f"dec{i}.self_attn", y, y, causal + pad_bias(tgt_in)))
        x = add(x, attend(f"dec{i}.cross_attn", norm(f"dec{i}.cross_norm", x), memory, pad_bias(src)))
        x = add(x, ffn(f"dec{i}.ffn", norm(f"dec{i}.ffn_norm", x)))
    return matmul(norm("dec.final_norm", x), transpose(p["tgt_embed"], (1, 0)))


def logits_loss(model, logits, tgt):
    """Cross-entropy of padded (batch, len, vocab) logits at the non-PAD
    targets of ``tgt``."""
    b, t, v = logits.shape
    targets = tgt[:, 1:].reshape(-1)
    kept = np.flatnonzero(targets != PAD_ID)
    return cross_entropy(take_rows(reshape(logits, (b * t, v)), kept), targets[kept],
                         label_smoothing=model.config.label_smoothing)


def packed_batches():
    """(src, side, tgt) batches with the PAD patterns the packing meets."""
    cfg = tiny_cfg()
    rng = np.random.default_rng(21)
    mixed = rand_batch(cfg, rng, batch=4, src_len=6, tgt_len=6)
    mixed[0][0, 2:] = PAD_ID
    mixed[0][2, 4:] = PAD_ID
    full = rand_batch(cfg, rng, batch=3, src_len=5, tgt_len=5)
    full[2][:, 1:-1] = rng.integers(4, cfg.tgt_vocab_size, size=(3, 3))
    full[2][:, -1] = EOS_ID
    assert (full[0] != PAD_ID).all() and (full[2] != PAD_ID).all()
    one = rand_batch(cfg, rng, batch=1, src_len=5, tgt_len=6)
    one[0][0, 3:] = PAD_ID
    short = rand_batch(cfg, rng, batch=3, src_len=5, tgt_len=6)
    short[0][1, 1:] = PAD_ID
    return [
        pytest.param(*mixed, id="mixed_lengths"),
        pytest.param(*full, id="no_pad"),
        pytest.param(*one, id="batch_of_one"),
        pytest.param(*short, id="source_of_length_one"),
    ]


class TestPackedRows:
    """The packed stacks against the padded reference, in float64."""

    @pytest.mark.parametrize("src,side,tgt", packed_batches())
    def test_loss_and_gradients_match_padded_reference(self, src, side, tgt):
        model = init_model(tiny_cfg(n_layers_enc=2, n_layers_dec=2), seed=21)
        runs = {
            "reference": lambda: logits_loss(model, padded_forward(model, src, side, tgt[:, :-1]), tgt),
            "forward": lambda: logits_loss(model, forward(model, src, side, tgt[:, :-1]), tgt),
            "sequence_loss": lambda: sequence_loss(model, src, side, tgt),
        }
        results = {}
        for key, f in runs.items():
            with Tape() as tape:
                loss = f()
                results[key] = (float(loss.data), tape.gradients(loss, model.parameters))
        ref_loss, ref_grads = results.pop("reference")
        for key, (loss, grads) in results.items():
            np.testing.assert_allclose(loss, ref_loss, rtol=0, atol=1e-12, err_msg=key)
            for pname, g in ref_grads.items():
                np.testing.assert_allclose(grads[pname], g, rtol=0, atol=1e-12,
                                           err_msg=f"{key}: {pname}")

    @pytest.mark.parametrize("src,side,tgt", packed_batches())
    def test_logits_match_at_non_pad_positions(self, src, side, tgt):
        model = init_model(tiny_cfg(), seed=22)
        tgt_in = tgt[:, :-1]
        got = forward(model, src, side, tgt_in).data
        want = padded_forward(model, src, side, tgt_in).data
        real = tgt_in != PAD_ID
        np.testing.assert_allclose(got[real], want[real], rtol=0, atol=1e-12)
        assert np.all(np.isfinite(got))

    def test_record_memory_does_not_depend_on_batch_mates(self):
        model = init_model(tiny_cfg(n_layers_enc=2), seed=23)
        rng = np.random.default_rng(23)
        src, side, _ = rand_batch(model.config, rng, batch=4, src_len=7)
        lengths = [7, 1, 4, 2]
        for i, n in enumerate(lengths):
            src[i, n:] = PAD_ID
        memory, packing, _ = encode_source(model, src, side)
        for i, n in enumerate(lengths):
            alone, _, _ = encode_source(model, src[i : i + 1, :n], side[i : i + 1])
            np.testing.assert_allclose(memory.data[packing.slots[i, :n]], alone.data,
                                       rtol=0, atol=1e-12)
            assert np.all(packing.slots[i, n:] == -1)  # PAD has no memory row

    def test_target_after_pad_rejected(self):
        model = init_model(tiny_cfg(), seed=24)
        src, side, tgt = rand_batch(model.config, np.random.default_rng(24), batch=1, tgt_len=5)
        tgt[0] = [BOS_ID, PAD_ID, 5, EOS_ID, PAD_ID]
        with pytest.raises(ValidationError):
            sequence_loss(model, src, side, tgt)


class TestDropoutStream:
    """The fused feed-forward node draws its mask where the composed ops
    drew theirs, so a training run keeps its dropout stream."""

    def test_masks_loss_and_gradients_match_the_composed_sublayer(self, monkeypatch):
        cfg = tiny_cfg(n_layers_enc=2, n_layers_dec=2, layer_postprocess_dropout=0.1,
                       attention_dropout=0.15, relu_dropout=0.2)
        model = init_model(cfg, seed=31)
        src, side, tgt = rand_batch(cfg, np.random.default_rng(31), batch=4, src_len=6, tgt_len=6)
        src[1, 3:] = PAD_ID
        draws = []
        mask = GeneratorDropout.mask

        def spy(self, shape, p, dtype):
            draws.append((tuple(shape), p))
            return mask(self, shape, p, dtype)

        monkeypatch.setattr(GeneratorDropout, "mask", spy)
        results = []
        for ffn in (transformer._ffn, composed_ffn):
            monkeypatch.setattr(transformer, "_ffn", ffn)
            draws.clear()
            with Tape() as tape:
                loss = sequence_loss(model, src, side, tgt, train=True, source=GeneratorDropout(3))
                grads = tape.gradients(loss, model.parameters)
            results.append((list(draws), float(loss.data), grads))
        (fused_draws, fused_loss, fused_grads), (ref_draws, ref_loss, ref_grads) = results
        assert fused_draws == ref_draws
        assert [p for _, p in fused_draws].count(cfg.relu_dropout) == 4  # one per ffn sublayer
        np.testing.assert_allclose(fused_loss, ref_loss, rtol=0, atol=1e-12)
        for name, g in ref_grads.items():
            np.testing.assert_allclose(fused_grads[name], g, rtol=0, atol=1e-12, err_msg=name)


def plan_cost(classes, q_ext, k_ext) -> int:
    """Score pairs the classes pad to: Σ size × longest query × longest key."""
    return sum(len(c) * q_ext[c].max() * k_ext[c].max() for c in classes)


def random_extents(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 40))
    q_ext = rng.integers(1, int(rng.integers(2, 12)), size=n)
    k_ext = q_ext if seed % 2 else rng.integers(1, int(rng.integers(2, 18)), size=n)
    return q_ext, k_ext


class TestAttentionPlan:
    """The length classes that ragged attention pads to."""

    @pytest.mark.parametrize("seed", range(12))
    def test_at_most_four_contiguous_classes_covering_every_record(self, seed):
        q_ext, k_ext = random_extents(seed)
        classes = transformer._classes(q_ext, k_ext)
        assert 1 <= len(classes) <= 4
        assert sorted(np.concatenate(classes).tolist()) == list(range(len(q_ext)))
        for a, b in zip(classes, classes[1:]):
            assert k_ext[a].max() < k_ext[b].min()  # contiguous in extent order

    @pytest.mark.parametrize("seed", range(12))
    def test_cost_is_least_over_contiguous_cuts(self, seed):
        q_ext, k_ext = random_extents(seed)
        cost = plan_cost(transformer._classes(q_ext, k_ext), q_ext, k_ext)
        assert cost <= plan_cost([np.arange(len(q_ext))], q_ext, k_ext)
        distinct = np.unique(k_ext)
        for n_cuts in range(min(3, len(distinct) - 1) + 1):
            for cuts in itertools.combinations(distinct[1:], n_cuts):
                edges = (distinct[0],) + cuts + (distinct[-1] + 1,)
                split = [np.flatnonzero((k_ext >= lo) & (k_ext < hi))
                         for lo, hi in zip(edges, edges[1:])]
                assert cost <= plan_cost(split, q_ext, k_ext)

    @pytest.mark.parametrize("seed", range(6))
    def test_permuting_records_permutes_classes(self, seed):
        q_ext, k_ext = random_extents(seed)
        perm = np.random.default_rng(seed + 100).permutation(len(q_ext))
        base = transformer._classes(q_ext, k_ext)
        permuted = transformer._classes(q_ext[perm], k_ext[perm])
        assert [sorted(perm[c].tolist()) for c in permuted] == [sorted(c.tolist()) for c in base]

    def test_attention_masks_cover_exactly_the_class_shapes(self, monkeypatch):
        cfg = tiny_cfg(n_layers_enc=2, n_layers_dec=2, attention_dropout=0.1)
        model = init_model(cfg, seed=25)
        src, side, tgt = rand_batch(cfg, np.random.default_rng(25), batch=6, src_len=7, tgt_len=7)
        for i, n in enumerate([7, 1, 3, 3, 5, 2]):
            src[i, n:] = PAD_ID
        shapes = []
        real_mask = GeneratorDropout.mask
        monkeypatch.setattr(GeneratorDropout, "mask",
                            lambda self, shape, p, dtype: shapes.append(shape)
                            or real_mask(self, shape, p, dtype))
        sequence_loss(model, src, side, tgt, train=True, source=GeneratorDropout(1))
        src_pack = transformer._Packing.of(src != PAD_ID)
        tgt_pack = transformer._Packing.of(tgt[:, :-1] != PAD_ID)
        bias = np.zeros((len(src), 1, 1, 7))
        per_layer = {
            name: sum(n * cfg.n_heads * t_q * t_k
                      for n, t_q, t_k in (c.shape for c in transformer._attention_plan(
                          q, k, bias, cfg).classes))
            for name, q, k in (("enc", src_pack, src_pack), ("self", tgt_pack, tgt_pack),
                               ("cross", tgt_pack, src_pack))
        }
        want = cfg.n_layers_enc * per_layer["enc"] + cfg.n_layers_dec * (
            per_layer["self"] + per_layer["cross"])
        assert sum(int(np.prod(s)) for s in shapes if len(s) == 4) == want
        padded = cfg.n_heads * len(src) * (7 * 7 * cfg.n_layers_enc + (6 * 6 + 6 * 7) * cfg.n_layers_dec)
        assert want < padded


class TestGradient:
    def test_full_model_matches_finite_differences(self):
        cfg = tiny_cfg()
        model = init_model(cfg, seed=17)
        rng = np.random.default_rng(17)
        src, side, tgt = rand_batch(cfg, rng, batch=2, src_len=4, tgt_len=5)
        tgt[1, 3:] = PAD_ID  # one short row exercises the ignore path
        tgt[1, 2] = EOS_ID
        result = finite_diff_check(
            lambda: sequence_loss(model, src, side, tgt),
            model.parameters,
            max_coords_per_param=4,
        )
        assert result.n_coords >= 100
        assert result.max_rel_error < 1e-4, result.worst_param


class TestConditioningLiveness:
    def test_training_learns_side_dependent_targets(self):
        """Two records with identical text but different side values must
        learn different codes — the conditioning path carries signal."""
        cfg = ModelConfig(
            src_vocab_size=12,
            tgt_vocab_size=12,
            hidden_size=32,
            n_layers_enc=1,
            n_layers_dec=1,
            n_heads=4,
            ffn_size=64,
            layer_postprocess_dropout=0.0,
            attention_dropout=0.0,
            relu_dropout=0.0,
            max_src_len=8,
            max_tgt_len=6,
            label_smoothing=0.0,
            dtype="float32",
        )
        model = init_model(cfg, seed=0)
        src = np.array([[5, 6, 7], [5, 6, 7]])
        side = np.array([[0, 0, 0, 0], [0, 5, 0, 0]])
        tgt = np.array([[BOS_ID, 5, EOS_ID], [BOS_ID, 6, EOS_ID]])
        state = OptimizerState.for_params(model.parameters)
        loss = float("inf")
        for step in range(1, 301):
            loss, grads = loss_and_grads(model, src, side, tgt)
            rate = learning_rate(step, cfg.hidden_size, factor=1.0, warmup=50)
            adam_step(model.parameters, grads, state, rate)
        assert loss < 0.05, f"failed to fit side-dependent pair, loss {loss:.4f}"
        dec_in = np.array([[BOS_ID], [BOS_ID]])
        logits = forward(model, src, side, dec_in).data
        first = logits[:, 0, :].argmax(axis=1)
        assert first[0] == 5 and first[1] == 6
