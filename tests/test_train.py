"""Optimizer, schedule, checkpoint container, training loop, random search."""

import hashlib
import importlib
import math
import struct
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from medseq import decoding
from medseq.errors import ConfigError, DivergenceError, ShapeError, ValidationError
from medseq.tensor import Tensor
from medseq import textprep
from medseq.textprep import BOS_ID, EOS_ID, PAD_ID, tokenizer_dumps, tokenizer_loads
from medseq.train import (
    Checkpoint,
    LogEntry,
    OptimizerState,
    SearchSpace,
    TrainConfig,
    adam_step,
    check_finite,
    checkpoint_bytes,
    checkpoint_from_bytes,
    checkpoint_sha256,
    derived_batch_size,
    encode_pairs,
    format_log,
    format_trial_table,
    learning_rate,
    load_checkpoint,
    loss_and_grads,
    model_from_checkpoint,
    pad_batch,
    random_search,
    sample_trials,
    save_checkpoint,
    train,
    validation_f,
)
from medseq.transformer import ModelConfig, init_model

from conftest import TOY_MODEL_CFG

train_module = importlib.import_module("medseq.train")  # medseq.train is the train function


class TestLearningRate:
    def test_published_operating_point(self):
        # factor 2.0, hidden 296, at step == warmup == 16000
        assert np.isclose(learning_rate(16000, 296, 2.0, 16000), 9.19e-4, rtol=1e-3)

    def test_peak_is_at_warmup(self):
        vals = [learning_rate(s, 64, 2.0, 400) for s in range(1, 1201)]
        assert int(np.argmax(vals)) + 1 == 400

    def test_linear_rise(self):
        lr100 = learning_rate(100, 64, 2.0, 400)
        lr200 = learning_rate(200, 64, 2.0, 400)
        np.testing.assert_allclose(lr200, 2 * lr100, rtol=1e-12)

    def test_inverse_sqrt_decay(self):
        peak = learning_rate(400, 64, 2.0, 400)
        np.testing.assert_allclose(learning_rate(1600, 64, 2.0, 400), peak / 2, rtol=1e-12)

    def test_monotone_rise_and_fall(self):
        vals = [learning_rate(s, 32, 1.0, 50) for s in range(1, 301)]
        assert all(a < b for a, b in zip(vals[:49], vals[1:50]))
        assert all(a > b for a, b in zip(vals[49:-1], vals[50:]))

    def test_step_floor(self):
        with pytest.raises(ValidationError):
            learning_rate(0, 64, 2.0, 400)


class TestDerivedBatchSize:
    @pytest.mark.parametrize("hidden,expected", [(296, 172), (336, 152), (312, 164), (512, 100)])
    def test_published_values(self, hidden, expected):
        assert derived_batch_size(hidden) == expected

    def test_non_increasing_in_hidden(self):
        sizes = [derived_batch_size(h) for h in range(8, 1024, 8)]
        assert all(a >= b for a, b in zip(sizes, sizes[1:]))

    def test_rejects_nonpositive(self):
        with pytest.raises(ConfigError):
            derived_batch_size(0)


class TestAdamStep:
    def test_first_steps_move_by_rate(self):
        # With constant gradient the bias-corrected update is ~rate * sign(g).
        params = {"x": Tensor(np.array([1.0]))}
        state = OptimizerState.for_params(params)
        adam_step(params, {"x": np.array([0.5])}, state, rate=0.1)
        assert abs(params["x"].data[0] - 0.9) < 1e-8
        adam_step(params, {"x": np.array([0.5])}, state, rate=0.1)
        assert abs(params["x"].data[0] - 0.8) < 1e-7
        assert state.step == 2

    def test_zero_gradient_is_identity(self):
        params = {"x": Tensor(np.array([1.25, -3.5]))}
        before = params["x"].data.copy()
        state = OptimizerState.for_params(params)
        adam_step(params, {"x": np.zeros(2)}, state, rate=0.1)
        assert np.array_equal(params["x"].data, before)
        assert state.step == 1

    def test_shape_mismatch_rejected(self):
        params = {"x": Tensor(np.zeros(3))}
        state = OptimizerState.for_params(params)
        with pytest.raises(ShapeError):
            adam_step(params, {"x": np.zeros(4)}, state, rate=0.1)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_same_bits_as_the_one_line_update(self, dtype):
        def reference_step(params, grads, state, rate):
            """The update as one expression per moment and one for the step."""
            state.step += 1
            bc1 = 1.0 - train_module.ADAM_BETA1 ** state.step
            bc2 = 1.0 - train_module.ADAM_BETA2 ** state.step
            for name, p in params.items():
                g, m, v = grads[name], state.m[name], state.v[name]
                m *= train_module.ADAM_BETA1
                m += (1.0 - train_module.ADAM_BETA1) * g
                v *= train_module.ADAM_BETA2
                v += (1.0 - train_module.ADAM_BETA2) * (g * g)
                p.data -= rate * (m / bc1) / (np.sqrt(v / bc2) + train_module.ADAM_EPS)

        rng = np.random.default_rng(4)
        init = {"w": rng.standard_normal((5, 3)), "b": rng.standard_normal(3)}
        runs = []
        for step_fn in (adam_step, reference_step):
            params = {k: Tensor(a.astype(dtype)) for k, a in init.items()}
            state = OptimizerState.for_params(params)
            grad_rng = np.random.default_rng(5)
            for step in range(1, 7):
                grads = {k: (grad_rng.standard_normal(a.shape) * 10.0 ** -step).astype(dtype)
                         for k, a in init.items()}
                step_fn(params, grads, state, learning_rate(step, 64, 2.0, 4))
            runs.append((params, state))
        (params, state), (ref_params, ref_state) = runs
        for k in init:
            assert params[k].data.dtype == dtype
            assert params[k].data.tobytes() == ref_params[k].data.tobytes(), k
            assert state.m[k].tobytes() == ref_state.m[k].tobytes(), k
            assert state.v[k].tobytes() == ref_state.v[k].tobytes(), k


class TestTrainConfig:
    @pytest.mark.parametrize(
        "kw",
        [
            dict(learning_rate_factor=-1.0),
            dict(warmup_steps=0),
            dict(max_steps=0),
            dict(batch_size=0),
            dict(early_stop_patience=-1),
            dict(eval_every=-1),
            dict(val_limit=0),
            dict(log_every=0),
        ],
    )
    def test_bounds(self, kw):
        with pytest.raises(ConfigError):
            TrainConfig(**kw)


def _small_checkpoint(dtype="float32", seed=4):
    cfg = ModelConfig(
        src_vocab_size=12, tgt_vocab_size=10, hidden_size=8, n_layers_enc=1,
        n_layers_dec=1, n_heads=2, ffn_size=16, side_cardinalities=(3, 2),
        max_src_len=8, max_tgt_len=4, dtype=dtype,
    )
    model = init_model(cfg, seed=seed)
    return Checkpoint(
        model_config=cfg,
        params={k: p.data.copy() for k, p in model.parameters.items()},
        opt_step=17,
        src_tok_sha256="a" * 64,
        tgt_tok_sha256="b" * 64,
        log_tail=("1\t5.0\t1.0e-04\t", "2\t4.0\t2.0e-04\t0.5"),
    )


FIXTURE_CKPT = Path(__file__).resolve().parent.parent / "perfbench" / "fixture" / "model.ckpt"


def _tensor_offset(body: bytes) -> int:
    """Offset of the tensor count in a checkpoint body (after magic, version, header)."""
    start = len(b"MEDSEQ-CKPT\n1\n")
    (header_len,) = struct.unpack_from("<I", body, start)
    return start + 4 + header_len


def _tensor_names(blob: bytes) -> list[str]:
    body = blob[:-32]
    pos = _tensor_offset(body)
    (count,) = struct.unpack_from("<I", body, pos)
    pos += 4
    names = []
    for _ in range(count):
        (name_len,) = struct.unpack_from("<H", body, pos)
        names.append(body[pos + 2 : pos + 2 + name_len].decode("utf-8"))
        pos += 2 + name_len + 2
        (ndim,) = struct.unpack_from("<B", body, pos)
        pos += 1 + 4 * ndim
        (nbytes,) = struct.unpack_from("<Q", body, pos)
        pos += 8 + nbytes
    assert pos == len(body)
    return names


def _with_tensors(blob: bytes, extra: dict[str, np.ndarray]) -> bytes:
    """``blob`` with the ``extra`` tensors written ahead of its own, the
    tensor count and the checksum recomputed."""
    body = blob[:-32]
    pos = _tensor_offset(body)
    (count,) = struct.unpack_from("<I", body, pos)
    records = []
    for name, arr in extra.items():
        nb = name.encode("utf-8")
        code = {"float32": b"f4", "float64": b"f8"}[arr.dtype.name]
        raw = arr.tobytes(order="C")
        records.append(
            struct.pack("<H", len(nb)) + nb + code + struct.pack("<B", arr.ndim)
            + b"".join(struct.pack("<I", d) for d in arr.shape)
            + struct.pack("<Q", len(raw)) + raw
        )
    body = body[:pos] + struct.pack("<I", count + len(extra)) + b"".join(records) + body[pos + 4 :]
    return body + hashlib.sha256(body).digest()


class TestCheckpoint:
    def test_fixture_reloads_byte_identically(self):
        blob = FIXTURE_CKPT.read_bytes()
        ckpt = load_checkpoint(str(FIXTURE_CKPT))
        assert ckpt.opt_step == 500
        assert checkpoint_bytes(ckpt) == blob

    def test_older_file_with_adam_moments_loads(self):
        ckpt = _small_checkpoint()
        blob = checkpoint_bytes(ckpt)
        rng = np.random.default_rng(0)
        extra = {}
        for kind in ("m", "v"):
            for name, arr in sorted(ckpt.params.items()):
                extra[f"adam.{kind}.{name}"] = rng.random(arr.shape).astype(arr.dtype)
        old = _with_tensors(blob, extra)
        assert len(_tensor_names(old)) == 3 * len(ckpt.params)
        back = checkpoint_from_bytes(old)
        assert back.params.keys() == ckpt.params.keys()
        for name, arr in ckpt.params.items():
            assert np.array_equal(back.params[name], arr)
        assert checkpoint_bytes(back) == blob

    def test_unknown_tensor_rejected(self):
        blob = _with_tensors(checkpoint_bytes(_small_checkpoint()), {"opt.x": np.zeros(2, np.float32)})
        with pytest.raises(ValidationError, match="unknown checkpoint tensor 'opt.x'"):
            checkpoint_from_bytes(blob)

    def test_bytes_roundtrip_is_byte_identical(self):
        ckpt = _small_checkpoint()
        blob = checkpoint_bytes(ckpt)
        again = checkpoint_bytes(checkpoint_from_bytes(blob))
        assert blob == again

    def test_fields_survive_roundtrip(self):
        ckpt = _small_checkpoint(dtype="float64")
        back = checkpoint_from_bytes(checkpoint_bytes(ckpt))
        assert back.model_config == ckpt.model_config
        assert back.opt_step == 17
        assert back.src_tok_sha256 == "a" * 64
        assert back.log_tail == ckpt.log_tail
        assert back.params.keys() == ckpt.params.keys()
        for name in ckpt.params:
            assert back.params[name].dtype == ckpt.params[name].dtype
            assert np.array_equal(back.params[name], ckpt.params[name])

    def test_file_roundtrip(self, tmp_path):
        ckpt = _small_checkpoint()
        path = str(tmp_path / "model.bin")
        save_checkpoint(ckpt, path)
        back = load_checkpoint(path)
        assert checkpoint_sha256(back) == checkpoint_sha256(ckpt)

    def test_file_error_names_path(self, tmp_path):
        path = tmp_path / "model.bin"
        path.write_bytes(checkpoint_bytes(_small_checkpoint())[:-1])
        with pytest.raises(ValidationError, match=r"model\.bin: checkpoint checksum mismatch"):
            load_checkpoint(str(path))

    def test_corrupted_byte_detected(self):
        blob = bytearray(checkpoint_bytes(_small_checkpoint()))
        blob[len(blob) // 2] ^= 0xFF
        with pytest.raises(ValidationError):
            checkpoint_from_bytes(bytes(blob))

    def test_truncation_detected(self):
        blob = checkpoint_bytes(_small_checkpoint())
        with pytest.raises(ValidationError):
            checkpoint_from_bytes(blob[: len(blob) // 2])

    def test_foreign_file_rejected(self):
        with pytest.raises(ValidationError):
            checkpoint_from_bytes(b"not a checkpoint at all" * 10)

    @pytest.mark.parametrize(
        "old,new",
        [
            (b"\nmodel.n_heads=", b"\nmodel.n_headz="),     # unknown and missing key
            (b"\nmodel.n_heads=", b"\nmodel.n_headsX="),    # header length now wrong
            (b"\noptimizer.step=17", b"\noptimizer.step=xx"),
        ],
    )
    def test_bad_header_under_valid_checksum_rejected(self, old, new):
        body = checkpoint_bytes(_small_checkpoint())[:-32]
        assert body.count(old) == 1
        body = body.replace(old, new)
        with pytest.raises(ValidationError):
            checkpoint_from_bytes(body + hashlib.sha256(body).digest())

    def test_sha_tracks_content(self):
        a = _small_checkpoint()
        b = _small_checkpoint()
        b.params["src_embed"] = b.params["src_embed"] + 1e-3
        assert checkpoint_sha256(a) != checkpoint_sha256(b)

    def test_model_from_checkpoint_restores_parameters(self):
        ckpt = _small_checkpoint()
        model = model_from_checkpoint(ckpt)
        assert model.config == ckpt.model_config
        for name, arr in ckpt.params.items():
            assert np.array_equal(model.parameters[name].data, arr)

    def test_model_from_checkpoint_checks_inventory(self):
        ckpt = _small_checkpoint()
        del ckpt.params["enc.final_norm.gain"]
        with pytest.raises(ValidationError):
            model_from_checkpoint(ckpt)


class TestBatching:
    def test_encode_pairs_frames_targets(self, toy_data):
        _, pairs, src_tok, tgt_tok = toy_data
        cfg = ModelConfig(src_vocab_size=src_tok.size, tgt_vocab_size=tgt_tok.size, **TOY_MODEL_CFG)
        enc = encode_pairs(pairs[:5], src_tok, tgt_tok, cfg)
        for pair, e in zip(pairs[:5], enc):
            assert e.id == pair.id
            assert e.tgt[0] == BOS_ID and e.tgt[-1] == EOS_ID
            assert PAD_ID not in e.tgt
            assert e.gold == tuple(c.text for c in pair.target_codes)
            assert len(e.side) == 4

    def test_pad_batch_shapes_and_fill(self, toy_data):
        _, pairs, src_tok, tgt_tok = toy_data
        cfg = ModelConfig(src_vocab_size=src_tok.size, tgt_vocab_size=tgt_tok.size, **TOY_MODEL_CFG)
        enc = encode_pairs(pairs[:6], src_tok, tgt_tok, cfg)
        src, side, tgt = pad_batch(enc)
        assert src.shape[0] == side.shape[0] == tgt.shape[0] == 6
        assert src.shape[1] == max(len(e.src) for e in enc)
        for i, e in enumerate(enc):
            assert tuple(src[i, : len(e.src)]) == e.src
            assert np.all(src[i, len(e.src) :] == PAD_ID)
            assert tuple(tgt[i, : len(e.tgt)]) == e.tgt
            assert np.all(tgt[i, len(e.tgt) :] == PAD_ID)

    def test_pad_batch_rejects_empty(self):
        with pytest.raises(ValidationError):
            pad_batch([])


class TestLossAndGrads:
    def _setup(self, dropout):
        cfg = ModelConfig(
            src_vocab_size=13, tgt_vocab_size=11, hidden_size=8, n_layers_enc=1,
            n_layers_dec=1, n_heads=2, ffn_size=16, side_cardinalities=(3, 2, 2),
            max_src_len=8, max_tgt_len=6, dtype="float64",
            layer_postprocess_dropout=dropout, attention_dropout=dropout, relu_dropout=dropout,
        )
        model = init_model(cfg, seed=20)
        rng = np.random.default_rng(20)
        src = rng.integers(4, 13, size=(4, 5))
        side = np.stack([rng.integers(0, c, size=4) for c in (3, 2, 2)], axis=1)
        tgt = np.full((4, 5), PAD_ID, dtype=np.int64)
        tgt[:, 0] = BOS_ID
        for i in range(4):
            n = 1 + i % 3
            tgt[i, 1 : 1 + n] = rng.integers(4, 11, size=n)
            tgt[i, 1 + n] = EOS_ID
        return model, src, side, tgt

    def test_dropout_stream_is_keyed_by_seed_and_step(self):
        model, src, side, tgt = self._setup(0.2)
        loss, grads = loss_and_grads(model, src, side, tgt, seed=7, step=3)
        again, grads_again = loss_and_grads(model, src, side, tgt, seed=7, step=3)
        assert loss == again
        for name in grads:
            np.testing.assert_array_equal(grads[name], grads_again[name])
        assert loss_and_grads(model, src, side, tgt, seed=7, step=4)[0] != loss
        assert loss_and_grads(model, src, side, tgt, seed=8, step=3)[0] != loss

    def test_all_pad_batch_rejected(self):
        model, src, side, tgt = self._setup(0.0)
        tgt[:, 1:] = PAD_ID
        with pytest.raises(ValidationError):
            loss_and_grads(model, src, side, tgt)


class TestTrainLoop:
    def test_loss_decreases(self, toy_model):
        _, result = toy_model
        assert result.log[0].step == 1
        assert result.log[-1].loss < result.log[0].loss

    def test_zero_factor_freezes_parameters(self, toy_data):
        _, pairs, src_tok, tgt_tok = toy_data
        cfg = ModelConfig(src_vocab_size=src_tok.size, tgt_vocab_size=tgt_tok.size, **TOY_MODEL_CFG)
        model = init_model(cfg, seed=1)
        before = {k: p.data.copy() for k, p in model.parameters.items()}
        tcfg = TrainConfig(learning_rate_factor=0.0, max_steps=5, batch_size=8, eval_every=0)
        train(model, pairs, [], src_tok, tgt_tok, tcfg)
        for name, arr in before.items():
            assert np.array_equal(model.parameters[name].data, arr), name

    def test_deterministic_given_seed(self, toy_data):
        _, pairs, src_tok, tgt_tok = toy_data
        cfg = ModelConfig(src_vocab_size=src_tok.size, tgt_vocab_size=tgt_tok.size, **TOY_MODEL_CFG)
        tcfg = TrainConfig(max_steps=20, batch_size=8, eval_every=10, seed=5, val_limit=10)
        shas = []
        for _ in range(2):
            model = init_model(cfg, seed=2)
            result = train(model, pairs, pairs, src_tok, tgt_tok, tcfg)
            shas.append(checkpoint_sha256(result.checkpoint))
        assert shas[0] == shas[1]

    def test_tokenizers_are_serialized_once_each(self, toy_data, monkeypatch):
        _, pairs, src_tok, tgt_tok = toy_data
        # Fresh copies: the session's tokenizers may already hold their digest.
        src_tok, tgt_tok = (tokenizer_loads(tokenizer_dumps(t)) for t in (src_tok, tgt_tok))
        calls = []

        def spy(model):
            calls.append(model)
            return tokenizer_dumps(model)

        monkeypatch.setattr(textprep, "tokenizer_dumps", spy)
        cfg = ModelConfig(src_vocab_size=src_tok.size, tgt_vocab_size=tgt_tok.size, **TOY_MODEL_CFG)
        tcfg = TrainConfig(max_steps=1, batch_size=8, eval_every=0)
        ckpts = [train(init_model(cfg, seed=4), pairs, [], src_tok, tgt_tok, tcfg).checkpoint
                 for _ in range(2)]
        assert len(calls) == 2 and {id(t) for t in calls} == {id(src_tok), id(tgt_tok)}
        for ckpt in ckpts:
            assert ckpt.src_tok_sha256 == hashlib.sha256(
                tokenizer_dumps(src_tok).encode("utf-8")).hexdigest()
            assert ckpt.tgt_tok_sha256 == hashlib.sha256(
                tokenizer_dumps(tgt_tok).encode("utf-8")).hexdigest()

    def test_divergence_detected(self, toy_data):
        _, pairs, src_tok, tgt_tok = toy_data
        cfg = ModelConfig(src_vocab_size=src_tok.size, tgt_vocab_size=tgt_tok.size, **TOY_MODEL_CFG)
        model = init_model(cfg, seed=3)
        model.parameters["src_embed"].data[:] = np.inf
        tcfg = TrainConfig(max_steps=5, batch_size=8, eval_every=0)
        with np.errstate(invalid="ignore"), pytest.raises(DivergenceError):
            train(model, pairs, [], src_tok, tgt_tok, tcfg)

    def test_nan_parameter_stops_before_the_first_update(self, toy_data):
        _, pairs, src_tok, tgt_tok = toy_data
        cfg = ModelConfig(src_vocab_size=src_tok.size, tgt_vocab_size=tgt_tok.size, **TOY_MODEL_CFG)
        model = init_model(cfg, seed=3)
        model.parameters["dec0.ffn.w1"].data[0, 0] = np.nan
        before = {k: p.data.copy() for k, p in model.parameters.items()}
        tcfg = TrainConfig(max_steps=5, batch_size=8, eval_every=0)
        with np.errstate(invalid="ignore"), pytest.raises(
            DivergenceError, match=r"non-finite gradient at step 1 .* worst [\w.]+: \d+ of \d+"
        ):
            train(model, pairs, [], src_tok, tgt_tok, tcfg)
        for name, arr in before.items():
            assert np.array_equal(model.parameters[name].data, arr, equal_nan=True), name

    def test_non_finite_gradient_fails_even_with_finite_loss(self):
        grads = {
            "enc0.attn.wq": np.zeros((2, 2)),
            "dec1.ffn.w1": np.array([[np.nan, 1.0], [np.inf, 0.0]]),
            "dec1.ffn.b1": np.array([np.nan, 0.0]),
            "src_embed": np.array([[np.inf, 0.0]]),
        }
        with pytest.raises(DivergenceError, match=r"step 12 .*in 2 parameter groups; worst dec1\.ffn: 3 of 6"):
            check_finite(12, 0.5, grads)
        with pytest.raises(DivergenceError, match="step 3"):
            check_finite(3, float("nan"), {"x": np.ones(2)})
        check_finite(3, 0.5, {"x": np.ones(2)})

    def test_early_stopping_with_flat_validation(self, toy_data):
        # factor 0 -> nothing improves, so patience expires deterministically
        _, pairs, src_tok, tgt_tok = toy_data
        cfg = ModelConfig(src_vocab_size=src_tok.size, tgt_vocab_size=tgt_tok.size, **TOY_MODEL_CFG)
        model = init_model(cfg, seed=4)
        tcfg = TrainConfig(
            learning_rate_factor=0.0, max_steps=1000, batch_size=8,
            eval_every=5, early_stop_patience=2, val_limit=5,
        )
        result = train(model, pairs, pairs[:5], src_tok, tgt_tok, tcfg)
        assert result.log[-1].step == 15
        assert result.best_step == 5

    def test_validation_does_not_pad_training_batches(self, toy_data, monkeypatch):
        """pad_batch builds the training batches alone: validation decodes
        its sources without padding targets."""
        _, pairs, src_tok, tgt_tok = toy_data
        cfg = ModelConfig(src_vocab_size=src_tok.size, tgt_vocab_size=tgt_tok.size, **TOY_MODEL_CFG)
        calls = []
        monkeypatch.setattr(train_module, "pad_batch", lambda batch: calls.append(1) or pad_batch(batch))
        tcfg = TrainConfig(max_steps=6, batch_size=8, eval_every=2, val_limit=5)
        result = train(init_model(cfg, seed=4), pairs, pairs, src_tok, tgt_tok, tcfg)
        assert [e.step for e in result.log if e.val_f is not None] == [2, 4, 6]
        assert len(calls) == tcfg.max_steps

    def test_checkpoint_holds_only_parameters(self, toy_model):
        model, result = toy_model
        names = _tensor_names(checkpoint_bytes(result.checkpoint))
        assert names == sorted(f"param.{name}" for name in model.parameters)

    def test_checkpoint_stores_tokenizer_identity(self, toy_model, toy_data):
        from medseq.textprep import tokenizer_fingerprint

        _, pairs, src_tok, tgt_tok = toy_data
        _, result = toy_model
        assert result.checkpoint.src_tok_sha256 == tokenizer_fingerprint(src_tok)
        assert result.checkpoint.tgt_tok_sha256 == tokenizer_fingerprint(tgt_tok)

    def test_empty_train_set_rejected(self, toy_data):
        _, pairs, src_tok, tgt_tok = toy_data
        cfg = ModelConfig(src_vocab_size=src_tok.size, tgt_vocab_size=tgt_tok.size, **TOY_MODEL_CFG)
        model = init_model(cfg, seed=0)
        with pytest.raises(ValidationError):
            train(model, [], pairs, src_tok, tgt_tok, TrainConfig())


class TestValidationF:
    def test_range_and_limit(self, toy_model, toy_data):
        _, pairs, src_tok, tgt_tok = toy_data
        model, _ = toy_model
        cfg = model.config
        enc = encode_pairs(pairs, src_tok, tgt_tok, cfg)
        f_all = validation_f(model, tgt_tok, enc, batch_size=32)
        f_few = validation_f(model, tgt_tok, enc, batch_size=32, limit=10)
        assert 0.0 <= f_all <= 1.0
        assert 0.0 <= f_few <= 1.0

    def test_empty_rejected(self, toy_model, toy_data):
        _, _, _, tgt_tok = toy_data
        model, _ = toy_model
        with pytest.raises(ValidationError):
            validation_f(model, tgt_tok, [], batch_size=8)

    def test_order_and_batch_size_do_not_move_f(self, toy_model64, toy_data):
        _, pairs, src_tok, tgt_tok = toy_data
        enc = encode_pairs(pairs, src_tok, tgt_tok, toy_model64.config)
        shuffled = [enc[i] for i in np.random.default_rng(0).permutation(len(enc))]
        f = validation_f(toy_model64, tgt_tok, enc, batch_size=32)
        assert 0.0 < f <= 1.0
        assert validation_f(toy_model64, tgt_tok, shuffled, batch_size=32) == f
        for batch_size in (1, 7, 256):
            assert validation_f(toy_model64, tgt_tok, enc, batch_size=batch_size) == f, batch_size

    def test_limit_scores_the_first_records(self, toy_model64, toy_data, monkeypatch):
        _, pairs, src_tok, tgt_tok = toy_data
        enc = encode_pairs(pairs, src_tok, tgt_tok, toy_model64.config)
        decoded = []
        decode_batch = decoding.decode_batch

        def spy(model, tokenizer, src, side, record_ids=None, **kwargs):
            decoded.extend(record_ids)
            return decode_batch(model, tokenizer, src, side, record_ids=record_ids, **kwargs)

        monkeypatch.setattr(decoding, "decode_batch", spy)
        f_few = validation_f(toy_model64, tgt_tok, enc, batch_size=4, limit=10)
        assert sorted(decoded) == sorted(p.id for p in enc[:10])
        by_id = {p.id: p for p in enc}
        assert [len(by_id[i].src) for i in decoded] == sorted(len(p.src) for p in enc[:10])
        monkeypatch.undo()
        assert f_few == validation_f(toy_model64, tgt_tok, enc[:10], batch_size=4)


class TestFormatLog:
    def test_lines(self):
        log = [
            LogEntry(step=1, loss=5.0, lr=1.25e-4),
            LogEntry(step=200, loss=2.5, lr=2.5e-4, val_f=0.8125),
        ]
        lines = format_log(log)
        assert lines[0] == "1\t5.000000\t1.25000000e-04\t"
        assert lines[1] == "200\t2.500000\t2.50000000e-04\t0.812500"


class TestSearch:
    def test_sample_trials_respects_bounds(self):
        space = SearchSpace(hidden_range=(16, 64), dropout_range=(0.05, 0.15), lr_factors=(1.0, 2.0), n_trials=25)
        trials = sample_trials(space, n_heads=4, seed=9)
        assert len(trials) == 25
        assert [t.index for t in trials] == list(range(25))
        for t in trials:
            assert 16 <= t.hidden_size <= 64 and t.hidden_size % 4 == 0
            assert t.lr_factor in (1.0, 2.0)
            for d in (t.layer_postprocess_dropout, t.attention_dropout, t.relu_dropout):
                assert 0.05 <= d <= 0.15
            assert t.batch_size == derived_batch_size(t.hidden_size)

    def test_sample_trials_deterministic(self):
        space = SearchSpace(hidden_range=(16, 64), n_trials=5)
        assert sample_trials(space, 4, seed=1) == sample_trials(space, 4, seed=1)
        assert sample_trials(space, 4, seed=1) != sample_trials(space, 4, seed=2)

    def test_odd_head_count_keeps_hidden_even(self):
        space = SearchSpace(hidden_range=(6, 60), n_trials=10)
        for t in sample_trials(space, n_heads=3, seed=0):
            assert t.hidden_size % 6 == 0  # even and divisible by 3 heads

    def test_no_usable_hidden_size(self):
        with pytest.raises(ConfigError):
            sample_trials(SearchSpace(hidden_range=(9, 11), n_trials=2), n_heads=8, seed=0)

    def test_space_validation(self):
        with pytest.raises(ConfigError):
            SearchSpace(hidden_range=(64, 16))
        with pytest.raises(ConfigError):
            SearchSpace(dropout_range=(0.5, 0.2))
        with pytest.raises(ConfigError):
            SearchSpace(n_trials=0)

    @pytest.mark.slow
    def test_random_search_ranks_by_validation_f(self, toy_data):
        _, pairs, src_tok, tgt_tok = toy_data
        template = ModelConfig(
            src_vocab_size=src_tok.size, tgt_vocab_size=tgt_tok.size,
            hidden_size=16, n_layers_enc=1, n_layers_dec=1, n_heads=2, ffn_size=64,
        )
        t_template = TrainConfig(max_steps=30, warmup_steps=10, eval_every=15, val_limit=8)
        space = SearchSpace(hidden_range=(8, 16), dropout_range=(0.0, 0.1), lr_factors=(1.0,), n_trials=2)
        results = random_search(space, template, t_template, pairs[:16], pairs[:8], src_tok, tgt_tok, seed=0)
        assert len(results) == 2
        assert results[0].val_f >= results[1].val_f
        for r in results:
            got = r.checkpoint.model_config
            assert got.hidden_size == r.spec.hidden_size
            assert got.ffn_size == 4 * r.spec.hidden_size
        table = format_trial_table(results)
        assert table.splitlines()[0].startswith("rank\ttrial")
        assert len(table.splitlines()) == 3

    def test_random_search_requires_validation(self, toy_data):
        _, pairs, src_tok, tgt_tok = toy_data
        template = ModelConfig(src_vocab_size=src_tok.size, tgt_vocab_size=tgt_tok.size, **TOY_MODEL_CFG)
        with pytest.raises(ValidationError):
            random_search(SearchSpace(n_trials=1), template, TrainConfig(), pairs, [], src_tok, tgt_tok, seed=0)
