"""Shared fixtures: a small synthetic corpus and cheaply trained toy models."""

from __future__ import annotations

import dataclasses
import os

# One BLAS thread, set before numpy loads: training is deterministic only
# single-threaded, and the benchmark runs the same way.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np
import pytest

from medseq.synth import GeneratorConfig, build_default_lexicon, generate_corpus
from medseq.tensor import Tensor
from medseq.textprep import bpe_train, concat_backward
from medseq.train import TrainConfig, train
from medseq.transformer import ModelConfig, init_model


TOY_MODEL_CFG = dict(
    hidden_size=32,
    n_layers_enc=1,
    n_layers_dec=1,
    n_heads=2,
    ffn_size=64,
)


@pytest.fixture(scope="session")
def toy_data():
    """80 certificates plus tokenizers trained on them."""
    lexicon = build_default_lexicon(3)
    certs = generate_corpus(GeneratorConfig(n_records=80, seed=3), lexicon)
    pairs = [concat_backward(c) for c in certs]
    src_tok = bpe_train([p.source_text for p in pairs], 600)
    tgt_tok = bpe_train([" ".join(c.text for c in p.target_codes) for p in pairs], 500)
    return certs, pairs, src_tok, tgt_tok


@pytest.fixture(scope="session")
def toy_model(toy_data):
    """A small model trained enough to emit structured predictions."""
    _, pairs, src_tok, tgt_tok = toy_data
    cfg = ModelConfig(src_vocab_size=src_tok.size, tgt_vocab_size=tgt_tok.size, **TOY_MODEL_CFG)
    model = init_model(cfg, seed=0)
    tcfg = TrainConfig(max_steps=250, batch_size=32, warmup_steps=100, eval_every=0, log_every=250)
    result = train(model, pairs, pairs, src_tok, tgt_tok, tcfg)
    return model, result


@pytest.fixture(scope="session")
def toy_model64(toy_model):
    """The toy model's weights in float64, where decoding ties are rare."""
    model = toy_model[0]
    copy = init_model(dataclasses.replace(model.config, dtype="float64"), seed=0)
    for name, p in model.parameters.items():
        copy.parameters[name] = Tensor(p.data.astype(np.float64))
    return copy


@pytest.fixture(scope="session")
def toy_checkpoints(toy_data):
    """Three briefly trained models over the same data, different seeds."""
    _, pairs, src_tok, tgt_tok = toy_data
    cfg = ModelConfig(src_vocab_size=src_tok.size, tgt_vocab_size=tgt_tok.size, **TOY_MODEL_CFG)
    ckpts = []
    for seed in (0, 1, 2):
        model = init_model(cfg, seed=seed)
        tcfg = TrainConfig(
            max_steps=160, batch_size=32, warmup_steps=80,
            eval_every=0, log_every=160, seed=seed,
        )
        result = train(model, pairs, pairs, src_tok, tgt_tok, tcfg)
        ckpts.append(result.checkpoint)
    return ckpts
