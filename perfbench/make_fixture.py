"""Regenerate the decode fixture: a trained model and its two tokenizers.

Usage, from the repository root:

    python3 perfbench/make_fixture.py

Everything comes from fixed seeds (corpus 0, lexicon 0, model 0, 500 steps
at batch 128), so the output is the same on every run of the same code.
The checkpoint holds the parameters only (no Adam moments), in the v1
checkpoint format; SHA256SUMS pins each file, and the benchmark checks it
before loading.  Takes about three minutes on one core.
"""

from __future__ import annotations

import hashlib
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
FIXTURE = HERE / "fixture"
FILES = ("model.ckpt", "src.tok", "tgt.tok")

CORPUS_SEED = 0
LEXICON_SEED = 0
N_RECORDS = 2000
VAL_PER_YEAR, TEST_PER_YEAR = 8, 50
SRC_VOCAB, TGT_VOCAB = 2033, 500
STEPS = 500
BATCH = 128


def sha256_of(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def main() -> int:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"  # before numpy loads
    sys.path.insert(0, str(HERE.parent / "src"))
    import importlib

    from medseq import synth, textprep

    # The package rebinds the attribute medseq.train to the train function.
    train_mod = importlib.import_module("medseq.train")
    from medseq.transformer import ModelConfig, init_model

    certs = synth.generate_corpus(
        synth.GeneratorConfig(n_records=N_RECORDS, seed=CORPUS_SEED),
        synth.build_default_lexicon(LEXICON_SEED),
    )
    train_set, val_set, _test = synth.split_corpus(certs, VAL_PER_YEAR, TEST_PER_YEAR, seed=0)
    train_pairs = [textprep.concat_backward(c) for c in train_set]
    val_pairs = [textprep.concat_backward(c) for c in val_set]
    src_tok = textprep.bpe_train([p.source_text for p in train_pairs], SRC_VOCAB)
    tgt_tok = textprep.bpe_train(
        [" ".join(c.text for c in p.target_codes) for p in train_pairs], TGT_VOCAB
    )
    cfg = ModelConfig(src_vocab_size=src_tok.size, tgt_vocab_size=tgt_tok.size)
    model = init_model(cfg, seed=0)
    result = train_mod.train(
        model, train_pairs, val_pairs, src_tok, tgt_tok,
        train_mod.TrainConfig(max_steps=STEPS, batch_size=BATCH, seed=0,
                              eval_every=STEPS, log_every=50),
    )
    ckpt = train_mod.Checkpoint(
        model_config=cfg,
        params=result.checkpoint.params,
        opt_step=result.checkpoint.opt_step,
        src_tok_sha256=result.checkpoint.src_tok_sha256,
        tgt_tok_sha256=result.checkpoint.tgt_tok_sha256,
    )
    FIXTURE.mkdir(exist_ok=True)
    train_mod.save_checkpoint(ckpt, FIXTURE / "model.ckpt")
    textprep.save_tokenizer(src_tok, FIXTURE / "src.tok")
    textprep.save_tokenizer(tgt_tok, FIXTURE / "tgt.tok")
    sums = "".join(f"{sha256_of(FIXTURE / name)}  {name}\n" for name in FILES)
    (FIXTURE / "SHA256SUMS").write_text(sums, encoding="utf-8")
    print(f"validation F {result.best_val_f:.4f} after {STEPS} steps")
    print(sums, end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
