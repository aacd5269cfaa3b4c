"""Shipping acceptance suite: one test per release criterion.

Run ``pytest tests/test_acceptance.py -v`` to get one pass/fail line per
criterion.  Everything here runs on the built-in synthetic corpus at desk
scale in minutes; the hours-long full-scale end-to-end variant is included
but only runs when MEDSEQ_FULL_ACCEPTANCE=1 is set.  Every test here carries
the ``acceptance`` marker, so ``pytest -m "not acceptance"`` runs the rest
of the suite without them.
"""

import math
import os
import time
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

from medseq.decoding import (
    MAX_CODES,
    Prediction,
    beam_search,
    decode_tokens,
    predict_pairs,
    prediction_score,
    write_predictions,
)
from medseq.ensemble import consensus, ensemble_predict, greedy_select
from medseq.metrics import (
    bootstrap_ci,
    calibration_curve,
    f_from_counts,
    f_measure,
    micro_metrics,
    stratum_label,
)
from medseq.records import write_corpus
from medseq.synth import GeneratorConfig, build_default_lexicon, generate_corpus, split_corpus
from medseq.tensor import finite_diff_check
from medseq.textprep import (
    RESERVED_TOKENS,
    TokenizerModel,
    bpe_train,
    concat_backward,
    load_tokenizer,
    save_tokenizer,
)
from medseq.train import (
    TrainConfig,
    checkpoint_bytes,
    checkpoint_from_bytes,
    derived_batch_size,
    train,
)
from medseq.train import model_from_checkpoint
from medseq.transformer import ModelConfig, forward, init_model, sequence_loss

from test_decoding import _all_finished as exhaustive_hypotheses

pytestmark = pytest.mark.acceptance

FULL_SCALE = os.environ.get("MEDSEQ_FULL_ACCEPTANCE") == "1"


def _tiny_cfg(**overrides) -> ModelConfig:
    base = dict(
        src_vocab_size=13, tgt_vocab_size=11, hidden_size=8, n_layers_enc=2,
        n_layers_dec=2, n_heads=2, ffn_size=16, layer_postprocess_dropout=0.0,
        attention_dropout=0.0, relu_dropout=0.0, max_src_len=16, max_tgt_len=8,
        side_cardinalities=(3, 3, 2, 2), dtype="float64",
    )
    base.update(overrides)
    return ModelConfig(**base)


def _tiny_batch(cfg: ModelConfig, seed: int = 1):
    rng = np.random.default_rng(seed)
    src = rng.integers(4, cfg.src_vocab_size, size=(2, 5))
    src[:, -1] = 2
    side = np.stack([rng.integers(0, c, size=2) for c in cfg.side_cardinalities], axis=1)
    tgt = rng.integers(4, cfg.tgt_vocab_size, size=(2, 5))
    tgt[:, 0] = 1
    tgt[:, -1] = 2
    return src, side, tgt


def _pipeline(n_records: int, corpus_seed: int, val_py: int, test_py: int,
              steps_a: int, steps_bc: int, batch: int | None, val_limit: int):
    """Generate, split, tokenize and train three models; decode the test set."""
    t0 = time.time()
    lexicon = build_default_lexicon(seed=0)
    certs = generate_corpus(GeneratorConfig(n_records=n_records, seed=corpus_seed), lexicon)
    train_c, val_c, test_c = split_corpus(certs, per_year_val=val_py, per_year_test=test_py, seed=0)
    pairs_train = [concat_backward(c) for c in train_c]
    pairs_val = [concat_backward(c) for c in val_c]
    pairs_test = [concat_backward(c) for c in test_c]
    src_tok = bpe_train([p.source_text for p in pairs_train], 2033)
    tgt_tok = bpe_train(
        [" ".join(c.text for c in p.target_codes) for p in pairs_train], 500
    )

    ckpts = []
    for seed, steps in ((0, steps_a), (1, steps_bc), (2, steps_bc)):
        cfg = ModelConfig(src_vocab_size=src_tok.size, tgt_vocab_size=tgt_tok.size)
        model = init_model(cfg, seed=seed)
        result = train(
            model, pairs_train, pairs_val, src_tok, tgt_tok,
            TrainConfig(max_steps=steps, batch_size=batch, warmup_steps=400,
                        seed=seed, eval_every=200, val_limit=val_limit),
        )
        ckpts.append(result.checkpoint)
        if seed == 0:
            single = predict_pairs(
                model_from_checkpoint(result.checkpoint), src_tok, tgt_tok,
                pairs_test, beam_width=4, alpha=0.6,
            )
            single_seconds = time.time() - t0

    gold = [tuple(c.text for c in p.target_codes) for p in pairs_test]
    f_single = micro_metrics(list(zip((p.codes for p in single), gold))).f_measure

    ens_preds = ensemble_predict(ckpts, src_tok, tgt_tok, pairs_test, beam_width=4, alpha=0.6)
    f_ensemble = micro_metrics(list(zip((p.codes for p in ens_preds), gold))).f_measure
    selection = greedy_select(ckpts, src_tok, tgt_tok, pairs_val, beam_width=4, alpha=0.6)

    return SimpleNamespace(
        test_certs=test_c, single=single, gold=gold, f_single=f_single,
        f_ensemble=f_ensemble, selection=selection, single_seconds=single_seconds,
    )


@pytest.fixture(scope="module")
def e2e():
    """Bounded end-to-end variant: 2,000 records, three desk-config models."""
    return _pipeline(n_records=2000, corpus_seed=0, val_py=8, test_py=50,
                     steps_a=800, steps_bc=600, batch=128, val_limit=48)


def test_criterion_01_derived_batch_size_table():
    assert derived_batch_size(296) == 172
    assert derived_batch_size(336) == 152
    assert derived_batch_size(312) == 164


def test_criterion_02_micro_metric_oracle():
    def oracle_counts(pred, truth):
        # independent of the package's Counter-based path: sorted two-pointer walk
        p, t = sorted(pred), sorted(truth)
        i = j = tp = 0
        while i < len(p) and j < len(t):
            if p[i] == t[j]:
                tp += 1
                i += 1
                j += 1
            elif p[i] < t[j]:
                i += 1
            else:
                j += 1
        return tp, len(p) - tp, len(t) - tp

    rng = np.random.default_rng(2024)
    alphabet = ["A00", "B15", "C42", "I10", "I109", "J18", "W19", "Z99"]
    pairs = []
    tp = fp = fn = 0
    for _ in range(1000):
        pred = tuple(alphabet[k] for k in rng.integers(0, len(alphabet), rng.integers(0, 5)))
        truth = tuple(alphabet[k] for k in rng.integers(0, len(alphabet), rng.integers(0, 5)))
        pairs.append((pred, truth))
        a, b, c = oracle_counts(pred, truth)
        tp, fp, fn = tp + a, fp + b, fn + c
    report = micro_metrics(pairs)
    assert (report.tp, report.fp, report.fn) == (tp, fp, fn)
    assert report.f_measure == f_from_counts(tp, fp, fn)

    # published operating point: precision .872, recall .784 combine to F ~.826
    tp0 = 872 * 784
    f = f_from_counts(tp0, 784_000 - tp0, 872_000 - tp0)
    assert abs(f - 0.826) <= 0.002


def test_criterion_03_gradient_matches_finite_differences():
    cfg = _tiny_cfg()
    model = init_model(cfg, seed=0)
    src, side, tgt = _tiny_batch(cfg)
    t0 = time.time()
    result = finite_diff_check(
        lambda: sequence_loss(model, src, side, tgt),
        model.parameters, h=1e-4, max_coords_per_param=16, seed=0,
    )
    assert result.n_coords >= 500
    assert result.max_rel_error < 1e-4, result.worst_param
    assert time.time() - t0 < 300


def test_criterion_04_causality_and_side_conditioning():
    cfg = _tiny_cfg()
    model = init_model(cfg, seed=5)
    rng = np.random.default_rng(7)
    src = rng.integers(4, cfg.src_vocab_size, size=(2, 6))
    side = np.stack([rng.integers(0, c, size=2) for c in cfg.side_cardinalities], axis=1)
    tgt = rng.integers(4, cfg.tgt_vocab_size, size=(2, 7))
    tgt[:, 0] = 1
    base = forward(model, src, side, tgt).data

    v = cfg.tgt_vocab_size
    for _ in range(100):
        j = int(rng.integers(1, tgt.shape[1] - 1))
        perturbed = tgt.copy()
        shift = rng.integers(1, v - 4, size=perturbed[:, j + 1:].shape)
        perturbed[:, j + 1:] = 4 + (perturbed[:, j + 1:] - 4 + shift) % (v - 4)
        assert np.any(perturbed != tgt)
        out = forward(model, src, side, perturbed).data
        assert np.array_equal(out[:, : j + 1, :], base[:, : j + 1, :])

    side_b = np.stack(
        [(side[:, k] + 1) % c for k, c in enumerate(cfg.side_cardinalities)], axis=1
    )
    assert not np.array_equal(
        forward(model, src, side_b, tgt).data, base
    ), "side conditioning must be live before zeroing"
    for k in range(len(cfg.side_cardinalities)):
        model.parameters[f"side_embed_{k}"].data[...] = 0.0
    out_a = forward(model, src, side, tgt).data
    out_b = forward(model, src, side_b, tgt).data
    assert np.array_equal(out_a, out_b)


def test_criterion_05_overfit_32_pairs_to_perfect_f():
    t0 = time.time()
    lexicon = build_default_lexicon(seed=0)
    certs = generate_corpus(GeneratorConfig(n_records=60, seed=3), lexicon)[:32]
    pairs = [concat_backward(c) for c in certs]
    src_tok = bpe_train([p.source_text for p in pairs], 300)
    tgt_tok = bpe_train([" ".join(c.text for c in p.target_codes) for p in pairs], 200)
    cfg = ModelConfig(src_vocab_size=src_tok.size, tgt_vocab_size=tgt_tok.size)
    model = init_model(cfg, seed=0)
    result = train(
        model, pairs, pairs, src_tok, tgt_tok,
        TrainConfig(max_steps=2000, batch_size=32, warmup_steps=100, seed=0,
                    eval_every=100, early_stop_patience=2),
    )
    assert result.best_val_f == 1.0
    assert result.best_step <= 2000
    preds = predict_pairs(
        model_from_checkpoint(result.checkpoint), src_tok, tgt_tok, pairs,
        beam_width=1, alpha=0.6,
    )
    for pred, pair in zip(preds, pairs):
        assert Counter(pred.codes) == Counter(c.text for c in pair.target_codes)
    assert time.time() - t0 < 600


def test_criterion_06_end_to_end_bounded_variant(e2e):
    assert e2e.single_seconds <= 600
    assert e2e.f_single >= 0.70
    assert e2e.f_ensemble >= e2e.f_single - 0.001
    vals = [s.val_f for s in e2e.selection.log]
    assert vals == sorted(vals)


@pytest.mark.skipif(not FULL_SCALE, reason="multi-hour run; set MEDSEQ_FULL_ACCEPTANCE=1")
def test_criterion_06_end_to_end_full_scale():
    t0 = time.time()
    r = _pipeline(n_records=50_000, corpus_seed=0, val_py=50, test_py=50,
                  steps_a=5000, steps_bc=3000, batch=None, val_limit=100)
    assert r.f_single >= 0.90
    assert r.f_ensemble >= r.f_single - 0.001
    vals = [s.val_f for s in r.selection.log]
    assert vals == sorted(vals)
    assert time.time() - t0 <= 4 * 3600


def test_criterion_07_unreadable_marker_ablation(e2e):
    groups = {}
    for cert, pred, gold in zip(e2e.test_certs, e2e.single, e2e.gold):
        groups.setdefault(stratum_label(cert, "contains_bang"), []).append((pred.codes, gold))
    assert groups.get("paper_bang"), "test split must contain paper records with '!'"
    assert groups.get("paper_no_bang")
    f_bang = micro_metrics(groups["paper_bang"]).f_measure
    f_clean = micro_metrics(groups["paper_no_bang"]).f_measure
    assert f_clean - f_bang >= 0.02


def test_criterion_08_calibration_rejection_curve(e2e):
    curve = calibration_curve(
        [(p.codes, p.score, g) for p, g in zip(e2e.single, e2e.gold)]
    )
    assert len(curve.rows) == 101
    fractions = [r.fraction_rejected for r in curve.rows]
    assert all(a <= b for a, b in zip(fractions, fractions[1:]))
    assert any(
        r.fraction_rejected <= 0.30
        and r.f_accepted is not None
        and r.f_accepted >= e2e.f_single + 0.01
        for r in curve.rows
    )


def test_criterion_09_beam_equals_exhaustive_enumeration():
    reserved = {tok: i for i, tok in enumerate(RESERVED_TOKENS)}
    tok_minimal = TokenizerModel(merges=(), vocab=dict(reserved, **{"a</w>": 4}))
    tok_branchy = TokenizerModel(
        merges=(), vocab=dict(reserved, **{"a</w>": 4, "b</w>": 5, "c": 6})
    )
    assert tok_minimal.size == 5

    t0 = time.time()
    for draw in range(100):
        tok = tok_minimal if draw % 2 == 0 else tok_branchy
        cfg = _tiny_cfg(
            src_vocab_size=5, tgt_vocab_size=tok.size, n_layers_enc=1,
            n_layers_dec=1, max_src_len=8, max_tgt_len=4,
        )
        model = init_model(cfg, seed=draw)
        rng = np.random.default_rng(1000 + draw)
        src = rng.integers(4, 5, size=rng.integers(1, 5))
        side = np.array([rng.integers(0, c) for c in cfg.side_cardinalities])

        beam = beam_search(model, tok, src, side, beam_width=200, alpha=0.6)
        oracle = exhaustive_hypotheses(model, tok, src, side, 0.6, MAX_CODES)
        assert len(beam) == len(oracle)
        for got, (ids, logps) in zip(beam, oracle):
            text = decode_tokens(tok, list(ids[1:]))
            assert got.codes == (tuple(text.split()) if text else ())
            np.testing.assert_allclose(got.score, prediction_score(list(logps)), rtol=1e-9)
    assert time.time() - t0 < 60


def test_criterion_10_consensus_majority_and_permutation():
    t0 = time.time()
    rng = np.random.default_rng(99)
    alphabet = ["A00", "B15", "I10", "J18"]

    def random_codes():
        return tuple(alphabet[k] for k in rng.integers(0, len(alphabet), rng.integers(0, 4)))

    def random_candidates(n):
        return [
            Prediction(id="r", codes=random_codes(), score=float(rng.uniform(0.01, 1.0)))
            for _ in range(n)
        ]

    def mean_affinity(cands, i):
        others = [c for j, c in enumerate(cands) if j != i]
        return sum(f_measure(cands[i].codes, o.codes) for o in others) / len(others)

    tie_free = 0
    for _ in range(1000):
        n = int(rng.integers(3, 8))

        # On these seeded draws a strict majority of identical code multisets
        # attains the maximal mean pairwise F, and the winner differs from it
        # only on an exact affinity tie (ties break toward the lowest index).
        # That is not a property of the rule: a candidate sharing codes with
        # both the majority and the rest can score higher (see
        # test_ensemble.py::test_mixed_candidate_can_beat_a_strict_majority).
        majority_codes = random_codes()
        k = n // 2 + 1
        cands = random_candidates(n - k) + [
            Prediction(id="r", codes=majority_codes, score=float(rng.uniform(0.01, 1.0)))
            for _ in range(k)
        ]
        order = rng.permutation(n)
        cands = [cands[i] for i in order]
        means = [mean_affinity(cands, i) for i in range(n)]
        majority_mean = max(
            m for m, c in zip(means, cands) if Counter(c.codes) == Counter(majority_codes)
        )
        assert majority_mean >= max(means) - 1e-12
        winner = consensus(cands)
        if Counter(winner.codes) != Counter(majority_codes):
            winner_mean = max(
                m for m, c in zip(means, cands) if c.codes == winner.codes
            )
            assert math.isclose(winner_mean, majority_mean, rel_tol=0, abs_tol=1e-12)

        free = random_candidates(n)
        free_winner = consensus(free)
        shuffled = [free[i] for i in rng.permutation(n)]
        rewinner = consensus(shuffled)
        assert math.isclose(free_winner.score, rewinner.score, rel_tol=1e-12)
        ranked = sorted((mean_affinity(free, i) for i in range(n)), reverse=True)
        if ranked[0] - ranked[1] > 1e-9:
            tie_free += 1
            assert Counter(rewinner.codes) == Counter(free_winner.codes)
    assert tie_free >= 100

    hand1 = [
        Prediction(id="h", codes=("I10",), score=0.9),
        Prediction(id="h", codes=("I10",), score=0.8),
        Prediction(id="h", codes=("E119",), score=0.7),
    ]
    got1 = consensus(hand1)
    assert got1.codes == ("I10",)
    assert math.isclose(got1.score, 0.8)
    hand2 = [
        Prediction(id="h", codes=("A00", "B00"), score=0.6),
        Prediction(id="h", codes=("A00",), score=0.9),
        Prediction(id="h", codes=("B00",), score=0.9),
    ]
    got2 = consensus(hand2)
    assert got2.codes == ("A00", "B00")
    assert math.isclose(got2.score, 0.8)
    assert time.time() - t0 < 10


def test_criterion_11_reproducibility_and_roundtrips(tmp_path):
    from medseq.cli import main

    lexicon = build_default_lexicon(seed=0)
    gen_cfg = GeneratorConfig(n_records=40, seed=11)
    certs_a = generate_corpus(gen_cfg, lexicon)
    certs_b = generate_corpus(GeneratorConfig(n_records=40, seed=11), build_default_lexicon(seed=0))
    write_corpus(certs_a, tmp_path / "a.tsv")
    write_corpus(certs_b, tmp_path / "b.tsv")
    assert (tmp_path / "a.tsv").read_bytes() == (tmp_path / "b.tsv").read_bytes()

    pairs = [concat_backward(c) for c in certs_a]
    src_tok = bpe_train([p.source_text for p in pairs], 200)
    tgt_tok = bpe_train([" ".join(c.text for c in p.target_codes) for p in pairs], 120)

    save_tokenizer(src_tok, tmp_path / "src.tok")
    save_tokenizer(load_tokenizer(tmp_path / "src.tok"), tmp_path / "src2.tok")
    assert (tmp_path / "src.tok").read_bytes() == (tmp_path / "src2.tok").read_bytes()
    assert load_tokenizer(tmp_path / "src.tok") == src_tok

    def train_once():
        cfg = ModelConfig(src_vocab_size=src_tok.size, tgt_vocab_size=tgt_tok.size,
                          hidden_size=16, n_layers_enc=1, n_layers_dec=1,
                          n_heads=2, ffn_size=32, max_tgt_len=48)
        model = init_model(cfg, seed=0)
        result = train(
            model, pairs, pairs, src_tok, tgt_tok,
            TrainConfig(max_steps=20, batch_size=8, warmup_steps=10, seed=0,
                        eval_every=10),
        )
        return checkpoint_bytes(result.checkpoint)

    blob_a = train_once()
    blob_b = train_once()
    assert blob_a == blob_b
    assert checkpoint_bytes(checkpoint_from_bytes(blob_a)) == blob_a

    rng = np.random.default_rng(4)
    preds = []
    for cert, pair in zip(certs_a, pairs):
        codes = tuple(c.text for c in pair.target_codes)
        if rng.random() < 0.3 and codes:
            codes = codes[:-1]
        preds.append(Prediction(id=cert.id, codes=codes, score=float(rng.uniform(0.1, 1.0))))
    write_predictions(tmp_path / "preds.tsv", preds)
    for d in ("r1", "r2"):
        assert main([
            "evaluate", "--predictions", str(tmp_path / "preds.tsv"),
            "--corpus", str(tmp_path / "a.tsv"), "--out-dir", str(tmp_path / d),
            "--set", "eval.bootstrap_b=200",
        ]) == 0
        assert main([
            "calibrate", "--predictions", str(tmp_path / "preds.tsv"),
            "--corpus", str(tmp_path / "a.tsv"), "--out-dir", str(tmp_path / d),
        ]) == 0
    for name in ("report.txt", "report.kv", "strata.txt", "chapters.txt", "calibration.tsv"):
        assert (tmp_path / "r1" / name).read_bytes() == (tmp_path / "r2" / name).read_bytes()


def test_criterion_12_bootstrap_interval_behavior():
    constant = [(("A00",), ("A00",))] * 200
    for lo, hi in bootstrap_ci(constant, b=300, seed=0).values():
        assert lo == hi

    def noisy_pairs(n, rng):
        out = []
        for _ in range(n):
            truth = ("A00", "B15")
            pred = tuple(c if rng.random() < 0.8 else "Z99" for c in truth)
            out.append((pred, truth))
        return out

    rng = np.random.default_rng(12)
    small = bootstrap_ci(noisy_pairs(1000, rng), b=800, seed=0)["f_measure"]
    big = bootstrap_ci(noisy_pairs(4000, rng), b=800, seed=0)["f_measure"]
    ratio = (big[1] - big[0]) / (small[1] - small[0])
    assert 0.35 <= ratio <= 0.65
