"""Beam search, greedy decoding, confidence scores, prediction files.

The central guarantee: with a beam wide enough to hold every candidate,
beam search must return exactly the ranking an exhaustive enumeration of
all finished sequences produces, using the same finish rules and the same
length-normalized objective.
"""

import math
from pathlib import Path

import numpy as np
import pytest

from medseq import decoding, textprep
from medseq.decoding import (
    MAX_CODES,
    Prediction,
    beam_search,
    decode_batch,
    greedy_decode,
    length_penalty,
    pad_sources,
    predict_pairs,
    prediction_score,
    read_predictions,
    word_final_mask,
    write_predictions,
)
from medseq.errors import ValidationError
from medseq.synth import GeneratorConfig, build_default_lexicon, generate_corpus
from medseq.tensor import Tensor
from medseq.textprep import (
    BOS_ID,
    EOS_ID,
    PAD_ID,
    RESERVED_TOKENS,
    UNK_ID,
    TokenizerModel,
    bpe_train,
    concat_backward,
    encode,
    load_tokenizer,
    token_is_word_final,
)
from medseq.textprep import decode as decode_tokens
from medseq.train import encode_pairs, load_checkpoint, model_from_checkpoint, pad_batch, validation_f
from medseq.transformer import ModelConfig, forward, init_model

FIXTURE = Path(__file__).resolve().parent.parent / "perfbench" / "fixture"


class TestPrediction:
    def test_valid(self):
        p = Prediction(id="r1", codes=("I10", "E119"), score=0.5)
        assert p.codes == ("I10", "E119")

    @pytest.mark.parametrize("score", [0.0, -0.1, 1.5])
    def test_score_bounds(self, score):
        with pytest.raises(ValidationError):
            Prediction(id="r", codes=(), score=score)

    def test_code_budget(self):
        with pytest.raises(ValidationError):
            Prediction(id="r", codes=("I10",) * (MAX_CODES + 1), score=0.5)
        Prediction(id="r", codes=("I10",) * MAX_CODES, score=0.5)


class TestScores:
    def test_length_penalty_values(self):
        assert length_penalty(1, 0.6) == 1.0
        np.testing.assert_allclose(length_penalty(7, 1.0), 2.0)
        assert length_penalty(13, 0.0) == 1.0

    def test_prediction_score_is_geometric_mean(self):
        lp = math.log(0.5)
        np.testing.assert_allclose(prediction_score([lp, lp]), 0.5, rtol=1e-12)
        np.testing.assert_allclose(prediction_score([math.log(0.9), math.log(0.4)]),
                                   math.sqrt(0.36), rtol=1e-12)
        assert prediction_score([0.0]) == 1.0

    def test_empty_hypothesis_rejected(self):
        with pytest.raises(ValidationError):
            prediction_score([])


def _toy_setup(toy_data, toy_model):
    _, pairs, src_tok, tgt_tok = toy_data
    model, _ = toy_model
    enc = encode_pairs(pairs[:8], src_tok, tgt_tok, model.config)
    src, side, _ = pad_batch(enc)
    return model, tgt_tok, enc, src, side, pairs


class TestBeamBasics:
    def test_width_floor(self, toy_data, toy_model):
        model, tgt_tok, enc, src, side, _ = _toy_setup(toy_data, toy_model)
        with pytest.raises(ValidationError):
            beam_search(model, tgt_tok, src[0], side[0], beam_width=0)

    @pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
    def test_non_finite_alpha_rejected_before_any_work(self, toy_data, toy_model, monkeypatch, alpha):
        model, tgt_tok, enc, src, side, _ = _toy_setup(toy_data, toy_model)

        def no_work(*args):
            raise AssertionError("decode_batch encoded the batch before checking alpha")

        monkeypatch.setattr(decoding, "encode_source", no_work)
        with pytest.raises(ValidationError, match="alpha"):
            decode_batch(model, tgt_tok, src, side, beam_width=4, alpha=alpha)

    def test_returns_ranked_valid_predictions(self, toy_data, toy_model):
        model, tgt_tok, enc, src, side, _ = _toy_setup(toy_data, toy_model)
        ranked = beam_search(model, tgt_tok, src[0], side[0], beam_width=4, record_id="r0")
        assert 1 <= len(ranked) <= 4
        assert all(p.id == "r0" for p in ranked)
        assert all(0.0 < p.score <= 1.0 for p in ranked)

    def test_deterministic(self, toy_data, toy_model):
        model, tgt_tok, enc, src, side, _ = _toy_setup(toy_data, toy_model)
        a = beam_search(model, tgt_tok, src[1], side[1], beam_width=4)
        b = beam_search(model, tgt_tok, src[1], side[1], beam_width=4)
        assert a == b

    def test_beam_one_matches_greedy(self, toy_data, toy_model):
        model, tgt_tok, enc, src, side, _ = _toy_setup(toy_data, toy_model)
        greedy = greedy_decode(model, tgt_tok, src, side)
        for i in range(src.shape[0]):
            beam = beam_search(model, tgt_tok, src[i], side[i], beam_width=1)
            assert len(beam) == 1
            assert beam[0].codes == greedy[i].codes
            np.testing.assert_allclose(beam[0].score, greedy[i].score, rtol=1e-6)

    def test_max_codes_caps_output(self, toy_data, toy_model):
        model, tgt_tok, enc, src, side, _ = _toy_setup(toy_data, toy_model)
        for i in range(4):
            for p in beam_search(model, tgt_tok, src[i], side[i], beam_width=2, max_codes=1):
                assert len(p.codes) <= 1

    def test_predict_pairs_aligns_ids(self, toy_data, toy_model):
        _, all_pairs, src_tok, tgt_tok = toy_data
        model, _ = toy_model
        subset = all_pairs[:5]
        preds = predict_pairs(model, src_tok, tgt_tok, subset, beam_width=2)
        assert [p.id for p in preds] == [pair.id for pair in subset]

    def test_no_hypothesis_raises_validation_error(self, toy_data, toy_model):
        """NaN weights leave every record without a hypothesis; each decoding
        entry point names the record instead of failing on an empty list."""
        _, all_pairs, src_tok, _ = toy_data
        model, tgt_tok, enc, src, side, _ = _toy_setup(toy_data, toy_model)
        nan_model = init_model(model.config, seed=0)
        for name, p in nan_model.parameters.items():
            nan_model.parameters[name] = Tensor(np.full_like(p.data, np.nan))
        with pytest.raises(ValidationError, match="returned no hypothesis"):
            predict_pairs(nan_model, src_tok, tgt_tok, all_pairs[:4], beam_width=4)
        with pytest.raises(ValidationError, match="returned no hypothesis"):
            validation_f(nan_model, tgt_tok, enc)
        with pytest.raises(ValidationError, match=f"record {enc[0].id!r}"):
            greedy_decode(nan_model, tgt_tok, src, side, record_ids=[p.id for p in enc])


class TestBatchedDecoding:
    def test_padded_groups_match_single_records(self, toy_data, toy_model64, monkeypatch):
        self._check_groups(toy_data, toy_model64, monkeypatch, rows=12, beam_width=3)

    def test_beam_wider_than_row_budget_decodes_one_record_per_group(
        self, toy_data, toy_model64, monkeypatch
    ):
        self._check_groups(toy_data, toy_model64, monkeypatch, rows=2, beam_width=3)

    @staticmethod
    def _check_groups(toy_data, model, monkeypatch, rows, beam_width):
        """predict_pairs under a DECODE_ROWS of rows against one record at a
        time, and validation_f's groups under the same DECODE_ROWS."""
        _, all_pairs, src_tok, tgt_tok = toy_data
        # Longest source first, so that the length sort reorders every record
        # and the predictions must be put back in input order.
        pairs = sorted(all_pairs[:20], key=lambda p: -len(encode(src_tok, p.source_text)))
        monkeypatch.setattr(decoding, "DECODE_ROWS", rows)
        groups = []

        def spy(model, tokenizer, src_ids, *args, **kwargs):
            groups.append((src_ids != PAD_ID).sum(axis=1).tolist())
            return decode_batch(model, tokenizer, src_ids, *args, **kwargs)

        monkeypatch.setattr(decoding, "decode_batch", spy)
        preds = predict_pairs(model, src_tok, tgt_tok, pairs, beam_width=beam_width)
        n_predict = len(groups)
        val_batch = 5
        enc = encode_pairs(pairs, src_tok, tgt_tok, model.config)
        validation_f(model, tgt_tok, enc, batch_size=val_batch)
        monkeypatch.undo()
        for got, group_size in (
            (groups[:n_predict], max(1, rows // beam_width)),
            (groups[n_predict:], min(val_batch, rows)),
        ):
            assert len(got) > 1
            assert [len(g) for g in got] == [
                min(group_size, len(pairs) - start) for start in range(0, len(pairs), group_size)
            ]
            lengths = [n for g in got for n in g]
            assert lengths == sorted(lengths) and len(set(lengths)) > 3
            if group_size > 1:
                assert any(len(set(g)) > 1 for g in got)  # some group pads its shorter records

        assert [p.id for p in preds] == [pair.id for pair in pairs]
        for pair, got in zip(pairs, preds):
            src = np.array(encode(src_tok, pair.source_text))
            side = np.array(pair.side.as_tuple())
            want = beam_search(model, tgt_tok, src, side, beam_width=beam_width, record_id=pair.id)[0]
            assert got.codes == want.codes, pair.id
            np.testing.assert_allclose(got.score, want.score, rtol=1e-9, err_msg=pair.id)

    def test_pad_sources_fills_with_pad(self):
        src = pad_sources([(5, 6), (7,), (8, 9, 10)])
        assert src.dtype == np.int64
        assert src.tolist() == [[5, 6, PAD_ID], [7, PAD_ID, PAD_ID], [8, 9, 10]]
        assert pad_sources([(), ()]).tolist() == [[PAD_ID], [PAD_ID]]

    def test_word_final_mask_matches_tokenizer(self, toy_data):
        tgt_tok = toy_data[3]
        size = tgt_tok.size + 2  # ids past the vocabulary are not word-final
        mask = word_final_mask(tgt_tok, size)
        assert mask.tolist() == [token_is_word_final(tgt_tok, i) for i in range(size)]
        assert not mask[[PAD_ID, BOS_ID, EOS_ID, UNK_ID]].any()
        assert mask.any()

    def test_word_final_mask_is_built_once_per_tokenizer(self, toy_data, monkeypatch):
        tgt_tok = toy_data[3]
        tgt_tok = type(tgt_tok)(merges=tgt_tok.merges, vocab=tgt_tok.vocab)  # a fresh cache
        calls = []
        real = textprep.token_is_word_final
        monkeypatch.setattr(textprep, "token_is_word_final",
                            lambda tok, i: calls.append(i) or real(tok, i))
        first = word_final_mask(tgt_tok, tgt_tok.size)
        assert len(calls) == tgt_tok.size
        assert word_final_mask(tgt_tok, tgt_tok.size) is first
        assert len(calls) == tgt_tok.size
        assert not first.flags.writeable


class TestEarlyStop:
    @pytest.mark.parametrize("beam_width", [2, 4, 8])
    def test_batch_mates_stopping_apart_keep_full_ranking(
        self, toy_data, toy_model64, monkeypatch, beam_width
    ):
        """Records of one batch that stop at different steps each return the
        full ranked list they return when decoded alone."""
        _, pairs, src_tok, tgt_tok = toy_data
        model = toy_model64
        enc = encode_pairs(pairs[:12], src_tok, tgt_tok, model.config)
        src, side, _ = pad_batch(enc)
        live = []  # the records with a row in each step's batch
        real_step = decoding.decode_step

        def spy(model, cache, parents, tokens):
            logits = real_step(model, cache, parents, tokens)
            live.append(set(cache.record.tolist()))
            return logits

        monkeypatch.setattr(decoding, "decode_step", spy)
        ranked = decode_batch(
            model, tgt_tok, src, side, beam_width=beam_width, record_ids=[p.id for p in enc],
        )
        monkeypatch.undo()
        last_step = [max(t for t, rows in enumerate(live) if i in rows) for i in range(len(enc))]
        assert len(set(last_step)) > 1
        for pair, got in zip(enc, ranked):
            want = beam_search(
                model, tgt_tok, np.array(pair.src), np.array(pair.side),
                beam_width=beam_width, record_id=pair.id,
            )
            assert [p.codes for p in got] == [p.codes for p in want], pair.id
            np.testing.assert_allclose(
                [p.score for p in got], [p.score for p in want], rtol=1e-9, err_msg=pair.id
            )

    @pytest.mark.parametrize("alpha, width, script, want", [
        # After step 2 the third-best finished score equals the live "a a"
        # row's, and its EOS has log-probability 0: the finish ties and wins
        # the tie on token ids, so a tie must keep a record running.
        (0.0, 3, {(BOS_ID,): {EOS_ID: 0.0, 4: 0.0, 5: 0.0}, (BOS_ID, 4): {EOS_ID: 0.0, 4: 0.0},
                  (BOS_ID, 5): {EOS_ID: 0.0, 4: 0.0}, (BOS_ID, 4, 4): {EOS_ID: 0.0}},
         [(), ("a",), ("a", "a")]),
        # "a a" over the next step's penalty falls below the runner-up, but
        # probability-1 steps carry it to a longer prefix whose larger penalty
        # puts it above: the bound must take the largest penalty to come.
        (1.0, 2, {(BOS_ID,): {EOS_ID: 0.0, 4: 0.0}, (BOS_ID, 4): {EOS_ID: 0.0, 4: -0.25},
                  (BOS_ID, 4, 4): {4: 0.0}, (BOS_ID, 4, 4, 4): {4: 0.0},
                  (BOS_ID, 4, 4, 4, 4): {EOS_ID: 0.0}},
         [(), ("a",) * 4]),
    ])
    def test_scripted_search_at_the_stopping_bound(self, monkeypatch, alpha, width, script, want):
        """decode_step replaced by a script of logits for each token prefix;
        tokens a prefix does not list have logit -inf."""
        reserved = {t: i for i, t in enumerate(RESERVED_TOKENS)}
        tok = TokenizerModel(merges=(), vocab=dict(reserved, **{"a</w>": 4, "b</w>": 5, "c": 6}))
        cfg = ModelConfig(
            src_vocab_size=6, tgt_vocab_size=tok.size, hidden_size=8,
            n_layers_enc=1, n_layers_dec=1, n_heads=2, ffn_size=16,
            max_src_len=8, max_tgt_len=6, side_cardinalities=(3, 2), dtype="float64",
        )
        prefixes = []  # each step's token prefix of every row

        def scripted_step(model, cache, parents, tokens):
            prev = prefixes[-1] if prefixes else [()] * len(parents)
            rows = [prev[p] + (t,) for p, t in zip(parents.tolist(), tokens.tolist())]
            prefixes.append(rows)
            logits = np.full((len(rows), tok.size), -np.inf)
            for i, prefix in enumerate(rows):
                for t, value in script[prefix].items():
                    logits[i, t] = value
            return logits

        monkeypatch.setattr(decoding, "decode_step", scripted_step)
        got = beam_search(
            init_model(cfg, seed=0), tok, np.array([4, 5]), np.array([0, 1]),
            beam_width=width, alpha=alpha,
        )
        assert [p.codes for p in got] == want

    def test_fixture_beam_stops_before_the_token_budget(self, monkeypatch):
        """The benchmark's fixture model at width 4: a run to max_tgt_len
        makes max_tgt_len - 1 steps; stopping settled records makes fewer."""
        model = model_from_checkpoint(load_checkpoint(FIXTURE / "model.ckpt"))
        src_tok = load_tokenizer(FIXTURE / "src.tok")
        tgt_tok = load_tokenizer(FIXTURE / "tgt.tok")
        certs = generate_corpus(GeneratorConfig(n_records=12, seed=77), build_default_lexicon(77))
        enc = encode_pairs([concat_backward(c) for c in certs], src_tok, tgt_tok, model.config)
        src, side, _ = pad_batch(enc)
        calls = []
        real_step = decoding.decode_step
        monkeypatch.setattr(
            decoding, "decode_step", lambda *args: calls.append(1) or real_step(*args)
        )
        ranked = decode_batch(model, tgt_tok, src, side, beam_width=4)
        assert all(len(r) == 4 for r in ranked)
        assert len(calls) < model.config.max_tgt_len - 1


def _all_finished(model, tokenizer, src, side, alpha, max_codes):
    """Enumerate every finished sequence with the same stop rules the beam
    uses, scoring each step from a fresh forward pass over the prefix."""
    max_len = model.config.max_tgt_len
    vocab = model.config.tgt_vocab_size
    finished = []

    def next_logp(ids):
        arr = np.array([ids], dtype=np.int64)
        logits = forward(model, src[None, :], side[None, :], arr)
        last = logits.data[0, -1, :].astype(np.float64)
        shifted = last - last.max()
        logp = shifted - np.log(np.exp(shifted).sum())
        logp[PAD_ID] = -np.inf
        return logp

    def expand(ids, logps, n_codes):
        logp = next_logp(ids)
        for tok in range(vocab):
            if tok == PAD_ID:
                continue
            seq = ids + (tok,)
            lp = logps + (float(logp[tok]),)
            codes = n_codes + (1 if token_is_word_final(tokenizer, tok) else 0)
            if tok == EOS_ID or codes >= max_codes or len(seq) >= max_len:
                finished.append((seq, lp))
            else:
                expand(seq, lp, codes)

    expand((BOS_ID,), (), 0)
    penalized = lambda lp: sum(lp) / length_penalty(len(lp), alpha)
    finished.sort(key=lambda t: (-penalized(t[1]), t[0]))
    return finished


def _reference_beam(model, tokenizer, src, side, beam_width, alpha, max_codes):
    """The per-candidate loop the batched engine replaced: every step scores
    the full prefixes with forward and sorts all expansions by
    (-penalized score, token ids), until no hypothesis is live.  Returns the
    ranked predictions and the number of steps it ran."""
    max_len = model.config.max_tgt_len

    def penalized(logps):
        return sum(logps) / length_penalty(len(logps), alpha)

    active = [((BOS_ID,), (), 0)]
    finished = []
    steps = 0
    while active:
        steps += 1
        n = len(active)
        logits = forward(
            model, np.repeat(src[None, :], n, axis=0), np.repeat(side[None, :], n, axis=0),
            np.array([ids for ids, _, _ in active]),
        ).data[:, -1, :].astype(np.float64)
        shifted = logits - logits.max(axis=-1, keepdims=True)
        logp = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
        candidates = [
            (ids + (tok,), logps + (float(logp[i, tok]),),
             codes + int(token_is_word_final(tokenizer, tok)))
            for i, (ids, logps, codes) in enumerate(active)
            for tok in range(logp.shape[1])
            if tok != PAD_ID
        ]
        candidates.sort(key=lambda c: (-penalized(c[1]), c[0]))
        active = []
        for cand in candidates[:beam_width]:
            done = cand[0][-1] == EOS_ID or cand[2] >= max_codes or len(cand[0]) >= max_len
            (finished if done else active).append(cand)
    finished.sort(key=lambda c: (-penalized(c[1]), c[0]))
    out = []
    for ids, logps, _ in finished[:beam_width]:
        text = decode_tokens(tokenizer, list(ids[1:]))
        out.append(Prediction(id="", codes=tuple(text.split()), score=prediction_score(list(logps))))
    return out, steps


class TestBeamEqualsExhaustiveSearch:
    def test_wide_beam_reproduces_full_enumeration(self):
        tok = bpe_train(["a"], 7)
        assert tok.size <= 7
        cfg = ModelConfig(
            src_vocab_size=12, tgt_vocab_size=tok.size, hidden_size=8,
            n_layers_enc=1, n_layers_dec=1, n_heads=2, ffn_size=16,
            layer_postprocess_dropout=0.0, attention_dropout=0.0, relu_dropout=0.0,
            max_src_len=8, max_tgt_len=4, side_cardinalities=(3, 2), dtype="float64",
        )
        rng = np.random.default_rng(0)
        for draw in range(25):
            model = init_model(cfg, seed=100 + draw)
            src = rng.integers(4, cfg.src_vocab_size, size=3)
            side = np.array([rng.integers(0, 3), rng.integers(0, 2)])
            alpha = float(rng.choice([0.0, 0.6, 1.0]))
            max_codes = int(rng.choice([1, 2, 20]))
            oracle = _all_finished(model, tok, src, side, alpha, max_codes)
            ranked = beam_search(
                model, tok, src, side, beam_width=200, alpha=alpha, max_codes=max_codes,
            )
            assert len(ranked) == min(200, len(oracle))
            for got, (ids, logps) in zip(ranked, oracle):
                np.testing.assert_allclose(
                    got.score, prediction_score(list(logps)), rtol=1e-9,
                    err_msg=f"draw {draw}",
                )
            # top hypothesis must match on tokens too, not just score
            top_ids = oracle[0][0]
            from medseq.textprep import decode as decode_tokens

            expected = decode_tokens(tok, list(top_ids[1:]))
            assert ranked[0].codes == (tuple(expected.split()) if expected else ())

    def test_matches_reference_loop_with_exact_ties(self, monkeypatch):
        """Tokens 4 and 5 share an embedding row, so sequences that swap them
        tie exactly; at every width, including widths that cut between tied
        candidates, and at every length penalty, the engine ranks as the
        per-candidate reference loop run to completion, while stopping some
        searches in fewer steps."""
        reserved = {t: i for i, t in enumerate(RESERVED_TOKENS)}
        tok = TokenizerModel(merges=(), vocab=dict(reserved, **{"a</w>": 4, "b</w>": 5, "c": 6}))
        cfg = ModelConfig(
            src_vocab_size=6, tgt_vocab_size=tok.size, hidden_size=8,
            n_layers_enc=1, n_layers_dec=1, n_heads=2, ffn_size=16,
            layer_postprocess_dropout=0.0, attention_dropout=0.0, relu_dropout=0.0,
            max_src_len=8, max_tgt_len=5, side_cardinalities=(3, 2), dtype="float64",
        )
        calls = []
        real_step = decoding.decode_step
        monkeypatch.setattr(
            decoding, "decode_step", lambda *args: calls.append(1) or real_step(*args)
        )
        fewer = 0
        for seed in range(4):
            model = init_model(cfg, seed=seed)
            embed = model.parameters["tgt_embed"].data
            embed[5] = embed[4]
            src, side = np.array([4, 5, 4]), np.array([seed % 3, 1])
            for alpha in (-0.5, 0.0, 0.6, 1.0):
                for max_codes in (1, 2, 20):
                    for width in (1, 2, 3, 5, 8):
                        case = (seed, alpha, max_codes, width)
                        want, steps = _reference_beam(model, tok, src, side, width, alpha, max_codes)
                        calls.clear()
                        got = beam_search(
                            model, tok, src, side, beam_width=width, alpha=alpha, max_codes=max_codes,
                        )
                        assert [p.codes for p in got] == [p.codes for p in want], case
                        np.testing.assert_allclose(
                            [p.score for p in got], [p.score for p in want], rtol=1e-12,
                            err_msg=str(case),
                        )
                        assert len(calls) <= steps, case
                        fewer += len(calls) < steps
        assert fewer > 0


class TestPredictionFiles:
    def test_roundtrip(self, tmp_path):
        preds = [
            Prediction(id="a1", codes=("I10", "E119"), score=0.912345),
            Prediction(id="a2", codes=(), score=0.25),
            Prediction(id="a3", codes=("W19",), score=1.0),
        ]
        path = str(tmp_path / "p.tsv")
        write_predictions(path, preds)
        back = read_predictions(path)
        assert [p.id for p in back] == ["a1", "a2", "a3"]
        assert [p.codes for p in back] == [("I10", "E119"), (), ("W19",)]
        for orig, rt in zip(preds, back):
            assert abs(orig.score - rt.score) < 5e-7

    def test_six_decimal_format(self, tmp_path):
        path = str(tmp_path / "p.tsv")
        write_predictions(path, [Prediction(id="x", codes=("I10",), score=0.5)])
        with open(path) as fh:
            assert fh.read() == "x\tI10\t0.500000\n"

    def test_wrong_field_count_rejected(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("only\ttwo\n")
        with pytest.raises(ValidationError):
            read_predictions(str(path))

    def test_bad_score_rejected(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("r\tI10\tnot-a-number\n")
        with pytest.raises(ValidationError):
            read_predictions(str(path))

    def test_out_of_range_score_rejected_loudly(self, tmp_path):
        # A score below the 6-decimal resolution serializes as 0.000000 and
        # must fail validation on read rather than silently passing through.
        path = tmp_path / "zero.tsv"
        path.write_text("r\tI10\t0.000000\n")
        with pytest.raises(ValidationError, match=r"zero\.tsv: line 1: bad score '0\.000000'"):
            read_predictions(str(path))

    def test_blank_lines_and_crlf_tolerated(self, tmp_path):
        path = tmp_path / "p.tsv"
        path.write_bytes(b"a1\tI10\t0.500000\r\n\nb2\t\t0.250000\n")
        back = read_predictions(str(path))
        assert [p.id for p in back] == ["a1", "b2"]
        assert back[0].codes == ("I10",)
        assert back[1].codes == ()
