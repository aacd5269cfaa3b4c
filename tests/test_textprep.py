"""Standardization, backward concatenation, and BPE tokenization."""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from medseq.errors import ValidationError
from medseq.records import Certificate, Icd10Code, SideVariables
from medseq.textprep import (
    BOS_ID,
    EOS_ID,
    PAD_ID,
    RESERVED_TOKENS,
    UNK_ID,
    WORD_END,
    TokenizerModel,
    _apply_merge,
    _word_symbols,
    bpe_train,
    concat_backward,
    decode,
    encode,
    load_tokenizer,
    save_tokenizer,
    standardize,
    token_is_word_final,
    tokenizer_dumps,
    tokenizer_fingerprint,
    tokenizer_loads,
)


class TestStandardize:
    def test_lowercase_and_collapse(self):
        assert standardize("HTA,  Insuffisance  Cardiaque") == "hta, insuffisance cardiaque"

    def test_fixed_point(self):
        assert standardize("abc") == "abc"

    def test_mixed_whitespace(self):
        assert standardize("A\t B\n C") == "a b c"

    def test_strips_ends(self):
        assert standardize("  x  ") == "x"

    @given(st.text(max_size=80))
    def test_idempotent(self, text):
        once = standardize(text)
        assert standardize(once) == once


def chain_certificate():
    """Six-line chain with line 5 unused and codes attached per line."""
    lines = (
        "stroke in september left hemiparesis",
        "fall scalp laceration fracture humerus",
        "coronary artery disease",
        "acute intracranial hemorrhage",
        None,
        "Dementia depression hypertension",
    )
    codes = (
        ("I64", "G819"),
        ("S010", "W19", "S423"),
        ("I251",),
        ("I629",),
        (),
        ("F03", "F329", "I10"),
    )
    return Certificate(
        id="chain",
        lines=lines,
        side=SideVariables(gender=1, year=0, age_bucket=20, origin=0),
        gold_code_lines=tuple(tuple(Icd10Code(c) for c in cs) for cs in codes),
        raw_age_days=33000,
    )


class TestConcatBackward:
    def test_six_line_chain(self):
        pair = concat_backward(chain_certificate())
        assert pair.source_text == (
            "dementia depression hypertension, acute intracranial hemorrhage, "
            "coronary artery disease, fall scalp laceration fracture humerus, "
            "stroke in september left hemiparesis"
        )
        assert tuple(c.text for c in pair.target_codes) == (
            "F03", "F329", "I10", "I629", "I251", "S010", "W19", "S423", "I64", "G819",
        )

    def test_single_line(self):
        cert = Certificate(
            id="one",
            lines=("Pneumonia", None, None, None, None, None),
            side=SideVariables(0, 0, 0, 0),
            gold_code_lines=((Icd10Code("J189"),), (), (), (), (), ()),
        )
        pair = concat_backward(cert)
        assert pair.source_text == "pneumonia"
        assert tuple(c.text for c in pair.target_codes) == ("J189",)

    def test_carries_id_and_side(self):
        cert = chain_certificate()
        pair = concat_backward(cert)
        assert pair.id == cert.id and pair.side == cert.side


class TestBpeTrain:
    def test_first_merge_by_frequency(self):
        model = bpe_train(["aaab", "aaab", "ab"], target_vocab_size=8)
        assert model.merges[0] == ("a", "a")

    def test_reserved_ids(self):
        model = bpe_train(["ab"], target_vocab_size=8)
        assert (PAD_ID, BOS_ID, EOS_ID, UNK_ID) == (0, 1, 2, 3)
        assert model.size >= 4
        ids = sorted(model.vocab.values())
        assert ids == list(range(model.size))

    def test_exhaustion_flag(self):
        model = bpe_train(["ab ba"], target_vocab_size=400)
        assert model.exhausted
        assert model.size < 400

    def test_vocab_too_small_rejected(self):
        from medseq.errors import ConfigError

        with pytest.raises(ConfigError):
            bpe_train(["abcdefgh"], target_vocab_size=5)

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValidationError):
            bpe_train([], target_vocab_size=10)

    def test_deterministic(self):
        corpus = ["hta avc", "avc hta", "insuffisance cardiaque"]
        a = bpe_train(corpus, 40)
        b = bpe_train(corpus, 40)
        assert a.merges == b.merges and a.vocab == b.vocab


def _reference_bpe_train(corpus: list[str], target_vocab_size: int) -> TokenizerModel:
    """Full recount per merge: every pair of every word, then every word rebuilt."""
    raw_freqs = Counter(word for line in corpus for word in line.split())
    alphabet = sorted({ch for word in raw_freqs for ch in word} | {WORD_END})
    vocab = {tok: i for i, tok in enumerate(RESERVED_TOKENS)}
    for sym in alphabet:
        vocab[sym] = len(vocab)
    word_freqs = {_word_symbols(w): f for w, f in raw_freqs.items()}
    merges = []
    exhausted = False
    while len(vocab) < target_vocab_size:
        counts = Counter()
        for symbols, freq in word_freqs.items():
            for a, b in zip(symbols, symbols[1:]):
                counts[(a, b)] += freq
        best_freq = max(counts.values()) if counts else 0
        if best_freq < 2:
            exhausted = True
            break
        best = min(pair for pair, freq in counts.items() if freq == best_freq)
        merges.append(best)
        word_freqs = {_apply_merge(sym, best): f for sym, f in word_freqs.items()}
        merged = best[0] + best[1]
        if merged not in vocab:
            vocab[merged] = len(vocab)
    return TokenizerModel(merges=tuple(merges), vocab=vocab, exhausted=exhausted)


class TestIncrementalMatchesReference:
    """The incremental trainer gives the same tokenizer file as a full recount."""

    @settings(max_examples=300, deadline=None)
    @given(
        data=st.sampled_from(["abc", "abcd"]).flatmap(
            lambda alphabet: st.lists(
                st.lists(st.text(alphabet=alphabet, min_size=1, max_size=9), max_size=6),
                min_size=1, max_size=8,
            )
        ),
        extra=st.integers(min_value=1, max_value=40),
    )
    def test_random_small_alphabet_corpora(self, data, extra):
        corpus = [" ".join(words) for words in data]
        if not any(corpus):
            return
        base = len(RESERVED_TOKENS) + len({ch for line in corpus for ch in line if ch != " "}) + 1
        expected = _reference_bpe_train(corpus, base + extra)
        assert tokenizer_dumps(bpe_train(corpus, base + extra)) == tokenizer_dumps(expected)

    @pytest.mark.parametrize("corpus", [
        ["aaaa aaaa aaa", "aa aaaaa"],
        ["abab abab baba", "ab ba ab"],
        ["abc bca cab abc", "cba"],
    ])
    def test_overlaps_and_ties_on_both_sides_of_exhaustion(self, corpus):
        runs = [(bpe_train(corpus, v), _reference_bpe_train(corpus, v)) for v in range(9, 40)]
        assert any(ref.exhausted for _, ref in runs) and not all(ref.exhausted for _, ref in runs)
        for model, ref in runs:
            assert tokenizer_dumps(model) == tokenizer_dumps(ref)

    def test_toy_corpus(self, toy_data):
        _, pairs, src_tok, tgt_tok = toy_data
        src = _reference_bpe_train([p.source_text for p in pairs], 600)
        tgt = _reference_bpe_train([" ".join(c.text for c in p.target_codes) for p in pairs], 500)
        assert tokenizer_dumps(src_tok) == tokenizer_dumps(src)
        assert tokenizer_dumps(tgt_tok) == tokenizer_dumps(tgt)


class TestEncodeDecode:
    def test_roundtrip(self):
        model = bpe_train(["hta, avc", "oedeme aigu"], 60)
        assert decode(model, encode(model, "hta, avc", max_len=32)) == "hta, avc"

    def test_empty_string(self):
        model = bpe_train(["ab"], 8)
        assert encode(model, "", max_len=8) == []
        assert decode(model, []) == ""

    def test_unknown_chars_map_to_unk(self):
        model = bpe_train(["abc abc"], 12)
        ids = encode(model, "a§c", max_len=16)
        assert UNK_ID in ids

    def test_overlength_rejected_names_record(self):
        model = bpe_train(["a b c d e"], 12)
        with pytest.raises(ValidationError) as err:
            encode(model, "a b c d e", max_len=2, record_id="rec99")
        assert "rec99" in str(err.value)

    def test_prefix_stability(self):
        corpus = ["abra cada", "abra abra cadabra"]
        model = bpe_train(corpus, 30)
        solo = encode(model, "abra", max_len=32)
        lead = encode(model, "abra cadabra", max_len=32)
        assert lead[: len(solo)] == solo

    def test_whole_codes_single_tokens(self):
        codes = ["I64", "J189", "F03", "W19", "I251"]
        corpus = [" ".join(codes)] * 5
        model = bpe_train(corpus, 80)
        for code in codes:
            ids = encode(model, code, max_len=8)
            assert len(ids) == 1
            assert token_is_word_final(model, ids[0])

    def test_word_final_tracks_boundaries(self):
        model = bpe_train(["xyzq xyzq other"], 40)
        ids = encode(model, "xyzq other", max_len=16)
        finals = [token_is_word_final(model, i) for i in ids]
        assert sum(finals) == 2
        assert finals[-1]

    @settings(max_examples=25, deadline=None)
    @given(
        words=st.lists(
            st.text(alphabet="abcdefg", min_size=1, max_size=6), min_size=1, max_size=6
        )
    )
    def test_roundtrip_property(self, words):
        text = standardize(" ".join(words))
        model = bpe_train([text, "padding corpus line"], 200)
        assert decode(model, encode(model, text, max_len=256)) == text


class TestSerialization:
    def test_dump_load_bit_exact(self):
        model = bpe_train(["hta, avc insuffisance", "avc aigu"], 64)
        text = tokenizer_dumps(model)
        clone = tokenizer_loads(text)
        assert clone == model
        assert tokenizer_dumps(clone) == text

    def test_file_roundtrip_and_fingerprint(self, tmp_path):
        model = bpe_train(["abc def", "abc"], 32)
        path = tmp_path / "m.tok"
        save_tokenizer(model, path)
        clone = load_tokenizer(path)
        assert clone == model
        assert tokenizer_fingerprint(clone) == tokenizer_fingerprint(model)

    def test_fingerprint_distinguishes_models(self):
        a = bpe_train(["abc abc"], 16)
        b = bpe_train(["abd abd"], 16)
        assert tokenizer_fingerprint(a) != tokenizer_fingerprint(b)


class TestTruncatedTokenizerFile:
    """Any cut of a tokenizer file, except dropping only its final newline,
    must raise ValidationError rather than IndexError or a smaller model."""

    TEXT = tokenizer_dumps(bpe_train(["hta, avc insuffisance", "avc aigu", "café crème"], 48))

    def test_every_line_boundary_rejected(self):
        lines = self.TEXT.splitlines(keepends=True)
        assert len(lines) > 20
        for n in range(len(lines)):
            with pytest.raises(ValidationError):
                tokenizer_loads("".join(lines[:n]))

    @settings(max_examples=300, deadline=None)
    @given(cut_at=st.floats(min_value=0.0, max_value=1.0, exclude_max=True))
    def test_random_byte_cut_rejected(self, cut_at):
        raw = self.TEXT.encode("utf-8")
        cut = int(cut_at * (len(raw) - 1))  # len(raw) - 1 would drop only the newline
        with pytest.raises(ValidationError):
            tokenizer_loads(raw[:cut].decode("utf-8", errors="ignore"))

    def test_dropping_final_newline_still_loads(self):
        assert tokenizer_dumps(tokenizer_loads(self.TEXT[:-1])) == self.TEXT

    @pytest.mark.parametrize("old, new", [
        ("vocab_size ", "vocab_size x"),
        ("exhausted ", "exhausted 2"),
        ("\t4\n", "\t4\textra\n"),
        ("\t4\n", "\t5\n"),
    ])
    def test_malformed_field_rejected(self, old, new):
        assert old in self.TEXT
        with pytest.raises(ValidationError):
            tokenizer_loads(self.TEXT.replace(old, new, 1))

    def test_file_error_names_path(self, tmp_path):
        path = tmp_path / "cut.tok"
        path.write_text(self.TEXT[: len(self.TEXT) // 2])
        with pytest.raises(ValidationError, match="cut.tok"):
            load_tokenizer(path)
