"""Synthetic corpus generator: distributions, pathologies, splits."""

from __future__ import annotations

import dataclasses
import hashlib
import math

import pytest

from medseq.errors import ConfigError, ValidationError
from medseq.records import MAX_CODES_PER_CERT, ORIGIN_PAPER, Icd10Code, chapter_of, write_corpus
from medseq.synth import (
    AdjacencyRule,
    GeneratorConfig,
    Lexicon,
    LexiconEntry,
    build_default_lexicon,
    generate_corpus,
    split_corpus,
)
from medseq.textprep import concat_backward


class TestLexicon:
    def test_deterministic(self):
        assert build_default_lexicon(7) == build_default_lexicon(7)

    def test_code_inventory(self):
        lex = build_default_lexicon(0)
        codes = lex.all_codes()
        assert len(codes) >= 200
        chapters = {chapter_of(c).index for c in codes}
        assert len(chapters) >= 10

    def test_context_rule_depends_on_side_variable(self):
        lex = build_default_lexicon(0)
        ruled = [e for e in lex.entries if e.context_rule is not None]
        assert ruled
        entry = next(e for e in ruled if e.context_rule.variable == "year")
        from medseq.records import SideVariables

        low = lex.code_for(entry, SideVariables(0, 0, 8, 0))
        high = lex.code_for(entry, SideVariables(0, 5, 8, 0))
        assert low != high

    def test_adjacency_rule_present(self):
        lex = build_default_lexicon(0)
        assert any(e.adjacency_rule is not None for e in lex.entries)

    @pytest.mark.parametrize(
        "weights",
        [(1.0, -0.5), (1.0, math.nan), (1.0, math.inf), (0.0, 0.0), (1e308, 1e308)],
        ids=["negative", "nan", "inf", "zero-sum", "sum-overflows"],
    )
    def test_bad_weights_rejected(self, weights):
        entries = tuple(
            LexiconEntry(stem, (stem,), Icd10Code(code), weight=w)
            for stem, code, w in zip(("alpha", "beta"), ("R99", "I10"), weights)
        )
        with pytest.raises(ValidationError, match="weights"):
            Lexicon(entries=entries, noise_vocab=("de",))

    def test_phrase_without_stem_rejected(self):
        entry = LexiconEntry("alpha", ("alpha aigu", "beta aigu"), Icd10Code("R99"))
        with pytest.raises(ValidationError, match="stem"):
            Lexicon(entries=(entry,), noise_vocab=("de",))

    def test_adjacency_trigger_without_entry_rejected(self):
        entries = (
            LexiconEntry(
                "fracturome", ("fracturome",), Icd10Code("M841"),
                adjacency_rule=AdjacencyRule("chuton", Icd10Code("S423")),
            ),
            LexiconEntry("malaisome", ("malaisome",), Icd10Code("R53")),
        )
        with pytest.raises(ValidationError, match="'chuton' names no entry"):
            Lexicon(entries=entries, noise_vocab=("de",))


def _corpus_sha256(certs, tmp_path) -> str:
    path = tmp_path / "corpus.tsv"
    write_corpus(certs, path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestGenerateCorpus:
    # Digests of corpora drawn with `Random.choices` on every weighted draw;
    # the prepared draw tables must reproduce them byte for byte.
    @pytest.mark.parametrize(
        "config,lexicon_seed,digest",
        [
            (
                GeneratorConfig(n_records=500, seed=0),
                0,
                "42bb956ff033463d0696f05a064a95365a42912609a3ff916c692486bd283ab3",
            ),
            (
                GeneratorConfig(n_records=500, seed=7, p_misalign=0.5, p_bang_given_paper=0.5),
                3,
                "001a33b6d16a7c0ff275db68cc2690c0b63cef81f0742b17b35aace6986e490c",
            ),
        ],
        ids=["default", "misaligned-banged"],
    )
    def test_pinned_corpus_bytes(self, config, lexicon_seed, digest, tmp_path):
        certs = generate_corpus(config, build_default_lexicon(lexicon_seed))
        assert _corpus_sha256(certs, tmp_path) == digest

    def test_adjacency_trigger_is_first_entry_of_its_stem(self):
        first = LexiconEntry("chuton", ("chuton",), Icd10Code("W19"), weight=0.0)
        second = LexiconEntry("chuton", ("chuton tardif",), Icd10Code("W10"), weight=0.0)
        lex = Lexicon(
            entries=(
                first,
                second,
                LexiconEntry(
                    "fracturome", ("fracturome",), Icd10Code("M841"),
                    adjacency_rule=AdjacencyRule("chuton", Icd10Code("S423")),
                ),
                LexiconEntry("malaisome", ("malaisome",), Icd10Code("R53")),
            ),
            noise_vocab=("de",),
        )
        certs = generate_corpus(GeneratorConfig(n_records=300, seed=2), lex)
        codes = {c.text for cert in certs for c in cert.all_codes()}
        assert {"W19", "S423"} <= codes
        assert "W10" not in codes
        assert not any("tardif" in (line or "") for cert in certs for line in cert.lines)

    def test_deterministic(self):
        lex = build_default_lexicon(1)
        cfg = GeneratorConfig(n_records=60, seed=9)
        assert generate_corpus(cfg, lex) == generate_corpus(cfg, lex)

    def test_paper_origin_fraction(self):
        lex = build_default_lexicon(1)
        certs = generate_corpus(GeneratorConfig(n_records=1000, seed=1), lex)
        frac = sum(c.side.origin == ORIGIN_PAPER for c in certs) / len(certs)
        assert abs(frac - 0.90) <= 0.03

    def test_bang_fraction_among_paper(self):
        lex = build_default_lexicon(1)
        certs = generate_corpus(GeneratorConfig(n_records=10_000, seed=4), lex)
        paper = [c for c in certs if c.side.origin == ORIGIN_PAPER]
        frac = sum(c.contains_bang() for c in paper) / len(paper)
        assert abs(frac - 0.10) <= 0.01

    def test_electronic_never_has_bang(self):
        lex = build_default_lexicon(1)
        certs = generate_corpus(GeneratorConfig(n_records=2000, seed=2), lex)
        assert not any(
            c.contains_bang() for c in certs if c.side.origin != ORIGIN_PAPER
        )

    def test_code_budget(self):
        lex = build_default_lexicon(1)
        certs = generate_corpus(GeneratorConfig(n_records=2000, seed=3), lex)
        assert all(len(c.all_codes()) <= MAX_CODES_PER_CERT for c in certs)

    def test_no_misalignment_means_aligned_lines(self):
        lex = build_default_lexicon(1)
        cfg = GeneratorConfig(n_records=300, seed=5, p_misalign=0.0, p_bang_given_paper=0.0)
        for cert in generate_corpus(cfg, lex):
            for line, codes in zip(cert.lines, cert.gold_code_lines):
                if line is None:
                    assert codes == ()

    def test_misalignment_preserves_backward_target(self):
        lex = build_default_lexicon(1)
        base = GeneratorConfig(n_records=400, seed=6, p_misalign=0.0)
        noisy = dataclasses.replace(base, p_misalign=1.0)
        clean_certs = generate_corpus(base, lex)
        noisy_certs = generate_corpus(noisy, lex)
        moved = 0
        for a, b in zip(clean_certs, noisy_certs):
            ta = concat_backward(a).target_codes
            tb = concat_backward(b).target_codes
            assert ta == tb
            moved += a.gold_code_lines != b.gold_code_lines
        assert moved > 0

    def test_bang_keeps_code_drops_word(self):
        lex = build_default_lexicon(1)
        clean = generate_corpus(
            GeneratorConfig(n_records=500, seed=8, p_bang_given_paper=0.0, p_misalign=0.0), lex
        )
        banged = generate_corpus(
            GeneratorConfig(n_records=500, seed=8, p_bang_given_paper=1.0, p_misalign=0.0), lex
        )
        for a, b in zip(clean, banged):
            assert [c.text for c in a.all_codes()] == [c.text for c in b.all_codes()]
        assert any(b.contains_bang() for b in banged)


class TestSplitCorpus:
    def test_desk_scale_partition(self):
        lex = build_default_lexicon(1)
        certs = generate_corpus(GeneratorConfig(n_records=6600, seed=10), lex)
        by_year = {}
        for c in certs:
            by_year.setdefault(c.side.year, []).append(c)
        assert all(len(v) >= 100 for v in by_year.values())
        train, val, test = split_corpus(certs, per_year_val=50, per_year_test=50, seed=0)
        assert len(val) == 300 and len(test) == 300
        assert len(train) == len(certs) - 600
        ids = lambda xs: {c.id for c in xs}
        assert ids(train) | ids(val) | ids(test) == ids(certs)
        assert not (ids(train) & ids(val)) and not (ids(val) & ids(test)) and not (ids(train) & ids(test))

    def test_exact_per_year_counts(self):
        lex = build_default_lexicon(1)
        certs = generate_corpus(GeneratorConfig(n_records=3000, seed=11), lex)
        _, val, test = split_corpus(certs, per_year_val=20, per_year_test=10, seed=1)
        for part, want in ((val, 20), (test, 10)):
            per_year = {}
            for c in part:
                per_year[c.side.year] = per_year.get(c.side.year, 0) + 1
            assert all(n == want for n in per_year.values())
            assert len(per_year) == 6

    def test_deterministic(self):
        lex = build_default_lexicon(1)
        certs = generate_corpus(GeneratorConfig(n_records=1200, seed=12), lex)
        a = split_corpus(certs, 20, 20, seed=5)
        b = split_corpus(certs, 20, 20, seed=5)
        assert a == b

    def test_insufficient_stratum_names_year(self):
        lex = build_default_lexicon(1)
        certs = generate_corpus(GeneratorConfig(n_records=100, seed=13), lex)
        with pytest.raises(ValidationError) as err:
            split_corpus(certs, per_year_val=40, per_year_test=40, seed=0)
        assert "year" in str(err.value).lower()

    @pytest.mark.parametrize("val,test", [(-1, 10), (10, -1), (-3, 1)])
    def test_negative_count_rejected(self, val, test):
        certs = generate_corpus(GeneratorConfig(n_records=300, seed=13), build_default_lexicon(1))
        with pytest.raises(ValidationError, match="non-negative"):
            split_corpus(certs, per_year_val=val, per_year_test=test, seed=0)


class TestGeneratorConfig:
    def test_probability_bounds(self):
        with pytest.raises(ConfigError):
            GeneratorConfig(n_records=10, seed=0, p_paper_origin=1.2)
        with pytest.raises(ConfigError):
            GeneratorConfig(n_records=10, seed=0, p_misalign=-0.1)
        with pytest.raises(ConfigError):
            GeneratorConfig(n_records=-1, seed=0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_line_count_weight_rejected(self, bad):
        with pytest.raises(ConfigError, match="line_count_distribution"):
            GeneratorConfig(n_records=10, seed=0, line_count_distribution=(bad, 0, 0, 0, 0, 1.0))
