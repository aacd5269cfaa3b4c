"""Data model: code normalization, side-variable encoding, chapters, corpus I/O."""

from __future__ import annotations

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from medseq.config import atomic_open
from medseq.errors import CorpusFormatError, ValidationError
from medseq.records import (
    AGE_BUCKETS,
    ALL_CHAPTERS,
    N_YEARS,
    YEAR_MIN,
    Certificate,
    Icd10Code,
    SideVariables,
    age_bucket_of,
    chapter_of,
    encode_side_variables,
    read_corpus,
    write_corpus,
)
from medseq.synth import GeneratorConfig, build_default_lexicon, generate_corpus


def make_cert(cert_id="r1", line1="acute viral pneumonia", codes=("J12",)):
    lines = [None] * 6
    code_lines = [()] * 6
    lines[0] = line1
    code_lines[0] = tuple(Icd10Code(c) for c in codes)
    return Certificate(
        id=cert_id,
        lines=tuple(lines),
        side=SideVariables(gender=0, year=1, age_bucket=8, origin=0),
        gold_code_lines=tuple(code_lines),
        raw_age_days=11000,
    )


class TestIcd10Code:
    def test_normalizes_case_and_dots(self):
        assert Icd10Code("j18.9").text == "J189"
        assert Icd10Code("I64").text == "I64"

    def test_normalization_idempotent(self):
        once = Icd10Code("e11.2").text
        assert Icd10Code(once).text == once

    @pytest.mark.parametrize("bad", ["", "189", "JJ18", "J1", "J18999", "J18X"])
    def test_rejects_malformed(self, bad):
        with pytest.raises(ValidationError):
            Icd10Code(bad)


class TestSideVariables:
    def test_bounds_enforced(self):
        with pytest.raises(ValidationError):
            SideVariables(gender=2, year=0, age_bucket=0, origin=0)
        with pytest.raises(ValidationError):
            SideVariables(gender=0, year=6, age_bucket=0, origin=0)
        with pytest.raises(ValidationError):
            SideVariables(gender=0, year=0, age_bucket=25, origin=0)

    def test_age_bucket_cardinality(self):
        assert AGE_BUCKETS == 25


class TestAgeBuckets:
    def test_under_28_days(self):
        assert encode_side_variables(10, 0, 2011, 0).age_bucket == 0

    def test_28_days_to_one_year(self):
        assert encode_side_variables(200, 0, 2011, 0).age_bucket == 1

    def test_thirty_years_and_year_index(self):
        side = encode_side_variables(10957, 0, 2013, 0)
        assert side.age_bucket == 8
        assert side.year == 2

    def test_terminal_bucket(self):
        assert encode_side_variables(365 * 120, 0, 2016, 1).age_bucket == 24

    def test_negative_age_rejected(self):
        with pytest.raises(ValidationError):
            encode_side_variables(-1, 0, 2011, 0)

    def test_out_of_range_year_rejected(self):
        from medseq.errors import ConfigError

        with pytest.raises(ConfigError):
            encode_side_variables(10, 0, 2010, 0)
        with pytest.raises(ConfigError):
            encode_side_variables(10, 0, 2017, 0)

    @given(a=st.integers(min_value=0, max_value=365 * 130), b=st.integers(min_value=0, max_value=365 * 130))
    def test_bucketing_monotone(self, a, b):
        if a > b:
            a, b = b, a
        assert age_bucket_of(a) <= age_bucket_of(b)

    def test_image_covers_all_buckets(self):
        buckets = {age_bucket_of(d) for d in range(0, 365 * 115, 7)}
        assert buckets == set(range(25))

    def test_year_image(self):
        years = {encode_side_variables(10, 0, y, 0).year for y in range(YEAR_MIN, YEAR_MIN + N_YEARS)}
        assert years == set(range(N_YEARS))


class TestChapters:
    def test_exactly_22_chapters(self):
        assert len(ALL_CHAPTERS) == 22
        assert [c.index for c in ALL_CHAPTERS] == list(range(1, 23))

    def test_stroke_is_circulatory(self):
        assert chapter_of(Icd10Code("I64")).index == 9

    def test_fall_is_external_causes(self):
        assert chapter_of(Icd10Code("W19")).index == 20

    def test_dementia_is_mental(self):
        assert chapter_of(Icd10Code("F03")).index == 5

    def test_u_codes_are_special_purposes(self):
        assert chapter_of(Icd10Code("U07")).index == 22

    @given(
        letter=st.sampled_from("ABCDEFGHIJKLMNOPQRSTUVWXYZ"),
        digits=st.integers(min_value=0, max_value=999),
    )
    def test_total_over_wellformed_codes(self, letter, digits):
        text = f"{letter}{digits:02d}" if digits < 100 else f"{letter}{digits:03d}"
        ch = chapter_of(Icd10Code(text))
        assert 1 <= ch.index <= 22

    def test_partition_is_disjoint_on_3char_space(self):
        for letter in "ABCDEFGHIJKLMNOPQRSTUVWXYZ":
            for n in range(100):
                matches = {chapter_of(Icd10Code(f"{letter}{n:02d}")).index}
                assert len(matches) == 1


class TestCertificate:
    def test_requires_a_text_line(self):
        with pytest.raises(ValidationError):
            Certificate(
                id="x",
                lines=(None,) * 6,
                side=SideVariables(0, 0, 0, 0),
                gold_code_lines=((),) * 6,
            )

    def test_contains_bang(self):
        cert = make_cert(line1="pneumonie ! aigue")
        assert cert.contains_bang()
        assert not make_cert().contains_bang()

    def test_all_codes_order(self):
        cert = make_cert(codes=("J12", "I10"))
        assert [c.text for c in cert.all_codes()] == ["J12", "I10"]


class TestCorpusIO:
    def test_roundtrip_generated_corpus(self, tmp_path):
        lexicon = build_default_lexicon(2)
        certs = generate_corpus(GeneratorConfig(n_records=100, seed=2), lexicon)
        path = tmp_path / "c.tsv"
        write_corpus(certs, path)
        assert read_corpus(path) == certs

    def test_crlf_equals_lf(self, tmp_path):
        certs = [make_cert()]
        lf = tmp_path / "lf.tsv"
        write_corpus(certs, lf)
        crlf = tmp_path / "crlf.tsv"
        crlf.write_bytes(lf.read_bytes().replace(b"\n", b"\r\n"))
        assert read_corpus(crlf) == read_corpus(lf)

    def test_duplicate_id_rejected(self, tmp_path):
        path = tmp_path / "dup.tsv"
        write_corpus([make_cert("a"), make_cert("a")], path)
        with pytest.raises(CorpusFormatError):
            read_corpus(path)

    def test_malformed_row_names_line(self, tmp_path):
        path = tmp_path / "bad.tsv"
        write_corpus([make_cert()], path)
        text = path.read_text(encoding="utf-8")
        path.write_text(text + "brokenrow\n", encoding="utf-8")
        with pytest.raises(CorpusFormatError) as err:
            read_corpus(path)
        assert "3" in str(err.value)

    def test_row_without_text_rejected(self, tmp_path):
        path = tmp_path / "empty.tsv"
        write_corpus([make_cert()], path)
        lines = path.read_text(encoding="utf-8").splitlines()
        fields = lines[1].split("\t")
        for text in ("", "   "):  # whitespace alone encodes to no tokens
            fields[5:11] = [text] + [""] * 5
            path.write_text(lines[0] + "\n" + "\t".join(fields) + "\n", encoding="utf-8")
            with pytest.raises((CorpusFormatError, ValidationError)):
                read_corpus(path)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_roundtrip_property(self, tmp_path_factory, seed):
        lexicon = build_default_lexicon(seed % 7)
        certs = generate_corpus(GeneratorConfig(n_records=12, seed=seed), lexicon)
        path = tmp_path_factory.mktemp("rt") / "c.tsv"
        write_corpus(certs, path)
        assert read_corpus(path) == certs


def _uncached_codes(path):
    """Gold code lines of each data row, every token parsed on its own."""
    rows = path.read_text(encoding="utf-8").splitlines()[1:]
    return [
        tuple(tuple(Icd10Code(tok) for tok in cell.split()) for cell in row.split("\t")[11:17])
        for row in rows
    ]


class TestCorpusCodeParsing:
    def _write(self, path, code_cells):
        """One row per entry; each entry is the six code cells of that row."""
        write_corpus([make_cert(f"r{i}") for i in range(len(code_cells))], path)
        lines = path.read_text(encoding="utf-8").splitlines()
        for i, cells in enumerate(code_cells, start=1):
            fields = lines[i].split("\t")
            fields[11:17] = cells
            lines[i] = "\t".join(fields)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    def test_equals_uncached_parse(self, tmp_path):
        lexicon = build_default_lexicon(3)
        path = tmp_path / "c.tsv"
        write_corpus(generate_corpus(GeneratorConfig(n_records=150, seed=3), lexicon), path)
        certs = read_corpus(path)
        assert [c.gold_code_lines for c in certs] == _uncached_codes(path)

    def test_spellings_of_one_code_equal_uncached_parse(self, tmp_path):
        path = tmp_path / "c.tsv"
        self._write(path, [
            ["I10 i10", "E11.9", "", "", "", "E119 I10"],
            ["i10", "", "e11.9 E119", "", "I10", ""],
        ])
        certs = read_corpus(path)
        assert [c.gold_code_lines for c in certs] == _uncached_codes(path)
        assert [c.text for c in certs[1].all_codes()] == ["I10", "E119", "E119", "I10"]

    def test_repeated_malformed_code_reported_at_first_line(self, tmp_path):
        path = tmp_path / "c.tsv"
        ok = ["I10", "", "", "", "", ""]
        bad = ["I10 X1", "", "", "", "", ""]
        self._write(path, [ok, bad, ok, bad])  # file lines 2-5
        with pytest.raises(CorpusFormatError, match=r"line 3: line1_codes: .*'X1'"):
            read_corpus(path)

    def test_cached_valid_code_does_not_hide_malformed_token(self, tmp_path):
        path = tmp_path / "c.tsv"
        self._write(path, [
            ["I10 E119", "", "", "", "", ""],
            ["", "", "I10 E119 Q", "", "", ""],
        ])
        with pytest.raises(CorpusFormatError, match=r"line 3: line3_codes: .*'Q'"):
            read_corpus(path)


class TestAtomicWrite:
    def test_writer_failing_mid_write_keeps_old_file(self, tmp_path):
        path = tmp_path / "c.tsv"
        write_corpus([make_cert("a")], path)
        before = path.read_bytes()
        # the second row is rejected after the header and first row are written
        with pytest.raises(ValidationError, match="tab"):
            write_corpus([make_cert("b"), make_cert("c", line1="bad\ttext")], path)
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["c.tsv"]

    def test_failure_before_first_write_creates_nothing(self, tmp_path):
        with pytest.raises(ValidationError):
            write_corpus([make_cert(line1="bad\ttext")], tmp_path / "new.tsv")
        assert os.listdir(tmp_path) == []

    def test_clean_exit_replaces_with_normal_permissions(self, tmp_path):
        plain = tmp_path / "plain.bin"
        plain.write_bytes(b"x")
        path = tmp_path / "out.bin"
        path.write_bytes(b"old")
        with atomic_open(path, "wb") as fh:
            fh.write(b"new")
            assert path.read_bytes() == b"old"
        assert path.read_bytes() == b"new"
        assert sorted(os.listdir(tmp_path)) == ["out.bin", "plain.bin"]
        assert os.stat(path).st_mode == os.stat(plain).st_mode

    def test_mode_checked(self, tmp_path):
        with pytest.raises(ValueError):
            with atomic_open(tmp_path / "x", "a"):
                pass
