"""Shared text readers: UTF-8 decoding, line splitting, the error shape of
every table reader, and the rule that only config.py and train.py open files."""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

from medseq.cli import RunConfig
from medseq.config import read_lines, read_text
from medseq.decoding import Prediction, read_predictions, write_predictions
from medseq.ensemble import Ensemble, SelectionStep, read_manifest, write_manifest
from medseq.errors import ConfigError, ValidationError
from medseq.metrics import calibration_curve, format_calibration, read_calibration
from medseq.records import read_corpus, write_corpus
from medseq.synth import GeneratorConfig, build_default_lexicon, generate_corpus


class TestReadText:
    def test_decodes_utf8(self, tmp_path):
        path = tmp_path / "a.txt"
        path.write_bytes("café\n".encode("utf-8"))
        assert read_text(path) == "café\n"

    def test_bad_byte_names_path_and_line(self, tmp_path):
        path = tmp_path / "a.txt"
        path.write_bytes(b"ok\nstill ok\nbad \xff here\n")
        with pytest.raises(ValidationError, match=r"a\.txt: not UTF-8 text \(byte 0xff on line 3\)"):
            read_text(path)

    def test_missing_file_is_os_error(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_text(tmp_path / "absent.txt")


class TestReadLines:
    def _lines(self, tmp_path, data: bytes):
        path = tmp_path / "t.txt"
        path.write_bytes(data)
        return read_lines(path)

    def test_numbers_lines_and_skips_blank_ones(self, tmp_path):
        assert self._lines(tmp_path, b"\na\n\nb\n\n") == [(2, "a"), (4, "b")]
        assert self._lines(tmp_path, b"") == []
        assert self._lines(tmp_path, b"no final newline") == [(1, "no final newline")]

    def test_crlf_reads_like_lf(self, tmp_path):
        assert self._lines(tmp_path, b"a\r\n\r\nb\r\n") == self._lines(tmp_path, b"a\n\nb\n")

    def test_drops_one_trailing_cr_only(self, tmp_path):
        assert self._lines(tmp_path, b"a\r\r\nb\rc\n") == [(1, "a\r"), (2, "b\rc")]

    def test_splits_at_newline_only(self, tmp_path):
        inner = "x\x0by\x0cz\x1c\x1d\x1e\x85\u2028\u2029 end"
        assert self._lines(tmp_path, f"{inner}\nnext\n".encode("utf-8")) == [(1, inner), (2, "next")]


def _certs():
    return generate_corpus(GeneratorConfig(n_records=6, seed=4), build_default_lexicon(4))


def _write_corpus(path):
    write_corpus(_certs(), path)


def _write_predictions(path):
    write_predictions(path, [Prediction("a", ("I10", "E119"), 0.5), Prediction("b", (), 0.25)])


def _write_manifest(path):
    ens = Ensemble(member_indices=(1, 0), log=(SelectionStep(1, 0.5), SelectionStep(0, 0.625)))
    write_manifest(path, ["b.bin", "a.bin"], ["f11", "f00"], ens)


def _write_calibration(path):
    curve = calibration_curve([(("I10",), 0.4, ("I10",)), (("A00",), 0.9, ("B01",))])
    path.write_text(format_calibration(curve) + "\n", encoding="utf-8")


def _write_config(path):
    path.write_text("# a comment\nsynth.seed = 3\nsplit.val_per_year=8\n", encoding="utf-8")


def _read_config(path):
    return RunConfig.load(config_path=str(path), env={}).effective_text()


# name: (writer, reader, what an appended "bogus" line is reported as)
TABLE_READERS = {
    "corpus": (_write_corpus, read_corpus, "expected 17 columns, got 1"),
    "predictions": (_write_predictions, read_predictions, "1 fields, want 3"),
    "manifest": (_write_manifest, read_manifest, "want member or step with 3 fields"),
    "calibration": (_write_calibration, read_calibration, "1 fields, want 3"),
    "config": (_write_config, _read_config, "expected key=value, got 'bogus'"),
}


@pytest.mark.parametrize("name", sorted(TABLE_READERS))
class TestTableReaders:
    def test_crlf_and_blank_lines_read_alike(self, tmp_path, name):
        write, read, _ = TABLE_READERS[name]
        path = tmp_path / name
        write(path)
        expected = read(path)
        path.write_bytes(b"\r\n" + path.read_bytes().replace(b"\n", b"\r\n\r\n"))
        assert read(path) == expected

    def test_malformed_line_error_shape(self, tmp_path, name):
        write, read, what = TABLE_READERS[name]
        path = tmp_path / name
        write(path)
        text = path.read_text(encoding="utf-8")
        path.write_text(text + "bogus\n", encoding="utf-8")
        line_no = text.count("\n") + 1
        with pytest.raises((ValidationError, ConfigError)) as err:
            read(path)
        assert str(err.value) == f"{path}: line {line_no}: {what}"

    def test_non_utf8_names_path(self, tmp_path, name):
        write, read, _ = TABLE_READERS[name]
        path = tmp_path / name
        write(path)
        path.write_bytes(path.read_bytes() + b"\xff")
        with pytest.raises(ValidationError, match=f"^{re.escape(str(path))}: not UTF-8 text"):
            read(path)


def test_config_file_bad_value_names_line(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("synth.seed=1\n\nsynth.n_records=many\n", encoding="utf-8")
    with pytest.raises(ConfigError, match=rf"^{re.escape(str(path))}: line 3: config key synth\.n_records"):
        RunConfig.load(config_path=str(path), env={})


DEFAULT_CONFIG = """\
decode.alpha=0.6
decode.beam_width=4
eval.bootstrap_b=1000
eval.bootstrap_level=0.95
eval.bootstrap_seed=0
model.attention_dropout=0.1
model.dtype=float32
model.ffn_size=256
model.hidden_size=64
model.label_smoothing=0.1
model.layer_postprocess_dropout=0.1
model.max_src_len=128
model.max_tgt_len=21
model.n_heads=4
model.n_layers_dec=2
model.n_layers_enc=2
model.relu_dropout=0.1
model.seed=0
search.dropout_max=0.2
search.dropout_min=0.0
search.hidden_max=512
search.hidden_min=256
search.n_trials=3
search.seed=0
split.seed=0
split.test_per_year=50
split.val_per_year=50
synth.n_records=2000
synth.p_bang_given_paper=0.1
synth.p_misalign=0.02
synth.p_paper_origin=0.9
synth.seed=0
tokenize.src_vocab=2033
tokenize.tgt_vocab=500
train.batch_size=0
train.early_stop_patience=0
train.eval_every=200
train.learning_rate_factor=2.0
train.log_every=50
train.max_steps=2000
train.seed=0
train.val_limit=0
train.warmup_steps=400
"""


def test_default_config_text():
    """Every key with its default, as effective-config.txt records it."""
    assert DEFAULT_CONFIG.count("\n") == 43
    assert RunConfig.load(env={}).effective_text() == DEFAULT_CONFIG


# Only these modules may open files: config.py holds the shared text readers,
# file_sha256 and atomic_open, and train.py reads the binary checkpoint.
_FILE_OPENERS = {"config.py", "train.py"}


def _opens_files(source: str) -> bool:
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id == "open":
                return True
            if isinstance(func, ast.Attribute) and func.attr in ("open", "read_text", "read_bytes"):
                return True
    return False


def test_only_shared_readers_open_files():
    package = Path(__file__).resolve().parents[1] / "src" / "medseq"
    modules = {p.name: p.read_text(encoding="utf-8") for p in package.glob("*.py")}
    assert len(modules) > 10 and _FILE_OPENERS <= set(modules)
    openers = {name for name, source in modules.items() if _opens_files(source)}
    assert "config.py" in openers  # the scan sees a real reader
    assert openers <= _FILE_OPENERS, (
        f"{sorted(openers - _FILE_OPENERS)} open files directly: "
        "read text through config.read_text/read_lines"
    )
