"""Command-line interface: full pipeline, exit codes, provenance, rerun identity."""

import argparse
import contextlib
import dataclasses
import hashlib
import io
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from medseq import cli
from medseq.cli import main
from medseq.decoding import Prediction, read_predictions, write_predictions
from medseq.metrics import format_chapter_report, micro_metrics, per_chapter
from medseq.records import read_corpus


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Run every subcommand once over a tiny corpus; return the directories."""
    root = tmp_path_factory.mktemp("cli-pipeline")
    d = {name: root / name for name in (
        "gen", "split", "tok", "run", "run2", "pred", "eval",
        "ens", "epred", "summary",
    )}

    model_sets = [
        "--set", "model.hidden_size=32", "--set", "model.n_layers_enc=1",
        "--set", "model.n_layers_dec=1", "--set", "model.n_heads=2",
        "--set", "model.ffn_size=64",
    ]
    train_sets = model_sets + [
        "--set", "train.batch_size=16", "--set", "train.warmup_steps=10",
        "--set", "train.eval_every=15", "--set", "train.val_limit=5",
    ]

    assert main(["gen-data", "--n", "120", "--seed", "0", "--out-dir", str(d["gen"])]) == 0
    corpus = str(d["gen"] / "corpus.tsv")

    assert main([
        "split", "--corpus", corpus, "--out-dir", str(d["split"]),
        "--set", "split.val_per_year=3", "--set", "split.test_per_year=3",
    ]) == 0
    train_tsv = str(d["split"] / "train.tsv")
    val_tsv = str(d["split"] / "val.tsv")
    test_tsv = str(d["split"] / "test.tsv")

    assert main([
        "tokenize", "--corpus", train_tsv, "--out-dir", str(d["tok"]),
        "--set", "tokenize.src_vocab=600", "--set", "tokenize.tgt_vocab=400",
    ]) == 0
    src_tok = str(d["tok"] / "src.tok")
    tgt_tok = str(d["tok"] / "tgt.tok")

    for out, seed in ((d["run"], "0"), (d["run2"], "7")):
        assert main([
            "train", "--train", train_tsv, "--val", val_tsv,
            "--src-tok", src_tok, "--tgt-tok", tgt_tok,
            "--max-steps", "30", "--seed", seed, "--out-dir", str(out),
        ] + train_sets) == 0

    ckpt = str(d["run"] / "checkpoint.bin")
    assert main([
        "predict", "--checkpoint", ckpt, "--corpus", test_tsv,
        "--src-tok", src_tok, "--tgt-tok", tgt_tok,
        "--beam-width", "2", "--out-dir", str(d["pred"]),
    ]) == 0
    predictions = str(d["pred"] / "predictions.tsv")

    assert main([
        "evaluate", "--predictions", predictions, "--corpus", test_tsv,
        "--out-dir", str(d["eval"]), "--set", "eval.bootstrap_b=50",
    ]) == 0
    assert main([
        "calibrate", "--predictions", predictions, "--corpus", test_tsv,
        "--out-dir", str(d["eval"]),
    ]) == 0
    assert main(["report", "--dir", str(d["eval"]), "--out-dir", str(d["summary"])]) == 0

    assert main([
        "ensemble-select",
        "--checkpoints", f"{ckpt},{d['run2'] / 'checkpoint.bin'}",
        "--val", val_tsv, "--src-tok", src_tok, "--tgt-tok", tgt_tok,
        "--out-dir", str(d["ens"]), "--set", "decode.beam_width=2",
    ]) == 0
    assert main([
        "ensemble-predict", "--manifest", str(d["ens"] / "ensemble.manifest"),
        "--corpus", test_tsv, "--src-tok", src_tok, "--tgt-tok", tgt_tok,
        "--out-dir", str(d["epred"]), "--set", "decode.beam_width=2",
    ]) == 0

    d["corpus"] = corpus
    d["test_tsv"] = test_tsv
    d["src_tok"] = src_tok
    d["tgt_tok"] = tgt_tok
    d["ckpt"] = ckpt
    return d


class TestPipelineArtifacts:
    def test_all_artifacts_exist(self, pipeline):
        expected = [
            ("gen", "corpus.tsv"), ("gen", "effective-config.txt"),
            ("split", "train.tsv"), ("split", "val.tsv"), ("split", "test.tsv"),
            ("tok", "src.tok"), ("tok", "tgt.tok"),
            ("run", "checkpoint.bin"), ("run", "train.log"),
            ("pred", "predictions.tsv"),
            ("eval", "report.txt"), ("eval", "report.kv"),
            ("eval", "strata.txt"), ("eval", "chapters.txt"),
            ("eval", "calibration.tsv"),
            ("summary", "summary.txt"),
            ("ens", "ensemble.manifest"),
            ("epred", "predictions.tsv"),
        ]
        for key, name in expected:
            assert (pipeline[key] / name).is_file(), f"{key}/{name}"

    def test_provenance_header(self, pipeline):
        text = (pipeline["gen"] / "effective-config.txt").read_text()
        lines = text.splitlines()
        assert lines[0].startswith("# medseq ")
        assert lines[1].startswith("# config_sha256=")
        assert "synth.n_records=120" in text
        assert "synth.seed=0" in text

    @pytest.mark.parametrize("key,roles", [
        ("gen", []),
        ("split", ["corpus"]),
        ("tok", ["corpus"]),
        ("run", ["src_tok", "tgt_tok", "train", "val"]),
        ("run2", ["src_tok", "tgt_tok", "train", "val"]),
        ("pred", ["checkpoint", "corpus", "src_tok", "tgt_tok"]),
        ("eval", ["corpus", "predictions"]),  # calibrate wrote it last
        ("ens", ["member0", "member1", "src_tok", "tgt_tok", "val"]),
        ("epred", ["corpus", "manifest", "src_tok", "tgt_tok"]),
        ("summary", None),  # report writes no config echo
    ])
    def test_provenance_tracks_input_hashes(self, pipeline, key, roles):
        from medseq.config import file_sha256

        path = pipeline[key] / "effective-config.txt"
        if roles is None:
            assert not path.exists()
            return
        found = []
        for line in path.read_text().splitlines():
            if line.startswith("# input "):
                role_path, digest = line.removeprefix("# input ").rsplit(" sha256=", 1)
                role, _, input_path = role_path.partition("=")
                assert digest == file_sha256(input_path), line
                found.append(role)
        assert found == roles

    def test_train_log_structure(self, pipeline):
        lines = (pipeline["run"] / "train.log").read_text().splitlines()
        assert lines
        first = lines[0].split("\t")
        assert first[0] == "1"
        float(first[1]); float(first[2])
        evals = [l for l in lines if l.split("\t")[3]]
        assert evals, "eval_every=15 must produce validation entries"

    def test_predictions_cover_corpus(self, pipeline):
        preds = read_predictions(str(pipeline["pred"] / "predictions.tsv"))
        certs = read_corpus(pipeline["test_tsv"])
        assert [p.id for p in preds] == [c.id for c in certs]
        assert all(0.0 < p.score <= 1.0 for p in preds)

    def test_report_kv_metrics(self, pipeline):
        kv = dict(
            line.split("=", 1)
            for line in (pipeline["eval"] / "report.kv").read_text().splitlines()
            if line
        )
        f = float(kv["overall.f_measure"])
        assert 0.0 <= f <= 1.0
        assert int(kv["overall.records"]) == len(read_corpus(pipeline["test_tsv"]))
        assert "overall.f_measure.ci_lower" in kv
        assert float(kv["overall.f_measure.ci_lower"]) <= f <= float(kv["overall.f_measure.ci_upper"])

    def test_report_kv_keys_are_unique(self, pipeline):
        keys = [
            line.split("=", 1)[0]
            for line in (pipeline["eval"] / "report.kv").read_text().splitlines()
        ]
        assert len(keys) == len(set(keys))
        strata = [
            line for line in (pipeline["eval"] / "strata.txt").read_text().splitlines()
            if line.startswith("stratum: ")
        ]
        assert len(strata) == len(set(strata))

    def test_ci_label_follows_level(self, pipeline, tmp_path):
        assert main([
            "evaluate", "--predictions", str(pipeline["pred"] / "predictions.tsv"),
            "--corpus", pipeline["test_tsv"], "--out-dir", str(tmp_path),
            "--set", "eval.bootstrap_b=20", "--set", "eval.bootstrap_level=0.5",
        ]) == 0
        lines = (tmp_path / "report.txt").read_text().splitlines()
        labels = [line.split(":")[0] for line in lines if "CI:" in line]
        assert "f_measure 50% CI" in labels  # precision has none when nothing was predicted
        assert all(label.endswith(" 50% CI") for label in labels), labels
        default = (pipeline["eval"] / "report.txt").read_text()
        assert "f_measure 95% CI: [" in default

    def test_strata_file_has_origin_and_bang_groups(self, pipeline):
        text = (pipeline["eval"] / "strata.txt").read_text()
        assert "stratum: electronic" in text or "stratum: paper" in text
        assert "_bang" in text
        assert "stratum: overall" in (pipeline["eval"] / "report.txt").read_text()

    def test_chapters_file_lists_all(self, pipeline):
        lines = (pipeline["eval"] / "chapters.txt").read_text().splitlines()
        assert len([l for l in lines if l.strip() and not l.startswith("chapter")]) >= 22

    def test_malformed_predicted_codes_leave_chapters_only(self, pipeline, tmp_path):
        """Malformed codes count as false positives but not in chapter attribution."""
        preds = read_predictions(str(pipeline["pred"] / "predictions.tsv"))
        spoiled = [
            dataclasses.replace(p, codes=p.codes[:5] + ("BAD", "i10", "BAD")) if i < 2 else p
            for i, p in enumerate(preds)
        ]
        write_predictions(str(tmp_path / "predictions.tsv"), spoiled)
        assert main([
            "evaluate", "--predictions", str(tmp_path / "predictions.tsv"),
            "--corpus", pipeline["test_tsv"], "--out-dir", str(tmp_path / "eval"),
            "--set", "eval.bootstrap_b=5",
        ]) == 0
        report = (tmp_path / "eval" / "report.txt").read_text().splitlines()
        assert report[-1] == "malformed predicted codes excluded from chapter attribution: 4"
        truths = [tuple(c.text for c in cert.all_codes()) for cert in read_corpus(pipeline["test_tsv"])]
        pairs = [(p.codes, t) for p, t in zip(spoiled, truths)]
        overall = micro_metrics(pairs)
        assert report[2] == f"tp={overall.tp} fp={overall.fp} fn={overall.fn}"
        chapters = per_chapter([(tuple(c for c in p if c != "BAD"), t) for p, t in pairs])
        assert (tmp_path / "eval" / "chapters.txt").read_text() == format_chapter_report(chapters) + "\n"

    def test_calibration_grid(self, pipeline):
        lines = (pipeline["eval"] / "calibration.tsv").read_text().splitlines()
        assert lines[0] == "threshold\tfraction_rejected\tf_accepted"
        assert len(lines) == 102

    def test_summary_sections(self, pipeline):
        text = (pipeline["summary"] / "summary.txt").read_text()
        assert "== metrics ==" in text
        assert "== calibration ==" in text

    def test_manifest_selected_member_hash_matches_file(self, pipeline):
        from medseq.config import file_sha256
        from medseq.ensemble import read_manifest

        paths, hashes, ens = read_manifest(str(pipeline["ens"] / "ensemble.manifest"))
        assert len(paths) == len(ens.member_indices) >= 1
        for p, h in zip(paths, hashes):
            assert file_sha256(p) == h


@pytest.fixture(scope="module")
def scored(pipeline, tmp_path_factory):
    """evaluate, calibrate and report over predictions made from the test
    split's gold codes with seeded drops and substitutions, so that they hit
    and miss; records kept exact score higher.  No model is trained."""
    out = tmp_path_factory.mktemp("cli-scored")
    rng = random.Random(0)
    certs = read_corpus(pipeline["test_tsv"])
    pool = sorted({c.text for cert in certs for c in cert.all_codes()})
    preds = []
    for cert in certs:
        gold = [c.text for c in cert.all_codes()]
        codes = []
        for code in gold:
            u = rng.random()
            if u >= 0.2:  # below 0.2 the code is dropped
                codes.append(rng.choice(pool) if u < 0.35 else code)
        score = rng.uniform(0.6, 1.0) if codes == gold else rng.uniform(0.05, 0.5)
        preds.append(Prediction(cert.id, tuple(codes), score))
    predictions = str(out / "predictions.tsv")
    write_predictions(predictions, preds)
    evaluation = ["--predictions", predictions, "--corpus", pipeline["test_tsv"], "--out-dir", str(out)]
    assert main(["evaluate", *evaluation, "--set", "eval.bootstrap_b=50"]) == 0
    assert main(["calibrate", *evaluation]) == 0
    assert main(["report", "--dir", str(out), "--out-dir", str(out)]) == 0
    return out


class TestReportsOnScoredPredictions:
    def test_precision_ci_is_numeric(self, scored):
        lines = (scored / "report.txt").read_text().splitlines()
        (ci,) = [line for line in lines if line.startswith("precision 95% CI: [")]
        lo, hi = (float(v) for v in ci.split("[", 1)[1].rstrip("]").split(","))
        assert 0.0 <= lo <= hi <= 1.0

    def test_some_chapter_has_true_positives(self, scored):
        rows = (scored / "chapters.txt").read_text().splitlines()[1:]
        fn_rates = [row.split()[2] for row in rows]
        # fn_rate = fn / (tp + fn): a number below 100% means tp > 0
        assert any(r != "-" and float(r.rstrip("%")) < 100.0 for r in fn_rates), rows

    def test_calibration_f_varies_with_threshold(self, scored):
        rows = (scored / "calibration.tsv").read_text().splitlines()[1:]
        f_values = {row.split("\t")[2] for row in rows} - {""}
        assert len(f_values) > 1

    def test_summary_names_a_threshold(self, scored):
        text = (scored / "summary.txt").read_text()
        assert "best threshold <=30% rejection: score>" in text


class TestSharedParser:
    """main() parses every call with one parser built once per process."""

    def test_set_values_do_not_carry_over(self, tmp_path, monkeypatch):
        monkeypatch.delenv("MEDSEQ_SEED", raising=False)
        a, b = tmp_path / "a", tmp_path / "b"
        assert main([
            "gen-data", "--n", "5", "--seed", "4", "--set", "synth.p_misalign=0.5",
            "--out-dir", str(a),
        ]) == 0
        assert main([
            "gen-data", "--n", "5", "--set", "synth.p_bang_given_paper=0.5", "--out-dir", str(b),
        ]) == 0
        first = (a / "effective-config.txt").read_text().splitlines()
        second = (b / "effective-config.txt").read_text().splitlines()
        assert {"synth.seed=4", "synth.p_misalign=0.5", "synth.p_bang_given_paper=0.1"} <= set(first)
        assert {"synth.seed=0", "synth.p_misalign=0.02", "synth.p_bang_given_paper=0.5"} <= set(second)

    def test_usage_error_exits_one_and_help_exits_zero(self, tmp_path, capsys):
        assert main(["gen-data", "--n", "3", "--out-dir", str(tmp_path / "a")]) == 0
        with pytest.raises(SystemExit) as e:
            main(["gen-data", "--n", "three"])
        assert e.value.code == 1
        for argv in (["--help"], ["evaluate", "--help"]):
            with pytest.raises(SystemExit) as e:
                main(argv)
            assert e.value.code == 0
        assert "--predictions" in capsys.readouterr().out
        assert main(["gen-data", "--n", "3", "--out-dir", str(tmp_path / "b")]) == 0


class TestReproducibility:
    def test_gen_data_rerun_is_byte_identical(self, pipeline, tmp_path):
        assert main(["gen-data", "--n", "120", "--seed", "0", "--out-dir", str(tmp_path)]) == 0
        a = (pipeline["gen"] / "corpus.tsv").read_bytes()
        b = (tmp_path / "corpus.tsv").read_bytes()
        assert a == b

    def test_seed_changes_corpus(self, pipeline, tmp_path):
        assert main(["gen-data", "--n", "120", "--seed", "1", "--out-dir", str(tmp_path)]) == 0
        assert (tmp_path / "corpus.tsv").read_bytes() != (pipeline["gen"] / "corpus.tsv").read_bytes()

    def test_env_seed_applies_and_flag_wins(self, tmp_path, monkeypatch):
        monkeypatch.setenv("MEDSEQ_SEED", "42")
        a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
        assert main(["gen-data", "--n", "30", "--out-dir", str(a)]) == 0
        assert main(["gen-data", "--n", "30", "--out-dir", str(b)]) == 0
        assert (a / "corpus.tsv").read_bytes() == (b / "corpus.tsv").read_bytes()
        assert "synth.seed=42" in (a / "effective-config.txt").read_text()
        assert main(["gen-data", "--n", "30", "--seed", "5", "--out-dir", str(c)]) == 0
        assert "synth.seed=5" in (c / "effective-config.txt").read_text()
        assert (c / "corpus.tsv").read_bytes() != (a / "corpus.tsv").read_bytes()


class TestExitCodes:
    def test_usage_errors_exit_one(self):
        with pytest.raises(SystemExit) as e:
            main([])
        assert e.value.code == 1
        with pytest.raises(SystemExit) as e:
            main(["no-such-command"])
        assert e.value.code == 1
        with pytest.raises(SystemExit) as e:
            main(["split"])  # missing required --corpus
        assert e.value.code == 1

    def test_config_error_exits_two(self, tmp_path):
        assert main([
            "gen-data", "--n", "-5", "--out-dir", str(tmp_path),
        ]) == 2

    def test_bad_config_key_exits_two(self, tmp_path):
        assert main([
            "gen-data", "--n", "10", "--out-dir", str(tmp_path),
            "--set", "no.such.key=1",
        ]) == 2

    @staticmethod
    def _tiny_search(pipeline, out):
        split = pipeline["split"]
        return [
            "search", "--train", str(split / "train.tsv"), "--val", str(split / "val.tsv"),
            "--src-tok", pipeline["src_tok"], "--tgt-tok", pipeline["tgt_tok"],
            "--trials", "1", "--out-dir", str(out),
            "--set", "search.hidden_min=8", "--set", "search.hidden_max=8",
            "--set", "model.n_heads=2", "--set", "train.max_steps=2", "--set", "train.eval_every=0",
        ]

    @pytest.mark.parametrize("setting", [
        "model.hidden_size=32", "model.ffn_size=64", "model.layer_postprocess_dropout=0.05",
        "model.attention_dropout=0.05", "model.relu_dropout=0.05",
        "train.learning_rate_factor=1.0", "train.batch_size=8",
    ])
    def test_search_rejects_sampled_key(self, pipeline, tmp_path, capsys, setting):
        """search draws these per trial; a given value would be silently replaced."""
        capsys.readouterr()
        assert main(self._tiny_search(pipeline, tmp_path) + ["--set", setting]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and setting.split("=")[0] in err[0]
        assert not (tmp_path / "trials.tsv").exists()

    def test_search_accepts_seeds(self, pipeline, tmp_path):
        """Trial seeds come from search.seed, so *.seed keys (as MEDSEQ_SEED sets them) pass."""
        args = self._tiny_search(pipeline, tmp_path)
        assert main(args + ["--set", "train.seed=5", "--set", "model.seed=5"]) == 0
        assert (tmp_path / "trials.tsv").exists()

    def test_tokenizer_mismatch_exits_two(self, pipeline, tmp_path):
        assert main([
            "tokenize", "--corpus", pipeline["test_tsv"], "--out-dir", str(tmp_path),
            "--set", "tokenize.src_vocab=400", "--set", "tokenize.tgt_vocab=300",
        ]) == 0
        code = main([
            "predict", "--checkpoint", pipeline["ckpt"], "--corpus", pipeline["test_tsv"],
            "--src-tok", str(tmp_path / "src.tok"), "--tgt-tok", str(tmp_path / "tgt.tok"),
            "--out-dir", str(tmp_path),
        ])
        assert code == 2

    def test_bad_manifest_step_exits_two(self, pipeline, tmp_path, capsys):
        manifest = tmp_path / "ensemble.manifest"
        manifest.write_text(f"member\t{pipeline['ckpt']}\t{'0' * 64}\nstep\tone\t0.500000\n")
        capsys.readouterr()
        code = main([
            "ensemble-predict", "--manifest", str(manifest), "--corpus", pipeline["test_tsv"],
            "--src-tok", pipeline["src_tok"], "--tgt-tok", pipeline["tgt_tok"],
            "--out-dir", str(tmp_path / "out"),
        ])
        assert code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "line 2" in err[0]

    def test_truncated_tokenizer_exits_two(self, pipeline, tmp_path, capsys):
        text = open(pipeline["src_tok"], encoding="utf-8").read()
        cut = tmp_path / "src.tok"
        cut.write_text(text[: len(text) // 2], encoding="utf-8")
        common = ["--src-tok", str(cut), "--tgt-tok", pipeline["tgt_tok"]]
        runs = [
            ["predict", "--checkpoint", pipeline["ckpt"], "--corpus", pipeline["test_tsv"]],
            ["train", "--train", pipeline["test_tsv"], "--val", pipeline["test_tsv"]],
        ]
        for args in runs:
            capsys.readouterr()
            assert main(args + common + ["--out-dir", str(tmp_path / "out")]) == 2
            err = capsys.readouterr().err.strip().splitlines()
            assert len(err) == 1 and str(cut) in err[0]

    def test_bad_checkpoint_header_exits_two(self, pipeline, tmp_path, capsys):
        """A checkpoint with a valid checksum but unknown model keys."""
        body = open(pipeline["ckpt"], "rb").read()[:-32]
        assert body.count(b"\nmodel.hidden_size=") == 1
        body = body.replace(b"\nmodel.hidden_size=", b"\nmodel.hidden_dims=")
        body = body.replace(b"\nmodel.n_heads=", b"\nmodel.n_headz=")
        bad = tmp_path / "checkpoint.bin"
        bad.write_bytes(body + hashlib.sha256(body).digest())
        capsys.readouterr()
        code = main([
            "predict", "--checkpoint", str(bad), "--corpus", pipeline["test_tsv"],
            "--src-tok", pipeline["src_tok"], "--tgt-tok", pipeline["tgt_tok"],
            "--out-dir", str(tmp_path / "out"),
        ])
        assert code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "hidden_dims" in err[0] and "hidden_size" in err[0]

    def test_bad_calibration_file_exits_two(self, pipeline, tmp_path, capsys):
        text = (pipeline["eval"] / "calibration.tsv").read_text(encoding="utf-8")
        lines = text.splitlines(keepends=True)
        cases = {
            "mid_line": text[: len(text) // 2 + 3],
            "line_boundary": "".join(lines[:40]),
            "bad_float": text.replace("0.50\t", "0.50\tzero", 1),
            "field_count": text.replace("0.50\t", "0.50\t1\t", 1),
        }
        for name, body in cases.items():
            run_dir = tmp_path / name
            run_dir.mkdir()
            (run_dir / "calibration.tsv").write_text(body, encoding="utf-8")
            capsys.readouterr()
            code = main(["report", "--dir", str(run_dir), "--out-dir", str(run_dir)])
            assert code == 2, name
            err = capsys.readouterr().err.strip().splitlines()
            assert len(err) == 1 and "calibration.tsv" in err[0], name
            assert not (run_dir / "summary.txt").exists()

    def test_non_utf8_input_exits_two(self, pipeline, tmp_path, capsys):
        """Each input, ending in byte 0xff: exit 2 and one stderr line naming it."""
        def spoiled(name, data):
            path = tmp_path / name
            path.parent.mkdir(exist_ok=True)
            path.write_bytes(data + b"\xff")
            return str(path)

        test_tsv = Path(pipeline["test_tsv"])
        predictions = pipeline["pred"] / "predictions.tsv"
        tokenizers = ["--src-tok", pipeline["src_tok"], "--tgt-tok", pipeline["tgt_tok"]]
        cases = [
            (spoiled("test.tsv", test_tsv.read_bytes()),
             lambda bad: ["evaluate", "--predictions", str(predictions), "--corpus", bad]),
            (spoiled("predictions.tsv", predictions.read_bytes()),
             lambda bad: ["evaluate", "--predictions", bad, "--corpus", str(test_tsv)]),
            (spoiled("kv/report.kv", (pipeline["eval"] / "report.kv").read_bytes()),
             lambda bad: ["report", "--dir", str(Path(bad).parent)]),
            (spoiled("run.cfg", b"synth.n_records=5\n"),
             lambda bad: ["gen-data", "--config", bad]),
            (spoiled("ensemble.manifest", (pipeline["ens"] / "ensemble.manifest").read_bytes()),
             lambda bad: ["ensemble-predict", "--manifest", bad, "--corpus", str(test_tsv)] + tokenizers),
        ]
        for bad, argv in cases:
            capsys.readouterr()
            assert main(argv(bad) + ["--out-dir", str(tmp_path / "out")]) == 2, bad
            err = capsys.readouterr().err.strip().splitlines()
            assert len(err) == 1 and bad in err[0] and "not UTF-8" in err[0], bad

    def test_report_kv_line_without_equals_exits_two(self, pipeline, tmp_path, capsys):
        text = (pipeline["eval"] / "report.kv").read_text(encoding="utf-8")
        (tmp_path / "report.kv").write_text(text + "not a key value pair\n", encoding="utf-8")
        capsys.readouterr()
        assert main(["report", "--dir", str(tmp_path), "--out-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        line_no = text.count("\n") + 1
        assert len(err) == 1 and f"report.kv: line {line_no}: expected key=value" in err[0]
        assert not (tmp_path / "summary.txt").exists()

    def test_unreadable_manifest_member_exits_two(self, pipeline, tmp_path, capsys):
        text = (pipeline["ens"] / "ensemble.manifest").read_text(encoding="utf-8")
        member = text.split("\t")[1]
        for name, path in (("absent", member + ".gone"), ("nul", member.replace("/", "\0", 1))):
            manifest = tmp_path / f"{name}.manifest"
            manifest.write_text(text.replace(member, path, 1), encoding="utf-8")
            capsys.readouterr()
            code = main([
                "ensemble-predict", "--manifest", str(manifest), "--corpus", pipeline["test_tsv"],
                "--src-tok", pipeline["src_tok"], "--tgt-tok", pipeline["tgt_tok"],
                "--out-dir", str(tmp_path / "out"),
            ])
            assert code == 2, name
            err = capsys.readouterr().err.strip().splitlines()
            assert len(err) == 1 and f"{manifest}: cannot read member" in err[0], name

    def test_control_character_in_id_stays_on_one_line(self, pipeline, tmp_path, capsys):
        rows = Path(pipeline["test_tsv"]).read_text(encoding="utf-8").split("\n")
        rows[1] = "\x0c" + rows[1]
        corpus = tmp_path / "test.tsv"
        corpus.write_text("\n".join(rows), encoding="utf-8")
        capsys.readouterr()
        code = main([
            "evaluate", "--predictions", str(pipeline["pred"] / "predictions.tsv"),
            "--corpus", str(corpus), "--out-dir", str(tmp_path / "out"),
        ])
        assert code == 2
        assert len(capsys.readouterr().err.strip().splitlines()) == 1

    @pytest.mark.parametrize("alpha", ["nan", "inf", "-inf"])
    def test_non_finite_alpha_exits_two(self, tmp_path, alpha):
        """One error line naming alpha, and no numpy warning before it."""
        fixture = Path(__file__).resolve().parent.parent / "perfbench" / "fixture"
        assert main(["gen-data", "--n", "40", "--out-dir", str(tmp_path / "gen")]) == 0
        proc = subprocess.run(
            [sys.executable, "-m", "medseq.cli", "predict",
             "--checkpoint", str(fixture / "model.ckpt"), "--corpus", str(tmp_path / "gen" / "corpus.tsv"),
             "--src-tok", str(fixture / "src.tok"), "--tgt-tok", str(fixture / "tgt.tok"),
             f"--alpha={alpha}", "--out-dir", str(tmp_path / "pred")],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2, proc.stderr
        err = proc.stderr.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "alpha" in err[0], err

    def test_missing_file_exits_three(self, tmp_path):
        assert main([
            "split", "--corpus", str(tmp_path / "absent.tsv"), "--out-dir", str(tmp_path),
        ]) == 3
        assert main([
            "gen-data", "--config", str(tmp_path / "absent.cfg"), "--out-dir", str(tmp_path),
        ]) == 3

    @pytest.mark.parametrize("key", ["train.batch_size", "train.val_limit"])
    def test_derived_or_off_key_rejects_negative(self, pipeline, tmp_path, capsys, key):
        """0 means derived/off; a negative value is an error, not another 0."""
        argv = [
            "train", "--train", pipeline["test_tsv"], "--val", pipeline["test_tsv"],
            "--src-tok", pipeline["src_tok"], "--tgt-tok", pipeline["tgt_tok"],
            "--max-steps", "1", "--out-dir", str(tmp_path),
        ]
        assert main(argv + ["--set", f"{key}=0"]) == 0
        capsys.readouterr()
        assert main(argv + ["--set", f"{key}=-3"]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "got -3" in err[0], err

    @pytest.mark.parametrize("setting", [
        "eval.bootstrap_b=0", "eval.bootstrap_b=-3", "eval.bootstrap_seed=-1",
    ])
    def test_bad_bootstrap_setting_exits_two(self, pipeline, tmp_path, capsys, setting):
        """One error line naming the value, and no report written."""
        capsys.readouterr()
        code = main([
            "evaluate", "--predictions", str(pipeline["pred"] / "predictions.tsv"),
            "--corpus", pipeline["test_tsv"], "--out-dir", str(tmp_path), "--set", setting,
        ])
        assert code == 2
        err = capsys.readouterr().err.strip().splitlines()
        value = setting.partition("=")[2]
        assert len(err) == 1 and err[0].startswith("error: ") and f"got {value}" in err[0], err
        assert not (tmp_path / "report.kv").exists()

    @pytest.mark.parametrize("val,test", [("-1", "10"), ("-3", "1")])
    def test_negative_split_count_exits_two(self, pipeline, tmp_path, capsys, val, test):
        """One error line naming the count, and no split written."""
        capsys.readouterr()
        code = main([
            "split", "--corpus", pipeline["corpus"], "--out-dir", str(tmp_path),
            "--set", f"split.val_per_year={val}", "--set", f"split.test_per_year={test}",
        ])
        assert code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and f"got {val}" in err[0], err
        assert not (tmp_path / "train.tsv").exists()

    def test_empty_report_dir_exits_two(self, tmp_path):
        assert main(["report", "--dir", str(tmp_path), "--out-dir", str(tmp_path)]) == 2

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as e:
            main(["--version"])
        assert e.value.code == 0
        assert capsys.readouterr().out.startswith("medseq ")


# subcommand -> {flag: the config keys it sets}
FLAG_KEYS = {
    "gen-data": {"--n": ("synth.n_records",), "--seed": ("synth.seed",)},
    "split": {
        "--val-per-year": ("split.val_per_year",),
        "--test-per-year": ("split.test_per_year",),
        "--seed": ("split.seed",),
    },
    "tokenize": {"--src-vocab": ("tokenize.src_vocab",), "--tgt-vocab": ("tokenize.tgt_vocab",)},
    "train": {"--max-steps": ("train.max_steps",), "--seed": ("train.seed", "model.seed")},
    "search": {"--trials": ("search.n_trials",), "--seed": ("search.seed",)},
    "predict": {"--beam-width": ("decode.beam_width",), "--alpha": ("decode.alpha",)},
}
_COMMON = {"-h", "--help", "--config", "--set", "--out-dir"}

# subcommand -> its required input path flags
REQUIRED_FLAGS = {
    "gen-data": (),
    "split": ("--corpus",),
    "tokenize": ("--corpus",),
    "train": ("--train", "--val", "--src-tok", "--tgt-tok"),
    "search": ("--train", "--val", "--src-tok", "--tgt-tok"),
    "predict": ("--checkpoint", "--corpus", "--src-tok", "--tgt-tok"),
    "ensemble-select": ("--checkpoints", "--val", "--src-tok", "--tgt-tok"),
    "ensemble-predict": ("--manifest", "--corpus", "--src-tok", "--tgt-tok"),
    "evaluate": ("--predictions", "--corpus"),
    "calibrate": ("--predictions", "--corpus"),
    "report": ("--dir",),
}


def _subparsers():
    parser = cli.build_parser()
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def test_flag_table_lists_every_flag():
    flags = {}
    for name, sub in _subparsers().items():
        found = {
            opt for a in sub._actions if not a.required for opt in a.option_strings
        } - _COMMON
        if found:
            flags[name] = found
    assert flags == {name: set(table) for name, table in FLAG_KEYS.items()}


def test_required_flags_are_the_input_paths():
    required = {
        name: tuple(opt for a in sub._actions if a.required for opt in a.option_strings)
        for name, sub in _subparsers().items()
    }
    assert required == REQUIRED_FLAGS


@pytest.mark.parametrize(
    "command,dropped", [(c, f) for c, flags in REQUIRED_FLAGS.items() for f in flags],
    ids=lambda x: x,
)
def test_missing_required_flag_exits_one(command, dropped, tmp_path, capsys):
    argv = [command, "--out-dir", str(tmp_path)]
    for flag in REQUIRED_FLAGS[command]:
        if flag != dropped:
            argv += [flag, str(tmp_path / "unread")]
    with pytest.raises(SystemExit) as e:
        main(argv)
    assert e.value.code == 1
    assert dropped in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


class _Stop(Exception):
    pass


@pytest.mark.parametrize(
    "command,flag", [(c, f) for c, table in FLAG_KEYS.items() for f in table],
    ids=lambda x: x,
)
def test_flag_sets_exactly_its_keys_over_set(command, flag, monkeypatch):
    """`<cmd> <flag> <value> --set <key>=<other>` leaves <key>=<value> and
    every other key at its default."""
    monkeypatch.delenv("MEDSEQ_SEED", raising=False)
    loaded = []
    real_load = cli.RunConfig.load

    def load(*args, **kwargs):
        loaded.append(real_load(*args, **kwargs))
        return loaded[-1]

    def stop(args):
        raise _Stop  # the flags are applied by now; the inputs are never read

    monkeypatch.setattr(cli.RunConfig, "load", staticmethod(load))
    monkeypatch.setattr(cli, "_out_dir", stop)
    keys = FLAG_KEYS[command][flag]
    default = cli.RunConfig().effective_text().splitlines()
    was = dict(line.split("=", 1) for line in default)[keys[0]]
    value, other = ("0.25", "0.75") if "." in was else ("7", "9")  # float or int key
    required = [
        arg for a in _subparsers()[command]._actions if a.required
        for arg in (a.option_strings[0], "unread")
    ]
    argv = [command, *required, flag, value]
    for key in keys:
        argv += ["--set", f"{key}={other}"]
    with pytest.raises(_Stop):
        main(argv)
    (cfg,) = loaded
    changed = set(cfg.effective_text().splitlines()) - set(default)
    assert changed == {f"{key}={value}" for key in keys}


# artifact -> (pipeline directory holding it, the subcommand that reads it).
# "{bad}" is the damaged copy, "{dir}" the copied directory holding it.
_FUZZ_TARGETS = {
    "test.tsv": ("split", [
        "evaluate", "--predictions", "{pred}/predictions.tsv", "--corpus", "{bad}",
        "--set", "eval.bootstrap_b=10",
    ]),
    "predictions.tsv": ("pred", [
        "evaluate", "--predictions", "{bad}", "--corpus", "{test_tsv}",
        "--set", "eval.bootstrap_b=10",
    ]),
    "ensemble.manifest": ("ens", [
        "ensemble-predict", "--manifest", "{bad}", "--corpus", "{test_tsv}",
        "--src-tok", "{src_tok}", "--tgt-tok", "{tgt_tok}", "--set", "decode.beam_width=2",
    ]),
    "calibration.tsv": ("eval", ["report", "--dir", "{dir}"]),
    "report.kv": ("eval", ["report", "--dir", "{dir}"]),
    "src.tok": ("tok", [
        "predict", "--checkpoint", "{ckpt}", "--corpus", "{test_tsv}",
        "--src-tok", "{bad}", "--tgt-tok", "{tgt_tok}", "--beam-width", "2",
    ]),
    "checkpoint.bin": ("run", [
        "predict", "--checkpoint", "{bad}", "--corpus", "{test_tsv}",
        "--src-tok", "{src_tok}", "--tgt-tok", "{tgt_tok}", "--beam-width", "2",
    ]),
}


class TestDamagedArtifacts:
    """Every artifact the pipeline writes, cut short or with one byte flipped,
    is read with exit 0, or exit 2 and one stderr line; never a traceback."""

    @pytest.mark.parametrize("artifact", sorted(_FUZZ_TARGETS))
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_cut_or_flipped_artifact(self, pipeline, tmp_path_factory, artifact, data):
        key, argv = _FUZZ_TARGETS[artifact]
        work = tmp_path_factory.mktemp("damaged")
        shutil.copytree(pipeline[key], work / "in")
        bad = work / "in" / artifact
        raw = bytearray(bad.read_bytes())
        offset = data.draw(st.integers(0, len(raw) - 1), label="offset")
        if data.draw(st.booleans(), label="flip"):
            raw[offset] ^= data.draw(st.integers(1, 255), label="xor")
        else:
            del raw[offset:]
        bad.write_bytes(bytes(raw))
        fields = {name: str(value) for name, value in pipeline.items()}
        args = [a.format(bad=bad, dir=work / "in", **fields) for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(args + ["--out-dir", str(work / "out")])
        assert code in (0, 2), err.getvalue()
        if code == 2:
            lines = err.getvalue().splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: "), lines


class TestInstalledEntryPoint:
    def test_console_script_runs(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "medseq.cli", "gen-data", "--n", "5",
             "--seed", "3", "--out-dir", str(tmp_path)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "corpus.tsv").is_file()
        assert "wrote 5 certificates" in proc.stdout
