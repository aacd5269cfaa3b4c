"""Command-line interface: full pipeline, exit codes, provenance, rerun identity."""

import hashlib
import subprocess
import sys

import pytest

from medseq.cli import main
from medseq.decoding import read_predictions
from medseq.records import read_corpus


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Run every subcommand once over a tiny corpus; return the directories."""
    root = tmp_path_factory.mktemp("cli-pipeline")
    d = {name: root / name for name in (
        "gen", "split", "tok", "tok2", "run", "run2", "pred", "eval",
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

    def test_provenance_tracks_input_hashes(self, pipeline):
        text = (pipeline["run"] / "effective-config.txt").read_text()
        inputs = [l for l in text.splitlines() if l.startswith("# input ")]
        roles = sorted(l.split()[2].split("=")[0] for l in inputs)
        assert roles == ["src_tok", "tgt_tok", "train", "val"]
        assert all("sha256=" in l for l in inputs)

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

    def test_strata_file_has_origin_and_bang_groups(self, pipeline):
        text = (pipeline["eval"] / "strata.txt").read_text()
        assert "stratum: electronic" in text or "stratum: paper" in text
        assert "_bang" in text
        assert "stratum: overall" in (pipeline["eval"] / "report.txt").read_text()

    def test_chapters_file_lists_all(self, pipeline):
        lines = (pipeline["eval"] / "chapters.txt").read_text().splitlines()
        assert len([l for l in lines if l.strip() and not l.startswith("chapter")]) >= 22

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

    def test_missing_file_exits_three(self, tmp_path):
        assert main([
            "split", "--corpus", str(tmp_path / "absent.tsv"), "--out-dir", str(tmp_path),
        ]) == 3

    def test_empty_report_dir_exits_two(self, tmp_path):
        assert main(["report", "--dir", str(tmp_path), "--out-dir", str(tmp_path)]) == 2

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as e:
            main(["--version"])
        assert e.value.code == 0
        assert capsys.readouterr().out.startswith("medseq ")


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
