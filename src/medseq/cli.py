"""Command-line pipeline: generate, split, tokenize, train, search,
predict, ensemble, evaluate, calibrate, report.

Every artifact-producing subcommand writes its outputs plus an
effective-config echo (with input file hashes) into --out-dir, and is
deterministic given identical inputs and seeds.  Exit codes: 1 usage,
2 validation/config, 3 runtime (including training divergence).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from . import __version__
from .config import RunConfig, atomic_open, file_sha256, read_lines
from .decoding import Prediction, predict_pairs, read_predictions, write_predictions
from .ensemble import ensemble_predict, greedy_select, read_manifest, write_manifest
from .errors import ConfigError, MedseqError, ValidationError
from .metrics import (
    bootstrap_ci,
    calibration_curve,
    format_calibration,
    format_chapter_report,
    format_metric_report,
    micro_metrics,
    per_chapter,
    read_calibration,
    report_to_kv,
    stratified_report,
)
from .records import Certificate, Icd10Code, read_corpus, write_corpus
from .synth import GeneratorConfig, build_default_lexicon, generate_corpus, split_corpus
from .textprep import (
    bpe_train,
    concat_backward,
    load_tokenizer,
    save_tokenizer,
)
from .train import (
    SearchSpace,
    TrainConfig,
    check_tokenizers,
    format_log,
    format_trial_table,
    init_model,
    load_checkpoint,
    model_from_checkpoint,
    random_search,
    save_checkpoint,
    train,
)
from .transformer import ModelConfig


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the contract here is exit 1."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="flat key=value config file")
    p.add_argument(
        "--set", action="append", default=[], metavar="KEY=VALUE",
        help="override one config key (repeatable)",
    )
    p.add_argument("--out-dir", default=".", help="directory for outputs and the config echo")


def _load_cfg(args: argparse.Namespace) -> RunConfig:
    return RunConfig.load(config_path=args.config, overrides=args.set)


def _out_dir(args: argparse.Namespace) -> Path:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_text(path: Path, text: str) -> None:
    with atomic_open(path) as fh:
        fh.write(text)


def _write_provenance(out: Path, cfg: RunConfig, inputs: dict[str, str]) -> None:
    lines = [f"# medseq {__version__}", f"# config_sha256={cfg.sha256()}"]
    for role in sorted(inputs):
        path = inputs[role]
        lines.append(f"# input {role}={path} sha256={file_sha256(path)}")
    text = "\n".join(lines) + "\n" + cfg.effective_text()
    _write_text(out / "effective-config.txt", text)


def _model_config(cfg: RunConfig, src_vocab: int, tgt_vocab: int) -> ModelConfig:
    return ModelConfig(
        src_vocab_size=src_vocab,
        tgt_vocab_size=tgt_vocab,
        hidden_size=cfg.get_int("model.hidden_size"),
        n_layers_enc=cfg.get_int("model.n_layers_enc"),
        n_layers_dec=cfg.get_int("model.n_layers_dec"),
        n_heads=cfg.get_int("model.n_heads"),
        ffn_size=cfg.get_int("model.ffn_size"),
        layer_postprocess_dropout=cfg.get_float("model.layer_postprocess_dropout"),
        attention_dropout=cfg.get_float("model.attention_dropout"),
        relu_dropout=cfg.get_float("model.relu_dropout"),
        max_src_len=cfg.get_int("model.max_src_len"),
        max_tgt_len=cfg.get_int("model.max_tgt_len"),
        label_smoothing=cfg.get_float("model.label_smoothing"),
        dtype=cfg.get_str("model.dtype"),
    )


def _train_config(cfg: RunConfig) -> TrainConfig:
    batch = cfg.get_int("train.batch_size")
    val_limit = cfg.get_int("train.val_limit")
    return TrainConfig(
        learning_rate_factor=cfg.get_float("train.learning_rate_factor"),
        warmup_steps=cfg.get_int("train.warmup_steps"),
        max_steps=cfg.get_int("train.max_steps"),
        batch_size=batch if batch > 0 else None,
        seed=cfg.get_int("train.seed"),
        eval_every=cfg.get_int("train.eval_every"),
        early_stop_patience=cfg.get_int("train.early_stop_patience"),
        log_every=cfg.get_int("train.log_every"),
        val_limit=val_limit if val_limit > 0 else None,
    )


def _read_pairs(path: str):
    certs = read_corpus(path)
    return certs, [concat_backward(c) for c in certs]


def _load_tokenizers(args: argparse.Namespace):
    return load_tokenizer(args.src_tok), load_tokenizer(args.tgt_tok)


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------


def _cmd_gen_data(args: argparse.Namespace) -> int:
    cfg = _load_cfg(args)
    if args.n is not None:
        cfg.set_typed("synth.n_records", args.n)
    if args.seed is not None:
        cfg.set_typed("synth.seed", args.seed)
    out = _out_dir(args)
    seed = cfg.get_int("synth.seed")
    gen = GeneratorConfig(
        n_records=cfg.get_int("synth.n_records"),
        seed=seed,
        p_paper_origin=cfg.get_float("synth.p_paper_origin"),
        p_bang_given_paper=cfg.get_float("synth.p_bang_given_paper"),
        p_misalign=cfg.get_float("synth.p_misalign"),
    )
    certs = generate_corpus(gen, build_default_lexicon(seed))
    write_corpus(certs, out / "corpus.tsv")
    _write_provenance(out, cfg, {})
    print(f"wrote {len(certs)} certificates to {out / 'corpus.tsv'}")
    return 0


def _cmd_split(args: argparse.Namespace) -> int:
    cfg = _load_cfg(args)
    if args.val_per_year is not None:
        cfg.set_typed("split.val_per_year", args.val_per_year)
    if args.test_per_year is not None:
        cfg.set_typed("split.test_per_year", args.test_per_year)
    if args.seed is not None:
        cfg.set_typed("split.seed", args.seed)
    out = _out_dir(args)
    certs = read_corpus(args.corpus)
    train_set, val_set, test_set = split_corpus(
        certs,
        per_year_val=cfg.get_int("split.val_per_year"),
        per_year_test=cfg.get_int("split.test_per_year"),
        seed=cfg.get_int("split.seed"),
    )
    write_corpus(train_set, out / "train.tsv")
    write_corpus(val_set, out / "val.tsv")
    write_corpus(test_set, out / "test.tsv")
    _write_provenance(out, cfg, {"corpus": args.corpus})
    print(f"split {len(certs)} -> train {len(train_set)}, val {len(val_set)}, test {len(test_set)}")
    return 0


def _cmd_tokenize(args: argparse.Namespace) -> int:
    cfg = _load_cfg(args)
    if args.src_vocab is not None:
        cfg.set_typed("tokenize.src_vocab", args.src_vocab)
    if args.tgt_vocab is not None:
        cfg.set_typed("tokenize.tgt_vocab", args.tgt_vocab)
    out = _out_dir(args)
    _, pairs = _read_pairs(args.corpus)
    src_tok = bpe_train([p.source_text for p in pairs], cfg.get_int("tokenize.src_vocab"))
    tgt_tok = bpe_train(
        [" ".join(c.text for c in p.target_codes) for p in pairs],
        cfg.get_int("tokenize.tgt_vocab"),
    )
    save_tokenizer(src_tok, out / "src.tok")
    save_tokenizer(tgt_tok, out / "tgt.tok")
    _write_provenance(out, cfg, {"corpus": args.corpus})
    print(
        f"source vocab {src_tok.size} (exhausted={src_tok.exhausted}), "
        f"target vocab {tgt_tok.size} (exhausted={tgt_tok.exhausted})"
    )
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    cfg = _load_cfg(args)
    if args.max_steps is not None:
        cfg.set_typed("train.max_steps", args.max_steps)
    if args.seed is not None:
        cfg.set_typed("train.seed", args.seed)
        cfg.set_typed("model.seed", args.seed)
    out = _out_dir(args)
    src_tok, tgt_tok = _load_tokenizers(args)
    _, train_pairs = _read_pairs(args.train)
    _, val_pairs = _read_pairs(args.val)
    model_cfg = _model_config(cfg, src_tok.size, tgt_tok.size)
    train_cfg = _train_config(cfg)
    model = init_model(model_cfg, seed=cfg.get_int("model.seed"))
    result = train(model, train_pairs, val_pairs, src_tok, tgt_tok, train_cfg)
    save_checkpoint(result.checkpoint, out / "checkpoint.bin")
    _write_text(out / "train.log", "\n".join(format_log(result.log)) + "\n")
    _write_provenance(
        out, cfg,
        {"train": args.train, "val": args.val, "src_tok": args.src_tok, "tgt_tok": args.tgt_tok},
    )
    best = f"{result.best_val_f:.4f}" if result.best_val_f is not None else "n/a"
    print(f"trained {train_cfg.max_steps} steps; best validation F {best} at step {result.best_step}")
    return 0


def _cmd_search(args: argparse.Namespace) -> int:
    cfg = _load_cfg(args)
    if args.trials is not None:
        cfg.set_typed("search.n_trials", args.trials)
    if args.seed is not None:
        cfg.set_typed("search.seed", args.seed)
    out = _out_dir(args)
    src_tok, tgt_tok = _load_tokenizers(args)
    _, train_pairs = _read_pairs(args.train)
    _, val_pairs = _read_pairs(args.val)
    space = SearchSpace(
        hidden_range=(cfg.get_int("search.hidden_min"), cfg.get_int("search.hidden_max")),
        dropout_range=(cfg.get_float("search.dropout_min"), cfg.get_float("search.dropout_max")),
        n_trials=cfg.get_int("search.n_trials"),
    )
    results = random_search(
        space,
        _model_config(cfg, src_tok.size, tgt_tok.size),
        _train_config(cfg),
        train_pairs,
        val_pairs,
        src_tok,
        tgt_tok,
        seed=cfg.get_int("search.seed"),
    )
    _write_text(out / "trials.tsv", format_trial_table(results) + "\n")
    save_checkpoint(results[0].checkpoint, out / "best-checkpoint.bin")
    _write_provenance(
        out, cfg,
        {"train": args.train, "val": args.val, "src_tok": args.src_tok, "tgt_tok": args.tgt_tok},
    )
    print(f"ran {len(results)} trials; best validation F {results[0].val_f:.4f}")
    return 0


def _cmd_predict(args: argparse.Namespace) -> int:
    cfg = _load_cfg(args)
    if args.beam_width is not None:
        cfg.set_typed("decode.beam_width", args.beam_width)
    if args.alpha is not None:
        cfg.set_typed("decode.alpha", args.alpha)
    out = _out_dir(args)
    src_tok, tgt_tok = _load_tokenizers(args)
    ckpt = load_checkpoint(args.checkpoint)
    check_tokenizers([ckpt], src_tok, tgt_tok)
    model = model_from_checkpoint(ckpt)
    _, pairs = _read_pairs(args.corpus)
    preds = predict_pairs(
        model, src_tok, tgt_tok, pairs,
        beam_width=cfg.get_int("decode.beam_width"),
        alpha=cfg.get_float("decode.alpha"),
    )
    write_predictions(out / "predictions.tsv", preds)
    _write_provenance(
        out, cfg,
        {
            "checkpoint": args.checkpoint, "corpus": args.corpus,
            "src_tok": args.src_tok, "tgt_tok": args.tgt_tok,
        },
    )
    print(f"decoded {len(preds)} records to {out / 'predictions.tsv'}")
    return 0


def _cmd_ensemble_select(args: argparse.Namespace) -> int:
    cfg = _load_cfg(args)
    out = _out_dir(args)
    src_tok, tgt_tok = _load_tokenizers(args)
    paths = [p for p in args.checkpoints.split(",") if p]
    if not paths:
        raise ValidationError("--checkpoints needs at least one path")
    ckpts = [load_checkpoint(p) for p in paths]
    _, val_pairs = _read_pairs(args.val)
    ens = greedy_select(
        ckpts, src_tok, tgt_tok, val_pairs,
        beam_width=cfg.get_int("decode.beam_width"),
        alpha=cfg.get_float("decode.alpha"),
    )
    selected_paths = [paths[i] for i in ens.member_indices]
    selected_hashes = [file_sha256(p) for p in selected_paths]
    write_manifest(out / "ensemble.manifest", selected_paths, selected_hashes, ens)
    _write_provenance(
        out, cfg,
        {"val": args.val, "src_tok": args.src_tok, "tgt_tok": args.tgt_tok,
         **{f"member{i}": p for i, p in enumerate(paths)}},
    )
    steps = ", ".join(f"{s.member_index}:{s.val_f:.4f}" for s in ens.log)
    print(f"selected {len(ens.member_indices)} members ({steps})")
    return 0


def _cmd_ensemble_predict(args: argparse.Namespace) -> int:
    cfg = _load_cfg(args)
    out = _out_dir(args)
    src_tok, tgt_tok = _load_tokenizers(args)
    paths, hashes, _ = read_manifest(args.manifest)
    for p, h in zip(paths, hashes):
        try:
            actual = file_sha256(p)
        except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
            reason = exc.strerror if isinstance(exc, OSError) else exc
            raise ValidationError(f"{args.manifest}: cannot read member {p!r}: {reason}") from None
        if actual != h:
            raise ValidationError(f"ensemble member {p!r} changed on disk (hash mismatch)")
    ckpts = [load_checkpoint(p) for p in paths]
    _, pairs = _read_pairs(args.corpus)
    preds = ensemble_predict(
        ckpts, src_tok, tgt_tok, pairs,
        beam_width=cfg.get_int("decode.beam_width"),
        alpha=cfg.get_float("decode.alpha"),
    )
    write_predictions(out / "predictions.tsv", preds)
    _write_provenance(
        out, cfg,
        {"manifest": args.manifest, "corpus": args.corpus,
         "src_tok": args.src_tok, "tgt_tok": args.tgt_tok},
    )
    print(f"ensemble of {len(ckpts)} decoded {len(preds)} records")
    return 0


def _aligned_pairs(
    preds: list[Prediction], certs: list[Certificate]
) -> tuple[list[tuple[tuple[str, ...], tuple[str, ...]]], list[Certificate], list[Prediction]]:
    """Align predictions with gold certificates by record id, corpus order."""
    by_id = {p.id: p for p in preds}
    if len(by_id) != len(preds):
        raise ValidationError("duplicate record ids in predictions")
    missing = [c.id for c in certs if c.id not in by_id]
    if missing:
        raise ValidationError(f"{len(missing)} corpus records lack predictions (first: {missing[0]!r})")
    extra = set(by_id) - {c.id for c in certs}
    if extra:
        raise ValidationError(f"{len(extra)} predictions lack corpus records (first: {sorted(extra)[0]!r})")
    pairs = []
    ordered_preds = []
    for cert in certs:
        pred = by_id[cert.id]
        pairs.append((pred.codes, tuple(c.text for c in cert.all_codes())))
        ordered_preds.append(pred)
    return pairs, certs, ordered_preds


def _chapter_safe(pairs):
    """Drop malformed predicted code strings before chapter attribution."""
    safe = []
    dropped = 0
    for pred, truth in pairs:
        kept = []
        for code in pred:
            try:
                Icd10Code(code)
                kept.append(code)
            except ValidationError:
                dropped += 1
        safe.append((tuple(kept), truth))
    return safe, dropped


def _cmd_evaluate(args: argparse.Namespace) -> int:
    cfg = _load_cfg(args)
    out = _out_dir(args)
    preds = read_predictions(args.predictions)
    certs = read_corpus(args.corpus)
    pairs, certs, _ = _aligned_pairs(preds, certs)

    overall = micro_metrics(pairs)
    ci = bootstrap_ci(
        pairs,
        b=cfg.get_int("eval.bootstrap_b"),
        level=cfg.get_float("eval.bootstrap_level"),
        seed=cfg.get_int("eval.bootstrap_seed"),
    )
    overall = replace(overall, ci=ci)

    strata_reports = []
    for stratum in ("origin", "contains_bang"):
        strata_reports.extend(
            r for r in stratified_report(pairs, certs, stratum) if r.stratum != "overall"
        )

    safe_pairs, dropped = _chapter_safe(pairs)
    chapters = per_chapter(safe_pairs)

    report_text = format_metric_report(overall)
    if dropped:
        report_text += f"\nmalformed predicted codes excluded from chapter attribution: {dropped}"
    _write_text(out / "report.txt", report_text + "\n")
    kv = [report_to_kv(overall)] + [report_to_kv(r) for r in strata_reports]
    _write_text(out / "report.kv", "\n".join(kv) + "\n")
    _write_text(
        out / "strata.txt", "\n\n".join(format_metric_report(r) for r in strata_reports) + "\n"
    )
    _write_text(out / "chapters.txt", format_chapter_report(chapters) + "\n")
    _write_provenance(out, cfg, {"predictions": args.predictions, "corpus": args.corpus})
    p = f"{overall.precision:.4f}" if overall.precision is not None else "-"
    r = f"{overall.recall:.4f}" if overall.recall is not None else "-"
    print(f"records={overall.n_records} precision={p} recall={r} f_measure={overall.f_measure:.4f}")
    return 0


def _cmd_calibrate(args: argparse.Namespace) -> int:
    cfg = _load_cfg(args)
    out = _out_dir(args)
    preds = read_predictions(args.predictions)
    certs = read_corpus(args.corpus)
    pairs, _, ordered_preds = _aligned_pairs(preds, certs)
    entries = [
        (pred_codes, pred.score, truth)
        for (pred_codes, truth), pred in zip(pairs, ordered_preds)
    ]
    curve = calibration_curve(entries)
    _write_text(out / "calibration.tsv", format_calibration(curve) + "\n")
    _write_provenance(out, cfg, {"predictions": args.predictions, "corpus": args.corpus})
    base = curve.rows[0].f_accepted
    print(f"calibration curve written; F at zero rejection {base:.4f}" if base is not None else
          "calibration curve written")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    cfg = _load_cfg(args)
    out = _out_dir(args)
    run_dir = Path(args.dir)
    sections = []
    kv_path = run_dir / "report.kv"
    if kv_path.exists():
        kv_lines = []
        for line_no, line in read_lines(kv_path):
            key, sep, _ = line.partition("=")
            if not (key and sep):
                raise ValidationError(f"{kv_path}: line {line_no}: expected key=value, got {line!r}")
            kv_lines.append(line)
        sections.append("== metrics ==\n" + "\n".join(kv_lines))
    cal_path = run_dir / "calibration.tsv"
    if cal_path.exists():
        best = None
        for thr, frac, f in read_calibration(cal_path):
            if f is not None and frac <= 0.30:
                if best is None or f > best[1]:
                    best = (thr, f, frac)
        if best is not None:
            sections.append(
                "== calibration ==\n"
                f"best threshold <=30% rejection: score>{best[0]:.2f} "
                f"rejects {100 * best[2]:.1f}% with F {best[1]:.4f}"
            )
    if not sections:
        raise ValidationError(f"no report artifacts found in {run_dir}")
    text = "\n\n".join(sections) + "\n"
    _write_text(out / "summary.txt", text)
    print(text, end="")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="medseq", description=__doc__)
    parser.add_argument("--version", action="version", version=f"medseq {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("gen-data", help="generate a synthetic corpus")
    _add_common(p)
    p.add_argument("--n", type=int, help="number of certificates")
    p.add_argument("--seed", type=int)
    p.set_defaults(func=_cmd_gen_data)

    p = sub.add_parser("split", help="per-year stratified train/val/test split")
    _add_common(p)
    p.add_argument("--corpus", required=True)
    p.add_argument("--val-per-year", type=int)
    p.add_argument("--test-per-year", type=int)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=_cmd_split)

    p = sub.add_parser("tokenize", help="learn source and target BPE tokenizers")
    _add_common(p)
    p.add_argument("--corpus", required=True, help="training split")
    p.add_argument("--src-vocab", type=int)
    p.add_argument("--tgt-vocab", type=int)
    p.set_defaults(func=_cmd_tokenize)

    p = sub.add_parser("train", help="train one model")
    _add_common(p)
    p.add_argument("--train", required=True)
    p.add_argument("--val", required=True)
    p.add_argument("--src-tok", required=True)
    p.add_argument("--tgt-tok", required=True)
    p.add_argument("--max-steps", type=int)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("search", help="random hyperparameter search")
    _add_common(p)
    p.add_argument("--train", required=True)
    p.add_argument("--val", required=True)
    p.add_argument("--src-tok", required=True)
    p.add_argument("--tgt-tok", required=True)
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("predict", help="beam-decode a corpus with one checkpoint")
    _add_common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--src-tok", required=True)
    p.add_argument("--tgt-tok", required=True)
    p.add_argument("--beam-width", type=int)
    p.add_argument("--alpha", type=float)
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("ensemble-select", help="greedy consensus member selection")
    _add_common(p)
    p.add_argument("--checkpoints", required=True, help="comma-separated checkpoint paths")
    p.add_argument("--val", required=True)
    p.add_argument("--src-tok", required=True)
    p.add_argument("--tgt-tok", required=True)
    p.set_defaults(func=_cmd_ensemble_select)

    p = sub.add_parser("ensemble-predict", help="consensus predictions from a manifest")
    _add_common(p)
    p.add_argument("--manifest", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--src-tok", required=True)
    p.add_argument("--tgt-tok", required=True)
    p.set_defaults(func=_cmd_ensemble_predict)

    p = sub.add_parser("evaluate", help="micro metrics, CIs, strata, chapters")
    _add_common(p)
    p.add_argument("--predictions", required=True)
    p.add_argument("--corpus", required=True)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("calibrate", help="score-threshold rejection curve")
    _add_common(p)
    p.add_argument("--predictions", required=True)
    p.add_argument("--corpus", required=True)
    p.set_defaults(func=_cmd_calibrate)

    p = sub.add_parser("report", help="summarize a run directory")
    _add_common(p)
    p.add_argument("--dir", required=True, help="directory holding evaluate/calibrate outputs")
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (ValidationError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MedseqError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except SystemExit:
        raise
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
