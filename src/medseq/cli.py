"""Command-line pipeline: generate, split, tokenize, train, search,
predict, ensemble, evaluate, calibrate, report.

Every subcommand but `report` writes its outputs plus an effective-config
echo (with input file hashes) into --out-dir; `report` writes summary.txt
alone.  Each is deterministic given identical inputs and seeds.  Exit codes:
1 usage, 2 validation/config, 3 runtime (missing input files, training
divergence).

Settings are flat dotted keys, resolved in increasing precedence: defaults,
MEDSEQ_SEED (every *.seed key), --config FILE, --set KEY=VALUE, then the
command's flags.  The model.*, train.* and synth.* keys are the scalar fields
of ModelConfig, TrainConfig and GeneratorConfig; 0 means derived/off for
train.batch_size and train.val_limit.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import os
import sys
import typing
from pathlib import Path

from . import __version__
from .config import atomic_open, file_sha256, read_lines
from .decoding import DEFAULT_ALPHA, DEFAULT_BEAM_WIDTH, predict_pairs
from .decoding import read_predictions, write_predictions
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
from .records import Icd10Code, read_corpus, write_corpus
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

# ----------------------------------------------------------------------
# Run configuration
# ----------------------------------------------------------------------


def _field_keys(cls, section: str) -> dict[str, tuple[type, object]]:
    """`section.<field>` -> (type, default) for each scalar-default field of `cls`.

    A None default ("derived"/"off") is spelled 0.  Fields without a default
    and tuple fields are not keys.
    """
    hints = typing.get_type_hints(cls)
    keys = {}
    for f in dataclasses.fields(cls):
        if f.default is dataclasses.MISSING or isinstance(f.default, tuple):
            continue
        hint = hints[f.name]
        kind = next(t for t in typing.get_args(hint) or (hint,) if t is not type(None))
        keys[f"{section}.{f.name}"] = (kind, 0 if f.default is None else f.default)
    return keys


# key -> (type, default)
_KEYS: dict[str, tuple[type, object]] = {
    "synth.n_records": (int, 2000),
    "synth.seed": (int, 0),
    **_field_keys(GeneratorConfig, "synth"),
    "split.val_per_year": (int, 50),
    "split.test_per_year": (int, 50),
    "split.seed": (int, 0),
    "tokenize.src_vocab": (int, 2033),
    "tokenize.tgt_vocab": (int, 500),
    **_field_keys(ModelConfig, "model"),
    "model.seed": (int, 0),
    **_field_keys(TrainConfig, "train"),
    "search.n_trials": (int, 3),
    "search.hidden_min": (int, 256),
    "search.hidden_max": (int, 512),
    "search.dropout_min": (float, 0.0),
    "search.dropout_max": (float, 0.2),
    "search.seed": (int, 0),
    "decode.beam_width": (int, DEFAULT_BEAM_WIDTH),
    "decode.alpha": (float, DEFAULT_ALPHA),
    "eval.bootstrap_b": (int, 1000),
    "eval.bootstrap_level": (float, 0.95),
    "eval.bootstrap_seed": (int, 0),
}

# `search` draws these for each trial, so a value given for one would be ignored.
_SEARCH_SAMPLED = (
    "model.hidden_size", "model.ffn_size", "model.layer_postprocess_dropout",
    "model.attention_dropout", "model.relu_dropout",
    "train.learning_rate_factor", "train.batch_size",
)

SEED_ENV_VAR = "MEDSEQ_SEED"


class RunConfig:
    """Typed view over the merged key-value configuration.

    Sources merge in fixed precedence: built-in defaults, then the MEDSEQ_SEED
    environment fallback (applies to every *.seed key), then the config file,
    then --set overrides; `_load_cfg` applies the command's flags last.
    Unknown keys are rejected so typos fail loudly.
    """

    def __init__(self) -> None:
        self._values: dict[str, object] = {k: d for k, (_, d) in _KEYS.items()}

    def set_kv(self, key: str, raw: str) -> None:
        if key not in _KEYS:
            raise ConfigError(f"unknown config key {key!r}")
        kind, _ = _KEYS[key]
        raw = raw.strip()
        try:
            self._values[key] = kind(raw)
        except ValueError:
            raise ConfigError(f"config key {key}: cannot parse {raw!r} as {kind.__name__}") from None

    def get(self, key: str):
        return self._values[key]

    @classmethod
    def load(
        cls,
        config_path: str | None = None,
        overrides: list[str] | None = None,
        env: typing.Mapping[str, str] | None = None,
    ) -> "RunConfig":
        cfg = cls()
        env = os.environ if env is None else env
        if SEED_ENV_VAR in env:
            try:
                seed = int(env[SEED_ENV_VAR])
            except ValueError:
                raise ConfigError(f"{SEED_ENV_VAR} must be an integer, got {env[SEED_ENV_VAR]!r}")
            for key in _KEYS:
                if key.endswith(".seed"):
                    cfg._values[key] = seed
        if config_path:
            cfg._load_file(config_path)
        for item in overrides or []:
            key, sep, raw = item.partition("=")
            if not sep:
                raise ConfigError(f"--set expects key=value, got {item!r}")
            cfg.set_kv(key.strip(), raw)
        return cfg

    def _load_file(self, path: str) -> None:
        for line_no, line in read_lines(path):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            key, sep, raw = text.partition("=")
            try:
                if not sep:
                    raise ConfigError(f"expected key=value, got {text!r}")
                self.set_kv(key.strip(), raw)
            except ConfigError as exc:
                raise ConfigError(f"{path}: line {line_no}: {exc}") from None

    def effective_text(self) -> str:
        """Canonical sorted key=value lines for echoing into run directories."""
        return "\n".join(f"{k}={self._values[k]}" for k in sorted(self._values)) + "\n"

    def sha256(self) -> str:
        return hashlib.sha256(self.effective_text().encode("utf-8")).hexdigest()


def _build(cls, cfg: RunConfig, section: str, **given):
    """`cls` from its `section.*` keys, plus the fields in `given`.

    0 becomes None for the fields whose default is None ("derived"/"off"),
    so any other value, negative ones too, meets the dataclass's own check.
    """
    for f in dataclasses.fields(cls):
        key = f"{section}.{f.name}"
        if f.name not in given and key in _KEYS:
            value = cfg.get(key)
            given[f.name] = None if value == 0 and f.default is None else value
    return cls(**given)


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the contract here is exit 1."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _load_cfg(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig.load(config_path=args.config, overrides=args.set)
    for flag, keys in _COMMANDS[args.command].flags.items():
        value = getattr(args, flag[2:].replace("-", "_"))
        if value is not None:
            for key in keys:
                cfg.set_kv(key, str(value))
    return cfg


def _out_dir(args: argparse.Namespace) -> Path:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_text(path: Path, text: str) -> None:
    with atomic_open(path) as fh:
        fh.write(text)


def _checkpoint_paths(args: argparse.Namespace) -> list[str]:
    return [p for p in args.checkpoints.split(",") if p]


def _write_provenance(out: Path, cfg: RunConfig, args: argparse.Namespace) -> None:
    """The config echo, with the hash of each input path in the command's row."""
    inputs = {}
    for role in _COMMANDS[args.command].paths:
        if role == "checkpoints":
            inputs.update((f"member{i}", p) for i, p in enumerate(_checkpoint_paths(args)))
        else:
            inputs[role] = getattr(args, role)
    lines = [f"# medseq {__version__}", f"# config_sha256={cfg.sha256()}"]
    for role in sorted(inputs):
        path = inputs[role]
        lines.append(f"# input {role}={path} sha256={file_sha256(path)}")
    text = "\n".join(lines) + "\n" + cfg.effective_text()
    _write_text(out / "effective-config.txt", text)


def _read_pairs(path: str):
    return [concat_backward(c) for c in read_corpus(path)]


def _load_tokenizers(args: argparse.Namespace):
    return load_tokenizer(args.src_tok), load_tokenizer(args.tgt_tok)


def _decode_options(cfg: RunConfig) -> dict:
    return {"beam_width": cfg.get("decode.beam_width"), "alpha": cfg.get("decode.alpha")}


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------


def _cmd_gen_data(args: argparse.Namespace, cfg: RunConfig, out: Path) -> int:
    gen = _build(GeneratorConfig, cfg, "synth")
    certs = generate_corpus(gen, build_default_lexicon(gen.seed))
    write_corpus(certs, out / "corpus.tsv")
    _write_provenance(out, cfg, args)
    print(f"wrote {len(certs)} certificates to {out / 'corpus.tsv'}")
    return 0


def _cmd_split(args: argparse.Namespace, cfg: RunConfig, out: Path) -> int:
    certs = read_corpus(args.corpus)
    train_set, val_set, test_set = split_corpus(
        certs,
        per_year_val=cfg.get("split.val_per_year"),
        per_year_test=cfg.get("split.test_per_year"),
        seed=cfg.get("split.seed"),
    )
    write_corpus(train_set, out / "train.tsv")
    write_corpus(val_set, out / "val.tsv")
    write_corpus(test_set, out / "test.tsv")
    _write_provenance(out, cfg, args)
    print(f"split {len(certs)} -> train {len(train_set)}, val {len(val_set)}, test {len(test_set)}")
    return 0


def _cmd_tokenize(args: argparse.Namespace, cfg: RunConfig, out: Path) -> int:
    pairs = _read_pairs(args.corpus)
    src_tok = bpe_train([p.source_text for p in pairs], cfg.get("tokenize.src_vocab"))
    tgt_tok = bpe_train(
        [" ".join(c.text for c in p.target_codes) for p in pairs],
        cfg.get("tokenize.tgt_vocab"),
    )
    save_tokenizer(src_tok, out / "src.tok")
    save_tokenizer(tgt_tok, out / "tgt.tok")
    _write_provenance(out, cfg, args)
    print(
        f"source vocab {src_tok.size} (exhausted={src_tok.exhausted}), "
        f"target vocab {tgt_tok.size} (exhausted={tgt_tok.exhausted})"
    )
    return 0


def _training_inputs(args: argparse.Namespace, cfg: RunConfig):
    """(model config, train config, train pairs, val pairs, source and target
    tokenizers): what `train` and `random_search` take, in their order."""
    src_tok, tgt_tok = _load_tokenizers(args)
    train_pairs, val_pairs = _read_pairs(args.train), _read_pairs(args.val)
    model_cfg = _build(
        ModelConfig, cfg, "model", src_vocab_size=src_tok.size, tgt_vocab_size=tgt_tok.size
    )
    return model_cfg, _build(TrainConfig, cfg, "train"), train_pairs, val_pairs, src_tok, tgt_tok


def _cmd_train(args: argparse.Namespace, cfg: RunConfig, out: Path) -> int:
    model_cfg, train_cfg, *data = _training_inputs(args, cfg)
    result = train(init_model(model_cfg, seed=cfg.get("model.seed")), *data, train_cfg)
    save_checkpoint(result.checkpoint, out / "checkpoint.bin")
    _write_text(out / "train.log", "\n".join(format_log(result.log)) + "\n")
    _write_provenance(out, cfg, args)
    best = f"{result.best_val_f:.4f}" if result.best_val_f is not None else "n/a"
    print(f"trained {train_cfg.max_steps} steps; best validation F {best} at step {result.best_step}")
    return 0


def _cmd_search(args: argparse.Namespace, cfg: RunConfig, out: Path) -> int:
    for key in _SEARCH_SAMPLED:
        if cfg.get(key) != _KEYS[key][1]:
            raise ConfigError(f"{key} is drawn for each search trial and cannot be set (got {cfg.get(key)})")
    inputs = _training_inputs(args, cfg)
    space = SearchSpace(
        hidden_range=(cfg.get("search.hidden_min"), cfg.get("search.hidden_max")),
        dropout_range=(cfg.get("search.dropout_min"), cfg.get("search.dropout_max")),
        n_trials=cfg.get("search.n_trials"),
    )
    results = random_search(space, *inputs, seed=cfg.get("search.seed"))
    _write_text(out / "trials.tsv", format_trial_table(results) + "\n")
    save_checkpoint(results[0].checkpoint, out / "best-checkpoint.bin")
    _write_provenance(out, cfg, args)
    print(f"ran {len(results)} trials; best validation F {results[0].val_f:.4f}")
    return 0


def _cmd_predict(args: argparse.Namespace, cfg: RunConfig, out: Path) -> int:
    src_tok, tgt_tok = _load_tokenizers(args)
    ckpt = load_checkpoint(args.checkpoint)
    check_tokenizers([ckpt], src_tok, tgt_tok)
    model = model_from_checkpoint(ckpt)
    preds = predict_pairs(model, src_tok, tgt_tok, _read_pairs(args.corpus), **_decode_options(cfg))
    write_predictions(out / "predictions.tsv", preds)
    _write_provenance(out, cfg, args)
    print(f"decoded {len(preds)} records to {out / 'predictions.tsv'}")
    return 0


def _cmd_ensemble_select(args: argparse.Namespace, cfg: RunConfig, out: Path) -> int:
    src_tok, tgt_tok = _load_tokenizers(args)
    paths = _checkpoint_paths(args)
    if not paths:
        raise ValidationError("--checkpoints needs at least one path")
    ckpts = [load_checkpoint(p) for p in paths]
    ens = greedy_select(ckpts, src_tok, tgt_tok, _read_pairs(args.val), **_decode_options(cfg))
    selected_paths = [paths[i] for i in ens.member_indices]
    selected_hashes = [file_sha256(p) for p in selected_paths]
    write_manifest(out / "ensemble.manifest", selected_paths, selected_hashes, ens)
    _write_provenance(out, cfg, args)
    steps = ", ".join(f"{s.member_index}:{s.val_f:.4f}" for s in ens.log)
    print(f"selected {len(ens.member_indices)} members ({steps})")
    return 0


def _cmd_ensemble_predict(args: argparse.Namespace, cfg: RunConfig, out: Path) -> int:
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
    preds = ensemble_predict(
        ckpts, src_tok, tgt_tok, _read_pairs(args.corpus), **_decode_options(cfg)
    )
    write_predictions(out / "predictions.tsv", preds)
    _write_provenance(out, cfg, args)
    print(f"ensemble of {len(ckpts)} decoded {len(preds)} records")
    return 0


def _aligned(args: argparse.Namespace):
    """--predictions aligned with the gold --corpus certificates by record id,
    in corpus order: (predicted and true codes, certificates, predictions)."""
    preds = read_predictions(args.predictions)
    certs = read_corpus(args.corpus)
    by_id = {p.id: p for p in preds}
    if len(by_id) != len(preds):
        raise ValidationError("duplicate record ids in predictions")
    missing = [c.id for c in certs if c.id not in by_id]
    if missing:
        raise ValidationError(f"{len(missing)} corpus records lack predictions (first: {missing[0]!r})")
    extra = set(by_id) - {c.id for c in certs}
    if extra:
        raise ValidationError(f"{len(extra)} predictions lack corpus records (first: {sorted(extra)[0]!r})")
    ordered = [by_id[c.id] for c in certs]
    pairs = [(p.codes, tuple(c.text for c in cert.all_codes())) for p, cert in zip(ordered, certs)]
    return pairs, certs, ordered


def _chapter_safe(pairs):
    """Drop malformed predicted code strings before chapter attribution.

    Each distinct code string is checked once per call.
    """
    malformed = set()
    for code in {code for pred, _ in pairs for code in pred}:
        try:
            Icd10Code(code)
        except ValidationError:
            malformed.add(code)
    safe = [(tuple(c for c in pred if c not in malformed), truth) for pred, truth in pairs]
    dropped = sum(code in malformed for pred, _ in pairs for code in pred)
    return safe, dropped


def _cmd_evaluate(args: argparse.Namespace, cfg: RunConfig, out: Path) -> int:
    pairs, certs, _ = _aligned(args)
    overall = micro_metrics(pairs)
    level = cfg.get("eval.bootstrap_level")
    ci = bootstrap_ci(
        pairs, b=cfg.get("eval.bootstrap_b"), level=level, seed=cfg.get("eval.bootstrap_seed")
    )
    overall = dataclasses.replace(overall, ci=ci, ci_level=level)

    # `origin` and `contains_bang` both label the electronic records `electronic`.
    strata = {}
    for stratum in ("origin", "contains_bang"):
        for r in stratified_report(pairs, certs, stratum):
            if r.stratum != "overall":
                strata.setdefault(r.stratum, r)

    safe_pairs, dropped = _chapter_safe(pairs)
    chapters = per_chapter(safe_pairs)

    report_text = format_metric_report(overall)
    if dropped:
        report_text += f"\nmalformed predicted codes excluded from chapter attribution: {dropped}"
    _write_text(out / "report.txt", report_text + "\n")
    kv = [report_to_kv(overall)] + [report_to_kv(r) for r in strata.values()]
    _write_text(out / "report.kv", "\n".join(kv) + "\n")
    _write_text(
        out / "strata.txt", "\n\n".join(format_metric_report(r) for r in strata.values()) + "\n"
    )
    _write_text(out / "chapters.txt", format_chapter_report(chapters) + "\n")
    _write_provenance(out, cfg, args)
    p = f"{overall.precision:.4f}" if overall.precision is not None else "-"
    r = f"{overall.recall:.4f}" if overall.recall is not None else "-"
    print(f"records={overall.n_records} precision={p} recall={r} f_measure={overall.f_measure:.4f}")
    return 0


def _cmd_calibrate(args: argparse.Namespace, cfg: RunConfig, out: Path) -> int:
    pairs, _, preds = _aligned(args)
    curve = calibration_curve(
        [(codes, pred.score, truth) for (codes, truth), pred in zip(pairs, preds)]
    )
    _write_text(out / "calibration.tsv", format_calibration(curve) + "\n")
    _write_provenance(out, cfg, args)
    base = curve.rows[0].f_accepted
    print(f"calibration curve written; F at zero rejection {base:.4f}" if base is not None else
          "calibration curve written")
    return 0


def _cmd_report(args: argparse.Namespace, cfg: RunConfig, out: Path) -> int:
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


class _Command(typing.NamedTuple):
    handler: typing.Callable[[argparse.Namespace, RunConfig, Path], int]
    summary: str
    paths: tuple[str, ...]  # each is a required --flag and a provenance input role
    flags: dict[str, tuple[str, ...]]  # flag -> the config keys it sets; flags beat --set


_TRAINING = ("train", "val", "src_tok", "tgt_tok")

_COMMANDS: dict[str, _Command] = {
    "gen-data": _Command(
        _cmd_gen_data, "generate a synthetic corpus", (),
        {"--n": ("synth.n_records",), "--seed": ("synth.seed",)},
    ),
    "split": _Command(
        _cmd_split, "per-year stratified train/val/test split", ("corpus",),
        {
            "--val-per-year": ("split.val_per_year",),
            "--test-per-year": ("split.test_per_year",),
            "--seed": ("split.seed",),
        },
    ),
    "tokenize": _Command(
        _cmd_tokenize, "learn source and target BPE tokenizers", ("corpus",),
        {"--src-vocab": ("tokenize.src_vocab",), "--tgt-vocab": ("tokenize.tgt_vocab",)},
    ),
    "train": _Command(
        _cmd_train, "train one model", _TRAINING,
        {"--max-steps": ("train.max_steps",), "--seed": ("train.seed", "model.seed")},
    ),
    "search": _Command(
        _cmd_search, "random hyperparameter search", _TRAINING,
        {"--trials": ("search.n_trials",), "--seed": ("search.seed",)},
    ),
    "predict": _Command(
        _cmd_predict, "beam-decode a corpus with one checkpoint",
        ("checkpoint", "corpus", "src_tok", "tgt_tok"),
        {"--beam-width": ("decode.beam_width",), "--alpha": ("decode.alpha",)},
    ),
    "ensemble-select": _Command(
        _cmd_ensemble_select, "greedy consensus member selection",
        ("checkpoints", "val", "src_tok", "tgt_tok"), {},
    ),
    "ensemble-predict": _Command(
        _cmd_ensemble_predict, "consensus predictions from a manifest",
        ("manifest", "corpus", "src_tok", "tgt_tok"), {},
    ),
    "evaluate": _Command(
        _cmd_evaluate, "micro metrics, CIs, strata, chapters", ("predictions", "corpus"), {},
    ),
    "calibrate": _Command(
        _cmd_calibrate, "score-threshold rejection curve", ("predictions", "corpus"), {},
    ),
    "report": _Command(_cmd_report, "summarize a run directory", ("dir",), {}),
}
_HELP = {
    "--n": "number of certificates",
    "--checkpoints": "comma-separated checkpoint paths",
    "--dir": "directory holding evaluate/calibrate outputs",
}


def build_parser() -> _Parser:
    parser = _Parser(prog="medseq", description=__doc__)
    parser.add_argument("--version", action="version", version=f"medseq {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.summary)
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument(
            "--set", action="append", default=[], metavar="KEY=VALUE",
            help="override one config key (repeatable)",
        )
        p.add_argument("--out-dir", default=".", help="directory for outputs and the config echo")
        for path in command.paths:
            flag = "--" + path.replace("_", "-")
            p.add_argument(flag, required=True, help=_HELP.get(flag))
        for flag, keys in command.flags.items():
            p.add_argument(flag, type=_KEYS[keys[0]][0], help=_HELP.get(flag))
        p.set_defaults(func=command.handler)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args, _load_cfg(args), _out_dir(args))
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
