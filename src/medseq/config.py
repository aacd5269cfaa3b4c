"""Flat dotted-key run configuration shared by all CLI subcommands.

Sources merge in fixed precedence: built-in defaults, then the MEDSEQ_SEED
environment fallback (applies to every *.seed key), then the config file,
then --set overrides, then dedicated command flags.  Unknown keys are
rejected so typos fail loudly.  The module also holds the file helpers that
every artifact reader and writer shares.
"""

from __future__ import annotations

import hashlib
import os
from contextlib import contextmanager
from typing import IO, Iterator, Mapping

from .errors import ConfigError

# key -> (type, default).  0 means "derived"/"disabled" where noted.
_KEYS: dict[str, tuple[type, object]] = {
    "synth.n_records": (int, 2000),
    "synth.seed": (int, 0),
    "synth.p_paper_origin": (float, 0.90),
    "synth.p_bang_given_paper": (float, 0.10),
    "synth.p_misalign": (float, 0.02),
    "split.val_per_year": (int, 50),
    "split.test_per_year": (int, 50),
    "split.seed": (int, 0),
    "tokenize.src_vocab": (int, 2033),
    "tokenize.tgt_vocab": (int, 500),
    "model.hidden_size": (int, 64),
    "model.n_layers_enc": (int, 2),
    "model.n_layers_dec": (int, 2),
    "model.n_heads": (int, 4),
    "model.ffn_size": (int, 256),
    "model.layer_postprocess_dropout": (float, 0.1),
    "model.attention_dropout": (float, 0.1),
    "model.relu_dropout": (float, 0.1),
    "model.max_src_len": (int, 128),
    "model.max_tgt_len": (int, 21),
    "model.label_smoothing": (float, 0.1),
    "model.dtype": (str, "float32"),
    "model.seed": (int, 0),
    "train.learning_rate_factor": (float, 2.0),
    "train.warmup_steps": (int, 400),
    "train.max_steps": (int, 2000),
    "train.batch_size": (int, 0),       # 0 -> derived from hidden size
    "train.seed": (int, 0),
    "train.eval_every": (int, 200),
    "train.early_stop_patience": (int, 0),
    "train.log_every": (int, 50),
    "train.val_limit": (int, 0),        # 0 -> use the whole validation set
    "search.n_trials": (int, 3),
    "search.hidden_min": (int, 256),
    "search.hidden_max": (int, 512),
    "search.dropout_min": (float, 0.0),
    "search.dropout_max": (float, 0.2),
    "search.seed": (int, 0),
    "decode.beam_width": (int, 4),
    "decode.alpha": (float, 0.6),
    "eval.bootstrap_b": (int, 1000),
    "eval.bootstrap_level": (float, 0.95),
    "eval.bootstrap_seed": (int, 0),
}

SEED_ENV_VAR = "MEDSEQ_SEED"


def _parse_value(key: str, raw: str) -> object:
    kind, _ = _KEYS[key]
    try:
        if kind is int:
            return int(raw)
        if kind is float:
            return float(raw)
        return raw
    except ValueError:
        raise ConfigError(f"config key {key}: cannot parse {raw!r} as {kind.__name__}")


class RunConfig:
    """Typed view over the merged key-value configuration."""

    def __init__(self) -> None:
        self._values: dict[str, object] = {k: d for k, (_, d) in _KEYS.items()}

    def set_kv(self, key: str, raw: str) -> None:
        if key not in _KEYS:
            raise ConfigError(f"unknown config key {key!r}")
        self._values[key] = _parse_value(key, raw.strip())

    def set_typed(self, key: str, value: object) -> None:
        if key not in _KEYS:
            raise ConfigError(f"unknown config key {key!r}")
        kind, _ = _KEYS[key]
        self._values[key] = kind(value)

    def get_int(self, key: str) -> int:
        return int(self._values[key])

    def get_float(self, key: str) -> float:
        return float(self._values[key])

    def get_str(self, key: str) -> str:
        return str(self._values[key])

    @classmethod
    def load(
        cls,
        config_path: str | None = None,
        overrides: list[str] | None = None,
        env: Mapping[str, str] | None = None,
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
        try:
            with open(path, encoding="utf-8") as fh:
                lines = fh.readlines()
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}")
        for line_no, line in enumerate(lines, start=1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            key, sep, raw = text.partition("=")
            if not sep:
                raise ConfigError(f"{path}:{line_no}: expected key=value, got {text!r}")
            self.set_kv(key.strip(), raw)

    def effective_text(self) -> str:
        """Canonical sorted key=value lines for echoing into run directories."""
        return "\n".join(f"{k}={self._values[k]}" for k in sorted(self._values)) + "\n"

    def sha256(self) -> str:
        return hashlib.sha256(self.effective_text().encode("utf-8")).hexdigest()


def file_sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


@contextmanager
def atomic_open(path, mode: str = "w") -> Iterator[IO]:
    """Write `path` all at once: a killed or failing writer leaves it as it was.

    Yields a file opened on a fresh temporary name in the same directory
    (UTF-8 with "\\n" newlines for mode "w", bytes for "wb").  A clean exit
    renames it over `path`; an exception removes it.  There is no fsync: this
    guards against a killed process, not against power loss.
    """
    if mode not in ("w", "wb"):
        raise ValueError(f"atomic_open mode must be 'w' or 'wb', got {mode!r}")
    directory, name = os.path.split(os.fspath(path))
    tmp = os.path.join(directory, f".{name}.{os.urandom(4).hex()}.tmp")
    text = {} if mode == "wb" else {"encoding": "utf-8", "newline": "\n"}
    fh = open(tmp, mode.replace("w", "x"), **text)
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
