"""Adam training with the warmup learning-rate schedule, checkpointing,
and random hyperparameter search.

The batch size is derived from the hidden size (floor(100*512/hidden))
unless overridden.  Each step computes the loss and gradients of the whole
batch on one tape.  Dropout masks come from one generator keyed by
(seed, step), so a run is reproducible from its seed.  Training stops with
a DivergenceError, naming the step and the worst parameter group, as soon
as the loss or any gradient is non-finite.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from dataclasses import dataclass, field, replace

import numpy as np

from .config import atomic_open
from .decoding import greedy_decode
from .errors import ConfigError, DivergenceError, ShapeError, ValidationError
from .metrics import micro_metrics
from .tensor import GeneratorDropout, Tape, Tensor
from .textprep import (
    BOS_ID,
    EOS_ID,
    PAD_ID,
    TokenizerModel,
    TrainingPair,
    encode,
    tokenizer_fingerprint,
)
from .transformer import (
    ModelConfig,
    TransformerModel,
    _parameter_shapes,
    init_model,
    sequence_loss,
    sinusoid_table,
)

PAPER_WARMUP_STEPS = 16000
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.997
ADAM_EPS = 1e-9


def derived_batch_size(hidden_size: int) -> int:
    """floor(100 * 512 / hidden_size) certificates per batch."""
    if hidden_size <= 0:
        raise ConfigError(f"hidden_size must be positive, got {hidden_size}")
    return (100 * 512) // hidden_size


def learning_rate(step: int, hidden_size: int, factor: float, warmup: int) -> float:
    """factor * hidden^-0.5 * min(step^-0.5, step * warmup^-1.5).

    Rises linearly to the peak at step == warmup, then decays as step^-0.5.
    """
    if step < 1:
        raise ValidationError(f"step must be >= 1, got {step}")
    return factor * hidden_size ** -0.5 * min(step ** -0.5, step * warmup ** -1.5)


@dataclass(frozen=True)
class TrainConfig:
    learning_rate_factor: float = 2.0
    warmup_steps: int = 400          # paper scale uses PAPER_WARMUP_STEPS
    max_steps: int = 2000
    batch_size: int | None = None    # None -> derived_batch_size(hidden)
    seed: int = 0
    eval_every: int = 200            # 0 disables validation decoding
    early_stop_patience: int = 0     # evaluations without improvement; 0 = off
    log_every: int = 50
    val_limit: int | None = None     # cap validation records per evaluation

    def __post_init__(self) -> None:
        if self.learning_rate_factor < 0:
            raise ConfigError(f"learning_rate_factor must be >= 0, got {self.learning_rate_factor}")
        if self.warmup_steps < 1 or self.max_steps < 1 or self.log_every < 1:
            raise ConfigError("warmup_steps, max_steps and log_every must be >= 1")
        if self.batch_size is not None and self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.eval_every < 0 or self.early_stop_patience < 0:
            raise ConfigError("eval_every and early_stop_patience must be >= 0")
        if self.val_limit is not None and self.val_limit < 1:
            raise ConfigError(f"val_limit must be >= 1, got {self.val_limit}")


@dataclass
class OptimizerState:
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    step: int = 0

    @classmethod
    def for_params(cls, params: dict[str, Tensor]) -> "OptimizerState":
        return cls(
            m={k: np.zeros_like(p.data) for k, p in params.items()},
            v={k: np.zeros_like(p.data) for k, p in params.items()},
            step=0,
        )


def adam_step(
    params: dict[str, Tensor],
    grads: dict[str, np.ndarray],
    state: OptimizerState,
    rate: float,
    beta1: float = ADAM_BETA1,
    beta2: float = ADAM_BETA2,
    eps: float = ADAM_EPS,
) -> None:
    """One in-place Adam update with bias correction."""
    state.step += 1
    t = state.step
    bc1 = 1.0 - beta1 ** t
    bc2 = 1.0 - beta2 ** t
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.data.shape:
            raise ShapeError(f"gradient for {name}: {g.shape} vs parameter {p.data.shape}")
        m = state.m[name]
        v = state.v[name]
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * (g * g)
        p.data -= rate * (m / bc1) / (np.sqrt(v / bc2) + eps)


@dataclass(frozen=True)
class EncodedPair:
    id: str
    src: tuple[int, ...]
    side: tuple[int, int, int, int]
    tgt: tuple[int, ...]  # BOS, code tokens, EOS
    gold: tuple[str, ...]


def encode_pairs(
    pairs: list[TrainingPair],
    src_tok: TokenizerModel,
    tgt_tok: TokenizerModel,
    cfg: ModelConfig,
) -> list[EncodedPair]:
    out = []
    for pair in pairs:
        src = encode(src_tok, pair.source_text, max_len=cfg.max_src_len, record_id=pair.id)
        codes = tuple(c.text for c in pair.target_codes)
        tgt_body = encode(tgt_tok, " ".join(codes), max_len=cfg.max_tgt_len - 1, record_id=pair.id)
        out.append(
            EncodedPair(
                id=pair.id,
                src=tuple(src),
                side=pair.side.as_tuple(),
                tgt=(BOS_ID,) + tuple(tgt_body) + (EOS_ID,),
                gold=codes,
            )
        )
    return out


def pad_batch(pairs: list[EncodedPair]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pack pairs into PAD-filled (src, side, tgt) integer matrices."""
    if not pairs:
        raise ValidationError("empty batch")
    max_src = max(len(p.src) for p in pairs)
    max_tgt = max(len(p.tgt) for p in pairs)
    src = np.full((len(pairs), max_src), PAD_ID, dtype=np.int64)
    tgt = np.full((len(pairs), max_tgt), PAD_ID, dtype=np.int64)
    side = np.zeros((len(pairs), 4), dtype=np.int64)
    for i, p in enumerate(pairs):
        src[i, : len(p.src)] = p.src
        tgt[i, : len(p.tgt)] = p.tgt
        side[i] = p.side
    return src, side, tgt


def loss_and_grads(
    model: TransformerModel,
    src: np.ndarray,
    side: np.ndarray,
    tgt: np.ndarray,
    seed: int = 0,
    step: int = 1,
) -> tuple[float, dict[str, np.ndarray]]:
    """Teacher-forced loss and gradients of one batch; dropout masks are
    drawn from a generator keyed by (seed, step)."""
    if not (tgt[:, 1:] != PAD_ID).any():
        raise ValidationError("batch contains no target tokens")
    source = GeneratorDropout((seed, step))
    with Tape() as tape:
        loss = sequence_loss(model, src, side, tgt, train=True, source=source)
        grads = tape.gradients(loss, model.parameters)
    return float(loss.data), grads


def check_finite(step: int, loss: float, grads: dict[str, np.ndarray]) -> None:
    """Raise DivergenceError if the loss or any gradient is non-finite.

    The message names the step and the worst parameter group: the one with
    the most non-finite gradient entries, a group being a parameter name
    without its last dotted part (``dec0.ffn.w1`` -> ``dec0.ffn``).
    """
    bad: dict[str, list[int]] = {}
    for name, g in grads.items():
        n_bad = g.size - int(np.isfinite(g).sum())
        if n_bad:
            group = bad.setdefault(name.rpartition(".")[0] or name, [0, 0])
            group[0] += n_bad
            group[1] += g.size
    if not bad and math.isfinite(loss):
        return
    if not bad:
        raise DivergenceError(f"non-finite loss {loss} at step {step}; all gradients finite")
    worst = max(bad, key=lambda k: bad[k][0])
    n_bad, size = bad[worst]
    raise DivergenceError(
        f"non-finite gradient at step {step} (loss {loss}) in {len(bad)} parameter groups; "
        f"worst {worst}: {n_bad} of {size} entries"
    )


@dataclass(frozen=True)
class LogEntry:
    step: int
    loss: float
    lr: float
    val_f: float | None = None


def format_log(log: list[LogEntry] | tuple[LogEntry, ...]) -> list[str]:
    """Append-only text lines: step, loss, lr, optional validation F."""
    out = []
    for e in log:
        val = f"{e.val_f:.6f}" if e.val_f is not None else ""
        out.append(f"{e.step}\t{e.loss:.6f}\t{e.lr:.8e}\t{val}")
    return out


def validation_f(
    model: TransformerModel,
    tgt_tok: TokenizerModel,
    enc_pairs: list[EncodedPair],
    batch_size: int,
    limit: int | None = None,
) -> float:
    """Micro F of greedy decoding against the gold code sequences."""
    subset = enc_pairs[:limit] if limit else enc_pairs
    if not subset:
        raise ValidationError("validation set is empty")
    chunk_size = max(1, min(batch_size, 256))
    pairs = []
    for start in range(0, len(subset), chunk_size):
        chunk = subset[start : start + chunk_size]
        src, side, _ = pad_batch(chunk)
        preds = greedy_decode(model, tgt_tok, src, side, record_ids=[p.id for p in chunk])
        pairs.extend((pred.codes, p.gold) for pred, p in zip(preds, chunk))
    return micro_metrics(pairs).f_measure


# ----------------------------------------------------------------------
# Checkpoint container
# ----------------------------------------------------------------------

_CKPT_MAGIC = b"MEDSEQ-CKPT\n"
_CKPT_VERSION = b"1\n"
_DTYPE_CODES = {"float32": b"f4", "float64": b"f8"}
_CODE_DTYPES = {b"f4": "<f4", b"f8": "<f8"}


@dataclass
class Checkpoint:
    """Versioned single-file container; save -> load -> save is byte-identical."""

    model_config: ModelConfig
    params: dict[str, np.ndarray]
    adam_m: dict[str, np.ndarray] = field(default_factory=dict)
    adam_v: dict[str, np.ndarray] = field(default_factory=dict)
    opt_step: int = 0
    src_tok_sha256: str = ""
    tgt_tok_sha256: str = ""
    log_tail: tuple[str, ...] = ()


def checkpoint_bytes(ckpt: Checkpoint) -> bytes:
    header_lines = []
    cfg = ckpt.model_config.to_dict()
    for key in sorted(cfg):
        header_lines.append(f"model.{key}={json.dumps(cfg[key])}")
    header_lines.append(f"optimizer.step={ckpt.opt_step}")
    header_lines.append(f"tokenizer.src_sha256={json.dumps(ckpt.src_tok_sha256)}")
    header_lines.append(f"tokenizer.tgt_sha256={json.dumps(ckpt.tgt_tok_sha256)}")
    for i, line in enumerate(ckpt.log_tail):
        header_lines.append(f"log.{i}={json.dumps(line)}")
    header = ("\n".join(header_lines) + "\n").encode("utf-8")

    tensors: dict[str, np.ndarray] = {}
    for name, arr in ckpt.params.items():
        tensors[f"param.{name}"] = arr
    for name, arr in ckpt.adam_m.items():
        tensors[f"adam.m.{name}"] = arr
    for name, arr in ckpt.adam_v.items():
        tensors[f"adam.v.{name}"] = arr

    parts = [_CKPT_MAGIC, _CKPT_VERSION, struct.pack("<I", len(header)), header]
    parts.append(struct.pack("<I", len(tensors)))
    for name in sorted(tensors):
        arr = tensors[name]
        if arr.dtype.name not in _DTYPE_CODES:
            raise ValidationError(f"checkpoint tensor {name} has unsupported dtype {arr.dtype}")
        nb = name.encode("utf-8")
        raw = arr.astype("<" + _DTYPE_CODES[arr.dtype.name].decode(), copy=False).tobytes(order="C")
        parts.append(struct.pack("<H", len(nb)))
        parts.append(nb)
        parts.append(_DTYPE_CODES[arr.dtype.name])
        parts.append(struct.pack("<B", arr.ndim))
        for dim in arr.shape:
            parts.append(struct.pack("<I", dim))
        parts.append(struct.pack("<Q", len(raw)))
        parts.append(raw)
    body = b"".join(parts)
    return body + hashlib.sha256(body).digest()


def checkpoint_from_bytes(data: bytes) -> Checkpoint:
    if len(data) < 32 + len(_CKPT_MAGIC) + len(_CKPT_VERSION):
        raise ValidationError("checkpoint truncated")
    body, digest = data[:-32], data[-32:]
    if hashlib.sha256(body).digest() != digest:
        raise ValidationError("checkpoint checksum mismatch")
    try:
        return _parse_checkpoint(body)
    except ValueError as exc:  # bad UTF-8, JSON, integer or shape under a valid checksum
        raise ValidationError(f"malformed checkpoint: {exc}")


def _parse_checkpoint(body: bytes) -> Checkpoint:
    view = memoryview(body)
    pos = 0

    def take(n: int) -> bytes:
        nonlocal pos
        if pos + n > len(view):
            raise ValidationError("checkpoint truncated")
        out = bytes(view[pos : pos + n])
        pos += n
        return out

    if take(len(_CKPT_MAGIC)) != _CKPT_MAGIC:
        raise ValidationError("not a checkpoint file")
    if take(len(_CKPT_VERSION)) != _CKPT_VERSION:
        raise ValidationError("unsupported checkpoint version")
    (header_len,) = struct.unpack("<I", take(4))
    header = take(header_len).decode("utf-8")

    model_cfg: dict = {}
    opt_step = 0
    src_sha = tgt_sha = ""
    log_lines: dict[int, str] = {}
    for line in header.splitlines():
        if not line:
            continue
        key, _, value = line.partition("=")
        if key.startswith("model."):
            model_cfg[key[len("model."):]] = json.loads(value)
        elif key == "optimizer.step":
            opt_step = int(value)
        elif key == "tokenizer.src_sha256":
            src_sha = json.loads(value)
        elif key == "tokenizer.tgt_sha256":
            tgt_sha = json.loads(value)
        elif key.startswith("log."):
            log_lines[int(key[len("log."):])] = json.loads(value)
        else:
            raise ValidationError(f"unknown checkpoint header key {key!r}")

    (n_tensors,) = struct.unpack("<I", take(4))
    params: dict[str, np.ndarray] = {}
    adam_m: dict[str, np.ndarray] = {}
    adam_v: dict[str, np.ndarray] = {}
    for _ in range(n_tensors):
        (name_len,) = struct.unpack("<H", take(2))
        name = take(name_len).decode("utf-8")
        code = take(2)
        if code not in _CODE_DTYPES:
            raise ValidationError(f"tensor {name}: unknown dtype code {code!r}")
        (ndim,) = struct.unpack("<B", take(1))
        shape = tuple(struct.unpack("<I", take(4))[0] for _ in range(ndim))
        (nbytes,) = struct.unpack("<Q", take(8))
        arr = np.frombuffer(take(nbytes), dtype=_CODE_DTYPES[code]).reshape(shape).copy()
        if name.startswith("param."):
            params[name[len("param."):]] = arr
        elif name.startswith("adam.m."):
            adam_m[name[len("adam.m."):]] = arr
        elif name.startswith("adam.v."):
            adam_v[name[len("adam.v."):]] = arr
        else:
            raise ValidationError(f"unknown checkpoint tensor {name!r}")
    if pos != len(view):
        raise ValidationError("checkpoint has trailing bytes")

    return Checkpoint(
        model_config=ModelConfig.from_dict(model_cfg),
        params=params,
        adam_m=adam_m,
        adam_v=adam_v,
        opt_step=opt_step,
        src_tok_sha256=src_sha,
        tgt_tok_sha256=tgt_sha,
        log_tail=tuple(log_lines[i] for i in sorted(log_lines)),
    )


def save_checkpoint(ckpt: Checkpoint, path: str) -> None:
    with atomic_open(path, "wb") as fh:
        fh.write(checkpoint_bytes(ckpt))


def load_checkpoint(path: str) -> Checkpoint:
    with open(path, "rb") as fh:
        return checkpoint_from_bytes(fh.read())


def checkpoint_sha256(ckpt: Checkpoint) -> str:
    return hashlib.sha256(checkpoint_bytes(ckpt)).hexdigest()


def model_from_checkpoint(ckpt: Checkpoint) -> TransformerModel:
    cfg = ckpt.model_config
    expected = [name for name, _, _ in _parameter_shapes(cfg)]
    missing = set(expected) - set(ckpt.params)
    extra = set(ckpt.params) - set(expected)
    if missing or extra:
        raise ValidationError(
            f"checkpoint parameters do not match config: missing {sorted(missing)}, extra {sorted(extra)}"
        )
    params = {name: Tensor(ckpt.params[name].copy()) for name in expected}
    return TransformerModel(
        config=cfg,
        parameters=params,
        pos_src=sinusoid_table(cfg.max_src_len, cfg.hidden_size, cfg.np_dtype),
        pos_tgt=sinusoid_table(cfg.max_tgt_len, cfg.hidden_size, cfg.np_dtype),
    )


# ----------------------------------------------------------------------
# Training loop
# ----------------------------------------------------------------------


@dataclass
class TrainResult:
    checkpoint: Checkpoint
    log: tuple[LogEntry, ...]
    best_val_f: float | None
    best_step: int


def _snapshot(model: TransformerModel, state: OptimizerState) -> tuple[dict, dict, dict, int]:
    params = {k: p.data.copy() for k, p in model.parameters.items()}
    m = {k: a.copy() for k, a in state.m.items()}
    v = {k: a.copy() for k, a in state.v.items()}
    return params, m, v, state.step


def train(
    model: TransformerModel,
    train_pairs: list[TrainingPair],
    val_pairs: list[TrainingPair],
    src_tok: TokenizerModel,
    tgt_tok: TokenizerModel,
    config: TrainConfig,
) -> TrainResult:
    """Train in place; returns the best-validation checkpoint and the log.

    Deterministic given the seed when run single-threaded.  Aborts with
    DivergenceError as soon as the loss or a gradient goes non-finite.
    """
    if not train_pairs:
        raise ValidationError("no training pairs")
    cfg = model.config
    enc_train = encode_pairs(train_pairs, src_tok, tgt_tok, cfg)
    enc_val = encode_pairs(val_pairs, src_tok, tgt_tok, cfg)
    batch_size = config.batch_size or derived_batch_size(cfg.hidden_size)

    rng = np.random.default_rng(config.seed)
    state = OptimizerState.for_params(model.parameters)
    log: list[LogEntry] = []
    best: tuple[dict, dict, dict, int] | None = None
    best_f: float | None = None
    best_step = 0
    evals_since_best = 0

    n = len(enc_train)
    order = rng.permutation(n)
    cursor = 0
    stop = False
    step = 0
    while step < config.max_steps and not stop:
        step += 1
        if cursor >= n:
            order = rng.permutation(n)
            cursor = 0
        batch_ids = order[cursor : cursor + batch_size]
        cursor += batch_size
        src, side, tgt = pad_batch([enc_train[i] for i in batch_ids])

        rate = learning_rate(step, cfg.hidden_size, config.learning_rate_factor, config.warmup_steps)
        loss, grads = loss_and_grads(model, src, side, tgt, seed=config.seed, step=step)
        check_finite(step, loss, grads)
        adam_step(model.parameters, grads, state, rate)

        evaluate_now = config.eval_every and enc_val and (
            step % config.eval_every == 0 or step == config.max_steps
        )
        if evaluate_now:
            f = validation_f(model, tgt_tok, enc_val, batch_size, config.val_limit)
            log.append(LogEntry(step=step, loss=loss, lr=rate, val_f=f))
            if best_f is None or f > best_f:
                best_f = f
                best = _snapshot(model, state)
                best_step = step
                evals_since_best = 0
            else:
                evals_since_best += 1
                if config.early_stop_patience and evals_since_best >= config.early_stop_patience:
                    stop = True
        elif step % config.log_every == 0 or step == 1:
            log.append(LogEntry(step=step, loss=loss, lr=rate))

    if best is None:
        best = _snapshot(model, state)
        best_step = step
    params, m, v, opt_step = best
    tail = tuple(format_log(log)[-50:])
    ckpt = Checkpoint(
        model_config=cfg,
        params=params,
        adam_m=m,
        adam_v=v,
        opt_step=opt_step,
        src_tok_sha256=tokenizer_fingerprint(src_tok),
        tgt_tok_sha256=tokenizer_fingerprint(tgt_tok),
        log_tail=tail,
    )
    return TrainResult(checkpoint=ckpt, log=tuple(log), best_val_f=best_f, best_step=best_step)


# ----------------------------------------------------------------------
# Random hyperparameter search
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class SearchSpace:
    """Sampling bounds; the defaults are the documented search distributions."""

    hidden_range: tuple[int, int] = (256, 512)
    dropout_range: tuple[float, float] = (0.0, 0.2)
    lr_factors: tuple[float, ...] = (1.0, 2.0)
    n_trials: int = 40

    def __post_init__(self) -> None:
        if self.hidden_range[0] > self.hidden_range[1] or self.hidden_range[0] < 2:
            raise ConfigError(f"bad hidden_range {self.hidden_range}")
        if not 0.0 <= self.dropout_range[0] <= self.dropout_range[1] < 1.0:
            raise ConfigError(f"bad dropout_range {self.dropout_range}")
        if self.n_trials < 1 or not self.lr_factors:
            raise ConfigError("need at least one trial and one lr factor")


@dataclass(frozen=True)
class TrialSpec:
    index: int
    hidden_size: int
    lr_factor: float
    layer_postprocess_dropout: float
    attention_dropout: float
    relu_dropout: float
    batch_size: int
    seed: int


def sample_trials(space: SearchSpace, n_heads: int, seed: int) -> list[TrialSpec]:
    """Draw trial specs; hidden sizes are restricted to head-divisible even
    values inside the range, batch size is derived rather than sampled."""
    rng = np.random.default_rng(seed)
    lo, hi = space.hidden_range
    step = n_heads if n_heads % 2 == 0 else 2 * n_heads
    valid_hidden = [h for h in range(lo, hi + 1) if h % step == 0]
    if not valid_hidden:
        raise ConfigError(f"no usable hidden size in {space.hidden_range} for {n_heads} heads")
    trials = []
    for i in range(space.n_trials):
        hidden = int(valid_hidden[rng.integers(0, len(valid_hidden))])
        factor = float(space.lr_factors[rng.integers(0, len(space.lr_factors))])
        d_lo, d_hi = space.dropout_range
        drops = rng.uniform(d_lo, d_hi, size=3)
        trials.append(
            TrialSpec(
                index=i,
                hidden_size=hidden,
                lr_factor=factor,
                layer_postprocess_dropout=float(drops[0]),
                attention_dropout=float(drops[1]),
                relu_dropout=float(drops[2]),
                batch_size=derived_batch_size(hidden),
                seed=int(rng.integers(0, 2 ** 31)),
            )
        )
    return trials


@dataclass
class TrialResult:
    spec: TrialSpec
    val_f: float
    best_step: int
    checkpoint: Checkpoint


def random_search(
    space: SearchSpace,
    model_template: ModelConfig,
    train_template: TrainConfig,
    train_pairs: list[TrainingPair],
    val_pairs: list[TrainingPair],
    src_tok: TokenizerModel,
    tgt_tok: TokenizerModel,
    seed: int,
) -> list[TrialResult]:
    """Train every sampled trial; rank by validation F, best first.

    The ffn size follows the sampled hidden size at the usual 4x ratio.
    """
    if not val_pairs:
        raise ValidationError("random search needs a validation set")
    trials = sample_trials(space, model_template.n_heads, seed)
    results = []
    for spec in trials:
        cfg = replace(
            model_template,
            hidden_size=spec.hidden_size,
            ffn_size=4 * spec.hidden_size,
            layer_postprocess_dropout=spec.layer_postprocess_dropout,
            attention_dropout=spec.attention_dropout,
            relu_dropout=spec.relu_dropout,
        )
        t_cfg = replace(
            train_template,
            learning_rate_factor=spec.lr_factor,
            batch_size=spec.batch_size,
            seed=spec.seed,
        )
        model = init_model(cfg, seed=spec.seed)
        result = train(model, train_pairs, val_pairs, src_tok, tgt_tok, t_cfg)
        val_f = result.best_val_f
        if val_f is None:
            val_f = validation_f(
                model_from_checkpoint(result.checkpoint), tgt_tok,
                encode_pairs(val_pairs, src_tok, tgt_tok, cfg),
                t_cfg.batch_size or derived_batch_size(cfg.hidden_size),
            )
        results.append(
            TrialResult(spec=spec, val_f=val_f, best_step=result.best_step, checkpoint=result.checkpoint)
        )
    results.sort(key=lambda r: (-r.val_f, r.spec.index))
    return results


def format_trial_table(results: list[TrialResult]) -> str:
    lines = ["rank\ttrial\thidden\tlr_factor\tbatch\tpostproc_drop\tattn_drop\trelu_drop\tval_f"]
    for rank, r in enumerate(results, start=1):
        s = r.spec
        lines.append(
            f"{rank}\t{s.index}\t{s.hidden_size}\t{s.lr_factor}\t{s.batch_size}"
            f"\t{s.layer_postprocess_dropout:.4f}\t{s.attention_dropout:.4f}"
            f"\t{s.relu_dropout:.4f}\t{r.val_f:.6f}"
        )
    return "\n".join(lines)
