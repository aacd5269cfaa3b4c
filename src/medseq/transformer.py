"""Conditional Transformer encoder-decoder.

Standard pre-norm architecture with one twist: four categorical side
variables (age bucket, year, gender, origin) are embedded and summed, and
the sum is broadcast-added to every position of the embedded source
sequence.  The decoder sees the conditioning only through cross-attention.

The teacher-forced stacks keep their residual stream as packed (n, h) rows,
one per non-PAD position, so embeddings, norms, feed-forward layers,
projections and dropout never compute PAD.  Attention pads too, but not to
the batch's longest record: each stack's records are cut into at most
``_MAX_CLASSES`` length classes, and ``tensor.ragged_attention`` pads each
class only to its own longest record.

``encode_source`` is the one encoder entry point: ``sequence_loss``,
``forward`` and decoding all read its packed memory rows, and
cross-attention projects its keys and values from them.  The cached decoder
step lays those keys and values out per record, zeros at PAD, in the padded
(rows, heads, len, head dim) layout of ``tensor.attention``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields

import numpy as np

from .errors import ConfigError, ValidationError
from .tensor import (
    GeneratorDropout,
    RaggedClass,
    RaggedPlan,
    Tensor,
    add,
    attention,
    cross_entropy,
    dropout,
    embedding_lookup,
    feed_forward,
    keep_mask,
    layer_norm,
    matmul,
    mul,
    put_rows,
    ragged_attention,
    reshape,
    take_rows,
    transpose,
)
from .textprep import PAD_ID

_MASK_BIAS = -1e9  # large negative logit bias; float32-safe
_MAX_CLASSES = 4  # length classes per attention plan


@dataclass(frozen=True)
class ModelConfig:
    src_vocab_size: int
    tgt_vocab_size: int
    hidden_size: int = 64
    n_layers_enc: int = 2
    n_layers_dec: int = 2
    n_heads: int = 4
    ffn_size: int = 256
    layer_postprocess_dropout: float = 0.1
    attention_dropout: float = 0.1
    relu_dropout: float = 0.1
    max_src_len: int = 128
    max_tgt_len: int = 21
    side_cardinalities: tuple[int, ...] = (25, 6, 2, 2)
    label_smoothing: float = 0.1
    dtype: str = "float32"

    def __post_init__(self) -> None:
        if self.hidden_size <= 0 or self.hidden_size % 2 != 0:
            raise ConfigError(f"hidden_size must be a positive even integer, got {self.hidden_size}")
        if self.hidden_size % self.n_heads != 0:
            raise ConfigError(
                f"hidden_size {self.hidden_size} not divisible by n_heads {self.n_heads}"
            )
        if min(self.n_layers_enc, self.n_layers_dec, self.n_heads, self.ffn_size) < 1:
            raise ConfigError("layer, head and ffn counts must be >= 1")
        for name in ("layer_postprocess_dropout", "attention_dropout", "relu_dropout", "label_smoothing"):
            v = getattr(self, name)
            if not 0.0 <= v < 1.0:
                raise ConfigError(f"{name} must be in [0, 1), got {v}")
        if min(self.src_vocab_size, self.tgt_vocab_size) <= 4:
            raise ConfigError("vocab sizes must exceed the 4 reserved ids")
        if self.max_src_len < 1 or self.max_tgt_len < 2:
            raise ConfigError("max lengths too small")
        if any(c < 1 for c in self.side_cardinalities):
            raise ConfigError(f"side cardinalities must be positive, got {self.side_cardinalities}")
        if self.dtype not in ("float32", "float64"):
            raise ConfigError(f"dtype must be float32 or float64, got {self.dtype}")

    @property
    def np_dtype(self) -> np.dtype:
        return np.dtype(self.dtype)

    def to_dict(self) -> dict:
        d = asdict(self)
        d["side_cardinalities"] = list(self.side_cardinalities)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        """Inverse of ``to_dict``: every field must be present, and nothing else."""
        names = [f.name for f in fields(cls)]
        missing = [name for name in names if name not in d]
        unknown = sorted(set(d) - set(names))
        if missing or unknown:
            raise ValidationError(f"model config: missing keys {missing}, unknown keys {unknown}")
        d = dict(d)
        try:
            d["side_cardinalities"] = tuple(d["side_cardinalities"])
            return cls(**d)
        except TypeError as exc:
            raise ValidationError(f"model config: a value has the wrong type ({exc})")


@dataclass
class TransformerModel:
    config: ModelConfig
    parameters: dict[str, Tensor]
    # Sinusoidal tables; derived from config, never trained or checkpointed.
    pos_src: np.ndarray
    pos_tgt: np.ndarray


def sinusoid_table(max_len: int, hidden: int, dtype: np.dtype) -> np.ndarray:
    """pe[p, 2i] = sin(p / 10000^(2i/h)), pe[p, 2i+1] = cos of the same."""
    positions = np.arange(max_len, dtype=np.float64)[:, None]
    exponents = np.arange(0, hidden, 2, dtype=np.float64) / hidden
    angles = positions / np.power(10000.0, exponents)[None, :]
    table = np.zeros((max_len, hidden), dtype=np.float64)
    table[:, 0::2] = np.sin(angles)
    table[:, 1::2] = np.cos(angles)
    return table.astype(dtype)


def _parameter_shapes(cfg: ModelConfig) -> list[tuple[str, tuple[int, ...], str]]:
    """(name, shape, init kind) in the fixed construction order.

    The order fixes the RNG draw order, which makes init deterministic.
    """
    h, f = cfg.hidden_size, cfg.ffn_size
    out: list[tuple[str, tuple[int, ...], str]] = [
        ("src_embed", (cfg.src_vocab_size, h), "embed"),
        ("tgt_embed", (cfg.tgt_vocab_size, h), "embed"),
    ]
    for i, card in enumerate(cfg.side_cardinalities):
        out.append((f"side_embed_{i}", (card, h), "embed"))

    def norm(prefix: str) -> list[tuple[str, tuple[int, ...], str]]:
        return [(f"{prefix}.gain", (h,), "ones"), (f"{prefix}.bias", (h,), "zeros")]

    def attn(prefix: str) -> list[tuple[str, tuple[int, ...], str]]:
        return [(f"{prefix}.{w}", (h, h), "glorot") for w in ("wq", "wk", "wv", "wo")]

    def ffn(prefix: str) -> list[tuple[str, tuple[int, ...], str]]:
        return [
            (f"{prefix}.w1", (h, f), "glorot"),
            (f"{prefix}.b1", (f,), "zeros"),
            (f"{prefix}.w2", (f, h), "glorot"),
            (f"{prefix}.b2", (h,), "zeros"),
        ]

    for i in range(cfg.n_layers_enc):
        out += norm(f"enc{i}.attn_norm") + attn(f"enc{i}.attn")
        out += norm(f"enc{i}.ffn_norm") + ffn(f"enc{i}.ffn")
    out += norm("enc.final_norm")
    for i in range(cfg.n_layers_dec):
        out += norm(f"dec{i}.self_norm") + attn(f"dec{i}.self_attn")
        out += norm(f"dec{i}.cross_norm") + attn(f"dec{i}.cross_attn")
        out += norm(f"dec{i}.ffn_norm") + ffn(f"dec{i}.ffn")
    out += norm("dec.final_norm")
    return out


def init_model(cfg: ModelConfig, seed: int) -> TransformerModel:
    """Deterministic init: one generator, fixed draw order over parameters."""
    rng = np.random.default_rng(seed)
    dt = cfg.np_dtype
    params: dict[str, Tensor] = {}
    for name, shape, kind in _parameter_shapes(cfg):
        if kind == "embed":
            arr = rng.normal(0.0, cfg.hidden_size ** -0.5, size=shape)
        elif kind == "glorot":
            limit = np.sqrt(6.0 / (shape[0] + shape[1]))
            arr = rng.uniform(-limit, limit, size=shape)
        elif kind == "ones":
            arr = np.ones(shape)
        else:
            arr = np.zeros(shape)
        params[name] = Tensor(arr.astype(dt))
    return TransformerModel(
        config=cfg,
        parameters=params,
        pos_src=sinusoid_table(cfg.max_src_len, cfg.hidden_size, dt),
        pos_tgt=sinusoid_table(cfg.max_tgt_len, cfg.hidden_size, dt),
    )


def param_count(cfg: ModelConfig) -> int:
    """Closed-form parameter count.

    embeddings: (src_vocab + tgt_vocab + sum(side_cards)) * h
    attention sublayer: 4h^2 weights + 2h norm
    ffn sublayer: 2hf + f + h weights/biases + 2h norm
    encoder: n_enc * (attn + ffn) + 2h final norm
    decoder: n_dec * (2*attn + ffn) + 2h final norm
    The output projection is the transposed target embedding, so it adds 0.
    """
    h, f = cfg.hidden_size, cfg.ffn_size
    embed = (cfg.src_vocab_size + cfg.tgt_vocab_size + sum(cfg.side_cardinalities)) * h
    attn = 4 * h * h + 2 * h
    ffn = 2 * h * f + f + h + 2 * h
    enc = cfg.n_layers_enc * (attn + ffn) + 2 * h
    dec = cfg.n_layers_dec * (2 * attn + ffn) + 2 * h
    return embed + enc + dec


def _check_side(cfg: ModelConfig, side_idx: np.ndarray) -> None:
    if side_idx.ndim != 2 or side_idx.shape[1] != len(cfg.side_cardinalities):
        raise ValidationError(
            f"side variables must be (batch, {len(cfg.side_cardinalities)}), got {side_idx.shape}"
        )
    for j, card in enumerate(cfg.side_cardinalities):
        col = side_idx[:, j]
        if col.size and (col.min() < 0 or col.max() >= card):
            raise ValidationError(f"side variable {j} outside [0, {card})")


def _pad_bias(ids: np.ndarray, dtype: np.dtype) -> np.ndarray:
    """(batch, 1, 1, len) additive bias hiding PAD keys from attention."""
    return np.where(ids == PAD_ID, _MASK_BIAS, 0.0).astype(dtype)[:, None, None, :]


def _causal_bias(length: int, dtype: np.dtype) -> np.ndarray:
    """(1, 1, len, len) additive bias hiding future positions."""
    upper = np.triu(np.full((length, length), _MASK_BIAS), k=1)
    return upper.astype(dtype)[None, None, :, :]


@dataclass(frozen=True)
class _Packing:
    """Where the non-PAD positions of a (batch, len) matrix sit.

    ``rows`` index the flattened matrix in row-major order.  The encoder and
    decoder stacks keep their residual stream as these packed (n, h) rows,
    so position-wise work never touches PAD.  ``slots`` is the (batch, len)
    map from position to packed row, -1 at PAD, and ``extents`` each
    record's last non-PAD position + 1 (at least 1).
    """

    rows: np.ndarray
    batch: int
    length: int
    slots: np.ndarray
    extents: np.ndarray

    @classmethod
    def of(cls, real: np.ndarray) -> "_Packing":
        """The packing of a boolean (batch, len) matrix, True at non-PAD."""
        batch, length = real.shape
        rows = np.flatnonzero(real.reshape(-1))
        slots = np.full(batch * length, -1, dtype=np.intp)
        slots[rows] = np.arange(rows.size)
        ends = length - np.argmax(real[:, ::-1], axis=1)
        extents = np.where(real.any(axis=1), ends, 1)
        return cls(rows, batch, length, slots.reshape(batch, length), extents)

    def padded(self, x: Tensor) -> Tensor:
        """Packed (n, w) rows as (batch, len, w), with zeros at PAD."""
        out = put_rows(x, self.rows, self.batch * self.length)
        return reshape(out, (self.batch, self.length) + x.shape[1:])


def _split_heads(x: Tensor, length: int, cfg: ModelConfig) -> Tensor:
    """(batch, len, h), or (batch·len, h) rows, -> (batch, heads, len, h / heads)."""
    shape = (-1, length, cfg.n_heads, cfg.hidden_size // cfg.n_heads)
    return transpose(reshape(x, shape), (0, 2, 1, 3))


def _project(
    params: dict[str, Tensor], name: str, x: Tensor, length: int, cfg: ModelConfig
) -> Tensor:
    """x @ params[name], split into heads of ``length`` positions."""
    return _split_heads(matmul(x, params[name]), length, cfg)


def _classes(q_ext: np.ndarray, k_ext: np.ndarray) -> list[np.ndarray]:
    """Records cut into at most ``_MAX_CLASSES`` classes of least cost.

    Records are sorted by key extent (then query extent), and classes are
    contiguous runs of that order that never split equal key extents.  A
    class costs its size × its longest query extent × its longest key
    extent: the score pairs it pads to.  Among least-cost cuts the one with
    the fewest classes wins, then the one whose cuts come first.
    """
    order = np.lexsort((q_ext, k_ext))
    k_sorted = k_ext[order]
    # Groups of equal key extent, each [edges[i], edges[i + 1]) of ``order``.
    edges = np.append(np.flatnonzero(np.diff(k_sorted, prepend=0)), order.size)
    m = edges.size - 1
    # cost[i, j]: groups i..j as one class, inf where j < i.
    top_q = np.maximum.reduceat(q_ext[order], edges[:-1])
    upper = np.arange(m)[:, None] <= np.arange(m)
    span_q = np.maximum.accumulate(np.where(upper, top_q, 0), axis=1)
    size = edges[1:] - edges[:-1, None]
    cost = np.where(upper, size * span_q * k_sorted[edges[1:] - 1], np.inf)
    best = [cost[0]]  # best[c - 1][j]: groups 0..j in c classes
    first = []  # first[c - 2][j]: where the last of those c classes starts
    for _ in range(1, min(_MAX_CLASSES, m)):
        total = best[-1][:-1, None] + cost[1:]
        first.append(total.argmin(axis=0) + 1)
        best.append(total.min(axis=0))
    n_classes = int(np.argmin([b[-1] for b in best])) + 1
    starts = [m]  # group boundaries of the classes, walked back from the end
    for c in range(n_classes - 1, 0, -1):
        starts.append(int(first[c - 1][starts[-1] - 1]))
    edges = edges[[0] + starts[::-1]]
    return [order[lo:hi] for lo, hi in zip(edges[:-1], edges[1:])]


def _attention_plan(
    q: _Packing, k: _Packing, bias: np.ndarray, cfg: ModelConfig
) -> RaggedPlan:
    """The ragged layout of attention from the rows of ``q`` over the rows
    of ``k``, record by record; ``bias`` is the (batch, 1, 1 or t_q, t_k)
    additive bias of the padded layout, sliced to each class."""
    classes = []
    for records in _classes(q.extents, k.extents):
        t_q, t_k = int(q.extents[records].max()), int(k.extents[records].max())
        classes.append(RaggedClass(
            q.slots[records, :t_q], k.slots[records, :t_k], bias[records, :, :t_q, :t_k]
        ))
    return RaggedPlan(cfg.n_heads, tuple(classes))


def _attend(
    q: Tensor,
    k: Tensor,
    v: Tensor,
    bias: np.ndarray | None,
    cfg: ModelConfig,
) -> Tensor:
    """softmax(q kᵀ / sqrt(d) + bias) v over split heads, merged into
    (batch·t_q, h) rows, before the output projection: the cached decoder
    step's attention.  Inference only: no dropout."""
    batch, t_q = q.shape[0], q.shape[2]
    ctx = attention(q, k, v, bias, float(cfg.hidden_size // cfg.n_heads) ** -0.5)
    return reshape(transpose(ctx, (0, 2, 1, 3)), (batch * t_q, cfg.hidden_size))


def _attention(
    params: dict[str, Tensor],
    prefix: str,
    x: Tensor,
    kv: Tensor,
    plan: RaggedPlan,
    cfg: ModelConfig,
    train: bool,
    source: GeneratorDropout | None,
) -> Tensor:
    """Attention of the packed rows ``x`` over the packed rows ``kv`` (``x``
    itself for self-attention), laid out by ``plan``, through wo."""
    q = matmul(x, params[f"{prefix}.wq"])
    k, v = (matmul(kv, params[f"{prefix}.{w}"]) for w in ("wk", "wv"))
    keeps = [
        keep_mask((n, plan.heads, t_q, t_k), cfg.attention_dropout, train, source, cfg.np_dtype)
        for n, t_q, t_k in (cls.shape for cls in plan.classes)
    ]
    ctx = ragged_attention(q, k, v, plan, float(cfg.hidden_size // cfg.n_heads) ** -0.5, keeps)
    return matmul(ctx, params[f"{prefix}.wo"])


def _ffn(
    params: dict[str, Tensor],
    prefix: str,
    x: Tensor,
    cfg: ModelConfig,
    train: bool,
    source: GeneratorDropout | None,
) -> Tensor:
    keep = keep_mask(x.shape[:-1] + (cfg.ffn_size,), cfg.relu_dropout, train, source, cfg.np_dtype)
    w1, b1, w2, b2 = (params[f"{prefix}.{w}"] for w in ("w1", "b1", "w2", "b2"))
    return feed_forward(x, w1, b1, w2, b2, keep)


def _normed(params: dict[str, Tensor], prefix: str, x: Tensor) -> Tensor:
    return layer_norm(x, params[f"{prefix}.gain"], params[f"{prefix}.bias"])


def _embed(
    model: TransformerModel, name: str, positions: np.ndarray, ids: np.ndarray, at: np.ndarray
) -> Tensor:
    """Rows of the embedding ``name`` * sqrt(h) plus the sinusoid rows at ``at``."""
    x = mul(embedding_lookup(model.parameters[name], ids), float(model.config.hidden_size) ** 0.5)
    return add(x, Tensor(positions[at]))


def _source_rows(
    model: TransformerModel,
    src_ids: np.ndarray,
    side_idx: np.ndarray,
    train: bool,
    source: GeneratorDropout | None,
) -> tuple[Tensor, _Packing]:
    """The encoder's input on the packed non-PAD rows: token embedding *
    sqrt(h) + position + the side-variable sum of the row's record, then
    dropout.

    The side sum lands after the positional term; addition commutes, so the
    ordering is cosmetic.
    """
    cfg = model.config
    params = model.parameters
    src_ids = np.asarray(src_ids)
    side_idx = np.asarray(side_idx)
    if src_ids.ndim != 2:
        raise ValidationError(f"src_ids must be (batch, len), got {src_ids.shape}")
    if src_ids.shape[1] > cfg.max_src_len:
        raise ValidationError(f"source length {src_ids.shape[1]} exceeds max {cfg.max_src_len}")
    _check_side(cfg, side_idx)
    packing = _Packing.of(src_ids != PAD_ID)
    at = packing.rows % packing.length
    x = _embed(model, "src_embed", model.pos_src, src_ids.reshape(-1)[packing.rows], at)
    cond = embedding_lookup(params["side_embed_0"], side_idx[:, 0])
    for j in range(1, len(cfg.side_cardinalities)):
        cond = add(cond, embedding_lookup(params[f"side_embed_{j}"], side_idx[:, j]))
    x = add(x, embedding_lookup(cond, packing.rows // packing.length))
    return dropout(x, cfg.layer_postprocess_dropout, train, source), packing


def encode_source(
    model: TransformerModel,
    src_ids: np.ndarray,
    side_idx: np.ndarray,
    train: bool = False,
    source: GeneratorDropout | None = None,
) -> tuple[Tensor, _Packing, np.ndarray]:
    """Run the encoder stack on the packed non-PAD rows; returns (memory
    rows, their packing, source padding bias)."""
    cfg = model.config
    params = model.parameters
    x, packing = _source_rows(model, src_ids, side_idx, train, source)
    src_bias = _pad_bias(np.asarray(src_ids), cfg.np_dtype)
    plan = _attention_plan(packing, packing, src_bias, cfg)
    for i in range(cfg.n_layers_enc):
        y = _normed(params, f"enc{i}.attn_norm", x)
        y = _attention(params, f"enc{i}.attn", y, y, plan, cfg, train, source)
        x = add(x, dropout(y, cfg.layer_postprocess_dropout, train, source))
        y = _ffn(params, f"enc{i}.ffn", _normed(params, f"enc{i}.ffn_norm", x), cfg, train, source)
        x = add(x, dropout(y, cfg.layer_postprocess_dropout, train, source))
    return _normed(params, "enc.final_norm", x), packing, src_bias


def _output_logits(params: dict[str, Tensor], x: Tensor) -> Tensor:
    """Final norm, then the transposed target embedding as output projection."""
    x = _normed(params, "dec.final_norm", x)
    return matmul(x, transpose(params["tgt_embed"], (1, 0)))


def _decoder_rows(
    model: TransformerModel,
    memory: Tensor,
    src_packing: _Packing,
    src_bias: np.ndarray,
    tgt_in_ids: np.ndarray,
    train: bool,
    source: GeneratorDropout | None,
) -> tuple[Tensor, _Packing]:
    """The decoder layers' output on the packed non-PAD rows of
    ``tgt_in_ids``, before the final norm; ``memory`` holds the encoder's
    rows, packed by ``src_packing``."""
    cfg = model.config
    params = model.parameters
    tgt_in_ids = np.asarray(tgt_in_ids)
    if tgt_in_ids.ndim != 2:
        raise ValidationError(f"tgt_in_ids must be (batch, len), got {tgt_in_ids.shape}")
    t = tgt_in_ids.shape[1]
    if t > cfg.max_tgt_len:
        raise ValidationError(f"target length {t} exceeds max {cfg.max_tgt_len}")
    packing = _Packing.of(tgt_in_ids != PAD_ID)
    ids = tgt_in_ids.reshape(-1)[packing.rows]
    x = _embed(model, "tgt_embed", model.pos_tgt, ids, packing.rows % t)
    x = dropout(x, cfg.layer_postprocess_dropout, train, source)
    self_bias = _causal_bias(t, cfg.np_dtype) + _pad_bias(tgt_in_ids, cfg.np_dtype)
    self_plan = _attention_plan(packing, packing, self_bias, cfg)
    cross_plan = _attention_plan(packing, src_packing, src_bias, cfg)
    for i in range(cfg.n_layers_dec):
        y = _normed(params, f"dec{i}.self_norm", x)
        y = _attention(params, f"dec{i}.self_attn", y, y, self_plan, cfg, train, source)
        x = add(x, dropout(y, cfg.layer_postprocess_dropout, train, source))
        y = _normed(params, f"dec{i}.cross_norm", x)
        y = _attention(params, f"dec{i}.cross_attn", y, memory, cross_plan, cfg, train, source)
        x = add(x, dropout(y, cfg.layer_postprocess_dropout, train, source))
        y = _ffn(params, f"dec{i}.ffn", _normed(params, f"dec{i}.ffn_norm", x), cfg, train, source)
        x = add(x, dropout(y, cfg.layer_postprocess_dropout, train, source))
    return x, packing


@dataclass
class DecoderCache:
    """Incremental decoding state of a batch of hypothesis rows.

    ``cross`` holds each decoder layer's cross-attention (K, V), projected
    once per record; ``self_kv`` holds each layer's self-attention (K, V)
    over every row's prefix, shaped (rows, heads, prefix length, head dim);
    ``record`` maps each row to its record, and ``row_cross`` and
    ``row_src_bias`` are ``cross`` and ``src_bias`` gathered for those rows.
    """

    cross: list[tuple[np.ndarray, np.ndarray]]
    src_bias: np.ndarray
    self_kv: list[tuple[np.ndarray, np.ndarray]]
    record: np.ndarray
    row_cross: list[tuple[np.ndarray, np.ndarray]]
    row_src_bias: np.ndarray


def init_decoder_cache(
    model: TransformerModel, memory: Tensor, packing: _Packing, src_bias: np.ndarray
) -> DecoderCache:
    """Empty prefixes, one row per record of a batch that ``encode_source``
    encoded into ``memory`` rows, their ``packing`` and ``src_bias``.

    Each layer's cross-attention K and V are projected from the packed rows,
    then laid out per record through ``packing.slots``; PAD slots (-1) read
    a zero row appended at the end, as in ``ragged_attention``.
    """
    cfg = model.config
    params = model.parameters
    batch = packing.batch
    zero = np.zeros((1, cfg.hidden_size), dtype=cfg.np_dtype)

    def laid_out(name: str) -> np.ndarray:
        rows = np.concatenate([matmul(memory, params[name]).data, zero])
        return _split_heads(Tensor(rows[packing.slots]), packing.length, cfg).data

    cross = [
        tuple(laid_out(f"dec{i}.cross_attn.{w}") for w in ("wk", "wv"))
        for i in range(cfg.n_layers_dec)
    ]
    empty = np.zeros((batch, cfg.n_heads, 0, cfg.hidden_size // cfg.n_heads), dtype=cfg.np_dtype)
    return DecoderCache(
        cross=cross,
        src_bias=src_bias,
        self_kv=[(empty, empty)] * cfg.n_layers_dec,
        record=np.arange(batch),
        row_cross=cross,
        row_src_bias=src_bias,
    )


def decode_step(
    model: TransformerModel,
    cache: DecoderCache,
    parents: np.ndarray,
    tokens: np.ndarray,
) -> np.ndarray:
    """Logits (rows, vocab) for the position after each row's new token.

    Row i extends the prefix of row ``parents[i]`` of the previous step with
    ``tokens[i]``; at the first step the rows are the records.  The cache is
    reindexed by ``parents`` and extended in place, so a step costs O(prefix)
    instead of re-running the whole prefix.  The rows' cross-attention K/V
    are gathered again only when the row-to-record map changes.  Inference
    only: no dropout.
    """
    cfg = model.config
    params = model.parameters
    parents = np.asarray(parents)
    tokens = np.asarray(tokens)
    t = cache.self_kv[0][0].shape[2]
    if t >= cfg.max_tgt_len:
        raise ValidationError(f"target length {t + 1} exceeds max {cfg.max_tgt_len}")
    record = cache.record[parents]
    if not np.array_equal(record, cache.record):
        cache.record = record
        cache.row_cross = [(k[record], v[record]) for k, v in cache.cross]
        cache.row_src_bias = cache.src_bias[record]
    # One (rows, h) row per hypothesis: each is a prefix's single new position.
    x = _embed(model, "tgt_embed", model.pos_tgt, tokens, np.full(tokens.shape, t))
    for i in range(cfg.n_layers_dec):
        y = _normed(params, f"dec{i}.self_norm", x)
        q, k_new, v_new = (
            _project(params, f"dec{i}.self_attn.{w}", y, 1, cfg) for w in ("wq", "wk", "wv")
        )
        k_prev, v_prev = cache.self_kv[i]
        k = np.concatenate([k_prev[parents], k_new.data], axis=2)
        v = np.concatenate([v_prev[parents], v_new.data], axis=2)
        cache.self_kv[i] = (k, v)
        y = _attend(q, Tensor(k), Tensor(v), None, cfg)
        x = add(x, matmul(y, params[f"dec{i}.self_attn.wo"]))
        y = _normed(params, f"dec{i}.cross_norm", x)
        q = _project(params, f"dec{i}.cross_attn.wq", y, 1, cfg)
        k_mem, v_mem = cache.row_cross[i]
        y = _attend(q, Tensor(k_mem), Tensor(v_mem), cache.row_src_bias, cfg)
        x = add(x, matmul(y, params[f"dec{i}.cross_attn.wo"]))
        y = _ffn(params, f"dec{i}.ffn", _normed(params, f"dec{i}.ffn_norm", x), cfg, False, None)
        x = add(x, y)
    return _output_logits(params, x).data


def forward(
    model: TransformerModel,
    src_ids: np.ndarray,
    side_idx: np.ndarray,
    tgt_in_ids: np.ndarray,
    train: bool = False,
    source: GeneratorDropout | None = None,
) -> Tensor:
    """Logits (batch, len, vocab) over the teacher-forced prefix
    ``tgt_in_ids``; the logits at its PAD positions come from zero states,
    finite and meaningless."""
    memory, src_packing, src_bias = encode_source(model, src_ids, side_idx, train, source)
    x, packing = _decoder_rows(model, memory, src_packing, src_bias, tgt_in_ids, train, source)
    return _output_logits(model.parameters, packing.padded(x))


def sequence_loss(
    model: TransformerModel,
    src_ids: np.ndarray,
    side_idx: np.ndarray,
    tgt_ids: np.ndarray,
    train: bool = False,
    source: GeneratorDropout | None = None,
) -> Tensor:
    """Teacher-forced mean cross-entropy over non-PAD target tokens.

    ``tgt_ids`` rows are BOS, tokens, EOS, PAD...; the decoder reads the
    row minus its last column and predicts the row minus its first.  The
    same packed stacks as ``forward`` run, and only the decoder rows with a
    target reach the output projection.
    """
    tgt_ids = np.asarray(tgt_ids)
    if tgt_ids.ndim != 2 or tgt_ids.shape[0] == 0:
        raise ValidationError(f"target batch must be nonempty (batch, len), got {tgt_ids.shape}")
    if tgt_ids.shape[1] < 2:
        raise ValidationError("target rows need at least BOS and one more token")
    dec_in = tgt_ids[:, :-1]
    if np.any((tgt_ids[:, 1:] != PAD_ID) & (dec_in == PAD_ID)):
        raise ValidationError("a target token follows a PAD in its row")
    memory, src_packing, src_bias = encode_source(model, src_ids, side_idx, train, source)
    x, packing = _decoder_rows(model, memory, src_packing, src_bias, dec_in, train, source)
    targets = tgt_ids[:, 1:].reshape(-1)[packing.rows]
    kept = np.flatnonzero(targets != PAD_ID)
    logits = _output_logits(model.parameters, take_rows(x, kept))
    return cross_entropy(logits, targets[kept], label_smoothing=model.config.label_smoothing)
