"""Beam-search decoding of code sequences with confidence scores.

A hypothesis finishes at EOS, at 20 emitted codes, or when the decoder's
token budget (max_tgt_len) fills up.  Ranking uses the length-normalized
log-probability with penalty ((5+len)/6)^alpha; the reported score is the
geometric-mean token probability, a length-insensitive value in (0,1].

One engine, ``decode_batch``, does all decoding: the hypotheses of a group
of records advance together as one batch through the KV-cached decoder
step, and each step ranks every record's expansions with numpy.  Greedy
decoding is beam width 1; ``beam_search`` is the engine on one record.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import atomic_open
from .errors import ValidationError
from .textprep import BOS_ID, EOS_ID, PAD_ID, TokenizerModel, TrainingPair, token_is_word_final
from .textprep import decode as decode_tokens
from .textprep import encode as encode_text
from .transformer import TransformerModel, decode_step, encode_source, init_decoder_cache

MAX_CODES = 20
DEFAULT_BEAM_WIDTH = 4
DEFAULT_ALPHA = 0.6
DECODE_GROUP = 16  # records predict_pairs decodes as one batch


@dataclass(frozen=True)
class Prediction:
    id: str
    codes: tuple[str, ...]
    score: float

    def __post_init__(self) -> None:
        if not 0.0 < self.score <= 1.0:
            raise ValidationError(f"prediction score must be in (0, 1], got {self.score}")
        if len(self.codes) > MAX_CODES:
            raise ValidationError(f"prediction exceeds {MAX_CODES} codes")


def length_penalty(n_tokens: int, alpha: float) -> float:
    return ((5.0 + n_tokens) / 6.0) ** alpha


def prediction_score(token_logprobs: list[float]) -> float:
    """Geometric-mean token probability: exp(mean log p), in (0,1]."""
    if not token_logprobs:
        raise ValidationError("cannot score an empty hypothesis")
    return float(math.exp(sum(token_logprobs) / len(token_logprobs)))


def word_final_mask(tokenizer: TokenizerModel, vocab_size: int) -> np.ndarray:
    """Boolean array over token ids: entry i is token_is_word_final(tokenizer, i)."""
    return np.array([token_is_word_final(tokenizer, i) for i in range(vocab_size)], dtype=bool)


def decode_batch(
    model: TransformerModel,
    tokenizer: TokenizerModel,
    src_ids: np.ndarray,
    side_idx: np.ndarray,
    beam_width: int = DEFAULT_BEAM_WIDTH,
    alpha: float = DEFAULT_ALPHA,
    record_ids: list[str] | None = None,
    max_codes: int = MAX_CODES,
) -> list[list[Prediction]]:
    """Ranked finished hypotheses for each record of a PAD-filled batch.

    Every live hypothesis of every record is one row of a single batch that
    advances one token per step through the KV-cached decoder.  Each record
    keeps the beam_width best expansions of its rows by penalized score;
    expansions that finish leave the batch, so a record's beam shrinks as
    its hypotheses end.  Ties break toward the lexicographically smaller
    token sequence, so results are deterministic.  Returns up to beam_width
    predictions per record; fewer only when the search space is exhausted.
    """
    if beam_width < 1:
        raise ValidationError(f"beam_width must be >= 1, got {beam_width}")
    src_ids = np.asarray(src_ids)
    n_records = src_ids.shape[0]
    if record_ids is None:
        record_ids = [""] * n_records
    cfg = model.config
    vocab = cfg.tgt_vocab_size
    word_final = word_final_mask(tokenizer, vocab)
    memory, src_bias = encode_source(model, src_ids, np.asarray(side_idx), train=False)
    cache = init_decoder_cache(model, memory, src_bias)

    # One entry per live row.  Rows are grouped by record, and within a
    # record ordered by their prefix, so a row's offset in its group is the
    # prefix's lexicographic rank among the record's live rows.  All
    # prefixes have the same length, so the candidate order
    # (-score, prefix + token) is (-score, rank * vocab + token).
    record = np.arange(n_records)
    parents = np.arange(n_records)
    tokens = np.full(n_records, BOS_ID, dtype=np.int64)
    ids = tokens[:, None]
    logps = np.zeros((n_records, 0))
    cum = np.zeros(n_records)  # sum of logps, accumulated left to right
    n_codes = np.zeros(n_records, dtype=np.int64)
    finished: list[list[tuple[float, tuple[int, ...], list[float]]]] = [[] for _ in range(n_records)]
    while record.size:
        logits = decode_step(model, cache, parents, tokens).astype(np.float64)
        shifted = logits - logits.max(axis=-1, keepdims=True)
        logp = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
        logp[:, PAD_ID] = -np.inf
        total = cum[:, None] + logp
        live, first_row, slot_record = np.unique(record, return_index=True, return_inverse=True)
        rank = np.arange(record.size) - first_row[slot_record]
        grid = np.full((live.size, int(rank.max()) + 1, vocab), -np.inf)
        grid[slot_record, rank] = total / length_penalty(ids.shape[1], alpha)
        flat = grid.reshape(live.size, -1)

        # Top beam_width per record by (-score, flat index); every candidate
        # tied with the k-th best joins before the exact sort.
        cut = flat.shape[1] - min(beam_width, flat.shape[1])
        kth = np.partition(flat, cut, axis=1)[:, cut]
        r, f = np.nonzero((flat >= kth[:, None]) & (flat > -np.inf))
        order = np.lexsort((f, -flat[r, f], r))
        r, f = r[order], f[order]
        keep = np.arange(r.size) - np.searchsorted(r, r) < beam_width
        r, f = r[keep], f[keep]

        slot, tok = np.divmod(f, vocab)
        parent = first_row[r] + slot
        pen = flat[r, f]
        new_ids = np.concatenate([ids[parent], tok[:, None]], axis=1)
        new_logps = np.concatenate([logps[parent], logp[parent, tok][:, None]], axis=1)
        new_codes = n_codes[parent] + word_final[tok]
        done = (tok == EOS_ID) | (new_codes >= max_codes) | (new_ids.shape[1] >= cfg.max_tgt_len)
        for j in np.flatnonzero(done):
            finished[live[r[j]]].append((float(pen[j]), tuple(new_ids[j].tolist()), new_logps[j].tolist()))

        going = np.flatnonzero(~done)
        going = going[np.lexsort((f[going], r[going]))]
        record = live[r[going]]
        parents = parent[going]
        tokens = tok[going]
        ids = new_ids[going]
        logps = new_logps[going]
        cum = total[parent, tok][going]
        n_codes = new_codes[going]

    out = []
    for rid, hyps in zip(record_ids, finished):
        hyps.sort(key=lambda h: (-h[0], h[1]))
        ranked = []
        for _, hyp_ids, hyp_logps in hyps[:beam_width]:
            text = decode_tokens(tokenizer, list(hyp_ids[1:]))
            codes = tuple(text.split()) if text else ()
            ranked.append(Prediction(id=rid, codes=codes, score=prediction_score(hyp_logps)))
        out.append(ranked)
    return out


def beam_search(
    model: TransformerModel,
    tokenizer: TokenizerModel,
    src_ids: np.ndarray,
    side_idx: np.ndarray,
    beam_width: int = DEFAULT_BEAM_WIDTH,
    alpha: float = DEFAULT_ALPHA,
    record_id: str = "",
    max_codes: int = MAX_CODES,
) -> list[Prediction]:
    """Ranked finished hypotheses for one record (see decode_batch)."""
    return decode_batch(
        model, tokenizer, np.asarray(src_ids)[None, :], np.asarray(side_idx)[None, :],
        beam_width=beam_width, alpha=alpha, record_ids=[record_id], max_codes=max_codes,
    )[0]


def greedy_decode(
    model: TransformerModel,
    tokenizer: TokenizerModel,
    src_ids: np.ndarray,
    side_idx: np.ndarray,
    record_ids: list[str] | None = None,
    max_codes: int = MAX_CODES,
) -> list[Prediction]:
    """Batched argmax decoding: decode_batch at beam width 1."""
    ranked = decode_batch(
        model, tokenizer, src_ids, side_idx, beam_width=1, record_ids=record_ids, max_codes=max_codes,
    )
    return [r[0] for r in ranked]


def predict_pairs(
    model: TransformerModel,
    src_tok: TokenizerModel,
    tgt_tok: TokenizerModel,
    pairs: list[TrainingPair],
    beam_width: int = DEFAULT_BEAM_WIDTH,
    alpha: float = DEFAULT_ALPHA,
) -> list[Prediction]:
    """Top beam hypothesis for each (source text, side variables) record.

    Records are decoded DECODE_GROUP at a time, PAD-filled to the group's
    longest source.
    """
    cfg = model.config
    out = []
    for start in range(0, len(pairs), DECODE_GROUP):
        group = pairs[start : start + DECODE_GROUP]
        encoded = [
            encode_text(src_tok, p.source_text, max_len=cfg.max_src_len, record_id=p.id)
            for p in group
        ]
        src = np.full((len(group), max(1, *map(len, encoded))), PAD_ID, dtype=np.int64)
        for i, ids in enumerate(encoded):
            src[i, : len(ids)] = ids
        side = np.array([p.side.as_tuple() for p in group], dtype=np.int64)
        ranked = decode_batch(
            model, tgt_tok, src, side,
            beam_width=beam_width, alpha=alpha, record_ids=[p.id for p in group],
        )
        for pair, hyps in zip(group, ranked):
            if not hyps:
                raise ValidationError(f"record {pair.id}: beam search returned no hypothesis")
            out.append(hyps[0])
    return out


def write_predictions(path: str, predictions: list[Prediction]) -> None:
    """Tab-separated rows: id, space-joined codes, score with 6 decimals."""
    with atomic_open(path) as fh:
        for p in predictions:
            fh.write(f"{p.id}\t{' '.join(p.codes)}\t{p.score:.6f}\n")


def read_predictions(path: str) -> list[Prediction]:
    out = []
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.rstrip("\n").rstrip("\r")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise ValidationError(f"prediction file {path}: line {line_no} has {len(parts)} fields, want 3")
            rid, codes_text, score_text = parts
            try:
                score = float(score_text)
            except ValueError:
                raise ValidationError(f"prediction file {path}: line {line_no}: bad score {score_text!r}")
            codes = tuple(codes_text.split()) if codes_text else ()
            out.append(Prediction(id=rid, codes=codes, score=score))
    return out
