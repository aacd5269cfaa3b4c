"""Beam-search decoding of code sequences with confidence scores.

A hypothesis finishes at EOS, at 20 emitted codes, or when the decoder's
token budget (max_tgt_len) fills up.  Ranking uses the length-normalized
log-probability with penalty ((5+len)/6)^alpha; the reported score is the
geometric-mean token probability, a length-insensitive value in (0,1].

One engine, ``decode_batch``, does all decoding: the hypotheses of a group
of records advance together as one batch through the KV-cached decoder
step, and each step ranks every record's expansions with numpy.  Greedy
decoding is beam width 1; ``beam_search`` runs the engine on one record,
and ``decode_records``, the one driver that groups records for decoding,
runs it on length-sorted, PAD-filled groups.

A record leaves the batch once the rest of its search cannot change what
it returns: it holds beam_width finished hypotheses, and every live row's
``cum / P`` is strictly below the beam_width-th best of their scores, where
``cum`` is the row's summed log-probability and ``P`` the largest length
penalty at any length still open to the row (a maximum, so it holds for
any sign of alpha).  This is exact: log-probabilities are <= 0, so ``cum``
only falls, and rounding is monotone, so every later finish scores at most
``cum / P`` in floating point too and sorts after the beam_width best.  A
tie could still win the final (-score, token ids) sort, hence "strictly".
The test is per record, not per row: dropping rows would change which
candidates the beam keeps.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .config import atomic_open, read_lines
from .errors import ValidationError
from .textprep import BOS_ID, EOS_ID, PAD_ID, TokenizerModel, TrainingPair, word_final_mask
from .textprep import decode as decode_tokens
from .textprep import encode as encode_text
from .transformer import TransformerModel, decode_step, encode_source, init_decoder_cache

MAX_CODES = 20
DEFAULT_BEAM_WIDTH = 4
DEFAULT_ALPHA = 0.6
DECODE_ROWS = 256  # hypothesis rows (records x beam width) decode_records decodes as one batch


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
    its hypotheses end.  A record stops once it has beam_width finished
    hypotheses and each live row's log-probability sum over the largest
    length penalty still open to it is below the beam_width-th best of
    their scores.  Sums only fall and rounding is monotone, so no later
    finish could enter the record's top beam_width: every record returns
    what a run to completion returns (see the module docstring).
    Ties break toward the lexicographically smaller token sequence, so
    results are deterministic.  Returns up to beam_width predictions per
    record; fewer only when the search space is exhausted.  A record left
    with none (non-finite scores, e.g. NaN weights) raises ValidationError.
    """
    if beam_width < 1:
        raise ValidationError(f"beam_width must be >= 1, got {beam_width}")
    if not math.isfinite(alpha):
        raise ValidationError(f"alpha must be a finite number, got {alpha}")
    src_ids = np.asarray(src_ids)
    n_records = src_ids.shape[0]
    if record_ids is None:
        record_ids = [""] * n_records
    cfg = model.config
    vocab = cfg.tgt_vocab_size
    word_final = word_final_mask(tokenizer, vocab)
    cache = init_decoder_cache(model, *encode_source(model, src_ids, np.asarray(side_idx)))

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
    kth_finished = np.full(n_records, -np.inf)  # beam_width-th best finished score; -inf while fewer
    # peak_penalty[n]: the largest length penalty of a finish at n or more tokens.
    peak_penalty = np.maximum.accumulate(
        [length_penalty(n, alpha) for n in reversed(range(cfg.max_tgt_len))]
    )[::-1]
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
            i = live[r[j]]
            finished[i].append((float(pen[j]), tuple(new_ids[j].tolist()), new_logps[j].tolist()))
            if len(finished[i]) >= beam_width:
                kth_finished[i] = sorted(h[0] for h in finished[i])[-beam_width]

        going = np.flatnonzero(~done)
        going = going[np.lexsort((f[going], r[going]))]
        new_cum = total[parent, tok]
        # Keep a record while one of its rows can still reach its kth_finished.
        # At width 1 this never drops one: a record with a finish has no live row.
        if beam_width > 1 and going.size:
            going_r = r[going]
            reach = new_cum[going] / peak_penalty[new_ids.shape[1]]
            open_record = np.zeros(live.size, dtype=bool)
            open_record[going_r[reach >= kth_finished[live[going_r]]]] = True
            going = going[open_record[going_r]]
        record = live[r[going]]
        parents = parent[going]
        tokens = tok[going]
        ids = new_ids[going]
        logps = new_logps[going]
        cum = new_cum[going]
        n_codes = new_codes[going]

    out = []
    for rid, hyps in zip(record_ids, finished):
        if not hyps:
            raise ValidationError(f"record {rid!r}: beam search returned no hypothesis")
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
) -> list[Prediction]:
    """Argmax decoding of a PAD-filled batch as given: decode_batch at beam width 1."""
    ranked = decode_batch(model, tokenizer, src_ids, side_idx, beam_width=1, record_ids=record_ids)
    return [r[0] for r in ranked]


def pad_sources(sources: Sequence[Sequence[int]]) -> np.ndarray:
    """PAD-filled (records, longest source) matrix of source ids, at least one column wide."""
    src = np.full((len(sources), max(1, max(map(len, sources)))), PAD_ID, dtype=np.int64)
    for row, ids in enumerate(sources):
        src[row, : len(ids)] = ids
    return src


def decode_records(
    model: TransformerModel,
    tokenizer: TokenizerModel,
    records: Sequence[tuple[str, Sequence[int], Sequence[int]]],
    beam_width: int = DEFAULT_BEAM_WIDTH,
    alpha: float = DEFAULT_ALPHA,
    rows: int = DECODE_ROWS,
) -> list[Prediction]:
    """Top hypothesis for each (id, source ids, side indices) record, in input order.

    Records are sorted by source length (ties keep input order) and decoded
    in groups of min(rows, DECODE_ROWS) // beam_width records (at least
    one), each group PAD-filled to its longest source.
    """
    order = sorted(range(len(records)), key=lambda i: len(records[i][1]))
    group_size = max(1, min(rows, DECODE_ROWS) // max(1, beam_width))  # decode_batch rejects widths < 1
    top: dict[int, Prediction] = {}
    for start in range(0, len(order), group_size):
        group = order[start : start + group_size]
        ids, sources, sides = zip(*(records[i] for i in group))
        ranked = decode_batch(
            model, tokenizer, pad_sources(sources), np.array(sides, dtype=np.int64),
            beam_width=beam_width, alpha=alpha, record_ids=list(ids),
        )
        top.update(zip(group, (hyps[0] for hyps in ranked)))
    return [top[i] for i in range(len(records))]


def predict_pairs(
    model: TransformerModel,
    src_tok: TokenizerModel,
    tgt_tok: TokenizerModel,
    pairs: list[TrainingPair],
    beam_width: int = DEFAULT_BEAM_WIDTH,
    alpha: float = DEFAULT_ALPHA,
) -> list[Prediction]:
    """Top beam hypothesis for each (source text, side variables) record, in input order."""
    max_len = model.config.max_src_len
    records = [
        (p.id, encode_text(src_tok, p.source_text, max_len=max_len, record_id=p.id), p.side.as_tuple())
        for p in pairs
    ]
    return decode_records(model, tgt_tok, records, beam_width, alpha)


def write_predictions(path: str, predictions: list[Prediction]) -> None:
    """Tab-separated rows: id, space-joined codes, score with 6 decimals."""
    with atomic_open(path) as fh:
        for p in predictions:
            fh.write(f"{p.id}\t{' '.join(p.codes)}\t{p.score:.6f}\n")


def read_predictions(path: str) -> list[Prediction]:
    out = []
    for line_no, line in read_lines(path):
        parts = line.split("\t")
        if len(parts) != 3:
            raise ValidationError(f"{path}: line {line_no}: {len(parts)} fields, want 3")
        rid, codes_text, score_text = parts
        try:
            out.append(Prediction(id=rid, codes=tuple(codes_text.split()), score=float(score_text)))
        except (ValueError, ValidationError):  # not a number, or outside (0, 1]
            raise ValidationError(
                f"{path}: line {line_no}: bad score {score_text!r}, want a number in (0, 1]"
            ) from None
    return out
