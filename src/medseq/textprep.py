"""Text standardization, backward line concatenation, and BPE tokenization.

Certificate lines join from line 6 down to line 1 so that codes a human
coder shifted onto the previous line land in the same flat target sequence.
Source text and target code strings each get their own subword model.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import re
from collections import Counter, defaultdict
from dataclasses import dataclass, field

from .config import atomic_open
from .errors import ConfigError, ValidationError
from .records import Certificate, Icd10Code, N_LINES, SideVariables

PAD_ID, BOS_ID, EOS_ID, UNK_ID = 0, 1, 2, 3
RESERVED_TOKENS = ("<pad>", "<s>", "</s>", "<unk>")
WORD_END = "</w>"

_WHITESPACE_RUN = re.compile(r"\s+")


def standardize(text: str) -> str:
    """Lowercase, collapse every whitespace run to one space, strip ends."""
    return _WHITESPACE_RUN.sub(" ", text.lower()).strip()


@dataclass(frozen=True)
class TrainingPair:
    """One (source text, target code sequence) example with its conditions."""

    source_text: str
    target_codes: tuple[Icd10Code, ...]
    side: SideVariables
    id: str


def concat_backward(cert: Certificate) -> TrainingPair:
    """Join present lines 6..1 with ', ', standardize, flatten codes 6..1."""
    parts = [cert.lines[i] for i in range(N_LINES - 1, -1, -1) if cert.lines[i]]
    codes = [c for i in range(N_LINES - 1, -1, -1) for c in cert.gold_code_lines[i]]
    return TrainingPair(
        source_text=standardize(", ".join(parts)),
        target_codes=tuple(codes),
        side=cert.side,
        id=cert.id,
    )


# ----------------------------------------------------------------------
# Byte pair encoding
# ----------------------------------------------------------------------


@dataclass
class TokenizerModel:
    """Learned BPE merges plus the dense token->id vocabulary.

    Ids 0..3 are the reserved PAD/BOS/EOS/UNK tokens; the remaining ids
    cover the initial alphabet (sorted) followed by merge products in
    learned order. `exhausted` flags a training run that ran out of
    repeating pairs before reaching the requested vocabulary size.
    """

    merges: tuple[tuple[str, str], ...]
    vocab: dict[str, int]
    exhausted: bool = False
    _ranks: dict[tuple[str, str], int] = field(
        init=False, repr=False, compare=False, default_factory=dict
    )
    _id_to_token: dict[int, str] = field(
        init=False, repr=False, compare=False, default_factory=dict
    )
    _word_cache: dict[str, tuple[int, ...]] = field(
        init=False, repr=False, compare=False, default_factory=dict
    )

    def __post_init__(self):
        self._ranks = {pair: i for i, pair in enumerate(self.merges)}
        self._id_to_token = {i: t for t, i in self.vocab.items()}

    @property
    def size(self) -> int:
        return len(self.vocab)


def _word_symbols(word: str) -> tuple[str, ...]:
    return tuple(word) + (WORD_END,)


def _apply_merge(symbols: tuple[str, ...], pair: tuple[str, str]) -> tuple[str, ...]:
    """Merge all left-to-right non-overlapping occurrences of `pair`."""
    out: list[str] = []
    i = 0
    n = len(symbols)
    while i < n:
        if i < n - 1 and symbols[i] == pair[0] and symbols[i + 1] == pair[1]:
            out.append(pair[0] + pair[1])
            i += 2
        else:
            out.append(symbols[i])
            i += 1
    return tuple(out)


def bpe_train(corpus: list[str], target_vocab_size: int) -> TokenizerModel:
    """Learn merges by repeatedly fusing the most frequent adjacent pair.

    Ties break toward the lexicographically smallest pair. Training stops at
    the target vocabulary size, or earlier (with `exhausted` set) once no
    adjacent pair occurs twice.

    Pair counts are kept up to date incrementally: a merge recounts only the
    words that contain the merged pair, and the best pair comes from a heap
    of (-count, pair) entries whose stale entries are skipped when popped.
    """
    if not corpus:
        raise ValidationError("cannot train a tokenizer on an empty corpus")

    raw_freqs: Counter = Counter()
    for line in corpus:
        raw_freqs.update(line.split())
    if not raw_freqs:
        raise ValidationError("tokenizer corpus contains no words")

    alphabet = sorted({ch for word in raw_freqs for ch in word} | {WORD_END})
    vocab: dict[str, int] = {tok: i for i, tok in enumerate(RESERVED_TOKENS)}
    for sym in alphabet:
        vocab[sym] = len(vocab)
    if target_vocab_size <= len(vocab):
        raise ConfigError(
            f"target_vocab_size {target_vocab_size} must exceed alphabet "
            f"plus reserved tokens ({len(vocab)})"
        )

    words = [_word_symbols(w) for w in raw_freqs]
    freqs = list(raw_freqs.values())
    counts: defaultdict[tuple[str, str], int] = defaultdict(int)
    where: defaultdict[tuple[str, str], set[int]] = defaultdict(set)
    for i, symbols in enumerate(words):
        for pair in zip(symbols, symbols[1:]):
            counts[pair] += freqs[i]
            where[pair].add(i)
    heap = [(-freq, pair) for pair, freq in counts.items()]
    heapq.heapify(heap)

    merges: list[tuple[str, str]] = []
    exhausted = False
    while len(vocab) < target_vocab_size:
        while heap and counts.get(heap[0][1]) != -heap[0][0]:
            heapq.heappop(heap)
        if not heap or -heap[0][0] < 2:
            exhausted = True
            break
        best = heap[0][1]
        merges.append(best)
        # Recount each touched word in full, so overlapping pairs stay exact.
        delta: defaultdict[tuple[str, str], int] = defaultdict(int)
        for i in where.pop(best):
            old = words[i]
            new = _apply_merge(old, best)
            if new == old:
                continue
            words[i] = new
            for pair in zip(old, old[1:]):
                delta[pair] -= freqs[i]
            for pair in zip(new, new[1:]):
                delta[pair] += freqs[i]
                where[pair].add(i)
        for pair, d in delta.items():
            if d:
                counts[pair] += d
                if counts[pair]:
                    heapq.heappush(heap, (-counts[pair], pair))
                else:
                    del counts[pair]
        merged = best[0] + best[1]
        if merged not in vocab:
            vocab[merged] = len(vocab)

    return TokenizerModel(merges=tuple(merges), vocab=vocab, exhausted=exhausted)


def _segment_word(model: TokenizerModel, word: str) -> tuple[int, ...]:
    cached = model._word_cache.get(word)
    if cached is not None:
        return cached
    symbols = _word_symbols(word)
    while len(symbols) > 1:
        ranked = [
            (model._ranks[p], p)
            for p in set(zip(symbols, symbols[1:]))
            if p in model._ranks
        ]
        if not ranked:
            break
        symbols = _apply_merge(symbols, min(ranked)[1])
    ids = tuple(model.vocab.get(sym, UNK_ID) for sym in symbols)
    model._word_cache[word] = ids
    return ids


def encode(
    model: TokenizerModel,
    text: str,
    max_len: int | None = None,
    record_id: str | None = None,
) -> list[int]:
    """Tokenize standardized text; characters outside the alphabet map to UNK.

    Sequences longer than `max_len` are rejected, not truncated.
    """
    ids: list[int] = []
    for word in text.split():
        ids.extend(_segment_word(model, word))
    if max_len is not None and len(ids) > max_len:
        who = f" (record {record_id})" if record_id else ""
        raise ValidationError(
            f"encoded sequence length {len(ids)} exceeds limit {max_len}{who}"
        )
    return ids


def decode(model: TokenizerModel, ids: list[int]) -> str:
    """Invert encode; reserved PAD/BOS/EOS ids are skipped."""
    parts: list[str] = []
    for i in ids:
        token = model._id_to_token.get(i)
        if token is None:
            raise ValidationError(f"unknown token id {i} (vocab size {model.size})")
        if i in (PAD_ID, BOS_ID, EOS_ID):
            continue
        parts.append(token)
    return "".join(parts).replace(WORD_END, " ").rstrip(" ")


def token_is_word_final(model: TokenizerModel, token_id: int) -> bool:
    """True when the token closes a word (carries the boundary marker)."""
    token = model._id_to_token.get(token_id, "")
    return token.endswith(WORD_END)


# ----------------------------------------------------------------------
# Serialization: versioned text format, bit-exact on reload
# ----------------------------------------------------------------------

_FORMAT_HEADER = "medseq-tokenizer v1"


def tokenizer_dumps(model: TokenizerModel) -> str:
    lines = [
        _FORMAT_HEADER,
        f"vocab_size {len(model.vocab)}",
        f"exhausted {int(model.exhausted)}",
        "reserved " + " ".join(RESERVED_TOKENS),
        f"merges {len(model.merges)}",
    ]
    for left, right in model.merges:
        lines.append(f"{json.dumps(left)}\t{json.dumps(right)}")
    lines.append(f"vocab {len(model.vocab)}")
    for token, idx in sorted(model.vocab.items(), key=lambda kv: (kv[1], kv[0])):
        lines.append(f"{json.dumps(token)}\t{idx}")
    return "\n".join(lines) + "\n"


def tokenizer_loads(text: str) -> TokenizerModel:
    """Parse tokenizer_dumps output; any truncation or malformed line raises
    ValidationError naming the line."""
    lines = text.splitlines()
    if not lines or lines[0] != _FORMAT_HEADER:
        raise ValidationError("not a medseq tokenizer file")

    def header(index: int, key: str) -> str:
        if index >= len(lines):
            raise ValidationError(f"tokenizer file truncated: line {index + 1} ({key!r} header) missing")
        name, _, value = lines[index].partition(" ")
        if name != key:
            raise ValidationError(f"tokenizer file line {index + 1}: expected {key!r} header")
        return value

    def count(index: int, key: str) -> int:
        value = header(index, key)
        if not (value.isascii() and value.isdigit()):
            raise ValidationError(f"tokenizer file line {index + 1}: bad {key} count {value!r}")
        return int(value)

    def entries(first: int, n: int, section: str) -> list[tuple[str, str]]:
        if len(lines) < first + n:
            raise ValidationError(
                f"tokenizer file truncated: {section} header says {n} lines, "
                f"{max(0, len(lines) - first)} present"
            )
        out = []
        for index in range(first, first + n):
            fields = lines[index].split("\t")
            if len(fields) != 2:
                raise ValidationError(
                    f"tokenizer file line {index + 1}: {len(fields)} fields, want 2"
                )
            out.append((fields[0], fields[1]))
        return out

    def token(raw: str, index: int) -> str:
        try:
            value = json.loads(raw)
        except ValueError:
            value = None
        if not isinstance(value, str):
            raise ValidationError(f"tokenizer file line {index + 1}: bad token {raw!r}")
        return value

    vocab_size = count(1, "vocab_size")
    exhausted = header(2, "exhausted")
    if exhausted not in ("0", "1"):
        raise ValidationError(f"tokenizer file line 3: bad exhausted flag {exhausted!r}")
    if header(3, "reserved") != " ".join(RESERVED_TOKENS):
        raise ValidationError("tokenizer file line 4: unexpected reserved tokens")
    n_merges = count(4, "merges")
    merges = [
        (token(left, 5 + i), token(right, 5 + i))
        for i, (left, right) in enumerate(entries(5, n_merges, "merges"))
    ]
    vocab_at = 5 + n_merges
    n_vocab = count(vocab_at, "vocab")
    if n_vocab != vocab_size:
        raise ValidationError(f"tokenizer file: vocab_size {vocab_size} but {n_vocab} vocab entries")
    vocab: dict[str, int] = {}
    for i, (raw, idx) in enumerate(entries(vocab_at + 1, n_vocab, "vocab")):
        if idx != str(i):
            # ids are dense and written in order, so a cut id cannot pass
            raise ValidationError(f"tokenizer file line {vocab_at + 2 + i}: id {idx!r}, want {i}")
        vocab[token(raw, vocab_at + 1 + i)] = i
    if len(vocab) != vocab_size:
        raise ValidationError(f"tokenizer file: duplicate vocab tokens ({len(vocab)} distinct of {vocab_size})")
    if len(lines) > vocab_at + 1 + n_vocab:
        raise ValidationError(f"tokenizer file line {vocab_at + 2 + n_vocab}: unexpected trailing line")
    return TokenizerModel(merges=tuple(merges), vocab=vocab, exhausted=exhausted == "1")


def save_tokenizer(model: TokenizerModel, path) -> None:
    with atomic_open(path) as fh:
        fh.write(tokenizer_dumps(model))


def load_tokenizer(path) -> TokenizerModel:
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return tokenizer_loads(data.decode("utf-8"))
    except UnicodeDecodeError:
        raise ValidationError(f"tokenizer file {path}: not UTF-8 text") from None
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None


def tokenizer_fingerprint(model: TokenizerModel) -> str:
    """Content hash used by checkpoints to pin their tokenizers."""
    return hashlib.sha256(tokenizer_dumps(model).encode("utf-8")).hexdigest()
