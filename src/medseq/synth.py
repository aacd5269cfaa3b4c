"""Deterministic synthetic certificate generator.

Reproduces the statistical pathologies the pipeline has to survive: skewed
code prevalence across chapters, line-level code misalignment, unreadable
words marked "!" on paper-origin records (gold code retained, so those
records carry strictly less text information), and side-variable- and
adjacency-dependent gold codes.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import accumulate

from .errors import ConfigError, ValidationError
from .records import (
    Certificate,
    Icd10Code,
    MAX_CODES_PER_CERT,
    N_LINES,
    N_YEARS,
    SideVariables,
    YEAR_MIN,
    encode_side_variables,
)


@dataclass(frozen=True)
class ContextRule:
    """Gold code flips on one side variable: index < split -> code_low."""

    variable: str  # "gender" | "year" | "age_bucket" | "origin"
    split: int
    code_low: Icd10Code
    code_high: Icd10Code


@dataclass(frozen=True)
class AdjacencyRule:
    """Gold code flips when the preceding phrase on the line has this stem."""

    trigger_stem: str
    code_adjacent: Icd10Code


@dataclass(frozen=True)
class LexiconEntry:
    stem: str
    phrases: tuple[str, ...]
    code: Icd10Code
    context_rule: ContextRule | None = None
    adjacency_rule: AdjacencyRule | None = None
    weight: float = 1.0


@dataclass(frozen=True)
class Lexicon:
    entries: tuple[LexiconEntry, ...]
    noise_vocab: tuple[str, ...]

    def __post_init__(self):
        stems = {e.stem for e in self.entries}
        for e in self.entries:
            if e.adjacency_rule is not None and e.adjacency_rule.trigger_stem not in stems:
                raise ValidationError(
                    f"lexicon entry {e.stem!r}: adjacency trigger stem "
                    f"{e.adjacency_rule.trigger_stem!r} names no entry"
                )
            if not e.phrases:
                raise ValidationError(f"lexicon entry {e.stem!r} without phrase variants")
            if not all(e.stem in phrase.split(" ") for phrase in e.phrases):
                raise ValidationError(f"lexicon entry {e.stem!r}: a phrase lacks the stem word")
        weights = [e.weight for e in self.entries]
        if not all(math.isfinite(w) and w >= 0 for w in weights):
            raise ValidationError("lexicon entry weights must be finite and nonnegative")
        total = sum(weights)
        if not (math.isfinite(total) and total > 0):
            raise ValidationError(f"lexicon entry weights must have a finite positive sum, got {total}")

    def all_codes(self) -> set[Icd10Code]:
        codes: set[Icd10Code] = set()
        for e in self.entries:
            codes.add(e.code)
            if e.context_rule:
                codes.update((e.context_rule.code_low, e.context_rule.code_high))
            if e.adjacency_rule:
                codes.add(e.adjacency_rule.code_adjacent)
        return codes

    def code_for(
        self,
        entry: LexiconEntry,
        side: SideVariables,
        prev_entry: LexiconEntry | None = None,
    ) -> Icd10Code:
        """Gold code of a phrase in context; adjacency wins over side rules."""
        if (
            entry.adjacency_rule is not None
            and prev_entry is not None
            and prev_entry.stem == entry.adjacency_rule.trigger_stem
        ):
            return entry.adjacency_rule.code_adjacent
        if entry.context_rule is not None:
            rule = entry.context_rule
            value = getattr(side, rule.variable)
            return rule.code_low if value < rule.split else rule.code_high
        return entry.code


@dataclass(frozen=True)
class GeneratorConfig:
    n_records: int
    seed: int
    p_paper_origin: float = 0.90
    p_bang_given_paper: float = 0.10
    p_misalign: float = 0.02
    # probabilities over total line counts 1..6, skewed toward 2-3 lines
    line_count_distribution: tuple[float, ...] = (0.18, 0.34, 0.26, 0.12, 0.06, 0.04)

    def __post_init__(self):
        for name in ("p_paper_origin", "p_bang_given_paper", "p_misalign"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ConfigError(f"{name}={p} outside [0,1]")
        dist = self.line_count_distribution
        if (
            len(dist) != N_LINES
            or not all(math.isfinite(p) and p >= 0 for p in dist)
            or abs(sum(dist) - 1.0) > 1e-9
        ):
            raise ConfigError(
                "line_count_distribution must be 6 finite nonnegative values summing to 1"
            )
        if self.n_records < 0:
            raise ConfigError("n_records must be nonnegative")


# ----------------------------------------------------------------------
# Default lexicon construction
# ----------------------------------------------------------------------

_SYL_A = (
    "bra", "card", "cho", "der", "fla", "gastro", "glo", "hemo", "kra", "lym",
    "mor", "nevro", "osto", "pleu", "pulmo", "quo", "sclero", "tro", "vascu", "zen",
    "bron", "cysto", "entero", "fibro", "hepa", "myo", "nefro", "angio", "spleno", "reno",
)
_SYL_B = (
    "bal", "cel", "dil", "fan", "gor", "lin", "mel", "nid", "par", "rol",
    "sten", "tub", "vax", "wim", "zet", "cor", "dex", "fil", "gon", "lum",
)
_SUFFIXES = ("ite", "ose", "émie", "pathie", "algie", "ome", "isme", "exie", "urie", "opnée")

_QUALIFIERS = (
    "aigu", "chronique", "severe", "probable", "terminal", "massif",
    "recidivant", "decompense", "evolutif", "bilateral",
)

_NOISE_WORDS = (
    "de", "du", "des", "la", "le", "avec", "sur", "apres", "suite", "en",
    "contexte", "notion", "recente", "ancien", "connu", "suspecte", "vraisemblable", "depuis",
)

# (tag, code letter(s), two-digit range, entry count, chapter sampling weight)
# Prevalence skew echoes real mortality data: circulatory and symptom codes
# dominate, pregnancy/ear chapters are nearly absent.
_CHAPTER_PLAN = (
    ("circulatory", "I", (0, 99), 30, 22.0),
    ("symptoms", "R", (0, 99), 25, 22.0),
    ("neoplasms", "C", (0, 97), 25, 16.0),
    ("respiratory", "J", (0, 99), 18, 9.0),
    ("endocrine", "E", (0, 90), 12, 5.0),
    ("nervous", "G", (0, 99), 12, 4.0),
    ("mental", "F", (0, 99), 12, 3.6),
    ("digestive", "K", (0, 93), 12, 3.5),
    ("infectious", "A", (0, 99), 10, 2.6),
    ("genitourinary", "N", (0, 99), 8, 2.7),
    ("external", "W", (0, 99), 10, 2.6),
    ("injury", "S", (0, 99), 10, 2.1),
    ("factors", "Z", (0, 99), 6, 3.1),
    ("blood", "D", (50, 89), 5, 0.8),
    ("musculoskeletal", "M", (0, 99), 5, 0.6),
    ("skin", "L", (0, 99), 4, 0.5),
    ("perinatal", "P", (0, 96), 3, 0.16),
    ("congenital", "Q", (0, 99), 3, 0.15),
    ("eye", "H", (0, 59), 3, 0.08),
    ("special", "U", (0, 99), 2, 0.05),
    ("ear", "H", (60, 95), 3, 0.04),
    ("pregnancy", "O", (0, 99), 2, 0.01),
)


def _make_stem(rng: random.Random, taken: set[str]) -> str:
    while True:
        stem = rng.choice(_SYL_A) + rng.choice(_SYL_B)
        if rng.random() < 0.6:
            stem += rng.choice(_SUFFIXES)
        if stem not in taken and stem not in _NOISE_WORDS and stem not in _QUALIFIERS:
            taken.add(stem)
            return stem


def _make_code(rng: random.Random, letter: str, lo: int, hi: int, taken: set[str]) -> Icd10Code:
    while True:
        num = rng.randint(lo, hi)
        text = f"{letter}{num:02d}"
        if rng.random() < 0.5:
            text += str(rng.randint(0, 9))
        if text not in taken:
            taken.add(text)
            return Icd10Code(text)


def _make_phrases(rng: random.Random, stem: str) -> tuple[str, ...]:
    variants = [stem]
    n_extra = rng.randint(0, 2)
    for _ in range(n_extra):
        if rng.random() < 0.5:
            variants.append(f"{rng.choice(_QUALIFIERS)} {stem}")
        else:
            variants.append(f"{stem} {rng.choice(_QUALIFIERS)}")
    return tuple(dict.fromkeys(variants))


def build_default_lexicon(seed: int) -> Lexicon:
    """Deterministic lexicon: >=200 distinct codes over all 22 chapters,
    plus one year-conditioned, one gender-conditioned, one age-conditioned
    and one adjacency-conditioned entry."""
    rng = random.Random(f"lexicon:{seed}")
    taken_stems: set[str] = set()
    # rule codes reserved up front so chapter sampling cannot collide
    taken_codes: set[str] = {
        "J10", "J11", "J09", "C63", "C61", "C509",
        "R098", "P220", "R092", "W19", "S423", "M841",
    }
    entries: list[LexiconEntry] = []

    for _tag, letter, (lo, hi), count, chapter_weight in _CHAPTER_PLAN:
        for rank in range(count):
            stem = _make_stem(rng, taken_stems)
            code = _make_code(rng, letter, lo, hi, taken_codes)
            weight = chapter_weight / ((rank + 1) ** 0.9)
            entries.append(
                LexiconEntry(
                    stem=stem,
                    phrases=_make_phrases(rng, stem),
                    code=code,
                    weight=weight,
                )
            )

    def reserve(text: str) -> Icd10Code:
        assert text in taken_codes
        return Icd10Code(text)

    # year-conditioned entry: coding convention changed between year indices
    entries.append(
        LexiconEntry(
            stem="grippone",
            phrases=("grippone", "grippone saisonniere", "syndrome grippone"),
            code=reserve("J10"),
            context_rule=ContextRule("year", 3, reserve("J11"), reserve("J09")),
            weight=9.0,
        )
    )
    # gender-conditioned entry
    entries.append(
        LexiconEntry(
            stem="gonadome",
            phrases=("gonadome", "gonadome metastatique"),
            code=reserve("C63"),
            context_rule=ContextRule("gender", 1, reserve("C61"), reserve("C509")),
            weight=8.0,
        )
    )
    # age-conditioned entry: infant buckets (<3) code to the perinatal chapter
    entries.append(
        LexiconEntry(
            stem="detressine",
            phrases=("detressine", "detressine respiratoire"),
            code=reserve("R098"),
            context_rule=ContextRule("age_bucket", 3, reserve("P220"), reserve("R092")),
            weight=6.0,
        )
    )
    # adjacency pair: a fall phrase right before the trauma phrase changes its code
    entries.append(
        LexiconEntry(
            stem="chuton",
            phrases=("chuton", "chuton accidentel"),
            code=reserve("W19"),
            weight=7.0,
        )
    )
    entries.append(
        LexiconEntry(
            stem="fracturome",
            phrases=("fracturome", "fracturome ferme"),
            code=reserve("M841"),
            adjacency_rule=AdjacencyRule("chuton", reserve("S423")),
            weight=7.0,
        )
    )

    return Lexicon(entries=tuple(entries), noise_vocab=_NOISE_WORDS)


# ----------------------------------------------------------------------
# Corpus generation
# ----------------------------------------------------------------------

_LINE_COUNTS = range(1, N_LINES + 1)
_PHRASES_PER_LINE = (1, 2, 3, 4)
_PHRASES_PER_LINE_CUM_WEIGHTS = tuple(accumulate((0.45, 0.35, 0.15, 0.05)))


@dataclass(frozen=True)
class _Drawable:
    """A lexicon entry with each phrase split into words, and the position
    of the stem word in it."""

    entry: LexiconEntry
    variants: tuple[tuple[tuple[str, ...], int], ...]


@dataclass(frozen=True)
class _Tables:
    """The draw tables every record of one corpus shares."""

    line_count_cum_weights: tuple[float, ...]
    entries: tuple[_Drawable, ...]
    entry_cum_weights: tuple[float, ...]
    by_stem: dict[str, _Drawable]  # the first entry of each stem


def _prepare(config: GeneratorConfig, lexicon: Lexicon) -> _Tables:
    drawables = []
    for e in lexicon.entries:
        variants = []
        for phrase in e.phrases:
            words = tuple(phrase.split(" "))
            variants.append((words, words.index(e.stem)))
        drawables.append(_Drawable(e, tuple(variants)))
    by_stem: dict[str, _Drawable] = {}
    for d in drawables:
        by_stem.setdefault(d.entry.stem, d)
    return _Tables(
        line_count_cum_weights=tuple(accumulate(config.line_count_distribution)),
        entries=tuple(drawables),
        entry_cum_weights=tuple(accumulate(e.weight for e in lexicon.entries)),
        by_stem=by_stem,
    )


@dataclass
class _Segment:
    words: list[str]
    entry: LexiconEntry | None  # None for detached noise words
    stem_pos: int = -1


def _sample_age_days(rng: random.Random) -> int:
    r = rng.random()
    if r < 0.01:
        return rng.randrange(0, 365)
    if r < 0.02:
        return rng.randrange(365, 5 * 365)
    if r < 0.10:
        return rng.randrange(5 * 365, 40 * 365)
    return rng.randrange(40 * 365, 106 * 365)


def _line_indices(rng: random.Random, count: int) -> list[int]:
    # part 1 = lines 1..4 filled contiguously; part 2 = lines 5/6
    if count <= 4:
        return list(range(1, count + 1))
    if count == 5:
        return [1, 2, 3, 4, rng.choice([5, 6])]
    return [1, 2, 3, 4, 5, 6]


def _build_segment(
    rng: random.Random, drawn: _Drawable, noise_vocab: tuple[str, ...]
) -> _Segment:
    words, stem_pos = rng.choice(drawn.variants)
    if rng.random() < 0.15:
        return _Segment([rng.choice(noise_vocab), *words], drawn.entry, stem_pos + 1)
    return _Segment(list(words), drawn.entry, stem_pos)


def _generate_one(
    index: int, config: GeneratorConfig, lexicon: Lexicon, tables: _Tables
) -> Certificate:
    rng = random.Random(f"{config.seed}:{index}")

    gender = rng.randrange(2)
    year = YEAR_MIN + rng.randrange(N_YEARS)
    age_days = _sample_age_days(rng)
    origin = 0 if rng.random() < config.p_paper_origin else 1
    side = encode_side_variables(age_days, gender, year, origin)

    n_lines = rng.choices(_LINE_COUNTS, cum_weights=tables.line_count_cum_weights)[0]
    indices = _line_indices(rng, n_lines)

    budget = MAX_CODES_PER_CERT
    line_segments: dict[int, list[_Segment]] = {}
    for line_no in indices:
        want = rng.choices(_PHRASES_PER_LINE, cum_weights=_PHRASES_PER_LINE_CUM_WEIGHTS)[0]
        want = min(want, budget)
        if want == 0:
            break
        segments: list[_Segment] = []
        while len(segments) < want:
            drawn = rng.choices(tables.entries, cum_weights=tables.entry_cum_weights)[0]
            entry = drawn.entry
            if segments and segments[-1].entry is entry:
                continue  # avoid immediate repeats; repeats across lines stay possible
            room = want - len(segments)
            if (
                entry.adjacency_rule is not None
                and room >= 2
                and rng.random() < 0.5
            ):
                trigger = tables.by_stem[entry.adjacency_rule.trigger_stem]
                segments.append(_build_segment(rng, trigger, lexicon.noise_vocab))
            segments.append(_build_segment(rng, drawn, lexicon.noise_vocab))
        segments = segments[:want]
        budget -= len(segments)
        line_segments[line_no] = segments

    # gold codes in phrase order, before any perturbation
    code_lines: list[list[Icd10Code]] = [[] for _ in range(N_LINES)]
    for line_no, segments in line_segments.items():
        prev = None
        for seg in segments:
            code_lines[line_no - 1].append(lexicon.code_for(seg.entry, side, prev))
            prev = seg.entry

    # "!" replaces one stem word on paper records; the gold code stays
    if origin == 0 and rng.random() < config.p_bang_given_paper:
        candidates = [
            (line_no, i)
            for line_no, segments in line_segments.items()
            for i, seg in enumerate(segments)
        ]
        line_no, i = candidates[rng.randrange(len(candidates))]
        seg = line_segments[line_no][i]
        seg.words[seg.stem_pos] = "!"

    # misalignment: last code of a line moves to the front of the preceding
    # line, which backward concatenation absorbs
    if rng.random() < config.p_misalign:
        donors = [k for k in range(2, N_LINES + 1) if code_lines[k - 1]]
        if donors:
            k = donors[rng.randrange(len(donors))]
            moved = code_lines[k - 1].pop()
            code_lines[k - 2].insert(0, moved)

    upper = rng.random() < 0.10
    texts: list[str | None] = [None] * N_LINES
    for line_no, segments in line_segments.items():
        parts: list[str] = []
        for i, seg in enumerate(segments):
            joiner = ", " if (i > 0 and rng.random() < 0.6) else " "
            if i == 0:
                joiner = ""
            word_join = "  " if rng.random() < 0.05 else " "
            parts.append(joiner + word_join.join(seg.words))
        text = "".join(parts)
        texts[line_no - 1] = text.upper() if upper else text

    return Certificate(
        id=f"c{index:07d}",
        lines=tuple(texts),
        side=side,
        gold_code_lines=tuple(tuple(codes) for codes in code_lines),
        raw_age_days=age_days,
    )


def generate_corpus(config: GeneratorConfig, lexicon: Lexicon) -> list[Certificate]:
    """Generate certificates; pure function of (config, lexicon).

    Record i draws from its own `random.Random(f"{seed}:{i}")`.  The weighted
    draws pass `Random.choices` cumulative weights built once per call; it
    does the same arithmetic as with `weights=`, so the corpus is the same
    as summing the weights at each draw.
    """
    tables = _prepare(config, lexicon)
    return [_generate_one(i, config, lexicon, tables) for i in range(config.n_records)]


def split_corpus(
    certs: list[Certificate],
    per_year_val: int,
    per_year_test: int,
    seed: int,
) -> tuple[list[Certificate], list[Certificate], list[Certificate]]:
    """Exact per-year-stratified split into (train, val, test).

    Val and test receive exactly the requested count from every year stratum,
    sampled without replacement; train keeps the remainder. Corpus order is
    preserved inside each part.
    """
    for part, count in (("val", per_year_val), ("test", per_year_test)):
        if count < 0:
            raise ValidationError(f"per-year {part} count must be non-negative, got {count}")
    by_year: dict[int, list[int]] = {}
    for i, cert in enumerate(certs):
        by_year.setdefault(cert.side.year, []).append(i)

    rng = random.Random(f"{seed}:split")
    val_idx: set[int] = set()
    test_idx: set[int] = set()
    for year in sorted(by_year):
        pool = by_year[year]
        need = per_year_val + per_year_test
        if len(pool) < need:
            raise ValidationError(
                f"year {YEAR_MIN + year}: stratum has {len(pool)} records, "
                f"needs {need} for the split"
            )
        picked = rng.sample(pool, need)
        val_idx.update(picked[:per_year_val])
        test_idx.update(picked[per_year_val:])

    train = [c for i, c in enumerate(certs) if i not in val_idx and i not in test_idx]
    val = [c for i, c in enumerate(certs) if i in val_idx]
    test = [c for i, c in enumerate(certs) if i in test_idx]
    return train, val, test
