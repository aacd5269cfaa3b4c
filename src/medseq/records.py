"""Death-certificate data model: ICD-10 codes, side variables, corpus file I/O.

A certificate carries up to 6 free-text lines (part 1: lines 1-4, part 2:
lines 5-6), four categorical side variables, and per-line gold ICD-10 code
lists. The corpus file format defined here is the contract between the
synthetic generator, the text pipeline and the evaluation harness.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from dataclasses import dataclass

from .config import atomic_open
from .errors import ConfigError, CorpusFormatError, ValidationError

N_LINES = 6
AGE_BUCKETS = 25
YEAR_MIN = 2011
N_YEARS = 6
ORIGIN_PAPER = 0
ORIGIN_ELECTRONIC = 1
MAX_CODES_PER_CERT = 20

_CODE_RE = re.compile(r"^[A-Z][0-9]{2,3}$")


@dataclass(frozen=True, order=True)
class Icd10Code:
    """A normalized ICD-10 code: one uppercase letter then 2 or 3 digits."""

    text: str

    def __post_init__(self):
        norm = self.text.strip().upper().replace(".", "")
        if not _CODE_RE.match(norm):
            raise ValidationError(f"malformed ICD-10 code: {self.text!r}")
        object.__setattr__(self, "text", norm)

    def __str__(self) -> str:
        return self.text


@dataclass(frozen=True)
class SideVariables:
    """Categorical side variables as dense category indices."""

    gender: int
    year: int
    age_bucket: int
    origin: int

    CARDINALITIES = (AGE_BUCKETS, N_YEARS, 2, 2)  # age, year, gender, origin

    def __post_init__(self):
        for name, value, card in (
            ("gender", self.gender, 2),
            ("year", self.year, N_YEARS),
            ("age_bucket", self.age_bucket, AGE_BUCKETS),
            ("origin", self.origin, 2),
        ):
            if not 0 <= value < card:
                raise ValidationError(f"{name} index {value} outside [0,{card})")

    def as_tuple(self) -> tuple[int, int, int, int]:
        """Indices in the fixed (age_bucket, year, gender, origin) order."""
        return (self.age_bucket, self.year, self.gender, self.origin)


@dataclass(frozen=True)
class Certificate:
    """One death record: text lines, side variables, per-line gold codes."""

    id: str
    lines: tuple[str | None, ...]
    side: SideVariables
    gold_code_lines: tuple[tuple[Icd10Code, ...], ...]
    raw_age_days: int = 0

    def __post_init__(self):
        if len(self.lines) != N_LINES or len(self.gold_code_lines) != N_LINES:
            raise ValidationError(
                f"certificate {self.id}: expected {N_LINES} line slots, "
                f"got {len(self.lines)} text / {len(self.gold_code_lines)} code"
            )
        if not any(line for line in self.lines):
            raise ValidationError(f"certificate {self.id}: no nonempty text line")
        if self.raw_age_days < 0:
            raise ValidationError(f"certificate {self.id}: negative age")

    def all_codes(self) -> list[Icd10Code]:
        """Gold codes flattened in line order 1..6."""
        return [c for codes in self.gold_code_lines for c in codes]

    def contains_bang(self) -> bool:
        """True when any text line carries the unreadable-word marker."""
        return any(line is not None and "!" in line for line in self.lines)


@dataclass(frozen=True)
class ChapterId:
    index: int  # 1..22
    name: str


# (range_start, range_end, chapter index, chapter name), ordered by start.
# Range bounds compare on the 3-character code prefix; gaps between the
# published ranges are absorbed into the preceding chapter so that the map
# is total over all well-formed codes.
_CHAPTERS = (
    ("A00", "B99", 1, "Certain infectious and parasitic diseases"),
    ("C00", "D48", 2, "Neoplasms"),
    ("D49", "D89", 3, "Diseases of the blood and blood-forming organs"),
    ("E00", "E99", 4, "Endocrine, nutritional and metabolic diseases"),
    ("F00", "F99", 5, "Mental and behavioural disorders"),
    ("G00", "G99", 6, "Diseases of the nervous system"),
    ("H00", "H59", 7, "Diseases of the eye and adnexa"),
    ("H60", "H99", 8, "Diseases of the ear and mastoid process"),
    ("I00", "I99", 9, "Diseases of the circulatory system"),
    ("J00", "J99", 10, "Diseases of the respiratory system"),
    ("K00", "K99", 11, "Diseases of the digestive system"),
    ("L00", "L99", 12, "Diseases of the skin and subcutaneous tissue"),
    ("M00", "M99", 13, "Diseases of the musculoskeletal system and connective tissue"),
    ("N00", "N99", 14, "Diseases of the genitourinary system"),
    ("O00", "O99", 15, "Pregnancy, childbirth and the puerperium"),
    ("P00", "P99", 16, "Certain conditions originating in the perinatal period"),
    ("Q00", "Q99", 17, "Congenital malformations, deformations and chromosomal abnormalities"),
    ("R00", "R99", 18, "Symptoms, signs and abnormal clinical and laboratory findings"),
    ("S00", "T99", 19, "Injury, poisoning and certain other consequences of external causes"),
    ("U00", "U99", 22, "Codes for special purposes"),
    ("V00", "Y99", 20, "External causes of morbidity and mortality"),
    ("Z00", "Z99", 21, "Factors influencing health status and contact with health services"),
)

_CHAPTER_STARTS = [start for start, _, _, _ in _CHAPTERS]

ALL_CHAPTERS = tuple(
    ChapterId(idx, name) for _, _, idx, name in sorted(_CHAPTERS, key=lambda row: row[2])
)


def chapter_of(code: Icd10Code) -> ChapterId:
    """Map a well-formed code to its unique chapter via its 3-char prefix.

    The chapter with the greatest range start at or below the prefix wins,
    so codes in gaps between published ranges (e.g. D90-D99) attach to the
    preceding chapter and the map stays total over well-formed codes.
    """
    prefix = code.text[:3]
    pos = bisect_right(_CHAPTER_STARTS, prefix) - 1
    _, _, idx, name = _CHAPTERS[pos]
    return ChapterId(idx, name)


def age_bucket_of(raw_age_days: int) -> int:
    """25-bucket age scheme: [0,28) days, [28d,1y), [1,5)y, then 5-year steps
    up to [105,110), terminal bucket 110+. One year counts as 365 days."""
    if raw_age_days < 0:
        raise ValidationError(f"negative age: {raw_age_days} days")
    if raw_age_days < 28:
        return 0
    if raw_age_days < 365:
        return 1
    years = raw_age_days // 365
    if years < 5:
        return 2
    if years >= 110:
        return AGE_BUCKETS - 1
    return 3 + (years - 5) // 5


def encode_side_variables(
    raw_age_days: int,
    gender: int,
    year: int,
    origin: int,
    year_min: int = YEAR_MIN,
    n_years: int = N_YEARS,
) -> SideVariables:
    """Encode raw demographic values as category indices.

    `year` is a calendar year inside the configured range; the index is its
    offset from `year_min`.
    """
    if not year_min <= year < year_min + n_years:
        raise ConfigError(
            f"year {year} outside configured range [{year_min},{year_min + n_years - 1}]"
        )
    return SideVariables(
        gender=gender,
        year=year - year_min,
        age_bucket=age_bucket_of(raw_age_days),
        origin=origin,
    )


_HEADER = (
    ["id", "gender", "year", "age_days", "origin"]
    + [f"line{i}_text" for i in range(1, N_LINES + 1)]
    + [f"line{i}_codes" for i in range(1, N_LINES + 1)]
)


def write_corpus(certs: list[Certificate], path, year_min: int = YEAR_MIN) -> None:
    """Write certificates as UTF-8 TSV, one row per certificate."""
    with atomic_open(path) as fh:
        fh.write("\t".join(_HEADER) + "\n")
        for cert in certs:
            cells = [
                cert.id,
                str(cert.side.gender),
                str(cert.side.year + year_min),
                str(cert.raw_age_days),
                str(cert.side.origin),
            ]
            for line in cert.lines:
                if line is not None and ("\t" in line or "\n" in line):
                    raise ValidationError(f"certificate {cert.id}: text contains tab/newline")
                cells.append(line if line is not None else "")
            for codes in cert.gold_code_lines:
                cells.append(" ".join(c.text for c in codes))
            fh.write("\t".join(cells) + "\n")


def read_corpus(path, year_min: int = YEAR_MIN, n_years: int = N_YEARS) -> list[Certificate]:
    """Read a corpus TSV; inverse of write_corpus on the in-memory records."""
    certs: list[Certificate] = []
    seen_ids: set[str] = set()
    with open(path, "r", encoding="utf-8", newline="") as fh:
        header_line = fh.readline()
        if not header_line:
            raise CorpusFormatError("empty corpus file", line_no=1)
        if header_line.rstrip("\r\n").split("\t") != _HEADER:
            raise CorpusFormatError("bad or missing header row", line_no=1)
        for line_no, raw in enumerate(fh, start=2):
            row = raw.rstrip("\r\n")
            if not row:
                continue
            cells = row.split("\t")
            if len(cells) != len(_HEADER):
                raise CorpusFormatError(
                    f"expected {len(_HEADER)} columns, got {len(cells)}", line_no=line_no
                )
            cert_id = cells[0]
            if cert_id in seen_ids:
                raise CorpusFormatError(f"duplicate id {cert_id!r}", line_no=line_no, field="id")
            seen_ids.add(cert_id)
            try:
                gender = int(cells[1])
                year = int(cells[2])
                age_days = int(cells[3])
                origin = int(cells[4])
            except ValueError as exc:
                raise CorpusFormatError(str(exc), line_no=line_no, field="side variables") from exc
            lines = tuple(cells[5 + i] or None for i in range(N_LINES))
            code_lines = []
            for i in range(N_LINES):
                cell = cells[5 + N_LINES + i]
                try:
                    code_lines.append(tuple(Icd10Code(tok) for tok in cell.split()) if cell else ())
                except ValidationError as exc:
                    raise CorpusFormatError(
                        str(exc), line_no=line_no, field=f"line{i + 1}_codes"
                    ) from exc
            try:
                side = encode_side_variables(
                    age_days, gender, year, origin, year_min=year_min, n_years=n_years
                )
                certs.append(
                    Certificate(
                        id=cert_id,
                        lines=lines,
                        side=side,
                        gold_code_lines=tuple(code_lines),
                        raw_age_days=age_days,
                    )
                )
            except (ValidationError, ConfigError) as exc:
                raise CorpusFormatError(str(exc), line_no=line_no) from exc
    return certs
