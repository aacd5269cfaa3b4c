"""Multiset precision/recall/F, bootstrap CIs, chapter and stratum reports,
and the score-threshold rejection curve.

Code matching is multiset-based: tp for a record is the sum over codes of
min(predicted count, true count).  Micro averages sum the per-record counts
before applying the metric formulas.  Each report counts every record once,
into one row of (tp, fp, fn): strata sum their rows, the rejection curve
sums the rows above each threshold, and the bootstrap sums resampled rows,
drawing each block of resamples in one call from the same PCG64 stream that
one draw per resample would read.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .config import read_lines
from .errors import ValidationError
from .records import ALL_CHAPTERS, Certificate, Icd10Code, ORIGIN_PAPER, chapter_of


def count_matches(pred: Iterable[str], truth: Iterable[str]) -> tuple[int, int, int]:
    """(tp, fp, fn) under multiset semantics; order-insensitive."""
    pred = tuple(pred)
    truth = tuple(truth)
    left: dict[str, int] = {}
    for code in truth:
        left[code] = left.get(code, 0) + 1
    tp = 0
    for code in pred:
        n = left.get(code, 0)
        if n:
            left[code] = n - 1
            tp += 1
    return tp, len(pred) - tp, len(truth) - tp


def f_from_counts(tp: int, fp: int, fn: int) -> float:
    """F-measure with the degenerate cases pinned down.

    Both sides empty counts as perfect agreement (1.0); one side empty and
    the other not is total disagreement (0.0).
    """
    if tp == 0:
        return 1.0 if fp == 0 and fn == 0 else 0.0
    return 2.0 * tp / (2.0 * tp + fp + fn)


def f_measure(pred: Iterable[str], truth: Iterable[str]) -> float:
    return f_from_counts(*count_matches(pred, truth))


@dataclass(frozen=True)
class MetricReport:
    tp: int
    fp: int
    fn: int
    precision: float | None  # absent when no codes were predicted
    recall: float | None     # absent when no codes were true
    f_measure: float
    n_records: int
    stratum: str = "overall"
    ci: dict[str, tuple[float, float]] | None = None
    ci_level: float = 0.95  # the confidence level of `ci`


def _report_from_counts(tp: int, fp: int, fn: int, n_records: int, stratum: str) -> MetricReport:
    precision = tp / (tp + fp) if tp + fp > 0 else None
    recall = tp / (tp + fn) if tp + fn > 0 else None
    return MetricReport(
        tp=tp, fp=fp, fn=fn,
        precision=precision, recall=recall,
        f_measure=f_from_counts(tp, fp, fn),
        n_records=n_records, stratum=stratum,
    )


Pair = tuple[Sequence[str], Sequence[str]]


def _match_counts(pairs: Iterable[Pair]) -> np.ndarray:
    """(n, 3) int64 rows of per-record (tp, fp, fn), one count per pair."""
    return np.array([count_matches(p, t) for p, t in pairs], dtype=np.int64)


def _summed_report(counts: np.ndarray, stratum: str) -> MetricReport:
    tp, fp, fn = (int(v) for v in counts.sum(axis=0))
    return _report_from_counts(tp, fp, fn, len(counts), stratum)


def micro_metrics(pairs: Sequence[Pair], stratum: str = "overall") -> MetricReport:
    """Sum (tp, fp, fn) over all (pred, truth) pairs, then apply the formulas."""
    if not pairs:
        raise ValidationError("micro_metrics needs at least one pair")
    return _summed_report(_match_counts(pairs), stratum)


# Resample indices drawn per block.  It keeps the bootstrap's working arrays
# near 1 MB at any size, small enough to stay in cache while they are summed.
_BOOTSTRAP_BLOCK = 1 << 16


def bootstrap_ci(
    pairs: Sequence[Pair],
    b: int = 1000,
    level: float = 0.95,
    seed: int = 0,
) -> dict[str, tuple[float, float]]:
    """Percentile bootstrap over records for precision, recall and F.

    Resamples whole records with replacement b times and recomputes the
    micro metrics each time; deterministic under the seed.  Each record is
    matched once.  The resamples are drawn a block of rows per call; one
    (rows, n) draw is the same PCG64 stream as rows draws of size n, so the
    intervals do not depend on the block size.
    """
    if not pairs:
        raise ValidationError("bootstrap_ci needs at least one pair")
    if b < 1:
        raise ValidationError(f"bootstrap resamples must be at least 1, got {b}")
    if seed < 0:
        raise ValidationError(f"bootstrap seed must be non-negative, got {seed}")
    if not 0.0 < level < 1.0:
        raise ValidationError(f"level must be in (0, 1), got {level}")
    counts = _match_counts(pairs)
    rng = np.random.default_rng(seed)
    n = len(pairs)
    rows = max(1, _BOOTSTRAP_BLOCK // n)
    sums = np.empty((3, b), dtype=np.int64)
    for start in range(0, b, rows):
        idx = rng.integers(0, n, size=(min(rows, b - start), n))
        for j in range(3):
            sums[j, start:start + len(idx)] = counts[:, j].take(idx).sum(axis=1)
    tp, fp, fn = sums.astype(np.float64)
    # f_from_counts and the precision/recall formulas, one resample per column.
    with np.errstate(divide="ignore", invalid="ignore"):
        f_degenerate = np.where((fp == 0) & (fn == 0), 1.0, 0.0)
        stats = (
            np.where(tp + fp > 0, tp / (tp + fp), np.nan),  # NaN: undefined in this resample
            np.where(tp + fn > 0, tp / (tp + fn), np.nan),
            np.where(tp > 0, 2.0 * tp / (2.0 * tp + fp + fn), f_degenerate),
        )
    lo_q, hi_q = (1.0 - level) / 2.0, 1.0 - (1.0 - level) / 2.0
    out = {}
    for name, col in zip(("precision", "recall", "f_measure"), stats):
        col = col[~np.isnan(col)]
        if col.size == 0:
            continue
        out[name] = (float(np.quantile(col, lo_q)), float(np.quantile(col, hi_q)))
    return out


@dataclass(frozen=True)
class ChapterRow:
    index: int
    name: str
    tp: int
    fp: int
    fn: int
    fp_rate: float | None  # fp / (tp + fp); absent when nothing was predicted
    fn_rate: float | None  # fn / (tp + fn); absent when nothing was true
    prevalence: float      # share of true codes, fraction of 1


@dataclass(frozen=True)
class ChapterReport:
    rows: tuple[ChapterRow, ...]


def per_chapter(pairs: Sequence[Pair]) -> ChapterReport:
    """Chapter-level error rates after per-code multiset matching.

    Within one code, matched occurrences are TP and the surplus on either
    side becomes FP/FN; every occurrence is then attributed to the code's
    chapter.  The counts are kept per distinct code string, so each one is
    parsed and looked up once per call.
    """
    if not pairs:
        raise ValidationError("per_chapter needs at least one pair")
    n_pred: dict[str, int] = {}
    n_true: dict[str, int] = {}
    n_matched: dict[str, int] = {}
    for pred, truth in pairs:
        left: dict[str, int] = {}
        for code in truth:
            left[code] = left.get(code, 0) + 1
            n_true[code] = n_true.get(code, 0) + 1
        for code in pred:
            n_pred[code] = n_pred.get(code, 0) + 1
            if left.get(code, 0):
                left[code] -= 1
                n_matched[code] = n_matched.get(code, 0) + 1
    n_ch = len(ALL_CHAPTERS)
    tp = np.zeros(n_ch + 1, dtype=np.int64)
    fp = np.zeros(n_ch + 1, dtype=np.int64)
    fn = np.zeros(n_ch + 1, dtype=np.int64)
    for code in {**n_true, **n_pred}:
        ch = chapter_of(Icd10Code(code)).index
        m = n_matched.get(code, 0)
        tp[ch] += m
        fp[ch] += n_pred.get(code, 0) - m
        fn[ch] += n_true.get(code, 0) - m
    total_truth = sum(n_true.values())
    if total_truth == 0:
        raise ValidationError("per_chapter: no true codes present")
    rows = []
    for ch in range(1, n_ch + 1):
        denom_p = tp[ch] + fp[ch]
        denom_t = tp[ch] + fn[ch]
        rows.append(
            ChapterRow(
                index=ch,
                name=ALL_CHAPTERS[ch - 1].name,
                tp=int(tp[ch]), fp=int(fp[ch]), fn=int(fn[ch]),
                fp_rate=float(fp[ch] / denom_p) if denom_p > 0 else None,
                fn_rate=float(fn[ch] / denom_t) if denom_t > 0 else None,
                prevalence=float((tp[ch] + fn[ch]) / total_truth),
            )
        )
    return ChapterReport(rows=tuple(rows))


@dataclass(frozen=True)
class CalibrationRow:
    threshold: float
    fraction_rejected: float
    f_accepted: float | None  # absent when every prediction is rejected
    n_accepted: int


@dataclass(frozen=True)
class CalibrationCurve:
    rows: tuple[CalibrationRow, ...]


def calibration_curve(
    scored_pairs: Sequence[tuple[Sequence[str], float, Sequence[str]]],
) -> CalibrationCurve:
    """Rejection curve on the 0.00..1.00 grid with 0.01 steps.

    Each entry is (predicted codes, score, true codes).  At each threshold,
    predictions with score <= threshold are rejected; micro F is reported
    on the accepted remainder.  Each record is matched once and the scores
    are sorted once; a threshold accepts a suffix of the sorted records and
    reads its (tp, fp, fn) sums from suffix cumulative sums.
    """
    if not scored_pairs:
        raise ValidationError("calibration_curve needs at least one prediction")
    for _, score, _ in scored_pairs:
        if not 0.0 < score <= 1.0:
            raise ValidationError(f"scores must be in (0, 1], got {score}")
    n = len(scored_pairs)
    counts = _match_counts((p, t) for p, _, t in scored_pairs)
    scores = np.array([s for _, s, _ in scored_pairs], dtype=np.float64)
    order = np.argsort(scores)
    # suffix[k] sums the records at sorted positions k..n-1; suffix[n] is zero.
    suffix = np.zeros((n + 1, 3), dtype=np.int64)
    suffix[:n] = counts[order][::-1].cumsum(axis=0)[::-1]
    thresholds = [i / 100.0 for i in range(101)]
    first_accepted = np.searchsorted(scores[order], thresholds, side="right")
    rows = []
    for threshold, k in zip(thresholds, first_accepted.tolist()):
        n_accepted = n - k
        tp, fp, fn = suffix[k].tolist()
        rows.append(
            CalibrationRow(
                threshold=threshold,
                fraction_rejected=(n - n_accepted) / n,
                f_accepted=f_from_counts(tp, fp, fn) if n_accepted else None,
                n_accepted=n_accepted,
            )
        )
    return CalibrationCurve(rows=tuple(rows))


_STRATA = ("origin", "contains_bang")


def stratum_label(cert: Certificate, stratum: str) -> str:
    if stratum == "origin":
        return "paper" if cert.side.origin == ORIGIN_PAPER else "electronic"
    if stratum == "contains_bang":
        if cert.side.origin != ORIGIN_PAPER:
            return "electronic"
        return "paper_bang" if cert.contains_bang() else "paper_no_bang"
    raise ValidationError(f"unknown stratum {stratum!r}; expected one of {_STRATA}")


def stratified_report(
    pairs: Sequence[Pair],
    certs: Sequence[Certificate],
    stratum: str,
) -> list[MetricReport]:
    """One MetricReport per present stratum value, plus the overall row.

    Each pair is matched once; a stratum's report sums its records' rows.
    """
    if len(pairs) != len(certs):
        raise ValidationError(f"{len(pairs)} pairs vs {len(certs)} certificates")
    if not pairs:
        raise ValidationError("stratified_report needs at least one pair")
    groups: dict[str, list[int]] = {}
    for i, cert in enumerate(certs):
        groups.setdefault(stratum_label(cert, stratum), []).append(i)
    counts = _match_counts(pairs)
    reports = [_summed_report(counts[rows], label) for label, rows in sorted(groups.items())]
    reports.append(_summed_report(counts, "overall"))
    return reports


def format_metric_report(report: MetricReport) -> str:
    def fmt(v: float | None) -> str:
        return f"{v:.4f}" if v is not None else "-"

    lines = [
        f"stratum: {report.stratum}",
        f"records: {report.n_records}",
        f"tp={report.tp} fp={report.fp} fn={report.fn}",
        f"precision: {fmt(report.precision)}",
        f"recall:    {fmt(report.recall)}",
        f"f_measure: {fmt(report.f_measure)}",
    ]
    if report.ci:
        for name in ("precision", "recall", "f_measure"):
            if name in report.ci:
                lo, hi = report.ci[name]
                lines.append(f"{name} {100 * report.ci_level:g}% CI: [{lo:.4f}, {hi:.4f}]")
    return "\n".join(lines)


def report_to_kv(report: MetricReport) -> str:
    """Machine-readable key=value lines for one report."""
    prefix = report.stratum
    items = [
        (f"{prefix}.records", report.n_records),
        (f"{prefix}.tp", report.tp),
        (f"{prefix}.fp", report.fp),
        (f"{prefix}.fn", report.fn),
        (f"{prefix}.precision", "" if report.precision is None else f"{report.precision:.6f}"),
        (f"{prefix}.recall", "" if report.recall is None else f"{report.recall:.6f}"),
        (f"{prefix}.f_measure", f"{report.f_measure:.6f}"),
    ]
    if report.ci:
        for name, (lo, hi) in sorted(report.ci.items()):
            items.append((f"{prefix}.{name}.ci_lower", f"{lo:.6f}"))
            items.append((f"{prefix}.{name}.ci_upper", f"{hi:.6f}"))
    return "\n".join(f"{k}={v}" for k, v in items)


def format_chapter_report(report: ChapterReport) -> str:
    def fmt(v: float | None) -> str:
        return f"{100.0 * v:7.2f}%" if v is not None else "      - "

    lines = ["chapter  fp_rate   fn_rate   prevalence  name"]
    for row in report.rows:
        lines.append(
            f"{row.index:>7}  {fmt(row.fp_rate)}  {fmt(row.fn_rate)}  "
            f"{100.0 * row.prevalence:9.4f}%  {row.name}"
        )
    return "\n".join(lines)


_CALIBRATION_HEADER = "threshold\tfraction_rejected\tf_accepted"


def format_calibration(curve: CalibrationCurve) -> str:
    """3-column delimited text: threshold, fraction rejected, F on accepted."""
    lines = [_CALIBRATION_HEADER]
    for row in curve.rows:
        f_text = f"{row.f_accepted:.6f}" if row.f_accepted is not None else ""
        lines.append(f"{row.threshold:.2f}\t{row.fraction_rejected:.6f}\t{f_text}")
    return "\n".join(lines)


def read_calibration(path) -> list[tuple[float, float, float | None]]:
    """Parse a calibration file written from format_calibration.

    Returns one (threshold, fraction rejected, F on accepted or None) row per
    grid threshold.  A wrong header, a row off the 0.00..1.00 grid, a wrong
    field count, an unparsable or out-of-range number, or a missing row
    (a cut file) raises ValidationError naming the path and the line.
    """
    lines = read_lines(path)
    header_no, header = lines[0] if lines else (1, "")
    if header != _CALIBRATION_HEADER:
        raise ValidationError(f"{path}: line {header_no}: bad or missing header")

    def number(text: str, line_no: int, name: str) -> float:
        try:
            value = float(text)
        except ValueError:
            value = None
        if value is None or not 0.0 <= value <= 1.0:
            raise ValidationError(f"{path}: line {line_no}: bad {name} {text!r}")
        return value

    rows = []
    for i, (line_no, line) in enumerate(lines[1:]):
        fields = line.split("\t")
        if len(fields) != 3:
            raise ValidationError(f"{path}: line {line_no}: {len(fields)} fields, want 3")
        thr_text, frac_text, f_text = fields
        if i > 100 or thr_text != f"{i / 100.0:.2f}":
            raise ValidationError(f"{path}: line {line_no}: threshold {thr_text!r} is off the grid")
        rows.append((
            i / 100.0,
            number(frac_text, line_no, "fraction_rejected"),
            number(f_text, line_no, "f_accepted") if f_text else None,
        ))
    if len(rows) != 101:
        raise ValidationError(
            f"{path}: truncated after line {lines[-1][0]} ({len(rows)} of 101 rows)"
        )
    return rows
