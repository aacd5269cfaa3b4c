"""Multiset precision/recall/F, bootstrap CIs, chapter and stratum reports,
and the score-threshold rejection curve.

Code matching is multiset-based: tp for a record is the sum over codes of
min(predicted count, true count).  Micro averages sum the per-record counts
before applying the metric formulas.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import ValidationError
from .records import ALL_CHAPTERS, Certificate, Icd10Code, ORIGIN_PAPER, chapter_of


def count_matches(pred: Iterable[str], truth: Iterable[str]) -> tuple[int, int, int]:
    """(tp, fp, fn) under multiset semantics; order-insensitive."""
    p = Counter(pred)
    t = Counter(truth)
    tp = sum(min(n, t[c]) for c, n in p.items())
    fp = sum(p.values()) - tp
    fn = sum(t.values()) - tp
    return tp, fp, fn


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


def micro_metrics(pairs: Sequence[Pair], stratum: str = "overall") -> MetricReport:
    """Sum (tp, fp, fn) over all (pred, truth) pairs, then apply the formulas."""
    if not pairs:
        raise ValidationError("micro_metrics needs at least one pair")
    tp = fp = fn = 0
    for pred, truth in pairs:
        a, b, c = count_matches(pred, truth)
        tp += a
        fp += b
        fn += c
    return _report_from_counts(tp, fp, fn, len(pairs), stratum)


def _metric_triple(tp: float, fp: float, fn: float) -> tuple[float, float, float]:
    p = tp / (tp + fp) if tp + fp > 0 else np.nan
    r = tp / (tp + fn) if tp + fn > 0 else np.nan
    if tp + fp + fn == 0:
        f = 1.0
    elif tp == 0:
        f = 0.0
    else:
        f = 2.0 * tp / (2.0 * tp + fp + fn)
    return p, r, f


def bootstrap_ci(
    pairs: Sequence[Pair],
    b: int = 1000,
    level: float = 0.95,
    seed: int = 0,
) -> dict[str, tuple[float, float]]:
    """Percentile bootstrap over records for precision, recall and F.

    Resamples whole records with replacement b times and recomputes the
    micro metrics each time; deterministic under the seed.
    """
    if not pairs:
        raise ValidationError("bootstrap_ci needs at least one pair")
    if not 0.0 < level < 1.0:
        raise ValidationError(f"level must be in (0, 1), got {level}")
    counts = np.array([count_matches(p, t) for p, t in pairs], dtype=np.float64)
    rng = np.random.default_rng(seed)
    n = len(pairs)
    stats = np.empty((b, 3), dtype=np.float64)
    for i in range(b):
        idx = rng.integers(0, n, size=n)
        tp, fp, fn = counts[idx].sum(axis=0)
        stats[i] = _metric_triple(tp, fp, fn)
    lo_q, hi_q = (1.0 - level) / 2.0, 1.0 - (1.0 - level) / 2.0
    out = {}
    for j, name in enumerate(("precision", "recall", "f_measure")):
        col = stats[:, j]
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
    chapter.
    """
    if not pairs:
        raise ValidationError("per_chapter needs at least one pair")
    n_ch = len(ALL_CHAPTERS)
    tp = np.zeros(n_ch + 1, dtype=np.int64)
    fp = np.zeros(n_ch + 1, dtype=np.int64)
    fn = np.zeros(n_ch + 1, dtype=np.int64)
    total_truth = 0
    for pred, truth in pairs:
        pc = Counter(pred)
        tc = Counter(truth)
        total_truth += sum(tc.values())
        for code in set(pc) | set(tc):
            ch = chapter_of(Icd10Code(code)).index
            m = min(pc[code], tc[code])
            tp[ch] += m
            fp[ch] += pc[code] - m
            fn[ch] += tc[code] - m
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
    on the accepted remainder.  Each record is matched once; a threshold
    sums the (tp, fp, fn) rows of the records it accepts.
    """
    if not scored_pairs:
        raise ValidationError("calibration_curve needs at least one prediction")
    for _, score, _ in scored_pairs:
        if not 0.0 < score <= 1.0:
            raise ValidationError(f"scores must be in (0, 1], got {score}")
    n = len(scored_pairs)
    counts = np.array([count_matches(p, t) for p, _, t in scored_pairs], dtype=np.int64)
    scores = np.array([s for _, s, _ in scored_pairs], dtype=np.float64)
    rows = []
    for i in range(101):
        threshold = i / 100.0
        accepted = scores > threshold
        n_accepted = int(accepted.sum())
        tp, fp, fn = (int(c) for c in counts[accepted].sum(axis=0))
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
    """One MetricReport per present stratum value, plus the overall row."""
    if len(pairs) != len(certs):
        raise ValidationError(f"{len(pairs)} pairs vs {len(certs)} certificates")
    groups: dict[str, list[Pair]] = {}
    for pair, cert in zip(pairs, certs):
        groups.setdefault(stratum_label(cert, stratum), []).append(pair)
    reports = [micro_metrics(group, stratum=label) for label, group in sorted(groups.items())]
    reports.append(micro_metrics(pairs, stratum="overall"))
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
                lines.append(f"{name} 95% CI: [{lo:.4f}, {hi:.4f}]")
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
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        lines = data.decode("utf-8").splitlines()
    except UnicodeDecodeError:
        raise ValidationError(f"calibration file {path}: not UTF-8 text") from None
    if not lines or lines[0] != _CALIBRATION_HEADER:
        raise ValidationError(f"calibration file {path}: line 1: bad or missing header")

    def number(text: str, line_no: int, name: str) -> float:
        try:
            value = float(text)
        except ValueError:
            value = None
        if value is None or not 0.0 <= value <= 1.0:
            raise ValidationError(f"calibration file {path}: line {line_no}: bad {name} {text!r}")
        return value

    rows = []
    for line_no, line in enumerate(lines[1:], start=2):
        fields = line.split("\t")
        if len(fields) != 3:
            raise ValidationError(
                f"calibration file {path}: line {line_no}: {len(fields)} fields, want 3"
            )
        thr_text, frac_text, f_text = fields
        i = line_no - 2
        if i > 100 or thr_text != f"{i / 100.0:.2f}":
            raise ValidationError(
                f"calibration file {path}: line {line_no}: threshold {thr_text!r} is off the grid"
            )
        rows.append((
            i / 100.0,
            number(frac_text, line_no, "fraction_rejected"),
            number(f_text, line_no, "f_accepted") if f_text else None,
        ))
    if len(rows) != 101:
        raise ValidationError(
            f"calibration file {path}: truncated after line {len(lines)} ({len(rows)} of 101 rows)"
        )
    return rows
