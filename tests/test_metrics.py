"""Multiset metrics, bootstrap intervals, chapter/stratum reports, calibration."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from medseq.errors import ValidationError
from medseq.metrics import (
    CalibrationRow,
    bootstrap_ci,
    calibration_curve,
    count_matches,
    f_from_counts,
    f_measure,
    format_calibration,
    format_chapter_report,
    format_metric_report,
    micro_metrics,
    per_chapter,
    read_calibration,
    report_to_kv,
    stratified_report,
    stratum_label,
)
from medseq.records import Certificate, Icd10Code, SideVariables

CODES = st.lists(
    st.sampled_from(["I10", "E119", "A00", "B01", "W19", "C22"]), min_size=0, max_size=5
)


def brute_force_counts(pred, truth):
    """Independent multiset overlap: sorted two-pointer walk."""
    p, t = sorted(pred), sorted(truth)
    i = j = tp = 0
    while i < len(p) and j < len(t):
        if p[i] == t[j]:
            tp += 1
            i += 1
            j += 1
        elif p[i] < t[j]:
            i += 1
        else:
            j += 1
    return tp, len(p) - tp, len(t) - tp


class TestCountMatches:
    def test_multiset_semantics(self):
        tp, fp, fn = count_matches(["I10", "I10", "E119"], ["I10", "E119", "E119"])
        assert (tp, fp, fn) == (2, 1, 1)

    def test_order_insensitive(self):
        assert count_matches(["A00", "B01"], ["B01", "A00"]) == (2, 0, 0)

    def test_empty_sides(self):
        assert count_matches([], []) == (0, 0, 0)
        assert count_matches(["I10"], []) == (0, 1, 0)
        assert count_matches([], ["I10"]) == (0, 0, 1)

    @settings(max_examples=200, deadline=None)
    @given(pred=CODES, truth=CODES)
    def test_matches_brute_force(self, pred, truth):
        assert count_matches(pred, truth) == brute_force_counts(pred, truth)

    @settings(max_examples=100, deadline=None)
    @given(pred=CODES, truth=CODES)
    def test_swap_symmetry(self, pred, truth):
        tp, fp, fn = count_matches(pred, truth)
        assert count_matches(truth, pred) == (tp, fn, fp)


class TestFMeasure:
    def test_both_empty_is_perfect(self):
        assert f_from_counts(0, 0, 0) == 1.0

    def test_one_sided_is_zero(self):
        assert f_from_counts(0, 3, 0) == 0.0
        assert f_from_counts(0, 0, 2) == 0.0

    def test_balanced_half(self):
        assert f_from_counts(1, 1, 1) == 0.5

    def test_published_operating_point(self):
        # counts engineered so precision=.872 and recall=.784 exactly
        tp = 872 * 784
        fp = 784_000 - tp
        fn = 872_000 - tp
        f = f_from_counts(tp, fp, fn)
        assert abs(f - 0.826) <= 0.002

    @settings(max_examples=100, deadline=None)
    @given(pred=CODES, truth=CODES)
    def test_range_and_symmetry(self, pred, truth):
        f = f_measure(pred, truth)
        assert 0.0 <= f <= 1.0
        assert f == f_measure(truth, pred)

    @settings(max_examples=100, deadline=None)
    @given(codes=CODES)
    def test_self_agreement(self, codes):
        assert f_measure(codes, codes) == 1.0


class TestMicroMetrics:
    def test_sums_counts_before_formulas(self):
        pairs = [(("I10",), ("I10",)), (("E119", "A00"), ("E119",))]
        rep = micro_metrics(pairs)
        assert (rep.tp, rep.fp, rep.fn) == (2, 1, 0)
        assert rep.precision == 2 / 3
        assert rep.recall == 1.0
        assert rep.f_measure == 2 * 2 / (2 * 2 + 1 + 0)
        assert rep.n_records == 2
        assert rep.stratum == "overall"

    def test_no_predictions_anywhere(self):
        rep = micro_metrics([((), ("I10",))])
        assert rep.precision is None
        assert rep.recall == 0.0
        assert rep.f_measure == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            micro_metrics([])

    def test_matches_brute_force_oracle_on_random_pairs(self):
        rng = np.random.default_rng(3)
        alphabet = ["I10", "E119", "A00", "B01", "W19", "C22", "F03"]
        pairs = []
        for _ in range(200):
            pred = tuple(rng.choice(alphabet, size=rng.integers(0, 6), replace=True))
            truth = tuple(rng.choice(alphabet, size=rng.integers(0, 6), replace=True))
            pairs.append((pred, truth))
        rep = micro_metrics(pairs)
        tp = fp = fn = 0
        for pred, truth in pairs:
            a, b, c = brute_force_counts(pred, truth)
            tp, fp, fn = tp + a, fp + b, fn + c
        assert (rep.tp, rep.fp, rep.fn) == (tp, fp, fn)
        assert rep.precision == tp / (tp + fp)
        assert rep.recall == tp / (tp + fn)
        assert rep.f_measure == 2 * tp / (2 * tp + fp + fn)


def _noisy_pairs(rng, n, flip=0.3):
    alphabet = ["I10", "E119", "A00", "B01", "W19", "C22"]
    pairs = []
    for _ in range(n):
        truth = list(rng.choice(alphabet, size=rng.integers(1, 4), replace=True))
        pred = [c for c in truth if rng.random() > flip]
        if rng.random() < flip:
            pred.append(str(rng.choice(alphabet)))
        pairs.append((tuple(pred), tuple(truth)))
    return pairs


class TestBootstrap:
    def test_deterministic_under_seed(self):
        pairs = _noisy_pairs(np.random.default_rng(0), 50)
        a = bootstrap_ci(pairs, b=200, seed=11)
        b = bootstrap_ci(pairs, b=200, seed=11)
        assert a == b
        c = bootstrap_ci(pairs, b=200, seed=12)
        assert a != c

    def test_interval_contains_point_estimate(self):
        pairs = _noisy_pairs(np.random.default_rng(1), 80)
        rep = micro_metrics(pairs)
        ci = bootstrap_ci(pairs, b=500, seed=0)
        for name, value in (
            ("precision", rep.precision),
            ("recall", rep.recall),
            ("f_measure", rep.f_measure),
        ):
            lo, hi = ci[name]
            assert lo <= value <= hi
            assert 0.0 <= lo <= hi <= 1.0

    def test_constant_data_gives_zero_width(self):
        pairs = [(("I10", "E119"), ("I10",))] * 40
        ci = bootstrap_ci(pairs, b=300, seed=5)
        for lo, hi in ci.values():
            assert lo == hi

    def test_width_shrinks_like_sqrt_n(self):
        rng = np.random.default_rng(2)
        small = _noisy_pairs(rng, 300)
        big = small * 4  # exactly 4x the data, same distribution
        w_small = np.subtract(*reversed(bootstrap_ci(small, b=400, seed=3)["f_measure"]))
        w_big = np.subtract(*reversed(bootstrap_ci(big, b=400, seed=3)["f_measure"]))
        assert 0.3 <= w_big / w_small <= 0.7

    def test_level_validated(self):
        pairs = [(("I10",), ("I10",))]
        with pytest.raises(ValidationError):
            bootstrap_ci(pairs, level=1.0)

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            bootstrap_ci([])


class TestPerChapter:
    def test_hand_example(self):
        report = per_chapter([(("I10", "I64"), ("I10", "E119"))])
        assert len(report.rows) == 22
        assert [r.index for r in report.rows] == list(range(1, 23))
        by_index = {r.index: r for r in report.rows}
        circulatory = by_index[9]
        assert (circulatory.tp, circulatory.fp, circulatory.fn) == (1, 1, 0)
        assert circulatory.fp_rate == 0.5
        assert circulatory.fn_rate == 0.0
        assert circulatory.prevalence == 0.5
        endocrine = by_index[4]
        assert (endocrine.tp, endocrine.fp, endocrine.fn) == (0, 0, 1)
        assert endocrine.fp_rate is None
        assert endocrine.fn_rate == 1.0
        assert endocrine.prevalence == 0.5
        untouched = by_index[1]
        assert untouched.fp_rate is None and untouched.fn_rate is None
        assert untouched.prevalence == 0.0

    def test_within_code_multiset_matching(self):
        report = per_chapter([(("I10", "I10"), ("I10",))])
        row = {r.index: r for r in report.rows}[9]
        assert (row.tp, row.fp, row.fn) == (1, 1, 0)

    def test_external_causes_attribution(self):
        report = per_chapter([(("W19",), ("W19",))])
        row = {r.index: r for r in report.rows}[20]
        assert row.tp == 1

    def test_requires_true_codes(self):
        with pytest.raises(ValidationError):
            per_chapter([(("I10",), ())])

    def test_malformed_predicted_code_raises(self):
        # callers must pre-filter malformed model output before attribution
        with pytest.raises(ValidationError):
            per_chapter([(("NOT-A-CODE",), ("I10",))])

    def test_format_has_row_per_chapter(self):
        report = per_chapter([(("I10",), ("I10",))])
        text = format_chapter_report(report)
        assert len(text.splitlines()) == 23


class TestCalibration:
    def test_grid_shape_and_monotonicity(self):
        rng = np.random.default_rng(4)
        scored = [
            (p, float(rng.uniform(0.05, 1.0)), t) for p, t in _noisy_pairs(rng, 60)
        ]
        curve = calibration_curve(scored)
        assert len(curve.rows) == 101
        assert curve.rows[0].threshold == 0.0
        assert curve.rows[100].threshold == 1.0
        rejected = [r.fraction_rejected for r in curve.rows]
        assert all(a <= b for a, b in zip(rejected, rejected[1:]))
        assert curve.rows[100].n_accepted == 0
        assert curve.rows[100].f_accepted is None
        assert curve.rows[100].fraction_rejected == 1.0

    def test_threshold_boundary_is_inclusive_reject(self):
        scored = [
            (("I10",), 0.5, ("I10",)),
            (("E119",), 0.8, ("A00",)),
        ]
        curve = calibration_curve(scored)
        at_half = curve.rows[50]
        assert at_half.n_accepted == 1  # the 0.5-scored record is rejected
        assert at_half.f_accepted == 0.0  # only the wrong prediction remains
        below = curve.rows[49]
        assert below.n_accepted == 2

    def test_scores_validated(self):
        with pytest.raises(ValidationError):
            calibration_curve([(("I10",), 0.0, ("I10",))])
        with pytest.raises(ValidationError):
            calibration_curve([])

    def test_format(self):
        curve = calibration_curve([(("I10",), 0.4, ("I10",))])
        lines = format_calibration(curve).splitlines()
        assert lines[0] == "threshold\tfraction_rejected\tf_accepted"
        assert len(lines) == 102
        assert lines[1] == "0.00\t0.000000\t1.000000"
        assert lines[-1] == "1.00\t1.000000\t"


def _reference_calibration(scored):
    """One micro_metrics call per threshold over the accepted records."""
    n = len(scored)
    rows = []
    for i in range(101):
        threshold = i / 100.0
        accepted = [(p, t) for p, s, t in scored if s > threshold]
        f = micro_metrics(accepted).f_measure if accepted else None
        rows.append(CalibrationRow(threshold, (n - len(accepted)) / n, f, len(accepted)))
    return tuple(rows)


class TestCalibrationMatchesReference:
    @pytest.mark.parametrize("scored", [
        [(("I10",), 0.5, ("I10",)), (("E119",), 0.01, ("A00",)), (("A00", "A00"), 1.0, ("A00",))],
        [((), 0.01, ()), (("I10",), 0.01, ())],
        [(("I10", "W19"), 0.37, ("W19",))],
    ], ids=["on_grid_thresholds", "all_rejected_from_0.01", "single_record"])
    def test_fixed_cases(self, scored):
        assert calibration_curve(scored).rows == _reference_calibration(scored)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(
        st.tuples(
            CODES,
            st.one_of(
                st.integers(1, 100).map(lambda i: i / 100.0),
                st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
            ),
            CODES,
        ),
        min_size=1, max_size=30,
    ))
    def test_random_scored_pairs(self, scored):
        assert calibration_curve(scored).rows == _reference_calibration(scored)


class TestReadCalibration:
    SCORED = [
        (("I10",), 0.4, ("I10",)),
        (("E119", "A00"), 0.9, ("A00",)),
        ((), 0.55, ("W19",)),
    ]
    TEXT = format_calibration(calibration_curve(SCORED)) + "\n"

    def _read(self, tmp_path, text):
        path = tmp_path / "calibration.tsv"
        path.write_text(text, encoding="utf-8")
        return read_calibration(path)

    def test_roundtrip(self, tmp_path):
        def six(v):
            return None if v is None else float(f"{v:.6f}")

        rows = self._read(tmp_path, self.TEXT)
        curve = calibration_curve(self.SCORED)
        assert rows == [(r.threshold, six(r.fraction_rejected), six(r.f_accepted)) for r in curve.rows]
        assert rows[0] == (0.0, 0.0, 0.666667) and rows[100] == (1.0, 1.0, None)

    def test_every_line_boundary_rejected(self, tmp_path):
        lines = self.TEXT.splitlines(keepends=True)
        assert len(lines) == 102
        for n in range(len(lines)):
            with pytest.raises(ValidationError, match="calibration.tsv"):
                self._read(tmp_path, "".join(lines[:n]))

    def test_every_mid_line_cut_rejected(self, tmp_path):
        # len(TEXT) - 1 would drop only the final newline, which still loads
        for cut in range(len(self.TEXT) - 1):
            if cut and self.TEXT[cut - 1] == "\n":
                continue
            with pytest.raises(ValidationError, match=r"calibration.tsv: (line|truncated)"):
                self._read(tmp_path, self.TEXT[:cut])
        assert len(self._read(tmp_path, self.TEXT[:-1])) == 101

    @pytest.mark.parametrize("old, new, where", [
        ("0.50\t", "0.50\t0.3x", "line 52: bad fraction_rejected"),
        ("\t0.666667\n", "\tnan\n", "line 2: bad f_accepted"),
        ("0.20\t", "0.20\textra\t", "line 22: 4 fields"),
        ("0.30\t", "0.30", "line 32: 2 fields"),
        ("0.40\t", "0.41\t", "line 42: threshold"),
        ("threshold\t", "thresh\t", "line 1: bad or missing header"),
    ])
    def test_malformed_line_named(self, tmp_path, old, new, where):
        assert old in self.TEXT
        with pytest.raises(ValidationError, match=where):
            self._read(tmp_path, self.TEXT.replace(old, new, 1))

    def test_extra_row_rejected(self, tmp_path):
        with pytest.raises(ValidationError, match="line 103"):
            self._read(tmp_path, self.TEXT + "1.01\t1.000000\t\n")


def _cert(cid, origin, bang=False):
    line = "acute !illness" if bang else "acute illness"
    return Certificate(
        id=cid,
        lines=(line, None, None, None, None, None),
        side=SideVariables(gender=0, year=0, age_bucket=3, origin=origin),
        gold_code_lines=((Icd10Code("I10"),), (), (), (), (), ()),
    )


class TestStrata:
    def test_origin_labels(self):
        assert stratum_label(_cert("a", 0), "origin") == "paper"
        assert stratum_label(_cert("b", 1), "origin") == "electronic"

    def test_bang_labels(self):
        assert stratum_label(_cert("a", 0, bang=True), "contains_bang") == "paper_bang"
        assert stratum_label(_cert("a", 0, bang=False), "contains_bang") == "paper_no_bang"
        assert stratum_label(_cert("a", 1, bang=False), "contains_bang") == "electronic"

    def test_unknown_stratum(self):
        with pytest.raises(ValidationError):
            stratum_label(_cert("a", 0), "age")

    def test_grouping_and_overall(self):
        certs = [_cert("a", 0), _cert("b", 0), _cert("c", 1)]
        pairs = [(("I10",), ("I10",)), ((), ("I10",)), (("I10",), ("I10",))]
        reports = stratified_report(pairs, certs, "origin")
        assert [r.stratum for r in reports] == ["electronic", "paper", "overall"]
        by = {r.stratum: r for r in reports}
        assert by["electronic"].n_records == 1
        assert by["electronic"].f_measure == 1.0
        assert by["paper"].n_records == 2
        assert (by["paper"].tp, by["paper"].fn) == (1, 1)
        assert by["overall"].n_records == 3

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            stratified_report([(("I10",), ("I10",))], [], "origin")


class TestReportFormatting:
    def test_kv_lines(self):
        rep = micro_metrics([(("I10", "A00"), ("I10",)), (("E119",), ("E119", "B01"))])
        kv = report_to_kv(rep)
        lines = dict(l.split("=", 1) for l in kv.splitlines())
        assert lines["overall.records"] == "2"
        assert lines["overall.tp"] == "2"
        assert lines["overall.fp"] == "1"
        assert lines["overall.fn"] == "1"
        assert lines["overall.precision"] == f"{2/3:.6f}"
        assert lines["overall.f_measure"] == f"{2*2/(2*2+1+1):.6f}"

    def test_human_report_mentions_ci(self):
        from dataclasses import replace

        rep = micro_metrics([(("I10",), ("I10",))])
        rep = replace(rep, ci={"f_measure": (0.9, 1.0)})
        text = format_metric_report(rep)
        assert "f_measure 95% CI: [0.9000, 1.0000]" in text
        kv = report_to_kv(rep)
        assert "overall.f_measure.ci_lower=0.900000" in kv
