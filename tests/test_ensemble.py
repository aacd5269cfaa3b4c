"""Consensus voting, greedy member selection, manifest files."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from medseq.decoding import Prediction
from medseq.ensemble import (
    Ensemble,
    SelectionStep,
    consensus,
    consensus_by_record,
    ensemble_predict,
    greedy_select,
    greedy_select_predictions,
    read_manifest,
    write_manifest,
)
from medseq.errors import ValidationError
from medseq.metrics import f_measure
from medseq.textprep import bpe_train


def P(codes, score=0.5, id="r"):
    return Prediction(id=id, codes=tuple(codes), score=score)


class TestConsensusHandExamples:
    def test_majority_of_singletons(self):
        cands = [P(["I10"], 0.9), P(["I10"], 0.8), P(["E119"], 0.7)]
        got = consensus(cands)
        assert got.codes == ("I10",)
        np.testing.assert_allclose(got.score, (0.9 + 0.8 + 0.7) / 3)

    def test_superset_member_wins(self):
        # ("A00","B00") scores F=2/3 against each singleton; the singletons
        # score (2/3 + 0)/2 = 1/3, so the two-code member wins.
        cands = [P(["A00", "B00"], 0.6), P(["A00"], 0.9), P(["B00"], 0.9)]
        got = consensus(cands)
        assert got.codes == ("A00", "B00")
        np.testing.assert_allclose(got.score, 0.8)


class TestConsensusRules:
    def test_single_candidate_passes_through(self):
        got = consensus([P(["Z99"], 0.42)])
        assert got.codes == ("Z99",) and got.score == 0.42

    def test_unanimous(self):
        got = consensus([P(["A00", "A00"], s) for s in (0.2, 0.4, 0.9)])
        assert got.codes == ("A00", "A00")
        np.testing.assert_allclose(got.score, 0.5)

    def test_two_candidates_always_tie_to_first(self):
        assert consensus([P(["A00"]), P(["B00"])]).codes == ("A00",)
        assert consensus([P(["B00"]), P(["A00"])]).codes == ("B00",)

    def test_score_is_mean_even_for_losing_members(self):
        cands = [P(["I10"], 0.9), P(["I10"], 0.9), P(["E119"], 0.1)]
        np.testing.assert_allclose(consensus(cands).score, (0.9 + 0.9 + 0.1) / 3)

    def test_mixed_records_rejected(self):
        with pytest.raises(ValidationError):
            consensus([P(["A00"], id="r1"), P(["A00"], id="r2")])

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            consensus([])

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_pick_attains_brute_force_maximum(self, data):
        """The pick has the largest mean pairwise F, and the lowest index
        among candidates that share it; members include strict majorities."""
        alphabet = ("A00", "B01", "C22", "I10", "E119")
        codes = st.lists(st.sampled_from(alphabet), min_size=0, max_size=4).map(
            lambda c: tuple(sorted(c))
        )
        n = data.draw(st.integers(2, 7))
        k = data.draw(st.integers(1, n))
        members = [data.draw(codes)] * k + [data.draw(codes) for _ in range(n - k)]
        order = data.draw(st.permutations(range(n)))
        cands = [P(members[i]) for i in order]
        means = [
            sum(f_measure(c.codes, o.codes) for j, o in enumerate(cands) if j != i) / (n - 1)
            for i, c in enumerate(cands)
        ]
        first_best = means.index(max(means))
        assert consensus(cands).codes == cands[first_best].codes

    def test_mixed_candidate_can_beat_a_strict_majority(self):
        # The majority's mean F is (3 + 2/3) / 6 = 0.611; the mixed candidate's
        # is (4 * 2/3 + 2 * 2/3) / 6 = 0.667.
        cands = [P(["A00"])] * 4 + [P(["B01"]), P(["A00", "B01"]), P(["B01"])]
        assert consensus(cands).codes == ("A00", "B01")

    def test_permutation_invariance_when_winner_is_unique(self):
        rng = np.random.default_rng(0)
        alphabet = ["A00", "B01", "C22", "I10", "E119", "W19"]
        tie_free = 0
        for _ in range(300):
            n = int(rng.integers(3, 6))
            members = [
                tuple(sorted(rng.choice(alphabet, size=rng.integers(0, 4), replace=True)))
                for _ in range(n)
            ]
            means = [
                sum(f_measure(members[i], members[j]) for j in range(n) if j != i) / (n - 1)
                for i in range(n)
            ]
            ranked = sorted(means, reverse=True)
            cands = [P(m) for m in members]
            base = consensus(cands)
            # the mean of all scores is invariant regardless of ties
            for perm in itertools.islice(itertools.permutations(range(n)), 4):
                out = consensus([cands[i] for i in perm])
                np.testing.assert_allclose(out.score, base.score, rtol=1e-12)
                if ranked[0] - ranked[1] > 1e-9:
                    assert out.codes == base.codes
            if ranked[0] - ranked[1] > 1e-9:
                tie_free += 1
        assert tie_free >= 50  # the strict branch must actually be exercised


class TestConsensusByRecord:
    def test_aligned_members(self):
        m0 = [P(["A00"], 0.8, "r1"), P(["B01"], 0.6, "r2")]
        m1 = [P(["A00"], 0.4, "r1"), P(["C22"], 0.8, "r2")]
        out = consensus_by_record([m0, m1])
        assert [p.id for p in out] == ["r1", "r2"]
        assert out[0].codes == ("A00",)
        np.testing.assert_allclose(out[0].score, 0.6)
        assert out[1].codes == ("B01",)  # two-way tie keeps member 0

    def test_ragged_members_rejected(self):
        with pytest.raises(ValidationError):
            consensus_by_record([[P(["A00"])], []])

    def test_no_members_rejected(self):
        with pytest.raises(ValidationError):
            consensus_by_record([])


class TestGreedySelection:
    def test_two_member_consensus_equals_first_member(self):
        # Pairwise mean F is symmetric for two candidates, so consensus of
        # two members reproduces the lower-indexed member everywhere.
        m0 = [P(["A00"], id="r1"), P(["X99"], id="r2")]
        m1 = [P(["B01"], id="r1"), P(["B01"], id="r2")]
        out = consensus_by_record([m0, m1])
        assert [p.codes for p in out] == [("A00",), ("X99",)]

    def test_greedy_keeps_best_single_when_no_addition_helps(self):
        golds = [("A00",), ("B01",), ("C22",)]
        m0 = [P(["A00"], id="r1"), P(["Z00"], id="r2"), P(["C22"], id="r3")]
        m1 = [P(["Y00"], id="r1"), P(["B01"], id="r2"), P(["C22"], id="r3")]
        m2 = [P(["A00"], id="r1"), P(["B01"], id="r2"), P(["W19"], id="r3")]
        ens = greedy_select_predictions([m0, m1, m2], golds)
        assert ens.member_indices == (0,)  # all tie at F=2/3; lowest index wins
        assert len(ens.log) == 1

    def test_best_single_is_selected(self):
        golds = [("A00",), ("B01",)]
        weak = [P(["X00"], id="r1"), P(["X00"], id="r2")]
        strong = [P(["A00"], id="r1"), P(["B01"], id="r2")]
        ens = greedy_select_predictions([weak, strong], golds)
        assert ens.member_indices == (1,)
        np.testing.assert_allclose(ens.log[0].val_f, 1.0)

    def test_log_is_non_decreasing(self):
        rng = np.random.default_rng(1)
        alphabet = ["A00", "B01", "C22", "I10"]
        golds = [tuple(sorted(rng.choice(alphabet, size=2, replace=False))) for _ in range(6)]
        members = []
        for _ in range(4):
            preds = []
            for i, g in enumerate(golds):
                codes = [c for c in g if rng.random() < 0.7]
                preds.append(P(tuple(sorted(codes)) or ("Q00",), id=f"r{i}"))
            members.append(preds)
        ens = greedy_select_predictions(members, golds)
        fs = [s.val_f for s in ens.log]
        assert fs == sorted(fs)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            greedy_select_predictions([[P(["A00"])]], [("A00",), ("B01",)])

    def test_no_members_rejected(self):
        with pytest.raises(ValidationError):
            greedy_select_predictions([], [])

    def test_ensemble_needs_members(self):
        with pytest.raises(ValidationError):
            Ensemble(member_indices=(), log=())


class TestCheckpointLevelSelection:
    def test_greedy_select_runs_on_trained_pool(self, toy_data, toy_checkpoints):
        _, pairs, src_tok, tgt_tok = toy_data
        ens = greedy_select(toy_checkpoints, src_tok, tgt_tok, pairs[:10], beam_width=2)
        assert all(0 <= i < 3 for i in ens.member_indices)
        assert len(ens.log) == len(ens.member_indices)
        fs = [s.val_f for s in ens.log]
        assert fs == sorted(fs)

    def test_duplicate_pool_rejected(self, toy_data, toy_checkpoints):
        _, pairs, src_tok, tgt_tok = toy_data
        with pytest.raises(ValidationError):
            greedy_select(
                [toy_checkpoints[0], toy_checkpoints[0]], src_tok, tgt_tok, pairs[:4]
            )

    def test_tokenizer_mismatch_rejected(self, toy_data, toy_checkpoints):
        _, pairs, src_tok, _ = toy_data
        foreign = bpe_train(["zz yy xx"], 40)
        with pytest.raises(ValidationError):
            greedy_select(toy_checkpoints, src_tok, foreign, pairs[:4])

    def test_empty_pool_and_empty_validation_rejected(self, toy_data, toy_checkpoints):
        _, pairs, src_tok, tgt_tok = toy_data
        with pytest.raises(ValidationError):
            greedy_select([], src_tok, tgt_tok, pairs[:4])
        with pytest.raises(ValidationError):
            greedy_select(toy_checkpoints, src_tok, tgt_tok, [])

    def test_ensemble_predict_aligns_records(self, toy_data, toy_checkpoints):
        _, pairs, src_tok, tgt_tok = toy_data
        subset = pairs[:6]
        out = ensemble_predict(toy_checkpoints, src_tok, tgt_tok, subset, beam_width=2)
        assert [p.id for p in out] == [pair.id for pair in subset]
        assert all(0.0 < p.score <= 1.0 for p in out)


class TestManifest:
    def _ensemble(self):
        return Ensemble(
            member_indices=(2, 0),
            log=(SelectionStep(2, 0.75), SelectionStep(0, 0.8125)),
        )

    def test_roundtrip(self, tmp_path):
        path = str(tmp_path / "ensemble.txt")
        write_manifest(path, ["m2.bin", "m0.bin"], ["c" * 64, "d" * 64], self._ensemble())
        paths, hashes, ens = read_manifest(path)
        assert paths == ["m2.bin", "m0.bin"]
        assert hashes == ["c" * 64, "d" * 64]
        assert ens.member_indices == (2, 0)
        assert ens.log[1] == SelectionStep(0, 0.8125)

    def test_write_requires_alignment(self, tmp_path):
        path = str(tmp_path / "ensemble.txt")
        with pytest.raises(ValidationError):
            write_manifest(path, ["only-one.bin"], ["e" * 64], self._ensemble())

    def test_bad_line_rejected(self, tmp_path):
        path = tmp_path / "ensemble.txt"
        path.write_text("member\tonly-two-fields\n")
        with pytest.raises(ValidationError):
            read_manifest(str(path))

    def test_member_step_count_mismatch_rejected(self, tmp_path):
        path = tmp_path / "ensemble.txt"
        path.write_text("member\ta.bin\tf00\nmember\tb.bin\tf11\nstep\t0\t0.500000\n")
        with pytest.raises(ValidationError):
            read_manifest(str(path))

    @pytest.mark.parametrize("step", ["step\tone\t0.500000", "step\t1.5\t0.500000", "step\t0\thigh"])
    def test_bad_step_fields_rejected(self, tmp_path, step):
        path = tmp_path / "ensemble.txt"
        path.write_text(f"member\ta.bin\tf00\n{step}\n")
        with pytest.raises(ValidationError, match=r"ensemble.txt: line 2"):
            read_manifest(str(path))
