#!/usr/bin/env python3
"""medseq benchmark: training, decoding and the CLI pipeline, end to end.

Run from the repository root:

    python3 perfbench/run.py --workload model --seed 1 --seconds 58 --trace 0

Every run builds its inputs from --seed and sets up all three phases.  It
then runs rounds as a closed loop (the next operation starts when the last
one ends): a round is one operation of each phase, one more of each of the
workload's phases, and one more set-up of all three phases, timed and then
discarded.  The run stops after --seconds once MIN_ROUNDS rounds are done.
Operations are short (about a second), so each metric gets many samples
spread over the whole run.  Train and decode take turns over CHUNKS sets of
inputs; a rate is the work of all chunks over the sum of each chunk's mean
time, and ``setup_s`` is the median set-up.  Every run prints every
end-to-end metric; the workload decides which phases get twice the
operations and which layers the trace sees.  The loss and F are fixed for a
seed.

With --trace 1 the run times the workload's phases untraced for half of
--seconds, then wraps medseq's public functions (see layer_trace.py), sets
each phase up and runs one operation of each traced, and prints the
per-layer metrics plus the tracing overhead.  The traced part is a fixed
amount of work, so its call counts repeat exactly for a seed.

Outputs are checked on every operation; a failed check counts the operation
as failed.  The last line of stdout is the JSON result.  medseq is imported
from ``src/`` next to this directory; without it the run exits 2.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import hashlib
import importlib
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import Counter, defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
FIXTURE = HERE / "fixture"
WORK = ROOT / ".perfbench_work"

PHASES = ("train", "decode", "pipeline")
# Each workload runs its own phases twice per round, and the trace sees only them.
WORKLOADS = {"model": ("train", "decode"), "pipeline": ("pipeline",)}
MIN_ROUNDS = 4
CHUNKS = 4  # train and decode take turns over this many sets of inputs
LEXICON_SEED = 0  # the fixture's tokenizers were learned on this lexicon
MODEL_SEED = 0  # every run trains from the same initial weights

# train: 2000 certificates, 1652 in the train split; one operation trains a
# fresh model for TRAIN_STEPS epochs of one batch, on TRAIN_BATCH records
# taken at fixed length quantiles of the split.
TRAIN_RECORDS = 2000
TRAIN_VAL_PER_YEAR, TRAIN_TEST_PER_YEAR = 8, 50
TRAIN_BATCH = 128
TRAIN_STEPS = 4
# Every training batch pads to this shape, so a step costs the same for every seed.
TRAIN_MAX_SRC, TRAIN_MAX_TGT = 16, 12
LOSS_WINDOW = 2  # steps at each end of the operation compared by the loss check

# decode: records drawn apart from the fixture's own corpus (seed 0).
DECODE_SEED_OFFSET = 1_000_000
DECODE_POOL = 1024
BEAM4_RECORDS = 12  # per chunk, as are the next two
BEAM1_RECORDS = 24
GREEDY_RECORDS = 128
# validation_f decodes in batches and each batch runs until its slowest record
# ends.  At 128 per batch the rate hangs on the longest record of each batch
# and varied by 0.47 (quartile spread over median) across seeds; at 16 it
# varies by 0.10.
GREEDY_BATCH = 16
BEAM4_F_FLOOR = 0.7  # seeds 0-99 gave 0.763 to 0.90 over the 48 width-4 records
SCORE_RTOL = 1e-4

# pipeline: a 2000-record corpus through the CLI, 600 test records evaluated.
PIPELINE_RECORDS = 2000
PIPELINE_TEST_PER_YEAR = 100
P_DROP, P_SUBSTITUTE, P_INSERT = 0.10, 0.10, 0.05

MAX_CODES = 20

END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("train_tokens_per_s", "tokens/s"),
    ("train_loss", "nats"),
    ("beam4_records_per_s", "records/s"),
    ("beam1_records_per_s", "records/s"),
    ("greedy_records_per_s", "records/s"),
    ("beam4_f", "F"),
    ("greedy_f", "F"),
    ("gen_data_records_per_s", "records/s"),
    ("tokenize_records_per_s", "records/s"),
    ("evaluate_records_per_s", "records/s"),
)

TENSOR_OPS = (
    "matmul", "softmax", "layer_norm", "dropout", "cross_entropy",
    "relu", "embedding_lookup", "add", "mul",
)


def _layer_metrics() -> tuple[tuple[str, str], ...]:
    specs = []
    for op in TENSOR_OPS:
        specs += [(f"tensor.{op}.calls", "count"), (f"tensor.{op}.ms", "ms")]
    specs += [("tensor.backward.calls", "count"), ("tensor.backward.ms", "ms")]
    for fn in ("encode_source", "decode_logits", "sequence_loss"):
        specs += [(f"transformer.{fn}.calls", "count"), (f"transformer.{fn}.ms", "ms")]
    specs += [
        ("transformer.decode_logits.positions", "count"),
        ("train.loss_and_grads.ms_p50", "ms"),
        ("train.loss_and_grads.ms_p90", "ms"),
        ("train.adam_step.ms", "ms"),
        ("train.pad_batch.ms", "ms"),
        ("train.pad_batch.pad_share_src", "ratio"),
        ("train.pad_batch.pad_share_tgt", "ratio"),
        ("decoding.beam_search.calls", "count"),
        ("decoding.beam_search.ms", "ms"),
        ("decoding.beam_search.self_ms", "ms"),
        ("decoding.greedy_decode.ms", "ms"),
        ("textprep.token_is_word_final.calls", "count"),
        ("textprep.decode.calls", "count"),
        ("textprep.bpe_train.ms", "ms"),
        ("textprep.encode.ms", "ms"),
        ("synth.build_default_lexicon.ms", "ms"),
        ("synth.generate_corpus.ms", "ms"),
        ("synth.split_corpus.ms", "ms"),
        ("records.read_corpus.ms", "ms"),
        ("records.write_corpus.ms", "ms"),
        ("metrics.bootstrap_ci.ms", "ms"),
        ("metrics.per_chapter.ms", "ms"),
        ("metrics.calibration_curve.ms", "ms"),
        ("metrics.stratified_report.ms", "ms"),
        ("decoding.read_predictions.ms", "ms"),
        ("config.file_sha256.calls", "count"),
        ("config.file_sha256.ms", "ms"),
        ("train.load_checkpoint.ms", "ms"),
        ("train.model_from_checkpoint.ms", "ms"),
        ("textprep.load_tokenizer.ms", "ms"),
        ("cli.main.ms", "ms"),
    ]
    return tuple(specs)


LAYER_METRICS = _layer_metrics()
PER_LAYER = LAYER_METRICS + (("trace.overhead_pct", "%"),)

# Layers each phase must call when traced; one that is never called is
# reported as a missing layer rather than as a silent zero.
EXPECTED_LAYERS = {
    "train": [f"tensor.{op}" for op in TENSOR_OPS] + [
        "tensor.backward", "transformer.encode_source", "transformer.decode_logits",
        "transformer.sequence_loss", "train.loss_and_grads", "train.adam_step",
        "train.pad_batch", "textprep.load_tokenizer",
    ],
    "decode": [f"tensor.{op}" for op in TENSOR_OPS if op != "cross_entropy"] + [
        "transformer.encode_source", "transformer.decode_logits",
        "decoding.beam_search", "decoding.greedy_decode", "decoding.predict_pairs",
        "textprep.token_is_word_final", "textprep.decode", "train.pad_batch",
        "train.validation_f", "train.load_checkpoint", "train.model_from_checkpoint",
        "textprep.load_tokenizer",
    ],
    "pipeline": [
        "cli.main", "textprep.bpe_train", "synth.build_default_lexicon",
        "synth.generate_corpus", "synth.split_corpus", "records.read_corpus",
        "records.write_corpus", "metrics.bootstrap_ci", "metrics.per_chapter",
        "metrics.calibration_curve", "metrics.stratified_report",
        "decoding.read_predictions", "config.file_sha256",
    ],
}


class SetupError(Exception):
    """The benchmark's inputs could not be prepared."""


def import_medseq():
    """Import medseq from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "medseq" / "__init__.py").is_file():
        raise SetupError(f"no medseq package under {src}")
    sys.path.insert(0, str(src))
    package = importlib.import_module("medseq")
    if Path(package.__file__).resolve().parent != (src / "medseq").resolve():
        raise SetupError(f"medseq imported from {package.__file__}, not from {src}")
    return {name: importlib.import_module(f"medseq.{name}") for name in (
        "synth", "textprep", "train", "transformer", "decoding", "cli",
    )}


def micro_f(pairs) -> float:
    """Multiset micro F over (predicted, gold) code sequences, counted here."""
    tp = fp = fn = 0
    for pred, gold in pairs:
        p, g = Counter(pred), Counter(gold)
        hit = sum(min(n, g[c]) for c, n in p.items())
        tp += hit
        fp += sum(p.values()) - hit
        fn += sum(g.values()) - hit
    if tp == 0:
        return 1.0 if fp == 0 and fn == 0 else 0.0
    return 2.0 * tp / (2.0 * tp + fp + fn)


def length_profile_sample(pool: list, n: int) -> list:
    """n records of the pool at evenly spaced quantiles of (codes, source
    length), in pool order.  The records come from the seed; the length
    profile, which sets what decoding costs, is the same for every seed."""
    ranked = sorted(
        range(len(pool)),
        key=lambda i: (len(pool[i].target_codes), len(pool[i].source_text), i),
    )
    picks = sorted(ranked[(2 * k + 1) * len(pool) // (2 * n)] for k in range(n))
    return [pool[i] for i in picks]


def fixed_shape_batches(pairs: list, encoded: list) -> list[list]:
    """CHUNKS batches of TRAIN_BATCH pairs that each pad to (TRAIN_MAX_SRC,
    TRAIN_MAX_TGT): each holds one pair of either length, and the rest are
    taken at fixed length quantiles of the pairs that fit."""
    fits = [
        (pair, enc) for pair, enc in zip(pairs, encoded, strict=True)
        if len(enc.src) <= TRAIN_MAX_SRC and len(enc.tgt) <= TRAIN_MAX_TGT
    ]
    longest_src = [pair for pair, enc in fits if len(enc.src) == TRAIN_MAX_SRC][:CHUNKS]
    longest_tgt = [
        pair for pair, enc in fits
        if len(enc.tgt) == TRAIN_MAX_TGT and len(enc.src) < TRAIN_MAX_SRC
    ][:CHUNKS]
    if len(longest_src) < CHUNKS or len(longest_tgt) < CHUNKS:
        raise SetupError("too few training pairs of the longest padded lengths")
    anchors = {pair.id for pair in longest_src + longest_tgt}
    rest = length_profile_sample(
        [pair for pair, _ in fits if pair.id not in anchors], CHUNKS * (TRAIN_BATCH - 2)
    )
    return [[longest_src[i], longest_tgt[i]] + rest[i::CHUNKS] for i in range(CHUNKS)]


def valid_prediction(pred, record_id: str) -> bool:
    """A well-formed prediction for the record.  Its codes need not be valid
    ICD-10: a model may emit a malformed code, and evaluate handles that."""
    return (
        pred.id == record_id
        and 0.0 < pred.score <= 1.0
        and len(pred.codes) <= MAX_CODES
        and all(code and not any(ch.isspace() for ch in code) for code in pred.codes)
    )


class Phase:
    """One part of the pipeline: set up once, then run operations."""

    name = ""

    def __init__(self, m: dict, seed: int) -> None:
        self.m = m
        self.seed = seed
        self.tracer = None  # set for the traced operation
        self.turn = 0  # operations so far; phases with chunks take turns over them
        self.reference: dict = {}  # chunk -> outputs of its first operation
        self.samples: dict[str, list[float]] = defaultdict(list)
        # rate metric -> chunk -> (work of one operation, seconds of each operation)
        self.timings: dict[str, dict[int, tuple[float, list[float]]]] = defaultdict(dict)
        self.op_seconds: list[tuple[int, float]] = []  # (chunk, seconds) of each operation
        self.attempted = 0
        self.failed = 0

    def untraced(self):
        """The benchmark's own bookkeeping stays out of the layer metrics."""
        return self.tracer.paused() if self.tracer is not None else contextlib.nullcontext()

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed [{self.name}]: {what}", file=sys.stderr)

    def setup(self) -> None:
        raise NotImplementedError

    def op(self) -> None:
        raise NotImplementedError

    def timed(self, metric: str, chunk: int, work: float, seconds: float) -> None:
        self.timings[metric].setdefault(chunk, (work, []))[1].append(seconds)

    def rates(self) -> dict[str, tuple[float, int]]:
        """metric -> (rate, operations).  A rate is the work of all chunks over
        the sum of each chunk's mean time, so chunks that ran more often than
        others do not tilt it."""
        return {
            metric: (
                sum(work for work, _ in chunks.values())
                / sum(statistics.fmean(times) for _, times in chunks.values()),
                sum(len(times) for _, times in chunks.values()),
            )
            for metric, chunks in self.timings.items()
        }

    def finish(self) -> None:
        """Metrics and checks over all of the run's operations."""

    def run_op(self) -> None:
        chunk = self.turn % CHUNKS
        gc.collect()  # garbage of the last operation is not this one's cost
        start = time.perf_counter()
        try:
            self.op()
        except Exception:  # a crashing operation is a failed one; keep measuring
            traceback.print_exc()
            self.record(False, "operation raised")
        self.op_seconds.append((chunk, time.perf_counter() - start))

    def load_tokenizers(self) -> None:
        textprep = self.m["textprep"]
        self.src_tok = textprep.load_tokenizer(FIXTURE / "src.tok")
        self.tgt_tok = textprep.load_tokenizer(FIXTURE / "tgt.tok")

    def generate(self, n_records: int, seed: int) -> list:
        synth = self.m["synth"]
        return synth.generate_corpus(
            synth.GeneratorConfig(n_records=n_records, seed=seed),
            synth.build_default_lexicon(LEXICON_SEED),
        )


class TrainPhase(Phase):
    """train.train() from a fresh model, default ModelConfig, for TRAIN_STEPS
    epochs of one batch.  The operations take turns over CHUNKS batches of
    the train split, each padded to the same shape for every seed."""

    name = "train"

    def setup(self) -> None:
        self.load_tokenizers()
        with self.untraced():
            train_set, _, _ = self.m["synth"].split_corpus(
                self.generate(TRAIN_RECORDS, self.seed),
                TRAIN_VAL_PER_YEAR, TRAIN_TEST_PER_YEAR, seed=self.seed,
            )
            pairs = [self.m["textprep"].concat_backward(c) for c in train_set]
            self.cfg = self.m["transformer"].ModelConfig(
                src_vocab_size=self.src_tok.size, tgt_vocab_size=self.tgt_tok.size
            )
            encoded = self.m["train"].encode_pairs(pairs, self.src_tok, self.tgt_tok, self.cfg)
        self.chunks = fixed_shape_batches(pairs, encoded)
        # Non-PAD target tokens per epoch: every record once, BOS excluded.
        lengths = {e.id: len(e.tgt) - 1 for e in encoded}
        self.tokens = [sum(lengths[p.id] for p in chunk) for chunk in self.chunks]

    def op(self) -> None:
        chunk = self.turn % CHUNKS
        self.turn += 1
        train = self.m["train"]
        model = self.m["transformer"].init_model(self.cfg, seed=MODEL_SEED)
        config = train.TrainConfig(
            max_steps=TRAIN_STEPS, batch_size=TRAIN_BATCH, seed=self.seed, eval_every=0,
            log_every=1,
        )
        start = time.perf_counter()
        result = train.train(model, self.chunks[chunk], [], self.src_tok, self.tgt_tok, config)
        elapsed = time.perf_counter() - start
        losses = [entry.loss for entry in result.log]
        early = statistics.fmean(losses[:LOSS_WINDOW])
        late = statistics.fmean(losses[-LOSS_WINDOW:])
        problems = []
        if [e.step for e in result.log] != list(range(1, TRAIN_STEPS + 1)):
            problems.append(f"log has {len(losses)} steps, want {TRAIN_STEPS}")
        if not all(math.isfinite(x) for x in losses):
            problems.append("non-finite step loss")
        if not late < early:
            problems.append(f"loss over the last steps {late:.4f} not below the first {early:.4f}")
        if losses != self.reference.setdefault(chunk, losses):
            problems.append(f"batch {chunk}: losses differ from its first operation")
        self.record(not problems, "; ".join(problems))
        self.timed("train_tokens_per_s", chunk, TRAIN_STEPS * self.tokens[chunk], elapsed)

    def finish(self) -> None:
        if len(self.reference) == CHUNKS:
            self.samples["train_loss"].append(
                statistics.fmean(statistics.fmean(v) for v in self.reference.values())
            )


class DecodePhase(Phase):
    """Beam 4, beam 1 and batched greedy decoding with the committed fixture.
    The operations take turns over CHUNKS sets of records of the same length
    profile; the F metrics cover all of them."""

    name = "decode"

    def setup(self) -> None:
        verify_fixture()
        train = self.m["train"]
        ckpt = train.load_checkpoint(FIXTURE / "model.ckpt")
        self.model = train.model_from_checkpoint(ckpt)
        self.load_tokenizers()
        with self.untraced():
            fingerprint = self.m["textprep"].tokenizer_fingerprint
            if (ckpt.src_tok_sha256, ckpt.tgt_tok_sha256) != (
                fingerprint(self.src_tok), fingerprint(self.tgt_tok)
            ):
                raise SetupError("fixture tokenizers do not match the checkpoint")
            certs = self.generate(DECODE_POOL, DECODE_SEED_OFFSET + self.seed)
            pool = [self.m["textprep"].concat_backward(c) for c in certs]

            def chunked(n: int) -> list[list]:
                sample = length_profile_sample(pool, CHUNKS * n)
                return [sample[i::CHUNKS] for i in range(CHUNKS)]

            encode = functools.partial(
                train.encode_pairs, src_tok=self.src_tok, tgt_tok=self.tgt_tok,
                cfg=self.model.config,
            )
            self.beam4_pairs = chunked(BEAM4_RECORDS)
            self.beam1_pairs = chunked(BEAM1_RECORDS)
            self.beam1_encoded = [encode(c) for c in self.beam1_pairs]
            self.greedy_encoded = [encode(c) for c in chunked(GREEDY_RECORDS)]

    def _predict(self, pairs: list, width: int, chunk: int) -> list:
        start = time.perf_counter()
        preds = self.m["decoding"].predict_pairs(
            self.model, self.src_tok, self.tgt_tok, pairs, beam_width=width
        )
        self.timed(f"beam{width}_records_per_s", chunk, len(pairs), time.perf_counter() - start)
        return preds

    def _valid(self, preds: list, pairs: list) -> bool:
        return len(preds) == len(pairs) and all(
            valid_prediction(p, pair.id) for p, pair in zip(preds, pairs)
        )

    def _greedy_mismatches(self, beam1: list, encoded: list) -> list[str]:
        """Records where predict_pairs at width 1 differs from greedy_decode."""
        with self.untraced():
            src, side, _ = self.m["train"].pad_batch(encoded)
            greedy = self.m["decoding"].greedy_decode(
                self.model, self.tgt_tok, src, side, record_ids=[p.id for p in encoded],
            )
        return [
            f"{a.id}: {a.codes} {a.score:.6f} vs greedy {b.id}: {b.codes} {b.score:.6f}"
            for a, b in zip(beam1, greedy)
            if a.id != b.id or a.codes != b.codes
            or not math.isclose(a.score, b.score, rel_tol=SCORE_RTOL)
        ] + ([f"{len(greedy)} greedy predictions"] if len(greedy) != len(beam1) else [])

    def op(self) -> None:
        chunk = self.turn % CHUNKS
        self.turn += 1
        beam4 = self._predict(self.beam4_pairs[chunk], 4, chunk)
        self.record(self._valid(beam4, self.beam4_pairs[chunk]), "beam 4: invalid prediction")
        beam1 = self._predict(self.beam1_pairs[chunk], 1, chunk)
        mismatches = self._greedy_mismatches(beam1, self.beam1_encoded[chunk])
        self.record(
            self._valid(beam1, self.beam1_pairs[chunk]) and not mismatches,
            f"beam 1: invalid prediction or differs from greedy_decode: {'; '.join(mismatches)}",
        )
        encoded = self.greedy_encoded[chunk]
        start = time.perf_counter()
        greedy_f = self.m["train"].validation_f(
            self.model, self.tgt_tok, encoded, batch_size=GREEDY_BATCH
        )
        self.timed("greedy_records_per_s", chunk, len(encoded), time.perf_counter() - start)
        outputs = ([(p.codes, p.score) for p in beam4], [(p.codes, p.score) for p in beam1], greedy_f)
        self.record(
            0.0 < greedy_f <= 1.0 and outputs == self.reference.setdefault(chunk, outputs),
            f"chunk {chunk}: greedy F {greedy_f:.4f} out of range or outputs differ from "
            "its first operation",
        )

    def finish(self) -> None:
        if len(self.reference) < CHUNKS:
            return
        f4 = micro_f(
            (codes, tuple(c.text for c in pair.target_codes))
            for chunk in range(CHUNKS)
            for (codes, _), pair in zip(self.reference[chunk][0], self.beam4_pairs[chunk])
        )
        self.record(f4 >= BEAM4_F_FLOOR, f"beam 4: F {f4:.4f} below {BEAM4_F_FLOOR}")
        self.samples["beam4_f"].append(f4)
        self.samples["greedy_f"].append(statistics.fmean(v[2] for v in self.reference.values()))


class PipelinePhase(Phase):
    """gen-data, split, tokenize, evaluate, calibrate, report through the CLI."""

    name = "pipeline"

    def setup(self) -> None:
        self.work = WORK / f"pipeline-{os.getpid()}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)

    def cli(self, *args: str) -> tuple[bool, float, str]:
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.m["cli"].main([str(a) for a in args])
            except SystemExit as exc:
                code = exc.code
        elapsed = time.perf_counter() - start
        if code != 0:
            print(f"medseq {args[0]} exited {code}: {err.getvalue().strip()}", file=sys.stderr)
        return code == 0, elapsed, out.getvalue()

    def write_predictions(self) -> tuple[int, float]:
        """Predictions for the test split: gold codes with seeded drops,
        substitutions and insertions.  Returns (records, expected F)."""
        rng = random.Random(f"{self.seed}:predictions")
        gold = read_gold(self.work / "test.tsv")
        pool = sorted({code for codes in gold.values() for code in codes})
        lines, pairs = [], []
        for record_id, codes in gold.items():
            pred = []
            for code in codes:
                u = rng.random()
                if u < P_DROP:
                    continue
                pred.append(rng.choice(pool) if u < P_DROP + P_SUBSTITUTE else code)
            if rng.random() < P_INSERT and len(pred) < MAX_CODES:
                pred.append(rng.choice(pool))
            score = rng.uniform(0.05, 1.0)
            lines.append(f"{record_id}\t{' '.join(pred)}\t{score:.6f}\n")
            pairs.append((pred, codes))
        (self.work / "predictions.tsv").write_text("".join(lines), encoding="utf-8")
        return len(gold), micro_f(pairs)

    def op(self) -> None:
        w = self.work
        ok, t_gen, _ = self.cli("gen-data", "--n", PIPELINE_RECORDS, "--seed", self.seed, "--out-dir", w)
        self.record(ok and count_records(w / "corpus.tsv") == PIPELINE_RECORDS, "gen-data")
        ok, _, _ = self.cli(
            "split", "--corpus", w / "corpus.tsv", "--out-dir", w, "--seed", self.seed,
            "--set", f"split.test_per_year={PIPELINE_TEST_PER_YEAR}",
        )
        self.record(ok, "split")
        ok, t_tok, _ = self.cli("tokenize", "--corpus", w / "train.tsv", "--out-dir", w)
        self.record(ok and (w / "src.tok").is_file() and (w / "tgt.tok").is_file(), "tokenize")
        with self.untraced():
            n_test, expected_f = self.write_predictions()
        evaluation = ("--predictions", w / "predictions.tsv", "--corpus", w / "test.tsv", "--out-dir", w)
        ok, t_eval, _ = self.cli("evaluate", *evaluation)
        reported = read_kv(w / "report.kv").get("overall.f_measure") if ok else None
        self.record(
            reported is not None and abs(float(reported) - expected_f) <= 5e-7,
            f"evaluate F {reported} != recount {expected_f:.6f}",
        )
        ok, t_cal, _ = self.cli("calibrate", *evaluation)
        self.record(ok, "calibrate")
        ok, t_rep, text = self.cli("report", "--dir", w, "--out-dir", w)
        self.record(ok and "== metrics ==" in text and "== calibration ==" in text, "report")
        self.timed("gen_data_records_per_s", 0, PIPELINE_RECORDS, t_gen)
        self.timed("tokenize_records_per_s", 0, count_records(w / "train.tsv"), t_tok)
        self.timed("evaluate_records_per_s", 0, n_test, t_eval + t_cal + t_rep)


PHASE_CLASSES = {cls.name: cls for cls in (TrainPhase, DecodePhase, PipelinePhase)}


def read_gold(path: Path) -> dict[str, list[str]]:
    """id -> gold codes from a corpus TSV (the last six columns hold codes)."""
    gold = {}
    with open(path, encoding="utf-8") as fh:
        next(fh)
        for line in fh:
            cells = line.rstrip("\n").split("\t")
            if len(cells) > 1:
                gold[cells[0]] = " ".join(cells[-6:]).split()
    return gold


def count_records(path: Path) -> int:
    with open(path, encoding="utf-8") as fh:
        return sum(1 for line in fh if line.strip()) - 1


def read_kv(path: Path) -> dict[str, str]:
    pairs = (line.partition("=") for line in path.read_text(encoding="utf-8").splitlines())
    return {k: v for k, sep, v in pairs if sep}


def verify_fixture() -> None:
    for line in (FIXTURE / "SHA256SUMS").read_text(encoding="utf-8").splitlines():
        digest, name = line.split()
        if hashlib.sha256((FIXTURE / name).read_bytes()).hexdigest() != digest:
            raise SetupError(f"fixture file {name} does not match SHA256SUMS")


def git_commit() -> str:
    """HEAD of the checkout, read from .git without starting a process."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_record(args, numpy) -> dict:
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.partition(":")[2].strip()
                break
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "git_commit": git_commit(),
    }


def set_up(m: dict, seed: int, setup_times: list[float]) -> dict:
    """All three phases, set up; the time it took goes to setup_times."""
    gc.collect()
    start = time.perf_counter()
    phases = {name: PHASE_CLASSES[name](m, seed) for name in PHASES}
    for phase in phases.values():
        phase.setup()
    setup_times.append(time.perf_counter() - start)
    return phases


def end_to_end(m: dict, args) -> tuple[dict, list]:
    setup_times: list[float] = []
    phases = set_up(m, args.seed, setup_times)
    schedule = [phases[name].run_op for name in PHASES + WORKLOADS[args.workload]]
    # One more set-up per round, so that setup_s is sampled across the run.
    schedule.append(lambda: set_up(m, args.seed, setup_times))
    deadline = time.perf_counter() + args.seconds
    done = 0
    while done < MIN_ROUNDS * len(schedule) or time.perf_counter() < deadline:
        schedule[done % len(schedule)]()
        done += 1
    # metric -> (value, samples it was computed from)
    values = {
        "setup_s": (statistics.median(setup_times), len(setup_times)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1),
    }
    for phase in phases.values():
        phase.finish()
        values.update((k, (statistics.median(v), len(v))) for k, v in phase.samples.items())
        values.update(phase.rates())
    missing = [name for name, _ in END_TO_END if name not in values]
    if missing:
        raise SetupError(f"no successful sample for {', '.join(missing)}")
    metrics = {name: {"value": values[name][0], "unit": unit} for name, unit in END_TO_END}
    for name, unit in END_TO_END:
        print(f"metric {name:<24} {values[name][0]:.6g} {unit}  (n={values[name][1]})")
    return metrics, list(phases.values())


def per_layer(m: dict, args, layer_trace) -> tuple[dict, list]:
    phases = [PHASE_CLASSES[name](m, args.seed) for name in WORKLOADS[args.workload]]
    for phase in phases:
        phase.setup()
    deadline = time.perf_counter() + args.seconds / 2
    while not phases[-1].op_seconds or time.perf_counter() < deadline:
        for phase in phases:
            phase.run_op()
    # The traced operation is each phase's chunk 0; compare it with the same untraced.
    untraced = sum(
        statistics.median(sec for chunk, sec in phase.op_seconds if chunk == 0) for phase in phases
    )
    tracer = layer_trace.Tracer()
    with tracer:
        for phase in phases:
            phase.tracer = tracer
            phase.setup()
            phase.turn = 0  # the traced operation is the same for every run of a seed
            phase.run_op()
    traced = sum(phase.op_seconds[-1][1] for phase in phases)
    overhead = 100.0 * (traced / untraced - 1.0)
    print(f"tracing overhead {overhead:.1f}% ({traced:.3f} s traced, "
          f"{untraced:.3f} s untraced, median operations)")
    for line in tracer.table():
        print(line)
    for layer in sorted({layer for p in phases for layer in EXPECTED_LAYERS[p.name]}):
        stat = tracer.stats.get(layer)
        if stat is None:
            print(f"missing layer: {layer} (not found in medseq)", file=sys.stderr)
        elif stat.calls == 0:
            print(f"missing layer: {layer} (wrapped, never called)", file=sys.stderr)
    metrics = {name: {"value": tracer.value(name), "unit": unit} for name, unit in LAYER_METRICS}
    metrics["trace.overhead_pct"] = {"value": overhead, "unit": "%"}
    return metrics, phases


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    # One BLAS thread, set before numpy loads so every run measures the same.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    try:
        m = import_medseq()
        import numpy
        import layer_trace

        print("run " + json.dumps(run_record(args, numpy)))
        if args.trace:
            metrics, phases = per_layer(m, args, layer_trace)
        else:
            metrics, phases = end_to_end(m, args)
    except (SetupError, OSError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(WORK / f"pipeline-{os.getpid()}", ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()
    for phase in phases:
        print(f"operations {phase.name:<9} attempted={phase.attempted} failed={phase.failed}")
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    print(json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
