"""F-measure consensus over member predictions and greedy member selection.

The consensus pick for a record is the member prediction with the highest
mean pairwise F against the other members; its reported score is the mean
of all members' scores.  Member selection greedily grows the ensemble
while the validation F keeps improving.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .config import atomic_open
from .decoding import DEFAULT_ALPHA, DEFAULT_BEAM_WIDTH, Prediction, predict_pairs
from .errors import ValidationError
from .metrics import f_measure, micro_metrics
from .textprep import TokenizerModel, TrainingPair, tokenizer_fingerprint
from .train import Checkpoint, checkpoint_sha256, model_from_checkpoint


def consensus(candidates: Sequence[Prediction]) -> Prediction:
    """The candidate maximizing mean pairwise F; ties go to the lowest index."""
    if not candidates:
        raise ValidationError("consensus needs at least one candidate")
    ids = {c.id for c in candidates}
    if len(ids) != 1:
        raise ValidationError(f"consensus candidates span multiple records: {sorted(ids)}")
    mean_score = sum(c.score for c in candidates) / len(candidates)
    if len(candidates) == 1:
        best = candidates[0]
    else:
        best = None
        best_mean = -1.0
        for i, cand in enumerate(candidates):
            total = sum(
                f_measure(cand.codes, other.codes)
                for j, other in enumerate(candidates)
                if j != i
            )
            mean = total / (len(candidates) - 1)
            if mean > best_mean:
                best_mean = mean
                best = cand
    return Prediction(id=best.id, codes=best.codes, score=mean_score)


def consensus_by_record(member_preds: Sequence[Sequence[Prediction]]) -> list[Prediction]:
    """Consensus per record across aligned member prediction lists."""
    if not member_preds:
        raise ValidationError("no member predictions")
    length = len(member_preds[0])
    for k, preds in enumerate(member_preds):
        if len(preds) != length:
            raise ValidationError(f"member {k} has {len(preds)} predictions, member 0 has {length}")
    out = []
    for i in range(length):
        row = [preds[i] for preds in member_preds]
        out.append(consensus(row))
    return out


@dataclass(frozen=True)
class SelectionStep:
    member_index: int
    val_f: float


@dataclass(frozen=True)
class Ensemble:
    member_indices: tuple[int, ...]
    log: tuple[SelectionStep, ...]

    def __post_init__(self) -> None:
        if not self.member_indices:
            raise ValidationError("an ensemble needs at least one member")


def greedy_select_predictions(
    member_preds: Sequence[Sequence[Prediction]],
    golds: Sequence[Sequence[str]],
) -> Ensemble:
    """Greedy forward selection over precomputed member predictions.

    Starts from the best single member and adds whichever member improves
    the consensus validation F the most; stops when no addition improves
    it.  The resulting log is non-decreasing by construction.
    """
    if not member_preds:
        raise ValidationError("no member predictions")
    for preds in member_preds:
        if len(preds) != len(golds):
            raise ValidationError("member predictions and gold sequences differ in length")

    def val_f(preds: Sequence[Prediction]) -> float:
        return micro_metrics([(p.codes, g) for p, g in zip(preds, golds)]).f_measure

    singles = [val_f(preds) for preds in member_preds]
    best_i = max(range(len(singles)), key=lambda i: (singles[i], -i))
    selected = [best_i]
    log = [SelectionStep(member_index=best_i, val_f=singles[best_i])]
    current = singles[best_i]

    remaining = [i for i in range(len(member_preds)) if i != best_i]
    while remaining:
        best_cand = None
        best_cand_f = current
        for cand in remaining:
            ens = consensus_by_record([member_preds[i] for i in selected] + [member_preds[cand]])
            f = val_f(ens)
            if f > best_cand_f:
                best_cand_f = f
                best_cand = cand
        if best_cand is None:
            break
        selected.append(best_cand)
        remaining.remove(best_cand)
        current = best_cand_f
        log.append(SelectionStep(member_index=best_cand, val_f=current))
    return Ensemble(member_indices=tuple(selected), log=tuple(log))


def _check_compatible(checkpoints: Sequence[Checkpoint], src_tok: TokenizerModel, tgt_tok: TokenizerModel) -> None:
    src_sha = tokenizer_fingerprint(src_tok)
    tgt_sha = tokenizer_fingerprint(tgt_tok)
    for k, ckpt in enumerate(checkpoints):
        if ckpt.src_tok_sha256 != src_sha or ckpt.tgt_tok_sha256 != tgt_sha:
            raise ValidationError(
                f"member {k} was trained with different tokenizers than the ones supplied"
            )


def greedy_select(
    checkpoints: Sequence[Checkpoint],
    src_tok: TokenizerModel,
    tgt_tok: TokenizerModel,
    val_pairs: Sequence[TrainingPair],
    beam_width: int = DEFAULT_BEAM_WIDTH,
    alpha: float = DEFAULT_ALPHA,
) -> Ensemble:
    """Decode the validation set once per member, then select greedily."""
    if not checkpoints:
        raise ValidationError("no candidate checkpoints")
    if not val_pairs:
        raise ValidationError("empty validation set")
    digests = [checkpoint_sha256(c) for c in checkpoints]
    if len(set(digests)) != len(digests):
        raise ValidationError("candidate pool contains duplicate checkpoints")
    _check_compatible(checkpoints, src_tok, tgt_tok)
    member_preds = []
    for ckpt in checkpoints:
        model = model_from_checkpoint(ckpt)
        member_preds.append(predict_pairs(model, src_tok, tgt_tok, val_pairs, beam_width, alpha))
    golds = [tuple(c.text for c in p.target_codes) for p in val_pairs]
    return greedy_select_predictions(member_preds, golds)


def ensemble_predict(
    checkpoints: Sequence[Checkpoint],
    src_tok: TokenizerModel,
    tgt_tok: TokenizerModel,
    pairs: Sequence[TrainingPair],
    beam_width: int = DEFAULT_BEAM_WIDTH,
    alpha: float = DEFAULT_ALPHA,
) -> list[Prediction]:
    """Consensus predictions of the given members on new records."""
    if not checkpoints:
        raise ValidationError("no member checkpoints")
    _check_compatible(checkpoints, src_tok, tgt_tok)
    member_preds = []
    for ckpt in checkpoints:
        model = model_from_checkpoint(ckpt)
        member_preds.append(predict_pairs(model, src_tok, tgt_tok, pairs, beam_width, alpha))
    return consensus_by_record(member_preds)


def write_manifest(path: str, member_paths: Sequence[str], member_hashes: Sequence[str], ensemble: Ensemble) -> None:
    """Persist member checkpoint paths, their hashes, and the selection log."""
    if len(member_paths) != len(member_hashes) or len(member_paths) != len(ensemble.member_indices):
        raise ValidationError("manifest members, hashes and indices must align")
    with atomic_open(path) as fh:
        for p, h in zip(member_paths, member_hashes):
            fh.write(f"member\t{p}\t{h}\n")
        for step in ensemble.log:
            fh.write(f"step\t{step.member_index}\t{step.val_f:.6f}\n")


def read_manifest(path: str) -> tuple[list[str], list[str], Ensemble]:
    paths: list[str] = []
    hashes: list[str] = []
    indices: list[int] = []
    steps: list[SelectionStep] = []
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if parts[0] == "member" and len(parts) == 3:
                paths.append(parts[1])
                hashes.append(parts[2])
            elif parts[0] == "step" and len(parts) == 3:
                try:
                    steps.append(SelectionStep(member_index=int(parts[1]), val_f=float(parts[2])))
                except ValueError:
                    raise ValidationError(
                        f"manifest {path}: line {line_no}: bad step {parts[1]!r} or F {parts[2]!r}"
                    ) from None
            else:
                raise ValidationError(f"manifest {path}: bad line {line_no}")
    indices = [s.member_index for s in steps]
    if len(indices) != len(paths):
        raise ValidationError(f"manifest {path}: {len(paths)} members but {len(indices)} selection steps")
    return paths, hashes, Ensemble(member_indices=tuple(indices), log=tuple(steps))
