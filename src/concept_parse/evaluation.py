"""Metrics: exact match, labeled-span F1, teacher-forced accuracy, and domain evaluation."""

from __future__ import annotations

import logging
from collections import Counter
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import autodiff as ad
from .data import DatasetRecord
from .decoding import beam_decode
from .errors import EmptyEvalSetError, MalformedTargetError
from .model import ConceptBank, ConceptModel
from .parse import ConceptTag, TargetSequence, check_target, labeled_spans

log = logging.getLogger(__name__)


def exact_match(pred: TargetSequence, gold: TargetSequence) -> int:
    """1 iff the token sequences are identical; anything else scores 0."""
    return int(pred == gold)


@dataclass(frozen=True)
class SpanCounts:
    """Micro-F1 accumulator entries for one prediction/gold pair."""

    matched: int
    predicted: int
    gold: int


def span_counts(pred: Optional[TargetSequence], gold: TargetSequence) -> SpanCounts:
    """Matched/predicted/gold labeled-span counts of two target sequences.

    Spans are multisets, as in evalb-style bracket scoring: a span repeated in
    both sequences matches as often as the fewer of them holds it. ``pred``
    is None for an invalid prediction, which predicts nothing.
    """
    gold_spans = labeled_spans(gold)
    if pred is None:
        return SpanCounts(matched=0, predicted=0, gold=gold_spans.total())
    pred_spans = labeled_spans(pred)
    return SpanCounts(matched=(pred_spans & gold_spans).total(),
                      predicted=pred_spans.total(), gold=gold_spans.total())


def _precision_recall_f1(matched: int, predicted: int, gold: int
                         ) -> tuple[float, float, float]:
    """Precision, recall and F1 (percent) of summed span counts; 0 where undefined."""
    precision = matched / predicted if predicted else 0.0
    recall = matched / gold if gold else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision * 100.0, recall * 100.0, f1 * 100.0


# records per batched forward in teacher_forced_accuracy
_TF_CHUNK = 64


def teacher_forced_accuracy(model: ConceptModel, records: Sequence[DatasetRecord],
                            tags: Sequence[ConceptTag]) -> float:
    """Percent of records whose argmax equals gold at every teacher-forced step.

    Runs the batched forward only; no search of any kind is involved.
    """
    if not records:
        raise EmptyEvalSetError("teacher-forced accuracy over an empty record set")
    correct = 0
    with ad.no_grad():
        bank_tensor = model.encode_concepts_tensor(tags)
        for start in range(0, len(records), _TF_CHUNK):
            chunk = records[start:start + _TF_CHUNK]
            batch = model.build_batch(chunk, tags)
            log_probs = model.teacher_log_probs(batch, bank_tensor).data
            hits = (np.argmax(log_probs, axis=-1) == batch.gold) | \
                (batch.tgt_mask == 0.0)
            correct += int(hits.all(axis=1).sum())
    return 100.0 * correct / len(records)


@dataclass
class EvalReport:
    """Aggregate decoding metrics for one domain."""

    em: float
    f1: float
    validity: float
    count: int
    matched_spans: int
    predicted_spans: int
    gold_spans: int
    invalid_reasons: dict[str, int]  # invalid outputs per MalformedTargetError.reason
    truncated: int  # outputs cut by the model's max_target_len before the root closed
    outcomes: list[dict] = field(default_factory=list)


def evaluate_domain(model: ConceptModel, bank: ConceptBank,
                    records: Sequence[DatasetRecord], beam_width: int = 4
                    ) -> EvalReport:
    """Beam-decode each record into one outcome; the report's metrics are sums over them."""
    if not records:
        raise EmptyEvalSetError("evaluation needs at least one record")
    outcomes: list[dict] = []
    for record in records:
        best = beam_decode(model, record.utterance, bank, beam_width=beam_width)[0]
        pred = best.sequence
        reason = None
        try:
            check_target(pred, record.utterance)
        except MalformedTargetError as err:
            reason = err.reason
        counts = span_counts(pred if reason is None else None, record.target)
        outcomes.append({
            "utterance": record.utterance.raw,
            "gold": record.target.token_strings(),
            "pred": pred.token_strings(),
            "em": exact_match(pred, record.target),
            "f1_counts": [counts.matched, counts.predicted, counts.gold],
            "valid": reason is None,
            "invalid_reason": reason,
            "truncated": best.truncated,
        })
    matched, predicted, gold = map(sum, zip(*(o["f1_counts"] for o in outcomes)))
    report = EvalReport(
        em=100.0 * sum(o["em"] for o in outcomes) / len(records),
        f1=_precision_recall_f1(matched, predicted, gold)[2],
        validity=100.0 * sum(o["valid"] for o in outcomes) / len(records),
        count=len(records),
        matched_spans=matched,
        predicted_spans=predicted,
        gold_spans=gold,
        invalid_reasons=dict(Counter(o["invalid_reason"] for o in outcomes
                                     if not o["valid"])),
        truncated=sum(o["truncated"] for o in outcomes),
        outcomes=outcomes,
    )
    log.info("evaluated %d records: EM %.2f F1 %.2f validity %.2f",
             report.count, report.em, report.f1, report.validity)
    return report
