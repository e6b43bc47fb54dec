"""Metrics: teacher-forced accuracy, and per-domain exact match and evalb-style
labeled-span F1 over the span multisets that `check_target` reads."""

from __future__ import annotations

import logging
from collections import Counter
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .data import DatasetRecord
from .decoding import beam_decode
from .errors import EmptyEvalSetError, MalformedTargetError
from .model import ConceptBank, ConceptModel
from .parse import ConceptTag, check_target, token_strings

log = logging.getLogger(__name__)


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
    """Beam-decode each record into one outcome; the report's metrics are sums over them.

    Every gold target is checked first, so a malformed one raises
    `MalformedTargetError` before anything is decoded. A record is an exact
    match when its predicted target sequence equals the gold one token for
    token; equal span multisets are not enough. An invalid prediction predicts
    no span; a span in both matches as often as the fewer holds it.
    """
    if not records:
        raise EmptyEvalSetError("evaluation needs at least one record")
    golds = [check_target(record.target, record.utterance) for record in records]
    outcomes: list[dict] = []
    for record, gold_spans in zip(records, golds):
        best = beam_decode(model, record.utterance, bank, beam_width=beam_width)[0]
        pred = best.tokens
        reason = None
        try:
            pred_spans = check_target(pred, record.utterance)
        except MalformedTargetError as err:
            reason, pred_spans = err.reason, Counter()
        outcomes.append({
            "utterance": record.utterance.raw,
            "gold": token_strings(record.target),
            "pred": token_strings(pred),
            "em": int(pred == record.target),
            "f1_counts": [(pred_spans & gold_spans).total(), pred_spans.total(),
                          gold_spans.total()],
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
