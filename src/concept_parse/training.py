"""Losses and training loops.

Three regimes share one optimizer path: known-domain training with early
stopping, concept pretraining over wiki-style batches with in-batch negatives,
and few-shot fine-tuning with a rehearsal term from the known domains.

A training loop owns its model exclusively; everything is deterministic in
(data, config, seed).
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np

from . import autodiff as ad
from .autodiff import Schedule, Tensor, lr_at
from .data import (
    DatasetRecord,
    DomainSplit,
    PretrainRecord,
    record_fingerprint,
    tags_from_records,
)
from .errors import EmptyFewShotError
from .evaluation import teacher_forced_accuracy
from .model import ConceptModel
from .parse import Concept, ConceptTag

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class TrainConfig:
    """Hyper-parameters for every training regime."""

    batch_size: int = 16
    epochs: int = 100
    patience: int = 5
    learning_rate: float = 1e-3
    warmup_proportion: float = 0.1
    weight_decay: float = 0.01
    adam_betas: tuple[float, float] = (0.9, 0.999)
    adam_eps: float = 1e-8
    rehearsal_multiplier: float = 0.1
    pretrain_epochs: int = 2
    fewshot_epochs: int = 1000
    fewshot_eval_every: int = 25
    seed: int = 1

    def __post_init__(self) -> None:
        for name in ("learning_rate", "rehearsal_multiplier"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative, got {getattr(self, name)}")
        for name in ("patience", "batch_size", "fewshot_eval_every", "epochs",
                     "pretrain_epochs", "fewshot_epochs"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")


@dataclass
class EarlyStopState:
    """Best-so-far tracking for epoch-level validation."""

    best_score: float = -math.inf
    best_snapshot: Optional[dict] = None
    epochs_since_improvement: int = 0

    def update(self, score: float, model: ConceptModel) -> bool:
        if score > self.best_score:
            self.best_score = score
            self.best_snapshot = model.snapshot()
            self.epochs_since_improvement = 0
            return True
        self.epochs_since_improvement += 1
        return False


@dataclass(frozen=True)
class PretrainBatch:
    """A pretraining batch plus the deduplicated union of its concept tokens."""

    examples: tuple[PretrainRecord, ...]
    concept_union: tuple[ConceptTag, ...]

    def __post_init__(self) -> None:
        present = {(t.name, t.boundary) for t in self.concept_union}
        for example in self.examples:
            for token in example.target.tokens:
                if isinstance(token, Concept) and \
                        (token.tag.name, token.tag.boundary) not in present:
                    raise ValueError(
                        f"concept {token.tag.token_string!r} missing from the "
                        f"batch union")


def batch_concept_union(examples: Sequence[PretrainRecord]) -> tuple[ConceptTag, ...]:
    """Deduplicated concept tokens of a batch, in first-occurrence order."""
    seen: dict[tuple[str, str], ConceptTag] = {}
    for example in examples:
        for tag in example.tags:
            seen.setdefault((tag.name, tag.boundary), tag)
    return tuple(seen.values())


def make_pretrain_batch(examples: Sequence[PretrainRecord]) -> PretrainBatch:
    return PretrainBatch(examples=tuple(examples),
                         concept_union=batch_concept_union(examples))


@dataclass
class TrainResult:
    """Outcome of one training loop, model already restored to its best state."""

    best_score: float
    stopped_early: bool
    log: list[dict] = field(default_factory=list)
    consumed_fingerprints: set[str] = field(default_factory=set)

    def write_log(self, path: Union[str, Path]) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for entry in self.log:
                handle.write(json.dumps(entry, sort_keys=True) + "\n")


# losses

def batch_nll_tensor(model: ConceptModel, records: Sequence,
                     tags: Sequence[ConceptTag], bank_vectors: Tensor) -> Tensor:
    """Graph scalar: mean CE over the non-pad positions of a record batch."""
    batch = model.build_batch(records, tags)
    log_probs = model.teacher_log_probs(batch, bank_vectors)
    picked = ad.take_along_last(log_probs, batch.gold)
    masked = ad.mul(picked, ad.constant(batch.tgt_mask))
    return ad.scale(ad.sum_all(masked), -1.0 / float(batch.tgt_mask.sum()))


# batch assembly

def make_batches(records: Sequence, batch_size: int,
                 rng: np.random.Generator) -> list[list]:
    """Length-bucketed batches in a seeded random order."""
    order = rng.permutation(len(records))
    shuffled = [records[int(i)] for i in order]
    shuffled.sort(key=lambda r: len(r.target.tokens))  # stable, keeps shuffle inside buckets
    batches = [shuffled[i:i + batch_size]
               for i in range(0, len(shuffled), batch_size)]
    return [batches[int(i)] for i in rng.permutation(len(batches))]


def _optimize(model: ConceptModel, loss: Tensor, lr: float, cfg: TrainConfig) -> None:
    # backward must finish before adam_step: graph leaves and vjp closures hold
    # views of the parameter values, which adam_step then updates in place
    ad.backward(loss)
    ad.adam_step(model.parameters().values(), lr=lr, betas=cfg.adam_betas,
                 eps=cfg.adam_eps, weight_decay=cfg.weight_decay)


# training loops

def train_known_domains(model: ConceptModel, split: DomainSplit, cfg: TrainConfig,
                        out_dir: Optional[Union[str, Path]] = None) -> TrainResult:
    """Epoch loop over all known-domain concepts with early stopping.

    Validation is teacher-forced sequence accuracy on the held-back known
    split, evaluated after every epoch; the model is left at its best state.
    """
    train_records = list(split.known_train)
    valid_records = list(split.known_valid)
    if not train_records or not valid_records:
        raise ValueError("known-domain training needs non-empty train and valid sets")
    tags = tags_from_records(train_records + valid_records)
    steps_per_epoch = math.ceil(len(train_records) / cfg.batch_size)
    schedule = Schedule(cfg.learning_rate, cfg.warmup_proportion,
                        cfg.epochs * steps_per_epoch)
    result = TrainResult(best_score=-math.inf, stopped_early=False)
    stopper = EarlyStopState()
    step = 0
    for epoch in range(cfg.epochs):
        rng = np.random.default_rng([cfg.seed, epoch])
        epoch_loss = 0.0
        for batch in make_batches(train_records, cfg.batch_size, rng):
            step += 1
            lr = lr_at(schedule, step)
            bank_vectors = model.encode_concepts_tensor(tags)
            loss = batch_nll_tensor(model, batch, tags, bank_vectors)
            _optimize(model, loss, lr, cfg)
            epoch_loss += loss.item() * len(batch)
            result.consumed_fingerprints.update(record_fingerprint(r) for r in batch)
        val = teacher_forced_accuracy(model, valid_records, tags)
        entry = {"epoch": epoch, "step": step,
                 "loss": epoch_loss / len(train_records),
                 "lr": lr_at(schedule, step), "val": val}
        result.log.append(entry)
        log.info("epoch %d loss %.4f val %.2f", epoch, entry["loss"], val)
        improved = stopper.update(val, model)
        if improved and out_dir is not None:
            _write_checkpoint(model, tags, out_dir, epoch, val)
        if stopper.epochs_since_improvement >= cfg.patience:
            result.stopped_early = True
            break
    if stopper.best_snapshot is not None:
        model.restore(stopper.best_snapshot)
    result.best_score = stopper.best_score
    if out_dir is not None:
        result.write_log(Path(out_dir) / "train_log.jsonl")
    return result


def pretrain_step(model: ConceptModel, batch: PretrainBatch, lr: float,
                  cfg: TrainConfig) -> float:
    """One pretraining update: CE restricted to the batch concept union."""
    union = list(batch.concept_union)
    bank_vectors = model.encode_concepts_tensor(union)
    loss = batch_nll_tensor(model, list(batch.examples), union, bank_vectors)
    value = loss.item()
    _optimize(model, loss, lr, cfg)
    return value


def pretrain_wikiwiki(model: ConceptModel, records: Sequence[PretrainRecord],
                      cfg: TrainConfig,
                      out_dir: Optional[Union[str, Path]] = None) -> TrainResult:
    """A fixed small number of epochs over the whole pretraining corpus."""
    result = TrainResult(best_score=math.nan, stopped_early=False)
    if not records:
        return result
    steps_per_epoch = math.ceil(len(records) / cfg.batch_size)
    schedule = Schedule(cfg.learning_rate, cfg.warmup_proportion,
                        cfg.pretrain_epochs * steps_per_epoch)
    step = 0
    for epoch in range(cfg.pretrain_epochs):
        rng = np.random.default_rng([cfg.seed, 7_001, epoch])
        epoch_loss = 0.0
        for raw in make_batches(records, cfg.batch_size, rng):
            step += 1
            batch = make_pretrain_batch(raw)
            epoch_loss += pretrain_step(model, batch, lr_at(schedule, step), cfg) \
                * len(raw)
        entry = {"epoch": epoch, "step": step, "loss": epoch_loss / len(records),
                 "lr": lr_at(schedule, step), "val": None}
        result.log.append(entry)
        log.info("pretrain epoch %d loss %.4f", epoch, entry["loss"])
    if out_dir is not None:
        result.write_log(Path(out_dir) / "pretrain_log.jsonl")
    return result


def fewshot_finetune(model: ConceptModel, spi_records: Sequence[DatasetRecord],
                     known_records: Sequence[DatasetRecord], cfg: TrainConfig,
                     out_dir: Optional[Union[str, Path]] = None) -> TrainResult:
    """Fine-tune on a few-shot subset with rehearsal from the known domains.

    Every step mixes the few-shot batch loss with a scaled loss on a freshly
    sampled known-domain batch. Validation (teacher-forced accuracy on the
    few-shot subset itself) runs on a fixed epoch cadence and the best state
    is restored at the end.
    """
    if not spi_records:
        raise EmptyFewShotError("few-shot fine-tuning needs at least one record")
    spi_records = list(spi_records)
    known_records = list(known_records)
    tags = tags_from_records(spi_records + known_records)
    steps_per_epoch = math.ceil(len(spi_records) / cfg.batch_size)
    schedule = Schedule(cfg.learning_rate, cfg.warmup_proportion,
                        cfg.fewshot_epochs * steps_per_epoch)
    result = TrainResult(best_score=-math.inf, stopped_early=False)
    stopper = EarlyStopState()
    rehearsal_rng = np.random.default_rng([cfg.seed, 4_242])
    step = 0
    for epoch in range(cfg.fewshot_epochs):
        rng = np.random.default_rng([cfg.seed, 9_009, epoch])
        totals: list[float] = []
        few_losses: list[float] = []
        for batch in make_batches(spi_records, cfg.batch_size, rng):
            step += 1
            lr = lr_at(schedule, step)
            bank_vectors = model.encode_concepts_tensor(tags)
            few_tensor = batch_nll_tensor(model, batch, tags, bank_vectors)
            if cfg.rehearsal_multiplier > 0 and known_records:
                size = min(cfg.batch_size, len(known_records))
                picks = rehearsal_rng.choice(len(known_records), size=size,
                                             replace=False)
                known_batch = [known_records[int(i)] for i in picks]
                known_tensor = batch_nll_tensor(model, known_batch, tags, bank_vectors)
                total = ad.add(few_tensor,
                               ad.scale(known_tensor, cfg.rehearsal_multiplier))
                result.consumed_fingerprints.update(
                    record_fingerprint(r) for r in known_batch)
            else:
                total = few_tensor
            totals.append(total.item())
            few_losses.append(few_tensor.item())
            _optimize(model, total, lr, cfg)
            result.consumed_fingerprints.update(record_fingerprint(r) for r in batch)
        if (epoch + 1) % cfg.fewshot_eval_every == 0 or epoch == cfg.fewshot_epochs - 1:
            val = teacher_forced_accuracy(model, spi_records, tags)
            result.log.append({
                "epoch": epoch, "step": step,
                "loss": sum(totals) / len(totals),
                "few_loss": sum(few_losses) / len(few_losses),
                "lr": lr_at(schedule, step), "val": val})
            improved = stopper.update(val, model)
            if improved and out_dir is not None:
                _write_checkpoint(model, tags, out_dir, epoch, val)
            if val >= 100.0:
                break
    if stopper.best_snapshot is not None:
        model.restore(stopper.best_snapshot)
    result.best_score = stopper.best_score
    if out_dir is not None:
        result.write_log(Path(out_dir) / "finetune_log.jsonl")
    return result


def _write_checkpoint(model: ConceptModel, tags: Sequence[ConceptTag],
                      out_dir: Union[str, Path], epoch: int, score: float) -> None:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    model.save(out_dir / f"epoch{epoch:04d}-val{score:07.3f}.ckpt", train_tags=tags)
