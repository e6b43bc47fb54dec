"""Losses and the one epoch loop behind the three training regimes.

Pretraining on wiki-style tagging batches (each batch scored against its own
tags, `tags_from_records` of the batch, so the other batch concepts are
in-batch negatives), known-domain training validated every epoch, and few-shot
fine-tuning with a rehearsal term from the known domains validated on a fixed
cadence all run `_epoch_loop`. A regime supplies its records, epoch count,
shuffle stream, step loss and, optionally, a validator; the loop owns the
schedule, the optimizer call, the log, best-state tracking, early stopping and
checkpoints.

A training loop owns its model exclusively; everything is deterministic in
(data, config, seed).
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, ClassVar, Optional, Sequence, Union

import numpy as np

from . import autodiff as ad
from .autodiff import Schedule, Tensor, lr_at
from .data import DatasetRecord, DomainSplit, PretrainRecord, tags_from_records
from .errors import EmptyEvalSetError, require_count, require_real
from .evaluation import teacher_forced_accuracy
from .model import ConceptModel
from .parse import ConceptTag

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class TrainConfig:
    """Hyper-parameters for every training regime. The warmup share and Adam's
    betas and epsilon are fixed class constants, not fields; `_optimize` and the
    train step in ``perfbench/workloads.py`` read them as attributes."""

    warmup_proportion: ClassVar[float] = 0.1
    adam_betas: ClassVar[tuple[float, float]] = (0.9, 0.999)
    adam_eps: ClassVar[float] = 1e-8

    batch_size: int = 16
    epochs: int = 100
    patience: int = 5
    learning_rate: float = 1e-3
    weight_decay: float = 0.01
    rehearsal_multiplier: float = 0.1
    pretrain_epochs: int = 2
    fewshot_epochs: int = 1000
    fewshot_eval_every: int = 25
    seed: int = 1

    def __post_init__(self) -> None:
        for name in ("patience", "batch_size", "fewshot_eval_every", "epochs",
                     "pretrain_epochs", "fewshot_epochs", "seed"):
            require_count(name, getattr(self, name), 0 if name == "seed" else 1)
        for name, value, bound, within in (
                ("learning_rate", self.learning_rate, "at least 0", lambda v: v >= 0),
                ("weight_decay", self.weight_decay, "at least 0", lambda v: v >= 0),
                ("rehearsal_multiplier", self.rehearsal_multiplier, "at least 0",
                 lambda v: v >= 0)):
            require_real(name, value, bound, within)


@dataclass
class TrainResult:
    """Outcome of one training loop, model already restored to its best state."""

    best_score: float
    stopped_early: bool
    log: list[dict] = field(default_factory=list)

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


def pretrain_loss(model: ConceptModel, examples: Sequence[PretrainRecord]) -> Tensor:
    """Graph scalar: mean CE of a pretraining batch over its own tags only."""
    tags = tags_from_records(examples)
    return batch_nll_tensor(model, examples, tags, model.encode_concepts_tensor(tags))


# batch assembly

def make_batches(records: Sequence, batch_size: int,
                 rng: np.random.Generator) -> list[list]:
    """Length-bucketed batches in a seeded random order."""
    order = rng.permutation(len(records))
    shuffled = [records[int(i)] for i in order]
    shuffled.sort(key=lambda r: len(r.target))  # stable, keeps shuffle inside buckets
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

def _epoch_loop(model: ConceptModel, name: str, records: Sequence, epochs: int,
                stream: Sequence[int], step_loss: Callable[[list], dict[str, Tensor]],
                cfg: TrainConfig, out_dir: Optional[Union[str, Path]],
                validate: Optional[Callable[[], float]] = None, every: int = 1,
                patience: float = math.inf) -> TrainResult:
    """Run up to ``epochs`` epochs over ``records``; the model ends at its best state.

    Epoch e shuffles from ``[*stream, e]``. ``step_loss`` maps a batch to named
    scalar tensors, and the one named ``"loss"`` is optimized at the
    warmup/decay schedule's rate. Every ``every`` epochs, and at the last, a
    log entry holds each named loss as the record-weighted mean over the epoch
    and the ``validate`` score (None without a validator). A strictly better
    score keeps a copy of `value_buffer` and, under ``out_dir``, a checkpoint.
    The loop stops at a score of 100 or after ``patience`` scores in a row
    without improvement; ``stopped_early`` means it stopped before the last
    epoch. The log goes to ``<out_dir>/<name>_log.jsonl``. Adam's moments and
    step start at zero, as in a model just loaded, whatever ran before.
    """
    arena = next(iter(model.parameters().values())).arena
    arena.m[...], arena.v[...], arena.step = 0.0, 0.0, 0
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
    schedule = Schedule(cfg.learning_rate, cfg.warmup_proportion,
                        epochs * math.ceil(len(records) / cfg.batch_size))
    result = TrainResult(best_score=-math.inf if validate else math.nan,
                         stopped_early=False)
    best_values, stale, step = None, 0, 0
    for epoch in range(epochs):
        sums: dict[str, float] = {}
        for batch in make_batches(records, cfg.batch_size,
                                  np.random.default_rng([*stream, epoch])):
            step += 1
            losses = step_loss(batch)
            for key, value in losses.items():
                sums[key] = sums.get(key, 0.0) + value.item() * len(batch)
            _optimize(model, losses["loss"], lr_at(schedule, step), cfg)
        if (epoch + 1) % every and epoch < epochs - 1:
            continue
        val = validate() if validate else None
        entry = {"epoch": epoch, "step": step, "lr": lr_at(schedule, step), "val": val,
                 **{key: total / len(records) for key, total in sums.items()}}
        result.log.append(entry)
        log.info("%s epoch %d loss %.4f val %s", name, epoch, entry["loss"], val)
        if val is None:
            continue
        if val > result.best_score:
            result.best_score, best_values, stale = val, model.value_buffer().copy(), 0
            if out_dir is not None:
                model.save(out_dir / f"epoch{epoch:04d}-val{val:07.3f}.ckpt")
        else:
            stale += 1
        if val >= 100.0 or stale >= patience:
            result.stopped_early = epoch < epochs - 1
            break
    if best_values is not None:
        model.value_buffer()[...] = best_values
    if out_dir is not None:
        result.write_log(out_dir / f"{name}_log.jsonl")
    return result


def train_known_domains(model: ConceptModel, split: DomainSplit, cfg: TrainConfig,
                        out_dir: Optional[Union[str, Path]] = None) -> TrainResult:
    """Epoch loop over all known-domain concepts with early stopping.

    Validation is teacher-forced sequence accuracy on the held-back known
    split, evaluated after every epoch; the model is left at its best state.
    An empty train or valid split raises `EmptyEvalSetError`.
    """
    train_records = list(split.known_train)
    valid_records = list(split.known_valid)
    if not train_records or not valid_records:
        raise EmptyEvalSetError(
            "known-domain training needs non-empty train and valid sets")
    tags = tags_from_records(train_records + valid_records)

    def step_loss(batch: list) -> dict[str, Tensor]:
        bank_vectors = model.encode_concepts_tensor(tags)
        return {"loss": batch_nll_tensor(model, batch, tags, bank_vectors)}

    return _epoch_loop(
        model, "train", train_records, cfg.epochs, [cfg.seed], step_loss, cfg, out_dir,
        validate=lambda: teacher_forced_accuracy(model, valid_records, tags),
        patience=cfg.patience)


def pretrain_wikiwiki(model: ConceptModel, records: Sequence[PretrainRecord],
                      cfg: TrainConfig,
                      out_dir: Optional[Union[str, Path]] = None) -> TrainResult:
    """A fixed small number of epochs over the whole pretraining corpus.

    With no records nothing trains, and under ``out_dir`` the log is empty.
    """
    return _epoch_loop(model, "pretrain", records,
                       cfg.pretrain_epochs if records else 0,
                       [cfg.seed, 7_001],
                       lambda batch: {"loss": pretrain_loss(model, batch)}, cfg, out_dir)


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
        raise EmptyEvalSetError("few-shot fine-tuning needs at least one record")
    spi_records, known_records = list(spi_records), list(known_records)
    tags = tags_from_records(spi_records + known_records)
    rehearsal_rng = np.random.default_rng([cfg.seed, 4_242])

    def step_loss(batch: list) -> dict[str, Tensor]:
        bank_vectors = model.encode_concepts_tensor(tags)
        few = batch_nll_tensor(model, batch, tags, bank_vectors)
        if cfg.rehearsal_multiplier == 0 or not known_records:
            return {"loss": few, "few_loss": few}
        picks = rehearsal_rng.choice(len(known_records), replace=False,
                                     size=min(cfg.batch_size, len(known_records)))
        known = batch_nll_tensor(model, [known_records[int(i)] for i in picks],
                                 tags, bank_vectors)
        return {"loss": ad.add(few, ad.scale(known, cfg.rehearsal_multiplier)),
                "few_loss": few}

    return _epoch_loop(
        model, "finetune", spi_records, cfg.fewshot_epochs, [cfg.seed, 9_009],
        step_loss, cfg, out_dir,
        validate=lambda: teacher_forced_accuracy(model, spi_records, tags),
        every=cfg.fewshot_eval_every)
