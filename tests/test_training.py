"""Loss oracles, in-batch negatives, rehearsal identity, loop behavior and
what the loops write under ``out_dir``."""

import json
import math
from dataclasses import astuple, fields, replace

import numpy as np
import pytest

from concept_parse.data import (
    build_leave_one_out,
    sample_spi,
    tags_from_records,
)
from concept_parse.errors import EmptyEvalSetError, NonFiniteError, UnknownConceptError
from concept_parse.model import ConceptModel, ModelConfig
from concept_parse.parse import target_tags
from concept_parse.synthetic import transfer_pair_rows
import concept_parse.autodiff as ad
import concept_parse.training as training
from concept_parse.training import (
    TrainConfig,
    batch_nll_tensor,
    fewshot_finetune,
    make_batches,
    pretrain_loss,
    pretrain_wikiwiki,
    train_known_domains,
)

from helpers import (TINY, batch_cross_entropy, build_model, load_wiki, records_from_rows,
                     two_domain_rows, wiki_payloads)


def wiki_records(tmp_path, count=24, seed=0):
    return load_wiki(tmp_path, wiki_payloads(count=count, seed=seed))[0]


class TestInBatchNegatives:
    def test_union_counts(self, tmp_path):
        records = wiki_records(tmp_path)
        two_tags = [r for r in records if len(target_tags(r.target)) == 2]
        assert len(tags_from_records(two_tags[:1])) == 2
        distinct = []
        seen = set()
        for record in records:
            names = {t.name for t in target_tags(record.target)}
            if names and not (names & seen):
                distinct.append(record)
                seen |= names
            if len(distinct) == 2:
                break
        union = tags_from_records(distinct)
        assert len(union) == 4

    def test_union_keys_tags_by_symbol(self, tmp_path):
        # one entity id under two type names: one begin/end pair, with the first
        # record's descriptions, and build_batch finds the second record's tags
        records, _ = load_wiki(tmp_path, [
            {"context": "we visit paris .",
             "mentions": [{"start": 9, "end": 14, "entity": "Q90", "type": "city"}]},
            {"context": "paris is lovely .",
             "mentions": [{"start": 0, "end": 5, "entity": "Q90", "type": "capital"}]},
        ])
        first, second = (target_tags(r.target) for r in records)
        assert [t.description for t in second] != [t.description for t in first]
        union = tags_from_records(records)
        assert [astuple(t) for t in union] == [astuple(t) for t in first]
        model = build_model([], wiki_records=records, seed=2, **TINY)
        assert np.isfinite(pretrain_loss(model, records).item())

    def test_union_must_cover_targets(self, tmp_path):
        records = [r for r in wiki_records(tmp_path) if target_tags(r.target)]
        model = build_model([], wiki_records=records, seed=2, **TINY)
        union = tags_from_records(records[:1])[1:]
        with pytest.raises(UnknownConceptError):
            training.batch_nll_tensor(model, records[:1], union,
                                      model.encode_concepts_tensor(union))

    def test_loss_equals_restricted_full_ce_exactly(self, tmp_path):
        records = [r for r in wiki_records(tmp_path) if target_tags(r.target)]
        model = build_model([], wiki_records=records, seed=2, **TINY)
        rng = np.random.default_rng(0)
        for trial in range(6):
            picks = rng.choice(len(records), size=4, replace=False)
            batch = [records[int(i)] for i in picks]
            expected = batch_cross_entropy(model, batch, tags_from_records(batch))
            assert pretrain_loss(model, batch).item() == expected  # same floating-point path

    def test_restriction_differs_from_full_bank(self, tmp_path):
        records = [r for r in wiki_records(tmp_path) if target_tags(r.target)]
        model = build_model([], wiki_records=records, seed=3, **TINY)
        all_tags = tags_from_records(records)
        union = tags_from_records(records[:2])
        if len(union) == len(all_tags):
            pytest.skip("fixture batch covered every tag")
        restricted = batch_cross_entropy(model, records[:2], union)
        full = batch_cross_entropy(model, records[:2], all_tags)
        assert restricted != full


class TestFewshotLoss:
    @staticmethod
    def _run(monkeypatch, multiplier, spi_count, epochs):
        """Fine-tune a fresh model; return the per-batch NLL tensors' values,
        the values handed to ``_optimize`` and the training result."""
        records = records_from_rows(transfer_pair_rows(8, seed=0))
        alpha = [r for r in records if r.domain == "alpha"]
        beta = [r for r in records if r.domain == "beta"]
        model = build_model(records, seed=1, **TINY)
        batch_losses, optimized = [], []
        batch_nll, optimize = training.batch_nll_tensor, training._optimize

        def recording_nll(*args):
            loss = batch_nll(*args)
            batch_losses.append(loss.data.copy())
            return loss

        def recording_optimize(model, loss, lr, cfg):
            optimized.append(loss.data.copy())
            optimize(model, loss, lr, cfg)

        monkeypatch.setattr(training, "batch_nll_tensor", recording_nll)
        monkeypatch.setattr(training, "_optimize", recording_optimize)
        cfg = quick_cfg(batch_size=2, rehearsal_multiplier=multiplier,
                        fewshot_epochs=epochs, fewshot_eval_every=1)
        result = fewshot_finetune(model, beta[:spi_count], alpha, cfg)
        monkeypatch.undo()
        return batch_losses, optimized, result

    @pytest.mark.parametrize("multiplier", [0.0, 0.1, 1.0])
    def test_identity(self, monkeypatch, multiplier):
        batch_losses, optimized, result = self._run(monkeypatch, multiplier, 4, 2)
        # each step scores one few-shot batch, then one rehearsal batch if m > 0
        per_step = 2 if multiplier > 0 else 1
        assert len(optimized) == 4 and len(batch_losses) == 4 * per_step
        for step, total in enumerate(optimized):
            few = batch_losses[per_step * step]
            if multiplier > 0:
                known = batch_losses[per_step * step + 1]
                assert total == few + known * multiplier
            else:
                assert total == few
        # the log averages the optimized values and the few-shot terms
        start = 0
        for entry in result.log:
            steps = range(start, entry["step"])
            assert entry["loss"] == sum(optimized[i].item() for i in steps) / len(steps)
            assert entry["few_loss"] == \
                sum(batch_losses[per_step * i].item() for i in steps) / len(steps)
            start = entry["step"]

    def test_affine_in_multiplier(self, monkeypatch):
        # one step from the same start: the batches and their losses agree
        # across multipliers, so the optimized loss is affine in m
        runs = {lam: self._run(monkeypatch, lam, 2, 1) for lam in (0.0, 0.1, 1.0)}
        at = {lam: optimized[0] for lam, (_, optimized, _) in runs.items()}
        few = runs[1.0][0][0]
        known = runs[1.0][0][1]
        assert runs[0.0][0] == [few]
        assert runs[0.1][0][0] == few and runs[0.1][0][1] == known
        assert at[0.0] == few
        assert at[1.0] == at[0.0] + known
        assert at[0.1] == at[0.0] + known * 0.1

    def test_default_multiplier(self):
        assert TrainConfig().rehearsal_multiplier == 0.1


class TestBatches:
    def test_deterministic_and_bucketed(self):
        records = records_from_rows(two_domain_rows(20, seed=0))
        one = make_batches(records, 8, np.random.default_rng(3))
        two = make_batches(records, 8, np.random.default_rng(3))
        assert one == two
        for batch in one:
            lengths = [len(r.target) for r in batch]
            assert max(lengths) - min(lengths) <= 4

    def test_all_records_used_once(self):
        records = records_from_rows(two_domain_rows(13, seed=1))
        batches = make_batches(records, 4, np.random.default_rng(0))
        flat = [r for batch in batches for r in batch]
        assert sorted(map(id, flat)) == sorted(map(id, records))


def quick_cfg(**kwargs):
    base = dict(batch_size=8, epochs=40, patience=5, learning_rate=2e-3, seed=1)
    base.update(kwargs)
    return TrainConfig(**base)


class TestTrainConfig:
    @pytest.mark.parametrize("name", ["batch_size", "fewshot_eval_every", "epochs",
                                      "pretrain_epochs", "fewshot_epochs"])
    def test_counts_below_one_rejected(self, name):
        with pytest.raises(ValueError, match=name):
            TrainConfig(**{name: 0})

    def test_negative_learning_rate_rejected(self):
        with pytest.raises(ValueError, match="learning_rate"):
            TrainConfig(learning_rate=-1e-3)

    @pytest.mark.parametrize("name, value", [
        ("batch_size", 2.5), ("epochs", 2.5), ("batch_size", True), ("epochs", True),
        ("seed", 1.5), ("seed", -1), ("seed", True), ("patience", "5"),
        ("learning_rate", math.nan), ("learning_rate", math.inf), ("learning_rate", True),
        ("weight_decay", -1.0), ("rehearsal_multiplier", math.inf),
    ])
    def test_bad_field_rejected_at_construction(self, name, value):
        with pytest.raises(ValueError, match=name):
            TrainConfig(**{name: value})

    def test_the_settable_values_are_pinned(self):
        """A new option shows up as an edit here; the three fixed values stay
        readable as attributes."""
        assert [f.name for f in fields(TrainConfig)] == [
            "batch_size", "epochs", "patience", "learning_rate", "weight_decay",
            "rehearsal_multiplier", "pretrain_epochs", "fewshot_epochs",
            "fewshot_eval_every", "seed"]
        assert [f.name for f in fields(ModelConfig)] == [
            "width", "layers", "heads", "max_source_len", "max_target_len", "ff_width",
            "precision"]
        cfg = TrainConfig()
        assert (cfg.warmup_proportion, cfg.adam_betas, cfg.adam_eps) == (0.1, (0.9, 0.999), 1e-8)

    def test_range_ends_accepted(self):
        TrainConfig(seed=0, learning_rate=0, weight_decay=0.0, rehearsal_multiplier=0.0)


class TestTrainKnownDomains:
    def test_overfits_small_corpus(self):
        records = records_from_rows(two_domain_rows(12, seed=0))
        split = build_leave_one_out(records, [], "weather", valid_fraction=0.3)
        model = build_model(records, seed=1, width=48, ff_width=96,
                            layers=1, heads=2, max_source_len=32, max_target_len=48)
        result = train_known_domains(model, split,
                                     quick_cfg(epochs=220, learning_rate=3e-3,
                                               patience=220))
        assert result.best_score >= 90.0
        assert result.log[-1]["loss"] < result.log[0]["loss"]

    def test_bit_reproducible(self):
        records = records_from_rows(two_domain_rows(8, seed=0))
        split = build_leave_one_out(records, [], "weather", valid_fraction=0.3)

        def run():
            model = build_model(records, seed=4, **TINY)
            result = train_known_domains(model, split, quick_cfg(epochs=4, seed=9))
            blob = b"".join(p.data.tobytes()
                            for _, p in sorted(model.parameters().items()))
            return [e["loss"] for e in result.log], blob

        losses_a, blob_a = run()
        losses_b, blob_b = run()
        assert losses_a == losses_b
        assert blob_a == blob_b

    def test_frozen_lr_stops_after_patience(self):
        records = records_from_rows(two_domain_rows(8, seed=0))
        split = build_leave_one_out(records, [], "weather", valid_fraction=0.3)
        model = build_model(records, seed=1, **TINY)
        result = train_known_domains(
            model, split, quick_cfg(learning_rate=0.0, patience=1, epochs=50))
        assert result.stopped_early
        assert len(result.log) == 2  # first epoch improves over -inf, second stops

    def test_a_loop_that_runs_every_epoch_did_not_stop_early(self, monkeypatch):
        # patience 1 runs out at the second score: the last epoch of a 2-epoch loop
        records = records_from_rows(two_domain_rows(8, seed=0))
        split = build_leave_one_out(records, [], "weather", valid_fraction=0.3)
        monkeypatch.setattr(training, "teacher_forced_accuracy", lambda *args: 0.0)
        for epochs, early in ((2, False), (3, True)):
            model = build_model(records, seed=1, **TINY)
            result = train_known_domains(model, split, quick_cfg(epochs=epochs, patience=1))
            assert len(result.log) == 2 and result.stopped_early is early

    def test_every_scheduled_step_runs_at_a_positive_rate(self, monkeypatch):
        # step s runs at the schedule's rate for s, the last step's too, and a
        # log entry's step is the number of steps taken before it
        records = records_from_rows(two_domain_rows(8, seed=0))
        split = build_leave_one_out(records, [], "weather", valid_fraction=0.3)
        model = build_model(records, seed=1, **TINY)
        lrs, taken = [], []
        optimize = training._optimize

        def recording_optimize(model, loss, lr, cfg):
            lrs.append(lr)
            optimize(model, loss, lr, cfg)

        monkeypatch.setattr(training, "_optimize", recording_optimize)
        monkeypatch.setattr(training, "teacher_forced_accuracy",
                            lambda *args: taken.append(len(lrs)) or 0.0)
        cfg = quick_cfg(batch_size=2, epochs=4, patience=4)
        result = train_known_domains(model, split, cfg)
        schedule = ad.Schedule(cfg.learning_rate, cfg.warmup_proportion,
                               cfg.epochs * math.ceil(len(split.known_train) / 2))
        assert schedule.total_steps == 12  # 3 steps an epoch, and 2 of warmup
        assert lrs == [ad.lr_at(schedule, s) for s in range(1, schedule.total_steps + 1)]
        assert all(lr > 0 for lr in lrs)
        assert [entry["step"] for entry in result.log] == taken
        assert [entry["lr"] for entry in result.log] == [lrs[n - 1] for n in taken]

    def test_empty_valid_split_rejected(self):
        # one record per domain: the known domains hold nothing back
        records = records_from_rows(two_domain_rows(1, seed=0))
        split = build_leave_one_out(records, [], "weather", valid_fraction=0.3)
        assert split.known_train and not split.known_valid
        model = build_model(records, seed=1, **TINY)
        with pytest.raises(EmptyEvalSetError):
            train_known_domains(model, split, quick_cfg(epochs=2))


class TestPretrainLoop:
    def test_epoch_cap_exact(self, tmp_path):
        records = wiki_records(tmp_path, count=10)
        model = build_model([], wiki_records=records, seed=0, **TINY)
        result = pretrain_wikiwiki(model, records, quick_cfg())
        assert len(result.log) == 2
        assert result.log[-1]["epoch"] == 1

    def test_empty_corpus_is_identity(self, tmp_path):
        model = build_model([], wiki_records=wiki_records(tmp_path, count=4), seed=0,
                            **TINY)
        before = model.value_buffer().copy()
        pretrain_wikiwiki(model, [], quick_cfg())
        assert np.array_equal(before, model.value_buffer())

    def test_loss_decreases(self, tmp_path):
        records = wiki_records(tmp_path, count=30)
        model = build_model([], wiki_records=records, seed=0, **TINY)
        result = pretrain_wikiwiki(model, records,
                                   quick_cfg(pretrain_epochs=6, learning_rate=2e-3))
        assert result.log[-1]["loss"] < result.log[0]["loss"]

    def test_shuffles_from_its_own_stream(self, tmp_path, monkeypatch):
        # epoch e draws from [seed, 7001, e]; known-domain training uses [seed, e]
        records = wiki_records(tmp_path, count=10)
        model = build_model([], wiki_records=records, seed=0, **TINY)
        states, make = [], training.make_batches
        monkeypatch.setattr(training, "make_batches", lambda records, size, rng: (
            states.append(rng.bit_generator.state) or make(records, size, rng)))
        cfg = quick_cfg(seed=3, pretrain_epochs=2)
        pretrain_wikiwiki(model, records, cfg)
        assert states == [np.random.default_rng([3, 7_001, epoch]).bit_generator.state
                          for epoch in range(2)]

    def test_non_finite_gradient_stops_the_run_before_a_weight_is_written(
            self, tmp_path, monkeypatch):
        records = wiki_records(tmp_path, count=10)
        model = build_model([], wiki_records=records, seed=0, **TINY)
        backward, steps = training.ad.backward, []

        def backward_then_poison(loss):
            backward(loss)
            steps.append(None)
            if len(steps) == 2:
                model.params["decoder.bos"].grad[0] = np.inf

        monkeypatch.setattr(training.ad, "backward", backward_then_poison)
        with pytest.raises(NonFiniteError, match="Adam step 2"):
            pretrain_wikiwiki(model, records, quick_cfg())
        assert np.isfinite(model.value_buffer()).all()


class TestFewshotFinetune:
    def test_empty_subset_rejected(self):
        records = records_from_rows(two_domain_rows(6, seed=0))
        model = build_model(records, seed=0, **TINY)
        with pytest.raises(EmptyEvalSetError):
            fewshot_finetune(model, [], records, quick_cfg())

    def test_smoke_improves_on_new_domain(self):
        """Known-domain training runs until it scores, so that fine-tuning
        starts from a model that parses the known domain, not from one that
        stopped by patience at a score of 0."""
        records = records_from_rows(transfer_pair_rows(16, seed=0))
        alpha = [r for r in records if r.domain == "alpha"]
        beta = [r for r in records if r.domain == "beta"]
        model = build_model(records, seed=1, **TINY)
        split = build_leave_one_out(records, [], "beta", valid_fraction=0.25)
        known = train_known_domains(model, split, quick_cfg(epochs=40, learning_rate=3e-3,
                                                            patience=40))
        assert known.best_score > 0.0
        spi = sample_spi(beta, k=1, seed=3)
        before = model.value_buffer().copy()
        cfg = quick_cfg(fewshot_epochs=80, fewshot_eval_every=20,
                        learning_rate=3e-3)
        result = fewshot_finetune(model, spi, alpha, cfg)
        assert result.best_score > 0.0
        assert not np.array_equal(before, model.value_buffer())

    def test_each_step_rehearses_a_full_known_batch(self, monkeypatch):
        """Each step scores its few-shot batch, then min(batch_size, known)
        rehearsal records."""
        records = records_from_rows(two_domain_rows(6, seed=0))
        navigation = [r for r in records if r.domain == "navigation"]
        spi, known = navigation[:3], navigation[3:]
        sizes, nll = [], training.batch_nll_tensor
        monkeypatch.setattr(training, "batch_nll_tensor", lambda model, batch, *args: (
            sizes.append(len(batch)) or nll(model, batch, *args)))
        for batch_size in (2, 4):
            sizes.clear()
            model = build_model(records, seed=1, **TINY)
            fewshot_finetune(model, spi, known, quick_cfg(
                batch_size=batch_size, fewshot_epochs=2, fewshot_eval_every=2))
            steps = 2 * math.ceil(len(spi) / batch_size)
            assert len(sizes) == 2 * steps
            assert sizes[1::2] == [min(batch_size, len(known))] * steps

    def test_multiplier_zero_is_plain_finetuning(self):
        records = records_from_rows(two_domain_rows(6, seed=0))
        navigation = [r for r in records if r.domain == "navigation"]
        model = build_model(records, seed=1, **TINY)
        cfg = quick_cfg(rehearsal_multiplier=0.0, fewshot_epochs=4,
                        fewshot_eval_every=2)
        result = fewshot_finetune(model, navigation[:3], navigation[3:], cfg)
        assert all("few_loss" in e and e["loss"] == e["few_loss"]
                   for e in result.log)

    def test_a_chained_regime_ends_as_one_resumed_from_a_checkpoint(self, tmp_path):
        """Each regime starts Adam's moments and step afresh, as a model loaded
        from a checkpoint does, so fine-tuning straight after known-domain
        training ends bit-equal to fine-tuning a saved and reloaded copy."""
        records = records_from_rows(transfer_pair_rows(16, seed=0))
        alpha = [r for r in records if r.domain == "alpha"]
        beta = [r for r in records if r.domain == "beta"]
        model = build_model(records, seed=1, **TINY)
        split = build_leave_one_out(records, [], "beta", valid_fraction=0.25)
        train_known_domains(model, split, quick_cfg(epochs=4, patience=40, learning_rate=3e-3))
        model.save(tmp_path / "known.ckpt")
        resumed = ConceptModel.load(tmp_path / "known.ckpt")
        spi = sample_spi(beta, k=1, seed=3)
        cfg = quick_cfg(fewshot_epochs=6, fewshot_eval_every=3, learning_rate=3e-3)
        for copy in (model, resumed):
            fewshot_finetune(copy, spi, alpha, cfg)
        assert model.value_buffer().tobytes() == resumed.value_buffer().tobytes()


class TestDescriptionAblation:
    """The decoder reads a known tag through its description: with each
    description moved to the tag two places on, the same trained model's loss
    on the known domain's records is at least 1.2 times as large. The seeds and
    the margin were fixed before measuring. The true and rotated losses were
    0.529 and 1.349, 0.487 and 1.205, and 0.669 and 1.076 on seeds 0-2, and a
    concept encoder that reads one description for every tag gives a ratio of
    about 1."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_rotated_descriptions_cost_known_domain_likelihood(self, seed):
        records = records_from_rows(transfer_pair_rows(40, seed=0))
        model = build_model(records, seed=seed, **TINY)
        split = build_leave_one_out(records, [], "beta", valid_fraction=0.25)
        result = train_known_domains(model, split, quick_cfg(
            epochs=10, patience=10, learning_rate=3e-3))
        assert not result.stopped_early
        known = list(split.known_train + split.known_valid)
        tags = tags_from_records(known)
        rotated = [replace(tag, description=tags[(i + 2) % len(tags)].description)
                   for i, tag in enumerate(tags)]
        with ad.no_grad():
            true_nll, rotated_nll = (
                batch_nll_tensor(model, known, tags, model.encode_concepts_tensor(bank)).item()
                for bank in (tags, rotated))
        assert rotated_nll >= 1.2 * true_nll, (true_nll, rotated_nll)


def assert_log_file(path, result):
    lines = path.read_text(encoding="utf-8").splitlines()
    assert [json.loads(line) for line in lines] == result.log


def assert_checkpoints(out_dir, result, model):
    """One checkpoint per improving log entry, each loading; the last holds the
    restored model's values."""
    improving, best = [], -1.0
    for entry in result.log:
        if entry["val"] > best:
            best = entry["val"]
            improving.append(entry)
    assert len(improving) > 1
    assert improving[-1] is not result.log[-1]  # so the restore is visible
    paths = sorted(out_dir.glob("*.ckpt"))
    assert [p.name for p in paths] == \
        [f"epoch{e['epoch']:04d}-val{e['val']:07.3f}.ckpt" for e in improving]
    for path in paths:
        loaded = ConceptModel.load(path)
    assert loaded.value_buffer().tobytes() == model.value_buffer().tobytes()


class TestOutDir:
    def test_known_domains(self, tmp_path):
        records = records_from_rows(transfer_pair_rows(16, seed=0))
        split = build_leave_one_out(records, [], "beta", valid_fraction=0.3)
        model = build_model(records, seed=1, **TINY)
        result = train_known_domains(model, split,
                                     quick_cfg(epochs=20, learning_rate=1e-2,
                                               patience=20),
                                     out_dir=tmp_path)
        assert_log_file(tmp_path / "train_log.jsonl", result)
        assert_checkpoints(tmp_path, result, model)

    def test_pretrain(self, tmp_path):
        records = wiki_records(tmp_path, count=10)
        model = build_model([], wiki_records=records, seed=0, **TINY)
        result = pretrain_wikiwiki(model, records, quick_cfg(), out_dir=tmp_path)
        assert_log_file(tmp_path / "pretrain_log.jsonl", result)
        assert not list(tmp_path.glob("*.ckpt"))

    def test_empty_pretrain_writes_empty_log(self, tmp_path):
        model = build_model([], wiki_records=wiki_records(tmp_path, count=4), seed=0,
                            **TINY)
        result = pretrain_wikiwiki(model, [], quick_cfg(), out_dir=tmp_path / "run")
        assert result.log == []
        assert (tmp_path / "run" / "pretrain_log.jsonl").read_text(encoding="utf-8") == ""

    def test_fewshot(self, tmp_path):
        records = records_from_rows(transfer_pair_rows(8, seed=0))
        alpha = [r for r in records if r.domain == "alpha"]
        beta = [r for r in records if r.domain == "beta"]
        model = build_model(records, seed=1, **TINY)
        cfg = quick_cfg(batch_size=2, fewshot_epochs=30, fewshot_eval_every=3,
                        learning_rate=1e-2)
        result = fewshot_finetune(model, beta[:3], alpha, cfg, out_dir=tmp_path)
        assert_log_file(tmp_path / "finetune_log.jsonl", result)
        assert_checkpoints(tmp_path, result, model)
