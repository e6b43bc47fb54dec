"""Metric oracles and domain evaluation reports."""

from collections import Counter

import pytest

import concept_parse.evaluation as evaluation
from concept_parse.data import (DatasetRecord, build_leave_one_out, record_from_row,
                                tags_from_records)
from concept_parse.decoding import Hypothesis
from concept_parse.errors import EmptyEvalSetError, MalformedTargetError
from concept_parse.evaluation import (
    _precision_recall_f1,
    evaluate_domain,
    teacher_forced_accuracy,
)
from concept_parse.parse import token_strings
from concept_parse.training import TrainConfig, train_known_domains

from helpers import (TINY, Tree, build_model, oracle_target, random_roundtrip_corpus,
                     records_from_rows, sequence_from_strings, target_spans,
                     two_domain_rows, walk_spans_and_labels)


def tree(name, kind, *children):
    return Tree(name=name, kind=kind, children=children)


def decode_as(monkeypatch, targets):
    """Make `evaluate_domain`'s search return, for each utterance, the target
    ``targets`` maps its identity to."""
    monkeypatch.setattr(evaluation, "beam_decode", lambda model, utterance, *args, **kwargs:
                        [Hypothesis(tokens=targets[id(utterance)], log_prob=0.0)])


def em_outcome(monkeypatch, pred, annotation):
    """The ``em`` outcome `evaluate_domain` gives prediction ``pred`` against gold
    ``annotation`` over the utterance "x"."""
    record = record_from_row("d", "x", annotation)
    decode_as(monkeypatch, {id(record.utterance): pred})
    return evaluate_domain(None, None, [record]).outcomes[0]["em"]


class TestExactMatch:
    def test_identical(self, monkeypatch):
        a = sequence_from_strings(["[IN:A", "@ptr_0", "IN:A]"])
        b = sequence_from_strings(["[IN:A", "@ptr_0", "IN:A]"])
        assert a == b
        assert em_outcome(monkeypatch, a, "[IN:A x ]") == 1

    def test_one_label_differs(self, monkeypatch):
        a = sequence_from_strings(["[IN:A", "[SL:B", "@ptr_0", "SL:B]", "IN:A]"])
        b = sequence_from_strings(["[IN:A", "[SL:C", "@ptr_0", "SL:C]", "IN:A]"])
        assert a != b
        assert em_outcome(monkeypatch, a, "[IN:A [SL:C x ] ]") == 0

    def test_equal_spans_in_another_order_are_no_match(self, monkeypatch):
        # EM compares sequences: the same span multiset in another order is not one
        pred = sequence_from_strings(["[IN:A", "[SL:B", "SL:B]", "@ptr_0", "IN:A]"])
        gold = sequence_from_strings(["[IN:A", "@ptr_0", "[SL:B", "SL:B]", "IN:A]"])
        assert target_spans(pred) == target_spans(gold)
        assert em_outcome(monkeypatch, pred, "[IN:A x [SL:B ] ]") == 0

    def test_accuracy_aggregation(self):
        outcomes = [1, 1, 0]
        assert round(100.0 * sum(outcomes) / len(outcomes), 2) == 66.67


def f1_counts(pred, gold):
    """(matched, predicted, gold) span counts of a (pred, gold) target pair from
    `check_target`'s Counters; ``pred`` None is an invalid prediction, which
    predicts no span."""
    predicted = Counter() if pred is None else target_spans(pred)
    gold_spans = target_spans(gold)
    return (predicted & gold_spans).total(), predicted.total(), gold_spans.total()


def span_f1(pairs):
    """Micro precision, recall and F1 over (pred, gold) target pairs, summed as
    `evaluate_domain` sums them."""
    return _precision_recall_f1(*map(sum, zip(*(f1_counts(p, g) for p, g in pairs))))


class TestSpanF1:
    def test_perfect(self):
        gold = oracle_target(tree("IN:A", "intent", tree("SL:B", "slot", 0), 1))
        precision, recall, f1 = span_f1([(gold, gold)])
        assert (precision, recall, f1) == (100.0, 100.0, 100.0)

    def test_disjoint(self):
        gold = oracle_target(tree("IN:A", "intent", 0))
        pred = oracle_target(tree("IN:B", "intent", 0))
        assert span_f1([(pred, gold)])[2] == 0.0

    def test_half_credit(self):
        # gold spans {(IN:A,0,5),(SL:B,3,5)}, predicted {(IN:A,0,5),(SL:B,3,4)}
        gold = oracle_target(tree("IN:A", "intent", 0, 1, 2, tree("SL:B", "slot", 3, 4, 5)))
        pred = oracle_target(tree("IN:A", "intent", 0, 1, 2, tree("SL:B", "slot", 3, 4), 5))
        precision, recall, f1 = span_f1([(pred, gold)])
        assert (precision, recall, f1) == (50.0, 50.0, 50.0)

    def test_invalid_prediction_counts_gold_only(self):
        gold = oracle_target(tree("IN:A", "intent", 0, tree("SL:B", "slot", 1)))
        assert f1_counts(None, gold) == (0, 0, 2)
        precision, recall, f1 = span_f1([(None, gold)])
        assert (precision, recall, f1) == (0.0, 0.0, 0.0)

    def test_repeated_spans_count_as_often_as_they_occur(self):
        gold = sequence_from_strings(["[IN:A", "[IN:A", "@ptr_0", "IN:A]", "IN:A]"])
        pred = sequence_from_strings(["[IN:A", "@ptr_0", "IN:A]"])
        assert f1_counts(pred, gold) == (1, 1, 2)
        assert span_f1([(pred, gold)]) == (100.0, 50.0, pytest.approx(200.0 / 3))
        three = sequence_from_strings(["[IN:A", "[SL:B", "SL:B]", "[SL:B", "SL:B]",
                                       "@ptr_0", "IN:A]"])
        assert f1_counts(three, three) == (3, 3, 3)

    def test_micro_aggregation_sums_counts(self):
        gold1 = oracle_target(tree("IN:A", "intent", 0, 1))
        pred1 = oracle_target(tree("IN:A", "intent", 0, 1))
        gold2 = oracle_target(tree("IN:B", "intent", 0, tree("SL:C", "slot", 1)))
        pred2 = oracle_target(tree("IN:B", "intent", 0, 1))
        m1, p1, g1 = f1_counts(pred1, gold1)
        m2, p2, g2 = f1_counts(pred2, gold2)
        precision, recall, _ = span_f1([(pred1, gold1), (pred2, gold2)])
        assert precision == pytest.approx(100.0 * (m1 + m2) / (p1 + p2))
        assert recall == pytest.approx(100.0 * (m1 + m2) / (g1 + g2))


@pytest.fixture(scope="module")
def trained():
    records = records_from_rows(two_domain_rows(12, seed=0))
    split = build_leave_one_out(records, [], "weather", valid_fraction=0.3)
    model = build_model(records, seed=1, width=48, ff_width=96,
                        layers=1, heads=2, max_source_len=32, max_target_len=48)
    cfg = TrainConfig(batch_size=8, epochs=220, patience=220,
                      learning_rate=3e-3, seed=1)
    train_known_domains(model, split, cfg)
    train_records = list(split.known_train) + list(split.known_valid)
    return model, train_records


class TestTeacherForcedAccuracy:
    def test_overfit_model_scores_100(self, trained):
        model, records = trained
        tags = tags_from_records(records)
        assert teacher_forced_accuracy(model, records, tags) == 100.0

    def test_random_model_near_zero(self):
        records = records_from_rows(two_domain_rows(10, seed=0))
        model = build_model(records, seed=5, width=32, ff_width=64,
                            layers=1, heads=2, max_source_len=32, max_target_len=48)
        accuracy = teacher_forced_accuracy(model, records,
                                           tags_from_records(records))
        assert accuracy <= 5.0

    def test_never_touches_beam_search(self, trained, monkeypatch):
        model, records = trained
        import concept_parse.decoding as decoding

        def explode(*args, **kwargs):
            raise AssertionError("beam search invoked during validation")

        monkeypatch.setattr(decoding, "beam_decode", explode)
        teacher_forced_accuracy(model, records[:4], tags_from_records(records))

    def test_empty_set_rejected(self, trained):
        model, records = trained
        with pytest.raises(EmptyEvalSetError):
            teacher_forced_accuracy(model, [], tags_from_records(records))


class TestEvaluateDomain:
    def test_overfit_model_high_scores(self, trained):
        model, records = trained
        domain = model.compile_domain(tags_from_records(records))
        report = evaluate_domain(model, domain, records, beam_width=4)
        assert report.em >= 95.0
        assert report.f1 >= 95.0
        assert report.em <= report.validity <= 100.0
        assert report.count == len(records)
        assert len(report.outcomes) == report.count
        assert set(report.outcomes[0]) == {"utterance", "gold", "pred", "em",
                                           "f1_counts", "valid", "invalid_reason",
                                           "truncated"}
        matched = sum(o["f1_counts"][0] for o in report.outcomes)
        assert matched == report.matched_spans

    def test_empty_test_set(self, trained):
        model, records = trained
        domain = model.compile_domain(tags_from_records(records))
        with pytest.raises(EmptyEvalSetError):
            evaluate_domain(model, domain, [])

    @pytest.mark.parametrize("pred, validity, counts", [
        # balanced brackets and in-range pointers, but a pointer before the root
        (["@ptr_0", "[IN:A", "@ptr_1", "IN:A]"], 0.0, [0, 0, 1]),
        (["[IN:A", "@ptr_0", "@ptr_1", "IN:A]"], 100.0, [1, 1, 1]),
    ], ids=["flat_sequence", "gold"])
    def test_validity_is_delinearize(self, monkeypatch, pred, validity, counts):
        record = record_from_row("d", "x y", "[IN:A x y ]")
        assert token_strings(record.target) == ["[IN:A", "@ptr_0", "@ptr_1", "IN:A]"]
        fixed = [Hypothesis(tokens=sequence_from_strings(pred), log_prob=0.0)]
        monkeypatch.setattr(evaluation, "beam_decode", lambda *args, **kwargs: fixed)
        checked = []
        check_target = evaluation.check_target
        monkeypatch.setattr(evaluation, "check_target",
                            lambda seq, utterance: checked.append(token_strings(seq))
                            or check_target(seq, utterance))
        report = evaluate_domain(None, None, [record])
        assert checked == [token_strings(record.target), pred]
        assert report.validity == validity
        assert report.outcomes[0]["f1_counts"] == counts

    @pytest.mark.parametrize("gold", [
        ["[IN:A", "[SL:B", "@ptr_0", "SL:B]", "[SL:C", "@ptr_1", "SL:C]", "[IN:A"],
        ["IN:A]", "[IN:A", "[SL:B", "@ptr_0", "SL:B]", "[SL:C", "@ptr_1", "SL:C]", "IN:A]"],
    ], ids=["unclosed_root", "leading_end_tag"])
    def test_invalid_gold_is_refused_before_decoding(self, monkeypatch, gold):
        good = record_from_row("d", "x y", "[IN:A [SL:B x ] [SL:C y ] ]")
        bad = DatasetRecord("d", good.utterance, sequence_from_strings(gold))
        calls = []
        monkeypatch.setattr(evaluation, "beam_decode",
                            lambda *args, **kwargs: calls.append(args) or [
                                Hypothesis(tokens=good.target, log_prob=0.0)])
        with pytest.raises(MalformedTargetError):
            evaluate_domain(None, None, [good, bad])
        assert calls == []

    def test_gold_predictions_score_every_gold_span(self, monkeypatch):
        corpus = random_roundtrip_corpus(count=200, seed=11)
        records = [DatasetRecord("d", utterance, oracle_target(tree))
                   for utterance, tree in corpus]
        decode_as(monkeypatch, {id(r.utterance): r.target for r in records})
        report = evaluate_domain(None, None, records)
        for outcome, (_, tree) in zip(report.outcomes, corpus):
            assert outcome["f1_counts"][2] == walk_spans_and_labels(tree)[0].total()
        assert (report.em, report.f1, report.validity) == (100.0, 100.0, 100.0)

    def test_em_le_validity_on_untrained_model(self):
        records = records_from_rows(two_domain_rows(6, seed=2))
        model = build_model(records, seed=9, width=32, ff_width=64,
                            layers=1, heads=2, max_source_len=32, max_target_len=24)
        domain = model.compile_domain(tags_from_records(records))
        report = evaluate_domain(model, domain, records, beam_width=2)
        assert 0.0 <= report.em <= report.validity <= 100.0

    def test_invalid_reasons_count_the_invalid_outputs(self):
        records = records_from_rows(two_domain_rows(6, seed=2))
        model = build_model(records, seed=9, **dict(TINY, max_target_len=24))
        domain = model.encode_concepts(tags_from_records(records))
        report = evaluate_domain(model, domain, records, beam_width=2)
        valid = sum(o["valid"] for o in report.outcomes)
        assert valid < report.count
        assert sum(report.invalid_reasons.values()) == report.count - valid
        for outcome in report.outcomes:
            assert (outcome["invalid_reason"] is None) == outcome["valid"]
        assert report.invalid_reasons == dict(Counter(
            o["invalid_reason"] for o in report.outcomes if not o["valid"]))
        # every other total is its sum over the outcomes too
        assert report.em == 100.0 * sum(o["em"] for o in report.outcomes) / report.count
        assert report.validity == 100.0 * valid / report.count
        assert report.truncated == sum(o["truncated"] for o in report.outcomes)
        matched, predicted, gold = (sum(o["f1_counts"][i] for o in report.outcomes)
                                    for i in range(3))
        assert (report.matched_spans, report.predicted_spans, report.gold_spans) == \
            (matched, predicted, gold)
        precision, recall = matched / max(predicted, 1), matched / max(gold, 1)
        assert report.f1 == pytest.approx(
            200.0 * precision * recall / (precision + recall) if matched else 0.0)

    def test_truncated_counts_outputs_cut_by_the_length_cap(self):
        records = records_from_rows(two_domain_rows(6, seed=2))
        model = build_model(records, seed=9, **dict(TINY, max_target_len=4))
        # a bank of begin tags only: no output can close its root, so every one is cut
        begins = [t for t in tags_from_records(records) if t.boundary == "begin"]
        report = evaluate_domain(model, model.encode_concepts(begins), records,
                                 beam_width=2)
        assert report.truncated == report.count == len(records)
        assert all(o["truncated"] and len(o["pred"]) == 4 for o in report.outcomes)

    def test_no_output_of_a_trained_model_is_cut(self, trained):
        model, records = trained
        domain = model.encode_concepts(tags_from_records(records))
        report = evaluate_domain(model, domain, records[:4], beam_width=4)
        assert report.truncated == 0
        assert [o["truncated"] for o in report.outcomes] == [False] * 4
