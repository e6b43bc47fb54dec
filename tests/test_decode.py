"""Beam search against exhaustive enumeration and the per-beam oracle."""

import math

import numpy as np
import pytest

from concept_parse.data import tags_from_records
from concept_parse.decoding import beam_decode
from concept_parse.model import _token_at
from concept_parse.parse import tags_for_label, tokenize_utterance
from concept_parse.synthetic import transfer_pair_rows

from helpers import (TINY, advance, build_model, records_from_rows,
                     reference_beam_decode, teacher_forcing_indices,
                     two_domain_rows)

MICRO = dict(width=16, layers=1, heads=2, max_source_len=16, max_target_len=24, ff_width=32)


def micro_model(seed, max_target_len=MICRO["max_target_len"]):
    records = records_from_rows(two_domain_rows(4, seed=0))
    return build_model(records, seed=seed,
                       **dict(MICRO, max_target_len=max_target_len))


def micro_bank(model, labels=("IN:GO", "SL:SPOT")):
    tags = [t for name in labels for t in tags_for_label(name)]
    return model.encode_concepts(tags)


def enumerate_best(model, utterance, bank):
    """Exhaustive scoring of every terminal sequence up to the model's length cap."""
    src = model.encode_source(utterance.tokens)
    best = {"lp": -math.inf, "tokens": None}

    def recurse(state, prev, tokens, lp, depth):
        log_probs, new_state = model.decode_step(state, np.array([prev]))
        for index in range(bank.m + len(src)):
            token = _token_at(index, bank)
            seq = tokens + (token,)
            total = lp + float(log_probs[0][index])
            new_depth, finished = advance(depth, token)
            if finished or len(seq) >= model.config.max_target_len:
                if total > best["lp"]:
                    best["lp"] = total
                    best["tokens"] = seq
            else:
                recurse(new_state, index, seq, total, new_depth)

    recurse(model.initial_state(src, bank), model.bos_index(bank.m), (), 0.0, 0)
    return best


class TestBeamOracle:
    def test_matches_exhaustive_enumeration(self):
        matches = 0
        for seed in range(20):
            model = micro_model(seed, max_target_len=3)
            bank = micro_bank(model)  # m = 4
            utterance = tokenize_utterance("near the" if seed % 2 else "harbor bakery")
            assert bank.m + len(utterance.tokens) == 6
            best = enumerate_best(model, utterance, bank)
            hypotheses = beam_decode(model, utterance, bank, beam_width=216)
            top = hypotheses[0]
            assert abs(top.log_prob - best["lp"]) < 1e-9
            assert top.tokens == best["tokens"]
            matches += 1
        assert matches == 20

    def test_beam_one_equals_greedy(self):
        """Width one is greedy search; the per-beam oracle at width one is
        the greedy reference."""
        checked = 0
        for seed in range(5):
            model = micro_model(100 + seed, max_target_len=8)
            bank = micro_bank(model)
            for i in range(20):
                words = ["near", "the", "harbor", "bakery", "museum"][: 1 + i % 5]
                utterance = tokenize_utterance(" ".join(words))
                greedy = reference_beam_decode(model, utterance, bank, 1)
                beam = beam_decode(model, utterance, bank, beam_width=1)
                assert len(greedy) == len(beam) == 1
                assert greedy[0].tokens == beam[0].tokens
                assert abs(greedy[0].log_prob - beam[0].log_prob) < 1e-9
                checked += 1
        assert checked == 100

    def test_wider_beam_never_scores_worse(self):
        for seed in range(6):
            model = micro_model(200 + seed, max_target_len=8)
            bank = micro_bank(model)
            utterance = tokenize_utterance("near the harbor")
            narrow = beam_decode(model, utterance, bank, beam_width=1)
            wide = beam_decode(model, utterance, bank, beam_width=4)
            assert wide[0].log_prob >= narrow[0].log_prob - 1e-12

    def test_deterministic(self):
        model = micro_model(7)
        bank = micro_bank(model)
        utterance = tokenize_utterance("near the harbor")
        a = beam_decode(model, utterance, bank, beam_width=4)
        b = beam_decode(model, utterance, bank, beam_width=4)
        assert [h.tokens for h in a] == [h.tokens for h in b]

    def test_cumulative_log_prob_is_sum_of_steps(self):
        model = micro_model(9)
        bank = micro_bank(model)
        utterance = tokenize_utterance("near the")
        top = beam_decode(model, utterance, bank, beam_width=4)[0]
        inputs, gold = teacher_forcing_indices(model, utterance, top.tokens, bank)
        state = model.initial_state(model.encode_source(utterance.tokens), bank)
        total = 0.0
        for prev, index in zip(inputs, gold):
            log_probs, state = model.decode_step(state, np.array([prev]))
            total += float(log_probs[0][index])
        assert abs(total - top.log_prob) < 1e-9

    def test_truncation_flag(self):
        model = micro_model(11, max_target_len=2)
        bank = micro_bank(model)
        utterance = tokenize_utterance("near")
        hypotheses = beam_decode(model, utterance, bank, beam_width=2)
        assert any(h.truncated for h in hypotheses) or \
            all(len(h.tokens) <= 2 for h in hypotheses)

    def test_invalid_width(self):
        model = micro_model(1)
        with pytest.raises(ValueError):
            beam_decode(model, tokenize_utterance("x"), micro_bank(model),
                        beam_width=0)

    @pytest.mark.parametrize("width", [2.5, 4.0, True], ids=["fraction", "whole_float", "bool"])
    def test_width_must_be_an_integer(self, width):
        model = micro_model(1)
        with pytest.raises(ValueError, match="beam width must be an integer"):
            beam_decode(model, tokenize_utterance("x"), micro_bank(model),
                        beam_width=width)


class TestBatchedBeamOracle:
    """The batched search against the per-beam one, in double precision."""

    @pytest.fixture(scope="class", params=["two_domain", "transfer_pair"])
    def case(self, request):
        """A double-precision model builder over one corpus, by length cap,
        and utterances to decode."""
        rows = (two_domain_rows(6, seed=4) if request.param == "two_domain"
                else transfer_pair_rows(6, seed=4))
        records = records_from_rows(rows)

        def capped(max_target_len):
            model = build_model(records, seed=5, precision="double",
                                **dict(TINY, max_target_len=max_target_len))
            return model, model.encode_concepts(tags_from_records(records))

        return capped, [r.utterance for r in records[::2]]

    @staticmethod
    def assert_same(batched, reference):
        assert [h.tokens for h in batched] == [h.tokens for h in reference]
        assert [h.truncated for h in batched] == [h.truncated for h in reference]
        for b, r in zip(batched, reference):
            assert abs(b.log_prob - r.log_prob) <= 1e-9

    @pytest.mark.parametrize("max_len", [None, 3])
    def test_matches_per_beam_search(self, case, max_len):
        capped, utterances = case
        model, bank = capped(max_len or TINY["max_target_len"])
        outcomes = set()
        for utterance in utterances:
            for width in (1, 2, 4, 8):
                batched = beam_decode(model, utterance, bank, beam_width=width)
                reference = reference_beam_decode(model, utterance, bank, width)
                self.assert_same(batched, reference)
                outcomes.update(h.truncated for h in batched)
        # both stopping rules are exercised, at the default and a small cap
        assert outcomes == {True, False}

    def test_ties_break_beam_major_then_by_index(self, case):
        capped, utterances = case
        model, bank = capped(5)
        # a zero output head scores every index alike, so only ties decide
        for name in ("head.concept.w", "head.concept.b", "head.pointer.w",
                     "head.pointer.b"):
            model.params[name].data = np.zeros_like(model.params[name].data)
        for width in (1, 3, 8):
            batched = beam_decode(model, utterances[0], bank, beam_width=width)
            reference = reference_beam_decode(model, utterances[0], bank, width)
            self.assert_same(batched, reference)
