"""Network contract tests: shapes, the m+n head, permutation equivariance,
compiled-domain equivalence, and batched/stepwise agreement."""

import re

import numpy as np
import pytest

import concept_parse.autodiff as ad
from concept_parse.data import record_from_row, tags_from_records
from concept_parse.errors import (
    CheckpointMismatchError,
    EmptyDescriptionError,
    LengthExceededError,
    ShapeError,
    UnknownConceptError,
)
from concept_parse.model import ConceptBank, SourceEncoding, Vocabulary
from concept_parse.parse import Concept, Pointer, make_tag, tags_for_label
from concept_parse.synthetic import (
    COMPOSITIONAL_ANNOTATION,
    COMPOSITIONAL_UTTERANCE,
    two_domain_rows,
)

from helpers import TINY, build_model, records_from_rows, zero_grads


@pytest.fixture(scope="module")
def corpus():
    return records_from_rows(two_domain_rows(12, seed=0))


@pytest.fixture(scope="module")
def model(corpus):
    return build_model(corpus, seed=1, **TINY)


@pytest.fixture(scope="module")
def bank(model, corpus):
    return model.encode_concepts(tags_from_records(corpus))


class TestEncodeSource:
    def test_shape(self, model):
        enc = model.encode_source(("how", "far", "is", "the", "mall"))
        assert enc.states.shape == (5, 32) and enc.n == 5

    def test_deterministic(self, model):
        a = model.encode_source(("how", "far"))
        b = model.encode_source(("how", "far"))
        assert np.array_equal(a.states, b.states)

    def test_finite_on_reference_utterance(self, model):
        enc = model.encode_source(tuple(COMPOSITIONAL_UTTERANCE.split()))
        assert np.all(np.isfinite(enc.states))

    def test_length_cap(self, model):
        with pytest.raises(LengthExceededError):
            model.encode_source(tuple("w" for _ in range(33)))

    def test_unknown_token_maps_to_unk(self, model):
        a = model.encode_source(("zzz_not_in_vocab",))
        b = model.encode_source(("qqq_also_unknown",))
        assert np.array_equal(a.states, b.states)


class TestEncodeConcepts:
    def test_shape(self, model, bank):
        assert bank.vectors.shape == (bank.m, 32)
        # seven distinct labels (date-time is shared), begin and end each
        assert bank.m == 14

    def test_permutation_permutes_rows(self, model, bank):
        rng = np.random.default_rng(0)
        perm = rng.permutation(bank.m)
        permuted = model.encode_concepts([bank.tags[i] for i in perm])
        assert np.array_equal(permuted.vectors, bank.vectors[perm])

    def test_deterministic(self, model):
        tags = tags_for_label("IN:GET_DISTANCE", "intent")
        one = model.encode_concepts(tags)
        two = model.encode_concepts(tags)
        assert np.array_equal(one.vectors, two.vectors)

    def test_empty_bank_rejected(self, model):
        with pytest.raises(EmptyDescriptionError):
            model.encode_concepts([])

    def test_empty_description_rejected(self, model):
        from concept_parse.parse import ConceptTag
        bad = ConceptTag(name="IN:X", kind="intent", boundary="begin", description="  ")
        with pytest.raises(EmptyDescriptionError):
            model.encode_concepts([bad])


class TestTargetEmbed:
    def test_pointer_rows_distinct(self, model, bank):
        a = model.target_embed(Pointer(0), bank)
        b = model.target_embed(Pointer(1), bank)
        assert not np.array_equal(a, b)

    def test_concept_uses_bank_row(self, model, bank):
        tag = bank.tags[3]
        assert np.array_equal(model.target_embed(Concept(tag), bank),
                              bank.vectors[3])

    def test_unknown_concept(self, model, bank):
        stranger = make_tag("IN:NOT_IN_BANK", "intent", "begin")
        with pytest.raises(UnknownConceptError):
            model.target_embed(Concept(stranger), bank)

    def test_pointer_beyond_table(self, model, bank):
        from concept_parse.errors import PointerRangeError
        with pytest.raises(PointerRangeError):
            model.target_embed(Pointer(64), bank)


class TestDecodeStep:
    def decode_once(self, model, bank, tokens=("how", "far", "is")):
        src = model.encode_source(tokens)
        state = model.initial_state(src)
        return model.decode_step(state, model.bos_embedding(), src, bank)

    def test_distribution_contract(self, model, bank):
        dist, state = self.decode_once(model, bank)
        assert dist.probabilities[0].shape == (bank.m + 3,)
        assert abs(dist.probabilities[0].sum() - 1.0) < 1e-5
        assert np.all(dist.probabilities[0] > 0)
        assert state.t == 1

    def test_bank_permutation_equivariance(self, model, bank):
        rng = np.random.default_rng(1)
        perm = rng.permutation(bank.m)
        permuted_bank = ConceptBank(tags=tuple(bank.tags[i] for i in perm),
                                    vectors=bank.vectors[perm])
        base, _ = self.decode_once(model, bank)
        swapped, _ = self.decode_once(model, permuted_bank)
        assert np.abs(swapped.probabilities[0][:bank.m]
                      - base.probabilities[0][perm]).max() <= 1e-6
        assert np.array_equal(swapped.pointer_scores[0], base.pointer_scores[0])
        # the argmax denotes the same token through either layout
        m = bank.m
        base_arg = base.argmax()[0]
        swap_arg = swapped.argmax()[0]
        if base_arg < m:
            assert bank.tags[base_arg] == permuted_bank.tags[swap_arg]
        else:
            assert base_arg == swap_arg - (len(permuted_bank.tags) - m)

    def test_two_way_softmax_oracle(self, model):
        tags = [make_tag("IN:ONLY", "intent", "begin")]
        bank = model.encode_concepts(tags)
        src = model.encode_source(("how",))
        dist, _ = model.decode_step(model.initial_state(src),
                                    model.bos_embedding(), src, bank)
        logits = np.array([dist.concept_scores[0][0], dist.pointer_scores[0][0]],
                          dtype=np.float64)
        expected = np.exp(logits) / np.exp(logits).sum()
        assert np.allclose(dist.probabilities[0], expected, atol=1e-6)

    def test_masking_a_source_position_shrinks_support(self, model, bank):
        src = model.encode_source(("how", "far", "is"))
        masked = SourceEncoding(states=np.delete(src.states, 1, axis=0))
        dist, _ = model.decode_step(model.initial_state(masked),
                                    model.bos_embedding(), masked, bank)
        assert dist.probabilities[0].shape == (bank.m + 2,)

    def test_step_cap(self, model, bank):
        src = model.encode_source(("how",))
        state = model.initial_state(src)
        prev = model.bos_embedding()
        for _ in range(model.config.max_target_len):
            dist, state = model.decode_step(state, prev, src, bank)
        with pytest.raises(LengthExceededError):
            model.decode_step(state, prev, src, bank)

    def test_beam_rows_match_single_beam_steps(self, corpus):
        model = build_model(corpus, seed=3, precision="double", **TINY)
        bank = model.encode_concepts(tags_from_records(corpus))
        src = model.encode_source(("how", "far", "is"))
        _, first = model.decode_step(model.initial_state(src),
                                     model.bos_embedding(), src, bank)
        inputs = np.stack([model.target_embed(Pointer(j), bank) for j in (0, 2)])
        batched, state = model.decode_step(first.reorder(np.array([0, 0])),
                                           inputs, src, bank)
        assert state.beams == 2 and state.t == 2
        for row, prev in enumerate(inputs):
            alone, _ = model.decode_step(first, prev, src, bank)
            np.testing.assert_allclose(batched.log_probabilities[row],
                                       alone.log_probabilities[0], atol=1e-12)
        with pytest.raises(ShapeError):
            model.decode_step(first, inputs, src, bank)

    def test_unseen_tag_still_supported(self, model, bank):
        novel = list(bank.tags) + list(tags_for_label("IN:NEVER_TRAINED", "intent"))
        wider = model.encode_concepts(novel)
        dist, _ = self.decode_once(model, wider)
        assert dist.probabilities[0].shape == (bank.m + 2 + 3,)
        assert abs(dist.probabilities[0].sum() - 1.0) < 1e-5


class TestTeacherForced:
    def test_length_and_loop_equality(self, model, bank, corpus):
        record = corpus[0]
        dists = model.forward_teacher_forced(record.utterance, record.target, bank)
        assert len(dists) == len(record.target.tokens)
        # manual stepwise replay must agree bit for bit
        src = model.encode_source(record.utterance.tokens)
        state = model.initial_state(src)
        prev = model.bos_embedding()
        for token, dist in zip(record.target.tokens, dists):
            manual, state = model.decode_step(state, prev, src, bank)
            assert manual.probabilities.tobytes() == dist.probabilities.tobytes()
            prev = model.target_embed(token, bank)

    def test_compositional_support_size(self):
        record = record_from_row("navigation", COMPOSITIONAL_UTTERANCE,
                                 COMPOSITIONAL_ANNOTATION)
        model = build_model([record], seed=0, **TINY)
        bank = model.encode_concepts(tags_from_records([record]))
        assert bank.m == 8
        dists = model.forward_teacher_forced(record.utterance, record.target, bank)
        assert all(d.probabilities[0].shape == (14,) for d in dists)

    def test_unknown_concept_propagates(self, model, corpus):
        thin_bank = model.encode_concepts(
            tags_for_label("IN:GET_DISTANCE", "intent"))
        record = corpus[0]
        with pytest.raises(UnknownConceptError):
            model.forward_teacher_forced(record.utterance, record.target, thin_bank)


class TestCompiledDomain:
    def test_identical_to_dynamic(self, model, bank, corpus):
        compiled = model.compile_domain(bank.tags)
        assert compiled.bank.vectors.tobytes() == bank.vectors.tobytes()
        for record in corpus[:5]:
            dynamic = model.forward_teacher_forced(record.utterance, record.target,
                                                   bank)
            static = model.forward_teacher_forced(record.utterance, record.target,
                                                  compiled)
            for a, b in zip(dynamic, static):
                assert a.probabilities.tobytes() == b.probabilities.tobytes()

    def test_support_grows_with_new_tag(self, model, bank):
        extended = model.compile_domain(
            list(bank.tags) + [make_tag("SL:EXTRA", "slot", "begin")])
        assert extended.m == bank.m + 1

    def test_empty_rejected(self, model):
        with pytest.raises(EmptyDescriptionError):
            model.compile_domain([])


class TestBatchedForward:
    def test_matches_stepwise_in_double_precision(self, corpus):
        model = build_model(corpus, seed=3, precision="double", **TINY)
        tags = tags_from_records(corpus)
        bank = model.encode_concepts(tags)
        batch = model.build_batch(corpus[:6], tags)
        with ad.no_grad():
            log_probs = model.teacher_log_probs(
                batch, ad.constant(bank.vectors)).data
        for i, record in enumerate(corpus[:6]):
            dists = model.forward_teacher_forced(record.utterance, record.target,
                                                 bank)
            n = len(record.utterance.tokens)
            m = bank.m
            for t, dist in enumerate(dists):
                batched = np.concatenate([log_probs[i, t, :m],
                                          log_probs[i, t, m:m + n]])
                np.testing.assert_allclose(batched, dist.log_probabilities[0],
                                           atol=1e-9)
                assert int(np.argmax(batched)) == dist.argmax()[0]

    def test_padded_positions_get_zero_probability(self, model, corpus, bank):
        short = [r for r in corpus if len(r.utterance.tokens) == 5][:1]
        long = [r for r in corpus if len(r.utterance.tokens) >= 6][:1]
        records = short + long
        tags = list(bank.tags)
        batch = model.build_batch(records, tags)
        with ad.no_grad():
            log_probs = model.teacher_log_probs(batch, ad.constant(bank.vectors)).data
        n_short = len(records[0].utterance.tokens)
        pad_probs = np.exp(log_probs[0, 0, bank.m + n_short:])
        assert np.all(pad_probs == 0.0)

    def test_gradients_reach_concept_encoder(self, model, corpus):
        tags = tags_from_records(corpus)
        batch = model.build_batch(corpus[:4], tags)
        zero_grads(model.parameters().values())
        bank_tensor = model.encode_concepts_tensor(tags)
        log_probs = model.teacher_log_probs(batch, bank_tensor)
        picked = ad.take_along_last(log_probs, batch.gold)
        loss = ad.scale(ad.sum_all(ad.mul(picked, ad.constant(batch.tgt_mask))), -1.0)
        ad.backward(loss)
        touched = [name for name, p in model.parameters().items()
                   if name.startswith("concept.") and np.abs(p.grad).max() > 0]
        assert any("adapter" in name for name in touched)
        assert any(".self.wq" in name for name in touched)
        zero_grads(model.parameters().values())


class TestPersistence:
    def test_checkpoint_roundtrip_preserves_decoding(self, tmp_path, model, bank,
                                                     corpus):
        path = tmp_path / "model.ckpt"
        model.save(path, train_tags=bank.tags)
        loaded, train_tags = type(model).load(path)
        assert [t.name for t in train_tags] == [t.name for t in bank.tags]
        record = corpus[0]
        reloaded_bank = loaded.encode_concepts(bank.tags)
        assert reloaded_bank.vectors.tobytes() == bank.vectors.tobytes()
        a = model.forward_teacher_forced(record.utterance, record.target, bank)
        b = loaded.forward_teacher_forced(record.utterance, record.target,
                                          reloaded_bank)
        for x, y in zip(a, b):
            assert x.probabilities.tobytes() == y.probabilities.tobytes()

    @pytest.mark.parametrize("edit, name", [
        ("drop", "head.pointer.w"),
        ("add", "head.extra.w"),
        ("reshape", "decoder.bos"),
    ])
    def test_parameter_set_must_match_exactly(self, tmp_path, model, edit, name):
        path = tmp_path / "model.ckpt"
        model.save(path)
        params = dict(model.parameters())
        if edit == "drop":
            del params[name]
        else:
            params[name] = ad.Parameter(name, np.zeros((2, 3), dtype=model.dtype))
        ad.save_parameters(params, path, model.config.precision)
        with pytest.raises(CheckpointMismatchError, match=re.escape(name)):
            type(model).load(path)

    def test_truncated_checkpoint_names_path(self, tmp_path, model):
        path = tmp_path / "model.ckpt"
        model.save(path)
        path.write_bytes(path.read_bytes()[:20])
        with pytest.raises(ValueError, match="model.ckpt"):
            type(model).load(path)

    def test_identity_digest_tracks_vocabulary(self, model, corpus):
        other = build_model(corpus + [record_from_row("nav", "brandnewword",
                                                      "[IN:GET_ETA brandnewword ]")],
                            seed=1, **TINY)
        assert other.identity_digest() != model.identity_digest()
