"""Network contract tests: shapes, the m+n head, permutation equivariance,
compiled-domain equivalence, batched/stepwise agreement, and persistence."""

import hashlib
import json
import re
import time
import tracemalloc
from dataclasses import fields, replace
from types import SimpleNamespace

import numpy as np
import pytest

import concept_parse.autodiff as ad
from concept_parse.data import record_from_row, tags_from_records
from concept_parse.errors import (
    CheckpointMismatchError,
    EmptyDescriptionError,
    LengthExceededError,
    NonFiniteError,
    PointerRangeError,
    ShapeError,
    UnknownConceptError,
    require_count,
)
from concept_parse.decoding import beam_decode
from concept_parse.evaluation import evaluate_domain, teacher_forced_accuracy
from concept_parse.model import (PAD, SUMMARY, UNK, ConceptBank, ConceptModel, ModelConfig,
                                 Vocabulary)
from concept_parse.parse import Pointer, make_tag, tags_for_label, tokenize_utterance
from concept_parse.training import batch_nll_tensor

from helpers import (
    COMPOSITIONAL_ANNOTATION,
    COMPOSITIONAL_UTTERANCE,
    TINY,
    build_model,
    forward_teacher_forced,
    records_from_rows,
    reference_beam_decode,
    two_domain_rows,
    zero_grads,
)

# JSON nested past the parser's recursion limit
NESTED = "[" * 100_000 + "]" * 100_000


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
        assert enc.shape == (5, 32)

    def test_deterministic(self, model):
        a = model.encode_source(("how", "far"))
        b = model.encode_source(("how", "far"))
        assert np.array_equal(a, b)

    def test_finite_on_reference_utterance(self, model):
        enc = model.encode_source(tuple(COMPOSITIONAL_UTTERANCE.split()))
        assert np.all(np.isfinite(enc))

    def test_length_cap(self, model):
        with pytest.raises(LengthExceededError):
            model.encode_source(tuple("w" for _ in range(33)))

    def test_empty_token_sequence_rejected(self, model):
        with pytest.raises(ShapeError, match="cannot encode an empty token sequence"):
            model.encode_source([])

    def test_unknown_token_maps_to_unk(self, model):
        a = model.encode_source(("zzz_not_in_vocab",))
        b = model.encode_source(("qqq_also_unknown",))
        assert np.array_equal(a, b)


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
        tags = tags_for_label("IN:GET_DISTANCE")
        one = model.encode_concepts(tags)
        two = model.encode_concepts(tags)
        assert np.array_equal(one.vectors, two.vectors)

    def test_empty_bank_rejected(self, model):
        with pytest.raises(EmptyDescriptionError):
            model.encode_concepts([])

    def test_empty_description_rejected(self, model):
        from concept_parse.parse import ConceptTag
        bad = ConceptTag(name="IN:X", boundary="begin", description="  ")
        with pytest.raises(EmptyDescriptionError):
            model.encode_concepts([bad])


def teacher_force(model, bank, sources, targets):
    """No-grad teacher-forced forward of one record with ``sources`` source
    tokens and ``targets`` target tokens."""
    record = SimpleNamespace(utterance=tokenize_utterance(" ".join(["how"] * sources)),
                             target=(Pointer(0),) * targets)
    with ad.no_grad():
        return model.teacher_log_probs(model.build_batch([record], list(bank.tags)),
                                       ad.constant(bank.vectors))


class TestInferenceChecksItsOutput:
    """No-grad forwards record no graph, so no op checks its output (ROADMAP
    item 10); each inference entry checks its own output once, and a NaN weight
    in the stack it reads raises `NonFiniteError` naming the entry."""

    @pytest.mark.parametrize("entry, weight", [("encode_source", "encoder.0.ff.w1"),
                                               ("encode_concepts", "concept.0.ff.w1"),
                                               ("teacher_forced_accuracy", "decoder.0.ff.w1")])
    def test_a_nan_weight_raises(self, corpus, entry, weight):
        model = build_model(corpus, seed=1, **TINY)
        tags = tags_from_records(corpus)
        model.params[weight].data[0, 0] = np.nan
        run = {"encode_source": lambda: model.encode_source(corpus[0].utterance.tokens),
               "encode_concepts": lambda: model.encode_concepts(tags),
               "teacher_forced_accuracy": lambda: teacher_forced_accuracy(model, corpus[:3], tags)}
        with np.errstate(invalid="ignore"), pytest.raises(NonFiniteError, match=f"^{entry} "):
            run[entry]()


class TestPositionLimits:
    @pytest.mark.parametrize("table, forward", [
        ("encoder.pos", lambda model, bank, n: teacher_force(model, bank, n, 1)),
        ("encoder.pos", lambda model, bank, n: model.encode_source(("how",) * n)),
        ("concept.pos", lambda model, bank, n: model.encode_concepts(
            [replace(bank.tags[0], description=" ".join(["the"] * (n - 1)))])),
        ("decoder.pos", lambda model, bank, n: teacher_force(model, bank, 1, n)),
    ], ids=["source_batch", "utterance", "description", "target"])
    def test_a_sequence_may_fill_its_position_table(self, model, bank, table, forward):
        """A description's positions count its summary token."""
        rows = len(model.parameters()[table].data)
        forward(model, bank, rows)
        with pytest.raises(LengthExceededError, match=re.escape(f"{table}'s {rows} rows")):
            forward(model, bank, rows + 1)


class TestTargetEmbed:
    def test_pointer_rows_distinct(self, model, bank):
        a = model.target_embed(Pointer(0), bank)
        b = model.target_embed(Pointer(1), bank)
        assert not np.array_equal(a, b)

    def test_concept_uses_bank_row(self, model, bank):
        tag = bank.tags[3]
        assert np.array_equal(model.target_embed(tag, bank),
                              bank.vectors[3])

    def test_tag_listed_twice_takes_its_last_row(self, model, bank):
        # the row build_batch's index map gives it
        doubled = ConceptBank(tags=bank.tags + (bank.tags[3],),
                              vectors=np.vstack([bank.vectors, bank.vectors[3] + 1.0]))
        assert np.array_equal(model.target_embed(bank.tags[3], doubled),
                              doubled.vectors[-1])

    def test_unknown_concept(self, model, bank):
        stranger = make_tag("IN:NOT_IN_BANK", "begin")
        with pytest.raises(UnknownConceptError):
            model.target_embed(stranger, bank)

    def test_last_pointer_row_and_the_bound(self, model, bank):
        last = model.config.max_source_len - 1
        assert model.target_embed(Pointer(last), bank).tobytes() == \
            model.parameters()["decoder.ptr_embed"].data[last].tobytes()
        with pytest.raises(PointerRangeError):
            model.target_embed(Pointer(last + 1), bank)

    def test_pointer_beyond_table(self, model, bank):
        from concept_parse.errors import PointerRangeError
        with pytest.raises(PointerRangeError):
            model.target_embed(Pointer(64), bank)


def bos(model, bank):
    """The one-beam input of a search's first step."""
    return np.array([model.bos_index(bank.m)])


class TestDecodeStep:
    def decode_once(self, model, bank, tokens=("how", "far", "is")):
        state = model.initial_state(model.encode_source(tokens), bank)
        return model.decode_step(state, bos(model, bank))

    def test_distribution_contract(self, model, bank):
        dist, state = self.decode_once(model, bank)
        probabilities = np.exp(dist[0])
        assert probabilities.shape == (bank.m + 3,)
        assert abs(probabilities.sum() - 1.0) < 1e-5
        assert np.all(probabilities > 0)
        assert state.t == 1

    def test_bank_permutation_equivariance(self, model, bank):
        rng = np.random.default_rng(1)
        perm = rng.permutation(bank.m)
        permuted_bank = ConceptBank(tags=tuple(bank.tags[i] for i in perm),
                                    vectors=bank.vectors[perm])
        base, _ = self.decode_once(model, bank)
        swapped, _ = self.decode_once(model, permuted_bank)
        m = bank.m
        assert np.abs(np.exp(swapped[0][:m]) - np.exp(base[0][perm])).max() <= 1e-6
        assert np.abs(np.exp(swapped[0][m:]) - np.exp(base[0][m:])).max() <= 1e-6
        # the argmax denotes the same token through either layout
        base_arg = int(np.argmax(base[0]))
        swap_arg = int(np.argmax(swapped[0]))
        if base_arg < m:
            assert bank.tags[base_arg] == permuted_bank.tags[swap_arg]
        else:
            assert base_arg == swap_arg - (len(permuted_bank.tags) - m)

    def test_two_way_softmax_oracle(self, model):
        """One concept and one pointer: the step's two probabilities are the
        batched forward's softmax over the same two scores."""
        tags = [make_tag("IN:ONLY", "begin")]
        bank = model.encode_concepts(tags)
        utterance = tokenize_utterance("how")
        log_probs, _ = self.decode_once(model, bank, utterance.tokens)
        record = SimpleNamespace(utterance=utterance,
                                 target=(tags[0],))
        with ad.no_grad():
            expected = model.teacher_log_probs(model.build_batch([record], tags),
                                               ad.constant(bank.vectors)).data[0, 0]
        assert log_probs[0].shape == expected.shape == (2,)
        assert np.allclose(np.exp(log_probs[0]), np.exp(expected), atol=1e-6)

    def test_masking_a_source_position_shrinks_support(self, model, bank):
        src = model.encode_source(("how", "far", "is"))
        masked = np.delete(src, 1, axis=0)
        dist, _ = model.decode_step(model.initial_state(masked, bank), bos(model, bank))
        assert dist[0].shape == (bank.m + 2,)

    def test_step_cap(self, model, bank):
        state = model.initial_state(model.encode_source(("how",)), bank)
        for _ in range(model.config.max_target_len):
            dist, state = model.decode_step(state, np.array([bank.m]))
        with pytest.raises(LengthExceededError):
            model.decode_step(state, np.array([bank.m]))

    def test_beam_rows_match_single_beam_steps(self, corpus):
        model = build_model(corpus, seed=3, precision="double", **TINY)
        bank = model.encode_concepts(tags_from_records(corpus))
        src = model.encode_source(("how", "far", "is"))
        _, first = model.decode_step(model.initial_state(src, bank), bos(model, bank))
        inputs = bank.m + np.array([0, 2])  # pointers 0 and 2
        batched, state = model.decode_step(first.reorder(np.array([0, 0])), inputs)
        assert state.cache[0].shape[1] == 2 and state.t == 2
        for row, prev in enumerate(inputs):
            alone, _ = model.decode_step(first, np.array([prev]))
            np.testing.assert_allclose(batched[row],
                                       alone[0], atol=1e-12)
        for wrong in (inputs, bank.m):
            with pytest.raises(ShapeError, match="one previous output index per beam"):
                model.decode_step(first, wrong)

    @pytest.mark.parametrize("prev", [-1, 10**6, 1.0], ids=["negative", "past_table", "float"])
    def test_previous_index_must_be_a_row_of_the_input_table(self, model, bank, prev):
        state = model.initial_state(model.encode_source(("how", "far", "is")), bank)
        with pytest.raises(ShapeError, match=re.escape(f"in [0, {len(state.table)})")):
            model.decode_step(state, np.array([prev]))

    @pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_weight_fails_the_decode(self, corpus, value):
        model = build_model(corpus, seed=1, **TINY)
        bank = model.encode_concepts(tags_from_records(corpus))
        model.params["decoder.0.ff.w1"].data[0, 0] = value
        with np.errstate(invalid="ignore", over="ignore"), \
                pytest.raises(NonFiniteError, match="decoding step 0"):
            beam_decode(model, corpus[0].utterance, bank)

    def test_a_state_is_a_value(self, model, bank):
        """Stepping or reordering a state leaves every array of it as it was,
        so a branch goes on as in a fresh run after a sibling has stepped."""
        src = model.encode_source(("how", "far", "is"))

        def first_step():
            return model.decode_step(model.initial_state(src, bank), bos(model, bank))[1]

        def contents(state):
            """The bytes of every field's array, or arrays, in field order, with
            nested tuples (each layer's cross fold) flattened."""
            def flat(value):
                return ([b for item in value for b in flat(item)] if isinstance(value, tuple)
                        else [np.asarray(value).tobytes()])
            return flat(tuple(getattr(state, f.name) for f in fields(state)))

        state = first_step()
        before = contents(state)
        _, branch = model.decode_step(state, np.array([bank.m]))
        model.decode_step(state, np.array([bank.m + 2]))
        state.reorder(np.array([0, 0]))
        assert contents(state) == before
        continued, _ = model.decode_step(branch, np.array([0]))
        _, fresh_branch = model.decode_step(first_step(), np.array([bank.m]))
        fresh, _ = model.decode_step(fresh_branch, np.array([0]))
        assert continued.tobytes() == fresh.tobytes()

    def test_unseen_tag_still_supported(self, model, bank):
        novel = list(bank.tags) + list(tags_for_label("IN:NEVER_TRAINED"))
        wider = model.encode_concepts(novel)
        dist, _ = self.decode_once(model, wider)
        probabilities = np.exp(dist[0])
        assert probabilities.shape == (bank.m + 2 + 3,)
        assert abs(probabilities.sum() - 1.0) < 1e-5


class TestBankWidth:
    @pytest.mark.parametrize("entry", ["beam_decode", "evaluate_domain", "teacher_log_probs",
                                       "target_embed"])
    def test_bank_of_another_width_raises_shape_error(self, corpus, bank, entry):
        """A bank from a width-32 model, used by a width-64 one, fails typed
        where the decoder input table stacks it, not as a raw numpy error."""
        wide = build_model(corpus, seed=1, **dict(TINY, width=64))
        calls = {
            "beam_decode": lambda: beam_decode(wide, corpus[0].utterance, bank, beam_width=2),
            "evaluate_domain": lambda: evaluate_domain(wide, bank, corpus[:2], beam_width=2),
            "teacher_log_probs": lambda: wide.teacher_log_probs(
                wide.build_batch(corpus[:2], bank.tags), ad.constant(bank.vectors)),
            "target_embed": lambda: wide.target_embed(bank.tags[0], bank),
        }
        with pytest.raises(ShapeError, match=r"cannot concatenate shapes .*\(\d+, 32\)"):
            calls[entry]()


class TestTeacherForced:
    def test_length_and_loop_equality(self, model, bank, corpus):
        record = corpus[0]
        dists = forward_teacher_forced(model, record.utterance, record.target, bank)
        assert len(dists) == len(record.target)
        # a replay fed each token's own output index must agree bit for bit
        rows = {(t.name, t.boundary): i for i, t in enumerate(bank.tags)}
        state = model.initial_state(model.encode_source(record.utterance.tokens), bank)
        prev = model.bos_index(bank.m)
        for token, dist in zip(record.target, dists):
            manual, state = model.decode_step(state, np.array([prev]))
            assert manual.tobytes() == dist.tobytes()
            prev = (bank.m + token.index if isinstance(token, Pointer)
                    else rows[(token.name, token.boundary)])

    def test_compositional_support_size(self):
        record = record_from_row("navigation", COMPOSITIONAL_UTTERANCE,
                                 COMPOSITIONAL_ANNOTATION)
        model = build_model([record], seed=0, **TINY)
        bank = model.encode_concepts(tags_from_records([record]))
        assert bank.m == 8
        dists = forward_teacher_forced(model, record.utterance, record.target, bank)
        assert all(d[0].shape == (14,) for d in dists)

    def test_unknown_concept_propagates(self, model, corpus):
        thin_bank = model.encode_concepts(tags_for_label("IN:GET_DISTANCE"))
        record = corpus[0]
        with pytest.raises(UnknownConceptError):
            forward_teacher_forced(model, record.utterance, record.target, thin_bank)


class TestCompiledDomain:
    def test_identical_to_dynamic(self, model, bank, corpus):
        compiled = model.compile_domain(bank.tags)
        assert compiled.tags == bank.tags
        assert compiled.vectors.tobytes() == bank.vectors.tobytes()
        for record in corpus[:5]:
            dynamic = forward_teacher_forced(model, record.utterance, record.target,
                                             bank)
            static = forward_teacher_forced(model, record.utterance, record.target,
                                            compiled)
            for a, b in zip(dynamic, static):
                assert a.tobytes() == b.tobytes()

    def test_support_grows_with_new_tag(self, model, bank):
        extended = model.compile_domain(
            list(bank.tags) + [make_tag("SL:EXTRA", "begin")])
        assert extended.m == bank.m + 1

    def test_empty_rejected(self, model):
        with pytest.raises(EmptyDescriptionError):
            model.compile_domain([])

    def test_tag_count_must_match_vector_rows(self):
        with pytest.raises(ShapeError, match="bank tag count does not match vector rows"):
            ConceptBank(tags_for_label("IN:A"), np.zeros((3, 4), dtype=np.float32))


class TestVocabulary:
    def test_specials_come_first(self):
        assert Vocabulary(["b", UNK, "a", PAD]).tokens == (PAD, UNK, SUMMARY, "b", "a")
        built = Vocabulary.build([["b", SUMMARY], ["a", "b"]])
        assert built.tokens == (PAD, UNK, SUMMARY, "a", "b")
        assert Vocabulary(built.tokens).tokens == built.tokens  # as a sidecar reloads it


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
            dists = forward_teacher_forced(model, record.utterance, record.target,
                                           bank)
            n = len(record.utterance.tokens)
            m = bank.m
            for t, dist in enumerate(dists):
                batched = np.concatenate([log_probs[i, t, :m],
                                          log_probs[i, t, m:m + n]])
                np.testing.assert_allclose(batched, dist[0],
                                           atol=1e-9)
                assert np.argmax(batched) == np.argmax(dist[0])

    def test_matches_stepwise_with_every_gain_and_bias_drawn(self, corpus):
        """As above, with every gain and bias moved off its initial ones or
        zeros, so that each layer norm's fold into the product that reads it
        (`DecoderState`) is tested on its gain and on its bias."""
        model = build_model(corpus, seed=3, precision="double", **TINY)
        rng = np.random.default_rng(8)
        for name, p in model.parameters().items():
            if name.endswith((".gain", ".bias", ".b", ".b1", ".b2")):
                p.data[...] += rng.normal(0.0, 0.5, p.data.shape)
        tags = tags_from_records(corpus)
        bank = model.encode_concepts(tags)
        with ad.no_grad():
            log_probs = model.teacher_log_probs(model.build_batch(corpus[:6], tags),
                                                ad.constant(bank.vectors)).data
        for i, record in enumerate(corpus[:6]):
            stepwise = np.concatenate(forward_teacher_forced(model, record.utterance,
                                                             record.target, bank))
            columns = bank.m + len(record.utterance.tokens)
            np.testing.assert_allclose(log_probs[i, :len(stepwise), :columns], stepwise,
                                       atol=1e-9)

    def test_inputs_index_the_decoder_input_table(self, model, corpus, bank):
        records = corpus[:6]
        batch = model.build_batch(records, list(bank.tags))
        m = bank.m
        assert model.bos_index(m) == m + model.config.max_source_len
        assert np.all(batch.inputs[:, 0] == model.bos_index(m))
        table = np.concatenate([bank.vectors,
                                model.parameters()["decoder.ptr_embed"].data,
                                model.parameters()["decoder.bos"].data[None, :]])
        for i, record in enumerate(records):
            length, n = len(record.target), len(record.utterance.tokens)
            assert np.array_equal(batch.inputs[i, 1:length], batch.gold[i, :length - 1])
            for t, token in enumerate(record.target[:-1]):
                row = table[batch.inputs[i, t + 1]]
                assert row.tobytes() == model.target_embed(token, bank).tobytes()
            src = model.encode_source(record.utterance.tokens)
            assert np.array_equal(model.initial_state(src, bank).table, table)

    def test_pointer_outside_utterance_rejected(self, model, corpus, bank):
        record = corpus[0]
        n = len(record.utterance.tokens)
        bad = replace(record, target=record.target[:1] + (Pointer(n),) + record.target[1:])
        with pytest.raises(PointerRangeError, match=f"pointer {n} outside"):
            model.build_batch([bad], list(bank.tags))

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
        assert any(np.abs(p.grad[0]).max() > 0 for name, p in model.parameters().items()
                   if name.startswith("concept.") and name.endswith(".self.w"))  # Wq
        zero_grads(model.parameters().values())

    @pytest.mark.parametrize("config, nodes, leaves", [({}, 73, 87), (TINY, 52, 53)],
                             ids=["default", "tiny"])
    def test_graph_size_of_a_train_step(self, corpus, config, nodes, leaves):
        """Each attention and each feed-forward sublayer is one node, and so is
        each affine, so a step's loss reaches this many op nodes; it reaches
        every parameter, and an attention sublayer's weights are two of them."""
        model = build_model(corpus, seed=1, **config)
        tags = tags_from_records(corpus)
        loss = batch_nll_tensor(model, corpus[:4], tags, model.encode_concepts_tensor(tags))
        seen, stack = {}, [loss]
        while stack:
            node = stack.pop()
            if id(node) not in seen:
                seen[id(node)] = node
                stack.extend(node.parents)
        assert sum(node.vjp is not None for node in seen.values()) == nodes
        assert sum(isinstance(node, ad.Parameter) for node in seen.values()) == leaves
        assert len(model.parameters()) == leaves

    def test_graph_and_decoder_share_the_attention_kernel(self, model, corpus, bank,
                                                         monkeypatch):
        calls = []
        kernel = ad.attention_kernel
        monkeypatch.setattr(ad, "attention_kernel",
                            lambda *args: calls.append(args[0].shape) or kernel(*args))
        with ad.no_grad():
            model.teacher_log_probs(model.build_batch(corpus[:2], list(bank.tags)),
                                    ad.constant(bank.vectors))
        graph_calls = len(calls)
        tokens = corpus[0].utterance.tokens
        state = model.initial_state(model.encode_source(tokens), bank)
        softmaxes = []
        softmax = ad.softmax_kernel
        monkeypatch.setattr(ad, "softmax_kernel",
                            lambda x: softmaxes.append(x.shape) or softmax(x))
        model.decode_step(state, np.array([model.bos_index(bank.m)]))
        # teacher forcing: encoder self, decoder self and cross; then encode_source's
        # encoder self, and one decode step's self-attention; the step's folded
        # cross-attention takes the softmax of its (beams, heads, n) logits
        heads = model.config.heads
        assert graph_calls == 3 and len(calls) == 3 + 1 + 1
        assert calls[-1] == (1, heads, 1, model.config.width // heads)
        assert softmaxes == [(1, heads, 1, 1), (1, heads, len(tokens))]

    def test_every_layer_norm_takes_the_one_row_statistics_kernel(self, corpus, monkeypatch):
        """A decode step takes each of a layer's three norms and the final norm
        from `ad.normalize_kernel`, and self-attention from `ad.attention_kernel`;
        the graph's `layer_norm` takes its statistics from the same kernel."""
        model = build_model(corpus, seed=1, **dict(TINY, layers=2))
        bank = model.encode_concepts(tags_from_records(corpus))
        state = model.initial_state(model.encode_source(("how", "far", "is")), bank)
        calls = []
        for name in ("normalize_kernel", "attention_kernel"):
            kernel = getattr(ad, name)
            monkeypatch.setattr(ad, name, lambda *args, name=name, kernel=kernel:
                                calls.append(name) or kernel(*args))
        model.decode_step(state, bos(model, bank))
        layers = model.config.layers
        assert sorted(calls) == ["attention_kernel"] * layers + \
            ["normalize_kernel"] * (3 * layers + 1)
        calls.clear()
        x = np.random.default_rng(9).standard_normal((2, 3, model.config.width))
        ad.layer_norm(ad.constant(x.astype(model.dtype)), model.params["decoder.0.ln1.gain"],
                      model.params["decoder.0.ln1.bias"])
        assert calls == ["normalize_kernel"]


class TestPadPositions:
    @pytest.mark.parametrize("precision", ["single", "double"])
    def test_loss_and_gradients_ignore_inputs_at_padding(self, corpus, precision):
        """Whatever `PaddedBatch.inputs` holds at a pad position (0, the BOS row,
        a pointer row), a length-mixed batch's loss and every gradient stay bit-equal:
        the causal mask hides the position from those before it, and the loss
        weights it 0."""
        model = build_model(corpus, seed=2, precision=precision, **TINY)
        tags = tags_from_records(corpus)
        by_length = sorted(corpus, key=lambda r: len(r.target))
        batch = model.build_batch([by_length[0], by_length[-1], by_length[6]], tags)
        pad = batch.tgt_mask == 0.0
        assert pad.any()
        params = list(model.parameters().values())
        runs = []
        for fill in (None, 0, model.bos_index(len(tags)), len(tags) + 1):
            filled = batch if fill is None else \
                replace(batch, inputs=np.where(pad, fill, batch.inputs))
            zero_grads(params)
            log_probs = model.teacher_log_probs(filled, model.encode_concepts_tensor(tags))
            picked = ad.mul(ad.take_along_last(log_probs, batch.gold),
                            ad.constant(batch.tgt_mask))
            loss = ad.scale(ad.sum_all(picked), -1.0 / float(batch.tgt_mask.sum()))
            ad.backward(loss)
            runs.append([loss.data.tobytes()] + [p.grad.tobytes() for p in params])
        zero_grads(params)
        assert all(run == runs[0] for run in runs[1:])


class TestBoundViews:
    """`decode_step` reads weight views bound when the model is built; they
    must follow every later write into the arena."""

    @staticmethod
    def step_log_probs(model, corpus):
        """Every teacher-forced decode step of one record, under the model's own bank."""
        bank = model.encode_concepts(tags_from_records(corpus))
        record = corpus[0]
        return np.concatenate(forward_teacher_forced(model, record.utterance,
                                                     record.target, bank))

    def test_follow_an_adam_step(self, tmp_path, corpus):
        model = build_model(corpus, seed=1, **TINY)
        before = self.step_log_probs(model, corpus)
        tags = tags_from_records(corpus)
        ad.backward(batch_nll_tensor(model, corpus[:4], tags,
                                     model.encode_concepts_tensor(tags)))
        ad.adam_step(model.parameters().values(), lr=1e-2)
        model.save(tmp_path / "model.ckpt")
        built = type(model).load(tmp_path / "model.ckpt")
        after = self.step_log_probs(model, corpus)
        assert not np.array_equal(after, before)
        assert after.tobytes() == self.step_log_probs(built, corpus).tobytes()

    def test_follow_a_restore_into_the_value_buffer(self, corpus):
        model = build_model(corpus, seed=1, **TINY)
        other = build_model(corpus, seed=2, **TINY)
        before = self.step_log_probs(model, corpus)
        model.value_buffer()[...] = other.value_buffer()
        after = self.step_log_probs(model, corpus)
        assert not np.array_equal(after, before)
        assert after.tobytes() == self.step_log_probs(other, corpus).tobytes()

    def test_a_state_carries_its_searchs_fixed_products(self, corpus):
        """A state keeps the folded layer norms, cross-attention and output head
        of the weights it was made from; only a fresh `initial_state` sees new ones."""
        model = build_model(corpus, seed=1, **TINY)
        bank = model.encode_concepts(tags_from_records(corpus))
        state = model.initial_state(model.encode_source(("how", "far", "is")), bank)
        expected, _ = model.decode_step(state, bos(model, bank))
        # every folded weight: all of cross-attention's but its output bias, row 3,
        # self-attention's Q, K and V (rows 0-2), every decoder layer norm, the
        # feed-forward's first affine, and the final norm and output head
        folded = [p.data[:3] if name.endswith((".cross.b", ".self.w", ".self.b")) else p.data
                  for name, p in model.parameters().items()
                  if ".cross." in name or ".ln2." in name
                  or name.startswith("decoder.") and name.endswith(
                      (".ln1.gain", ".ln1.bias", ".ln3.gain", ".ln3.bias", ".self.w",
                       ".self.b", ".ff.w1", ".ff.b1"))
                  or name.startswith(("decoder.final_ln.", "head."))]
        rng = np.random.default_rng(7)
        for view in folded:
            view[...] = rng.standard_normal(view.shape)
        got, _ = model.decode_step(state, bos(model, bank))
        assert got.tobytes() == expected.tobytes()
        fresh = model.initial_state(model.encode_source(("how", "far", "is")), bank)
        assert not np.array_equal(model.decode_step(fresh, bos(model, bank))[0], expected)

    def test_decode_step_reads_no_parameter_by_name(self, model, bank, monkeypatch):
        state = model.initial_state(model.encode_source(("how", "far", "is")), bank)
        expected, _ = model.decode_step(state, bos(model, bank))
        monkeypatch.setattr(model, "params", {})
        got, _ = model.decode_step(state, bos(model, bank))
        assert got.tobytes() == expected.tobytes()


class TestNoDecoderLayers:
    def test_decodes_and_teacher_forces(self, corpus):
        """With no layers a state carries no self-attention keys or values;
        teacher forcing, stepping and both searches still agree."""
        model = build_model(corpus, seed=3, precision="double", **dict(TINY, layers=0))
        tags = tags_from_records(corpus)
        bank = model.encode_concepts(tags)
        records = corpus[:3]
        with ad.no_grad():
            log_probs = model.teacher_log_probs(model.build_batch(records, tags),
                                                ad.constant(bank.vectors)).data
        for i, record in enumerate(records):
            state = model.initial_state(model.encode_source(record.utterance.tokens),
                                        bank)
            assert state.cache == ()
            n = len(record.utterance.tokens)
            dists = forward_teacher_forced(model, record.utterance, record.target, bank)
            for t, dist in enumerate(dists):
                np.testing.assert_allclose(log_probs[i, t, :bank.m + n], dist[0],
                                           atol=1e-9)
            found = beam_decode(model, record.utterance, bank, beam_width=4)
            expected = reference_beam_decode(model, record.utterance, bank, 4)
            assert [h.tokens for h in found] == [h.tokens for h in expected]


# each stack's depth and head count, by stack: the three stacks read the shared
# ``layers`` and ``heads``, and every count that a stack reads is checked
STACK_COUNTS = {kind: [f"{side}_{kind}" for side in ("encoder", "decoder", "concept")]
                for kind in ("layers", "heads")}


def shared_field(name):
    """The ModelConfig field that sets ``name``, a field or a stack's count."""
    return name.split("_")[1] if name in sum(STACK_COUNTS.values(), []) else name


class TestModelConfig:
    def test_the_default_layout_is_pinned(self):
        """Every parameter's name and shape in arena order, which fixes the
        seeded draws and the checkpoint layout, for the default config."""
        model = ConceptModel(ModelConfig(), Vocabulary(["a", "b"]), Vocabulary(["c"]))
        layout = json.dumps([[name, list(p.data.shape)]
                             for name, p in model.parameters().items()])
        assert hashlib.sha256(layout.encode("utf-8")).hexdigest() == (
            "dc1352bbac534b0abcbeca97f5b812f4ecd960973a417686c81be5fc163ac7e4")

    @pytest.mark.parametrize("config, seed, digest", [
        ({}, 0, "8d7379f076cc001e214578f7ba4ba2b49c06b7f08d975901f1f5cb2f7e138762"),
        (TINY, 1, "892742a2a219e56c299cb5bf78c0c476250d32721d383106814a45acfe437b53"),
        ({"precision": "double"}, 5,
         "0aceb82f6142517a674142b1eeb41686b04dd93060d7b1db21058e64a298291f"),
    ], ids=["default", "tiny", "double"])
    def test_the_seeded_values_are_pinned(self, config, seed, digest):
        """The values a seed draws, byte for byte, whatever the parameters'
        names and shapes: the arena's order of draws is the initialisation."""
        model = ConceptModel(ModelConfig(**config), Vocabulary(["a", "b"]), Vocabulary(["c"]),
                             seed=seed)
        assert hashlib.sha256(model.value_buffer().tobytes()).hexdigest() == digest

    @pytest.mark.parametrize("name", ["width", "ff_width", "max_source_len",
                                      "max_target_len", *STACK_COUNTS["heads"]])
    @pytest.mark.parametrize("value", [0, -1])
    def test_sizes_below_one_rejected(self, name, value):
        field = shared_field(name)
        with pytest.raises(ValueError, match=f"{field} must be an integer of at least 1"):
            ModelConfig(**dict(TINY, **{field: value}))

    def test_width_must_split_into_the_heads(self):
        with pytest.raises(ValueError, match="width 32 not divisible by head count 3"):
            ModelConfig(**dict(TINY, heads=3))

    @pytest.mark.parametrize("name", STACK_COUNTS["layers"])
    def test_negative_layer_counts_rejected(self, name):
        """The stack's depth is the shared ``layers``: -1 is refused, and 0
        builds the stack with no blocks between its embedding and final norm."""
        side = name.split("_")[0]
        with pytest.raises(ValueError, match="layers must be an integer of at least 0"):
            ModelConfig(**dict(TINY, layers=-1))
        for layers in (0, 1):
            model = ConceptModel(ModelConfig(**dict(TINY, layers=layers)),
                                 Vocabulary(["a"]), Vocabulary(["c"]))
            blocks = {param.split(".")[1] for param in model.parameters()
                      if re.fullmatch(rf"{side}\.\d+\..*", param)}
            assert blocks == {str(i) for i in range(layers)}
            assert f"{side}.final_ln.gain" in model.parameters()

    @pytest.mark.parametrize("name", [f.name for f in fields(ModelConfig)
                                      if f.name not in ("precision", "layers", "heads")]
                             + STACK_COUNTS["layers"] + STACK_COUNTS["heads"])
    @pytest.mark.parametrize("value", [2.5, 64.0, float("nan"), float("inf"), True],
                             ids=["fraction", "whole_float", "nan", "inf", "bool"])
    def test_sizes_and_counts_must_be_integers(self, name, value):
        field = shared_field(name)
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            ModelConfig(**dict(TINY, **{field: value}))

    @pytest.mark.parametrize("value, low", [(True, 0), (1.0, 1), (0, 1), (-1, 0), ("3", 0)],
                             ids=["bool", "float", "below_one", "below_zero", "string"])
    def test_require_count_rejects_all_but_integers_from_the_bound(self, value, low):
        with pytest.raises(ValueError, match=f"n must be an integer of at least {low}"):
            require_count("n", value, low)
        assert require_count("n", low, low) == low
        assert require_count("n", low + 5, low) == low + 5

    @pytest.mark.parametrize("value", [["single"], None, "half"], ids=["list", "none", "half"])
    def test_precision_must_be_single_or_double(self, value):
        with pytest.raises(ValueError, match="precision must be single or double"):
            ModelConfig(**dict(TINY, precision=value))


class TestPersistence:
    def test_checkpoint_roundtrip_preserves_decoding(self, tmp_path, model, bank,
                                                     corpus):
        path = tmp_path / "model.ckpt"
        model.save(path)
        loaded = type(model).load(path)
        record = corpus[0]
        reloaded_bank = loaded.encode_concepts(bank.tags)
        assert reloaded_bank.vectors.tobytes() == bank.vectors.tobytes()
        a = forward_teacher_forced(model, record.utterance, record.target, bank)
        b = forward_teacher_forced(loaded, record.utterance, record.target,
                                   reloaded_bank)
        for x, y in zip(a, b):
            assert x.tobytes() == y.tobytes()

    def test_load_draws_no_initial_values(self, tmp_path, model, monkeypatch):
        path = tmp_path / "model.ckpt"
        model.save(path)
        draws = []
        trunc_normal = ad.trunc_normal
        monkeypatch.setattr(ad, "trunc_normal",
                            lambda *args, **kwargs: draws.append(args)
                            or trunc_normal(*args, **kwargs))
        loaded = type(model).load(path)
        assert len(draws) == 0
        assert loaded.value_buffer().tobytes() == model.value_buffer().tobytes()

    @pytest.mark.parametrize("precision", ["single", "double"])
    def test_roundtrip_is_bit_equal(self, tmp_path, corpus, precision):
        model = build_model(corpus, seed=5, **dict(TINY, precision=precision))
        path = tmp_path / "model.ckpt"
        model.save(path)
        loaded = type(model).load(path)
        assert loaded.value_buffer().dtype == model.value_buffer().dtype
        assert loaded.value_buffer().tobytes() == model.value_buffer().tobytes()
        assert path.stat().st_size == model.value_buffer().nbytes

    @pytest.mark.parametrize("edit, name", [
        ("drop", "head.pointer.w"),
        ("add", "head.extra.w"),
        ("reshape", "decoder.bos"),
    ])
    def test_parameter_set_must_match_exactly(self, tmp_path, model, monkeypatch,
                                              edit, name):
        """A code change to the parameter layout between save and load fails."""
        path = tmp_path / "model.ckpt"
        model.save(path)
        original = ad.arena_parameters

        def changed_layout(shapes, dtype):
            shapes = dict(shapes)
            if edit == "drop":
                del shapes[name]
            elif edit == "add":
                shapes[name] = (2, 3)
            else:  # same size, so only the layout in the digest tells them apart
                shapes[name] = (1, *shapes[name])
            return original(shapes, dtype)

        monkeypatch.setattr(ad, "arena_parameters", changed_layout)
        with pytest.raises(CheckpointMismatchError,
                           match="model.ckpt.*digest.*parameter layout"):
            type(model).load(path)

    def test_flipped_value_byte_names_path(self, tmp_path, model):
        path = tmp_path / "model.ckpt"
        model.save(path)
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0x01  # the sign/exponent byte of the last stored value
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointMismatchError, match="model.ckpt.*sha256"):
            type(model).load(path)

    @pytest.mark.parametrize("precision", ["single", "double"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_value_fails_to_load(self, tmp_path, corpus, precision, bad):
        """A value that the sidecar's hash vouches for must still be finite."""
        model = build_model(corpus, seed=5, **dict(TINY, precision=precision))
        path = tmp_path / "model.ckpt"
        model.save(path)
        values = model.value_buffer().astype(model.value_buffer().dtype.newbyteorder("<"))
        values[model.params["decoder.0.ff.w1"].span.start] = bad
        self.write_with_matching_hash(path, values.tobytes())
        with pytest.raises(CheckpointMismatchError,
                           match="model.ckpt: parameter file holds NaN or Inf"):
            type(model).load(path)

    @pytest.mark.parametrize("precision", ["single", "double"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_model_writes_no_file(self, tmp_path, corpus, precision, bad):
        model = build_model(corpus, seed=5, **dict(TINY, precision=precision))
        model.params["decoder.0.ff.w1"].data[0, 0] = bad
        with pytest.raises(NonFiniteError, match="model.ckpt"):
            model.save(tmp_path / "model.ckpt")
        assert list(tmp_path.iterdir()) == []

    def test_truncated_checkpoint_names_path(self, tmp_path, model):
        path = tmp_path / "model.ckpt"
        model.save(path)
        path.write_bytes(path.read_bytes()[:20])
        with pytest.raises(CheckpointMismatchError, match="model.ckpt"):
            type(model).load(path)

    @staticmethod
    def edit_sidecar(path, edit):
        sidecar_path = path.with_name(path.name + ".json")
        sidecar = json.loads(sidecar_path.read_text(encoding="utf-8"))
        edit(sidecar)
        sidecar_path.write_text(json.dumps(sidecar), encoding="utf-8")

    @classmethod
    def write_with_matching_hash(cls, path, blob):
        """Replace the parameter file and make the sidecar's hash agree with it."""
        path.write_bytes(blob)
        digest = hashlib.sha256(blob).hexdigest()
        cls.edit_sidecar(path, lambda sidecar: sidecar.update(params_sha256=digest))

    @pytest.mark.parametrize("cut", [
        lambda size: 0, lambda size: size - 1, lambda size: size // 2,
    ], ids=["empty", "one_byte_short", "half"])
    @pytest.mark.parametrize("rehash", [False, True],
                             ids=["stale_hash", "matching_hash"])
    def test_cut_parameter_file_names_path(self, tmp_path, model, cut, rehash):
        path = tmp_path / "model.ckpt"
        model.save(path)
        blob = path.read_bytes()
        blob = blob[:cut(len(blob))]
        if rehash:  # a consistent sidecar must still not reach numpy
            self.write_with_matching_hash(path, blob)
            expected = f"model.ckpt: parameter file holds {len(blob)} bytes"
        else:
            path.write_bytes(blob)
            expected = "model.ckpt.*params_sha256"
        with pytest.raises(CheckpointMismatchError, match=expected):
            type(model).load(path)

    @staticmethod
    def forbid_allocation(monkeypatch):
        def allocate(shapes, dtype):
            raise AssertionError("load allocated an arena before checking the file")
        monkeypatch.setattr(ad, "arena_parameters", allocate)

    def test_huge_width_fails_before_allocating(self, tmp_path, model, monkeypatch):
        path = tmp_path / "model.ckpt"
        model.save(path)
        self.edit_sidecar(path, lambda sidecar: sidecar["config"].update(width=1 << 20))
        self.forbid_allocation(monkeypatch)
        with pytest.raises(CheckpointMismatchError,
                           match="model.ckpt: parameter file holds .* bytes, the model's"):
            type(model).load(path)

    def test_many_layers_fail_before_the_layout(self, tmp_path, model):
        """A layer count the file cannot fill fails in bounded memory, before
        `_layout` builds a block per layer."""
        path = tmp_path / "model.ckpt"
        model.save(path)
        self.edit_sidecar(path, lambda sidecar: sidecar["config"].update(layers=10_000))
        tracemalloc.start()
        try:
            with pytest.raises(CheckpointMismatchError,
                               match="model.ckpt: parameter file holds .* bytes, the model's"):
                type(model).load(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * 2**20

    def test_narrow_many_layers_fail_fast(self, tmp_path, model):
        """A config whose blocks are as small as they come, with more layers
        than a file of this size could hold, fails at the closed-form count."""
        path = tmp_path / "model.ckpt"
        model.save(path)
        self.edit_sidecar(path, lambda sidecar: sidecar["config"].update(
            width=1, heads=1, ff_width=1, layers=9_000))
        tracemalloc.start()
        start = time.perf_counter()
        try:
            with pytest.raises(CheckpointMismatchError,
                               match="model.ckpt: parameter file holds .* bytes, the model's"):
                type(model).load(path)
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert elapsed < 0.1 and peak < 5 * 2**20

    @pytest.mark.parametrize("config", [
        {}, TINY, dict(TINY, width=1, heads=1), dict(TINY, heads=32), dict(TINY, layers=0),
    ], ids=["default", "tiny", "width_1", "heads_equal_width", "no_layers"])
    def test_closed_form_size_is_the_layout_size(self, tmp_path, corpus, config):
        """`load` checks the file's size against a count made from the config
        alone; a saved model of every shape must pass it, byte for byte."""
        model = build_model(corpus, seed=1, **config)
        model.save(tmp_path / "model.ckpt")
        loaded = type(model).load(tmp_path / "model.ckpt")
        assert loaded.value_buffer().tobytes() == model.value_buffer().tobytes()

    def test_cut_file_fails_before_allocating(self, tmp_path, model, monkeypatch):
        path = tmp_path / "model.ckpt"
        model.save(path)
        blob = path.read_bytes()[:-4]
        self.write_with_matching_hash(path, blob)
        self.forbid_allocation(monkeypatch)
        with pytest.raises(CheckpointMismatchError,
                           match=f"model.ckpt: parameter file holds {len(blob)} bytes"):
            type(model).load(path)

    @staticmethod
    def double_precision_file(path, model):
        blob = model.value_buffer().astype("<f8").tobytes()
        TestPersistence.write_with_matching_hash(path, blob)

    @pytest.mark.parametrize("corrupt", [double_precision_file],
                             ids=["precision_mismatch"])
    def test_corrupt_parameter_file_names_path(self, tmp_path, model, corrupt):
        """The right values in the wrong precision fail the size check."""
        path = tmp_path / "model.ckpt"
        model.save(path)
        corrupt(path, model)
        with pytest.raises(CheckpointMismatchError,
                           match="model.ckpt: parameter file holds .* bytes"):
            type(model).load(path)

    @pytest.mark.parametrize("edit", [
        lambda sidecar: sidecar["config"].update(dropout=0.1),
        # the default equals the saved value, so only the key check catches it
        lambda sidecar: sidecar["config"].pop("precision"),
    ], ids=["unknown_key", "missing_key"])
    def test_sidecar_config_keys_must_match(self, tmp_path, model, edit):
        path = tmp_path / "model.ckpt"
        model.save(path)
        self.edit_sidecar(path, edit)
        with pytest.raises(CheckpointMismatchError, match="model.ckpt"):
            type(model).load(path)

    def test_per_stack_config_keys_are_refused(self, tmp_path, model):
        """A sidecar written when each stack had its own depth and head count."""
        path = tmp_path / "model.ckpt"
        model.save(path)
        old = [f"{side}_{kind}" for side in ("encoder", "decoder", "concept")
               for kind in ("layers", "heads")]

        def per_stack(sidecar):
            config = sidecar["config"]
            config.update({name: config[name.split("_")[1]] for name in old})
            del config["layers"], config["heads"]
        self.edit_sidecar(path, per_stack)
        with pytest.raises(CheckpointMismatchError, match=re.escape(
                f"unknown keys {sorted(old)} and lacks ['heads', 'layers']")):
            type(model).load(path)

    @pytest.mark.parametrize("edit", [
        lambda sidecar: sidecar.update(digest="0" * 64),
        # a renamed token keeps the layout's size, so only the digest catches it
        lambda sidecar: sidecar["source_vocab"].__setitem__(-1, "renamed_token"),
    ], ids=["tampered_digest", "changed_vocabulary"])
    def test_sidecar_digest_must_match_rebuilt_model(self, tmp_path, model, edit):
        path = tmp_path / "model.ckpt"
        model.save(path)
        self.edit_sidecar(path, edit)
        with pytest.raises(CheckpointMismatchError, match="model.ckpt.*digest"):
            type(model).load(path)

    @pytest.mark.parametrize("edit", [
        lambda text: text.replace('"width": 32', '"width": "32"'),
        lambda text: text.replace('"precision": "single"', '"precision": "half"'),
        lambda text: text[:len(text) // 2],
        lambda text: json.dumps({k: v for k, v in json.loads(text).items()
                                 if k != "config"}),
        lambda text: json.dumps([json.loads(text)]),
        lambda text: text.replace('"heads": 2', '"heads": 0'),
        lambda text: NESTED,
        lambda text: re.sub(r'"source_vocab": \[[^]]*\]', f'"source_vocab": {NESTED}', text),
    ], ids=["wrong_value_type", "unknown_precision", "not_json", "no_config",
            "top_level_array", "zero_heads", "deeply_nested", "deeply_nested_vocab"])
    def test_malformed_sidecar_raises_with_path(self, tmp_path, model, edit):
        path = tmp_path / "model.ckpt"
        model.save(path)
        sidecar_path = path.with_name(path.name + ".json")
        text = sidecar_path.read_text(encoding="utf-8")
        edited = edit(text)
        assert edited != text
        sidecar_path.write_text(edited, encoding="utf-8")
        with pytest.raises(CheckpointMismatchError, match="model.ckpt"):
            type(model).load(path)

    def test_grown_vocabulary_fails_the_size_check(self, tmp_path, model):
        path = tmp_path / "model.ckpt"
        model.save(path)
        self.edit_sidecar(path, lambda sidecar: sidecar["source_vocab"].append("added_token"))
        with pytest.raises(CheckpointMismatchError,
                           match="model.ckpt: parameter file holds .* bytes, the model's"):
            type(model).load(path)

    def test_undecodable_sidecar_raises_with_path(self, tmp_path, model):
        path = tmp_path / "model.ckpt"
        model.save(path)
        sidecar_path = path.with_name(path.name + ".json")
        sidecar_path.write_bytes(b"\xff" + sidecar_path.read_bytes())
        with pytest.raises(CheckpointMismatchError, match="model.ckpt"):
            type(model).load(path)

    def test_missing_sidecar_names_it(self, tmp_path, model):
        path = tmp_path / "model.ckpt"
        model.save(path)
        path.with_name(path.name + ".json").unlink()
        with pytest.raises(CheckpointMismatchError, match=re.escape("model.ckpt.json")):
            type(model).load(path)

    def test_missing_parameter_file_names_it(self, tmp_path, model):
        path = tmp_path / "model.ckpt"
        model.save(path)
        path.unlink()
        with pytest.raises(CheckpointMismatchError, match=re.escape(f"{path}: cannot read")):
            type(model).load(path)

    def test_identity_digest_tracks_vocabulary(self, model, corpus):
        other = build_model(corpus + [record_from_row("nav", "brandnewword",
                                                      "[IN:GET_ETA brandnewword ]")],
                            seed=1, **TINY)
        assert other.identity_digest() != model.identity_digest()
