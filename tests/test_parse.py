"""Annotation reading, target validity, span and naturalization unit tests."""

import re
from collections import Counter

import pytest

from concept_parse.errors import (
    EmptyUtteranceError,
    MalformedAnnotationError,
    MalformedTargetError,
    UnknownTagFormatError,
)
from concept_parse.parse import (
    Pointer,
    check_target,
    make_tag,
    parse_seqlogical,
    target_tags,
    token_strings,
    tokenize_utterance,
)

from helpers import (COMPOSITIONAL_ANNOTATION, COMPOSITIONAL_UTTERANCE, Tree,
                     oracle_annotation, oracle_target, random_roundtrip_corpus,
                     sequence_from_strings, split_tag_token, target_spans,
                     walk_spans_and_labels)

COMPOSITIONAL_TARGET = [
    "[IN:GET_DISTANCE", "@ptr_0", "@ptr_1", "@ptr_2",
    "[SL:DESTINATION", "[IN:GET_RESTAURANT_LOCATION", "@ptr_3",
    "[SL:TYPE_FOOD", "@ptr_4", "SL:TYPE_FOOD]", "@ptr_5",
    "IN:GET_RESTAURANT_LOCATION]", "SL:DESTINATION]", "IN:GET_DISTANCE]",
]
COMPOSITIONAL_SPANS = Counter({
    ("IN:GET_DISTANCE", 0, 5): 1,
    ("SL:DESTINATION", 3, 5): 1,
    ("IN:GET_RESTAURANT_LOCATION", 3, 5): 1,
    ("SL:TYPE_FOOD", 4, 4): 1,
})


def compositional_example():
    utterance = tokenize_utterance(COMPOSITIONAL_UTTERANCE)
    return utterance, parse_seqlogical(COMPOSITIONAL_ANNOTATION, utterance)


class TestTokenize:
    def test_reference_sentence(self):
        assert tokenize_utterance(COMPOSITIONAL_UTTERANCE).tokens == (
            "How", "far", "is", "the", "coffee", "shop")

    def test_single_token(self):
        assert tokenize_utterance("x").tokens == ("x",)

    def test_whitespace_normalization(self):
        assert tokenize_utterance("  a  b ").tokens == ("a", "b")

    def test_empty_rejected(self):
        with pytest.raises(EmptyUtteranceError):
            tokenize_utterance("   ")

    def test_join_reproduces_normalized_raw(self):
        utterance = tokenize_utterance(" a\t b\nc ")
        assert " ".join(utterance.tokens) == " ".join(utterance.raw.split())


class TestSeqlogical:
    @staticmethod
    def full_tokens(seq):
        """Each token with its description, which tag equality leaves out."""
        return [(token, getattr(token, "description", None)) for token in seq]

    def test_compositional_structure(self):
        _, seq = compositional_example()
        food = Tree("SL:TYPE_FOOD", "slot", (4,))
        restaurant = Tree("IN:GET_RESTAURANT_LOCATION", "intent", (3, food, 5))
        tree = Tree("IN:GET_DISTANCE", "intent",
                    (0, 1, 2, Tree("SL:DESTINATION", "slot", (restaurant,))))
        assert self.full_tokens(seq) == self.full_tokens(oracle_target(tree))

    def test_minimal_tree(self):
        utterance = tokenize_utterance("x")
        seq = parse_seqlogical("[IN:A x ]", utterance)
        assert self.full_tokens(seq) == self.full_tokens(
            oracle_target(Tree("IN:A", "intent", (0,))))

    def test_two_level(self):
        utterance = tokenize_utterance("x y")
        seq = parse_seqlogical("[IN:A [SL:B x ] y ]", utterance)
        assert self.full_tokens(seq) == self.full_tokens(
            oracle_target(Tree("IN:A", "intent", (Tree("SL:B", "slot", (0,)), 1))))

    @pytest.mark.parametrize("annotation", [
        "[IN:A x",                  # unclosed
        "[IN:A x ] ]",              # extra close
        "[IN:A y ]",                # word mismatch
        "[IN:A ]",                  # utterance token not covered
        "[SL:B x ]",                # root is not an intent
        "x",                        # no tags at all
        "[IN:A x ] [IN:B x ]",      # two roots
    ])
    def test_malformed(self, annotation):
        with pytest.raises(MalformedAnnotationError):
            parse_seqlogical(annotation, tokenize_utterance("x"))

    @pytest.mark.parametrize("annotation, message", [
        ("", "contains no tags"),
        ("[IN:A x ] [IN:B", "content after root closes"),
        ("[IN:A x ] x", "word 'x' outside any tag"),
        ("[IN:A x x ]", "more words than the utterance"),
        ("[SL:B x", "ends with unclosed tags"),  # the slot root is reported later
    ], ids=["empty", "after_root", "word_after_root", "extra_word", "unclosed_slot_root"])
    def test_malformed_message(self, annotation, message):
        with pytest.raises(MalformedAnnotationError, match=re.escape(message)):
            parse_seqlogical(annotation, tokenize_utterance("x"))

    @pytest.mark.parametrize("annotation, error", [
        ("[A x ]", MalformedAnnotationError),
        ("[IN:A [B x ] ]", MalformedAnnotationError),
        ("[ x ]", UnknownTagFormatError),
        ("[IN: x ]", UnknownTagFormatError),
        ("[SL:B[ x ]", UnknownTagFormatError),
    ])
    def test_tag_opener_must_name_an_intent_or_slot(self, annotation, error):
        with pytest.raises(error):
            parse_seqlogical(annotation, tokenize_utterance("x"))


class TestLinearize:
    """An annotation reads straight into its depth-first target sequence."""

    def test_compositional_target(self):
        _, seq = compositional_example()
        assert token_strings(seq) == COMPOSITIONAL_TARGET

    def test_single_node(self):
        seq = parse_seqlogical("[IN:A x ]", tokenize_utterance("x"))
        assert token_strings(seq) == ["[IN:A", "@ptr_0", "IN:A]"]

    def test_nested_emission(self):
        seq = parse_seqlogical("[IN:A [SL:B x ] y ]", tokenize_utterance("x y"))
        assert token_strings(seq) == ["[IN:A", "[SL:B", "@ptr_0", "SL:B]",
                                      "@ptr_1", "IN:A]"]


class TestDelinearize:
    """`check_target`, the one rule for a valid target sequence."""

    def test_compositional_inverse(self):
        utterance, seq = compositional_example()
        assert check_target(seq, utterance) == COMPOSITIONAL_SPANS

    def test_minimal_inverse(self):
        utterance = tokenize_utterance("x")
        seq = sequence_from_strings(["[IN:A", "@ptr_0", "IN:A]"])
        assert check_target(seq, utterance) == Counter({("IN:A", 0, 0): 1})

    def test_mismatched_close(self):
        utterance = tokenize_utterance("x")
        seq = sequence_from_strings(["[IN:A", "[SL:B", "@ptr_0", "IN:A]"])
        with pytest.raises(MalformedTargetError) as err:
            check_target(seq, utterance)
        assert err.value.position == 3

    def test_unclosed_sequence(self):
        utterance = tokenize_utterance("x")
        seq = sequence_from_strings(["[IN:A", "@ptr_0"])
        with pytest.raises(MalformedTargetError) as err:
            check_target(seq, utterance)
        assert err.value.position == 2

    def test_pointer_out_of_range(self):
        utterance = tokenize_utterance("x")
        seq = sequence_from_strings(["[IN:A", "@ptr_5", "IN:A]"])
        with pytest.raises(MalformedTargetError):
            check_target(seq, utterance)

    def test_top_level_pointer_rejected(self):
        utterance = tokenize_utterance("x y")
        seq = sequence_from_strings(["@ptr_0", "[IN:A", "@ptr_1", "IN:A]"])
        with pytest.raises(MalformedTargetError):
            check_target(seq, utterance)

    @pytest.mark.parametrize("strings, message, position", [
        ([], "sequence contains no tags", 0),
        (["IN:A]"], "end tag 'IN:A' with no open tag", 0),
        (["[IN:A", "@ptr_0", "IN:A]", "[IN:A"], "tokens after the root closes", 3),
        (["[IN:A", "@ptr_1", "IN:A]"], "pointer @ptr_1 out of range for 1 source tokens", 1),
        (["[IN:A", "[SL:B", "IN:A]"], "end tag 'IN:A' does not match open tag 'SL:B'", 2),
    ], ids=["empty", "close_first", "after_root", "out_of_range", "mismatch"])
    def test_message_and_position(self, strings, message, position):
        with pytest.raises(MalformedTargetError, match=re.escape(message)) as err:
            check_target(sequence_from_strings(strings), tokenize_utterance("x"))
        assert err.value.position == position

    @pytest.mark.parametrize("strings, reason", [
        (["[IN:A", "@ptr_0", "IN:A]", "@ptr_0"], "tokens after the root closes"),
        (["[IN:A", "@ptr_3", "IN:A]"], "pointer out of range"),
        (["@ptr_0", "[IN:A", "IN:A]"], "pointer outside any tag"),
        (["SL:B]", "[IN:A", "IN:A]"], "end tag with no open tag"),
        (["[IN:A", "[SL:B", "@ptr_0", "SL:C]", "IN:A]"], "end tag does not match open tag"),
        (["[IN:A", "[SL:B", "@ptr_0", "SL:B]"], "sequence ends with unclosed tags"),
        ([], "sequence contains no tags"),
    ], ids=["after_root", "out_of_range", "outside_tag", "close_first", "mismatch",
            "unclosed", "empty"])
    def test_reason_is_a_fixed_phrase(self, strings, reason):
        with pytest.raises(MalformedTargetError) as err:
            check_target(sequence_from_strings(strings), tokenize_utterance("x"))
        assert err.value.reason == reason
        assert str(err.value).endswith(f"(position {err.value.position})")


class TestNaturalize:
    @pytest.mark.parametrize("token,expected", [
        ("[IN:GET_DISTANCE", "begin get distance intent"),
        ("SL:DESTINATION]", "end destination slot"),
        ("[SL:TYPE_FOOD", "begin type food slot"),
        ("IN:GET_DISTANCE]", "end get distance intent"),
    ])
    def test_rule(self, token, expected):
        assert make_tag(*split_tag_token(token)).description == expected

    def test_open_type_requires_text(self):
        assert make_tag("Q215380", "begin", type_text="musical group") \
            .description == "begin musical group"
        with pytest.raises(UnknownTagFormatError):
            make_tag("Q215380", "begin", type_text=" ")
        with pytest.raises(UnknownTagFormatError):
            make_tag("Q215380", "begin")

    @pytest.mark.parametrize("token", ["IN:A", "@ptr_0", "[", "]", "word"])
    def test_unrecognized_shapes(self, token):
        with pytest.raises(UnknownTagFormatError):
            split_tag_token(token)

    def test_open_type_is_described_by_its_type_text(self):
        # type text makes a tag open-type whatever its name's prefix says
        assert make_tag("SL:FOO", "begin", type_text="city name").description == \
            "begin city name"

    def test_injective_over_tag_set(self):
        names = ["IN:GET_DISTANCE", "IN:GET_ETA", "SL:DESTINATION", "SL:DATE_TIME",
                 "IN:DATE_TIME"]
        descriptions = [
            make_tag(name, boundary).description
            for name in names for boundary in ("begin", "end")
        ]
        assert len(set(descriptions)) == len(descriptions)


class TestSpans:
    def test_compositional_spans(self):
        assert target_spans(sequence_from_strings(COMPOSITIONAL_TARGET)) == \
            COMPOSITIONAL_SPANS

    def test_single_node(self):
        assert target_spans(sequence_from_strings(["[IN:A", "@ptr_0", "IN:A]"])) == Counter({
            ("IN:A", 0, 0): 1})

    def test_two_level(self):
        seq = sequence_from_strings(["[IN:A", "[SL:B", "@ptr_0", "SL:B]", "@ptr_1", "IN:A]"])
        assert target_spans(seq) == Counter({("IN:A", 0, 1): 1, ("SL:B", 0, 0): 1})

    def test_empty_node_sentinel(self):
        seq = sequence_from_strings(["[IN:A", "[SL:B", "SL:B]", "@ptr_0", "IN:A]"])
        assert target_spans(seq) == Counter({("IN:A", 0, 0): 1, ("SL:B", None, None): 1})

    def test_out_of_order_pointers_span_min_to_max(self):
        seq = sequence_from_strings(["[IN:A", "[SL:B", "@ptr_2", "@ptr_0", "SL:B]",
                                     "@ptr_1", "IN:A]"])
        assert target_spans(seq) == Counter({("IN:A", 0, 2): 1, ("SL:B", 0, 2): 1})

    def test_repeated_spans_count_once_per_pair(self):
        nested = sequence_from_strings(["[IN:A", "[IN:A", "@ptr_0", "IN:A]", "IN:A]"])
        assert target_spans(nested) == Counter({("IN:A", 0, 0): 2})
        empty_twice = sequence_from_strings(["[IN:A", "[SL:B", "SL:B]", "[SL:B", "SL:B]",
                                             "@ptr_0", "IN:A]"])
        assert target_spans(empty_twice).total() == 3

    def test_random_corpus_matches_tree_walk(self):
        for utterance, tree in random_roundtrip_corpus(count=500, seed=3):
            seq = oracle_target(tree)
            spans, labels = walk_spans_and_labels(tree)
            assert check_target(seq, utterance) == spans
            # a tag's kind is the last word of its description
            assert {(t.name, t.description.split()[-1]) for t in target_tags(seq)} == labels
            assert parse_seqlogical(oracle_annotation(tree, utterance), utterance) == seq

    def test_target_tags_in_first_occurrence_order(self):
        seq = sequence_from_strings(["[IN:A", "[SL:B", "@ptr_0", "SL:B]", "[SL:B",
                                     "@ptr_1", "SL:B]", "IN:A]"])
        assert [t.token_string for t in target_tags(seq)] == [
            "[IN:A", "[SL:B", "SL:B]", "IN:A]"]


class TestRoundTrip:
    def test_random_corpus_both_directions(self):
        for utterance, tree in random_roundtrip_corpus(count=200, seed=7):
            seq = parse_seqlogical(oracle_annotation(tree, utterance), utterance)
            assert seq == oracle_target(tree)
            assert check_target(seq, utterance) == walk_spans_and_labels(tree)[0]

    def test_pointer_completeness_on_corpus(self):
        # full-coverage corpora mention each source position exactly once
        for utterance, tree in random_roundtrip_corpus(count=50, seed=3):
            seq = parse_seqlogical(oracle_annotation(tree, utterance), utterance)
            pointers = [t.index for t in seq if isinstance(t, Pointer)]
            assert pointers == list(range(len(utterance.tokens)))

    def test_token_identity_ignores_description(self):
        a = make_tag("Q1", "begin", type_text="musical group")
        b = make_tag("Q1", "begin", type_text="different words")
        assert a == b and hash(a) == hash(b)
        assert (a,) == (b,)
