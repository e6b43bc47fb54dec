"""Linearization, delinearization, and naturalization unit tests."""

import re

import pytest

from concept_parse.errors import (
    EmptyUtteranceError,
    MalformedAnnotationError,
    MalformedTargetError,
    PointerRangeError,
    UnknownTagFormatError,
)
from concept_parse.parse import (
    Concept,
    ParseTree,
    Pointer,
    TargetSequence,
    delinearize,
    labeled_spans,
    linearize,
    make_tag,
    parse_seqlogical,
    split_tag_token,
    target_tags,
    to_seqlogical,
    tokenize_utterance,
)

from helpers import (COMPOSITIONAL_ANNOTATION, COMPOSITIONAL_UTTERANCE,
                     random_roundtrip_corpus, sequence_from_strings, walk_spans_and_labels)

COMPOSITIONAL_TARGET = [
    "[IN:GET_DISTANCE", "@ptr_0", "@ptr_1", "@ptr_2",
    "[SL:DESTINATION", "[IN:GET_RESTAURANT_LOCATION", "@ptr_3",
    "[SL:TYPE_FOOD", "@ptr_4", "SL:TYPE_FOOD]", "@ptr_5",
    "IN:GET_RESTAURANT_LOCATION]", "SL:DESTINATION]", "IN:GET_DISTANCE]",
]


def compositional_example():
    utterance = tokenize_utterance(COMPOSITIONAL_UTTERANCE)
    tree = parse_seqlogical(COMPOSITIONAL_ANNOTATION, utterance)
    return utterance, tree


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
    def test_compositional_structure(self):
        _, tree = compositional_example()
        assert tree.name == "IN:GET_DISTANCE"
        destination = tree.children[3]
        assert isinstance(destination, ParseTree)
        assert destination.name == "SL:DESTINATION"
        nested = destination.children[0]
        assert nested.name == "IN:GET_RESTAURANT_LOCATION"
        assert nested.children[1].name == "SL:TYPE_FOOD"
        assert nested.children[1].children == (4,)

    def test_minimal_tree(self):
        utterance = tokenize_utterance("x")
        tree = parse_seqlogical("[IN:A x ]", utterance)
        assert tree == ParseTree("IN:A", "intent", (0,))

    def test_two_level(self):
        utterance = tokenize_utterance("x y")
        tree = parse_seqlogical("[IN:A [SL:B x ] y ]", utterance)
        assert tree == ParseTree(
            "IN:A", "intent", (ParseTree("SL:B", "slot", (0,)), 1))

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

    def test_serializer_inverse(self):
        utterance, tree = compositional_example()
        assert parse_seqlogical(to_seqlogical(tree, utterance), utterance) == tree

    def test_serializer_rejects_unprefixed_name(self):
        # written through linearize, so a name must carry its kind's prefix
        with pytest.raises(UnknownTagFormatError):
            to_seqlogical(ParseTree("A", "intent", (0,)), tokenize_utterance("x"))


class TestLinearize:
    def test_compositional_target(self):
        utterance, tree = compositional_example()
        assert linearize(tree, utterance).token_strings() == COMPOSITIONAL_TARGET

    def test_single_node(self):
        utterance = tokenize_utterance("x")
        seq = linearize(ParseTree("IN:A", "intent", (0,)), utterance)
        assert seq.token_strings() == ["[IN:A", "@ptr_0", "IN:A]"]

    def test_nested_emission(self):
        utterance = tokenize_utterance("x y")
        tree = ParseTree("IN:A", "intent", (ParseTree("SL:B", "slot", (0,)), 1))
        seq = linearize(tree, utterance)
        assert seq.token_strings() == ["[IN:A", "[SL:B", "@ptr_0", "SL:B]",
                                       "@ptr_1", "IN:A]"]

    def test_out_of_range_leaf(self):
        utterance = tokenize_utterance("x")
        with pytest.raises(PointerRangeError):
            linearize(ParseTree("IN:A", "intent", (3,)), utterance)


class TestDelinearize:
    def test_compositional_inverse(self):
        utterance, tree = compositional_example()
        assert delinearize(linearize(tree, utterance), utterance) == tree

    def test_minimal_inverse(self):
        utterance = tokenize_utterance("x")
        seq = sequence_from_strings(["[IN:A", "@ptr_0", "IN:A]"])
        assert delinearize(seq, utterance) == ParseTree("IN:A", "intent", (0,))

    def test_mismatched_close(self):
        utterance = tokenize_utterance("x")
        seq = sequence_from_strings(["[IN:A", "[SL:B", "@ptr_0", "IN:A]"])
        with pytest.raises(MalformedTargetError) as err:
            delinearize(seq, utterance)
        assert err.value.position == 3

    def test_unclosed_sequence(self):
        utterance = tokenize_utterance("x")
        seq = sequence_from_strings(["[IN:A", "@ptr_0"])
        with pytest.raises(MalformedTargetError) as err:
            delinearize(seq, utterance)
        assert err.value.position == 2

    def test_pointer_out_of_range(self):
        utterance = tokenize_utterance("x")
        seq = sequence_from_strings(["[IN:A", "@ptr_5", "IN:A]"])
        with pytest.raises(MalformedTargetError):
            delinearize(seq, utterance)

    def test_top_level_pointer_rejected(self):
        utterance = tokenize_utterance("x y")
        seq = sequence_from_strings(["@ptr_0", "[IN:A", "@ptr_1", "IN:A]"])
        with pytest.raises(MalformedTargetError):
            delinearize(seq, utterance)


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
        assert make_tag("Q215380", "open-type", "begin", type_text="musical group") \
            .description == "begin musical group"
        with pytest.raises(UnknownTagFormatError):
            make_tag("Q215380", "open-type", "begin", type_text=" ")

    @pytest.mark.parametrize("token", ["IN:A", "@ptr_0", "[", "]", "[IN:", "word"])
    def test_unrecognized_shapes(self, token):
        with pytest.raises(UnknownTagFormatError):
            split_tag_token(token)

    def test_open_type_is_described_by_its_type_text(self):
        tag = make_tag("SL:FOO", "open-type", "begin", type_text="city name")
        assert (tag.kind, tag.description) == ("open-type", "begin city name")

    @pytest.mark.parametrize("name,kind", [
        ("IN:GET_X", "slot"), ("SL:FOO", "intent"), ("FOO", "intent"), ("FOO", "slot"),
    ])
    def test_kind_must_match_the_name_prefix(self, name, kind):
        with pytest.raises(UnknownTagFormatError, match=re.escape(name)):
            make_tag(name, kind, "end")

    def test_injective_over_tag_set(self):
        names = [("IN:GET_DISTANCE", "intent"), ("IN:GET_ETA", "intent"),
                 ("SL:DESTINATION", "slot"), ("SL:DATE_TIME", "slot"),
                 ("IN:DATE_TIME", "intent")]
        descriptions = [
            make_tag(name, kind, boundary).description
            for name, kind in names for boundary in ("begin", "end")
        ]
        assert len(set(descriptions)) == len(descriptions)


class TestSpans:
    def test_compositional_spans(self):
        assert labeled_spans(sequence_from_strings(COMPOSITIONAL_TARGET)) == {
            ("IN:GET_DISTANCE", 0, 5),
            ("SL:DESTINATION", 3, 5),
            ("IN:GET_RESTAURANT_LOCATION", 3, 5),
            ("SL:TYPE_FOOD", 4, 4),
        }

    def test_single_node(self):
        assert labeled_spans(sequence_from_strings(["[IN:A", "@ptr_0", "IN:A]"])) == {
            ("IN:A", 0, 0)}

    def test_two_level(self):
        seq = sequence_from_strings(["[IN:A", "[SL:B", "@ptr_0", "SL:B]", "@ptr_1", "IN:A]"])
        assert labeled_spans(seq) == {("IN:A", 0, 1), ("SL:B", 0, 0)}

    def test_empty_node_sentinel(self):
        seq = sequence_from_strings(["[IN:A", "[SL:B", "SL:B]", "@ptr_0", "IN:A]"])
        assert labeled_spans(seq) == {("IN:A", 0, 0), ("SL:B", None, None)}

    def test_random_corpus_matches_tree_walk(self):
        for utterance, tree in random_roundtrip_corpus(count=500, seed=3):
            seq = linearize(tree, utterance)
            spans, labels = walk_spans_and_labels(tree)
            assert labeled_spans(seq) == spans
            assert {(t.name, t.kind) for t in target_tags(seq)} == labels
            assert parse_seqlogical(to_seqlogical(tree, utterance), utterance) == tree

    def test_target_tags_in_first_occurrence_order(self):
        seq = sequence_from_strings(["[IN:A", "[SL:B", "@ptr_0", "SL:B]", "[SL:B",
                                     "@ptr_1", "SL:B]", "IN:A]"])
        assert [t.token_string for t in target_tags(seq)] == [
            "[IN:A", "[SL:B", "SL:B]", "IN:A]"]


class TestRoundTrip:
    def test_random_corpus_both_directions(self):
        for utterance, tree in random_roundtrip_corpus(count=200, seed=7):
            seq = linearize(tree, utterance)
            assert delinearize(seq, utterance) == tree
            assert linearize(delinearize(seq, utterance), utterance) == seq

    def test_pointer_completeness_on_corpus(self):
        # full-coverage corpora mention each source position exactly once
        for utterance, tree in random_roundtrip_corpus(count=50, seed=3):
            seq = linearize(tree, utterance)
            pointers = [t.index for t in seq.tokens if isinstance(t, Pointer)]
            assert sorted(pointers) == list(range(len(utterance.tokens)))

    def test_token_identity_ignores_description(self):
        a = Concept(make_tag("Q1", "open-type", "begin", type_text="musical group"))
        b = Concept(make_tag("Q1", "open-type", "begin", type_text="different words"))
        assert a == b and hash(a) == hash(b)
        assert TargetSequence((a,)) == TargetSequence((b,))
