"""Loader, split, and sampler tests."""

import gzip
import hashlib
import json
import re
from collections import Counter

import numpy as np
import pytest

from concept_parse.data import (
    build_leave_one_out,
    carve_test_split,
    corpus_fingerprint,
    load_corpus,
    load_topv2_tsv,
    load_wikiwiki_jsonl,
    record_fingerprint,
    record_from_row,
    sample_spi,
    tags_from_records,
)
from concept_parse.errors import (
    DataError,
    DomainNotFoundError,
    NeedTwoDomainsError,
)
from concept_parse.parse import (Pointer, check_target, parse_seqlogical, target_tags,
                                 token_strings)
from concept_parse.synthetic import transfer_pair_rows

from helpers import (
    COMPOSITIONAL_ANNOTATION,
    COMPOSITIONAL_UTTERANCE,
    load_wiki,
    two_domain_rows,
    wiki_payloads,
    write_topv2_tsv,
)

HEADER = "domain\tutterance\tsemantic_parse\n"


def label_names(record):
    """The distinct tag names of a record's target."""
    return {tag.name for tag in target_tags(record.target)}


def annotation_spans(annotation):
    """Labeled spans of a full-coverage seqlogical annotation, read off its words
    and brackets: a label spans the words between its opener and its ``]``."""
    spans, opened, words = Counter(), [], 0
    for item in annotation.split():
        if item.startswith("["):
            opened.append((item[1:], words))
        elif item == "]":
            name, start = opened.pop()
            spans[(name, start, words - 1) if words > start else (name, None, None)] += 1
        else:
            words += 1
    return spans


class TestTsvLoader:
    def test_reference_row(self, tmp_path):
        path = write_topv2_tsv(tmp_path / "c.tsv", [
            ("navigation", COMPOSITIONAL_UTTERANCE, COMPOSITIONAL_ANNOTATION)])
        records, report = load_topv2_tsv(path)
        assert report.loaded == 1 and report.skipped == 0
        record = records[0]
        assert record.domain == "navigation"
        assert record.target == parse_seqlogical(COMPOSITIONAL_ANNOTATION, record.utterance)
        assert token_strings(record.target)[0] == "[IN:GET_DISTANCE"

    def test_empty_file_with_header(self, tmp_path):
        path = tmp_path / "empty.tsv"
        path.write_text(HEADER)
        records, report = load_topv2_tsv(path)
        assert records == [] and report.loaded == report.skipped == 0

    def test_empty_file_raises(self, tmp_path):
        path = tmp_path / "empty.tsv"
        path.write_text("")
        with pytest.raises(DataError, match="empty file, expected a TSV header"):
            load_topv2_tsv(path)

    def test_malformed_row_skipped(self, tmp_path):
        path = write_topv2_tsv(tmp_path / "bad.tsv", [
            ("d", "x", "[IN:A x ]"),
            ("d", "x", "[IN:A x"),  # unbalanced
        ])
        records, report = load_topv2_tsv(path)
        assert len(records) == 1
        assert report.skipped == 1

    def test_row_over_the_csv_field_limit_skipped(self, tmp_path):
        long = " ".join(["x"] * 100_000)  # 199,999 characters
        path = tmp_path / "long.tsv"
        path.write_text(HEADER + f"d\t{long}\t[IN:A {long} ]\n" + "d\ty\t[IN:A y ]\n")
        records, report = load_topv2_tsv(path)
        assert [r.utterance.raw for r in records] == ["y"]
        assert report.skipped == 1 and report.loaded == 1
        assert report.messages[0].startswith("line 2: field larger than field limit")

    def test_header_over_the_csv_field_limit_raises(self, tmp_path):
        path = tmp_path / "long.tsv"
        path.write_text("x" * 200_000 + "\t" + HEADER)
        with pytest.raises(DataError, match="unreadable TSV header"):
            load_topv2_tsv(path)

    def test_gzip(self, tmp_path):
        path = tmp_path / "c.tsv.gz"
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            handle.write(HEADER)
            handle.write("d\tx\t[IN:A x ]\n")
        records, _ = load_topv2_tsv(path)
        assert len(records) == 1

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            load_topv2_tsv(tmp_path / "nope.tsv")

    def test_missing_column(self, tmp_path):
        path = tmp_path / "cols.tsv"
        path.write_text("domain\ttext\n")
        with pytest.raises(DataError):
            load_topv2_tsv(path)

    def test_every_record_satisfies_target_invariant(self, tmp_path):
        rows = two_domain_rows(20, seed=1)
        records, _ = load_topv2_tsv(write_topv2_tsv(tmp_path / "two.tsv", rows))
        assert len(records) == 40
        for record, (_, _, annotation) in zip(records, rows):
            assert check_target(record.target, record.utterance) == annotation_spans(annotation)


class TestTransferPairRows:
    @pytest.mark.parametrize("per_domain, sha256", [
        (120, "0ecd5691f7c8dc3ac435a6af71f62fcd6313478913666f0decf80a49999cf826"),
        (480, "1faf48cfbcbd398aa63bfff5300da3265fbb4c82dbf5ea5a29b848f596193ce8"),
    ], ids=["per_domain_120", "per_domain_480"])
    def test_benchmark_corpus_is_pinned(self, per_domain, sha256):
        # the train and decode benchmark workloads read these rows
        rows = transfer_pair_rows(per_domain, seed=0)
        assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == sha256
        assert [record_from_row(*row).domain for row in rows] == [row[0] for row in rows]

    @pytest.mark.parametrize("per_domain, digest", [
        (120, "4e9c8a5d32b7359443e3f6ae61fe6a50d92d6ff45057721d97412d32b91370aa"),
        (480, "528c8d0784daab3c1dbf8348a4469b69845a78be93434c964243e65386c1151c"),
    ], ids=["per_domain_120", "per_domain_480"])
    def test_benchmark_records_and_tags_are_pinned(self, per_domain, digest):
        # the workloads' seed-1 records: every canonical field and token
        # string, and every tag description the concept encoder reads
        records = [record_from_row(*row) for row in transfer_pair_rows(per_domain, seed=1)]
        assert corpus_fingerprint(records) == {"count": 2 * per_domain, "digest": digest}
        words = {"IN:GET_DISTANCE": "get distance intent", "IN:GET_TIME": "get time intent",
                 "IN:SHOW_DISTANCE": "show distance intent", "IN:SHOW_TIME": "show time intent",
                 "SL:CLOCK_PLACE": "clock place slot", "SL:CLOCK_ZONE": "clock zone slot",
                 "SL:NEAR_PLACE": "near place slot", "SL:NEAR_ZONE": "near zone slot"}
        assert [(t.name, t.boundary, t.description) for t in tags_from_records(records)] == [
            (name, boundary, f"{boundary} {text}")
            for name, text in words.items() for boundary in ("begin", "end")]


def garbled_gzip(data):
    """A gzip stream with an intact header and a corrupt deflate body."""
    stream = bytearray(gzip.compress(data))
    stream[10:-8] = bytes(byte ^ 0x5A for byte in stream[10:-8])
    return bytes(stream)


@pytest.mark.parametrize("name,content", [
    ("corpus.txt", lambda text: text.encode("utf-8") + b"\xff\n"),
    ("corpus.gz", lambda text: b"not a gzip stream"),
    ("corpus.gz", lambda text: gzip.compress(text.encode("utf-8"))[:-12]),
    ("corpus.gz", lambda text: garbled_gzip(text.encode("utf-8"))),
], ids=["not_utf8", "not_gzip", "cut_gzip", "garbled_gzip"])
@pytest.mark.parametrize("loader,text", [
    (load_topv2_tsv, HEADER + "d\tx\t[IN:A x ]\n"),
    (load_wikiwiki_jsonl, '{"context": "ok", "mentions": []}\n'),
], ids=["tsv", "jsonl"])
def test_undecodable_file_raises_data_error(tmp_path, loader, text, name, content):
    path = tmp_path / name
    path.write_bytes(content(text))
    with pytest.raises(DataError, match=re.escape(str(path))):
        loader(path)


class TestLeaveOneOut:
    def make_records(self, domains, per_domain=10):
        rows = []
        for domain in domains:
            for i in range(per_domain):
                rows.append(record_from_row(domain, f"w{i}", f"[IN:A_{domain.upper()} w{i} ]"))
        return rows

    def test_eight_domains(self):
        domains = [f"d{i}" for i in range(8)]
        records = self.make_records(domains)
        split = build_leave_one_out(records, [], "d3")
        known_domains = {r.domain for r in split.known_train} | \
            {r.domain for r in split.known_valid}
        assert known_domains == set(domains) - {"d3"}
        assert all(r.domain == "d3" for r in split.heldout_train)

    def test_two_domains(self):
        records = self.make_records(["a", "b"])
        split = build_leave_one_out(records, [], "a")
        assert {r.domain for r in split.known_train} == {"b"}

    def test_unknown_domain(self):
        with pytest.raises(DomainNotFoundError):
            build_leave_one_out(self.make_records(["a"]), [], "zzz")

    def test_single_domain_corpus_rejected(self):
        with pytest.raises(NeedTwoDomainsError, match="'a'"):
            build_leave_one_out(self.make_records(["a"]), [], "a")

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), "0.1", True, 2.0, -0.5],
                             ids=["nan", "inf", "string", "bool", "above_1", "negative"])
    def test_fractions_must_be_finite_numbers_in_0_1(self, value):
        records = self.make_records(["a", "b"])
        with pytest.raises(ValueError, match="^" + re.escape(
                f"valid_fraction must be a finite number in [0, 1], got {value!r}")):
            build_leave_one_out(records, [], "a", valid_fraction=value)

    def test_partition_is_disjoint_and_complete(self):
        records = self.make_records(["a", "b", "c"], per_domain=20)
        test_records = self.make_records(["a", "b", "c"], per_domain=5)
        split = build_leave_one_out(records, test_records, "b")
        known = list(split.known_train) + list(split.known_valid)
        assert len(known) + len(split.heldout_train) == len(records)
        assert not set(map(record_fingerprint, known)) & \
            set(map(record_fingerprint, split.heldout_train))
        assert len(split.known_valid) > 0
        assert all(r.domain == "b" for r in split.heldout_test)

    def test_a_small_domain_holds_back_one_record(self):
        # round(0.05 * 5) is 0, but a domain of more than one record holds back one
        records = self.make_records(["a", "b"], per_domain=5)
        split = build_leave_one_out(records, [], "a", valid_fraction=0.05)
        assert len(split.known_valid) == 1 and len(split.known_train) == 4

    def test_seed_determinism(self):
        records = self.make_records(["a", "b", "c"], per_domain=20)
        one = build_leave_one_out(records, [], "a", seed=5)
        two = build_leave_one_out(records, [], "a", seed=5)
        assert one == two


class TestSampleSpi:
    def test_single_label_takes_one(self):
        records = [record_from_row("d", f"w{i}", f"[IN:A w{i} ]") for i in range(10)]
        assert len(sample_spi(records, k=1, seed=0)) == 1

    def test_disjoint_label_counts(self):
        records = [record_from_row("d", f"a{i}", f"[IN:A a{i} ]") for i in range(5)]
        records += [record_from_row("d", f"b{i}", f"[IN:B b{i} ]") for i in range(3)]
        kept = sample_spi(records, k=5, seed=1)
        by_label = {"IN:A": 0, "IN:B": 0}
        for record in kept:
            by_label[record.target[0].name] += 1
        assert by_label == {"IN:A": 5, "IN:B": 3}

    def test_determinism(self):
        records = [record_from_row("d", f"w{i} y", f"[IN:A w{i} [SL:S y ] ]")
                   for i in range(30)]
        one = sample_spi(records, k=2, seed=9)
        two = sample_spi(records, k=2, seed=9)
        assert one == two

    def test_coverage_bound_random_domains(self):
        rng = np.random.default_rng(0)
        labels = [f"IN:L{i}" for i in range(6)]
        for trial in range(20):
            records = []
            for i in range(int(rng.integers(5, 60))):
                name = labels[int(rng.integers(0, len(labels)))]
                records.append(record_from_row("d", f"w{i}", f"[{name} w{i} ]"))
            for k in (1, 5, 25):
                kept = sample_spi(records, k=k, seed=trial)
                for label in labels:
                    frequency = sum(1 for r in records if label in label_names(r))
                    cover = sum(1 for r in kept if label in label_names(r))
                    assert cover >= min(k, frequency)

    def test_multi_label_records_cover_every_label(self):
        """A record is kept while any of its labels is below k, so a slot whose
        records all share the intent with kept ones still reaches min(k, frequency)."""
        records = [record_from_row("d", f"w{i}", f"[IN:A [SL:S{i % 3} w{i} ] ]")
                   for i in range(9)]
        labels = {"IN:A", "SL:S0", "SL:S1", "SL:S2"}
        for seed in range(4):
            for k in (1, 2, 4):
                kept = sample_spi(records, k=k, seed=seed)
                for label in labels:
                    frequency = sum(label in label_names(r) for r in records)
                    assert sum(label in label_names(r) for r in kept) >= min(k, frequency)

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            sample_spi([], k=0, seed=0)

    @pytest.mark.parametrize("name, value", [
        ("k", 2.5), ("k", True), ("seed", -1), ("seed", 1.5), ("seed", True),
    ])
    def test_fields_must_be_integers_in_range(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            sample_spi([], **{"k": 1, "seed": 0, name: value})


class TestTagsFromRecords:
    def test_tags_sort_by_name_then_boundary(self):
        # the first target names SL:A's tags between IN:B's; each tag comes once
        records = [record_from_row("d", "x y", "[IN:B [SL:A x ] y ]"),
                   record_from_row("d", "y", "[IN:B y ]")]
        assert [t.token_string for t in tags_from_records(records)] == [
            "[IN:B", "IN:B]", "[SL:A", "SL:A]"]


class TestWikiLoader:
    def test_single_mention(self, tmp_path):
        records, report = load_wiki(tmp_path, [{
            "context": "He is a member of The Soul Seekers",
            "mentions": [{"start": 18, "end": 34,
                          "entity": "Q215380", "type": "musical group"}],
        }])
        assert len(records) == 1 and report.loaded == 1
        assert [t.description for t in target_tags(records[0].target)] == \
            ["begin musical group", "end musical group"]

    def test_zero_mentions(self, tmp_path):
        records, _ = load_wiki(tmp_path, [{"context": "nothing here", "mentions": []}])
        assert target_tags(records[0].target) == ()

    def test_overlap_keeps_longest(self, tmp_path):
        records, report = load_wiki(tmp_path, [{
            "context": "the coffee shop is open",
            "mentions": [
                {"start": 0, "end": 15, "entity": "LONG", "type": "famous place"},
                {"start": 4, "end": 10, "entity": "SHORT", "type": "food kind"},
            ],
        }])
        assert token_strings(records[0].target) == [
            "[LONG", "@ptr_0", "@ptr_1", "@ptr_2", "LONG]", "@ptr_3", "@ptr_4"]
        assert report.dropped_mentions == 1

    def test_sentence_split_drops_crossing_mentions(self, tmp_path):
        records, report = load_wiki(tmp_path, [{
            "context": "we like coffee. the mall is open.",
            "mentions": [
                {"start": 8, "end": 15, "entity": "FOOD", "type": "food kind"},
                # crosses the sentence boundary
                {"start": 8, "end": 24, "entity": "BAD", "type": "x"},
            ],
        }])
        assert [r.utterance.raw for r in records] == ["we like coffee.", "the mall is open."]
        assert {t.name for t in target_tags(records[0].target)} == {"FOOD"}
        assert target_tags(records[1].target) == ()
        assert report.dropped_mentions == 1

    @pytest.mark.parametrize("context,start,end", [
        ("just words here", 50, 60),     # outside the context
        ("a b. c d. e f.", 2, 12),       # crosses three sentences
        ("we like coffee.", 3, 3),       # empty
    ], ids=["outside", "three_sentences", "empty"])
    def test_each_dropped_mention_counts_once(self, tmp_path, context, start, end):
        records, report = load_wiki(tmp_path, [{
            "context": context,
            "mentions": [{"start": start, "end": end, "entity": "X", "type": "x"}],
        }])
        assert all(target_tags(r.target) == () for r in records)
        assert report.dropped_mentions == 1

    def test_malformed_line_counted(self, tmp_path):
        path = tmp_path / "w.jsonl"
        path.write_text('{"context": "ok", "mentions": []}\nnot json\n')
        records, report = load_wikiwiki_jsonl(path)
        assert len(records) == 1 and report.skipped == 1

    def test_blank_lines_skipped_without_a_note(self, tmp_path):
        path = tmp_path / "w.jsonl"
        path.write_text('\n{"context": "ok", "mentions": []}\n  \n\n')
        records, report = load_wikiwiki_jsonl(path)
        assert len(records) == 1 and report.loaded == 1
        assert report.skipped == 0 and report.messages == []

    def test_infinite_offset_counted(self, tmp_path):
        path = tmp_path / "w.jsonl"
        path.write_text('{"context": "a b", "mentions": [{"start": 1e400, "end": 3, '
                        '"entity": "X", "type": "x"}]}\n'
                        '{"context": "ok", "mentions": []}\n')
        records, report = load_wikiwiki_jsonl(path)
        assert [r.utterance.raw for r in records] == ["ok"]
        assert report.skipped == 1 and report.loaded == 1
        assert report.messages[0].startswith(
            "line 1: mention start must be an integer of at least 0, got inf")

    @pytest.mark.parametrize("start, end", [(8.9, 14.2), (False, True), ("3", "7"), (-1, 2)],
                             ids=["float", "bool", "string", "negative"])
    def test_offsets_must_be_json_integers_of_at_least_0(self, tmp_path, start, end):
        records, report = load_wiki(tmp_path, [
            {"context": "we like coffee",
             "mentions": [{"start": start, "end": end, "entity": "X", "type": "x"}]},
            {"context": "ok", "mentions": []}])
        assert [r.utterance.raw for r in records] == ["ok"]
        assert report.skipped == 1 and report.loaded == 1
        assert "must be an integer of at least 0" in report.messages[0]

    @pytest.mark.parametrize("field, value", [
        ("entity", None), ("entity", True), ("entity", 7),
        ("type", None), ("type", 3.5), ("type", ["x"]),
    ], ids=["entity_null", "entity_bool", "entity_int", "type_null", "type_float",
            "type_list"])
    def test_entity_and_type_must_be_json_strings(self, tmp_path, field, value):
        mention = {"start": 8, "end": 14, "entity": "X", "type": "x", field: value}
        records, report = load_wiki(tmp_path, [
            {"context": "we like coffee", "mentions": [mention]},
            {"context": "ok", "mentions": []}])
        assert [r.utterance.raw for r in records] == ["ok"]
        assert report.skipped == 1 and report.loaded == 1
        assert report.messages[0].startswith(f"line 1: mention {field} is ")

    def test_deeply_nested_mentions_counted(self, tmp_path):
        path = tmp_path / "w.jsonl"
        path.write_text('{"context": "a b", "mentions": ' + "[" * 200_000 + "]" * 200_000
                        + '}\n{"context": "ok", "mentions": []}\n')
        records, report = load_wikiwiki_jsonl(path)
        assert [r.utterance.raw for r in records] == ["ok"]
        assert report.skipped == 1 and report.loaded == 1
        assert report.messages[0].startswith("line 1: maximum recursion depth")

    @pytest.mark.parametrize("context", ["5", "null", '["a b"]'],
                             ids=["number", "null", "list"])
    def test_non_string_context_counted(self, tmp_path, context):
        path = tmp_path / "w.jsonl"
        path.write_text(f'{{"context": {context}, "mentions": []}}\n'
                        '{"context": "ok", "mentions": []}\n')
        records, report = load_wikiwiki_jsonl(path)
        assert [r.utterance.raw for r in records] == ["ok"]
        assert report.skipped == 1 and report.loaded == 1
        assert "line 1" in report.messages[0]


class TestWikiToParse:
    def test_reference_conversion(self, tmp_path):
        (record,), _ = load_wiki(tmp_path, [{
            "context": "He is a member of The Soul Seekers",
            "mentions": [{"start": 18, "end": 34,
                          "entity": "Q215380", "type": "musical group"}],
        }])
        assert record.utterance.tokens == ("He", "is", "a", "member", "of",
                                           "The", "Soul", "Seekers")
        assert token_strings(record.target) == [
            "@ptr_0", "@ptr_1", "@ptr_2", "@ptr_3", "@ptr_4",
            "[Q215380", "@ptr_5", "@ptr_6", "@ptr_7", "Q215380]"]
        assert {t.description for t in target_tags(record.target)} == {
            "begin musical group", "end musical group"}

    def test_no_mentions_all_pointers(self, tmp_path):
        (record,), _ = load_wiki(tmp_path, [{"context": "just words here", "mentions": []}])
        assert token_strings(record.target) == ["@ptr_0", "@ptr_1", "@ptr_2"]
        assert target_tags(record.target) == ()

    def test_two_disjoint_mentions(self, tmp_path):
        (record,), _ = load_wiki(tmp_path, [{
            "context": "coffee near boston",
            "mentions": [{"start": 0, "end": 6, "entity": "FOOD", "type": "food kind"},
                         {"start": 12, "end": 18, "entity": "CITY", "type": "city name"}],
        }])
        assert token_strings(record.target) == [
            "[FOOD", "@ptr_0", "FOOD]", "@ptr_1", "[CITY", "@ptr_2", "CITY]"]

    def test_unaligned_span(self, tmp_path):
        records, report = load_wiki(tmp_path, [
            {"context": "coffee shop", "mentions": []},
            {"context": "coffee shop. tea house.",
             "mentions": [{"start": 0, "end": 3, "entity": "X", "type": "t"}]},
        ])
        assert [r.utterance.raw for r in records] == ["coffee shop", "tea house."]
        assert report.loaded == 2 and report.skipped == 1
        assert report.messages[0].startswith("line 2: mention span (0, 3) does not align")

    def test_generated_corpus_always_validates_flat(self, tmp_path):
        records, report = load_wiki(tmp_path, wiki_payloads(count=40, seed=2))
        assert report.loaded == 40 and report.skipped == 0
        assert len(records) > 40
        for record in records:
            n = len(record.utterance.tokens)
            open_name = None  # flat: at most one tag open at a time
            for token in record.target:
                if isinstance(token, Pointer):
                    assert 0 <= token.index < n
                elif token.boundary == "begin":
                    assert open_name is None
                    open_name = token.name
                else:
                    assert token.name == open_name
                    open_name = None
            assert open_name is None


class TestFingerprints:
    def test_order_independent(self):
        a = record_from_row("d", "x", "[IN:A x ]")
        b = record_from_row("d", "y", "[IN:B y ]")
        assert corpus_fingerprint([a, b]) == corpus_fingerprint([b, a])
        assert corpus_fingerprint([a]) != corpus_fingerprint([b])

    def test_carve_split_disjoint(self):
        rows = two_domain_rows(25, seed=0)
        records = [record_from_row(*row) for row in rows]
        train, test = carve_test_split(records)
        train_prints = {record_fingerprint(r) for r in train}
        # duplicate surface rows can repeat fingerprints; splits stay row-disjoint
        assert len(train) + len(test) == len(records)
        assert len(test) >= 2

    def test_load_corpus_directory(self, tmp_path):
        write_topv2_tsv(tmp_path / "train.tsv", two_domain_rows(5, seed=0))
        write_topv2_tsv(tmp_path / "test.tsv", two_domain_rows(3, seed=1))
        train, test = load_corpus(tmp_path)
        assert len(train) == 10 and len(test) == 6

    def test_load_corpus_file_gives_the_carved_pools(self, tmp_path):
        rows = two_domain_rows(10, seed=0)
        train, test = load_corpus(write_topv2_tsv(tmp_path / "all.tsv", rows))
        assert (train, test) == carve_test_split([record_from_row(*row) for row in rows])
        assert len(train) == 16 and len(test) == 4  # a fifth of each domain's 10

    def test_load_corpus_directory_without_train_raises(self, tmp_path):
        write_topv2_tsv(tmp_path / "test.tsv", two_domain_rows(3, seed=1))
        with pytest.raises(DataError, match=re.escape("none of ('train.tsv', 'train.tsv.gz')")):
            load_corpus(tmp_path)
