"""Corpus ingestion, leave-one-out splits, few-shot sampling, and wiki-style pretraining data.

Parse corpora arrive as TSV with header columns ``domain``, ``utterance``,
``semantic_parse`` and load as `DatasetRecord` (domain, utterance, target);
`record_from_row` reads each annotation straight into its target sequence.
Entity-tagging pretraining data arrives as JSON lines
``{"context": str, "mentions": [{"start", "end", "entity", "type"}]}`` and
loads as one flat-tagging `PretrainRecord` (utterance, target) per sentence;
it has no domain, which the splits read. A mention's entity names its tags and
its type text, through `make_tag`, describes them. A record's target is the
tuple of its target tokens, and its labels and concept tags are read from it
by `target_tags`. Either format may be gzip-compressed (``.gz`` suffix). A
file that cannot be read, gunzipped or decoded as UTF-8 raises `DataError`.
"""

from __future__ import annotations

import csv
import gzip
import hashlib
import json
import logging
import re
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Optional, Sequence, Union

import numpy as np

from .errors import (
    ConceptParseError,
    DataError,
    DomainNotFoundError,
    NeedTwoDomainsError,
    SpanAlignmentError,
    require_count,
    require_real,
)
from .parse import (
    ConceptTag,
    Pointer,
    TargetSequence,
    TargetToken,
    Utterance,
    make_tag,
    parse_seqlogical,
    target_tags,
    token_strings,
    tokenize_utterance,
)

log = logging.getLogger(__name__)

@dataclass(frozen=True)
class DatasetRecord:
    """One annotated utterance with its target sequence."""

    domain: str
    utterance: Utterance
    target: TargetSequence


@dataclass(frozen=True)
class Mention:
    """A typed entity mention as character offsets into its sentence.

    ``start`` is inclusive and ``end`` exclusive, both aligned to whitespace
    token boundaries for convertible examples.
    """

    start: int
    end: int
    entity: str
    type_name: str


@dataclass(frozen=True)
class PretrainRecord:
    """A flat tagging example for concept pretraining."""

    utterance: Utterance
    target: TargetSequence


@dataclass(frozen=True)
class DomainSplit:
    """Leave-one-out partition of a corpus around one held-out domain."""

    known_train: tuple[DatasetRecord, ...]
    known_valid: tuple[DatasetRecord, ...]
    heldout_train: tuple[DatasetRecord, ...]
    heldout_test: tuple[DatasetRecord, ...]


@dataclass
class LoadReport:
    """Accounting for one loaded file: rows loaded, rows (or wiki sentences)
    skipped with a message each, and wiki mentions dropped."""

    loaded: int = 0
    skipped: int = 0
    dropped_mentions: int = 0
    messages: list[str] = field(default_factory=list)

    def note(self, message: str) -> None:
        self.skipped += 1
        if len(self.messages) < 20:
            self.messages.append(message)
        log.debug("skipping row: %s", message)


def _read_lines(path: Union[str, Path]) -> Iterator[str]:
    """The lines of a UTF-8 text file, gunzipped for a ``.gz`` suffix; any
    failure to open, read, gunzip or decode raises `DataError` naming the path."""
    path = Path(path)
    try:
        with (gzip.open(path, "rt", encoding="utf-8") if path.suffix == ".gz"
              else open(path, "r", encoding="utf-8")) as handle:
            yield from handle
    except (OSError, EOFError, zlib.error, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc


def record_from_row(domain: str, utterance_text: str, annotation: str) -> DatasetRecord:
    """Build a DatasetRecord from one corpus row; raises on malformed input."""
    utterance = tokenize_utterance(utterance_text)
    target = parse_seqlogical(annotation, utterance)
    return DatasetRecord(domain=domain, utterance=utterance, target=target)


def load_topv2_tsv(path: Union[str, Path]) -> tuple[list[DatasetRecord], LoadReport]:
    """Load a TSV corpus; malformed rows, and rows the csv reader cannot split
    (a field over its field limit), are skipped and counted."""
    report = LoadReport()
    records: list[DatasetRecord] = []
    reader = csv.reader(_read_lines(path), delimiter="\t", quoting=csv.QUOTE_NONE)
    try:
        header = next(reader)
    except StopIteration:
        raise DataError(f"{path}: empty file, expected a TSV header") from None
    except csv.Error as exc:
        raise DataError(f"{path}: unreadable TSV header ({exc})") from exc
    try:
        col = {name: header.index(name)
               for name in ("domain", "utterance", "semantic_parse")}
    except ValueError as exc:
        raise DataError(f"{path}: missing required TSV column ({exc})") from exc
    while True:
        try:
            row = next(reader)
        except StopIteration:
            break
        except csv.Error as exc:  # the reader has consumed the line and goes on
            report.note(f"line {reader.line_num}: {exc}")
            continue
        line_no = reader.line_num
        if len(row) <= max(col.values()):
            report.note(f"line {line_no}: expected {len(header)} columns, got {len(row)}")
            continue
        try:
            records.append(record_from_row(
                row[col["domain"]], row[col["utterance"]], row[col["semantic_parse"]]))
        except ConceptParseError as exc:
            report.note(f"line {line_no}: {exc}")
            continue
        report.loaded += 1
    log.info("loaded %d records from %s (%d skipped)", report.loaded, path, report.skipped)
    return records, report


def build_leave_one_out(train_records: Sequence[DatasetRecord],
                        test_records: Sequence[DatasetRecord],
                        held_out: str,
                        valid_fraction: float = 0.05,
                        seed: int = 0) -> DomainSplit:
    """Partition a corpus around one held-out domain.

    Known-domain training data comes from every other domain, with a seeded
    per-domain fraction held back for validation. The held-out domain's train
    and test records are passed through untouched. A corpus with no domain
    besides ``held_out`` raises `NeedTwoDomainsError`, and a ``valid_fraction``
    outside [0, 1] `ValueError`.
    """
    require_real("valid_fraction", valid_fraction, "in [0, 1]", lambda v: 0 <= v <= 1)
    domains = sorted({r.domain for r in train_records})
    if held_out not in domains:
        raise DomainNotFoundError(
            f"domain {held_out!r} not in corpus (available: {', '.join(domains)})")
    if len(domains) < 2:
        raise NeedTwoDomainsError(
            f"leave-one-out needs a domain besides {held_out!r}; the corpus has no other")
    known_train, known_valid = _hold_back(train_records, valid_fraction, seed,
                                          skip=held_out)
    return DomainSplit(
        known_train=tuple(known_train),
        known_valid=tuple(known_valid),
        heldout_train=tuple(r for r in train_records if r.domain == held_out),
        heldout_test=tuple(r for r in test_records if r.domain == held_out),
    )


def sample_spi(records: Sequence[DatasetRecord], k: int, seed: int) -> list[DatasetRecord]:
    """Greedy randomized covering sample for few-shot budgets.

    Records are shuffled with ``seed``, then kept whenever some label they
    contain is still below ``k`` kept records. Every label ends with at least
    min(k, corpus frequency) kept records. A ``k`` below 1 or a ``seed`` below
    0, or either not an integer, raises `ValueError`.
    """
    require_count("k", k, 1)
    rng = np.random.default_rng(require_count("seed", seed, 0))
    order = rng.permutation(len(records))
    counts: dict[str, int] = {}
    kept: list[DatasetRecord] = []
    for pos in order:
        record = records[int(pos)]
        labels = sorted({tag.name for tag in target_tags(record.target)})
        if any(counts.get(label, 0) < k for label in labels):
            kept.append(record)
            for label in labels:
                counts[label] = counts.get(label, 0) + 1
    return kept


_SENTENCE_BREAK = re.compile(r"(?<=[.!?])\s+")


def _split_sentences(context: str) -> list[tuple[int, str]]:
    """(char offset, sentence) pairs; breaks after ., ! or ? plus whitespace."""
    out = []
    start = 0
    for match in _SENTENCE_BREAK.finditer(context):
        out.append((start, context[start:match.start()]))
        start = match.end()
    out.append((start, context[start:]))
    return [(off, s) for off, s in out if s.strip()]


def _resolve_overlaps(mentions: list[Mention], report: LoadReport) -> list[Mention]:
    """Keep the longest mention of each overlapping cluster."""
    kept: list[Mention] = []
    for mention in sorted(mentions, key=lambda m: (m.start - m.end, m.start, m.entity)):
        if any(mention.start < k.end and k.start < mention.end for k in kept):
            report.dropped_mentions += 1
            continue
        kept.append(mention)
    return sorted(kept, key=lambda m: m.start)


def _require_string(name: str, value) -> str:
    """``value`` if it is a JSON string; else `TypeError`."""
    if not isinstance(value, str):
        raise TypeError(f"{name} is {type(value).__name__}, not a string")
    return value


def load_wikiwiki_jsonl(path: Union[str, Path]) -> tuple[list[PretrainRecord], LoadReport]:
    """Load wiki contexts as flat-tagging pretraining records, one per sentence.

    Contexts are split into sentences, and each mention goes to the one
    sentence that wholly contains it. A mention that no sentence contains, or
    an empty one, is dropped and counted once; overlapping mentions are
    resolved in favor of the longest. A malformed line (one whose mention
    offsets are not JSON integers of at least 0, or whose mention entity or
    type is not a JSON string, for two), or a sentence whose
    mentions do not align to its token boundaries, is skipped and noted with
    its line number.
    """
    report = LoadReport()
    records: list[PretrainRecord] = []
    for line_no, line in enumerate(_read_lines(path), start=1):
        if not line.strip():
            continue
        try:
            payload = json.loads(line)
            context = _require_string("context", payload["context"])
            raw_mentions = [
                Mention(start=require_count("mention start", m["start"], 0),
                        end=require_count("mention end", m["end"], 0),
                        entity=_require_string("mention entity", m["entity"]),
                        type_name=_require_string("mention type", m["type"]))
                for m in payload.get("mentions", [])
            ]
        except (KeyError, TypeError, ValueError, RecursionError) as exc:
            report.note(f"line {line_no}: {exc}")
            continue
        sentences = _split_sentences(context)
        local: list[list[Mention]] = [[] for _ in sentences]
        for m in raw_mentions:
            home = next((i for i, (offset, sentence) in enumerate(sentences)
                         if offset <= m.start < m.end <= offset + len(sentence)), None)
            if home is None:
                report.dropped_mentions += 1
                continue
            offset = sentences[home][0]
            local[home].append(Mention(m.start - offset, m.end - offset,
                                       m.entity, m.type_name))
        for (_, sentence), mentions in zip(sentences, local):
            try:
                records.append(_tagging_record(sentence, _resolve_overlaps(mentions, report)))
            except ConceptParseError as exc:
                report.note(f"line {line_no}: {exc}")
        report.loaded += 1
    log.info("loaded %d wiki sentences from %s (%d skipped, %d mentions dropped)",
             len(records), path, report.skipped, report.dropped_mentions)
    return records, report


def _tagging_record(sentence: str, mentions: Sequence[Mention]) -> PretrainRecord:
    """A sentence as flat tagging, given its disjoint mentions in order.

    Non-mention tokens become top-level pointers; each mention becomes a
    begin-type token, its pointers, and an end-type token. The tag symbol is
    the mention's entity field and the description comes from the type name.
    A mention that does not align to token boundaries raises
    `SpanAlignmentError`.
    """
    utterance = tokenize_utterance(sentence)
    starts: list[int] = []
    ends: list[int] = []
    pos = 0
    for token in utterance.tokens:
        pos = sentence.index(token, pos)
        starts.append(pos)
        ends.append(pos + len(token))
        pos += len(token)

    tokens: list[TargetToken] = []
    cursor = 0
    for mention in mentions:
        if mention.start not in starts or mention.end not in ends:
            raise SpanAlignmentError(
                f"mention span ({mention.start}, {mention.end}) does not align to "
                f"token boundaries of {sentence!r}")
        first = starts.index(mention.start)
        last = ends.index(mention.end)
        tokens.extend(Pointer(i) for i in range(cursor, first))
        tokens.append(make_tag(mention.entity, "begin", type_text=mention.type_name))
        tokens.extend(Pointer(i) for i in range(first, last + 1))
        tokens.append(make_tag(mention.entity, "end", type_text=mention.type_name))
        cursor = last + 1
    tokens.extend(Pointer(i) for i in range(cursor, len(utterance.tokens)))
    return PretrainRecord(utterance=utterance, target=tuple(tokens))


def tags_from_records(records: Sequence[Union[DatasetRecord, PretrainRecord]]) -> list[ConceptTag]:
    """The distinct concept tags of a record set's targets, sorted by (name, boundary)."""
    return sorted(dict.fromkeys(tag for record in records for tag in target_tags(record.target)),
                  key=lambda tag: (tag.name, tag.boundary))


# content fingerprints: record identities that show splits are disjoint

def record_fingerprint(record: DatasetRecord) -> str:
    """SHA-256 of a record's canonical one-line JSON: domain, utterance and
    target token strings, with sorted keys and no spaces."""
    canonical = json.dumps(
        {"domain": record.domain, "utterance": record.utterance.raw,
         "target": token_strings(record.target)},
        sort_keys=True, ensure_ascii=False, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def corpus_fingerprint(records: Iterable[DatasetRecord]) -> dict:
    """Order-independent digest of a record set."""
    hashes = sorted(record_fingerprint(r) for r in records)
    digest = hashlib.sha256("\n".join(hashes).encode("ascii")).hexdigest()
    return {"count": len(hashes), "digest": digest}


def load_corpus(path: Union[str, Path]) -> tuple[list[DatasetRecord], list[DatasetRecord]]:
    """Load (train, test) record lists from a corpus path.

    A directory must contain ``train.tsv`` and ``test.tsv`` (optionally
    gzipped). A single TSV file is carved into disjoint per-domain train and
    test pools with a fixed seed.
    """
    path = Path(path)
    if path.is_dir():
        train_path = _first_existing(path, "train.tsv", "train.tsv.gz")
        test_path = _first_existing(path, "test.tsv", "test.tsv.gz")
        train, _ = load_topv2_tsv(train_path)
        test, _ = load_topv2_tsv(test_path)
        return train, test
    records, _ = load_topv2_tsv(path)
    return carve_test_split(records)


def _first_existing(directory: Path, *names: str) -> Path:
    for name in names:
        candidate = directory / name
        if candidate.exists():
            return candidate
    raise DataError(f"{directory}: none of {names} found")


def carve_test_split(records: Sequence[DatasetRecord], seed: int = 9_173
                     ) -> tuple[list[DatasetRecord], list[DatasetRecord]]:
    """Deterministic per-domain train/test carve for single-file corpora: each
    domain holds back a fifth of its records as test, by `_hold_back`'s rule."""
    return _hold_back(records, 0.2, seed)


def _hold_back(records: Sequence[DatasetRecord], fraction: float, seed: int,
               skip: Optional[str] = None
               ) -> tuple[list[DatasetRecord], list[DatasetRecord]]:
    """Split each domain's records into kept and held back, domain by domain.

    Domains go in sorted order, and domain i draws its held-back positions
    from ``[seed, i]``; ``skip`` keeps its index but contributes nothing. A
    domain of more than one record holds back max(1, round(fraction * size)).
    """
    kept: list[DatasetRecord] = []
    held: list[DatasetRecord] = []
    for index, domain in enumerate(sorted({r.domain for r in records})):
        if domain == skip:
            continue
        domain_records = [r for r in records if r.domain == domain]
        rng = np.random.default_rng([seed, index])
        order = rng.permutation(len(domain_records))
        n_held = max(1, round(fraction * len(domain_records))) \
            if len(domain_records) > 1 else 0
        held_positions = set(order[:n_held].tolist())
        for pos, record in enumerate(domain_records):
            (held if pos in held_positions else kept).append(record)
    return kept, held
